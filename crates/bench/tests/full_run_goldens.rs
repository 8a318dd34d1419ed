//! Golden outputs of the binaries that read a full pipeline run rather
//! than a `RunSummary`: the five `ablation_*` sweeps (their `--json`
//! export), the `fig6 --part a|b` Gantt charts and the `fig5_minimal`
//! worked example (their stdout: Stage I sets, every consumer's `P`
//! producers, every producer's `Q` count, the schedules). The bare `fig6`
//! run, all three parts in one process, must reproduce the same bytes.
//!
//! Each binary but `fig5_minimal`, which has no worker pool, runs at
//! `--jobs 2`, and its bytes are compared with the committed file under
//! `tests/golden/`. To re-bless after an *intentional* output change:
//!
//! ```text
//! CIM_BLESS=1 cargo test -p cim-bench --test full_run_goldens
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Compares `actual` with the golden `name`, or rewrites it under
/// `CIM_BLESS=1`.
fn check_golden(name: &str, actual: &[u8]) {
    let path = golden_path(name);
    if std::env::var("CIM_BLESS").is_ok_and(|v| v == "1") {
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read(&path)
        .unwrap_or_else(|e| panic!("golden {name} unreadable ({e}); bless with CIM_BLESS=1"));
    assert!(
        expected == actual,
        "{name} drifted from the committed golden; if the change is intentional, \
         re-bless with CIM_BLESS=1 cargo test -p cim-bench --test full_run_goldens\n\
         --- actual ---\n{}",
        String::from_utf8_lossy(actual)
    );
}

/// Runs `bin` with `args`, asserting success, and returns its stdout.
fn stdout_of(bin: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// A temp directory of one test, removed when dropped — also while a
/// failed assertion unwinds. The tests of this file run concurrently in
/// one process, so each gets its own.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "cim_full_run_goldens_{}_{test}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).expect("temp dir");
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn check_ablation(name: &str, bin: &str) {
    let actual = {
        let dir = ScratchDir::new(name);
        let json = dir.0.join(format!("{name}.json"));
        stdout_of(
            bin,
            &["--jobs", "2", "--json", json.to_str().expect("utf-8 path")],
        );
        fs::read(&json).expect("ablation wrote its --json export")
    };
    check_golden(&format!("{name}.json"), &actual);
}

#[test]
fn ablation_granularity_matches_golden() {
    check_ablation(
        "ablation_granularity",
        env!("CARGO_BIN_EXE_ablation_granularity"),
    );
}

#[test]
fn ablation_batching_matches_golden() {
    check_ablation("ablation_batching", env!("CARGO_BIN_EXE_ablation_batching"));
}

#[test]
fn ablation_noc_matches_golden() {
    check_ablation("ablation_noc", env!("CARGO_BIN_EXE_ablation_noc"));
}

#[test]
fn ablation_bitslice_matches_golden() {
    check_ablation("ablation_bitslice", env!("CARGO_BIN_EXE_ablation_bitslice"));
}

#[test]
fn ablation_duplication_matches_golden() {
    check_ablation(
        "ablation_duplication",
        env!("CARGO_BIN_EXE_ablation_duplication"),
    );
}

#[test]
fn fig6_gantt_parts_match_golden() {
    for part in ["a", "b"] {
        let stdout = stdout_of(env!("CARGO_BIN_EXE_fig6"), &["--part", part, "--jobs", "2"]);
        check_golden(&format!("fig6{part}.txt"), &stdout);
    }
}

/// The bare run prints parts a and b as `--part a|b` do, each followed by
/// a blank line, exports part c's rows, and runs parts a and b over one
/// `prepare`.
#[test]
fn fig6_all_parts_match_the_part_goldens() {
    let (stdout, export) = {
        let dir = ScratchDir::new("fig6");
        let json = dir.0.join("fig6c.json");
        let stdout = stdout_of(
            env!("CARGO_BIN_EXE_fig6"),
            &["--jobs", "2", "--json", json.to_str().expect("utf-8 path")],
        );
        (
            stdout,
            fs::read(&json).expect("fig6 wrote its --json export"),
        )
    };
    let read = |name: &str| fs::read(golden_path(name)).expect("golden readable");
    let prefix = [
        read("fig6a.txt"),
        b"\n".to_vec(),
        read("fig6b.txt"),
        b"\n".to_vec(),
    ]
    .concat();
    assert!(
        stdout.starts_with(&prefix),
        "fig6 parts a and b drifted from fig6a.txt/fig6b.txt\n--- actual ---\n{}",
        String::from_utf8_lossy(&stdout)
    );
    assert!(
        export == read("fig6c.json"),
        "fig6 --json drifted from fig6c.json"
    );
    let stdout = String::from_utf8_lossy(&stdout);
    assert!(
        stdout.contains("case-study cache: stages 1/2 hit"),
        "{stdout}"
    );
}

#[test]
fn fig5_minimal_matches_golden() {
    let stdout = stdout_of(env!("CARGO_BIN_EXE_fig5_minimal"), &[]);
    check_golden("fig5_minimal.txt", &stdout);
}
