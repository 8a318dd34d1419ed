//! Crash recovery through the store, end to end: a child process running
//! the fig. 6c sweep (slowed by an injected per-job delay so the kill
//! lands mid-sweep) is SIGKILLed once it has persisted a row, then the
//! sweep is simply rerun against the same store — and the artifact is
//! **byte-identical** to `tests/golden/fig6c.json`, the same bytes an
//! uninterrupted run produces. The store is the only resume state: every
//! row that reached disk replays as a hit, the rest compute.
//!
//! The child is this same test binary re-executed with [`STORE_ENV`]
//! set (the `child_chaos_sweep` "test" is a no-op in a normal run) —
//! the same pattern `tests/serve_protocol.rs` uses for daemon restarts.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use cim_bench::artifacts::{case_study_graph, fig6c_jobs};
use cim_bench::runner::{FaultPlan, FaultSite, ResultStore, RunnerOptions, Sweep};

const STORE_ENV: &str = "CIM_CHAOS_IT_STORE";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cim_chaos_it_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Persisted rows in a store directory: the complete lines of its log
/// (a row still being appended has no newline yet).
fn rows_on_disk(dir: &Path) -> usize {
    fs::read(dir.join("rows.jsonl"))
        .map(|log| log.iter().filter(|&&b| b == b'\n').count())
        .unwrap_or(0)
}

/// Not a test of its own: becomes the *interrupted sweep process* when
/// the parent re-executes this test binary with [`STORE_ENV`] set. In a
/// normal `cargo test` run (env unset) it is a no-op.
#[test]
fn child_chaos_sweep() {
    let Ok(dir) = std::env::var(STORE_ENV) else {
        return;
    };
    let g = case_study_graph();
    let jobs = fig6c_jobs(&g).expect("sweep jobs build");
    let store = ResultStore::open(&dir).expect("store opens");
    // Every job sleeps a second before computing, so the parent's kill
    // reliably lands between the first persisted row and the last.
    let slow = FaultPlan::new(2024)
        .with_rate(FaultSite::JobDelay, 1000)
        .with_delay(Duration::from_millis(1000));
    let outcome = Sweep {
        store: Some(&store),
        faults: Some(&slow),
        ..Sweep::new(&jobs, RunnerOptions::sequential())
    }
    .run()
    .expect("sweep runs");
    assert!(outcome.failures.is_empty());
}

#[test]
fn sigkill_mid_sweep_then_resume_reproduces_the_golden_artifact() {
    let dir = tmp_dir("resume");
    let g = case_study_graph();
    let jobs = fig6c_jobs(&g).expect("sweep jobs build");

    let mut child = Command::new(std::env::current_exe().expect("own path"))
        .args(["child_chaos_sweep", "--exact", "--test-threads=1"])
        .env(STORE_ENV, &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("child sweep spawns");

    // Wait for the first persisted row, then SIGKILL the child
    // mid-sweep. Bounded poll, no wall clock.
    for _ in 0..2_000 {
        if rows_on_disk(&dir) >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL delivered"); // SIGKILL: no cleanup runs
    let _ = child.wait();

    // The interruption is real: some rows landed, not all of them.
    let persisted = rows_on_disk(&dir);
    assert!(
        persisted >= 1 && persisted < jobs.len(),
        "kill landed mid-sweep: {persisted}/{} rows persisted",
        jobs.len()
    );

    // Resume is a plain rerun against the same store: the persisted rows
    // replay as hits, the rest compute.
    let store = ResultStore::open(&dir).expect("store reopens after kill");
    let resumed = Sweep {
        store: Some(&store),
        ..Sweep::new(&jobs, RunnerOptions::sequential())
    }
    .run()
    .expect("rerun sweeps");
    assert!(resumed.failures.is_empty());
    let stats = store.stats();
    assert_eq!(
        stats.hits, persisted as u64,
        "every persisted row replays: {stats:?}"
    );
    assert_eq!(
        stats.writes,
        (jobs.len() - persisted) as u64,
        "only the rest compute"
    );

    // The artifact is byte-identical to an uninterrupted run — pinned by
    // the committed golden.
    let resumed_json = serde_json::to_string_pretty(&resumed.results).expect("rows serialize");
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig6c.json");
    let golden = fs::read_to_string(golden).expect("committed golden readable");
    assert_eq!(
        resumed_json, golden,
        "kill + rerun drifted from tests/golden/fig6c.json"
    );
    let _ = fs::remove_dir_all(&dir);
}
