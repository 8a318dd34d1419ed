//! The command-line contract of the experiment binaries: bad input exits
//! with status 2 and one `error: …` line before any work, never with a
//! panic, and `--help` prints the usage line and runs nothing. A `--json`
//! export that cannot be written ends the same way, after the work.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"))
}

/// Asserts `out` is a usage error: exit 2, a first stderr line starting
/// with `error: `, and no panic. Returns that first line.
fn assert_usage_error(case: &str, out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{case}: stderr {stderr}");
    let first = stderr.lines().next().unwrap_or_default().to_string();
    assert!(first.starts_with("error: "), "{case}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{case}: stderr {stderr}");
    first
}

#[test]
fn bad_input_exits_2_before_any_work() {
    let cases: &[(&str, &str, &[&str])] = &[
        (
            "autotune",
            env!("CARGO_BIN_EXE_autotune"),
            &["--bogus-flag", "7"],
        ),
        (
            "autotune",
            env!("CARGO_BIN_EXE_autotune"),
            &["--model", "nope"],
        ),
        (
            "autotune",
            env!("CARGO_BIN_EXE_autotune"),
            &["--model", "fig5", "--space", "tiny", "--budget", "0"],
        ),
        ("fig6", env!("CARGO_BIN_EXE_fig6"), &["--part", "z"]),
        ("fig6", env!("CARGO_BIN_EXE_fig6"), &["--jobs", "0"]),
        ("table2", env!("CARGO_BIN_EXE_table2"), &["--jobs"]),
        (
            "inspect",
            env!("CARGO_BIN_EXE_inspect"),
            &["VGG16", "--x", "abc"],
        ),
        ("table1", env!("CARGO_BIN_EXE_table1"), &["--shard", "0/2"]),
        (
            "fabric-sim",
            env!("CARGO_BIN_EXE_fabric-sim"),
            &["--frobnicate", "3"],
        ),
        (
            "fabric-sim",
            env!("CARGO_BIN_EXE_fabric-sim"),
            &["--stagger", "4294967296"],
        ),
        (
            "fabric-sim",
            env!("CARGO_BIN_EXE_fabric-sim"),
            &["--reload", "4294967296"],
        ),
        // A zero set cap the pipeline rejects, and extra PEs that
        // overflow `PE_min + x`.
        (
            "inspect",
            env!("CARGO_BIN_EXE_inspect"),
            &["VGG16", "--sets", "0"],
        ),
        (
            "lint-schedule",
            env!("CARGO_BIN_EXE_lint-schedule"),
            &["VGG16", "--sets", "0"],
        ),
        (
            "inspect",
            env!("CARGO_BIN_EXE_inspect"),
            &["TinyYOLOv3", "--x", "18446744073709551615"],
        ),
        (
            "lint-schedule",
            env!("CARGO_BIN_EXE_lint-schedule"),
            &["TinyYOLOv3", "--x", "18446744073709551615"],
        ),
        (
            "fabric-sim",
            env!("CARGO_BIN_EXE_fabric-sim"),
            &["--extra-pes", "18446744073709551615"],
        ),
        // fabric-sim keeps no result store.
        (
            "fabric-sim",
            env!("CARGO_BIN_EXE_fabric-sim"),
            &["--cache-dir", "d"],
        ),
        (
            "fabric-sim",
            env!("CARGO_BIN_EXE_fabric-sim"),
            &["--fault-seed", "1"],
        ),
    ];
    for (name, bin, args) in cases {
        let out = run(bin, args);
        assert_usage_error(&format!("{name} {}", args.join(" ")), &out);
        assert!(out.stdout.is_empty(), "{name} {args:?} printed output");
    }
}

#[test]
fn unread_json_flag_writes_no_file() {
    let dir = std::env::temp_dir().join(format!("cim-cli-test-{}", std::process::id()));
    let path = dir.join("out.json");
    let path = path.to_str().expect("temp path is UTF-8");
    let out = run(env!("CARGO_BIN_EXE_fig5_minimal"), &["--json", path]);
    assert_usage_error("fig5_minimal --json", &out);
    assert!(!dir.exists(), "fig5_minimal wrote {path}");
}

#[test]
fn unwritable_json_path_exits_2_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("cim-cli-json-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.to_str().expect("temp path is UTF-8");
    let cases: &[(&str, &str, &[&str])] = &[
        ("table1", env!("CARGO_BIN_EXE_table1"), &[]),
        (
            "fabric-sim",
            env!("CARGO_BIN_EXE_fabric-sim"),
            &["--tenants", "fig5:2"],
        ),
        (
            "lint-schedule",
            env!("CARGO_BIN_EXE_lint-schedule"),
            &["TinyYOLOv3"],
        ),
    ];
    for (name, bin, args) in cases {
        let out = run(bin, &[args, &["--json", path][..]].concat());
        let case = format!("{name} --json <directory>");
        let first = assert_usage_error(&case, &out);
        assert!(first.contains(&format!("--json {path}")), "{case}: {first}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
        assert_eq!(errors, 1, "{case}: stderr {stderr}");
    }
    std::fs::remove_dir(&dir).expect("temp dir stays empty");
}

#[test]
fn positional_model_may_follow_a_flag() {
    let out = run(
        env!("CARGO_BIN_EXE_lint-schedule"),
        &["--lbl", "NoSuchModel"],
    );
    let first = assert_usage_error("lint-schedule --lbl NoSuchModel", &out);
    assert!(first.contains("NoSuchModel"), "{first}");
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    let out = run(env!("CARGO_BIN_EXE_autotune"), &["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("usage: autotune"), "{stdout}");
    assert!(!stdout.contains("autotune:"), "a search ran: {stdout}");
}
