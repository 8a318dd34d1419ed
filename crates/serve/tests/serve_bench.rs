//! The `serve-bench` driver against a daemon bound in this process: a
//! pass the daemon answers with errors exits 1 with one line naming the
//! error count and the first error code, never with a panic, and the
//! driver refuses to run without `--connect`.

use std::process::{Command, Output};

use cim_serve::{Daemon, DaemonOptions};

fn serve_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve-bench"))
        .args(args)
        .output()
        .expect("serve-bench spawns")
}

#[test]
fn error_replies_exit_1_naming_the_first_error_code() {
    let dir = std::env::temp_dir().join(format!("cim-serve-bench-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let socket = dir.join("sock");
    let daemon = Daemon::bind(DaemonOptions::at(&socket)).expect("daemon binds");
    let server = std::thread::spawn(move || daemon.run());

    let socket = socket.to_str().expect("temp path is UTF-8");
    let out = serve_bench(&[
        "--connect",
        socket,
        "--requests",
        "4",
        "--model",
        "nope",
        "--shutdown",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(
        stderr.trim_end(),
        "serve-bench: the daemon reports 4 errors (first error code: unknown_model)"
    );
    assert!(out.stdout.is_empty(), "a failed pass printed a summary");
    server
        .join()
        .expect("daemon thread")
        .expect("daemon runs to shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connect_is_required() {
    let out = serve_bench(&["--requests", "4"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: --connect <socket> is required\nusage: serve-bench"),
        "{stderr}"
    );
}
