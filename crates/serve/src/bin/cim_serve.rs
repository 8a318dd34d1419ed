//! `cim-serve` — the scheduling daemon.
//!
//! ```text
//! cim-serve [--socket <path>] [--tcp <addr>] [--max-queue <n>]
//!           [--tenant-quota <n>] [--jobs <n>] [--cache-dir <dir>]
//!           [--read-timeout-ms <ms>] [--max-line-bytes <n>]
//!           [--fault-seed S --fault-rate site=per_mille ... --fault-delay-ms MS]
//! ```
//!
//! Listens on a Unix socket (default `/tmp/cim-serve.sock`) for
//! newline-delimited JSON requests and serves until a
//! `{"op":"shutdown"}` request arrives; then prints the final service
//! statistics. `--cache-dir` makes results durable across daemon
//! generations (warm restarts answer from disk). `--tenant-quota`
//! bounds how many pending computations any single model may hold in
//! the queue at once — excess requests get a retryable
//! `quota_exceeded` error instead of starving the other tenants.
//!
//! Hardening knobs: `--read-timeout-ms` bounds how long an idle
//! connection pins its handler thread (`0` = wait forever), and
//! `--max-line-bytes` bounds a request frame (longer lines get a typed
//! `line_too_long` error; the connection survives). The `--fault-*`
//! flags drive deterministic chaos injection into store I/O and
//! connection handling (see `cim_bench::runner::fault`). If the store
//! directory stops accepting writes the daemon degrades to cache-only
//! mode and keeps answering — visible in `stats` and the `health` op.
//!
//! ```text
//! $ cim-serve --socket /tmp/cim.sock --cache-dir /tmp/cim-store &
//! $ printf '%s\n' '{"id":"r1","model":"fig5","strategy":"xinf"}' | nc -U /tmp/cim.sock
//! ```

use cim_bench::cli::{self, Flag, CACHE_DIR, FAULTS, JOBS};
use cim_serve::{Daemon, DaemonOptions, EngineOptions};

fn main() {
    let common = cli::parse(&[
        &[
            Flag::value("--socket", "path"),
            Flag::value("--tcp", "addr"),
            Flag::value("--max-queue", "n"),
            Flag::value("--tenant-quota", "n"),
            Flag::value("--read-timeout-ms", "ms"),
            Flag::value("--max-line-bytes", "n"),
            JOBS,
            CACHE_DIR,
        ],
        FAULTS,
    ]);
    let socket = common.value("--socket").unwrap_or("/tmp/cim-serve.sock");
    let max_queue: usize = common.get("--max-queue").unwrap_or(256);
    let tenant_quota: Option<usize> = common.get("--tenant-quota");
    if tenant_quota == Some(0) {
        common.fail("--tenant-quota must be at least 1 (omit the flag to disable)");
    }
    let read_timeout = match common.get("--read-timeout-ms") {
        Some(0) => None, // explicit 0 = wait forever
        Some(ms) => Some(std::time::Duration::from_millis(ms)),
        None => Some(cim_serve::DEFAULT_READ_TIMEOUT),
    };
    let max_line_bytes = common
        .get("--max-line-bytes")
        .unwrap_or(cim_serve::DEFAULT_MAX_LINE_BYTES);

    if let Some(plan) = &common.faults {
        println!("cim-serve: fault plan seeded with {}", plan.seed());
    }
    let options = DaemonOptions {
        socket: socket.into(),
        tcp: common.value("--tcp").map(String::from),
        engine: EngineOptions {
            jobs: common.runner.jobs,
            max_queue,
            tenant_quota,
        },
        cache_dir: common.cache_dir.clone().map(Into::into),
        read_timeout,
        max_line_bytes,
        faults: common
            .faults
            .clone()
            .map(|plan| plan as std::sync::Arc<dyn cim_bench::runner::FaultHook>),
    };

    let daemon = Daemon::bind(options).unwrap_or_else(|e| {
        eprintln!("cim-serve: bind failed: {e}");
        std::process::exit(1);
    });
    println!(
        "cim-serve: listening on {socket}{} (jobs {}, max-queue {max_queue}{}{})",
        match daemon.tcp_addr() {
            Some(addr) => format!(" + tcp {addr}"),
            None => String::new(),
        },
        common.runner.jobs,
        match tenant_quota {
            Some(quota) => format!(", tenant-quota {quota}"),
            None => String::new(),
        },
        match &common.cache_dir {
            Some(dir) => format!(", cache-dir {dir}"),
            None => String::new(),
        },
    );

    match daemon.run() {
        Ok(stats) => {
            println!(
                "cim-serve: shut down after {} requests ({} ok, {} errors, {} shed)",
                stats.submitted, stats.ok, stats.errors, stats.shed
            );
            println!(
                "cim-serve: warm {} store + {} cache, coalesced {}, p50 {} ns, p99 {} ns",
                stats.warm_store, stats.warm_cache, stats.coalesced, stats.p50_ns, stats.p99_ns
            );
            if stats.degraded {
                eprintln!(
                    "cim-serve: exited degraded (cache-only): {} store writes failed",
                    stats.store_write_errors
                );
            }
            if let Some(plan) = &common.faults {
                println!("cim-serve: fault plan: seed {} — {}", plan.seed(), plan.report());
            }
        }
        Err(e) => {
            eprintln!("cim-serve: serve loop failed: {e}");
            std::process::exit(1);
        }
    }
}
