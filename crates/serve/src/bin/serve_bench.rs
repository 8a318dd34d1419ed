//! `serve-bench` — client driver measuring sustained daemon throughput.
//!
//! Two modes:
//!
//! ```text
//! serve-bench [--requests <n>] [--model <name>] [--jobs <n>]
//!             [--cache-dir <dir>] [--json <path>]
//! ```
//!
//! Default (in-process) mode: runs **two daemon generations sharing one
//! cache directory** — a cold generation that computes every request and
//! a warm generation that answers from the persistent store — measures
//! sustained requests/sec for both, asserts the reply streams are
//! byte-identical across generations, and writes the trajectory snapshot
//! `BENCH_serve.json` (override with `--json`).
//!
//! ```text
//! serve-bench --connect <socket> [--requests <n>] [--model <name>]
//!             [--replies <path>] [--shutdown]
//! ```
//!
//! Connect mode: drives one pass against an externally started daemon
//! (the CI smoke job), optionally dumping the raw reply lines for
//! byte-comparison and/or shutting the daemon down afterwards.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use cim_bench::cli::{self, Args, Flag, CACHE_DIR, JOBS, JSON};
use cim_serve::{
    Client, Daemon, DaemonOptions, EngineOptions, Op, Request, RetryPolicy, StatsSnapshot,
};
use cim_tune::{Clock, SystemClock};
use serde::Value;

/// The request list both generations replay: `n` requests cycling over
/// the four strategies and two duplication budgets (8 distinct keys).
fn request_lines(n: usize, model: &str) -> Vec<String> {
    let strategies = ["layer-by-layer", "xinf", "wdup", "wdup+xinf"];
    (0..n)
        .map(|i| {
            let strategy = strategies[i % strategies.len()];
            let x = if strategy.starts_with("wdup") { 1 + (i / 4) % 2 } else { 0 };
            let req = Request::schedule(&format!("req-{i}"), model, strategy, x);
            serde_json::to_string(&req).expect("requests serialize")
        })
        .collect()
}

fn distinct_keys(n: usize) -> usize {
    // layer-by-layer and xinf ignore x → 2 keys; wdup/wdup+xinf see
    // x ∈ {1, 2} → up to 4 keys; capped by the request count.
    let mut labels = std::collections::BTreeSet::new();
    let strategies = ["layer-by-layer", "xinf", "wdup", "wdup+xinf"];
    for i in 0..n {
        let strategy = strategies[i % strategies.len()];
        let x = if strategy.starts_with("wdup") { 1 + (i / 4) % 2 } else { 0 };
        labels.insert((strategy, x));
    }
    labels.len()
}

struct PassResult {
    replies: Vec<String>,
    stats: StatsSnapshot,
    elapsed: Duration,
}

/// Sends every line, collects raw replies, fetches stats, optionally
/// shuts the daemon down. I/O and protocol failures surface as typed
/// errors instead of panics; the typed control requests ride the
/// client's seeded retry loop, so a load-shedding or briefly wedged
/// daemon doesn't abort the whole pass.
fn drive(client: &mut Client, lines: &[String], shutdown: bool) -> io::Result<PassResult> {
    let retry = RetryPolicy::default();
    let clock = SystemClock::new();
    let mut replies = Vec::with_capacity(lines.len());
    for line in lines {
        replies.push(client.request_line(line)?);
    }
    let elapsed = clock.now();
    let stats_resp = client.request_with_retry(&Request::bare("bench-stats", Op::Stats), &retry)?;
    let stats = stats_resp
        .as_stats()
        .ok_or_else(|| io::Error::other(format!("stats reply carried no snapshot: {stats_resp:?}")))?
        .clone();
    if shutdown {
        let ack = client.request(&Request::bare("bench-shutdown", Op::Shutdown))?;
        if !matches!(ack.body, cim_serve::ResponseBody::Shutdown) {
            return Err(io::Error::other(format!(
                "shutdown not acknowledged, got {ack:?}"
            )));
        }
    }
    Ok(PassResult {
        replies,
        stats,
        elapsed,
    })
}

fn rps(n: usize, elapsed: Duration) -> f64 {
    if elapsed > Duration::ZERO {
        n as f64 / elapsed.as_secs_f64()
    } else {
        0.0
    }
}

fn pass_value(pass: &PassResult) -> Value {
    Value::Map(vec![
        ("elapsed_ns".into(), Value::U64(
            u64::try_from(pass.elapsed.as_nanos()).unwrap_or(u64::MAX),
        )),
        ("rps".into(), Value::F64(rps(pass.replies.len(), pass.elapsed))),
        ("p50_ns".into(), Value::U64(pass.stats.p50_ns)),
        ("p99_ns".into(), Value::U64(pass.stats.p99_ns)),
        ("ok".into(), Value::U64(pass.stats.ok)),
        ("errors".into(), Value::U64(pass.stats.errors)),
        ("warm_store".into(), Value::U64(pass.stats.warm_store)),
        ("warm_cache".into(), Value::U64(pass.stats.warm_cache)),
        ("store_hits".into(), Value::U64(pass.stats.store_hits)),
    ])
}

/// One daemon generation over `cache_dir`: bind, serve on a background
/// thread, drive the full request list, shut down, join.
fn generation(
    tag: &str,
    socket: &Path,
    cache_dir: &Path,
    jobs: usize,
    lines: &[String],
) -> io::Result<PassResult> {
    let daemon = Daemon::bind(DaemonOptions {
        engine: EngineOptions {
            jobs,
            max_queue: lines.len().max(16),
            tenant_quota: None,
        },
        cache_dir: Some(cache_dir.to_path_buf()),
        ..DaemonOptions::at(socket)
    })
    .map_err(|e| io::Error::other(format!("{tag}: bind {} failed: {e}", socket.display())))?;
    let server = std::thread::spawn(move || daemon.run());
    let mut client = connect_with_retry(socket)?;
    let pass = drive(&mut client, lines, true)?;
    match server.join() {
        Ok(Ok(_final_stats)) => Ok(pass),
        Ok(Err(e)) => Err(io::Error::other(format!("{tag}: daemon run failed: {e}"))),
        Err(_) => Err(io::Error::other(format!("{tag}: daemon thread panicked"))),
    }
}

fn connect_with_retry(socket: &Path) -> io::Result<Client> {
    for _ in 0..200 {
        if let Ok(client) = Client::connect_unix(socket) {
            return Ok(client);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err(io::Error::new(
        io::ErrorKind::TimedOut,
        format!("daemon at {} never became connectable", socket.display()),
    ))
}

fn main() {
    let args = cli::parse(&[&[
        Flag::value("--requests", "n"),
        Flag::value("--model", "name"),
        Flag::value("--connect", "socket"),
        Flag::value("--replies", "path"),
        Flag::switch("--shutdown"),
        JOBS,
        CACHE_DIR,
        JSON,
    ]]);
    if let Err(e) = run(&args) {
        eprintln!("serve-bench: {e}");
        std::process::exit(1);
    }
}

fn run(common: &Args) -> io::Result<()> {
    let requests: usize = common.get("--requests").unwrap_or(24);
    let model = common.value("--model").unwrap_or("fig5");
    let lines = request_lines(requests, model);

    if let Some(socket) = common.value("--connect") {
        // External mode: one pass against a running daemon. Retry the
        // connect — CI starts the daemon in the background and races it.
        let mut client = connect_with_retry(&PathBuf::from(socket))?;
        let pass = drive(&mut client, &lines, common.has("--shutdown"))?;
        if let Some(path) = common.value("--replies") {
            std::fs::write(path, pass.replies.join("\n") + "\n")
                .map_err(|e| io::Error::other(format!("write {path}: {e}")))?;
        }
        assert_eq!(
            pass.stats.errors, 0,
            "external pass must be error-free, stats: {:?}",
            pass.stats
        );
        println!(
            "serve-bench: {} requests in {:?} ({:.1} req/s), p50 {} ns, p99 {} ns, warm {} store + {} cache",
            requests,
            pass.elapsed,
            rps(requests, pass.elapsed),
            pass.stats.p50_ns,
            pass.stats.p99_ns,
            pass.stats.warm_store,
            pass.stats.warm_cache,
        );
        return Ok(());
    }

    // In-process mode: two generations over one store.
    let scratch = std::env::temp_dir().join(format!("cim-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)?;
    let cache_dir = match &common.cache_dir {
        Some(dir) => PathBuf::from(dir),
        None => scratch.join("store"),
    };
    let jobs = common.runner.jobs;

    let cold = generation("cold", &scratch.join("cold.sock"), &cache_dir, jobs, &lines)?;
    let warm = generation("warm", &scratch.join("warm.sock"), &cache_dir, jobs, &lines)?;

    assert_eq!(
        cold.replies, warm.replies,
        "cold and warm generations must produce byte-identical replies"
    );
    assert_eq!(cold.stats.errors, 0, "cold pass errors: {:?}", cold.stats);
    assert_eq!(
        warm.stats.warm_store as usize, requests,
        "every warm request must be answered from the store: {:?}",
        warm.stats
    );

    let snapshot = Value::Map(vec![
        ("bench".into(), Value::Str("cim-serve".into())),
        ("model".into(), Value::Str(model.to_string())),
        ("requests".into(), Value::U64(requests as u64)),
        ("distinct_keys".into(), Value::U64(distinct_keys(requests) as u64)),
        ("jobs".into(), Value::U64(jobs as u64)),
        ("cold".into(), pass_value(&cold)),
        ("warm".into(), pass_value(&warm)),
        ("byte_identical".into(), Value::Bool(true)),
    ]);
    let json_path = common.json.clone().unwrap_or_else(|| "BENCH_serve.json".into());
    // Plain string/number trees; serialization cannot fail on them.
    let mut text = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    text.push('\n');
    std::fs::write(&json_path, text)
        .map_err(|e| io::Error::other(format!("write {json_path}: {e}")))?;

    println!(
        "serve-bench: {} requests × 2 generations over {} distinct keys (jobs {})",
        requests,
        distinct_keys(requests),
        jobs
    );
    println!(
        "  cold: {:>8.1} req/s  (p50 {} ns, p99 {} ns)",
        rps(requests, cold.elapsed),
        cold.stats.p50_ns,
        cold.stats.p99_ns
    );
    println!(
        "  warm: {:>8.1} req/s  (p50 {} ns, p99 {} ns, {} store hits)",
        rps(requests, warm.elapsed),
        warm.stats.p50_ns,
        warm.stats.p99_ns,
        warm.stats.warm_store
    );
    println!("  byte-identical replies: yes -> {json_path}");

    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}
