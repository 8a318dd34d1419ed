//! `serve-bench` — client driver measuring sustained daemon throughput.
//!
//! ```text
//! serve-bench --connect <socket> [--requests <n>] [--model <name>]
//!             [--replies <path>] [--shutdown]
//! ```
//!
//! Drives one pass of `--requests` schedule requests (default 24) against
//! a daemon started separately (the CI smoke job), then prints one
//! summary line: requests per second, the daemon's p50/p99 latency and
//! its warm answers. `--replies` dumps the raw reply lines for
//! byte-comparison across passes; `--shutdown` stops the daemon
//! afterwards. A pass the daemon answered with any error exits 1 after
//! naming the error count and the first error code.
//!
//! Wall-clock claims about the daemon go through the repository
//! benchmark (`BENCHMARK.json`, workload `serve-engine`), not this driver.

use std::io;
use std::path::Path;
use std::time::Duration;

use cim_bench::cli::{self, Args, Flag};
use cim_serve::{Client, Op, Request, Response, RetryPolicy, StatsSnapshot};
use cim_tune::{Clock, SystemClock};

/// The request list of one pass: `n` requests cycling over the four
/// strategies and two duplication budgets (up to 6 distinct keys).
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
        Flag::value("--connect", "socket"),
        Flag::value("--requests", "n"),
        Flag::value("--model", "name"),
        Flag::value("--replies", "path"),
        Flag::switch("--shutdown"),
    ]]);
    let Some(socket) = args.value("--connect") else {
        args.fail("--connect <socket> is required");
    };
    if let Err(e) = run(&args, Path::new(socket)) {
        eprintln!("serve-bench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args, socket: &Path) -> io::Result<()> {
    let requests: usize = args.get("--requests").unwrap_or(24);
    let model = args.value("--model").unwrap_or("fig5");
    let lines = request_lines(requests, model);

    // Retry the connect: CI starts the daemon in the background and
    // races it.
    let mut client = connect_with_retry(socket)?;
    let pass = drive(&mut client, &lines, args.has("--shutdown"))?;
    if let Some(path) = args.value("--replies") {
        std::fs::write(path, pass.replies.join("\n") + "\n")
            .map_err(|e| io::Error::other(format!("write {path}: {e}")))?;
    }
    if pass.stats.errors > 0 {
        let first = pass
            .replies
            .iter()
            .filter_map(|line| serde_json::from_str::<Response>(line).ok())
            .find_map(|reply| reply.as_error().map(|e| e.code.as_str()))
            .unwrap_or("none among this pass's replies");
        return Err(io::Error::other(format!(
            "the daemon reports {} errors (first error code: {first})",
            pass.stats.errors
        )));
    }
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
    Ok(())
}
