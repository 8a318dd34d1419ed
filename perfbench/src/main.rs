//! `perfbench` — the workspace's seeded end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <compile-cold|autotune-wide|serve-engine|fabric-contended>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets the workload up (several times; the median is `setup_s`),
//! measures it for `--seconds`, checks every output in a separate check
//! pass, and prints human-readable detail lines, an environment stamp and,
//! as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run repeats the
//! workload with spans around each layer's calls and reports the
//! per-layer metrics plus the tracing overhead. Spans are written to
//! `perfbench-out/` at the end of a traced run.

mod compile;
mod fabric;
mod gen;
mod pace;
mod serve;
mod stats;
mod trace;
mod tune;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::Duration;

use cim_tune::{Clock, SystemClock};

/// Result type of the benchmark's own code: errors are messages.
pub type Res<T> = Result<T, String>;

/// Stringifies any displayable error (for `map_err`).
pub fn err<E: Display>(e: E) -> String {
    e.to_string()
}

/// The benchmark's monotonic clock.
pub fn now() -> Duration {
    static CLOCK: OnceLock<SystemClock> = OnceLock::new();
    CLOCK.get_or_init(SystemClock::new).now()
}

/// Seconds elapsed since `start` (a [`now`] reading).
pub fn secs_since(start: Duration) -> f64 {
    now().saturating_sub(start).as_secs_f64()
}

/// Directory (relative to the working directory) for stores and
/// span files; removed again where the run created scratch state.
pub fn out_dir() -> Res<PathBuf> {
    let dir = PathBuf::from("perfbench-out");
    std::fs::create_dir_all(&dir).map_err(err)?;
    Ok(dir)
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;

/// End-to-end metrics every workload reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, with units. Layers a workload
/// does not reach report 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("frontend.canonicalize.calls", "count"),
    ("frontend.canonicalize.busy_ms", "ms"),
    ("mapping.busy_ms", "ms"),
    ("core.sets.busy_ms", "ms"),
    ("core.sets.sets", "count"),
    ("core.deps.busy_ms", "ms"),
    ("core.deps.edges", "count"),
    ("core.deps.ns_per_edge", "ns"),
    ("core.cost.busy_ms", "ms"),
    ("core.schedule.busy_ms", "ms"),
    ("core.validate.busy_ms", "ms"),
    ("core.metrics.busy_ms", "ms"),
    ("bench.cache.stage_hit_ratio", "ratio"),
    ("bench.cache.schedule_hit_ratio", "ratio"),
    ("bench.store.gets", "count"),
    ("bench.store.hit_ratio", "ratio"),
    ("bench.store.puts", "count"),
    ("bench.store.evictions", "count"),
    ("tune.eval.busy_ms", "ms"),
    ("tune.driver.self_ms", "ms"),
    ("tune.evaluated", "count"),
    ("tune.front_size", "count"),
    ("serve.parse.busy_ms", "ms"),
    ("serve.submit.busy_ms", "ms"),
    ("serve.dispatch.busy_ms", "ms"),
    ("serve.encode.busy_ms", "ms"),
    ("serve.warm_ratio", "ratio"),
    ("fabric.prepare.busy_ms", "ms"),
    ("fabric.run_mix.busy_ms", "ms"),
    ("sim.shared.sets_simulated", "count"),
    ("sim.shared.ns_per_set", "ns"),
    ("sim.shared.link_stall_cycles", "cycles"),
    ("sim.shared.occupancy_stall_cycles", "cycles"),
    ("sim.shared.reloads", "count"),
    ("sim.shared.evictions", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one workload run hands back to the driver code in `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted, check-pass checks included.
    pub attempted: u64,
    /// Operations that failed, were refused or produced a wrong output.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per `--trace`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub details: Vec<String>,
    /// Spans of the traced run.
    pub spans: Vec<trace::Span>,
}

impl Report {
    /// Adds a detail line `name value unit`.
    pub fn detail(&mut self, name: &str, value: impl Display, unit: &str) {
        self.details.push(format!("{name} {value} {unit}"));
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.details.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Per-name span totals folded into `<name>.busy_ms` metrics.
    pub fn busy_from_spans(&mut self, names: &[&'static str]) {
        let totals = trace::totals(&self.spans);
        for &name in names {
            let busy = totals.get(name).map_or(0.0, |t| t.busy.as_secs_f64() * 1e3);
            self.metrics.insert(busy_name(name), busy);
        }
    }
}

/// `<name>.busy_ms` for the span names the per-layer list knows.
fn busy_name(span: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_suffix(".busy_ms") == Some(span))
        .unwrap_or("unknown.busy_ms")
}

/// Command-line options of a run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn parse_opts(args: &[String]) -> Res<Opts> {
    let value = |flag: &str| -> Res<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let seconds: f64 = value("--seconds")?.parse().map_err(err)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Opts {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse().map_err(err)?,
        seconds,
        trace,
    })
}

/// Set-up timing spread over the run. The first set-up builds the state
/// the run uses; the others rebuild it and drop the result at even
/// intervals of the measured phase, between operations, so that
/// `setup_s`, their median, averages over the machine's drift as the
/// measured phase does instead of catching one moment of it. Each time is
/// scaled by the pace around it, as the operations' are (see [`pace`]).
///
/// A rebuilt set-up lives next to the kept one, which the program itself
/// never does, so each rebuild is kept out of the peak resident set: the
/// peak is read before it and reset (`/proc/self/clear_refs`) after it.
pub struct SetupReps<'a> {
    redo: Box<dyn FnMut() -> Res<()> + 'a>,
    /// `(start, seconds)` of each set-up.
    times: Vec<(Duration, f64)>,
    start: Duration,
    interval: f64,
    /// Highest peak resident set read before a rebuild, MB.
    peak_mb: f64,
}

/// What [`SetupReps::finish`] reports.
#[derive(Debug, Clone, Copy)]
pub struct SetupDone {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Peak resident set of the run outside the rebuilt set-ups, MB.
    pub peak_rss_mb: f64,
}

impl<'a> SetupReps<'a> {
    /// Times `first` (the set-up the run keeps) and arms `redo` to repeat
    /// it over a measured phase of `seconds`.
    pub fn first<T>(
        first: impl FnOnce() -> Res<T>,
        redo: impl FnMut() -> Res<()> + 'a,
        seconds: f64,
    ) -> Res<(T, SetupReps<'a>)> {
        let start = now();
        let kept = first()?;
        let reps = SetupReps {
            redo: Box::new(redo),
            times: vec![(start, secs_since(start))],
            start: now(),
            interval: seconds / SETUP_REPS as f64,
            peak_mb: 0.0,
        };
        Ok((kept, reps))
    }

    /// Runs the next repetition if it is due.
    pub fn tick(&mut self) -> Res<()> {
        if self.times.len() < SETUP_REPS
            && secs_since(self.start) >= self.interval * self.times.len() as f64
        {
            self.run_one()?;
        }
        Ok(())
    }

    fn run_one(&mut self) -> Res<()> {
        self.peak_mb = self.peak_mb.max(peak_rss_mb()?);
        let start = now();
        (self.redo)()?;
        self.times.push((start, secs_since(start)));
        std::fs::write("/proc/self/clear_refs", "5")
            .map_err(|e| format!("resetting the peak resident set: {e}"))
    }

    /// Runs the repetitions still outstanding; the median set-up seconds,
    /// scaled by `pace`, and the peak resident set.
    pub fn finish(mut self, pace: &pace::Pace) -> Res<SetupDone> {
        while self.times.len() < SETUP_REPS {
            self.run_one()?;
        }
        let scaled: Vec<f64> = self
            .times
            .iter()
            .map(|&(at, secs)| pace.scaled(at, secs))
            .collect();
        Ok(SetupDone {
            setup_s: stats::median(&scaled).ok_or("no set-up ran")?,
            peak_rss_mb: self.peak_mb.max(peak_rss_mb()?),
        })
    }
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc status")?;
    Ok(kb / 1024.0)
}

/// Each operation's best (shortest) repetition in the run, in seconds,
/// from `(key, start, seconds)` samples whose key names the same work each
/// time it repeats, scaled by the pace around that repetition when given
/// one (see [`pace`]). Other work on a shared machine only ever adds time,
/// so the best repetition is the closest reading of the operation's own
/// cost; a median over repetitions still moves with how much of the run
/// the machine spent contended, which differs from run to run. The best is
/// chosen on the time as measured, so noise in the pace readings cannot
/// pick it; the pace then corrects for a slowdown that lasted all run.
pub fn best_by_key(
    samples: impl IntoIterator<Item = (usize, Duration, f64)>,
    pace: Option<&pace::Pace>,
) -> Vec<f64> {
    let mut best: BTreeMap<usize, (f64, Duration)> = BTreeMap::new();
    for (key, at, secs) in samples {
        let b = best.entry(key).or_insert((secs, at));
        if secs < b.0 {
            *b = (secs, at);
        }
    }
    best.into_values()
        .map(|(secs, at)| pace.map_or(secs, |p| p.scaled(at, secs)))
        .collect()
}

/// `throughput_per_s` (`units` of work over `seconds`), also printed as
/// the detail `name`, next to the rate over every repetition as timed.
pub fn throughput_metrics(
    report: &mut Report,
    name: &str,
    (units, seconds): (f64, f64),
    (timed_units, timed_seconds): (f64, f64),
) {
    report.metrics.insert("throughput_per_s", units / seconds);
    report.detail(name, units / seconds, "1/s");
    report.detail(
        &format!("{name}.as_timed"),
        timed_units / timed_seconds,
        "1/s",
    );
}

/// Detail lines on the reference kernel's readings of a measured phase.
pub fn pace_details(report: &mut Report, pace: &pace::Pace) {
    report.detail("pace.readings", pace.readings(), "count");
    report.detail("pace.kernel_p50_ms", pace.median_s() * 1e3, "ms");
}

/// Latency metrics from per-operation samples in seconds (each key's best,
/// see [`best_by_key`]).
pub fn latency_metrics(report: &mut Report, label: &str, samples_s: &[f64]) -> Res<stats::Summary> {
    let ms: Vec<f64> = samples_s.iter().map(|s| s * 1e3).collect();
    let summary = stats::Summary::of(&ms)
        .ok_or_else(|| format!("{label}: too few samples ({}) for a tail", ms.len()))?;
    report.metrics.insert("latency_p50_ms", summary.p50);
    report.metrics.insert("latency_tail_ms", summary.tail);
    report.detail(&format!("{label}_p50_ms"), summary.p50, "ms");
    report.detail(
        &format!("{label}_{}_ms", summary.tail_label()),
        summary.tail,
        "ms",
    );
    report.detail(&format!("{label}_samples"), summary.n, "count");
    Ok(summary)
}

/// Single- versus two-thread throughput of a fixed integer loop: the
/// cores this machine actually delivers to two busy threads.
fn effective_cores() -> f64 {
    fn spin() -> u64 {
        let mut x = 0x1234_5678u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        x
    }
    let start = now();
    std::hint::black_box(spin());
    let one = secs_since(start);
    let start = now();
    std::thread::scope(|s| {
        let a = s.spawn(spin);
        let b = s.spawn(spin);
        std::hint::black_box((a.join().ok(), b.join().ok()));
    });
    let two = secs_since(start);
    2.0 * one / two.max(1e-9)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment stamp every result carries.
fn env_stamp(opts: &Opts) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"env\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"effective_cores\":{:.2},\"commit\":\"{}\",\"rustc\":\"{}\"}}}}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        effective_cores(),
        json_escape(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        json_escape(&command_line("rustc", &["--version"])),
    )
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn run(opts: &Opts) -> Res<Report> {
    let mut report = match opts.workload.as_str() {
        "compile-cold" => compile::run(opts)?,
        "autotune-wide" => tune::run(opts)?,
        "serve-engine" => serve::run(opts)?,
        "fabric-contended" => fabric::run(opts)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let wanted: Vec<(&str, &str)> = if opts.trace {
        for (name, _) in PER_LAYER {
            report.metrics.entry(name).or_insert(0.0);
        }
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    for (name, _) in &wanted {
        match report.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None => return Err(format!("workload did not report {name}")),
        }
    }
    report
        .metrics
        .retain(|name, _| wanted.iter().any(|(w, _)| w == name));
    Ok(report)
}

fn write_spans(opts: &Opts, spans: &[trace::Span]) -> Res<PathBuf> {
    let path = out_dir()?.join(format!("trace-{}-seed{}.jsonl", opts.workload, opts.seed));
    std::fs::write(&path, trace::to_jsonl(spans)).map_err(err)?;
    Ok(path)
}

fn result_line(report: &Report, trace: bool) -> String {
    let units: BTreeMap<&str, &str> = if trace {
        PER_LAYER.into_iter().collect()
    } else {
        END_TO_END.into_iter().collect()
    };
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                units.get(name).copied().unwrap_or("count")
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_opts(&args).and_then(|opts| {
        let report = run(&opts)?;
        Ok((opts, report))
    });
    match outcome {
        Ok((opts, report)) => {
            for line in &report.details {
                println!("# {line}");
            }
            if opts.trace {
                match write_spans(&opts, &report.spans) {
                    Ok(path) => println!(
                        "# spans {} written to {}",
                        report.spans.len(),
                        path.display()
                    ),
                    Err(e) => eprintln!("perfbench: writing spans failed: {e}"),
                }
            }
            println!(
                "# failed_ratio {} ratio",
                report.failed as f64 / report.attempted.max(1) as f64
            );
            println!("{}", env_stamp(&opts));
            println!("{}", result_line(&report, opts.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Removes a scratch directory the run created, ignoring a missing one.
pub fn remove_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_is_chosen_on_measured_time_then_scaled() {
        let ms = Duration::from_millis;
        let pace = pace::Pace::from_readings(
            (0..20)
                .map(|i| {
                    (
                        ms(i * 100),
                        pace::NOMINAL_S * if i < 10 { 1.0 } else { 2.0 },
                    )
                })
                .collect(),
        );
        // Key 0: fastest at 0.3 s (nominal pace). Key 1: fastest at 1.5 s,
        // where the machine ran at half speed.
        let samples = [
            (0, ms(300), 0.010),
            (0, ms(1500), 0.016),
            (1, ms(200), 0.050),
            (1, ms(1500), 0.040),
        ];
        let best = best_by_key(samples, Some(&pace));
        assert!((best[0] - 0.010).abs() < 1e-12);
        assert!((best[1] - 0.020).abs() < 1e-12);
        assert_eq!(best_by_key(samples, None), vec![0.010, 0.040]);
    }
}
