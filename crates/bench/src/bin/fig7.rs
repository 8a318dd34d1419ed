//! Regenerates the paper's **Fig. 7** — inference speedup (7a) and PE
//! utilization (7b) relative to layer-by-layer scheduling, for all six
//! Table II benchmarks under `wdup+x`, `xinf`, and `wdup+x+xinf` with
//! `x ∈ {4, 8, 16, 32}`.
//!
//! Paper reference points: best speedup 29.2× and best utilization 20.1 %
//! (both TinyYOLOv3, `wdup+32+xinf`); pure `wdup` between 1.1× and 1.9× for
//! large models; `xinf` up to 4.4× for large models; utilization decreasing
//! with ResNet depth.
//!
//! Usage: `cargo run --release -p cim-bench --bin fig7 [-- --json results/fig7.json] [--jobs N] [--cache-dir <path>] [--shard i/n|merge] [--fault-seed S --fault-rate site=per_mille ... --fault-delay-ms MS]`
//!
//! With `--cache-dir`, the sweep's summaries persist across runs: a warm
//! re-run replays from disk (byte-identical `--json` output), and a
//! killed run continues by rerunning the same command against the same
//! store.
//!
//! With `--shard i/n --cache-dir D`, the process evaluates only the jobs
//! its fingerprint-range slice owns; `--shard merge --cache-dir D` then
//! replays the fully-warm store into the byte-identical unsharded tables
//! and `--json` artifact.
//!
//! Exit status: 3 when quarantined jobs left the artifact partial, 2 when
//! the sweep could not run (a `--shard` mode without `--cache-dir`, or a
//! merge against a store missing rows).

use std::process::ExitCode;

use cim_bench::cli::{self, sweep_exit_code, Args, SWEEP};
use cim_bench::runner::{sweep_jobs, Model, PaperStrategy, BASELINE_LABEL};
use cim_bench::{render_table, PAPER_XS};
use clsa_core::CoreError;

fn main() -> ExitCode {
    sweep_exit_code(run(&cli::parse(&[SWEEP])))
}

/// Runs the sweep and prints the figure; returns the number of
/// quarantined jobs, so `main` can exit loudly on a partial artifact.
fn run(args: &Args) -> Result<usize, CoreError> {
    let store = args.open_store();

    // All models × all configurations as one flat job list: the pool keeps
    // every worker busy across model boundaries instead of sweeping the
    // zoo one model at a time.
    let mut jobs = Vec::new();
    for info in cim_models::table2_models() {
        let model = Model::canonical(info.name, &info.build())?;
        jobs.extend(sweep_jobs(&model, &PAPER_XS)?);
    }
    eprintln!("running {} configurations on {} workers...", jobs.len(), args.runner.jobs);
    let outcome = args.sweep(&jobs, store.as_ref()).run()?;
    args.report_faults();
    for failure in &outcome.failures {
        eprintln!("warning: {failure}");
    }
    let quarantined = outcome.failures.len();
    if args.report_slice(&outcome, jobs.len()) {
        return Ok(quarantined);
    }
    let all = &outcome.results;

    let labels: Vec<String> = [(PaperStrategy::LayerByLayer, 0), (PaperStrategy::Xinf, 0)]
        .into_iter()
        .chain(PAPER_XS.map(|x| (PaperStrategy::Wdup, x)))
        .chain(PAPER_XS.map(|x| (PaperStrategy::WdupXinf, x)))
        .map(|(strategy, x)| strategy.label(x))
        .collect();
    let models: Vec<&str> = cim_models::table2_models().iter().map(|m| m.name).collect();
    // A quarantined job leaves a hole in the grid; render it as `-`
    // rather than refusing to print the survivors.
    let find = |model: &str, label: &str| {
        all.iter()
            .find(|r| r.model == model && r.label == label)
    };

    let mut headers: Vec<&str> = vec!["configuration"];
    headers.extend(models.iter().copied());

    println!("Fig. 7a — inference speedup vs layer-by-layer\n");
    let rows: Vec<Vec<String>> = labels
        .iter()
        .map(|label| {
            let mut row = vec![label.clone()];
            row.extend(models.iter().map(|m| {
                find(m, label).map_or_else(|| "-".into(), |r| format!("{:.2}x", r.speedup))
            }));
            row
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    println!("\nFig. 7b — PE utilization (Eq. 2)\n");
    let rows: Vec<Vec<String>> = labels
        .iter()
        .map(|label| {
            let mut row = vec![label.clone()];
            row.extend(models.iter().map(|m| {
                find(m, label)
                    .map_or_else(|| "-".into(), |r| format!("{:.2}%", r.utilization * 100.0))
            }));
            row
        })
        .collect();
    println!("{}", render_table(&headers, &rows));

    // Headline numbers and Eq. 3 consistency (guarded: a fully
    // quarantined sweep has no rows to summarize).
    if let Some(best_speedup) = all.iter().max_by(|a, b| a.speedup.total_cmp(&b.speedup)) {
        println!(
            "\nbest speedup:     {:.1}x ({} {})   [paper: 29.2x, TinyYOLOv3]",
            best_speedup.speedup, best_speedup.model, best_speedup.label
        );
    }
    if let Some(best_ut) = all.iter().max_by(|a, b| a.utilization.total_cmp(&b.utilization)) {
        println!(
            "best utilization: {:.1}% ({} {})   [paper: 20.1 %, TinyYOLOv3]",
            best_ut.utilization * 100.0,
            best_ut.model,
            best_ut.label
        );
    }
    let worst_eq3 = all
        .iter()
        .filter(|r| r.label != BASELINE_LABEL)
        .filter_map(|r| {
            r.eq3_predicted
                .map(|p| (p - r.speedup).abs() / r.speedup)
        })
        .fold(0.0f64, f64::max);
    println!("max Eq. 3 relative deviation: {:.1}%", worst_eq3 * 100.0);
    println!("schedule cache: {}", outcome.stats);
    if let Some(stats) = outcome.store_stats {
        println!("persistent store: {stats}");
    }

    args.write_json(all);
    Ok(quarantined)
}
