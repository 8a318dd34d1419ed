//! Regenerates the paper's **Fig. 6** — the TinyYOLOv4 case study
//! (Sec. V-A):
//!
//! * part `a`: the `wdup+16` duplication table (which layers are
//!   duplicated, how often) and the layer-by-layer Gantt chart;
//! * part `b`: the `wdup+16` + CLSA-CIM Gantt chart;
//! * part `c`: speedup and utilization for `xinf`, `wdup+{16,32}` and
//!   `wdup+{16,32}+xinf` (paper: `xinf` Ut = 4.1 %, `wdup+32+xinf`
//!   Ut = 28.4 %, speedup up to 21.9×).
//!
//! Usage: `cargo run --release -p cim-bench --bin fig6 [-- --part a|b|c] [--json <path>] [--jobs N] [--cache-dir <path>] [--shard i/n|merge] [--fault-seed S --fault-rate site=per_mille ... --fault-delay-ms MS]`
//!
//! With `--cache-dir`, part c's sweep summaries persist across runs: a
//! warm re-run replays from disk (byte-identical `--json` output) and
//! prints the store's hit/miss/evict counters. The store is also the
//! resume state: a run killed mid-sweep (SIGKILL included) continues by
//! rerunning the same command — finished jobs replay from the store —
//! and produces a byte-identical artifact. The `--fault-*` flags drive
//! deterministic chaos injection (see `cim_bench::runner::fault`).
//!
//! With `--shard i/n --cache-dir D`, part c evaluates only the jobs its
//! fingerprint-range slice owns (persisting into the shared store `D`);
//! after every slice has run, `--shard merge --cache-dir D` replays the
//! warm store into the byte-identical unsharded figure and `--json`
//! artifact.
//!
//! Exit status: 3 when quarantined jobs left part c partial, 2 when a
//! pipeline run failed or part c's sweep could not run (a `--shard` mode
//! without `--cache-dir`, or a merge against a store missing rows).

use std::process::ExitCode;
use std::sync::Arc;

use cim_bench::artifacts::fig6c_jobs;
use cim_bench::cli::{self, sweep_exit_code, Args, Flag, SWEEP};
use cim_bench::render_table;
use cim_bench::runner::{run_jobs, Model, PaperStrategy, ResultStore, ShardMode, SweepJob};
use clsa_core::{gantt_text, CoreError, RunResult};

/// The case-study model, canonicalized once for every part.
fn tiny_yolo_v4() -> Result<Arc<Model>, CoreError> {
    Model::canonical("TinyYOLOv4", &cim_models::tiny_yolo_v4())
}

/// The jobs of parts a and b: the *same* `wdup+16` mapping scheduled
/// layer-by-layer and with CLSA-CIM. Run together, they share one mapping
/// and Stage-I/II analysis.
fn gantt_jobs(model: &Arc<Model>) -> Result<[SweepJob; 2], CoreError> {
    Ok([
        SweepJob::paper(model, PaperStrategy::Wdup, 16)?,
        SweepJob::paper(model, PaperStrategy::WdupXinf, 16)?,
    ])
}

fn part_a(model: &Model, r: &RunResult) -> Result<(), CoreError> {
    println!("Fig. 6a — weight duplication (wdup+16), layer-by-layer\n");
    let plan = r.plan.as_ref().expect("duplication requested");

    // Duplication table (the inset table of Fig. 6a).
    let xbar = cim_arch::CrossbarSpec::wan_nature_2022();
    let costs = cim_mapping::layer_costs(
        model.graph(),
        &xbar,
        &cim_mapping::MappingOptions::default(),
    )?;
    let mut rows = Vec::new();
    for (c, &d) in costs.iter().zip(&plan.duplicates) {
        if d > 1 {
            rows.push(vec![c.name.clone(), c.pes.to_string(), d.to_string()]);
        }
    }
    println!(
        "{}",
        render_table(&["duplicated layer", "#PE each", "duplicates d"], &rows)
    );
    println!("PEs used: {} of {}", plan.pes_used, r.report.total_pes);
    println!("paper: for x = 16, the first 6 Conv2D layers are duplicated\n");
    println!("makespan: {} cycles — Gantt:\n", r.makespan());
    println!("{}", gantt_text(&r.layers, &r.schedule, 100));
    Ok(())
}

fn part_b(r: &RunResult) {
    println!("Fig. 6b — weight duplication (wdup+16), CLSA-CIM (xinf)\n");
    println!("makespan: {} cycles — Gantt:\n", r.makespan());
    println!("{}", gantt_text(&r.layers, &r.schedule, 100));
}

/// Part a or b alone: runs only that part's job.
fn one_gantt_part(part: &str, args: &Args) -> Result<(), CoreError> {
    let model = tiny_yolo_v4()?;
    let [lbl, xinf] = gantt_jobs(&model)?;
    let job = if part == "a" { lbl } else { xinf };
    let (runs, _) = run_jobs(&[job], args.runner)?;
    if part == "a" {
        part_a(&model, &runs[0])
    } else {
        part_b(&runs[0]);
        Ok(())
    }
}

/// Every part, on one canonicalized model; returns part c's quarantined
/// job count.
fn all_parts(args: &Args, store: Option<&ResultStore>) -> Result<usize, CoreError> {
    let model = tiny_yolo_v4()?;
    let (runs, stats) = run_jobs(&gantt_jobs(&model)?, args.runner)?;
    part_a(&model, &runs[0])?;
    println!();
    part_b(&runs[1]);
    println!();
    let quarantined = part_c(&model, args, store);
    println!("case-study cache: {stats}");
    quarantined
}

/// Returns the number of quarantined jobs, so `main` can exit loudly
/// on a partial artifact.
fn part_c(
    model: &Arc<Model>,
    args: &Args,
    store: Option<&ResultStore>,
) -> Result<usize, CoreError> {
    println!("Fig. 6c — speedup and utilization (TinyYOLOv4)\n");
    let jobs = fig6c_jobs(model)?;
    let outcome = args.sweep(&jobs, store).run()?;
    args.report_faults();
    for failure in &outcome.failures {
        eprintln!("warning: {failure}");
    }
    let quarantined = outcome.failures.len();
    if args.report_slice(&outcome, jobs.len()) {
        return Ok(quarantined);
    }
    let results = outcome.results;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.total_pes.to_string(),
                format!("{:.2}x", r.speedup),
                format!("{:.1}%", r.utilization * 100.0),
                r.eq3_predicted
                    .map_or_else(|| "-".to_string(), |p| format!("{p:.2}x")),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "configuration",
                "#PE",
                "speedup",
                "utilization (Eq.2)",
                "Eq.3 predicted"
            ],
            &rows
        )
    );
    println!("paper reference: xinf Ut = 4.1 %; wdup+32+xinf Ut = 28.4 %, S = 21.9x");
    if let Some(store) = store {
        println!("persistent store: {}", store.stats());
    }
    args.write_json(&results);
    Ok(quarantined)
}

fn main() -> ExitCode {
    let args = cli::parse(&[&[Flag::value("--part", "a|b|c")], SWEEP]);
    let part = args.value("--part");

    // Only part c runs a batch sweep; a/b alone must not create (or
    // silently ignore) a --cache-dir.
    match part {
        Some(part @ ("a" | "b")) => {
            args.note_cache_dir_unused();
            if args.shard != ShardMode::All {
                eprintln!("note: --shard ignored — parts a/b run no batch sweep");
            }
            sweep_exit_code(one_gantt_part(part, &args).map(|()| 0))
        }
        Some("c") => {
            let store = args.open_store();
            sweep_exit_code(tiny_yolo_v4().and_then(|model| part_c(&model, &args, store.as_ref())))
        }
        Some(other) => args.fail(format!("invalid value {other:?} for --part <a|b|c>")),
        None => {
            let store = args.open_store();
            sweep_exit_code(all_parts(&args, store.as_ref()))
        }
    }
}
