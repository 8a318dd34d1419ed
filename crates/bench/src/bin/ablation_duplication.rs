//! Ablation **A2** — greedy versus exact (DP) duplication solver.
//!
//! The paper's Optimization Problem 1 is solved greedily in practice; this
//! sweep quantifies how far the greedy marginal-gain-per-PE heuristic is
//! from the exact dynamic program, in both objective value (`Σ t_i/d_i`)
//! and realized `wdup+x+xinf` makespan.
//!
//! Usage: `cargo run --release -p cim-bench --bin ablation_duplication [-- --json <path>] [--jobs N]`

use cim_arch::Architecture;
use cim_bench::runner::{fingerprint, parallel_map, ScheduleCache};
use cim_bench::{cli, render_table};
use cim_frontend::{canonicalize, CanonOptions};
use cim_mapping::Solver;
use clsa_core::RunConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    model: String,
    x: usize,
    greedy_objective: f64,
    exact_objective: f64,
    objective_gap_pct: f64,
    greedy_makespan: u64,
    exact_makespan: u64,
}

fn main() {
    let args = cli::parse(&[&[cli::JOBS, cli::JSON]]);
    let (runner, json) = (args.runner, args.json);

    // One job per (model, x); the two solver runs inside a job share
    // nothing (different mappings), but across jobs the grid of
    // 7 models × 5 budgets keeps every worker saturated.
    struct Job {
        model: String,
        fp: u64,
        graph: std::sync::Arc<cim_ir::Graph>,
        pe_min_256: usize,
        x: usize,
    }
    let mut jobs: Vec<Job> = Vec::new();
    for info in cim_models::all_models() {
        let g = canonicalize(&info.build(), &CanonOptions::default())
            .expect("model canonicalizes")
            .into_graph();
        let g = std::sync::Arc::new(g);
        let fp = fingerprint(g.as_ref());
        for x in [4usize, 8, 16, 32, 64] {
            jobs.push(Job {
                model: info.name.to_string(),
                fp,
                graph: std::sync::Arc::clone(&g),
                pe_min_256: info.pe_min_256,
                x,
            });
        }
    }

    let cache = ScheduleCache::new();
    let records: Vec<Record> = parallel_map(&jobs, runner.jobs, |_, job| {
        let arch = Architecture::paper_case_study(job.pe_min_256 + job.x).unwrap();
        let mut results = Vec::new();
        for solver in [Solver::Greedy, Solver::ExactDp] {
            let cfg = RunConfig::baseline(arch.clone())
                .with_duplication(solver)
                .with_cross_layer();
            let r = cache.run(job.fp, &job.graph, &cfg).expect("pipeline runs");
            let obj = r.plan.as_ref().expect("duplication").objective_cycles;
            results.push((obj, r.makespan()));
        }
        let (g_obj, g_mk) = results[0];
        let (e_obj, e_mk) = results[1];
        Record {
            model: job.model.clone(),
            x: job.x,
            greedy_objective: g_obj,
            exact_objective: e_obj,
            objective_gap_pct: (g_obj - e_obj) / e_obj * 100.0,
            greedy_makespan: g_mk,
            exact_makespan: e_mk,
        }
    });

    println!("Ablation A2 — greedy vs exact duplication solver (wdup+x+xinf)\n");
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.x.to_string(),
                format!("{:.0}", r.greedy_objective),
                format!("{:.0}", r.exact_objective),
                format!("{:.3}%", r.objective_gap_pct),
                r.greedy_makespan.to_string(),
                r.exact_makespan.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "model",
                "x",
                "greedy obj",
                "exact obj",
                "obj gap",
                "greedy mkspan",
                "exact mkspan"
            ],
            &rows
        )
    );
    let worst = records
        .iter()
        .map(|r| r.objective_gap_pct)
        .fold(0.0f64, f64::max);
    println!(
        "worst greedy objective gap: {worst:.3}% — the paper's greedy behaviour is near-optimal"
    );
    eprintln!("schedule cache: {}", cache.stats());

    if let Some(path) = json {
        cim_bench::write_json(&path, &records).expect("write json");
        println!("wrote {path}");
    }
}
