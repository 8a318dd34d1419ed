//! Ablation **A1** — set granularity (Stage I) versus cross-layer speedup.
//!
//! The paper notes that "increasing the number of sets provides a more
//! detailed scheduling granularity" but does not quantify the trade-off.
//! This sweep runs `xinf` at `PE_min` under set policies from one set per
//! OFM (no overlap possible) to the finest quantum-aligned granularity.
//!
//! Usage: `cargo run --release -p cim-bench --bin ablation_granularity [-- --json <path>] [--jobs N]`

use std::process::ExitCode;

use cim_arch::Architecture;
use cim_bench::cli::{self, sweep_exit_code, Args};
use cim_bench::render_table;
use cim_bench::runner::{canonical, pe_min_of, run_jobs, SweepJob, BASELINE_LABEL};
use cim_mapping::MappingOptions;
use clsa_core::{CoreError, RunConfig, SetPolicy};
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    model: String,
    policy: String,
    total_sets: usize,
    makespan_cycles: u64,
    speedup_vs_lbl: f64,
}

fn main() -> ExitCode {
    let args = cli::parse(&[&[cli::JOBS, cli::JSON]]);
    sweep_exit_code(run(&args).map(|()| 0))
}

fn run(args: &Args) -> Result<(), CoreError> {
    let policies: Vec<(String, SetPolicy)> = [1usize, 2, 4, 8, 16, 32, 64]
        .iter()
        .map(|&n| (format!("coarse({n})"), SetPolicy::coarse(n)))
        .chain(std::iter::once(("finest".to_string(), SetPolicy::finest())))
        .collect();

    // Per model: the layer-by-layer reference at PE_min (granularity does
    // not affect it), then one xinf job per policy.
    let mut jobs = Vec::new();
    for (name, graph) in [
        ("TinyYOLOv4", cim_models::tiny_yolo_v4()),
        ("VGG16", cim_models::vgg16()),
    ] {
        let (graph, model_fp) = canonical(&graph)?;
        let pe_min = pe_min_of(&graph, &MappingOptions::default())?;
        let lbl = RunConfig::baseline(Architecture::paper_case_study(pe_min)?);
        let mut push = |label: &str, config: RunConfig| {
            jobs.push(SweepJob {
                model: name.to_string(),
                model_fp,
                graph: std::sync::Arc::clone(&graph),
                label: label.to_string(),
                x: 0,
                pe_min,
                config,
            });
        };
        push(BASELINE_LABEL, lbl.clone());
        for (label, policy) in &policies {
            let mut config = lbl.clone().with_cross_layer();
            config.set_policy = *policy;
            push(label, config);
        }
    }

    let (results, stats) = run_jobs(&jobs, args.runner)?;
    let mut records = Vec::new();
    let mut lbl_makespan = 0;
    for (job, r) in jobs.iter().zip(&results) {
        // Each model's reference precedes its policy rows.
        if job.label == BASELINE_LABEL {
            lbl_makespan = r.makespan();
            continue;
        }
        records.push(Record {
            model: job.model.clone(),
            policy: job.label.clone(),
            total_sets: r.layers.iter().map(|l| l.sets.len()).sum(),
            makespan_cycles: r.makespan(),
            speedup_vs_lbl: lbl_makespan as f64 / r.makespan() as f64,
        });
    }

    println!("Ablation A1 — Stage-I set granularity vs xinf speedup\n");
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.policy.clone(),
                r.total_sets.to_string(),
                r.makespan_cycles.to_string(),
                format!("{:.2}x", r.speedup_vs_lbl),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["model", "policy", "total sets", "makespan", "speedup"],
            &rows
        )
    );
    println!("expectation: speedup grows monotonically with granularity, saturating");
    println!("at the quantum limit; coarse(1) degenerates to layer-by-layer on chains.");
    eprintln!("schedule cache: {stats}");

    args.write_json(&records);
    Ok(())
}
