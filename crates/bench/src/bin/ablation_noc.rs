//! Ablation **A3** — NoC data-movement cost (the paper's Sec. V-C future
//! work): how much of the cross-layer gain survives when forwarding partial
//! results over the mesh costs hop latency, and how much placement matters.
//!
//! Usage: `cargo run --release -p cim-bench --bin ablation_noc [-- --json <path>] [--jobs N]`

use std::process::ExitCode;

use cim_arch::{Architecture, PlacementStrategy, TileSpec};
use cim_bench::cli::{self, sweep_exit_code, Args};
use cim_bench::render_table;
use cim_bench::runner::{run_jobs, Model, SweepJob, BASELINE_LABEL};
use clsa_core::{CoreError, RunConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    model: String,
    hop_latency_cycles: u64,
    placement: String,
    makespan_cycles: u64,
    speedup_vs_lbl: f64,
    slowdown_vs_free_noc: f64,
}

fn main() -> ExitCode {
    let args = cli::parse(&[&[cli::JOBS, cli::JSON]]);
    sweep_exit_code(run(&args).map(|()| 0))
}

fn run(args: &Args) -> Result<(), CoreError> {
    // Per model: the two references, then the (hop, placement) points,
    // labelled by their placement.
    let mut jobs = Vec::new();
    for (name, graph) in [
        ("VGG16", cim_models::vgg16()),
        ("TinyYOLOv4", cim_models::tiny_yolo_v4()),
    ] {
        let model = Model::canonical(name, &graph)?;
        let arch_for = |hop: u64| {
            Architecture::builder()
                .tile(TileSpec::isaac_like())
                .noc_hop_latency(hop)
                .pes(model.pe_min())
                .build()
        };
        let mut push =
            |label: &str, config: RunConfig| jobs.push(SweepJob::new(&model, label, 0, config));
        push(BASELINE_LABEL, RunConfig::baseline(arch_for(0)?));
        push("xinf", RunConfig::baseline(arch_for(0)?).with_cross_layer());
        for hop in [0u64, 1, 4, 16, 64] {
            for (placement, strategy, gpeu) in [
                ("contiguous", PlacementStrategy::Contiguous, false),
                ("round-robin", PlacementStrategy::RoundRobinTiles, false),
                ("contiguous+gpeu", PlacementStrategy::Contiguous, true),
            ] {
                let mut cfg = RunConfig::baseline(arch_for(hop)?).with_cross_layer();
                cfg.noc_cost = true;
                cfg.gpeu_cost = gpeu;
                cfg.placement = strategy;
                push(placement, cfg);
            }
        }
    }

    // All (hop, placement) points of one model share the same mapping and
    // — per hop value — the same architecture, so the runner's stage cache
    // collapses their Stage-I/II work.
    let (results, stats) = run_jobs(&jobs, args.runner)?;
    let mut records = Vec::new();
    let (mut lbl, mut free) = (0, 0);
    for (job, r) in jobs.iter().zip(&results) {
        // Each model's two references precede its points.
        match job.label.as_str() {
            BASELINE_LABEL => lbl = r.makespan(),
            "xinf" => free = r.makespan(),
            placement => records.push(Record {
                model: job.model.name().to_string(),
                hop_latency_cycles: job.config.arch.noc().hop_latency_cycles,
                placement: placement.to_string(),
                makespan_cycles: r.makespan(),
                speedup_vs_lbl: lbl as f64 / r.makespan() as f64,
                slowdown_vs_free_noc: r.makespan() as f64 / free as f64,
            }),
        }
    }

    println!("Ablation A3 — NoC hop cost vs cross-layer gain (xinf @ PE_min)\n");
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.hop_latency_cycles.to_string(),
                r.placement.clone(),
                r.makespan_cycles.to_string(),
                format!("{:.2}x", r.speedup_vs_lbl),
                format!("{:.3}x", r.slowdown_vs_free_noc),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "model",
                "hop cycles",
                "placement",
                "makespan",
                "speedup",
                "vs free NoC"
            ],
            &rows
        )
    );
    println!("expectation: gains shrink as hops get expensive; contiguous placement");
    println!("keeps producer-consumer pairs near and degrades more slowly.");
    eprintln!("schedule cache: {stats}");

    args.write_json(&records);
    Ok(())
}
