//! Ablation **A5** — pipelined inference batches (extension beyond the
//! paper): the paper notes that single-inference utilization "usually
//! remains below 10 %" because of fill/drain bubbles. Weight-stationary
//! groups can start the next inference the moment they finish their own
//! part of the current one; this sweep measures how steady-state
//! utilization and per-inference latency evolve with batch size.
//!
//! Usage: `cargo run --release -p cim-bench --bin ablation_batching [-- --json <path>] [--jobs N]`

use cim_arch::Architecture;
use cim_bench::runner::{fingerprint, parallel_map, ScheduleCache};
use cim_bench::{cli, render_table};
use cim_frontend::{canonicalize, CanonOptions};
use clsa_core::{batched_cross_layer_schedule, EdgeCost, RunConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    model: String,
    config: String,
    batch: usize,
    makespan_cycles: u64,
    cycles_per_inference: f64,
    utilization: f64,
}

fn main() {
    let args = cli::parse(&[&[cli::JOBS, cli::JSON]]);
    let (runner, json) = (args.runner, args.json);

    // One job per (model, config); the four batch depths inside a job
    // reuse that job's single pipeline run.
    struct Job {
        model: String,
        fp: u64,
        graph: std::sync::Arc<cim_ir::Graph>,
        config: String,
        total_pes: usize,
        cfg: RunConfig,
    }
    let mut jobs: Vec<Job> = Vec::new();
    for (name, graph, pe_min) in [
        ("TinyYOLOv4", cim_models::tiny_yolo_v4(), 117usize),
        ("TinyYOLOv3", cim_models::tiny_yolo_v3(), 142),
        ("VGG16", cim_models::vgg16(), 233),
    ] {
        let g = canonicalize(&graph, &CanonOptions::default())
            .expect("model canonicalizes")
            .into_graph();
        let g = std::sync::Arc::new(g);
        let fp = fingerprint(g.as_ref());
        for (config, extra, duplicate) in [("xinf", 0usize, false), ("wdup+32+xinf", 32, true)] {
            let total_pes = pe_min + extra;
            let arch = Architecture::paper_case_study(total_pes).unwrap();
            let mut cfg = RunConfig::baseline(arch).with_cross_layer();
            if duplicate {
                cfg = cfg.with_duplication(cim_mapping::Solver::Greedy);
            }
            jobs.push(Job {
                model: name.to_string(),
                fp,
                graph: std::sync::Arc::clone(&g),
                config: config.to_string(),
                total_pes,
                cfg,
            });
        }
    }

    let cache = ScheduleCache::new();
    let records: Vec<Record> = parallel_map(&jobs, runner.jobs, |_, job| {
        let r = cache.run(job.fp, &job.graph, &job.cfg).expect("pipeline runs");
        let work: u64 = r
            .layers
            .iter()
            .map(|l| l.pes as u64 * l.total_cycles())
            .sum();
        [1usize, 2, 4, 16]
            .iter()
            .map(|&batch| {
                let b = batched_cross_layer_schedule(&r.layers, &r.deps, &EdgeCost::Free, batch)
                    .expect("batched schedule");
                Record {
                    model: job.model.clone(),
                    config: job.config.clone(),
                    batch,
                    makespan_cycles: b.makespan,
                    cycles_per_inference: b.cycles_per_inference(),
                    utilization: (batch as u64 * work) as f64
                        / (job.total_pes as u64 * b.makespan) as f64,
                }
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();

    println!("Ablation A5 — pipelined inference batches\n");
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.config.clone(),
                r.batch.to_string(),
                r.makespan_cycles.to_string(),
                format!("{:.0}", r.cycles_per_inference),
                format!("{:.1}%", r.utilization * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "model",
                "config",
                "batch",
                "makespan",
                "cycles/inference",
                "utilization"
            ],
            &rows
        )
    );
    println!("at PE_min the first layer is already the steady-state bottleneck, so");
    println!("batching adds little; with duplication the layer times are balanced and");
    println!("pipelining compounds the gain (amortizing the fill/drain bubbles).");
    eprintln!("schedule cache: {}", cache.stats());

    if let Some(path) = json {
        cim_bench::write_json(&path, &records).expect("write json");
        println!("wrote {path}");
    }
}
