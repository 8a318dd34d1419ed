//! Ablation **A3** — NoC data-movement cost (the paper's Sec. V-C future
//! work): how much of the cross-layer gain survives when forwarding partial
//! results over the mesh costs hop latency, and how much placement matters.
//!
//! Usage: `cargo run --release -p cim-bench --bin ablation_noc [-- --json <path>] [--jobs N]`

use cim_arch::{Architecture, PlacementStrategy, TileSpec};
use cim_bench::runner::{fingerprint, parallel_map, pe_min_of, ScheduleCache};
use cim_bench::{cli, render_table};
use cim_frontend::{canonicalize, CanonOptions};
use cim_mapping::MappingOptions;
use clsa_core::{run_prepared, RunConfig};
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

/// What one job measures: the two references, or one sweep point.
enum Kind {
    Baseline,
    FreeXinf,
    Point { hop: u64, placement: String },
}

fn main() {
    let args = cli::parse(&[&[cli::JOBS, cli::JSON]]);
    let runner = args.runner;

    struct Job {
        model: String,
        fp: u64,
        graph: std::sync::Arc<cim_ir::Graph>,
        kind: Kind,
        config: RunConfig,
    }
    let mut jobs: Vec<Job> = Vec::new();
    for (name, graph) in [
        ("VGG16", cim_models::vgg16()),
        ("TinyYOLOv4", cim_models::tiny_yolo_v4()),
    ] {
        let g = canonicalize(&graph, &CanonOptions::default())
            .expect("model canonicalizes")
            .into_graph();
        let g = std::sync::Arc::new(g);
        let fp = fingerprint(g.as_ref());
        let pe_min = pe_min_of(&g, &MappingOptions::default()).expect("costs");

        let arch_for = |hop: u64| {
            Architecture::builder()
                .tile(TileSpec::isaac_like())
                .noc_hop_latency(hop)
                .pes(pe_min)
                .build()
                .unwrap()
        };
        let mut push = |kind: Kind, config: RunConfig| {
            jobs.push(Job {
                model: name.to_string(),
                fp,
                graph: std::sync::Arc::clone(&g),
                kind,
                config,
            });
        };
        push(Kind::Baseline, RunConfig::baseline(arch_for(0)));
        push(
            Kind::FreeXinf,
            RunConfig::baseline(arch_for(0)).with_cross_layer(),
        );
        for hop in [0u64, 1, 4, 16, 64] {
            for (pname, strategy, gpeu) in [
                ("contiguous", PlacementStrategy::Contiguous, false),
                ("round-robin", PlacementStrategy::RoundRobinTiles, false),
                ("contiguous+gpeu", PlacementStrategy::Contiguous, true),
            ] {
                let mut cfg = RunConfig::baseline(arch_for(hop)).with_cross_layer();
                cfg.noc_cost = true;
                cfg.gpeu_cost = gpeu;
                cfg.placement = strategy;
                push(
                    Kind::Point {
                        hop,
                        placement: pname.to_string(),
                    },
                    cfg,
                );
            }
        }
    }

    // All (hop, placement) points of one model share the same mapping and
    // — per hop value — the same architecture, so the cache collapses
    // their Stage-I/II work; the workers chew the 17 points per model
    // concurrently.
    let cache = ScheduleCache::new();
    let outcomes = parallel_map(&jobs, runner.jobs, |_, job| {
        cache
            .prepared(job.fp, &job.graph, &job.config)
            .and_then(|prepared| run_prepared(&prepared, &job.config))
            .expect("pipeline runs")
    });

    let mut records = Vec::new();
    let reference = |model: &str, want_free: bool| {
        jobs.iter()
            .zip(&outcomes)
            .find(|(j, _)| {
                j.model == model
                    && matches!(
                        (&j.kind, want_free),
                        (Kind::Baseline, false) | (Kind::FreeXinf, true)
                    )
            })
            .map(|(_, r)| r.makespan())
            .expect("reference job exists")
    };
    for (job, r) in jobs.iter().zip(&outcomes) {
        let Kind::Point { hop, placement } = &job.kind else {
            continue;
        };
        records.push(Record {
            model: job.model.clone(),
            hop_latency_cycles: *hop,
            placement: placement.clone(),
            makespan_cycles: r.makespan(),
            speedup_vs_lbl: reference(&job.model, false) as f64 / r.makespan() as f64,
            slowdown_vs_free_noc: r.makespan() as f64 / reference(&job.model, true) as f64,
        });
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
    eprintln!("schedule cache: {}", cache.stats());

    args.write_json(&records);
}
