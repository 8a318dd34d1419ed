//! Ablation **A1** — set granularity (Stage I) versus cross-layer speedup.
//!
//! The paper notes that "increasing the number of sets provides a more
//! detailed scheduling granularity" but does not quantify the trade-off.
//! This sweep runs `xinf` at `PE_min` under set policies from one set per
//! OFM (no overlap possible) to the finest quantum-aligned granularity.
//!
//! Usage: `cargo run --release -p cim-bench --bin ablation_granularity [-- --json <path>] [--jobs N]`

use cim_arch::Architecture;
use cim_bench::runner::{fingerprint, parallel_map, pe_min_of, ScheduleCache};
use cim_bench::{cli, render_table};
use cim_frontend::{canonicalize, CanonOptions};
use cim_mapping::MappingOptions;
use clsa_core::{run_prepared, RunConfig, SetPolicy};
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    model: String,
    policy: String,
    total_sets: usize,
    makespan_cycles: u64,
    speedup_vs_lbl: f64,
}

fn main() {
    let args = cli::parse(&[&[cli::JOBS, cli::JSON]]);
    let runner = args.runner;
    let models: Vec<(&str, cim_ir::Graph)> = vec![
        ("TinyYOLOv4", cim_models::tiny_yolo_v4()),
        ("VGG16", cim_models::vgg16()),
    ];
    let policies: Vec<(String, SetPolicy)> = [1usize, 2, 4, 8, 16, 32, 64]
        .iter()
        .map(|&n| (format!("coarse({n})"), SetPolicy::coarse(n)))
        .chain(std::iter::once(("finest".to_string(), SetPolicy::finest())))
        .collect();

    // Flat job list: (model, policy-or-baseline). The baseline row of each
    // model doubles as the speedup reference during aggregation.
    struct Job {
        model: String,
        fp: u64,
        graph: std::sync::Arc<cim_ir::Graph>,
        label: Option<String>, // None = layer-by-layer reference
        config: RunConfig,
    }
    let mut jobs: Vec<Job> = Vec::new();
    for (name, graph) in &models {
        let g = canonicalize(graph, &CanonOptions::default())
            .expect("model canonicalizes")
            .into_graph();
        let g = std::sync::Arc::new(g);
        let fp = fingerprint(g.as_ref());
        let pe_min = pe_min_of(&g, &MappingOptions::default()).expect("costs");
        let arch = Architecture::paper_case_study(pe_min).unwrap();
        // Baseline at PE_min — granularity does not affect it.
        jobs.push(Job {
            model: name.to_string(),
            fp,
            graph: std::sync::Arc::clone(&g),
            label: None,
            config: RunConfig::baseline(arch.clone()),
        });
        for (label, policy) in &policies {
            let mut cfg = RunConfig::baseline(arch.clone()).with_cross_layer();
            cfg.set_policy = *policy;
            jobs.push(Job {
                model: name.to_string(),
                fp,
                graph: std::sync::Arc::clone(&g),
                label: Some(label.clone()),
                config: cfg,
            });
        }
    }

    let cache = ScheduleCache::new();
    let outcomes = parallel_map(&jobs, runner.jobs, |_, job| {
        cache
            .prepared(job.fp, &job.graph, &job.config)
            .and_then(|prepared| run_prepared(&prepared, &job.config))
            .expect("pipeline runs")
    });

    let mut records = Vec::new();
    for (name, _) in &models {
        let lbl = jobs
            .iter()
            .zip(&outcomes)
            .find(|(j, _)| j.model == *name && j.label.is_none())
            .map(|(_, r)| r.makespan())
            .expect("baseline job exists");
        for (job, r) in jobs.iter().zip(&outcomes) {
            if job.model != *name {
                continue;
            }
            let Some(label) = &job.label else { continue };
            let total_sets: usize = r.layers.iter().map(|l| l.sets.len()).sum();
            records.push(Record {
                model: name.to_string(),
                policy: label.clone(),
                total_sets,
                makespan_cycles: r.makespan(),
                speedup_vs_lbl: lbl as f64 / r.makespan() as f64,
            });
        }
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
    eprintln!("schedule cache: {}", cache.stats());

    args.write_json(&records);
}
