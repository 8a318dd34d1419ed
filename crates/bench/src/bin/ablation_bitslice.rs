//! Ablation **A4** — RRAM cell resolution / bit slicing: storing
//! `weight_bits`-bit weights in 4-bit cells multiplies the crossbar columns
//! a layer needs, inflating `PE_min` (Eq. 1 with the effective width) and
//! shifting the duplication and scheduling results.
//!
//! Usage: `cargo run --release -p cim-bench --bin ablation_bitslice [-- --json <path>] [--jobs N]`

use cim_arch::Architecture;
use cim_bench::runner::{fingerprint, parallel_map, pe_min_of, ScheduleCache};
use cim_bench::{cli, render_table};
use cim_frontend::{canonicalize, CanonOptions};
use cim_mapping::MappingOptions;
use clsa_core::RunConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    model: String,
    weight_bits: u8,
    pe_min: usize,
    xinf_speedup: f64,
}

fn main() {
    let args = cli::parse(&[&[cli::JOBS, cli::JSON]]);
    let (runner, json) = (args.runner, args.json);

    // One job per (model, precision): both scheduling variants resolve
    // through the shared cache inside the job, so the lbl/xinf pair still
    // computes its stages once while the grid points run concurrently.
    struct Job {
        model: String,
        fp: u64,
        graph: std::sync::Arc<cim_ir::Graph>,
        bits: u8,
        pe_min: usize,
    }
    let mut jobs: Vec<Job> = Vec::new();
    for info in [cim_models::case_study_model()]
        .into_iter()
        .chain(cim_models::table2_models())
    {
        let g = canonicalize(&info.build(), &CanonOptions::default())
            .expect("model canonicalizes")
            .into_graph();
        let g = std::sync::Arc::new(g);
        let fp = fingerprint(g.as_ref());
        for bits in [4u8, 8, 16] {
            let mopts = MappingOptions {
                weight_bits: Some(bits),
            };
            jobs.push(Job {
                model: info.name.to_string(),
                fp,
                graph: std::sync::Arc::clone(&g),
                bits,
                // PE_min under this precision is closed-form (Eq. 1).
                pe_min: pe_min_of(&g, &mopts).expect("costs"),
            });
        }
    }

    let cache = ScheduleCache::new();
    let records: Vec<Record> = parallel_map(&jobs, runner.jobs, |_, job| {
        let mopts = MappingOptions {
            weight_bits: Some(job.bits),
        };
        let arch = Architecture::paper_case_study(job.pe_min).unwrap();
        let mut lbl_cfg = RunConfig::baseline(arch.clone());
        lbl_cfg.mapping_options = mopts;
        let lbl = cache.run(job.fp, &job.graph, &lbl_cfg).expect("baseline");
        let mut xinf_cfg = RunConfig::baseline(arch).with_cross_layer();
        xinf_cfg.mapping_options = mopts;
        let xinf = cache.run(job.fp, &job.graph, &xinf_cfg).expect("xinf");
        Record {
            model: job.model.clone(),
            weight_bits: job.bits,
            pe_min: job.pe_min,
            xinf_speedup: lbl.makespan() as f64 / xinf.makespan() as f64,
        }
    });

    println!("Ablation A4 — weight precision vs PE_min and xinf speedup");
    println!("(4-bit RRAM cells; >4-bit weights are bit-sliced across columns)\n");
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.weight_bits.to_string(),
                r.pe_min.to_string(),
                format!("{:.2}x", r.xinf_speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["model", "weight bits", "PE_min", "xinf speedup"], &rows)
    );
    println!("4-bit weights reproduce the paper's PE_min values; higher precisions");
    println!("inflate column demand (P_H) and with it the PE budget.");
    eprintln!("schedule cache: {}", cache.stats());

    if let Some(path) = json {
        cim_bench::write_json(&path, &records).expect("write json");
        println!("wrote {path}");
    }
}
