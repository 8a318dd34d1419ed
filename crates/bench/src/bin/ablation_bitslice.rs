//! Ablation **A4** — RRAM cell resolution / bit slicing: storing
//! `weight_bits`-bit weights in 4-bit cells multiplies the crossbar columns
//! a layer needs, inflating `PE_min` (Eq. 1 with the effective width) and
//! shifting the duplication and scheduling results.
//!
//! Usage: `cargo run --release -p cim-bench --bin ablation_bitslice [-- --json <path>] [--jobs N]`

use std::process::ExitCode;

use cim_arch::Architecture;
use cim_bench::cli::{self, sweep_exit_code, Args};
use cim_bench::render_table;
use cim_bench::runner::{canonical, pe_min_of, run_jobs, SweepJob, BASELINE_LABEL};
use cim_mapping::MappingOptions;
use clsa_core::{CoreError, RunConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Record {
    model: String,
    weight_bits: u8,
    pe_min: usize,
    xinf_speedup: f64,
}

fn main() -> ExitCode {
    let args = cli::parse(&[&[cli::JOBS, cli::JSON]]);
    sweep_exit_code(run(&args).map(|()| 0))
}

fn run(args: &Args) -> Result<(), CoreError> {
    // Two jobs per (model, precision), the lbl/xinf pair, which share one
    // stage computation; `bits` holds each pair's precision.
    let mut jobs = Vec::new();
    let mut bits = Vec::new();
    for info in [cim_models::case_study_model()]
        .into_iter()
        .chain(cim_models::table2_models())
    {
        let (graph, model_fp) = canonical(&info.build())?;
        for weight_bits in [4u8, 8, 16] {
            let mapping_options = MappingOptions {
                weight_bits: Some(weight_bits),
            };
            // PE_min under this precision is closed-form (Eq. 1).
            let pe_min = pe_min_of(&graph, &mapping_options)?;
            let lbl = RunConfig {
                mapping_options,
                ..RunConfig::baseline(Architecture::paper_case_study(pe_min)?)
            };
            for (label, config) in [
                (BASELINE_LABEL, lbl.clone()),
                ("xinf", lbl.with_cross_layer()),
            ] {
                jobs.push(SweepJob {
                    model: info.name.to_string(),
                    model_fp,
                    graph: std::sync::Arc::clone(&graph),
                    label: label.to_string(),
                    x: 0,
                    pe_min,
                    config,
                });
            }
            bits.push(weight_bits);
        }
    }

    let (results, stats) = run_jobs(&jobs, args.runner)?;
    let records: Vec<Record> = jobs
        .chunks(2)
        .zip(results.chunks(2))
        .zip(bits)
        .map(|((pair, runs), weight_bits)| Record {
            model: pair[0].model.clone(),
            weight_bits,
            pe_min: pair[0].pe_min,
            xinf_speedup: runs[0].makespan() as f64 / runs[1].makespan() as f64,
        })
        .collect();

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
    eprintln!("schedule cache: {stats}");

    args.write_json(&records);
    Ok(())
}
