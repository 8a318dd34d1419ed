//! Regenerates the paper's **Fig. 5** worked minimal example: two
//! consecutive Conv2D layers joined by a bias → activation → pooling →
//! padding non-base path, walked through all four CLSA-CIM stages with the
//! intermediate data structures printed.
//!
//! Usage: `cargo run -p cim-bench --bin fig5_minimal`
//!
//! A stage error prints one `error:` line and exits with status 2.

use std::process::ExitCode;

use cim_arch::CrossbarSpec;
use cim_bench::cli::{self, sweep_exit_code};
use cim_bench::render_table;
use cim_mapping::{layer_costs, MappingOptions};
use clsa_core::{
    cross_layer_schedule, determine_dependencies, determine_sets, gantt_text,
    layer_by_layer_schedule, CoreError, EdgeCost, SetPolicy,
};

fn main() -> ExitCode {
    cli::parse(&[]);
    sweep_exit_code(run().map(|()| 0))
}

fn run() -> Result<(), CoreError> {
    let g = cim_models::fig5_example();
    println!("Fig. 5 — minimal example: two Conv2D layers with a non-base path");
    println!(
        "graph: {} nodes, base layers: {:?}\n",
        g.len(),
        g.base_layers()
    );

    let costs = layer_costs(
        &g,
        &CrossbarSpec::wan_nature_2022(),
        &MappingOptions::default(),
    )?;
    let layers = determine_sets(&g, &costs, &SetPolicy::finest())?;

    println!("Stage I — determine sets");
    for l in &layers {
        println!("  {} (OFM {}, quantum {} rows):", l.name, l.ofm, l.quantum);
        for (i, s) in l.sets.iter().enumerate() {
            println!(
                "    set{i}: rows {}..={}, {} cycles",
                s.rect.y0, s.rect.y1, s.duration
            );
        }
    }

    let deps = determine_dependencies(&g, &layers)?;
    println!("\nStage II — determine dependencies (P = producers per consumer set)");
    for (li, l) in layers.iter().enumerate() {
        for si in 0..l.sets.len() {
            let p = deps.fan_in(li, si);
            if p > 0 {
                let names: Vec<String> = deps
                    .of(li, si)
                    .map(|r| format!("{}.set{}", layers[r.layer].name, r.set))
                    .collect();
                println!("  {}.set{si}  <-  {} (P = {p})", l.name, names.join(", "));
            }
        }
    }
    let q = deps.fan_out();
    println!("\n  Q (consumers per producer set):");
    for (li, sets) in q.iter().enumerate() {
        for (si, consumers) in sets.iter().enumerate() {
            if !consumers.is_empty() {
                println!("  {}.set{si} -> Q = {}", layers[li].name, consumers.len());
            }
        }
    }

    println!("\nStage III — intra-layer order: each layer's sets run top band first");

    let lbl = layer_by_layer_schedule(&layers)?;
    let xl = cross_layer_schedule(&layers, &deps, &EdgeCost::Free)?;
    println!("\nStage IV — cross-layer schedule (start/finish in cycles)");
    let mut rows = Vec::new();
    for (li, l) in layers.iter().enumerate() {
        for (si, t) in xl.layer(li).iter().enumerate() {
            rows.push(vec![
                format!("{}.set{si}", l.name),
                t.start.to_string(),
                t.finish.to_string(),
            ]);
        }
    }
    println!("{}", render_table(&["set", "start", "finish"], &rows));

    println!("layer-by-layer makespan: {} cycles", lbl.makespan);
    println!("CLSA-CIM makespan:       {} cycles", xl.makespan);
    println!(
        "speedup:                 {:.2}x\n",
        lbl.makespan as f64 / xl.makespan as f64
    );
    println!("layer-by-layer Gantt:\n{}", gantt_text(&layers, &lbl, 60));
    println!("CLSA-CIM Gantt:\n{}", gantt_text(&layers, &xl, 60));
    Ok(())
}
