//! Regenerates the paper's **Table I**: the base-layer structure of
//! TinyYOLOv4 — padded IFM shape, OFM shape, PE count (Eq. 1) and
//! intra-layer latency `t_init` per convolution, on 256×256 crossbars.
//!
//! Usage: `cargo run -p cim-bench --bin table1 [-- --json results/table1.json]`

use cim_bench::artifacts::table1_costs;
use cim_bench::{cli, render_table};
use cim_mapping::min_pes;

fn main() {
    let args = cli::parse(&[&[cli::JSON]]);
    // One closed-form artifact, shared with the golden-file regression
    // suite.
    let costs = table1_costs();

    let rows: Vec<Vec<String>> = costs
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                format!("({}, {}, {})", c.ifm.h, c.ifm.w, c.ifm.c),
                format!("({}, {}, {})", c.ofm.h, c.ofm.w, c.ofm.c),
                c.pes.to_string(),
                c.t_init.to_string(),
            ]
        })
        .collect();
    println!("Table I — base layer structure of TinyYOLOv4 (256x256 PEs)\n");
    println!(
        "{}",
        render_table(
            &[
                "Layer",
                "IFM shape (HWC)",
                "OFM shape (HWC)",
                "#PE",
                "Cycles t_init"
            ],
            &rows
        )
    );
    println!("Base layers: {}", costs.len());
    println!("PE_min (all weights stored once): {}", min_pes(&costs));
    println!("Paper reference: PE_min = 117");

    args.write_json(&costs);
}
