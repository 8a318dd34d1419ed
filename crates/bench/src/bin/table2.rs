//! Regenerates the paper's **Table II**: the benchmark list — input shape,
//! base-layer count, and minimum required 256×256 PEs per model.
//!
//! Usage: `cargo run -p cim-bench --bin table2 [-- --json results/table2.json] [--jobs N]`

use cim_bench::artifacts::table2_rows;
use cim_bench::{cli, render_table};

fn main() {
    let args = cli::parse(&[&[cli::JOBS, cli::JSON]]);
    // Row computation is shared with the golden-file regression suite.
    let rows = table2_rows(args.runner.jobs);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                format!("({}, {}, {})", r.input.0, r.input.1, r.input.2),
                r.base_layers.to_string(),
                r.pe_min_measured.to_string(),
                if r.pe_min_measured == r.pe_min_paper {
                    "exact".into()
                } else {
                    format!("paper says {}", r.pe_min_paper)
                },
            ]
        })
        .collect();
    println!("Table II — list of benchmarks (256x256 PEs)\n");
    println!(
        "{}",
        render_table(
            &[
                "Benchmark",
                "Input shape (HWC)",
                "Base layers",
                "Min. # required PEs",
                "vs paper"
            ],
            &table
        )
    );

    if let Some(path) = &args.json {
        cim_bench::write_json(path, &rows).expect("write json");
        println!("wrote {path}");
    }
}
