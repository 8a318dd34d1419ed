//! # cim-bench — the experiment harness
//!
//! Regenerates every table and figure of the CLSA-CIM paper's evaluation
//! (Sec. V), plus ablations for the design choices documented in DESIGN.md.
//! Each artifact has a dedicated binary:
//!
//! | Paper artifact | Binary |
//! |----------------|--------|
//! | Table I (TinyYOLOv4 layer table) | `table1` |
//! | Table II (benchmark list) | `table2` |
//! | Fig. 5 (worked minimal example) | `fig5_minimal` |
//! | Fig. 6 (case study: mapping, Gantt, bars) | `fig6` |
//! | Fig. 7a/7b (speedup & utilization sweep) | `fig7` |
//! | Ablation: set granularity | `ablation_granularity` |
//! | Ablation: greedy vs exact duplication | `ablation_duplication` |
//! | Ablation: NoC hop cost (Sec. V-C) | `ablation_noc` |
//! | Ablation: cell resolution / bit slicing | `ablation_bitslice` |
//! | Ablation: pipelined inference batches | `ablation_batching` |
//!
//! Run e.g. `cargo run --release -p cim-bench --bin fig7`. Each binary
//! takes only the flags it reads, and `--help` lists them: typically
//! `--json <path>` to export its records and `--jobs <N>` to set the
//! worker-thread count of the evaluation engine (default: one worker per
//! hardware thread; `--jobs 1` is the sequential reference — results are
//! bit-for-bit identical either way). An unknown flag or a bad value
//! exits with status 2 ([`cli`]).
//!
//! The library part hosts the parallel batched evaluation engine
//! ([`runner`]: lane-based worker pool, concurrent schedule cache, the
//! sweep entry point [`Sweep::run`](runner::Sweep::run) with its
//! deterministic aggregation, and [`run_jobs`](runner::run_jobs) for
//! binaries that read full runs), the paper's extra-PE budgets and the row
//! type ([`experiments`]), the text-table renderer ([`table`]), JSON export
//! ([`export`]), and the binaries' one flag parser ([`cli`]).
//!
//! # Examples
//!
//! Sweep the paper's Fig. 5 example through the parallel runner:
//!
//! ```
//! use cim_bench::runner::{sweep_jobs, RunnerOptions, Sweep};
//!
//! # fn main() -> Result<(), clsa_core::CoreError> {
//! let jobs = sweep_jobs("fig5", &cim_models::fig5_example(), &[1])?;
//! let rows = Sweep::new(&jobs, RunnerOptions::default()).run()?.results;
//! assert_eq!(rows.len(), 4); // baseline, xinf, wdup+1, wdup+1+xinf
//! assert!(rows.iter().all(|r| r.speedup >= 1.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod cli;
pub mod experiments;
pub mod export;
pub mod runner;
pub mod table;
pub mod tune;

pub use experiments::{ConfigResult, PAPER_XS};
pub use export::write_json;
pub use table::render_table;
