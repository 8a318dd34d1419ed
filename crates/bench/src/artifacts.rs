//! Shared computation of the paper's exportable artifacts.
//!
//! The `fig6`, `table1`, and `table2` binaries and the golden-file
//! regression suite (`tests/golden_artifacts.rs`) must serialize **the
//! same rows from the same code path** — otherwise the goldens would only
//! pin the test's private reimplementation. This module is that single
//! code path: each function returns exactly the record list the
//! corresponding binary exports with `--json`.

use std::sync::Arc;

use cim_arch::CrossbarSpec;
use cim_ir::Graph;
use cim_mapping::{layer_costs, min_pes, LayerCost, MappingOptions};
use clsa_core::CoreError;
use serde::Serialize;

use crate::experiments::ConfigResult;
use crate::runner::{parallel_map, sweep_jobs, Model, ResultStore, RunnerOptions, Sweep, SweepJob};

/// The paper's case study (Sec. V-A): TinyYOLOv4, canonicalized (BN
/// folded, partitioned) and ready for the pipeline.
///
/// # Panics
///
/// Panics if the built-in model fails to canonicalize (a build defect).
pub fn case_study_model() -> Arc<Model> {
    let raw = cim_models::tiny_yolo_v4();
    // cim-lint: allow(panic-unwrap) the golden zoo model is known-good
    Model::canonical("TinyYOLOv4", &raw).expect("model canonicalizes")
}

/// The canonicalized graph of [`case_study_model`] (which panics likewise).
pub fn case_study_graph() -> Graph {
    case_study_model().graph().clone()
}

/// The aggregated rows of **Fig. 6c** — the TinyYOLOv4 sweep over
/// `xinf`, `wdup+{16,32}`, and `wdup+{16,32}+xinf` — exactly as the
/// `fig6` binary exports them, computed from [`case_study_model`].
///
/// # Errors
///
/// Propagates pipeline errors from the sweep.
pub fn fig6c_results(
    model: &Arc<Model>,
    runner: &RunnerOptions,
    store: Option<&ResultStore>,
) -> Result<Vec<ConfigResult>, CoreError> {
    let jobs = fig6c_jobs(model)?;
    Ok(Sweep {
        store,
        ..Sweep::new(&jobs, *runner)
    }
    .run()?
    .results)
}

/// The flat job list behind [`fig6c_results`] — the form the `fig6`
/// binary runs under `--shard i/n` / `--shard merge`, with the same job
/// identities, so slices warmed here replay in the unsharded path and
/// vice versa.
///
/// # Errors
///
/// Propagates architecture errors.
pub fn fig6c_jobs(model: &Arc<Model>) -> Result<Vec<SweepJob>, CoreError> {
    sweep_jobs(model, &[16, 32])
}

/// The per-layer cost rows of **Table I** — TinyYOLOv4's base-layer
/// structure on the paper's 256×256 crossbars — exactly as the `table1`
/// binary exports them.
///
/// # Panics
///
/// Panics if the built-in model has no base layers (a build defect).
pub fn table1_costs() -> Vec<LayerCost> {
    layer_costs(
        case_study_model().graph(),
        &CrossbarSpec::wan_nature_2022(),
        &MappingOptions::default(),
    )
    .expect("model has base layers") // cim-lint: allow(panic-unwrap) the golden zoo model is known-good
}

/// One row of **Table II**: a benchmark model, its input shape, and its
/// measured vs. paper-reported `PE_min`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Table2Row {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Input shape `(H, W, C)`.
    pub input: (usize, usize, usize),
    /// Number of base layers after canonicalization.
    pub base_layers: usize,
    /// `PE_min` measured by Eq. 1 over the layer costs.
    pub pe_min_measured: usize,
    /// `PE_min` the paper reports.
    pub pe_min_paper: usize,
}

/// The benchmark rows of **Table II**, computed on `jobs` worker lanes —
/// exactly as the `table2` binary exports them.
pub fn table2_rows(jobs: usize) -> Vec<Table2Row> {
    // Building + costing ResNet152 dominates; one lane per model.
    parallel_map(&cim_models::table2_models(), jobs, |_, info| {
        let g = info.build();
        let costs = layer_costs(
            &g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .expect("model has base layers"); // cim-lint: allow(panic-unwrap) the golden zoo model is known-good
        Table2Row {
            benchmark: info.name,
            input: info.input,
            base_layers: g.base_layers().len(),
            pe_min_measured: min_pes(&costs),
            pe_min_paper: info.pe_min_256,
        }
    })
}
