//! # clsa-core — CLSA-CIM cross-layer scheduling
//!
//! The paper's primary contribution (Pelke et al., *CLSA-CIM: A Cross-Layer
//! Scheduling Approach for Computing-in-Memory Architectures*, DATE 2024):
//! a scheduling algorithm for tiled CIM accelerators that forwards parts of
//! a layer's output feature map to subsequent layers *before* the whole OFM
//! is computed, dramatically raising PE utilization over layer-by-layer
//! inference.
//!
//! The four stages of Sec. IV map one-to-one onto this crate:
//!
//! | Stage | Paper | Here |
//! |-------|-------|------|
//! | I | determine sets (Fig. 5a) | [`determine_sets`] → [`LayerSets`] |
//! | II | determine dependencies (Fig. 5b) | [`determine_dependencies`] → [`Dependencies`] |
//! | III | intra-layer scheduling | set order within [`LayerSets`], enforced as chain constraints |
//! | IV | cross-layer scheduling (Fig. 5c) | [`cross_layer_schedule`] → [`Schedule`] |
//!
//! plus the [`layer_by_layer_schedule`] baseline (Sec. II-B), [`metrics`]
//! for Eq. 2/3, machine-checked [`validate_schedule`], Gantt export, and the
//! one-call [`run`] pipeline combining mapping (`cim-mapping`) and
//! scheduling — the `wdup` / `xinf` / `wdup+xinf` configurations of the
//! paper's evaluation.
//!
//! # Examples
//!
//! The paper's minimal example (Fig. 5) — two convolutions joined by a
//! non-base path — scheduled with and without cross-layer inference:
//!
//! ```
//! use cim_arch::Architecture;
//! use cim_ir::{ActFn, Conv2dAttrs, FeatureShape, Graph, Op, PadSpec, Padding, PoolAttrs};
//! use clsa_core::{run, RunConfig};
//!
//! # fn main() -> Result<(), clsa_core::CoreError> {
//! let mut g = Graph::new("fig5");
//! let x = g.add("input", Op::Input { shape: FeatureShape::new(10, 10, 3) }, &[])?;
//! let c1 = g.add("conv1", Op::Conv2d(Conv2dAttrs {
//!     out_channels: 8, kernel: (3, 3), stride: (1, 1),
//!     padding: Padding::Valid, use_bias: false,
//! }), &[x])?;
//! let b = g.add("bias", Op::Bias, &[c1])?;
//! let a = g.add("act", Op::Activation(ActFn::Relu), &[b])?;
//! let p = g.add("pool", Op::MaxPool2d(PoolAttrs {
//!     window: (2, 2), stride: (2, 2), padding: Padding::Valid,
//! }), &[a])?;
//! let pad = g.add("pad", Op::ZeroPad2d(PadSpec::uniform(1)), &[p])?;
//! g.add("conv2", Op::Conv2d(Conv2dAttrs {
//!     out_channels: 8, kernel: (3, 3), stride: (1, 1),
//!     padding: Padding::Valid, use_bias: false,
//! }), &[pad])?;
//!
//! let arch = Architecture::paper_case_study(2)?;
//! let baseline = run(&g, &RunConfig::baseline(arch.clone()))?;
//! let clsa = run(&g, &RunConfig::baseline(arch).with_cross_layer())?;
//! assert!(clsa.makespan() < baseline.makespan());
//! assert!(clsa.report.utilization > baseline.report.utilization);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cost;
pub mod deps;
pub mod diagnose;
pub mod error;
pub mod gantt;
#[cfg(test)]
mod incremental;
pub mod metrics;
pub mod pipeline;
pub mod reference;
pub mod schedule;
pub mod sets;
pub mod space;
pub mod validate;

pub use analysis::{critical_cycles_per_layer, critical_path, CriticalStep};
pub use cost::{CostedDeps, FanOut};
pub use deps::{determine_dependencies, Dependencies, SetRef};
pub use diagnose::{
    analyze_costed, capacity_diagnostics, is_validation_code, ScheduleDiagnostic, Severity,
};
pub use error::{CoreError, Result};
pub use gantt::{gantt_csv, gantt_rows, gantt_text, GanttRow};
pub use metrics::{
    eq3_predicted_from_utilization, eq3_predicted_speedup, speedup, utilization, UtilizationReport,
};
pub use pipeline::{
    prepare, run, run_prepared, Costs, Deps, Layers, MappedGraph, MappingChoice, Prepared,
    RunConfig, RunResult, SchedulingChoice,
};
pub use schedule::{
    batched_cross_layer_schedule, batched_cross_layer_schedule_costed, cross_layer_schedule,
    cross_layer_schedule_costed, layer_by_layer_schedule, set_bytes, BatchedSchedule, EdgeCost,
    Schedule, SetTime,
};
pub use sets::{determine_sets, LayerSets, OfmSet, SetPolicy};
pub use space::SetSpace;
pub use validate::{validate_schedule, validate_schedule_costed};
