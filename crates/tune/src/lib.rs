//! # cim-tune — design-space exploration over the CLSA-CIM core
//!
//! CLSA-CIM schedules one *fixed* configuration: a Stage-I tiling policy,
//! a duplication budget, an architecture, a cost model. The paper's
//! speedups are highly sensitive to those upstream choices — related work
//! (CIM-MLC's multi-level scheduling knobs, MIREDO's dataflow-as-
//! optimization framing) makes exactly this the frontier. This crate
//! searches the joint space instead of assuming it:
//!
//! * [`DesignSpace`] — the enumerable joint space (tiling × duplication ×
//!   architecture × cost model), flat-indexed so every strategy
//!   manipulates plain `usize`s;
//! * [`MixSpace`] — the multi-tenant fabric's knob space (co-residency
//!   policy × link bandwidth × weight capacity × reload cost), same flat
//!   indexing, evaluated by `cim-bench`'s `fabric-sim --mix-sweep`;
//! * [`SearchStrategy`] — batched ask/tell proposers: [`GridSearch`],
//!   [`RandomSearch`], and [`Annealing`] (seeded, deterministic);
//! * [`ParetoArchive`] — the dominance-pruned front over
//!   (latency, utilization, NoC bytes, crossbar count), with an
//!   insertion-order-independent canonical serialization;
//! * [`Budget`] / [`tune`] — the budgeted loop gluing the above to an
//!   [`Evaluator`].
//!
//! Evaluation is pluggable: [`PipelineEvaluator`] runs candidates
//! sequentially through `clsa_core::run`; `cim-bench` layers the
//! lane-pool parallel evaluator with the persistent result store on the
//! same trait (see `cim_bench::tune` and the `autotune` binary).
//!
//! # Examples
//!
//! Exhaustively tune the paper's Fig. 5 example over the tiny preset
//! space and read off the Pareto front:
//!
//! ```
//! use cim_frontend::{canonicalize, CanonOptions};
//! use cim_tune::{tune, Budget, DesignSpace, GridSearch, PipelineEvaluator, TuneOptions};
//!
//! # fn main() -> Result<(), clsa_core::CoreError> {
//! let graph = canonicalize(&cim_models::fig5_example(), &CanonOptions::default())
//!     .expect("canonicalizes")
//!     .into_graph();
//! let space = DesignSpace::tiny();
//! let result = tune(
//!     &space,
//!     &mut GridSearch::new(),
//!     &PipelineEvaluator::new(&graph),
//!     &Budget::default(),
//!     &TuneOptions::default(),
//! )?;
//! assert_eq!(result.stats.evaluated, space.len());
//! assert!(!result.archive.is_empty());
//! // Every front entry decodes back to its design-space candidate.
//! let best = space.candidate(result.archive.sorted()[0].candidate);
//! assert!(best.label().len() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod archive;
mod budget;
mod clock;
mod driver;
mod eval;
mod mix;
mod space;
mod strategy;

pub use archive::{Measurement, ParetoArchive, ParetoEntry};
pub use budget::{Budget, TuneStats};
pub use clock::{Clock, ManualClock, SystemClock};
pub use driver::{tune, tune_with_clock, TuneOptions, TuneResult};
pub use eval::{Evaluator, PeMinMemo, PipelineEvaluator};
pub use mix::{mix_measurement, MixPoint, MixSpace};
pub use space::{Candidate, Coords, CostModelAxis, DesignSpace, MappingAxis};
pub use strategy::{strategy_by_name, Annealing, GridSearch, RandomSearch, SearchStrategy};
