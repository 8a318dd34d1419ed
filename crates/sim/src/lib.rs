//! # cim-sim — discrete-event system-level simulator
//!
//! The paper evaluates CLSA-CIM with "a custom system-level simulator,
//! similar to previous works" (Sec. V). This crate is that substrate: an
//! event-driven engine that executes the Stage-I/II workload on the tiled
//! architecture model, tracking per-group activity, NoC traffic, buffer
//! pressure, and energy.
//!
//! The engine is *independent* of the analytic longest-path scheduler in
//! `clsa-core`: it maintains a ready queue and an event heap and discovers
//! start times operationally. Under the paper's peak-performance assumptions
//! the two must agree exactly — a cross-check exercised by this crate's
//! tests and by workspace-level property tests.
//!
//! # Examples
//!
//! ```
//! use cim_arch::CrossbarSpec;
//! use cim_ir::{Conv2dAttrs, FeatureShape, Graph, Op, Padding};
//! use cim_mapping::{layer_costs, MappingOptions};
//! use clsa_core::{determine_dependencies, determine_sets, EdgeCost, SetPolicy};
//! use cim_sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = Graph::new("t");
//! let x = g.add("input", Op::Input { shape: FeatureShape::new(10, 10, 3) }, &[])?;
//! let c1 = g.add("c1", Op::Conv2d(Conv2dAttrs {
//!     out_channels: 8, kernel: (3, 3), stride: (1, 1),
//!     padding: Padding::Valid, use_bias: false,
//! }), &[x])?;
//! g.add("c2", Op::Conv2d(Conv2dAttrs {
//!     out_channels: 8, kernel: (3, 3), stride: (1, 1),
//!     padding: Padding::Valid, use_bias: false,
//! }), &[c1])?;
//! let costs = layer_costs(&g, &CrossbarSpec::wan_nature_2022(), &MappingOptions::default())?;
//! let layers = determine_sets(&g, &costs, &SetPolicy::finest())?;
//! let deps = determine_dependencies(&g, &layers)?;
//! let result = Simulator::new(&layers, &deps).run(&EdgeCost::Free)?;
//! // Must agree with the analytic engine.
//! let analytic = clsa_core::cross_layer_schedule(&layers, &deps, &EdgeCost::Free)?;
//! assert_eq!(result.schedule.makespan, analytic.makespan);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod shared;
pub mod stats;

pub use engine::{SimResult, Simulator};
pub use error::{Result, SimError};
pub use shared::{run_shared, FabricContention, SharedOutcome, TenantOutcome, TenantWorkload};
pub use stats::{GroupStats, SimStats};
