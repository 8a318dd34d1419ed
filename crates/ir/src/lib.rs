//! # cim-ir — NN graph IR for computing-in-memory scheduling
//!
//! This crate is the foundation of the CLSA-CIM reproduction (Pelke et al.,
//! DATE 2024): a small neural-network graph intermediate representation that
//! the preprocessing passes, the weight-duplication mapper, and the
//! cross-layer scheduler all operate on.
//!
//! It provides:
//!
//! * [`FeatureShape`], [`Padding`], [`PadSpec`] — HWC feature-map shapes and
//!   TensorFlow-compatible padding arithmetic ([`shape`]).
//! * [`Op`] and attribute types — the operation set split into *base layers*
//!   (executed as matrix-vector multiplications on crossbar PEs) and
//!   *non-base layers* (executed on per-tile GPEUs) ([`ops`]).
//! * [`Graph`] — an append-only DAG with shape inference and validation
//!   ([`graph`]).
//! * [`Rect`], [`RegionStep`], [`input_region`], [`output_region`] — the
//!   rectangle propagation machinery behind CLSA-CIM's Stage II
//!   ([`region`]).
//! * [`Tensor`] and [`Executor`] — a dense `f32` tensor plus a reference CPU
//!   executor used to prove that graph rewrites (batch-norm folding, weight
//!   duplication) preserve numerics ([`tensor`], [`exec`]).
//! * [`to_dot`] — Graphviz export for debugging and figures ([`dot`]).
//!
//! # Examples
//!
//! Build a two-layer CNN and run it through the reference executor:
//!
//! ```
//! use cim_ir::{Conv2dAttrs, Executor, FeatureShape, Graph, Op, Padding, Params, Tensor};
//!
//! # fn main() -> Result<(), cim_ir::IrError> {
//! let mut g = Graph::new("toy");
//! let x = g.add("input", Op::Input { shape: FeatureShape::new(4, 4, 1) }, &[])?;
//! let conv = Op::Conv2d(Conv2dAttrs {
//!     out_channels: 2,
//!     kernel: (3, 3),
//!     stride: (1, 1),
//!     padding: Padding::Valid,
//!     use_bias: false,
//! });
//! let kernel = Tensor::from_fn(&[3, 3, 1, 2], |i| i as f32 * 0.1);
//! let c = g.add_with_params("conv", conv, &[x], Params::with_kernel(kernel))?;
//! let out = Executor::new(&g).run_single(Tensor::from_fn(&[4, 4, 1], |i| i as f32))?;
//! assert_eq!(out[&c].feature_shape()?, FeatureShape::new(2, 2, 2));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
pub mod error;
pub mod exec;
pub mod graph;
pub mod ops;
pub mod region;
pub mod shape;
pub mod tensor;

pub use dot::to_dot;
pub use error::{IrError, Result};
pub use exec::Executor;
pub use graph::{BnParams, Graph, Node, NodeId, Params};
pub use ops::{
    ActFn, Axis, BatchNormAttrs, Conv2dAttrs, DenseAttrs, Op, PoolAttrs, QuantAttrs, SliceAttrs,
};
pub use region::{input_region, output_region, Rect, RegionStep};
pub use shape::{window_out_extent, FeatureShape, PadSpec, Padding};
pub use tensor::Tensor;
