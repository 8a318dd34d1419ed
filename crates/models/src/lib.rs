//! # cim-models — the benchmark model zoo
//!
//! Programmatic reconstructions of every neural network the CLSA-CIM paper
//! evaluates (Sec. V, Tables I and II):
//!
//! | Model | Input | Base layers | PE_min (256×256) |
//! |-------|-------|-------------|------------------|
//! | [`tiny_yolo_v4`] (case study) | 416×416×3 | 21 | 117 |
//! | [`tiny_yolo_v3`] | 416×416×3 | 13 | 142 |
//! | [`vgg16`] | 224×224×3 | 13 | 233 |
//! | [`vgg19`] | 224×224×3 | 16 | 314 |
//! | [`resnet50`] | 224×224×3 | 53 | 390 |
//! | [`resnet101`] | 224×224×3 | 104 | 679 |
//! | [`resnet152`] | 224×224×3 | 155 | 936 |
//!
//! Every builder is validated against the published base-layer count and
//! `PE_min` in this crate's tests — the closed-form part of the paper's
//! results reproduces *exactly*.
//!
//! The zoo models are shape-only (scheduling never reads weights; see
//! DESIGN.md). The [`toy_cnn`] / [`mlp`] toys optionally attach seeded
//! random parameters for numeric tests, [`fig5_example`] reproduces the
//! paper's worked minimal example, and [`random_cnn`] generates valid
//! random CNNs for fuzzing.
//!
//! # Examples
//!
//! ```
//! use cim_arch::CrossbarSpec;
//! use cim_mapping::{layer_costs, min_pes, MappingOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = cim_models::tiny_yolo_v4();
//! let costs = layer_costs(&g, &CrossbarSpec::wan_nature_2022(), &MappingOptions::default())?;
//! assert_eq!(min_pes(&costs), 117); // Table I
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod random;
pub mod resnet;
pub mod synthetic;
pub mod toys;
pub mod vgg;
pub mod yolo;
pub mod zoo;

pub use random::random_cnn;
pub use resnet::{resnet101, resnet152, resnet50};
pub use synthetic::conv_chain;
pub use toys::{fig5_example, mlp, toy_cnn};
pub use vgg::{vgg16, vgg16_with_classifier, vgg19};
pub use yolo::{tiny_yolo_v3, tiny_yolo_v4};
pub use zoo::{all_models, case_study_model, graph_by_name, model_names, table2_models, ModelInfo};
