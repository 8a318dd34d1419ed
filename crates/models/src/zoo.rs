//! The benchmark registry — the paper's Table II plus the TinyYOLOv4 case
//! study, with their published reference numbers for validation.

use cim_ir::Graph;
use serde::Serialize;

/// Reference data of one benchmark model (one row of Table I/II).
///
/// Serialize-only: the `&'static str` name cannot be deserialized into a
/// borrowed field, and nothing reads `ModelInfo` back.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ModelInfo {
    /// Model name as used in the paper's figures.
    pub name: &'static str,
    /// Input shape `(H, W, C)`.
    pub input: (usize, usize, usize),
    /// Number of base layers (Table II column "Base layers").
    pub base_layers: usize,
    /// Minimum 256×256 PEs to store all weights once (Table I/II).
    pub pe_min_256: usize,
}

impl ModelInfo {
    /// Builds the model graph.
    pub fn build(&self) -> Graph {
        match self.name {
            "TinyYOLOv3" => crate::tiny_yolo_v3(),
            "TinyYOLOv4" => crate::tiny_yolo_v4(),
            "VGG16" => crate::vgg16(),
            "VGG19" => crate::vgg19(),
            "ResNet50" => crate::resnet50(),
            "ResNet101" => crate::resnet101(),
            "ResNet152" => crate::resnet152(),
            other => unreachable!("unknown registry entry {other}"),
        }
    }
}

/// The six benchmarks of the paper's Table II, in table order.
pub fn table2_models() -> Vec<ModelInfo> {
    vec![
        ModelInfo {
            name: "TinyYOLOv3",
            input: (416, 416, 3),
            base_layers: 13,
            pe_min_256: 142,
        },
        ModelInfo {
            name: "VGG16",
            input: (224, 224, 3),
            base_layers: 13,
            pe_min_256: 233,
        },
        ModelInfo {
            name: "VGG19",
            input: (224, 224, 3),
            base_layers: 16,
            pe_min_256: 314,
        },
        ModelInfo {
            name: "ResNet50",
            input: (224, 224, 3),
            base_layers: 53,
            pe_min_256: 390,
        },
        ModelInfo {
            name: "ResNet101",
            input: (224, 224, 3),
            base_layers: 104,
            pe_min_256: 679,
        },
        ModelInfo {
            name: "ResNet152",
            input: (224, 224, 3),
            base_layers: 155,
            pe_min_256: 936,
        },
    ]
}

/// The Sec. V-A case-study model (Table I).
pub fn case_study_model() -> ModelInfo {
    ModelInfo {
        name: "TinyYOLOv4",
        input: (416, 416, 3),
        base_layers: 21,
        pe_min_256: 117,
    }
}

/// Every model in the registry: Table II plus the case study.
pub fn all_models() -> Vec<ModelInfo> {
    let mut v = vec![case_study_model()];
    v.extend(table2_models());
    v
}

/// Every name [`graph_by_name`] resolves, in registry order: the paper's
/// Fig. 5 worked example (`fig5`), then [`all_models`].
pub fn model_names() -> Vec<&'static str> {
    let mut names = vec!["fig5"];
    names.extend(all_models().iter().map(|info| info.name));
    names
}

/// The raw (pre-canonicalization) graph of `fig5` or of the zoo entry
/// named exactly `name`.
///
/// # Errors
///
/// An unknown name, with a message listing [`model_names`].
pub fn graph_by_name(name: &str) -> Result<Graph, String> {
    if name == "fig5" {
        return Ok(crate::fig5_example());
    }
    all_models()
        .into_iter()
        .find(|info| info.name == name)
        .map(|info| info.build())
        .ok_or_else(|| {
            format!(
                "unknown model {name:?} (accepted: {})",
                model_names().join(", ")
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::CrossbarSpec;
    use cim_mapping::{layer_costs, min_pes, MappingOptions};

    /// The headline validation: every registry entry reproduces its
    /// published base-layer count and PE_min exactly.
    #[test]
    fn registry_reproduces_published_numbers() {
        for info in all_models() {
            let g = info.build();
            g.validate().unwrap();
            let input = g.node(g.inputs()[0]).unwrap().out_shape;
            assert_eq!(
                (input.h, input.w, input.c),
                info.input,
                "{} input",
                info.name
            );
            assert_eq!(
                g.base_layers().len(),
                info.base_layers,
                "{} base layers",
                info.name
            );
            let costs = layer_costs(
                &g,
                &CrossbarSpec::wan_nature_2022(),
                &MappingOptions::default(),
            )
            .unwrap();
            assert_eq!(min_pes(&costs), info.pe_min_256, "{} PE_min", info.name);
        }
    }

    #[test]
    fn names_resolve_exactly() {
        for name in model_names() {
            assert!(graph_by_name(name).is_ok(), "{name}");
        }
        let err = graph_by_name("tinyyolov4").unwrap_err();
        assert!(err.contains("(accepted: fig5, TinyYOLOv4"), "{err}");
    }

    #[test]
    fn table2_has_six_models_in_order() {
        let names: Vec<&str> = table2_models().iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "TinyYOLOv3",
                "VGG16",
                "VGG19",
                "ResNet50",
                "ResNet101",
                "ResNet152"
            ]
        );
    }
}
