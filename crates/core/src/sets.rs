//! Stage I — determine sets (Sec. IV-1 of the paper, Fig. 5a).
//!
//! Every base layer's OFM is divided into disjoint hyperrectangular *sets*,
//! the minimum scheduling units of CLSA-CIM. All elements of a set are
//! produced before any element of the next set of the same OFM.
//!
//! Design choices, following the paper:
//!
//! * Sets are **row bands** — `q` consecutive rows × full width × all
//!   channels. The minimum MVM unit already produces a full `(1,1,OC)`
//!   vector (Sec. III-B), so channels are never split; rows are the natural
//!   streaming direction of im2col convolution.
//! * Sets are **quantum-aligned**: the row count per set is a multiple of
//!   the downstream pooling strides, so non-base operations (e.g. a
//!   `(2,2)/(2,2)` pooling) always see complete input windows — the Fig. 5a
//!   constraint that sets contain at least `2×2` values. Every node's
//!   quantum comes from one reverse pass over the graph (`row_quanta`),
//!   in time linear in nodes plus edges.
//! * Set count per OFM is tunable via [`SetPolicy`]: finer sets give the
//!   cross-layer scheduler more freedom (paper: "increasing the number of
//!   sets provides a more detailed scheduling granularity") at the price of
//!   more scheduling state.

use cim_ir::{FeatureShape, Graph, NodeId, Op, Rect};
use cim_mapping::LayerCost;
use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};

/// Granularity policy for Stage I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SetPolicy {
    /// Upper bound on the number of sets per OFM. `None` (default) uses the
    /// finest quantum-aligned granularity — one quantum of rows per set.
    pub max_sets_per_layer: Option<usize>,
}

impl SetPolicy {
    /// Finest quantum-aligned granularity (the default).
    pub const fn finest() -> Self {
        Self {
            max_sets_per_layer: None,
        }
    }

    /// At most `n` sets per OFM.
    pub const fn coarse(n: usize) -> Self {
        Self {
            max_sets_per_layer: Some(n),
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadPolicy`] if a zero set count is requested.
    pub fn validate(&self) -> Result<()> {
        if self.max_sets_per_layer == Some(0) {
            return Err(CoreError::BadPolicy {
                detail: "max_sets_per_layer must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// One OFM set: a rectangle of output positions and its execution time on
/// the layer's PE group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OfmSet {
    /// Spatial extent of the set within the OFM.
    pub rect: Rect,
    /// Cycles to compute the set: one MVM per spatial position
    /// (Sec. III-B), i.e. the rectangle area.
    pub duration: u64,
}

/// All sets of one base layer, in Stage-III execution order (top to bottom).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerSets {
    /// The base-layer node these sets belong to.
    pub node: NodeId,
    /// Node name.
    pub name: String,
    /// Logical layer id (duplicates share it).
    pub logical: u32,
    /// OFM shape.
    pub ofm: FeatureShape,
    /// PEs in this layer's group (`c_i`, Eq. 1).
    pub pes: usize,
    /// Row quantum used for alignment.
    pub quantum: usize,
    /// The sets, ordered top row band first.
    pub sets: Vec<OfmSet>,
}

impl LayerSets {
    /// Total cycles to execute every set back-to-back (`t_OFM`).
    pub fn total_cycles(&self) -> u64 {
        self.sets.iter().map(|s| s.duration).sum()
    }
}

/// Runs Stage I: partitions every base layer's OFM into quantum-aligned row
/// bands.
///
/// `costs` must come from [`cim_mapping::layer_costs`] on the same graph —
/// it supplies the PE group sizes and fixes the layer order (topological).
///
/// # Errors
///
/// Returns [`CoreError::BadPolicy`] for invalid policies and
/// [`CoreError::StageMismatch`] when `costs` does not match `graph`.
///
/// # Examples
///
/// ```
/// use cim_arch::CrossbarSpec;
/// use cim_ir::{Conv2dAttrs, FeatureShape, Graph, Op, Padding};
/// use cim_mapping::{layer_costs, MappingOptions};
/// use clsa_core::{determine_sets, SetPolicy};
///
/// # fn main() -> Result<(), clsa_core::CoreError> {
/// let mut g = Graph::new("t");
/// let x = g.add("input", Op::Input { shape: FeatureShape::new(10, 10, 3) }, &[])?;
/// g.add(
///     "conv",
///     Op::Conv2d(Conv2dAttrs {
///         out_channels: 8,
///         kernel: (3, 3),
///         stride: (1, 1),
///         padding: Padding::Valid,
///         use_bias: false,
///     }),
///     &[x],
/// )?;
/// let costs = layer_costs(&g, &CrossbarSpec::wan_nature_2022(), &MappingOptions::default())?;
/// let layers = determine_sets(&g, &costs, &SetPolicy::finest())?;
/// assert_eq!(layers[0].sets.len(), 8, "8 OFM rows, quantum 1");
/// # Ok(())
/// # }
/// ```
pub fn determine_sets(
    graph: &Graph,
    costs: &[LayerCost],
    policy: &SetPolicy,
) -> Result<Vec<LayerSets>> {
    policy.validate()?;
    let quanta = row_quanta(graph);
    let mut out = Vec::with_capacity(costs.len());
    for cost in costs {
        let node = graph.node(cost.node)?;
        if !node.op.is_base() {
            return Err(CoreError::StageMismatch {
                detail: format!("cost entry `{}` is not a base layer", cost.name),
            });
        }
        if node.out_shape != cost.ofm {
            return Err(CoreError::StageMismatch {
                detail: format!(
                    "cost entry `{}` records OFM {} but the graph has {}",
                    cost.name, cost.ofm, node.out_shape
                ),
            });
        }
        let ofm = node.out_shape;
        let quantum = quanta[cost.node.index()].min(ofm.h).max(1);
        let quanta = ofm.h.div_ceil(quantum);
        let quanta_per_set = match policy.max_sets_per_layer {
            Some(max) => quanta.div_ceil(max),
            None => 1,
        };
        let rows_per_set = quantum * quanta_per_set;
        let mut sets = Vec::with_capacity(ofm.h.div_ceil(rows_per_set));
        let mut y = 0usize;
        while y < ofm.h {
            let y1 = (y + rows_per_set).min(ofm.h) - 1;
            let rect = Rect::new(y, 0, y1, ofm.w - 1);
            sets.push(OfmSet {
                rect,
                duration: rect.area() as u64,
            });
            y = y1 + 1;
        }
        out.push(LayerSets {
            node: cost.node,
            name: cost.name.clone(),
            logical: node.logical_layer.unwrap_or(node.id.0),
            ofm,
            pes: cost.pes,
            quantum,
            sets,
        });
    }
    Ok(out)
}

/// Every node's row quantum: the row count its output's sets must be a
/// multiple of. That is the product of the pooling row-strides along each
/// downstream non-base path, maximized over paths (Fig. 5a: sets must
/// accommodate the `(2,2)` pooling between the layers); a path ends at the
/// next base layer. Globally-coupled consumers (flatten, global pooling,
/// softmax) require the whole OFM, reported as `usize::MAX`.
///
/// One pass in reverse id order: ids are topological, so a node's every
/// consumer is final before the node itself. Each node then raises each of
/// its inputs to what it asks of them: 1 from a base layer, its row stride
/// times its own quantum from a pooling (saturating, so a global consumer
/// downstream stays "whole OFM"), `usize::MAX` from a global consumer, and
/// its own quantum from any other op. A node without consumers keeps 1.
fn row_quanta(graph: &Graph) -> Vec<usize> {
    let mut quanta = vec![1usize; graph.len()];
    for (idx, n) in graph.iter().enumerate().rev() {
        let ask = match &n.op {
            Op::Conv2d(_) | Op::Dense(_) => 1,
            Op::MaxPool2d(a) | Op::AvgPool2d(a) => a.stride.0.max(1).saturating_mul(quanta[idx]),
            Op::GlobalAvgPool | Op::Flatten | Op::Softmax => usize::MAX,
            _ => quanta[idx],
        };
        for &i in &n.inputs {
            let q = &mut quanta[i.index()];
            *q = (*q).max(ask);
        }
    }
    quanta
}

/// input (18×18×3) → conv → `k` stacked diamonds (`x → relu`,
/// `x → relu`, `add`) → conv: a graph with `2^k` non-base paths between
/// its two base layers, whose every set dependency is the direct
/// conv → conv chain's.
#[cfg(test)]
pub(crate) fn stacked_diamonds(k: usize) -> Graph {
    use cim_ir::{ActFn, Conv2dAttrs, Padding};

    let conv = Op::Conv2d(Conv2dAttrs {
        out_channels: 8,
        kernel: (3, 3),
        stride: (1, 1),
        padding: Padding::Valid,
        use_bias: false,
    });
    let mut g = Graph::new(format!("diamonds{k}"));
    let input = Op::Input {
        shape: FeatureShape::new(18, 18, 3),
    };
    let x = g.add("input", input, &[]).unwrap();
    let mut x = g.add("c1", conv.clone(), &[x]).unwrap(); // 16×16
    for i in 0..k {
        let relu = Op::Activation(ActFn::Relu);
        let a = g.add(format!("a{i}"), relu.clone(), &[x]).unwrap();
        let b = g.add(format!("b{i}"), relu, &[x]).unwrap();
        x = g.add(format!("add{i}"), Op::Add, &[a, b]).unwrap();
    }
    g.add("c2", conv, &[x]).unwrap(); // 14×14
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::CrossbarSpec;
    use cim_ir::{Conv2dAttrs, Padding, PoolAttrs};
    use cim_mapping::{layer_costs, MappingOptions};
    use proptest::prelude::*;

    /// The oracle: a recursive walk from one node over a consumer map,
    /// straight from the definition. It re-walks every downstream path,
    /// so it is exponential in stacked non-base diamonds.
    fn row_quantum_walk(graph: &Graph, consumers: &[Vec<NodeId>], node: NodeId) -> usize {
        let mut q = 1usize;
        for &c in &consumers[node.index()] {
            let here = match &graph.node(c).unwrap().op {
                Op::Conv2d(_) | Op::Dense(_) => 1,
                Op::MaxPool2d(a) | Op::AvgPool2d(a) => a
                    .stride
                    .0
                    .max(1)
                    .saturating_mul(row_quantum_walk(graph, consumers, c)),
                Op::GlobalAvgPool | Op::Flatten | Op::Softmax => usize::MAX,
                _ => row_quantum_walk(graph, consumers, c),
            };
            q = q.max(here);
        }
        q
    }

    /// `row_quanta` gives every node the oracle's quantum.
    fn assert_quanta_match_the_walk(g: &Graph) {
        let consumers = g.consumers();
        let quanta = row_quanta(g);
        for id in g.ids() {
            let walked = row_quantum_walk(g, &consumers, id);
            assert_eq!(quanta[id.index()], walked, "{} node {id}", g.name());
        }
    }

    #[test]
    fn quanta_match_the_walk_on_the_zoo() {
        use cim_frontend::{canonicalize, CanonOptions};
        use cim_mapping::{apply_duplication, min_pes, optimize, Solver};

        let xbar = CrossbarSpec::wan_nature_2022();
        for name in cim_models::model_names() {
            let raw = cim_models::graph_by_name(name).unwrap();
            assert_quanta_match_the_walk(&raw);
            let g = canonicalize(&raw, &CanonOptions::default())
                .unwrap()
                .into_graph();
            assert_quanta_match_the_walk(&g);
            // And on the graph Stage I sees under duplication: concat
            // trees of column and row bands.
            let costs = layer_costs(&g, &xbar, &MappingOptions::default()).unwrap();
            let plan = optimize(&costs, min_pes(&costs) + 64, Solver::Greedy).unwrap();
            assert_quanta_match_the_walk(&apply_duplication(&g, &costs, &plan).unwrap());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn quanta_match_the_walk_on_random_cnns(seed in 0u64..10_000, n in 1usize..12) {
            assert_quanta_match_the_walk(&cim_models::random_cnn(seed, n));
        }
    }

    /// Stacked diamonds cost the reverse pass one visit per node; the
    /// walk would take `2^40` steps here.
    #[test]
    fn stacked_diamonds_take_linear_time() {
        let g = stacked_diamonds(40);
        let layers = determine_sets(&g, &costs_of(&g), &SetPolicy::finest()).unwrap();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].quantum, 1);
        assert_eq!(layers[0].sets.len(), 16);
        assert!(row_quanta(&g).iter().all(|&q| q == 1));
    }

    fn conv_op(oc: usize, k: usize, st: usize) -> Op {
        Op::Conv2d(Conv2dAttrs {
            out_channels: oc,
            kernel: (k, k),
            stride: (st, st),
            padding: Padding::Valid,
            use_bias: false,
        })
    }

    fn pool_op(w: usize, st: usize) -> Op {
        Op::MaxPool2d(PoolAttrs {
            window: (w, w),
            stride: (st, st),
            padding: Padding::Valid,
        })
    }

    fn costs_of(g: &Graph) -> Vec<LayerCost> {
        layer_costs(
            g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap()
    }

    /// conv(12×12 OFM) → pool/2 → conv.
    fn conv_pool_conv() -> Graph {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(14, 14, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(8, 3, 1), &[x]).unwrap(); // 12×12
        let p = g.add("pool", pool_op(2, 2), &[c1]).unwrap(); // 6×6
        g.add("c2", conv_op(8, 3, 1), &[p]).unwrap(); // 4×4
        g
    }

    #[test]
    fn finest_policy_respects_pool_quantum() {
        let g = conv_pool_conv();
        let layers = determine_sets(&g, &costs_of(&g), &SetPolicy::finest()).unwrap();
        // c1 feeds a stride-2 pool → quantum 2 → 6 sets of 2 rows.
        assert_eq!(layers[0].quantum, 2);
        assert_eq!(layers[0].sets.len(), 6);
        assert_eq!(layers[0].sets[0].rect, Rect::new(0, 0, 1, 11));
        assert_eq!(layers[0].sets[0].duration, 2 * 12);
        // c2 has no consumers → quantum 1 → 4 single-row sets.
        assert_eq!(layers[1].quantum, 1);
        assert_eq!(layers[1].sets.len(), 4);
    }

    #[test]
    fn sets_partition_the_ofm() {
        let g = conv_pool_conv();
        for policy in [
            SetPolicy::finest(),
            SetPolicy::coarse(4),
            SetPolicy::coarse(1),
        ] {
            let layers = determine_sets(&g, &costs_of(&g), &policy).unwrap();
            for l in &layers {
                let area: usize = l.sets.iter().map(|s| s.rect.area()).sum();
                assert_eq!(area, l.ofm.hw(), "{} under {policy:?}", l.name);
                assert_eq!(l.total_cycles(), l.ofm.hw() as u64);
                // Contiguous, ordered, full-width bands.
                let mut y = 0;
                for s in &l.sets {
                    assert_eq!(s.rect.y0, y);
                    assert_eq!(s.rect.x0, 0);
                    assert_eq!(s.rect.x1, l.ofm.w - 1);
                    y = s.rect.y1 + 1;
                }
                assert_eq!(y, l.ofm.h);
            }
        }
    }

    #[test]
    fn coarse_policy_caps_set_count() {
        let g = conv_pool_conv();
        let layers = determine_sets(&g, &costs_of(&g), &SetPolicy::coarse(3)).unwrap();
        for l in &layers {
            assert!(l.sets.len() <= 3, "{} has {} sets", l.name, l.sets.len());
        }
        // Single-set policy = whole OFM at once (degenerates to no
        // cross-layer overlap within the layer).
        let single = determine_sets(&g, &costs_of(&g), &SetPolicy::coarse(1)).unwrap();
        for l in &single {
            assert_eq!(l.sets.len(), 1);
            assert_eq!(l.sets[0].duration, l.ofm.hw() as u64);
        }
    }

    #[test]
    fn stacked_pools_multiply_quantum() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(18, 18, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(8, 3, 1), &[x]).unwrap(); // 16×16
        let p1 = g.add("p1", pool_op(2, 2), &[c1]).unwrap(); // 8×8
        let p2 = g.add("p2", pool_op(2, 2), &[p1]).unwrap(); // 4×4
        g.add("c2", conv_op(8, 3, 1), &[p2]).unwrap();
        let layers = determine_sets(&g, &costs_of(&g), &SetPolicy::finest()).unwrap();
        assert_eq!(layers[0].quantum, 4, "two stacked stride-2 pools");
        assert_eq!(layers[0].sets.len(), 4);
    }

    #[test]
    fn global_consumer_forces_single_set() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(10, 10, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(8, 3, 1), &[x]).unwrap(); // 8×8
        let gap = g.add("gap", Op::GlobalAvgPool, &[c1]).unwrap();
        let f = g.add("flat", Op::Flatten, &[gap]).unwrap();
        g.add(
            "fc",
            Op::Dense(cim_ir::DenseAttrs {
                units: 10,
                use_bias: false,
            }),
            &[f],
        )
        .unwrap();
        let layers = determine_sets(&g, &costs_of(&g), &SetPolicy::finest()).unwrap();
        assert_eq!(layers[0].quantum, 8, "global pooling needs the whole OFM");
        assert_eq!(layers[0].sets.len(), 1);
        // The dense layer itself has a 1×1 OFM — one set of one cycle.
        assert_eq!(layers[1].sets.len(), 1);
        assert_eq!(layers[1].sets[0].duration, 1);
    }

    #[test]
    fn pool_before_global_consumer_saturates() {
        // conv → pool → flatten → dense: the global consumer's "whole OFM"
        // requirement must survive the pooling-stride multiplication
        // without overflowing (regression test).
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(10, 10, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(8, 3, 1), &[x]).unwrap(); // 8×8
        let p = g.add("p", pool_op(2, 2), &[c1]).unwrap(); // 4×4
        let f = g.add("flat", Op::Flatten, &[p]).unwrap();
        g.add(
            "fc",
            Op::Dense(cim_ir::DenseAttrs {
                units: 4,
                use_bias: false,
            }),
            &[f],
        )
        .unwrap();
        let layers = determine_sets(&g, &costs_of(&g), &SetPolicy::finest()).unwrap();
        assert_eq!(layers[0].quantum, 8, "clamped to the OFM height");
        assert_eq!(layers[0].sets.len(), 1);
    }

    #[test]
    fn stride1_pool_does_not_constrain() {
        // TinyYOLOv3's 2×2/1 pool: window 2 but stride 1 → quantum 1.
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(15, 15, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(8, 3, 1), &[x]).unwrap(); // 13×13
        let p = g.add("p", pool_op(2, 1), &[c1]).unwrap(); // 12×12
        g.add("c2", conv_op(8, 3, 1), &[p]).unwrap();
        let layers = determine_sets(&g, &costs_of(&g), &SetPolicy::finest()).unwrap();
        assert_eq!(layers[0].quantum, 1);
        assert_eq!(layers[0].sets.len(), 13);
    }

    #[test]
    fn zero_policy_rejected() {
        let g = conv_pool_conv();
        assert!(matches!(
            determine_sets(&g, &costs_of(&g), &SetPolicy::coarse(0)),
            Err(CoreError::BadPolicy { .. })
        ));
    }

    #[test]
    fn stale_costs_rejected() {
        let g = conv_pool_conv();
        let mut costs = costs_of(&g);
        costs[0].ofm = FeatureShape::new(1, 1, 1);
        assert!(matches!(
            determine_sets(&g, &costs, &SetPolicy::finest()),
            Err(CoreError::StageMismatch { .. })
        ));
    }

    #[test]
    fn ragged_last_band() {
        // 13-row OFM with quantum 2 → 7 sets, last band one row.
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(15, 15, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(8, 3, 1), &[x]).unwrap(); // 13×13
        let p = g.add("p", pool_op(2, 2), &[c1]).unwrap(); // 6×6
        g.add("c2", conv_op(4, 3, 1), &[p]).unwrap();
        let layers = determine_sets(&g, &costs_of(&g), &SetPolicy::finest()).unwrap();
        assert_eq!(layers[0].quantum, 2);
        assert_eq!(layers[0].sets.len(), 7);
        let last = layers[0].sets.last().unwrap();
        assert_eq!(last.rect.height(), 1);
        assert_eq!(last.duration, 13);
    }
}
