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
//!
//! A layer's sets follow from its OFM shape and one number, the rows per
//! set, so they are not stored: [`SetBands`] computes each set, its
//! duration, and the sets a rectangle meets (two divisions) on demand, and
//! Stage I does constant work per layer after the row-quantum pass. The
//! serde format still lists every set as `{rect, duration}`.

use std::ops::Range;

use cim_ir::{FeatureShape, Graph, NodeId, Op, Rect};
use cim_mapping::LayerCost;
use serde::{Deserialize, Serialize, Value};

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

/// A layer's sets: its OFM cut into full-width row bands of
/// `rows_per_set` rows from the top, the last band possibly shorter.
///
/// Three numbers determine every band, so the sets are computed on
/// demand: [`get`](Self::get) builds set `i` as an [`OfmSet`],
/// [`duration`](Self::duration) gives its cycles without building a
/// rectangle ([`durations`](Self::durations) all of them, for a loop over
/// the layer), and [`meeting`](Self::meeting) finds the sets a rectangle
/// meets with two divisions. [`new`](Self::new) is the one constructor.
/// It keeps `rows_per_set` at least 1, and at most the row count, so two
/// values compare equal exactly when they list the same sets, and it
/// counts the sets once, so that [`len`](Self::len) and the per-set reads
/// divide nothing.
///
/// Serialized, the bands are the `{rect, duration}` array they list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetBands {
    /// OFM rows.
    rows: usize,
    /// OFM columns; every band spans all of them.
    width: usize,
    /// Rows per band; the last band may have fewer.
    rows_per_set: usize,
    /// Number of bands: `rows` divided by `rows_per_set`, rounded up.
    len: usize,
}

impl SetBands {
    /// The bands of `rows_per_set` rows over a `rows × width` OFM. A band
    /// taller than the OFM is the whole OFM.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_set` is zero, if `width` is zero while `rows` is
    /// not, or if the OFM area overflows a `usize`.
    pub fn new(rows: usize, width: usize, rows_per_set: usize) -> Self {
        assert!(rows_per_set >= 1, "bands need at least one row each");
        assert!(rows == 0 || width >= 1, "a band needs at least one column");
        assert!(rows.checked_mul(width).is_some(), "the OFM area overflows");
        let rows_per_set = rows_per_set.min(rows.max(1));
        Self {
            rows,
            width,
            rows_per_set,
            len: rows.div_ceil(rows_per_set),
        }
    }

    /// Number of sets.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the OFM has no rows, and so no sets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Rows per set; the last set may have fewer.
    #[inline]
    pub fn rows_per_set(&self) -> usize {
        self.rows_per_set
    }

    /// Set `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`len`](Self::len).
    #[inline]
    pub fn get(&self, i: usize) -> OfmSet {
        let (y0, rows) = self.band(i);
        OfmSet {
            rect: Rect {
                y0,
                x0: 0,
                y1: y0 + rows - 1,
                x1: self.width - 1,
            },
            duration: (rows * self.width) as u64,
        }
    }

    /// Cycles of set `i`: its area.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`len`](Self::len).
    #[inline]
    pub fn duration(&self, i: usize) -> u64 {
        let (_, rows) = self.band(i);
        (rows * self.width) as u64
    }

    /// Every set's duration, top band first: [`duration`](Self::duration)
    /// for a loop over the whole layer, without a bounds check or a
    /// multiplication per set.
    pub fn durations(&self) -> impl ExactSizeIterator<Item = u64> {
        let n = self.len();
        let full = (self.rows_per_set * self.width) as u64;
        let last = n.checked_sub(1).map_or(0, |i| self.duration(i));
        (0..n).map(move |i| if i + 1 == n { last } else { full })
    }

    /// The sets, top band first.
    pub fn iter(&self) -> SetIter {
        SetIter {
            bands: *self,
            next: 0..self.len(),
        }
    }

    /// Total cycles of every set: the OFM area.
    #[inline]
    pub fn total_cycles(&self) -> u64 {
        (self.rows * self.width) as u64
    }

    /// The first and last index of the sets `rect` meets, or `None` when
    /// it starts below the last row or right of the last column.
    #[inline]
    pub fn meeting(&self, rect: &Rect) -> Option<(usize, usize)> {
        if rect.y0 >= self.rows || rect.x0 >= self.width {
            return None;
        }
        let last_row = rect.y1.min(self.rows - 1);
        Some((rect.y0 / self.rows_per_set, last_row / self.rows_per_set))
    }

    /// The first row and the row count of set `i`.
    #[inline]
    fn band(&self, i: usize) -> (usize, usize) {
        assert!(i < self.len, "set {i} out of range for {} sets", self.len);
        // `(len - 1) * rows_per_set < rows`, so this cannot overflow.
        let y0 = i * self.rows_per_set;
        (y0, self.rows_per_set.min(self.rows - y0))
    }

    /// The bands `sets` lists in order over a `rows × width` OFM, or the
    /// index of the first set that differs from them: the first missing
    /// or extra one when only the count differs.
    fn listed(sets: &[OfmSet], rows: usize, width: usize) -> std::result::Result<Self, usize> {
        let rows_per_set = match sets.first() {
            Some(s) if s.rect.y0 == 0 => s.rect.y1.saturating_add(1),
            Some(_) => return Err(0),
            None => 1,
        };
        if rows > 0 && width == 0 || rows.checked_mul(width).is_none() {
            return Err(0);
        }
        let bands = Self::new(rows, width, rows_per_set);
        if let Some(i) = sets.iter().zip(bands.iter()).position(|(s, b)| *s != b) {
            return Err(i);
        }
        if sets.len() != bands.len() {
            return Err(sets.len().min(bands.len()));
        }
        Ok(bands)
    }
}

impl IntoIterator for &SetBands {
    type Item = OfmSet;
    type IntoIter = SetIter;

    fn into_iter(self) -> SetIter {
        self.iter()
    }
}

/// Collects a list of row bands, checked against the bands of the OFM it
/// spans: as many rows as its last set reaches, as wide as its first set.
///
/// # Panics
///
/// Panics if the sets are not exactly those bands (see [`SetBands`]).
impl FromIterator<OfmSet> for SetBands {
    fn from_iter<I: IntoIterator<Item = OfmSet>>(iter: I) -> Self {
        let sets: Vec<OfmSet> = iter.into_iter().collect();
        let (rows, width) = match (sets.first(), sets.last()) {
            (Some(first), Some(last)) => (last.rect.y1 + 1, first.rect.x1 + 1),
            _ => (0, 0),
        };
        Self::listed(&sets, rows, width)
            .unwrap_or_else(|i| panic!("set {i} of {} is not a full-width row band", sets.len()))
    }
}

impl Serialize for SetBands {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(|s| s.to_value()).collect())
    }
}

/// The sets of a [`SetBands`], top band first.
#[derive(Debug, Clone)]
pub struct SetIter {
    bands: SetBands,
    next: Range<usize>,
}

impl Iterator for SetIter {
    type Item = OfmSet;

    #[inline]
    fn next(&mut self) -> Option<OfmSet> {
        self.next.next().map(|i| self.bands.get(i))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.next.size_hint()
    }
}

impl ExactSizeIterator for SetIter {}

/// All sets of one base layer, in Stage-III execution order (top to bottom).
///
/// The serde format lists every set as `{rect, duration}` under `sets`.
/// Deserializing accepts only what Stage I emits there: the layer's OFM in
/// full-width bands of one row count from the top, the last band possibly
/// shorter, each lasting its area. Any other list is an error that names
/// the layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
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
    pub sets: SetBands,
}

impl LayerSets {
    /// Total cycles to execute every set back-to-back (`t_OFM`): the OFM
    /// area its bands cover.
    pub fn total_cycles(&self) -> u64 {
        self.sets.total_cycles()
    }
}

/// The serde form of [`LayerSets`], with its sets listed.
mod wire {
    use super::{FeatureShape, NodeId, OfmSet};
    use serde::Deserialize;

    #[derive(Deserialize)]
    pub(super) struct LayerSets {
        pub node: NodeId,
        pub name: String,
        pub logical: u32,
        pub ofm: FeatureShape,
        pub pes: usize,
        pub quantum: usize,
        pub sets: Vec<OfmSet>,
    }
}

impl Deserialize for LayerSets {
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        let w = wire::LayerSets::from_value(v)?;
        let sets = SetBands::listed(&w.sets, w.ofm.h, w.ofm.w).map_err(|i| {
            serde::Error::custom(format!(
                "LayerSets `{}`: set {i} of {} is not a full-width row band of its {} OFM",
                w.name,
                w.sets.len(),
                w.ofm
            ))
        })?;
        Ok(Self {
            node: w.node,
            name: w.name,
            logical: w.logical,
            ofm: w.ofm,
            pes: w.pes,
            quantum: w.quantum,
            sets,
        })
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
        out.push(LayerSets {
            node: cost.node,
            name: cost.name.clone(),
            logical: node.logical_layer.unwrap_or(node.id.0),
            ofm,
            pes: cost.pes,
            quantum,
            sets: SetBands::new(ofm.h, ofm.w, rows_per_set(ofm.h, quantum, policy)),
        });
    }
    Ok(out)
}

/// Rows per set of an OFM `rows` high with row quantum `quantum`: one
/// quantum under the finest policy, else as few whole quanta per set as
/// keep the set count within the policy's cap.
fn rows_per_set(rows: usize, quantum: usize, policy: &SetPolicy) -> usize {
    let quanta_per_set = match policy.max_sets_per_layer {
        Some(max) => rows.div_ceil(quantum).div_ceil(max),
        None => 1,
    };
    (quantum * quanta_per_set).max(1)
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
    stacked(k, &Op::Activation(cim_ir::ActFn::Relu), true)
}

/// [`stacked_diamonds`] with 3×3/1 `same`-padded max pools in place of
/// the ReLUs (`diamond`), or the same graph with each diamond replaced by
/// one such pool (`!diamond`).
#[cfg(test)]
pub(crate) fn stacked_pools(k: usize, diamond: bool) -> Graph {
    let pool = Op::MaxPool2d(cim_ir::PoolAttrs {
        window: (3, 3),
        stride: (1, 1),
        padding: cim_ir::Padding::Same,
    });
    stacked(k, &pool, diamond)
}

/// input (18×18×3) → conv → `k` stages of `op` → conv, each stage one
/// `op` or a diamond of two joined by an `add`. `op` keeps the 16×16
/// shape.
#[cfg(test)]
fn stacked(k: usize, op: &Op, diamond: bool) -> Graph {
    use cim_ir::{Conv2dAttrs, Padding};

    let conv = Op::Conv2d(Conv2dAttrs {
        out_channels: 8,
        kernel: (3, 3),
        stride: (1, 1),
        padding: Padding::Valid,
        use_bias: false,
    });
    let mut g = Graph::new(format!("stacked{k}"));
    let input = Op::Input {
        shape: FeatureShape::new(18, 18, 3),
    };
    let x = g.add("input", input, &[]).unwrap();
    let mut x = g.add("c1", conv.clone(), &[x]).unwrap(); // 16×16
    for i in 0..k {
        let a = g.add(format!("a{i}"), op.clone(), &[x]).unwrap();
        x = if diamond {
            let b = g.add(format!("b{i}"), op.clone(), &[x]).unwrap();
            g.add(format!("add{i}"), Op::Add, &[a, b]).unwrap()
        } else {
            a
        };
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
        assert_eq!(layers[0].sets.get(0).rect, Rect::new(0, 0, 1, 11));
        assert_eq!(layers[0].sets.duration(0), 2 * 12);
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
            assert_eq!(l.sets.duration(0), l.ofm.hw() as u64);
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
        assert_eq!(layers[1].sets.duration(0), 1);
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
        let last = layers[0].sets.get(6);
        assert_eq!(last.rect.height(), 1);
        assert_eq!(last.duration, 13);
    }

    /// Stage I's per-set loop from before its sets were computed, kept as
    /// the oracle for [`SetBands`]: the bands of `rows_per_set` rows over
    /// `ofm`, built and stored one by one.
    fn materialized(ofm: FeatureShape, rows_per_set: usize) -> Vec<OfmSet> {
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
        sets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random OFM shapes, row quanta and policies (`max == 0` is
        /// the finest), the bands list the materialized loop's sets, with
        /// the rows per set it was given: set by set, duration by
        /// duration, in total and in serde bytes. A layer of them
        /// round-trips through its bytes.
        #[test]
        fn bands_match_the_materialized_loop(
            h in 1usize..40,
            w in 1usize..12,
            q in 1usize..50,
            max in 0usize..10,
        ) {
            let policy = match max {
                0 => SetPolicy::finest(),
                n => SetPolicy::coarse(n),
            };
            let quantum = q.min(h);
            let quanta_per_set = policy.max_sets_per_layer.map_or(1, |m| h.div_ceil(quantum).div_ceil(m));
            let ofm = FeatureShape::new(h, w, 3);
            let oracle = materialized(ofm, quantum * quanta_per_set);
            let bands = SetBands::new(h, w, rows_per_set(h, quantum, &policy));

            prop_assert_eq!(bands.len(), oracle.len());
            prop_assert!(!bands.is_empty());
            prop_assert_eq!(bands.iter().len(), oracle.len());
            prop_assert_eq!(&bands.iter().collect::<Vec<_>>(), &oracle);
            for (i, set) in oracle.iter().enumerate() {
                prop_assert_eq!(bands.get(i), *set);
                prop_assert_eq!(bands.duration(i), set.duration);
            }
            prop_assert_eq!(bands.durations().len(), oracle.len());
            prop_assert_eq!(
                bands.durations().collect::<Vec<_>>(),
                oracle.iter().map(|s| s.duration).collect::<Vec<_>>()
            );
            prop_assert_eq!(bands.total_cycles(), oracle.iter().map(|s| s.duration).sum::<u64>());
            prop_assert_eq!(oracle.iter().copied().collect::<SetBands>(), bands);
            prop_assert_eq!(serde_json::to_string(&bands).unwrap(), serde_json::to_string(&oracle).unwrap());

            let layer = LayerSets {
                node: NodeId(3),
                name: "conv".into(),
                logical: 3,
                ofm,
                pes: 2,
                quantum,
                sets: bands,
            };
            let json = serde_json::to_string(&layer).unwrap();
            prop_assert_eq!(serde_json::from_str::<LayerSets>(&json).unwrap(), layer);
        }

        /// `meeting` finds exactly the sets a rectangle intersects, also
        /// for rectangles that start below the last row or right of the
        /// last column.
        #[test]
        fn meeting_matches_rect_intersection(
            h in 1usize..30,
            w in 1usize..8,
            rows_per_set in 1usize..12,
            y0 in 0usize..36,
            dy in 0usize..12,
            x0 in 0usize..10,
            dx in 0usize..4,
        ) {
            let rect = Rect::new(y0, x0, y0 + dy, x0 + dx);
            let oracle: Vec<usize> = materialized(FeatureShape::new(h, w, 1), rows_per_set)
                .iter()
                .enumerate()
                .filter(|(_, s)| s.rect.intersects(&rect))
                .map(|(i, _)| i)
                .collect();
            let found: Vec<usize> = SetBands::new(h, w, rows_per_set)
                .meeting(&rect)
                .map_or(Vec::new(), |(first, last)| (first..=last).collect());
            prop_assert_eq!(found, oracle);
        }
    }

    /// A rectangle past the last row meets no set, also where the last
    /// band is short, so that its first row still divides to that band's
    /// index; nor does one right of the last column.
    #[test]
    fn a_rect_past_the_ofm_meets_no_set() {
        // 13 rows in bands of 4: the last band is row 12 alone.
        let bands = SetBands::new(13, 5, 4);
        assert_eq!(bands.len(), 4);
        assert_eq!(bands.meeting(&Rect::new(12, 0, 20, 4)), Some((3, 3)));
        assert_eq!(13 / 4, bands.len() - 1);
        assert_eq!(bands.meeting(&Rect::new(13, 0, 15, 4)), None);
        assert_eq!(bands.meeting(&Rect::new(16, 0, 16, 0)), None);
        assert_eq!(bands.meeting(&Rect::new(0, 5, 12, 9)), None);
        assert_eq!(bands.meeting(&Rect::new(0, 4, 12, 9)), Some((0, 3)));
    }

    /// Equal sets are equal bands: a band taller than the OFM is the
    /// whole OFM, whatever height was asked for.
    #[test]
    fn bands_taller_than_the_ofm_are_one_set() {
        assert_eq!(SetBands::new(13, 4, 14), SetBands::new(13, 4, 13));
        assert_eq!(SetBands::new(13, 4, 14).rows_per_set(), 13);
        assert_eq!(SetBands::new(13, 4, 14).len(), 1);
        assert_ne!(SetBands::new(13, 4, 12), SetBands::new(13, 4, 13));
    }

    #[test]
    #[should_panic(expected = "set 4 out of range for 4 sets")]
    fn a_set_past_the_end_panics() {
        SetBands::new(13, 5, 4).duration(4);
    }

    /// Deserializing takes only the bands Stage I emits over the layer's
    /// OFM; any other list is a serde error naming the layer and the first
    /// set that differs.
    #[test]
    fn deserializing_sets_that_are_not_its_bands_fails() {
        let g = conv_pool_conv();
        let layers = determine_sets(&g, &costs_of(&g), &SetPolicy::finest()).unwrap();
        let c1 = &layers[0]; // 12×12 in six bands of two rows.
        let band = |y0: usize, y1: usize| OfmSet {
            rect: Rect::new(y0, 0, y1, 11),
            duration: 12 * (y1 - y0 + 1) as u64,
        };
        let split = |y0: usize, y1: usize, x0: usize, x1: usize| OfmSet {
            rect: Rect::new(y0, x0, y1, x1),
            duration: ((y1 - y0 + 1) * (x1 - x0 + 1)) as u64,
        };
        let bands: Vec<OfmSet> = (0..6).map(|i| band(2 * i, 2 * i + 1)).collect();
        let mut wrong_duration = bands.clone();
        wrong_duration[2].duration += 1;
        let cases: [(&str, Vec<OfmSet>, usize); 7] = [
            ("reversed", bands.iter().rev().copied().collect(), 0),
            (
                "overlapping",
                vec![band(0, 3), band(2, 5), band(4, 7), band(6, 9), band(8, 11)],
                1,
            ),
            (
                "column-split",
                vec![split(0, 5, 0, 5), split(0, 5, 6, 11), split(6, 11, 0, 11)],
                0,
            ),
            ("wrong-duration", wrong_duration, 2),
            ("short", bands[..5].to_vec(), 5),
            ("past the OFM", [&bands[..], &[band(12, 13)]].concat(), 6),
            ("uneven", vec![band(0, 1), band(2, 4), band(5, 11)], 1),
        ];
        let serialized = c1.to_value();
        for (what, sets, first_bad) in cases {
            let Value::Map(mut fields) = serialized.clone() else {
                panic!("a layer serializes to a map");
            };
            for (key, value) in &mut fields {
                if key == "sets" {
                    *value = sets.to_value();
                }
            }
            let err = LayerSets::from_value(&Value::Map(fields)).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "serde error: LayerSets `c1`: set {first_bad} of {} is not a full-width \
                     row band of its (12, 12, 8) OFM",
                    sets.len()
                ),
                "{what}"
            );
        }
        // The bands themselves deserialize to the layer.
        let json = serde_json::to_string(c1).unwrap();
        assert_eq!(&serde_json::from_str::<LayerSets>(&json).unwrap(), c1);
    }

    #[test]
    #[should_panic(expected = "set 1 of 2 is not a full-width row band")]
    fn collecting_sets_that_are_not_bands_panics() {
        let sets = [
            OfmSet {
                rect: Rect::new(0, 0, 1, 3),
                duration: 8,
            },
            OfmSet {
                rect: Rect::new(2, 0, 2, 2),
                duration: 3,
            },
        ];
        let _: SetBands = sets.into_iter().collect();
    }
}
