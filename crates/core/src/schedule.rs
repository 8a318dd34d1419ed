//! Stages III & IV — intra-layer ordering and cross-layer scheduling
//! (Sec. IV-3/4 of the paper, Fig. 5c), plus the layer-by-layer baseline
//! (Sec. II-B).
//!
//! **Stage III** fixes the execution order of each layer's sets: the single
//! PE group holding the layer's weights processes its sets serially, top
//! band first (the orange *resource dependencies* of Fig. 5b).
//!
//! **Stage IV** then "ascertains the earliest feasible starting point for
//! computing each OFM set": a set starts once (a) its PE group has finished
//! the previous set of the same layer and (b) every producer set it depends
//! on (Stage II) has finished — optionally plus a NoC forwarding delay when
//! the data-movement extension is enabled. Because both the layer list and
//! each dependency point backwards in topological order, one forward sweep
//! computes the longest path exactly.
//!
//! The sweep runs on flat arenas: schedules store one contiguous
//! `Vec<SetTime>` sliced by the global [`SetSpace`], and
//! all per-edge latencies come precomputed from a
//! [`CostedDeps`] table — the `*_costed` entry points
//! accept a prebuilt table so batch sweeps never recompute edge costs.
//!
//! The **layer-by-layer baseline** runs logical layers strictly one after
//! another (only one layer's PEs active at a time); duplicates created by
//! weight duplication share a logical id and run concurrently within their
//! layer's slot — reproducing the `wdup` configuration of the evaluation.

use cim_arch::{Architecture, Placement};
use serde::{Deserialize, Serialize, Value};

use crate::cost::CostedDeps;
use crate::deps::Dependencies;
use crate::error::{CoreError, Result};
use crate::sets::LayerSets;
use crate::space::SetSpace;

/// Start/finish times of one scheduled set, in crossbar cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetTime {
    /// First cycle of execution.
    pub start: u64,
    /// One past the last cycle (`finish - start == duration`).
    pub finish: u64,
}

/// Cost model for cross-layer data-dependency edges.
#[derive(Debug, Clone, Default)]
pub enum EdgeCost {
    /// The paper's peak-performance assumption: forwarding partial results
    /// is free (Sec. V: "the costs associated with data movement have not
    /// been differentiated yet").
    #[default]
    Free,
    /// The Sec. V-C future-work extension: an edge from layer `p` to layer
    /// `c` costs the XY-routed hop count between their home tiles times the
    /// NoC hop latency.
    NocHops {
        /// The architecture providing the NoC geometry and hop latency.
        arch: Architecture,
        /// Placement of the PE groups, in the same layer order as Stage I.
        placement: Placement,
    },
    /// NoC hops plus GPEU processing: the forwarded set (one byte per OFM
    /// element) must additionally be chewed through the consumer tile's
    /// general-purpose execution unit (the non-base-layer work the paper's
    /// peak model treats as free).
    NocAndGpeu {
        /// The architecture providing NoC geometry and GPEU throughput.
        arch: Architecture,
        /// Placement of the PE groups, in the same layer order as Stage I.
        placement: Placement,
    },
}

impl EdgeCost {
    /// Latency in cycles added to a data dependency from layer `p` to
    /// layer `c` (indices in Stage-I order), forwarding `bytes` bytes of
    /// producer-set data.
    ///
    /// Hot paths should not call this per edge: build a
    /// [`CostedDeps`] once instead and read the
    /// precomputed tables.
    ///
    /// # Errors
    ///
    /// Propagates architecture errors when the placement and architecture
    /// disagree.
    pub fn cycles(&self, p: usize, c: usize, bytes: u64) -> Result<u64> {
        match self {
            EdgeCost::Free => Ok(0),
            EdgeCost::NocHops { arch, placement } => {
                let hops = placement.hops_between(arch, p, c)?;
                Ok(hops as u64 * arch.noc().hop_latency_cycles)
            }
            EdgeCost::NocAndGpeu { arch, placement } => {
                let hops = placement.hops_between(arch, p, c)?;
                let gpeu = bytes.div_ceil(arch.tile().gpeu_ops_per_cycle as u64);
                Ok(hops as u64 * arch.noc().hop_latency_cycles + gpeu)
            }
        }
    }
}

/// A complete schedule: per layer, per set, start and finish times.
///
/// Stored as one flat `Vec<SetTime>` arena sliced by a [`SetSpace`] —
/// a single allocation per schedule regardless of layer count. The serde
/// wire format is unchanged from the pre-arena representation (a nested
/// `times` array plus `makespan`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The `(layer, set) → usize` space slicing the arena.
    space: SetSpace,
    /// All execution windows, layers concatenated in order.
    arena: Vec<SetTime>,
    /// Total makespan in cycles (`t_NN` in Eq. 2).
    pub makespan: u64,
}

impl Schedule {
    /// Assembles a schedule from a flat arena covering `space`.
    ///
    /// # Panics
    ///
    /// Panics if `arena.len() != space.total_sets()`.
    pub fn from_arena(space: SetSpace, arena: Vec<SetTime>, makespan: u64) -> Self {
        assert_eq!(
            arena.len(),
            space.total_sets(),
            "arena length must match the set space"
        );
        Self {
            space,
            arena,
            makespan,
        }
    }

    /// Assembles a schedule from the legacy nested per-layer shape — for
    /// tests and external tooling constructing schedules by hand.
    pub fn from_nested(times: Vec<Vec<SetTime>>, makespan: u64) -> Self {
        let counts: Vec<usize> = times.iter().map(Vec::len).collect();
        let space = SetSpace::from_counts(&counts);
        let arena: Vec<SetTime> = times.into_iter().flatten().collect();
        Self {
            space,
            arena,
            makespan,
        }
    }

    /// The nested per-layer shape (allocates; prefer [`layer`](Self::layer)
    /// or [`iter_layers`](Self::iter_layers) on hot paths).
    pub fn to_nested(&self) -> Vec<Vec<SetTime>> {
        (0..self.num_layers())
            .map(|l| self.layer(l).to_vec())
            .collect()
    }

    /// The execution windows of layer `l`, in set order.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[inline]
    pub fn layer(&self, l: usize) -> &[SetTime] {
        &self.arena[self.space.layer_range(l)]
    }

    /// The window of set `s` of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn time(&self, l: usize, s: usize) -> SetTime {
        self.arena[self.space.index(l, s)]
    }

    /// Mutable access to one window.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn time_mut(&mut self, l: usize, s: usize) -> &mut SetTime {
        &mut self.arena[self.space.index(l, s)]
    }

    /// Iterates the layers as window slices, in layer order.
    pub fn iter_layers(&self) -> impl ExactSizeIterator<Item = &[SetTime]> + '_ {
        (0..self.num_layers()).map(|l| self.layer(l))
    }

    /// The space slicing the arena.
    pub fn space(&self) -> &SetSpace {
        &self.space
    }

    /// The raw flat arena (layers concatenated in order).
    pub fn arena(&self) -> &[SetTime] {
        &self.arena
    }

    /// Active cycles of layer `l`'s PE group (the sum of its set durations).
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn active_cycles(&self, l: usize) -> u64 {
        self.layer(l).iter().map(|t| t.finish - t.start).sum()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.space.num_layers()
    }
}

// Wire format compatibility: schedules serialize as the nested `times`
// array plus `makespan`, exactly as the pre-arena `Vec<Vec<SetTime>>`
// representation did.
impl Serialize for Schedule {
    fn to_value(&self) -> Value {
        let times: Vec<Value> = self
            .iter_layers()
            .map(|lt| Value::Seq(lt.iter().map(|t| t.to_value()).collect()))
            .collect();
        Value::Map(vec![
            ("times".to_string(), Value::Seq(times)),
            ("makespan".to_string(), self.makespan.to_value()),
        ])
    }
}

impl Deserialize for Schedule {
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        let entries = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("Schedule: expected a map"))?;
        let times = Value::map_get(entries, "times")
            .ok_or_else(|| serde::Error::custom("Schedule: missing `times`"))?;
        let makespan = Value::map_get(entries, "makespan")
            .ok_or_else(|| serde::Error::custom("Schedule: missing `makespan`"))?;
        let nested: Vec<Vec<SetTime>> = Deserialize::from_value(times)?;
        Ok(Self::from_nested(nested, Deserialize::from_value(makespan)?))
    }
}

/// Runs Stage IV: the CLSA-CIM cross-layer schedule.
///
/// `layers` and `deps` are the Stage I/II outputs; `edge_cost` selects the
/// data-movement model. The edge costs are precomputed once (see
/// [`CostedDeps`]); callers scheduling the same `(mapping, EdgeCost)` pair
/// repeatedly should build the table themselves and call
/// [`cross_layer_schedule_costed`].
///
/// # Errors
///
/// Returns [`CoreError::StageMismatch`] when the stage outputs disagree and
/// propagates edge-cost errors.
///
/// # Examples
///
/// ```
/// use cim_arch::CrossbarSpec;
/// use cim_ir::{Conv2dAttrs, FeatureShape, Graph, Op, Padding};
/// use cim_mapping::{layer_costs, MappingOptions};
/// use clsa_core::{cross_layer_schedule, determine_dependencies, determine_sets, EdgeCost, SetPolicy};
///
/// # fn main() -> Result<(), clsa_core::CoreError> {
/// let mut g = Graph::new("t");
/// let x = g.add("input", Op::Input { shape: FeatureShape::new(10, 10, 3) }, &[])?;
/// let c1 = g.add("c1", Op::Conv2d(Conv2dAttrs {
///     out_channels: 8, kernel: (3, 3), stride: (1, 1),
///     padding: Padding::Valid, use_bias: false,
/// }), &[x])?;
/// g.add("c2", Op::Conv2d(Conv2dAttrs {
///     out_channels: 8, kernel: (3, 3), stride: (1, 1),
///     padding: Padding::Valid, use_bias: false,
/// }), &[c1])?;
/// let costs = layer_costs(&g, &CrossbarSpec::wan_nature_2022(), &MappingOptions::default())?;
/// let layers = determine_sets(&g, &costs, &SetPolicy::finest())?;
/// let deps = determine_dependencies(&g, &layers)?;
/// let schedule = cross_layer_schedule(&layers, &deps, &EdgeCost::Free)?;
/// // c2 overlaps c1 instead of waiting for it.
/// assert!(schedule.makespan < 64 + 36);
/// # Ok(())
/// # }
/// ```
pub fn cross_layer_schedule(
    layers: &[LayerSets],
    deps: &Dependencies,
    edge_cost: &EdgeCost,
) -> Result<Schedule> {
    check_layer_count(layers, deps)?;
    // Freshly built from `deps` — no need to re-verify the table matches.
    let costed = CostedDeps::build(layers, deps, edge_cost)?;
    deps.ensure_backward()?;
    Ok(sweep_single(layers, &costed))
}

/// [`cross_layer_schedule`] on a prebuilt [`CostedDeps`] table: the hot
/// path for repeated scheduling of one `(mapping, EdgeCost)` pair.
///
/// # Errors
///
/// Returns [`CoreError::StageMismatch`] when the stage outputs disagree
/// (including dependencies that are not topologically backward).
pub fn cross_layer_schedule_costed(
    layers: &[LayerSets],
    deps: &Dependencies,
    costed: &CostedDeps,
) -> Result<Schedule> {
    check_shapes(layers, deps, costed)?;
    deps.ensure_backward()?;
    Ok(sweep_single(layers, costed))
}

/// The Stage IV longest-path sweep. Precondition (upheld by every public
/// caller): `costed` covers `layers` and its edges all point backward.
fn sweep_single(layers: &[LayerSets], costed: &CostedDeps) -> Schedule {
    let space = costed.space().clone();
    let mut arena: Vec<SetTime> = Vec::with_capacity(space.total_sets());
    let mut makespan = 0u64;
    for layer in layers {
        let mut group_free = 0u64; // Stage III: the group runs its sets serially.
        for duration in layer.sets.durations() {
            let mut start = group_free;
            // The set's global index is the next arena slot.
            let (producers, latencies) = costed.incoming(arena.len());
            for (&p, &lat) in producers.iter().zip(latencies) {
                // Backward edges only (see precondition): `p` lies below
                // the set's own index, already scheduled.
                let arrive = arena[p as usize].finish + lat;
                start = start.max(arrive);
            }
            let finish = start + duration;
            group_free = finish;
            makespan = makespan.max(finish);
            arena.push(SetTime { start, finish });
        }
    }
    Schedule::from_arena(space, arena, makespan)
}

/// Bytes of one producer set: one byte per OFM element (8-bit activations).
pub fn set_bytes(layer: &LayerSets, set: usize) -> u64 {
    (layer.sets.get(set).rect.area() * layer.ofm.c) as u64
}

/// A batched schedule: `batch` back-to-back inferences pipelined through
/// the same weight-stationary groups.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchedSchedule {
    /// Per inference instance, the full schedule (same shape as a
    /// single-inference [`Schedule`]).
    pub instances: Vec<Schedule>,
    /// Total makespan over all instances.
    pub makespan: u64,
}

impl BatchedSchedule {
    /// Steady-state throughput: cycles between consecutive inference
    /// completions, averaged over the batch.
    pub fn cycles_per_inference(&self) -> f64 {
        self.makespan as f64 / self.instances.len() as f64
    }
}

/// Extension beyond the paper: schedules `batch` consecutive inferences
/// with CLSA-CIM. Because weights are stationary, a PE group can start
/// instance `b+1`'s sets as soon as it finishes its own instance-`b` work —
/// the inter-instance constraint is purely the group chain, and data
/// dependencies stay within an instance.
///
/// The paper observes that single-inference utilization "usually remains
/// below 10 %"; pipelining inferences removes the fill/drain bubbles and
/// drives utilization toward the structural limit (the busiest group's
/// share of the work).
///
/// Edge costs are precomputed **once** for the whole batch (they are
/// invariant across instances); the former implementation recomputed them
/// per edge per instance — `O(batch × edges)` cost-model calls.
///
/// # Errors
///
/// Same conditions as [`cross_layer_schedule`], plus an error for a zero
/// batch size.
pub fn batched_cross_layer_schedule(
    layers: &[LayerSets],
    deps: &Dependencies,
    edge_cost: &EdgeCost,
    batch: usize,
) -> Result<BatchedSchedule> {
    check_batch(batch)?;
    check_layer_count(layers, deps)?;
    // Freshly built from `deps` — no need to re-verify the table matches.
    let costed = CostedDeps::build(layers, deps, edge_cost)?;
    deps.ensure_backward()?;
    Ok(sweep_batched(layers, &costed, batch))
}

/// [`batched_cross_layer_schedule`] on a prebuilt [`CostedDeps`] table.
///
/// The topological check runs once per call — not once per batch
/// instance — and the inner loop consumes only precomputed `u64` weights.
///
/// # Errors
///
/// Same conditions as [`cross_layer_schedule_costed`], plus an error for a
/// zero batch size.
pub fn batched_cross_layer_schedule_costed(
    layers: &[LayerSets],
    deps: &Dependencies,
    costed: &CostedDeps,
    batch: usize,
) -> Result<BatchedSchedule> {
    check_batch(batch)?;
    check_shapes(layers, deps, costed)?;
    deps.ensure_backward()?;
    Ok(sweep_batched(layers, costed, batch))
}

/// The batched Stage IV sweep. Same precondition as [`sweep_single`].
fn sweep_batched(layers: &[LayerSets], costed: &CostedDeps, batch: usize) -> BatchedSchedule {
    let space = costed.space();
    let total = space.total_sets();
    let mut group_free = vec![0u64; layers.len()];
    let mut instances = Vec::with_capacity(batch);
    let mut makespan = 0u64;
    for _ in 0..batch {
        let mut arena: Vec<SetTime> = Vec::with_capacity(total);
        let mut instance_makespan = 0u64;
        for (li, layer) in layers.iter().enumerate() {
            for duration in layer.sets.durations() {
                let mut start = group_free[li];
                let (producers, latencies) = costed.incoming(arena.len());
                for (&p, &lat) in producers.iter().zip(latencies) {
                    start = start.max(arena[p as usize].finish + lat);
                }
                let finish = start + duration;
                group_free[li] = finish;
                instance_makespan = instance_makespan.max(finish);
                arena.push(SetTime { start, finish });
            }
        }
        makespan = makespan.max(instance_makespan);
        instances.push(Schedule::from_arena(
            space.clone(),
            arena,
            instance_makespan,
        ));
    }
    BatchedSchedule {
        instances,
        makespan,
    }
}

/// Errors on a zero batch size.
fn check_batch(batch: usize) -> Result<()> {
    if batch == 0 {
        return Err(CoreError::StageMismatch {
            detail: "batch must be at least 1".into(),
        });
    }
    Ok(())
}

/// Runs the layer-by-layer baseline (Sec. II-B): logical layers execute
/// strictly sequentially in topological order; duplicates of one logical
/// layer run concurrently within the layer's slot.
///
/// # Errors
///
/// Returns [`CoreError::StageMismatch`] for an empty layer list.
pub fn layer_by_layer_schedule(layers: &[LayerSets]) -> Result<Schedule> {
    if layers.is_empty() {
        return Err(CoreError::StageMismatch {
            detail: "no layers to schedule".into(),
        });
    }
    // Group consecutive-in-topo-order layers by logical id, preserving the
    // order of first appearance.
    let mut slot_of_logical: std::collections::BTreeMap<u32, usize> = Default::default();
    let mut slots: Vec<Vec<usize>> = Vec::new();
    for (li, layer) in layers.iter().enumerate() {
        match slot_of_logical.get(&layer.logical) {
            Some(&s) => slots[s].push(li),
            None => {
                slot_of_logical.insert(layer.logical, slots.len());
                slots.push(vec![li]);
            }
        }
    }
    let space = SetSpace::of_layers(layers);
    let mut arena = vec![
        SetTime {
            start: 0,
            finish: 0
        };
        space.total_sets()
    ];
    let mut t = 0u64;
    for slot in slots {
        let mut slot_end = t;
        for li in slot {
            let mut cursor = t;
            for (si, duration) in layers[li].sets.durations().enumerate() {
                arena[space.index(li, si)] = SetTime {
                    start: cursor,
                    finish: cursor + duration,
                };
                cursor += duration;
            }
            slot_end = slot_end.max(cursor);
        }
        t = slot_end;
    }
    Ok(Schedule::from_arena(space, arena, t))
}

/// Errors when `deps` covers a different layer count than `layers`.
fn check_layer_count(layers: &[LayerSets], deps: &Dependencies) -> Result<()> {
    if deps.num_layers() != layers.len() {
        return Err(CoreError::StageMismatch {
            detail: format!(
                "dependencies cover {} layers, sets cover {}",
                deps.num_layers(),
                layers.len()
            ),
        });
    }
    Ok(())
}

/// Errors when the three inputs of a costed scheduling call disagree.
fn check_shapes(layers: &[LayerSets], deps: &Dependencies, costed: &CostedDeps) -> Result<()> {
    check_layer_count(layers, deps)?;
    if !costed.matches(deps) {
        return Err(CoreError::StageMismatch {
            detail: "cost table was built from different dependencies".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::CrossbarSpec;
    use cim_ir::{Conv2dAttrs, FeatureShape, Graph, Op, Padding};
    use cim_mapping::{layer_costs, MappingOptions};

    use crate::deps::determine_dependencies;
    use crate::sets::{determine_sets, SetPolicy};

    fn conv_op(oc: usize, k: usize, st: usize) -> Op {
        Op::Conv2d(Conv2dAttrs {
            out_channels: oc,
            kernel: (k, k),
            stride: (st, st),
            padding: Padding::Valid,
            use_bias: false,
        })
    }

    /// Two stacked 3×3/1 convs: 10×10 input → 8×8 → 6×6.
    fn two_convs() -> Graph {
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
        let c1 = g.add("c1", conv_op(8, 3, 1), &[x]).unwrap();
        g.add("c2", conv_op(8, 3, 1), &[c1]).unwrap();
        g
    }

    fn stages(g: &Graph, policy: &SetPolicy) -> (Vec<LayerSets>, Dependencies) {
        let costs = layer_costs(
            g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        let layers = determine_sets(g, &costs, policy).unwrap();
        let deps = determine_dependencies(g, &layers).unwrap();
        (layers, deps)
    }

    #[test]
    fn cross_layer_overlaps_consecutive_convs() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let xl = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
        let lbl = layer_by_layer_schedule(&layers).unwrap();
        // t_OFM: c1 = 64, c2 = 36 → baseline 100.
        assert_eq!(lbl.makespan, 100);
        // Cross-layer: c2 row r needs c1 rows r..=r+2; c2's last row starts
        // after c1 finishes (8·8 = 64) ... exact: c2 set r starts at
        // max(chain, c1 finish of set r+2 = 8·(r+3)); last set r=5 →
        // start 64, finish 70.
        assert_eq!(xl.makespan, 70);
        // Hand-check the first sets: c1 s0 [0,8), c2 s0 needs c1 s0..s2
        // (finish 24) → [24, 30).
        assert_eq!(
            xl.time(0, 0),
            SetTime {
                start: 0,
                finish: 8
            }
        );
        assert_eq!(
            xl.time(1, 0),
            SetTime {
                start: 24,
                finish: 30
            }
        );
    }

    #[test]
    fn chain_order_is_respected() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let s = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
        for lt in s.iter_layers() {
            for w in lt.windows(2) {
                assert!(
                    w[0].finish <= w[1].start,
                    "sets of one group must not overlap"
                );
            }
        }
    }

    #[test]
    fn data_deps_are_respected() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let s = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
        for (consumer, producer) in deps.edges() {
            assert!(
                s.time(producer.layer, producer.set).finish
                    <= s.time(consumer.layer, consumer.set).start,
                "{producer} must finish before {consumer} starts"
            );
        }
    }

    #[test]
    fn coarse_sets_degrade_to_layer_by_layer() {
        // With one set per OFM there is nothing to overlap on a chain.
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::coarse(1));
        let xl = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
        let lbl = layer_by_layer_schedule(&layers).unwrap();
        assert_eq!(xl.makespan, lbl.makespan);
    }

    #[test]
    fn cross_layer_never_slower_than_baseline() {
        let g = two_convs();
        for policy in [
            SetPolicy::finest(),
            SetPolicy::coarse(4),
            SetPolicy::coarse(2),
        ] {
            let (layers, deps) = stages(&g, &policy);
            let xl = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
            let lbl = layer_by_layer_schedule(&layers).unwrap();
            assert!(xl.makespan <= lbl.makespan, "policy {policy:?}");
        }
    }

    #[test]
    fn baseline_runs_duplicates_concurrently() {
        // Two layers with the same logical id share a slot; a third layer
        // with its own id runs after.
        use cim_ir::NodeId;
        let mk = |node: u32, logical: u32, rows: usize| LayerSets {
            node: NodeId(node),
            name: format!("l{node}"),
            logical,
            ofm: FeatureShape::new(rows, 4, 8),
            pes: 1,
            quantum: 1,
            sets: crate::sets::SetBands::new(rows, 4, 1),
        };
        let layers = vec![mk(1, 1, 6), mk(2, 1, 5), mk(3, 3, 2)];
        let s = layer_by_layer_schedule(&layers).unwrap();
        // Slot 0: duplicates run 24 and 20 cycles concurrently → ends at 24.
        assert_eq!(s.time(0, 0).start, 0);
        assert_eq!(s.time(1, 0).start, 0);
        assert_eq!(s.time(2, 0).start, 24);
        assert_eq!(s.makespan, 24 + 8);
    }

    #[test]
    fn noc_edge_cost_delays_consumers() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let free = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();

        // Place the two 1-PE groups on distinct tiles of a 2-tile arch with
        // a 5-cycle hop latency.
        let arch = cim_arch::Architecture::builder()
            .tile(cim_arch::TileSpec {
                pes_per_tile: 1,
                ..cim_arch::TileSpec::isaac_like()
            })
            .noc_hop_latency(5)
            .pes(2)
            .build()
            .unwrap();
        let placement =
            cim_arch::place_groups(&arch, &[1, 1], cim_arch::PlacementStrategy::Contiguous)
                .unwrap();
        let costly =
            cross_layer_schedule(&layers, &deps, &EdgeCost::NocHops { arch, placement }).unwrap();
        assert!(costly.makespan > free.makespan);
        assert_eq!(
            costly.makespan,
            free.makespan + 5,
            "one hop on the critical tail"
        );
    }

    #[test]
    fn gpeu_edge_cost_charges_processing_time() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        // GPEU of 8 ops/cycle: a 1×8×8-byte producer set (c1 rows are 8
        // wide × 8 channels = 64 bytes) takes 8 extra cycles per edge.
        let arch = cim_arch::Architecture::builder()
            .tile(cim_arch::TileSpec {
                pes_per_tile: 4,
                gpeu_ops_per_cycle: 8,
                ..cim_arch::TileSpec::isaac_like()
            })
            .pes(2)
            .build()
            .unwrap();
        let placement =
            cim_arch::place_groups(&arch, &[1, 1], cim_arch::PlacementStrategy::Contiguous)
                .unwrap();
        let free = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
        let cost = EdgeCost::NocAndGpeu { arch, placement };
        assert_eq!(
            cost.cycles(0, 1, 64).unwrap(),
            8,
            "64 bytes / 8 ops per cycle"
        );
        let charged = cross_layer_schedule(&layers, &deps, &cost).unwrap();
        assert_eq!(
            charged.makespan,
            free.makespan + 8,
            "GPEU delay on the critical tail"
        );
        crate::validate::validate_schedule(&layers, &deps, &charged, &cost).unwrap();
    }

    #[test]
    fn costed_entry_points_match_the_wrappers() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let arch = cim_arch::Architecture::builder()
            .tile(cim_arch::TileSpec {
                pes_per_tile: 1,
                gpeu_ops_per_cycle: 16,
                ..cim_arch::TileSpec::isaac_like()
            })
            .noc_hop_latency(3)
            .pes(2)
            .build()
            .unwrap();
        let placement =
            cim_arch::place_groups(&arch, &[1, 1], cim_arch::PlacementStrategy::Contiguous)
                .unwrap();
        let cost = EdgeCost::NocAndGpeu { arch, placement };
        let costed = CostedDeps::build(&layers, &deps, &cost).unwrap();
        assert_eq!(
            cross_layer_schedule_costed(&layers, &deps, &costed).unwrap(),
            cross_layer_schedule(&layers, &deps, &cost).unwrap()
        );
        assert_eq!(
            batched_cross_layer_schedule_costed(&layers, &deps, &costed, 5).unwrap(),
            batched_cross_layer_schedule(&layers, &deps, &cost, 5).unwrap()
        );
    }

    #[test]
    fn costed_shape_mismatch_rejected() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let (coarse_layers, coarse_deps) = stages(&g, &SetPolicy::coarse(1));
        let costed = CostedDeps::free(&coarse_layers, &coarse_deps).unwrap();
        assert!(matches!(
            cross_layer_schedule_costed(&layers, &deps, &costed),
            Err(CoreError::StageMismatch { .. })
        ));
    }

    #[test]
    fn schedule_active_cycles_match_work() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let s = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
        assert_eq!(s.active_cycles(0), 64);
        assert_eq!(s.active_cycles(1), 36);
    }

    #[test]
    fn schedule_serde_keeps_the_nested_wire_format() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let s = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.starts_with("{\"times\":[["), "{json}");
        assert!(json.contains("\"makespan\":70"), "{json}");
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn nested_round_trip_preserves_shape() {
        let nested = vec![
            vec![
                SetTime {
                    start: 0,
                    finish: 4
                },
                SetTime {
                    start: 4,
                    finish: 8
                },
            ],
            vec![SetTime {
                start: 8,
                finish: 12
            }],
        ];
        let s = Schedule::from_nested(nested.clone(), 12);
        assert_eq!(s.to_nested(), nested);
        assert_eq!(s.layer(0).len(), 2);
        assert_eq!(s.layer(1).len(), 1);
        assert_eq!(s.time(1, 0).finish, 12);
    }

    #[test]
    fn empty_layers_rejected_by_baseline() {
        assert!(layer_by_layer_schedule(&[]).is_err());
    }

    #[test]
    fn batched_schedule_pipelines_instances() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let single = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
        let batched = batched_cross_layer_schedule(&layers, &deps, &EdgeCost::Free, 4).unwrap();
        // Instance 0 equals the single-inference schedule.
        assert_eq!(batched.instances[0], single);
        // Pipelining: the batch finishes far sooner than 4 sequential runs.
        assert!(batched.makespan < 4 * single.makespan);
        // Steady state: each extra inference costs the bottleneck group's
        // work (c1: 64 cycles), not the full makespan (70).
        assert_eq!(batched.makespan, single.makespan + 3 * 64);
        assert!(batched.cycles_per_inference() < single.makespan as f64);
        // Per-instance validity: chain and deps hold inside each instance.
        for inst in &batched.instances {
            for lt in inst.iter_layers() {
                for w in lt.windows(2) {
                    assert!(w[0].finish <= w[1].start);
                }
            }
            for (consumer, producer) in deps.edges() {
                assert!(
                    inst.time(producer.layer, producer.set).finish
                        <= inst.time(consumer.layer, consumer.set).start
                );
            }
        }
        // Groups never overlap across instances either.
        for li in 0..layers.len() {
            for b in 1..batched.instances.len() {
                let prev_end = batched.instances[b - 1].layer(li).last().unwrap().finish;
                let next_start = batched.instances[b].layer(li).first().unwrap().start;
                assert!(
                    prev_end <= next_start,
                    "group {li} overlaps across instances"
                );
            }
        }
    }

    #[test]
    fn batched_utilization_approaches_structural_limit() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let single = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
        let batched = batched_cross_layer_schedule(&layers, &deps, &EdgeCost::Free, 32).unwrap();
        // Work per inference: c1 64 + c2 36 = 100 PE-cycles (1 PE each).
        let total_pes = 2u64;
        let ut_single = 100.0 / (total_pes * single.makespan) as f64;
        let ut_batched = (32 * 100) as f64 / (total_pes * batched.makespan) as f64;
        assert!(ut_batched > ut_single);
        // Structural limit: the bottleneck group (c1) is busy 64 of every
        // 64 cycles in steady state → utilization → (64+36)/(2·64) ≈ 0.78.
        assert!(
            ut_batched > 0.75,
            "steady-state utilization {ut_batched:.2}"
        );
        assert!(ut_batched < 0.79, "cannot beat the structural limit");
    }

    #[test]
    fn batched_rejects_zero_batch() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        assert!(batched_cross_layer_schedule(&layers, &deps, &EdgeCost::Free, 0).is_err());
    }

    #[test]
    fn mismatched_stage_outputs_rejected() {
        let g = two_convs();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        assert!(matches!(
            cross_layer_schedule(&layers[..1], &deps, &EdgeCost::Free),
            Err(CoreError::StageMismatch { .. })
        ));
    }

    #[test]
    fn forward_dependency_rejected_once_per_call() {
        let g = two_convs();
        let (layers, _) = stages(&g, &SetPolicy::finest());
        let sets_per: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
        let deps = Dependencies::from_edges(
            &sets_per,
            &[(
                crate::deps::SetRef { layer: 0, set: 0 },
                crate::deps::SetRef { layer: 1, set: 0 },
            )],
        )
        .unwrap();
        let err = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap_err();
        assert!(
            err.to_string().contains("not topologically earlier"),
            "{err}"
        );
        assert!(batched_cross_layer_schedule(&layers, &deps, &EdgeCost::Free, 4).is_err());
    }
}
