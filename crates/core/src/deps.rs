//! Stage II — determine dependencies (Sec. IV-2 of the paper, Fig. 5b).
//!
//! For every OFM set of every base layer, find the OFM sets of *predecessor*
//! base layers whose data it needs. The set's rectangle is propagated
//! backward along the non-base layer path (bias, activation, pooling,
//! padding, slice, concat, …) using the receptive-field arithmetic of
//! [`cim_ir::RegionStep`] (the steps behind [`cim_ir::input_region`]); a
//! producer set is a dependency iff the propagated rectangle intersects it.
//!
//! One producer set can influence multiple consumer sets (the paper's `Q`
//! relation) and one consumer set can require multiple producer sets (`P`).
//!
//! # Lookup
//!
//! Each call compiles the backward walk once and then runs it for every
//! set. Compiling resolves every graph node a walk can reach to the
//! [`RegionStep`] of each of its inputs, with padding, offsets and concat
//! spans worked out from the shapes. Identity ops (bias, batch norm,
//! activation, softmax, quantize, add, channel concat) are folded away:
//! each input leads to a *fan*, the base layers and rectangle-changing
//! nodes reachable from it through identity ops alone, so a residual chain
//! becomes one fan of producer layers. A fan holds each destination once:
//! joining the fans of an identity op's inputs skips an input whose fan is
//! already in, and drops the destinations already taken, keeping the first
//! occurrence of each in input order. So branches that fork and meet again
//! through identity ops (stacked `relu`/`relu`/`add` diamonds) cost one
//! fan entry per producer, not one per path. A fan of layers alone is
//! kept in layer order. A row or column concat keeps its branches in span
//! order and finds the ones a rectangle meets by binary search instead of
//! trying every input.
//!
//! Rectangle-changing nodes are *hops*, and they are hash-consed: a node
//! whose branches have the same steps, spans and fans as an earlier hop's,
//! on the same axis, shares that hop and its fan. So two equal pools that
//! fork from one node and meet again (stacked pooling diamonds) are one
//! destination that a join keeps once, and the walk takes linear time.
//! Diamonds of *unequal* pools are still walked path by path.
//!
//! Every layer's sets are full-width row bands of `r` rows from the top,
//! the last possibly shorter ([`SetBands`]). So a stepped rectangle meets
//! the sets `y0 / r ..= min(y1, h − 1) / r` of a producer layer `h` rows
//! high, and none when it starts below the last row or right of the last
//! column: two divisions per producer layer reached. Each consumer set
//! gathers one `(first, last)` global-index range per layer it reaches
//! and appends their union in ascending order, sorting the few ranges
//! only when they arrive out of order.
//!
//! # Representation
//!
//! The relation is stored once, in **CSR form** over the global
//! [`SetSpace`] index: per consumer set, a `u32` offset into one flat
//! arena of `u32` producer indices, 4 bytes per edge. A global index sorts
//! exactly like its `(layer, set)` pair, so each row is sorted and
//! deduplicated in the order [`of`](Dependencies::of) reports it. The two
//! arrays sit behind one [`Arc`]: clones of the relation and every
//! [`CostedDeps`] table built from it share them, and a table recognises
//! the relation it came from by pointer. The schedulers, the validator
//! and the event engine walk the indices
//! ([`producers`](Dependencies::producers)); `of`, `edges`, `fan_in`,
//! `fan_out` and the serde format (the nested `deps` array) speak
//! [`SetRef`]s, each index mapped back by a binary search over the layer
//! starts ([`SetSpace::set_ref`]).
//!
//! [`CostedDeps`]: crate::CostedDeps

use std::ops::Range;
use std::sync::Arc;

use cim_ir::{Axis, FeatureShape, Graph, Node, NodeId, Op, Rect, RegionStep};
use serde::{Deserialize, Serialize, Value};

use crate::error::{CoreError, Result};
use crate::sets::{LayerSets, SetBands};
use crate::space::SetSpace;

/// Identifier of a set: layer index (into the Stage-I slice) and set index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SetRef {
    /// Index of the layer in the Stage-I output.
    pub layer: usize,
    /// Index of the set within the layer.
    pub set: usize,
}

impl std::fmt::Display for SetRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}S{}", self.layer, self.set)
    }
}

/// The Stage-II result: per consumer set, the producer sets it depends on.
///
/// CSR-backed: `producers[offsets[i]..offsets[i + 1]]` are the global
/// indices (see [`SetSpace::index`]) of the sorted, deduplicated producers
/// of the consumer set with global index `i`. Clones share the arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependencies {
    /// The `(layer, set) → usize` index space the CSR arrays are sliced by.
    space: SetSpace,
    /// The edges, shared with clones and with the cost tables built from
    /// this relation.
    csr: Arc<Csr>,
}

/// The CSR arrays of a [`Dependencies`], both exactly as long as their
/// capacity.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Csr {
    /// `offsets[i]..offsets[i + 1]` bounds consumer `i`'s producer slice.
    offsets: Vec<u32>,
    /// Every edge's producer global index, concatenated in consumer
    /// order; each consumer's slice is sorted and deduplicated.
    producers: Vec<u32>,
}

impl Csr {
    fn new(offsets: Vec<u32>, mut producers: Vec<u32>) -> Arc<Self> {
        producers.shrink_to_fit();
        Arc::new(Self { offsets, producers })
    }

    /// Arena positions of consumer `i`'s edges.
    #[inline]
    pub(crate) fn row_range(&self, i: usize) -> Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Per consumer, the start of its row (length `total_sets + 1`).
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every edge's producer, in consumer order.
    pub(crate) fn producers(&self) -> &[u32] {
        &self.producers
    }
}

/// Checks that `count` sets or edges fit the CSR's `u32` indices, before
/// anything proportional to `count` is allocated.
///
/// # Errors
///
/// Returns [`CoreError::StageMismatch`] when `count` exceeds `u32::MAX`.
fn check_u32(count: usize, what: &str) -> Result<()> {
    if u32::try_from(count).is_err() {
        return Err(CoreError::StageMismatch {
            detail: format!(
                "{count} {what} exceed the dependency CSR's u32 indices (at most {})",
                u32::MAX
            ),
        });
    }
    Ok(())
}

impl Dependencies {
    /// Builds a dependency structure directly from `(consumer, producer)`
    /// edges — for synthetic workloads, failure-injection tests, and users
    /// bringing their own dependency analysis.
    ///
    /// `sets_per_layer[l]` is the number of Stage-I sets of layer `l`.
    /// Edges are deduplicated and sorted. Note that *topological* sanity
    /// (producers strictly earlier than consumers) is deliberately not
    /// enforced here; the schedulers and the simulator detect violations
    /// themselves.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StageMismatch`] when an edge references a
    /// nonexistent layer or set, or when there are more than `u32::MAX`
    /// sets or edges.
    pub fn from_edges(sets_per_layer: &[usize], edges: &[(SetRef, SetRef)]) -> Result<Self> {
        let space = SetSpace::from_counts(sets_per_layer);
        let total = space.total_sets();
        check_u32(total, "sets")?;
        check_u32(edges.len(), "edges")?;
        // Validate endpoints, then sort the edge list by (consumer,
        // producer) global index so the CSR arena can be filled in one pass.
        let mut keyed: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
        for &(consumer, producer) in edges {
            for r in [consumer, producer] {
                let ok = r.layer < sets_per_layer.len() && r.set < sets_per_layer[r.layer];
                if !ok {
                    return Err(CoreError::StageMismatch {
                        detail: format!("edge endpoint {r} out of range"),
                    });
                }
            }
            let index = |r: SetRef| space.index(r.layer, r.set) as u32;
            keyed.push((index(consumer), index(producer)));
        }
        keyed.sort_unstable();
        keyed.dedup();

        let mut offsets = Vec::with_capacity(total + 1);
        let mut producers = Vec::with_capacity(keyed.len());
        offsets.push(0);
        let mut cursor = 0usize;
        for i in 0..total as u32 {
            while cursor < keyed.len() && keyed[cursor].0 == i {
                producers.push(keyed[cursor].1);
                cursor += 1;
            }
            offsets.push(producers.len() as u32);
        }
        Ok(Self {
            space,
            csr: Csr::new(offsets, producers),
        })
    }

    /// Rebuilds the CSR form from the legacy nested `deps[l][s]` shape
    /// (each inner list is sorted and deduplicated on ingestion) — the
    /// serde wire format.
    ///
    /// # Errors
    ///
    /// Names the first edge whose producer is not a set of the nested
    /// shape, as [`from_edges`](Self::from_edges) rejects it, and refuses
    /// more than `u32::MAX` sets or edges.
    fn from_nested(nested: &[Vec<Vec<SetRef>>]) -> std::result::Result<Self, serde::Error> {
        let counts: Vec<usize> = nested.iter().map(Vec::len).collect();
        let space = SetSpace::from_counts(&counts);
        let edges = nested.iter().flatten().map(Vec::len).sum::<usize>();
        check_u32(space.total_sets(), "sets")
            .and_then(|()| check_u32(edges, "edges"))
            .map_err(|e| serde::Error::custom(format!("Dependencies: {e}")))?;
        let mut offsets = Vec::with_capacity(space.total_sets() + 1);
        let mut producers = Vec::with_capacity(edges);
        let mut row: Vec<u32> = Vec::new();
        offsets.push(0);
        for (l, sets) in nested.iter().enumerate() {
            for (s, ds) in sets.iter().enumerate() {
                if let Some(p) = ds
                    .iter()
                    .find(|p| counts.get(p.layer).is_none_or(|&n| p.set >= n))
                {
                    let consumer = SetRef { layer: l, set: s };
                    return Err(serde::Error::custom(format!(
                        "Dependencies: producer {p} of {consumer} is out of range"
                    )));
                }
                row.clear();
                row.extend(ds.iter().map(|p| space.index(p.layer, p.set) as u32));
                row.sort_unstable();
                row.dedup();
                producers.extend_from_slice(&row);
                offsets.push(producers.len() as u32);
            }
        }
        Ok(Self {
            space,
            csr: Csr::new(offsets, producers),
        })
    }

    /// Producer sets required by set `s` of layer `l`, in ascending
    /// `(layer, set)` order.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn of(&self, l: usize, s: usize) -> impl ExactSizeIterator<Item = SetRef> + '_ {
        self.producers(self.space.index(l, s))
            .iter()
            .map(|&p| self.space.set_ref(p as usize))
    }

    /// Global indices of the producers of the set with global index `i`,
    /// in ascending order: the form the schedulers, the validator and the
    /// event engine walk.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn producers(&self, i: usize) -> &[u32] {
        &self.csr.producers[self.csr.row_range(i)]
    }

    /// Number of layers covered.
    pub fn num_layers(&self) -> usize {
        self.space.num_layers()
    }

    /// The global `(layer, set) → usize` index space of the CSR arrays.
    pub fn space(&self) -> &SetSpace {
        &self.space
    }

    /// The raw CSR view: the per-consumer offset table (length
    /// `total_sets + 1`) and the flat arena of producer global indices it
    /// slices. Consumer `i`'s producers are
    /// `producers[offsets[i]..offsets[i + 1]]`, with every index as
    /// assigned by [`space`](Self::space).
    pub fn csr(&self) -> (&[u32], &[u32]) {
        (self.csr.offsets(), self.csr.producers())
    }

    /// The shared CSR, for the cost tables built from this relation.
    pub(crate) fn shared_csr(&self) -> &Arc<Csr> {
        &self.csr
    }

    /// Iterates over all `(consumer, producer)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (SetRef, SetRef)> + '_ {
        (0..self.num_layers()).flat_map(move |l| {
            (0..self.space.sets_in(l))
                .flat_map(move |s| self.of(l, s).map(move |p| (SetRef { layer: l, set: s }, p)))
        })
    }

    /// Total number of dependency edges.
    pub fn num_edges(&self) -> usize {
        self.csr.producers.len()
    }

    /// The paper's `P` value for a consumer set: how many producer sets it
    /// is affected by.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn fan_in(&self, l: usize, s: usize) -> usize {
        self.csr.row_range(self.space.index(l, s)).len()
    }

    /// The paper's `Q` relation, inverted from the stored edges: for every
    /// producer set, the consumer sets it influences.
    pub fn fan_out(&self) -> Vec<Vec<Vec<SetRef>>> {
        let mut out: Vec<Vec<Vec<SetRef>>> = (0..self.num_layers())
            .map(|l| vec![Vec::new(); self.space.sets_in(l)])
            .collect();
        for (consumer, producer) in self.edges() {
            out[producer.layer][producer.set].push(consumer);
        }
        out
    }

    /// Checks, once, that every edge points to a topologically earlier
    /// layer — the precondition of the forward longest-path sweep. The
    /// schedulers run this once per `(layers, deps)` pair. Rows are
    /// sorted, so only each row's last producer is read: it must lie
    /// before the consumer's layer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StageMismatch`] naming the first offending
    /// edge.
    pub fn ensure_backward(&self) -> Result<()> {
        for l in 0..self.num_layers() {
            let sets = self.space.layer_range(l);
            let earlier = sets.start as u32;
            for i in sets {
                let row = self.producers(i);
                if row.last().is_some_and(|&p| p >= earlier) {
                    let first = row[row.partition_point(|&p| p < earlier)];
                    let dep = self.space.set_ref(first as usize);
                    return Err(CoreError::StageMismatch {
                        detail: format!(
                            "dependency {dep} of layer {l} is not topologically earlier"
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

// The wire format predates the CSR backing: a `deps` field holding the
// nested `deps[l][s] -> [SetRef]` lists. Serialization reconstitutes that
// shape so on-disk artifacts and fingerprints are byte-identical to the
// pre-CSR representation.
impl Serialize for Dependencies {
    fn to_value(&self) -> Value {
        let layers: Vec<Value> = (0..self.num_layers())
            .map(|l| {
                Value::Seq(
                    (0..self.space.sets_in(l))
                        .map(|s| Value::Seq(self.of(l, s).map(|p| p.to_value()).collect()))
                        .collect(),
                )
            })
            .collect();
        Value::Map(vec![("deps".to_string(), Value::Seq(layers))])
    }
}

impl Deserialize for Dependencies {
    fn from_value(v: &Value) -> std::result::Result<Self, serde::Error> {
        let entries = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("Dependencies: expected a map"))?;
        let deps = Value::map_get(entries, "deps")
            .ok_or_else(|| serde::Error::custom("Dependencies: missing `deps`"))?;
        let nested: Vec<Vec<Vec<SetRef>>> = Deserialize::from_value(deps)?;
        Self::from_nested(&nested)
    }
}

/// Runs Stage II on the Stage-I output.
///
/// # Errors
///
/// Returns [`CoreError::StageMismatch`] when `layers` does not correspond to
/// `graph` and propagates graph access errors.
///
/// # Examples
///
/// See the crate-level documentation for the worked Fig. 5 example.
pub fn determine_dependencies(graph: &Graph, layers: &[LayerSets]) -> Result<Dependencies> {
    let space = SetSpace::of_layers(layers);
    check_u32(space.total_sets(), "sets")?;
    let program = Program::compile(graph, layers, &space)?;
    let mut offsets = Vec::with_capacity(space.total_sets() + 1);
    let mut producers: Vec<u32> = Vec::new();
    offsets.push(0);
    // One scratch buffer of producer ranges reused across every set: one
    // range per producer layer a path reaches.
    let mut ranges: Vec<(u32, u32)> = Vec::new();

    for (li, layer) in layers.iter().enumerate() {
        let entry = &program.branches[program.entries[li].clone()];
        for set in &layer.sets {
            // The IFM region this conv/dense set needs, walked back.
            ranges.clear();
            for branch in entry {
                program
                    .step(branch, set.rect, &mut ranges)
                    .map_err(|node| program.unset(node))?;
            }
            append_union(&mut ranges, &mut producers)?;
            offsets.push(producers.len() as u32);
        }
    }
    Ok(Dependencies {
        space,
        csr: Csr::new(offsets, producers),
    })
}

/// Appends the union of the inclusive global-index `ranges` to
/// `producers`, in ascending order. The ranges are sorted only when they
/// arrive out of order, and merged where they overlap or touch.
///
/// # Errors
///
/// Returns [`CoreError::StageMismatch`] when the arena would pass
/// `u32::MAX` edges; nothing is appended then.
fn append_union(ranges: &mut [(u32, u32)], producers: &mut Vec<u32>) -> Result<()> {
    if !ranges.is_sorted() {
        ranges.sort_unstable();
    }
    let mut merged = 0usize;
    for i in 0..ranges.len() {
        let (first, last) = ranges[i];
        match merged.checked_sub(1).map(|m| &mut ranges[m]) {
            Some(prev) if first <= prev.1.saturating_add(1) => prev.1 = prev.1.max(last),
            _ => {
                ranges[merged] = (first, last);
                merged += 1;
            }
        }
    }
    let ranges = &ranges[..merged];
    let edges: usize = ranges.iter().map(|&(a, b)| (b - a) as usize + 1).sum();
    check_u32(producers.len() + edges, "edges")?;
    for &(first, last) in ranges {
        producers.extend(first..=last);
    }
    Ok(())
}

/// Stage II's backward walk, compiled once per call: every graph node the
/// walk can reach is resolved to the [`RegionStep`]s of its inputs, so
/// running it for a set only applies steps and divides by band heights.
struct Program<'a> {
    graph: &'a Graph,
    /// Per layer: its sets, and the global index of its first set.
    bands: Vec<(SetBands, u32)>,
    /// Per layer: its branches in `branches`, which step from the layer's
    /// output into its inputs.
    entries: Vec<Range<usize>>,
    /// The non-identity nodes a walk can reach.
    hops: Vec<Hop>,
    branches: Vec<Branch>,
    /// The fans that branches slice.
    dests: Vec<Dest>,
}

/// A node that changes the rectangle: pooling, padding, slice, upsample,
/// a global op, or a row or column concat.
struct Hop {
    /// Its inputs' branches in `Program::branches`, ordered by span.
    branches: Range<usize>,
    /// Whether the spans are rows (a row concat) or columns.
    rows: bool,
}

/// One input of a node: the step into it and where the stepped rectangle
/// goes from there.
#[derive(PartialEq)]
struct Branch {
    step: RegionStep,
    /// The output rows (row concat) or columns (column concat) this input
    /// fills; everything on any other node.
    span: (usize, usize),
    /// Its fan in `Program::dests`: every base layer and hop reachable
    /// from the input through identity ops, which leave the rectangle
    /// unchanged. Inputs with an empty fan get no branch.
    fan: Range<usize>,
}

/// A walk's outcome: `Err` names the base node without Stage-I sets that
/// it reached.
type Walked = std::result::Result<(), NodeId>;

/// Where a stepped rectangle goes.
#[derive(Clone, Copy)]
enum Dest {
    /// Record the intersected sets of this layer.
    Layer(usize),
    /// A base node without Stage-I sets: reaching it is an error.
    Unset(NodeId),
    /// Continue through this hop.
    Hop(usize),
}

impl<'a> Program<'a> {
    fn compile(graph: &'a Graph, layers: &'a [LayerSets], space: &'a SetSpace) -> Result<Self> {
        let mut layer_of = vec![usize::MAX; graph.len()];
        for (i, l) in layers.iter().enumerate() {
            let node = graph.node(l.node)?;
            if !node.op.is_base() {
                return Err(CoreError::StageMismatch {
                    detail: format!("layer entry `{}` is not a base layer", l.name),
                });
            }
            layer_of[l.node.index()] = i;
        }
        let bands = layers
            .iter()
            .enumerate()
            .map(|(i, l)| (l.sets, space.layer_range(i).start as u32))
            .collect();
        let mut c = Compiler {
            program: Program {
                graph,
                bands,
                entries: Vec::with_capacity(layers.len()),
                hops: Vec::new(),
                branches: Vec::new(),
                dests: Vec::new(),
            },
            layer_of,
            fan_of: vec![None; graph.len()],
            last_hop_at: Vec::new(),
            hop_links: Vec::new(),
            shapes: Vec::new(),
            taken: vec![0; layers.len() + 2 * graph.len()],
            join: 0,
        };
        for l in layers {
            let n = graph.node(l.node)?;
            c.load_inputs(n)?;
            let branches = c.branches(n)?;
            c.program.entries.push(branches);
        }
        Ok(c.program)
    }

    /// Steps `rect` (a region of the branch's node's output) into the
    /// branch's input and on through its fan, recording the global-index
    /// range of the producer sets it meets in each layer it reaches
    /// (possibly overlapping — the caller merges them). Fails with the
    /// first base node without Stage-I sets that the rectangle reaches.
    fn step(&self, branch: &Branch, rect: Rect, found: &mut Vec<(u32, u32)>) -> Walked {
        let Some(rect) = branch.step.apply(rect) else {
            return Ok(());
        };
        for &dest in &self.dests[branch.fan.clone()] {
            match dest {
                Dest::Layer(li) => {
                    let (bands, start) = self.bands[li];
                    if let Some((first, last)) = bands.meeting(&rect) {
                        found.push((start + first as u32, start + last as u32));
                    }
                }
                Dest::Hop(h) => self.hop(h, rect, found)?,
                Dest::Unset(node) => return Err(node),
            }
        }
        Ok(())
    }

    /// The error for a walk that reached base node `node`, which has no
    /// Stage-I sets.
    fn unset(&self, node: NodeId) -> CoreError {
        match self.graph.node(node) {
            Ok(n) => CoreError::StageMismatch {
                detail: format!("base layer `{}` has no Stage-I sets", n.name),
            },
            Err(e) => e.into(),
        }
    }

    /// Steps `rect` into the inputs of hop `h` whose spans it meets: the
    /// first by binary search, stopping at the first span past `rect`.
    fn hop(&self, h: usize, rect: Rect, found: &mut Vec<(u32, u32)>) -> Walked {
        let hop = &self.hops[h];
        let (lo, hi) = if hop.rows {
            (rect.y0, rect.y1)
        } else {
            (rect.x0, rect.x1)
        };
        let branches = &self.branches[hop.branches.clone()];
        let first = branches.partition_point(|b| b.span.1 < lo);
        for branch in branches[first..].iter().take_while(|b| b.span.0 <= hi) {
            self.step(branch, rect, found)?;
        }
        Ok(())
    }
}

/// No hop, in [`Compiler`]'s hop chains.
const NO_HOP: u32 = u32::MAX;

/// Builds a [`Program`], resolving each graph node at most once.
struct Compiler<'a> {
    program: Program<'a>,
    /// Node index → index of its entry in `layers` (`usize::MAX` if none).
    layer_of: Vec<usize>,
    /// Node index → its fan in `program.dests`, once resolved.
    fan_of: Vec<Option<Range<usize>>>,
    /// Per position in `program.dests`: the last hop whose first branch's
    /// fan starts there (`NO_HOP` if none), the head of that position's
    /// chain in `hop_links`.
    last_hop_at: Vec<u32>,
    /// Per hop: the position of its one-destination fan in
    /// `program.dests`, and the hop before it in its chain.
    hop_links: Vec<(usize, u32)>,
    /// The input shapes of the node whose branches are being built.
    shapes: Vec<FeatureShape>,
    /// Per destination (indexed by [`key`](Self::key)): the last join
    /// that took it.
    taken: Vec<u32>,
    /// The current join's stamp in `taken`.
    join: u32,
}

impl Compiler<'_> {
    /// Pushes the branches of `n`'s inputs onto `program.branches`, in input
    /// order, leaving out inputs with an empty fan, and returns their range.
    /// `n` must have been through [`load_inputs`](Self::load_inputs).
    fn branches(&mut self, n: &Node) -> Result<Range<usize>> {
        let start = self.program.branches.len();
        for (idx, &inp) in n.inputs.iter().enumerate() {
            let Some(step) = RegionStep::of(&n.op, &self.shapes, idx, n.out_shape) else {
                continue;
            };
            let fan = self.fan(inp)?;
            if fan.is_empty() {
                continue;
            }
            let span = match (step, &n.op) {
                (RegionStep::Crop(data), Op::Concat(Axis::H)) => (data.y0, data.y1),
                (RegionStep::Crop(data), Op::Concat(Axis::W)) => (data.x0, data.x1),
                _ => (0, usize::MAX),
            };
            self.program.branches.push(Branch { step, span, fan });
        }
        Ok(start..self.program.branches.len())
    }

    /// Resolves the fan of every input of `n`, then loads their shapes into
    /// `shapes` (after the recursion, which reuses it), so the fans are
    /// memo hits and the shapes are `n`'s while its branches are built.
    fn load_inputs(&mut self, n: &Node) -> Result<()> {
        for &inp in &n.inputs {
            self.fan(inp)?;
        }
        self.shapes.clear();
        for &inp in &n.inputs {
            self.shapes.push(self.program.graph.node(inp)?.out_shape);
        }
        Ok(())
    }

    /// The fan of `node`'s output: where a rectangle of it goes before any
    /// step changes it. A base layer is its own fan. A node whose every
    /// input step is the identity (a graph input has none) joins its
    /// inputs' fans. Any other node is a hop, or nothing if no input of it
    /// leads anywhere.
    fn fan(&mut self, node: NodeId) -> Result<Range<usize>> {
        if let Some(fan) = &self.fan_of[node.index()] {
            return Ok(fan.clone());
        }
        let graph = self.program.graph;
        let n = graph.node(node)?;
        let fan = if n.op.is_base() {
            let li = self.layer_of[node.index()];
            self.push_dest(if li == usize::MAX {
                Dest::Unset(node)
            } else {
                Dest::Layer(li)
            })
        } else {
            self.load_inputs(n)?;
            let identity = (0..n.inputs.len()).all(|idx| {
                RegionStep::of(&n.op, &self.shapes, idx, n.out_shape) == Some(RegionStep::Identity)
            });
            if identity {
                self.join(&n.inputs)?
            } else {
                let branches = self.branches(n)?;
                if branches.is_empty() {
                    0..0
                } else {
                    self.hop(branches, matches!(n.op, Op::Concat(Axis::H)))
                }
            }
        };
        self.fan_of[node.index()] = Some(fan.clone());
        Ok(fan)
    }

    /// The fan of a hop over `branches` (the last ones pushed): that of an
    /// earlier hop with equal branches and axis, whose copy of them is
    /// dropped, or else a new hop's. Equal hops step every rectangle to the
    /// same places, so a join of them keeps one. Only hops whose first
    /// branch's fan starts at the same place are compared: they are chained
    /// from `last_hop_at`.
    fn hop(&mut self, branches: Range<usize>, rows: bool) -> Range<usize> {
        let p = &self.program;
        let at = p.branches[branches.start].fan.start;
        let mut h = self.last_hop_at.get(at).copied().unwrap_or(NO_HOP);
        while h != NO_HOP {
            let hop = &p.hops[h as usize];
            let (fan, earlier) = self.hop_links[h as usize];
            if hop.rows == rows && p.branches[hop.branches.clone()] == p.branches[branches.clone()]
            {
                self.program.branches.truncate(branches.start);
                return fan..fan + 1;
            }
            h = earlier;
        }
        if at >= self.last_hop_at.len() {
            self.last_hop_at.resize(at + 1, NO_HOP);
        }
        let h = self.program.hops.len();
        self.program.hops.push(Hop { branches, rows });
        let fan = self.push_dest(Dest::Hop(h));
        self.hop_links.push((fan.start, self.last_hop_at[at]));
        self.last_hop_at[at] = h as u32;
        fan
    }

    /// The (resolved) fans of `inputs` concatenated in input order, each
    /// destination kept at its first occurrence only. A fan equal to the
    /// joined one so far, or holding nothing new, is skipped, and a single
    /// contributing fan is shared, not copied.
    fn join(&mut self, inputs: &[NodeId]) -> Result<Range<usize>> {
        let mut joined = 0..0;
        // Whether `joined`'s destinations are marked taken: only once a
        // second fan arrives, so single-input identity ops mark nothing.
        let mut marked = false;
        // Whether `joined` is this join's own copy, which no other fan
        // shares, so that reordering it changes no other fan.
        let mut own = false;
        for &inp in inputs {
            let fan = self.fan(inp)?;
            if fan.is_empty() || fan == joined {
                continue;
            }
            if joined.is_empty() {
                joined = fan;
                continue;
            }
            if !marked {
                self.join += 1;
                for i in joined.clone() {
                    self.take(self.program.dests[i]);
                }
                marked = true;
            }
            if fan.clone().all(|i| self.is_taken(self.program.dests[i])) {
                continue;
            }
            // Grow `joined` at the end of the arena, where appending leaves
            // every other fan as it is.
            let dests = &mut self.program.dests;
            if joined.end != dests.len() {
                let start = dests.len();
                dests.extend_from_within(joined);
                joined = start..dests.len();
                own = true;
            }
            for i in fan {
                let dest = self.program.dests[i];
                if !self.is_taken(dest) {
                    self.take(dest);
                    self.program.dests.push(dest);
                }
            }
            joined.end = self.program.dests.len();
        }
        // A fan of layers alone is kept in layer order, so that the ranges
        // it yields arrive sorted. Order matters in no other fan but for
        // which base layer without sets a walk reaches first.
        let layer = |d: &Dest| match *d {
            Dest::Layer(li) => Some(li),
            Dest::Unset(_) | Dest::Hop(_) => None,
        };
        let dests = &mut self.program.dests;
        let run = &dests[joined.clone()];
        if run.iter().all(|d| layer(d).is_some()) && !run.is_sorted_by_key(layer) {
            if !own {
                let start = dests.len();
                dests.extend_from_within(joined);
                joined = start..dests.len();
            }
            dests[joined.clone()].sort_unstable_by_key(|d| layer(d));
        }
        Ok(joined)
    }

    /// A destination's slot in `taken`: layers, then base nodes without
    /// sets, then hops (at most one per node).
    fn key(&self, dest: Dest) -> usize {
        let layers = self.program.bands.len();
        match dest {
            Dest::Layer(li) => li,
            Dest::Unset(node) => layers + node.index(),
            Dest::Hop(h) => layers + self.program.graph.len() + h,
        }
    }

    fn is_taken(&self, dest: Dest) -> bool {
        self.taken[self.key(dest)] == self.join
    }

    fn take(&mut self, dest: Dest) {
        let key = self.key(dest);
        self.taken[key] = self.join;
    }

    fn push_dest(&mut self, dest: Dest) -> Range<usize> {
        self.program.dests.push(dest);
        self.program.dests.len() - 1..self.program.dests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::CrossbarSpec;
    use cim_ir::{ActFn, Conv2dAttrs, FeatureShape, PadSpec, Padding, PoolAttrs};
    use cim_mapping::{layer_costs, MappingOptions};

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

    /// `deps.of(l, s)`, collected.
    fn of(deps: &Dependencies, l: usize, s: usize) -> Vec<SetRef> {
        deps.of(l, s).collect()
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

    /// The paper's Fig. 5 minimal example: two Conv2D layers with a
    /// bias → activation → pooling → padding non-base path in between.
    fn fig5_graph() -> Graph {
        let mut g = Graph::new("fig5");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(10, 10, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("conv1", conv_op(8, 3, 1), &[x]).unwrap(); // 8×8
        let b = g.add("bias", Op::Bias, &[c1]).unwrap();
        let a = g.add("act", Op::Activation(ActFn::Relu), &[b]).unwrap();
        let p = g
            .add(
                "pool",
                Op::MaxPool2d(PoolAttrs {
                    window: (2, 2),
                    stride: (2, 2),
                    padding: Padding::Valid,
                }),
                &[a],
            )
            .unwrap(); // 4×4
        let pad = g
            .add("pad", Op::ZeroPad2d(PadSpec::uniform(1)), &[p])
            .unwrap(); // 6×6
        g.add("conv2", conv_op(8, 3, 1), &[pad]).unwrap(); // 4×4
        g
    }

    #[test]
    fn fig5_dependencies() {
        let g = fig5_graph();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        // conv1: 8 rows, quantum 2 (pool) → 4 sets. conv2: 4 rows → 4 sets.
        assert_eq!(layers[0].sets.len(), 4);
        assert_eq!(layers[1].sets.len(), 4);

        // conv2 set 0 (OFM row 0) reads padded rows 0..=2 = pool rows 0..=1
        // = conv1 rows 0..=3 = conv1 sets {0, 1}.
        assert_eq!(
            of(&deps, 1, 0),
            &[SetRef { layer: 0, set: 0 }, SetRef { layer: 0, set: 1 }]
        );
        // conv2 set 1 reads padded rows 1..=3 = pool rows 0..=2 = conv1 rows
        // 0..=5 = sets {0, 1, 2}.
        assert_eq!(deps.fan_in(1, 1), 3);
        // conv2 set 3 (last row) reads padded rows 3..=5 = pool rows 2..=3 =
        // conv1 rows 4..=7 = sets {2, 3}.
        assert_eq!(
            of(&deps, 1, 3),
            &[SetRef { layer: 0, set: 2 }, SetRef { layer: 0, set: 3 }]
        );
        // conv1 has no base-layer predecessors.
        for s in 0..4 {
            assert_eq!(deps.fan_in(0, s), 0);
        }
    }

    #[test]
    fn fan_out_inverts_fan_in() {
        let g = fig5_graph();
        let (_, deps) = stages(&g, &SetPolicy::finest());
        let q = deps.fan_out();
        // conv1 set 0 feeds conv2 sets {0, 1} (the paper's Q relation).
        assert_eq!(
            q[0][0],
            vec![SetRef { layer: 1, set: 0 }, SetRef { layer: 1, set: 1 }]
        );
        // Edge count symmetry.
        let total_q: usize = q.iter().flatten().map(Vec::len).sum();
        assert_eq!(total_q, deps.num_edges());
    }

    #[test]
    fn single_set_policy_yields_full_dependencies() {
        let g = fig5_graph();
        let (layers, deps) = stages(&g, &SetPolicy::coarse(1));
        assert_eq!(layers[0].sets.len(), 1);
        assert_eq!(of(&deps, 1, 0), &[SetRef { layer: 0, set: 0 }]);
    }

    #[test]
    fn concat_branches_route_to_both_producers() {
        // Two conv branches concatenated on channels, then a consumer conv:
        // every consumer set depends on matching sets of both branches.
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(8, 8, 3),
                },
                &[],
            )
            .unwrap();
        let a = g.add("branch_a", conv_op(4, 1, 1), &[x]).unwrap(); // 8×8
        let b = g.add("branch_b", conv_op(4, 1, 1), &[x]).unwrap(); // 8×8
        let cat = g.add("cat", Op::Concat(cim_ir::Axis::C), &[a, b]).unwrap();
        g.add("head", conv_op(8, 1, 1), &[cat]).unwrap(); // 8×8
        let (_, deps) = stages(&g, &SetPolicy::finest());
        // head is layer 2; its set k depends on row k of both branches.
        for s in 0..8 {
            assert_eq!(
                of(&deps, 2, s),
                &[SetRef { layer: 0, set: s }, SetRef { layer: 1, set: s }]
            );
        }
    }

    #[test]
    fn residual_add_joins_identity_and_conv_paths() {
        // x → c1 → c2 → add(c1's output) → c3 (a ResNet-style skip).
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(8, 8, 4),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(4, 1, 1), &[x]).unwrap();
        let c2 = g.add("c2", conv_op(4, 1, 1), &[c1]).unwrap();
        let add = g.add("add", Op::Add, &[c1, c2]).unwrap();
        g.add("c3", conv_op(4, 1, 1), &[add]).unwrap();
        let (_, deps) = stages(&g, &SetPolicy::finest());
        // c3 (layer 2) set k needs row k of both c1 (skip) and c2 (main).
        for s in 0..8 {
            assert_eq!(
                of(&deps, 2, s),
                &[SetRef { layer: 0, set: s }, SetRef { layer: 1, set: s }]
            );
        }
        // c2 set k needs only c1 set k (1×1 kernel).
        for s in 0..8 {
            assert_eq!(of(&deps, 1, s), &[SetRef { layer: 0, set: s }]);
        }
    }

    #[test]
    fn upsample_halves_producer_fanin() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(4, 4, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(4, 1, 1), &[x]).unwrap(); // 4×4
        let up = g
            .add("up", Op::Upsample2d { factor: (2, 2) }, &[c1])
            .unwrap(); // 8×8
        g.add("c2", conv_op(4, 1, 1), &[up]).unwrap(); // 8×8
        let (_, deps) = stages(&g, &SetPolicy::finest());
        // c2 rows 2k and 2k+1 both map to c1 row k.
        for s in 0..8 {
            assert_eq!(
                of(&deps, 1, s),
                &[SetRef {
                    layer: 0,
                    set: s / 2
                }]
            );
        }
    }

    #[test]
    fn stride2_conv_consumes_two_producer_sets_per_set() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(11, 11, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(4, 1, 1), &[x]).unwrap(); // 11×11
        g.add("c2", conv_op(4, 3, 2), &[c1]).unwrap(); // 5×5
        let (_, deps) = stages(&g, &SetPolicy::finest());
        // c2 row r reads c1 rows 2r..=2r+2 → sets {2r, 2r+1, 2r+2}.
        for s in 0..5 {
            let expect: Vec<SetRef> = (2 * s..=2 * s + 2)
                .map(|k| SetRef { layer: 0, set: k })
                .collect();
            assert_eq!(of(&deps, 1, s), expect.as_slice());
        }
    }

    #[test]
    fn dense_depends_on_every_producer_set() {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(6, 6, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(4, 3, 1), &[x]).unwrap(); // 4×4
        let f = g.add("flat", Op::Flatten, &[c1]).unwrap();
        g.add(
            "fc",
            Op::Dense(cim_ir::DenseAttrs {
                units: 10,
                use_bias: false,
            }),
            &[f],
        )
        .unwrap();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        // Flatten forces c1 into a single set; fc depends on it.
        assert_eq!(layers[0].sets.len(), 1);
        assert_eq!(of(&deps, 1, 0), &[SetRef { layer: 0, set: 0 }]);
    }

    #[test]
    fn edges_iterator_matches_num_edges() {
        let g = fig5_graph();
        let (_, deps) = stages(&g, &SetPolicy::finest());
        assert_eq!(deps.edges().count(), deps.num_edges());
        assert!(deps.num_edges() > 0);
        // Every edge points backwards in layer order (topological).
        for (consumer, producer) in deps.edges() {
            assert!(producer.layer < consumer.layer);
        }
        deps.ensure_backward().unwrap();
    }

    #[test]
    fn mismatched_layers_rejected() {
        let g = fig5_graph();
        let costs = layer_costs(
            &g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        let mut layers = determine_sets(&g, &costs, &SetPolicy::finest()).unwrap();
        layers[0].node = NodeId(0); // the input node — not a base layer
        assert!(matches!(
            determine_dependencies(&g, &layers),
            Err(CoreError::StageMismatch { .. })
        ));
    }

    #[test]
    fn from_edges_dedups_into_the_csr_arena() {
        let edges = [
            (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 1 }),
            (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 0 }),
            (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 1 }), // dup
            (SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 1 }),
        ];
        let deps = Dependencies::from_edges(&[2, 2], &edges).unwrap();
        assert_eq!(deps.num_edges(), 3);
        assert_eq!(
            of(&deps, 1, 0),
            &[SetRef { layer: 0, set: 0 }, SetRef { layer: 0, set: 1 }]
        );
        assert_eq!(of(&deps, 1, 1), &[SetRef { layer: 0, set: 1 }]);
        let (offsets, producers) = deps.csr();
        assert_eq!(offsets, &[0, 0, 0, 2, 3]);
        assert_eq!(producers.len(), 3);
    }

    #[test]
    fn ensure_backward_rejects_forward_edges() {
        let deps = Dependencies::from_edges(
            &[1, 1],
            &[(SetRef { layer: 0, set: 0 }, SetRef { layer: 1, set: 0 })],
        )
        .unwrap();
        let err = deps.ensure_backward().unwrap_err();
        assert!(
            err.to_string().contains("not topologically earlier"),
            "{err}"
        );
    }

    /// `of` maps a row's global indices back to `(layer, set)` across
    /// several producer layers and over empty ones.
    #[test]
    fn of_walks_a_row_across_layers() {
        let r = |layer, set| SetRef { layer, set };
        let row = [r(0, 0), r(0, 1), r(2, 0), r(2, 2), r(4, 0)];
        let edges: Vec<_> = row.iter().rev().map(|&p| (r(3, 1), p)).collect();
        let deps = Dependencies::from_edges(&[2, 0, 3, 2, 1], &edges).unwrap();
        assert_eq!(of(&deps, 3, 1), row);
        assert_eq!(deps.of(3, 1).len(), row.len());
        assert_eq!(deps.fan_in(3, 0), 0);
        assert_eq!(deps.producers(deps.space().index(3, 1)), &[0, 1, 2, 4, 7]);
    }

    /// `ensure_backward` reads one producer per row but names the same
    /// first offending edge as a walk over every edge: the first row in
    /// consumer order with one, and in it the first producer at or past
    /// the consumer's layer.
    #[test]
    fn ensure_backward_names_the_first_offending_edge() {
        let r = |layer, set| SetRef { layer, set };
        let cases = [
            // A same-layer edge.
            (
                vec![2, 1],
                vec![(r(1, 0), r(0, 1)), (r(0, 1), r(0, 0))],
                "L0S0 of layer 0",
            ),
            // A forward edge, in a later row than a same-layer one.
            (
                vec![1, 2],
                vec![(r(0, 0), r(1, 1)), (r(1, 1), r(1, 0))],
                "L1S1 of layer 0",
            ),
            // Legal producers ahead of the offending one, and a forward
            // producer behind it in the same row.
            (
                vec![2, 2, 1],
                vec![
                    (r(1, 0), r(0, 0)),
                    (r(1, 1), r(0, 0)),
                    (r(1, 1), r(0, 1)),
                    (r(1, 1), r(1, 0)),
                    (r(1, 1), r(2, 0)),
                    (r(2, 0), r(2, 0)),
                ],
                "L1S0 of layer 1",
            ),
        ];
        for (counts, edges, named) in cases {
            let deps = Dependencies::from_edges(&counts, &edges).unwrap();
            let err = deps.ensure_backward().unwrap_err();
            assert!(matches!(err, CoreError::StageMismatch { .. }), "{err}");
            assert_eq!(
                err.to_string(),
                format!("stage input mismatch: dependency {named} is not topologically earlier")
            );
        }
    }

    /// Counts past `u32::MAX` are refused by the check every constructor
    /// runs before it allocates; the check itself allocates nothing.
    #[test]
    fn counts_past_u32_are_a_stage_mismatch() {
        let max = u32::MAX as usize;
        check_u32(0, "sets").unwrap();
        check_u32(max, "edges").unwrap();
        let err = check_u32(max + 1, "edges").unwrap_err();
        assert!(matches!(err, CoreError::StageMismatch { .. }), "{err}");
        assert_eq!(
            err.to_string(),
            "stage input mismatch: 4294967296 edges exceed the dependency CSR's u32 \
             indices (at most 4294967295)"
        );
        assert!(check_u32(usize::MAX, "sets").is_err());
    }

    /// A clone shares the CSR; a relation built separately has its own and
    /// still compares equal.
    #[test]
    fn clones_share_the_csr_and_equality_is_by_content() {
        let g = fig5_graph();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let clone = deps.clone();
        assert!(Arc::ptr_eq(deps.shared_csr(), clone.shared_csr()));
        let separate = determine_dependencies(&g, &layers).unwrap();
        assert!(!Arc::ptr_eq(deps.shared_csr(), separate.shared_csr()));
        assert_eq!(deps, separate);
        // Stage II's arena holds no spare capacity.
        assert_eq!(
            separate.csr.producers.capacity(),
            separate.csr.producers.len()
        );
        assert_eq!(separate.csr.offsets.capacity(), separate.csr.offsets.len());
    }

    #[test]
    fn deserializing_an_out_of_range_edge_fails() {
        let json = r#"{"deps":[[[]],[[{"layer":0,"set":5}]]]}"#;
        let err = serde_json::from_str::<Dependencies>(json).unwrap_err();
        assert!(err.to_string().contains("L0S5 of L1S0"), "{err}");
        let json = r#"{"deps":[[[{"layer":2,"set":0}]]]}"#;
        let err = serde_json::from_str::<Dependencies>(json).unwrap_err();
        assert!(err.to_string().contains("L2S0 of L0S0"), "{err}");
    }

    /// A walk that reaches a base layer without a Stage-I entry fails with
    /// the reference's error; a missing layer no walk reaches is no error.
    #[test]
    fn missing_producer_sets_fail_only_when_reached() {
        let g = fig5_graph();
        let (layers, _) = stages(&g, &SetPolicy::finest());
        let without_conv1 = &layers[1..];
        let err = determine_dependencies(&g, without_conv1).unwrap_err();
        assert!(matches!(err, CoreError::StageMismatch { .. }), "{err}");
        assert_eq!(
            err.to_string(),
            "stage input mismatch: base layer `conv1` has no Stage-I sets"
        );
        let naive = crate::reference::determine_dependencies_naive(&g, without_conv1);
        assert_eq!(naive.unwrap_err().to_string(), err.to_string());
        // conv2 is a consumer only: walking back from conv1 never meets it.
        let deps = determine_dependencies(&g, &layers[..1]).unwrap();
        assert_eq!(deps.num_edges(), 0);
    }

    /// A layer duplicated more times than its OFM has rows is cut into
    /// column bands joined by a `Concat(W)`; the walk through it matches
    /// the reference.
    #[test]
    fn column_cut_duplicates_match_the_reference() {
        use cim_mapping::{apply_duplication, DuplicationPlan};

        let mut g = Graph::new("wide");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(6, 16, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(4, 3, 1), &[x]).unwrap(); // 4×14
        let a = g.add("act", Op::Activation(ActFn::Relu), &[c1]).unwrap();
        let c2 = g.add("c2", conv_op(4, 3, 1), &[a]).unwrap(); // 2×12
        g.add("c3", conv_op(4, 1, 1), &[c2]).unwrap(); // 2×12
        let xbar = CrossbarSpec::wan_nature_2022();
        let costs = layer_costs(&g, &xbar, &MappingOptions::default()).unwrap();
        let plan = DuplicationPlan {
            duplicates: vec![6, 5, 1],
            pes_used: 0,
            objective_cycles: 0.0,
        };
        let dup = apply_duplication(&g, &costs, &plan).unwrap();
        let column_concats = dup
            .iter()
            .filter(|n| matches!(n.op, Op::Concat(cim_ir::Axis::W)))
            .count();
        assert_eq!(column_concats, 2);
        let dup_costs = layer_costs(&dup, &xbar, &MappingOptions::default()).unwrap();
        for policy in [SetPolicy::finest(), SetPolicy::coarse(1)] {
            let layers = determine_sets(&dup, &dup_costs, &policy).unwrap();
            assert_eq!(layers.len(), 12);
            let fast = determine_dependencies(&dup, &layers).unwrap();
            let naive = crate::reference::determine_dependencies_naive(&dup, &layers).unwrap();
            assert_eq!(fast, naive, "{policy:?}");
            assert!(fast.num_edges() > 0);
        }
    }

    /// Twenty stacked `relu`/`relu`/`add` diamonds fold into one fan
    /// holding `c1` once (`2^20` copies without the dedup on join), and
    /// the relation is the direct conv → conv chain's.
    #[test]
    fn stacked_diamonds_fold_into_one_destination() {
        let g = crate::sets::stacked_diamonds(20);
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let space = SetSpace::of_layers(&layers);
        let program = Program::compile(&g, &layers, &space).unwrap();
        let entry = &program.branches[program.entries[1].clone()];
        assert_eq!(entry.len(), 1);
        assert_eq!(entry[0].fan.len(), 1);
        assert!(matches!(program.dests[entry[0].fan.start], Dest::Layer(0)));

        let (_, direct) = stages(&crate::sets::stacked_diamonds(0), &SetPolicy::finest());
        assert_eq!(deps, direct);
        let small = crate::sets::stacked_diamonds(6);
        let (layers, deps) = stages(&small, &SetPolicy::finest());
        let naive = crate::reference::determine_dependencies_naive(&small, &layers).unwrap();
        assert_eq!(deps, naive);
        assert_eq!(deps, direct);
    }

    /// Diamonds of two equal pools (`x → pool`, `x → pool`, `add`) share
    /// one hop, so each join keeps one: forty of them compile to forty
    /// hops and a walk in linear time, where each set would otherwise
    /// walk `2^40` paths.
    #[test]
    fn stacked_pool_diamonds_take_linear_time() {
        let g = crate::sets::stacked_pools(40, true);
        let costs = layer_costs(
            &g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        let layers = determine_sets(&g, &costs, &SetPolicy::finest()).unwrap();
        // The program is checked before any walk, which would not end
        // without the sharing.
        let space = SetSpace::of_layers(&layers);
        let program = Program::compile(&g, &layers, &space).unwrap();
        assert_eq!(program.hops.len(), 40);
        let entry = &program.branches[program.entries[1].clone()];
        assert_eq!(entry.len(), 1);
        assert_eq!(entry[0].fan.len(), 1);
        // Each of c2's 14 rows reads c1 rows widened by a row per pool on
        // each side: all 16 of them.
        let deps = determine_dependencies(&g, &layers).unwrap();
        assert_eq!(deps.num_edges(), 14 * 16);
    }

    /// The relation through pooling diamonds is the naive walk's, and that
    /// of the chain with each diamond replaced by one pool.
    #[test]
    fn stacked_pool_diamonds_match_the_reference_and_the_chain() {
        let small = crate::sets::stacked_pools(6, true);
        let (layers, deps) = stages(&small, &SetPolicy::finest());
        let naive = crate::reference::determine_dependencies_naive(&small, &layers).unwrap();
        assert_eq!(deps, naive);
        for k in [6, 40] {
            let (_, diamonds) = stages(&crate::sets::stacked_pools(k, true), &SetPolicy::finest());
            let (_, chain) = stages(&crate::sets::stacked_pools(k, false), &SetPolicy::finest());
            assert_eq!(diamonds, chain, "{k} diamonds");
        }
    }

    /// A consumer set whose paths reach a later producer layer before an
    /// earlier one, and one layer along two paths with overlapping rows,
    /// gets its ranges sorted and merged: its row is the reference's.
    #[test]
    fn ranges_out_of_order_and_overlapping_match_the_reference() {
        let pool = |k: usize| {
            Op::MaxPool2d(PoolAttrs {
                window: (k, k),
                stride: (1, 1),
                padding: Padding::Same,
            })
        };
        let mut g = Graph::new("t");
        let input = Op::Input {
            shape: FeatureShape::new(12, 12, 3),
        };
        let x = g.add("input", input, &[]).unwrap();
        let c1 = g.add("c1", conv_op(4, 1, 1), &[x]).unwrap();
        let c2 = g.add("c2", conv_op(4, 1, 1), &[c1]).unwrap();
        let p = g.add("p", pool(3), &[c2]).unwrap();
        // The join's fan is [hop p → c2, c1]: c2's range comes first.
        let later_first = g.add("later_first", Op::Add, &[p, c1]).unwrap();
        let q = g.add("q", pool(5), &[c1]).unwrap();
        // And c1 again, two rows wider on each side, through q.
        let overlap = g.add("overlap", Op::Add, &[later_first, q]).unwrap();
        g.add("c3", conv_op(4, 1, 1), &[overlap]).unwrap();
        let (layers, deps) = stages(&g, &SetPolicy::finest());
        let naive = crate::reference::determine_dependencies_naive(&g, &layers).unwrap();
        assert_eq!(deps, naive);
        // c3's row 5 needs c1 rows 3..=7 (q's window) and c2 rows 4..=6.
        let row: Vec<SetRef> = (3..=7)
            .map(|set| SetRef { layer: 0, set })
            .chain((4..=6).map(|set| SetRef { layer: 1, set }))
            .collect();
        assert_eq!(of(&deps, 2, 5), row);
    }

    /// Joins keep each destination's first occurrence, so a walk still
    /// fails on the first base layer without sets that it reaches, with
    /// the reference's text.
    #[test]
    fn a_join_reports_the_first_unset_layer_it_reaches() {
        let mut g = Graph::new("t");
        let input = Op::Input {
            shape: FeatureShape::new(8, 8, 3),
        };
        let x = g.add("input", input, &[]).unwrap();
        let a = g.add("a", conv_op(4, 1, 1), &[x]).unwrap();
        let b = g.add("b", conv_op(4, 1, 1), &[x]).unwrap();
        let ab = g.add("ab", Op::Add, &[a, b]).unwrap();
        let ba = g.add("ba", Op::Add, &[b, a]).unwrap();
        let both = g.add("both", Op::Add, &[ba, ab]).unwrap();
        g.add("head", conv_op(4, 1, 1), &[both]).unwrap();
        let (layers, _) = stages(&g, &SetPolicy::finest());
        let [a, b, head] = [0, 1, 2].map(|i| layers[i].clone());
        // `both` joins [b, a] and then [a, b] into [b, a]: with neither
        // producer set, b is reached first.
        for (kept, missing) in [
            (vec![b, head.clone()], "a"),
            (vec![a, head.clone()], "b"),
            (vec![head], "b"),
        ] {
            let err = determine_dependencies(&g, &kept).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("stage input mismatch: base layer `{missing}` has no Stage-I sets")
            );
            let naive = crate::reference::determine_dependencies_naive(&g, &kept);
            assert_eq!(naive.unwrap_err().to_string(), err.to_string());
        }
    }

    #[test]
    fn serde_format_is_the_legacy_nested_shape() {
        let g = fig5_graph();
        let (_, deps) = stages(&g, &SetPolicy::finest());
        let json = serde_json::to_string(&deps).unwrap();
        // Wire format: {"deps": [[[{"layer":..,"set":..}, ...], ...], ...]}
        assert!(json.starts_with("{\"deps\":[["), "{json}");
        let back: Dependencies = serde_json::from_str(&json).unwrap();
        assert_eq!(back, deps);
        // CSR internals survive the round-trip exactly.
        assert_eq!(back.csr(), deps.csr());
    }
}
