//! Precomputed per-edge cost tables ([`CostedDeps`]).
//!
//! The Stage III/IV longest-path sweep, the schedule validator, and the
//! `cim-sim` event engine all charge every cross-layer data edge a latency
//! from the [`EdgeCost`] model. That latency is **invariant per `(mapping,
//! EdgeCost)` pair** — it depends only on the producer/consumer layer
//! placement and the producer set's byte count, never on the schedule
//! being built — yet the pre-CSR code recomputed it (`hops_between` +
//! `set_bytes` + the model branch) for every edge of every batch instance:
//! `O(batch × edges)` redundant work in the hottest loop of every sweep.
//!
//! [`CostedDeps::build`] hoists all of it, and builds up front only what
//! the schedulers, the validator and the metrics read: per-set byte
//! counts and per-edge `u64` latencies. The edges themselves are not
//! copied: the table holds the dependency relation's own CSR (a clone of
//! its `Arc`), so each set's producer indices are the relation's. The
//! consumers of the tables never touch [`EdgeCost`] again. Two things are
//! deliberately not stored per edge:
//!
//! * latencies under [`EdgeCost::Free`], where every edge costs 0 — each
//!   latency slice is a prefix of one zero buffer as long as the widest
//!   row, so a free table adds only its per-set bytes to the relation;
//! * hop counts, which depend only on the two layers of an edge — the
//!   table keeps each layer's home-tile position and
//!   [`CostedDeps::hops_between`] measures the XY distance.
//!
//! The producer-side fan-out CSR ([`FanOut`]) is read only by the event
//! engine, so it is built on the first [`CostedDeps::fanout`] call and
//! kept inside the table; a table that is only scheduled and validated
//! never holds one.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use cim_arch::TileCoord;

use crate::deps::{Csr, Dependencies, SetRef};
use crate::error::{CoreError, Result};
use crate::schedule::{set_bytes, EdgeCost};
use crate::sets::LayerSets;
use crate::space::SetSpace;

/// Flat, precomputed edge-cost tables for one `(mapping, EdgeCost)` pair.
///
/// Indexing follows the [`SetSpace`] of the [`Dependencies`] it was built
/// from, whose CSR the table shares: the latencies are aligned
/// edge-for-edge with [`Dependencies::producers`] / [`Dependencies::csr`].
/// Equality ignores whether the fan-out has been built, since it is
/// derived from the other fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostedDeps {
    space: SetSpace,
    /// Bytes forwarded when the set with global index `i` is consumed
    /// (one byte per OFM element, 8-bit activations).
    bytes: Vec<u64>,
    /// The consumer-side CSR: the dependency relation's own, shared, so
    /// the tables stay usable without the originating `Dependencies`.
    deps: Arc<Csr>,
    /// Per consumer edge: precomputed latency in cycles. Stored per edge
    /// exactly when the model moves data, i.e. not under
    /// [`EdgeCost::Free`].
    dep_latency: Latencies,
    /// Mesh position of each layer's home tile, the two ends of every hop
    /// count; empty under [`EdgeCost::Free`].
    homes: Vec<TileCoord>,
    /// The producer-side fan-out CSR, built on first use.
    fanout: LazyFanOut,
}

/// Per-edge latencies of one CSR side.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Latencies {
    /// [`EdgeCost::Free`]: every edge costs 0. Holds as many zeros as the
    /// widest row has edges; each row's slice is a prefix.
    Zero(Vec<u64>),
    /// One latency per edge, in edge order.
    PerEdge(Vec<u64>),
}

impl Latencies {
    /// The latencies of the edges in `r`.
    #[inline]
    fn of(&self, r: Range<usize>) -> &[u64] {
        match self {
            Latencies::Zero(zeros) => &zeros[..r.len()],
            Latencies::PerEdge(latency) => &latency[r],
        }
    }
}

/// The producer-side view of a [`CostedDeps`] table: for each producer
/// set, the consumer sets it feeds and the latency of each edge. Obtained
/// from [`CostedDeps::fanout`].
#[derive(Debug, Clone)]
pub struct FanOut {
    /// Fan-out CSR offsets, per producer global index.
    offsets: Vec<u32>,
    /// Per fan-out edge: the consumer set.
    consumers: Vec<SetRef>,
    /// Per fan-out edge: the latency of the consumer-side edge it mirrors.
    latency: Latencies,
}

impl FanOut {
    /// The consumer sets fed by the set with global index `i`, with the
    /// latency of each edge.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn outgoing(&self, i: usize) -> (&[SetRef], &[u64]) {
        let r = self.offsets[i] as usize..self.offsets[i + 1] as usize;
        (&self.consumers[r.clone()], self.latency.of(r))
    }
}

/// A fan-out slot filled on first use. The fan-out is a function of the
/// rest of the table, so it never makes two tables differ.
#[derive(Debug, Clone, Default)]
struct LazyFanOut(OnceLock<FanOut>);

impl PartialEq for LazyFanOut {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for LazyFanOut {}

/// XY hop count between two mesh positions.
fn hops(a: TileCoord, b: TileCoord) -> u64 {
    (a.row.abs_diff(b.row) + a.col.abs_diff(b.col)) as u64
}

/// The number of edges in the widest row of a CSR `offsets` table.
fn widest_row(offsets: &[u32]) -> usize {
    offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0) as usize
}

impl CostedDeps {
    /// Precomputes every edge latency of `deps` under `edge_cost`.
    ///
    /// Runs once per `(mapping, EdgeCost)` pair; the result serves any
    /// number of schedule constructions, validations, and simulations.
    /// Topological sanity of the edges is deliberately **not** checked
    /// here (the event engine legitimately consumes cyclic inputs to
    /// detect deadlocks); the analytic schedulers run
    /// [`Dependencies::ensure_backward`] themselves.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StageMismatch`] when `layers` and `deps` cover
    /// different shapes, and propagates architecture errors from the cost
    /// model (placement/architecture disagreement).
    pub fn build(
        layers: &[LayerSets],
        deps: &Dependencies,
        edge_cost: &EdgeCost,
    ) -> Result<Self> {
        let space = SetSpace::of_layers(layers);
        if !space.same_shape(deps.space()) {
            return Err(CoreError::StageMismatch {
                detail: format!(
                    "dependencies cover {} layers, sets cover {}",
                    deps.num_layers(),
                    layers.len()
                ),
            });
        }

        // Per-set forwarding bytes (mapping-invariant).
        let mut bytes = Vec::with_capacity(space.total_sets());
        for l in layers {
            for s in 0..l.sets.len() {
                bytes.push(set_bytes(l, s));
            }
        }

        let csr = Arc::clone(deps.shared_csr());
        let (dep_latency, homes) = match edge_cost {
            EdgeCost::Free => (Latencies::Zero(vec![0; widest_row(csr.offsets())]), Vec::new()),
            EdgeCost::NocHops { arch, placement } | EdgeCost::NocAndGpeu { arch, placement } => {
                let noc = arch.noc();
                let homes = (0..space.num_layers())
                    .map(|l| noc.coord(placement.home_tile(l)))
                    .collect::<cim_arch::Result<Vec<_>>>()?;
                let gpeu = match edge_cost {
                    EdgeCost::NocAndGpeu { .. } => Some(arch.tile().gpeu_ops_per_cycle as u64),
                    _ => None,
                };
                // The home tile of every set's layer, so each edge finds
                // its producer's without searching the layer starts.
                let mut home_of = Vec::with_capacity(space.total_sets());
                for (l, &home) in homes.iter().enumerate() {
                    home_of.extend(std::iter::repeat_n(home, space.sets_in(l)));
                }
                // Walk consumers in arena order so each edge knows its
                // consumer layer without searching the offset table.
                let mut latency = Vec::with_capacity(csr.producers().len());
                for (c_layer, &c_home) in homes.iter().enumerate() {
                    let sets = space.layer_range(c_layer);
                    let r = csr.offsets()[sets.start] as usize..csr.offsets()[sets.end] as usize;
                    for &p in &csr.producers()[r] {
                        let p = p as usize;
                        let mut lat = hops(home_of[p], c_home) * noc.hop_latency_cycles;
                        if let Some(g) = gpeu {
                            lat += bytes[p].div_ceil(g);
                        }
                        latency.push(lat);
                    }
                }
                (Latencies::PerEdge(latency), homes)
            }
        };

        Ok(Self {
            space,
            bytes,
            deps: csr,
            dep_latency,
            homes,
            fanout: LazyFanOut::default(),
        })
    }

    /// The zero-cost table for the paper's peak-performance model —
    /// equivalent to `build(layers, deps, &EdgeCost::Free)` but spelled
    /// out as the infallible fast path `prepare` caches.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StageMismatch`] when `layers` and `deps` cover
    /// different shapes.
    pub fn free(layers: &[LayerSets], deps: &Dependencies) -> Result<Self> {
        Self::build(layers, deps, &EdgeCost::Free)
    }

    /// The global index space the tables are sliced by.
    pub fn space(&self) -> &SetSpace {
        &self.space
    }

    /// Bytes forwarded per consumption of the set with global index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set_bytes(&self, i: usize) -> u64 {
        self.bytes[i]
    }

    /// Consumer-side view of the set with global index `i`: per incoming
    /// edge, the producer's global index and the precomputed latency
    /// (aligned with [`Dependencies::producers`] of the originating
    /// relation).
    #[inline]
    pub fn incoming(&self, i: usize) -> (&[u32], &[u64]) {
        let r = self.deps.row_range(i);
        (&self.deps.producers()[r.clone()], self.dep_latency.of(r))
    }

    /// Latencies of the edges into set `s` of layer `l`, aligned with
    /// [`Dependencies::of`].
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[inline]
    pub fn latencies_of(&self, l: usize, s: usize) -> &[u64] {
        self.incoming(self.space.index(l, s)).1
    }

    /// NoC hop count of an edge from layer `from` to layer `to`: the XY
    /// distance between the two layers' home tiles, or 0 when the model
    /// moves no data ([`EdgeCost::Free`]).
    ///
    /// # Panics
    ///
    /// Panics if a layer index is out of range of a NoC-model table.
    #[inline]
    pub fn hops_between(&self, from: usize, to: usize) -> u64 {
        if self.homes.is_empty() {
            return 0;
        }
        hops(self.homes[from], self.homes[to])
    }

    /// Whether this table was built from exactly `deps`' edges — same set
    /// space *and* the same CSR. The schedulers, the validator, and the
    /// event engine refuse mismatched tables: a same-shaped table from
    /// different edges would silently skip or mis-weight dependency checks.
    /// A table built from `deps` or a clone of it holds the very same CSR,
    /// so the answer costs one pointer comparison; only a relation built
    /// separately is compared edge by edge.
    pub fn matches(&self, deps: &Dependencies) -> bool {
        let csr = deps.shared_csr();
        self.space.same_shape(deps.space()) && (Arc::ptr_eq(&self.deps, csr) || *self.deps == **csr)
    }

    /// The producer-side fan-out CSR. Only the event engine reads it, so
    /// the first call builds it (one counting sort over the consumer side)
    /// and later calls, from any thread, share that copy.
    pub fn fanout(&self) -> &FanOut {
        self.fanout.0.get_or_init(|| self.build_fanout())
    }

    /// Counting-sorts the consumer-side edges by producer.
    fn build_fanout(&self) -> FanOut {
        let total = self.space.total_sets();
        let producers = self.deps.producers();
        let mut counts = vec![0u32; total + 1];
        for &p in producers {
            counts[p as usize + 1] += 1;
        }
        for i in 0..total {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut consumers = vec![SetRef { layer: 0, set: 0 }; producers.len()];
        let mut latency = match &self.dep_latency {
            Latencies::Zero(_) => Latencies::Zero(vec![0; widest_row(&offsets)]),
            Latencies::PerEdge(_) => Latencies::PerEdge(vec![0; producers.len()]),
        };
        for l in 0..self.space.num_layers() {
            for s in 0..self.space.sets_in(l) {
                for k in self.deps.row_range(self.space.index(l, s)) {
                    let p = producers[k] as usize;
                    let slot = cursor[p] as usize;
                    cursor[p] += 1;
                    consumers[slot] = SetRef { layer: l, set: s };
                    if let (Latencies::PerEdge(out), Latencies::PerEdge(dep)) =
                        (&mut latency, &self.dep_latency)
                    {
                        out[slot] = dep[k];
                    }
                }
            }
        }
        FanOut {
            offsets,
            consumers,
            latency,
        }
    }

    /// Whether the fan-out has been built (see [`fanout`](Self::fanout)).
    #[cfg(test)]
    pub(crate) fn fanout_built(&self) -> bool {
        self.fanout.0.get().is_some()
    }

    /// Whether this table holds `deps`' own CSR rather than a copy.
    #[cfg(test)]
    pub(crate) fn shares_csr_of(&self, deps: &Dependencies) -> bool {
        Arc::ptr_eq(&self.deps, deps.shared_csr())
    }

    /// Whether the underlying model moves data over the NoC (false for
    /// [`EdgeCost::Free`] — no traffic, no transfer energy).
    pub fn tracks_transfers(&self) -> bool {
        matches!(self.dep_latency, Latencies::PerEdge(_))
    }

    /// Total number of edges covered.
    pub fn num_edges(&self) -> usize {
        self.deps.producers().len()
    }

    /// Total bytes forwarded over all cross-layer dependency edges per
    /// inference — each edge charges its producer set's byte count, so a
    /// set feeding `k` consumers contributes `k × bytes`. This is the
    /// mapping's NoC traffic volume, one of the tuner's Pareto axes; it
    /// is independent of the edge-cost *model* (the byte table is the
    /// same for [`EdgeCost::Free`] and the NoC models over one mapping).
    pub fn total_dep_bytes(&self) -> u64 {
        self.deps
            .producers()
            .iter()
            .map(|&p| self.bytes[p as usize])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::{place_groups, Architecture, PlacementStrategy, TileSpec};
    use cim_ir::{FeatureShape, NodeId};

    use crate::sets::SetBands;

    fn layer(nsets: usize, width: usize, pes: usize) -> LayerSets {
        LayerSets {
            node: NodeId(0),
            name: format!("l{nsets}x{width}"),
            logical: 0,
            ofm: FeatureShape::new(nsets, width, 1),
            pes,
            quantum: 1,
            sets: SetBands::new(nsets, width, 1),
        }
    }

    fn workload() -> (Vec<LayerSets>, Dependencies) {
        let layers = vec![layer(2, 4, 1), layer(2, 8, 1)];
        let deps = Dependencies::from_edges(
            &[2, 2],
            &[
                (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 0 }),
                (SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 0 }),
                (SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 1 }),
            ],
        )
        .unwrap();
        (layers, deps)
    }

    /// A `NocAndGpeu` table over `workload()`: two one-PE groups on
    /// one-PE tiles, 5-cycle hops, a 2-op/cycle GPEU.
    fn noc_gpeu_cost() -> EdgeCost {
        let arch = Architecture::builder()
            .tile(TileSpec {
                pes_per_tile: 1,
                gpeu_ops_per_cycle: 2,
                ..TileSpec::isaac_like()
            })
            .noc_hop_latency(5)
            .pes(2)
            .build()
            .unwrap();
        let placement = place_groups(&arch, &[1, 1], PlacementStrategy::Contiguous).unwrap();
        EdgeCost::NocAndGpeu { arch, placement }
    }

    #[test]
    fn free_model_is_all_zeros() {
        let (layers, deps) = workload();
        let c = CostedDeps::free(&layers, &deps).unwrap();
        assert_eq!(c.num_edges(), 3);
        assert!(!c.tracks_transfers());
        for l in 0..2 {
            for s in 0..2 {
                assert!(c.latencies_of(l, s).iter().all(|&x| x == 0));
            }
        }
        // Byte table: one byte per OFM element.
        assert_eq!(c.set_bytes(c.space().index(0, 0)), 4);
        assert_eq!(c.set_bytes(c.space().index(1, 1)), 8);
        // Edge traffic: (0,0) feeds two consumers, (0,1) one → 2·4 + 4.
        assert_eq!(c.total_dep_bytes(), 12);
    }

    #[test]
    fn latencies_match_the_edge_cost_model() {
        let (layers, deps) = workload();
        let cost = noc_gpeu_cost();
        let c = CostedDeps::build(&layers, &deps, &cost).unwrap();
        assert!(c.tracks_transfers());
        // Every edge goes layer 0 → layer 1: hops(0,1) × 5 + 4 bytes / 2.
        let expect = cost.cycles(0, 1, 4).unwrap();
        for (k, &lat) in c.latencies_of(1, 0).iter().enumerate() {
            assert_eq!(lat, expect, "edge {k}");
        }
        for (si, want) in deps.of(1, 1).zip(c.latencies_of(1, 1)) {
            let bytes = set_bytes(&layers[si.layer], si.set);
            assert_eq!(*want, cost.cycles(si.layer, 1, bytes).unwrap());
        }
    }

    #[test]
    fn fanout_mirrors_the_consumer_side() {
        let (layers, deps) = workload();
        let free = CostedDeps::free(&layers, &deps).unwrap();
        let fanout = free.fanout();
        let index = |l, s| free.space().index(l, s);
        // Set (0,0) feeds (1,0) and (1,1); set (0,1) feeds (1,1).
        let (consumers, lat) = fanout.outgoing(index(0, 0));
        assert_eq!(
            consumers,
            &[SetRef { layer: 1, set: 0 }, SetRef { layer: 1, set: 1 }]
        );
        assert_eq!(lat, &[0, 0]);
        assert_eq!(
            fanout.outgoing(index(0, 1)).0,
            &[SetRef { layer: 1, set: 1 }]
        );
        // Consumers have no fan-out.
        assert!(fanout.outgoing(index(1, 0)).0.is_empty());

        // Under a NoC model every fan-out edge carries the latency and
        // the hop count of the consumer-side edge it mirrors, and the two
        // views hold the same edges.
        let cost = noc_gpeu_cost();
        let EdgeCost::NocAndGpeu { arch, placement } = &cost else {
            unreachable!()
        };
        for c in [free, CostedDeps::build(&layers, &deps, &cost).unwrap()] {
            let mut from_fanout = Vec::new();
            for p in 0..c.space().num_layers() {
                for ps in 0..c.space().sets_in(p) {
                    let (consumers, lat) = c.fanout().outgoing(c.space().index(p, ps));
                    assert_eq!(consumers.len(), lat.len());
                    for (con, &lat) in consumers.iter().zip(lat) {
                        from_fanout.push((SetRef { layer: p, set: ps }, *con, lat));
                    }
                }
            }
            let mut from_consumers = Vec::new();
            for l in 0..c.space().num_layers() {
                for s in 0..c.space().sets_in(l) {
                    let (producers, lat) = c.incoming(c.space().index(l, s));
                    assert_eq!(lat, c.latencies_of(l, s));
                    for (p, (&pi, &lat)) in deps.of(l, s).zip(producers.iter().zip(lat)) {
                        assert_eq!(pi as usize, c.space().index(p.layer, p.set));
                        from_consumers.push((p, SetRef { layer: l, set: s }, lat));
                        let want = if c.tracks_transfers() {
                            placement.hops_between(arch, p.layer, l).unwrap() as u64
                        } else {
                            0
                        };
                        assert_eq!(c.hops_between(p.layer, l), want);
                    }
                }
            }
            from_fanout.sort();
            from_consumers.sort();
            assert_eq!(from_fanout, from_consumers);
            assert_eq!(from_fanout.len(), c.num_edges());
        }
    }

    #[test]
    fn free_tables_store_no_per_edge_latency() {
        let (layers, deps) = workload();
        let free = CostedDeps::free(&layers, &deps).unwrap();
        // Three edges, but set (1,1) has the widest fan-in (2) and set
        // (0,0) the widest fan-out (2).
        assert_eq!(free.dep_latency, Latencies::Zero(vec![0; 2]));
        assert!(free.homes.is_empty());
        assert_eq!(free.fanout().latency, Latencies::Zero(vec![0; 2]));
        let noc = CostedDeps::build(&layers, &deps, &noc_gpeu_cost()).unwrap();
        assert!(matches!(&noc.dep_latency, Latencies::PerEdge(l) if l.len() == 3));
        assert_eq!(noc.homes.len(), 2);
    }

    #[test]
    fn fanout_is_built_on_first_use_and_ignored_by_equality() {
        let (layers, deps) = workload();
        for cost in [EdgeCost::Free, noc_gpeu_cost()] {
            let c = CostedDeps::build(&layers, &deps, &cost).unwrap();
            let fresh = c.clone();
            assert!(!c.fanout_built());
            let _ = c.fanout();
            assert!(c.fanout_built());
            assert!(!fresh.fanout_built());
            assert_eq!(c, fresh);
            // A clone after the build carries the fan-out along.
            assert!(c.clone().fanout_built());
        }
    }

    /// Both kinds of table hold the relation's own CSR, as does a table
    /// built from a clone of the relation; a copy would double the edges.
    #[test]
    fn tables_share_the_relations_csr() {
        let (layers, deps) = workload();
        let free = CostedDeps::free(&layers, &deps).unwrap();
        let noc = CostedDeps::build(&layers, &deps, &noc_gpeu_cost()).unwrap();
        assert!(free.shares_csr_of(&deps));
        assert!(noc.shares_csr_of(&deps));
        assert!(free.shares_csr_of(&deps.clone()));
        assert!(CostedDeps::free(&layers, &deps.clone())
            .unwrap()
            .shares_csr_of(&deps));
        // A relation built separately holds its own.
        let separate = serde_json::from_str(&serde_json::to_string(&deps).unwrap()).unwrap();
        assert!(!free.shares_csr_of(&separate));
    }

    /// A table matches its own relation and an equal one built separately,
    /// which it does not share a CSR with.
    #[test]
    fn matches_an_equal_relation_built_separately() {
        let (layers, deps) = workload();
        let (_, twin) = workload();
        let round_trip: Dependencies =
            serde_json::from_str(&serde_json::to_string(&deps).unwrap()).unwrap();
        for cost in [EdgeCost::Free, noc_gpeu_cost()] {
            let costed = CostedDeps::build(&layers, &deps, &cost).unwrap();
            assert!(costed.matches(&deps));
            assert!(costed.matches(&deps.clone()));
            for separate in [&twin, &round_trip] {
                assert!(!costed.shares_csr_of(separate));
                assert!(costed.matches(separate));
            }
        }
    }

    #[test]
    fn matches_detects_same_shaped_but_different_edges() {
        let (layers, deps) = workload();
        let costed = CostedDeps::free(&layers, &deps).unwrap();
        assert!(costed.matches(&deps));
        // Same per-layer set counts, different edge set: must not match —
        // a zip over mismatched arenas would silently skip or mis-weight
        // dependency checks downstream.
        let other = Dependencies::from_edges(
            &[2, 2],
            &[(SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 1 })],
        )
        .unwrap();
        assert!(!costed.matches(&other));
        // Same edge count, different producer: still a mismatch.
        let swapped = Dependencies::from_edges(
            &[2, 2],
            &[
                (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 1 }),
                (SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 0 }),
                (SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 1 }),
            ],
        )
        .unwrap();
        assert_eq!(swapped.num_edges(), deps.num_edges());
        assert!(!costed.matches(&swapped));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (layers, deps) = workload();
        assert!(matches!(
            CostedDeps::free(&layers[..1], &deps),
            Err(CoreError::StageMismatch { .. })
        ));
    }
}
