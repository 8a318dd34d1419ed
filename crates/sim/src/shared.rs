//! The shared-fabric event core: N tenant event streams over one chip.
//!
//! This is the engine behind both [`Simulator`](crate::Simulator) and the
//! multi-tenant fabric simulation in `cim-fabric`. One event heap
//! interleaves every tenant's completions, ordered by `(finish, tenant,
//! layer, set)` — the single-tenant path is literally the `N == 1` special
//! case with an uncontended fabric, so the two can never drift apart.
//!
//! Three contention points are modelled, all inactive under
//! [`FabricContention::uncontended`]:
//!
//! * **Tile occupancy** — a tile executes one tenant's sets at a time.
//!   Ownership is tracked as a rolling window per tile: same-tenant
//!   bookings extend the window freely; a cross-tenant booking waits until
//!   the current window ends (arbitration is reservation-order, which is
//!   event-order, which is deterministic).
//! * **Link bandwidth** — a finite per-link byte budget serializes
//!   cross-tile messages: each message reserves every directed link of its
//!   XY route for `ceil(bytes / bandwidth)` cycles, injecting when the
//!   busiest link on the route frees up.
//! * **Weight residency** — each (tenant, layer) weight block occupies
//!   `pes` units of fabric capacity while resident. When a booking would
//!   overflow the capacity, least-recently-used blocks are evicted; an
//!   evicted block charges `pes × reload_cycles_per_pe` cycles on its next
//!   booking (the first-ever load is free — weights are pre-programmed).
//!
//! Fabric state lives in dense tables sized once per run, so per-set and
//! per-message bookkeeping is array indexing: one ownership window per
//! *distinct* home tile (each layer's slot resolved at set-up), one
//! link-free cycle per directed mesh link at `4 × (row × cols + col) +
//! direction` of its source tile (0 east, 1 west, 2 south, 3 north; routes
//! are walked by arithmetic, never stored), and one weight block per
//! (tenant, layer), the resident ones on an intrusive recency list (a hit
//! moves a block to the tail, an eviction pops the head).
//!
//! Determinism law: the outcome is a pure function of the workloads (in
//! slice order) and the fabric spec. No clocks, no entropy, no hash maps
//! and no iteration-order-dependent state: every table is a `Vec` indexed
//! by integers fixed at set-up, and the recency list orders blocks by
//! booking sequence, which is event order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use cim_arch::{EnergyLog, FabricSpec, NocSpec, TileCoord, TileId};
use clsa_core::{CostedDeps, Dependencies, FanOut, LayerSets, Schedule, SetTime};

use crate::engine::SimResult;
use crate::error::{Result, SimError};
use crate::stats::{GroupStats, SimStats};

/// One tenant's workload: the Stage-I/II artifacts plus its fabric
/// context (arrival time and per-group home tiles).
#[derive(Debug)]
pub struct TenantWorkload<'a> {
    /// Stage-I sets of every base layer.
    pub layers: &'a [LayerSets],
    /// Stage-II dependencies over those sets.
    pub deps: &'a Dependencies,
    /// Precomputed edge-cost tables (must match `deps`). The run builds
    /// the table's fan-out CSR if no earlier run has.
    pub costed: &'a CostedDeps,
    /// Cycle at which this tenant's first set may start.
    pub arrival: u64,
    /// Home tile per PE group (one per layer). `None` disables tile
    /// occupancy and link contention for this tenant — the single-tenant
    /// compatibility mode.
    pub home_tiles: Option<Vec<TileId>>,
}

/// The fabric's shared-resource model for one run.
#[derive(Debug, Clone, Default)]
pub struct FabricContention {
    /// Mesh geometry for link routing. `None` disables the link model
    /// even if a bandwidth limit is set.
    pub noc: Option<NocSpec>,
    /// Capacity and bandwidth limits (zeros = unbounded).
    pub spec: FabricSpec,
}

impl FabricContention {
    /// The idle-chip model: no geometry, no limits. [`run_shared`] under
    /// this contention is byte-identical to the single-tenant engine.
    pub fn uncontended() -> Self {
        Self::default()
    }
}

/// Per-tenant outcome of a shared run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// The tenant's schedule and statistics, in absolute fabric time
    /// (start times are ≥ the tenant's arrival).
    pub result: SimResult,
    /// Last finish minus arrival — the tenant's observed makespan.
    pub span_cycles: u64,
    /// Cycles of tile-ownership windows attributed to this tenant,
    /// summed over tiles. Windows on one tile never overlap, so
    /// Σ_tenants `busy_cycles` ≤ tiles × makespan (the conservation law).
    pub busy_cycles: u64,
    /// Cycles this tenant's sets were pushed back waiting for a tile
    /// owned by another tenant.
    pub occupancy_stall_cycles: u64,
    /// Cycles this tenant's messages waited for busy NoC links.
    pub link_stall_cycles: u64,
    /// Cycles spent re-programming evicted weight blocks.
    pub reload_cycles: u64,
    /// This tenant's weight blocks evicted by anyone (including itself).
    pub evictions: u64,
    /// Reloads this tenant paid for (bookings that found their block
    /// evicted).
    pub reloads: u64,
}

/// Outcome of one shared-fabric run.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedOutcome {
    /// Per-tenant outcomes, in workload order.
    pub tenants: Vec<TenantOutcome>,
    /// Last finish over all tenants.
    pub makespan: u64,
}

/// Rolling tile-ownership window (see module docs).
#[derive(Clone, Copy)]
struct Window {
    owner: usize,
    start: u64,
    until: u64,
}

/// A layer's home tile, resolved once per run.
struct Home {
    tile: TileId,
    /// Ownership-window slot of the tile.
    window: usize,
    /// Mesh position; `None` without a mesh or outside it.
    at: Option<TileCoord>,
}

/// One (tenant, layer) weight block's residency slot.
#[derive(Default)]
struct Block {
    tenant: usize,
    pes: usize,
    resident: bool,
    /// Loaded at least once (the first load is free).
    loaded: bool,
    /// Neighbours on the recency list while resident.
    prev: Option<usize>,
    next: Option<usize>,
}

/// Shared mutable fabric state, updated in event order.
#[derive(Default)]
struct FabricState {
    /// Ownership window per distinct home tile, in tile-id order.
    windows: Vec<Option<Window>>,
    /// Free-at cycle per directed link (index: see module docs).
    link_free: Vec<u64>,
    /// Weight blocks, tenant by tenant, layer by layer.
    blocks: Vec<Block>,
    /// Least and most recently booked resident blocks.
    lru_head: Option<usize>,
    lru_tail: Option<usize>,
    /// PEs of capacity currently occupied by resident blocks.
    used_pes: usize,
}

impl FabricState {
    /// Takes resident block `b` off the recency list.
    fn unlink(&mut self, b: usize) {
        let Block { prev, next, .. } = self.blocks[b];
        match prev {
            None => self.lru_head = next,
            Some(p) => self.blocks[p].next = next,
        }
        match next {
            None => self.lru_tail = prev,
            Some(n) => self.blocks[n].prev = prev,
        }
    }

    /// Appends block `b` as the most recently used.
    fn push_tail(&mut self, b: usize) {
        self.blocks[b].prev = self.lru_tail;
        self.blocks[b].next = None;
        match self.lru_tail {
            None => self.lru_head = Some(b),
            Some(t) => self.blocks[t].next = Some(b),
        }
        self.lru_tail = Some(b);
    }
}

/// Per-tenant mutable run state (the single-tenant engine's locals, one
/// copy per tenant).
struct TenantState {
    indegree: Vec<u32>,
    ready: Vec<u64>,
    next: Vec<usize>,
    group_free: Vec<u64>,
    first_start: Vec<u64>,
    last_finish: Vec<u64>,
    started: Vec<bool>,
    times: Vec<SetTime>,
    pending_consumers: Vec<u32>,
    live_bytes: u64,
    peak_live_bytes: u64,
    stats: SimStats,
    energy: EnergyLog,
    /// Home tile per layer (`None` = no fabric context).
    homes: Option<Vec<Home>>,
    /// Weight-block slot of layer 0; layer `l` is at `first_block + l`.
    first_block: usize,
    completed: usize,
    total: usize,
    makespan: u64,
    busy_cycles: u64,
    occupancy_stall: u64,
    link_stall: u64,
    reload_cycles: u64,
    evictions: u64,
    reloads: u64,
}

impl TenantState {
    /// State of `w`, its blocks from `first_block` on, its homes' windows
    /// indexed into the run's sorted distinct home `tiles`.
    fn new(
        w: &TenantWorkload<'_>,
        first_block: usize,
        tiles: &[TileId],
        noc: Option<&NocSpec>,
    ) -> Self {
        let total = w.costed.space().total_sets();
        let n_layers = w.layers.len();
        // A set's indegree is the length of its row of the CSR.
        let indegree = w.deps.csr().0.windows(2).map(|r| r[1] - r[0]).collect();
        let homes = w.home_tiles.as_ref().map(|own| {
            own.iter()
                .map(|&tile| Home {
                    tile,
                    window: tiles.partition_point(|&t| t < tile),
                    at: noc.and_then(|n| n.coord(tile).ok()),
                })
                .collect()
        });
        TenantState {
            indegree,
            ready: vec![0; total],
            next: vec![0; n_layers],
            group_free: vec![w.arrival; n_layers],
            first_start: vec![u64::MAX; n_layers],
            last_finish: vec![0; n_layers],
            started: vec![false; total],
            times: vec![SetTime { start: 0, finish: 0 }; total],
            pending_consumers: vec![0; total],
            live_bytes: 0,
            peak_live_bytes: 0,
            stats: SimStats {
                groups: vec![GroupStats::default(); n_layers],
                ..SimStats::default()
            },
            energy: EnergyLog::new(),
            homes,
            first_block,
            completed: 0,
            total,
            makespan: 0,
            busy_cycles: 0,
            occupancy_stall: 0,
            link_stall: 0,
            reload_cycles: 0,
            evictions: 0,
            reloads: 0,
        }
    }
}

/// Books `[want, want + dur)` on window `slot` for `tenant`, pushing the
/// start past a foreign ownership window if needed. Returns `(start, stall)`.
fn book_tile(
    fs: &mut FabricState,
    states: &mut [TenantState],
    slot: usize,
    tenant: usize,
    want: u64,
    dur: u64,
) -> (u64, u64) {
    match &mut fs.windows[slot] {
        empty @ None => {
            *empty = Some(Window {
                owner: tenant,
                start: want,
                until: want + dur,
            });
            (want, 0)
        }
        Some(w) if w.owner == tenant => {
            if want >= w.until {
                // Gap in the tenant's own usage: close the window so idle
                // time is not counted as busy.
                states[tenant].busy_cycles += w.until - w.start;
                w.start = want;
                w.until = want + dur;
            } else {
                w.until = w.until.max(want + dur);
            }
            (want, 0)
        }
        Some(w) => {
            let start = want.max(w.until);
            states[w.owner].busy_cycles += w.until - w.start;
            let stall = start - want;
            *w = Window {
                owner: tenant,
                start,
                until: start + dur,
            };
            (start, stall)
        }
    }
}

/// Touches weight block `b`: evicts least-recently-used blocks until it
/// fits and returns the reload charge in cycles (0 on a hit or a
/// first-ever load).
fn touch_block(
    fs: &mut FabricState,
    states: &mut [TenantState],
    b: usize,
    spec: &FabricSpec,
) -> u64 {
    let pes = fs.blocks[b].pes;
    if spec.capacity_pes == 0 || pes == 0 {
        return 0;
    }
    if fs.blocks[b].resident {
        fs.unlink(b);
        fs.push_tail(b);
        return 0;
    }
    // Evict from the head until the new block fits. A block larger than
    // the whole capacity over-commits after evicting everything else — it
    // still runs, it just evicts the world.
    while fs.used_pes + pes > spec.capacity_pes {
        let Some(victim) = fs.lru_head else { break };
        fs.unlink(victim);
        let v = &mut fs.blocks[victim];
        v.resident = false;
        fs.used_pes -= v.pes;
        states[v.tenant].evictions += 1;
    }
    fs.used_pes += pes;
    fs.push_tail(b);
    let block = &mut fs.blocks[b];
    block.resident = true;
    if std::mem::replace(&mut block.loaded, true) {
        let charge = pes as u64 * spec.reload_cycles_per_pe;
        let st = &mut states[block.tenant];
        st.reloads += 1;
        st.reload_cycles += charge;
        charge
    } else {
        0
    }
}

/// Calls `f` with the link-table index of every directed link on the XY
/// route `a → b`: first along the row (X), then along the column (Y), as
/// [`NocSpec::xy_route`] walks it.
fn for_each_link(cols: usize, a: TileCoord, b: TileCoord, mut f: impl FnMut(usize)) {
    let (mut row, mut col) = (a.row, a.col);
    let mut hop = |r: usize, c: usize, direction: usize| f(4 * (r * cols + c) + direction);
    while col < b.col {
        hop(row, col, 0);
        col += 1;
    }
    while col > b.col {
        hop(row, col, 1);
        col -= 1;
    }
    while row < b.row {
        hop(row, col, 2);
        row += 1;
    }
    while row > b.row {
        hop(row, col, 3);
        row -= 1;
    }
}

/// Reserves the XY route `from → to` for one message of `bytes` bytes
/// sent at `now`. Returns `(wire_clear, stall)`: the cycle the last byte
/// clears the route, and how long injection waited for busy links.
fn inject_message(
    fs: &mut FabricState,
    noc: &NocSpec,
    bandwidth: u64,
    from: &Home,
    to: &Home,
    now: u64,
    bytes: u64,
) -> Result<(u64, u64)> {
    let bad = |e: cim_arch::ArchError| SimError::BadWorkload {
        detail: format!("fabric route {} -> {} failed: {e}", from.tile, to.tile),
    };
    // `at` is `None` only outside the mesh, where `coord` reports why.
    let coord = |h: &Home| h.at.map_or_else(|| noc.coord(h.tile), Ok).map_err(bad);
    let (a, b) = (coord(from)?, coord(to)?);
    let mut start = now;
    for_each_link(noc.mesh_cols, a, b, |l| start = start.max(fs.link_free[l]));
    let clear = start + bytes.div_ceil(bandwidth).max(1);
    for_each_link(noc.mesh_cols, a, b, |l| fs.link_free[l] = clear);
    Ok((clear, start - now))
}

/// Attempts to start the current set of `workloads[k]`'s layer `l`:
/// charges residency reloads, books the home tile, and pushes the
/// completion event. The single-tenant engine's `try_start!` with the
/// fabric hooks threaded through.
fn try_start(
    workloads: &[TenantWorkload<'_>],
    states: &mut [TenantState],
    fs: &mut FabricState,
    heap: &mut BinaryHeap<Reverse<(u64, usize, usize, usize)>>,
    spec: &FabricSpec,
    k: usize,
    l: usize,
) {
    let w = &workloads[k];
    let s = states[k].next[l];
    if s >= w.layers[l].sets.len() {
        return;
    }
    let i = w.costed.space().index(l, s);
    if states[k].started[i] || states[k].indegree[i] != 0 {
        return;
    }
    let want = states[k].group_free[l].max(states[k].ready[i]);
    let reload = touch_block(fs, states, states[k].first_block + l, spec);
    let dur = w.layers[l].sets.duration(s) + reload;
    let (start, stall) = match states[k].homes.as_ref().map(|h| h[l].window) {
        Some(slot) => book_tile(fs, states, slot, k, want, dur),
        None => (want, 0),
    };
    let st = &mut states[k];
    st.occupancy_stall += stall;
    let finish = start + dur;
    st.started[i] = true;
    st.times[i] = SetTime { start, finish };
    st.group_free[l] = finish;
    st.first_start[l] = st.first_start[l].min(start);
    heap.push(Reverse((finish, k, l, s)));
}

/// Runs `workloads` to completion over one shared fabric.
///
/// With a single workload (arrival 0, no home tiles) under
/// [`FabricContention::uncontended`], the outcome's `result` is
/// byte-identical to [`Simulator::run_costed`](crate::Simulator::run_costed)
/// — which is implemented as exactly that call.
///
/// # Errors
///
/// Returns [`SimError::BadWorkload`] when any tenant's inputs disagree
/// (shapes, mismatched cost tables, wrong home-tile count) and
/// [`SimError::Deadlock`] when unfinished sets remain after the event heap
/// drains.
pub fn run_shared(
    workloads: &[TenantWorkload<'_>],
    fabric: &FabricContention,
) -> Result<SharedOutcome> {
    for (k, w) in workloads.iter().enumerate() {
        if w.deps.num_layers() != w.layers.len() {
            return Err(SimError::BadWorkload {
                detail: format!(
                    "tenant {k}: dependencies cover {} layers, sets cover {}",
                    w.deps.num_layers(),
                    w.layers.len()
                ),
            });
        }
        // A table built from `deps` (or a clone of it) shares its CSR, so
        // this is a pointer comparison; only a separately built relation is
        // compared edge by edge.
        if !w.costed.matches(w.deps) {
            return Err(SimError::BadWorkload {
                detail: format!("tenant {k}: cost table was built from different dependencies"),
            });
        }
        if let Some(tiles) = &w.home_tiles {
            if tiles.len() != w.layers.len() {
                return Err(SimError::BadWorkload {
                    detail: format!(
                        "tenant {k}: {} home tiles for {} layers",
                        tiles.len(),
                        w.layers.len()
                    ),
                });
            }
        }
    }

    // Window slots: the distinct home tiles, in tile-id order.
    let mut tiles: Vec<TileId> = workloads
        .iter()
        .flat_map(|w| w.home_tiles.iter().flatten().copied())
        .collect();
    tiles.sort_unstable();
    tiles.dedup();
    let spec = &fabric.spec;
    let bandwidth = spec.link_bandwidth_bytes_per_cycle;
    let mesh = fabric.noc.as_ref();
    let link_noc = mesh.filter(|_| bandwidth > 0);
    let mut fs = FabricState {
        windows: vec![None; tiles.len()],
        link_free: vec![0; link_noc.map_or(0, |noc| 4 * noc.capacity())],
        ..FabricState::default()
    };
    let mut states: Vec<TenantState> = Vec::with_capacity(workloads.len());
    for (k, w) in workloads.iter().enumerate() {
        let first_block = fs.blocks.len();
        states.push(TenantState::new(w, first_block, &tiles, mesh));
        fs.blocks.extend(w.layers.iter().map(|layer| Block {
            tenant: k,
            pes: layer.pes,
            ..Block::default()
        }));
    }
    // Each tenant's fan-out CSR, built here on a table's first run.
    let fanouts: Vec<&FanOut> = workloads.iter().map(|w| w.costed.fanout()).collect();
    // Event heap: Reverse ordering on (finish, tenant, layer, set).
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize, usize)>> = BinaryHeap::new();

    for (k, w) in workloads.iter().enumerate() {
        for l in 0..w.layers.len() {
            try_start(workloads, &mut states, &mut fs, &mut heap, spec, k, l);
        }
    }

    while let Some(Reverse((t, k, l, s))) = heap.pop() {
        let w = &workloads[k];
        {
            let st = &mut states[k];
            st.stats.events += 1;
            st.completed += 1;
            st.makespan = st.makespan.max(t);
            st.last_finish[l] = st.last_finish[l].max(t);
            let dur = w.layers[l].sets.duration(s);
            st.stats.groups[l].active_cycles += dur;
            st.stats.groups[l].sets_executed += 1;
            st.energy.record_mvms(dur * w.layers[l].pes as u64);
            // Chain: the group moves on to its next set.
            st.next[l] = s + 1;
        }
        try_start(workloads, &mut states, &mut fs, &mut heap, spec, k, l);

        // Data edges: deliver this set to its consumers — latency and
        // byte count precomputed, hop count read off the layers' home
        // tiles; link serialization is the only run-time addition.
        let produced = w.costed.space().index(l, s);
        let bytes = w.costed.set_bytes(produced);
        let (consumers, latencies) = fanouts[k].outgoing(produced);
        if !consumers.is_empty() {
            let st = &mut states[k];
            st.pending_consumers[produced] = consumers.len() as u32;
            st.live_bytes += bytes;
            st.peak_live_bytes = st.peak_live_bytes.max(st.live_bytes);
        }
        for (c, &delay) in consumers.iter().zip(latencies) {
            let mut arrival = t + delay;
            if let (Some(noc), Some(homes)) = (link_noc, &states[k].homes) {
                let (from, to) = (&homes[l], &homes[c.layer]);
                if from.window != to.window {
                    let (clear, stall) =
                        inject_message(&mut fs, noc, bandwidth, from, to, t, bytes)?;
                    arrival = clear + delay;
                    states[k].link_stall += stall;
                }
            }
            let st = &mut states[k];
            let ci = w.costed.space().index(c.layer, c.set);
            st.ready[ci] = st.ready[ci].max(arrival);
            st.indegree[ci] -= 1;
            st.stats.messages += 1;
            st.stats.bytes_moved += bytes;
            if w.costed.tracks_transfers() {
                st.energy
                    .record_transfer(bytes, w.costed.hops_between(l, c.layer));
            }
            try_start(workloads, &mut states, &mut fs, &mut heap, spec, k, c.layer);
        }

        // Release producer buffers whose last consuming edge was this
        // completed set's own dependencies.
        let st = &mut states[k];
        for &p in w.deps.producers(produced) {
            let p = p as usize;
            st.pending_consumers[p] -= 1;
            if st.pending_consumers[p] == 0 {
                st.live_bytes -= w.costed.set_bytes(p);
            }
        }
    }

    let completed: usize = states.iter().map(|st| st.completed).sum();
    let total: usize = states.iter().map(|st| st.total).sum();
    if completed != total {
        return Err(SimError::Deadlock { completed, total });
    }

    // Flush open ownership windows into the busy accounting.
    for w in fs.windows.iter().flatten() {
        states[w.owner].busy_cycles += w.until - w.start;
    }

    let mut makespan = 0u64;
    let tenants = workloads
        .iter()
        .zip(states)
        .map(|(w, mut st)| {
            for l in 0..w.layers.len() {
                if st.first_start[l] != u64::MAX {
                    let span = st.last_finish[l] - st.first_start[l];
                    st.stats.groups[l].stall_cycles = span - st.stats.groups[l].active_cycles;
                }
            }
            st.stats.peak_live_bytes = st.peak_live_bytes;
            st.stats.energy = st.energy;
            makespan = makespan.max(st.makespan);
            TenantOutcome {
                result: SimResult {
                    schedule: Schedule::from_arena(
                        w.costed.space().clone(),
                        st.times,
                        st.makespan,
                    ),
                    stats: st.stats,
                },
                span_cycles: st.makespan.saturating_sub(w.arrival),
                busy_cycles: st.busy_cycles,
                occupancy_stall_cycles: st.occupancy_stall,
                link_stall_cycles: st.link_stall,
                reload_cycles: st.reload_cycles,
                evictions: st.evictions,
                reloads: st.reloads,
            }
        })
        .collect();

    Ok(SharedOutcome { tenants, makespan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_ir::{FeatureShape, NodeId};
    use clsa_core::{SetBands, SetRef};

    /// `n` sets of `dur` cycles on a `pes`-PE group.
    fn layer(nsets: usize, dur: u64, pes: usize) -> LayerSets {
        LayerSets {
            node: NodeId(0),
            name: format!("l{nsets}x{dur}"),
            logical: 0,
            ofm: FeatureShape::new(nsets, dur as usize, 1),
            pes,
            quantum: 1,
            sets: SetBands::new(nsets, dur as usize, 1),
        }
    }

    fn chain_workload() -> (Vec<LayerSets>, Dependencies) {
        let layers = vec![layer(2, 10, 2), layer(2, 10, 2)];
        let deps = Dependencies::from_edges(
            &[2, 2],
            &[
                (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 0 }),
                (SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 1 }),
            ],
        )
        .unwrap();
        (layers, deps)
    }

    fn free_costed(layers: &[LayerSets], deps: &Dependencies) -> CostedDeps {
        CostedDeps::free(layers, deps).unwrap()
    }

    #[test]
    fn two_tenants_on_one_tile_serialize() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let solo = |arrival| TenantWorkload {
            layers: &layers,
            deps: &deps,
            costed: &costed,
            arrival,
            home_tiles: Some(vec![TileId(0), TileId(0)]),
        };
        // Alone: the two-layer chain finishes at cycle 40 (2 sets × 10
        // per layer, pipelined over one shared tile window).
        let alone = run_shared(&[solo(0)], &FabricContention::uncontended()).unwrap();
        // Together on the same tile: the second tenant's work interleaves
        // with the first's, so at least one tenant sees occupancy stalls
        // and the combined makespan exceeds the solo one.
        let both = run_shared(&[solo(0), solo(0)], &FabricContention::uncontended()).unwrap();
        assert!(both.makespan > alone.makespan);
        let stalls: u64 = both.tenants.iter().map(|t| t.occupancy_stall_cycles).sum();
        assert!(stalls > 0, "same-tile tenants must contend");
        // Conservation: ownership windows on one tile never overlap.
        let busy: u64 = both.tenants.iter().map(|t| t.busy_cycles).sum();
        assert!(busy <= both.makespan);
    }

    #[test]
    fn disjoint_tiles_do_not_contend() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let on = |tile| TenantWorkload {
            layers: &layers,
            deps: &deps,
            costed: &costed,
            arrival: 0,
            home_tiles: Some(vec![TileId(tile), TileId(tile)]),
        };
        let out = run_shared(&[on(0), on(1)], &FabricContention::uncontended()).unwrap();
        for t in &out.tenants {
            assert_eq!(t.occupancy_stall_cycles, 0);
        }
        let solo = run_shared(&[on(0)], &FabricContention::uncontended()).unwrap();
        assert_eq!(out.makespan, solo.makespan);
    }

    #[test]
    fn arrival_offsets_shift_schedules() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let w = TenantWorkload {
            layers: &layers,
            deps: &deps,
            costed: &costed,
            arrival: 100,
            home_tiles: None,
        };
        let out = run_shared(
            std::slice::from_ref(&w),
            &FabricContention::uncontended(),
        )
        .unwrap();
        let t = &out.tenants[0];
        assert_eq!(t.result.schedule.makespan, 100 + t.span_cycles);
        assert!(t.result.schedule.time(0, 0).start >= 100);
    }

    #[test]
    fn capacity_pressure_evicts_and_reloads() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let w = |_| TenantWorkload {
            layers: &layers,
            deps: &deps,
            costed: &costed,
            arrival: 0,
            home_tiles: Some(vec![TileId(0), TileId(0)]),
        };
        // Each tenant's working set is 4 PEs; capacity 4 forces the two
        // tenants (8 PEs combined) to thrash.
        let fabric = FabricContention {
            noc: None,
            spec: FabricSpec {
                capacity_pes: 4,
                reload_cycles_per_pe: 50,
                ..FabricSpec::uncontended()
            },
        };
        let out = run_shared(&[w(0), w(1)], &fabric).unwrap();
        let evictions: u64 = out.tenants.iter().map(|t| t.evictions).sum();
        let reloads: u64 = out.tenants.iter().map(|t| t.reloads).sum();
        assert!(evictions > 0, "combined working set must not fit");
        assert!(reloads > 0);
        let reload_cycles: u64 = out.tenants.iter().map(|t| t.reload_cycles).sum();
        assert_eq!(reload_cycles, reloads * 2 * 50, "2 PEs per reloaded block");
        // Unbounded capacity: same mix, zero evictions.
        let idle = run_shared(&[w(0), w(1)], &FabricContention::uncontended()).unwrap();
        assert_eq!(idle.tenants.iter().map(|t| t.evictions).sum::<u64>(), 0);
    }

    #[test]
    fn link_bandwidth_serializes_cross_tile_traffic() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        // Disjoint compute tiles so both tenants' producers finish
        // simultaneously, but the XY routes 0→3 and 1→3 on the 2×2 mesh
        // share the link (0,1)→(1,1): the second sender must wait.
        let w = |producer_tile| TenantWorkload {
            layers: &layers,
            deps: &deps,
            costed: &costed,
            arrival: 0,
            home_tiles: Some(vec![TileId(producer_tile), TileId(3)]),
        };
        let fabric = FabricContention {
            noc: Some(NocSpec::square_for(4)),
            spec: FabricSpec {
                link_bandwidth_bytes_per_cycle: 1,
                ..FabricSpec::uncontended()
            },
        };
        let contended = run_shared(&[w(0), w(1)], &fabric).unwrap();
        let stalls: u64 = contended.tenants.iter().map(|t| t.link_stall_cycles).sum();
        assert!(stalls > 0, "simultaneous sends over a shared link must queue");
        let idle = run_shared(&[w(0), w(1)], &FabricContention::uncontended()).unwrap();
        assert!(contended.makespan > idle.makespan);
    }

    #[test]
    fn insertion_of_home_tiles_is_validated() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let w = TenantWorkload {
            layers: &layers,
            deps: &deps,
            costed: &costed,
            arrival: 0,
            home_tiles: Some(vec![TileId(0)]), // 1 tile for 2 layers
        };
        let err = run_shared(
            std::slice::from_ref(&w),
            &FabricContention::uncontended(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BadWorkload { .. }));
    }

    /// Tenants sharing one table are checked once; a later tenant whose
    /// table was built from other dependencies is still refused by index.
    #[test]
    fn a_mismatched_table_after_shared_ones_names_its_tenant() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let other_deps = Dependencies::from_edges(
            &[2, 2],
            &[(SetRef { layer: 1, set: 1 }, SetRef { layer: 0, set: 0 })],
        )
        .unwrap();
        let other = free_costed(&layers, &other_deps);
        let tenant = |costed| TenantWorkload {
            layers: &layers,
            deps: &deps,
            costed,
            arrival: 0,
            home_tiles: None,
        };
        let workloads = [
            tenant(&costed),
            tenant(&costed),
            tenant(&costed),
            tenant(&other),
        ];
        let err = run_shared(&workloads, &FabricContention::uncontended()).unwrap_err();
        assert!(
            matches!(&err, SimError::BadWorkload { detail }
                if detail == "tenant 3: cost table was built from different dependencies"),
            "{err}"
        );
        assert!(run_shared(&workloads[..3], &FabricContention::uncontended()).is_ok());
    }

    /// A table matches an equal relation that was built separately (and so
    /// holds its own CSR): the run accepts it and equals the run on the
    /// table's own relation.
    #[test]
    fn a_table_from_an_equal_but_separate_relation_is_accepted() {
        let (layers, deps) = chain_workload();
        let (_, twin) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let run = |deps| {
            let w = TenantWorkload {
                layers: &layers,
                deps,
                costed: &costed,
                arrival: 0,
                home_tiles: None,
            };
            run_shared(&[w], &FabricContention::uncontended())
        };
        assert_eq!(run(&twin).unwrap(), run(&deps).unwrap());
    }

    #[test]
    fn deadlock_spans_tenants() {
        let (layers, _) = chain_workload();
        let cyclic = Dependencies::from_edges(
            &[2, 2],
            &[
                (SetRef { layer: 0, set: 0 }, SetRef { layer: 1, set: 0 }),
                (SetRef { layer: 1, set: 0 }, SetRef { layer: 0, set: 0 }),
            ],
        )
        .unwrap();
        let costed = free_costed(&layers, &cyclic);
        let w = TenantWorkload {
            layers: &layers,
            deps: &cyclic,
            costed: &costed,
            arrival: 0,
            home_tiles: None,
        };
        let err = run_shared(
            std::slice::from_ref(&w),
            &FabricContention::uncontended(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }));
    }

    /// A `rows × cols` mesh.
    fn mesh(rows: usize, cols: usize) -> NocSpec {
        NocSpec {
            mesh_rows: rows,
            mesh_cols: cols,
            ..NocSpec::default()
        }
    }

    /// `tile` resolved against `noc` as the run's set-up would.
    fn home(noc: &NocSpec, tile: u32) -> Home {
        Home {
            tile: TileId(tile),
            window: 0,
            at: noc.coord(TileId(tile)).ok(),
        }
    }

    /// The resident weight blocks from least to most recently used.
    fn recency(fs: &FabricState) -> Vec<usize> {
        let mut order = Vec::new();
        let mut b = fs.lru_head;
        while let Some(block) = b {
            order.push(block);
            b = fs.blocks[block].next;
        }
        order
    }

    #[test]
    fn lru_victims_follow_booking_recency_across_three_tenants() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let workloads: Vec<TenantWorkload<'_>> = (0..3)
            .map(|_| TenantWorkload {
                layers: &layers,
                deps: &deps,
                costed: &costed,
                arrival: 0,
                home_tiles: None,
            })
            .collect();
        // Six 2-PE blocks (tenant k, layer l at slot 2k + l) on a 5-PE
        // fabric: two fit, the third evicts.
        let spec = FabricSpec {
            capacity_pes: 5,
            reload_cycles_per_pe: 10,
            ..FabricSpec::uncontended()
        };
        let mut fs = FabricState {
            blocks: (0..6)
                .map(|b| Block {
                    tenant: b / 2,
                    pes: 2,
                    ..Block::default()
                })
                .collect(),
            ..FabricState::default()
        };
        let mut states: Vec<TenantState> = (0..3)
            .map(|k| TenantState::new(&workloads[k], 2 * k, &[], None))
            .collect();
        // (block touched, reload charge, recency list afterwards).
        let script: [(usize, u64, &[usize]); 10] = [
            (0, 0, &[0]),     // A0 first load
            (2, 0, &[0, 2]),  // B0 first load
            (4, 0, &[2, 4]),  // C0 first load evicts A0
            (0, 20, &[4, 0]), // A0 reload evicts B0
            (4, 0, &[0, 4]),  // C0 hit moves to the tail
            (3, 0, &[4, 3]),  // B1 first load evicts A0
            (1, 0, &[3, 1]),  // A1 first load evicts C0
            (4, 20, &[1, 4]), // C0 reload evicts B1
            (2, 20, &[4, 2]), // B0 reload evicts A1
            (0, 20, &[2, 0]), // A0 reload evicts C0
        ];
        for (step, &(b, charge, after)) in script.iter().enumerate() {
            let reload = touch_block(&mut fs, &mut states, b, &spec);
            assert_eq!(reload, charge, "step {step}");
            assert_eq!(recency(&fs), after, "step {step}");
            assert_eq!(fs.used_pes, 2 * after.len(), "step {step}");
        }
        // Victims A0, B0, A0, C0, B1, A1, C0.
        let evictions: Vec<u64> = states.iter().map(|st| st.evictions).collect();
        let reloads: Vec<u64> = states.iter().map(|st| st.reloads).collect();
        let reload_cycles: Vec<u64> = states.iter().map(|st| st.reload_cycles).collect();
        assert_eq!(evictions, [3, 2, 2]);
        assert_eq!(reloads, [2, 1, 1]);
        assert_eq!(reload_cycles, [40, 20, 20]);
    }

    /// The link-table indices of the XY route `a → b` on `noc`.
    fn links(noc: &NocSpec, a: u32, b: u32) -> Vec<usize> {
        let (a, b) = (noc.coord(TileId(a)).unwrap(), noc.coord(TileId(b)).unwrap());
        let mut links = Vec::new();
        for_each_link(noc.mesh_cols, a, b, |l| links.push(l));
        links
    }

    #[test]
    fn xy_links_run_west_and_north() {
        let noc = mesh(3, 3);
        // (2,2) → (0,0): west twice along row 2, then north up column 0.
        let west_north = [4 * 8 + 1, 4 * 7 + 1, 4 * 6 + 3, 4 * 3 + 3];
        assert_eq!(links(&noc, 8, 0), west_north);
        // (0,0) → (2,2): east along row 0, then south down column 2.
        assert_eq!(links(&noc, 0, 8), [0, 4, 4 * 2 + 2, 4 * 5 + 2]);
    }

    #[test]
    fn xy_links_follow_the_mesh_route_everywhere() {
        let noc = mesh(3, 4);
        for a in 0..12 {
            for b in 0..12 {
                // Each link leaves the tile the previous one entered and
                // enters the next tile of `NocSpec::xy_route`.
                let path = noc.xy_route(TileId(a), TileId(b)).unwrap();
                let route = links(&noc, a, b);
                assert_eq!(route.len(), path.len(), "{a} -> {b}");
                let mut source = a as usize;
                for (link, step) in route.into_iter().zip(path) {
                    assert_eq!(link / 4, source, "{a} -> {b}");
                    source = match link % 4 {
                        0 => source + 1,
                        1 => source - 1,
                        2 => source + noc.mesh_cols,
                        _ => source - noc.mesh_cols,
                    };
                    assert_eq!(source, step.row * noc.mesh_cols + step.col, "{a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn opposite_directions_share_no_link() {
        let noc = mesh(1, 2);
        let mut fs = FabricState {
            link_free: vec![0; 4 * noc.capacity()],
            ..FabricState::default()
        };
        let (left, right) = (&home(&noc, 0), &home(&noc, 1));
        let mut send = |from, to| inject_message(&mut fs, &noc, 1, from, to, 0, 8).unwrap();
        // 8 bytes at 1 byte/cycle hold a link for 8 cycles.
        assert_eq!(send(left, right), (8, 0));
        // The reverse direction is its own link: no wait.
        assert_eq!(send(right, left), (8, 0));
        // The same direction queues behind the first message.
        assert_eq!(send(left, right), (16, 8));
    }

    #[test]
    fn home_tile_outside_the_mesh_is_a_bad_workload() {
        let (layers, deps) = chain_workload();
        let costed = free_costed(&layers, &deps);
        let w = TenantWorkload {
            layers: &layers,
            deps: &deps,
            costed: &costed,
            arrival: 0,
            home_tiles: Some(vec![TileId(0), TileId(u32::MAX)]),
        };
        let fabric = FabricContention {
            noc: Some(NocSpec::square_for(4)),
            spec: FabricSpec {
                link_bandwidth_bytes_per_cycle: 1,
                ..FabricSpec::uncontended()
            },
        };
        let err = run_shared(std::slice::from_ref(&w), &fabric).unwrap_err();
        let route = "fabric route tile0 -> tile4294967295 failed: ";
        assert!(
            matches!(&err, SimError::BadWorkload { detail } if detail.starts_with(route)),
            "{err:?}"
        );
    }
}
