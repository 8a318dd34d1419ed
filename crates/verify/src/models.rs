//! Interleaving models of the workspace's two concurrency protocols.
//!
//! These are *models*, not the production code itself: each nontrivial
//! atomic operation of the real implementation becomes one [`Protocol`]
//! step, and the explorer then proves the protocol's invariants over
//! **every** interleaving of those operations — something the runtime
//! tests (`runner_determinism`, the cache unit tests) can only sample.
//!
//! * [`CacheSlotProtocol`] models `cim_bench::runner::ScheduleCache`'s
//!   mutex + `Arc<OnceLock>` slot protocol (`get_or_compute`): the map
//!   lock is held only to fetch-or-insert the slot; `get_or_init` makes
//!   exactly one racing thread compute while the rest block and then read.
//!   Invariants: **no double-compute** (a fingerprint is computed at most
//!   once, ever), **no lost update** (every thread observes the published
//!   value), deadlock freedom, and interleaving-independent results.
//! * [`TwoLevelCacheProtocol`] stacks two such levels the way
//!   `ScheduleCache::summary` resolves the stage prefix inside the
//!   schedule compute: distinct schedule keys sharing one stage key must still
//!   compute the stage exactly once, and the two mutexes (never held
//!   simultaneously) must not deadlock.
//! * [`LanePoolProtocol`] models `runner::parallel_map`'s per-lane atomic
//!   claim cursors with cyclic work stealing. Invariants: every job is
//!   executed **exactly once** no matter which worker wins each
//!   `fetch_add`, and the reassembled output is identical for every
//!   interleaving (the determinism contract of `--jobs N`).

use crate::interleave::{Protocol, Step};

/// Published value of key `k` (arbitrary but deterministic).
fn value_of(k: usize) -> u64 {
    100 + k as u64
}

/// State of one `OnceLock` slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Nobody has begun initialization.
    Empty,
    /// `get_or_init` admitted this thread's closure; others block.
    Initializing(usize),
    /// The value is published; readers proceed.
    Ready(u64),
}

// ---------------------------------------------------------------------------
// Single-level cache slot protocol.
// ---------------------------------------------------------------------------

/// Model of one `get_or_compute` level. Each thread resolves one key.
#[derive(Debug, Clone)]
pub struct CacheSlotProtocol {
    /// `key_of_thread[tid]` — the key thread `tid` resolves.
    pub key_of_thread: Vec<usize>,
    /// Number of distinct keys.
    pub keys: usize,
}

impl CacheSlotProtocol {
    /// `threads` workers all racing on one key.
    pub fn same_key(threads: usize) -> Self {
        CacheSlotProtocol {
            key_of_thread: vec![0; threads],
            keys: 1,
        }
    }

    /// One worker per key, all distinct.
    pub fn distinct_keys(threads: usize) -> Self {
        CacheSlotProtocol {
            key_of_thread: (0..threads).collect(),
            keys: threads,
        }
    }

    /// Explicit assignment, e.g. `[0, 0, 1]`.
    pub fn with_keys(key_of_thread: Vec<usize>) -> Self {
        let keys = key_of_thread.iter().copied().max().map_or(0, |m| m + 1);
        CacheSlotProtocol {
            key_of_thread,
            keys,
        }
    }
}

/// Program counter of one modeled cache client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CachePc {
    /// About to acquire the map mutex.
    Lock,
    /// Holding the mutex; about to fetch-or-insert the slot.
    Fetch,
    /// About to release the mutex.
    Unlock,
    /// At `get_or_init`: become the initializer, block, or read.
    Once,
    /// Admitted as initializer; about to run the compute closure.
    Compute,
    /// About to publish the computed value and read it back.
    Publish,
    /// Finished, with the observed value recorded.
    Done,
}

/// Shared + per-thread state of [`CacheSlotProtocol`].
#[derive(Debug, Clone)]
pub struct CacheState {
    map_locked: bool,
    slots: Vec<Slot>,
    computes: Vec<u32>,
    pc: Vec<CachePc>,
    observed: Vec<Option<u64>>,
}

impl Protocol for CacheSlotProtocol {
    type State = CacheState;

    fn threads(&self) -> usize {
        self.key_of_thread.len()
    }

    fn init(&self) -> CacheState {
        CacheState {
            map_locked: false,
            slots: vec![Slot::Empty; self.keys],
            computes: vec![0; self.keys],
            pc: vec![CachePc::Lock; self.key_of_thread.len()],
            observed: vec![None; self.key_of_thread.len()],
        }
    }

    fn step(&self, s: &mut CacheState, tid: usize) -> Step {
        let k = self.key_of_thread[tid];
        match s.pc[tid] {
            CachePc::Lock => {
                if s.map_locked {
                    return Step::Blocked;
                }
                s.map_locked = true;
                s.pc[tid] = CachePc::Fetch;
                Step::Ran
            }
            CachePc::Fetch => {
                // entry(key).or_default(): the slot exists from here on
                // (already materialized in `slots`), the thread now holds
                // an Arc to it.
                s.pc[tid] = CachePc::Unlock;
                Step::Ran
            }
            CachePc::Unlock => {
                s.map_locked = false;
                s.pc[tid] = CachePc::Once;
                Step::Ran
            }
            CachePc::Once => match s.slots[k] {
                Slot::Empty => {
                    s.slots[k] = Slot::Initializing(tid);
                    s.pc[tid] = CachePc::Compute;
                    Step::Ran
                }
                Slot::Initializing(_) => Step::Blocked,
                Slot::Ready(v) => {
                    s.observed[tid] = Some(v);
                    s.pc[tid] = CachePc::Done;
                    Step::Ran
                }
            },
            CachePc::Compute => {
                s.computes[k] += 1;
                s.pc[tid] = CachePc::Publish;
                Step::Ran
            }
            CachePc::Publish => {
                s.slots[k] = Slot::Ready(value_of(k));
                s.observed[tid] = Some(value_of(k));
                s.pc[tid] = CachePc::Done;
                Step::Ran
            }
            CachePc::Done => Step::Done,
        }
    }

    fn check(&self, s: &CacheState) -> Result<(), String> {
        for (k, &c) in s.computes.iter().enumerate() {
            if c > 1 {
                return Err(format!("double-compute: key {k} computed {c} times"));
            }
        }
        Ok(())
    }

    fn check_final(&self, s: &CacheState) -> Result<(), String> {
        for (tid, &k) in self.key_of_thread.iter().enumerate() {
            match s.observed[tid] {
                Some(v) if v == value_of(k) => {}
                Some(v) => {
                    return Err(format!(
                        "lost update: thread {tid} observed {v}, expected {}",
                        value_of(k)
                    ))
                }
                None => return Err(format!("thread {tid} finished without a value")),
            }
        }
        for k in 0..self.keys {
            let demanded = self.key_of_thread.contains(&k);
            let computed = s.computes[k];
            if demanded && computed != 1 {
                return Err(format!("key {k} computed {computed} times, expected exactly 1"));
            }
        }
        if s.map_locked {
            return Err("map mutex leaked".to_string());
        }
        Ok(())
    }

    fn output(&self, s: &CacheState) -> Vec<u64> {
        s.observed.iter().map(|o| o.unwrap_or(u64::MAX)).collect()
    }
}

// ---------------------------------------------------------------------------
// Two-level (stage + schedule) protocol.
// ---------------------------------------------------------------------------

/// Model of `ScheduleCache::summary`: a schedule-level slot whose compute
/// closure resolves a stage-level slot first — two locks, two `OnceLock`
/// families, never held simultaneously.
#[derive(Debug, Clone)]
pub struct TwoLevelCacheProtocol {
    /// `sched_key_of_thread[tid]` — the schedule key each thread resolves.
    pub sched_key_of_thread: Vec<usize>,
    /// `stage_of_sched[k]` — the stage key schedule key `k` depends on.
    pub stage_of_sched: Vec<usize>,
}

impl TwoLevelCacheProtocol {
    /// The canonical PR-2 sharing scenario: two distinct schedule configs
    /// (baseline vs. cross-layer) over one shared stage prefix.
    pub fn shared_stage_pair() -> Self {
        TwoLevelCacheProtocol {
            sched_key_of_thread: vec![0, 1],
            stage_of_sched: vec![0, 0],
        }
    }
}

/// Program counter for the two-level client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TwoPc {
    SchedLock,
    SchedFetchUnlock,
    SchedOnce,
    StageLock,
    StageFetchUnlock,
    StageOnce,
    StageCompute,
    StagePublish,
    SchedCompute,
    SchedPublish,
    Done,
}

/// State of [`TwoLevelCacheProtocol`].
#[derive(Debug, Clone)]
pub struct TwoLevelState {
    sched_locked: bool,
    stage_locked: bool,
    sched_slots: Vec<Slot>,
    stage_slots: Vec<Slot>,
    sched_computes: Vec<u32>,
    stage_computes: Vec<u32>,
    pc: Vec<TwoPc>,
    observed: Vec<Option<u64>>,
}

impl Protocol for TwoLevelCacheProtocol {
    type State = TwoLevelState;

    fn threads(&self) -> usize {
        self.sched_key_of_thread.len()
    }

    fn init(&self) -> TwoLevelState {
        let stages = self.stage_of_sched.iter().copied().max().map_or(0, |m| m + 1);
        TwoLevelState {
            sched_locked: false,
            stage_locked: false,
            sched_slots: vec![Slot::Empty; self.stage_of_sched.len()],
            stage_slots: vec![Slot::Empty; stages],
            sched_computes: vec![0; self.stage_of_sched.len()],
            stage_computes: vec![0; stages],
            pc: vec![TwoPc::SchedLock; self.sched_key_of_thread.len()],
            observed: vec![None; self.sched_key_of_thread.len()],
        }
    }

    fn step(&self, s: &mut TwoLevelState, tid: usize) -> Step {
        let sk = self.sched_key_of_thread[tid];
        let gk = self.stage_of_sched[sk];
        match s.pc[tid] {
            TwoPc::SchedLock => {
                if s.sched_locked {
                    return Step::Blocked;
                }
                s.sched_locked = true;
                s.pc[tid] = TwoPc::SchedFetchUnlock;
                Step::Ran
            }
            TwoPc::SchedFetchUnlock => {
                s.sched_locked = false;
                s.pc[tid] = TwoPc::SchedOnce;
                Step::Ran
            }
            TwoPc::SchedOnce => match s.sched_slots[sk] {
                Slot::Empty => {
                    s.sched_slots[sk] = Slot::Initializing(tid);
                    s.pc[tid] = TwoPc::StageLock;
                    Step::Ran
                }
                Slot::Initializing(_) => Step::Blocked,
                Slot::Ready(v) => {
                    s.observed[tid] = Some(v);
                    s.pc[tid] = TwoPc::Done;
                    Step::Ran
                }
            },
            TwoPc::StageLock => {
                if s.stage_locked {
                    return Step::Blocked;
                }
                s.stage_locked = true;
                s.pc[tid] = TwoPc::StageFetchUnlock;
                Step::Ran
            }
            TwoPc::StageFetchUnlock => {
                s.stage_locked = false;
                s.pc[tid] = TwoPc::StageOnce;
                Step::Ran
            }
            TwoPc::StageOnce => match s.stage_slots[gk] {
                Slot::Empty => {
                    s.stage_slots[gk] = Slot::Initializing(tid);
                    s.pc[tid] = TwoPc::StageCompute;
                    Step::Ran
                }
                Slot::Initializing(_) => Step::Blocked,
                Slot::Ready(_) => {
                    s.pc[tid] = TwoPc::SchedCompute;
                    Step::Ran
                }
            },
            TwoPc::StageCompute => {
                s.stage_computes[gk] += 1;
                s.pc[tid] = TwoPc::StagePublish;
                Step::Ran
            }
            TwoPc::StagePublish => {
                s.stage_slots[gk] = Slot::Ready(value_of(gk));
                s.pc[tid] = TwoPc::SchedCompute;
                Step::Ran
            }
            TwoPc::SchedCompute => {
                s.sched_computes[sk] += 1;
                s.pc[tid] = TwoPc::SchedPublish;
                Step::Ran
            }
            TwoPc::SchedPublish => {
                s.sched_slots[sk] = Slot::Ready(value_of(1000 + sk));
                s.observed[tid] = Some(value_of(1000 + sk));
                s.pc[tid] = TwoPc::Done;
                Step::Ran
            }
            TwoPc::Done => Step::Done,
        }
    }

    fn check(&self, s: &TwoLevelState) -> Result<(), String> {
        if let Some(c) = s.stage_computes.iter().find(|&&c| c > 1) {
            return Err(format!("stage computed {c} times"));
        }
        if let Some(c) = s.sched_computes.iter().find(|&&c| c > 1) {
            return Err(format!("schedule computed {c} times"));
        }
        Ok(())
    }

    fn check_final(&self, s: &TwoLevelState) -> Result<(), String> {
        for (k, &c) in s.sched_computes.iter().enumerate() {
            let demanded = self.sched_key_of_thread.contains(&k);
            if demanded && c != 1 {
                return Err(format!("schedule key {k} computed {c} times"));
            }
        }
        for (g, &c) in s.stage_computes.iter().enumerate() {
            let demanded = self
                .sched_key_of_thread
                .iter()
                .any(|&sk| self.stage_of_sched[sk] == g);
            if demanded && c != 1 {
                return Err(format!(
                    "stage key {g} computed {c} times, expected exactly 1 (shared prefix)"
                ));
            }
        }
        if s.sched_locked || s.stage_locked {
            return Err("a mutex leaked".to_string());
        }
        Ok(())
    }

    fn output(&self, s: &TwoLevelState) -> Vec<u64> {
        s.observed.iter().map(|o| o.unwrap_or(u64::MAX)).collect()
    }
}

// ---------------------------------------------------------------------------
// Lane-pool work stealing.
// ---------------------------------------------------------------------------

/// Model of `parallel_map`'s claim protocol: per-lane atomic cursors,
/// workers drain their own lane then steal cyclically. One step =
/// one `fetch_add` (claim decided atomically, execution recorded with it).
#[derive(Debug, Clone)]
pub struct LanePoolProtocol {
    /// Worker (= lane) count, as in `parallel_map`'s `jobs`.
    pub workers: usize,
    /// Total job count.
    pub items: usize,
}

/// Per-worker progress through the lane cycle.
#[derive(Debug, Clone)]
pub struct LaneState {
    /// Claim cursor per lane (`fetch_add` target).
    cursors: Vec<usize>,
    /// Which lane offset each worker is on (0..=workers means done).
    offset: Vec<usize>,
    /// Execution count per job index — the exactly-once ledger.
    claims: Vec<u32>,
    /// Reassembled results, `f(i) = 10·i + 1`.
    results: Vec<Option<u64>>,
}

impl LanePoolProtocol {
    fn lane_len(&self, lane: usize) -> usize {
        if lane >= self.items {
            0
        } else {
            (self.items - lane).div_ceil(self.workers)
        }
    }
}

impl Protocol for LanePoolProtocol {
    type State = LaneState;

    fn threads(&self) -> usize {
        self.workers
    }

    fn init(&self) -> LaneState {
        LaneState {
            cursors: vec![0; self.workers],
            offset: vec![0; self.workers],
            claims: vec![0; self.items],
            results: vec![None; self.items],
        }
    }

    fn step(&self, s: &mut LaneState, w: usize) -> Step {
        if s.offset[w] >= self.workers {
            return Step::Done;
        }
        let lane = (w + s.offset[w]) % self.workers;
        // fetch_add: atomically claim a position in the lane.
        let pos = s.cursors[lane];
        s.cursors[lane] += 1;
        if pos >= self.lane_len(lane) {
            // Lane exhausted for this worker: move to the next lane.
            s.offset[w] += 1;
        } else {
            let index = lane + pos * self.workers;
            s.claims[index] += 1;
            s.results[index] = Some(10 * index as u64 + 1);
        }
        Step::Ran
    }

    fn check(&self, s: &LaneState) -> Result<(), String> {
        for (i, &c) in s.claims.iter().enumerate() {
            if c > 1 {
                return Err(format!("job {i} executed {c} times (double-compute)"));
            }
        }
        Ok(())
    }

    fn check_final(&self, s: &LaneState) -> Result<(), String> {
        for (i, &c) in s.claims.iter().enumerate() {
            if c != 1 {
                return Err(format!("job {i} executed {c} times, expected exactly once"));
            }
        }
        for (lane, &cur) in s.cursors.iter().enumerate() {
            if cur < self.lane_len(lane) {
                return Err(format!("lane {lane} not drained: cursor {cur}"));
            }
        }
        Ok(())
    }

    fn output(&self, s: &LaneState) -> Vec<u64> {
        s.results.iter().map(|r| r.unwrap_or(u64::MAX)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::explore;

    #[test]
    fn three_workers_one_key_compute_once() {
        let stats = explore(&CacheSlotProtocol::same_key(3)).unwrap();
        assert!(stats.schedules > 1, "must branch: {stats:?}");
    }

    #[test]
    fn distinct_keys_do_not_serialize_compute() {
        let stats = explore(&CacheSlotProtocol::distinct_keys(2)).unwrap();
        assert!(stats.schedules > 1);
    }

    #[test]
    fn shared_stage_prefix_computes_once() {
        let stats = explore(&TwoLevelCacheProtocol::shared_stage_pair()).unwrap();
        assert!(stats.schedules > 1);
    }

    #[test]
    fn lane_pool_claims_exactly_once() {
        let stats = explore(&LanePoolProtocol {
            workers: 2,
            items: 4,
        })
        .unwrap();
        assert!(stats.schedules > 1);
    }

    /// A deliberately broken lane pool (non-atomic cursor: read and
    /// increment as separate steps) must be caught as a double-compute.
    #[derive(Debug, Clone)]
    struct BrokenLanePool;

    #[derive(Debug, Clone)]
    struct BrokenState {
        cursor: usize,
        staged: [Option<usize>; 2],
        done: [bool; 2],
        claims: Vec<u32>,
    }

    impl Protocol for BrokenLanePool {
        type State = BrokenState;

        fn threads(&self) -> usize {
            2
        }

        fn init(&self) -> BrokenState {
            BrokenState {
                cursor: 0,
                staged: [None, None],
                done: [false, false],
                claims: vec![0; 2],
            }
        }

        fn step(&self, s: &mut BrokenState, w: usize) -> Step {
            if s.done[w] {
                return Step::Done;
            }
            match s.staged[w] {
                None => {
                    if s.cursor >= 2 {
                        s.done[w] = true;
                        return Step::Ran;
                    }
                    s.staged[w] = Some(s.cursor); // read …
                    Step::Ran
                }
                Some(pos) => {
                    s.cursor = pos + 1; // … then increment: not atomic!
                    if pos < 2 {
                        s.claims[pos] += 1;
                    }
                    s.staged[w] = None;
                    Step::Ran
                }
            }
        }

        fn check(&self, s: &BrokenState) -> Result<(), String> {
            if s.claims.iter().any(|&c| c > 1) {
                return Err("double-compute".to_string());
            }
            Ok(())
        }

        fn check_final(&self, _: &BrokenState) -> Result<(), String> {
            Ok(())
        }

        fn output(&self, _: &BrokenState) -> Vec<u64> {
            vec![]
        }
    }

    #[test]
    fn a_non_atomic_cursor_is_caught() {
        let v = explore(&BrokenLanePool).unwrap_err();
        assert!(v.message.contains("double-compute"), "{v}");
    }
}
