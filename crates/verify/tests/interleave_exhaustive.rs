//! The exhaustive interleaving suite as tests, with the explored-schedule
//! counts pinned exactly.
//!
//! Pinning matters: these checks are only *proofs* if the explorer really
//! branched on every enabled thread at every step. The counts below are
//! the full interleaving counts of each model — a scheduler regression
//! that silently prunes branches (turning the proof back into a sample)
//! changes the count and fails the test, even if no violation is missed.

use cim_verify::interleave::explore;
use cim_verify::models::{CacheSlotProtocol, LanePoolProtocol, TwoLevelCacheProtocol};

#[test]
fn two_threads_racing_one_cache_key_is_exhaustively_safe() {
    let stats = explore(&CacheSlotProtocol::same_key(2)).expect("no violations");
    // 42 maximal schedules of the two 5-step slot protocols around one
    // mutex + OnceLock (blocked probes prune the naive C(10,5) = 252).
    assert_eq!(stats.schedules, 42);
    assert_eq!(stats.max_depth, 10);
}

#[test]
fn three_threads_racing_one_cache_key_is_exhaustively_safe() {
    let stats = explore(&CacheSlotProtocol::same_key(3)).expect("no violations");
    assert_eq!(stats.schedules, 2016);
    assert_eq!(stats.max_depth, 14);
}

#[test]
fn distinct_keys_never_serialize_through_each_other() {
    let stats = explore(&CacheSlotProtocol::distinct_keys(2)).expect("no violations");
    // Independent keys: only the map mutex is shared, so more schedules
    // survive than in the same-key run (168 > 42) — and each key still
    // computes exactly once.
    assert_eq!(stats.schedules, 168);
}

#[test]
fn mixed_contention_three_threads_two_keys() {
    let stats = explore(&CacheSlotProtocol::with_keys(vec![0, 0, 1])).expect("no violations");
    assert_eq!(stats.schedules, 27_300);
}

#[test]
fn two_level_cache_never_computes_a_shared_stage_twice() {
    // Two schedule-level misses whose schedule computes resolve the SAME
    // stage entry — the `ScheduleCache::summary` → `prepared` nesting. The
    // invariant under every interleaving: the stage computes once.
    let stats = explore(&TwoLevelCacheProtocol::shared_stage_pair()).expect("no violations");
    assert_eq!(stats.schedules, 13_442);
    assert_eq!(stats.max_depth, 18);
}

#[test]
fn lane_pool_claims_every_item_exactly_once() {
    let stats = explore(&LanePoolProtocol {
        workers: 2,
        items: 4,
    })
    .expect("no violations");
    assert_eq!(stats.schedules, 96);
    assert_eq!(stats.max_depth, 8);
}

#[test]
fn lane_pool_stealing_is_safe_at_three_workers() {
    let stats = explore(&LanePoolProtocol {
        workers: 3,
        items: 5,
    })
    .expect("no violations");
    assert_eq!(stats.schedules, 403_520);
}

#[test]
fn the_reported_counts_cover_every_interleaving_sanity_check() {
    // Lower bound from first principles: two independent 5-step threads
    // have C(10,5) = 252 interleavings; blocking can only *remove*
    // schedules, and a removed schedule must be one where someone held
    // the lock. 42 of 252 surviving means the mutex serialized 5/6 of
    // the naive interleavings — the protocol is really contended here,
    // not trivially parallel.
    let contended = explore(&CacheSlotProtocol::same_key(2)).expect("ok").schedules;
    let independent = explore(&CacheSlotProtocol::distinct_keys(2)).expect("ok").schedules;
    assert!(contended < independent);
    assert!(independent <= 252);
}
