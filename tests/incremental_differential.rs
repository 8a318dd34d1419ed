//! Differential property for the incremental dirty-key protocol: after a
//! random *single-axis* mutation of a design-space candidate, resolving
//! the mutated configuration through the cache that already evaluated
//! the original must be **byte-identical** to a from-scratch evaluation
//! — and when [`Invalidation::between`] classifies the `Prepare` stage as
//! clean, the two configurations must share one cached `Prepared` (`Arc`
//! identity), not merely recompute equal values. The classification and
//! the stage [`CacheKey`]s are built from the same `RunConfig` facets, so
//! on every case `Prepare` clean ⟺ equal stage keys.
//!
//! The mutation model mirrors what an ask/tell tuner does between
//! generations: pick a candidate from [`DesignSpace::case_study`]
//! (7 axes: set policy, mapping, duplication budget, crossbar, tile,
//! NoC hop latency, cost model), bump exactly one axis, re-evaluate.

use std::sync::{Arc, OnceLock};

use cim_bench::runner::{fingerprint, CacheKey, ScheduleCache};
use cim_frontend::{canonicalize, CanonOptions};
use cim_ir::Graph;
use cim_tune::{Coords, DesignSpace, PeMinMemo};
use clsa_core::{Invalidation, PipelineStage};
use proptest::prelude::*;

/// Canonicalized fig. 5 graph + fingerprint, built once per process.
fn graph() -> &'static (Graph, u64) {
    static GRAPH: OnceLock<(Graph, u64)> = OnceLock::new();
    GRAPH.get_or_init(|| {
        let g = canonicalize(&cim_models::fig5_example(), &CanonOptions::default())
            .expect("fig5 canonicalizes")
            .into_graph();
        let fp = fingerprint(&g);
        (g, fp)
    })
}

/// `(candidate index, axis, step)` over the case-study space.
fn mutation() -> impl Strategy<Value = (usize, usize, usize)> {
    let len = DesignSpace::case_study().len();
    (0usize..len, 0usize..7, 1usize..8)
}

proptest! {
    #[test]
    fn incremental_rerun_matches_from_scratch(m in mutation()) {
        let (index, axis, step) = m;
        let space = DesignSpace::case_study();
        let lens = space.axis_lens();
        let (g, fp) = graph();

        // Single-axis bump, wrapping within the axis. A wrap back onto
        // the same value (axis of length 1, or step % len == 0) is the
        // identity mutation — kept on purpose: the protocol must then
        // report *everything* clean and serve a pure cache hit.
        let mut coords = space.coords(index).as_array();
        coords[axis] = (coords[axis] + step) % lens[axis];
        let mutated = space.index_of(&Coords::from_array(coords));

        let memo = PeMinMemo::new();
        let old_cand = space.candidate(index);
        let new_cand = space.candidate(mutated);
        let old_cfg = memo.pe_min(g, &old_cand).and_then(|pe| old_cand.run_config(pe));
        let new_cfg = memo.pe_min(g, &new_cand).and_then(|pe| new_cand.run_config(pe));
        // Candidates infeasible for fig5 (pe_min exceeds what the axis
        // grants) have no run to differentiate; the tuner skips them too.
        if let (Ok(old_cfg), Ok(new_cfg)) = (old_cfg, new_cfg) {
            let inv = Invalidation::between(&old_cfg, &new_cfg);
            let same_stage_key =
                CacheKey::stages(*fp, &old_cfg) == CacheKey::stages(*fp, &new_cfg);
            prop_assert!(
                inv.is_dirty(PipelineStage::Prepare) != same_stage_key,
                "dirty-key classification and stage fingerprints disagree: {}",
                inv
            );

            // The tuner's long-lived cache: evaluate old, then mutate.
            let cache = ScheduleCache::new();
            let old_run = cache.summary(*fp, g, &old_cfg, None);
            let incremental = cache.summary(*fp, g, &new_cfg, None);
            // The from-scratch reference: a cold cache, new config only.
            let scratch = ScheduleCache::new().summary(*fp, g, &new_cfg, None);

            match (incremental, scratch) {
                (Ok(inc), Ok(fresh)) => {
                    // Byte-identical through serialization, not just eq.
                    let inc_row = serde_json::to_string(&inc).expect("summary serializes");
                    let fresh_row = serde_json::to_string(&fresh).expect("summary serializes");
                    prop_assert_eq!(&inc_row, &fresh_row);

                    if let Ok(old_run) = &old_run {
                        let stats = cache.stats();
                        let prepared = |cfg| cache.prepared(*fp, g, cfg).expect("cached prepare");
                        let shared = Arc::ptr_eq(&prepared(&old_cfg), &prepared(&new_cfg));
                        if !inv.is_dirty(PipelineStage::Prepare) {
                            prop_assert!(
                                shared,
                                "clean Prepare must share stage artifacts: {}",
                                inv
                            );
                            prop_assert_eq!(stats.stage_computes, 1);
                        } else {
                            prop_assert!(
                                !shared,
                                "dirty Prepare produced a distinct mapping: {}",
                                inv
                            );
                            prop_assert_eq!(stats.stage_computes, 2);
                        }
                        // A clean Schedule verdict is the protocol's
                        // strongest guarantee: recomputing under the new
                        // config reproduces the old run's output bytes
                        // (the cache may still key the two separately —
                        // clean means *reproducible*, not same-key).
                        if !inv.is_dirty(PipelineStage::Schedule) {
                            let old_row =
                                serde_json::to_string(old_run).expect("summary serializes");
                            prop_assert_eq!(old_row, inc_row);
                        }
                    }
                }
                // Both paths must agree on infeasibility, with the same
                // diagnostic.
                (Err(e_inc), Err(e_scratch)) => {
                    prop_assert_eq!(e_inc.to_string(), e_scratch.to_string());
                }
                (inc, scratch) => {
                    prop_assert!(
                        false,
                        "paths disagree on feasibility: incremental ok={} scratch ok={}",
                        inc.is_ok(),
                        scratch.is_ok()
                    );
                }
            }
        }
    }
}
