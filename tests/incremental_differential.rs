//! The reuse rule of the staged pipeline, checked on configs and keys.
//!
//! `prepare` (mapping + Stages I & II) reads only the prepare facets of a
//! `RunConfig` ([`RunConfig::prepare_arch_facet`] and
//! [`RunConfig::mapping_facet`]), and the stage [`CacheKey`] is built from
//! exactly those facets — so the key alone decides when stage work is
//! reused. After a random *single-axis* mutation of a design-space
//! candidate:
//!
//! 1. the prepare facets are equal exactly when the stage keys are;
//! 2. the two configs share one cached `Prepared` (`Arc` identity, not
//!    merely equal values) exactly when their stage keys are equal;
//! 3. resolving the mutated config through the cache that already
//!    evaluated the original is byte-identical to a from-scratch run;
//! 4. under the free cost model, a change to the tile shape or the NoC
//!    hop latency alone leaves the summary bytes unchanged: nothing the
//!    free model schedules with reads either.
//!
//! The mutation model mirrors what an ask/tell tuner does between
//! generations: pick a candidate from [`DesignSpace::case_study`]
//! (7 axes: set policy, mapping, duplication budget, crossbar, tile,
//! NoC hop latency, cost model), bump exactly one axis, re-evaluate.

use std::sync::{Arc, OnceLock};

use cim_bench::runner::{fingerprint, CacheKey, RunSummary, ScheduleCache};
use cim_frontend::{canonicalize, CanonOptions};
use cim_ir::Graph;
use cim_tune::{Coords, CostModelAxis, DesignSpace, PeMinMemo};
use clsa_core::{CoreError, RunConfig};
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

/// The run configs of two case-study candidates, or `None` when either is
/// infeasible for fig5 (`pe_min` exceeds what the axis grants); the tuner
/// skips those too.
fn configs(old: Coords, new: Coords) -> Option<(RunConfig, RunConfig)> {
    let space = DesignSpace::case_study();
    let memo = PeMinMemo::new();
    let config = |coords: &Coords| {
        let cand = space.candidate(space.index_of(coords));
        memo.pe_min(&graph().0, &cand)
            .and_then(|pe| cand.run_config(pe))
            .ok()
    };
    Some((config(&old)?, config(&new)?))
}

/// Candidate `index` and the same candidate with `axis` bumped by `step`,
/// wrapping within the axis. A wrap back onto the same value (axis of
/// length 1, or `step % len == 0`) is the identity mutation — kept on
/// purpose: the two configs must then share everything.
fn mutated_pair(index: usize, axis: usize, step: usize) -> Option<(RunConfig, RunConfig)> {
    let space = DesignSpace::case_study();
    let old = space.coords(index);
    let mut coords = old.as_array();
    coords[axis] = (coords[axis] + step) % space.axis_lens()[axis];
    configs(old, Coords::from_array(coords))
}

fn stage_keys_equal(old: &RunConfig, new: &RunConfig) -> bool {
    let fp = graph().1;
    CacheKey::stages(fp, old) == CacheKey::stages(fp, new)
}

/// One evaluation in comparable form: the summary's serialized bytes, or
/// the error's text.
fn bytes(summary: Result<RunSummary, CoreError>) -> Result<String, String> {
    summary
        .map(|s| serde_json::to_string(&s).expect("summary serializes"))
        .map_err(|e| e.to_string())
}

proptest! {
    #[test]
    fn equal_prepare_facets_iff_equal_stage_keys(m in mutation()) {
        let (index, axis, step) = m;
        if let Some((old, new)) = mutated_pair(index, axis, step) {
            let same_facets = old.prepare_arch_facet() == new.prepare_arch_facet()
                && old.mapping_facet() == new.mapping_facet();
            prop_assert_eq!(same_facets, stage_keys_equal(&old, &new));
        }
    }

    #[test]
    fn configs_share_one_prepared_iff_equal_stage_keys(m in mutation()) {
        let (index, axis, step) = m;
        if let Some((old, new)) = mutated_pair(index, axis, step) {
            let (g, fp) = graph();
            let cache = ScheduleCache::new();
            if let (Ok(a), Ok(b)) = (cache.prepared(*fp, g, &old), cache.prepared(*fp, g, &new)) {
                let same_key = stage_keys_equal(&old, &new);
                prop_assert_eq!(Arc::ptr_eq(&a, &b), same_key);
                prop_assert_eq!(cache.stats().stage_computes, if same_key { 1 } else { 2 });
            }
        }
    }

    #[test]
    fn incremental_rerun_matches_from_scratch(m in mutation()) {
        let (index, axis, step) = m;
        if let Some((old, new)) = mutated_pair(index, axis, step) {
            let (g, fp) = graph();
            // The tuner's long-lived cache: evaluate old, then mutate.
            let cache = ScheduleCache::new();
            let _ = cache.summary(*fp, g, &old, None);
            let warm = cache.summary(*fp, g, &new, None);
            // The from-scratch reference: a cold cache, new config only.
            let scratch = ScheduleCache::new().summary(*fp, g, &new, None);
            // Byte-identical through serialization; an infeasible config
            // fails on both paths with the same diagnostic.
            prop_assert_eq!(bytes(warm), bytes(scratch));
        }
    }

    #[test]
    fn free_cost_ignores_tile_shape_and_hop_latency(
        index in 0usize..DesignSpace::case_study().len(),
        flip_tile in proptest::bool::ANY,
    ) {
        let space = DesignSpace::case_study();
        let free = space.cost_models.iter().position(|c| *c == CostModelAxis::Free);
        let old = Coords {
            cost: free.expect("the case-study space has the free model"),
            ..space.coords(index)
        };
        // Both axes have two options: flip one of them, nothing else.
        let new = if flip_tile {
            Coords { tile: 1 - old.tile, ..old }
        } else {
            Coords { hop: 1 - old.hop, ..old }
        };
        if let Some((old, new)) = configs(old, new) {
            prop_assert!(!old.noc_cost && !old.gpeu_cost);
            prop_assert!(old.arch != new.arch, "the mutation changes the architecture");
            let (g, fp) = graph();
            let cache = ScheduleCache::new();
            prop_assert_eq!(
                bytes(cache.summary(*fp, g, &old, None)),
                bytes(cache.summary(*fp, g, &new, None))
            );
        }
    }
}
