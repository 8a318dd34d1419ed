//! Memory-sharing assertions for the zero-copy schedule refactor.
//!
//! `Prepared` and `RunResult` hand out `Arc<MappedGraph>`-style shared
//! handles; these tests pin the sharing topology with `Arc::ptr_eq` /
//! `Arc::strong_count`, so a future change that silently reintroduces a
//! deep clone (dropping batch memory sharing back to O(configs × graph))
//! fails loudly instead of just slowing down. The schedule cache keeps
//! summaries, not runs: the counts also pin that no memoized schedule
//! holds a `Prepared`'s artifacts alive.

use std::sync::Arc;

use cim_bench::runner::{fingerprint, sweep_jobs, Model, RunnerOptions, ScheduleCache, Sweep};
use clsa_cim::arch::Architecture;
use clsa_cim::core::{prepare, run_prepared, RunConfig};

fn cfg(pes: usize) -> RunConfig {
    RunConfig::baseline(Architecture::paper_case_study(pes).unwrap())
}

#[test]
fn run_prepared_shares_the_stage_artifacts() {
    let g = cim_models::fig5_example();
    let prepared = prepare(&g, &cfg(2)).unwrap();
    assert_eq!(Arc::strong_count(&prepared.layers), 1);

    let baseline = run_prepared(&prepared, &cfg(2)).unwrap();
    let clsa = run_prepared(&prepared, &cfg(2).with_cross_layer()).unwrap();

    // Both results alias the Prepared's artifacts — reference bumps, not
    // deep copies.
    for result in [&baseline, &clsa] {
        assert!(Arc::ptr_eq(&result.mapped_graph, &prepared.mapped_graph));
        assert!(Arc::ptr_eq(&result.layers, &prepared.layers));
        assert!(Arc::ptr_eq(&result.deps, &prepared.deps));
    }
    // Exactly three holders each: the Prepared plus the two results. A
    // silent re-clone would leave the count at 2 (and ptr_eq false).
    assert_eq!(Arc::strong_count(&prepared.layers), 3);
    assert_eq!(Arc::strong_count(&prepared.deps), 3);
    assert_eq!(Arc::strong_count(&prepared.mapped_graph), 3);

    drop(baseline);
    assert_eq!(Arc::strong_count(&prepared.layers), 2, "drops release shares");
}

#[test]
fn free_model_runs_share_the_prepared_cost_table() {
    // The precomputed edge-cost artifact behaves like the other stage
    // artifacts: peak-model (Free) runs alias the `Prepared`'s cached
    // zero-cost table, cost-model runs carry their own.
    let g = cim_models::fig5_example();
    let prepared = prepare(&g, &cfg(2)).unwrap();
    assert_eq!(Arc::strong_count(&prepared.costed_free), 1);

    let baseline = run_prepared(&prepared, &cfg(2)).unwrap();
    let clsa = run_prepared(&prepared, &cfg(2).with_cross_layer()).unwrap();
    for result in [&baseline, &clsa] {
        assert!(
            Arc::ptr_eq(&result.costed, &prepared.costed_free),
            "free-model runs must alias the cached zero-cost table"
        );
    }
    // Exactly three holders: the Prepared plus the two results.
    assert_eq!(Arc::strong_count(&prepared.costed_free), 3);

    // A NoC-cost run builds its own table and leaves the cached one alone.
    let mut noc = cfg(2).with_cross_layer();
    noc.noc_cost = true;
    let costly = run_prepared(&prepared, &noc).unwrap();
    assert!(!Arc::ptr_eq(&costly.costed, &prepared.costed_free));
    assert_eq!(Arc::strong_count(&prepared.costed_free), 3);
    assert_eq!(Arc::strong_count(&costly.costed), 1);
    assert!(costly.costed.tracks_transfers());
    assert!(!baseline.costed.tracks_transfers());

    drop(clsa);
    assert_eq!(Arc::strong_count(&prepared.costed_free), 2);
}

#[test]
fn cached_runs_of_one_mapping_share_one_prepared() {
    let g = cim_models::fig5_example();
    let fp = fingerprint(&g);
    let cache = ScheduleCache::new();

    let baseline = cache.summary(fp, &g, &cfg(2), None).unwrap();
    let clsa = cache.summary(fp, &g, &cfg(2).with_cross_layer(), None).unwrap();
    assert_eq!(cache.stats().stage_computes, 1, "one stage computation");
    assert!(clsa.makespan_cycles < baseline.makespan_cycles);

    // Different schedules, one cached Prepared — and the memoized
    // schedules hold none of its artifacts: the Prepared is the only
    // holder.
    let prepared = cache.prepared(fp, &g, &cfg(2)).unwrap();
    let clsa_prepared = cache.prepared(fp, &g, &cfg(2).with_cross_layer()).unwrap();
    assert!(Arc::ptr_eq(&prepared, &clsa_prepared));
    assert_eq!(Arc::strong_count(&prepared.layers), 1);
    assert_eq!(Arc::strong_count(&prepared.deps), 1);
    assert_eq!(Arc::strong_count(&prepared.mapped_graph), 1);
    // A schedule-level hit must not grow this.
    assert_eq!(cache.summary(fp, &g, &cfg(2), None).unwrap(), baseline);
    assert_eq!(cache.stats().schedule_hits(), 1, "schedule-level hit");
    assert_eq!(Arc::strong_count(&prepared.layers), 1);
    assert_eq!(Arc::strong_count(&prepared.deps), 1);
}

#[test]
fn identical_configs_in_a_cache_share_one_run_result() {
    let g = cim_models::fig5_example();
    let fp = fingerprint(&g);
    let cache = ScheduleCache::new();
    let summaries: Vec<_> = (0..8)
        .map(|_| cache.summary(fp, &g, &cfg(2), None).unwrap())
        .collect();
    assert!(summaries.windows(2).all(|w| w[0] == w[1]));
    let stats = cache.stats();
    assert_eq!(stats.schedule_computes, 1);
    assert_eq!(stats.schedule_hits(), 7);
    assert_eq!(stats.stage_lookups, 1, "hits never reach the stage level");
    // The cache's slot + this handle; any re-prepare would break it.
    let prepared = cache.prepared(fp, &g, &cfg(2)).unwrap();
    assert_eq!(Arc::strong_count(&prepared), 2);
    assert_eq!(Arc::strong_count(&prepared.layers), 1);
}

#[test]
fn batched_sweep_peaks_at_one_prepared_per_mapping() {
    // The observable contract of the batch path: a full sweep performs
    // one stage computation per distinct (model, arch, mapping) even
    // though several jobs consume each Prepared, and the results are
    // unaffected (golden tests pin the bytes; here we pin the sharing).
    let g = cim_models::fig5_example();
    let jobs = sweep_jobs(&Model::canonical("fig5", &g).unwrap(), &[1, 2]).unwrap();
    assert_eq!(jobs.len(), 6);
    // All six jobs share one canonicalized graph allocation.
    assert!(jobs[1..]
        .iter()
        .all(|j| Arc::ptr_eq(&j.model, &jobs[0].model)));

    let batch = Sweep::new(&jobs, RunnerOptions::with_jobs(4)).run().unwrap();
    // 3 distinct mappings (once-each, wdup+1, wdup+2) serve 6 schedules:
    // each baseline/xinf pair shared one Prepared instead of cloning it.
    assert_eq!(batch.stats.stage_computes, 3);
    assert_eq!(batch.stats.schedule_computes, 6);
    assert_eq!(batch.stats.stage_hits(), 3);
}
