//! Workspace-level contract of the parallel batched evaluation engine:
//! the ISSUE-2 acceptance criteria.
//!
//! 1. A ≥ 12-configuration sweep through the runner with `--jobs 4`
//!    produces **byte-identical** aggregated results to `--jobs 1`.
//! 2. The schedule cache reports ≥ 1 hit on a baseline-vs-CLSA pair over
//!    the same model, and never computes a `(model, arch, strategy)`
//!    point twice.

use clsa_cim::bench::runner::{
    fingerprint, parallel_map, sweep_jobs, sweep_jobs_for_models, RunnerOptions, ScheduleCache,
    Sweep, SweepJob,
};
use clsa_cim::core::RunConfig;
use clsa_cim::ir::Graph;

/// Three models × (PE_min and PE_min + 2 architectures) × strategies:
/// 4 configurations each, 12 jobs total.
fn three_by_two_sweep() -> Vec<SweepJob> {
    let models: Vec<(String, Graph)> = vec![
        ("fig5".to_string(), clsa_cim::models::fig5_example()),
        ("toy_cnn".to_string(), clsa_cim::models::toy_cnn(None)),
        ("mlp".to_string(), clsa_cim::models::mlp(None)),
    ];
    sweep_jobs_for_models(&models, &[2]).unwrap()
}

#[test]
fn parallel_batch_is_byte_identical_to_sequential() {
    let jobs = three_by_two_sweep();
    assert!(jobs.len() >= 12, "acceptance demands a ≥ 12-config sweep");

    let parallel = Sweep::new(&jobs, RunnerOptions::with_jobs(4)).run().unwrap();
    let sequential = Sweep::new(&jobs, RunnerOptions::sequential()).run().unwrap();

    // Byte-for-byte: compare the serialized aggregates, not just PartialEq
    // (which would accept e.g. -0.0 vs 0.0 or NaN-sign differences).
    let parallel_bytes = serde_json::to_string(&parallel.results).unwrap();
    let sequential_bytes = serde_json::to_string(&sequential.results).unwrap();
    assert_eq!(parallel_bytes, sequential_bytes);

    // Worker count must not change what was computed, only who computed it.
    assert_eq!(parallel.stats, sequential.stats);

    // Row order is the job order.
    for (job, row) in jobs.iter().zip(&parallel.results) {
        assert_eq!(job.model, row.model);
        assert_eq!(job.label, row.label);
    }
}

#[test]
fn every_worker_count_agrees() {
    let jobs = three_by_two_sweep();
    let reference = Sweep::new(&jobs, RunnerOptions::sequential()).run().unwrap();
    for workers in [2, 3, 8, 64] {
        let batch = Sweep::new(&jobs, RunnerOptions::with_jobs(workers)).run().unwrap();
        assert_eq!(batch.results, reference.results, "jobs = {workers}");
    }
}

#[test]
fn cache_hits_on_baseline_vs_clsa_pair() {
    let g = clsa_cim::models::fig5_example();
    // Two jobs: layer-by-layer and xinf over the same model and arch.
    let jobs = sweep_jobs("fig5", &g, &[]).unwrap();
    assert_eq!(jobs.len(), 2);
    let batch = Sweep::new(&jobs, RunnerOptions::with_jobs(2)).run().unwrap();
    assert!(
        batch.stats.stage_hits() >= 1,
        "baseline and CLSA over one model must share the stage prefix: {}",
        batch.stats
    );
    assert_eq!(
        batch.stats.stage_computes, 1,
        "determine_sets/determine_dependencies must run once, not twice"
    );
}

#[test]
fn concurrent_cache_never_duplicates_schedule_computation() {
    let g = clsa_cim::models::fig5_example();
    let fp = fingerprint(&g);
    let cache = ScheduleCache::new();
    let arch = clsa_cim::arch::Architecture::paper_case_study(2).unwrap();
    let configs: Vec<RunConfig> = (0..32)
        .map(|i| {
            let cfg = RunConfig::baseline(arch.clone());
            if i % 2 == 0 {
                cfg
            } else {
                cfg.with_cross_layer()
            }
        })
        .collect();

    // 32 lookups over 2 distinct configurations, hammered by 8 workers.
    let results = parallel_map(&configs, 8, |_, cfg| cache.summary(fp, &g, cfg, None).unwrap());
    let stats = cache.stats();
    assert_eq!(stats.schedule_lookups, 32);
    assert_eq!(stats.schedule_computes, 2, "one compute per distinct config");
    assert_eq!(stats.stage_computes, 1, "both configs share one stage prefix");
    assert_eq!(stats.hits(), 30 + 1);

    // And every duplicate lookup observed the same memoized result.
    for pair in results.chunks(2) {
        assert_eq!(pair[0], results[0]);
        assert_eq!(pair[1], results[1]);
    }
}
