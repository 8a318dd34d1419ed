//! Sharded sweeps are a pure partition: running `--shard 0/2` and
//! `--shard 1/2` against one shared `--cache-dir`, then merging, must
//! reproduce the unsharded artifacts **byte-for-byte** — for the fig. 6c
//! sweep (pinned against `tests/golden/fig6c.json`) and for the autotune
//! Pareto front. Also pins the failure modes: a merge against a store
//! that is missing rows (which must fail without computing anything),
//! and shard modes without a store at all.

use std::fs;
use std::path::PathBuf;

use cim_bench::artifacts::{case_study_model, fig6c_jobs};
use cim_bench::runner::{
    CacheKey, FaultPlan, FaultSite, ResultStore, RunnerOptions, ShardMode, ShardSpec, Sweep,
    SweepJob, SweepOutcome,
};
use cim_bench::tune::{autotune, autotune_shard};
use cim_frontend::{canonicalize, CanonOptions};
use cim_tune::{Budget, DesignSpace, GridSearch, TuneOptions};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cim_shard_it_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One `--shard` run of `jobs` against `store`.
fn sharded(
    jobs: &[SweepJob],
    runner: RunnerOptions,
    store: &ResultStore,
    shard: ShardMode,
) -> Result<SweepOutcome, clsa_core::CoreError> {
    Sweep {
        store: Some(store),
        shard,
        ..Sweep::new(jobs, runner)
    }
    .run()
}

fn slice(i: usize) -> ShardMode {
    ShardMode::Slice(ShardSpec::new(i, 2).unwrap())
}

#[test]
fn two_slices_plus_merge_reproduce_the_unsharded_fig6c_artifact() {
    let jobs = fig6c_jobs(&case_study_model()).expect("sweep jobs build");
    let runner = RunnerOptions::with_jobs(4);
    let reference = Sweep::new(&jobs, runner).run().expect("unsharded sweep");

    // Two worker processes in spirit: each owns a fingerprint-range
    // slice, both persist into the same store.
    let dir = tmp_dir("fig6c");
    let store = ResultStore::open(&dir).expect("store opens");
    let s0 = sharded(&jobs, runner, &store, slice(0)).expect("slice 0 runs");
    let s1 = sharded(&jobs, runner, &store, slice(1)).expect("slice 1 runs");
    assert_eq!(
        s0.owned + s1.owned,
        jobs.len(),
        "the slices partition the job list exactly"
    );
    assert!(s0.results.is_empty() && s1.results.is_empty(), "slices export nothing");
    assert_eq!(
        store.stats().writes,
        jobs.len() as u64,
        "every job persisted exactly once"
    );

    // The merge replays the fully-warm store — a fresh handle, as the
    // merge would run in its own process.
    let store = ResultStore::open(&dir).expect("store reopens");
    let merged = sharded(&jobs, runner, &store, ShardMode::Merge).expect("merge replays");
    assert_eq!(
        store.stats().hits,
        jobs.len() as u64,
        "a merge computes nothing"
    );
    assert_eq!(merged.results, reference.results);

    // Byte-for-byte: the merged rows serialize to the exact artifact the
    // unsharded run exports, which is pinned by the committed golden.
    let merged_json = serde_json::to_string_pretty(&merged.results).expect("rows serialize");
    let reference_json = serde_json::to_string_pretty(&reference.results).expect("rows serialize");
    assert_eq!(merged_json, reference_json);
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig6c.json");
    let golden = fs::read_to_string(golden).expect("committed golden readable");
    assert_eq!(
        merged_json, golden,
        "sharded merge drifted from tests/golden/fig6c.json"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn merge_against_a_cold_store_names_the_missing_slice() {
    let jobs = fig6c_jobs(&case_study_model()).expect("sweep jobs build");
    let dir = tmp_dir("coldmerge");
    let store = ResultStore::open(&dir).expect("store opens");
    let err = sharded(&jobs, RunnerOptions::sequential(), &store, ShardMode::Merge)
        .expect_err("nothing persisted yet");
    let detail = err.to_string();
    assert!(
        detail.contains("run every `--shard i/n` slice"),
        "the error tells the operator what to do next: {detail}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A merge shares the job body of a live run, so it must stop at the
/// store: against a partly warm store it names a missing job and neither
/// computes, writes, nor consults the job-level fault sites.
#[test]
fn merge_against_a_partly_warm_store_computes_nothing() {
    let jobs = fig6c_jobs(&case_study_model()).expect("sweep jobs build");
    let runner = RunnerOptions::with_jobs(2);
    let dir = tmp_dir("partmerge");
    let store = ResultStore::open(&dir).expect("store opens");
    sharded(&jobs, runner, &store, slice(0)).expect("slice 0 runs");

    let slice1_owns = ShardSpec::new(1, 2).unwrap();
    let missing: Vec<String> = jobs
        .iter()
        .filter(|job| slice1_owns.owns(&CacheKey::schedule(job.model.fingerprint(), &job.config)))
        .map(|job| format!("`{} {}`", job.model.name(), job.label))
        .collect();
    assert!(!missing.is_empty(), "slice 1 owns part of the fig6c sweep");

    let store = ResultStore::open(&dir).expect("store reopens");
    let plan = FaultPlan::new(1).with_rate(FaultSite::JobPanic, 1000);
    let err = Sweep {
        store: Some(&store),
        shard: ShardMode::Merge,
        faults: Some(&plan),
        ..Sweep::new(&jobs, runner)
    }
    .run()
    .expect_err("slice 1 never ran");
    let detail = err.to_string();
    assert!(
        detail.contains(&missing[0]),
        "the error names slice 1's first job {}: {detail}",
        missing[0]
    );
    assert_eq!(store.stats().writes, 0, "a merge writes nothing");
    assert_eq!(plan.fired(FaultSite::JobPanic), 0, "a merge never runs a job");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn shard_modes_without_a_store_are_typed_errors() {
    let jobs = fig6c_jobs(&case_study_model()).expect("sweep jobs build");
    let runner = RunnerOptions::sequential();
    for mode in [
        ShardMode::Slice(ShardSpec::new(0, 2).unwrap()),
        ShardMode::Merge,
    ] {
        let err = Sweep { shard: mode, ..Sweep::new(&jobs, runner) }
            .run()
            .expect_err("the store is the merge point");
        assert!(
            err.to_string().contains("--cache-dir"),
            "error names the missing flag: {err}"
        );
    }
}

#[test]
fn sharded_autotune_warmup_reproduces_the_unsharded_front() {
    let g = canonicalize(&cim_models::fig5_example(), &CanonOptions::default())
        .expect("fig5 canonicalizes")
        .into_graph();
    let space = DesignSpace::tiny();
    let runner = RunnerOptions::with_jobs(2);
    let budget = Budget::default();
    let options = TuneOptions::default();

    let (_, reference) = autotune(
        &g,
        &space,
        &mut GridSearch::new(),
        &budget,
        &options,
        &runner,
        None,
    )
    .expect("unsharded autotune");

    // Warm the store slice by slice, then re-run the (deterministic)
    // search against it — every evaluation replays from disk.
    let dir = tmp_dir("autotune");
    let store = ResultStore::open(&dir).expect("store opens");
    let w0 = autotune_shard(&g, &space, ShardSpec::new(0, 2).unwrap(), &runner, &store)
        .expect("slice 0 warms");
    let w1 = autotune_shard(&g, &space, ShardSpec::new(1, 2).unwrap(), &runner, &store)
        .expect("slice 1 warms");
    assert_eq!(w0.owned + w1.owned, space.len(), "slices partition the space");
    assert_eq!(w0.infeasible + w1.infeasible, 0, "tiny space is fully feasible");

    let store = ResultStore::open(&dir).expect("store reopens");
    let (_, merged) = autotune(
        &g,
        &space,
        &mut GridSearch::new(),
        &budget,
        &options,
        &runner,
        Some(&store),
    )
    .expect("merge run");
    let stats = store.stats();
    assert_eq!(stats.hits, space.len() as u64, "merge replays every row");
    assert_eq!(stats.writes, 0, "merge computes nothing new");

    assert_eq!(
        serde_json::to_string_pretty(&merged).expect("front serializes"),
        serde_json::to_string_pretty(&reference).expect("front serializes"),
        "sharded warm-up changed the Pareto front"
    );
    let _ = fs::remove_dir_all(&dir);
}
