//! The parallel, store-backed autotuning harness — `cim-tune` wired onto
//! the evaluation engine.
//!
//! `cim-tune` owns the *search* (design space, strategies, Pareto
//! archive, budgeted loop) behind its `Evaluator` trait; this module owns
//! the *evaluation*: [`TuneEvaluator`] fans each proposal batch over the
//! lane pool ([`parallel_map`]) and resolves each candidate through one
//! [`ScheduleCache::summary`] lookup: the persistent [`ResultStore`]
//! first, so a re-run of the same search — or a different strategy
//! crossing the same candidates — replays measurements from disk, then
//! the in-memory memo (stage prefixes shared across candidates that
//! differ only scheduling-side).
//!
//! Determinism: the measurement of a candidate is a pure function of the
//! candidate (summaries round-trip bit-exactly through the store), batch
//! results are reassembled in proposal order by `parallel_map`, and the
//! batch size is fixed by the tune options — so the exported front is
//! byte-identical for every `--jobs` value and for cold vs. warm stores
//! (pinned by `tests/tuner_determinism.rs`).
//!
//! The `autotune` binary and `examples/autotune_tinyyolov4.rs` sit on
//! [`autotune`] / [`pareto_rows`], the same code path the CI smoke run
//! and the golden-style assertions consume.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cim_ir::Graph;
use cim_tune::{
    tune, Budget, Candidate, DesignSpace, Evaluator, Measurement, ParetoArchive, PeMinMemo,
    SearchStrategy, TuneOptions, TuneResult,
};
use clsa_core::CoreError;
use serde::Serialize;

use crate::runner::{
    fingerprint, panic_message, parallel_map, CacheKey, CacheStats, ResultStore, RunSummary,
    RunnerOptions, ScheduleCache, ShardSpec, StoreStats,
};

/// Converts a persisted/aggregated [`RunSummary`] into the tuner's
/// objective vector. Both evaluation paths (fresh pipeline run, store
/// replay) go through this one function so cold and warm measurements
/// are identical bit for bit.
pub fn measurement_of(summary: &RunSummary) -> Measurement {
    Measurement {
        latency_cycles: summary.makespan_cycles,
        utilization: summary.utilization,
        noc_bytes: summary.noc_bytes,
        crossbars: summary.total_pes,
    }
}

/// The lane-pool + persistent-store candidate evaluator.
///
/// One evaluator serves one `(graph, design space)` pair: the `PE_min`
/// memo is keyed by the candidate's crossbar axis index.
pub struct TuneEvaluator<'a> {
    graph: &'a Graph,
    model_fp: u64,
    cache: ScheduleCache,
    store: Option<&'a ResultStore>,
    jobs: usize,
    pe_min: PeMinMemo,
}

impl<'a> TuneEvaluator<'a> {
    /// An evaluator over an already-canonicalized `graph`, running
    /// batches on `runner.jobs` lanes, optionally backed by a persistent
    /// store.
    pub fn new(graph: &'a Graph, runner: &RunnerOptions, store: Option<&'a ResultStore>) -> Self {
        Self {
            graph,
            model_fp: fingerprint(graph),
            cache: ScheduleCache::new(),
            store,
            jobs: runner.jobs,
            pe_min: PeMinMemo::new(),
        }
    }

    /// In-memory cache counters accumulated so far.
    pub fn cache_stats(&self) -> crate::runner::CacheStats {
        self.cache.stats()
    }

    /// The schedule-level store key identifying `candidate`'s pipeline
    /// run — the same identity the persistent store rows are named by
    /// and fingerprint-range sharding partitions on.
    ///
    /// # Errors
    ///
    /// Fails when the candidate cannot even be keyed (its crossbar
    /// cannot map the model, or its architecture is invalid) — exactly
    /// the candidates every evaluation path counts as infeasible.
    pub fn schedule_key(&self, candidate: &Candidate) -> Result<CacheKey, CoreError> {
        let pe_min = self.pe_min.pe_min(self.graph, candidate)?;
        let config = candidate.run_config(pe_min)?;
        Ok(CacheKey::schedule(self.model_fp, &config))
    }

    fn eval_one(&self, candidate: &Candidate) -> Result<Measurement, CoreError> {
        // One shared PE_min derivation with the sequential reference
        // evaluator (cim_tune::PipelineEvaluator) — the bit-for-bit
        // agreement between the two rests on it.
        let pe_min = self.pe_min.pe_min(self.graph, candidate)?;
        let config = candidate.run_config(pe_min)?;
        let summary = self
            .cache
            .summary(self.model_fp, self.graph, &config, self.store)?;
        Ok(measurement_of(&summary))
    }
}

impl Evaluator for TuneEvaluator<'_> {
    fn evaluate(&self, batch: &[Candidate]) -> Vec<Result<Measurement, CoreError>> {
        // A panicking candidate (a pipeline bug on a corner of the design
        // space, or an injected chaos fault) is contained to that
        // candidate: it counts as infeasible instead of poisoning the
        // lane pool and aborting the whole search.
        parallel_map(batch, self.jobs, |_, c| {
            match catch_unwind(AssertUnwindSafe(|| self.eval_one(c))) {
                Ok(outcome) => outcome,
                Err(payload) => Err(CoreError::StageMismatch {
                    detail: format!(
                        "candidate evaluation panicked (quarantined): {}",
                        panic_message(payload.as_ref())
                    ),
                }),
            }
        })
    }
}

/// One exported Pareto-front row — the candidate's decoded design choices
/// plus its objective vector, in the archive's canonical order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ParetoRow {
    /// Flat candidate index within the design space.
    pub candidate: usize,
    /// Human-readable configuration label.
    pub label: String,
    /// Stage-I sets per OFM (`null` = finest granularity).
    pub max_sets_per_layer: Option<usize>,
    /// Weight mapping: `once-each`, `wdup-greedy`, or `wdup-exactdp`.
    pub mapping: String,
    /// Spare PEs over `PE_min`.
    pub extra_pes: usize,
    /// Crossbar geometry `(rows, cols)`.
    pub crossbar: (usize, usize),
    /// PEs per tile.
    pub pes_per_tile: usize,
    /// NoC hop latency in cycles.
    pub noc_hop_latency: u64,
    /// Edge-cost model: `free`, `noc`, or `noc+gpeu`.
    pub cost_model: String,
    /// Makespan in crossbar cycles.
    pub latency_cycles: u64,
    /// Makespan in nanoseconds (cycles × the candidate crossbar's t_MVM).
    pub latency_ns: u64,
    /// Eq. 2 utilization.
    pub utilization: f64,
    /// Bytes forwarded over cross-layer dependency edges per inference.
    pub noc_bytes: u64,
    /// Crossbar PEs of the architecture (area proxy).
    pub crossbars: usize,
}

/// Decodes the archive's canonical front into exportable rows.
pub fn pareto_rows(space: &DesignSpace, archive: &ParetoArchive) -> Vec<ParetoRow> {
    archive
        .sorted()
        .iter()
        .map(|entry| {
            let c = space.candidate(entry.candidate);
            let m = &entry.measurement;
            ParetoRow {
                candidate: c.index,
                label: c.label(),
                max_sets_per_layer: c.set_policy.max_sets_per_layer,
                mapping: match c.mapping {
                    cim_tune::MappingAxis::OnceEach => "once-each".into(),
                    cim_tune::MappingAxis::Duplicate(cim_mapping::Solver::Greedy) => {
                        "wdup-greedy".into()
                    }
                    cim_tune::MappingAxis::Duplicate(cim_mapping::Solver::ExactDp) => {
                        "wdup-exactdp".into()
                    }
                },
                extra_pes: c.extra_pes,
                crossbar: (c.crossbar.rows, c.crossbar.cols),
                pes_per_tile: c.tile.pes_per_tile,
                noc_hop_latency: c.noc_hop_latency,
                cost_model: match c.cost_model {
                    cim_tune::CostModelAxis::Free => "free".into(),
                    cim_tune::CostModelAxis::NocHops => "noc".into(),
                    cim_tune::CostModelAxis::NocAndGpeu => "noc+gpeu".into(),
                },
                latency_cycles: m.latency_cycles,
                latency_ns: m.latency_cycles * c.crossbar.t_mvm_ns,
                utilization: m.utilization,
                noc_bytes: m.noc_bytes,
                crossbars: m.crossbars,
            }
        })
        .collect()
}

/// The full `--json` export of one autotune run: provenance (model,
/// space, strategy, seed, budget) plus the canonical Pareto front.
#[derive(Debug, Clone, Serialize)]
pub struct AutotuneReport {
    /// Model name.
    pub model: String,
    /// Space preset name (or `custom`).
    pub space: String,
    /// Strategy name.
    pub strategy: String,
    /// The seed the run used.
    pub seed: u64,
    /// Candidate budget (`null` = bounded by the space/wall clock only).
    pub budget: Option<usize>,
    /// Candidates evaluated.
    pub evaluated: usize,
    /// Candidates whose pipeline run failed.
    pub infeasible: usize,
    /// The Pareto front in canonical order.
    pub front: Vec<ParetoRow>,
}

/// Runs one budgeted search of `space` on `graph` and returns the tuner
/// outcome plus the exportable front rows — the single code path behind
/// the `autotune` binary, the example, and the regression tests.
///
/// # Errors
///
/// Propagates design-space validation errors; per-candidate pipeline
/// failures only count as infeasible.
pub fn autotune(
    graph: &Graph,
    space: &DesignSpace,
    strategy: &mut dyn SearchStrategy,
    budget: &Budget,
    options: &TuneOptions,
    runner: &RunnerOptions,
    store: Option<&ResultStore>,
) -> Result<(TuneResult, Vec<ParetoRow>), CoreError> {
    let evaluator = TuneEvaluator::new(graph, runner, store);
    let result = tune(space, strategy, &evaluator, budget, options)?;
    let rows = pareto_rows(space, &result.archive);
    Ok((result, rows))
}

/// Outcome of warming one slice of a sharded autotune
/// ([`autotune_shard`]): the owned subset of the design space has been
/// evaluated and its summaries persisted into the shared store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardWarmReport {
    /// The slice that ran.
    pub shard: ShardSpec,
    /// Candidates this slice owns (and evaluated).
    pub owned: usize,
    /// Total candidates in the design space.
    pub total: usize,
    /// Candidates whose pipeline run failed (nothing persisted). Counts
    /// unkeyable candidates too, which no slice owns — so that part of
    /// the count repeats in every slice.
    pub infeasible: usize,
    /// In-memory schedule-cache counters of this slice's evaluator.
    pub stats: CacheStats,
    /// Persistent-store counters of this slice's process.
    pub store_stats: StoreStats,
}

impl fmt::Display for ShardWarmReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {}: {} of {} candidates owned, {} infeasible; cache {}; store {}",
            self.shard, self.owned, self.total, self.infeasible, self.stats, self.store_stats
        )
    }
}

/// Warms one slice of an `n`-way sharded autotune: enumerates the whole
/// design space, evaluates exactly the candidates whose schedule key
/// this slice owns, and persists their summaries into `store`.
///
/// The partition is a pure function of the candidate's store key, so
/// the slices of a space are disjoint, cover every keyable candidate,
/// and need no coordination beyond the shared store. Once every slice
/// has run against the same `--cache-dir`, any strategy search over the
/// space (`--shard merge`, or a plain run with the same store) replays
/// measurements from disk and exports the byte-identical unsharded
/// front — candidate measurements are pure functions of the candidate,
/// so warm and cold runs of a deterministic strategy agree exactly.
///
/// # Errors
///
/// Propagates design-space validation errors. Per-candidate pipeline
/// failures only count as `infeasible`, mirroring [`autotune`].
pub fn autotune_shard(
    graph: &Graph,
    space: &DesignSpace,
    shard: ShardSpec,
    runner: &RunnerOptions,
    store: &ResultStore,
) -> Result<ShardWarmReport, CoreError> {
    let evaluator = TuneEvaluator::new(graph, runner, Some(store));
    let mut owned = Vec::new();
    let mut infeasible = 0usize;
    for index in 0..space.len() {
        let candidate = space.candidate(index);
        match evaluator.schedule_key(&candidate) {
            Ok(key) => {
                if shard.owns(&key) {
                    owned.push(candidate);
                }
            }
            // Unkeyable candidates would fail under any strategy and
            // never reach the store; no slice owns them.
            Err(_) => infeasible += 1,
        }
    }
    let outcomes = evaluator.evaluate(&owned);
    infeasible += outcomes.iter().filter(|m| m.is_err()).count();
    Ok(ShardWarmReport {
        shard,
        owned: owned.len(),
        total: space.len(),
        infeasible,
        stats: evaluator.cache_stats(),
        store_stats: store.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_frontend::{canonicalize, CanonOptions};
    use cim_tune::GridSearch;

    fn fig5() -> Graph {
        canonicalize(&cim_models::fig5_example(), &CanonOptions::default())
            .expect("canonicalizes")
            .into_graph()
    }

    #[test]
    fn lane_pool_evaluator_matches_the_sequential_reference() {
        let g = fig5();
        let space = DesignSpace::tiny();
        let batch: Vec<Candidate> = (0..space.len()).map(|i| space.candidate(i)).collect();
        let parallel = TuneEvaluator::new(&g, &RunnerOptions::with_jobs(4), None).evaluate(&batch);
        let sequential = cim_tune::PipelineEvaluator::new(&g).evaluate(&batch);
        for (p, s) in parallel.iter().zip(&sequential) {
            assert_eq!(p.as_ref().unwrap(), s.as_ref().unwrap());
        }
    }

    #[test]
    fn autotune_grid_covers_the_tiny_space_and_exports_rows() {
        let g = fig5();
        let space = DesignSpace::tiny();
        let (result, rows) = autotune(
            &g,
            &space,
            &mut GridSearch::new(),
            &Budget::default(),
            &TuneOptions::default(),
            &RunnerOptions::sequential(),
            None,
        )
        .unwrap();
        assert_eq!(result.stats.evaluated, space.len());
        assert_eq!(rows.len(), result.archive.len());
        assert!(!rows.is_empty());
        // Rows come out in the canonical (latency-ascending-first) order.
        for w in rows.windows(2) {
            assert!(w[0].latency_cycles <= w[1].latency_cycles);
        }
        // Stage prefixes are shared across cost-model/policy variants.
        // (tiny space: 8 candidates over 4 distinct mapping prefixes)
        let stats = &result.stats;
        assert_eq!(stats.infeasible, 0);
    }

    #[test]
    fn evaluator_reuses_artifacts_across_ask_tell_generations() {
        let g = fig5();
        let space = DesignSpace::tiny();
        let evaluator = TuneEvaluator::new(&g, &RunnerOptions::sequential(), None);
        let batch: Vec<Candidate> = (0..space.len()).map(|i| space.candidate(i)).collect();

        // Generation 1 pays for every stage prefix and schedule once.
        let first = evaluator.evaluate(&batch);
        let cold = evaluator.cache_stats();
        assert!(cold.stage_computes > 0);

        // Generation 2 revisits the same candidates (as an ask/tell
        // strategy circling a region does): nothing recomputes, and the
        // measurements are identical.
        let second = evaluator.evaluate(&batch);
        let warm = evaluator.cache_stats();
        assert_eq!(warm.stage_computes, cold.stage_computes);
        assert_eq!(warm.schedule_computes, cold.schedule_computes);
        assert!(warm.hits() > cold.hits());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
    }

    #[test]
    fn sharded_warmup_plus_merge_matches_the_unsharded_front() {
        let g = fig5();
        let space = DesignSpace::tiny();
        let reference = autotune(
            &g,
            &space,
            &mut GridSearch::new(),
            &Budget::default(),
            &TuneOptions::default(),
            &RunnerOptions::sequential(),
            None,
        )
        .unwrap();

        let dir = std::env::temp_dir().join(format!("cim_tune_shard_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();

        // Phase 1: each slice warms its owned candidates into the store.
        let mut owned = 0;
        for i in 0..2 {
            let report = autotune_shard(
                &g,
                &space,
                ShardSpec::new(i, 2).unwrap(),
                &RunnerOptions::sequential(),
                &store,
            )
            .unwrap();
            assert_eq!(report.total, space.len());
            assert_eq!(report.infeasible, 0);
            owned += report.owned;
        }
        assert_eq!(owned, space.len(), "slices partition the space exactly");
        assert_eq!(store.len(), space.len());

        // Phase 2: merge — the strategy run replays every measurement
        // from the warm store and exports the byte-identical front.
        let hits_before = store.stats().hits;
        let merged = autotune(
            &g,
            &space,
            &mut GridSearch::new(),
            &Budget::default(),
            &TuneOptions::default(),
            &RunnerOptions::sequential(),
            Some(&store),
        )
        .unwrap();
        assert_eq!(store.stats().hits - hits_before, space.len() as u64);
        assert_eq!(merged.1, reference.1);
        assert_eq!(
            serde_json::to_string(&merged.1).unwrap(),
            serde_json::to_string(&reference.1).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
