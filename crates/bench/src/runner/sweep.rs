//! Sweep construction and deterministic aggregation.
//!
//! A sweep is expressed as a **flat job list** — one [`SweepJob`] per
//! `(model, architecture, strategy)` point — that [`Sweep::run`] executes
//! over the lane pool with a shared [`ScheduleCache`](super::ScheduleCache),
//! then folds into a [`SweepOutcome`] whose rows come out in job order.
//! Aggregation is the only cross-job step (speedups are relative to each
//! model's layer-by-layer baseline row), so jobs stay embarrassingly
//! parallel and the output is bit-for-bit identical for every `--jobs`
//! value.
//!
//! Binaries that read each job's full [`RunResult`] (the Gantt charts and
//! the ablations) hand their job list to [`run_jobs`] instead: the same
//! pool and stage cache, with the results themselves in job order.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use cim_arch::Architecture;
use cim_frontend::{canonicalize, CanonOptions};
use cim_ir::Graph;
use cim_mapping::{layer_costs, min_pes, MappingOptions, Solver};
use clsa_core::{eq3_predicted_from_utilization, run_prepared, CoreError, RunConfig, RunResult};

use super::cache::{CacheStats, ScheduleCache};
use super::fault::{panic_message, FaultHook, FaultSite};
use super::fingerprint::{fingerprint, CacheKey};
use super::lane::parallel_map;
use super::shard::ShardMode;
use super::store::{ResultStore, RunSummary, StoreStats};
use super::RunnerOptions;
use crate::experiments::ConfigResult;

/// Label of the reference configuration every speedup is measured against.
pub const BASELINE_LABEL: &str = "layer-by-layer";

/// How many times a panicking job is retried (attempts total) before it
/// is quarantined. Transient panics — an injected fault that fires on
/// one attempt's draw, a poisoned scratch state — get a second chance;
/// deterministic panics fail fast enough to keep batch latency bounded.
pub const MAX_JOB_ATTEMPTS: u32 = 3;

/// Closed-form `PE_min` of a canonicalized graph on the paper's 256×256
/// crossbars (Eq. 1 over the layer costs — no probe run needed).
///
/// The paper-case-study crossbar is PE-count-independent, so this single
/// probe serves any architecture in that family; sweeps over other
/// crossbar specs must compute their own costs.
///
/// # Errors
///
/// Propagates cost-model errors (e.g. a graph without base layers).
pub fn pe_min_of(graph: &Graph, options: &MappingOptions) -> Result<usize, CoreError> {
    let costs = layer_costs(graph, &cim_arch::CrossbarSpec::wan_nature_2022(), options)?;
    Ok(min_pes(&costs))
}

/// One point of a sweep: a model, an architecture, and a strategy.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Model name (the `model` column of the result row).
    pub model: String,
    /// Fingerprint of the canonicalized model graph.
    pub model_fp: u64,
    /// The canonicalized graph, shared across the model's jobs.
    pub graph: Arc<Graph>,
    /// Configuration label (`layer-by-layer`, `xinf`, `wdup+<x>`, …).
    pub label: String,
    /// Extra PEs over `PE_min` (the paper's `x`).
    pub x: usize,
    /// `PE_min` of the model on this job's crossbar/bit-slicing setup.
    pub pe_min: usize,
    /// Full pipeline configuration.
    pub config: RunConfig,
}

/// One sweep over a flat job list, folded into result rows ([`run_jobs`]
/// returns the full runs instead). Build it with [`Sweep::new`] and set
/// the optional fields with struct-update syntax, e.g.
/// `Sweep { store: Some(&store), ..Sweep::new(&jobs, runner) }`:
///
/// ```
/// use cim_bench::runner::{sweep_jobs, RunnerOptions, Sweep};
///
/// # fn main() -> Result<(), clsa_core::CoreError> {
/// let jobs = sweep_jobs("fig5", &cim_models::fig5_example(), &[1])?;
/// let outcome = Sweep::new(&jobs, RunnerOptions::sequential()).run()?;
/// assert_eq!(outcome.results.len(), 4); // baseline, xinf, wdup+1, wdup+1+xinf
/// assert_eq!(outcome.owned, jobs.len());
/// assert!(outcome.failures.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sweep<'a> {
    /// The jobs, in the order their rows come out.
    pub jobs: &'a [SweepJob],
    /// Worker-pool options (`--jobs`).
    pub runner: RunnerOptions,
    /// Persistent store (`--cache-dir`): consulted before any job
    /// computes, and written after. Required by `Slice` and `Merge`.
    pub store: Option<&'a ResultStore>,
    /// Which part of the job list this process evaluates (`--shard`).
    pub shard: ShardMode,
    /// Deterministic chaos injection into the job body (store-level
    /// sites are installed on the store itself).
    pub faults: Option<&'a dyn FaultHook>,
}

/// What one [`Sweep::run`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// One row per job, in job order. Quarantined jobs (see
    /// [`failures`](Self::failures)) produce no row; with zero faults
    /// this is every job. Empty for a slice that owns only part of the
    /// list: a model's baseline may belong to another slice, so the rows
    /// come from the merge.
    pub results: Vec<ConfigResult>,
    /// Jobs this run owned: every job, except under `ShardMode::Slice`.
    pub owned: usize,
    /// Typed per-job failure report: jobs quarantined after repeated
    /// panics, plus rows unaggregatable because their model's baseline
    /// was quarantined. Empty on a clean run.
    pub failures: Vec<JobFailure>,
    /// In-memory cache counters accumulated over the run.
    pub stats: CacheStats,
    /// Persistent-store counters, when the sweep ran against a store.
    pub store_stats: Option<StoreStats>,
}

/// Why a job produced no result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailureKind {
    /// The job panicked on every one of its attempts and was quarantined
    /// so the rest of the batch could finish.
    Quarantined {
        /// Attempts made (always [`MAX_JOB_ATTEMPTS`]).
        attempts: u32,
        /// Message of the last panic.
        message: String,
    },
    /// The job itself succeeded, but its model's [`BASELINE_LABEL`] job
    /// was quarantined, so no speedup row can be aggregated for it.
    BaselineUnavailable,
}

/// One entry of [`SweepOutcome::failures`], naming the failed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Index into the batch's job list.
    pub index: usize,
    /// The job's model name.
    pub model: String,
    /// The job's configuration label.
    pub label: String,
    /// What went wrong.
    pub kind: JobFailureKind,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            JobFailureKind::Quarantined { attempts, message } => write!(
                f,
                "job {} `{} {}` quarantined after {} attempts: {}",
                self.index, self.model, self.label, attempts, message
            ),
            JobFailureKind::BaselineUnavailable => write!(
                f,
                "job {} `{} {}`: baseline `{BASELINE_LABEL}` quarantined; no speedup row",
                self.index, self.model, self.label
            ),
        }
    }
}

/// Per-job execution outcome before aggregation. `Failed` (a typed
/// pipeline error) keeps the historical propagate-first semantics;
/// `Panicked` is contained and reported instead of propagated.
#[derive(Debug)]
enum JobOutcome {
    Done(RunSummary),
    Failed(CoreError),
    Panicked { attempts: u32, message: String },
    /// Another `--shard` slice owns the job; this run leaves it alone.
    NotOwned,
}

/// The fault-decision key of a job: a stable fold of its schedule-level
/// cache key, so a plan fires on the same jobs regardless of job-list
/// order, thread count, or sharding.
fn job_fault_key(key: &CacheKey) -> u64 {
    key.model ^ key.arch.rotate_left(21) ^ key.strategy.rotate_left(42)
}

impl<'a> Sweep<'a> {
    /// A sweep of every job in this process, with no store and no
    /// fault injection.
    pub fn new(jobs: &'a [SweepJob], runner: RunnerOptions) -> Self {
        Sweep {
            jobs,
            runner,
            store: None,
            shard: ShardMode::All,
            faults: None,
        }
    }

    /// Runs the sweep on the lane pool and aggregates the rows.
    ///
    /// Every job resolves through one shared [`ScheduleCache`], so
    /// repeated `(model, arch, strategy)` prefixes (e.g. the baseline and
    /// `xinf` rows of one model) are computed once. With a store, each
    /// job first looks up its schedule-level [`CacheKey`]: a trustworthy
    /// row skips the whole pipeline, and a fresh summary is persisted
    /// afterwards. The store is therefore also the resume state — rerun
    /// a killed sweep against the same store and the finished jobs
    /// replay warm. Summaries round-trip bit-exactly, so rows are
    /// identical for every `runner.jobs`, cold or warm.
    ///
    /// Each job runs under `catch_unwind` with bounded retry
    /// ([`MAX_JOB_ATTEMPTS`]); a job that panics every attempt is
    /// quarantined into [`SweepOutcome::failures`] and the survivors
    /// aggregate through the unchanged fold.
    ///
    /// The shard mode picks the jobs: `All` runs every job, `Slice` only
    /// the jobs its fingerprint range owns
    /// ([`ShardSpec::owns`](super::ShardSpec::owns)), and
    /// `Merge` computes nothing — every row must already be in the store.
    ///
    /// # Errors
    ///
    /// * `Slice` or `Merge` without a store ([`ShardMode::require_store`]).
    /// * `Merge` with a job missing from the store: a
    ///   [`CoreError::StageMismatch`] naming the first such job — run
    ///   every `--shard i/n` slice first.
    /// * The first typed pipeline error in job order (deterministically,
    ///   even when a later job fails first on the wall clock).
    /// * A model with no [`BASELINE_LABEL`] job in the list.
    ///
    /// Store I/O problems never fail the sweep: unreadable rows are
    /// evicted and recomputed, failed writes are counted in
    /// [`StoreStats::write_errors`].
    pub fn run(&self) -> Result<SweepOutcome, CoreError> {
        self.shard.require_store(self.store)?;
        let cache = ScheduleCache::new();
        let outcomes = parallel_map(self.jobs, self.runner.jobs, |_, job| self.run_one(job, &cache));
        let owned = outcomes
            .iter()
            .filter(|o| !matches!(o, JobOutcome::NotOwned))
            .count();
        let (results, failures) = aggregate(self.jobs, outcomes)?;
        Ok(SweepOutcome {
            results,
            owned,
            failures,
            stats: cache.stats(),
            store_stats: self.store.map(ResultStore::stats),
        })
    }

    /// The single job body of every shard mode: store first, then (unless
    /// merging) the pipeline with panic containment, bounded retry, and
    /// the fault hook.
    fn run_one(&self, job: &SweepJob, cache: &ScheduleCache) -> JobOutcome {
        let key = CacheKey::schedule(job.model_fp, &job.config);
        if let ShardMode::Slice(spec) = self.shard {
            if !spec.owns(&key) {
                return JobOutcome::NotOwned;
            }
        }
        if let Some(summary) = self.store.and_then(|store| store.get(&key)) {
            return JobOutcome::Done(summary);
        }
        if self.shard == ShardMode::Merge {
            return JobOutcome::Failed(CoreError::StageMismatch {
                detail: format!(
                    "merge: no persisted summary for job `{} {}` (key {key:?}); \
                     run every `--shard i/n` slice against this --cache-dir first",
                    job.model, job.label
                ),
            });
        }
        let fault_key = job_fault_key(&key);
        let mut message = String::new();
        for attempt in 0..MAX_JOB_ATTEMPTS {
            if let Some(h) = self.faults {
                if h.decide(FaultSite::JobDelay, fault_key, attempt) {
                    std::thread::sleep(h.delay());
                }
            }
            let injected = self
                .faults
                .is_some_and(|h| h.decide(FaultSite::JobPanic, fault_key, attempt));
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if injected {
                    panic!("injected fault: job panic (key {fault_key:016x}, attempt {attempt})");
                }
                let store = self.store;
                cache.summary_on_store_miss(key, job.model_fp, &job.graph, &job.config, store)
            }));
            match caught {
                Ok(Ok(summary)) => return JobOutcome::Done(summary),
                Ok(Err(e)) => return JobOutcome::Failed(e),
                Err(payload) => message = panic_message(payload.as_ref()),
            }
        }
        JobOutcome::Panicked {
            attempts: MAX_JOB_ATTEMPTS,
            message,
        }
    }
}

/// Canonicalizes `graph` (default options) into the shared graph of a
/// model's [`SweepJob`]s, with its fingerprint.
///
/// # Errors
///
/// A frontend canonicalization error, as [`CoreError::StageMismatch`].
pub fn canonical(graph: &Graph) -> Result<(Arc<Graph>, u64), CoreError> {
    let canon =
        canonicalize(graph, &CanonOptions::default()).map_err(|e| CoreError::StageMismatch {
            detail: e.to_string(),
        })?;
    let g = Arc::new(canon.into_graph());
    let model_fp = fingerprint(g.as_ref());
    Ok((g, model_fp))
}

/// Runs every job's full pipeline (`prepare`, then `run_prepared`) on the
/// lane pool through one fresh [`ScheduleCache`], so jobs over one mapping
/// share a single `prepare`. For callers that read whole [`RunResult`]s
/// (schedules, sets, duplication plans); [`Sweep::run`] keeps only each
/// job's summary row. Only the stage level is used: the returned counters
/// have no schedule lookups.
///
/// # Errors
///
/// The first pipeline error in job order (deterministically, even when a
/// later job fails first on the wall clock).
pub fn run_jobs(
    jobs: &[SweepJob],
    runner: RunnerOptions,
) -> Result<(Vec<RunResult>, CacheStats), CoreError> {
    let cache = ScheduleCache::new();
    let results = parallel_map(jobs, runner.jobs, |_, job| {
        let prepared = cache.prepared(job.model_fp, &job.graph, &job.config)?;
        run_prepared(&prepared, &job.config)
    });
    let results = results.into_iter().collect::<Result<_, _>>()?;
    Ok((results, cache.stats()))
}

/// Builds the paper's standard job list for one model: the layer-by-layer
/// baseline and `xinf` at `PE_min`, plus `wdup+x` and `wdup+x+xinf` for
/// every `x` in `xs`, in that order. Every job uses the finest Stage-I
/// sets and the greedy duplication solver.
///
/// # Errors
///
/// Propagates frontend canonicalization and architecture construction
/// errors (raw TF-style models are accepted; the graph is canonicalized
/// here, once, and shared by every job).
pub fn sweep_jobs(name: &str, graph: &Graph, xs: &[usize]) -> Result<Vec<SweepJob>, CoreError> {
    let (g, model_fp) = canonical(graph)?;
    let pe_min = pe_min_of(&g, &MappingOptions::default())?;

    let base_cfg = |pes: usize| -> Result<RunConfig, CoreError> {
        Ok(RunConfig::baseline(Architecture::paper_case_study(pes)?))
    };
    let job = |label: String, x: usize, config: RunConfig| SweepJob {
        model: name.to_string(),
        model_fp,
        graph: Arc::clone(&g),
        label,
        x,
        pe_min,
        config,
    };

    let mut jobs = vec![
        job(BASELINE_LABEL.into(), 0, base_cfg(pe_min)?),
        job("xinf".into(), 0, base_cfg(pe_min)?.with_cross_layer()),
    ];
    for &x in xs {
        let wdup = base_cfg(pe_min + x)?.with_duplication(Solver::Greedy);
        jobs.push(job(format!("wdup+{x}"), x, wdup.clone()));
        jobs.push(job(format!("wdup+{x}+xinf"), x, wdup.with_cross_layer()));
    }
    Ok(jobs)
}

/// [`sweep_jobs`] over several models, concatenated into one flat list.
///
/// # Errors
///
/// Propagates the first per-model job-construction error.
pub fn sweep_jobs_for_models(
    models: &[(String, Graph)],
    xs: &[usize],
) -> Result<Vec<SweepJob>, CoreError> {
    let mut jobs = Vec::new();
    for (name, graph) in models {
        jobs.extend(sweep_jobs(name, graph, xs)?);
    }
    Ok(jobs)
}

/// Folds per-job summaries into the final row list — the single
/// aggregation path of every shard mode, so a merged sharded sweep is
/// byte-identical to an unsharded one by construction, not by parallel
/// maintenance of two folds.
fn aggregate(
    jobs: &[SweepJob],
    outcomes: Vec<JobOutcome>,
) -> Result<(Vec<ConfigResult>, Vec<JobFailure>), CoreError> {
    let complete = !outcomes.iter().any(|o| matches!(o, JobOutcome::NotOwned));
    // Baselines first: every other row of a model references its makespan,
    // utilization, and actual PE total (the Eq. 3 denominator). Also note
    // which models *have* a baseline job in the list at all — that
    // distinguishes "baseline quarantined" (a reported failure) from
    // "baseline never part of the sweep" (a caller error).
    let mut baselines: BTreeMap<&str, (u64, f64, usize)> = BTreeMap::new();
    let mut baseline_models: BTreeSet<&str> = BTreeSet::new();
    for (job, outcome) in jobs.iter().zip(&outcomes) {
        if job.label == BASELINE_LABEL {
            baseline_models.insert(&job.model);
            if let JobOutcome::Done(s) = outcome {
                baselines.insert(&job.model, (s.makespan_cycles, s.utilization, s.total_pes));
            }
        }
    }

    let mut results = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    for (index, (job, outcome)) in jobs.iter().zip(outcomes).enumerate() {
        let s = match outcome {
            JobOutcome::Done(s) => s,
            JobOutcome::NotOwned => continue,
            JobOutcome::Failed(e) => return Err(e),
            JobOutcome::Panicked { attempts, message } => {
                failures.push(JobFailure {
                    index,
                    model: job.model.clone(),
                    label: job.label.clone(),
                    kind: JobFailureKind::Quarantined { attempts, message },
                });
                continue;
            }
        };
        if !complete {
            // A partial slice: the model's baseline may be another
            // slice's job, so rows come from the merge.
            continue;
        }
        let Some(&(base_makespan, ut_lbl, base_pes)) = baselines.get(job.model.as_str()) else {
            if baseline_models.contains(job.model.as_str()) {
                failures.push(JobFailure {
                    index,
                    model: job.model.clone(),
                    label: job.label.clone(),
                    kind: JobFailureKind::BaselineUnavailable,
                });
                continue;
            }
            return Err(CoreError::StageMismatch {
                detail: format!("job list for model `{}` has no `{BASELINE_LABEL}` row", job.model),
            });
        };
        let t_mvm = job.config.arch.crossbar().t_mvm_ns;
        results.push(ConfigResult {
            model: job.model.clone(),
            label: job.label.clone(),
            x: job.x,
            pe_min: job.pe_min,
            total_pes: s.total_pes,
            makespan_cycles: s.makespan_cycles,
            makespan_ns: s.makespan_cycles * t_mvm,
            speedup: base_makespan as f64 / s.makespan_cycles as f64,
            utilization: s.utilization,
            // Eq. 3 from the architectures' *actual* PE totals — on the
            // paper family (total = pe_min + x, baseline = pe_min) this
            // is bit-identical to the historical closed form; on other
            // architecture families it is the correct generalization.
            eq3_predicted: eq3_predicted_from_utilization(
                s.utilization,
                ut_lbl,
                s.total_pes,
                base_pes,
            ),
            duplicated_layers: s.duplicated_layers,
        });
    }
    Ok((results, failures))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_list_covers_the_grid_in_order() {
        let g = cim_models::fig5_example();
        let jobs = sweep_jobs("fig5", &g, &[1, 2]).unwrap();
        let labels: Vec<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "layer-by-layer",
                "xinf",
                "wdup+1",
                "wdup+1+xinf",
                "wdup+2",
                "wdup+2+xinf"
            ]
        );
        assert!(jobs.iter().all(|j| j.pe_min == 2));
        // All jobs of one model share one canonicalized graph allocation.
        assert!(jobs[1..].iter().all(|j| Arc::ptr_eq(&j.graph, &jobs[0].graph)));
    }

    #[test]
    fn batch_reuses_stage_work_across_the_baseline_pair() {
        let g = cim_models::fig5_example();
        let jobs = sweep_jobs("fig5", &g, &[]).unwrap();
        let batch = Sweep::new(&jobs, RunnerOptions::sequential()).run().unwrap();
        assert_eq!(batch.results.len(), 2);
        // baseline + xinf share the (model, arch, mapping) stage prefix.
        assert_eq!(batch.stats.stage_computes, 1);
        assert!(batch.stats.stage_hits() >= 1);
        assert!((batch.results[0].speedup - 1.0).abs() < 1e-12);
        assert!(batch.results[1].speedup > 1.0);
    }

    #[test]
    fn missing_baseline_is_reported() {
        let g = cim_models::fig5_example();
        let mut jobs = sweep_jobs("fig5", &g, &crate::PAPER_XS).unwrap();
        jobs.remove(0);
        let err = Sweep::new(&jobs, RunnerOptions::sequential()).run().unwrap_err();
        assert!(matches!(err, CoreError::StageMismatch { .. }));
    }

    #[test]
    fn run_jobs_is_identical_at_every_worker_count() {
        let jobs = sweep_jobs("fig5", &cim_models::fig5_example(), &[1, 2]).unwrap();
        let (sequential, seq_stats) = run_jobs(&jobs, RunnerOptions::sequential()).unwrap();
        let (parallel, par_stats) = run_jobs(&jobs, RunnerOptions::with_jobs(4)).unwrap();
        assert_eq!(sequential.len(), jobs.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.layers, b.layers);
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.report, b.report);
            assert_eq!(a.plan, b.plan);
        }
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn run_jobs_prepares_a_shared_mapping_once() {
        let jobs = sweep_jobs("fig5", &cim_models::fig5_example(), &[]).unwrap();
        let labels: Vec<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels, [BASELINE_LABEL, "xinf"]);
        let (results, stats) = run_jobs(&jobs, RunnerOptions::with_jobs(2)).unwrap();
        assert_eq!(stats.stage_lookups, 2);
        assert_eq!(stats.stage_computes, 1);
        assert_eq!(stats.schedule_lookups, 0, "run_jobs keeps no summaries");
        assert!(Arc::ptr_eq(&results[0].layers, &results[1].layers));
        assert!(results[1].makespan() < results[0].makespan());
    }

    #[test]
    fn run_jobs_returns_the_earliest_failure_in_job_order() {
        let mut jobs = sweep_jobs("fig5", &cim_models::fig5_example(), &[1]).unwrap();
        // fig5's PE_min is 2: one PE cannot hold its weights.
        jobs[1].config.arch = Architecture::paper_case_study(1).unwrap();
        jobs[3].config.set_policy = clsa_core::SetPolicy::coarse(0);
        let alone = |i: usize| run_jobs(&jobs[i..=i], RunnerOptions::sequential()).unwrap_err();
        let (first, second) = (alone(1), alone(3));
        assert_ne!(first, second);
        for workers in [1, 4] {
            let err = run_jobs(&jobs, RunnerOptions::with_jobs(workers)).unwrap_err();
            assert_eq!(err, first, "{workers} workers");
        }
    }

    fn shard_tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cim_shard_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn slices_plus_merge_reproduce_the_unsharded_batch() {
        use crate::runner::ShardSpec;
        let g = cim_models::fig5_example();
        let jobs = sweep_jobs("fig5", &g, &[1]).unwrap();
        let reference = Sweep::new(&jobs, RunnerOptions::sequential()).run().unwrap();

        let dir = shard_tmp_dir("merge");
        let store = ResultStore::open(&dir).unwrap();
        let mut owned_total = 0;
        for i in 0..2 {
            let slice = Sweep {
                store: Some(&store),
                shard: ShardMode::Slice(ShardSpec::new(i, 2).unwrap()),
                ..Sweep::new(&jobs, RunnerOptions::sequential())
            }
            .run()
            .unwrap();
            assert!(slice.results.is_empty(), "a partial slice aggregates nothing");
            owned_total += slice.owned;
        }
        assert_eq!(owned_total, jobs.len(), "slices partition the job list exactly");

        let merged = Sweep {
            store: Some(&store),
            shard: ShardMode::Merge,
            ..Sweep::new(&jobs, RunnerOptions::sequential())
        }
        .run()
        .unwrap();
        assert_eq!(merged.results, reference.results);
        // Byte-identical through serialization — the artifact contract.
        assert_eq!(
            serde_json::to_string(&merged.results).unwrap(),
            serde_json::to_string(&reference.results).unwrap()
        );
        assert_eq!(merged.stats.schedule_lookups, 0, "merge computes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_on_a_cold_store_names_the_missing_job() {
        let g = cim_models::fig5_example();
        let jobs = sweep_jobs("fig5", &g, &[]).unwrap();
        let dir = shard_tmp_dir("cold");
        let store = ResultStore::open(&dir).unwrap();
        let err = Sweep {
            store: Some(&store),
            shard: ShardMode::Merge,
            ..Sweep::new(&jobs, RunnerOptions::sequential())
        }
        .run()
        .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("fig5 layer-by-layer"), "{text}");
        assert!(text.contains("--shard"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_and_merge_modes_require_a_store() {
        use crate::runner::ShardSpec;
        let g = cim_models::fig5_example();
        let jobs = sweep_jobs("fig5", &g, &[]).unwrap();
        for shard in [ShardMode::Slice(ShardSpec::new(0, 2).unwrap()), ShardMode::Merge] {
            let err = Sweep { shard, ..Sweep::new(&jobs, RunnerOptions::sequential()) }
                .run()
                .unwrap_err();
            assert!(err.to_string().contains("--cache-dir"), "{err}");
        }
    }

    #[test]
    fn zero_fault_plan_is_byte_identical_to_a_plain_sweep() {
        use crate::runner::fault::FaultPlan;
        let g = cim_models::fig5_example();
        let jobs = sweep_jobs("fig5", &g, &[1]).unwrap();
        let reference = Sweep::new(&jobs, RunnerOptions::sequential()).run().unwrap();

        let dir = shard_tmp_dir("zerofault");
        let store = ResultStore::open(&dir).unwrap();
        let inert = FaultPlan::new(7);
        let batch = Sweep {
            store: Some(&store),
            faults: Some(&inert),
            ..Sweep::new(&jobs, RunnerOptions::sequential())
        }
        .run()
        .unwrap();
        assert!(batch.failures.is_empty());
        assert_eq!(batch.results, reference.results);
        assert_eq!(
            serde_json::to_string(&batch.results).unwrap(),
            serde_json::to_string(&reference.results).unwrap()
        );
        assert_eq!(store.stats().writes, jobs.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_panics_are_quarantined_not_propagated() {
        use crate::runner::fault::FaultPlan;
        let g = cim_models::fig5_example();
        let jobs = sweep_jobs("fig5", &g, &[]).unwrap();
        let plan = FaultPlan::new(1).with_rate(FaultSite::JobPanic, 1000);
        let batch = Sweep { faults: Some(&plan), ..Sweep::new(&jobs, RunnerOptions::sequential()) }
            .run()
            .unwrap();
        assert!(batch.results.is_empty());
        assert_eq!(batch.failures.len(), jobs.len());
        for failure in &batch.failures {
            assert!(matches!(
                failure.kind,
                JobFailureKind::Quarantined { attempts: MAX_JOB_ATTEMPTS, .. }
            ));
            assert!(failure.to_string().contains("quarantined"), "{failure}");
        }
        // Every job burned all its attempts; the count is deterministic.
        assert_eq!(plan.fired(FaultSite::JobPanic), (jobs.len() as u64) * u64::from(MAX_JOB_ATTEMPTS));
    }

    #[test]
    fn transient_panics_retry_to_success() {
        use crate::runner::fault::FaultPlan;
        let g = cim_models::fig5_example();
        let jobs = sweep_jobs("fig5", &g, &[]).unwrap();
        let keys: Vec<u64> = jobs
            .iter()
            .map(|j| job_fault_key(&CacheKey::schedule(j.model_fp, &j.config)))
            .collect();
        // Search for a seed where at least one job panics on its first
        // attempt but every job recovers within its retry budget — the
        // decision function is pure, so the search is cheap and the
        // found seed reproduces forever.
        let seed = (0..10_000u64)
            .find(|&s| {
                let p = FaultPlan::new(s).with_rate(FaultSite::JobPanic, 500);
                let fires = |k: u64, a: u32| p.would_fire(FaultSite::JobPanic, k, a);
                keys.iter().any(|&k| fires(k, 0))
                    && keys.iter().all(|&k| !(0..MAX_JOB_ATTEMPTS).all(|a| fires(k, a)))
            })
            .expect("some seed yields transient-only panics");
        let plan = FaultPlan::new(seed).with_rate(FaultSite::JobPanic, 500);
        let batch = Sweep { faults: Some(&plan), ..Sweep::new(&jobs, RunnerOptions::sequential()) }
            .run()
            .unwrap();
        assert!(batch.failures.is_empty(), "transient panics must retry to success");
        assert_eq!(batch.results.len(), jobs.len());
        assert!(plan.fired(FaultSite::JobPanic) >= 1);
        // Same seed, fresh run ⇒ identical rows and identical fault count.
        let plan2 = FaultPlan::new(seed).with_rate(FaultSite::JobPanic, 500);
        let batch2 = Sweep { faults: Some(&plan2), ..Sweep::new(&jobs, RunnerOptions::sequential()) }
            .run()
            .unwrap();
        assert_eq!(batch.results, batch2.results);
        assert_eq!(plan.fired(FaultSite::JobPanic), plan2.fired(FaultSite::JobPanic));
    }

    #[test]
    fn quarantined_baseline_reports_dependents_instead_of_erroring() {
        use crate::runner::fault::FaultPlan;
        let g = cim_models::fig5_example();
        let jobs = sweep_jobs("fig5", &g, &[]).unwrap();
        assert_eq!(jobs[0].label, BASELINE_LABEL);
        let keys: Vec<u64> = jobs
            .iter()
            .map(|j| job_fault_key(&CacheKey::schedule(j.model_fp, &j.config)))
            .collect();
        // Seed where the baseline burns all attempts and every other job
        // never panics at all.
        let seed = (0..100_000u64)
            .find(|&s| {
                let p = FaultPlan::new(s).with_rate(FaultSite::JobPanic, 500);
                let fires = |k: u64, a: u32| p.would_fire(FaultSite::JobPanic, k, a);
                (0..MAX_JOB_ATTEMPTS).all(|a| fires(keys[0], a))
                    && keys[1..]
                        .iter()
                        .all(|&k| (0..MAX_JOB_ATTEMPTS).all(|a| !fires(k, a)))
            })
            .expect("some seed quarantines exactly the baseline");
        let plan = FaultPlan::new(seed).with_rate(FaultSite::JobPanic, 500);
        let batch = Sweep { faults: Some(&plan), ..Sweep::new(&jobs, RunnerOptions::sequential()) }
            .run()
            .unwrap();
        assert!(batch.results.is_empty());
        assert_eq!(batch.failures.len(), jobs.len());
        assert!(matches!(batch.failures[0].kind, JobFailureKind::Quarantined { .. }));
        assert!(batch.failures[1..]
            .iter()
            .all(|f| f.kind == JobFailureKind::BaselineUnavailable));
    }

    #[test]
    fn resumed_batch_replays_warm_and_stays_byte_identical() {
        let g = cim_models::fig5_example();
        let jobs = sweep_jobs("fig5", &g, &[1]).unwrap();
        let dir = shard_tmp_dir("resume");
        let store = ResultStore::open(&dir).unwrap();
        let first = Sweep { store: Some(&store), ..Sweep::new(&jobs, RunnerOptions::sequential()) }
            .run()
            .unwrap();

        // A second process rerunning the same sweep against the same
        // store: every summary replays from disk, nothing is recomputed,
        // and the rows serialize byte-identically.
        let store2 = ResultStore::open(&dir).unwrap();
        let second = Sweep { store: Some(&store2), ..Sweep::new(&jobs, RunnerOptions::sequential()) }
            .run()
            .unwrap();
        assert_eq!(second.stats.schedule_computes, 0, "fully warm rerun computes nothing");
        assert_eq!(store2.stats().hits, jobs.len() as u64);
        assert_eq!(
            serde_json::to_string(&first.results).unwrap(),
            serde_json::to_string(&second.results).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
