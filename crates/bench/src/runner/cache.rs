//! The concurrent schedule cache.
//!
//! Two memoization levels, both keyed by [`CacheKey`] fingerprints:
//!
//! 1. **Stage level** — `clsa_core::prepare` outputs (mapping + Stage I
//!    sets + Stage II dependencies), keyed by `(model, arch, mapping
//!    prefix)`. A layer-by-layer baseline and a CLSA cross-layer run over
//!    the same model and mapping share this entry, so `determine_sets` /
//!    `determine_dependencies` run once per mapping, not once per
//!    configuration.
//! 2. **Schedule level** — [`RunSummary`]s keyed by `(model, arch, full
//!    strategy)`, so byte-identical configurations (retries, overlapping
//!    sweeps, a tuner revisiting a candidate) are never rescheduled. A
//!    run is reduced to its summary the moment it completes; nothing
//!    here keeps a schedule or a cost table alive. Callers that read a
//!    full `RunResult` (the Gantt chart, the ablations) rebuild it with
//!    `run_prepared` over [`prepared`](ScheduleCache::prepared).
//!
//! [`summary`](ScheduleCache::summary) is the one lookup in front of the
//! persistent [`ResultStore`]: store row → memo → compute → `put`, so the
//! decision to reduce a run and persist the summary lives here only.
//!
//! Each level stores `Arc<OnceLock<…>>` slots inside a mutex-guarded map:
//! the map lock is held only to fetch-or-insert the slot, never during
//! computation, and `OnceLock::get_or_init` guarantees that concurrent
//! workers racing on the same key block on one computation instead of
//! duplicating it — the property checked by this module's tests.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cim_ir::Graph;
use clsa_core::{prepare, run_prepared, CoreError, Prepared, RunConfig};
use parking_lot::Mutex;

use super::fingerprint::CacheKey;
use super::store::{ResultStore, RunSummary};

type Slot<T> = Arc<OnceLock<Result<T, CoreError>>>;

/// Cumulative counters of one cache (or one cache level).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Stage-level lookups.
    pub stage_lookups: u64,
    /// Stage-level computations actually run (`lookups - computes` hit).
    pub stage_computes: u64,
    /// Schedule-level lookups.
    pub schedule_lookups: u64,
    /// Schedule-level computations actually run.
    pub schedule_computes: u64,
}

impl CacheStats {
    /// Stage-level hits: lookups served without running `prepare`.
    pub fn stage_hits(&self) -> u64 {
        self.stage_lookups - self.stage_computes
    }

    /// Schedule-level hits: lookups served without running the scheduler.
    pub fn schedule_hits(&self) -> u64 {
        self.schedule_lookups - self.schedule_computes
    }

    /// Total hits across both levels.
    pub fn hits(&self) -> u64 {
        self.stage_hits() + self.schedule_hits()
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stages {}/{} hit, schedules {}/{} hit",
            self.stage_hits(),
            self.stage_lookups,
            self.schedule_hits(),
            self.schedule_lookups
        )
    }
}

/// Concurrent two-level memo for pipeline runs. See the module docs.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    stages: Mutex<BTreeMap<CacheKey, Slot<Arc<Prepared>>>>,
    schedules: Mutex<BTreeMap<CacheKey, Slot<RunSummary>>>,
    stage_lookups: AtomicU64,
    stage_computes: AtomicU64,
    schedule_lookups: AtomicU64,
    schedule_computes: AtomicU64,
}

/// Fetches (or inserts) the key's slot, then resolves it at most once
/// across all racing threads.
fn get_or_compute<T: Clone>(
    map: &Mutex<BTreeMap<CacheKey, Slot<T>>>,
    key: CacheKey,
    computes: &AtomicU64,
    compute: impl FnOnce() -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    let slot = Arc::clone(map.lock().entry(key).or_default());
    slot.get_or_init(|| {
        computes.fetch_add(1, Ordering::Relaxed);
        compute()
    })
    .clone()
}

impl ScheduleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized `clsa_core::prepare`: mapping plus Stages I & II.
    ///
    /// # Errors
    ///
    /// Propagates (and caches) pipeline errors for the key.
    pub fn prepared(
        &self,
        model_fp: u64,
        graph: &Graph,
        config: &RunConfig,
    ) -> Result<Arc<Prepared>, CoreError> {
        self.stage_lookups.fetch_add(1, Ordering::Relaxed);
        get_or_compute(
            &self.stages,
            CacheKey::stages(model_fp, config),
            &self.stage_computes,
            || prepare(graph, config).map(Arc::new),
        )
    }

    /// The [`RunSummary`] of `config` on `graph`: a trustworthy `store`
    /// row when there is one, else the memoized summary — computed on
    /// first use through the stage level — which is then `put` into
    /// `store`.
    ///
    /// `model_fp` must identify `graph` (use
    /// [`fingerprint`](super::fingerprint::fingerprint) on the
    /// canonicalized graph); keying on the precomputed fingerprint keeps
    /// repeated lookups from re-hashing multi-hundred-layer graphs.
    ///
    /// # Errors
    ///
    /// Propagates (and caches) pipeline errors for the key; store I/O
    /// problems are never errors (see [`ResultStore`]).
    pub fn summary(
        &self,
        model_fp: u64,
        graph: &Graph,
        config: &RunConfig,
        store: Option<&ResultStore>,
    ) -> Result<RunSummary, CoreError> {
        let key = CacheKey::schedule(model_fp, config);
        match store.and_then(|store| store.get(&key)) {
            Some(summary) => Ok(summary),
            None => self.summary_on_store_miss(key, model_fp, graph, config, store),
        }
    }

    /// [`summary`](Self::summary) past its store probe, for a caller that
    /// probed `store` itself: memo → compute → `put`. `key` must be
    /// `CacheKey::schedule(model_fp, config)`.
    pub(crate) fn summary_on_store_miss(
        &self,
        key: CacheKey,
        model_fp: u64,
        graph: &Graph,
        config: &RunConfig,
        store: Option<&ResultStore>,
    ) -> Result<RunSummary, CoreError> {
        self.schedule_lookups.fetch_add(1, Ordering::Relaxed);
        let summary = get_or_compute(&self.schedules, key, &self.schedule_computes, || {
            let prepared = self.prepared(model_fp, graph, config)?;
            run_prepared(&prepared, config).map(|result| RunSummary::of(&result))
        })?;
        if let Some(store) = store {
            store.put(&key, &summary);
        }
        Ok(summary)
    }

    /// Non-blocking probe of the schedule level: returns the memoized
    /// summary for `key` if — and only if — a computation for it already
    /// completed successfully. Never computes, never waits on an
    /// in-flight computation, and is counter-neutral (a probe is not a
    /// lookup the hit-rate accounting should see — callers like the
    /// serve daemon's warm path keep their own counters).
    pub fn peek(&self, key: &CacheKey) -> Option<RunSummary> {
        let slot = Arc::clone(self.schedules.lock().get(key)?);
        slot.get()?.as_ref().ok().cloned()
    }

    /// Snapshot of the lookup/compute counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            stage_lookups: self.stage_lookups.load(Ordering::Relaxed),
            stage_computes: self.stage_computes.load(Ordering::Relaxed),
            schedule_lookups: self.schedule_lookups.load(Ordering::Relaxed),
            schedule_computes: self.schedule_computes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::fingerprint::fingerprint;
    use cim_arch::{Architecture, TileSpec};
    use clsa_core::{Invalidation, PipelineStage};

    fn cfg(pes: usize) -> RunConfig {
        RunConfig::baseline(Architecture::paper_case_study(pes).unwrap())
    }

    #[test]
    fn incremental_single_axis_mutation_reuses_stage_artifacts() {
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();
        let arch_with_hop = |hop: u64| {
            Architecture::builder()
                .tile(TileSpec::isaac_like())
                .noc_hop_latency(hop)
                .pes(2)
                .build()
                .unwrap()
        };
        let mut old = RunConfig::baseline(arch_with_hop(0)).with_cross_layer();
        old.noc_cost = true;
        cache.summary(fp, &g, &old, None).unwrap();

        // Scheduling-side axis mutation (NoC hop latency): Prepare clean.
        let mut new = old.clone();
        new.arch = arch_with_hop(4);
        let inv = Invalidation::between(&old, &new);
        assert!(!inv.is_dirty(PipelineStage::Prepare), "{inv}");
        assert!(inv.is_dirty(PipelineStage::Schedule));
        cache.summary(fp, &g, &new, None).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.stage_computes, 1, "prepare ran once");
        assert_eq!(stats.stage_hits(), 1, "the mutated config hit the stage");
        assert_eq!(stats.schedule_computes, 2, "the schedule itself was dirty");
        let shared = cache.prepared(fp, &g, &new).unwrap();
        assert!(
            Arc::ptr_eq(&cache.prepared(fp, &g, &old).unwrap(), &shared),
            "undirtied stage artifacts must be shared, not recomputed"
        );

        // Mapping-side axis mutation (set policy): Prepare dirty.
        let mut coarse = new.clone();
        coarse.set_policy = clsa_core::SetPolicy::coarse(1);
        let inv = Invalidation::between(&new, &coarse);
        assert!(inv.is_dirty(PipelineStage::Prepare), "{inv}");
        cache.summary(fp, &g, &coarse, None).unwrap();
        let remapped = cache.prepared(fp, &g, &coarse).unwrap();
        assert!(!Arc::ptr_eq(&shared, &remapped));
        assert_eq!(cache.stats().stage_computes, 2, "dirty prepare recomputed");
    }

    #[test]
    fn baseline_and_cross_layer_share_one_stage_computation() {
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();

        let baseline = cache.summary(fp, &g, &cfg(2), None).unwrap();
        let xinf = cfg(2).with_cross_layer();
        let clsa = cache.summary(fp, &g, &xinf, None).unwrap();
        assert!(clsa.makespan_cycles < baseline.makespan_cycles);

        let stats = cache.stats();
        // Two distinct schedules, but the stage prefix ran exactly once.
        assert_eq!(stats.schedule_lookups, 2);
        assert_eq!(stats.schedule_computes, 2);
        assert_eq!(stats.stage_lookups, 2);
        assert_eq!(stats.stage_computes, 1);
        assert_eq!(stats.stage_hits(), 1);
        assert!(stats.hits() >= 1);
    }

    #[test]
    fn identical_configs_hit_the_schedule_level() {
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();
        let a = cache.summary(fp, &g, &cfg(2), None).unwrap();
        let b = cache.summary(fp, &g, &cfg(2), None).unwrap();
        assert_eq!(a, b, "second lookup must reuse the summary");
        let stats = cache.stats();
        assert_eq!(stats.schedule_computes, 1);
        assert_eq!(stats.schedule_hits(), 1);
        // The stage cache is only consulted on the schedule-level miss.
        assert_eq!(stats.stage_lookups, 1);
    }

    #[test]
    fn summary_reads_the_store_first_and_puts_what_it_computes() {
        let dir = std::env::temp_dir().join(format!("cim_cache_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);

        // Cold: the store misses, the memo computes, the summary lands.
        let cache = ScheduleCache::new();
        let cold = cache.summary(fp, &g, &cfg(2), Some(&store)).unwrap();
        assert_eq!((store.stats().lookups, store.stats().writes), (1, 1));
        assert_eq!(cache.stats().schedule_computes, 1);

        // Warm: a fresh cache is never consulted once the row is on disk.
        let fresh = ScheduleCache::new();
        assert_eq!(fresh.summary(fp, &g, &cfg(2), Some(&store)).unwrap(), cold);
        assert_eq!(store.stats().hits, 1);
        assert_eq!(fresh.stats(), CacheStats::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peek_observes_completed_runs_without_computing() {
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();
        let key = CacheKey::schedule(fp, &cfg(2));

        assert!(cache.peek(&key).is_none(), "cold cache has nothing to peek");
        let computed = cache.summary(fp, &g, &cfg(2), None).unwrap();
        let peeked = cache.peek(&key).expect("warm cache serves the summary");
        assert_eq!(computed, peeked);

        // peek is counter-neutral and never computes.
        let stats = cache.stats();
        assert_eq!(stats.schedule_lookups, 1);
        assert_eq!(stats.schedule_computes, 1);

        // A cached *error* is not served as a warm result.
        let bad = CacheKey::schedule(fp, &cfg(1));
        assert!(cache.summary(fp, &g, &cfg(1), None).is_err());
        assert!(cache.peek(&bad).is_none(), "failed runs are not peekable");
    }

    #[test]
    fn errors_are_cached_too() {
        // fig5 needs 2 PEs; a 1-PE budget fails in prepare.
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();
        assert!(cache.summary(fp, &g, &cfg(1), None).is_err());
        assert!(cache.summary(fp, &g, &cfg(1), None).is_err());
        let stats = cache.stats();
        assert_eq!(stats.schedule_computes, 1, "failed run memoized");
    }

    #[test]
    fn racing_workers_never_duplicate_a_computation() {
        let g = cim_models::fig5_example();
        let fp = fingerprint(&g);
        let cache = ScheduleCache::new();
        let configs = [cfg(2), cfg(2).with_cross_layer()];
        std::thread::scope(|scope| {
            for _ in 0..8 {
                for config in &configs {
                    let cache = &cache;
                    let g = &g;
                    scope.spawn(move || cache.summary(fp, g, config, None).unwrap());
                }
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.schedule_lookups, 16);
        assert_eq!(stats.schedule_computes, 2, "one compute per distinct config");
        assert_eq!(stats.stage_computes, 1, "one stage compute for both configs");
        assert_eq!(stats.hits(), 14 + 1);
    }
}
