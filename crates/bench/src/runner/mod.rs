//! # The parallel batched evaluation engine
//!
//! The paper's evaluation is a *design-space sweep* — many `(model,
//! architecture, strategy)` configurations, each an independent pipeline
//! run. This module turns such a sweep into a flat job list and executes
//! it on a pool of scoped worker threads with three guarantees:
//!
//! 1. **Determinism** — [`SweepOutcome`] rows are bit-for-bit identical
//!    to a sequential run, for any worker count. Jobs land in indexed
//!    slots; aggregation happens in job order after the pool drains.
//! 2. **No recomputation** — a shared [`ScheduleCache`] memoizes both the
//!    stage prefix (mapping + `determine_sets` + `determine_dependencies`,
//!    keyed by `(model, arch, mapping strategy)` fingerprints) and each
//!    configuration's [`RunSummary`], so e.g. a layer-by-layer baseline
//!    and a CLSA run over the same model perform the stage analyses
//!    exactly once. The cache keeps no full `RunResult`: callers that
//!    need one run their jobs through [`run_jobs`], which shares the
//!    stage level the same way.
//! 3. **Full occupancy** — jobs are dealt round-robin onto per-worker
//!    *lanes*; a worker that drains its lane steals from the others
//!    ([`parallel_map`]), so one slow model (ResNet152) cannot idle the
//!    rest of the pool.
//!
//! 4. **Durability (opt-in)** — an on-disk [`ResultStore`] (`--cache-dir
//!    <path>`) persists per-job [`RunSummary`] rows across processes, so
//!    a warm re-run of a sweep replays from disk (byte-identical output)
//!    instead of re-scheduling. The store is also the resume state: a
//!    SIGKILL'd sweep rerun against the same store replays its finished
//!    jobs and computes the rest. See [`store`] for the row format and
//!    the corruption policy.
//!
//! 5. **Survivability (opt-in)** — a panic in one job is caught, retried,
//!    and quarantined into [`SweepOutcome::failures`] instead of tearing
//!    down the sweep, and a seeded [`fault::FaultPlan`] injects
//!    deterministic store/job faults for reproducible chaos tests.
//!
//! Layering: [`parallel_map`] (lane pool) → [`ScheduleCache`] (memo, and
//! the one lookup in front of the [`ResultStore`]) → [`Sweep::run`]
//! (sweep jobs → [`SweepOutcome`]) or [`run_jobs`] (sweep jobs → one full
//! `RunResult` each, in job order). [`Sweep`] holds the
//! job list, the worker count, the optional store, the [`ShardMode`], and
//! the optional fault hook. A job's model is a shared [`Model`] handle
//! (from [`Model::canonical`]), and the paper's four configurations come
//! only from [`PaperStrategy`]. The binaries sit on top: the sweep binaries'
//! `--jobs N`, `--cache-dir <dir>`, `--shard i/n|merge` and chaos flags
//! build the [`Sweep`] through [`cli::Args::sweep`](crate::cli::Args::sweep);
//! `fig6`'s Gantt parts and the ablations build [`SweepJob`] lists and hand
//! them, with `--jobs N`, to [`run_jobs`].
//!
//! # Examples
//!
//! ```
//! use cim_bench::runner::{sweep_jobs, Model, RunnerOptions, Sweep};
//!
//! # fn main() -> Result<(), clsa_core::CoreError> {
//! let fig5 = Model::canonical("fig5", &cim_models::fig5_example())?;
//! let jobs = sweep_jobs(&fig5, &[1])?;
//! let parallel = Sweep::new(&jobs, RunnerOptions::with_jobs(4)).run()?;
//! let sequential = Sweep::new(&jobs, RunnerOptions::sequential()).run()?;
//! assert_eq!(parallel.results, sequential.results); // bit-for-bit
//! assert!(parallel.stats.stage_hits() >= 1); // baseline/xinf shared stages
//! # Ok(())
//! # }
//! ```

mod cache;
pub mod fault;
mod fingerprint;
mod lane;
mod shard;
pub mod store;
mod sweep;

pub use cache::{CacheStats, ScheduleCache};
pub use fault::{mix64, panic_message, parse_rate_spec, FaultHook, FaultPlan, FaultSite, FAULT_SITES};
pub use fingerprint::{fingerprint, mapping_fingerprint, strategy_fingerprint, CacheKey, FnvWriter};
pub use lane::parallel_map;
pub use shard::{shard_of, ShardMode, ShardSpec};
pub use store::{ResultStore, RunSummary, StoreStats, STORE_FORMAT_VERSION};
pub use sweep::{
    run_jobs, sweep_jobs, JobFailure, JobFailureKind, Model, PaperStrategy, Sweep, SweepJob,
    SweepOutcome, BASELINE_LABEL, MAX_JOB_ATTEMPTS,
};

/// Worker-pool options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerOptions {
    /// Number of worker threads (1 = sequential on the calling thread).
    pub jobs: usize,
}

impl RunnerOptions {
    /// Runs everything on the calling thread — the reference behaviour
    /// the parallel pool must reproduce exactly.
    pub fn sequential() -> Self {
        Self { jobs: 1 }
    }

    /// Uses `jobs` worker threads (clamped to ≥ 1).
    pub fn with_jobs(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }
}

impl Default for RunnerOptions {
    /// One worker per available hardware thread.
    fn default() -> Self {
        Self {
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}
