//! The service engine: admission control, EDF dispatch, warm paths.
//!
//! [`ServeEngine`] is the daemon with the sockets removed — every policy
//! decision of the service lives here, behind a synchronous API, so the
//! SLO and happens-after test suites can drive it deterministically with
//! a [`ManualClock`](cim_tune::ManualClock) and zero I/O. A request moves
//! through four gates:
//!
//! 1. **Validate** — unknown models/strategies/dependencies, duplicate
//!    or missing ids, and an `x` whose `PE_min + x` overflows are
//!    rejected with typed errors before they cost anything.
//! 2. **Warm path** — a request without happens-after tags whose
//!    `(model, arch, strategy)` fingerprint key already has a persisted
//!    [`RunSummary`] (or a completed in-memory cache slot) is answered
//!    immediately, bypassing the queue. Replies are built exclusively
//!    from summary fields, so a warm reply is byte-identical to the cold
//!    reply that seeded it.
//! 3. **Admit** — past the configured queue depth the engine load-sheds
//!    with a typed `overloaded` error; an identical already-queued
//!    computation instead *coalesces* the new request onto the existing
//!    entry (one compute, N replies) without consuming capacity.
//! 4. **Dispatch** — admitted entries run on the PR-2 lane pool in
//!    earliest-deadline-first order (ties broken by arrival sequence);
//!    entries whose every deadline lapsed while queued are rejected
//!    without computing. Requests with unmet `after` tags park until
//!    their dependencies finish, then join the queue.
//!
//! Dispatch drains to quiescence in rounds; because each round finishes
//! in EDF order and the lane pool reassembles results in item order, the
//! full response stream is bit-for-bit independent of the worker count.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cim_bench::runner::{
    panic_message, parallel_map, CacheKey, ResultStore, RunSummary, ScheduleCache,
};
use cim_ir::Graph;
use cim_tune::Clock;
use clsa_core::RunConfig;
use parking_lot::Mutex;

use crate::protocol::{ErrorCode, HealthReport, Op, Request, Response, ScheduleReply, ServeError};
use crate::registry::{build_config, ModelRegistry};
use crate::stats::{percentile, StatsSnapshot, TenantStat};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Lane-pool worker threads for cold dispatch.
    pub jobs: usize,
    /// Admission limit: queued + parked entries beyond this are shed.
    pub max_queue: usize,
    /// Per-tenant admission limit: with `Some(n)`, one tenant (a
    /// request's resolved model) may hold at most `n` pending
    /// computations across the queue and the parked set; excess requests
    /// are shed with a retryable `quota_exceeded` error. `None` disables
    /// the gate. Coalescing onto an existing computation never counts —
    /// it consumes no new slot.
    pub tenant_quota: Option<usize>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            jobs: 1,
            max_queue: 256,
            tenant_quota: None,
        }
    }
}

/// Ticket for a queued request; [`ServeEngine::dispatch`] pairs each
/// ticket with its eventual [`Response`].
pub type Ticket = u64;

/// Outcome of [`ServeEngine::submit`].
#[derive(Debug)]
pub enum Submission {
    /// Answered on the spot (warm hit, typed rejection, stats, ping).
    Immediate(Response),
    /// Admitted; the response arrives from a later
    /// [`dispatch`](ServeEngine::dispatch) under this ticket.
    Enqueued(Ticket),
}

/// One answered party of a pending entry: the original request plus any
/// coalesced duplicates, each with its own id, ticket, and deadline.
#[derive(Debug, Clone)]
struct Subscriber {
    ticket: Ticket,
    id: String,
    after: Vec<String>,
    arrival: Duration,
    /// Absolute deadline (arrival + `deadline_ms`).
    deadline: Option<Duration>,
}

/// What a schedule reply echoes of its request besides the summary.
#[derive(Debug, Clone)]
struct ReplyHead {
    model: String,
    label: String,
    x: usize,
    pe_min: usize,
    t_mvm_ns: u64,
}

impl ReplyHead {
    /// The reply for `summary`. Warm and cold replies are both built
    /// here, so a warm reply is byte-identical to the cold one.
    fn reply(self, summary: &RunSummary, observed: Vec<String>) -> ScheduleReply {
        ScheduleReply {
            model: self.model,
            label: self.label,
            x: self.x,
            pe_min: self.pe_min,
            total_pes: summary.total_pes,
            makespan_cycles: summary.makespan_cycles,
            makespan_ns: summary.makespan_cycles * self.t_mvm_ns,
            utilization: summary.utilization,
            noc_bytes: summary.noc_bytes,
            duplicated_layers: summary.duplicated_layers,
            observed,
        }
    }
}

/// One admitted computation: a `(model, arch, strategy)` key plus the
/// subscribers awaiting its result.
#[derive(Debug, Clone)]
struct PendingEntry {
    /// Admission sequence number — the EDF tie-breaker.
    seq: u64,
    key: CacheKey,
    head: ReplyHead,
    model_fp: u64,
    graph: Arc<Graph>,
    config: RunConfig,
    /// Earliest subscriber deadline — the EDF sort key.
    deadline: Option<Duration>,
    /// Happens-after ids not yet completed (parked while non-empty).
    waiting_on: BTreeSet<String>,
    subscribers: Vec<Subscriber>,
}

impl PendingEntry {
    fn edf_key(&self) -> (Duration, u64) {
        (self.deadline.unwrap_or(Duration::MAX), self.seq)
    }
}

/// Lifetime counters for one tenant (queued depth is derived from the
/// queue/parked sets at snapshot time instead).
#[derive(Debug, Clone, Copy, Default)]
struct TenantCounters {
    submitted: u64,
    ok: u64,
    errors: u64,
    quota_shed: u64,
}

/// Mutable engine state, guarded by one mutex.
#[derive(Debug, Default)]
struct EngineState {
    /// Runnable entries (dependencies satisfied).
    queue: Vec<PendingEntry>,
    /// Entries waiting on happens-after ids.
    parked: Vec<PendingEntry>,
    /// Every id ever admitted (warm-answered, queued, or coalesced) —
    /// the namespace `after` tags may reference.
    registered: BTreeSet<String>,
    /// Ids whose requests finished (ok or error).
    completed: BTreeSet<String>,
    next_seq: u64,
    next_ticket: Ticket,
    /// Per-tenant lifetime counters, keyed by resolved model name.
    tenants: BTreeMap<String, TenantCounters>,
}

/// The scheduling service with the sockets removed. See the module docs.
pub struct ServeEngine {
    registry: ModelRegistry,
    cache: ScheduleCache,
    store: Option<ResultStore>,
    clock: Arc<dyn Clock + Send + Sync>,
    /// Clock reading at construction — throughput measures the engine's
    /// *own* service interval, not the age of the clock it was handed.
    started_at: Duration,
    opts: EngineOptions,
    state: Mutex<EngineState>,
    latencies: Mutex<Vec<u64>>,
    submitted: AtomicU64,
    completed: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    warm_store: AtomicU64,
    warm_cache: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("opts", &self.opts)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl ServeEngine {
    /// Builds an engine over an optional persistent store and a clock
    /// (the daemon passes [`SystemClock`](cim_tune::SystemClock); tests
    /// pass [`ManualClock`](cim_tune::ManualClock)).
    pub fn new(
        opts: EngineOptions,
        store: Option<ResultStore>,
        clock: Arc<dyn Clock + Send + Sync>,
    ) -> Self {
        let started_at = clock.now();
        ServeEngine {
            registry: ModelRegistry::new(),
            cache: ScheduleCache::new(),
            store,
            clock,
            started_at,
            opts,
            state: Mutex::new(EngineState::default()),
            latencies: Mutex::new(Vec::new()),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            warm_store: AtomicU64::new(0),
            warm_cache: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    /// The engine's persistent store handle, if one was configured.
    pub fn store(&self) -> Option<&ResultStore> {
        self.store.as_ref()
    }

    /// Submits one request. `schedule` requests either answer
    /// immediately (warm hit / typed rejection) or enqueue; `stats` and
    /// `ping` always answer immediately; `shutdown` is acknowledged here
    /// but acted on by the caller (the daemon owns process lifetime).
    pub fn submit(&self, req: &Request) -> Submission {
        match req.op {
            Op::Schedule => self.submit_schedule(req),
            Op::Stats => Submission::Immediate(Response {
                id: req.id.clone(),
                body: crate::protocol::ResponseBody::Stats(self.stats()),
            }),
            Op::Health => Submission::Immediate(Response {
                id: req.id.clone(),
                body: crate::protocol::ResponseBody::Health(self.health()),
            }),
            Op::Ping => Submission::Immediate(Response {
                id: req.id.clone(),
                body: crate::protocol::ResponseBody::Pong,
            }),
            Op::Shutdown => Submission::Immediate(Response {
                id: req.id.clone(),
                body: crate::protocol::ResponseBody::Shutdown,
            }),
        }
    }

    fn reject(&self, id: &str, err: ServeError) -> Submission {
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        Submission::Immediate(Response::error(id, err))
    }

    fn submit_schedule(&self, req: &Request) -> Submission {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let arrival = self.clock.now();

        if req.id.is_empty() {
            return self.reject(
                "",
                ServeError::new(ErrorCode::BadRequest, "schedule requests need an `id`"),
            );
        }

        // Resolve the model and configuration before taking the state
        // lock — canonicalization is slow and must not serialize the
        // engine (the registry memoizes, so this is cheap after first
        // contact per model).
        let entry = match self.registry.resolve(&req.model) {
            Ok(entry) => entry,
            Err(err) => return self.reject(&req.id, err),
        };
        let (config, label) = match build_config(&entry, &req.strategy, req.x) {
            Ok(built) => built,
            Err(err) => return self.reject(&req.id, err),
        };
        let key = CacheKey::schedule(entry.fingerprint, &config);
        let head = ReplyHead {
            model: entry.name.clone(),
            label,
            x: req.x,
            pe_min: entry.pe_min,
            t_mvm_ns: config.arch.crossbar().t_mvm_ns,
        };
        let deadline = req.deadline_ms.map(|ms| arrival + Duration::from_millis(ms));

        let mut st = self.state.lock();
        st.tenants.entry(entry.name.clone()).or_default().submitted += 1;
        if st.registered.contains(&req.id) {
            st.tenants.entry(entry.name.clone()).or_default().errors += 1;
            drop(st);
            return self.reject(
                &req.id,
                ServeError::new(
                    ErrorCode::BadRequest,
                    format!("duplicate request id `{}`", req.id),
                ),
            );
        }
        for dep in &req.after {
            if !st.registered.contains(dep) {
                st.tenants.entry(entry.name.clone()).or_default().errors += 1;
                drop(st);
                return self.reject(
                    &req.id,
                    ServeError::new(
                        ErrorCode::UnknownDependency,
                        format!("`after` references unknown request id `{dep}`"),
                    ),
                );
            }
        }

        // Warm path: only for requests without happens-after tags — a
        // tagged request must wait for its dependencies even if its own
        // result is already known.
        if req.after.is_empty() {
            let warm = if let Some(summary) = self.store.as_ref().and_then(|s| s.get(&key)) {
                self.warm_store.fetch_add(1, Ordering::Relaxed);
                Some(summary)
            } else if let Some(summary) = self.cache.peek(&key) {
                self.warm_cache.fetch_add(1, Ordering::Relaxed);
                Some(summary)
            } else {
                None
            };
            if let Some(summary) = warm {
                st.tenants.entry(entry.name.clone()).or_default().ok += 1;
                st.registered.insert(req.id.clone());
                st.completed.insert(req.id.clone());
                drop(st);
                self.ok.fetch_add(1, Ordering::Relaxed);
                self.completed.fetch_add(1, Ordering::Relaxed);
                self.record_latency(arrival);
                let reply = head.reply(&summary, Vec::new());
                return Submission::Immediate(Response::ok(&req.id, reply));
            }

            // Coalesce onto a runnable entry computing the same key
            // (never a parked one — that would order this request behind
            // dependencies it did not declare).
            if let Some(pos) = st.queue.iter().position(|e| e.key == key) {
                let ticket = st.next_ticket;
                st.next_ticket += 1;
                let existing = &mut st.queue[pos];
                existing.subscribers.push(Subscriber {
                    ticket,
                    id: req.id.clone(),
                    after: Vec::new(),
                    arrival,
                    deadline,
                });
                existing.deadline = match (existing.deadline, deadline) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                st.registered.insert(req.id.clone());
                drop(st);
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                return Submission::Enqueued(ticket);
            }
        }

        // Per-tenant admission: with a quota configured, one tenant may
        // hold at most that many pending computations across the queue
        // and the parked set. Checked before the global depth so a noisy
        // tenant hears `quota_exceeded` (its own doing) rather than
        // `overloaded` (everyone's problem). Shed requests are *not*
        // registered — the id may be retried once earlier work drains.
        if let Some(quota) = self.opts.tenant_quota {
            let held = st
                .queue
                .iter()
                .chain(st.parked.iter())
                .filter(|e| e.head.model == entry.name)
                .count();
            if held >= quota {
                st.tenants.entry(entry.name.clone()).or_default().quota_shed += 1;
                drop(st);
                self.errors.fetch_add(1, Ordering::Relaxed);
                return Submission::Immediate(Response::error(
                    &req.id,
                    ServeError::new(
                        ErrorCode::QuotaExceeded,
                        format!("tenant `{}` at its queue quota ({quota})", entry.name),
                    ),
                ));
            }
        }

        // Admission control: shed past the configured depth. Shed
        // requests are *not* registered — the client may retry the id.
        if st.queue.len() + st.parked.len() >= self.opts.max_queue {
            drop(st);
            self.shed.fetch_add(1, Ordering::Relaxed);
            self.errors.fetch_add(1, Ordering::Relaxed);
            return Submission::Immediate(Response::error(
                &req.id,
                ServeError::new(
                    ErrorCode::Overloaded,
                    format!("admission queue at capacity ({})", self.opts.max_queue),
                ),
            ));
        }

        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let seq = st.next_seq;
        st.next_seq += 1;
        let waiting_on: BTreeSet<String> = req
            .after
            .iter()
            .filter(|dep| !st.completed.contains(*dep))
            .cloned()
            .collect();
        let pending = PendingEntry {
            seq,
            key,
            head,
            model_fp: entry.fingerprint,
            graph: Arc::clone(&entry.graph),
            config,
            deadline,
            waiting_on,
            subscribers: vec![Subscriber {
                ticket,
                id: req.id.clone(),
                after: req.after.clone(),
                arrival,
                deadline,
            }],
        };
        st.registered.insert(req.id.clone());
        if pending.waiting_on.is_empty() {
            st.queue.push(pending);
        } else {
            st.parked.push(pending);
        }
        Submission::Enqueued(ticket)
    }

    /// Resolves one entry through [`ScheduleCache::summary`]: store →
    /// cache → compute → store.
    fn compute(&self, entry: &PendingEntry) -> Result<RunSummary, ServeError> {
        // Contain a panicking pipeline (a bug on one configuration, or an
        // injected chaos fault) to this entry: its subscribers get a
        // typed `schedule_failed`, the daemon and its queue live on.
        match catch_unwind(AssertUnwindSafe(|| {
            self.cache.summary(
                entry.model_fp,
                &entry.graph,
                &entry.config,
                self.store.as_ref(),
            )
        })) {
            Ok(outcome) => outcome.map_err(|e| {
                ServeError::new(
                    ErrorCode::ScheduleFailed,
                    format!(
                        "scheduling `{}` ({}) failed: {e}",
                        entry.head.model, entry.head.label
                    ),
                )
            }),
            Err(payload) => Err(ServeError::new(
                ErrorCode::ScheduleFailed,
                format!(
                    "scheduling `{}` ({}) panicked (contained): {}",
                    entry.head.model,
                    entry.head.label,
                    panic_message(payload.as_ref())
                ),
            )),
        }
    }

    fn record_latency(&self, arrival: Duration) {
        let elapsed = self.clock.now().saturating_sub(arrival);
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.latencies.lock().push(ns);
    }

    /// Drains the queue to quiescence, returning `(ticket, response)`
    /// pairs in completion order.
    ///
    /// Each round takes the current queue, sorts it
    /// earliest-deadline-first (arrival sequence breaks ties), runs it on
    /// the lane pool, finishes in EDF order, and unparks any entries
    /// whose dependencies completed — repeating until nothing is
    /// runnable. The response stream is deterministic for any
    /// `jobs` count.
    pub fn dispatch(&self) -> Vec<(Ticket, Response)> {
        let mut out = Vec::new();
        loop {
            let mut batch = {
                let mut st = self.state.lock();
                if st.queue.is_empty() {
                    break;
                }
                std::mem::take(&mut st.queue)
            };
            batch.sort_by_key(PendingEntry::edf_key);

            // One clock read per round: every deadline decision in the
            // round sees the same instant, so outcomes are reproducible
            // under ManualClock and independent of per-item timing.
            let now = self.clock.now();
            let outcomes = parallel_map(&batch, self.opts.jobs, |_, entry| {
                let any_live = entry
                    .subscribers
                    .iter()
                    .any(|s| s.deadline.is_none_or(|d| now <= d));
                if !any_live {
                    // Every subscriber's deadline lapsed while queued:
                    // reject without paying for the computation.
                    return Err(ServeError::new(
                        ErrorCode::DeadlineExpired,
                        "all deadlines elapsed before dispatch",
                    ));
                }
                self.compute(entry)
            });
            let done = self.clock.now();

            let mut st = self.state.lock();
            for (entry, outcome) in batch.into_iter().zip(outcomes) {
                for sub in &entry.subscribers {
                    let response = match (&outcome, sub.deadline) {
                        (_, Some(d)) if now > d => {
                            self.expired.fetch_add(1, Ordering::Relaxed);
                            self.errors.fetch_add(1, Ordering::Relaxed);
                            // Report the deadline actually enforced —
                            // the absolute instant relative to *this*
                            // subscriber's arrival. (The request's raw
                            // `deadline_ms` may differ for coalesced
                            // subscribers, and the old
                            // `unwrap_or(0)` printed `0` for them.)
                            let effective_ms = d.saturating_sub(sub.arrival).as_millis();
                            Response::error(
                                &sub.id,
                                ServeError::new(
                                    ErrorCode::DeadlineExpired,
                                    format!("deadline_ms {effective_ms} elapsed before dispatch"),
                                ),
                            )
                        }
                        (Ok(summary), _) => {
                            self.ok.fetch_add(1, Ordering::Relaxed);
                            let reply = entry.head.clone().reply(summary, sub.after.clone());
                            Response::ok(&sub.id, reply)
                        }
                        (Err(err), _) => {
                            if err.code == ErrorCode::DeadlineExpired {
                                self.expired.fetch_add(1, Ordering::Relaxed);
                            }
                            self.errors.fetch_add(1, Ordering::Relaxed);
                            Response::error(&sub.id, err.clone())
                        }
                    };
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    let tenant = st.tenants.entry(entry.head.model.clone()).or_default();
                    if response.as_error().is_some() {
                        tenant.errors += 1;
                    } else {
                        tenant.ok += 1;
                    }
                    let latency = done.saturating_sub(sub.arrival);
                    self.latencies
                        .lock()
                        .push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
                    st.completed.insert(sub.id.clone());
                    out.push((sub.ticket, response));
                }
            }

            // Unpark entries whose every dependency has now finished —
            // they join the next round's EDF sort.
            let parked = std::mem::take(&mut st.parked);
            for mut entry in parked {
                entry.waiting_on.retain(|dep| !st.completed.contains(dep));
                if entry.waiting_on.is_empty() {
                    st.queue.push(entry);
                } else {
                    st.parked.push(entry);
                }
            }
        }
        out
    }

    /// Whether nothing is queued or parked.
    pub fn is_idle(&self) -> bool {
        let st = self.state.lock();
        st.queue.is_empty() && st.parked.is_empty()
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let (queue_depth, parked, tenants) = {
            let st = self.state.lock();
            let mut queued_by_model: BTreeMap<&str, u64> = BTreeMap::new();
            for e in st.queue.iter().chain(st.parked.iter()) {
                *queued_by_model.entry(e.head.model.as_str()).or_default() += 1;
            }
            let tenants: Vec<TenantStat> = st
                .tenants
                .iter()
                .map(|(model, c)| TenantStat {
                    model: model.clone(),
                    submitted: c.submitted,
                    ok: c.ok,
                    errors: c.errors,
                    quota_shed: c.quota_shed,
                    queued: queued_by_model.get(model.as_str()).copied().unwrap_or(0),
                })
                .collect();
            (st.queue.len() as u64, st.parked.len() as u64, tenants)
        };
        let mut samples = self.latencies.lock().clone();
        samples.sort_unstable();
        let completed = self.completed.load(Ordering::Relaxed);
        // Measured from engine construction, not clock zero: an engine
        // born into an already-running clock (daemon restart, shared
        // ManualClock) must not dilute its rate with time it never saw.
        let elapsed = self.clock.now().saturating_sub(self.started_at);
        let throughput_rps = if elapsed > Duration::ZERO {
            completed as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        let store_stats = self.store.as_ref().map(ResultStore::stats).unwrap_or_default();
        let cache_stats = self.cache.stats();
        let degraded = self.store_degraded();
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            ok: self.ok.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            warm_store: self.warm_store.load(Ordering::Relaxed),
            warm_cache: self.warm_cache.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            queue_depth,
            parked,
            p50_ns: percentile(&samples, 50.0),
            p99_ns: percentile(&samples, 99.0),
            throughput_rps,
            store_hits: store_stats.hits,
            store_lookups: store_stats.lookups,
            cache_hits: cache_stats.hits(),
            cache_lookups: cache_stats.stage_lookups + cache_stats.schedule_lookups,
            store_write_errors: store_stats.write_errors,
            degraded,
            tenants,
        }
    }

    /// Whether the engine is in cache-only degraded mode: a persistent
    /// store is configured but its directory currently rejects writes
    /// (probed by opening the store's row log for append, through the
    /// same fault sites as a row write, so injected chaos faults and a
    /// read-only directory look the same). With no
    /// store configured there is nothing to degrade.
    fn store_degraded(&self) -> bool {
        self.store
            .as_ref()
            .is_some_and(|store| !store.probe_writable())
    }

    /// The payload of a `health` probe — cheap relative to `stats` (no
    /// latency-sample sort) but carrying the same degraded-mode verdict.
    pub fn health(&self) -> HealthReport {
        let (queue_depth, parked) = {
            let st = self.state.lock();
            (st.queue.len() as u64, st.parked.len() as u64)
        };
        let store_configured = self.store.is_some();
        let store_writable = self
            .store
            .as_ref()
            .is_none_or(|store| store.probe_writable());
        HealthReport {
            degraded: store_configured && !store_writable,
            store_configured,
            store_writable,
            store_write_errors: self
                .store
                .as_ref()
                .map(|s| s.stats().write_errors)
                .unwrap_or(0),
            queue_depth,
            parked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_tune::ManualClock;

    fn engine(jobs: usize, max_queue: usize) -> (ServeEngine, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let engine = ServeEngine::new(
            EngineOptions {
                jobs,
                max_queue,
                tenant_quota: None,
            },
            None,
            Arc::clone(&clock) as Arc<dyn Clock + Send + Sync>,
        );
        (engine, clock)
    }

    fn ok_reply(sub: Submission, engine: &ServeEngine) -> Response {
        match sub {
            Submission::Immediate(resp) => resp,
            Submission::Enqueued(ticket) => {
                let mut responses = engine.dispatch();
                let pos = responses
                    .iter()
                    .position(|(t, _)| *t == ticket)
                    .expect("dispatch answers the ticket");
                responses.swap_remove(pos).1
            }
        }
    }

    #[test]
    fn cold_then_cache_warm_same_reply() {
        let (engine, _) = engine(1, 16);
        let cold = ok_reply(
            engine.submit(&Request::schedule("a", "fig5", "xinf", 0)),
            &engine,
        );
        let warm = match engine.submit(&Request::schedule("b", "fig5", "xinf", 0)) {
            Submission::Immediate(resp) => resp,
            Submission::Enqueued(_) => panic!("second identical request must be warm"),
        };
        assert!(cold.as_schedule().unwrap().makespan_cycles > 0);
        // Same payload modulo the echoed id.
        assert_eq!(cold.as_schedule(), warm.as_schedule());
        assert_eq!(engine.stats().warm_cache, 1);
    }

    #[test]
    fn validation_rejections_are_typed() {
        let (engine, _) = engine(1, 16);
        let cases = [
            (Request::schedule("", "fig5", "xinf", 0), ErrorCode::BadRequest),
            (Request::schedule("a", "nope", "xinf", 0), ErrorCode::UnknownModel),
            (Request::schedule("a", "fig5", "nope", 0), ErrorCode::UnknownStrategy),
            (
                Request {
                    after: vec!["ghost".into()],
                    ..Request::schedule("a", "fig5", "xinf", 0)
                },
                ErrorCode::UnknownDependency,
            ),
        ];
        for (req, code) in cases {
            let resp = ok_reply(engine.submit(&req), &engine);
            assert_eq!(resp.as_error().expect("typed rejection").code, code);
        }
        // A rejected id is not registered, so it can be retried.
        let retry = ok_reply(
            engine.submit(&Request::schedule("a", "fig5", "xinf", 0)),
            &engine,
        );
        assert!(retry.as_schedule().is_some());
        // ...but a *successful* id cannot be reused.
        let dup = ok_reply(
            engine.submit(&Request::schedule("a", "fig5", "xinf", 0)),
            &engine,
        );
        assert_eq!(dup.as_error().unwrap().code, ErrorCode::BadRequest);
    }

    #[test]
    fn overflowing_x_is_a_bad_request_naming_x() {
        let (engine, _) = engine(1, 16);
        for strategy in ["wdup", "wdup+xinf"] {
            let req = Request::schedule("a", "fig5", strategy, usize::MAX);
            let resp = match engine.submit(&req) {
                Submission::Immediate(resp) => resp,
                Submission::Enqueued(_) => panic!("{strategy}: an overflowing x must not queue"),
            };
            let err = resp.as_error().expect("typed rejection");
            assert_eq!(err.code, ErrorCode::BadRequest, "{strategy}");
            assert!(
                err.detail.contains(&format!("`x` {}", usize::MAX)),
                "{strategy}: {}",
                err.detail
            );
        }
        assert_eq!(engine.stats().errors, 2);
    }

    #[test]
    fn identical_queued_requests_coalesce() {
        let (engine, _) = engine(1, 16);
        let t1 = match engine.submit(&Request::schedule("a", "fig5", "wdup", 1)) {
            Submission::Enqueued(t) => t,
            Submission::Immediate(r) => panic!("cold request must queue, got {r:?}"),
        };
        let t2 = match engine.submit(&Request::schedule("b", "fig5", "wdup", 1)) {
            Submission::Enqueued(t) => t,
            Submission::Immediate(r) => panic!("identical request must coalesce, got {r:?}"),
        };
        let responses = engine.dispatch();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].0, t1);
        assert_eq!(responses[1].0, t2);
        assert_eq!(
            responses[0].1.as_schedule(),
            responses[1].1.as_schedule(),
            "coalesced subscribers share one computation's payload"
        );
        let stats = engine.stats();
        assert_eq!(stats.coalesced, 1);
        assert!(stats.cache_lookups > 0);
    }

    #[test]
    fn degraded_store_keeps_answering_and_surfaces_in_health_and_stats() {
        use cim_bench::runner::{FaultPlan, FaultSite};

        let dir = std::env::temp_dir().join(format!("cim_serve_degraded_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Phase 1: a healthy engine persists one summary.
        {
            let store = ResultStore::open(&dir).expect("store opens");
            let clock = Arc::new(ManualClock::new());
            let engine = ServeEngine::new(
                EngineOptions {
                    jobs: 1,
                    max_queue: 16,
                    tenant_quota: None,
                },
                Some(store),
                clock as Arc<dyn Clock + Send + Sync>,
            );
            let health = engine.health();
            assert!(!health.degraded);
            assert!(health.store_configured);
            assert!(health.store_writable);
            let reply = ok_reply(
                engine.submit(&Request::schedule("a", "fig5", "xinf", 0)),
                &engine,
            );
            assert!(reply.as_schedule().is_some());
            assert!(!engine.stats().degraded);
        }

        // Phase 2: the same directory, but every store write now fails
        // (deterministic injection stands in for a read-only disk, which
        // a root test runner cannot simulate with permission bits).
        let mut store = ResultStore::open(&dir).expect("store reopens");
        let plan = Arc::new(
            FaultPlan::new(7)
                .with_rate(FaultSite::StoreWrite, 1000)
                .with_rate(FaultSite::StoreRename, 1000),
        );
        store.set_fault_hook(plan);
        let clock = Arc::new(ManualClock::new());
        let engine = ServeEngine::new(
            EngineOptions {
                jobs: 1,
                max_queue: 16,
                tenant_quota: None,
            },
            Some(store),
            clock as Arc<dyn Clock + Send + Sync>,
        );

        // Warm answers still flow from the persisted row...
        let warm = match engine.submit(&Request::schedule("w", "fig5", "xinf", 0)) {
            Submission::Immediate(resp) => resp,
            Submission::Enqueued(_) => panic!("persisted row must answer warm"),
        };
        assert!(warm.as_schedule().is_some());
        // ...cold requests still compute (the row just fails to persist)...
        let cold = ok_reply(
            engine.submit(&Request::schedule("c", "fig5", "wdup", 1)),
            &engine,
        );
        assert!(cold.as_schedule().is_some());
        // ...and both surfaces report cache-only mode.
        let health = engine.health();
        assert!(health.degraded);
        assert!(health.store_configured);
        assert!(!health.store_writable);
        assert!(health.store_write_errors > 0);
        let stats = engine.stats();
        assert!(stats.degraded);
        assert!(stats.store_write_errors > 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_quota_sheds_then_frees_after_dispatch() {
        let clock = Arc::new(ManualClock::new());
        let engine = ServeEngine::new(
            EngineOptions {
                jobs: 1,
                max_queue: 16,
                tenant_quota: Some(1),
            },
            None,
            Arc::clone(&clock) as Arc<dyn Clock + Send + Sync>,
        );
        // First fig5 computation occupies the tenant's single slot.
        let t1 = match engine.submit(&Request::schedule("a", "fig5", "wdup", 1)) {
            Submission::Enqueued(t) => t,
            Submission::Immediate(r) => panic!("cold request must queue, got {r:?}"),
        };
        // A *different* fig5 computation exceeds the quota: typed,
        // retryable, and the id stays reusable.
        let shed = match engine.submit(&Request::schedule("b", "fig5", "xinf", 0)) {
            Submission::Immediate(resp) => resp,
            Submission::Enqueued(_) => panic!("over-quota request must shed"),
        };
        let err = shed.as_error().expect("typed shed");
        assert_eq!(err.code, ErrorCode::QuotaExceeded);
        assert!(err.code.is_retryable());
        // An *identical* computation still coalesces — no new slot.
        let t2 = match engine.submit(&Request::schedule("c", "fig5", "wdup", 1)) {
            Submission::Enqueued(t) => t,
            Submission::Immediate(r) => panic!("identical request must coalesce, got {r:?}"),
        };
        // Another tenant is unaffected by fig5's full quota.
        let t3 = match engine.submit(&Request::schedule("d", "TinyYOLOv3", "xinf", 0)) {
            Submission::Enqueued(t) => t,
            Submission::Immediate(r) => panic!("other tenant must admit, got {r:?}"),
        };
        let snap = engine.stats();
        let fig5 = snap.tenants.iter().find(|t| t.model == "fig5").unwrap();
        assert_eq!((fig5.submitted, fig5.quota_shed, fig5.queued), (3, 1, 1));

        let responses = engine.dispatch();
        assert_eq!(responses.len(), 3);
        for ticket in [t1, t2, t3] {
            let resp = &responses.iter().find(|(t, _)| *t == ticket).unwrap().1;
            assert!(resp.as_schedule().is_some());
        }
        // Dispatch drained the tenant's slot: the shed id retries fine
        // (and answers warm — the wdup row seeded the cache, xinf is a
        // fresh computation, so it queues).
        match engine.submit(&Request::schedule("b", "fig5", "xinf", 0)) {
            Submission::Enqueued(_) => {}
            Submission::Immediate(r) => {
                assert!(r.as_schedule().is_some(), "retry must succeed, got {r:?}")
            }
        }
        let snap = engine.stats();
        let fig5 = snap.tenants.iter().find(|t| t.model == "fig5").unwrap();
        assert_eq!(fig5.ok, 2, "both fig5 subscribers answered ok");
        assert_eq!(fig5.errors, 0);
        let yolo = snap.tenants.iter().find(|t| t.model == "TinyYOLOv3").unwrap();
        assert_eq!((yolo.submitted, yolo.ok, yolo.quota_shed), (1, 1, 0));
        // Rows arrive sorted by model name.
        let names: Vec<&str> = snap.tenants.iter().map(|t| t.model.as_str()).collect();
        assert_eq!(names, ["TinyYOLOv3", "fig5"]);
    }

    #[test]
    fn throughput_measures_the_engines_own_service_interval() {
        // The engine is born into a clock that has already been running
        // for 100 s — a restart against a long-lived clock source.
        let clock = Arc::new(ManualClock::new());
        clock.advance(Duration::from_secs(100));
        let engine = ServeEngine::new(
            EngineOptions {
                jobs: 1,
                max_queue: 16,
                tenant_quota: None,
            },
            None,
            Arc::clone(&clock) as Arc<dyn Clock + Send + Sync>,
        );
        let reply = ok_reply(
            engine.submit(&Request::schedule("a", "fig5", "xinf", 0)),
            &engine,
        );
        assert!(reply.as_schedule().is_some());
        clock.advance(Duration::from_secs(2));
        let stats = engine.stats();
        assert_eq!(stats.completed, 1);
        // One completion over the 2 s the engine has existed = 0.5 rps.
        // The old `completed / clock.now()` math divided by the clock's
        // full 102 s age and reported ~0.0098 rps.
        assert!(
            (stats.throughput_rps - 0.5).abs() < 1e-9,
            "rps {}",
            stats.throughput_rps
        );
    }
}
