//! # cim-serve — scheduling as a service
//!
//! Everything below this crate is batch: a binary starts, sweeps, exits.
//! `cim-serve` turns the stack into a **long-running compilation
//! daemon** answering a stream of newline-delimited JSON scheduling
//! requests over a Unix socket (TCP optional) with latency SLOs:
//!
//! * [`protocol`] — the wire types: [`Request`] (model + strategy +
//!   optional deadline and `after` happens-after tags), [`Response`],
//!   typed [`ErrorCode`]s. Replies are built exclusively from persisted
//!   [`RunSummary`](cim_bench::runner::RunSummary) fields, so a warm
//!   reply is byte-identical to the cold reply that seeded it.
//! * [`engine`] — the policy core, free of I/O: warm paths through the
//!   fingerprint-keyed [`ResultStore`](cim_bench::runner::ResultStore)
//!   and [`ScheduleCache`](cim_bench::runner::ScheduleCache), request
//!   coalescing, admission control with typed `overloaded` load
//!   shedding, earliest-deadline-first dispatch on the PR-2 lane pool,
//!   and happens-after parking. All timing flows through the PR-6
//!   [`Clock`](cim_tune::Clock) trait, so the SLO test suite drives
//!   every deadline decision deterministically with a
//!   [`ManualClock`](cim_tune::ManualClock).
//! * [`daemon`] — the sockets: acceptors, per-connection handlers, and
//!   the dispatcher thread delivering queued responses. Hardened:
//!   per-connection read timeouts, a bounded frame reader (oversized
//!   lines get a typed `line_too_long`, the connection survives), and
//!   deterministic connection-fault injection via
//!   [`FaultPlan`](cim_bench::runner::FaultPlan). When the persistent
//!   store stops accepting writes the daemon degrades to cache-only
//!   mode and keeps answering — `stats` and the `health` op surface it.
//! * [`stats`] — p50/p99 latency, throughput, hit rates, queue depth —
//!   the payload of a `stats` request.
//! * [`client`] — a minimal blocking client (used by the `serve-bench`
//!   driver and the end-to-end tests), with seeded
//!   backoff-and-reconnect retries ([`RetryPolicy`]).
//!
//! Binaries: `cim-serve` (the daemon) and `serve-bench` (a client
//! driver that runs one pass against a daemon over its socket and
//! prints requests per second, p50/p99 and warm answers).
//!
//! # Examples
//!
//! The engine is fully usable without sockets:
//!
//! ```
//! use std::sync::Arc;
//! use cim_serve::{EngineOptions, Request, ServeEngine, Submission};
//! use cim_tune::{Clock, ManualClock};
//!
//! let clock = Arc::new(ManualClock::new());
//! let engine = ServeEngine::new(EngineOptions::default(), None, clock);
//! match engine.submit(&Request::schedule("r1", "fig5", "xinf", 0)) {
//!     Submission::Enqueued(ticket) => {
//!         let responses = engine.dispatch();
//!         assert_eq!(responses[0].0, ticket);
//!         assert!(responses[0].1.as_schedule().is_some());
//!     }
//!     Submission::Immediate(_) => unreachable!("cold engine must queue"),
//! }
//! assert!(engine.stats().completed == 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod engine;
pub mod protocol;
pub mod registry;
pub mod stats;

pub use client::{Client, RetryPolicy};
pub use daemon::{Daemon, DaemonOptions, DEFAULT_MAX_LINE_BYTES, DEFAULT_READ_TIMEOUT};
pub use engine::{EngineOptions, ServeEngine, Submission, Ticket};
pub use protocol::{
    ErrorCode, HealthReport, Op, Request, Response, ResponseBody, ScheduleReply, ServeError,
};
pub use registry::{build_config, ModelEntry, ModelRegistry, STRATEGIES};
pub use stats::{percentile, StatsSnapshot, TenantStat};
