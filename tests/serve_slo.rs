//! Deadline / SLO behaviour of the serve engine under a [`ManualClock`].
//!
//! Every test here drives [`ServeEngine`] directly — no sockets, no
//! threads beyond the lane pool — so deadline expiry, EDF ordering, and
//! load shedding are exact functions of the virtual clock, reproducible
//! on any machine at any load.

use std::sync::Arc;
use std::time::Duration;

use clsa_cim::serve::{
    EngineOptions, ErrorCode, Request, Response, ServeEngine, Submission,
};
use clsa_cim::tune::{Clock, ManualClock};

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

fn ticket(sub: Submission) -> u64 {
    match sub {
        Submission::Enqueued(t) => t,
        Submission::Immediate(r) => panic!("expected enqueued submission, got {r:?}"),
    }
}

fn immediate(sub: Submission) -> Response {
    match sub {
        Submission::Immediate(r) => r,
        Submission::Enqueued(t) => panic!("expected immediate answer, got ticket {t}"),
    }
}

fn with_deadline(req: Request, deadline_ms: u64) -> Request {
    Request {
        deadline_ms: Some(deadline_ms),
        ..req
    }
}

/// A deadline that lapses while the request sits in the queue produces a
/// typed `deadline_expired` error without computing, and the expiry is
/// counted in the stats.
#[test]
fn expired_deadline_is_a_typed_error() {
    let (engine, clock) = engine(1, 16);
    let t = ticket(engine.submit(&with_deadline(
        Request::schedule("late", "fig5", "xinf", 0),
        5,
    )));
    clock.advance(Duration::from_millis(10));

    let responses = engine.dispatch();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].0, t);
    let err = responses[0].1.as_error().expect("typed expiry");
    assert_eq!(err.code, ErrorCode::DeadlineExpired);
    assert!(
        err.detail.contains("deadline_ms 5"),
        "detail names the lapsed budget: {}",
        err.detail
    );

    let stats = engine.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.ok, 0);
    // The expired id still completes, so a dependent is admitted to the
    // queue instead of parking forever.
    assert_eq!(responses[0].1.id, "late");
    let t_dep = ticket(engine.submit(&Request {
        after: vec!["late".into()],
        ..Request::schedule("dep", "fig5", "xinf", 0)
    }));
    let responses = engine.dispatch();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].0, t_dep);
    assert!(engine.is_idle());
}

/// A deadline that has *not* lapsed under the virtual clock succeeds even
/// if the wall-clock compute takes longer than the budget — deadlines are
/// judged exclusively against the injected clock.
#[test]
fn unexpired_deadline_succeeds_regardless_of_compute_time() {
    let (engine, clock) = engine(1, 16);
    let t = ticket(engine.submit(&with_deadline(
        Request::schedule("ontime", "fig5", "xinf", 0),
        1_000,
    )));
    clock.advance(Duration::from_millis(999));

    let responses = engine.dispatch();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].0, t);
    let reply = responses[0].1.as_schedule().expect("on-time reply");
    assert!(reply.makespan_cycles > 0);
    assert_eq!(engine.stats().expired, 0);
}

/// Queued entries dispatch earliest-deadline-first: the tightest deadline
/// runs first, deadline-free requests run last, and arrival order breaks
/// ties among the deadline-free.
#[test]
fn dispatch_order_is_earliest_deadline_first() {
    let (engine, _clock) = engine(1, 16);
    // Four distinct cache keys so nothing coalesces; submission order is
    // deliberately the reverse of deadline order.
    let t_none = ticket(engine.submit(&Request::schedule("free", "fig5", "layer-by-layer", 0)));
    let t_slack = ticket(engine.submit(&with_deadline(
        Request::schedule("slack", "fig5", "xinf", 0),
        1_000,
    )));
    let t_tight = ticket(engine.submit(&with_deadline(
        Request::schedule("tight", "fig5", "wdup", 1),
        10,
    )));
    let t_mid = ticket(engine.submit(&with_deadline(
        Request::schedule("mid", "fig5", "wdup+xinf", 1),
        100,
    )));

    let responses = engine.dispatch();
    let order: Vec<u64> = responses.iter().map(|(t, _)| *t).collect();
    assert_eq!(
        order,
        vec![t_tight, t_mid, t_slack, t_none],
        "EDF: 10ms, 100ms, 1000ms, then no-deadline"
    );
    let ids: Vec<&str> = responses.iter().map(|(_, r)| r.id.as_str()).collect();
    assert_eq!(ids, ["tight", "mid", "slack", "free"]);
    assert!(responses.iter().all(|(_, r)| r.as_schedule().is_some()));
}

/// A coalesced subscriber's tighter deadline promotes the shared entry in
/// the EDF order — the batch inherits the minimum deadline — and when
/// that subscriber's own budget lapses, its expiry error reports the
/// deadline actually enforced for *it*, not a default.
#[test]
fn coalesced_deadline_tightens_the_entry() {
    let (engine, clock) = engine(1, 16);
    let t_a = ticket(engine.submit(&with_deadline(
        Request::schedule("a", "fig5", "xinf", 0),
        1_000,
    )));
    let t_b = ticket(engine.submit(&with_deadline(
        Request::schedule("b", "fig5", "wdup", 1),
        500,
    )));
    // Coalesces onto `a`'s entry with a tighter deadline than `b`'s.
    let t_c = ticket(engine.submit(&with_deadline(
        Request::schedule("c", "fig5", "xinf", 0),
        100,
    )));

    // Only `c`'s 100 ms budget lapses; `a` keeps the shared entry live,
    // so the computation still runs and `a`/`b` succeed.
    clock.advance(Duration::from_millis(150));

    let responses = engine.dispatch();
    let order: Vec<u64> = responses.iter().map(|(t, _)| *t).collect();
    assert_eq!(
        order,
        vec![t_a, t_c, t_b],
        "the xinf entry (min deadline 100ms) outranks the 500ms wdup entry"
    );
    assert!(responses[0].1.as_schedule().is_some(), "`a` is on time");
    assert!(responses[2].1.as_schedule().is_some(), "`b` is on time");
    let err = responses[1].1.as_error().expect("`c` expired");
    assert_eq!(err.code, ErrorCode::DeadlineExpired);
    assert!(
        err.detail.contains("deadline_ms 100"),
        "expiry names the coalesced subscriber's own enforced deadline: {}",
        err.detail
    );

    let stats = engine.stats();
    assert_eq!(stats.coalesced, 1);
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.ok, 2);
}

/// Submissions past the configured queue depth are shed with a typed
/// `overloaded` error; the shed id is not registered, so a retry after
/// the queue drains succeeds.
#[test]
fn load_shedding_past_queue_depth() {
    let (engine, _clock) = engine(1, 2);
    let _a = ticket(engine.submit(&Request::schedule("a", "fig5", "xinf", 0)));
    let _b = ticket(engine.submit(&Request::schedule("b", "fig5", "wdup", 1)));
    let shed = immediate(engine.submit(&Request::schedule("c", "fig5", "wdup", 2)));
    let err = shed.as_error().expect("typed overload");
    assert_eq!(err.code, ErrorCode::Overloaded);
    assert!(err.detail.contains("capacity (2)"), "detail: {}", err.detail);

    let stats = engine.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.queue_depth, 2, "shed request consumed no capacity");

    // An identical-key duplicate coalesces instead of shedding even at
    // capacity — coalescing consumes no queue slot.
    let t_dup = ticket(engine.submit(&Request::schedule("a2", "fig5", "xinf", 0)));
    assert!(t_dup > 0);
    assert_eq!(engine.stats().shed, 1, "coalesced duplicate is not shed");

    // Drain, then the shed id becomes admissible again.
    let drained = engine.dispatch();
    assert_eq!(drained.len(), 3);
    let t_retry = ticket(engine.submit(&Request::schedule("c", "fig5", "wdup", 2)));
    let responses = engine.dispatch();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].0, t_retry);
    assert!(responses[0].1.as_schedule().is_some());
}

/// The full response stream — tickets, ids, payload bytes — is identical
/// for a single-threaded and a four-lane engine given the same
/// submission sequence, and so are the deterministic stats counters.
#[test]
fn response_stream_is_identical_across_jobs_counts() {
    let run = |jobs: usize| -> (Vec<String>, String) {
        let (engine, clock) = engine(jobs, 32);
        let submit = |req: &Request| match engine.submit(req) {
            Submission::Enqueued(_) => None,
            Submission::Immediate(r) => Some(r),
        };
        // A mix of strategies, deadlines (one of which expires),
        // happens-after tags, and a warm duplicate.
        assert!(submit(&Request::schedule("r0", "fig5", "layer-by-layer", 0)).is_none());
        assert!(submit(&with_deadline(Request::schedule("r1", "fig5", "xinf", 0), 5)).is_none());
        assert!(submit(&with_deadline(Request::schedule("r2", "fig5", "wdup", 1), 800)).is_none());
        assert!(submit(&Request {
            after: vec!["r0".into(), "r2".into()],
            ..Request::schedule("r3", "fig5", "wdup+xinf", 1)
        })
        .is_none());
        clock.advance(Duration::from_millis(10)); // r1's 5ms budget lapses
        let mut lines: Vec<String> = engine
            .dispatch()
            .into_iter()
            .map(|(ticket, resp)| {
                format!(
                    "{ticket} {}",
                    serde_json::to_string(&resp).expect("responses serialize")
                )
            })
            .collect();
        // One warm follow-up answered from the in-memory cache (r0's
        // key — r1's xinf expired without ever computing).
        let warm = match engine.submit(&Request::schedule("r4", "fig5", "layer-by-layer", 0)) {
            Submission::Immediate(r) => r,
            Submission::Enqueued(t) => panic!("r4 must be warm, got ticket {t}"),
        };
        lines.push(serde_json::to_string(&warm).expect("responses serialize"));
        let stats = engine.stats();
        let counters = format!(
            "submitted={} completed={} ok={} errors={} expired={} warm_cache={}",
            stats.submitted,
            stats.completed,
            stats.ok,
            stats.errors,
            stats.expired,
            stats.warm_cache,
        );
        (lines, counters)
    };

    let (lines_1, counters_1) = run(1);
    let (lines_4, counters_4) = run(4);
    assert_eq!(
        lines_1, lines_4,
        "serialized (ticket, response) stream must not depend on --jobs"
    );
    assert_eq!(counters_1, counters_4);
    // Sanity: the stream contains the expected outcomes.
    let joined = lines_1.join("\n");
    assert!(joined.contains("\"deadline_expired\""), "r1 expires: {joined}");
    assert_eq!(joined.matches("\"status\":\"ok\"").count(), 4);
}

/// Under a frozen ManualClock every latency sample is zero, so the
/// percentile fields are exactly zero — a regression guard for any
/// accidental wall-clock read on the latency path.
#[test]
fn frozen_clock_reports_zero_latency_percentiles() {
    let (engine, _clock) = engine(2, 16);
    for (i, strategy) in ["layer-by-layer", "xinf", "wdup"].iter().enumerate() {
        let _ = engine.submit(&Request::schedule(
            &format!("r{i}"),
            "fig5",
            strategy,
            if strategy.starts_with("wdup") { 1 } else { 0 },
        ));
    }
    let _ = engine.dispatch();
    let stats = engine.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(
        (stats.p50_ns, stats.p99_ns),
        (0, 0),
        "ManualClock never advanced, so no latency can be observed"
    );
    assert_eq!(stats.throughput_rps, 0.0, "zero elapsed time -> guarded division");
}
