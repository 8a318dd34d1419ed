//! Happens-after (`after: [...]`) semantics of the serve engine.
//!
//! Fixed scenarios pin the contract — parking behind in-flight
//! dependencies, immediate admission behind completed ones, typed
//! rejection of unknown ids — and a property test then drives random
//! small DAGs through the engine, asserting every request completes
//! (no deadlock) in a dependency-respecting order.

use std::sync::Arc;

use clsa_cim::serve::{
    EngineOptions, ErrorCode, Request, ServeEngine, Submission, STRATEGIES,
};
use clsa_cim::tune::{Clock, ManualClock};
use proptest::prelude::*;

fn engine(jobs: usize) -> ServeEngine {
    ServeEngine::new(
        EngineOptions {
            jobs,
            max_queue: 64,
            tenant_quota: None,
        },
        None,
        Arc::new(ManualClock::new()) as Arc<dyn Clock + Send + Sync>,
    )
}

fn ticket(sub: Submission) -> u64 {
    match sub {
        Submission::Enqueued(t) => t,
        Submission::Immediate(r) => panic!("expected enqueued submission, got {r:?}"),
    }
}

fn after(req: Request, deps: &[&str]) -> Request {
    Request {
        after: deps.iter().map(|d| d.to_string()).collect(),
        ..req
    }
}

/// A request tagged `after` an in-flight dependency parks until the
/// dependency finishes, then completes with the dependency listed in
/// `observed`.
#[test]
fn after_in_flight_dependency_orders_completion() {
    let engine = engine(2);
    let t0 = ticket(engine.submit(&Request::schedule("r0", "fig5", "wdup+xinf", 2)));
    let t1 = ticket(engine.submit(&after(
        Request::schedule("r1", "fig5", "xinf", 0),
        &["r0"],
    )));

    let responses = engine.dispatch();
    assert_eq!(responses.len(), 2);
    assert_eq!(responses[0].0, t0);
    assert_eq!(responses[1].0, t1);
    let ids: Vec<&str> = responses.iter().map(|(_, r)| r.id.as_str()).collect();
    assert_eq!(ids, ["r0", "r1"]);
    let reply = responses[1].1.as_schedule().expect("r1 succeeds");
    assert_eq!(reply.observed, vec!["r0".to_string()]);
    assert!(engine.is_idle(), "nothing may stay parked");
}

/// `after` a dependency that already completed admits straight to the
/// queue — and even a request whose own result is already cached is
/// never warm-answered at submit while it carries happens-after tags.
#[test]
fn after_completed_dependency_runs_immediately() {
    let engine = engine(1);
    let _ = ticket(engine.submit(&Request::schedule("r0", "fig5", "xinf", 0)));
    assert_eq!(engine.dispatch().len(), 1);

    // Same key as r0 (already cached) but tagged -> must enqueue, not
    // answer warm.
    let t1 = ticket(engine.submit(&after(
        Request::schedule("r1", "fig5", "xinf", 0),
        &["r0"],
    )));
    let warm_before = engine.stats().warm_cache;
    let responses = engine.dispatch();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].0, t1);
    let reply = responses[0].1.as_schedule().expect("r1 succeeds");
    assert_eq!(reply.observed, vec!["r0".to_string()]);
    assert_eq!(
        engine.stats().warm_cache,
        warm_before,
        "tagged requests never take the warm path at submit"
    );
}

/// `after` an id the engine has never seen is a typed rejection — and
/// the rejected id stays retryable.
#[test]
fn unknown_dependency_is_a_typed_error() {
    let engine = engine(1);
    let resp = match engine.submit(&after(
        Request::schedule("r0", "fig5", "xinf", 0),
        &["ghost"],
    )) {
        Submission::Immediate(r) => r,
        Submission::Enqueued(t) => panic!("unknown dep must reject, got ticket {t}"),
    };
    let err = resp.as_error().expect("typed rejection");
    assert_eq!(err.code, ErrorCode::UnknownDependency);
    assert!(err.detail.contains("`ghost`"), "detail: {}", err.detail);

    // The id was not registered, so resubmitting it (without the bogus
    // tag) works.
    let t = ticket(engine.submit(&Request::schedule("r0", "fig5", "xinf", 0)));
    let responses = engine.dispatch();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].0, t);
    assert!(responses[0].1.as_schedule().is_some());
}

/// A three-deep chain and a diamond resolve across dispatch rounds in
/// topological order.
#[test]
fn chains_and_diamonds_resolve_in_topological_order() {
    let engine = engine(4);
    // chain: a -> b -> c;  diamond: a -> {d, e} -> f
    let _ = ticket(engine.submit(&Request::schedule("a", "fig5", "layer-by-layer", 0)));
    let _ = ticket(engine.submit(&after(Request::schedule("b", "fig5", "xinf", 0), &["a"])));
    let _ = ticket(engine.submit(&after(Request::schedule("c", "fig5", "wdup", 1), &["b"])));
    let _ = ticket(engine.submit(&after(Request::schedule("d", "fig5", "wdup", 2), &["a"])));
    let _ = ticket(engine.submit(&after(
        Request::schedule("e", "fig5", "wdup+xinf", 1),
        &["a"],
    )));
    let _ = ticket(engine.submit(&after(
        Request::schedule("f", "fig5", "wdup+xinf", 2),
        &["d", "e"],
    )));

    let responses = engine.dispatch();
    assert_eq!(responses.len(), 6);
    assert!(engine.is_idle());
    let order: Vec<String> = responses.iter().map(|(_, r)| r.id.clone()).collect();
    let pos = |id: &str| {
        order
            .iter()
            .position(|x| x == id)
            .unwrap_or_else(|| panic!("`{id}` missing from completion order {order:?}"))
    };
    for (dep, dependent) in [
        ("a", "b"),
        ("b", "c"),
        ("a", "d"),
        ("a", "e"),
        ("d", "f"),
        ("e", "f"),
    ] {
        assert!(
            pos(dep) < pos(dependent),
            "`{dep}` must finish before `{dependent}`: {order:?}"
        );
    }
}

proptest! {
    /// Random small DAGs: node `i` depends on a mask-selected subset of
    /// the nodes before it. Every request must complete exactly once —
    /// no deadlock, no lost parked entries — in an order where each
    /// dependency precedes its dependents, identically for 1 and 4 lanes.
    #[test]
    fn random_dags_complete_in_dependency_order(
        masks in proptest::collection::vec(0usize..256, 1..9),
        jobs in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let engine = engine(jobs);
        let n = masks.len();
        let mut tickets = Vec::with_capacity(n);
        // Finish order: warm replies finish at submit, the rest in the
        // order dispatch answers them.
        let mut order: Vec<String> = Vec::with_capacity(n);
        for (i, mask) in masks.iter().enumerate() {
            let deps: Vec<String> = (0..i).filter(|j| mask & (1 << j) != 0)
                .map(|j| format!("n{j}"))
                .collect();
            let strategy = STRATEGIES[i % STRATEGIES.len()];
            let x = if strategy.starts_with("wdup") { 1 + i % 2 } else { 0 };
            let req = Request {
                after: deps,
                ..Request::schedule(&format!("n{i}"), "fig5", strategy, x)
            };
            match engine.submit(&req) {
                Submission::Enqueued(t) => tickets.push(Some(t)),
                // A dependency-free request can be warm-answered if an
                // identical key already finished in an earlier round of
                // this same case (coalescing keeps it off the queue
                // otherwise) — that still counts as completed.
                Submission::Immediate(r) => {
                    prop_assert!(r.as_schedule().is_some(), "unexpected rejection: {r:?}");
                    order.push(r.id.clone());
                    tickets.push(None);
                }
            }
        }

        let responses = engine.dispatch();
        let enqueued = tickets.iter().flatten().count();
        prop_assert!(
            responses.len() == enqueued,
            "every ticket must be answered: {} responses for {} tickets",
            responses.len(), enqueued
        );
        prop_assert!(engine.is_idle(), "no entry may remain parked");

        order.extend(responses.iter().map(|(_, r)| r.id.clone()));
        prop_assert!(
            order.len() == n,
            "each id completes exactly once: {:?}", order
        );
        for (i, mask) in masks.iter().enumerate() {
            let id = format!("n{i}");
            let id_pos = order.iter().position(|x| *x == id).expect("id completed");
            for j in (0..i).filter(|j| mask & (1 << j) != 0) {
                let dep = format!("n{j}");
                let dep_pos = order.iter().position(|x| *x == dep).expect("dep completed");
                prop_assert!(
                    dep_pos < id_pos,
                    "`{}` (pos {}) must precede `{}` (pos {}): {:?}",
                    dep, dep_pos, id, id_pos, order
                );
            }
        }
        for (ticket, _) in &responses {
            prop_assert!(
                tickets.iter().flatten().any(|t| t == ticket),
                "response for unknown ticket {}", ticket
            );
        }
    }
}
