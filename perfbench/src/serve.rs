//! `serve-engine`: the `cim-serve` request path in process, closed loop at
//! jobs 1.
//!
//! Each round builds a fresh `ServeEngine` over a fresh on-disk
//! `ResultStore` and warms it with the seeded popular head (the set-up,
//! timed for `setup_s`). It then sends the engine the run's seeded round
//! of request lines from one client, one at a time: parse, submit, dispatch
//! when the engine queued the request, encode the reply. 96 % of the
//! requests draw the warm head by Zipf popularity and are answered from the
//! store at submit; the other 4 % are every first-time key once, each
//! computed at dispatch and then written to the store (see
//! `gen::ServePlan`). Store gets plus the parse, gate and encode steps set
//! the median; the first-time keys set the tail.
//!
//! A fresh engine per round makes every round the same work, so each
//! request position is timed once per round and reported at its best (see
//! `best_by_key`). On one long-lived engine the first-time keys would be
//! used up after one round: an engine's result cache never shrinks.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cim_bench::runner::{ResultStore, StoreStats};
use cim_frontend::{canonicalize, CanonOptions};
use cim_serve::{EngineOptions, ModelRegistry, Request, Response, ServeEngine, Submission};
use cim_tune::{Clock, SystemClock};

use crate::gen::{serve_keys, Rng, ServeKey, ServePlan};
use crate::pace::Pace;
use crate::trace::Tracer;
use crate::{
    best_by_key, err, latency_metrics, now, out_dir, pace_details, peak_rss_mb, remove_dir,
    secs_since, throughput_metrics, Opts, Report, Res,
};

/// Requests per round; [`ServePlan::round`] makes 4 % of them first-time
/// keys, which at this size is every first-time key once.
const ROUND_REQUESTS: usize = 7_500;

fn request(id: String, key: &ServeKey) -> Request {
    Request::schedule(&id, key.model, key.strategy, key.x)
}

fn line(req: &Request) -> Res<String> {
    serde_json::to_string(req).map_err(err)
}

fn engine(store: Option<ResultStore>) -> ServeEngine {
    ServeEngine::new(
        EngineOptions {
            jobs: 1,
            ..EngineOptions::default()
        },
        store,
        Arc::new(SystemClock::new()) as Arc<dyn Clock + Send + Sync>,
    )
}

/// Runs `f` inside a span when tracing.
fn step<T>(t: &mut Option<Tracer>, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, req, |_| f()),
        None => f(),
    }
}

/// One request line through the engine, as the daemon handles it: parse,
/// submit, dispatch if queued, encode. Returns the response and its line.
fn serve_one(
    engine: &ServeEngine,
    line: &str,
    req: u64,
    t: &mut Option<Tracer>,
) -> Res<(Response, String)> {
    let parsed: Request =
        step(t, "serve.parse", req, || serde_json::from_str(line)).map_err(err)?;
    let response = match step(t, "serve.submit", req, || engine.submit(&parsed)) {
        Submission::Immediate(r) => r,
        Submission::Enqueued(ticket) => step(t, "serve.dispatch", req, || engine.dispatch())
            .into_iter()
            .find(|(answered, _)| *answered == ticket)
            .map(|(_, r)| r)
            .ok_or("dispatch did not answer the queued request")?,
    };
    let encoded = step(t, "serve.encode", req, || serde_json::to_string(&response)).map_err(err)?;
    Ok((response, encoded))
}

/// What stays fixed over a run: the keys, the seeded plan, the store path.
struct Setup {
    keys: Vec<ServeKey>,
    plan: ServePlan,
    store_dir: PathBuf,
}

/// A fresh engine over a fresh store, warmed with the head.
fn fresh_engine(s: &Setup) -> Res<ServeEngine> {
    remove_dir(&s.store_dir);
    let engine = engine(Some(ResultStore::open(&s.store_dir).map_err(err)?));
    for (i, &k) in s.plan.head().iter().enumerate() {
        let (response, _) = serve_one(
            &engine,
            &line(&request(format!("warm{i}"), &s.keys[k]))?,
            0,
            &mut None,
        )?;
        if response.as_schedule().is_none() {
            return Err(format!("warm-up request for {:?} failed", s.keys[k]));
        }
    }
    Ok(engine)
}

/// What one round measured.
struct Round {
    /// Start and seconds of the set-up.
    setup: (Duration, f64),
    /// Start and seconds of each request, in order.
    samples: Vec<(Duration, f64)>,
    warm: u64,
    submitted: u64,
    store: StoreStats,
}

/// One round: a fresh warmed engine, then `order` (indices into the keys)
/// sent one request at a time, with pace readings between requests when
/// given a [`Pace`]. Every reply must be a schedule and equal every earlier
/// reply for its key (`seen` holds the first).
fn round(
    s: &Setup,
    order: &[usize],
    tag: usize,
    tracer: &mut Option<Tracer>,
    report: &mut Report,
    seen: &mut BTreeMap<usize, Response>,
    mut pace: Option<&mut Pace>,
) -> Res<Round> {
    let t0 = now();
    let engine = fresh_engine(s)?;
    let setup = (t0, secs_since(t0));
    let lines = order
        .iter()
        .enumerate()
        .map(|(i, &k)| line(&request(format!("r{tag}-{i}"), &s.keys[k])))
        .collect::<Res<Vec<String>>>()?;
    let mut samples = Vec::with_capacity(order.len());
    for (i, (&k, l)) in order.iter().zip(&lines).enumerate() {
        if let Some(p) = pace.as_deref_mut() {
            p.tick();
        }
        let t0 = now();
        let out = serve_one(&engine, l, (tag * ROUND_REQUESTS + i) as u64, tracer);
        samples.push((t0, secs_since(t0)));
        let response = match out {
            Ok((response, encoded)) => {
                std::hint::black_box(encoded);
                response
            }
            Err(e) => {
                report.check(false, || format!("request r{tag}-{i}: {e}"));
                continue;
            }
        };
        if response.as_schedule().is_none() {
            report.check(false, || format!("request r{tag}-{i} got {response:?}"));
            continue;
        }
        match seen.entry(k) {
            Entry::Vacant(v) => {
                report.attempted += 1;
                v.insert(response);
            }
            Entry::Occupied(first) => report.check(first.get().body == response.body, || {
                format!(
                    "request r{tag}-{i} and {} got different replies for {:?}",
                    first.get().id,
                    s.keys[k]
                )
            }),
        }
    }
    let stats = engine.stats();
    let store = engine.store().map(ResultStore::stats).unwrap_or_default();
    drop(engine);
    remove_dir(&s.store_dir);
    Ok(Round {
        setup,
        samples,
        warm: stats.warm_store + stats.warm_cache,
        submitted: stats.submitted,
        store,
    })
}

/// Check pass: the first reply for every key equals, byte for byte, the
/// reply a cold engine without a store gives for it.
fn check(report: &mut Report, seen: &BTreeMap<usize, Response>, keys: &[ServeKey]) -> Res<()> {
    let cold = engine(None);
    for (&k, first) in seen {
        let (want, _) = serve_one(
            &cold,
            &line(&request(format!("check{k}"), &keys[k]))?,
            0,
            &mut None,
        )?;
        let want = serde_json::to_string(&Response {
            id: first.id.clone(),
            body: want.body,
        })
        .map_err(err)?;
        let got = serde_json::to_string(first).map_err(err)?;
        report.check(got == want, || {
            format!("{} replied {got}, a cold engine {want}", first.id)
        });
    }
    Ok(())
}

/// Rounds of `order` until `seconds` pass (at least one).
fn timed_rounds(
    s: &Setup,
    order: &[usize],
    seconds: f64,
    report: &mut Report,
    seen: &mut BTreeMap<usize, Response>,
    mut pace: Option<&mut Pace>,
) -> Res<Vec<Round>> {
    let mut rounds = Vec::new();
    let start = now();
    while rounds.is_empty() || secs_since(start) < seconds {
        let tag = rounds.len();
        rounds.push(round(
            s,
            order,
            tag,
            &mut None,
            report,
            seen,
            pace.as_deref_mut(),
        )?);
    }
    Ok(rounds)
}

fn busy(rounds: &[Round]) -> f64 {
    rounds.iter().flat_map(|r| &r.samples).map(|s| s.1).sum()
}

/// Each request position's best time over `rounds`, scaled by `pace` when
/// the rounds were paced.
fn best(rounds: &[Round], pace: Option<&Pace>) -> Vec<f64> {
    best_by_key(
        rounds.iter().flat_map(|r| {
            r.samples
                .iter()
                .enumerate()
                .map(|(i, &(at, secs))| (i, at, secs))
        }),
        pace,
    )
}

pub fn run(opts: &Opts) -> Res<Report> {
    let mut report = Report::default();
    let keys = serve_keys();
    let mut rng = Rng::new(opts.seed, 3);
    let plan = ServePlan::new(&mut rng, &keys);
    let order = plan.round(&mut rng, ROUND_REQUESTS);
    let s = Setup {
        keys,
        plan,
        store_dir: out_dir()?.join(format!("serve-store-{}", std::process::id())),
    };
    let mut seen = BTreeMap::new();

    if !opts.trace {
        let mut pace = Pace::new();
        let rounds = timed_rounds(
            &s,
            &order,
            opts.seconds,
            &mut report,
            &mut seen,
            Some(&mut pace),
        )?;
        let best = best(&rounds, Some(&pace));
        let setups: Vec<f64> = rounds
            .iter()
            .map(|r| pace.scaled(r.setup.0, r.setup.1))
            .collect();
        report.metrics.insert(
            "setup_s",
            crate::stats::median(&setups).ok_or("no round ran")?,
        );
        throughput_metrics(
            &mut report,
            "serve_requests_per_s",
            (best.len() as f64, best.iter().sum()),
            ((rounds.len() * ROUND_REQUESTS) as f64, busy(&rounds)),
        );
        report.detail("serve_rounds", rounds.len(), "count");
        latency_metrics(&mut report, "serve_request", &best)?;
        pace_details(&mut report, &pace);
        report.metrics.insert("peak_rss_mb", peak_rss_mb()?);
    } else {
        // Untraced rounds for half the time, then the same rounds traced.
        let untraced = timed_rounds(&s, &order, opts.seconds / 2.0, &mut report, &mut seen, None)?;
        let mut tracer = Tracer::default();
        for (i, name) in ModelRegistry::known_names().iter().enumerate() {
            let raw = if name == "fig5" {
                cim_models::fig5_example()
            } else {
                cim_models::all_models()
                    .into_iter()
                    .find(|m| m.name == name)
                    .ok_or("model missing")?
                    .build()
            };
            tracer
                .span("frontend.canonicalize", i as u64, |_| {
                    canonicalize(&raw, &CanonOptions::default())
                })
                .map_err(err)?;
        }
        let canon_calls = tracer.spans().len();
        let mut t = Some(tracer);
        let traced = (0..untraced.len())
            .map(|tag| round(&s, &order, tag, &mut t, &mut report, &mut seen, None))
            .collect::<Res<Vec<Round>>>()?;
        report.spans = t.map(|t| t.spans().to_vec()).unwrap_or_default();
        report.busy_from_spans(&[
            "frontend.canonicalize",
            "serve.parse",
            "serve.submit",
            "serve.dispatch",
            "serve.encode",
        ]);
        let sum = |f: fn(&Round) -> u64| traced.iter().map(f).sum::<u64>() as f64;
        let lookups = sum(|r| r.store.lookups);
        let m = &mut report.metrics;
        m.insert("frontend.canonicalize.calls", canon_calls as f64);
        m.insert(
            "serve.warm_ratio",
            sum(|r| r.warm) / sum(|r| r.submitted).max(1.0),
        );
        m.insert("bench.store.gets", lookups);
        m.insert(
            "bench.store.hit_ratio",
            sum(|r| r.store.hits) / lookups.max(1.0),
        );
        m.insert("bench.store.puts", sum(|r| r.store.writes));
        m.insert("bench.store.evictions", sum(|r| r.store.evictions));
        m.insert(
            "trace.overhead_pct",
            (best(&traced, None).iter().sum::<f64>() / best(&untraced, None).iter().sum::<f64>()
                - 1.0)
                * 100.0,
        );
        report.detail("serve_rounds", untraced.len(), "count");
    }
    check(&mut report, &seen, &s.keys)?;
    Ok(report)
}
