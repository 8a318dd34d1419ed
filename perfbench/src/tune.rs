//! `autotune-wide`: a grid over `DesignSpace::wide()` (2,430 candidates)
//! on TinyYOLOv4 and ResNet152, each repetition with a fresh evaluator and
//! a fresh on-disk store.
//!
//! One `prepare` serves every tile × hop × cost-model candidate here, so
//! fingerprinting, the schedule cache, cost tables, Stage IV, validation
//! and store puts dominate — the opposite balance to `compile-cold`.

use std::cell::RefCell;
use std::time::Duration;

use cim_bench::runner::{ResultStore, RunnerOptions};
use cim_bench::tune::{pareto_rows, TuneEvaluator};
use cim_frontend::{canonicalize, CanonOptions};
use cim_ir::Graph;
use cim_tune::{
    tune, Budget, Candidate, DesignSpace, Evaluator, GridSearch, Measurement, PipelineEvaluator,
    TuneOptions, TuneResult,
};
use clsa_core::CoreError;

use crate::gen::Rng;
use crate::pace::Pace;
use crate::trace::Tracer;
use crate::{
    best_by_key, err, latency_metrics, now, out_dir, pace_details, remove_dir, secs_since,
    throughput_metrics, Opts, Report, Res, SetupReps,
};

/// The two models of the workload: the case study and the largest zoo model.
const MODELS: [&str; 2] = ["TinyYOLOv4", "ResNet152"];

/// Non-front candidates the check pass re-evaluates per model.
const CHECK_SAMPLE: usize = 24;

/// Wraps an evaluator and times each batch it evaluates, taking pace
/// readings between batches when given a [`Pace`].
struct Timed<'a> {
    inner: &'a dyn Evaluator,
    batches: RefCell<Vec<(Duration, Duration)>>,
    pace: Option<&'a RefCell<Pace>>,
}

impl Evaluator for Timed<'_> {
    fn evaluate(&self, batch: &[Candidate]) -> Vec<Result<Measurement, CoreError>> {
        if let Some(p) = self.pace {
            p.borrow_mut().tick();
        }
        let start = now();
        let out = self.inner.evaluate(batch);
        self.batches.borrow_mut().push((start, now()));
        out
    }
}

/// One repetition's outcome.
struct Rep {
    model: usize,
    seconds: f64,
    evaluated: usize,
    front_json: String,
    result: TuneResult,
    batches: Vec<(Duration, Duration)>,
    cache: cim_bench::runner::CacheStats,
    store: cim_bench::runner::StoreStats,
}

fn canonical(name: &str, tracer: &mut Tracer, req: u64) -> Res<Graph> {
    let info = cim_models::all_models()
        .into_iter()
        .find(|m| m.name == name)
        .ok_or("model missing")?;
    let raw = info.build();
    tracer.span("frontend.canonicalize", req, |_| {
        canonicalize(&raw, &CanonOptions::default())
            .map(|c| c.into_graph())
            .map_err(err)
    })
}

/// One autotune run, as `cim_bench::tune::autotune` does it, with a
/// batch-timing shim around the evaluator.
fn rep(
    graph: &Graph,
    model: usize,
    space: &DesignSpace,
    tag: &str,
    tracer: Option<&mut Tracer>,
    req: u64,
    pace: Option<&RefCell<Pace>>,
) -> Res<Rep> {
    let dir = out_dir()?.join(format!("tune-store-{}-{tag}", std::process::id()));
    remove_dir(&dir);
    let start = now();
    let store = ResultStore::open(&dir).map_err(err)?;
    let evaluator = TuneEvaluator::new(graph, &RunnerOptions::sequential(), Some(&store));
    let timed = Timed {
        inner: &evaluator,
        batches: RefCell::new(Vec::new()),
        pace,
    };
    let run = || {
        tune(
            space,
            &mut GridSearch::new(),
            &timed,
            &Budget::default(),
            &TuneOptions::default(),
        )
    };
    let result = match tracer {
        // Batch intervals become children of the `tune` span, so its self
        // time is the driver's own work.
        Some(t) => t.span("tune", req, |t| {
            let out = run();
            for &(a, b) in timed.batches.borrow().iter() {
                t.record("tune.eval", req, a, b);
            }
            out
        }),
        None => run(),
    }
    .map_err(err)?;
    let rows = pareto_rows(space, &result.archive);
    let seconds = secs_since(start);
    let out = Rep {
        model,
        seconds,
        evaluated: result.stats.evaluated,
        front_json: serde_json::to_string(&rows).map_err(err)?,
        result,
        batches: timed.batches.into_inner(),
        cache: evaluator.cache_stats(),
        store: store.stats(),
    };
    drop(store);
    remove_dir(&dir);
    Ok(out)
}

/// Check pass: the front's objective vectors equal the sequential
/// reference evaluator's, and a seeded sample of the rest of the space is
/// dominated by (or equal to) a front entry.
fn check(
    report: &mut Report,
    graph: &Graph,
    space: &DesignSpace,
    result: &TuneResult,
    rng: &mut Rng,
) {
    let reference = PipelineEvaluator::new(graph);
    let front = result.archive.sorted();
    let batch: Vec<Candidate> = front.iter().map(|e| space.candidate(e.candidate)).collect();
    for (entry, got) in front.iter().zip(reference.evaluate(&batch)) {
        report.check(got.as_ref().ok() == Some(&entry.measurement), || {
            format!(
                "front candidate {} differs from the sequential evaluator",
                entry.candidate
            )
        });
    }
    let sample: Vec<Candidate> = (0..CHECK_SAMPLE)
        .map(|_| space.candidate(rng.below(space.len())))
        .collect();
    for (c, got) in sample.iter().zip(reference.evaluate(&sample)) {
        // Infeasible candidates cannot enter any front.
        let Ok(m) = got else { continue };
        let covered = front
            .iter()
            .any(|e| e.measurement == m || e.measurement.dominates(&m));
        report.check(covered, || {
            format!("candidate {} escapes the front", c.index)
        });
    }
}

pub fn run(opts: &Opts) -> Res<Report> {
    let mut report = Report::default();
    let mut setup_tracer = Tracer::default();
    let build = |tracer: &mut Tracer| -> Res<_> {
        let graphs = MODELS
            .iter()
            .enumerate()
            .map(|(i, m)| canonical(m, tracer, i as u64))
            .collect::<Res<Vec<Graph>>>()?;
        Ok((graphs, DesignSpace::wide()))
    };
    let ((graphs, space), mut setup_reps) = SetupReps::first(
        || build(&mut setup_tracer),
        || build(&mut Tracer::default()).map(drop),
        opts.seconds,
    )?;
    let mut rng = Rng::new(opts.seed, 2);

    // An unmeasured first round: the first repetitions of a process grow
    // the heap and run measurably slower than every later one.
    for (m, graph) in graphs.iter().enumerate() {
        rep(graph, m, &space, &format!("warm-{m}"), None, 0, None)?;
    }
    // Whole rounds (one repetition per model, seeded order) keep the
    // model mix of the measured work fixed.
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    // Paced only when untraced: the traced run compares its time with the
    // untraced repetitions', which must not hold readings.
    let pace = (!opts.trace).then(|| RefCell::new(Pace::new()));
    let mut reps: Vec<Rep> = Vec::new();
    let mut rounds = 0;
    let start = now();
    while rounds == 0 || secs_since(start) < budget {
        let mut order = [0usize, 1];
        rng.shuffle(&mut order);
        for m in order {
            setup_reps.tick()?;
            reps.push(rep(
                &graphs[m],
                m,
                &space,
                &format!("{rounds}-{m}"),
                None,
                0,
                pace.as_ref(),
            )?);
        }
        rounds += 1;
    }
    for r in &reps {
        report.details.push(format!(
            "rep {} {:.4} s {} candidates",
            MODELS[r.model], r.seconds, r.evaluated
        ));
    }
    let evaluated: usize = reps.iter().map(|r| r.evaluated).sum();
    let busy: f64 = reps.iter().map(|r| r.seconds).sum();
    for r in &reps {
        let first = reps.iter().find(|f| f.model == r.model).ok_or("no rep")?;
        report.check(r.front_json == first.front_json, || {
            format!("{} front changed between repetitions", MODELS[r.model])
        });
    }

    if let Some(pace) = pace.map(RefCell::into_inner) {
        // A repetition of one model runs the same batches as every other,
        // so a batch is keyed by model and position. Whole repetitions are
        // too few (about eight per model) for their best to hold still.
        let batches = reps.iter().flat_map(|r| {
            r.batches
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| (r.model * 100_000 + i, a, b.saturating_sub(a).as_secs_f64()))
        });
        let best_batches = best_by_key(batches, Some(&pace));
        let per_round: usize = (0..MODELS.len())
            .filter_map(|m| reps.iter().find(|r| r.model == m))
            .map(|r| r.evaluated)
            .sum();
        let done = setup_reps.finish(&pace)?;
        report.metrics.insert("setup_s", done.setup_s);
        throughput_metrics(
            &mut report,
            "tune_configs_per_s",
            (per_round as f64, best_batches.iter().sum()),
            (evaluated as f64, busy),
        );
        report.detail("tune_rounds", rounds, "count");
        latency_metrics(&mut report, "tune_batch", &best_batches)?;
        pace_details(&mut report, &pace);
        report.metrics.insert("peak_rss_mb", done.peak_rss_mb);
    } else {
        // The same number of rounds again, traced.
        let mut tracer = Tracer::default();
        let mut traced: Vec<Rep> = Vec::new();
        for round in 0..rounds {
            for r in &reps[2 * round..2 * round + 2] {
                let req = traced.len() as u64;
                let t = rep(
                    &graphs[r.model],
                    r.model,
                    &space,
                    &format!("t{round}-{}", r.model),
                    Some(&mut tracer),
                    req,
                    None,
                )?;
                report.check(t.front_json == r.front_json, || {
                    "traced front differs".into()
                });
                traced.push(t);
            }
        }
        let traced_s: f64 = traced.iter().map(|t| t.seconds).sum();
        let mut spans = setup_tracer.spans().to_vec();
        crate::trace::merge(&mut spans, tracer.spans().to_vec());
        report.spans = spans;
        report.busy_from_spans(&["frontend.canonicalize", "tune.eval"]);
        let totals = crate::trace::totals(&report.spans);
        let driver_self = totals
            .get("tune")
            .map_or(0.0, |t| t.self_time.as_secs_f64() * 1e3);
        let (mut cache, mut store) = (
            cim_bench::runner::CacheStats::default(),
            cim_bench::runner::StoreStats::default(),
        );
        for t in &traced {
            cache.stage_lookups += t.cache.stage_lookups;
            cache.stage_computes += t.cache.stage_computes;
            cache.schedule_lookups += t.cache.schedule_lookups;
            cache.schedule_computes += t.cache.schedule_computes;
            store.lookups += t.store.lookups;
            store.hits += t.store.hits;
            store.writes += t.store.writes;
            store.evictions += t.store.evictions;
        }
        let ratio = |hits: u64, base: u64| hits as f64 / base.max(1) as f64;
        let m = &mut report.metrics;
        m.insert("frontend.canonicalize.calls", MODELS.len() as f64);
        m.insert("tune.driver.self_ms", driver_self);
        m.insert(
            "tune.evaluated",
            traced.iter().map(|t| t.evaluated as f64).sum(),
        );
        m.insert(
            "tune.front_size",
            traced
                .iter()
                .map(|t| t.result.archive.len() as f64)
                .sum::<f64>()
                / traced.len().max(1) as f64,
        );
        m.insert(
            "bench.cache.stage_hit_ratio",
            ratio(cache.stage_hits(), cache.stage_lookups),
        );
        m.insert(
            "bench.cache.schedule_hit_ratio",
            ratio(cache.schedule_hits(), cache.schedule_lookups),
        );
        m.insert("bench.store.gets", store.lookups as f64);
        m.insert("bench.store.hit_ratio", ratio(store.hits, store.lookups));
        m.insert("bench.store.puts", store.writes as f64);
        m.insert("bench.store.evictions", store.evictions as f64);
        m.insert("trace.overhead_pct", (traced_s / busy - 1.0) * 100.0);
    }
    for (m, graph) in graphs.iter().enumerate() {
        if let Some(r) = reps.iter().find(|r| r.model == m) {
            check(&mut report, graph, &space, &r.result, &mut rng);
        }
    }
    Ok(report)
}
