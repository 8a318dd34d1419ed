//! `compile-cold`: whole-model compiles from scratch, no cache, no store.
//!
//! Mapping and Stages I–IV do all the work here; the cache, store and
//! serve layers do none, so it is the workload on which an optimization of
//! those layers must show no change.

use std::collections::BTreeMap;
use std::time::Duration;

use cim_arch::{place_groups, Architecture, CrossbarSpec, TileSpec};
use cim_frontend::{canonicalize, CanonOptions};
use cim_ir::Graph;
use cim_mapping::{apply_duplication, layer_costs, min_pes, optimize, MappingOptions, Solver};
use cim_sim::Simulator;
use clsa_core::reference::{cross_layer_schedule_naive, determine_dependencies_naive};
use clsa_core::{
    cross_layer_schedule_costed, determine_dependencies, determine_sets, layer_by_layer_schedule,
    prepare, run_prepared, utilization, validate_schedule_costed, CostedDeps, EdgeCost,
    MappingChoice, RunConfig, SchedulingChoice, SetPolicy,
};

use crate::gen::{compile_pool, passes, CompileSpec, CostModel, Rng, Strategy, ZOO};
use crate::pace::Pace;
use crate::trace::Tracer;
use crate::{
    best_by_key, err, latency_metrics, now, pace_details, secs_since, throughput_metrics, Opts,
    Report, Res, SetupReps,
};

/// NoC hop latency of every compile's architecture (cycles).
const HOP_LATENCY: u64 = 2;

/// Configs of the check pass also compared against the naive reference.
const REFERENCE_SAMPLE: usize = 6;

/// What one compile produced that the check pass compares.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outcome {
    makespan: u64,
    utilization: f64,
}

struct Setup {
    graphs: Vec<Graph>,
    pool: Vec<CompileSpec>,
    configs: Vec<RunConfig>,
    order: Vec<usize>,
    reference_sample: Vec<usize>,
}

fn canonical_zoo(tracer: &mut Tracer) -> Res<Vec<Graph>> {
    let models = cim_models::all_models();
    ZOO.iter()
        .enumerate()
        .map(|(i, name)| {
            let info = models
                .iter()
                .find(|m| m.name == *name)
                .ok_or("zoo model missing")?;
            let raw = info.build();
            tracer.span("frontend.canonicalize", i as u64, |_| {
                canonicalize(&raw, &CanonOptions::default())
                    .map(|c| c.into_graph())
                    .map_err(err)
            })
        })
        .collect()
}

fn setup(opts: &Opts, tracer: &mut Tracer) -> Res<Setup> {
    let graphs = canonical_zoo(tracer)?;
    let xbar = CrossbarSpec::wan_nature_2022();
    let pe_min = graphs
        .iter()
        .map(|g| {
            Ok(min_pes(
                &layer_costs(g, &xbar, &MappingOptions::default()).map_err(err)?,
            ))
        })
        .collect::<Res<Vec<usize>>>()?;
    let mut rng = Rng::new(opts.seed, 1);
    let pool = compile_pool();
    let configs = pool
        .iter()
        .map(|spec| config(spec, pe_min[spec.model]))
        .collect::<Res<Vec<RunConfig>>>()?;
    // Far more draws than any run completes; the loop stops on time.
    let order = passes(&mut rng, pool.len(), 200_000);
    let mut sample: Vec<usize> = (0..pool.len()).collect();
    rng.shuffle(&mut sample);
    sample.truncate(REFERENCE_SAMPLE);
    Ok(Setup {
        graphs,
        pool,
        configs,
        order,
        reference_sample: sample,
    })
}

fn config(spec: &CompileSpec, pe_min: usize) -> Res<RunConfig> {
    let arch = Architecture::builder()
        .crossbar(CrossbarSpec::wan_nature_2022())
        .tile(TileSpec::isaac_like())
        .noc_hop_latency(HOP_LATENCY)
        .pes(pe_min + spec.x)
        .build()
        .map_err(err)?;
    let mut cfg = RunConfig::baseline(arch);
    if matches!(spec.strategy, Strategy::Xinf | Strategy::WdupXinf) {
        cfg = cfg.with_cross_layer();
    }
    if matches!(spec.strategy, Strategy::Wdup | Strategy::WdupXinf) {
        cfg = cfg.with_duplication(Solver::Greedy);
    }
    cfg.set_policy = match spec.max_sets {
        None => SetPolicy::finest(),
        Some(n) => SetPolicy::coarse(n),
    };
    cfg.noc_cost = spec.cost != CostModel::Free;
    cfg.gpeu_cost = spec.cost == CostModel::NocAndGpeu;
    Ok(cfg)
}

/// The untraced compile: the library's own two calls.
fn compile(graph: &Graph, cfg: &RunConfig) -> Res<Outcome> {
    let prepared = prepare(graph, cfg).map_err(err)?;
    let result = run_prepared(&prepared, cfg).map_err(err)?;
    Ok(Outcome {
        makespan: std::hint::black_box(result.makespan()),
        utilization: result.report.utilization,
    })
}

/// Work counters of one traced compile.
#[derive(Debug, Default, Clone, Copy)]
struct Work {
    sets: u64,
    edges: u64,
}

/// The same compile as [`compile`], stage by stage through the public
/// stage functions, with a span around each layer's calls.
fn compile_traced(
    t: &mut Tracer,
    req: u64,
    graph: &Graph,
    cfg: &RunConfig,
) -> Res<(Outcome, Work)> {
    t.span("compile", req, |t| {
        let xbar = cfg.arch.crossbar();
        let budget = cfg.arch.total_pes();
        let (mapped, costs) = t.span("mapping", req, |_| -> Res<_> {
            let costs0 = layer_costs(graph, xbar, &cfg.mapping_options).map_err(err)?;
            let pe_min = min_pes(&costs0);
            let plan = match cfg.mapping {
                MappingChoice::OnceEach => optimize(&costs0, pe_min, Solver::Greedy),
                MappingChoice::WeightDuplication { solver } => optimize(&costs0, budget, solver),
            }
            .map_err(err)?;
            if pe_min > budget {
                return Err(format!("budget {budget} below PE_min {pe_min}"));
            }
            let mapped = apply_duplication(graph, &costs0, &plan).map_err(err)?;
            let costs = layer_costs(&mapped, xbar, &cfg.mapping_options).map_err(err)?;
            Ok((mapped, costs))
        })?;
        let layers = t.span("core.sets", req, |_| {
            determine_sets(&mapped, &costs, &cfg.set_policy).map_err(err)
        })?;
        let deps = t.span("core.deps", req, |_| {
            determine_dependencies(&mapped, &layers).map_err(err)
        })?;
        let costed = t.span("core.cost", req, |_| -> Res<CostedDeps> {
            let free = CostedDeps::free(&layers, &deps).map_err(err)?;
            // As in `run_prepared`: every data-movement model places the
            // groups, but only cross-layer schedules are costed with it.
            let edge_cost = edge_cost_of(cfg, &layers)?;
            if cfg.scheduling == SchedulingChoice::LayerByLayer
                || matches!(edge_cost, EdgeCost::Free)
            {
                return Ok(free);
            }
            CostedDeps::build(&layers, &deps, &edge_cost).map_err(err)
        })?;
        let schedule = t
            .span("core.schedule", req, |_| match cfg.scheduling {
                SchedulingChoice::LayerByLayer => layer_by_layer_schedule(&layers),
                SchedulingChoice::CrossLayer => {
                    cross_layer_schedule_costed(&layers, &deps, &costed)
                }
            })
            .map_err(err)?;
        t.span("core.validate", req, |_| {
            validate_schedule_costed(&layers, &deps, &schedule, &costed)
        })
        .map_err(err)?;
        let report = t
            .span("core.metrics", req, |_| {
                utilization(&layers, &schedule, budget)
            })
            .map_err(err)?;
        let work = Work {
            sets: layers.iter().map(|l| l.sets.len() as u64).sum(),
            edges: deps.num_edges() as u64,
        };
        Ok((
            Outcome {
                makespan: schedule.makespan,
                utilization: report.utilization,
            },
            work,
        ))
    })
}

/// The edge-cost model a config's cross-layer schedule was built with.
fn edge_cost_of(cfg: &RunConfig, layers: &[clsa_core::LayerSets]) -> Res<EdgeCost> {
    if !(cfg.noc_cost || cfg.gpeu_cost) {
        return Ok(EdgeCost::Free);
    }
    let sizes: Vec<usize> = layers.iter().map(|l| l.pes).collect();
    let placement = place_groups(&cfg.arch, &sizes, cfg.placement).map_err(err)?;
    let arch = cfg.arch.clone();
    Ok(if cfg.gpeu_cost {
        EdgeCost::NocAndGpeu { arch, placement }
    } else {
        EdgeCost::NocHops { arch, placement }
    })
}

/// The baseline's makespan from its definition: logical layers run one
/// after another, the duplicates of one logical layer side by side.
fn layer_by_layer_makespan(layers: &[clsa_core::LayerSets]) -> u64 {
    let mut slots: Vec<(u32, u64)> = Vec::new();
    for l in layers {
        match slots.iter_mut().find(|(logical, _)| *logical == l.logical) {
            Some(slot) => slot.1 = slot.1.max(l.total_cycles()),
            None => slots.push((l.logical, l.total_cycles())),
        }
    }
    slots.iter().map(|(_, cycles)| cycles).sum()
}

/// Check pass: recompiles every config that ran, checks its makespan
/// against the event simulator (cross-layer) or the layer sum (baseline),
/// and compares a seeded sample against the naive reference stages.
fn check(report: &mut Report, s: &Setup, seen: &BTreeMap<usize, Outcome>) -> Res<()> {
    let configs = &s.configs;
    for (&idx, timed) in seen {
        let spec = &s.pool[idx];
        let graph = &s.graphs[spec.model];
        let cfg = &configs[idx];
        let prepared = prepare(graph, cfg).map_err(err)?;
        let result = run_prepared(&prepared, cfg).map_err(err)?;
        let label = || format!("{spec:?} on {}", ZOO[spec.model]);
        report.check(
            result.makespan() == timed.makespan && result.report.utilization == timed.utilization,
            || format!("{}: timed run differs from the check run", label()),
        );
        let expected = match cfg.scheduling {
            SchedulingChoice::CrossLayer => {
                Simulator::new(&result.layers, &result.deps)
                    .run_costed(&result.costed)
                    .map_err(err)?
                    .schedule
                    .makespan
            }
            SchedulingChoice::LayerByLayer => layer_by_layer_makespan(&result.layers),
        };
        report.check(result.makespan() == expected, || {
            format!(
                "{}: makespan {} but the simulator gives {expected}",
                label(),
                result.makespan()
            )
        });
        if s.reference_sample.contains(&idx) {
            let naive =
                determine_dependencies_naive(&result.mapped_graph, &result.layers).map_err(err)?;
            report.check(naive == *result.deps, || {
                format!("{}: Stage II differs from the naive reference", label())
            });
            if cfg.scheduling == SchedulingChoice::CrossLayer {
                let edge_cost = edge_cost_of(cfg, &result.layers)?;
                let naive = cross_layer_schedule_naive(&result.layers, &result.deps, &edge_cost)
                    .map_err(err)?;
                report.check(naive == result.schedule, || {
                    format!("{}: Stage IV differs from the naive reference", label())
                });
            }
        }
    }
    Ok(())
}

/// Runs ops from `order` until `seconds` pass; returns `(config, start,
/// seconds)` per op and records the outcome of each distinct config.
fn timed_loop(
    report: &mut Report,
    s: &Setup,
    order: &[usize],
    seconds: f64,
    seen: &mut BTreeMap<usize, Outcome>,
    reps: &mut SetupReps,
    mut pace: Option<&mut Pace>,
) -> Res<Vec<(usize, Duration, f64)>> {
    let mut samples = Vec::new();
    let start = now();
    for &idx in order {
        if secs_since(start) >= seconds {
            break;
        }
        reps.tick()?;
        if let Some(p) = pace.as_deref_mut() {
            p.tick();
        }
        let t0 = now();
        let out = compile(&s.graphs[s.pool[idx].model], &s.configs[idx]);
        samples.push((idx, t0, secs_since(t0)));
        report.attempted += 1;
        match out {
            Ok(o) => {
                if *seen.entry(idx).or_insert(o) != o {
                    report.failed += 1;
                    report
                        .details
                        .push(format!("CHECK FAILED: config {idx} is not deterministic"));
                }
            }
            Err(e) => {
                report.failed += 1;
                report.details.push(format!("FAILED: config {idx}: {e}"));
            }
        }
    }
    Ok(samples)
}

pub fn run(opts: &Opts) -> Res<Report> {
    let mut report = Report::default();
    let mut setup_tracer = Tracer::default();
    let (s, mut reps) = SetupReps::first(
        || setup(opts, &mut setup_tracer),
        || setup(opts, &mut Tracer::default()).map(drop),
        opts.seconds,
    )?;
    let configs = &s.configs;
    let mut seen = BTreeMap::new();

    if !opts.trace {
        let mut pace = Pace::new();
        let samples = timed_loop(
            &mut report,
            &s,
            &s.order,
            opts.seconds,
            &mut seen,
            &mut reps,
            Some(&mut pace),
        )?;
        let total: f64 = samples.iter().map(|s| s.2).sum();
        let best = best_by_key(samples.iter().copied(), Some(&pace));
        let done = reps.finish(&pace)?;
        report.metrics.insert("setup_s", done.setup_s);
        throughput_metrics(
            &mut report,
            "compile_per_s",
            (best.len() as f64, best.iter().sum()),
            (samples.len() as f64, total),
        );
        report.detail("compiles", samples.len(), "count");
        latency_metrics(&mut report, "compile", &best)?;
        pace_details(&mut report, &pace);
        report.metrics.insert("peak_rss_mb", done.peak_rss_mb);
    } else {
        // Untraced first half, then the same ops again with spans.
        let untraced = timed_loop(
            &mut report,
            &s,
            &s.order,
            opts.seconds / 2.0,
            &mut seen,
            &mut reps,
            None,
        )?;
        let ops = &s.order[..untraced.len()];
        let mut tracer = Tracer::default();
        let mut work = Work::default();
        let start = now();
        for (req, &idx) in ops.iter().enumerate() {
            let out = compile_traced(
                &mut tracer,
                req as u64,
                &s.graphs[s.pool[idx].model],
                &configs[idx],
            );
            report.attempted += 1;
            match out {
                Ok((o, w)) => {
                    work.sets += w.sets;
                    work.edges += w.edges;
                    if seen.get(&idx) != Some(&o) {
                        report.failed += 1;
                        report
                            .details
                            .push(format!("CHECK FAILED: traced config {idx} differs"));
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    report
                        .details
                        .push(format!("FAILED: traced config {idx}: {e}"));
                }
            }
        }
        let traced_s = secs_since(start);
        let untraced_s: f64 = untraced.iter().map(|s| s.2).sum();
        let mut spans = setup_tracer.spans().to_vec();
        crate::trace::merge(&mut spans, tracer.spans().to_vec());
        report.spans = spans;
        report.busy_from_spans(&[
            "frontend.canonicalize",
            "mapping",
            "core.sets",
            "core.deps",
            "core.cost",
            "core.schedule",
            "core.validate",
            "core.metrics",
        ]);
        let deps_ms = report.metrics["core.deps.busy_ms"];
        report
            .metrics
            .insert("frontend.canonicalize.calls", ZOO.len() as f64);
        report.metrics.insert("core.sets.sets", work.sets as f64);
        report.metrics.insert("core.deps.edges", work.edges as f64);
        report.metrics.insert(
            "core.deps.ns_per_edge",
            deps_ms * 1e6 / work.edges.max(1) as f64,
        );
        report
            .metrics
            .insert("trace.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
        report.detail("traced_ops", ops.len(), "count");
    }
    check(&mut report, &s, &seen)?;
    Ok(report)
}
