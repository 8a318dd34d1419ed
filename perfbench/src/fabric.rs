//! `fabric-contended`: seeded 8- and 16-stream mixes of zoo models on one
//! chip with finite link bandwidth and a weight capacity below each mix's
//! working set, under both co-residency policies.
//!
//! This is the only workload on which `cim_sim::shared` link reservation
//! and LRU residency do work.

use std::collections::BTreeMap;

use cim_arch::{place_groups_at, PlacementStrategy};
use cim_fabric::{
    arch_for_mix, run_mix, CoResidency, FabricConfig, FabricResult, FabricSpec, TenantInstance,
};
use cim_frontend::{canonicalize, CanonOptions};
use cim_sim::Simulator;
use clsa_core::{CostedDeps, EdgeCost};

use crate::gen::{fabric_pool, passes, MixSpec, Rng, ZOO};
use crate::pace::Pace;
use crate::trace::Tracer;
use crate::{
    best_by_key, err, latency_metrics, now, pace_details, secs_since, throughput_metrics, Opts,
    Report, Res, SetupReps,
};

/// Link bandwidth of every mix (bytes per cycle per directed link).
const LINK_BANDWIDTH: u64 = 4;
/// Resident weight capacity as a share (per mille) of the mix's working set.
const CAPACITY_PER_MILLE: usize = 80;
/// Cycles to rewrite one PE's weights after an eviction.
const RELOAD_CYCLES_PER_PE: u64 = 50;

/// One ready-to-run mix: its streams and configuration.
struct Mix {
    instances: Vec<TenantInstance>,
    config: FabricConfig,
}

fn mix_of(spec: &MixSpec, prepared: &[TenantInstance]) -> Res<Mix> {
    let instances: Vec<TenantInstance> = spec
        .streams
        .iter()
        .enumerate()
        .map(|(j, &m)| TenantInstance {
            name: format!("{}#{j}", ZOO[m]),
            ..prepared[m].clone()
        })
        .collect();
    let working_set: usize = instances.iter().map(|i| i.pe_min).sum();
    let config = FabricConfig {
        arch: arch_for_mix(&instances, 0).map_err(err)?,
        policy: if spec.partitioned {
            CoResidency::Partitioned
        } else {
            CoResidency::Shared
        },
        fabric: FabricSpec {
            link_bandwidth_bytes_per_cycle: LINK_BANDWIDTH,
            capacity_pes: working_set * CAPACITY_PER_MILLE / 1000,
            reload_cycles_per_pe: RELOAD_CYCLES_PER_PE,
        },
        stagger: spec.stagger,
        seed: spec.seed,
        jobs: 1,
    };
    Ok(Mix { instances, config })
}

fn prepare_zoo(tracer: &mut Tracer) -> Res<Vec<TenantInstance>> {
    let models = cim_models::all_models();
    ZOO.iter()
        .enumerate()
        .map(|(i, name)| {
            let raw = models
                .iter()
                .find(|m| m.name == *name)
                .ok_or("zoo model missing")?
                .build();
            let canon = tracer.span("frontend.canonicalize", i as u64, |_| {
                canonicalize(&raw, &CanonOptions::default())
                    .map(|c| c.into_graph())
                    .map_err(err)
            })?;
            tracer.span("fabric.prepare", i as u64, |_| {
                TenantInstance::prepare(name, &canon).map_err(err)
            })
        })
        .collect()
}

/// Check pass: every mix is byte-identical at jobs 1 and 2 and shows
/// contention; a one-stream mix of each model matches the single-tenant
/// simulator.
fn check(
    report: &mut Report,
    mixes: &[Mix],
    seen: &BTreeMap<usize, String>,
    prepared: &[TenantInstance],
) -> Res<()> {
    for (&idx, timed) in seen {
        let mix = &mixes[idx];
        let config = FabricConfig {
            jobs: 2,
            ..mix.config.clone()
        };
        let two =
            serde_json::to_string(&run_mix(&mix.instances, &config).map_err(err)?).map_err(err)?;
        report.check(&two == timed, || {
            format!("mix {idx} differs between jobs 1 and 2")
        });
        let r: FabricResult = serde_json::from_str(timed).map_err(err)?;
        report.check(r.link_stall_cycles > 0 && r.reloads > 0, || {
            format!(
                "mix {idx} shows no contention ({} link stall cycles, {} reloads)",
                r.link_stall_cycles, r.reloads
            )
        });
    }
    for instance in prepared {
        let solo = std::slice::from_ref(instance);
        let arch = arch_for_mix(solo, 0).map_err(err)?;
        let result = run_mix(solo, &FabricConfig::new(arch.clone())).map_err(err)?;
        let sizes: Vec<usize> = instance.layers.iter().map(|l| l.pes).collect();
        let placement =
            place_groups_at(&arch, &sizes, PlacementStrategy::Contiguous, 0).map_err(err)?;
        let costed = CostedDeps::build(
            &instance.layers,
            &instance.deps,
            &EdgeCost::NocHops { arch, placement },
        )
        .map_err(err)?;
        let engine = Simulator::new(&instance.layers, &instance.deps)
            .run_costed(&costed)
            .map_err(err)?;
        report.check(result.makespan_cycles == engine.schedule.makespan, || {
            format!(
                "{}: one-stream mix {} vs simulator {}",
                instance.model, result.makespan_cycles, engine.schedule.makespan
            )
        });
    }
    Ok(())
}

/// Sets one simulated run of `mix` processes: every stream alone (the
/// solo baselines) and then all together.
fn sets_of(mix: &Mix) -> u64 {
    2 * mix
        .instances
        .iter()
        .map(|i| i.layers.iter().map(|l| l.sets.len() as u64).sum::<u64>())
        .sum::<u64>()
}

/// Runs mixes from `order` until `seconds` pass; returns `(start,
/// seconds)` per mix. `measured` holds the set-up repetitions and pace
/// readings of the end-to-end run, taken between mixes.
fn timed_loop(
    report: &mut Report,
    mixes: &[Mix],
    order: &[usize],
    seconds: f64,
    seen: &mut BTreeMap<usize, String>,
    mut tracer: Option<&mut Tracer>,
    mut measured: Option<(&mut SetupReps, &mut Pace)>,
) -> Res<Vec<(std::time::Duration, f64)>> {
    let mut samples = Vec::new();
    let start = now();
    for (req, &idx) in order.iter().enumerate() {
        if secs_since(start) >= seconds {
            break;
        }
        if let Some((reps, pace)) = measured.as_mut() {
            reps.tick()?;
            pace.tick();
        }
        let mix = &mixes[idx];
        let t0 = now();
        let out = match tracer.as_deref_mut() {
            Some(t) => t.span("fabric.run_mix", req as u64, |_| {
                run_mix(&mix.instances, &mix.config)
            }),
            None => run_mix(&mix.instances, &mix.config),
        };
        samples.push((t0, secs_since(t0)));
        report.attempted += 1;
        match out {
            Ok(r) => {
                let json = serde_json::to_string(&r).map_err(err)?;
                if *seen.entry(idx).or_insert_with(|| json.clone()) != json {
                    report.failed += 1;
                    report
                        .details
                        .push(format!("CHECK FAILED: mix {idx} is not deterministic"));
                }
            }
            Err(e) => {
                report.failed += 1;
                report.details.push(format!("FAILED: mix {idx}: {e}"));
            }
        }
    }
    Ok(samples)
}

pub fn run(opts: &Opts) -> Res<Report> {
    let mut report = Report::default();
    let mut setup_tracer = Tracer::default();
    let build = |tracer: &mut Tracer| -> Res<_> {
        let prepared = prepare_zoo(tracer)?;
        let mut rng = Rng::new(opts.seed, 4);
        let specs = fabric_pool(&mut rng);
        let mixes = specs
            .iter()
            .map(|s| mix_of(s, &prepared))
            .collect::<Res<Vec<Mix>>>()?;
        let order = passes(&mut rng, mixes.len(), 100_000);
        Ok((prepared, mixes, order))
    };
    let ((prepared, mixes, order), mut reps) = SetupReps::first(
        || build(&mut setup_tracer),
        || build(&mut Tracer::default()).map(drop),
        opts.seconds,
    )?;
    let mut seen = BTreeMap::new();

    if !opts.trace {
        let mut pace = Pace::new();
        let samples = timed_loop(
            &mut report,
            &mixes,
            &order,
            opts.seconds,
            &mut seen,
            None,
            Some((&mut reps, &mut pace)),
        )?;
        let total: f64 = samples.iter().map(|s| s.1).sum();
        let best = best_by_key(
            order
                .iter()
                .zip(&samples)
                .map(|(&idx, &(at, secs))| (idx, at, secs)),
            Some(&pace),
        );
        let done = reps.finish(&pace)?;
        report.metrics.insert("setup_s", done.setup_s);
        throughput_metrics(
            &mut report,
            "fabric_mixes_per_s",
            (best.len() as f64, best.iter().sum()),
            (samples.len() as f64, total),
        );
        report.detail("fabric_mix_runs", samples.len(), "count");
        latency_metrics(&mut report, "fabric_mix", &best)?;
        pace_details(&mut report, &pace);
        report.metrics.insert("peak_rss_mb", done.peak_rss_mb);
    } else {
        let untraced = timed_loop(
            &mut report,
            &mixes,
            &order,
            opts.seconds / 2.0,
            &mut seen,
            None,
            None,
        )?;
        let ops = &order[..untraced.len()];
        let mut tracer = Tracer::default();
        let traced = timed_loop(
            &mut report,
            &mixes,
            ops,
            f64::INFINITY,
            &mut seen,
            Some(&mut tracer),
            None,
        )?;
        let mut spans = setup_tracer.spans().to_vec();
        crate::trace::merge(&mut spans, tracer.spans().to_vec());
        report.spans = spans;
        report.busy_from_spans(&["frontend.canonicalize", "fabric.prepare", "fabric.run_mix"]);
        let sets: u64 = ops.iter().map(|&i| sets_of(&mixes[i])).sum();
        // Contention counters over one pass of the pool: a pure function of
        // the seed, so they repeat exactly between runs.
        let mut counters = [0u64; 4];
        for json in seen.values() {
            let r: FabricResult = serde_json::from_str(json).map_err(err)?;
            counters[0] += r.link_stall_cycles;
            counters[1] += r
                .tenants
                .iter()
                .map(|t| t.occupancy_stall_cycles)
                .sum::<u64>();
            counters[2] += r.reloads;
            counters[3] += r.evictions;
        }
        let run_mix_ms = report.metrics["fabric.run_mix.busy_ms"];
        let m = &mut report.metrics;
        m.insert("frontend.canonicalize.calls", ZOO.len() as f64);
        m.insert("sim.shared.sets_simulated", sets as f64);
        m.insert(
            "sim.shared.ns_per_set",
            run_mix_ms * 1e6 / sets.max(1) as f64,
        );
        m.insert("sim.shared.link_stall_cycles", counters[0] as f64);
        m.insert("sim.shared.occupancy_stall_cycles", counters[1] as f64);
        m.insert("sim.shared.reloads", counters[2] as f64);
        m.insert("sim.shared.evictions", counters[3] as f64);
        m.insert(
            "trace.overhead_pct",
            (traced.iter().map(|s| s.1).sum::<f64>() / untraced.iter().map(|s| s.1).sum::<f64>()
                - 1.0)
                * 100.0,
        );
        report.detail("distinct_mixes", seen.len(), "count");
    }
    check(&mut report, &mixes, &seen, &prepared)?;
    Ok(report)
}
