//! Multi-tenant fabric simulation — N models sharing one CIM chip with
//! contention, fairness metrics, and tenant-mix tuning.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cim-bench --bin fabric-sim -- \
//!     [--tenants model:streams,model:streams] [--stagger N] [--seed S] \
//!     [--policy shared|partitioned] [--bandwidth B] [--capacity-pes C] \
//!     [--reload R] [--extra-pes E] [--jobs N] [--json <path>] [--mix-sweep]
//! ```
//!
//! Default mode runs the given mix once and prints per-tenant slowdown
//! and the fairness aggregates. `--mix-sweep` enumerates the tenant-mix
//! knob space ([`MixSpace::tiny`]) over the lane pool and reports the
//! Pareto front over (worst-tenant slowdown ↓, aggregate utilization ↑,
//! evictions ↓).
//!
//! Every mode is deterministic: byte-identical exports for any `--jobs`
//! value and any tenant insertion order at a fixed `--seed`
//! (`tests/fabric_differential.rs` pins both, and a golden pins fig5
//! scaled from one to four streams).
//!
//! Bad input — an unknown flag or model, a malformed `--tenants` list, an
//! unknown `--policy`, a non-numeric count, a `--stagger` or `--reload`
//! cycle count above `u32::MAX`, an `--extra-pes` that overflows the PE
//! count — prints one `error: …` line and the usage line, and exits with
//! status 2.

use cim_bench::cli::{self, Args, Flag, JOBS, JSON, SEED};
use cim_bench::runner::parallel_map;
use cim_bench::{render_table, write_json};
use cim_fabric::{
    arch_for_mix, parse_tenant_list, run_mix, CoResidency, FabricConfig, FabricResult, FabricSpec,
    TenantInstance, TenantSpec,
};
use cim_tune::{mix_measurement, MixSpace, ParetoArchive};
use serde::Serialize;

/// Prepares the instances of a tenant list, fanning prepared models out
/// into their streams. Tenant names resolve through
/// [`cim_models::graph_by_name`] (exact names; an unknown one is an error
/// listing the accepted spellings).
fn instances_of(specs: &[TenantSpec]) -> Result<Vec<TenantInstance>, String> {
    let mut instances = Vec::new();
    for spec in specs {
        let graph = cim_models::graph_by_name(&spec.model)?;
        let base = TenantInstance::prepare(&spec.model, &graph)
            .map_err(|e| format!("preparing {}: {e}", spec.model))?;
        instances.extend(base.streams_of(spec));
    }
    Ok(instances)
}

fn print_result(result: &FabricResult) {
    let rows: Vec<Vec<String>> = result
        .tenants
        .iter()
        .map(|t| {
            vec![
                t.tenant.clone(),
                t.arrival.to_string(),
                t.span_cycles.to_string(),
                t.solo_cycles.to_string(),
                format!("{:.3}", t.slowdown()),
                t.occupancy_stall_cycles.to_string(),
                t.link_stall_cycles.to_string(),
                t.evictions.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "tenant",
                "arrival",
                "span (cycles)",
                "solo (cycles)",
                "slowdown",
                "occupancy stalls",
                "link stalls",
                "evictions"
            ],
            &rows
        )
    );
    println!(
        "makespan {} cycles | worst slowdown {:.3} | Jain fairness {:.3} | utilization {:.1}% | {} reloads",
        result.makespan_cycles,
        result.worst_slowdown(),
        result.jain_fairness(),
        result.utilization() * 100.0,
        result.reloads,
    );
}

/// One evaluated point of the `--mix-sweep` export.
#[derive(Serialize)]
struct SweepRow {
    index: usize,
    label: String,
    worst_slowdown_milli: u64,
    jain_fairness_milli: u64,
    utilization_milli: u64,
    evictions: u64,
    on_front: bool,
}

fn mix_sweep_mode(args: &Args, instances: &[TenantInstance], config: &FabricConfig) {
    let space = MixSpace::tiny();
    space.validate().unwrap_or_else(|e| panic!("mix space: {e}"));
    let points: Vec<usize> = (0..space.len()).collect();
    // The lane pool chews mix points concurrently; each point's inner
    // solo baselines stay single-threaded (jobs = 1) so the worker
    // count is bounded by --jobs.
    let results = parallel_map(&points, args.runner.jobs, |_, &i| {
        let point = space.point(i);
        let mut cfg = config.clone();
        cfg.policy = point.policy;
        cfg.fabric = point.fabric_spec();
        cfg.jobs = 1;
        let result = run_mix(instances, &cfg).unwrap_or_else(|e| panic!("mix point {i}: {e}"));
        (point, result)
    });

    let mut archive = ParetoArchive::new();
    for (point, result) in &results {
        archive.insert(
            point.index,
            mix_measurement(
                result.worst_slowdown_milli,
                result.utilization_milli,
                result.evictions,
            ),
        );
    }
    let front: Vec<usize> = archive.sorted().iter().map(|e| e.candidate).collect();
    let rows: Vec<SweepRow> = results
        .iter()
        .map(|(point, result)| SweepRow {
            index: point.index,
            label: point.label(),
            worst_slowdown_milli: result.worst_slowdown_milli,
            jain_fairness_milli: result.jain_fairness_milli,
            utilization_milli: result.utilization_milli,
            evictions: result.evictions,
            on_front: front.contains(&point.index),
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.3}", r.worst_slowdown_milli as f64 / 1000.0),
                format!("{:.3}", r.jain_fairness_milli as f64 / 1000.0),
                format!("{:.1}%", r.utilization_milli as f64 / 10.0),
                r.evictions.to_string(),
                if r.on_front { "*".into() } else { String::new() },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["mix point", "worst slowdown", "Jain fairness", "utilization", "evictions", "front"],
            &table
        )
    );
    println!("{} of {} mix points on the Pareto front", front.len(), rows.len());
    if let Some(path) = &args.json {
        write_json(path, &rows).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}

fn main() {
    let args = cli::parse(&[&[
        Flag::value("--tenants", "model:streams,..."),
        Flag::value("--stagger", "N"),
        Flag::value("--policy", "shared|partitioned"),
        Flag::value("--bandwidth", "B"),
        Flag::value("--capacity-pes", "C"),
        Flag::value("--reload", "R"),
        Flag::value("--extra-pes", "E"),
        Flag::switch("--mix-sweep"),
        JOBS,
        JSON,
        SEED,
    ]]);
    if let Err(e) = run(&args) {
        args.fail(e);
    }
}

/// Runs the selected mode; `Err` is an input error for `main` to report.
fn run(args: &Args) -> Result<(), String> {
    let tenants = args.value("--tenants").unwrap_or("fig5:2");
    let specs = parse_tenant_list(tenants).map_err(|e| format!("--tenants {tenants}: {e}"))?;
    let policy = match args.value("--policy") {
        None => CoResidency::Shared,
        Some(v) => CoResidency::parse(v)
            .ok_or_else(|| format!("--policy takes shared|partitioned, got {v:?}"))?,
    };
    let fabric = FabricSpec {
        link_bandwidth_bytes_per_cycle: args.get("--bandwidth").unwrap_or(0),
        capacity_pes: args.get("--capacity-pes").unwrap_or(0),
        reload_cycles_per_pe: args.get::<u32>("--reload").map_or(50, u64::from),
    };
    let extra_pes = args.get("--extra-pes").unwrap_or(0);
    let stagger = args.get::<u32>("--stagger").map_or(0, u64::from);
    let instances = instances_of(&specs)?;
    let arch = arch_for_mix(&instances, extra_pes).map_err(|e| format!("architecture: {e}"))?;
    let seed = args.seed_or_default();
    println!("seed: {seed}");
    let config = FabricConfig {
        arch,
        policy,
        fabric,
        stagger,
        seed,
        jobs: args.runner.jobs,
    };

    if args.has("--mix-sweep") {
        mix_sweep_mode(args, &instances, &config);
        return Ok(());
    }

    let result = run_mix(&instances, &config).map_err(|e| format!("mix runs: {e}"))?;
    print_result(&result);
    if let Some(path) = &args.json {
        write_json(path, &result).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
    Ok(())
}
