//! The mix runner: placement, arrivals, solo baselines, and the shared run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cim_arch::{place_groups_at, Architecture, CoResidency, FabricSpec, PlacementStrategy};
use cim_frontend::{canonicalize, CanonOptions};
use cim_ir::Graph;
use cim_mapping::{layer_costs, min_pes, MappingOptions};
use cim_sim::{run_shared, FabricContention, TenantWorkload};
use clsa_core::{
    determine_dependencies, determine_sets, CostedDeps, Dependencies, EdgeCost, LayerSets,
    SetPolicy,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::error::{FabricError, Result};
use crate::result::{jain_milli, milli_ratio, slowdown_milli, FabricResult, TenantReport};
use crate::tenant::TenantSpec;

/// One tenant of a mix: a named inference stream of a prepared model.
/// Streams of the same model share the Stage-I/II artifacts through the
/// `Arc`s — preparing a model once serves any number of streams.
#[derive(Debug, Clone)]
pub struct TenantInstance {
    /// Unique instance name (`model#stream`).
    pub name: String,
    /// Model name.
    pub model: String,
    /// Stage-I sets of every base layer.
    pub layers: Arc<Vec<LayerSets>>,
    /// Stage-II dependencies over those sets.
    pub deps: Arc<Dependencies>,
    /// Minimum PEs the model's mapping needs.
    pub pe_min: usize,
}

impl TenantInstance {
    /// Prepares one stream (`model#0`) of `graph`: canonicalize, map, run
    /// Stage I and Stage II. Use [`TenantInstance::streams_of`] to fan a
    /// prepared instance out into more streams.
    ///
    /// # Errors
    ///
    /// Propagates canonicalization, mapping, and staging failures.
    pub fn prepare(model: &str, graph: &Graph) -> Result<Self> {
        let g = canonicalize(graph, &CanonOptions::default())?.into_graph();
        let costs = layer_costs(&g, &cim_arch::CrossbarSpec::wan_nature_2022(), &MappingOptions::default())?;
        let pe_min = min_pes(&costs);
        let layers = determine_sets(&g, &costs, &SetPolicy::finest())?;
        let deps = determine_dependencies(&g, &layers)?;
        Ok(TenantInstance {
            name: format!("{model}#0"),
            model: model.to_string(),
            layers: Arc::new(layers),
            deps: Arc::new(deps),
            pe_min,
        })
    }

    /// Fans this prepared instance out into `spec.streams` named streams
    /// sharing its Stage-I/II artifacts.
    pub fn streams_of(&self, spec: &TenantSpec) -> Vec<TenantInstance> {
        spec.instance_names()
            .into_iter()
            .map(|name| TenantInstance {
                name,
                ..self.clone()
            })
            .collect()
    }
}

/// Configuration of one shared-fabric run.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// The shared chip. Its NoC geometry drives placement and routing.
    pub arch: Architecture,
    /// How tenants share the PE array.
    pub policy: CoResidency,
    /// Contention limits (link bandwidth, weight capacity, reload cost).
    pub fabric: FabricSpec,
    /// Base arrival spacing: tenant `k` (in canonical name order) arrives
    /// at `k × stagger` plus a seeded jitter in `[0, stagger)`.
    pub stagger: u64,
    /// Seed for the arrival jitter.
    pub seed: u64,
    /// Worker threads for the solo-baseline runs (≥ 1; the shared run
    /// itself is single-threaded and inherently deterministic).
    pub jobs: usize,
}

impl FabricConfig {
    /// A config with no stagger and one worker on `arch`.
    pub fn new(arch: Architecture) -> Self {
        FabricConfig {
            arch,
            policy: CoResidency::Shared,
            fabric: FabricSpec::uncontended(),
            stagger: 0,
            seed: 0,
            jobs: 1,
        }
    }
}

/// Everything `run_shared` needs for one tenant, in canonical order.
struct PreparedTenant<'a> {
    instance: &'a TenantInstance,
    costed: CostedDeps,
    home_tiles: Vec<cim_arch::TileId>,
    arrival: u64,
}

/// Runs `instances` together on one chip and reports per-tenant slowdown
/// and fairness.
///
/// The outcome is a pure function of the *set* of instances and the
/// config: tenants are processed in sorted-name order, so insertion order
/// does not matter, and the result is byte-identical for any `jobs`.
/// Per-tenant solo baselines run on the same fabric (same placement, same
/// capacity and bandwidth limits) so the reported slowdown isolates
/// cross-tenant contention.
///
/// # Errors
///
/// Returns [`FabricError::BadMix`] on an empty mix or duplicate instance
/// names, and propagates placement and simulation failures.
pub fn run_mix(instances: &[TenantInstance], config: &FabricConfig) -> Result<FabricResult> {
    if instances.is_empty() {
        return Err(FabricError::BadMix {
            detail: "no tenants".into(),
        });
    }
    // Canonical tenant order: sorted by unique instance name.
    let mut order: Vec<&TenantInstance> = instances.iter().collect();
    order.sort_by(|a, b| a.name.cmp(&b.name));
    if order.windows(2).any(|w| w[0].name == w[1].name) {
        return Err(FabricError::BadMix {
            detail: "duplicate instance names".into(),
        });
    }

    let n = order.len();
    let total_pes = config.arch.total_pes();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut prepared = Vec::with_capacity(n);
    for (k, instance) in order.iter().enumerate() {
        let sizes: Vec<usize> = instance.layers.iter().map(|l| l.pes).collect();
        let offset = match config.policy {
            CoResidency::Shared => 0,
            CoResidency::Partitioned => k * total_pes / n,
        };
        let placement = place_groups_at(
            &config.arch,
            &sizes,
            PlacementStrategy::Contiguous,
            offset,
        )?;
        let home_tiles = (0..sizes.len()).map(|g| placement.home_tile(g)).collect();
        let costed = CostedDeps::build(
            &instance.layers,
            &instance.deps,
            &EdgeCost::NocHops {
                arch: config.arch.clone(),
                placement,
            },
        )?;
        // Jitter keeps arrivals inside the tenant's stagger slot, so the
        // arrival order always matches the canonical order.
        let jitter = if config.stagger > 0 {
            rng.random_range(0..config.stagger)
        } else {
            0
        };
        prepared.push(PreparedTenant {
            instance,
            costed,
            home_tiles,
            arrival: k as u64 * config.stagger + jitter,
        });
    }

    let contention = FabricContention {
        noc: Some(*config.arch.noc()),
        spec: config.fabric,
    };

    // Solo baselines: each tenant alone, arrival 0, same fabric limits.
    let solo = parallel_indexed(n, config.jobs, |k| -> Result<u64> {
        let p = &prepared[k];
        let workload = TenantWorkload {
            layers: &p.instance.layers,
            deps: &p.instance.deps,
            costed: &p.costed,
            arrival: 0,
            home_tiles: Some(p.home_tiles.clone()),
        };
        let outcome = run_shared(std::slice::from_ref(&workload), &contention)?;
        Ok(outcome.makespan)
    });

    // The shared run: all tenants, one event heap.
    let workloads: Vec<TenantWorkload<'_>> = prepared
        .iter()
        .map(|p| TenantWorkload {
            layers: &p.instance.layers,
            deps: &p.instance.deps,
            costed: &p.costed,
            arrival: p.arrival,
            home_tiles: Some(p.home_tiles.clone()),
        })
        .collect();
    let outcome = run_shared(&workloads, &contention)?;

    let mut tenants = Vec::with_capacity(n);
    let mut speeds = Vec::with_capacity(n);
    let mut busy_total: u128 = 0;
    for ((p, t), solo_cycles) in prepared.iter().zip(&outcome.tenants).zip(solo) {
        let solo_cycles = solo_cycles?;
        let slowdown = slowdown_milli(t.span_cycles, solo_cycles);
        speeds.push(milli_ratio(solo_cycles as u128, t.span_cycles.max(1) as u128));
        busy_total += t.busy_cycles as u128;
        tenants.push(TenantReport {
            tenant: p.instance.name.clone(),
            model: p.instance.model.clone(),
            arrival: p.arrival,
            span_cycles: t.span_cycles,
            solo_cycles,
            slowdown_milli: slowdown,
            busy_cycles: t.busy_cycles,
            occupancy_stall_cycles: t.occupancy_stall_cycles,
            link_stall_cycles: t.link_stall_cycles,
            reload_cycles: t.reload_cycles,
            evictions: t.evictions,
            reloads: t.reloads,
        });
    }

    let tiles = config.arch.num_tiles() as u128;
    Ok(FabricResult {
        makespan_cycles: outcome.makespan,
        worst_slowdown_milli: tenants.iter().map(|t| t.slowdown_milli).max().unwrap_or(1000),
        jain_fairness_milli: jain_milli(&speeds),
        utilization_milli: milli_ratio(busy_total, tiles * outcome.makespan as u128),
        link_stall_cycles: tenants.iter().map(|t| t.link_stall_cycles).sum(),
        evictions: tenants.iter().map(|t| t.evictions).sum(),
        reloads: tenants.iter().map(|t| t.reloads).sum(),
        tenants,
    })
}

/// Builds an architecture big enough for every instance: the paper's case
/// study sized to the largest `pe_min` plus `extra_pes` headroom.
///
/// # Errors
///
/// [`ArchError::InvalidSpec`](cim_arch::ArchError::InvalidSpec) when
/// `pe_min + extra_pes` overflows; otherwise propagates
/// architecture-builder failures.
pub fn arch_for_mix(instances: &[TenantInstance], extra_pes: usize) -> Result<Architecture> {
    let pe_min = instances.iter().map(|i| i.pe_min).max().unwrap_or(1);
    let pes = pe_min
        .checked_add(extra_pes)
        .ok_or_else(|| cim_arch::ArchError::InvalidSpec {
            what: "architecture",
            detail: format!("PE_min {pe_min} + {extra_pes} extra PEs overflows"),
        })?;
    Ok(Architecture::paper_case_study(pes)?)
}

/// Index-parallel map with deterministic output order: slot `i` always
/// holds `f(i)`. Worker count is `min(jobs, n)`; `jobs == 1` stays on the
/// calling thread.
fn parallel_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.max(1).min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect() // cim-lint: allow(panic-unwrap) worker panics must propagate
    });
    // Reassemble in index order regardless of which worker ran what.
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for chunk in &mut per_worker {
        for (index, value) in chunk.drain(..) {
            slots[index] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once")) // cim-lint: allow(panic-unwrap) indices are claimed exactly once
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_instance(name: &str) -> TenantInstance {
        let mut t = TenantInstance::prepare("fig5", &cim_models::fig5_example()).unwrap();
        t.name = name.to_string();
        t
    }

    fn base_config(instances: &[TenantInstance]) -> FabricConfig {
        FabricConfig::new(arch_for_mix(instances, 0).unwrap())
    }

    #[test]
    fn single_tenant_has_no_slowdown() {
        let t = fig5_instance("fig5#0");
        let config = base_config(std::slice::from_ref(&t));
        let result = run_mix(&[t], &config).unwrap();
        assert_eq!(result.tenants.len(), 1);
        assert_eq!(result.tenants[0].slowdown_milli, 1000);
        assert_eq!(result.worst_slowdown_milli, 1000);
        assert_eq!(result.jain_fairness_milli, 1000);
        assert!(result.utilization_milli > 0);
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let a = fig5_instance("fig5#0");
        let b = fig5_instance("fig5#1");
        let config = base_config(&[a.clone(), b.clone()]);
        let fwd = run_mix(&[a.clone(), b.clone()], &config).unwrap();
        let rev = run_mix(&[b, a], &config).unwrap();
        assert_eq!(
            serde_json::to_string(&fwd).unwrap(),
            serde_json::to_string(&rev).unwrap()
        );
    }

    #[test]
    fn jobs_do_not_change_the_result() {
        let a = fig5_instance("fig5#0");
        let b = fig5_instance("fig5#1");
        let mut config = base_config(&[a.clone(), b.clone()]);
        config.stagger = 13;
        config.seed = 42;
        let one = run_mix(&[a.clone(), b.clone()], &config).unwrap();
        config.jobs = 4;
        let four = run_mix(&[a, b], &config).unwrap();
        assert_eq!(one, four);
    }

    #[test]
    fn contended_streams_slow_down() {
        // Two identical streams under the Shared policy land on the same
        // tiles and must serialize there.
        let a = fig5_instance("fig5#0");
        let b = fig5_instance("fig5#1");
        let config = base_config(&[a.clone(), b.clone()]);
        let result = run_mix(&[a, b], &config).unwrap();
        assert!(
            result.worst_slowdown_milli > 1000,
            "shared tiles must contend: {result:?}"
        );
        let stalls: u64 = result.tenants.iter().map(|t| t.occupancy_stall_cycles).sum();
        assert!(stalls > 0, "contention must register as occupancy stalls");
    }

    #[test]
    fn partitioning_reduces_contention() {
        let a = fig5_instance("fig5#0");
        let b = fig5_instance("fig5#1");
        // Two-PE tiles so the rotated partitions land on distinct tiles
        // (paper_case_study tiles are 8 PEs wide — everything would share
        // tile 0 regardless of policy).
        let arch = Architecture::builder()
            .tile(cim_arch::TileSpec {
                pes_per_tile: a.pe_min,
                ..cim_arch::TileSpec::isaac_like()
            })
            .pes(2 * a.pe_min)
            .build()
            .unwrap();
        let mut config = FabricConfig::new(arch);
        let shared = run_mix(&[a.clone(), b.clone()], &config).unwrap();
        config.policy = CoResidency::Partitioned;
        let split = run_mix(&[a, b], &config).unwrap();
        let stall = |r: &FabricResult| -> u64 {
            r.tenants.iter().map(|t| t.occupancy_stall_cycles).sum()
        };
        assert!(
            stall(&split) < stall(&shared),
            "partitioned placement must shed occupancy stalls: {} vs {}",
            stall(&split),
            stall(&shared)
        );
        assert!(split.worst_slowdown_milli <= shared.worst_slowdown_milli);
    }

    #[test]
    fn capacity_pressure_reports_evictions() {
        let a = fig5_instance("fig5#0");
        let b = fig5_instance("fig5#1");
        let mut config = base_config(&[a.clone(), b.clone()]);
        // Room for roughly one tenant's weights: the pair thrashes.
        let per_tenant: usize = a.layers.iter().map(|l| l.pes).sum();
        config.fabric.capacity_pes = per_tenant + 1;
        config.fabric.reload_cycles_per_pe = 10;
        let result = run_mix(&[a, b], &config).unwrap();
        assert!(result.evictions > 0, "undersized capacity must evict");
        assert!(result.reloads > 0);
        let reload_cycles: u64 = result.tenants.iter().map(|t| t.reload_cycles).sum();
        assert!(reload_cycles > 0);
    }

    #[test]
    fn empty_and_duplicate_mixes_rejected() {
        assert!(matches!(
            run_mix(&[], &FabricConfig::new(Architecture::paper_case_study(8).unwrap())),
            Err(FabricError::BadMix { .. })
        ));
        let a = fig5_instance("fig5#0");
        let config = base_config(std::slice::from_ref(&a));
        assert!(matches!(
            run_mix(&[a.clone(), a], &config),
            Err(FabricError::BadMix { .. })
        ));
    }

    #[test]
    fn conservation_law_holds() {
        let a = fig5_instance("fig5#0");
        let b = fig5_instance("fig5#1");
        let config = base_config(&[a.clone(), b.clone()]);
        let result = run_mix(&[a, b], &config).unwrap();
        let busy: u128 = result.tenants.iter().map(|t| t.busy_cycles as u128).sum();
        let tiles = config.arch.num_tiles() as u128;
        assert!(busy <= tiles * result.makespan_cycles as u128);
        assert!(result.utilization_milli <= 1000);
    }

    #[test]
    fn parallel_indexed_matches_serial() {
        let serial = parallel_indexed(17, 1, |i| i * i);
        let parallel = parallel_indexed(17, 4, |i| i * i);
        assert_eq!(serial, parallel);
        assert!(parallel_indexed(0, 4, |i| i).is_empty());
    }
}
