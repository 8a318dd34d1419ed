//! Criterion benchmarks over the scheduling core on the fig6 model set
//! (the paper's TinyYOLOv4 case study): one number per layer, for
//! locating a bottleneck.
//!
//! Run with `cargo bench -p cim-bench --bench schedule_core`
//! (`CIM_BENCH_SAMPLES=N` sets the timed samples per bench, default 10);
//! each bench prints its median with the p10 … p90 range. CI runs the
//! same command in smoke mode (`CIM_BENCH_SAMPLES=3`), checks that every
//! tracked bench prints a timing line, and re-runs the golden suite
//! afterwards. Wall-clock claims go through the repository benchmark
//! (`BENCHMARK.json`, run from `perfbench/`), which times the same
//! layers end to end.
//!
//! Covered surfaces:
//!
//! * `cold_pipeline` — a full `clsa_core::run` (mapping + Stages I–IV +
//!   validation) from scratch;
//! * `stage2_dependencies` — the CSR `determine_dependencies` (scratch
//!   buffer, flat arena, row-band lookup) on the case-study mapping,
//!   beside the retained naive reference (per-set `HashSet`, full scan of
//!   every producer layer) — the ratio of this pair tracks Stage II;
//! * `batched_noc_gpeu_b32` — `batched_cross_layer_schedule` under the
//!   `NocAndGpeu` cost model at batch 32, both the optimized (costs
//!   precomputed once per batch) and the retained naive reference
//!   implementation (`clsa_core::reference`, cost model re-evaluated per
//!   edge per instance) — the ratio of this pair tracks the cost-table
//!   precomputation;
//! * `warm_sweep` — the fig6c sweep replayed from a warm persistent
//!   store (the cross-run caching hot path);
//! * `tuner_throughput` — design-space-exploration speed: a 32-candidate
//!   grid prefix of the `case-study` tuning space on the lane-pool
//!   evaluator, timed per exploration (the rate the autotuner's budget
//!   is spent at). Two points: a cold evaluator
//!   per exploration (`grid32_case_study`) and a long-lived warm one
//!   (`grid32_case_study_warm`) whose schedule cache survives across
//!   explorations — their ratio is the incremental-reuse speedup;
//! * `fabric_shared` — the shared-fabric event core: one `run_mix` of a
//!   fixed 8-stream mix (every zoo model once plus a second TinyYOLOv4
//!   stream, the shape of the `fabric-contended` benchmark's 8-stream
//!   mixes) with 4-byte/cycle links and a weight capacity of 8 % of the
//!   working set, so link reservation, tile windows and LRU residency all
//!   do work. Throughput is in simulated sets (the solo baselines plus
//!   the shared run).

use cim_arch::{place_groups, Architecture, PlacementStrategy, TileSpec};
use cim_bench::artifacts::{case_study_graph, fig6c_results};
use cim_bench::runner::{ResultStore, RunnerOptions};
use clsa_core::{
    batched_cross_layer_schedule, prepare, reference, run, Dependencies, EdgeCost, LayerSets,
    RunConfig,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// TinyYOLOv4's `PE_min` on the paper's 256×256 crossbars (Table II).
const PE_MIN: usize = 117;

fn xinf_config() -> RunConfig {
    let arch = Architecture::paper_case_study(PE_MIN).expect("case-study arch");
    RunConfig::baseline(arch).with_cross_layer()
}

/// The Stage-I/II outputs of the case-study mapping, shared by the
/// scheduling benches.
fn case_study_stages() -> (Vec<LayerSets>, Dependencies) {
    let g = case_study_graph();
    let prepared = prepare(&g, &xinf_config()).expect("prepare");
    (
        prepared.layers.as_ref().clone(),
        prepared.deps.as_ref().clone(),
    )
}

/// A NocAndGpeu cost model over the case-study group sizes: 16-PE tiles,
/// 2-cycle hops, a 256-op/cycle GPEU — enough structure that edge costs
/// are non-trivial without dwarfing the compute.
fn noc_gpeu_cost(layers: &[LayerSets]) -> EdgeCost {
    let sizes: Vec<usize> = layers.iter().map(|l| l.pes).collect();
    let used: usize = sizes.iter().sum();
    let arch = Architecture::builder()
        .tile(TileSpec {
            pes_per_tile: 16,
            gpeu_ops_per_cycle: 256,
            ..TileSpec::isaac_like()
        })
        .noc_hop_latency(2)
        .pes(used)
        .build()
        .expect("bench arch");
    let placement = place_groups(&arch, &sizes, PlacementStrategy::Contiguous).expect("placement");
    EdgeCost::NocAndGpeu { arch, placement }
}

fn bench_cold_pipeline(c: &mut Criterion) {
    let g = case_study_graph();
    let cfg = xinf_config();
    let mut group = c.benchmark_group("schedule_core");
    group.bench_with_input(
        BenchmarkId::new("cold_pipeline", "TinyYOLOv4_xinf"),
        &g,
        |b, g| b.iter(|| run(g, &cfg).expect("pipeline")),
    );
    group.finish();
}

fn bench_stage2(c: &mut Criterion) {
    let g = case_study_graph();
    let prepared = prepare(&g, &xinf_config()).expect("prepare");
    let mut group = c.benchmark_group("schedule_core");
    group.throughput(Throughput::Elements(prepared.deps.num_edges() as u64));
    group.bench_with_input(
        BenchmarkId::new("stage2_dependencies", "TinyYOLOv4"),
        &prepared,
        |b, p| {
            b.iter(|| {
                clsa_core::determine_dependencies(&p.mapped_graph, &p.layers).expect("stage II")
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("stage2_dependencies", "naive_reference"),
        &prepared,
        |b, p| {
            b.iter(|| {
                reference::determine_dependencies_naive(&p.mapped_graph, &p.layers)
                    .expect("naive stage II")
            })
        },
    );
    group.finish();
}

fn bench_batched(c: &mut Criterion) {
    let (layers, deps) = case_study_stages();
    let cost = noc_gpeu_cost(&layers);
    let mut group = c.benchmark_group("schedule_core");
    group.throughput(Throughput::Elements(32 * deps.num_edges() as u64));
    group.bench_with_input(
        BenchmarkId::new("batched_noc_gpeu_b32", "csr_precomputed"),
        &(&layers, &deps),
        |b, (layers, deps)| {
            b.iter(|| batched_cross_layer_schedule(layers, deps, &cost, 32).expect("batched"))
        },
    );
    group.bench_with_input(
        BenchmarkId::new("batched_noc_gpeu_b32", "naive_reference"),
        &(&layers, &deps),
        |b, (layers, deps)| {
            b.iter(|| {
                reference::batched_cross_layer_schedule_naive(layers, deps, &cost, 32)
                    .expect("naive batched")
            })
        },
    );
    group.finish();
}

fn bench_warm_sweep(c: &mut Criterion) {
    let g = case_study_graph();
    let dir = std::env::temp_dir().join(format!("cim-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        // Populate the store once; the bench then measures warm replays.
        let store = ResultStore::open(&dir).expect("store opens");
        fig6c_results(&g, &RunnerOptions::sequential(), Some(&store)).expect("cold sweep");
    }
    let mut group = c.benchmark_group("schedule_core");
    group.bench_with_input(BenchmarkId::new("warm_sweep", "fig6c"), &g, |b, g| {
        b.iter(|| {
            let store = ResultStore::open(&dir).expect("store opens");
            fig6c_results(g, &RunnerOptions::sequential(), Some(&store)).expect("warm sweep")
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_tuner_throughput(c: &mut Criterion) {
    use cim_bench::tune::{autotune, TuneEvaluator};
    use cim_tune::{tune, Budget, DesignSpace, GridSearch, TuneOptions};

    const CANDIDATES: usize = 32;
    let g = case_study_graph();
    let space = DesignSpace::case_study();
    let mut group = c.benchmark_group("schedule_core");
    group.throughput(Throughput::Elements(CANDIDATES as u64));
    group.bench_with_input(
        BenchmarkId::new("tuner_throughput", "grid32_case_study"),
        &g,
        |b, g| {
            b.iter(|| {
                // A fresh strategy and evaluator per iteration: the
                // measured path is one cold 32-candidate exploration
                // (in-memory stage sharing included, no persistent store).
                let mut grid = GridSearch::new();
                autotune(
                    g,
                    &space,
                    &mut grid,
                    &Budget::candidates(CANDIDATES),
                    &TuneOptions::default(),
                    &RunnerOptions::sequential(),
                    None,
                )
                .expect("tuning runs")
            })
        },
    );
    // The incremental counterpart: a *long-lived* evaluator whose
    // schedule cache survives across explorations (the ask/tell tuner's
    // steady state after the dirty-key work — only mutated axes
    // recompute, everything else is served from the warm cache). The
    // cold/warm ratio of the two `tuner_throughput` points is the
    // incremental-reuse speedup.
    let warm = TuneEvaluator::new(&g, &RunnerOptions::sequential(), None);
    tune(
        &space,
        &mut GridSearch::new(),
        &warm,
        &Budget::candidates(CANDIDATES),
        &TuneOptions::default(),
    )
    .expect("warm-up exploration");
    group.bench_with_input(
        BenchmarkId::new("tuner_throughput", "grid32_case_study_warm"),
        &g,
        |b, _| {
            b.iter(|| {
                let mut grid = GridSearch::new();
                tune(
                    &space,
                    &mut grid,
                    &warm,
                    &Budget::candidates(CANDIDATES),
                    &TuneOptions::default(),
                )
                .expect("warm tuning runs")
            })
        },
    );
    group.finish();
}

fn bench_fabric_shared(c: &mut Criterion) {
    use cim_fabric::{
        arch_for_mix, run_mix, CoResidency, FabricConfig, FabricSpec, TenantInstance, TenantSpec,
    };

    let mut instances = Vec::new();
    for info in cim_models::all_models() {
        let base = TenantInstance::prepare(info.name, &info.build()).expect("zoo model prepares");
        instances.extend(base.streams_of(&TenantSpec {
            model: info.name.into(),
            streams: if info.name == "TinyYOLOv4" { 2 } else { 1 },
        }));
    }
    let working_set: usize = instances.iter().map(|i| i.pe_min).sum();
    let config = FabricConfig {
        policy: CoResidency::Shared,
        fabric: FabricSpec {
            link_bandwidth_bytes_per_cycle: 4,
            capacity_pes: working_set * 8 / 100,
            reload_cycles_per_pe: 50,
        },
        stagger: 500,
        seed: 7,
        ..FabricConfig::new(arch_for_mix(&instances, 0).expect("arch fits"))
    };
    let sets: usize = instances
        .iter()
        .flat_map(|i| i.layers.iter())
        .map(|l| l.sets.len())
        .sum();
    // The mix must keep every contention point busy, or the bench would
    // time an idle fabric.
    let probe = run_mix(&instances, &config).expect("mix runs");
    let occupancy: u64 = probe.tenants.iter().map(|t| t.occupancy_stall_cycles).sum();
    assert!(probe.link_stall_cycles > 0 && occupancy > 0 && probe.reloads > 0);
    let mut group = c.benchmark_group("schedule_core");
    group.throughput(Throughput::Elements(2 * sets as u64));
    group.bench_with_input(
        BenchmarkId::new("fabric_shared", "contended_mix"),
        &instances,
        |b, instances| b.iter(|| run_mix(instances, &config).expect("mix runs")),
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_cold_pipeline,
    bench_stage2,
    bench_batched,
    bench_warm_sweep,
    bench_tuner_throughput,
    bench_fabric_shared
);
criterion_main!(benches);
