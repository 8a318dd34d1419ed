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
//! * `stage1_sets` — `determine_sets` on canonical ResNet152 under
//!   once-each mapping and finest sets (`ResNet152`): the row-quantum
//!   pass, then constant work per layer, since sets are computed bands;
//! * `stage2_dependencies` — the CSR `determine_dependencies` (backward
//!   walk compiled once per call, flat arena, producer sets found by
//!   dividing by band heights) on the
//!   case-study mapping, beside the retained naive reference (per-set
//!   `HashSet`, full scan of every producer layer) — the ratio of this
//!   pair tracks Stage II. Two more points time the walk where it does the
//!   most: `TinyYOLOv4_wdup100`, the case study under Greedy duplication
//!   at `PE_min + 100` (the middle of serve's first-time keys), whose
//!   concat trees most rectangles miss, and `ResNet152` at `PE_min` under
//!   cross-layer scheduling, whose long residual chains fold into wide
//!   fans of producer layers;
//! * `prepare` — the whole front half (`layer_costs`, the duplication
//!   plan and rewrite, Stage I, Stage II, the peak-model cost table) on
//!   two shapes: `ResNet152_coarse2`, once-each mapping at two sets per
//!   OFM, where the rewrite and Stage I are most of the time, and
//!   `TinyYOLOv4_wdup100`, serve's first-time key shape;
//! * `run_prepared` — one cross-layer `run_prepared` (cost-table lookup,
//!   topological check, Stage IV sweep, validation, metrics) over the
//!   cached `prepare` of `TinyYOLOv4_wdup100`, serve's first-time key
//!   shape: the back half of the pipeline that every first-time key pays
//!   once its mapping is cached;
//! * `cost_table_build` — `CostedDeps::build` on the case-study mapping,
//!   under the peak model (`free`: byte counts and the consumer-side CSR)
//!   and under `NocAndGpeu` (`noc_gpeu`: plus per-edge latencies). Neither
//!   builds the fan-out CSR, which only the event engine reads;
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
//!   do work. Throughput is in simulated sets (the shared run plus one
//!   solo baseline per distinct model).

use cim_arch::{place_groups, Architecture, PlacementStrategy, TileSpec};
use cim_bench::artifacts::{case_study_graph, case_study_model, fig6c_results};
use cim_bench::runner::{Model, PaperStrategy, ResultStore, RunnerOptions};
use cim_mapping::{layer_costs, MappingOptions};
use clsa_core::{
    batched_cross_layer_schedule, determine_sets, prepare, reference, run, CostedDeps,
    Dependencies, EdgeCost, LayerSets, Prepared, RunConfig, SetPolicy,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn xinf_config() -> RunConfig {
    let pe_min = case_study_model().pe_min();
    PaperStrategy::Xinf.config(pe_min).expect("case-study arch")
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
    let model = case_study_model();
    let g = model.graph();
    let prepared = prepare(g, &xinf_config()).expect("prepare");
    let wdup_config = PaperStrategy::WdupXinf
        .config(model.pe_min() + 100)
        .expect("wdup arch");
    let wdup = prepare(g, &wdup_config).expect("prepare wdup");
    let resnet_model =
        Model::canonical("ResNet152", &cim_models::resnet152()).expect("ResNet152 canonicalizes");
    let resnet_config = PaperStrategy::Xinf
        .config(resnet_model.pe_min())
        .expect("ResNet152 arch");
    let resnet_coarse2 = RunConfig {
        set_policy: SetPolicy::coarse(2),
        ..resnet_config.clone()
    };
    let resnet_graph = resnet_model.graph();
    let resnet = prepare(resnet_graph, &resnet_config).expect("prepare");
    let resnet_costs = layer_costs(
        &resnet.mapped_graph,
        resnet_config.arch.crossbar(),
        &MappingOptions::default(),
    )
    .expect("layer costs");
    let mut group = c.benchmark_group("schedule_core");
    let sets = resnet.layers.iter().map(|l| l.sets.len()).sum::<usize>();
    group.throughput(Throughput::Elements(sets as u64));
    group.bench_with_input(
        BenchmarkId::new("stage1_sets", "ResNet152"),
        &resnet,
        |b, p| {
            b.iter(|| {
                determine_sets(&p.mapped_graph, &resnet_costs, &SetPolicy::finest())
                    .expect("stage I")
            })
        },
    );
    let stage2 = |p: &Prepared| {
        clsa_core::determine_dependencies(&p.mapped_graph, &p.layers).expect("stage II")
    };
    group.throughput(Throughput::Elements(prepared.deps.num_edges() as u64));
    group.bench_with_input(
        BenchmarkId::new("stage2_dependencies", "TinyYOLOv4"),
        &prepared,
        |b, p| b.iter(|| stage2(p)),
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
    for (id, p) in [("TinyYOLOv4_wdup100", &wdup), ("ResNet152", &resnet)] {
        group.throughput(Throughput::Elements(p.deps.num_edges() as u64));
        group.bench_with_input(BenchmarkId::new("stage2_dependencies", id), p, |b, p| {
            b.iter(|| stage2(p))
        });
    }
    group.throughput(Throughput::Elements(wdup.deps.num_edges() as u64));
    group.bench_with_input(
        BenchmarkId::new("run_prepared", "TinyYOLOv4_wdup100"),
        &wdup,
        |b, p| b.iter(|| clsa_core::run_prepared(p, &wdup_config).expect("run_prepared")),
    );
    group.throughput(Throughput::Elements(1));
    for (id, graph, config) in [
        ("ResNet152_coarse2", resnet_graph, &resnet_coarse2),
        ("TinyYOLOv4_wdup100", g, &wdup_config),
    ] {
        group.bench_with_input(BenchmarkId::new("prepare", id), graph, |b, graph| {
            b.iter(|| prepare(graph, config).expect("prepare"))
        });
    }
    group.finish();
}

fn bench_cost_table(c: &mut Criterion) {
    let (layers, deps) = case_study_stages();
    let noc_gpeu = noc_gpeu_cost(&layers);
    let mut group = c.benchmark_group("schedule_core");
    group.throughput(Throughput::Elements(deps.num_edges() as u64));
    for (name, cost) in [("free", &EdgeCost::Free), ("noc_gpeu", &noc_gpeu)] {
        group.bench_with_input(
            BenchmarkId::new("cost_table_build", name),
            &(&layers, &deps),
            |b, (layers, deps)| b.iter(|| CostedDeps::build(layers, deps, cost).expect("table")),
        );
    }
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
    let model = case_study_model();
    let dir = std::env::temp_dir().join(format!("cim-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        // Populate the store once; the bench then measures warm replays.
        let store = ResultStore::open(&dir).expect("store opens");
        fig6c_results(&model, &RunnerOptions::sequential(), Some(&store)).expect("cold sweep");
    }
    let mut group = c.benchmark_group("schedule_core");
    group.bench_with_input(
        BenchmarkId::new("warm_sweep", "fig6c"),
        &model,
        |b, model| {
            b.iter(|| {
                let store = ResultStore::open(&dir).expect("store opens");
                fig6c_results(model, &RunnerOptions::sequential(), Some(&store))
                    .expect("warm sweep")
            })
        },
    );
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

    let sets_of = |i: &TenantInstance| i.layers.iter().map(|l| l.sets.len()).sum::<usize>();
    let mut instances = Vec::new();
    // The shared run simulates every stream; under `Shared` the streams of
    // one model share one solo run.
    let mut solo_sets = 0;
    for info in cim_models::all_models() {
        let base = TenantInstance::prepare(info.name, &info.build()).expect("zoo model prepares");
        solo_sets += sets_of(&base);
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
    let shared_sets: usize = instances.iter().map(sets_of).sum();
    // The mix must keep every contention point busy, or the bench would
    // time an idle fabric.
    let probe = run_mix(&instances, &config).expect("mix runs");
    let occupancy: u64 = probe.tenants.iter().map(|t| t.occupancy_stall_cycles).sum();
    assert!(probe.link_stall_cycles > 0 && occupancy > 0 && probe.reloads > 0);
    let mut group = c.benchmark_group("schedule_core");
    group.throughput(Throughput::Elements((shared_sets + solo_sets) as u64));
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
    bench_cost_table,
    bench_batched,
    bench_warm_sweep,
    bench_tuner_throughput,
    bench_fabric_shared
);
criterion_main!(benches);
