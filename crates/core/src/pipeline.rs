//! End-to-end pipeline: mapping choice × scheduling choice on one
//! architecture — the four configurations evaluated in the paper's Sec. V
//! (`layer-by-layer`, `wdup`, `xinf`, `wdup+xinf`).

use std::sync::Arc;

use cim_arch::{place_groups, Architecture, CrossbarSpec, PlacementStrategy};
use cim_ir::Graph;
use cim_mapping::{
    apply_duplication, layer_costs, min_pes, optimize, DuplicationPlan, MappingOptions, Solver,
};
use serde::{Deserialize, Serialize};

use crate::cost::CostedDeps;
use crate::deps::{determine_dependencies, Dependencies};
use crate::error::Result;
use crate::metrics::{utilization, UtilizationReport};
use crate::schedule::{
    cross_layer_schedule_costed, layer_by_layer_schedule, EdgeCost, Schedule,
};
use crate::sets::{determine_sets, LayerSets, SetPolicy};
use crate::validate::validate_schedule_costed;

/// Weight-mapping configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MappingChoice {
    /// Store every weight exactly once (`C_num` PEs used; spares idle).
    #[default]
    OnceEach,
    /// Weight duplication (Sec. III-C): solve Optimization Problem 1 for
    /// the architecture's full PE budget with the given solver.
    WeightDuplication {
        /// Solver for Optimization Problem 1.
        solver: Solver,
    },
}

/// Scheduling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedulingChoice {
    /// The layer-by-layer baseline (Sec. II-B).
    #[default]
    LayerByLayer,
    /// CLSA-CIM cross-layer scheduling (Sec. IV) — `xinf` in the paper.
    CrossLayer,
}

/// Full configuration of one pipeline run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The target architecture. Its total PE count is the budget `F`.
    pub arch: Architecture,
    /// Weight-mapping choice.
    pub mapping: MappingChoice,
    /// Scheduling choice.
    pub scheduling: SchedulingChoice,
    /// Stage-I granularity.
    pub set_policy: SetPolicy,
    /// Cost-model options (bit slicing).
    pub mapping_options: MappingOptions,
    /// Charge NoC hop latency on cross-layer data edges (the Sec. V-C
    /// extension). Requires the architecture's `hop_latency_cycles` to be
    /// non-zero to have any effect.
    pub noc_cost: bool,
    /// Additionally charge GPEU processing time for the forwarded data
    /// (implies `noc_cost`-style placement; the non-base-layer work the
    /// paper's peak model treats as free).
    pub gpeu_cost: bool,
    /// PE-group placement strategy (only observable when `noc_cost` or
    /// `gpeu_cost` is on).
    pub placement: PlacementStrategy,
}

impl RunConfig {
    /// The paper's default evaluation setup on `arch`: once-each mapping,
    /// layer-by-layer scheduling, finest sets, zero-cost NoC.
    pub fn baseline(arch: Architecture) -> Self {
        Self {
            arch,
            mapping: MappingChoice::OnceEach,
            scheduling: SchedulingChoice::LayerByLayer,
            set_policy: SetPolicy::finest(),
            mapping_options: MappingOptions::default(),
            noc_cost: false,
            gpeu_cost: false,
            placement: PlacementStrategy::Contiguous,
        }
    }

    /// Switches to CLSA-CIM cross-layer scheduling (`xinf`).
    pub fn with_cross_layer(mut self) -> Self {
        self.scheduling = SchedulingChoice::CrossLayer;
        self
    }

    /// Switches to weight duplication over the full PE budget (`wdup`).
    pub fn with_duplication(mut self, solver: Solver) -> Self {
        self.mapping = MappingChoice::WeightDuplication { solver };
        self
    }

    /// The slice of the architecture [`prepare`] actually reads: the
    /// crossbar spec and the total PE budget. Everything else about the
    /// architecture (tile geometry, NoC latency) only matters to the
    /// scheduling side — two configs with equal `prepare_arch_facet`s and
    /// equal [`mapping_facet`](Self::mapping_facet)s produce identical
    /// stage artifacts. `cim-bench`'s stage cache key is built on this
    /// accessor, so two configs share one [`Prepared`] exactly when these
    /// facets agree; widen it if [`prepare`] ever reads more of the
    /// architecture.
    pub fn prepare_arch_facet(&self) -> (&CrossbarSpec, usize) {
        (self.arch.crossbar(), self.arch.total_pes())
    }

    /// The mapping-side configuration [`prepare`] reads besides the
    /// architecture: mapping choice, Stage-I granularity, and bit-slicing
    /// options, in the order the stage fingerprint serializes them.
    pub fn mapping_facet(&self) -> (&MappingChoice, &SetPolicy, &MappingOptions) {
        (&self.mapping, &self.set_policy, &self.mapping_options)
    }

    /// The scheduling-side configuration consumed by [`run_prepared`]:
    /// scheduling choice, NoC/GPEU cost flags, and placement strategy, in
    /// the order the schedule fingerprint serializes them. Note the
    /// architecture's *scheduling-visible* facets (tile geometry, NoC hop
    /// latency) are not part of this tuple — they live on `arch` and enter
    /// the schedule key through the full-architecture fingerprint.
    pub fn scheduling_facet(&self) -> (&SchedulingChoice, bool, bool, &PlacementStrategy) {
        (&self.scheduling, self.noc_cost, self.gpeu_cost, &self.placement)
    }
}

/// The reusable front half of a pipeline run: mapping plus Stages I & II.
///
/// [`prepare`] computes everything that depends only on the graph, the
/// architecture, and the *mapping-side* configuration (mapping choice, set
/// policy, bit slicing) — the expensive `determine_sets` /
/// `determine_dependencies` analyses. A `Prepared` can then be scheduled
/// any number of times under different *scheduling-side* configurations
/// (baseline vs cross-layer, NoC/GPEU cost, placement) via
/// [`run_prepared`] without redoing the stage work. The parallel sweep
/// runner in `cim-bench` memoizes values of this type in a concurrent
/// cache so that e.g. a baseline and a CLSA run over the same model share
/// one stage computation.
///
/// The stage artifacts are handed out behind [`Arc`]s ([`MappedGraph`],
/// [`Layers`], [`Deps`]): cloning a `Prepared` — and building any number of
/// [`RunResult`]s from it via [`run_prepared`] — bumps three reference
/// counts instead of deep-copying a multi-hundred-layer graph, so a batch
/// over N configurations of one model holds **one** copy of the stage
/// outputs, not N. All payloads are plain owned data (`Send + Sync`), so
/// the `Arc`s share freely across worker threads.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The mapped graph (duplicates expanded, logical layers marked).
    pub mapped_graph: MappedGraph,
    /// Stage-I sets per base layer of the mapped graph.
    pub layers: Layers,
    /// Stage-II dependencies.
    pub deps: Deps,
    /// Precomputed zero-cost edge tables for the paper's peak model
    /// ([`EdgeCost::Free`]): per-set byte counts over `deps`' own CSR,
    /// which the table shares instead of copying, with no per-edge
    /// latency or hop array. Cached here — like the other stage artifacts
    /// — because it depends only on the mapping side; every `Free`-model
    /// schedule, validation, and simulation over this mapping shares the
    /// one table, and recognises it as built from `deps` by one pointer
    /// comparison. Its fan-out CSR is built only if something simulates
    /// it ([`CostedDeps::fanout`]).
    pub costed_free: Costs,
    /// `PE_min` of the *original* graph (weights stored once).
    pub pe_min: usize,
    /// The duplication plan, when weight duplication was requested.
    pub plan: Option<DuplicationPlan>,
}

/// Shared handle to a mapped graph (duplicates expanded, logical layers
/// marked). Cloning is a reference-count bump.
pub type MappedGraph = Arc<Graph>;

/// Shared handle to the Stage-I sets of every base layer. Cloning is a
/// reference-count bump; `&layers` deref-coerces to `&[LayerSets]`
/// wherever a slice is expected.
pub type Layers = Arc<Vec<LayerSets>>;

/// Shared handle to the Stage-II dependency relation. Cloning is a
/// reference-count bump.
pub type Deps = Arc<Dependencies>;

/// Shared handle to a precomputed [`CostedDeps`] edge-cost table. Cloning
/// is a reference-count bump.
pub type Costs = Arc<CostedDeps>;

/// Everything a pipeline run produces.
///
/// The stage artifacts (`mapped_graph`, `layers`, `deps`) are the *same*
/// [`Arc`]s as the [`Prepared`] the run came from — results of different
/// scheduling variants over one mapping share one copy of the stage
/// outputs (checked by `tests/arc_sharing.rs`).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The mapped graph (duplicates expanded, logical layers marked).
    pub mapped_graph: MappedGraph,
    /// Stage-I sets per base layer of the mapped graph.
    pub layers: Layers,
    /// Stage-II dependencies.
    pub deps: Deps,
    /// The precomputed edge-cost table the schedule was built and
    /// validated with. For the paper's peak model this *is* the
    /// [`Prepared::costed_free`] `Arc` (shared, never rebuilt); cost-model
    /// runs carry their own table. Scheduling and validation read only
    /// its consumer side: the fan-out CSR is built on the first
    /// simulation of the result, if any.
    pub costed: Costs,
    /// The schedule (Stage IV or the baseline).
    pub schedule: Schedule,
    /// Eq. 2 utilization report over the architecture's PEs.
    pub report: UtilizationReport,
    /// `PE_min` of the *original* graph (weights stored once).
    pub pe_min: usize,
    /// The duplication plan, when weight duplication was requested.
    pub plan: Option<DuplicationPlan>,
}

impl RunResult {
    /// Makespan in cycles.
    pub fn makespan(&self) -> u64 {
        self.schedule.makespan
    }
}

/// Runs the full pipeline on `graph` under `config`.
///
/// The produced schedule is always validated against the stage outputs
/// before being returned, so a successful run is a machine-checked one.
///
/// # Errors
///
/// Propagates mapping errors (including
/// [`MappingError::BudgetTooSmall`](cim_mapping::MappingError::BudgetTooSmall)
/// when the architecture cannot store the network), stage mismatches, and
/// validation failures.
///
/// # Examples
///
/// ```
/// use cim_arch::Architecture;
/// use cim_ir::{Conv2dAttrs, FeatureShape, Graph, Op, Padding};
/// use clsa_core::{run, RunConfig};
///
/// # fn main() -> Result<(), clsa_core::CoreError> {
/// let mut g = Graph::new("toy");
/// let x = g.add("input", Op::Input { shape: FeatureShape::new(10, 10, 3) }, &[])?;
/// g.add("conv", Op::Conv2d(Conv2dAttrs {
///     out_channels: 8, kernel: (3, 3), stride: (1, 1),
///     padding: Padding::Valid, use_bias: false,
/// }), &[x])?;
/// let arch = Architecture::paper_case_study(4)?;
/// let baseline = run(&g, &RunConfig::baseline(arch.clone()))?;
/// let xinf = run(&g, &RunConfig::baseline(arch).with_cross_layer())?;
/// assert!(xinf.makespan() <= baseline.makespan());
/// # Ok(())
/// # }
/// ```
pub fn run(graph: &Graph, config: &RunConfig) -> Result<RunResult> {
    let prepared = prepare(graph, config)?;
    run_prepared(&prepared, config)
}

/// Runs the front half of the pipeline: mapping plus Stages I & II.
///
/// Only the mapping-side fields of `config` are read (`arch`, `mapping`,
/// `set_policy`, `mapping_options`); the scheduling-side fields are
/// consumed later by [`run_prepared`], so one `Prepared` serves every
/// scheduling variant over the same mapping. Of the architecture, only
/// the crossbar spec and the total PE budget are read — `cim-bench`'s
/// stage cache keys on exactly those two facets, so widen that key if
/// this function ever reads more of the architecture.
///
/// # Errors
///
/// Propagates mapping errors, including
/// [`MappingError::BudgetTooSmall`](cim_mapping::MappingError::BudgetTooSmall)
/// when the architecture cannot store the network.
pub fn prepare(graph: &Graph, config: &RunConfig) -> Result<Prepared> {
    let xbar = config.arch.crossbar();
    let budget = config.arch.total_pes();

    // Mapping: decide duplicates, then rewrite the graph. A trivial plan is
    // applied even for once-each mapping so that every base layer carries a
    // logical-layer marker for the baseline scheduler.
    let costs0 = layer_costs(graph, xbar, &config.mapping_options)?;
    let pe_min = min_pes(&costs0);
    let (plan, keep_plan) = match config.mapping {
        MappingChoice::OnceEach => (optimize(&costs0, pe_min, Solver::Greedy)?, false),
        MappingChoice::WeightDuplication { solver } => (optimize(&costs0, budget, solver)?, true),
    };
    if pe_min > budget {
        return Err(cim_mapping::MappingError::BudgetTooSmall {
            required: pe_min,
            available: budget,
        }
        .into());
    }
    let mapped_graph = apply_duplication(graph, &costs0, &plan)?;

    // Stages I & II on the mapped graph.
    let costs = layer_costs(&mapped_graph, xbar, &config.mapping_options)?;
    let layers = determine_sets(&mapped_graph, &costs, &config.set_policy)?;
    let deps = determine_dependencies(&mapped_graph, &layers)?;

    let costed_free = CostedDeps::free(&layers, &deps)?;
    Ok(Prepared {
        mapped_graph: Arc::new(mapped_graph),
        layers: Arc::new(layers),
        deps: Arc::new(deps),
        costed_free: Arc::new(costed_free),
        pe_min,
        plan: keep_plan.then_some(plan),
    })
}

/// Runs the back half of the pipeline — the edge-cost model, Stages III &
/// IV (or the baseline), validation, and metrics — on stage outputs from
/// [`prepare`].
///
/// `config` must carry the same architecture the `Prepared` was built
/// with; the mapping-side fields are not re-read.
///
/// The returned result *shares* the `Prepared`'s stage artifacts — the
/// `mapped_graph`/`layers`/`deps` clones below are `Arc` reference-count
/// bumps, never deep copies, so scheduling a cached `Prepared` under many
/// strategies is zero-copy on the stage outputs.
///
/// # Errors
///
/// Propagates placement, scheduling, and validation failures.
pub fn run_prepared(prepared: &Prepared, config: &RunConfig) -> Result<RunResult> {
    let (schedule, report, costed) = schedule_prepared(prepared, config)?;
    Ok(RunResult {
        mapped_graph: Arc::clone(&prepared.mapped_graph),
        layers: Arc::clone(&prepared.layers),
        deps: Arc::clone(&prepared.deps),
        costed,
        schedule,
        report,
        pe_min: prepared.pe_min,
        plan: prepared.plan.clone(),
    })
}

/// The scheduling core shared by [`run`] and [`run_prepared`]: borrows the
/// stage outputs, never clones them.
fn schedule_prepared(
    prepared: &Prepared,
    config: &RunConfig,
) -> Result<(Schedule, UtilizationReport, Costs)> {
    let budget = config.arch.total_pes();
    let layers = &prepared.layers;
    let deps = &prepared.deps;

    // Edge-cost model, precomputed once per `(mapping, EdgeCost)` pair:
    // the peak model reuses the table cached on the `Prepared`; the
    // NoC/GPEU extensions build theirs here, and everything downstream
    // (scheduler, validator, callers simulating the result) consumes the
    // flat `u64` tables instead of the cost model. The baseline keeps
    // whole layers sequential, which trivially satisfies data deps but
    // not necessarily with edge costs — it models DRAM round-trips
    // instead, so it schedules and validates cost-free.
    let costed: Costs = if config.noc_cost || config.gpeu_cost {
        // Placement must succeed whenever a data-movement model is
        // requested — also for baseline runs, which schedule cost-free
        // but still reject unplaceable configurations.
        let sizes: Vec<usize> = layers.iter().map(|l| l.pes).collect();
        let placement = place_groups(&config.arch, &sizes, config.placement)?;
        match config.scheduling {
            SchedulingChoice::LayerByLayer => Arc::clone(&prepared.costed_free),
            SchedulingChoice::CrossLayer => {
                let arch = config.arch.clone();
                let edge_cost = if config.gpeu_cost {
                    EdgeCost::NocAndGpeu { arch, placement }
                } else {
                    EdgeCost::NocHops { arch, placement }
                };
                Arc::new(CostedDeps::build(layers, deps, &edge_cost)?)
            }
        }
    } else {
        Arc::clone(&prepared.costed_free)
    };

    // Stages III & IV (or the baseline).
    let schedule = match config.scheduling {
        SchedulingChoice::LayerByLayer => layer_by_layer_schedule(layers)?,
        SchedulingChoice::CrossLayer => cross_layer_schedule_costed(layers, deps, &costed)?,
    };
    validate_schedule_costed(layers, deps, &schedule, &costed)?;

    let report = utilization(layers, &schedule, budget)?;
    Ok((schedule, report, costed))
}

// The sweep runner shares graphs, configs, and stage outputs across worker
// threads; keep the whole hot path free of interior mutability (the cost
// table's lazily built fan-out is a `OnceLock`, which is `Sync`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Graph>();
    assert_send_sync::<RunConfig>();
    assert_send_sync::<Prepared>();
    assert_send_sync::<RunResult>();
    assert_send_sync::<crate::sets::LayerSets>();
    assert_send_sync::<crate::deps::Dependencies>();
    assert_send_sync::<crate::schedule::Schedule>();
    assert_send_sync::<crate::schedule::EdgeCost>();
    assert_send_sync::<crate::cost::CostedDeps>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cim_ir::{ActFn, Conv2dAttrs, FeatureShape, Op, Padding, PoolAttrs};

    fn conv_op(oc: usize, k: usize, st: usize) -> Op {
        Op::Conv2d(Conv2dAttrs {
            out_channels: oc,
            kernel: (k, k),
            stride: (st, st),
            padding: Padding::Valid,
            use_bias: false,
        })
    }

    /// A small 3-conv CNN with pooling and activation, PE_min = 3.
    fn small_cnn() -> Graph {
        let mut g = Graph::new("small");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(34, 34, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g.add("c1", conv_op(16, 3, 1), &[x]).unwrap(); // 32×32
        let a1 = g.add("a1", Op::Activation(ActFn::Relu), &[c1]).unwrap();
        let p1 = g
            .add(
                "p1",
                Op::MaxPool2d(PoolAttrs {
                    window: (2, 2),
                    stride: (2, 2),
                    padding: Padding::Valid,
                }),
                &[a1],
            )
            .unwrap(); // 16×16
        let c2 = g.add("c2", conv_op(16, 3, 1), &[p1]).unwrap(); // 14×14
        g.add("c3", conv_op(8, 3, 1), &[c2]).unwrap(); // 12×12
        g
    }

    fn arch(pes: usize) -> Architecture {
        Architecture::paper_case_study(pes).unwrap()
    }

    #[test]
    fn four_paper_configurations_are_ordered() {
        let g = small_cnn();
        // PE_min for this net: c1 needs 1 (27 rows), c2 needs 1 (144 rows),
        // c3 needs 1 → 3.
        let lbl = run(&g, &RunConfig::baseline(arch(3))).unwrap();
        assert_eq!(lbl.pe_min, 3);
        let xinf = run(&g, &RunConfig::baseline(arch(3)).with_cross_layer()).unwrap();
        let wdup = run(
            &g,
            &RunConfig::baseline(arch(3 + 4)).with_duplication(Solver::Greedy),
        )
        .unwrap();
        let both = run(
            &g,
            &RunConfig::baseline(arch(3 + 4))
                .with_duplication(Solver::Greedy)
                .with_cross_layer(),
        )
        .unwrap();
        assert!(xinf.makespan() <= lbl.makespan());
        assert!(wdup.makespan() <= lbl.makespan());
        assert!(both.makespan() <= xinf.makespan());
        assert!(both.makespan() <= wdup.makespan());
        // Utilization ordering mirrors speedup (same work, Eq. 3).
        assert!(both.report.utilization >= lbl.report.utilization);
    }

    #[test]
    fn prepared_split_reproduces_run_for_every_scheduling_variant() {
        let g = small_cnn();
        // One prepare serves both scheduling variants over the same mapping.
        let cfg_lbl = RunConfig::baseline(arch(3));
        let cfg_xinf = cfg_lbl.clone().with_cross_layer();
        let prepared = prepare(&g, &cfg_lbl).unwrap();
        for cfg in [&cfg_lbl, &cfg_xinf] {
            let split = run_prepared(&prepared, cfg).unwrap();
            let whole = run(&g, cfg).unwrap();
            assert_eq!(split.schedule, whole.schedule);
            assert_eq!(split.report, whole.report);
            assert_eq!(split.pe_min, whole.pe_min);
            assert_eq!(split.mapped_graph, whole.mapped_graph);
        }
    }

    #[test]
    fn prepare_rejects_insufficient_budget() {
        let g = small_cnn();
        let err = prepare(&g, &RunConfig::baseline(arch(2))).unwrap_err();
        assert!(matches!(
            err,
            crate::error::CoreError::Mapping(cim_mapping::MappingError::BudgetTooSmall { .. })
        ));
    }

    /// The mapping rewrite's closing validation names a duplicate node
    /// name of the input graph, under either mapping.
    #[test]
    fn prepare_rejects_a_duplicate_node_name() {
        let mut g = small_cnn();
        let p1 = g.find("p1").unwrap();
        g.node_mut(p1).unwrap().name = "a1".into();
        for (cfg, ids) in [
            (RunConfig::baseline(arch(3)), "%2 and %3"),
            // c1 becomes four slices, four duplicates and a concat.
            (
                RunConfig::baseline(arch(3 + 4)).with_duplication(Solver::Greedy),
                "%10 and %11",
            ),
        ] {
            let err = prepare(&g, &cfg).map(|_| ()).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("invalid graph: duplicate node name `a1` ({ids})")
            );
        }
    }

    /// 64 stacked `relu`/`relu`/`add` diamonds between two convs schedule
    /// like the direct conv → conv chain, in time linear in the diamonds.
    #[test]
    fn stacked_diamonds_schedule_like_the_direct_chain() {
        let diamonds = crate::sets::stacked_diamonds(64);
        let direct = crate::sets::stacked_diamonds(0);
        for cfg in [
            RunConfig::baseline(arch(2)),
            RunConfig::baseline(arch(2)).with_cross_layer(),
            RunConfig::baseline(arch(2 + 6))
                .with_duplication(Solver::Greedy)
                .with_cross_layer(),
        ] {
            let prepared = prepare(&diamonds, &cfg).unwrap();
            let direct = run_prepared(&prepare(&direct, &cfg).unwrap(), &cfg).unwrap();
            assert_eq!(prepared.deps.num_edges(), direct.deps.num_edges());
            let result = run_prepared(&prepared, &cfg).unwrap();
            assert_eq!(result.makespan(), direct.makespan(), "{:?}", cfg.mapping);
        }
    }

    #[test]
    fn baseline_makespan_is_sum_of_layer_latencies() {
        let g = small_cnn();
        let lbl = run(&g, &RunConfig::baseline(arch(3))).unwrap();
        assert_eq!(lbl.makespan(), (32 * 32 + 14 * 14 + 12 * 12) as u64);
    }

    #[test]
    fn duplication_plan_reported() {
        let g = small_cnn();
        let r = run(
            &g,
            &RunConfig::baseline(arch(7)).with_duplication(Solver::ExactDp),
        )
        .unwrap();
        let plan = r.plan.as_ref().expect("duplication requested");
        assert!(!plan.is_trivial());
        assert!(plan.pes_used <= 7);
        assert!(r.report.used_pes <= 7);
        // Once-each runs report no plan.
        let lbl = run(&g, &RunConfig::baseline(arch(7))).unwrap();
        assert!(lbl.plan.is_none());
        assert_eq!(lbl.report.used_pes, 3);
    }

    #[test]
    fn insufficient_pes_is_reported() {
        let g = small_cnn();
        let err = run(&g, &RunConfig::baseline(arch(2))).unwrap_err();
        assert!(matches!(
            err,
            crate::error::CoreError::Mapping(cim_mapping::MappingError::BudgetTooSmall {
                required: 3,
                available: 2
            })
        ));
    }

    #[test]
    fn baseline_with_noc_cost_schedules_cost_free_but_places_groups() {
        // A data-movement model on a LayerByLayer run must still resolve
        // the placement (surfacing placement errors exactly as before the
        // cost tables), while scheduling and validating cost-free.
        let g = small_cnn();
        let mut cfg = RunConfig::baseline(arch(3));
        cfg.noc_cost = true;
        let prepared = prepare(&g, &cfg).unwrap();
        let r = run_prepared(&prepared, &cfg).unwrap();
        let free = run(&g, &RunConfig::baseline(arch(3))).unwrap();
        assert_eq!(r.schedule, free.schedule);
        assert!(std::sync::Arc::ptr_eq(&r.costed, &prepared.costed_free));
    }

    #[test]
    fn noc_cost_slows_cross_layer_schedules() {
        let g = small_cnn();
        let base = Architecture::builder()
            .tile(cim_arch::TileSpec {
                pes_per_tile: 1,
                ..cim_arch::TileSpec::isaac_like()
            })
            .noc_hop_latency(10)
            .pes(3)
            .build()
            .unwrap();
        let mut cfg = RunConfig::baseline(base).with_cross_layer();
        let free = run(&g, &cfg).unwrap();
        cfg.noc_cost = true;
        let costly = run(&g, &cfg).unwrap();
        assert!(costly.makespan() > free.makespan());
    }

    #[test]
    fn scheduling_and_validation_build_no_fanout() {
        // Only a simulation reads the producer-side fan-out, so neither a
        // cached free table nor a run's own NoC table should hold one.
        let g = small_cnn();
        let arch = Architecture::builder()
            .tile(cim_arch::TileSpec {
                pes_per_tile: 1,
                ..cim_arch::TileSpec::isaac_like()
            })
            .noc_hop_latency(10)
            .pes(3)
            .build()
            .unwrap();
        let free_cfg = RunConfig::baseline(arch).with_cross_layer();
        let noc_cfg = RunConfig {
            noc_cost: true,
            ..free_cfg.clone()
        };
        let prepared = prepare(&g, &free_cfg).unwrap();
        for cfg in [&free_cfg, &noc_cfg] {
            let result = run_prepared(&prepared, cfg).unwrap();
            assert_eq!(result.costed.tracks_transfers(), cfg.noc_cost);
            assert!(!result.costed.fanout_built());
            assert!(!prepared.costed_free.fanout_built());
        }
    }

    #[test]
    fn gpeu_cost_slows_more_than_noc_alone() {
        let g = small_cnn();
        let base = Architecture::builder()
            .tile(cim_arch::TileSpec {
                pes_per_tile: 1,
                gpeu_ops_per_cycle: 16,
                ..cim_arch::TileSpec::isaac_like()
            })
            .noc_hop_latency(2)
            .pes(3)
            .build()
            .unwrap();
        let mut cfg = RunConfig::baseline(base).with_cross_layer();
        cfg.noc_cost = true;
        let noc_only = run(&g, &cfg).unwrap();
        cfg.gpeu_cost = true;
        let with_gpeu = run(&g, &cfg).unwrap();
        assert!(with_gpeu.makespan() > noc_only.makespan());
    }

    #[test]
    fn coarse_sets_reduce_overlap() {
        let g = small_cnn();
        let mut cfg = RunConfig::baseline(arch(3)).with_cross_layer();
        let fine = run(&g, &cfg).unwrap();
        cfg.set_policy = SetPolicy::coarse(1);
        let coarse = run(&g, &cfg).unwrap();
        assert!(fine.makespan() <= coarse.makespan());
    }

    /// Greedy `wdup` over `PE_min + 64` PEs for `g`: the config, and the
    /// layer costs and plan `prepare` derives from it.
    fn wdup_config(g: &Graph) -> (RunConfig, Vec<cim_mapping::LayerCost>, DuplicationPlan) {
        let costs = layer_costs(g, arch(1).crossbar(), &MappingOptions::default()).unwrap();
        let budget = min_pes(&costs) + 64;
        let plan = optimize(&costs, budget, Solver::Greedy).unwrap();
        let cfg = RunConfig::baseline(arch(budget)).with_duplication(Solver::Greedy);
        (cfg, costs, plan)
    }

    /// A graph `canonicalize` has not partitioned keeps its padding inside
    /// its convolutions. `prepare` refuses to duplicate one, naming the
    /// first such layer the plan duplicates, before it builds anything.
    #[test]
    fn raw_graphs_are_refused_before_duplication() {
        for name in ["TinyYOLOv4", "TinyYOLOv3", "VGG16", "ResNet50"] {
            let raw = cim_models::graph_by_name(name).unwrap();
            let (cfg, costs, plan) = wdup_config(&raw);
            let padded = costs.iter().zip(&plan.duplicates).find(|(c, &d)| {
                let node = raw.node(c.node).unwrap();
                d > 1 && matches!(&node.op, Op::Conv2d(a) if a.padding != Padding::Valid)
            });
            let (cost, _) = padded.unwrap_or_else(|| panic!("{name} duplicates a padded layer"));
            let err = prepare(&raw, &cfg).unwrap_err();
            assert!(
                matches!(
                    err,
                    crate::CoreError::Mapping(cim_mapping::MappingError::PlanMismatch { .. })
                ),
                "{name}: {err}"
            );
            let named = format!("`{}` has Same padding", cost.name);
            assert!(err.to_string().contains(&named), "{name}: {err}");
        }
    }

    /// Canonical graphs carry no padding inside their base layers, so the
    /// zoo still maps under duplication.
    #[test]
    fn canonical_zoo_maps_under_duplication() {
        use cim_frontend::{canonicalize, CanonOptions};

        for name in cim_models::model_names() {
            let raw = cim_models::graph_by_name(name).unwrap();
            let g = canonicalize(&raw, &CanonOptions::default())
                .unwrap()
                .into_graph();
            let (cfg, _, plan) = wdup_config(&g);
            let prepared = prepare(&g, &cfg).unwrap();
            assert_eq!(prepared.plan.as_ref(), Some(&plan), "{name}");
            assert!(plan.duplicates.iter().any(|&d| d > 1), "{name}");
        }
    }
}
