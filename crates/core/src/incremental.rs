//! Incremental re-evaluation: a dirty-key protocol over the pipeline's
//! per-stage inputs.
//!
//! The pipeline already splits into a reusable front half
//! ([`prepare`](crate::prepare): mapping + Stages I & II) and a cheap
//! back half ([`run_prepared`](crate::run_prepared): cost model + Stages
//! III & IV). What was missing is
//! the *classification*: given an old configuration and a mutated one,
//! which stages must recompute and which artifacts can be reused
//! verbatim? [`Invalidation::between`] answers that question from the
//! same config facets the fingerprint keys are built on
//! ([`RunConfig::prepare_arch_facet`], [`RunConfig::mapping_facet`],
//! [`RunConfig::scheduling_facet`]), so a stage reported *clean* here is
//! exactly a stage whose cache key is unchanged — the invariant
//! `tests/incremental_differential.rs` checks against `cim-bench`'s stage
//! keys on every case.
//!
//! The report is deliberately conservative in one direction only: a
//! *clean* verdict is a guarantee (recomputing would reproduce the
//! artifact bit for bit), while a *dirty* verdict may occasionally be
//! pessimistic (e.g. toggling `noc_cost` on a layer-by-layer run changes
//! no schedule bytes but can surface a placement error, so it dirties
//! the cost table).
//!
//! ```
//! use cim_arch::Architecture;
//! use clsa_core::{Invalidation, PipelineStage, RunConfig};
//!
//! # fn main() -> Result<(), clsa_core::CoreError> {
//! let old = RunConfig::baseline(Architecture::paper_case_study(8)?).with_cross_layer();
//! // Mutate a scheduling-side axis: the NoC hop latency.
//! let mut new = old.clone();
//! new.arch = Architecture::builder()
//!     .crossbar(*old.arch.crossbar())
//!     .tile(*old.arch.tile())
//!     .noc_hop_latency(7)
//!     .pes(old.arch.total_pes())
//!     .build()?;
//! let inv = Invalidation::between(&old, &new);
//! // The mapping-side artifacts survive the mutation…
//! assert!(!inv.is_dirty(PipelineStage::Prepare));
//! // …and with no data-movement cost model, nothing downstream reads
//! // the hop latency either: the whole report is clean.
//! assert!(inv.is_clean());
//! # Ok(())
//! # }
//! ```

use std::fmt;

use crate::pipeline::RunConfig;

/// The recomputation granules of one pipeline run, in dataflow order.
///
/// Each stage is keyed by a disjoint slice of [`RunConfig`]: `Prepare` by
/// the mapping facet + the crossbar/PE-budget facet of the architecture,
/// `CostTable` additionally by the cost flags, placement, and the
/// scheduling-visible architecture facets (tile, NoC), and `Schedule` by
/// all of the above plus the scheduling choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// Mapping + Stages I & II ([`prepare`](crate::prepare)): the
    /// expensive front half.
    Prepare,
    /// The precomputed per-edge cost table ([`crate::CostedDeps`]).
    CostTable,
    /// Stages III & IV (or the baseline) plus validation and metrics.
    Schedule,
}

impl fmt::Display for PipelineStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PipelineStage::Prepare => "prepare",
            PipelineStage::CostTable => "cost-table",
            PipelineStage::Schedule => "schedule",
        })
    }
}

/// One stage's verdict inside an [`Invalidation`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStatus {
    /// Which stage this verdict is about.
    pub stage: PipelineStage,
    /// Whether the stage must recompute under the new configuration.
    pub dirty: bool,
    /// Human-readable reasons (config diffs or upstream propagation);
    /// empty exactly when the stage is clean.
    pub reasons: Vec<String>,
}

/// The dirty-key report for a configuration mutation: which pipeline
/// stages must recompute, and why.
///
/// Build one with [`Invalidation::between`]; consume it via
/// [`is_dirty`](Self::is_dirty) / [`is_clean`](Self::is_clean), the
/// public [`stages`](Self::stages) array, or its [`Display`](fmt::Display)
/// rendering (one `stage: clean|dirty (reasons)` line per stage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invalidation {
    /// Per-stage verdicts in dataflow order:
    /// `[Prepare, CostTable, Schedule]`.
    pub stages: [StageStatus; 3],
}

/// Records `name: old -> new` into `reasons` when the values differ.
fn diff<T: fmt::Debug + PartialEq>(name: &str, old: &T, new: &T, reasons: &mut Vec<String>) {
    if old != new {
        reasons.push(format!("{name} {old:?} -> {new:?}"));
    }
}

impl Invalidation {
    /// Classifies the mutation `old -> new` stage by stage.
    ///
    /// A stage is dirty iff a config facet it reads differs, or an
    /// upstream stage is dirty. Scheduling-side mutations (tile shape,
    /// NoC hop latency, cost model, placement) leave `Prepare` clean by
    /// construction — that is the reuse the incremental evaluators
    /// exploit — and architecture facets beyond the prepare slice only
    /// dirty the cost table when a data-movement cost model
    /// (`noc_cost`/`gpeu_cost`) is active on either side.
    pub fn between(old: &RunConfig, new: &RunConfig) -> Self {
        // Prepare: the stage key facets, field by field.
        let mut prep = Vec::new();
        let (xbar_old, pes_old) = old.prepare_arch_facet();
        let (xbar_new, pes_new) = new.prepare_arch_facet();
        diff("arch.crossbar", xbar_old, xbar_new, &mut prep);
        diff("arch.total_pes", &pes_old, &pes_new, &mut prep);
        let (map_old, pol_old, opt_old) = old.mapping_facet();
        let (map_new, pol_new, opt_new) = new.mapping_facet();
        diff("mapping", map_old, map_new, &mut prep);
        diff("set_policy", pol_old, pol_new, &mut prep);
        diff("mapping_options", opt_old, opt_new, &mut prep);
        let prepare_dirty = !prep.is_empty();

        // Cost table: cost flags always; placement, the scheduling-visible
        // architecture facets, and the table-selecting scheduling choice
        // only when a cost model is in play on either side.
        let mut cost = Vec::new();
        if prepare_dirty {
            cost.push("upstream prepare artifacts dirty".to_string());
        }
        diff("noc_cost", &old.noc_cost, &new.noc_cost, &mut cost);
        diff("gpeu_cost", &old.gpeu_cost, &new.gpeu_cost, &mut cost);
        let cost_model = |c: &RunConfig| c.noc_cost || c.gpeu_cost;
        if cost_model(old) || cost_model(new) {
            diff("placement", &old.placement, &new.placement, &mut cost);
            diff("arch.tile", old.arch.tile(), new.arch.tile(), &mut cost);
            diff("arch.noc", old.arch.noc(), new.arch.noc(), &mut cost);
            if old.scheduling != new.scheduling {
                cost.push(format!(
                    "scheduling {:?} -> {:?} selects a different cost table",
                    old.scheduling, new.scheduling
                ));
            }
        }
        let cost_dirty = !cost.is_empty();

        // Schedule: anything upstream, plus the scheduling choice itself.
        let mut sched = Vec::new();
        if cost_dirty {
            sched.push("upstream cost table dirty".to_string());
        }
        diff("scheduling", &old.scheduling, &new.scheduling, &mut sched);

        let status = |stage, reasons: Vec<String>| StageStatus {
            stage,
            dirty: !reasons.is_empty(),
            reasons,
        };
        Invalidation {
            stages: [
                status(PipelineStage::Prepare, prep),
                status(PipelineStage::CostTable, cost),
                status(PipelineStage::Schedule, sched),
            ],
        }
    }

    /// The verdict for one stage.
    pub fn status(&self, stage: PipelineStage) -> &StageStatus {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .expect("all three stages are always present") // cim-lint: allow(panic-unwrap) the array is constructed exhaustively
    }

    /// Whether `stage` must recompute.
    pub fn is_dirty(&self, stage: PipelineStage) -> bool {
        self.status(stage).dirty
    }

    /// Whether *no* stage must recompute — the mutation is output-neutral
    /// and every artifact (including the schedule itself) can be reused.
    pub fn is_clean(&self) -> bool {
        self.stages.iter().all(|s| !s.dirty)
    }
}

impl fmt::Display for Invalidation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}: {}", s.stage, if s.dirty { "dirty" } else { "clean" })?;
            if !s.reasons.is_empty() {
                write!(f, " ({})", s.reasons.join("; "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare, run, run_prepared};
    use cim_arch::{Architecture, PlacementStrategy, TileSpec};
    use cim_ir::{Conv2dAttrs, FeatureShape, Graph, Op, Padding};
    use std::sync::Arc;

    /// A 2-conv chain, PE_min = 2.
    fn chain() -> Graph {
        let mut g = Graph::new("chain");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(18, 18, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g
            .add(
                "c1",
                Op::Conv2d(Conv2dAttrs {
                    out_channels: 8,
                    kernel: (3, 3),
                    stride: (1, 1),
                    padding: Padding::Valid,
                    use_bias: false,
                }),
                &[x],
            )
            .unwrap();
        g.add(
            "c2",
            Op::Conv2d(Conv2dAttrs {
                out_channels: 4,
                kernel: (3, 3),
                stride: (1, 1),
                padding: Padding::Valid,
                use_bias: false,
            }),
            &[c1],
        )
        .unwrap();
        g
    }

    fn arch_with_hops(pes: usize, hops: u64) -> Architecture {
        Architecture::builder()
            .tile(TileSpec {
                pes_per_tile: 1,
                ..TileSpec::isaac_like()
            })
            .noc_hop_latency(hops)
            .pes(pes)
            .build()
            .unwrap()
    }

    #[test]
    fn identical_configs_are_fully_clean() {
        let cfg = RunConfig::baseline(arch_with_hops(2, 2)).with_cross_layer();
        let inv = Invalidation::between(&cfg, &cfg);
        assert!(inv.is_clean(), "{inv}");
        assert!(inv.stages.iter().all(|s| s.reasons.is_empty()));
    }

    #[test]
    fn pe_budget_change_dirties_everything() {
        let old = RunConfig::baseline(arch_with_hops(2, 2));
        let new = RunConfig::baseline(arch_with_hops(3, 2));
        let inv = Invalidation::between(&old, &new);
        assert!(inv.is_dirty(PipelineStage::Prepare));
        assert!(inv.is_dirty(PipelineStage::CostTable));
        assert!(inv.is_dirty(PipelineStage::Schedule));
        assert!(
            inv.status(PipelineStage::Prepare).reasons[0].contains("arch.total_pes"),
            "{inv}"
        );
    }

    #[test]
    fn hop_latency_change_without_cost_model_is_clean() {
        let old = RunConfig::baseline(arch_with_hops(2, 0)).with_cross_layer();
        let mut new = old.clone();
        new.arch = arch_with_hops(2, 9);
        let inv = Invalidation::between(&old, &new);
        assert!(inv.is_clean(), "hop latency is unread without noc_cost: {inv}");
    }

    #[test]
    fn hop_latency_change_under_noc_cost_spares_prepare() {
        let mut old = RunConfig::baseline(arch_with_hops(2, 2)).with_cross_layer();
        old.noc_cost = true;
        let mut new = old.clone();
        new.arch = arch_with_hops(2, 9);
        let inv = Invalidation::between(&old, &new);
        assert!(!inv.is_dirty(PipelineStage::Prepare), "{inv}");
        assert!(inv.is_dirty(PipelineStage::CostTable));
        assert!(inv.is_dirty(PipelineStage::Schedule));
        assert!(
            inv.status(PipelineStage::CostTable)
                .reasons
                .iter()
                .any(|r| r.contains("arch.noc")),
            "{inv}"
        );
    }

    #[test]
    fn scheduling_flip_without_cost_model_only_dirties_the_schedule() {
        let old = RunConfig::baseline(arch_with_hops(2, 0));
        let new = old.clone().with_cross_layer();
        let inv = Invalidation::between(&old, &new);
        assert!(!inv.is_dirty(PipelineStage::Prepare));
        assert!(!inv.is_dirty(PipelineStage::CostTable), "{inv}");
        assert!(inv.is_dirty(PipelineStage::Schedule));
    }

    #[test]
    fn placement_change_without_cost_model_is_clean() {
        let old = RunConfig::baseline(arch_with_hops(2, 0)).with_cross_layer();
        let mut new = old.clone();
        new.placement = PlacementStrategy::RoundRobinTiles;
        let inv = Invalidation::between(&old, &new);
        assert!(inv.is_clean(), "placement is unobservable without a cost model: {inv}");
    }

    #[test]
    fn display_names_stages_and_reasons() {
        let mut old = RunConfig::baseline(arch_with_hops(2, 2)).with_cross_layer();
        old.noc_cost = true;
        let mut new = old.clone();
        new.arch = arch_with_hops(2, 5);
        let text = Invalidation::between(&old, &new).to_string();
        assert!(text.contains("prepare: clean"), "{text}");
        assert!(text.contains("cost-table: dirty"), "{text}");
        assert!(text.contains("schedule: dirty"), "{text}");
    }

    #[test]
    fn run_incremental_reuses_clean_prepare_artifacts() {
        let g = chain();
        let mut old = RunConfig::baseline(arch_with_hops(2, 2)).with_cross_layer();
        old.noc_cost = true;
        let prev = prepare(&g, &old).unwrap();
        let mut new = old.clone();
        new.arch = arch_with_hops(2, 7);

        // A clean Prepare verdict lets the old artifacts serve the new
        // config, and the result is the from-scratch one.
        assert!(!Invalidation::between(&old, &new).is_dirty(PipelineStage::Prepare));
        let inc = run_prepared(&prev, &new).unwrap();
        assert!(Arc::ptr_eq(&inc.mapped_graph, &prev.mapped_graph));
        assert!(Arc::ptr_eq(&inc.layers, &prev.layers));

        let scratch = run(&g, &new).unwrap();
        assert_eq!(inc.schedule, scratch.schedule);
        assert_eq!(inc.report, scratch.report);
    }

    #[test]
    fn run_incremental_reprepares_on_dirty_prepare() {
        let g = chain();
        let old = RunConfig::baseline(arch_with_hops(2, 2)).with_cross_layer();
        let prev = prepare(&g, &old).unwrap();
        let mut new = old.clone();
        new.arch = arch_with_hops(4, 2);

        // A dirty Prepare verdict (the PE budget moved) means re-preparing.
        assert!(Invalidation::between(&old, &new).is_dirty(PipelineStage::Prepare));
        let inc = run_prepared(&prepare(&g, &new).unwrap(), &new).unwrap();
        assert!(!Arc::ptr_eq(&inc.mapped_graph, &prev.mapped_graph));
        let scratch = run(&g, &new).unwrap();
        assert_eq!(inc.schedule, scratch.schedule);
        assert_eq!(inc.report, scratch.report);
    }
}
