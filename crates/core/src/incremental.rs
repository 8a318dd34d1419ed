//! Incremental re-evaluation, checked on the pipeline itself.
//!
//! One [`Prepared`](crate::Prepared) serves a mutated config exactly when
//! the two configs agree on the facets [`prepare`](crate::prepare) reads
//! ([`RunConfig::prepare_arch_facet`](crate::RunConfig::prepare_arch_facet)
//! and [`RunConfig::mapping_facet`](crate::RunConfig::mapping_facet)), the
//! facets `cim-bench`'s stage key is built on. These tests pin which
//! mutations keep the prepare artifacts, which also keep the cost table,
//! and that a reused `Prepared` reproduces a from-scratch run.

#[cfg(test)]
mod tests {
    use crate::pipeline::{prepare, run, run_prepared, RunConfig};
    use cim_arch::{Architecture, TileSpec};
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

    /// Whether `prepare` reads the same inputs under both configs.
    fn prepare_facets_equal(old: &RunConfig, new: &RunConfig) -> bool {
        old.prepare_arch_facet() == new.prepare_arch_facet()
            && old.mapping_facet() == new.mapping_facet()
    }

    #[test]
    fn identical_configs_are_fully_clean() {
        let g = chain();
        let cfg = RunConfig::baseline(arch_with_hops(2, 2)).with_cross_layer();
        let same = cfg.clone();
        assert!(prepare_facets_equal(&cfg, &same));
        assert_eq!(cfg.scheduling_facet(), same.scheduling_facet());

        // Nothing recomputes: both runs read the one free cost table and
        // produce the same schedule.
        let prev = prepare(&g, &cfg).unwrap();
        let first = run_prepared(&prev, &cfg).unwrap();
        let again = run_prepared(&prev, &same).unwrap();
        assert!(Arc::ptr_eq(&first.costed, &prev.costed_free));
        assert!(Arc::ptr_eq(&again.costed, &prev.costed_free));
        assert_eq!(first.schedule, again.schedule);
        assert_eq!(first.report, again.report);
    }

    #[test]
    fn hop_latency_change_under_noc_cost_spares_prepare() {
        let g = chain();
        let mut old = RunConfig::baseline(arch_with_hops(2, 2)).with_cross_layer();
        old.noc_cost = true;
        let mut new = old.clone();
        new.arch = arch_with_hops(2, 9);
        assert!(prepare_facets_equal(&old, &new));

        // The NoC cost model reads the hop latency: the cost table and the
        // schedule built from it move.
        let prev = prepare(&g, &old).unwrap();
        let slow = run_prepared(&prev, &new).unwrap();
        let fast = run_prepared(&prev, &old).unwrap();
        assert_ne!(*slow.costed, *fast.costed);
        assert!(slow.makespan() > fast.makespan());
    }

    #[test]
    fn scheduling_flip_without_cost_model_only_dirties_the_schedule() {
        let g = chain();
        let old = RunConfig::baseline(arch_with_hops(2, 0));
        let new = old.clone().with_cross_layer();
        assert!(prepare_facets_equal(&old, &new));

        // Both variants read the Prepared's free cost table; only the
        // schedule differs.
        let prev = prepare(&g, &old).unwrap();
        let lbl = run_prepared(&prev, &old).unwrap();
        let xinf = run_prepared(&prev, &new).unwrap();
        assert!(Arc::ptr_eq(&lbl.costed, &prev.costed_free));
        assert!(Arc::ptr_eq(&xinf.costed, &prev.costed_free));
        assert_ne!(lbl.schedule, xinf.schedule);
    }

    #[test]
    fn run_incremental_reuses_clean_prepare_artifacts() {
        let g = chain();
        let mut old = RunConfig::baseline(arch_with_hops(2, 2)).with_cross_layer();
        old.noc_cost = true;
        let prev = prepare(&g, &old).unwrap();
        let mut new = old.clone();
        new.arch = arch_with_hops(2, 7);

        // Equal prepare facets let the old artifacts serve the new config,
        // and the result is the from-scratch one.
        assert!(prepare_facets_equal(&old, &new));
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

        // The PE budget is a prepare facet: the new config re-prepares.
        assert!(!prepare_facets_equal(&old, &new));
        let inc = run_prepared(&prepare(&g, &new).unwrap(), &new).unwrap();
        assert!(!Arc::ptr_eq(&inc.mapped_graph, &prev.mapped_graph));
        let scratch = run(&g, &new).unwrap();
        assert_eq!(inc.schedule, scratch.schedule);
        assert_eq!(inc.report, scratch.report);
    }
}
