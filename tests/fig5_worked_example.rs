//! Integration test: the paper's Fig. 5 worked example, asserted stage by
//! stage through the public facade API.
//!
//! The graph is two consecutive Conv2D layers joined by a non-base path of
//! bias → activation → (2,2)/(2,2) max-pooling → zero-padding, exactly as
//! drawn in the paper.

use clsa_cim::arch::{Architecture, CrossbarSpec};
use clsa_cim::core::{
    cross_layer_schedule, determine_dependencies, determine_sets, layer_by_layer_schedule, run,
    validate_schedule, EdgeCost, RunConfig, SetPolicy, SetRef,
};
use clsa_cim::mapping::{layer_costs, MappingOptions};

fn stage12() -> (
    cim_ir::Graph,
    Vec<clsa_cim::core::LayerSets>,
    clsa_cim::core::Dependencies,
) {
    let g = clsa_cim::models::fig5_example();
    let costs = layer_costs(
        &g,
        &CrossbarSpec::wan_nature_2022(),
        &MappingOptions::default(),
    )
    .expect("fig5 has base layers");
    let layers = determine_sets(&g, &costs, &SetPolicy::finest()).expect("stage I");
    let deps = determine_dependencies(&g, &layers).expect("stage II");
    (g, layers, deps)
}

#[test]
fn stage1_sets_respect_pooling_quantum() {
    let (_, layers, _) = stage12();
    assert_eq!(layers.len(), 2);
    // conv1's OFM is 8×8 and feeds a (2,2)/(2,2) pooling: the sets must
    // contain at least 2×2 values (paper Fig. 5a) → 2-row bands.
    assert_eq!(layers[0].quantum, 2);
    assert_eq!(layers[0].sets.len(), 4);
    for s in &layers[0].sets {
        assert_eq!(s.rect.height(), 2);
        assert_eq!(s.duration, 16);
    }
    // conv2's OFM is 4×4 with no downstream constraint → 4 row sets.
    assert_eq!(layers[1].sets.len(), 4);
}

#[test]
fn stage2_p_and_q_relations() {
    let (_, layers, deps) = stage12();
    // Consumer fan-in (P): first conv2 set needs conv1 sets {0, 1}.
    assert_eq!(
        deps.of(1, 0).collect::<Vec<_>>(),
        &[SetRef { layer: 0, set: 0 }, SetRef { layer: 0, set: 1 }]
    );
    // Middle sets straddle three producer sets (padding shifts the window).
    assert_eq!(deps.fan_in(1, 1), 3);
    assert_eq!(deps.fan_in(1, 2), 3);
    // Last set needs the last two producer sets.
    assert_eq!(
        deps.of(1, 3).collect::<Vec<_>>(),
        &[SetRef { layer: 0, set: 2 }, SetRef { layer: 0, set: 3 }]
    );
    // Producer fan-out (Q): every conv1 set influences some conv2 set; the
    // edge count matches in both directions.
    let q = deps.fan_out();
    assert!(q[0].iter().all(|consumers| !consumers.is_empty()));
    let q_edges: usize = q.iter().flatten().map(Vec::len).sum();
    assert_eq!(q_edges, deps.num_edges());
    let _ = layers;
}

#[test]
fn stage4_earliest_start_semantics() {
    let (_, layers, deps) = stage12();
    let s = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).expect("stage IV");
    validate_schedule(&layers, &deps, &s, &EdgeCost::Free).expect("valid");
    // conv1 streams without stalls: sets at 0, 16, 32, 48.
    for (i, t) in s.layer(0).iter().enumerate() {
        assert_eq!(t.start, 16 * i as u64);
    }
    // conv2 set 0 starts exactly when conv1 set 1 finishes (its last dep).
    assert_eq!(s.time(1, 0).start, s.time(0, 1).finish);
    // Every set starts at the max of its chain and dependency finishes —
    // no idle gap that the paper's "earliest feasible starting point" rule
    // would forbid.
    for (li, lt) in s.iter_layers().enumerate() {
        for (si, t) in lt.iter().enumerate() {
            let chain = if si == 0 { 0 } else { lt[si - 1].finish };
            let dep_max = deps
                .of(li, si)
                .map(|d| s.time(d.layer, d.set).finish)
                .max()
                .unwrap_or(0);
            assert_eq!(t.start, chain.max(dep_max), "L{li}S{si} must start eagerly");
        }
    }
}

#[test]
fn cross_layer_beats_baseline_on_fig5() {
    let (_, layers, deps) = stage12();
    let lbl = layer_by_layer_schedule(&layers).expect("baseline");
    let xl = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).expect("stage IV");
    // t_OFM: conv1 8·8 = 64, conv2 4·4 = 16 → baseline 80.
    assert_eq!(lbl.makespan, 80);
    assert!(xl.makespan < lbl.makespan);
    // Hand-derived: conv1 sets finish at 16/32/48/64; conv2 sets start at
    // 32, 48, 64, 68 (the last two chase conv1's final set) → 72.
    assert_eq!(xl.makespan, 72);
}

#[test]
fn full_pipeline_on_fig5_via_run() {
    let g = clsa_cim::models::fig5_example();
    let arch = Architecture::paper_case_study(2).expect("2 PEs suffice");
    let baseline = run(&g, &RunConfig::baseline(arch.clone())).expect("baseline runs");
    let clsa = run(&g, &RunConfig::baseline(arch).with_cross_layer()).expect("clsa runs");
    assert_eq!(baseline.pe_min, 2);
    assert_eq!(baseline.makespan(), 80);
    assert_eq!(clsa.makespan(), 72);
    assert!(clsa.report.utilization > baseline.report.utilization);
}
