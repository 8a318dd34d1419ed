//! Differential property suite: the CSR-flattened, cost-precomputed
//! scheduling core against the retained naive reference implementations
//! (`clsa_core::reference`) — on random DAG workloads under all three
//! [`EdgeCost`] variants, and on real models across Stage-I policies.
//!
//! The optimized paths (flat `Dependencies`, `CostedDeps` tables, arena
//! `Schedule`s) must be *output-identical* to the per-edge, nested-`Vec`
//! reference on every input; this suite is the executable proof, alongside
//! the byte-exact golden harness.

use clsa_cim::arch::{
    place_groups, Architecture, CrossbarSpec, PlacementStrategy, TileSpec,
};
use clsa_cim::core::{
    batched_cross_layer_schedule, batched_cross_layer_schedule_costed, cross_layer_schedule,
    cross_layer_schedule_costed, determine_dependencies, prepare, reference, run_prepared,
    validate_schedule, validate_schedule_costed, CostedDeps, Dependencies, EdgeCost, LayerSets,
    OfmSet, RunConfig, SetPolicy, SetRef,
};
use clsa_cim::frontend::{canonicalize, CanonOptions};
use clsa_cim::mapping::{layer_costs, min_pes, MappingOptions, Solver};
use clsa_cim::sim::Simulator;
use cim_ir::{FeatureShape, Graph, NodeId, Rect};
use proptest::prelude::*;

/// Random layered workloads: synthetic sets with random durations, PE
/// counts, and random backward edges (the same generator family as the
/// simulator's property tests).
fn arb_workload() -> impl Strategy<Value = (Vec<LayerSets>, Vec<(SetRef, SetRef)>)> {
    let layer = (1usize..6, 1u64..20, 1usize..4);
    proptest::collection::vec(layer, 1..6).prop_flat_map(|spec| {
        let layers: Vec<LayerSets> = spec
            .iter()
            .enumerate()
            .map(|(i, &(nsets, dur, pes))| LayerSets {
                node: NodeId(i as u32),
                name: format!("l{i}"),
                logical: i as u32,
                ofm: FeatureShape::new(nsets, dur as usize, 1),
                pes,
                quantum: 1,
                sets: (0..nsets)
                    .map(|y| OfmSet {
                        rect: Rect::new(y, 0, y, dur as usize - 1),
                        duration: dur,
                    })
                    .collect(),
            })
            .collect();
        let n_layers = layers.len();
        let sets_per: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
        if n_layers < 2 {
            return Just((layers, Vec::new())).boxed();
        }
        let edge = (0usize..1024, 0usize..1024, 0usize..1024).prop_map(move |(a, cs, ps)| {
            let cl = 1 + a % (n_layers - 1); // strictly later layer
            let pl = ps % cl; // strictly earlier layer
            let consumer = SetRef {
                layer: cl,
                set: cs % sets_per[cl],
            };
            let producer = SetRef {
                layer: pl,
                set: (cs + ps) % sets_per[pl],
            };
            (consumer, producer)
        });
        proptest::collection::vec(edge, 0..24)
            .prop_map(move |edges| (layers.clone(), edges))
            .boxed()
    })
}

/// All three cost models over a random workload's group sizes.
fn cost_variants(layers: &[LayerSets], hop: u64, gpeu: usize) -> Vec<EdgeCost> {
    let sizes: Vec<usize> = layers.iter().map(|l| l.pes).collect();
    let used: usize = sizes.iter().sum();
    let arch = Architecture::builder()
        .tile(TileSpec {
            pes_per_tile: 2,
            gpeu_ops_per_cycle: gpeu.max(1),
            ..TileSpec::isaac_like()
        })
        .noc_hop_latency(hop)
        .pes(used.max(1))
        .build()
        .expect("workload arch");
    let placement =
        place_groups(&arch, &sizes, PlacementStrategy::Contiguous).expect("placement fits");
    vec![
        EdgeCost::Free,
        EdgeCost::NocHops {
            arch: arch.clone(),
            placement: placement.clone(),
        },
        EdgeCost::NocAndGpeu { arch, placement },
    ]
}

proptest! {
    /// Schedulers: CSR + precomputed costs ≡ naive reference, for every
    /// random DAG, every cost variant, single and batched.
    #[test]
    fn prop_schedulers_match_reference(
        (layers, edges) in arb_workload(),
        hop in 0u64..6,
        gpeu in 1usize..32,
        batch in 1usize..5,
    ) {
        let sets_per: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
        let deps = Dependencies::from_edges(&sets_per, &edges).unwrap();
        for cost in cost_variants(&layers, hop, gpeu) {
            let fast = cross_layer_schedule(&layers, &deps, &cost).unwrap();
            let naive = reference::cross_layer_schedule_naive(&layers, &deps, &cost).unwrap();
            prop_assert_eq!(&fast, &naive);
            validate_schedule(&layers, &deps, &fast, &cost).unwrap();

            // The prebuilt-table entry points agree with the wrappers.
            let costed = CostedDeps::build(&layers, &deps, &cost).unwrap();
            prop_assert_eq!(
                &cross_layer_schedule_costed(&layers, &deps, &costed).unwrap(),
                &fast
            );
            validate_schedule_costed(&layers, &deps, &fast, &costed).unwrap();

            let fast_b =
                batched_cross_layer_schedule(&layers, &deps, &cost, batch).unwrap();
            let naive_b = reference::batched_cross_layer_schedule_naive(
                &layers, &deps, &cost, batch,
            )
            .unwrap();
            prop_assert_eq!(&fast_b, &naive_b);
            prop_assert_eq!(
                &batched_cross_layer_schedule_costed(&layers, &deps, &costed, batch).unwrap(),
                &fast_b
            );

            // The event engine on the same precomputed table agrees too.
            let sim = Simulator::new(&layers, &deps).run_costed(&costed).unwrap();
            prop_assert_eq!(&sim.schedule, &fast);
        }
    }
}

/// Stage II through [`prepare`]'s mapping and Stage I: the mapped graph is
/// `graph` once-each, or, with `wdup_extra = Some(x)`, with Greedy weight
/// duplication at `PE_min + x`. Asserts the compiled-walk CSR analysis
/// equals the reference (`HashSet`-per-set) relation, by value and by
/// serde bytes.
fn assert_stage2_matches_reference(
    name: &str,
    graph: &Graph,
    policy: SetPolicy,
    wdup_extra: Option<usize>,
) {
    let costs = layer_costs(
        graph,
        &CrossbarSpec::wan_nature_2022(),
        &MappingOptions::default(),
    )
    .expect("model has base layers");
    let arch =
        Architecture::paper_case_study(min_pes(&costs) + wdup_extra.unwrap_or(0)).expect("arch");
    let mut cfg = RunConfig::baseline(arch);
    cfg.set_policy = policy;
    if wdup_extra.is_some() {
        cfg = cfg.with_duplication(Solver::Greedy);
    }
    let p = prepare(graph, &cfg).expect("prepare");
    let fast = determine_dependencies(&p.mapped_graph, &p.layers).expect("stage II");
    let naive = reference::determine_dependencies_naive(&p.mapped_graph, &p.layers)
        .expect("reference stage II");
    let mapping = wdup_extra.map_or("once-each".to_string(), |x| format!("wdup at PE_min + {x}"));
    let label = format!("{name} ({mapping}) under {policy:?}");
    assert_eq!(fast, naive, "{label}");
    assert_eq!(
        serde_json::to_string(&fast).unwrap(),
        serde_json::to_string(&naive).unwrap(),
        "{label} wire format"
    );
}

/// Stage II on real models, across Stage-I policies and two duplication
/// budgets: concat and upsample routes (TinyYOLOv3/v4, whose duplication
/// concat trees most rectangles miss), residual adds (ResNet50, and
/// ResNet152's longest chains), and a plain chain (VGG16).
#[test]
fn stage2_matches_reference_on_models_and_policies() {
    let canonical = |g: Graph| {
        canonicalize(&g, &CanonOptions::default())
            .expect("model canonicalizes")
            .into_graph()
    };
    let models: Vec<(&str, Graph)> = vec![
        ("fig5", clsa_cim::models::fig5_example()),
        ("toy_cnn", clsa_cim::models::toy_cnn(None)),
        ("TinyYOLOv4", canonical(clsa_cim::models::tiny_yolo_v4())),
        ("TinyYOLOv3", canonical(clsa_cim::models::tiny_yolo_v3())),
        ("ResNet50", canonical(clsa_cim::models::resnet50())),
        ("ResNet152", canonical(clsa_cim::models::resnet152())),
        ("VGG16", canonical(clsa_cim::models::vgg16())),
    ];
    for (name, g) in &models {
        for max_sets in [None, Some(8), Some(4), Some(2), Some(1)] {
            let policy = SetPolicy {
                max_sets_per_layer: max_sets,
            };
            // Once-each, then PE_min + 64 and serve's largest cold budget.
            for wdup_extra in [None, Some(64), Some(173)] {
                assert_stage2_matches_reference(name, g, policy, wdup_extra);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Stage II ≡ reference on random CNNs, across set policies, with and
    /// without duplication.
    #[test]
    fn prop_stage2_matches_reference_on_random_cnns(
        seed in 0u64..10_000,
        n in 1usize..8,
        max_sets in 0usize..10,
        wdup in proptest::bool::ANY,
    ) {
        let g = canonicalize(&cim_models::random_cnn(seed, n), &CanonOptions::default())
            .expect("canonicalizes")
            .into_graph();
        // 0 stands for the finest policy.
        let policy = SetPolicy { max_sets_per_layer: (max_sets > 0).then_some(max_sets) };
        let label = format!("random_cnn({seed}, {n})");
        assert_stage2_matches_reference(&label, &g, policy, wdup.then_some(64));
    }
}

/// The cost table a pipeline run keeps (`RunResult::costed`, the cached
/// `Prepared::costed_free` under the peak model) simulates exactly like a
/// table built fresh for the same `(mapping, EdgeCost)` pair, on its first
/// simulation (which builds its fan-out) and on later ones.
#[test]
fn pipeline_tables_simulate_like_fresh_ones() {
    let canonical = |g: Graph| {
        canonicalize(&g, &CanonOptions::default())
            .expect("model canonicalizes")
            .into_graph()
    };
    let models: Vec<(&str, Graph)> = vec![
        ("fig5", clsa_cim::models::fig5_example()),
        ("TinyYOLOv4", canonical(clsa_cim::models::tiny_yolo_v4())),
    ];
    for (name, g) in &models {
        let costs = layer_costs(
            g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .expect("model has base layers");
        let arch = Architecture::paper_case_study(min_pes(&costs) + 24).expect("arch");
        let base = RunConfig::baseline(arch)
            .with_cross_layer()
            .with_duplication(Solver::Greedy);
        let prepared = prepare(g, &base).expect("prepare");
        for (noc_cost, gpeu_cost) in [(false, false), (true, false), (true, true)] {
            let cfg = RunConfig {
                noc_cost,
                gpeu_cost,
                ..base.clone()
            };
            let result = run_prepared(&prepared, &cfg).expect("pipeline runs");
            let edge_cost = if noc_cost {
                let sizes: Vec<usize> = result.layers.iter().map(|l| l.pes).collect();
                let arch = cfg.arch.clone();
                let placement = place_groups(&arch, &sizes, cfg.placement).expect("placement");
                if gpeu_cost {
                    EdgeCost::NocAndGpeu { arch, placement }
                } else {
                    EdgeCost::NocHops { arch, placement }
                }
            } else {
                EdgeCost::Free
            };
            let label = format!("{name} noc {noc_cost} gpeu {gpeu_cost}");
            let fresh = CostedDeps::build(&result.layers, &result.deps, &edge_cost).unwrap();
            assert_eq!(*result.costed, fresh, "{label}");
            let sim = Simulator::new(&result.layers, &result.deps);
            let want = sim.run_costed(&fresh).unwrap();
            assert_eq!(sim.run_costed(&result.costed).unwrap(), want, "{label}");
            assert_eq!(sim.run_costed(&result.costed).unwrap(), want, "{label}, again");
            assert_eq!(want.schedule, result.schedule, "{label}");
        }
    }
}
