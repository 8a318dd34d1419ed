//! Differential suite for the multi-tenant fabric: the shared event core
//! against the single-tenant engine, and the mix runner against its own
//! determinism laws.
//!
//! The fabric's credibility rests on two claims. First, `run_shared` is
//! not a *second* simulator that could drift from `Simulator` — with one
//! tenant and no contention it reproduces `run_costed` byte-for-byte
//! (indeed the engine delegates to it). Second, a contended mix is a pure
//! function of the *set* of tenants and the config: worker count and
//! insertion order must never leak into the result. Both claims are
//! checked here on real models, the second across random mixes.
//!
//! A third check pins the contended core's output itself: a fixed list of
//! mixes in which links, tiles and weight capacity all contend is compared
//! byte-for-byte with `tests/golden/fabric_contended.json`. To re-bless
//! after an *intentional* output change:
//!
//! ```text
//! CIM_BLESS=1 cargo test --release --test fabric_differential
//! ```

mod common;

use clsa_cim::arch::{place_groups_at, PlacementStrategy};
use clsa_cim::core::{CostedDeps, EdgeCost};
use clsa_cim::fabric::{
    arch_for_mix, run_mix, CoResidency, FabricConfig, FabricResult, FabricSpec, TenantInstance,
    TenantSpec,
};
use clsa_cim::sim::{run_shared, FabricContention, Simulator, TenantWorkload};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Stage-I/II artifacts are model-dependent but case-independent —
/// prepare each model once for the whole suite.
fn fig5() -> &'static TenantInstance {
    static CELL: OnceLock<TenantInstance> = OnceLock::new();
    CELL.get_or_init(|| {
        TenantInstance::prepare("fig5", &clsa_cim::models::fig5_example()).expect("fig5 prepares")
    })
}

fn toy_cnn() -> &'static TenantInstance {
    static CELL: OnceLock<TenantInstance> = OnceLock::new();
    CELL.get_or_init(|| {
        TenantInstance::prepare("toy_cnn", &clsa_cim::models::toy_cnn(None))
            .expect("toy_cnn prepares")
    })
}

fn tiny_yolo_v4() -> &'static TenantInstance {
    static CELL: OnceLock<TenantInstance> = OnceLock::new();
    CELL.get_or_init(|| {
        TenantInstance::prepare("TinyYOLOv4", &clsa_cim::models::tiny_yolo_v4())
            .expect("TinyYOLOv4 prepares")
    })
}

/// N = 1, no contention: the shared core must reproduce the single-tenant
/// engine byte-for-byte — same schedule, same statistics, same wire
/// format. Checked both with the fabric context disabled (`home_tiles:
/// None`) and with tile-occupancy tracking active but uncontended: a
/// lone tenant never waits for itself, so the windows must be invisible.
#[test]
fn single_tenant_uncontended_matches_engine_bytes() {
    for instance in [fig5(), toy_cnn()] {
        let arch = arch_for_mix(std::slice::from_ref(instance), 0).expect("arch fits");
        let sizes: Vec<usize> = instance.layers.iter().map(|l| l.pes).collect();
        let placement =
            place_groups_at(&arch, &sizes, PlacementStrategy::Contiguous, 0).expect("placement");
        let home_tiles: Vec<_> = (0..sizes.len()).map(|g| placement.home_tile(g)).collect();
        let costed = CostedDeps::build(
            &instance.layers,
            &instance.deps,
            &EdgeCost::NocHops {
                arch: arch.clone(),
                placement,
            },
        )
        .expect("cost tables");

        let engine = Simulator::new(&instance.layers, &instance.deps)
            .run_costed(&costed)
            .expect("engine run");
        let engine_json = serde_json::to_string(&engine).expect("serializes");

        for (tag, homes, contention) in [
            ("no fabric context", None, FabricContention::uncontended()),
            (
                "occupancy tracked, uncontended",
                Some(home_tiles.clone()),
                FabricContention {
                    noc: Some(*arch.noc()),
                    spec: clsa_cim::fabric::FabricSpec::uncontended(),
                },
            ),
        ] {
            let workload = TenantWorkload {
                layers: &instance.layers,
                deps: &instance.deps,
                costed: &costed,
                arrival: 0,
                home_tiles: homes,
            };
            let shared =
                run_shared(std::slice::from_ref(&workload), &contention).expect("shared run");
            assert_eq!(shared.tenants.len(), 1);
            assert_eq!(
                serde_json::to_string(&shared.tenants[0].result).expect("serializes"),
                engine_json,
                "{}: {tag} must be byte-identical to the engine",
                instance.model
            );
            assert_eq!(shared.makespan, shared.tenants[0].span_cycles);
            assert_eq!(shared.tenants[0].occupancy_stall_cycles, 0);
            assert_eq!(shared.tenants[0].link_stall_cycles, 0);
            assert_eq!(shared.tenants[0].evictions, 0);
        }
    }
}

/// The invariants every mix result must satisfy, contended or not.
fn check_invariants(result: &FabricResult, expected_tenants: usize, tiles: u128) {
    assert_eq!(result.tenants.len(), expected_tenants);
    for t in &result.tenants {
        // No starvation: every tenant finishes real work.
        assert!(t.span_cycles > 0, "tenant {} starved", t.tenant);
        assert!(t.solo_cycles > 0, "tenant {} has no solo baseline", t.tenant);
        // Contention only ever delays — never accelerates.
        assert!(t.slowdown_milli >= 1000, "tenant {} sped up?", t.tenant);
    }
    // Conservation: tiles execute one tenant at a time, so attributed
    // busy windows cannot exceed the chip's cycle budget.
    let busy: u128 = result.tenants.iter().map(|t| t.busy_cycles as u128).sum();
    assert!(busy <= tiles * result.makespan_cycles as u128, "busy overflow");
    assert!(result.utilization_milli <= 1000);
    assert!(result.jain_fairness_milli <= 1000);
    assert!(result.worst_slowdown_milli >= 1000);
}

/// The contended core's output, pinned: every mix below must reproduce
/// `tests/golden/fabric_contended.json` byte-for-byte (re-bless with
/// `CIM_BLESS=1`), and each one must exercise all four contention
/// counters, so the golden covers link reservation, tile windows and LRU
/// residency rather than an idle fabric.
///
/// The pinned mixes: TinyYOLOv4 × 2 + fig5 × 2 under both policies and
/// two arrival staggers, with 4-byte/cycle links, a weight capacity of
/// 8 % of the mix's working set and 50 reload cycles per PE.
#[test]
fn contended_mixes_match_golden() {
    let mut instances = tiny_yolo_v4().streams_of(&TenantSpec {
        model: "TinyYOLOv4".into(),
        streams: 2,
    });
    instances.extend(fig5().streams_of(&TenantSpec {
        model: "fig5".into(),
        streams: 2,
    }));
    let arch = arch_for_mix(&instances, 0).expect("arch fits");
    let working_set: usize = instances.iter().map(|i| i.pe_min).sum();
    let mut mixes = BTreeMap::new();
    for policy in [CoResidency::Shared, CoResidency::Partitioned] {
        for stagger in [0, 500] {
            let config = FabricConfig {
                policy,
                fabric: FabricSpec {
                    link_bandwidth_bytes_per_cycle: 4,
                    capacity_pes: working_set * 8 / 100,
                    reload_cycles_per_pe: 50,
                },
                stagger,
                seed: 7,
                ..FabricConfig::new(arch.clone())
            };
            let result = run_mix(&instances, &config).expect("mix runs");
            mixes.insert(format!("{policy}/stagger-{stagger}"), result);
        }
    }
    for (label, r) in &mixes {
        let occupancy: u64 = r.tenants.iter().map(|t| t.occupancy_stall_cycles).sum();
        assert!(r.link_stall_cycles > 0, "{label}: no link stalls");
        assert!(occupancy > 0, "{label}: no occupancy stalls");
        assert!(r.evictions > 0, "{label}: no evictions");
        assert!(r.reloads > 0, "{label}: no reloads");
        check_invariants(r, 4, arch.num_tiles() as u128);
    }
    let json = serde_json::to_string_pretty(&mixes).expect("results serialize");
    common::check_golden("fabric_contended.json", &json);
}

/// fig5 scaled from solo to 4 streams on a chip sized for the mix (shared
/// policy, no stagger, seed 0, unbounded links and capacity, 50 reload
/// cycles per PE): the three results must reproduce
/// `tests/golden/fabric_scaling.json` byte-for-byte, the worst slowdown
/// must not fall as streams are added, and each mix must come out
/// byte-identical at `jobs` 4 with its insertion order reversed.
#[test]
fn fig5_scaling_matches_golden() {
    let mut mixes = BTreeMap::new();
    let mut worst = Vec::new();
    for streams in [1, 2, 4] {
        let instances = fig5().streams_of(&TenantSpec {
            model: "fig5".into(),
            streams,
        });
        let mut config = FabricConfig::new(arch_for_mix(&instances, 0).expect("arch fits"));
        config.fabric.reload_cycles_per_pe = 50;
        let result = run_mix(&instances, &config).expect("mix runs");
        let json = serde_json::to_string(&result).expect("serializes");

        let mut reversed = instances.clone();
        reversed.reverse();
        config.jobs = 4;
        let again = run_mix(&reversed, &config).expect("mix runs");
        assert_eq!(
            serde_json::to_string(&again).expect("serializes"),
            json,
            "fig5:{streams}"
        );

        check_invariants(&result, streams, config.arch.num_tiles() as u128);
        worst.push(result.worst_slowdown_milli);
        mixes.insert(format!("fig5:{streams}"), result);
    }
    assert!(worst.windows(2).all(|w| w[0] <= w[1]), "{worst:?}");
    let json = serde_json::to_string_pretty(&mixes).expect("results serialize");
    common::check_golden("fabric_scaling.json", &json);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random ≤ 4-tenant mixes across both policies and all three
    /// contention knobs: the result is byte-identical for `jobs` 1 vs 4
    /// and for any insertion order, and every invariant holds.
    #[test]
    fn prop_mixes_are_deterministic_and_fair(
        fig5_streams in 1usize..3,
        toy_streams in 0usize..3,
        stagger in 0u64..40,
        seed in 0u64..1_000_000,
        // Packed: low bit = policy, high bits = insertion rotation (the
        // vendored proptest caps strategy tuples at 8 elements).
        policy_and_rotation in 0usize..8,
        bw_sel in 0usize..3,
        cap_sel in 0usize..3,
        reload in 1u64..60,
    ) {
        let policy_bit = policy_and_rotation & 1;
        let rotation = policy_and_rotation >> 1;
        let mut instances = fig5().streams_of(&TenantSpec {
            model: "fig5".into(),
            streams: fig5_streams,
        });
        if toy_streams > 0 {
            instances.extend(toy_cnn().streams_of(&TenantSpec {
                model: "toy_cnn".into(),
                streams: toy_streams,
            }));
        }
        let n = instances.len();

        let mut config = FabricConfig::new(arch_for_mix(&instances, 0).expect("arch fits"));
        config.policy = if policy_bit == 0 {
            CoResidency::Shared
        } else {
            CoResidency::Partitioned
        };
        config.stagger = stagger;
        config.seed = seed;
        config.fabric.link_bandwidth_bytes_per_cycle = [0, 4, 16][bw_sel];
        config.fabric.capacity_pes = match cap_sel {
            0 => 0, // unbounded
            _ => {
                // Tight: roughly one tenant's weights stay resident.
                let largest: usize = instances
                    .iter()
                    .map(|i| i.layers.iter().map(|l| l.pes).sum())
                    .max()
                    .unwrap_or(1);
                largest + cap_sel
            }
        };
        config.fabric.reload_cycles_per_pe = reload;

        let baseline = run_mix(&instances, &config).expect("mix runs");
        let baseline_json = serde_json::to_string(&baseline).expect("serializes");

        // Same mix, rotated insertion order, parallel solo baselines.
        let mut rotated = instances.clone();
        rotated.rotate_left(rotation % n);
        config.jobs = 4;
        let alt = run_mix(&rotated, &config).expect("mix runs");
        prop_assert_eq!(serde_json::to_string(&alt).expect("serializes"), baseline_json);

        check_invariants(&baseline, n, config.arch.num_tiles() as u128);
    }
}
