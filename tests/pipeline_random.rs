//! Property tests over random CNNs: every generated graph must survive the
//! whole pipeline with a machine-validated schedule, the event-driven
//! simulator must agree with the analytic engine, and cross-layer
//! scheduling must never lose to the baseline.

use clsa_cim::arch::Architecture;
use clsa_cim::core::{run, EdgeCost, RunConfig, SchedulingChoice, SetPolicy};
use clsa_cim::frontend::{canonicalize, CanonOptions};
use clsa_cim::mapping::Solver;
use clsa_cim::sim::Simulator;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random graph → canonicalize → schedule: always valid, and the
    /// simulator reproduces the analytic schedule exactly.
    #[test]
    fn random_graphs_schedule_validly(seed in 0u64..10_000, n in 1usize..8) {
        let g = cim_models::random_cnn(seed, n);
        let canon = canonicalize(&g, &CanonOptions::default()).expect("canonicalizes");

        // Probe PE_min with a generous architecture.
        let probe = run(
            canon.graph(),
            &RunConfig::baseline(Architecture::paper_case_study(1_000_000).unwrap()),
        ).expect("probe");
        let pe_min = probe.pe_min;

        let arch = Architecture::paper_case_study(pe_min).unwrap();
        let lbl = run(canon.graph(), &RunConfig::baseline(arch.clone())).expect("baseline");
        let xl = run(canon.graph(), &RunConfig::baseline(arch).with_cross_layer())
            .expect("cross-layer");
        // run() validates internally; re-check the relation the paper
        // depends on: cross-layer never loses.
        prop_assert!(xl.makespan() <= lbl.makespan());

        // The discrete-event simulator agrees with the analytic engine.
        let sim = Simulator::new(&xl.layers, &xl.deps).run(&EdgeCost::Free).expect("sim");
        prop_assert_eq!(sim.schedule.makespan, xl.makespan());
        prop_assert_eq!(&sim.schedule, &xl.schedule);

        // Eagerness (the paper's "earliest feasible starting point"): every
        // set starts exactly at the max of its chain and dependency
        // arrivals — no scheduler-introduced idle time.
        for (li, lt) in xl.schedule.iter_layers().enumerate() {
            for (si, t) in lt.iter().enumerate() {
                let chain = if si == 0 { 0 } else { lt[si - 1].finish };
                let dep_max = xl
                    .deps
                    .of(li, si)
                    .map(|d| xl.schedule.time(d.layer, d.set).finish)
                    .max()
                    .unwrap_or(0);
                prop_assert_eq!(t.start, chain.max(dep_max));
            }
        }
    }

    /// Duplication never slows anything down and respects the budget, for
    /// random graphs, budgets, and both solvers.
    #[test]
    fn random_duplication_is_sound(
        seed in 0u64..10_000,
        n in 1usize..6,
        x in 0usize..12,
        exact in proptest::bool::ANY,
    ) {
        let g = cim_models::random_cnn(seed, n);
        let canon = canonicalize(&g, &CanonOptions::default()).expect("canonicalizes");
        let probe = run(
            canon.graph(),
            &RunConfig::baseline(Architecture::paper_case_study(1_000_000).unwrap()),
        ).expect("probe");
        let pe_min = probe.pe_min;

        let solver = if exact { Solver::ExactDp } else { Solver::Greedy };
        let arch = Architecture::paper_case_study(pe_min + x).unwrap();
        let lbl = run(
            canon.graph(),
            &RunConfig::baseline(Architecture::paper_case_study(pe_min).unwrap()),
        ).expect("lbl");
        let wdup = run(
            canon.graph(),
            &RunConfig::baseline(arch.clone()).with_duplication(solver),
        ).expect("wdup");
        let both = run(
            canon.graph(),
            &RunConfig::baseline(arch).with_duplication(solver).with_cross_layer(),
        ).expect("both");

        prop_assert!(wdup.report.used_pes <= pe_min + x);
        prop_assert!(wdup.makespan() <= lbl.makespan());
        prop_assert!(both.makespan() <= wdup.makespan());
    }

    /// Granularity is monotone: coarser sets never beat finer sets.
    #[test]
    fn granularity_is_monotone(seed in 0u64..5_000, n in 1usize..6) {
        let g = cim_models::random_cnn(seed, n);
        let canon = canonicalize(&g, &CanonOptions::default()).expect("canonicalizes");
        let probe = run(
            canon.graph(),
            &RunConfig::baseline(Architecture::paper_case_study(1_000_000).unwrap()),
        ).expect("probe");
        let arch = Architecture::paper_case_study(probe.pe_min).unwrap();

        let mut last = u64::MAX;
        for policy in [SetPolicy::coarse(1), SetPolicy::coarse(4), SetPolicy::finest()] {
            let mut cfg = RunConfig::baseline(arch.clone()).with_cross_layer();
            cfg.set_policy = policy;
            let r = run(canon.graph(), &cfg).expect("runs");
            prop_assert!(
                r.makespan() <= last,
                "finer sets must not slow the schedule ({policy:?})"
            );
            last = r.makespan();
        }
    }

    /// The baseline scheduler is scheduling-choice-deterministic: repeated
    /// runs give identical schedules (no hidden randomness anywhere).
    #[test]
    fn pipeline_is_deterministic(seed in 0u64..5_000, n in 1usize..6) {
        let g = cim_models::random_cnn(seed, n);
        let canon = canonicalize(&g, &CanonOptions::default()).expect("canonicalizes");
        let probe = run(
            canon.graph(),
            &RunConfig::baseline(Architecture::paper_case_study(1_000_000).unwrap()),
        ).expect("probe");
        let arch = Architecture::paper_case_study(probe.pe_min + 3).unwrap();
        for scheduling in [SchedulingChoice::LayerByLayer, SchedulingChoice::CrossLayer] {
            let mut cfg = RunConfig::baseline(arch.clone()).with_duplication(Solver::Greedy);
            cfg.scheduling = scheduling;
            let a = run(canon.graph(), &cfg).expect("first");
            let b = run(canon.graph(), &cfg).expect("second");
            prop_assert_eq!(a.makespan(), b.makespan());
            prop_assert_eq!(&a.schedule, &b.schedule);
        }
    }
}
