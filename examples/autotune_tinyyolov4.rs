//! Autotuning walkthrough: search the joint (tiling × duplication ×
//! architecture × cost model) space around the paper's TinyYOLOv4 case
//! study and compare the Pareto front against the paper-default
//! configuration (`wdup+32+xinf` on the 256×256 case-study architecture).
//!
//! Run with: `cargo run --release --example autotune_tinyyolov4`
//! (pass `--seed S` to change the annealing seed — the front is
//! byte-reproducible per seed; `--jobs N` to set the worker count —
//! the result is identical for every N; `--cache-dir <path>` to persist
//! candidate evaluations, making re-runs and follow-up searches warm)

use clsa_cim::bench::cli::{self, CACHE_DIR, JOBS, SEED};
use clsa_cim::bench::tune::{autotune, measurement_of, TuneEvaluator};
use clsa_cim::tune::{
    strategy_by_name, Budget, Candidate, DesignSpace, Evaluator, TuneOptions,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = cli::parse(&[&[JOBS, CACHE_DIR, SEED]]);
    let (runner, seed, store) = (args.runner, args.seed_or_default(), args.open_store());

    // 1. The model, canonicalized once (BN folding, partitioning).
    let graph = clsa_cim::bench::artifacts::case_study_graph();

    // 2. The space: 720 joint configurations around the paper's setup.
    let space = DesignSpace::case_study();
    println!(
        "space: {} candidates over axes {:?}; seed: {seed}",
        space.len(),
        space.axis_lens()
    );

    // 3. The paper-default configuration as the reference point:
    //    wdup+32 + cross-layer on the case-study architecture. It lives
    //    in the space too, so the tuner may (re)discover it.
    let reference_candidate: Candidate = space.candidate(space.index_of(
        &clsa_cim::tune::Coords {
            policy: 0,   // finest sets
            mapping: 1,  // wdup (greedy)
            extra: 3,    // x = 32
            crossbar: 0, // 256×256
            tile: 0,     // ISAAC-like, 8 PEs/tile
            hop: 0,      // zero-cost hops
            cost: 0,     // peak model
        },
    ));
    let evaluator = TuneEvaluator::new(&graph, &runner, store.as_ref());
    let reference = measurement_of(
        &clsa_cim::bench::runner::RunSummary::of(&clsa_cim::core::run(
            &graph,
            &reference_candidate.run_config(117)?,
        )?),
    );
    println!(
        "paper default ({}): {} cycles, {:.1}% utilized, {} NoC bytes, {} crossbars",
        reference_candidate.label(),
        reference.latency_cycles,
        reference.utilization * 100.0,
        reference.noc_bytes,
        reference.crossbars
    );
    // (The evaluator agrees with the direct pipeline run.)
    assert_eq!(
        evaluator.evaluate(std::slice::from_ref(&reference_candidate))[0]
            .as_ref()
            .expect("reference is feasible"),
        &reference
    );

    // 4. Anneal for 96 candidates and print the front.
    let mut strategy = strategy_by_name("anneal", seed).expect("anneal exists");
    let (result, rows) = autotune(
        &graph,
        &space,
        strategy.as_mut(),
        &Budget::candidates(96),
        &TuneOptions::default(),
        &runner,
        store.as_ref(),
    )?;
    println!(
        "\ntuner: {} — front of {}:",
        result.stats,
        result.archive.len()
    );
    for row in &rows {
        println!(
            "  #{:>4} {:<34} {:>8} cycles  {:>6.2}% util  {:>9} bytes  {:>4} PEs",
            row.candidate,
            row.label,
            row.latency_cycles,
            row.utilization * 100.0,
            row.noc_bytes,
            row.crossbars
        );
    }

    // 5. The front dominates the paper default on at least one axis.
    assert!(
        result.archive.improves_over(&reference),
        "some front point must beat the paper default somewhere"
    );
    let faster = rows
        .iter()
        .filter(|r| r.latency_cycles < reference.latency_cycles)
        .count();
    let better_ut = rows
        .iter()
        .filter(|r| r.utilization > reference.utilization)
        .count();
    println!(
        "\nvs. paper default: {faster} front points are faster, {better_ut} better utilized"
    );
    if let Some(store) = &store {
        println!("persistent store: {} (re-run me: warm)", store.stats());
    }
    Ok(())
}
