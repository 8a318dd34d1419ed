//! Design-space exploration over the scheduling pipeline — searches the
//! joint space of Stage-I tiling policy × weight duplication ×
//! architecture parameters × edge-cost model and reports the Pareto
//! front over (latency, utilization, NoC bytes, crossbar count).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p cim-bench --bin autotune -- \
//!     [--model TinyYOLOv4] [--space tiny|case-study|wide] \
//!     [--strategy grid|random|anneal] [--budget N] [--wall-secs S] \
//!     [--batch N] [--seed S] [--jobs N] [--cache-dir <path>] [--json <path>] \
//!     [--shard i/n|merge] \
//!     [--fault-seed S --fault-rate site=per_mille ... --fault-delay-ms MS]
//! ```
//!
//! With `--shard i/n --cache-dir D`, the process evaluates only the
//! candidates of the design space its fingerprint-range slice owns and
//! persists their summaries into the shared store `D`; once every slice
//! has run, `--shard merge --cache-dir D` performs the strategy search
//! with every measurement replayed from disk — byte-identical to the
//! unsharded run.
//!
//! The run is deterministic for a fixed `(seed, jobs)` pair — in fact the
//! exported front is byte-identical for *every* `--jobs` value, and for
//! cold vs. warm `--cache-dir` runs (the persistent store then makes
//! re-runs nearly free: candidates evaluated by any earlier run replay
//! from disk). The binary echoes the seed it ran with.
//!
//! Because the search is deterministic and every measurement persists as
//! it completes, the store is also the resume state: after a killed run,
//! rerunning the same command with the same `--cache-dir` replays every
//! already-measured candidate warm and picks up where the run died. The
//! `--fault-*` flags drive deterministic chaos injection into the store's
//! I/O paths (see `cim_bench::runner::fault`); a candidate whose pipeline
//! evaluation panics is quarantined as infeasible instead of aborting
//! the search.
//!
//! Exit status 2 when the search cannot run: a bad flag or value (an
//! unknown model, space or strategy, `--budget 0`), a `--shard` mode
//! without `--cache-dir`, a model that does not canonicalize, or an
//! invalid design space.

use std::process::ExitCode;
use std::time::Duration;

use cim_bench::cli::{self, sweep_exit_code, Args, Flag, SEED, SWEEP};
use cim_bench::render_table;
use cim_bench::runner::{canonical, ShardMode};
use cim_bench::tune::{autotune, autotune_shard, AutotuneReport, ParetoRow};
use cim_tune::{strategy_by_name, Budget, DesignSpace, TuneOptions};
use clsa_core::CoreError;

fn print_front(rows: &[ParetoRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.candidate.to_string(),
                r.label.clone(),
                r.latency_cycles.to_string(),
                format!("{:.2}%", r.utilization * 100.0),
                r.noc_bytes.to_string(),
                r.crossbars.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "candidate",
                "configuration",
                "latency (cycles)",
                "utilization",
                "NoC bytes",
                "crossbars"
            ],
            &table
        )
    );
}

fn main() -> ExitCode {
    let args = cli::parse(&[
        &[
            Flag::value("--model", "name"),
            Flag::value("--space", "tiny|case-study|wide"),
            Flag::value("--strategy", "grid|random|anneal"),
            Flag::value("--budget", "N"),
            Flag::value("--wall-secs", "S"),
            Flag::value("--batch", "N"),
            SEED,
        ],
        SWEEP,
    ]);
    sweep_exit_code(run(&args).map(|()| 0))
}

fn run(args: &Args) -> Result<(), CoreError> {
    let model = args.value("--model").unwrap_or("TinyYOLOv4");
    let space_name = args.value("--space").unwrap_or("case-study");
    let strategy_name = args.value("--strategy").unwrap_or("anneal");
    let budget_candidates: Option<usize> = args.get("--budget");
    if budget_candidates == Some(0) {
        args.fail("--budget must be at least 1");
    }
    let wall_secs: Option<u64> = args.get("--wall-secs");
    let batch: usize = args.get("--batch").unwrap_or(TuneOptions::default().batch);
    let seed = args.seed_or_default();

    let raw = cim_models::graph_by_name(model).unwrap_or_else(|e| args.fail(e));
    let space = DesignSpace::preset(space_name).unwrap_or_else(|| {
        args.fail(format!("invalid value {space_name:?} for --space <tiny|case-study|wide>"))
    });
    let mut strategy = strategy_by_name(strategy_name, seed).unwrap_or_else(|| {
        args.fail(format!("invalid value {strategy_name:?} for --strategy <grid|random|anneal>"))
    });
    let (graph, _) = canonical(&raw)?;
    let mut budget = Budget {
        max_candidates: budget_candidates,
        max_wall: wall_secs.map(Duration::from_secs),
    };
    // Grid and random exhaust the space on their own; an unbounded anneal
    // never stops, so give it a default budget — and say so, since a
    // capped run is not an exhaustive one.
    if budget.max_candidates.is_none() && budget.max_wall.is_none() && strategy.name() == "anneal"
    {
        let cap = space.len().min(256);
        eprintln!("note: no --budget/--wall-secs; capping the anneal at {cap} candidates");
        budget = Budget::candidates(cap);
    }

    println!(
        "autotune: {model} over `{space_name}` ({} candidates), strategy {}, seed: {seed}",
        space.len(),
        strategy.name(),
    );
    let store = args.open_store();
    args.shard.require_store(store.as_ref())?;
    let runner = args.runner;
    if let (ShardMode::Slice(shard), Some(store)) = (args.shard, &store) {
        // A slice warms its owned subset of the *whole* space; the
        // strategy/budget only shape the final merge run.
        let report = autotune_shard(&graph, &space, shard, &runner, store)?;
        println!("{report}");
        args.report_faults();
        args.note_slice_done();
        return Ok(());
    }
    // A merge is a plain strategy run against the warm store —
    // byte-identical to unsharded by tuner determinism.
    let (result, rows) = autotune(
        &graph,
        &space,
        strategy.as_mut(),
        &budget,
        &TuneOptions { batch },
        &runner,
        store.as_ref(),
    )?;

    println!(
        "\nPareto front — {} of {} evaluated candidates survive dominance pruning\n",
        rows.len(),
        result.stats.evaluated
    );
    print_front(&rows);
    println!("tuner: {} (jobs {})", result.stats, runner.jobs);
    if let Some(store) = &store {
        println!("persistent store: {}", store.stats());
    }
    args.report_faults();

    args.write_json(&AutotuneReport {
        model: model.to_string(),
        space: space_name.to_string(),
        strategy: strategy.name().to_string(),
        seed,
        budget: budget.max_candidates,
        evaluated: result.stats.evaluated,
        infeasible: result.stats.infeasible,
        front: rows,
    });
    Ok(())
}
