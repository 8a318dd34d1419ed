//! Fig. 7-style sweep over the benchmark zoo: speedup and utilization of
//! `wdup+x`, `xinf`, and `wdup+x+xinf` against layer-by-layer inference,
//! executed on the parallel batched evaluation engine.
//!
//! Run with: `cargo run --release --example benchmark_sweep`
//! (pass a model name to restrict, e.g. `-- VGG16`; pass `--jobs N` to
//! set the worker count — results are identical for every N; pass
//! `--cache-dir <path>` to persist sweep summaries across runs)

use clsa_cim::bench::cli::{self, Flag, CACHE_DIR, JOBS};
use clsa_cim::bench::runner::{sweep_jobs, Model, Sweep};
use clsa_cim::bench::PAPER_XS;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = cli::parse(&[&[Flag::positional("model"), JOBS, CACHE_DIR]]);
    let (runner, store, filter) = (args.runner, args.open_store(), args.value("model"));

    let models: Vec<_> = clsa_cim::models::table2_models()
        .into_iter()
        .filter(|info| {
            filter.is_none_or(|f| info.name.eq_ignore_ascii_case(f))
        })
        .map(|info| Model::canonical(info.name, &info.build()))
        .collect::<Result<_, _>>()?;
    if models.is_empty() {
        let table2 = clsa_cim::models::table2_models();
        let known = table2.iter().map(|m| m.name).collect::<Vec<_>>().join(", ");
        let filter = filter.unwrap_or_default();
        args.fail(format!("unknown model `{filter}` (known: {known})"));
    }

    // One flat job list over all models, each canonicalized once; the
    // engine shares Stage-I/II work between the baseline and xinf rows of
    // a model and spreads the jobs over the worker lanes.
    let mut jobs = Vec::new();
    for model in &models {
        jobs.extend(sweep_jobs(model, &PAPER_XS)?);
    }
    eprintln!(
        "running {} configurations on {} workers...",
        jobs.len(),
        runner.jobs
    );
    let batch = Sweep {
        store: store.as_ref(),
        ..Sweep::new(&jobs, runner)
    }
    .run()?;

    for model in &models {
        let name = model.name();
        let rows: Vec<_> = batch.results.iter().filter(|r| r.model == name).collect();
        let base = rows.first().expect("baseline row");
        println!(
            "\n{} — PE_min {}",
            name, base.pe_min
        );
        println!(
            "  {:<14} {:>9} cycles  {:>6}   {:>6}",
            "config", "makespan", "speedup", "util"
        );
        for r in rows {
            println!(
                "  {:<14} {:>9} cycles  {:>6.2}x  {:>6.2}%",
                r.label,
                r.makespan_cycles,
                r.speedup,
                r.utilization * 100.0
            );
        }
    }
    println!("\nschedule cache: {}", batch.stats);
    if let Some(stats) = batch.store_stats {
        println!("persistent store: {stats}");
    }
    println!("paper reference: best speedup 29.2x / best utilization 20.1 % (TinyYOLOv3)");
    Ok(())
}
