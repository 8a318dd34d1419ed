//! Interactive inspection tool: run any zoo model under any configuration
//! and print the cost table, schedule summary, Gantt chart, and critical
//! path — the "debugger" view of the scheduling stack.
//!
//! Usage:
//! ```text
//! cargo run --release -p cim-bench --bin inspect -- <model> [options]
//!   <model>            TinyYOLOv3|TinyYOLOv4|VGG16|VGG19|ResNet50|ResNet101|ResNet152
//!   --x <n>            extra PEs over PE_min (default 0)
//!   --wdup             enable weight duplication (greedy)
//!   --wdup-exact       enable weight duplication (exact DP)
//!   --lbl              layer-by-layer scheduling (default: cross-layer)
//!   --sets <n>         cap sets per OFM (default: finest)
//!   --gantt <width>    print a Gantt chart
//!   --critical <n>     print the top-n critical-path layers
//!   --json <path>      export the schedule rows as JSON
//! ```
//!
//! The model may come anywhere on the command line. An unknown one, an
//! `--x` that overflows the PE count, or a configuration the pipeline
//! rejects (e.g. `--sets 0`) exits with status 2.

use cim_bench::cli::{self, Flag, JSON};
use cim_bench::render_table;
use cim_mapping::Solver;
use clsa_core::{critical_cycles_per_layer, critical_path, gantt_rows, gantt_text, run, EdgeCost};

fn main() {
    let args = cli::parse(&[&[
        Flag::positional("model"),
        Flag::value("--x", "n"),
        Flag::switch("--wdup"),
        Flag::switch("--wdup-exact"),
        Flag::switch("--lbl"),
        Flag::value("--sets", "n"),
        Flag::value("--gantt", "width"),
        Flag::value("--critical", "n"),
        JSON,
    ]]);
    let (model, g, mut cfg) = args.zoo_run();
    if args.has("--wdup-exact") {
        cfg = cfg.with_duplication(Solver::ExactDp);
    }
    let gantt: Option<usize> = args.get("--gantt");
    let critical: Option<usize> = args.get("--critical");
    let r = run(&g, &cfg).unwrap_or_else(|e| args.fail(e));

    println!(
        "{} — PE_min {}, architecture {} PEs, {} base-layer groups, {} sets",
        model,
        r.pe_min,
        r.report.total_pes,
        r.layers.len(),
        r.layers.iter().map(|l| l.sets.len()).sum::<usize>()
    );
    println!(
        "schedule: {} cycles ({:.3} ms at 1400 ns/cycle), utilization {:.2}%",
        r.makespan(),
        r.makespan() as f64 * 1400.0 / 1e6,
        r.report.utilization * 100.0
    );
    if let Some(plan) = &r.plan {
        println!(
            "duplication: {} layers duplicated, {} of {} PEs used, objective {:.0} cycles",
            plan.duplicated_layers(),
            plan.pes_used,
            r.report.total_pes,
            plan.objective_cycles
        );
    }

    let rows: Vec<Vec<String>> = r
        .layers
        .iter()
        .enumerate()
        .map(|(li, l)| {
            vec![
                l.name.clone(),
                l.pes.to_string(),
                l.sets.len().to_string(),
                r.schedule
                    .layer(li)
                    .first()
                    .map_or(0, |t| t.start)
                    .to_string(),
                r.schedule
                    .layer(li)
                    .last()
                    .map_or(0, |t| t.finish)
                    .to_string(),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &["layer", "#PE", "sets", "first start", "last finish"],
            &rows
        )
    );

    if let Some(width) = gantt {
        println!("{}", gantt_text(&r.layers, &r.schedule, width));
    }
    if let Some(n) = critical {
        let path = critical_path(&r.layers, &r.deps, &r.schedule, &EdgeCost::Free)
            .expect("schedule came from these stages");
        let mut per_layer = critical_cycles_per_layer(&r.layers, &path);
        per_layer.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        println!("critical path — top {n} contributors:");
        for (name, cycles) in per_layer.into_iter().take(n) {
            println!(
                "  {name:<20} {cycles:>8} cycles ({:.1}% of makespan)",
                cycles as f64 / r.makespan() as f64 * 100.0
            );
        }
    }
    if args.json.is_some() {
        args.write_json(&gantt_rows(&r.layers, &r.schedule));
    }
}
