//! `lint-schedule` — the schedule-IR diagnostics CLI: runs any zoo model
//! under any configuration and prints *every* finding of
//! `clsa_core::diagnose` (the validator stops at the first error; this
//! tool reports the lot, plus the advisory analysis findings and the
//! architecture-aware capacity checks the validator never sees).
//!
//! Usage:
//! ```text
//! cargo run --release -p cim-bench --bin lint-schedule -- <model> [options]
//!   <model>            TinyYOLOv3|TinyYOLOv4|VGG16|VGG19|ResNet50|ResNet101|ResNet152
//!   --x <n>            extra PEs over PE_min (default 0)
//!   --wdup             enable weight duplication (greedy)
//!   --lbl              layer-by-layer scheduling (default: cross-layer)
//!   --sets <n>         cap sets per OFM (default: finest)
//!   --json <path>      export the findings as JSON
//! ```
//!
//! The model may come anywhere on the command line. Exit status: 0 when
//! no `error`-severity finding exists, 1 otherwise, 2 on usage errors
//! (including an unknown model, an `--x` that overflows the PE count, a
//! configuration the pipeline rejects, e.g. `--sets 0`, and a `--json`
//! path that cannot be written).

use cim_bench::cli::{self, Flag, JSON};
use clsa_core::{analyze_costed, capacity_diagnostics, run, ScheduleDiagnostic, Severity};

fn main() {
    let args = cli::parse(&[&[
        Flag::positional("model"),
        Flag::value("--x", "n"),
        Flag::switch("--wdup"),
        Flag::switch("--lbl"),
        Flag::value("--sets", "n"),
        JSON,
    ]]);
    let (model, g, cfg) = args.zoo_run();
    let r = run(&g, &cfg).unwrap_or_else(|e| args.fail(e));

    let mut diags: Vec<ScheduleDiagnostic> =
        analyze_costed(&r.layers, &r.deps, &r.schedule, &r.costed);
    diags.extend(capacity_diagnostics(&r.layers, &cfg.arch));

    println!(
        "{} — {} base-layer groups, {} sets, makespan {} cycles",
        model,
        r.layers.len(),
        r.layers.iter().map(|l| l.sets.len()).sum::<usize>(),
        r.makespan()
    );
    for d in &diags {
        println!("{d}");
    }
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warning)
        .count();
    println!(
        "lint-schedule: {} finding(s) — {errors} error(s), {warnings} warning(s)",
        diags.len()
    );

    args.write_json(&diags);

    if errors > 0 {
        std::process::exit(1);
    }
}
