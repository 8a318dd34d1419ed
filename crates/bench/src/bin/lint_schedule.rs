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

use cim_arch::Architecture;
use cim_bench::cli::{self, Flag, JSON};
use cim_frontend::{canonicalize, CanonOptions};
use cim_mapping::Solver;
use clsa_core::{
    analyze_costed, capacity_diagnostics, run, RunConfig, ScheduleDiagnostic, SetPolicy, Severity,
};

fn main() {
    let args = cli::parse(&[&[
        Flag::positional("model"),
        Flag::value("--x", "n"),
        Flag::switch("--wdup"),
        Flag::switch("--lbl"),
        Flag::value("--sets", "n"),
        JSON,
    ]]);
    let Some(model) = args.value("model") else {
        args.fail("missing <model>");
    };
    let zoo = cim_models::all_models();
    let Some(info) = zoo.iter().find(|m| m.name.eq_ignore_ascii_case(model)) else {
        let known = zoo.iter().map(|m| m.name).collect::<Vec<_>>().join(", ");
        args.fail(format!("unknown model `{model}` (known: {known})"));
    };

    let x: usize = args.get("--x").unwrap_or(0);
    let wdup = args.has("--wdup");
    let lbl = args.has("--lbl");
    let sets: Option<usize> = args.get("--sets");

    let g = canonicalize(&info.build(), &CanonOptions::default())
        .expect("model canonicalizes")
        .into_graph();
    let Some(pes) = info.pe_min_256.checked_add(x) else {
        args.fail(format!("--x {x}: PE_min {} + x overflows", info.pe_min_256));
    };
    let arch = Architecture::paper_case_study(pes).expect("arch");
    let mut cfg = RunConfig::baseline(arch.clone());
    if !lbl {
        cfg = cfg.with_cross_layer();
    }
    if wdup {
        cfg = cfg.with_duplication(Solver::Greedy);
    }
    if let Some(n) = sets {
        cfg.set_policy = SetPolicy::coarse(n);
    }
    let r = run(&g, &cfg).unwrap_or_else(|e| args.fail(e));

    let mut diags: Vec<ScheduleDiagnostic> =
        analyze_costed(&r.layers, &r.deps, &r.schedule, &r.costed);
    diags.extend(capacity_diagnostics(&r.layers, &arch));

    println!(
        "{} — {} base-layer groups, {} sets, makespan {} cycles",
        info.name,
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
