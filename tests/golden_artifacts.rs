//! Golden-file regression tests for the paper artifacts.
//!
//! The aggregated JSON the `fig6`/`table1`/`table2` binaries export with
//! `--json` is pinned byte-for-byte against committed files under
//! `tests/golden/` (generated from the pre-Arc-refactor baseline), so any
//! refactor of the hot-path data model — `Arc`-sharing, cache layering,
//! the persistent store — is provably output-neutral.
//!
//! The rows are computed through `cim_bench::artifacts`, the exact code
//! path the binaries serialize, at `--jobs 1` **and** `--jobs 4`, cold
//! **and** warm from a populated `--cache-dir`.
//!
//! To re-bless after an *intentional* output change:
//!
//! ```text
//! CIM_BLESS=1 cargo test --release --test golden_artifacts
//! ```

mod common;

use std::fs;

use cim_bench::artifacts::{case_study_model, fig6c_results, table1_costs, table2_rows};
use cim_bench::runner::{ResultStore, RunnerOptions};
use common::{blessing, check_golden};

#[test]
fn fig6c_matches_golden_sequential() {
    let rows =
        fig6c_results(&case_study_model(), &RunnerOptions::sequential(), None).expect("sweep runs");
    let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
    check_golden("fig6c.json", &json);
}

#[test]
fn fig6c_matches_golden_at_four_workers() {
    if blessing() {
        return; // sequential test owns the bless write
    }
    let rows =
        fig6c_results(&case_study_model(), &RunnerOptions::with_jobs(4), None).expect("sweep runs");
    let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
    check_golden("fig6c.json", &json);
}

#[test]
fn fig6c_matches_golden_cold_and_warm_through_the_store() {
    if blessing() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("cim_golden_store_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // Cold: computes everything, populates the store.
    let model = case_study_model();
    let store = ResultStore::open(&dir).expect("store opens");
    let cold =
        fig6c_results(&model, &RunnerOptions::with_jobs(4), Some(&store)).expect("cold sweep");
    assert_eq!(store.stats().hits, 0, "cold run has nothing to hit");
    assert!(store.stats().writes > 0, "cold run persists its rows");
    check_golden(
        "fig6c.json",
        &serde_json::to_string_pretty(&cold).expect("rows serialize"),
    );

    // Warm: a fresh handle (fresh process in spirit) replays from disk —
    // still byte-identical, at --jobs 1 and --jobs 4.
    for jobs in [1, 4] {
        let store = ResultStore::open(&dir).expect("store reopens");
        let warm = fig6c_results(&model, &RunnerOptions::with_jobs(jobs), Some(&store))
            .expect("warm sweep");
        let stats = store.stats();
        assert_eq!(stats.hits, stats.lookups, "warm run is all hits");
        assert!(stats.hits > 0);
        check_golden(
            "fig6c.json",
            &serde_json::to_string_pretty(&warm).expect("rows serialize"),
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn table1_matches_golden() {
    let json = serde_json::to_string_pretty(&table1_costs()).expect("rows serialize");
    check_golden("table1.json", &json);
}

#[test]
fn table2_matches_golden() {
    let json = serde_json::to_string_pretty(&table2_rows(2)).expect("rows serialize");
    check_golden("table2.json", &json);
}

/// The Fig. 4 weight-duplication rewrite's output, pinned by structure:
/// per model (`fig5` and the zoo, canonicalized) and mapping (once-each,
/// and Greedy duplication at `PE_min + x`), the mapped graph's node count
/// and the 64-bit FNV-1a of its serde bytes. Node order, names, shapes,
/// params and `logical_layer` markers all feed the hash.
#[test]
fn mapped_graphs_match_golden() {
    use cim_arch::CrossbarSpec;
    use cim_bench::runner::FnvWriter;
    use cim_frontend::{canonicalize, CanonOptions};
    use cim_mapping::{apply_duplication, layer_costs, min_pes, optimize, MappingOptions, Solver};

    let xbar = CrossbarSpec::wan_nature_2022();
    let mut text = String::new();
    for name in cim_models::model_names() {
        let raw = cim_models::graph_by_name(name).expect("registry model");
        let g = canonicalize(&raw, &CanonOptions::default())
            .expect("model canonicalizes")
            .into_graph();
        let costs = layer_costs(&g, &xbar, &MappingOptions::default()).expect("layer costs");
        let pe_min = min_pes(&costs);
        let mappings = [
            ("once-each", 0),
            ("wdup+16", 16),
            ("wdup+64", 64),
            ("wdup+173", 173),
        ];
        for (label, extra) in mappings {
            let plan = optimize(&costs, pe_min + extra, Solver::Greedy).expect("plan");
            let mapped = apply_duplication(&g, &costs, &plan).expect("rewrite");
            let mut hash = FnvWriter::new();
            serde_json::to_fmt_writer(&mut hash, &mapped).expect("graph serializes");
            text.push_str(&format!(
                "{name} {label} nodes={} fnv={:016x}\n",
                mapped.len(),
                hash.finish()
            ));
        }
    }
    check_golden("mapped_graphs.txt", &text);
}

/// `tests/golden/stage_artifacts.txt` pins Stages I and II on the mapped
/// graphs of `mapped_graphs.txt`, under the finest, coarse(8) and
/// coarse(2) set policies: the set and edge counts, and the 64-bit FNV-1a
/// of the serde bytes of the `Vec<LayerSets>` and of the `Dependencies`.
#[test]
fn stage_artifacts_match_golden() {
    use cim_arch::CrossbarSpec;
    use cim_bench::runner::FnvWriter;
    use cim_frontend::{canonicalize, CanonOptions};
    use cim_mapping::{apply_duplication, layer_costs, min_pes, optimize, MappingOptions, Solver};
    use clsa_core::{determine_dependencies, determine_sets, SetPolicy};

    let xbar = CrossbarSpec::wan_nature_2022();
    let options = MappingOptions::default();
    let mut text = String::new();
    for name in cim_models::model_names() {
        let raw = cim_models::graph_by_name(name).expect("registry model");
        let g = canonicalize(&raw, &CanonOptions::default())
            .expect("model canonicalizes")
            .into_graph();
        let costs = layer_costs(&g, &xbar, &options).expect("layer costs");
        let pe_min = min_pes(&costs);
        for (label, extra) in [
            ("once-each", 0),
            ("wdup+16", 16),
            ("wdup+64", 64),
            ("wdup+173", 173),
        ] {
            let plan = optimize(&costs, pe_min + extra, Solver::Greedy).expect("plan");
            let mapped = apply_duplication(&g, &costs, &plan).expect("rewrite");
            let mapped_costs = layer_costs(&mapped, &xbar, &options).expect("layer costs");
            for (policy_label, policy) in [
                ("finest", SetPolicy::finest()),
                ("coarse8", SetPolicy::coarse(8)),
                ("coarse2", SetPolicy::coarse(2)),
            ] {
                let layers = determine_sets(&mapped, &mapped_costs, &policy).expect("Stage I");
                let deps = determine_dependencies(&mapped, &layers).expect("Stage II");
                let mut layers_fnv = FnvWriter::new();
                serde_json::to_fmt_writer(&mut layers_fnv, &layers).expect("sets serialize");
                let mut deps_fnv = FnvWriter::new();
                serde_json::to_fmt_writer(&mut deps_fnv, &deps).expect("relation serializes");
                text.push_str(&format!(
                    "{name} {label} {policy_label} sets={} edges={} layers_fnv={:016x} \
                     deps_fnv={:016x}\n",
                    layers.iter().map(|l| l.sets.len()).sum::<usize>(),
                    deps.num_edges(),
                    layers_fnv.finish(),
                    deps_fnv.finish()
                ));
            }
        }
    }
    check_golden("stage_artifacts.txt", &text);
}
