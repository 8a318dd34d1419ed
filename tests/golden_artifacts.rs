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

use cim_bench::artifacts::{case_study_graph, fig6c_results, table1_costs, table2_rows};
use cim_bench::runner::{ResultStore, RunnerOptions};
use common::{blessing, check_golden};

#[test]
fn fig6c_matches_golden_sequential() {
    let rows =
        fig6c_results(&case_study_graph(), &RunnerOptions::sequential(), None).expect("sweep runs");
    let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
    check_golden("fig6c.json", &json);
}

#[test]
fn fig6c_matches_golden_at_four_workers() {
    if blessing() {
        return; // sequential test owns the bless write
    }
    let rows =
        fig6c_results(&case_study_graph(), &RunnerOptions::with_jobs(4), None).expect("sweep runs");
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
    let g = case_study_graph();
    let store = ResultStore::open(&dir).expect("store opens");
    let cold = fig6c_results(&g, &RunnerOptions::with_jobs(4), Some(&store)).expect("cold sweep");
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
        let warm =
            fig6c_results(&g, &RunnerOptions::with_jobs(jobs), Some(&store)).expect("warm sweep");
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
