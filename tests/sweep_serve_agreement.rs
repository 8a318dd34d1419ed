//! Sweeps and `cim-serve` build the paper's configurations from one
//! vocabulary (`PaperStrategy`) on one model handle (`Model`), so a store
//! that a sweep wrote answers the matching serve requests warm, and each
//! reply carries the numbers of the matching sweep row.

use std::sync::Arc;

use clsa_cim::bench::runner::{sweep_jobs, Model, ResultStore, RunnerOptions, Sweep};
use clsa_cim::serve::{EngineOptions, Request, ServeEngine, Submission};
use clsa_cim::tune::{Clock, ManualClock};

#[test]
fn a_store_a_sweep_wrote_answers_serve_with_the_sweep_rows() {
    let dir = std::env::temp_dir().join(format!("cim_sweep_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The six keys `serve-bench` sends: both PE_min strategies and the
    // `wdup` pair at x = 1 and 2.
    let fig5 = Model::canonical("fig5", &clsa_cim::models::fig5_example()).expect("fig5");
    let jobs = sweep_jobs(&fig5, &[1, 2]).expect("jobs build");
    let store = ResultStore::open(&dir).expect("store opens");
    let rows = Sweep {
        store: Some(&store),
        ..Sweep::new(&jobs, RunnerOptions::sequential())
    }
    .run()
    .expect("sweep runs")
    .results;
    assert_eq!(rows.len(), 6);

    // A fresh engine over the same directory, with nothing in memory.
    let engine = ServeEngine::new(
        EngineOptions::default(),
        Some(ResultStore::open(&dir).expect("store reopens")),
        Arc::new(ManualClock::new()) as Arc<dyn Clock + Send + Sync>,
    );
    let requests = [
        ("layer-by-layer", 0, "layer-by-layer"),
        ("baseline", 0, "layer-by-layer"),
        ("xinf", 0, "xinf"),
        ("wdup", 1, "wdup+1"),
        ("wdup+xinf", 1, "wdup+1+xinf"),
        ("wdup", 2, "wdup+2"),
        ("wdup+xinf", 2, "wdup+2+xinf"),
    ];
    for (i, &(strategy, x, label)) in requests.iter().enumerate() {
        let case = format!("{strategy} at x {x}");
        let req = Request::schedule(&format!("r{i}"), "fig5", strategy, x);
        let Submission::Immediate(response) = engine.submit(&req) else {
            panic!("{case}: queued instead of answered from the store");
        };
        let reply = response
            .as_schedule()
            .unwrap_or_else(|| panic!("{case}: {response:?}"));
        let row = rows.iter().find(|r| r.label == label).expect("sweep row");
        assert_eq!(reply.label, row.label, "{case}");
        assert_eq!(reply.pe_min, row.pe_min, "{case}");
        assert_eq!(reply.total_pes, row.total_pes, "{case}");
        assert_eq!(reply.makespan_cycles, row.makespan_cycles, "{case}");
        assert_eq!(reply.utilization, row.utilization, "{case}");
        assert_eq!(reply.duplicated_layers, row.duplicated_layers, "{case}");
    }
    let stats = engine.stats();
    assert_eq!(stats.warm_store, requests.len() as u64);
    assert_eq!(stats.cache_lookups, 0, "nothing was looked up in memory");
    let _ = std::fs::remove_dir_all(&dir);
}
