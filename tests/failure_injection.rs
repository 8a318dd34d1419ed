//! Failure injection across the stack: malformed inputs must produce typed
//! errors at API boundaries — never panics, never silent corruption.
//!
//! The second half exercises the PR-9 fault model end to end: store
//! corruption classes (a writer killed mid-append, a partial row inside
//! the log) and the serve path under malformed, oversized, and
//! chaos-dropped frames — all driven deterministically through
//! [`FaultPlan`](clsa_cim::bench::runner::FaultPlan).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use clsa_cim::arch::{ArchError, Architecture, CrossbarSpec, NocSpec};
use clsa_cim::bench::runner::{
    CacheKey, FaultHook, FaultPlan, FaultSite, FnvWriter, ResultStore, RunSummary,
};
use clsa_cim::serve::{
    Client, Daemon, DaemonOptions, EngineOptions, ErrorCode, Op as ServeOp, Request, ResponseBody,
    RetryPolicy,
};
use clsa_cim::core::{
    cross_layer_schedule, run, CoreError, Dependencies, EdgeCost, RunConfig, SetPolicy, SetRef,
};
use clsa_cim::frontend::FrontendError;
use clsa_cim::ir::{Conv2dAttrs, FeatureShape, Graph, IrError, Op, Padding};
use clsa_cim::mapping::MappingError;

fn conv_op(oc: usize, k: usize) -> Op {
    Op::Conv2d(Conv2dAttrs {
        out_channels: oc,
        kernel: (k, k),
        stride: (1, 1),
        padding: Padding::Valid,
        use_bias: false,
    })
}

#[test]
fn graph_construction_rejects_malformed_inputs() {
    let mut g = Graph::new("t");
    // Unknown input node.
    assert!(matches!(
        g.add("c", conv_op(4, 3), &[clsa_cim::ir::NodeId(9)]),
        Err(IrError::UnknownNode(9))
    ));
    let x = g
        .add(
            "input",
            Op::Input {
                shape: FeatureShape::new(4, 4, 1),
            },
            &[],
        )
        .unwrap();
    // Kernel larger than the input.
    assert!(matches!(
        g.add("c", conv_op(4, 7), &[x]),
        Err(IrError::ShapeMismatch { .. })
    ));
    // Mismatched residual add.
    let a = g.add("a", conv_op(4, 3), &[x]).unwrap();
    let b = g.add("b", conv_op(8, 3), &[x]).unwrap();
    assert!(matches!(
        g.add("add", Op::Add, &[a, b]),
        Err(IrError::ShapeMismatch { .. })
    ));
    // Wrong arity.
    assert!(matches!(
        g.add("add2", Op::Add, &[a]),
        Err(IrError::BadArity { .. })
    ));
}

#[test]
fn architecture_specs_are_validated() {
    assert!(matches!(
        Architecture::builder().pes(0).build(),
        Err(ArchError::InvalidSpec { .. })
    ));
    assert!(CrossbarSpec {
        rows: 0,
        ..CrossbarSpec::wan_nature_2022()
    }
    .validate()
    .is_err());
    assert!(NocSpec {
        mesh_rows: 0,
        mesh_cols: 1,
        ..NocSpec::default()
    }
    .validate()
    .is_err());
}

#[test]
fn pipeline_reports_insufficient_pes() {
    let g = cim_models::tiny_yolo_v4();
    let arch = Architecture::paper_case_study(116).unwrap(); // one short of PE_min
    let err = run(&g, &RunConfig::baseline(arch)).unwrap_err();
    assert!(matches!(
        err,
        CoreError::Mapping(MappingError::BudgetTooSmall {
            required: 117,
            available: 116
        })
    ));
}

#[test]
fn scheduler_rejects_forward_dependencies() {
    // Craft dependencies where a producer lies topologically *after* its
    // consumer — the scheduler must refuse rather than underflow.
    let g = cim_models::fig5_example();
    let costs = clsa_cim::mapping::layer_costs(
        &g,
        &CrossbarSpec::wan_nature_2022(),
        &clsa_cim::mapping::MappingOptions::default(),
    )
    .unwrap();
    let layers = clsa_cim::core::determine_sets(&g, &costs, &SetPolicy::finest()).unwrap();
    let sets_per: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
    let bad = Dependencies::from_edges(
        &sets_per,
        &[(SetRef { layer: 0, set: 0 }, SetRef { layer: 1, set: 0 })],
    )
    .unwrap();
    assert!(matches!(
        cross_layer_schedule(&layers, &bad, &EdgeCost::Free),
        Err(CoreError::StageMismatch { .. })
    ));
}

#[test]
fn zero_set_policy_rejected_through_pipeline() {
    let g = cim_models::fig5_example();
    let arch = Architecture::paper_case_study(4).unwrap();
    let mut cfg = RunConfig::baseline(arch);
    cfg.set_policy = SetPolicy::coarse(0);
    assert!(matches!(run(&g, &cfg), Err(CoreError::BadPolicy { .. })));
}

#[test]
fn frontend_rejects_half_parameterized_bn() {
    use clsa_cim::ir::{BatchNormAttrs, BnParams, Params, Tensor};
    let mut g = Graph::new("t");
    let x = g
        .add(
            "input",
            Op::Input {
                shape: FeatureShape::new(6, 6, 2),
            },
            &[],
        )
        .unwrap();
    let c = g.add("conv", conv_op(4, 3), &[x]).unwrap();
    let bn = BnParams {
        gamma: Tensor::zeros(&[4]),
        beta: Tensor::zeros(&[4]),
        mean: Tensor::zeros(&[4]),
        var: Tensor::zeros(&[4]),
    };
    g.add_with_params(
        "bn",
        Op::BatchNorm(BatchNormAttrs::default()),
        &[c],
        Params {
            kernel: None,
            bias: None,
            bn: Some(bn),
        },
    )
    .unwrap();
    assert!(matches!(
        clsa_cim::frontend::fold_batch_norm(&g),
        Err(FrontendError::FoldParams { .. })
    ));
}

#[test]
fn stale_duplication_plan_rejected() {
    let g = cim_models::fig5_example();
    let xbar = CrossbarSpec::wan_nature_2022();
    let opts = clsa_cim::mapping::MappingOptions::default();
    let costs = clsa_cim::mapping::layer_costs(&g, &xbar, &opts).unwrap();
    let mut plan =
        clsa_cim::mapping::optimize(&costs, 10, clsa_cim::mapping::Solver::Greedy).unwrap();
    plan.duplicates.truncate(1);
    assert!(matches!(
        clsa_cim::mapping::apply_duplication(&g, &costs, &plan),
        Err(MappingError::PlanMismatch { .. })
    ));
}

#[test]
fn every_error_type_is_displayable_and_source_chained() {
    // Errors across the stack implement std::error::Error with lowercase,
    // non-empty messages (C-GOOD-ERR).
    let errors: Vec<Box<dyn std::error::Error>> = vec![
        Box::new(IrError::EmptyGraph),
        Box::new(FrontendError::Ir(IrError::EmptyGraph)),
        Box::new(ArchError::InsufficientPes {
            required: 2,
            available: 1,
        }),
        Box::new(MappingError::NoBaseLayers),
        Box::new(CoreError::BadPolicy { detail: "x".into() }),
        Box::new(clsa_cim::sim::SimError::Deadlock {
            completed: 0,
            total: 1,
        }),
    ];
    for e in errors {
        let msg = e.to_string();
        assert!(!msg.is_empty());
        assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
    }
}

// ---------------------------------------------------------------------------
// Store corruption classes
// ---------------------------------------------------------------------------

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cim_failinj_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn store_key(n: u64) -> CacheKey {
    CacheKey {
        model: n,
        arch: n.wrapping_mul(31),
        strategy: n.wrapping_mul(97),
    }
}

fn store_summary(n: u64) -> RunSummary {
    RunSummary {
        makespan_cycles: n * 100,
        utilization: 1.0 / (n as f64 + 1.5),
        total_pes: n as usize + 3,
        duplicated_layers: n as usize % 4,
        noc_bytes: n * 7,
    }
}

/// The store's row log inside its cache dir.
const STORE_LOG: &str = "rows.jsonl";

/// A writer SIGKILLed mid-append leaves half a row at the end of the log,
/// without its newline (under the older one-file-per-row layout, a kill
/// between temp write and rename left a dead-pid temp instead). The next
/// handle must miss the key and accept a fresh recompute — never serve
/// the torn bytes — and leave files of the older layout alone.
#[test]
fn store_torn_write_mid_rename_is_swept_and_recomputable() {
    let dir = scratch_dir("torn_rename");
    let store = ResultStore::open(&dir).unwrap();
    store.put(&store_key(1), &store_summary(1));
    store.put(&store_key(2), &store_summary(2));
    drop(store);

    // Cut the log inside row 2.
    let log = dir.join(STORE_LOG);
    let text = fs::read_to_string(&log).unwrap();
    let row2 = text.lines().nth(1).unwrap();
    fs::write(&log, &text[..text.len() - 1 - row2.len() / 2]).unwrap();
    let old_temp = dir.join(".tmp-4000000001-0-deadbeef.json");
    fs::write(&old_temp, &row2[..row2.len() / 2]).unwrap();

    let store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.get(&store_key(2)), None, "the torn row never landed");
    assert_eq!(
        store.get(&store_key(1)),
        Some(store_summary(1)),
        "unrelated rows are untouched"
    );
    store.put(&store_key(2), &store_summary(2));
    assert_eq!(store.get(&store_key(2)), Some(store_summary(2)));
    assert!(
        old_temp.exists(),
        "an older layout's temp is neither read nor deleted"
    );

    // The torn tail became one skipped line; the rows around it serve.
    let fresh = ResultStore::open(&dir).unwrap();
    assert_eq!(fresh.get(&store_key(1)), Some(store_summary(1)));
    assert_eq!(fresh.get(&store_key(2)), Some(store_summary(2)));
    assert_eq!(fresh.stats().evictions, 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A partially-written row inside the log (plain bit rot, or a torn
/// append another writer has since ended) must be evicted when read and
/// reported as a miss — a line's presence is never trusted over its
/// bytes.
#[test]
fn store_partial_row_behind_valid_index_is_evicted_not_served() {
    let dir = scratch_dir("partial_row");
    let store = ResultStore::open(&dir).unwrap();
    store.put(&store_key(7), &store_summary(7));
    store.put(&store_key(8), &store_summary(8));
    drop(store);

    let log = dir.join(STORE_LOG);
    let text = fs::read_to_string(&log).unwrap();
    let (row7, row8) = text.trim_end().split_once('\n').unwrap();
    let torn = format!("{row7}\n{}\n", &row8[..row8.len() / 2]);
    fs::write(&log, &torn).unwrap();

    let store = ResultStore::open(&dir).unwrap();
    assert_eq!(store.get(&store_key(8)), None, "torn row is a miss");
    assert_eq!(store.stats().evictions, 1, "…and was evicted when read");
    assert_eq!(
        fs::read_to_string(&log).unwrap(),
        torn,
        "skipped, not deleted"
    );
    assert_eq!(store.get(&store_key(7)), Some(store_summary(7)));
    store.put(&store_key(8), &store_summary(8));
    assert_eq!(store.get(&store_key(8)), Some(store_summary(8)));
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Serve path: malformed / oversized / chaos-dropped frames
// ---------------------------------------------------------------------------

fn connect_with_patience(socket: &Path) -> Client {
    for _ in 0..200 {
        if let Ok(client) = Client::connect_unix(socket) {
            return client;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon at {} never became connectable", socket.display());
}

/// FNV-1a of a request line — the daemon's connection-fault key, so the
/// test can seed-search a fault plan offline.
fn wire_key(line: &str) -> u64 {
    let mut h = FnvWriter::new();
    h.write_bytes(line.as_bytes());
    h.finish()
}

/// Malformed and oversized frames get typed errors and the connection
/// stays usable — the daemon resynchronizes on the next newline instead
/// of dying or answering garbage.
#[test]
fn daemon_survives_malformed_and_oversized_frames() {
    let dir = scratch_dir("frames");
    fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("serve.sock");
    let daemon = Daemon::bind(DaemonOptions {
        engine: EngineOptions {
            jobs: 1,
            max_queue: 16,
            tenant_quota: None,
        },
        max_line_bytes: 128,
        ..DaemonOptions::at(&socket)
    })
    .unwrap();
    let server = std::thread::spawn(move || daemon.run());
    let mut client = connect_with_patience(&socket);

    // Malformed JSON under the bound: typed bad_request.
    let reply = client.request_line("{ this is not json").unwrap();
    let resp: clsa_cim::serve::Response = serde_json::from_str(&reply).unwrap();
    assert_eq!(resp.as_error().unwrap().code, ErrorCode::BadRequest);

    // A frame over the 128-byte bound: typed line_too_long, connection
    // survives.
    let oversized = format!("{{\"id\":\"big\",\"pad\":\"{}\"}}", "x".repeat(300));
    let reply = client.request_line(&oversized).unwrap();
    let resp: clsa_cim::serve::Response = serde_json::from_str(&reply).unwrap();
    assert_eq!(resp.as_error().unwrap().code, ErrorCode::LineTooLong);

    // Same connection, next frame: business as usual.
    let pong = client.request(&Request::bare("p1", ServeOp::Ping)).unwrap();
    assert!(matches!(pong.body, ResponseBody::Pong));

    let ack = client.request(&Request::bare("bye", ServeOp::Shutdown)).unwrap();
    assert!(matches!(ack.body, ResponseBody::Shutdown));
    server.join().unwrap().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// A chaos plan drops the connection before the first answer; the
/// client's seeded retry loop reconnects, resends, and completes — and
/// because fault decisions are keyed `(seed, site, line, attempt)`, the
/// whole episode replays identically every run.
#[test]
fn injected_connection_drop_heals_through_client_retry() {
    let dir = scratch_dir("conn_drop");
    fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("serve.sock");

    let ping = Request::bare("retry-1", ServeOp::Ping);
    let ping_key = wire_key(&serde_json::to_string(&ping).unwrap());
    let bye = Request::bare("bye", ServeOp::Shutdown);
    let bye_key = wire_key(&serde_json::to_string(&bye).unwrap());

    // Seed-search offline (`would_fire` is side-effect-free): the first
    // delivery of the ping drops, the resend passes, the shutdown passes.
    let plan = (0..10_000)
        .map(|seed| FaultPlan::new(seed).with_rate(FaultSite::ConnDrop, 500))
        .find(|p| {
            p.would_fire(FaultSite::ConnDrop, ping_key, 0)
                && !p.would_fire(FaultSite::ConnDrop, ping_key, 1)
                && !p.would_fire(FaultSite::ConnDrop, bye_key, 0)
        })
        .expect("a drop-then-pass seed exists in 10k tries");
    let plan = Arc::new(plan);

    let daemon = Daemon::bind(DaemonOptions {
        engine: EngineOptions {
            jobs: 1,
            max_queue: 16,
            tenant_quota: None,
        },
        faults: Some(plan.clone() as Arc<dyn FaultHook>),
        ..DaemonOptions::at(&socket)
    })
    .unwrap();
    let server = std::thread::spawn(move || daemon.run());
    let mut client = connect_with_patience(&socket);

    let policy = RetryPolicy {
        max_retries: 3,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        seed: 9,
    };
    let pong = client
        .request_with_retry(&ping, &policy)
        .expect("retry layer heals the injected drop");
    assert!(matches!(pong.body, ResponseBody::Pong));
    assert_eq!(plan.fired(FaultSite::ConnDrop), 1, "exactly one drop fired");

    let ack = client.request_with_retry(&bye, &policy).unwrap();
    assert!(matches!(ack.body, ResponseBody::Shutdown));
    server.join().unwrap().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// With every store write failing, the daemon degrades to cache-only
/// mode but keeps answering: schedules still compute, the `health` op
/// and `stats` surface `degraded`, and shutdown is clean.
#[test]
fn degraded_daemon_keeps_answering_and_reports_health() {
    let dir = scratch_dir("degraded");
    fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("serve.sock");
    let plan = Arc::new(
        FaultPlan::new(3)
            .with_rate(FaultSite::StoreWrite, 1000)
            .with_rate(FaultSite::StoreRename, 1000),
    );

    let daemon = Daemon::bind(DaemonOptions {
        engine: EngineOptions {
            jobs: 1,
            max_queue: 16,
            tenant_quota: None,
        },
        cache_dir: Some(dir.join("store")),
        faults: Some(plan as Arc<dyn FaultHook>),
        ..DaemonOptions::at(&socket)
    })
    .unwrap();
    let server = std::thread::spawn(move || daemon.run());
    let mut client = connect_with_patience(&socket);

    // Scheduling still works — the store rejecting rows only costs
    // durability, never answers.
    let cold = client
        .request(&Request::schedule("d1", "fig5", "xinf", 0))
        .unwrap();
    let cold_reply = cold.as_schedule().expect("degraded daemon still schedules");
    let warm = client
        .request(&Request::schedule("d2", "fig5", "xinf", 0))
        .unwrap();
    assert_eq!(
        warm.as_schedule().unwrap().makespan_cycles,
        cold_reply.makespan_cycles,
        "in-memory cache still serves warm answers"
    );

    let health = client.request(&Request::bare("h1", ServeOp::Health)).unwrap();
    let report = health.as_health().expect("health op answers");
    assert!(report.degraded, "degraded mode surfaced: {report:?}");
    assert!(report.store_configured);
    assert!(!report.store_writable);

    let stats = client.request(&Request::bare("s1", ServeOp::Stats)).unwrap();
    let snap = stats.as_stats().unwrap();
    assert!(snap.degraded, "stats carry the degraded flag: {snap:?}");

    let ack = client.request(&Request::bare("bye", ServeOp::Shutdown)).unwrap();
    assert!(matches!(ack.body, ResponseBody::Shutdown));
    let final_stats = server.join().unwrap().unwrap();
    assert!(final_stats.degraded);
    assert!(final_stats.store_write_errors > 0);
    let _ = fs::remove_dir_all(&dir);
}
