//! Persistent-store integration suite: write/read/re-run equivalence,
//! corruption recovery, and concurrent two-process access to one
//! `--cache-dir`.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use cim_bench::runner::{
    sweep_jobs, CacheKey, Model, ResultStore, RunSummary, RunnerOptions, Sweep, SweepOutcome,
    STORE_FORMAT_VERSION,
};

/// The store's row log inside its cache dir.
const LOG: &str = "rows.jsonl";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cim_store_it_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn fig5_jobs() -> Vec<cim_bench::runner::SweepJob> {
    let fig5 = Model::canonical("fig5", &cim_models::fig5_example()).expect("fig5 canonicalizes");
    sweep_jobs(&fig5, &[1]).expect("jobs build")
}

fn sweep(
    jobs: &[cim_bench::runner::SweepJob],
    runner: RunnerOptions,
    store: Option<&ResultStore>,
) -> SweepOutcome {
    Sweep { store, ..Sweep::new(jobs, runner) }.run().expect("sweep runs")
}

#[test]
fn cold_warm_and_unstored_runs_are_byte_identical() {
    let dir = tmp_dir("rerun");
    let jobs = fig5_jobs();
    let unstored = sweep(&jobs, RunnerOptions::sequential(), None);

    let store = ResultStore::open(&dir).unwrap();
    let cold = sweep(&jobs, RunnerOptions::sequential(), Some(&store));
    let cold_stats = store.stats();
    assert_eq!(cold_stats.hits, 0);
    assert_eq!(cold_stats.writes, jobs.len() as u64, "every job persisted");

    // Fresh handle — the next process. Everything replays from disk: the
    // in-memory schedule cache is never even consulted.
    let store = ResultStore::open(&dir).unwrap();
    let warm = sweep(&jobs, RunnerOptions::with_jobs(4), Some(&store));
    let warm_stats = store.stats();
    assert_eq!(warm_stats.hits, jobs.len() as u64, "warm run is all hits");
    assert_eq!(warm.stats.schedule_lookups, 0, "no in-memory computation");

    assert_eq!(unstored.results, cold.results);
    assert_eq!(cold.results, warm.results);
    // Byte-identical through serialization, not just PartialEq.
    let as_json = |r: &Vec<cim_bench::ConfigResult>| serde_json::to_string(r).unwrap();
    assert_eq!(as_json(&unstored.results), as_json(&cold.results));
    assert_eq!(as_json(&cold.results), as_json(&warm.results));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_rows_are_evicted_and_recomputed() {
    let dir = tmp_dir("trunc");
    let jobs = fig5_jobs();
    let store = ResultStore::open(&dir).unwrap();
    let reference = sweep(&jobs, RunnerOptions::sequential(), Some(&store));

    // Truncate every persisted row mid-document.
    let log = dir.join(LOG);
    let truncated: String = fs::read_to_string(&log)
        .unwrap()
        .lines()
        .map(|row| format!("{}\n", &row[..row.len() / 3]))
        .collect();
    assert_eq!(truncated.lines().count(), jobs.len(), "one row per job");
    fs::write(&log, truncated).unwrap();

    let store = ResultStore::open(&dir).unwrap();
    let recovered = sweep(&jobs, RunnerOptions::sequential(), Some(&store));
    let stats = store.stats();
    assert_eq!(recovered.results, reference.results, "recompute, never trust");
    assert_eq!(stats.hits, 0, "no truncated row served");
    assert!(stats.evictions > 0, "bad rows evicted");
    assert_eq!(stats.writes as usize, jobs.len(), "rows re-persisted");

    // Third run: healed — full hits again.
    let store = ResultStore::open(&dir).unwrap();
    let healed = sweep(&jobs, RunnerOptions::sequential(), Some(&store));
    assert_eq!(healed.results, reference.results);
    assert_eq!(store.stats().hits as usize, jobs.len());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_mismatched_rows_are_evicted_and_recomputed() {
    let dir = tmp_dir("version");
    let jobs = fig5_jobs();
    let store = ResultStore::open(&dir).unwrap();
    let reference = sweep(&jobs, RunnerOptions::sequential(), Some(&store));

    // Stamp one row as written by a future format version.
    let log = dir.join(LOG);
    let text = fs::read_to_string(&log).unwrap();
    let (victim, rest) = text.split_once('\n').expect("at least one row");
    let victim = victim.replace(
        &format!("\"version\":{STORE_FORMAT_VERSION}"),
        "\"version\":999999",
    );
    assert!(victim.contains("999999"), "version field rewritten");
    fs::write(&log, format!("{victim}\n{rest}")).unwrap();

    let store = ResultStore::open(&dir).unwrap();
    let recovered = sweep(&jobs, RunnerOptions::sequential(), Some(&store));
    let stats = store.stats();
    assert_eq!(recovered.results, reference.results);
    assert_eq!(stats.evictions, 1, "exactly the stamped row evicted");
    assert_eq!(stats.hits as usize, jobs.len() - 1, "the rest still serve");
    assert_eq!(stats.writes, 1, "the evicted row recomputed and re-persisted");
    let _ = fs::remove_dir_all(&dir);
}

// --- concurrent two-process access ------------------------------------------

const HAMMER_ENV: &str = "CIM_STORE_HAMMER_DIR";
const HAMMER_KEYS: u64 = 16;
const HAMMER_ROUNDS: u64 = 120;

fn hammer_key(n: u64) -> CacheKey {
    CacheKey {
        model: 0xfeed_0000 + n,
        arch: n.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        strategy: !n,
    }
}

fn hammer_summary(n: u64) -> RunSummary {
    RunSummary {
        makespan_cycles: 1000 + n,
        utilization: (n as f64 + 1.0) / 64.0,
        total_pes: 10 + n as usize,
        duplicated_layers: n as usize % 3,
        noc_bytes: n * 13,
    }
}

/// Interleaves puts and gets against `dir`. The invariant: a get may miss
/// (the row not written yet) but a *hit* must deliver exactly the key's
/// summary — never a torn or mixed row.
fn hammer(dir: &std::path::Path) {
    let store = ResultStore::open(dir).expect("store opens");
    for round in 0..HAMMER_ROUNDS {
        let n = round % HAMMER_KEYS;
        store.put(&hammer_key(n), &hammer_summary(n));
        let probe = (round * 7 + 3) % HAMMER_KEYS;
        if let Some(got) = store.get(&hammer_key(probe)) {
            assert_eq!(got, hammer_summary(probe), "torn read for key {probe}");
        }
    }
}

/// Not a test of its own: becomes the *child process* body when the
/// parent re-executes this test binary with [`HAMMER_ENV`] set. In a
/// normal `cargo test` run (env unset) it is a no-op.
#[test]
fn child_store_hammer() {
    if let Ok(dir) = std::env::var(HAMMER_ENV) {
        hammer(std::path::Path::new(&dir));
    }
}

#[test]
fn two_processes_share_one_cache_dir() {
    let dir = tmp_dir("twoproc");
    fs::create_dir_all(&dir).unwrap();

    // Re-exec this test binary, filtered down to the hammer body, with
    // the shared directory in the environment.
    let mut child = Command::new(std::env::current_exe().expect("own path"))
        .args(["child_store_hammer", "--exact", "--test-threads=1"])
        .env(HAMMER_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("child spawns");

    // Hammer the same directory from this process, concurrently.
    hammer(&dir);

    let status = child.wait().expect("child waited");
    assert!(status.success(), "child process hammer failed: {status:?}");

    // Both processes wrote the same deterministic rows; a fresh handle
    // must now serve every key, uncorrupted.
    let store = ResultStore::open(&dir).unwrap();
    for n in 0..HAMMER_KEYS {
        assert_eq!(
            store.get(&hammer_key(n)),
            Some(hammer_summary(n)),
            "key {n} lost or corrupted after concurrent access"
        );
    }
    // Every append of both processes landed as its own whole line.
    let log = fs::read_to_string(dir.join(LOG)).unwrap();
    assert_eq!(log.lines().count() as u64, 2 * HAMMER_ROUNDS);
    assert_eq!(store.stats().evictions, 0, "no torn or interleaved line");
    let _ = fs::remove_dir_all(&dir);
}
