//! The persistent cross-run result store (`--cache-dir`).
//!
//! The in-memory [`ScheduleCache`](super::ScheduleCache) dies with the
//! process; this store makes sweep results durable. It is an on-disk,
//! versioned, fingerprint-keyed map from a job's [`CacheKey`] —
//! `(model, architecture, strategy)` fingerprints — to the
//! [`RunSummary`] the batch aggregator needs, so a
//! re-run of `fig6`/`fig7` (or any [`Sweep`](super::Sweep)) after a
//! code-irrelevant change replays from disk instead of re-scheduling.
//! Callers reach it through
//! [`ScheduleCache::summary`](super::ScheduleCache::summary): a row is
//! read before the in-memory memo, and a freshly computed summary is
//! `put` back.
//!
//! # On-disk layout
//!
//! ```text
//! <cache-dir>/
//!   <model:016x>-<arch:016x>-<strategy:016x>.json # one StoreEntry row each
//! ```
//!
//! Every row is a single serde_json document carrying
//! [`STORE_FORMAT_VERSION`]. Writes go through a temp file in the same
//! directory followed by an atomic rename, so concurrent readers (and a
//! second process sharing the directory) never observe a half-written
//! row — at worst they observe the previous row or none.
//!
//! # Corruption policy
//!
//! Entries are **recomputed, never trusted**: a row that fails to parse,
//! carries a different format version, or names a different key than its
//! file is *evicted* (deleted best-effort, counted in
//! [`StoreStats::evictions`]) and the lookup reports a miss. The rows on
//! disk are the only state: lookups probe the entry file derived from
//! the key, so rows other processes write are found. There is no
//! manifest; an `index.json` left by an older version of the store is
//! never read.
//!
//! # Chaos instrumentation
//!
//! All four failure classes the policy above defends against are
//! injectable deterministically — see
//! [`set_fault_hook`](ResultStore::set_fault_hook) and
//! [`fault`](super::fault): read errors (plain miss), failed writes
//! (counted, swallowed), torn-but-landed writes (evicted on first
//! contact), and failed renames (temp cleaned up, counted).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use clsa_core::RunResult;
use serde::{Deserialize, Serialize};

use super::fault::{FaultHook, FaultSite};
use super::fingerprint::CacheKey;

/// Version stamp of the on-disk row format. Bump on **any change that
/// alters computed summaries** — not just the [`RunSummary`] shape,
/// [`CacheKey`] semantics, or the fingerprint function, but also
/// scheduler/mapping/cost-model behavior: the key fingerprints cover the
/// *inputs* only, so a stale store would otherwise replay the old
/// algorithm's rows forever. The golden-file suite drifting (a
/// `CIM_BLESS=1` re-bless) is the tell-tale that this constant must move
/// with it. Rows with any other version are evicted and recomputed.
///
/// History: 2 — [`RunSummary`] gained `noc_bytes` (the autotuner's
/// traffic objective); version-1 rows lack the field and are evicted.
pub const STORE_FORMAT_VERSION: u32 = 2;

/// The serializable reduction of a [`RunResult`] the store's consumers
/// need — the fields `Sweep::run` aggregates into sweep rows plus the
/// autotuner's traffic objective, and nothing else.
///
/// Floats round-trip exactly through serde_json (shortest-representation
/// formatting), so a summary replayed from disk reproduces byte-identical
/// aggregated JSON output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Makespan in crossbar cycles.
    pub makespan_cycles: u64,
    /// Eq. 2 utilization.
    pub utilization: f64,
    /// Total PEs of the architecture evaluated.
    pub total_pes: usize,
    /// Layers duplicated by the mapping (0 without duplication).
    pub duplicated_layers: usize,
    /// Bytes forwarded over cross-layer dependency edges per inference
    /// (`CostedDeps::total_dep_bytes` — the tuner's NoC-traffic axis).
    pub noc_bytes: u64,
}

impl RunSummary {
    /// Extracts the summary of a completed run.
    pub fn of(result: &RunResult) -> Self {
        RunSummary {
            makespan_cycles: result.makespan(),
            utilization: result.report.utilization,
            total_pes: result.report.total_pes,
            duplicated_layers: result.plan.as_ref().map_or(0, |p| p.duplicated_layers()),
            noc_bytes: result.costed.total_dep_bytes(),
        }
    }
}

/// One persisted row: the format version, the full key (so a misfiled or
/// colliding row is detected), and the payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoreEntry {
    version: u32,
    model: u64,
    arch: u64,
    strategy: u64,
    summary: RunSummary,
}

/// Cumulative counters of one store handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups issued.
    pub lookups: u64,
    /// Lookups served from disk.
    pub hits: u64,
    /// Corrupt / version-mismatched rows deleted on contact.
    pub evictions: u64,
    /// Rows successfully persisted.
    pub writes: u64,
    /// Failed row writes (the run continues; the row is simply not
    /// persisted).
    pub write_errors: u64,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} hit, {} written, {} evicted",
            self.hits, self.lookups, self.writes, self.evictions
        )?;
        if self.write_errors > 0 {
            write!(f, ", {} write errors", self.write_errors)?;
        }
        Ok(())
    }
}

/// A handle on one `--cache-dir`. Cheap to share by reference across the
/// worker pool (all state is atomics).
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    tmp_counter: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    /// Deterministic chaos injection ([`FaultSite::StoreRead`] ..
    /// [`FaultSite::StoreRename`]); `None` outside chaos runs.
    faults: Option<Arc<dyn FaultHook>>,
}

/// Fault-decision key of a row: a stable fold of its cache key, matching
/// the sweep layer's job keying so one seed addresses the same logical
/// work at both layers.
fn fault_key(key: &CacheKey) -> u64 {
    key.model ^ key.arch.rotate_left(21) ^ key.strategy.rotate_left(42)
}

/// Fault-decision key used by the writability probe.
const PROBE_FAULT_KEY: u64 = u64::MAX - 1;

/// Whether a `.tmp-<pid>-<nonce>-<file>` temp file belongs to no living
/// writer and can be swept on open.
///
/// Temps older than this are orphans no matter what `/proc` says: no
/// in-flight atomic write lives this long, and pid liveness alone cannot
/// tell the original writer from an unrelated process that recycled its
/// pid after it died.
const ORPHAN_TEMP_MAX_AGE: Duration = Duration::from_secs(60 * 60);

/// Decision table, conservative toward *keeping* (a kept orphan costs a
/// few stale bytes; a swept live temp costs a concurrent writer its
/// rename):
///
/// * unparseable name → orphan (not written by this code; sweep);
/// * our own pid → orphan (a previous process with the recycled pid —
///   *this* process has written nothing yet at open time);
/// * mtime older than [`ORPHAN_TEMP_MAX_AGE`] → orphan (even a pid that
///   looks alive in `/proc` may be a recycled pid, under which the dead
///   writer's temp would otherwise be immortal);
/// * on Linux, `/proc/<pid>` absent → orphan (the writer is gone);
/// * otherwise → live (keep).
fn temp_is_orphaned(name: &str, path: &Path) -> bool {
    let Some(pid) = name
        .strip_prefix(".tmp-")
        .and_then(|rest| rest.split('-').next())
        .and_then(|pid| pid.parse::<u32>().ok())
    else {
        return true;
    };
    if pid == std::process::id() {
        return true;
    }
    if temp_age(path).is_some_and(|age| age > ORPHAN_TEMP_MAX_AGE) {
        return true;
    }
    let proc_root = Path::new("/proc");
    if proc_root.is_dir() {
        return !proc_root.join(pid.to_string()).exists();
    }
    // No /proc (non-Linux): liveness is unknowable; keep the temp.
    false
}

/// Age of a temp file by its mtime; `None` when the metadata is
/// unreadable or the mtime sits in the future (then pid liveness alone
/// decides — still conservative toward keeping).
fn temp_age(path: &Path) -> Option<Duration> {
    let modified = fs::metadata(path).ok()?.modified().ok()?;
    SystemTime::now().duration_since(modified).ok() // cim-lint: allow(wall-clock) orphan aging compares on-disk mtimes; no schedule-visible time
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `dir`. Rows are
    /// validated lazily on [`get`](Self::get).
    ///
    /// The directory scan sweeps temp files orphaned by a killed writer,
    /// so a long-lived cache dir cannot accumulate them — but only
    /// *orphaned* ones: a daemon and a straggler batch binary
    /// legitimately share one cache dir, and sweeping a live writer's
    /// in-flight temp would fail its rename and drop the row.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from directory creation or the scan.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        for dirent in fs::read_dir(&dir)? {
            let path = dirent?.path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if name.starts_with(".tmp-") && temp_is_orphaned(&name, &path) {
                let _ = fs::remove_file(&path);
            }
        }

        Ok(ResultStore {
            dir,
            tmp_counter: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            faults: None,
        })
    }

    /// Installs a deterministic fault hook on this handle (chaos runs
    /// only). Store-level sites: [`FaultSite::StoreRead`],
    /// [`FaultSite::StoreWrite`], [`FaultSite::StoreTornWrite`],
    /// [`FaultSite::StoreRename`].
    pub fn set_fault_hook(&mut self, hook: Arc<dyn FaultHook>) {
        self.faults = Some(hook);
    }

    /// Whether the store directory currently accepts writes, checked by
    /// round-tripping a dot-prefixed probe file through the same atomic
    /// write path rows use (so injected write/rename faults are seen
    /// too). `cim-serve` polls this to surface degraded (cache-only)
    /// mode; the probe file is invisible to the row scan.
    pub fn probe_writable(&self) -> bool {
        if let Some(h) = &self.faults {
            if h.decide(FaultSite::StoreWrite, PROBE_FAULT_KEY, 0) {
                return false;
            }
        }
        let path = self.dir.join(".probe.json");
        let ok = self.write_atomic(&path, "{}", PROBE_FAULT_KEY).is_ok();
        if ok {
            let _ = fs::remove_file(&path);
        }
        ok
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A key's row file: three fixed-width hex fingerprints.
    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!(
            "{:016x}-{:016x}-{:016x}.json",
            key.model, key.arch, key.strategy
        ))
    }

    /// Looks up `key`, returning its persisted summary if a trustworthy
    /// row exists.
    ///
    /// The entry file is probed directly, so rows written by a concurrent
    /// process are found. A row that cannot be parsed, has a different
    /// [`STORE_FORMAT_VERSION`], or carries a different key than its file
    /// name is deleted (best-effort), counted as an eviction, and reported
    /// as a miss.
    pub fn get(&self, key: &CacheKey) -> Option<RunSummary> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let path = self.entry_path(key);
        if let Some(h) = &self.faults {
            // Injected read error: the row looks unreadable (EIO), which
            // is a plain miss — the file stays on disk, like the real
            // `fs::read_to_string` error path below.
            if h.decide(FaultSite::StoreRead, fault_key(key), 0) {
                return None;
            }
        }
        let text = fs::read_to_string(&path).ok()?;
        let trusted = serde_json::from_str::<StoreEntry>(&text)
            .ok()
            .filter(|row| {
                row.version == STORE_FORMAT_VERSION
                    && row.model == key.model
                    && row.arch == key.arch
                    && row.strategy == key.strategy
            });
        match trusted {
            Some(row) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(row.summary)
            }
            None => {
                self.evict(&path);
                None
            }
        }
    }

    /// Persists `summary` under `key` (temp file + atomic rename).
    /// Failures are counted in [`StoreStats::write_errors`] and otherwise
    /// ignored — the sweep's results never depend on the store accepting
    /// a row.
    pub fn put(&self, key: &CacheKey, summary: &RunSummary) {
        let row = StoreEntry {
            version: STORE_FORMAT_VERSION,
            model: key.model,
            arch: key.arch,
            strategy: key.strategy,
            summary: summary.clone(),
        };
        let json = serde_json::to_string(&row).expect("store rows serialize"); // cim-lint: allow(panic-unwrap) store rows are plain serializable data
        let fk = fault_key(key);
        let mut body = json.as_str();
        if let Some(h) = &self.faults {
            // Injected write failure: nothing reaches disk (a full disk /
            // EACCES stand-in).
            if h.decide(FaultSite::StoreWrite, fk, 0) {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // Injected torn write: a truncated row *lands* through a
            // successful rename — silent corruption that only a later
            // `get` detects (and heals by eviction + recompute).
            if h.decide(FaultSite::StoreTornWrite, fk, 0) {
                body = &json[..json.len() / 2];
            }
        }
        if self.write_atomic(&self.entry_path(key), body, fk).is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of this handle's counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Drops an untrustworthy row: best-effort delete.
    fn evict(&self, path: &Path) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(path);
    }

    /// Writes `contents` to `path` via a uniquely-named temp file in the
    /// same directory and an atomic rename. `fk` keys the injected
    /// rename-failure site for chaos runs.
    fn write_atomic(&self, path: &Path, contents: &str, fk: u64) -> io::Result<()> {
        let nonce = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{}",
            std::process::id(),
            nonce,
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        ));
        fs::write(&tmp, contents)?;
        if let Some(h) = &self.faults {
            // Injected rename failure: the temp was written but never
            // promoted — cleaned up exactly like a real failed rename.
            if h.decide(FaultSite::StoreRename, fk, 0) {
                let _ = fs::remove_file(&tmp);
                return Err(io::Error::other("injected fault: store rename failure"));
            }
        }
        fs::rename(&tmp, path).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cim_store_unit_{tag}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> CacheKey {
        CacheKey {
            model: n,
            arch: n.wrapping_mul(31),
            strategy: n.wrapping_mul(97),
        }
    }

    fn summary(n: u64) -> RunSummary {
        RunSummary {
            makespan_cycles: n * 100,
            utilization: 1.0 / (n as f64 + 1.5),
            total_pes: n as usize + 3,
            duplicated_layers: n as usize % 4,
            noc_bytes: n * 7,
        }
    }

    #[test]
    fn put_get_round_trip_within_and_across_handles() {
        let dir = tmp_dir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.get(&key(1)), None, "empty store misses");

        store.put(&key(1), &summary(1));
        assert_eq!(store.get(&key(1)), Some(summary(1)));
        assert_eq!(store.get(&key(2)), None);

        // A fresh handle (new process in spirit) sees the persisted row.
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.get(&key(1)), Some(summary(1)));

        let stats = store.stats();
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.writes, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_index_json_is_neither_read_nor_counted() {
        let dir = tmp_dir("leftover-index");
        let store = ResultStore::open(&dir).unwrap();
        store.put(&key(7), &summary(7));
        drop(store);
        // Older stores wrote an `index.json` manifest; even a garbage one
        // changes nothing, and the store never writes one itself.
        assert!(!dir.join("index.json").exists());
        fs::write(dir.join("index.json"), "{ not json").unwrap();
        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.get(&key(7)), Some(summary(7)));
        assert_eq!(store.stats().evictions, 0, "the manifest is not a row");
        assert_eq!(store.stats().write_errors, 0);
        drop(store);
        assert_eq!(
            fs::read_to_string(dir.join("index.json")).unwrap(),
            "{ not json",
            "the leftover manifest is left alone"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    fn full_rate_plan(site: FaultSite) -> Arc<crate::runner::fault::FaultPlan> {
        Arc::new(crate::runner::fault::FaultPlan::new(5).with_rate(site, 1000))
    }

    #[test]
    fn injected_read_error_is_a_plain_miss() {
        let dir = tmp_dir("fault-read");
        let mut store = ResultStore::open(&dir).unwrap();
        store.put(&key(1), &summary(1));
        let plan = full_rate_plan(FaultSite::StoreRead);
        store.set_fault_hook(plan.clone());
        assert_eq!(store.get(&key(1)), None, "unreadable row is a miss");
        assert!(store.entry_path(&key(1)).exists(), "row stays on disk");
        assert_eq!(store.stats().evictions, 0, "a read error is not corruption");
        assert_eq!(plan.fired(FaultSite::StoreRead), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_failure_is_counted_and_swallowed() {
        let dir = tmp_dir("fault-write");
        let mut store = ResultStore::open(&dir).unwrap();
        store.set_fault_hook(full_rate_plan(FaultSite::StoreWrite));
        store.put(&key(1), &summary(1));
        assert_eq!(store.stats().write_errors, 1);
        assert_eq!(store.stats().writes, 0);
        assert!(!store.entry_path(&key(1)).exists());
        assert!(!store.probe_writable(), "probe sees the same failure");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_rename_failure_leaves_no_temp_behind() {
        let dir = tmp_dir("fault-rename");
        let mut store = ResultStore::open(&dir).unwrap();
        store.set_fault_hook(full_rate_plan(FaultSite::StoreRename));
        store.put(&key(1), &summary(1));
        assert_eq!(store.stats().write_errors, 1);
        assert!(!store.entry_path(&key(1)).exists());
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "failed rename cleans its temp");
        assert!(!store.probe_writable());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_lands_and_heals_by_eviction_on_read() {
        let dir = tmp_dir("fault-torn");
        let mut store = ResultStore::open(&dir).unwrap();
        store.set_fault_hook(full_rate_plan(FaultSite::StoreTornWrite));
        store.put(&key(1), &summary(1));
        // The torn row *landed*: counted as a write and present on disk
        // — silent corruption.
        assert_eq!(store.stats().writes, 1);
        assert!(store.entry_path(&key(1)).exists());
        // First contact detects and evicts it.
        assert_eq!(store.get(&key(1)), None);
        assert_eq!(store.stats().evictions, 1);
        assert!(!store.entry_path(&key(1)).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_writable_is_clean_without_faults() {
        let dir = tmp_dir("probe");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.probe_writable());
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "probe cleans up");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_and_garbage_rows_are_evicted() {
        let dir = tmp_dir("evict");
        let store = ResultStore::open(&dir).unwrap();
        store.put(&key(1), &summary(1));
        store.put(&key(2), &summary(2));

        // Bump the version of row 1, truncate row 2.
        let p1 = store.entry_path(&key(1));
        let futuristic = fs::read_to_string(&p1)
            .unwrap()
            .replace(
                &format!("\"version\":{STORE_FORMAT_VERSION}"),
                "\"version\":999999",
            );
        assert!(futuristic.contains("999999"), "version field rewritten");
        fs::write(&p1, futuristic).unwrap();
        let p2 = store.entry_path(&key(2));
        let text = fs::read_to_string(&p2).unwrap();
        fs::write(&p2, &text[..text.len() / 2]).unwrap();

        assert_eq!(store.get(&key(1)), None, "future version distrusted");
        assert_eq!(store.get(&key(2)), None, "truncated row distrusted");
        assert!(!p1.exists() && !p2.exists(), "bad rows deleted");
        assert_eq!(store.stats().evictions, 2);

        // The keys are recomputable and storable again.
        store.put(&key(1), &summary(1));
        assert_eq!(store.get(&key(1)), Some(summary(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn misfiled_row_is_distrusted() {
        let dir = tmp_dir("misfiled");
        let store = ResultStore::open(&dir).unwrap();
        store.put(&key(3), &summary(3));
        // Copy row 3's bytes over row 4's file name: parses, right
        // version, wrong key — must be evicted, not served.
        fs::copy(store.entry_path(&key(3)), store.entry_path(&key(4))).unwrap();
        assert_eq!(store.get(&key(4)), None);
        assert_eq!(store.stats().evictions, 1);
        assert_eq!(store.get(&key(3)), Some(summary(3)), "original intact");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_only_orphaned_temp_files() {
        let dir = tmp_dir("orphans");
        fs::create_dir_all(&dir).unwrap();
        // pid 1 is init — always alive on Linux, so this temp belongs to
        // a (conceptually) live concurrent writer and must survive.
        let live = dir.join(".tmp-1-0-live.json");
        // A pid far beyond any real pid space: its writer is dead.
        let dead = dir.join(".tmp-4000000001-0-dead.json");
        // Not our naming scheme at all.
        let garbage = dir.join(".tmp-garbage");
        // Our own pid at open time means a *previous* incarnation.
        let own = dir.join(format!(".tmp-{}-7-own.json", std::process::id()));
        for p in [&live, &dead, &garbage, &own] {
            fs::write(p, "{}").unwrap();
        }

        ResultStore::open(&dir).unwrap();
        assert!(live.exists(), "live writer's temp must be kept");
        assert!(!dead.exists(), "dead writer's temp must be swept");
        assert!(!garbage.exists(), "unparseable temp must be swept");
        assert!(!own.exists(), "own-pid temp predates this open");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn aged_temp_is_swept_despite_a_live_looking_pid() {
        let dir = tmp_dir("aged-orphans");
        fs::create_dir_all(&dir).unwrap();
        // Both temps name pid 1 (always alive on Linux) — standing in
        // for an unrelated process that recycled a dead writer's pid.
        let fresh = dir.join(".tmp-1-0-fresh.json");
        let stale = dir.join(".tmp-1-1-stale.json");
        fs::write(&fresh, "{}").unwrap();
        fs::write(&stale, "{}").unwrap();
        let long_ago = SystemTime::now() - 2 * ORPHAN_TEMP_MAX_AGE; // cim-lint: allow(wall-clock) backdates an mtime fixture
        fs::File::options()
            .write(true)
            .open(&stale)
            .unwrap()
            .set_modified(long_ago)
            .unwrap();

        ResultStore::open(&dir).unwrap();
        assert!(fresh.exists(), "recent temp with a live pid is kept");
        assert!(
            !stale.exists(),
            "a temp older than any in-flight write is orphaned even if its pid looks alive"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_floats_round_trip_bit_exactly() {
        // The warm-run byte-identity guarantee rests on this.
        for f in [0.016442451420029897f64, 2.5012942191544436, 1.0 / 3.0] {
            let s = RunSummary {
                makespan_cycles: 1,
                utilization: f,
                total_pes: 1,
                duplicated_layers: 0,
                noc_bytes: 0,
            };
            let back: RunSummary =
                serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
            assert_eq!(back.utilization.to_bits(), f.to_bits());
        }
    }
}
