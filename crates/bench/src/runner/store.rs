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
//!   rows.jsonl   # one StoreEntry row per line, in append order
//! ```
//!
//! Every row is a single-line serde_json document carrying
//! [`STORE_FORMAT_VERSION`] and the key it answers. A handle opens the log
//! once for append (`O_APPEND`) and writes each row with its newline in
//! one `write`, so on a local file system rows from concurrent writers —
//! threads of one handle, or processes sharing the directory — land
//! whole and never interleave. Nothing is fsynced: a crash can lose the
//! last rows, and a torn one is never trusted.
//!
//! A handle answers lookups from an in-memory map of the rows it has
//! read. A lookup the map misses first reads the complete lines appended
//! since the handle's last read, so rows other processes write are found;
//! a hit opens no file. A line still without its newline waits for a
//! later read.
//!
//! Files other than the log — the one-file-per-row layout, temp files and
//! `index.json` of older stores — are neither read nor deleted, so a
//! cache dir written by an older version recomputes once.
//!
//! # Corruption policy
//!
//! Entries are **recomputed, never trusted**: a line that fails to parse
//! or carries a different format version is *evicted* — skipped when
//! read and counted in [`StoreStats::evictions`], never deleted — and its
//! key misses until a good row for it is appended. A handle that finds
//! the log ending mid-line (a writer killed mid-append) starts its first
//! append with a newline, so the torn tail becomes one skipped line
//! instead of swallowing the next row.
//!
//! # Chaos instrumentation
//!
//! All four failure classes the policy above defends against are
//! injectable deterministically — see
//! [`set_fault_hook`](ResultStore::set_fault_hook) and
//! [`fault`](super::fault): read errors (plain miss), failed writes
//! (counted, swallowed), torn-but-landed writes (evicted when read), and
//! failed appends (counted; [`FaultSite::StoreRename`] keeps the name of
//! the rename the per-row layout used to fail).

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use clsa_core::RunResult;
use parking_lot::Mutex;
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

/// The row log's file name inside a cache dir.
const LOG_FILE: &str = "rows.jsonl";

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

/// One persisted row: the format version, the full key it answers, and
/// the payload.
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
    /// Corrupt / version-mismatched rows skipped when read.
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

/// Opens the log for append, creating it if missing.
fn open_for_append(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
}

/// One handle's view of the log: the rows it has read, and the files it
/// reads and appends through.
#[derive(Debug, Default)]
struct Log {
    /// Every trusted row read so far; a later row for a key replaces an
    /// earlier one (both carry the same deterministic summary).
    rows: BTreeMap<CacheKey, RunSummary>,
    /// Read handle, opened by the first read that finds the log.
    reader: Option<File>,
    /// Log bytes read so far: always the end of a complete line.
    read_to: u64,
    /// Append handle, opened by the first `put` that reaches the log.
    appender: Option<File>,
    /// The log may end mid-line — it did when the appender opened it, or
    /// a write failed part-way — so the next append starts with a newline.
    torn_tail: bool,
}

impl Log {
    /// Reads the complete lines appended since the last read into `rows`
    /// and returns how many of them were evicted.
    fn catch_up(&mut self, path: &Path) -> io::Result<u64> {
        let file = match &mut self.reader {
            Some(file) => file,
            None => self.reader.insert(File::open(path)?),
        };
        let mut appended = Vec::new();
        file.seek(SeekFrom::Start(self.read_to))?;
        file.read_to_end(&mut appended)?;
        let Some(end) = appended.iter().rposition(|&b| b == b'\n') else {
            return Ok(0);
        };
        self.read_to += end as u64 + 1;
        let mut evicted = 0;
        for line in appended[..end]
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
        {
            let row = std::str::from_utf8(line)
                .ok()
                .and_then(|line| serde_json::from_str::<StoreEntry>(line).ok())
                .filter(|row| row.version == STORE_FORMAT_VERSION);
            match row {
                Some(row) => {
                    let key = CacheKey {
                        model: row.model,
                        arch: row.arch,
                        strategy: row.strategy,
                    };
                    self.rows.insert(key, row.summary);
                }
                None => evicted += 1,
            }
        }
        Ok(evicted)
    }

    /// Appends `line` (newline included) in one write, opening the log on
    /// first use; `injected` is asked, once the log is open, whether a
    /// chaos fault fails the append instead.
    fn append(
        &mut self,
        path: &Path,
        line: &str,
        injected: impl FnOnce() -> bool,
    ) -> io::Result<()> {
        let file = match &mut self.appender {
            Some(file) => file,
            None => {
                let mut file = open_for_append(path)?;
                let mut last = [b'\n'];
                if file.metadata()?.len() > 0 {
                    file.seek(SeekFrom::End(-1))?;
                    file.read_exact(&mut last)?;
                }
                self.torn_tail = last[0] != b'\n';
                self.appender.insert(file)
            }
        };
        if injected() {
            return Err(io::Error::other("injected fault: store append failure"));
        }
        let written = if self.torn_tail {
            file.write_all(format!("\n{line}").as_bytes())
        } else {
            file.write_all(line.as_bytes())
        };
        self.torn_tail = written.is_err();
        written
    }
}

/// A handle on one `--cache-dir`. Cheap to share by reference across the
/// worker pool: the counters are atomics, and the log state sits behind
/// one lock.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    path: PathBuf,
    log: Mutex<Log>,
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

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `dir`. The log is
    /// read by the first [`get`](Self::get) that misses and opened for
    /// append by the first [`put`](Self::put).
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(ResultStore {
            path: dir.join(LOG_FILE),
            dir,
            log: Mutex::default(),
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

    /// Whether the store currently accepts writes: the log opens for
    /// append (created if missing), and no injected write or append
    /// fault fires for the probe. `cim-serve` polls this to surface
    /// degraded (cache-only) mode.
    pub fn probe_writable(&self) -> bool {
        !self.injected(FaultSite::StoreWrite, PROBE_FAULT_KEY)
            && open_for_append(&self.path).is_ok()
            && !self.injected(FaultSite::StoreRename, PROBE_FAULT_KEY)
    }

    /// Whether the chaos plan, if any, fires `site` for fault key `fk`.
    fn injected(&self, site: FaultSite, fk: u64) -> bool {
        self.faults.as_ref().is_some_and(|h| h.decide(site, fk, 0))
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Looks up `key`, returning its persisted summary if a trustworthy
    /// row exists.
    ///
    /// A key the handle has not read yet reads the lines appended to the
    /// log since its last read, so rows written by a concurrent process
    /// are found. Lines that cannot be parsed or carry a different
    /// [`STORE_FORMAT_VERSION`] are skipped and counted as evictions; an
    /// unreadable log is a plain miss.
    pub fn get(&self, key: &CacheKey) -> Option<RunSummary> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        // Injected read error: the log looks unreadable (EIO), which is a
        // plain miss — like the real read error path below.
        if self.injected(FaultSite::StoreRead, fault_key(key)) {
            return None;
        }
        let mut log = self.log.lock();
        let found = match log.rows.get(key) {
            Some(summary) => Some(summary.clone()),
            None => {
                let evicted = log.catch_up(&self.path).unwrap_or(0);
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
                log.rows.get(key).cloned()
            }
        };
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Persists `summary` under `key` by appending one line to the log.
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
        let mut line = serde_json::to_string(&row).expect("store rows serialize"); // cim-lint: allow(panic-unwrap) store rows are plain serializable data
        let fk = fault_key(key);
        // Injected write failure: nothing reaches disk (a full disk /
        // EACCES stand-in).
        if self.injected(FaultSite::StoreWrite, fk) {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Injected torn write: half a row *lands* as a whole line — silent
        // corruption that only a later read detects (and skips as an
        // eviction).
        if self.injected(FaultSite::StoreTornWrite, fk) {
            line.truncate(line.len() / 2);
        }
        line.push('\n');
        // Injected append failure: the log is open, nothing lands.
        let injected = || self.injected(FaultSite::StoreRename, fk);
        let counter = match self.log.lock().append(&self.path, &line, injected) {
            Ok(()) => &self.writes,
            Err(_) => &self.write_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
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

    fn log_text(dir: &Path) -> String {
        fs::read_to_string(dir.join(LOG_FILE)).unwrap()
    }

    /// Names of the files in `dir`, sorted.
    fn files_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
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
    fn puts_append_lines_to_one_log_file() {
        let dir = tmp_dir("one-log");
        let store = ResultStore::open(&dir).unwrap();
        for n in 0..25 {
            store.put(&key(n), &summary(n));
        }
        assert_eq!(files_in(&dir), [LOG_FILE], "one file, however many rows");
        let text = log_text(&dir);
        assert_eq!(text.lines().count(), 25);
        assert!(text.ends_with('\n'));
        let reopened = ResultStore::open(&dir).unwrap();
        for n in 0..25 {
            assert_eq!(reopened.get(&key(n)), Some(summary(n)));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tail_is_ended_before_the_next_row() {
        let dir = tmp_dir("torn-tail");
        let store = ResultStore::open(&dir).unwrap();
        store.put(&key(1), &summary(1));
        store.put(&key(2), &summary(2));
        drop(store);
        // A writer SIGKILLed mid-append leaves half a row, no newline.
        let text = log_text(&dir);
        let cut = text.len() - text.lines().last().unwrap().len() / 2 - 1;
        fs::write(dir.join(LOG_FILE), &text[..cut]).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.get(&key(2)), None, "half a row is no row");
        assert_eq!(
            store.stats().evictions,
            0,
            "an unended line is not read yet"
        );
        store.put(&key(2), &summary(2));
        assert_eq!(store.stats().writes, 1);

        let fresh = ResultStore::open(&dir).unwrap();
        assert_eq!(fresh.get(&key(1)), Some(summary(1)));
        assert_eq!(
            fresh.get(&key(2)),
            Some(summary(2)),
            "the next row landed whole"
        );
        assert_eq!(
            fresh.stats().evictions,
            1,
            "the torn tail is one skipped line"
        );
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
        assert_eq!(log_text(&dir).lines().count(), 1, "row stays on disk");
        assert_eq!(store.stats().evictions, 0, "a read error is not corruption");
        assert_eq!(plan.fired(FaultSite::StoreRead), 1);
        let reopened = ResultStore::open(&dir).unwrap();
        assert_eq!(reopened.get(&key(1)), Some(summary(1)));
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
        assert!(!dir.join(LOG_FILE).exists(), "nothing reached disk");
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
        assert_eq!(store.stats().writes, 0);
        assert_eq!(log_text(&dir), "", "the failed append landed nothing");
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
        // as a whole line — silent corruption.
        assert_eq!(store.stats().writes, 1);
        assert_eq!(log_text(&dir).lines().count(), 1);
        // The first read detects and skips it.
        assert_eq!(store.get(&key(1)), None);
        assert_eq!(store.stats().evictions, 1);
        // A recomputed row heals the key; the torn line is not re-read.
        ResultStore::open(&dir).unwrap().put(&key(1), &summary(1));
        assert_eq!(store.get(&key(1)), Some(summary(1)));
        assert_eq!(store.stats().evictions, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_writable_is_clean_without_faults() {
        let dir = tmp_dir("probe");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.probe_writable());
        assert_eq!(files_in(&dir), [LOG_FILE], "the probe leaves only the log");
        assert_eq!(log_text(&dir), "", "…and writes nothing to it");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_and_garbage_rows_are_evicted() {
        let dir = tmp_dir("evict");
        let store = ResultStore::open(&dir).unwrap();
        store.put(&key(1), &summary(1));
        store.put(&key(2), &summary(2));
        drop(store);

        // Bump the version of row 1, truncate row 2.
        let text = log_text(&dir);
        let lines: Vec<&str> = text.lines().collect();
        let futuristic = lines[0].replace(
            &format!("\"version\":{STORE_FORMAT_VERSION}"),
            "\"version\":999999",
        );
        assert!(futuristic.contains("999999"), "version field rewritten");
        let torn = &lines[1][..lines[1].len() / 2];
        let rewritten = format!("{futuristic}\n{torn}\n");
        fs::write(dir.join(LOG_FILE), &rewritten).unwrap();

        let store = ResultStore::open(&dir).unwrap();
        assert_eq!(store.get(&key(1)), None, "future version distrusted");
        assert_eq!(store.get(&key(2)), None, "truncated row distrusted");
        assert_eq!(store.stats().evictions, 2);
        assert_eq!(
            log_text(&dir),
            rewritten,
            "bad rows are skipped, not deleted"
        );

        // The keys are recomputable and storable again.
        store.put(&key(1), &summary(1));
        assert_eq!(store.get(&key(1)), Some(summary(1)));
        assert_eq!(store.stats().evictions, 2, "each bad line counts once");
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
