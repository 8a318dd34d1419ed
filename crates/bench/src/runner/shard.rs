//! Fingerprint-range sharding: partition a flat job list across
//! processes (or hosts) with the persistent [`ResultStore`] as the only
//! merge point.
//!
//! A job's identity is its schedule-level [`CacheKey`] — three stable
//! 64-bit fingerprints. [`shard_of`] folds them through one more FNV-1a
//! round and maps the hash onto `0..n` with a multiply-shift, so:
//!
//! * the partition is a pure function of the key — every process
//!   computes the same owner for the same job with no coordination, and
//!   the assignment is independent of job-list order or `--jobs`;
//! * shards are balanced in expectation (the hash is uniform; the
//!   multiply-shift maps it onto `n` equal ranges without modulo bias);
//! * ownership is stable across runs — a re-run of slice `i/n` touches
//!   exactly the keys it owned before, so warm slices replay from the
//!   store like any other warm sweep.
//!
//! The protocol has two phases. Each *slice* process runs
//! `--shard i/n --cache-dir D` (evaluate owned jobs, persist summaries
//! into the shared store `D` — two-process safety of which is already
//! regression-tested); a final *merge* process runs
//! `--shard merge --cache-dir D` and replays the fully-warm store into
//! the byte-identical unsharded artifact.
//!
//! [`ResultStore`]: super::store::ResultStore

use std::fmt;

use clsa_core::CoreError;

use super::fingerprint::{CacheKey, FnvWriter};
use super::store::ResultStore;

/// One slice of an `n`-way sharded sweep: this process owns the jobs
/// whose key hashes into range `index` of `of`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based slice index, `< of`.
    pub index: usize,
    /// Total number of slices, `>= 1`.
    pub of: usize,
}

impl ShardSpec {
    /// A validated `index/of` slice; `None` unless `index < of`.
    pub fn new(index: usize, of: usize) -> Option<Self> {
        (index < of).then_some(ShardSpec { index, of })
    }

    /// Parses the CLI form `i/n` (e.g. `0/2`); `None` on anything else.
    pub fn parse(s: &str) -> Option<Self> {
        let (index, of) = s.split_once('/')?;
        ShardSpec::new(index.parse().ok()?, of.parse().ok()?)
    }

    /// Whether this slice owns the job identified by `key`.
    pub fn owns(&self, key: &CacheKey) -> bool {
        shard_of(key, self.of) == self.index
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

/// The owning slice (`0..of`) of a job key in an `of`-way partition.
///
/// Folds the key's three fingerprints through one FNV-1a round (the
/// schedule key's fields are themselves FNV-1a values, but XOR-folding
/// them directly would cancel structured differences), then maps the
/// 64-bit hash onto `of` ranges with a multiply-shift — the unbiased,
/// division-free alternative to `hash % of`.
pub fn shard_of(key: &CacheKey, of: usize) -> usize {
    let mut w = FnvWriter::new();
    w.write_bytes(&key.model.to_le_bytes());
    w.write_bytes(&key.arch.to_le_bytes());
    w.write_bytes(&key.strategy.to_le_bytes());
    ((u128::from(w.finish()) * of as u128) >> 64) as usize
}

/// How a batch entry point partitions (or reassembles) its job list —
/// the parsed form of the `--shard` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// No sharding: evaluate every job in this process (the default).
    #[default]
    All,
    /// Evaluate only the jobs this slice owns, persisting summaries into
    /// the shared store (`--shard i/n`; requires `--cache-dir`).
    Slice(ShardSpec),
    /// Evaluate nothing: replay every job from the fully-warm store and
    /// aggregate the unsharded artifact (`--shard merge`; requires
    /// `--cache-dir`).
    Merge,
}

impl ShardMode {
    /// Checks that a `Slice` or `Merge` run has a store to merge
    /// through; `All` runs without one.
    ///
    /// # Errors
    ///
    /// A [`CoreError::StageMismatch`] naming `--cache-dir` when `store`
    /// is `None` outside `All` mode.
    pub fn require_store(self, store: Option<&ResultStore>) -> Result<(), CoreError> {
        let flag = match (self, store) {
            (ShardMode::All, _) | (_, Some(_)) => return Ok(()),
            (ShardMode::Slice(spec), None) => spec.to_string(),
            (ShardMode::Merge, None) => "merge".to_string(),
        };
        Err(CoreError::StageMismatch {
            detail: format!("--shard {flag} requires --cache-dir: the store is the merge point"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            model: n,
            arch: n.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            strategy: !n,
        }
    }

    #[test]
    fn parse_accepts_slices_and_rejects_garbage() {
        assert_eq!(ShardSpec::parse("0/2"), ShardSpec::new(0, 2));
        assert_eq!(ShardSpec::parse("4/5"), ShardSpec::new(4, 5));
        assert_eq!(ShardSpec::parse("0/1"), ShardSpec::new(0, 1));
        for bad in ["", "2/2", "3/2", "merge", "1", "1/", "/2", "-1/2", "a/b"] {
            assert_eq!(ShardSpec::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn every_key_has_exactly_one_owner() {
        for of in [1usize, 2, 3, 7] {
            for n in 0..256u64 {
                let k = key(n);
                let owners: Vec<usize> = (0..of)
                    .filter(|&i| ShardSpec::new(i, of).unwrap().owns(&k))
                    .collect();
                assert_eq!(owners.len(), 1, "key {n} in {of}-way partition");
                assert_eq!(owners[0], shard_of(&k, of));
                assert!(owners[0] < of);
            }
        }
    }

    #[test]
    fn single_slice_owns_everything() {
        let all = ShardSpec::new(0, 1).unwrap();
        assert!((0..64u64).all(|n| all.owns(&key(n))));
    }

    #[test]
    fn partition_is_roughly_balanced() {
        let of = 4;
        let mut counts = vec![0usize; of];
        for n in 0..1024u64 {
            counts[shard_of(&key(n), of)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            // Uniform expectation 256 per slice; allow a wide margin.
            assert!((128..=384).contains(&c), "slice {i} got {c} of 1024");
        }
    }

    #[test]
    fn display_round_trips_the_cli_form() {
        let s = ShardSpec::new(1, 3).unwrap();
        assert_eq!(ShardSpec::parse(&s.to_string()), Some(s));
    }
}
