//! The machine's pace over a run, read from a fixed reference kernel.
//!
//! On a shared host the core and caches left to one process swing for
//! tens of seconds at a time: every operation of a run, and each of its
//! repetitions, can take 1.7× longer than in the run before. No repetition
//! count removes a slowdown that covers the whole run. So the measured
//! phase also runs a reference kernel of the benchmark's own at a steady
//! cadence, between operations and outside their timing, and each
//! operation's time is scaled by how much slower than [`NOMINAL_S`] the
//! kernel ran around it.
//!
//! The kernel is the benchmark's code, not the program's, so it is the
//! same on every commit: a change that makes the program faster lowers the
//! scaled times in proportion. Scaled times read as "seconds on a machine
//! where the kernel takes [`NOMINAL_S`]".
//!
//! What the kernel runs decides how well it follows the program. A single
//! dependent multiply chain slowed 1.1× while the fabric simulator slowed
//! 1.7×; random updates of a 1–64 MiB table slowed 1.2–1.35×. Branchy
//! data-structure work (a sort, a B-tree, formatting) plus independent
//! arithmetic chains that compete for execution ports followed the
//! simulator's slow phases to within a few percent.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::gen::Rng;
use crate::{now, secs_since};

/// Kernel seconds the scaled times are expressed against: about what one
/// reading takes on an uncontended core of a 2-vCPU x86-64 VM.
pub const NOMINAL_S: f64 = 0.006;

/// Seconds between readings (each takes about [`NOMINAL_S`]).
const INTERVAL_S: f64 = 0.1;

/// Readings nearest an operation whose median is its local pace.
const WINDOW: usize = 7;

/// Branchy half of a reading: sort random words, fill and probe a B-tree,
/// format integers.
fn branchy() -> u64 {
    let mut rng = Rng::new(0x5eed, 1);
    let mut words: Vec<u64> = (0..32_768).map(|_| rng.next_u64()).collect();
    words.sort_unstable();
    let mut tree = BTreeMap::new();
    for i in 0..8_192u64 {
        tree.insert(rng.next_u64() % 100_000, i);
    }
    let mut acc = words[1_000];
    for _ in 0..16_384 {
        if let Some(v) = tree.get(&(rng.next_u64() % 100_000)) {
            acc ^= v;
        }
    }
    let text: String = (0..2_000).map(|i| format!("{i},")).collect();
    acc ^ text.len() as u64
}

/// Arithmetic half of a reading: eight independent rotate-xor-multiply
/// chains, which keep several execution ports busy at once.
fn chains() -> u64 {
    let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..1_000_000u64 {
        for (j, v) in x.iter_mut().enumerate() {
            *v = std::hint::black_box(v.rotate_left(7) ^ i)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15 + j as u64);
        }
    }
    x.iter().fold(0, |a, b| a ^ b)
}

/// One reading's work.
fn kernel() -> u64 {
    branchy() ^ chains()
}

/// Kernel readings over one measured phase.
#[derive(Debug)]
pub struct Pace {
    /// `(start, seconds)` of each reading, in time order.
    readings: Vec<(Duration, f64)>,
}

impl Pace {
    /// Starts with one reading.
    pub fn new() -> Pace {
        let mut pace = Pace {
            readings: Vec::new(),
        };
        pace.read();
        pace
    }

    fn read(&mut self) {
        let start = now();
        std::hint::black_box(kernel());
        self.readings.push((start, secs_since(start)));
    }

    /// A pace from `(start, seconds)` readings in time order.
    #[cfg(test)]
    pub fn from_readings(readings: Vec<(Duration, f64)>) -> Pace {
        Pace { readings }
    }

    /// Takes a reading if [`INTERVAL_S`] passed since the last one. Call it
    /// between operations, never inside a timed one.
    pub fn tick(&mut self) {
        let last = self.readings.last().map_or(Duration::ZERO, |r| r.0);
        if secs_since(last) >= INTERVAL_S {
            self.read();
        }
    }

    /// Readings taken.
    pub fn readings(&self) -> usize {
        self.readings.len()
    }

    /// `secs` of an operation that started at `at` (a [`now`] reading),
    /// scaled to the nominal pace by the median of the [`WINDOW`] readings
    /// nearest to it.
    pub fn scaled(&self, at: Duration, secs: f64) -> f64 {
        let n = self.readings.len();
        let i = self.readings.partition_point(|r| r.0 <= at);
        let lo = i.saturating_sub(WINDOW / 2).min(n.saturating_sub(WINDOW));
        let near: Vec<f64> = self.readings[lo..(lo + WINDOW).min(n)]
            .iter()
            .map(|r| r.1)
            .collect();
        let local = crate::stats::median(&near).unwrap_or(NOMINAL_S);
        secs * NOMINAL_S / local
    }

    /// Median of every reading, seconds.
    pub fn median_s(&self) -> f64 {
        let all: Vec<f64> = self.readings.iter().map(|r| r.1).collect();
        crate::stats::median(&all).unwrap_or(NOMINAL_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pace(readings: &[(u64, f64)]) -> Pace {
        Pace::from_readings(
            readings
                .iter()
                .map(|&(ms, s)| (Duration::from_millis(ms), s))
                .collect(),
        )
    }

    #[test]
    fn scales_by_the_median_of_the_nearest_readings() {
        // A slow phase (2× nominal) from 1 s on; one outlier inside it.
        let mut r: Vec<(u64, f64)> = (0..10).map(|i| (i * 100, NOMINAL_S)).collect();
        r.extend((10..30).map(|i| (i * 100, 2.0 * NOMINAL_S)));
        r[20].1 = 9.0 * NOMINAL_S;
        let p = pace(&r);
        let scaled = |ms: u64| p.scaled(Duration::from_millis(ms), 0.04);
        assert!((scaled(350) - 0.04).abs() < 1e-12);
        assert!((scaled(2050) - 0.02).abs() < 1e-12);
        // Before the first and after the last reading: the edge windows.
        assert!((scaled(0) - 0.04).abs() < 1e-12);
        assert!((scaled(60_000) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
