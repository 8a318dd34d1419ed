//! Search budgets and run statistics.

use std::time::Duration;

/// Stopping rule of one tuning run: candidate count, wall clock, or both
/// (whichever trips first). An unlimited budget stops only when the
/// strategy exhausts the space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of candidate evaluations (cache hits included).
    pub max_candidates: Option<usize>,
    /// Maximum wall-clock time. Checked between batches, so a run may
    /// overshoot by at most one batch. **Non-deterministic by nature** —
    /// reproducible runs must bound by candidate count instead.
    pub max_wall: Option<Duration>,
}

impl Budget {
    /// A budget of exactly `n` candidate evaluations.
    pub fn candidates(n: usize) -> Self {
        Budget {
            max_candidates: Some(n),
            ..Budget::default()
        }
    }

    /// Evaluations still allowed after `evaluated` so far (`usize::MAX`
    /// when unbounded by count).
    pub fn remaining(&self, evaluated: usize) -> usize {
        self.max_candidates
            .map_or(usize::MAX, |m| m.saturating_sub(evaluated))
    }
}

/// Counters of one tuning run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TuneStats {
    /// Proposal rounds driven.
    pub rounds: usize,
    /// Candidates evaluated (cache hits included).
    pub evaluated: usize,
    /// Candidates whose pipeline run failed (not archived).
    pub infeasible: usize,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl TuneStats {
    /// Evaluated configurations per second of wall-clock time.
    pub fn evals_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.evaluated as f64 / secs
        }
    }
}

impl std::fmt::Display for TuneStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} evaluated ({} infeasible) in {} rounds, {:.1} configs/s",
            self.evaluated,
            self.infeasible,
            self.rounds,
            self.evals_per_sec()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_counts_down_and_saturates() {
        let b = Budget::candidates(10);
        assert_eq!(b.remaining(0), 10);
        assert_eq!(b.remaining(7), 3);
        assert_eq!(b.remaining(12), 0);
        assert_eq!(Budget::default().remaining(1_000_000), usize::MAX);
    }

    #[test]
    fn stats_rate_is_guarded() {
        let mut s = TuneStats::default();
        assert_eq!(s.evals_per_sec(), 0.0);
        s.evaluated = 20;
        s.elapsed = Duration::from_millis(500);
        assert!((s.evals_per_sec() - 40.0).abs() < 1e-9);
        assert!(s.to_string().contains("20 evaluated"));
    }
}
