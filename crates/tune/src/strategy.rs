//! Pluggable search strategies over a [`DesignSpace`].
//!
//! A strategy is a *batched* proposer: the driver repeatedly asks it for
//! up to `max` candidate indices ([`SearchStrategy::propose`]), evaluates
//! the whole batch (possibly in parallel), and reports the measurements
//! back in proposal order ([`SearchStrategy::observe`]). Because a
//! strategy only ever sees (index, measurement) pairs in its own proposal
//! order, its decision sequence — and with it the entire search
//! trajectory — is a pure function of its seed and the measurements,
//! independent of how many worker threads evaluated the batch.
//!
//! Three strategies ship:
//!
//! * [`GridSearch`] — exhaustive, in flat-index order; the oracle the
//!   others are tested against on small spaces.
//! * [`RandomSearch`] — seeded uniform sampling without replacement.
//! * [`Annealing`] — simulated annealing over the mixed-radix coordinate
//!   vector with fixed neighborhood moves (single-axis steps plus
//!   occasional reseeds), batched as independent proposals from the
//!   current state with sequential Metropolis acceptance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

use crate::archive::Measurement;
use crate::space::DesignSpace;

/// A batched, deterministic candidate proposer.
pub trait SearchStrategy {
    /// The strategy's stable name (`grid`, `random`, `anneal`).
    fn name(&self) -> &'static str;

    /// Proposes up to `max` flat candidate indices to evaluate next.
    /// Returning an empty vector ends the search (space exhausted).
    fn propose(&mut self, space: &DesignSpace, max: usize) -> Vec<usize>;

    /// Observes the evaluated batch, in proposal order. `None` marks an
    /// infeasible candidate (pipeline error).
    fn observe(&mut self, space: &DesignSpace, results: &[(usize, Option<Measurement>)]);
}

/// Builds the strategy named `name` (`grid`, `random`, or `anneal`) with
/// the given seed. Grid search ignores the seed.
pub fn strategy_by_name(name: &str, seed: u64) -> Option<Box<dyn SearchStrategy>> {
    match name {
        "grid" => Some(Box::new(GridSearch::new())),
        "random" => Some(Box::new(RandomSearch::new(seed))),
        "anneal" => Some(Box::new(Annealing::new(seed))),
        _ => None,
    }
}

/// Exhaustive enumeration in flat-index order.
#[derive(Debug, Clone, Default)]
pub struct GridSearch {
    cursor: usize,
}

impl GridSearch {
    /// A grid walk starting at index 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SearchStrategy for GridSearch {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn propose(&mut self, space: &DesignSpace, max: usize) -> Vec<usize> {
        let end = space.len().min(self.cursor + max);
        let batch = (self.cursor..end).collect();
        self.cursor = end;
        batch
    }

    fn observe(&mut self, _space: &DesignSpace, _results: &[(usize, Option<Measurement>)]) {}
}

/// Seeded uniform sampling without replacement.
#[derive(Debug)]
pub struct RandomSearch {
    rng: StdRng,
    seen: BTreeSet<usize>,
}

impl RandomSearch {
    /// A sampler deterministic in `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            seen: BTreeSet::new(),
        }
    }
}

impl SearchStrategy for RandomSearch {
    fn name(&self) -> &'static str {
        "random"
    }

    fn propose(&mut self, space: &DesignSpace, max: usize) -> Vec<usize> {
        let total = space.len();
        let mut batch = Vec::new();
        while batch.len() < max && self.seen.len() < total {
            let index = self.rng.random_range(0..total);
            if self.seen.insert(index) {
                batch.push(index);
            }
        }
        batch
    }

    fn observe(&mut self, _space: &DesignSpace, _results: &[(usize, Option<Measurement>)]) {}
}

/// Initial temperature of [`Annealing`] as a fraction of the current
/// energy: an uphill move worsening energy by `INITIAL_TEMP × energy` is
/// accepted with probability `1/e` at the start.
const INITIAL_TEMP: f64 = 0.35;
/// Geometric cooling factor applied per observed feasible proposal.
const COOLING: f64 = 0.96;
/// Largest single-axis step of a neighborhood move (wrapping).
const MAX_AXIS_STEP: usize = 1;
/// Probability of a uniform reseed move instead of an axis step — the
/// escape hatch out of local Pareto pockets.
const RESEED_PROB: f64 = 0.08;
/// Area pressure of the scalarized energy: `latency × crossbars^w`. It
/// mildly rewards smaller architectures, so the chain explores the
/// latency/area trade-off (the archive catches every non-dominated point
/// it passes).
const AREA_WEIGHT: f64 = 0.25;

/// Simulated annealing over the mixed-radix coordinate vector.
#[derive(Debug)]
pub struct Annealing {
    rng: StdRng,
    temp: f64,
    /// Current chain state: (flat index, scalarized energy).
    current: Option<(usize, f64)>,
}

impl Annealing {
    /// A chain deterministic in `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            temp: INITIAL_TEMP,
            current: None,
        }
    }

    /// The scalarized energy the chain descends (the archive still
    /// records the full objective vector of every proposal).
    fn energy(&self, m: &Measurement) -> f64 {
        m.latency_cycles as f64 * (m.crossbars as f64).powf(AREA_WEIGHT)
    }

    /// One neighborhood move from `from`: a wrapping ±step on one
    /// non-degenerate axis, or (with probability [`RESEED_PROB`]) a uniform
    /// reseed.
    fn neighbor(&mut self, space: &DesignSpace, from: usize) -> usize {
        let lens = space.axis_lens();
        if self.rng.random_bool(RESEED_PROB) {
            return self.rng.random_range(0..space.len());
        }
        let movable: Vec<usize> = (0..lens.len()).filter(|&a| lens[a] > 1).collect();
        if movable.is_empty() {
            return from;
        }
        let axis = movable[self.rng.random_range(0..movable.len())];
        let step = self.rng.random_range(1..=MAX_AXIS_STEP);
        let up = self.rng.random_bool(0.5);
        let mut digits = space.coords(from).as_array();
        let n = lens[axis];
        digits[axis] = if up {
            (digits[axis] + step) % n
        } else {
            (digits[axis] + n - step % n) % n
        };
        space.index_of(&crate::space::Coords::from_array(digits))
    }
}

impl SearchStrategy for Annealing {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn propose(&mut self, space: &DesignSpace, max: usize) -> Vec<usize> {
        let total = space.len();
        (0..max)
            .map(|_| match self.current {
                // Before the first acceptance: independent uniform probes.
                None => self.rng.random_range(0..total),
                Some((at, _)) => self.neighbor(space, at),
            })
            .collect()
    }

    fn observe(&mut self, _space: &DesignSpace, results: &[(usize, Option<Measurement>)]) {
        for &(index, measurement) in results {
            let Some(m) = measurement else { continue };
            let e = self.energy(&m);
            let accept = match self.current {
                None => true,
                Some((_, e_cur)) => {
                    if e <= e_cur {
                        true
                    } else {
                        // Relative Metropolis: scale the uphill delta by
                        // the current energy so the temperature schedule
                        // is unit-free.
                        let scaled = (e - e_cur) / (self.temp * e_cur.max(f64::MIN_POSITIVE));
                        self.rng.random_bool((-scaled).exp().clamp(0.0, 1.0))
                    }
                }
            };
            if accept {
                self.current = Some((index, e));
            }
            self.temp *= COOLING;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> DesignSpace {
        DesignSpace::tiny()
    }

    fn m(lat: u64) -> Measurement {
        Measurement {
            latency_cycles: lat,
            utilization: 0.5,
            noc_bytes: 10,
            crossbars: 4,
        }
    }

    #[test]
    fn grid_walks_the_space_once_in_order() {
        let s = space();
        let mut g = GridSearch::new();
        assert_eq!(g.propose(&s, 3), vec![0, 1, 2]);
        assert_eq!(g.propose(&s, 3), vec![3, 4, 5]);
        assert_eq!(g.propose(&s, 10), vec![6, 7]);
        assert!(g.propose(&s, 10).is_empty());
    }

    #[test]
    fn random_is_seeded_and_without_replacement() {
        let s = space();
        let mut a = RandomSearch::new(9);
        let mut b = RandomSearch::new(9);
        let batch_a: Vec<usize> = std::iter::repeat_with(|| a.propose(&s, 3))
            .take_while(|v| !v.is_empty())
            .flatten()
            .collect();
        let batch_b: Vec<usize> = std::iter::repeat_with(|| b.propose(&s, 3))
            .take_while(|v| !v.is_empty())
            .flatten()
            .collect();
        assert_eq!(batch_a, batch_b, "same seed, same proposal stream");
        let mut sorted = batch_a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), s.len(), "covers the space exactly once");
        assert_ne!(
            batch_a,
            RandomSearch::new(10)
                .propose(&s, s.len())
                .into_iter()
                .collect::<Vec<_>>(),
            "different seed, different stream"
        );
    }

    #[test]
    fn anneal_is_deterministic_and_descends_on_cold_chain() {
        let s = space();
        let run = |seed| {
            let mut an = Annealing::new(seed);
            let mut trace = Vec::new();
            for round in 0..6 {
                let batch = an.propose(&s, 4);
                trace.extend(batch.iter().copied());
                let results: Vec<(usize, Option<Measurement>)> = batch
                    .iter()
                    .map(|&i| (i, Some(m(100 + (i as u64 * 17 + round) % 50))))
                    .collect();
                an.observe(&s, &results);
            }
            (trace, an.current)
        };
        assert_eq!(run(5), run(5), "same seed reproduces the trajectory");
        let (_, state) = run(5);
        assert!(state.is_some(), "chain accepted at least the first probe");
    }

    #[test]
    fn anneal_skips_infeasible_results() {
        let s = space();
        let mut an = Annealing::new(1);
        let batch = an.propose(&s, 3);
        let results: Vec<(usize, Option<Measurement>)> =
            batch.iter().map(|&i| (i, None)).collect();
        an.observe(&s, &results);
        assert!(an.current.is_none(), "no feasible result, no state");
    }

    #[test]
    fn neighbors_stay_in_range_and_move_one_axis() {
        let s = DesignSpace::case_study();
        let mut an = Annealing::new(3);
        for from in [0, 100, s.len() - 1] {
            for _ in 0..50 {
                let to = an.neighbor(&s, from);
                assert!(to < s.len());
            }
        }
    }

    #[test]
    fn strategies_resolve_by_name() {
        for name in ["grid", "random", "anneal"] {
            let s = strategy_by_name(name, 7).unwrap();
            assert_eq!(s.name(), name);
        }
        assert!(strategy_by_name("hillclimb", 7).is_none());
    }
}
