//! Metrics: utilization (Eq. 2), speedup, and the speedup–utilization
//! identity (Eq. 3).
//!
//! The paper defines architecture utilization as the mean over all PEs of
//! the ratio of active cycles to total inference time:
//!
//! ```text
//! Ut := (1/#PE) · Σ_p  t_p,active / t_NN                    (Eq. 2)
//! ```
//!
//! and relates the speedup of configuration `c` with `x` extra PEs to the
//! utilizations:
//!
//! ```text
//! S_x,c ≈ Ut_x,c · (PE_min + x) / (Ut_lbl · PE_min)          (Eq. 3)
//! ```

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, Result};
use crate::schedule::Schedule;
use crate::sets::LayerSets;

/// Utilization and activity report of one schedule (Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationReport {
    /// PEs in the architecture (`#PE` in Eq. 2 — including idle spares).
    pub total_pes: usize,
    /// PEs actually holding weights (`Σ c_i · d_i`).
    pub used_pes: usize,
    /// Schedule makespan in cycles (`t_NN`).
    pub makespan: u64,
    /// Σ over PEs of active cycles. Every PE of a layer's group is active
    /// exactly while the group computes (intra-layer scheduling keeps the
    /// group in lock-step, Sec. III-B).
    pub active_pe_cycles: u64,
    /// Eq. 2 utilization in `[0, 1]`.
    pub utilization: f64,
}

/// Computes the Eq. 2 utilization of `schedule` over an architecture with
/// `total_pes` PEs.
///
/// # Errors
///
/// Returns [`CoreError::StageMismatch`] when the schedule and layer list
/// disagree, or when the used PEs exceed `total_pes`.
pub fn utilization(
    layers: &[LayerSets],
    schedule: &Schedule,
    total_pes: usize,
) -> Result<UtilizationReport> {
    if layers.len() != schedule.num_layers() {
        return Err(CoreError::StageMismatch {
            detail: format!(
                "schedule covers {} layers, sets cover {}",
                schedule.num_layers(),
                layers.len()
            ),
        });
    }
    let used_pes: usize = layers.iter().map(|l| l.pes).sum();
    if used_pes > total_pes {
        return Err(CoreError::StageMismatch {
            detail: format!("{used_pes} PEs used but architecture has {total_pes}"),
        });
    }
    let active_pe_cycles: u64 = layers
        .iter()
        .enumerate()
        .map(|(li, l)| l.pes as u64 * schedule.active_cycles(li))
        .sum();
    let denom = total_pes as u64 * schedule.makespan;
    let utilization = if denom == 0 {
        0.0
    } else {
        active_pe_cycles as f64 / denom as f64
    };
    Ok(UtilizationReport {
        total_pes,
        used_pes,
        makespan: schedule.makespan,
        active_pe_cycles,
        utilization,
    })
}

/// Speedup of `makespan` relative to `baseline_makespan`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSchedule`] for a zero makespan.
pub fn speedup(baseline_makespan: u64, makespan: u64) -> Result<f64> {
    if makespan == 0 || baseline_makespan == 0 {
        return Err(CoreError::InvalidSchedule {
            detail: "speedup undefined for zero makespan".into(),
        });
    }
    Ok(baseline_makespan as f64 / makespan as f64)
}

/// Eq. 3: predicted speedup from utilizations.
///
/// `ut` is the configuration's utilization on `pe_min + x` PEs, `ut_lbl` the
/// layer-by-layer baseline utilization on `pe_min` PEs. This form bakes in
/// the paper-case-study convention that the configuration's architecture
/// holds exactly `pe_min + x` PEs and the baseline exactly `pe_min`; for
/// arbitrary architectures use [`eq3_predicted_from_utilization`], which
/// reads the actual PE totals.
pub fn eq3_predicted_speedup(ut: f64, ut_lbl: f64, pe_min: usize, x: usize) -> f64 {
    ut * (pe_min + x) as f64 / (ut_lbl * pe_min as f64)
}

/// Eq. 3 from the *actual* architecture totals: predicted speedup of a
/// configuration with utilization `ut` on `total_pes` PEs over a baseline
/// with utilization `ut_lbl` on `baseline_total_pes` PEs.
///
/// Eq. 3 rests on the invariant `S ≈ (Ut · #PE) / (Ut_lbl · #PE_lbl)` —
/// active work is conserved, so speedup is the ratio of active-PE-cycle
/// *rates*. Unlike [`eq3_predicted_speedup`] this reads the architectures'
/// real PE counts instead of assuming the paper's `pe_min + x` sizing, so
/// it stays correct for autotuned/retargeted architectures; it returns
/// `None` when the prediction is undefined (an idle or degenerate
/// baseline), instead of a division-by-zero artefact.
pub fn eq3_predicted_from_utilization(
    ut: f64,
    ut_lbl: f64,
    total_pes: usize,
    baseline_total_pes: usize,
) -> Option<f64> {
    if !ut_lbl.is_finite() || ut_lbl <= 0.0 || baseline_total_pes == 0 || total_pes == 0 {
        return None;
    }
    Some(ut * total_pes as f64 / (ut_lbl * baseline_total_pes as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Schedule, SetTime};
    use crate::sets::SetBands;
    use cim_ir::{FeatureShape, NodeId};

    /// `sets` single-row sets of `duration` cycles each: an OFM `sets`
    /// rows high and `duration` columns wide.
    fn layer(pes: usize, sets: usize, duration: usize) -> LayerSets {
        LayerSets {
            node: NodeId(0),
            name: "l".into(),
            logical: 0,
            ofm: FeatureShape::new(sets, duration, 1),
            pes,
            quantum: 1,
            sets: SetBands::new(sets, duration, 1),
        }
    }

    fn schedule_of(layers: &[LayerSets]) -> Schedule {
        crate::schedule::layer_by_layer_schedule(layers).unwrap()
    }

    #[test]
    fn eq2_hand_example() {
        // Layer A: 2 PEs × 10 cycles, layer B: 3 PEs × 5 cycles, sequential.
        let mut a = layer(2, 1, 10);
        a.logical = 1;
        let mut b = layer(3, 1, 5);
        b.logical = 2;
        let layers = vec![a, b];
        let s = schedule_of(&layers);
        assert_eq!(s.makespan, 15);
        let r = utilization(&layers, &s, 10).unwrap();
        assert_eq!(r.active_pe_cycles, 2 * 10 + 3 * 5);
        assert!((r.utilization - 35.0 / 150.0).abs() < 1e-12);
        assert_eq!(r.used_pes, 5);
    }

    #[test]
    fn idle_spare_pes_lower_utilization() {
        let layers = vec![layer(2, 1, 10)];
        let s = schedule_of(&layers);
        let tight = utilization(&layers, &s, 2).unwrap();
        let spare = utilization(&layers, &s, 4).unwrap();
        assert!((tight.utilization - 1.0).abs() < 1e-12);
        assert!((spare.utilization - 0.5).abs() < 1e-12);
    }

    #[test]
    fn used_exceeding_total_rejected() {
        let layers = vec![layer(8, 1, 10)];
        let s = schedule_of(&layers);
        assert!(matches!(
            utilization(&layers, &s, 4),
            Err(CoreError::StageMismatch { .. })
        ));
    }

    #[test]
    fn speedup_basics() {
        assert!((speedup(100, 50).unwrap() - 2.0).abs() < 1e-12);
        assert!((speedup(100, 100).unwrap() - 1.0).abs() < 1e-12);
        assert!(speedup(100, 0).is_err());
        assert!(speedup(0, 100).is_err());
    }

    /// Eq. 3 holds exactly when the active work is invariant across
    /// configurations (same layers, same architecture work).
    #[test]
    fn eq3_exact_when_work_invariant() {
        let mut a = layer(2, 2, 6);
        a.logical = 1;
        let mut b = layer(1, 2, 4);
        b.logical = 2;
        let layers = vec![a, b];
        let pe_min = 3;

        let lbl = schedule_of(&layers);
        let ut_lbl = utilization(&layers, &lbl, pe_min).unwrap().utilization;

        // A hypothetical faster schedule with the same active cycles.
        let fast = Schedule::from_nested(
            vec![
                vec![
                    SetTime {
                        start: 0,
                        finish: 6,
                    },
                    SetTime {
                        start: 6,
                        finish: 12,
                    },
                ],
                vec![
                    SetTime {
                        start: 4,
                        finish: 8,
                    },
                    SetTime {
                        start: 8,
                        finish: 12,
                    },
                ],
            ],
            12,
        );
        let ut_fast = utilization(&layers, &fast, pe_min).unwrap().utilization;
        let s_measured = speedup(lbl.makespan, fast.makespan).unwrap();
        let s_predicted = eq3_predicted_speedup(ut_fast, ut_lbl, pe_min, 0);
        assert!(
            (s_measured - s_predicted).abs() < 1e-9,
            "measured {s_measured} vs Eq.3 {s_predicted}"
        );
    }

    #[test]
    fn eq3_from_totals_matches_paper_form_and_guards_degenerates() {
        // On the paper family (config on pe_min + x PEs, baseline on
        // pe_min) the two forms are bit-identical.
        let (ut, ut_lbl, pe_min, x) = (0.23, 0.041, 117usize, 32usize);
        let legacy = eq3_predicted_speedup(ut, ut_lbl, pe_min, x);
        let general = eq3_predicted_from_utilization(ut, ut_lbl, pe_min + x, pe_min).unwrap();
        assert_eq!(legacy.to_bits(), general.to_bits());
        // Degenerate baselines yield no prediction instead of inf/NaN.
        assert_eq!(eq3_predicted_from_utilization(0.5, 0.0, 10, 10), None);
        assert_eq!(eq3_predicted_from_utilization(0.5, f64::NAN, 10, 10), None);
        assert_eq!(eq3_predicted_from_utilization(0.5, 0.1, 0, 10), None);
        assert_eq!(eq3_predicted_from_utilization(0.5, 0.1, 10, 0), None);
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let layers = vec![layer(1, 1, 1)];
        let s = Schedule::from_nested(vec![], 0);
        assert!(matches!(
            utilization(&layers, &s, 1),
            Err(CoreError::StageMismatch { .. })
        ));
    }
}
