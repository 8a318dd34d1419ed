//! The paper sweep's vocabulary: the extra-PE budgets of Fig. 7
//! ([`PAPER_XS`], turned into jobs by
//! [`sweep_jobs`](crate::runner::sweep_jobs)), and the row each job
//! aggregates into ([`ConfigResult`], produced by
//! [`Sweep::run`](crate::runner::Sweep::run)).

use serde::{Deserialize, Serialize};

/// One configuration's outcome — one bar of Fig. 6c / Fig. 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigResult {
    /// Model name.
    pub model: String,
    /// Configuration label: `layer-by-layer`, `xinf`, `wdup+<x>`, or
    /// `wdup+<x>+xinf` (the paper's notation).
    pub label: String,
    /// Extra PEs over `PE_min` (the paper's `x`).
    pub x: usize,
    /// `PE_min` of the model.
    pub pe_min: usize,
    /// Total PEs of the architecture used (`PE_min + x`).
    pub total_pes: usize,
    /// Makespan in crossbar cycles.
    pub makespan_cycles: u64,
    /// Makespan in nanoseconds (cycles × t_MVM).
    pub makespan_ns: u64,
    /// Speedup versus the layer-by-layer baseline at `PE_min`.
    pub speedup: f64,
    /// Eq. 2 utilization.
    pub utilization: f64,
    /// Eq. 3 predicted speedup from the utilizations and the *actual*
    /// architecture PE totals (consistency check). `None` when the
    /// prediction is undefined (degenerate baseline) — serialized as
    /// JSON `null`; for the paper-family sweeps it is always present and
    /// numerically identical to the historical `pe_min + x` form.
    pub eq3_predicted: Option<f64>,
    /// Layers duplicated by the mapping (0 without duplication).
    pub duplicated_layers: usize,
}

/// The extra-PE budgets `x` of the paper's Fig. 7 sweep.
pub const PAPER_XS: [usize; 4] = [4, 8, 16, 32];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{sweep_jobs, RunnerOptions, Sweep};

    fn sweep_rows(
        name: &str,
        graph: &cim_ir::Graph,
        xs: &[usize],
        runner: RunnerOptions,
    ) -> Vec<ConfigResult> {
        let jobs = sweep_jobs(name, graph, xs).unwrap();
        Sweep::new(&jobs, runner).run().unwrap().results
    }

    #[test]
    fn sweep_order_and_determinism_on_fig5() {
        let g = cim_models::fig5_example();
        let a = sweep_rows("fig5", &g, &[1, 2], RunnerOptions::default());
        let b = sweep_rows("fig5", &g, &[1, 2], RunnerOptions::default());
        assert_eq!(a, b, "parallel sweep must be deterministic");
        let labels: Vec<&str> = a.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "layer-by-layer",
                "xinf",
                "wdup+1",
                "wdup+1+xinf",
                "wdup+2",
                "wdup+2+xinf"
            ]
        );
        assert_eq!(a[0].pe_min, 2);
        assert_eq!(a[0].makespan_cycles, 80);
        assert_eq!(a[1].makespan_cycles, 72);
        // Nanoseconds derive from the 1400 ns cycle.
        assert_eq!(a[0].makespan_ns, 80 * 1400);
    }

    #[test]
    fn parallel_and_sequential_sweeps_agree_bit_for_bit() {
        let g = cim_models::fig5_example();
        let xs = [1, 2, 3];
        let parallel = sweep_rows("fig5", &g, &xs, RunnerOptions::with_jobs(4));
        let sequential = sweep_rows("fig5", &g, &xs, RunnerOptions::sequential());
        assert_eq!(parallel, sequential);
        // Byte-identical through serialization, not just PartialEq.
        assert_eq!(
            serde_json::to_string(&parallel).unwrap(),
            serde_json::to_string(&sequential).unwrap()
        );
    }

    #[test]
    fn sweep_on_case_study_model_matches_paper_shape() {
        let g = cim_models::tiny_yolo_v4();
        let results = sweep_rows("TinyYOLOv4", &g, &[16, 32], RunnerOptions::default());
        assert_eq!(results.len(), 1 + 1 + 2 * 2);
        let by = |l: &str| results.iter().find(|r| r.label == l).unwrap();

        let lbl = by("layer-by-layer");
        assert_eq!(lbl.pe_min, 117);
        assert!((lbl.speedup - 1.0).abs() < 1e-12);

        let xinf = by("xinf");
        let wdup32 = by("wdup+32");
        let both32 = by("wdup+32+xinf");
        // Orderings the paper reports (Fig. 6c).
        assert!(xinf.speedup > 1.0);
        assert!(wdup32.speedup > 1.0);
        assert!(both32.speedup > xinf.speedup);
        assert!(both32.speedup > wdup32.speedup);
        // Eq. 3 consistency: prediction within 20 % of measurement (the
        // identity is exact only when work is invariant; duplication adds
        // ceil-rounding work).
        for r in &results {
            let p = r.eq3_predicted.expect("paper-family rows always predict");
            let rel = (p - r.speedup).abs() / r.speedup;
            assert!(rel < 0.2, "{}: Eq.3 off by {rel}", r.label);
        }
        // The paper's headline: wdup+32+xinf utilization well above lbl.
        assert!(both32.utilization > 5.0 * lbl.utilization);
    }
}
