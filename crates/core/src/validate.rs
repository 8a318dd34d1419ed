//! Schedule validation: machine-checks every property a legal CLSA-CIM
//! schedule must have. Used by the test suite (including the property tests
//! over random graphs) and available to downstream users as a debugging
//! aid.

use crate::cost::CostedDeps;
use crate::deps::Dependencies;
use crate::diagnose::{check_shape, validation_findings};
use crate::error::{CoreError, Result};
use crate::schedule::{EdgeCost, Schedule};
use crate::sets::LayerSets;

/// Validates `schedule` against the Stage I/II outputs it was built from.
///
/// Checked properties:
///
/// 1. shape: one time window per set, everywhere;
/// 2. durations: `finish − start` equals the set's duration;
/// 3. Stage III resource order: a layer's windows are non-overlapping and
///    in set order (one PE group per layer);
/// 4. Stage II data dependencies: every producer set finishes (plus the
///    edge cost) before its consumer starts;
/// 5. the makespan equals the latest finish.
///
/// Edge costs are precomputed once; callers that already hold the
/// [`CostedDeps`] of the `(mapping, EdgeCost)` pair (e.g. because the
/// schedule was built from it) should use [`validate_schedule_costed`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidSchedule`] describing the first violation.
pub fn validate_schedule(
    layers: &[LayerSets],
    deps: &Dependencies,
    schedule: &Schedule,
    edge_cost: &EdgeCost,
) -> Result<()> {
    let mut shape = Vec::new();
    check_shape(layers, schedule, &mut shape);
    if let Some(d) = shape.into_iter().next() {
        return Err(CoreError::InvalidSchedule { detail: d.detail });
    }
    let costed = CostedDeps::build(layers, deps, edge_cost).map_err(invalidate)?;
    validate_schedule_costed(layers, deps, schedule, &costed)
}

/// [`validate_schedule`] on a prebuilt [`CostedDeps`] table.
///
/// Runs only the validation group of the structured diagnostics pass
/// ([`crate::diagnose::analyze_costed`]): its first finding becomes the
/// returned error, with a message byte-identical to the historical
/// single-shot validator's. The analysis group (backward edges, cycles,
/// fan-in anomalies, …) never affects the verdict, so it is not run — see
/// the `diagnose` module docs for the split.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSchedule`] describing the first violation.
pub fn validate_schedule_costed(
    layers: &[LayerSets],
    deps: &Dependencies,
    schedule: &Schedule,
    costed: &CostedDeps,
) -> Result<()> {
    let mut findings = Vec::new();
    validation_findings(layers, deps, schedule, costed, &mut findings);
    match findings.into_iter().next() {
        Some(d) => Err(CoreError::InvalidSchedule { detail: d.detail }),
        None => Ok(()),
    }
}

/// Maps a stage mismatch from cost-table construction onto the validator's
/// error type.
fn invalidate(e: CoreError) -> CoreError {
    match e {
        CoreError::StageMismatch { detail } => CoreError::InvalidSchedule { detail },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::CrossbarSpec;
    use cim_ir::{Conv2dAttrs, FeatureShape, Graph, Op, Padding};
    use cim_mapping::{layer_costs, MappingOptions};

    use crate::deps::determine_dependencies;
    use crate::schedule::{cross_layer_schedule, layer_by_layer_schedule};
    use crate::sets::{determine_sets, SetPolicy};

    fn pipeline() -> (Vec<LayerSets>, Dependencies, Schedule) {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(10, 10, 3),
                },
                &[],
            )
            .unwrap();
        let c1 = g
            .add(
                "c1",
                Op::Conv2d(Conv2dAttrs {
                    out_channels: 8,
                    kernel: (3, 3),
                    stride: (1, 1),
                    padding: Padding::Valid,
                    use_bias: false,
                }),
                &[x],
            )
            .unwrap();
        g.add(
            "c2",
            Op::Conv2d(Conv2dAttrs {
                out_channels: 8,
                kernel: (3, 3),
                stride: (1, 1),
                padding: Padding::Valid,
                use_bias: false,
            }),
            &[c1],
        )
        .unwrap();
        let costs = layer_costs(
            &g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        let layers = determine_sets(&g, &costs, &SetPolicy::finest()).unwrap();
        let deps = determine_dependencies(&g, &layers).unwrap();
        let s = cross_layer_schedule(&layers, &deps, &EdgeCost::Free).unwrap();
        (layers, deps, s)
    }

    #[test]
    fn valid_schedules_pass() {
        let (layers, deps, s) = pipeline();
        validate_schedule(&layers, &deps, &s, &EdgeCost::Free).unwrap();
        let lbl = layer_by_layer_schedule(&layers).unwrap();
        validate_schedule(&layers, &deps, &lbl, &EdgeCost::Free).unwrap();
    }

    #[test]
    fn costed_validator_matches_the_wrapper() {
        let (layers, deps, s) = pipeline();
        let costed = crate::cost::CostedDeps::free(&layers, &deps).unwrap();
        validate_schedule_costed(&layers, &deps, &s, &costed).unwrap();
    }

    #[test]
    fn detects_duration_mismatch() {
        let (layers, deps, mut s) = pipeline();
        s.time_mut(0, 0).finish += 1;
        // Either the duration check or a downstream one fires; it must fail.
        assert!(validate_schedule(&layers, &deps, &s, &EdgeCost::Free).is_err());
    }

    #[test]
    fn detects_group_overlap() {
        let (layers, deps, mut s) = pipeline();
        // Shift set 1 of layer 0 to overlap set 0.
        let d = s.time(0, 1).finish - s.time(0, 1).start;
        s.time_mut(0, 1).start = s.time(0, 0).start;
        s.time_mut(0, 1).finish = s.time(0, 1).start + d;
        let err = validate_schedule(&layers, &deps, &s, &EdgeCost::Free).unwrap_err();
        assert!(err.to_string().contains("PE group"), "{err}");
    }

    #[test]
    fn detects_dependency_violation() {
        let (layers, deps, mut s) = pipeline();
        // Pull the first consumer set before its producers finish.
        let d = s.time(1, 0).finish - s.time(1, 0).start;
        s.time_mut(1, 0).start = 0;
        s.time_mut(1, 0).finish = d;
        let err = validate_schedule(&layers, &deps, &s, &EdgeCost::Free).unwrap_err();
        assert!(err.to_string().contains("dependency"), "{err}");
    }

    #[test]
    fn detects_wrong_makespan() {
        let (layers, deps, mut s) = pipeline();
        s.makespan += 7;
        let err = validate_schedule(&layers, &deps, &s, &EdgeCost::Free).unwrap_err();
        assert!(err.to_string().contains("makespan"), "{err}");
    }

    /// The validator runs only the validation group, yet its verdict is
    /// the first validation error of the full diagnostics pass — on clean
    /// and corrupted schedules, on a mismatched cost table, and on deps
    /// whose backward edges and cycles only the analysis group reports.
    #[test]
    fn verdict_is_the_first_validation_finding_of_the_full_pass() {
        use crate::deps::SetRef;
        use crate::diagnose::{analyze_costed, is_validation_code, Severity};

        let (layers, deps, s) = pipeline();
        let counts: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
        let a = SetRef { layer: 0, set: 0 };
        let b = SetRef { layer: 0, set: 1 };
        let c = SetRef { layer: 1, set: 0 };
        let corrupt = |f: &dyn Fn(&mut Schedule)| {
            let mut bad = s.clone();
            f(&mut bad);
            bad
        };
        let with_costs = |deps: Dependencies| {
            let costed = CostedDeps::free(&layers, &deps).unwrap();
            (deps, costed)
        };
        let (deps, free) = with_costs(deps);
        // A cost table built from other deps.
        let (_, other_costed) = with_costs(Dependencies::from_edges(&counts, &[(c, a)]).unwrap());
        // A same-layer edge the schedule satisfies: analysis errors only.
        let (backward, backward_costed) =
            with_costs(Dependencies::from_edges(&counts, &[(b, a)]).unwrap());
        let (cycle, cycle_costed) =
            with_costs(Dependencies::from_edges(&counts, &[(c, a), (a, c)]).unwrap());
        let cases = [
            ("clean", &deps, s.clone(), &free),
            (
                "duration",
                &deps,
                corrupt(&|t| t.time_mut(0, 0).finish += 1),
                &free,
            ),
            (
                "overlap",
                &deps,
                corrupt(&|t| {
                    let d = t.time(0, 1).finish - t.time(0, 1).start;
                    t.time_mut(0, 1).start = t.time(0, 0).start;
                    t.time_mut(0, 1).finish = t.time(0, 0).start + d;
                }),
                &free,
            ),
            (
                "early consumer",
                &deps,
                corrupt(&|t| {
                    let d = t.time(1, 0).finish - t.time(1, 0).start;
                    t.time_mut(1, 0).start = 0;
                    t.time_mut(1, 0).finish = d;
                }),
                &free,
            ),
            ("makespan", &deps, corrupt(&|t| t.makespan += 7), &free),
            ("cost table", &deps, s.clone(), &other_costed),
            ("backward edge", &backward, s.clone(), &backward_costed),
            ("cycle", &cycle, s.clone(), &cycle_costed),
        ];

        let mut analysis_seen = Vec::new();
        for (name, deps, s, costed) in cases {
            let diags = analyze_costed(&layers, deps, &s, costed);
            let expected = diags
                .iter()
                .find(|d| d.severity == Severity::Error && is_validation_code(d.code))
                .map(|d| d.detail.clone());
            let got = validate_schedule_costed(&layers, deps, &s, costed)
                .err()
                .map(|e| match e {
                    CoreError::InvalidSchedule { detail } => detail,
                    other => panic!("{name}: unexpected error kind {other}"),
                });
            assert_eq!(got, expected, "{name}");
            assert_eq!(
                got.is_some(),
                name != "clean" && name != "backward edge",
                "{name}"
            );
            // Validation findings come first, then the analysis findings.
            let first_analysis = diags.iter().position(|d| !is_validation_code(d.code));
            if let Some(i) = first_analysis {
                assert!(
                    diags[i..].iter().all(|d| !is_validation_code(d.code)),
                    "{name}: {diags:?}"
                );
            }
            analysis_seen.extend(
                diags
                    .iter()
                    .filter(|d| !is_validation_code(d.code))
                    .map(|d| d.code),
            );
        }
        for code in ["backward-dep", "cycle", "unreachable"] {
            assert!(
                analysis_seen.contains(&code),
                "{code} never reported: {analysis_seen:?}"
            );
        }
    }

    /// Both shape messages come out of `validate_schedule`, and a shape
    /// error outranks deps that do not match the layers.
    #[test]
    fn shape_errors_come_first_and_name_the_mismatch() {
        let (layers, deps, s) = pipeline();
        let detail = |s: &Schedule, deps: &Dependencies| match validate_schedule(
            &layers,
            deps,
            s,
            &EdgeCost::Free,
        ) {
            Err(CoreError::InvalidSchedule { detail }) => detail,
            other => panic!("expected an invalid schedule, got {other:?}"),
        };
        let mut nested = s.to_nested();
        nested[0].pop();
        let short = Schedule::from_nested(nested, s.makespan);
        let mut nested = s.to_nested();
        nested.pop();
        let missing = Schedule::from_nested(nested, s.makespan);
        let sets = layers[0].sets.len();
        let short_msg = format!(
            "layer `{}` has {} windows for {sets} sets",
            layers[0].name,
            sets - 1
        );
        let missing_msg = format!(
            "schedule has {} layers, expected {}",
            layers.len() - 1,
            layers.len()
        );
        assert_eq!(detail(&short, &deps), short_msg);
        assert_eq!(detail(&missing, &deps), missing_msg);

        // Deps over another set space fail on their own …
        let counts = vec![1; layers.len() + 1];
        let other = Dependencies::from_edges(&counts, &[]).unwrap();
        let mismatch = detail(&s, &other);
        assert!(mismatch.starts_with("dependencies cover"), "{mismatch}");
        // … but a schedule-shape error is reported first.
        assert_eq!(detail(&short, &other), short_msg);
        assert_eq!(detail(&missing, &other), missing_msg);
    }

    #[test]
    fn detects_shape_mismatch() {
        let (layers, deps, s) = pipeline();
        let mut nested = s.to_nested();
        nested[0].pop();
        let s = Schedule::from_nested(nested, s.makespan);
        assert!(validate_schedule(&layers, &deps, &s, &EdgeCost::Free).is_err());
    }
}
