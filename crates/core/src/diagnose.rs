//! Schedule-IR diagnostics: a static analysis pass over the Stage I–IV
//! artifacts that reports *everything* wrong (or suspicious) about a
//! schedule, with structured severities — rather than bailing at the first
//! violation the way [`validate_schedule`](crate::validate_schedule) does.
//!
//! Two consumers:
//!
//! * the validator itself — [`crate::validate_schedule_costed`] runs only
//!   the validation group of [`analyze_costed`] and returns its first
//!   finding as a
//!   [`CoreError::InvalidSchedule`](crate::CoreError::InvalidSchedule)
//!   with an unchanged message, so every historical error string (and the
//!   tests asserting on them) is preserved byte-for-byte;
//! * the `lint-schedule` binary in `cim-bench`, which prints the full
//!   report (including the advisory findings the validator ignores).
//!
//! Diagnostics come in two groups, distinguished by [`is_validation_code`]:
//!
//! | group | codes | meaning |
//! |-------|-------|---------|
//! | validation | `shape`, `cost-table`, `duration`, `overlap`, `data-dep`, `makespan` | the schedule breaks the paper's legality rules (Sec. IV); always [`Severity::Error`] |
//! | analysis | `backward-dep`, `cycle`, `unreachable`, `fan-in`, `capacity`, `tile-span` | the *inputs* are malformed or the mapping looks suspicious; severities vary |
//!
//! Analysis findings never affect [`crate::validate_schedule`]'s verdict,
//! so the validator does not compute them: a schedule over odd-looking
//! inputs is still legal if every window obeys the duration, ordering,
//! dependency, and makespan rules.

use serde::Serialize;

use crate::cost::CostedDeps;
use crate::deps::{Dependencies, SetRef};
use crate::schedule::Schedule;
use crate::sets::LayerSets;
use cim_arch::Architecture;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Informational: worth knowing, nothing to fix.
    Info,
    /// Suspicious: likely a mapping/policy problem, but the schedule may
    /// still be legal.
    Warning,
    /// The schedule (or its inputs) is broken.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of the diagnostics pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ScheduleDiagnostic {
    /// How bad it is.
    pub severity: Severity,
    /// Stable machine-readable code (see the module table).
    pub code: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for ScheduleDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.detail)
    }
}

impl ScheduleDiagnostic {
    fn error(code: &'static str, detail: String) -> Self {
        ScheduleDiagnostic {
            severity: Severity::Error,
            code,
            detail,
        }
    }

    fn warning(code: &'static str, detail: String) -> Self {
        ScheduleDiagnostic {
            severity: Severity::Warning,
            code,
            detail,
        }
    }

    fn info(code: &'static str, detail: String) -> Self {
        ScheduleDiagnostic {
            severity: Severity::Info,
            code,
            detail,
        }
    }
}

/// Whether `code` belongs to the validation group — the legality rules
/// whose first `Error` is what [`crate::validate_schedule`] reports.
pub fn is_validation_code(code: &str) -> bool {
    matches!(
        code,
        "shape" | "cost-table" | "duration" | "overlap" | "data-dep" | "makespan"
    )
}

/// Runs the full diagnostics pass with a prebuilt edge-cost table.
///
/// Emits the validation findings first, in exactly the order the
/// historical validator checked them (shape, cost-table provenance,
/// per-layer durations and overlaps, data dependencies, makespan), then
/// the analysis findings. When the schedule's shape disagrees with the
/// layer list, only the shape findings are returned — nothing else can be
/// indexed safely.
#[must_use]
pub fn analyze_costed(
    layers: &[LayerSets],
    deps: &Dependencies,
    schedule: &Schedule,
    costed: &CostedDeps,
) -> Vec<ScheduleDiagnostic> {
    let mut out = Vec::new();
    if validation_findings(layers, deps, schedule, costed, &mut out) {
        analyze_deps(layers, deps, &mut out);
    }
    out
}

/// The validation group of [`analyze_costed`]: pushes its findings, all of
/// [`Severity::Error`], and reports whether the shapes agree well enough
/// for the analysis group to index the dependencies.
pub(crate) fn validation_findings(
    layers: &[LayerSets],
    deps: &Dependencies,
    schedule: &Schedule,
    costed: &CostedDeps,
    out: &mut Vec<ScheduleDiagnostic>,
) -> bool {
    // -- shape (gate: everything below indexes through it) ---------------
    if !check_shape(layers, schedule, out) {
        return false;
    }
    // The historical validator assumed deps agree with the schedule shape
    // (they always do when both come from the pipeline) and would index
    // out of bounds otherwise; the diagnostics pass degrades gracefully.
    let deps_aligned = deps.num_layers() == layers.len()
        && (0..deps.num_layers()).all(|l| deps.space().sets_in(l) == schedule.layer(l).len());
    if !deps_aligned {
        out.push(ScheduleDiagnostic::error(
            "shape",
            format!(
                "dependencies cover a different set space ({} layers) than the schedule ({})",
                deps.num_layers(),
                schedule.num_layers()
            ),
        ));
        return false;
    }

    // -- cost-table provenance -------------------------------------------
    let costed_ok = costed.matches(deps);
    if !costed_ok {
        out.push(ScheduleDiagnostic::error(
            "cost-table",
            "cost table was built from different dependencies".to_string(),
        ));
    }

    // -- durations and PE-group ordering, layer by layer ------------------
    let mut latest = 0u64;
    for (li, layer) in layers.iter().enumerate() {
        let times = schedule.layer(li);
        for (si, (t, duration)) in times.iter().zip(layer.sets.durations()).enumerate() {
            if t.finish.saturating_sub(t.start) != duration {
                out.push(ScheduleDiagnostic::error(
                    "duration",
                    format!(
                        "layer `{}` set {si}: window [{}, {}) does not match duration {duration}",
                        layer.name, t.start, t.finish
                    ),
                ));
            }
            latest = latest.max(t.finish);
        }
        for (si, w) in times.windows(2).enumerate() {
            if w[1].start < w[0].finish {
                out.push(ScheduleDiagnostic::error(
                    "overlap",
                    format!(
                        "layer `{}`: set {} starts at {} before set {} finishes at {} \
                         (one PE group cannot overlap)",
                        layer.name,
                        si + 1,
                        w[1].start,
                        si,
                        w[0].finish
                    ),
                ));
            }
        }
    }

    // -- data dependencies (needs a matching cost table) ------------------
    // The schedule's arena is sliced like the table (both shapes match the
    // layers), so every edge reads its producer's window by global index.
    if costed_ok {
        let times = schedule.arena();
        for (i, c) in times.iter().enumerate() {
            let (producers, latencies) = costed.incoming(i);
            for (&p, &lat) in producers.iter().zip(latencies) {
                let arrival = times[p as usize].finish + lat;
                if c.start < arrival {
                    let producer = deps.space().set_ref(p as usize);
                    let consumer = deps.space().set_ref(i);
                    out.push(ScheduleDiagnostic::error(
                        "data-dep",
                        format!(
                            "data dependency violated: {producer} arrives at {arrival} but \
                             {consumer} starts at {}",
                            c.start
                        ),
                    ));
                }
            }
        }
    }

    // -- makespan ---------------------------------------------------------
    if schedule.makespan != latest {
        out.push(ScheduleDiagnostic::error(
            "makespan",
            format!(
                "makespan {} does not match latest finish {latest}",
                schedule.makespan
            ),
        ));
    }
    true
}

/// The analysis group of [`analyze_costed`], which the validator never
/// runs: backward edges, cycles, unreachable sets, and fan-in anomalies
/// over the dependency structure.
fn analyze_deps(layers: &[LayerSets], deps: &Dependencies, out: &mut Vec<ScheduleDiagnostic>) {
    // Backward (non-topological) edges. `Dependencies::from_edges` admits
    // arbitrary producer/consumer pairs; the schedulers require every
    // producer to live in an earlier layer.
    for l in 0..deps.num_layers() {
        for s in 0..deps.space().sets_in(l) {
            for dep in deps.of(l, s) {
                if dep.layer >= l {
                    let consumer = SetRef { layer: l, set: s };
                    out.push(ScheduleDiagnostic::error(
                        "backward-dep",
                        format!(
                            "producer {dep} of {consumer} is not in an earlier layer; \
                             no topological schedule exists"
                        ),
                    ));
                }
            }
        }
    }

    // Cycle detection over the producer graph (iterative three-colour
    // DFS). Layer-respecting dependencies are acyclic by construction, so
    // a cycle implies backward edges — but it names the loop explicitly.
    if let Some(witness) = find_cycle(deps) {
        out.push(ScheduleDiagnostic::error(
            "cycle",
            format!("dependency cycle through {witness}"),
        ));
    }

    // Unreachable sets: a set past the input layer with no producers can
    // never receive data.
    for l in 1..deps.num_layers() {
        for s in 0..deps.space().sets_in(l) {
            if deps.fan_in(l, s) == 0 {
                let set = SetRef { layer: l, set: s };
                let name = layers.get(l).map_or("?", |ls| ls.name.as_str());
                out.push(ScheduleDiagnostic::warning(
                    "unreachable",
                    format!(
                        "{set} (layer `{name}`) has no producers; it is unreachable \
                         from the input layer"
                    ),
                ));
            }
        }
    }

    // Fan-in anomalies: a set whose fan-in dwarfs the mean serialises an
    // unusual number of producers — usually a set policy that is too
    // coarse upstream of a concatenation.
    let mut total = 0usize;
    let mut counted = 0usize;
    let mut max_ref = None;
    let mut max_fan = 0usize;
    for l in 0..deps.num_layers() {
        for s in 0..deps.space().sets_in(l) {
            let f = deps.fan_in(l, s);
            if f > 0 {
                total += f;
                counted += 1;
            }
            if f > max_fan {
                max_fan = f;
                max_ref = Some(SetRef { layer: l, set: s });
            }
        }
    }
    if counted > 0 {
        let mean = total as f64 / counted as f64;
        let threshold = (4.0 * mean).max(8.0);
        if let Some(set) = max_ref {
            if max_fan as f64 > threshold {
                out.push(ScheduleDiagnostic::warning(
                    "fan-in",
                    format!(
                        "{set} has fan-in {max_fan}, {:.1}x the mean of {mean:.1}; \
                         its producers serialise the schedule",
                        max_fan as f64 / mean
                    ),
                ));
            }
        }
    }
}

/// Finds one set on a dependency cycle, if any (three-colour DFS over the
/// producer edges, iterative to stay stack-safe on deep graphs).
fn find_cycle(deps: &Dependencies) -> Option<SetRef> {
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let mut colour = vec![WHITE; deps.space().total_sets()];
    for root in 0..colour.len() {
        if colour[root] != WHITE {
            continue;
        }
        // Explicit stack of (set, next-producer position), by global index.
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        colour[root] = GREY;
        while let Some(top) = stack.last_mut() {
            let producers = deps.producers(top.0);
            let Some(&p) = producers.get(top.1) else {
                colour[top.0] = BLACK;
                stack.pop();
                continue;
            };
            top.1 += 1;
            let p = p as usize;
            match colour[p] {
                WHITE => {
                    colour[p] = GREY;
                    stack.push((p, 0));
                }
                GREY => return Some(deps.space().set_ref(p)),
                _ => {}
            }
        }
    }
    None
}

/// Architecture-aware capacity findings over the Stage-I mapping:
///
/// * `capacity` ([`Severity::Error`]) — the per-layer PE groups together
///   exceed the machine (weights are stationary: every base layer's group
///   must coexist), or a single group alone does;
/// * `tile-span` ([`Severity::Info`]) — one summary line counting the
///   groups that span multiple tiles (NoC traffic crosses tile
///   boundaries there).
///
/// Separate from [`analyze_costed`] because the validator has no
/// [`Architecture`] in scope; the `lint-schedule` binary concatenates
/// both passes.
#[must_use]
pub fn capacity_diagnostics(layers: &[LayerSets], arch: &Architecture) -> Vec<ScheduleDiagnostic> {
    let mut out = Vec::new();
    let total: usize = layers.iter().map(|l| l.pes).sum();
    let avail = arch.total_pes();
    for layer in layers {
        if layer.pes > avail {
            out.push(ScheduleDiagnostic::error(
                "capacity",
                format!(
                    "layer `{}` needs {} PEs but the architecture has {avail}",
                    layer.name, layer.pes
                ),
            ));
        }
    }
    if total > avail {
        out.push(ScheduleDiagnostic::error(
            "capacity",
            format!(
                "mapping needs {total} PEs across {} layer groups but the \
                 architecture has {avail} (weights are stationary; groups coexist)",
                layers.len()
            ),
        ));
    }
    let per_tile = arch.tile().pes_per_tile.max(1);
    let spanning = layers.iter().filter(|l| l.pes > per_tile).count();
    if spanning > 0 {
        let widest = layers.iter().map(|l| l.pes.div_ceil(per_tile)).max().unwrap_or(1);
        out.push(ScheduleDiagnostic::info(
            "tile-span",
            format!(
                "{spanning} of {} layer groups span multiple tiles \
                 (widest: {widest} tiles of {per_tile} PEs); their OFM traffic crosses the NoC",
                layers.len()
            ),
        ));
    }
    out
}

/// Shape agreement between the schedule and the layer list; pushes
/// findings and reports whether the shape is sound enough to continue.
pub(crate) fn check_shape(
    layers: &[LayerSets],
    schedule: &Schedule,
    out: &mut Vec<ScheduleDiagnostic>,
) -> bool {
    if schedule.num_layers() != layers.len() {
        out.push(ScheduleDiagnostic::error(
            "shape",
            format!(
                "schedule has {} layers, expected {}",
                schedule.num_layers(),
                layers.len()
            ),
        ));
        return false;
    }
    let mut ok = true;
    for (li, layer) in layers.iter().enumerate() {
        let n = schedule.layer(li).len();
        if n != layer.sets.len() {
            out.push(ScheduleDiagnostic::error(
                "shape",
                format!(
                    "layer `{}` has {} windows for {} sets",
                    layer.name,
                    n,
                    layer.sets.len()
                ),
            ));
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::determine_dependencies;
    use crate::schedule::{cross_layer_schedule, EdgeCost, Schedule};
    use crate::sets::{determine_sets, SetPolicy};
    use cim_arch::CrossbarSpec;
    use cim_ir::{Conv2dAttrs, FeatureShape, Graph, Op, Padding};
    use cim_mapping::{layer_costs, MappingOptions};

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
    fn clean_pipelines_have_no_errors_or_warnings() {
        let (layers, deps, s) = pipeline();
        let costed = CostedDeps::free(&layers, &deps).unwrap();
        let diags = analyze_costed(&layers, &deps, &s, &costed);
        assert!(
            diags.iter().all(|d| d.severity == Severity::Info),
            "unexpected findings: {diags:?}"
        );
    }

    #[test]
    fn every_violation_is_reported_not_just_the_first() {
        let (layers, deps, mut s) = pipeline();
        // Break a duration AND the makespan: the one-shot validator stops
        // at the duration; the diagnostics pass reports both.
        s.time_mut(0, 0).finish += 1;
        s.makespan += 7;
        let costed = CostedDeps::free(&layers, &deps).unwrap();
        let diags = analyze_costed(&layers, &deps, &s, &costed);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"duration"), "{codes:?}");
        assert!(codes.contains(&"makespan"), "{codes:?}");
    }

    #[test]
    fn backward_edges_yield_backward_dep_and_cycle_findings() {
        let (layers, _deps, s) = pipeline();
        let counts: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
        // 0→1 plus the illegal 1→0 back-edge: a two-set cycle.
        let a = SetRef { layer: 0, set: 0 };
        let b = SetRef { layer: 1, set: 0 };
        let deps = Dependencies::from_edges(&counts, &[(a, b), (b, a)]).unwrap();
        let costed = CostedDeps::free(&layers, &deps).unwrap();
        let diags = analyze_costed(&layers, &deps, &s, &costed);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"backward-dep"), "{codes:?}");
        assert!(codes.contains(&"cycle"), "{codes:?}");
    }

    #[test]
    fn orphan_sets_are_flagged_unreachable() {
        let (layers, _deps, s) = pipeline();
        let counts: Vec<usize> = layers.iter().map(|l| l.sets.len()).collect();
        // Only one edge into layer 1: everything else downstream is orphaned.
        let a = SetRef { layer: 0, set: 0 };
        let b = SetRef { layer: 1, set: 0 };
        let deps = Dependencies::from_edges(&counts, &[(a, b)]).unwrap();
        let costed = CostedDeps::free(&layers, &deps).unwrap();
        let diags = analyze_costed(&layers, &deps, &s, &costed);
        assert!(
            diags.iter().any(|d| d.code == "unreachable"),
            "{diags:?}"
        );
    }

    #[test]
    fn capacity_overflow_is_an_error() {
        let (layers, _deps, _s) = pipeline();
        // 1-PE machine: every group overflows it.
        let arch = Architecture::builder().pes(1).build().unwrap();
        let diags = capacity_diagnostics(&layers, &arch);
        assert!(
            diags
                .iter()
                .any(|d| d.code == "capacity" && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn display_is_severity_code_detail() {
        let d = ScheduleDiagnostic::error("duration", "x".to_string());
        assert_eq!(d.to_string(), "error[duration]: x");
    }

    #[test]
    fn validation_codes_are_classified() {
        for c in ["shape", "cost-table", "duration", "overlap", "data-dep", "makespan"] {
            assert!(is_validation_code(c));
        }
        for c in ["backward-dep", "cycle", "unreachable", "fan-in", "capacity", "tile-span"] {
            assert!(!is_validation_code(c));
        }
    }
}
