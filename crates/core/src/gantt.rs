//! Gantt-chart export of schedules, in the spirit of the paper's Fig. 6a/6b
//! PE-activity visualizations.
//!
//! Two renderers are provided: a fixed-width text chart for terminals and a
//! serde-friendly record list for external plotting.

use serde::{Deserialize, Serialize};

use crate::schedule::Schedule;
use crate::sets::LayerSets;

/// One bar of the Gantt chart: a layer's contiguous activity on its group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GanttRow {
    /// Layer name.
    pub name: String,
    /// Logical layer id.
    pub logical: u32,
    /// PEs in the group.
    pub pes: usize,
    /// Per set: (start, finish) in cycles.
    pub windows: Vec<(u64, u64)>,
}

/// Extracts plot-ready rows from a schedule.
pub fn gantt_rows(layers: &[LayerSets], schedule: &Schedule) -> Vec<GanttRow> {
    layers
        .iter()
        .zip(schedule.iter_layers())
        .map(|(l, times)| GanttRow {
            name: l.name.clone(),
            logical: l.logical,
            pes: l.pes,
            windows: times.iter().map(|t| (t.start, t.finish)).collect(),
        })
        .collect()
}

/// Renders the schedule as CSV (`layer,logical,pes,set,start,finish`) for
/// external plotting — every set becomes one record.
///
/// # Examples
///
/// ```
/// # use clsa_core::{gantt_csv, Schedule, SetTime, LayerSets, SetBands};
/// # use cim_ir::{FeatureShape, NodeId};
/// let layers = vec![LayerSets {
///     node: NodeId(1), name: "conv".into(), logical: 1,
///     ofm: FeatureShape::new(1, 4, 8), pes: 2, quantum: 1,
///     sets: SetBands::new(1, 4, 1),
/// }];
/// let s = Schedule::from_nested(vec![vec![SetTime { start: 0, finish: 4 }]], 4);
/// let csv = gantt_csv(&layers, &s);
/// assert!(csv.lines().nth(1).unwrap().starts_with("conv,1,2,0,0,4"));
/// ```
pub fn gantt_csv(layers: &[LayerSets], schedule: &Schedule) -> String {
    let mut out = String::from("layer,logical,pes,set,start,finish\n");
    for (l, times) in layers.iter().zip(schedule.iter_layers()) {
        for (si, t) in times.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{si},{},{}\n",
                l.name, l.logical, l.pes, t.start, t.finish
            ));
        }
    }
    out
}

/// Renders a text Gantt chart, one row per layer, `width` characters of
/// timeline. Active spans are drawn with `█`, idle time with `·`.
///
/// # Examples
///
/// ```
/// # use cim_arch::CrossbarSpec;
/// # use cim_ir::{Conv2dAttrs, FeatureShape, Graph, Op, Padding};
/// # use cim_mapping::{layer_costs, MappingOptions};
/// # use clsa_core::{cross_layer_schedule, determine_dependencies, determine_sets,
/// #                 gantt_text, EdgeCost, SetPolicy};
/// # fn main() -> Result<(), clsa_core::CoreError> {
/// # let mut g = Graph::new("t");
/// # let x = g.add("input", Op::Input { shape: FeatureShape::new(10, 10, 3) }, &[])?;
/// # g.add("c1", Op::Conv2d(Conv2dAttrs { out_channels: 8, kernel: (3, 3), stride: (1, 1),
/// #     padding: Padding::Valid, use_bias: false }), &[x])?;
/// # let costs = layer_costs(&g, &CrossbarSpec::wan_nature_2022(), &MappingOptions::default())?;
/// # let layers = determine_sets(&g, &costs, &SetPolicy::finest())?;
/// # let deps = determine_dependencies(&g, &layers)?;
/// # let s = cross_layer_schedule(&layers, &deps, &EdgeCost::Free)?;
/// let chart = gantt_text(&layers, &s, 40);
/// assert!(chart.contains("c1"));
/// # Ok(())
/// # }
/// ```
pub fn gantt_text(layers: &[LayerSets], schedule: &Schedule, width: usize) -> String {
    let width = width.max(8);
    let name_w = layers
        .iter()
        .map(|l| l.name.len())
        .max()
        .unwrap_or(4)
        .max(5);
    let span = schedule.makespan.max(1);
    let mut out = String::new();
    out.push_str(&format!(
        "{:name_w$} | {:>6} | timeline 0..{} cycles\n",
        "layer", "#PE", schedule.makespan
    ));
    for (l, times) in layers.iter().zip(schedule.iter_layers()) {
        let mut cells = vec!['·'; width];
        for t in times {
            let a = (t.start as u128 * width as u128 / span as u128) as usize;
            let b = ((t.finish as u128 * width as u128).div_ceil(span as u128) as usize).min(width);
            for c in cells.iter_mut().take(b).skip(a) {
                *c = '█';
            }
        }
        let bar: String = cells.into_iter().collect();
        out.push_str(&format!("{:name_w$} | {:>6} | {bar}\n", l.name, l.pes));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SetTime;
    use crate::sets::SetBands;
    use cim_ir::{FeatureShape, NodeId};

    fn fixture() -> (Vec<LayerSets>, Schedule) {
        let layers = vec![
            LayerSets {
                node: NodeId(1),
                name: "conv_a".into(),
                logical: 1,
                ofm: FeatureShape::new(2, 4, 8),
                pes: 3,
                quantum: 1,
                sets: SetBands::new(2, 4, 1),
            },
            LayerSets {
                node: NodeId(2),
                name: "conv_b".into(),
                logical: 2,
                ofm: FeatureShape::new(1, 4, 8),
                pes: 1,
                quantum: 1,
                sets: SetBands::new(1, 4, 1),
            },
        ];
        let schedule = Schedule::from_nested(
            vec![
                vec![
                    SetTime {
                        start: 0,
                        finish: 4,
                    },
                    SetTime {
                        start: 4,
                        finish: 8,
                    },
                ],
                vec![SetTime {
                    start: 8,
                    finish: 12,
                }],
            ],
            12,
        );
        (layers, schedule)
    }

    #[test]
    fn rows_mirror_schedule() {
        let (layers, s) = fixture();
        let rows = gantt_rows(&layers, &s);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].windows, vec![(0, 4), (4, 8)]);
        assert_eq!(rows[1].windows, vec![(8, 12)]);
        assert_eq!(rows[0].pes, 3);
        let json = serde_json::to_string(&rows).unwrap();
        assert!(json.contains("conv_a"));
    }

    #[test]
    fn text_chart_shows_activity_position() {
        let (layers, s) = fixture();
        let chart = gantt_text(&layers, &s, 12);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3);
        // conv_a occupies the first 2/3 of its bar, conv_b the last 1/3.
        let bar_a = lines[1].rsplit('|').next().unwrap().trim();
        let bar_b = lines[2].rsplit('|').next().unwrap().trim();
        assert!(bar_a.starts_with('█'));
        assert!(bar_a.ends_with('·'));
        assert!(bar_b.starts_with('·'));
        assert!(bar_b.ends_with('█'));
    }

    #[test]
    fn text_chart_handles_zero_makespan() {
        let layers: Vec<LayerSets> = Vec::new();
        let s = Schedule::from_nested(vec![], 0);
        let chart = gantt_text(&layers, &s, 20);
        assert!(chart.contains("timeline"));
    }

    #[test]
    fn csv_lists_every_set() {
        let (layers, s) = fixture();
        let csv = gantt_csv(&layers, &s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "layer,logical,pes,set,start,finish");
        assert_eq!(lines.len(), 1 + 3, "header + three sets");
        assert_eq!(lines[1], "conv_a,1,3,0,0,4");
        assert_eq!(lines[3], "conv_b,2,1,0,8,12");
    }
}
