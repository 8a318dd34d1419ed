//! Weight-duplication graph rewrite (paper Fig. 4).
//!
//! A base layer with duplicate count `D > 1` is expanded into
//!
//! ```text
//!            ┌ slice₀ → conv_dup0 ┐
//! producer ──┼ slice₁ → conv_dup1 ┼── concat(s) ── consumers
//!            └ …      → …         ┘
//! ```
//!
//! The OFM is partitioned into `D` disjoint rectangles; each duplicate's
//! required IFM window is computed with the receptive-field arithmetic of
//! [`cim_ir::input_region`] and realized as a `slice` (the `tf.slice` of the
//! paper's TensorFlow implementation). The parts are reassembled by a
//! concat tree whose depth equals the number of dimensions cut, exactly as
//! described in Sec. III-C.
//!
//! All duplicates carry the original node's id as their `logical_layer`, so
//! the layer-by-layer baseline can run duplicates of one layer concurrently
//! while keeping distinct layers sequential.
//!
//! The rewrite rebuilds the whole graph, also under a trivial plan, so that
//! every base layer gets its marker. The output is sized once up front.
//! Every node goes through [`Graph::add_node`], which checks that its
//! inputs exist and re-infers its shape; the input ids are mapped into one
//! buffer reused across nodes. The finished graph is validated once
//! ([`Graph::validate`]: topological ids, unique names, shapes), so a
//! name clash in the input, or one a duplicate's generated name makes, is
//! a typed error.

use cim_ir::{input_region, Axis, Graph, NodeId, Op, Padding, Rect, SliceAttrs};

use crate::cost::LayerCost;
use crate::duplication::DuplicationPlan;
use crate::error::{MappingError, Result};

/// Applies a [`DuplicationPlan`] to `graph`, returning the rewritten graph.
///
/// `costs` must be the [`LayerCost`] slice the plan was optimized from (it
/// provides the node ids the plan entries refer to). Base layers keep their
/// parameters: every duplicate stores the *same* weights — that is the
/// whole point of weight duplication.
///
/// Every base layer in the output (duplicated or not) carries a
/// `logical_layer` marker equal to the original node id.
///
/// # Errors
///
/// Returns [`MappingError::PlanMismatch`] when the plan and cost slice
/// disagree with the graph (length mismatch, non-base node, stale ids, or a
/// duplicate count exceeding the layer's OFM positions), and when a layer
/// with more than one duplicate is not valid-padded: each duplicate reads a
/// slice of the unpadded input, so `same` or explicit padding must first be
/// made a separate node (`cim_frontend::canonicalize` does). Both are
/// checked before anything is built. Returns [`MappingError::Ir`] when the
/// rebuilt graph fails [`Graph::validate`], such as on a node name used
/// twice.
///
/// # Examples
///
/// ```
/// use cim_arch::CrossbarSpec;
/// use cim_ir::{Conv2dAttrs, FeatureShape, Graph, Op, Padding};
/// use cim_mapping::{apply_duplication, layer_costs, optimize, MappingOptions, Solver};
///
/// # fn main() -> Result<(), cim_mapping::MappingError> {
/// let mut g = Graph::new("t");
/// let x = g.add("input", Op::Input { shape: FeatureShape::new(17, 17, 4) }, &[])?;
/// g.add(
///     "conv",
///     Op::Conv2d(Conv2dAttrs {
///         out_channels: 8,
///         kernel: (3, 3),
///         stride: (2, 2),
///         padding: Padding::Valid,
///         use_bias: false,
///     }),
///     &[x],
/// )?;
/// let costs = layer_costs(&g, &CrossbarSpec::wan_nature_2022(), &MappingOptions::default())?;
/// let plan = optimize(&costs, costs[0].pes * 3, Solver::Greedy)?;
/// let dup = apply_duplication(&g, &costs, &plan)?;
/// assert_eq!(dup.base_layers().len(), 3, "three parallel duplicates");
/// # Ok(())
/// # }
/// ```
pub fn apply_duplication(
    graph: &Graph,
    costs: &[LayerCost],
    plan: &DuplicationPlan,
) -> Result<Graph> {
    if costs.len() != plan.duplicates.len() {
        return Err(MappingError::PlanMismatch {
            detail: format!(
                "plan has {} entries for {} base layers",
                plan.duplicates.len(),
                costs.len()
            ),
        });
    }
    // Duplicate count per node id.
    let mut dup_of = vec![1usize; graph.len()];
    for (c, &d) in costs.iter().zip(&plan.duplicates) {
        let node = graph.node(c.node)?;
        if !node.op.is_base() {
            return Err(MappingError::PlanMismatch {
                detail: format!("plan targets non-base node `{}`", node.name),
            });
        }
        if node.out_shape != c.ofm {
            return Err(MappingError::PlanMismatch {
                detail: format!(
                    "cost entry for `{}` records OFM {} but the graph has {}",
                    node.name, c.ofm, node.out_shape
                ),
            });
        }
        if d == 0 || d > node.out_shape.hw() {
            return Err(MappingError::PlanMismatch {
                detail: format!("`{}` cannot host {d} duplicates", node.name),
            });
        }
        if let Op::Conv2d(a) = &node.op {
            if d > 1 && a.padding != Padding::Valid {
                return Err(MappingError::PlanMismatch {
                    detail: format!(
                        "`{}` has {:?} padding and cannot be split into {d} duplicates; \
                         canonicalize the graph first",
                        node.name, a.padding
                    ),
                });
            }
        }
        dup_of[c.node.index()] = d;
    }

    let len = graph
        .iter()
        .map(|n| expanded_len(n.out_shape.w, dup_of[n.id.index()]))
        .sum();
    let mut out = Graph::with_capacity(graph.name(), len);
    let mut map: Vec<Option<NodeId>> = vec![None; graph.len()];
    let mapped = |map: &[Option<NodeId>], id: NodeId| -> NodeId {
        map[id.index()].expect("topological order") // cim-lint: allow(panic-unwrap) duplication plan indices come from the same graph
    };
    // Scratch reused across nodes: mapped input ids, and a duplicated
    // layer's parts and bands.
    let mut inputs: Vec<NodeId> = Vec::new();
    let mut part_outputs: Vec<NodeId> = Vec::new();
    let mut band_outputs: Vec<NodeId> = Vec::new();

    for node in graph.iter() {
        let d = dup_of[node.id.index()];
        if !node.op.is_base() || d == 1 {
            inputs.clear();
            inputs.extend(node.inputs.iter().map(|&i| mapped(&map, i)));
            let logical = if node.op.is_base() {
                Some(node.logical_layer.unwrap_or(node.id.0))
            } else {
                node.logical_layer
            };
            let id = out.add_node(
                node.name.clone(),
                node.op.clone(),
                &inputs,
                node.params.clone(),
                logical,
            )?;
            map[node.id.index()] = Some(id);
            continue;
        }

        // Expand a duplicated base layer. Only convolutions reach here:
        // dense layers have a 1×1 OFM, so their cap pins d at 1.
        let producer_old = node.inputs[0];
        let producer = mapped(&map, producer_old);
        let in_shape = graph.node(producer_old)?.out_shape;
        let ofm = node.out_shape;
        let logical = node.logical_layer.unwrap_or(node.id.0);

        // Cut along OW first: sets stream row-by-row (Stage III), so column
        // bands let every duplicate produce row r at the same time as its
        // sibling producers — row bands would make a consumer duplicate's
        // first row wait for a producer duplicate's *last* row, serializing
        // the duplicates down the chain. Rows are cut only when d > OW.
        let tiles = partition_ofm(ofm.w, ofm.h, d); // (columns, rows) swapped
        band_outputs.clear();
        let mut j = 0usize;
        for band in &tiles {
            part_outputs.clear();
            for transposed in band {
                // partition_ofm computed the cut in (w, h) space; swap back.
                let rect = &Rect::new(transposed.x0, transposed.y0, transposed.x1, transposed.y1);
                let in_rect = input_region(&node.op, *rect, &[in_shape], 0, ofm)
                    .expect("conv output rect always needs input"); // cim-lint: allow(panic-unwrap) duplication plan indices come from the same graph
                let slice = out.add_node(
                    format!("{}_slice{}", node.name, j),
                    Op::Slice(SliceAttrs {
                        offset: (in_rect.y0, in_rect.x0, 0),
                        size: (in_rect.height(), in_rect.width(), in_shape.c),
                    }),
                    &[producer],
                    None,
                    None,
                )?;
                let conv = out.add_node(
                    format!("{}_dup{}", node.name, j),
                    node.op.clone(),
                    &[slice],
                    node.params.clone(),
                    Some(logical),
                )?;
                let got = out.node(conv)?.out_shape;
                debug_assert_eq!(
                    (got.h, got.w),
                    (rect.height(), rect.width()),
                    "duplicate OFM tile mismatch"
                );
                part_outputs.push(conv);
                j += 1;
            }
            // Parts within one column band are stacked rows → concat on H.
            let band_out = if part_outputs.len() == 1 {
                part_outputs[0]
            } else {
                out.add_node(
                    format!("{}_cath{}", node.name, band_outputs.len()),
                    Op::Concat(Axis::H),
                    &part_outputs,
                    None,
                    None,
                )?
            };
            band_outputs.push(band_out);
        }
        // Column bands are reassembled along W.
        let final_out = if band_outputs.len() == 1 {
            band_outputs[0]
        } else {
            out.add_node(
                format!("{}_catw", node.name),
                Op::Concat(Axis::W),
                &band_outputs,
                None,
                None,
            )?
        };
        map[node.id.index()] = Some(final_out);
    }
    debug_assert_eq!(out.len(), len, "expanded_len counts every emitted node");
    out.validate()?;
    Ok(out)
}

/// Nodes the rewrite emits for a node with OFM width `ow` and duplicate
/// count `d`: the node itself when `d == 1`, otherwise a slice and a conv
/// per duplicate, an H concat per column band of more than one part, and a
/// W concat when there is more than one band (see [`partition_ofm`]).
fn expanded_len(ow: usize, d: usize) -> usize {
    if d == 1 {
        return 1;
    }
    let bands = d.min(ow);
    let stacked = if d / bands >= 2 { bands } else { d % bands };
    2 * d + stacked + usize::from(bands > 1)
}

/// Partitions an `oh × ow` grid into `d` disjoint rectangles, returned as
/// primary bands along the first axis (outer Vec) with secondary parts
/// along the second axis (inner Vec). Bands are balanced to within one
/// element. The caller chooses the orientation by argument order (the
/// duplication rewrite passes `(ow, oh)` to cut columns first, per the
/// Sec. III-C/Fig. 4 "cut along OW and/or OH" rule).
fn partition_ofm(oh: usize, ow: usize, d: usize) -> Vec<Vec<Rect>> {
    debug_assert!(d >= 1 && d <= oh * ow);
    let gh = d.min(oh);
    // Distribute d parts over gh bands, ±1 each.
    let base = d / gh;
    let rem = d % gh;
    let mut bands = Vec::with_capacity(gh);
    for r in 0..gh {
        let y0 = r * oh / gh;
        let y1 = (r + 1) * oh / gh - 1;
        let parts = if r < rem { base + 1 } else { base };
        debug_assert!(parts <= ow, "d <= oh*ow guarantees parts fit");
        let mut row = Vec::with_capacity(parts);
        for p in 0..parts {
            let x0 = p * ow / parts;
            let x1 = (p + 1) * ow / parts - 1;
            row.push(Rect::new(y0, x0, y1, x1));
        }
        bands.push(row);
    }
    bands
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_arch::CrossbarSpec;
    use cim_ir::{Conv2dAttrs, Executor, FeatureShape, Padding, Params, Tensor};
    use proptest::prelude::*;

    use crate::cost::{layer_costs, min_pes, MappingOptions};
    use crate::duplication::{optimize, Solver};

    fn conv_attrs(oc: usize, k: usize, st: usize) -> Conv2dAttrs {
        Conv2dAttrs {
            out_channels: oc,
            kernel: (k, k),
            stride: (st, st),
            padding: Padding::Valid,
            use_bias: false,
        }
    }

    /// input(ih,iw,ci) → conv → relu, with parameters.
    fn conv_net(ih: usize, iw: usize, ci: usize, oc: usize, k: usize, st: usize) -> Graph {
        let mut g = Graph::new("t");
        let x = g
            .add(
                "input",
                Op::Input {
                    shape: FeatureShape::new(ih, iw, ci),
                },
                &[],
            )
            .unwrap();
        let kernel = Tensor::from_fn(&[k, k, ci, oc], |i| ((i * 31 % 61) as f32 - 30.0) * 0.03);
        let c = g
            .add_with_params(
                "conv",
                Op::Conv2d(conv_attrs(oc, k, st)),
                &[x],
                Params::with_kernel(kernel),
            )
            .unwrap();
        g.add("relu", Op::Activation(cim_ir::ActFn::Relu), &[c])
            .unwrap();
        g
    }

    fn plan_for(g: &Graph, extra: usize, solver: Solver) -> (Vec<LayerCost>, DuplicationPlan) {
        let costs = layer_costs(
            g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        let budget = min_pes(&costs) + extra;
        let plan = optimize(&costs, budget, solver).unwrap();
        (costs, plan)
    }

    #[test]
    fn column_band_split_structure() {
        let g = conv_net(17, 17, 2, 4, 3, 2); // OFM 8×8
        let (costs, plan) = plan_for(&g, 2, Solver::Greedy);
        assert_eq!(plan.duplicates, vec![3]);
        let dup = apply_duplication(&g, &costs, &plan).unwrap();
        // 3 slices, 3 convs, 1 concat(W), input, relu.
        assert_eq!(dup.base_layers().len(), 3);
        assert!(dup.find("conv_catw").is_some());
        assert!(
            dup.find("conv_cath0").is_none(),
            "pure column split needs no H concat"
        );
        // Duplicates share the logical layer of the original conv.
        for id in dup.base_layers() {
            assert_eq!(dup.node(id).unwrap().logical_layer, Some(1));
        }
        // relu consumes the concat.
        let relu = dup.node(dup.find("relu").unwrap()).unwrap();
        assert_eq!(relu.inputs, vec![dup.find("conv_catw").unwrap()]);
    }

    #[test]
    fn duplicated_graph_is_numerically_identical() {
        for (d_extra, solver) in [
            (1, Solver::Greedy),
            (2, Solver::Greedy),
            (3, Solver::ExactDp),
        ] {
            let g = conv_net(11, 9, 3, 5, 3, 1);
            let (costs, plan) = plan_for(&g, d_extra * costs_pes(&g), solver);
            let dup = apply_duplication(&g, &costs, &plan).unwrap();
            let input = Tensor::from_fn(&[11, 9, 3], |i| ((i * 17 % 97) as f32 - 48.0) * 0.02);
            let o1 = Executor::new(&g).run_single(input.clone()).unwrap();
            let o2 = Executor::new(&dup).run_single(input).unwrap();
            let a = &o1[&g.find("relu").unwrap()];
            let b = &o2[&dup.find("relu").unwrap()];
            assert!(a.max_abs_diff(b).unwrap() < 1e-5, "extra={d_extra}");
        }
    }

    fn costs_pes(g: &Graph) -> usize {
        let costs = layer_costs(
            g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        min_pes(&costs)
    }

    #[test]
    fn two_dimensional_split_uses_concat_tree() {
        // OFM 8×2 (ih=10, iw=4, k 3/1 → oh = 8, ow = 2): d = 4 > ow.
        let g = conv_net(10, 4, 1, 2, 3, 1);
        let costs = layer_costs(
            &g,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        assert_eq!(costs[0].ofm, FeatureShape::new(8, 2, 2));
        let plan = DuplicationPlan {
            duplicates: vec![4],
            pes_used: 4,
            objective_cycles: costs[0].t_init as f64 / 4.0,
        };
        let dup = apply_duplication(&g, &costs, &plan).unwrap();
        assert_eq!(dup.base_layers().len(), 4);
        // 2 column bands × 2 row parts: two H concats and one W concat —
        // tree depth 2 (the paper: depth = dimensions cut).
        assert!(dup.find("conv_cath0").is_some());
        assert!(dup.find("conv_cath1").is_some());
        assert!(dup.find("conv_catw").is_some());

        let input = Tensor::from_fn(&[10, 4, 1], |i| (i as f32 - 20.0) * 0.1);
        let o1 = Executor::new(&g).run_single(input.clone()).unwrap();
        let o2 = Executor::new(&dup).run_single(input).unwrap();
        let diff = o1[&g.find("relu").unwrap()]
            .max_abs_diff(&o2[&dup.find("relu").unwrap()])
            .unwrap();
        assert!(diff < 1e-5);
    }

    #[test]
    fn trivial_plan_only_adds_logical_markers() {
        let g = conv_net(9, 9, 2, 4, 3, 1);
        let (costs, plan) = plan_for(&g, 0, Solver::Greedy);
        assert!(plan.is_trivial());
        let dup = apply_duplication(&g, &costs, &plan).unwrap();
        assert_eq!(dup.len(), g.len());
        let conv = dup.node(dup.find("conv").unwrap()).unwrap();
        assert_eq!(conv.logical_layer, Some(1));
    }

    #[test]
    fn plan_mismatch_detected() {
        let g = conv_net(9, 9, 2, 4, 3, 1);
        let (costs, mut plan) = plan_for(&g, 0, Solver::Greedy);
        plan.duplicates.push(2);
        assert!(matches!(
            apply_duplication(&g, &costs, &plan),
            Err(MappingError::PlanMismatch { .. })
        ));
        let (costs, mut plan) = plan_for(&g, 0, Solver::Greedy);
        plan.duplicates[0] = 10_000; // exceeds OFM positions
        assert!(matches!(
            apply_duplication(&g, &costs, &plan),
            Err(MappingError::PlanMismatch { .. })
        ));
    }

    /// A padded layer is refused once it has a second duplicate, and
    /// mapped once each as before.
    #[test]
    fn duplicating_a_padded_layer_is_refused() {
        for padding in [
            Padding::Same,
            Padding::Explicit(cim_ir::PadSpec::uniform(1)),
        ] {
            let mut g = Graph::new("t");
            let input = Op::Input {
                shape: FeatureShape::new(9, 9, 2),
            };
            let x = g.add("input", input, &[]).unwrap();
            let attrs = Conv2dAttrs {
                padding,
                ..conv_attrs(4, 3, 1)
            };
            g.add("conv", Op::Conv2d(attrs), &[x]).unwrap();
            let (costs, mut plan) = plan_for(&g, 0, Solver::Greedy);
            assert_eq!(apply_duplication(&g, &costs, &plan).unwrap().len(), 2);
            plan.duplicates[0] = 2;
            let err = apply_duplication(&g, &costs, &plan).unwrap_err();
            assert!(matches!(err, MappingError::PlanMismatch { .. }), "{err}");
            assert_eq!(
                err.to_string(),
                format!(
                    "duplication plan does not fit graph: `conv` has {padding:?} padding and \
                     cannot be split into 2 duplicates; canonicalize the graph first"
                )
            );
        }
    }

    #[test]
    fn rewritten_pe_total_matches_plan() {
        let g = conv_net(33, 33, 4, 8, 3, 2);
        let (costs, plan) = plan_for(&g, 3, Solver::Greedy);
        let dup = apply_duplication(&g, &costs, &plan).unwrap();
        let new_costs = layer_costs(
            &dup,
            &CrossbarSpec::wan_nature_2022(),
            &MappingOptions::default(),
        )
        .unwrap();
        assert_eq!(min_pes(&new_costs), plan.pes_used);
    }

    #[test]
    fn partition_covers_ofm_disjointly() {
        for (oh, ow, d) in [(8, 8, 3), (2, 8, 4), (5, 5, 25), (7, 3, 1), (3, 4, 7)] {
            let bands = partition_ofm(oh, ow, d);
            let total: usize = bands.iter().map(Vec::len).sum();
            assert_eq!(total, d);
            let mut covered = vec![false; oh * ow];
            for rect in bands.iter().flatten() {
                for y in rect.y0..=rect.y1 {
                    for x in rect.x0..=rect.x1 {
                        assert!(
                            !covered[y * ow + x],
                            "overlap at ({y},{x}) for {oh}x{ow} d={d}"
                        );
                        covered[y * ow + x] = true;
                    }
                }
            }
            assert!(
                covered.iter().all(|&b| b),
                "gap in partition {oh}x{ow} d={d}"
            );
        }
    }

    proptest! {
        /// The OFM partition is exact for arbitrary feasible (oh, ow, d).
        #[test]
        fn prop_partition_exact(oh in 1usize..12, ow in 1usize..12, d_seed in 1usize..144) {
            let d = 1 + d_seed % (oh * ow);
            let bands = partition_ofm(oh, ow, d);
            let mut count = 0usize;
            let mut area = 0usize;
            for rect in bands.iter().flatten() {
                count += 1;
                area += rect.area();
                prop_assert!(rect.y1 < oh && rect.x1 < ow);
            }
            prop_assert_eq!(count, d);
            prop_assert_eq!(area, oh * ow);
            // The rewrite's up-front size: slices, convs and concats.
            let stacked = bands.iter().filter(|band| band.len() > 1).count();
            let emitted = if d == 1 { 1 } else { 2 * d + stacked + usize::from(bands.len() > 1) };
            prop_assert_eq!(expanded_len(oh, d), emitted);
        }

        /// Duplication preserves numerics for random convs and duplicate
        /// counts (strides 1 and 2, kernels 1–3).
        #[test]
        fn prop_duplication_preserves_numerics(
            ih in 5usize..12,
            iw in 5usize..12,
            k in 1usize..4,
            st in 1usize..3,
            d_seed in 2usize..9,
        ) {
            prop_assume!(ih >= k && iw >= k);
            let g = conv_net(ih, iw, 2, 3, k, st);
            let costs = layer_costs(&g, &CrossbarSpec::wan_nature_2022(), &MappingOptions::default()).unwrap();
            let hw = costs[0].ofm.hw();
            let d = 1 + d_seed % hw.min(8);
            let plan = DuplicationPlan {
                duplicates: vec![d],
                pes_used: costs[0].pes * d,
                objective_cycles: costs[0].t_init as f64 / d as f64,
            };
            let dup = apply_duplication(&g, &costs, &plan).unwrap();
            let input = Tensor::from_fn(&[ih, iw, 2], |i| ((i * 29 % 83) as f32 - 41.0) * 0.03);
            let o1 = Executor::new(&g).run_single(input.clone()).unwrap();
            let o2 = Executor::new(&dup).run_single(input).unwrap();
            let diff = o1[&g.find("relu").unwrap()]
                .max_abs_diff(&o2[&dup.find("relu").unwrap()])
                .unwrap();
            prop_assert!(diff < 1e-4);
        }
    }
}
