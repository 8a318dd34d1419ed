//! The global set-index space: a bijection `(layer, set) → usize` shared by
//! every flat (CSR/arena) data structure of the scheduling core.
//!
//! Stage I produces a ragged structure — per layer, a variable number of
//! OFM sets. The hot Stage II–IV loops want flat arrays instead: one slot
//! per set, addressed by a dense global index. [`SetSpace`] is the shared
//! offset table that makes those views agree: `index(l, s) =
//! layer_start(l) + s`, with layer `l`'s sets occupying the contiguous
//! range `layer_range(l)`. The CSR [`Dependencies`](crate::Dependencies),
//! the [`Schedule`](crate::Schedule) time arena, the precomputed
//! [`CostedDeps`](crate::CostedDeps) tables, and the `cim-sim` event engine
//! all slice their arenas by one `SetSpace`.

use serde::{Deserialize, Serialize};

use crate::deps::SetRef;
use crate::sets::LayerSets;

/// Offset table mapping `(layer, set)` pairs onto a dense `0..total_sets()`
/// index space. Cheap to build (one pass over the layer list), cheap to
/// clone (one `Vec<usize>`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetSpace {
    /// `starts[l]` is the global index of layer `l`'s first set;
    /// `starts[num_layers]` is the total set count.
    starts: Vec<usize>,
}

impl SetSpace {
    /// Builds the space from the per-layer set counts.
    pub fn from_counts(sets_per_layer: &[usize]) -> Self {
        let mut starts = Vec::with_capacity(sets_per_layer.len() + 1);
        let mut acc = 0usize;
        starts.push(0);
        for &n in sets_per_layer {
            acc += n;
            starts.push(acc);
        }
        Self { starts }
    }

    /// Builds the space covering the Stage-I output.
    pub fn of_layers(layers: &[LayerSets]) -> Self {
        let mut starts = Vec::with_capacity(layers.len() + 1);
        let mut acc = 0usize;
        starts.push(0);
        for l in layers {
            acc += l.sets.len();
            starts.push(acc);
        }
        Self { starts }
    }

    /// Number of layers covered.
    pub fn num_layers(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of sets across all layers.
    pub fn total_sets(&self) -> usize {
        *self.starts.last().expect("starts is never empty") // cim-lint: allow(panic-unwrap) starts always holds the terminal offset
    }

    /// Number of sets of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn sets_in(&self, l: usize) -> usize {
        self.starts[l + 1] - self.starts[l]
    }

    /// The global index of set `s` of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range (a set index beyond the
    /// layer's count must not silently alias the next layer's slots).
    #[inline]
    pub fn index(&self, l: usize, s: usize) -> usize {
        let start = self.starts[l];
        assert!(
            s < self.starts[l + 1] - start,
            "set {s} out of range for layer {l} ({} sets)",
            self.starts[l + 1] - start
        );
        start + s
    }

    /// The `(layer, set)` pair of global index `i`, the inverse of
    /// [`index`](Self::index): one binary search over the layer starts.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set_ref(&self, i: usize) -> SetRef {
        assert!(
            i < self.total_sets(),
            "set index {i} out of range ({} sets)",
            self.total_sets()
        );
        // The last layer starting at or before `i`; empty layers share
        // their start with the next one and are skipped.
        let layer = self.starts.partition_point(|&start| start <= i) - 1;
        SetRef {
            layer,
            set: i - self.starts[layer],
        }
    }

    /// The contiguous global-index range of layer `l`'s sets.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[inline]
    pub fn layer_range(&self, l: usize) -> std::ops::Range<usize> {
        self.starts[l]..self.starts[l + 1]
    }

    /// Whether this space has the same shape as `other` (same layers, same
    /// per-layer set counts).
    pub fn same_shape(&self, other: &SetSpace) -> bool {
        self.starts == other.starts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_round_trip() {
        let sp = SetSpace::from_counts(&[4, 1, 3]);
        assert_eq!(sp.num_layers(), 3);
        assert_eq!(sp.total_sets(), 8);
        assert_eq!(sp.sets_in(0), 4);
        assert_eq!(sp.sets_in(1), 1);
        assert_eq!(sp.sets_in(2), 3);
        assert_eq!(sp.index(0, 0), 0);
        assert_eq!(sp.index(0, 3), 3);
        assert_eq!(sp.index(1, 0), 4);
        assert_eq!(sp.index(2, 2), 7);
        assert_eq!(sp.layer_range(2), 5..8);
    }

    #[test]
    fn empty_layers_are_representable() {
        let sp = SetSpace::from_counts(&[2, 0, 1]);
        assert_eq!(sp.total_sets(), 3);
        assert_eq!(sp.sets_in(1), 0);
        assert_eq!(sp.layer_range(1), 2..2);
        assert_eq!(sp.index(2, 0), 2);
    }

    #[test]
    fn set_ref_inverts_index_across_empty_layers() {
        let sp = SetSpace::from_counts(&[2, 0, 0, 3, 1]);
        for l in 0..sp.num_layers() {
            for s in 0..sp.sets_in(l) {
                assert_eq!(sp.set_ref(sp.index(l, s)), SetRef { layer: l, set: s });
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_ref_past_the_last_set_panics() {
        SetSpace::from_counts(&[2, 0]).set_ref(2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_overflow_does_not_alias_the_next_layer() {
        let sp = SetSpace::from_counts(&[2, 2]);
        sp.index(0, 2); // would alias (1, 0) without the bound check
    }

    #[test]
    fn shape_comparison() {
        let a = SetSpace::from_counts(&[1, 2]);
        let b = SetSpace::from_counts(&[1, 2]);
        let c = SetSpace::from_counts(&[2, 1]);
        assert!(a.same_shape(&b));
        assert!(!a.same_shape(&c));
    }
}
