//! Placement of PE groups onto physical PEs and tiles.
//!
//! The mapping stage produces *PE groups* — one group per base-layer node,
//! `c_i` PEs each (Eq. 1 of the paper) — and this module assigns them to
//! physical PEs. With the paper's zero-cost NoC the placement is
//! performance-neutral; with the hop-cost extension enabled, placement
//! determines data-movement latency, so two strategies are provided.

use serde::{Deserialize, Serialize};

use crate::arch::Architecture;
use crate::error::{ArchError, Result};
use crate::tile::TileId;

/// Identifier of a physical PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PeId(pub u32);

impl PeId {
    /// Index into PE arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pe{}", self.0)
    }
}

/// How PE groups are packed onto physical PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// Groups are packed contiguously in layer order: a group's PEs land on
    /// the same / adjacent tiles, and consecutive layers sit near each other.
    /// This is the natural choice for cross-layer forwarding.
    #[default]
    Contiguous,
    /// Groups are spread round-robin over tiles, which balances tile buffer
    /// pressure at the cost of longer producer-consumer routes.
    RoundRobinTiles,
}

/// The result of placing PE groups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// For every group, the physical PEs it occupies.
    group_pes: Vec<Vec<PeId>>,
    /// For every group, the distinct tiles it touches (sorted).
    group_tiles: Vec<Vec<TileId>>,
}

impl Placement {
    /// Number of placed groups.
    pub fn len(&self) -> usize {
        self.group_pes.len()
    }

    /// Returns `true` when no groups were placed.
    pub fn is_empty(&self) -> bool {
        self.group_pes.is_empty()
    }

    /// PEs of group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn pes(&self, g: usize) -> &[PeId] {
        &self.group_pes[g]
    }

    /// Tiles of group `g` (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn tiles(&self, g: usize) -> &[TileId] {
        &self.group_tiles[g]
    }

    /// The "home" tile of a group — the tile holding its first PE; partial
    /// results leaving the group are modelled as departing from here.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn home_tile(&self, g: usize) -> TileId {
        self.group_tiles[g][0]
    }

    /// NoC hop count between the home tiles of two groups.
    ///
    /// # Errors
    ///
    /// Propagates [`ArchError::UnknownUnit`] when a home tile exceeds the
    /// mesh (cannot happen for placements built against the same
    /// architecture).
    pub fn hops_between(&self, arch: &Architecture, from: usize, to: usize) -> Result<usize> {
        arch.noc().hops(self.home_tile(from), self.home_tile(to))
    }

    /// Total PEs in use.
    pub fn used_pes(&self) -> usize {
        self.group_pes.iter().map(Vec::len).sum()
    }
}

/// Places `group_sizes[i]` PEs per group onto `arch`.
///
/// # Errors
///
/// Returns [`ArchError::InsufficientPes`] when the groups need more PEs than
/// the architecture provides, and [`ArchError::InvalidSpec`] for a zero-size
/// group.
///
/// # Examples
///
/// ```
/// use cim_arch::{place_groups, Architecture, PlacementStrategy};
///
/// # fn main() -> Result<(), cim_arch::ArchError> {
/// let arch = Architecture::paper_case_study(16)?;
/// let p = place_groups(&arch, &[3, 5, 8], PlacementStrategy::Contiguous)?;
/// assert_eq!(p.used_pes(), 16);
/// assert_eq!(p.pes(0).len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn place_groups(
    arch: &Architecture,
    group_sizes: &[usize],
    strategy: PlacementStrategy,
) -> Result<Placement> {
    place_groups_at(arch, group_sizes, strategy, 0)
}

/// [`place_groups`] with the PE visiting order rotated left by `start_pe`
/// (modulo the PE count): the first group's first PE lands on
/// `start_pe` instead of PE 0, wrapping around the chip. This is how
/// co-resident fabric tenants get distinct starting points
/// ([`CoResidency::Partitioned`](crate::CoResidency::Partitioned)) without
/// changing the placement semantics within a tenant — `start_pe == 0` is
/// exactly [`place_groups`]. Tenants' ranges are disjoint only if the chip
/// has room for all of them from their starting points; on a chip sized
/// to one tenant they overlap.
///
/// # Errors
///
/// Same conditions as [`place_groups`].
pub fn place_groups_at(
    arch: &Architecture,
    group_sizes: &[usize],
    strategy: PlacementStrategy,
    start_pe: usize,
) -> Result<Placement> {
    let required: usize = group_sizes.iter().sum();
    if required > arch.total_pes() {
        return Err(ArchError::InsufficientPes {
            required,
            available: arch.total_pes(),
        });
    }
    if let Some(i) = group_sizes.iter().position(|&s| s == 0) {
        return Err(ArchError::InvalidSpec {
            what: "placement",
            detail: format!("group {i} has zero PEs"),
        });
    }
    let mut order: Vec<usize> = match strategy {
        PlacementStrategy::Contiguous => (0..arch.total_pes()).collect(),
        PlacementStrategy::RoundRobinTiles => {
            // Visit PEs tile-by-tile in a striped order: tile0.pe0, tile1.pe0,
            // …, tile0.pe1, tile1.pe1, … so consecutive allocations land on
            // different tiles.
            let per_tile = arch.tile().pes_per_tile;
            let tiles = arch.num_tiles();
            let mut order = Vec::with_capacity(arch.total_pes());
            for slot in 0..per_tile {
                for t in 0..tiles {
                    let pe = t * per_tile + slot;
                    if pe < arch.total_pes() {
                        order.push(pe);
                    }
                }
            }
            order
        }
    };
    if !order.is_empty() {
        let shift = start_pe % order.len();
        order.rotate_left(shift);
    }
    let mut cursor = order.into_iter();
    let mut group_pes = Vec::with_capacity(group_sizes.len());
    let mut group_tiles = Vec::with_capacity(group_sizes.len());
    for &size in group_sizes {
        let pes: Vec<PeId> = cursor.by_ref().take(size).map(|p| PeId(p as u32)).collect();
        debug_assert_eq!(pes.len(), size, "capacity checked above");
        let mut tiles: Vec<TileId> = pes
            .iter()
            .map(|p| arch.tile_of(p.index()).expect("pe in range")) // cim-lint: allow(panic-unwrap) pe indices come from the arch itself
            .collect();
        tiles.sort_unstable();
        tiles.dedup();
        group_pes.push(pes);
        group_tiles.push(tiles);
    }
    Ok(Placement {
        group_pes,
        group_tiles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn contiguous_groups_share_tiles() {
        let arch = Architecture::paper_case_study(16).unwrap();
        let p = place_groups(&arch, &[4, 4, 8], PlacementStrategy::Contiguous).unwrap();
        assert_eq!(p.len(), 3);
        // First two groups fill tile 0 (8 PEs/tile).
        assert_eq!(p.tiles(0), &[TileId(0)]);
        assert_eq!(p.tiles(1), &[TileId(0)]);
        assert_eq!(p.tiles(2), &[TileId(1)]);
        assert_eq!(p.home_tile(2), TileId(1));
        assert_eq!(p.hops_between(&arch, 0, 1).unwrap(), 0);
    }

    #[test]
    fn round_robin_spreads_over_tiles() {
        let arch = Architecture::paper_case_study(16).unwrap(); // 2 tiles
        let p = place_groups(&arch, &[2, 2], PlacementStrategy::RoundRobinTiles).unwrap();
        // Group 0 takes tile0.pe0 and tile1.pe0 — one PE on each tile.
        assert_eq!(p.tiles(0), &[TileId(0), TileId(1)]);
        assert_eq!(p.tiles(1), &[TileId(0), TileId(1)]);
    }

    #[test]
    fn offset_placement_rotates_and_wraps() {
        let arch = Architecture::paper_case_study(16).unwrap(); // 8 PEs/tile
        // Offset 0 is exactly place_groups.
        assert_eq!(
            place_groups_at(&arch, &[4, 4], PlacementStrategy::Contiguous, 0).unwrap(),
            place_groups(&arch, &[4, 4], PlacementStrategy::Contiguous).unwrap()
        );
        // Offset 8 starts the first group on tile 1.
        let p = place_groups_at(&arch, &[4, 4], PlacementStrategy::Contiguous, 8).unwrap();
        assert_eq!(p.pes(0)[0], PeId(8));
        assert_eq!(p.home_tile(0), TileId(1));
        // Wrapping: 12 + 8 PEs wrap back over tile 0.
        let p = place_groups_at(&arch, &[8, 8], PlacementStrategy::Contiguous, 12).unwrap();
        assert_eq!(p.pes(0)[0], PeId(12));
        assert_eq!(p.pes(1).last().copied(), Some(PeId(11)));
        assert_eq!(p.used_pes(), 16);
        // Offsets beyond the chip reduce modulo the PE count.
        assert_eq!(
            place_groups_at(&arch, &[4], PlacementStrategy::Contiguous, 16 + 3).unwrap(),
            place_groups_at(&arch, &[4], PlacementStrategy::Contiguous, 3).unwrap()
        );
    }

    #[test]
    fn insufficient_pes_rejected() {
        let arch = Architecture::paper_case_study(8).unwrap();
        let err = place_groups(&arch, &[5, 5], PlacementStrategy::Contiguous).unwrap_err();
        assert_eq!(
            err,
            ArchError::InsufficientPes {
                required: 10,
                available: 8
            }
        );
    }

    #[test]
    fn zero_group_rejected() {
        let arch = Architecture::paper_case_study(8).unwrap();
        assert!(matches!(
            place_groups(&arch, &[2, 0], PlacementStrategy::Contiguous),
            Err(ArchError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn empty_group_list_is_fine() {
        let arch = Architecture::paper_case_study(8).unwrap();
        let p = place_groups(&arch, &[], PlacementStrategy::Contiguous).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.used_pes(), 0);
    }

    proptest! {
        /// No PE is assigned twice, regardless of strategy and group mix.
        #[test]
        fn prop_no_pe_double_booked(
            sizes in proptest::collection::vec(1usize..20, 1..12),
            round_robin in proptest::bool::ANY,
        ) {
            let total: usize = sizes.iter().sum();
            let arch = Architecture::paper_case_study(total + 7).unwrap();
            let strategy = if round_robin {
                PlacementStrategy::RoundRobinTiles
            } else {
                PlacementStrategy::Contiguous
            };
            let p = place_groups(&arch, &sizes, strategy).unwrap();
            let mut seen = std::collections::HashSet::new();
            for (g, &size) in sizes.iter().enumerate() {
                prop_assert_eq!(p.pes(g).len(), size);
                for pe in p.pes(g) {
                    prop_assert!(seen.insert(*pe), "pe {} double-booked", pe);
                    prop_assert!(pe.index() < arch.total_pes());
                }
            }
        }
    }
}
