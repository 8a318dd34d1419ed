//! The assembled architecture description.

use serde::{Deserialize, Serialize};

use crate::crossbar::CrossbarSpec;
use crate::error::{ArchError, Result};
use crate::noc::NocSpec;
use crate::tile::{TileId, TileSpec};

/// A complete tiled CIM architecture (Fig. 1(a) of the paper).
///
/// The hardware requirements of Sec. II-A are structural properties of this
/// type: tiles connected by a NoC, PEs inside tiles, buffers, and a GPEU per
/// tile. The number of tiles is derived from the requested PE count and the
/// per-tile PE capacity.
///
/// # Examples
///
/// ```
/// use cim_arch::{Architecture, CrossbarSpec, TileSpec};
///
/// # fn main() -> Result<(), cim_arch::ArchError> {
/// // The paper's case study: 256×256 crossbars, t_MVM = 1400 ns.
/// let arch = Architecture::paper_case_study(117 + 32)?;
/// assert_eq!(arch.total_pes(), 149);
///
/// // Retargeting (Sec. V-C): smaller crossbars are one constructor away.
/// let small = Architecture::builder()
///     .crossbar(CrossbarSpec { rows: 128, cols: 128, ..CrossbarSpec::wan_nature_2022() })
///     .tile(TileSpec::isaac_like())
///     .pes(64)
///     .build()?;
/// assert_eq!(small.crossbar().rows, 128);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Architecture {
    crossbar: CrossbarSpec,
    tile: TileSpec,
    noc: NocSpec,
    total_pes: usize,
}

impl Architecture {
    /// Starts building an architecture.
    pub fn builder() -> ArchitectureBuilder {
        ArchitectureBuilder::default()
    }

    /// The paper's case-study architecture: `pes` crossbars of 256×256 cells
    /// with `t_MVM` = 1400 ns (Sec. V), ISAAC-like tiles, and a square mesh
    /// NoC with zero-cost hops (the peak-performance assumption).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidSpec`] if `pes` is zero.
    pub fn paper_case_study(pes: usize) -> Result<Self> {
        Self::builder().pes(pes).build()
    }

    /// Crossbar PE specification.
    pub fn crossbar(&self) -> &CrossbarSpec {
        &self.crossbar
    }

    /// Tile specification.
    pub fn tile(&self) -> &TileSpec {
        &self.tile
    }

    /// NoC specification.
    pub fn noc(&self) -> &NocSpec {
        &self.noc
    }

    /// Total number of crossbar PEs (`F` in the paper's Optimization
    /// Problem 1).
    pub fn total_pes(&self) -> usize {
        self.total_pes
    }

    /// Number of tiles needed to host all PEs.
    pub fn num_tiles(&self) -> usize {
        self.total_pes.div_ceil(self.tile.pes_per_tile)
    }

    /// The tile hosting PE `pe` (PEs are packed into tiles in order).
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::UnknownUnit`] for an out-of-range PE.
    pub fn tile_of(&self, pe: usize) -> Result<TileId> {
        if pe >= self.total_pes {
            return Err(ArchError::UnknownUnit {
                kind: "pe",
                id: pe as u32,
            });
        }
        Ok(TileId((pe / self.tile.pes_per_tile) as u32))
    }

    /// Physical duration of `cycles` crossbar cycles in nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        cycles * self.crossbar.t_mvm_ns
    }
}

/// Builder for [`Architecture`].
#[derive(Debug, Clone, Default)]
pub struct ArchitectureBuilder {
    crossbar: Option<CrossbarSpec>,
    tile: Option<TileSpec>,
    noc: Option<NocSpec>,
    hop_latency: Option<u64>,
    pes: Option<usize>,
}

impl ArchitectureBuilder {
    /// Sets the crossbar specification (default: Wan et al. 256×256).
    pub fn crossbar(mut self, spec: CrossbarSpec) -> Self {
        self.crossbar = Some(spec);
        self
    }

    /// Sets the tile specification (default: ISAAC-like).
    pub fn tile(mut self, spec: TileSpec) -> Self {
        self.tile = Some(spec);
        self
    }

    /// Sets the full NoC specification (default: square mesh sized to the
    /// tile count, zero-cost hops).
    pub fn noc(mut self, spec: NocSpec) -> Self {
        self.noc = Some(spec);
        self
    }

    /// Overrides only the NoC hop latency, keeping the derived mesh size.
    pub fn noc_hop_latency(mut self, cycles: u64) -> Self {
        self.hop_latency = Some(cycles);
        self
    }

    /// Sets the total PE count (required).
    pub fn pes(mut self, pes: usize) -> Self {
        self.pes = Some(pes);
        self
    }

    /// Builds and validates the architecture.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidSpec`] when any component specification
    /// is invalid, the PE count is missing/zero, or an explicit NoC mesh is
    /// too small for the tile count.
    pub fn build(self) -> Result<Architecture> {
        let crossbar = self.crossbar.unwrap_or_default();
        let tile = self.tile.unwrap_or_default();
        crossbar.validate()?;
        tile.validate()?;
        let total_pes = self.pes.unwrap_or(0);
        if total_pes == 0 {
            return Err(ArchError::InvalidSpec {
                what: "architecture",
                detail: "total PE count must be non-zero".into(),
            });
        }
        let num_tiles = total_pes.div_ceil(tile.pes_per_tile);
        let mut noc = self.noc.unwrap_or_else(|| NocSpec::square_for(num_tiles));
        if let Some(h) = self.hop_latency {
            noc.hop_latency_cycles = h;
        }
        noc.validate()?;
        if noc.capacity() < num_tiles {
            return Err(ArchError::InvalidSpec {
                what: "noc",
                detail: format!(
                    "mesh holds {} tiles but {num_tiles} are needed",
                    noc.capacity()
                ),
            });
        }
        Ok(Architecture {
            crossbar,
            tile,
            noc,
            total_pes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_case_study_defaults() {
        let a = Architecture::paper_case_study(117).unwrap();
        assert_eq!(a.total_pes(), 117);
        assert_eq!(a.crossbar().rows, 256);
        assert_eq!(a.num_tiles(), 15, "117 PEs over 8-PE tiles");
        assert_eq!(a.noc().capacity(), 16);
        assert_eq!(a.cycles_to_ns(43264), 43264 * 1400);
    }

    #[test]
    fn tile_of_packs_in_order() {
        let a = Architecture::paper_case_study(20).unwrap();
        assert_eq!(a.tile_of(0).unwrap(), TileId(0));
        assert_eq!(a.tile_of(7).unwrap(), TileId(0));
        assert_eq!(a.tile_of(8).unwrap(), TileId(1));
        assert_eq!(a.tile_of(19).unwrap(), TileId(2));
        assert!(a.tile_of(20).is_err());
    }

    #[test]
    fn zero_pes_rejected() {
        assert!(Architecture::paper_case_study(0).is_err());
    }

    #[test]
    fn explicit_noc_capacity_checked() {
        let err = Architecture::builder()
            .pes(100)
            .noc(NocSpec {
                mesh_rows: 2,
                mesh_cols: 2,
                ..NocSpec::default()
            })
            .build();
        assert!(matches!(
            err,
            Err(ArchError::InvalidSpec { what: "noc", .. })
        ));
    }

    #[test]
    fn serde_round_trip() {
        let a = Architecture::paper_case_study(32).unwrap();
        let s = serde_json::to_string(&a).unwrap();
        assert_eq!(serde_json::from_str::<Architecture>(&s).unwrap(), a);
    }
}
