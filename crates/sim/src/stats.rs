//! Simulation statistics: per-group activity, NoC traffic, buffer pressure,
//! and energy.

use cim_arch::EnergyLog;
use serde::{Deserialize, Serialize};

/// Activity of one PE group (one base layer) during the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GroupStats {
    /// Cycles the group spent executing MVMs.
    pub active_cycles: u64,
    /// Cycles between the group's first start and last finish that were
    /// spent waiting (stall bubbles inside the group's busy window).
    pub stall_cycles: u64,
    /// Sets executed.
    pub sets_executed: usize,
}

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Per layer (Stage-I order).
    pub groups: Vec<GroupStats>,
    /// Data-dependency messages delivered (Stage-II edges fired).
    pub messages: u64,
    /// Total activation bytes moved across those edges (one byte per OFM
    /// element, 8-bit activations).
    pub bytes_moved: u64,
    /// Peak bytes of live (produced, not yet fully consumed) sets — a
    /// lower bound on aggregate buffer requirements.
    pub peak_live_bytes: u64,
    /// Events processed by the engine.
    pub events: u64,
    /// Energy accounting (MVM ops; transfers are added when an
    /// architecture-aware edge cost is used).
    pub energy: EnergyLog,
}

impl SimStats {
    /// Total active cycles over all groups.
    pub fn total_active_cycles(&self) -> u64 {
        self.groups.iter().map(|g| g.active_cycles).sum()
    }

    /// Returns `true` when the observed peak of live forwarded data fits
    /// the architecture's aggregate tile-buffer capacity. The paper's
    /// hardware requirements include per-tile buffers plus "fast access to
    /// a global DRAM for data exchange" — a `false` here means the
    /// schedule leans on the DRAM path.
    pub fn fits_buffers(&self, arch: &cim_arch::Architecture) -> bool {
        let capacity = arch.num_tiles() as u64 * arch.tile().buffer_bytes as u64;
        self.peak_live_bytes <= capacity
    }

    /// Fraction of the aggregate buffer capacity used at the peak.
    pub fn buffer_pressure(&self, arch: &cim_arch::Architecture) -> f64 {
        let capacity = arch.num_tiles() as u64 * arch.tile().buffer_bytes as u64;
        self.peak_live_bytes as f64 / capacity as f64
    }

    /// Attributes the per-group activity to physical tiles through a
    /// placement: entry `t` is the total active PE-cycles of tile `t`'s
    /// crossbars (a Fig. 6a/6b-style activity heatmap over the floorplan).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadWorkload`] when `placement` does not provide
    /// one group per recorded layer.
    ///
    /// [`SimError::BadWorkload`]: crate::SimError::BadWorkload
    pub fn tile_active_pe_cycles(
        &self,
        arch: &cim_arch::Architecture,
        placement: &cim_arch::Placement,
    ) -> crate::error::Result<Vec<u64>> {
        if placement.len() != self.groups.len() {
            return Err(crate::error::SimError::BadWorkload {
                detail: format!(
                    "placement has {} groups for {} recorded layers",
                    placement.len(),
                    self.groups.len()
                ),
            });
        }
        let mut tiles = vec![0u64; arch.num_tiles()];
        for (g, stats) in self.groups.iter().enumerate() {
            for pe in placement.pes(g) {
                let tile =
                    arch.tile_of(pe.index())
                        .map_err(|e| crate::error::SimError::BadWorkload {
                            detail: e.to_string(),
                        })?;
                tiles[tile.index()] += stats.active_cycles;
            }
        }
        Ok(tiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_aggregate_groups() {
        let stats = SimStats {
            groups: vec![
                GroupStats {
                    active_cycles: 10,
                    stall_cycles: 2,
                    sets_executed: 3,
                },
                GroupStats {
                    active_cycles: 5,
                    stall_cycles: 0,
                    sets_executed: 1,
                },
            ],
            ..SimStats::default()
        };
        assert_eq!(stats.total_active_cycles(), 15);
    }

    #[test]
    fn serde_round_trip() {
        let stats = SimStats::default();
        let s = serde_json::to_string(&stats).unwrap();
        assert_eq!(serde_json::from_str::<SimStats>(&s).unwrap(), stats);
    }

    #[test]
    fn tile_activity_attribution() {
        // 2 groups of 2 and 1 PEs on 2-PE tiles: group 0 fills tile 0,
        // group 1 starts tile 1.
        let arch = cim_arch::Architecture::builder()
            .tile(cim_arch::TileSpec {
                pes_per_tile: 2,
                ..cim_arch::TileSpec::isaac_like()
            })
            .pes(4)
            .build()
            .unwrap();
        let placement =
            cim_arch::place_groups(&arch, &[2, 1], cim_arch::PlacementStrategy::Contiguous)
                .unwrap();
        let stats = SimStats {
            groups: vec![
                GroupStats {
                    active_cycles: 10,
                    stall_cycles: 0,
                    sets_executed: 1,
                },
                GroupStats {
                    active_cycles: 7,
                    stall_cycles: 0,
                    sets_executed: 1,
                },
            ],
            ..SimStats::default()
        };
        let tiles = stats.tile_active_pe_cycles(&arch, &placement).unwrap();
        assert_eq!(tiles, vec![20, 7]);
        // Mismatched placement rejected.
        let bad =
            cim_arch::place_groups(&arch, &[1], cim_arch::PlacementStrategy::Contiguous).unwrap();
        assert!(stats.tile_active_pe_cycles(&arch, &bad).is_err());
    }

    #[test]
    fn buffer_fit_thresholds() {
        let arch = cim_arch::Architecture::paper_case_study(8).unwrap();
        let capacity = arch.num_tiles() as u64 * arch.tile().buffer_bytes as u64;
        let mut stats = SimStats {
            peak_live_bytes: capacity,
            ..SimStats::default()
        };
        assert!(stats.fits_buffers(&arch));
        assert!((stats.buffer_pressure(&arch) - 1.0).abs() < 1e-12);
        stats.peak_live_bytes = capacity + 1;
        assert!(!stats.fits_buffers(&arch));
    }
}
