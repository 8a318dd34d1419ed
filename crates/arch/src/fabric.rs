//! Shared-fabric contention model: capacity and link-bandwidth limits.
//!
//! The paper evaluates one model on an idle chip; a production deployment
//! multiplexes many models (or many concurrent inference streams) over the
//! same tile/crossbar fabric. [`FabricSpec`] captures the three resource
//! limits that make co-residency contend — finite NoC link bandwidth,
//! finite resident crossbar-weight capacity, and the reload penalty paid
//! when an evicted working set is touched again. It is deliberately a
//! *separate* type from [`NocSpec`](crate::NocSpec) /
//! [`Architecture`](crate::Architecture): those serialize into pinned
//! result-store fingerprints, which must stay byte-stable.
//!
//! # Examples
//!
//! ```
//! use cim_arch::fabric::{CoResidency, FabricSpec};
//!
//! let idle = FabricSpec::uncontended();
//! assert!(idle.is_uncontended());
//! let shared = FabricSpec { link_bandwidth_bytes_per_cycle: 8, ..idle };
//! assert!(!shared.is_uncontended());
//! assert_eq!(CoResidency::parse("partitioned"), Some(CoResidency::Partitioned));
//! ```

use serde::{Deserialize, Serialize};

/// Resource limits of one shared CIM fabric.
///
/// Every limit uses `0` to mean *unbounded* — an all-zero spec reproduces
/// the single-tenant idle-chip model exactly (tile occupancy is always
/// modelled; it only bites when two tenants want the same tile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricSpec {
    /// Bytes one directed mesh link can accept per cycle (`0` =
    /// unbounded). With a finite budget, cross-tenant traffic sharing a
    /// link serializes: each message reserves every link of its XY route
    /// for `ceil(bytes / bandwidth)` cycles.
    pub link_bandwidth_bytes_per_cycle: u64,
    /// Crossbar PEs whose weights can be resident at once (`0` =
    /// unbounded). When the tenants' combined working set exceeds this,
    /// the least-recently-used group is evicted and charged
    /// [`reload_cycles_per_pe`](Self::reload_cycles_per_pe) on next use.
    pub capacity_pes: usize,
    /// Cycles to rewrite one PE's weights after an eviction (the RRAM
    /// write path is orders of magnitude slower than the MVM read path).
    pub reload_cycles_per_pe: u64,
}

impl FabricSpec {
    /// The idle-chip spec: every limit unbounded. A fabric simulation
    /// under this spec must match the single-tenant engine byte-for-byte
    /// when only one tenant runs.
    pub const fn uncontended() -> Self {
        Self {
            link_bandwidth_bytes_per_cycle: 0,
            capacity_pes: 0,
            reload_cycles_per_pe: 0,
        }
    }

    /// Whether no limit is active (all zero).
    pub const fn is_uncontended(&self) -> bool {
        self.link_bandwidth_bytes_per_cycle == 0
            && self.capacity_pes == 0
            && self.reload_cycles_per_pe == 0
    }
}

impl Default for FabricSpec {
    fn default() -> Self {
        Self::uncontended()
    }
}

/// How co-resident tenants are laid out over the fabric's PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub enum CoResidency {
    /// Every tenant is placed from PE 0 — tenants overlap on the same
    /// tiles and contend for tile occupancy (maximum interference, the
    /// whole chip available to each tenant's duplication).
    #[default]
    Shared,
    /// Tenant `k` of `n` starts at PE `k·total/n`, trading interference
    /// for locality. The ranges are disjoint only when every tenant fits
    /// in `total/n` PEs, and tenants stop contending for a tile only when
    /// their ranges also fall on different tiles. On a chip sized to the
    /// largest `PE_min` they overlap: fig5 × 2 there lands both streams on
    /// one tile and runs exactly as under [`Shared`](Self::Shared).
    Partitioned,
}

impl CoResidency {
    /// Canonical wire/CLI name.
    pub const fn as_str(&self) -> &'static str {
        match self {
            CoResidency::Shared => "shared",
            CoResidency::Partitioned => "partitioned",
        }
    }

    /// Parses a canonical name (the inverse of [`as_str`](Self::as_str)).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "shared" => Some(CoResidency::Shared),
            "partitioned" => Some(CoResidency::Partitioned),
            _ => None,
        }
    }
}

impl std::fmt::Display for CoResidency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_is_the_default_and_all_zero() {
        assert_eq!(FabricSpec::default(), FabricSpec::uncontended());
        assert!(FabricSpec::uncontended().is_uncontended());
        for spec in [
            FabricSpec {
                link_bandwidth_bytes_per_cycle: 1,
                ..FabricSpec::uncontended()
            },
            FabricSpec {
                capacity_pes: 1,
                ..FabricSpec::uncontended()
            },
            FabricSpec {
                reload_cycles_per_pe: 1,
                ..FabricSpec::uncontended()
            },
        ] {
            assert!(!spec.is_uncontended(), "{spec:?}");
        }
    }

    #[test]
    fn co_residency_names_round_trip() {
        for policy in [CoResidency::Shared, CoResidency::Partitioned] {
            assert_eq!(CoResidency::parse(policy.as_str()), Some(policy));
            assert_eq!(policy.to_string(), policy.as_str());
        }
        assert_eq!(CoResidency::parse("exclusive"), None);
    }

    #[test]
    fn serde_round_trip() {
        let spec = FabricSpec {
            link_bandwidth_bytes_per_cycle: 16,
            capacity_pes: 32,
            reload_cycles_per_pe: 100,
        };
        let s = serde_json::to_string(&spec).unwrap();
        assert_eq!(serde_json::from_str::<FabricSpec>(&s).unwrap(), spec);
    }
}
