//! RSM regions (paper §3.1.1): private and shared region assignment.

use profess_types::geometry::Geometry;
use profess_types::ids::{ProgramId, RegionId};
use profess_types::GroupId;

/// Classification of a memory access with respect to the accessing
/// program's regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionClass {
    /// The program's own private region: behaviour there is unaffected by
    /// competition and proxies stand-alone behaviour.
    PrivateOwn,
    /// A shared region (or another program's private region, which the OS
    /// never allocates to this program).
    Shared,
}

/// The OS region map: which region is private to which program.
///
/// Region `i` is private to program `i` for the first `num_programs`
/// regions; the rest are shared. The map also answers whether a program
/// may receive frames from a given region.
#[derive(Debug, Clone)]
pub struct RegionMap {
    num_regions: u32,
    num_programs: u32,
    enabled: bool,
}

impl RegionMap {
    /// Creates a map with one private region per program (RSM/ProFess).
    pub fn with_private_regions(num_regions: u32, num_programs: u32) -> Self {
        assert!(
            num_programs < num_regions,
            "need more regions than programs"
        );
        RegionMap {
            num_regions,
            num_programs,
            enabled: true,
        }
    }

    /// Creates a map with no private regions (the existing schemes, which
    /// lack RSM's OS support).
    pub fn all_shared(num_regions: u32) -> Self {
        RegionMap {
            num_regions,
            num_programs: 0,
            enabled: false,
        }
    }

    /// Whether private regions are in use.
    pub fn private_regions_enabled(&self) -> bool {
        self.enabled
    }

    /// Total number of regions.
    pub fn num_regions(&self) -> u32 {
        self.num_regions
    }

    /// Regions `0..private_count()` are private (one per program); the
    /// rest are shared.
    pub(crate) fn private_count(&self) -> u32 {
        if self.enabled {
            self.num_programs
        } else {
            0
        }
    }

    /// The program a region is private to, if any.
    pub fn owner_of_region(&self, region: RegionId) -> Option<ProgramId> {
        if self.enabled && u32::from(region.0) < self.num_programs {
            Some(ProgramId(region.0 as u8))
        } else {
            None
        }
    }

    /// May `program` receive page frames from `region`? (Its own private
    /// region and all shared regions: yes; other programs' private
    /// regions: no.)
    pub fn may_allocate(&self, program: ProgramId, region: RegionId) -> bool {
        match self.owner_of_region(region) {
            Some(owner) => owner == program,
            None => true,
        }
    }

    /// Classifies an access by `program` to a group, via the geometry's
    /// region interleaving.
    pub fn classify(&self, geom: &Geometry, program: ProgramId, group: GroupId) -> RegionClass {
        if self.owner_of_region(geom.region_of(group)) == Some(program) {
            RegionClass::PrivateOwn
        } else {
            RegionClass::Shared
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(2048, 64, 4096, 2, 8 << 20, 8, 128, 16, 8192, 8)
    }

    #[test]
    fn private_assignment() {
        let m = RegionMap::with_private_regions(128, 4);
        assert_eq!(m.owner_of_region(RegionId(0)), Some(ProgramId(0)));
        assert_eq!(m.owner_of_region(RegionId(3)), Some(ProgramId(3)));
        assert_eq!(m.owner_of_region(RegionId(4)), None);
        assert!(m.private_regions_enabled());
    }

    #[test]
    fn allocation_permissions() {
        let m = RegionMap::with_private_regions(128, 4);
        let p0 = ProgramId(0);
        assert!(m.may_allocate(p0, RegionId(0))); // own private
        assert!(!m.may_allocate(p0, RegionId(1))); // other's private
        assert!(m.may_allocate(p0, RegionId(64))); // shared
    }

    #[test]
    fn all_shared_mode() {
        let m = RegionMap::all_shared(128);
        assert!(!m.private_regions_enabled());
        for r in 0..128 {
            assert_eq!(m.owner_of_region(RegionId(r)), None);
            assert!(m.may_allocate(ProgramId(2), RegionId(r)));
        }
    }

    #[test]
    fn classify_uses_geometry_interleaving() {
        let g = geom();
        let m = RegionMap::with_private_regions(128, 4);
        // Groups 0 and 1 are region 0: private to program 0.
        assert_eq!(
            m.classify(&g, ProgramId(0), GroupId(0)),
            RegionClass::PrivateOwn
        );
        assert_eq!(
            m.classify(&g, ProgramId(1), GroupId(0)),
            RegionClass::Shared
        );
        // Groups 2,3 are region 1: private to program 1.
        assert_eq!(
            m.classify(&g, ProgramId(1), GroupId(2)),
            RegionClass::PrivateOwn
        );
    }

    #[test]
    #[should_panic(expected = "more regions than programs")]
    fn too_many_programs_rejected() {
        RegionMap::with_private_regions(4, 4);
    }
}
