//! DRAM device model.
//!
//! DRAM accesses are charged a small fixed latency plus a bandwidth term.
//! The model exists so that in-memory work (buffers, Bloom filters) can be
//! charged consistently with flash/disk work in end-to-end latency accounts.

use crate::device::Device;
use crate::error::{DeviceError, Result};
use crate::geometry::Geometry;
use crate::profiles::DeviceProfile;
use crate::stats::IoStats;
use crate::store::SparseStore;
use crate::time::SimDuration;

/// A byte-addressable DRAM region.
#[derive(Debug)]
pub struct DramDevice {
    profile: DeviceProfile,
    geometry: Geometry,
    store: SparseStore,
    stats: IoStats,
}

impl DramDevice {
    /// Creates a DRAM device of `capacity` bytes using the default DRAM
    /// profile. Capacity is rounded up to a multiple of 64 bytes.
    pub fn new(capacity: u64) -> Result<Self> {
        Self::with_profile(capacity, DeviceProfile::dram())
    }

    /// Creates a DRAM device with a custom profile (e.g. the RamSan
    /// DRAM-SSD appliance profile).
    pub fn with_profile(capacity: u64, profile: DeviceProfile) -> Result<Self> {
        if capacity == 0 {
            return Err(DeviceError::InvalidConfig("capacity must be non-zero".into()));
        }
        let unit = profile.block_size.max(profile.page_size) as u64;
        let capacity = capacity.div_ceil(unit) * unit;
        let geometry = Geometry::new(capacity, profile.page_size, profile.block_size)?;
        Ok(DramDevice {
            geometry,
            store: SparseStore::new(64 * 1024),
            stats: IoStats::default(),
            profile,
        })
    }
}

impl Device for DramDevice {
    fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn medium_read(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration> {
        self.store.read(offset, buf);
        Ok(self.profile.read_cost.cost(buf.len()))
    }

    fn medium_write(&mut self, offset: u64, bufs: &[&[u8]]) -> Result<SimDuration> {
        let len = self.store.write_list(offset, bufs);
        Ok(self.profile.write_cost.cost(len))
    }

    // No erase, and no liveness tracking: a TRIM is counted and dropped.

    fn stats(&self) -> IoStats {
        self.stats.clone()
    }

    fn update_stats(&mut self, update: &mut dyn FnMut(&mut IoStats)) {
        update(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_data() {
        let mut d = DramDevice::new(1 << 20).unwrap();
        d.write_at(123, b"hello dram").unwrap();
        let mut buf = [0u8; 10];
        d.read_at(123, &mut buf).unwrap();
        assert_eq!(&buf, b"hello dram");
    }

    #[test]
    fn latency_is_sub_microsecond_for_small_access() {
        let mut d = DramDevice::new(1 << 20).unwrap();
        let lat = d.write_at(0, &[0u8; 64]).unwrap();
        assert!(lat < SimDuration::from_micros(2), "DRAM write too slow: {lat}");
    }

    #[test]
    fn bounds_are_enforced() {
        let mut d = DramDevice::new(1 << 16).unwrap();
        let err = d.write_at(1 << 16, &[1]).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfBounds { .. }));
    }

    #[test]
    fn erase_is_unsupported() {
        let mut d = DramDevice::new(1 << 16).unwrap();
        assert!(matches!(d.erase_block(0), Err(DeviceError::Unsupported(_))));
    }

    #[test]
    fn capacity_rounds_up_to_unit() {
        let d = DramDevice::new(100).unwrap();
        assert_eq!(d.geometry().capacity % 64, 0);
        assert!(d.geometry().capacity >= 100);
    }

    #[test]
    fn submit_overlaps_requests_on_dram_lanes() {
        use crate::device::tests::run_on_ring;
        use crate::queue::IoRequest;
        let mut d = DramDevice::new(1 << 20).unwrap();
        let reqs = (0..8).map(|i| IoRequest::write(i * 4096, vec![i as u8; 4096])).collect();
        let (ring, done) = run_on_ring(&mut d, reqs);
        assert_eq!(done.len(), 8);
        assert!(done.iter().all(|c| c.result.is_ok()));
        // DRAM overlaps on 4 lanes: elapsed is 1/4 of the busy sum.
        let busy: SimDuration = done.iter().map(|c| c.latency).sum();
        assert_eq!(ring.makespan(), busy / 4);
        let s = d.stats();
        assert_eq!(s.requests_submitted, 8);
        assert_eq!(s.requests_overlapped, 6, "two requests per lane, lanes 1-3 overlap");
        assert_eq!(s.ring_depth_high_water, 8);
        assert_eq!(s.writes, 8, "per-command counters still advance");
    }

    #[test]
    fn trim_is_a_counted_noop() {
        let mut d = DramDevice::new(1 << 16).unwrap();
        assert_eq!(d.trim(0, 4096).unwrap(), SimDuration::ZERO);
        assert_eq!(d.stats().trims, 1);
        assert_eq!(d.stats().total_ops(), 1);
        assert!(d.trim(1 << 16, 1).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let mut d = DramDevice::new(1 << 16).unwrap();
        d.write_at(0, &[1; 128]).unwrap();
        d.read_at(0, &mut [0; 128]).unwrap();
        let s = d.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 128);
        assert_eq!(s.bytes_read, 128);
        assert!(s.busy_time() > SimDuration::ZERO);
    }
}
