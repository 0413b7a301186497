//! Magnetic disk model.
//!
//! The dominant cost of a random disk access is mechanical: a seek whose
//! duration grows with the distance travelled plus half a rotation of
//! rotational delay. Sequential accesses (continuing exactly where the last
//! access ended) skip both and run at the media transfer rate. This is the
//! behaviour that makes on-disk hash indexes (Berkeley-DB) slow for random
//! key workloads and BufferHash-on-disk competitive only for inserts.
//!
//! The disk has one head, so its queue is serial: a ring stream is serviced
//! in admission order, every request paying its own seek.

use crate::cost::LinearCost;
use crate::device::Device;
use crate::error::{DeviceError, Result};
use crate::geometry::Geometry;
use crate::profiles::DeviceProfile;
use crate::stats::IoStats;
use crate::store::SparseStore;
use crate::time::SimDuration;

/// A rotating magnetic disk.
#[derive(Debug)]
pub struct MagneticDisk {
    profile: DeviceProfile,
    geometry: Geometry,
    store: SparseStore,
    stats: IoStats,
    /// Byte offset one past the end of the last access (for sequential
    /// detection), or `None` before the first access.
    head: Option<u64>,
}

impl MagneticDisk {
    /// Creates a disk of `capacity` bytes with the default Hitachi 7K80
    /// profile. Capacity is rounded up to a whole number of sectors.
    pub fn new(capacity: u64) -> Result<Self> {
        Self::with_profile(capacity, DeviceProfile::hitachi_7k80())
    }

    /// Creates a disk with a custom profile.
    pub fn with_profile(capacity: u64, profile: DeviceProfile) -> Result<Self> {
        if capacity == 0 {
            return Err(DeviceError::InvalidConfig("capacity must be non-zero".into()));
        }
        let unit = profile.block_size as u64;
        let capacity = capacity.div_ceil(unit) * unit;
        let geometry = Geometry::new(capacity, profile.page_size, profile.block_size)?;
        Ok(MagneticDisk {
            geometry,
            store: SparseStore::new(64 * 1024),
            stats: IoStats::default(),
            head: None,
            profile,
        })
    }

    /// Prices an access of `len` bytes at `offset` (positioning, then
    /// whole sectors at `cost`) and leaves the head at its end.
    fn transfer(&mut self, offset: u64, len: usize, cost: LinearCost) -> SimDuration {
        let pages = self.geometry.pages_spanned(offset, len);
        let lat = self.positioning_cost(offset)
            + cost.cost(pages as usize * self.profile.page_size as usize);
        self.head = Some(offset + len as u64);
        lat
    }

    /// Mechanical positioning cost for an access starting at `offset`.
    fn positioning_cost(&self, offset: u64) -> SimDuration {
        match self.head {
            Some(h) if h == offset => SimDuration::ZERO,
            Some(h) => {
                // Seek time grows sub-linearly with distance; model as a
                // fixed settle component plus a distance-dependent part.
                let dist = h.abs_diff(offset) as f64 / self.geometry.capacity.max(1) as f64;
                let seek = self.profile.seek_ns as f64 * (0.35 + 0.65 * dist.sqrt());
                SimDuration::from_nanos(seek as u64 + self.profile.rotation_ns)
            }
            None => SimDuration::from_nanos(self.profile.seek_ns + self.profile.rotation_ns),
        }
    }
}

impl Device for MagneticDisk {
    fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn medium_read(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration> {
        self.store.read(offset, buf);
        Ok(self.transfer(offset, buf.len(), self.profile.read_cost))
    }

    fn medium_write(&mut self, offset: u64, bufs: &[&[u8]]) -> Result<SimDuration> {
        let len = self.store.write_list(offset, bufs);
        Ok(self.transfer(offset, len, self.profile.write_cost))
    }

    // No erase, and no mapping layer to exploit a TRIM: it is counted and
    // dropped.

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

    fn disk() -> MagneticDisk {
        MagneticDisk::new(64 << 20).unwrap()
    }

    #[test]
    fn round_trips_data() {
        let mut d = disk();
        d.write_at(1 << 20, b"spinning rust").unwrap();
        let mut buf = [0u8; 13];
        d.read_at(1 << 20, &mut buf).unwrap();
        assert_eq!(&buf, b"spinning rust");
    }

    #[test]
    fn random_access_costs_milliseconds() {
        let mut d = disk();
        let lat = d.read_at(32 << 20, &mut [0u8; 4096]).unwrap();
        assert!(lat > SimDuration::from_millis(4), "random read too fast: {lat}");
        assert!(lat < SimDuration::from_millis(20), "random read too slow: {lat}");
    }

    #[test]
    fn sequential_access_skips_the_seek() {
        let mut d = disk();
        let first = d.write_at(0, &[1u8; 4096]).unwrap();
        let second = d.write_at(4096, &[1u8; 4096]).unwrap();
        assert!(second < first, "sequential write {second} should be cheaper than first {first}");
        assert!(second < SimDuration::from_millis(1));
    }

    #[test]
    fn longer_seeks_cost_more() {
        let mut d = disk();
        d.read_at(0, &mut [0u8; 512]).unwrap();
        let near = d.read_at(1 << 20, &mut [0u8; 512]).unwrap();
        d.read_at(0, &mut [0u8; 512]).unwrap();
        let far = d.read_at(60 << 20, &mut [0u8; 512]).unwrap();
        assert!(far > near, "far seek {far} should cost more than near seek {near}");
    }

    #[test]
    fn random_disk_read_is_slower_than_ssd_read() {
        use crate::ssd::Ssd;
        let mut d = disk();
        let mut s = Ssd::intel(64 << 20).unwrap();
        d.write_at(10 << 20, &[1u8; 4096]).unwrap();
        s.write_at(10 << 20, &[1u8; 4096]).unwrap();
        // Move the disk head away so the read is random.
        d.read_at(0, &mut [0u8; 512]).unwrap();
        let dl = d.read_at(10 << 20, &mut [0u8; 4096]).unwrap();
        let sl = s.read_at(10 << 20, &mut [0u8; 4096]).unwrap();
        assert!(dl > sl * 5, "disk {dl} should be much slower than SSD {sl}");
    }

    #[test]
    fn submit_applies_conflicting_writes_in_submission_order() {
        use crate::device::tests::run_on_ring;
        use crate::queue::IoRequest;
        let mut d = disk();
        let reqs = vec![
            IoRequest::write(8 << 20, vec![1u8; 512]),
            IoRequest::write(8 << 20, vec![2u8; 512]),
            IoRequest::read(8 << 20, 512),
            IoRequest::Erase { block: 0 },
        ];
        let (ring, done) = run_on_ring(&mut d, reqs);
        assert_eq!(done[2].result.as_ref().unwrap()[0], 2, "later write wins");
        assert!(matches!(done[3].result, Err(DeviceError::Unsupported(_))));
        // One head: the stream is serviced in admission order, one request
        // at a time.
        assert!(done.iter().all(|c| c.lane == 0));
        assert_eq!(ring.makespan(), done.iter().map(|c| c.latency).sum());
    }

    #[test]
    fn trim_is_a_counted_noop_on_disk() {
        let mut d = disk();
        assert_eq!(d.trim(0, 4096).unwrap(), SimDuration::ZERO);
        assert_eq!(d.stats().trims, 1);
    }

    #[test]
    fn erase_is_unsupported() {
        let mut d = disk();
        assert!(matches!(d.erase_block(0), Err(DeviceError::Unsupported(_))));
    }

    #[test]
    fn bounds_are_enforced() {
        let mut d = disk();
        let cap = d.geometry().capacity;
        assert!(d.read_at(cap, &mut [0u8; 1]).is_err());
    }
}
