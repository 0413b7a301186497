//! Raw NAND flash chip model (no FTL).
//!
//! The chip exposes the medium's true constraints to the caller:
//!
//! * reads and programs happen at page granularity;
//! * a page must be erased before it can be programmed again;
//! * erasure happens at erase-block granularity and is expensive.
//!
//! BufferHash's "one partition per super table, written circularly" layout
//! (§5.2) is designed directly against this interface.

use crate::device::{list_len, Device};
use crate::error::{DeviceError, Result};
use crate::geometry::Geometry;
use crate::profiles::DeviceProfile;
use crate::stats::IoStats;
use crate::store::SparseStore;
use crate::time::SimDuration;

/// A raw NAND flash chip.
#[derive(Debug)]
pub struct FlashChip {
    profile: DeviceProfile,
    geometry: Geometry,
    store: SparseStore,
    stats: IoStats,
    /// Bitmap of programmed pages (1 = programmed, 0 = erased).
    programmed: Vec<u64>,
}

impl FlashChip {
    /// Creates a flash chip of `capacity` bytes using the default NAND
    /// profile. Capacity is rounded up to a whole number of erase blocks.
    pub fn new(capacity: u64) -> Result<Self> {
        Self::with_profile(capacity, DeviceProfile::flash_chip())
    }

    /// Creates a flash chip with a custom profile.
    pub fn with_profile(capacity: u64, profile: DeviceProfile) -> Result<Self> {
        if capacity == 0 {
            return Err(DeviceError::InvalidConfig("capacity must be non-zero".into()));
        }
        let block = profile.block_size as u64;
        let capacity = capacity.div_ceil(block) * block;
        let geometry = Geometry::new(capacity, profile.page_size, profile.block_size)?;
        let words = (geometry.pages() as usize).div_ceil(64);
        Ok(FlashChip {
            geometry,
            store: SparseStore::new(profile.page_size as usize),
            stats: IoStats::default(),
            programmed: vec![0u64; words],
            profile,
        })
    }

    fn is_programmed(&self, page: u64) -> bool {
        let (w, b) = (page as usize / 64, page as usize % 64);
        self.programmed[w] >> b & 1 == 1
    }

    fn set_programmed(&mut self, page: u64, value: bool) {
        let (w, b) = (page as usize / 64, page as usize % 64);
        if value {
            self.programmed[w] |= 1 << b;
        } else {
            self.programmed[w] &= !(1 << b);
        }
    }

    /// Number of pages currently programmed (useful in tests and for wear
    /// accounting).
    pub fn programmed_pages(&self) -> u64 {
        self.programmed.iter().map(|w| w.count_ones() as u64).sum()
    }
}

impl Device for FlashChip {
    fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn medium_read(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration> {
        self.store.read(offset, buf);
        // A read transfers whole pages; sub-page reads cost a full page (P2).
        let pages = self.geometry.pages_spanned(offset, buf.len());
        Ok(self.profile.read_cost.cost(pages as usize * self.profile.page_size as usize))
    }

    fn medium_write(&mut self, offset: u64, bufs: &[&[u8]]) -> Result<SimDuration> {
        let first = self.geometry.page_of(offset);
        let last = self.geometry.page_of(offset + list_len(bufs) as u64 - 1);
        if let Some(page) = (first..=last).find(|&page| self.is_programmed(page)) {
            return Err(DeviceError::WriteToDirtyPage {
                page_offset: self.geometry.page_offset(page),
            });
        }
        for page in first..=last {
            self.set_programmed(page, true);
        }
        self.store.write_list(offset, bufs);
        let pages = last - first + 1;
        Ok(self.profile.write_cost.cost(pages as usize * self.profile.page_size as usize))
    }

    fn medium_erase(&mut self, block: u64) -> Result<SimDuration> {
        let start_page = block * self.geometry.pages_per_block() as u64;
        for page in start_page..start_page + self.geometry.pages_per_block() as u64 {
            self.set_programmed(page, false);
        }
        self.store.erase(self.geometry.block_offset(block), self.geometry.block_size as u64);
        Ok(self.profile.erase_cost.cost(self.geometry.block_size as usize))
    }

    // A raw chip has no FTL to exploit a TRIM: it is counted and dropped,
    // and erasure stays explicit.

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

    fn chip() -> FlashChip {
        FlashChip::new(4 << 20).unwrap() // 4 MiB, 2 KiB pages, 128 KiB blocks
    }

    #[test]
    fn write_read_round_trip() {
        let mut c = chip();
        let data: Vec<u8> = (0..4096).map(|i| (i % 255) as u8).collect();
        c.write_at(0, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        c.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(c.programmed_pages(), 2);
    }

    #[test]
    fn rewriting_a_programmed_page_fails() {
        let mut c = chip();
        c.write_at(0, &[1u8; 2048]).unwrap();
        let err = c.write_at(0, &[2u8; 2048]).unwrap_err();
        assert!(matches!(err, DeviceError::WriteToDirtyPage { page_offset: 0 }));
    }

    #[test]
    fn erase_allows_rewriting() {
        let mut c = chip();
        c.write_at(0, &[1u8; 2048]).unwrap();
        c.erase_block(0).unwrap();
        assert_eq!(c.programmed_pages(), 0);
        c.write_at(0, &[2u8; 2048]).unwrap();
        let mut buf = [0u8; 2048];
        c.read_at(0, &mut buf).unwrap();
        assert_eq!(buf[0], 2);
    }

    #[test]
    fn erase_zeroes_data() {
        let mut c = chip();
        c.write_at(0, &[7u8; 2048]).unwrap();
        c.erase_block(0).unwrap();
        let mut buf = [1u8; 2048];
        c.read_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn sub_page_read_costs_a_full_page() {
        let mut c = chip();
        c.write_at(0, &[1u8; 2048]).unwrap();
        let small = c.read_at(0, &mut [0u8; 16]).unwrap();
        let full = c.read_at(0, &mut [0u8; 2048]).unwrap();
        assert_eq!(small, full);
    }

    #[test]
    fn sequential_block_write_is_cheaper_than_page_writes() {
        let mut c = chip();
        // One 128 KiB write...
        let batched = c.write_at(0, &vec![1u8; 128 * 1024]).unwrap();
        // ...versus 64 individual page writes.
        let mut unbatched = SimDuration::ZERO;
        for i in 0..64u64 {
            unbatched += c.write_at(128 * 1024 + i * 2048, &[1u8; 2048]).unwrap();
        }
        assert!(batched < unbatched, "batched {batched} vs unbatched {unbatched}");
    }

    #[test]
    fn erase_cost_is_much_higher_than_read_cost() {
        let mut c = chip();
        c.write_at(0, &[1u8; 2048]).unwrap();
        let read = c.read_at(0, &mut [0u8; 2048]).unwrap();
        let erase = c.erase_block(0).unwrap();
        assert!(erase > read * 3);
    }

    #[test]
    fn invalid_block_erase_is_rejected() {
        let mut c = chip();
        let blocks = c.geometry().blocks();
        assert!(matches!(c.erase_block(blocks), Err(DeviceError::InvalidBlock { .. })));
    }

    #[test]
    fn out_of_bounds_io_is_rejected() {
        let mut c = chip();
        let cap = c.geometry().capacity;
        assert!(c.write_at(cap - 1024, &[0u8; 2048]).is_err());
        assert!(c.read_at(cap, &mut [0u8; 1]).is_err());
    }

    #[test]
    fn capacity_rounds_to_block_multiple() {
        let c = FlashChip::new(1000).unwrap();
        assert_eq!(c.geometry().capacity, 128 * 1024);
    }

    #[test]
    fn submit_preserves_the_erase_before_program_protocol() {
        use crate::device::tests::run_on_ring;
        use crate::queue::IoRequest;
        let mut c = chip();
        c.write_at(0, &[1u8; 2048]).unwrap();
        // One admission: erase block 0, rewrite its first page, read it
        // back, and a dirty-page program that must fail on its own. A chip
        // has one plane, so the ring gives it one lane and the erase lands
        // before the program behind it.
        let reqs = vec![
            IoRequest::Erase { block: 0 },
            IoRequest::write(0, vec![9u8; 2048]),
            IoRequest::read(0, 2048),
            IoRequest::write(0, vec![3u8; 2048]),
        ];
        let (ring, done) = run_on_ring(&mut c, reqs);
        assert!(done[0].result.is_ok());
        assert!(done[1].result.is_ok());
        assert_eq!(done[2].result.as_ref().unwrap()[0], 9);
        assert!(matches!(done[3].result, Err(DeviceError::WriteToDirtyPage { .. })));
        assert!(done.iter().all(|c| c.lane == 0), "a raw chip is serial");
        assert_eq!(ring.makespan(), done.iter().map(|c| c.latency).sum());
        let s = c.stats();
        assert_eq!(s.requests_submitted, 4);
        assert_eq!(s.requests_overlapped, 0);
        assert_eq!(s.erases, 1);
    }

    #[test]
    fn trim_is_counted_on_the_chip() {
        let mut c = chip();
        c.trim(0, 2048).unwrap();
        assert_eq!(c.stats().trims, 1);
    }

    #[test]
    fn stats_track_all_operation_kinds() {
        let mut c = chip();
        c.write_at(0, &[1u8; 2048]).unwrap();
        c.read_at(0, &mut [0u8; 2048]).unwrap();
        c.erase_block(0).unwrap();
        let s = c.stats();
        assert_eq!((s.reads, s.writes, s.erases), (1, 1, 1));
        assert!(s.busy_time() > SimDuration::ZERO);
    }
}
