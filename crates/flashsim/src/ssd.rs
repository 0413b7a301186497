//! Solid-state drive model with a page-mapped FTL.
//!
//! The model reproduces the SSD behaviour the paper's results depend on:
//!
//! * random reads are fast and roughly uniform;
//! * sequential writes are cheap; small random writes gradually fragment the
//!   physical blocks, so garbage collection must relocate many valid pages
//!   and write latency degrades sharply under sustained random-write load
//!   (the reason Berkeley-DB performs poorly even on an Intel SSD, §7.2.2).
//!
//! The FTL is page-mapped with greedy victim selection (fewest valid pages
//! first). Garbage collection runs when a write finds the clean-block pool
//! low, and its work is charged to that write.

use std::collections::VecDeque;

use crate::device::Device;
use crate::error::{DeviceError, Result};
use crate::geometry::Geometry;
use crate::profiles::DeviceProfile;
use crate::stats::IoStats;
use crate::store::SparseStore;
use crate::time::SimDuration;

const INVALID: u64 = u64::MAX;

/// A solid-state drive with a simulated flash translation layer.
#[derive(Debug)]
pub struct Ssd {
    profile: DeviceProfile,
    geometry: Geometry,
    store: SparseStore,
    stats: IoStats,

    /// Logical page -> physical page.
    l2p: Vec<u64>,
    /// Physical page -> logical page (INVALID if the physical page is free
    /// or holds stale data).
    p2l: Vec<u64>,
    /// Number of valid pages per physical block.
    block_valid: Vec<u32>,
    /// Physical blocks that are fully erased and ready for writing.
    free_blocks: VecDeque<u64>,
    /// Fast membership test mirroring `free_blocks`.
    block_is_free: Vec<bool>,
    /// Block currently being filled and the next page index within it.
    open_block: Option<(u64, u32)>,

    phys_blocks: u64,
    pages_per_block: u32,
    gc_low_watermark: u64,
    gc_high_watermark: u64,
}

impl Ssd {
    /// Creates an SSD of `capacity` logical bytes with the given profile.
    ///
    /// Physical capacity is `capacity * (1 + over_provisioning)` rounded up
    /// to whole erase blocks.
    pub fn with_profile(capacity: u64, profile: DeviceProfile) -> Result<Self> {
        if capacity == 0 {
            return Err(DeviceError::InvalidConfig("capacity must be non-zero".into()));
        }
        let block = profile.block_size as u64;
        let capacity = capacity.div_ceil(block) * block;
        let geometry = Geometry::new(capacity, profile.page_size, profile.block_size)?;

        let logical_pages = geometry.pages();
        let min_extra = 4; // always keep a handful of spare blocks
        let extra_blocks =
            ((geometry.blocks() as f64 * profile.over_provisioning).ceil() as u64).max(min_extra);
        let phys_blocks = geometry.blocks() + extra_blocks;
        let pages_per_block = geometry.pages_per_block();
        let phys_pages = phys_blocks * pages_per_block as u64;

        let gc_low_watermark = (phys_blocks / 50).max(2);
        let gc_high_watermark = gc_low_watermark + (phys_blocks / 100).max(2);

        Ok(Ssd {
            geometry,
            store: SparseStore::new(profile.page_size as usize),
            stats: IoStats::default(),
            l2p: vec![INVALID; logical_pages as usize],
            p2l: vec![INVALID; phys_pages as usize],
            block_valid: vec![0u32; phys_blocks as usize],
            free_blocks: (0..phys_blocks).collect(),
            block_is_free: vec![true; phys_blocks as usize],
            open_block: None,
            phys_blocks,
            pages_per_block,
            gc_low_watermark,
            gc_high_watermark,
            profile,
        })
    }

    /// Creates an Intel X18-M class SSD.
    pub fn intel(capacity: u64) -> Result<Self> {
        Self::with_profile(capacity, DeviceProfile::intel_x18m())
    }

    /// Creates a Transcend TS32GSSD25 class SSD.
    pub fn transcend(capacity: u64) -> Result<Self> {
        Self::with_profile(capacity, DeviceProfile::transcend_ts32g())
    }

    /// Preconditions the drive as if every logical page had already been
    /// written once in random order — the standard steady-state starting
    /// point for SSD benchmarking. No simulated time is charged.
    ///
    /// `fill_fraction` in `[0, 1]` controls how much of the logical space is
    /// mapped.
    pub fn precondition(&mut self, fill_fraction: f64) {
        let fill = fill_fraction.clamp(0.0, 1.0);
        let logical_pages = self.geometry.pages();
        let to_map = (logical_pages as f64 * fill) as u64;
        // Deterministic "random-ish" order: stride by a large odd constant.
        let stride = (2_654_435_761u64 % logical_pages.max(1)) | 1;
        let mut lpn = 0u64;
        for _ in 0..to_map {
            lpn = (lpn + stride) % logical_pages;
            let _ = self.map_write(lpn, true);
        }
        // Preconditioning is free: discard the counts it made.
        self.stats.reset();
    }

    fn phys_page_offset(&self, phys_page: u64) -> (u64, u32) {
        (phys_page / self.pages_per_block as u64, (phys_page % self.pages_per_block as u64) as u32)
    }

    fn pop_free_block(&mut self) -> Option<u64> {
        let block = self.free_blocks.pop_front()?;
        self.block_is_free[block as usize] = false;
        Some(block)
    }

    fn push_free_block(&mut self, block: u64) {
        if !self.block_is_free[block as usize] {
            self.block_is_free[block as usize] = true;
            self.free_blocks.push_back(block);
        }
    }

    /// Allocates the next physical page, running garbage collection if the
    /// free pool is low. `during_gc` suppresses nested collection when the
    /// allocation is itself part of a relocation.
    ///
    /// Returns the physical page and any GC latency incurred.
    fn allocate_page(&mut self, during_gc: bool) -> Result<(u64, SimDuration)> {
        let mut gc_cost = SimDuration::ZERO;
        if self.open_block.is_none() {
            if !during_gc && (self.free_blocks.len() as u64) <= self.gc_low_watermark {
                gc_cost += self.run_gc()?;
            }
            let block = self.pop_free_block().ok_or(DeviceError::DeviceFull)?;
            self.open_block = Some((block, 0));
        }
        let (block, next) = self.open_block.take().ok_or(DeviceError::DeviceFull)?;
        let phys_page = block * self.pages_per_block as u64 + next as u64;
        if next + 1 < self.pages_per_block {
            self.open_block = Some((block, next + 1));
        }
        Ok((phys_page, gc_cost))
    }

    /// Picks the best GC victim: the non-free, non-open block with the
    /// fewest valid pages. Returns `None` when no block can yield space.
    fn pick_victim(&self) -> Option<u64> {
        let open = self.open_block.map(|(b, _)| b);
        let victim = (0..self.phys_blocks)
            .filter(|b| Some(*b) != open && !self.block_is_free[*b as usize])
            .min_by_key(|&b| self.block_valid[b as usize])?;
        if self.block_valid[victim as usize] as u64 >= self.pages_per_block as u64 {
            // Nothing reclaimable anywhere.
            return None;
        }
        Some(victim)
    }

    /// Runs garbage collection until the free pool reaches the high
    /// watermark or no victim can yield free space.
    fn run_gc(&mut self) -> Result<SimDuration> {
        let mut total = SimDuration::ZERO;
        while (self.free_blocks.len() as u64) < self.gc_high_watermark {
            let Some(victim) = self.pick_victim() else { break };
            total += self.collect_block(victim)?;
            self.stats.gc_runs += 1;
        }
        Ok(total)
    }

    /// Relocates the valid pages of `victim`, erases it and returns the cost.
    fn collect_block(&mut self, victim: u64) -> Result<SimDuration> {
        let mut cost = SimDuration::ZERO;
        let base = victim * self.pages_per_block as u64;
        let page_size = self.profile.page_size as usize;
        let mut moved = 0u64;
        for i in 0..self.pages_per_block as u64 {
            let phys = base + i;
            let lpn = self.p2l[phys as usize];
            if lpn == INVALID {
                continue;
            }
            // Relocate: read + program on a fresh page. Data lives in the
            // logical store, so only mappings and costs change.
            cost += self.profile.read_cost.cost(page_size);
            let (new_phys, gc_inner) = self.allocate_page(true)?;
            cost += gc_inner;
            cost += self.profile.write_cost.cost(page_size);
            self.p2l[phys as usize] = INVALID;
            self.p2l[new_phys as usize] = lpn;
            self.l2p[lpn as usize] = new_phys;
            let (new_block, _) = self.phys_page_offset(new_phys);
            self.block_valid[new_block as usize] += 1;
            moved += 1;
        }
        self.block_valid[victim as usize] = 0;
        cost += self.profile.erase_cost.cost(self.profile.block_size as usize);
        self.stats.erases += 1;
        self.stats.erase_time += cost;
        self.stats.gc_pages_copied += moved;
        self.push_free_block(victim);
        Ok(cost)
    }

    /// Updates FTL mappings for a write to logical page `lpn`; returns GC
    /// latency incurred.
    fn map_write(&mut self, lpn: u64, free_gc: bool) -> Result<SimDuration> {
        // Invalidate the previous mapping, if any.
        let old = self.l2p[lpn as usize];
        if old != INVALID {
            self.p2l[old as usize] = INVALID;
            let (old_block, _) = self.phys_page_offset(old);
            self.block_valid[old_block as usize] =
                self.block_valid[old_block as usize].saturating_sub(1);
        }
        let (phys, gc_cost) = self.allocate_page(free_gc)?;
        self.l2p[lpn as usize] = phys;
        self.p2l[phys as usize] = lpn;
        let (block, _) = self.phys_page_offset(phys);
        self.block_valid[block as usize] += 1;
        Ok(gc_cost)
    }
}

impl Device for Ssd {
    fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn medium_read(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration> {
        self.store.read(offset, buf);
        let pages = self.geometry.pages_spanned(offset, buf.len());
        let bytes = pages as usize * self.profile.page_size as usize;
        Ok(self.profile.read_cost.cost(bytes))
    }

    fn medium_write(&mut self, offset: u64, bufs: &[&[u8]]) -> Result<SimDuration> {
        let len = self.store.write_list(offset, bufs);
        let first = self.geometry.page_of(offset);
        let last = self.geometry.page_of(offset + len as u64 - 1);
        let mut gc_cost = SimDuration::ZERO;
        for lpn in first..=last {
            gc_cost += self.map_write(lpn, false)?;
        }
        let pages = last - first + 1;
        let bytes = pages as usize * self.profile.page_size as usize;
        // The whole range is issued as one command: fixed cost once, then a
        // bandwidth term (this is what makes batched sequential writes cheap).
        Ok(self.profile.write_cost.cost(bytes) + gc_cost)
    }

    // The FTL hides physical erasure from the host, so the SSD keeps the
    // default `medium_erase`, which refuses.

    fn medium_trim(&mut self, offset: u64, len: u64) -> Result<SimDuration> {
        let first = self.geometry.page_of(offset);
        let last = self.geometry.page_of(offset + len - 1);
        for lpn in first..=last {
            let phys = self.l2p[lpn as usize];
            if phys != INVALID {
                self.p2l[phys as usize] = INVALID;
                let (block, _) = self.phys_page_offset(phys);
                self.block_valid[block as usize] =
                    self.block_valid[block as usize].saturating_sub(1);
                self.l2p[lpn as usize] = INVALID;
            }
        }
        // TRIM itself is nearly free.
        Ok(SimDuration::from_micros(5))
    }

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
    use crate::device::tests::run_on_ring;
    use crate::queue::{IoRequest, RingCompletion};

    fn small_ssd() -> Ssd {
        // 8 MiB logical, 4 KiB pages, 256 KiB blocks -> 32 logical blocks.
        Ssd::intel(8 << 20).unwrap()
    }

    #[test]
    fn write_read_round_trip() {
        let mut ssd = small_ssd();
        let data: Vec<u8> = (0..9000).map(|i| (i % 251) as u8).collect();
        ssd.write_at(12_288, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        ssd.read_at(12_288, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn random_reads_are_sub_millisecond() {
        let mut ssd = small_ssd();
        ssd.write_at(0, &vec![1u8; 1 << 20]).unwrap();
        let lat = ssd.read_at(512 * 1024, &mut [0u8; 4096]).unwrap();
        assert!(lat < SimDuration::from_millis(1), "read too slow: {lat}");
    }

    #[test]
    fn sequential_large_write_is_cheaper_per_byte_than_random_small_writes() {
        let mut ssd = small_ssd();
        let large = ssd.write_at(0, &vec![1u8; 128 * 1024]).unwrap();
        let mut small_total = SimDuration::ZERO;
        for i in 0..32u64 {
            // Scatter writes across the logical space.
            small_total +=
                ssd.write_at((i * 37 % 60) * 64 * 1024 + (1 << 20), &[1u8; 4096]).unwrap();
        }
        // Same number of bytes (128 KiB) written in both cases.
        assert!(large < small_total, "sequential {large} vs random {small_total}");
    }

    #[test]
    fn sustained_random_writes_trigger_gc_and_slow_down() {
        let mut ssd = Ssd::intel(4 << 20).unwrap(); // tiny drive so it wraps quickly
        ssd.precondition(1.0);
        let logical_pages = ssd.geometry().pages();
        let mut total = SimDuration::ZERO;
        let n = logical_pages * 4;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..n {
            let lpn = rng.gen_range(0..logical_pages);
            total += ssd.write_at(lpn * 4096, &[0xABu8; 4096]).unwrap();
        }
        let s = ssd.stats();
        assert!(s.gc_runs > 0, "expected garbage collection to run");
        assert!(s.gc_pages_copied > 0, "random overwrites should relocate valid pages");
        // GC relocation work should inflate the average random-write cost
        // well beyond the raw program cost of a single page.
        let raw = ssd.profile().write_cost.cost(4096);
        let avg = total / n;
        assert!(
            avg > raw * 2,
            "steady-state random writes ({avg}) should cost much more than a raw program ({raw})"
        );
    }

    #[test]
    fn circular_sequential_overwrites_keep_gc_cheap() {
        // Write the whole drive sequentially several times over (like the
        // BufferHash circular incarnation log). GC victims should be almost
        // entirely invalid, so few pages get copied.
        let mut ssd = Ssd::intel(4 << 20).unwrap();
        let cap = ssd.geometry().capacity;
        let chunk = 128 * 1024u64;
        for round in 0..6u64 {
            let _ = round;
            let mut off = 0;
            while off < cap {
                ssd.write_at(off, &vec![round as u8; chunk as usize]).unwrap();
                off += chunk;
            }
        }
        let s = ssd.stats();
        let copied_per_gc =
            if s.gc_runs == 0 { 0.0 } else { s.gc_pages_copied as f64 / s.gc_runs as f64 };
        assert!(
            copied_per_gc < 8.0,
            "sequential overwrite should leave mostly-invalid victims, got {copied_per_gc} copied/GC"
        );
    }

    #[test]
    fn trim_invalidates_mappings() {
        let mut ssd = small_ssd();
        ssd.write_at(0, &vec![1u8; 256 * 1024]).unwrap();
        ssd.trim(0, 256 * 1024).unwrap();
        // After trim, the block holding those pages has no valid pages, so a
        // full-device rewrite should not need to copy them.
        let cap = ssd.geometry().capacity;
        let mut off = 0;
        while off < cap {
            ssd.write_at(off, &vec![2u8; 128 * 1024]).unwrap();
            off += 128 * 1024;
        }
        assert!(ssd.stats().gc_pages_copied < ssd.geometry().pages_per_block() as u64 * 2);
    }

    #[test]
    fn erase_block_is_not_exposed() {
        let mut ssd = small_ssd();
        assert!(matches!(ssd.erase_block(0), Err(DeviceError::Unsupported(_))));
    }

    #[test]
    fn submit_overlaps_on_intel_but_not_on_transcend() {
        let build = || -> Vec<IoRequest> {
            (0..16u64).map(|i| IoRequest::write(i * 128 * 1024, vec![1u8; 128 * 1024])).collect()
        };
        let busy = |done: &[RingCompletion]| done.iter().map(|c| c.latency).sum::<SimDuration>();
        let mut intel = Ssd::intel(8 << 20).unwrap();
        let (ring, done) = run_on_ring(&mut intel, build());
        assert!(done.iter().all(|c| c.result.is_ok()));
        assert_eq!(ring.makespan(), busy(&done) / 8, "16 equal writes over 8 lanes take 2 slots");
        assert_eq!(intel.stats().requests_overlapped, 14);

        let mut transcend = Ssd::transcend(8 << 20).unwrap();
        let (ring, done) = run_on_ring(&mut transcend, build());
        assert_eq!(ring.makespan(), busy(&done), "serial controller");
        assert_eq!(transcend.stats().requests_overlapped, 0);
    }

    #[test]
    fn submit_mutates_ftl_state_in_submission_order() {
        let mut ssd = small_ssd();
        let reqs = vec![
            IoRequest::write(0, vec![1u8; 4096]),
            IoRequest::write(0, vec![2u8; 4096]),
            IoRequest::read(0, 4096),
        ];
        let (ring, done) = run_on_ring(&mut ssd, reqs);
        assert_eq!(done[2].result.as_ref().unwrap()[0], 2, "later write wins");
        // All three requests touch the same page: they are dependent, so
        // the ring must serialize them (elapsed == busy sum) whatever lanes
        // it books them on.
        assert_eq!(done[1].started_at, done[0].completed_at);
        assert_eq!(done[2].started_at, done[1].completed_at);
        assert_eq!(ring.makespan(), done.iter().map(|c| c.latency).sum());
        assert_eq!(ssd.stats().ring_admission_stalls, 2);
    }

    #[test]
    fn trim_is_counted() {
        let mut ssd = small_ssd();
        ssd.write_at(0, &[1u8; 4096]).unwrap();
        ssd.trim(0, 4096).unwrap();
        let s = ssd.stats();
        assert_eq!(s.trims, 1);
        assert!(s.trim_time > SimDuration::ZERO);
        assert!(s.busy_time() >= s.trim_time);
    }

    #[test]
    fn intel_is_faster_than_transcend_for_reads() {
        let mut intel = Ssd::intel(4 << 20).unwrap();
        let mut transcend = Ssd::transcend(4 << 20).unwrap();
        intel.write_at(0, &[1u8; 4096]).unwrap();
        transcend.write_at(0, &[1u8; 4096]).unwrap();
        let li = intel.read_at(0, &mut [0u8; 4096]).unwrap();
        let lt = transcend.read_at(0, &mut [0u8; 4096]).unwrap();
        assert!(li < lt);
    }

    #[test]
    fn preconditioning_is_free_and_resets_stats() {
        let mut ssd = small_ssd();
        ssd.precondition(1.0);
        let s = ssd.stats();
        assert_eq!(s.total_ops(), 0);
        assert_eq!(s.busy_time(), SimDuration::ZERO);
    }

    #[test]
    fn device_never_reports_full_under_normal_use() {
        let mut ssd = Ssd::intel(2 << 20).unwrap();
        ssd.precondition(1.0);
        let pages = ssd.geometry().pages();
        let mut lpn = 1u64;
        for _ in 0..pages * 6 {
            lpn = (lpn * 1_103_515_245 + 12_345) % pages;
            ssd.write_at(lpn * 4096, &[9u8; 4096]).expect("write should always succeed");
        }
    }
}
