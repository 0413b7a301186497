//! Closed-form I/O cost model (§6).
//!
//! The paper derives analytical expressions for the amortized and worst-case
//! insert cost and the expected lookup cost of BufferHash on flash. These
//! functions reproduce those expressions; they drive the analytical
//! columns of Figure 3, Figure 4 and Table 2 and `parameter_tuning`, and
//! the unit tests here and in `clam` check the queue-depth terms against
//! the simulator, exactly.

use flashsim::{DeviceProfile, MediumKind, OverlapModel, QueueCapabilities, SimDuration};

use crate::config::tuning;

/// Flash cost parameters extracted from a device profile, in the linear form
/// `a + b·x` used by the paper.
#[derive(Debug, Clone)]
pub struct FlashCostModel {
    /// Read cost function.
    pub read: flashsim::LinearCost,
    /// Write cost function.
    pub write: flashsim::LinearCost,
    /// Erase cost function.
    pub erase: flashsim::LinearCost,
    /// Flash page / SSD sector size in bytes (`S_p`).
    pub page_size: usize,
    /// Erase-block size in bytes (`S_b`).
    pub block_size: usize,
    /// `true` when an FTL hides erase/copy costs inside the write cost
    /// (SSDs): the `C2`/`C3` terms are then omitted (§6.1).
    pub ftl_managed: bool,
    /// Submission-queue shape of the device (depth and overlap model),
    /// driving the queue-depth-aware cost terms below.
    pub queue: QueueCapabilities,
}

impl FlashCostModel {
    /// Builds a cost model from a device profile.
    pub fn from_profile(profile: &DeviceProfile) -> Self {
        FlashCostModel {
            read: profile.read_cost,
            write: profile.write_cost,
            erase: profile.erase_cost,
            page_size: profile.page_size as usize,
            block_size: profile.block_size as usize,
            ftl_managed: matches!(profile.kind, MediumKind::Ssd | MediumKind::Dram),
            queue: profile.queue,
        }
    }

    /// Cost of reading one flash page / SSD sector (`c_r`).
    pub fn page_read_cost(&self) -> SimDuration {
        self.read.cost(self.page_size)
    }

    /// `C1`: cost of sequentially writing one buffer of `buffer_bytes`.
    pub fn flush_write_cost(&self, buffer_bytes: usize) -> SimDuration {
        let pages = buffer_bytes.div_ceil(self.page_size);
        self.write.cost(pages * self.page_size)
    }

    /// `C2`: erase cost charged to one flush (zero for FTL-managed devices).
    pub fn flush_erase_cost(&self, buffer_bytes: usize) -> SimDuration {
        if self.ftl_managed {
            return SimDuration::ZERO;
        }
        let ni = buffer_bytes.div_ceil(self.page_size) as f64;
        let nb = (self.block_size / self.page_size) as f64;
        let blocks = (ni / nb).ceil() as usize;
        let erase = self.erase.cost(blocks * self.block_size);
        // Only ni/nb of flushes need an erase when the buffer is smaller
        // than a block.
        erase * (ni / nb).min(1.0)
    }

    /// `C3`: cost of saving and restoring valid pages that share an erase
    /// block with the evicted incarnation (zero for FTL-managed devices and
    /// for buffers that are a whole number of blocks).
    pub fn flush_copy_cost(&self, buffer_bytes: usize) -> SimDuration {
        if self.ftl_managed {
            return SimDuration::ZERO;
        }
        let ni = buffer_bytes.div_ceil(self.page_size);
        let nb = self.block_size / self.page_size;
        if nb == 0 {
            return SimDuration::ZERO;
        }
        let p_prime = (nb - ni % nb) % nb;
        if p_prime == 0 {
            return SimDuration::ZERO;
        }
        self.read.cost(p_prime * self.page_size) + self.write.cost(p_prime * self.page_size)
    }

    /// Worst-case insert cost: a full flush, `C1 + C2 + C3`.
    pub fn insert_worst_case(&self, buffer_bytes: usize) -> SimDuration {
        self.flush_write_cost(buffer_bytes)
            + self.flush_erase_cost(buffer_bytes)
            + self.flush_copy_cost(buffer_bytes)
    }

    /// Amortized insert cost: `(C1 + C2 + C3)·s/B'` where `s` is the
    /// *effective* entry size (entry size / buffer utilisation).
    pub fn insert_amortized(
        &self,
        buffer_bytes: usize,
        effective_entry_size: usize,
    ) -> SimDuration {
        let worst = self.insert_worst_case(buffer_bytes);
        let per_flush_inserts = (buffer_bytes / effective_entry_size.max(1)).max(1) as u64;
        worst / per_flush_inserts
    }

    /// Expected lookup I/O cost for a successful-lookup probability of zero
    /// (i.e. the false-positive-driven overhead only):
    /// `C = (F/B)·(1/2)^(b·s·ln2/F)·c_r` (§6.2).
    pub fn lookup_expected_overhead(
        &self,
        flash_capacity: u64,
        total_buffer_bytes: u64,
        bloom_bytes: u64,
        effective_entry_size: usize,
    ) -> SimDuration {
        let ms = tuning::expected_lookup_overhead(
            flash_capacity,
            total_buffer_bytes,
            bloom_bytes,
            effective_entry_size,
            self.page_read_cost().as_millis_f64(),
        );
        SimDuration::from_millis_f64(ms)
    }

    // ------------------------------------------------------------------
    // The retired generations
    // ------------------------------------------------------------------
    //
    // §6.2 counts one page read for every lookup whose key is on flash.
    // The buffer a table flushed still holds that incarnation in its
    // slots, and a lookup for one of its keys is answered from there until
    // the slot is written again (DESIGN.md "The retired generations").
    // Every insert of a new key writes exactly one slot that was empty —
    // its own or, at the end of a displacement chain, a displaced entry's;
    // the moves along the chain land on occupied slots, which hold nothing
    // drained — and cuckoo placement spreads those writes evenly, so after
    // `j` inserts into `S` slots the youngest incarnation's entry has
    // survived with probability
    //
    //   p(j) = 1 − j/S
    //
    // and, averaged over the fill cycle `j = 0..u·S` that follows a flush,
    // `1 − u/2`: three quarters at the paper's 50 % utilisation. An entry
    // `n` flushes older has also lived through `n` whole fills, each of
    // which wrote a fresh `u` of the slots, so it survives with
    // `(1 − u)^n · p(j)`. Summed over every age, the slots hold
    //
    //   (1 − j/S)/u,   on average over the cycle (1 − u/2)/u
    //
    // incarnations' worth of entries: one and a half at 50 %, twice the
    // youngest's share. The sum converges on its own (the `k`-th term is
    // `(1 − u)^k`), so no cap on the ages read is needed. The CLAM test
    // suite cross-checks these against measured runs.

    /// Probability that an entry of a buffer's youngest retired generation
    /// is still readable after `inserts` new keys went into the buffer's
    /// `slots` slots: `1 − j/S`.
    pub fn retired_survival(inserts: usize, slots: usize) -> f64 {
        1.0 - (inserts as f64 / slots.max(1) as f64).min(1.0)
    }

    /// [`retired_survival`](Self::retired_survival) averaged over the fill
    /// cycle between two flushes of a buffer admitting `max_utilization`
    /// of its slots: `1 − u/2`.
    pub fn mean_retired_survival(max_utilization: f64) -> f64 {
        1.0 - max_utilization.clamp(0.0, 1.0) / 2.0
    }

    /// Incarnations' worth of entries a buffer's slots hold, summed over
    /// every retired generation and averaged over the fill cycle:
    /// `(1 − u/2)/u`, [`mean_retired_survival`](Self::mean_retired_survival)
    /// over `u`.
    pub fn slot_resident_generations(max_utilization: f64) -> f64 {
        let u = max_utilization.clamp(0.05, 1.0);
        Self::mean_retired_survival(u) / u
    }

    // ------------------------------------------------------------------
    // Batched-operation cost model
    // ------------------------------------------------------------------
    //
    // Extension of the §6.1 amortization argument to the batched pipeline
    // (`Clam::insert_batch`): buffering amortizes *flash* cost over the
    // entries of one flush; batching additionally amortizes the *host-side
    // dispatch* cost over the operations of one batch. Per-op end-to-end
    // insert cost at batch size `b`:
    //
    //   T(b) = D/b + r + (C1 + C2 + C3)·s/B'
    //
    // where `D` is the per-call dispatch overhead (`BASE_OP_OVERHEAD`),
    // `r` the residual per-op overhead inside a batch
    // (`BATCHED_OP_OVERHEAD`, with `r = 0` and `D` un-divided at `b = 1`),
    // and the last term is `insert_amortized`. Flush-write coalescing
    // shaves the fixed command cost of contiguous incarnation writes on
    // top of this; the model omits it, so it is conservative.

    /// End-to-end amortized per-insert cost when inserts arrive in batches
    /// of `batch_size`: the dispatch overhead is paid once per batch and a
    /// residual per-op overhead remains. At batch size 1 (the per-op
    /// pipeline) there is no residual: `D` plus the §6.1 amortized flash
    /// cost.
    pub fn insert_batch_amortized(
        &self,
        buffer_bytes: usize,
        effective_entry_size: usize,
        batch_size: usize,
    ) -> SimDuration {
        let dispatch = match batch_size {
            0 | 1 => crate::clam::BASE_OP_OVERHEAD,
            b => crate::clam::BASE_OP_OVERHEAD / b as u64 + crate::clam::BATCHED_OP_OVERHEAD,
        };
        dispatch + self.insert_amortized(buffer_bytes, effective_entry_size)
    }

    /// Predicted insert-throughput speedup of batch size `batch_size` over
    /// the per-op pipeline: `T(1) / T(b)`.
    pub fn batch_insert_speedup(
        &self,
        buffer_bytes: usize,
        effective_entry_size: usize,
        batch_size: usize,
    ) -> f64 {
        let per_op =
            self.insert_batch_amortized(buffer_bytes, effective_entry_size, 1).as_nanos() as f64;
        let batched = self
            .insert_batch_amortized(buffer_bytes, effective_entry_size, batch_size)
            .as_nanos()
            .max(1) as f64;
        per_op / batched
    }

    // ------------------------------------------------------------------
    // Device-ring cost model
    // ------------------------------------------------------------------
    //
    // The completion ring (`Device::submit`) adds a second,
    // orthogonal amortization axis: independent requests of one stream
    // overlap on up to `L` queue lanes (`L = min(depth, max_queue_depth)`,
    // 1 for serial media), so `n` equal-cost requests complete in
    //
    //   M(n, d) = c · ⌈n / L⌉
    //
    // instead of `n·c` — the greedy earliest-free-lane schedule the ring
    // implements. A lookup batch is `n` *chains* of `w` page reads (a key's
    // next probe enters the queue the moment its previous one retires), so
    // its makespan is the classic level-schedule bound
    //
    //   M_ring(n, w, d) = c_r · max(w, ⌈n·w / L⌉)
    //
    // — total work spread over the lanes, floored by the longest chain.
    // The unit tests here and in `clam` check these expressions against
    // the simulator, exactly.

    /// Number of queue lanes a ring stream issued at `queue_depth` actually
    /// gets: 1 on serial media, otherwise `queue_depth` capped by the
    /// device's maximum depth.
    pub fn lanes_at_depth(&self, queue_depth: usize) -> usize {
        match self.queue.overlap {
            OverlapModel::Serial => 1,
            // `.max(1)` twice: both a zero requested depth and a degenerate
            // zero-depth profile degrade to serial instead of panicking.
            OverlapModel::Overlapped => queue_depth.min(self.queue.max_queue_depth.max(1)).max(1),
        }
    }

    /// Predicted elapsed (makespan) time of `requests` independent
    /// equal-cost requests, each costing `unit_cost`, admitted to the ring
    /// at `queue_depth`.
    pub fn submit_makespan(
        &self,
        requests: usize,
        unit_cost: SimDuration,
        queue_depth: usize,
    ) -> SimDuration {
        let lanes = self.lanes_at_depth(queue_depth);
        unit_cost * requests.div_ceil(lanes) as u64
    }

    /// Predicted elapsed (makespan) flash time of a `lookup_batch` of
    /// `keys` keys that each probe `probes_per_key` flash pages, issued at
    /// `queue_depth`: the total page-read work spread over the lanes,
    /// floored by the per-key chain length. Matches the simulator
    /// **exactly** on uniform probe chains — the CLAM test suite checks
    /// the identity.
    ///
    /// ```
    /// use bufferhash::analysis::FlashCostModel;
    /// use flashsim::DeviceProfile;
    ///
    /// // Intel-class SSD: overlapped queue, depth 8.
    /// let model = FlashCostModel::from_profile(&DeviceProfile::intel_x18m());
    /// // 60 miss-heavy lookups probing 4 incarnations each: 240 page
    /// // reads packed into ceil(240/8) = 30 slots, 240 at depth 1.
    /// assert_eq!(model.lookup_ring_makespan(60, 4, 8), model.page_read_cost() * 30);
    /// assert_eq!(model.lookup_ring_makespan(60, 4, 1), model.page_read_cost() * 240);
    /// // Two keys cannot go faster than one key's chain of 4.
    /// assert_eq!(model.lookup_ring_makespan(2, 4, 8), model.page_read_cost() * 4);
    /// ```
    pub fn lookup_ring_makespan(
        &self,
        keys: usize,
        probes_per_key: usize,
        queue_depth: usize,
    ) -> SimDuration {
        if keys == 0 || probes_per_key == 0 {
            return SimDuration::ZERO;
        }
        let lanes = self.lanes_at_depth(queue_depth);
        let slots = ((keys * probes_per_key).div_ceil(lanes)).max(probes_per_key);
        self.page_read_cost() * slots as u64
    }

    /// Predicted elapsed (makespan) flash time of `flushes` ring-admitted
    /// buffer flushes (each a single incarnation write costing
    /// `C1+C2+C3` for a buffer of `buffer_bytes`) at `queue_depth`:
    ///
    ///   `M_flush(f, d) = c_w · ⌈f / L⌉`
    ///
    /// Flush chains are single-write chains (chain length 1), so the
    /// level-schedule bound `max(1, ⌈f·1 / L⌉)` is just
    /// [`submit_makespan`](Self::submit_makespan) over the flush cost. What
    /// the ring buys the write path is overlap with probe traffic
    /// ([`mixed_ring_makespan`](Self::mixed_ring_makespan)), whose test
    /// checks this write phase against the simulator.
    ///
    /// ```
    /// use bufferhash::analysis::FlashCostModel;
    /// use flashsim::DeviceProfile;
    ///
    /// let model = FlashCostModel::from_profile(&DeviceProfile::intel_x18m());
    /// // 16 flushes of 32 KiB buffers over 8 lanes: two write slots.
    /// let ring = model.flush_ring_makespan(16, 32 << 10, 8);
    /// assert_eq!(ring, model.insert_worst_case(32 << 10) * 2);
    /// ```
    pub fn flush_ring_makespan(
        &self,
        flushes: usize,
        buffer_bytes: usize,
        queue_depth: usize,
    ) -> SimDuration {
        self.submit_makespan(flushes, self.insert_worst_case(buffer_bytes), queue_depth)
    }

    /// Predicted elapsed (makespan) flash time of a **mixed** ring stream:
    /// `flushes` buffer flushes admitted ahead of `keys` probe chains of
    /// `probes_per_key` page reads each, all sharing one completion ring
    /// at `queue_depth`. Writes are admitted first (data-effect order:
    /// reads of reclaimed slots must observe the written bytes), so the
    /// schedule is a write phase followed by a read phase:
    ///
    ///   `M_mixed = M_flush(f, d) + M_ring(n, w, d)`
    ///
    /// Matches the simulator **exactly** whenever the lane count divides
    /// the flush count (the write phase then ends with every lane equally
    /// busy, so the read phase starts from a flat frontier exactly as
    /// [`lookup_ring_makespan`](Self::lookup_ring_makespan) assumes);
    /// otherwise the read phase backfills the write phase's ragged tail
    /// and this expression is an upper bound. A unit test checks the
    /// identity at depths 1, 2 and 8.
    ///
    /// ```
    /// use bufferhash::analysis::FlashCostModel;
    /// use flashsim::DeviceProfile;
    ///
    /// let model = FlashCostModel::from_profile(&DeviceProfile::intel_x18m());
    /// let mixed = model.mixed_ring_makespan(48, 4, 8, 32 << 10, 8);
    /// assert_eq!(
    ///     mixed,
    ///     model.flush_ring_makespan(8, 32 << 10, 8)
    ///         + model.lookup_ring_makespan(48, 4, 8)
    /// );
    /// ```
    pub fn mixed_ring_makespan(
        &self,
        keys: usize,
        probes_per_key: usize,
        flushes: usize,
        buffer_bytes: usize,
        queue_depth: usize,
    ) -> SimDuration {
        self.flush_ring_makespan(flushes, buffer_bytes, queue_depth)
            + self.lookup_ring_makespan(keys, probes_per_key, queue_depth)
    }

    /// Predicted elapsed (makespan) time of a recovery scan
    /// ([`Clam::recover`](crate::Clam::recover)): `slots` slot reads of
    /// `slot_bytes` each, submitted to the completion ring in one call at
    /// `queue_depth`. Each read spans `⌈slot_bytes / S_p⌉` pages, so
    ///
    ///   `M_recover(s, d) = c_slot · ⌈s / L⌉`,  `c_slot = read(⌈B/S_p⌉·S_p)`
    ///
    /// with `L = min(d, max_queue_depth)` lanes (1 on serial media).
    /// Matches the simulator **exactly** on idle devices (slot reads are
    /// equal-cost and page-aligned); a unit test checks the identity at
    /// depths 1, 2 and 8, and `tests/kick_the_tires.rs` on power-cut
    /// images with torn writes.
    ///
    /// ```
    /// use bufferhash::analysis::FlashCostModel;
    /// use flashsim::DeviceProfile;
    ///
    /// let model = FlashCostModel::from_profile(&DeviceProfile::intel_x18m());
    /// // 256 slots of 32 KiB: 8 ring lanes retire the scan 8x faster.
    /// let serial = model.recovery_scan_makespan(256, 32 << 10, 1);
    /// let ringed = model.recovery_scan_makespan(256, 32 << 10, 8);
    /// assert_eq!(serial, ringed * 8);
    /// ```
    pub fn recovery_scan_makespan(
        &self,
        slots: usize,
        slot_bytes: usize,
        queue_depth: usize,
    ) -> SimDuration {
        let pages = slot_bytes.div_ceil(self.page_size);
        self.submit_makespan(slots, self.read.cost(pages * self.page_size), queue_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> FlashCostModel {
        FlashCostModel::from_profile(&DeviceProfile::flash_chip())
    }

    fn ssd() -> FlashCostModel {
        FlashCostModel::from_profile(&DeviceProfile::intel_x18m())
    }

    #[test]
    fn ssd_model_omits_erase_and_copy_terms() {
        let m = ssd();
        assert_eq!(m.flush_erase_cost(128 * 1024), SimDuration::ZERO);
        assert_eq!(m.flush_copy_cost(128 * 1024), SimDuration::ZERO);
        assert!(m.flush_write_cost(128 * 1024) > SimDuration::ZERO);
    }

    #[test]
    fn chip_insert_cost_is_minimised_near_the_block_size() {
        // Figure 4(a): on a raw chip, the amortized insert cost is lowest
        // when the buffer matches the erase-block size (128 KiB).
        let m = chip();
        let s_eff = 32;
        let at_block = m.insert_amortized(128 * 1024, s_eff);
        let smaller = m.insert_amortized(16 * 1024, s_eff);
        let larger_cost = m.insert_amortized(4 * 1024 * 1024, s_eff);
        assert!(at_block <= smaller, "block-sized buffer should beat smaller buffers");
        // Much larger buffers are no better than the block-sized one.
        assert!(at_block <= larger_cost * 2);
    }

    #[test]
    fn amortized_cost_is_inverse_in_buffer_size_for_ssds() {
        let m = ssd();
        let small = m.insert_amortized(32 * 1024, 32);
        let large = m.insert_amortized(1024 * 1024, 32);
        assert!(large < small, "larger buffers amortize better on SSDs");
    }

    #[test]
    fn worst_case_grows_with_buffer_size() {
        let m = ssd();
        assert!(m.insert_worst_case(1024 * 1024) > m.insert_worst_case(64 * 1024));
    }

    #[test]
    fn copy_cost_zero_when_buffer_is_block_multiple() {
        let m = chip();
        assert_eq!(m.flush_copy_cost(128 * 1024), SimDuration::ZERO);
        assert_eq!(m.flush_copy_cost(256 * 1024), SimDuration::ZERO);
        assert!(m.flush_copy_cost(96 * 1024) > SimDuration::ZERO);
    }

    #[test]
    fn lookup_overhead_shrinks_with_more_bloom_memory() {
        let m = ssd();
        let f = 32u64 << 30;
        let b = 2u64 << 30;
        let small = m.lookup_expected_overhead(f, b, 128 << 20, 32);
        let large = m.lookup_expected_overhead(f, b, 1 << 30, 32);
        let very_large = m.lookup_expected_overhead(f, b, 2 << 30, 32);
        assert!(large < small);
        // With ~1 GB of Bloom filters the overhead drops well below one page
        // read per lookup, and keeps shrinking with more memory (Figure 3).
        assert!(large < m.page_read_cost() / 2);
        assert!(very_large < m.page_read_cost() / 10);
    }

    #[test]
    fn batch_cost_shrinks_with_batch_size_and_saturates() {
        let m = ssd();
        let (buf, s_eff) = (32 * 1024, 32);
        let b1 = m.insert_batch_amortized(buf, s_eff, 1);
        let b8 = m.insert_batch_amortized(buf, s_eff, 8);
        let b64 = m.insert_batch_amortized(buf, s_eff, 64);
        let b4096 = m.insert_batch_amortized(buf, s_eff, 4096);
        assert_eq!(b1, crate::clam::BASE_OP_OVERHEAD + m.insert_amortized(buf, s_eff));
        assert!(b8 < b1 && b64 < b8 && b4096 <= b64);
        // The residual per-op overhead and the flash term bound the win.
        let floor = m.insert_amortized(buf, s_eff) + crate::clam::BATCHED_OP_OVERHEAD;
        assert!(b4096 >= floor);
    }

    #[test]
    fn model_predicts_at_least_2x_speedup_at_batch_64_on_ssd() {
        let m = ssd();
        let speedup = m.batch_insert_speedup(32 * 1024, 32, 64);
        assert!(speedup >= 2.0, "predicted speedup {speedup:.2} below 2x");
        // Batching is near-free to opt out of: batch size 1 is the per-op
        // path by definition.
        let unity = m.batch_insert_speedup(32 * 1024, 32, 1);
        assert!((unity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn queue_model_overlaps_on_intel_and_not_on_serial_media() {
        let m = ssd(); // Intel: overlapped, depth 8
        let c = SimDuration::from_micros(100);
        assert_eq!(m.lanes_at_depth(1), 1);
        assert_eq!(m.lanes_at_depth(4), 4);
        assert_eq!(m.lanes_at_depth(64), 8, "saturates at the device depth");
        assert_eq!(m.submit_makespan(16, c, 1), c * 16);
        assert_eq!(m.submit_makespan(16, c, 8), c * 2);
        assert_eq!(m.submit_makespan(16, c, 64), c * 2);
        assert_eq!(m.submit_makespan(0, c, 8), SimDuration::ZERO);

        let serial = chip();
        assert_eq!(serial.lanes_at_depth(8), 1);
        assert_eq!(serial.submit_makespan(16, c, 8), c * 16);

        // A degenerate zero-depth profile degrades to serial, not a panic.
        let degenerate = FlashCostModel::from_profile(&DeviceProfile {
            queue: flashsim::QueueCapabilities::overlapped(0),
            ..DeviceProfile::intel_x18m()
        });
        assert_eq!(degenerate.lanes_at_depth(4), 1);
    }

    #[test]
    fn queued_lookup_model_scales_with_depth_and_probe_count() {
        let m = ssd(); // overlapped, depth 8
        let c = m.page_read_cost();
        // 64 keys x 4 probes each: 256 page reads over the lanes.
        assert_eq!(m.lookup_ring_makespan(64, 4, 1), c * 256);
        assert_eq!(m.lookup_ring_makespan(64, 4, 8), c * 32);
        assert_eq!(m.lookup_ring_makespan(64, 4, 64), c * 32, "saturates at device depth");
        assert_eq!(m.lookup_ring_makespan(64, 8, 8), c * 64, "linear in the probe count");
        // Serial media get no overlap: the chip retires one read at a time
        // regardless of the requested depth.
        let serial = chip();
        assert_eq!(serial.lookup_ring_makespan(16, 2, 8), serial.page_read_cost() * 32);
        assert_eq!(serial.lookup_ring_makespan(16, 2, 1), serial.lookup_ring_makespan(16, 2, 8));
    }

    #[test]
    fn ring_makespan_is_work_over_lanes_floored_by_the_chain() {
        let m = ssd(); // overlapped, depth 8
        let c = m.page_read_cost();
        assert_eq!(m.lookup_ring_makespan(64, 4, 8), c * 32);
        // Lanes need not divide the keys: the chains pack the tail.
        assert_eq!(m.lookup_ring_makespan(60, 4, 8), c * 30);
        // Chain floor: fewer keys than lanes are bound by their own chain.
        assert_eq!(m.lookup_ring_makespan(2, 4, 8), c * 4);
        // Serial media and empty batches degrade gracefully.
        let serial = chip();
        assert_eq!(serial.lookup_ring_makespan(16, 2, 8), serial.page_read_cost() * 32);
        assert_eq!(m.lookup_ring_makespan(0, 4, 8), SimDuration::ZERO);
        assert_eq!(m.lookup_ring_makespan(64, 0, 8), SimDuration::ZERO);
        // A degenerate zero-depth profile degrades to serial, no panic.
        let degenerate = FlashCostModel::from_profile(&DeviceProfile {
            queue: flashsim::QueueCapabilities::overlapped(0),
            ..DeviceProfile::intel_x18m()
        });
        assert_eq!(degenerate.lookup_ring_makespan(4, 2, 8), degenerate.page_read_cost() * 8);
    }

    #[test]
    fn flush_and_mixed_ring_makespans_compose_the_phase_bounds() {
        let m = ssd(); // overlapped, depth 8
        let w = m.insert_worst_case(32 << 10);
        // Single-write chains: flushes over lanes, rounded up.
        assert_eq!(m.flush_ring_makespan(16, 32 << 10, 8), w * 2);
        assert_eq!(
            m.flush_ring_makespan(8, 32 << 10, 1),
            m.flush_ring_makespan(8, 32 << 10, 8) * 8
        );
        assert_eq!(m.flush_ring_makespan(0, 32 << 10, 8), SimDuration::ZERO);
        // Serial media pay the full sum.
        let serial = chip();
        assert_eq!(
            serial.flush_ring_makespan(3, 32 << 10, 8),
            serial.insert_worst_case(32 << 10) * 3
        );
        // The mixed stream is a write phase followed by a read phase.
        assert_eq!(
            m.mixed_ring_makespan(60, 4, 8, 32 << 10, 8),
            m.flush_ring_makespan(8, 32 << 10, 8) + m.lookup_ring_makespan(60, 4, 8)
        );
        assert_eq!(m.mixed_ring_makespan(0, 0, 0, 32 << 10, 8), SimDuration::ZERO);
        // A degenerate zero-depth profile degrades to serial, no panic.
        let degenerate = FlashCostModel::from_profile(&DeviceProfile {
            queue: flashsim::QueueCapabilities::overlapped(0),
            ..DeviceProfile::intel_x18m()
        });
        assert_eq!(degenerate.flush_ring_makespan(4, 32 << 10, 8), w * 4);
    }

    /// Drives the mixed write-then-read stream through the SSD simulator's
    /// ring (`Device::submit`, re-arming each probe chain from its
    /// previous completion like the lookup pipeline does) and checks
    /// `mixed_ring_makespan` against the ring's actual makespan — **exact**
    /// at every depth with the lane count dividing the flush count.
    #[test]
    fn mixed_ring_makespan_matches_the_simulator_exactly() {
        use flashsim::{CompletionRing, Device, IoRequest, RingRequest, Ssd};

        let m = ssd();
        let buffer: usize = 32 << 10;
        let (flushes, keys, probes) = (8usize, 48usize, 4usize);
        for depth in [1usize, 2, 8] {
            let mut dev = Ssd::intel(64 << 20).unwrap();
            let page = dev.profile().page_size as usize;
            let mut ring = CompletionRing::new(m.lanes_at_depth(depth));
            // Write phase: `flushes` incarnation-sized writes to disjoint
            // log slots, in one submission.
            let writes: Vec<RingRequest> = (0..flushes)
                .map(|i| {
                    RingRequest::new(IoRequest::write((i * buffer) as u64, vec![0xAA; buffer]))
                })
                .collect();
            dev.submit(writes, &mut ring).unwrap();
            // Read phase: `keys` chains of `probes` page reads, each chain
            // re-armed from its previous read's completion, a wave a round.
            let read_base = (flushes * buffer) as u64;
            let mut wave: Vec<RingRequest> = (0..keys)
                .map(|i| RingRequest::new(IoRequest::read(read_base + (i * page) as u64, page)))
                .collect();
            for _ in 0..probes {
                let done = dev.submit(wave, &mut ring).unwrap();
                wave = done
                    .iter()
                    .map(|c| RingRequest::after(IoRequest::read(read_base, page), c.completed_at))
                    .collect();
            }
            assert_eq!(
                ring.makespan(),
                m.mixed_ring_makespan(keys, probes, flushes, buffer, depth),
                "model drifts from the simulator at depth {depth}"
            );
        }
    }

    /// Runs real recovery scans ([`Clam::recover`]) and checks the
    /// reported ring makespan against `recovery_scan_makespan` — exact on
    /// an overlapped SSD at queue depths 1, 2 and 8 (after a full
    /// workload) and on a serial raw chip.
    #[test]
    fn recovery_scan_makespan_matches_the_simulator_exactly() {
        use crate::clam::Clam;
        use crate::config::ClamConfig;
        use crate::types::hash_with_seed;
        use flashsim::{Device, FlashChip, QueueCapabilities, Ssd};

        // SSD: 8 MiB flash in 256 slots of 32 KiB.
        let cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
        for depth in [1usize, 2, 8] {
            let profile = DeviceProfile {
                queue: QueueCapabilities::overlapped(depth),
                ..DeviceProfile::intel_x18m()
            };
            let ssd = Ssd::with_profile(8 << 20, profile.clone()).unwrap();
            let mut clam = Clam::new(ssd, cfg.clone()).unwrap();
            for i in 0..40_000u64 {
                clam.insert(hash_with_seed(i, 1), i).unwrap();
            }
            clam.flush_all().unwrap();
            let (_, report) = Clam::recover(clam.into_device(), cfg.clone()).unwrap();
            assert_eq!(
                report.scan_makespan,
                FlashCostModel::from_profile(&profile).recovery_scan_makespan(256, 32 << 10, depth),
                "SSD recovery scan drifts from the model at depth {depth}: {report}"
            );
        }

        // Raw chip: serial queue, so the scan is the summed slot reads.
        let chip = FlashChip::new(1 << 20).unwrap();
        let m = FlashCostModel::from_profile(chip.profile());
        let cfg = ClamConfig::small_test(1 << 20, 256 << 10).unwrap();
        let (_, report) = Clam::recover(chip, cfg).unwrap();
        assert_eq!(report.slots_scanned, 32);
        assert_eq!(
            report.scan_makespan,
            m.recovery_scan_makespan(32, 32 << 10, 1),
            "chip recovery scan drifts from the model: {report}"
        );
    }

    /// One super table, distinct keys, twelve incarnations: through one
    /// more fill cycle, every flushed key is looked up and the ones
    /// answered from slot copies, in incarnations' worth, compared with
    /// `(1 − j/S)/u` at each sample and with `(1 − u/2)/u` over the cycle.
    #[test]
    fn slot_resident_generations_match_a_measured_fill_cycle() {
        use crate::clam::{Clam, LookupSource};
        use crate::config::ClamConfig;
        use crate::types::{hash_with_seed, Key};
        use flashsim::Ssd;

        const GENERATIONS: usize = 12;
        let cfg = ClamConfig {
            buffer_bytes_total: 32 << 10,
            ..ClamConfig::small_test(8 << 20, 1 << 20).unwrap()
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.num_super_tables(), 1);
        assert!(cfg.incarnations_per_table() > GENERATIONS);
        let (slots, capacity) = (2 * cfg.entries_per_incarnation(), cfg.entries_per_incarnation());
        let u = cfg.max_buffer_utilization;
        let mut clam = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg.clone()).unwrap();
        let key = |i: usize| hash_with_seed(i as u64, 0x5e72);
        for i in 0..GENERATIONS * capacity + 1 {
            clam.insert(key(i), i as u64).unwrap();
        }
        assert_eq!(clam.stats().flushes, GENERATIONS as u64);
        let flushed: Vec<Key> = (0..GENERATIONS * capacity).map(key).collect();
        let (mut resident, mut samples) = (0.0, 0);
        for j in 1..=capacity {
            if j % 128 == 0 {
                let hits: usize = flushed
                    .chunks(1024)
                    .map(|chunk| {
                        let batch = clam.lookup_batch(chunk).unwrap();
                        batch.outcomes.iter().filter(|o| o.source == LookupSource::Retired).count()
                    })
                    .sum();
                let measured = hits as f64 / capacity as f64;
                let model = FlashCostModel::retired_survival(j, slots) / u;
                assert!((measured / model - 1.0).abs() < 0.05, "after {j}: {measured} vs {model}");
                resident += measured;
                samples += 1;
            }
            if j < capacity {
                clam.insert(key(GENERATIONS * capacity + j), 0).unwrap();
            }
        }
        assert_eq!(clam.stats().flushes, GENERATIONS as u64, "no flush inside the cycle");
        // The samples sit at j = 128, 256, …, the cycle's second half
        // weighted as its first; the model's mean at the same points.
        let points = (1..=samples).map(|s| FlashCostModel::retired_survival(128 * s, slots) / u);
        let model_mean = points.sum::<f64>() / samples as f64;
        let measured_mean = resident / samples as f64;
        assert!((measured_mean / model_mean - 1.0).abs() < 0.05, "{measured_mean} vs {model_mean}");
        let closed = FlashCostModel::slot_resident_generations(u);
        assert!((closed - 1.5).abs() < 1e-12 && (model_mean / closed - 1.0).abs() < 0.05);
    }

    /// One super table, distinct keys: through one fill cycle, every key
    /// of the youngest incarnation is looked up and the share answered
    /// from the retired generation compared with `1 − j/S`; over the whole
    /// cycle, with `1 − u/2`.
    #[test]
    fn retired_survival_matches_a_measured_fill_cycle() {
        use crate::clam::{Clam, LookupSource};
        use crate::config::ClamConfig;
        use crate::types::hash_with_seed;
        use flashsim::Ssd;

        let cfg = ClamConfig {
            buffer_bytes_total: 32 << 10,
            ..ClamConfig::small_test(8 << 20, 1 << 20).unwrap()
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.num_super_tables(), 1);
        let (slots, capacity) = (2 * cfg.entries_per_incarnation(), cfg.entries_per_incarnation());
        let mut clam = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg.clone()).unwrap();
        let key = |i: usize| hash_with_seed(i as u64, 0x5e71);
        // Two generations, so the measured cycle refills slots that hold
        // stale entries of an older one as well.
        for i in 0..2 * capacity + 1 {
            clam.insert(key(i), i as u64).unwrap();
        }
        assert_eq!(clam.stats().flushes, 2);
        let youngest = capacity..2 * capacity;
        let (mut hits, mut lookups) = (0usize, 0usize);
        // That last insert is the cycle's first; sample every sixteenth.
        for j in 1..=capacity {
            if j % 16 == 0 {
                let retired = youngest
                    .clone()
                    .filter(|&i| clam.lookup(key(i)).unwrap().source == LookupSource::Retired)
                    .count();
                let (measured, model) =
                    (retired as f64 / capacity as f64, FlashCostModel::retired_survival(j, slots));
                assert!((measured - model).abs() < 0.05, "after {j}: {measured} vs {model}");
                hits += retired;
                lookups += capacity;
            }
            if j < capacity {
                clam.insert(key(2 * capacity + j), 0).unwrap();
            }
        }
        assert_eq!(clam.stats().flushes, 2, "one fill cycle, no flush inside it");
        let (measured, model) = (
            hits as f64 / lookups as f64,
            FlashCostModel::mean_retired_survival(cfg.max_buffer_utilization),
        );
        assert!((measured / model - 1.0).abs() < 0.05, "cycle mean {measured} vs {model}");
        assert_eq!(clam.stats().lookups_by_source[LookupSource::Retired as usize], hits as u64);
    }
}
