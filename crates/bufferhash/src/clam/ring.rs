//! Ring plumbing: the completion ring one top-level call shares between
//! its reads and its writes, and the rest of that call's state.

use super::*;

/// The state of one top-level call: its write window and its shared
/// completion ring. It is `Call::default()` between calls; closing the
/// ring ([`Clam::finish_ring`]) restores that default.
#[derive(Default)]
pub(super) struct Call {
    /// True inside [`Clam::write_window`]: flush writes coalesce into
    /// [`pending_run`](Self::pending_run) instead of entering the ring
    /// one by one.
    pub(super) coalescing: bool,
    /// The incarnation writes deferred for coalescing: the *current*
    /// contiguous run, as its offset and bytes (a non-contiguous write
    /// admits the finished run to the ring first, so flush traffic
    /// streams).
    pub(super) pending_run: Option<(u64, Vec<u8>)>,
    /// The shared read/write completion ring (`None` until the call's
    /// first admission): lookup probes, flush writes, eviction reads and
    /// trims all admit into it, so write traffic overlaps the tail of
    /// probe traffic (and vice versa) on one device timeline.
    pub(super) ring: Option<CompletionRing>,
    /// Ring makespan already charged to some caller; the next sync charges
    /// only the growth beyond this horizon.
    pub(super) horizon: SimDuration,
    /// The first write-path request since the last sync that failed, in
    /// submission order; the sync surfaces it.
    pub(super) failure: Option<BufferHashError>,
    /// Whether the ring carried write-path traffic (writes, erases, trims)
    /// / read traffic, for the mixed-ring depth ledger.
    pub(super) wrote: bool,
    /// See [`wrote`](Self::wrote).
    pub(super) read: bool,
}

impl<D: Device> Clam<D> {
    /// Submits write-path requests on the call's shared ring, opening the
    /// ring, sized to the device's queue, if this is the call's first
    /// submission, and returns their completions. The write-ring ledger
    /// counts them here; a failed request is kept for the next sync
    /// ([`sync_ring`](Self::sync_ring)) to surface.
    pub(super) fn ring_admit(&mut self, requests: Vec<RingRequest>) -> Result<Vec<RingCompletion>> {
        for r in &requests {
            if matches!(r.request, IoRequest::Read { .. }) {
                self.call.read = true;
            } else {
                self.call.wrote = true;
            }
        }
        let ring =
            self.call.ring.get_or_insert_with(|| CompletionRing::for_queue(self.device.queue()));
        let done = self.device.submit(requests, ring)?;
        self.stats.flush_ring_reaps += done.len() as u64;
        self.stats.write_ring_admission_stalls += done.iter().filter(|c| c.stalled).count() as u64;
        if self.call.failure.is_none() {
            let failed = done.iter().filter(|c| c.result.is_err()).min_by_key(|c| c.index);
            self.call.failure = failed.and_then(|c| c.result.clone().err()).map(Into::into);
        }
        Ok(done)
    }

    /// The call's sync point: everything submitted since the last one has
    /// finished, so it leaves the ring's in-flight count; records the
    /// mixed-ring depth ledger and returns the ring's **makespan growth**
    /// since the last charge. The first request that failed since the last
    /// sync fails the call here. The ring stays open: later submissions
    /// land on the same device timeline, which is what lets flush traffic
    /// overlap the tail of earlier probe or write traffic instead of
    /// restarting the clock.
    pub(super) fn sync_ring(&mut self) -> Result<SimDuration> {
        let Some(ring) = self.call.ring.as_mut() else {
            return Ok(SimDuration::ZERO);
        };
        ring.sync();
        if self.call.wrote && self.call.read {
            // The ring carried reads *and* writes this call: record how
            // deep the mixed stream stacked the lanes.
            self.stats.mixed_ring_depth_high_water =
                self.stats.mixed_ring_depth_high_water.max(ring.depth_high_water() as u64);
        }
        let makespan = ring.makespan();
        let charged = makespan - self.call.horizon;
        self.call.horizon = makespan;
        if let Some(e) = self.call.failure.take() {
            // The request that failed may be the write of an incarnation
            // already registered: no slot copy may go on vouching for
            // bytes the device might not hold.
            self.tables.iter_mut().for_each(SuperTable::forget_slot_copies);
            return Err(e);
        }
        Ok(charged)
    }

    /// Closes the call's shared ring: syncs it, restores
    /// `Call::default()`, and returns the final makespan growth (zero
    /// when no ring was opened).
    pub(super) fn finish_ring(&mut self) -> Result<SimDuration> {
        let synced = self.sync_ring();
        self.call = Call::default();
        synced
    }
}
