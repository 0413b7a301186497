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
    /// Ring `(reaps, admission stalls)` already attributed to the lookup
    /// ledger; the write-ring ledger takes the deltas beyond these marks.
    pub(super) read_marks: (u64, u64),
    /// Whether the ring carried write-path traffic (writes, erases, trims)
    /// / read traffic, for the mixed-ring depth ledger.
    pub(super) wrote: bool,
    /// See [`wrote`](Self::wrote).
    pub(super) read: bool,
}

impl<D: Device> Clam<D> {
    /// Admits requests into the call's shared ring without waiting
    /// ([`Device::submit_nowait`](flashsim::Device::submit_nowait)),
    /// opening the ring, sized to the device's queue, if this is the
    /// call's first admission.
    pub(super) fn ring_admit(&mut self, requests: Vec<RingRequest>) -> Result<Vec<IoTicket>> {
        for r in &requests {
            if matches!(r.request, IoRequest::Read { .. }) {
                self.call.read = true;
            } else {
                self.call.wrote = true;
            }
        }
        let ring =
            self.call.ring.get_or_insert_with(|| CompletionRing::for_queue(self.device.queue()));
        Ok(self.device.submit_nowait(requests, ring)?)
    }

    /// Reaps every in-flight request of the shared ring, records the
    /// write-ring ledger (reaps and stalls beyond the lookup pipeline's
    /// marks belong to the flush/eviction side), and returns the
    /// completions in ticket order together with the ring's **makespan
    /// growth** since the last charge, propagating the first per-request
    /// failure. The ring stays open: later admissions land on the same
    /// device timeline, which is what lets flush traffic overlap the tail
    /// of earlier probe or write traffic instead of restarting the clock.
    pub(super) fn sync_ring(&mut self) -> Result<(SimDuration, Vec<RingCompletion>)> {
        let Some(ring) = self.call.ring.as_mut() else {
            return Ok((SimDuration::ZERO, Vec::new()));
        };
        let mut completions: Vec<RingCompletion> = Vec::new();
        let mut failure: Option<BufferHashError> = None;
        while ring.in_flight() > 0 {
            match self.device.reap(ring, 1) {
                Ok(reaped) => completions.extend(reaped),
                Err(e) => {
                    failure = Some(e.into());
                    break;
                }
            }
        }
        let (reaps_seen, stalls_seen) = self.call.read_marks;
        self.stats.flush_ring_reaps += ring.reaps() - reaps_seen;
        self.stats.write_ring_admission_stalls += ring.admission_stalls() - stalls_seen;
        self.call.read_marks = (ring.reaps(), ring.admission_stalls());
        if self.call.wrote && self.call.read {
            // The ring carried reads *and* writes this call: record how
            // deep the mixed stream stacked the lanes.
            self.stats.mixed_ring_depth_high_water =
                self.stats.mixed_ring_depth_high_water.max(ring.depth_high_water() as u64);
        }
        let makespan = ring.makespan();
        let charged = makespan - self.call.horizon;
        self.call.horizon = makespan;
        completions.sort_by_key(|c| c.ticket);
        let failure = failure.or_else(|| {
            completions.iter().find_map(|c| c.result.as_ref().err()).map(|e| e.clone().into())
        });
        if let Some(e) = failure {
            // The request that failed may be the write of an incarnation
            // already registered: no slot copy may go on vouching for
            // bytes the device might not hold.
            self.tables.iter_mut().for_each(SuperTable::forget_slot_copies);
            return Err(e);
        }
        Ok((charged, completions))
    }

    /// Closes the call's shared ring: syncs it, restores
    /// `Call::default()`, and returns the final makespan growth (zero
    /// when no ring was opened).
    pub(super) fn finish_ring(&mut self) -> Result<SimDuration> {
        let synced = self.sync_ring();
        self.call = Call::default();
        synced.map(|(charged, _)| charged)
    }
}
