//! Ring plumbing: the completion ring one top-level call shares between
//! its reads and its writes.

use super::*;

impl<D: Device> Clam<D> {
    // ------------------------------------------------------------------
    // The call's shared completion ring
    // ------------------------------------------------------------------

    /// Lazily opens the current top-level call's shared ring, sized to the
    /// device's queue (one lane on serial devices, `max_queue_depth` lanes
    /// on overlapped ones).
    pub(super) fn ensure_ring(&mut self) {
        if self.ring.is_none() {
            self.ring = Some(CompletionRing::for_queue(self.device.queue()));
        }
    }

    /// Admits write-path requests into the call's shared ring without
    /// waiting ([`Device::submit_nowait`](flashsim::Device::submit_nowait)),
    /// opening the ring if this is the call's first admission.
    pub(super) fn ring_admit(&mut self, requests: Vec<RingRequest>) -> Result<Vec<IoTicket>> {
        for r in &requests {
            if matches!(r.request, IoRequest::Read { .. }) {
                self.ring_read = true;
            } else {
                self.ring_wrote = true;
            }
        }
        self.ensure_ring();
        let mut ring = self.ring.take().expect("ring just ensured");
        let tickets = self.device.submit_nowait(requests, &mut ring);
        self.ring = Some(ring);
        Ok(tickets?)
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
        let Some(mut ring) = self.ring.take() else {
            return Ok((SimDuration::ZERO, Vec::new()));
        };
        let mut completions: Vec<RingCompletion> = Vec::new();
        let mut failure: Option<BufferHashError> = None;
        while ring.in_flight() > 0 {
            match self.device.reap(&mut ring, 1) {
                Ok(reaped) => completions.extend(reaped),
                Err(e) => {
                    failure = Some(e.into());
                    break;
                }
            }
        }
        let (reaps_seen, stalls_seen) = self.ring_read_marks;
        self.stats.flush_ring_reaps += ring.reaps() - reaps_seen;
        self.stats.write_ring_admission_stalls += ring.admission_stalls() - stalls_seen;
        self.ring_read_marks = (ring.reaps(), ring.admission_stalls());
        if self.ring_wrote && self.ring_read {
            // The ring carried reads *and* writes this call: record how
            // deep the mixed stream stacked the lanes.
            self.stats.mixed_ring_depth_high_water =
                self.stats.mixed_ring_depth_high_water.max(ring.depth_high_water() as u64);
        }
        let makespan = ring.makespan();
        let charged = makespan - self.ring_horizon;
        self.ring_horizon = makespan;
        self.ring = Some(ring);
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

    /// Closes the call's shared ring: syncs it, resets the per-call ring
    /// state, and returns the final makespan growth. A no-op returning
    /// zero when no ring was opened.
    pub(super) fn finish_ring(&mut self) -> Result<SimDuration> {
        if self.ring.is_none() {
            return Ok(SimDuration::ZERO);
        }
        let synced = self.sync_ring();
        self.ring = None;
        self.ring_horizon = SimDuration::ZERO;
        self.ring_read_marks = (0, 0);
        self.ring_wrote = false;
        self.ring_read = false;
        synced.map(|(charged, _)| charged)
    }
}
