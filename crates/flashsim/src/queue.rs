//! The device ring: io_uring-style queued I/O for the [`Device`](crate::Device) boundary.
//!
//! The paper's media reward batched, sequential, page-granular I/O, and real
//! deployments drive them through explicit device queues (NCQ on SATA,
//! submission rings on NVMe/io_uring) rather than one blocking call at a
//! time. This module is the one engine for that style of access:
//!
//! * [`IoRequest`] — one read/write/erase/trim command;
//! * [`QueueCapabilities`] / [`OverlapModel`] — how many requests a device
//!   keeps in flight and whether they overlap in time;
//! * [`CompletionRing`] / [`IoTicket`] / [`RingRequest`] /
//!   [`RingCompletion`] — requests are admitted to a caller-owned ring
//!   without waiting, tracked in flight with per-request completion
//!   timestamps, and reaped as they retire
//!   ([`Device::submit_nowait`](crate::Device::submit_nowait) /
//!   [`Device::reap`](crate::Device::reap)).
//!
//! ## Ordering and overlap guarantees
//!
//! **Admission order is data-effect order.** Every backend applies the
//! data effects of a ring stream in the order the requests were admitted,
//! so the stream is observationally equivalent (final device bytes,
//! per-ticket results) to issuing the same operations one at a time
//! through the per-op methods. What the ring models is the *timing*: an
//! overlapped queue runs independent requests on parallel lanes, a serial
//! one retires them back to back, on every backend from the latency each
//! request reported (measured, on the file backend). Per-request
//! [`RingCompletion::latency`] values are unchanged by overlapping; the
//! win shows up in [`CompletionRing::makespan`], the latest completion
//! timestamp instead of the sum over requests.
//!
//! The ring also writes the queue ledger of [`IoStats`] — the only place
//! that does ([`CompletionRing::record_admission`],
//! [`CompletionRing::reap_recorded`]); a backend contributes its per-op
//! methods and its counters, nothing ring-shaped.

use serde::{Deserialize, Serialize};

use crate::error::Result;
use crate::stats::IoStats;
use crate::time::SimDuration;

/// One queued command.
///
/// Requests are self-contained (reads carry a length, not a caller buffer)
/// so they can be queued and completed out of band; read data comes back in
/// the matching [`RingCompletion`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoRequest {
    /// Read `len` bytes starting at byte `offset`.
    Read {
        /// Byte offset of the first byte to read.
        offset: u64,
        /// Number of bytes to read.
        len: usize,
    },
    /// Write `data` starting at byte `offset`.
    Write {
        /// Byte offset of the first byte to write.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Erase the erase block with index `block` (raw flash chips).
    Erase {
        /// Erase-block index.
        block: u64,
    },
    /// Declare `[offset, offset + len)` no longer live (a TRIM hint).
    Trim {
        /// Byte offset of the start of the trimmed range.
        offset: u64,
        /// Length of the trimmed range in bytes.
        len: u64,
    },
}

impl IoRequest {
    /// Convenience constructor for a read request.
    pub fn read(offset: u64, len: usize) -> Self {
        IoRequest::Read { offset, len }
    }

    /// Convenience constructor for a write request.
    pub fn write(offset: u64, data: Vec<u8>) -> Self {
        IoRequest::Write { offset, data }
    }

    /// The byte range this request touches, if it addresses bytes directly
    /// (`None` for erases, whose extent is block-size dependent). Used by
    /// backends that overlap requests to keep conflicting ones ordered.
    pub fn byte_range(&self) -> Option<(u64, u64)> {
        match self {
            IoRequest::Read { offset, len } => Some((*offset, *offset + *len as u64)),
            IoRequest::Write { offset, data } => Some((*offset, *offset + data.len() as u64)),
            IoRequest::Trim { offset, len } => Some((*offset, *offset + *len)),
            IoRequest::Erase { .. } => None,
        }
    }
}

/// How concurrent requests in a queue share the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverlapModel {
    /// One request at a time: elapsed time is the sum of the per-request
    /// latencies.
    Serial,
    /// Up to [`QueueCapabilities::max_queue_depth`] requests proceed
    /// concurrently on independent lanes; elapsed time is the makespan of
    /// the lane schedule.
    Overlapped,
}

/// A device's submission-queue shape: how deep its queue is and whether
/// queued requests overlap in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueCapabilities {
    /// Queue depth: how many requests the device keeps in flight at once
    /// (the lane count for [`OverlapModel::Overlapped`]).
    pub max_queue_depth: usize,
    /// Whether queued requests overlap in time.
    pub overlap: OverlapModel,
}

impl QueueCapabilities {
    /// A strictly serial device with no useful queue (depth 1).
    pub const fn serial() -> Self {
        QueueCapabilities { max_queue_depth: 1, overlap: OverlapModel::Serial }
    }

    /// A device that overlaps up to `depth` requests.
    pub const fn overlapped(depth: usize) -> Self {
        QueueCapabilities { max_queue_depth: depth, overlap: OverlapModel::Overlapped }
    }

    /// Number of lanes a [`CompletionRing`] on this queue accounts overlap
    /// with: 1 for serial devices, otherwise the full queue depth (the ring
    /// serves a stream of admissions, so there is no batch size to cap by).
    /// Never zero — a degenerate zero-depth profile degrades to serial.
    pub fn ring_lanes(&self) -> usize {
        match self.overlap {
            OverlapModel::Serial => 1,
            OverlapModel::Overlapped => self.max_queue_depth.max(1),
        }
    }
}

/// Handle to one request admitted to a [`CompletionRing`].
///
/// Tickets are sequential per ring (the first admission is ticket 0), so
/// callers can use [`id`](Self::id) as an index into per-request state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IoTicket(u64);

impl IoTicket {
    /// The ticket's sequence number within its ring (0-based).
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// One request for submit-without-wait admission
/// ([`Device::submit_nowait`](crate::Device::submit_nowait)), carrying its
/// causal floor: the earliest device-clock time it may start.
#[derive(Debug, Clone)]
pub struct RingRequest {
    /// The command to execute.
    pub request: IoRequest,
    /// Earliest device-clock time the request may start. A probe pipeline
    /// sets this to the [`RingCompletion::completed_at`] of the read whose
    /// data produced this request, so chained reads never overlap their own
    /// causes — only *independent* requests do.
    pub not_before: SimDuration,
}

impl RingRequest {
    /// A request with no causal floor (may start immediately).
    pub fn new(request: IoRequest) -> Self {
        RingRequest { request, not_before: SimDuration::ZERO }
    }

    /// A request that may not start before `not_before` on the device
    /// clock (typically the completion time of the read it depends on).
    pub fn after(request: IoRequest, not_before: SimDuration) -> Self {
        RingRequest { request, not_before }
    }
}

/// Completion record for one ring request, delivered by
/// [`Device::reap`](crate::Device::reap).
#[derive(Debug, Clone)]
pub struct RingCompletion {
    /// Ticket returned by the admission.
    pub ticket: IoTicket,
    /// Queue lane the request was accounted on (lane 0 is the busiest
    /// timeline; requests on other lanes overlapped lane-0 work).
    pub lane: usize,
    /// Device-busy latency of this request alone (simulated, or measured
    /// for [`FileDevice`](crate::FileDevice)).
    pub latency: SimDuration,
    /// Device-clock time at which the request started executing.
    pub started_at: SimDuration,
    /// Device-clock time at which the request finished. Feed this into
    /// [`RingRequest::after`] for work that depends on this completion.
    pub completed_at: SimDuration,
    /// The bytes read (empty for non-reads) or the per-request error.
    pub result: Result<Vec<u8>>,
}

/// One admitted-but-unfinished ring request: `(ticket, byte range,
/// is_read, causal floor)`.
type PendingAdmission = (IoTicket, Option<(u64, u64)>, bool, SimDuration);

/// In-flight bookkeeping for submit-without-wait I/O: an io_uring-style
/// completion ring owned by the *caller* and registered with a device call
/// by call ([`Device::submit_nowait`](crate::Device::submit_nowait) admits
/// into it, [`Device::reap`](crate::Device::reap) drains it).
///
/// The ring does the timing model shared by every backend: each finished
/// request is placed on the earliest-free queue lane (free-at clocks, one
/// lane per queue slot), subject to two floors — its
/// [`RingRequest::not_before`] causal floor, and a **conflict floor** that
/// keeps overlapping ranges in admission order (a request that conflicts
/// with an earlier in-flight range starts no earlier than that range
/// retires; read-read overlap is exempt, mirroring
/// [`ranges_conflict`]). Data effects are applied by the device in
/// admission order regardless, so the invariant *admission order =
/// data-effect order* holds on every backend; the conflict floor makes the
/// reported timing honest about it.
///
/// The ring also keeps the ledger the stats layers surface — in-flight
/// depth high-water mark, reap count, and admission stalls (requests whose
/// start was delayed by a conflict floor beyond lane availability) — and
/// is the one writer of a device's queue counters:
/// [`record_admission`](Self::record_admission) after a
/// [`Device::submit_nowait`](crate::Device::submit_nowait),
/// [`reap_recorded`](Self::reap_recorded) inside a
/// [`Device::reap`](crate::Device::reap).
#[derive(Debug)]
pub struct CompletionRing {
    /// Free-at clock per queue lane.
    lanes: Vec<SimDuration>,
    /// Retired ranges that can still delay later conflicting admissions:
    /// `(start, end, is_read, completes_at)`.
    ranges: Vec<(u64, u64, bool, SimDuration)>,
    /// Admitted but not yet finished.
    pending: Vec<PendingAdmission>,
    /// Finished but not yet reaped, sorted by `(completed_at, ticket)`.
    ready: Vec<RingCompletion>,
    next_ticket: u64,
    reaped: u64,
    in_flight: usize,
    depth_high_water: usize,
    admission_stalls: u64,
    /// How many of `admission_stalls` a device's [`IoStats`] already holds.
    stalls_recorded: u64,
    makespan: SimDuration,
}

impl CompletionRing {
    /// Creates a ring that accounts overlap on `lanes` queue lanes (at
    /// least one; a zero or serial queue degrades to a single lane rather
    /// than panicking).
    pub fn new(lanes: usize) -> Self {
        CompletionRing {
            lanes: vec![SimDuration::ZERO; lanes.max(1)],
            ranges: Vec::new(),
            pending: Vec::new(),
            ready: Vec::new(),
            next_ticket: 0,
            reaped: 0,
            in_flight: 0,
            depth_high_water: 0,
            admission_stalls: 0,
            stalls_recorded: 0,
            makespan: SimDuration::ZERO,
        }
    }

    /// Creates a ring sized for a device's queue shape
    /// ([`QueueCapabilities::ring_lanes`]).
    pub fn for_queue(queue: QueueCapabilities) -> Self {
        CompletionRing::new(queue.ring_lanes())
    }

    /// Admits one request, registering its byte range and causal floor.
    /// The request is *in flight* until the completion produced by
    /// [`finish`](Self::finish) is reaped.
    pub fn admit(&mut self, request: &IoRequest, not_before: SimDuration) -> IoTicket {
        let ticket = IoTicket(self.next_ticket);
        self.next_ticket += 1;
        let is_read = matches!(request, IoRequest::Read { .. });
        self.pending.push((ticket, request.byte_range(), is_read, not_before));
        self.in_flight += 1;
        self.depth_high_water = self.depth_high_water.max(self.in_flight);
        ticket
    }

    /// Finishes an admitted request: schedules it on the earliest-free
    /// lane no earlier than its causal and conflict floors, stamps its
    /// completion time, and queues the completion for
    /// [`reap`](Self::reap). Panics if the ticket was not admitted to this
    /// ring (or already finished).
    pub fn finish(&mut self, ticket: IoTicket, latency: SimDuration, result: Result<Vec<u8>>) {
        let slot = self
            .pending
            .iter()
            .position(|(t, ..)| *t == ticket)
            .expect("finish of a ticket this ring admitted");
        let (_, range, is_read, not_before) = self.pending.swap_remove(slot);
        let conflict_floor = range
            .filter(|(start, end)| end > start)
            .map(|(start, end)| {
                self.ranges
                    .iter()
                    .filter(|&&(s, e, prior_read, _)| {
                        ranges_conflict((start, end, is_read), (s, e, prior_read))
                    })
                    .map(|&(_, _, _, completes)| completes)
                    .fold(SimDuration::ZERO, SimDuration::max)
            })
            .unwrap_or(SimDuration::ZERO);
        let lane = self
            .lanes
            .iter()
            .enumerate()
            .min_by_key(|(_, free)| **free)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let lane_free = self.lanes[lane];
        if conflict_floor > lane_free.max(not_before) {
            self.admission_stalls += 1;
        }
        let started_at = lane_free.max(not_before).max(conflict_floor);
        let completed_at = started_at + latency;
        self.lanes[lane] = completed_at;
        self.makespan = self.makespan.max(completed_at);
        if let Some((start, end)) = range {
            if end > start && result.is_ok() {
                self.ranges.push((start, end, is_read, completed_at));
            }
        }
        // Ranges that retire before every lane's free-at clock can no
        // longer delay any future admission (a future start is at least
        // the minimum free-at), so they are safe to prune.
        let horizon =
            self.lanes.iter().copied().fold(SimDuration::from_nanos(u64::MAX), SimDuration::min);
        self.ranges.retain(|&(_, _, _, completes)| completes > horizon);
        let completion = RingCompletion { ticket, lane, latency, started_at, completed_at, result };
        let at =
            self.ready.partition_point(|c| (c.completed_at, c.ticket) <= (completed_at, ticket));
        self.ready.insert(at, completion);
    }

    /// Number of completions finished and waiting to be reaped.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Pops up to `max` completions in completion-time order.
    pub fn reap(&mut self, max: usize) -> Vec<RingCompletion> {
        let n = max.min(self.ready.len());
        let out: Vec<RingCompletion> = self.ready.drain(..n).collect();
        self.reaped += out.len() as u64;
        self.in_flight -= out.len();
        out
    }

    /// Requests admitted but not yet reaped.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Highest in-flight depth (admitted minus reaped) observed so far.
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// Completions delivered through [`reap`](Self::reap) so far.
    pub fn reaps(&self) -> u64 {
        self.reaped
    }

    /// Admissions whose start was delayed by a conflicting in-flight range
    /// beyond lane availability.
    pub fn admission_stalls(&self) -> u64 {
        self.admission_stalls
    }

    /// Elapsed device-clock time of everything finished so far: the latest
    /// completion timestamp.
    pub fn makespan(&self) -> SimDuration {
        self.makespan
    }

    /// Ledger, admission half: records in `stats` that `admitted` requests
    /// just entered this ring. Called once per
    /// [`Device::submit_nowait`](crate::Device::submit_nowait), after the
    /// admissions, by whichever device executed them. Every backend has
    /// finished its requests by then, so their stalls are known and move
    /// into `stats` here, each once.
    pub fn record_admission(&mut self, stats: &mut IoStats, admitted: usize) {
        stats.requests_submitted += admitted as u64;
        stats.ring_depth_high_water = stats.ring_depth_high_water.max(self.depth_high_water as u64);
        stats.ring_admission_stalls += self.admission_stalls - self.stalls_recorded;
        self.stalls_recorded = self.admission_stalls;
    }

    /// Ledger, reap half: pops every ready completion (completion-time
    /// order) and records the delivery in `stats`. A completion on a lane
    /// other than 0 shared its time with lane-0 work: it *overlapped*.
    pub fn reap_recorded(&mut self, stats: &mut IoStats) -> Vec<RingCompletion> {
        let out = self.reap(usize::MAX);
        stats.requests_reaped += out.len() as u64;
        stats.requests_overlapped += out.iter().filter(|c| c.lane != 0).count() as u64;
        out
    }
}

/// Returns `true` when two byte ranges conflict: they overlap and at least
/// one side mutates state (`is_read == false`). Read-read overlap is
/// harmless and may overlap in time. Ranges are `(start, end, is_read)`
/// half-open intervals; shared by the backends so their ordering semantics
/// cannot drift.
pub fn ranges_conflict(a: (u64, u64, bool), b: (u64, u64, bool)) -> bool {
    let ((a_start, a_end, a_read), (b_start, b_end, b_read)) = (a, b);
    a_start < b_end && b_start < a_end && !(a_read && b_read)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_conflicts_respect_the_read_read_exemption() {
        assert!(ranges_conflict((0, 10, false), (5, 15, false)), "write-write overlap");
        assert!(ranges_conflict((0, 10, true), (5, 15, false)), "read-write overlap");
        assert!(!ranges_conflict((0, 10, true), (5, 15, true)), "read-read is harmless");
        assert!(!ranges_conflict((0, 10, false), (10, 20, false)), "touching is disjoint");
    }

    #[test]
    fn byte_ranges_cover_addressed_requests() {
        assert_eq!(IoRequest::read(10, 5).byte_range(), Some((10, 15)));
        assert_eq!(IoRequest::write(0, vec![1, 2]).byte_range(), Some((0, 2)));
        assert_eq!(IoRequest::Trim { offset: 4, len: 4 }.byte_range(), Some((4, 8)));
        assert_eq!(IoRequest::Erase { block: 0 }.byte_range(), None);
    }

    /// Admits and finishes one disjoint read per latency (µs), in order.
    fn ring_of(lanes: usize, micros: &[u64]) -> CompletionRing {
        let mut ring = CompletionRing::new(lanes);
        for (i, &us) in micros.iter().enumerate() {
            let t = ring.admit(&IoRequest::read(i as u64 * 4096, 4096), SimDuration::ZERO);
            ring.finish(t, SimDuration::from_micros(us), Ok(Vec::new()));
        }
        ring
    }

    fn lanes_of(done: &[RingCompletion]) -> Vec<usize> {
        let mut by_ticket: Vec<_> = done.iter().map(|c| (c.ticket, c.lane)).collect();
        by_ticket.sort_unstable();
        by_ticket.into_iter().map(|(_, lane)| lane).collect()
    }

    #[test]
    fn scheduler_balances_equal_costs_round_robin() {
        let mut ring = ring_of(4, &[10; 8]);
        assert_eq!(lanes_of(&ring.reap(8)), vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(ring.makespan(), SimDuration::from_micros(20));
    }

    #[test]
    fn scheduler_prefers_the_least_busy_lane() {
        let mut ring = ring_of(2, &[100, 10, 10]);
        assert_eq!(lanes_of(&ring.reap(3)), vec![0, 1, 1]);
        assert_eq!(ring.makespan(), SimDuration::from_micros(100));
    }

    #[test]
    fn serial_batches_sum() {
        assert_eq!(ring_of(1, &[10, 20]).makespan(), SimDuration::from_micros(30));
    }

    #[test]
    fn overlapped_requests_counts_non_zero_lanes() {
        // The ledger, written here and nowhere else: lanes 0, 1, 0, 1 at
        // two lanes, so two of four completions overlapped lane-0 work.
        let mut stats = IoStats::default();
        let mut ring = ring_of(2, &[10, 30, 25, 5]);
        ring.record_admission(&mut stats, 4);
        assert_eq!(ring.reap_recorded(&mut stats).len(), 4);
        assert_eq!((stats.requests_submitted, stats.requests_reaped), (4, 4));
        assert_eq!(stats.requests_overlapped, 2);
        assert_eq!(stats.ring_depth_high_water, 4);
        // A stall is recorded once, by the admission half.
        for request in [IoRequest::write(0, vec![0; 8]), IoRequest::read(0, 8)] {
            let t = ring.admit(&request, SimDuration::ZERO);
            ring.finish(t, SimDuration::from_micros(1), Ok(Vec::new()));
        }
        ring.record_admission(&mut stats, 2);
        ring.reap_recorded(&mut stats);
        assert_eq!((stats.ring_admission_stalls, ring.admission_stalls()), (1, 1));
        assert_eq!(ring_of(1, &[10]).reap_recorded(&mut stats)[0].lane, 0);
        assert_eq!(
            stats.requests_overlapped, 3,
            "the stalled read sat on lane 1; one lane overlaps nothing"
        );
    }

    #[test]
    fn ring_lanes_degrade_to_serial_without_panicking() {
        assert_eq!(QueueCapabilities::overlapped(8).ring_lanes(), 8);
        assert_eq!(QueueCapabilities::overlapped(0).ring_lanes(), 1);
        let deep_serial = QueueCapabilities { max_queue_depth: 8, overlap: OverlapModel::Serial };
        assert_eq!(deep_serial.ring_lanes(), 1);
        // A zero-lane ring also degrades instead of panicking.
        let mut ring = CompletionRing::new(0);
        let t = ring.admit(&IoRequest::read(0, 16), SimDuration::ZERO);
        ring.finish(t, SimDuration::from_micros(5), Ok(Vec::new()));
        assert_eq!(ring.reap(8).len(), 1);
        assert_eq!(ring.makespan(), SimDuration::from_micros(5));
    }

    #[test]
    fn ring_overlaps_independent_requests_on_lanes() {
        let mut ring = CompletionRing::new(2);
        let c = SimDuration::from_micros(10);
        let tickets: Vec<IoTicket> = (0..4u64)
            .map(|i| ring.admit(&IoRequest::read(i * 4096, 4096), SimDuration::ZERO))
            .collect();
        for &t in &tickets {
            ring.finish(t, c, Ok(Vec::new()));
        }
        assert_eq!(ring.depth_high_water(), 4);
        assert_eq!(ring.makespan(), c * 2, "4 equal reads on 2 lanes take 2 slots");
        let done = ring.reap(usize::MAX);
        assert_eq!(done.len(), 4);
        // Completion-time order, FIFO within ties.
        assert!(done
            .windows(2)
            .all(|w| { (w[0].completed_at, w[0].ticket) <= (w[1].completed_at, w[1].ticket) }));
        assert_eq!(ring.in_flight(), 0);
        assert_eq!(ring.reaps(), 4);
    }

    #[test]
    fn ring_respects_causal_floors() {
        // A chain of 3 reads on an 8-lane ring cannot finish before 3
        // latencies have elapsed, idle lanes notwithstanding.
        let mut ring = CompletionRing::new(8);
        let c = SimDuration::from_micros(10);
        let mut floor = SimDuration::ZERO;
        for _ in 0..3 {
            let t = ring.admit(&IoRequest::read(0, 4096), floor);
            ring.finish(t, c, Ok(Vec::new()));
            floor = ring.reap(1).pop().unwrap().completed_at;
        }
        assert_eq!(ring.makespan(), c * 3);
        assert_eq!(ring.admission_stalls(), 0, "reads never conflict with reads");
    }

    #[test]
    fn ring_conflict_floor_keeps_overlapping_ranges_in_order() {
        let mut ring = CompletionRing::new(4);
        let c = SimDuration::from_micros(10);
        let w1 = ring.admit(&IoRequest::write(0, vec![1u8; 4096]), SimDuration::ZERO);
        ring.finish(w1, c, Ok(Vec::new()));
        // A read of the same range must start after the write retires,
        // even though three lanes are free.
        let r = ring.admit(&IoRequest::read(0, 4096), SimDuration::ZERO);
        ring.finish(r, c, Ok(Vec::new()));
        let done = ring.reap(2);
        assert_eq!(done[1].started_at, done[0].completed_at);
        assert_eq!(ring.makespan(), c * 2);
        assert_eq!(ring.admission_stalls(), 1);
    }
}
