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
//! * [`CompletionRing`] / [`RingRequest`] / [`RingCompletion`] — a batch of
//!   requests goes to the device in one
//!   [`Device::submit`](crate::Device::submit) call, which runs them, books
//!   them on the caller-owned ring's queue lanes and returns their
//!   completions, each stamped with the device-clock times it started and
//!   finished.
//!
//! ## Ordering and overlap guarantees
//!
//! **Submission order is data-effect order.** Every backend applies the
//! data effects of a ring stream in the order the requests were submitted,
//! so the stream is observationally equivalent (final device bytes,
//! per-request results) to issuing the same operations one at a time
//! through the per-op methods. What the ring models is the *timing*: an
//! overlapped queue runs independent requests on parallel lanes, a serial
//! one retires them back to back, on every backend from the latency each
//! request reported (measured, on the file backend). Per-request
//! [`RingCompletion::latency`] values are unchanged by overlapping; the
//! win shows up in [`CompletionRing::makespan`], the latest completion
//! timestamp instead of the sum over requests.
//!
//! The ring also writes the queue ledger of [`IoStats`], once per `submit`
//! call and nowhere else; a backend contributes its per-op methods and its
//! counters, nothing ring-shaped.

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

/// One request for [`Device::submit`](crate::Device::submit), carrying its
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

/// Completion record for one ring request, returned by
/// [`Device::submit`](crate::Device::submit).
#[derive(Debug, Clone)]
pub struct RingCompletion {
    /// Position of the request in the `submit` call that carried it.
    pub index: usize,
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
    /// Whether a conflict floor delayed the start beyond lane
    /// availability and the causal floor (an admission stall).
    pub stalled: bool,
    /// The bytes read (empty for non-reads) or the per-request error.
    pub result: Result<Vec<u8>>,
}

/// The queue model of one caller's stream of requests: an io_uring-style
/// completion ring owned by the *caller* and handed to each
/// [`Device::submit`](crate::Device::submit) call, which books every
/// request of the call on it and returns their completions.
///
/// The ring does the timing model shared by every backend: each request
/// is placed on the earliest-free queue lane (free-at clocks, one lane per
/// queue slot), subject to two floors — its [`RingRequest::not_before`]
/// causal floor, and a **conflict floor** that keeps overlapping ranges in
/// submission order (a request that conflicts with an earlier range
/// starts no earlier than that range retires; read-read overlap is
/// exempt, mirroring [`ranges_conflict`]). Data effects are applied by the
/// device in submission order regardless, so the invariant *submission
/// order = data-effect order* holds on every backend; the conflict floor
/// makes the reported timing honest about it. Lanes and ranges carry over
/// from one `submit` call to the next, so a caller's stream is one
/// timeline however it is cut into calls.
///
/// The ring also models how deep the caller stacks the queue: a request
/// counts as in flight from its submission until the caller's next
/// [`sync`](Self::sync), the point where it waits for what it submitted,
/// and [`depth_high_water`](Self::depth_high_water) is the most that were
/// in flight at once.
#[derive(Debug)]
pub struct CompletionRing {
    /// Free-at clock per queue lane.
    lanes: Vec<SimDuration>,
    /// Booked ranges that can still delay later conflicting requests:
    /// `(start, end, is_read, completes_at)`.
    ranges: Vec<(u64, u64, bool, SimDuration)>,
    /// Requests submitted since the last sync point.
    in_flight: usize,
    depth_high_water: usize,
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
            in_flight: 0,
            depth_high_water: 0,
            makespan: SimDuration::ZERO,
        }
    }

    /// Creates a ring sized for a device's queue shape
    /// ([`QueueCapabilities::ring_lanes`]).
    pub fn for_queue(queue: QueueCapabilities) -> Self {
        CompletionRing::new(queue.ring_lanes())
    }

    /// The engine behind every [`Device::submit`](crate::Device::submit):
    /// runs each request through `execute` in submission order (which may
    /// rewrite the request first, as a partition translates its offsets),
    /// books it, and returns the completions by completion time, ties in
    /// submission order. A request `execute` refuses costs no time.
    pub(crate) fn run(
        &mut self,
        requests: Vec<RingRequest>,
        mut execute: impl FnMut(&mut IoRequest) -> Result<(SimDuration, Vec<u8>)>,
    ) -> Vec<RingCompletion> {
        let mut done: Vec<RingCompletion> = requests
            .into_iter()
            .enumerate()
            .map(|(index, RingRequest { mut request, not_before })| {
                let outcome = execute(&mut request);
                self.book(index, &request, not_before, outcome)
            })
            .collect();
        done.sort_by_key(|c| (c.completed_at, c.index));
        self.in_flight += done.len();
        self.depth_high_water = self.depth_high_water.max(self.in_flight);
        done
    }

    /// Schedules one executed request on the earliest-free lane no earlier
    /// than its causal and conflict floors and stamps its completion.
    fn book(
        &mut self,
        index: usize,
        request: &IoRequest,
        not_before: SimDuration,
        outcome: Result<(SimDuration, Vec<u8>)>,
    ) -> RingCompletion {
        let (latency, result) = match outcome {
            Ok((latency, data)) => (latency, Ok(data)),
            Err(e) => (SimDuration::ZERO, Err(e)),
        };
        let is_read = matches!(request, IoRequest::Read { .. });
        let range = request.byte_range().filter(|(start, end)| end > start);
        let conflict_floor = range
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
        let stalled = conflict_floor > lane_free.max(not_before);
        let started_at = lane_free.max(not_before).max(conflict_floor);
        let completed_at = started_at + latency;
        self.lanes[lane] = completed_at;
        self.makespan = self.makespan.max(completed_at);
        if let Some((start, end)) = range.filter(|_| result.is_ok()) {
            self.ranges.push((start, end, is_read, completed_at));
        }
        // Ranges that retire before every lane's free-at clock can no
        // longer delay any future request (a future start is at least the
        // minimum free-at), so they are safe to prune.
        let horizon =
            self.lanes.iter().copied().fold(SimDuration::from_nanos(u64::MAX), SimDuration::min);
        self.ranges.retain(|&(_, _, _, completes)| completes > horizon);
        RingCompletion { index, lane, latency, started_at, completed_at, stalled, result }
    }

    /// The queue ledger: records one `submit` call's completions in
    /// `stats`, the device's counters. A completion on a lane other than
    /// 0 shared its time with lane-0 work: it *overlapped*.
    pub(crate) fn record(&self, stats: &mut IoStats, done: &[RingCompletion]) {
        stats.requests_submitted += done.len() as u64;
        stats.requests_reaped += done.len() as u64;
        stats.requests_overlapped += done.iter().filter(|c| c.lane != 0).count() as u64;
        stats.ring_admission_stalls += done.iter().filter(|c| c.stalled).count() as u64;
        stats.ring_depth_high_water = stats.ring_depth_high_water.max(self.depth_high_water as u64);
    }

    /// The caller's sync point: it has everything it submitted, so nothing
    /// is in flight any more. Lanes and ranges stay: the next request still
    /// starts on the same timeline.
    pub fn sync(&mut self) {
        self.in_flight = 0;
    }

    /// Requests submitted since the last [`sync`](Self::sync). Kept for
    /// `benchmark/ladder.rs` until ROADMAP item 8.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Most requests in flight at once so far: submitted and not yet past
    /// a [`sync`](Self::sync).
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// Elapsed device-clock time of everything booked so far: the latest
    /// completion timestamp.
    pub fn makespan(&self) -> SimDuration {
        self.makespan
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
    use crate::dram::DramDevice;
    use crate::Device;

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

    /// Books one disjoint read per latency (µs), in order, in one call.
    fn ring_of(lanes: usize, micros: &[u64]) -> (CompletionRing, Vec<RingCompletion>) {
        let mut ring = CompletionRing::new(lanes);
        let done = ring.run(disjoint_reads(micros.len()), costs(micros));
        (ring, done)
    }

    fn disjoint_reads(n: usize) -> Vec<RingRequest> {
        (0..n as u64).map(|i| RingRequest::new(IoRequest::read(i * 4096, 4096))).collect()
    }

    /// An executor that charges the given latencies (µs) in turn.
    fn costs(micros: &[u64]) -> impl FnMut(&mut IoRequest) -> Result<(SimDuration, Vec<u8>)> + '_ {
        let mut next = micros.iter();
        move |_| Ok((SimDuration::from_micros(*next.next().expect("a cost a request")), Vec::new()))
    }

    fn lanes_of(done: &[RingCompletion]) -> Vec<usize> {
        let mut by_index: Vec<_> = done.iter().map(|c| (c.index, c.lane)).collect();
        by_index.sort_unstable();
        by_index.into_iter().map(|(_, lane)| lane).collect()
    }

    #[test]
    fn scheduler_balances_equal_costs_round_robin() {
        let (ring, done) = ring_of(4, &[10; 8]);
        assert_eq!(lanes_of(&done), vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(ring.makespan(), SimDuration::from_micros(20));
    }

    #[test]
    fn scheduler_prefers_the_least_busy_lane() {
        let (ring, done) = ring_of(2, &[100, 10, 10]);
        assert_eq!(lanes_of(&done), vec![0, 1, 1]);
        assert_eq!(ring.makespan(), SimDuration::from_micros(100));
    }

    #[test]
    fn serial_batches_sum() {
        assert_eq!(ring_of(1, &[10, 20]).0.makespan(), SimDuration::from_micros(30));
    }

    #[test]
    fn overlapped_requests_counts_non_zero_lanes() {
        // The ledger, written here and nowhere else: lanes 0, 1, 0, 1 at
        // two lanes, so two of four completions overlapped lane-0 work.
        let mut stats = IoStats::default();
        let (mut ring, done) = ring_of(2, &[10, 30, 25, 5]);
        ring.record(&mut stats, &done);
        assert_eq!((stats.requests_submitted, stats.requests_reaped), (4, 4));
        assert_eq!(stats.requests_overlapped, 2);
        assert_eq!(stats.ring_depth_high_water, 4);
        // A stall is recorded once, by the call that booked it.
        ring.sync();
        let done = ring.run(
            vec![
                RingRequest::new(IoRequest::write(0, vec![0; 8])),
                RingRequest::new(IoRequest::read(0, 8)),
            ],
            costs(&[1, 1]),
        );
        ring.record(&mut stats, &done);
        assert_eq!(stats.ring_admission_stalls, 1);
        assert_eq!(done.iter().filter(|c| c.stalled).count(), 1);
        let (one_lane, done) = ring_of(1, &[10]);
        assert_eq!(done[0].lane, 0);
        one_lane.record(&mut stats, &done);
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
        let (ring, done) = ring_of(0, &[5]);
        assert_eq!(done.len(), 1);
        assert_eq!(ring.makespan(), SimDuration::from_micros(5));
    }

    #[test]
    fn ring_overlaps_independent_requests_on_lanes() {
        let (mut ring, done) = ring_of(2, &[10; 4]);
        assert_eq!(ring.depth_high_water(), 4);
        assert_eq!(
            ring.makespan(),
            SimDuration::from_micros(20),
            "4 equal reads on 2 lanes take 2 slots"
        );
        assert_eq!(done.len(), 4);
        assert_eq!(ring.in_flight(), 4, "in flight until the caller's sync point");
        ring.sync();
        assert_eq!(ring.in_flight(), 0);
    }

    /// What the lookup pipeline and the depth ledger rest on: within a
    /// call, completions come back by completion time, ties in submission
    /// order; across several calls before a sync point, the depth
    /// high-water counts every request since that sync.
    #[test]
    fn completions_come_back_by_completion_time_and_depth_spans_calls_until_a_sync() {
        let (_, done) = ring_of(4, &[30, 10, 10, 20]);
        let order: Vec<usize> = done.iter().map(|c| c.index).collect();
        assert_eq!(order, vec![1, 2, 3, 0], "by completion time, the tie by index");
        assert!(done
            .windows(2)
            .all(|w| (w[0].completed_at, w[0].index) < (w[1].completed_at, w[1].index)));

        let mut dev = DramDevice::new(1 << 20).unwrap();
        let mut ring = CompletionRing::for_queue(dev.queue());
        for n in [3, 4] {
            assert_eq!(dev.submit(disjoint_reads(n), &mut ring).unwrap().len(), n);
        }
        assert_eq!((ring.in_flight(), ring.depth_high_water()), (7, 7));
        ring.sync();
        dev.submit(disjoint_reads(2), &mut ring).unwrap();
        assert_eq!((ring.in_flight(), ring.depth_high_water()), (2, 7));
        let s = dev.stats();
        assert_eq!((s.requests_submitted, s.requests_reaped, s.ring_depth_high_water), (9, 9, 7));
    }

    #[test]
    fn ring_respects_causal_floors() {
        // A chain of 3 reads on an 8-lane ring cannot finish before 3
        // latencies have elapsed, idle lanes notwithstanding.
        let mut ring = CompletionRing::new(8);
        let c = SimDuration::from_micros(10);
        let (mut floor, mut stalled) = (SimDuration::ZERO, false);
        for _ in 0..3 {
            let read = RingRequest::after(IoRequest::read(0, 4096), floor);
            let done = ring.run(vec![read], costs(&[10])).remove(0);
            (floor, stalled) = (done.completed_at, stalled || done.stalled);
        }
        assert_eq!(ring.makespan(), c * 3);
        assert!(!stalled, "reads never conflict with reads");
    }

    #[test]
    fn ring_conflict_floor_keeps_overlapping_ranges_in_order() {
        let mut ring = CompletionRing::new(4);
        // A read of the same range must start after the write retires,
        // even though three lanes are free.
        let requests = vec![
            RingRequest::new(IoRequest::write(0, vec![1u8; 4096])),
            RingRequest::new(IoRequest::read(0, 4096)),
        ];
        let done = ring.run(requests, costs(&[10, 10]));
        assert_eq!(done[1].started_at, done[0].completed_at);
        assert_eq!(ring.makespan(), SimDuration::from_micros(20));
        assert_eq!(done.iter().map(|c| c.stalled).collect::<Vec<_>>(), vec![false, true]);
    }
}
