//! The [`Device`] trait: the sans-I/O boundary between data structures
//! (BufferHash, baseline indexes) and the storage media they run on.
//!
//! Every operation returns the simulated latency it would have taken on the
//! modelled hardware. Callers decide how to account for that latency (e.g.
//! charge it to the triggering hash-table operation, or overlap it with
//! other work).
//!
//! Queued I/O has one entry point, [`Device::submit`]: it runs a batch of
//! [`RingRequest`]s, books them on a caller-owned [`CompletionRing`] and
//! returns their [`RingCompletion`]s, and the ring's lane clocks say how
//! much of the stream the device's [`QueueCapabilities`] would have kept in
//! flight at once. The per-op methods ([`read_at`](Device::read_at),
//! [`write_at`](Device::write_at), [`erase_block`](Device::erase_block),
//! [`trim`](Device::trim)) are what a backend implements and what `submit`
//! drives; callers use them directly for single blocking commands.

use crate::error::Result;
use crate::geometry::Geometry;
use crate::profiles::DeviceProfile;
use crate::queue::{CompletionRing, IoRequest, QueueCapabilities, RingCompletion, RingRequest};
use crate::stats::IoStats;
use crate::time::SimDuration;

/// A byte-addressed storage device with simulated latencies.
///
/// Implementations model the medium's cost structure: page-granular I/O,
/// sequential-vs-random asymmetry, erase-before-write for raw flash, FTL
/// garbage collection for SSDs, and seek/rotation for disks.
///
/// A backend is a cost function over a byte store: it implements the four
/// per-op methods and hands out its [`IoStats`]
/// ([`stats`](Device::stats) / [`update_stats`](Device::update_stats)).
/// [`submit`](Device::submit) is provided: it drives the per-op methods in
/// submission order and lets the [`CompletionRing`] model the queue, so no
/// backend carries ring code of its own, [`FileDevice`](crate::FileDevice)
/// included: its per-op methods time real I/O and the ring books those
/// times on its lanes. Only a forwarding wrapper overrides it.
///
/// `Send + Sync` is required so higher layers can share devices across
/// threads. All mutation goes through `&mut self`, so `Sync` costs
/// implementors nothing.
pub trait Device: Send + Sync {
    /// The parameter set this device was built from.
    fn profile(&self) -> &DeviceProfile;

    /// Capacity and page/block layout.
    fn geometry(&self) -> Geometry;

    /// The device's submission-queue shape (depth and overlap model).
    fn queue(&self) -> QueueCapabilities {
        self.profile().queue
    }

    /// Reads `buf.len()` bytes starting at byte `offset`.
    ///
    /// Returns the simulated time the read took. Reads smaller than a page
    /// are charged a full page (paper design principle P2).
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration>;

    /// Writes `data` starting at byte `offset`.
    ///
    /// Returns the simulated time the write took, including any FTL
    /// garbage-collection work it triggered (SSDs) or erase-block management
    /// the model charges to the writer.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration>;

    /// Erases the erase block with index `block` (raw flash chips).
    ///
    /// Devices without caller-visible erasure (SSD, disk, DRAM) return
    /// [`DeviceError::Unsupported`](crate::DeviceError::Unsupported) or treat
    /// it as a hint, as documented by the implementation.
    fn erase_block(&mut self, block: u64) -> Result<SimDuration>;

    /// Declares the byte range `[offset, offset + len)` as no longer live
    /// (a TRIM hint). SSD models use it to cheapen future garbage
    /// collection; other media count and ignore it.
    fn trim(&mut self, _offset: u64, _len: u64) -> Result<SimDuration> {
        Ok(SimDuration::ZERO)
    }

    /// Runs `requests` on the device queue and returns one
    /// [`RingCompletion`] per request, by completion time, ties in
    /// submission order; [`RingCompletion::index`] is the request's
    /// position in `requests`. Each request is booked on the caller-owned
    /// `ring` and counts as in flight there until the caller's
    /// [`CompletionRing::sync`].
    ///
    /// **Submission order is data-effect order**: overlapping ranges apply
    /// in the order they were submitted on every backend, and the ring's
    /// conflict floors reflect that in the reported timing, so a ring
    /// stream is observationally equivalent (final bytes, per-request
    /// results) to issuing the same operations sequentially. Per-request
    /// failures (out-of-bounds, dirty-page programs, unsupported erases)
    /// come back in [`RingCompletion::result`] and do not disturb the
    /// other requests; `Err` from this call means the device could not
    /// take the submission at all. Each request additionally carries a
    /// causal floor ([`RingRequest::not_before`]) so chained work (a probe
    /// read issued from an earlier read's data) never overlaps its own
    /// cause.
    ///
    /// The provided engine runs each request through the per-op methods
    /// and books it with the latency they returned; the ring's lane
    /// free-at clocks and conflict floors model how much of the stream a
    /// device with that queue depth would have kept in flight — exact for
    /// the simulated backends, whose "asynchrony" is entirely in that
    /// timing model, and the same model over measured latencies for the
    /// file backend. It then writes the call's queue ledger through
    /// [`update_stats`](Device::update_stats).
    fn submit(
        &mut self,
        requests: Vec<RingRequest>,
        ring: &mut CompletionRing,
    ) -> Result<Vec<RingCompletion>> {
        let done = ring.run(requests, |request| execute(self, request));
        self.update_stats(&mut |stats| ring.record(stats, &done));
        Ok(done)
    }

    /// Informs the device that the workload was idle for `idle` simulated
    /// time. SSD models use this to run background garbage collection for
    /// free, mirroring how real SSDs recover their clean-block pool during
    /// quiet periods.
    fn on_idle(&mut self, _idle: SimDuration) {}

    /// Snapshot of the I/O counters.
    fn stats(&self) -> IoStats;

    /// Runs `update` on the device's own counters. This is how the queue
    /// ledger, written once in [`CompletionRing`], reaches the
    /// [`IoStats`] of the backend that executed the requests through any
    /// stack of wrappers: a backend passes its counters, a wrapper
    /// forwards the call.
    fn update_stats(&mut self, update: &mut dyn FnMut(&mut IoStats));

    /// Resets the I/O counters.
    fn reset_stats(&mut self) {
        self.update_stats(&mut IoStats::reset);
    }

    /// Human-readable device name.
    fn name(&self) -> &'static str {
        self.profile().name
    }
}

/// Runs one ring request through `device`'s per-op methods: its latency,
/// and the bytes read (none for the other commands).
pub(crate) fn execute<D: Device + ?Sized>(
    device: &mut D,
    request: &IoRequest,
) -> Result<(SimDuration, Vec<u8>)> {
    let quiet = |latency| (latency, Vec::new());
    match request {
        IoRequest::Read { offset, len } => {
            let mut buf = vec![0u8; *len];
            device.read_at(*offset, &mut buf).map(|latency| (latency, buf))
        }
        IoRequest::Write { offset, data } => device.write_at(*offset, data).map(quiet),
        IoRequest::Erase { block } => device.erase_block(*block).map(quiet),
        IoRequest::Trim { offset, len } => device.trim(*offset, *len).map(quiet),
    }
}

/// Blanket implementation so `Box<dyn Device>` is itself a `Device`, which
/// lets higher layers be generic over `D: Device` while still supporting
/// dynamic dispatch where convenient.
impl<D: Device + ?Sized> Device for Box<D> {
    fn profile(&self) -> &DeviceProfile {
        (**self).profile()
    }
    fn geometry(&self) -> Geometry {
        (**self).geometry()
    }
    fn queue(&self) -> QueueCapabilities {
        (**self).queue()
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration> {
        (**self).read_at(offset, buf)
    }
    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration> {
        (**self).write_at(offset, data)
    }
    fn erase_block(&mut self, block: u64) -> Result<SimDuration> {
        (**self).erase_block(block)
    }
    fn trim(&mut self, offset: u64, len: u64) -> Result<SimDuration> {
        (**self).trim(offset, len)
    }
    fn submit(
        &mut self,
        requests: Vec<RingRequest>,
        ring: &mut CompletionRing,
    ) -> Result<Vec<RingCompletion>> {
        (**self).submit(requests, ring)
    }
    fn on_idle(&mut self, idle: SimDuration) {
        (**self).on_idle(idle)
    }
    fn stats(&self) -> IoStats {
        (**self).stats()
    }
    fn update_stats(&mut self, update: &mut dyn FnMut(&mut IoStats)) {
        (**self).update_stats(update)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dram::DramDevice;
    use crate::error::DeviceError;

    /// Submits `requests` to a fresh ring on `device` in one call and
    /// returns the ring with the completions in submission order.
    pub(crate) fn run_on_ring<D: Device + ?Sized>(
        device: &mut D,
        requests: Vec<IoRequest>,
    ) -> (CompletionRing, Vec<RingCompletion>) {
        let mut ring = CompletionRing::for_queue(device.queue());
        let requests = requests.into_iter().map(RingRequest::new).collect();
        let mut done = device.submit(requests, &mut ring).unwrap();
        done.sort_by_key(|c| c.index);
        (ring, done)
    }

    #[test]
    fn boxed_device_dispatches() {
        let mut dev: Box<dyn Device> = Box::new(DramDevice::new(1 << 20).unwrap());
        let lat = dev.write_at(0, &[1, 2, 3]).unwrap();
        assert!(lat > SimDuration::ZERO);
        let mut buf = [0u8; 3];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(dev.stats().writes, 1);
        dev.reset_stats();
        assert_eq!(dev.stats().writes, 0);
        assert_eq!(dev.name(), "DRAM");
    }

    #[test]
    fn boxed_device_forwards_submit() {
        let mut dev: Box<dyn Device> = Box::new(DramDevice::new(1 << 20).unwrap());
        let reqs =
            vec![IoRequest::write(0, vec![7u8; 64]), IoRequest::read(0, 64), IoRequest::read(0, 0)];
        let (_, done) = run_on_ring(&mut *dev, reqs);
        assert_eq!(done.len(), 3);
        assert_eq!(done[1].result.as_ref().unwrap(), &vec![7u8; 64]);
        // The queue ledger reaches the DRAM counters through the Box.
        assert_eq!(dev.stats().requests_submitted, 3);
        assert_eq!(dev.stats().requests_reaped, 3);
    }

    #[test]
    fn dependent_requests_serialize_and_read_read_overlaps() {
        let mut dev = DramDevice::new(1 << 20).unwrap();
        // W1 is large, W2 small and disjoint, R3 spans both: R3 must start
        // behind W1 (the conflict floor is the latest conflicting range).
        let reqs = vec![
            IoRequest::write(0, vec![1u8; 8192]),
            IoRequest::write(16_384, vec![2u8; 64]),
            IoRequest::read(0, 32_768),
        ];
        let (ring, done) = run_on_ring(&mut dev, reqs);
        assert!(done[0].completed_at > done[1].completed_at);
        assert_eq!(done[2].started_at, done[0].completed_at, "fan-in serializes behind W1");
        assert_eq!(ring.makespan(), done[0].latency + done[2].latency);
        assert_eq!(dev.stats().ring_admission_stalls, 1);

        // Read-read overlap is harmless: two reads of one range overlap.
        let (ring, done) =
            run_on_ring(&mut dev, vec![IoRequest::read(0, 4096), IoRequest::read(0, 4096)]);
        assert_ne!(done[0].lane, done[1].lane);
        assert!(ring.makespan() < done[0].latency + done[1].latency);
    }

    /// A minimal third-party device: the per-op methods and its counters
    /// are all it implements; the ring works through the provided engine.
    struct PerOpOnly {
        inner: DramDevice,
    }

    impl Device for PerOpOnly {
        fn profile(&self) -> &DeviceProfile {
            self.inner.profile()
        }
        fn geometry(&self) -> Geometry {
            self.inner.geometry()
        }
        fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration> {
            self.inner.read_at(offset, buf)
        }
        fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration> {
            self.inner.write_at(offset, data)
        }
        fn erase_block(&mut self, block: u64) -> Result<SimDuration> {
            self.inner.erase_block(block)
        }
        fn stats(&self) -> IoStats {
            self.inner.stats()
        }
        fn update_stats(&mut self, update: &mut dyn FnMut(&mut IoStats)) {
            self.inner.update_stats(update)
        }
    }

    #[test]
    fn default_ring_path_degenerates_to_blocking_execution() {
        let mut dev = PerOpOnly { inner: DramDevice::new(1 << 16).unwrap() };
        let mut ring = CompletionRing::for_queue(dev.queue());
        let reqs = vec![
            RingRequest::new(IoRequest::write(0, vec![9u8; 64])),
            RingRequest::new(IoRequest::read(0, 64)),
            RingRequest::new(IoRequest::read(1 << 16, 1)), // out of bounds
        ];
        let done = dev.submit(reqs, &mut ring).unwrap();
        assert_eq!(done.len(), 3, "one completion per request, from the call itself");
        let at = |index: usize| done.iter().find(|c| c.index == index).unwrap();
        assert_eq!(at(1).result.as_ref().unwrap(), &vec![9u8; 64]);
        assert!(matches!(at(2).result, Err(DeviceError::OutOfBounds { .. })));
        // The read of the just-written range is conflict-floored behind
        // the write: its start is the write's completion time.
        assert_eq!(at(1).started_at, at(0).completed_at);
        assert!(ring.makespan() >= at(1).completed_at);
        assert!(done.windows(2).all(|w| w[0].completed_at <= w[1].completed_at));
    }

    #[test]
    fn default_submit_is_a_sequential_fallback() {
        // The provided engine is all a per-op-only device has: requests
        // run in order through the per-op methods, each reports its own
        // outcome, and the ledger lands in the counters it handed out.
        let mut dev = PerOpOnly { inner: DramDevice::new(1 << 16).unwrap() };
        let reqs = vec![
            IoRequest::write(0, vec![1u8; 32]),
            IoRequest::read(0, 32),
            IoRequest::Erase { block: 0 },
            IoRequest::read(1 << 16, 1), // out of bounds
        ];
        let (_, done) = run_on_ring(&mut dev, reqs);
        assert_eq!(done[1].result.as_ref().unwrap(), &vec![1u8; 32]);
        assert!(matches!(done[2].result, Err(DeviceError::Unsupported(_))));
        assert!(matches!(done[3].result, Err(DeviceError::OutOfBounds { .. })));
        assert_eq!(done[2].latency, SimDuration::ZERO, "a refused request costs nothing");
        let s = dev.stats();
        assert_eq!((s.writes, s.reads), (1, 1));
        assert_eq!((s.requests_submitted, s.requests_reaped, s.ring_depth_high_water), (4, 4, 4));
    }
}
