//! Real-file storage backend.
//!
//! [`FileDevice`] stores bytes in an actual file on the host filesystem and
//! reports *measured wall-clock* latencies instead of simulated ones. It
//! exists so the data-structure layers can also be exercised against real
//! storage (the paper's prototype ran on ext3 files over real SSDs); the
//! simulated devices remain the default for reproducible experiments.
//!
//! Like every other backend it is a cost function over a byte store: the
//! per-op methods time one positioned `pread` / `pwrite` each, and the
//! provided [`Device::submit`] drives them. A ring request therefore runs
//! inside the `submit` call, on the submitting thread, and the ring places
//! its measured latency on the lanes of the device's queue depth
//! (DESIGN.md "`FileDevice` runs where it is submitted"). No thread is
//! started: with the file in the page cache of a 2-vCPU KVM guest a 4 KiB
//! read measured about a microsecond and a 32 KiB write about ten, less
//! than the 3.5 to 50 µs a hand-off to a worker thread measured there.
//!
//! Lanes model the **device queue**, exactly as the simulated backends do:
//! requests do not overlap physically, but the completion accounting
//! reflects what a device with that queue depth would retire from the
//! measured per-request latencies. That is the metric the
//! `io_queue_depth` harness sweeps (it reports host wall time alongside
//! for transparency).

use std::fs::{File, OpenOptions};
// Positioned I/O (pread/pwrite-style) needs no seek state, so one handle
// serves every call; it pins flashsim to Unix hosts, which is what CI and
// the experiment environment run.
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::time::Instant;

use crate::device::Device;
use crate::error::{DeviceError, Result};
use crate::geometry::Geometry;
use crate::profiles::{DeviceProfile, MediumKind};
use crate::queue::QueueCapabilities;
use crate::stats::IoStats;
use crate::time::SimDuration;

/// Default queue depth (ring lanes) for [`FileDevice::create`].
pub const DEFAULT_FILE_QUEUE_DEPTH: usize = 8;

/// A device backed by a real file, reporting wall-clock latencies.
#[derive(Debug)]
pub struct FileDevice {
    profile: DeviceProfile,
    geometry: Geometry,
    file: File,
    stats: IoStats,
}

impl FileDevice {
    /// Creates (or truncates) a backing file of `capacity` bytes with the
    /// default queue depth of [`DEFAULT_FILE_QUEUE_DEPTH`].
    pub fn create<P: AsRef<Path>>(path: P, capacity: u64) -> Result<Self> {
        Self::with_queue_depth(path, capacity, DEFAULT_FILE_QUEUE_DEPTH)
    }

    /// Creates (or truncates) a backing file of `capacity` bytes with a
    /// submission queue `queue_depth` deep (1 = strictly serial, like the
    /// per-op methods): the number of lanes a
    /// [`CompletionRing`](crate::CompletionRing) for this device books the
    /// measured latencies on.
    pub fn with_queue_depth<P: AsRef<Path>>(
        path: P,
        capacity: u64,
        queue_depth: usize,
    ) -> Result<Self> {
        Self::build(path, capacity, queue_depth, true)
    }

    /// Opens an **existing** backing file without truncating it, with a
    /// submission queue `queue_depth` deep. The file's current length is
    /// the device capacity (it must be non-empty), so a device written by
    /// an earlier process — e.g. a `clamd` flash image — comes back with
    /// its contents intact, ready for `Clam::recover` to scan.
    pub fn open_existing<P: AsRef<Path>>(path: P, queue_depth: usize) -> Result<Self> {
        let capacity = std::fs::metadata(path.as_ref())?.len();
        Self::build(path, capacity, queue_depth, false)
    }

    fn build<P: AsRef<Path>>(
        path: P,
        capacity: u64,
        queue_depth: usize,
        truncate: bool,
    ) -> Result<Self> {
        if capacity == 0 {
            return Err(DeviceError::InvalidConfig("capacity must be non-zero".into()));
        }
        if queue_depth == 0 {
            return Err(DeviceError::InvalidConfig("queue_depth must be non-zero".into()));
        }
        let page = 4096u32;
        let capacity = capacity.div_ceil(page as u64) * page as u64;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(truncate)
            .truncate(truncate)
            .open(path)?;
        file.set_len(capacity)?;
        let profile = DeviceProfile {
            name: "File-backed device",
            kind: MediumKind::Ssd,
            page_size: page,
            block_size: page,
            queue: QueueCapabilities::overlapped(queue_depth),
            ..DeviceProfile::intel_x18m()
        };
        let geometry = Geometry::new(capacity, page, page)?;
        Ok(FileDevice { profile, geometry, file, stats: IoStats::default() })
    }
}

/// Wall-clock time since `start`, on the device's latency scale.
fn elapsed(start: Instant) -> SimDuration {
    SimDuration::from_nanos(start.elapsed().as_nanos() as u64)
}

impl Device for FileDevice {
    fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration> {
        self.geometry.check_bounds(offset, buf.len())?;
        let start = Instant::now();
        self.file.read_exact_at(buf, offset)?;
        let lat = elapsed(start);
        self.stats.reads += 1;
        self.stats.bytes_read += buf.len() as u64;
        self.stats.read_time += lat;
        Ok(lat)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration> {
        self.geometry.check_bounds(offset, data.len())?;
        let start = Instant::now();
        self.file.write_all_at(data, offset)?;
        let lat = elapsed(start);
        self.stats.writes += 1;
        self.stats.bytes_written += data.len() as u64;
        self.stats.write_time += lat;
        Ok(lat)
    }

    fn erase_block(&mut self, _block: u64) -> Result<SimDuration> {
        Err(DeviceError::Unsupported("erase_block on a file-backed device"))
    }

    fn trim(&mut self, offset: u64, len: u64) -> Result<SimDuration> {
        self.geometry.check_bounds(offset, len as usize)?;
        // No hole punching: the hint is counted and dropped.
        self.stats.trims += 1;
        Ok(SimDuration::ZERO)
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
    use crate::queue::{CompletionRing, IoRequest, RingRequest};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("flashsim-test-{}-{}", std::process::id(), name));
        p
    }

    #[test]
    fn open_existing_preserves_contents() {
        let path = temp_path("reopen");
        {
            let mut dev = FileDevice::create(&path, 1 << 20).unwrap();
            dev.write_at(8192, b"survives reopen").unwrap();
        }
        {
            let mut dev = FileDevice::open_existing(&path, 4).unwrap();
            assert_eq!(dev.geometry().capacity, 1 << 20, "capacity comes from the file");
            let mut buf = [0u8; 15];
            dev.read_at(8192, &mut buf).unwrap();
            assert_eq!(&buf, b"survives reopen");
        }
        // `create` on the same path truncates — the opposite contract.
        let mut dev = FileDevice::create(&path, 1 << 20).unwrap();
        let mut buf = [0u8; 15];
        dev.read_at(8192, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 15]);
        drop(dev);
        std::fs::remove_file(&path).ok();
        assert!(FileDevice::open_existing(&path, 4).is_err(), "missing image must not be created");
    }

    #[test]
    fn file_round_trip() {
        let path = temp_path("roundtrip");
        {
            let mut dev = FileDevice::create(&path, 1 << 20).unwrap();
            dev.write_at(4096, b"persisted bytes").unwrap();
            let mut buf = [0u8; 15];
            dev.read_at(4096, &mut buf).unwrap();
            assert_eq!(&buf, b"persisted bytes");
            assert_eq!(dev.stats().writes, 1);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_device_respects_bounds() {
        let path = temp_path("bounds");
        {
            let mut dev = FileDevice::create(&path, 8192).unwrap();
            assert!(dev.write_at(8192, &[1]).is_err());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_capacity_is_rejected() {
        let path = temp_path("zerocap");
        assert!(FileDevice::create(&path, 0).is_err());
        assert!(FileDevice::with_queue_depth(&path, 4096, 0).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn submit_books_disjoint_requests_on_the_queue_lanes() {
        let path = temp_path("submit-lanes");
        {
            let mut dev = FileDevice::with_queue_depth(&path, 1 << 20, 4).unwrap();
            let reqs =
                (0..16u64).map(|i| IoRequest::write(i * 4096, vec![i as u8; 4096])).collect();
            let (ring, done) = run_on_ring(&mut dev, reqs);
            assert!(done.iter().all(|c| c.result.is_ok()));
            assert!(done.iter().any(|c| c.lane != 0), "the queue's lanes must be used");
            assert!(ring.makespan() < done.iter().map(|c| c.latency).sum());
            // The ledger is the ring's, written into this device's counters.
            let s = dev.stats();
            assert_eq!((s.requests_submitted, s.requests_reaped), (16, 16));
            assert_eq!(s.requests_overlapped, done.iter().filter(|c| c.lane != 0).count() as u64);
            assert_eq!(s.ring_depth_high_water, 16);
            assert_eq!(s.writes, 16);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn submit_keeps_conflicting_writes_in_order() {
        let path = temp_path("submit-conflict");
        {
            let mut dev = FileDevice::with_queue_depth(&path, 1 << 20, 8).unwrap();
            // 32 conflicting writes to the same page: last one must win.
            let mut reqs: Vec<IoRequest> =
                (0..32u64).map(|i| IoRequest::write(0, vec![i as u8; 4096])).collect();
            reqs.push(IoRequest::read(0, 4096));
            let (ring, done) = run_on_ring(&mut dev, reqs);
            assert!(done.iter().all(|c| c.result.is_ok()));
            assert_eq!(done[32].result.as_ref().unwrap()[0], 31);
            // A fully conflicting stream is a chain: each request starts
            // when its predecessor retires, elapsed time = the serial sum.
            assert!(done.windows(2).all(|w| w[1].started_at == w[0].completed_at));
            assert_eq!(ring.makespan(), done.iter().map(|c| c.latency).sum());
            // The stalls the chain surfaces reach the device's counters,
            // each once.
            let s = dev.stats();
            assert_eq!(s.ring_admission_stalls, done.iter().filter(|c| c.stalled).count() as u64);
            assert!(s.ring_admission_stalls > 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ring_streams_disjoint_requests_without_waiting() {
        let path = temp_path("ring-stream");
        {
            let mut dev = FileDevice::with_queue_depth(&path, 1 << 20, 4).unwrap();
            let mut ring = CompletionRing::for_queue(dev.queue());
            let writes: Vec<RingRequest> = (0..8u64)
                .map(|i| RingRequest::new(IoRequest::write(i * 4096, vec![i as u8; 4096])))
                .collect();
            let done = dev.submit(writes, &mut ring).unwrap();
            assert_eq!(done.len(), 8);
            for c in &done {
                assert!(c.result.is_ok(), "{:?}", c.result);
            }
            assert_eq!(ring.in_flight(), 8, "in flight until the caller syncs");
            assert!(ring.makespan() > SimDuration::ZERO);
            // Every write really landed.
            for i in 0..8u64 {
                let mut buf = [0u8; 4096];
                dev.read_at(i * 4096, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == i as u8), "slot {i}");
            }
            let s = dev.stats();
            assert_eq!(s.requests_reaped, 8);
            assert!(s.ring_depth_high_water >= 8);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ring_keeps_conflicting_requests_in_admission_order() {
        let path = temp_path("ring-conflict");
        {
            let mut dev = FileDevice::with_queue_depth(&path, 1 << 20, 8).unwrap();
            let mut ring = CompletionRing::for_queue(dev.queue());
            // 16 writes to one page followed by a read: the read must see
            // the last write.
            let mut reqs: Vec<RingRequest> = (0..16u64)
                .map(|i| RingRequest::new(IoRequest::write(0, vec![i as u8; 4096])))
                .collect();
            reqs.push(RingRequest::new(IoRequest::read(0, 4096)));
            let done = dev.submit(reqs, &mut ring).unwrap();
            let read = done.iter().find(|c| c.index == 16).unwrap();
            assert_eq!(read.result.as_ref().unwrap()[0], 15, "read sees the last submitted write");
            assert!(done.iter().any(|c| c.stalled), "conflict chain must stall admissions");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ring_reports_per_request_errors_without_aborting() {
        let path = temp_path("ring-errors");
        {
            let mut dev = FileDevice::with_queue_depth(&path, 8192, 2).unwrap();
            let reqs = vec![
                IoRequest::write(0, vec![7u8; 64]),
                IoRequest::Erase { block: 0 },
                IoRequest::read(8192, 1),
                IoRequest::Trim { offset: 0, len: 64 },
                IoRequest::read(0, 64),
            ];
            let (_, done) = run_on_ring(&mut dev, reqs);
            assert!(done[0].result.is_ok());
            assert!(matches!(done[1].result, Err(DeviceError::Unsupported(_))));
            assert!(matches!(done[2].result, Err(DeviceError::OutOfBounds { .. })));
            assert!(done[3].result.is_ok());
            assert_eq!(done[4].result.as_ref().unwrap(), &vec![7u8; 64]);
            assert_eq!(dev.stats().trims, 1);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn two_rings_share_the_device_without_crosstalk() {
        let path = temp_path("two-rings");
        {
            let mut dev = FileDevice::with_queue_depth(&path, 1 << 20, 4).unwrap();
            for i in 0..16u64 {
                dev.write_at(i * 4096, &[i as u8 + 1; 4096]).unwrap();
            }
            let mut ring_a = CompletionRing::for_queue(dev.queue());
            let mut ring_b = CompletionRing::for_queue(dev.queue());
            let pages = |from: u64| {
                (from..from + 8)
                    .map(|i| RingRequest::new(IoRequest::read(i * 4096, 4096)))
                    .collect::<Vec<_>>()
            };
            for (ring, first_page) in [(&mut ring_a, 0u8), (&mut ring_b, 8u8)] {
                let done = dev.submit(pages(first_page as u64), ring).unwrap();
                // Each read returns its own page, whatever order the lanes
                // retired them in.
                for c in &done {
                    assert_eq!(
                        c.result.as_ref().unwrap(),
                        &vec![first_page + c.index as u8 + 1; 4096]
                    );
                }
                // A ring's clock is its caller's: B's first read does not
                // queue behind A's.
                assert!(done.iter().any(|c| c.started_at == SimDuration::ZERO));
            }
            // Writes, too, book on the ring that carried them.
            dev.submit(vec![RingRequest::new(IoRequest::write(0, vec![3u8; 4096]))], &mut ring_a)
                .unwrap();
            dev.submit(
                vec![RingRequest::new(IoRequest::write(4096, vec![4u8; 4096]))],
                &mut ring_b,
            )
            .unwrap();
            assert_eq!((ring_a.depth_high_water(), ring_b.depth_high_water()), (9, 9));
            let mut buf = [0u8; 8192];
            dev.read_at(0, &mut buf).unwrap();
            assert_eq!((buf[0], buf[4096]), (3, 4));
            let s = dev.stats();
            assert_eq!((s.reads, s.requests_reaped), (17, 18));
        }
        std::fs::remove_file(&path).ok();
    }
}
