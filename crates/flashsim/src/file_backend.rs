//! Real-file storage backend.
//!
//! [`FileDevice`] stores bytes in an actual file on the host filesystem and
//! reports *measured wall-clock* latencies instead of simulated ones. It
//! exists so the data-structure layers can also be exercised against real
//! storage (the paper's prototype ran on ext3 files over real SSDs); the
//! simulated devices remain the default for reproducible experiments.
//!
//! I/O parallelism comes from a **persistent worker pool**: a fixed set of
//! worker threads (at most one per host core, capped by the queue depth) is
//! spawned once at construction, fed by a shared injector queue, and shut
//! down when the device drops. Nothing on the hot path spawns threads, and
//! a request crosses to a pool thread only when that pays (below).
//!
//! Requests arrive through the completion ring
//! ([`Device::submit_nowait`] / [`Device::reap`]): a request whose byte
//! range conflicts with an in-flight request is held back (and dispatched
//! the moment its dependencies retire, so admission order = data-effect
//! order), an independent one starts at once, and completions stream back
//! through the caller's [`CompletionRing`], whose lane free-at clocks turn
//! the measured per-request latencies into a single continuous queue
//! schedule.
//!
//! **A read is handed to the pool only when it pays.** An independent ring
//! read executes at admission, on the submitting thread, for as long as
//! this device's own recent read latencies ([`ReadCost`]) stay below what a
//! hand-off costs ([`HANDOFF_COST`]): a `pread` the page cache answers takes
//! about a microsecond, a trip through the injector queue and two wake-ups
//! several times that. Once reads turn slow (a real medium, a cold cache)
//! they go to the pool, where they overlap, and they come back when the
//! pool's measured times fall again. Writes always take the pool (running
//! them on the caller's thread was measured and moved nothing), except on
//! a single-worker pool, which can overlap nothing and runs every request
//! on the caller's thread.
//!
//! Lanes model the **device queue**, exactly as the simulated backends do:
//! on a host with fewer cores than the queue depth, physical overlap is
//! smaller than the lane count — and a read that ran on the caller's
//! thread overlapped nothing physically — but the completion accounting
//! still reflects what a device with that queue depth would retire from
//! the measured per-request latencies. That is the metric the
//! `io_queue_depth` harness sweeps (it reports host wall time and the
//! share of inline reads alongside for transparency).

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
// Positioned I/O (pread/pwrite-style) lets the worker pool share one file
// handle without seat-of-the-pants seek locking; it pins flashsim to Unix
// hosts, which is what CI and the experiment environment run.
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::device::Device;
use crate::error::{DeviceError, Result};
use crate::geometry::Geometry;
use crate::profiles::{DeviceProfile, MediumKind};
use crate::queue::{
    ranges_conflict, CompletionRing, IoRequest, IoTicket, QueueCapabilities, RingCompletion,
    RingRequest,
};
use crate::stats::IoStats;
use crate::time::SimDuration;

/// Default worker-pool size (queue depth) for [`FileDevice::create`].
pub const DEFAULT_FILE_QUEUE_DEPTH: usize = 8;

/// What handing one read to the pool costs on this host, and so the read
/// latency below which a ring read runs on the submitting thread instead.
/// Measured on the 2-vCPU KVM guest the repo benchmark runs on (DESIGN.md
/// "Hand a read to the pool only when it pays" has the table): a 4 KiB
/// `pread` the page cache answers costs 0.6 to 0.8 µs on the calling
/// thread and 32 KiB 2.2 to 3.2 µs; the same read through the injector
/// queue and a `Condvar` wake-up each way costs 3.5 µs of wall when the
/// worker's core happens to be awake and 44 to 53 µs when it is not, the
/// usual case for a read submitted alone. 20 µs lies inside that range,
/// several times above anything the page cache answers (8 µs is the most
/// a cold pool core measured for 32 KiB) and five times below the nearest
/// real medium (an SSD read starts near 100 µs), so nothing here is
/// sensitive to its exact value. Like `SPAWN_FLOOR_OPS` in `bufferhash`
/// it is a measured property of the host, not a tuning knob.
const HANDOFF_COST: SimDuration = SimDuration::from_micros(20);

/// Running mean of this device's read latencies: the one measurement the
/// inline-or-pool decision is made from. It is fed by [`FileDevice::account`]
/// with whatever the executing thread measured — the caller's thread while
/// reads run inline, a pool worker otherwise — so the device finds its way
/// in both directions without probing.
#[derive(Debug, Default)]
struct ReadCost {
    mean_ns: u64,
}

impl ReadCost {
    /// Reads the mean spans: short enough to follow a cache going cold
    /// within a handful of reads, long enough that one outlier is an
    /// eighth of the estimate.
    const WINDOW: u64 = 8;
    /// No sample counts for more than this. A read that was pre-empted for
    /// milliseconds says nothing about the medium; clamped, it moves the
    /// mean by at most half of [`HANDOFF_COST`], so it takes several slow
    /// reads in a row to leave the caller's thread and a dozen fast ones to
    /// return to it.
    const SAMPLE_CAP_NS: u64 = 4 * HANDOFF_COST.as_nanos();

    fn observe(&mut self, latency: SimDuration) {
        let sample = latency.as_nanos().min(Self::SAMPLE_CAP_NS);
        self.mean_ns = (self.mean_ns * (Self::WINDOW - 1) + sample) / Self::WINDOW;
    }

    /// `true` while a read is cheaper than handing it to the pool.
    fn inline(&self) -> bool {
        self.mean_ns < HANDOFF_COST.as_nanos()
    }
}

/// One unit of work for the pool: a positioned read or write.
#[derive(Debug)]
struct PoolJob {
    /// Device-wide job id.
    id: u64,
    offset: u64,
    /// `Some(data)` for writes, `None` for reads.
    write: Option<Vec<u8>>,
    /// Read length (0 for writes).
    read_len: usize,
}

/// Outcome of one positioned read or write, timed on the thread that
/// executed it.
#[derive(Debug)]
struct TimedIo {
    latency: SimDuration,
    /// `(was_write, bytes_transferred)` for stats accounting (`None` when
    /// the I/O failed).
    write_bytes: Option<(bool, usize)>,
    result: Result<Vec<u8>>,
}

/// A finished pool job.
#[derive(Debug)]
struct DoneJob {
    id: u64,
    io: TimedIo,
}

/// State shared between the device and its worker threads.
#[derive(Debug)]
struct PoolShared {
    file: Arc<File>,
    jobs: Mutex<VecDeque<PoolJob>>,
    jobs_cv: Condvar,
    done: Mutex<Vec<DoneJob>>,
    done_cv: Condvar,
    shutdown: AtomicBool,
    /// Test-only stand-in for a slow medium: microseconds every read
    /// sleeps inside its timed region.
    #[cfg(test)]
    read_delay_us: std::sync::atomic::AtomicU64,
}

impl PoolShared {
    /// Executes and times one positioned read (`write` is `None`) or
    /// write: the only place the ring touches the file, on whichever
    /// thread the caller is.
    fn timed_io(&self, offset: u64, write: Option<&[u8]>, read_len: usize) -> TimedIo {
        let start = Instant::now();
        let result = match write {
            Some(data) => self.file.write_all_at(data, offset).map(|()| Vec::new()),
            None => {
                #[cfg(test)]
                match self.read_delay_us.load(Ordering::Relaxed) {
                    0 => {}
                    us => std::thread::sleep(std::time::Duration::from_micros(us)),
                }
                let mut buf = vec![0u8; read_len];
                self.file.read_exact_at(&mut buf, offset).map(|()| buf)
            }
        };
        TimedIo {
            latency: SimDuration::from_nanos(start.elapsed().as_nanos() as u64),
            write_bytes: result
                .is_ok()
                .then_some((write.is_some(), write.map_or(read_len, <[u8]>::len))),
            result: result.map_err(DeviceError::from),
        }
    }

    fn execute(&self, job: PoolJob) {
        let io = self.timed_io(job.offset, job.write.as_deref(), job.read_len);
        self.done.lock().expect("pool done lock").push(DoneJob { id: job.id, io });
        self.done_cv.notify_all();
    }
}

/// The persistent worker pool: spawned once at device construction, fed by
/// a shared injector queue, joined on drop.
#[derive(Debug)]
struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new(file: Arc<File>, workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            file,
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            done: Mutex::new(Vec::new()),
            done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            #[cfg(test)]
            read_delay_us: std::sync::atomic::AtomicU64::new(0),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut jobs = shared.jobs.lock().expect("pool job lock");
                        loop {
                            if shared.shutdown.load(Ordering::Relaxed) {
                                return;
                            }
                            if let Some(job) = jobs.pop_front() {
                                break job;
                            }
                            jobs = shared.jobs_cv.wait(jobs).expect("pool job lock");
                        }
                    };
                    shared.execute(job);
                })
            })
            .collect();
        WorkerPool { shared, workers }
    }

    fn len(&self) -> usize {
        self.workers.len()
    }

    fn push(&self, job: PoolJob) {
        self.shared.jobs.lock().expect("pool job lock").push_back(job);
        self.shared.jobs_cv.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.jobs_cv.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("file worker panicked");
        }
    }
}

/// Bookkeeping for one ring request handed to the pool.
#[derive(Debug)]
struct RingMeta {
    ticket: IoTicket,
    /// Epoch of the ring the request was admitted to, so results can be
    /// parked for the right ring when several rings share this device.
    epoch: u64,
    range: Option<(u64, u64)>,
    is_read: bool,
}

/// A completion that arrived while a different ring was being reaped:
/// `(ticket, latency, result)`, delivered at its own ring's next reap.
type ParkedCompletion = (IoTicket, SimDuration, Result<Vec<u8>>);

/// A ring request held back because its byte range conflicts with work
/// still in flight; dispatched the moment the last blocker retires.
#[derive(Debug)]
struct BlockedRingJob {
    job: PoolJob,
    meta: RingMeta,
    /// Job ids this request must wait for.
    blockers: Vec<u64>,
}

/// A device backed by a real file, reporting wall-clock latencies.
#[derive(Debug)]
pub struct FileDevice {
    profile: DeviceProfile,
    geometry: Geometry,
    file: Arc<File>,
    stats: IoStats,
    pool: WorkerPool,
    /// What a read has cost lately: decides whether the next independent
    /// ring read runs on the submitting thread or on the pool.
    read_cost: ReadCost,
    /// Next id in the device-wide job namespace.
    next_job_id: u64,
    /// Ring requests currently executing on (or queued for) the pool.
    ring_dispatched: HashMap<u64, RingMeta>,
    /// Ring requests held back by range conflicts.
    ring_blocked: Vec<BlockedRingJob>,
    /// Finished ring completions awaiting a reap of their own ring, keyed
    /// by ring epoch.
    parked: HashMap<u64, Vec<ParkedCompletion>>,
}

impl FileDevice {
    /// Creates (or truncates) a backing file of `capacity` bytes with the
    /// default queue depth of [`DEFAULT_FILE_QUEUE_DEPTH`].
    pub fn create<P: AsRef<Path>>(path: P, capacity: u64) -> Result<Self> {
        Self::with_queue_depth(path, capacity, DEFAULT_FILE_QUEUE_DEPTH)
    }

    /// Creates (or truncates) a backing file of `capacity` bytes with a
    /// submission queue `queue_depth` deep (1 = strictly serial, like the
    /// per-op methods).
    ///
    /// The persistent worker pool is spawned here — sized
    /// `min(queue_depth, host cores)`, since oversubscribing the host's
    /// cores would only add scheduler noise to the measured per-request
    /// latencies — and shut down when the device drops.
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
        let file = Arc::new(file);
        let profile = DeviceProfile {
            name: "File-backed device",
            kind: MediumKind::Ssd,
            page_size: page,
            block_size: page,
            queue: QueueCapabilities::overlapped(queue_depth),
            ..DeviceProfile::intel_x18m()
        };
        let geometry = Geometry::new(capacity, page, page)?;
        let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool = WorkerPool::new(Arc::clone(&file), queue_depth.min(host_parallelism));
        Ok(FileDevice {
            profile,
            geometry,
            file,
            stats: IoStats::default(),
            pool,
            read_cost: ReadCost::default(),
            next_job_id: 0,
            ring_dispatched: HashMap::new(),
            ring_blocked: Vec::new(),
            parked: HashMap::new(),
        })
    }

    /// Number of threads in the persistent worker pool (visible for tests
    /// and diagnostics).
    pub fn pool_workers(&self) -> usize {
        self.pool.len()
    }

    fn next_job_id(&mut self) -> u64 {
        let id = self.next_job_id;
        self.next_job_id += 1;
        id
    }

    /// Accounts one finished request in the device counters. Every read's
    /// latency also feeds the estimate the next ring read is routed by.
    fn account(&mut self, write_bytes: Option<(bool, usize)>, latency: SimDuration) {
        match write_bytes {
            Some((true, bytes)) => {
                self.stats.writes += 1;
                self.stats.bytes_written += bytes as u64;
                self.stats.write_time += latency;
            }
            Some((false, bytes)) => {
                self.stats.reads += 1;
                self.stats.bytes_read += bytes as u64;
                self.stats.read_time += latency;
                self.read_cost.observe(latency);
            }
            None => {}
        }
    }

    /// Handles one finished pool job of the ring path: accounts it,
    /// releases its dependents, and delivers its completion — into `ring`
    /// if it belongs to it, parked for its own ring otherwise.
    fn process_done(&mut self, done: DoneJob, ring: &mut CompletionRing) {
        let DoneJob { id: done_id, io } = done;
        let meta = self
            .ring_dispatched
            .remove(&done_id)
            .expect("pool result for a request this device dispatched");
        self.account(io.write_bytes, io.latency);
        // Release dependents and dispatch the newly unblocked ones in
        // admission order.
        let mut unblocked = Vec::new();
        let mut i = 0;
        while i < self.ring_blocked.len() {
            let blocked = &mut self.ring_blocked[i];
            blocked.blockers.retain(|&b| b != done_id);
            if blocked.blockers.is_empty() {
                unblocked.push(self.ring_blocked.remove(i));
            } else {
                i += 1;
            }
        }
        for blocked in unblocked {
            self.ring_dispatched.insert(blocked.job.id, blocked.meta);
            self.pool.push(blocked.job);
        }
        if meta.epoch == ring.epoch() {
            ring.finish(meta.ticket, io.latency, io.result);
        } else {
            self.parked.entry(meta.epoch).or_default().push((meta.ticket, io.latency, io.result));
        }
    }
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
        let lat = SimDuration::from_nanos(start.elapsed().as_nanos() as u64);
        self.account(Some((false, buf.len())), lat);
        Ok(lat)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration> {
        self.geometry.check_bounds(offset, data.len())?;
        let start = Instant::now();
        self.file.write_all_at(data, offset)?;
        let lat = SimDuration::from_nanos(start.elapsed().as_nanos() as u64);
        self.account(Some((true, data.len())), lat);
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

    /// Native ring submission: a request whose byte range conflicts with an
    /// in-flight request (of any ring on this device) is held back and
    /// dispatched the moment its last blocker retires, so overlapping
    /// ranges apply in admission order without a batch-wide barrier; an
    /// independent request starts at once.
    ///
    /// Where it starts follows PR 13's rule that a thread is used only
    /// when it pays. An independent *read* executes right here, on the
    /// submitting thread, and is finished into `ring` before the next
    /// request is looked at, while `ReadCost` says a read is cheaper
    /// than a hand-off; slower reads, and writes, go to the pool and
    /// overlap there. A single-worker pool (depth 1, or a one-core host)
    /// can overlap nothing, so there every request runs on this thread.
    /// The conflict check is what makes running at admission safe: a
    /// request with no blocker has nothing admitted before it that it
    /// could overtake.
    fn submit_nowait(
        &mut self,
        requests: Vec<RingRequest>,
        ring: &mut CompletionRing,
    ) -> Result<Vec<IoTicket>> {
        let mut tickets = Vec::with_capacity(requests.len());
        for RingRequest { request, not_before } in requests {
            let ticket = ring.admit(&request, not_before);
            tickets.push(ticket);
            let (offset, write, read_len) = match request {
                IoRequest::Read { offset, len } => {
                    if let Err(e) = self.geometry.check_bounds(offset, len) {
                        ring.finish(ticket, SimDuration::ZERO, Err(e));
                        continue;
                    }
                    (offset, None, len)
                }
                IoRequest::Write { offset, data } => {
                    if let Err(e) = self.geometry.check_bounds(offset, data.len()) {
                        ring.finish(ticket, SimDuration::ZERO, Err(e));
                        continue;
                    }
                    (offset, Some(data), 0)
                }
                IoRequest::Erase { .. } => {
                    ring.finish(
                        ticket,
                        SimDuration::ZERO,
                        Err(DeviceError::Unsupported("erase_block on a file-backed device")),
                    );
                    continue;
                }
                IoRequest::Trim { offset, len } => {
                    let done = self.trim(offset, len).map(|_| Vec::new());
                    ring.finish(ticket, SimDuration::ZERO, done);
                    continue;
                }
            };
            let is_read = write.is_none();
            let end = offset + write.as_deref().map_or(read_len, <[u8]>::len) as u64;
            let range = (offset, end, is_read);
            // Dependencies: every in-flight request (dispatched or still
            // blocked) whose range conflicts. Blocked blockers make the
            // ordering transitive.
            let mut blockers: Vec<u64> = self
                .ring_dispatched
                .iter()
                .filter(|(_, m)| {
                    m.range.is_some_and(|(s, e)| ranges_conflict(range, (s, e, m.is_read)))
                })
                .map(|(&id, _)| id)
                .collect();
            blockers.extend(
                self.ring_blocked
                    .iter()
                    .filter(|b| {
                        b.meta
                            .range
                            .is_some_and(|(s, e)| ranges_conflict(range, (s, e, b.meta.is_read)))
                    })
                    .map(|b| b.job.id),
            );
            if blockers.is_empty() && (self.pool.len() == 1 || (is_read && self.read_cost.inline()))
            {
                let io = self.pool.shared.timed_io(offset, write.as_deref(), read_len);
                self.stats.reads_inline += u64::from(is_read && io.result.is_ok());
                self.account(io.write_bytes, io.latency);
                ring.finish(ticket, io.latency, io.result);
                continue;
            }
            let id = self.next_job_id();
            let job = PoolJob { id, offset, write, read_len };
            let meta =
                RingMeta { ticket, epoch: ring.epoch(), range: Some((offset, end)), is_read };
            if blockers.is_empty() {
                self.ring_dispatched.insert(id, meta);
                self.pool.push(job);
            } else {
                self.ring_blocked.push(BlockedRingJob { job, meta, blockers });
            }
        }
        ring.record_admission(&mut self.stats, tickets.len());
        Ok(tickets)
    }

    /// Waits until at least `min` completions of `ring` are ready (fewer
    /// only if fewer are in flight), processing pool results — including
    /// results belonging to other rings sharing this device, which are
    /// parked for their own reap — as they arrive.
    fn reap(&mut self, ring: &mut CompletionRing, min: usize) -> Result<Vec<RingCompletion>> {
        let min = min.max(1);
        loop {
            // Results of this ring processed during another ring's reap.
            if let Some(parked) = self.parked.remove(&ring.epoch()) {
                for (ticket, latency, result) in parked {
                    ring.finish(ticket, latency, result);
                }
            }
            let arrived =
                std::mem::take(&mut *self.pool.shared.done.lock().expect("pool done lock"));
            for done in arrived {
                self.process_done(done, ring);
            }
            if ring.ready_len() >= min.min(ring.in_flight()) || ring.in_flight() == 0 {
                break;
            }
            // Nothing ready yet: wait for the pool to finish something.
            let shared = &self.pool.shared;
            let done = shared.done.lock().expect("pool done lock");
            if done.is_empty() {
                drop(shared.done_cv.wait(done).expect("pool done lock"));
            }
        }
        Ok(ring.reap_recorded(&mut self.stats))
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
    fn pool_is_persistent_and_sized_by_depth_and_cores() {
        let path = temp_path("pool-size");
        {
            let dev = FileDevice::with_queue_depth(&path, 1 << 20, 4).unwrap();
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            assert_eq!(dev.pool_workers(), 4.min(cores));
            let serial = FileDevice::with_queue_depth(&path, 1 << 20, 1).unwrap();
            assert_eq!(serial.pool_workers(), 1);
        } // drop shuts both pools down without hanging
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn submit_runs_disjoint_requests_on_the_pool() {
        let path = temp_path("submit-pool");
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
            // Pooled requests finish inside `reap`: the stalls they
            // surface there reach the device's counters too, each once.
            let s = dev.stats();
            assert_eq!(s.ring_admission_stalls, ring.admission_stalls());
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
            let tickets = dev.submit_nowait(writes, &mut ring).unwrap();
            assert_eq!(tickets.len(), 8);
            assert_eq!(ring.in_flight(), 8);
            let mut reaped = 0;
            while ring.in_flight() > 0 {
                let done = dev.reap(&mut ring, 1).unwrap();
                assert!(!done.is_empty());
                for c in &done {
                    assert!(c.result.is_ok(), "{:?}", c.result);
                }
                reaped += done.len();
            }
            assert_eq!(reaped, 8);
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
            // the last write even though everything was submitted without
            // waiting.
            let mut reqs: Vec<RingRequest> = (0..16u64)
                .map(|i| RingRequest::new(IoRequest::write(0, vec![i as u8; 4096])))
                .collect();
            reqs.push(RingRequest::new(IoRequest::read(0, 4096)));
            let tickets = dev.submit_nowait(reqs, &mut ring).unwrap();
            let read_ticket = *tickets.last().unwrap();
            let mut read_data = None;
            while ring.in_flight() > 0 {
                for c in dev.reap(&mut ring, 1).unwrap() {
                    let data = c.result.unwrap();
                    if c.ticket == read_ticket {
                        read_data = Some(data);
                    }
                }
            }
            assert_eq!(read_data.unwrap()[0], 15, "read sees the last admitted write");
            assert!(ring.admission_stalls() > 0, "conflict chain must stall admissions");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ring_reports_per_request_errors_without_aborting() {
        let path = temp_path("ring-errors");
        {
            let mut dev = FileDevice::with_queue_depth(&path, 8192, 2).unwrap();
            let mut ring = CompletionRing::for_queue(dev.queue());
            let reqs = vec![
                RingRequest::new(IoRequest::write(0, vec![7u8; 64])),
                RingRequest::new(IoRequest::Erase { block: 0 }),
                RingRequest::new(IoRequest::read(8192, 1)),
                RingRequest::new(IoRequest::Trim { offset: 0, len: 64 }),
                RingRequest::new(IoRequest::read(0, 64)),
            ];
            let tickets = dev.submit_nowait(reqs, &mut ring).unwrap();
            let mut results: HashMap<u64, Result<Vec<u8>>> = HashMap::new();
            while ring.in_flight() > 0 {
                for c in dev.reap(&mut ring, 1).unwrap() {
                    results.insert(c.ticket.id(), c.result);
                }
            }
            assert!(results[&tickets[0].id()].is_ok());
            assert!(matches!(results[&tickets[1].id()], Err(DeviceError::Unsupported(_))));
            assert!(matches!(results[&tickets[2].id()], Err(DeviceError::OutOfBounds { .. })));
            assert!(results[&tickets[3].id()].is_ok());
            assert_eq!(results[&tickets[4].id()].as_ref().unwrap(), &vec![7u8; 64]);
            assert_eq!(dev.stats().trims, 1);
        }
        std::fs::remove_file(&path).ok();
    }

    impl FileDevice {
        /// Stands in for a slow medium: every read from now on sleeps `us`
        /// microseconds inside its timed region (0 lifts the delay).
        fn set_read_delay_us(&self, us: u64) {
            self.pool.shared.read_delay_us.store(us, Ordering::Relaxed);
        }

        /// One ring read of the page at `offset`, admitted and reaped on
        /// its own; returns the bytes.
        fn ring_read_page(&mut self, ring: &mut CompletionRing, offset: u64) -> Vec<u8> {
            self.submit_nowait(vec![RingRequest::new(IoRequest::read(offset, 4096))], ring)
                .unwrap();
            let mut done = self.reap(ring, 1).unwrap();
            assert_eq!(done.len(), 1);
            done.pop().unwrap().result.unwrap()
        }
    }

    #[test]
    fn read_cost_follows_the_medium_and_shrugs_off_an_outlier() {
        let us = SimDuration::from_micros;
        let mut cost = ReadCost::default();
        assert!(cost.inline(), "a new device starts on the caller's thread");
        for _ in 0..64 {
            cost.observe(us(1));
        }
        assert!(cost.inline());
        // A read pre-empted for 10 ms counts as SAMPLE_CAP_NS and no more:
        // the mean moves by at most half a hand-off and stays inline.
        cost.observe(SimDuration::from_millis(10));
        assert!(cost.mean_ns <= 1_000 + ReadCost::SAMPLE_CAP_NS / ReadCost::WINDOW);
        assert!(cost.inline(), "one outlier must not send reads to the pool");
        // A slow medium does, within a handful of reads, and keeps them there.
        let mut slow = 0;
        while cost.inline() {
            cost.observe(us(100));
            slow += 1;
            assert!(slow <= ReadCost::WINDOW, "still inline after {slow} slow reads");
        }
        for _ in 0..64 {
            cost.observe(SimDuration::from_millis(5));
        }
        assert!(!cost.inline());
        assert!(cost.mean_ns <= ReadCost::SAMPLE_CAP_NS, "the clamp bounds the mean too");
        // Once the pool measures fast reads again they come back, and no
        // backlog of slow history can hold them off for long.
        let mut fast = 0;
        while !cost.inline() {
            cost.observe(us(2));
            fast += 1;
            assert!(fast <= 4 * ReadCost::WINDOW, "still on the pool after {fast} fast reads");
        }
        assert!(fast > 1, "one fast read is not a trend");
    }

    #[test]
    fn hot_ring_reads_run_on_the_submitting_thread() {
        let path = temp_path("ring-inline-hot");
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
            let a = dev.submit_nowait(pages(0), &mut ring_a).unwrap();
            let b = dev.submit_nowait(pages(8), &mut ring_b).unwrap();
            // Finished at admission: both rings hold all their completions
            // before anything is reaped, and the pool never saw a job.
            assert_eq!((ring_a.ready_len(), ring_b.ready_len()), (8, 8));
            assert!(dev.ring_dispatched.is_empty() && dev.ring_blocked.is_empty());
            assert_eq!(dev.next_job_id, 0);
            // Reaped in the other order, each ring gets exactly its own.
            for (ring, tickets, first_page) in [(&mut ring_b, &b, 8u8), (&mut ring_a, &a, 0u8)] {
                let done = dev.reap(ring, 8).unwrap();
                assert_eq!(done.len(), 8);
                for c in done {
                    let page = tickets.iter().position(|t| *t == c.ticket).unwrap() as u8;
                    assert_eq!(c.result.unwrap(), vec![first_page + page + 1; 4096]);
                }
            }
            let s = dev.stats();
            assert_eq!((s.reads, s.reads_inline, s.requests_reaped), (16, 16, 16));
            assert!(s.to_string().contains("inline: 16 of 16 reads"), "{s}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slow_reads_move_to_the_pool_overlap_there_and_come_back() {
        let path = temp_path("ring-inline-slow");
        {
            let mut dev = FileDevice::with_queue_depth(&path, 1 << 20, 4).unwrap();
            let workers = dev.pool_workers() as u64;
            for i in 0..16u64 {
                dev.write_at(i * 4096, &[i as u8 + 1; 4096]).unwrap();
            }
            let mut ring = CompletionRing::for_queue(dev.queue());
            let inline_reads = |dev: &FileDevice| dev.stats().reads_inline;
            for i in 0..16u64 {
                assert_eq!(dev.ring_read_page(&mut ring, i * 4096)[0], i as u8 + 1);
            }
            assert_eq!(inline_reads(&dev), 16);

            // The medium turns slow. The first few reads still pay for it on
            // this thread (that is how the device finds out); the rest go
            // to the pool.
            dev.set_read_delay_us(2_000);
            for i in 0..8u64 {
                assert_eq!(dev.ring_read_page(&mut ring, i * 4096)[0], i as u8 + 1);
            }
            if workers == 1 {
                // One worker overlaps nothing: the caller's thread, always.
                assert_eq!(inline_reads(&dev), 24);
                drop(dev);
                std::fs::remove_file(&path).ok();
                return;
            }
            let slow_inline = inline_reads(&dev) - 16;
            assert!((1..=3).contains(&slow_inline), "{slow_inline} slow reads ran inline");
            for i in 0..4u64 {
                assert_eq!(dev.ring_read_page(&mut ring, i * 4096)[0], i as u8 + 1);
            }
            assert_eq!(inline_reads(&dev), 16 + slow_inline, "slow reads stay on the pool");

            // ... where they overlap: two rounds of `workers` reads, not
            // `2 * workers` reads one after another.
            const DELAY_MS: u64 = 20;
            dev.set_read_delay_us(DELAY_MS * 1_000);
            let reads: Vec<RingRequest> = (0..2 * workers)
                .map(|i| RingRequest::new(IoRequest::read(i * 4096, 4096)))
                .collect();
            let started = Instant::now();
            let tickets = dev.submit_nowait(reads, &mut ring).unwrap();
            assert_eq!(ring.ready_len(), 0, "none of them ran at admission");
            let mut reaped = 0;
            while ring.in_flight() > 0 {
                for c in dev.reap(&mut ring, 1).unwrap() {
                    let page = tickets.iter().position(|t| *t == c.ticket).unwrap();
                    assert_eq!(c.result.unwrap()[0], page as u8 + 1);
                    reaped += 1;
                }
            }
            let elapsed = started.elapsed();
            assert_eq!(reaped, 2 * workers);
            let serial = std::time::Duration::from_millis(2 * workers * DELAY_MS);
            assert!(elapsed < serial * 3 / 4, "{elapsed:?} for {serial:?} of serial reads");
            assert_eq!(inline_reads(&dev), 16 + slow_inline);

            // The delay lifts; the pool's own measurements say so, and
            // reads return to this thread.
            dev.set_read_delay_us(0);
            let mut on_pool = 0;
            while inline_reads(&dev) == 16 + slow_inline {
                dev.ring_read_page(&mut ring, 0);
                on_pool += 1;
                assert!(on_pool <= 64, "reads never came back inline");
            }
            assert!(on_pool > 1, "it takes more than one fast read to come back");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_read_behind_an_in_flight_write_waits_while_a_disjoint_one_runs_inline() {
        let path = temp_path("ring-inline-conflict");
        {
            let mut dev = FileDevice::with_queue_depth(&path, 1 << 20, 4).unwrap();
            let pooled = dev.pool_workers() > 1;
            dev.write_at(0, &[1u8; 4096]).unwrap();
            dev.write_at(8192, &[9u8; 4096]).unwrap();
            let mut ring = CompletionRing::for_queue(dev.queue());
            // The write goes to the pool and, whatever the worker does, is
            // in flight as far as the device knows until a reap sees it.
            let write = dev
                .submit_nowait(
                    vec![RingRequest::new(IoRequest::write(0, vec![2u8; 4096]))],
                    &mut ring,
                )
                .unwrap()[0];
            let reads = dev
                .submit_nowait(
                    vec![
                        RingRequest::new(IoRequest::read(0, 4096)),
                        RingRequest::new(IoRequest::read(8192, 4096)),
                    ],
                    &mut ring,
                )
                .unwrap();
            if pooled {
                assert_eq!(dev.ring_blocked.len(), 1, "the overlapping read is held back");
                assert_eq!(ring.ready_len(), 1, "only the disjoint read ran at admission");
            }
            assert_eq!(dev.stats().reads_inline, if pooled { 1 } else { 2 });
            let mut done = Vec::new();
            while ring.in_flight() > 0 {
                done.extend(dev.reap(&mut ring, 1).unwrap());
            }
            let of = |ticket: IoTicket| done.iter().find(|c| c.ticket == ticket).unwrap();
            assert_eq!(of(reads[0]).result.as_ref().unwrap(), &vec![2u8; 4096], "the new bytes");
            assert_eq!(of(reads[1]).result.as_ref().unwrap(), &vec![9u8; 4096]);
            assert!(of(reads[0]).started_at >= of(write).completed_at, "waits its turn");
            let s = dev.stats();
            assert_eq!((s.reads, s.reads_inline), (2, if pooled { 1 } else { 2 }));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn two_rings_share_the_device_without_crosstalk() {
        let path = temp_path("ring-epochs");
        {
            let mut dev = FileDevice::with_queue_depth(&path, 1 << 20, 4).unwrap();
            dev.write_at(0, &[1u8; 4096]).unwrap();
            dev.write_at(4096, &[2u8; 4096]).unwrap();
            let mut ring_a = CompletionRing::for_queue(dev.queue());
            let mut ring_b = CompletionRing::for_queue(dev.queue());
            dev.submit_nowait(vec![RingRequest::new(IoRequest::read(0, 4096))], &mut ring_a)
                .unwrap();
            dev.submit_nowait(vec![RingRequest::new(IoRequest::read(4096, 4096))], &mut ring_b)
                .unwrap();
            // Reaping B first may park A's result; A still gets it later.
            let b = dev.reap(&mut ring_b, 1).unwrap();
            assert_eq!(b.len(), 1);
            assert_eq!(b[0].result.as_ref().unwrap()[0], 2);
            let a = dev.reap(&mut ring_a, 1).unwrap();
            assert_eq!(a.len(), 1);
            assert_eq!(a[0].result.as_ref().unwrap()[0], 1);
            // Writes always cross to the pool, so this round does park.
            dev.submit_nowait(
                vec![RingRequest::new(IoRequest::write(0, vec![3u8; 4096]))],
                &mut ring_a,
            )
            .unwrap();
            dev.submit_nowait(
                vec![RingRequest::new(IoRequest::write(4096, vec![4u8; 4096]))],
                &mut ring_b,
            )
            .unwrap();
            assert_eq!(dev.reap(&mut ring_b, 1).unwrap().len(), 1);
            assert_eq!(dev.reap(&mut ring_a, 1).unwrap().len(), 1);
            let mut buf = [0u8; 8192];
            dev.read_at(0, &mut buf).unwrap();
            assert_eq!((buf[0], buf[4096]), (3, 4));
        }
        std::fs::remove_file(&path).ok();
    }
}
