//! Sharing one physical device between several owners.
//!
//! [`SharedDevice`] is a cloneable handle to one underlying [`Device`]
//! behind one lock, optionally restricted to a byte window ("partition")
//! of it, so layers that own one device per index, such as `StripedClam`'s
//! stripes, can stripe over one simulated device. Every handle shares its
//! byte store, FTL state and [`IoStats`](crate::IoStats), but each caller
//! books its requests on a [`CompletionRing`](crate::CompletionRing) of its
//! own: partitions contend for the lock, not for modelled queue lanes.
//!
//! A partition is one more [`Geometry`] under the command rules
//! (`device.rs`): the provided per-op methods check a call against the
//! window, and a ring request is checked and translated once, in
//! `translate`, so a stripe cannot reach outside its window. A command
//! holds the lock for its duration, a [`Device::submit`] call once for its
//! whole batch. A file image's stripes share no lock: each is
//! [detached](SharedDevice::detach) onto a [`FileDevice`] window of its
//! own, with its own lock, file descriptor and ledger.

use std::sync::{Arc, Mutex, PoisonError};

use crate::device::{execute, Device};
use crate::error::{DeviceError, Result};
use crate::file_backend::FileDevice;
use crate::geometry::Geometry;
use crate::profiles::DeviceProfile;
use crate::queue::{CompletionRing, IoRequest, RingCompletion, RingRequest};
use crate::stats::IoStats;
use crate::time::SimDuration;

/// A cloneable, optionally windowed handle to one underlying device.
#[derive(Debug)]
pub struct SharedDevice<D: Device> {
    inner: Arc<Mutex<D>>,
    /// Cached at construction (profiles are immutable after construction),
    /// so [`Device::profile`] can return a reference without holding the
    /// lock.
    profile: DeviceProfile,
    /// Geometry of this handle's window.
    geometry: Geometry,
    /// Byte offset of the window within the underlying device.
    base: u64,
}

impl<D: Device> Clone for SharedDevice<D> {
    fn clone(&self) -> Self {
        SharedDevice {
            inner: Arc::clone(&self.inner),
            profile: self.profile.clone(),
            geometry: self.geometry,
            base: self.base,
        }
    }
}

impl<D: Device> SharedDevice<D> {
    /// Wraps `device` for shared use; the handle spans the whole device.
    pub fn new(device: D) -> Self {
        let profile = device.profile().clone();
        let geometry = device.geometry();
        SharedDevice { inner: Arc::new(Mutex::new(device)), profile, geometry, base: 0 }
    }

    /// A handle restricted to the window `[base, base + len)` of this
    /// handle's window. `base` and `len` must be erase-block aligned (so
    /// block indices translate cleanly) and lie within this window.
    pub fn partition(&self, base: u64, len: u64) -> Result<SharedDevice<D>> {
        let block = self.geometry.block_size as u64;
        if !base.is_multiple_of(block) || !len.is_multiple_of(block) {
            return Err(DeviceError::InvalidConfig(format!(
                "partition [{base}, {base}+{len}) is not aligned to the {block}-byte erase block"
            )));
        }
        self.geometry.check_bounds(base, len as usize)?;
        let geometry = Geometry::new(len, self.geometry.page_size, self.geometry.block_size)?;
        Ok(SharedDevice {
            inner: Arc::clone(&self.inner),
            profile: self.profile.clone(),
            geometry,
            base: self.base + base,
        })
    }

    /// Splits this handle's window into `n` equal partitions (in offset
    /// order). The per-partition size is rounded **down** to the erase
    /// block, so every partition is aligned; trailing bytes that do not
    /// divide evenly are left unassigned. This is the striping helper
    /// behind serving layers that run one `Clam` per partition of a
    /// single physical device (e.g. `clamd`'s `StripedClam` backend).
    pub fn split(&self, n: usize) -> Result<Vec<SharedDevice<D>>> {
        if n == 0 {
            return Err(DeviceError::InvalidConfig("cannot split a device into 0 parts".into()));
        }
        let block = self.geometry.block_size as u64;
        let per = self.geometry.capacity / n as u64 / block * block;
        if per == 0 {
            return Err(DeviceError::InvalidConfig(format!(
                "{} bytes cannot host {n} block-aligned partitions (block {block})",
                self.geometry.capacity
            )));
        }
        (0..n as u64).map(|i| self.partition(i * per, per)).collect()
    }

    /// Runs `f` with exclusive access to the underlying device (offsets
    /// un-translated — this is the whole device, not the window).
    pub fn with<R>(&self, f: impl FnOnce(&mut D) -> R) -> R {
        f(&mut self.lock())
    }

    /// [`Device::submit`], discarding the completions. Kept for
    /// `benchmark/ladder.rs` until ROADMAP item 8.
    pub fn submit_nowait(
        &mut self,
        requests: Vec<RingRequest>,
        ring: &mut CompletionRing,
    ) -> Result<()> {
        self.submit(requests, ring).map(drop)
    }

    /// [`CompletionRing::sync`]: every request has finished inside its
    /// `submit` call already. Kept for `benchmark/ladder.rs` until ROADMAP
    /// item 8.
    pub fn reap(&mut self, ring: &mut CompletionRing, _max: usize) -> Result<()> {
        ring.sync();
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, D> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The first erase block of the window, in device blocks.
    fn base_block(&self) -> u64 {
        self.base / self.geometry.block_size as u64
    }

    /// Checks a window-relative ring request against the window and
    /// translates it into device coordinates, for [`Device::submit`],
    /// which runs the inner device's per-op methods under one lock. A
    /// per-op call on the handle needs no second check: the provided
    /// method checks it against the window's [`Geometry`] before the
    /// command runs.
    fn translate(&self, request: &mut IoRequest) -> Result<()> {
        match request {
            IoRequest::Read { offset, len } => {
                self.geometry.check_bounds(*offset, *len)?;
                *offset += self.base;
            }
            IoRequest::Write { offset, bufs } => {
                self.geometry.check_bounds(*offset, bufs.iter().map(Vec::len).sum())?;
                *offset += self.base;
            }
            IoRequest::Trim { offset, len } => {
                self.geometry.check_bounds(*offset, *len as usize)?;
                *offset += self.base;
            }
            IoRequest::Erase { block } => {
                self.geometry.check_block(*block)?;
                *block += self.base_block();
            }
        }
        Ok(())
    }
}

impl SharedDevice<FileDevice> {
    /// This handle's window as a device of its own
    /// ([`FileDevice::window`]) behind a lock of its own, so its I/O never
    /// waits on another window's.
    pub fn detach(&self) -> Result<SharedDevice<FileDevice>> {
        self.with(|file| file.window(self.base, self.geometry.capacity)).map(SharedDevice::new)
    }
}

impl<D: Device> Device for SharedDevice<D> {
    fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn medium_read(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration> {
        let at = self.base + offset;
        self.lock().medium_read(at, buf)
    }

    fn medium_write(&mut self, offset: u64, bufs: &[&[u8]]) -> Result<SimDuration> {
        let at = self.base + offset;
        self.lock().medium_write(at, bufs)
    }

    fn medium_erase(&mut self, block: u64) -> Result<SimDuration> {
        let at = self.base_block() + block;
        self.lock().medium_erase(at)
    }

    fn medium_trim(&mut self, offset: u64, len: u64) -> Result<SimDuration> {
        let at = self.base + offset;
        self.lock().medium_trim(at, len)
    }

    fn submit(
        &mut self,
        requests: Vec<RingRequest>,
        ring: &mut CompletionRing,
    ) -> Result<Vec<RingCompletion>> {
        // One lock for the whole batch. A window violation fails its own
        // request, as every backend reports an out-of-bounds request, and
        // the ring books every other one at its device offset.
        let mut device = self.lock();
        let done = ring.run(requests, |request| {
            self.translate(request)?;
            execute(&mut *device, request)
        });
        device.update_stats(&mut |stats| ring.record(stats, &done));
        Ok(done)
    }

    fn stats(&self) -> IoStats {
        self.lock().stats()
    }

    fn update_stats(&mut self, update: &mut dyn FnMut(&mut IoStats)) {
        self.lock().update_stats(update)
    }

    fn name(&self) -> &'static str {
        self.profile.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramDevice;
    use crate::ssd::Ssd;

    #[test]
    fn partitions_translate_offsets_and_share_state() {
        let shared = SharedDevice::new(DramDevice::new(1 << 20).unwrap());
        let mut a = shared.partition(0, 512 * 1024).unwrap();
        let mut b = shared.partition(512 * 1024, 512 * 1024).unwrap();
        a.write_at(0, b"stripe a").unwrap();
        b.write_at(0, b"stripe b").unwrap();
        // The two partitions landed in disjoint windows of one device.
        let mut buf = [0u8; 8];
        shared.with(|d| d.read_at(0, &mut buf).unwrap());
        assert_eq!(&buf, b"stripe a");
        shared.with(|d| d.read_at(512 * 1024, &mut buf).unwrap());
        assert_eq!(&buf, b"stripe b");
        // Both partitions' traffic shows up in the one device's counters.
        assert_eq!(a.stats().writes, 2);
        // A partition cannot reach outside its window.
        assert!(a.write_at(512 * 1024, &[1]).is_err());
        assert!(shared.partition(0, 1 << 21).is_err(), "window exceeds the device");
        assert!(shared.partition(7, 4096).is_err(), "unaligned base");
    }

    #[test]
    fn split_yields_aligned_disjoint_partitions() {
        let shared = SharedDevice::new(DramDevice::new(1 << 20).unwrap());
        let mut parts = shared.split(3).unwrap();
        assert_eq!(parts.len(), 3);
        let per = parts[0].geometry().capacity;
        assert!(per.is_multiple_of(shared.geometry().block_size as u64));
        for (i, p) in parts.iter_mut().enumerate() {
            assert_eq!(p.geometry().capacity, per);
            p.write_at(0, &[i as u8 + 1]).unwrap();
        }
        for i in 0..3u64 {
            let mut b = [0u8; 1];
            shared.with(|d| d.read_at(i * per, &mut b).unwrap());
            assert_eq!(b[0], i as u8 + 1, "partition {i} start");
        }
        assert!(shared.split(0).is_err());
        assert!(shared.split(1 << 30).is_err(), "partitions would round to zero bytes");
    }

    #[test]
    fn partitioned_submissions_share_one_queue() {
        let shared = SharedDevice::new(Ssd::intel(8 << 20).unwrap());
        let mut a = shared.partition(0, 4 << 20).unwrap();
        let mut b = shared.partition(4 << 20, 4 << 20).unwrap();
        // Both partitions submit on one ring: one device, one timeline.
        let mut ring = CompletionRing::for_queue(a.queue());
        let ours = a
            .submit(
                vec![
                    RingRequest::new(IoRequest::write(0, vec![1u8; 4096])),
                    RingRequest::new(IoRequest::read(0, 4096)),
                    RingRequest::new(IoRequest::read(4 << 20, 4096)), // outside the window
                ],
                &mut ring,
            )
            .unwrap();
        let theirs = b
            .submit(vec![RingRequest::new(IoRequest::write(0, vec![2u8; 4096]))], &mut ring)
            .unwrap();
        let of = |index: usize| ours.iter().find(|c| c.index == index).unwrap();
        assert_eq!(of(1).result.as_ref().unwrap(), &vec![1u8; 4096]);
        assert!(matches!(of(2).result, Err(DeviceError::OutOfBounds { .. })));
        // `b`'s offset 0 is the device's 4 MiB: disjoint from `a`'s write,
        // so the two overlapped on the controller's lanes.
        assert_ne!(theirs[0].lane, of(0).lane);
        assert_eq!(theirs[0].started_at, SimDuration::ZERO);
        assert_eq!(ring.depth_high_water(), 4, "no sync between the two calls");
        // One ledger, on the one device, whichever handle is asked; the
        // window violation is one of the calls' requests like any other.
        let s = a.stats();
        assert_eq!((s.requests_submitted, s.ring_depth_high_water), (4, 4));
        assert_eq!(s.writes, 2, "the violation never reached the device");
        assert_eq!(s, b.stats());
        let mut buf = [0u8; 1];
        shared.with(|d| d.read_at(4 << 20, &mut buf).unwrap());
        assert_eq!(buf[0], 2);
    }

    #[test]
    fn a_panic_inside_with_leaves_another_partition_working() {
        let shared = SharedDevice::new(DramDevice::new(1 << 20).unwrap());
        let mut parts = shared.split(2).unwrap();
        parts[1].write_at(0, b"kept").unwrap();
        let held = shared.clone();
        let panicked = std::thread::spawn(move || held.with(|_| panic!("a command panicked")));
        assert!(panicked.join().is_err());
        let mut buf = [0u8; 4];
        parts[1].read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"kept");
    }

    #[test]
    fn the_benchmark_shims_submit_and_sync() {
        let mut dev = SharedDevice::new(DramDevice::new(1 << 20).unwrap());
        let mut ring = CompletionRing::for_queue(dev.queue());
        let reads = (0..3u64).map(|i| RingRequest::new(IoRequest::read(i * 4096, 4096))).collect();
        dev.submit_nowait(reads, &mut ring).unwrap();
        assert_eq!(ring.in_flight(), 3);
        dev.reap(&mut ring, usize::MAX).unwrap();
        assert_eq!(ring.in_flight(), 0);
        assert_eq!(dev.stats().reads, 3);
    }
}
