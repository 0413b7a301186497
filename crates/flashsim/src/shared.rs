//! Sharing one physical device between several owners.
//!
//! [`SharedDevice`] is a cloneable handle to a single underlying
//! [`Device`], optionally restricted to a byte window ("partition") of it.
//! It exists so higher layers that own one device per index — e.g.
//! `StripedClam`, which gives every stripe its own `Clam<D>` — can instead
//! stripe over **one** physical device: each stripe gets a partition, and
//! all of their traffic funnels through the same device queue and
//! completion-ring timeline (one SSD controller's lanes, one file's), so
//! cross-batch requests genuinely contend and overlap on shared hardware.
//!
//! Partitions translate offsets (and erase-block indices) into the parent
//! window; bounds are enforced by each partition's own [`Geometry`], so a
//! stripe cannot reach outside its window. The underlying device's
//! statistics are shared by all handles — they describe the *device*, not
//! any one partition.
//!
//! Calls lock the shared device for their duration, so interleaving
//! between handles is at call granularity, and the lock covers every
//! backend's I/O: a simulated device only computes under it, the file
//! backend issues its positioned `pread` / `pwrite` under it (about a
//! microsecond for a 4 KiB read the page cache answers, about ten for a
//! 32 KiB write). A [`Device::submit`] call holds the lock once for its
//! whole batch and returns that batch's completions, so no handle ever
//! waits for another's work beyond the other's call.

use std::sync::{Arc, Mutex};

use crate::device::{execute, Device};
use crate::error::{DeviceError, Result};
use crate::geometry::Geometry;
use crate::profiles::DeviceProfile;
use crate::queue::{CompletionRing, IoRequest, QueueCapabilities, RingCompletion, RingRequest};
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
        f(&mut self.inner.lock().expect("shared device lock"))
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
        self.inner.lock().expect("shared device lock")
    }

    /// Translates a window-relative request into device coordinates.
    fn translate(&self, request: &mut IoRequest) -> Result<()> {
        match request {
            IoRequest::Read { offset, len } => {
                self.geometry.check_bounds(*offset, *len)?;
                *offset += self.base;
            }
            IoRequest::Write { offset, data } => {
                self.geometry.check_bounds(*offset, data.len())?;
                *offset += self.base;
            }
            IoRequest::Trim { offset, len } => {
                self.geometry.check_bounds(*offset, *len as usize)?;
                *offset += self.base;
            }
            IoRequest::Erase { block } => {
                let blocks = self.geometry.blocks();
                if *block >= blocks {
                    return Err(DeviceError::OutOfBounds {
                        offset: *block * self.geometry.block_size as u64,
                        len: self.geometry.block_size as usize,
                        capacity: self.geometry.capacity,
                    });
                }
                *block += self.base / self.geometry.block_size as u64;
            }
        }
        Ok(())
    }
}

impl<D: Device> Device for SharedDevice<D> {
    fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn queue(&self) -> QueueCapabilities {
        self.profile.queue
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration> {
        self.geometry.check_bounds(offset, buf.len())?;
        let base = self.base;
        self.lock().read_at(base + offset, buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> Result<SimDuration> {
        self.geometry.check_bounds(offset, data.len())?;
        let base = self.base;
        self.lock().write_at(base + offset, data)
    }

    fn erase_block(&mut self, block: u64) -> Result<SimDuration> {
        if block >= self.geometry.blocks() {
            return Err(DeviceError::OutOfBounds {
                offset: block * self.geometry.block_size as u64,
                len: self.geometry.block_size as usize,
                capacity: self.geometry.capacity,
            });
        }
        let translated = block + self.base / self.geometry.block_size as u64;
        self.lock().erase_block(translated)
    }

    fn trim(&mut self, offset: u64, len: u64) -> Result<SimDuration> {
        self.geometry.check_bounds(offset, len as usize)?;
        let base = self.base;
        self.lock().trim(base + offset, len)
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

    fn on_idle(&mut self, idle: SimDuration) {
        self.lock().on_idle(idle)
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
        assert_eq!((s.requests_submitted, s.requests_reaped, s.ring_depth_high_water), (4, 4, 4));
        assert_eq!(s.writes, 2, "the violation never reached the device");
        assert_eq!(s, b.stats());
        let mut buf = [0u8; 1];
        shared.with(|d| d.read_at(4 << 20, &mut buf).unwrap());
        assert_eq!(buf[0], 2);
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
