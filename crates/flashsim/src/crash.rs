//! Crash injection: a [`Device`] wrapper that simulates a power cut.
//!
//! [`CrashDevice`] wraps any inner backend and counts *data-effect
//! operations*: the medium's reads, writes, erases and trims that the
//! completion ring ([`Device::submit`]) funnels through in submission
//! order. Its commands are `charge` plus a forward, so the command rules
//! (`device.rs`) turn an out-of-range or empty command away before it is
//! charged, exactly as a medium never sees one. When an armed budget runs
//! out the device "loses power": the
//! fatal operation fails, optionally after applying a **torn prefix** of a
//! fatal write (a page program interrupted mid-flight), and every
//! subsequent operation fails too. Because the wrapper deliberately does
//! **not** override [`Device::submit`], the provided engine drives its
//! per-op methods in submission order — so a budget of `N` cuts the
//! schedule exactly after the `N`-th applied request, wherever that lands
//! inside a `submit` call, mirroring how a
//! real power cut slices an NVMe submission stream. The queue ledger
//! still lands in the inner device's counters
//! ([`Device::update_stats`] forwards), so an unarmed wrapper is
//! transparent in [`Device::stats`] too.
//!
//! After the cut, [`CrashDevice::into_inner`] surrenders the inner device —
//! the flash image as the next boot would find it — for a recovery scan.

use crate::device::{list_len, Device};
use crate::error::{DeviceError, Result};
use crate::geometry::Geometry;
use crate::profiles::DeviceProfile;
use crate::stats::IoStats;
use crate::time::SimDuration;

/// Counters describing what the injected crash did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashStats {
    /// Data-effect operations applied since the device was armed (or
    /// created, if never armed).
    pub ops_applied: u64,
    /// Whether the power cut has happened.
    pub cut: bool,
    /// Operations refused after the cut.
    pub denied_after_cut: u64,
    /// The fatal write's `(offset, bytes_applied)` torn prefix, when the
    /// cut landed mid-write with a non-zero torn length.
    pub torn_write: Option<(u64, u64)>,
}

/// A [`Device`] wrapper that cuts the power after a configured number of
/// applied operations — see the module docs above for the schedule
/// semantics.
#[derive(Debug)]
pub struct CrashDevice<D: Device> {
    inner: D,
    /// Remaining operations before the cut; `None` means unarmed
    /// (transparent pass-through).
    budget: Option<u64>,
    /// Bytes of a fatal write to apply before failing it (0 = the fatal
    /// write has no effect at all).
    torn_write_bytes: usize,
    dead: bool,
    stats: CrashStats,
    /// `(offset, len)` of every write fully applied since arming, so crash
    /// tests can tell which incarnation writes beat the cut.
    applied_writes: Vec<(u64, u64)>,
}

impl<D: Device> CrashDevice<D> {
    /// Wraps `inner` unarmed: every operation passes through until
    /// [`arm`](Self::arm) is called.
    pub fn new(inner: D) -> Self {
        CrashDevice {
            inner,
            budget: None,
            torn_write_bytes: 0,
            dead: false,
            stats: CrashStats::default(),
            applied_writes: Vec::new(),
        }
    }

    /// Wraps `inner` armed to cut after `ops` further applied operations.
    pub fn cut_after(inner: D, ops: u64) -> Self {
        let mut device = CrashDevice::new(inner);
        device.arm(ops);
        device
    }

    /// Arms (or re-arms) the cut: the next `ops` data-effect operations
    /// apply normally, the one after that hits the power cut. Resets the
    /// crash ledger.
    pub fn arm(&mut self, ops: u64) {
        self.budget = Some(ops);
        self.dead = false;
        self.stats = CrashStats::default();
        self.applied_writes.clear();
    }

    /// Sets how many bytes of the fatal write are applied before the cut
    /// (a torn page program). Zero — the default — drops the fatal write
    /// entirely.
    pub fn set_torn_write_bytes(&mut self, bytes: usize) {
        self.torn_write_bytes = bytes;
    }

    /// Whether the power cut has happened.
    pub fn has_crashed(&self) -> bool {
        self.dead
    }

    /// Snapshot of the crash ledger.
    pub fn crash_stats(&self) -> CrashStats {
        self.stats
    }

    /// `(offset, len)` of every write fully applied since arming, in
    /// admission order.
    pub fn applied_writes(&self) -> &[(u64, u64)] {
        &self.applied_writes
    }

    /// Surrenders the inner device — the flash image exactly as the next
    /// boot would find it — for a recovery scan.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// The error every operation returns once the power is gone.
    fn power_cut() -> DeviceError {
        DeviceError::Io("simulated power cut".into())
    }

    /// Charges one operation against the budget. Returns `Err` when this
    /// operation is the one the cut lands on (or the power is already
    /// gone); `Ok(())` means the operation may apply.
    fn charge(&mut self) -> Result<()> {
        if self.dead {
            self.stats.denied_after_cut += 1;
            return Err(Self::power_cut());
        }
        match self.budget {
            Some(0) => {
                self.dead = true;
                self.stats.cut = true;
                Err(Self::power_cut())
            }
            Some(ref mut remaining) => {
                *remaining -= 1;
                self.stats.ops_applied += 1;
                Ok(())
            }
            None => {
                self.stats.ops_applied += 1;
                Ok(())
            }
        }
    }
}

impl<D: Device> Device for CrashDevice<D> {
    fn profile(&self) -> &DeviceProfile {
        self.inner.profile()
    }

    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn medium_read(&mut self, offset: u64, buf: &mut [u8]) -> Result<SimDuration> {
        self.charge()?;
        self.inner.medium_read(offset, buf)
    }

    fn medium_write(&mut self, offset: u64, bufs: &[&[u8]]) -> Result<SimDuration> {
        let was_dead = self.dead;
        match self.charge() {
            Ok(()) => {
                let latency = self.inner.medium_write(offset, bufs)?;
                self.applied_writes.push((offset, list_len(bufs) as u64));
                Ok(latency)
            }
            Err(e) => {
                // The cut landed on *this* write (the device was alive when
                // the call started): apply the torn prefix the medium
                // managed to program before the power vanished, as a write
                // of its own on the inner device. The prefix is of the
                // list's concatenation, so it may end inside any buffer.
                if !was_dead && self.torn_write_bytes > 0 {
                    let torn = self.torn_write_bytes.min(list_len(bufs));
                    let mut left = torn;
                    let prefix: Vec<&[u8]> = bufs
                        .iter()
                        .map(|buf| {
                            let n = left.min(buf.len());
                            left -= n;
                            &buf[..n]
                        })
                        .collect();
                    if self.inner.write_list_at(offset, &prefix).is_ok() {
                        self.stats.torn_write = Some((offset, torn as u64));
                    }
                }
                Err(e)
            }
        }
    }

    fn medium_erase(&mut self, block: u64) -> Result<SimDuration> {
        self.charge()?;
        self.inner.medium_erase(block)
    }

    fn medium_trim(&mut self, offset: u64, len: u64) -> Result<SimDuration> {
        self.charge()?;
        self.inner.medium_trim(offset, len)
    }

    // `submit` is deliberately left at the provided engine: it drives the
    // provided per-op methods, and so the commands above, in submission
    // order, so the budget slices the ring schedule exactly at the N-th
    // applied request.

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn update_stats(&mut self, update: &mut dyn FnMut(&mut IoStats)) {
        self.inner.update_stats(update)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramDevice;
    use crate::queue::{CompletionRing, IoRequest, RingRequest};
    use crate::ssd::Ssd;

    fn dram() -> DramDevice {
        DramDevice::new(1 << 16).unwrap()
    }

    #[test]
    fn unarmed_device_is_transparent() {
        let mut dev = CrashDevice::new(dram());
        dev.write_at(0, &[7u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 64]);
        assert!(!dev.has_crashed());
        assert_eq!(dev.crash_stats().ops_applied, 2);
        assert_eq!(dev.stats().writes, 1);
        assert_eq!(dev.name(), "DRAM");

        // The same ring script on a bare and a wrapped SSD: conflicting
        // and overlapping requests, a trim, an unsupported erase, in two
        // calls with a sync point between them. Every counter agrees, the
        // queue ledger included.
        fn script<D: Device>(mut dev: D) -> IoStats {
            let mut ring = CompletionRing::for_queue(dev.queue());
            let first = (0..12u64)
                .map(|i| RingRequest::new(IoRequest::write(i % 8 * 4096, vec![i as u8; 4096])))
                .chain([RingRequest::new(IoRequest::Erase { block: 0 })])
                .collect();
            assert_eq!(dev.submit(first, &mut ring).unwrap().len(), 13);
            ring.sync();
            let second = (0..8u64)
                .map(|i| RingRequest::new(IoRequest::read(i * 4096, 4096)))
                .chain([RingRequest::new(IoRequest::Trim { offset: 0, len: 8192 })])
                .collect();
            assert_eq!(dev.submit(second, &mut ring).unwrap().len(), 9);
            dev.stats()
        }
        let bare = script(Ssd::intel(1 << 20).unwrap());
        assert_eq!(bare.requests_submitted, 22);
        assert!(bare.requests_overlapped > 0 && bare.ring_admission_stalls > 0, "{bare}");
        assert_eq!(bare.ring_depth_high_water, 13);
        assert_eq!(script(CrashDevice::new(Ssd::intel(1 << 20).unwrap())), bare);
    }

    #[test]
    fn cut_lands_exactly_after_the_budget() {
        let mut dev = CrashDevice::cut_after(dram(), 2);
        dev.write_at(0, &[1u8; 16]).unwrap();
        dev.write_at(16, &[2u8; 16]).unwrap();
        let err = dev.write_at(32, &[3u8; 16]).unwrap_err();
        assert!(matches!(err, DeviceError::Io(_)));
        assert!(dev.has_crashed());
        // Everything after the cut fails too, reads included.
        let mut buf = [0u8; 4];
        assert!(dev.read_at(0, &mut buf).is_err());
        assert!(dev.trim(0, 16).is_err());
        let stats = dev.crash_stats();
        assert!(stats.cut);
        assert_eq!(stats.ops_applied, 2);
        assert_eq!(stats.denied_after_cut, 2);
        assert_eq!(dev.applied_writes(), &[(0, 16), (16, 16)]);
        // The surviving image holds the pre-cut writes and nothing else.
        let mut inner = dev.into_inner();
        let mut bytes = [0u8; 48];
        inner.read_at(0, &mut bytes).unwrap();
        assert_eq!(&bytes[..16], &[1u8; 16]);
        assert_eq!(&bytes[16..32], &[2u8; 16]);
        assert_eq!(&bytes[32..], &[0u8; 16]);
    }

    #[test]
    fn torn_prefix_of_the_fatal_write_is_applied() {
        let mut dev = CrashDevice::cut_after(dram(), 0);
        dev.set_torn_write_bytes(8);
        assert!(dev.write_at(0, &[9u8; 32]).is_err());
        assert_eq!(dev.crash_stats().torn_write, Some((0, 8)));
        let mut inner = dev.into_inner();
        let mut bytes = [0u8; 32];
        inner.read_at(0, &mut bytes).unwrap();
        assert_eq!(&bytes[..8], &[9u8; 8]);
        assert_eq!(&bytes[8..], &[0u8; 24]);
    }

    #[test]
    fn ring_schedule_is_cut_in_admission_order() {
        let mut dev = CrashDevice::cut_after(dram(), 2);
        let mut ring = CompletionRing::for_queue(dev.queue());
        let requests = vec![
            RingRequest::new(IoRequest::write(0, vec![1u8; 16])),
            RingRequest::new(IoRequest::write(16, vec![2u8; 16])),
            RingRequest::new(IoRequest::write(32, vec![3u8; 16])),
            RingRequest::new(IoRequest::read(0, 16)),
        ];
        let mut done = dev.submit(requests, &mut ring).unwrap();
        done.sort_by_key(|c| c.index);
        assert_eq!(done.len(), 4);
        assert!(done[0].result.is_ok());
        assert!(done[1].result.is_ok());
        assert!(done[2].result.is_err(), "third submitted request hits the cut");
        assert!(done[3].result.is_err(), "post-cut requests fail too");
        assert!(dev.has_crashed());
    }
}
