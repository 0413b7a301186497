//! # flashsim — simulated storage substrate for CLAM experiments
//!
//! This crate provides the storage media that the BufferHash/CLAM stack and
//! its baselines run on:
//!
//! * [`FlashChip`] — a raw NAND flash chip (page program, block erase, no FTL);
//! * [`Ssd`] — an SSD with a page-mapped FTL, greedy garbage collection and
//!   an over-provisioned block pool (profiles for Intel X18-M and Transcend
//!   TS32GSSD25 class drives);
//! * [`MagneticDisk`] — a rotating disk with seek/rotation costs;
//! * [`DramDevice`] — DRAM;
//! * [`FileDevice`] — a real-file backend reporting wall-clock latencies;
//! * [`CrashDevice`] — a crash-injection wrapper that cuts the power on any
//!   inner backend at an arbitrary point in the request schedule.
//!
//! All media implement the [`Device`] trait and return simulated
//! [`SimDuration`] latencies, so higher layers are *sans-I/O*: the same
//! BufferHash code runs on any medium, and experiments are deterministic.
//!
//! Queued I/O has one engine, the **completion ring**
//! ([`Device::submit`] over a caller-owned [`CompletionRing`], see
//! [`queue`]): one call runs a batch of requests and returns its
//! completions, each booked on the queue's lanes with its start and
//! completion timestamps, and the ring carries its lane clocks from call
//! to call, so a pipeline that re-arms work from each completion keeps
//! the modelled queue full instead of draining it at every barrier. A
//! backend is a cost function over a byte store — the four per-op
//! methods, which also serve single blocking commands — plus its
//! [`IoStats`]; the ring models the queue (lanes on SSD and DRAM and on
//! the file, one at a time on the chip and the disk) and writes the queue
//! counters; no backend brings ring code of its own.
//! [`SharedDevice`] lets several owners (e.g. index stripes) drive
//! partitions of one device — and thus one ring timeline — concurrently.
//!
//! ## Example
//!
//! ```
//! use flashsim::{Device, Ssd};
//!
//! let mut ssd = Ssd::intel(8 << 20).unwrap();
//! let write_latency = ssd.write_at(0, b"hello flash").unwrap();
//! let mut buf = [0u8; 11];
//! let read_latency = ssd.read_at(0, &mut buf).unwrap();
//! assert_eq!(&buf, b"hello flash");
//! assert!(read_latency.as_millis_f64() < 1.0);
//! assert!(write_latency.as_millis_f64() < 5.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cost;
mod crash;
mod device;
mod disk;
mod dram;
mod error;
mod file_backend;
mod flash_chip;
mod geometry;
mod profiles;
pub mod queue;
mod shared;
mod ssd;
mod stats;
mod store;
mod time;

pub use cost::LinearCost;
pub use crash::{CrashDevice, CrashStats};
pub use device::Device;
pub use disk::MagneticDisk;
pub use dram::DramDevice;
pub use error::{DeviceError, Result};
pub use file_backend::{FileDevice, DEFAULT_FILE_QUEUE_DEPTH};
pub use flash_chip::FlashChip;
pub use geometry::Geometry;
pub use profiles::{DeviceProfile, MediumKind};
pub use queue::{
    CompletionRing, IoRequest, OverlapModel, QueueCapabilities, RingCompletion, RingRequest,
};
pub use shared::SharedDevice;
pub use ssd::Ssd;
pub use stats::{IoStats, Kind, LatencyRecorder, Slot};
pub use store::SparseStore;
pub use time::{SimClock, SimDuration};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn media_constructors_produce_expected_kinds() {
        assert_eq!(Ssd::intel(1 << 20).unwrap().profile().kind, MediumKind::Ssd);
        assert_eq!(Ssd::transcend(1 << 20).unwrap().profile().kind, MediumKind::Ssd);
        assert_eq!(FlashChip::new(1 << 20).unwrap().profile().kind, MediumKind::FlashChip);
        assert_eq!(MagneticDisk::new(1 << 20).unwrap().profile().kind, MediumKind::Disk);
        assert_eq!(DramDevice::new(1 << 20).unwrap().profile().kind, MediumKind::Dram);
    }

    #[test]
    fn relative_speed_ordering_matches_the_paper() {
        // Random 4 KiB reads: DRAM << SSD << disk.
        let mut dram = DramDevice::new(8 << 20).unwrap();
        let mut ssd = Ssd::intel(8 << 20).unwrap();
        let mut disk = MagneticDisk::new(8 << 20).unwrap();
        dram.write_at(4 << 20, &[1u8; 4096]).unwrap();
        ssd.write_at(4 << 20, &[1u8; 4096]).unwrap();
        disk.write_at(4 << 20, &[1u8; 4096]).unwrap();
        disk.read_at(0, &mut [0u8; 512]).unwrap(); // move the head away
        let l_dram = dram.read_at(4 << 20, &mut [0u8; 4096]).unwrap();
        let l_ssd = ssd.read_at(4 << 20, &mut [0u8; 4096]).unwrap();
        let l_disk = disk.read_at(4 << 20, &mut [0u8; 4096]).unwrap();
        assert!(l_dram < l_ssd);
        assert!(l_ssd < l_disk);
    }
}
