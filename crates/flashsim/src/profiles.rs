//! Device profiles: named parameter sets for the storage media evaluated in
//! the paper.
//!
//! The absolute numbers are calibrated to the anchors reported in the paper
//! (§4, §6.3, §7) — e.g. sub-millisecond random reads on SSDs, ~0.15 ms
//! random reads on the Intel X18-M, multi-millisecond seeks on the Hitachi
//! disk, and the strong random-write penalty of the Transcend SSD. They are
//! a model, not a datasheet: the goal is to preserve the *relative* cost
//! structure that drives the paper's results.

use serde::{Deserialize, Serialize};

use crate::cost::LinearCost;

/// The kind of medium a profile describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MediumKind {
    /// Raw NAND flash chip (no FTL; caller manages erasure).
    FlashChip,
    /// Solid-state drive with an FTL.
    Ssd,
    /// Rotating magnetic disk.
    Disk,
    /// DRAM.
    Dram,
}

/// A named set of device parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Human-readable name, e.g. `"Intel X18-M SSD"`.
    pub name: &'static str,
    /// Medium kind.
    pub kind: MediumKind,
    /// Read/program granularity in bytes (flash page / SSD sector / disk sector).
    pub page_size: u32,
    /// Erase-block size in bytes (flash media; equals `page_size` otherwise).
    pub block_size: u32,
    /// Cost of a page/sector read.
    pub read_cost: LinearCost,
    /// Cost of a page program / sector write (excluding FTL effects).
    pub write_cost: LinearCost,
    /// Cost of an erase-block erase.
    pub erase_cost: LinearCost,
    /// Average seek time for disks (ns); zero for solid-state media.
    pub seek_ns: u64,
    /// Average rotational delay for disks (ns); zero for solid-state media.
    pub rotation_ns: u64,
    /// Fraction of physical capacity reserved as over-provisioning (SSD).
    pub over_provisioning: f64,
    /// Queue depth: how many requests the device keeps in flight at once,
    /// each on a lane of its own (1 = one at a time; see
    /// [`Device::submit`](crate::Device::submit)).
    pub queue_depth: usize,
    /// Purchase cost of the device in US dollars (for ops/sec/$ analyses).
    pub dollar_cost: f64,
}

impl DeviceProfile {
    /// Intel X18-M class SSD: fast random reads, efficient sequential writes,
    /// modest random-write penalty thanks to a better FTL.
    pub fn intel_x18m() -> Self {
        DeviceProfile {
            name: "Intel X18-M SSD",
            kind: MediumKind::Ssd,
            page_size: 4096,
            block_size: 256 * 1024,
            // ~0.15 ms random sector read, ~70 MB/s streaming reads beyond that.
            read_cost: LinearCost::from_latency_bandwidth(145.0, 220.0),
            // ~0.18 ms per program command, ~70 MB/s sequential write bandwidth.
            write_cost: LinearCost::from_latency_bandwidth(60.0, 75.0),
            erase_cost: LinearCost::from_latency_bandwidth(1_200.0, 800.0),
            seek_ns: 0,
            rotation_ns: 0,
            over_provisioning: 0.08,
            // NCQ-class queueing: the controller overlaps several commands.
            queue_depth: 8,
            dollar_cost: 390.0,
        }
    }

    /// Transcend TS32GSSD25 class SSD: an older, cheaper SSD with slower
    /// reads and a severe random-write / erase penalty.
    pub fn transcend_ts32g() -> Self {
        DeviceProfile {
            name: "Transcend TS32GSSD25 SSD",
            kind: MediumKind::Ssd,
            page_size: 4096,
            block_size: 256 * 1024,
            read_cost: LinearCost::from_latency_bandwidth(480.0, 40.0),
            write_cost: LinearCost::from_latency_bandwidth(250.0, 28.0),
            erase_cost: LinearCost::from_latency_bandwidth(14_000.0, 100.0),
            seek_ns: 0,
            rotation_ns: 0,
            over_provisioning: 0.04,
            // Early JMicron-class controller: one command at a time.
            queue_depth: 1,
            dollar_cost: 85.0,
        }
    }

    /// Raw NAND flash chip (the §6.4 "flash chip" medium): page reads ~0.24 ms
    /// including transfer, programs a few hundred microseconds, erases ~1.5 ms.
    pub fn flash_chip() -> Self {
        DeviceProfile {
            name: "NAND flash chip",
            kind: MediumKind::FlashChip,
            page_size: 2048,
            block_size: 128 * 1024,
            read_cost: LinearCost::from_latency_bandwidth(110.0, 15.0),
            write_cost: LinearCost::from_latency_bandwidth(250.0, 12.0),
            erase_cost: LinearCost::from_latency_bandwidth(1_500.0, 0.0),
            seek_ns: 0,
            rotation_ns: 0,
            over_provisioning: 0.0,
            // A single chip has one plane in this model: strictly serial.
            queue_depth: 1,
            dollar_cost: 60.0,
        }
    }

    /// Hitachi Deskstar 7K80 class magnetic disk (7200 rpm): ~8 ms average
    /// seek, ~4.2 ms average rotational delay, ~60 MB/s media rate.
    pub fn hitachi_7k80() -> Self {
        DeviceProfile {
            name: "Hitachi Deskstar 7K80 disk",
            kind: MediumKind::Disk,
            page_size: 4096,
            block_size: 4096,
            read_cost: LinearCost::from_latency_bandwidth(50.0, 60.0),
            write_cost: LinearCost::from_latency_bandwidth(50.0, 55.0),
            erase_cost: LinearCost::FREE,
            seek_ns: 8_000_000,
            rotation_ns: 4_170_000,
            over_provisioning: 0.0,
            // One actuator: one request at a time.
            queue_depth: 1,
            dollar_cost: 70.0,
        }
    }

    /// Commodity DRAM: ~0.2 µs per random access plus ~8 GB/s of bandwidth.
    pub fn dram() -> Self {
        DeviceProfile {
            name: "DRAM",
            kind: MediumKind::Dram,
            page_size: 64,
            block_size: 64,
            read_cost: LinearCost::from_latency_bandwidth(0.2, 8_000.0),
            write_cost: LinearCost::from_latency_bandwidth(0.2, 8_000.0),
            erase_cost: LinearCost::FREE,
            seek_ns: 0,
            rotation_ns: 0,
            over_provisioning: 0.0,
            // Channel/bank parallelism absorbs a few concurrent accesses.
            queue_depth: 4,
            // ~$25/GB-class pricing at the paper's time; per 4 GB module.
            dollar_cost: 100.0,
        }
    }

    /// RamSan-class DRAM SSD appliance (used only for ops/sec/$ comparisons).
    pub fn ramsan_dram_ssd() -> Self {
        DeviceProfile {
            name: "RamSan DRAM-SSD (128GB)",
            kind: MediumKind::Dram,
            page_size: 512,
            block_size: 512,
            read_cost: LinearCost::from_latency_bandwidth(3.0, 3_000.0),
            write_cost: LinearCost::from_latency_bandwidth(3.0, 3_000.0),
            erase_cost: LinearCost::FREE,
            seek_ns: 0,
            rotation_ns: 0,
            over_provisioning: 0.0,
            queue_depth: 16,
            dollar_cost: 120_000.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> [DeviceProfile; 6] {
        [
            DeviceProfile::intel_x18m(),
            DeviceProfile::transcend_ts32g(),
            DeviceProfile::flash_chip(),
            DeviceProfile::hitachi_7k80(),
            DeviceProfile::dram(),
            DeviceProfile::ramsan_dram_ssd(),
        ]
    }

    #[test]
    fn profiles_have_distinct_names() {
        let all = all();
        let mut names: Vec<_> = all.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn intel_reads_are_faster_than_transcend() {
        let intel = DeviceProfile::intel_x18m();
        let transcend = DeviceProfile::transcend_ts32g();
        assert!(intel.read_cost.cost(4096) < transcend.read_cost.cost(4096));
    }

    #[test]
    fn dram_is_orders_of_magnitude_faster_than_flash() {
        let dram = DeviceProfile::dram();
        let flash = DeviceProfile::flash_chip();
        let ratio = flash.read_cost.cost(2048).as_nanos() as f64
            / dram.read_cost.cost(2048).as_nanos().max(1) as f64;
        assert!(ratio > 50.0, "flash/DRAM read ratio too small: {ratio}");
    }

    #[test]
    fn disk_seek_dominates_transfer_for_small_io() {
        let disk = DeviceProfile::hitachi_7k80();
        let transfer = disk.read_cost.cost(4096);
        assert!(disk.seek_ns > 10 * transfer.as_nanos());
    }

    #[test]
    fn block_sizes_are_multiples_of_page_sizes() {
        for p in all() {
            assert_eq!(p.block_size % p.page_size, 0, "{}", p.name);
        }
    }

    #[test]
    fn queue_shapes_match_the_medium() {
        let depths: Vec<usize> = all().iter().map(|p| p.queue_depth).collect();
        // NCQ on the Intel drive; one command at a time on the early
        // controller, the single-plane chip and the one-actuator disk;
        // bank parallelism in DRAM and the RamSan appliance.
        assert_eq!(depths, vec![8, 1, 1, 1, 4, 16]);
    }

    #[test]
    fn ramsan_is_expensive() {
        assert!(DeviceProfile::ramsan_dram_ssd().dollar_cost > 100_000.0);
    }
}
