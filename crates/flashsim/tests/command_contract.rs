//! One command contract on every device: the five media, a
//! `SharedDevice` partition, an unarmed `CrashDevice` and a
//! `Box<dyn Device>` run the same script through the provided per-op
//! methods (the rules are documented once, in `device.rs`):
//!
//! - a read, write or trim past the end is `OutOfBounds`, an erase of a
//!   block the device does not have is `InvalidBlock`;
//! - an empty read, write or trim in range costs nothing and counts
//!   nothing;
//! - one read and one write each book one count, their bytes and exactly
//!   the latency they returned;
//! - an erase in range is `Unsupported` on every medium but the raw chip;
//! - the device's queue is as deep as its medium's profile says, and a
//!   ring built from that depth books that many disjoint reads at once.

use flashsim::{
    CompletionRing, CrashDevice, Device, DeviceError, DramDevice, FileDevice, FlashChip, IoRequest,
    IoStats, MagneticDisk, RingRequest, SharedDevice, SimDuration, Ssd, DEFAULT_FILE_QUEUE_DEPTH,
};

/// Runs the script on `dev`, whose medium's profile is `depth` deep.
fn check_contract(dev: &mut dyn Device, erases: bool, depth: usize) {
    let name = dev.name();
    let geometry = dev.geometry();
    let (cap, blocks) = (geometry.capacity, geometry.blocks());
    assert_eq!(dev.stats(), IoStats::default(), "{name}: a fresh device");

    let out_of_bounds = |r: Result<SimDuration, DeviceError>| {
        assert!(matches!(r, Err(DeviceError::OutOfBounds { .. })), "{name}: {r:?}")
    };
    out_of_bounds(dev.read_at(cap, &mut [0u8; 1]));
    out_of_bounds(dev.read_at(u64::MAX, &mut [0u8; 2]));
    out_of_bounds(dev.write_at(cap - 1, &[0u8; 2]));
    out_of_bounds(dev.trim(cap - 1, 2));
    out_of_bounds(dev.read_at(cap + 1, &mut []));
    assert_eq!(dev.erase_block(blocks), Err(DeviceError::InvalidBlock { block: blocks, blocks }));

    for offset in [0, cap / 2 + 3, cap] {
        assert_eq!(dev.read_at(offset, &mut []), Ok(SimDuration::ZERO), "{name}: empty read");
        assert_eq!(dev.write_at(offset, &[]), Ok(SimDuration::ZERO), "{name}: empty write");
        assert_eq!(dev.trim(offset, 0), Ok(SimDuration::ZERO), "{name}: empty trim");
    }
    assert_eq!(dev.stats(), IoStats::default(), "{name}: refused and empty commands count nothing");

    let data: Vec<u8> = (0..100).collect();
    let wrote = dev.write_at(4096, &data).unwrap();
    let s = dev.stats();
    assert_eq!((s.writes, s.bytes_written, s.write_time), (1, 100, wrote), "{name}");
    let mut buf = [0u8; 100];
    let read = dev.read_at(4096, &mut buf).unwrap();
    assert_eq!(&buf[..], &data[..], "{name}");
    let s = dev.stats();
    assert_eq!((s.reads, s.bytes_read, s.read_time), (1, 100, read), "{name}");
    assert_eq!(s.total_ops(), 2, "{name}: {s}");

    let erase = dev.erase_block(blocks - 1);
    let s = dev.stats();
    if erases {
        let latency = erase.unwrap();
        assert!(latency > SimDuration::ZERO);
        assert_eq!((s.erases, s.erase_time), (1, latency), "{name}");
    } else {
        assert!(matches!(erase, Err(DeviceError::Unsupported(_))), "{name}: {erase:?}");
        assert_eq!(s.total_ops(), 2, "{name}: a refused erase counts nothing");
    }

    assert_eq!(dev.queue(), depth, "{name}: the medium's queue depth");
    let mut ring = CompletionRing::for_queue(dev.queue());
    let reads = (0..2 * depth as u64).map(|i| RingRequest::new(IoRequest::read(i * 4096, 512)));
    let mut done = dev.submit(reads.collect(), &mut ring).unwrap();
    done.sort_by_key(|c| c.index);
    let mut lanes: Vec<usize> = done[..depth].iter().map(|c| c.lane).collect();
    lanes.sort_unstable();
    assert_eq!(lanes, (0..depth).collect::<Vec<_>>(), "{name}: one lane a queue slot");
}

#[test]
fn dram() {
    check_contract(&mut DramDevice::new(1 << 20).unwrap(), false, 4);
}

#[test]
fn magnetic_disk() {
    check_contract(&mut MagneticDisk::new(1 << 20).unwrap(), false, 1);
}

#[test]
fn flash_chip() {
    check_contract(&mut FlashChip::new(1 << 20).unwrap(), true, 1);
}

#[test]
fn ssd() {
    check_contract(&mut Ssd::intel(8 << 20).unwrap(), false, 8);
}

#[test]
fn file_device() {
    let path =
        std::env::temp_dir().join(format!("flashsim-command-contract-{}", std::process::id()));
    let mut dev = FileDevice::create(&path, 1 << 20).unwrap();
    check_contract(&mut dev, false, DEFAULT_FILE_QUEUE_DEPTH);
    drop(dev);
    std::fs::remove_file(&path).ok();
}

#[test]
fn shared_device_partition() {
    // The window is the device's second quarter: its end is in range on
    // the device, out of range on the handle.
    let shared = SharedDevice::new(Ssd::intel(8 << 20).unwrap());
    let mut partition = shared.partition(2 << 20, 2 << 20).unwrap();
    check_contract(&mut partition, false, 8);
    assert_eq!(shared.stats(), partition.stats(), "one device, one ledger");
}

#[test]
fn unarmed_crash_device() {
    let mut dev = CrashDevice::new(DramDevice::new(1 << 20).unwrap());
    check_contract(&mut dev, false, 4);
    // Only the commands that reached the medium were charged: the write,
    // the read, the in-range erase and the ring's eight reads.
    assert_eq!(dev.crash_stats().ops_applied, 3 + 8);
}

#[test]
fn boxed_device() {
    let mut dev: Box<dyn Device> = Box::new(Ssd::intel(8 << 20).unwrap());
    check_contract(&mut dev, false, 8);
}
