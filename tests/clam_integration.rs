//! Cross-crate integration tests: the CLAM driven through realistic
//! application flows on every simulated medium.

use clam::bufferhash::{
    hash_with_seed, BufferHashError, Clam, ClamConfig, EvictionPolicy, LookupSource,
};
use clam::flashsim::{Device, FlashChip, MagneticDisk, Ssd};

fn key(i: u64) -> u64 {
    hash_with_seed(i, 0x1e57)
}

#[test]
fn clam_on_every_medium_round_trips_and_orders_latencies() {
    let cfg = || ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
    let mut on_intel = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg()).unwrap();
    let mut on_transcend = Clam::new(Ssd::transcend(8 << 20).unwrap(), cfg()).unwrap();
    let mut on_disk = Clam::new(MagneticDisk::new(8 << 20).unwrap(), cfg()).unwrap();

    for i in 0..60_000u64 {
        on_intel.insert(key(i), i).unwrap();
        on_transcend.insert(key(i), i).unwrap();
        on_disk.insert(key(i), i).unwrap();
    }
    for i in (0..60_000u64).step_by(997) {
        assert_eq!(on_intel.lookup(key(i)).unwrap().value, Some(i));
        assert_eq!(on_transcend.lookup(key(i)).unwrap().value, Some(i));
        assert_eq!(on_disk.lookup(key(i)).unwrap().value, Some(i));
    }
    // Relative lookup cost ordering must match the media (paper §7.3.2).
    let intel = on_intel.stats().lookups.mean();
    let transcend = on_transcend.stats().lookups.mean();
    let disk = on_disk.stats().lookups.mean();
    assert!(intel <= transcend, "Intel {intel} should not be slower than Transcend {transcend}");
    assert!(transcend < disk, "SSD {transcend} should be faster than disk {disk}");
}

/// The recommended configuration, unchanged, on a raw chip: its 128 KiB
/// slots are the chip's erase blocks, and the one log erases each before
/// programming it again, through several wraps.
#[test]
fn clam_runs_on_a_raw_flash_chip_with_the_recommended_config() {
    let chip = FlashChip::new(4 << 20).unwrap();
    let cfg = ClamConfig::recommended(4 << 20, 1 << 20, chip.geometry()).unwrap();
    let slots = cfg.total_flash_slots();
    let mut clam = Clam::new(chip, cfg).unwrap();
    let mut n = 0u64;
    while clam.stats().flushes < 3 * slots {
        clam.insert(key(n), n).unwrap();
        n += 1;
    }
    // Every key of the last quarter of the log is still there.
    for i in n - n / 12..n {
        assert_eq!(clam.lookup(key(i)).unwrap().value, Some(i), "recent key {i} missing");
    }
    assert!(clam.device().stats().erases > 0, "the log must erase blocks on a chip");
}

/// A slot that neither fills whole erase blocks nor divides one would
/// erase a neighbour still in use, so a chip refuses it; media that
/// overwrite in place take any slot.
#[test]
fn a_chip_refuses_slots_that_do_not_fit_its_erase_blocks() {
    const CAP: u64 = 6 << 20;
    for (kib, fits) in [(32u64, true), (48, false), (128, true), (192, false), (256, true)] {
        let cfg = ClamConfig {
            buffer_bytes_per_table: kib << 10,
            buffer_bytes_total: 2 * (kib << 10),
            ..ClamConfig::small_test(CAP, 2 << 20).unwrap()
        };
        let on_chip = Clam::new(FlashChip::new(CAP).unwrap(), cfg.clone());
        assert_eq!(on_chip.is_ok(), fits, "{kib} KiB slot on a chip");
        if !fits {
            assert!(matches!(on_chip, Err(BufferHashError::InvalidConfig(_))));
        }
        assert!(Clam::new(Ssd::intel(CAP).unwrap(), cfg).is_ok(), "{kib} KiB slot on an SSD");
    }
}

#[test]
fn wrap_around_evicts_strictly_oldest_keys_first() {
    let cfg = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
    let mut clam = Clam::new(Ssd::intel(2 << 20).unwrap(), cfg).unwrap();
    let n = 300_000u64;
    for i in 0..n {
        clam.insert(key(i), i).unwrap();
    }
    // The newest 10% must be present; the oldest 10% must be gone.
    for i in (n - n / 10..n).step_by(1013) {
        assert_eq!(clam.lookup(key(i)).unwrap().value, Some(i), "recent key {i} missing");
    }
    let mut stale_found = 0;
    for i in (0..n / 10).step_by(1013) {
        if clam.lookup(key(i)).unwrap().value.is_some() {
            stale_found += 1;
        }
    }
    assert_eq!(stale_found, 0, "oldest keys should have been evicted FIFO");
}

#[test]
fn deletes_and_updates_are_honoured_across_flushes_and_media() {
    let cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
    let mut clam = Clam::new(Ssd::transcend(8 << 20).unwrap(), cfg).unwrap();
    // Insert, push to flash, update, delete, re-insert - interleaved with
    // background churn.
    for round in 0..5u64 {
        for i in 0..200u64 {
            clam.insert(key(i), round * 1000 + i).unwrap();
        }
        for i in 5_000 + round * 10_000..5_000 + (round + 1) * 10_000 {
            clam.insert(key(i), i).unwrap(); // churn
        }
        for i in (0..200u64).step_by(3) {
            clam.delete(key(i)).unwrap();
        }
        for i in (0..200u64).step_by(3) {
            assert_eq!(clam.lookup(key(i)).unwrap().value, None, "deleted key resurfaced");
        }
        for i in (1..200u64).step_by(3) {
            assert_eq!(
                clam.lookup(key(i)).unwrap().value,
                Some(round * 1000 + i),
                "update not visible"
            );
        }
    }
}

#[test]
fn lru_keeps_hot_keys_alive_through_wraparound() {
    let mut cfg = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
    cfg.eviction = EvictionPolicy::Lru;
    let mut clam = Clam::new(Ssd::intel(2 << 20).unwrap(), cfg).unwrap();
    let hot: Vec<u64> = (0..50u64).map(key).collect();
    for &k in &hot {
        clam.insert(k, 7).unwrap();
    }
    // Churn far beyond capacity, but touch the hot keys periodically.
    for i in 1_000..250_000u64 {
        clam.insert(key(i), i).unwrap();
        if i % 2_000 == 0 {
            for &k in &hot {
                clam.lookup(k).unwrap();
            }
        }
    }
    let surviving = hot.iter().filter(|&&k| clam.lookup(k).unwrap().value.is_some()).count();
    assert!(
        surviving > hot.len() / 2,
        "LRU should keep most hot keys alive, only {surviving}/{} survived",
        hot.len()
    );
}

#[test]
fn lookup_sources_are_reported_accurately() {
    let cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
    let mut clam = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg).unwrap();
    clam.insert(key(1), 1).unwrap();
    assert_eq!(clam.lookup(key(1)).unwrap().source, LookupSource::Buffer);
    for i in 100..40_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    assert_eq!(clam.lookup(key(1)).unwrap().source, LookupSource::Flash);
    clam.delete(key(1)).unwrap();
    assert_eq!(clam.lookup(key(1)).unwrap().source, LookupSource::Deleted);
    assert_eq!(clam.lookup(key(999_999_999)).unwrap().source, LookupSource::Miss);
}
