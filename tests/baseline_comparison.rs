//! Integration tests pitting the CLAM against the baseline indexes on the
//! same simulated devices — the qualitative claims of §7.2 as assertions.

use clam::baseline::{BdbConfig, BdbHashIndex};
use clam::bufferhash::{hash_with_seed, Clam, ClamConfig};
use clam::flashsim::{Device, MagneticDisk, SimDuration, Ssd};

fn key(i: u64) -> u64 {
    hash_with_seed(i, 0xc0de) | 1
}

#[test]
fn clam_inserts_are_orders_of_magnitude_cheaper_than_bdb_on_the_same_ssd() {
    let cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
    let mut clam = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg).unwrap();
    let mut bdb = BdbHashIndex::new(
        Ssd::intel(8 << 20).unwrap(),
        BdbConfig { cache_bytes: 256 * 1024, ..Default::default() },
    )
    .unwrap();

    let mut clam_total = SimDuration::ZERO;
    let mut bdb_total = SimDuration::ZERO;
    for i in 0..20_000u64 {
        clam_total += clam.insert(key(i), i).unwrap().latency;
        bdb_total += bdb.insert(key(i), i).unwrap();
    }
    assert!(
        clam_total * 20 < bdb_total,
        "CLAM {clam_total} should be >20x cheaper than BDB {bdb_total} for inserts"
    );
}

#[test]
fn buffering_makes_inserts_ten_times_cheaper_than_the_unbuffered_ablation() {
    // §7.3.1's strawman, a hash table on flash, is BufferHash with
    // buffering off: the configuration `ablation` runs as
    // `Ablation::NoBuffering`.
    let cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
    let unbuffered_cfg = ClamConfig { enable_buffering: false, ..cfg.clone() };
    let mut buffered = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg).unwrap();
    let mut unbuffered = Clam::new(Ssd::intel(8 << 20).unwrap(), unbuffered_cfg).unwrap();
    let mut buffered_total = SimDuration::ZERO;
    let mut unbuffered_total = SimDuration::ZERO;
    for i in 0..5_000u64 {
        buffered_total += buffered.insert(key(i), i).unwrap().latency;
        unbuffered_total += unbuffered.insert(key(i), i).unwrap().latency;
    }
    assert!(
        buffered_total * 10 <= unbuffered_total,
        "buffered inserts ({buffered_total}) must cost 10x less than unbuffered ({unbuffered_total})"
    );
}

#[test]
fn bdb_hash_agrees_on_contents_and_pays_device_io() {
    // A small page cache so the index must actually touch the device.
    let mut hash = BdbHashIndex::new(
        Ssd::intel(8 << 20).unwrap(),
        BdbConfig { cache_bytes: 64 * 1024, ..Default::default() },
    )
    .unwrap();
    for i in 0..20_000u64 {
        hash.insert(key(i), i).unwrap();
    }
    for i in (0..20_000u64).step_by(487) {
        assert_eq!(hash.lookup(key(i)).unwrap().0, Some(i));
    }
    assert!(hash.device().stats().total_ops() > 1_000);
}

#[test]
fn bdb_on_disk_is_seek_bound_and_slower_than_bdb_on_ssd() {
    let mut on_disk = BdbHashIndex::new(
        MagneticDisk::new(8 << 20).unwrap(),
        BdbConfig { cache_bytes: 128 * 1024, ..Default::default() },
    )
    .unwrap();
    let mut on_ssd = BdbHashIndex::new(
        Ssd::intel(8 << 20).unwrap(),
        BdbConfig { cache_bytes: 128 * 1024, ..Default::default() },
    )
    .unwrap();
    for i in 0..8_000u64 {
        on_disk.insert(key(i), i).unwrap();
        on_ssd.insert(key(i), i).unwrap();
    }
    let disk_mean = on_disk.insert_latency.mean();
    let ssd_mean = on_ssd.insert_latency.mean();
    assert!(disk_mean > SimDuration::from_millis(1), "disk inserts should cost ms: {disk_mean}");
    assert!(disk_mean > ssd_mean, "disk ({disk_mean}) should be slower than SSD ({ssd_mean})");
}

#[test]
fn clam_lookup_latency_stays_sub_millisecond_at_forty_percent_hit_rate() {
    let cfg = ClamConfig::small_test(16 << 20, 4 << 20).unwrap();
    let mut clam = Clam::new(Ssd::intel(16 << 20).unwrap(), cfg).unwrap();
    for i in 0..200_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    clam.reset_stats();
    for i in 0..20_000u64 {
        let k = if i % 5 < 2 { key(i * 9 % 200_000) } else { hash_with_seed(i, 0xff) };
        clam.lookup(k).unwrap();
    }
    let mean = clam.stats().lookups.mean();
    assert!(
        mean < SimDuration::from_micros(300),
        "mean lookup at ~40% LSR should stay well below 1 ms, got {mean}"
    );
    let max = clam.stats().lookups.max();
    assert!(max < SimDuration::from_millis(5), "worst-case lookup {max} too high");
}
