//! Unit tests of the CLAM facade (`clam::tests`).

use super::*;
use crate::bitslice::BitSlicedBloomSet;
use crate::filters::FilterMode;
use crate::types::ENTRY_SIZE;
use flashsim::{MagneticDisk, Ssd};
use std::collections::HashMap;

fn small_clam() -> Clam<Ssd> {
    // 8 MiB flash, 2 MiB DRAM, 32 KiB buffers.
    let cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
    let ssd = Ssd::intel(8 << 20).unwrap();
    Clam::new(ssd, cfg).unwrap()
}

fn key(i: u64) -> Key {
    hash_with_seed(i, 0x5eed)
}

#[test]
fn insert_then_lookup_round_trips() {
    let mut clam = small_clam();
    for i in 0..100u64 {
        clam.insert(key(i), i).unwrap();
    }
    for i in 0..100u64 {
        let out = clam.lookup(key(i)).unwrap();
        assert_eq!(out.value, Some(i), "key {i}");
    }
    assert_eq!(clam.stats().lookup_hits, 100);
}

#[test]
fn recover_rebuilds_state_from_flash_alone() {
    let mut clam = small_clam();
    let n = 40_000u64;
    for i in 0..n {
        clam.insert(key(i), i).unwrap();
    }
    clam.flush_all().unwrap();
    let flushes = clam.stats().flushes;
    let old_epoch = clam.epoch();
    let old_seq = clam.seq;
    let live = clam.allocator.live_slots();
    let config = clam.config().clone();

    // Lose every byte of DRAM; recover from the flash image alone.
    let device = clam.into_device();
    let (mut recovered, report) = Clam::recover(device, config).unwrap();
    assert_eq!(report.accepted, live, "every live incarnation accepted: {report}");
    assert_eq!(report.torn, 0, "{report}");
    assert_eq!(report.stale, 0, "{report}");
    assert_eq!(report.slots_scanned, 256);
    assert_eq!(report.bytes_scanned, 8 << 20);
    assert!(report.scan_makespan > SimDuration::ZERO);
    assert!(report.epoch > old_epoch, "recovered lifetime gets a younger epoch");
    assert_eq!(report.seq_resumed, old_seq, "seq resumes past every flushed incarnation");
    assert!(flushes as usize >= live);

    for i in 0..n {
        assert_eq!(recovered.lookup(key(i)).unwrap().value, Some(i), "key {i}");
    }
    assert_eq!(recovered.stats().recoveries, 1);
    assert_eq!(recovered.stats().recovered_incarnations, live as u64);

    // The restored allocator and seq let the recovered CLAM keep
    // writing: new inserts flush into the slots a never-crashed
    // lifetime would have used, without clobbering live data.
    for i in n..(n + 40_000) {
        recovered.insert(key(i), i).unwrap();
    }
    recovered.flush_all().unwrap();
    for i in (0..n + 40_000).step_by(211) {
        assert_eq!(recovered.lookup(key(i)).unwrap().value, Some(i), "key {i}");
    }
}

#[test]
fn recover_on_a_pristine_device_starts_empty() {
    let cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
    let ssd = Ssd::intel(8 << 20).unwrap();
    let (mut clam, report) = Clam::recover(ssd, cfg).unwrap();
    assert_eq!(report.accepted, 0);
    assert_eq!(report.torn, 0);
    assert_eq!(report.empty as u64, report.slots_scanned);
    assert_eq!(report.entries_recovered, 0);
    assert_eq!(clam.lookup(key(1)).unwrap().value, None);
    clam.insert(key(1), 1).unwrap();
    assert_eq!(clam.lookup(key(1)).unwrap().value, Some(1));
}

#[test]
fn lookups_after_flush_read_from_flash() {
    let mut clam = small_clam();
    // Enough inserts to flush several buffers.
    let n = 40_000u64;
    for i in 0..n {
        clam.insert(key(i), i).unwrap();
    }
    assert!(clam.stats().flushes > 0, "expected at least one flush");
    // Early keys should now live on flash; they must still be found.
    let mut flash_hits = 0;
    for i in 0..200u64 {
        let out = clam.lookup(key(i)).unwrap();
        assert_eq!(out.value, Some(i));
        if out.source == LookupSource::Flash {
            flash_hits += 1;
            assert!(out.flash_reads >= 1);
        }
    }
    assert!(flash_hits > 0, "expected some lookups to be served from flash");
}

#[test]
fn missing_keys_return_none_with_few_flash_reads() {
    let mut clam = small_clam();
    for i in 0..20_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    let mut total_reads = 0usize;
    let misses = 2_000u64;
    for i in 0..misses {
        let out = clam.lookup(hash_with_seed(i, 0xdead_bead)).unwrap();
        assert_eq!(out.value, None);
        total_reads += out.flash_reads;
    }
    // With adequately sized Bloom filters, unsuccessful lookups should
    // almost never touch flash.
    let per_miss = total_reads as f64 / misses as f64;
    assert!(per_miss < 0.2, "unsuccessful lookups read flash {per_miss} times on average");
}

#[test]
fn update_returns_the_newest_value() {
    let mut clam = small_clam();
    let k = key(7);
    clam.insert(k, 1).unwrap();
    // Push the old value to flash by filling the same super table's
    // buffer indirectly: insert enough keys overall.
    for i in 1000..30_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    clam.insert(k, 2).unwrap();
    assert_eq!(clam.lookup(k).unwrap().value, Some(2));
    // And again after more churn.
    for i in 30_000..60_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    assert_eq!(clam.lookup(k).unwrap().value, Some(2));
}

#[test]
fn delete_hides_flash_copies() {
    let mut clam = small_clam();
    let k = key(3);
    clam.insert(k, 33).unwrap();
    for i in 10_000..40_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    // The key is on flash by now; delete must still hide it.
    clam.delete(k).unwrap();
    let out = clam.lookup(k).unwrap();
    assert_eq!(out.value, None);
    assert_eq!(out.source, LookupSource::Deleted);
    // Re-inserting revives it.
    clam.insert(k, 44).unwrap();
    assert_eq!(clam.lookup(k).unwrap().value, Some(44));
}

#[test]
fn matches_reference_model_under_churn() {
    let mut clam = small_clam();
    let mut model: HashMap<Key, Value> = HashMap::new();
    // Interleave inserts, updates and deletes, then verify every key
    // that should still be live. Use few enough keys that FIFO eviction
    // does not drop live entries.
    for i in 0..30_000u64 {
        let k = key(i % 10_000);
        match i % 7 {
            0..=4 => {
                clam.insert(k, i).unwrap();
                model.insert(k, i);
            }
            5 => {
                clam.delete(k).unwrap();
                model.remove(&k);
            }
            _ => {
                let expect = model.get(&k).copied();
                assert_eq!(clam.lookup(k).unwrap().value, expect, "iteration {i}");
            }
        }
    }
    for (k, v) in model {
        assert_eq!(clam.lookup(k).unwrap().value, Some(v));
    }
}

#[test]
fn old_keys_are_evicted_fifo_when_capacity_wraps() {
    let cfg = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
    let mut clam = Clam::new(Ssd::intel(2 << 20).unwrap(), cfg).unwrap();
    let capacity_entries = clam.config().flash_capacity as usize / 32; // generous bound
    let n = capacity_entries as u64 * 3;
    for i in 0..n {
        clam.insert(key(i), i).unwrap();
    }
    assert!(clam.stats().forced_evictions > 0 || clam.stats().flushes > 0);
    // The oldest keys must be gone (FIFO), the newest still present.
    let old = clam.lookup(key(0)).unwrap();
    assert_eq!(old.value, None, "oldest key should have been evicted");
    let new = clam.lookup(key(n - 1)).unwrap();
    assert_eq!(new.value, Some(n - 1));
}

#[test]
fn lookups_by_source_split_every_lookup_after_the_log_wraps() {
    let cfg = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
    let mut clam = Clam::new(Ssd::intel(2 << 20).unwrap(), cfg).unwrap();
    let n = clam.config().flash_capacity / 32 * 3;
    let ops: Vec<(Key, Value)> = (0..n).map(|i| (key(i), i)).collect();
    for chunk in ops.chunks(64) {
        clam.insert_batch(chunk).unwrap();
    }
    let slots = clam.config().flash_capacity / clam.config().buffer_bytes_per_table;
    assert!(clam.stats().flushes > 2 * slots, "the log wrapped twice");
    for i in (n - 3_000..n).step_by(7) {
        clam.delete(key(i)).unwrap();
    }
    clam.reset_stats();
    // Evicted, on flash, retired, buffered, deleted and never-inserted
    // keys, through the scalar and the batched path.
    let keys: Vec<Key> = (0..200).chain(n - 20_000..n + 200).map(key).collect();
    for &k in &keys[..2_000] {
        clam.lookup(k).unwrap();
    }
    for chunk in keys[2_000..].chunks(64) {
        clam.lookup_batch(chunk).unwrap();
    }
    let stats = clam.stats();
    let by_source = stats.lookups_by_source;
    assert!(by_source.iter().all(|&n| n > 0), "every source seen: {by_source:?}");
    assert_eq!(by_source.iter().sum::<u64>(), stats.lookups.len() as u64);
    // A miss at zero reads is one the filters turned away: the zero-read
    // bucket holds it and every memory hit.
    let memory = [LookupSource::Buffer, LookupSource::Retired, LookupSource::Deleted]
        .map(|source| by_source[source as usize]);
    assert!(stats.flash_reads_histogram[0] > memory.iter().sum::<u64>(), "{stats}");
}

#[test]
fn insert_latency_is_microseconds_on_average() {
    let mut clam = small_clam();
    let n = 50_000u64;
    let latencies: Vec<SimDuration> =
        (0..n).map(|i| clam.insert(key(i), i).unwrap().latency).collect();
    // Returned latencies: each includes the drain of its own call, the
    // device time of the flush it triggered.
    let mean = latencies.iter().fold(SimDuration::ZERO, |sum, &l| sum + l) / n;
    assert!(mean < SimDuration::from_micros(60), "average insert latency too high: {mean}");
    let max = latencies.iter().copied().max().unwrap();
    assert!(max > mean * 10, "worst-case insert should be dominated by flushes");
}

#[test]
fn average_lookup_is_fast_at_moderate_hit_rates() {
    let mut clam = small_clam();
    for i in 0..50_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    clam.reset_stats();
    // 40% of lookups hit existing keys, 60% miss.
    for i in 0..10_000u64 {
        let k = if i % 5 < 2 { key(20_000 + i) } else { hash_with_seed(i, 0xaaaa) };
        clam.lookup(k).unwrap();
    }
    let mean = clam.stats().lookups.mean();
    assert!(mean < SimDuration::from_micros(300), "average lookup latency too high: {mean}");
}

#[test]
fn lru_reinserts_used_items() {
    let mut cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    cfg.eviction = EvictionPolicy::Lru;
    let mut clam = Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap();
    // Insert enough that the early keys are flushed out of the buffers.
    for i in 0..40_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    assert!(clam.stats().flushes > 0);
    let before = clam.stats().reinsertions;
    // Touch keys that are on flash.
    for i in 0..50u64 {
        clam.lookup(key(i)).unwrap();
    }
    assert!(clam.stats().reinsertions > before, "LRU lookups should re-insert flash hits");
}

#[test]
fn update_based_eviction_retains_unmodified_entries() {
    let mut cfg = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
    cfg.eviction = EvictionPolicy::UpdateBased;
    let mut clam = Clam::new(Ssd::intel(2 << 20).unwrap(), cfg).unwrap();
    let mut cascades_seen = false;
    for i in 0..80_000u64 {
        // 40% of inserts update recent keys, the rest are new.
        let k = if i % 5 < 2 { key(i / 3) } else { key(i) };
        let out = clam.insert(k, i).unwrap();
        if out.evictions > 1 {
            cascades_seen = true;
        }
    }
    assert!(clam.stats().reinsertions > 0, "partial discard should retain some entries");
    // Cascades are possible but most evictions should be shallow.
    let hist = clam.stats().cascade_histogram.clone();
    let total: u64 = hist.iter().sum();
    let deep: u64 = hist.iter().skip(4).sum();
    assert!(total > 0);
    assert!(deep * 10 <= total, "cascades deeper than 3 should be rare ({deep}/{total})");
    let _ = cascades_seen;
}

#[test]
fn priority_eviction_drops_low_priority_entries() {
    let mut cfg = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
    cfg.eviction = EvictionPolicy::priority_threshold(u64::MAX);
    // Threshold of MAX means nothing is retained: behaves like FIFO.
    let mut clam = Clam::new(Ssd::intel(2 << 20).unwrap(), cfg).unwrap();
    for i in 0..60_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    assert_eq!(clam.stats().reinsertions, 0);
}

#[test]
fn works_on_a_magnetic_disk_but_slower_lookups() {
    let cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
    let mut on_disk = Clam::new(MagneticDisk::new(8 << 20).unwrap(), cfg).unwrap();
    let cfg2 = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
    let mut on_ssd = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg2).unwrap();
    for i in 0..60_000u64 {
        on_disk.insert(key(i), i).unwrap();
        on_ssd.insert(key(i), i).unwrap();
    }
    on_disk.reset_stats();
    on_ssd.reset_stats();
    for i in 0..2_000u64 {
        on_disk.lookup(key(i)).unwrap();
        on_ssd.lookup(key(i)).unwrap();
    }
    let disk_mean = on_disk.stats().lookups.mean();
    let ssd_mean = on_ssd.stats().lookups.mean();
    assert!(
        disk_mean > ssd_mean * 3,
        "disk lookups ({disk_mean}) should be much slower than SSD lookups ({ssd_mean})"
    );
}

#[test]
fn disabled_bloom_filters_cause_many_flash_reads() {
    let mut cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
    cfg.filter_mode = FilterMode::Disabled;
    let mut clam = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg).unwrap();
    for i in 0..60_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    clam.reset_stats();
    for i in 0..500u64 {
        clam.lookup(hash_with_seed(i, 0xfeed)).unwrap(); // misses
    }
    let per_lookup = clam.stats().lookup_flash_reads as f64 / 500.0;
    assert!(
        per_lookup > 2.0,
        "without Bloom filters, misses should probe many incarnations (got {per_lookup})"
    );
}

#[test]
fn flush_all_writes_buffered_entries() {
    let mut clam = small_clam();
    for i in 0..100u64 {
        clam.insert(key(i), i).unwrap();
    }
    let flushes_before = clam.stats().flushes;
    clam.flush_all().unwrap();
    assert!(clam.stats().flushes > flushes_before);
    for i in 0..100u64 {
        assert_eq!(clam.lookup(key(i)).unwrap().value, Some(i));
    }
}

/// `memory_usage` of a CLAM before any table flushed and after every
/// table did, each checked against what the tables allocate.
fn memory_before_and_after_first_flushes(mut clam: Clam<Ssd>) -> MemoryUsage {
    let (tables, cfg) = (clam.num_super_tables(), clam.config().clone());
    // Buffers report their allocation: a slot is the 16-byte entry the
    // budget is quoted in, so every table holds its configured bytes, plus
    // the slot's one-byte generation stamp.
    assert_eq!(std::mem::size_of::<Entry>(), ENTRY_SIZE);
    let fresh = clam.memory_usage();
    let slot_bytes = tables * cfg.buffer_bytes_per_table as usize;
    assert_eq!(fresh.buffers, slot_bytes + slot_bytes / ENTRY_SIZE);
    assert!(slot_bytes <= cfg.buffer_bytes_total as usize);
    // A table that never flushed holds no slices.
    assert_eq!((fresh.filters, fresh.delete_lists), (0, 0));
    for i in 0..64 * tables as u64 {
        clam.insert(key(i), i).unwrap();
    }
    clam.flush_all().unwrap();
    let usage = clam.memory_usage();
    assert_eq!(usage.buffers, fresh.buffers);
    let (k, m) = (cfg.incarnations_per_table(), cfg.bloom_bits_per_incarnation());
    assert_eq!(usage.filters, tables * BitSlicedBloomSet::slice_bytes(k, m));
    // Further flushes and evictions allocate nothing more.
    for i in 0..400_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    assert!(clam.stats().flushes as usize > tables * k, "the ring of lanes went round");
    assert_eq!(clam.memory_usage().filters, usage.filters);
    usage
}

#[test]
fn memory_usage_reports_buffers_and_filters() {
    // k = 15 here: the slices round up to 16 lanes, past the Bloom
    // budget by that sixteenth (and whole 64-row blocks), never by 2x.
    let clam = small_clam();
    let (tables, k) = (clam.num_super_tables(), clam.config().incarnations_per_table());
    let budget = clam.config().bloom_bytes_total() as usize;
    assert!(!k.is_power_of_two());
    let usage = memory_before_and_after_first_flushes(clam);
    assert!(usage.filters > budget && usage.filters < 2 * budget, "{usage:?} vs {budget}");
    // Exactly: lanes / k of the budget, plus at most one 64-row block
    // (8 bytes a lane) a table.
    let lanes = k.next_power_of_two();
    assert!(usage.filters <= budget / k * lanes + tables * lanes * 8);
}

#[test]
fn bit_slices_at_the_benchmark_geometry_are_the_bloom_budget() {
    // One stripe of the repo benchmark: 16 tables of k = 16 incarnations
    // with 16 384-bit filters, 512 KiB of Bloom budget, all of it used
    // and no more.
    let cfg = ClamConfig::small_test(8 << 20, 1 << 20).unwrap();
    assert_eq!((cfg.num_super_tables(), cfg.incarnations_per_table()), (16, 16));
    assert_eq!((cfg.bloom_bits_per_incarnation(), cfg.bloom_hashes()), (16_384, 11));
    let (budget, buffers) = (cfg.bloom_bytes_total() as usize, cfg.buffer_bytes_total as usize);
    let usage = memory_before_and_after_first_flushes(
        Clam::new(Ssd::intel(8 << 20).unwrap(), cfg).unwrap(),
    );
    assert_eq!((usage.filters, budget), (512 << 10, 512 << 10));
    // The buffers' slots are the other half of the DRAM, to the byte;
    // their generation stamps, a byte a slot, are 1/16 of it on top.
    assert_eq!((usage.buffers, buffers), ((512 << 10) + (32 << 10), 512 << 10));
}

#[test]
fn paper_scale_bit_slices_are_the_two_gigabyte_bloom_budget() {
    // §7.1.1's 32 GB / 4 GB configuration, arithmetic only: 16 384
    // super tables of 16 lanes by 65 536 rows.
    let cfg = ClamConfig {
        flash_capacity: 32 << 30,
        dram_bytes: 4 << 30,
        buffer_bytes_total: 2 << 30,
        buffer_bytes_per_table: 128 * 1024,
        ..ClamConfig::small_test(8 << 20, 1 << 20).unwrap()
    };
    cfg.validate().unwrap();
    let per_table = BitSlicedBloomSet::slice_bytes(
        cfg.incarnations_per_table(),
        cfg.bloom_bits_per_incarnation(),
    );
    assert_eq!(cfg.num_super_tables() * per_table, 2 << 30);
    assert_eq!(cfg.bloom_bytes_total(), 2 << 30);
}

#[test]
fn rejects_device_smaller_than_configuration() {
    let cfg = ClamConfig::small_test(16 << 20, 4 << 20).unwrap();
    let ssd = Ssd::intel(4 << 20).unwrap();
    assert!(Clam::new(ssd, cfg).is_err());
}

#[test]
fn insert_batch_matches_sequential_state() {
    let mut seq = small_clam();
    let mut bat = small_clam();
    let ops: Vec<(Key, Value)> = (0..60_000u64).map(|i| (key(i), i)).collect();
    for &(k, v) in &ops {
        seq.insert(k, v).unwrap();
    }
    for chunk in ops.chunks(64) {
        bat.insert_batch(chunk).unwrap();
    }
    // Same flush points, same incarnation counts, same entries.
    assert_eq!(seq.stats().flushes, bat.stats().flushes);
    assert!(bat.stats().flushes > 0, "workload must exercise flushing");
    assert_eq!(seq.approximate_entries(), bat.approximate_entries());
    for i in (0..60_000u64).step_by(61) {
        let a = seq.lookup(key(i)).unwrap();
        let b = bat.lookup(key(i)).unwrap();
        assert_eq!(a.value, b.value, "key {i}");
        assert_eq!(a.source, b.source, "key {i}");
    }
}

#[test]
fn insert_batch_amortizes_latency() {
    let mut seq = small_clam();
    let mut bat = small_clam();
    let ops: Vec<(Key, Value)> = (0..50_000u64).map(|i| (key(i), i)).collect();
    let mut seq_total = SimDuration::ZERO;
    for &(k, v) in &ops {
        seq_total += seq.insert(k, v).unwrap().latency;
    }
    let mut bat_total = SimDuration::ZERO;
    for chunk in ops.chunks(64) {
        bat_total += bat.insert_batch(chunk).unwrap().latency;
    }
    assert!(
        bat_total * 2 < seq_total,
        "batched inserts ({bat_total}) should cost less than half of per-op ({seq_total})"
    );
    assert_eq!(bat.stats().batched_inserts, 50_000);
}

#[test]
fn insert_batch_coalesces_contiguous_flush_writes() {
    let mut clam = small_clam();
    // One giant batch triggers many flushes; with the global log they
    // land on contiguous slots and coalesce.
    let ops: Vec<(Key, Value)> = (0..120_000u64).map(|i| (key(i), i)).collect();
    let out = clam.insert_batch(&ops).unwrap();
    assert!(out.flushed_ops > 0);
    assert!(
        out.coalesced_writes > 0,
        "contiguous incarnation writes should merge (flushed {} ops)",
        out.flushed_ops
    );
    assert_eq!(clam.stats().coalesced_flush_writes, out.coalesced_writes as u64);
    assert!(clam.stats().deferred_flush_time > SimDuration::ZERO);
}

#[test]
fn lookup_batch_matches_sequential_lookups() {
    let mut clam = small_clam();
    let ops: Vec<(Key, Value)> = (0..40_000u64).map(|i| (key(i), i)).collect();
    clam.insert_batch(&ops).unwrap();
    let keys: Vec<Key> =
        (0..500u64).map(|i| if i % 3 == 0 { key(i) } else { key(1_000_000 + i) }).collect();
    let batched = clam.lookup_batch(&keys).unwrap();
    for (i, k) in keys.iter().enumerate() {
        let solo = clam.lookup(*k).unwrap();
        assert_eq!(batched[i].value, solo.value, "key index {i}");
        assert_eq!(batched[i].source, solo.source, "key index {i}");
    }
    assert_eq!(clam.stats().batched_lookups, 500);
}

#[test]
fn lookup_batch_amortizes_buffer_hit_latency() {
    let mut clam = small_clam();
    let ops: Vec<(Key, Value)> = (0..500u64).map(|i| (key(i), i)).collect();
    clam.insert_batch(&ops).unwrap();
    // All keys are still buffered: per-op cost is pure overhead.
    let keys: Vec<Key> = (0..500u64).map(key).collect();
    let mut solo_total = SimDuration::ZERO;
    for &k in &keys {
        solo_total += clam.lookup(k).unwrap().latency;
    }
    let batched = clam.lookup_batch(&keys).unwrap();
    let bat_total = batched.latency;
    assert!(
        bat_total * 2 < solo_total,
        "batched buffer-hit lookups ({bat_total}) should be well under half of per-op ({solo_total})"
    );
    // No flash probes were needed, so no waves were submitted and the
    // batch is pure host time.
    assert_eq!(batched.waves, 0);
    assert_eq!(batched.probe_latency, SimDuration::ZERO);
    assert_eq!(clam.stats().lookup_probe_requests, 0);
}

#[test]
fn single_op_batches_cost_the_same_as_per_op() {
    let mut per_op = small_clam();
    let mut batched = small_clam();
    let solo = per_op.insert(key(1), 1).unwrap().latency;
    let batch = batched.insert_batch(&[(key(1), 1)]).unwrap().latency;
    assert_eq!(solo, batch, "a batch of one must not cost more than a per-op insert");
    let solo = per_op.lookup(key(1)).unwrap().latency;
    let batch = batched.lookup_batch(&[key(1)]).unwrap();
    assert_eq!(solo, batch[0].latency, "a batch of one must not cost more than a per-op lookup");
    assert_eq!(solo, batch.latency, "batch-of-one elapsed time equals the per-op charge");

    // A flushing op: a third CLAM finds the key of table 0 that flushes,
    // and both CLAMs are filled to one key short of it.
    let mut probe = small_clam();
    probe.insert(key(1), 1).unwrap();
    let tables = probe.num_super_tables();
    let mut fresh = (2..).map(key).filter(|&k| table_of(k, tables) == 0).zip(2u64..);
    let mut fill = Vec::new();
    let flushing = loop {
        let (k, v) = fresh.next().unwrap();
        if probe.insert(k, v).unwrap().flushed {
            break (k, v);
        }
        fill.push((k, v));
    };
    fill.iter().for_each(|&(k, v)| assert!(!per_op.insert(k, v).unwrap().flushed));
    assert_eq!(batched.insert_batch(&fill).unwrap().flushed_ops, 0);
    let solo = per_op.insert(flushing.0, flushing.1).unwrap();
    let batch = batched.insert_batch(&[flushing]).unwrap();
    assert!(solo.flushed && batch.flushed_ops == 1);
    assert_eq!(solo.latency, batch.latency, "a flushing batch of one costs a per-op insert");
    // Both book the drain of their write window, the flush's device time,
    // to `deferred_flush_time` and not to the latency sample.
    let (p, b) = (per_op.stats(), batched.stats());
    assert!(p.deferred_flush_time > SimDuration::ZERO);
    assert_eq!(p.deferred_flush_time, b.deferred_flush_time);
    assert_eq!(p.inserts.max(), b.inserts.max());
    assert_eq!(p.inserts.max() + p.deferred_flush_time, solo.latency);
}

#[test]
fn empty_batches_are_no_ops() {
    let mut clam = small_clam();
    let out = clam.insert_batch(&[]).unwrap();
    assert_eq!(out.ops, 0);
    assert_eq!(out.latency, SimDuration::ZERO);
    assert!(clam.lookup_batch(&[]).unwrap().is_empty());
    assert_eq!(clam.stats().total_ops(), 0);
}

#[test]
fn batched_and_perop_paths_interleave_safely() {
    let mut clam = small_clam();
    for round in 0..20u64 {
        let ops: Vec<(Key, Value)> = (0..2_000u64).map(|i| (key(round * 2_000 + i), i)).collect();
        clam.insert_batch(&ops).unwrap();
        // Per-op traffic between batches sees every batched write.
        for i in 0..50u64 {
            let k = key(round * 2_000 + i);
            assert_eq!(clam.lookup(k).unwrap().value, Some(i));
        }
    }
}

#[test]
fn update_based_eviction_works_under_batching() {
    let mut cfg = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
    cfg.eviction = EvictionPolicy::UpdateBased;
    let mut clam = Clam::new(Ssd::intel(2 << 20).unwrap(), cfg).unwrap();
    // Enough churn that partial-discard evictions (which read flash
    // mid-batch) interleave with deferred batch writes.
    let ops: Vec<(Key, Value)> =
        (0..80_000u64).map(|i| if i % 5 < 2 { (key(i / 3), i) } else { (key(i), i) }).collect();
    let mut deepest_reading_call = 0;
    for chunk in ops.chunks(256) {
        let before = clam.device().stats();
        clam.insert_batch(chunk).unwrap();
        let after = clam.device().stats();
        if after.reads > before.reads {
            let submitted = after.requests_submitted - before.requests_submitted;
            deepest_reading_call = deepest_reading_call.max(submitted);
        }
    }
    assert!(clam.stats().reinsertions > 0, "partial discard should retain entries");
    // Each eviction read is a sync point of its call, and the flush
    // write that follows it lands after that point, so the depth the
    // mixed ring records stays below every reading call's total.
    let mixed = clam.stats().mixed_ring_depth_high_water;
    assert!(0 < mixed && mixed < deepest_reading_call, "{mixed} of {deepest_reading_call}");
    // Recent keys must be readable.
    let recent = clam.lookup(key(79_999)).unwrap();
    assert_eq!(recent.value, Some(79_999));
}

#[test]
fn table_partitioning_spreads_keys() {
    let clam = small_clam();
    let tables = clam.num_super_tables();
    let mut counts = vec![0usize; tables];
    for i in 0..10_000u64 {
        counts[clam.table_of(key(i))] += 1;
    }
    let expected = 10_000 / tables;
    assert!(counts.iter().all(|&c| c > expected / 3 && c < expected * 3));
}

/// One super table, Bloom filters disabled so every lookup probes
/// every incarnation deterministically.
fn deterministic_probe_config() -> ClamConfig {
    let cfg = ClamConfig {
        flash_capacity: 8 << 20,
        dram_bytes: 1 << 20,
        buffer_bytes_total: 32 * 1024,
        buffer_bytes_per_table: 32 * 1024,
        entry_size: 16,
        max_buffer_utilization: 0.5,
        eviction: EvictionPolicy::Fifo,
        filter_mode: FilterMode::Disabled,
        enable_buffering: true,
    };
    cfg.validate().unwrap();
    cfg
}

/// A single-super-table CLAM with `rounds` incarnations of a few
/// entries each (so probe chains never overflow).
fn deterministic_probe_clam(device: Ssd, rounds: usize) -> Clam<Ssd> {
    let cfg = deterministic_probe_config();
    assert!(rounds <= cfg.incarnations_per_table());
    let mut clam = Clam::new(device, cfg).unwrap();
    for round in 0..rounds as u64 {
        for i in 0..8u64 {
            clam.insert(key(round * 100 + i), i).unwrap();
        }
        clam.flush_all().unwrap();
    }
    clam
}

#[test]
fn queued_lookup_batch_overlaps_probes_on_the_device_queue() {
    // Intel-class SSD: queue depth 8. 64 absent keys with
    // filters disabled probe 4 incarnations each — 4 waves of 64 reads.
    let mut clam = deterministic_probe_clam(Ssd::intel(8 << 20).unwrap(), 4);
    clam.reset_stats();
    let keys: Vec<Key> = (0..64u64).map(|i| hash_with_seed(i, 0xab5e7)).collect();
    let batch = clam.lookup_batch(&keys).unwrap();
    assert_eq!(batch.ops(), 64);
    assert_eq!(batch.hits(), 0);
    assert_eq!(batch.waves, 4);
    assert_eq!(batch.probe_reads, 4 * 64);
    // Makespan accounting: the batch's flash time is far below the sum
    // of the per-key read charges (8 lanes -> ~8x overlap).
    let summed: SimDuration =
        batch.outcomes.iter().map(|o| o.latency).fold(SimDuration::ZERO, |acc, l| acc + l);
    assert!(
        batch.latency * 4 < summed,
        "queued batch ({}) should undercut summed per-key charges ({summed})",
        batch.latency
    );
    // Stats ledger.
    let stats = clam.stats();
    assert_eq!(stats.lookup_batches_submitted, 1);
    assert_eq!(stats.lookup_probe_waves, 4);
    assert_eq!(stats.lookup_probe_requests, 4 * 64);
    assert!(stats.lookup_probes_overlapped > 0, "SSD lanes must overlap probes");
    let text = stats.to_string();
    let queued = "lookup_batches_submitted: 1 | lookup_probe_waves: 4 | lookup_probe_requests: 256";
    assert!(text.contains(queued), "{text}");
}

#[test]
fn queued_lookup_batch_matches_the_cost_model_exactly() {
    use crate::analysis::FlashCostModel;
    use flashsim::DeviceProfile;
    const ROUNDS: usize = 4;
    // 48 divides evenly into every swept lane count; 42 leaves a tail
    // at depth 8.
    for keys_n in [48usize, 42] {
        for depth in [1usize, 2, 8] {
            let profile = DeviceProfile { queue_depth: depth, ..DeviceProfile::intel_x18m() };
            let build = || {
                deterministic_probe_clam(
                    Ssd::with_profile(8 << 20, profile.clone()).unwrap(),
                    ROUNDS,
                )
            };
            let keys: Vec<Key> = (0..keys_n as u64).map(|i| hash_with_seed(i, 0x1017e)).collect();
            let model = FlashCostModel::from_profile(&profile);

            // Streaming ring pipeline == ring model, exactly.
            let mut clam = build();
            let ring = clam.lookup_batch(&keys).unwrap();
            assert_eq!(ring.waves, ROUNDS);
            assert_eq!(ring.probe_reads, ROUNDS * keys_n);
            assert_eq!(ring.ring_depth_high_water, keys_n.min(probe_window(depth)));
            assert_eq!(
                ring.probe_latency,
                model.lookup_ring_makespan(keys_n, ROUNDS, depth),
                "ring pipeline and closed-form ring model must agree at \
                 {keys_n} keys, depth {depth}"
            );
        }
    }
}

/// `rounds` incarnations of one super table, Bloom filters disabled:
/// the oldest holds `keys_n` keys (returned), the younger ones a few
/// others, so each returned key is found after exactly `rounds` reads.
fn windowed_probe_clam<D: Device>(device: D, keys_n: u64, rounds: usize) -> (Clam<D>, Vec<Key>) {
    let config = deterministic_probe_config();
    let mut clam = Clam::new(device, config.clone()).unwrap();
    let keys: Vec<Key> = (0..keys_n).map(|i| hash_with_seed(i, 0x77ee)).collect();
    for (i, &k) in keys.iter().enumerate() {
        clam.insert(k, i as u64).unwrap();
    }
    clam.flush_all().unwrap();
    for round in 1..rounds as u64 {
        for i in 0..8u64 {
            clam.insert(key(round * 100 + i), i).unwrap();
        }
        clam.flush_all().unwrap();
    }
    // A recovered CLAM starts with no slot copies, so every key lives on
    // flash only.
    let (clam, _) = Clam::recover(clam.into_device(), config).unwrap();
    (clam, keys)
}

#[test]
fn lookup_batches_hold_at_most_a_window_of_reads_in_flight() {
    use crate::analysis::FlashCostModel;
    use flashsim::{DeviceProfile, FileDevice};
    const ROUNDS: usize = 2;
    let profile = DeviceProfile::intel_x18m();
    let depth = profile.queue_depth;
    let window = probe_window(depth);
    let keys_n = 10 * window + 7;

    // Simulated SSD: ten windows of flash-resident keys finish in the
    // time the closed form gives for all of them admitted at once.
    let ssd = Ssd::with_profile(8 << 20, profile.clone()).unwrap();
    let (mut clam, keys) = windowed_probe_clam(ssd, keys_n as u64, ROUNDS);
    let per_key: Vec<Option<Value>> = keys.iter().map(|&k| clam.lookup(k).unwrap().value).collect();
    clam.reset_stats();
    let batch = clam.lookup_batch(&keys).unwrap();
    assert_eq!(batch.values(), per_key);
    assert_eq!(batch.hits(), keys_n);
    assert_eq!(batch.probe_reads, ROUNDS * keys_n);
    assert_eq!(batch.ring_depth_high_water, window);
    assert_eq!(clam.stats().lookup_ring_depth_high_water, window as u64);
    assert_eq!(
        batch.probe_latency,
        FlashCostModel::from_profile(&profile).lookup_ring_makespan(keys_n, ROUNDS, depth)
    );

    // Real positioned I/O: latencies are measured, so only the depth
    // and the outcomes are exact.
    let path = std::env::temp_dir().join(format!("clam-window-{}.img", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let file = FileDevice::with_queue_depth(&path, 8 << 20, 4).unwrap();
    let file_window = probe_window(file.queue());
    let keys_n = 10 * file_window + 7;
    let (mut clam, keys) = windowed_probe_clam(file, keys_n as u64, ROUNDS);
    let per_key: Vec<Option<Value>> = keys.iter().map(|&k| clam.lookup(k).unwrap().value).collect();
    let batch = clam.lookup_batch(&keys).unwrap();
    assert_eq!(batch.values(), per_key);
    assert_eq!(batch.hits(), keys_n);
    assert_eq!(batch.probe_reads, ROUNDS * keys_n);
    assert!(
        (1..=file_window).contains(&batch.ring_depth_high_water),
        "{} reads in flight, window {file_window}",
        batch.ring_depth_high_water
    );
    drop(clam);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn lru_reinserts_route_through_the_queued_flush_submission() {
    let mut cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    cfg.eviction = EvictionPolicy::Lru;
    let mut clam = Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap();
    for i in 0..40_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    assert!(clam.stats().flushes > 0);
    let flushes_before = clam.stats().flushes;
    let reinserts_before = clam.stats().reinsertions;
    let async_before = clam.stats().async_reinsert_time;
    // Batched lookups of flash-resident keys: every hit re-inserts, and
    // the buffers are already full, so re-insertion must flush — through
    // the deferred/queued submission, not blocking per-table writes.
    let keys: Vec<Key> = (0..2_000u64).map(key).collect();
    for chunk in keys.chunks(256) {
        let batch = clam.lookup_batch(chunk).unwrap();
        assert_eq!(batch.hits(), chunk.len());
    }
    let stats = clam.stats();
    assert!(stats.reinsertions > reinserts_before, "LRU lookups should re-insert flash hits");
    assert!(stats.flushes > flushes_before, "re-insertion into full buffers must flush");
    assert!(
        stats.async_reinsert_time > async_before,
        "re-insert flush cost must be accounted asynchronously"
    );
    // Re-insertion always lands the key in the buffer by the end of
    // its lookup call (later re-inserts may flush it back out, so probe
    // once to re-insert, then observe the buffered copy).
    assert_eq!(clam.lookup(key(0)).unwrap().value, Some(0));
    let again = clam.lookup(key(0)).unwrap();
    assert_eq!(again.value, Some(0));
    assert_eq!(again.source, LookupSource::Buffer);
}

#[test]
fn flush_writes_ride_the_ring_and_fill_the_write_ledger() {
    let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    let mut clam = Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap();
    let ops: Vec<(u64, u64)> = (0..40_000u64).map(|i| (key(i), i)).collect();
    for chunk in ops.chunks(512) {
        clam.insert_batch(chunk).unwrap();
    }
    clam.flush_all().unwrap();
    let stats = clam.stats();
    assert!(stats.flushes > 0);
    assert!(
        stats.flush_ring_reaps > 0,
        "ring-driven flushes must reap their writes off the ring: {stats}"
    );
    // Every ring reap of this write-only workload is on the flush
    // ledger, and they all reached the device's submission queue.
    let io = clam.device().stats();
    assert_eq!(io.requests_submitted, stats.flush_ring_reaps + stats.lookup_ring_reaps);
    assert!(io.ring_depth_high_water >= 1);
    // The ledger renders in the Display summary, under the entry's name.
    let reaps = format!("flush_ring_reaps: {}", stats.flush_ring_reaps);
    assert!(stats.to_string().contains(&reaps), "{stats}");
    // No mixed traffic here: inserts never put a read on the ring
    // (SSD evictions trim, they do not read back).
    assert_eq!(stats.mixed_ring_depth_high_water, 0, "{stats}");
}

#[test]
fn lru_reinsert_flushes_share_the_lookup_ring() {
    let mut cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    cfg.eviction = EvictionPolicy::Lru;
    let mut clam = Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap();
    for i in 0..40_000u64 {
        clam.insert(key(i), i).unwrap();
    }
    let flushes_before = clam.stats().flushes;
    // Flash-hit lookups re-insert, the full buffers flush, and those
    // flush writes are admitted into the *same* ring the probe reads
    // ran on — one mixed read/write stream per batch.
    let keys: Vec<Key> = (0..2_000u64).map(key).collect();
    for chunk in keys.chunks(256) {
        clam.lookup_batch(chunk).unwrap();
    }
    let stats = clam.stats();
    assert!(stats.flushes > flushes_before, "re-insertion must have flushed");
    assert!(stats.lookup_ring_reaps > 0, "probes reaped on the ring: {stats}");
    assert!(stats.flush_ring_reaps > 0, "re-insert flush writes reaped on the ring: {stats}");
    assert!(
        stats.mixed_ring_depth_high_water > 0,
        "reads and writes shared a ring, so the mixed high-water must register: {stats}"
    );
}

#[test]
fn tombstones_and_live_values_win_over_the_retired_generation() {
    let mut clam = small_clam();
    let k = key(1);
    clam.insert(k, 10).unwrap();
    clam.flush_all().unwrap();
    // The key's only copies: the youngest incarnation, and the buffer slot
    // it was flushed from.
    let out = clam.lookup(k).unwrap();
    assert_eq!((out.value, out.source, out.flash_reads), (Some(10), LookupSource::Retired, 0));
    let retired_count =
        |clam: &Clam<Ssd>| clam.stats().lookups_by_source[LookupSource::Retired as usize];
    assert_eq!((retired_count(&clam), clam.device().stats().reads), (1, 0));
    assert!(out.latency < BASE_OP_OVERHEAD + SimDuration::from_micros(1), "DRAM only: {out:?}");
    clam.assert_slot_copies_match_flash();

    clam.delete(k).unwrap();
    let out = clam.lookup(k).unwrap();
    assert_eq!((out.value, out.source), (None, LookupSource::Deleted));
    clam.insert(k, 11).unwrap();
    let out = clam.lookup(k).unwrap();
    assert_eq!((out.value, out.source), (Some(11), LookupSource::Buffer));
    clam.flush_all().unwrap();
    let out = clam.lookup(k).unwrap();
    assert_eq!((out.value, out.source), (Some(11), LookupSource::Retired));
    clam.assert_slot_copies_match_flash();
    assert_eq!(retired_count(&clam), 2);
}

#[test]
fn every_incarnation_answers_from_its_slots_youngest_first() {
    use LookupSource::Retired;
    // One super table of k = 4, no filters: a lookup walks every
    // incarnation youngest first, reading each younger one from flash,
    // until one answers from its slot copy.
    let cfg = ClamConfig { flash_capacity: 128 * 1024, ..deterministic_probe_config() };
    assert_eq!((cfg.num_super_tables(), cfg.incarnations_per_table()), (1, 4));
    let mut clam = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg).unwrap();
    for round in 0..4u64 {
        clam.insert(key(round), round).unwrap();
        clam.insert(key(10), 100 + round).unwrap();
        clam.flush_all().unwrap();
    }
    clam.assert_slot_copies_match_flash();
    let checked = clam.device().stats().reads;
    for round in 0..4u64 {
        let out = clam.lookup(key(round)).unwrap();
        let younger = 3 - round as usize;
        assert_eq!((out.value, out.source, out.flash_reads), (Some(round), Retired, younger));
    }
    assert_eq!(clam.device().stats().reads - checked, 3 + 2 + 1);
    // The youngest copy of an updated key wins, without a read.
    let out = clam.lookup(key(10)).unwrap();
    assert_eq!((out.value, out.source, out.flash_reads), (Some(103), Retired, 0));
    // A fifth flush evicts round 0's incarnation: its slot copy goes too.
    clam.insert(key(4), 4).unwrap();
    clam.flush_all().unwrap();
    clam.assert_slot_copies_match_flash();
    let out = clam.lookup(key(0)).unwrap();
    assert_eq!((out.value, out.source, out.flash_reads), (None, LookupSource::Miss, 4));
    assert_eq!(clam.lookup(key(1)).unwrap().source, Retired);
}

#[test]
fn a_slot_copy_ends_with_its_incarnation() {
    // One super table of k = 1: a flush evicts the only incarnation
    // before writing the next.
    let cfg = ClamConfig { flash_capacity: 32 * 1024, ..deterministic_probe_config() };
    cfg.validate().unwrap();
    assert_eq!((cfg.num_super_tables(), cfg.incarnations_per_table()), (1, 1));
    let mut clam = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg).unwrap();
    clam.insert(key(1), 1).unwrap();
    clam.flush_all().unwrap();
    assert_eq!(clam.lookup(key(1)).unwrap().source, LookupSource::Retired);
    clam.insert(key(2), 2).unwrap();
    clam.flush_all().unwrap();
    clam.assert_slot_copies_match_flash();
    // Key 1's slot was never written again, and its incarnation is gone.
    let out = clam.lookup(key(1)).unwrap();
    assert_eq!((out.value, out.source), (None, LookupSource::Miss));
    assert_eq!(clam.lookup(key(2)).unwrap().source, LookupSource::Retired);
}

#[test]
fn a_retired_hit_under_lru_reinserts_the_key() {
    let clam_with = |eviction| {
        let mut cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
        cfg.eviction = eviction;
        let mut clam = Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap();
        clam.insert(key(1), 10).unwrap();
        clam.flush_all().unwrap();
        clam
    };
    // FIFO mutates nothing on a hit: the slot copy answers it every time.
    let mut fifo = clam_with(EvictionPolicy::Fifo);
    for _ in 0..2 {
        let out = fifo.lookup(key(1)).unwrap();
        assert_eq!((out.value, out.source, out.flash_reads), (Some(10), LookupSource::Retired, 0));
    }
    assert_eq!(fifo.stats().reinsertions, 0);

    // LRU owes the key a re-insertion, as it would after a flash hit.
    let mut lru = clam_with(EvictionPolicy::Lru);
    let out = lru.lookup(key(1)).unwrap();
    assert_eq!((out.value, out.source, out.flash_reads), (Some(10), LookupSource::Retired, 0));
    assert_eq!(lru.stats().reinsertions, 1, "the re-insertion a flash hit would have queued");
    assert_eq!(lru.lookup(key(1)).unwrap().source, LookupSource::Buffer);
    assert_eq!(lru.device().stats().reads, 0);
}

#[test]
fn a_page_read_from_another_incarnations_slot_fails_the_lookup() {
    // Two incarnations of one table: the older maps the shared keys to 1,
    // the younger to 2 and also holds keys of its own.
    let cfg = deterministic_probe_config();
    let mut clam = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg.clone()).unwrap();
    let (shared, own): (Vec<Key>, Vec<Key>) =
        ((0..50).map(key).collect(), (50..100).map(key).collect());
    for &k in &shared {
        clam.insert(k, 1).unwrap();
    }
    clam.flush_all().unwrap();
    for &k in shared.iter().chain(&own) {
        clam.insert(k, 2).unwrap();
    }
    clam.flush_all().unwrap();
    // A recovered CLAM reads every hit from flash: no slot copy answers.
    let (mut clam, _) = Clam::recover(clam.into_device(), cfg).unwrap();
    let (young, old) =
        (clam.tables[0].incarnation_at(0).unwrap(), clam.tables[0].incarnation_at(1).unwrap());
    // The older incarnation's pages land in the younger one's slot.
    let mut image = vec![0u8; clam.layout.total_bytes()];
    clam.device_mut().read_at(old.flash_offset, &mut image).unwrap();
    clam.device_mut().write_at(young.flash_offset, &image).unwrap();

    let mut failed = 0;
    for &k in shared.iter().chain(&own) {
        match clam.lookup(k) {
            Ok(found) => assert_eq!(found.value, Some(2), "key {k:#x}: {found:?}"),
            Err(BufferHashError::CorruptIncarnation { flash_offset, .. }) => {
                assert!((young.flash_offset..young.flash_offset + image.len() as u64)
                    .contains(&flash_offset));
                failed += 1;
            }
            Err(e) => panic!("key {k:#x}: {e}"),
        }
    }
    assert_eq!(failed, shared.len() + own.len(), "every key's first read is the younger slot");
    assert_eq!(clam.stats().page_identity_mismatches, failed as u64);
    // A batch that reads the slot fails the same way.
    assert!(matches!(clam.lookup_batch(&own), Err(BufferHashError::CorruptIncarnation { .. })));
}

/// The eviction test's configuration: its policy retains only values of
/// at least 2^62.
fn retain_high_values_config() -> ClamConfig {
    let mut cfg = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
    cfg.eviction = EvictionPolicy::priority_threshold(1 << 62);
    cfg
}

/// A CLAM that took `ops` (keys of table 0) from the front until table
/// 0's incarnations are full, with the image of its oldest incarnation
/// on the device handed to `alter`. Returns the CLAM, that incarnation
/// and how many ops it took.
fn clam_with_an_altered_oldest_incarnation(
    ops: &[(Key, Value)],
    alter: fn(&mut [u8], &mut Clam<Ssd>),
) -> (Clam<Ssd>, IncarnationMeta, usize) {
    let mut clam = Clam::new(Ssd::intel(2 << 20).unwrap(), retain_high_values_config()).unwrap();
    let mut used = 0;
    while clam.tables[0].num_incarnations() < clam.tables[0].max_incarnations() {
        let (k, v) = ops[used];
        clam.insert(k, v).unwrap();
        used += 1;
    }
    let oldest = clam.tables[0].oldest_incarnation().unwrap();
    let mut image = vec![0u8; clam.layout.total_bytes()];
    clam.device_mut().read_at(oldest.flash_offset, &mut image).unwrap();
    alter(&mut image, &mut clam);
    clam.device_mut().write_at(oldest.flash_offset, &image).unwrap();
    (clam, oldest, used)
}

/// Flips the top bit of one entry's value: the page CRC catches it, the
/// magic and the entry count do not, and the flipped value would be
/// retained.
fn flip_a_value_bit(image: &mut [u8], clam: &mut Clam<Ssd>) {
    let SlotScan::Valid { entries, .. } = scan_incarnation(image, &clam.layout) else {
        panic!("the oldest incarnation scans valid before the flip")
    };
    let at = image.windows(ENTRY_SIZE).position(|w| w == entries[0].to_bytes()).unwrap();
    image[at + ENTRY_SIZE - 1] ^= 0x80;
}

/// Replaces the image with the youngest incarnation's: every CRC holds,
/// the identity does not.
fn copy_the_youngest(image: &mut [u8], clam: &mut Clam<Ssd>) {
    let youngest = clam.tables[0].incarnation_at(0).unwrap();
    clam.device_mut().read_at(youngest.flash_offset, image).unwrap();
}

#[test]
fn an_eviction_read_that_does_not_prove_its_page_fails_the_call_and_retains_nothing() {
    let tables = retain_high_values_config().num_super_tables();
    let ops: Vec<(Key, Value)> =
        (0..).map(key).filter(|&k| table_of(k, tables) == 0).zip(1u64..).take(40_000).collect();
    for (alter, batched) in [flip_a_value_bit, copy_the_youngest]
        .into_iter()
        .flat_map(|alter| [(alter, false), (alter, true)])
    {
        let (mut clam, oldest, used) = clam_with_an_altered_oldest_incarnation(&ops, alter);
        let mut failure = None;
        for chunk in ops[used..].chunks(if batched { 64 } else { 1 }) {
            let result = if batched {
                clam.insert_batch(chunk).map(|_| ())
            } else {
                clam.insert(chunk[0].0, chunk[0].1).map(|_| ())
            };
            if let Err(e) = result {
                failure = Some(e);
                break;
            }
        }
        match failure {
            Some(BufferHashError::CorruptIncarnation { flash_offset, .. }) => {
                assert_eq!(flash_offset, oldest.flash_offset, "batched: {batched}")
            }
            other => panic!("batched: {batched}: the eviction ended in {other:?}"),
        }
        assert_eq!(clam.stats().reinsertions, 0, "batched: {batched}");
        let evicted = clam.tables[0].oldest_incarnation().map(|m| m.seq);
        assert!(evicted > Some(oldest.seq), "batched: {batched}: the slot is reclaimed");
        // The failed call closed its ring: nothing in flight, nothing
        // deferred.
        let call = &clam.call;
        assert!(call.ring.is_none() && call.pending_run.is_none(), "batched: {batched}");
        // Every key was sent with one value: no lookup answers another.
        for &(k, v) in &ops {
            if let Ok(LookupOutcome { value: Some(found), .. }) = clam.lookup(k) {
                assert_eq!(found, v, "batched: {batched}: key {k:#x}");
            }
        }
    }
}
