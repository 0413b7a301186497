//! Crash-injection property tests: power cuts at arbitrary points in the
//! op stream, torn trailing writes, and recovery from the surviving flash
//! image alone.
//!
//! The oracle is a *trusted scan*: an independent test-side read of the
//! post-crash image that classifies every log slot with
//! [`scan_incarnation`] and applies the recovery acceptance rules
//! ((epoch, seq) shadowing, youngest-`k` retention) in plain code. A key
//! is **durable** exactly when it appears in an accepted incarnation; the
//! expected value is the one in the youngest accepted incarnation holding
//! the key. [`Clam::recover`] must find every durable key with exactly
//! that value, report slot counts identical to the trusted scan, and
//! never fabricate a value the workload did not insert.

use std::collections::{HashMap, HashSet};

use proptest::collection::vec;
use proptest::prelude::*;

use clam::bufferhash::{
    hash_with_seed, scan_incarnation, Clam, ClamConfig, Entry, EvictionPolicy, FilterMode,
    IncarnationIdentity, IncarnationLayout, LookupSource, SlotScan,
};
use clam::flashsim::{
    self, CrashDevice, Device, DeviceError, DeviceProfile, DramDevice, FileDevice, FlashChip,
    Geometry, IoStats, MagneticDisk, SimDuration, Ssd,
};

/// One workload operation: `(key, value, delete?)`.
type Op = (u64, u64, bool);

/// The churn configuration from `property_tests.rs`: 4 KiB × `scale`
/// buffers over a 32 KiB × `scale` log give 2 super tables, 8 log slots
/// and 4 incarnations per table, so a couple of thousand ops drive
/// flushes, evictions and log wrap. `entry_size` scales with the byte
/// dimensions so the flush cadence is identical at any scale.
fn crash_config(util: f64, scale: u64) -> ClamConfig {
    let config = ClamConfig {
        flash_capacity: (32 << 10) * scale,
        dram_bytes: 1 << 20,
        buffer_bytes_total: 8 * 1024 * scale,
        buffer_bytes_per_table: 4 * 1024 * scale,
        entry_size: (16 * scale) as usize,
        max_buffer_utilization: util,
        eviction: EvictionPolicy::Fifo,
        filter_mode: FilterMode::BitSliced,
        enable_buffering: true,
    };
    config.validate().expect("valid crash config");
    config
}

/// Applies `ops` one at a time until the first error (the power cut
/// surfacing through a flush) and returns how many were acknowledged.
fn drive<D: Device>(clam: &mut Clam<D>, ops: &[Op]) -> usize {
    for (i, &(k, v, del)) in ops.iter().enumerate() {
        let outcome = if del { clam.delete(k).map(|_| ()) } else { clam.insert(k, v).map(|_| ()) };
        if outcome.is_err() {
            return i;
        }
    }
    ops.len()
}

/// What an independent scan of the post-crash image says survived.
struct TrustedScan {
    /// Accepted incarnations, youngest-first within each table (and the
    /// tables concatenated), after (epoch, seq) shadowing and youngest-`k`
    /// retention.
    accepted: Vec<(IncarnationIdentity, Vec<Entry>)>,
    torn: usize,
    stale: usize,
    empty: usize,
}

/// Classifies every log slot of `device` exactly as recovery must:
/// checksum-valid slots survive, shadowed or beyond-`k` ones are stale,
/// everything else is torn or empty.
fn trusted_scan<D: Device>(device: &mut D, config: &ClamConfig) -> TrustedScan {
    let page_size = device.geometry().page_size as usize;
    let layout = IncarnationLayout::new(config.buffer_bytes_per_table as usize, page_size)
        .expect("layout for trusted scan");
    let slot_size = config.buffer_bytes_per_table;
    let num_slots = config.total_flash_slots();
    let num_tables = config.num_super_tables();
    let k = config.incarnations_per_table();

    let mut valid: Vec<(IncarnationIdentity, Vec<Entry>)> = Vec::new();
    let (mut torn, mut empty) = (0usize, 0usize);
    for slot in 0..num_slots {
        let mut bytes = vec![0u8; slot_size as usize];
        device.read_at(slot * slot_size, &mut bytes).expect("trusted scan read");
        match scan_incarnation(&bytes, &layout) {
            SlotScan::Empty => empty += 1,
            SlotScan::Torn { .. } => torn += 1,
            SlotScan::Valid { identity, entries } => {
                if (identity.table as usize) < num_tables {
                    valid.push((identity, entries));
                } else {
                    torn += 1;
                }
            }
        }
    }

    // Youngest first by (epoch, seq); duplicates of a (table, seq) and
    // anything beyond the youngest `k` of its table are stale.
    valid.sort_by_key(|v| std::cmp::Reverse((v.0.epoch, v.0.seq)));
    let mut stale = 0usize;
    let mut accepted: Vec<(IncarnationIdentity, Vec<Entry>)> = Vec::new();
    let mut per_table = vec![0usize; num_tables];
    let mut seen: HashSet<(u16, u64)> = HashSet::new();
    for (identity, entries) in valid {
        let t = identity.table as usize;
        if !seen.insert((identity.table, identity.seq)) || per_table[t] >= k {
            stale += 1;
            continue;
        }
        per_table[t] += 1;
        accepted.push((identity, entries));
    }
    TrustedScan { accepted, torn, stale, empty }
}

/// Runs `ops` against a CLAM on `victim` armed to lose power after
/// `budget` data-effect operations (with a `torn_bytes` torn prefix on
/// the fatal write), recovers from the surviving image, and checks the
/// recovered state against the trusted scan of that image.
fn check_crash_then_recover<D: Device>(
    victim: D,
    util: f64,
    scale: u64,
    ops: &[Op],
    budget: u64,
    torn_bytes: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let config = crash_config(util, scale);
    let mut crash = CrashDevice::new(victim);
    crash.arm(budget);
    crash.set_torn_write_bytes(torn_bytes);
    let mut clam = Clam::new(crash, config.clone()).unwrap();
    let name = clam.device().name();
    drive(&mut clam, ops);

    // Every value the workload ever bound to a key: nothing else may
    // come back from recovery.
    let mut everything: HashMap<u64, HashSet<u64>> = HashMap::new();
    for &(k, v, del) in ops {
        if !del {
            everything.entry(k).or_default().insert(v);
        }
    }

    let mut image = clam.into_device().into_inner();
    let truth = trusted_scan(&mut image, &config);
    let (mut recovered, report) = Clam::recover(image, config.clone()).unwrap();

    prop_assert!(report.accepted == truth.accepted.len(), "accepted mismatch on {}", name);
    prop_assert!(report.torn == truth.torn, "torn mismatch on {}", name);
    prop_assert!(report.stale == truth.stale, "stale mismatch on {}", name);
    prop_assert!(report.empty == truth.empty, "empty mismatch on {}", name);
    prop_assert_eq!(report.slots_scanned, config.total_flash_slots());
    let durable_entries: usize = truth.accepted.iter().map(|(_, e)| e.len()).sum();
    prop_assert_eq!(report.entries_recovered, durable_entries);

    // Expected value per durable key: the youngest accepted incarnation
    // holding it wins (all incarnations holding a key belong to the
    // key's one super table, and `accepted` is youngest-first).
    let mut expected: HashMap<u64, u64> = HashMap::new();
    for (_, entries) in &truth.accepted {
        for e in entries {
            expected.entry(e.key).or_insert(e.value);
        }
    }
    let queried: HashSet<u64> = ops.iter().map(|&(k, _, _)| k).collect();
    for &k in &queried {
        let found = recovered.lookup(k).unwrap();
        // The buffers restarted empty and nothing has flushed since.
        prop_assert!(found.source != LookupSource::Retired, "{found:?} on {}", name);
        match expected.get(&k) {
            Some(&v) => {
                prop_assert!(
                    found.value == Some(v),
                    "durable key {k:#x} lost or wrong on {}: got {:?}, want {v}",
                    name,
                    found.value
                );
                prop_assert!(
                    everything.get(&k).is_some_and(|vs| vs.contains(&v)),
                    "recovery fabricated value {v} for key {k:#x} on {}",
                    name
                );
            }
            None => {
                prop_assert!(
                    found.value.is_none(),
                    "recovery fabricated {:?} for non-durable key {k:#x} on {}",
                    found.value,
                    name
                );
            }
        }
    }
    prop_assert_eq!(recovered.stats().recoveries, 1);
    Ok(())
}

/// Measures how many data-effect operations the full workload performs on
/// this backend (an unarmed twin run), so crash budgets can be sampled as
/// a fraction of the real schedule.
fn ops_to_complete<D: Device>(twin: D, util: f64, scale: u64, ops: &[Op]) -> u64 {
    let config = crash_config(util, scale);
    let mut clam = Clam::new(CrashDevice::new(twin), config).unwrap();
    drive(&mut clam, ops);
    clam.device().crash_stats().ops_applied
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// **Acknowledged durable inserts survive a power cut** on all five
    /// backends: cut the device after an arbitrary fraction of its
    /// data-effect schedule (torn trailing write included), recover from
    /// the image alone, and check every key the trusted scan says is
    /// durable comes back with exactly the value the youngest surviving
    /// incarnation stored — and that nothing the workload never wrote is
    /// fabricated. The raw flash chip runs the same log, erasing each
    /// block before it is programmed, at `scale = 8` (four 32 KiB slots to
    /// an erase block), exercising the erase-before-program wrap path and
    /// sub-block slots under cuts.
    #[test]
    fn acknowledged_inserts_survive_crash(
        raw_ops in vec((0u64..600, any::<u64>(), 0u8..8), 500..2_400),
        frac in 0u32..1_050_000,
        torn_bytes in 0usize..8_192,
    ) {
        let fp = |k: u64| hash_with_seed(k, 0x6a7c4);
        let ops: Vec<Op> = raw_ops.iter().map(|&(k, v, d)| (fp(k), v, d == 0)).collect();
        let frac = frac as f64 / 1_000_000.0;
        const CAP: u64 = 1 << 20;

        let budget = |total: u64| ((total as f64) * frac) as u64;

        let total = ops_to_complete(Ssd::intel(CAP).unwrap(), 0.9, 1, &ops);
        check_crash_then_recover(
            Ssd::intel(CAP).unwrap(), 0.9, 1, &ops, budget(total), torn_bytes,
        )?;
        // The raw chip's scale-8 buffers hold ~1.8k distinct keys per
        // table, so its crash workload is amplified: the generated ops
        // are re-keyed over a 16k-key space (enough distinct keys to
        // flush past the 8-slot log and wrap, erasing live blocks under
        // the cut).
        let chip_ops: Vec<Op> = (0..36_000usize)
            .map(|i| {
                let (_, v, d) = raw_ops[i % raw_ops.len()];
                (fp(0x1000_0000 + (i as u64 * 7) % 16_000), v ^ i as u64, d == 0)
            })
            .collect();
        let total = ops_to_complete(
            FlashChip::new(CAP).unwrap(), 0.9, 8, &chip_ops,
        );
        check_crash_then_recover(
            FlashChip::new(CAP).unwrap(), 0.9, 8,
            &chip_ops, budget(total), torn_bytes,
        )?;
        let total = ops_to_complete(
            MagneticDisk::new(CAP).unwrap(), 0.9, 1, &ops,
        );
        check_crash_then_recover(
            MagneticDisk::new(CAP).unwrap(), 0.9, 1,
            &ops, budget(total), torn_bytes,
        )?;
        let total = ops_to_complete(DramDevice::new(CAP).unwrap(), 0.5, 1, &ops);
        check_crash_then_recover(
            DramDevice::new(CAP).unwrap(), 0.5, 1,
            &ops, budget(total), torn_bytes,
        )?;

        // The file backend does real I/O, so it needs its own temp paths.
        let dir = std::env::temp_dir();
        let twin_path = dir.join(format!("clam-crash-twin-{}", std::process::id()));
        let victim_path = dir.join(format!("clam-crash-victim-{}", std::process::id()));
        let total = ops_to_complete(
            FileDevice::create(&twin_path, CAP).unwrap(),
            0.9, 1, &ops,
        );
        let outcome = check_crash_then_recover(
            FileDevice::create(&victim_path, CAP).unwrap(),
            0.9, 1, &ops, budget(total), torn_bytes,
        );
        std::fs::remove_file(&twin_path).ok();
        std::fs::remove_file(&victim_path).ok();
        outcome?;
    }
}

// ---------------------------------------------------------------------
// Survivor equivalence
// ---------------------------------------------------------------------

/// A single-super-table CLAM (the whole buffer budget is one table) over
/// an 8-slot log, so flush boundaries are exactly the device's write
/// schedule: the `m`-th data-effect operation is the `m`-th incarnation
/// write, which makes "cut precisely between flush `m` and flush `m+1`"
/// expressible as a crash budget of `m`.
fn single_table_config(util: f64) -> ClamConfig {
    let config = ClamConfig {
        flash_capacity: 32 << 10,
        dram_bytes: 1 << 20,
        buffer_bytes_total: 4 * 1024,
        buffer_bytes_per_table: 4 * 1024,
        entry_size: 16,
        max_buffer_utilization: util,
        eviction: EvictionPolicy::Fifo,
        filter_mode: FilterMode::BitSliced,
        enable_buffering: true,
    };
    config.validate().expect("valid single-table config");
    config
}

/// Crashes a CLAM exactly between two flushes, recovers it, and checks it
/// is observationally equivalent to a **survivor**: a never-crashed CLAM
/// fed only the durable prefix of the op stream. Both are then driven
/// through the identical tail (the ops the crash destroyed plus lookups
/// over every key) and must produce identical values, identical
/// hit/miss/flush statistics and identical flash write traffic. A lookup
/// may differ in one way only: the survivor answers from the slot copy of
/// an incarnation it flushed before the cut, and the recovered CLAM reads
/// that page.
///
/// Needs three device instances: a scratch run to locate the flush
/// boundaries, the crash victim, and the reference survivor.
fn check_recovered_equivalent_to_survivor<D: Device>(
    scratch: D,
    victim: D,
    reference: D,
    util: f64,
    ops: &[(u64, u64)],
    m_pick: usize,
    torn_bytes: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let config = single_table_config(util);

    // Locate the op indices that trigger each flush (device-independent
    // for a fixed config, but run on the same backend for fidelity).
    let mut probe = Clam::new(scratch, config.clone()).unwrap();
    let name = probe.device().name();
    let mut flush_at: Vec<usize> = Vec::new();
    for (i, &(k, v)) in ops.iter().enumerate() {
        if probe.insert(k, v).unwrap().flushed {
            flush_at.push(i);
        }
    }
    if flush_at.len() < 2 {
        return Ok(()); // workload too small to cut between flushes
    }
    let m = 1 + m_pick % (flush_at.len() - 1); // cut after flush m, 1-based
    let boundary = flush_at[m - 1]; // index of the insert that triggered flush m

    // Victim: power cut after exactly m incarnation writes, with a torn
    // prefix of the (m+1)-th. The prefix must stop short of the flushed
    // payload (a full buffer is ~230 entries ≈ 3.7 KiB after the header),
    // otherwise a "torn" write whose page tail was zeros anyway persists
    // a complete, checksum-valid incarnation — a legitimate outcome, but
    // one that would shift the durable prefix this test aligns against.
    let mut crash = CrashDevice::cut_after(victim, m as u64);
    crash.set_torn_write_bytes(torn_bytes.clamp(1, 1_500));
    let mut crashed = Clam::new(crash, config.clone()).unwrap();
    drive(&mut crashed, &ops.iter().map(|&(k, v)| (k, v, false)).collect::<Vec<Op>>());
    let image = crashed.into_device().into_inner();
    let (mut recovered, report) = Clam::recover(image, config.clone()).unwrap();
    prop_assert!(
        report.accepted == m,
        "expected {m} incarnations on {name}, got {}",
        report.accepted
    );

    // Survivor: a never-crashed CLAM fed the durable prefix. The insert
    // at `boundary` was acknowledged but its entry still sat in DRAM when
    // the power died, so the recovered arm replays it to align buffers.
    let mut survivor = Clam::new(reference, config).unwrap();
    for &(k, v) in &ops[..=boundary] {
        survivor.insert(k, v).unwrap();
    }
    recovered.insert(ops[boundary].0, ops[boundary].1).unwrap();

    recovered.reset_stats();
    survivor.reset_stats();
    recovered.device_mut().reset_stats();
    survivor.device_mut().reset_stats();

    // Identical tail: the ops the crash destroyed, then lookups over
    // every key the workload ever touched.
    for &(k, v) in &ops[boundary + 1..] {
        let r = recovered.insert(k, v).unwrap();
        let s = survivor.insert(k, v).unwrap();
        prop_assert!(r.flushed == s.flushed, "flush cadence diverged on {name}");
        prop_assert!(r.evictions == s.evictions, "eviction cadence diverged on {name}");
    }
    // The one difference a crash may leave, as in the model: the survivor
    // still holds slot copies of incarnations it flushed before the cut,
    // which the recovered CLAM only has on flash. Such a key answers from
    // its slot on one side and with more page reads (the page, or its
    // overflow chain) on the other.
    let mut slot_saved_reads = 0usize;
    for (i, &(k, _)) in ops.iter().enumerate() {
        let r = recovered.lookup(k).unwrap();
        let s = survivor.lookup(k).unwrap();
        prop_assert!(r.value == s.value, "value mismatch on {name} key index {i}");
        let from_slot = (r.source, s.source) == (LookupSource::Flash, LookupSource::Retired);
        prop_assert!(r.source == s.source || from_slot, "source mismatch on {name} key index {i}");
        prop_assert!(
            r.flash_reads == s.flash_reads || (from_slot && r.flash_reads > s.flash_reads),
            "read-count mismatch on {name} key index {i}: {r:?}, survivor {s:?}"
        );
        slot_saved_reads += r.flash_reads - s.flash_reads;
    }
    let slot_saved_reads = slot_saved_reads as u64;

    let rs = recovered.stats().clone();
    let ss = survivor.stats().clone();
    prop_assert!(rs.flushes == ss.flushes, "flush count mismatch on {name}");
    prop_assert!(rs.forced_evictions == ss.forced_evictions, "forced eviction mismatch on {name}");
    prop_assert!(rs.reinsertions == ss.reinsertions, "reinsertion count mismatch on {name}");
    prop_assert!(rs.lookup_hits == ss.lookup_hits, "hit count mismatch on {name}");
    prop_assert!(rs.lookup_misses == ss.lookup_misses, "miss count mismatch on {name}");
    prop_assert!(
        rs.lookup_flash_reads == ss.lookup_flash_reads + slot_saved_reads,
        "lookup flash read mismatch on {name}"
    );
    let ri = recovered.device().stats();
    let si = survivor.device().stats();
    let page = recovered.device().geometry().page_size as u64;
    prop_assert!(ri.writes == si.writes, "write count mismatch on {name}");
    prop_assert!(ri.bytes_written == si.bytes_written, "written bytes mismatch on {name}");
    prop_assert!(ri.reads == si.reads + slot_saved_reads, "read count mismatch on {name}");
    prop_assert!(
        ri.bytes_read == si.bytes_read + slot_saved_reads * page,
        "read bytes mismatch on {name}"
    );
    prop_assert!(ri.trims == si.trims, "trim count mismatch on {name}");
    prop_assert!(ri.erases == si.erases, "erase count mismatch on {name}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// **Recovery is equivalent to never having crashed**: cut a CLAM at
    /// a flush boundary, recover it, and drive it through the same tail
    /// as a survivor that was fed only the durable prefix — every lookup
    /// value, every statistic and every flash write counter must agree,
    /// and the reads differ by the survivor's pre-cut slot copies. The
    /// workload stays below one log wrap so the durable
    /// prefix is exactly the first `m` incarnations.
    #[test]
    fn recovered_state_equivalent_to_survivor(
        raw_ops in vec((0u64..500, any::<u64>()), 500..1_000),
        m_pick in 0usize..64,
        torn_bytes in 1usize..4_095,
    ) {
        let fp = |k: u64| hash_with_seed(k, 0x51ee9);
        let ops: Vec<(u64, u64)> = raw_ops.iter().map(|&(k, v)| (fp(k), v)).collect();
        const CAP: u64 = 1 << 20;
        check_recovered_equivalent_to_survivor(
            Ssd::intel(CAP).unwrap(),
            Ssd::intel(CAP).unwrap(),
            Ssd::intel(CAP).unwrap(),
            0.9, &ops, m_pick, torn_bytes,
        )?;
        check_recovered_equivalent_to_survivor(
            DramDevice::new(CAP).unwrap(),
            DramDevice::new(CAP).unwrap(),
            DramDevice::new(CAP).unwrap(),
            0.5, &ops, m_pick, torn_bytes,
        )?;
    }
}

// ---------------------------------------------------------------------
// Targeted crash scenarios
// ---------------------------------------------------------------------

/// A higher-epoch rewrite of the same flush sequence shadows the old
/// copy: when a recovered CLAM re-flushes `seq = n` into a different
/// slot and a *second* crash leaves both images on flash, the next
/// recovery must keep only the younger lifetime's copy.
#[test]
fn stale_epoch_copy_is_shadowed_on_recovery() {
    let config = single_table_config(0.9);
    let mut device = DramDevice::new(32 << 10).unwrap();
    let page_size = device.geometry().page_size as usize;
    let layout = IncarnationLayout::new(4096, page_size).unwrap();
    let key = hash_with_seed(0xdead, 0x51ee9);

    // Two checksum-valid images of flush seq 5 with different payloads:
    // the epoch-1 lifetime wrote value 111 to slot 2; a recovered epoch-2
    // lifetime re-issued seq 5 with value 222 to slot 3.
    let old = layout
        .serialize_identified(
            &[Entry::new(key, 111)],
            IncarnationIdentity { table: 0, seq: 5, epoch: 1 },
        )
        .unwrap();
    let new = layout
        .serialize_identified(
            &[Entry::new(key, 222)],
            IncarnationIdentity { table: 0, seq: 5, epoch: 2 },
        )
        .unwrap();
    device.write_at(2 * 4096, &old).unwrap();
    device.write_at(3 * 4096, &new).unwrap();

    let (mut recovered, report) = Clam::recover(device, config).unwrap();
    assert_eq!(report.accepted, 1, "exactly one copy of seq 5 may survive");
    assert_eq!(report.stale, 1, "the epoch-1 copy is shadowed");
    assert_eq!(report.empty, 6);
    assert_eq!(report.torn, 0);
    assert_eq!(report.seq_resumed, 5);
    assert!(report.epoch >= 3, "the next lifetime must outrank both");
    let found = recovered.lookup(key).unwrap();
    assert_eq!(found.value, Some(222), "the younger epoch's value wins");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recovery never panics and never fabricates structure from garbage:
    /// a device full of random byte soup — including chunks that plant
    /// the incarnation magic at page boundaries — recovers to a CLAM
    /// whose slot classification is exhaustive (every slot counted
    /// exactly once) and whose lookups return cleanly.
    #[test]
    fn recovery_survives_byte_soup(
        chunks in vec((0u64..8, 0usize..4_000, vec(any::<u8>(), 1..300), any::<bool>()), 1..24),
        probes in vec(any::<u64>(), 1..16),
    ) {
        let config = crash_config(0.5, 1);
        let mut device = DramDevice::new(32 << 10).unwrap();
        for (slot, pos, bytes, plant_magic) in &chunks {
            let mut soup = bytes.clone();
            if *plant_magic {
                // Plant the on-flash magic at the slot's page start so the
                // parser gets past the cheap check and into the CRC.
                device.write_at(slot * 4096, b"BHIN").unwrap();
            }
            let offset = slot * 4096 + (*pos as u64).min(4096 - soup.len() as u64);
            soup.truncate(4096 - (offset % 4096) as usize);
            device.write_at(offset, &soup).unwrap();
        }
        let (mut recovered, report) = Clam::recover(device, config).unwrap();
        prop_assert_eq!(
            report.accepted + report.torn + report.stale + report.empty,
            report.slots_scanned as usize
        );
        prop_assert!(report.entries_recovered <= 8 * 254, "bounded by flash capacity");
        for &p in &probes {
            let _ = recovered.lookup(p).unwrap();
        }
    }
}

/// Finds the smallest crash budget whose applied-write ledger shows
/// `wraps` writes at byte offset `target` — i.e. the budget that lets the
/// log wrap onto `target` exactly `wraps` times — by replaying the
/// workload against fresh devices with increasing budgets.
fn budget_reaching_offset<D: Device>(
    make: impl Fn() -> D,
    config: &ClamConfig,
    ops: &[Op],
    target: u64,
    wraps: usize,
) -> Option<u64> {
    let total = {
        let mut twin = Clam::new(CrashDevice::new(make()), config.clone()).unwrap();
        drive(&mut twin, ops);
        twin.device().crash_stats().ops_applied
    };
    for budget in 1..=total {
        let mut clam = Clam::new(CrashDevice::cut_after(make(), budget), config.clone()).unwrap();
        drive(&mut clam, ops);
        let hits = clam.device().applied_writes().iter().filter(|&&(o, _)| o == target).count();
        if hits >= wraps {
            return Some(budget);
        }
    }
    None
}

/// **Regression: a power cut mid-way through a log-wrap flush.** The 9th
/// flush of the 8-slot global log re-writes slot 0 over the oldest
/// incarnation; cutting power inside that write must leave slot 0 torn —
/// neither the old incarnation (half overwritten) nor the new one (half
/// written) may survive — while every other slot's data is untouched, and
/// the recovered CLAM must keep writing cleanly past the wrap point.
#[test]
fn mid_flush_crash_during_log_wrap_discards_both_incarnations() {
    const CAP: u64 = 1 << 20;
    let config = crash_config(0.9, 1);
    let ops: Vec<Op> = (0..3_600u64).map(|i| (hash_with_seed(i % 900, 0x77aa), i, false)).collect();

    // The budget that applies the wrap write (the 2nd write at offset 0),
    // minus one, makes that write the fatal one.
    let wrap_budget = budget_reaching_offset(|| Ssd::intel(CAP).unwrap(), &config, &ops, 0, 2)
        .expect("workload must wrap the log")
        - 1;
    let mut crash = CrashDevice::cut_after(Ssd::intel(CAP).unwrap(), wrap_budget);
    crash.set_torn_write_bytes(1_000);
    let mut clam = Clam::new(crash, config.clone()).unwrap();
    drive(&mut clam, &ops);
    let stats = clam.device().crash_stats();
    assert_eq!(stats.torn_write, Some((0, 1_000)), "the cut must land on the wrap write");

    let mut image = clam.into_device().into_inner();
    let page_size = image.geometry().page_size as usize;
    let layout = IncarnationLayout::new(4096, page_size).unwrap();
    let mut slot0 = vec![0u8; 4096];
    image.read_at(0, &mut slot0).unwrap();
    assert!(
        matches!(scan_incarnation(&slot0, &layout), SlotScan::Torn { .. }),
        "slot 0 must hold neither the old nor the new incarnation"
    );

    let truth = trusted_scan(&mut image, &config);
    let (mut recovered, report) = Clam::recover(image, config).unwrap();
    assert_eq!(report.torn, truth.torn);
    assert!(report.torn >= 1, "the wrap write is torn");
    assert_eq!(report.accepted, truth.accepted.len());
    for (_, entries) in &truth.accepted {
        for e in entries {
            // Durable survivors must be intact; exact-value agreement is
            // covered by the property test, presence is the point here.
            assert!(recovered.lookup(e.key).unwrap().value.is_some(), "lost durable key");
        }
    }

    // The log must keep rolling: write several more wraps' worth of data
    // through the recovered CLAM and spot-check the youngest generation.
    for i in 0..2_000u64 {
        recovered.insert(hash_with_seed(i % 500, 0x77ab), i).unwrap();
    }
    recovered.flush_all().unwrap();
    let probe = hash_with_seed(499, 0x77ab);
    assert!(recovered.lookup(probe).unwrap().value.is_some());
}

/// **Regression: a power cut on a raw flash chip's mid-block flush.** The
/// log has two 128 KiB erase blocks of four 32 KiB slots each, and a
/// block is erased when the write pointer reaches its first slot. A cut
/// inside a mid-block incarnation write leaves that slot's pages
/// half-programmed — and raw NAND cannot program them again without an
/// erase, which would also wipe the live incarnation sharing the block.
/// Recovery must step the log's write pointer past the dirty slot so
/// resumed flushes program clean pages, reclaiming the slot when the log
/// next wraps.
#[test]
fn chip_recovers_past_a_mid_block_torn_write() {
    let config = crash_config(0.9, 8);
    let cap = config.flash_capacity; // 256 KiB = 2 erase blocks
                                     // All-distinct keys: the ~1.8k-entry buffers must fill twice for the
                                     // log to reach its second slot.
    let ops: Vec<Op> = (0..9_000u64).map(|i| (hash_with_seed(i, 0xc41b), i, false)).collect();

    // Cut inside the first write to slot 1 (offset 32 KiB): mid-block,
    // with slot 0's incarnation live in the same erase block.
    let budget =
        budget_reaching_offset(|| FlashChip::new(cap).unwrap(), &config, &ops, 32 << 10, 1)
            .expect("the log must reach its second slot")
            - 1;
    let mut crash = CrashDevice::cut_after(FlashChip::new(cap).unwrap(), budget);
    crash.set_torn_write_bytes(2_048); // exactly one programmed flash page
    let mut clam = Clam::new(crash, config.clone()).unwrap();
    drive(&mut clam, &ops);
    let stats = clam.device().crash_stats();
    assert_eq!(stats.torn_write, Some((32 << 10, 2_048)), "the cut must tear slot 1");

    let mut image = clam.into_device().into_inner();
    let truth = trusted_scan(&mut image, &config);
    let (mut recovered, report) = Clam::recover(image, config.clone()).unwrap();
    assert!(report.torn >= 1, "slot 1 is half-programmed");
    assert_eq!(report.accepted, truth.accepted.len());

    // Resumed flushes must not program the dirty slot: drive enough
    // distinct keys through every table to wrap the log (which erases and
    // reclaims the torn slot) and verify the youngest data lands.
    for i in 0..20_000u64 {
        recovered.insert(hash_with_seed(i, 0xc41c), i).unwrap();
    }
    recovered.flush_all().unwrap();
    assert!(recovered.stats().flushes >= 8, "the 8-slot log wrapped");
    let probe = hash_with_seed(19_999, 0xc41c);
    assert!(recovered.lookup(probe).unwrap().value.is_some());
}

/// A raw chip with one worn-out erase block: every erase of `bad` fails,
/// everything else reaches the chip.
struct BadBlock {
    chip: FlashChip,
    bad: u64,
    refused: u64,
}

impl Device for BadBlock {
    fn profile(&self) -> &DeviceProfile {
        self.chip.profile()
    }
    fn geometry(&self) -> Geometry {
        self.chip.geometry()
    }
    fn medium_read(&mut self, offset: u64, buf: &mut [u8]) -> flashsim::Result<SimDuration> {
        self.chip.medium_read(offset, buf)
    }
    fn medium_write(&mut self, offset: u64, bufs: &[&[u8]]) -> flashsim::Result<SimDuration> {
        self.chip.medium_write(offset, bufs)
    }
    fn medium_erase(&mut self, block: u64) -> flashsim::Result<SimDuration> {
        if block == self.bad {
            self.refused += 1;
            return Err(DeviceError::Io("erase of a worn-out block".into()));
        }
        self.chip.medium_erase(block)
    }
    fn stats(&self) -> IoStats {
        self.chip.stats()
    }
    fn update_stats(&mut self, update: &mut dyn FnMut(&mut IoStats)) {
        self.chip.update_stats(update)
    }
}

/// **Regression: a scrub erase that fails does not scrub.** A cut tears
/// the first write to the second erase block (slot 4 of the 8-slot log),
/// so recovery resumes the log on that slot, in a block holding no
/// accepted data, and tries to scrub the block. Its erase fails. The torn
/// slot must then be stepped past as dirty: resumed flushes program the
/// block's clean slots behind it instead of the half-programmed one.
/// Counting the block as scrubbed left the pointer on the torn slot, and
/// the first resumed flush failed.
#[test]
fn a_failed_scrub_erase_leaves_the_torn_slot_dirty() {
    let config = crash_config(0.9, 8);
    let cap = config.flash_capacity; // 256 KiB = 2 erase blocks
    let ops: Vec<Op> = (0..30_000u64).map(|i| (hash_with_seed(i, 0xbadb), i, false)).collect();
    let budget =
        budget_reaching_offset(|| FlashChip::new(cap).unwrap(), &config, &ops, 128 << 10, 1)
            .expect("the log must reach its second block")
            - 1;
    let mut crash = CrashDevice::cut_after(FlashChip::new(cap).unwrap(), budget);
    crash.set_torn_write_bytes(2_048);
    let mut clam = Clam::new(crash, config.clone()).unwrap();
    drive(&mut clam, &ops);
    assert_eq!(clam.device().crash_stats().torn_write, Some((128 << 10, 2_048)));

    let chip = clam.into_device().into_inner();
    let (mut recovered, report) =
        Clam::recover(BadBlock { chip, bad: 1, refused: 0 }, config).unwrap();
    assert_eq!((report.torn, report.accepted), (1, 4));
    assert_eq!(recovered.device().refused, 1, "recovery tried to scrub block 1");

    // Three flushes fill slots 5 to 7, the rest of the bad block; the
    // fourth would wrap onto block 0.
    let flushes = recovered.stats().flushes;
    let mut last = 0;
    for i in 0..20_000u64 {
        if recovered.stats().flushes >= flushes + 3 {
            break;
        }
        last = hash_with_seed(i, 0xbadc);
        recovered.insert(last, i).unwrap_or_else(|e| panic!("insert {i} failed: {e}"));
    }
    assert_eq!(recovered.stats().flushes, flushes + 3);
    assert!(recovered.lookup(last).unwrap().value.is_some());
    recovered.assert_slot_copies_match_flash();
}

/// A slot copy vouches for bytes on the device, so it must not outlive
/// doubt about them: a flush whose write the device refuses leaves no slot
/// copy answering (the incarnation it registered may not exist), and a
/// recovered CLAM reads nothing from buffer slots it never filled until
/// its own first flush retires some.
#[test]
fn nothing_is_retired_after_a_refused_flush_or_a_recovery_until_the_next_flush() {
    const CAP: u64 = 1 << 20;
    let config = crash_config(0.5, 1);
    let keys = |round: u64| (0..100u64).map(move |i| hash_with_seed(i, 0x4e71 + round));
    let retired = |clam: &mut Clam<CrashDevice<Ssd>>, round: u64| {
        keys(round).filter(|&k| clam.lookup(k).unwrap().source == LookupSource::Retired).count()
    };

    let mut clam = Clam::new(CrashDevice::new(Ssd::intel(CAP).unwrap()), config.clone()).unwrap();
    for k in keys(0) {
        clam.insert(k, k).unwrap();
    }
    clam.flush_all().unwrap();
    assert_eq!(retired(&mut clam, 0), 100, "a flushed generation reads back from its slots");

    // The power goes as the next flush's first write is applied.
    for k in keys(1) {
        clam.insert(k, k).unwrap();
    }
    clam.device_mut().arm(0);
    assert!(clam.flush_all().is_err());
    for k in keys(0).chain(keys(1)) {
        // The device is dead: a lookup that reaches it fails, so one that
        // answers answered from DRAM.
        if let Ok(found) = clam.lookup(k) {
            assert_ne!(found.source, LookupSource::Retired, "key {k:#x}: {found:?}");
        }
    }

    // Reboot: round 0 is durable, round 1 is lost, and every hit is a
    // flash read until a flush of this lifetime retires a generation.
    let image = CrashDevice::new(clam.into_device().into_inner());
    let (mut recovered, report) = Clam::recover(image, config).unwrap();
    assert_eq!(report.entries_recovered, 100, "{report}");
    for k in keys(0) {
        let found = recovered.lookup(k).unwrap();
        assert_eq!((found.value, found.source), (Some(k), LookupSource::Flash));
    }
    for k in keys(2) {
        recovered.insert(k, k).unwrap();
    }
    assert_eq!(retired(&mut recovered, 0) + retired(&mut recovered, 2), 0, "nothing flushed yet");
    recovered.flush_all().unwrap();
    assert_eq!(retired(&mut recovered, 2), 100);
    assert_eq!(retired(&mut recovered, 0), 0, "round 0 was recovered, never in a slot");
    recovered.assert_slot_copies_match_flash();
}
