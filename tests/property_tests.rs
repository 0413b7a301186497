//! Property-based tests (proptest) on the core data structures and the
//! CLAM's end-to-end semantics.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use clam::bufferhash::{
    lookup_in_page, parse_page_header_checked, scan_incarnation, table_of, BloomFilter, Clam,
    ClamConfig, ClamStats, CuckooBuffer, Entry, EvictionPolicy, FilterMode, IncarnationIdentity,
    IncarnationLayout, LookupOutcome, PageLookup, SlotScan,
};
use clam::flashsim::{
    CompletionRing, Device, DeviceError, DramDevice, FileDevice, FlashChip, IoRequest, Kind,
    MagneticDisk, RingRequest, SharedDevice, SimDuration, Slot, SparseStore, Ssd,
};

#[path = "support/clam_model.rs"]
mod clam_model;
use clam_model::ClamModel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sparse store behaves exactly like a flat byte array.
    #[test]
    fn sparse_store_matches_flat_array(
        writes in vec((0u64..60_000, vec(any::<u8>(), 1..400)), 1..30)
    ) {
        let mut store = SparseStore::new(4096);
        let mut model = vec![0u8; 64 * 1024];
        for (offset, data) in &writes {
            store.write(*offset, data);
            model[*offset as usize..*offset as usize + data.len()].copy_from_slice(data);
        }
        let mut buf = vec![0u8; model.len()];
        store.read(0, &mut buf);
        prop_assert_eq!(buf, model);
    }

    /// The sparse store against a flat byte array, at the backing page
    /// sizes of the flash chip, the SSD and the DRAM and disk models. Half
    /// the ops are whole-page writes whose written prefixes shrink and grow
    /// within a 256-byte size class and across classes; the rest are
    /// writes anywhere (straddling pages), all-zero writes and erases,
    /// which release pages. After every op the whole store and the op's
    /// own range read back as the array does, and exactly the pages that
    /// hold a non-zero byte are resident.
    #[test]
    fn sparse_store_matches_a_flat_oracle_at_every_backend_page_size(
        page_pick in 0usize..3,
        ops in vec((0u8..8, any::<u64>(), 0usize..4, 0usize..256, any::<usize>()), 1..60)
    ) {
        const PAGES: usize = 3;
        let page = [2_048, 4_096, 65_536][page_pick];
        let mut store = SparseStore::new(page);
        let mut oracle = vec![0u8; PAGES * page];
        for (kind, pos, grains, extra, len) in ops {
            let (offset, len) = if kind < 4 {
                ((pos as usize % PAGES) * page, page)
            } else {
                let offset = pos as usize % oracle.len();
                (offset, (1 + len % (2 * page)).min(oracle.len() - offset))
            };
            let range = offset..offset + len;
            // Non-zero bytes (and some zeros inside) up to the prefix.
            let prefix = if grains == 3 { len } else { (grains * 256 + extra).min(len) };
            let mut data: Vec<u8> =
                (0..len).map(|i| if i < prefix { ((i + extra) % 13) as u8 } else { 0 }).collect();
            if prefix > 0 {
                data[prefix - 1] = 0xFF;
            }
            match kind {
                7 => {
                    store.erase(offset as u64, len as u64);
                    oracle[range.clone()].fill(0);
                }
                6 => {
                    store.write(offset as u64, &vec![0; len]);
                    oracle[range.clone()].fill(0);
                }
                _ => {
                    store.write(offset as u64, &data);
                    oracle[range.clone()].copy_from_slice(&data);
                }
            }
            let mut whole = vec![0xEE; oracle.len()];
            store.read(0, &mut whole);
            prop_assert!(whole == oracle, "store differs from the oracle after op {:?}", (kind, &range));
            let mut window = vec![0xEE; len];
            store.read(offset as u64, &mut window);
            prop_assert!(window[..] == oracle[range]);
            let written = oracle.chunks(page).filter(|p| p.iter().any(|&b| b != 0)).count();
            prop_assert_eq!(store.resident_pages(), written);
        }
    }

    /// Bloom filters never produce false negatives.
    #[test]
    fn bloom_has_no_false_negatives(keys in vec(any::<u64>(), 1..500), bits in 512usize..8192) {
        let mut filter = BloomFilter::new(bits, 5);
        for &k in &keys {
            filter.insert(k);
        }
        for &k in &keys {
            prop_assert!(filter.contains(k));
        }
    }

    /// The cuckoo buffer behaves like a map for any interleaving of inserts,
    /// updates and removals (within capacity).
    #[test]
    fn cuckoo_buffer_matches_hashmap(ops in vec((any::<u16>(), any::<u64>(), any::<bool>()), 1..400)) {
        let mut buffer = CuckooBuffer::new(4096, 0.5);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (k, v, remove) in ops {
            let k = k as u64 + 1;
            if remove {
                prop_assert_eq!(buffer.remove(k), model.remove(&k));
            } else if model.len() < buffer.capacity() || model.contains_key(&k) {
                buffer.insert(k, v);
                model.insert(k, v);
            }
        }
        for (k, v) in &model {
            prop_assert_eq!(buffer.get(*k), Some(*v));
        }
        prop_assert_eq!(buffer.len(), model.len());
    }

    /// Every entry serialized into an incarnation is findable again, and the
    /// full parse returns exactly the serialized set.
    #[test]
    fn incarnation_round_trips(raw in vec((any::<u64>(), any::<u64>()), 1..800)) {
        // Deduplicate keys: an incarnation stores one value per key.
        let mut map = HashMap::new();
        for (k, v) in raw {
            map.insert(k, v);
        }
        let entries: Vec<Entry> = map.iter().map(|(k, v)| Entry::new(*k, *v)).collect();
        let layout = IncarnationLayout::new(32 * 1024, 2048).unwrap();
        prop_assume!(entries.len() <= layout.max_entries());
        let image = layout.serialize_identified(&entries, IncarnationIdentity::default()).unwrap();
        // The full scan returns the same multiset.
        let SlotScan::Valid { entries: mut parsed, .. } = scan_incarnation(&image, &layout) else {
            panic!("a serialized incarnation scans valid");
        };
        let mut expect = entries.clone();
        parsed.sort_unstable_by_key(|e| (e.key, e.value));
        expect.sort_unstable_by_key(|e| (e.key, e.value));
        prop_assert_eq!(parsed, expect);
        // Point lookups succeed via the page-probe protocol.
        for e in &entries {
            let mut page_idx = layout.page_of_key(e.key);
            let mut found = false;
            for _ in 0..layout.num_pages() {
                let page = &image[page_idx * layout.page_size..(page_idx + 1) * layout.page_size];
                match lookup_in_page(page, e.key).unwrap() {
                    PageLookup::Found(v) => { prop_assert_eq!(v, e.value); found = true; break; }
                    PageLookup::Continue => page_idx = (page_idx + 1) % layout.num_pages(),
                    PageLookup::Absent => break,
                }
            }
            prop_assert!(found, "entry not found after serialization");
        }
    }
}

/// A deliberately tiny CLAM (two super tables, 32 KiB buffers) so property
/// tests reach buffer flushes with a few thousand ops.
fn tiny_clam() -> Clam<Ssd> {
    let config = ClamConfig {
        flash_capacity: 8 << 20,
        dram_bytes: 1 << 20,
        buffer_bytes_total: 64 * 1024,
        buffer_bytes_per_table: 32 * 1024,
        entry_size: 16,
        max_buffer_utilization: 0.5,
        eviction: EvictionPolicy::Fifo,
        filter_mode: FilterMode::BitSliced,
        enable_buffering: true,
    };
    config.validate().expect("valid tiny config");
    Clam::new(Ssd::intel(8 << 20).unwrap(), config).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `insert_batch` over any op sequence (duplicate keys included), cut
    /// into arbitrary batch sizes, yields a state observationally
    /// equivalent to the same ops applied via sequential `insert`: the
    /// same lookups return the same values from the same sources, and the
    /// stats counters that describe state evolution (flushes, recorded
    /// ops, hits/misses) match. Only the charged latencies differ — that
    /// amortization is the point of batching.
    #[test]
    fn insert_batch_equivalent_to_sequential_inserts(
        raw in vec((0u64..3_000, any::<u64>()), 200..3_000),
        batch in 1usize..300,
    ) {
        let ops: Vec<(u64, u64)> = raw
            .iter()
            .map(|&(k, v)| (clam::bufferhash::hash_with_seed(k, 0x6a7c4), v))
            .collect();
        let mut seq = tiny_clam();
        let mut bat = tiny_clam();
        for &(k, v) in &ops {
            seq.insert(k, v).unwrap();
        }
        for chunk in ops.chunks(batch) {
            bat.insert_batch(chunk).unwrap();
        }
        prop_assert_eq!(seq.stats().flushes, bat.stats().flushes);
        prop_assert_eq!(seq.stats().forced_evictions, bat.stats().forced_evictions);
        prop_assert_eq!(seq.stats().reinsertions, bat.stats().reinsertions);
        prop_assert_eq!(seq.stats().inserts.len(), bat.stats().inserts.len());
        prop_assert_eq!(seq.approximate_entries(), bat.approximate_entries());
        // Batched lookups over every written key agree with sequential
        // lookups on the sequentially-built CLAM.
        let keys: Vec<u64> = ops.iter().map(|&(k, _)| k).collect();
        let batched = bat.lookup_batch(&keys).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let solo = seq.lookup(k).unwrap();
            prop_assert_eq!(batched[i].value, solo.value);
            prop_assert_eq!(batched[i].source, solo.source);
            prop_assert_eq!(batched[i].flash_reads, solo.flash_reads);
        }
        prop_assert_eq!(seq.stats().lookup_hits, bat.stats().lookup_hits);
        prop_assert_eq!(seq.stats().lookup_misses, bat.stats().lookup_misses);
    }
}

/// A tiny CLAM over an arbitrary backend for the queued-lookup equivalence
/// property. `max_utilization` tunes the incarnation page fill: at 0.9 the
/// pages run close to capacity, so overflow chains (multi-hop probe
/// sequences) occur routinely.
fn tiny_clam_on<D: Device>(device: D, max_utilization: f64) -> Clam<D> {
    let config = ClamConfig {
        flash_capacity: 8 << 20,
        dram_bytes: 1 << 20,
        buffer_bytes_total: 64 * 1024,
        buffer_bytes_per_table: 32 * 1024,
        entry_size: 16,
        max_buffer_utilization: max_utilization,
        eviction: EvictionPolicy::Fifo,
        filter_mode: FilterMode::BitSliced,
        enable_buffering: true,
    };
    config.validate().expect("valid tiny config");
    Clam::new(device, config).unwrap()
}

/// Loads `ops` and `deletes` into a CLAM on `device`, then checks that the
/// queued `lookup_batch` pipeline returns outcomes identical to sequential
/// per-op `lookup` calls over the same keys: values, sources, per-key flash
/// read counts, and the hit/miss/read statistics deltas all match. Lookups
/// under FIFO eviction mutate nothing, so both phases observe the same
/// state and must agree exactly — including delete-shadowed keys and keys
/// whose home page overflowed into a probe chain.
fn check_queued_lookup_equivalence<D: Device>(
    device: D,
    max_utilization: f64,
    ops: &[(u64, u64)],
    deletes: &[u64],
    queries: &[u64],
    batch: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut clam = tiny_clam_on(device, max_utilization);
    for chunk in ops.chunks(257) {
        clam.insert_batch(chunk).unwrap();
    }
    for &k in deletes {
        clam.delete(k).unwrap();
    }
    let name = clam.device().name();
    let start = clam.stats().clone();
    let mut batched: Vec<LookupOutcome> = Vec::new();
    for chunk in queries.chunks(batch) {
        let out = clam.lookup_batch(chunk).unwrap();
        prop_assert_eq!(out.ops(), chunk.len());
        batched.extend(out);
    }
    let mid = clam.stats().clone();
    for (i, &k) in queries.iter().enumerate() {
        let solo = clam.lookup(k).unwrap();
        prop_assert!(batched[i].value == solo.value, "value mismatch on {name} index {i}");
        prop_assert!(batched[i].source == solo.source, "source mismatch on {name} index {i}");
        prop_assert!(
            batched[i].flash_reads == solo.flash_reads,
            "flash-read mismatch on {name} index {i}"
        );
    }
    let end = clam.stats().clone();
    // The two phases saw identical state, so their stat deltas agree.
    prop_assert_eq!(mid.lookup_hits - start.lookup_hits, end.lookup_hits - mid.lookup_hits);
    prop_assert_eq!(mid.lookup_misses - start.lookup_misses, end.lookup_misses - mid.lookup_misses);
    prop_assert_eq!(
        mid.lookup_flash_reads - start.lookup_flash_reads,
        end.lookup_flash_reads - mid.lookup_flash_reads
    );
    prop_assert_eq!(
        mid.spurious_flash_reads - start.spurious_flash_reads,
        end.spurious_flash_reads - mid.spurious_flash_reads
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The queued `lookup_batch` probe pipeline is observationally
    /// equivalent to sequential per-op `lookup` calls — values, sources,
    /// per-key flash read counts and hit/miss stats — on all five device
    /// backends, over op streams that include flash-resident keys,
    /// delete-shadowed keys, absent keys and overflow probe chains, cut
    /// into arbitrary batch sizes. Only the charged latency may differ:
    /// batched probes overlap on the device queue.
    #[test]
    fn queued_lookup_batch_equivalent_to_sequential_lookups(
        raw_ops in vec((0u64..2_000, any::<u64>()), 300..1_200),
        raw_deletes in vec(0u64..2_000, 0..80),
        raw_queries in vec(0u64..4_000, 60..300),
        batch in 1usize..96,
    ) {
        let fp = |k: u64| clam::bufferhash::hash_with_seed(k, 0x6a7c4);
        let ops: Vec<(u64, u64)> = raw_ops.iter().map(|&(k, v)| (fp(k), v)).collect();
        let deletes: Vec<u64> = raw_deletes.iter().map(|&k| fp(k)).collect();
        let queries: Vec<u64> = raw_queries.iter().map(|&k| fp(k)).collect();

        const CAP: u64 = 8 << 20;
        // High page fill on the page-addressed media provokes overflow
        // chains; DRAM's 64-byte pages overflow plentifully even at the
        // default fill (and cannot hold a 0.9-full buffer image).
        check_queued_lookup_equivalence(
            Ssd::intel(CAP).unwrap(), 0.9, &ops, &deletes, &queries, batch)?;
        check_queued_lookup_equivalence(
            FlashChip::new(CAP).unwrap(), 0.9, &ops, &deletes, &queries, batch)?;
        check_queued_lookup_equivalence(
            MagneticDisk::new(CAP).unwrap(), 0.9, &ops, &deletes, &queries, batch)?;
        check_queued_lookup_equivalence(
            DramDevice::new(CAP).unwrap(), 0.5, &ops, &deletes, &queries, batch)?;
        let path = std::env::temp_dir()
            .join(format!("clam-queued-lookup-prop-{}", std::process::id()));
        let outcome = check_queued_lookup_equivalence(
            FileDevice::create(&path, CAP).unwrap(), 0.9, &ops, &deletes, &queries, batch);
        std::fs::remove_file(&path).ok();
        outcome?;
    }
}

/// Geometry for *eviction churn*: two super tables of `k = 4`
/// incarnations over an 8-slot log, so a few thousand inserts drive
/// ordinary evictions, log wrap and forced (slot-reclaim) evictions.
///
/// FTL, seek and byte-addressed media take 4 KiB slots. A raw chip cannot
/// overwrite in place, so it runs the same log, erasing each block before
/// it is programmed: each slot is one whole 128 KiB erase block (the model
/// does not know erase blocks shared between slots), and buffers admit few
/// enough entries that the same op stream still wraps it.
fn churn_config(eviction: EvictionPolicy, util: f64, raw_chip: bool) -> ClamConfig {
    let slot: u64 = if raw_chip { 128 << 10 } else { 4 << 10 };
    let config = ClamConfig {
        flash_capacity: 8 * slot,
        dram_bytes: 1 << 20,
        buffer_bytes_total: 2 * slot,
        buffer_bytes_per_table: slot,
        entry_size: 16,
        max_buffer_utilization: if raw_chip { 0.05 } else { util },
        eviction,
        filter_mode: FilterMode::BitSliced,
        enable_buffering: true,
    };
    config.validate().expect("valid churn config");
    config
}

/// One step of a model-checked run.
#[derive(Debug, Clone)]
enum Step {
    Insert(u64, u64),
    InsertBatch(Vec<(u64, u64)>),
    Delete(u64),
    Lookup(u64),
    LookupBatch(Vec<u64>),
    FlushAll,
}

/// The fingerprints a run draws its keys from, and the steps `raw` stands
/// for. The stream runs in phases of 64 steps — both tables alike, then
/// nine keys in ten to table 0, then to table 1 — so the tables fill at
/// different rates and the log comes round to incarnations their tables
/// still hold: forced evictions, not just evictions at `k`.
fn churn_steps(raw: &[(u8, u64, u64)]) -> (Vec<u64>, Vec<Step>) {
    let universe: Vec<u64> =
        (0..3_000u64).map(|k| clam::bufferhash::hash_with_seed(k, 0x6a7c4)).collect();
    let pools: Vec<Vec<u64>> = (0..2)
        .map(|t| universe.iter().copied().filter(|&k| table_of(k, 2) == t).collect())
        .collect();
    let steps = raw
        .iter()
        .enumerate()
        .map(|(i, &(kind, a, b))| {
            let key = |x: u64| {
                let x = clam::bufferhash::mix64(x);
                let table = match i / 64 % 3 {
                    0 => x % 2,
                    hot => (hot as u64 - 1) ^ u64::from(x % 10 == 9),
                } as usize;
                pools[table][(x >> 8) as usize % pools[table].len()]
            };
            match kind {
                0..=7 => Step::InsertBatch(
                    (0..1 + a % 96).map(|j| (key(a.wrapping_add(j)), b ^ j)).collect(),
                ),
                8..=11 => Step::Insert(key(a), b),
                12..=13 => Step::Delete(key(a)),
                14..=16 => Step::Lookup(key(a)),
                17..=18 => Step::LookupBatch((0..1 + b % 48).map(|j| key(a ^ j)).collect()),
                _ if a % 4 == 0 => Step::FlushAll,
                _ => Step::Lookup(key(b)),
            }
        })
        .collect();
    (universe, steps)
}

/// Applies `steps` to a CLAM and to the model, comparing every outcome the
/// model decides: which inserts flush and what their chains evict, and
/// every lookup's value and the sources it may come from.
fn run_against_model<D: Device>(
    clam: &mut Clam<D>,
    model: &mut ClamModel,
    steps: &[Step],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let name = clam.device().name();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Insert(key, value) => {
                let (got, want) = (clam.insert(*key, *value).unwrap(), model.insert(*key, *value));
                prop_assert!(
                    (usize::from(got.flushed), got.evictions) == (want.flushed, want.evictions),
                    "insert at step {i} on {name}: {got:?}, model {want:?}"
                );
            }
            Step::InsertBatch(ops) => {
                let (got, want) = (clam.insert_batch(ops).unwrap(), model.insert_batch(ops));
                prop_assert!(
                    (got.flushed_ops, got.evictions) == (want.flushed, want.evictions),
                    "batch at step {i} on {name}: {got:?}, model {want:?}"
                );
            }
            Step::Delete(key) => {
                clam.delete(*key).unwrap();
                model.delete(*key);
            }
            Step::Lookup(key) => {
                let got = clam.lookup(*key).unwrap();
                prop_assert!(
                    model.lookup(*key).admits(&got),
                    "lookup at step {i} on {name}: {got:?}, model {:?}",
                    model.lookup(*key)
                );
            }
            Step::LookupBatch(keys) => audit(clam, model, keys)?,
            Step::FlushAll => {
                clam.flush_all().unwrap();
                model.flush_all();
            }
        }
        // Whatever the step did, what a table still reads from its drained
        // buffer slots is what their incarnations hold on the device.
        clam.assert_slot_copies_match_flash();
    }
    Ok(())
}

/// One batched lookup of `keys`, every reply checked against the model.
fn audit<D: Device>(
    clam: &mut Clam<D>,
    model: &ClamModel,
    keys: &[u64],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let name = clam.device().name();
    let got = clam.lookup_batch(keys).unwrap();
    prop_assert_eq!(got.ops(), keys.len());
    for (outcome, &key) in got.outcomes.iter().zip(keys) {
        prop_assert!(
            model.lookup(key).admits(outcome),
            "key {key:#x} on {name}: {outcome:?}, model {:?}",
            model.lookup(key)
        );
    }
    Ok(())
}

/// The differential oracle: three quarters of `steps` against a fresh CLAM
/// on `device`, then the whole key universe, a `flush_all`, the ledgers, a
/// recovery from the flash contents alone — again the whole universe,
/// tombstones lost — and the last quarter of the steps on the recovered
/// CLAM, whose log must resume where the model says it stands.
fn check_against_model<D: Device>(
    device: D,
    config: ClamConfig,
    universe: &[u64],
    steps: &[Step],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut model = ClamModel::new(&config);
    let mut clam = Clam::new(device, config.clone()).unwrap();
    let name = clam.device().name();
    let (before, after) = steps.split_at(steps.len() * 3 / 4);
    run_against_model(&mut clam, &mut model, before)?;
    audit(&mut clam, &model, universe)?;
    clam.flush_all().unwrap();
    model.flush_all();
    clam.assert_slot_copies_match_flash();
    // The ledgers: flushes, forced evictions, re-insertions, and the
    // tables' own evictions as the device's TRIM count.
    let ledger = |stats: &clam::bufferhash::ClamStats| {
        (stats.flushes, stats.forced_evictions, stats.reinsertions)
    };
    let first = ledger(clam.stats());
    let want = (model.flushes, model.forced_evictions, model.reinsertions);
    prop_assert!(first == want, "ledger on {name}: {first:?}, model {want:?}");
    let trims = clam.device().stats().trims;
    prop_assert!(trims == model.evictions, "{trims} trims on {name}, model {}", model.evictions);

    let (mut recovered, report) = Clam::recover(clam.into_device(), config).unwrap();
    model.recover();
    prop_assert!(report.torn == 0, "torn slots on {name}: {report}");
    audit(&mut recovered, &model, universe)?;
    run_against_model(&mut recovered, &mut model, after)?;
    audit(&mut recovered, &model, universe)?;
    // The recovered lifetime's ledger starts from zero; its device's does
    // not.
    let second = ledger(recovered.stats());
    let got = (first.0 + second.0, first.1 + second.1, first.2 + second.2);
    let want = (model.flushes, model.forced_evictions, model.reinsertions);
    prop_assert!(got == want, "ledger after recovery on {name}: {got:?}, model {want:?}");
    let trims = recovered.device().stats().trims;
    prop_assert!(trims == model.evictions, "{trims} trims on {name}, model {}", model.evictions);
    Ok(())
}

/// [`check_against_model`] on all five device backends.
fn check_against_model_on_every_backend(
    eviction: EvictionPolicy,
    raw: &[(u8, u64, u64)],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let (universe, steps) = churn_steps(raw);
    const CAP: u64 = 1 << 20;
    // High page fill on the page-addressed media provokes overflow
    // chains; DRAM's 64-byte pages overflow plentifully even at the
    // default fill (and cannot hold a 0.9-full buffer image).
    let config = |util| churn_config(eviction, util, false);
    check_against_model(Ssd::intel(CAP).unwrap(), config(0.9), &universe, &steps)?;
    check_against_model(MagneticDisk::new(CAP).unwrap(), config(0.9), &universe, &steps)?;
    check_against_model(DramDevice::new(CAP).unwrap(), config(0.5), &universe, &steps)?;
    let chip = churn_config(eviction, 0.9, true);
    check_against_model(FlashChip::new(CAP).unwrap(), chip, &universe, &steps)?;
    let policy = if eviction.uses_partial_discard() { "partial" } else { "fifo" };
    let path =
        std::env::temp_dir().join(format!("clam-model-prop-{policy}-{}", std::process::id()));
    let outcome = check_against_model(
        FileDevice::create(&path, CAP).unwrap(),
        config(0.9),
        &universe,
        &steps,
    );
    std::fs::remove_file(&path).ok();
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Under FIFO, on all five device backends, a CLAM driven through
    /// scalar and batched inserts, deletes, scalar and batched lookups and
    /// whole-index flushes, with eviction churn, log wrap and slot
    /// reclaim, then recovered from flash and driven on, gives every reply
    /// and every count the sequential model gives.
    #[test]
    fn clam_matches_the_model_on_every_backend(
        raw in vec((0u8..20, any::<u64>(), any::<u64>()), 300..900),
    ) {
        check_against_model_on_every_backend(EvictionPolicy::Fifo, &raw)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same under the partial-discard policies — update-based and
    /// priority-based (about half of the random values reach the
    /// threshold) — whose evictions read the incarnation back, retain what
    /// the policy's own pure decision says and cascade when the retained
    /// entries refill the buffer.
    #[test]
    fn partial_discard_policies_match_the_model_on_every_backend(
        raw in vec((0u8..20, any::<u64>(), any::<u64>()), 300..900),
    ) {
        check_against_model_on_every_backend(EvictionPolicy::UpdateBased, &raw)?;
        check_against_model_on_every_backend(EvictionPolicy::priority_threshold(1 << 63), &raw)?;
    }
}

/// Twin CLAMs on fresh devices from `device`, driven through `steps`:
/// every insert goes to one as a per-op `insert` and to the other as a
/// one-op `insert_batch`, every other step to both alike. A per-op insert
/// is the batch pipeline on one op, so nothing may tell the twins apart
/// but `batched_inserts`: not a returned outcome, a stored value, a
/// `ClamStats` or `IoStats` entry, nor a byte of either device. A device
/// on the `wall_clock` measures its latencies on the host, so there the
/// twins are held to everything but what is measured ([`agreed`]).
/// Returns the per-op twin's ledger, for the caller to check what the run
/// went through.
fn check_insert_is_a_batch_of_one<D: Device>(
    mut device: impl FnMut(&str) -> D,
    wall_clock: bool,
    config: ClamConfig,
    universe: &[u64],
    steps: &[Step],
) -> Result<ClamStats, proptest::test_runner::TestCaseError> {
    let mut per_op = Clam::new(device("per-op"), config.clone()).unwrap();
    let mut batched = Clam::new(device("batched"), config).unwrap();
    let name = per_op.device().name();
    let time = |latency: SimDuration| if wall_clock { SimDuration::ZERO } else { latency };
    let looked_up = |outcomes: &[LookupOutcome]| -> Vec<_> {
        outcomes.iter().map(|o| (o.value, o.source, o.flash_reads, time(o.latency))).collect()
    };
    for (i, step) in steps.iter().enumerate() {
        let ops = match step {
            Step::Insert(key, value) => vec![(*key, *value)],
            Step::InsertBatch(ops) => ops.clone(),
            Step::Delete(key) => {
                prop_assert_eq!(per_op.delete(*key).unwrap(), batched.delete(*key).unwrap());
                Vec::new()
            }
            Step::Lookup(key) => {
                let (a, b) = (per_op.lookup(*key).unwrap(), batched.lookup(*key).unwrap());
                prop_assert!(looked_up(&[a]) == looked_up(&[b]), "lookup at step {i} on {name}");
                Vec::new()
            }
            Step::LookupBatch(keys) => {
                let (a, b) =
                    (per_op.lookup_batch(keys).unwrap(), batched.lookup_batch(keys).unwrap());
                prop_assert!(
                    looked_up(&a.outcomes) == looked_up(&b.outcomes),
                    "step {i} on {name}"
                );
                Vec::new()
            }
            Step::FlushAll => {
                let (a, b) = (per_op.flush_all().unwrap(), batched.flush_all().unwrap());
                prop_assert!(time(a) == time(b), "flush at step {i} on {name}");
                Vec::new()
            }
        };
        for (key, value) in ops {
            let (a, b) = (
                per_op.insert(key, value).unwrap(),
                batched.insert_batch(&[(key, value)]).unwrap(),
            );
            prop_assert!(
                (time(a.latency), usize::from(a.flushed), a.evictions)
                    == (time(b.latency), b.flushed_ops, b.evictions),
                "insert at step {i} on {name}: {a:?}, batch of one {b:?}"
            );
        }
    }
    let (a, b) = (per_op.lookup_batch(universe).unwrap(), batched.lookup_batch(universe).unwrap());
    prop_assert!(looked_up(&a.outcomes) == looked_up(&b.outcomes), "stored values on {name}");
    let (mut a, mut b) = (per_op.stats().clone(), batched.stats().clone());
    prop_assert!(a.batched_inserts == 0 && b.batched_inserts > 0);
    b.batched_inserts = 0;
    if wall_clock {
        prop_assert!(agreed(a.entries()) == agreed(b.entries()), "ClamStats on {name}");
        let (mut a, mut b) = (per_op.device().stats(), batched.device().stats());
        prop_assert!(agreed(a.entries()) == agreed(b.entries()), "IoStats on {name}");
    } else {
        let (a, b) = (format!("{a:?}"), format!("{b:?}"));
        prop_assert!(a == b, "ClamStats on {name}:\n{a}\n{b}");
        prop_assert_eq!(per_op.device().stats(), batched.device().stats());
    }
    let (a, b) = (image_without_epoch(&mut per_op), image_without_epoch(&mut batched));
    prop_assert!(a == b, "device bytes on {name}");
    Ok(per_op.stats().clone())
}

/// The ledger entries a wall-clock device cannot move: every count but
/// the lane and stall counts the ring books from measured times, and no
/// time or latency sample.
fn agreed(entries: Vec<(&'static str, Kind, Slot<'_>)>) -> Vec<(&'static str, Vec<u64>)> {
    entries
        .into_iter()
        .filter(|(name, _, slot)| {
            matches!(slot, Slot::Fixed(_) | Slot::Many(_))
                && !name.contains("overlapped")
                && !name.contains("stalls")
        })
        .map(|(name, _, slot)| (name, slot.values().to_vec()))
        .collect()
}

/// The bytes of `clam`'s device, with the two header fields that name
/// its lifetime blanked in every page it wrote: the epoch and the CRC over
/// it (header bytes 24..32). Every `Clam` lifetime stamps its own epoch,
/// so twins differ there and nowhere else.
fn image_without_epoch<D: Device>(clam: &mut Clam<D>) -> Vec<u8> {
    let geometry = clam.device().geometry();
    let mut bytes = vec![0u8; geometry.capacity as usize];
    clam.device_mut().read_at(0, &mut bytes).unwrap();
    let epoch = clam.epoch();
    for page in bytes.chunks_exact_mut(geometry.page_size as usize) {
        if parse_page_header_checked(page).is_ok_and(|h| h.identity.epoch == epoch) {
            page[24..32].fill(0);
        }
    }
    bytes
}

/// [`check_insert_is_a_batch_of_one`] on all five device backends, each
/// run wrapping its log.
fn check_insert_is_a_batch_of_one_on_every_backend(
    eviction: EvictionPolicy,
    raw: &[(u8, u64, u64)],
) -> Result<Vec<ClamStats>, proptest::test_runner::TestCaseError> {
    let (universe, steps) = churn_steps(raw);
    const CAP: u64 = 1 << 20;
    let config = |util| churn_config(eviction, util, false);
    let file = |twin: &str| {
        let path = std::env::temp_dir().join(format!("clam-twin-{twin}-{}", std::process::id()));
        let device = FileDevice::create(&path, CAP).unwrap();
        // The open device keeps the bytes; the name goes now.
        std::fs::remove_file(&path).ok();
        device
    };
    let ledgers = vec![
        check_insert_is_a_batch_of_one(
            |_| Ssd::intel(CAP).unwrap(),
            false,
            config(0.9),
            &universe,
            &steps,
        )?,
        check_insert_is_a_batch_of_one(
            |_| MagneticDisk::new(CAP).unwrap(),
            false,
            config(0.9),
            &universe,
            &steps,
        )?,
        check_insert_is_a_batch_of_one(
            |_| DramDevice::new(CAP).unwrap(),
            false,
            config(0.5),
            &universe,
            &steps,
        )?,
        check_insert_is_a_batch_of_one(
            |_| FlashChip::new(CAP).unwrap(),
            false,
            churn_config(eviction, 0.9, true),
            &universe,
            &steps,
        )?,
        check_insert_is_a_batch_of_one(file, true, config(0.9), &universe, &steps)?,
    ];
    for stats in &ledgers {
        // Eight slots: more flushes than that wrapped the log.
        prop_assert!(stats.flushes > 8 && stats.forced_evictions > 0, "{stats}");
    }
    Ok(ledgers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A per-op insert and a one-op `insert_batch` are one pipeline: on
    /// all five backends, under FIFO and update-based eviction, through
    /// eviction cascades and log wrap, twin CLAMs fed the same ops one way
    /// and the other end in the same outcomes, ledgers and device bytes.
    #[test]
    fn a_per_op_insert_is_a_batch_of_one_on_every_backend(
        raw in vec((0u8..20, any::<u64>(), any::<u64>()), 300..900),
    ) {
        check_insert_is_a_batch_of_one_on_every_backend(EvictionPolicy::Fifo, &raw)?;
        let ledgers = check_insert_is_a_batch_of_one_on_every_backend(EvictionPolicy::UpdateBased, &raw)?;
        // Some chain evicted more than one incarnation: a cascade.
        let cascades: u64 = ledgers.iter().flat_map(|s| s.cascade_histogram.iter().skip(2)).sum();
        prop_assert!(cascades > 0, "no update-based run cascaded");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end: a CLAM driven by an arbitrary operation sequence agrees
    /// with a HashMap, as long as capacity is not exceeded (no eviction).
    #[test]
    fn clam_matches_hashmap_semantics(ops in vec((0u64..3_000, any::<u64>(), 0u8..10), 200..1_200)) {
        let config = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
        let mut clam = Clam::new(Ssd::intel(8 << 20).unwrap(), config).unwrap();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (k, v, action) in ops {
            // Keys derive from a fixed seed so inserts, deletes and lookups
            // of the same logical key collide across actions.
            let key = clam::bufferhash::hash_with_seed(k, 0x9a7e);
            match action {
                0..=5 => {
                    clam.insert(key, v).unwrap();
                    model.insert(key, v);
                }
                6..=7 => {
                    clam.delete(key).unwrap();
                    model.remove(&key);
                }
                _ => {
                    prop_assert_eq!(clam.lookup(key).unwrap().value, model.get(&key).copied());
                }
            }
        }
        for (k, v) in model {
            prop_assert_eq!(clam.lookup(k).unwrap().value, Some(v));
        }
    }
}

/// Builds the same request mix twice (the ring consumes its requests, and
/// the two devices need independent instances). Three requests in four
/// land in one hot 64 KiB region, so a case of twenty has a dozen
/// overlapping pairs for the ordering rules to get wrong; the rest roam
/// the device and a little beyond its end. Half the writes are lists of
/// two buffers.
fn build_requests(raw: &[(u8, u64, usize, u8)], capacity: u64) -> Vec<IoRequest> {
    raw.iter()
        .map(|&(kind, anywhere, len, fill)| {
            let offset = if kind / 4 % 4 == 0 { anywhere } else { anywhere % (64 << 10) };
            match kind % 4 {
                0 => IoRequest::Read { offset, len },
                // An odd fill writes a list of two buffers, which the
                // sequential side issues as their concatenation.
                1 if fill % 2 == 1 => IoRequest::write_list(
                    offset,
                    vec![vec![fill; len / 3], vec![fill.wrapping_add(1); len - len / 3]],
                ),
                1 => IoRequest::write(offset, vec![fill; len]),
                2 => IoRequest::Trim { offset, len: len as u64 },
                _ => IoRequest::Erase { block: anywhere % (capacity / (128 * 1024) + 4) },
            }
        })
        .collect()
}

/// Issues `requests` one at a time through the per-op `Device` methods,
/// returning the normalized per-request outcome (read data / empty, or the
/// error).
fn issue_sequentially<D: Device>(
    device: &mut D,
    requests: &[IoRequest],
) -> Vec<Result<Vec<u8>, DeviceError>> {
    requests
        .iter()
        .map(|request| match request {
            IoRequest::Read { offset, len } => {
                let mut buf = vec![0u8; *len];
                device.read_at(*offset, &mut buf).map(|_| buf)
            }
            IoRequest::Write { offset, bufs } => {
                device.write_at(*offset, &bufs.concat()).map(|_| Vec::new())
            }
            IoRequest::Erase { block } => device.erase_block(*block).map(|_| Vec::new()),
            IoRequest::Trim { offset, len } => device.trim(*offset, *len).map(|_| Vec::new()),
        })
        .collect()
}

/// Submits `requests` to one ring on `device` in `slices` `submit` calls
/// without a sync between them — so the ring's conflict floors span calls
/// — and returns every request's outcome, in request order.
fn issue_on_ring<D: Device>(
    device: &mut D,
    requests: Vec<IoRequest>,
    slices: usize,
) -> Vec<Result<Vec<u8>, DeviceError>> {
    let mut ring = CompletionRing::for_queue(device.queue());
    let per_slice = requests.len().div_ceil(slices);
    let mut outcomes: Vec<Option<Result<Vec<u8>, DeviceError>>> =
        (0..requests.len()).map(|_| None).collect();
    let mut requests = requests.into_iter().map(RingRequest::new).peekable();
    let mut submitted = 0;
    while requests.peek().is_some() {
        let slice: Vec<RingRequest> = requests.by_ref().take(per_slice).collect();
        let len = slice.len();
        for completion in device.submit(slice, &mut ring).unwrap() {
            outcomes[submitted + completion.index] = Some(completion.result);
        }
        submitted += len;
    }
    outcomes.into_iter().map(|o| o.expect("one completion per request")).collect()
}

/// Asserts that queueing `raw` on the ring leaves `ringed` in the same
/// observable state (per-ticket results + final bytes) as issuing the same
/// ops sequentially on `sequential`.
fn assert_ring_equivalent<D: Device>(
    mut sequential: D,
    mut ringed: D,
    raw: &[(u8, u64, usize, u8)],
) -> Result<(), proptest::TestCaseError> {
    let capacity = sequential.geometry().capacity;
    let expected = issue_sequentially(&mut sequential, &build_requests(raw, capacity));
    let slices = 2 + raw.len() % 2;
    let got = issue_on_ring(&mut ringed, build_requests(raw, capacity), slices);
    prop_assert_eq!(got.len(), expected.len());
    for (index, (got, want)) in got.iter().zip(&expected).enumerate() {
        prop_assert!(
            got == want,
            "request {} of {} on {}: ring {:?} vs sequential {:?}",
            index,
            raw.len(),
            ringed.name(),
            got.as_ref().map(Vec::len),
            want.as_ref().map(Vec::len)
        );
    }
    // Final device bytes agree.
    let mut seq_bytes = vec![0u8; capacity as usize];
    let mut ring_bytes = vec![0u8; capacity as usize];
    sequential.read_at(0, &mut seq_bytes).unwrap();
    ringed.read_at(0, &mut ring_bytes).unwrap();
    prop_assert!(seq_bytes == ring_bytes, "final bytes mismatch on {}", ringed.name());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ring over an arbitrary request mix (reads, writes, trims,
    /// erases; overlapping ranges; out-of-bounds and unsupported commands
    /// included), admitted in two or three slices with requests still in
    /// flight between them, is observationally equivalent — per-ticket
    /// results and final device bytes — to issuing the same operations
    /// sequentially, on all five backends and through a `SharedDevice`
    /// partition that translates every offset and erase block. Devices may
    /// only overlap or reorder *timing*: admission order is data-effect
    /// order.
    #[test]
    fn ring_equivalent_to_sequential_ops(
        raw in vec((any::<u8>(), 0u64..(1 << 20) + 16_384, 0usize..6_000, any::<u8>()), 1..24)
    ) {
        const CAP: u64 = 1 << 20;
        assert_ring_equivalent(
            DramDevice::new(CAP).unwrap(),
            DramDevice::new(CAP).unwrap(),
            &raw,
        )?;
        assert_ring_equivalent(
            FlashChip::new(CAP).unwrap(),
            FlashChip::new(CAP).unwrap(),
            &raw,
        )?;
        assert_ring_equivalent(Ssd::intel(CAP).unwrap(), Ssd::intel(CAP).unwrap(), &raw)?;
        assert_ring_equivalent(
            MagneticDisk::new(CAP).unwrap(),
            MagneticDisk::new(CAP).unwrap(),
            &raw,
        )?;
        // The upper half of a chip twice the size: offsets and erase-block
        // indices are translated by a non-zero base.
        let upper_half =
            || SharedDevice::new(FlashChip::new(2 * CAP).unwrap()).partition(CAP, CAP).unwrap();
        assert_ring_equivalent(upper_half(), upper_half(), &raw)?;
        let dir = std::env::temp_dir();
        let seq_path = dir.join(format!("clam-prop-seq-{}", std::process::id()));
        let ring_path = dir.join(format!("clam-prop-ring-{}", std::process::id()));
        let outcome = assert_ring_equivalent(
            FileDevice::create(&seq_path, CAP).unwrap(),
            FileDevice::create(&ring_path, CAP).unwrap(),
            &raw,
        );
        std::fs::remove_file(&seq_path).ok();
        std::fs::remove_file(&ring_path).ok();
        outcome?;
    }
}
