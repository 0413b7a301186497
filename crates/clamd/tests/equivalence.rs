//! Sharded group commit and the seqlock read fast path must be
//! invisible except for speed: every outcome a client (or a store
//! caller) observes has to be identical to the single-gather,
//! coarse-locked baseline. Four angles:
//!
//! * store level — the same op sequence through a fine-grained
//!   [`StripedClam`] (per-table write locks + seqlock read fast path)
//!   and a coarse one over **all five** flashsim backends, comparing
//!   per-key values, sources, flash reads, the stores' flush/eviction
//!   ledgers and the devices' raw write/trim/erase traffic;
//! * wire level — two real `clamd` servers (shards=1 + coarse locks vs
//!   shards=4 + fast path) answering identical per-connection scripts
//!   with identical response streams;
//! * register model — seeded multi-connection request streams over a
//!   few keys, gathered into large mixed segments, with every reply
//!   compared against a sequential per-key register model;
//! * starvation — one stripe hammered with inserts while lookups run on
//!   the other stripes, with a bounded tail as the liveness check.

use std::time::{Duration, Instant};

use bufferhash::{hash_with_seed, Clam, ClamConfig, StripedClam};
use clamd::batcher::{BatcherConfig, Engine};
use clamd::client::ClamdClient;
use clamd::proto::{Op, Request, RespBody};
use clamd::server::{boot_sim, ephemeral_sim_server_sharded, ClamdServer, ServerConfig};
use flashsim::{Device, DramDevice, FileDevice, FlashChip, MagneticDisk, SharedDevice, Ssd};
use proptest::collection::vec;
use proptest::prelude::*;

const STRIPES: usize = 4;
const FLASH: u64 = 8 << 20;
const DRAM: u64 = 2 << 20;
/// Seed of [`StripedClam::stripe_index`]'s routing hash; the starvation
/// test uses it to aim keys at specific stripes.
const STRIPE_SEED: u64 = 0x57_e19e;

/// Stripes `device` exactly the way the server boot path does, keeping a
/// handle on the underlying device so tests can audit its I/O ledger.
fn striped<D: Device>(device: D) -> (StripedClam<SharedDevice<D>>, SharedDevice<D>) {
    let cfg = ClamConfig::small_test(FLASH / STRIPES as u64, DRAM / STRIPES as u64).unwrap();
    let shared = SharedDevice::new(device);
    let stripes = shared
        .split(STRIPES)
        .unwrap()
        .into_iter()
        .map(|partition| Clam::new(partition, cfg.clone()).unwrap())
        .collect();
    (StripedClam::new(stripes), shared)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("clamd-equiv-{}-{}", std::process::id(), name));
    p
}

/// Drives the sampled op sequence through both stores and asserts every
/// observable outcome matches, then audits the whole keyspace, the two
/// stores' ledgers, and the raw flash traffic on the backing devices.
fn assert_stores_agree<A: Device, B: Device>(
    (fast, fast_dev): &(StripedClam<SharedDevice<A>>, SharedDevice<A>),
    (coarse, coarse_dev): &(StripedClam<SharedDevice<B>>, SharedDevice<B>),
    ops: &[(u8, u64)],
    seed: u64,
    label: &str,
) {
    coarse.set_coarse_locks(true);
    // Force the fine store's batches through the multi-chunk scoped-thread
    // dispatch (gate + rendezvous) even on single-core hosts, so the
    // identity claim is tested against the genuinely concurrent path.
    fast.set_batch_parallelism(Some(3));
    let key = |raw: u64| hash_with_seed(raw % 192, seed);
    for (i, &(kind, raw)) in ops.iter().enumerate() {
        match kind % 10 {
            0..=2 => {
                fast.insert(key(raw), raw).unwrap();
                coarse.insert(key(raw), raw).unwrap();
            }
            3 => {
                fast.delete(key(raw)).unwrap();
                coarse.delete(key(raw)).unwrap();
            }
            4 => {
                let pairs: Vec<(u64, u64)> =
                    (0..32).map(|j| (key(raw.wrapping_add(j)), raw ^ j)).collect();
                fast.insert_batch(&pairs).unwrap();
                coarse.insert_batch(&pairs).unwrap();
            }
            5 => {
                let keys: Vec<u64> = (0..24).map(|j| key(raw.wrapping_add(j * 3))).collect();
                let f = fast.lookup_batch(&keys).unwrap();
                let c = coarse.lookup_batch(&keys).unwrap();
                for (j, (fo, co)) in f.outcomes.iter().zip(c.outcomes.iter()).enumerate() {
                    assert_eq!(fo.value, co.value, "{label}: op {i} batch slot {j}");
                    assert_eq!(fo.source, co.source, "{label}: op {i} batch slot {j}");
                    assert_eq!(fo.flash_reads, co.flash_reads, "{label}: op {i} batch slot {j}");
                }
            }
            6 => {
                fast.flush_all().unwrap();
                coarse.flush_all().unwrap();
            }
            _ => {
                let f = fast.lookup(key(raw)).unwrap();
                let c = coarse.lookup(key(raw)).unwrap();
                assert_eq!(f.value, c.value, "{label}: op {i}");
                assert_eq!(f.source, c.source, "{label}: op {i}");
                assert_eq!(f.flash_reads, c.flash_reads, "{label}: op {i}");
            }
        }
    }
    // Full-keyspace audit: both stores hold exactly the same map.
    let keys: Vec<u64> = (0..192).map(key).collect();
    let f = fast.lookup_batch(&keys).unwrap();
    let c = coarse.lookup_batch(&keys).unwrap();
    for (j, (fo, co)) in f.outcomes.iter().zip(c.outcomes.iter()).enumerate() {
        assert_eq!(fo.value, co.value, "{label}: audit slot {j}");
        assert_eq!(fo.source, co.source, "{label}: audit slot {j}");
    }
    // Both ledgers counted every lookup; only the fast store used the
    // epoch-validated path, and only when writes left it room to.
    let (fs, cs) = (fast.stats(), coarse.stats());
    assert_eq!(fs.lookup_hits, cs.lookup_hits, "{label}");
    assert_eq!(fs.lookup_misses, cs.lookup_misses, "{label}");
    assert_eq!(cs.fast_lookups, 0, "{label}: coarse mode must never take the fast path");
    // Write-side identity: the fine-grained per-table write path must
    // replay the coarse baseline's flush/eviction history exactly —
    // same flush count and sequence effects, same forced evictions,
    // same coalesced write runs, same cuckoo cascade shape, and the
    // same per-op latency totals (simulated time is deterministic).
    assert_eq!(fs.flushes, cs.flushes, "{label}: flush count");
    assert_eq!(fs.forced_evictions, cs.forced_evictions, "{label}: forced evictions");
    assert_eq!(fs.coalesced_flush_writes, cs.coalesced_flush_writes, "{label}: coalesced runs");
    assert_eq!(fs.cascade_histogram, cs.cascade_histogram, "{label}: cascade shape");
    assert_eq!(fs.inserts.len(), cs.inserts.len(), "{label}: insert count");
    assert_eq!(fs.inserts.total(), cs.inserts.total(), "{label}: summed insert latency");
    assert_eq!(fs.deletes.len(), cs.deletes.len(), "{label}: delete count");
    assert_eq!(fs.deletes.total(), cs.deletes.total(), "{label}: summed delete latency");
    // Only the fine store exercises the table-lock ledger.
    assert!(fs.table_write_acquisitions > 0, "{label}: fine writes must take table locks");
    assert_eq!(cs.table_write_acquisitions, 0, "{label}: coarse mode takes no table locks");
    // Device-level identity: byte-for-byte the same flash write, trim
    // and erase traffic (reads too — lookup outcomes already matched).
    let (fio, cio) = (fast_dev.with(|d| d.stats()), coarse_dev.with(|d| d.stats()));
    assert_eq!(fio.writes, cio.writes, "{label}: flash writes");
    assert_eq!(fio.bytes_written, cio.bytes_written, "{label}: flash bytes written");
    assert_eq!(fio.trims, cio.trims, "{label}: trims");
    assert_eq!(fio.erases, cio.erases, "{label}: erases");
    assert_eq!(fio.reads, cio.reads, "{label}: flash reads");
    assert_eq!(fio.bytes_read, cio.bytes_read, "{label}: flash bytes read");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fast-path store and the coarse-locked baseline are
    /// indistinguishable — per value, per source, per flash read — on
    /// every one of the five flashsim backends.
    #[test]
    fn fast_and_coarse_stores_agree_on_every_backend(
        seed in any::<u64>(),
        ops in vec((0u8..10, any::<u64>()), 150..300),
    ) {
        assert_stores_agree(
            &striped(Ssd::intel(FLASH).unwrap()),
            &striped(Ssd::intel(FLASH).unwrap()),
            &ops, seed, "ssd",
        );
        assert_stores_agree(
            &striped(DramDevice::new(FLASH).unwrap()),
            &striped(DramDevice::new(FLASH).unwrap()),
            &ops, seed, "dram",
        );
        assert_stores_agree(
            &striped(FlashChip::new(FLASH).unwrap()),
            &striped(FlashChip::new(FLASH).unwrap()),
            &ops, seed, "flash-chip",
        );
        assert_stores_agree(
            &striped(MagneticDisk::new(FLASH).unwrap()),
            &striped(MagneticDisk::new(FLASH).unwrap()),
            &ops, seed, "disk",
        );
        let (pf, pc) = (temp_path(&format!("f-{seed:x}")), temp_path(&format!("c-{seed:x}")));
        let _ = std::fs::remove_file(&pf);
        let _ = std::fs::remove_file(&pc);
        assert_stores_agree(
            &striped(FileDevice::with_queue_depth(&pf, FLASH, 4).unwrap()),
            &striped(FileDevice::with_queue_depth(&pc, FLASH, 4).unwrap()),
            &ops, seed, "file",
        );
        let _ = std::fs::remove_file(&pf);
        let _ = std::fs::remove_file(&pc);
    }
}

/// Streams of `ops` from three connections, all over the same sixteen
/// keys, through an engine whose gathers are long (linger and
/// `max_batch` far above what the streams need), so same-key inserts,
/// lookups, deletes and batch slices meet inside one gather as a matter
/// of course. One thread submits every chunk, so the order requests
/// reach a key's shard is the order they were submitted in, and a
/// sequential map applied in that order says what every reply must be —
/// each key an atomic register, however the gather was cut into
/// segments. Replies must also come back in each connection's request
/// order.
fn assert_replies_match_the_register_model(shards: usize, seed: u64, ops: &[(u8, u64)]) {
    const CONNS: u64 = 3;
    let (store, _device) = striped(Ssd::intel(FLASH).unwrap());
    let config = BatcherConfig { max_batch: 4096, linger: Duration::from_millis(2), shards };
    let engine = Engine::start(store, Vec::new(), config);
    let inboxes: Vec<_> = (1..=CONNS).map(|conn| engine.register_conn(conn)).collect();
    let key = |raw: u64| hash_with_seed(raw % 16, seed);
    let found = |value: Option<&u64>| (value.is_some(), value.copied().unwrap_or(0));

    let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut expected: Vec<Vec<RespBody>> = vec![Vec::new(); CONNS as usize];
    let mut flushes = 0;
    let mut rest = ops;
    while let Some(&(_, first)) = rest.first() {
        // A chunk of one to six requests from one connection.
        let conn = first % CONNS;
        let (chunk, later) = rest.split_at((1 + first as usize / 3 % 6).min(rest.len()));
        rest = later;
        let mut requests = Vec::new();
        for &(kind, raw) in chunk {
            let (op, reply) = match kind % 10 {
                0..=2 => {
                    model.insert(key(raw), raw);
                    (Op::Insert { key: key(raw), value: raw }, RespBody::Inserted)
                }
                3 => {
                    model.remove(&key(raw));
                    (Op::Delete { key: key(raw) }, RespBody::Deleted)
                }
                4 => {
                    // Five pairs, the same key twice now and then.
                    let pairs: Vec<(u64, u64)> =
                        (0..5).map(|j| (key(raw.wrapping_add(j * j)), raw ^ j)).collect();
                    model.extend(pairs.iter().copied());
                    (Op::InsertBatch(pairs), RespBody::InsertedBatch { count: 5 })
                }
                5 => {
                    let keys: Vec<u64> = (0..5).map(|j| key(raw.wrapping_add(j * 3))).collect();
                    let values = keys.iter().map(|k| found(model.get(k))).collect();
                    (Op::LookupBatch(keys), RespBody::Values(values))
                }
                6 if raw % 4 == 0 => {
                    flushes += 1;
                    (Op::Flush, RespBody::Flushed)
                }
                _ => {
                    let (found, value) = found(model.get(&key(raw)));
                    (Op::Lookup { key: key(raw) }, RespBody::Value { found, value })
                }
            };
            let replies = &mut expected[conn as usize];
            requests.push(Request { id: replies.len() as u64, op });
            replies.push(reply);
        }
        engine.submit_chunk(conn + 1, requests);
    }

    for (conn, (inbox, expected)) in inboxes.iter().zip(&expected).enumerate() {
        for (id, want) in expected.iter().enumerate() {
            let got = inbox.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(got.id, id as u64, "conn {conn}: replies out of request order");
            assert_eq!(&got.body, want, "conn {conn} request {id} ({shards} shards, seed {seed})");
        }
    }
    engine.shutdown();
    let stats = engine.stats();
    assert_eq!(stats.flushes, flushes);
    assert!(stats.batch_high_water > 1, "the streams never shared a gather: {stats}");
    assert!(stats.insert_admissions + stats.lookup_admissions <= 2 * stats.segments, "{stats}");
    assert!(
        stats.segments
            <= stats.batches + stats.segment_conflicts + flushes * engine.num_shards() as u64,
        "{stats}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever segments a gather is cut into, every key behaves as an
    /// atomic register — with one gather thread and with one per stripe.
    #[test]
    fn every_reply_matches_a_sequential_per_key_register_model(
        seed in any::<u64>(),
        ops in vec((0u8..10, any::<u64>()), 300..600),
    ) {
        assert_replies_match_the_register_model(1, seed, &ops);
        assert_replies_match_the_register_model(STRIPES, seed, &ops);
    }
}

/// Two tables of **one stripe** must hold their write locks at the same
/// time during a fine-grained batch: the per-stripe concurrency
/// high-water ledger proves the commits overlapped instead of
/// serializing behind a stripe-global lock. The forced chunk count makes
/// this deterministic on any host — the chunks rendezvous on a barrier
/// with their first table lock held, so all of them demonstrably hold a
/// lock at one instant even when the OS time-slices them on one core.
#[test]
fn fine_batch_write_locks_overlap_within_one_stripe() {
    let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    let store = StripedClam::new(vec![Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap()]);
    store.set_batch_parallelism(Some(4));
    // Enough keys to populate several super tables of the single stripe.
    let ops: Vec<(u64, u64)> = (0..4_000u64).map(|i| (hash_with_seed(i, 0x5eed), i)).collect();
    store.insert_batch(&ops).unwrap();
    let stats = store.stats();
    assert!(
        stats.table_lock_high_water >= 2,
        "a fine batch over one stripe must write-lock >= 2 tables concurrently: {stats}"
    );
    assert!(stats.table_write_acquisitions > 0, "{stats}");
    // The batch's effects are intact despite the concurrent commits.
    for (k, v) in ops.iter().rev().take(500) {
        assert_eq!(store.lookup(*k).unwrap().value, Some(*v), "key {k:#x}");
    }
}

/// A deterministic per-connection op script over a keyspace disjoint
/// from every other connection's, so the response stream is a pure
/// function of the script — whatever the server's shard count.
fn script(conn: u64) -> Vec<Op> {
    let key = |r: u64| hash_with_seed(conn * 10_000 + r % 90, 7);
    (0..180u64)
        .map(|i| match i % 10 {
            0..=3 => Op::Insert { key: key(i), value: conn * 1_000_000 + i },
            4 => Op::Delete { key: key(i * 7) },
            5 => Op::InsertBatch(
                (0..16).map(|j| (key(i + j), conn * 1_000_000 + i * 100 + j)).collect(),
            ),
            6 => Op::LookupBatch((0..24).map(|j| key(i * 3 + j)).collect()),
            7 => Op::Flush,
            _ => Op::Lookup { key: key(i * 5) },
        })
        .collect()
}

/// Runs the three scripts concurrently, one connection each. A FLUSH
/// writes out every connection's buffered keys, so the connections meet
/// before and after theirs (the scripts flush at the same steps): what
/// each incarnation holds, and so what the incarnation tables evict, is
/// then a function of the scripts alone. Free-running, one run in twelve
/// evicted a key on one server and not on the other.
fn run_scripts<D: Device + 'static>(server: &ClamdServer<D>) -> Vec<Vec<RespBody>> {
    let addr = server.local_addr();
    let flush_round = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        let flush_round = &flush_round;
        let handles: Vec<_> = (0..3u64)
            .map(|conn| {
                scope.spawn(move || {
                    let mut client = ClamdClient::connect(addr).unwrap();
                    let mut call = |op: Op| {
                        let flush = matches!(op, Op::Flush);
                        if flush {
                            flush_round.wait();
                        }
                        let response = client.call(op).unwrap();
                        if flush {
                            flush_round.wait();
                        }
                        response
                    };
                    script(conn).into_iter().map(&mut call).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The sharded fast-path server answers every connection with exactly
/// the byte-identical response stream of the single-gather,
/// coarse-locked baseline.
#[test]
fn sharded_server_matches_coarse_single_gather_baseline_over_tcp() {
    // Flash small enough that the scripts' 18 flush rounds wrap the super
    // tables' logs, so what eviction drops is compared too.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        stripes: STRIPES,
        flash_bytes: 8 << 20,
        dram_bytes: 4 << 20,
        batcher: BatcherConfig { shards: 1, ..BatcherConfig::default() },
    };
    let baseline_store = boot_sim(&config).unwrap();
    baseline_store.set_coarse_locks(true);
    let baseline = ClamdServer::start(baseline_store, Vec::new(), config).unwrap();
    let sharded = ephemeral_sim_server_sharded(STRIPES, STRIPES, 8 << 20, 4 << 20).unwrap();
    assert_eq!(sharded.num_shards(), STRIPES);

    let base_streams = run_scripts(&baseline);
    let shard_streams = run_scripts(&sharded);
    for (conn, (b, s)) in base_streams.iter().zip(shard_streams.iter()).enumerate() {
        assert_eq!(b.len(), s.len(), "conn {conn}");
        for (i, (bb, ss)) in b.iter().zip(s.iter()).enumerate() {
            assert_eq!(bb, ss, "conn {conn} response {i}");
        }
    }
    // Same work, counted identically, whichever engine did it.
    let (bs, ss) = (baseline.stats(), sharded.stats());
    assert_eq!(bs.inserts, ss.inserts);
    assert_eq!(bs.lookups, ss.lookups);
    assert_eq!(bs.lookup_hits, ss.lookup_hits);
    assert_eq!(bs.lookup_misses, ss.lookup_misses);
    assert_eq!(bs.deletes, ss.deletes);
    assert_eq!(bs.flushes, ss.flushes);
    // Both evicted incarnations, the same number of them.
    let (bc, sc) = (baseline.clam_stats(), sharded.clam_stats());
    assert!(bc.forced_evictions > 0, "{bc}");
    assert_eq!((bc.flushes, bc.forced_evictions), (sc.flushes, sc.forced_evictions));
    // Only the sharded server's store ever took the epoch-validated path.
    assert_eq!(baseline.clam_stats().fast_lookups, 0);
    assert!(sharded.clam_stats().fast_lookups > 0, "{:?}", sharded.stats());
}

/// Hammering one stripe with inserts must not starve lookups on the
/// other stripes: with per-stripe shards the readers' p99 stays bounded
/// (the bound is liveness-grade generous — the point is that readers
/// are not serialized behind the writer's stripe).
#[test]
fn insert_hammer_on_one_stripe_does_not_starve_reads_on_others() {
    let server = ephemeral_sim_server_sharded(STRIPES, STRIPES, 32 << 20, 8 << 20).unwrap();
    let addr = server.local_addr();
    let stripe_of = |key: u64| (hash_with_seed(key, STRIPE_SEED) % STRIPES as u64) as usize;

    // Preload read targets on stripes 1..4 only.
    let read_keys: Vec<u64> = (0..).filter(|&k| stripe_of(k) != 0).take(2_000).collect();
    let mut loader = ClamdClient::connect(addr).unwrap();
    loader.insert_batch(read_keys.iter().map(|&k| (k, k + 1)).collect()).unwrap();

    let p99 = std::thread::scope(|scope| {
        // Hammer stripe 0 with inserts for the whole measurement window.
        let hammer = scope.spawn(move || {
            let mut client = ClamdClient::connect(addr).unwrap();
            let keys: Vec<u64> = (1 << 32..).filter(|&k| stripe_of(k) == 0).take(512).collect();
            for i in 0..6_000u64 {
                let key = keys[(i % keys.len() as u64) as usize];
                client.insert(key, i).unwrap();
            }
        });
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let read_keys = &read_keys;
                scope.spawn(move || {
                    let mut client = ClamdClient::connect(addr).unwrap();
                    let mut lat = Vec::with_capacity(2_000);
                    for i in 0..2_000usize {
                        let key = read_keys[(i * 7 + r * 13) % read_keys.len()];
                        let start = Instant::now();
                        assert_eq!(client.lookup(key).unwrap(), Some(key + 1));
                        lat.push(start.elapsed());
                    }
                    lat
                })
            })
            .collect();
        let mut lat: Vec<Duration> = readers.into_iter().flat_map(|h| h.join().unwrap()).collect();
        hammer.join().unwrap();
        lat.sort_unstable();
        lat[lat.len() * 99 / 100]
    });
    assert!(p99 < Duration::from_millis(250), "reader p99 {p99:?} under insert hammer");

    // The hammer really was confined to one shard's ledger.
    let per_shard = server.per_shard_stats();
    let hammered: Vec<usize> =
        (0..per_shard.len()).filter(|&i| per_shard[i].inserts >= 6_000).collect();
    assert_eq!(hammered.len(), 1, "exactly one shard absorbed the hammer: {per_shard:?}");
}
