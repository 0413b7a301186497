//! Sharded group commit, with each stripe owned by whichever reader leads
//! its shard, must be invisible except for speed: every outcome a client
//! (or a store caller) observes has to be the one a small sequential
//! model of CLAM semantics (`tests/support/clam_model.rs`) gives. Four
//! angles:
//!
//! * store level — the same op sequence through a [`StripedClam`]'s public
//!   entry points and, on a twin, through its stripes as `clamd` owns
//!   them ([`StripedClam::into_stripes`], routed by [`StripeRouter`]), over
//!   **all five** flashsim backends: every insert outcome and every
//!   lookup's value and source against the model, per-key flash reads,
//!   ledgers and raw device traffic between the twins, then the state
//!   recovered from flash against the model's;
//! * wire level — a four-shard `clamd` driven by connections that own
//!   disjoint key sets, every reply and the post-`FLUSH` recovered state
//!   against the model;
//! * register model — seeded multi-connection request streams over a
//!   few keys, gathered into large mixed segments, with every reply
//!   compared against a sequential per-key register model;
//! * starvation — one stripe hammered with inserts while lookups run on
//!   the other stripes, with a bounded tail as the liveness check.

use std::time::{Duration, Instant};

use bufferhash::{
    hash_with_seed, Clam, ClamConfig, ClamStats, Key, LookupSource, StripeRouter, StripedClam,
    Value,
};
use clamd::batcher::{BatcherConfig, Engine};
use clamd::client::ClamdClient;
use clamd::proto::{Op, Request, RespBody};
use clamd::server::{boot_sim, ephemeral_sim_server, ClamdServer, ServerConfig};
use flashsim::{Device, DramDevice, FileDevice, FlashChip, MagneticDisk, SharedDevice, Ssd};
use proptest::collection::vec;
use proptest::prelude::*;

#[path = "../../../tests/support/clam_model.rs"]
mod clam_model;
use clam_model::{ClamModel, Expected, Inserted};

const STRIPES: usize = 4;
const FLASH: u64 = 8 << 20;
const DRAM: u64 = 2 << 20;

/// The stripe that owns `key`, as the store and `clamd`'s shards route it.
fn stripe_of(key: Key) -> usize {
    StripeRouter::new(STRIPES).stripe_of(key)
}

/// A striped store, a handle on the device under it (to audit its I/O
/// ledger and to recover from), and the per-stripe configuration.
struct Striped<D: Device> {
    store: StripedClam<SharedDevice<D>>,
    device: SharedDevice<D>,
    config: ClamConfig,
}

/// Stripes `device` exactly the way the server boot path does.
fn striped_with<D: Device>(device: D, config: ClamConfig) -> Striped<D> {
    let device = SharedDevice::new(device);
    let stripes = device
        .split(STRIPES)
        .unwrap()
        .into_iter()
        .map(|partition| Clam::new(partition, config.clone()).unwrap())
        .collect();
    Striped { store: StripedClam::new(stripes), device, config }
}

fn striped<D: Device>(device: D) -> Striped<D> {
    let config = ClamConfig::small_test(FLASH / STRIPES as u64, DRAM / STRIPES as u64).unwrap();
    striped_with(device, config)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("clamd-equiv-{}-{}", std::process::id(), name));
    p
}

/// One [`ClamModel`] per stripe, routed like the store routes.
struct StripedModel(Vec<ClamModel>);

impl StripedModel {
    fn new(config: &ClamConfig) -> Self {
        StripedModel((0..STRIPES).map(|_| ClamModel::new(config)).collect())
    }

    fn insert(&mut self, key: Key, value: Value) -> Inserted {
        self.0[stripe_of(key)].insert(key, value)
    }

    /// Each stripe's share of a batch, input order kept.
    fn shares(ops: &[(Key, Value)]) -> Vec<Vec<(Key, Value)>> {
        (0..STRIPES)
            .map(|idx| ops.iter().copied().filter(|op| stripe_of(op.0) == idx).collect())
            .collect()
    }

    fn insert_batch(&mut self, ops: &[(Key, Value)]) -> Inserted {
        let mut total = Inserted::default();
        for (model, share) in self.0.iter_mut().zip(Self::shares(ops)) {
            let out = model.insert_batch(&share);
            total.flushed += out.flushed;
            total.evictions += out.evictions;
        }
        total
    }

    fn delete(&mut self, key: Key) {
        self.0[stripe_of(key)].delete(key)
    }

    fn lookup(&self, key: Key) -> Expected {
        self.0[stripe_of(key)].lookup(key)
    }

    fn flush_all(&mut self) {
        self.0.iter_mut().for_each(ClamModel::flush_all);
    }

    fn recover(&mut self) {
        self.0.iter_mut().for_each(ClamModel::recover);
    }

    /// Flushes, evictions on the tables' own account, forced evictions.
    fn ledger(&self) -> (u64, u64, u64) {
        self.0.iter().fold((0, 0, 0), |sum, m| {
            (sum.0 + m.flushes, sum.1 + m.evictions, sum.2 + m.forced_evictions)
        })
    }
}

/// Drives the sampled op sequence through a store's public entry points
/// and through its twin's stripes, owned as `clamd` owns them, every call
/// made on the `Clam` the router names; asserts every outcome matches the
/// model, then audits the whole keyspace, the two sides' ledgers, the raw
/// flash traffic on the backing devices, and what a recovery from flash
/// reads.
fn assert_stores_match_the_model<D: Device>(
    store: Striped<D>,
    twin: Striped<D>,
    ops: &[(u8, u64)],
    seed: u64,
    label: &str,
) {
    let mut model = StripedModel::new(&store.config);
    let mut owned = twin.store.into_stripes();
    let key = |raw: u64| hash_with_seed(raw % 192, seed);
    // One batched lookup on the store, a lookup per key on the owned
    // stripes: both against the model, and against each other where the
    // model has no say (flash reads).
    let audit = |model: &StripedModel, owned: &mut [Clam<_>], keys: &[Key], what: &str| {
        let f = store.store.lookup_batch(keys).unwrap();
        for (j, (fo, &k)) in f.outcomes.iter().zip(keys).enumerate() {
            let lo = owned[stripe_of(k)].lookup(k).unwrap();
            let want = model.lookup(k);
            assert!(want.admits(fo), "{label}: {what} slot {j}, store: {fo:?}, model {want:?}");
            assert!(want.admits(&lo), "{label}: {what} slot {j}, owned: {lo:?}, model {want:?}");
            assert_eq!(
                (fo.source, fo.flash_reads),
                (lo.source, lo.flash_reads),
                "{label}: {what} {j}"
            );
        }
    };
    for (i, &(kind, raw)) in ops.iter().enumerate() {
        let k = key(raw);
        match kind % 10 {
            0..=2 => {
                let want = model.insert(k, raw);
                let f = store.store.insert(k, raw).unwrap();
                let l = owned[stripe_of(k)].insert(k, raw).unwrap();
                assert_eq!((usize::from(f.flushed), f.evictions), (want.flushed, want.evictions));
                assert_eq!(f, l, "{label}: op {i}");
            }
            3 => {
                model.delete(k);
                store.store.delete(k).unwrap();
                owned[stripe_of(k)].delete(k).unwrap();
            }
            4 => {
                let pairs: Vec<(u64, u64)> =
                    (0..32).map(|j| (key(raw.wrapping_add(j)), raw ^ j)).collect();
                let want = model.insert_batch(&pairs);
                let f = store.store.insert_batch(&pairs).unwrap();
                assert_eq!((f.flushed_ops, f.evictions), (want.flushed, want.evictions));
                let mut flushed = 0;
                for (stripe, share) in owned.iter_mut().zip(StripedModel::shares(&pairs)) {
                    flushed += stripe.insert_batch(&share).unwrap().flushed_ops;
                }
                assert_eq!(flushed, want.flushed, "{label}: op {i}");
            }
            5 => {
                let keys: Vec<u64> = (0..24).map(|j| key(raw.wrapping_add(j * 3))).collect();
                audit(&model, &mut owned, &keys, &format!("op {i} batch"));
            }
            6 => {
                model.flush_all();
                store.store.flush_all().unwrap();
                for stripe in &mut owned {
                    stripe.flush_all().unwrap();
                }
            }
            _ => {
                let f = store.store.lookup(k).unwrap();
                let l = owned[stripe_of(k)].lookup(k).unwrap();
                let want = model.lookup(k);
                assert!(want.admits(&f), "{label}: op {i}: {f:?}, model {want:?}");
                assert_eq!((f.value, f.source, f.flash_reads), (l.value, l.source, l.flash_reads));
            }
        }
    }
    // Full-keyspace audit: both sides hold exactly the model's map.
    let keys: Vec<u64> = (0..192).map(key).collect();
    audit(&model, &mut owned, &keys, "audit");
    // The ledgers are the model's.
    let fs = store.store.stats();
    let mut ls = ClamStats::new();
    owned.iter().for_each(|stripe| ls.absorb(stripe.stats()));
    let (fio, lio) = (store.device.with(|d| d.stats()), twin.device.with(|d| d.stats()));
    let (flushes, evictions, forced) = model.ledger();
    assert_eq!((fs.flushes, fio.trims, fs.forced_evictions), (flushes, evictions, forced));
    assert_eq!((ls.flushes, lio.trims, ls.forced_evictions), (flushes, evictions, forced));
    // Write-side identity between the twins: same coalesced write runs,
    // same cuckoo cascade shape, the same per-op latency totals
    // (simulated time is deterministic), and byte for byte the same
    // flash traffic.
    assert_eq!(fs.coalesced_flush_writes, ls.coalesced_flush_writes, "{label}: coalesced runs");
    assert_eq!(fs.cascade_histogram, ls.cascade_histogram, "{label}: cascade shape");
    assert_eq!(fs.inserts.len(), ls.inserts.len(), "{label}: insert count");
    assert_eq!(fs.inserts.total(), ls.inserts.total(), "{label}: summed insert latency");
    assert_eq!(fs.deletes.total(), ls.deletes.total(), "{label}: summed delete latency");
    assert_eq!(fio.writes, lio.writes, "{label}: flash writes");
    assert_eq!(fio.bytes_written, lio.bytes_written, "{label}: flash bytes written");
    assert_eq!(fio.erases, lio.erases, "{label}: erases");
    assert_eq!(fio.reads, lio.reads, "{label}: flash reads");
    assert_eq!(fio.bytes_read, lio.bytes_read, "{label}: flash bytes read");
    // What survives a restart: flush, drop every byte of DRAM, recover
    // each stripe from its partition, and read the whole keyspace back.
    store.store.flush_all().unwrap();
    model.flush_all();
    model.recover();
    let Striped { store, device, config } = store;
    drop(store);
    let partitions = device.split(STRIPES).unwrap();
    let (recovered, reports) =
        StripedClam::recover(partitions.into_iter().map(|p| (p, config.clone())).collect())
            .unwrap();
    assert!(reports.iter().all(|r| r.torn == 0), "{label}: {reports:?}");
    let found = recovered.lookup_batch(&keys).unwrap();
    for (j, (outcome, &k)) in found.outcomes.iter().zip(&keys).enumerate() {
        // Nothing has flushed since the restart: nothing is retired yet.
        assert_ne!(outcome.source, LookupSource::Retired, "{label}: recovered {j}");
        assert!(model.lookup(k).admits(outcome), "{label}: recovered {j}: {outcome:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The store behind its public entry points, and its twin's stripes
    /// owned and called one by one, are both the model's store — per
    /// outcome, per value, per source — and indistinguishable from each
    /// other per flash read, on every one of the five flashsim backends.
    #[test]
    fn store_calls_and_owned_stripe_calls_agree_on_every_backend(
        seed in any::<u64>(),
        ops in vec((0u8..10, any::<u64>()), 150..300),
    ) {
        assert_stores_match_the_model(
            striped(Ssd::intel(FLASH).unwrap()),
            striped(Ssd::intel(FLASH).unwrap()),
            &ops, seed, "ssd",
        );
        assert_stores_match_the_model(
            striped(DramDevice::new(FLASH).unwrap()),
            striped(DramDevice::new(FLASH).unwrap()),
            &ops, seed, "dram",
        );
        // A raw chip cannot overwrite in place: it runs the same log,
        // erasing each block before it is programmed, each slot one erase
        // block.
        let chip = ClamConfig {
            buffer_bytes_total: 256 << 10,
            buffer_bytes_per_table: 128 << 10,
            ..ClamConfig::small_test(FLASH / STRIPES as u64, DRAM / STRIPES as u64).unwrap()
        };
        assert_stores_match_the_model(
            striped_with(FlashChip::new(FLASH).unwrap(), chip.clone()),
            striped_with(FlashChip::new(FLASH).unwrap(), chip),
            &ops, seed, "flash-chip",
        );
        assert_stores_match_the_model(
            striped(MagneticDisk::new(FLASH).unwrap()),
            striped(MagneticDisk::new(FLASH).unwrap()),
            &ops, seed, "disk",
        );
        let (pf, pc) = (temp_path(&format!("f-{seed:x}")), temp_path(&format!("c-{seed:x}")));
        let _ = std::fs::remove_file(&pf);
        let _ = std::fs::remove_file(&pc);
        assert_stores_match_the_model(
            striped(FileDevice::with_queue_depth(&pf, FLASH, 4).unwrap()),
            striped(FileDevice::with_queue_depth(&pc, FLASH, 4).unwrap()),
            &ops, seed, "file",
        );
        let _ = std::fs::remove_file(&pf);
        let _ = std::fs::remove_file(&pc);
    }
}

/// Streams of `ops` from three connections, all over the same sixteen
/// keys, through an engine over `stripes` stripes (as many shards), in
/// chunks of up to 48 requests: a chunk's share is one gather (the
/// batcher's 512-request bound far above it), so same-key inserts, lookups, deletes and batch slices
/// meet inside one gather as a matter of course. One thread submits every
/// chunk, so the order requests
/// reach a key's shard is the order they were submitted in, and a
/// sequential map applied in that order says what every reply must be —
/// each key an atomic register, however the gather was cut into
/// segments. Replies must also come back in each connection's request
/// order.
fn assert_replies_match_the_register_model(stripes: usize, seed: u64, ops: &[(u8, u64)]) {
    const CONNS: u64 = 3;
    let store = boot_sim(&ServerConfig {
        stripes,
        flash_bytes: FLASH,
        dram_bytes: DRAM,
        ..ServerConfig::default()
    })
    .unwrap();
    let engine = Engine::start(store, Vec::new(), BatcherConfig::default());
    let inboxes: Vec<_> = (1..=CONNS).map(|conn| engine.register_conn(conn)).collect();
    let key = |raw: u64| hash_with_seed(raw % 16, seed);
    let found = |value: Option<&u64>| (value.is_some(), value.copied().unwrap_or(0));

    let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut expected: Vec<Vec<RespBody>> = vec![Vec::new(); CONNS as usize];
    let mut flushes = 0;
    let mut rest = ops;
    while let Some(&(_, first)) = rest.first() {
        // A chunk of one to 48 requests from one connection.
        let conn = first % CONNS;
        let (chunk, later) = rest.split_at((1 + first as usize / 3 % 48).min(rest.len()));
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
            assert_eq!(
                &got.body, want,
                "conn {conn} request {id} ({stripes} stripes, seed {seed})"
            );
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
    /// atomic register — over one stripe and its one queue, and
    /// over four.
    #[test]
    fn every_reply_matches_a_sequential_per_key_register_model(
        seed in any::<u64>(),
        ops in vec((0u8..10, any::<u64>()), 300..600),
    ) {
        assert_replies_match_the_register_model(1, seed, &ops);
        assert_replies_match_the_register_model(STRIPES, seed, &ops);
    }
}

/// Connections the wire-level test runs, each over its own keys.
const CONNS: u64 = 3;

/// A deterministic per-connection op script over a keyspace disjoint
/// from every other connection's (the benchmark's discipline), so each
/// key's history is one connection's program order.
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

/// Runs the scripts concurrently, one connection each. A FLUSH writes out
/// every connection's buffered keys, so the connections meet before and
/// after theirs (the scripts flush at the same steps): what each
/// incarnation holds, and so what the incarnation tables evict, is then a
/// function of the scripts alone, whatever order the requests between two
/// flushes arrive in.
fn run_scripts<D: Device + 'static>(server: &ClamdServer<D>) -> Vec<Vec<RespBody>> {
    let addr = server.local_addr();
    let flush_round = std::sync::Barrier::new(CONNS as usize);
    std::thread::scope(|scope| {
        let flush_round = &flush_round;
        let handles: Vec<_> = (0..CONNS)
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

/// What the model says each connection's replies must be. The scripts
/// flush at the same steps and the connections meet there, so the model
/// takes the scripts a flush round at a time: every connection's
/// requests up to its next FLUSH (in any order between connections —
/// their keys are disjoint and no buffer fills between two flushes),
/// then one flush of everything (the round's other two find nothing
/// buffered).
fn model_replies(model: &mut StripedModel) -> Vec<Vec<RespBody>> {
    let found = |Expected { value, .. }| (value.is_some(), value.unwrap_or(0));
    let scripts: Vec<Vec<Op>> = (0..CONNS).map(script).collect();
    let mut replies = vec![Vec::new(); scripts.len()];
    let mut at = vec![0; scripts.len()];
    while at[0] < scripts[0].len() {
        for (conn, script) in scripts.iter().enumerate() {
            while let Some(op) = script.get(at[conn]) {
                at[conn] += 1;
                replies[conn].push(match op {
                    Op::Insert { key, value } => {
                        model.insert(*key, *value);
                        RespBody::Inserted
                    }
                    Op::Delete { key } => {
                        model.delete(*key);
                        RespBody::Deleted
                    }
                    Op::InsertBatch(pairs) => {
                        model.insert_batch(pairs);
                        RespBody::InsertedBatch { count: pairs.len() as u32 }
                    }
                    Op::LookupBatch(keys) => {
                        RespBody::Values(keys.iter().map(|&k| found(model.lookup(k))).collect())
                    }
                    Op::Lookup { key } => {
                        let (found, value) = found(model.lookup(*key));
                        RespBody::Value { found, value }
                    }
                    Op::Flush => break,
                    other => panic!("not in the scripts: {other:?}"),
                });
            }
        }
        model.flush_all();
        replies.iter_mut().for_each(|r| r.push(RespBody::Flushed));
    }
    // Nothing follows the scripts' last flush but lookups.
    replies.iter_mut().for_each(|r| assert_eq!(r.pop(), Some(RespBody::Flushed)));
    replies
}

/// A four-shard server, its led lookups included, answers
/// every connection with exactly the model's replies — INSERT, LOOKUP,
/// DELETE, batch frames and FLUSH, through evictions and slot reclaim —
/// and what a reboot recovers from its flash is what the model says is
/// durable.
#[test]
fn sharded_server_matches_the_model_over_tcp() {
    // Flash small enough that the scripts' 18 flush rounds wrap the super
    // tables' logs, so what eviction drops is compared too.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        stripes: STRIPES,
        flash_bytes: 8 << 20,
        dram_bytes: 4 << 20,
        batcher: BatcherConfig::default(),
    };
    let stripe = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
    let Striped { store, device, config: stripe } =
        striped_with(Ssd::intel(config.flash_bytes).unwrap(), stripe);
    let mut model = StripedModel::new(&stripe);
    let server = ClamdServer::start(store, Vec::new(), config).unwrap();
    assert_eq!(server.num_shards(), STRIPES);

    let streams = run_scripts(&server);
    let expected = model_replies(&mut model);
    for (conn, (got, want)) in streams.iter().zip(&expected).enumerate() {
        assert_eq!(got.len(), want.len(), "conn {conn}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g, w, "conn {conn} response {i}");
        }
    }
    // The store evicted what the model evicted, on the tables' own
    // account and by slot reclaim, and looked up each key the server
    // answered once, in a gather.
    let stats = server.clam_stats();
    let (flushes, evictions, forced) = model.ledger();
    assert!(evictions > 0 && forced > 0, "the scripts must wrap the logs: {stats}");
    assert_eq!((stats.flushes, stats.forced_evictions), (flushes, forced), "{stats}");
    assert_eq!(device.with(|d| d.stats()).trims, evictions);
    assert_eq!(stats.lookups.len() as u64, server.stats().lookups, "{stats}");

    // Reboot: everything was flushed, so the model's durable set is what
    // the incarnations hold — tombstones lost, as DESIGN.md says.
    drop(server);
    model.recover();
    let partitions = device.split(STRIPES).unwrap();
    let (recovered, _) =
        StripedClam::recover(partitions.into_iter().map(|p| (p, stripe.clone())).collect())
            .unwrap();
    for conn in 0..CONNS {
        for r in 0..90 {
            let key = hash_with_seed(conn * 10_000 + r, 7);
            let got = recovered.lookup(key).unwrap();
            assert_ne!(
                got.source,
                LookupSource::Retired,
                "conn {conn} key {r}: no flush since boot"
            );
            assert!(model.lookup(key).admits(&got), "conn {conn} key {r}: {got:?}");
        }
    }
}

/// Hammering one stripe with inserts must not starve lookups on the
/// other stripes: with per-stripe shards the readers' p99 stays bounded
/// (the bound is liveness-grade generous — the point is that readers
/// are not serialized behind the writer's stripe).
#[test]
fn insert_hammer_on_one_stripe_does_not_starve_reads_on_others() {
    let server = ephemeral_sim_server(STRIPES, 32 << 20, 8 << 20).unwrap();
    let addr = server.local_addr();

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
