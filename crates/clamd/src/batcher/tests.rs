//! Unit tests of the batcher (`batcher::tests`): the engine end to end,
//! the segment planner, and the chunk router. The shard core's decisions
//! are tested alone in `core::tests`.

use std::collections::HashMap;
use std::time::Duration;

use super::core::Planner;
use super::*;
use crate::proto::ErrorCode;
use bufferhash::{BufferHashError, ClamConfig, LookupSource};
use flashsim::{SharedDevice, Ssd};

fn clam() -> Clam<Ssd> {
    let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap()
}

fn striped(stripes: usize) -> StripedClam<Ssd> {
    StripedClam::new((0..stripes).map(|_| clam()).collect())
}

/// An engine over `stripes` stripes: as many shards.
fn engine_with(stripes: usize) -> Engine<Ssd> {
    Engine::start(striped(stripes), Vec::new(), BatcherConfig::default())
}

/// One stripe, so one shard: a STATS reply follows every earlier request
/// of its connection through the one queue.
fn engine() -> Engine<Ssd> {
    engine_with(1)
}

/// Takes every shard's stripe, and with it the lead, as a leader busy with
/// a gather holds it: what is submitted meanwhile queues behind it.
fn hold_the_leads(engine: &Engine<Ssd>) -> Vec<Stripe<Ssd>> {
    let take = |shard: &Shard<_>| shard.lock().push(Vec::new()).expect("a shard was already led");
    engine.shared.shards.iter().map(take).collect()
}

/// Runs every held shard's queue as its leader, on the stripe taken from
/// it, which its last poll takes home.
fn run_the_leads(engine: &Engine<Ssd>, stripes: Vec<Stripe<Ssd>>) {
    for (shard, stripe) in engine.shared.shards.iter().zip(stripes) {
        engine.shared.lead(shard, stripe);
    }
}

/// The sequential map a test's steps run against. A call made while
/// `fault` holds a tag takes effect, then fails with the tag: nothing is
/// promised of a failed write's effect, so this one keeps the register
/// the arrival model's.
#[derive(Default)]
pub(super) struct MapStore {
    map: HashMap<Key, Value>,
    pub(super) fault: Option<String>,
    /// Its ledger: a map's calls record nothing.
    pub(super) stats: ClamStats,
}

impl MapStore {
    fn call<T>(
        &mut self,
        effect: impl FnOnce(&mut HashMap<Key, Value>) -> T,
    ) -> bufferhash::Result<T> {
        let done = effect(&mut self.map);
        match self.fault.take() {
            Some(tag) => Err(BufferHashError::InvalidConfig(tag)),
            None => Ok(done),
        }
    }
}

impl StepStore for MapStore {
    fn insert_batch(&mut self, pairs: &[(Key, Value)]) -> bufferhash::Result<()> {
        self.call(|map| map.extend(pairs.iter().copied()))
    }

    fn lookup_batch(&mut self, keys: &[Key]) -> bufferhash::Result<Vec<Option<Value>>> {
        self.call(|map| keys.iter().map(|key| map.get(key).copied()).collect())
    }

    fn delete(&mut self, key: Key) -> bufferhash::Result<()> {
        self.call(|map| {
            map.remove(&key);
        })
    }

    fn flush_all(&mut self) -> bufferhash::Result<()> {
        self.call(|_| ())
    }

    fn stats(&self) -> &ClamStats {
        &self.stats
    }
}

/// The size of what `shared`'s shards hold their stripes as.
fn held_stripe_bytes<S>(_: &Shared<S>) -> usize {
    std::mem::size_of::<S>()
}

#[test]
fn a_lead_moves_a_pointer_to_its_stripe_not_the_stripe() {
    // `push` hands the stripe out and `poll` takes and returns it on every
    // gather: a boxed stripe moves 8 bytes, a `Clam` a kilobyte.
    let store = crate::server::boot_sim(&crate::server::ServerConfig::default()).unwrap();
    let engine = Engine::start(store, Vec::new(), BatcherConfig::default());
    assert!(std::mem::size_of::<Clam<SharedDevice<Ssd>>>() > 512);
    assert_eq!(held_stripe_bytes(&engine.shared), std::mem::size_of::<usize>());
}

#[test]
fn responses_preserve_per_connection_order() {
    let engine = engine();
    let rx = engine.register_conn(1);
    // One read's worth of inserts, then lookups one at a time.
    let inserts =
        (0..100u64).map(|i| Request { id: i, op: Op::Insert { key: i + 1, value: i * 2 } });
    engine.submit_chunk(1, inserts.collect::<Vec<_>>());
    for i in 0..100u64 {
        engine.submit(1, Request { id: 100 + i, op: Op::Lookup { key: i + 1 } });
    }
    for i in 0..100u64 {
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.id, i, "in-order acks");
        assert_eq!(resp.body, RespBody::Inserted);
    }
    for i in 0..100u64 {
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.id, 100 + i);
        assert_eq!(resp.body, RespBody::Value { found: true, value: i * 2 });
    }
    let stats = engine.stats();
    assert_eq!(stats.inserts, 100);
    assert_eq!(stats.lookups, 100);
    assert_eq!(stats.lookup_hits, 100);
    assert!(stats.batches >= 1);
    // The whole insert burst coalesced into far fewer admissions than
    // requests — that is the group commit working.
    assert!(stats.insert_admissions < 100, "100 inserts should not need 100 admissions: {stats}");
    engine.shutdown();
}

#[test]
fn batch_frames_flatten_and_split_back() {
    let engine = engine();
    let rx = engine.register_conn(7);
    engine.submit(7, Request { id: 1, op: Op::InsertBatch(vec![(1, 10), (2, 20), (3, 30)]) });
    engine.submit(7, Request { id: 2, op: Op::Insert { key: 4, value: 40 } });
    engine.submit(7, Request { id: 3, op: Op::LookupBatch(vec![1, 2, 99]) });
    engine.submit(7, Request { id: 4, op: Op::Lookup { key: 4 } });
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
        RespBody::InsertedBatch { count: 3 }
    );
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().body, RespBody::Inserted);
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
        RespBody::Values(vec![(true, 10), (true, 20), (false, 0)])
    );
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
        RespBody::Value { found: true, value: 40 }
    );
    let stats = engine.stats();
    assert_eq!(stats.inserts, 4);
    assert_eq!(stats.lookups, 4);
    assert_eq!(stats.lookup_hits, 3);
    assert_eq!(stats.lookup_misses, 1);
    engine.shutdown();
}

#[test]
fn flush_stats_and_delete_execute_in_order() {
    let engine = engine();
    let rx = engine.register_conn(1);
    engine.submit(1, Request { id: 1, op: Op::Insert { key: 5, value: 50 } });
    engine.submit(1, Request { id: 2, op: Op::Flush });
    engine.submit(1, Request { id: 3, op: Op::Delete { key: 5 } });
    engine.submit(1, Request { id: 4, op: Op::Lookup { key: 5 } });
    engine.submit(1, Request { id: 5, op: Op::Stats });
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().body, RespBody::Inserted);
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().body, RespBody::Flushed);
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().body, RespBody::Deleted);
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
        RespBody::Value { found: false, value: 0 }
    );
    let stats_resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    let RespBody::Stats { fields, text } = stats_resp.body else { panic!("expected stats body") };
    assert_eq!(fields.flushes, 1);
    assert_eq!(fields.deletes, 1);
    assert!(text.starts_with("inserts: 1 | lookups: 1 | deletes: 1 | flushes: 1 | "), "{text}");
    assert!(text.contains("\nstore: inserts: 1 (mean "), "{text}");
    engine.shutdown();
}

#[test]
fn shutdown_drains_pending_requests() {
    let engine = engine();
    let rx = engine.register_conn(1);
    for i in 0..64u64 {
        engine.submit(1, Request { id: i, op: Op::Insert { key: i + 1, value: i } });
    }
    engine.shutdown();
    for i in 0..64u64 {
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.id, i);
        assert_eq!(resp.body, RespBody::Inserted);
    }
}

#[test]
fn unregistered_connections_drop_responses_quietly() {
    let engine = engine();
    let rx = engine.register_conn(1);
    engine.unregister_conn(1);
    engine.submit(1, Request { id: 1, op: Op::Flush });
    // The batcher must not wedge on the missing connection.
    engine.submit(1, Request { id: 2, op: Op::Flush });
    assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
    engine.shutdown();
    let stats = engine.stats();
    assert_eq!(stats.connections_opened, 1);
    assert_eq!(stats.connections_closed, 1);
    assert_eq!(stats.flushes, 2, "requests for dead conns still execute");
}

#[test]
fn sharded_responses_stay_in_per_connection_order() {
    let engine = engine_with(4);
    assert_eq!(engine.num_shards(), 4);
    let rx = engine.register_conn(1);
    // Interleave writes and reads across every stripe; four shards
    // complete them out of order, the sequencer restores order.
    for i in 0..200u64 {
        engine.submit(1, Request { id: i, op: Op::Insert { key: i + 1, value: i * 3 } });
    }
    for i in 0..200u64 {
        engine.submit(1, Request { id: 200 + i, op: Op::Lookup { key: i + 1 } });
    }
    for i in 0..200u64 {
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.id, i, "in-order acks across shards");
        assert_eq!(resp.body, RespBody::Inserted);
    }
    for i in 0..200u64 {
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.id, 200 + i);
        assert_eq!(resp.body, RespBody::Value { found: true, value: i * 3 });
    }
    let stats = engine.stats();
    assert_eq!(stats.inserts, 200);
    assert_eq!(stats.lookups, 200);
    assert_eq!(stats.lookup_hits, 200);
    // Per-shard ledgers sum to the merged totals.
    let per_shard = engine.per_shard_stats();
    assert_eq!(per_shard.len(), 4);
    assert_eq!(per_shard.iter().map(|s| s.inserts).sum::<u64>(), 200);
    assert_eq!(per_shard.iter().map(|s| s.lookups).sum::<u64>(), 200);
    assert!(
        per_shard.iter().filter(|s| s.inserts > 0).count() > 1,
        "keys should spread across shards"
    );
    engine.shutdown();
}

#[test]
fn the_default_engine_runs_one_shard_per_stripe() {
    let engine = Engine::start(striped(4), Vec::new(), BatcherConfig::default());
    assert_eq!(engine.num_shards(), 4);
    let rx = engine.register_conn(1);
    let ops = (0..64u64).flat_map(|i| {
        [
            Op::Insert { key: i + 1, value: i },
            Op::Lookup { key: i / 2 + 1 },
            Op::InsertBatch(vec![(1000 + i, i), (2000 + i, i)]),
            Op::LookupBatch(vec![1000 + i, 3000 + i]),
        ]
    });
    let ops: Vec<Op> = ops.collect();
    // A twin's owned stripes take the same operations, each on the
    // stripe its keys route to.
    let mut twin = striped(4).into_stripes();
    let router = StripeRouter::new(4);
    for op in &ops {
        match op {
            Op::Insert { key, value } => {
                twin[router.stripe_of(*key)].insert(*key, *value).unwrap();
            }
            Op::Lookup { key } => drop(twin[router.stripe_of(*key)].lookup(*key).unwrap()),
            Op::InsertBatch(pairs) => {
                for (i, stripe) in twin.iter_mut().enumerate() {
                    let share: Vec<_> =
                        pairs.iter().copied().filter(|p| router.stripe_of(p.0) == i).collect();
                    if !share.is_empty() {
                        stripe.insert_batch(&share).unwrap();
                    }
                }
            }
            Op::LookupBatch(keys) => {
                for (i, stripe) in twin.iter_mut().enumerate() {
                    let share: Vec<_> =
                        keys.iter().copied().filter(|&k| router.stripe_of(k) == i).collect();
                    if !share.is_empty() {
                        drop(stripe.lookup_batch(&share).unwrap());
                    }
                }
            }
            _ => unreachable!(),
        }
    }
    engine.submit_chunk(1, chunk(ops));
    let replies = bodies(&rx, 4 * 64);
    assert!(!replies.iter().any(|body| matches!(body, RespBody::Error { .. })), "{replies:?}");
    // Shard i's ledger counts exactly what stripe i served.
    let per_shard = engine.per_shard_stats();
    assert_eq!(per_shard.len(), 4);
    for (i, shard) in per_shard.iter().enumerate() {
        let stripe = twin[i].stats();
        assert!(shard.inserts > 0, "shard {i} served no insert");
        assert_eq!(shard.inserts, stripe.inserts.len() as u64, "shard {i}");
        assert_eq!(shard.lookups, stripe.lookups.len() as u64, "shard {i}");
    }
    let stats = engine.stats();
    assert_eq!((stats.inserts, stats.lookups), (3 * 64, 3 * 64), "{stats}");
    let clam = engine.clam_stats();
    assert_eq!((clam.inserts.len(), clam.lookups.len()), (3 * 64, 3 * 64), "{clam}");
    engine.shutdown();
}

#[test]
fn batch_frames_split_across_shards_and_reassemble() {
    let engine = engine_with(4);
    let rx = engine.register_conn(3);
    let pairs: Vec<(Key, Value)> = (0..64u64).map(|i| (i * 7 + 1, i + 100)).collect();
    let keys: Vec<Key> = pairs.iter().map(|(k, _)| *k).chain([999_999_999]).collect();
    engine.submit(3, Request { id: 1, op: Op::InsertBatch(pairs.clone()) });
    engine.submit(3, Request { id: 2, op: Op::LookupBatch(keys) });
    engine.submit(3, Request { id: 3, op: Op::Flush });
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)).unwrap().body,
        RespBody::InsertedBatch { count: 64 }
    );
    let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    let RespBody::Values(values) = resp.body else { panic!("expected VALUES") };
    assert_eq!(values.len(), 65);
    for (i, (_, value)) in pairs.iter().enumerate() {
        assert_eq!(values[i], (true, *value), "slot {i} out of place");
    }
    assert_eq!(*values.last().unwrap(), (false, 0));
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().body, RespBody::Flushed);
    let stats = engine.stats();
    assert_eq!(stats.inserts, 64);
    assert_eq!(stats.lookups, 65);
    assert_eq!(stats.flushes, 1, "a FLUSH barrier counts once across its shard parts");
    engine.shutdown();
}

/// The bypass is leading an idle shard: a lookup's own push finds it
/// unled, and its reader gathers it at once.
#[test]
fn idle_shard_lookups_take_the_bypass() {
    let engine = engine_with(2);
    let rx = engine.register_conn(1);
    engine.submit(1, Request { id: 0, op: Op::Insert { key: 42, value: 4242 } });
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().body, RespBody::Inserted);
    // Each lookup after the acknowledged insert reads it, and leads its
    // shard, which its gather leaves drained.
    for id in 1..=3u64 {
        engine.submit(1, Request { id, op: Op::Lookup { key: 42 } });
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.body, RespBody::Value { found: true, value: 4242 });
        let stats = engine.stats();
        assert_eq!((stats.leads, stats.batches, stats.lookup_admissions), (1 + id, 1 + id, id));
    }
    let stats = engine.stats();
    assert_eq!((stats.lookups, stats.bypass_hits, stats.shard_depths), (3, 0, vec![0, 0]));
    engine.shutdown();
}

#[test]
fn an_idle_shard_lookup_of_a_key_only_on_flash_is_answered_on_the_bypass() {
    // A store recovered from its flash: no buffer or slot holds the key.
    let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    let mut clam = Clam::new(Ssd::intel(4 << 20).unwrap(), cfg.clone()).unwrap();
    clam.insert(42, 4242).unwrap();
    clam.flush_all().unwrap();
    let (store, reports) = StripedClam::recover(vec![(clam.into_device(), cfg)]).unwrap();
    let engine = Engine::start(store, reports, BatcherConfig::default());
    let rx = engine.register_conn(1);
    engine.submit(1, Request { id: 0, op: Op::Lookup { key: 42 } });
    let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(resp.body, RespBody::Value { found: true, value: 4242 });
    let stats = engine.stats();
    assert_eq!((stats.leads, stats.lookups, stats.bypass_hits), (1, 1, 0), "{stats}");
    assert_eq!((stats.batches, stats.segments, stats.lookup_admissions), (1, 1, 1), "{stats}");
    let clam = engine.clam_stats();
    assert_eq!(clam.lookups_by_source[LookupSource::Flash as usize], 1, "{clam}");
    engine.shutdown();
}

#[test]
fn shutdown_snapshot_reports_per_shard_depth() {
    // Busy leaders keep the submissions queued when shutdown takes its
    // snapshot; shutdown waits for them, and they still answer all.
    let engine = engine_with(4);
    let rx = engine.register_conn(1);
    let stripes = hold_the_leads(&engine);
    for i in 0..64u64 {
        engine.submit(1, Request { id: i, op: Op::Insert { key: i + 1, value: i } });
    }
    let closing = engine.clone();
    let shutdown = std::thread::spawn(move || closing.shutdown());
    while engine.shared.ledger().shard_depths.is_empty() {
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
    assert!(!shutdown.is_finished(), "shutdown returned while the shards were led");
    run_the_leads(&engine, stripes);
    shutdown.join().unwrap();
    for i in 0..64u64 {
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.id, i);
        assert_eq!(resp.body, RespBody::Inserted);
    }
    let stats = engine.stats();
    assert_eq!(stats.shard_depths.len(), 4);
    assert_eq!(
        stats.shard_depths.iter().sum::<u64>(),
        64,
        "shutdown snapshot counts queued + in-flight work: {stats}"
    );
    assert_eq!(stats.inserts, 64, "the drain still executed everything");
}

#[test]
fn flush_barrier_is_per_connection() {
    // conn 1 relies on FLUSH ordering; conn 2 hammers concurrently.
    // The barrier is only promised per connection — conn 1's own
    // writes are flushed and its responses stay in order regardless
    // of where conn 2's traffic lands.
    let engine = engine_with(4);
    let rx1 = engine.register_conn(1);
    let rx2 = engine.register_conn(2);
    for i in 0..32u64 {
        engine.submit(2, Request { id: i, op: Op::Insert { key: 1000 + i, value: i } });
    }
    engine.submit(1, Request { id: 100, op: Op::Insert { key: 7, value: 77 } });
    engine.submit(1, Request { id: 101, op: Op::Flush });
    engine.submit(1, Request { id: 102, op: Op::Lookup { key: 7 } });
    assert_eq!(rx1.recv_timeout(Duration::from_secs(5)).unwrap().body, RespBody::Inserted);
    assert_eq!(rx1.recv_timeout(Duration::from_secs(5)).unwrap().body, RespBody::Flushed);
    assert_eq!(
        rx1.recv_timeout(Duration::from_secs(5)).unwrap().body,
        RespBody::Value { found: true, value: 77 }
    );
    for _ in 0..32 {
        assert_eq!(rx2.recv_timeout(Duration::from_secs(5)).unwrap().body, RespBody::Inserted);
    }
    engine.shutdown();
}

#[test]
fn a_panic_under_a_core_or_the_conns_lock_leaves_other_connections_served() {
    for poisoned in ["shard core", "conns"] {
        let engine = engine();
        let shared = Arc::clone(&engine.shared);
        let panicked = std::thread::spawn(move || {
            let _core = (poisoned == "shard core").then(|| shared.shards[0].lock());
            let _conns = (poisoned == "conns").then(|| shared.conns());
            panic!("a thread panicked holding the {poisoned} lock");
        });
        assert!(panicked.join().is_err());
        let rx = engine.register_conn(2);
        engine.submit(2, Request { id: 0, op: Op::Insert { key: 9, value: 90 } });
        assert_eq!(bodies(&rx, 1), [RespBody::Inserted], "{poisoned}");
        engine.submit(2, Request { id: 1, op: Op::Lookup { key: 9 } });
        assert_eq!(bodies(&rx, 1), [RespBody::Value { found: true, value: 90 }], "{poisoned}");
        engine.shutdown();
    }
}

/// A stripe whose next `insert_batch`, once a hook is set, runs the hook
/// first, which may panic or block; the stripe otherwise.
struct HookedStripe {
    stripe: Stripe<Ssd>,
    hook: Option<Box<dyn FnOnce() + Send>>,
}

impl HookedStripe {
    fn new() -> Self {
        HookedStripe { stripe: Box::new(clam()), hook: None }
    }
}

impl StepStore for HookedStripe {
    fn insert_batch(&mut self, pairs: &[(Key, Value)]) -> bufferhash::Result<()> {
        if let Some(hook) = self.hook.take() {
            hook();
        }
        StepStore::insert_batch(&mut self.stripe, pairs)
    }

    fn lookup_batch(&mut self, keys: &[Key]) -> bufferhash::Result<Vec<Option<Value>>> {
        StepStore::lookup_batch(&mut self.stripe, keys)
    }

    fn delete(&mut self, key: Key) -> bufferhash::Result<()> {
        StepStore::delete(&mut self.stripe, key)
    }

    fn flush_all(&mut self) -> bufferhash::Result<()> {
        StepStore::flush_all(&mut self.stripe)
    }

    fn stats(&self) -> &ClamStats {
        self.stripe.stats()
    }
}

/// Sets the hook of `shard`'s stripe, which is home between leads.
fn hook(shared: &Shared<HookedStripe>, shard: usize, hook: impl FnOnce() + Send + 'static) {
    shared.shards[shard].lock().home.as_mut().expect("home").hook = Some(Box::new(hook));
}

/// Registers an in-process connection on `shared`, as
/// [`Engine::register_conn`] does.
fn inbox<S: StepStore>(shared: &Shared<S>, conn: u64) -> mpsc::Receiver<Response> {
    let (tx, rx) = mpsc::channel();
    shared.register(conn, Sink::Channel(tx));
    rx
}

/// The first `n` keys that route to `shard` of `shards`.
fn keys_on(shard: usize, shards: usize, n: usize) -> Vec<Key> {
    let router = StripeRouter::new(shards);
    (1..).filter(|&key| router.stripe_of(key) == shard).take(n).collect()
}

#[test]
fn a_gather_that_panics_answers_internal_and_its_shard_runs_on() {
    // Two keys of shard 0, and gathers of one, so that the second insert
    // is still queued when the first one's gather panics.
    let keys = keys_on(0, 2, 2);
    let (armed, queued) = (keys[0], keys[1]);
    let stripes = vec![HookedStripe::new(), HookedStripe::new()];
    let shared = Arc::new(Shared { max_batch: 1, ..Shared::new(stripes) });
    let (rx1, rx2) = (inbox(&shared, 1), inbox(&shared, 2));
    let found = |value| RespBody::Value { found: true, value };
    let insert_both = |value| {
        // Shard 0's next insert is the armed key's.
        hook(&shared, 0, move || panic!("an insert of key {armed} panicked"));
        let ops = vec![Op::Insert { key: armed, value }, Op::Insert { key: queued, value }];
        let leader = Arc::clone(&shared);
        // The leader catches the panic and runs on: its reader returns,
        // and the insert queued behind the panicked gather is answered.
        let led = std::thread::spawn(move || leader.submit_chunk(1, chunk(ops).into_iter()));
        assert!(led.join().is_ok(), "the panic unwound the reader that led");
        let replies = bodies(&rx1, 2);
        let RespBody::Error { code, message } = &replies[0] else { panic!("{replies:?}") };
        assert_eq!((*code, message.as_str()), (ErrorCode::Internal, "the shard's gather panicked"));
        assert_eq!(replies[1], RespBody::Inserted);
        assert_eq!(shared.shards[0].lock().depth(), 0, "the panicked gather was retired");
    };

    insert_both(1);
    shared.submit_chunk(2, chunk(vec![Op::Lookup { key: queued }]).into_iter());
    assert_eq!(bodies(&rx2, 1), [found(1)]);
    // Shutdown finds every shard drained and unled, and returns.
    insert_both(2);
    shared.shutdown();
    assert_eq!(shared.ledger().shard_depths, [0, 0]);
    // Both connections are still served on the shard.
    let ops = vec![Op::Insert { key: armed, value: 3 }, Op::Lookup { key: queued }];
    shared.submit_chunk(2, chunk(ops).into_iter());
    assert_eq!(bodies(&rx2, 2), [RespBody::Inserted, found(2)]);
    shared.submit_chunk(1, chunk(vec![Op::Lookup { key: armed }]).into_iter());
    assert_eq!(bodies(&rx1, 1), [found(3)]);
    let stats = shared.merged_stats();
    assert_eq!((stats.inserts, stats.lookups), (3, 3), "{stats}");
}

#[test]
fn stats_stay_exact_while_another_shard_is_led() {
    let stripes = vec![HookedStripe::new(), HookedStripe::new()];
    let shared = Arc::new(Shared::new(stripes));
    let rx = inbox(&shared, 1);
    let submit = |conn, ops| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || shared.submit_chunk(conn, chunk(ops).into_iter()))
    };
    let (on_0, on_1) = (keys_on(0, 2, 4), keys_on(1, 2, 5));
    let pairs = on_0.iter().chain(&on_1[..4]).map(|&key| (key, key)).collect();
    submit(1, vec![Op::InsertBatch(pairs)]).join().unwrap();
    assert_eq!(bodies(&rx, 1), [RespBody::InsertedBatch { count: 8 }]);
    // Shard 1's next leader blocks inside its insert, holding the stripe.
    let (entered, has_entered) = mpsc::channel();
    let (open, gate) = mpsc::channel();
    hook(&shared, 1, move || {
        entered.send(()).unwrap();
        gate.recv().unwrap();
    });
    let blocked = submit(2, vec![Op::Insert { key: on_1[4], value: 0 }]);
    has_entered.recv_timeout(Duration::from_secs(5)).unwrap();
    // A STATS, whose reader leads shard 0, and an in-process reader both
    // ask shard 1's leader for its ledger.
    let stats = submit(1, vec![Op::Stats]);
    let reader = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || shared.clam_stats(None))
    };
    std::thread::sleep(Duration::from_millis(50));
    assert!(rx.try_recv().is_err(), "STATS answered before shard 1's leader polled");
    assert!(!reader.is_finished(), "clam_stats returned before shard 1's leader polled");
    open.send(()).unwrap();
    // Both count the eight acknowledged inserts, and the held one, which
    // returned before the poll that lent the ledger.
    let RespBody::Stats { text, .. } = bodies(&rx, 1).remove(0) else { panic!("not STATS") };
    assert!(text.contains("\nstore: inserts: 9 (mean "), "{text}");
    assert_eq!(reader.join().unwrap().inserts.len(), 9);
    for thread in [blocked, stats] {
        thread.join().unwrap();
    }
    shared.shutdown();
}

#[test]
fn a_stats_step_reads_its_own_stripe_from_the_leaders_hand() {
    // One shard: the reader that submits leads it, and runs the STATS on
    // the stripe in its hand. Asking its own poll would never be answered.
    let engine = engine();
    let rx = engine.register_conn(1);
    let submitter = engine.clone();
    let ops = vec![Op::Insert { key: 1, value: 10 }, Op::Stats];
    std::thread::spawn(move || submitter.submit_chunk(1, chunk(ops)));
    let replies = bodies(&rx, 2);
    assert_eq!(replies[0], RespBody::Inserted);
    let RespBody::Stats { text, .. } = &replies[1] else { panic!("{:?}", replies[1]) };
    assert!(text.contains("\nstore: inserts: 1 (mean "), "{text}");
    engine.shutdown();
}

// --- the segment planner alone ---------------------------------------

fn ticket() -> Ticket {
    Ticket { conn: Arc::default(), seq: 0 }
}

pub(super) fn ins(key: Key) -> Submission {
    Submission::Insert(InsertPart { ticket: ticket(), pairs: One((key, 0)) })
}

pub(super) fn look(key: Key) -> Submission {
    Submission::Lookup(LookupPart::scalar(ticket(), key))
}

pub(super) fn del(key: Key) -> Submission {
    Submission::Delete(DeletePart { ticket: ticket(), key })
}

fn ins_slice(keys: &[Key]) -> Submission {
    let pairs = keys.iter().map(|&key| (key, 0)).collect();
    Submission::Insert(InsertPart { ticket: ticket(), pairs: Many(pairs) })
}

fn look_slice(keys: &[Key]) -> Submission {
    let slots = Many((0..keys.len()).collect());
    Submission::Lookup(LookupPart { ticket: ticket(), keys: Many(keys.to_vec()), slots })
}

fn flush() -> Submission {
    Submission::Flush(ticket())
}

/// Plans one gather; each step as (inserted keys, looked-up keys,
/// deleted keys), a FLUSH or STATS as `None`, plus the conflict count.
#[allow(clippy::type_complexity)]
fn plan(gather: Vec<Submission>) -> (Vec<Option<(Vec<Key>, Vec<Key>, Vec<Key>)>>, u64) {
    let mut planner = Planner::default();
    gather.into_iter().for_each(|submission| planner.push(submission));
    let (steps, conflicts) = planner.finish();
    let shape = |step: Step| match step {
        Step::Segment(s) => Some((
            s.inserts.iter().flat_map(|p| p.pairs.iter()).map(|p| p.0).collect(),
            s.lookups.iter().flat_map(|p| p.keys.iter()).copied().collect(),
            s.deletes.iter().map(|p| p.key).collect(),
        )),
        Step::Flush(_) | Step::Stats(_) => None,
    };
    (steps.into_iter().map(shape).collect(), conflicts)
}

#[test]
fn a_key_under_two_kinds_closes_the_segment() {
    // I(k) L(k) I(k) L(k): every request conflicts with the one before.
    let (steps, conflicts) = plan(vec![ins(7), look(7), ins(7), look(7)]);
    let segment = |i: &[Key], l: &[Key], d: &[Key]| Some((i.to_vec(), l.to_vec(), d.to_vec()));
    assert_eq!(
        steps,
        [
            segment(&[7], &[], &[]),
            segment(&[], &[7], &[]),
            segment(&[7], &[], &[]),
            segment(&[], &[7], &[])
        ]
    );
    assert_eq!(conflicts, 3);
    // D(k) I(k): inserted and deleted.
    let (steps, conflicts) = plan(vec![del(7), ins(7)]);
    assert_eq!((steps.len(), conflicts), (2, 1));
    // L(k) D(k): read and written.
    let (steps, conflicts) = plan(vec![look(7), del(7)]);
    assert_eq!((steps.len(), conflicts), (2, 1));
    // A lookup slice sharing one key with an earlier insert slice; the
    // conflict-free requests around them stay where they arrived.
    let (steps, conflicts) =
        plan(vec![look(1), ins_slice(&[2, 3, 4]), look_slice(&[5, 4, 6]), ins(8)]);
    assert_eq!(
        steps,
        [segment(&[2, 3, 4], &[1], &[]), segment(&[8], &[5, 4, 6], &[])],
        "the conflicting part opens the next segment"
    );
    assert_eq!(conflicts, 1);
    // The same key again and again under one kind is no conflict.
    let (steps, conflicts) = plan(vec![ins(7), ins(7), look(8), look(8), del(9), del(9)]);
    assert_eq!(steps, [segment(&[7, 7], &[8, 8], &[9, 9])]);
    assert_eq!(conflicts, 0);
}

#[test]
fn flush_closes_a_segment_without_counting_a_conflict() {
    let (steps, conflicts) = plan(vec![ins(1), flush(), ins(2), flush(), flush()]);
    let inserted = |key: Key| Some((vec![key], vec![], vec![]));
    assert_eq!(steps, [inserted(1), None, inserted(2), None, None]);
    assert_eq!(conflicts, 0);
}

#[test]
fn a_conflict_free_gather_is_one_segment() {
    let mut gather = Vec::new();
    for i in 0..40u64 {
        gather.push(ins(i));
        gather.push(look(100 + i));
        gather.push(ins_slice(&[200 + i, 300 + i]));
        gather.push(look_slice(&[400 + i, 100 + i]));
        gather.push(del(500 + i));
    }
    let (steps, conflicts) = plan(gather);
    assert_eq!((steps.len(), conflicts), (1, 0));
    let (inserts, lookups, deletes) = steps[0].clone().unwrap();
    assert_eq!((inserts.len(), lookups.len(), deletes.len()), (120, 120, 40));
    // Each kind keeps its arrival order.
    assert_eq!(inserts[..6], [0, 200, 300, 1, 201, 301]);
    assert_eq!(deletes[..3], [500, 501, 502]);
}

// --- segments through the engine --------------------------------------

/// One stripe, so one shard: a chunk enters the idle shard's queue under
/// one lock and is its leader's first gather.
fn one_gather_engine() -> Engine<Ssd> {
    engine_with(1)
}

fn bodies(rx: &mpsc::Receiver<Response>, n: usize) -> Vec<RespBody> {
    (0..n).map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap().body).collect()
}

fn chunk(ops: Vec<Op>) -> Vec<Request> {
    ops.into_iter().enumerate().map(|(id, op)| Request { id: id as u64, op }).collect()
}

#[test]
fn same_key_requests_in_one_gather_keep_their_arrival_order() {
    let engine = one_gather_engine();
    let rx = engine.register_conn(1);
    let found = |value| RespBody::Value { found: true, value };
    let missing = RespBody::Value { found: false, value: 0 };
    engine.submit_chunk(
        1,
        chunk(vec![
            Op::Insert { key: 7, value: 1 },
            Op::Lookup { key: 7 },
            Op::Insert { key: 7, value: 2 },
            Op::Lookup { key: 7 },
        ]),
    );
    assert_eq!(bodies(&rx, 4), [RespBody::Inserted, found(1), RespBody::Inserted, found(2)]);
    let stats = engine.stats();
    assert_eq!((stats.batches, stats.segments, stats.segment_conflicts), (1, 4, 3), "{stats}");
    assert_eq!((stats.insert_admissions, stats.lookup_admissions), (2, 2), "four store calls");

    engine.submit_chunk(
        1,
        chunk(vec![
            Op::Lookup { key: 7 },
            Op::Delete { key: 7 },
            Op::Lookup { key: 7 },
            Op::Delete { key: 7 },
            Op::Insert { key: 7, value: 3 },
            Op::LookupBatch(vec![8, 7]),
            Op::InsertBatch(vec![(8, 80), (7, 4)]),
            Op::Lookup { key: 8 },
        ]),
    );
    assert_eq!(
        bodies(&rx, 8),
        [
            found(2),
            RespBody::Deleted,
            missing.clone(),
            RespBody::Deleted,
            RespBody::Inserted,
            RespBody::Values(vec![(false, 0), (true, 3)]),
            RespBody::InsertedBatch { count: 2 },
            found(80),
        ]
    );
    engine.shutdown();
}

#[test]
fn a_conflict_free_mixed_gather_costs_two_batched_store_calls() {
    let engine = one_gather_engine();
    let rx = engine.register_conn(1);
    engine.submit(1, Request { id: 0, op: Op::InsertBatch((1..=20).map(|k| (k, k)).collect()) });
    assert_eq!(bodies(&rx, 1), [RespBody::InsertedBatch { count: 20 }]);
    let before = engine.stats();

    // 60 requests over 60 distinct keys, kinds interleaved.
    let ops: Vec<Op> = (0..15u64)
        .flat_map(|i| {
            [
                Op::Lookup { key: 1 + i },
                Op::Insert { key: 100 + i, value: i },
                Op::Delete { key: 200 + i },
                Op::LookupBatch(vec![300 + i]),
            ]
        })
        .collect();
    engine.submit_chunk(1, chunk(ops));
    let replies = bodies(&rx, 60);
    for (i, reply) in replies.chunks(4).enumerate() {
        let i = i as u64;
        assert_eq!(reply[0], RespBody::Value { found: true, value: 1 + i });
        assert_eq!(reply[1], RespBody::Inserted);
        assert_eq!(reply[2], RespBody::Deleted);
        assert_eq!(reply[3], RespBody::Values(vec![(false, 0)]));
    }
    let stats = engine.stats();
    assert_eq!(stats.batches - before.batches, 1, "{stats}");
    assert_eq!(stats.segments - before.segments, 1, "{stats}");
    assert_eq!(stats.segment_conflicts, 0, "{stats}");
    assert_eq!(stats.insert_admissions - before.insert_admissions, 1, "{stats}");
    assert_eq!(stats.lookup_admissions - before.lookup_admissions, 1, "{stats}");
    assert_eq!(stats.delete_admissions, 15, "{stats}");
    assert_eq!((stats.lookups - before.lookups, stats.deletes), (30, 15), "{stats}");
    engine.shutdown();
}

/// A shard's queue as (kind, first key, sequence number) per submission;
/// a chunk staged on a fresh connection numbers its requests from 0, as
/// their ids.
fn queued<'a>(queue: impl Iterator<Item = &'a Submission>) -> Vec<(char, Key, u64)> {
    queue
        .map(|submission| match submission {
            Submission::Insert(InsertPart { ticket, pairs }) => ('I', pairs[0].0, ticket.seq),
            Submission::Lookup(LookupPart { ticket, keys, .. }) => ('L', keys[0], ticket.seq),
            Submission::Delete(DeletePart { ticket, key }) => ('D', *key, ticket.seq),
            _ => ('?', 0, 0),
        })
        .collect()
}

/// Two unled shard cores, each with a map home.
fn map_cores() -> [ShardCore<MapStore>; 2] {
    [(); 2].map(|_| ShardCore::new(MapStore::default()))
}

/// Stages `ops` on a fresh connection over two shard cores, key k on
/// shard k % 2, and pushes each core its share as `Shared::submit_chunk`
/// does, leaving the shards unserved; returns whether each push took the
/// lead and then each shard's queue.
#[allow(clippy::type_complexity)]
fn push_and_queue(
    ops: Vec<Op>,
    cores: &mut [ShardCore<MapStore>; 2],
) -> ([bool; 2], [Vec<(char, Key, u64)>; 2]) {
    let staged = stage(&Arc::default(), chunk(ops).into_iter(), 2, |key| key as usize % 2);
    let mut leads = [false; 2];
    for ((core, staged), lead) in cores.iter_mut().zip(staged).zip(&mut leads) {
        *lead = core.push(staged).is_some();
    }
    (leads, cores.each_ref().map(|core| queued(core.queued())))
}

#[test]
fn a_lookup_behind_a_staged_write_never_takes_the_bypass() {
    // Both shards idle: each pusher leads its shard, and every lookup
    // queues with the share, none answered ahead of it.
    let ops = vec![
        Op::Lookup { key: 1 },
        Op::Insert { key: 0, value: 5 },
        // Behind the insert of its key: it must read it.
        Op::Lookup { key: 0 },
        Op::Lookup { key: 3 },
        Op::Delete { key: 3 },
        // Behind a write to another key of its shard.
        Op::Lookup { key: 1 },
    ];
    let (leads, [shard_0, shard_1]) = push_and_queue(ops, &mut map_cores());
    assert_eq!(leads, [true, true], "an idle shard's pusher leads it");
    assert_eq!(shard_0, [('I', 0, 1), ('L', 0, 2)]);
    assert_eq!(shard_1, [('L', 1, 0), ('L', 3, 3), ('D', 3, 4), ('L', 1, 5)]);
}

#[test]
fn a_declined_run_queues_ahead_of_the_writes_that_follow_it() {
    // Shard 0 is busy, a gather in flight; shard 1 is idle.
    let mut cores = map_cores();
    let stripe = cores[0].push(vec![ins(8)]).expect("shard 0's stripe");
    assert!(cores[0].poll(stripe, 1).is_some());
    let ops = vec![
        Op::Lookup { key: 0 },
        Op::Lookup { key: 1 },
        Op::Insert { key: 0, value: 5 },
        Op::Lookup { key: 2 },
        Op::Lookup { key: 3 },
        Op::Insert { key: 1, value: 6 },
    ];
    let (leads, [shard_0, shard_1]) = push_and_queue(ops, &mut cores);
    assert_eq!(leads, [false, true], "the busy shard is led; the idle one's pusher leads it");
    // The lookup of key 0 reads what was there before the chunk's insert
    // of it, so on the busy shard it queues ahead of that insert.
    assert_eq!(shard_0, [('L', 0, 0), ('I', 0, 2), ('L', 2, 3)]);
    assert_eq!(shard_1, [('L', 1, 1), ('L', 3, 4), ('I', 1, 5)]);
}

#[test]
fn a_chunk_of_lookups_is_one_store_call() {
    use bufferhash::{BASE_OP_OVERHEAD, BATCHED_OP_OVERHEAD};
    const N: u64 = 12;
    let engine = engine_with(1);
    let rx = engine.register_conn(1);
    let pairs: Vec<(Key, Value)> = (1..=N).map(|key| (key, key * 10)).collect();
    engine.submit(1, Request { id: 0, op: Op::InsertBatch(pairs.clone()) });
    assert_eq!(bodies(&rx, 1), [RespBody::InsertedBatch { count: N as u32 }]);
    // Each key's memory probe alone, on a twin that took the same batch:
    // its scalar lookup's charge less the per-op dispatch.
    let store = striped(1);
    store.insert_batch(&pairs).unwrap();
    let probes: Vec<flashsim::SimDuration> =
        pairs.iter().map(|&(key, _)| store.lookup(key).unwrap().latency).collect();
    let probes = probes.into_iter().map(|charge| charge - BASE_OP_OVERHEAD);
    let before = engine.clam_stats().lookups.total();

    engine.submit_chunk(1, chunk(pairs.iter().map(|&(key, _)| Op::Lookup { key }).collect()));
    let found = pairs.iter().map(|&(_, value)| RespBody::Value { found: true, value });
    assert_eq!(bodies(&rx, N as usize), found.collect::<Vec<_>>());
    let stats = engine.stats();
    let (batches, admissions) = (stats.batches - 1, stats.lookup_admissions);
    assert_eq!((batches, admissions, stats.lookups, stats.bypass_hits), (1, 1, N, 0), "{stats}");
    // One store call: every key pays the run's amortized dispatch.
    let dispatch = BASE_OP_OVERHEAD / N + BATCHED_OP_OVERHEAD;
    let charged = engine.clam_stats().lookups.total() - before;
    assert_eq!(charged, probes.map(|probe| dispatch + probe).sum());
    engine.shutdown();
}

#[test]
fn a_flush_that_fails_on_one_stripe_still_flushes_the_other_stripes() {
    use flashsim::CrashDevice;
    // Two stripes, so two shards: stripe 0 has lost power, stripe 1 has
    // not, and the test keeps a handle on stripe 1's device.
    let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    let ssd = || Ssd::intel(4 << 20).unwrap();
    let device_1 = SharedDevice::new(CrashDevice::new(ssd()));
    let store = StripedClam::new(vec![
        Clam::new(SharedDevice::new(CrashDevice::cut_after(ssd(), 0)), cfg.clone()).unwrap(),
        Clam::new(device_1.clone(), cfg).unwrap(),
    ]);
    let key_on = |stripe| (1..).find(|&key| store.stripe_index(key) == stripe).unwrap();
    let (on_0, on_1) = (key_on(0), key_on(1));
    let engine = Engine::start(store, Vec::new(), BatcherConfig::default());
    let rx = engine.register_conn(1);
    engine.submit_chunk(
        1,
        chunk(vec![
            Op::Insert { key: on_0, value: 1 },
            Op::Insert { key: on_1, value: 2 },
            Op::Flush,
        ]),
    );
    let replies = bodies(&rx, 3);
    assert_eq!(replies[..2], [RespBody::Inserted, RespBody::Inserted]);
    let RespBody::Error { code, message } = &replies[2] else { panic!("{:?}", replies[2]) };
    assert_eq!(*code, ErrorCode::Internal);
    assert!(message.contains("flush failed"), "{message}");
    let written = device_1.stats().writes;
    assert!(written > 0, "stripe 0's failure left stripe 1 in DRAM");
    assert_eq!(engine.stats().flushes, 0, "a failed FLUSH is not counted");
    engine.shutdown();
}

#[test]
fn unregistering_mid_gather_drops_the_responses_and_frees_the_connection() {
    // Busy leaders keep the requests queued when the connection goes, and
    // run them after.
    let engine = engine_with(4);
    let rx = engine.register_conn(1);
    let stripes = hold_the_leads(&engine);
    let entry = engine.shared.conns.lock().unwrap().get(&1).cloned().unwrap();
    let ops = (0..64u64).map(|i| Op::Insert { key: i + 1, value: i }).chain([
        Op::Flush,
        Op::LookupBatch((1..=64).collect()),
        Op::Delete { key: 1 },
    ]);
    engine.submit_chunk(1, chunk(ops.collect()));
    assert!(Arc::strong_count(&entry) > 2, "requests in flight hold the connection");
    engine.unregister_conn(1);
    assert!(matches!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)));
    run_the_leads(&engine, stripes);
    engine.shutdown();
    // Every request executed, nothing was delivered, nothing leaked.
    let stats = engine.stats();
    assert_eq!((stats.inserts, stats.lookups, stats.deletes, stats.flushes), (64, 64, 1, 1));
    assert_eq!((stats.connections_opened, stats.connections_closed), (1, 1));
    assert!(matches!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)));
    assert_eq!(Arc::strong_count(&entry), 1, "only the test still holds the connection");
}

#[test]
fn a_failed_insert_batch_fails_only_its_segments_inserts() {
    use flashsim::CrashDevice;
    // Power is cut from the start: the first flush write fails.
    let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    let buffered = cfg.num_super_tables() * cfg.entries_per_incarnation();
    let device = CrashDevice::cut_after(Ssd::intel(4 << 20).unwrap(), 0);
    let store = StripedClam::new(vec![Clam::new(device, cfg).unwrap()]);
    let engine = Engine::start(store, Vec::new(), BatcherConfig::default());
    let rx = engine.register_conn(1);
    let overflow = (0..2 * buffered as u64).map(|i| (bufferhash::hash_with_seed(i, 9), i));
    engine.submit_chunk(
        1,
        chunk(vec![
            Op::Insert { key: 2, value: 2 },
            Op::Lookup { key: 1 },
            Op::InsertBatch(overflow.collect()),
            Op::Delete { key: 3 },
        ]),
    );
    let replies = bodies(&rx, 4);
    for failed in [&replies[0], &replies[2]] {
        let RespBody::Error { code, message } = failed else { panic!("{failed:?}") };
        assert_eq!(*code, ErrorCode::Internal);
        assert!(message.contains("insert batch failed"), "{message}");
    }
    assert_eq!(replies[1], RespBody::Value { found: false, value: 0 });
    assert_eq!(replies[3], RespBody::Deleted);
    let stats = engine.stats();
    assert_eq!((stats.segments, stats.insert_admissions, stats.inserts), (1, 0, 0), "{stats}");
    assert_eq!((stats.lookup_admissions, stats.deletes), (1, 1), "{stats}");
    engine.shutdown();
}
