//! Unit tests of the batcher (`batcher::tests`): the engine end to end on
//! its threads, the segment planner, and the chunk router. The shard
//! core's decisions are tested on synthetic instants in `core::tests`.

use super::core::Planner;
use super::*;
use crate::proto::ErrorCode;
use bufferhash::{Clam, ClamConfig, LookupSource};
use flashsim::Ssd;

fn striped(stripes: usize) -> StripedClam<Ssd> {
    let clam = |_| {
        let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
        Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap()
    };
    StripedClam::new((0..stripes).map(clam).collect())
}

fn lingering(linger: Duration) -> BatcherConfig {
    BatcherConfig { linger, ..BatcherConfig::default() }
}

/// An engine over `stripes` stripes: as many shards.
fn engine_with(stripes: usize, linger: Duration) -> Engine<Ssd> {
    Engine::start(striped(stripes), Vec::new(), lingering(linger))
}

/// One stripe, so one shard: a STATS reply follows every earlier request
/// of its connection through the one gather thread.
fn engine(linger: Duration) -> Engine<Ssd> {
    engine_with(1, linger)
}

#[test]
fn responses_preserve_per_connection_order() {
    let engine = engine(Duration::from_micros(200));
    let rx = engine.register_conn(1);
    for i in 0..100u64 {
        engine.submit(1, Request { id: i, op: Op::Insert { key: i + 1, value: i * 2 } });
    }
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
    let engine = engine(Duration::from_micros(100));
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
    let engine = engine(Duration::from_micros(100));
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
    let engine = engine(Duration::from_millis(10));
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
    let engine = engine(Duration::from_micros(100));
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
    let engine = engine_with(4, Duration::from_micros(200));
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
    engine.submit_chunk(1, chunk(ops.collect()));
    let replies = bodies(&rx, 4 * 64);
    assert!(!replies.iter().any(|body| matches!(body, RespBody::Error { .. })), "{replies:?}");
    // Shard i's ledger counts exactly what stripe i served.
    let per_shard = engine.per_shard_stats();
    assert_eq!(per_shard.len(), 4);
    for (i, shard) in per_shard.iter().enumerate() {
        let stripe = engine.shared.store.stripe(i).unwrap().stats();
        assert!(shard.inserts > 0, "shard {i} served no insert");
        assert_eq!(shard.inserts, stripe.inserts.len() as u64, "shard {i}");
        assert_eq!(shard.lookups, stripe.lookups.len() as u64, "shard {i}");
    }
    let stats = engine.stats();
    assert_eq!((stats.inserts, stats.lookups), (3 * 64, 3 * 64), "{stats}");
    engine.shutdown();
}

#[test]
fn a_max_batch_of_zero_still_answers_every_request() {
    let config = BatcherConfig { max_batch: 0, ..BatcherConfig::default() };
    let engine = Engine::start(striped(2), Vec::new(), config);
    let rx = engine.register_conn(1);
    let ops = vec![
        Op::Insert { key: 7, value: 70 },
        Op::Insert { key: 8, value: 80 },
        Op::Lookup { key: 7 },
    ];
    engine.submit_chunk(1, chunk(ops));
    let found = RespBody::Value { found: true, value: 70 };
    assert_eq!(bodies(&rx, 3), [RespBody::Inserted, RespBody::Inserted, found]);
    engine.shutdown();
    let stats = engine.stats();
    assert_eq!((stats.batches, stats.batch_high_water), (3, 1), "{stats}");
}

#[test]
fn batch_frames_split_across_shards_and_reassemble() {
    let engine = engine_with(4, Duration::from_micros(100));
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

#[test]
fn idle_shard_lookups_take_the_bypass() {
    let engine = engine_with(2, Duration::from_micros(50));
    let rx = engine.register_conn(1);
    engine.submit(1, Request { id: 0, op: Op::Insert { key: 42, value: 4242 } });
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().body, RespBody::Inserted);
    // The insert was retired before its ack went out, so the shard is
    // idle by the time the ack arrives and every lookup bypasses.
    for id in 1..=3u64 {
        engine.submit(1, Request { id, op: Op::Lookup { key: 42 } });
        let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(resp.body, RespBody::Value { found: true, value: 4242 });
        assert_eq!(engine.stats().bypass_hits, id);
    }
    let stats = engine.stats();
    assert_eq!((stats.batches, stats.lookups, stats.lookup_admissions), (1, 3, 0), "{stats}");
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
    let engine = Engine::start(store, reports, lingering(Duration::from_micros(50)));
    let rx = engine.register_conn(1);
    engine.submit(1, Request { id: 0, op: Op::Lookup { key: 42 } });
    let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(resp.body, RespBody::Value { found: true, value: 4242 });
    let stats = engine.stats();
    assert_eq!((stats.bypass_hits, stats.lookups), (1, 1), "{stats}");
    assert_eq!((stats.batches, stats.segments, stats.lookup_admissions), (0, 0, 0), "{stats}");
    let clam = engine.clam_stats();
    assert_eq!(clam.lookups_by_source[LookupSource::Flash as usize], 1, "{clam}");
    engine.shutdown();
}

#[test]
fn shutdown_snapshot_reports_per_shard_depth() {
    // A long linger keeps the submissions queued (or in flight) when
    // shutdown entry takes its snapshot; the drain still answers all.
    let engine = engine_with(4, Duration::from_millis(500));
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
    let engine = engine_with(4, Duration::from_micros(100));
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
        let engine = engine(Duration::from_micros(50));
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

/// One stripe, so one shard, and a linger long enough that a chunk is
/// one gather: the chunk enters the queue under one lock, so the gather
/// thread sees all of it or none of it.
fn one_gather_engine() -> Engine<Ssd> {
    engine_with(1, Duration::from_millis(20))
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

/// Stages `ops` on a fresh connection over two shard cores, key k on
/// shard k % 2, and hands each core its share as `Engine::submit_chunk`
/// does, leaving the runs that lead unserved; returns each shard's led
/// keys and then its queue.
#[allow(clippy::type_complexity)]
fn lead_and_queue(
    ops: Vec<Op>,
    cores: &mut [ShardCore; 2],
) -> [(Vec<Key>, Vec<(char, Key, u64)>); 2] {
    let staged = stage(&Arc::default(), chunk(ops).into_iter(), 2, |key| key as usize % 2);
    let mut led = [Vec::new(), Vec::new()];
    for ((core, staged), led) in cores.iter_mut().zip(staged).zip(&mut led) {
        if let Some((run, rest)) = core.lead(staged) {
            led.extend(run.lookups.iter().flat_map(|part| part.keys.iter()));
            core.push(rest);
        }
    }
    let [core_0, core_1] = cores;
    let [led_0, led_1] = led;
    [(led_0, queued(core_0.queued())), (led_1, queued(core_1.queued()))]
}

#[test]
fn a_lookup_behind_a_staged_write_never_takes_the_bypass() {
    // Both shards idle: a chunk's share leads from its front.
    let ops = vec![
        // Nothing staged for shard 1 ahead of it: the start of its run.
        Op::Lookup { key: 1 },
        Op::Insert { key: 0, value: 5 },
        // Behind the insert of its key, which the shard cannot see yet:
        // leading, it would miss.
        Op::Lookup { key: 0 },
        // Still nothing but lookups ahead of it on shard 1: the same run.
        Op::Lookup { key: 3 },
        Op::Delete { key: 3 },
        // Behind a write to another key of its shard: it never leads.
        Op::Lookup { key: 1 },
    ];
    let [shard_0, shard_1] = lead_and_queue(ops, &mut Default::default());
    assert_eq!((shard_0.0, shard_1.0), (vec![], vec![1, 3]), "one run per shard");
    assert_eq!(shard_0.1, [('I', 0, 1), ('L', 0, 2)]);
    assert_eq!(shard_1.1, [('D', 3, 4), ('L', 1, 5)]);
}

#[test]
fn a_declined_run_queues_ahead_of_the_writes_that_follow_it() {
    // Shard 0 is busy, a gather in flight; shard 1 is idle.
    let mut cores: [ShardCore; 2] = Default::default();
    cores[0].push(vec![ins(8)]);
    let config = BatcherConfig { max_batch: 1, ..BatcherConfig::default() };
    assert!(matches!(cores[0].poll(Instant::now(), &config), core::Poll::Run(_)));
    let ops = vec![
        Op::Lookup { key: 0 },
        Op::Lookup { key: 1 },
        Op::Insert { key: 0, value: 5 },
        Op::Lookup { key: 2 },
        Op::Lookup { key: 3 },
        Op::Insert { key: 1, value: 6 },
    ];
    let [shard_0, shard_1] = lead_and_queue(ops, &mut cores);
    // The lookup of key 0 reads what was there before the chunk's insert
    // of it, so on the busy shard it queues ahead of that insert.
    assert_eq!((shard_0.0, shard_1.0), (vec![], vec![1, 3]));
    assert_eq!(shard_0.1, [('L', 0, 0), ('I', 0, 2), ('L', 2, 3)]);
    assert_eq!(shard_1.1, [('I', 1, 5)]);
}

#[test]
fn a_chunk_of_idle_shard_lookups_is_one_fast_path_run() {
    use bufferhash::{BASE_OP_OVERHEAD, BATCHED_OP_OVERHEAD};
    const N: u64 = 12;
    let engine = engine_with(1, Duration::from_micros(50));
    let rx = engine.register_conn(1);
    let pairs: Vec<(Key, Value)> = (1..=N).map(|key| (key, key * 10)).collect();
    engine.submit(1, Request { id: 0, op: Op::InsertBatch(pairs.clone()) });
    assert_eq!(bodies(&rx, 1), [RespBody::InsertedBatch { count: N as u32 }]);
    // Each key's memory probe alone: its scalar lookup's charge less the
    // per-op dispatch.
    let store = &engine.shared.store;
    let probes: Vec<flashsim::SimDuration> =
        pairs.iter().map(|&(key, _)| store.lookup(key).unwrap().latency).collect();
    let probes = probes.into_iter().map(|charge| charge - BASE_OP_OVERHEAD);
    let before = engine.clam_stats().lookups.total();

    engine.submit_chunk(1, chunk(pairs.iter().map(|&(key, _)| Op::Lookup { key }).collect()));
    let found = pairs.iter().map(|&(_, value)| RespBody::Value { found: true, value });
    assert_eq!(bodies(&rx, N as usize), found.collect::<Vec<_>>());
    let stats = engine.stats();
    assert_eq!((stats.bypass_hits, stats.lookups, stats.lookup_admissions), (N, N, 0), "{stats}");
    // One store call: every key pays the run's amortized dispatch.
    let dispatch = BASE_OP_OVERHEAD / N + BATCHED_OP_OVERHEAD;
    let charged = engine.clam_stats().lookups.total() - before;
    assert_eq!(charged, probes.map(|probe| dispatch + probe).sum());
    engine.shutdown();
}

#[test]
fn a_flush_that_fails_on_one_stripe_still_flushes_the_other_stripes() {
    use flashsim::CrashDevice;
    // Two stripes, so two shards: stripe 0 has lost power, stripe 1 has not.
    let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    let ssd = || Ssd::intel(4 << 20).unwrap();
    let store = StripedClam::new(vec![
        Clam::new(CrashDevice::cut_after(ssd(), 0), cfg.clone()).unwrap(),
        Clam::new(CrashDevice::new(ssd()), cfg).unwrap(),
    ]);
    let key_on = |stripe| (1..).find(|&key| store.stripe_index(key) == stripe).unwrap();
    let (on_0, on_1) = (key_on(0), key_on(1));
    let engine = Engine::start(store, Vec::new(), lingering(Duration::from_micros(100)));
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
    let stripe_1 = engine.shared.store.stripe(1).unwrap().stats();
    assert!(stripe_1.flushes > 0, "stripe 0's failure left stripe 1 in DRAM: {stripe_1}");
    assert_eq!(engine.stats().flushes, 0, "a failed FLUSH is not counted");
    engine.shutdown();
}

#[test]
fn unregistering_mid_gather_drops_the_responses_and_frees_the_connection() {
    // The linger outlasts the test: the requests are still gathering
    // when the connection goes, and only shutdown cuts the linger.
    let engine = engine_with(4, Duration::from_secs(60));
    let rx = engine.register_conn(1);
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
    let engine = Engine::start(store, Vec::new(), lingering(Duration::from_millis(20)));
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
