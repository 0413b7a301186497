//! The sharded group-commit batcher: one gather thread per stripe that
//! turns concurrent request arrivals into coalesced ring admissions.
//!
//! A **shard** is a stripe's gather: shard `i` owns stripe `i`, and a
//! request routes to the shard of its key's stripe
//! ([`StripedClam::stripe_index`]), so a key always lands on the same
//! shard and no two shards call one stripe. A shard gathers its queue —
//! lingering up to [`BatcherConfig::linger`] while it holds fewer than
//! [`BatcherConfig::max_batch`] — and cuts the gather into
//! **conflict-free segments**, in which no key is under two kinds of
//! operation; each runs as one [`SharedClam::insert_batch`], one
//! [`SharedClam::lookup_batch`], then its deletes, on the shard's own
//! stripe. FLUSH and STATS run between segments.
//!
//! **Core and shell.** Everything a shard decides lives in its
//! `ShardCore` (`core`), which takes no lock, reads no clock and calls
//! no store. A shard is that core in one `Mutex` beside one `Condvar`;
//! its thread does what the core decides at `Instant::now()`, calls the
//! stripe with the lock released, and takes it once per step to retire
//! the step before the step's responses go out. A reader serves a run
//! that leads an idle shard the same way, on its own thread.
//!
//! **Contract.** Each key is an atomic register: operations on a key take
//! effect in the order they arrived at its shard, whichever connections
//! sent them; across keys the order is unspecified. Each connection gets
//! its responses in request order, and a batch frame or FLUSH one
//! response once its last shard part lands. The scalar `LOOKUP`s at the
//! front of a chunk's share for an idle shard lead it: the reader answers
//! them itself in one [`SharedClam::lookup_batch`] on the shard's stripe,
//! and an earlier write of any of their keys would have kept the shard
//! busy. The rest of the chunk queues once that call returns; a chunk
//! that does not lead queues whole. A response goes out only after its
//! store call returned, and [`Clam::insert_batch`] returns only once the
//! write ring is synced. DESIGN.md ("The batcher") has the reasoning.
//!
//! **Delivery.** A connection's sequencer (`conn`) is the one place a
//! response is built. Staging opens every request's response there, with
//! its form and its number of shard parts, before any part reaches a
//! shard; each part then answers into it — an ack, its lookup values or
//! its error — under that connection's lock, which is the only lock a
//! response takes. The thread whose answer completes the next response in
//! order writes it, and whatever completed behind it, to the socket in one
//! write; an in-process caller ([`Engine::register_conn`]) gets them on a
//! channel instead.
//!
//! [`StripedClam::stripe_index`]: bufferhash::StripedClam::stripe_index
//! [`SharedClam::insert_batch`]: bufferhash::SharedClam::insert_batch
//! [`SharedClam::lookup_batch`]: bufferhash::SharedClam::lookup_batch
//! [`Clam::insert_batch`]: bufferhash::Clam::insert_batch

mod conn;
mod core;

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bufferhash::{Key, RecoveryReport, SharedClam, StripedClam, Value};
use flashsim::Device;

pub(crate) use self::conn::STALL_LIMIT;
use self::conn::{Answer, ConnEntry, Sink};
use self::core::OneOrMany::{Many, One};
use self::core::{DeletePart, InsertPart, LookupPart, Poll, Segment, ShardCore, Step, Submission};
use crate::proto::{Op, Request, RespBody, Response, WireError};
use crate::stats::ServerStats;

/// Tuning knobs for the group-commit batcher.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Largest gather, in requests; a full queue fires immediately. A
    /// gather takes at least one request, so `0` gathers one at a time.
    pub max_batch: usize,
    /// How long a non-full gather lingers for concurrent arrivals.
    pub linger: Duration,
    /// Ignored: the engine runs one shard per stripe. Kept only because
    /// the repo benchmark (`benchmark/src/store.rs`) still sets it; goes
    /// when the benchmark stops setting it.
    pub shards: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig { max_batch: 512, linger: Duration::from_micros(100), shards: 0 }
    }
}

/// Where one part's answer goes: the connection as resolved when its
/// chunk was submitted (a default, sinkless one if it was not registered
/// then), and its response's place in that connection's order.
#[derive(Clone)]
struct Ticket {
    conn: Arc<ConnEntry>,
    seq: u64,
}

/// Lands answers — a segment's or one — taking each
/// connection's sequencer lock once for all of that connection's answers,
/// and writing the responses they complete to its socket in one write.
fn deliver<'a>(mut outbox: Vec<(&'a Ticket, Answer<'a>)>) {
    outbox.sort_unstable_by_key(|(ticket, _)| (Arc::as_ptr(&ticket.conn), ticket.seq));
    let mut outbox = outbox.into_iter().peekable();
    while let Some(&(first, _)) = outbox.peek() {
        let mut seq = first.conn.lock();
        let same_conn = |(next, _): &(&Ticket, _)| Arc::ptr_eq(&next.conn, &first.conn);
        while let Some((ticket, answer)) = outbox.next_if(same_conn) {
            seq.answer(ticket.seq, answer);
        }
        seq.flush();
    }
}

/// Splits one connection's chunk of requests into each shard's
/// submissions, in request order, opening each request's response in the
/// connection's sequencer, with its form and its number of shard parts,
/// before any part reaches a shard.
fn stage(
    conn: &Arc<ConnEntry>,
    requests: impl Iterator<Item = Request>,
    shards: usize,
    shard_of: impl Fn(Key) -> usize,
) -> Vec<Vec<Submission>> {
    let mut staged: Vec<Vec<Submission>> = (0..shards).map(|_| Vec::new()).collect();
    let mut seq = conn.lock();
    for Request { id, op } in requests {
        let mut open =
            |form, parts| Ticket { conn: Arc::clone(conn), seq: seq.open(id, form, parts) };
        match op {
            Op::Insert { key, value } => {
                let part =
                    InsertPart { ticket: open(RespBody::Inserted, 1), pairs: One((key, value)) };
                staged[shard_of(key)].push(Submission::Insert(part));
            }
            Op::Lookup { key } => {
                let ticket = open(RespBody::Value { found: false, value: 0 }, 1);
                staged[shard_of(key)].push(Submission::Lookup(LookupPart::scalar(ticket, key)));
            }
            Op::Delete { key } => {
                let part = DeletePart { ticket: open(RespBody::Deleted, 1), key };
                staged[shard_of(key)].push(Submission::Delete(part));
            }
            Op::Flush => {
                let ticket = open(RespBody::Flushed, shards);
                for queue in &mut staged {
                    queue.push(Submission::Flush(ticket.clone()));
                }
            }
            Op::Stats => {
                let form = RespBody::Stats { fields: Box::default(), text: String::new() };
                staged[0].push(Submission::Stats(open(form, 1)));
            }
            Op::InsertBatch(pairs) => {
                let count = pairs.len() as u32;
                let mut groups: Vec<Vec<(Key, Value)>> = vec![Vec::new(); shards];
                for (key, value) in pairs {
                    groups[shard_of(key)].push((key, value));
                }
                let parts = groups.iter().filter(|group| !group.is_empty()).count();
                let ticket = open(RespBody::InsertedBatch { count }, parts);
                for (queue, pairs) in staged.iter_mut().zip(groups) {
                    if !pairs.is_empty() {
                        let part = InsertPart { ticket: ticket.clone(), pairs: Many(pairs) };
                        queue.push(Submission::Insert(part));
                    }
                }
            }
            Op::LookupBatch(keys) => {
                let mut groups: Vec<(Vec<Key>, Vec<usize>)> =
                    vec![(Vec::new(), Vec::new()); shards];
                for (slot, &key) in keys.iter().enumerate() {
                    let group = &mut groups[shard_of(key)];
                    group.0.push(key);
                    group.1.push(slot);
                }
                let parts = groups.iter().filter(|group| !group.0.is_empty()).count();
                let ticket = open(RespBody::Values(vec![(false, 0); keys.len()]), parts);
                for (queue, (keys, slots)) in staged.iter_mut().zip(groups) {
                    if !keys.is_empty() {
                        let ticket = ticket.clone();
                        let part = LookupPart { ticket, keys: Many(keys), slots: Many(slots) };
                        queue.push(Submission::Lookup(part));
                    }
                }
            }
        }
    }
    // An empty batch frame opens complete: it goes out now if it is next.
    seq.flush();
    staged
}

/// The store calls a step makes: the shard's stripe, or a test's map.
trait StepStore {
    fn insert_batch(&self, pairs: &[(Key, Value)]) -> bufferhash::Result<()>;
    fn lookup_batch(&self, keys: &[Key]) -> bufferhash::Result<Vec<Option<Value>>>;
    fn delete(&self, key: Key) -> bufferhash::Result<()>;
    fn flush_all(&self) -> bufferhash::Result<()>;
}

impl<D: Device> StepStore for SharedClam<D> {
    fn insert_batch(&self, pairs: &[(Key, Value)]) -> bufferhash::Result<()> {
        SharedClam::insert_batch(self, pairs).map(drop)
    }

    fn lookup_batch(&self, keys: &[Key]) -> bufferhash::Result<Vec<Option<Value>>> {
        Ok(SharedClam::lookup_batch(self, keys)?.values())
    }

    fn delete(&self, key: Key) -> bufferhash::Result<()> {
        SharedClam::delete(self, key)
    }

    fn flush_all(&self) -> bufferhash::Result<()> {
        SharedClam::flush_all(self).map(drop)
    }
}

/// Executes one segment — its inserts as one `insert_batch`, its lookups
/// as one `lookup_batch`, then its deletes — hands what it served to
/// `retire`, and only then answers every part. A failed store call fails
/// the parts of its own kind only.
fn run_segment(store: &impl StepStore, segment: &Segment, retire: impl FnOnce(&ServerStats)) {
    let Segment { inserts, lookups, deletes } = segment;
    let mut served = ServerStats::new();
    served.segments += 1;
    let mut inserted = Ok(());
    if !inserts.is_empty() {
        let pairs: Vec<(Key, Value)> =
            inserts.iter().flat_map(|part| part.pairs.iter()).copied().collect();
        inserted = store.insert_batch(&pairs).map_err(|e| format!("insert batch failed: {e}"));
        if inserted.is_ok() {
            served.inserts += pairs.len() as u64;
            served.insert_admissions += 1;
        }
    }
    // One value per key, in key order — or none at all, with the error.
    let mut found = Ok(Vec::new());
    if !lookups.is_empty() {
        let keys: Vec<Key> = lookups.iter().flat_map(|part| part.keys.iter()).copied().collect();
        found = match store.lookup_batch(&keys) {
            Ok(values) if values.len() == keys.len() => Ok(values),
            Ok(_) => Err("lookup batch lost an outcome".to_string()),
            Err(e) => Err(format!("lookup batch failed: {e}")),
        };
        if let Ok(values) = &found {
            let hits = values.iter().filter(|value| value.is_some()).count() as u64;
            served.lookups += keys.len() as u64;
            served.lookup_hits += hits;
            served.lookup_misses += keys.len() as u64 - hits;
            served.lookup_admissions += 1;
        }
    }
    let deleted: Vec<Result<(), String>> = deletes
        .iter()
        .map(|part| store.delete(part.key).map_err(|e| format!("delete failed: {e}")))
        .collect();
    let removed = deleted.iter().filter(|done| done.is_ok()).count() as u64;
    (served.deletes, served.delete_admissions) = (removed, removed);
    retire(&served);
    let mut outbox = Vec::with_capacity(inserts.len() + lookups.len() + deletes.len());
    outbox.extend(inserts.iter().map(|part| (&part.ticket, Answer::from(&inserted))));
    let mut at = 0;
    for part in lookups {
        let answer = match &found {
            Ok(values) => {
                Answer::Found { slots: &part.slots, values: &values[at..][..part.keys.len()] }
            }
            Err(message) => Answer::Failed(message),
        };
        at += part.keys.len();
        outbox.push((&part.ticket, answer));
    }
    outbox.extend(deletes.iter().zip(&deleted).map(|(part, done)| (&part.ticket, done.into())));
    deliver(outbox);
}

/// Executes one shard's part of a FLUSH, its stripe's `flush_all`, hands
/// the step to `retire`, then answers. The part that completes the FLUSH
/// without error counts it in `flushes`, under the sequencer lock, before
/// the response can go out.
fn run_flush(
    store: &impl StepStore,
    ticket: &Ticket,
    flushes: &AtomicU64,
    retire: impl FnOnce(&ServerStats),
) {
    let flushed = store.flush_all().map_err(|e| format!("flush failed: {e}"));
    retire(&ServerStats::new());
    let mut seq = ticket.conn.lock();
    if seq.answer(ticket.seq, Answer::from(&flushed)) {
        flushes.fetch_add(1, Ordering::Relaxed);
    }
    seq.flush();
}

/// One batcher shard: its core, the condvar its gather thread — the
/// only waiter — sleeps on, and the stripe it owns.
struct Shard<D: Device> {
    core: Mutex<ShardCore>,
    wake: Condvar,
    stripe: SharedClam<D>,
}

impl<D: Device> Shard<D> {
    fn new(stripe: SharedClam<D>) -> Self {
        Shard { core: Mutex::default(), wake: Condvar::new(), stripe }
    }

    fn lock(&self) -> MutexGuard<'_, ShardCore> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// State shared between connection threads and the shard gather threads.
struct Shared<D: Device + 'static> {
    /// The served store: it routes keys to stripes and merges their
    /// ledgers; each shard calls its own stripe.
    store: StripedClam<D>,
    recovery: Vec<RecoveryReport>,
    config: BatcherConfig,
    /// Shard `i` owns stripe `i`.
    shards: Vec<Shard<D>>,
    conns: Mutex<HashMap<u64, Arc<ConnEntry>>>,
    /// Process-wide counters and the shutdown-time depth snapshot; what
    /// requests count lives in the shard cores' ledgers.
    stats: Mutex<ServerStats>,
    /// FLUSHes completed without error: counted by the part that completes
    /// one, under its connection's sequencer lock and no other.
    flushes: AtomicU64,
}

/// A cloneable handle to the batcher engine.
pub struct Engine<D: Device + 'static> {
    shared: Arc<Shared<D>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl<D: Device + 'static> Clone for Engine<D> {
    fn clone(&self) -> Self {
        Engine { shared: Arc::clone(&self.shared), workers: Arc::clone(&self.workers) }
    }
}

impl<D: Device + 'static> Engine<D> {
    /// Starts one shard, with its gather thread, per stripe of `store`.
    /// `recovery` carries the per-stripe reports when the store was
    /// recovered from an existing flash image (empty for a fresh boot);
    /// STATS responses include them.
    pub fn start(
        store: StripedClam<D>,
        recovery: Vec<RecoveryReport>,
        config: BatcherConfig,
    ) -> Self {
        let shards =
            (0..store.num_stripes()).filter_map(|i| store.stripe(i)).map(Shard::new).collect();
        let shared = Arc::new(Shared {
            store,
            recovery,
            config,
            shards,
            conns: Mutex::new(HashMap::new()),
            stats: Mutex::new(ServerStats::new()),
            flushes: AtomicU64::new(0),
        });
        let workers = (0..shared.shards.len())
            .map(|i| {
                let worker_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clamd-batcher-{i}"))
                    .spawn(move || shard_loop(&worker_shared, i))
                    .expect("spawn batcher shard thread")
            })
            .collect();
        Engine { shared, workers: Arc::new(Mutex::new(workers)) }
    }

    /// Number of batcher shards running: one per stripe.
    pub fn num_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Registers an in-process connection and returns the receiver its
    /// responses arrive on, in per-connection request order, whichever
    /// shard finishes first.
    pub fn register_conn(&self, conn: u64) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        self.register(conn, Sink::Channel(tx));
        rx
    }

    /// Registers a served connection: the thread that completes its next
    /// response in order writes it to `stream`, and a delivery that cannot
    /// finish within [`STALL_LIMIT`] closes the connection.
    pub(crate) fn register_socket(&self, conn: u64, stream: TcpStream) -> io::Result<()> {
        stream.set_write_timeout(Some(STALL_LIMIT))?;
        self.register(conn, Sink::Socket { stream, out: Vec::new() });
        Ok(())
    }

    fn register(&self, conn: u64, sink: Sink) {
        self.shared.conns().insert(conn, ConnEntry::new(sink));
        self.shared.ledger().connections_opened += 1;
    }

    /// Unregisters a connection and closes it — a socket is shut down,
    /// a channel disconnects once its receiver has drained what was
    /// already delivered — and the responses of requests still in flight
    /// are dropped when they complete.
    pub fn unregister_conn(&self, conn: u64) {
        let entry = self.shared.conns().remove(&conn);
        if let Some(entry) = entry {
            let stalled = entry.close();
            let mut ledger = self.shared.ledger();
            ledger.connections_closed += 1;
            ledger.connections_stalled += u64::from(stalled);
        }
    }

    /// Ends a served connection's requests — its client half-closed, or
    /// its reader stopped — and blocks until the responses already
    /// submitted have been written and the connection has closed, or it
    /// closed sooner: a failed or stalled write, or teardown.
    pub(crate) fn await_last_response(&self, conn: u64) {
        let entry = self.shared.conns().get(&conn).cloned();
        if let Some(entry) = entry {
            entry.await_last_response();
        }
    }

    /// Unregisters every connection (server teardown).
    pub fn unregister_all(&self) {
        let conns: Vec<u64> = self.shared.conns().keys().copied().collect();
        for conn in conns {
            self.unregister_conn(conn);
        }
    }

    /// Routes one decoded request to its shard(s) for group commit, or
    /// serves it at once if it leads an idle shard. A chunk of one: see
    /// [`submit_chunk`](Self::submit_chunk).
    pub fn submit(&self, conn: u64, request: Request) {
        self.submit_chunk(conn, [request]);
    }

    /// Routes a run of decoded requests from one connection — every
    /// frame one socket read returned — to their shards in one hand-off,
    /// in order within each shard, under one range of sequence numbers.
    /// Each touched shard's core decides whether the chunk leads it
    /// (`ShardCore::lead`); a run that leads is served here, with no lock
    /// held.
    pub fn submit_chunk<I>(&self, conn: u64, requests: I)
    where
        I: IntoIterator<Item = Request>,
        I::IntoIter: ExactSizeIterator,
    {
        let requests = requests.into_iter();
        if requests.len() == 0 {
            return;
        }
        let shared = &*self.shared;
        let conn = shared.conns().get(&conn).cloned().unwrap_or_default();
        // Same key, same stripe, same shard.
        let shard_of = |key| shared.store.stripe_index(key);
        let staged = stage(&conn, requests, shared.shards.len(), shard_of);
        let mut held = Vec::new();
        for (shard, staged) in shared.shards.iter().zip(staged).filter(|(_, s)| !s.is_empty()) {
            let led = shard.lock().lead(staged);
            let Some((run, rest)) = led else {
                shard.wake.notify_one();
                continue;
            };
            if !run.lookups.is_empty() {
                run_segment(&shard.stripe, &run, |served| shard.lock().count_led(served));
            }
            held.push((shard, rest));
        }
        // Idle shards' shares queue once every led run is answered: queued
        // as each run returned, they cut the share of lookups that led on
        // `serve-read-resident` from 0.675 to 0.653.
        for (shard, rest) in held.into_iter().filter(|(_, rest)| !rest.is_empty()) {
            shard.lock().push(rest);
            shard.wake.notify_one();
        }
    }

    /// Answers a protocol violation on `conn`: counts it, and sends the
    /// ERROR frame for `wire`, under request id `id`, as the connection's
    /// next response, after the responses of the frames ahead of the
    /// violation. Once it has gone out the connection closes.
    pub fn reject(&self, conn: u64, id: u64, wire: &WireError) {
        self.shared.ledger().wire_errors += 1;
        let entry = self.shared.conns().get(&conn).cloned();
        if let Some(entry) = entry {
            let body = RespBody::Error { code: wire.code(), message: wire.to_string() };
            entry.lock().finish(Response { id, body });
        }
    }

    /// Snapshot of the server ledger: the process-wide counters with
    /// every shard's gather ledger folded in.
    pub fn stats(&self) -> ServerStats {
        self.shared.merged_stats()
    }

    /// Each shard's own gather ledger, in shard order — the unmerged
    /// view the smoke harness sums and cross-checks.
    pub fn per_shard_stats(&self) -> Vec<ServerStats> {
        self.shared.shards.iter().map(|shard| shard.lock().stats.clone()).collect()
    }

    /// Aggregated store statistics across all stripes.
    pub fn clam_stats(&self) -> bufferhash::ClamStats {
        self.shared.store.stats()
    }

    /// Per-stripe recovery reports from boot (empty for a fresh image).
    pub fn recovery_reports(&self) -> &[RecoveryReport] {
        &self.shared.recovery
    }

    /// Stops the batcher once every shard has drained its queue, so every
    /// submitted request still gets its response. Each shard's depth as
    /// it is closed goes into the ledger's `shard_depths` gauge.
    pub fn shutdown(&self) {
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        if workers.is_empty() {
            return;
        }
        let depths = self.shared.shards.iter().map(|shard| {
            let depth = shard.lock().close();
            shard.wake.notify_one();
            depth
        });
        self.shared.ledger().shard_depths = depths.collect();
        for worker in workers.drain(..) {
            worker.join().expect("batcher shard thread panicked");
        }
    }

    /// Flushes every stripe's buffers to flash. A stripe whose flush
    /// fails is counted in `shutdown_flush_errors`, and the others still
    /// flush.
    pub fn flush_stripes(&self) {
        let shards = self.shared.shards.iter();
        let failed = shards.filter(|shard| shard.stripe.flush_all().is_err()).count();
        self.shared.ledger().shutdown_flush_errors += failed as u64;
    }
}

impl<D: Device + 'static> Shared<D> {
    fn conns(&self) -> MutexGuard<'_, HashMap<u64, Arc<ConnEntry>>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn ledger(&self) -> MutexGuard<'_, ServerStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The merged ledger a STATS request reports: process-wide counters
    /// plus every shard's gather ledger, with a live per-shard depth
    /// snapshot unless shutdown already captured one.
    fn merged_stats(&self) -> ServerStats {
        let mut merged = self.ledger().clone();
        merged.flushes += self.flushes.load(Ordering::Relaxed);
        let mut depths = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let core = shard.lock();
            merged.absorb(&core.stats);
            depths.push(core.depth());
        }
        if merged.shard_depths.is_empty() {
            merged.shard_depths = depths;
        }
        merged
    }

    /// Executes one step of shard `idx`'s gather on its stripe without
    /// the shard's lock, then takes it once to retire the step, and only
    /// then answers.
    fn execute(&self, idx: usize, step: Step) {
        let shard = &self.shards[idx];
        let retired = step.submissions();
        let retire = |served: &ServerStats| shard.lock().done(retired, served);
        match step {
            Step::Segment(segment) => run_segment(&shard.stripe, &segment, retire),
            // The other shards' parts flush the other stripes.
            Step::Flush(ticket) => run_flush(&shard.stripe, &ticket, &self.flushes, retire),
            Step::Stats(ticket) => {
                // Retired first: the depths it reports leave it out.
                retire(&ServerStats::new());
                self.ledger().stats_calls += 1;
                let fields = Box::new(self.merged_stats());
                let mut text = format!("{fields}\nstore: {}", self.store.stats());
                for (i, report) in self.recovery.iter().enumerate() {
                    text.push_str(&format!("\nstripe {i} recovery: {report}"));
                }
                deliver(vec![(&ticket, Answer::Body(RespBody::Stats { fields, text }))]);
            }
        }
    }
}

/// A shard's gather thread: does what the core decides at the current
/// instant until it says to exit.
fn shard_loop<D: Device + 'static>(shared: &Shared<D>, idx: usize) {
    let shard = &shared.shards[idx];
    let mut core = shard.lock();
    loop {
        core = match core.poll(Instant::now(), &shared.config) {
            Poll::Sleep => shard.wake.wait(core).unwrap_or_else(PoisonError::into_inner),
            Poll::SleepUntil(deadline) => {
                let linger = deadline.saturating_duration_since(Instant::now());
                shard.wake.wait_timeout(core, linger).unwrap_or_else(PoisonError::into_inner).0
            }
            Poll::Run(steps) => {
                drop(core);
                for step in steps {
                    shared.execute(idx, step);
                }
                shard.lock()
            }
            Poll::Exit => return,
        };
    }
}

#[cfg(test)]
mod tests;
