//! The sharded group-commit batcher: one queue per stripe, whose gathers
//! the connection readers run themselves, turning concurrent arrivals into
//! coalesced ring admissions. DESIGN.md ("The batcher") has the reasoning.
//!
//! A **shard** owns a stripe, and a request routes to the shard of its
//! key's stripe ([`StripeRouter`]). A gather takes up to `MAX_BATCH`
//! (512) queued requests and cuts them into
//! **conflict-free segments**, no key under two kinds of operation; each
//! runs as one [`Clam::insert_batch`], one [`Clam::lookup_batch`], then its
//! deletes. FLUSH and STATS run between segments.
//!
//! **The lead is the stripe.** No thread belongs to a shard, and no lock
//! guards a stripe. The shard's core (`core`), which decides and takes no
//! lock, sits in one `Mutex` with the stripe while the shard is unled. The
//! push that finds the stripe there hands it to its reader, who leads (flat
//! combining): it runs gathers on the stripe, locking the core once a step
//! to retire it, until the poll that finds the queue empty takes the stripe
//! home. Polls wake the shard's `Condvar` for shutdown and for stats
//! readers, to whom a poll lends a copy of the stripe's ledger. A step that
//! panics is caught, and its gather's parts are answered `Internal`.
//!
//! **Contract.** Each key is an atomic register, in its shard's arrival
//! order. A chunk's share for a shard queues whole, in request order.
//! Each connection gets its responses in request order, a batch frame or
//! FLUSH one response once its last shard part lands, assembled in its
//! sequencer (`conn`) and written by the thread that completes them. A
//! response goes out only after its store call returned, and
//! [`Clam::insert_batch`] returns only once the write ring is synced.

mod conn;
mod core;

use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use bufferhash::{Clam, ClamStats, Key, RecoveryReport, StripeRouter, StripedClam, Value};
use flashsim::Device;

pub(crate) use self::conn::STALL_LIMIT;
use self::conn::{Answer, ConnEntry, Sink};
use self::core::OneOrMany::{Many, One};
use self::core::{DeletePart, InsertPart, LookupPart, Segment, ShardCore, Step, Submission};
use crate::proto::{Op, Request, RespBody, Response, WireError};
use crate::stats::ServerStats;

/// The largest gather, in requests: far above what served traffic
/// gathers, so the queue, not this bound, shapes a gather.
const MAX_BATCH: usize = 512;

/// What the group-commit batcher is told: nothing it reads. Kept only
/// because the repo benchmark (`benchmark/src/store.rs`) still builds one;
/// goes when the benchmark stops.
#[derive(Debug, Clone, Default)]
pub struct BatcherConfig {
    /// Ignored: the engine runs one shard per stripe.
    pub shards: usize,
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

/// The calls a step makes, and the ledger stats readers read: the
/// shard's [`Stripe`], or a test's map.
trait StepStore {
    fn insert_batch(&mut self, pairs: &[(Key, Value)]) -> bufferhash::Result<()>;
    fn lookup_batch(&mut self, keys: &[Key]) -> bufferhash::Result<Vec<Option<Value>>>;
    fn delete(&mut self, key: Key) -> bufferhash::Result<()>;
    fn flush_all(&mut self) -> bufferhash::Result<()>;
    fn stats(&self) -> &ClamStats;
}

/// A shard's stripe, boxed once in [`Engine::start`], so the lead's every
/// hand-over (`ShardCore::push`, `ShardCore::poll`) moves a pointer.
type Stripe<D> = Box<Clam<D>>;

impl<D: Device> StepStore for Stripe<D> {
    fn insert_batch(&mut self, pairs: &[(Key, Value)]) -> bufferhash::Result<()> {
        Clam::insert_batch(self, pairs).map(drop)
    }

    fn lookup_batch(&mut self, keys: &[Key]) -> bufferhash::Result<Vec<Option<Value>>> {
        Ok(Clam::lookup_batch(self, keys)?.values())
    }

    fn delete(&mut self, key: Key) -> bufferhash::Result<()> {
        Clam::delete(self, key).map(drop)
    }

    fn flush_all(&mut self) -> bufferhash::Result<()> {
        Clam::flush_all(self).map(drop)
    }

    fn stats(&self) -> &ClamStats {
        Clam::stats(self)
    }
}

/// Executes one segment — its inserts as one `insert_batch`, its lookups
/// as one `lookup_batch`, then its deletes — hands what it served to
/// `retire`, and only then answers every part. A failed store call fails
/// the parts of its own kind only.
fn run_segment(store: &mut impl StepStore, segment: &Segment, retire: impl FnOnce(&ServerStats)) {
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
    store: &mut impl StepStore,
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

/// One batcher shard: its core, with its stripe while no thread leads it,
/// and the condvar the leader's polls wake for shutdown and stats readers.
struct Shard<S> {
    core: Mutex<ShardCore<S>>,
    polled: Condvar,
}

impl<S> Shard<S> {
    fn lock(&self) -> MutexGuard<'_, ShardCore<S>> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// State the connection readers share; any of them may lead a shard.
struct Shared<S> {
    /// Routes a key to its stripe's shard: shard `i` owns stripe `i`.
    router: StripeRouter,
    recovery: Vec<RecoveryReport>,
    /// The largest gather: [`MAX_BATCH`], or one for a test whose
    /// requests must each be a gather of their own.
    max_batch: usize,
    shards: Vec<Shard<S>>,
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
    shared: Arc<Shared<Stripe<D>>>,
}

impl<D: Device + 'static> Clone for Engine<D> {
    fn clone(&self) -> Self {
        Engine { shared: Arc::clone(&self.shared) }
    }
}

impl<D: Device + 'static> Engine<D> {
    /// Starts one shard per stripe of `store`, each owning its stripe's
    /// CLAM (a live [`StripedClam::stripe`] handle panics); no thread is
    /// started. `recovery` carries the per-stripe reports when the store
    /// was recovered from an existing flash image (empty for a fresh
    /// boot); STATS responses include them. The engine reads nothing of
    /// the [`BatcherConfig`].
    pub fn start(store: StripedClam<D>, recovery: Vec<RecoveryReport>, _: BatcherConfig) -> Self {
        let stripes = store.into_stripes().into_iter().map(Box::new).collect();
        let shared = Shared { recovery, ..Shared::new(stripes) };
        Engine { shared: Arc::new(shared) }
    }

    /// Number of batcher shards: one per stripe.
    pub fn num_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Registers an in-process connection and returns the receiver its
    /// responses arrive on, in per-connection request order, whichever
    /// shard finishes first.
    pub fn register_conn(&self, conn: u64) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        self.shared.register(conn, Sink::Channel(tx));
        rx
    }

    /// Registers a served connection: the thread that completes its next
    /// response in order writes it to `stream`, and a delivery that cannot
    /// finish within [`STALL_LIMIT`] closes the connection.
    pub(crate) fn register_socket(&self, conn: u64, stream: TcpStream) -> io::Result<()> {
        stream.set_write_timeout(Some(STALL_LIMIT))?;
        self.shared.register(conn, Sink::Socket { stream, out: Vec::new() });
        Ok(())
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

    /// Routes one decoded request to its shard(s) for group commit. A
    /// chunk of one: see [`submit_chunk`](Self::submit_chunk).
    pub fn submit(&self, conn: u64, request: Request) {
        self.submit_chunk(conn, [request]);
    }

    /// Routes a run of decoded requests from one connection — every
    /// frame one socket read returned — to their shards in one hand-off,
    /// in order within each shard, under one range of sequence numbers.
    /// Each touched shard's share queues whole; a share queued on a shard
    /// that no thread leads makes this thread its leader, which runs the
    /// shard's gathers before returning.
    pub fn submit_chunk<I>(&self, conn: u64, requests: I)
    where
        I: IntoIterator<Item = Request>,
        I::IntoIter: ExactSizeIterator,
    {
        self.shared.submit_chunk(conn, requests.into_iter());
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

    /// Counts a failed `accept` in the ledger.
    pub(crate) fn count_accept_error(&self) {
        self.shared.ledger().accept_errors += 1;
    }

    /// Counts a server thread found panicked when joined.
    pub(crate) fn count_thread_panic(&self) {
        self.shared.ledger().thread_panics += 1;
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
    pub fn clam_stats(&self) -> ClamStats {
        self.shared.clam_stats(None)
    }

    /// Per-stripe recovery reports from boot (empty for a fresh image).
    pub fn recovery_reports(&self) -> &[RecoveryReport] {
        &self.shared.recovery
    }

    /// Returns once every shard has drained its queue, so every submitted
    /// request has its response: it waits for each shard's leader to give
    /// up the lead, which a leader does only on an empty queue.
    /// Each shard's depth as shutdown finds it goes into the ledger's
    /// `shard_depths` gauge.
    pub fn shutdown(&self) {
        self.shared.shutdown();
    }

    /// Flushes every stripe's buffers to flash, each once it is home: call
    /// it after [`shutdown`](Self::shutdown), whose closing shards' polls
    /// wake the wait. A stripe whose flush fails is counted in
    /// `shutdown_flush_errors`, and the others still flush.
    pub fn flush_stripes(&self) {
        let failed = self.shared.shards.iter().filter(|shard| {
            let home = shard.polled.wait_while(shard.lock(), |core| core.home.is_none());
            let mut core = home.unwrap_or_else(PoisonError::into_inner);
            core.home.as_mut().is_some_and(|stripe| stripe.flush_all().is_err())
        });
        self.shared.ledger().shutdown_flush_errors += failed.count() as u64;
    }
}

impl<S: StepStore> Shared<S> {
    /// Shard `i` owns `stripes[i]`, keys routed as a [`StripedClam`] of as
    /// many stripes routes them. No reports.
    fn new(stripes: Vec<S>) -> Self {
        let shard =
            |stripe| Shard { core: Mutex::new(ShardCore::new(stripe)), polled: Condvar::new() };
        Shared {
            router: StripeRouter::new(stripes.len()),
            recovery: Vec::new(),
            max_batch: MAX_BATCH,
            shards: stripes.into_iter().map(shard).collect(),
            conns: Mutex::new(HashMap::new()),
            stats: Mutex::new(ServerStats::new()),
            flushes: AtomicU64::new(0),
        }
    }

    fn conns(&self) -> MutexGuard<'_, HashMap<u64, Arc<ConnEntry>>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn ledger(&self) -> MutexGuard<'_, ServerStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn register(&self, conn: u64, sink: Sink) {
        self.conns().insert(conn, ConnEntry::new(sink));
        self.ledger().connections_opened += 1;
    }

    /// [`Engine::submit_chunk`].
    fn submit_chunk(&self, conn: u64, requests: impl ExactSizeIterator<Item = Request>) {
        if requests.len() == 0 {
            return;
        }
        let conn = self.conns().get(&conn).cloned().unwrap_or_default();
        // Same key, same stripe, same shard.
        let staged = stage(&conn, requests, self.shards.len(), |key| self.router.stripe_of(key));
        for (shard, staged) in self.shards.iter().zip(staged).filter(|(_, s)| !s.is_empty()) {
            let taken = shard.lock().push(staged);
            if let Some(stripe) = taken {
                self.lead(shard, stripe);
            }
        }
    }

    /// Runs `shard`'s gathers on `stripe` as its leader, each step with no
    /// lock held, until the poll that finds the queue empty takes the
    /// stripe home; a poll wakes whoever waits on it. What arrived while a
    /// gather ran is the next gather. A step that panics is caught here:
    /// its gather is retired, every part it and the steps after it hold is
    /// answered `Internal`, and the leader polls on.
    fn lead(&self, shard: &Shard<S>, mut stripe: S) {
        loop {
            let mut core = shard.lock();
            let awaited = core.awaited();
            let polled = core.poll(stripe, self.max_batch);
            if awaited {
                shard.polled.notify_all();
            }
            let Some((held, steps)) = polled else { return };
            drop(core);
            stripe = held;
            let panicked = steps.iter().position(|step| {
                catch_unwind(AssertUnwindSafe(|| self.execute(shard, &mut stripe, step))).is_err()
            });
            if let Some(at) = panicked {
                shard.lock().abandon();
                let failed = |ticket| (ticket, Answer::Failed("the shard's gather panicked"));
                deliver(steps[at..].iter().flat_map(Step::tickets).map(failed).collect());
            }
        }
    }

    /// Executes one step of `shard`'s gather on the leader's `stripe`
    /// without the shard's lock, then takes it once to retire the step,
    /// and only then answers.
    fn execute(&self, shard: &Shard<S>, stripe: &mut S, step: &Step) {
        let retired = step.submissions();
        let retire = |served: &ServerStats| shard.lock().done(retired, served);
        match step {
            Step::Segment(segment) => run_segment(stripe, segment, retire),
            // The other shards' parts flush the other stripes.
            Step::Flush(ticket) => run_flush(stripe, ticket, &self.flushes, retire),
            Step::Stats(ticket) => {
                // Retired first: the depths it reports leave it out.
                retire(&ServerStats::new());
                self.ledger().stats_calls += 1;
                let fields = Box::new(self.merged_stats());
                let store = self.clam_stats(Some((shard, stripe)));
                let mut text = format!("{fields}\nstore: {store}");
                for (i, report) in self.recovery.iter().enumerate() {
                    text.push_str(&format!("\nstripe {i} recovery: {report}"));
                }
                deliver(vec![(ticket, Answer::Body(RespBody::Stats { fields, text }))]);
            }
        }
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

    /// Every stripe's ledger merged: read at home, or else asked of the
    /// leader, whose next poll lends a copy. `held`, a leader's own shard,
    /// is read from the stripe in its hand: its own poll would never come.
    fn clam_stats(&self, held: Option<(&Shard<S>, &S)>) -> ClamStats {
        let mut total = ClamStats::new();
        for shard in &self.shards {
            if let Some((_, stripe)) = held.filter(|(own, _)| std::ptr::eq(*own, shard)) {
                total.absorb(stripe.stats());
                continue;
            }
            let mut core = shard.lock();
            core.ask_stats();
            let lent = shard.polled.wait_while(core, |core| core.stripe_stats().is_none());
            core = lent.unwrap_or_else(PoisonError::into_inner);
            total.absorb(core.stripe_stats().expect("answered"));
        }
        total
    }

    /// [`Engine::shutdown`].
    fn shutdown(&self) {
        let depths = self.shards.iter().map(|shard| shard.lock().close());
        self.ledger().shard_depths = depths.collect();
        for shard in &self.shards {
            drop(shard.polled.wait_while(shard.lock(), |core| core.home.is_none()));
        }
    }
}

#[cfg(test)]
mod tests;
