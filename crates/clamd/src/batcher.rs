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
//! the step before the step's responses go out.
//!
//! **Contract.** Each key is an atomic register: operations on a key take
//! effect in the order they arrived at its shard, whichever connections
//! sent them; across keys the order is unspecified. Each connection gets
//! its responses in request order, and a batch frame or FLUSH one
//! response once its last shard part lands. The scalar `LOOKUP`s of one
//! chunk with nothing staged for their shard ahead of them form that
//! shard's bypass run; if the shard is idle, the reader answers the run
//! itself in one [`SharedClam::lookup_batch`] on the shard's stripe, and
//! an earlier write of any of its keys would have kept the shard busy. A
//! run the shard was busy for, or whose store call failed, queues ahead
//! of the shard's other submissions from the chunk. A response goes
//! out only after its store call returned, and [`Clam::insert_batch`]
//! returns only once the write ring is reaped. DESIGN.md ("Group-commit
//! batcher") has the reasoning.
//!
//! **Delivery.** A connection's sequencer (`conn`) puts its responses
//! back in request order and writes them to its socket on the thread that
//! completes the next one in order, one write per delivery; an in-process
//! caller ([`Engine::register_conn`]) gets them on a channel instead.
//!
//! [`StripedClam::stripe_index`]: bufferhash::StripedClam::stripe_index
//! [`SharedClam::insert_batch`]: bufferhash::SharedClam::insert_batch
//! [`SharedClam::lookup_batch`]: bufferhash::SharedClam::lookup_batch
//! [`Clam::insert_batch`]: bufferhash::Clam::insert_batch

mod conn;
mod core;

use std::borrow::Borrow;
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bufferhash::{Key, RecoveryReport, SharedClam, StripedClam, Value};
use flashsim::Device;

pub(crate) use self::conn::STALL_LIMIT;
use self::conn::{ConnEntry, Sink};
use self::core::{DeletePart, InsertPart, LookupPart, Poll, Segment, ShardCore, Step, Submission};
use crate::proto::{ErrorCode, Op, Request, RespBody, Response, WireError};
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

/// Where one response goes: the connection as resolved when its chunk
/// was submitted (`None`: not registered then, the response is dropped),
/// its place in that connection's delivery order, and the request id to
/// answer under.
struct Ticket {
    conn: Option<Arc<ConnEntry>>,
    seq: u64,
    id: u64,
}

/// Delivers responses — a segment's, a bypass run's or one — taking each
/// connection's sequencer lock once for all of that connection's
/// responses, in sequence order so that none parks behind another of the
/// same call, and writing them to its socket in one write.
fn deliver<T: Borrow<Ticket>>(mut outbox: Vec<(T, RespBody)>) {
    let conn_of = |ticket: &Ticket| ticket.conn.as_ref().map(Arc::as_ptr);
    outbox.sort_unstable_by_key(|(ticket, _)| (conn_of(ticket.borrow()), ticket.borrow().seq));
    let mut outbox = outbox.into_iter().peekable();
    while let Some((ticket, body)) = outbox.next() {
        let ticket = ticket.borrow();
        let Some(conn) = &ticket.conn else { continue };
        let mut seq = conn.lock();
        seq.deliver(ticket.seq, Response { id: ticket.id, body });
        while let Some((next, body)) =
            outbox.next_if(|(next, _)| conn_of(next.borrow()) == conn_of(ticket))
        {
            let next = next.borrow();
            seq.deliver(next.seq, Response { id: next.id, body });
        }
        seq.flush();
    }
}

/// What remains of a multi-shard request (batch frame or FLUSH) — the
/// response is built when the last shard part lands.
struct Pending {
    ticket: Ticket,
    state: Mutex<AssemblyState>,
}

struct AssemblyState {
    /// Shard parts still outstanding.
    remaining: usize,
    kind: AssemblyKind,
    /// First error across parts wins; the response becomes an Error.
    error: Option<String>,
}

enum AssemblyKind {
    /// `INSERT_BATCH`: the acknowledged op count.
    Insert { count: u32 },
    /// `LOOKUP_BATCH`: one slot per requested key, in request order.
    Lookup { slots: Vec<Option<(bool, Value)>> },
    /// `FLUSH` barrier across every shard.
    Flush,
}

impl Pending {
    fn new(ticket: Ticket, parts: usize, kind: AssemblyKind) -> Arc<Self> {
        let state = Mutex::new(AssemblyState { remaining: parts, kind, error: None });
        Arc::new(Pending { ticket, state })
    }

    /// Counts one finished shard part, recording the lookup values it
    /// `found` (request slot, outcome) or its error; returns the response
    /// body when it was the last part (first recorded error wins).
    fn land(
        &self,
        found: impl Iterator<Item = (usize, (bool, Value))>,
        error: Option<String>,
    ) -> Option<RespBody> {
        let mut state = self.state.lock().expect("assembly lock");
        if let Some(error) = error {
            state.error.get_or_insert(error);
        }
        for (slot, value) in found {
            match &mut state.kind {
                AssemblyKind::Lookup { slots } if slot < slots.len() => slots[slot] = Some(value),
                _ => {
                    state.error.get_or_insert("lookup part landed outside its assembly".into());
                }
            }
        }
        state.remaining = state.remaining.saturating_sub(1);
        if state.remaining > 0 {
            return None;
        }
        Some(match state.error.take() {
            Some(message) => internal_error(message),
            None => match &state.kind {
                AssemblyKind::Insert { count } => RespBody::InsertedBatch { count: *count },
                AssemblyKind::Lookup { slots } => {
                    RespBody::Values(slots.iter().map(|slot| slot.unwrap_or((false, 0))).collect())
                }
                AssemblyKind::Flush => RespBody::Flushed,
            },
        })
    }
}

/// Splits one connection's chunk of requests into each shard's
/// submissions, in request order, numbered from the connection's next
/// sequence number. A scalar lookup with nothing earlier in the chunk
/// staged for its shard — no write its shard cannot see yet — joins the
/// shard's bypass run instead, which is offered to `bypass` as one call
/// that answers every key's value or declines the run (`None`); a
/// declined run is staged ahead of the shard's other submissions.
fn stage(
    conn: Option<Arc<ConnEntry>>,
    requests: impl ExactSizeIterator<Item = Request>,
    shards: usize,
    shard_of: impl Fn(Key) -> usize,
    mut bypass: impl FnMut(usize, &[Key]) -> Option<Vec<Option<Value>>>,
) -> Vec<Vec<Submission>> {
    // Unregistered connections have no delivery order to keep.
    let first_seq = conn.as_ref().map_or(0, |conn| {
        let mut seq = conn.lock();
        let first = seq.next_submit;
        seq.next_submit += requests.len() as u64;
        first
    });
    let mut staged: Vec<Vec<Submission>> = (0..shards).map(|_| Vec::new()).collect();
    // Each shard's bypass run: its tickets and its keys, in chunk order.
    let mut runs: Vec<(Vec<Ticket>, Vec<Key>)> = (0..shards).map(|_| Default::default()).collect();
    for (seq, Request { id, op }) in (first_seq..).zip(requests) {
        let ticket = Ticket { conn: conn.clone(), seq, id };
        match op {
            Op::Insert { key, value } => {
                let part = InsertPart::Scalar { ticket, pair: (key, value) };
                staged[shard_of(key)].push(Submission::Insert(part));
            }
            Op::Lookup { key } => {
                let shard = shard_of(key);
                if staged[shard].is_empty() {
                    runs[shard].0.push(ticket);
                    runs[shard].1.push(key);
                } else {
                    let part = LookupPart::Scalar { ticket, key };
                    staged[shard].push(Submission::Lookup(part));
                }
            }
            Op::Delete { key } => {
                let part = DeletePart { ticket, key };
                staged[shard_of(key)].push(Submission::Delete(part));
            }
            Op::Flush => {
                let assembly = Pending::new(ticket, shards, AssemblyKind::Flush);
                for queue in &mut staged {
                    queue.push(Submission::Flush(Arc::clone(&assembly)));
                }
            }
            Op::Stats => staged[0].push(Submission::Stats(ticket)),
            Op::InsertBatch(pairs) if pairs.is_empty() => {
                deliver(vec![(ticket, RespBody::InsertedBatch { count: 0 })]);
            }
            Op::InsertBatch(pairs) => {
                let count = pairs.len() as u32;
                let mut groups: Vec<Vec<(Key, Value)>> = vec![Vec::new(); shards];
                for (key, value) in pairs {
                    groups[shard_of(key)].push((key, value));
                }
                let touched = groups.iter().filter(|group| !group.is_empty()).count();
                let assembly = Pending::new(ticket, touched, AssemblyKind::Insert { count });
                for (queue, pairs) in staged.iter_mut().zip(groups) {
                    if !pairs.is_empty() {
                        let assembly = Arc::clone(&assembly);
                        queue.push(Submission::Insert(InsertPart::Slice { assembly, pairs }));
                    }
                }
            }
            Op::LookupBatch(keys) if keys.is_empty() => {
                deliver(vec![(ticket, RespBody::Values(Vec::new()))]);
            }
            Op::LookupBatch(keys) => {
                let mut groups: Vec<(Vec<Key>, Vec<usize>)> =
                    vec![(Vec::new(), Vec::new()); shards];
                for (slot, &key) in keys.iter().enumerate() {
                    let group = &mut groups[shard_of(key)];
                    group.0.push(key);
                    group.1.push(slot);
                }
                let touched = groups.iter().filter(|group| !group.0.is_empty()).count();
                let kind = AssemblyKind::Lookup { slots: vec![None; keys.len()] };
                let assembly = Pending::new(ticket, touched, kind);
                for (queue, (keys, slots)) in staged.iter_mut().zip(groups) {
                    if !keys.is_empty() {
                        let assembly = Arc::clone(&assembly);
                        let part = LookupPart::Slice { assembly, keys, slots };
                        queue.push(Submission::Lookup(part));
                    }
                }
            }
        }
    }
    // Each shard's run is offered once; a declined run goes ahead of the
    // shard's other submissions, all of which arrived after it.
    let mut answered = Vec::new();
    for (shard, (queue, (tickets, keys))) in staged.iter_mut().zip(runs).enumerate() {
        if keys.is_empty() {
            continue;
        }
        match bypass(shard, &keys) {
            Some(values) => {
                answered.extend(tickets.into_iter().zip(values).map(|(ticket, value)| {
                    (ticket, RespBody::Value { found: value.is_some(), value: value.unwrap_or(0) })
                }))
            }
            None => {
                let declined = tickets.into_iter().zip(keys);
                let declined = declined
                    .map(|(ticket, key)| Submission::Lookup(LookupPart::Scalar { ticket, key }));
                queue.splice(..0, declined);
            }
        }
    }
    deliver(answered);
    staged
}

/// The store calls a segment makes: the shard's stripe, or a test's map.
trait SegmentStore {
    fn insert_batch(&self, pairs: &[(Key, Value)]) -> bufferhash::Result<()>;
    fn lookup_batch(&self, keys: &[Key]) -> bufferhash::Result<Vec<Option<Value>>>;
    fn delete(&self, key: Key) -> bufferhash::Result<()>;
}

impl<D: Device> SegmentStore for SharedClam<D> {
    fn insert_batch(&self, pairs: &[(Key, Value)]) -> bufferhash::Result<()> {
        SharedClam::insert_batch(self, pairs).map(drop)
    }

    fn lookup_batch(&self, keys: &[Key]) -> bufferhash::Result<Vec<Option<Value>>> {
        Ok(SharedClam::lookup_batch(self, keys)?.values())
    }

    fn delete(&self, key: Key) -> bufferhash::Result<()> {
        SharedClam::delete(self, key)
    }
}

/// Executes one segment — its inserts as one `insert_batch`, its lookups
/// as one `lookup_batch`, then its deletes — counting what it served into
/// `stats`, and returns its responses. A failed store call fails the
/// requests of its own kind only.
fn run_segment<'a>(
    store: &impl SegmentStore,
    segment: &'a Segment,
    stats: &mut ServerStats,
) -> Vec<(&'a Ticket, RespBody)> {
    let Segment { inserts, lookups, deletes } = segment;
    let mut outbox = Vec::new();
    stats.segments += 1;
    if !inserts.is_empty() {
        let pairs: Vec<(Key, Value)> =
            inserts.iter().flat_map(InsertPart::pairs).copied().collect();
        let error = store.insert_batch(&pairs).err().map(|e| format!("insert batch failed: {e}"));
        if error.is_none() {
            stats.inserts += pairs.len() as u64;
            stats.insert_admissions += 1;
        }
        for part in inserts {
            match part {
                InsertPart::Scalar { ticket, .. } => {
                    outbox.push((ticket, error.clone().map_or(RespBody::Inserted, internal_error)));
                }
                InsertPart::Slice { assembly, .. } => {
                    let done = assembly.land(std::iter::empty(), error.clone());
                    outbox.extend(done.map(|body| (&assembly.ticket, body)));
                }
            }
        }
    }
    if !lookups.is_empty() {
        let keys: Vec<Key> = lookups.iter().flat_map(LookupPart::keys).copied().collect();
        // One value per key, in key order — or none at all, with the error.
        let (values, error) = match store.lookup_batch(&keys) {
            Ok(values) if values.len() == keys.len() => (values, None),
            Ok(_) => (Vec::new(), Some("lookup batch lost an outcome".to_string())),
            Err(e) => (Vec::new(), Some(format!("lookup batch failed: {e}"))),
        };
        if error.is_none() {
            let hits = values.iter().filter(|value| value.is_some()).count() as u64;
            stats.lookups += keys.len() as u64;
            stats.lookup_hits += hits;
            stats.lookup_misses += keys.len() as u64 - hits;
            stats.lookup_admissions += 1;
        }
        let mut found = values.iter().map(|value| (value.is_some(), value.unwrap_or(0)));
        for part in lookups {
            match part {
                LookupPart::Scalar { ticket, .. } => {
                    let body = match found.next() {
                        Some((found, value)) => RespBody::Value { found, value },
                        None => internal_error(error.clone().unwrap_or_default()),
                    };
                    outbox.push((ticket, body));
                }
                LookupPart::Slice { assembly, keys, slots } => {
                    let found = slots.iter().copied().zip(found.by_ref().take(keys.len()));
                    let done = assembly.land(found, error.clone());
                    outbox.extend(done.map(|body| (&assembly.ticket, body)));
                }
            }
        }
    }
    for DeletePart { ticket, key } in deletes {
        let body = match store.delete(*key) {
            Ok(()) => {
                stats.deletes += 1;
                stats.delete_admissions += 1;
                RespBody::Deleted
            }
            Err(e) => internal_error(format!("delete failed: {e}")),
        };
        outbox.push((ticket, body));
    }
    outbox
}

fn internal_error(message: String) -> RespBody {
    RespBody::Error { code: ErrorCode::Internal, message }
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
        self.core.lock().expect("shard core lock")
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

    /// Routes one decoded request to its shard(s) for group commit — or
    /// answers an idle-shard scalar lookup on the bypass immediately. A
    /// chunk of one: see [`submit_chunk`](Self::submit_chunk).
    pub fn submit(&self, conn: u64, request: Request) {
        self.submit_chunk(conn, [request]);
    }

    /// Routes a run of decoded requests from one connection — every
    /// frame one socket read returned — to their shards in one hand-off:
    /// the connection is resolved once, the chunk takes one range of
    /// sequence numbers, and each touched shard's core is locked and its
    /// gather thread notified once. Requests keep their order within
    /// each shard. A scalar lookup takes the bypass only if its shard is
    /// idle *and* nothing earlier in the chunk is staged for that shard;
    /// such lookups are offered to the store as one run per shard.
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
        let conn = shared.conns().get(&conn).cloned();
        // Same key, same stripe, same shard.
        let shard_of = |key| shared.store.stripe_index(key);
        let bypass = |shard, keys: &[Key]| shared.try_bypass(shard, keys);
        let staged = stage(conn, requests, shared.shards.len(), shard_of, bypass);
        for (shard, staged) in shared.shards.iter().zip(staged) {
            if !staged.is_empty() {
                shard.lock().push(staged);
                shard.wake.notify_one();
            }
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
        let mut workers = self.workers.lock().expect("workers lock");
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
        self.conns.lock().expect("conns lock")
    }

    fn ledger(&self) -> MutexGuard<'_, ServerStats> {
        self.stats.lock().expect("stats lock")
    }

    /// Answers a shard's bypass run on the reader's thread, in one
    /// [`SharedClam::lookup_batch`] on the shard's stripe with no batcher
    /// lock held, iff the shard is idle, when every earlier write of its
    /// keys has committed: one value per key. A busy shard or a failed
    /// store call declines the run (`None`), and it queues.
    fn try_bypass(&self, shard: usize, keys: &[Key]) -> Option<Vec<Option<Value>>> {
        let shard = &self.shards[shard];
        if !shard.lock().idle() {
            return None;
        }
        let batch = shard.stripe.lookup_batch(keys).ok()?;
        let (answered, hits) = (keys.len() as u64, batch.hits() as u64);
        // Counted in place: `absorb` walks the whole ledger.
        let stats = &mut shard.lock().stats;
        stats.lookups += answered;
        stats.lookup_hits += hits;
        stats.lookup_misses += answered - hits;
        stats.bypass_hits += answered;
        Some(batch.values())
    }

    /// The merged ledger a STATS request reports: process-wide counters
    /// plus every shard's gather ledger, with a live per-shard depth
    /// snapshot unless shutdown already captured one.
    fn merged_stats(&self) -> ServerStats {
        let mut merged = self.ledger().clone();
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
    /// then answers. A FLUSH counts once, by the part that completes it.
    fn execute(&self, idx: usize, step: Step) {
        let shard = &self.shards[idx];
        let retired = step.submissions();
        match step {
            Step::Segment(segment) => {
                let mut served = ServerStats::new();
                let outbox = run_segment(&shard.stripe, &segment, &mut served);
                shard.lock().done(retired, &served);
                deliver(outbox);
            }
            Step::Flush(assembly) => {
                // The other shards' parts flush the other stripes.
                let error = shard.stripe.flush_all().err().map(|e| format!("flush failed: {e}"));
                shard.lock().done(retired, &ServerStats::new());
                if let Some(body) = assembly.land(std::iter::empty(), error) {
                    if matches!(body, RespBody::Flushed) {
                        self.ledger().flushes += 1;
                    }
                    deliver(vec![(&assembly.ticket, body)]);
                }
            }
            Step::Stats(ticket) => {
                // Retired first: the depths it reports leave it out.
                shard.lock().done(retired, &ServerStats::new());
                self.ledger().stats_calls += 1;
                let fields = Box::new(self.merged_stats());
                let mut text = format!("{fields}\nstore: {}", self.store.stats());
                for (i, report) in self.recovery.iter().enumerate() {
                    text.push_str(&format!("\nstripe {i} recovery: {report}"));
                }
                deliver(vec![(ticket, RespBody::Stats { fields, text })]);
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
            Poll::Sleep => shard.wake.wait(core).expect("shard core lock"),
            Poll::SleepUntil(deadline) => {
                let linger = deadline.saturating_duration_since(Instant::now());
                shard.wake.wait_timeout(core, linger).expect("shard core lock").0
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
