//! The sharded group-commit batcher: per-stripe-shard gather threads
//! that turn concurrent request arrivals into coalesced ring admissions.
//!
//! Every connection's reader thread routes decoded requests to a
//! **batcher shard** keyed by the key's stripe
//! (`stripe_index(key) % shards`), so the same key always lands on the
//! same shard. Each shard owns its own FIFO queue, linger window and
//! gather thread: the thread gathers its queue — lingering up to
//! [`BatcherConfig::linger`] for concurrent arrivals when the queue is
//! shallower than [`BatcherConfig::max_batch`] — then cuts the gather
//! into **conflict-free segments** and executes each segment as at most
//! two batched store calls plus its deletes:
//!
//! * the segment's inserts (scalar frames and `INSERT_BATCH` shard-parts
//!   alike) flatten into a single [`StripedClam::insert_batch`] — one
//!   group-commit flush admission for all of them;
//! * then its lookups flatten into a single
//!   [`StripedClam::lookup_batch`], whose streaming ring pipeline
//!   overlaps every key's flash probes;
//! * then its deletes execute per request.
//!
//! **The segment rule.** The gather is scanned in arrival order and the
//! open segment keeps growing while every key in it stays under one kind
//! of operation: a request closes the segment (and opens the next) when
//! one of its keys is already in the segment under another kind — read
//! and written, or inserted and deleted. FLUSH and STATS always close it
//! and execute between segments. Inside a segment every key therefore
//! sees only inserts, only lookups or only deletes, each kind in arrival
//! order, so running the kinds one after another is indistinguishable,
//! key by key, from running the requests one by one.
//!
//! Because shards own disjoint stripe sets, concurrent shard admissions
//! never contend on a stripe lock — independent stripes commit
//! concurrently.
//!
//! **Ordering.** Each key is an atomic register, and that is all the
//! service promises:
//!
//! * *per key* — operations take effect in the order they arrived at the
//!   key's shard: a lookup that arrives after an insert of the same key
//!   observes it, whichever connections they came from;
//! * *across keys* — unspecified, inside a gather as it always was
//!   across shards: two requests for different keys may execute in
//!   either order;
//! * *per connection* — responses are delivered in request order. Shards
//!   (and segments) finish out of submission order, so each connection
//!   carries a sequencer: every submission takes a per-connection
//!   sequence number and responses are delivered strictly in that order,
//!   parking early completions until their turn.
//!
//! **Batch frames** (`INSERT_BATCH` / `LOOKUP_BATCH`) and `FLUSH`
//! split into one *part* per touched shard plus a shared assembly; the
//! response is built when the last part lands, so the client still sees
//! exactly one response per request.
//!
//! **FLUSH is a per-connection barrier, not a global one.** Each shard's
//! flush part queues behind that connection's earlier writes *in that
//! shard* and closes the segment they are in, so a connection's own
//! writes are always flushed. Writes submitted concurrently by *other*
//! connections while the FLUSH is in flight may land in some shards
//! before the flush part and after it in others — cross-connection,
//! cross-shard flush ordering is unspecified.
//!
//! **Hand-off.** A reader submits every frame one `read` returned as one
//! chunk ([`Engine::submit_chunk`]): the connection is resolved once, the
//! chunk takes one range of sequence numbers, and each touched shard's
//! queue is locked and its gather thread notified once.
//!
//! **Batcher bypass.** A scalar `LOOKUP` whose shard is completely idle
//! (empty queue, nothing in flight) and has nothing staged from the same
//! chunk skips the queue entirely and is answered on the store's
//! read fast path ([`StripedClam::try_fast_lookup`]) —
//! no gather, no ring admission, no linger latency. The idle check is
//! what makes this safe: any earlier same-key write is in the same
//! shard, so an idle shard with nothing staged means the write already
//! committed. Responses still flow through the sequencer, so
//! per-connection order holds.
//!
//! **Acknowledgment invariant:** a response is sent only after its
//! store call has *returned*. [`Clam::insert_batch`] returns only once
//! the write ring has been fully reaped (flush writes durable in the
//! simulated-device sense), so an acknowledged insert is never lost to a
//! ring still in flight — "ack only after the group-commit flush reaps".
//! Each shard enforces this independently.
//!
//! [`StripedClam::insert_batch`]: bufferhash::StripedClam::insert_batch
//! [`StripedClam::lookup_batch`]: bufferhash::StripedClam::lookup_batch
//! [`StripedClam::try_fast_lookup`]: bufferhash::StripedClam::try_fast_lookup
//! [`Clam::insert_batch`]: bufferhash::Clam::insert_batch

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bufferhash::{Key, RecoveryReport, StripedClam, Value};
use flashsim::Device;

use crate::proto::{ErrorCode, Op, Request, RespBody, Response};
use crate::stats::ServerStats;

/// Tuning knobs for the group-commit batcher.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Largest gather, in requests; a full queue fires immediately.
    pub max_batch: usize,
    /// How long a non-full gather lingers for concurrent arrivals.
    pub linger: Duration,
    /// Number of batcher shards (gather threads). Clamped to
    /// `[1, num_stripes]` at start; `1` reproduces the single-gather
    /// baseline exactly.
    pub shards: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig { max_batch: 512, linger: Duration::from_micros(100), shards: 1 }
    }
}

/// Per-connection response sequencer state.
struct ConnSeq {
    /// The connection's writer; `None` once the connection is
    /// unregistered, after which completions are dropped.
    tx: Option<mpsc::Sender<Response>>,
    /// Next sequence number to hand out at submit time.
    next_submit: u64,
    /// Next sequence number the writer may be sent.
    next_deliver: u64,
    /// Completions that arrived ahead of their turn.
    parked: BTreeMap<u64, Response>,
}

impl ConnSeq {
    /// Delivers `response` as completion `seq`: sent immediately if it is
    /// the connection's next expected response, together with whatever
    /// parked behind it; parked until its turn otherwise.
    fn deliver(&mut self, seq: u64, response: Response) {
        let Some(tx) = &self.tx else { return };
        if seq != self.next_deliver {
            self.parked.insert(seq, response);
            return;
        }
        // A disconnected writer just means the connection died first.
        let _ = tx.send(response);
        self.next_deliver += 1;
        while let Some(next) = self.parked.remove(&self.next_deliver) {
            let _ = tx.send(next);
            self.next_deliver += 1;
        }
    }
}

/// One registered connection. Requests in flight hold it directly, so
/// nothing on the request path looks a connection up by id.
struct ConnEntry {
    seq: Mutex<ConnSeq>,
}

impl ConnEntry {
    fn lock(&self) -> MutexGuard<'_, ConnSeq> {
        self.seq.lock().expect("conn seq lock")
    }

    /// Disconnects the writer and drops whatever was parked for it;
    /// requests still in flight complete into nothing.
    fn close(&self) {
        let mut seq = self.lock();
        seq.tx = None;
        seq.parked.clear();
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

impl Ticket {
    fn complete(&self, body: RespBody) {
        if let Some(conn) = &self.conn {
            conn.lock().deliver(self.seq, Response { id: self.id, body });
        }
    }
}

/// Delivers a segment's responses, taking each connection's sequencer
/// lock once for all of that connection's responses, in sequence order
/// so that none parks behind another of the same segment.
fn deliver(mut outbox: Vec<(&Ticket, RespBody)>) {
    let conn_of = |ticket: &Ticket| ticket.conn.as_ref().map(Arc::as_ptr);
    outbox.sort_unstable_by_key(|(ticket, _)| (conn_of(ticket), ticket.seq));
    let mut outbox = outbox.into_iter().peekable();
    while let Some((ticket, body)) = outbox.next() {
        let Some(conn) = &ticket.conn else { continue };
        let mut seq = conn.lock();
        seq.deliver(ticket.seq, Response { id: ticket.id, body });
        while let Some((next, body)) = outbox.next_if(|(next, _)| conn_of(next) == conn_of(ticket))
        {
            seq.deliver(next.seq, Response { id: next.id, body });
        }
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

/// An insert waiting in a shard: a scalar frame, or one shard's slice of
/// an `INSERT_BATCH`.
enum InsertPart {
    Scalar { ticket: Ticket, pair: (Key, Value) },
    Slice { assembly: Arc<Pending>, pairs: Vec<(Key, Value)> },
}

impl InsertPart {
    fn pairs(&self) -> &[(Key, Value)] {
        match self {
            InsertPart::Scalar { pair, .. } => std::slice::from_ref(pair),
            InsertPart::Slice { pairs, .. } => pairs,
        }
    }
}

/// A lookup waiting in a shard: a scalar frame, or one shard's slice of a
/// `LOOKUP_BATCH` with the request slot each key answers.
enum LookupPart {
    Scalar { ticket: Ticket, key: Key },
    Slice { assembly: Arc<Pending>, keys: Vec<Key>, slots: Vec<usize> },
}

impl LookupPart {
    fn keys(&self) -> &[Key] {
        match self {
            LookupPart::Scalar { key, .. } => std::slice::from_ref(key),
            LookupPart::Slice { keys, .. } => keys,
        }
    }
}

struct DeletePart {
    ticket: Ticket,
    key: Key,
}

/// One queued shard-local unit of work.
enum Submission {
    Insert(InsertPart),
    Lookup(LookupPart),
    Delete(DeletePart),
    Flush(Arc<Pending>),
    Stats(Ticket),
}

/// The three kinds of operation a segment batches; a key is under at
/// most one of them per segment.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Insert,
    Lookup,
    Delete,
}

/// A run of a gather in which no key is under two kinds of operation,
/// already sorted by kind: one `insert_batch`, one `lookup_batch`, then
/// the deletes.
#[derive(Default)]
struct Segment {
    inserts: Vec<InsertPart>,
    lookups: Vec<LookupPart>,
    deletes: Vec<DeletePart>,
}

impl Segment {
    fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.lookups.is_empty() && self.deletes.is_empty()
    }

    /// Whether every part so far is of `kind` (true of an empty segment).
    fn holds_only(&self, kind: Kind) -> bool {
        (kind == Kind::Insert || self.inserts.is_empty())
            && (kind == Kind::Lookup || self.lookups.is_empty())
            && (kind == Kind::Delete || self.deletes.is_empty())
    }
}

/// What a gather executes, in order.
enum Step {
    Segment(Segment),
    Flush(Arc<Pending>),
    Stats(Ticket),
}

/// Cuts a gather into steps. Reused across gathers for its key index.
#[derive(Default)]
struct Planner {
    steps: Vec<Step>,
    open: Segment,
    /// The kind each key of the open segment is under. Built only once
    /// the segment mixes kinds (empty until then): a segment of one kind
    /// cannot conflict.
    index: HashMap<Key, Kind>,
    /// Segments closed because a key came back under another kind.
    conflicts: u64,
}

impl Planner {
    fn push(&mut self, submission: Submission) {
        match submission {
            Submission::Insert(part) => {
                self.admit(Kind::Insert, part.pairs().iter().map(|pair| pair.0));
                self.open.inserts.push(part);
            }
            Submission::Lookup(part) => {
                self.admit(Kind::Lookup, part.keys().iter().copied());
                self.open.lookups.push(part);
            }
            Submission::Delete(part) => {
                self.admit(Kind::Delete, std::iter::once(part.key));
                self.open.deletes.push(part);
            }
            Submission::Flush(assembly) => {
                self.close();
                self.steps.push(Step::Flush(assembly));
            }
            Submission::Stats(ticket) => {
                self.close();
                self.steps.push(Step::Stats(ticket));
            }
        }
    }

    /// Makes room in the open segment for a part of `kind` over `keys`,
    /// closing the segment first if one of them is in it under another
    /// kind.
    fn admit(&mut self, kind: Kind, mut keys: impl Iterator<Item = Key>) {
        if self.open.holds_only(kind) {
            return;
        }
        if self.index.is_empty() {
            let Segment { inserts, lookups, deletes } = &self.open;
            let inserted = inserts.iter().flat_map(|part| part.pairs()).map(|pair| pair.0);
            self.index.extend(inserted.map(|key| (key, Kind::Insert)));
            let read = lookups.iter().flat_map(|part| part.keys()).copied();
            self.index.extend(read.map(|key| (key, Kind::Lookup)));
            self.index.extend(deletes.iter().map(|part| (part.key, Kind::Delete)));
        }
        // Keys indexed before a conflict shows are dropped with the
        // segment they would have joined.
        if keys.any(|key| *self.index.entry(key).or_insert(kind) != kind) {
            self.conflicts += 1;
            self.close();
        }
    }

    fn close(&mut self) {
        if !self.open.is_empty() {
            self.steps.push(Step::Segment(std::mem::take(&mut self.open)));
        }
        self.index.clear();
    }

    /// The steps of the gather pushed since the last call, and how many
    /// of its segments a conflict closed.
    fn finish(&mut self) -> (Vec<Step>, u64) {
        self.close();
        (std::mem::take(&mut self.steps), std::mem::take(&mut self.conflicts))
    }
}

/// One batcher shard: a queue, its gather condvar, the count of drained
/// but unfinished submissions, and the shard's own gather ledger.
struct Shard {
    queue: Mutex<VecDeque<Submission>>,
    arrivals: Condvar,
    /// Submissions drained from the queue whose store effects are not
    /// yet final. `queue.len() + inflight` is the shard's depth; the
    /// bypass requires both to be zero.
    inflight: AtomicU64,
    stats: Mutex<ServerStats>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            queue: Mutex::new(VecDeque::new()),
            arrivals: Condvar::new(),
            inflight: AtomicU64::new(0),
            stats: Mutex::new(ServerStats::new()),
        }
    }

    fn depth(&self) -> u64 {
        self.queue.lock().expect("shard queue lock").len() as u64
            + self.inflight.load(Ordering::SeqCst)
    }

    fn ledger(&self) -> MutexGuard<'_, ServerStats> {
        self.stats.lock().expect("shard stats lock")
    }

    /// Retires `n` submissions from the in-flight gauge. Called after
    /// their store call returns (effects visible) and before responses
    /// go out, so a client that has its ack can immediately take the
    /// bypass.
    fn retire(&self, n: usize) {
        self.inflight.fetch_sub(n as u64, Ordering::SeqCst);
    }
}

/// State shared between connection threads and the shard gather threads.
struct Shared<D: Device + 'static> {
    store: StripedClam<D>,
    recovery: Vec<RecoveryReport>,
    config: BatcherConfig,
    shards: Vec<Shard>,
    conns: Mutex<HashMap<u64, Arc<ConnEntry>>>,
    /// Process-wide counters (connections, wire errors, flush barriers,
    /// stats calls) plus the shutdown-time depth snapshot; everything
    /// request-scoped lives in the per-shard ledgers.
    stats: Mutex<ServerStats>,
    shutdown: AtomicBool,
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
    /// Starts one gather thread per shard over `store`. `recovery`
    /// carries the per-stripe reports when the store was recovered from
    /// an existing flash image (empty for a fresh boot); STATS responses
    /// include them.
    pub fn start(
        store: StripedClam<D>,
        recovery: Vec<RecoveryReport>,
        config: BatcherConfig,
    ) -> Self {
        let shards = config.shards.clamp(1, store.num_stripes());
        let shared = Arc::new(Shared {
            store,
            recovery,
            config,
            shards: (0..shards).map(|_| Shard::new()).collect(),
            conns: Mutex::new(HashMap::new()),
            stats: Mutex::new(ServerStats::new()),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..shards)
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

    /// Number of batcher shards actually running (the configured count
    /// clamped to the stripe count).
    pub fn num_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Registers a connection and returns the receiver its writer thread
    /// drains. Responses for requests submitted under `conn` arrive on it
    /// in per-connection request order, whichever shard finishes first.
    pub fn register_conn(&self, conn: u64) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        let seq =
            ConnSeq { tx: Some(tx), next_submit: 0, next_deliver: 0, parked: BTreeMap::new() };
        let entry = Arc::new(ConnEntry { seq: Mutex::new(seq) });
        self.shared.conns.lock().expect("conns lock").insert(conn, entry);
        self.shared.stats.lock().expect("stats lock").connections_opened += 1;
        rx
    }

    /// Unregisters a connection: its writer's receiver disconnects once
    /// it has drained what was already delivered, and the responses of
    /// requests still in flight are dropped when they complete.
    pub fn unregister_conn(&self, conn: u64) {
        let entry = self.shared.conns.lock().expect("conns lock").remove(&conn);
        if let Some(entry) = entry {
            entry.close();
            self.shared.stats.lock().expect("stats lock").connections_closed += 1;
        }
    }

    /// Unregisters every connection (server teardown): their writers'
    /// receivers disconnect once buffered responses are drained.
    pub fn unregister_all(&self) {
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns lock"));
        for entry in conns.values() {
            entry.close();
        }
        self.shared.stats.lock().expect("stats lock").connections_closed += conns.len() as u64;
    }

    /// Routes one decoded request to its shard(s) for group commit — or
    /// answers an idle-shard scalar lookup on the bypass immediately. A
    /// chunk of one: see [`submit_chunk`](Self::submit_chunk).
    pub fn submit(&self, conn: u64, request: Request) {
        self.shared.submit_chunk(conn, std::iter::once(request));
    }

    /// Routes a run of decoded requests from one connection — every
    /// frame one socket read returned — to their shards in one hand-off:
    /// the connection is resolved once, the chunk takes one range of
    /// sequence numbers, and each touched shard's queue is locked and its
    /// gather thread notified once. Requests keep their order within
    /// each shard. A scalar lookup takes the bypass only if its shard is
    /// idle *and* nothing earlier in the chunk is staged for that shard.
    pub fn submit_chunk<I>(&self, conn: u64, requests: I)
    where
        I: IntoIterator<Item = Request>,
        I::IntoIter: ExactSizeIterator,
    {
        self.shared.submit_chunk(conn, requests.into_iter());
    }

    /// Sends a response directly to a connection's writer, bypassing the
    /// queues and the sequencer (used for protocol-error frames before
    /// closing).
    pub fn respond(&self, conn: u64, response: Response) {
        let entry = self.shared.conns.lock().expect("conns lock").get(&conn).cloned();
        if let Some(tx) = entry.as_ref().and_then(|entry| entry.lock().tx.clone()) {
            // A disconnected writer just means the connection died first.
            let _ = tx.send(response);
        }
    }

    /// Counts one protocol violation.
    pub fn record_wire_error(&self) {
        self.shared.stats.lock().expect("stats lock").wire_errors += 1;
    }

    /// Snapshot of the server ledger: the process-wide counters with
    /// every shard's gather ledger folded in.
    pub fn stats(&self) -> ServerStats {
        self.shared.merged_stats()
    }

    /// Each shard's own gather ledger, in shard order — the unmerged
    /// view the smoke harness sums and cross-checks.
    pub fn per_shard_stats(&self) -> Vec<ServerStats> {
        self.shared.shards.iter().map(|s| s.ledger().clone()).collect()
    }

    /// Aggregated store statistics across all stripes.
    pub fn clam_stats(&self) -> bufferhash::ClamStats {
        self.shared.store.stats()
    }

    /// Per-stripe recovery reports from boot (empty for a fresh image).
    pub fn recovery_reports(&self) -> &[RecoveryReport] {
        &self.shared.recovery
    }

    /// Stops the batcher: each shard's queue is drained fully (every
    /// submitted request still gets its response) before its thread
    /// exits. The per-shard depth at shutdown entry is captured into the
    /// ledger's `shard_depths` gauge, so a post-shutdown STATS shows how
    /// much work the drain absorbed.
    pub fn shutdown(&self) {
        let mut workers = self.workers.lock().expect("workers lock");
        if workers.is_empty() {
            return;
        }
        self.shared.stats.lock().expect("stats lock").shard_depths =
            self.shared.shards.iter().map(Shard::depth).collect();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shared.shards {
            shard.arrivals.notify_all();
        }
        for worker in workers.drain(..) {
            worker.join().expect("batcher shard thread panicked");
        }
    }
}

impl<D: Device + 'static> Shared<D> {
    /// The shard a key's operations are pinned to: same key, same
    /// stripe, same shard.
    fn shard_of(&self, key: Key) -> usize {
        self.store.stripe_index(key) % self.shards.len()
    }

    /// Answers a scalar lookup on the read fast path iff its shard is
    /// completely idle. An idle shard means every earlier write of this
    /// key (necessarily in this shard) has committed, so skipping the
    /// queue cannot reorder same-key operations; cross-connection races
    /// remain as concurrent as they were. A writer outside this shard's
    /// queue accounting — a direct store user embedding the engine —
    /// holds the key's stripe lock exclusive for its whole mutation, so
    /// the store's `try_read` fails and the lookup takes the queue path:
    /// one lock per stripe is the whole argument. Returns `None` when the
    /// shard is busy, a writer holds or awaits the stripe, or the key
    /// needs flash.
    fn try_bypass(&self, shard_idx: usize, key: Key) -> Option<RespBody> {
        let shard = &self.shards[shard_idx];
        {
            let queue = shard.queue.lock().expect("shard queue lock");
            if !queue.is_empty() || shard.inflight.load(Ordering::SeqCst) != 0 {
                return None;
            }
        }
        let outcome = self.store.try_fast_lookup(key)?;
        let found = outcome.value.is_some();
        let mut stats = shard.ledger();
        stats.lookups += 1;
        if found {
            stats.lookup_hits += 1;
        } else {
            stats.lookup_misses += 1;
        }
        stats.bypass_hits += 1;
        Some(RespBody::Value { found, value: outcome.value.unwrap_or(0) })
    }

    fn submit_chunk(&self, conn: u64, requests: impl ExactSizeIterator<Item = Request>) {
        if requests.len() == 0 {
            return;
        }
        // Unregistered connections have no delivery order to keep.
        let conn = self.conns.lock().expect("conns lock").get(&conn).cloned();
        let first_seq = conn.as_ref().map_or(0, |conn| {
            let mut seq = conn.lock();
            let first = seq.next_submit;
            seq.next_submit += requests.len() as u64;
            first
        });
        let shards = self.shards.len();
        let mut staged: Vec<Vec<Submission>> = (0..shards).map(|_| Vec::new()).collect();
        for (seq, Request { id, op }) in (first_seq..).zip(requests) {
            let ticket = Ticket { conn: conn.clone(), seq, id };
            match op {
                Op::Insert { key, value } => {
                    let part = InsertPart::Scalar { ticket, pair: (key, value) };
                    staged[self.shard_of(key)].push(Submission::Insert(part));
                }
                Op::Lookup { key } => {
                    let shard = self.shard_of(key);
                    // Anything staged for the shard arrived first and may
                    // write this key; the idle check cannot see it yet.
                    let bypassed =
                        if staged[shard].is_empty() { self.try_bypass(shard, key) } else { None };
                    match bypassed {
                        Some(body) => ticket.complete(body),
                        None => {
                            let part = LookupPart::Scalar { ticket, key };
                            staged[shard].push(Submission::Lookup(part));
                        }
                    }
                }
                Op::Delete { key } => {
                    let part = DeletePart { ticket, key };
                    staged[self.shard_of(key)].push(Submission::Delete(part));
                }
                Op::Flush => {
                    let assembly = Pending::new(ticket, shards, AssemblyKind::Flush);
                    for queue in &mut staged {
                        queue.push(Submission::Flush(Arc::clone(&assembly)));
                    }
                }
                Op::Stats => staged[0].push(Submission::Stats(ticket)),
                Op::InsertBatch(pairs) if pairs.is_empty() => {
                    ticket.complete(RespBody::InsertedBatch { count: 0 });
                }
                Op::InsertBatch(pairs) => {
                    let count = pairs.len() as u32;
                    let mut groups: Vec<Vec<(Key, Value)>> = vec![Vec::new(); shards];
                    for (key, value) in pairs {
                        groups[self.shard_of(key)].push((key, value));
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
                    ticket.complete(RespBody::Values(Vec::new()));
                }
                Op::LookupBatch(keys) => {
                    let mut groups: Vec<(Vec<Key>, Vec<usize>)> =
                        vec![(Vec::new(), Vec::new()); shards];
                    for (slot, &key) in keys.iter().enumerate() {
                        let group = &mut groups[self.shard_of(key)];
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
        for (shard, staged) in self.shards.iter().zip(staged) {
            if !staged.is_empty() {
                shard.queue.lock().expect("shard queue lock").extend(staged);
                // The shard's gather thread is the only waiter.
                shard.arrivals.notify_one();
            }
        }
    }

    /// The merged ledger a STATS request reports: process-wide counters
    /// plus every shard's gather ledger, with a live per-shard depth
    /// snapshot unless shutdown already captured one.
    fn merged_stats(&self) -> ServerStats {
        let mut merged = self.stats.lock().expect("stats lock").clone();
        for shard in &self.shards {
            merged.absorb(&shard.ledger());
        }
        if merged.shard_depths.is_empty() {
            merged.shard_depths = self.shards.iter().map(Shard::depth).collect();
        }
        merged
    }
}

fn shard_loop<D: Device + 'static>(shared: &Shared<D>, idx: usize) {
    let mut planner = Planner::default();
    loop {
        let Some((gathered, waited)) = gather(shared, idx) else { return };
        let size = gathered.len();
        for submission in gathered {
            planner.push(submission);
        }
        let (steps, conflicts) = planner.finish();
        {
            let mut stats = shared.shards[idx].ledger();
            stats.record_batch(size, waited);
            stats.segment_conflicts += conflicts;
        }
        for step in steps {
            match step {
                Step::Segment(segment) => execute_segment(shared, idx, &segment),
                Step::Flush(assembly) => execute_flush(shared, idx, &assembly),
                Step::Stats(ticket) => execute_stats(shared, idx, &ticket),
            }
        }
    }
}

/// Blocks until the shard's queue is non-empty, lingers for concurrent
/// arrivals, and drains up to `max_batch` submissions. The drained count
/// moves onto the shard's in-flight gauge *under the queue lock*, so the
/// bypass can never observe the gap between "left the queue" and
/// "started executing". Returns `None` when the engine is shut down
/// *and* the queue is fully drained.
fn gather<D: Device + 'static>(shared: &Shared<D>, idx: usize) -> Option<(Vec<Submission>, bool)> {
    let shard = &shared.shards[idx];
    let mut queue = shard.queue.lock().expect("shard queue lock");
    while queue.is_empty() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        queue = shard.arrivals.wait(queue).expect("shard queue lock");
    }
    let mut waited = false;
    if !shared.shutdown.load(Ordering::SeqCst) {
        let deadline = Instant::now() + shared.config.linger;
        while queue.len() < shared.config.max_batch && !shared.shutdown.load(Ordering::SeqCst) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            waited = true;
            let (guard, _) =
                shard.arrivals.wait_timeout(queue, deadline - now).expect("shard queue lock");
            queue = guard;
        }
    }
    let take = queue.len().min(shared.config.max_batch);
    shard.inflight.fetch_add(take as u64, Ordering::SeqCst);
    Some((queue.drain(..take).collect(), waited))
}

fn internal_error(message: String) -> RespBody {
    RespBody::Error { code: ErrorCode::Internal, message }
}

/// Executes one segment — its inserts as one `insert_batch`, then its
/// lookups as one `lookup_batch`, then its deletes — and delivers every
/// response it produced, connection by connection. A failed store call
/// fails the requests of its own kind only.
fn execute_segment<D: Device + 'static>(shared: &Shared<D>, shard_idx: usize, segment: &Segment) {
    let shard = &shared.shards[shard_idx];
    let mut outbox = Vec::new();
    if !segment.inserts.is_empty() {
        execute_insert_run(shared, shard, &segment.inserts, &mut outbox);
    }
    if !segment.lookups.is_empty() {
        execute_lookup_run(shared, shard, &segment.lookups, &mut outbox);
    }
    let mut deleted = 0;
    for DeletePart { ticket, key } in &segment.deletes {
        let result = shared.store.delete(*key);
        shard.retire(1);
        let body = match result {
            Ok(()) => {
                deleted += 1;
                RespBody::Deleted
            }
            Err(e) => internal_error(format!("delete failed: {e}")),
        };
        outbox.push((ticket, body));
    }
    {
        let mut stats = shard.ledger();
        stats.segments += 1;
        stats.deletes += deleted;
        stats.delete_admissions += deleted;
    }
    // The ledger is final before the first client can hear of it.
    deliver(outbox);
}

/// Flattens a segment's inserts into one `insert_batch` admission and
/// queues each acknowledgment once the call has returned (write ring
/// reaped). The batch only touches this shard's stripes, so concurrent
/// shards' admissions proceed without contending.
fn execute_insert_run<'a, D: Device + 'static>(
    shared: &Shared<D>,
    shard: &Shard,
    run: &'a [InsertPart],
    outbox: &mut Vec<(&'a Ticket, RespBody)>,
) {
    let pairs: Vec<(Key, Value)> = run.iter().flat_map(|part| part.pairs()).copied().collect();
    let result = shared.store.insert_batch(&pairs);
    shard.retire(run.len());
    let error = result.err().map(|e| format!("insert batch failed: {e}"));
    if error.is_none() {
        let mut stats = shard.ledger();
        stats.inserts += pairs.len() as u64;
        stats.insert_admissions += 1;
    }
    for part in run {
        match part {
            InsertPart::Scalar { ticket, .. } => {
                let body = error.clone().map_or(RespBody::Inserted, internal_error);
                outbox.push((ticket, body));
            }
            InsertPart::Slice { assembly, .. } => {
                let done = assembly.land(std::iter::empty(), error.clone());
                outbox.extend(done.map(|body| (&assembly.ticket, body)));
            }
        }
    }
}

/// Flattens a segment's lookups into one `lookup_batch` admission and
/// splits the in-order outcomes back out — scalar lookups answer
/// directly, batch parts fill their assembly's slots.
fn execute_lookup_run<'a, D: Device + 'static>(
    shared: &Shared<D>,
    shard: &Shard,
    run: &'a [LookupPart],
    outbox: &mut Vec<(&'a Ticket, RespBody)>,
) {
    let keys: Vec<Key> = run.iter().flat_map(|part| part.keys()).copied().collect();
    let result = shared.store.lookup_batch(&keys);
    shard.retire(run.len());
    // One outcome per key, in key order — or none at all, with the error.
    let (outcomes, error) = match result {
        Ok(batch) if batch.outcomes.len() == keys.len() => (batch.outcomes, None),
        Ok(_) => (Vec::new(), Some("lookup batch lost an outcome".to_string())),
        Err(e) => (Vec::new(), Some(format!("lookup batch failed: {e}"))),
    };
    if error.is_none() {
        let hits = outcomes.iter().filter(|outcome| outcome.value.is_some()).count() as u64;
        let mut stats = shard.ledger();
        stats.lookups += keys.len() as u64;
        stats.lookup_hits += hits;
        stats.lookup_misses += keys.len() as u64 - hits;
        stats.lookup_admissions += 1;
    }
    let mut found = outcomes.iter().map(|o| (o.value.is_some(), o.value.unwrap_or(0)));
    for part in run {
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

/// Flushes the stripes this shard owns; the other shards' parts cover
/// the rest of the store. The part that completes the barrier counts it
/// on the process-wide ledger, so a FLUSH counts once however many
/// shards it crossed.
fn execute_flush<D: Device + 'static>(shared: &Shared<D>, shard_idx: usize, assembly: &Pending) {
    let step = shared.shards.len();
    let error = (shard_idx..shared.store.num_stripes()).step_by(step).find_map(|stripe| {
        let stripe = shared.store.stripe(stripe)?;
        stripe.flush_all().err().map(|e| format!("flush failed: {e}"))
    });
    shared.shards[shard_idx].retire(1);
    if let Some(body) = assembly.land(std::iter::empty(), error) {
        if matches!(body, RespBody::Flushed) {
            shared.stats.lock().expect("stats lock").flushes += 1;
        }
        assembly.ticket.complete(body);
    }
}

fn execute_stats<D: Device + 'static>(shared: &Shared<D>, shard_idx: usize, ticket: &Ticket) {
    shared.shards[shard_idx].retire(1);
    shared.stats.lock().expect("stats lock").stats_calls += 1;
    let fields = Box::new(shared.merged_stats());
    let mut text = format!("{fields}\nstore: {}", shared.store.stats());
    for (i, report) in shared.recovery.iter().enumerate() {
        text.push_str(&format!("\nstripe {i} recovery: {report}"));
    }
    ticket.complete(RespBody::Stats { fields, text });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bufferhash::{Clam, ClamConfig};
    use flashsim::Ssd;

    fn engine_with(stripes: usize, shards: usize, linger: Duration) -> Engine<Ssd> {
        let clam = |_| {
            let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
            Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap()
        };
        let store = StripedClam::new((0..stripes).map(clam).collect());
        Engine::start(store, Vec::new(), BatcherConfig { max_batch: 512, linger, shards })
    }

    fn engine(linger: Duration) -> Engine<Ssd> {
        engine_with(2, 1, linger)
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
        assert!(
            stats.insert_admissions < 100,
            "100 inserts should not need 100 admissions: {stats}"
        );
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
        let RespBody::Stats { fields, text } = stats_resp.body else {
            panic!("expected stats body")
        };
        assert_eq!(fields.flushes, 1);
        assert_eq!(fields.deletes, 1);
        assert!(text.contains("served:") && text.contains("store:"), "{text}");
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
        let engine = engine_with(4, 4, Duration::from_micros(200));
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
    fn batch_frames_split_across_shards_and_reassemble() {
        let engine = engine_with(4, 4, Duration::from_micros(100));
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
        let engine = engine_with(2, 2, Duration::from_micros(50));
        let rx = engine.register_conn(1);
        engine.submit(1, Request { id: 0, op: Op::Insert { key: 42, value: 4242 } });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().body, RespBody::Inserted);
        // The ack precedes the in-flight gauge only on the store call's
        // return path, so poll a few lookups until one finds the shard
        // fully idle.
        let mut bypassed = false;
        for attempt in 0..200u64 {
            engine.submit(1, Request { id: attempt + 1, op: Op::Lookup { key: 42 } });
            let resp = rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(resp.body, RespBody::Value { found: true, value: 4242 });
            if engine.stats().bypass_hits > 0 {
                bypassed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(bypassed, "an idle shard should serve scalar lookups on the bypass");
        engine.shutdown();
    }

    #[test]
    fn shutdown_snapshot_reports_per_shard_depth() {
        // A long linger keeps the submissions queued (or in flight) when
        // shutdown entry takes its snapshot; the drain still answers all.
        let engine = engine_with(4, 4, Duration::from_millis(500));
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
        let engine = engine_with(4, 4, Duration::from_micros(100));
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

    // --- the segment planner alone ---------------------------------------

    fn ticket() -> Ticket {
        Ticket { conn: None, seq: 0, id: 0 }
    }

    fn ins(key: Key) -> Submission {
        Submission::Insert(InsertPart::Scalar { ticket: ticket(), pair: (key, 0) })
    }

    fn look(key: Key) -> Submission {
        Submission::Lookup(LookupPart::Scalar { ticket: ticket(), key })
    }

    fn del(key: Key) -> Submission {
        Submission::Delete(DeletePart { ticket: ticket(), key })
    }

    fn ins_slice(keys: &[Key]) -> Submission {
        let assembly = Pending::new(ticket(), 1, AssemblyKind::Insert { count: keys.len() as u32 });
        let pairs = keys.iter().map(|&key| (key, 0)).collect();
        Submission::Insert(InsertPart::Slice { assembly, pairs })
    }

    fn look_slice(keys: &[Key]) -> Submission {
        let kind = AssemblyKind::Lookup { slots: vec![None; keys.len()] };
        let assembly = Pending::new(ticket(), 1, kind);
        let slots = (0..keys.len()).collect();
        Submission::Lookup(LookupPart::Slice { assembly, keys: keys.to_vec(), slots })
    }

    fn flush() -> Submission {
        Submission::Flush(Pending::new(ticket(), 1, AssemblyKind::Flush))
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
                s.inserts.iter().flat_map(|p| p.pairs()).map(|p| p.0).collect(),
                s.lookups.iter().flat_map(|p| p.keys()).copied().collect(),
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

    /// One shard, and a linger long enough that a chunk is one gather:
    /// the chunk enters the queue under one lock, so the gather thread
    /// sees all of it or none of it.
    fn one_gather_engine() -> Engine<Ssd> {
        engine_with(2, 1, Duration::from_millis(20))
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
        engine
            .submit(1, Request { id: 0, op: Op::InsertBatch((1..=20).map(|k| (k, k)).collect()) });
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

    #[test]
    fn a_lookup_behind_a_staged_write_never_takes_the_bypass() {
        // A short linger, so the shards are idle again soon after each ack.
        let engine = engine_with(2, 2, Duration::from_micros(50));
        let rx = engine.register_conn(1);
        for key in 1..=50u64 {
            // The shard is idle and the insert only staged when the lookup
            // is routed: on the bypass it would miss.
            engine.submit_chunk(
                1,
                chunk(vec![Op::Insert { key, value: key * 3 }, Op::Lookup { key }]),
            );
            assert_eq!(
                bodies(&rx, 2),
                [RespBody::Inserted, RespBody::Value { found: true, value: key * 3 }]
            );
        }
        assert_eq!(engine.stats().bypass_hits, 0);
        // A chunk that stages nothing for the key's shard may still bypass.
        let mut bypassed = false;
        for _ in 0..200 {
            engine.submit_chunk(1, chunk(vec![Op::Lookup { key: 1 }, Op::Lookup { key: 2 }]));
            let value = |value| RespBody::Value { found: true, value };
            assert_eq!(bodies(&rx, 2), [value(3), value(6)]);
            bypassed = engine.stats().bypass_hits > 0;
            if bypassed {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(bypassed, "lookups with nothing staged ahead of them should bypass");
        engine.shutdown();
    }

    #[test]
    fn unregistering_mid_gather_drops_the_responses_and_frees_the_connection() {
        // The linger outlasts the test: the requests are still gathering
        // when the connection goes, and only shutdown cuts the linger.
        let engine = engine_with(4, 4, Duration::from_secs(60));
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
        let config = BatcherConfig { max_batch: 512, linger: Duration::from_millis(20), shards: 1 };
        let engine = Engine::start(store, Vec::new(), config);
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
}
