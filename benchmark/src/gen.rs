//! The load generator: closed-loop and open-loop phases over TCP, and the
//! same two phases as direct `StripedClam` calls for `engine-direct`.
//!
//! A **closed** phase keeps [`IN_FLIGHT`] requests outstanding per
//! connection and sends the next as each reply arrives, so it measures
//! capacity. An **open** phase sends on a fixed schedule whatever the
//! replies do and times each request from the moment it was *due*, so a
//! stall is charged to every request it delayed.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bufferhash::StripedClam;
use clamd::proto::{self, ErrorCode, Op, Request, RespBody};
use clamd::Engine;
use flashsim::Device;

use crate::ops::{check, Expect, Kind, OpStream, Planned};
use crate::spec::{Workload, IN_FLIGHT};
use crate::trace::Span;

/// A reply this late means the server hung; fail the run, do not wait.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// How long after an open phase ends a reply still counts as answered.
const OPEN_GRACE: Duration = Duration::from_secs(1);
const READ_CHUNK: usize = 64 * 1024;

/// When a phase stops issuing requests.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    /// After this many keys per connection (the ladder's fixed stream).
    Keys(u64),
}

#[derive(Clone, Copy)]
pub struct Phase {
    pub stop: Stop,
    /// Open loop at this many operations per second per connection;
    /// `None` runs a closed loop.
    pub ops_per_s: Option<f64>,
    /// Completions are bucketed into windows this long.
    pub window: Duration,
    /// Keep every request's latency. Off where only rates are read, so
    /// the generator's memory does not grow with the work it offers.
    pub record_latency: bool,
    /// Record one span per request under this parent span.
    pub trace_parent: Option<u32>,
    /// Nanoseconds from the trace epoch to this phase's start.
    pub origin_ns: u64,
}

impl Phase {
    /// A closed phase over an exact number of keys per connection, all in
    /// one window, every latency kept: a ladder depth.
    pub fn of_keys(per_conn: u64) -> Self {
        Phase {
            stop: Stop::Keys(per_conn),
            ops_per_s: None,
            window: Duration::from_secs(3600),
            record_latency: true,
            trace_parent: None,
            origin_ns: 0,
        }
    }

    fn issuing(&self, now_ns: u64, issued_keys: u64) -> bool {
        match self.stop {
            Stop::After(length) => now_ns < length.as_nanos() as u64,
            Stop::Keys(n) => issued_keys < n,
        }
    }
}

/// What one phase observed; per-connection tallies merge into one.
#[derive(Default)]
pub struct Tally {
    /// Operations issued (frames, or store calls for `engine-direct`).
    pub attempted: u64,
    /// Operations whose reply was an error, wrong, or never came.
    pub failed: u64,
    /// Keys completed.
    pub keys: u64,
    /// Keys completed in each window of the phase.
    pub window_keys: Vec<u64>,
    /// Latency samples in ns per window, for lookups `[0]` and inserts `[1]`.
    pub latency: [Vec<Vec<u64>>; 2],
    /// How late each open-loop request left, in ns after it was due.
    pub send_lag: Vec<u64>,
    /// Request and reply bytes that crossed the socket.
    pub wire_bytes: u64,
    /// Time from the phase's start to its last reply.
    pub elapsed: Duration,
    pub spans: Vec<Span>,
}

fn slot<T: Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if v.len() <= i {
        v.resize_with(i + 1, T::default);
    }
    &mut v[i]
}

impl Tally {
    fn complete(&mut self, phase: &Phase, flight: &InFlight, at_ns: u64, ok: bool) {
        self.keys += flight.keys;
        self.failed += u64::from(!ok);
        let window = (at_ns / phase.window.as_nanos().max(1) as u64) as usize;
        *slot(&mut self.window_keys, window) += flight.keys;
        if phase.record_latency && flight.kind != Kind::Delete {
            let samples = slot(&mut self.latency[flight.kind as usize], window);
            samples.push(at_ns.saturating_sub(flight.from_ns));
        }
        if let Some(parent) = phase.trace_parent {
            self.spans.push(Span {
                name: match flight.kind {
                    Kind::Lookup => "request.lookup",
                    Kind::Insert => "request.insert",
                    Kind::Delete => "request.delete",
                },
                start_ns: phase.origin_ns + flight.from_ns,
                end_ns: phase.origin_ns + at_ns,
                parent,
                request: flight.id,
            });
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.keys += other.keys;
        self.wire_bytes += other.wire_bytes;
        self.elapsed = self.elapsed.max(other.elapsed);
        self.send_lag.extend(other.send_lag);
        self.spans.extend(other.spans);
        for (i, keys) in other.window_keys.into_iter().enumerate() {
            *slot(&mut self.window_keys, i) += keys;
        }
        for (mine, theirs) in self.latency.iter_mut().zip(other.latency) {
            for (i, samples) in theirs.into_iter().enumerate() {
                slot(mine, i).extend(samples);
            }
        }
    }
}

/// A request awaiting its reply.
struct InFlight {
    id: u64,
    expect: Expect,
    kind: Kind,
    keys: u64,
    /// Latency is timed from here: the send in a closed loop, the due
    /// time in an open one. Nanoseconds since the phase's start.
    from_ns: u64,
}

impl InFlight {
    fn answered_by(&self, id: u64, body: &RespBody) -> bool {
        id == self.id && check(&self.expect, body)
    }
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

fn unasked() -> io::Error {
    io::Error::new(ErrorKind::InvalidData, "a reply arrived that no request asked for")
}

fn hung() -> io::Error {
    io::Error::new(ErrorKind::TimedOut, "no reply within 20 s")
}

/// The write side of a connection: the stream of operations, the request
/// ids, and the bytes not yet written.
struct Outbox<'a> {
    ops: &'a mut OpStream,
    next_id: &'a mut u64,
    stream: TcpStream,
    wbuf: Vec<u8>,
}

impl<'a> Outbox<'a> {
    fn new(ops: &'a mut OpStream, next_id: &'a mut u64, inbox: &Inbox) -> io::Result<Self> {
        Ok(Outbox { ops, next_id, stream: inbox.stream.try_clone()?, wbuf: Vec::new() })
    }

    /// Encodes the stream's next operation into the write buffer.
    fn plan(&mut self, from_ns: u64) -> InFlight {
        let Planned { op, expect, kind } = self.ops.next_op();
        let id = *self.next_id;
        *self.next_id += 1;
        let keys = op.ops() as u64;
        proto::encode_request(&Request { id, op }, &mut self.wbuf);
        InFlight { id, expect, kind, keys, from_ns }
    }

    /// Writes what [`plan`](Self::plan) buffered; returns the byte count.
    fn flush(&mut self) -> io::Result<u64> {
        self.stream.write_all(&self.wbuf)?;
        let bytes = self.wbuf.len() as u64;
        self.wbuf.clear();
        Ok(bytes)
    }
}

/// The read side of a connection: the socket and the bytes not yet
/// decoded.
struct Inbox {
    stream: TcpStream,
    chunk: Vec<u8>,
    rbuf: Vec<u8>,
    parsed: usize,
}

impl Inbox {
    /// Blocks for more reply bytes and returns how many came; 0 is a read
    /// timeout.
    fn fill(&mut self) -> io::Result<u64> {
        if self.parsed > 0 && self.parsed >= self.rbuf.len() / 2 {
            self.rbuf.drain(..self.parsed);
            self.parsed = 0;
        }
        match self.stream.read(&mut self.chunk) {
            Ok(0) => Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed the connection")),
            Ok(n) => {
                self.rbuf.extend_from_slice(&self.chunk[..n]);
                Ok(n as u64)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Decodes the next buffered reply, if a whole frame has arrived.
    fn next_reply(&mut self) -> io::Result<Option<proto::Response>> {
        match proto::decode_response(&self.rbuf[self.parsed..]) {
            Ok(Some((response, used))) => {
                self.parsed += used;
                Ok(Some(response))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(io::Error::new(ErrorKind::InvalidData, e.to_string())),
        }
    }
}

/// One TCP connection and the operation stream it carries.
pub struct Conn {
    inbox: Inbox,
    next_id: u64,
    pub ops: OpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr, ops: OpStream) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let inbox = Inbox { stream, chunk: vec![0; READ_CHUNK], rbuf: Vec::new(), parsed: 0 };
        Ok(Conn { inbox, next_id: 1, ops })
    }

    /// Runs one phase on this connection. `stagger` in `[0, 1)` offsets
    /// an open schedule so connections do not send in lockstep.
    fn run(&mut self, phase: &Phase, start: Instant, stagger: f64) -> io::Result<Tally> {
        let out = Outbox::new(&mut self.ops, &mut self.next_id, &self.inbox)?;
        let mut tally = match phase.ops_per_s {
            None => closed_loop(&mut self.inbox, out, phase, start)?,
            Some(rate) => open_loop(&mut self.inbox, out, phase, start, rate, stagger)?,
        };
        tally.elapsed = start.elapsed();
        Ok(tally)
    }
}

/// Runs one phase on every connection at once, each on a thread of its
/// own, and merges what they saw.
pub fn run_conns(conns: &mut [Conn], phase: &Phase) -> io::Result<Tally> {
    let start = Instant::now();
    let n = conns.len() as f64;
    std::thread::scope(|scope| {
        let running: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| scope.spawn(move || conn.run(phase, start, c as f64 / n)))
            .collect();
        let mut merged = Tally::default();
        for handle in running {
            merged.merge(handle.join().expect("generator thread panicked")?);
        }
        Ok(merged)
    })
}

fn closed_loop(
    inbox: &mut Inbox,
    mut out: Outbox<'_>,
    phase: &Phase,
    start: Instant,
) -> io::Result<Tally> {
    let mut tally = Tally::default();
    let mut flights: VecDeque<InFlight> = VecDeque::with_capacity(IN_FLIGHT);
    let mut issued_keys = 0u64;
    loop {
        let now = ns_since(start);
        while flights.len() < IN_FLIGHT && phase.issuing(now, issued_keys) {
            let flight = out.plan(now);
            issued_keys += flight.keys;
            tally.attempted += 1;
            flights.push_back(flight);
        }
        tally.wire_bytes += out.flush()?;
        if flights.is_empty() {
            return Ok(tally);
        }
        match inbox.fill()? {
            0 => return Err(hung()),
            n => tally.wire_bytes += n,
        }
        let at = ns_since(start);
        while let Some(reply) = inbox.next_reply()? {
            let flight = flights.pop_front().ok_or_else(unasked)?;
            tally.complete(phase, &flight, at, flight.answered_by(reply.id, &reply.body));
        }
    }
}

fn open_loop(
    inbox: &mut Inbox,
    mut out: Outbox<'_>,
    phase: &Phase,
    start: Instant,
    ops_per_s: f64,
    stagger: f64,
) -> io::Result<Tally> {
    let Stop::After(length) = phase.stop else { unreachable!("open phases are timed") };
    let end_ns = length.as_nanos() as u64;
    let interval_ns = 1e9 / ops_per_s;
    let due = |i: u64| ((i as f64 + stagger) * interval_ns) as u64;
    let (tx, rx) = mpsc::channel::<InFlight>();
    let sent = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    // Short read timeouts let the receiver notice the phase's end.
    inbox.stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut tally = Tally::default();

    std::thread::scope(|scope| -> io::Result<()> {
        let sender = scope.spawn(|| {
            let mut lag = Vec::new();
            let mut bytes = 0u64;
            let mut i = 0u64;
            let result = (|| -> io::Result<()> {
                while due(i) < end_ns {
                    let now = ns_since(start);
                    if due(i) > now {
                        std::thread::sleep(Duration::from_nanos(due(i) - now));
                        continue;
                    }
                    let first = i;
                    while due(i) <= now && due(i) < end_ns {
                        // The receiver gets the expectation before the
                        // bytes leave, so a reply always finds one.
                        tx.send(out.plan(due(i))).expect("receiver outlives the sender");
                        i += 1;
                    }
                    sent.store(i, Ordering::SeqCst);
                    bytes += out.flush()?;
                    let wrote = ns_since(start);
                    lag.extend((first..i).map(|j| wrote.saturating_sub(due(j))));
                }
                Ok(())
            })();
            sender_done.store(true, Ordering::SeqCst);
            result.map(|()| (lag, bytes))
        });

        let mut received = 0u64;
        // Set once the grace period ran out with requests unanswered.
        let mut gave_up: Option<Instant> = None;
        let outcome = loop {
            let got = match inbox.fill() {
                Ok(n) => n,
                Err(e) => break Err(e),
            };
            tally.wire_bytes += got;
            let at = ns_since(start);
            let drained = (|| -> io::Result<()> {
                while let Some(reply) = inbox.next_reply()? {
                    let flight = rx.try_recv().map_err(|_| unasked())?;
                    received += 1;
                    // Past the grace period the request is already counted
                    // as failed; its reply is only drained.
                    if gave_up.is_none() {
                        let ok = flight.answered_by(reply.id, &reply.body);
                        tally.complete(phase, &flight, at, ok);
                    }
                }
                Ok(())
            })();
            if let Err(e) = drained {
                break Err(e);
            }
            let done = sender_done.load(Ordering::SeqCst);
            let outstanding = sent.load(Ordering::SeqCst) - received;
            if done && outstanding == 0 {
                break Ok(());
            }
            if done && gave_up.is_none() && at > end_ns + OPEN_GRACE.as_nanos() as u64 {
                tally.failed += outstanding;
                gave_up = Some(Instant::now());
            }
            if gave_up.is_some_and(|since| since.elapsed() > REPLY_TIMEOUT) {
                break Err(hung());
            }
        };
        let (lag, bytes) = sender.join().expect("sender thread panicked")?;
        tally.send_lag = lag;
        tally.wire_bytes += bytes;
        tally.attempted = sent.load(Ordering::SeqCst);
        outcome
    })?;
    inbox.stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(tally)
}

/// The closed loop one layer down, on `conns` threads: requests go
/// straight into the batcher through `Engine::submit` and replies come
/// back on each connection's response channel. No sockets, no frames, no
/// reader or writer threads.
pub fn run_engine_conns<D: Device + 'static>(
    engine: &Engine<D>,
    w: &'static Workload,
    seed: u64,
    conns: usize,
    phase: &Phase,
) -> io::Result<Tally> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let running: Vec<_> = (0..conns)
            .map(|c| {
                let mut ops = OpStream::new(w, seed, c, conns);
                scope
                    .spawn(move || engine_closed_loop(engine, c as u64 + 1, &mut ops, phase, start))
            })
            .collect();
        let mut merged = Tally::default();
        for handle in running {
            merged.merge(handle.join().expect("generator thread panicked")?);
        }
        Ok(merged)
    })
}

fn engine_closed_loop<D: Device + 'static>(
    engine: &Engine<D>,
    conn: u64,
    ops: &mut OpStream,
    phase: &Phase,
    start: Instant,
) -> io::Result<Tally> {
    let replies = engine.register_conn(conn);
    let mut tally = Tally::default();
    let mut flights: VecDeque<InFlight> = VecDeque::with_capacity(IN_FLIGHT);
    let mut issued_keys = 0u64;
    loop {
        let now = ns_since(start);
        while flights.len() < IN_FLIGHT && phase.issuing(now, issued_keys) {
            let Planned { op, expect, kind } = ops.next_op();
            let id = tally.attempted + 1;
            let flight = InFlight { id, expect, kind, keys: op.ops() as u64, from_ns: now };
            issued_keys += flight.keys;
            tally.attempted += 1;
            flights.push_back(flight);
            engine.submit(conn, Request { id, op });
        }
        if flights.is_empty() {
            break;
        }
        let mut reply = replies.recv_timeout(REPLY_TIMEOUT).map_err(|_| hung())?;
        let at = ns_since(start);
        loop {
            let flight = flights.pop_front().ok_or_else(unasked)?;
            tally.complete(phase, &flight, at, flight.answered_by(reply.id, &reply.body));
            match replies.try_recv() {
                Ok(next) => reply = next,
                Err(_) => break,
            }
        }
    }
    engine.unregister_conn(conn);
    tally.elapsed = start.elapsed();
    Ok(tally)
}

/// Executes `op` on the store as the `clamd` batcher would and phrases
/// the outcome as the reply a client would have got.
pub fn apply<D: Device>(store: &StripedClam<D>, op: &Op) -> RespBody {
    let found = |value: Option<u64>| (value.is_some(), value.unwrap_or(0));
    let result = match op {
        Op::Insert { key, value } => store.insert(*key, *value).map(|_| RespBody::Inserted),
        Op::Lookup { key } => store.lookup(*key).map(|o| {
            let (found, value) = found(o.value);
            RespBody::Value { found, value }
        }),
        Op::Delete { key } => store.delete(*key).map(|()| RespBody::Deleted),
        Op::InsertBatch(pairs) => {
            store.insert_batch(pairs).map(|out| RespBody::InsertedBatch { count: out.ops as u32 })
        }
        Op::LookupBatch(keys) => store
            .lookup_batch(keys)
            .map(|out| RespBody::Values(out.outcomes.iter().map(|o| found(o.value)).collect())),
        Op::Flush | Op::Stats => unreachable!("the operation stream holds neither"),
    };
    result.unwrap_or_else(|e| RespBody::Error { code: ErrorCode::Internal, message: e.to_string() })
}

/// One phase of `engine-direct`: one caller thread, no sockets. A closed
/// phase calls back to back; an open phase starts each call when it is
/// due, or as soon after as the previous call returns. `calls` numbers
/// the store calls across phases, as request ids number frames.
pub fn direct_phase<D: Device>(
    store: &StripedClam<D>,
    ops: &mut OpStream,
    calls: &mut u64,
    phase: &Phase,
    start: Instant,
) -> Tally {
    let mut tally = Tally::default();
    let interval_ns = phase.ops_per_s.map(|rate| 1e9 / rate);
    let mut issued_keys = 0u64;
    for i in 0u64.. {
        let mut now = ns_since(start);
        let due = interval_ns.map_or(now, |interval| (i as f64 * interval) as u64);
        if !phase.issuing(due.max(now), issued_keys) {
            break;
        }
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
            now = ns_since(start);
        }
        if interval_ns.is_some() {
            tally.send_lag.push(now.saturating_sub(due));
        }
        let Planned { op, expect, kind } = ops.next_op();
        *calls += 1;
        let flight = InFlight { id: *calls, expect, kind, keys: op.ops() as u64, from_ns: due };
        issued_keys += flight.keys;
        tally.attempted += 1;
        let body = apply(store, &op);
        tally.complete(phase, &flight, ns_since(start), check(&flight.expect, &body));
    }
    tally.elapsed = start.elapsed();
    tally
}
