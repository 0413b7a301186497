//! The shard core alone (`batcher::core::tests`): the lead and gather
//! policy decision by decision, then every short arrival script over two
//! connections, two shards and two keys, with chunks of one and two
//! requests, leaders that poll between any two events, and store calls
//! that fail.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

use super::super::tests::{del, ins, look, MapStore};
use super::super::{run_flush, run_segment, stage, ConnEntry, Sink, Ticket};
use super::*;
use crate::proto::{ErrorCode, Op, Request, RespBody, Response};

impl<S> ShardCore<S> {
    /// The queue, front first.
    pub(in crate::batcher) fn queued(&self) -> impl Iterator<Item = &Submission> {
        self.queue.iter()
    }
}

/// A shard core and its leader's hand, driven as the shell drives them:
/// the stripe is in exactly one of the two.
struct Shard {
    core: ShardCore<MapStore>,
    hand: Option<MapStore>,
}

impl Shard {
    fn new() -> Self {
        Shard { core: ShardCore::new(MapStore::default()), hand: None }
    }

    /// Pushes a share; returns whether its pusher took the stripe, and
    /// with it the lead.
    fn push(&mut self, staged: Vec<Submission>) -> bool {
        let taken = self.core.push(staged);
        let leads = taken.is_some();
        if leads {
            assert!(self.hand.is_none(), "a second leader");
            self.hand = taken;
        }
        leads
    }

    /// The leader's next poll: its gather's submission count, or `None`
    /// where the poll took the stripe home.
    fn gather(&mut self, max_batch: usize) -> Option<usize> {
        let stripe = self.hand.take().expect("only the leader polls");
        let (stripe, steps) = self.core.poll(stripe, max_batch)?;
        self.hand = Some(stripe);
        Some(steps.iter().map(Step::submissions).sum())
    }

    /// Whether a leader holds the stripe, checking it is in one place.
    fn led(&self) -> bool {
        assert_ne!(self.hand.is_some(), self.core.home.is_some(), "one stripe, one place");
        self.hand.is_some()
    }
}

#[test]
fn the_poll_that_finds_the_queue_empty_gives_up_the_lead() {
    let mut shard = Shard::new();
    assert!(shard.push(vec![ins(1)]), "an unled shard's pusher takes its stripe");
    assert!(!shard.push(vec![look(2)]), "a led shard's pusher leaves it to its leader");
    assert_eq!(shard.gather(8), Some(2));
    // What arrives while a gather runs is the next gather.
    assert!(!shard.push(vec![del(3)]));
    shard.core.done(2, &ServerStats::new());
    assert!(shard.led(), "only a poll takes the stripe home");
    assert_eq!(shard.gather(8), Some(1));
    shard.core.done(1, &ServerStats::new());
    assert_eq!(shard.gather(8), None);
    assert!(!shard.led());
    assert!(shard.push(vec![ins(4)]), "the next pusher leads again");
    assert_eq!((shard.core.stats.batches, shard.core.stats.group_commit_waits), (2, 0));
}

#[test]
fn a_full_queue_fires_at_max_batch_without_waiting() {
    let mut shard = Shard::new();
    shard.push(vec![ins(1), ins(2), ins(3)]);
    assert_eq!(shard.gather(2), Some(2));
    // One left, under max_batch: it fires as soon as the leader polls.
    assert_eq!(shard.gather(2), Some(1));
    shard.push(vec![ins(4), ins(5)]);
    assert_eq!(shard.gather(2), Some(2));
    let stats = &shard.core.stats;
    assert_eq!((stats.batches, stats.batched_requests, stats.batch_histogram[2]), (3, 5, 2));
}

#[test]
fn a_gather_takes_at_least_one_submission() {
    // A `max_batch` of 0 would otherwise gather nothing, poll after poll.
    let mut shard = Shard::new();
    shard.push(vec![ins(1), ins(2)]);
    assert_eq!(shard.gather(0), Some(1));
    shard.core.done(1, &ServerStats::new());
    assert_eq!(shard.gather(0), Some(1));
    assert_eq!((shard.core.stats.batches, shard.core.stats.batch_high_water), (2, 1));
}

#[test]
fn closing_drains_the_queue_without_lingering_then_exits() {
    let mut shard = Shard::new();
    shard.push((1..=5).map(ins).collect());
    assert_eq!(shard.core.close(), 5, "close reports the depth it found");
    for gathered in [2, 2, 1] {
        assert!(shard.core.awaited(), "every poll of a closing shard wakes shutdown");
        assert_eq!(shard.gather(2), Some(gathered));
        shard.core.done(gathered, &ServerStats::new());
    }
    // The leader exits: the drained shard's stripe is home, and shutdown,
    // which waits for that, is woken.
    assert_eq!(shard.gather(2), None);
    assert!(shard.core.closing && !shard.led());
}

#[test]
fn depth_is_queued_plus_in_flight_and_idle_needs_both_empty() {
    let mut shard = Shard::new();
    assert_eq!(shard.core.depth(), 0);
    shard.push(vec![ins(1), look(2), del(3)]);
    assert_eq!(shard.core.depth(), 3);
    assert_eq!(shard.gather(2), Some(2));
    assert_eq!(shard.core.depth(), 3, "two in flight, one queued");
    let mut served = ServerStats::new();
    served.lookups = 1;
    shard.core.done(2, &served);
    assert_eq!((shard.core.depth(), shard.core.stats.lookups), (1, 1));
    assert_eq!(shard.gather(2), Some(1));
    assert_eq!(shard.core.depth(), 1, "in flight alone keeps it busy");
    shard.core.done(1, &ServerStats::new());
    assert_eq!(shard.core.depth(), 0);
}

#[test]
fn an_abandoned_gather_is_retired_and_its_leader_polls_on() {
    let mut shard = Shard::new();
    shard.push(vec![ins(1), ins(2), ins(3)]);
    assert_eq!(shard.gather(2), Some(2));
    shard.core.abandon();
    assert_eq!((shard.core.depth(), shard.led()), (1, true), "one queued, and still led");
    assert!(!shard.push(vec![ins(4)]), "a pusher leaves it to the leader");
    assert_eq!(shard.gather(8), Some(2));
    shard.core.done(2, &ServerStats::new());
    assert_eq!(shard.gather(8), None);
    assert!(shard.push(vec![ins(5)]), "the drained shard's next pusher leads it");
    assert_eq!(shard.core.stats.leads, 2);
}

#[test]
fn a_stats_ask_is_read_at_home_or_answered_by_the_leaders_next_poll() {
    let mut shard = Shard::new();
    // Home: read in place, nothing asked of anyone.
    shard.core.ask_stats();
    assert!(shard.core.stripe_stats().is_some() && !shard.core.awaited());
    shard.push(vec![ins(1), ins(2)]);
    assert_eq!(shard.gather(1), Some(1));
    assert!(shard.core.lent.is_none(), "a poll nobody asked of lends nothing");
    // Away: the ask waits for the leader's next poll, which lends a copy
    // and keeps the stripe.
    shard.core.ask_stats();
    assert!(shard.core.stripe_stats().is_none() && shard.core.awaited());
    shard.hand.as_mut().unwrap().stats.inserts.record(flashsim::SimDuration::ZERO);
    assert_eq!(shard.gather(1), Some(1));
    let lent = shard.core.stripe_stats().expect("the poll answered the ask");
    assert_eq!(lent.inserts.len(), 1, "the copy is the stripe's ledger as the poll found it");
    assert!(!shard.core.awaited() && shard.led());
    // A later ask drops that copy, and the poll that takes the stripe home
    // lends one too: a reader it wakes may find the stripe away again.
    shard.core.ask_stats();
    assert!(shard.core.stripe_stats().is_none());
    shard.hand.as_mut().unwrap().stats.inserts.record(flashsim::SimDuration::ZERO);
    assert_eq!(shard.gather(1), None);
    assert!(shard.push(vec![ins(3)]));
    assert_eq!(shard.core.stripe_stats().map(|lent| lent.inserts.len()), Some(2));
}

// --- every short arrival script ---------------------------------------

/// One request a script's connection sends. Key k lives on shard k.
#[derive(Clone, Copy, Debug)]
enum Req {
    Insert(Key),
    Lookup(Key),
    Delete(Key),
    /// `LOOKUP_BATCH` of both keys: a part on each shard.
    LookupBoth,
    /// `INSERT_BATCH` of both keys: a part on each shard.
    InsertBoth,
    /// A part on each shard.
    Flush,
}

/// What a connection's socket read may deliver: one request, or a chunk
/// of two on one shard — two lookups, a lookup ahead of a write of its
/// key, and a lookup behind one, which must read the write.
const ARRIVALS: [&[Req]; 12] = [
    &[Req::Insert(0)],
    &[Req::Insert(1)],
    &[Req::Lookup(0)],
    &[Req::Lookup(1)],
    &[Req::Delete(0)],
    &[Req::Delete(1)],
    &[Req::LookupBoth],
    &[Req::InsertBoth],
    &[Req::Flush],
    &[Req::Lookup(0), Req::Lookup(0)],
    &[Req::Lookup(0), Req::Insert(0)],
    &[Req::Insert(0), Req::Lookup(0)],
];

#[derive(Clone, Copy, Debug)]
enum Event {
    /// Connection `.0` sends a chunk of requests.
    Arrive(usize, &'static [Req]),
    /// Shard `.0`'s leader polls: it gathers, or, on an empty queue, takes
    /// the stripe home.
    Poll(usize),
    /// The next step of shard `.0`'s gather returns from the store.
    Complete(usize),
    /// The same, but the step's first store call takes effect and then
    /// fails.
    Fail(usize),
    /// A mutant's second lock acquisition: shard `.0`'s leader takes the
    /// stripe home after a poll found the queue empty.
    Release(usize),
    /// A mutant's second lock acquisition: connection `.0`'s reader
    /// pushes the next share it staged, and takes the stripe if it saw it
    /// home before.
    Push(usize),
}

impl Event {
    /// What the event spends of a script's length: one per request it
    /// sends, one per gather or completion. A poll that takes the stripe
    /// home and a mutant's second lock acquisition are free: a push comes
    /// before each.
    fn length(self, world: &World) -> usize {
        match self {
            Event::Arrive(_, reqs) => reqs.len(),
            Event::Poll(shard) => usize::from(world.cores[shard].depth() > 0),
            Event::Complete(_) | Event::Fail(_) => 1,
            Event::Release(_) | Event::Push(_) => 0,
        }
    }
}

/// The largest gather a script's leaders take.
const MAX_BATCH: usize = 2;

fn connection() -> (Arc<ConnEntry>, mpsc::Receiver<Response>) {
    let (tx, rx) = mpsc::channel();
    (ConnEntry::new(Sink::Channel(tx)), rx)
}

fn value_body(value: Option<Value>) -> RespBody {
    RespBody::Value { found: value.is_some(), value: value.unwrap_or(0) }
}

/// How a script is driven: as the shell drives the core, or with a bug
/// the checks must catch — each gather retired as it fires rather than
/// step by step after its store calls; a leader that takes the stripe home
/// in a lock acquisition of its own after the poll that found the queue
/// empty; or a reader that looks for the stripe at home in one lock
/// acquisition and pushes its share in another.
#[derive(Clone, Copy)]
struct Driver {
    retire_at_gather: bool,
    release_apart: bool,
    push_apart: bool,
}

const SHELL: Driver = Driver { retire_at_gather: false, release_apart: false, push_apart: false };

/// Two shard cores, each with its own map for a stripe, two connections,
/// driven one event at a time the way the shell's readers and leaders
/// drive them, single-threaded: a shard's leader is whichever reader took
/// its stripe, and its polls interleave with everything else.
struct World {
    driver: Driver,
    cores: [ShardCore<MapStore>; 2],
    /// Each shard's stripe while a leader holds it.
    held: [Option<MapStore>; 2],
    /// Each shard's gathered steps that have not returned, in order.
    running: [VecDeque<Step>; 2],
    /// Under `release_apart`, each shard whose leader's poll found the
    /// queue empty and that has not taken the stripe home yet.
    releasing: [bool; 2],
    /// Under `push_apart`, each connection's staged shares not yet pushed:
    /// the shard, the share and whether the reader saw the stripe home.
    pushing: [VecDeque<(usize, Vec<Submission>, bool)>; 2],
    conns: [(Arc<ConnEntry>, mpsc::Receiver<Response>); 2],
    /// Each key's value once every write that has arrived took effect:
    /// the register a lookup is judged against when it arrives.
    model: [Option<Value>; 2],
    next_value: Value,
    /// Per connection, the response each request must get, by id; a
    /// request with a part in a failed store call is owed the `Internal`
    /// error whose message ends with the first such call's fault tag.
    expected: [Vec<RespBody>; 2],
    /// Per connection, the responses received so far.
    received: [usize; 2],
    /// Faults injected so far; a fault's tag is its number.
    faults: u64,
    /// FLUSHes counted as completed without error.
    flushes: AtomicU64,
}

impl World {
    fn new(driver: Driver) -> Self {
        World {
            driver,
            cores: [(); 2].map(|_| ShardCore::new(MapStore::default())),
            held: Default::default(),
            running: Default::default(),
            releasing: [false; 2],
            pushing: Default::default(),
            conns: [connection(), connection()],
            model: [None; 2],
            next_value: 0,
            expected: Default::default(),
            received: [0; 2],
            faults: 0,
            flushes: AtomicU64::new(0),
        }
    }

    fn enabled(&self) -> Vec<Event> {
        // The connections are interchangeable, so connection 1 speaks
        // only once connection 0 has: each script is run once, not twice.
        // A reader sends its next chunk once it has pushed the last, and,
        // so that requests reach their shards in the order they arrive in,
        // nothing arrives while a push is pending.
        let pushing = self.pushing.iter().any(|shares| !shares.is_empty());
        let conns = if pushing {
            0
        } else if self.expected[0].is_empty() {
            1
        } else {
            2
        };
        let mut events: Vec<Event> =
            (0..conns).flat_map(|conn| ARRIVALS.map(|reqs| Event::Arrive(conn, reqs))).collect();
        for shard in 0..2 {
            if self.releasing[shard] {
                events.push(Event::Release(shard));
            } else if !self.running[shard].is_empty() {
                events.extend([Event::Complete(shard), Event::Fail(shard)]);
            } else if self.held[shard].is_some() {
                events.push(Event::Poll(shard));
            }
        }
        events.extend((0..2).filter(|&conn| !self.pushing[conn].is_empty()).map(Event::Push));
        events
    }

    fn apply(&mut self, event: Event) -> Result<(), String> {
        match event {
            Event::Arrive(conn, reqs) => self.arrive(conn, reqs),
            Event::Poll(shard) => self.poll(shard),
            Event::Complete(shard) => self.complete(shard, false),
            Event::Fail(shard) => self.complete(shard, true),
            Event::Release(shard) => {
                self.releasing[shard] = false;
                self.cores[shard].home = self.held[shard].take();
            }
            Event::Push(conn) => {
                let (shard, share, unled) = self.pushing[conn].pop_front().expect("a share");
                let core = &mut self.cores[shard];
                core.queue.extend(share);
                if unled && core.home.is_some() {
                    self.held[shard] = core.home.take();
                }
            }
        }
        self.check()
    }

    fn arrive(&mut self, conn: usize, reqs: &[Req]) {
        let mut chunk = Vec::new();
        for &req in reqs {
            let id = self.expected[conn].len() as u64;
            let (op, answer) = match req {
                Req::Insert(key) => {
                    self.next_value += 1;
                    self.model[key as usize] = Some(self.next_value);
                    (Op::Insert { key, value: self.next_value }, RespBody::Inserted)
                }
                Req::Lookup(key) => (Op::Lookup { key }, value_body(self.model[key as usize])),
                Req::Delete(key) => {
                    self.model[key as usize] = None;
                    (Op::Delete { key }, RespBody::Deleted)
                }
                Req::InsertBoth => {
                    let pairs = [0, 1].map(|key: Key| {
                        self.next_value += 1;
                        self.model[key as usize] = Some(self.next_value);
                        (key, self.next_value)
                    });
                    (Op::InsertBatch(pairs.to_vec()), RespBody::InsertedBatch { count: 2 })
                }
                Req::LookupBoth => {
                    let values = self.model.map(|value| (value.is_some(), value.unwrap_or(0)));
                    (Op::LookupBatch(vec![0, 1]), RespBody::Values(values.to_vec()))
                }
                Req::Flush => (Op::Flush, RespBody::Flushed),
            };
            self.expected[conn].push(answer);
            chunk.push(Request { id, op });
        }
        // As `Shared::submit_chunk` pushes each shard its share; a shard
        // it comes to lead polls as events of its own.
        let staged = stage(&self.conns[conn].0, chunk.into_iter(), 2, |key| key as usize);
        for (shard, share) in staged.into_iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            if self.driver.push_apart {
                let unled = self.cores[shard].home.is_some();
                self.pushing[conn].push_back((shard, share, unled));
            } else if let Some(stripe) = self.cores[shard].push(share) {
                self.held[shard] = Some(stripe);
            }
        }
    }

    /// `shard`'s leader polls: its gather's steps start running, or, on
    /// an empty queue, it takes the stripe home.
    fn poll(&mut self, shard: usize) {
        if self.driver.release_apart && self.cores[shard].depth() == 0 {
            self.releasing[shard] = true;
            return;
        }
        let stripe = self.held[shard].take().expect("only the leader polls");
        let Some((stripe, steps)) = self.cores[shard].poll(stripe, MAX_BATCH) else { return };
        self.held[shard] = Some(stripe);
        if self.driver.retire_at_gather {
            let gathered = steps.iter().map(Step::submissions).sum();
            self.cores[shard].done(gathered, &ServerStats::new());
        }
        self.running[shard].extend(steps);
    }

    /// Runs the next step of `shard`'s gather against the map its leader
    /// holds, as `Shared::execute` runs it against the stripe; with
    /// `fault`, its first store call fails.
    fn complete(&mut self, shard: usize, fault: bool) {
        let step = self.running[shard].pop_front().expect("a gathered step");
        if fault {
            self.inject(shard, &step);
        }
        let retired = if self.driver.retire_at_gather { 0 } else { step.submissions() };
        let core = &mut self.cores[shard];
        let retire = |served: &ServerStats| core.done(retired, served);
        let store = self.held[shard].as_mut().expect("a leader runs its gather");
        match &step {
            Step::Segment(segment) => run_segment(store, segment, retire),
            Step::Flush(ticket) => run_flush(store, ticket, &self.flushes, retire),
            Step::Stats(_) => unreachable!("scripts send no STATS"),
        }
    }

    /// Arms a fault on the first store call `step` makes — its inserts',
    /// else its lookups', else its first delete's, else its flush — and
    /// owes every request with a part in that call the fault's error,
    /// unless an earlier fault got there first.
    fn inject(&mut self, shard: usize, step: &Step) {
        self.faults += 1;
        let tag = format!("fault {}", self.faults);
        let failed: Vec<&Ticket> = match step {
            Step::Segment(Segment { inserts, .. }) if !inserts.is_empty() => {
                inserts.iter().map(|part| &part.ticket).collect()
            }
            Step::Segment(Segment { lookups, .. }) if !lookups.is_empty() => {
                lookups.iter().map(|part| &part.ticket).collect()
            }
            Step::Segment(Segment { deletes, .. }) => {
                deletes.iter().take(1).map(|part| &part.ticket).collect()
            }
            Step::Flush(ticket) => vec![ticket],
            Step::Stats(_) => unreachable!("scripts send no STATS"),
        };
        for ticket in failed {
            let conn = (0..2).find(|&conn| Arc::ptr_eq(&ticket.conn, &self.conns[conn].0));
            // A script connection numbers its requests from 0, as their ids.
            let owed = &mut self.expected[conn.expect("a script connection")][ticket.seq as usize];
            if !matches!(owed, RespBody::Error { .. }) {
                *owed = RespBody::Error { code: ErrorCode::Internal, message: tag.clone() };
            }
        }
        self.held[shard].as_mut().expect("a leader runs its gather").fault = Some(tag);
    }

    /// Takes every response delivered so far and holds it to the
    /// contract, then checks that each shard's stripe is in one place,
    /// home or in its one leader's hand, and the in-flight invariant: a
    /// shard's depth counts every gathered step that has not returned.
    fn check(&mut self) -> Result<(), String> {
        for conn in 0..2 {
            while let Ok(response) = self.conns[conn].1.try_recv() {
                let due = self.received[conn];
                if response.id != due as u64 {
                    return Err(format!(
                        "connection {conn} got response {} when {due} was due",
                        response.id
                    ));
                }
                let Some(answer) = self.expected[conn].get(due) else {
                    return Err(format!("connection {conn} got a response it never asked for"));
                };
                let kept = match (&response.body, answer) {
                    (
                        RespBody::Error { code: ErrorCode::Internal, message },
                        RespBody::Error { message: fault, .. },
                    ) => message.ends_with(&format!(": {fault}")),
                    (body, answer) => body == answer,
                };
                if !kept {
                    return Err(format!(
                        "connection {conn} request {due} answered {:?}; the register says {answer:?}",
                        response.body
                    ));
                }
                self.received[conn] += 1;
            }
        }
        for shard in 0..2 {
            match (self.cores[shard].home.is_some(), self.held[shard].is_some()) {
                (true, false) | (false, true) => {}
                (true, true) => return Err(format!("shard {shard}'s stripe is home and led")),
                (false, false) => return Err(format!("shard {shard}'s stripe is lost")),
            }
            let unretired: usize = self.running[shard].iter().map(Step::submissions).sum();
            if unretired > 0 && self.cores[shard].depth() == 0 {
                return Err(format!("shard {shard} idle with {unretired} gathered unretired"));
            }
        }
        Ok(())
    }

    /// Lets every reader push what it staged and every leader run until it
    /// takes the stripe home; then no shard may hold a request without a
    /// leader, and every request must have had its one response.
    fn quiesce(&mut self) -> Result<(), String> {
        for conn in 0..2 {
            while !self.pushing[conn].is_empty() {
                self.apply(Event::Push(conn))?;
            }
        }
        for shard in 0..2 {
            // A leader that never takes the stripe home fails, not hangs.
            for polled in 0.. {
                if self.held[shard].is_none() {
                    break;
                }
                if polled == 64 {
                    return Err(format!("shard {shard}'s leader never took the stripe home"));
                }
                let event = if self.releasing[shard] {
                    Event::Release(shard)
                } else if !self.running[shard].is_empty() {
                    Event::Complete(shard)
                } else {
                    Event::Poll(shard)
                };
                self.apply(event)?;
            }
            let stranded = self.cores[shard].depth();
            if stranded > 0 {
                return Err(format!("shard {shard} holds {stranded} queued without a leader"));
            }
        }
        for conn in 0..2 {
            let (received, sent) = (self.received[conn], self.expected[conn].len());
            if received != sent {
                return Err(format!(
                    "connection {conn} got {received} responses to {sent} requests"
                ));
            }
        }
        let clean = self.expected.iter().flatten().filter(|owed| **owed == RespBody::Flushed);
        let (clean, counted) = (clean.count() as u64, self.flushes.load(Ordering::Relaxed));
        if counted != clean {
            return Err(format!("{counted} FLUSHes counted; {clean} completed without error"));
        }
        Ok(())
    }
}

/// Runs `script` and then every extension of it up to `more` longer (see
/// [`Event::length`]), each from a fresh world, checking after every
/// event and again once the world is shut down and drained. Returns the number of
/// scripts run, or the first failing script and what failed.
fn explore(
    driver: Driver,
    script: &mut Vec<Event>,
    more: usize,
) -> Result<u64, (Vec<Event>, String)> {
    let mut world = World::new(driver);
    for (i, &event) in script.iter().enumerate() {
        world.apply(event).map_err(|failure| (script[..=i].to_vec(), failure))?;
    }
    let enabled: Vec<(Event, usize)> =
        world.enabled().into_iter().map(|event| (event, event.length(&world))).collect();
    world.quiesce().map_err(|failure| (script.clone(), format!("after the drain: {failure}")))?;
    let mut scripts = 1;
    for (event, length) in enabled.into_iter().filter(|&(_, length)| length <= more) {
        script.push(event);
        scripts += explore(driver, script, more - length)?;
        script.pop();
    }
    Ok(scripts)
}

#[test]
fn every_short_arrival_script_keeps_the_contract() {
    // Requests, gathers and completions a script may hold (a chunk of two
    // counts two): debug builds run the shorter bound.
    let length = if cfg!(debug_assertions) { 4 } else { 5 };
    match explore(SHELL, &mut Vec::new(), length) {
        Ok(scripts) => println!("{scripts} scripts of length up to {length}, each also shut down"),
        Err((script, failure)) => panic!("{failure}\nscript: {script:?}"),
    }
}

#[test]
fn retiring_a_gather_as_it_fires_is_caught() {
    let driver = Driver { retire_at_gather: true, ..SHELL };
    let Err((script, failure)) = explore(driver, &mut Vec::new(), 4) else {
        panic!("no script caught early retirement");
    };
    println!("caught: {failure}\nscript: {script:?}");
    assert!(failure.contains("idle with"), "{failure}");
}

#[test]
fn a_lead_given_up_apart_from_its_poll_or_skipped_by_a_pusher_is_caught() {
    let apart = [
        (Driver { release_apart: true, ..SHELL }, "a stripe taken home apart from its empty poll"),
        (Driver { push_apart: true, ..SHELL }, "a push apart from its look for the stripe"),
    ];
    for (driver, what) in apart {
        let Err((script, failure)) = explore(driver, &mut Vec::new(), 4) else {
            panic!("no script caught {what}");
        };
        println!("caught {what}: {failure}\nscript: {script:?}");
        assert!(failure.contains("queued without a leader"), "{failure}");
    }
}
