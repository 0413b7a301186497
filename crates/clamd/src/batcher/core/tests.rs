//! The shard core on synthetic instants (`batcher::core::tests`): the
//! linger and gather policy decision by decision, then every short
//! arrival script over two connections, two shards and two keys, with
//! chunks of one and two requests and store calls that fail.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bufferhash::BufferHashError;

use super::super::tests::{del, ins, look};
use super::super::{run_flush, run_segment, stage, ConnEntry, Sink, StepStore, Ticket};
use super::*;
use crate::proto::{ErrorCode, Op, Request, RespBody, Response};

const LINGER: Duration = Duration::from_micros(100);

fn config(max_batch: usize) -> BatcherConfig {
    BatcherConfig { max_batch, linger: LINGER, ..BatcherConfig::default() }
}

/// A poll's decision, a gather standing for its submission count.
#[derive(Debug, PartialEq)]
enum Decision {
    Sleep,
    SleepUntil(Instant),
    Run(usize),
    Exit,
}

impl ShardCore {
    /// The queue, front first.
    pub(in crate::batcher) fn queued(&self) -> impl Iterator<Item = &Submission> {
        self.queue.iter()
    }
}

fn decide(core: &mut ShardCore, now: Instant, config: &BatcherConfig) -> Decision {
    match core.poll(now, config) {
        Poll::Sleep => Decision::Sleep,
        Poll::SleepUntil(deadline) => Decision::SleepUntil(deadline),
        Poll::Run(steps) => Decision::Run(steps.iter().map(Step::submissions).sum()),
        Poll::Exit => Decision::Exit,
    }
}

#[test]
fn the_linger_deadline_runs_from_first_sight_of_a_non_empty_queue() {
    let config = config(8);
    let t0 = Instant::now();
    let mut core = ShardCore::default();
    assert_eq!(decide(&mut core, t0, &config), Decision::Sleep);
    core.push(vec![ins(1)]);
    // The thread first sees the arrival a while later; the linger runs
    // from then.
    let seen = t0 + Duration::from_micros(30);
    assert_eq!(decide(&mut core, seen, &config), Decision::SleepUntil(seen + LINGER));
    // Later arrivals and early wake-ups do not move the deadline.
    core.push(vec![look(2)]);
    assert_eq!(decide(&mut core, seen + LINGER / 2, &config), Decision::SleepUntil(seen + LINGER));
    assert_eq!(decide(&mut core, seen + LINGER, &config), Decision::Run(2));
    // The next arrival starts a linger of its own.
    core.done(2, &ServerStats::new());
    core.push(vec![del(3)]);
    let later = seen + 3 * LINGER;
    assert_eq!(decide(&mut core, later, &config), Decision::SleepUntil(later + LINGER));
    assert_eq!(core.stats.batches, 1);
}

#[test]
fn a_full_queue_fires_at_max_batch_without_waiting() {
    let config = config(2);
    let t0 = Instant::now();
    let mut core = ShardCore::default();
    core.push(vec![ins(1), ins(2), ins(3)]);
    assert_eq!(decide(&mut core, t0, &config), Decision::Run(2));
    // One left, under max_batch: it lingers until a second arrives.
    assert_eq!(decide(&mut core, t0, &config), Decision::SleepUntil(t0 + LINGER));
    core.push(vec![ins(4)]);
    assert_eq!(decide(&mut core, t0 + LINGER / 4, &config), Decision::Run(2));
    let stats = &core.stats;
    assert_eq!((stats.batches, stats.batched_requests, stats.batch_histogram[2]), (2, 4, 2));
}

#[test]
fn a_gather_waited_iff_its_thread_slept_on_the_deadline() {
    let t0 = Instant::now();
    let later = t0 + LINGER / 2;
    // (max_batch, linger, queued at first sight, close before firing, arrivals
    // while lingering, fired at, waited)
    let cases = [
        (8, LINGER, 1, false, 0, t0 + LINGER, true),
        (2, LINGER, 2, false, 0, t0, false),
        (2, LINGER, 1, false, 1, later, true),
        (8, Duration::ZERO, 1, false, 0, t0, false),
        (8, LINGER, 1, true, 0, t0, false),
    ];
    for (max_batch, linger, queued, close, arrivals, fired_at, waited) in cases {
        let config = BatcherConfig { max_batch, linger, ..BatcherConfig::default() };
        let mut core = ShardCore::default();
        core.push((0..queued).map(ins).collect());
        if close {
            core.close();
        }
        if fired_at > t0 {
            assert_eq!(decide(&mut core, t0, &config), Decision::SleepUntil(t0 + linger));
        }
        core.push((0..arrivals).map(ins).collect());
        let gathered = (queued + arrivals) as usize;
        assert_eq!(decide(&mut core, fired_at, &config), Decision::Run(gathered));
        assert_eq!(core.stats.group_commit_waits, u64::from(waited), "{max_batch} {queued}");
    }
    // Closing in the middle of a linger fires at once; the gather waited.
    let config = config(8);
    let mut core = ShardCore::default();
    core.push(vec![ins(1)]);
    assert_eq!(decide(&mut core, t0, &config), Decision::SleepUntil(t0 + LINGER));
    core.close();
    assert_eq!(decide(&mut core, later, &config), Decision::Run(1));
    assert_eq!(core.stats.group_commit_waits, 1);
}

#[test]
fn a_gather_takes_at_least_one_submission() {
    // A `max_batch` of 0 would otherwise gather nothing, poll after poll.
    let config = config(0);
    let t0 = Instant::now();
    let mut core = ShardCore::default();
    core.push(vec![ins(1), ins(2)]);
    assert_eq!(decide(&mut core, t0, &config), Decision::Run(1));
    core.done(1, &ServerStats::new());
    assert_eq!(decide(&mut core, t0, &config), Decision::Run(1));
    assert_eq!((core.stats.batches, core.stats.batch_high_water), (2, 1));
}

#[test]
fn closing_drains_the_queue_without_lingering_then_exits() {
    let config = config(2);
    let t0 = Instant::now();
    let mut core = ShardCore::default();
    core.push((1..=5).map(ins).collect());
    assert_eq!(core.close(), 5, "close reports the depth it found");
    for gathered in [2, 2, 1] {
        assert_eq!(decide(&mut core, t0, &config), Decision::Run(gathered));
        core.done(gathered, &ServerStats::new());
    }
    assert_eq!(decide(&mut core, t0, &config), Decision::Exit);
    // An idle core exits as soon as it is closed.
    let mut idle = ShardCore::default();
    assert_eq!(decide(&mut idle, t0, &config), Decision::Sleep);
    idle.close();
    assert_eq!(decide(&mut idle, t0, &config), Decision::Exit);
}

#[test]
fn depth_is_queued_plus_in_flight_and_idle_needs_both_empty() {
    let config = config(2);
    let t0 = Instant::now();
    let mut core = ShardCore::default();
    assert!(core.idle());
    core.push(vec![ins(1), look(2), del(3)]);
    assert_eq!((core.depth(), core.idle()), (3, false));
    assert_eq!(decide(&mut core, t0, &config), Decision::Run(2));
    assert_eq!((core.depth(), core.idle()), (3, false), "two in flight, one queued");
    let mut served = ServerStats::new();
    served.lookups = 1;
    core.done(2, &served);
    assert_eq!((core.depth(), core.idle(), core.stats.lookups), (1, false, 1));
    assert_eq!(decide(&mut core, t0 + LINGER, &config), Decision::SleepUntil(t0 + 2 * LINGER));
    assert_eq!(decide(&mut core, t0 + 2 * LINGER, &config), Decision::Run(1));
    assert_eq!((core.depth(), core.idle()), (1, false), "in flight alone keeps it busy");
    core.done(1, &ServerStats::new());
    assert_eq!((core.depth(), core.idle()), (0, true));
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
/// of two — a run of two lookups on one shard, a run ahead of a write of
/// its key that the same chunk stages for the shard, and a lookup behind
/// such a write, which must not lead.
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
    /// Shard `.0`'s gather fires: at once on a full queue, else at its
    /// linger deadline.
    Fire(usize),
    /// The next step of shard `.0`'s gather returns from the store.
    Complete(usize),
    /// The same, but the step's first store call takes effect and then
    /// fails.
    Fail(usize),
}

impl Event {
    /// What the event spends of a script's length: one per request it
    /// sends, one per firing or completion.
    fn length(self) -> usize {
        match self {
            Event::Arrive(_, reqs) => reqs.len(),
            Event::Fire(_) | Event::Complete(_) | Event::Fail(_) => 1,
        }
    }
}

/// The sequential map a script's steps run against. A call made while
/// `fault` holds a tag takes effect, then fails with the tag: nothing is
/// promised of a failed write's effect, so this one keeps the register
/// the arrival model's.
#[derive(Default)]
struct MapStore {
    map: RefCell<HashMap<Key, Value>>,
    fault: Cell<Option<String>>,
}

impl MapStore {
    fn call<T>(&self, effect: impl FnOnce(&mut HashMap<Key, Value>) -> T) -> bufferhash::Result<T> {
        let done = effect(&mut self.map.borrow_mut());
        match self.fault.take() {
            Some(tag) => Err(BufferHashError::InvalidConfig(tag)),
            None => Ok(done),
        }
    }
}

impl StepStore for MapStore {
    fn insert_batch(&self, pairs: &[(Key, Value)]) -> bufferhash::Result<()> {
        self.call(|map| map.extend(pairs.iter().copied()))
    }

    fn lookup_batch(&self, keys: &[Key]) -> bufferhash::Result<Vec<Option<Value>>> {
        self.call(|map| keys.iter().map(|key| map.get(key).copied()).collect())
    }

    fn delete(&self, key: Key) -> bufferhash::Result<()> {
        self.call(|map| {
            map.remove(&key);
        })
    }

    fn flush_all(&self) -> bufferhash::Result<()> {
        self.call(|_| ())
    }
}

fn connection() -> (Arc<ConnEntry>, mpsc::Receiver<Response>) {
    let (tx, rx) = mpsc::channel();
    (ConnEntry::new(Sink::Channel(tx)), rx)
}

fn value_body(value: Option<Value>) -> RespBody {
    RespBody::Value { found: value.is_some(), value: value.unwrap_or(0) }
}

/// Who decides whether an arrival leads its shard: the core, or a
/// mutant of its rule.
type Lead = fn(&mut ShardCore, Vec<Submission>) -> Option<Led>;

/// How a script is driven: as the shell drives the core, or with a bug
/// the checks must catch — each gather retired as it fires rather than
/// step by step after its store calls, with or without the in-flight
/// invariant, so the contract checks are seen to catch it too; or a lead
/// rule other than the core's.
#[derive(Clone, Copy)]
struct Driver {
    retire_at_gather: bool,
    check_idle: bool,
    lead: Lead,
}

const SHELL: Driver = Driver { retire_at_gather: false, check_idle: true, lead: ShardCore::lead };

/// A mutant lead rule: the core's, on a shard taken to be idle whatever
/// it holds.
fn lead_when_busy(core: &mut ShardCore, staged: Vec<Submission>) -> Option<Led> {
    let queued = std::mem::take(&mut core.queue);
    let in_flight = std::mem::replace(&mut core.in_flight, 0);
    let led = core.lead(staged);
    (core.queue, core.in_flight) = (queued, in_flight);
    led
}

/// A mutant lead rule: on an idle shard every scalar lookup of the chunk
/// leads, those behind a write of the chunk included.
fn lead_every_lookup(core: &mut ShardCore, staged: Vec<Submission>) -> Option<Led> {
    let scalar = |s: &Submission| {
        matches!(s, Submission::Lookup(LookupPart { keys: OneOrMany::One(_), .. }))
    };
    if !core.idle() {
        return core.lead(staged);
    }
    let (lookups, rest): (Vec<_>, Vec<_>) = staged.into_iter().partition(scalar);
    let (run, _) = core.lead(lookups)?;
    Some((run, rest))
}

/// Two shard cores, two connections and a map, driven one event at a
/// time the way the thread shell drives them, single-threaded.
struct World {
    driver: Driver,
    config: BatcherConfig,
    now: Instant,
    cores: [ShardCore; 2],
    /// Each shard's gathered steps that have not returned, in order.
    running: [VecDeque<Step>; 2],
    store: MapStore,
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
            config: config(2),
            now: Instant::now(),
            cores: Default::default(),
            running: Default::default(),
            store: MapStore::default(),
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
        let conns = if self.expected[0].is_empty() { 1 } else { 2 };
        let mut events: Vec<Event> =
            (0..conns).flat_map(|conn| ARRIVALS.map(|reqs| Event::Arrive(conn, reqs))).collect();
        for shard in 0..2 {
            if self.running[shard].is_empty() {
                // Nothing in flight, so the depth is what is queued.
                if self.cores[shard].depth() > 0 {
                    events.push(Event::Fire(shard));
                }
            } else {
                events.extend([Event::Complete(shard), Event::Fail(shard)]);
            }
        }
        events
    }

    fn apply(&mut self, event: Event) -> Result<(), String> {
        match event {
            Event::Arrive(conn, reqs) => self.arrive(conn, reqs),
            Event::Fire(shard) => self.gather(shard)?,
            Event::Complete(shard) => self.complete(shard, false),
            Event::Fail(shard) => self.complete(shard, true),
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
        // As `Engine::submit_chunk` hands each shard its share.
        let staged = stage(&self.conns[conn].0, chunk.into_iter(), 2, |key| key as usize);
        let mut held = Vec::new();
        for (shard, staged) in staged.into_iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            let core = &mut self.cores[shard];
            let Some((run, rest)) = (self.driver.lead)(core, staged) else { continue };
            if !run.lookups.is_empty() {
                run_segment(&self.store, &run, |served| core.count_led(served));
            }
            held.push((shard, rest));
        }
        for (shard, rest) in held {
            self.cores[shard].push(rest);
        }
    }

    /// Polls `shard` until its gather fires, jumping the clock to the
    /// linger deadline if there is one.
    fn gather(&mut self, shard: usize) -> Result<(), String> {
        let mut poll = self.cores[shard].poll(self.now, &self.config);
        if let Poll::SleepUntil(deadline) = poll {
            self.now = deadline;
            poll = self.cores[shard].poll(self.now, &self.config);
        }
        let Poll::Run(steps) = poll else {
            return Err(format!("shard {shard} did not gather its queue"));
        };
        if self.driver.retire_at_gather {
            let gathered = steps.iter().map(Step::submissions).sum();
            self.cores[shard].done(gathered, &ServerStats::new());
        }
        self.running[shard].extend(steps);
        Ok(())
    }

    /// Runs the next step of `shard`'s gather against the map, as
    /// `Shared::execute` runs it against the store; with `fault`, its
    /// first store call fails.
    fn complete(&mut self, shard: usize, fault: bool) {
        let step = self.running[shard].pop_front().expect("a gathered step");
        if fault {
            self.inject(&step);
        }
        let retired = if self.driver.retire_at_gather { 0 } else { step.submissions() };
        let core = &mut self.cores[shard];
        let retire = |served: &ServerStats| core.done(retired, served);
        match &step {
            Step::Segment(segment) => run_segment(&self.store, segment, retire),
            Step::Flush(ticket) => run_flush(&self.store, ticket, &self.flushes, retire),
            Step::Stats(_) => unreachable!("scripts send no STATS"),
        }
    }

    /// Arms a fault on the first store call `step` makes — its inserts',
    /// else its lookups', else its first delete's, else its flush — and
    /// owes every request with a part in that call the fault's error,
    /// unless an earlier fault got there first.
    fn inject(&mut self, step: &Step) {
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
        self.store.fault.set(Some(tag));
    }

    /// Takes every response delivered so far and holds it to the
    /// contract, then checks the in-flight invariant.
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
            let unretired: usize = self.running[shard].iter().map(Step::submissions).sum();
            if self.driver.check_idle && unretired > 0 && self.cores[shard].idle() {
                return Err(format!("shard {shard} idle with {unretired} gathered unretired"));
            }
        }
        Ok(())
    }

    /// Shuts both shards down and runs them dry; then every request must
    /// have had its one response.
    fn quiesce(&mut self) -> Result<(), String> {
        for shard in 0..2 {
            self.cores[shard].close();
            loop {
                while !self.running[shard].is_empty() {
                    self.apply(Event::Complete(shard))?;
                }
                if self.cores[shard].depth() == 0 {
                    break;
                }
                let at = self.now;
                self.gather(shard)?;
                if self.now != at {
                    return Err(format!("closing shard {shard} lingered"));
                }
            }
            if !matches!(self.cores[shard].poll(self.now, &self.config), Poll::Exit) {
                return Err(format!("drained closing shard {shard} did not exit"));
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
    let enabled = world.enabled();
    world.quiesce().map_err(|failure| (script.clone(), format!("after shutdown: {failure}")))?;
    let mut scripts = 1;
    for event in enabled.into_iter().filter(|event| event.length() <= more) {
        script.push(event);
        scripts += explore(driver, script, more - event.length())?;
        script.pop();
    }
    Ok(scripts)
}

#[test]
fn every_short_arrival_script_keeps_the_contract() {
    // Requests, firings and completions a script may hold (a chunk of two
    // counts two): debug builds run the shorter bound.
    let length = if cfg!(debug_assertions) { 4 } else { 5 };
    match explore(SHELL, &mut Vec::new(), length) {
        Ok(scripts) => println!("{scripts} scripts of length up to {length}, each also shut down"),
        Err((script, failure)) => panic!("{failure}\nscript: {script:?}"),
    }
}

#[test]
fn retiring_a_gather_as_it_fires_is_caught() {
    for check_idle in [true, false] {
        let driver = Driver { retire_at_gather: true, check_idle, ..SHELL };
        let Err((script, failure)) = explore(driver, &mut Vec::new(), 4) else {
            panic!("no script caught early retirement (idle check: {check_idle})");
        };
        println!("caught: {failure}\nscript: {script:?}");
        let caught_by = if check_idle { "idle with" } else { "the register says" };
        assert!(failure.contains(caught_by), "{failure}");
    }
}

#[test]
fn leading_a_busy_shard_or_from_behind_a_write_is_caught() {
    for (lead, what) in
        [(lead_when_busy as Lead, "a busy shard"), (lead_every_lookup, "a lookup behind a write")]
    {
        let Err((script, failure)) = explore(Driver { lead, ..SHELL }, &mut Vec::new(), 3) else {
            panic!("no script caught {what} leading");
        };
        println!("caught {what} leading: {failure}\nscript: {script:?}");
        assert!(failure.contains("the register says"), "{failure}");
    }
}

#[test]
fn a_failed_led_run_answers_its_lookups_with_the_error() {
    let mut world = World::new(SHELL);
    world.store.fault.set(Some("fault 1".to_string()));
    world.arrive(0, &[Req::Lookup(0), Req::Lookup(0), Req::Insert(0)]);
    let bodies: Vec<RespBody> = world.conns[0].1.try_iter().map(|response| response.body).collect();
    assert_eq!(bodies.len(), 2, "the insert queued behind the run: {bodies:?}");
    for body in &bodies {
        let RespBody::Error { code: ErrorCode::Internal, message } = body else {
            panic!("{body:?}")
        };
        assert!(
            message.ends_with("lookup batch failed: invalid configuration: fault 1"),
            "{message}"
        );
    }
    let core = &world.cores[0];
    assert_eq!((core.depth(), core.stats.lookups, core.stats.bypass_hits), (1, 0, 0));
}
