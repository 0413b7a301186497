//! A batcher shard's decisions — lead, queue, linger, gathers, retirement
//! and ledger — in a plain struct that takes no lock, reads no clock and
//! calls no store: the thread shell passes in the `Instant`s, as tests do.

use std::collections::{HashMap, VecDeque};
use std::ops::Deref;
use std::time::Instant;

use bufferhash::{Key, Value};

use super::{BatcherConfig, Ticket};
use crate::stats::ServerStats;

/// A scalar frame's one item, or a batch frame's share of items for one
/// shard: the one without a heap allocation.
pub(super) enum OneOrMany<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Deref for OneOrMany<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            OneOrMany::One(one) => std::slice::from_ref(one),
            OneOrMany::Many(many) => many,
        }
    }
}

/// An insert waiting in a shard: a scalar frame's pair, or one shard's
/// share of an `INSERT_BATCH`.
pub(super) struct InsertPart {
    pub(super) ticket: Ticket,
    pub(super) pairs: OneOrMany<(Key, Value)>,
}

/// A lookup waiting in a shard: a scalar frame's key, or one shard's
/// share of a `LOOKUP_BATCH`, with the response slot each key answers.
pub(super) struct LookupPart {
    pub(super) ticket: Ticket,
    pub(super) keys: OneOrMany<Key>,
    pub(super) slots: OneOrMany<usize>,
}

impl LookupPart {
    /// A scalar `LOOKUP`: one key, answering slot 0.
    pub(super) fn scalar(ticket: Ticket, key: Key) -> Self {
        LookupPart { ticket, keys: OneOrMany::One(key), slots: OneOrMany::One(0) }
    }
}

pub(super) struct DeletePart {
    pub(super) ticket: Ticket,
    pub(super) key: Key,
}

/// One queued shard-local unit of work.
pub(super) enum Submission {
    Insert(InsertPart),
    Lookup(LookupPart),
    Delete(DeletePart),
    /// This shard's part of a `FLUSH`.
    Flush(Ticket),
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
pub(super) struct Segment {
    pub(super) inserts: Vec<InsertPart>,
    pub(super) lookups: Vec<LookupPart>,
    pub(super) deletes: Vec<DeletePart>,
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
pub(super) enum Step {
    Segment(Segment),
    Flush(Ticket),
    Stats(Ticket),
}

impl Step {
    /// How many queued submissions the step carries: what it retires.
    pub(super) fn submissions(&self) -> usize {
        match self {
            Step::Segment(s) => s.inserts.len() + s.lookups.len() + s.deletes.len(),
            Step::Flush(_) | Step::Stats(_) => 1,
        }
    }
}

/// Cuts a gather into steps. Reused across gathers for its key index.
#[derive(Default)]
pub(super) struct Planner {
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
    pub(super) fn push(&mut self, submission: Submission) {
        match submission {
            Submission::Insert(part) => {
                self.admit(Kind::Insert, part.pairs.iter().map(|pair| pair.0));
                self.open.inserts.push(part);
            }
            Submission::Lookup(part) => {
                self.admit(Kind::Lookup, part.keys.iter().copied());
                self.open.lookups.push(part);
            }
            Submission::Delete(part) => {
                self.admit(Kind::Delete, std::iter::once(part.key));
                self.open.deletes.push(part);
            }
            Submission::Flush(ticket) => {
                self.close();
                self.steps.push(Step::Flush(ticket));
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
            let inserted = inserts.iter().flat_map(|part| part.pairs.iter()).map(|pair| pair.0);
            self.index.extend(inserted.map(|key| (key, Kind::Insert)));
            let read = lookups.iter().flat_map(|part| part.keys.iter()).copied();
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
    pub(super) fn finish(&mut self) -> (Vec<Step>, u64) {
        self.close();
        (std::mem::take(&mut self.steps), std::mem::take(&mut self.conflicts))
    }
}

/// An idle shard's share of a chunk: the run that leads it, and the rest.
pub(super) type Led = (Segment, Vec<Submission>);

/// What a shard's thread does next.
pub(super) enum Poll {
    /// Nothing is queued: wait for an arrival.
    Sleep,
    /// A gather lingers: wait for an arrival or this instant.
    SleepUntil(Instant),
    /// A gather fired: execute its steps in order, reporting each through
    /// [`ShardCore::done`] before its responses go out.
    Run(Vec<Step>),
    /// Closing, and the queue is drained.
    Exit,
}

/// One batcher shard's state and every decision made on it.
#[derive(Default)]
pub(super) struct ShardCore {
    queue: VecDeque<Submission>,
    /// Submissions gathered and not yet retired by [`done`](Self::done).
    in_flight: usize,
    /// Set by shutdown: drain the queue without lingering, then exit.
    closing: bool,
    /// When the lingering gather fires; set only while the thread sleeps
    /// on it, so a gather that finds it set waited.
    deadline: Option<Instant>,
    planner: Planner,
    /// The shard's ledger.
    pub(super) stats: ServerStats,
}

impl ShardCore {
    /// Queues a chunk's submissions for this shard, in arrival order.
    pub(super) fn push(&mut self, staged: Vec<Submission>) {
        self.queue.extend(staged);
    }

    /// Takes a chunk's submissions for this shard. A busy shard queues them
    /// now, and nothing leads. On an idle shard, where every write that
    /// arrived has landed, the scalar lookups at the chunk's front (maybe
    /// none) lead: they come back as a segment for the caller to serve,
    /// with the rest, for the caller to [`push`](Self::push) after.
    pub(super) fn lead(&mut self, mut staged: Vec<Submission>) -> Option<Led> {
        if !self.idle() {
            self.push(staged);
            return None;
        }
        let scalar = |s: &&Submission| {
            matches!(s, Submission::Lookup(LookupPart { keys: OneOrMany::One(_), .. }))
        };
        let led = staged.iter().take_while(scalar).count();
        let run = staged.drain(..led).filter_map(|submission| match submission {
            Submission::Lookup(part) => Some(part),
            _ => None,
        });
        Some((Segment { lookups: run.collect(), ..Segment::default() }, staged))
    }

    /// Counts a led run whose store call returned, `served` what its
    /// segment counts, as bypass hits: no segment, admission or gather.
    pub(super) fn count_led(&mut self, served: &ServerStats) {
        self.stats.lookups += served.lookups;
        self.stats.lookup_hits += served.lookup_hits;
        self.stats.lookup_misses += served.lookup_misses;
        self.stats.bypass_hits += served.lookups;
    }

    /// Nothing queued or unretired: every write that arrived has landed.
    pub(super) fn idle(&self) -> bool {
        self.queue.is_empty() && self.in_flight == 0
    }

    /// Submissions queued plus gathered and not yet retired.
    pub(super) fn depth(&self) -> u64 {
        (self.queue.len() + self.in_flight) as u64
    }

    /// Starts shutdown; returns the depth at this instant.
    pub(super) fn close(&mut self) -> u64 {
        self.closing = true;
        self.depth()
    }

    /// Decides what the shard's thread does at `now`. The first poll to
    /// see a non-empty queue sets a deadline `config.linger` away; the
    /// gather fires then, at once when `config.max_batch` are queued, or
    /// at once after [`close`](Self::close). It takes up to `max_batch`
    /// submissions, and at least one, counts them in flight, cuts them
    /// into steps and records itself in the ledger.
    pub(super) fn poll(&mut self, now: Instant, config: &BatcherConfig) -> Poll {
        if self.queue.is_empty() {
            return if self.closing { Poll::Exit } else { Poll::Sleep };
        }
        if !self.closing && self.queue.len() < config.max_batch {
            let deadline = self.deadline.unwrap_or(now + config.linger);
            if now < deadline {
                self.deadline = Some(deadline);
                return Poll::SleepUntil(deadline);
            }
        }
        let waited = self.deadline.take().is_some();
        let gathered = self.queue.len().min(config.max_batch.max(1));
        for submission in self.queue.drain(..gathered) {
            self.planner.push(submission);
        }
        let (steps, conflicts) = self.planner.finish();
        self.in_flight += gathered;
        self.stats.record_batch(gathered, waited);
        self.stats.segment_conflicts += conflicts;
        Poll::Run(steps)
    }

    /// Retires `retired` gathered submissions whose store calls have
    /// returned and absorbs the counters they produced. Called before
    /// their responses go out, so a client holding an ack finds the shard
    /// idle.
    pub(super) fn done(&mut self, retired: usize, delta: &ServerStats) {
        self.in_flight =
            self.in_flight.checked_sub(retired).expect("retired more than was gathered");
        self.stats.absorb(delta);
    }
}

#[cfg(test)]
mod tests;
