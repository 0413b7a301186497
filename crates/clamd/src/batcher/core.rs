//! A batcher shard's decisions — which thread leads it, queue, gathers,
//! retirement and ledger — in a plain struct that takes no lock and calls
//! no store: the shell's leader loop does what it decides.

use std::collections::{HashMap, VecDeque};
use std::ops::Deref;

use bufferhash::{Key, Value};

use super::Ticket;
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
        self.tickets().count()
    }

    /// The ticket of every part the step answers, one per submission.
    pub(super) fn tickets(&self) -> impl Iterator<Item = &Ticket> {
        let (segment, ticket) = match self {
            Step::Segment(segment) => (Some(segment), None),
            Step::Flush(ticket) | Step::Stats(ticket) => (None, Some(ticket)),
        };
        let parts = segment.into_iter().flat_map(|Segment { inserts, lookups, deletes }| {
            let inserts = inserts.iter().map(|part| &part.ticket);
            let lookups = lookups.iter().map(|part| &part.ticket);
            inserts.chain(lookups).chain(deletes.iter().map(|part| &part.ticket))
        });
        parts.chain(ticket)
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

/// One batcher shard's state and every decision made on it.
#[derive(Default)]
pub(super) struct ShardCore {
    queue: VecDeque<Submission>,
    /// Submissions gathered and not yet retired by [`done`](Self::done).
    in_flight: usize,
    /// A thread leads the shard: taken by the push that finds it clear,
    /// given up by the poll that finds the queue empty, so nothing stays
    /// queued without a leader. The shell reads it; only the core writes.
    pub(super) leading: bool,
    /// Set by shutdown, which then waits for the lead to be given up: from
    /// then on the thread that gives it up wakes shutdown.
    pub(super) closing: bool,
    planner: Planner,
    /// The shard's ledger.
    pub(super) stats: ServerStats,
}

impl ShardCore {
    /// Queues a chunk's submissions for this shard, in arrival order, and
    /// returns whether the caller takes the lead (counted in `leads`): no
    /// thread led the shard.
    pub(super) fn push(&mut self, staged: Vec<Submission>) -> bool {
        self.queue.extend(staged);
        let takes_lead = !std::mem::replace(&mut self.leading, true);
        self.stats.leads += u64::from(takes_lead);
        takes_lead
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

    /// The leader's next gather: up to `max_batch` submissions, and at
    /// least one, counted in flight, cut into steps and recorded in the
    /// ledger. A poll that finds the queue empty gives up the lead instead
    /// and returns `None`: in the same lock acquisition, so a push lands
    /// either before it, and is gathered, or after, and takes the lead.
    pub(super) fn poll(&mut self, max_batch: usize) -> Option<Vec<Step>> {
        if self.queue.is_empty() {
            self.leading = false;
            return None;
        }
        let gathered = self.queue.len().min(max_batch.max(1));
        for submission in self.queue.drain(..gathered) {
            self.planner.push(submission);
        }
        let (steps, conflicts) = self.planner.finish();
        self.in_flight += gathered;
        self.stats.record_batch(gathered);
        self.stats.segment_conflicts += conflicts;
        Some(steps)
    }

    /// Retires `retired` gathered submissions whose store calls have
    /// returned and absorbs the counters they produced. Called before
    /// their responses go out, so the depth a client reads once it holds
    /// an ack leaves them out.
    pub(super) fn done(&mut self, retired: usize, delta: &ServerStats) {
        self.in_flight =
            self.in_flight.checked_sub(retired).expect("retired more than was gathered");
        self.stats.absorb(delta);
    }

    /// The leader's gather panicked: retires it, the only one in flight.
    /// The leader keeps the lead and polls on.
    pub(super) fn abandon(&mut self) {
        self.in_flight = 0;
    }
}

#[cfg(test)]
mod tests;
