//! A sequential model of what a CLAM means: the specification the engine
//! is tested against. Test-only, shared between test crates by `#[path]`.
//!
//! Plain maps and queues: no flash, no pages, no filters, no locks, no
//! clock. It shares with the product only pure functions — [`table_of`],
//! the configuration's geometry and [`EvictionPolicy::retain`] — and
//! decides, for any sequence of operations on one [`bufferhash::Clam`]:
//! every lookup's reply and where it may be found ([`Expected::admits`]),
//! which inserts flush and how many incarnations each flush chain evicts,
//! the flush, eviction, forced-eviction and re-insertion counts, and what
//! is readable after `flush_all` and a recovery from flash alone.
//!
//! The semantics, from the paper (§5.1) and DESIGN.md:
//!
//! * keys partition over super tables; each table buffers inserts and
//!   flushes the whole buffer as one immutable incarnation when a **new**
//!   key finds it full (an update of a buffered key always fits);
//! * a table keeps at most `k` incarnations: a flush that finds `k` first
//!   evicts the oldest — wholesale, or retaining what the policy says,
//!   re-inserted into the emptied buffer, degrading to wholesale after `k`
//!   cascaded rounds;
//! * incarnations go to log slots in flush order; a slot whose previous
//!   incarnation is still live is reclaimed by force-evicting it and
//!   everything older in its table (GlobalLog: one circular log;
//!   PartitionPerTable: a circular region per table, whole erase blocks
//!   per slot);
//! * lookups answer from the delete list, then the buffer, then the
//!   incarnations youngest first; deletes are lazy tombstones in DRAM,
//!   pruned once no incarnation of the table holds the key;
//! * a hit in an incarnation flushed in this lifetime may be answered from
//!   the buffer slot it was flushed from (`LookupSource::Retired`, no flash
//!   read) instead of from flash. The model has no slots, so it cannot say
//!   which of those keys still have theirs: either source is right there,
//!   and `Retired` is wrong everywhere else;
//! * recovery keeps the incarnations and loses the buffers, the tombstones
//!   and the slot copies.
//!
//! Not modelled: LRU (its re-insertion order keeps its direct tests),
//! Bloom false positives (exact membership here; the test geometries keep
//! their rate negligible), erase blocks shared between slots, torn writes.

use std::collections::{HashMap, HashSet, VecDeque};

use bufferhash::{
    table_of, ClamConfig, Entry, EvictionPolicy, FlashLayoutMode, Key, LookupOutcome, LookupSource,
    RetainDecision, Value, ENTRY_SIZE,
};

/// What a lookup must answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub value: Option<Value>,
    /// `Flash` for any incarnation, the youngest included.
    pub source: LookupSource,
    /// The hit is in an incarnation flushed in this lifetime, not
    /// recovered.
    pub flushed: bool,
}

impl Expected {
    /// Whether `got` is a reply the specification allows: the value, from
    /// the source — or, for a key of an incarnation flushed in this
    /// lifetime, from its slot copy without a flash read.
    pub fn admits(&self, got: &LookupOutcome) -> bool {
        let retired = got.source == LookupSource::Retired && self.flushed && got.flash_reads == 0;
        got.value == self.value && (got.source == self.source || retired)
    }
}

/// What an insert call did: how many of its operations ran a flush chain
/// (`InsertOutcome::flushed`, `BatchInsertOutcome::flushed_ops`) and how
/// many incarnations those chains evicted on the table's own account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Inserted {
    pub flushed: usize,
    pub evictions: usize,
}

struct Incarnation {
    seq: u64,
    slot: usize,
    entries: HashMap<Key, Value>,
    /// Flushed since the last recovery.
    flushed: bool,
}

#[derive(Default)]
struct Table {
    buffer: HashMap<Key, Value>,
    deleted: HashSet<Key>,
    /// Youngest first.
    incarnations: VecDeque<Incarnation>,
}

pub struct ClamModel {
    policy: EvictionPolicy,
    /// Entries a buffer admits.
    capacity: usize,
    /// Incarnations a table keeps.
    k: usize,
    tables: Vec<Table>,
    /// Per log slot, the `(table, seq)` of the live incarnation it holds.
    log: Vec<Option<(usize, u64)>>,
    /// Slots of one circular region: the whole log, or a table's share.
    region: usize,
    /// Next slot of each region, relative to its start.
    cursors: Vec<usize>,
    seq: u64,
    pub flushes: u64,
    /// Evictions a table made to stay within `k` (one TRIM each).
    pub evictions: u64,
    /// Evictions forced on a table by the log reclaiming its slot.
    pub forced_evictions: u64,
    pub reinsertions: u64,
}

impl ClamModel {
    pub fn new(config: &ClamConfig) -> Self {
        assert!(!config.eviction.reinserts_on_use(), "LRU is not modelled");
        assert_eq!(config.entry_size, ENTRY_SIZE, "buffers are sized in {ENTRY_SIZE}-byte entries");
        let tables = config.num_super_tables();
        let slots = config.total_flash_slots() as usize;
        let regions = match config.layout {
            FlashLayoutMode::GlobalLog => 1,
            FlashLayoutMode::PartitionPerTable => tables,
        };
        ClamModel {
            policy: config.eviction,
            capacity: if config.enable_buffering { config.entries_per_incarnation() } else { 1 },
            k: config.incarnations_per_table(),
            tables: (0..tables).map(|_| Table::default()).collect(),
            log: vec![None; slots],
            region: slots / regions,
            cursors: vec![0; regions],
            seq: 0,
            flushes: 0,
            evictions: 0,
            forced_evictions: 0,
            reinsertions: 0,
        }
    }

    pub fn insert(&mut self, key: Key, value: Value) -> Inserted {
        let t = table_of(key, self.tables.len());
        let mut out = Inserted::default();
        let mut attempts = 0;
        while !self.buffer(t, key, value) {
            out.evictions += self.flush(t, attempts);
            out.flushed = 1;
            attempts += 1;
        }
        out
    }

    /// A batch applies table by table, ascending; within a table, in
    /// input order.
    pub fn insert_batch(&mut self, ops: &[(Key, Value)]) -> Inserted {
        let mut out = Inserted::default();
        let tables = self.tables.len();
        for t in 0..tables {
            for &(key, value) in ops.iter().filter(|op| table_of(op.0, tables) == t) {
                let one = self.insert(key, value);
                out.flushed += one.flushed;
                out.evictions += one.evictions;
            }
        }
        out
    }

    /// Removes a buffered value; leaves a tombstone unless nothing older
    /// can exist (the key was buffered and the table never flushed).
    pub fn delete(&mut self, key: Key) {
        let t = table_of(key, self.tables.len());
        let table = &mut self.tables[t];
        if table.buffer.remove(&key).is_none() || !table.incarnations.is_empty() {
            table.deleted.insert(key);
        }
    }

    pub fn lookup(&self, key: Key) -> Expected {
        let table = &self.tables[table_of(key, self.tables.len())];
        let expected = |value, source| Expected { value, source, flushed: false };
        if table.deleted.contains(&key) {
            return expected(None, LookupSource::Deleted);
        }
        if let Some(&value) = table.buffer.get(&key) {
            return expected(Some(value), LookupSource::Buffer);
        }
        let holder = table.incarnations.iter().find(|inc| inc.entries.contains_key(&key));
        match holder {
            Some(inc) => Expected {
                value: inc.entries.get(&key).copied(),
                source: LookupSource::Flash,
                flushed: inc.flushed,
            },
            None => expected(None, LookupSource::Miss),
        }
    }

    /// Flushes every non-empty buffer, tables ascending.
    pub fn flush_all(&mut self) {
        for t in 0..self.tables.len() {
            if !self.tables[t].buffer.is_empty() {
                self.flush(t, 0);
            }
        }
    }

    /// A restart from flash alone: incarnations survive (a table already
    /// holds its youngest `k`, and the log resumes after the newest one,
    /// where the cursors already stand); buffers and tombstones do not.
    pub fn recover(&mut self) {
        for table in &mut self.tables {
            table.buffer.clear();
            table.deleted.clear();
            table.incarnations.iter_mut().for_each(|inc| inc.flushed = false);
        }
    }

    /// Puts `key` in table `t`'s buffer unless it is a new key and the
    /// buffer is full. A stored value revives a deleted key.
    fn buffer(&mut self, t: usize, key: Key, value: Value) -> bool {
        let table = &mut self.tables[t];
        if table.buffer.len() >= self.capacity && !table.buffer.contains_key(&key) {
            return false;
        }
        table.buffer.insert(key, value);
        table.deleted.remove(&key);
        true
    }

    /// One flush chain of table `t` at cascade depth `depth`; returns the
    /// evictions it made on the table's own account.
    fn flush(&mut self, t: usize, depth: usize) -> usize {
        let mut evictions = 0;
        let mut retained = Vec::new();
        if self.tables[t].incarnations.len() >= self.k {
            let policy = if depth >= self.k { EvictionPolicy::Fifo } else { self.policy };
            retained = self.evict_oldest(t, &policy);
            evictions += 1;
        }
        let entries = std::mem::take(&mut self.tables[t].buffer);
        if !entries.is_empty() {
            self.seq += 1;
            let region = if self.cursors.len() == 1 { 0 } else { t };
            let slot = region * self.region + self.cursors[region];
            self.cursors[region] = (self.cursors[region] + 1) % self.region;
            if let Some((owner, seq)) = self.log[slot].replace((t, self.seq)) {
                // The log came round to a live incarnation: its table
                // loses it and everything older.
                let victims = &mut self.tables[owner].incarnations;
                while victims.back().is_some_and(|oldest| oldest.seq <= seq) {
                    let dropped = victims.pop_back().expect("checked non-empty");
                    if dropped.slot != slot {
                        self.log[dropped.slot] = None;
                    }
                    self.forced_evictions += 1;
                }
            }
            let flushed = Incarnation { seq: self.seq, slot, entries, flushed: true };
            self.tables[t].incarnations.push_front(flushed);
            self.prune_tombstones(t);
            self.flushes += 1;
        }
        // At most one incarnation's worth, into a buffer just emptied:
        // they fit in any order, unless they fill it to the brim.
        for entry in retained {
            self.reinsertions += 1;
            while !self.buffer(t, entry.key, entry.value) {
                evictions += self.flush(t, depth + 1);
            }
        }
        evictions
    }

    /// Drops table `t`'s oldest incarnation and returns the entries
    /// `policy` retains, decided before anything is dropped or drained.
    fn evict_oldest(&mut self, t: usize, policy: &EvictionPolicy) -> Vec<Entry> {
        let table = &mut self.tables[t];
        let oldest = table.incarnations.pop_back().expect("a full table has an oldest");
        let mut retained: Vec<Entry> = oldest
            .entries
            .iter()
            .map(|(&key, &value)| Entry::new(key, value))
            .filter(|entry| {
                let key = &entry.key;
                let in_younger = table.incarnations.iter().any(|inc| inc.entries.contains_key(key));
                let (deleted, buffered) =
                    (table.deleted.contains(key), table.buffer.contains_key(key));
                policy.retain(entry, deleted, buffered, in_younger) == RetainDecision::Retain
            })
            .collect();
        retained.sort_unstable_by_key(|entry| entry.key);
        self.log[oldest.slot] = None;
        self.evictions += 1;
        self.prune_tombstones(t);
        retained
    }

    /// A tombstone lasts while some incarnation of the table holds its
    /// key; checked when the table flushes or evicts on its own account.
    fn prune_tombstones(&mut self, t: usize) {
        let Table { deleted, incarnations, .. } = &mut self.tables[t];
        deleted.retain(|key| incarnations.iter().any(|inc| inc.entries.contains_key(key)));
    }
}
