//! The seeded operation stream and its correctness oracle.
//!
//! Key ids fall in three disjoint ranges, mapped to wire keys through
//! `clamd::loadgen::key_for` (a bijection, so the keys are disjoint too):
//! preloaded ids `1..=preload`, fresh inserts continuing at `preload + 1`,
//! and never-inserted ids from [`MISS_BASE`] up, all offset by a base the
//! seed picks, so another seed is another set of keys. Connection `c` of `n`
//! owns the ids congruent to `c` modulo `n` and touches no other, and
//! `clamd` answers one connection's requests on one key in the order they
//! were sent. So the stream knows the one correct reply to every request
//! the moment it generates it: its shadow of the writes *sent* is the
//! shadow of the writes the reply must reflect. [`check`] compares.

use std::collections::{HashMap, HashSet};

use bufferhash::{Key, Value};
use clamd::loadgen::{key_for, value_for};
use clamd::proto::{Op, RespBody};
use rand::distributions::Zipf;
use rand::{Rng, SeedableRng, StdRng};

use crate::spec::{Workload, DELETE_RECENT, RETAINED_IDS};

/// First never-inserted id above the seed's base. Far above any id a run
/// can reach.
pub const MISS_BASE: u64 = 1 << 40;

/// Where a seed's ids start. Bases lie 2^44 apart, beyond any range a
/// run touches, so two seeds share no key.
fn id_base(seed: u64) -> u64 {
    (seed & 0xFFFF) << 44
}

/// The reply a request must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    Inserted,
    InsertedBatch(u32),
    Deleted,
    Value(Option<Value>),
    Values(Vec<Option<Value>>),
}

/// Latency is reported per kind; deletes are counted but not timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Lookup = 0,
    Insert = 1,
    Delete = 2,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    pub op: Op,
    pub expect: Expect,
    pub kind: Kind,
}

impl Planned {
    /// Keys this operation carries.
    pub fn keys(&self) -> u64 {
        self.op.ops() as u64
    }
}

/// The value version `v` of key id `id` holds. Overwrites bump the
/// version, so a stale read is a wrong value, not a silent pass.
pub fn value_of(id: u64, version: u32) -> Value {
    value_for(id).wrapping_add(u64::from(version))
}

/// `true` if `body` is the reply `expect` describes.
pub fn check(expect: &Expect, body: &RespBody) -> bool {
    match (expect, body) {
        (Expect::Inserted, RespBody::Inserted) | (Expect::Deleted, RespBody::Deleted) => true,
        (Expect::InsertedBatch(n), RespBody::InsertedBatch { count }) => n == count,
        (Expect::Value(want), RespBody::Value { found, value }) => *want == found.then_some(*value),
        (Expect::Values(want), RespBody::Values(got)) => {
            want.len() == got.len()
                && want.iter().zip(got).all(|(w, (found, value))| *w == found.then_some(*value))
        }
        _ => false,
    }
}

/// One connection's deterministic operation stream and shadow state.
pub struct OpStream {
    w: &'static Workload,
    rng: StdRng,
    conn: u64,
    conns: u64,
    base: u64,
    /// Own ids inserted so far, preloaded ones included; the next fresh
    /// insert is own id number `own_count`.
    own_count: u64,
    misses_drawn: u64,
    ops_drawn: u64,
    zipf: Option<Zipf>,
    /// Version of each overwritten id (absent: 0).
    versions: HashMap<u64, u32>,
    deleted: HashSet<u64>,
}

impl OpStream {
    pub fn new(w: &'static Workload, seed: u64, conn: usize, conns: usize) -> Self {
        let (conn, conns) = (conn as u64, conns as u64);
        let own_count = (w.preload + conns - 1 - conn) / conns;
        // Distinct, seed-determined RNG per connection.
        let rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (conn + 1));
        let zipf = (w.zipf > 0.0).then(|| Zipf::new(own_count, w.zipf));
        OpStream {
            w,
            rng,
            conn,
            conns,
            base: id_base(seed),
            own_count,
            misses_drawn: 0,
            ops_drawn: 0,
            zipf,
            versions: HashMap::new(),
            deleted: HashSet::new(),
        }
    }

    /// The `k`-th id this connection owns, counting from 0.
    fn own_id(&self, k: u64) -> u64 {
        self.base + k * self.conns + self.conn + 1
    }

    fn current_value(&self, id: u64) -> Option<Value> {
        if self.deleted.contains(&id) {
            return None;
        }
        Some(value_of(id, self.versions.get(&id).copied().unwrap_or(0)))
    }

    /// Own ids the store must still hold: the newest share of
    /// [`RETAINED_IDS`], as index range into [`own_id`](Self::own_id).
    fn retained(&self) -> std::ops::Range<u64> {
        self.own_count.saturating_sub(RETAINED_IDS / self.conns)..self.own_count
    }

    /// A preloaded-or-recent own id: Zipf over the preload when the
    /// workload is skewed, uniform over the retained window otherwise.
    fn draw_present_id(&mut self) -> u64 {
        let k = match &self.zipf {
            Some(zipf) => zipf.sample(&mut self.rng) - 1,
            None => {
                let window = self.retained();
                self.rng.gen_range(window)
            }
        };
        self.own_id(k)
    }

    fn draw_lookup(&mut self) -> (Key, Option<Value>) {
        if self.rng.gen_bool(self.w.miss_share) {
            self.misses_drawn += 1;
            (key_for(MISS_BASE + self.own_id(self.misses_drawn)), None)
        } else {
            let id = self.draw_present_id();
            (key_for(id), self.current_value(id))
        }
    }

    fn draw_insert(&mut self) -> (Key, Value) {
        let (id, version) = if self.w.overwrite {
            let id = self.draw_present_id();
            let version = self.versions.entry(id).or_insert(0);
            *version += 1;
            (id, *version)
        } else {
            let id = self.own_id(self.own_count);
            self.own_count += 1;
            (id, 0)
        };
        (key_for(id), value_of(id, version))
    }

    /// The next operation and the reply it must get.
    pub fn next_op(&mut self) -> Planned {
        let batch = self.w.batch;
        let kind = if !self.w.wire {
            // One caller, strict alternation: the sequence of store calls
            // depends on nothing but the op count.
            if self.ops_drawn.is_multiple_of(2) {
                Kind::Insert
            } else {
                Kind::Lookup
            }
        } else {
            let p: f64 = self.rng.gen();
            if p < self.w.lookup_share {
                Kind::Lookup
            } else if p < self.w.lookup_share + self.w.delete_share {
                Kind::Delete
            } else {
                Kind::Insert
            }
        };
        self.ops_drawn += 1;
        let (op, expect) = match kind {
            Kind::Lookup if batch == 1 => {
                let (key, want) = self.draw_lookup();
                (Op::Lookup { key }, Expect::Value(want))
            }
            Kind::Lookup => {
                let (keys, want) = (0..batch).map(|_| self.draw_lookup()).unzip();
                (Op::LookupBatch(keys), Expect::Values(want))
            }
            Kind::Insert if batch == 1 => {
                let (key, value) = self.draw_insert();
                (Op::Insert { key, value }, Expect::Inserted)
            }
            Kind::Insert => {
                let pairs = (0..batch).map(|_| self.draw_insert()).collect();
                (Op::InsertBatch(pairs), Expect::InsertedBatch(batch as u32))
            }
            Kind::Delete => {
                let newest = self.own_count;
                let k = self.rng.gen_range(newest.saturating_sub(DELETE_RECENT)..newest);
                let id = self.own_id(k);
                self.deleted.insert(id);
                (Op::Delete { key: key_for(id) }, Expect::Deleted)
            }
        };
        Planned { op, expect, kind }
    }

    /// Up to `n` of this connection's newest live keys with the values a
    /// recovered store must return. Deleted ids are left out: the delete
    /// list lives in DRAM only, so a delete may be undone by recovery.
    pub fn newest_live(&self, n: u64) -> Vec<(Key, Value)> {
        let window = self.retained();
        (window.start.max(window.end.saturating_sub(n))..window.end)
            .map(|k| self.own_id(k))
            .filter_map(|id| self.current_value(id).map(|v| (key_for(id), v)))
            .collect()
    }
}

/// The keys and values set-up preloads, in insertion order.
pub fn preload_pairs(w: &Workload, seed: u64) -> impl Iterator<Item = (Key, Value)> {
    (1..=w.preload).map(move |id| id_base(seed) + id).map(|id| (key_for(id), value_of(id, 0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn encoded(w: &'static Workload, seed: u64, n: usize) -> Vec<u8> {
        let mut stream = OpStream::new(w, seed, 1, 2);
        let mut bytes = Vec::new();
        for id in 0..n as u64 {
            let op = stream.next_op().op;
            clamd::proto::encode_request(&clamd::proto::Request { id, op }, &mut bytes);
        }
        bytes
    }

    #[test]
    fn same_seed_same_bytes_other_seed_differs() {
        for w in &WORKLOADS {
            assert_eq!(encoded(w, 7, 2000), encoded(w, 7, 2000), "{}", w.name);
            assert_ne!(encoded(w, 7, 2000), encoded(w, 8, 2000), "{}", w.name);
        }
    }

    #[test]
    fn hit_miss_and_insert_ranges_are_disjoint() {
        for w in &WORKLOADS {
            let preloaded: HashSet<Key> = preload_pairs(w, 3).map(|(k, _)| k).collect();
            assert_eq!(preloaded.len() as u64, w.preload);
            let mut inserted = HashSet::new();
            let mut streams: Vec<_> = (0..2).map(|c| OpStream::new(w, 3, c, 2)).collect();
            let mut lookups = Vec::new();
            for i in 0..4000 {
                let planned = streams[i % 2].next_op();
                match (planned.op, planned.expect) {
                    (Op::Insert { key, .. }, _) => drop(inserted.insert(key)),
                    (Op::InsertBatch(pairs), _) => inserted.extend(pairs.iter().map(|p| p.0)),
                    (Op::Lookup { key }, Expect::Value(want)) => lookups.push((key, want)),
                    (Op::LookupBatch(keys), Expect::Values(want)) => {
                        lookups.extend(keys.into_iter().zip(want));
                    }
                    _ => {}
                }
            }
            if w.overwrite {
                assert!(
                    inserted.is_subset(&preloaded),
                    "{}: overwrites stay in the preload",
                    w.name
                );
            } else {
                assert!(inserted.is_disjoint(&preloaded), "{}: fresh keys are new", w.name);
            }
            for (key, want) in lookups {
                let known = preloaded.contains(&key) || inserted.contains(&key);
                // A guaranteed miss is in neither range; a hit (or a
                // deleted key, also a miss) is in one of them.
                if want.is_some() {
                    assert!(known, "{}: hit on an id outside both ranges", w.name);
                }
                if !known {
                    assert_eq!(want, None);
                }
            }
        }
    }

    #[test]
    fn connections_own_disjoint_ids_and_cover_the_preload() {
        let w = &WORKLOADS[1];
        for conns in 1..=4 {
            let owned: u64 = (0..conns).map(|c| OpStream::new(w, 1, c, conns).own_count).sum();
            assert_eq!(owned, w.preload);
        }
    }

    #[test]
    fn check_rejects_wrong_values_and_wrong_kinds() {
        assert!(check(&Expect::Value(Some(5)), &RespBody::Value { found: true, value: 5 }));
        assert!(!check(&Expect::Value(Some(5)), &RespBody::Value { found: true, value: 6 }));
        assert!(!check(&Expect::Value(Some(5)), &RespBody::Value { found: false, value: 0 }));
        assert!(!check(&Expect::Value(None), &RespBody::Value { found: true, value: 0 }));
        assert!(check(&Expect::Value(None), &RespBody::Value { found: false, value: 9 }));
        assert!(!check(&Expect::Inserted, &RespBody::Deleted));
        assert!(!check(&Expect::InsertedBatch(3), &RespBody::InsertedBatch { count: 2 }));
        let want = Expect::Values(vec![Some(1), None]);
        assert!(check(&want, &RespBody::Values(vec![(true, 1), (false, 0)])));
        assert!(!check(&want, &RespBody::Values(vec![(true, 1)])));
    }
}
