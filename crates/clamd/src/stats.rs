//! The `clamd` server-side statistics ledger.
//!
//! [`ServerStats`] counts what the *service* did — requests served,
//! group-commit gathers, ring admissions, wire errors — as opposed to
//! [`ClamStats`](bufferhash::ClamStats), which counts what the *store*
//! did underneath. A STATS request returns the whole ledger plus the
//! rendered text of both, and the `Display` impl mirrors the
//! pipe-separated ledger style used across the workspace, eliding
//! segments that never fired.
//!
//! Every field is declared once more, in the counter list
//! (`ServerStats::counters`): its wire name and whether it is a sum, a
//! high-water mark or a gauge. [`ServerStats::absorb`],
//! [`ServerStats::delta`] and the STATS codec in [`crate::proto`] walk
//! that list, so a new counter is a field, a list entry and its
//! increment — never a wire version.

use std::fmt;

/// Maximum batch-size histogram index tracked explicitly; larger gathers
/// accumulate in the final bucket (same cap policy as the CLAM's
/// histograms).
const HISTOGRAM_CAP: usize = 64;

/// How a counter combines across ledgers ([`ServerStats::absorb`]) and
/// across time ([`ServerStats::delta`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Counts events: ledgers add, a window subtracts (element by
    /// element for a histogram).
    Sum,
    /// A maximum: ledgers take the larger, a window keeps the later.
    HighWater,
    /// A snapshot: ledgers keep whichever side has one (an empty list
    /// has none), a window keeps the later.
    Gauge,
}

/// One counter's storage in the list: a scalar, or a list of elements.
pub(crate) enum Slot<'a> {
    One(&'a mut u64),
    Many(&'a mut Vec<u64>),
}

impl Slot<'_> {
    /// The counter's values: one for a scalar, the elements of a list.
    pub(crate) fn values(&self) -> &[u64] {
        match self {
            Slot::One(v) => std::slice::from_ref(&**v),
            Slot::Many(v) => v,
        }
    }

    /// Folds `other` in element by element as `f(mine, theirs)`, growing
    /// a list to fit (`|_, v| v` copies).
    pub(crate) fn combine(&mut self, other: &[u64], f: impl Fn(u64, u64) -> u64) {
        let mine = match self {
            Slot::One(v) => std::slice::from_mut(&mut **v),
            Slot::Many(v) => {
                if v.len() < other.len() {
                    v.resize(other.len(), 0);
                }
                v.as_mut_slice()
            }
        };
        for (d, s) in mine.iter_mut().zip(other) {
            *d = f(*d, *s);
        }
    }
}

/// Counters for one `clamd` server instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Insert operations acknowledged (batch frames count each op).
    pub inserts: u64,
    /// Lookup operations answered (batch frames count each key).
    pub lookups: u64,
    /// Delete operations applied.
    pub deletes: u64,
    /// FLUSH barriers served.
    pub flushes: u64,
    /// STATS requests served.
    pub stats_calls: u64,
    /// Lookups that found a value.
    pub lookup_hits: u64,
    /// Lookups that found nothing.
    pub lookup_misses: u64,
    /// Connections dropped after a protocol violation.
    pub wire_errors: u64,
    /// Group-commit gathers executed by the batcher thread.
    pub batches: u64,
    /// Requests drained across all gathers.
    pub batched_requests: u64,
    /// Gathers that lingered (waited out the group-commit window) for
    /// concurrent arrivals instead of firing on a full queue.
    pub group_commit_waits: u64,
    /// Largest gather, in requests.
    pub batch_high_water: u64,
    /// Histogram of gather sizes: `batch_histogram[n]` is the number of
    /// gathers that drained exactly `n` requests (the final bucket
    /// accumulates everything at or beyond its index).
    pub batch_histogram: Vec<u64>,
    /// Coalesced `insert_batch` ring admissions (one per segment that
    /// holds inserts).
    pub insert_admissions: u64,
    /// Coalesced `lookup_batch` ring admissions.
    pub lookup_admissions: u64,
    /// Per-key delete admissions.
    pub delete_admissions: u64,
    /// Conflict-free segments executed: runs of a gather in which no key
    /// is both read and written, or both inserted and deleted, each
    /// costing at most one `insert_batch` and one `lookup_batch`
    /// admission plus its deletes.
    pub segments: u64,
    /// Segments closed early because a request touched a key the segment
    /// already held under another kind of operation.
    pub segment_conflicts: u64,
    /// Connections accepted.
    pub connections_opened: u64,
    /// Connections closed (cleanly or after an error).
    pub connections_closed: u64,
    /// Connections closed because a delivery to them could not finish
    /// within the stall limit: the client had stopped reading.
    pub connections_stalled: u64,
    /// Scalar lookups answered on the batcher bypass: the shard's linger
    /// queue was empty and the store's read fast path
    /// resolved the key without a gather or a ring admission.
    pub bypass_hits: u64,
    /// Most recent per-shard in-flight depth snapshot (queued plus
    /// executing requests), refreshed by STATS requests and captured at
    /// shutdown entry. Empty until the first snapshot.
    pub shard_depths: Vec<u64>,
}

impl ServerStats {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one group-commit gather of `size` requests; `waited` marks
    /// gathers that lingered for concurrent arrivals before firing.
    pub fn record_batch(&mut self, size: usize, waited: bool) {
        self.batches += 1;
        self.batched_requests += size as u64;
        self.batch_high_water = self.batch_high_water.max(size as u64);
        if waited {
            self.group_commit_waits += 1;
        }
        let idx = size.min(HISTOGRAM_CAP);
        if self.batch_histogram.len() <= idx {
            self.batch_histogram.resize(idx + 1, 0);
        }
        self.batch_histogram[idx] += 1;
    }

    /// Mean requests per gather.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// The counter list: every field with its wire name and [`Kind`].
    /// The pattern names every field without `..`, so a field added
    /// without an entry here does not compile.
    pub(crate) fn counters(&mut self) -> Vec<(&'static str, Kind, Slot<'_>)> {
        use Kind::{Gauge, HighWater, Sum};
        use Slot::{Many, One};
        let ServerStats {
            inserts,
            lookups,
            deletes,
            flushes,
            stats_calls,
            lookup_hits,
            lookup_misses,
            wire_errors,
            batches,
            batched_requests,
            group_commit_waits,
            batch_high_water,
            batch_histogram,
            insert_admissions,
            lookup_admissions,
            delete_admissions,
            segments,
            segment_conflicts,
            connections_opened,
            connections_closed,
            connections_stalled,
            bypass_hits,
            shard_depths,
        } = self;
        vec![
            ("inserts", Sum, One(inserts)),
            ("lookups", Sum, One(lookups)),
            ("deletes", Sum, One(deletes)),
            ("flushes", Sum, One(flushes)),
            ("stats_calls", Sum, One(stats_calls)),
            ("lookup_hits", Sum, One(lookup_hits)),
            ("lookup_misses", Sum, One(lookup_misses)),
            ("wire_errors", Sum, One(wire_errors)),
            ("batches", Sum, One(batches)),
            ("batched_requests", Sum, One(batched_requests)),
            ("group_commit_waits", Sum, One(group_commit_waits)),
            ("batch_high_water", HighWater, One(batch_high_water)),
            ("batch_histogram", Sum, Many(batch_histogram)),
            ("insert_admissions", Sum, One(insert_admissions)),
            ("lookup_admissions", Sum, One(lookup_admissions)),
            ("delete_admissions", Sum, One(delete_admissions)),
            ("segments", Sum, One(segments)),
            ("segment_conflicts", Sum, One(segment_conflicts)),
            ("connections_opened", Sum, One(connections_opened)),
            ("connections_closed", Sum, One(connections_closed)),
            ("connections_stalled", Sum, One(connections_stalled)),
            ("bypass_hits", Sum, One(bypass_hits)),
            ("shard_depths", Gauge, Many(shard_depths)),
        ]
    }

    /// Folds another ledger into this one — used to merge the per-shard
    /// gather ledgers into the STATS view. Counters sum (the batch-size
    /// histogram bucket by bucket), the high-water mark takes the max,
    /// and the `shard_depths` gauge keeps whichever side has a snapshot
    /// (shard ledgers never carry one).
    pub fn absorb(&mut self, other: &ServerStats) {
        let mut other = other.clone();
        for ((_, kind, mut mine), (_, _, theirs)) in
            self.counters().into_iter().zip(other.counters())
        {
            match kind {
                Kind::Sum => mine.combine(theirs.values(), |a, b| a + b),
                Kind::HighWater => mine.combine(theirs.values(), u64::max),
                Kind::Gauge if mine.values().is_empty() => mine.combine(theirs.values(), |_, v| v),
                Kind::Gauge => {}
            }
        }
    }

    /// The ledger of the window between `earlier` and this later
    /// snapshot: counters subtract (saturating; the histogram bucket by
    /// bucket), high-water marks and gauges keep the later value.
    pub fn delta(&self, earlier: &ServerStats) -> ServerStats {
        let mut window = self.clone();
        let mut earlier = earlier.clone();
        for ((_, kind, mut later), (_, _, before)) in
            window.counters().into_iter().zip(earlier.counters())
        {
            if kind == Kind::Sum {
                later.combine(before.values(), u64::saturating_sub);
            }
        }
        window
    }
}

impl fmt::Display for ServerStats {
    /// One-line operational summary in the workspace ledger style: served
    /// op counts, group-commit shape, ring admissions, connection churn —
    /// with untouched segments elided.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "served: {} inserts | {} lookups ({} hits / {} misses) | {} deletes | {} flushes | {} stats",
            self.inserts, self.lookups, self.lookup_hits, self.lookup_misses, self.deletes,
            self.flushes, self.stats_calls,
        )?;
        if self.batches > 0 {
            write!(
                f,
                " | group commit: {} gathers, mean {:.1} reqs, hwm {}, {} lingered",
                self.batches,
                self.mean_batch(),
                self.batch_high_water,
                self.group_commit_waits
            )?;
        }
        if self.insert_admissions + self.lookup_admissions + self.delete_admissions > 0 {
            write!(
                f,
                " | admissions: {} insert, {} lookup, {} delete",
                self.insert_admissions, self.lookup_admissions, self.delete_admissions
            )?;
        }
        if self.segments > 0 {
            write!(
                f,
                " | segments: {} ({} closed by a key conflict)",
                self.segments, self.segment_conflicts
            )?;
        }
        if self.bypass_hits > 0 {
            write!(f, " | bypass: {} fast-path lookups", self.bypass_hits)?;
        }
        if !self.shard_depths.is_empty() {
            write!(f, " | shard depths: {:?}", self.shard_depths)?;
        }
        if self.connections_opened > 0 {
            write!(
                f,
                " | conns: {} opened / {} closed",
                self.connections_opened, self.connections_closed
            )?;
            if self.connections_stalled > 0 {
                write!(f, " ({} stalled)", self.connections_stalled)?;
            }
        }
        if self.wire_errors > 0 {
            write!(f, " | wire errors: {}", self.wire_errors)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_accumulate_histogram_and_high_water() {
        let mut s = ServerStats::new();
        s.record_batch(1, false);
        s.record_batch(1, false);
        s.record_batch(8, true);
        s.record_batch(1000, true);
        assert_eq!(s.batches, 4);
        assert_eq!(s.batched_requests, 1010);
        assert_eq!(s.batch_high_water, 1000);
        assert_eq!(s.group_commit_waits, 2);
        assert_eq!(s.batch_histogram[1], 2);
        assert_eq!(s.batch_histogram[8], 1);
        assert_eq!(*s.batch_histogram.last().unwrap(), 1, "cap bucket");
        assert!((s.mean_batch() - 1010.0 / 4.0).abs() < 1e-9);
        assert_eq!(ServerStats::new().mean_batch(), 0.0);
    }

    #[test]
    fn counter_names_are_unique_and_fit_their_length_byte() {
        let mut s = ServerStats::new();
        let names: Vec<&str> = s.counters().iter().map(|(name, _, _)| *name).collect();
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "the decoder finds a counter by its name");
        assert!(names.iter().all(|name| name.len() <= usize::from(u8::MAX)), "{names:?}");
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_the_later_gauges() {
        let mut early = ServerStats::new();
        early.lookups = 10;
        early.record_batch(4, false);
        early.record_batch(2, false);
        early.shard_depths = vec![9, 9];
        let mut late = early.clone();
        late.lookups = 110;
        late.segments = 3;
        late.record_batch(4, true);
        late.record_batch(40, false);
        late.shard_depths = vec![0, 3];
        let d = late.delta(&early);
        assert_eq!((d.lookups, d.segments), (100, 3), "counters subtract");
        assert_eq!((d.batches, d.batched_requests, d.group_commit_waits), (2, 44, 1));
        let mut histogram = vec![0; 41];
        histogram[4] = 1;
        histogram[40] = 1;
        assert_eq!(d.batch_histogram, histogram, "the histogram subtracts bucket by bucket");
        assert_eq!(d.batch_high_water, 40, "high-water keeps the later value");
        assert_eq!(d.shard_depths, vec![0, 3], "depths are a gauge: keep the later value");
        assert!((d.mean_batch() - 22.0).abs() < 1e-9);
        assert_eq!(late.delta(&late).batch_histogram, vec![0; 41]);
    }

    #[test]
    fn absorb_merges_shard_ledgers() {
        let mut total = ServerStats::new();
        total.inserts = 10;
        total.flushes = 1;
        total.connections_opened = 2;
        total.record_batch(4, true);
        let mut shard = ServerStats::new();
        shard.inserts = 5;
        shard.lookups = 7;
        shard.lookup_hits = 4;
        shard.lookup_misses = 3;
        shard.bypass_hits = 2;
        shard.insert_admissions = 1;
        shard.segments = 3;
        shard.segment_conflicts = 2;
        shard.record_batch(8, false);
        total.segments = 1;
        total.absorb(&shard);
        assert_eq!((total.segments, total.segment_conflicts), (4, 2));
        assert_eq!(total.inserts, 15);
        assert_eq!(total.lookups, 7);
        assert_eq!(total.bypass_hits, 2);
        assert_eq!(total.batches, 2);
        assert_eq!(total.batched_requests, 12);
        assert_eq!(total.batch_high_water, 8, "high water takes the max");
        assert_eq!(total.batch_histogram[4], 1);
        assert_eq!(total.batch_histogram[8], 1);
        assert_eq!(total.group_commit_waits, 1);
        assert_eq!(total.connections_opened, 2, "shard ledgers carry no connections");
        // The depth gauge survives the merge from whichever side has it.
        total.shard_depths = vec![1, 2];
        let mut merged = ServerStats::new();
        merged.absorb(&total);
        assert_eq!(merged.shard_depths, vec![1, 2]);
    }

    #[test]
    fn bypass_and_shard_depths_display() {
        let mut s = ServerStats::new();
        s.bypass_hits = 5;
        s.shard_depths = vec![0, 3];
        let text = s.to_string();
        assert!(text.contains("bypass: 5 fast-path lookups"), "{text}");
        assert!(text.contains("shard depths: [0, 3]"), "{text}");
        let quiet = ServerStats::new().to_string();
        assert!(!quiet.contains("bypass:") && !quiet.contains("shard depths:"), "{quiet}");
    }

    #[test]
    fn display_elides_untouched_segments() {
        let quiet = ServerStats::new().to_string();
        assert!(quiet.starts_with("served:"), "{quiet}");
        for absent in ["group commit:", "admissions:", "segments:", "conns:", "wire errors:"] {
            assert!(!quiet.contains(absent), "unexpected {absent:?} in {quiet}");
        }
        let mut s = ServerStats::new();
        s.inserts = 100;
        s.record_batch(25, true);
        s.record_batch(75, false);
        s.insert_admissions = 2;
        s.segments = 3;
        s.segment_conflicts = 1;
        s.connections_opened = 3;
        s.connections_closed = 3;
        s.wire_errors = 1;
        let text = s.to_string();
        for needle in [
            "served: 100 inserts",
            "group commit: 2 gathers, mean 50.0 reqs, hwm 75, 1 lingered",
            "admissions: 2 insert, 0 lookup, 0 delete",
            "segments: 3 (1 closed by a key conflict)",
            "conns: 3 opened / 3 closed",
            "wire errors: 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }
}
