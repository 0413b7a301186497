//! The `clamd` server-side statistics ledger.
//!
//! [`ServerStats`] counts what the *service* did — requests served,
//! group-commit gathers, ring admissions, wire errors — as opposed to
//! [`ClamStats`](bufferhash::ClamStats), which counts what the *store*
//! did underneath. A STATS request returns both ledgers (numeric fields
//! plus rendered text), and the `Display` impl mirrors the pipe-separated
//! ledger style used across the workspace, eliding segments that never
//! fired.

use std::fmt;

use crate::proto::StatsFields;

/// Maximum batch-size histogram index tracked explicitly; larger gathers
/// accumulate in the final bucket (same cap policy as the CLAM's
/// histograms).
const HISTOGRAM_CAP: usize = 64;

/// Counters for one `clamd` server instance.
#[derive(Debug, Clone, Default)]
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

    /// Folds another ledger into this one — used to merge the per-shard
    /// gather ledgers into the STATS view. Counters sum, the batch-size
    /// histogram merges bucket-wise, the high-water mark takes the max,
    /// and the `shard_depths` gauge keeps whichever side has a snapshot
    /// (shard ledgers never carry one).
    pub fn absorb(&mut self, other: &ServerStats) {
        self.inserts += other.inserts;
        self.lookups += other.lookups;
        self.deletes += other.deletes;
        self.flushes += other.flushes;
        self.stats_calls += other.stats_calls;
        self.lookup_hits += other.lookup_hits;
        self.lookup_misses += other.lookup_misses;
        self.wire_errors += other.wire_errors;
        self.batches += other.batches;
        self.batched_requests += other.batched_requests;
        self.group_commit_waits += other.group_commit_waits;
        self.batch_high_water = self.batch_high_water.max(other.batch_high_water);
        if self.batch_histogram.len() < other.batch_histogram.len() {
            self.batch_histogram.resize(other.batch_histogram.len(), 0);
        }
        for (d, s) in self.batch_histogram.iter_mut().zip(&other.batch_histogram) {
            *d += s;
        }
        self.insert_admissions += other.insert_admissions;
        self.lookup_admissions += other.lookup_admissions;
        self.delete_admissions += other.delete_admissions;
        self.segments += other.segments;
        self.segment_conflicts += other.segment_conflicts;
        self.connections_opened += other.connections_opened;
        self.connections_closed += other.connections_closed;
        self.bypass_hits += other.bypass_hits;
        if self.shard_depths.is_empty() {
            self.shard_depths = other.shard_depths.clone();
        }
    }

    /// The numeric field vector a STATS response carries.
    pub fn to_fields(&self) -> StatsFields {
        StatsFields {
            inserts: self.inserts,
            lookups: self.lookups,
            deletes: self.deletes,
            flushes: self.flushes,
            stats_calls: self.stats_calls,
            lookup_hits: self.lookup_hits,
            lookup_misses: self.lookup_misses,
            batches: self.batches,
            batched_requests: self.batched_requests,
            group_commit_waits: self.group_commit_waits,
            batch_high_water: self.batch_high_water,
            insert_admissions: self.insert_admissions,
            lookup_admissions: self.lookup_admissions,
            delete_admissions: self.delete_admissions,
            wire_errors: self.wire_errors,
            bypass_hits: self.bypass_hits,
            shards: self.shard_depths.len() as u64,
            shard_inflight: self.shard_depths.iter().sum(),
        }
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
    fn to_fields_copies_every_counter() {
        let mut s = ServerStats::new();
        s.inserts = 1;
        s.lookups = 2;
        s.deletes = 3;
        s.flushes = 4;
        s.stats_calls = 5;
        s.lookup_hits = 6;
        s.lookup_misses = 7;
        s.record_batch(10, true);
        s.insert_admissions = 8;
        s.lookup_admissions = 9;
        s.delete_admissions = 10;
        s.wire_errors = 11;
        s.bypass_hits = 12;
        s.shard_depths = vec![3, 0, 4];
        let f = s.to_fields();
        assert_eq!(f.inserts, 1);
        assert_eq!(f.lookups, 2);
        assert_eq!(f.deletes, 3);
        assert_eq!(f.flushes, 4);
        assert_eq!(f.stats_calls, 5);
        assert_eq!(f.lookup_hits, 6);
        assert_eq!(f.lookup_misses, 7);
        assert_eq!(f.batches, 1);
        assert_eq!(f.batched_requests, 10);
        assert_eq!(f.group_commit_waits, 1);
        assert_eq!(f.batch_high_water, 10);
        assert_eq!(f.insert_admissions, 8);
        assert_eq!(f.lookup_admissions, 9);
        assert_eq!(f.delete_admissions, 10);
        assert_eq!(f.wire_errors, 11);
        assert_eq!(f.bypass_hits, 12);
        assert_eq!(f.shards, 3);
        assert_eq!(f.shard_inflight, 7);
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
