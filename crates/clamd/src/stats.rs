//! The `clamd` server-side statistics ledger.
//!
//! [`ServerStats`] counts what the *service* did — requests served,
//! group-commit gathers, ring admissions, wire errors — as opposed to
//! [`ClamStats`](bufferhash::ClamStats), which counts what the *store*
//! did underneath. A STATS request returns the whole ledger plus the
//! rendered text of both.
//!
//! The ledger is declared once with [`flashsim::ledger!`]: each entry's
//! name is its wire name, and its kind says whether it is a sum, a
//! high-water mark or a gauge. [`ServerStats::delta`], `Display` and the
//! STATS codec in [`crate::proto`] walk that list, and
//! [`ServerStats::absorb`] folds each entry by it in place, so a new
//! counter is one declaration line and its increment — never a wire
//! version.

/// Maximum batch-size histogram index tracked explicitly; larger gathers
/// accumulate in the final bucket (same cap policy as the CLAM's
/// histograms).
const HISTOGRAM_CAP: usize = 64;

flashsim::ledger! {
    /// Counters for one `clamd` server instance.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ServerStats {
        /// Insert operations acknowledged (batch frames count each op).
        pub inserts: u64 => Sum,
        /// Lookup operations answered (batch frames count each key).
        pub lookups: u64 => Sum,
        /// Delete operations applied.
        pub deletes: u64 => Sum,
        /// FLUSH barriers served without error, each counted once.
        pub flushes: u64 => Sum,
        /// STATS requests served.
        pub stats_calls: u64 => Sum,
        /// Lookups that found a value.
        pub lookup_hits: u64 => Sum,
        /// Lookups that found nothing.
        pub lookup_misses: u64 => Sum,
        /// Connections dropped after a protocol violation.
        pub wire_errors: u64 => Sum,
        /// Group-commit gathers executed by the shards' leaders.
        pub batches: u64 => Sum,
        /// Requests drained across all gathers.
        pub batched_requests: u64 => Sum,
        /// Always 0: no gather waits for concurrent arrivals. Kept because
        /// the repo benchmark reads it, until ROADMAP item 8.
        pub group_commit_waits: u64 => Sum,
        /// Largest gather, in requests.
        pub batch_high_water: u64 => HighWater,
        /// Histogram of gather sizes: `batch_histogram[n]` is the number of
        /// gathers that drained exactly `n` requests (the final bucket
        /// accumulates everything at or beyond its index).
        pub batch_histogram: Vec<u64> => Sum,
        /// Coalesced `insert_batch` ring admissions (one per segment that
        /// holds inserts).
        pub insert_admissions: u64 => Sum,
        /// Coalesced `lookup_batch` ring admissions.
        pub lookup_admissions: u64 => Sum,
        /// Per-key delete admissions.
        pub delete_admissions: u64 => Sum,
        /// Conflict-free segments executed: runs of a gather in which no key
        /// is both read and written, or both inserted and deleted, each
        /// costing at most one `insert_batch` and one `lookup_batch`
        /// admission plus its deletes.
        pub segments: u64 => Sum,
        /// Segments closed early because a request touched a key the segment
        /// already held under another kind of operation.
        pub segment_conflicts: u64 => Sum,
        /// Connections accepted.
        pub connections_opened: u64 => Sum,
        /// Connections closed (cleanly or after an error).
        pub connections_closed: u64 => Sum,
        /// Connections closed because a delivery to them could not finish
        /// within the stall limit: the client had stopped reading.
        pub connections_stalled: u64 => Sum,
        /// Always 0: every lookup queues and is gathered. Kept because the
        /// repo benchmark reads it, until ROADMAP item 8.
        pub bypass_hits: u64 => Sum,
        /// Most recent per-shard in-flight depth snapshot (queued plus
        /// executing requests), refreshed by STATS requests and captured at
        /// shutdown entry. Empty until the first snapshot.
        pub shard_depths: Vec<u64> => Gauge,
        /// Stripes whose flush failed at a clean shutdown (the others still flush).
        pub shutdown_flush_errors: u64 => Sum,
        /// Leads taken: pushes that found their shard 's stripe home, whose reader
        /// then ran its gathers until a poll found the queue empty.
        pub leads: u64 => Sum,
        /// Failed `accept` calls (say, out of file descriptors): each is
        /// followed by a pause, and the listener accepts again.
        pub accept_errors: u64 => Sum,
        /// Server threads (the acceptor, a connection's reader) found
        /// panicked when joined, at shutdown or when a finished reader is
        /// reaped.
        pub thread_panics: u64 => Sum,
    }
}

impl ServerStats {
    /// Records one group-commit gather of `size` requests.
    pub fn record_batch(&mut self, size: usize) {
        self.batches += 1;
        self.batched_requests += size as u64;
        self.batch_high_water = self.batch_high_water.max(size as u64);
        let idx = size.min(HISTOGRAM_CAP);
        if self.batch_histogram.len() <= idx {
            self.batch_histogram.resize(idx + 1, 0);
        }
        self.batch_histogram[idx] += 1;
    }

    /// Mean requests per gather.
    pub fn mean_batch(&self) -> f64 {
        ratio(self.batched_requests, self.batches)
    }

    /// Mean gathers a leader ran before a poll found its queue empty.
    pub fn gathers_per_lead(&self) -> f64 {
        ratio(self.batches, self.leads)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashsim::Kind;

    #[test]
    fn batches_accumulate_histogram_and_high_water() {
        let mut s = ServerStats::new();
        s.record_batch(1);
        s.record_batch(1);
        s.record_batch(8);
        s.record_batch(1000);
        assert_eq!(s.batches, 4);
        assert_eq!(s.batched_requests, 1010);
        assert_eq!(s.batch_high_water, 1000);
        assert_eq!(s.group_commit_waits, 0);
        assert_eq!(s.batch_histogram[1], 2);
        assert_eq!(s.batch_histogram[8], 1);
        assert_eq!(*s.batch_histogram.last().unwrap(), 1, "cap bucket");
        assert!((s.mean_batch() - 1010.0 / 4.0).abs() < 1e-9);
        assert_eq!(ServerStats::new().mean_batch(), 0.0);
    }

    #[test]
    fn counter_names_are_unique_and_fit_their_length_byte() {
        let mut s = ServerStats::new();
        let names: Vec<&str> = s.entries().iter().map(|(name, _, _)| *name).collect();
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "the decoder finds a counter by its name");
        assert!(names.iter().all(|name| name.len() <= usize::from(u8::MAX)), "{names:?}");
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_the_later_gauges() {
        let mut early = ServerStats::new();
        early.lookups = 10;
        early.record_batch(4);
        early.record_batch(2);
        early.shard_depths = vec![9, 9];
        let mut late = early.clone();
        late.lookups = 110;
        late.segments = 3;
        late.record_batch(4);
        late.group_commit_waits += 1;
        late.record_batch(40);
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
        total.record_batch(4);
        total.group_commit_waits = 1;
        let mut shard = ServerStats::new();
        shard.inserts = 5;
        shard.lookups = 7;
        shard.lookup_hits = 4;
        shard.lookup_misses = 3;
        shard.bypass_hits = 2;
        shard.insert_admissions = 1;
        shard.segments = 3;
        shard.segment_conflicts = 2;
        shard.record_batch(8);
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
        assert_eq!(s.to_string(), "bypass_hits: 5 | shard_depths: [0, 3]");
    }

    #[test]
    fn display_elides_untouched_segments() {
        assert_eq!(ServerStats::new().to_string(), "");
        let mut s = ServerStats::new();
        s.inserts = 100;
        s.record_batch(25);
        s.group_commit_waits = 1;
        s.insert_admissions = 2;
        s.wire_errors = 1;
        let mut histogram = vec![0; 26];
        histogram[25] = 1;
        assert_eq!(
            s.to_string(),
            format!(
                "inserts: 100 | wire_errors: 1 | batches: 1 | batched_requests: 25 \
                 | group_commit_waits: 1 | batch_high_water: 25 | batch_histogram: {histogram:?} \
                 | insert_admissions: 2"
            )
        );
    }

    /// A ledger's list as plain data: each entry's name, kind and values.
    type View = Vec<(&'static str, Kind, Vec<u64>)>;

    fn view(mut ledger: ServerStats) -> View {
        ledger
            .entries()
            .into_iter()
            .map(|(name, kind, slot)| (name, kind, slot.values().to_vec()))
            .collect()
    }

    /// Checks, entry by entry by its kind, that `sum` is `x` absorbing `y`
    /// and `window` is `sum.delta(x)`.
    fn check_by_kind(sum: View, x: View, y: View, window: View) {
        for (((name, kind, sum), (_, _, x)), ((_, _, y), (_, _, window))) in
            sum.into_iter().zip(x).zip(y.into_iter().zip(window))
        {
            let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
            let each = |f: fn(u64, u64) -> u64| -> Vec<u64> {
                (0..x.len().max(y.len())).map(|i| f(at(&x, i), at(&y, i))).collect()
            };
            let (want, want_window) = match kind {
                Kind::Sum => (each(|a, b| a + b), each(|_, b| b)),
                Kind::HighWater => (each(u64::max), sum.clone()),
                Kind::Gauge => (if x.is_empty() { y.clone() } else { x.clone() }, sum.clone()),
            };
            assert_eq!(sum, want, "{name} absorbs as a {kind:?}");
            assert_eq!(window, want_window, "{name} windows as a {kind:?}");
        }
    }

    #[test]
    fn every_entry_absorbs_and_windows_by_its_kind() {
        let filled = |seed: u64| {
            let mut s = ServerStats::new();
            for (i, (_, _, mut slot)) in (0..).zip(s.entries()) {
                slot.set(&[(seed * 7 + i * 13) % 29 + 1, seed + i]);
            }
            s
        };
        let (a, b) = (filled(3), filled(50));
        for (x, y) in [(&a, &b), (&b, &a), (&ServerStats::new(), &a)] {
            let mut sum = x.clone();
            sum.absorb(y);
            let window = sum.delta(x);
            check_by_kind(view(sum), view(x.clone()), view(y.clone()), view(window));
        }
        let entries = view(a);
        let marks: Vec<_> =
            entries.iter().filter(|e| e.1 != Kind::Sum).map(|e| (e.0, e.1)).collect();
        assert_eq!(marks, [("batch_high_water", Kind::HighWater), ("shard_depths", Kind::Gauge)]);
    }
}
