//! Operation statistics for a CLAM.
//!
//! Every hash-table operation records its end-to-end simulated latency plus
//! the breakdown the paper's evaluation reports: flash reads per lookup
//! (Table 2), buffer flushes and cascaded evictions (Figure 8b), Bloom
//! false positives, and so on.
//!
//! [`ClamStats`] is declared with [`flashsim::ledger!`]: a new counter is
//! one declaration line and its increment.

use flashsim::{LatencyRecorder, SimDuration};

use crate::clam::LookupOutcome;

flashsim::ledger! {
    /// Counters and latency recorders for one CLAM instance.
    #[derive(Debug, Clone, Default)]
    pub struct ClamStats {
        /// Latency of insert operations.
        pub inserts: LatencyRecorder => Sum,
        /// Latency of lookup operations.
        pub lookups: LatencyRecorder => Sum,
        /// Latency of delete operations.
        pub deletes: LatencyRecorder => Sum,
        /// Lookups that found a value.
        pub lookup_hits: u64 => Sum,
        /// Lookups that found nothing (or a deleted key).
        pub lookup_misses: u64 => Sum,
        /// Lookups by [`LookupSource`](crate::LookupSource) (as `usize`):
        /// buffer, retired, flash, deleted, miss. A miss with no flash read was
        /// filtered out. A [`Retired`](crate::LookupSource::Retired) hit is a
        /// key of one of a table's incarnations read from the buffer slot it
        /// was flushed from, a flash page read that did not happen.
        pub lookups_by_source: [u64; 5] => Sum,
        /// Buffer flushes (incarnations written to flash).
        pub flushes: u64 => Sum,
        /// Incarnations force-evicted because the flash log wrapped onto them.
        pub forced_evictions: u64 => Sum,
        /// Entries re-inserted into buffers by partial-discard eviction or LRU.
        pub reinsertions: u64 => Sum,
        /// Flash page reads that did not yield the key (Bloom false positives
        /// or overflow-chain hops).
        pub spurious_flash_reads: u64 => Sum,
        /// Total flash page reads performed by lookups.
        pub lookup_flash_reads: u64 => Sum,
        /// Histogram of flash reads per lookup: `flash_reads_histogram[i]` is the
        /// number of lookups that performed exactly `i` flash reads (the last
        /// bucket accumulates everything at or beyond its index).
        pub flash_reads_histogram: Vec<u64> => Sum,
        /// Histogram of incarnations tried per eviction cascade (Figure 8b):
        /// index = number of incarnations evicted in one flush chain.
        pub cascade_histogram: Vec<u64> => Sum,
        /// Simulated latency spent in asynchronous LRU re-insertions (not
        /// charged to the triggering lookups).
        pub async_reinsert_time: SimDuration => Sum,
        /// Inserts submitted through the batched pipeline
        /// (`Clam::insert_batch`).
        pub batched_inserts: u64 => Sum,
        /// Lookups submitted through the batched pipeline
        /// (`Clam::lookup_batch`).
        pub batched_lookups: u64 => Sum,
        /// Device write commands eliminated by batch flush coalescing
        /// (contiguous incarnation writes merged into one sequential write).
        pub coalesced_flush_writes: u64 => Sum,
        /// Simulated latency of incarnation writes deferred by batches and
        /// drained at the *end* of the batch (charged to the batch as a whole,
        /// not to any triggering insert). Drains forced mid-batch — before an
        /// erase or a partial-discard eviction read — are charged to the op
        /// that needed them, like a sequential flush, and are not counted here.
        pub deferred_flush_time: SimDuration => Sum,
        /// Lookup calls (batched or per-op) whose flash probes reached the
        /// device through the queued read pipeline (at least one probe read
        /// admitted to the completion ring).
        pub lookup_batches_submitted: u64 => Sum,
        /// Probe rounds of the queued lookup pipeline: per call, the deepest
        /// key's chain of page reads (rounds of different keys interleave on
        /// the ring).
        pub lookup_probe_waves: u64 => Sum,
        /// Flash page-read requests submitted by the queued lookup pipeline
        /// (one per key per round).
        pub lookup_probe_requests: u64 => Sum,
        /// Probe requests that overlapped another request of their call on the
        /// device queue (completed on a lane other than 0) — the lookup-side
        /// view of `IoStats::requests_overlapped`. Always zero on serial media.
        pub lookup_probes_overlapped: u64 => Sum,
        /// Completions the streaming ring pipeline's `Device::submit` calls
        /// returned.
        pub lookup_ring_reaps: u64 => Sum,
        /// In-flight depth high-water mark over every completion ring the
        /// lookup pipeline drove.
        pub lookup_ring_depth_high_water: u64 => HighWater,
        /// Ring admissions delayed by a conflicting in-flight range beyond
        /// lane availability. Read-read overlap is exempt, so this stays zero
        /// for pure probe traffic; it counts contention against interleaved
        /// writes.
        pub lookup_ring_admission_stalls: u64 => Sum,
        /// Completions the ring-driven write path's (flush, eviction, drain)
        /// `Device::submit` calls returned — the flush-side counterpart of
        /// `lookup_ring_reaps`.
        pub flush_ring_reaps: u64 => Sum,
        /// Write-side ring admissions whose start was delayed by a
        /// write-write or read-after-write conflict floor beyond lane
        /// availability — ordering the ring had to *enforce* rather than
        /// discover.
        pub write_ring_admission_stalls: u64 => Sum,
        /// In-flight depth high-water mark over rings that carried **both**
        /// read and write traffic in one call (probe reads overlapping flush
        /// writes); zero when reads and writes never shared a ring.
        pub mixed_ring_depth_high_water: u64 => HighWater,
        /// Always zero: the shared-lock read fast path this counted is gone,
        /// and every lookup runs the ring pipeline under the stripe's one
        /// lock. Kept declared, with the entry below, because
        /// `benchmark/src/run.rs:482-490` reads both by name.
        pub fast_lookups: u64 => Sum,
        /// Always zero; see [`fast_lookups`](Self::fast_lookups).
        pub fast_read_conflicts: u64 => Sum,
        /// Recovery scans performed (`Clam::recover` constructions).
        pub recoveries: u64 => Sum,
        /// Incarnations accepted and re-registered across all recovery scans.
        pub recovered_incarnations: u64 => Sum,
        /// Slots a recovery scan rejected as torn (checksum/identity failures).
        pub recovery_torn_slots: u64 => Sum,
        /// Always zero: the per-table write locks this counted are gone. Kept
        /// declared, with the two entries below, because
        /// `benchmark/src/run.rs:492-498` reads all three by name.
        pub table_write_acquisitions: u64 => Sum,
        /// Always zero; see [`table_write_acquisitions`](Self::table_write_acquisitions).
        pub table_write_contended: u64 => Sum,
        /// Always zero; see [`table_write_acquisitions`](Self::table_write_acquisitions).
        pub table_lock_high_water: u64 => HighWater,
        /// Lookup page reads whose header named another incarnation or page
        /// than the probe meant to read; each failed its lookup with
        /// `CorruptIncarnation`.
        pub page_identity_mismatches: u64 => Sum,
    }
}

/// Maximum histogram index tracked explicitly; larger values accumulate in
/// the final bucket.
const HISTOGRAM_CAP: usize = 64;

impl ClamStats {
    /// Records one resolved lookup, whichever path served it: hit or miss,
    /// its latency sample, its flash reads and where a hit came from.
    pub fn record_lookup(&mut self, outcome: &LookupOutcome) {
        if outcome.value.is_some() {
            self.lookup_hits += 1;
        } else {
            self.lookup_misses += 1;
        }
        self.lookups_by_source[outcome.source as usize] += 1;
        self.lookups.record(outcome.latency);
        self.record_lookup_reads(outcome.flash_reads);
    }

    /// Records the number of flash reads a lookup performed.
    pub fn record_lookup_reads(&mut self, reads: usize) {
        self.lookup_flash_reads += reads as u64;
        let idx = reads.min(HISTOGRAM_CAP);
        if self.flash_reads_histogram.len() <= idx {
            self.flash_reads_histogram.resize(idx + 1, 0);
        }
        self.flash_reads_histogram[idx] += 1;
    }

    /// Records the number of incarnations evicted by one flush chain.
    pub fn record_cascade(&mut self, incarnations_tried: usize) {
        let idx = incarnations_tried.min(HISTOGRAM_CAP);
        if self.cascade_histogram.len() <= idx {
            self.cascade_histogram.resize(idx + 1, 0);
        }
        self.cascade_histogram[idx] += 1;
    }

    /// Total number of operations recorded.
    pub fn total_ops(&self) -> usize {
        self.inserts.len() + self.lookups.len() + self.deletes.len()
    }

    /// Fraction of lookups that performed exactly `n` flash reads.
    pub fn lookup_read_fraction(&self, n: usize) -> f64 {
        let total: u64 = self.flash_reads_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.flash_reads_histogram.get(n).copied().unwrap_or(0) as f64 / total as f64
    }

    /// Lookup success rate observed so far.
    pub fn lookup_success_rate(&self) -> f64 {
        let total = self.lookup_hits + self.lookup_misses;
        if total == 0 {
            return 0.0;
        }
        self.lookup_hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clam::LookupSource;
    use flashsim::Kind;

    #[test]
    fn histograms_accumulate_and_cap() {
        let mut s = ClamStats::new();
        s.record_lookup_reads(0);
        s.record_lookup_reads(0);
        s.record_lookup_reads(1);
        s.record_lookup_reads(1000);
        assert_eq!(s.flash_reads_histogram[0], 2);
        assert_eq!(s.flash_reads_histogram[1], 1);
        assert_eq!(*s.flash_reads_histogram.last().unwrap(), 1);
        assert_eq!(s.lookup_flash_reads, 1001);
        assert!((s.lookup_read_fraction(0) - 0.5).abs() < 1e-9);
        assert_eq!(s.lookup_read_fraction(7), 0.0);
    }

    #[test]
    fn cascade_histogram() {
        let mut s = ClamStats::new();
        s.record_cascade(1);
        s.record_cascade(3);
        s.record_cascade(3);
        assert_eq!(s.cascade_histogram[1], 1);
        assert_eq!(s.cascade_histogram[3], 2);
    }

    /// A ledger's list as plain data: each entry's name, kind and values.
    type View = Vec<(&'static str, Kind, Vec<u64>)>;

    fn view(mut ledger: ClamStats) -> View {
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
            let mut s = ClamStats::new();
            for (i, (_, _, mut slot)) in (0..).zip(s.entries()) {
                slot.set(&[(seed * 7 + i * 13) % 29 + 1, seed + i]);
            }
            s
        };
        let (a, b) = (filled(3), filled(50));
        for (x, y) in [(&a, &b), (&b, &a), (&ClamStats::new(), &a)] {
            let mut sum = x.clone();
            sum.absorb(y);
            let window = sum.delta(x);
            check_by_kind(view(sum), view(x.clone()), view(y.clone()), view(window));
        }
        let entries = view(a);
        let marks: Vec<_> =
            entries.iter().filter(|e| e.1 != Kind::Sum).map(|e| (e.0, e.1)).collect();
        let high_water = Kind::HighWater;
        assert_eq!(
            marks,
            [
                ("lookup_ring_depth_high_water", high_water),
                ("mixed_ring_depth_high_water", high_water),
                ("table_lock_high_water", high_water),
            ]
        );
        let names: std::collections::HashSet<_> = entries.iter().map(|e| e.0).collect();
        assert_eq!(names.len(), entries.len(), "a name finds one entry");
        assert!(names.iter().all(|name| name.len() <= usize::from(u8::MAX)), "{names:?}");
    }

    #[test]
    fn display_summarizes_and_elides_untouched_pipelines() {
        let mut s = ClamStats::new();
        for source in [LookupSource::Flash, LookupSource::Miss, LookupSource::Miss] {
            let latency = SimDuration::from_micros(2);
            s.record_lookup(&LookupOutcome { value: None, latency, flash_reads: 1, source });
        }
        s.flushes = 2;
        assert_eq!(
            s.to_string(),
            "lookups: 3 (mean 2.00us) | lookup_misses: 3 | lookups_by_source: [0, 0, 1, 0, 2] \
             | flushes: 2 | lookup_flash_reads: 3 | flash_reads_histogram: [0, 3]"
        );
    }

    #[test]
    fn success_rate_and_reset() {
        let mut s = ClamStats::new();
        assert_eq!(s.lookup_success_rate(), 0.0);
        s.lookup_hits = 40;
        s.lookup_misses = 60;
        assert!((s.lookup_success_rate() - 0.4).abs() < 1e-9);
        s.inserts.record(SimDuration::from_micros(5));
        s.lookups_by_source[LookupSource::Deleted as usize] = 3;
        assert_eq!(s.total_ops(), 1);
        s.reset();
        assert_eq!(s.total_ops(), 0);
        assert_eq!(s.lookup_hits, 0);
        assert_eq!(s.lookups_by_source, [0; 5]);
    }
}
