//! Operation statistics for a CLAM.
//!
//! Every hash-table operation records its end-to-end simulated latency plus
//! the breakdown the paper's evaluation reports: flash reads per lookup
//! (Table 2), buffer flushes and cascaded evictions (Figure 8b), Bloom
//! false positives, and so on.

use std::fmt;

use flashsim::{LatencyRecorder, SimDuration};

use crate::clam::LookupOutcome;

/// Counters and latency recorders for one CLAM instance.
#[derive(Debug, Clone, Default)]
pub struct ClamStats {
    /// Latency of insert operations.
    pub inserts: LatencyRecorder,
    /// Latency of lookup operations.
    pub lookups: LatencyRecorder,
    /// Latency of delete operations.
    pub deletes: LatencyRecorder,
    /// Lookups that found a value.
    pub lookup_hits: u64,
    /// Lookups that found nothing (or a deleted key).
    pub lookup_misses: u64,
    /// Lookups by [`LookupSource`](crate::LookupSource) (as `usize`):
    /// buffer, retired, flash, deleted, miss. A miss with no flash read was
    /// filtered out. A [`Retired`](crate::LookupSource::Retired) hit is a
    /// key of one of a table's incarnations read from the buffer slot it
    /// was flushed from, a flash page read that did not happen.
    pub lookups_by_source: [u64; 5],
    /// Buffer flushes (incarnations written to flash).
    pub flushes: u64,
    /// Incarnations force-evicted because the flash log wrapped onto them.
    pub forced_evictions: u64,
    /// Entries re-inserted into buffers by partial-discard eviction or LRU.
    pub reinsertions: u64,
    /// Flash page reads that did not yield the key (Bloom false positives
    /// or overflow-chain hops).
    pub spurious_flash_reads: u64,
    /// Total flash page reads performed by lookups.
    pub lookup_flash_reads: u64,
    /// Histogram of flash reads per lookup: `flash_reads_histogram[i]` is the
    /// number of lookups that performed exactly `i` flash reads (the last
    /// bucket accumulates everything at or beyond its index).
    pub flash_reads_histogram: Vec<u64>,
    /// Histogram of incarnations tried per eviction cascade (Figure 8b):
    /// index = number of incarnations evicted in one flush chain.
    pub cascade_histogram: Vec<u64>,
    /// Simulated latency spent in asynchronous LRU re-insertions (not
    /// charged to the triggering lookups).
    pub async_reinsert_time: SimDuration,
    /// Inserts submitted through the batched pipeline
    /// (`Clam::insert_batch`).
    pub batched_inserts: u64,
    /// Lookups submitted through the batched pipeline
    /// (`Clam::lookup_batch`).
    pub batched_lookups: u64,
    /// Device write commands eliminated by batch flush coalescing
    /// (contiguous incarnation writes merged into one sequential write).
    pub coalesced_flush_writes: u64,
    /// Simulated latency of incarnation writes deferred by batches and
    /// drained at the *end* of the batch (charged to the batch as a whole,
    /// not to any triggering insert). Drains forced mid-batch — before an
    /// erase or a partial-discard eviction read — are charged to the op
    /// that needed them, like a sequential flush, and are not counted here.
    pub deferred_flush_time: SimDuration,
    /// Lookup calls (batched or per-op) whose flash probes reached the
    /// device through the queued read pipeline (at least one probe read
    /// admitted to the completion ring).
    pub lookup_batches_submitted: u64,
    /// Probe rounds of the queued lookup pipeline: per call, the deepest
    /// key's chain of page reads (rounds of different keys interleave on
    /// the ring).
    pub lookup_probe_waves: u64,
    /// Flash page-read requests submitted by the queued lookup pipeline
    /// (one per key per round).
    pub lookup_probe_requests: u64,
    /// Probe requests that overlapped another request of their call on the
    /// device queue (completed on a lane other than 0) — the lookup-side
    /// view of `IoStats::requests_overlapped`. Always zero on serial media.
    pub lookup_probes_overlapped: u64,
    /// Completions the streaming ring pipeline collected through
    /// `Device::reap`.
    pub lookup_ring_reaps: u64,
    /// In-flight depth high-water mark over every completion ring the
    /// lookup pipeline drove. Merged with `max`, not summed: it is a
    /// high-water mark, not a count.
    pub lookup_ring_depth_high_water: u64,
    /// Ring admissions delayed by a conflicting in-flight range beyond
    /// lane availability. Read-read overlap is exempt, so this stays zero
    /// for pure probe traffic; it counts contention against interleaved
    /// writes.
    pub lookup_ring_admission_stalls: u64,
    /// Completions the ring-driven write path (flush, eviction, drain)
    /// collected through `Device::reap` — the flush-side counterpart of
    /// `lookup_ring_reaps`.
    pub flush_ring_reaps: u64,
    /// Write-side ring admissions whose start was delayed by a
    /// write-write or read-after-write conflict floor beyond lane
    /// availability — ordering the ring had to *enforce* rather than
    /// discover.
    pub write_ring_admission_stalls: u64,
    /// In-flight depth high-water mark over rings that carried **both**
    /// read and write traffic in one call (probe reads overlapping flush
    /// writes). Merged with `max`; zero when reads and writes never shared
    /// a ring.
    pub mixed_ring_depth_high_water: u64,
    /// Lookups resolved on the read fast path
    /// (`SharedClam::try_fast_lookup`): a memory probe under the stripe
    /// lock held shared, without taking it exclusive.
    pub fast_lookups: u64,
    /// Fast-path attempts that found a writer holding or awaiting the
    /// stripe lock (`try_read` failed) and fell back to the exclusive
    /// pipeline.
    pub fast_read_conflicts: u64,
    /// Recovery scans performed (`Clam::recover` constructions).
    pub recoveries: u64,
    /// Incarnations accepted and re-registered across all recovery scans.
    pub recovered_incarnations: u64,
    /// Slots a recovery scan rejected as torn (checksum/identity failures).
    pub recovery_torn_slots: u64,
    /// Always zero: the per-table write locks this counted are gone. Kept
    /// declared, with the two fields below, because
    /// `benchmark/src/run.rs:492-498` reads all three by name.
    pub table_write_acquisitions: u64,
    /// Always zero; see [`table_write_acquisitions`](Self::table_write_acquisitions).
    pub table_write_contended: u64,
    /// Always zero; see [`table_write_acquisitions`](Self::table_write_acquisitions).
    pub table_lock_high_water: u64,
}

/// Maximum histogram index tracked explicitly; larger values accumulate in
/// the final bucket.
const HISTOGRAM_CAP: usize = 64;

impl ClamStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

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

    /// Clears all statistics.
    pub fn reset(&mut self) {
        *self = ClamStats::default();
    }

    /// Merges another instance's statistics into this one (used to
    /// aggregate per-stripe stats). Every field is combined, histograms
    /// bucket-wise.
    pub fn merge(&mut self, other: &ClamStats) {
        self.inserts.merge(&other.inserts);
        self.lookups.merge(&other.lookups);
        self.deletes.merge(&other.deletes);
        self.lookup_hits += other.lookup_hits;
        self.lookup_misses += other.lookup_misses;
        for (mine, theirs) in self.lookups_by_source.iter_mut().zip(other.lookups_by_source) {
            *mine += theirs;
        }
        self.flushes += other.flushes;
        self.forced_evictions += other.forced_evictions;
        self.reinsertions += other.reinsertions;
        self.spurious_flash_reads += other.spurious_flash_reads;
        self.lookup_flash_reads += other.lookup_flash_reads;
        merge_histogram(&mut self.flash_reads_histogram, &other.flash_reads_histogram);
        merge_histogram(&mut self.cascade_histogram, &other.cascade_histogram);
        self.async_reinsert_time += other.async_reinsert_time;
        self.batched_inserts += other.batched_inserts;
        self.batched_lookups += other.batched_lookups;
        self.coalesced_flush_writes += other.coalesced_flush_writes;
        self.deferred_flush_time += other.deferred_flush_time;
        self.lookup_batches_submitted += other.lookup_batches_submitted;
        self.lookup_probe_waves += other.lookup_probe_waves;
        self.lookup_probe_requests += other.lookup_probe_requests;
        self.lookup_probes_overlapped += other.lookup_probes_overlapped;
        self.lookup_ring_reaps += other.lookup_ring_reaps;
        self.lookup_ring_depth_high_water =
            self.lookup_ring_depth_high_water.max(other.lookup_ring_depth_high_water);
        self.lookup_ring_admission_stalls += other.lookup_ring_admission_stalls;
        self.flush_ring_reaps += other.flush_ring_reaps;
        self.write_ring_admission_stalls += other.write_ring_admission_stalls;
        self.mixed_ring_depth_high_water =
            self.mixed_ring_depth_high_water.max(other.mixed_ring_depth_high_water);
        self.fast_lookups += other.fast_lookups;
        self.fast_read_conflicts += other.fast_read_conflicts;
        self.recoveries += other.recoveries;
        self.recovered_incarnations += other.recovered_incarnations;
        self.recovery_torn_slots += other.recovery_torn_slots;
    }
}

impl fmt::Display for ClamStats {
    /// One-line operational summary, mirroring `IoStats`'s ledger style:
    /// op counts with mean latencies, hit rate, flush/eviction traffic, and
    /// the batched/queued pipeline counters (elided when untouched).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "inserts: {} (mean {}) | lookups: {} (mean {}, {} hits / {} misses) | deletes: {}",
            self.inserts.len(),
            self.inserts.mean(),
            self.lookups.len(),
            self.lookups.mean(),
            self.lookup_hits,
            self.lookup_misses,
            self.deletes.len(),
        )?;
        write!(
            f,
            " | flushes: {} ({} forced evictions, {} reinsertions)",
            self.flushes, self.forced_evictions, self.reinsertions
        )?;
        write!(
            f,
            " | lookup flash reads: {} ({} spurious)",
            self.lookup_flash_reads, self.spurious_flash_reads
        )?;
        if !self.lookups.is_empty() {
            let [buffer, retired, flash, deleted, miss] = self.lookups_by_source;
            write!(
                f,
                " | by source: {buffer} buffer, {retired} retired, {flash} flash, \
                 {deleted} deleted, {miss} miss"
            )?;
        }
        if self.batched_inserts > 0 || self.batched_lookups > 0 {
            write!(
                f,
                " | batched: {} inserts, {} lookups ({} coalesced writes)",
                self.batched_inserts, self.batched_lookups, self.coalesced_flush_writes
            )?;
        }
        if self.lookup_batches_submitted > 0 {
            write!(
                f,
                " | queued lookups: {} batches, {} waves, {} probes ({} overlapped)",
                self.lookup_batches_submitted,
                self.lookup_probe_waves,
                self.lookup_probe_requests,
                self.lookup_probes_overlapped
            )?;
        }
        if self.lookup_ring_reaps > 0 || self.lookup_ring_depth_high_water > 0 {
            write!(
                f,
                " | ring: {} reaps, depth hwm {}, {} stalls",
                self.lookup_ring_reaps,
                self.lookup_ring_depth_high_water,
                self.lookup_ring_admission_stalls
            )?;
        }
        if self.flush_ring_reaps > 0 || self.mixed_ring_depth_high_water > 0 {
            write!(
                f,
                " | write ring: {} reaps, {} stalls, mixed depth hwm {}",
                self.flush_ring_reaps,
                self.write_ring_admission_stalls,
                self.mixed_ring_depth_high_water
            )?;
        }
        if self.fast_lookups > 0 || self.fast_read_conflicts > 0 {
            write!(
                f,
                " | fast reads: {} lock-free, {} conflicts",
                self.fast_lookups, self.fast_read_conflicts
            )?;
        }
        if self.recoveries > 0 {
            write!(
                f,
                " | recovery: {} scans, {} incarnations, {} torn slots",
                self.recoveries, self.recovered_incarnations, self.recovery_torn_slots
            )?;
        }
        Ok(())
    }
}

/// Adds `src` into `dst` bucket-wise, growing `dst` as needed.
fn merge_histogram(dst: &mut Vec<u64>, src: &[u64]) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clam::LookupSource;

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

    #[test]
    fn merge_combines_every_field_including_histograms() {
        let mut a = ClamStats::new();
        a.record_lookup_reads(0);
        a.record_cascade(1);
        a.lookup_hits = 3;
        a.flushes = 2;
        a.batched_inserts = 10;
        a.deferred_flush_time = SimDuration::from_micros(5);
        a.lookup_batches_submitted = 2;
        a.lookup_probe_requests = 6;
        a.lookups_by_source = [1, 2, 3, 4, 5];
        let mut b = ClamStats::new();
        b.record_lookup_reads(0);
        b.record_lookup_reads(2);
        b.record_cascade(4);
        b.lookup_misses = 7;
        b.coalesced_flush_writes = 4;
        b.lookup_batches_submitted = 1;
        b.lookup_probe_waves = 3;
        b.lookup_probe_requests = 9;
        b.lookup_probes_overlapped = 5;
        b.lookups_by_source = [10, 0, 30, 0, 50];
        a.merge(&b);
        assert_eq!(a.lookups_by_source, [11, 2, 33, 4, 55]);
        assert_eq!(a.flash_reads_histogram[0], 2);
        assert_eq!(a.flash_reads_histogram[2], 1);
        assert_eq!(a.cascade_histogram[1], 1);
        assert_eq!(a.cascade_histogram[4], 1);
        assert_eq!(a.lookup_hits, 3);
        assert_eq!(a.lookup_misses, 7);
        assert_eq!(a.flushes, 2);
        assert_eq!(a.batched_inserts, 10);
        assert_eq!(a.coalesced_flush_writes, 4);
        assert_eq!(a.deferred_flush_time, SimDuration::from_micros(5));
        assert!((a.lookup_read_fraction(0) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(a.lookup_batches_submitted, 3);
        assert_eq!(a.lookup_probe_waves, 3);
        assert_eq!(a.lookup_probe_requests, 15);
        assert_eq!(a.lookup_probes_overlapped, 5);
    }

    #[test]
    fn display_summarizes_and_elides_untouched_pipelines() {
        let mut s = ClamStats::new();
        s.inserts.record(SimDuration::from_micros(3));
        s.lookup_hits = 1;
        s.flushes = 2;
        let quiet = s.to_string();
        assert!(quiet.contains("inserts: 1"));
        assert!(quiet.contains("flushes: 2"));
        assert!(!quiet.contains("batched:") && !quiet.contains("queued lookups:"));
        assert!(!quiet.contains("by source:"), "no lookups, no split: {quiet}");

        s.batched_lookups = 4;
        s.lookup_batches_submitted = 2;
        s.lookup_probe_waves = 3;
        s.lookup_probe_requests = 8;
        s.lookup_probes_overlapped = 6;
        for source in [LookupSource::Flash, LookupSource::Miss, LookupSource::Miss] {
            let latency = SimDuration::from_micros(2);
            s.record_lookup(&LookupOutcome { value: None, latency, flash_reads: 1, source });
        }
        let text = s.to_string();
        for needle in [
            "by source: 0 buffer, 0 retired, 1 flash, 0 deleted, 2 miss",
            "batched: 0 inserts, 4 lookups",
            "queued lookups: 2 batches, 3 waves",
            "8 probes (6 overlapped)",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text:?}");
        }
    }

    #[test]
    fn ring_counters_merge_and_display() {
        let mut a = ClamStats::new();
        a.lookup_batches_submitted = 1;
        a.lookup_ring_reaps = 10;
        a.lookup_ring_depth_high_water = 64;
        a.lookup_ring_admission_stalls = 2;
        let mut b = ClamStats::new();
        b.lookup_ring_reaps = 5;
        b.lookup_ring_depth_high_water = 32;
        a.merge(&b);
        assert_eq!(a.lookup_ring_reaps, 15, "reaps sum");
        assert_eq!(a.lookup_ring_depth_high_water, 64, "high-water merges with max");
        assert_eq!(a.lookup_ring_admission_stalls, 2);
        let text = a.to_string();
        assert!(text.contains("ring: 15 reaps, depth hwm 64, 2 stalls"), "{text}");
        // Ring-disabled profiles (barrier waves only) elide the segment.
        let mut quiet = ClamStats::new();
        quiet.lookup_batches_submitted = 1;
        quiet.lookup_probe_waves = 3;
        assert!(!quiet.to_string().contains("ring:"));
    }

    #[test]
    fn write_ring_counters_merge_and_display() {
        let mut a = ClamStats::new();
        a.flush_ring_reaps = 7;
        a.write_ring_admission_stalls = 3;
        a.mixed_ring_depth_high_water = 12;
        let mut b = ClamStats::new();
        b.flush_ring_reaps = 5;
        b.write_ring_admission_stalls = 1;
        b.mixed_ring_depth_high_water = 9;
        a.merge(&b);
        assert_eq!(a.flush_ring_reaps, 12, "write-side reaps sum");
        assert_eq!(a.write_ring_admission_stalls, 4, "stalls sum");
        assert_eq!(a.mixed_ring_depth_high_water, 12, "mixed high-water merges with max");
        let text = a.to_string();
        assert!(text.contains("write ring: 12 reaps, 4 stalls, mixed depth hwm 12"), "{text}");
        // Barrier-only runs (and zero-depth profiles, where the write path
        // never touches a ring) elide the segment without panicking.
        let mut quiet = ClamStats::new();
        quiet.flushes = 2;
        let quiet_text = quiet.to_string();
        assert!(!quiet_text.contains("write ring:"), "{quiet_text}");
        // A pure-write ring never mixes: the segment still renders off the
        // reap count alone.
        let mut pure = ClamStats::new();
        pure.flush_ring_reaps = 2;
        assert!(pure.to_string().contains("write ring: 2 reaps, 0 stalls, mixed depth hwm 0"));
    }

    #[test]
    fn recovery_counters_merge_and_display() {
        let mut a = ClamStats::new();
        a.recoveries = 1;
        a.recovered_incarnations = 5;
        a.recovery_torn_slots = 1;
        let mut b = ClamStats::new();
        b.recoveries = 2;
        b.recovered_incarnations = 3;
        a.merge(&b);
        assert_eq!(a.recoveries, 3);
        assert_eq!(a.recovered_incarnations, 8);
        assert_eq!(a.recovery_torn_slots, 1);
        let text = a.to_string();
        assert!(text.contains("recovery: 3 scans, 8 incarnations, 1 torn slots"), "{text}");
        // A never-recovered CLAM elides the segment.
        assert!(!ClamStats::new().to_string().contains("recovery:"));
    }

    #[test]
    fn fast_read_counters_merge_and_display() {
        let mut a = ClamStats::new();
        a.fast_lookups = 9;
        let mut b = ClamStats::new();
        b.fast_lookups = 3;
        b.fast_read_conflicts = 2;
        a.merge(&b);
        assert_eq!(a.fast_lookups, 12);
        assert_eq!(a.fast_read_conflicts, 2);
        let text = a.to_string();
        assert!(text.contains("fast reads: 12 lock-free, 2 conflicts"), "{text}");
        // A coarse-locked CLAM elides the segment.
        assert!(!ClamStats::new().to_string().contains("fast reads:"));
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
