//! I/O statistics and latency recording.
//!
//! [`IoStats`] counts device-level operations; [`LatencyRecorder`] folds
//! per-operation latency samples into a bounded-memory histogram and can
//! report means, percentiles, CDFs and CCDFs — the building blocks for
//! regenerating the paper's figures.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// Counters describing the I/O a device has performed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IoStats {
    /// Number of read commands.
    pub reads: u64,
    /// Number of write/program commands.
    pub writes: u64,
    /// Number of block erase commands (flash/SSD only).
    pub erases: u64,
    /// Number of TRIM commands.
    pub trims: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Garbage-collection runs triggered (SSD only).
    pub gc_runs: u64,
    /// Valid pages relocated by garbage collection (SSD only).
    pub gc_pages_copied: u64,
    /// Requests admitted through
    /// [`Device::submit_nowait`](crate::Device::submit_nowait). This and
    /// the four queue counters below are written in one place, by the
    /// [`CompletionRing`](crate::CompletionRing) the requests went through.
    pub requests_submitted: u64,
    /// Reaped requests that shared their time on the device queue with
    /// lane-0 work (booked on a lane other than lane 0). This
    /// counts *modeled* queue overlap — for
    /// [`FileDevice`](crate::FileDevice) the physical worker pool is
    /// additionally capped by host parallelism, like the simulated SSD's
    /// lanes exist regardless of host cores. Always zero on serial
    /// devices.
    pub requests_overlapped: u64,
    /// Completions delivered through [`Device::reap`](crate::Device::reap).
    pub requests_reaped: u64,
    /// Highest in-flight depth (admitted minus reaped) any completion ring
    /// registered with this device has reached. Merged with `max`, not
    /// summed: it is a high-water mark, not a count.
    pub ring_depth_high_water: u64,
    /// Ring admissions whose start was delayed by a conflicting in-flight
    /// range beyond lane availability (write-write and read-after-write
    /// floors; read-read overlap never stalls).
    pub ring_admission_stalls: u64,
    /// Ring reads that ran at admission, on the thread that submitted
    /// them, instead of on a pool worker
    /// ([`FileDevice`](crate::FileDevice) only, which does that while a
    /// read costs less than a hand-off; the simulated devices have no
    /// threads and leave it zero).
    pub reads_inline: u64,
    /// Time spent in reads: simulated on the simulated devices; on
    /// [`FileDevice`](crate::FileDevice) the wall clock around each
    /// positioned read, taken on whichever thread executed it (the
    /// submitting thread for the `reads_inline` ones, a pool worker for
    /// the rest).
    pub read_time: SimDuration,
    /// Time spent in writes, on the same clocks as `read_time` (simulated
    /// time includes any GC charged to the write).
    pub write_time: SimDuration,
    /// Simulated time spent erasing blocks.
    pub erase_time: SimDuration,
    /// Simulated time spent in TRIM commands.
    pub trim_time: SimDuration,
}

impl IoStats {
    /// Total simulated device-busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.read_time + self.write_time + self.erase_time + self.trim_time
    }

    /// Total number of I/O commands.
    pub fn total_ops(&self) -> u64 {
        self.reads + self.writes + self.erases + self.trims
    }

    /// Merges counters from another stats block into this one.
    pub fn merge(&mut self, other: &IoStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.erases += other.erases;
        self.trims += other.trims;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.gc_runs += other.gc_runs;
        self.gc_pages_copied += other.gc_pages_copied;
        self.requests_submitted += other.requests_submitted;
        self.requests_overlapped += other.requests_overlapped;
        self.requests_reaped += other.requests_reaped;
        self.ring_depth_high_water = self.ring_depth_high_water.max(other.ring_depth_high_water);
        self.ring_admission_stalls += other.ring_admission_stalls;
        self.reads_inline += other.reads_inline;
        self.read_time += other.read_time;
        self.write_time += other.write_time;
        self.erase_time += other.erase_time;
        self.trim_time += other.trim_time;
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = IoStats::default();
    }
}

impl fmt::Display for IoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads: {} ({} B, {}) | writes: {} ({} B, {}) | erases: {} ({}) | trims: {} ({})",
            self.reads,
            self.bytes_read,
            self.read_time,
            self.writes,
            self.bytes_written,
            self.write_time,
            self.erases,
            self.erase_time,
            self.trims,
            self.trim_time,
        )?;
        if self.gc_runs > 0 || self.gc_pages_copied > 0 {
            write!(f, " | gc: {} runs, {} pages copied", self.gc_runs, self.gc_pages_copied)?;
        }
        if self.requests_submitted > 0 {
            write!(
                f,
                " | queue: {} reqs ({} overlapped)",
                self.requests_submitted, self.requests_overlapped
            )?;
        }
        if self.requests_reaped > 0 || self.ring_depth_high_water > 0 {
            write!(
                f,
                " | ring: {} reaped, depth hwm {}, {} stalls",
                self.requests_reaped, self.ring_depth_high_water, self.ring_admission_stalls
            )?;
        }
        if self.reads_inline > 0 {
            write!(f, " | inline: {} of {} reads", self.reads_inline, self.reads)?;
        }
        Ok(())
    }
}

/// Linear sub-buckets per power of two, as a bit count: 128 sub-buckets,
/// so a bucket is at most 1/128 of its lower bound wide and a bucket
/// midpoint is within 0.4 % of every sample it holds.
const SUB_BUCKET_BITS: u32 = 7;
const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// Histogram bucket of a sample: values below `2 * SUB_BUCKETS` get a
/// bucket each (exact), larger ones share `SUB_BUCKETS` linear buckets per
/// power of two.
fn bucket_of(ns: u64) -> usize {
    // Position of the top bit beyond the exact range; 0 inside it.
    let shift = (63 - (ns | SUB_BUCKETS).leading_zeros()) - SUB_BUCKET_BITS;
    ((u64::from(shift) << SUB_BUCKET_BITS) + (ns >> shift)) as usize
}

/// Smallest sample that lands in `bucket`, and how many distinct values
/// the bucket spans.
fn bucket_span(bucket: usize) -> (u64, u64) {
    let bucket = bucket as u64;
    if bucket < 2 * SUB_BUCKETS {
        return (bucket, 1);
    }
    let shift = (bucket >> SUB_BUCKET_BITS) - 1;
    ((SUB_BUCKETS + (bucket & (SUB_BUCKETS - 1))) << shift, 1 << shift)
}

/// Collects latency samples for one class of operation.
///
/// Samples land in a log-linear histogram (nanoseconds, 128 linear
/// buckets per power of two), so memory is bounded by the *range* of the
/// samples — 58 KiB covers all of `u64` — not by how many were recorded.
/// [`len`](Self::len), [`total`](Self::total), [`mean`](Self::mean),
/// [`min`](Self::min) and [`max`](Self::max) are exact, and
/// [`merge`](Self::merge) keeps them exact; quantiles and CDF points are
/// bucketed to under 1 % relative error (exact below 256 ns and at the two
/// extremes). The histogram grows lazily to the largest bucket seen, so an
/// empty recorder owns no heap memory.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyRecorder {
    /// Sample count per bucket; see [`bucket_of`].
    buckets: Vec<u64>,
    count: u64,
    total_ns: u64,
    /// Exact extremes; zero while `count == 0`.
    min_ns: u64,
    max_ns: u64,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the histogram to at least `buckets` buckets, a whole power of
    /// two of range at a time and without `Vec`'s doubling, so it never
    /// holds more than the range of the samples calls for.
    fn grow_to(&mut self, buckets: usize) {
        let len = buckets.next_multiple_of(SUB_BUCKETS as usize);
        self.buckets.reserve_exact(len - self.buckets.len());
        self.buckets.resize(len, 0);
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.record_n(d, 1);
    }

    /// Records `n` samples of `d`: the ledger `n` calls of
    /// [`record`](Self::record) leave, in one step.
    pub fn record_n(&mut self, d: SimDuration, n: u64) {
        if n == 0 {
            return;
        }
        let ns = d.as_nanos();
        let bucket = bucket_of(ns);
        if bucket >= self.buckets.len() {
            self.grow_to(bucket + 1);
        }
        self.buckets[bucket] += n;
        if self.count == 0 {
            (self.min_ns, self.max_ns) = (ns, ns);
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += n;
        self.total_ns = self.total_ns.saturating_add(ns.saturating_mul(n));
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Returns `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(self.total_ns)
    }

    /// Arithmetic mean of the samples (zero if empty).
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.total_ns.checked_div(self.count).unwrap_or(0))
    }

    /// Maximum sample (zero if empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max_ns)
    }

    /// Minimum sample (zero if empty).
    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(self.min_ns)
    }

    /// The `q`-th quantile (`q` in `[0, 1]`), using nearest-rank: exact at
    /// `q = 0`, `q = 1` and for samples below 256 ns, otherwise the
    /// midpoint of the bucket holding that rank (under 1 % off).
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.count as f64 - 1.0) * q).round() as u64;
        if rank == 0 {
            return self.min();
        }
        if rank >= self.count - 1 {
            return self.max();
        }
        let mut seen = 0u64;
        for (bucket, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                let (low, width) = bucket_span(bucket);
                let mid = low + (width - 1) / 2;
                return SimDuration::from_nanos(mid.clamp(self.min_ns, self.max_ns));
            }
        }
        self.max()
    }

    /// Median latency.
    pub fn median(&self) -> SimDuration {
        self.quantile(0.5)
    }

    /// Samples counted as `<= threshold_ns`: every bucket up to and
    /// including the threshold's, so the answer is exact for a threshold
    /// under 1 % above the one asked about (and exact outright below the
    /// minimum, from the maximum up, and in the exact range).
    fn count_at_most(&self, threshold_ns: u64) -> u64 {
        if self.count == 0 || threshold_ns < self.min_ns {
            return 0;
        }
        if threshold_ns >= self.max_ns {
            return self.count;
        }
        self.buckets.iter().take(bucket_of(threshold_ns) + 1).sum()
    }

    /// Fraction of samples that are `<= threshold` (to bucket resolution).
    pub fn fraction_at_most(&self, threshold: SimDuration) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.count_at_most(threshold.as_nanos()) as f64 / self.count as f64
    }

    /// Empirical CDF evaluated at `points.len()` thresholds; returns
    /// `(threshold, fraction <= threshold)` pairs (to bucket resolution).
    pub fn cdf(&self, points: &[SimDuration]) -> Vec<(SimDuration, f64)> {
        points.iter().map(|&p| (p, self.fraction_at_most(p))).collect()
    }

    /// Complementary CDF (fraction of samples strictly greater than each
    /// threshold), used for Figure 8(a).
    pub fn ccdf(&self, points: &[SimDuration]) -> Vec<(SimDuration, f64)> {
        self.cdf(points).into_iter().map(|(p, f)| (p, 1.0 - f)).collect()
    }

    /// Logarithmically spaced thresholds between `lo` and `hi`, convenient
    /// for CDF plots that span several orders of magnitude.
    pub fn log_spaced_points(lo: SimDuration, hi: SimDuration, n: usize) -> Vec<SimDuration> {
        if n == 0 || lo.is_zero() || hi <= lo {
            return Vec::new();
        }
        let lo_f = lo.as_nanos() as f64;
        let hi_f = hi.as_nanos() as f64;
        (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1).max(1) as f64;
                SimDuration::from_nanos((lo_f * (hi_f / lo_f).powf(t)).round() as u64)
            })
            .collect()
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.grow_to(other.buckets.len());
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        if self.count == 0 {
            (self.min_ns, self.max_ns) = (other.min_ns, other.max_ns);
        } else {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }

    /// Discards all samples (and the histogram's memory).
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iostats_counts_trims_and_queue_submissions() {
        let mut s = IoStats {
            trims: 2,
            trim_time: SimDuration::from_micros(10),
            requests_submitted: 12,
            requests_overlapped: 8,
            ..Default::default()
        };
        assert_eq!(s.total_ops(), 2);
        assert_eq!(s.busy_time(), SimDuration::from_micros(10));
        let other = IoStats { trims: 1, requests_submitted: 4, ..Default::default() };
        s.merge(&other);
        assert_eq!(s.trims, 3);
        assert_eq!(s.requests_submitted, 16);
        assert_eq!(s.requests_overlapped, 8);
    }

    #[test]
    fn ring_counters_merge_and_display() {
        let mut a = IoStats {
            reads: 6,
            requests_reaped: 5,
            ring_depth_high_water: 12,
            ring_admission_stalls: 2,
            reads_inline: 4,
            ..Default::default()
        };
        let b = IoStats {
            reads: 3,
            requests_reaped: 3,
            ring_depth_high_water: 7,
            ring_admission_stalls: 1,
            reads_inline: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.requests_reaped, 8, "reaps sum");
        assert_eq!(a.ring_depth_high_water, 12, "high-water merges with max");
        assert_eq!(a.ring_admission_stalls, 3, "stalls sum");
        assert_eq!(a.reads_inline, 7, "inline reads sum");
        let text = a.to_string();
        assert!(text.contains("ring: 8 reaped, depth hwm 12, 3 stalls"), "{text}");
        assert!(text.contains("inline: 7 of 9 reads"), "{text}");
        // Both segments are elided for devices that never served a ring or
        // ran a read on the caller's thread.
        let quiet = IoStats { reads: 1, ..Default::default() }.to_string();
        assert!(!quiet.contains("ring:") && !quiet.contains("inline:"), "{quiet}");
        a.reset();
        assert_eq!(a.reads_inline, 0);
    }

    #[test]
    fn iostats_display_mentions_every_command_class() {
        let s = IoStats {
            reads: 1,
            writes: 2,
            erases: 3,
            trims: 4,
            gc_runs: 5,
            requests_submitted: 7,
            requests_overlapped: 2,
            ..Default::default()
        };
        let text = s.to_string();
        for needle in ["reads: 1", "writes: 2", "erases: 3", "trims: 4", "gc: 5", "queue: 7"] {
            assert!(text.contains(needle), "missing {needle:?} in {text:?}");
        }
        // GC and queue segments are elided when untouched.
        let quiet = IoStats { reads: 1, ..Default::default() }.to_string();
        assert!(!quiet.contains("gc:") && !quiet.contains("queue:"));
    }

    #[test]
    fn iostats_merge_and_busy_time() {
        let mut a =
            IoStats { reads: 1, read_time: SimDuration::from_millis(1), ..Default::default() };
        let b = IoStats {
            writes: 2,
            write_time: SimDuration::from_millis(2),
            erases: 1,
            erase_time: SimDuration::from_millis(3),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.total_ops(), 4);
        assert_eq!(a.busy_time(), SimDuration::from_millis(6));
        a.reset();
        assert_eq!(a, IoStats::default());
    }

    #[test]
    fn recorder_mean_min_max() {
        let mut r = LatencyRecorder::new();
        for ms in [1u64, 2, 3, 4] {
            r.record(SimDuration::from_millis(ms));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.mean(), SimDuration::from_micros(2500));
        assert_eq!(r.min(), SimDuration::from_millis(1));
        assert_eq!(r.max(), SimDuration::from_millis(4));
        assert_eq!(r.total(), SimDuration::from_millis(10));
    }

    #[test]
    fn recorder_quantiles() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100u64 {
            r.record(SimDuration::from_micros(i));
        }
        // 50 or 51 us by nearest rank, to the 256 ns bucket either sits in.
        let median = r.median();
        assert!(
            within(median, SimDuration::from_micros(50), 0.01)
                || within(median, SimDuration::from_micros(51), 0.01),
            "median of 1..=100us should be 50 or 51us, got {median}"
        );
        assert_eq!(r.quantile(0.0), SimDuration::from_micros(1));
        assert_eq!(r.quantile(1.0), SimDuration::from_micros(100));
        // 99 us shares a 512 ns bucket: reported to bucket resolution.
        assert!(within(r.quantile(0.99), SimDuration::from_micros(99), 0.01));
    }

    /// `true` if `got` is within `tolerance` (relative) of `want`.
    fn within(got: SimDuration, want: SimDuration, tolerance: f64) -> bool {
        let (got, want) = (got.as_nanos() as f64, want.as_nanos() as f64);
        (got - want).abs() <= want * tolerance
    }

    /// Deterministic samples spread log-uniformly over 100 ns ..= 1 s.
    fn wide_samples(n: u64) -> Vec<u64> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let t = (state >> 11) as f64 / (1u64 << 53) as f64;
                (100.0 * 1e7f64.powf(t)).round() as u64
            })
            .collect()
    }

    #[test]
    fn buckets_tile_the_whole_range_in_order() {
        // Exact below 256 ns, then 128 buckets per power of two, each
        // starting where the previous one ended.
        for ns in 0..256u64 {
            assert_eq!(bucket_of(ns), ns as usize);
            assert_eq!(bucket_span(ns as usize), (ns, 1));
        }
        let mut next = 0u64;
        for bucket in 0..=bucket_of(u64::MAX) {
            let (low, width) = bucket_span(bucket);
            assert_eq!(low, next, "bucket {bucket} leaves a gap or overlaps");
            assert_eq!(bucket_of(low), bucket);
            assert_eq!(bucket_of(low + (width - 1)), bucket);
            assert!(width == 1 || width * 128 <= low, "bucket {bucket} wider than 1/128");
            next = low.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends exactly at u64::MAX");
        assert_eq!(bucket_of(u64::MAX), 7423);
    }

    #[test]
    fn quantiles_and_cdf_stay_within_one_percent_of_an_exact_sort() {
        let samples = wide_samples(50_000);
        let mut r = LatencyRecorder::new();
        for &ns in &samples {
            r.record(SimDuration::from_nanos(ns));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 1.0] {
            let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
            let exact = SimDuration::from_nanos(sorted[rank]);
            assert!(within(r.quantile(q), exact, 0.01), "q={q}: {} vs {exact}", r.quantile(q));
        }
        assert_eq!(r.quantile(0.0).as_nanos(), sorted[0]);
        assert_eq!(r.quantile(1.0).as_nanos(), *sorted.last().unwrap());
        // A CDF point is the exact fraction at a threshold under 1 % away.
        let points = LatencyRecorder::log_spaced_points(
            SimDuration::from_nanos(50),
            SimDuration::from_secs(2),
            64,
        );
        for (p, f) in r.cdf(&points) {
            let at =
                |ns: f64| sorted.partition_point(|&s| s as f64 <= ns) as f64 / sorted.len() as f64;
            let (lo, hi) = (at(p.as_nanos() as f64), at(p.as_nanos() as f64 * 1.01));
            assert!(lo <= f && f <= hi, "cdf({p}) = {f} outside [{lo}, {hi}]");
            assert_eq!(f, r.fraction_at_most(p));
        }
        let ccdf = r.ccdf(&points);
        assert!(ccdf.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!((ccdf[0].1, ccdf.last().unwrap().1), (1.0, 0.0));
    }

    #[test]
    fn len_total_min_max_stay_exact_under_merge() {
        let samples = wide_samples(30_000);
        let mut parts =
            vec![LatencyRecorder::new(), LatencyRecorder::new(), LatencyRecorder::new()];
        let mut whole = LatencyRecorder::new();
        for (i, &ns) in samples.iter().enumerate() {
            parts[i % 3].record(SimDuration::from_nanos(ns));
            whole.record(SimDuration::from_nanos(ns));
        }
        let mut merged = LatencyRecorder::new();
        merged.merge(&LatencyRecorder::new()); // merging nothing changes nothing
        for part in &parts {
            merged.merge(part);
        }
        assert_eq!(merged.len(), samples.len());
        assert_eq!(merged.total().as_nanos(), samples.iter().sum::<u64>());
        assert_eq!(merged.min().as_nanos(), *samples.iter().min().unwrap());
        assert_eq!(merged.max().as_nanos(), *samples.iter().max().unwrap());
        assert_eq!(merged.mean(), whole.mean());
        // Same multiset, same histogram: every derived number agrees.
        assert_eq!(merged.buckets, whole.buckets);
        for q in [0.01, 0.5, 0.99] {
            assert_eq!(merged.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn record_n_is_n_calls_of_record() {
        let samples = wide_samples(400);
        let (mut batched, mut single) = (LatencyRecorder::new(), LatencyRecorder::new());
        for (i, &ns) in samples.iter().enumerate() {
            // Runs of 0 to 6 equal samples, the empty run included.
            let (d, n) = (SimDuration::from_nanos(ns), i as u64 % 7);
            batched.record_n(d, n);
            (0..n).for_each(|_| single.record(d));
            assert_eq!(batched.buckets, single.buckets, "after sample {i}");
            let ledger = |r: &LatencyRecorder| (r.len(), r.total(), r.min(), r.max());
            assert_eq!(ledger(&batched), ledger(&single), "after sample {i}");
        }
        let huge = SimDuration::from_nanos(u64::MAX / 3);
        batched.record_n(huge, 4);
        (0..4).for_each(|_| single.record(huge));
        assert_eq!(batched.total(), single.total(), "saturates like four adds");
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            assert_eq!(batched.quantile(q), single.quantile(q), "q={q}");
        }
        let mut untouched = LatencyRecorder::new();
        untouched.record_n(SimDuration::from_micros(3), 0);
        assert!(untouched.is_empty() && untouched.buckets.capacity() == 0);
    }

    #[test]
    fn memory_is_bounded_by_the_range_not_the_count() {
        // An empty recorder owns nothing (`ClamStats::new()` stays free).
        assert_eq!(LatencyRecorder::new().buckets.capacity(), 0);
        let mut r = LatencyRecorder::new();
        let samples = wide_samples(10_000);
        for i in 0..10_000_000usize {
            r.record(SimDuration::from_nanos(samples[i % samples.len()]));
        }
        assert_eq!(r.len(), 10_000_000);
        // 100 ns ..= 1 s ends in the 2^29 tier: 24 tiers of 128 words.
        assert!(r.buckets.capacity() <= 24 * 128, "{} words", r.buckets.capacity());
        // And no sample range can push it past one word per bucket.
        r.record(SimDuration::from_nanos(u64::MAX));
        assert_eq!(r.buckets.capacity(), 7424);
    }

    #[test]
    fn recorder_cdf_and_ccdf() {
        let mut r = LatencyRecorder::new();
        for i in 1..=10u64 {
            r.record(SimDuration::from_millis(i));
        }
        let pts = vec![SimDuration::from_millis(5), SimDuration::from_millis(10)];
        let cdf = r.cdf(&pts);
        assert!((cdf[0].1 - 0.5).abs() < 1e-9);
        assert!((cdf[1].1 - 1.0).abs() < 1e-9);
        let ccdf = r.ccdf(&pts);
        assert!((ccdf[0].1 - 0.5).abs() < 1e-9);
        assert!((ccdf[1].1 - 0.0).abs() < 1e-9);
        assert!((r.fraction_at_most(SimDuration::from_millis(3)) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn recorder_empty_behaviour() {
        let r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.mean(), SimDuration::ZERO);
        assert_eq!(r.median(), SimDuration::ZERO);
        assert_eq!(r.fraction_at_most(SimDuration::from_millis(1)), 0.0);
        assert_eq!(r.cdf(&[SimDuration::from_millis(1)])[0].1, 0.0);
    }

    #[test]
    fn log_spaced_points_are_monotone() {
        let pts = LatencyRecorder::log_spaced_points(
            SimDuration::from_micros(1),
            SimDuration::from_millis(10),
            50,
        );
        assert_eq!(pts.len(), 50);
        assert!(pts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(pts[0], SimDuration::from_micros(1));
        assert_eq!(*pts.last().unwrap(), SimDuration::from_millis(10));
    }

    #[test]
    fn recorder_merge_and_clear() {
        let mut a = LatencyRecorder::new();
        a.record(SimDuration::from_millis(1));
        let mut b = LatencyRecorder::new();
        b.record(SimDuration::from_millis(3));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean(), SimDuration::from_millis(2));
        a.clear();
        assert!(a.is_empty());
    }
}
