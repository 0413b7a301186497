//! Ledgers, I/O statistics and latency recording.
//!
//! A ledger — [`IoStats`] here, `ClamStats` in `bufferhash`, `ServerStats`
//! in `clamd` — is declared once with [`ledger!`](crate::ledger), each
//! entry's doc, name, type and [`Kind`]; merge, window, reset, `Display`
//! and the `clamd` STATS codec walk that list. A new counter is one
//! declaration line and its increment.
//!
//! [`LatencyRecorder`] folds per-operation latency samples into a
//! bounded-memory histogram and can report means, percentiles, CDFs and
//! CCDFs — the building blocks for regenerating the paper's figures.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// How a ledger entry combines across ledgers (`absorb`) and across time
/// (`delta`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Counts events: ledgers add, a window subtracts (element by element
    /// for a list, sample by sample for a recorder).
    Sum,
    /// A maximum: ledgers take the larger, a window keeps the later.
    HighWater,
    /// A snapshot: ledgers keep whichever side has one (an empty list has
    /// none), a window keeps the later.
    Gauge,
}

/// One entry's storage, as a ledger's list hands it out.
pub enum Slot<'a> {
    /// A scalar (one element) or a fixed-length split.
    Fixed(&'a mut [u64]),
    /// A list that grows to fit: a histogram, a per-shard gauge.
    Many(&'a mut Vec<u64>),
    /// Accumulated time, in nanoseconds.
    Time(&'a mut u64),
    /// Latency samples.
    Latency(&'a mut LatencyRecorder),
}

impl<'a> From<&'a mut u64> for Slot<'a> {
    fn from(v: &'a mut u64) -> Self {
        Slot::Fixed(std::slice::from_mut(v))
    }
}

impl<'a, const N: usize> From<&'a mut [u64; N]> for Slot<'a> {
    fn from(v: &'a mut [u64; N]) -> Self {
        Slot::Fixed(v)
    }
}

impl<'a> From<&'a mut Vec<u64>> for Slot<'a> {
    fn from(v: &'a mut Vec<u64>) -> Self {
        Slot::Many(v)
    }
}

impl<'a> From<&'a mut SimDuration> for Slot<'a> {
    fn from(v: &'a mut SimDuration) -> Self {
        Slot::Time(&mut v.0)
    }
}

impl<'a> From<&'a mut LatencyRecorder> for Slot<'a> {
    fn from(v: &'a mut LatencyRecorder) -> Self {
        Slot::Latency(v)
    }
}

impl Slot<'_> {
    /// The entry's values: a scalar's one, a list's elements, a time's
    /// nanoseconds, a recorder's histogram bucket counts.
    pub fn values(&self) -> &[u64] {
        match self {
            Slot::Fixed(v) => v,
            Slot::Many(v) => v,
            Slot::Time(v) => std::slice::from_ref(&**v),
            Slot::Latency(r) => &r.buckets,
        }
    }

    /// Replaces the entry's values (a fixed entry takes as many as it
    /// holds, a recorder each bucket's count at the bucket's lowest value).
    pub fn set(&mut self, values: &[u64]) {
        match self {
            Slot::Many(v) => **v = values.to_vec(),
            Slot::Latency(r) => {
                r.clear();
                (0..).zip(values).for_each(|(b, &n)| r.record_n(SimDuration(bucket_span(b).0), n));
            }
            _ => self.combine(values, |_, v| v),
        }
    }

    /// Folds `theirs`, the same entry of another ledger, in as `kind`
    /// says. A recorder merges its samples.
    pub fn absorb(&mut self, kind: Kind, theirs: &Slot<'_>) {
        match (self, theirs) {
            (Slot::Latency(mine), Slot::Latency(theirs)) => mine.merge(theirs),
            (mine, theirs) => match kind {
                Kind::Sum => mine.combine(theirs.values(), u64::saturating_add),
                Kind::HighWater => mine.combine(theirs.values(), u64::max),
                Kind::Gauge if mine.values().is_empty() => mine.combine(theirs.values(), |_, v| v),
                Kind::Gauge => {}
            },
        }
    }

    /// Takes `earlier`, the same entry of an earlier snapshot, out of a
    /// sum (saturating; a recorder's extremes stay the later snapshot's).
    pub fn subtract(&mut self, earlier: &Slot<'_>) {
        match (self, earlier) {
            (Slot::Latency(later), Slot::Latency(earlier)) => take_out(later, earlier),
            (later, earlier) => later.combine(earlier.values(), u64::saturating_sub),
        }
    }

    /// Folds `other` in element by element as `f(mine, theirs)`, growing
    /// a list to fit.
    fn combine(&mut self, other: &[u64], f: impl Fn(u64, u64) -> u64) {
        let mine = match self {
            Slot::Fixed(v) => &mut **v,
            Slot::Many(v) => {
                if v.len() < other.len() {
                    v.resize(other.len(), 0);
                }
                v.as_mut_slice()
            }
            Slot::Time(v) => std::slice::from_mut(&mut **v),
            Slot::Latency(_) => unreachable!("a recorder folds its samples, not its values"),
        };
        for (d, s) in mine.iter_mut().zip(other) {
            *d = f(*d, *s);
        }
    }
}

impl fmt::Display for Slot<'_> {
    /// A scalar bare, a time as a duration, a recorder as count and mean.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Fixed([one]) => write!(f, "{one}"),
            Slot::Time(ns) => write!(f, "{}", SimDuration(**ns)),
            Slot::Latency(r) => write!(f, "{} (mean {})", r.len(), r.mean()),
            list => write!(f, "{:?}", list.values()),
        }
    }
}

/// Declares a ledger, each entry once as `pub name: Type => Kind,` under
/// its doc comment, where `Type` is `u64`, `[u64; N]`, `Vec<u64>`,
/// [`SimDuration`] or [`LatencyRecorder`]. Attributes pass through (the
/// derives must include `Clone` and `Default`). It emits the struct,
/// `new`, the list (`entries`) and the `absorb`, `delta`, `reset` and
/// `Display` that walk it.
#[macro_export]
macro_rules! ledger {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$doc:meta])* $fvis:vis $field:ident: $ty:ty => $kind:ident,)*
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$doc])* $fvis $field: $ty,)*
        }

        impl $name {
            /// Creates an empty ledger.
            pub fn new() -> Self {
                Self::default()
            }

            /// The ledger's list: every entry's name, kind and storage,
            /// in declaration order.
            pub fn entries(&mut self) -> Vec<(&'static str, $crate::Kind, $crate::Slot<'_>)> {
                vec![$((stringify!($field), $crate::Kind::$kind, (&mut self.$field).into()),)*]
            }

            /// Folds another ledger into this one, each entry as its kind
            /// says: sums add (lists element by element), high-water
            /// marks take the max, a gauge keeps whichever side has a
            /// snapshot.
            pub fn absorb(&mut self, other: &Self) {
                let mut other = other.clone();
                for ((_, kind, mut mine), (_, _, theirs)) in
                    self.entries().into_iter().zip(other.entries())
                {
                    mine.absorb(kind, &theirs);
                }
            }

            /// The ledger of the window between `earlier` and this later
            /// snapshot: sums subtract, high-water marks and gauges keep
            /// the later value.
            pub fn delta(&self, earlier: &Self) -> Self {
                let (mut window, mut earlier) = (self.clone(), earlier.clone());
                for ((_, kind, mut later), (_, _, before)) in
                    window.entries().into_iter().zip(earlier.entries())
                {
                    if kind == $crate::Kind::Sum {
                        later.subtract(&before);
                    }
                }
                window
            }

            /// Clears every entry.
            pub fn reset(&mut self) {
                *self = Self::default();
            }
        }

        impl std::fmt::Display for $name {
            /// Every entry that is not all zero, in list order, as
            /// `name: value`, separated by ` | `.
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let mut sep = "";
                for (name, _, slot) in self.clone().entries() {
                    if slot.values().iter().any(|&v| v != 0) {
                        write!(f, "{sep}{name}: {slot}")?;
                        sep = " | ";
                    }
                }
                Ok(())
            }
        }
    };
}

ledger! {
    /// Counters describing the I/O a device has performed.
    #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
    pub struct IoStats {
        /// Number of read commands.
        pub reads: u64 => Sum,
        /// Number of write/program commands.
        pub writes: u64 => Sum,
        /// Number of block erase commands (flash/SSD only).
        pub erases: u64 => Sum,
        /// Number of TRIM commands.
        pub trims: u64 => Sum,
        /// Bytes read.
        pub bytes_read: u64 => Sum,
        /// Bytes written.
        pub bytes_written: u64 => Sum,
        /// Garbage-collection runs triggered (SSD only).
        pub gc_runs: u64 => Sum,
        /// Valid pages relocated by garbage collection (SSD only).
        pub gc_pages_copied: u64 => Sum,
        /// Requests run through [`Device::submit`](crate::Device::submit).
        /// This and the four queue counters below are written once per
        /// `submit` call, from the completions of the
        /// [`CompletionRing`](crate::CompletionRing) the requests went through.
        pub requests_submitted: u64 => Sum,
        /// Completed requests that shared their time on the device queue with
        /// lane-0 work (booked on a lane other than lane 0). This
        /// counts *modeled* queue overlap: [`FileDevice`](crate::FileDevice)
        /// runs every request on the submitting thread and books its measured
        /// time on the lanes, as the simulated devices book theirs. Always
        /// zero on serial devices.
        pub requests_overlapped: u64 => Sum,
        /// Completions [`Device::submit`](crate::Device::submit) returned:
        /// equal to `requests_submitted`, since every request completes in
        /// the call that carried it.
        pub requests_reaped: u64 => Sum,
        /// Highest in-flight depth (requests submitted since the caller's last
        /// [`CompletionRing::sync`](crate::CompletionRing::sync)) any
        /// completion ring submitted to this device has reached.
        pub ring_depth_high_water: u64 => HighWater,
        /// Ring admissions whose start was delayed by a conflicting in-flight
        /// range beyond lane availability (write-write and read-after-write
        /// floors; read-read overlap never stalls).
        pub ring_admission_stalls: u64 => Sum,
        /// Time spent in reads: simulated on the simulated devices; on
        /// [`FileDevice`](crate::FileDevice) the wall clock around each
        /// positioned read, taken on the thread that issued it.
        pub read_time: SimDuration => Sum,
        /// Time spent in writes, on the same clocks as `read_time` (simulated
        /// time includes any GC charged to the write).
        pub write_time: SimDuration => Sum,
        /// Simulated time spent erasing blocks.
        pub erase_time: SimDuration => Sum,
        /// Simulated time spent in TRIM commands.
        pub trim_time: SimDuration => Sum,
    }
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

/// Takes `earlier`'s samples out of `later`, a later snapshot of the
/// same recorder: bucket counts, count and total subtract.
fn take_out(later: &mut LatencyRecorder, earlier: &LatencyRecorder) {
    for (mine, theirs) in later.buckets.iter_mut().zip(&earlier.buckets) {
        *mine = mine.saturating_sub(*theirs);
    }
    later.count = later.count.saturating_sub(earlier.count);
    later.total_ns = later.total_ns.saturating_sub(earlier.total_ns);
    if later.count == 0 {
        (later.min_ns, later.max_ns) = (0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ledger's list as plain data: each entry's name, kind and values.
    type View = Vec<(&'static str, Kind, Vec<u64>)>;

    fn view(mut ledger: IoStats) -> View {
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
            let mut s = IoStats::new();
            for (i, (_, _, mut slot)) in (0..).zip(s.entries()) {
                slot.set(&[(seed * 7 + i * 13) % 29 + 1, seed + i]);
            }
            s
        };
        let (a, b) = (filled(3), filled(50));
        for (x, y) in [(&a, &b), (&b, &a), (&IoStats::new(), &a)] {
            let mut sum = x.clone();
            sum.absorb(y);
            let window = sum.delta(x);
            check_by_kind(view(sum), view(x.clone()), view(y.clone()), view(window));
        }
        let entries = view(a);
        let marks: Vec<_> =
            entries.iter().filter(|e| e.1 != Kind::Sum).map(|e| (e.0, e.1)).collect();
        assert_eq!(marks, [("ring_depth_high_water", Kind::HighWater)]);
        let names: std::collections::HashSet<_> = entries.iter().map(|e| e.0).collect();
        assert_eq!(names.len(), entries.len(), "a name finds one entry");
        assert!(names.iter().all(|name| name.len() <= usize::from(u8::MAX)), "{names:?}");
    }

    #[test]
    fn iostats_display_mentions_every_command_class() {
        let mut s = IoStats {
            reads: 1,
            writes: 2,
            erases: 3,
            trims: 4,
            gc_runs: 5,
            requests_submitted: 7,
            ring_depth_high_water: 4,
            read_time: SimDuration::from_micros(2),
            ..Default::default()
        };
        assert_eq!(
            s.to_string(),
            "reads: 1 | writes: 2 | erases: 3 | trims: 4 | gc_runs: 5 | requests_submitted: 7 \
             | ring_depth_high_water: 4 | read_time: 2.00us"
        );
        s.reset();
        assert_eq!(
            (s.to_string(), s),
            (String::new(), IoStats::default()),
            "all zero prints nothing"
        );
        let mut lists = (vec![0, 2], [0u64, 0, 5], LatencyRecorder::new());
        lists.2.record_n(SimDuration::from_micros(3), 2);
        let text = [Slot::from(&mut lists.0), Slot::from(&mut lists.1), Slot::from(&mut lists.2)]
            .map(|slot| slot.to_string());
        assert_eq!(text, ["[0, 2]", "[0, 0, 5]", "2 (mean 3.00us)"]);
    }

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
        s.absorb(&other);
        assert_eq!(s.trims, 3);
        assert_eq!(s.requests_submitted, 16);
        assert_eq!(s.requests_overlapped, 8);
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
        a.absorb(&b);
        assert_eq!(a.total_ops(), 4);
        assert_eq!(a.busy_time(), SimDuration::from_millis(6));
        a.reset();
        assert_eq!(a, IoStats::default());
    }

    #[test]
    fn a_recorder_window_keeps_the_samples_between_two_snapshots() {
        let mut later = LatencyRecorder::new();
        later.record(SimDuration::from_nanos(100));
        let earlier = later.clone();
        later.record_n(SimDuration::from_nanos(40), 3);
        later.record(SimDuration::from_millis(1));
        let mut window = later.clone();
        Slot::from(&mut window).subtract(&Slot::from(&mut earlier.clone()));
        assert_eq!((window.len(), window.total()), (4, SimDuration::from_nanos(1_000_120)));
        let bounds = (SimDuration::from_nanos(40), SimDuration::from_millis(1));
        assert_eq!((window.min(), window.max()), bounds, "the later snapshot's extremes");
        Slot::from(&mut window).subtract(&Slot::from(&mut later));
        assert!(window.is_empty() && window.max().is_zero());
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
