//! # bench — the experiment harness behind every figure and table
//!
//! Each `src/bin/*.rs` binary reproduces one paper artifact (the
//! binary-to-figure mapping lives in EXPERIMENTS.md at the repository
//! root); this library provides what they share:
//!
//! * **Standard constructions** — [`standard_config`], [`build_clam`] /
//!   [`build_clam_with`] and [`build_bdb`] (with FTL preconditioning),
//!   each store over a boxed `dyn Device` of the chosen [`Medium`], and
//!   the [`Ablation`] variants of §7.3.1.
//! * **Workload drivers** — [`run_mixed_workload`] /
//!   [`run_mixed_workload_continuing`] over the [`KvBench`] trait, with a
//!   controllable lookup fraction and lookup-success rate, and
//!   [`bulk_load`] for warm-up fills through the batched insert pipeline
//!   ([`bufferhash::Clam::insert_batch`]).
//! * **Reporting helpers** — fixed-width tables ([`print_header`],
//!   [`print_row`]), CDFs ([`print_cdf`]) and millisecond formatting
//!   ([`ms`]).
//!
//! ## Scale
//!
//! Experiments default to **1/64** of the paper's 32 GB flash / 4 GB
//! DRAM prototype ([`FLASH_BYTES`] / [`DRAM_BYTES`]), preserving the
//! paper's flash : buffer : Bloom : incarnation ratios. Warm-up phases
//! are batched (cheap); measured phases stay per-op so latency
//! distributions remain comparable with the paper's. The
//! `batch_throughput` binary compares the two pipelines directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use baseline::{BdbConfig, BdbHashIndex};
use bufferhash::{hash_with_seed, Clam, ClamConfig, FilterMode};
use flashsim::{Clock, Device, InUnits, LatencyRecorder, MagneticDisk, Sim, SimDuration, Ssd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default scaled-down flash size used by the simulated experiments.
///
/// The paper's prototype used 32 GB of flash and 4 GB of DRAM; the
/// experiments here keep the same *ratios* (flash : buffers : Bloom
/// filters : incarnations-per-table) at 1/64 the size — 512 MiB of
/// flash, 64 MiB of DRAM — so every figure regenerates in seconds.
/// The harness ran at 1/512 before the batched insert pipeline landed
/// and at 1/128 before lookups were batched too; with both the write
/// path ([`bufferhash::Clam::insert_batch`] behind [`bulk_load`]) and
/// the read path ([`bufferhash::Clam::lookup_batch`] on the completion
/// ring) amortized, the 2x larger index stays cheap to populate and
/// probe. Absolute sizes can be raised freely.
pub const FLASH_BYTES: u64 = 512 << 20;
/// Default scaled-down DRAM budget (see [`FLASH_BYTES`]).
pub const DRAM_BYTES: u64 = 64 << 20;

/// Which storage medium a CLAM or baseline index runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Medium {
    /// Intel X18-M class SSD.
    IntelSsd,
    /// Transcend TS32GSSD25 class SSD.
    TranscendSsd,
    /// Hitachi 7K80 class magnetic disk.
    Disk,
}

impl Medium {
    /// Human-readable name used in output tables.
    pub fn label(&self) -> &'static str {
        match self {
            Medium::IntelSsd => "Intel SSD",
            Medium::TranscendSsd => "Transcend SSD",
            Medium::Disk => "Disk",
        }
    }

    /// A fresh device of this medium holding `capacity` bytes; an SSD is
    /// preconditioned first when `precondition` is set (see [`build_bdb`]).
    fn device(self, capacity: u64, precondition: bool) -> Box<dyn Device> {
        let mut ssd = match self {
            Medium::IntelSsd => Ssd::intel(capacity).expect("ssd"),
            Medium::TranscendSsd => Ssd::transcend(capacity).expect("ssd"),
            Medium::Disk => return Box::new(MagneticDisk::new(capacity).expect("disk")),
        };
        if precondition {
            ssd.precondition(1.0);
        }
        Box::new(ssd)
    }
}

/// Standard CLAM configuration used across the experiments (32 KiB buffers,
/// FIFO eviction, bit-sliced filters).
pub fn standard_config(flash: u64, dram: u64) -> ClamConfig {
    ClamConfig::small_test(flash, dram).expect("valid standard config")
}

/// Builds a CLAM on the given medium with the standard configuration.
pub fn build_clam(medium: Medium, flash: u64, dram: u64) -> Clam<Box<dyn Device>> {
    build_clam_with(medium, standard_config(flash, dram))
}

/// Builds a CLAM on the given medium with an explicit configuration.
pub fn build_clam_with(medium: Medium, config: ClamConfig) -> Clam<Box<dyn Device>> {
    Clam::new(medium.device(config.flash_capacity, false), config).expect("clam")
}

/// A configuration variant for the §7.3.1 ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// The full design.
    Full,
    /// Membership filters disabled: lookups probe every incarnation.
    NoBloomFilters,
    /// Plain per-incarnation filters instead of bit-sliced storage.
    NoBitSlicing,
    /// Buffering disabled: every insert flushes straight to flash.
    NoBuffering,
}

impl Ablation {
    /// Label used in output.
    pub fn label(&self) -> &'static str {
        match self {
            Ablation::Full => "full BufferHash",
            Ablation::NoBloomFilters => "without Bloom filters",
            Ablation::NoBitSlicing => "without bit-slicing",
            Ablation::NoBuffering => "without buffering",
        }
    }

    /// Applies the ablation to a configuration.
    pub fn apply(&self, mut config: ClamConfig) -> ClamConfig {
        match self {
            Ablation::Full => {}
            Ablation::NoBloomFilters => config.filter_mode = FilterMode::Disabled,
            Ablation::NoBitSlicing => config.filter_mode = FilterMode::PerIncarnation,
            Ablation::NoBuffering => config.enable_buffering = false,
        }
        config
    }
}

/// Builds a BDB-style index on the given medium. The cache is sized like the
/// paper's BDB configuration: large enough to be useful, far smaller than
/// the index. SSDs are preconditioned (every logical page written once, in
/// random order) so the FTL starts from the steady state a long-lived index
/// would be in — this is what exposes the garbage-collection penalty the
/// paper observes for BDB on SSDs (§7.2.2).
pub fn build_bdb(medium: Medium, capacity: u64) -> BdbHashIndex<Box<dyn Device>> {
    let config = BdbConfig { primary_fraction: 0.8, cache_bytes: (capacity / 32) as usize };
    BdbHashIndex::new(medium.device(capacity, true), config).expect("bdb")
}

/// Latency recorders produced by a mixed workload run.
#[derive(Debug, Default, Clone)]
pub struct WorkloadResult {
    /// Insert latencies.
    pub inserts: LatencyRecorder,
    /// Lookup latencies.
    pub lookups: LatencyRecorder,
    /// Observed lookup hits.
    pub hits: u64,
    /// Observed lookup misses.
    pub misses: u64,
}

impl WorkloadResult {
    /// Mean latency across all operations.
    pub fn mean_per_op(&self) -> SimDuration {
        let total = self.inserts.total() + self.lookups.total();
        let n = (self.inserts.len() + self.lookups.len()) as u64;
        if n == 0 {
            SimDuration::ZERO
        } else {
            total / n
        }
    }

    /// Observed lookup success rate.
    pub fn observed_lsr(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Key used by the workload drivers (the i-th inserted key).
pub fn workload_key(i: u64) -> u64 {
    hash_with_seed(i, 0x5eed_5eed)
}

/// A key-value store that can be driven by the workload runner.
pub trait KvBench {
    /// Inserts a key, returning the simulated latency.
    fn bench_insert(&mut self, key: u64, value: u64) -> SimDuration;
    /// Looks up a key, returning whether it hit and the simulated latency.
    fn bench_lookup(&mut self, key: u64) -> (bool, SimDuration);
}

impl<D: Device> KvBench for Clam<D> {
    fn bench_insert(&mut self, key: u64, value: u64) -> SimDuration {
        self.insert(key, value).expect("insert").latency
    }
    fn bench_lookup(&mut self, key: u64) -> (bool, SimDuration) {
        let out = self.lookup(key).expect("lookup");
        (out.value.is_some(), out.latency)
    }
}

impl<D: Device> KvBench for BdbHashIndex<D> {
    fn bench_insert(&mut self, key: u64, value: u64) -> SimDuration {
        self.insert(key, value).expect("insert")
    }
    fn bench_lookup(&mut self, key: u64) -> (bool, SimDuration) {
        let (value, latency) = self.lookup(key).expect("lookup");
        (value.is_some(), latency)
    }
}

/// Batch size used by [`bulk_load`] warm-up phases.
pub const BULK_LOAD_BATCH: usize = 1024;

/// Loads keys `workload_key(start..start + n)` (value = key index) through
/// the batched insert pipeline, returning the total simulated latency.
///
/// This populates exactly the same state as the per-op warm-up loops the
/// harness used before batching landed (an insert-only
/// [`run_mixed_workload`] phase), but amortizes the per-op overhead so
/// figure warm-ups stay fast at 1/64 scale. Follow up with
/// [`run_mixed_workload_continuing`] (passing `start + n` as
/// `already_inserted`) for the measured phase.
pub fn bulk_load<D: Device>(clam: &mut Clam<D>, start: u64, n: u64) -> SimDuration {
    let mut total = SimDuration::ZERO;
    let mut batch: Vec<(u64, u64)> = Vec::with_capacity(BULK_LOAD_BATCH);
    for i in start..start + n {
        batch.push((workload_key(i), i));
        if batch.len() == BULK_LOAD_BATCH {
            total += clam.insert_batch(&batch).expect("insert_batch").latency;
            batch.clear();
        }
    }
    if !batch.is_empty() {
        total += clam.insert_batch(&batch).expect("insert_batch").latency;
    }
    total
}

/// Drives a mixed insert/lookup workload against a store.
///
/// * `lookup_fraction` — fraction of operations that are lookups;
/// * `target_lsr` — fraction of lookups aimed at keys that exist.
///
/// The driver mirrors the paper's synthetic workload (§7.2): keys are
/// random, lookups precede inserts for the same key stream, and the
/// workload is continuously backlogged. Keys are `workload_key(0..n)`; the
/// driver starts numbering at zero, so back-to-back calls on the same store
/// keep extending the same key space (see [`run_mixed_workload_continuing`]
/// to target keys loaded by an earlier warm-up phase).
pub fn run_mixed_workload<S: KvBench>(
    store: &mut S,
    operations: usize,
    lookup_fraction: f64,
    target_lsr: f64,
    seed: u64,
) -> WorkloadResult {
    run_mixed_workload_continuing(store, operations, lookup_fraction, target_lsr, seed, 0)
}

/// Like [`run_mixed_workload`], but aware that keys `workload_key(0..already_inserted)`
/// were loaded by an earlier phase: successful lookups draw from the whole
/// population and new inserts continue the numbering, so measured phases
/// after a warm-up exercise flash-resident keys the way the paper's
/// steady-state workloads do.
pub fn run_mixed_workload_continuing<S: KvBench>(
    store: &mut S,
    operations: usize,
    lookup_fraction: f64,
    target_lsr: f64,
    seed: u64,
    already_inserted: u64,
) -> WorkloadResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut result = WorkloadResult::default();
    let mut inserted: u64 = already_inserted;
    for op in 0..operations {
        let do_lookup = rng.gen_bool(lookup_fraction.clamp(0.0, 1.0)) && inserted > 0;
        if do_lookup {
            let hit_intended = rng.gen_bool(target_lsr.clamp(0.0, 1.0));
            let key = if hit_intended {
                workload_key(rng.gen_range(0..inserted))
            } else {
                hash_with_seed(op as u64, 0xdead_0000 + seed)
            };
            let (hit, lat) = store.bench_lookup(key);
            result.lookups.record(lat);
            if hit {
                result.hits += 1;
            } else {
                result.misses += 1;
            }
        } else {
            let key = workload_key(inserted);
            let lat = store.bench_insert(key, inserted);
            result.inserts.record(lat);
            inserted += 1;
        }
    }
    result
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> =
        cells.iter().zip(widths).map(|(c, w)| format!("{c:>width$}", width = w)).collect();
    println!("{}", line.join("  "));
}

/// Prints a header row followed by a separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(), widths);
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// Formats a duration, on either clock, in milliseconds with three
/// decimals.
pub fn ms<C: Clock>(d: C) -> String {
    format!("{:.3}", d.nanos() as f64 / 1e6)
}

/// Head-and-tail quantile summary of a latency distribution on clock `C`:
/// the numbers a serving system reports per load level (p50 for the
/// common case, p99/p999 for the tail, max for the worst observed
/// straggler).
///
/// Shared by the figure binaries (fig6/fig7 latency CDFs, on [`Sim`]) and
/// the `clamd` load generator (on [`Host`](flashsim::Host)), so the two
/// are summarized identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailSummary<C: Clock = Sim> {
    /// Number of samples summarized.
    pub samples: usize,
    /// Median.
    pub p50: C,
    /// 90th percentile.
    pub p90: C,
    /// 99th percentile.
    pub p99: C,
    /// 99.9th percentile.
    pub p999: C,
    /// Largest sample.
    pub max: C,
}

impl<C: Clock> TailSummary<C> {
    /// Summarizes a recorder (all zeros when it is empty).
    pub fn from_recorder(recorder: &LatencyRecorder<C>) -> Self {
        TailSummary {
            samples: recorder.len(),
            p50: recorder.quantile(0.50),
            p90: recorder.quantile(0.90),
            p99: recorder.quantile(0.99),
            p999: recorder.quantile(0.999),
            max: recorder.max(),
        }
    }

    /// `true` when the distribution carries real spread: a non-zero p99
    /// at least as large as the median. A degenerate recorder (empty, or
    /// all-zero measurements from a too-coarse clock) fails this.
    pub fn is_nondegenerate(&self) -> bool {
        self.samples > 0 && self.p99 > C::default() && self.p99 >= self.p50
    }
}

impl<C: Clock> std::fmt::Display for TailSummary<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {} | p90 {} | p99 {} | p999 {} | max {} ({} samples)",
            InUnits(self.p50),
            InUnits(self.p90),
            InUnits(self.p99),
            InUnits(self.p999),
            InUnits(self.max),
            self.samples
        )
    }
}

/// Prints a CDF as `latency_ms fraction` pairs at log-spaced points.
pub fn print_cdf<C: Clock>(label: &str, recorder: &LatencyRecorder<C>, points: usize) {
    println!("# CDF: {label} ({} samples)", recorder.len());
    if recorder.is_empty() {
        return;
    }
    let lo = recorder.min().max(C::from_nanos(100));
    let hi = recorder.max();
    let pts = LatencyRecorder::log_spaced_points(lo, hi, points);
    for (p, f) in recorder.cdf(&pts) {
        println!("{:>12.4}  {:.4}", p.nanos() as f64 / 1e6, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_workload_hits_the_requested_mix() {
        let mut clam = build_clam(Medium::IntelSsd, 16 << 20, 4 << 20);
        let result = run_mixed_workload(&mut clam, 20_000, 0.5, 0.4, 1);
        let lookups = result.lookups.len() as f64;
        let total = (result.lookups.len() + result.inserts.len()) as f64;
        assert!((lookups / total - 0.5).abs() < 0.05);
        assert!((result.observed_lsr() - 0.4).abs() < 0.08, "lsr {}", result.observed_lsr());
    }

    #[test]
    fn bulk_load_matches_a_per_op_warm_up() {
        let mut per_op = build_clam(Medium::IntelSsd, 16 << 20, 4 << 20);
        let mut batched = build_clam(Medium::IntelSsd, 16 << 20, 4 << 20);
        run_mixed_workload(&mut per_op, 30_000, 0.0, 0.0, 1);
        bulk_load(&mut batched, 0, 30_000);
        for i in (0..30_000u64).step_by(997) {
            assert_eq!(per_op.lookup(workload_key(i)).unwrap().value, Some(i), "key {i}");
            assert_eq!(batched.lookup(workload_key(i)).unwrap().value, Some(i), "key {i}");
        }
        assert_eq!(per_op.stats().flushes, batched.stats().flushes);
        assert_eq!(batched.stats().batched_inserts, 30_000);
    }

    #[test]
    fn tail_summary_orders_quantiles() {
        let mut rec = LatencyRecorder::new();
        for i in 1..=1000u64 {
            rec.record(SimDuration::from_micros(i));
        }
        let tail = TailSummary::from_recorder(&rec);
        assert_eq!(tail.samples, 1000);
        assert!(tail.p50 <= tail.p90 && tail.p90 <= tail.p99);
        assert!(tail.p99 <= tail.p999 && tail.p999 <= tail.max);
        assert_eq!(tail.max, SimDuration::from_micros(1000));
        assert!(tail.is_nondegenerate());
        let text = tail.to_string();
        assert!(text.contains("p999") && text.contains("1000 samples"), "{text}");
        // Empty and all-zero recorders are degenerate, not panics.
        assert!(!TailSummary::from_recorder(&LatencyRecorder::<Sim>::new()).is_nondegenerate());
        let mut zeros = LatencyRecorder::new();
        zeros.record(SimDuration::ZERO);
        assert!(!TailSummary::from_recorder(&zeros).is_nondegenerate());
    }

    #[test]
    fn ablations_modify_the_config() {
        let cfg = standard_config(16 << 20, 4 << 20);
        assert_eq!(Ablation::NoBloomFilters.apply(cfg.clone()).filter_mode, FilterMode::Disabled);
        assert_eq!(
            Ablation::NoBitSlicing.apply(cfg.clone()).filter_mode,
            FilterMode::PerIncarnation
        );
        assert!(!Ablation::NoBuffering.apply(cfg.clone()).enable_buffering);
        assert_eq!(Ablation::Full.apply(cfg.clone()), cfg);
    }

    #[test]
    fn builders_produce_working_stores_on_every_medium() {
        for medium in [Medium::IntelSsd, Medium::TranscendSsd, Medium::Disk] {
            let mut clam = build_clam(medium, 8 << 20, 2 << 20);
            clam.insert(1, 2).unwrap();
            assert_eq!(clam.lookup(1).unwrap().value, Some(2));
            let mut bdb = build_bdb(medium, 8 << 20);
            bdb.insert(3, 4).unwrap();
            assert_eq!(bdb.lookup(3).unwrap().0, Some(4));
        }
    }

    #[test]
    fn clam_is_faster_than_bdb_on_the_same_medium() {
        let mut clam = build_clam(Medium::TranscendSsd, 16 << 20, 4 << 20);
        let mut bdb = build_bdb(Medium::TranscendSsd, 16 << 20);
        let clam_result = run_mixed_workload(&mut clam, 10_000, 0.5, 0.4, 2);
        let bdb_result = run_mixed_workload(&mut bdb, 10_000, 0.5, 0.4, 2);
        assert!(clam_result.mean_per_op() * 5 < bdb_result.mean_per_op());
    }
}
