//! Thread-safe CLAM wrappers.
//!
//! The systems the paper targets (WAN optimizers, dedup servers, content
//! directories) serve many connections at once. [`SharedClam`] wraps a
//! [`Clam`] in a [`parking_lot::Mutex`] behind an [`Arc`] so worker
//! threads can share one index, and [`StripedClam`] stripes the key space
//! across several independent CLAMs (each typically on its own SSD, as
//! §5.2 suggests), each behind its own lock, so callers on different
//! threads that touch different stripes proceed in parallel.
//!
//! The per-op methods ([`StripedClam::insert`], [`StripedClam::lookup`],
//! …) pay one call per operation. High-throughput callers should prefer
//! the batched path ([`SharedClam::insert_batch`],
//! [`StripedClam::insert_batch`], [`StripedClam::lookup_batch`]): a batch
//! is partitioned by stripe and each stripe's sub-batch runs as one call
//! of the underlying [`Clam`] pipeline (amortized dispatch overhead plus
//! coalesced flush writes).
//!
//! Stripe sub-batches are **accounted as concurrent**: each stripe models
//! an independent device (one SSD per stripe, §5.2), so
//! [`StripedClam::insert_batch`] reports the batch latency as the *maximum
//! over stripes* rather than the sum — the same max-over-lanes accounting
//! the [`flashsim` submission queues](flashsim::queue) use below it. On
//! the host every call runs its stripes on the caller's thread, one after
//! another in stripe order, and starts no thread (DESIGN.md "Stripes and
//! threads").
//! [`StripedClam::lookup_batch`] composes both levels of overlap on the
//! simulated clock: stripes are independent, and within each stripe the
//! queued probe pipeline ([`Clam::lookup_batch`]) overlaps flash page
//! reads on the device's submission-queue lanes.
//!
//! ## Locks
//!
//! One [`parking_lot::Mutex`] per stripe, and nothing under it: a
//! [`Clam`] takes no locks of its own (DESIGN.md "Locks" has the
//! measurement that settled this). Every call on a stripe — inserts,
//! deletes, lookups, `flush_all`, [`SharedClam::stats`],
//! [`SharedClam::with`] — holds it for the whole call, so a reader can
//! never observe a half-applied write, and a stripe has one read path:
//! the ring pipeline of [`Clam::lookup_batch`], of which a scalar lookup
//! is a batch of one. Callers on different threads run different
//! stripes in parallel; calls on one stripe take turns, as they would on
//! the one SSD the paper gives each partition.

use std::sync::Arc;

use parking_lot::Mutex;

use flashsim::{Device, SimDuration};

use crate::clam::{BatchInsertOutcome, BatchLookupOutcome, Clam, InsertOutcome, LookupOutcome};
use crate::config::ClamConfig;
use crate::error::Result;
use crate::recovery::RecoveryReport;
use crate::stats::ClamStats;
use crate::types::{group_stable, hash_with_seed, Key, Modulus, Value};

/// A cloneable, thread-safe handle to a single CLAM.
pub struct SharedClam<D: Device> {
    clam: Arc<Mutex<Clam<D>>>,
}

impl<D: Device> Clone for SharedClam<D> {
    fn clone(&self) -> Self {
        SharedClam { clam: Arc::clone(&self.clam) }
    }
}

impl<D: Device> SharedClam<D> {
    /// Wraps a CLAM for shared use.
    pub fn new(clam: Clam<D>) -> Self {
        SharedClam { clam: Arc::new(Mutex::new(clam)) }
    }

    /// Runs `f` with exclusive access to the underlying CLAM: the stripe's
    /// lock, held for the whole of `f`. Every call of this handle goes
    /// through here.
    pub fn with<R>(&self, f: impl FnOnce(&mut Clam<D>) -> R) -> R {
        f(&mut self.clam.lock())
    }

    /// Inserts (or updates) a key; updates are lazy, as in
    /// [`Clam::insert`].
    pub fn insert(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        self.with(|c| c.insert(key, value))
    }

    /// Looks up a key: a batch of one through the ring pipeline, charged
    /// one per-op dispatch (see [`Clam::lookup`]).
    pub fn lookup(&self, key: Key) -> Result<LookupOutcome> {
        self.with(|c| c.lookup(key))
    }

    /// Inserts a batch of key/value pairs through the batched CLAM
    /// pipeline ([`Clam::insert_batch`]) under one lock acquisition.
    pub fn insert_batch(&self, ops: &[(Key, Value)]) -> Result<BatchInsertOutcome> {
        self.with(|c| c.insert_batch(ops))
    }

    /// Looks up a batch of keys through the streaming ring pipeline under
    /// one lock acquisition, returning one outcome per key in input order
    /// plus the batch's makespan-accounted latency (see
    /// [`Clam::lookup_batch`]).
    pub fn lookup_batch(&self, keys: &[Key]) -> Result<BatchLookupOutcome> {
        self.with(|c| c.lookup_batch(keys))
    }

    /// Deletes a key.
    pub fn delete(&self, key: Key) -> Result<()> {
        self.with(|c| c.delete(key))?;
        Ok(())
    }

    /// Flushes every non-empty buffer to flash under one lock acquisition
    /// (see [`Clam::flush_all`]). Returns the total simulated latency.
    pub fn flush_all(&self) -> Result<SimDuration> {
        self.with(|c| c.flush_all())
    }

    /// Snapshot of the operation statistics.
    pub fn stats(&self) -> ClamStats {
        self.with(|c| c.stats().clone())
    }

    /// Unwraps the sole handle back into the CLAM (for crash-simulation
    /// tests that keep only the device). Panics if other clones exist.
    pub fn into_clam(self) -> Clam<D> {
        match Arc::try_unwrap(self.clam) {
            Ok(clam) => clam.into_inner(),
            Err(_) => panic!("SharedClam::into_clam requires sole ownership"),
        }
    }
}

/// Which of `n` stripes owns a key: one pure function of the key and `n`,
/// which [`StripedClam::stripe_index`] and `clamd`'s shards share.
#[derive(Debug, Clone, Copy)]
pub struct StripeRouter(Modulus);

impl StripeRouter {
    /// Routes over `stripes` stripes (at least one).
    pub fn new(stripes: usize) -> Self {
        StripeRouter(Modulus::new(stripes))
    }

    /// The stripe owning `key`.
    pub fn stripe_of(&self, key: Key) -> usize {
        self.0.reduce(hash_with_seed(key, 0x57_e19e))
    }
}

/// A CLAM striped over several devices: stripe `i` holds the keys that hash
/// to it, so lookups and inserts for different stripes contend on different
/// locks (and, conceptually, different SSDs).
pub struct StripedClam<D: Device> {
    stripes: Vec<SharedClam<D>>,
    router: StripeRouter,
}

impl<D: Device> StripedClam<D> {
    /// Builds a striped CLAM from per-stripe CLAMs (one per device).
    ///
    /// Returns an error-free constructor; an empty stripe list is rejected
    /// by panicking early because it is a static misconfiguration.
    pub fn new(stripes: Vec<Clam<D>>) -> Self {
        assert!(!stripes.is_empty(), "StripedClam needs at least one stripe");
        let router = StripeRouter::new(stripes.len());
        StripedClam { stripes: stripes.into_iter().map(SharedClam::new).collect(), router }
    }

    /// Recovers every stripe from its device's flash contents (see
    /// [`Clam::recover`]) and assembles the striped CLAM, returning one
    /// [`RecoveryReport`] per stripe in input order. Stripe routing is
    /// deterministic, so recovering each device independently restores
    /// exactly the keys each stripe owned.
    pub fn recover(stripes: Vec<(D, ClamConfig)>) -> Result<(Self, Vec<RecoveryReport>)> {
        assert!(!stripes.is_empty(), "StripedClam needs at least one stripe");
        let mut recovered = Vec::with_capacity(stripes.len());
        let mut reports = Vec::with_capacity(stripes.len());
        for (device, config) in stripes {
            let (clam, report) = Clam::recover(device, config)?;
            recovered.push(clam);
            reports.push(report);
        }
        Ok((StripedClam::new(recovered), reports))
    }

    /// Number of stripes.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Stripe owning `key`, by the store's [`StripeRouter`].
    pub fn stripe_index(&self, key: Key) -> usize {
        self.router.stripe_of(key)
    }

    fn stripe_of(&self, key: Key) -> &SharedClam<D> {
        &self.stripes[self.stripe_index(key)]
    }

    /// Inserts (or updates) a key on its stripe; updates are lazy, as in
    /// [`Clam::insert`].
    pub fn insert(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        self.stripe_of(key).insert(key, value)
    }

    /// Looks up a key on its stripe.
    pub fn lookup(&self, key: Key) -> Result<LookupOutcome> {
        self.stripe_of(key).lookup(key)
    }

    /// Deletes a key on its stripe.
    pub fn delete(&self, key: Key) -> Result<()> {
        self.stripe_of(key).delete(key)
    }

    /// Inserts a batch of key/value pairs, partitioned by stripe, the
    /// stripes **accounted as concurrent**.
    ///
    /// Each stripe's lock is acquired **once** for its whole sub-batch
    /// (instead of once per op) and the sub-batch runs through the
    /// underlying [`Clam::insert_batch`] pipeline. Stripes model
    /// independent devices (one SSD per stripe), so their flash work
    /// overlaps: the reported latency is the **maximum over stripes** (the
    /// batch is done when the slowest stripe is), while the event counters
    /// (`flushed_ops`, `evictions`, `coalesced_writes`) sum across stripes.
    /// On the host the busy stripes run one after another, in stripe
    /// order, on the caller's thread, as [`lookup_batch`](Self::lookup_batch)'s
    /// and [`flush_all`](Self::flush_all)'s do. Every busy stripe runs even
    /// if an earlier one failed; the first failure is returned.
    ///
    /// ```
    /// use bufferhash::{Clam, ClamConfig, StripedClam};
    /// use flashsim::Ssd;
    ///
    /// let clam = |_| {
    ///     let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
    ///     Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap()
    /// };
    /// let striped = StripedClam::new((0..3).map(clam).collect());
    ///
    /// let ops: Vec<(u64, u64)> = (0..256).map(|i| (i * 11 + 1, i)).collect();
    /// let out = striped.insert_batch(&ops).unwrap();
    /// assert_eq!(out.ops, 256);
    /// assert_eq!(striped.lookup(12).unwrap().value, Some(1));
    /// ```
    pub fn insert_batch(&self, ops: &[(Key, Value)]) -> Result<BatchInsertOutcome> {
        let (grouped, starts) = self.partition(ops);
        let results: Vec<_> = (0..self.stripes.len())
            .filter(|&idx| starts[idx + 1] > starts[idx])
            .map(|idx| self.stripes[idx].insert_batch(&grouped[starts[idx]..starts[idx + 1]]))
            .collect();
        let mut total = BatchInsertOutcome { ops: ops.len(), ..Default::default() };
        for result in results {
            let out = result?;
            total.latency = total.latency.max(out.latency);
            total.flushed_ops += out.flushed_ops;
            total.evictions += out.evictions;
            total.coalesced_writes += out.coalesced_writes;
        }
        Ok(total)
    }

    /// Groups `ops` by owning stripe, preserving input order within each
    /// stripe (which is what makes batched execution observationally
    /// equivalent to per-op calls): stripe `i` owns
    /// `grouped[starts[i]..starts[i + 1]]`.
    fn partition(&self, ops: &[(Key, Value)]) -> (Vec<(Key, Value)>, Vec<usize>) {
        group_stable(ops, self.stripes.len(), |op| self.stripe_index(op.0))
    }

    /// Flushes every stripe's buffers (see [`Clam::flush_all`]), one
    /// stripe after another on the caller's thread; returns the
    /// max-over-stripes latency.
    pub fn flush_all(&self) -> Result<SimDuration> {
        // Every stripe is flushed even if an earlier one failed.
        let results: Vec<_> = self.stripes.iter().map(|stripe| stripe.flush_all()).collect();
        let mut max = SimDuration::ZERO;
        for latency in results {
            max = max.max(latency?);
        }
        Ok(max)
    }

    /// Looks up a batch of keys, partitioned by stripe, with one lock
    /// acquisition per stripe-batch. The stripes run one after another on
    /// the caller's thread, as [`flush_all`](Self::flush_all)'s do, and are
    /// accounted as concurrent (independent devices). Each stripe resolves
    /// its sub-batch through the queued probe pipeline
    /// ([`Clam::lookup_batch`]), so the reported batch latency is the
    /// **maximum over stripes** of each stripe's ring-makespan time —
    /// stripes overlap on their own devices *and* each stripe's probes
    /// overlap on its device's queue lanes. Outcomes are returned in input
    /// order and are identical to per-op lookups; probe-read counts sum
    /// across stripes, while `waves` reports the deepest (slowest) stripe's
    /// probe depth, consistent with the max-over-stripes latency.
    pub fn lookup_batch(&self, keys: &[Key]) -> Result<BatchLookupOutcome> {
        // Input positions by stripe, in input order within each.
        let mut order: Vec<(usize, usize)> =
            keys.iter().enumerate().map(|(pos, &key)| (self.stripe_index(key), pos)).collect();
        order.sort_unstable();
        let mut out: Vec<Option<LookupOutcome>> = vec![None; keys.len()];
        let mut total = BatchLookupOutcome::default();
        for share in order.chunk_by(|a, b| a.0 == b.0) {
            let share_keys: Vec<Key> = share.iter().map(|&(_, pos)| keys[pos]).collect();
            let stripe_batch = self.stripes[share[0].0].lookup_batch(&share_keys)?;
            total.latency = total.latency.max(stripe_batch.latency);
            total.probe_latency = total.probe_latency.max(stripe_batch.probe_latency);
            total.waves = total.waves.max(stripe_batch.waves);
            total.probe_reads += stripe_batch.probe_reads;
            total.ring_depth_high_water =
                total.ring_depth_high_water.max(stripe_batch.ring_depth_high_water);
            for (outcome, &(_, pos)) in stripe_batch.into_iter().zip(share) {
                out[pos] = Some(outcome);
            }
        }
        total.outcomes = out.into_iter().map(|o| o.expect("every key routed")).collect();
        Ok(total)
    }

    /// Aggregated statistics across all stripes (every counter, recorder
    /// and histogram merged; see [`ClamStats::absorb`]).
    pub fn stats(&self) -> ClamStats {
        let mut total = ClamStats::new();
        for stripe in &self.stripes {
            total.absorb(&stripe.stats());
        }
        total
    }

    /// A cloneable handle to stripe `i` (for per-thread pinning).
    pub fn stripe(&self, i: usize) -> Option<SharedClam<D>> {
        self.stripes.get(i).cloned()
    }

    /// Every stripe's CLAM, in order, for an owner that calls each without
    /// a lock. Panics if a [`stripe`](Self::stripe) handle is still alive.
    pub fn into_stripes(self) -> Vec<Clam<D>> {
        self.stripes.into_iter().map(SharedClam::into_clam).collect()
    }

    /// [`lookup`](Self::lookup), with the error dropped: the name and
    /// signature of the read fast path this store had, kept only because
    /// the repo benchmark (`benchmark/src/ladder.rs`) still calls it. Goes
    /// when the benchmark stops calling it.
    pub fn try_fast_lookup(&self, key: Key) -> Option<LookupOutcome> {
        self.lookup(key).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClamConfig;
    use flashsim::Ssd;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::thread;

    fn clam() -> Clam<Ssd> {
        let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
        Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap()
    }

    fn key(i: u64) -> Key {
        hash_with_seed(i, 42)
    }

    #[test]
    fn shared_clam_is_usable_from_multiple_threads() {
        let shared = SharedClam::new(clam());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let handle = shared.clone();
            handles.push(thread::spawn(move || {
                for i in 0..5_000u64 {
                    let k = key(t * 1_000_000 + i);
                    handle.insert(k, i).unwrap();
                    assert_eq!(handle.lookup(k).unwrap().value, Some(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.stats().inserts.len(), 20_000);
        assert!(shared.stats().lookup_hits >= 20_000);
    }

    #[test]
    fn into_stripes_hands_back_each_stripe_where_the_router_puts_its_keys() {
        let store = StripedClam::new((0..3).map(|_| clam()).collect());
        let router = StripeRouter::new(3);
        assert!((0..1000).map(key).all(|k| router.stripe_of(k) == store.stripe_index(k)));
        let keys: Vec<Key> = (0..30).map(key).collect();
        for &k in &keys {
            store.insert(k, k ^ 1).unwrap();
        }
        let mut stripes = store.into_stripes();
        assert_eq!(stripes.len(), 3);
        for &k in &keys {
            for (i, stripe) in stripes.iter_mut().enumerate() {
                let held = (router.stripe_of(k) == i).then_some(k ^ 1);
                assert_eq!(stripe.lookup(k).unwrap().value, held, "key {k} on stripe {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sole ownership")]
    fn into_stripes_refuses_while_a_stripe_handle_lives() {
        let store = StripedClam::new(vec![clam()]);
        let _handle = store.stripe(0);
        store.into_stripes();
    }

    #[test]
    fn shared_clam_with_gives_exclusive_access() {
        let shared = SharedClam::new(clam());
        shared.insert(key(1), 1).unwrap();
        let flushes = shared.with(|c| {
            c.flush_all().unwrap();
            c.stats().flushes
        });
        assert!(flushes >= 1);
    }

    #[test]
    fn striped_clam_routes_keys_consistently() {
        let striped = StripedClam::new(vec![clam(), clam(), clam()]);
        assert_eq!(striped.num_stripes(), 3);
        for i in 0..10_000u64 {
            striped.insert(key(i), i).unwrap();
        }
        for i in (0..10_000u64).step_by(37) {
            assert_eq!(striped.lookup(key(i)).unwrap().value, Some(i), "key {i}");
        }
        striped.delete(key(0)).unwrap();
        assert_eq!(striped.lookup(key(0)).unwrap().value, None);
        // Work is spread across stripes.
        let stats = striped.stats();
        assert_eq!(stats.inserts.len(), 10_000);
        for s in 0..3 {
            let stripe_inserts = striped.stripe(s).unwrap().stats().inserts.len();
            assert!(
                stripe_inserts > 1_000,
                "stripe {s} got only {stripe_inserts} inserts; routing is unbalanced"
            );
        }
    }

    #[test]
    fn striped_clam_parallel_threads() {
        let striped = std::sync::Arc::new(StripedClam::new(vec![clam(), clam()]));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = std::sync::Arc::clone(&striped);
            handles.push(thread::spawn(move || {
                for i in 0..3_000u64 {
                    let k = key(t * 10_000_000 + i);
                    s.insert(k, i).unwrap();
                    assert_eq!(s.lookup(k).unwrap().value, Some(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(striped.stats().inserts.len(), 12_000);
    }

    #[test]
    fn shared_clam_batch_round_trips() {
        let shared = SharedClam::new(clam());
        let ops: Vec<(u64, u64)> = (0..5_000u64).map(|i| (key(i), i * 2)).collect();
        let out = shared.insert_batch(&ops).unwrap();
        assert_eq!(out.ops, 5_000);
        let keys: Vec<u64> = ops.iter().map(|(k, _)| *k).collect();
        let found = shared.lookup_batch(&keys).unwrap();
        for (i, outcome) in found.outcomes.iter().enumerate() {
            assert_eq!(outcome.value, Some(i as u64 * 2), "key {i}");
        }
        assert_eq!(shared.stats().batched_inserts, 5_000);
        assert_eq!(shared.stats().batched_lookups, 5_000);
    }

    #[test]
    fn striped_clam_batches_route_like_per_op() {
        let striped = StripedClam::new(vec![clam(), clam(), clam()]);
        let ops: Vec<(u64, u64)> = (0..9_000u64).map(|i| (key(i), i)).collect();
        let out = striped.insert_batch(&ops).unwrap();
        assert_eq!(out.ops, 9_000);
        // Batched lookups agree with per-op lookups in input order.
        let keys: Vec<u64> =
            (0..2_000u64).map(|i| if i % 4 == 0 { key(500_000 + i) } else { key(i) }).collect();
        let batched = striped.lookup_batch(&keys).unwrap();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(batched[i].value, striped.lookup(*k).unwrap().value, "index {i}");
        }
        // Every stripe saw batched traffic through its own lock.
        let stats = striped.stats();
        assert_eq!(stats.batched_inserts, 9_000);
        assert_eq!(stats.inserts.len(), 9_000);
        // Aggregation keeps the per-lookup read histogram (one bucket entry
        // per lookup), so Table-2-style breakdowns work on striped CLAMs.
        let histogram_total: u64 = stats.flash_reads_histogram.iter().sum();
        assert_eq!(histogram_total, stats.lookups.len() as u64);
        for s in 0..3 {
            assert!(striped.stripe(s).unwrap().stats().batched_inserts > 1_000);
        }
    }

    #[test]
    fn striped_batches_from_multiple_threads() {
        let striped = std::sync::Arc::new(StripedClam::new(vec![clam(), clam()]));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = std::sync::Arc::clone(&striped);
            handles.push(thread::spawn(move || {
                let ops: Vec<(u64, u64)> =
                    (0..3_000u64).map(|i| (key(t * 10_000_000 + i), i)).collect();
                for chunk in ops.chunks(128) {
                    s.insert_batch(chunk).unwrap();
                }
                let keys: Vec<u64> = ops.iter().map(|(k, _)| *k).collect();
                for (i, out) in s.lookup_batch(&keys).unwrap().into_iter().enumerate() {
                    assert_eq!(out.value, Some(i as u64));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(striped.stats().inserts.len(), 12_000);
        assert_eq!(striped.stats().batched_inserts, 12_000);
    }

    #[test]
    fn striped_queued_lookups_report_max_over_stripes() {
        let striped = StripedClam::new(vec![clam(), clam(), clam()]);
        let ops: Vec<(u64, u64)> = (0..60_000u64).map(|i| (key(i), i)).collect();
        for chunk in ops.chunks(1024) {
            striped.insert_batch(chunk).unwrap();
        }
        // Miss-heavy probe traffic so each stripe submits real waves.
        let keys: Vec<u64> =
            (0..1_500u64).map(|i| if i % 3 == 0 { key(i) } else { key(900_000 + i) }).collect();
        let batch = striped.lookup_batch(&keys).unwrap();
        assert_eq!(batch.ops(), keys.len());
        // Max-over-stripes: the batch cannot be cheaper than any stripe's
        // own makespan, and the merged counters describe all stripes.
        let stats = striped.stats();
        if stats.lookup_probe_requests > 0 {
            assert_eq!(batch.probe_reads as u64, stats.lookup_probe_requests);
            assert!(batch.waves as u64 <= stats.lookup_probe_waves);
        }
        // Values agree with per-op lookups.
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(batch[i].value, striped.lookup(k).unwrap().value, "key index {i}");
        }
    }

    #[test]
    fn stripes_can_share_one_device_and_its_ring() {
        use flashsim::SharedDevice;
        // Two stripes over *partitions of one SSD*: their queued traffic
        // funnels through the same device (its lock, byte store, FTL state
        // and `IoStats`). Each `Clam` call still runs on a completion ring
        // of its own that starts at time zero, so the stripes do not share
        // a lane timeline.
        let shared = SharedDevice::new(flashsim::Ssd::intel(8 << 20).unwrap());
        let stripe = |base: u64| {
            let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
            Clam::new(shared.partition(base, 4 << 20).unwrap(), cfg).unwrap()
        };
        let striped = StripedClam::new(vec![stripe(0), stripe(4 << 20)]);
        let ops: Vec<(u64, u64)> = (0..30_000u64).map(|i| (key(i), i)).collect();
        for chunk in ops.chunks(512) {
            striped.insert_batch(chunk).unwrap();
        }
        // Miss-heavy stripe lookups, so both stripes probe the one device.
        let keys: Vec<u64> =
            (0..1_000u64).map(|i| if i % 3 == 0 { key(i) } else { key(700_000 + i) }).collect();
        let batch = striped.lookup_batch(&keys).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(batch[i].value, striped.lookup(k).unwrap().value, "key index {i}");
        }
        // The single underlying device saw both stripes' traffic.
        let device_stats = shared.with(|d| d.stats());
        assert!(device_stats.requests_submitted > 0, "ring probes must flow through the device");
        let stats = striped.stats();
        assert!(stats.lookup_ring_reaps >= device_stats.requests_submitted / 2);
        // The write path went through the same device: every stripe's
        // flush traffic was submitted on its call's ring, not through
        // blocking per-op writes.
        assert!(stats.flushes > 0, "the workload must have flushed");
        assert!(stats.flush_ring_reaps > 0, "flush writes must complete on the ring: {stats}");
        assert_eq!(
            device_stats.requests_submitted,
            stats.lookup_ring_reaps + stats.flush_ring_reaps,
            "every request on the shared device belongs to one of the two ledgers"
        );
    }

    /// A stripe small enough that a few hundred thousand inserts wrap its
    /// log: 32 slots of 32 KiB over 2 super tables.
    fn tiny_clam() -> Clam<Ssd> {
        let cfg = ClamConfig::small_test(1 << 20, 256 << 10).unwrap();
        Clam::new(Ssd::intel(1 << 20).unwrap(), cfg).unwrap()
    }

    /// Batches of 1 to 8 192 ops, cycled until `total` ops are out.
    fn batches_of_every_size(total: usize) -> Vec<Vec<(u64, u64)>> {
        let sizes = [1, 2, 64, 777, 2500, 8192];
        let mut next = 0u64;
        let mut batches = Vec::new();
        for size in sizes.into_iter().cycle() {
            if next as usize >= total {
                break;
            }
            batches.push((next..next + size as u64).map(|i| (key(i), i * 3)).collect());
            next += size as u64;
        }
        batches
    }

    fn io_stats(store: &StripedClam<Ssd>) -> Vec<flashsim::IoStats> {
        (0..store.num_stripes())
            .map(|i| store.stripe(i).unwrap().with(|c| c.device().stats()))
            .collect()
    }

    /// An SSD that counts the commands run on a thread other than `home`.
    struct Witnessed {
        ssd: Ssd,
        home: thread::ThreadId,
        away: Arc<AtomicUsize>,
    }

    impl Witnessed {
        fn witness(&self) {
            if thread::current().id() != self.home {
                self.away.fetch_add(1, Relaxed);
            }
        }
    }

    impl Device for Witnessed {
        fn profile(&self) -> &flashsim::DeviceProfile {
            self.ssd.profile()
        }
        fn geometry(&self) -> flashsim::Geometry {
            self.ssd.geometry()
        }
        fn medium_read(&mut self, offset: u64, buf: &mut [u8]) -> flashsim::Result<SimDuration> {
            self.witness();
            self.ssd.medium_read(offset, buf)
        }
        fn medium_write(&mut self, offset: u64, bufs: &[&[u8]]) -> flashsim::Result<SimDuration> {
            self.witness();
            self.ssd.medium_write(offset, bufs)
        }
        fn medium_trim(&mut self, offset: u64, len: u64) -> flashsim::Result<SimDuration> {
            self.witness();
            self.ssd.medium_trim(offset, len)
        }
        fn stats(&self) -> flashsim::IoStats {
            self.ssd.stats()
        }
        fn update_stats(&mut self, update: &mut dyn FnMut(&mut flashsim::IoStats)) {
            self.ssd.update_stats(update)
        }
    }

    #[test]
    fn a_striped_batch_runs_every_stripe_on_the_callers_thread() {
        let away = Arc::new(AtomicUsize::new(0));
        let stripe = |_| {
            let home = thread::current().id();
            let ssd = Witnessed { ssd: Ssd::intel(1 << 20).unwrap(), home, away: away.clone() };
            Clam::new(ssd, ClamConfig::small_test(1 << 20, 256 << 10).unwrap()).unwrap()
        };
        let store = StripedClam::new((0..4).map(stripe).collect());
        let ops: Vec<(u64, u64)> = (0..60_000u64).map(|i| (key(i), i)).collect();
        for batch in ops.chunks(8192) {
            store.insert_batch(batch).unwrap();
        }
        store.flush_all().unwrap();
        let keys: Vec<Key> = ops.iter().step_by(7).map(|op| op.0).collect();
        assert!(store.lookup_batch(&keys).unwrap().outcomes.iter().all(|o| o.value.is_some()));
        for i in 0..store.num_stripes() {
            let io = store.stripe(i).unwrap().with(|c| c.device().stats());
            assert!(io.writes > 0 && io.reads > 0, "stripe {i} flushed and read: {io:?}");
        }
        assert_eq!(away.load(Relaxed), 0, "commands off the caller");
    }

    #[test]
    fn a_striped_batch_equals_its_per_stripe_calls() {
        // Each stripe handed its share directly, one after another, on a
        // twin store.
        let stripes = || vec![tiny_clam(), tiny_clam(), tiny_clam()];
        let (striped, by_hand) = (StripedClam::new(stripes()), StripedClam::new(stripes()));
        let batches = batches_of_every_size(160_000);
        let mut max_total = SimDuration::ZERO;
        let mut sum_total = SimDuration::ZERO;
        let mut evictions = 0;
        for batch in &batches {
            let p = striped.insert_batch(batch).unwrap();
            let per_stripe: Vec<BatchInsertOutcome> = (0..by_hand.num_stripes())
                .map(|idx| {
                    let share: Vec<(u64, u64)> = batch
                        .iter()
                        .copied()
                        .filter(|op| by_hand.stripe_index(op.0) == idx)
                        .collect();
                    by_hand.stripe(idx).unwrap().insert_batch(&share).unwrap()
                })
                .collect();
            // The batch latency is the maximum over the stripes; the
            // events sum.
            let n = batch.len();
            let sum = |f: fn(&BatchInsertOutcome) -> usize| per_stripe.iter().map(f).sum::<usize>();
            assert_eq!(p.ops, n);
            assert_eq!(p.latency, per_stripe.iter().map(|s| s.latency).max().unwrap(), "of {n}");
            assert_eq!(p.flushed_ops, sum(|s| s.flushed_ops), "batch of {n}");
            assert_eq!(p.evictions, sum(|s| s.evictions), "batch of {n}");
            assert_eq!(p.coalesced_writes, sum(|s| s.coalesced_writes), "batch of {n}");
            max_total += p.latency;
            sum_total += per_stripe.iter().map(|s| s.latency).sum();
            evictions += p.evictions;
        }
        assert!(evictions > 0, "the workload must fill the incarnation tables");
        assert!(
            max_total < sum_total,
            "max-over-stripes ({max_total}) must undercut summed dispatch ({sum_total})"
        );
        // Identical end state: same counters, same device traffic to the
        // last byte and nanosecond, same lookups.
        let (ps, hs) = (striped.stats(), by_hand.stats());
        assert_eq!(ps.flushes, hs.flushes);
        assert_eq!(ps.forced_evictions, hs.forced_evictions);
        assert_eq!(ps.coalesced_flush_writes, hs.coalesced_flush_writes);
        assert_eq!(ps.batched_inserts, hs.batched_inserts);
        assert_eq!(ps.inserts.len(), hs.inserts.len());
        assert_eq!(ps.inserts.total(), hs.inserts.total());
        assert_eq!(ps.deferred_flush_time, hs.deferred_flush_time);
        assert_eq!(io_stats(&striped), io_stats(&by_hand));
        let total = batches.iter().map(Vec::len).sum::<usize>() as u64;
        for i in (0..total).step_by(271) {
            assert_eq!(
                striped.lookup(key(i)).unwrap().value,
                by_hand.lookup(key(i)).unwrap().value,
                "key {i}"
            );
        }
    }

    #[test]
    fn lookup_batch_matches_per_stripe_lookups() {
        // Twin stores with identical contents, most of it on flash.
        let stripes = || vec![tiny_clam(), tiny_clam(), tiny_clam()];
        let (dispatched, by_hand) = (StripedClam::new(stripes()), StripedClam::new(stripes()));
        let ops: Vec<(u64, u64)> = (0..40_000u64).map(|i| (key(i), i * 3)).collect();
        for chunk in ops.chunks(1024) {
            dispatched.insert_batch(chunk).unwrap();
            by_hand.insert_batch(chunk).unwrap();
        }
        let mut next = 0u64;
        let mut flash_reads = 0;
        for size in [1, 2, 64, 1023, 1024, 4096] {
            // Live keys, evicted keys and keys never inserted.
            let keys: Vec<u64> = (next..next + size as u64).map(|i| key(i * 7 % 60_000)).collect();
            next += size as u64;
            let batch = dispatched.lookup_batch(&keys).unwrap();
            let mut slowest = SimDuration::ZERO;
            let mut expected = vec![None; keys.len()];
            for idx in 0..by_hand.num_stripes() {
                let (at, share): (Vec<usize>, Vec<u64>) = keys
                    .iter()
                    .copied()
                    .enumerate()
                    .filter(|&(_, k)| by_hand.stripe_index(k) == idx)
                    .unzip();
                let out = by_hand.stripe(idx).unwrap().lookup_batch(&share).unwrap();
                slowest = slowest.max(out.latency);
                for (pos, outcome) in at.into_iter().zip(out) {
                    expected[pos] = Some(outcome);
                }
            }
            assert_eq!(batch.latency, slowest, "batch of {size}");
            for (i, outcome) in batch.into_iter().enumerate() {
                flash_reads += outcome.flash_reads;
                assert_eq!(Some(outcome), expected[i], "batch of {size}, key {i}");
            }
        }
        assert!(flash_reads > 0, "the batches must probe flash");
        assert_eq!(io_stats(&dispatched), io_stats(&by_hand));
    }

    #[test]
    fn wrappers_expose_the_full_clam_surface() {
        let shared = SharedClam::new(clam());
        shared.insert(key(1), 1).unwrap();
        shared.insert(key(1), 2).unwrap();
        assert_eq!(shared.lookup(key(1)).unwrap().value, Some(2));
        let flushed = shared.flush_all().unwrap();
        assert!(flushed > flashsim::SimDuration::ZERO);
        shared.delete(key(1)).unwrap();
        assert_eq!(shared.lookup(key(1)).unwrap().value, None);

        let striped = StripedClam::new(vec![clam(), clam()]);
        for i in 0..500u64 {
            striped.insert(key(i), i).unwrap();
        }
        assert_eq!(striped.lookup(key(7)).unwrap().value, Some(7));
        let flushes_before = striped.stats().flushes;
        striped.flush_all().unwrap();
        assert!(striped.stats().flushes > flushes_before);
        striped.delete(key(7)).unwrap();
        assert_eq!(striped.lookup(key(7)).unwrap().value, None);
        // Buffered entries survive the flush.
        assert_eq!(striped.lookup(key(8)).unwrap().value, Some(8));
    }

    #[test]
    fn wrappers_recover_from_flash_contents() {
        // Fill a striped CLAM, flush, lose the DRAM, and recover each
        // stripe from its device image alone.
        let striped = StripedClam::new(vec![clam(), clam()]);
        let ops: Vec<(u64, u64)> = (0..20_000u64).map(|i| (key(i), i)).collect();
        for chunk in ops.chunks(512) {
            striped.insert_batch(chunk).unwrap();
        }
        striped.flush_all().unwrap();
        // Simulate the crash: drop every wrapper, keeping only the flash.
        let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
        let pairs: Vec<(Ssd, ClamConfig)> = striped
            .stripes
            .into_iter()
            .map(|stripe| (stripe.into_clam().into_device(), cfg.clone()))
            .collect();
        let (recovered, reports) = StripedClam::recover(pairs).unwrap();
        assert_eq!(reports.len(), 2);
        for report in &reports {
            assert!(report.accepted > 0, "{report}");
            assert_eq!(report.torn, 0, "{report}");
        }
        for (k, v) in &ops {
            assert_eq!(recovered.lookup(*k).unwrap().value, Some(*v), "key {k:#x}");
        }
        assert_eq!(recovered.stats().recoveries, 2);
    }

    /// The concurrency a stripe has: one writer against readers calling
    /// `lookup` and `lookup_batch`, all taking turns on the stripe's one
    /// lock. Every key must behave as an atomic register through buffer
    /// drains, incarnation registrations, evictions and log wrap-around.
    ///
    /// Round `v` writes value `v` to three kinds of key: *registers*,
    /// rewritten every round (versions must never go backwards); *fresh*
    /// keys, written once, so their only copy moves from the buffer to an
    /// incarnation (a reader between the drain and the registration would
    /// see a miss); and a *tombstone* key, inserted and then deleted (a
    /// deleted version must never come back). `intent` is stored before
    /// the round's first call and `done` after its last returns, so a read
    /// that starts at `done == d` and ends at `intent == i` must observe a
    /// version in `d..=i`.
    ///
    /// A fresh key is written once, so the log evicts it for good a known
    /// number of rounds later, and a reader descheduled between `done` and
    /// its lookup for that long misses it legitimately. Its miss is a
    /// violation only if the writer's `intent`, loaded *after* the read, is
    /// still inside that retention window; a read that overlapped more
    /// rounds is discarded and counted, and most must not be.
    #[test]
    fn readers_see_each_key_as_a_register_while_one_writer_flushes_and_wraps() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
        const REGISTERS: u64 = 256;
        // With the registers, more than two buffers hold: every round
        // drains each table's buffer at least once on its own.
        const FRESH: u64 = 2800;
        // Acknowledged rounds whose fresh keys are read back; four rounds
        // of keys are a third of what the tables retain.
        const RECENT: u64 = 3;
        const TOMBS: u64 = 16;
        const MIN_ROUNDS: u64 = 40;
        const MAX_ROUNDS: u64 = 20_000;
        let fresh = |round: u64, i: u64| key((round << 20) + 1_000 + i);
        let tomb = |j: u64| key(500 + j);

        let shared = SharedClam::new(tiny_clam());
        // Rounds a fresh key outlives its own: a round's keys fill their
        // share of log slots, every third round's `flush_all` spends one
        // more per table on a partial incarnation, the log holds so many
        // slots, and one round is margin (the tables do not fill evenly).
        let retained_rounds = shared.with(|c| {
            let cfg = c.config();
            let per_round = (REGISTERS + FRESH + 1) as f64 / cfg.entries_per_incarnation() as f64
                + cfg.num_super_tables() as f64 / 3.0;
            (cfg.total_flash_slots() as f64 / per_round) as u64 - 1
        });
        assert!(retained_rounds > 2 * RECENT, "the window must clear the rounds read back");
        let (intent, done) = (AtomicU64::new(0), AtomicU64::new(0));
        let stop = AtomicBool::new(false);
        let progress = [AtomicU64::new(0), AtomicU64::new(0)];

        // What a read asked about: the fresh keys of a round, a register
        // or a tombstone, each by its number.
        #[derive(Clone, Copy)]
        enum Target {
            Fresh(u64),
            Register(u64),
            Tomb(u64),
        }
        // Half the reads go to fresh keys of an acknowledged round, the
        // rest to registers and tombstones.
        let target = |pick: u64, floor: u64| {
            let fresh_round = floor.saturating_sub(pick / 2 % RECENT);
            if pick.is_multiple_of(2) && fresh_round > 0 {
                return (Target::Fresh(fresh_round), fresh(fresh_round, pick % FRESH));
            }
            match pick % (REGISTERS + TOMBS) {
                i if i < REGISTERS => (Target::Register(i), key(i)),
                i => (Target::Tomb(i - REGISTERS), tomb(i - REGISTERS)),
            }
        };

        let reader = |id: usize| {
            let (shared, intent, done, stop) = (shared.clone(), &intent, &done, &stop);
            let progress = &progress[id];
            move || {
                let mut last = vec![0u64; REGISTERS as usize];
                // Per tombstone key: newest version seen, and whether it
                // has since been seen deleted.
                let mut last_tomb = vec![(0u64, false); TOMBS as usize];
                let (mut scalar, mut batched) = (0u64, 0u64);
                let (mut fresh_checked, mut fresh_discarded) = (0u64, 0u64);
                let (mut n, mut m) = (id as u64, id as u64);
                while !stop.load(SeqCst) {
                    n += 1;
                    let floor = done.load(SeqCst);
                    // Every other read is one `lookup_batch` of four keys,
                    // all answered at one instant of the writer's.
                    let keys = if n.is_multiple_of(2) { 4 } else { 1 };
                    let picks: Vec<(Target, Key)> = (0..keys)
                        .map(|_| {
                            m += 1;
                            target(m.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20, floor)
                        })
                        .collect();
                    let got = if keys > 1 {
                        batched += 1;
                        let keys: Vec<Key> = picks.iter().map(|&(_, k)| k).collect();
                        shared.lookup_batch(&keys).unwrap().outcomes
                    } else {
                        scalar += 1;
                        vec![shared.lookup(picks[0].1).unwrap()]
                    };
                    let ceiling = intent.load(SeqCst);
                    progress.fetch_add(1, SeqCst);
                    for (&(target, _), got) in picks.iter().zip(got) {
                        match target {
                            Target::Fresh(fresh_round) => {
                                if ceiling - fresh_round > retained_rounds {
                                    fresh_discarded += 1;
                                    continue;
                                }
                                fresh_checked += 1;
                                assert_eq!(
                                    got.value,
                                    Some(fresh_round),
                                    "fresh key of {fresh_round} read over {floor}..={ceiling}: {got:?}"
                                );
                            }
                            Target::Register(i) => {
                                let Some(v) = got.value else {
                                    assert_eq!(
                                        floor, 0,
                                        "register {i} missing at {floor}: {got:?}"
                                    );
                                    continue;
                                };
                                let seen = &mut last[i as usize];
                                assert!(
                                    v >= *seen,
                                    "register {i} went backwards: {v} after {seen}"
                                );
                                assert!(
                                    v >= floor,
                                    "register {i} reads {v}, {floor} was acknowledged"
                                );
                                assert!(
                                    v <= ceiling,
                                    "register {i} reads {v}, writer is at {ceiling}"
                                );
                                *seen = v;
                            }
                            Target::Tomb(j) => {
                                let (seen, deleted) = &mut last_tomb[j as usize];
                                match got.value {
                                    Some(v) => {
                                        assert!(
                                            v <= ceiling,
                                            "tombstone {j} reads {v} of {ceiling}"
                                        );
                                        assert!(
                                            v >= *seen,
                                            "tombstone {j} went backwards: {v} < {seen}"
                                        );
                                        assert!(
                                            !*deleted || v > *seen,
                                            "deleted version {v} came back"
                                        );
                                        (*seen, *deleted) = (v, false);
                                    }
                                    None => *deleted = *seen > 0,
                                }
                            }
                        }
                    }
                }
                (scalar, batched, fresh_checked, fresh_discarded)
            }
        };

        let counts = thread::scope(|scope| {
            let readers = [scope.spawn(reader(0)), scope.spawn(reader(1))];
            let mut round = 0u64;
            while round < MAX_ROUNDS {
                round += 1;
                intent.store(round, SeqCst);
                let ops: Vec<(u64, u64)> = (0..REGISTERS)
                    .map(key)
                    .chain((0..FRESH).map(|i| fresh(round, i)))
                    .map(|k| (k, round))
                    .collect();
                let t = tomb(round % TOMBS);
                shared.insert(t, round).unwrap();
                for chunk in ops.chunks(64) {
                    shared.insert_batch(chunk).unwrap();
                }
                shared.delete(t).unwrap();
                if round.is_multiple_of(3) {
                    shared.flush_all().unwrap();
                }
                done.store(round, SeqCst);
                let read_enough = progress.iter().all(|p| p.load(SeqCst) >= 2_000);
                if round >= MIN_ROUNDS && read_enough {
                    break;
                }
            }
            stop.store(true, SeqCst);
            readers.map(|r| r.join().expect("a reader's register check failed"))
        });

        let (stats, trims) = (shared.stats(), shared.with(|c| c.device().stats().trims));
        assert!(stats.flushes > 64 && trims > 0, "the log must wrap and evict: {stats}");
        for (scalar, batched, checked, discarded) in counts {
            assert!(scalar > 0 && batched > 0, "both entry points must have run: {counts:?}");
            assert!(checked >= 3 * discarded, "three fresh reads in four must count: {counts:?}");
            assert!(checked > 0, "{counts:?}");
        }
        // Every buffer is drained every round, so fresh keys are read
        // while they are retired.
        assert!(
            stats.lookups_by_source[crate::clam::LookupSource::Retired as usize] > 0,
            "{stats}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one stripe")]
    fn empty_stripe_list_is_rejected() {
        let _ = StripedClam::<Ssd>::new(Vec::new());
    }

    #[test]
    fn missing_stripe_handle_is_none() {
        let striped = StripedClam::new(vec![clam()]);
        assert!(striped.stripe(0).is_some());
        assert!(striped.stripe(5).is_none());
    }
}
