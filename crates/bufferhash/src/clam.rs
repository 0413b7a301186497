//! The CLAM: BufferHash running on DRAM + flash.
//!
//! [`Clam`] ties everything together: it partitions the key space across
//! super tables, orchestrates buffer flushes, incarnation writes, Bloom
//! filter maintenance and evictions against a [`flashsim::Device`], and
//! accounts the simulated latency of every operation the way the paper's
//! evaluation does (in-memory work plus any blocking flash I/O).
//!
//! Two operation pipelines are offered: per-op [`Clam::insert`] /
//! [`Clam::lookup`], which charge the full dispatch overhead to every
//! call, and the batched [`Clam::insert_batch`] / [`Clam::lookup_batch`],
//! which sort a batch by super table, amortize the dispatch overhead over
//! the batch, and coalesce flush-triggered incarnation writes that land on
//! contiguous log slots into single sequential device writes.
//!
//! The read path is **queued and streaming**: every lookup key runs a
//! probe state machine (buffer/delete-list check, then Bloom-guided
//! candidate incarnations, then chained page hops), and
//! [`Clam::lookup_batch`] drives those machines through the device's
//! **completion ring** ([`Device::submit_nowait`] /
//! [`Device::reap`](flashsim::Device::reap)): page reads are admitted
//! without waiting, a bounded window of keys at a time (a few requests
//! per queue lane, so a large batch parks a bounded number of page
//! buffers), and the moment a read reaps, its key's *next* read is
//! re-armed or the next waiting key takes its place — so independent
//! keys' probe rounds interleave and the queue stays full instead of
//! draining at a per-round barrier. The batch's flash time is the ring
//! **makespan**
//! ([`flashsim::CompletionRing::makespan`]), which on variable-latency
//! media undercuts the sum of per-wave maxima the barrier pipeline pays.
//! A per-op [`Clam::lookup`] is a batch of one over the same pipeline;
//! [`Clam::lookup_batch_waves`] keeps the barrier wave pipeline as a
//! reference path (identical outcomes, different timing), which the
//! `io_queue_depth` harness sweeps ring-vs-barrier.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex, MutexGuard};

use flashsim::queue::{
    batch_latency, overlapped_requests, page_read_batch, IoCompletion, IoTicket, RingCompletion,
};
use flashsim::{
    CompletionRing, Device, IoRequest, LinearCost, MediumKind, RingRequest, SimDuration,
};

use crate::config::ClamConfig;
use crate::cuckoo::BufferInsert;
use crate::error::{BufferHashError, Result};
use crate::eviction::{EvictionPolicy, RetainDecision};
use crate::filters::AgeSet;
use crate::incarnation::{
    lookup_in_page, parse_incarnation, parse_page_header_checked, scan_incarnation,
    IncarnationIdentity, IncarnationLayout, PageLookup, SlotScan,
};
use crate::log::{LogAllocator, SlotOwner};
use crate::recovery::RecoveryReport;
use crate::stats::ClamStats;
use crate::supertable::{IncarnationMeta, SuperTable};
use crate::types::{group_stable, hash_with_seed, Entry, Key, Value};

/// Fixed in-memory overhead charged once per hash-table *call*: request
/// dispatch, operation setup and stats bookkeeping on the host CPU. A
/// per-op call ([`Clam::insert`], [`Clam::lookup`]) pays it in full; a
/// batched call ([`Clam::insert_batch`], [`Clam::lookup_batch`]) pays it
/// once for the whole batch, which is where most of the batch speedup
/// comes from.
pub const BASE_OP_OVERHEAD: SimDuration = SimDuration::from_nanos(2_500);
/// Residual per-operation overhead inside a batched call: per-key hashing
/// and bookkeeping that batching cannot amortize away.
pub const BATCHED_OP_OVERHEAD: SimDuration = SimDuration::from_nanos(400);
/// Cost per 64-bit DRAM word touched by buffer/filter probes.
const WORD_COST: SimDuration = SimDuration::from_nanos(4);
/// DRAM words touched by a buffer probe (two cuckoo locations).
const BUFFER_PROBE_WORDS: usize = 4;

/// Outcome of an insert operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// End-to-end simulated latency charged to this insert.
    pub latency: SimDuration,
    /// Whether this insert triggered a buffer flush to flash.
    pub flushed: bool,
    /// Number of incarnations evicted by the flush chain (0 when no flush,
    /// 1 for a plain flush with eviction, more when partial-discard
    /// evictions cascaded).
    pub evictions: usize,
}

/// Outcome of a batched insert ([`Clam::insert_batch`]).
///
/// Latency is accounted at batch granularity: per-op dispatch overhead is
/// amortized across the batch and flush writes deferred for coalescing are
/// charged to the batch as a whole, not to the op that triggered them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchInsertOutcome {
    /// Number of operations in the batch.
    pub ops: usize,
    /// Total simulated latency of the batch, including coalesced flush
    /// writes drained at the end.
    pub latency: SimDuration,
    /// Operations that triggered at least one buffer flush.
    pub flushed_ops: usize,
    /// Incarnations evicted across all flush chains in the batch.
    pub evictions: usize,
    /// Device write commands eliminated by merging contiguous incarnation
    /// writes into one sequential write.
    pub coalesced_writes: usize,
}

impl BatchInsertOutcome {
    /// Mean simulated latency per operation.
    pub fn mean_latency(&self) -> SimDuration {
        if self.ops == 0 {
            SimDuration::ZERO
        } else {
            self.latency / self.ops as u64
        }
    }
}

/// Outcome of a lookup operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupOutcome {
    /// The value, if the key was found.
    pub value: Option<Value>,
    /// End-to-end simulated latency.
    pub latency: SimDuration,
    /// Number of flash page reads performed.
    pub flash_reads: usize,
    /// Where the value was found.
    pub source: LookupSource,
}

/// Where a lookup found (or failed to find) its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupSource {
    /// Found in the in-memory buffer.
    Buffer,
    /// Found in an on-flash incarnation.
    Flash,
    /// The key was deleted (delete-list hit).
    Deleted,
    /// Not found anywhere.
    Miss,
}

/// Verdict of a memory-only probe ([`Clam::probe_memory`]): either the key
/// resolved entirely from DRAM state (buffer, delete list, or Bloom filters
/// proving no live flash candidate), or the locked flash pipeline must run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryProbe {
    /// The key resolved without touching flash; the outcome is exactly what
    /// the locked lookup pipeline would have produced (`flash_reads == 0`).
    Resolved(LookupOutcome),
    /// At least one live flash incarnation may hold the key; only the
    /// exclusive probe pipeline can decide.
    NeedsFlash,
}

/// Outcome of a queued batch lookup ([`Clam::lookup_batch`]).
///
/// Carries one [`LookupOutcome`] per key (in input order) plus batch-level
/// accounting. The batch's [`latency`](Self::latency) is
/// **makespan-accounted**: probe waves submitted through
/// [`Device::submit`](flashsim::Device::submit) cost the maximum over the
/// device's queue lanes, not the summed per-read time, so a miss-heavy
/// batch on an overlapped device finishes far sooner than its per-key
/// latencies add up to. Each key's own [`LookupOutcome::latency`] still
/// records what that lookup would have cost charged alone (dispatch +
/// DRAM probes + its own page reads), which is what
/// [`ClamStats::lookups`](crate::ClamStats) samples.
#[derive(Debug, Clone, Default)]
pub struct BatchLookupOutcome {
    /// One outcome per key, in input order.
    pub outcomes: Vec<LookupOutcome>,
    /// Elapsed simulated time of the whole batch: per-key host work plus
    /// the makespan of every probe wave.
    pub latency: SimDuration,
    /// The flash share of [`latency`](Self::latency): the summed makespans
    /// of the probe waves (zero when every key resolved in memory).
    pub probe_latency: SimDuration,
    /// Probe rounds: the deepest key's chain of page reads. On the
    /// barrier pipeline ([`Clam::lookup_batch_waves`]) this equals the
    /// number of [`Device::submit`](flashsim::Device::submit) waves; on
    /// the streaming ring pipeline rounds of different keys interleave,
    /// but the depth is the same.
    pub waves: usize,
    /// Total flash page-read requests submitted across all rounds.
    pub probe_reads: usize,
    /// Completions delivered through [`Device::reap`](flashsim::Device::reap)
    /// (zero on the barrier wave pipeline).
    pub reaps: usize,
    /// In-flight depth high-water mark of the completion ring: at most the
    /// probe window, however many keys the batch holds (zero on the
    /// barrier wave pipeline).
    pub ring_depth_high_water: usize,
}

impl BatchLookupOutcome {
    /// Number of keys looked up.
    pub fn ops(&self) -> usize {
        self.outcomes.len()
    }

    /// Returns `true` for the empty batch.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Number of keys that resolved to a value.
    pub fn hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.value.is_some()).count()
    }

    /// Mean elapsed batch time per key (makespan-accounted).
    pub fn mean_latency(&self) -> SimDuration {
        if self.outcomes.is_empty() {
            SimDuration::ZERO
        } else {
            self.latency / self.outcomes.len() as u64
        }
    }

    /// The values in input order (convenience for callers that only need
    /// the lookup results).
    pub fn values(&self) -> Vec<Option<Value>> {
        self.outcomes.iter().map(|o| o.value).collect()
    }
}

impl std::ops::Index<usize> for BatchLookupOutcome {
    type Output = LookupOutcome;

    fn index(&self, index: usize) -> &LookupOutcome {
        &self.outcomes[index]
    }
}

impl IntoIterator for BatchLookupOutcome {
    type Item = LookupOutcome;
    type IntoIter = std::vec::IntoIter<LookupOutcome>;

    fn into_iter(self) -> Self::IntoIter {
        self.outcomes.into_iter()
    }
}

impl<'a> IntoIterator for &'a BatchLookupOutcome {
    type Item = &'a LookupOutcome;
    type IntoIter = std::slice::Iter<'a, LookupOutcome>;

    fn into_iter(self) -> Self::IntoIter {
        self.outcomes.iter()
    }
}

/// Memory usage summary of a CLAM (all figures in bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryUsage {
    /// DRAM used by buffers.
    pub buffers: usize,
    /// DRAM used by Bloom filters.
    pub filters: usize,
    /// DRAM used by delete lists.
    pub delete_lists: usize,
}

impl MemoryUsage {
    /// Total DRAM use.
    pub fn total(&self) -> usize {
        self.buffers + self.filters + self.delete_lists
    }
}

/// Process-wide source of incarnation epochs: every [`Clam`] lifetime —
/// fresh construction or recovery — gets an epoch strictly greater than
/// any handed out before, so flushed pages always say which lifetime
/// wrote them. [`Clam::recover`] additionally bumps this past the largest
/// epoch found on flash, covering images written by earlier processes.
static CLAM_EPOCH: AtomicU32 = AtomicU32::new(0);

/// One super table plus its per-table concurrency state (see DESIGN.md
/// "Per-table write locks").
///
/// * `op` — the **operation lock**: serializes whole logical mutations on
///   this table. A fine-grained writer holds it across its entire op
///   (insert including any flush chain), so per-table op order is well
///   defined even though the data lock below is released between steps.
/// * `state` — the **state lock**: protects the table's mutable data (the
///   cuckoo buffer, delete list, Bloom filters and incarnation queue). It
///   is a *leaf* lock, held only for the duration of single `SuperTable`
///   method calls — which is what lets a flush of one table force-evict
///   incarnations of *another* table (cross-table log-slot reclamation)
///   without any lock-ordering concerns.
/// * `epoch` — a per-table seqlock epoch, odd while a fine-grained writer
///   holds the op lock. Lock-free readers ([`Clam::try_probe_memory`])
///   validate against it so they never build a verdict from a half-applied
///   logical op (e.g. between a buffer drain and the matching incarnation
///   registration).
struct TableSlot {
    state: Mutex<SuperTable>,
    op: Mutex<()>,
    epoch: AtomicU64,
}

/// The stripe's super tables behind per-table locks, plus the table-lock
/// ledger (acquisitions, contended acquisitions, and the high-water mark
/// of concurrently write-locked tables) that [`Clam::stats`] folds into
/// [`ClamStats`].
struct TableSet {
    slots: Vec<TableSlot>,
    /// Fine-path write-lock acquisitions.
    acquisitions: AtomicU64,
    /// Acquisitions that found the op lock already held.
    contended: AtomicU64,
    /// Number of tables currently write-locked (fine path).
    locked: AtomicU64,
    /// High-water mark of `locked`: how many tables of this stripe were
    /// ever write-locked at the same instant.
    high_water: AtomicU64,
}

impl TableSet {
    fn new(tables: Vec<SuperTable>) -> Self {
        TableSet {
            slots: tables
                .into_iter()
                .map(|t| TableSlot {
                    state: Mutex::new(t),
                    op: Mutex::new(()),
                    epoch: AtomicU64::new(0),
                })
                .collect(),
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            locked: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Runs `f` with table `t`'s state lock held. The lock is a leaf:
    /// `f` must not acquire any other lock.
    fn with<R>(&self, t: usize, f: impl FnOnce(&mut SuperTable) -> R) -> R {
        f(&mut self.slots[t].state.lock())
    }

    /// Current seqlock epoch of table `t` (odd while a fine-grained
    /// writer's logical op is in progress).
    fn epoch_of(&self, t: usize) -> u64 {
        self.slots[t].epoch.load(Ordering::SeqCst)
    }

    /// Acquires table `t`'s operation lock for a fine-grained logical
    /// write, recording the lock ledger and marking the table's epoch odd
    /// until the guard drops.
    fn lock_for_write(&self, t: usize) -> TableWriteGuard<'_> {
        let slot = &self.slots[t];
        let op = match slot.op.try_lock() {
            Some(guard) => guard,
            None => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                slot.op.lock()
            }
        };
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        let now_locked = self.locked.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now_locked, Ordering::Relaxed);
        slot.epoch.fetch_add(1, Ordering::SeqCst);
        TableWriteGuard { set: self, slot, _op: op }
    }

    /// Folds the table-lock ledger into `stats`.
    fn merge_lock_ledger(&self, stats: &mut ClamStats) {
        stats.table_write_acquisitions += self.acquisitions.load(Ordering::Relaxed);
        stats.table_write_contended += self.contended.load(Ordering::Relaxed);
        stats.table_lock_high_water =
            stats.table_lock_high_water.max(self.high_water.load(Ordering::Relaxed));
    }

    /// Clears the table-lock ledger (for [`Clam::reset_stats`]).
    fn reset_lock_ledger(&self) {
        self.acquisitions.store(0, Ordering::Relaxed);
        self.contended.store(0, Ordering::Relaxed);
        self.high_water.store(self.locked.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// RAII guard of one table's operation lock (fine-grained write path).
/// Dropping it marks the table's epoch even again and decrements the
/// concurrently-locked count.
struct TableWriteGuard<'a> {
    set: &'a TableSet,
    slot: &'a TableSlot,
    _op: MutexGuard<'a, ()>,
}

impl Drop for TableWriteGuard<'_> {
    fn drop(&mut self) {
        self.slot.epoch.fetch_add(1, Ordering::SeqCst);
        self.set.locked.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Orders the *flush* side-effects of a parallel batch insert: chunk `j`'s
/// first flush waits until every chunk `< j` has fully completed, so
/// allocator grants, flush sequence numbers and forced evictions happen in
/// exactly the order the sequential (coarse) batch would produce them —
/// that is what makes `set_coarse_locks(true)` a bit-identical baseline.
/// Buffer inserts (the common case) never wait: only a full buffer parks
/// on the gate, and it does so *before* taking the core lock, so a waiting
/// chunk holds nothing another chunk needs (its own table op locks only).
struct FlushGate {
    done: Mutex<Vec<bool>>,
    cv: Condvar,
}

impl FlushGate {
    fn new(chunks: usize) -> Self {
        FlushGate { done: Mutex::new(vec![false; chunks]), cv: Condvar::new() }
    }

    /// Blocks until every chunk before `chunk` has completed.
    fn wait_turn(&self, chunk: usize) {
        let mut done = self.done.lock();
        while !done[..chunk].iter().all(|&d| d) {
            done = self.cv.wait(done);
        }
    }

    /// Marks `chunk` complete and wakes waiters.
    fn complete(&self, chunk: usize) {
        let mut done = self.done.lock();
        done[chunk] = true;
        self.cv.notify_all();
    }
}

/// Drop guard that completes a chunk's gate slot on every exit path —
/// success, error return or panic — so one failing chunk can never
/// deadlock the chunks gated behind it.
struct GateCompletion<'a> {
    gate: &'a FlushGate,
    chunk: usize,
}

impl Drop for GateCompletion<'_> {
    fn drop(&mut self) {
        self.gate.complete(self.chunk);
    }
}

/// What one chunk of a multi-chunk batch insert shares with the others: the
/// flush gate, its own slot on it, and the barrier the chunks meet at. A
/// batch that runs as a single chunk has none of it.
#[derive(Clone, Copy)]
struct ChunkSync<'a> {
    gate: &'a FlushGate,
    chunk: usize,
    rendezvous: &'a std::sync::Barrier,
}

/// The ops a chunk completed, in the order it ran them, and the error that
/// stopped it early, if one did.
type ChunkResult = (Vec<InsertOutcome>, Option<BufferHashError>);

/// Inserts a spawned worker must carry before fanning an insert batch out
/// over threads pays; below it [`fan_out`] keeps the batch on the caller's
/// thread.
///
/// Measured on the 2-vCPU development host (DESIGN.md "Write-path host
/// cost" has the table): an empty scoped thread costs 12 µs to spawn and
/// join at the median and 40 µs at p99, and a batched insert 0.23 µs of
/// host time with flushes amortized in, which alone would put break-even
/// near 50 to 175 ops. In situ it is ten times that: loading 1.2M keys
/// through two workers instead of one is twice as slow at 128 ops per
/// worker, even at 512 to 1024, and a third faster from 2048 up, because a
/// real worker wakes on another core with cold caches and the caller waits
/// for the later of the two. The floor is twice the upper end of the
/// measured crossover. A caller that batches less than this is after
/// latency, which a spawn can only add to.
pub(crate) const SPAWN_FLOOR_OPS: usize = 2048;

/// Keys a spawned worker must carry before fanning a lookup batch out over
/// threads pays. Lower than [`SPAWN_FLOOR_OPS`] because a lookup that
/// probes flash costs 2 µs of host time, not 0.23: on the same host and
/// store, `StripedClam::lookup_batch` over keys that live on flash breaks
/// even around 256 keys per worker and is 1.6x faster split from
/// 512 up (DESIGN.md has the table). A batch cannot know beforehand where
/// its keys will resolve; one of this size that resolves entirely in the
/// buffers pays 55 to 100 µs for a spawn it did not need, one that
/// resolves in the filters breaks even.
pub(crate) const SPAWN_FLOOR_KEYS: usize = 512;

/// How many threads a batch of `ops` operations over `groups` independent
/// groups (stripes, or super tables of one stripe) should run on: one per
/// `floor` operations, never more than there are groups or cores. Decided
/// from the batch size alone; the core count is looked up only once a
/// batch is big enough to split, and only once per process.
pub(crate) fn fan_out(ops: usize, floor: usize, groups: usize) -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let wanted = (ops / floor).min(groups);
    if wanted <= 1 {
        return 1;
    }
    let cores = *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    wanted.min(cores)
}

/// Folds one insert's outcome into the ledger: its latency sample, and
/// the length of its eviction cascade if it flushed.
fn record_insert(stats: &mut ClamStats, op: &InsertOutcome) {
    if op.flushed {
        stats.record_cascade(op.evictions.max(1));
    }
    stats.inserts.record(op.latency);
}

/// The shared, short-critical-section core of a [`Clam`]: everything that
/// is *not* per-table state — the device and its completion ring, the log
/// allocator (slot grants), the flush sequence counter and the
/// [`ClamStats`] ledger. Fine-grained writers take this lock around flush
/// chains and ring drains, and once more to record their latency in the
/// ledger: once per scalar insert or delete, once per batch. Memory probes
/// never touch it. Because a flush chain runs entirely under
/// one core lock, allocator grant order equals ring admission order, which
/// is the invariant the PR-7 acknowledgment point rests on (admission
/// order = data-effect order on the device).
struct ClamCore<D: Device> {
    device: D,
    config: ClamConfig,
    /// The lifetime epoch stamped into every page this CLAM flushes; see
    /// [`CLAM_EPOCH`] and DESIGN.md "Crash consistency".
    epoch: u32,
    /// The (table-uniform) incarnation serialization layout.
    layout: IncarnationLayout,
    /// Number of super tables.
    num_tables: usize,
    allocator: LogAllocator,
    seq: u64,
    stats: ClamStats,
    /// DRAM access cost model used for in-memory latency accounting.
    mem_cost: LinearCost,
    /// Incarnation writes deferred for coalescing. On the ring-driven
    /// write path this holds at most the *current* contiguous run (a
    /// non-contiguous write admits the finished run to the ring first, so
    /// flush traffic streams); on the barrier reference path it pools
    /// every deferred write until the batch-end drain sorts and merges
    /// them.
    pending_writes: Vec<(u64, Vec<u8>)>,
    /// True while a batched insert is collecting flush writes for
    /// coalescing.
    coalesce_writes: bool,
    /// True routes flushes, evictions and drains through the blocking
    /// barrier write path ([`ClamCore::flush_table_barrier`]) instead of
    /// the shared completion ring.
    barrier_writes: bool,
    /// The shared read/write completion ring of the current top-level call
    /// (`None` between calls): lookup probes, flush writes, eviction reads
    /// and trims all admit into it, so write traffic overlaps the tail of
    /// probe traffic (and vice versa) on one device timeline.
    ring: Option<CompletionRing>,
    /// Ring makespan already charged to some caller; the next sync charges
    /// only the growth beyond this horizon.
    ring_horizon: SimDuration,
    /// Ring `(reaps, admission stalls)` already attributed to the lookup
    /// ledger; the write-ring ledger takes the deltas beyond these marks.
    ring_read_marks: (u64, u64),
    /// Whether the current ring carried write-path traffic (writes,
    /// erases, trims) / read traffic, for the mixed-ring depth ledger.
    ring_wrote: bool,
    /// See [`ring_wrote`](Self::ring_wrote).
    ring_read: bool,
}

/// A cheap and large CAM: BufferHash on DRAM plus a flash [`Device`].
///
/// Since PR 10 the store is internally split for **per-super-table write
/// concurrency**: each [`SuperTable`]'s mutable state lives behind its own
/// lock (a `TableSet`), and the shared pieces — device, completion ring,
/// log allocator, stats ledger — live in a small mutex-protected
/// `ClamCore`. The classic `&mut self` API below is unchanged and takes
/// no locks (exclusive access reaches both halves directly); the `fine_*`
/// methods ([`fine_insert`](Self::fine_insert),
/// [`fine_insert_batch`](Self::fine_insert_batch),
/// [`fine_delete`](Self::fine_delete)) run through `&self` so writers to
/// *different* tables of one stripe commit in parallel.
pub struct Clam<D: Device> {
    tables: TableSet,
    core: Mutex<ClamCore<D>>,
    /// Copy of the core's configuration, readable without locking.
    config: ClamConfig,
    /// Copy of the core's lifetime epoch, readable without locking.
    epoch: u32,
    /// Copy of the core's DRAM cost model, usable without locking.
    mem_cost: LinearCost,
    /// Serializes concurrent [`fine_insert_batch`](Self::fine_insert_batch)
    /// calls: a batch owns the coalescing window (`coalesce_writes`) for
    /// its duration.
    batch_lock: Mutex<()>,
    /// Chunk-count override for [`fine_insert_batch`](Self::fine_insert_batch):
    /// 0 means "let the batch size decide" ([`fan_out`]). Tests force a
    /// value > 1 to exercise the multi-chunk gate/rendezvous path on
    /// batches of any size and on single-core hosts (the scoped threads
    /// still run, time-sliced).
    batch_parallelism: AtomicUsize,
}

impl<D: Device> Clam<D> {
    /// Builds a CLAM over `device` with the given configuration.
    ///
    /// Fails if the configuration is inconsistent or the device is smaller
    /// than `config.flash_capacity`.
    pub fn new(device: D, config: ClamConfig) -> Result<Self> {
        config.validate()?;
        let geometry = device.geometry();
        if geometry.capacity < config.flash_capacity {
            return Err(BufferHashError::InvalidConfig(format!(
                "device capacity {} is smaller than the configured flash capacity {}",
                geometry.capacity, config.flash_capacity
            )));
        }
        let page_size = geometry.page_size as usize;
        let layout = IncarnationLayout::new(config.buffer_bytes_per_table as usize, page_size)?;
        let num_tables = config.num_super_tables();
        let k = config.incarnations_per_table();
        let bloom_bits = config.bloom_bits_per_incarnation();
        let bloom_hashes = config.bloom_hashes();
        let buffer_bytes = if config.enable_buffering {
            config.buffer_bytes_per_table as usize
        } else {
            // Ablation: a buffer that only ever holds one entry, so every
            // insert flushes straight to flash (§7.3.1 "without buffering").
            crate::types::ENTRY_SIZE * 2
        };
        let tables = (0..num_tables)
            .map(|id| {
                SuperTable::new(
                    id,
                    buffer_bytes,
                    config.max_buffer_utilization,
                    k,
                    config.filter_mode,
                    bloom_bits,
                    bloom_hashes,
                    layout,
                )
            })
            .collect();
        let allocator = LogAllocator::new(
            config.layout,
            config.flash_capacity,
            config.buffer_bytes_per_table,
            geometry.block_size as u64,
            num_tables,
        )?;
        let epoch = CLAM_EPOCH.fetch_add(1, Ordering::Relaxed) + 1;
        let mem_cost = LinearCost::new(0, 0.5);
        let core = ClamCore {
            device,
            config: config.clone(),
            epoch,
            layout,
            num_tables,
            allocator,
            seq: 0,
            stats: ClamStats::new(),
            mem_cost,
            pending_writes: Vec::new(),
            coalesce_writes: false,
            barrier_writes: false,
            ring: None,
            ring_horizon: SimDuration::ZERO,
            ring_read_marks: (0, 0),
            ring_wrote: false,
            ring_read: false,
        };
        Ok(Clam {
            tables: TableSet::new(tables),
            core: Mutex::new(core),
            config,
            epoch,
            mem_cost,
            batch_lock: Mutex::new(()),
            batch_parallelism: AtomicUsize::new(0),
        })
    }

    /// Rebuilds a CLAM from the flash contents of `device` alone — the
    /// recovery path after a crash or restart.
    ///
    /// The scan reads every incarnation slot through the completion ring
    /// (admitted without waiting via
    /// [`submit_nowait`](flashsim::Device::submit_nowait), overlapped per
    /// the device queue, reaped as reads retire), then:
    ///
    /// * rejects **torn** slots — any page failing the CRC32 / version /
    ///   identity checks of [`crate::scan_incarnation`] — which is how a
    ///   flush the power cut interrupted mid-write is discarded;
    /// * rejects **stale** slots — valid incarnations shadowed by a
    ///   higher-epoch copy of the same flush sequence, or older than the
    ///   youngest `k` their table retains;
    /// * registers the survivors oldest-to-youngest, rebuilding each
    ///   super table's Bloom filters and incarnation queue, and restores
    ///   the log allocator's owner map and write position;
    /// * scrubs torn slots on raw flash: erase blocks overlapping a torn
    ///   slot but no accepted one are erased, so resumed writes never
    ///   program over a power cut's half-written pages (FTL and seek
    ///   media ignore the hint);
    /// * resumes the flush sequence past the largest `seq` on any
    ///   CRC-valid page (pages inside torn slots included) and adopts an
    ///   epoch strictly greater than every epoch seen, so the recovered
    ///   lifetime can never re-issue an identity that still shadows
    ///   surviving on-flash data.
    ///
    /// Buffers and delete lists restart empty: buffered inserts and all
    /// deletes live only in DRAM and do not survive a crash — see
    /// DESIGN.md "Crash consistency" for the durability contract.
    pub fn recover(device: D, config: ClamConfig) -> Result<(Self, RecoveryReport)> {
        let mut clam = Clam::new(device, config)?;
        let report = {
            let tables = &clam.tables;
            clam.core.get_mut().recover_scan(tables)?
        };
        clam.epoch = clam.core.get_mut().epoch;
        Ok((clam, report))
    }

    /// The lifetime epoch this CLAM stamps into every page it flushes.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Routes every flush, eviction and coalesced drain through the
    /// blocking **barrier** write path (`flush_table_barrier`) instead of the
    /// shared completion ring. Off by default; kept (like
    /// [`lookup_batch_waves`](Self::lookup_batch_waves) on the read side)
    /// as the reference implementation for equivalence testing and the
    /// ring-vs-barrier write sweep in the `io_queue_depth` harness.
    pub fn set_barrier_writes(&mut self, barrier: bool) {
        self.core.get_mut().barrier_writes = barrier;
    }

    /// The configuration this CLAM was built with.
    pub fn config(&self) -> &ClamConfig {
        &self.config
    }

    /// Operation statistics collected so far, with the table-lock ledger
    /// folded in. Returned by value (the stats live inside the core lock).
    pub fn stats(&self) -> ClamStats {
        let mut stats = self.core.lock().stats.clone();
        self.tables.merge_lock_ledger(&mut stats);
        stats
    }

    /// Mutable access to the statistics (e.g. to compute quantiles, which
    /// require sorting the recorded samples).
    pub fn stats_mut(&mut self) -> &mut ClamStats {
        &mut self.core.get_mut().stats
    }

    /// Clears the operation statistics, the table-lock ledger and the
    /// device counters.
    pub fn reset_stats(&mut self) {
        let core = self.core.get_mut();
        core.stats.reset();
        core.device.reset_stats();
        self.tables.reset_lock_ledger();
    }

    /// Immutable access to the underlying device. Takes `&mut self`
    /// because the device lives inside the core lock; lock-free callers
    /// use [`with_device`](Self::with_device).
    pub fn device(&mut self) -> &D {
        &self.core.get_mut().device
    }

    /// Mutable access to the underlying device (e.g. to declare idle time).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.core.get_mut().device
    }

    /// Runs `f` with a shared reference to the device (locks the core for
    /// the duration of `f`).
    pub fn with_device<R>(&self, f: impl FnOnce(&D) -> R) -> R {
        f(&self.core.lock().device)
    }

    /// Consumes the CLAM and returns the device.
    pub fn into_device(self) -> D {
        self.core.into_inner().device
    }

    /// Number of super tables.
    pub fn num_super_tables(&self) -> usize {
        self.tables.len()
    }

    /// Approximate number of live entries (buffered plus on flash; lazily
    /// superseded duplicates are counted once per copy).
    pub fn approximate_entries(&self) -> usize {
        (0..self.tables.len())
            .map(|t| {
                self.tables.with(t, |table| {
                    table.buffer_len()
                        + (0..table.num_incarnations())
                            .filter_map(|age| table.incarnation_at(age))
                            .map(|m| m.entries)
                            .sum::<usize>()
                })
            })
            .sum()
    }

    /// Current DRAM footprint: what the tables have allocated, which for
    /// the filters is nothing until a table first flushes.
    pub fn memory_usage(&self) -> MemoryUsage {
        let mut usage = MemoryUsage::default();
        for t in 0..self.tables.len() {
            self.tables.with(t, |table| {
                usage.buffers += table.buffer_bytes();
                usage.filters += table.filter_bytes();
                usage.delete_lists += table.delete_list_len() * std::mem::size_of::<Key>();
            });
        }
        usage
    }

    /// Super table responsible for `key` (the paper partitions on the first
    /// `k1` bits of the key; hashing achieves the same uniform split without
    /// requiring a power-of-two table count).
    fn table_of(&self, key: Key) -> usize {
        table_of(key, self.tables.len())
    }

    /// Cost of touching `words` 64-bit words of DRAM.
    fn mem_words_cost(&self, words: usize) -> SimDuration {
        WORD_COST * words as u64 + self.mem_cost.cost(words * 8)
    }

    // ------------------------------------------------------------------
    // Public hash-table operations (exclusive `&mut self` path)
    // ------------------------------------------------------------------

    /// Inserts (or updates) `key` with `value`.
    ///
    /// Updates are lazy (§5.1.1): if an older value for the key is already
    /// on flash it is left there; lookups return the newest value because
    /// incarnations are examined youngest-first.
    pub fn insert(&mut self, key: Key, value: Value) -> Result<InsertOutcome> {
        self.core.get_mut().insert_with_dispatch(&self.tables, key, value, BASE_OP_OVERHEAD)
    }

    /// Alias for [`insert`](Self::insert); updates use the same lazy path.
    pub fn update(&mut self, key: Key, value: Value) -> Result<InsertOutcome> {
        self.insert(key, value)
    }

    /// Inserts (or updates) a batch of key/value pairs in one call.
    ///
    /// Operations are applied in input order *per super table* (ops are
    /// stably sorted by super table first), so as long as the flash log
    /// has not wrapped, the resulting state is observationally equivalent
    /// to calling [`insert`](Self::insert) for each pair in order: the
    /// same lookups succeed, the same buffers fill at the same points and
    /// the same flushes happen. Once capacity wraps, flush order *across*
    /// tables (which differs from the sequential interleaving) decides
    /// which incarnations the log overwrites, so forced-eviction victims
    /// may differ from a sequential execution — both are valid FIFO
    /// behavior. What always changes is the cost: the per-call dispatch
    /// overhead is paid once for the whole batch, each super table's
    /// filters and buffer are walked in one pass, and incarnation writes
    /// that land on contiguous log slots are coalesced into a single
    /// sequential device write.
    ///
    /// This is the sequential (coarse) batch path; the fine-grained twin
    /// is [`fine_insert_batch`](Self::fine_insert_batch), which commits
    /// per-table groups under per-table locks (on scoped threads when the
    /// batch is large enough) and is bit-identical to this path by
    /// construction (property-tested).
    ///
    /// ```
    /// use bufferhash::{Clam, ClamConfig};
    /// use flashsim::Ssd;
    ///
    /// let config = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
    /// let mut clam = Clam::new(Ssd::intel(8 << 20).unwrap(), config).unwrap();
    ///
    /// let ops: Vec<(u64, u64)> = (0..128).map(|i| (i * 7 + 1, i)).collect();
    /// let batch = clam.insert_batch(&ops).unwrap();
    /// assert_eq!(batch.ops, 128);
    /// // Amortized per-op cost is well below a per-op insert's overhead.
    /// assert!(batch.mean_latency() < bufferhash::BASE_OP_OVERHEAD);
    /// assert_eq!(clam.lookup(8).unwrap().value, Some(1));
    /// ```
    pub fn insert_batch(&mut self, ops: &[(Key, Value)]) -> Result<BatchInsertOutcome> {
        let mut order: Vec<usize> = (0..ops.len()).collect();
        // Stable sort: ops for one super table keep their input order.
        order.sort_by_key(|&i| self.table_of(ops[i].0));
        self.core.get_mut().insert_batch_ordered(&self.tables, ops, &order)
    }

    /// Looks up a batch of keys in one call through the **streaming ring
    /// pipeline**, returning one [`LookupOutcome`] per key (input order)
    /// inside a [`BatchLookupOutcome`].
    ///
    /// Keys are stably sorted by super table so each table's buffer and
    /// filter bank are probed in one pass, and the per-call dispatch
    /// overhead is amortized across the batch. Every key that misses the
    /// in-memory state becomes a probe state machine whose page reads are
    /// driven through the device's completion ring
    /// ([`Device::submit_nowait`](flashsim::Device::submit_nowait) /
    /// [`Device::reap`](flashsim::Device::reap)): first reads are
    /// admitted through a window of a few requests per queue lane, each
    /// key re-arms its next read the moment its previous one reaps, and a
    /// key that resolves hands its place to the next waiting one, so
    /// independent keys' probe rounds interleave, the device queue stays
    /// full, and the ring never holds more page buffers than the window.
    /// The batch is charged
    /// the ring **makespan** — on variable-latency media (the file
    /// backend) this undercuts the per-round barrier of
    /// [`lookup_batch_waves`](Self::lookup_batch_waves), which pays every
    /// round's straggler before starting the next.
    ///
    /// Under non-reinserting eviction policies (FIFO, update-based,
    /// priority — the default), lookups mutate nothing, so results
    /// (values, sources, flash read counts, hit/miss stats) are identical
    /// to per-op [`lookup`](Self::lookup) calls in the same order; only
    /// the charged latency differs. This identity is property-tested on
    /// all five device backends. The caveat is LRU eviction:
    /// re-insertions of flash-hit keys are applied *after* the batch
    /// resolves (in the order the keys resolved out of the wave loop), as
    /// the paper's asynchronous re-insertion would, so intra-batch
    /// outcomes can diverge from the
    /// per-op interleaving — a key repeated within one LRU batch probes
    /// flash again rather than hitting the just-re-inserted buffer copy,
    /// and a re-insertion flush that a sequential execution would have
    /// run *mid-batch* (possibly evicting an incarnation before a later
    /// key probes it) runs after the batch instead, so a later key can
    /// even observe a value the sequential interleaving would already
    /// have evicted. Both orders are valid under the paper's
    /// asynchronous-re-insertion semantics.
    ///
    /// ```
    /// use bufferhash::{Clam, ClamConfig};
    /// use flashsim::Ssd;
    ///
    /// let config = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
    /// let mut clam = Clam::new(Ssd::intel(8 << 20).unwrap(), config).unwrap();
    /// clam.insert_batch(&[(1, 10), (2, 20), (3, 30)]).unwrap();
    ///
    /// let found = clam.lookup_batch(&[2, 99, 1]).unwrap();
    /// assert_eq!(found[0].value, Some(20));
    /// assert_eq!(found[1].value, None);
    /// assert_eq!(found[2].value, Some(10));
    /// // Buffer hits resolve without flash probes: no waves were needed.
    /// assert_eq!(found.waves, 0);
    /// assert_eq!(found.hits(), 2);
    /// ```
    pub fn lookup_batch(&mut self, keys: &[Key]) -> Result<BatchLookupOutcome> {
        let core = self.core.get_mut();
        core.stats.batched_lookups += keys.len() as u64;
        core.lookup_batch_ring(&self.tables, keys, batch_dispatch(keys.len()))
    }

    /// Batched-lookup entry point for callers that amortize dispatch over a
    /// *larger* batch than `keys` — the `SharedClam` fast/locked split runs
    /// memory-resolved keys outside the lock and sends only the flash-bound
    /// remainder here, charging every key the full batch's amortized
    /// dispatch so the accounting matches the all-locked reference path.
    pub(crate) fn lookup_batch_amortized(
        &mut self,
        keys: &[Key],
        dispatch: SimDuration,
    ) -> Result<BatchLookupOutcome> {
        let core = self.core.get_mut();
        core.stats.batched_lookups += keys.len() as u64;
        core.lookup_batch_ring(&self.tables, keys, dispatch)
    }

    /// The **barrier wave** reference pipeline: each round collects the
    /// next pending page read of every unresolved key into one
    /// [`Device::submit`](flashsim::Device::submit) wave, charged at the
    /// wave makespan — the PR-4 read path, kept (like
    /// `StripedClam::insert_batch_serial`) for comparison, debugging and
    /// the ring-vs-barrier sweep in the `io_queue_depth` harness.
    ///
    /// Outcomes (values, sources, flash-read counts, hit/miss stats) are
    /// identical to [`lookup_batch`](Self::lookup_batch) — this is
    /// property-tested on all five backends. Only the charged latency
    /// differs: every round waits for the whole wave's straggler before
    /// the next round starts, so `probe_latency` is the *sum of per-wave
    /// maxima* instead of the ring makespan.
    pub fn lookup_batch_waves(&mut self, keys: &[Key]) -> Result<BatchLookupOutcome> {
        let core = self.core.get_mut();
        core.stats.batched_lookups += keys.len() as u64;
        core.lookup_batch_waves_with_dispatch(&self.tables, keys, batch_dispatch(keys.len()))
    }

    /// Looks up `key`: a batch of one over the streaming ring pipeline, so
    /// the per-op and batched paths share a single implementation (a chain
    /// of one-request admissions, whose makespan is exactly the summed
    /// read latency).
    pub fn lookup(&mut self, key: Key) -> Result<LookupOutcome> {
        let mut batch = self.core.get_mut().lookup_batch_ring(
            &self.tables,
            std::slice::from_ref(&key),
            BASE_OP_OVERHEAD,
        )?;
        Ok(batch.outcomes.pop().expect("one outcome per key"))
    }

    /// Probes `key` against DRAM state only — buffer, delete list and Bloom
    /// filters — through `&self`, without mutating anything. Blocks on the
    /// table's state lock if a writer holds it; the lock-free variant is
    /// [`try_probe_memory`](Self::try_probe_memory).
    ///
    /// Returns [`MemoryProbe::Resolved`] when the verdict is decidable from
    /// memory alone (buffer hit, delete shadow, or no live candidate
    /// incarnation): the outcome carries the same value, source,
    /// `flash_reads == 0` and per-op latency charge (`dispatch` + DRAM probe
    /// words) that [`lookup`](Self::lookup) would report. Returns
    /// [`MemoryProbe::NeedsFlash`] when a live incarnation may hold the key,
    /// in which case the caller must fall back to the exclusive pipeline.
    /// The caller is responsible for recording statistics for resolved
    /// probes (this method cannot: it holds no `&mut`); keys that would
    /// trigger LRU re-insertion never resolve here because re-insertion
    /// only follows a flash hit.
    pub fn probe_memory(&self, key: Key, dispatch: SimDuration) -> MemoryProbe {
        let t = self.table_of(key);
        self.tables.with(t, |table| self.probe_memory_in(table, key, dispatch))
    }

    /// Seqlock-validated variant of [`probe_memory`](Self::probe_memory):
    /// returns `None` instead of a verdict when a fine-grained writer's
    /// logical op on the key's table is in progress (the table epoch is
    /// odd) or completed while the probe ran (the epoch moved) — the
    /// caller must retry or fall back to a locked path. One state-lock
    /// critical section; never blocks on a whole-op lock.
    pub fn try_probe_memory(&self, key: Key, dispatch: SimDuration) -> Option<MemoryProbe> {
        let t = self.table_of(key);
        let before = self.tables.epoch_of(t);
        if before & 1 == 1 {
            return None;
        }
        let probe = self.tables.with(t, |table| self.probe_memory_in(table, key, dispatch));
        if self.tables.epoch_of(t) != before {
            return None;
        }
        Some(probe)
    }

    /// Returns `true` while a fine-grained writer's logical op on `key`'s
    /// table is in progress (the table's seqlock epoch is odd). The
    /// `clamd` engine's idle-shard bypass consults this so a bypassed
    /// scalar LOOKUP never races a table-local writer's half-applied
    /// mutation.
    pub fn table_writer_active(&self, key: Key) -> bool {
        self.tables.epoch_of(self.table_of(key)) & 1 == 1
    }

    /// The memory-probe verdict for `key` against one table's state;
    /// shared by [`probe_memory`](Self::probe_memory) and
    /// [`try_probe_memory`](Self::try_probe_memory).
    fn probe_memory_in(&self, table: &SuperTable, key: Key, dispatch: SimDuration) -> MemoryProbe {
        let filter_words = table.filter_words_per_query();
        let latency = dispatch + self.mem_words_cost(BUFFER_PROBE_WORDS + filter_words);
        if let Some(found) = table.memory_lookup(key) {
            let source = if found.is_some() { LookupSource::Buffer } else { LookupSource::Deleted };
            return MemoryProbe::Resolved(LookupOutcome {
                value: found,
                latency,
                flash_reads: 0,
                source,
            });
        }
        let live_candidate = table
            .candidate_incarnations(key)
            .into_iter()
            .any(|age| table.incarnation_at(age).is_some());
        if live_candidate {
            MemoryProbe::NeedsFlash
        } else {
            MemoryProbe::Resolved(LookupOutcome {
                value: None,
                latency,
                flash_reads: 0,
                source: LookupSource::Miss,
            })
        }
    }

    /// Returns `true` if `key` currently maps to a value.
    pub fn contains(&mut self, key: Key) -> Result<bool> {
        Ok(self.lookup(key)?.value.is_some())
    }

    /// Deletes `key` (lazily: flash copies are shadowed by the delete list
    /// and reclaimed at eviction time).
    pub fn delete(&mut self, key: Key) -> Result<SimDuration> {
        let t = self.table_of(key);
        let latency = BASE_OP_OVERHEAD + self.mem_words_cost(BUFFER_PROBE_WORDS + 2);
        self.tables.with(t, |table| table.delete(key));
        self.core.get_mut().stats.deletes.record(latency);
        Ok(latency)
    }

    /// Flushes every non-empty buffer to flash (e.g. before a bulk merge or
    /// shutdown). Returns the total simulated latency.
    ///
    /// The per-table incarnation writes coalesce into contiguous runs that
    /// stream into the device's completion ring as they form (contiguous
    /// log slots merge into sequential writes, independent runs overlap on
    /// the ring's lanes), so a whole-index flush costs the makespan of the
    /// ring schedule rather than the sum of blocking per-table writes. On
    /// the barrier reference path the runs pool and drain as one blocking
    /// submission instead.
    pub fn flush_all(&mut self) -> Result<SimDuration> {
        self.core.get_mut().flush_all(&self.tables)
    }

    /// Declares `idle` simulated time during which the device may perform
    /// background work (SSD garbage collection).
    pub fn idle(&mut self, idle: SimDuration) {
        self.core.get_mut().device.on_idle(idle);
    }

    // ------------------------------------------------------------------
    // Fine-grained write path (`&self`: per-table op locks + core lock)
    // ------------------------------------------------------------------

    /// Per-op insert through the fine-grained path: takes only `key`'s
    /// table op lock plus the short core lock (for a flush and its ack
    /// drain, and to record the op in the ledger), so concurrent inserts to
    /// *different* tables of this stripe commit in parallel. Observationally identical to
    /// [`insert`](Self::insert) when ops are serialized (property-tested).
    pub fn fine_insert(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        let t = self.table_of(key);
        let _guard = self.tables.lock_for_write(t);
        let outcome = self.fine_insert_locked(t, key, value, BASE_OP_OVERHEAD, None)?;
        record_insert(&mut self.core.lock().stats, &outcome);
        Ok(outcome)
    }

    /// Per-op delete through the fine-grained path (op lock + a brief core
    /// lock for the ledger only — deletes never touch flash).
    pub fn fine_delete(&self, key: Key) -> Result<SimDuration> {
        let t = self.table_of(key);
        let _guard = self.tables.lock_for_write(t);
        let latency = BASE_OP_OVERHEAD + self.mem_words_cost(BUFFER_PROBE_WORDS + 2);
        self.tables.with(t, |table| table.delete(key));
        self.core.lock().stats.deletes.record(latency);
        Ok(latency)
    }

    /// Overrides how many chunks [`fine_insert_batch`](Self::fine_insert_batch)
    /// splits a batch into. `None` (the default) lets the batch size decide:
    /// one chunk on the caller's thread unless every further chunk would
    /// carry enough ops to pay for its thread. `Some(n)` forces `n` chunks
    /// (as far as the batch has tables to fill them) whatever the size;
    /// tests pass `Some(n > 1)` to exercise the multi-chunk gate/rendezvous
    /// path deterministically, batch size and core count notwithstanding.
    pub fn set_batch_parallelism(&self, chunks: Option<usize>) {
        self.batch_parallelism.store(chunks.unwrap_or(0), Ordering::Relaxed);
    }

    /// Fine-grained twin of [`insert_batch`](Self::insert_batch): groups
    /// the batch by super table and commits each table's ops under that
    /// table's op lock, so other writers to *other* tables of the stripe
    /// proceed meanwhile.
    ///
    /// A batch runs as **one chunk on the caller's thread** unless it is
    /// large enough that every further chunk would carry enough ops to pay
    /// for its thread's spawn (`fan_out`: one chunk per 2048 ops, never
    /// more than tables or cores); then the tables are split into
    /// contiguous chunks balanced by op count, one scoped thread each but
    /// the first, which stays on the caller's. Either way each chunk holds
    /// one table op lock at a time.
    ///
    /// **Bit-identical to the coarse path by construction.** Ops of one
    /// table keep input order under the table's op lock and tables are
    /// taken in ascending order, which on one chunk *is* the coarse order.
    /// Across chunks a `FlushGate` orders the flush chains — chunk *j*'s
    /// first flush waits for chunks *< j* to complete, so allocator grants,
    /// flush sequence numbers, forced evictions and the device timeline
    /// replay exactly the sequential (table-ascending) order. Per-op
    /// outcomes are folded into the ledger at batch end (recorder
    /// statistics are order-insensitive multisets). Multiple chunks
    /// rendezvous on a barrier after taking their first table op lock,
    /// which makes the `table_lock_high_water` ledger deterministic; a
    /// single chunk builds neither gate nor barrier and its high-water
    /// mark is 1.
    pub fn fine_insert_batch(&self, ops: &[(Key, Value)]) -> Result<BatchInsertOutcome>
    where
        D: Send,
    {
        let mut outcome = BatchInsertOutcome { ops: ops.len(), ..Default::default() };
        if ops.is_empty() {
            return Ok(outcome);
        }
        let _batch = self.batch_lock.lock();
        // One run per table, in ascending table order, input order kept
        // within a run: exactly the coarse path's stable sort.
        let (grouped, starts) = group_stable(ops, self.tables.len(), |op| self.table_of(op.0));
        let dispatch = batch_dispatch(ops.len());
        let coalesced_before = {
            let mut core = self.core.lock();
            core.stats.batched_inserts += ops.len() as u64;
            core.coalesce_writes = true;
            core.stats.coalesced_flush_writes
        };
        let chunks = match self.batch_parallelism.load(Ordering::Relaxed) {
            0 => fan_out(ops.len(), SPAWN_FLOOR_OPS, self.tables.len()),
            forced => forced,
        };
        let results: Vec<ChunkResult> = if chunks <= 1 {
            vec![self.run_batch_chunk(0..self.tables.len(), &grouped, &starts, dispatch, None)]
        } else {
            let chunks = split_balanced(&starts, chunks);
            let gate = FlushGate::new(chunks.len());
            let rendezvous = std::sync::Barrier::new(chunks.len());
            let run = |(chunk, tables): (usize, &std::ops::Range<usize>)| {
                let sync = ChunkSync { gate: &gate, chunk, rendezvous: &rendezvous };
                self.run_batch_chunk(tables.clone(), &grouped, &starts, dispatch, Some(sync))
            };
            std::thread::scope(|scope| {
                let run = &run;
                let mut numbered = chunks.iter().enumerate();
                let first = numbered.next().expect("at least one chunk");
                let handles: Vec<_> =
                    numbered.map(|chunk| scope.spawn(move || run(chunk))).collect();
                let mut results = vec![run(first)];
                results
                    .extend(handles.into_iter().map(|h| h.join().expect("batch chunk panicked")));
                results
            })
        };
        // One core lock to record every op (in chunk order), close the
        // coalescing window and drain the write ring, mirroring the coarse
        // batch-end drain.
        let mut failure = None;
        let mut core = self.core.lock();
        for (done, error) in results {
            for op in &done {
                record_insert(&mut core.stats, op);
                outcome.latency += op.latency;
                outcome.flushed_ops += usize::from(op.flushed);
                outcome.evictions += op.evictions;
            }
            failure = failure.or(error);
        }
        core.coalesce_writes = false;
        let drained = core.drain_write_ring()?;
        core.stats.deferred_flush_time += drained;
        if let Some(e) = failure {
            return Err(e);
        }
        outcome.latency += drained;
        outcome.coalesced_writes = (core.stats.coalesced_flush_writes - coalesced_before) as usize;
        Ok(outcome)
    }

    /// One chunk of a [`fine_insert_batch`](Self::fine_insert_batch): runs
    /// the non-empty tables of `tables` in ascending order, holding each
    /// table's op lock across that table's run of `grouped` (as `starts`
    /// bounds it). With `sync`, the first table's lock is taken *before*
    /// the rendezvous barrier so every chunk demonstrably holds a lock at
    /// the same instant (deterministic lock high-water).
    fn run_batch_chunk(
        &self,
        tables: std::ops::Range<usize>,
        grouped: &[(Key, Value)],
        starts: &[usize],
        dispatch: SimDuration,
        sync: Option<ChunkSync<'_>>,
    ) -> ChunkResult {
        let _completion = sync.map(|s| GateCompletion { gate: s.gate, chunk: s.chunk });
        let gate = sync.map(|s| (s.gate, s.chunk));
        let mut rendezvous = sync.map(|s| s.rendezvous);
        let mut done = Vec::with_capacity(starts[tables.end] - starts[tables.start]);
        for t in tables {
            let ops = &grouped[starts[t]..starts[t + 1]];
            if ops.is_empty() {
                continue;
            }
            let _guard = self.tables.lock_for_write(t);
            if let Some(barrier) = rendezvous.take() {
                barrier.wait();
            }
            for &(key, value) in ops {
                match self.fine_insert_locked(t, key, value, dispatch, gate) {
                    Ok(op) => done.push(op),
                    Err(e) => return (done, Some(e)),
                }
            }
        }
        (done, None)
    }

    /// Fine-grained insert body; the caller holds table `t`'s op lock.
    /// Replays the coarse [`insert_with_dispatch`](ClamCore::insert_with_dispatch)
    /// sequence exactly: try the buffer, and only on `Full` park on the
    /// flush gate (batch mode), take the core lock and run the
    /// flush-then-retry loop under it — so allocator grant order equals
    /// ring admission order and the per-op ack point is untouched. The
    /// caller records the returned outcome in the ledger
    /// ([`record_insert`]); flush-side counters are recorded by the core
    /// itself.
    fn fine_insert_locked(
        &self,
        t: usize,
        key: Key,
        value: Value,
        dispatch: SimDuration,
        gate: Option<(&FlushGate, usize)>,
    ) -> Result<InsertOutcome> {
        let mut latency = dispatch + self.mem_words_cost(BUFFER_PROBE_WORDS + 2);
        let mut flushed = false;
        let mut evictions = 0usize;
        let mut attempts = 0usize;
        let mut stored = matches!(
            self.tables.with(t, |table| table.buffer_insert(key, value)),
            BufferInsert::Stored(_)
        );
        if !stored {
            // Never wait on the gate while holding the core lock: the gate
            // orders this op's flush chain behind earlier chunks' chains.
            if let Some((gate, chunk)) = gate {
                gate.wait_turn(chunk);
            }
            let mut core = self.core.lock();
            while !stored {
                match core.flush_table(&self.tables, t, attempts) {
                    Ok(flush) => {
                        latency += flush.latency;
                        evictions += flush.evictions;
                        flushed = true;
                        attempts += 1;
                    }
                    Err(e) => {
                        // Close the op's ring even on failure so in-flight
                        // writes are reaped and the device stays usable.
                        if !core.coalesce_writes {
                            core.drain_write_ring().ok();
                        }
                        return Err(e);
                    }
                }
                stored = matches!(
                    self.tables.with(t, |table| table.buffer_insert(key, value)),
                    BufferInsert::Stored(_)
                );
            }
            if !core.coalesce_writes {
                latency += core.drain_write_ring()?;
                // The acknowledgment point (DESIGN.md "Crash consistency"):
                // a per-op insert is acked only once nothing of its flush
                // chain remains deferred or in flight on the ring.
                debug_assert!(
                    core.pending_writes.is_empty() && core.ring.is_none(),
                    "insert acked with flush writes still in flight"
                );
            }
        }
        Ok(InsertOutcome { latency, flushed, evictions })
    }
}

/// Super table responsible for `key` among `tables`.
fn table_of(key: Key, tables: usize) -> usize {
    (hash_with_seed(key, 0x7a_b1e5) % tables as u64) as usize
}

/// Splits the tables of a grouped batch (`starts` as [`group_stable`]
/// returns it) into at most `parallelism` contiguous ranges, balanced by
/// op count: a range closes once it reaches its fair share of the
/// remaining ops, and every range holds at least one non-empty table.
fn split_balanced(starts: &[usize], parallelism: usize) -> Vec<std::ops::Range<usize>> {
    let tables = starts.len() - 1;
    let ops_of = |t: usize| starts[t + 1] - starts[t];
    let occupied = (0..tables).filter(|&t| ops_of(t) > 0).count();
    let chunk_count = parallelism.min(occupied).max(1);
    let mut chunks = Vec::with_capacity(chunk_count);
    let (mut begin, mut current_ops, mut occupied_left) = (0, 0, occupied);
    for t in 0..tables {
        if ops_of(t) == 0 {
            continue;
        }
        let remaining_chunks = chunk_count - chunks.len();
        let target = (starts[tables] - starts[begin]).div_ceil(remaining_chunks);
        current_ops += ops_of(t);
        occupied_left -= 1;
        // Close the chunk at its fair share, but never strand later chunks
        // without a non-empty table each.
        if remaining_chunks > 1 && (current_ops >= target || occupied_left < remaining_chunks) {
            chunks.push(begin..t + 1);
            (begin, current_ops) = (t + 1, 0);
        }
    }
    if starts[tables] > starts[begin] {
        chunks.push(begin..tables);
    }
    chunks
}

impl<D: Device> ClamCore<D> {
    /// Super table responsible for `key`.
    fn table_of(&self, key: Key) -> usize {
        table_of(key, self.num_tables)
    }

    /// Cost of touching `words` 64-bit words of DRAM.
    fn mem_words_cost(&self, words: usize) -> SimDuration {
        WORD_COST * words as u64 + self.mem_cost.cost(words * 8)
    }

    /// The recovery scan behind [`Clam::recover`]; see its documentation.
    fn recover_scan(&mut self, tables: &TableSet) -> Result<RecoveryReport> {
        let layout = self.layout;
        let slot_size = self.allocator.slot_size();
        let num_slots = self.allocator.num_slots();

        // Ring-driven scan: every slot read admitted without waiting and
        // reaped as it retires, so the scan costs the overlapped ring
        // makespan, not the summed per-read time.
        let mut ring = CompletionRing::for_queue(self.device.queue());
        let requests: Vec<RingRequest> = (0..num_slots)
            .map(|slot| RingRequest::new(IoRequest::read(slot * slot_size, slot_size as usize)))
            .collect();
        let tickets = self.device.submit_nowait(requests, &mut ring)?;
        let mut completions = Vec::with_capacity(tickets.len());
        while ring.in_flight() > 0 {
            completions.extend(self.device.reap(&mut ring, 1)?);
        }
        let scan_makespan = ring.makespan();
        let slot_of: HashMap<u64, usize> =
            tickets.iter().enumerate().map(|(i, t)| (t.id(), i)).collect();
        let mut images: Vec<Option<Vec<u8>>> = vec![None; num_slots as usize];
        for completion in completions {
            if let Some(&slot) = slot_of.get(&completion.ticket.id()) {
                images[slot] = Some(completion.result?);
            }
        }

        let mut torn = 0usize;
        let mut torn_slots: Vec<u64> = Vec::new();
        let mut empty = 0usize;
        let mut valid: Vec<(u64, IncarnationIdentity, Vec<Entry>)> = Vec::new();
        let mut max_seq_seen = 0u64;
        let mut max_epoch_seen = 0u32;
        for (slot, image) in images.iter().enumerate() {
            let bytes = image.as_ref().ok_or_else(|| {
                BufferHashError::InvalidConfig("recovery scan lost a slot read".into())
            })?;
            // Harvest identity watermarks from every CRC-valid page, torn
            // slots included: a re-issued (epoch, seq) must never shadow
            // data that survived elsewhere.
            for page in bytes.chunks_exact(layout.page_size) {
                if let Ok(header) = parse_page_header_checked(page) {
                    max_seq_seen = max_seq_seen.max(header.identity.seq);
                    max_epoch_seen = max_epoch_seen.max(header.identity.epoch);
                }
            }
            match scan_incarnation(bytes, &layout) {
                SlotScan::Empty => empty += 1,
                SlotScan::Torn { .. } => {
                    torn += 1;
                    torn_slots.push(slot as u64);
                }
                SlotScan::Valid { identity, entries } => {
                    if (identity.table as usize) < self.num_tables {
                        valid.push((slot as u64, identity, entries));
                    } else {
                        // An identity naming a table this configuration
                        // does not have is foreign data, not recoverable.
                        torn += 1;
                        torn_slots.push(slot as u64);
                    }
                }
            }
        }

        // Youngest-first by (epoch, seq): a higher-epoch copy of the same
        // flush sequence shadows the lower one (a later lifetime re-wrote
        // the slot), and each table keeps only its youngest `k`.
        valid.sort_by_key(|v| std::cmp::Reverse((v.1.epoch, v.1.seq)));
        let mut stale = 0usize;
        let mut kept: Vec<Vec<(u64, IncarnationIdentity, Vec<Entry>)>> =
            (0..self.num_tables).map(|_| Vec::new()).collect();
        let mut seen_seqs: Vec<HashSet<u64>> =
            (0..self.num_tables).map(|_| HashSet::new()).collect();
        for (slot, identity, entries) in valid {
            let t = identity.table as usize;
            if !seen_seqs[t].insert(identity.seq) {
                stale += 1;
                continue;
            }
            if kept[t].len() >= tables.with(t, |table| table.max_incarnations()) {
                stale += 1;
                continue;
            }
            kept[t].push((slot, identity, entries));
        }

        let mut accepted = 0usize;
        let mut entries_recovered = 0usize;
        let mut owners: Vec<(u64, SlotOwner)> = Vec::new();
        for (t, list) in kept.iter().enumerate() {
            // Register oldest first so the filter bank's sliding window
            // and the incarnation queue come out youngest-first, exactly
            // as steady-state flushes build them.
            for (slot, identity, entries) in list.iter().rev() {
                let keys: Vec<Key> = entries.iter().map(|e| e.key).collect();
                tables.with(t, |table| {
                    table.register_incarnation(
                        IncarnationMeta {
                            flash_offset: slot * slot_size,
                            entries: entries.len(),
                            seq: identity.seq,
                        },
                        &keys,
                    )
                });
                owners.push((*slot, SlotOwner { table: t, seq: identity.seq }));
                accepted += 1;
                entries_recovered += entries.len();
            }
        }
        self.allocator.restore(&owners);

        // Scrub torn slots on raw flash: a power-cut write leaves pages
        // programmed, and a mid-block slot in a partitioned layout is only
        // erased when the write pointer next crosses its block boundary —
        // so an un-scrubbed torn slot would fail its next program with
        // dirty pages. Erase every fully-managed block that overlaps a
        // torn slot and no accepted one (FTL and seek media reject or
        // ignore the hint; dirty pages are their problem, not the log's).
        if !torn_slots.is_empty() {
            let block_size = self.device.geometry().block_size as u64;
            let managed_end = num_slots * slot_size;
            let blocks_of = |slot: u64| {
                (slot * slot_size) / block_size..=(slot * slot_size + slot_size - 1) / block_size
            };
            let live: HashSet<u64> = owners.iter().flat_map(|(s, _)| blocks_of(*s)).collect();
            let mut scrubbed: HashSet<u64> = HashSet::new();
            for &slot in &torn_slots {
                for block in blocks_of(slot) {
                    let fully_managed = (block + 1) * block_size <= managed_end;
                    if fully_managed && !live.contains(&block) && scrubbed.insert(block) {
                        let _ = self.device.erase_block(block);
                    }
                }
            }
            // A torn slot whose block shares accepted data cannot be
            // scrubbed; on raw flash its half-programmed pages also cannot
            // be programmed again. Step the write pointer past such slots
            // so resumed flushes land on clean pages — the circular log
            // reclaims them when it next erases their block. FTL and seek
            // media overwrite in place, so their pointers stay put (and
            // resume exactly where a never-crashed lifetime would).
            if self.device.profile().kind == MediumKind::FlashChip {
                let dirty: Vec<u64> = torn_slots
                    .iter()
                    .copied()
                    .filter(|&slot| blocks_of(slot).any(|b| !scrubbed.contains(&b)))
                    .collect();
                self.allocator.skip_dirty(&dirty);
            }
        }

        self.seq = self.seq.max(max_seq_seen);
        self.epoch = self.epoch.max(max_epoch_seen.saturating_add(1));
        CLAM_EPOCH.fetch_max(self.epoch, Ordering::Relaxed);
        self.stats.recoveries += 1;
        self.stats.recovered_incarnations += accepted as u64;
        self.stats.recovery_torn_slots += torn as u64;

        Ok(RecoveryReport {
            slots_scanned: num_slots,
            bytes_scanned: num_slots * slot_size,
            accepted,
            torn,
            stale,
            empty,
            entries_recovered,
            epoch: self.epoch,
            seq_resumed: self.seq,
            scan_makespan,
        })
    }

    /// Insert body shared by the per-op and batched paths; `dispatch` is the
    /// fixed overhead charged to this op (full for per-op calls, amortized
    /// for batched ones).
    fn insert_with_dispatch(
        &mut self,
        tables: &TableSet,
        key: Key,
        value: Value,
        dispatch: SimDuration,
    ) -> Result<InsertOutcome> {
        let t = self.table_of(key);
        let mut latency = dispatch + self.mem_words_cost(BUFFER_PROBE_WORDS + 2);
        let mut flushed = false;
        let mut evictions = 0usize;
        // `attempts` doubles as the cascade depth: when partial-discard
        // eviction keeps retaining whole incarnations the policy degrades to
        // full discard after `k` rounds (§7.4), guaranteeing termination.
        let mut attempts = 0usize;
        loop {
            match tables.with(t, |table| table.buffer_insert(key, value)) {
                BufferInsert::Stored(_) => break,
                BufferInsert::Full => match self.flush_table(tables, t, attempts) {
                    Ok(flush) => {
                        latency += flush.latency;
                        evictions += flush.evictions;
                        flushed = true;
                        attempts += 1;
                    }
                    Err(e) => {
                        // Close the op's ring even on failure so in-flight
                        // writes are reaped and the device stays usable.
                        if !self.coalesce_writes {
                            self.drain_write_ring().ok();
                        }
                        return Err(e);
                    }
                },
            }
        }
        // A per-op call owns its ring: the flush chain's device time (its
        // makespan, overlap-accounted) is charged to this insert. Batched
        // calls leave the ring open; the batch-end drain charges it.
        if !self.coalesce_writes {
            latency += self.drain_write_ring()?;
            // The acknowledgment point (DESIGN.md "Crash consistency"): a
            // per-op insert is acked only once nothing of its flush chain
            // remains deferred or in flight on the ring.
            debug_assert!(
                self.pending_writes.is_empty() && self.ring.is_none(),
                "insert acked with flush writes still in flight"
            );
        }
        let outcome = InsertOutcome { latency, flushed, evictions };
        record_insert(&mut self.stats, &outcome);
        Ok(outcome)
    }

    /// The sequential batch-insert body behind [`Clam::insert_batch`];
    /// `order` is the stable table-sorted index order.
    fn insert_batch_ordered(
        &mut self,
        tables: &TableSet,
        ops: &[(Key, Value)],
        order: &[usize],
    ) -> Result<BatchInsertOutcome> {
        let mut outcome = BatchInsertOutcome { ops: ops.len(), ..Default::default() };
        if ops.is_empty() {
            return Ok(outcome);
        }
        let dispatch = batch_dispatch(ops.len());
        let coalesced_before = self.stats.coalesced_flush_writes;
        self.stats.batched_inserts += ops.len() as u64;
        self.coalesce_writes = true;
        let mut failure = None;
        for &i in order {
            let (key, value) = ops[i];
            match self.insert_with_dispatch(tables, key, value, dispatch) {
                Ok(op) => {
                    outcome.latency += op.latency;
                    if op.flushed {
                        outcome.flushed_ops += 1;
                    }
                    outcome.evictions += op.evictions;
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        // Close the write ring even on failure so the device stays
        // consistent with the in-memory incarnation metadata. Finished
        // coalesced runs were already *admitted* as they formed (so flush
        // traffic streams out mid-batch and inserts keep flowing); this
        // end-of-batch drain admits the final run and reaps the ring, and
        // only its makespan is "deferred" time (charged to the batch, not
        // to any triggering insert). Eviction reads mid-batch sync the
        // ring and are charged to their op like a sequential flush.
        self.coalesce_writes = false;
        let drained = self.drain_write_ring()?;
        self.stats.deferred_flush_time += drained;
        if let Some(e) = failure {
            return Err(e);
        }
        outcome.latency += drained;
        outcome.coalesced_writes = (self.stats.coalesced_flush_writes - coalesced_before) as usize;
        Ok(outcome)
    }

    /// Buffer and delete-list checks plus probe planning, shared by the
    /// ring and wave pipelines: resolves every key it can from memory
    /// (recording its stats) and returns a probe state machine for each
    /// key that must touch flash.
    fn plan_lookups(
        &mut self,
        tables: &TableSet,
        keys: &[Key],
        dispatch: SimDuration,
    ) -> LookupPlan {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        // Stable sort: keys for one super table keep their input order.
        order.sort_by_key(|&i| self.table_of(keys[i]));
        let mut plan = LookupPlan {
            out: vec![None; keys.len()],
            pending: Vec::new(),
            reinserts: Vec::new(),
            host_time: SimDuration::ZERO,
        };
        for &slot in &order {
            let key = keys[slot];
            let t = self.table_of(key);
            let (filter_words, found_in_memory, candidates) = tables.with(t, |table| {
                let found = table.memory_lookup(key);
                // Candidate incarnations, youngest first, guided by the
                // Bloom filters (only needed when memory has no verdict).
                let candidates = if found.is_none() {
                    table.candidate_incarnations(key)
                } else {
                    AgeSet::default()
                };
                (table.filter_words_per_query(), found, candidates)
            });
            let latency = dispatch + self.mem_words_cost(BUFFER_PROBE_WORDS + filter_words);
            plan.host_time += latency;
            if let Some(found) = found_in_memory {
                let source =
                    if found.is_some() { LookupSource::Buffer } else { LookupSource::Deleted };
                if found.is_some() {
                    self.stats.lookup_hits += 1;
                } else {
                    self.stats.lookup_misses += 1;
                }
                self.stats.lookups.record(latency);
                self.stats.record_lookup_reads(0);
                plan.out[slot] =
                    Some(LookupOutcome { value: found, latency, flash_reads: 0, source });
                continue;
            }
            // Keys with no live candidate are misses without I/O.
            let mut state = ProbeState {
                slot,
                key,
                table: t,
                latency,
                flash_reads: 0,
                candidates,
                meta: None,
                page_idx: 0,
                hops_left: 0,
            };
            if self.advance_probe(tables, &mut state) {
                plan.pending.push(state);
            } else {
                plan.out[slot] = Some(self.resolve_probe(state, None, &mut plan.reinserts));
            }
        }
        plan
    }

    /// Flash offset of the page a probe state reads next.
    fn probe_offset(&self, state: &ProbeState) -> u64 {
        let meta = state.meta.expect("pending probes hold a candidate");
        self.layout.page_offset(meta.flash_offset, state.page_idx)
    }

    /// Steps one probe state machine on the page it just read (at
    /// `offset`). Returns the state and its next read offset while the key
    /// is unresolved; resolves it into `out` (recording stats and LRU
    /// re-insertions) otherwise.
    fn step_probe(
        &mut self,
        tables: &TableSet,
        mut state: ProbeState,
        page: &[u8],
        offset: u64,
        out: &mut [Option<LookupOutcome>],
        reinserts: &mut Vec<(usize, Key, Value)>,
    ) -> Result<Option<(ProbeState, u64)>> {
        state.flash_reads += 1;
        let slot = state.slot;
        let layout = self.layout;
        match lookup_in_page(page, state.key).map_err(|e| annotate_offset(e, offset))? {
            PageLookup::Found(v) => {
                out[slot] = Some(self.resolve_probe(state, Some(v), reinserts));
                Ok(None)
            }
            PageLookup::Absent => {
                self.stats.spurious_flash_reads += 1;
                if self.advance_probe(tables, &mut state) {
                    let next = self.probe_offset(&state);
                    Ok(Some((state, next)))
                } else {
                    out[slot] = Some(self.resolve_probe(state, None, reinserts));
                    Ok(None)
                }
            }
            PageLookup::Continue => {
                state.page_idx = layout.next_page(state.page_idx);
                state.hops_left -= 1;
                if state.hops_left > 0 {
                    let next = self.probe_offset(&state);
                    Ok(Some((state, next)))
                } else {
                    // Exhausted the overflow chain without a verdict.
                    self.stats.spurious_flash_reads += 1;
                    if self.advance_probe(tables, &mut state) {
                        let next = self.probe_offset(&state);
                        Ok(Some((state, next)))
                    } else {
                        out[slot] = Some(self.resolve_probe(state, None, reinserts));
                        Ok(None)
                    }
                }
            }
        }
    }

    /// The streaming ring pipeline behind [`Clam::lookup`] and
    /// [`Clam::lookup_batch`]; `dispatch` is the fixed overhead charged to
    /// each key (full for per-op calls, amortized for batched ones).
    fn lookup_batch_ring(
        &mut self,
        tables: &TableSet,
        keys: &[Key],
        dispatch: SimDuration,
    ) -> Result<BatchLookupOutcome> {
        let mut batch = BatchLookupOutcome::default();
        if keys.is_empty() {
            return Ok(batch);
        }
        let page_size = self.layout.page_size;
        let LookupPlan { mut out, pending, mut reinserts, host_time } =
            self.plan_lookups(tables, keys, dispatch);

        if !pending.is_empty() {
            // The probes run on the call's *shared* ring: LRU re-insertion
            // flushes (step 3) admit into the same ring, so their writes
            // overlap the tail of the probe traffic on the device timeline
            // instead of restarting the clock.
            self.ensure_ring();
            self.ring_read = true;
            let mut ring = self.ring.take().expect("ring just ensured");
            // First probes enter through a bounded window, topped up as
            // reads reap: every admitted read parks a page buffer until it
            // is reaped, and a window of a few requests per lane already
            // keeps every lane busy.
            let window = probe_window(self.device.queue().ring_lanes());
            let mut waiting = pending.into_iter();
            // Probe state of every in-flight read, keyed by ticket id.
            let mut states: HashMap<u64, ProbeState> =
                HashMap::with_capacity(window.min(waiting.len()));
            // 1. Fill the window without waiting.
            let mut requests = Vec::with_capacity(window.min(waiting.len()));
            let mut admitted = Vec::with_capacity(requests.capacity());
            for state in waiting.by_ref().take(window) {
                let offset = self.probe_offset(&state);
                requests.push(RingRequest::new(IoRequest::read(offset, page_size)));
                admitted.push(state);
            }

            // 2. Stream: the moment a read reaps, step its key's state
            //    machine and re-arm the key's next read (causally floored
            //    at the completion that produced it), so later rounds of
            //    fast keys overlap earlier rounds of slow ones; a key that
            //    resolved hands its place in the window to the next
            //    waiting key, floored the same way. On a per-request
            //    failure, stop admitting but keep reaping until the ring
            //    is empty before propagating: abandoning a ring with reads
            //    still in flight would leave their completions parked in
            //    the device forever.
            let mut failure: Option<BufferHashError> = None;
            loop {
                if failure.is_none() && !requests.is_empty() {
                    batch.probe_reads += requests.len();
                    self.stats.lookup_probe_requests += requests.len() as u64;
                    let tickets = self.device.submit_nowait(requests, &mut ring)?;
                    for (ticket, state) in tickets.into_iter().zip(admitted) {
                        states.insert(ticket.id(), state);
                    }
                }
                if ring.in_flight() == 0 {
                    break;
                }
                let completions = self.device.reap(&mut ring, 1)?;
                requests = Vec::with_capacity(completions.len());
                admitted = Vec::with_capacity(completions.len());
                for completion in completions {
                    let mut state = states
                        .remove(&completion.ticket.id())
                        .expect("one probe state per in-flight ticket");
                    if failure.is_some() {
                        continue; // draining: discard late completions
                    }
                    if completion.lane != 0 {
                        self.stats.lookup_probes_overlapped += 1;
                    }
                    let offset = self.probe_offset(&state);
                    let page = match completion.result {
                        Ok(page) => page,
                        Err(e) => {
                            failure = Some(e.into());
                            continue;
                        }
                    };
                    state.latency += completion.latency;
                    let next = match self.step_probe(
                        tables,
                        state,
                        &page,
                        offset,
                        &mut out,
                        &mut reinserts,
                    ) {
                        Ok(Some(rearmed)) => Some(rearmed),
                        Ok(None) => waiting.next().map(|state| {
                            let first = self.probe_offset(&state);
                            (state, first)
                        }),
                        Err(e) => {
                            failure = Some(e);
                            None
                        }
                    };
                    if let Some((state, offset)) = next {
                        requests.push(RingRequest::after(
                            IoRequest::read(offset, page_size),
                            completion.completed_at,
                        ));
                        admitted.push(state);
                    }
                }
            }
            if let Some(e) = failure {
                // The reaps so far belong to the lookup ledger (recorded
                // below on success, skipped here): mark them so closing
                // the ring does not misattribute them to the flush side.
                self.ring_read_marks = (ring.reaps(), ring.admission_stalls());
                self.ring_horizon = ring.makespan();
                self.ring = Some(ring);
                self.finish_ring().ok();
                return Err(e);
            }
            batch.probe_latency = ring.makespan();
            batch.reaps = ring.reaps() as usize;
            batch.ring_depth_high_water = ring.depth_high_water();
            self.stats.lookup_batches_submitted += 1;
            self.stats.lookup_ring_reaps += ring.reaps();
            self.stats.lookup_ring_depth_high_water =
                self.stats.lookup_ring_depth_high_water.max(ring.depth_high_water() as u64);
            self.stats.lookup_ring_admission_stalls += ring.admission_stalls();
            // Everything reaped so far is on the lookup ledger, and the
            // probe makespan is charged to this batch: mark both so the
            // write side only ever accounts its own growth.
            self.ring_read_marks = (ring.reaps(), ring.admission_stalls());
            self.ring_horizon = ring.makespan();
            self.ring = Some(ring);
        }

        // 3. LRU: re-insert items used from flash so they survive FIFO
        //    eviction of old incarnations. The paper performs this
        //    asynchronously, so its cost is not charged to the batch. The
        //    re-insertion flushes admit into the same ring as the probes
        //    (see above); `apply_reinserts` closes the ring when it has
        //    work, and a reinsert-free call closes it right after.
        self.apply_reinserts(tables, reinserts)?;
        self.finish_ring()?;

        batch.latency = host_time + batch.probe_latency;
        batch.outcomes = out.into_iter().map(|o| o.expect("every key resolved")).collect();
        batch.waves = batch.outcomes.iter().map(|o| o.flash_reads).max().unwrap_or(0);
        self.stats.lookup_probe_waves += batch.waves as u64;
        Ok(batch)
    }

    /// The barrier wave pipeline behind [`Clam::lookup_batch_waves`].
    fn lookup_batch_waves_with_dispatch(
        &mut self,
        tables: &TableSet,
        keys: &[Key],
        dispatch: SimDuration,
    ) -> Result<BatchLookupOutcome> {
        let mut batch = BatchLookupOutcome::default();
        if keys.is_empty() {
            return Ok(batch);
        }
        let page_size = self.layout.page_size;
        let LookupPlan { mut out, mut pending, mut reinserts, host_time } =
            self.plan_lookups(tables, keys, dispatch);

        // Probe waves: submit the next pending page read of every
        // unresolved key as one request batch, charge the wave makespan,
        // and step each state machine on its completion.
        while !pending.is_empty() {
            let offsets: Vec<u64> = pending.iter().map(|s| self.probe_offset(s)).collect();
            let mut requests = page_read_batch(&offsets, page_size);
            let completions = self.device.submit(&mut requests)?;
            batch.waves += 1;
            batch.probe_reads += completions.len();
            batch.probe_latency += batch_latency(&completions);
            self.stats.lookup_probe_waves += 1;
            self.stats.lookup_probe_requests += completions.len() as u64;
            self.stats.lookup_probes_overlapped += overlapped_requests(&completions) as u64;

            let mut unresolved = Vec::with_capacity(pending.len());
            for (mut state, completion) in pending.into_iter().zip(completions) {
                let offset = offsets[completion.index];
                let page = completion.result?;
                state.latency += completion.latency;
                if let Some((state, _)) =
                    self.step_probe(tables, state, &page, offset, &mut out, &mut reinserts)?
                {
                    unresolved.push(state);
                }
            }
            pending = unresolved;
        }
        if batch.waves > 0 {
            self.stats.lookup_batches_submitted += 1;
        }

        // LRU re-insertions, as in the ring pipeline.
        self.apply_reinserts(tables, reinserts)?;

        batch.latency = host_time + batch.probe_latency;
        batch.outcomes = out.into_iter().map(|o| o.expect("every key resolved")).collect();
        Ok(batch)
    }

    /// Advances a probe to its next live candidate incarnation, resetting
    /// the page-chain cursor; returns `false` when the candidate list is
    /// exhausted (the key cannot be on flash).
    fn advance_probe(&self, tables: &TableSet, state: &mut ProbeState) -> bool {
        let layout = self.layout;
        for age in state.candidates.by_ref() {
            if let Some(meta) = tables.with(state.table, |table| table.incarnation_at(age)) {
                state.meta = Some(meta);
                state.page_idx = layout.page_of_key(state.key);
                state.hops_left = layout.num_pages;
                return true;
            }
        }
        false
    }

    /// Finishes one probe state machine: records the lookup statistics,
    /// queues the LRU re-insertion for keys served from flash, and builds
    /// the outcome.
    fn resolve_probe(
        &mut self,
        state: ProbeState,
        found: Option<Value>,
        reinserts: &mut Vec<(usize, Key, Value)>,
    ) -> LookupOutcome {
        let source = match found {
            Some(_) => LookupSource::Flash,
            None => LookupSource::Miss,
        };
        if found.is_some() {
            self.stats.lookup_hits += 1;
        } else {
            self.stats.lookup_misses += 1;
        }
        self.stats.lookups.record(state.latency);
        self.stats.record_lookup_reads(state.flash_reads);
        if let Some(v) = found {
            if self.config.eviction.reinserts_on_use() {
                reinserts.push((state.table, state.key, v));
            }
        }
        LookupOutcome {
            value: found,
            latency: state.latency,
            flash_reads: state.flash_reads,
            source,
        }
    }

    /// Applies the LRU re-insertions collected by a lookup call. Flush
    /// chains triggered here coalesce their incarnation writes and admit
    /// them into the call's shared completion ring (the same ring the
    /// probe reads ran on, so the writes overlap the probe tail) instead
    /// of looping blocking per-table writes; the asynchronous re-insert
    /// cost recorded in `ClamStats::async_reinsert_time` is the ring's
    /// makespan growth — makespan-accounted like every other flush. On
    /// the barrier reference path the writes pool and drain as one
    /// blocking [`Device::submit`](flashsim::Device::submit) batch.
    fn apply_reinserts(
        &mut self,
        tables: &TableSet,
        reinserts: Vec<(usize, Key, Value)>,
    ) -> Result<()> {
        if reinserts.is_empty() {
            return Ok(());
        }
        let was_coalescing = self.coalesce_writes;
        self.coalesce_writes = true;
        let mut cost = SimDuration::ZERO;
        let mut failure = None;
        'reinserts: for (t, key, value) in reinserts {
            let mut attempts = 0usize;
            loop {
                match tables.with(t, |table| table.buffer_insert(key, value)) {
                    BufferInsert::Stored(_) => break,
                    BufferInsert::Full => match self.flush_table(tables, t, attempts) {
                        Ok(flush) => {
                            cost += flush.latency;
                            attempts += 1;
                        }
                        Err(e) => {
                            failure = Some(e);
                            break 'reinserts;
                        }
                    },
                }
            }
            self.stats.reinsertions += 1;
        }
        // Drain even on failure so the device matches the incarnation
        // metadata registered so far.
        self.coalesce_writes = was_coalescing;
        let drained = self.drain_write_ring();
        if let Some(e) = failure {
            return Err(e);
        }
        cost += drained?;
        self.stats.async_reinsert_time += cost;
        Ok(())
    }

    /// The whole-index flush behind [`Clam::flush_all`].
    fn flush_all(&mut self, tables: &TableSet) -> Result<SimDuration> {
        let mut total = SimDuration::ZERO;
        let was_coalescing = self.coalesce_writes;
        self.coalesce_writes = true;
        let mut failure = None;
        for t in 0..tables.len() {
            if tables.with(t, |table| table.buffer_len()) > 0 {
                match self.flush_table(tables, t, 0) {
                    Ok(flush) => total += flush.latency,
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
        }
        // Drain even on failure so the device matches the in-memory
        // incarnation metadata registered so far.
        self.coalesce_writes = was_coalescing;
        let drained = self.drain_write_ring();
        if let Some(e) = failure {
            return Err(e);
        }
        total += drained?;
        Ok(total)
    }
}

impl<D: Device> ClamCore<D> {
    // ------------------------------------------------------------------
    // Flush and eviction orchestration
    // ------------------------------------------------------------------

    /// One flush chain for table `t`: evict if the incarnation table is
    /// full, write the buffer out as a new incarnation, cascade on
    /// retained re-inserts. Dispatches to the **ring-driven** write path
    /// (the default: writes are admitted to the call's shared completion
    /// ring without waiting, so they overlap each other and any probe
    /// traffic on the same ring) or to the blocking **barrier** reference
    /// path when [`Clam::set_barrier_writes`] is on.
    ///
    /// Runs entirely under one core lock on the fine-grained path, so the
    /// allocator grant and the ring admission of the resulting write are
    /// atomic — grant order *is* admission order, which devices apply as
    /// data-effect order (the PR-7 ack invariant).
    fn flush_table(&mut self, tables: &TableSet, t: usize, depth: usize) -> Result<FlushOutcome> {
        if self.barrier_writes {
            return self.flush_table_barrier(tables, t, depth);
        }
        let mut latency = SimDuration::ZERO;
        let mut evictions = 0usize;

        // Make room in the incarnation table if needed, applying the
        // configured eviction policy. Beyond `k` cascades fall back to full
        // discard to guarantee termination (§7.4).
        let mut retained: Vec<Entry> = Vec::new();
        let (num_incarnations, max_incarnations) =
            tables.with(t, |table| (table.num_incarnations(), table.max_incarnations()));
        if num_incarnations >= max_incarnations {
            let policy =
                if depth >= max_incarnations { EvictionPolicy::Fifo } else { self.config.eviction };
            let (evict_lat, kept) = self.evict_oldest(tables, t, &policy)?;
            latency += evict_lat;
            retained = kept;
            evictions += 1;
        }

        // Write the buffer out as a new incarnation.
        let entries = tables.with(t, |table| table.drain_buffer());
        if !entries.is_empty() {
            let keys: Vec<Key> = entries.iter().map(|e| e.key).collect();
            let layout = self.layout;
            self.seq += 1;
            let seq = self.seq;
            let image = layout.serialize_identified(
                &entries,
                IncarnationIdentity { table: t as u16, seq, epoch: self.epoch },
            )?;
            let alloc = self.allocator.allocate(t, seq)?;
            // Force-evict incarnations whose slots this write reclaims.
            // The victim table's state lock is a leaf, so reclaiming
            // across tables never orders against another table's op.
            for owner in &alloc.displaced {
                let dropped = tables.with(owner.table, |table| table.force_evict_up_to(owner.seq));
                for meta in dropped {
                    self.allocator.release(meta.flash_offset);
                    self.stats.forced_evictions += 1;
                }
            }
            if self.coalesce_writes && alloc.blocks_to_erase.is_empty() {
                // Batched path (SSD global log): coalesce into the current
                // contiguous run. A non-contiguous slot admits the finished
                // run to the ring first (see `push_coalesced_write`), so
                // flush traffic streams out mid-batch instead of pooling
                // behind the whole batch.
                self.push_coalesced_write(alloc.offset, image)?;
            } else {
                // Erase-before-program and write-after-write ordering both
                // rest on admission order: devices apply data effects in
                // admission order, and the ring's write-write conflict
                // floors keep the reported timing consistent with it. So
                // the deferred run, the erases and the incarnation write
                // are admitted back to back without waiting; their device
                // time is charged when the ring syncs (per-op end,
                // eviction read, or batch-end drain).
                self.admit_pending_writes()?;
                let mut requests: Vec<RingRequest> = alloc
                    .blocks_to_erase
                    .iter()
                    .map(|&block| RingRequest::new(IoRequest::Erase { block }))
                    .collect();
                requests.push(RingRequest::new(IoRequest::write(alloc.offset, image)));
                self.ring_admit(requests)?;
            }
            tables.with(t, |table| {
                table.register_incarnation(
                    IncarnationMeta { flash_offset: alloc.offset, entries: entries.len(), seq },
                    &keys,
                );
                table.prune_delete_list();
            });
            self.stats.flushes += 1;
        }

        // Re-insert retained entries; this can refill the buffer and cascade
        // into another flush (§7.4).
        for e in retained {
            self.stats.reinsertions += 1;
            loop {
                match tables.with(t, |table| table.buffer_insert(e.key, e.value)) {
                    BufferInsert::Stored(_) => break,
                    BufferInsert::Full => {
                        let inner = self.flush_table(tables, t, depth + 1)?;
                        latency += inner.latency;
                        evictions += inner.evictions;
                    }
                }
            }
        }

        Ok(FlushOutcome { latency, evictions })
    }

    /// The blocking **barrier** reference implementation of
    /// [`flush_table`](Self::flush_table): every incarnation write goes
    /// through [`Device::submit`](flashsim::Device::submit) (or pools for a
    /// blocking batch-end drain), paying each submission's full latency
    /// before the next starts. Kept verbatim as the baseline the
    /// ring-driven path is property-tested against (observationally
    /// equivalent on stored state and device counters) and raced against
    /// in the `io_queue_depth` harness.
    fn flush_table_barrier(
        &mut self,
        tables: &TableSet,
        t: usize,
        depth: usize,
    ) -> Result<FlushOutcome> {
        let mut latency = SimDuration::ZERO;
        let mut evictions = 0usize;

        // Make room in the incarnation table if needed, applying the
        // configured eviction policy. Beyond `k` cascades fall back to full
        // discard to guarantee termination (§7.4).
        let mut retained: Vec<Entry> = Vec::new();
        let (num_incarnations, max_incarnations) =
            tables.with(t, |table| (table.num_incarnations(), table.max_incarnations()));
        if num_incarnations >= max_incarnations {
            let policy =
                if depth >= max_incarnations { EvictionPolicy::Fifo } else { self.config.eviction };
            let (evict_lat, kept) = self.evict_oldest_barrier(tables, t, &policy)?;
            latency += evict_lat;
            retained = kept;
            evictions += 1;
        }

        // Write the buffer out as a new incarnation.
        let entries = tables.with(t, |table| table.drain_buffer());
        if !entries.is_empty() {
            let keys: Vec<Key> = entries.iter().map(|e| e.key).collect();
            let layout = self.layout;
            self.seq += 1;
            let seq = self.seq;
            let image = layout.serialize_identified(
                &entries,
                IncarnationIdentity { table: t as u16, seq, epoch: self.epoch },
            )?;
            let alloc = self.allocator.allocate(t, seq)?;
            // Force-evict incarnations whose slots this write reclaims.
            for owner in &alloc.displaced {
                let dropped = tables.with(owner.table, |table| table.force_evict_up_to(owner.seq));
                for meta in dropped {
                    self.allocator.release(meta.flash_offset);
                    self.stats.forced_evictions += 1;
                }
            }
            if self.coalesce_writes && alloc.blocks_to_erase.is_empty() {
                // Batched path (SSD global log): defer the write so runs of
                // contiguous slots flushed by the same batch become one
                // sequential device write. Drained before any flash read
                // and at the end of the batch.
                self.pending_writes.push((alloc.offset, image));
            } else {
                // Erases must not be reordered with already-deferred
                // writes, so drain first. The erases and the incarnation
                // write then go to the device as one in-order submission
                // (devices apply request effects in submission order, so
                // erase-before-program is preserved).
                latency += self.drain_pending_writes_barrier()?;
                let mut requests: Vec<IoRequest> =
                    alloc.blocks_to_erase.iter().map(|&block| IoRequest::Erase { block }).collect();
                requests.push(IoRequest::write(alloc.offset, image));
                latency += self.submit_checked(&mut requests)?.0;
            }
            tables.with(t, |table| {
                table.register_incarnation(
                    IncarnationMeta { flash_offset: alloc.offset, entries: entries.len(), seq },
                    &keys,
                );
                table.prune_delete_list();
            });
            self.stats.flushes += 1;
        }

        // Re-insert retained entries; this can refill the buffer and cascade
        // into another flush (§7.4).
        for e in retained {
            self.stats.reinsertions += 1;
            loop {
                match tables.with(t, |table| table.buffer_insert(e.key, e.value)) {
                    BufferInsert::Stored(_) => break,
                    BufferInsert::Full => {
                        let inner = self.flush_table_barrier(tables, t, depth + 1)?;
                        latency += inner.latency;
                        evictions += inner.evictions;
                    }
                }
            }
        }

        Ok(FlushOutcome { latency, evictions })
    }

    /// Evicts the oldest incarnation of table `t` under `policy` through
    /// the call's shared completion ring, returning the latency charged to
    /// the eviction and any entries to retain (re-insert).
    fn evict_oldest(
        &mut self,
        tables: &TableSet,
        t: usize,
        policy: &EvictionPolicy,
    ) -> Result<(SimDuration, Vec<Entry>)> {
        let Some(oldest) = tables.with(t, |table| table.oldest_incarnation()) else {
            return Ok((SimDuration::ZERO, Vec::new()));
        };
        let mut latency = SimDuration::ZERO;
        let mut retained = Vec::new();

        if policy.uses_partial_discard() {
            // The incarnation image may still sit in the deferred run or in
            // flight on the ring, so admit the run first: the scan read is
            // admitted *after* it, and admission order is data-effect
            // order, so the read observes the written bytes while the
            // read-after-write conflict floor keeps its start time honest.
            // The reclaiming TRIM is admitted behind the read for the same
            // reason (write-write floor against the read's range).
            self.admit_pending_writes()?;
            let layout = self.layout;
            let tickets = self.ring_admit(vec![
                RingRequest::new(IoRequest::read(oldest.flash_offset, layout.total_bytes())),
                RingRequest::new(IoRequest::Trim {
                    offset: oldest.flash_offset,
                    len: layout.total_bytes() as u64,
                }),
            ])?;
            let read_ticket = tickets[0];
            // The retain scan needs the page bytes back, so this is a sync
            // point: everything in flight — including unrelated flush
            // writes, which overlap the read on the ring's lanes — is
            // reaped, and the ring's makespan growth is charged to the
            // eviction.
            let (sync_lat, completions) = self.sync_ring()?;
            latency += sync_lat;
            let image = completions
                .into_iter()
                .find(|c| c.ticket == read_ticket)
                .and_then(|c| c.result.ok())
                .expect("read completion checked");
            // Deciding staleness also probes the in-memory filters.
            latency += self.mem_words_cost(oldest.entries * 2);
            let entries = parse_incarnation(&image, &layout)
                .map_err(|e| annotate_offset(e, oldest.flash_offset))?;
            tables.with(t, |table| {
                for e in entries {
                    if table.retain_decision(&e, policy) == RetainDecision::Retain {
                        retained.push(e);
                    }
                }
            });
        } else {
            // Full discard reclaims the slot with a TRIM admitted to the
            // ring; it is floored behind any in-flight write of the same
            // range, and its (zero or small) device time lands in the next
            // sync's makespan delta.
            let total = self.layout.total_bytes() as u64;
            self.ring_admit(vec![RingRequest::new(IoRequest::Trim {
                offset: oldest.flash_offset,
                len: total,
            })])?;
        }

        tables.with(t, |table| {
            table.drop_oldest_incarnation();
            table.prune_delete_list();
        });
        self.allocator.release(oldest.flash_offset);
        Ok((latency, retained))
    }

    /// The blocking barrier reference implementation of
    /// [`evict_oldest`](Self::evict_oldest): drains deferred writes, then
    /// scans and trims via blocking submissions. Used by
    /// [`flush_table_barrier`](Self::flush_table_barrier).
    fn evict_oldest_barrier(
        &mut self,
        tables: &TableSet,
        t: usize,
        policy: &EvictionPolicy,
    ) -> Result<(SimDuration, Vec<Entry>)> {
        let Some(oldest) = tables.with(t, |table| table.oldest_incarnation()) else {
            return Ok((SimDuration::ZERO, Vec::new()));
        };
        let mut latency = SimDuration::ZERO;
        let mut retained = Vec::new();

        if policy.uses_partial_discard() {
            // Scan the incarnation to decide which entries survive, and
            // queue the reclaiming TRIM behind the read in the same
            // submission (in-order, so the read sees the live bytes). The
            // incarnation may still sit in the batch's deferred-write queue,
            // so make the device current before submitting.
            latency += self.drain_pending_writes_barrier()?;
            let layout = self.layout;
            let mut requests = vec![
                IoRequest::read(oldest.flash_offset, layout.total_bytes()),
                IoRequest::Trim { offset: oldest.flash_offset, len: layout.total_bytes() as u64 },
            ];
            let (submit_lat, completions) = self.submit_checked(&mut requests)?;
            latency += submit_lat;
            let image = completions
                .into_iter()
                .next()
                .and_then(|c| c.result.ok())
                .expect("read completion checked");
            // Deciding staleness also probes the in-memory filters.
            latency += self.mem_words_cost(oldest.entries * 2);
            let entries = parse_incarnation(&image, &layout)
                .map_err(|e| annotate_offset(e, oldest.flash_offset))?;
            tables.with(t, |table| {
                for e in entries {
                    if table.retain_decision(&e, policy) == RetainDecision::Retain {
                        retained.push(e);
                    }
                }
            });
        } else {
            latency += self.device.trim(oldest.flash_offset, self.layout.total_bytes() as u64)?;
        }

        tables.with(t, |table| {
            table.drop_oldest_incarnation();
            table.prune_delete_list();
        });
        self.allocator.release(oldest.flash_offset);
        Ok((latency, retained))
    }

    /// Queues one incarnation write for coalescing. On the ring path the
    /// deferred set holds a single contiguous run: a write extending the
    /// run merges into it (one device command for the whole run), while a
    /// non-contiguous write **admits the finished run to the ring first**,
    /// so deferred flush traffic streams out as it forms instead of
    /// pooling until the batch ends. The barrier path pools everything and
    /// lets [`drain_pending_writes_barrier`](Self::drain_pending_writes_barrier)
    /// sort and merge at drain time; the two produce identical runs for
    /// the global log, whose slots are handed out in flush order.
    fn push_coalesced_write(&mut self, offset: u64, image: Vec<u8>) -> Result<()> {
        if self.barrier_writes {
            self.pending_writes.push((offset, image));
            return Ok(());
        }
        match self.pending_writes.last_mut() {
            Some((run_offset, run_image)) if offset == *run_offset + run_image.len() as u64 => {
                run_image.extend_from_slice(&image);
                self.stats.coalesced_flush_writes += 1;
            }
            _ => {
                self.admit_pending_writes()?;
                self.pending_writes.push((offset, image));
            }
        }
        Ok(())
    }

    /// Admits the deferred coalesced run (if any) to the call's shared
    /// ring without waiting. Ring path only — the barrier path drains with
    /// a blocking submission instead.
    fn admit_pending_writes(&mut self) -> Result<()> {
        if self.pending_writes.is_empty() {
            return Ok(());
        }
        let runs = std::mem::take(&mut self.pending_writes);
        let requests: Vec<RingRequest> = runs
            .into_iter()
            .map(|(offset, image)| RingRequest::new(IoRequest::write(offset, image)))
            .collect();
        self.ring_admit(requests)?;
        Ok(())
    }

    /// Flushes the write side of the current call: admits any deferred run
    /// and closes the shared ring, returning the device time charged to
    /// the caller (the ring's makespan growth since the last sync; on the
    /// barrier path, the blocking drain's batch latency).
    fn drain_write_ring(&mut self) -> Result<SimDuration> {
        if self.barrier_writes {
            return self.drain_pending_writes_barrier();
        }
        let admitted = self.admit_pending_writes();
        let finished = self.finish_ring();
        admitted?;
        finished
    }

    /// Barrier reference drain: writes out every deferred incarnation
    /// image, merging runs of contiguous offsets into single sequential
    /// device writes and handing the merged runs to the device as **one
    /// blocking submission**, so a device with an overlapped queue (SSD
    /// lanes, the file backend's worker pool) retires independent runs
    /// concurrently. Returns the simulated latency of the drained writes —
    /// the batch's elapsed (max-over-lanes) time, not the per-run sum.
    fn drain_pending_writes_barrier(&mut self) -> Result<SimDuration> {
        if self.pending_writes.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        let mut writes = std::mem::take(&mut self.pending_writes);
        // Stable sort: if the log wrapped within one batch and a slot was
        // written twice, the later image is written last and wins.
        writes.sort_by_key(|(offset, _)| *offset);
        let mut merged = 0u64;
        let mut requests: Vec<IoRequest> = Vec::new();
        let mut iter = writes.into_iter();
        let (mut run_offset, mut run_image) = iter.next().expect("non-empty");
        for (offset, image) in iter {
            if offset == run_offset + run_image.len() as u64 {
                run_image.extend_from_slice(&image);
                merged += 1;
            } else {
                requests.push(IoRequest::write(run_offset, run_image));
                run_offset = offset;
                run_image = image;
            }
        }
        requests.push(IoRequest::write(run_offset, run_image));
        let (total, _) = self.submit_checked(&mut requests)?;
        self.stats.coalesced_flush_writes += merged;
        Ok(total)
    }

    /// Submits a request batch to the device, propagates the first
    /// per-request failure, and returns the submission's elapsed latency
    /// (max over queue lanes) together with the completions, for callers
    /// that need read data back.
    fn submit_checked(
        &mut self,
        requests: &mut [IoRequest],
    ) -> Result<(SimDuration, Vec<IoCompletion>)> {
        let completions = self.device.submit(requests)?;
        let latency = batch_latency(&completions);
        if let Some(err) = completions.iter().find_map(|c| c.result.as_ref().err()) {
            return Err(err.clone().into());
        }
        Ok((latency, completions))
    }

    // ------------------------------------------------------------------
    // The call's shared completion ring
    // ------------------------------------------------------------------

    /// Lazily opens the current top-level call's shared ring, sized to the
    /// device's queue (one lane on serial devices, `max_queue_depth` lanes
    /// on overlapped ones).
    fn ensure_ring(&mut self) {
        if self.ring.is_none() {
            self.ring = Some(CompletionRing::for_queue(self.device.queue()));
        }
    }

    /// Admits write-path requests into the call's shared ring without
    /// waiting ([`Device::submit_nowait`](flashsim::Device::submit_nowait)),
    /// opening the ring if this is the call's first admission.
    fn ring_admit(&mut self, requests: Vec<RingRequest>) -> Result<Vec<IoTicket>> {
        for r in &requests {
            if matches!(r.request, IoRequest::Read { .. }) {
                self.ring_read = true;
            } else {
                self.ring_wrote = true;
            }
        }
        self.ensure_ring();
        let mut ring = self.ring.take().expect("ring just ensured");
        let tickets = self.device.submit_nowait(requests, &mut ring);
        self.ring = Some(ring);
        Ok(tickets?)
    }

    /// Reaps every in-flight request of the shared ring, records the
    /// write-ring ledger (reaps and stalls beyond the lookup pipeline's
    /// marks belong to the flush/eviction side), and returns the
    /// completions in ticket order together with the ring's **makespan
    /// growth** since the last charge, propagating the first per-request
    /// failure. The ring stays open: later admissions land on the same
    /// device timeline, which is what lets flush traffic overlap the tail
    /// of earlier probe or write traffic instead of restarting the clock.
    fn sync_ring(&mut self) -> Result<(SimDuration, Vec<RingCompletion>)> {
        let Some(mut ring) = self.ring.take() else {
            return Ok((SimDuration::ZERO, Vec::new()));
        };
        let mut completions: Vec<RingCompletion> = Vec::new();
        let mut failure: Option<BufferHashError> = None;
        while ring.in_flight() > 0 {
            match self.device.reap(&mut ring, 1) {
                Ok(reaped) => completions.extend(reaped),
                Err(e) => {
                    failure = Some(e.into());
                    break;
                }
            }
        }
        let (reaps_seen, stalls_seen) = self.ring_read_marks;
        self.stats.flush_ring_reaps += ring.reaps() - reaps_seen;
        self.stats.write_ring_admission_stalls += ring.admission_stalls() - stalls_seen;
        self.ring_read_marks = (ring.reaps(), ring.admission_stalls());
        if self.ring_wrote && self.ring_read {
            // The ring carried reads *and* writes this call: record how
            // deep the mixed stream stacked the lanes.
            self.stats.mixed_ring_depth_high_water =
                self.stats.mixed_ring_depth_high_water.max(ring.depth_high_water() as u64);
        }
        let makespan = ring.makespan();
        let charged = makespan - self.ring_horizon;
        self.ring_horizon = makespan;
        self.ring = Some(ring);
        if let Some(e) = failure {
            return Err(e);
        }
        completions.sort_by_key(|c| c.ticket);
        if let Some(err) = completions.iter().find_map(|c| c.result.as_ref().err()) {
            return Err(err.clone().into());
        }
        Ok((charged, completions))
    }

    /// Closes the call's shared ring: syncs it, resets the per-call ring
    /// state, and returns the final makespan growth. A no-op returning
    /// zero when no ring was opened.
    fn finish_ring(&mut self) -> Result<SimDuration> {
        if self.ring.is_none() {
            return Ok(SimDuration::ZERO);
        }
        let synced = self.sync_ring();
        self.ring = None;
        self.ring_horizon = SimDuration::ZERO;
        self.ring_read_marks = (0, 0);
        self.ring_wrote = false;
        self.ring_read = false;
        synced.map(|(charged, _)| charged)
    }
}

/// How many page reads one lookup batch keeps in flight on a ring of
/// `lanes` lanes. Four requests a lane keep every lane fed between reaps
/// (the floor of 16 does the same for the real backends' worker pools on
/// short or serial queues); beyond that a deeper ring only parks more
/// 4 KiB page buffers without finishing sooner, so this is a property of
/// the queue's shape and not a tuning knob.
pub(crate) fn probe_window(lanes: usize) -> usize {
    (4 * lanes).max(16)
}

/// Per-op dispatch overhead inside a batch of `len` ops. A batch of one
/// degrades to the per-op path (full `BASE_OP_OVERHEAD`, no residual),
/// matching `FlashCostModel::insert_batch_amortized` at `b = 1`; larger
/// batches amortize the dispatch and pay the residual per op.
pub(crate) fn batch_dispatch(len: usize) -> SimDuration {
    if len <= 1 {
        BASE_OP_OVERHEAD
    } else {
        BASE_OP_OVERHEAD / len as u64 + BATCHED_OP_OVERHEAD
    }
}

/// Result of one flush chain.
#[derive(Debug, Clone, Copy)]
struct FlushOutcome {
    latency: SimDuration,
    evictions: usize,
}

/// In-memory phase of a lookup batch: keys resolved from buffers or
/// delete lists, probe state machines for the rest, plus the host-side
/// accounting, shared by the ring and wave pipelines.
struct LookupPlan {
    /// One slot per key; `Some` once the key resolved.
    out: Vec<Option<LookupOutcome>>,
    /// State machines for keys that must probe flash.
    pending: Vec<ProbeState>,
    /// LRU re-insertions queued by keys that already resolved.
    reinserts: Vec<(usize, Key, Value)>,
    /// Dispatch plus DRAM probe time of the whole batch.
    host_time: SimDuration,
}

/// Probe state machine for one key of a queued lookup batch: where the key
/// sits in its Bloom-guided candidate walk (which incarnation, which page
/// of the overflow chain) and the per-key accounting accumulated so far.
/// One page read per wave advances it until a verdict is reached.
struct ProbeState {
    /// Position of the key in the caller's batch.
    slot: usize,
    key: Key,
    /// Super table owning the key.
    table: usize,
    /// Per-key charge accumulated so far (dispatch + DRAM probes + own
    /// page reads).
    latency: SimDuration,
    flash_reads: usize,
    /// Remaining candidate incarnation ages, youngest first.
    candidates: AgeSet,
    /// Candidate currently being probed (`Some` while pending).
    meta: Option<IncarnationMeta>,
    /// Page of the current candidate to read next.
    page_idx: usize,
    /// Overflow-chain hops left before the candidate is abandoned.
    hops_left: usize,
}

fn annotate_offset(e: BufferHashError, offset: u64) -> BufferHashError {
    match e {
        BufferHashError::CorruptIncarnation { reason, .. } => {
            BufferHashError::CorruptIncarnation { flash_offset: offset, reason }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::BitSlicedBloomSet;
    use crate::filters::FilterMode;
    use crate::types::ENTRY_SIZE;
    use flashsim::{MagneticDisk, Ssd};
    use std::collections::HashMap;

    fn small_clam() -> Clam<Ssd> {
        // 8 MiB flash, 2 MiB DRAM, 32 KiB buffers.
        let cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
        let ssd = Ssd::intel(8 << 20).unwrap();
        Clam::new(ssd, cfg).unwrap()
    }

    fn key(i: u64) -> Key {
        hash_with_seed(i, 0x5eed)
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let mut clam = small_clam();
        for i in 0..100u64 {
            clam.insert(key(i), i).unwrap();
        }
        for i in 0..100u64 {
            let out = clam.lookup(key(i)).unwrap();
            assert_eq!(out.value, Some(i), "key {i}");
        }
        assert_eq!(clam.stats().lookup_hits, 100);
    }

    #[test]
    fn recover_rebuilds_state_from_flash_alone() {
        let mut clam = small_clam();
        let n = 40_000u64;
        for i in 0..n {
            clam.insert(key(i), i).unwrap();
        }
        clam.flush_all().unwrap();
        let flushes = clam.stats().flushes;
        let old_epoch = clam.epoch();
        let old_seq = clam.core.get_mut().seq;
        let live = clam.core.get_mut().allocator.live_slots();
        let config = clam.config().clone();

        // Lose every byte of DRAM; recover from the flash image alone.
        let device = clam.into_device();
        let (mut recovered, report) = Clam::recover(device, config).unwrap();
        assert_eq!(report.accepted, live, "every live incarnation accepted: {report}");
        assert_eq!(report.torn, 0, "{report}");
        assert_eq!(report.stale, 0, "{report}");
        assert_eq!(report.slots_scanned, 256);
        assert_eq!(report.bytes_scanned, 8 << 20);
        assert!(report.scan_makespan > SimDuration::ZERO);
        assert!(report.epoch > old_epoch, "recovered lifetime gets a younger epoch");
        assert_eq!(report.seq_resumed, old_seq, "seq resumes past every flushed incarnation");
        assert!(flushes as usize >= live);

        for i in 0..n {
            assert_eq!(recovered.lookup(key(i)).unwrap().value, Some(i), "key {i}");
        }
        assert_eq!(recovered.stats().recoveries, 1);
        assert_eq!(recovered.stats().recovered_incarnations, live as u64);

        // The restored allocator and seq let the recovered CLAM keep
        // writing: new inserts flush into the slots a never-crashed
        // lifetime would have used, without clobbering live data.
        for i in n..(n + 40_000) {
            recovered.insert(key(i), i).unwrap();
        }
        recovered.flush_all().unwrap();
        for i in (0..n + 40_000).step_by(211) {
            assert_eq!(recovered.lookup(key(i)).unwrap().value, Some(i), "key {i}");
        }
    }

    #[test]
    fn recover_on_a_pristine_device_starts_empty() {
        let cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
        let ssd = Ssd::intel(8 << 20).unwrap();
        let (mut clam, report) = Clam::recover(ssd, cfg).unwrap();
        assert_eq!(report.accepted, 0);
        assert_eq!(report.torn, 0);
        assert_eq!(report.empty as u64, report.slots_scanned);
        assert_eq!(report.entries_recovered, 0);
        assert_eq!(clam.lookup(key(1)).unwrap().value, None);
        clam.insert(key(1), 1).unwrap();
        assert_eq!(clam.lookup(key(1)).unwrap().value, Some(1));
    }

    #[test]
    fn lookups_after_flush_read_from_flash() {
        let mut clam = small_clam();
        // Enough inserts to flush several buffers.
        let n = 40_000u64;
        for i in 0..n {
            clam.insert(key(i), i).unwrap();
        }
        assert!(clam.stats().flushes > 0, "expected at least one flush");
        // Early keys should now live on flash; they must still be found.
        let mut flash_hits = 0;
        for i in 0..200u64 {
            let out = clam.lookup(key(i)).unwrap();
            assert_eq!(out.value, Some(i));
            if out.source == LookupSource::Flash {
                flash_hits += 1;
                assert!(out.flash_reads >= 1);
            }
        }
        assert!(flash_hits > 0, "expected some lookups to be served from flash");
    }

    #[test]
    fn missing_keys_return_none_with_few_flash_reads() {
        let mut clam = small_clam();
        for i in 0..20_000u64 {
            clam.insert(key(i), i).unwrap();
        }
        let mut total_reads = 0usize;
        let misses = 2_000u64;
        for i in 0..misses {
            let out = clam.lookup(hash_with_seed(i, 0xdead_bead)).unwrap();
            assert_eq!(out.value, None);
            total_reads += out.flash_reads;
        }
        // With adequately sized Bloom filters, unsuccessful lookups should
        // almost never touch flash.
        let per_miss = total_reads as f64 / misses as f64;
        assert!(per_miss < 0.2, "unsuccessful lookups read flash {per_miss} times on average");
    }

    #[test]
    fn update_returns_the_newest_value() {
        let mut clam = small_clam();
        let k = key(7);
        clam.insert(k, 1).unwrap();
        // Push the old value to flash by filling the same super table's
        // buffer indirectly: insert enough keys overall.
        for i in 1000..30_000u64 {
            clam.insert(key(i), i).unwrap();
        }
        clam.insert(k, 2).unwrap();
        assert_eq!(clam.lookup(k).unwrap().value, Some(2));
        // And again after more churn.
        for i in 30_000..60_000u64 {
            clam.insert(key(i), i).unwrap();
        }
        assert_eq!(clam.lookup(k).unwrap().value, Some(2));
    }

    #[test]
    fn delete_hides_flash_copies() {
        let mut clam = small_clam();
        let k = key(3);
        clam.insert(k, 33).unwrap();
        for i in 10_000..40_000u64 {
            clam.insert(key(i), i).unwrap();
        }
        // The key is on flash by now; delete must still hide it.
        clam.delete(k).unwrap();
        let out = clam.lookup(k).unwrap();
        assert_eq!(out.value, None);
        assert_eq!(out.source, LookupSource::Deleted);
        // Re-inserting revives it.
        clam.insert(k, 44).unwrap();
        assert_eq!(clam.lookup(k).unwrap().value, Some(44));
    }

    #[test]
    fn matches_reference_model_under_churn() {
        let mut clam = small_clam();
        let mut model: HashMap<Key, Value> = HashMap::new();
        // Interleave inserts, updates and deletes, then verify every key
        // that should still be live. Use few enough keys that FIFO eviction
        // does not drop live entries.
        for i in 0..30_000u64 {
            let k = key(i % 10_000);
            match i % 7 {
                0..=4 => {
                    clam.insert(k, i).unwrap();
                    model.insert(k, i);
                }
                5 => {
                    clam.delete(k).unwrap();
                    model.remove(&k);
                }
                _ => {
                    let expect = model.get(&k).copied();
                    assert_eq!(clam.lookup(k).unwrap().value, expect, "iteration {i}");
                }
            }
        }
        for (k, v) in model {
            assert_eq!(clam.lookup(k).unwrap().value, Some(v));
        }
    }

    #[test]
    fn old_keys_are_evicted_fifo_when_capacity_wraps() {
        let cfg = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
        let mut clam = Clam::new(Ssd::intel(2 << 20).unwrap(), cfg).unwrap();
        let capacity_entries = clam.config().flash_capacity as usize / 32; // generous bound
        let n = capacity_entries as u64 * 3;
        for i in 0..n {
            clam.insert(key(i), i).unwrap();
        }
        assert!(clam.stats().forced_evictions > 0 || clam.stats().flushes > 0);
        // The oldest keys must be gone (FIFO), the newest still present.
        let old = clam.lookup(key(0)).unwrap();
        assert_eq!(old.value, None, "oldest key should have been evicted");
        let new = clam.lookup(key(n - 1)).unwrap();
        assert_eq!(new.value, Some(n - 1));
    }

    #[test]
    fn insert_latency_is_microseconds_on_average() {
        let mut clam = small_clam();
        for i in 0..50_000u64 {
            clam.insert(key(i), i).unwrap();
        }
        let mean = clam.stats().inserts.mean();
        assert!(mean < SimDuration::from_micros(60), "average insert latency too high: {mean}");
        let max = clam.stats().inserts.max();
        assert!(max > mean * 10, "worst-case insert should be dominated by flushes");
    }

    #[test]
    fn average_lookup_is_fast_at_moderate_hit_rates() {
        let mut clam = small_clam();
        for i in 0..50_000u64 {
            clam.insert(key(i), i).unwrap();
        }
        clam.reset_stats();
        // 40% of lookups hit existing keys, 60% miss.
        for i in 0..10_000u64 {
            let k = if i % 5 < 2 { key(20_000 + i) } else { hash_with_seed(i, 0xaaaa) };
            clam.lookup(k).unwrap();
        }
        let mean = clam.stats().lookups.mean();
        assert!(mean < SimDuration::from_micros(300), "average lookup latency too high: {mean}");
    }

    #[test]
    fn lru_reinserts_used_items() {
        let mut cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
        cfg.eviction = EvictionPolicy::Lru;
        let mut clam = Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap();
        // Insert enough that the early keys are flushed out of the buffers.
        for i in 0..40_000u64 {
            clam.insert(key(i), i).unwrap();
        }
        assert!(clam.stats().flushes > 0);
        let before = clam.stats().reinsertions;
        // Touch keys that are on flash.
        for i in 0..50u64 {
            clam.lookup(key(i)).unwrap();
        }
        assert!(clam.stats().reinsertions > before, "LRU lookups should re-insert flash hits");
    }

    #[test]
    fn update_based_eviction_retains_unmodified_entries() {
        let mut cfg = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
        cfg.eviction = EvictionPolicy::UpdateBased;
        let mut clam = Clam::new(Ssd::intel(2 << 20).unwrap(), cfg).unwrap();
        let mut cascades_seen = false;
        for i in 0..80_000u64 {
            // 40% of inserts update recent keys, the rest are new.
            let k = if i % 5 < 2 { key(i / 3) } else { key(i) };
            let out = clam.insert(k, i).unwrap();
            if out.evictions > 1 {
                cascades_seen = true;
            }
        }
        assert!(clam.stats().reinsertions > 0, "partial discard should retain some entries");
        // Cascades are possible but most evictions should be shallow.
        let hist = clam.stats().cascade_histogram.clone();
        let total: u64 = hist.iter().sum();
        let deep: u64 = hist.iter().skip(4).sum();
        assert!(total > 0);
        assert!(deep * 10 <= total, "cascades deeper than 3 should be rare ({deep}/{total})");
        let _ = cascades_seen;
    }

    #[test]
    fn priority_eviction_drops_low_priority_entries() {
        let mut cfg = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
        cfg.eviction = EvictionPolicy::priority_threshold(u64::MAX);
        // Threshold of MAX means nothing is retained: behaves like FIFO.
        let mut clam = Clam::new(Ssd::intel(2 << 20).unwrap(), cfg).unwrap();
        for i in 0..60_000u64 {
            clam.insert(key(i), i).unwrap();
        }
        assert_eq!(clam.stats().reinsertions, 0);
    }

    #[test]
    fn works_on_a_magnetic_disk_but_slower_lookups() {
        let cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
        let mut on_disk = Clam::new(MagneticDisk::new(8 << 20).unwrap(), cfg).unwrap();
        let cfg2 = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
        let mut on_ssd = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg2).unwrap();
        for i in 0..60_000u64 {
            on_disk.insert(key(i), i).unwrap();
            on_ssd.insert(key(i), i).unwrap();
        }
        on_disk.reset_stats();
        on_ssd.reset_stats();
        for i in 0..2_000u64 {
            on_disk.lookup(key(i)).unwrap();
            on_ssd.lookup(key(i)).unwrap();
        }
        let disk_mean = on_disk.stats().lookups.mean();
        let ssd_mean = on_ssd.stats().lookups.mean();
        assert!(
            disk_mean > ssd_mean * 3,
            "disk lookups ({disk_mean}) should be much slower than SSD lookups ({ssd_mean})"
        );
    }

    #[test]
    fn disabled_bloom_filters_cause_many_flash_reads() {
        let mut cfg = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
        cfg.filter_mode = FilterMode::Disabled;
        let mut clam = Clam::new(Ssd::intel(8 << 20).unwrap(), cfg).unwrap();
        for i in 0..60_000u64 {
            clam.insert(key(i), i).unwrap();
        }
        clam.reset_stats();
        for i in 0..500u64 {
            clam.lookup(hash_with_seed(i, 0xfeed)).unwrap(); // misses
        }
        let per_lookup = clam.stats().lookup_flash_reads as f64 / 500.0;
        assert!(
            per_lookup > 2.0,
            "without Bloom filters, misses should probe many incarnations (got {per_lookup})"
        );
    }

    #[test]
    fn flush_all_writes_buffered_entries() {
        let mut clam = small_clam();
        for i in 0..100u64 {
            clam.insert(key(i), i).unwrap();
        }
        let flushes_before = clam.stats().flushes;
        clam.flush_all().unwrap();
        assert!(clam.stats().flushes > flushes_before);
        for i in 0..100u64 {
            assert_eq!(clam.lookup(key(i)).unwrap().value, Some(i));
        }
    }

    /// `memory_usage` of a CLAM before any table flushed and after every
    /// table did, each checked against what the tables allocate.
    fn memory_before_and_after_first_flushes(mut clam: Clam<Ssd>) -> MemoryUsage {
        let (tables, cfg) = (clam.num_super_tables(), clam.config().clone());
        // Buffers report their allocation: a slot is the 16-byte entry the
        // budget is quoted in, so every table holds its configured bytes.
        assert_eq!(std::mem::size_of::<Entry>(), ENTRY_SIZE);
        let fresh = clam.memory_usage();
        assert_eq!(fresh.buffers, tables * cfg.buffer_bytes_per_table as usize);
        assert!(fresh.buffers <= cfg.buffer_bytes_total as usize);
        // A table that never flushed holds no slices.
        assert_eq!((fresh.filters, fresh.delete_lists), (0, 0));
        for i in 0..64 * tables as u64 {
            clam.insert(key(i), i).unwrap();
        }
        clam.flush_all().unwrap();
        let usage = clam.memory_usage();
        assert_eq!(usage.buffers, fresh.buffers);
        let (k, m) = (cfg.incarnations_per_table(), cfg.bloom_bits_per_incarnation());
        assert_eq!(usage.filters, tables * BitSlicedBloomSet::slice_bytes(k, m));
        // Further flushes and evictions allocate nothing more.
        for i in 0..400_000u64 {
            clam.insert(key(i), i).unwrap();
        }
        assert!(clam.stats().flushes as usize > tables * k, "the ring of lanes went round");
        assert_eq!(clam.memory_usage().filters, usage.filters);
        usage
    }

    #[test]
    fn memory_usage_reports_buffers_and_filters() {
        // k = 15 here: the slices round up to 16 lanes, past the Bloom
        // budget by that sixteenth (and whole 64-row blocks), never by 2x.
        let clam = small_clam();
        let (tables, k) = (clam.num_super_tables(), clam.config().incarnations_per_table());
        let budget = clam.config().bloom_bytes_total() as usize;
        assert!(!k.is_power_of_two());
        let usage = memory_before_and_after_first_flushes(clam);
        assert!(usage.filters > budget && usage.filters < 2 * budget, "{usage:?} vs {budget}");
        // Exactly: lanes / k of the budget, plus at most one 64-row block
        // (8 bytes a lane) a table.
        let lanes = k.next_power_of_two();
        assert!(usage.filters <= budget / k * lanes + tables * lanes * 8);
    }

    #[test]
    fn bit_slices_at_the_benchmark_geometry_are_the_bloom_budget() {
        // One stripe of the repo benchmark: 16 tables of k = 16 incarnations
        // with 16 384-bit filters, 512 KiB of Bloom budget, all of it used
        // and no more.
        let cfg = ClamConfig::small_test(8 << 20, 1 << 20).unwrap();
        assert_eq!((cfg.num_super_tables(), cfg.incarnations_per_table()), (16, 16));
        assert_eq!((cfg.bloom_bits_per_incarnation(), cfg.bloom_hashes()), (16_384, 11));
        let (budget, buffers) = (cfg.bloom_bytes_total() as usize, cfg.buffer_bytes_total as usize);
        let usage = memory_before_and_after_first_flushes(
            Clam::new(Ssd::intel(8 << 20).unwrap(), cfg).unwrap(),
        );
        assert_eq!((usage.filters, budget), (512 << 10, 512 << 10));
        // The buffers are the other half of the DRAM, to the byte.
        assert_eq!((usage.buffers, buffers), (512 << 10, 512 << 10));
    }

    #[test]
    fn paper_scale_bit_slices_are_the_two_gigabyte_bloom_budget() {
        // §7.1.1's 32 GB / 4 GB configuration, arithmetic only: 16 384
        // super tables of 16 lanes by 65 536 rows.
        let cfg = ClamConfig {
            flash_capacity: 32 << 30,
            dram_bytes: 4 << 30,
            buffer_bytes_total: 2 << 30,
            buffer_bytes_per_table: 128 * 1024,
            ..ClamConfig::small_test(8 << 20, 1 << 20).unwrap()
        };
        cfg.validate().unwrap();
        let per_table = BitSlicedBloomSet::slice_bytes(
            cfg.incarnations_per_table(),
            cfg.bloom_bits_per_incarnation(),
        );
        assert_eq!(cfg.num_super_tables() * per_table, 2 << 30);
        assert_eq!(cfg.bloom_bytes_total(), 2 << 30);
    }

    #[test]
    fn rejects_device_smaller_than_configuration() {
        let cfg = ClamConfig::small_test(16 << 20, 4 << 20).unwrap();
        let ssd = Ssd::intel(4 << 20).unwrap();
        assert!(Clam::new(ssd, cfg).is_err());
    }

    #[test]
    fn insert_batch_matches_sequential_state() {
        let mut seq = small_clam();
        let mut bat = small_clam();
        let ops: Vec<(Key, Value)> = (0..60_000u64).map(|i| (key(i), i)).collect();
        for &(k, v) in &ops {
            seq.insert(k, v).unwrap();
        }
        for chunk in ops.chunks(64) {
            bat.insert_batch(chunk).unwrap();
        }
        // Same flush points, same incarnation counts, same entries.
        assert_eq!(seq.stats().flushes, bat.stats().flushes);
        assert!(bat.stats().flushes > 0, "workload must exercise flushing");
        assert_eq!(seq.approximate_entries(), bat.approximate_entries());
        for i in (0..60_000u64).step_by(61) {
            let a = seq.lookup(key(i)).unwrap();
            let b = bat.lookup(key(i)).unwrap();
            assert_eq!(a.value, b.value, "key {i}");
            assert_eq!(a.source, b.source, "key {i}");
        }
    }

    #[test]
    fn insert_batch_amortizes_latency() {
        let mut seq = small_clam();
        let mut bat = small_clam();
        let ops: Vec<(Key, Value)> = (0..50_000u64).map(|i| (key(i), i)).collect();
        let mut seq_total = SimDuration::ZERO;
        for &(k, v) in &ops {
            seq_total += seq.insert(k, v).unwrap().latency;
        }
        let mut bat_total = SimDuration::ZERO;
        for chunk in ops.chunks(64) {
            bat_total += bat.insert_batch(chunk).unwrap().latency;
        }
        assert!(
            bat_total * 2 < seq_total,
            "batched inserts ({bat_total}) should cost less than half of per-op ({seq_total})"
        );
        assert_eq!(bat.stats().batched_inserts, 50_000);
    }

    #[test]
    fn insert_batch_coalesces_contiguous_flush_writes() {
        let mut clam = small_clam();
        // One giant batch triggers many flushes; with the global log they
        // land on contiguous slots and coalesce.
        let ops: Vec<(Key, Value)> = (0..120_000u64).map(|i| (key(i), i)).collect();
        let out = clam.insert_batch(&ops).unwrap();
        assert!(out.flushed_ops > 0);
        assert!(
            out.coalesced_writes > 0,
            "contiguous incarnation writes should merge (flushed {} ops)",
            out.flushed_ops
        );
        assert_eq!(clam.stats().coalesced_flush_writes, out.coalesced_writes as u64);
        assert!(clam.stats().deferred_flush_time > SimDuration::ZERO);
    }

    #[test]
    fn lookup_batch_matches_sequential_lookups() {
        let mut clam = small_clam();
        let ops: Vec<(Key, Value)> = (0..40_000u64).map(|i| (key(i), i)).collect();
        clam.insert_batch(&ops).unwrap();
        let keys: Vec<Key> =
            (0..500u64).map(|i| if i % 3 == 0 { key(i) } else { key(1_000_000 + i) }).collect();
        let batched = clam.lookup_batch(&keys).unwrap();
        for (i, k) in keys.iter().enumerate() {
            let solo = clam.lookup(*k).unwrap();
            assert_eq!(batched[i].value, solo.value, "key index {i}");
            assert_eq!(batched[i].source, solo.source, "key index {i}");
        }
        assert_eq!(clam.stats().batched_lookups, 500);
    }

    #[test]
    fn lookup_batch_amortizes_buffer_hit_latency() {
        let mut clam = small_clam();
        let ops: Vec<(Key, Value)> = (0..500u64).map(|i| (key(i), i)).collect();
        clam.insert_batch(&ops).unwrap();
        // All keys are still buffered: per-op cost is pure overhead.
        let keys: Vec<Key> = (0..500u64).map(key).collect();
        let mut solo_total = SimDuration::ZERO;
        for &k in &keys {
            solo_total += clam.lookup(k).unwrap().latency;
        }
        let batched = clam.lookup_batch(&keys).unwrap();
        let bat_total = batched.latency;
        assert!(
            bat_total * 2 < solo_total,
            "batched buffer-hit lookups ({bat_total}) should be well under half of per-op ({solo_total})"
        );
        // No flash probes were needed, so no waves were submitted and the
        // batch is pure host time.
        assert_eq!(batched.waves, 0);
        assert_eq!(batched.probe_latency, SimDuration::ZERO);
        assert_eq!(clam.stats().lookup_probe_requests, 0);
    }

    #[test]
    fn single_op_batches_cost_the_same_as_per_op() {
        let mut per_op = small_clam();
        let mut batched = small_clam();
        let solo = per_op.insert(key(1), 1).unwrap().latency;
        let batch = batched.insert_batch(&[(key(1), 1)]).unwrap().latency;
        assert_eq!(solo, batch, "a batch of one must not cost more than a per-op insert");
        let solo = per_op.lookup(key(1)).unwrap().latency;
        let batch = batched.lookup_batch(&[key(1)]).unwrap();
        assert_eq!(
            solo, batch[0].latency,
            "a batch of one must not cost more than a per-op lookup"
        );
        assert_eq!(solo, batch.latency, "batch-of-one elapsed time equals the per-op charge");
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let mut clam = small_clam();
        let out = clam.insert_batch(&[]).unwrap();
        assert_eq!(out.ops, 0);
        assert_eq!(out.latency, SimDuration::ZERO);
        assert!(clam.lookup_batch(&[]).unwrap().is_empty());
        assert_eq!(clam.stats().total_ops(), 0);
    }

    #[test]
    fn batched_and_perop_paths_interleave_safely() {
        let mut clam = small_clam();
        for round in 0..20u64 {
            let ops: Vec<(Key, Value)> =
                (0..2_000u64).map(|i| (key(round * 2_000 + i), i)).collect();
            clam.insert_batch(&ops).unwrap();
            // Per-op traffic between batches sees every batched write.
            for i in 0..50u64 {
                let k = key(round * 2_000 + i);
                assert_eq!(clam.lookup(k).unwrap().value, Some(i));
            }
        }
    }

    #[test]
    fn update_based_eviction_works_under_batching() {
        let mut cfg = ClamConfig::small_test(2 << 20, 1 << 20).unwrap();
        cfg.eviction = EvictionPolicy::UpdateBased;
        let mut clam = Clam::new(Ssd::intel(2 << 20).unwrap(), cfg).unwrap();
        // Enough churn that partial-discard evictions (which read flash
        // mid-batch) interleave with deferred batch writes.
        let ops: Vec<(Key, Value)> =
            (0..80_000u64).map(|i| if i % 5 < 2 { (key(i / 3), i) } else { (key(i), i) }).collect();
        for chunk in ops.chunks(256) {
            clam.insert_batch(chunk).unwrap();
        }
        assert!(clam.stats().reinsertions > 0, "partial discard should retain entries");
        // Recent keys must be readable.
        let recent = clam.lookup(key(79_999)).unwrap();
        assert_eq!(recent.value, Some(79_999));
    }

    #[test]
    fn split_balanced_covers_every_table_and_strands_no_chunk() {
        // Per-table op counts, empty tables included, as run boundaries.
        let starts_of = |counts: &[usize]| -> Vec<usize> {
            std::iter::once(0)
                .chain(counts.iter().scan(0, |at, n| {
                    *at += n;
                    Some(*at)
                }))
                .collect()
        };
        let cases: [&[usize]; 6] = [
            &[5, 5, 5, 5],
            &[100, 1, 1, 1],
            &[1, 1, 1, 100],
            &[0, 7, 0, 0, 3, 0],
            &[0, 0, 9],
            &[4, 0, 4, 0, 4, 0, 4, 0],
        ];
        for counts in cases {
            let starts = starts_of(counts);
            let occupied = counts.iter().filter(|&&n| n > 0).count();
            for parallelism in 1..=6 {
                let chunks = split_balanced(&starts, parallelism);
                assert_eq!(chunks.len(), parallelism.min(occupied), "{counts:?} / {parallelism}");
                // Contiguous, in order, covering every table with ops.
                assert_eq!(chunks[0].start, 0);
                assert!(chunks.windows(2).all(|w| w[0].end == w[1].start));
                assert!(starts[chunks.last().unwrap().end] == *starts.last().unwrap());
                // Every chunk has work: nobody waits at the rendezvous for
                // a chunk that never takes a lock.
                for chunk in &chunks {
                    assert!(starts[chunk.end] > starts[chunk.start], "{counts:?} / {parallelism}");
                }
            }
        }
        // Balanced by ops, not by tables.
        assert_eq!(split_balanced(&starts_of(&[100, 1, 1, 1]), 2), vec![0..1, 1..4]);
        assert_eq!(split_balanced(&starts_of(&[1, 1, 1, 100]), 2), vec![0..3, 3..4]);
    }

    #[test]
    fn fan_out_needs_a_floor_of_ops_per_worker() {
        for floor in [SPAWN_FLOOR_OPS, SPAWN_FLOOR_KEYS] {
            assert_eq!(fan_out(0, floor, 16), 1);
            assert_eq!(fan_out(64, floor, 16), 1);
            assert_eq!(fan_out(2 * floor - 1, floor, 16), 1);
            assert_eq!(fan_out(usize::MAX, floor, 1), 1, "one group never splits");
            let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
            assert_eq!(fan_out(2 * floor, floor, 16), 2.min(cores));
            assert_eq!(fan_out(usize::MAX, floor, 3), 3.min(cores));
            assert!(fan_out(usize::MAX, floor, usize::MAX) <= cores);
        }
    }

    #[test]
    fn table_partitioning_spreads_keys() {
        let clam = small_clam();
        let tables = clam.num_super_tables();
        let mut counts = vec![0usize; tables];
        for i in 0..10_000u64 {
            counts[clam.table_of(key(i))] += 1;
        }
        let expected = 10_000 / tables;
        assert!(counts.iter().all(|&c| c > expected / 3 && c < expected * 3));
    }

    /// One super table, Bloom filters disabled so every lookup probes
    /// every incarnation deterministically.
    fn deterministic_probe_config() -> ClamConfig {
        let cfg = ClamConfig {
            flash_capacity: 8 << 20,
            dram_bytes: 1 << 20,
            buffer_bytes_total: 32 * 1024,
            buffer_bytes_per_table: 32 * 1024,
            entry_size: 16,
            max_buffer_utilization: 0.5,
            eviction: EvictionPolicy::Fifo,
            filter_mode: FilterMode::Disabled,
            layout: crate::config::FlashLayoutMode::GlobalLog,
            enable_buffering: true,
        };
        cfg.validate().unwrap();
        cfg
    }

    /// A single-super-table CLAM with `rounds` incarnations of a few
    /// entries each (so probe chains never overflow).
    fn deterministic_probe_clam(device: Ssd, rounds: usize) -> Clam<Ssd> {
        let cfg = deterministic_probe_config();
        assert!(rounds <= cfg.incarnations_per_table());
        let mut clam = Clam::new(device, cfg).unwrap();
        for round in 0..rounds as u64 {
            for i in 0..8u64 {
                clam.insert(key(round * 100 + i), i).unwrap();
            }
            clam.flush_all().unwrap();
        }
        clam
    }

    #[test]
    fn queued_lookup_batch_overlaps_probes_on_the_device_queue() {
        // Intel-class SSD: overlapped queue, depth 8. 64 absent keys with
        // filters disabled probe 4 incarnations each — 4 waves of 64 reads.
        let mut clam = deterministic_probe_clam(Ssd::intel(8 << 20).unwrap(), 4);
        clam.reset_stats();
        let keys: Vec<Key> = (0..64u64).map(|i| hash_with_seed(i, 0xab5e7)).collect();
        let batch = clam.lookup_batch(&keys).unwrap();
        assert_eq!(batch.ops(), 64);
        assert_eq!(batch.hits(), 0);
        assert_eq!(batch.waves, 4);
        assert_eq!(batch.probe_reads, 4 * 64);
        // Makespan accounting: the batch's flash time is far below the sum
        // of the per-key read charges (8 lanes -> ~8x overlap).
        let summed: SimDuration =
            batch.outcomes.iter().map(|o| o.latency).fold(SimDuration::ZERO, |acc, l| acc + l);
        assert!(
            batch.latency * 4 < summed,
            "queued batch ({}) should undercut summed per-key charges ({summed})",
            batch.latency
        );
        // Stats ledger.
        let stats = clam.stats();
        assert_eq!(stats.lookup_batches_submitted, 1);
        assert_eq!(stats.lookup_probe_waves, 4);
        assert_eq!(stats.lookup_probe_requests, 4 * 64);
        assert!(stats.lookup_probes_overlapped > 0, "SSD lanes must overlap probes");
        let text = stats.to_string();
        assert!(text.contains("queued lookups: 1 batches, 4 waves"), "{text}");
    }

    #[test]
    fn queued_lookup_batch_matches_the_cost_model_exactly() {
        use crate::analysis::FlashCostModel;
        use flashsim::{DeviceProfile, QueueCapabilities};
        const ROUNDS: usize = 4;
        // 48 divides evenly into every swept lane count; 42 leaves a tail
        // at depth 8 (the case where the ring model strictly beats the
        // barrier model).
        for keys_n in [48usize, 42] {
            for depth in [1usize, 2, 8] {
                let profile = DeviceProfile {
                    queue: QueueCapabilities::overlapped(depth),
                    ..DeviceProfile::intel_x18m()
                };
                let build = || {
                    deterministic_probe_clam(
                        Ssd::with_profile(8 << 20, profile.clone()).unwrap(),
                        ROUNDS,
                    )
                };
                let keys: Vec<Key> =
                    (0..keys_n as u64).map(|i| hash_with_seed(i, 0x1017e)).collect();
                let model = FlashCostModel::from_profile(&profile);

                // Streaming ring pipeline == ring model, exactly.
                let mut clam = build();
                let ring = clam.lookup_batch(&keys).unwrap();
                assert_eq!(ring.waves, ROUNDS);
                assert_eq!(ring.probe_reads, ROUNDS * keys_n);
                assert_eq!(ring.reaps, ROUNDS * keys_n);
                assert_eq!(ring.ring_depth_high_water, keys_n.min(probe_window(depth)));
                assert_eq!(
                    ring.probe_latency,
                    model.lookup_ring_makespan(keys_n, ROUNDS, depth),
                    "ring pipeline and closed-form ring model must agree at \
                     {keys_n} keys, depth {depth}"
                );

                // Barrier wave pipeline == wave model, exactly.
                let mut clam = build();
                let waves = clam.lookup_batch_waves(&keys).unwrap();
                assert_eq!(waves.waves, ROUNDS);
                assert_eq!(waves.reaps, 0);
                assert_eq!(
                    waves.probe_latency,
                    model.lookup_batch_makespan(keys_n, ROUNDS, depth),
                    "wave pipeline and closed-form wave model must agree at \
                     {keys_n} keys, depth {depth}"
                );

                // The ring never loses to the barrier, and wins exactly
                // the modelled tail when the lanes do not divide the keys.
                assert!(ring.probe_latency <= waves.probe_latency);
                let predicted = model.ring_over_waves_speedup(keys_n, ROUNDS, depth);
                let measured = waves.probe_latency.as_nanos() as f64
                    / ring.probe_latency.as_nanos().max(1) as f64;
                assert!(
                    (measured - predicted).abs() < 1e-9,
                    "ring-over-waves speedup {measured} vs model {predicted}"
                );
            }
        }
    }

    /// `rounds` incarnations of one super table, Bloom filters disabled:
    /// the oldest holds `keys_n` keys (returned), the younger ones a few
    /// others, so each returned key is found after exactly `rounds` reads.
    fn windowed_probe_clam<D: Device>(
        device: D,
        keys_n: u64,
        rounds: usize,
    ) -> (Clam<D>, Vec<Key>) {
        let mut clam = Clam::new(device, deterministic_probe_config()).unwrap();
        let keys: Vec<Key> = (0..keys_n).map(|i| hash_with_seed(i, 0x77ee)).collect();
        for (i, &k) in keys.iter().enumerate() {
            clam.insert(k, i as u64).unwrap();
        }
        clam.flush_all().unwrap();
        for round in 1..rounds as u64 {
            for i in 0..8u64 {
                clam.insert(key(round * 100 + i), i).unwrap();
            }
            clam.flush_all().unwrap();
        }
        (clam, keys)
    }

    #[test]
    fn lookup_batches_hold_at_most_a_window_of_reads_in_flight() {
        use crate::analysis::FlashCostModel;
        use flashsim::{DeviceProfile, FileDevice};
        const ROUNDS: usize = 2;
        let profile = DeviceProfile::intel_x18m();
        let lanes = profile.queue.ring_lanes();
        let window = probe_window(lanes);
        let keys_n = 10 * window + 7;

        // Simulated SSD: ten windows of flash-resident keys finish in the
        // time the closed form gives for all of them admitted at once.
        let ssd = Ssd::with_profile(8 << 20, profile.clone()).unwrap();
        let (mut clam, keys) = windowed_probe_clam(ssd, keys_n as u64, ROUNDS);
        let per_key: Vec<Option<Value>> =
            keys.iter().map(|&k| clam.lookup(k).unwrap().value).collect();
        clam.reset_stats();
        let batch = clam.lookup_batch(&keys).unwrap();
        assert_eq!(batch.values(), per_key);
        assert_eq!(batch.hits(), keys_n);
        assert_eq!(batch.probe_reads, ROUNDS * keys_n);
        assert_eq!(batch.ring_depth_high_water, window);
        assert_eq!(clam.stats().lookup_ring_depth_high_water, window as u64);
        assert_eq!(
            batch.probe_latency,
            FlashCostModel::from_profile(&profile).lookup_ring_makespan(keys_n, ROUNDS, lanes)
        );

        // Real positioned I/O: latencies are measured, so only the depth
        // and the outcomes are exact.
        let path = std::env::temp_dir().join(format!("clam-window-{}.img", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let file = FileDevice::with_queue_depth(&path, 8 << 20, 4).unwrap();
        let file_window = probe_window(file.queue().ring_lanes());
        let keys_n = 10 * file_window + 7;
        let (mut clam, keys) = windowed_probe_clam(file, keys_n as u64, ROUNDS);
        let per_key: Vec<Option<Value>> =
            keys.iter().map(|&k| clam.lookup(k).unwrap().value).collect();
        let batch = clam.lookup_batch(&keys).unwrap();
        assert_eq!(batch.values(), per_key);
        assert_eq!(batch.hits(), keys_n);
        assert_eq!(batch.probe_reads, ROUNDS * keys_n);
        assert!(
            (1..=file_window).contains(&batch.ring_depth_high_water),
            "{} reads in flight, window {file_window}",
            batch.ring_depth_high_water
        );
        drop(clam);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lru_reinserts_route_through_the_queued_flush_submission() {
        let mut cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
        cfg.eviction = EvictionPolicy::Lru;
        let mut clam = Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap();
        for i in 0..40_000u64 {
            clam.insert(key(i), i).unwrap();
        }
        assert!(clam.stats().flushes > 0);
        let flushes_before = clam.stats().flushes;
        let reinserts_before = clam.stats().reinsertions;
        let async_before = clam.stats().async_reinsert_time;
        // Batched lookups of flash-resident keys: every hit re-inserts, and
        // the buffers are already full, so re-insertion must flush — through
        // the deferred/queued submission, not blocking per-table writes.
        let keys: Vec<Key> = (0..2_000u64).map(key).collect();
        for chunk in keys.chunks(256) {
            let batch = clam.lookup_batch(chunk).unwrap();
            assert_eq!(batch.hits(), chunk.len());
        }
        let stats = clam.stats();
        assert!(stats.reinsertions > reinserts_before, "LRU lookups should re-insert flash hits");
        assert!(stats.flushes > flushes_before, "re-insertion into full buffers must flush");
        assert!(
            stats.async_reinsert_time > async_before,
            "re-insert flush cost must be accounted asynchronously"
        );
        // Re-insertion always lands the key in the buffer by the end of
        // its lookup call (later re-inserts may flush it back out, so probe
        // once to re-insert, then observe the buffered copy).
        assert_eq!(clam.lookup(key(0)).unwrap().value, Some(0));
        let again = clam.lookup(key(0)).unwrap();
        assert_eq!(again.value, Some(0));
        assert_eq!(again.source, LookupSource::Buffer);
    }

    #[test]
    fn flush_writes_ride_the_ring_and_fill_the_write_ledger() {
        let cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
        let mut clam = Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap();
        let ops: Vec<(u64, u64)> = (0..40_000u64).map(|i| (key(i), i)).collect();
        for chunk in ops.chunks(512) {
            clam.insert_batch(chunk).unwrap();
        }
        clam.flush_all().unwrap();
        let stats = clam.stats();
        assert!(stats.flushes > 0);
        assert!(
            stats.flush_ring_reaps > 0,
            "ring-driven flushes must reap their writes off the ring: {stats}"
        );
        // Every ring reap of this write-only workload is on the flush
        // ledger, and they all reached the device's submission queue.
        let io = clam.device().stats();
        assert_eq!(io.requests_reaped, stats.flush_ring_reaps + stats.lookup_ring_reaps);
        assert!(io.ring_depth_high_water >= 1);
        // The ledger renders in the Display summary.
        assert!(stats.to_string().contains("write ring:"), "{stats}");
        // No mixed traffic here: inserts never put a read on the ring
        // (SSD evictions trim, they do not read back).
        assert_eq!(stats.mixed_ring_depth_high_water, 0, "{stats}");
    }

    #[test]
    fn lru_reinsert_flushes_share_the_lookup_ring() {
        let mut cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
        cfg.eviction = EvictionPolicy::Lru;
        let mut clam = Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap();
        for i in 0..40_000u64 {
            clam.insert(key(i), i).unwrap();
        }
        let flushes_before = clam.stats().flushes;
        // Flash-hit lookups re-insert, the full buffers flush, and those
        // flush writes are admitted into the *same* ring the probe reads
        // ran on — one mixed read/write stream per batch.
        let keys: Vec<Key> = (0..2_000u64).map(key).collect();
        for chunk in keys.chunks(256) {
            clam.lookup_batch(chunk).unwrap();
        }
        let stats = clam.stats();
        assert!(stats.flushes > flushes_before, "re-insertion must have flushed");
        assert!(stats.lookup_ring_reaps > 0, "probes reaped on the ring: {stats}");
        assert!(stats.flush_ring_reaps > 0, "re-insert flush writes reaped on the ring: {stats}");
        assert!(
            stats.mixed_ring_depth_high_water > 0,
            "reads and writes shared a ring, so the mixed high-water must register: {stats}"
        );
    }

    #[test]
    fn barrier_write_path_stays_observationally_equivalent_per_op() {
        // Same per-op workload (inserts with eviction churn, deletes,
        // lookups) on the default ring path and the barrier reference:
        // stored state and flash traffic must match exactly. The
        // cross-backend batched version lives in the property suite.
        let run = |barrier: bool| {
            let mut cfg = ClamConfig::small_test(4 << 20, 1 << 20).unwrap();
            cfg.eviction = EvictionPolicy::UpdateBased;
            let mut clam = Clam::new(Ssd::intel(4 << 20).unwrap(), cfg).unwrap();
            clam.set_barrier_writes(barrier);
            for i in 0..30_000u64 {
                clam.insert(key(i), i).unwrap();
                if i % 7 == 0 {
                    clam.delete(key(i / 2)).unwrap();
                }
                if i % 11 == 0 {
                    clam.update(key(i / 3), i).unwrap();
                }
            }
            clam.flush_all().unwrap();
            let values: Vec<_> =
                (0..30_000u64).step_by(97).map(|i| clam.lookup(key(i)).unwrap().value).collect();
            let stats = clam.stats();
            let io = clam.device().stats();
            (
                values,
                stats.flushes,
                stats.forced_evictions,
                stats.reinsertions,
                (io.writes, io.bytes_written, io.trims, io.erases),
            )
        };
        let ring = run(false);
        let barrier = run(true);
        assert_eq!(ring.0, barrier.0, "looked-up values diverge");
        assert_eq!(
            (ring.1, ring.2, ring.3),
            (barrier.1, barrier.2, barrier.3),
            "flush/eviction stats diverge"
        );
        assert_eq!(ring.4, barrier.4, "device write/trim/erase traffic diverges");
    }
}
