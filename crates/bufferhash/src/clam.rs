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
//! keys' probe rounds interleave and the queue stays full. The batch's
//! flash time is the ring **makespan**
//! ([`flashsim::CompletionRing::makespan`]).
//! A per-op [`Clam::lookup`] is a batch of one over the same pipeline.
//!
//! There is **one write path** too: every insert and delete — scalar or
//! batched, through `&mut self` or through `&self` — runs the per-table
//! bodies ([`Clam::fine_insert`], [`Clam::fine_insert_batch`],
//! [`Clam::fine_delete`]), whose flushes, evictions and drains ride the
//! same completion ring as the probes. The `&mut self` methods are thin
//! veneers over them. DESIGN.md "Lock hierarchy" names every lock those
//! bodies take and in what order.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

use flashsim::queue::{IoTicket, RingCompletion};
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
/// **makespan-accounted**: probe reads stream through the device's
/// completion ring and cost the ring's makespan over the queue lanes, not
/// the summed per-read time, so a miss-heavy batch on an overlapped
/// device finishes far sooner than its per-key latencies add up to. Each
/// key's own [`LookupOutcome::latency`] still records what that lookup
/// would have cost charged alone (dispatch + DRAM probes + its own page
/// reads), which is what [`ClamStats::lookups`](crate::ClamStats) samples.
#[derive(Debug, Clone, Default)]
pub struct BatchLookupOutcome {
    /// One outcome per key, in input order.
    pub outcomes: Vec<LookupOutcome>,
    /// Elapsed simulated time of the whole batch: per-key host work plus
    /// the probe ring's makespan.
    pub latency: SimDuration,
    /// The flash share of [`latency`](Self::latency): the makespan of the
    /// probe reads on the ring (zero when every key resolved in memory).
    pub probe_latency: SimDuration,
    /// Probe rounds: the deepest key's chain of page reads. Rounds of
    /// different keys interleave on the ring; this is the depth.
    pub waves: usize,
    /// Total flash page-read requests submitted across all rounds.
    pub probe_reads: usize,
    /// Completions delivered through [`Device::reap`](flashsim::Device::reap).
    pub reaps: usize,
    /// In-flight depth high-water mark of the completion ring: at most the
    /// probe window, however many keys the batch holds.
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
/// "Lock hierarchy").
///
/// * `op` — the **operation lock**: serializes whole logical mutations on
///   this table. A writer holds it across its entire op (a scalar insert
///   or delete, or a batch's whole run of inserts for this table, flush
///   chains included), so per-table op order is well defined even though
///   the state lock below is released between steps.
/// * `state` — the **state lock**: protects the table's mutable data (the
///   cuckoo buffer, delete list, Bloom filters and incarnation queue). It
///   is a *leaf* lock: nothing else is acquired while it is held. It
///   covers one `SuperTable` method call, or — on the batch insert path —
///   one **run** of consecutive buffer inserts, ending at the first key
///   that finds the buffer full; it is released before any flush chain,
///   and `flush_table` takes it again call by call. That is what lets a
///   flush of one table force-evict incarnations of *another* table
///   (cross-table log-slot reclamation) without any lock-ordering
///   concerns.
/// * `epoch` — a per-table seqlock epoch, odd while a writer holds the op
///   lock. Lock-free readers ([`Clam::try_probe_memory`]) validate
///   against it so they never build a verdict from a half-applied
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
    /// Write-lock (op lock) acquisitions.
    acquisitions: AtomicU64,
    /// Acquisitions that found the op lock already held.
    contended: AtomicU64,
    /// Number of tables currently write-locked.
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

    /// Current seqlock epoch of table `t` (odd while a writer's logical
    /// op is in progress).
    fn epoch_of(&self, t: usize) -> u64 {
        self.slots[t].epoch.load(Ordering::SeqCst)
    }

    /// Acquires table `t`'s operation lock for a logical write, recording
    /// the lock ledger and marking the table's epoch odd until the guard
    /// drops.
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

/// RAII guard of one table's operation lock.
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

/// Inserts a spawned worker must carry before `StripedClam` fans an insert
/// batch's stripes out over threads; below it [`fan_out`] keeps the batch
/// on the caller's thread.
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

/// Keys a spawned worker must carry before `StripedClam` fans a lookup
/// batch's stripes out over threads. Lower than [`SPAWN_FLOOR_OPS`] because a lookup that
/// probes flash costs 2 µs of host time, not 0.23: on the same host and
/// store, `StripedClam::lookup_batch` over keys that live on flash breaks
/// even around 256 keys per worker and is 1.6x faster split from
/// 512 up (DESIGN.md has the table). A batch cannot know beforehand where
/// its keys will resolve; one of this size that resolves entirely in the
/// buffers pays 55 to 100 µs for a spawn it did not need, one that
/// resolves in the filters breaks even.
pub(crate) const SPAWN_FLOOR_KEYS: usize = 512;

/// How many threads a batch of `ops` operations over `groups` independent
/// stripes should run on: one per `floor` operations, never more than
/// there are stripes or cores. Decided
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
/// [`ClamStats`] ledger. Writers take this lock around flush chains and
/// ring drains, and once more to record their latency in the ledger: once
/// per scalar insert or delete, once per batch. Memory probes never touch
/// it. Because a flush chain runs entirely under
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
    /// The incarnation writes deferred for coalescing: the *current*
    /// contiguous run, as its offset and bytes (a non-contiguous write
    /// admits the finished run to the ring first, so flush traffic
    /// streams).
    pending_run: Option<(u64, Vec<u8>)>,
    /// True while a batched insert is collecting flush writes for
    /// coalescing.
    coalesce_writes: bool,
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
/// The store is internally split for **per-super-table write
/// concurrency**: each [`SuperTable`]'s mutable state lives behind its own
/// locks (a `TableSet`), and the shared pieces — device, completion ring,
/// log allocator, stats ledger — live in a small mutex-protected
/// `ClamCore`. Writes run through `&self`
/// ([`fine_insert`](Self::fine_insert),
/// [`fine_insert_batch`](Self::fine_insert_batch),
/// [`fine_delete`](Self::fine_delete)), so writers to *different* tables
/// of one stripe commit in parallel; [`insert`](Self::insert),
/// [`insert_batch`](Self::insert_batch) and [`delete`](Self::delete) are
/// the same calls for an exclusive owner. Lookups that may touch flash
/// need `&mut self` (the probe pipeline owns the core); memory-only
/// probes ([`probe_memory`](Self::probe_memory)) run through `&self`.
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
            pending_run: None,
            coalesce_writes: false,
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
    // Public hash-table operations for an exclusive owner (`&mut self`)
    // ------------------------------------------------------------------

    /// Inserts (or updates) `key` with `value`.
    ///
    /// Updates are lazy (§5.1.1): if an older value for the key is already
    /// on flash it is left there; lookups return the newest value because
    /// incarnations are examined youngest-first. The same call as
    /// [`fine_insert`](Self::fine_insert).
    pub fn insert(&mut self, key: Key, value: Value) -> Result<InsertOutcome> {
        self.fine_insert(key, value)
    }

    /// Alias for [`insert`](Self::insert); updates use the same lazy path.
    pub fn update(&mut self, key: Key, value: Value) -> Result<InsertOutcome> {
        self.insert(key, value)
    }

    /// Inserts (or updates) a batch of key/value pairs in one call.
    ///
    /// Operations are applied in input order *per super table* (ops are
    /// stably grouped by super table first), so as long as the flash log
    /// has not wrapped, the resulting state is observationally equivalent
    /// to calling [`insert`](Self::insert) for each pair in order: the
    /// same lookups succeed, the same buffers fill at the same points and
    /// the same flushes happen. Once capacity wraps, flush order *across*
    /// tables (which differs from the sequential interleaving) decides
    /// which incarnations the log overwrites, so forced-eviction victims
    /// may differ from a sequential execution — both are valid FIFO
    /// behavior. What always changes is the cost: the per-call dispatch
    /// overhead is paid once for the whole batch, each super table's
    /// buffer is walked in one pass, and incarnation writes that land on
    /// contiguous log slots are coalesced into a single sequential device
    /// write. The same call as
    /// [`fine_insert_batch`](Self::fine_insert_batch).
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
        self.fine_insert_batch(ops)
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
    /// The batch is charged the ring **makespan**, not the summed
    /// per-read time.
    ///
    /// Under non-reinserting eviction policies (FIFO, update-based,
    /// priority — the default), lookups mutate nothing, so results
    /// (values, sources, flash read counts, hit/miss stats) are identical
    /// to per-op [`lookup`](Self::lookup) calls in the same order; only
    /// the charged latency differs. This identity is property-tested on
    /// all five device backends. The caveat is LRU eviction:
    /// re-insertions of flash-hit keys are applied *after* the batch
    /// resolves (in the order the keys resolved out of the probe loop), as
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
    /// returns `None` instead of a verdict when a writer's
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

    /// Returns `true` while a writer's logical op on `key`'s
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
    /// and reclaimed at eviction time). The same call as
    /// [`fine_delete`](Self::fine_delete).
    pub fn delete(&mut self, key: Key) -> Result<SimDuration> {
        self.fine_delete(key)
    }

    /// Flushes every non-empty buffer to flash (e.g. before a bulk merge or
    /// shutdown). Returns the total simulated latency.
    ///
    /// The per-table incarnation writes coalesce into contiguous runs that
    /// stream into the device's completion ring as they form (contiguous
    /// log slots merge into sequential writes, independent runs overlap on
    /// the ring's lanes), so a whole-index flush costs the makespan of the
    /// ring schedule rather than the sum of blocking per-table writes.
    pub fn flush_all(&mut self) -> Result<SimDuration> {
        self.core.get_mut().flush_all(&self.tables)
    }

    /// Declares `idle` simulated time during which the device may perform
    /// background work (SSD garbage collection).
    pub fn idle(&mut self, idle: SimDuration) {
        self.core.get_mut().device.on_idle(idle);
    }

    // ------------------------------------------------------------------
    // The write path (`&self`: per-table op locks + core lock)
    // ------------------------------------------------------------------

    /// Per-op insert: takes only `key`'s table op lock plus the short core
    /// lock (for a flush and its ack drain, and to record the op in the
    /// ledger), so concurrent inserts to *different* tables of this stripe
    /// commit in parallel.
    pub fn fine_insert(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        let t = self.table_of(key);
        let _guard = self.tables.lock_for_write(t);
        let mut outcome = None;
        self.insert_run(t, &[(key, value)], BASE_OP_OVERHEAD, |op| outcome = Some(op))?;
        let outcome = outcome.expect("a run of one yields one outcome");
        record_insert(&mut self.core.lock().stats, &outcome);
        Ok(outcome)
    }

    /// Per-op delete (op lock + a brief core lock for the ledger only —
    /// deletes never touch flash).
    pub fn fine_delete(&self, key: Key) -> Result<SimDuration> {
        let t = self.table_of(key);
        let _guard = self.tables.lock_for_write(t);
        let latency = BASE_OP_OVERHEAD + self.mem_words_cost(BUFFER_PROBE_WORDS + 2);
        self.tables.with(t, |table| table.delete(key));
        self.core.lock().stats.deletes.record(latency);
        Ok(latency)
    }

    /// Batched insert: groups the batch by super table and commits each
    /// table's ops, in input order, under that table's op lock, tables in
    /// ascending order, on the caller's thread — so other writers to
    /// *other* tables of the stripe proceed meanwhile, and one table op
    /// lock is held at a time. Flush writes coalesce over the whole batch
    /// and are drained (and charged) once at its end; per-op outcomes are
    /// folded into the ledger there too, under one core lock.
    pub fn fine_insert_batch(&self, ops: &[(Key, Value)]) -> Result<BatchInsertOutcome> {
        let mut outcome = BatchInsertOutcome { ops: ops.len(), ..Default::default() };
        if ops.is_empty() {
            return Ok(outcome);
        }
        let _batch = self.batch_lock.lock();
        // One run per table, in ascending table order, input order kept
        // within a run.
        let (grouped, starts) = group_stable(ops, self.tables.len(), |op| self.table_of(op.0));
        let dispatch = batch_dispatch(ops.len());
        let coalesced_before = {
            let mut core = self.core.lock();
            core.stats.batched_inserts += ops.len() as u64;
            core.coalesce_writes = true;
            core.stats.coalesced_flush_writes
        };
        let mut done = Vec::with_capacity(ops.len());
        let mut failure = None;
        for t in 0..self.tables.len() {
            let run = &grouped[starts[t]..starts[t + 1]];
            if run.is_empty() {
                continue;
            }
            let _guard = self.tables.lock_for_write(t);
            if let Err(e) = self.insert_run(t, run, dispatch, |op| done.push(op)) {
                failure = Some(e);
                break;
            }
        }
        // One core lock to record every op, close the coalescing window
        // and drain the write ring — even on failure, so the device stays
        // consistent with the in-memory incarnation metadata. Finished
        // coalesced runs were already *admitted* as they formed; this
        // drain admits the final run and reaps the ring, and only its
        // makespan is "deferred" time (charged to the batch, not to any
        // triggering insert). The outcomes are consumed, and so freed,
        // before the drain: kept alive across it they pin the top of the
        // heap while the drain frees the flush images under them (0.6 MiB
        // of arena growth over the benchmark's 1.2M-key preload).
        let mut core = self.core.lock();
        for op in done {
            record_insert(&mut core.stats, &op);
            outcome.latency += op.latency;
            outcome.flushed_ops += usize::from(op.flushed);
            outcome.evictions += op.evictions;
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

    /// The insert body: applies `run` — ops of table `t`, in order — and
    /// hands each op's outcome to `done`; the caller holds `t`'s op lock
    /// and records the outcomes in the ledger ([`record_insert`]).
    /// `dispatch` is the fixed overhead charged to each op (full for a
    /// per-op call, amortized for a batched one).
    ///
    /// The state lock is taken once per run of buffer inserts, not once
    /// per key: it is held until the first key that finds the buffer full
    /// and released before that key's flush chain, which takes the core
    /// lock (and the state locks it needs) itself. A full buffer rejects
    /// a key before displacing anything, so retrying that key after the
    /// flush is side-effect free.
    fn insert_run(
        &self,
        t: usize,
        run: &[(Key, Value)],
        dispatch: SimDuration,
        mut done: impl FnMut(InsertOutcome),
    ) -> Result<()> {
        let latency = dispatch + self.mem_words_cost(BUFFER_PROBE_WORDS + 2);
        let mut rest = run;
        while !rest.is_empty() {
            let stored = self.tables.with(t, |table| {
                rest.iter()
                    .take_while(|&&(key, value)| {
                        matches!(table.buffer_insert(key, value), BufferInsert::Stored(_))
                    })
                    .count()
            });
            for _ in 0..stored {
                done(InsertOutcome { latency, flushed: false, evictions: 0 });
            }
            rest = &rest[stored..];
            if let Some((&(key, value), later)) = rest.split_first() {
                done(self.insert_after_flush(t, key, value, latency)?);
                rest = later;
            }
        }
        Ok(())
    }

    /// Stores a key that found table `t`'s buffer full: takes the core
    /// lock and runs the flush-then-retry loop under it — so allocator
    /// grant order equals ring admission order — then, outside a batch's
    /// coalescing window, drains the ring before the op is acknowledged.
    /// `latency` is what the op has been charged so far. Flush-side
    /// counters are recorded by the core itself.
    fn insert_after_flush(
        &self,
        t: usize,
        key: Key,
        value: Value,
        mut latency: SimDuration,
    ) -> Result<InsertOutcome> {
        let mut evictions = 0usize;
        // `attempts` doubles as the cascade depth: when partial-discard
        // eviction keeps retaining whole incarnations the policy degrades
        // to full discard after `k` rounds (§7.4), guaranteeing
        // termination.
        let mut attempts = 0usize;
        let mut core = self.core.lock();
        loop {
            match core.flush_table(&self.tables, t, attempts) {
                Ok(flush) => {
                    latency += flush.latency;
                    evictions += flush.evictions;
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
            let stored = self.tables.with(t, |table| table.buffer_insert(key, value));
            if matches!(stored, BufferInsert::Stored(_)) {
                break;
            }
        }
        // A per-op call owns its ring: the flush chain's device time (its
        // makespan, overlap-accounted) is charged to this insert. Batched
        // calls leave the ring open; the batch-end drain charges it.
        if !core.coalesce_writes {
            latency += core.drain_write_ring()?;
            // The acknowledgment point (DESIGN.md "Crash consistency"): a
            // per-op insert is acked only once nothing of its flush chain
            // remains deferred or in flight on the ring.
            debug_assert!(
                core.pending_run.is_none() && core.ring.is_none(),
                "insert acked with flush writes still in flight"
            );
        }
        Ok(InsertOutcome { latency, flushed: true, evictions })
    }
}

/// Super table responsible for `key` in a CLAM of `tables` super tables.
pub fn table_of(key: Key, tables: usize) -> usize {
    (hash_with_seed(key, 0x7a_b1e5) % tables as u64) as usize
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
    pub(super) fn recover_scan(&mut self, tables: &TableSet) -> Result<RecoveryReport> {
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

    /// Buffer and delete-list checks plus probe planning: resolves every
    /// key it can from memory (recording its stats) and returns a probe
    /// state machine for each key that must touch flash.
    fn plan_lookups(
        &mut self,
        tables: &TableSet,
        keys: &[Key],
        dispatch: SimDuration,
    ) -> LookupPlan {
        // Input positions grouped by super table, each table's keys in
        // input order: one hash per key.
        let positions: Vec<usize> = (0..keys.len()).collect();
        let (order, starts) =
            group_stable(&positions, self.num_tables, |&slot| self.table_of(keys[slot]));
        let mut plan = LookupPlan {
            out: vec![None; keys.len()],
            pending: Vec::new(),
            reinserts: Vec::new(),
            host_time: SimDuration::ZERO,
        };
        let mut t = 0;
        for (at, &slot) in order.iter().enumerate() {
            while at >= starts[t + 1] {
                t += 1;
            }
            let key = keys[slot];
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
    pub(super) fn lookup_batch_ring(
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
    /// makespan growth — makespan-accounted like every other flush.
    pub(super) fn apply_reinserts(
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
    pub(super) fn flush_all(&mut self, tables: &TableSet) -> Result<SimDuration> {
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
    /// retained re-inserts. Writes are admitted to the call's shared
    /// completion ring without waiting, so they overlap each other and any
    /// probe traffic on the same ring.
    ///
    /// Runs entirely under one core lock, so the allocator grant and the
    /// ring admission of the resulting write are atomic — grant order *is*
    /// admission order, which devices apply as data-effect order (the ack
    /// invariant of DESIGN.md "Crash consistency").
    fn flush_table(&mut self, tables: &TableSet, t: usize, depth: usize) -> Result<FlushOutcome> {
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
                    // A no-op for the granted slot itself, which already
                    // names its new owner.
                    self.allocator.release(meta.flash_offset, meta.seq);
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
        self.allocator.release(oldest.flash_offset, oldest.seq);
        Ok((latency, retained))
    }

    /// Queues one incarnation write for coalescing. The deferred set holds
    /// a single contiguous run: a write extending the run merges into it
    /// (one device command for the whole run), while a non-contiguous
    /// write **admits the finished run to the ring first**, so deferred
    /// flush traffic streams out as it forms instead of pooling until the
    /// batch ends.
    fn push_coalesced_write(&mut self, offset: u64, image: Vec<u8>) -> Result<()> {
        match &mut self.pending_run {
            Some((run_offset, run_image)) if offset == *run_offset + run_image.len() as u64 => {
                run_image.extend_from_slice(&image);
                self.stats.coalesced_flush_writes += 1;
            }
            _ => {
                self.admit_pending_writes()?;
                self.pending_run = Some((offset, image));
            }
        }
        Ok(())
    }

    /// Admits the deferred coalesced run (if any) to the call's shared
    /// ring without waiting.
    fn admit_pending_writes(&mut self) -> Result<()> {
        if let Some((offset, image)) = self.pending_run.take() {
            self.ring_admit(vec![RingRequest::new(IoRequest::write(offset, image))])?;
        }
        Ok(())
    }

    /// Flushes the write side of the current call: admits any deferred run
    /// and closes the shared ring, returning the device time charged to
    /// the caller (the ring's makespan growth since the last sync).
    fn drain_write_ring(&mut self) -> Result<SimDuration> {
        let admitted = self.admit_pending_writes();
        let finished = self.finish_ring();
        admitted?;
        finished
    }

    // ------------------------------------------------------------------
    // The call's shared completion ring
    // ------------------------------------------------------------------

    /// Lazily opens the current top-level call's shared ring, sized to the
    /// device's queue (one lane on serial devices, `max_queue_depth` lanes
    /// on overlapped ones).
    pub(super) fn ensure_ring(&mut self) {
        if self.ring.is_none() {
            self.ring = Some(CompletionRing::for_queue(self.device.queue()));
        }
    }

    /// Admits write-path requests into the call's shared ring without
    /// waiting ([`Device::submit_nowait`](flashsim::Device::submit_nowait)),
    /// opening the ring if this is the call's first admission.
    pub(super) fn ring_admit(&mut self, requests: Vec<RingRequest>) -> Result<Vec<IoTicket>> {
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
    pub(super) fn sync_ring(&mut self) -> Result<(SimDuration, Vec<RingCompletion>)> {
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
    pub(super) fn finish_ring(&mut self) -> Result<SimDuration> {
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
/// accounting.
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
/// Each page read that reaps advances it until a verdict is reached.
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
mod tests;
