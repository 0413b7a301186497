//! The CLAM: BufferHash running on DRAM + flash.
//!
//! [`Clam`] ties everything together: it partitions the key space across
//! super tables, orchestrates buffer flushes, incarnation writes, Bloom
//! filter maintenance and evictions against a [`flashsim::Device`], and
//! accounts the simulated latency of every operation the way the paper's
//! evaluation does (in-memory work plus any blocking flash I/O).
//!
//! Every operation comes per-op ([`Clam::insert`], [`Clam::lookup`]),
//! charged the full dispatch overhead, and batched
//! ([`Clam::insert_batch`], [`Clam::lookup_batch`]), which groups a batch
//! by super table and amortizes the dispatch overhead over it. A per-op
//! call is the batch pipeline on one op (`batch_dispatch(1)` is the full
//! overhead).
//!
//! The read path is **queued and streaming**: every lookup key runs a
//! probe state machine (delete list and live buffer, then Bloom-guided
//! candidate incarnations, each answered from the buffer slot it was
//! flushed from while that slot still holds it, else by chained page
//! hops), and [`Clam::lookup_batch`] drives those machines through the
//! device's **completion ring** ([`Device::submit`]): page reads go out in
//! waves, the first a bounded window of keys (a few requests per queue
//! lane, so a large batch parks a bounded number of page buffers), and
//! each completion re-arms its key's *next* read, causally floored at
//! that completion, or hands its place to the next waiting key — so
//! independent keys' probe rounds interleave on the queue's lanes. The
//! batch's flash time is the ring **makespan**
//! ([`flashsim::CompletionRing::makespan`]).
//!
//! There is **one write path** too: every insert runs one per-table
//! insert body and one flush loop, whose writes, evictions and drains
//! ride the same completion ring as the probes. Every call that touches
//! the device — an insert of one op or many, a lookup with its LRU
//! re-insertions, [`Clam::flush_all`] — runs in one **write window**,
//! which coalesces flush writes that land on contiguous log slots into
//! single sequential device writes and drains the ring as it closes,
//! even on failure. That close is where every acknowledged write ends;
//! an insert call books its drain to `ClamStats::deferred_flush_time`
//! and returns it in its latency.
//!
//! A `Clam` takes **no locks**: its super tables, device, log allocator,
//! ring state and statistics are plain fields, and every operation that
//! answers a request needs `&mut self`. Sharing one between threads is
//! [`SharedClam`](crate::SharedClam)'s job (one lock per stripe;
//! DESIGN.md "Locks").

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, Ordering};

use flashsim::{
    CompletionRing, Device, IoRequest, LinearCost, MediumKind, RingCompletion, RingRequest,
    SimDuration,
};

use crate::config::ClamConfig;
use crate::cuckoo::BufferInsert;
use crate::error::{BufferHashError, Result};
use crate::eviction::{EvictionPolicy, RetainDecision};
use crate::filters::AgeSet;
use crate::incarnation::{
    lookup_in_page, page_identity, parse_page_header_checked, scan_incarnation,
    IncarnationIdentity, IncarnationLayout, PageLookup, SlotScan,
};
use crate::log::{LogAllocator, SlotOwner};
use crate::recovery::RecoveryReport;
use crate::stats::ClamStats;
use crate::supertable::{IncarnationMeta, MemoryHit, SuperTable};
use crate::types::{group_stable, hash_with_seed, Entry, Key, Modulus, Value};
use ring::Call;

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
/// DRAM words a lookup that falls through the live buffer touches on top:
/// the generation stamps of the same two slots, a word each (the slots
/// themselves are the ones the buffer probe already read), compared with
/// each candidate incarnation's generation.
const STAMP_PROBE_WORDS: usize = 2;

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
/// amortized across the batch and flush writes deferred to coalesce are
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
    /// Found in a retired generation: the key is in one of its table's
    /// incarnations, the youngest that holds it, and the buffer slot it
    /// was flushed from has not been reused, so that incarnation needed no
    /// flash read (`flash_reads` counts the younger ones' spurious reads).
    Retired,
    /// Found in an on-flash incarnation.
    Flash,
    /// The key was deleted (delete-list hit).
    Deleted,
    /// Not found anywhere.
    Miss,
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
    /// DRAM used by the buffers' slot arrays and their generation stamps,
    /// 16 + 1 bytes a slot. Each buffer's occupancy bitmap, a bit per
    /// slot, is 1/136 of this on top.
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

/// A cheap and large CAM: BufferHash on DRAM plus a flash [`Device`].
///
/// Everything is a plain field: the super tables, the device and its
/// completion ring, the log allocator, the flush sequence counter and the
/// [`ClamStats`] ledger. Inserts, deletes and lookups need `&mut self`.
/// Because a flush chain runs on one `&mut self`, allocator grant order equals ring
/// admission order, which is the invariant the acknowledgment point rests
/// on (admission order = data-effect order on the device; DESIGN.md
/// "Crash consistency").
pub struct Clam<D: Device> {
    tables: Vec<SuperTable>,
    /// `tables.len()`, to route keys without dividing.
    table_modulus: Modulus,
    device: D,
    config: ClamConfig,
    /// The lifetime epoch stamped into every page this CLAM flushes; see
    /// [`CLAM_EPOCH`] and DESIGN.md "Crash consistency".
    epoch: u32,
    /// The (table-uniform) incarnation serialization layout.
    layout: IncarnationLayout,
    allocator: LogAllocator,
    seq: u64,
    stats: ClamStats,
    /// DRAM access cost model used for in-memory latency accounting.
    mem_cost: LinearCost,
    /// The current top-level call's write window and ring; see [`Call`].
    call: Call,
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
        // The one place the medium's erase rule is decided: a raw chip
        // must erase a block before programming it again; every other
        // medium overwrites in place.
        let erase_block =
            (device.profile().kind == MediumKind::FlashChip).then_some(geometry.block_size as u64);
        let allocator = LogAllocator::new(
            config.flash_capacity,
            config.buffer_bytes_per_table,
            erase_block,
            num_tables,
        )?;
        Ok(Clam {
            tables,
            table_modulus: Modulus::new(num_tables),
            device,
            config,
            epoch: CLAM_EPOCH.fetch_add(1, Ordering::Relaxed) + 1,
            layout,
            allocator,
            seq: 0,
            stats: ClamStats::new(),
            mem_cost: LinearCost::new(0, 0.5),
            call: Call::default(),
        })
    }

    /// Rebuilds a CLAM from the flash contents of `device` alone — the
    /// recovery path after a crash or restart.
    ///
    /// The scan reads every incarnation slot through the completion ring
    /// (one [`Device::submit`] call, overlapped per the device queue),
    /// then:
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
    ///   slot but no accepted one are erased, and the write pointer steps
    ///   past a torn slot that shares its block with accepted data, so
    ///   resumed writes never program over a power cut's half-written
    ///   pages (media that overwrite in place need neither);
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
        let report = clam.recover_scan()?;
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

    /// Operation statistics collected so far.
    pub fn stats(&self) -> &ClamStats {
        &self.stats
    }

    /// Clears the operation statistics and the device counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.device.reset_stats();
    }

    /// Immutable access to the underlying device.
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Mutable access to the underlying device.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.device
    }

    /// Consumes the CLAM and returns the device.
    pub fn into_device(self) -> D {
        self.device
    }

    /// Number of super tables.
    pub fn num_super_tables(&self) -> usize {
        self.tables.len()
    }

    /// Approximate number of live entries (buffered plus on flash; lazily
    /// superseded duplicates are counted once per copy).
    pub fn approximate_entries(&self) -> usize {
        self.tables
            .iter()
            .map(|table| {
                table.buffer_len()
                    + (0..table.num_incarnations())
                        .filter_map(|age| table.incarnation_at(age))
                        .map(|m| m.entries)
                        .sum::<usize>()
            })
            .sum()
    }

    /// Current DRAM footprint: what the tables have allocated, which for
    /// the filters is nothing until a table first flushes.
    pub fn memory_usage(&self) -> MemoryUsage {
        let mut usage = MemoryUsage::default();
        for table in &self.tables {
            usage.buffers += table.buffer_bytes();
            usage.filters += table.filter_bytes();
            usage.delete_lists += table.delete_list_len() * std::mem::size_of::<Key>();
        }
        usage
    }

    /// Test support: panics unless every slot copy (a drained entry still
    /// in its buffer slot) names an incarnation its table has registered
    /// and equals that incarnation's entry as the device returns it. Call
    /// between top-level operations that succeeded (the ring must be
    /// closed).
    #[doc(hidden)]
    pub fn assert_slot_copies_match_flash(&mut self) {
        let layout = self.layout;
        let mut image = vec![0u8; layout.total_bytes()];
        for (t, table) in self.tables.iter().enumerate() {
            let mut on_flash: HashMap<u64, HashMap<Key, Value>> = HashMap::new();
            for (meta, entry) in table.slot_copies() {
                let meta =
                    meta.unwrap_or_else(|| panic!("table {t}: {entry:?} names no incarnation"));
                let entries = on_flash.entry(meta.seq).or_insert_with(|| {
                    self.device.read_at(meta.flash_offset, &mut image).expect("incarnation read");
                    let SlotScan::Valid { entries, .. } = scan_incarnation(&image, &layout) else {
                        panic!("table {t}: incarnation {meta:?} does not scan valid")
                    };
                    entries.into_iter().map(|e| (e.key, e.value)).collect()
                });
                assert_eq!(
                    entries.get(&entry.key),
                    Some(&entry.value),
                    "table {t} holds {entry:?} for incarnation {meta:?}, the device disagrees"
                );
            }
        }
    }

    /// Super table responsible for `key` (the paper partitions on the first
    /// `k1` bits of the key; hashing achieves the same uniform split without
    /// requiring a power-of-two table count).
    fn table_of(&self, key: Key) -> usize {
        self.table_modulus.reduce(hash_with_seed(key, TABLE_SEED))
    }

    /// Cost of touching `words` 64-bit words of DRAM.
    fn mem_words_cost(&self, words: usize) -> SimDuration {
        WORD_COST * words as u64 + self.mem_cost.cost(words * 8)
    }

    // ------------------------------------------------------------------
    // Public hash-table operations
    // ------------------------------------------------------------------

    /// Inserts (or updates) `key` with `value`: the batch pipeline on one
    /// op, so its latency is the op's charge plus the drain of its call's
    /// write window (the device time of any flush it triggered), and the
    /// drain is booked to `ClamStats::deferred_flush_time` as a batch's
    /// is.
    ///
    /// Updates are lazy (§5.1.1): if an older value for the key is already
    /// on flash it is left there; lookups return the newest value because
    /// incarnations are examined youngest-first.
    pub fn insert(&mut self, key: Key, value: Value) -> Result<InsertOutcome> {
        let batch = self.insert_pipeline(&[(key, value)])?;
        Ok(InsertOutcome {
            latency: batch.latency,
            flushed: batch.flushed_ops > 0,
            evictions: batch.evictions,
        })
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
    /// write: flush writes coalesce over the whole batch and are drained
    /// (and charged) once at its end.
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
        self.stats.batched_inserts += ops.len() as u64;
        self.insert_pipeline(ops)
    }

    /// The insert pipeline behind [`insert`](Self::insert) and
    /// [`insert_batch`](Self::insert_batch): one write window around one
    /// insert run per super table that `ops` touch.
    fn insert_pipeline(&mut self, ops: &[(Key, Value)]) -> Result<BatchInsertOutcome> {
        let mut outcome = BatchInsertOutcome { ops: ops.len(), ..Default::default() };
        if ops.is_empty() {
            return Ok(outcome);
        }
        // One run per table, in ascending table order, input order kept
        // within a run.
        let (grouped, starts) = group_stable(ops, self.tables.len(), |op| self.table_of(op.0));
        let dispatch = batch_dispatch(ops.len());
        let coalesced_before = self.stats.coalesced_flush_writes;
        // Finished coalesced runs are admitted as they form; the window's
        // drain submits the last one and syncs the ring, and only its
        // makespan is "deferred" time (charged to the call, not to any
        // triggering insert).
        let ((), drained) = self.write_window(|clam| {
            let mut runs = starts.windows(2).enumerate().filter(|(_, run)| run[0] < run[1]);
            runs.try_for_each(|(t, run)| {
                clam.insert_run(t, &grouped[run[0]..run[1]], dispatch, |op| {
                    outcome.latency += op.latency;
                    outcome.flushed_ops += usize::from(op.flushed);
                    outcome.evictions += op.evictions;
                })
            })
        })?;
        self.stats.deferred_flush_time += drained;
        outcome.latency += drained;
        outcome.coalesced_writes = (self.stats.coalesced_flush_writes - coalesced_before) as usize;
        Ok(outcome)
    }

    /// Looks up a batch of keys in one call through the **streaming ring
    /// pipeline**, returning one [`LookupOutcome`] per key (input order)
    /// inside a [`BatchLookupOutcome`].
    ///
    /// Keys are stably sorted by super table so each table's buffer and
    /// filter bank are probed in one pass, and the per-call dispatch
    /// overhead is amortized across the batch. Every key that misses the
    /// in-memory state becomes a probe state machine whose page reads are
    /// driven through the device's completion ring ([`Device::submit`], a
    /// wave at a time): the first wave is a window of a few requests per
    /// queue lane, each completion re-arms its key's next read in the next
    /// wave, floored at that completion, and a key that resolves hands its
    /// place to the next waiting one, so independent keys' probe rounds
    /// interleave on the queue's lanes and no wave holds more page
    /// buffers than the window.
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
        self.stats.batched_lookups += keys.len() as u64;
        self.lookup_batch_ring(keys, batch_dispatch(keys.len()))
    }

    /// Looks up `key`: a batch of one over the streaming ring pipeline, so
    /// the per-op and batched paths share a single implementation (a chain
    /// of one-request admissions, whose makespan is exactly the summed
    /// read latency).
    pub fn lookup(&mut self, key: Key) -> Result<LookupOutcome> {
        let mut batch = self.lookup_batch_ring(std::slice::from_ref(&key), BASE_OP_OVERHEAD)?;
        Ok(batch.outcomes.pop().expect("one outcome per key"))
    }

    /// Deletes `key` (lazily: flash copies are shadowed by the delete list
    /// and reclaimed at eviction time). Deletes never touch flash.
    pub fn delete(&mut self, key: Key) -> Result<SimDuration> {
        let t = self.table_of(key);
        let latency = BASE_OP_OVERHEAD + self.mem_words_cost(BUFFER_PROBE_WORDS + 2);
        self.tables[t].delete(key);
        self.stats.deletes.record(latency);
        Ok(latency)
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
        let (flushed, drained) = self.write_window(|clam| {
            let mut total = SimDuration::ZERO;
            for t in 0..clam.tables.len() {
                if clam.tables[t].buffer_len() > 0 {
                    total += clam.flush_table(t, 0)?.latency;
                }
            }
            Ok(total)
        })?;
        Ok(flushed + drained)
    }
}

/// Super table responsible for `key` in a CLAM of `tables` super tables.
pub fn table_of(key: Key, tables: usize) -> usize {
    (hash_with_seed(key, TABLE_SEED) % tables as u64) as usize
}

/// Seed of the hash that routes a key to its super table.
const TABLE_SEED: u64 = 0x7a_b1e5;

/// How many page reads one lookup batch keeps in flight on a queue
/// `depth` deep, a ring lane a slot. Four requests a lane keep every lane
/// fed between waves (the floor of 16 keeps a short or one-deep queue's
/// rounds that wide, and simulated results depend on it); beyond that a
/// deeper ring only parks more 4 KiB page buffers without finishing
/// sooner, so this is a property of the queue's depth and not a tuning
/// knob.
pub(crate) fn probe_window(depth: usize) -> usize {
    (4 * depth).max(16)
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

/// An LRU re-insertion a lookup queued: the key's super table, the key
/// and the value an incarnation answered with.
type Reinsert = (usize, Key, Value);

/// Result of one flush chain.
#[derive(Debug, Clone, Copy, Default)]
struct FlushOutcome {
    latency: SimDuration,
    evictions: usize,
}

fn annotate_offset(e: BufferHashError, offset: u64) -> BufferHashError {
    match e {
        BufferHashError::CorruptIncarnation { reason, .. } => {
            BufferHashError::CorruptIncarnation { flash_offset: offset, reason }
        }
        other => other,
    }
}

mod read;
mod recover;
mod ring;
mod write;

#[cfg(test)]
mod tests;
