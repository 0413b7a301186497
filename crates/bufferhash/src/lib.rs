//! # bufferhash — BufferHash and CLAMs (cheap and large CAMs)
//!
//! This crate implements the core contribution of *"Cheap and Large CAMs for
//! High Performance Data-Intensive Networked Systems"* (NSDI 2010):
//! **BufferHash**, a flash-friendly hash table, and **CLAM**, the resulting
//! large, cheap content-addressable store built from a little DRAM and a lot
//! of flash.
//!
//! ## How it works
//!
//! * The key space is partitioned across many [super tables](SuperTable).
//! * Each super table buffers inserts in a small in-DRAM cuckoo hash table
//!   ([`CuckooBuffer`]); when the buffer fills it is written to flash
//!   sequentially as an immutable *incarnation*. The slots it was flushed
//!   from keep answering lookups for that incarnation, as its **retired
//!   generation**, until new inserts reuse them — for every incarnation
//!   still registered, not only the youngest: a one-byte generation stamp
//!   a slot, no knob, about one flash read in four saved on the repo
//!   benchmark (DESIGN.md "The retired generations").
//! * One in-DRAM Bloom filter per incarnation (stored [bit-sliced, a lane
//!   each, in exactly the Bloom budget](BitSlicedBloomSet)) routes lookups
//!   to the few incarnations that may hold the key (an [`AgeSet`] held by
//!   value), so most lookups cost at most one flash page read.
//! * Updates and deletes are lazy; space is reclaimed when incarnations are
//!   evicted, under FIFO, LRU, update-based or priority-based
//!   [eviction policies](EvictionPolicy).
//! * Callers with many outstanding operations use the batched pipeline
//!   ([`Clam::insert_batch`] / [`Clam::lookup_batch`]): ops are grouped by
//!   super table, the per-call overhead is paid once per batch, and flush
//!   writes to contiguous log slots are coalesced into single sequential
//!   device writes (see DESIGN.md "Batched operations").
//! * The on-flash format is versioned and CRC-checksummed, and
//!   [`Clam::recover`] rebuilds the entire in-DRAM state (filters, log
//!   map, eviction queues) from flash contents alone after a crash,
//!   discarding torn flushes by checksum and reporting what it found in a
//!   [`RecoveryReport`] (see DESIGN.md "Crash consistency").
//! * The read path is **queued** (DESIGN.md "Lookups on the ring"): each
//!   lookup key is a probe state machine whose page reads stream through
//!   the device's completion ring, a key re-armed the moment its previous
//!   read retires, so independent probes overlap and a batch costs the
//!   ring makespan ([`BatchLookupOutcome`]) instead of the summed
//!   per-read time.
//!
//! ## Quick start
//!
//! ```
//! use bufferhash::{Clam, ClamConfig};
//! use flashsim::Ssd;
//!
//! // 8 MiB of simulated flash, 2 MiB of DRAM.
//! let config = ClamConfig::small_test(8 << 20, 2 << 20).unwrap();
//! let device = Ssd::intel(8 << 20).unwrap();
//! let mut clam = Clam::new(device, config).unwrap();
//!
//! clam.insert(0xfeed_beef, 42).unwrap();
//! let found = clam.lookup(0xfeed_beef).unwrap();
//! assert_eq!(found.value, Some(42));
//! println!("lookup took {} (simulated)", found.latency);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
mod bitslice;
mod bloom;
mod clam;
mod config;
mod cuckoo;
mod error;
mod eviction;
mod filters;
mod incarnation;
mod log;
mod recovery;
mod shared;
mod stats;
mod supertable;
mod types;

pub use bitslice::BitSlicedBloomSet;
pub use bloom::BloomFilter;
pub use clam::{
    table_of, BatchInsertOutcome, BatchLookupOutcome, Clam, InsertOutcome, LookupOutcome,
    LookupSource, MemoryUsage, BASE_OP_OVERHEAD, BATCHED_OP_OVERHEAD,
};
pub use config::{tuning, ClamConfig};
pub use cuckoo::{BufferInsert, CuckooBuffer};
pub use error::{BufferHashError, Result};
pub use eviction::{EvictionPolicy, PriorityFn, RetainDecision};
pub use filters::{AgeSet, FilterBank, FilterMode};
pub use incarnation::{
    crc32, lookup_in_page, page_crc, parse_incarnation, parse_page_header_checked,
    scan_incarnation, IncarnationIdentity, IncarnationLayout, PageHeader, PageLookup, SlotScan,
    INCARNATION_VERSION, PAGE_HEADER_SIZE,
};
pub use log::{LogAllocator, SlotAllocation, SlotOwner};
pub use recovery::RecoveryReport;
pub use shared::{SharedClam, StripedClam};
pub use stats::ClamStats;
pub use supertable::{IncarnationMeta, MemoryHit, SuperTable};
pub use types::{hash_with_seed, mix64, Entry, Key, Value, ENTRY_SIZE};
