//! # baseline — comparison systems for the CLAM evaluation
//!
//! The paper compares BufferHash-based CLAMs against the approaches a
//! practitioner would otherwise use. This crate implements the ones its
//! figures run, on the same simulated devices:
//!
//! * [`BdbHashIndex`] — a Berkeley-DB-style page hash index with overflow
//!   chains and an LRU page cache (the `DB+SSD` / `DB+Disk` comparator of
//!   §7.2.2 and §8);
//! * [`DramHashStore`] — DRAM-only stores (host DRAM and RamSan-class
//!   appliances) for the ops/sec/$ comparison;
//! * [`cost`] — hash-operations-per-second-per-dollar calculations.
//!
//! The unbuffered "hash table on flash" strawman of §7.3.1 is not a
//! separate type: it is BufferHash with `enable_buffering: false`, which
//! the `ablation` binary runs as `Ablation::NoBuffering`.
//!
//! ## How these are used
//!
//! All baselines run on the same simulated [`flashsim`] devices as the
//! CLAM and return simulated latencies, so comparisons isolate the data
//! structure from the medium: `fig7_bdb_latency_cdf` (BDB latency CDFs),
//! `table3_lookup_fraction` (BufferHash vs. BDB as the lookup fraction
//! varies) and `ops_per_dollar` (§8's cost-effectiveness table) all live
//! in `crates/bench/src/bin/`. The BDB-style index deliberately has **no
//! batched pipeline** — it updates pages in place per op, which is
//! exactly the behavior the paper's buffering + batching design is built
//! to avoid; in `wanopt` it falls back to `FingerprintStore`'s per-op
//! default batch methods.
//!
//! See EXPERIMENTS.md in the repository root for the full experiment
//! index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bdb;
pub mod cost;
mod dram_only;
mod error;

pub use bdb::{BdbConfig, BdbHashIndex};
pub use cost::{cost_effectiveness, cost_effectiveness_from_rate, CostEffectiveness, SystemCost};
pub use dram_only::DramHashStore;
pub use error::{BaselineError, Result};
