//! `clamd` — a network fingerprint-lookup service over a CLAM.
//!
//! The paper's CLAMs live inside WAN optimizers and dedup servers, where
//! a whole fleet of workers funnels fingerprint lookups and inserts into
//! one index. This crate is that serving front-end:
//!
//! * [`proto`] — a versioned, length-prefixed binary wire protocol
//!   (INSERT / LOOKUP / DELETE / FLUSH / STATS, plus batch frames) with
//!   structured error codes and strict, panic-free decoding;
//! * [`batcher`] — the sharded group-commit engine, one shard per
//!   stripe: arrivals from all connections gather into ring admissions
//!   on their key's [`StripedClam`] stripe, acknowledged once its
//!   completion ring is synced; each shard's decisions are made by a
//!   core that takes no lock or clock;
//! * [`server`] — the TCP front: one reader thread per connection
//!   feeding the shared batcher queue, its responses written by the
//!   thread that completes them, plus boot paths for a fresh
//!   simulated SSD ([`boot_sim`]) and a file-backed image that is
//!   **recovered in place** with per-stripe [`RecoveryReport`]s
//!   ([`boot_file`]);
//! * [`client`] — a blocking client with pipelining;
//! * [`loadgen`] — an open-loop load generator (Zipfian or uniform key
//!   popularity, exact hit/miss mix) that measures sustained throughput
//!   and client-observed p50/p99/p999 latency, honest past saturation.
//!
//! [`StripedClam`]: bufferhash::StripedClam
//! [`RecoveryReport`]: bufferhash::RecoveryReport

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batcher;
pub mod client;
pub mod loadgen;
pub mod proto;
pub mod server;
pub mod stats;

pub use batcher::{BatcherConfig, Engine};
pub use client::{ClamdClient, ClientError};
pub use loadgen::{LoadReport, LoadgenConfig, SweepLevel};
pub use proto::{ErrorCode, Op, Request, RespBody, Response, WireError};
pub use server::{boot_file, boot_sim, ClamdServer, ServerConfig};
pub use stats::ServerStats;
