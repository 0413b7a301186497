//! `clamd-loadgen` — open-loop load generator and smoke harness for
//! `clamd`.
//!
//! Default mode runs a **load sweep**: calibrate the server's saturation
//! throughput with a closed-loop flood, then offer open-loop arrival
//! rates at several multiples of it (under-load through past-saturation)
//! and report, per level, the sustained throughput, the client-observed
//! p50/p99/p999 latency and the server's group-commit shape over that
//! window. Unless `--connect` points at a running server, an in-process
//! sim-backed server is spawned on an ephemeral loopback port.
//!
//! The in-process server runs one batcher shard per stripe (`--stripes`)
//! and can be file-backed (`--flash-file`; an existing image is
//! recovered in place before the run). `--connect HOST:PORT` skips the in-process
//! server entirely and drives an already-running `clamd` — start one
//! `clamd` process and point several `clamd-loadgen --connect` processes
//! at it for a multi-process load test.
//!
//! `--smoke` runs the CI loopback check instead: a deterministic
//! preload / mixed-pipeline / verify sequence with **exact** count
//! assertions against the server's ledger — once over a one-stripe
//! store (one shard), once over four stripes (four shards, whose
//! per-shard ledgers must sum to the one-stripe arm's totals); in both,
//! every lookup is gathered, each lead runs at least one gather, and the
//! mixed phase's gathers must reach the store as conflict-free segments
//! of at most two batched calls each).
//!
//! ```text
//! clamd-loadgen [--connect HOST:PORT] [--connections 4] [--ops 20000]
//!               [--key-space 20000] [--zipf-s 0.99]
//!               [--lookup-fraction 0.8] [--hit-fraction 0.5]
//!               [--stripes 4] [--flash-bytes 67108864]
//!               [--dram-bytes 8388608] [--flash-file PATH] [--queue-depth N]
//!               [--multiples 0.5,0.9,1.5] [--seed N] [--smoke]
//! ```

mod cli;

use std::net::SocketAddr;
use std::num::NonZeroUsize;

use bench::{ms, print_cdf, print_header, print_row, TailSummary};
use clamd::client::ClamdClient;
use clamd::loadgen::{self, key_for, value_for, LoadgenConfig, Multiples};
use clamd::proto::{Op, RespBody};
use clamd::server::{ephemeral_sim_server, BootError, ClamdServer, ServerConfig};
use clamd::stats::ServerStats;
use flashsim::{Device, Host, LatencyRecorder};

use cli::{check_flags, flag_value, parse};

/// The flags that take a value.
const VALUED: &str = "--connect --connections --ops --key-space --zipf-s --lookup-fraction \
                      --hit-fraction --stripes --flash-bytes --dram-bytes --flash-file \
                      --queue-depth --multiples --seed";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args, VALUED, "--smoke");
    if args.iter().any(|a| a == "--smoke") {
        match smoke() {
            Ok(()) => println!("SMOKE PASS"),
            Err(e) => {
                eprintln!("SMOKE FAIL: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if let Err(e) = sweep_main(&args) {
        eprintln!("clamd-loadgen: {e}");
        std::process::exit(1);
    }
}

fn sweep_main(args: &[String]) -> Result<(), BootError> {
    let default = LoadgenConfig::default();
    let config = LoadgenConfig {
        connections: NonZeroUsize::new(parse(args, "--connections", default.connections.get()))
            .unwrap_or_else(|| cli::refuse("--connections", "0", "at least one connection")),
        ops: parse(args, "--ops", default.ops),
        lookup_fraction: parse(args, "--lookup-fraction", default.lookup_fraction),
        hit_fraction: parse(args, "--hit-fraction", default.hit_fraction),
        key_space: parse(args, "--key-space", default.key_space),
        zipf_s: parse(args, "--zipf-s", default.zipf_s),
        seed: parse(args, "--seed", default.seed),
        ..default
    };
    let levels = Multiples::new(vec![0.5, 0.9, 1.5]).expect("three positive levels");
    let multiples = parse(args, "--multiples", levels);

    // Either aim at a running server (multi-process client mode) or
    // spawn one in-process — sim-backed by default, file-backed (with
    // in-place recovery of an existing image) under --flash-file.
    if let Some(addr) = flag_value(args, "--connect") {
        return sweep(addr.parse()?, &config, &multiples);
    }
    let server_config = ServerConfig {
        stripes: parse(args, "--stripes", 4),
        flash_bytes: parse(args, "--flash-bytes", 64u64 << 20),
        dram_bytes: parse(args, "--dram-bytes", 8u64 << 20),
        ..ServerConfig::default()
    };
    match flag_value(args, "--flash-file") {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            let (store, reports) = cli::boot_flash_file(args, &path, &server_config, "")?;
            let server = ClamdServer::start(store, reports, server_config)?;
            sweep_spawned(&server, &config, &multiples)
        }
        None => sweep_spawned(&ClamdServer::start_sim(server_config)?, &config, &multiples),
    }
}

/// Runs the sweep against an in-process server.
fn sweep_spawned<D: Device + 'static>(
    server: &ClamdServer<D>,
    config: &LoadgenConfig,
    multiples: &Multiples,
) -> Result<(), BootError> {
    println!(
        "spawned in-process clamd on {} ({} batcher shards)",
        server.local_addr(),
        server.num_shards()
    );
    sweep(server.local_addr(), config, multiples)
}

fn sweep(addr: SocketAddr, config: &LoadgenConfig, multiples: &Multiples) -> Result<(), BootError> {
    println!(
        "preloading {} keys ({} connections, zipf s={}, {:.0}% lookups / {:.0}% hits)…",
        config.key_space,
        config.connections,
        config.zipf_s,
        config.lookup_fraction.get() * 100.0,
        config.hit_fraction.get() * 100.0
    );
    let preloaded = loadgen::preload(addr, config.key_space)?;
    assert_eq!(preloaded, config.key_space, "every preload insert must be acknowledged");

    let (flood, levels) = loadgen::sweep(addr, config, multiples)?;
    println!(
        "\ncalibration (closed-loop flood): {:.0} ops/s sustained over {} ops\n",
        flood.achieved, flood.completed
    );

    let widths = [12usize, 12, 12, 11, 11, 11, 11];
    print_header(
        &["offered/s", "achieved/s", "completed", "p50 ms", "p99 ms", "p999 ms", "mean batch"],
        &widths,
    );
    for level in &levels {
        let r = &level.report;
        print_row(
            &[
                format!("{:.0}", r.offered),
                format!("{:.0}", r.achieved),
                format!("{}", r.completed),
                ms(r.tail.p50),
                ms(r.tail.p99),
                ms(r.tail.p999),
                format!("{:.1}", level.server.mean_batch()),
            ],
            &widths,
        );
    }
    println!();
    for level in &levels {
        let label = format!("client-observed latency @ {:.0} ops/s offered", level.report.offered);
        print_cdf(&label, &level.report.latencies, 16);
        println!(
            "  tail: {}   (hits {} / misses {} / inserts {} / errors {})",
            level.report.tail,
            level.report.hits,
            level.report.misses,
            level.report.inserts,
            level.report.errors
        );
        println!(
            "  server window: {} gathers (hwm {}, {:.2} per lead), {} insert + {} lookup \
             admissions\n",
            level.server.batches,
            level.server.batch_high_water,
            level.server.gathers_per_lead(),
            level.server.insert_admissions,
            level.server.lookup_admissions
        );
    }
    println!(
        "Reading the sweep: below saturation the offered and achieved rates agree and\n\
         the tail tracks device latency; past saturation the achieved rate pins at the\n\
         calibrated capacity while open-loop queueing delay blows up p99/p999 — and the\n\
         mean group-commit gather grows with load, coalescing more requests per ring\n\
         admission exactly when admissions are the scarce resource."
    );
    Ok(())
}

/// Smoke workload shape, shared by both arms.
const PRELOAD: u64 = 2_000;
const CONNS: u64 = 4;
const PER_CONN: u64 = 500;
/// Key-id base for smoke-phase misses (disjoint from every other range).
const SMOKE_MISS_BASE: u64 = 1 << 50;
/// Key-id base for smoke-phase inserts.
const SMOKE_INSERT_BASE: u64 = 1 << 51;

/// The CI loopback smoke check: the full deterministic sequence over a
/// one-stripe store, then the same sequence over four stripes (their
/// four shards' ledgers must sum to the one-stripe arm's totals).
fn smoke() -> Result<(), BootError> {
    let one = smoke_arm(1)?;
    let four = smoke_arm(4)?;

    // Both arms served the identical op sequence, so the merged service
    // counts must agree exactly — striping changes who commits, not what.
    assert_eq!(four.fields.inserts, one.fields.inserts, "arm insert totals");
    assert_eq!(four.fields.lookups, one.fields.lookups, "arm lookup totals");
    assert_eq!(four.fields.lookup_hits, one.fields.lookup_hits, "arm hit totals");
    assert_eq!(four.fields.lookup_misses, one.fields.lookup_misses, "arm miss totals");

    // The four-stripe arm's per-shard gather ledgers must sum back to its
    // merged totals (which equal the one-stripe arm's).
    assert_eq!(four.per_shard.len(), 4, "four shard ledgers");
    let shard_inserts: u64 = four.per_shard.iter().map(|s| s.inserts).sum();
    let shard_lookups: u64 = four.per_shard.iter().map(|s| s.lookups).sum();
    assert_eq!(shard_inserts, one.fields.inserts, "shard insert ledgers sum to the one-stripe arm");
    assert_eq!(shard_lookups, one.fields.lookups, "shard lookup ledgers sum to the one-stripe arm");
    assert!(
        four.per_shard.iter().filter(|s| s.inserts > 0).count() > 1,
        "the key space must spread over more than one shard"
    );
    Ok(())
}

/// What one smoke arm observed.
struct SmokeArm {
    fields: ServerStats,
    per_shard: Vec<ServerStats>,
}

/// One full preload / mixed-pipeline / verify sequence against a fresh
/// server over `stripes` stripes, one batcher shard each. Every count
/// asserted here is exact: the key-id ranges are disjoint by
/// construction, so hits, misses and inserts are fully determined.
fn smoke_arm(stripes: usize) -> Result<SmokeArm, BootError> {
    let server = ephemeral_sim_server(stripes, 16 << 20, 4 << 20)?;
    let addr = server.local_addr();

    // Preload over the wire, in batch frames.
    let acked = loadgen::preload(addr, PRELOAD)?;
    assert_eq!(acked, PRELOAD, "preload acknowledgments");

    // Mixed pipelined phase: each connection interleaves guaranteed hits,
    // guaranteed misses and fresh inserts, pipelined in chunks so group
    // commit sees concurrent arrivals from all connections.
    let mut recorder = LatencyRecorder::<Host>::new();
    let tallies: Vec<Result<LatencyRecorder<Host>, BootError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || -> Result<LatencyRecorder<Host>, BootError> {
                    let mut client = ClamdClient::connect(addr)?;
                    let mut recorder = LatencyRecorder::new();
                    let mut pending: Vec<std::time::Instant> = Vec::new();
                    for i in 0..PER_CONN {
                        let hit_id = 1 + (c * PER_CONN + i) % PRELOAD;
                        let miss_id = SMOKE_MISS_BASE + c * PER_CONN + i;
                        let insert_id = SMOKE_INSERT_BASE + c * PER_CONN + i;
                        let ops = [
                            Op::Lookup { key: key_for(hit_id) },
                            Op::Lookup { key: key_for(miss_id) },
                            Op::Insert { key: key_for(insert_id), value: value_for(insert_id) },
                        ];
                        for op in ops {
                            client.send(op)?;
                            pending.push(std::time::Instant::now());
                        }
                        // Drain in chunks to keep ~30 requests in flight,
                        // and everything after the last step.
                        let drain = match pending.len() {
                            n if i + 1 == PER_CONN => n,
                            n if n >= 30 => 15,
                            _ => 0,
                        };
                        for sent in pending.drain(..drain) {
                            let response = client.recv()?;
                            recorder.record(sent.elapsed());
                            if let RespBody::Error { code, message } = response.body {
                                return Err(format!("server error {code:?}: {message}").into());
                            }
                        }
                    }
                    Ok(recorder)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("smoke conn panicked")).collect()
    });
    for tally in tallies {
        recorder.merge(&tally?);
    }

    // The mixed phase interleaves lookups and inserts over disjoint keys,
    // so its gathers hold no key conflict: each must have gone to the
    // store as one segment of at most two batched calls, however the
    // kinds alternated inside it. (A FLUSH or STATS would also close a
    // segment, once per shard it crosses; none has been sent yet.)
    let ledger = server.stats();
    let parts = ledger.flushes * server.num_shards() as u64 + ledger.stats_calls;
    assert!(ledger.segments > 0, "the mixed phase must have been gathered\n{ledger}");
    assert!(
        ledger.insert_admissions + ledger.lookup_admissions <= 2 * ledger.segments,
        "a segment costs at most one insert_batch and one lookup_batch\n{ledger}"
    );
    assert!(
        ledger.segments <= ledger.batches + ledger.segment_conflicts + parts,
        "only a gather boundary, a key conflict, a FLUSH or a STATS opens a segment\n{ledger}"
    );
    assert_eq!(ledger.segment_conflicts, 0, "disjoint keys cannot conflict\n{ledger}");

    // Every acknowledged insert must now be served, with the right value,
    // over the wire — preloaded and smoke-phase keys alike.
    let mut verifier = ClamdClient::connect(addr)?;
    let mut verify_lookups = 0u64;
    for id in 1..=PRELOAD {
        let got = verifier.lookup(key_for(id))?;
        verify_lookups += 1;
        if got != Some(value_for(id)) {
            return Err(format!("preloaded id {id}: got {got:?}").into());
        }
    }
    for c in 0..CONNS {
        for i in 0..PER_CONN {
            let id = SMOKE_INSERT_BASE + c * PER_CONN + i;
            let got = verifier.lookup(key_for(id))?;
            verify_lookups += 1;
            if got != Some(value_for(id)) {
                return Err(format!("acked insert id {id:#x} not served: got {got:?}").into());
            }
        }
    }

    // Exact ledger check.
    let (fields, text) = verifier.stats()?;
    let expected_inserts = PRELOAD + CONNS * PER_CONN;
    let expected_phase_lookups = CONNS * PER_CONN * 2; // one hit + one miss per step
    let expected_hits = CONNS * PER_CONN + verify_lookups;
    let expected_misses = CONNS * PER_CONN;
    assert_eq!(fields.inserts, expected_inserts, "ledger inserts\n{text}");
    assert_eq!(fields.lookups, expected_phase_lookups + verify_lookups, "ledger lookups\n{text}");
    assert_eq!(fields.lookup_hits, expected_hits, "ledger hits\n{text}");
    assert_eq!(fields.lookup_misses, expected_misses, "ledger misses\n{text}");
    assert_eq!(fields.wire_errors, 0, "ledger wire errors\n{text}");
    assert!(fields.batches > 0, "group commit must have gathered\n{text}");
    // Every lookup queues and is gathered; a lead runs at least one gather.
    assert_eq!(fields.bypass_hits, 0, "no lookup skips the queue\n{text}");
    assert!(0 < fields.leads && fields.leads <= fields.batches, "leads and gathers\n{text}");
    assert!(
        fields.insert_admissions < fields.inserts,
        "inserts must coalesce into fewer ring admissions\n{text}"
    );

    // Non-degenerate latency tail from the pipelined phase.
    let tail = TailSummary::from_recorder(&recorder);
    assert!(tail.is_nondegenerate(), "degenerate latency tail: {tail}");
    assert_eq!(tail.samples as u64, CONNS * PER_CONN * 3, "every pipelined op measured");

    println!(
        "smoke [{} stripe{}]: {} inserts, {} lookups ({} hits / {} misses), {} gathers \
         (mean {:.1}), {:.2} gathers per lead, tail {}",
        stripes,
        if stripes == 1 { "" } else { "s" },
        fields.inserts,
        fields.lookups,
        fields.lookup_hits,
        fields.lookup_misses,
        fields.batches,
        fields.mean_batch(),
        fields.gathers_per_lead(),
        tail
    );
    let per_shard = server.per_shard_stats();
    drop(server);
    Ok(SmokeArm { fields, per_shard })
}
