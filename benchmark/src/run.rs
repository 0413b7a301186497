//! One workload, start to finish: set-up, warm-up, the `sat` and `paced`
//! phases, flush, recovery, re-verification — and the numbers they give.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bufferhash::{ClamStats, Key, RecoveryReport, Value};
use clamd::{ClamdClient, ClamdServer, ServerStats};
use flashsim::{Device, FileDevice, IoStats, SharedDevice, Ssd};

use crate::gen::{direct_phase, run_conns, Conn, Phase, Stop, Tally};
use crate::ladder::{self, Ladder, PRIMITIVE_SAMPLES};
use crate::measure::{
    cpu_seconds, flatten_sorted, median, peak_rss_mib, percentile, windowed_percentile,
};
use crate::ops::OpStream;
use crate::spec::{Backing, Workload, COUNTED_KEYS_PER_SECOND, VERIFY_IDS};
use crate::store::{image_path, repeated, server_config, set_up, BoxError, Medium, Store};
use crate::trace::Trace;

/// The share of `--seconds` a traced run spends in its `sat` and `paced`
/// phases; the ladder takes about the rest.
const TRACED_SHARE: f64 = 0.6;

/// What to run.
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    /// How long the measured phases last together.
    pub seconds: f64,
    /// Record spans and climb the layer ladder; reports per-layer metrics.
    pub trace: bool,
    /// Where the flash image and the trace file go.
    pub out_dir: PathBuf,
}

/// One measured number.
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    /// Samples the number rests on (operations, windows, runs).
    pub samples: u64,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub readings: Vec<Reading>,
    /// Anything a reader of the numbers should know: flags, skipped checks.
    pub notes: Vec<String>,
}

/// Cores this process may run on; every result is stamped with it.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Connections a serving workload opens: `min(cores, 4)`.
pub fn connections() -> usize {
    cores().min(4)
}

pub fn run(args: &Args) -> Result<Outcome, BoxError> {
    std::fs::create_dir_all(&args.out_dir)?;
    match args.workload.backing {
        Backing::Sim => run_on::<Ssd>(args),
        Backing::File => run_on::<FileDevice>(args),
    }
}

/// Every ledger the layers keep, read at a phase boundary.
struct Ledgers {
    server: ServerStats,
    clam: ClamStats,
    io: IoStats,
}

/// What the generator drives: a `clamd` server over TCP, or the store
/// itself.
enum Target<M: Medium> {
    Wire { server: ClamdServer<SharedDevice<M>>, conns: Vec<Conn> },
    Direct { store: Store<M>, ops: OpStream, calls: u64 },
}

impl<M: Medium> Target<M> {
    fn start(w: &'static Workload, store: Store<M>, seed: u64) -> Result<Self, BoxError> {
        if !w.wire {
            return Ok(Target::Direct { store, ops: OpStream::new(w, seed, 0, 1), calls: 0 });
        }
        let server = ClamdServer::start(store, Vec::new(), server_config())?;
        let n = connections();
        let conns = (0..n)
            .map(|c| Conn::connect(server.local_addr(), OpStream::new(w, seed, c, n)))
            .collect::<io::Result<_>>()?;
        Ok(Target::Wire { server, conns })
    }

    fn phase(&mut self, phase: &Phase) -> io::Result<Tally> {
        match self {
            Target::Direct { store, ops, calls } => {
                Ok(direct_phase(store, ops, calls, phase, Instant::now()))
            }
            Target::Wire { conns, .. } => run_conns(conns, phase),
        }
    }

    fn ledgers(&self, device: &SharedDevice<M>) -> io::Result<Ledgers> {
        let (server, clam) = match self {
            Target::Wire { server, .. } => (server.stats(), server.clam_stats()),
            Target::Direct { store, .. } => (ServerStats::new(), store.stats()),
        };
        Ok(Ledgers { server, clam, io: device.stats() })
    }

    /// Flushes every buffer to flash, stops the server, and hands back
    /// the streams, whose shadows say what the flash must now hold.
    fn finish(self) -> Result<Vec<OpStream>, BoxError> {
        match self {
            Target::Direct { store, ops, .. } => {
                store.flush_all()?;
                Ok(vec![ops])
            }
            Target::Wire { mut server, conns } => {
                ClamdClient::connect(server.local_addr())?.flush()?;
                server.shutdown();
                Ok(conns.into_iter().map(|c| c.ops).collect())
            }
        }
    }
}

fn window_for(length: Duration) -> Duration {
    if length >= Duration::from_secs(5) {
        Duration::from_secs(1)
    } else {
        length / 5
    }
}

/// Runs one phase of `length` (or of an exact key count) under a span of
/// its own; `traced` adds a span per request.
fn run_phase<M: Medium>(
    target: &mut Target<M>,
    trace: &mut Trace,
    name: &'static str,
    stop: Stop,
    ops_per_s: Option<f64>,
    traced: bool,
) -> io::Result<Tally> {
    let span = trace.open(name, 0);
    let window = match stop {
        Stop::After(length) => window_for(length),
        Stop::Keys(_) => Duration::from_secs(3600),
    };
    let phase = Phase {
        stop,
        ops_per_s,
        window,
        record_latency: ops_per_s.is_some(),
        trace_parent: (traced && trace.enabled()).then_some(span),
        origin_ns: trace.now_ns(),
    };
    let mut tally = target.phase(&phase)?;
    trace.close(span);
    trace.extend(std::mem::take(&mut tally.spans));
    Ok(tally)
}

/// Keys per second in each full window of a phase: the drain after the
/// last window does not count.
fn window_rates(tally: &Tally, length: Duration) -> Vec<f64> {
    let window = window_for(length);
    let full = (length.as_nanos() / window.as_nanos().max(1)) as usize;
    tally.window_keys.iter().take(full).map(|&keys| keys as f64 / window.as_secs_f64()).collect()
}

#[derive(Default)]
struct Readings {
    list: Vec<Reading>,
    notes: Vec<String>,
}

impl Readings {
    fn push(&mut self, name: &'static str, value: f64, samples: u64) {
        self.list.push(Reading { name, value, samples });
    }
}

fn run_on<M: Medium>(args: &Args) -> Result<Outcome, BoxError> {
    let image = image_path(&args.out_dir, args.workload.name);
    let result = measure::<M>(args, &image);
    let _ = std::fs::remove_file(&image);
    result
}

fn measure<M: Medium>(args: &Args, image: &Path) -> Result<Outcome, BoxError> {
    let w = args.workload;
    let mut out = Readings::default();
    let mut trace = Trace::new(args.trace);

    let span = trace.open("setup", 0);
    let (set_up, setup_times) = repeated(|| set_up::<M>(w, args.seed, image))?;
    trace.close(span);
    out.push("setup_s", median(&setup_times).expect("ran at least once"), setup_times.len() as u64);
    let device = set_up.device;
    if !w.overwrite && set_up.store.stats().forced_evictions == 0 {
        return Err(
            format!("{}: the preload did not wrap the log, nothing was evicted", w.name).into()
        );
    }

    let mut target = Target::start(w, set_up.store, args.seed)?;
    let conns = if w.wire { connections() } else { 1 };
    let secs = |share: f64| Duration::from_secs_f64(args.seconds * share);

    // Warm-up, discarded. `engine-direct` spends it on an exact number of
    // keys instead, and takes its counts and simulated times from it.
    let before_warm = target.ledgers(&device)?;
    let warm_stop = if w.wire {
        Stop::After(secs(0.125))
    } else {
        Stop::Keys((args.seconds * COUNTED_KEYS_PER_SECOND as f64) as u64)
    };
    let warm = run_phase(&mut target, &mut trace, "warm-up", warm_stop, None, false)?;
    let after_warm = target.ledgers(&device)?;

    // sat: closed loop. A traced run splits it in four and traces every
    // other part, so the ratio of their rates is what tracing costs; it
    // also measures for a shorter time, to leave room for the ladder.
    let parts: &[bool] = if args.trace { &[false, true, false, true] } else { &[false] };
    let secs = |share: f64| secs(if args.trace { share * TRACED_SHARE } else { share });
    let part_length = secs(0.4 / parts.len() as f64);
    let mut sat = Vec::new();
    let mut rates = [Vec::new(), Vec::new()];
    let (mut sat_cpu, mut sat_keys) = ((0.0, 0.0), 0);
    for &traced in parts {
        let before = cpu_seconds()?;
        let tally =
            run_phase(&mut target, &mut trace, "sat", Stop::After(part_length), None, traced)?;
        let after = cpu_seconds()?;
        rates[usize::from(traced)].extend(window_rates(&tally, part_length));
        sat_cpu = (sat_cpu.0 + after.0 - before.0, sat_cpu.1 + after.1 - before.1);
        sat_keys += tally.keys;
        sat.push(tally);
    }
    let rate = median(&rates[0]).ok_or("sat phase completed nothing")?;
    out.push("sat_ops_per_s", rate, rates[0].len() as u64);
    out.push("cpu_us_per_op", (sat_cpu.0 + sat_cpu.1) * 1e6 / sat_keys.max(1) as f64, sat_keys);
    out.push("server.sys_cpu_us_per_op", sat_cpu.1 * 1e6 / sat_keys.max(1) as f64, sat_keys);
    let traced_rate = median(&rates[1]).unwrap_or(rate);
    out.push("loadgen.trace_overhead_ratio", rate / traced_rate.max(1.0), rates[1].len() as u64);

    // paced: open loop at the workload's fixed rate.
    let paced_length = secs(0.6);
    let paced_ops_per_s = w.paced_keys_per_s / w.batch as f64 / conns as f64;
    let mut paced = run_phase(
        &mut target,
        &mut trace,
        "paced",
        Stop::After(paced_length),
        Some(paced_ops_per_s),
        true,
    )?;
    // The serving process's peak, read before the ledger snapshot, the
    // recovery's second store and the ladder put their own on top.
    out.push("rss_mib", peak_rss_mib()?, 1);
    let after_paced = target.ledgers(&device)?;
    paced_readings(&mut out, &mut paced)?;

    // Flush, stop, recover from the flash contents alone, re-verify.
    let span = trace.open("flush+shutdown", 0);
    let streams = target.finish()?;
    trace.close(span);
    let span = trace.open("recover", 0);
    let ((recovered, reports), recover_times) = repeated(|| M::recover(device.clone(), image))?;
    trace.close(span);
    out.push(
        "recover_s",
        median(&recover_times).expect("ran at least once"),
        recover_times.len() as u64,
    );
    let span = trace.open("verify", 0);
    let (verified, missing) = verify(w, recovered, &reports, &streams)?;
    trace.close(span);
    if missing > 0 {
        out.notes.push(format!("{missing} of {verified} verification reads failed after recovery"));
    }

    let mut attempted = verified;
    let mut failed = missing;
    for tally in sat.iter().chain([&warm, &paced]) {
        attempted += tally.attempted;
        failed += tally.failed;
    }
    let mut correct = failed == 0;

    // The resident workload must not have touched the device while
    // measured; the others take their counts where they repeat best.
    let measured = (&after_warm, &after_paced);
    let (reads, writes) =
        (measured.1.io.reads - measured.0.io.reads, measured.1.io.writes - measured.0.io.writes);
    if w.overwrite && (reads, writes) != (0, 0) {
        correct = false;
        out.notes
            .push(format!("resident workload touched the device: {reads} reads, {writes} writes"));
    }
    let counted = if w.wire { measured } else { (&before_warm, &after_warm) };
    count_readings(w, &mut out, counted, &reports);
    let wire_bytes: u64 = sat.iter().chain([&paced]).map(|t| t.wire_bytes).sum();
    let wire_keys: u64 = sat.iter().chain([&paced]).map(|t| t.keys).sum();
    out.push("proto.wire_bytes_per_op", wire_bytes as f64 / wire_keys.max(1) as f64, wire_keys);

    if args.trace {
        let ladder = ladder::climb::<M>(w, args.seed, conns, image, &mut trace)?;
        ladder_readings(&mut out, &ladder);
        let path = args.out_dir.join(format!("trace-{}.jsonl", w.name));
        trace.write_jsonl(&path)?;
        out.notes.push(format!("{} spans recorded, trace in {}", trace.len(), path.display()));
        for (name, ms, self_ms, children) in trace.roots() {
            out.notes.push(format!(
                "span {name}: {ms:.1} ms, self {self_ms:.1} ms, {children} children"
            ));
        }
    }
    Ok(Outcome { correct, attempted, failed, readings: out.list, notes: out.notes })
}

/// Latency readings of the open-loop phase, and the generator's own
/// health.
fn paced_readings(out: &mut Readings, paced: &mut Tally) -> Result<(), BoxError> {
    let names = [
        ["lookup_p50_us", "lookup_p99_us", "loadgen.lookup_p999_us"],
        ["insert_p50_us", "insert_p99_us", "loadgen.insert_p999_us"],
    ];
    let mut p50s = Vec::new();
    for (kind, [p50, p99, p999]) in names.into_iter().enumerate() {
        let all = flatten_sorted(&paced.latency[kind]);
        let n = all.len() as u64;
        let us = |ns: u64| ns as f64 / 1e3;
        // A run too short for a supported percentile still reports the
        // sample at that rank, and says so.
        let mut at = |q: f64| {
            percentile(&all, q).or_else(|| {
                out.notes.push(format!("{p50}: too few samples for the {q} quantile"));
                all.get(((n.max(1) - 1) as f64 * q) as usize).copied()
            })
        };
        let whole = [at(0.5).ok_or("paced phase completed nothing")?, at(0.99).unwrap_or(0)];
        let tail = at(0.999).unwrap_or(0);
        // Median over windows of the window's quantile; a run too short
        // to fill windows falls back on the whole phase.
        for ((name, q), whole) in [(p50, 0.5), (p99, 0.99)].into_iter().zip(whole) {
            let (ns, windows) =
                windowed_percentile(&paced.latency[kind], q).unwrap_or((whole as f64, 1));
            out.push(name, ns / 1e3, windows as u64);
        }
        p50s.push(whole[0]);
        out.push(p999, us(tail), n);
    }
    paced.send_lag.sort_unstable();
    let lag = percentile(&paced.send_lag, 0.99).or(paced.send_lag.last().copied()).unwrap_or(0);
    out.push("loadgen.send_lag_p99_us", lag as f64 / 1e3, paced.send_lag.len() as u64);
    let p50 = p50s.into_iter().min().expect("two kinds");
    if lag as f64 > 0.1 * p50 as f64 {
        out.notes.push(format!(
            "FLAG generator ran late: send lag p99 {:.1} us is over 10% of the paced p50 {:.1} us",
            lag as f64 / 1e3,
            p50 as f64 / 1e3
        ));
    }
    Ok(())
}

fn ladder_readings(out: &mut Readings, ladder: &Ladder) {
    for (layer, us) in ladder.self_times() {
        out.push(layer, us, ladder.keys);
    }
    out.push("proto.encode_ns_per_frame", ladder.encode_ns_per_frame, ladder.frames);
    out.push("proto.decode_ns_per_frame", ladder.decode_ns_per_frame, ladder.frames);
    out.push("batcher.roundtrip_p50_us", ladder.roundtrip_p50_us, ladder.roundtrips);
    out.push("batcher.roundtrip_p99_us", ladder.roundtrip_p99_us, ladder.roundtrips);
    out.push("device.read_page_wall_us_p50", ladder.read_page_wall_us_p50, PRIMITIVE_SAMPLES);
    out.push("device.write_run_wall_us_p50", ladder.write_run_wall_us_p50, PRIMITIVE_SAMPLES);
}

/// Mean simulated latency of the lookups and inserts between two ledger
/// snapshots, in µs, with the operation counts. Inserts carry the batch
/// flush time `ClamStats` books to batches rather than to any one insert.
pub fn sim_means(from: &ClamStats, to: &ClamStats) -> ((f64, u64), (f64, u64)) {
    let mean = |total_us: f64, n: usize| (total_us / n.max(1) as f64, n as u64);
    let us = |d: flashsim::SimDuration| d.as_micros_f64();
    let lookups = to.lookups.len() - from.lookups.len();
    let inserts = to.inserts.len() - from.inserts.len();
    (
        mean(us(to.lookups.total()) - us(from.lookups.total()), lookups),
        mean(
            us(to.inserts.total()) - us(from.inserts.total()) + us(to.deferred_flush_time)
                - us(from.deferred_flush_time),
            inserts,
        ),
    )
}

/// Re-reads the newest [`VERIFY_IDS`] live keys from the recovered store,
/// over the wire for serving workloads. Returns reads made and reads
/// that came back wrong.
fn verify<M: Medium>(
    w: &Workload,
    store: Store<M>,
    reports: &[RecoveryReport],
    streams: &[OpStream],
) -> Result<(u64, u64), BoxError> {
    let live: Vec<_> =
        streams.iter().map(|s| s.newest_live(VERIFY_IDS / streams.len() as u64)).collect();
    if !w.wire {
        return reread(&live, |keys| {
            Ok(store.lookup_batch(&keys)?.outcomes.into_iter().map(|o| o.value).collect())
        });
    }
    let mut server = ClamdServer::start(store, reports.to_vec(), server_config())?;
    let mut client = ClamdClient::connect(server.local_addr())?;
    let reread = reread(&live, |keys| Ok(client.lookup_batch(keys)?));
    server.shutdown();
    reread
}

/// Looks `live` up a frame of keys at a time and compares.
fn reread(
    live: &[Vec<(Key, Value)>],
    mut lookup: impl FnMut(Vec<Key>) -> Result<Vec<Option<Value>>, BoxError>,
) -> Result<(u64, u64), BoxError> {
    const FRAME: usize = 1024;
    let (mut reads, mut wrong) = (0, 0);
    for frame in live.iter().flat_map(|keys| keys.chunks(FRAME)) {
        let got = lookup(frame.iter().map(|pair| pair.0).collect())?;
        reads += 1;
        wrong += u64::from(got.iter().zip(frame).any(|(got, (_, want))| *got != Some(*want)));
    }
    Ok((reads, wrong))
}

/// Readings that are ratios of the layers' own counters between two
/// ledger snapshots, plus what the recovery reports say.
fn count_readings(
    w: &Workload,
    out: &mut Readings,
    (from, to): (&Ledgers, &Ledgers),
    reports: &[RecoveryReport],
) {
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let (s0, s1, c0, c1, d0, d1) =
        (&from.server, &to.server, &from.clam, &to.clam, &from.io, &to.io);
    let lookups = (c1.lookups.len() - c0.lookups.len()) as u64;
    let inserts = (c1.inserts.len() - c0.inserts.len()) as u64;
    let keys = lookups + inserts + (c1.deletes.len() - c0.deletes.len()) as u64;

    let (sim_lookup, sim_insert) = sim_means(c0, c1);
    out.push("sim_lookup_mean_us", sim_lookup.0, sim_lookup.1);
    out.push("sim_insert_mean_us", sim_insert.0, sim_insert.1);

    out.push("server.wire_errors", (s1.wire_errors - s0.wire_errors) as f64, 1);
    let gathers = s1.batches - s0.batches;
    out.push(
        "batcher.mean_gather",
        ratio(s1.batched_requests - s0.batched_requests, gathers),
        gathers,
    );
    out.push(
        "batcher.lingered_ratio",
        ratio(s1.group_commit_waits - s0.group_commit_waits, gathers),
        gathers,
    );
    let served = s1.lookups - s0.lookups;
    out.push("batcher.bypass_ratio", ratio(s1.bypass_hits - s0.bypass_hits, served), served);
    let admissions = (s1.insert_admissions + s1.lookup_admissions + s1.delete_admissions)
        - (s0.insert_admissions + s0.lookup_admissions + s0.delete_admissions);
    out.push("batcher.admissions_per_op", if w.wire { ratio(admissions, keys) } else { 0.0 }, keys);
    out.push("batcher.gather_high_water", s1.batch_high_water as f64, 1);

    out.push(
        "shared.fast_lookup_ratio",
        ratio(c1.fast_lookups - c0.fast_lookups, lookups),
        lookups,
    );
    out.push(
        "shared.fast_read_conflict_ratio",
        ratio(c1.fast_read_conflicts - c0.fast_read_conflicts, lookups),
        lookups,
    );
    let acquisitions = c1.table_write_acquisitions - c0.table_write_acquisitions;
    out.push(
        "shared.table_write_contended_ratio",
        ratio(c1.table_write_contended - c0.table_write_contended, acquisitions),
        acquisitions,
    );
    out.push("shared.table_lock_high_water", c1.table_lock_high_water as f64, 1);

    out.push(
        "clam.flash_reads_per_lookup",
        ratio(c1.lookup_flash_reads - c0.lookup_flash_reads, lookups),
        lookups,
    );
    out.push(
        "clam.spurious_reads_per_lookup",
        ratio(c1.spurious_flash_reads - c0.spurious_flash_reads, lookups),
        lookups,
    );
    let flushes = c1.flushes - c0.flushes;
    out.push("clam.flushes_per_kinsert", 1e3 * ratio(flushes, inserts), inserts);
    out.push(
        "clam.evictions_per_kinsert",
        1e3 * ratio(c1.forced_evictions - c0.forced_evictions, inserts),
        inserts,
    );
    out.push(
        "clam.coalesced_write_ratio",
        ratio(c1.coalesced_flush_writes - c0.coalesced_flush_writes, flushes),
        flushes,
    );
    let reaps =
        (c1.lookup_ring_reaps + c1.flush_ring_reaps) - (c0.lookup_ring_reaps + c0.flush_ring_reaps);
    out.push("clam.ring_reaps_per_op", ratio(reaps, keys), keys);
    let stalls = (c1.lookup_ring_admission_stalls + c1.write_ring_admission_stalls)
        - (c0.lookup_ring_admission_stalls + c0.write_ring_admission_stalls);
    out.push("clam.ring_admission_stalls", stalls as f64, 1);
    out.push(
        "clam.ring_depth_high_water",
        c1.lookup_ring_depth_high_water.max(c1.mixed_ring_depth_high_water) as f64,
        1,
    );

    out.push("device.reads_per_op", ratio(d1.reads - d0.reads, keys), keys);
    out.push("device.writes_per_op", ratio(d1.writes - d0.writes, keys), keys);
    let user_bytes = inserts * bufferhash::ENTRY_SIZE as u64;
    out.push(
        "device.bytes_written_per_user_byte",
        ratio(d1.bytes_written - d0.bytes_written, user_bytes),
        inserts,
    );
    out.push("device.erases", (d1.erases - d0.erases) as f64, 1);
    out.push("device.trims", (d1.trims - d0.trims) as f64, 1);
    let submitted = d1.requests_submitted - d0.requests_submitted;
    out.push(
        "device.requests_overlapped_ratio",
        ratio(d1.requests_overlapped - d0.requests_overlapped, submitted),
        submitted,
    );
    let busy_us = d1.busy_time().as_micros_f64() - d0.busy_time().as_micros_f64();
    let op_us = sim_lookup.0 * sim_lookup.1 as f64 + sim_insert.0 * sim_insert.1 as f64;
    out.push("device.sim_busy_share", if op_us > 0.0 { busy_us / op_us } else { 0.0 }, keys);

    let stripes = reports.len() as u64;
    out.push(
        "recovery.bytes_scanned",
        reports.iter().map(|r| r.bytes_scanned).sum::<u64>() as f64,
        stripes,
    );
    out.push(
        "recovery.slots_scanned",
        reports.iter().map(|r| r.slots_scanned).sum::<u64>() as f64,
        stripes,
    );
    out.push("recovery.torn_slots", reports.iter().map(|r| r.torn).sum::<usize>() as f64, stripes);
    out.push(
        "recovery.entries_recovered",
        reports.iter().map(|r| r.entries_recovered).sum::<usize>() as f64,
        stripes,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;
    use crate::store::set_up;

    /// What `engine-direct` counts over a fixed number of keys.
    #[derive(Debug, PartialEq)]
    struct Counted {
        sim_lookup_us: f64,
        sim_insert_us: f64,
        io: IoStats,
        flushes: u64,
        evictions: u64,
    }

    fn counted(seed: u64) -> Counted {
        let w = workload("engine-direct").expect("a workload of that name");
        let set_up = set_up::<Ssd>(w, seed, Path::new("unused by the sim SSD")).expect("set-up");
        let before = set_up.store.stats();
        let phase = Phase { record_latency: false, ..Phase::of_keys(20_000) };
        let mut ops = OpStream::new(w, seed, 0, 1);
        let tally = direct_phase(&set_up.store, &mut ops, &mut 0, &phase, Instant::now());
        assert_eq!((tally.keys, tally.failed), (20_032, 0), "313 whole batches, all correct");
        let after = set_up.store.stats();
        let (lookup, insert) = sim_means(&before, &after);
        Counted {
            sim_lookup_us: lookup.0,
            sim_insert_us: insert.0,
            io: set_up.device.stats(),
            flushes: after.flushes,
            evictions: after.forced_evictions,
        }
    }

    #[test]
    fn engine_direct_counts_and_simulated_times_repeat_exactly() {
        let first = counted(11);
        assert_eq!(first, counted(11));
        assert!(first.io.reads > 0 && first.evictions > 0, "flash was read, the log had wrapped");
        // Another seed is another set of keys, so other flush instants.
        let other = counted(12);
        assert_ne!(first.sim_lookup_us, other.sim_lookup_us);
        assert_ne!(first.sim_insert_us, other.sim_insert_us);
    }
}
