//! What the benchmark runs and what it reports: store geometry, the four
//! workloads, and the metric registry `BENCHMARK.json` mirrors.

/// Total flash across all stripes.
pub const FLASH_BYTES: u64 = 32 << 20;
/// Total DRAM across all stripes (about 65k buffered entries).
pub const DRAM_BYTES: u64 = 4 << 20;
/// CLAM stripes; the batcher runs one shard per stripe.
pub const STRIPES: usize = 4;
/// `FileDevice` worker-pool depth, the `clamd --flash-file` default.
pub const FILE_QUEUE_DEPTH: usize = flashsim::DEFAULT_FILE_QUEUE_DEPTH;
/// Requests each connection keeps in flight in a closed loop.
pub const IN_FLIGHT: usize = 32;
/// The newest ids the store is required to retain. Flash holds about 1M
/// entries, so a key this recent can only be missing through a bug.
pub const RETAINED_IDS: u64 = 400_000;
/// Deletes pick among this many of a connection's newest ids.
pub const DELETE_RECENT: u64 = 4096;
/// Keys re-read after recovery.
pub const VERIFY_IDS: u64 = 100_000;
/// Set-up and recovery each run at least this many times and for at least
/// [`REPEAT_FOR`] in all; `setup_s` and `recover_s` are the medians.
pub const REPEATS: usize = 5;
pub const REPEAT_FOR: std::time::Duration = std::time::Duration::from_millis(500);
/// Operations (keys) each ladder depth replays in a traced run.
pub const LADDER_KEYS: u64 = 64_000;
/// `engine-direct` takes its simulated-clock and count metrics from the
/// first `seconds * COUNTED_KEYS_PER_SECOND` keys, an eighth of what the
/// seed sustains, so the count is reached on any host and repeats exactly.
pub const COUNTED_KEYS_PER_SECOND: u64 = 20_000;

/// What the store sits on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backing {
    /// `flashsim::Ssd`: device time exists on the simulated clock only.
    Sim,
    /// `flashsim::FileDevice`: real positioned I/O on an image file.
    File,
}

/// One traffic mix. Inserts are whatever lookups and deletes leave.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` and the README.
    pub why: &'static str,
    pub backing: Backing,
    /// `false`: the caller invokes `StripedClam` directly, no sockets.
    pub wire: bool,
    /// Keys inserted during set-up.
    pub preload: u64,
    /// Keys per operation: 1 sends scalar frames, more sends batch frames.
    pub batch: usize,
    pub lookup_share: f64,
    pub delete_share: f64,
    /// Share of looked-up keys that were never inserted.
    pub miss_share: f64,
    /// Zipf exponent over the preloaded keys; 0 draws uniformly from the
    /// newest [`RETAINED_IDS`].
    pub zipf: f64,
    /// Inserts overwrite preloaded keys instead of adding fresh ones, so
    /// the working set never outgrows the DRAM buffers.
    pub overwrite: bool,
    /// Open-loop rate of the `paced` phase in keys/s, about a fifth of
    /// what the seed sustains in the `sat` phase: this host's capacity dips
    /// threefold for seconds at a time, and a rate the dips overtake turns
    /// latency into queue length and leaves requests unanswered. Fixed
    /// here, never calibrated per run, so latencies of two commits are
    /// taken at the same load.
    pub paced_keys_per_s: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-read-resident",
        why: "TCP, sim SSD, scalar frames, 95% Zipf lookups over 30k keys that fit the DRAM buffers: wire, server and batcher do the work, flash none",
        backing: Backing::Sim,
        wire: true,
        preload: 30_000,
        batch: 1,
        lookup_share: 0.95,
        delete_share: 0.0,
        miss_share: 0.10,
        zipf: 0.99,
        overwrite: true,
        paced_keys_per_s: 30_000.0,
    },
    Workload {
        name: "serve-write-churn",
        why: "Same wire and device, log wrapped by a 1.2M preload, 65% fresh inserts, 5% deletes, 30% lookups: group commit, table locks, flush and eviction",
        backing: Backing::Sim,
        wire: true,
        preload: 1_200_000,
        batch: 1,
        lookup_share: 0.30,
        delete_share: 0.05,
        miss_share: 0.20,
        zipf: 0.0,
        overwrite: false,
        paced_keys_per_s: 8_000.0,
    },
    Workload {
        name: "serve-batch-file",
        why: "TCP, FileDevice image, 64-key batch frames 50/50, then FLUSH and recovery from the file: the engine and real positioned I/O dominate",
        backing: Backing::File,
        wire: true,
        preload: 1_200_000,
        batch: 64,
        lookup_share: 0.5,
        delete_share: 0.0,
        miss_share: 0.20,
        zipf: 0.0,
        overwrite: false,
        paced_keys_per_s: 51_200.0,
    },
    Workload {
        name: "engine-direct",
        why: "No sockets: one caller alternates 64-key StripedClam insert_batch and lookup_batch on the sim SSD, the embedded use; counts repeat exactly",
        backing: Backing::Sim,
        wire: false,
        preload: 1_200_000,
        batch: 64,
        lookup_share: 0.5,
        delete_share: 0.0,
        miss_share: 0.20,
        zipf: 0.0,
        overwrite: false,
        paced_keys_per_s: 32_000.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A metric the benchmark reports on every workload.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Which clock or ledger the number is read from.
    pub clock: &'static str,
    /// End-to-end: the share of the parent's median by which it may
    /// worsen. Per-layer metrics have no bound.
    pub bound: Option<f64>,
    /// End-to-end: what it means. Per-layer: the end-to-end metric it
    /// should move, and where; 0 where the workload does not cross the
    /// layer.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: &'static str,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, clock, bound: Some(bound), note }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, clock, bound: None, note }
}

/// What a user of the system sees, as far as this host can hold it
/// steady: every metric here keeps its run-to-run spread under a third of
/// its bound on all four workloads. Reported by `--trace 0` runs.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", "wall", 0.25, "boot plus preload, median of at least 5 set-ups"),
    e2e(
        "sim_lookup_mean_us",
        "us",
        "lower",
        "SimDuration",
        0.25,
        "mean lookup latency on the simulated device clock (measured I/O time on FileDevice)",
    ),
    e2e(
        "sim_insert_mean_us",
        "us",
        "lower",
        "SimDuration",
        0.25,
        "mean insert latency on the simulated clock, batch flush time included",
    ),
    e2e(
        "rss_mib",
        "MiB",
        "lower",
        "VmHWM",
        0.25,
        "peak resident set of the process while it serves, generator included",
    ),
];

/// What single layers do, and the end-to-end metrics this host cannot
/// hold steady enough to bound. Reported by `--trace 1` runs.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sat_ops_per_s", "1/s", "higher", "wall, sat", "end-to-end by meaning, unbounded for its spread: keys completed per second, closed loop; median of 1 s windows"),
    layer("cpu_us_per_op", "us", "lower", "process CPU, sat", "end-to-end by meaning, unbounded for its spread: user+sys CPU of the whole process (generator and server) per key"),
    layer("recover_s", "s", "lower", "wall", "end-to-end by meaning, unbounded for its spread: rebuilding the store from flash contents alone, median of at least 5"),
    layer("lookup_p50_us", "us", "lower", "wall, paced", "end-to-end by meaning, unbounded for its spread: per-frame (per-call on engine-direct) lookup latency from the due time; median over 1 s windows of the window's p50"),
    layer("insert_p50_us", "us", "lower", "wall, paced", "as lookup_p50_us, for inserts"),
    layer("lookup_p99_us", "us", "lower", "wall, paced", "end-to-end by meaning, unbounded for its spread: median over 1 s windows of the window's p99"),
    layer("insert_p99_us", "us", "lower", "wall, paced", "as lookup_p99_us, for inserts"),
    layer("proto.encode_ns_per_frame", "ns", "lower", "wall, ladder", "cpu_us_per_op and sat_ops_per_s on serve-read-resident; 1/64 as strongly on serve-batch-file"),
    layer("proto.decode_ns_per_frame", "ns", "lower", "wall, ladder", "as proto.encode_ns_per_frame"),
    layer("proto.wire_bytes_per_op", "B", "lower", "count", "sys CPU per op on the scalar workloads; 0 on engine-direct"),
    layer("server.self_us_per_op", "us", "lower", "wall, ladder", "sat_ops_per_s, cpu_us_per_op and both p50s on the two scalar workloads; nothing on engine-direct, whose own phases never cross it"),
    layer("server.sys_cpu_us_per_op", "us", "lower", "process CPU, sat", "cpu_us_per_op: syscalls and wake-ups per key, generator's included"),
    layer("server.wire_errors", "count", "lower", "count", "must stay 0"),
    layer("batcher.self_us_per_op", "us", "lower", "wall, ladder", "sat_ops_per_s on the serving workloads"),
    layer("batcher.roundtrip_p50_us", "us", "lower", "wall, ladder", "lookup_p50_us and insert_p50_us on serve-read-resident"),
    layer("batcher.roundtrip_p99_us", "us", "lower", "wall, ladder", "lookup_p99_us and insert_p99_us on the serving workloads"),
    layer("batcher.mean_gather", "count", "higher", "count", "sat_ops_per_s and insert_p99_us on serve-write-churn; 0 on engine-direct"),
    layer("batcher.lingered_ratio", "ratio", "lower", "count", "lookup_p50_us and insert_p50_us on serve-read-resident"),
    layer("batcher.bypass_ratio", "ratio", "higher", "count", "lookup_p50_us on serve-read-resident"),
    layer("batcher.admissions_per_op", "ratio", "lower", "count", "sat_ops_per_s and insert_p99_us on serve-write-churn"),
    layer("batcher.gather_high_water", "count", "lower", "count", "insert_p99_us on serve-write-churn"),
    layer("shared.self_us_per_op", "us", "lower", "wall, ladder", "sat_ops_per_s and cpu_us_per_op on engine-direct and serve-write-churn (stripe and chunk dispatch)"),
    layer("shared.fast_lookup_ratio", "ratio", "higher", "count", "lookup_p50_us on serve-read-resident"),
    layer("shared.fast_read_conflict_ratio", "ratio", "lower", "count", "lookup_p50_us on serve-read-resident"),
    layer("shared.table_write_contended_ratio", "ratio", "lower", "count", "insert_p99_us on serve-write-churn"),
    layer("shared.table_lock_high_water", "count", "higher", "count", "sat_ops_per_s on serve-write-churn, on hosts with cores to spare"),
    layer("clam.self_us_per_op", "us", "lower", "wall, ladder", "sat_ops_per_s and cpu_us_per_op on serve-batch-file and engine-direct"),
    layer("clam.flash_reads_per_lookup", "ratio", "lower", "count", "sim_lookup_mean_us on engine-direct, lookup_p50_us on serve-batch-file; 0 on serve-read-resident"),
    layer("clam.spurious_reads_per_lookup", "ratio", "lower", "count", "as clam.flash_reads_per_lookup"),
    layer("clam.flushes_per_kinsert", "ratio", "lower", "count", "sim_insert_mean_us, write amplification, insert_p99_us on churn and file"),
    layer("clam.evictions_per_kinsert", "ratio", "lower", "count", "as clam.flushes_per_kinsert"),
    layer("clam.coalesced_write_ratio", "ratio", "higher", "count", "sim_insert_mean_us on engine-direct"),
    layer("clam.ring_reaps_per_op", "ratio", "lower", "count", "clam.self_us_per_op"),
    layer("clam.ring_admission_stalls", "count", "lower", "count", "sim_lookup_mean_us on churn"),
    layer("clam.ring_depth_high_water", "count", "higher", "count", "sim_lookup_mean_us: deeper rings overlap more probes"),
    layer("device.us_per_op", "us", "lower", "wall, ladder", "sat_ops_per_s and both p99s on serve-batch-file only"),
    layer("device.reads_per_op", "ratio", "lower", "count", "sim_lookup_mean_us"),
    layer("device.writes_per_op", "ratio", "lower", "count", "sim_insert_mean_us"),
    layer("device.bytes_written_per_user_byte", "ratio", "lower", "count", "write amplification (the issue's write_amp): sim_insert_mean_us; exact on engine-direct"),
    layer("device.erases", "count", "lower", "count", "sim_insert_mean_us"),
    layer("device.trims", "count", "lower", "count", "sim_insert_mean_us"),
    layer("device.requests_overlapped_ratio", "ratio", "higher", "count", "sim_lookup_mean_us"),
    layer("device.sim_busy_share", "ratio", "lower", "SimDuration", "simulated device-busy time over simulated operation time: sim_lookup_mean_us and sim_insert_mean_us; above 1 when lanes overlap"),
    layer("device.read_page_wall_us_p50", "us", "lower", "wall, ladder", "lookup_p50_us on serve-batch-file; on the sim SSD it is the simulator's own host cost"),
    layer("device.write_run_wall_us_p50", "us", "lower", "wall, ladder", "insert_p99_us on serve-batch-file; on the sim SSD it is the simulator's own host cost"),
    layer("recovery.bytes_scanned", "count", "lower", "count", "recover_s"),
    layer("recovery.slots_scanned", "count", "lower", "count", "recover_s"),
    layer("recovery.torn_slots", "count", "lower", "count", "must stay 0 across a clean shutdown"),
    layer("recovery.entries_recovered", "count", "higher", "count", "recover_s"),
    layer("loadgen.send_lag_p99_us", "us", "lower", "wall, paced", "generator health: how late requests left; flagged over 10% of the paced p50"),
    layer("loadgen.lookup_p999_us", "us", "lower", "wall, paced", "whole-phase tail, too noisy to bound"),
    layer("loadgen.insert_p999_us", "us", "lower", "wall, paced", "whole-phase tail, too noisy to bound"),
    layer("loadgen.trace_overhead_ratio", "ratio", "lower", "wall, sat", "untraced over traced sat rate in the same run; 1 means tracing is free"),
];

/// The driver's run length, and the default for a full set.
pub const RUN_SECONDS: u64 = 15;

#[cfg(test)]
mod tests {
    use super::*;

    /// The limits `BENCHMARK.json` is refused outside of.
    #[test]
    fn registry_fits_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name) && ok_unit(m.unit), "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
            names.push(m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");
    }
}
