//! Queue-depth sweep over the device ring.
//!
//! Companion to ROADMAP's "async / io_uring-style device backend", "drive
//! lookups through the submission queue", "completion ring", "ring-driven
//! write path" and "crash consistency" items, in five parts, every one of
//! them on `Device::submit_nowait` / `reap` — the only way to queue I/O:
//!
//! 1. **Real overlapped I/O** — flush-sized writes are admitted to a
//!    [`flashsim::FileDevice`] ring at several queue depths. The device
//!    spreads them over its worker pool (positioned I/O on the shared
//!    file) and the ring books the measured per-write times on `depth`
//!    lanes; the acceptance bar is throughput improving monotonically with
//!    depth and **>= 2x at depth 8 vs depth 1**.
//! 2. **Simulated SSD cross-check** — the same sweep against `Ssd` models
//!    with varying queue depth, compared with the closed-form
//!    `FlashCostModel::submit_makespan` term (exact).
//! 3. **Queued lookups** — the read path: a miss-heavy `Clam::lookup_batch`
//!    sweep on the real file backend (the measured per-read latencies
//!    scheduled on the queue's lanes; acceptance bar **>= 2x lookup
//!    throughput at depth 8 vs depth 1**; the `inline` column says how many
//!    of those reads ran on the submitting thread instead of the worker
//!    pool — all of them while the page cache answers, so the speedup is
//!    what a device with that queue depth would retire, not host threads
//!    overlapping), plus an exact cross-check of the simulated SSD against
//!    `FlashCostModel::lookup_ring_makespan`.
//! 4. **Mixed flush + lookup traffic** — the write path rides the same
//!    completion ring as the read path: an exact cross-check of the
//!    simulated SSD against `FlashCostModel::mixed_ring_makespan`
//!    (flush-write phase then probe-chain phase through one shared ring).
//! 5. **Recovery scan** — a power cut (with a torn trailing write) lands
//!    at ~70% of an insert run, then `Clam::recover` ring-scans every log
//!    slot of the surviving image. The reported `scan_makespan` must match
//!    `FlashCostModel::recovery_scan_makespan` **exactly** at every queue
//!    depth, and scan throughput must scale with depth (>= 2x at the
//!    deepest queue vs depth 1).
//!
//! The parts that raced this path against its predecessors went with them
//! (PR 20), blocking `Device::submit` itself with PR 23; their last numbers
//! are in git history and `BENCH_pr13/14/18/19.json`.
//!
//! `--smoke` runs a reduced sweep for CI.

use bench::{ms, print_header, print_row, workload_key};
use bufferhash::analysis::FlashCostModel;
use bufferhash::{Clam, ClamConfig, EvictionPolicy, FilterMode, FlashLayoutMode};
use flashsim::{
    CompletionRing, Device, DeviceProfile, FileDevice, IoRequest, IoStats, QueueCapabilities,
    RingRequest, SimDuration, Ssd,
};

struct Scale {
    /// Write requests per admission (one per coalesced flush run).
    requests: usize,
    /// Bytes per write request (one incarnation-sized flush run).
    request_bytes: usize,
    /// Measurement trials per depth (best trial wins, to shed scheduler
    /// noise on loaded hosts).
    trials: usize,
    /// Queue depths to sweep.
    depths: &'static [usize],
    /// Keys loaded into the file-backed CLAM before the lookup sweep.
    lookup_load: u64,
    /// Keys per miss-heavy `lookup_batch` call in the lookup sweep.
    lookup_batch: usize,
    /// `lookup_batch` calls per trial in the lookup sweep.
    lookup_batches: usize,
}

const FULL: Scale = Scale {
    requests: 512,
    request_bytes: 64 * 1024,
    trials: 5,
    depths: &[1, 2, 4, 8],
    lookup_load: 60_000,
    lookup_batch: 512,
    lookup_batches: 4,
};
const SMOKE: Scale = Scale {
    requests: 128,
    request_bytes: 16 * 1024,
    trials: 3,
    depths: &[1, 2, 8],
    lookup_load: 60_000,
    lookup_batch: 256,
    lookup_batches: 2,
};

fn flush_batch(scale: &Scale) -> Vec<IoRequest> {
    (0..scale.requests)
        .map(|i| {
            IoRequest::write((i * scale.request_bytes) as u64, vec![i as u8; scale.request_bytes])
        })
        .collect()
}

/// Admits `requests` to a fresh ring on `device` in one call, drains it
/// (every request must succeed) and returns the ring's makespan: the
/// elapsed time of the stream on the device's queue lanes.
fn ring_makespan<D: Device>(device: &mut D, requests: Vec<IoRequest>) -> SimDuration {
    let mut ring = CompletionRing::for_queue(device.queue());
    let requests = requests.into_iter().map(RingRequest::new).collect();
    device.submit_nowait(requests, &mut ring).expect("submit_nowait");
    while ring.in_flight() > 0 {
        for completion in device.reap(&mut ring, 1).expect("reap") {
            completion.result.expect("queued I/O failed");
        }
    }
    ring.makespan()
}

/// The table of an exact simulator-vs-model cross-check: one row per depth,
/// speedups against the first row.
struct ModelTable {
    base: Option<SimDuration>,
}

impl ModelTable {
    const WIDTHS: [usize; 4] = [8, 16, 16, 10];

    fn new() -> Self {
        print_header(&["depth", "measured (ms)", "model (ms)", "speedup"], &Self::WIDTHS);
        ModelTable { base: None }
    }

    fn row(&mut self, depth: usize, measured: SimDuration, model: SimDuration) {
        let base = *self.base.get_or_insert(measured);
        let speedup = base.as_nanos() as f64 / measured.as_nanos().max(1) as f64;
        let cells = [format!("{depth}"), ms(measured), ms(model), format!("{speedup:.2}x")];
        print_row(&cells, &Self::WIDTHS);
    }
}

fn mb_per_sec(bytes: usize, elapsed: SimDuration) -> f64 {
    bytes as f64 / (1 << 20) as f64 / elapsed.as_secs_f64().max(1e-12)
}

/// Share of the reads between two snapshots of a [`FileDevice`]'s counters
/// that ran on the submitting thread instead of the worker pool.
fn inline_cell(before: &IoStats, after: &IoStats) -> String {
    match after.reads - before.reads {
        0 => "n/a".into(),
        reads => {
            let inline = after.reads_inline - before.reads_inline;
            format!("{:.0}%", 100.0 * inline as f64 / reads as f64)
        }
    }
}

/// Part 1: real overlapped file I/O. Returns PASS/FAIL.
fn file_device_sweep(scale: &Scale) -> bool {
    let capacity = (scale.requests * scale.request_bytes) as u64;
    let path = std::env::temp_dir().join(format!("clam-io-queue-depth-{}", std::process::id()));
    println!(
        "[1/5] FileDevice: {} flush writes x {} KiB per ring admission, best of {} trials",
        scale.requests,
        scale.request_bytes >> 10,
        scale.trials
    );
    let widths = [8, 14, 12, 14, 10, 22];
    print_header(
        &["depth", "elapsed (ms)", "wall (ms)", "MiB/s", "speedup", "overlapped/submitted"],
        &widths,
    );

    // "elapsed" is the ring's makespan (the measured per-request times
    // booked on `depth` queue lanes — the accounting the PASS bar gates
    // on); "wall" is the host wall clock from admission to the last reap,
    // shown for transparency (on hosts with fewer cores than the queue
    // depth the pool is capped and wall time cannot shrink with depth,
    // which is exactly why the queue model exists).
    let mut throughputs: Vec<f64> = Vec::new();
    let mut base = 0.0f64;
    for &depth in scale.depths {
        let mut best = SimDuration::from_secs(3600);
        let mut best_wall = f64::MAX;
        let mut last_stats = String::new();
        for _ in 0..scale.trials {
            let mut dev = FileDevice::with_queue_depth(&path, capacity, depth).expect("file dev");
            let requests = flush_batch(scale);
            let wall_start = std::time::Instant::now();
            let elapsed = ring_makespan(&mut dev, requests);
            let wall = wall_start.elapsed().as_secs_f64() * 1e3;
            best = best.min(elapsed);
            best_wall = best_wall.min(wall);
            let s = dev.stats();
            last_stats = format!("{}/{}", s.requests_overlapped, s.requests_submitted);
        }
        let thr = mb_per_sec(scale.requests * scale.request_bytes, best);
        if depth == scale.depths[0] {
            base = thr;
        }
        throughputs.push(thr);
        print_row(
            &[
                format!("{depth}"),
                ms(best),
                format!("{best_wall:.3}"),
                format!("{thr:.0}"),
                format!("{:.2}x", thr / base.max(1e-12)),
                last_stats,
            ],
            &widths,
        );
    }
    std::fs::remove_file(&path).ok();
    println!(
        "(\"elapsed\" = device-queue completion accounting, the swept metric; \"wall\" = host\n\
         wall clock, bounded by this machine's {} core(s) regardless of queue depth)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // 3% tolerance absorbs wall-clock measurement noise (per-depth steps
    // are ~2x, so this cannot mask a real regression).
    let monotone = throughputs.windows(2).all(|w| w[1] >= w[0] * 0.97);
    let speedup = throughputs.last().unwrap() / base.max(1e-12);
    let pass = monotone && speedup >= 2.0;
    if pass {
        println!(
            "PASS: throughput improves monotonically and is {speedup:.2}x at depth {} vs depth {}\n",
            scale.depths.last().unwrap(),
            scale.depths[0]
        );
    } else {
        println!(
            "FAIL: monotone = {monotone}, depth-{} speedup = {speedup:.2}x (target: monotone, >= 2x)\n",
            scale.depths.last().unwrap()
        );
    }
    pass
}

/// Part 2: simulated SSD sweep against the closed-form queue model.
fn simulated_sweep(scale: &Scale) {
    const PAGES: usize = 64;
    println!("[2/5] Simulated Intel-class SSD: {PAGES} page writes per ring admission vs model");
    let mut table = ModelTable::new();
    for &depth in scale.depths {
        let profile = DeviceProfile {
            queue: QueueCapabilities::overlapped(depth),
            ..DeviceProfile::intel_x18m()
        };
        let mut ssd = Ssd::with_profile(16 << 20, profile.clone()).expect("ssd");
        let requests =
            (0..PAGES).map(|i| IoRequest::write((i * 4096) as u64, vec![7u8; 4096])).collect();
        let measured = ring_makespan(&mut ssd, requests);
        let model = FlashCostModel::from_profile(&profile).submit_makespan(
            PAGES,
            profile.write_cost.cost(4096),
            depth,
        );
        assert_eq!(
            measured, model,
            "simulator and closed-form queue model must agree at depth {depth}"
        );
        table.row(depth, measured, model);
    }
    println!("simulator == closed-form model at every depth\n");
}

/// A single-super-table CLAM with `rounds` incarnations of a few entries
/// each and Bloom filters disabled: every miss probes every incarnation,
/// one page each, with no overflow chains — a deterministic probe pattern
/// for the exact model cross-check.
fn deterministic_probe_clam<D: Device>(device: D, rounds: usize) -> Clam<D> {
    let cfg = ClamConfig {
        flash_capacity: 8 << 20,
        dram_bytes: 1 << 20,
        buffer_bytes_total: 32 * 1024,
        buffer_bytes_per_table: 32 * 1024,
        entry_size: 16,
        max_buffer_utilization: 0.5,
        eviction: EvictionPolicy::Fifo,
        filter_mode: FilterMode::Disabled,
        layout: FlashLayoutMode::GlobalLog,
        enable_buffering: true,
    };
    cfg.validate().expect("valid probe config");
    let mut clam = Clam::new(device, cfg).expect("clam");
    for round in 0..rounds as u64 {
        for i in 0..8u64 {
            clam.insert(workload_key(round * 100 + i), i).expect("insert");
        }
        clam.flush_all().expect("flush");
    }
    clam
}

/// Part 3: the queued lookup pipeline. Returns PASS/FAIL.
fn queued_lookup_sweep(scale: &Scale) -> bool {
    // ------------------------------------------------------------------
    // 3a. Simulated SSD vs the closed-form queued-lookup model (exact).
    // ------------------------------------------------------------------
    const KEYS: usize = 64;
    const ROUNDS: usize = 4;
    println!(
        "[3/5] Queued lookups: {KEYS} misses x {ROUNDS} probes each on the simulated SSD vs model"
    );
    let mut table = ModelTable::new();
    for &depth in scale.depths {
        let profile = DeviceProfile {
            queue: QueueCapabilities::overlapped(depth),
            ..DeviceProfile::intel_x18m()
        };
        let mut clam = deterministic_probe_clam(
            Ssd::with_profile(8 << 20, profile.clone()).expect("ssd"),
            ROUNDS,
        );
        let keys: Vec<u64> = (0..KEYS as u64).map(|i| workload_key(7_000_000 + i)).collect();
        let batch = clam.lookup_batch(&keys).expect("lookup_batch");
        assert_eq!(batch.waves, ROUNDS, "every miss probes every incarnation");
        assert_eq!(batch.probe_reads, ROUNDS * KEYS);
        // The lanes (1/2/4/8) divide the 64 keys, so the level-schedule
        // bound is the `ROUNDS * KEYS / lanes` page reads asserted here
        // since this part was written.
        let model = FlashCostModel::from_profile(&profile);
        let predicted = model.lookup_ring_makespan(KEYS, ROUNDS, depth);
        assert_eq!(
            batch.probe_latency, predicted,
            "simulator and closed-form queued-lookup model must agree at depth {depth}"
        );
        table.row(depth, batch.probe_latency, predicted);
    }
    println!("simulator == closed-form queued-lookup model at every depth\n");

    // ------------------------------------------------------------------
    // 3b. Miss-heavy lookup_batch sweep on the real file backend.
    // ------------------------------------------------------------------
    let path = std::env::temp_dir().join(format!("clam-lookup-queue-{}", std::process::id()));
    println!(
        "miss-heavy Clam::lookup_batch on FileDevice: {} batches x {} absent keys \
         (Bloom filters disabled), best of {} trials",
        scale.lookup_batches, scale.lookup_batch, scale.trials
    );
    let widths = [8, 14, 14, 12, 8, 10];
    print_header(
        &["depth", "elapsed (ms)", "klookups/s", "probe reads", "inline", "speedup"],
        &widths,
    );
    let mut throughputs: Vec<f64> = Vec::new();
    let mut base = 0.0f64;
    for &depth in scale.depths {
        // Build and load once per depth: the sweep keys all miss and the
        // policy is FIFO, so lookups mutate nothing — trials can reuse the
        // loaded CLAM and only re-measure the lookup phase.
        let device = FileDevice::with_queue_depth(&path, 8 << 20, depth).expect("file device");
        let mut cfg = ClamConfig::small_test(8 << 20, 2 << 20).expect("cfg");
        cfg.filter_mode = FilterMode::Disabled;
        let mut clam = Clam::new(device, cfg).expect("clam");
        let load: Vec<(u64, u64)> = (0..scale.lookup_load).map(|i| (workload_key(i), i)).collect();
        for chunk in load.chunks(1024) {
            clam.insert_batch(chunk).expect("load");
        }
        let mut best = SimDuration::from_secs(3600);
        let mut probe_reads = 0usize;
        let before = clam.device().stats();
        for _ in 0..scale.trials {
            let mut elapsed = SimDuration::ZERO;
            probe_reads = 0;
            for b in 0..scale.lookup_batches {
                let keys: Vec<u64> = (0..scale.lookup_batch as u64)
                    .map(|i| workload_key(9_000_000 + b as u64 * 100_000 + i))
                    .collect();
                let batch = clam.lookup_batch(&keys).expect("lookup_batch");
                assert_eq!(batch.hits(), 0, "sweep keys must miss");
                elapsed += batch.latency;
                probe_reads += batch.probe_reads;
            }
            best = best.min(elapsed);
        }
        let lookups = (scale.lookup_batches * scale.lookup_batch) as f64;
        let thr = lookups / best.as_millis_f64().max(1e-12);
        if depth == scale.depths[0] {
            base = thr;
        }
        throughputs.push(thr);
        print_row(
            &[
                format!("{depth}"),
                ms(best),
                format!("{thr:.1}"),
                format!("{probe_reads}"),
                inline_cell(&before, &clam.device().stats()),
                format!("{:.2}x", thr / base.max(1e-12)),
            ],
            &widths,
        );
    }
    std::fs::remove_file(&path).ok();
    println!(
        "(elapsed = the measured per-read latencies scheduled on `depth` queue lanes; inline =\n\
         share of the reads that ran on the submitting thread, not the worker pool)"
    );

    // Same tolerance story as part 1: queue-completion accounting, with a
    // 3% allowance for wall-clock noise in the measured per-read times.
    let monotone = throughputs.windows(2).all(|w| w[1] >= w[0] * 0.97);
    let speedup = throughputs.last().unwrap() / base.max(1e-12);
    let pass = monotone && speedup >= 2.0;
    if pass {
        println!(
            "PASS: miss-heavy lookup throughput is {speedup:.2}x at depth {} vs depth {}\n",
            scale.depths.last().unwrap(),
            scale.depths[0]
        );
    } else {
        println!(
            "FAIL: monotone = {monotone}, depth-{} lookup speedup = {speedup:.2}x \
             (target: monotone, >= 2x)\n",
            scale.depths.last().unwrap()
        );
    }
    pass
}

/// Part 4: mixed flush + lookup traffic through the one shared ring, the
/// simulated SSD against the closed-form mixed-ring model (exact).
fn mixed_ring_sweep(scale: &Scale) {
    use std::collections::HashMap;

    const BUFFER: usize = 32 << 10;
    const FLUSHES: usize = 8;
    const KEYS: usize = 48;
    const PROBES: usize = 4;
    println!(
        "[4/5] Mixed ring: {FLUSHES} flush writes then {KEYS} misses x {PROBES} probes \
         through one ring on the simulated SSD vs model"
    );
    let mut table = ModelTable::new();
    for &depth in scale.depths {
        let profile = DeviceProfile {
            queue: QueueCapabilities::overlapped(depth),
            ..DeviceProfile::intel_x18m()
        };
        let mut dev = Ssd::with_profile(64 << 20, profile.clone()).expect("ssd");
        let page = profile.page_size as usize;
        let model = FlashCostModel::from_profile(&profile);
        let mut ring = CompletionRing::new(model.lanes_at_depth(depth));
        // Write phase: incarnation-sized flush writes to disjoint log
        // slots, admitted without waiting.
        let writes: Vec<RingRequest> = (0..FLUSHES)
            .map(|i| RingRequest::new(IoRequest::write((i * BUFFER) as u64, vec![0xAA; BUFFER])))
            .collect();
        dev.submit_nowait(writes, &mut ring).expect("write phase");
        dev.reap(&mut ring, 1).expect("reap");
        // Read phase: probe chains, each re-armed as its previous read
        // retires — behind every write's conflict floor.
        let read_base = (FLUSHES * BUFFER) as u64;
        let first: Vec<RingRequest> = (0..KEYS)
            .map(|i| RingRequest::new(IoRequest::read(read_base + (i * page) as u64, page)))
            .collect();
        let tickets = dev.submit_nowait(first, &mut ring).expect("read phase");
        let mut rounds: HashMap<u64, usize> = tickets.iter().map(|t| (t.id(), 1)).collect();
        while ring.in_flight() > 0 {
            for c in dev.reap(&mut ring, 1).expect("reap") {
                let done = rounds.remove(&c.ticket.id()).expect("armed ticket");
                if done < PROBES {
                    let next = RingRequest::after(IoRequest::read(read_base, page), c.completed_at);
                    let t = dev.submit_nowait(vec![next], &mut ring).expect("re-arm");
                    rounds.insert(t[0].id(), done + 1);
                }
            }
        }
        let measured = ring.makespan();
        let predicted = model.mixed_ring_makespan(KEYS, PROBES, FLUSHES, BUFFER, depth);
        assert_eq!(
            measured, predicted,
            "simulator and closed-form mixed-ring model must agree at depth {depth}"
        );
        table.row(depth, measured, predicted);
    }
    println!("simulator == closed-form mixed-ring model at every depth\n");
}

/// Part 5: recovery scan after a power cut vs the closed-form model.
/// Returns PASS/FAIL.
fn recovery_sweep(scale: &Scale) -> bool {
    use flashsim::CrashDevice;
    // 8 MiB flash under `small_test` = 256 log slots of 32 KiB each.
    const FLASH: u64 = 8 << 20;
    const SLOTS: usize = 256;
    const SLOT_BYTES: usize = 32 << 10;
    const LOAD: u64 = 40_000;
    println!(
        "[5/5] Recovery scan: power cut + torn write at ~70% of a {LOAD}-insert run, then \
         Clam::recover ring-scans all {SLOTS} slots vs FlashCostModel::recovery_scan_makespan"
    );
    let widths = [8, 12, 14, 14, 10, 12, 10];
    print_header(
        &["depth", "accepted", "measured (ms)", "model (ms)", "MiB/s", "entries", "speedup"],
        &widths,
    );
    let mut all_exact = true;
    let mut throughputs: Vec<f64> = Vec::new();
    let mut base = 0.0f64;
    for &depth in scale.depths {
        let profile = DeviceProfile {
            queue: QueueCapabilities::overlapped(depth),
            ..DeviceProfile::intel_x18m()
        };
        let cfg = ClamConfig::small_test(FLASH, 2 << 20).expect("cfg");
        // Twin run: total data-effect device ops for the workload, so the
        // cut can land at a fixed fraction of the real schedule.
        let mut twin = Clam::new(
            CrashDevice::new(Ssd::with_profile(FLASH, profile.clone()).expect("ssd")),
            cfg.clone(),
        )
        .expect("clam");
        for i in 0..LOAD {
            twin.insert(workload_key(i), i).expect("insert");
        }
        twin.flush_all().expect("flush");
        let total = twin.device().crash_stats().ops_applied;
        // Victim run: power cut at 70% of that schedule, torn final write.
        let mut crash = CrashDevice::cut_after(
            Ssd::with_profile(FLASH, profile.clone()).expect("ssd"),
            total * 7 / 10,
        );
        crash.set_torn_write_bytes(1_500);
        let mut victim = Clam::new(crash, cfg.clone()).expect("clam");
        for i in 0..LOAD {
            if victim.insert(workload_key(i), i).is_err() {
                break;
            }
        }
        let image = victim.into_device().into_inner();
        let (_, report) = Clam::recover(image, cfg).expect("recover");
        let model =
            FlashCostModel::from_profile(&profile).recovery_scan_makespan(SLOTS, SLOT_BYTES, depth);
        let exact = report.scan_makespan == model;
        all_exact &= exact;
        let thr = mb_per_sec(report.bytes_scanned as usize, report.scan_makespan);
        if depth == scale.depths[0] {
            base = thr;
        }
        throughputs.push(thr);
        print_row(
            &[
                format!("{depth}"),
                format!("{}+{}t", report.accepted, report.torn),
                ms(report.scan_makespan),
                format!("{}{}", ms(model), if exact { "" } else { " !" }),
                format!("{thr:.0}"),
                format!("{}", report.entries_recovered),
                format!("{:.2}x", thr / base.max(1e-12)),
            ],
            &widths,
        );
    }
    println!(
        "(measured = RecoveryReport::scan_makespan, the completion-ring makespan of the\n\
         whole-log slot scan; model = recovery_scan_makespan(slots, slot_bytes, depth))"
    );
    let monotone = throughputs.windows(2).all(|w| w[1] >= w[0]);
    let speedup = throughputs.last().unwrap() / base.max(1e-12);
    let pass = all_exact && monotone && speedup >= 2.0;
    if pass {
        println!(
            "PASS: scan == model at every depth; recovery throughput is {speedup:.2}x at \
             depth {} vs depth {}\n",
            scale.depths.last().unwrap(),
            scale.depths[0]
        );
    } else {
        println!(
            "FAIL: exact = {all_exact}, monotone = {monotone}, depth-{} speedup = \
             {speedup:.2}x (target: exact, monotone, >= 2x)\n",
            scale.depths.last().unwrap()
        );
    }
    pass
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { &SMOKE } else { &FULL };
    println!("Submission-queue depth sweep ({} mode)\n", if smoke { "smoke" } else { "full" });
    let write_pass = file_device_sweep(scale);
    simulated_sweep(scale);
    let lookup_pass = queued_lookup_sweep(scale);
    mixed_ring_sweep(scale);
    let recovery_pass = recovery_sweep(scale);
    if !write_pass || !lookup_pass || !recovery_pass {
        println!(
            "\noverall: FAIL (write scaling: {}, queued lookup scaling: {}, recovery scan: {})",
            if write_pass { "ok" } else { "below target" },
            if lookup_pass { "ok" } else { "below target" },
            if recovery_pass { "ok" } else { "below target" }
        );
        std::process::exit(1);
    }
    println!("\noverall: PASS");
}
