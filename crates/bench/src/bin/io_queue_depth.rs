//! Queue-depth sweep over the device ring on a real file.
//!
//! Companion to ROADMAP's "async / io_uring-style device backend", "drive
//! lookups through the submission queue", "completion ring" and
//! "ring-driven write path" items, in two parts, both on
//! [`flashsim::FileDevice`] through `Device::submit` — the only way to
//! queue I/O:
//!
//! 1. **Flush writes** — flush-sized writes are submitted to a
//!    `FileDevice` ring at several queue depths. Each runs inside the call
//!    on the submitting thread (a positioned write to the file) and the
//!    ring books the measured per-write times on `depth` lanes; the
//!    acceptance bar is throughput improving monotonically with depth and
//!    **>= 2x at the deepest queue vs depth 1**.
//! 2. **Miss-heavy lookups** — the read path: a `Clam::lookup_batch` sweep
//!    over absent keys with Bloom filters disabled (the measured per-read
//!    latencies scheduled on the queue's lanes; the same bar).
//!
//! In both parts every request runs on the submitting thread, so the
//! speedup is what a device with that queue depth would retire, not host
//! threads overlapping.
//!
//! The exact simulator-vs-closed-form checks of the ring (`submit_makespan`,
//! `lookup_ring_makespan`, `mixed_ring_makespan`, `recovery_scan_makespan`)
//! are unit tests of `bufferhash::analysis` and `bufferhash::clam`.
//!
//! `--smoke` runs a reduced sweep for CI.

use std::path::PathBuf;

use bench::{ms, print_header, print_row, workload_key};
use bufferhash::{Clam, ClamConfig, FilterMode};
use flashsim::{CompletionRing, Device, FileDevice, IoRequest, RingRequest, SimDuration};

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

/// A device image under the temp directory, removed when dropped: on
/// every exit from a sweep, a failed `expect` included.
struct TempImage(PathBuf);

impl TempImage {
    fn new(name: &str) -> Self {
        TempImage(std::env::temp_dir().join(format!("{name}-{}", std::process::id())))
    }
}

impl Drop for TempImage {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn flush_batch(scale: &Scale) -> Vec<IoRequest> {
    (0..scale.requests)
        .map(|i| {
            IoRequest::write((i * scale.request_bytes) as u64, vec![i as u8; scale.request_bytes])
        })
        .collect()
}

/// Submits `requests` to a fresh ring on `device` in one call (every
/// request must succeed) and returns the ring's makespan: the elapsed time
/// of the stream on the device's queue lanes.
fn ring_makespan<D: Device>(device: &mut D, requests: Vec<IoRequest>) -> SimDuration {
    let mut ring = CompletionRing::for_queue(device.queue());
    let requests = requests.into_iter().map(RingRequest::new).collect();
    for completion in device.submit(requests, &mut ring).expect("submit") {
        completion.result.expect("queued I/O failed");
    }
    ring.makespan()
}

fn mb_per_sec(bytes: usize, elapsed: SimDuration) -> f64 {
    bytes as f64 / (1 << 20) as f64 / elapsed.as_secs_f64().max(1e-12)
}

/// The bar both sweeps gate on: `throughputs` (one per depth, shallowest
/// first) improve monotonically and reach 2x at the deepest queue. The 3%
/// tolerance absorbs wall-clock noise in the measured per-request times
/// (per-depth steps are ~2x, so it cannot mask a real regression).
fn verdict(what: &str, throughputs: &[f64], depths: &[usize]) -> bool {
    let monotone = throughputs.windows(2).all(|w| w[1] >= w[0] * 0.97);
    let speedup = throughputs.last().unwrap() / throughputs[0].max(1e-12);
    let (deepest, shallowest) = (depths.last().unwrap(), depths[0]);
    let pass = monotone && speedup >= 2.0;
    if pass {
        println!(
            "PASS: {what} improves monotonically and is {speedup:.2}x at depth {deepest} vs \
             depth {shallowest}\n"
        );
    } else {
        println!(
            "FAIL: {what}: monotone = {monotone}, depth-{deepest} speedup = {speedup:.2}x \
             (target: monotone, >= 2x)\n"
        );
    }
    pass
}

/// Part 1: flush writes admitted to the file's ring. Returns PASS/FAIL.
fn file_device_sweep(scale: &Scale) -> bool {
    let capacity = (scale.requests * scale.request_bytes) as u64;
    let image = TempImage::new("clam-io-queue-depth");
    println!(
        "[1/2] FileDevice: {} flush writes x {} KiB per ring admission, best of {} trials",
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
    // on); "wall" is the host wall clock around the `submit` call,
    // shown for transparency (the writes run one after another on this
    // thread, so wall time cannot shrink with depth, which is exactly why
    // the queue model exists).
    let mut throughputs: Vec<f64> = Vec::new();
    for &depth in scale.depths {
        let mut best = SimDuration::from_secs(3600);
        let mut best_wall = f64::MAX;
        let mut last_stats = String::new();
        for _ in 0..scale.trials {
            let mut dev =
                FileDevice::with_queue_depth(&image.0, capacity, depth).expect("file dev");
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
        throughputs.push(thr);
        print_row(
            &[
                format!("{depth}"),
                ms(best),
                format!("{best_wall:.3}"),
                format!("{thr:.0}"),
                format!("{:.2}x", thr / throughputs[0].max(1e-12)),
                last_stats,
            ],
            &widths,
        );
    }
    println!(
        "(\"elapsed\" = device-queue completion accounting, the swept metric; \"wall\" = host\n\
         wall clock, every write on the submitting thread regardless of queue depth)"
    );
    verdict("write throughput", &throughputs, scale.depths)
}

/// Part 2: miss-heavy `lookup_batch` on the file backend. Returns
/// PASS/FAIL.
fn queued_lookup_sweep(scale: &Scale) -> bool {
    let image = TempImage::new("clam-lookup-queue");
    println!(
        "[2/2] Miss-heavy Clam::lookup_batch on FileDevice: {} batches x {} absent keys \
         (Bloom filters disabled), best of {} trials",
        scale.lookup_batches, scale.lookup_batch, scale.trials
    );
    let widths = [8, 14, 14, 12, 10];
    print_header(&["depth", "elapsed (ms)", "klookups/s", "probe reads", "speedup"], &widths);
    let mut throughputs: Vec<f64> = Vec::new();
    for &depth in scale.depths {
        // Build and load once per depth: the sweep keys all miss and the
        // policy is FIFO, so lookups mutate nothing — trials can reuse the
        // loaded CLAM and only re-measure the lookup phase.
        let device = FileDevice::with_queue_depth(&image.0, 8 << 20, depth).expect("file device");
        let mut cfg = ClamConfig::small_test(8 << 20, 2 << 20).expect("cfg");
        cfg.filter_mode = FilterMode::Disabled;
        let mut clam = Clam::new(device, cfg).expect("clam");
        let load: Vec<(u64, u64)> = (0..scale.lookup_load).map(|i| (workload_key(i), i)).collect();
        for chunk in load.chunks(1024) {
            clam.insert_batch(chunk).expect("load");
        }
        let mut best = SimDuration::from_secs(3600);
        let mut probe_reads = 0usize;
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
        throughputs.push(thr);
        print_row(
            &[
                format!("{depth}"),
                ms(best),
                format!("{thr:.1}"),
                format!("{probe_reads}"),
                format!("{:.2}x", thr / throughputs[0].max(1e-12)),
            ],
            &widths,
        );
    }
    println!("(elapsed = the measured per-read latencies scheduled on `depth` queue lanes)");
    verdict("miss-heavy lookup throughput", &throughputs, scale.depths)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { &SMOKE } else { &FULL };
    println!("Submission-queue depth sweep ({} mode)\n", if smoke { "smoke" } else { "full" });
    let write_pass = file_device_sweep(scale);
    let lookup_pass = queued_lookup_sweep(scale);
    if !write_pass || !lookup_pass {
        println!(
            "\noverall: FAIL (write scaling: {}, queued lookup scaling: {})",
            if write_pass { "ok" } else { "below target" },
            if lookup_pass { "ok" } else { "below target" }
        );
        std::process::exit(1);
    }
    println!("\noverall: PASS");
}
