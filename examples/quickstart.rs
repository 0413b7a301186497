//! Quickstart: build a CLAM on a simulated SSD, batch-insert two million
//! fingerprints, look some up (batched and per-op), and print the latency
//! profile.
//!
//! Run with: `cargo run --release --example quickstart`

use clam::bufferhash::{Clam, ClamConfig};
use clam::flashsim::Ssd;

fn main() {
    // A scaled-down version of the paper's 32 GB flash / 4 GB DRAM CLAM:
    // 1/64 scale, i.e. 512 MiB of simulated flash, 64 MiB of DRAM. (The
    // harness ran at 1/512 before the batched insert pipeline made larger
    // fills cheap, and at 1/128 until the read path was batched through
    // the completion ring too.)
    let config = ClamConfig::small_test(512 << 20, 64 << 20).expect("config");
    println!(
        "CLAM configuration: {} super tables, {} incarnations each, {} Bloom hash functions",
        config.num_super_tables(),
        config.incarnations_per_table(),
        config.bloom_hashes()
    );
    let device = Ssd::intel(512 << 20).expect("device");
    let mut clam = Clam::new(device, config).expect("clam");

    // Insert two million (fingerprint -> address) mappings through the
    // batched pipeline: dispatch overhead is paid once per batch and
    // flush writes to contiguous log slots coalesce.
    let n: u64 = 2_000_000;
    let ops: Vec<(u64, u64)> =
        (0..n).map(|i| (clam::bufferhash::hash_with_seed(i, 7), i)).collect();
    for chunk in ops.chunks(1024) {
        clam.insert_batch(chunk).expect("insert_batch");
    }

    // Look up a mix of present and absent keys, batched.
    let keys: Vec<u64> = (0..100_000u64)
        .map(|i| {
            if i % 5 < 2 {
                clam::bufferhash::hash_with_seed(i * 7 % n, 7) // present
            } else {
                clam::bufferhash::hash_with_seed(i, 0xdead) // absent
            }
        })
        .collect();
    let mut hits = 0;
    for chunk in keys.chunks(256) {
        for out in clam.lookup_batch(chunk).expect("lookup_batch") {
            if out.value.is_some() {
                hits += 1;
            }
        }
    }

    let stats = clam.stats();
    println!("\nAfter {n} batched inserts and 100k batched lookups ({hits} hits):");
    println!(
        "  insert latency: mean {:.4} ms, p99 {:.4} ms, max {:.3} ms",
        stats.inserts.mean().as_millis_f64(),
        stats.inserts.quantile(0.99).as_millis_f64(),
        stats.inserts.max().as_millis_f64()
    );
    println!(
        "  lookup latency: mean {:.4} ms, p99 {:.4} ms, max {:.3} ms",
        stats.lookups.mean().as_millis_f64(),
        stats.lookups.quantile(0.99).as_millis_f64(),
        stats.lookups.max().as_millis_f64()
    );
    println!(
        "  buffer flushes: {}, coalesced flush writes: {}, spurious flash reads: {}",
        stats.flushes, stats.coalesced_flush_writes, stats.spurious_flash_reads
    );
    println!(
        "  queued lookups: {} batches, {} probe waves, {} probe reads ({} overlapped on the SSD queue)",
        stats.lookup_batches_submitted,
        stats.lookup_probe_waves,
        stats.lookup_probe_requests,
        stats.lookup_probes_overlapped
    );
}
