//! Central directory for a data-oriented network (§3): content names (chunk
//! hashes) resolve to host locations, with sources joining and leaving at a
//! high rate.
//!
//! Run with: `cargo run --release --example content_directory`

use clam::bufferhash::{hash_with_seed, Clam, ClamConfig};
use clam::flashsim::Ssd;

/// Encodes a (host, port-ish) location into the 64-bit value stored in the
/// directory.
fn location(host: u32, shard: u32) -> u64 {
    ((host as u64) << 32) | shard as u64
}

fn main() {
    let config = ClamConfig::small_test(64 << 20, 8 << 20).expect("config");
    let mut directory = Clam::new(Ssd::intel(64 << 20).expect("ssd"), config).expect("clam");

    // 500k content names published by 1000 hosts.
    let names: u64 = 500_000;
    for i in 0..names {
        let name = hash_with_seed(i, 0xc0ffee);
        directory.insert(name, location((i % 1000) as u32, (i % 16) as u32)).expect("publish");
    }

    // Hosts churn: 100k names get re-published from new locations, 50k are
    // withdrawn.
    for i in 0..100_000u64 {
        let name = hash_with_seed(i * 5 % names, 0xc0ffee);
        directory.insert(name, location(9_999, (i % 16) as u32)).expect("re-publish");
    }
    for i in 0..50_000u64 {
        let name = hash_with_seed(i * 7 % names, 0xc0ffee);
        directory.delete(name).expect("withdraw");
    }

    // Resolution workload.
    let mut resolved = 0u64;
    for i in 0..200_000u64 {
        let name = hash_with_seed(i % names, 0xc0ffee);
        if directory.lookup(name).expect("resolve").value.is_some() {
            resolved += 1;
        }
    }

    let stats = directory.stats();
    println!("Content directory on a simulated Intel SSD:");
    println!("  published {} names, resolved {resolved} of 200k queries", names);
    println!(
        "  publish latency: mean {:.4} ms (p99 {:.4} ms)",
        stats.inserts.mean().as_millis_f64(),
        stats.inserts.quantile(0.99).as_millis_f64()
    );
    println!(
        "  resolve latency: mean {:.4} ms (p99 {:.4} ms)",
        stats.lookups.mean().as_millis_f64(),
        stats.lookups.quantile(0.99).as_millis_f64()
    );
    println!(
        "  sustained rate at these latencies: ~{:.0}k operations/second (single threaded)",
        1.0 / stats.lookups.mean().as_secs_f64().max(1e-9) / 1000.0
    );
}
