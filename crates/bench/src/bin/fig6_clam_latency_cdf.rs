//! Figure 6: CDFs of CLAM lookup and insert latencies on an Intel SSD, a
//! Transcend SSD and a magnetic disk (40% LSR, interleaved lookups and
//! inserts). Also covers §7.3.2 (the contribution of flash vs disk).

use bench::{
    build_clam, bulk_load, ms, print_cdf, run_mixed_workload_continuing, Medium, TailSummary,
};

fn main() {
    println!("Figure 6: CLAM latency CDFs (40% LSR, equal lookups and inserts)\n");
    for medium in [Medium::IntelSsd, Medium::TranscendSsd, Medium::Disk] {
        let mut clam = build_clam(medium, bench::FLASH_BYTES, bench::DRAM_BYTES);
        // Warm: fill a good part of the table first (batched load).
        bulk_load(&mut clam, 0, 1_600_000);
        clam.reset_stats();
        let result = run_mixed_workload_continuing(&mut clam, 40_000, 0.5, 0.4, 12, 1_600_000);
        println!("== BufferHash + {} ==", medium.label());
        println!(
            "  mean lookup {} ms   (p99 {} ms, max {} ms)",
            ms(result.lookups.mean()),
            ms(result.lookups.quantile(0.99)),
            ms(result.lookups.max())
        );
        println!(
            "  mean insert {} ms   (p99 {} ms, max {} ms)",
            ms(result.inserts.mean()),
            ms(result.inserts.quantile(0.99)),
            ms(result.inserts.max())
        );
        println!("  lookup tail: {}", TailSummary::from_recorder(&result.lookups));
        println!("  insert tail: {}", TailSummary::from_recorder(&result.inserts));
        print_cdf(&format!("lookup latency, BH+{}", medium.label()), &result.lookups, 20);
        print_cdf(&format!("insert latency, BH+{}", medium.label()), &result.inserts, 20);
        println!();
    }
    println!(
        "Paper anchors: ~62% of lookups are served from DRAM on both SSDs; 99.8% of\n\
         Intel-SSD lookups finish within ~0.2 ms and Transcend stays under ~1 ms;\n\
         BufferHash on disk is an order of magnitude slower for lookups; average\n\
         inserts are a few microseconds everywhere, with rare flush-dominated spikes."
    );
}
