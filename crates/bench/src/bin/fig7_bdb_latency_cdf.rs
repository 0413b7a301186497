//! Figure 7: CDFs of Berkeley-DB-style index latencies on an Intel SSD and
//! on a magnetic disk, under the same interleaved 40%-LSR workload as
//! Figure 6.

use bench::{
    build_bdb, ms, print_cdf, run_mixed_workload, run_mixed_workload_continuing, Medium,
    TailSummary,
};

fn main() {
    println!("Figure 7: BerkeleyDB-style index latency CDFs (40% LSR workload)\n");
    for medium in [Medium::IntelSsd, Medium::Disk] {
        let mut bdb = build_bdb(medium, bench::FLASH_BYTES);
        run_mixed_workload(&mut bdb, 60_000, 0.0, 0.0, 21);
        let result = run_mixed_workload_continuing(&mut bdb, 20_000, 0.5, 0.4, 22, 60_000);
        println!("== BerkeleyDB hash index + {} ==", medium.label());
        println!(
            "  mean lookup {} ms   (p99 {} ms)",
            ms(result.lookups.mean()),
            ms(result.lookups.quantile(0.99))
        );
        println!(
            "  mean insert {} ms   (p99 {} ms)",
            ms(result.inserts.mean()),
            ms(result.inserts.quantile(0.99))
        );
        println!("  lookup tail: {}", TailSummary::from_recorder(&result.lookups));
        println!("  insert tail: {}", TailSummary::from_recorder(&result.inserts));
        print_cdf(&format!("lookup latency, DB+{}", medium.label()), &result.lookups, 20);
        print_cdf(&format!("insert latency, DB+{}", medium.label()), &result.inserts, 20);
        println!();
    }
    println!(
        "Paper anchors: on disk both operations average ~7 ms (seek-bound); on the\n\
         Intel SSD the sustained random-write load keeps the FTL busy, so average\n\
         latencies remain in the milliseconds — orders of magnitude above the CLAM."
    );
}
