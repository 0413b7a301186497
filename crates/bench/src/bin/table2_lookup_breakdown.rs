//! Table 2: how many flash I/Os a lookup performs, and what each count
//! costs, at 0% and 40% lookup success rates.

use bench::{
    build_clam, bulk_load, print_header, print_row, run_mixed_workload_continuing, Medium,
};
use bufferhash::analysis::FlashCostModel;
use bufferhash::LookupSource;
use flashsim::DeviceProfile;

/// `P(n flash reads)` for `n = 0..4`, and the share of lookups the retired
/// generation answered (they sit in the `n = 0` row).
fn distribution(lsr: f64) -> (Vec<f64>, f64) {
    let mut clam = build_clam(Medium::IntelSsd, bench::FLASH_BYTES, bench::DRAM_BYTES);
    // Warm up the table (batched) so most lookups that should hit go to flash.
    bulk_load(&mut clam, 0, 1_600_000);
    clam.reset_stats();
    run_mixed_workload_continuing(&mut clam, 40_000, 0.5, lsr, 8, 1_600_000);
    let stats = clam.stats();
    let retired = stats.lookups_by_source[LookupSource::Retired as usize] as f64
        / stats.lookups.len().max(1) as f64;
    ((0..4).map(|n| stats.lookup_read_fraction(n)).collect(), retired)
}

fn main() {
    println!("Table 2: flash I/Os per lookup\n");
    let chip = FlashCostModel::from_profile(&DeviceProfile::flash_chip());
    let intel = FlashCostModel::from_profile(&DeviceProfile::intel_x18m());
    let widths = [12, 14, 14, 16, 16];
    print_header(
        &["# flash I/O", "P(0% LSR)", "P(40% LSR)", "flash chip (ms)", "Intel SSD (ms)"],
        &widths,
    );
    let (p0, _) = distribution(0.0);
    let (p40, retired40) = distribution(0.4);
    for n in 0..4usize {
        print_row(
            &[
                format!("{n}"),
                format!("{:.4}", p0.get(n).copied().unwrap_or(0.0)),
                format!("{:.4}", p40.get(n).copied().unwrap_or(0.0)),
                format!("{:.2}", chip.page_read_cost().as_millis_f64() * n as f64),
                format!("{:.2}", intel.page_read_cost().as_millis_f64() * n as f64),
            ],
            &widths,
        );
    }
    println!(
        "\nIn the 40% LSR run {retired40:.4} of all lookups were answered from a retired generation:\n\
         the key is in its table's youngest incarnation and the buffer slot it was flushed\n\
         from has not been reused. Each was one flash read before PR 24; at this fill\n\
         (1.6M keys, one incarnation a table) the youngest incarnation is all of flash."
    );
    println!(
        "\nPaper anchors: with 0% LSR ~99% of lookups need no flash I/O at all; with\n\
         40% LSR just under 40% of lookups need exactly one flash read, and more than\n\
         one read is rare (Bloom false positives only). Here the 40% split three ways:\n\
         live buffer, retired generation, one flash read (EXPERIMENTS.md)."
    );
}
