//! Figure 5: spurious lookup rate vs memory allocated to buffers.
//!
//! With a fixed DRAM budget, giving more memory to buffers leaves less for
//! Bloom filters (higher false-positive rate) while giving less to buffers
//! creates more incarnations (more filters to match against). The measured
//! spurious-flash-read rate has a sweet spot, as in the paper's Figure 5.

use bench::{build_clam_with, bulk_load, print_header, print_row, standard_config, Medium};

fn main() {
    println!("Figure 5: spurious lookup rate vs memory allocated to buffers");
    println!(
        "(scaled configuration: {} MB flash, {} MB DRAM)\n",
        bench::FLASH_BYTES >> 20,
        bench::DRAM_BYTES >> 20
    );
    let widths = [22, 18, 18];
    print_header(&["buffers (KB)", "spurious rate", "bloom KB/incarn."], &widths);

    let dram = bench::DRAM_BYTES;
    // Sweep the buffer share of DRAM from tiny to nearly everything.
    for share in [1u64, 2, 4, 8, 16, 32, 48, 60] {
        let buffer_total = (dram * share / 64).max(32 * 1024);
        let mut cfg = standard_config(bench::FLASH_BYTES, dram);
        cfg.buffer_bytes_total = buffer_total;
        if cfg.buffer_bytes_per_table > buffer_total {
            cfg.buffer_bytes_per_table = buffer_total;
        }
        if cfg.validate().is_err() {
            continue;
        }
        let mut clam = build_clam_with(Medium::IntelSsd, cfg.clone());
        // Fill the table (batched: this is a pure load phase), then issue
        // lookups for absent keys: every flash read they trigger is
        // spurious (Bloom false positive).
        bulk_load(&mut clam, 0, 600_000);
        clam.reset_stats();
        let misses = 20_000u64;
        for i in 0..misses {
            clam.lookup(bufferhash::hash_with_seed(i, 0xab5e47)).expect("lookup");
        }
        let stats = clam.stats();
        let spurious_rate = stats.spurious_flash_reads as f64 / misses as f64;
        print_row(
            &[
                format!("{}", buffer_total / 1024),
                format!("{spurious_rate:.5}"),
                format!("{:.1}", cfg.bloom_bits_per_incarnation() as f64 / 8.0 / 1024.0),
            ],
            &widths,
        );
    }
    println!(
        "\nPaper anchor: the spurious rate is minimised near the analytically optimal\n\
         buffer allocation and stays low (<= ~0.01) over a broad plateau (Figure 5)."
    );
}
