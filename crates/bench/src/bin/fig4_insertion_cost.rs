//! Figure 4: amortized and worst-case insertion cost vs per-table buffer
//! size, on a raw flash chip and on an Intel-class SSD.
//!
//! Panels (a)/(b) use the §6.1 cost model for a raw chip (C1 + C2 + C3);
//! panels (c)/(d) use the SSD form (C1 only). A simulated spot check at the
//! standard configuration's 32 KiB buffer cross-validates the model against
//! the device simulator: it inserts twice as many keys as the buffers hold,
//! so every table flushes.

use bench::{build_clam_with, ms, print_header, print_row, standard_config, workload_key, Medium};
use bufferhash::analysis::FlashCostModel;
use bufferhash::{table_of, BASE_OP_OVERHEAD};
use flashsim::DeviceProfile;

fn main() {
    let chip = FlashCostModel::from_profile(&DeviceProfile::flash_chip());
    let ssd = FlashCostModel::from_profile(&DeviceProfile::intel_x18m());
    let s_eff = 32usize;
    let widths = [18, 20, 20, 20, 20];
    println!("Figure 4: insertion cost vs buffer size (analytical, §6.1)\n");
    print_header(
        &["buffer (KB)", "chip avg (ms)", "chip max (ms)", "SSD avg (ms)", "SSD max (ms)"],
        &widths,
    );
    for kb in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 10 * 1024, 100 * 1024] {
        let bytes = (kb * 1024) as usize;
        print_row(
            &[
                format!("{kb}"),
                format!("{:.5}", chip.insert_amortized(bytes, s_eff).as_millis_f64()),
                format!("{:.3}", chip.insert_worst_case(bytes).as_millis_f64()),
                format!("{:.5}", ssd.insert_amortized(bytes, s_eff).as_millis_f64()),
                format!("{:.3}", ssd.insert_worst_case(bytes).as_millis_f64()),
            ],
            &widths,
        );
    }

    // Simulated spot check at the paper's chosen 128 KiB (here the standard
    // scaled configuration's 32 KiB buffer) on the Intel SSD. Kept per-op
    // on purpose: the measured per-insert latency *is* the cross-check.
    // Twice as many keys as the buffers hold: every table fills its
    // buffer at least once, so the worst case is a flushing insert.
    let cfg = standard_config(bench::FLASH_BYTES, bench::DRAM_BYTES);
    let (tables, buffer) = (cfg.num_super_tables(), cfg.buffer_bytes_per_table as usize);
    let keys = 2 * tables * cfg.entries_per_incarnation();
    let mut clam = build_clam_with(Medium::IntelSsd, cfg);
    let mut flushes = vec![0u32; tables];
    for i in 0..keys as u64 {
        let key = workload_key(i);
        if clam.insert(key, i).expect("insert").flushed {
            flushes[table_of(key, tables)] += 1;
        }
    }
    let fewest = flushes.iter().min().copied().unwrap_or(0);
    assert!(fewest > 0, "every table must flush for the worst case to be one");
    let stats = clam.stats();
    println!(
        "\nSimulated cross-check (Intel SSD, standard scaled config: {tables} tables x {} KiB):\n\
         \x20 {keys} per-op inserts, {} flushes, every table at least {fewest}",
        buffer >> 10,
        stats.flushes
    );
    println!(
        "  average insert latency: measured {:.5} ms, model {:.5} ms",
        stats.inserts.mean().as_millis_f64(),
        ssd.insert_amortized(buffer, s_eff).as_millis_f64()
    );
    println!(
        "  worst-case insert latency: measured {} ms, model {} ms",
        ms(stats.inserts.max()),
        ms(ssd.insert_worst_case(buffer))
    );
    println!(
        "  model: flash I/O alone (the SSD's C1 per {} KiB flush; the average spreads it\n\
         \x20        over the {} entries a flush writes)\n\
         \x20 measured: each insert also pays BASE_OP_OVERHEAD ({:.4} ms) and its DRAM buffer\n\
         \x20        probe; the average spreads {} flushes over all {keys} inserts, the keys\n\
         \x20        still buffered at the end included",
        buffer >> 10,
        buffer / s_eff,
        BASE_OP_OVERHEAD.as_millis_f64(),
        stats.flushes
    );
    println!(
        "\nPaper anchors: on the raw chip both curves are minimised when the buffer\n\
         matches the erase-block size; on the SSD larger buffers keep lowering the\n\
         average cost but raise the worst case (Figures 4a-4d)."
    );
}
