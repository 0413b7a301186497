//! Kick the tires: a minutes-or-less deterministic pass over the
//! crash-injection suite that prints the `RecoveryReport` headline
//! numbers (run with `--nocapture` to see them).
//!
//! One eviction-churn CLAM per crash point: the same 6 000-op workload is
//! cut at increasing fractions of its device schedule — early (before the
//! first flush), mid-stream, inside the log wrap, and after the last
//! write — each time with a torn trailing write, then recovered from the
//! surviving flash image alone. See `tests/crash_recovery.rs` for the
//! adversarial property tests; this file is the demo-scale reproduction
//! described in EXPERIMENTS.md.

use clam::bufferhash::analysis::FlashCostModel;
use clam::bufferhash::{hash_with_seed, Clam, ClamConfig, EvictionPolicy, FilterMode};
use clam::flashsim::{CrashDevice, Device, Ssd};

fn churn_config() -> ClamConfig {
    let config = ClamConfig {
        flash_capacity: 32 << 10,
        dram_bytes: 1 << 20,
        buffer_bytes_total: 8 * 1024,
        buffer_bytes_per_table: 4 * 1024,
        entry_size: 16,
        max_buffer_utilization: 0.9,
        eviction: EvictionPolicy::Fifo,
        filter_mode: FilterMode::BitSliced,
        enable_buffering: true,
    };
    config.validate().expect("valid churn config");
    config
}

#[test]
fn kick_the_tires() {
    const CAP: u64 = 1 << 20;
    let config = churn_config();
    let ops: Vec<(u64, u64)> =
        (0..6_000u64).map(|i| (hash_with_seed(i % 1_200, 0x7137), i)).collect();

    // Twin run: how many data-effect operations the full workload costs,
    // so crash points can be placed as fractions of the real schedule.
    let total = {
        let mut twin =
            Clam::new(CrashDevice::new(Ssd::intel(CAP).unwrap()), config.clone()).unwrap();
        for &(k, v) in &ops {
            twin.insert(k, v).unwrap();
        }
        twin.device().crash_stats().ops_applied
    };
    println!("workload: {} inserts = {} device ops on the Intel SSD profile", ops.len(), total);

    let model = FlashCostModel::from_profile(Ssd::intel(CAP).unwrap().profile());
    let depth = Ssd::intel(CAP).unwrap().queue();

    for percent in [10u64, 40, 70, 95, 100] {
        let budget = total * percent / 100;
        let mut crash = CrashDevice::cut_after(Ssd::intel(CAP).unwrap(), budget);
        crash.set_torn_write_bytes(1_500);
        let mut clam = Clam::new(crash, config.clone()).unwrap();
        let mut acked = 0usize;
        for &(k, v) in &ops {
            if clam.insert(k, v).is_err() {
                break;
            }
            acked += 1;
        }
        let stats = clam.device().crash_stats();
        let image = clam.into_device().into_inner();
        let (mut recovered, report) = Clam::recover(image, config.clone()).unwrap();

        // Headline numbers: what the cut destroyed and what the scan got back.
        println!(
            "cut @ {percent:>3}% ({budget:>2} ops, {acked:>4} acked inserts, torn write: {:?})",
            stats.torn_write
        );
        println!("  {report}");

        // Invariants the property suite enforces in anger, spot-checked here.
        assert_eq!(
            report.accepted + report.torn + report.stale + report.empty,
            report.slots_scanned as usize,
            "every slot classified exactly once"
        );
        assert_eq!(
            report.scan_makespan,
            model.recovery_scan_makespan(
                report.slots_scanned as usize,
                (report.bytes_scanned / report.slots_scanned) as usize,
                depth
            ),
            "analytic recovery_scan_makespan must price the scan exactly"
        );
        let keys: std::collections::HashSet<u64> = ops.iter().map(|&(k, _)| k).collect();
        let survivors =
            keys.iter().filter(|&&k| recovered.lookup(k).unwrap().value.is_some()).count();
        println!(
            "  lookup sweep: {survivors} of {} distinct keys durable after recovery",
            keys.len()
        );
        assert!(
            percent < 40 || report.accepted > 0,
            "mid-stream cuts must leave durable incarnations"
        );
    }
}
