//! Recovery reporting for [`Clam::recover`](crate::Clam::recover).
//!
//! A recovery scan reads every incarnation slot on flash through the
//! completion ring, classifies each as empty, torn or valid by the
//! checksummed page headers (see [`crate::scan_incarnation`]), and
//! rebuilds the in-DRAM state — Bloom filters, log allocation map,
//! per-table incarnation queues — from the accepted incarnations alone.
//! The [`RecoveryReport`] is the scan's ledger: what was accepted, what
//! was rejected and why, how much flash was read, and how long the
//! ring-driven scan took.

use std::fmt;

use flashsim::SimDuration;

/// What a recovery scan found and rebuilt; returned by
/// [`Clam::recover`](crate::Clam::recover).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Incarnation slots scanned (the whole configured flash area).
    pub slots_scanned: u64,
    /// Bytes read off flash by the scan.
    pub bytes_scanned: u64,
    /// Incarnations accepted and registered into super tables.
    pub accepted: usize,
    /// Slots rejected as torn: checksum, version, count or identity
    /// failures — a flush the power cut interrupted, or foreign bytes.
    pub torn: usize,
    /// Slots whose incarnation was valid but superseded: shadowed by a
    /// higher-epoch copy of the same flush, or older than the youngest
    /// `k` incarnations its table retains.
    pub stale: usize,
    /// Slots holding no incarnation at all (never written or trimmed).
    pub empty: usize,
    /// Entries registered across all accepted incarnations.
    pub entries_recovered: usize,
    /// The epoch the recovered CLAM will stamp into its own flushes —
    /// strictly greater than every epoch seen on flash.
    pub epoch: u32,
    /// The flush sequence number the recovered CLAM resumes after —
    /// the largest `seq` on any checksum-valid page, torn slots included,
    /// so re-used sequence numbers can never shadow surviving data.
    pub seq_resumed: u64,
    /// Simulated makespan of the ring-driven scan (all slot reads in one
    /// submission, overlapped per the device's queue).
    pub scan_makespan: SimDuration,
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered {} incarnations ({} entries) from {} slots \
             ({} torn, {} stale, {} empty), {:.1} KiB scanned in {}, \
             resuming at seq {} epoch {}",
            self.accepted,
            self.entries_recovered,
            self.slots_scanned,
            self.torn,
            self.stale,
            self.empty,
            self.bytes_scanned as f64 / 1024.0,
            self.scan_makespan,
            self.seq_resumed,
            self.epoch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_display_mentions_every_ledger_line() {
        let report = RecoveryReport {
            slots_scanned: 8,
            bytes_scanned: 8 * 32 * 1024,
            accepted: 5,
            torn: 1,
            stale: 1,
            empty: 1,
            entries_recovered: 1234,
            epoch: 3,
            seq_resumed: 17,
            scan_makespan: SimDuration::from_micros(250),
        };
        let text = report.to_string();
        assert!(text.contains("5 incarnations"));
        assert!(text.contains("1234 entries"));
        assert!(text.contains("8 slots"));
        assert!(text.contains("1 torn"));
        assert!(text.contains("1 stale"));
        assert!(text.contains("seq 17 epoch 3"));
    }
}
