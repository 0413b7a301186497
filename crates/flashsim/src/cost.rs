//! Linear I/O cost functions.
//!
//! Following the paper (§6.1), the cost of reading, writing or erasing `x`
//! bytes of a flash medium is modelled as a linear function `a + b·x`: a
//! fixed per-command initialization cost plus a per-byte transfer cost. The
//! same form also describes DRAM accesses and the transfer component of disk
//! I/O, so it is shared by all device models.

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// A linear cost function `fixed + per_byte · size`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearCost {
    /// Fixed per-operation cost (command setup, controller overhead), in
    /// nanoseconds.
    pub fixed_ns: u64,
    /// Incremental cost per byte transferred, in nanoseconds.
    pub per_byte_ns: f64,
}

impl LinearCost {
    /// A cost function that is always zero.
    pub const FREE: LinearCost = LinearCost { fixed_ns: 0, per_byte_ns: 0.0 };

    /// Creates a new linear cost function.
    pub const fn new(fixed_ns: u64, per_byte_ns: f64) -> Self {
        LinearCost { fixed_ns, per_byte_ns }
    }

    /// Convenience constructor taking the fixed part in microseconds and a
    /// sustained bandwidth in MB/s for the variable part.
    pub fn from_latency_bandwidth(fixed_us: f64, bandwidth_mb_s: f64) -> Self {
        let per_byte_ns =
            if bandwidth_mb_s > 0.0 { 1e9 / (bandwidth_mb_s * 1024.0 * 1024.0) } else { 0.0 };
        LinearCost { fixed_ns: (fixed_us * 1e3).round() as u64, per_byte_ns }
    }

    /// Cost of an operation touching `bytes` bytes.
    pub fn cost(&self, bytes: usize) -> SimDuration {
        let variable = (self.per_byte_ns * bytes as f64).round() as u64;
        SimDuration::from_nanos(self.fixed_ns.saturating_add(variable))
    }
}

impl Default for LinearCost {
    fn default() -> Self {
        LinearCost::FREE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_plus_variable() {
        let c = LinearCost::new(1_000, 2.0);
        assert_eq!(c.cost(0), SimDuration::from_nanos(1_000));
        assert_eq!(c.cost(500), SimDuration::from_nanos(2_000));
    }

    #[test]
    fn free_cost_is_zero() {
        assert_eq!(LinearCost::FREE.cost(4096), SimDuration::ZERO);
    }

    #[test]
    fn from_latency_bandwidth_matches_manual_computation() {
        // 100us fixed, 100 MB/s -> ~9.54ns per byte.
        let c = LinearCost::from_latency_bandwidth(100.0, 100.0);
        assert_eq!(c.fixed_ns, 100_000);
        let one_mb = c.cost(1024 * 1024);
        // 1 MiB at 100 MB/s is ~10ms plus fixed cost.
        assert!(one_mb.as_millis_f64() > 9.9 && one_mb.as_millis_f64() < 10.2);
    }

    #[test]
    fn zero_bandwidth_means_no_variable_cost() {
        let c = LinearCost::from_latency_bandwidth(50.0, 0.0);
        assert_eq!(c.cost(1 << 20), SimDuration::from_micros(50));
    }

    #[test]
    fn batched_cost_pays_fixed_once() {
        // Eight requests coalesced into one command (design principle P3)
        // pay the fixed cost once.
        let c = LinearCost::new(10_000, 1.0);
        let unbatched: SimDuration = (0..8).map(|_| c.cost(2048)).sum();
        let batched = c.cost(8 * 2048);
        assert!(batched < unbatched);
        assert_eq!(batched, SimDuration::from_nanos(10_000 + 8 * 2048));
    }
}
