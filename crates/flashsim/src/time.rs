//! Simulated time primitives.
//!
//! All latencies produced by the device models are expressed as
//! [`SimDuration`] values (nanosecond resolution). Experiments accumulate
//! them on a [`SimClock`] instead of using the wall clock, which makes every
//! run deterministic and independent of the host machine.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A span of simulated time with nanosecond resolution.
///
/// `SimDuration` is deliberately separate from [`std::time::Duration`] so
/// that simulated latencies cannot be accidentally mixed with wall-clock
/// measurements.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub(crate) u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from a floating point number of milliseconds.
    ///
    /// Negative or non-finite inputs saturate to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        if !ms.is_finite() || ms <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((ms * 1e6).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of the two durations.
    pub fn max(self, rhs: SimDuration) -> SimDuration {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Returns the smaller of the two durations.
    pub fn min(self, rhs: SimDuration) -> SimDuration {
        if self.0 <= rhs.0 {
            self
        } else {
            rhs
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        if !rhs.is_finite() || rhs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_div(rhs).unwrap_or(0))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.as_micros_f64())
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

/// A shared, monotonically increasing simulated clock.
///
/// The clock is cheap to clone (internally an [`Arc`]) and safe to advance
/// from multiple threads. Device models do not advance the clock themselves;
/// the caller decides which returned latencies represent elapsed simulated
/// time (e.g. blocking flash I/O) and advances the clock accordingly.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ns: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time since the start of the experiment.
    pub fn now(&self) -> SimDuration {
        SimDuration(self.now_ns.load(Ordering::Relaxed))
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: SimDuration) -> SimDuration {
        let prev = self.now_ns.fetch_add(d.as_nanos(), Ordering::Relaxed);
        SimDuration(prev + d.as_nanos())
    }

    /// Moves the clock forward to `t` if `t` is later than the current time.
    ///
    /// Returns the (possibly unchanged) current time.
    pub fn advance_to(&self, t: SimDuration) -> SimDuration {
        let mut cur = self.now_ns.load(Ordering::Relaxed);
        loop {
            if t.as_nanos() <= cur {
                return SimDuration(cur);
            }
            match self.now_ns.compare_exchange_weak(
                cur,
                t.as_nanos(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return t,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Resets the clock back to zero (useful between experiment phases).
    pub fn reset(&self) {
        self.now_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_are_consistent() {
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_millis_f64(0.5).as_nanos(), 500_000);
    }

    #[test]
    fn duration_float_views_round_trip() {
        let d = SimDuration::from_nanos(2_500_000);
        assert!((d.as_millis_f64() - 2.5).abs() < 1e-9);
        assert!((d.as_micros_f64() - 2500.0).abs() < 1e-9);
        assert!((d.as_secs_f64() - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn negative_or_nan_float_inputs_saturate_to_zero() {
        assert_eq!(SimDuration::from_millis_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NEG_INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let big = SimDuration::from_nanos(u64::MAX - 1);
        assert_eq!((big + big).as_nanos(), u64::MAX);
        assert_eq!(SimDuration::ZERO - SimDuration::from_nanos(5), SimDuration::ZERO);
        assert_eq!(SimDuration::from_nanos(10) / 0, SimDuration::ZERO);
    }

    #[test]
    fn scaling_by_floats() {
        let d = SimDuration::from_micros(100);
        assert_eq!((d * 2.5).as_nanos(), 250_000);
        assert_eq!((d * -3.0), SimDuration::ZERO);
        assert_eq!((d * f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn sum_over_iterator() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.00us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    fn clock_advances_monotonically() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), SimDuration::ZERO);
        clock.advance(SimDuration::from_millis(3));
        assert_eq!(clock.now(), SimDuration::from_millis(3));
        // advance_to earlier time is a no-op
        clock.advance_to(SimDuration::from_millis(1));
        assert_eq!(clock.now(), SimDuration::from_millis(3));
        clock.advance_to(SimDuration::from_millis(10));
        assert_eq!(clock.now(), SimDuration::from_millis(10));
        clock.reset();
        assert_eq!(clock.now(), SimDuration::ZERO);
    }

    #[test]
    fn clock_clones_share_state() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(SimDuration::from_secs(1));
        assert_eq!(b.now(), SimDuration::from_secs(1));
    }

    #[test]
    fn min_max_helpers() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
