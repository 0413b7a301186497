//! Simulated time primitives, and the two clocks a duration can be on.
//!
//! All latencies produced by the device models are expressed as
//! [`SimDuration`] values (nanosecond resolution). Callers sum them into
//! their own simulated time (a latency account, a ring's lane clocks)
//! instead of reading the wall clock, which makes every run deterministic
//! and independent of the host machine. What the host measures stays a
//! [`std::time::Duration`]; [`Clock`] names the two.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// The clock a duration is on, named by the duration's type: [`Sim`] for
/// what the device models charge, [`Host`] for what the host measured. A
/// duration on one does not type-check as one on the other.
pub trait Clock: Copy + Ord + Default + fmt::Debug {
    /// `ns` nanoseconds on this clock.
    fn from_nanos(ns: u64) -> Self;
    /// Whole nanoseconds, saturating at `u64::MAX`.
    fn nanos(self) -> u64;
}

/// The simulated clock.
pub type Sim = SimDuration;

/// The host's wall clock.
pub type Host = Duration;

impl Clock for SimDuration {
    fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    fn nanos(self) -> u64 {
        self.0
    }
}

impl Clock for Duration {
    fn from_nanos(ns: u64) -> Self {
        Duration::from_nanos(ns)
    }

    fn nanos(self) -> u64 {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A duration on either clock, displayed in the unit that fits: `12ns`,
/// `12.00us`, `12.000ms`, `2.000s`.
pub struct InUnits<C>(pub C);

impl<C: Clock> fmt::Display for InUnits<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0.nanos();
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

/// A span of simulated time with nanosecond resolution: the [`Sim`] clock.
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

    /// A time the host measured, booked on the simulated clock: the one
    /// call where the two clocks meet (a real file's `pread` / `pwrite`).
    pub fn from_measured(measured: Duration) -> Self {
        SimDuration(measured.nanos())
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
        InUnits(*self).fmt(f)
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
    fn min_max_helpers() {
        let a = SimDuration::from_millis(1);
        let b = SimDuration::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
