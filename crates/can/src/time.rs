//! Simulation time base.
//!
//! All simulators in the workspace (CAN bus, SoC, dataflow accelerator)
//! share one nanosecond-resolution monotonic time type. A `u64` nanosecond
//! counter overflows after ~584 years of simulated time, far beyond any
//! experiment in this repository.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or span of) simulated time with nanosecond resolution.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic operators treat it as a plain nanosecond count, which keeps
/// the event-driven simulators free of unit-conversion noise.
///
/// # Example
///
/// ```
/// use canids_can::time::SimTime;
///
/// let t = SimTime::from_micros(100) + SimTime::from_nanos(500);
/// assert_eq!(t.as_nanos(), 100_500);
/// assert!((t.as_micros_f64() - 100.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero timestamp (simulation start).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time value from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time value from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time value from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time value from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time value from fractional seconds, rounding to the
    /// nearest nanosecond. Negative inputs saturate to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimTime(0)
        } else {
            SimTime((s * 1e9).round() as u64)
        }
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time in microseconds as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: `self - other`, or zero when `other > self`.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_add(other.0).map(SimTime)
    }

    /// Multiplies a duration by an integer count (e.g. `bit_time * bits`).
    pub fn mul_u64(self, count: u64) -> SimTime {
        SimTime(self.0 * count)
    }

    /// Returns the larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl From<u64> for SimTime {
    fn from(ns: u64) -> Self {
        SimTime(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_nanos(1).as_nanos(), 1);
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimTime::from_secs(1).as_nanos(), 1_000_000_000);
    }

    #[test]
    fn from_secs_f64_rounds_and_saturates() {
        assert_eq!(SimTime::from_secs_f64(1.5e-9).as_nanos(), 2);
        assert_eq!(SimTime::from_secs_f64(-1.0).as_nanos(), 0);
        assert_eq!(SimTime::from_secs_f64(0.000_001).as_nanos(), 1_000);
    }

    #[test]
    fn arithmetic_behaves_like_nanosecond_counts() {
        let a = SimTime::from_micros(3);
        let b = SimTime::from_micros(1);
        assert_eq!((a + b).as_nanos(), 4_000);
        assert_eq!((a - b).as_nanos(), 2_000);
        let mut c = a;
        c += b;
        assert_eq!(c.as_nanos(), 4_000);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn saturating_sub_never_underflows() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a).as_nanos(), 4);
    }

    #[test]
    fn min_max_order() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000000s");
    }

    #[test]
    fn mul_u64_scales_durations() {
        let bit = SimTime::from_nanos(1_000);
        assert_eq!(bit.mul_u64(111).as_nanos(), 111_000);
    }
}
