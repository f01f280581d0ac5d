//! Virtual time: integer microseconds since simulation start.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant in virtual time (microseconds since simulation start).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

/// A span of virtual time (microseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Builds an instant from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Builds an instant from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed duration since `earlier` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in milliseconds, as a float (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Length in seconds, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scales by a float, rounding to the nearest microsecond.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration((self.0 as f64 * k).round().max(0.0) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
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
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

// JSON as raw microsecond counts (the canonical unit everywhere else).
impl serde::json::ToJson for SimTime {
    fn to_json(&self) -> serde::json::Value {
        serde::json::Value::UInt(self.0)
    }
}

impl serde::json::FromJson for SimTime {
    fn from_json(v: &serde::json::Value) -> Result<Self, serde::json::JsonError> {
        v.as_u64()
            .map(SimTime)
            .ok_or_else(|| serde::json::JsonError::type_mismatch("microseconds", "SimTime"))
    }
}

impl serde::json::ToJson for SimDuration {
    fn to_json(&self) -> serde::json::Value {
        serde::json::Value::UInt(self.0)
    }
}

impl serde::json::FromJson for SimDuration {
    fn from_json(v: &serde::json::Value) -> Result<Self, serde::json::JsonError> {
        v.as_u64()
            .map(SimDuration)
            .ok_or_else(|| serde::json::JsonError::type_mismatch("microseconds", "SimDuration"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs(1).as_millis_f64(), 1000.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(3), SimDuration::from_millis(12));
        assert_eq!(SimDuration::from_millis(4) * 3, SimDuration::from_millis(12));
        assert_eq!(SimDuration::from_millis(9) / 3, SimDuration::from_millis(3));
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(5);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration::from_millis(4));
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(SimDuration(100).mul_f64(1.5), SimDuration(150));
        assert_eq!(SimDuration(1).mul_f64(0.4), SimDuration(0));
        assert_eq!(SimDuration(1).mul_f64(-2.0), SimDuration(0));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration(5).to_string(), "5us");
        assert_eq!(SimDuration(5_000).to_string(), "5.000ms");
        assert_eq!(SimDuration(5_000_000).to_string(), "5.000s");
    }
}
