//! Virtual time. The simulator never sleeps; operations *charge* durations.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of virtual time with microsecond resolution.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// From fractional milliseconds (negative clamps to zero).
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration((ms.max(0.0) * 1_000.0).round() as u64)
    }

    /// Whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
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

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.2}ms", self.as_millis_f64())
        }
    }
}

/// An instant on the virtual timeline, measured from the simulation epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const EPOCH: SimTime = SimTime(0);

    /// From microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier` (saturating).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

/// The scheduler's name for a point on the virtual timeline: events fire
/// in `(SimInstant, schedule order)` order. An alias of [`SimTime`] — the
/// two are the same clock.
pub type SimInstant = SimTime;

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_micros())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_micros();
    }
}

/// Compute the median of a slice of durations (empty → zero).
pub fn median(samples: &mut [SimDuration]) -> SimDuration {
    if samples.is_empty() {
        return SimDuration::ZERO;
    }
    samples.sort_unstable();
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        SimDuration((samples[mid - 1].as_micros() + samples[mid].as_micros()) / 2)
    }
}

/// Compute the mean of a slice of durations (empty → zero).
pub fn mean(samples: &[SimDuration]) -> SimDuration {
    if samples.is_empty() {
        return SimDuration::ZERO;
    }
    SimDuration(samples.iter().map(|d| d.as_micros()).sum::<u64>() / samples.len() as u64)
}

/// Signed milliseconds between two durations (`a - b`), used for latency
/// *overhead* which can legitimately be negative (Finding 3.2: DoH faster
/// than Do53 for some clients).
pub fn overhead_ms(a: SimDuration, b: SimDuration) -> f64 {
    a.as_millis_f64() - b.as_millis_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_millis(5);
        let b = SimDuration::from_micros(500);
        assert_eq!((a + b).as_micros(), 5_500);
        assert_eq!((a - b).as_micros(), 4_500);
        assert_eq!((b - a).as_micros(), 0, "sub saturates");
        assert_eq!((a * 3).as_micros(), 15_000);
        assert_eq!((a / 2).as_micros(), 2_500);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_millis(7).to_string(), "7.00ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn time_advances() {
        let mut t = SimTime::EPOCH;
        t += SimDuration::from_secs(1);
        assert_eq!(t.as_micros(), 1_000_000);
        assert_eq!(t.since(SimTime::EPOCH), SimDuration::from_secs(1));
    }

    #[test]
    fn median_odd_even_empty() {
        let mut odd = vec![
            SimDuration::from_millis(3),
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
        ];
        assert_eq!(median(&mut odd), SimDuration::from_millis(2));
        let mut even = vec![
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
            SimDuration::from_millis(3),
            SimDuration::from_millis(10),
        ];
        assert_eq!(median(&mut even), SimDuration::from_micros(2_500));
        assert_eq!(median(&mut []), SimDuration::ZERO);
    }

    #[test]
    fn mean_and_overhead() {
        let xs = [SimDuration::from_millis(10), SimDuration::from_millis(20)];
        assert_eq!(mean(&xs), SimDuration::from_millis(15));
        assert!(
            (overhead_ms(SimDuration::from_millis(5), SimDuration::from_millis(9)) + 4.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn from_millis_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(SimDuration::from_millis_f64(-3.0).as_micros(), 0);
    }
}
