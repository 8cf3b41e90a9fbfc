//! Calendar dates for certificate validity windows.
//!
//! The simulation's virtual clock ([`netsim::SimTime`]) is microseconds from
//! an epoch; worldgen anchors that epoch to a civil date (the paper's first
//! scan, 2019-02-01) and converts through this type.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// A civil date, stored as days since 1970-01-01 (may be negative).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct DateStamp(i64);

impl DateStamp {
    /// Construct from a civil year/month/day (proleptic Gregorian).
    ///
    /// Uses the standard "days from civil" algorithm; valid for the whole
    /// range the study touches.
    pub fn from_ymd(y: i32, m: u32, d: u32) -> Self {
        assert!((1..=12).contains(&m), "month {m}");
        assert!((1..=31).contains(&d), "day {d}");
        let y = y as i64 - if m <= 2 { 1 } else { 0 };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let mp = (m as i64 + 9) % 12; // [0, 11], Mar = 0
        let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        DateStamp(era * 146_097 + doe - 719_468)
    }

    /// The date `days` days after 1970-01-01 (before it if negative).
    pub(crate) fn from_days(days: i64) -> Self {
        DateStamp(days)
    }

    /// Days since 1970-01-01.
    pub fn days(self) -> i64 {
        self.0
    }

    /// Back to civil year/month/day.
    pub fn to_ymd(self) -> (i32, u32, u32) {
        let z = self.0 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
        ((y + if m <= 2 { 1 } else { 0 }) as i32, m, d)
    }

    /// The first day of this date's month (used for monthly bucketing of
    /// traffic series).
    pub fn month_start(self) -> DateStamp {
        let (y, m, _) = self.to_ymd();
        DateStamp::from_ymd(y, m, 1)
    }

    /// `YYYY-MM` label for report rows.
    pub fn month_label(self) -> String {
        let (y, m, _) = self.to_ymd();
        format!("{y:04}-{m:02}")
    }

    /// Step forward `n` whole months (clamping the day to 1).
    pub fn add_months(self, n: u32) -> DateStamp {
        let (y, m, _) = self.to_ymd();
        let total = (y as i64) * 12 + (m as i64 - 1) + n as i64;
        let ny = (total / 12) as i32;
        let nm = (total % 12) as u32 + 1;
        DateStamp::from_ymd(ny, nm, 1)
    }
}

impl Add<i64> for DateStamp {
    type Output = DateStamp;
    fn add(self, days: i64) -> DateStamp {
        DateStamp(self.0 + days)
    }
}

impl Sub<DateStamp> for DateStamp {
    type Output = i64;
    fn sub(self, other: DateStamp) -> i64 {
        self.0 - other.0
    }
}

impl fmt::Display for DateStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unix_epoch_is_zero() {
        assert_eq!(DateStamp::from_ymd(1970, 1, 1).days(), 0);
    }

    #[test]
    fn known_dates() {
        // The paper's scan window.
        let feb1 = DateStamp::from_ymd(2019, 2, 1);
        let may1 = DateStamp::from_ymd(2019, 5, 1);
        assert_eq!(may1 - feb1, 89); // 28 + 31 + 30
        assert_eq!(feb1.to_string(), "2019-02-01");
    }

    #[test]
    fn round_trip_every_day_of_2019() {
        let start = DateStamp::from_ymd(2019, 1, 1);
        for i in 0..365 {
            let d = start + i;
            let (y, m, day) = d.to_ymd();
            assert_eq!(DateStamp::from_ymd(y, m, day), d);
        }
    }

    #[test]
    fn leap_year_handled() {
        let feb28 = DateStamp::from_ymd(2020, 2, 28);
        let mar1 = DateStamp::from_ymd(2020, 3, 1);
        assert_eq!(mar1 - feb28, 2, "2020 is a leap year");
    }

    #[test]
    fn month_utilities() {
        let d = DateStamp::from_ymd(2018, 7, 19);
        assert_eq!(d.month_start(), DateStamp::from_ymd(2018, 7, 1));
        assert_eq!(d.month_label(), "2018-07");
        assert_eq!(d.add_months(6), DateStamp::from_ymd(2019, 1, 1));
        assert_eq!(d.add_months(18), DateStamp::from_ymd(2020, 1, 1));
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = DateStamp::from_ymd(2018, 7, 1);
        let b = DateStamp::from_ymd(2019, 1, 1);
        assert!(a < b);
        assert_eq!(b - a, 184);
        assert_eq!(a + 184, b);
    }
}
