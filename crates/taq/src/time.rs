//! The trading clock.
//!
//! A regular NYSE session runs 09:30–16:00, i.e. exactly 23 400 seconds —
//! the paper leans on this: "there are exactly 23400 seconds in a typical
//! trading day, and if Δs = 30 seconds, then there will be
//! smax = 23400 / 30 = 780 intervals."
//!
//! Timestamps are millisecond offsets from the session open, paired with a
//! day index (the paper's month of March 2008 has 20 trading days).

use serde::{Deserialize, Serialize};

/// Seconds in a regular trading session (09:30:00 to 16:00:00).
pub const SECONDS_PER_SESSION: u32 = 23_400;

/// Milliseconds in a regular trading session.
pub const MILLIS_PER_SESSION: u32 = SECONDS_PER_SESSION * 1000;

/// Session open in seconds since midnight (09:30).
pub const OPEN_SECONDS_SINCE_MIDNIGHT: u32 = 9 * 3600 + 30 * 60;

/// A point in trading time: day index plus milliseconds since the open.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Timestamp {
    /// Trading-day index (0-based within the dataset).
    pub day: u16,
    /// Milliseconds since the 09:30:00 open.
    pub millis: u32,
}

impl Timestamp {
    /// Construct from day and millisecond offset.
    ///
    /// # Panics
    /// Panics if `millis` is outside the session.
    pub fn new(day: u16, millis: u32) -> Self {
        assert!(millis < MILLIS_PER_SESSION, "timestamp outside session");
        Timestamp { day, millis }
    }

    /// Seconds since the open (truncated).
    #[inline]
    pub fn seconds(self) -> u32 {
        self.millis / 1000
    }

    /// The Δs interval index this timestamp falls into.
    #[inline]
    pub fn interval(self, dt_seconds: u32) -> usize {
        (self.seconds() / dt_seconds) as usize
    }

    /// Seconds remaining until the close.
    #[inline]
    pub fn seconds_to_close(self) -> u32 {
        SECONDS_PER_SESSION - self.seconds() - u32::from(!self.millis.is_multiple_of(1000))
    }

    /// Wall-clock rendering `HH:MM:SS`, as in Table II.
    pub fn wall_clock(self) -> String {
        let total = OPEN_SECONDS_SINCE_MIDNIGHT + self.seconds();
        format!(
            "{:02}:{:02}:{:02}",
            total / 3600,
            (total % 3600) / 60,
            total % 60
        )
    }
}

/// Trading calendar: a span of trading days partitioned into Δs intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TradingCalendar {
    /// Number of trading days (the paper's March 2008 has 20).
    pub days: u16,
    /// Interval width Δs in seconds.
    pub dt_seconds: u32,
}

impl TradingCalendar {
    /// Build a calendar.
    ///
    /// # Panics
    /// Panics if `dt_seconds` is 0 or does not divide the session evenly
    /// (the paper's interval arithmetic assumes it does).
    pub fn new(days: u16, dt_seconds: u32) -> Self {
        assert!(dt_seconds > 0, "Δs must be positive");
        assert_eq!(
            SECONDS_PER_SESSION % dt_seconds,
            0,
            "Δs must divide the 23400-second session evenly"
        );
        TradingCalendar { days, dt_seconds }
    }

    /// The paper's default: 20 trading days at Δs = 30 s.
    pub fn paper_default() -> Self {
        Self::new(20, 30)
    }

    /// Number of Δs intervals per day (`smax`).
    #[inline]
    pub fn intervals_per_day(&self) -> usize {
        (SECONDS_PER_SESSION / self.dt_seconds) as usize
    }

    /// Timestamp of the *end* of interval `s` on `day` (exclusive bound).
    pub fn interval_end(&self, day: u16, s: usize) -> Timestamp {
        let end_sec = (s as u32 + 1) * self.dt_seconds;
        Timestamp::new(day, end_sec * 1000 - 1)
    }

    /// Iterate over all (day, interval) cells in chronological order.
    pub fn iter_cells(&self) -> impl Iterator<Item = (u16, usize)> + '_ {
        let per_day = self.intervals_per_day();
        (0..self.days).flat_map(move |d| (0..per_day).map(move |s| (d, s)))
    }
}

wire::record! {
    Timestamp { day, millis }
    check(t) {
        if t.millis >= MILLIS_PER_SESSION {
            return Err(wire::WireError::Invalid("timestamp outside session"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_interval_arithmetic() {
        // "if Δs = 30 seconds, then there will be smax = 23400/30 = 780".
        let cal = TradingCalendar::paper_default();
        assert_eq!(cal.intervals_per_day(), 780);
        assert_eq!(cal.days, 20);
        let cal15 = TradingCalendar::new(1, 15);
        assert_eq!(cal15.intervals_per_day(), 1560);
    }

    #[test]
    fn wall_clock_rendering() {
        assert_eq!(Timestamp::new(0, 0).wall_clock(), "09:30:00");
        assert_eq!(Timestamp::new(0, 4_000).wall_clock(), "09:30:04"); // Table II
        assert_eq!(
            Timestamp::new(0, MILLIS_PER_SESSION - 1).wall_clock(),
            "15:59:59"
        );
    }

    #[test]
    fn interval_assignment() {
        let ts = Timestamp::new(0, 29_999);
        assert_eq!(ts.interval(30), 0);
        let ts = Timestamp::new(0, 30_000);
        assert_eq!(ts.interval(30), 1);
        let last = Timestamp::new(0, MILLIS_PER_SESSION - 1);
        assert_eq!(last.interval(30), 779);
    }

    #[test]
    fn seconds_to_close() {
        assert_eq!(Timestamp::new(0, 0).seconds_to_close(), 23_400);
        assert_eq!(Timestamp::new(0, 23_399_000).seconds_to_close(), 1);
        assert_eq!(Timestamp::new(0, 23_399_999).seconds_to_close(), 0);
    }

    #[test]
    fn ordering_is_chronological() {
        let a = Timestamp::new(0, 500);
        let b = Timestamp::new(0, 501);
        let c = Timestamp::new(1, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn interval_end_timestamps() {
        let cal = TradingCalendar::new(2, 30);
        let end0 = cal.interval_end(0, 0);
        assert_eq!(end0.seconds(), 29);
        let end_last = cal.interval_end(1, 779);
        assert_eq!(end_last.day, 1);
        assert_eq!(end_last.millis, MILLIS_PER_SESSION - 1);
    }

    #[test]
    fn iter_cells_count() {
        let cal = TradingCalendar::new(3, 1800);
        assert_eq!(cal.iter_cells().count(), 3 * 13);
    }

    #[test]
    #[should_panic]
    fn uneven_dt_rejected() {
        let _ = TradingCalendar::new(1, 7);
    }

    #[test]
    #[should_panic]
    fn timestamp_outside_session_rejected() {
        let _ = Timestamp::new(0, MILLIS_PER_SESSION);
    }
}
