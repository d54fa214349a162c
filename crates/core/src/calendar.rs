//! The paper's time conventions.
//!
//! The IMCF paper normalizes all amortization arithmetic over a simplified
//! calendar in which every month has 31 days: a year is
//! `12 × 31 × 24 = 8928` hours (the paper's LAF example divides 3666 kWh by
//! exactly 8928). We adopt the same convention so the worked examples of
//! §II-B reproduce bit-for-bit, and expose it through [`PaperCalendar`],
//! which maps a flat hour index to `(year, month, day, hour)` components.

use serde::{Deserialize, Serialize};

/// Hours per day.
pub const HOURS_PER_DAY: u64 = 24;
/// Days per month in the paper convention.
pub const DAYS_PER_MONTH: u64 = 31;
/// Months per year.
pub const MONTHS_PER_YEAR: u64 = 12;
/// Hours per paper month (31 × 24 = 744).
pub const HOURS_PER_MONTH: u64 = DAYS_PER_MONTH * HOURS_PER_DAY;
/// Hours per paper year (12 × 31 × 24 = 8928).
pub const HOURS_PER_YEAR: u64 = MONTHS_PER_YEAR * HOURS_PER_MONTH;

/// A date-time decomposed from a flat hour index under the paper calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PaperDateTime {
    /// 0-based year since the start of the horizon.
    pub year: u64,
    /// 1-based month (1–12).
    pub month: u32,
    /// 1-based day of month (1–31).
    pub day: u32,
    /// Hour of day (0–23).
    pub hour: u32,
}

/// The paper's 31-day-month calendar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaperCalendar {
    /// 1-based month the horizon starts in (the CASAS traces start in
    /// October → `start_month = 10`).
    pub start_month: u32,
}

impl PaperCalendar {
    /// A calendar starting in January.
    pub fn january_start() -> Self {
        PaperCalendar { start_month: 1 }
    }

    /// A calendar starting in the given 1-based month.
    ///
    /// # Panics
    /// Panics when `start_month` is not in `1..=12`.
    pub fn starting_in(start_month: u32) -> Self {
        assert!(
            (1..=12).contains(&start_month),
            "month out of range: {start_month}"
        );
        PaperCalendar { start_month }
    }

    /// Decomposes a flat hour index into calendar components.
    pub fn decompose(&self, hour_index: u64) -> PaperDateTime {
        let month_offset = (self.start_month.max(1) as u64 - 1) * HOURS_PER_MONTH;
        let absolute = hour_index + month_offset;
        let year = absolute / HOURS_PER_YEAR;
        let within_year = absolute % HOURS_PER_YEAR;
        let month = (within_year / HOURS_PER_MONTH) as u32 + 1;
        let within_month = within_year % HOURS_PER_MONTH;
        let day = (within_month / HOURS_PER_DAY) as u32 + 1;
        let hour = (within_month % HOURS_PER_DAY) as u32;
        PaperDateTime {
            year,
            month,
            day,
            hour,
        }
    }

    /// The 1-based month a flat hour index falls in.
    pub fn month_of(&self, hour_index: u64) -> u32 {
        self.decompose(hour_index).month
    }

    /// The hour of day (0–23) of a flat hour index: the `hour` of
    /// [`PaperCalendar::decompose`], computed directly because months and
    /// years are whole days.
    pub fn hour_of_day(&self, hour_index: u64) -> u32 {
        let month_offset = (self.start_month.max(1) as u64 - 1) * HOURS_PER_MONTH;
        ((hour_index + month_offset) % HOURS_PER_DAY) as u32
    }

    /// Day-of-horizon (0-based) of a flat hour index.
    pub fn day_index(&self, hour_index: u64) -> u64 {
        hour_index / HOURS_PER_DAY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(HOURS_PER_YEAR, 8928); // the paper's 12 × 31 × 24
        assert_eq!(HOURS_PER_MONTH, 744); // the paper's 31 × 24
    }

    #[test]
    fn january_start_decomposition() {
        let cal = PaperCalendar::january_start();
        let t0 = cal.decompose(0);
        assert_eq!(
            t0,
            PaperDateTime {
                year: 0,
                month: 1,
                day: 1,
                hour: 0
            }
        );
        let t = cal.decompose(HOURS_PER_MONTH); // first hour of February
        assert_eq!((t.month, t.day, t.hour), (2, 1, 0));
        let last = cal.decompose(HOURS_PER_YEAR - 1);
        assert_eq!(
            last,
            PaperDateTime {
                year: 0,
                month: 12,
                day: 31,
                hour: 23
            }
        );
        let y1 = cal.decompose(HOURS_PER_YEAR);
        assert_eq!((y1.year, y1.month), (1, 1));
    }

    #[test]
    fn october_start_decomposition() {
        // The CASAS traces start in October 2013.
        let cal = PaperCalendar::starting_in(10);
        assert_eq!(cal.month_of(0), 10);
        // Three months in: January of the following year.
        let t = cal.decompose(3 * HOURS_PER_MONTH);
        assert_eq!((t.year, t.month), (1, 1));
    }

    #[test]
    fn hour_of_day_cycles() {
        let cal = PaperCalendar::january_start();
        for h in 0..48 {
            assert_eq!(cal.hour_of_day(h), (h % 24) as u32);
        }
    }

    #[test]
    fn hour_of_day_is_the_decomposed_hour() {
        for start in 1..=12 {
            let cal = PaperCalendar::starting_in(start);
            for h in (0..3 * HOURS_PER_YEAR).step_by(7) {
                assert_eq!(
                    cal.hour_of_day(h),
                    cal.decompose(h).hour,
                    "start {start} hour {h}"
                );
            }
        }
    }

    #[test]
    fn day_index_advances_every_24_hours() {
        let cal = PaperCalendar::january_start();
        assert_eq!(cal.day_index(0), 0);
        assert_eq!(cal.day_index(23), 0);
        assert_eq!(cal.day_index(24), 1);
        assert_eq!(cal.day_index(HOURS_PER_YEAR), 372);
    }

    #[test]
    #[should_panic(expected = "month out of range")]
    fn invalid_start_month_panics() {
        PaperCalendar::starting_in(13);
    }

    #[test]
    fn three_year_horizon_length() {
        // The evaluation's 3-year horizon.
        assert_eq!(3 * HOURS_PER_YEAR, 26784);
    }
}
