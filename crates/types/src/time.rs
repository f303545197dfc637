//! Simulated time.
//!
//! The measurement study spans the whole of 2015 (dataset *D*) plus the
//! May/June 2016 probing ad-campaigns. To keep the workspace free of
//! wall-clock dependencies we carry our own minimal Gregorian calendar:
//! [`SimTime`] counts **minutes since 2015-01-01 00:00 UTC** (which was a
//! Thursday) and derives month, day-of-week and time-of-day buckets from
//! that single integer.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// Minutes in a day.
pub const MINUTES_PER_DAY: i64 = 24 * 60;

/// Day lengths for 2015 (not a leap year) and 2016 (leap year).
const DAYS_2015: [u32; 12] = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];
const DAYS_2016: [u32; 12] = [31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31];

/// A point in simulated time: minutes since 2015-01-01 00:00 UTC.
///
/// ```
/// use yav_types::{SimTime, DayOfWeek, Month};
/// let t = SimTime::from_ymd_hm(2015, 5, 4, 9, 30); // 4 May 2015, 09:30
/// assert_eq!(t.day_of_week(), DayOfWeek::Monday);
/// assert_eq!(t.month(), Month::May);
/// assert_eq!(t.hour(), 9);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(i64);

impl SimTime {
    /// The epoch: 2015-01-01 00:00 UTC (a Thursday).
    pub const EPOCH: SimTime = SimTime(0);

    /// Builds a time from raw minutes since the epoch.
    pub const fn from_minutes(minutes: i64) -> SimTime {
        SimTime(minutes)
    }

    /// Minutes since the epoch.
    pub const fn minutes(self) -> i64 {
        self.0
    }

    /// Builds a time from a calendar date and wall time. Supported years are
    /// 2015 and 2016 (the study period); `month` is 1-based.
    ///
    /// # Panics
    /// Panics on out-of-range components — construction sites are all
    /// simulation configuration, where a bad date is a programming error.
    pub fn from_ymd_hm(year: u32, month: u32, day: u32, hour: u32, minute: u32) -> SimTime {
        assert!(
            (2015..=2016).contains(&year),
            "supported years are 2015-2016, got {year}"
        );
        assert!((1..=12).contains(&month), "month out of range: {month}");
        let table = if year == 2015 { &DAYS_2015 } else { &DAYS_2016 };
        assert!(
            day >= 1 && day <= table[(month - 1) as usize],
            "day out of range: {year}-{month}-{day}"
        );
        assert!(
            hour < 24 && minute < 60,
            "time out of range: {hour}:{minute}"
        );
        let mut days: i64 = if year == 2016 { 365 } else { 0 };
        days += table[..(month - 1) as usize]
            .iter()
            .map(|&d| d as i64)
            .sum::<i64>();
        days += (day - 1) as i64;
        SimTime(days * MINUTES_PER_DAY + (hour as i64) * 60 + minute as i64)
    }

    /// Calendar date `(year, month, day)` of this instant (1-based month/day).
    /// Times before the epoch clamp to it; times past 2016 keep counting in
    /// 365-day years, which is fine for the study window.
    pub fn ymd(self) -> (u32, u32, u32) {
        let mut days = (self.0.max(0)) / MINUTES_PER_DAY;
        let (year, table) = if days < 365 {
            (2015, &DAYS_2015)
        } else if days < 365 + 366 {
            days -= 365;
            (2016, &DAYS_2016)
        } else {
            days = (days - 365 - 366) % 365;
            (2017, &DAYS_2015)
        };
        let mut month = 0usize;
        while days >= table[month] as i64 {
            days -= table[month] as i64;
            month += 1;
        }
        (year, month as u32 + 1, days as u32 + 1)
    }

    /// The year of this instant.
    pub fn year(self) -> u32 {
        self.ymd().0
    }

    /// The calendar month of this instant.
    pub fn month(self) -> Month {
        Month::from_index(self.ymd().1 as usize - 1)
    }

    /// Hour of day, 0–23.
    pub fn hour(self) -> u32 {
        ((self.0.rem_euclid(MINUTES_PER_DAY)) / 60) as u32
    }

    /// Minute within the hour, 0–59.
    pub fn minute(self) -> u32 {
        (self.0.rem_euclid(60)) as u32
    }

    /// Day of week. The epoch (2015-01-01) was a Thursday.
    pub fn day_of_week(self) -> DayOfWeek {
        let days = self.0.div_euclid(MINUTES_PER_DAY);
        DayOfWeek::from_index(((days + 3).rem_euclid(7)) as usize) // epoch offset: Mon=0 ⇒ Thu=3
    }

    /// The paper's Figure-6 time-of-day bucket for this instant.
    pub fn time_of_day(self) -> TimeOfDay {
        TimeOfDay::from_hour(self.hour())
    }

    /// True if this instant falls on Saturday or Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self.day_of_week(), DayOfWeek::Saturday | DayOfWeek::Sunday)
    }

    /// Advances by whole days.
    pub fn plus_days(self, days: i64) -> SimTime {
        SimTime(self.0 + days * MINUTES_PER_DAY)
    }

    /// Advances by minutes.
    pub fn plus_minutes(self, minutes: i64) -> SimTime {
        SimTime(self.0 + minutes)
    }
}

impl Add<i64> for SimTime {
    type Output = SimTime;
    /// Adds minutes.
    fn add(self, minutes: i64) -> SimTime {
        SimTime(self.0 + minutes)
    }
}

impl Sub for SimTime {
    type Output = i64;
    /// Difference in minutes.
    fn sub(self, rhs: SimTime) -> i64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        write!(
            f,
            "{y:04}-{m:02}-{d:02} {:02}:{:02}",
            self.hour(),
            self.minute()
        )
    }
}

/// Calendar months, used to bucket the year-long dataset (Figures 2, 8, 9
/// and 12 are all per-month series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[expect(missing_docs, reason = "calendar month names need no docs")]
pub enum Month {
    January,
    February,
    March,
    April,
    May,
    June,
    July,
    August,
    September,
    October,
    November,
    December,
}

impl Month {
    /// All twelve months in order.
    pub const ALL: [Month; 12] = [
        Month::January,
        Month::February,
        Month::March,
        Month::April,
        Month::May,
        Month::June,
        Month::July,
        Month::August,
        Month::September,
        Month::October,
        Month::November,
        Month::December,
    ];

    /// Month from a 0-based index.
    ///
    /// # Panics
    /// Panics if `idx >= 12`.
    pub fn from_index(idx: usize) -> Month {
        Month::ALL[idx]
    }

    /// 0-based index (January == 0).
    pub fn index(self) -> usize {
        self as usize
    }

    /// 1-based month number as printed on figure axes.
    pub fn number(self) -> u32 {
        self as u32 + 1
    }
}

impl fmt::Display for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Days of the week (Figure 7 buckets; the paper orders them Sunday-first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[expect(missing_docs, reason = "weekday names need no docs")]
pub enum DayOfWeek {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl DayOfWeek {
    /// All days, Monday-first (ISO order).
    pub const ALL: [DayOfWeek; 7] = [
        DayOfWeek::Monday,
        DayOfWeek::Tuesday,
        DayOfWeek::Wednesday,
        DayOfWeek::Thursday,
        DayOfWeek::Friday,
        DayOfWeek::Saturday,
        DayOfWeek::Sunday,
    ];

    /// All days in the paper's Figure-7 order (Sunday-first).
    pub const PAPER_ORDER: [DayOfWeek; 7] = [
        DayOfWeek::Sunday,
        DayOfWeek::Monday,
        DayOfWeek::Tuesday,
        DayOfWeek::Wednesday,
        DayOfWeek::Thursday,
        DayOfWeek::Friday,
        DayOfWeek::Saturday,
    ];

    /// Day from a 0-based index, Monday == 0.
    ///
    /// # Panics
    /// Panics if `idx >= 7`.
    pub fn from_index(idx: usize) -> DayOfWeek {
        DayOfWeek::ALL[idx]
    }

    /// 0-based index, Monday == 0.
    pub fn index(self) -> usize {
        self as usize
    }

    /// True for Saturday and Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, DayOfWeek::Saturday | DayOfWeek::Sunday)
    }
}

impl fmt::Display for DayOfWeek {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The paper's time-of-day buckets.
///
/// Figure 6 uses six 4-hour bins; the Table-5 campaign setups use three
/// coarser shifts (12am-9am / 9am-6pm / 6pm-12am), exposed via
/// [`TimeOfDay::campaign_shift`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TimeOfDay {
    /// 00:00–03:59.
    Night,
    /// 04:00–07:59.
    EarlyMorning,
    /// 08:00–11:59.
    Morning,
    /// 12:00–15:59.
    Afternoon,
    /// 16:00–19:59.
    Evening,
    /// 20:00–23:59.
    LateEvening,
}

impl TimeOfDay {
    /// All six buckets in figure order.
    pub const ALL: [TimeOfDay; 6] = [
        TimeOfDay::Night,
        TimeOfDay::EarlyMorning,
        TimeOfDay::Morning,
        TimeOfDay::Afternoon,
        TimeOfDay::Evening,
        TimeOfDay::LateEvening,
    ];

    /// Bucket containing the given hour (0–23).
    pub fn from_hour(hour: u32) -> TimeOfDay {
        TimeOfDay::ALL[(hour as usize % 24) / 4]
    }

    /// The figure label, e.g. `"08:00-11:00"` (the paper labels bins by
    /// their first and last starting hour).
    pub fn label(self) -> &'static str {
        match self {
            TimeOfDay::Night => "00:00-03:00",
            TimeOfDay::EarlyMorning => "04:00-07:00",
            TimeOfDay::Morning => "08:00-11:00",
            TimeOfDay::Afternoon => "12:00-15:00",
            TimeOfDay::Evening => "16:00-19:00",
            TimeOfDay::LateEvening => "20:00-23:00",
        }
    }

    /// The Table-5 campaign shift this bucket belongs to.
    pub fn campaign_shift(self) -> CampaignShift {
        match self {
            TimeOfDay::Night | TimeOfDay::EarlyMorning => CampaignShift::Overnight,
            TimeOfDay::Morning | TimeOfDay::Afternoon => CampaignShift::Business,
            TimeOfDay::Evening | TimeOfDay::LateEvening => CampaignShift::Prime,
        }
    }
}

impl fmt::Display for TimeOfDay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The three time-of-day shifts used as campaign filters in Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CampaignShift {
    /// 12am–9am.
    Overnight,
    /// 9am–6pm.
    Business,
    /// 6pm–12am.
    Prime,
}

impl CampaignShift {
    /// All three shifts.
    pub const ALL: [CampaignShift; 3] = [
        CampaignShift::Overnight,
        CampaignShift::Business,
        CampaignShift::Prime,
    ];

    /// The shift containing a given hour (0–23). Note the shifts are uneven
    /// (9/9/6 hours) exactly as in Table 5.
    pub fn from_hour(hour: u32) -> CampaignShift {
        match hour % 24 {
            0..=8 => CampaignShift::Overnight,
            9..=17 => CampaignShift::Business,
            _ => CampaignShift::Prime,
        }
    }

    /// Table-5 label.
    pub fn label(self) -> &'static str {
        match self {
            CampaignShift::Overnight => "12am-9am",
            CampaignShift::Business => "9am-6pm",
            CampaignShift::Prime => "6pm-12am",
        }
    }
}

impl fmt::Display for CampaignShift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_thursday() {
        assert_eq!(SimTime::EPOCH.day_of_week(), DayOfWeek::Thursday);
        assert_eq!(SimTime::EPOCH.ymd(), (2015, 1, 1));
        assert_eq!(SimTime::EPOCH.month(), Month::January);
    }

    #[test]
    fn known_dates() {
        // 2015-12-31 was a Thursday; 2016-02-29 existed (leap year, a Monday).
        assert_eq!(
            SimTime::from_ymd_hm(2015, 12, 31, 0, 0).day_of_week(),
            DayOfWeek::Thursday
        );
        let leap = SimTime::from_ymd_hm(2016, 2, 29, 12, 0);
        assert_eq!(leap.ymd(), (2016, 2, 29));
        assert_eq!(leap.day_of_week(), DayOfWeek::Monday);
        // 2016-06-15 was a Wednesday (A2 campaign window).
        assert_eq!(
            SimTime::from_ymd_hm(2016, 6, 15, 0, 0).day_of_week(),
            DayOfWeek::Wednesday
        );
    }

    #[test]
    fn ymd_round_trip_across_both_years() {
        for year in [2015u32, 2016] {
            let table = if year == 2015 { &DAYS_2015 } else { &DAYS_2016 };
            for month in 1..=12u32 {
                for day in [1, 15, table[(month - 1) as usize]] {
                    let t = SimTime::from_ymd_hm(year, month, day, 13, 45);
                    assert_eq!(t.ymd(), (year, month, day));
                    assert_eq!(t.hour(), 13);
                    assert_eq!(t.minute(), 45);
                }
            }
        }
    }

    #[test]
    fn consecutive_days_advance_weekday() {
        let mut t = SimTime::EPOCH;
        let mut dow = t.day_of_week().index();
        for _ in 0..800 {
            t = t.plus_days(1);
            dow = (dow + 1) % 7;
            assert_eq!(t.day_of_week().index(), dow);
        }
    }

    #[test]
    fn time_of_day_buckets() {
        assert_eq!(TimeOfDay::from_hour(0), TimeOfDay::Night);
        assert_eq!(TimeOfDay::from_hour(3), TimeOfDay::Night);
        assert_eq!(TimeOfDay::from_hour(4), TimeOfDay::EarlyMorning);
        assert_eq!(TimeOfDay::from_hour(9), TimeOfDay::Morning);
        assert_eq!(TimeOfDay::from_hour(23), TimeOfDay::LateEvening);
    }

    #[test]
    fn campaign_shifts_partition_the_day() {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<&'static str, u32> = BTreeMap::new();
        for h in 0..24 {
            *counts
                .entry(CampaignShift::from_hour(h).label())
                .or_default() += 1;
        }
        assert_eq!(counts["12am-9am"], 9);
        assert_eq!(counts["9am-6pm"], 9);
        assert_eq!(counts["6pm-12am"], 6);
    }

    #[test]
    fn weekend_detection() {
        // 2015-01-03 was a Saturday.
        assert!(SimTime::from_ymd_hm(2015, 1, 3, 10, 0).is_weekend());
        assert!(!SimTime::from_ymd_hm(2015, 1, 5, 10, 0).is_weekend());
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_ymd_hm(2015, 5, 4, 9, 5);
        assert_eq!(t.to_string(), "2015-05-04 09:05");
    }

    #[test]
    #[should_panic(expected = "day out of range")]
    fn rejects_feb_29_2015() {
        SimTime::from_ymd_hm(2015, 2, 29, 0, 0);
    }
}
