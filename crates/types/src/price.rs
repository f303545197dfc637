//! Fixed-point monetary types.
//!
//! RTB charge prices are quoted in **CPM** (cost per mille, i.e. the price of
//! one thousand impressions), typically in US dollars. Floating point is a
//! poor fit for money — sums of millions of impressions accumulate error and
//! comparisons become fuzzy — so [`Cpm`] stores *micro-CPM* in an `i64`
//! (1 CPM == 1_000_000 micro-CPM). That gives a range of ±9.2e12 CPM at
//! micro-cent precision, vastly beyond anything the ad market produces.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::str::FromStr;

/// Number of micro-units per whole CPM unit.
const MICROS: i64 = 1_000_000;

/// A charge price in cost-per-mille (CPM), fixed point with six decimal
/// digits of precision.
///
/// ```
/// use yav_types::Cpm;
/// let p = Cpm::from_f64(0.95);
/// assert_eq!(p.to_string(), "0.95");
/// assert_eq!(p + Cpm::from_f64(0.05), Cpm::from_f64(1.0));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Cpm(i64);

impl Cpm {
    /// Zero CPM.
    pub const ZERO: Cpm = Cpm(0);
    /// One CPM (one dollar per thousand impressions).
    pub const ONE: Cpm = Cpm(MICROS);
    /// Largest representable price.
    pub const MAX: Cpm = Cpm(i64::MAX);

    /// Builds a price from raw micro-CPM units.
    pub const fn from_micros(micros: i64) -> Cpm {
        Cpm(micros)
    }

    /// Raw micro-CPM units.
    pub const fn micros(self) -> i64 {
        self.0
    }

    /// Builds a price from whole CPM units.
    pub const fn from_whole(cpm: i64) -> Cpm {
        Cpm(cpm * MICROS)
    }

    /// Converts from a floating-point CPM value, rounding to the nearest
    /// micro-CPM. Values outside the representable range saturate.
    pub fn from_f64(cpm: f64) -> Cpm {
        let micros = (cpm * MICROS as f64).round();
        if micros >= i64::MAX as f64 {
            Cpm(i64::MAX)
        } else if micros <= i64::MIN as f64 {
            Cpm(i64::MIN)
        } else {
            Cpm(micros as i64)
        }
    }

    /// The price as a floating-point CPM value (for statistics, not money).
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / MICROS as f64
    }

    /// Natural logarithm of the CPM value, used by the price-modeling
    /// pipeline's log-normalisation step. Non-positive prices map to the
    /// log of one micro-CPM (the smallest positive representable price) so
    /// the transform is total.
    pub fn ln(self) -> f64 {
        let v = self.as_f64();
        if v > 0.0 {
            v.ln()
        } else {
            (1.0 / MICROS as f64).ln()
        }
    }

    /// True if this price is strictly positive.
    pub fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Cpm) -> Cpm {
        Cpm(self.0.saturating_add(rhs.0))
    }

    /// Scales the price by a dimensionless factor, rounding to nearest.
    pub fn scale(self, factor: f64) -> Cpm {
        Cpm::from_f64(self.as_f64() * factor)
    }

    /// The revenue earned by *one* impression charged at this CPM.
    pub fn per_impression(self) -> MicroUsd {
        // CPM is per 1000 impressions; micro-CPM / 1000 = micro-USD per imp.
        MicroUsd(self.0 / 1000)
    }
}

impl Add for Cpm {
    type Output = Cpm;
    fn add(self, rhs: Cpm) -> Cpm {
        Cpm(self.0 + rhs.0)
    }
}

impl AddAssign for Cpm {
    fn add_assign(&mut self, rhs: Cpm) {
        self.0 += rhs.0;
    }
}

impl Sub for Cpm {
    type Output = Cpm;
    fn sub(self, rhs: Cpm) -> Cpm {
        Cpm(self.0 - rhs.0)
    }
}

impl SubAssign for Cpm {
    fn sub_assign(&mut self, rhs: Cpm) {
        self.0 -= rhs.0;
    }
}

impl Neg for Cpm {
    type Output = Cpm;
    fn neg(self) -> Cpm {
        Cpm(-self.0)
    }
}

impl Mul<i64> for Cpm {
    type Output = Cpm;
    fn mul(self, rhs: i64) -> Cpm {
        Cpm(self.0 * rhs)
    }
}

impl Div<i64> for Cpm {
    type Output = Cpm;
    fn div(self, rhs: i64) -> Cpm {
        Cpm(self.0 / rhs)
    }
}

impl Sum for Cpm {
    fn sum<I: Iterator<Item = Cpm>>(iter: I) -> Cpm {
        iter.fold(Cpm::ZERO, |acc, p| acc.saturating_add(p))
    }
}

impl<'a> Sum<&'a Cpm> for Cpm {
    fn sum<I: Iterator<Item = &'a Cpm>>(iter: I) -> Cpm {
        iter.copied().sum()
    }
}

impl Cpm {
    /// Appends the `Display` form to `out` without `core::fmt`: the
    /// nURL renderer writes cleartext prices and bids through it.
    pub fn write_decimal(self, out: &mut String) {
        let (negative, whole, frac) = self.decimal_parts();
        if negative {
            out.push('-');
        }
        crate::push_decimal(out, whole);
        if let Some((digits, len)) = frac {
            out.push('.');
            out.extend(digits[..len].iter().map(|&d| char::from(d)));
        }
    }

    /// The pieces of the minimal decimal form, shared by `Display` and
    /// [`Cpm::write_decimal`]: the sign, the whole CPM, and the
    /// fractional digits, if any, as six zero-padded ASCII digits with
    /// trailing zeros stripped. Rendered on the stack: nothing allocates.
    fn decimal_parts(self) -> (bool, u64, Option<([u8; 6], usize)>) {
        let abs = self.0.unsigned_abs();
        let whole = abs / MICROS as u64;
        let frac = abs % MICROS as u64;
        if frac == 0 {
            return (self.0 < 0, whole, None);
        }
        let mut digits = [0u8; 6];
        let mut rest = frac;
        for d in digits.iter_mut().rev() {
            *d = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        let mut len = 6;
        while len > 1 && digits[len - 1] == b'0' {
            len -= 1;
        }
        (self.0 < 0, whole, Some((digits, len)))
    }
}

impl fmt::Display for Cpm {
    /// Formats with the minimal number of decimal digits (what real nURLs
    /// carry, e.g. `charge_price=0.95`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (negative, whole, frac) = self.decimal_parts();
        let sign = if negative { "-" } else { "" };
        let Some((digits, len)) = frac else {
            return write!(f, "{sign}{whole}");
        };
        let frac_str = std::str::from_utf8(&digits[..len]).map_err(|_| fmt::Error)?;
        write!(f, "{sign}{whole}.{frac_str}")
    }
}

/// Error returned when parsing a [`Cpm`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCpmError {
    input: String,
}

impl fmt::Display for ParseCpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CPM price: {:?}", self.input)
    }
}

impl std::error::Error for ParseCpmError {}

impl Cpm {
    /// Parses decimal prices as they appear in notification URLs, e.g.
    /// `"0.95"`, `"1"`, `"12.5"`. Scientific notation and signs other than a
    /// single leading `-` are rejected.
    ///
    /// The heap-free form of the [`FromStr`] impl: price screening runs
    /// once per notification URL, and most screened values are encrypted
    /// tokens that *must* fail — an error type carrying the input would
    /// make rejection itself allocate.
    pub fn parse_str(s: &str) -> Option<Cpm> {
        let (neg, body) = match s.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, s),
        };
        if body.is_empty() {
            return None;
        }
        let (whole_str, frac_str) = match body.split_once('.') {
            Some((w, fr)) => (w, fr),
            None => (body, ""),
        };
        if whole_str.is_empty() && frac_str.is_empty() {
            return None;
        }
        if !whole_str.bytes().all(|b| b.is_ascii_digit())
            || !frac_str.bytes().all(|b| b.is_ascii_digit())
        {
            return None;
        }
        // More precision than micro-CPM: truncate (real exchanges quote
        // at micro precision or coarser, but be liberal in what we accept).
        let frac_str = &frac_str[..frac_str.len().min(6)];
        let whole: i64 = if whole_str.is_empty() {
            0
        } else {
            whole_str.parse().ok()?
        };
        let mut frac: i64 = 0;
        if !frac_str.is_empty() {
            frac = frac_str.parse().ok()?;
            frac *= 10_i64.pow(6 - frac_str.len() as u32);
        }
        let micros = whole.checked_mul(MICROS)?.checked_add(frac)?;
        Some(Cpm(if neg { -micros } else { micros }))
    }
}

impl FromStr for Cpm {
    type Err = ParseCpmError;

    /// See [`Cpm::parse_str`], which this delegates to.
    fn from_str(s: &str) -> Result<Cpm, ParseCpmError> {
        Cpm::parse_str(s).ok_or_else(|| ParseCpmError {
            input: s.to_owned(),
        })
    }
}

/// An absolute amount of money in micro-US-dollars (1 USD == 1_000_000).
///
/// Used for campaign budgets and aggregate revenue, where CPM (a *rate*)
/// would be the wrong unit.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct MicroUsd(pub i64);

impl MicroUsd {
    /// Zero dollars.
    pub const ZERO: MicroUsd = MicroUsd(0);

    /// Builds an amount from whole dollars.
    pub const fn from_dollars(d: i64) -> MicroUsd {
        MicroUsd(d * MICROS)
    }

    /// The amount as floating-point dollars.
    pub fn as_dollars(self) -> f64 {
        self.0 as f64 / MICROS as f64
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: MicroUsd) -> MicroUsd {
        MicroUsd(self.0.saturating_add(rhs.0))
    }
}

impl Add for MicroUsd {
    type Output = MicroUsd;
    fn add(self, rhs: MicroUsd) -> MicroUsd {
        MicroUsd(self.0 + rhs.0)
    }
}

impl AddAssign for MicroUsd {
    fn add_assign(&mut self, rhs: MicroUsd) {
        self.0 += rhs.0;
    }
}

impl Sub for MicroUsd {
    type Output = MicroUsd;
    fn sub(self, rhs: MicroUsd) -> MicroUsd {
        MicroUsd(self.0 - rhs.0)
    }
}

impl Sum for MicroUsd {
    fn sum<I: Iterator<Item = MicroUsd>>(iter: I) -> MicroUsd {
        iter.fold(MicroUsd::ZERO, |acc, p| acc.saturating_add(p))
    }
}

impl fmt::Display for MicroUsd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.2}", self.as_dollars())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_minimal_digits() {
        assert_eq!(Cpm::from_f64(0.95).to_string(), "0.95");
        assert_eq!(Cpm::from_whole(3).to_string(), "3");
        assert_eq!(Cpm::from_micros(1).to_string(), "0.000001");
        assert_eq!(Cpm::from_f64(-1.5).to_string(), "-1.5");
        assert_eq!(Cpm::ZERO.to_string(), "0");
    }

    #[test]
    fn write_decimal_writes_what_display_writes() {
        let mut micros: Vec<i64> = (-2_000..=2_000).collect();
        for digits in 0..=18 {
            let p = 10i64.pow(digits);
            micros.extend([p - 1, p, p + 1, -p, 7 * p / 3]);
        }
        micros.extend([i64::MIN, i64::MIN + 1, i64::MAX, 950_000, 30_000_000]);
        micros.extend((0..10_000i64).map(|i| i.wrapping_mul(0x1E37_79B9_7F4A_7C15)));
        let mut out = String::from("p=");
        for m in micros {
            let p = Cpm::from_micros(m);
            out.truncate("p=".len());
            p.write_decimal(&mut out);
            assert_eq!(out, format!("p={p}"), "{m} micros");
        }
    }

    #[test]
    fn parse_round_trips() {
        for s in ["0.95", "1", "12.5", "0.000001", "-2.25", "100"] {
            let p: Cpm = s.parse().unwrap();
            assert_eq!(p.to_string(), s, "round trip of {s}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", "-", ".", "1e3", "0x10", "1.2.3", "price", " 1", "1 "] {
            assert!(s.parse::<Cpm>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn parse_accepts_partial_forms() {
        assert_eq!("0.5".parse::<Cpm>().unwrap(), Cpm::from_f64(0.5));
        assert_eq!(".5".parse::<Cpm>().unwrap(), Cpm::from_f64(0.5));
        assert_eq!("5.".parse::<Cpm>().unwrap(), Cpm::from_whole(5));
    }

    #[test]
    fn parse_truncates_excess_precision() {
        assert_eq!(
            "0.1234567899".parse::<Cpm>().unwrap(),
            Cpm::from_micros(123_456)
        );
    }

    #[test]
    fn arithmetic() {
        let a = Cpm::from_f64(1.5);
        let b = Cpm::from_f64(0.5);
        assert_eq!(a + b, Cpm::from_whole(2));
        assert_eq!(a - b, Cpm::ONE);
        assert_eq!(b * 3, a);
        assert_eq!(a / 3, Cpm::from_f64(0.5));
        assert_eq!([a, b, b].iter().sum::<Cpm>(), Cpm::from_f64(2.5));
    }

    #[test]
    fn per_impression_revenue() {
        // 2 CPM over 1000 impressions is 2 dollars.
        let per_imp = Cpm::from_whole(2).per_impression();
        assert_eq!(per_imp.0 * 1000, MicroUsd::from_dollars(2).0);
    }

    #[test]
    fn ln_total_on_nonpositive() {
        assert!(Cpm::ZERO.ln().is_finite());
        assert!(Cpm::from_whole(-5).ln().is_finite());
        assert!((Cpm::ONE.ln() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn scale_and_saturate() {
        assert_eq!(Cpm::from_whole(2).scale(1.7), Cpm::from_f64(3.4));
        assert_eq!(Cpm::MAX.saturating_add(Cpm::ONE), Cpm::MAX);
        assert_eq!(Cpm::from_f64(f64::MAX), Cpm::MAX);
    }
}
