//! Physical units used throughout the reproduction.
//!
//! Delays are integer picoseconds ([`Picos`]) so that event-driven
//! simulation and static timing analysis are exact and deterministic
//! (no floating-point accumulation drift across traversal orders).
//! Area is a relative unit ([`Area`]) normalised so that a minimum-size
//! inverter has area 1.0, matching how the paper reports overheads as
//! percentages of a base design.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A signed time quantity in integer picoseconds.
///
/// Signed so that slacks (which may be negative) use the same type as
/// delays and arrival times.
///
/// # Example
///
/// ```
/// use timber_netlist::Picos;
///
/// let period = Picos(1000);
/// let arrival = Picos(1080);
/// let slack = period - arrival;
/// assert_eq!(slack, Picos(-80));
/// assert!(slack.is_negative());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Picos(pub i64);

impl Picos {
    /// The zero time quantity.
    pub const ZERO: Picos = Picos(0);

    /// Largest representable time; used as the identity for `min` folds.
    pub const MAX: Picos = Picos(i64::MAX);

    /// Smallest representable time; used as the identity for `max` folds.
    pub const MIN: Picos = Picos(i64::MIN);

    /// Returns the raw picosecond count.
    pub const fn as_ps(self) -> i64 {
        self.0
    }

    /// Converts to nanoseconds as a float (for report formatting only).
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// True when the quantity is strictly negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// True when the quantity is zero or positive.
    pub const fn is_non_negative(self) -> bool {
        self.0 >= 0
    }

    /// Saturating addition; used in path-length bounds where overflow
    /// must not wrap.
    pub const fn saturating_add(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_add(rhs.0))
    }

    /// Returns `self` scaled by a dimensionless factor, rounding to the
    /// nearest picosecond. This is the primitive used by variability
    /// derating.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `factor` is not finite.
    pub fn scale(self, factor: f64) -> Picos {
        debug_assert!(factor.is_finite(), "scale factor must be finite");
        Picos(round_half_away(self.0 as f64 * factor))
    }

    /// Fraction `self / denom` as `f64`. Returns 0.0 when `denom` is zero.
    pub fn ratio(self, denom: Picos) -> f64 {
        if denom.0 == 0 {
            0.0
        } else {
            self.0 as f64 / denom.0 as f64
        }
    }

    /// The larger of two quantities.
    pub fn max(self, other: Picos) -> Picos {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two quantities.
    pub fn min(self, other: Picos) -> Picos {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

/// `x.round() as i64` (ties away from zero, saturating) without the
/// libm call `f64::round` compiles to on baseline x86-64.
///
/// Below 2⁵² in magnitude, `x - trunc(x)` is exact, so comparing that
/// fraction against ±0.5 rounds exactly; the comparisons become flag
/// moves, not branches, because a fraction test mispredicts. From 2⁵²
/// up every `f64` is an integer, and `round` keeps the saturation and
/// NaN behaviour of `as`.
#[inline]
pub(crate) fn round_half_away(x: f64) -> i64 {
    const EXACT: f64 = (1u64 << 52) as f64;
    if x.abs() < EXACT {
        let t = x as i64;
        let frac = x - t as f64;
        t + i64::from(frac >= 0.5) - i64::from(frac <= -0.5)
    } else {
        x.round() as i64
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ps", self.0)
    }
}

impl Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl SubAssign for Picos {
    fn sub_assign(&mut self, rhs: Picos) {
        self.0 -= rhs.0;
    }
}

impl Neg for Picos {
    type Output = Picos;
    fn neg(self) -> Picos {
        Picos(-self.0)
    }
}

impl Mul<i64> for Picos {
    type Output = Picos;
    fn mul(self, rhs: i64) -> Picos {
        Picos(self.0 * rhs)
    }
}

impl Div<i64> for Picos {
    type Output = Picos;
    fn div(self, rhs: i64) -> Picos {
        Picos(self.0 / rhs)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        iter.fold(Picos::ZERO, Add::add)
    }
}

/// Relative cell area, normalised to a minimum-size inverter (= 1.0).
///
/// # Example
///
/// ```
/// use timber_netlist::Area;
///
/// let a = Area(1.0) + Area(4.5);
/// assert!((a.0 - 5.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Area(pub f64);

impl Area {
    /// The zero area.
    pub const ZERO: Area = Area(0.0);

    /// Fraction `self / denom` as `f64`. Returns 0.0 when `denom` is zero.
    pub fn ratio(self, denom: Area) -> f64 {
        if denom.0 == 0.0 {
            0.0
        } else {
            self.0 / denom.0
        }
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}u", self.0)
    }
}

impl Add for Area {
    type Output = Area;
    fn add(self, rhs: Area) -> Area {
        Area(self.0 + rhs.0)
    }
}

impl AddAssign for Area {
    fn add_assign(&mut self, rhs: Area) {
        self.0 += rhs.0;
    }
}

impl Sub for Area {
    type Output = Area;
    fn sub(self, rhs: Area) -> Area {
        Area(self.0 - rhs.0)
    }
}

impl Mul<f64> for Area {
    type Output = Area;
    fn mul(self, rhs: f64) -> Area {
        Area(self.0 * rhs)
    }
}

impl Sum for Area {
    fn sum<I: Iterator<Item = Area>>(iter: I) -> Area {
        iter.fold(Area::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_matches_f64_round_at_ties_and_boundaries() {
        let exact = (1u64 << 52) as f64;
        let mut cases = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            -0.49999999999999994,
            exact - 0.5,
            exact - 1.5,
            exact,
            exact + 1.0,
            2.0 * exact,
            9.2e18,
            9.3e18,
            i64::MAX as f64,
            i64::MIN as f64,
            1e300,
            -1e300,
            1e-300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for k in [0i64, 1, 2, 3, 7, 1000, 123_456_789, (1 << 51) - 1] {
            cases.extend([k as f64 + 0.5, k as f64 - 0.5]);
        }
        for x in cases.clone() {
            // The neighbours on either side of every case.
            cases.push(f64::from_bits(x.to_bits().wrapping_add(1)));
            cases.push(f64::from_bits(x.to_bits().wrapping_sub(1)));
        }
        for x in cases.iter().flat_map(|&x| [x, -x]) {
            assert_eq!(round_half_away(x), x.round() as i64, "{x:e}");
        }
    }

    #[test]
    fn picos_arithmetic() {
        assert_eq!(Picos(3) + Picos(4), Picos(7));
        assert_eq!(Picos(3) - Picos(4), Picos(-1));
        assert_eq!(-Picos(5), Picos(-5));
        assert_eq!(Picos(3) * 4, Picos(12));
        assert_eq!(Picos(12) / 4, Picos(3));
    }

    #[test]
    fn picos_ordering_and_folds() {
        assert_eq!(Picos(3).max(Picos(9)), Picos(9));
        assert_eq!(Picos(3).min(Picos(9)), Picos(3));
        let total: Picos = [Picos(1), Picos(2), Picos(3)].into_iter().sum();
        assert_eq!(total, Picos(6));
    }

    #[test]
    fn picos_scale_rounds_to_nearest() {
        assert_eq!(Picos(100).scale(1.004), Picos(100));
        assert_eq!(Picos(100).scale(1.006), Picos(101));
        assert_eq!(Picos(100).scale(0.5), Picos(50));
    }

    #[test]
    fn picos_ratio_handles_zero_denominator() {
        assert_eq!(Picos(5).ratio(Picos(0)), 0.0);
        assert!((Picos(5).ratio(Picos(10)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn picos_saturating_add_does_not_wrap() {
        assert_eq!(Picos::MAX.saturating_add(Picos(1)), Picos::MAX);
    }

    #[test]
    fn picos_display() {
        assert_eq!(Picos(40).to_string(), "40ps");
        assert_eq!(Picos(-3).to_string(), "-3ps");
    }

    #[test]
    fn area_arithmetic_and_ratio() {
        let a = Area(2.0) + Area(3.0);
        assert!((a.0 - 5.0).abs() < 1e-12);
        assert!((Area(1.0).ratio(Area(4.0)) - 0.25).abs() < 1e-12);
        assert_eq!(Area(1.0).ratio(Area(0.0)), 0.0);
        let s: Area = [Area(1.0), Area(2.5)].into_iter().sum();
        assert!((s.0 - 3.5).abs() < 1e-12);
    }

    #[test]
    fn area_display() {
        assert_eq!(Area(5.25).to_string(), "5.25u");
    }
}
