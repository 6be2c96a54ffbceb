//! Simulated time.
//!
//! All timing in the simulation is expressed in integer nanoseconds, which is
//! fine enough to represent single instructions on a 1.2 GHz core (0.83 ns)
//! while keeping arithmetic exact and the simulation deterministic.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since boot.
///
/// `SimTime` is an absolute point in time; the difference between two
/// `SimTime`s is a [`SimDuration`].
///
/// # Examples
///
/// ```
/// use k2_sim::time::{SimTime, SimDuration};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_us(5);
/// assert_eq!(t1 - t0, SimDuration::from_us(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use k2_sim::time::SimDuration;
///
/// let d = SimDuration::from_ms(1) + SimDuration::from_us(500);
/// assert_eq!(d.as_ns(), 1_500_000);
/// assert!((d.as_secs_f64() - 0.0015).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (boot time).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never" for timeouts.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant at `ns` nanoseconds since boot.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns nanoseconds since boot.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the time since boot as a floating-point number of seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating duration since an earlier instant (zero if `earlier` is
    /// actually later).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Addition that saturates at [`SimTime::MAX`] instead of overflowing.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from a floating-point number of seconds, rounding
    /// to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative, NaN, or too large to represent.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        let ns = s * 1e9;
        assert!(ns <= u64::MAX as f64, "duration overflow: {s}");
        SimDuration(ns.round() as u64)
    }

    /// Returns the duration in nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the duration in whole microseconds (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as floating-point microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the duration as floating-point milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(rhs.0).map(SimDuration)
    }

    /// Saturating subtraction (zero if `rhs > self`).
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// `true` if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics (in debug builds) if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Converts a cycle count at a given core frequency into a duration,
/// rounding up so that work never takes zero time.
///
/// # Examples
///
/// ```
/// use k2_sim::time::cycles_to_duration;
///
/// // 350 cycles at 350 MHz is exactly 1 us.
/// assert_eq!(cycles_to_duration(350, 350_000_000).as_ns(), 1_000);
/// // A single cycle still takes at least 1 ns.
/// assert!(cycles_to_duration(1, 1_200_000_000).as_ns() >= 1);
/// ```
#[inline]
pub fn cycles_to_duration(cycles: u64, hz: u64) -> SimDuration {
    assert!(hz > 0, "core frequency must be non-zero");
    // ns = cycles * 1e9 / hz, rounded up. Every count a simulated op
    // produces fits the exact u64 product; only counts beyond ~584 years
    // of cycles at 1 GHz take the (much slower) u128 division.
    if cycles <= CYCLES_U64_MAX {
        return SimDuration((cycles * 1_000_000_000).div_ceil(hz));
    }
    cycles_to_duration_wide(cycles, hz)
}

/// Largest cycle count whose product with 1e9 fits in a `u64`.
const CYCLES_U64_MAX: u64 = u64::MAX / 1_000_000_000;

/// The general form of [`cycles_to_duration`], computed in `u128`.
fn cycles_to_duration_wide(cycles: u64, hz: u64) -> SimDuration {
    let ns = ((cycles as u128) * 1_000_000_000).div_ceil(hz as u128);
    SimDuration(ns.min(u64::MAX as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_ns(1_000);
        let d = SimDuration::from_us(3);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).as_ns(), 4_000);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_us(1), SimDuration::from_ns(1_000));
        assert_eq!(SimDuration::from_ms(1), SimDuration::from_us(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_ms(1_000));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_ns(), 2);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_ns(5)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_ns(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_ns(1).saturating_sub(SimDuration::from_ns(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn cycles_conversion_rounds_up() {
        assert_eq!(cycles_to_duration(1, 1_000_000_000).as_ns(), 1);
        assert_eq!(cycles_to_duration(3, 2_000_000_000).as_ns(), 2);
        assert_eq!(cycles_to_duration(0, 100).as_ns(), 0);
    }

    #[test]
    fn cycles_fast_path_matches_wide_path() {
        let counts = [
            0,
            1,
            CYCLES_U64_MAX - 1,
            CYCLES_U64_MAX,
            CYCLES_U64_MAX + 1,
            u64::MAX,
        ];
        for hz in [1, 3, 350_000_000, 1_000_000_000, 1_200_000_000, u64::MAX] {
            for cycles in counts {
                assert_eq!(
                    cycles_to_duration(cycles, hz),
                    cycles_to_duration_wide(cycles, hz),
                    "{cycles} cycles at {hz} Hz"
                );
            }
        }
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_us(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_ms(7)), "7.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    fn mul_div_scale() {
        let d = SimDuration::from_us(10);
        assert_eq!(d * 3, SimDuration::from_us(30));
        assert_eq!(d / 2, SimDuration::from_us(5));
    }
}
