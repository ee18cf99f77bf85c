//! Integer-nanosecond simulation time.
//!
//! All simulators in the workspace share a single clock type so that events
//! produced by different components (network flows, batch iterations, policy
//! ticks) are totally ordered without floating-point comparisons.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative duration on the simulation clock, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimSpan(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinite" horizon sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative and non-finite inputs clamp to zero: model code computes
    /// latencies from fitted constants and tiny negative values can appear
    /// from extrapolation; clamping keeps the clock monotone.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime(round_nanos(s * 1e9))
    }

    /// Raw nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the epoch as a float (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds since the epoch as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Scale this instant by a non-negative float factor, staying in the
    /// integer-nanosecond domain and rounding exactly once.
    ///
    /// This is the sanctioned way to scale a timestamp (e.g. trace time
    /// dilation): round-tripping through `as_secs_f64`/`from_secs_f64`
    /// rounds twice and loses low bits on large clocks, which breaks
    /// bit-identical replays. Negative and non-finite factors clamp to
    /// zero, matching `from_secs_f64`.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimTime {
        if !factor.is_finite() || factor <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime(round_nanos(self.0 as f64 * factor))
    }

    /// Saturating difference `self - earlier`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimSpan {
        SimSpan(self.0.saturating_sub(earlier.0))
    }

    /// Checked difference; `None` if `earlier` is after `self`.
    #[inline]
    pub fn checked_since(self, earlier: SimTime) -> Option<SimSpan> {
        self.0.checked_sub(earlier.0).map(SimSpan)
    }
}

impl SimSpan {
    /// The zero-length span.
    pub const ZERO: SimSpan = SimSpan(0);
    /// The maximum representable span.
    pub const MAX: SimSpan = SimSpan(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimSpan(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimSpan(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimSpan(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimSpan(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (clamped to `[0, MAX]`).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimSpan::ZERO;
        }
        SimSpan(round_nanos(s * 1e9))
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds as a float (for reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Microseconds as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True when the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating addition of two spans.
    #[inline]
    pub fn saturating_add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_add(rhs.0))
    }

    /// Multiply the span by an integer factor (saturating).
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> SimSpan {
        SimSpan(self.0.saturating_mul(factor))
    }

    /// Scale the span by a non-negative float factor, staying in the
    /// integer-nanosecond domain and rounding exactly once (see
    /// [`SimTime::mul_f64`]). Negative and non-finite factors clamp to
    /// zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimSpan {
        if !factor.is_finite() || factor <= 0.0 {
            return SimSpan::ZERO;
        }
        SimSpan(round_nanos(self.0 as f64 * factor))
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimSpan> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimSpan> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimSpan;
    /// Panics in debug builds if `rhs` is after `self`; saturates in release.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimSpan {
        debug_assert!(rhs.0 <= self.0, "SimTime subtraction went negative");
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimSpan {
    #[inline]
    fn add_assign(&mut self, rhs: SimSpan) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn sub(self, rhs: SimSpan) -> SimSpan {
        debug_assert!(rhs.0 <= self.0, "SimSpan subtraction went negative");
        SimSpan(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimSpan {
    #[inline]
    fn sub_assign(&mut self, rhs: SimSpan) {
        debug_assert!(rhs.0 <= self.0, "SimSpan subtraction went negative");
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn mul(self, rhs: u64) -> SimSpan {
        SimSpan(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimSpan {
    type Output = SimSpan;
    #[inline]
    fn div(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Compute the time to serialize `bytes` onto a link of `bits_per_sec`
/// bandwidth, rounded up to the next nanosecond so a transfer never
/// completes "for free".
#[inline]
pub fn transfer_span(bytes: u64, bits_per_sec: f64) -> SimSpan {
    if bytes == 0 {
        return SimSpan::ZERO;
    }
    if bits_per_sec.is_nan() || bits_per_sec <= 0.0 {
        return SimSpan::MAX;
    }
    let secs = (bytes as f64 * 8.0) / bits_per_sec;
    let ns = (secs * 1e9).ceil();
    if ns >= u64::MAX as f64 {
        SimSpan::MAX
    } else {
        SimSpan::from_nanos(ns.max(1.0) as u64)
    }
}

/// `x.round().min(u64::MAX as f64) as u64` for a non-negative, non-NaN
/// nanosecond count `x`, without `f64::round` — a libm call on baseline
/// x86-64, and this sits inside every flow-rate materialization.
///
/// Below 2^52 a float can carry a fraction, and `x - trunc(x)` is that
/// fraction exactly, so comparing it with 0.5 rounds half away from zero
/// as `round` does; the truncation goes through `i64`, whose conversions
/// are single instructions (the value fits). From 2^52 on every float is
/// an integer, and `as` saturates at `u64::MAX` (including for `+inf`).
#[inline]
fn round_nanos(x: f64) -> u64 {
    const FRACTIONS_END: f64 = (1u64 << 52) as f64;
    if x < FRACTIONS_END {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The conversion `from_secs_f64` performed before `round_nanos`.
    fn reference(s: f64) -> u64 {
        if !s.is_finite() || s <= 0.0 {
            return 0;
        }
        (s * 1e9).round().min(u64::MAX as f64) as u64
    }

    /// `x` and its `k` float neighbours on each side.
    fn neighbours(x: f64, k: i64) -> impl Iterator<Item = f64> {
        (-k..=k).map(move |d| f64::from_bits(x.to_bits().wrapping_add_signed(d)))
    }

    #[test]
    fn secs_to_nanos_rounding_matches_the_libm_reference() {
        let boundary = (1u64 << 52) as f64;
        let mut secs: Vec<f64> = vec![
            0.0,
            -0.0,
            -1.0,
            -f64::MIN_POSITIVE,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NAN,
            // Subnormal and tiny positive inputs.
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            0.49e-9,
            0.5e-9,
            // Saturation at u64::MAX.
            u64::MAX as f64 / 1e9,
            1e11,
            f64::MAX,
        ];
        // Half nanoseconds across the magnitudes, up to the 2^52 ns
        // boundary where fractions end.
        for k in [0u64, 1, 2, 7, 1_000, 123_456_789, 1 << 40, (1 << 51) + 3] {
            secs.extend(neighbours((k as f64 + 0.5) / 1e9, 4));
        }
        secs.extend(neighbours(boundary / 1e9, 4));
        secs.extend(neighbours(2.0 * boundary / 1e9, 4));
        for s in secs {
            assert_eq!(SimSpan::from_secs_f64(s).as_nanos(), reference(s), "{s:e}");
            assert_eq!(SimTime::from_secs_f64(s).as_nanos(), reference(s), "{s:e}");
        }
        // Exact half nanoseconds and their neighbours in the ns domain,
        // on both sides of 2^52 and into saturation.
        for x in [0.5, 1.5, 2.5, 1e9 + 0.5, boundary - 0.5, boundary - 1.5]
            .into_iter()
            .chain([boundary, boundary + 1.0, 2.0 * boundary, 1.9e19, 2e19])
            .chain([u64::MAX as f64])
        {
            for y in neighbours(x, 3) {
                assert_eq!(
                    round_nanos(y),
                    y.round().min(u64::MAX as f64) as u64,
                    "{y:e}"
                );
            }
        }
        assert_eq!(round_nanos(f64::INFINITY), u64::MAX);
    }

    proptest::proptest! {
        /// Any float bit pattern — negative, subnormal, NaN, huge — and
        /// uniform second counts convert exactly as the libm reference.
        #[test]
        fn secs_to_nanos_rounding_matches_on_arbitrary_inputs(
            bits in 0u64..u64::MAX,
            secs in 0.0f64..1e4,
            (ns, frac) in (0u64..(1 << 53), 0u8..3),
        ) {
            for s in [f64::from_bits(bits), secs] {
                for y in neighbours(s, 2) {
                    proptest::prop_assert_eq!(SimSpan::from_secs_f64(y).as_nanos(), reference(y));
                }
            }
            let x = ns as f64 + [0.25, 0.5, 0.75][frac as usize];
            for y in neighbours(x, 2) {
                proptest::prop_assert_eq!(round_nanos(y), y.round() as u64, "{:e}", y);
            }
        }
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(4).as_nanos(), 4_000);
        assert_eq!(SimSpan::from_secs(1), SimSpan::from_millis(1000));
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mul_f64_rounds_once_in_the_nanos_domain() {
        // 1_000_000_013 × 1.5 = 1_500_000_019.5 exactly (both factors
        // representable); rounding half away from zero gives …020. The
        // f64-seconds round-trip this helper replaces rounds three times
        // and lands on …019 — the 1 ns drift that breaks bit-identity.
        let t = SimTime::from_nanos(1_000_000_013);
        assert_eq!(t.mul_f64(1.5).as_nanos(), 1_500_000_020);
        let via_secs = SimTime::from_secs_f64(t.as_secs_f64() * 1.5);
        assert_eq!(via_secs.as_nanos(), 1_500_000_019);
        let s = SimSpan::from_nanos(1_000_000_013);
        assert_eq!(s.mul_f64(1.5).as_nanos(), 1_500_000_020);
    }

    #[test]
    fn mul_f64_identity_and_clamps() {
        // Below 2^53 the ns count is exactly representable, so scaling
        // by 1.0 is the identity.
        let t = SimTime::from_nanos(8_123_456_789_012_345);
        assert_eq!(t.mul_f64(1.0), t);
        assert_eq!(t.mul_f64(0.0), SimTime::ZERO);
        assert_eq!(t.mul_f64(-2.0), SimTime::ZERO);
        assert_eq!(t.mul_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimSpan::from_secs(4).mul_f64(0.25), SimSpan::from_secs(1));
        assert_eq!(SimSpan::MAX.mul_f64(f64::INFINITY), SimSpan::ZERO);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimSpan::from_secs_f64(-0.5), SimSpan::ZERO);
        assert_eq!(
            SimSpan::from_secs_f64(f64::INFINITY),
            SimSpan::ZERO.saturating_add(SimSpan::ZERO)
        );
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimSpan::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        let d = t - SimTime::from_secs(1);
        assert_eq!(d, SimSpan::from_millis(500));
        assert_eq!(SimSpan::from_secs(4) / 2, SimSpan::from_secs(2));
        assert_eq!(SimSpan::from_secs(2) * 3, SimSpan::from_secs(6));
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_since(a), SimSpan::from_secs(1));
        assert_eq!(a.saturating_since(b), SimSpan::ZERO);
        assert_eq!(a.checked_since(b), None);
    }

    #[test]
    fn transfer_span_basics() {
        // 1 MB over 100 Gbps = 8e6 / 1e11 = 80 us.
        let d = transfer_span(1_000_000, 100e9);
        assert_eq!(d, SimSpan::from_micros(80));
        assert_eq!(transfer_span(0, 100e9), SimSpan::ZERO);
        assert_eq!(transfer_span(1, 0.0), SimSpan::MAX);
        // Rounds up: a single byte over 100 Gbps is sub-nanosecond but not free.
        assert!(transfer_span(1, 100e9) >= SimSpan::from_nanos(1));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_secs(3),
            SimTime::ZERO,
            SimTime::from_millis(10),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(10),
                SimTime::from_secs(3)
            ]
        );
    }
}
