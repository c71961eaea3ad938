//! Value types and semirings.
//!
//! The old `Scalar` trait bundled two concerns: *what a stored value is*
//! (copyable, comparable, convertible to `f64` for instrumentation) and
//! *how values combine* (the `(add, mul)` pair of the semiring). Splitting
//! them lets the same storage formats and kernels run MCL's `(+, ×)`,
//! shortest-path `(min, +)`, bottleneck `(max, min)` and reachability
//! `(∨, ∧)` without duplicating code:
//!
//! * [`Value`] — the storage contract. Says nothing about arithmetic.
//! * [`Semiring`] — a zero-sized instance carrying the operations and the
//!   identities. Passed **by value** (e.g.
//!   `t.sum_duplicates_in(MinPlus)`) so the element type is inferred from
//!   the data structure, not spelled at every call site.
//!
//! `Semiring::ZERO` is both the additive identity and the multiplicative
//! annihilator (`zero ⊗ x = zero`); [`Semiring::is_annihilator`] is the
//! check kernels use to drop entries after accumulation. For plus-times
//! that is the familiar "drop explicit zeros"; for min-plus it drops
//! `+∞` (no path); for boolean it drops `false`.

use std::marker::PhantomData;

/// Storage contract for values held in sparse matrices.
///
/// Deliberately arithmetic-free: a `Value` can be stored, copied across
/// threads, compared, defaulted (for scratch buffers and placeholder
/// slots) and lossily inspected as `f64` by instrumentation. All
/// arithmetic goes through a [`Semiring`]. Values must also be wire
/// encodable/decodable ([`crate::wire`]) so any matrix built over any
/// semiring can cross a byte-oriented transport.
pub trait Value:
    Copy
    + Send
    + Sync
    + PartialEq
    + PartialOrd
    + Default
    + std::fmt::Debug
    + crate::wire::WireEncode
    + crate::wire::WireDecode
    + 'static
{
    /// Lossy conversion to `f64`, used by instrumentation and statistics.
    fn to_f64(self) -> f64;
}

macro_rules! impl_value_num {
    ($($t:ty),*) => {$(
        impl Value for $t {
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    )*};
}

impl_value_num!(f64, f32, u32, u64, i64);

/// A pattern's element: a [`Csc`](crate::Csc)`<()>` holds structure alone,
/// with no value array behind it.
impl Value for () {
    fn to_f64(self) -> f64 {
        1.0
    }
}

impl Value for bool {
    #[inline(always)]
    fn to_f64(self) -> f64 {
        if self {
            1.0
        } else {
            0.0
        }
    }
}

/// A semiring `(⊕, ⊗, ZERO, ONE)` over element type [`Semiring::Elem`].
///
/// Implementors are zero-sized tokens ([`PlusTimes`], [`MinPlus`],
/// [`MaxMin`], [`Boolean`]) passed by value into the `*_in` constructors
/// and kernels. `ZERO` must be the identity of `add` *and* the
/// annihilator of `mul`; `ONE` the identity of `mul`. Kernels assume both
/// laws: they skip `ZERO` operands and never materialize `ZERO` outputs.
pub trait Semiring: Copy + Send + Sync + Default + std::fmt::Debug + 'static {
    /// The element type the operations act on.
    type Elem: Value;
    /// Additive identity and multiplicative annihilator.
    const ZERO: Self::Elem;
    /// Multiplicative identity.
    const ONE: Self::Elem;

    /// Semiring addition `a ⊕ b`.
    fn add(a: Self::Elem, b: Self::Elem) -> Self::Elem;
    /// Semiring multiplication `a ⊗ b`. Need not commute: every SpGEMM
    /// kernel evaluates `mul(a_ik, b_kj)` — the left operand comes from
    /// `A`.
    fn mul(a: Self::Elem, b: Self::Elem) -> Self::Elem;
    /// `true` if `v` equals the annihilator — such entries are dropped
    /// after accumulation instead of being stored.
    #[inline(always)]
    fn is_annihilator(v: Self::Elem) -> bool {
        v == Self::ZERO
    }
}

/// The numeric `(+, ×)` semiring — MCL's arithmetic.
///
/// Generic over the element type so `f64`, `f32` and the integer counter
/// types share one token. Integer instances saturate instead of wrapping:
/// symbolic nnz accumulation on dense columns must pin at the type's max,
/// not silently wrap past it.
pub struct PlusTimes<T>(PhantomData<T>);

impl<T> PlusTimes<T> {
    /// The (zero-sized) plus-times token.
    pub const fn new() -> Self {
        Self(PhantomData)
    }
}

impl<T> Clone for PlusTimes<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for PlusTimes<T> {}
impl<T> Default for PlusTimes<T> {
    fn default() -> Self {
        Self::new()
    }
}
impl<T> std::fmt::Debug for PlusTimes<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PlusTimes")
    }
}

macro_rules! plus_times_float {
    ($t:ty) => {
        impl Semiring for PlusTimes<$t> {
            type Elem = $t;
            const ZERO: $t = 0.0;
            const ONE: $t = 1.0;
            #[inline(always)]
            fn add(a: $t, b: $t) -> $t {
                a + b
            }
            #[inline(always)]
            fn mul(a: $t, b: $t) -> $t {
                a * b
            }
        }
    };
}

macro_rules! plus_times_int {
    ($t:ty) => {
        impl Semiring for PlusTimes<$t> {
            type Elem = $t;
            const ZERO: $t = 0;
            const ONE: $t = 1;
            #[inline(always)]
            fn add(a: $t, b: $t) -> $t {
                a.saturating_add(b)
            }
            #[inline(always)]
            fn mul(a: $t, b: $t) -> $t {
                a.saturating_mul(b)
            }
        }
    };
}

plus_times_float!(f64);
plus_times_float!(f32);
plus_times_int!(u32);
plus_times_int!(u64);
plus_times_int!(i64);

/// The tropical `(min, +)` semiring over `f64`: path lengths compose by
/// addition, alternatives by minimum. `ZERO = +∞` (no path),
/// `ONE = 0` (the empty path). Repeated squaring of an adjacency matrix
/// under min-plus performs all-pairs shortest path hop-doubling.
#[derive(Clone, Copy, Debug, Default)]
pub struct MinPlus;

impl Semiring for MinPlus {
    type Elem = f64;
    const ZERO: f64 = f64::INFINITY;
    const ONE: f64 = 0.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a.min(b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        // Guard the annihilator law: `∞ + (-∞)` would be NaN, and even
        // `∞ + finite` relies on IEEE semantics. Make `ZERO ⊗ x = ZERO`
        // explicit so kernels may combine in any order.
        if a == f64::INFINITY || b == f64::INFINITY {
            f64::INFINITY
        } else {
            a + b
        }
    }
}

/// The bottleneck `(max, min)` semiring over `f64`: path capacity is the
/// minimum edge along the path, alternatives take the maximum.
/// `ZERO = -∞`, `ONE = +∞`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxMin;

impl Semiring for MaxMin {
    type Elem = f64;
    const ZERO: f64 = f64::NEG_INFINITY;
    const ONE: f64 = f64::INFINITY;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a.max(b)
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a.min(b)
    }
}

/// The boolean `(∨, ∧)` semiring: matrix powers compute reachability.
#[derive(Clone, Copy, Debug, Default)]
pub struct Boolean;

impl Semiring for Boolean {
    type Elem = bool;
    const ZERO: bool = false;
    const ONE: bool = true;
    #[inline(always)]
    fn add(a: bool, b: bool) -> bool {
        a | b
    }
    #[inline(always)]
    fn mul(a: bool, b: bool) -> bool {
        a & b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_identities() {
        assert_eq!(PlusTimes::<f64>::add(PlusTimes::<f64>::ZERO, 3.5), 3.5);
        assert_eq!(PlusTimes::<f64>::mul(PlusTimes::<f64>::ONE, 3.5), 3.5);
        assert!(PlusTimes::<f64>::is_annihilator(0.0));
        assert!(!PlusTimes::<f64>::is_annihilator(1.0));
    }

    #[test]
    fn int_plus_times_saturates_at_boundary() {
        // Regression: symbolic nnz accumulation must pin at the max, not
        // wrap. The old Scalar impls used wrapping_add/wrapping_mul.
        assert_eq!(PlusTimes::<u32>::add(u32::MAX, 1), u32::MAX);
        assert_eq!(PlusTimes::<u32>::add(u32::MAX - 1, 1), u32::MAX);
        assert_eq!(PlusTimes::<u32>::mul(u32::MAX, 2), u32::MAX);
        assert_eq!(PlusTimes::<u64>::add(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(PlusTimes::<i64>::mul(i64::MAX, 2), i64::MAX);
        // Ordinary values are unaffected.
        assert_eq!(PlusTimes::<u64>::mul(2, 3), 6);
        assert_eq!(PlusTimes::<u32>::add(40, 2), 42);
    }

    #[test]
    fn min_plus_laws() {
        assert_eq!(MinPlus::add(3.0, 5.0), 3.0);
        assert_eq!(MinPlus::mul(3.0, 5.0), 8.0);
        // ZERO is the identity of add and the annihilator of mul.
        assert_eq!(MinPlus::add(MinPlus::ZERO, 7.0), 7.0);
        assert_eq!(MinPlus::mul(MinPlus::ZERO, 7.0), MinPlus::ZERO);
        assert_eq!(MinPlus::mul(7.0, MinPlus::ZERO), MinPlus::ZERO);
        // ONE is the identity of mul.
        assert_eq!(MinPlus::mul(MinPlus::ONE, 7.0), 7.0);
        // The NaN trap the annihilator guard exists for.
        assert_eq!(
            MinPlus::mul(MinPlus::ZERO, f64::NEG_INFINITY),
            MinPlus::ZERO
        );
        assert!(MinPlus::is_annihilator(f64::INFINITY));
        assert!(!MinPlus::is_annihilator(0.0));
    }

    #[test]
    fn max_min_laws() {
        assert_eq!(MaxMin::add(3.0, 5.0), 5.0);
        assert_eq!(MaxMin::mul(3.0, 5.0), 3.0);
        assert_eq!(MaxMin::add(MaxMin::ZERO, 7.0), 7.0);
        assert_eq!(MaxMin::mul(MaxMin::ZERO, 7.0), MaxMin::ZERO);
        assert_eq!(MaxMin::mul(MaxMin::ONE, 7.0), 7.0);
    }

    #[test]
    fn boolean_laws() {
        assert!(Boolean::add(true, false));
        assert!(!Boolean::add(false, false));
        assert!(Boolean::mul(true, true));
        assert!(!Boolean::mul(true, false));
        assert!(Boolean::is_annihilator(false));
        assert!(!Boolean::is_annihilator(true));
    }

    #[test]
    fn to_f64_roundtrips_small_values() {
        assert_eq!(42u32.to_f64(), 42.0);
        assert_eq!((-7i64).to_f64(), -7.0);
        assert_eq!(true.to_f64(), 1.0);
        assert_eq!(false.to_f64(), 0.0);
    }
}
