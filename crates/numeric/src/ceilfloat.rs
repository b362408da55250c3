//! The paper's compact floating-point arithmetic (Section VI).
//!
//! Shortest-path counts `σ_st` can be exponential in `N` (the "Large Value
//! Challenge"), so they cannot be shipped verbatim in `O(log N)`-bit CONGEST
//! messages. The paper represents every transmitted value as `y · 2^x` with
//! an `L = O(log N)`-bit mantissa, rounding *up* (ceiling) so that estimates
//! are one-sided, and proves (Lemma 1) the relative error of a single
//! rounding is at most `2^{-L+1}`, and (Theorem 1 / Corollary 1) the final
//! betweenness values have relative error `O(2^{-L}) = O(N^{-c})`.
//!
//! [`CeilFloat`] implements exactly that number system: positive values with
//! a normalized `L`-bit mantissa, a configurable rounding mode
//! ([`Rounding::Ceil`] as in the paper, [`Rounding::Nearest`] for the
//! ablation of experiment E10b), and a fixed-width wire encoding of
//! `L + 16` bits.

use crate::{BigRational, BigUint};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul};

/// Bits used for the (biased) exponent field in the wire encoding.
const EXP_FIELD_BITS: u32 = 16;
/// Exponent bias for the wire encoding.
const EXP_BIAS: i32 = 1 << 15;
/// Exponent saturation bound: exactly the range the 16-bit wire field
/// holds (`±EXP_LIMIT + EXP_BIAS` lies in `1..2^16`), and far beyond any
/// σ-count a laptop-scale run reaches (σ ≤ 2^N). Arithmetic runs in `i32`
/// and saturates here before the exponent is stored as an `i16`.
const EXP_LIMIT: i32 = i16::MAX as i32;

/// Rounding mode for [`CeilFloat`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rounding {
    /// Round magnitudes up, as in the paper (one-sided estimates: `σ̂ ≥ σ`).
    #[default]
    Ceil,
    /// Round to nearest (half-up). Used by the rounding ablation (E10b).
    Nearest,
}

/// Parameters of the number system: mantissa width and rounding mode.
///
/// # Examples
///
/// ```
/// use bc_numeric::{FpParams, Rounding};
///
/// let params = FpParams::new(12, Rounding::Ceil);
/// assert_eq!(params.mantissa_bits(), 12);
/// assert_eq!(params.encoded_bits(), 28); // L + 16-bit exponent field
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FpParams {
    l: u8,
    rounding: Rounding,
}

impl FpParams {
    /// Creates parameters with mantissa width `l` (in `1..=31`).
    ///
    /// # Panics
    ///
    /// Panics if `l` is outside `1..=31`.
    pub fn new(l: u32, rounding: Rounding) -> Self {
        assert!(
            (1..=31).contains(&l),
            "mantissa bits must be in 1..=31, got {l}"
        );
        FpParams {
            l: l as u8,
            rounding,
        }
    }

    /// Parameters matching the paper: `L = max(8, 2⌈log₂ N⌉)` mantissa bits
    /// with ceiling rounding, which yields relative error `O(N^{-2})`
    /// per Corollary 1.
    pub fn for_graph_size(n: usize) -> Self {
        let log = usize::BITS - n.max(2).leading_zeros(); // ⌈log2(n)⌉ for n ≥ 2
        FpParams::new((2 * log).clamp(8, 31), Rounding::Ceil)
    }

    /// Mantissa width `L`.
    pub fn mantissa_bits(&self) -> u32 {
        self.l as u32
    }

    /// Rounding mode.
    pub fn rounding(&self) -> Rounding {
        self.rounding
    }

    /// Width of the wire encoding in bits (`L` mantissa + 16 exponent).
    ///
    /// This is the `2L = O(log N)` bits of the paper's Section VI-A with the
    /// exponent field fixed at 16 bits for simplicity; it is still
    /// `Θ(log N)` when `L = Θ(log N)`.
    pub fn encoded_bits(&self) -> u32 {
        self.l as u32 + EXP_FIELD_BITS
    }

    /// The one-rounding relative error bound of Lemma 1: `2^{-L+1}`.
    pub fn lemma1_bound(&self) -> f64 {
        (1.0 - self.l as f64).exp2()
    }
}

impl Default for FpParams {
    fn default() -> Self {
        FpParams::new(16, Rounding::Ceil)
    }
}

/// A non-negative floating-point value `mant · 2^exp` with an `L`-bit
/// normalized mantissa (`2^{L-1} ≤ mant < 2^L`, or `mant = 0` for zero).
///
/// All arithmetic rounds according to the value's [`FpParams`]; with
/// [`Rounding::Ceil`] every operation returns an upper bound on the exact
/// result, which is the invariant the paper's error analysis relies on.
///
/// # Examples
///
/// ```
/// use bc_numeric::{CeilFloat, FpParams, Rounding};
///
/// let p = FpParams::new(8, Rounding::Ceil);
/// let thousand = CeilFloat::from_u64(1000, p);
/// // With an 8-bit mantissa 1000 = 0b1111101000 rounds up to 1004.
/// assert!(thousand.to_f64() >= 1000.0);
/// assert!(thousand.to_f64() / 1000.0 - 1.0 <= p.lemma1_bound());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CeilFloat {
    mant: u32,
    /// Saturated at `±EXP_LIMIT`; 8 bytes in all with the mantissa and
    /// the 2-byte parameters, since every node stores two per source.
    exp: i16,
    params: FpParams,
}

const _: () = assert!(std::mem::size_of::<CeilFloat>() == 8);

impl CeilFloat {
    /// The value zero.
    pub fn zero(params: FpParams) -> Self {
        CeilFloat {
            mant: 0,
            exp: 0,
            params,
        }
    }

    /// The value one (exactly representable for every `L`).
    pub fn one(params: FpParams) -> Self {
        CeilFloat::from_u64(1, params)
    }

    /// Converts an integer, rounding per the parameters.
    pub fn from_u64(v: u64, params: FpParams) -> Self {
        normalize(v as u128, 0, false, params)
    }

    /// Converts an exact big integer, rounding per the parameters.
    pub fn from_biguint(v: &BigUint, params: FpParams) -> Self {
        let bits = v.bit_len();
        if bits == 0 {
            return CeilFloat::zero(params);
        }
        if bits <= 64 {
            return CeilFloat::from_u64(v.to_u64().expect("fits"), params);
        }
        // Keep the top 64 bits, track dropped bits as sticky.
        let shift = bits - 64;
        let top = v.shr_bits(shift).to_u64().expect("top 64 bits fit");
        let sticky = (0..shift).any(|i| v.bit(i));
        normalize(top as u128, shift as i32, sticky, params)
    }

    /// Returns the parameters this value was built with.
    pub fn params(&self) -> FpParams {
        self.params
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.mant == 0
    }

    /// Lossy conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        self.mant as f64 * (self.exp as f64).exp2()
    }

    /// Exact conversion to a rational number (`mant · 2^exp` exactly).
    pub fn to_rational(&self) -> BigRational {
        if self.mant == 0 {
            return BigRational::zero();
        }
        let m = BigUint::from(self.mant as u64);
        if self.exp >= 0 {
            BigRational::from_biguint(m.shl_bits(self.exp as usize))
        } else {
            BigRational::from_ratio(m, BigUint::one().shl_bits(-(self.exp as i32) as usize))
        }
    }

    /// The reciprocal `1/self`, rounded per the parameters.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> CeilFloat {
        assert!(self.mant != 0, "reciprocal of zero CeilFloat");
        // 1/(m·2^e) = (2^64/m) · 2^{-64-e}; m < 2^31 so 2^64/m > 2^33 has
        // ample precision for any L ≤ 31.
        let num = 1u128 << 64;
        let q = num / self.mant as u128;
        let r = num % self.mant as u128;
        normalize(q, -64 - self.exp as i32, r != 0, self.params)
    }

    fn add_impl(&self, rhs: &CeilFloat) -> CeilFloat {
        assert_eq!(
            self.params, rhs.params,
            "CeilFloat operands built with different FpParams"
        );
        if self.mant == 0 {
            return *rhs;
        }
        if rhs.mant == 0 {
            return *self;
        }
        let (hi, lo) = if self.exp >= rhs.exp {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let diff = (hi.exp as i32 - lo.exp as i32) as u32;
        if diff <= 32 {
            // Both mantissas are below 2^31, so the aligned sum is below
            // 2^63 + 2^31 and fits a `u64`: the common case of σ and ψ
            // sums, normalized without 128-bit arithmetic.
            let sum = ((hi.mant as u64) << diff) + lo.mant as u64;
            return normalize_u64(sum, lo.exp as i32, self.params);
        }
        if diff > 90 {
            // lo is far below one ulp of hi: representable sum equals hi,
            // but ceiling rounding must still round up.
            return match self.params.rounding {
                Rounding::Ceil => normalize(hi.mant as u128 + 1, hi.exp as i32, false, self.params),
                Rounding::Nearest => *hi,
            };
        }
        let sum = ((hi.mant as u128) << diff) + lo.mant as u128;
        normalize(sum, lo.exp as i32, false, self.params)
    }

    fn mul_impl(&self, rhs: &CeilFloat) -> CeilFloat {
        assert_eq!(
            self.params, rhs.params,
            "CeilFloat operands built with different FpParams"
        );
        if self.mant == 0 || rhs.mant == 0 {
            return CeilFloat::zero(self.params);
        }
        let prod = self.mant as u128 * rhs.mant as u128;
        normalize(prod, self.exp as i32 + rhs.exp as i32, false, self.params)
    }

    fn div_impl(&self, rhs: &CeilFloat) -> CeilFloat {
        assert_eq!(
            self.params, rhs.params,
            "CeilFloat operands built with different FpParams"
        );
        assert!(rhs.mant != 0, "division by zero CeilFloat");
        if self.mant == 0 {
            return CeilFloat::zero(self.params);
        }
        let num = (self.mant as u128) << 64;
        let q = num / rhs.mant as u128;
        let r = num % rhs.mant as u128;
        normalize(
            q,
            self.exp as i32 - 64 - rhs.exp as i32,
            r != 0,
            self.params,
        )
    }

    /// Encodes to the `L + 16`-bit wire format, returned in the low bits of
    /// a `u64`. See [`FpParams::encoded_bits`].
    pub fn encode(&self) -> u64 {
        if self.mant == 0 {
            return 0;
        }
        // `|exp| ≤ EXP_LIMIT`, so the biased field is in `1..2^16`.
        let biased = (self.exp as i32 + EXP_BIAS) as u64;
        ((self.mant as u64) << EXP_FIELD_BITS) | biased
    }

    /// Decodes a value previously produced by [`CeilFloat::encode`] with the
    /// same parameters.
    pub fn decode(bits: u64, params: FpParams) -> CeilFloat {
        if bits == 0 {
            return CeilFloat::zero(params);
        }
        let mant = (bits >> EXP_FIELD_BITS) as u32;
        let exp = (bits & ((1 << EXP_FIELD_BITS) - 1)) as i32 - EXP_BIAS;
        debug_assert!(mant >= 1 << (params.l - 1) && mant < 1 << params.l);
        CeilFloat {
            mant,
            exp: exp as i16,
            params,
        }
    }

    /// Checked variant of [`CeilFloat::decode`] for untrusted wire data:
    /// `None` when `bits` is not a value [`CeilFloat::encode`] can produce
    /// (denormal mantissa or zero exponent field on a nonzero value).
    pub fn try_decode(bits: u64, params: FpParams) -> Option<CeilFloat> {
        if bits == 0 {
            return Some(CeilFloat::zero(params));
        }
        let mant = (bits >> EXP_FIELD_BITS) as u32;
        let biased = bits & ((1 << EXP_FIELD_BITS) - 1);
        if biased == 0 || mant < 1 << (params.l - 1) || mant >= 1 << params.l {
            return None;
        }
        Some(CeilFloat {
            mant,
            exp: (biased as i32 - EXP_BIAS) as i16,
            params,
        })
    }
}

/// Normalizes `m · 2^exp` to an `L`-bit mantissa, applying the rounding mode.
/// `sticky` records whether bits below `m` were already dropped.
fn normalize(mut m: u128, mut exp: i32, mut sticky: bool, params: FpParams) -> CeilFloat {
    let l = params.l as u32;
    if m == 0 {
        // Only exact zeros flow through here in practice; a sticky-only
        // residue below the representable range still rounds up under Ceil.
        if sticky && params.rounding == Rounding::Ceil {
            m = 1;
        } else {
            return CeilFloat::zero(params);
        }
    }
    let bits = 128 - m.leading_zeros();
    let mut dropped_top_bit = false;
    if bits > l {
        let shift = bits - l;
        let dropped = m & ((1u128 << shift) - 1);
        dropped_top_bit = (dropped >> (shift - 1)) & 1 == 1;
        sticky |= dropped != 0;
        m >>= shift;
        exp += shift as i32;
        let round_up = match params.rounding {
            Rounding::Ceil => sticky,
            Rounding::Nearest => dropped_top_bit,
        };
        if round_up {
            m += 1;
            if m == 1u128 << l {
                m >>= 1;
                exp += 1;
            }
        }
    } else if bits < l {
        let shift = l - bits;
        m <<= shift;
        exp -= shift as i32;
        // A sticky residue below an exact value still forces a round-up
        // under Ceil (the residue is smaller than one ulp).
        if sticky && params.rounding == Rounding::Ceil {
            m += 1;
            if m == 1u128 << l {
                m >>= 1;
                exp += 1;
            }
        }
    } else if sticky {
        match params.rounding {
            Rounding::Ceil => {
                m += 1;
                if m == 1u128 << l {
                    m >>= 1;
                    exp += 1;
                }
            }
            Rounding::Nearest => {
                // Residue strictly below half an ulp unless the top dropped
                // bit said otherwise, which was handled above.
                let _ = dropped_top_bit;
            }
        }
    }
    CeilFloat {
        mant: m as u32,
        exp: exp.clamp(-EXP_LIMIT, EXP_LIMIT) as i16,
        params,
    }
}

/// [`normalize`] for a nonzero `u64` mantissa with no sticky residue —
/// the shape of every sum [`CeilFloat`] addition forms when the exponents
/// are at most 32 apart. Bit-identical to `normalize(m as u128, exp,
/// false, params)`.
fn normalize_u64(mut m: u64, mut exp: i32, params: FpParams) -> CeilFloat {
    debug_assert!(m != 0);
    let l = params.l as u32;
    let bits = 64 - m.leading_zeros();
    if bits > l {
        let shift = bits - l;
        let dropped = m & ((1u64 << shift) - 1);
        m >>= shift;
        exp += shift as i32;
        let round_up = match params.rounding {
            Rounding::Ceil => dropped != 0,
            Rounding::Nearest => (dropped >> (shift - 1)) & 1 == 1,
        };
        if round_up {
            m += 1;
            if m == 1u64 << l {
                m >>= 1;
                exp += 1;
            }
        }
    } else if bits < l {
        let shift = l - bits;
        m <<= shift;
        exp -= shift as i32;
    }
    CeilFloat {
        mant: m as u32,
        exp: exp.clamp(-EXP_LIMIT, EXP_LIMIT) as i16,
        params,
    }
}

impl fmt::Debug for CeilFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CeilFloat({} = {}·2^{}, L={})",
            self.to_f64(),
            self.mant,
            self.exp,
            self.params.l
        )
    }
}

impl fmt::Display for CeilFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl PartialOrd for CeilFloat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CeilFloat {
    /// Compares values (not representations); both operands must share
    /// parameters for the comparison to be meaningful, but since mantissas
    /// are normalized the (exp, mant) lexicographic order is the value order
    /// even across parameter sets of equal `L`.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.mant == 0, other.mant == 0) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => (self.exp, self.mant).cmp(&(other.exp, other.mant)),
        }
    }
}

impl Add for CeilFloat {
    type Output = CeilFloat;
    fn add(self, rhs: CeilFloat) -> CeilFloat {
        self.add_impl(&rhs)
    }
}

impl AddAssign for CeilFloat {
    fn add_assign(&mut self, rhs: CeilFloat) {
        *self = self.add_impl(&rhs);
    }
}

impl Mul for CeilFloat {
    type Output = CeilFloat;
    fn mul(self, rhs: CeilFloat) -> CeilFloat {
        self.mul_impl(&rhs)
    }
}

impl Div for CeilFloat {
    type Output = CeilFloat;
    fn div(self, rhs: CeilFloat) -> CeilFloat {
        self.div_impl(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The addition as it was before the `u64` fast path: every exponent
    /// gap up to 90 aligned in `u128`. The oracle for `add_impl`.
    fn add_reference(a: &CeilFloat, b: &CeilFloat) -> CeilFloat {
        if a.mant == 0 {
            return *b;
        }
        if b.mant == 0 {
            return *a;
        }
        let (hi, lo) = if a.exp >= b.exp { (a, b) } else { (b, a) };
        let diff = (hi.exp as i32 - lo.exp as i32) as u32;
        if diff > 90 {
            return match a.params.rounding {
                Rounding::Ceil => normalize(hi.mant as u128 + 1, hi.exp as i32, false, a.params),
                Rounding::Nearest => *hi,
            };
        }
        let sum = ((hi.mant as u128) << diff) + lo.mant as u128;
        normalize(sum, lo.exp as i32, false, a.params)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn add_matches_the_u128_reference(
            l in 1u32..32,
            nearest in any::<bool>(),
            (ma, mb) in (any::<u32>(), any::<u32>()),
            base in -1000i32..1000,
            gap in 0i32..41,
            far in any::<bool>(),
            far_gap in 91i32..200,
            (zero_a, zero_b) in (0u8..16, 0u8..16),
            swap in any::<bool>(),
        ) {
            let params = FpParams::new(l, if nearest { Rounding::Nearest } else { Rounding::Ceil });
            // A normalized L-bit mantissa, or zero one time in sixteen.
            let mant = |m: u32, zero: u8| {
                if zero == 0 { 0 } else { (1 << (l - 1)) | (m & ((1u32 << (l - 1)) - 1)) }
            };
            let gap = if far { far_gap } else { gap };
            let a = CeilFloat { mant: mant(ma, zero_a), exp: (base + gap) as i16, params };
            let b = CeilFloat { mant: mant(mb, zero_b), exp: base as i16, params };
            let (a, b) = if swap { (b, a) } else { (a, b) };
            let (a, b) = (
                if a.mant == 0 { CeilFloat::zero(params) } else { a },
                if b.mant == 0 { CeilFloat::zero(params) } else { b },
            );
            let want = add_reference(&a, &b);
            let got = a + b;
            prop_assert_eq!((got.mant, got.exp), (want.mant, want.exp), "{:?} + {:?}", a, b);
        }
    }

    fn p(l: u32) -> FpParams {
        FpParams::new(l, Rounding::Ceil)
    }

    #[test]
    fn params_validation() {
        let params = p(10);
        assert_eq!(params.mantissa_bits(), 10);
        assert_eq!(params.encoded_bits(), 26);
        assert!((params.lemma1_bound() - 2f64.powi(-9)).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "mantissa bits")]
    fn params_rejects_zero_l() {
        let _ = FpParams::new(0, Rounding::Ceil);
    }

    #[test]
    #[should_panic(expected = "mantissa bits")]
    fn params_rejects_huge_l() {
        let _ = FpParams::new(32, Rounding::Ceil);
    }

    #[test]
    fn for_graph_size_scales() {
        assert!(FpParams::for_graph_size(10).mantissa_bits() >= 8);
        assert!(
            FpParams::for_graph_size(100_000).mantissa_bits()
                > FpParams::for_graph_size(100).mantissa_bits()
        );
        // ⌈log2 1024⌉ is 11 via the bit trick (1024 needs 11 bits), fine:
        // we only require Θ(log N).
        assert_eq!(FpParams::for_graph_size(2).rounding(), Rounding::Ceil);
    }

    #[test]
    fn exact_small_integers() {
        let params = p(8);
        for v in 0..=255u64 {
            let f = CeilFloat::from_u64(v, params);
            assert_eq!(f.to_f64(), v as f64, "value {v} must be exact");
        }
    }

    #[test]
    fn ceil_is_upper_bound_lemma1() {
        let params = p(8);
        let bound = params.lemma1_bound();
        for v in 1..=100_000u64 {
            let f = CeilFloat::from_u64(v, params).to_f64();
            assert!(f >= v as f64, "ceil estimate below exact for {v}");
            assert!(
                f / v as f64 - 1.0 <= bound + 1e-12,
                "Lemma 1 violated for {v}: {f}"
            );
        }
    }

    #[test]
    fn lemma1_for_biguint() {
        let params = p(12);
        let bound = params.lemma1_bound();
        let mut v = BigUint::from(987_654_321u64);
        for _ in 0..40 {
            v = &v * &BigUint::from(1_000_003u64);
            let f = CeilFloat::from_biguint(&v, params);
            let exact = v.to_f64();
            assert!(f.to_f64() >= exact * (1.0 - 1e-12));
            assert!(f.to_f64() / exact - 1.0 <= bound + 1e-9);
        }
    }

    #[test]
    fn add_upper_bounds_exact_sum() {
        let params = p(8);
        let a = CeilFloat::from_u64(1000, params);
        let b = CeilFloat::from_u64(3, params);
        let s = a + b;
        assert!(s.to_f64() >= 1003.0);
        assert!(s.to_f64() <= 1003.0 * (1.0 + 3.0 * params.lemma1_bound()));
    }

    #[test]
    fn add_zero_identity() {
        let params = p(10);
        let a = CeilFloat::from_u64(77, params);
        let z = CeilFloat::zero(params);
        assert_eq!((a + z).to_f64(), a.to_f64());
        assert_eq!((z + a).to_f64(), a.to_f64());
        assert!((z + z).is_zero());
    }

    #[test]
    fn add_far_apart_exponents_still_rounds_up() {
        let params = p(8);
        let mut big = CeilFloat::from_u64(1 << 20, params);
        // Add a tiny value whose exponent is ~200 below.
        let tiny = CeilFloat::from_u64(1, params).recip(); // 1
        let mut t = tiny;
        for _ in 0..40 {
            t = t * CeilFloat::from_u64(1, params); // no-op, keep value
        }
        // Construct 2^-200 via repeated recip of 2^200.
        let mut huge = CeilFloat::one(params);
        let two = CeilFloat::from_u64(2, params);
        for _ in 0..200 {
            huge = huge * two;
        }
        let eps = huge.recip();
        let before = big.to_f64();
        big += eps;
        assert!(big.to_f64() > before, "ceil add must strictly round up");
    }

    #[test]
    fn nearest_add_far_apart_is_identity() {
        let params = FpParams::new(8, Rounding::Nearest);
        let big = CeilFloat::from_u64(1 << 20, params);
        let mut huge = CeilFloat::one(params);
        let two = CeilFloat::from_u64(2, params);
        for _ in 0..200 {
            huge = huge * two;
        }
        let eps = huge.recip();
        assert_eq!((big + eps).to_f64(), big.to_f64());
    }

    #[test]
    fn mul_powers_of_two_exact() {
        let params = p(8);
        let two = CeilFloat::from_u64(2, params);
        let mut v = CeilFloat::one(params);
        for i in 0..300 {
            assert_eq!(v.to_f64(), 2f64.powi(i));
            v = v * two;
        }
    }

    #[test]
    fn recip_upper_bound() {
        let params = p(12);
        for v in 1..=5000u64 {
            let f = CeilFloat::from_u64(v, params);
            let r = f.recip();
            // 1/σ̂ ≤ 1/σ (since σ̂ ≥ σ), but recip itself ceils its own
            // quotient, so r ≥ 1/f exactly and r ≤ (1+η)/v overall.
            assert!(r.to_f64() * f.to_f64() >= 1.0 - 1e-9);
            assert!(r.to_f64() <= (1.0 / v as f64) * (1.0 + 4.0 * params.lemma1_bound()));
        }
    }

    #[test]
    #[should_panic(expected = "reciprocal of zero")]
    fn recip_zero_panics() {
        let _ = CeilFloat::zero(p(8)).recip();
    }

    #[test]
    fn div_matches_mul_recip_approximately() {
        let params = p(16);
        let a = CeilFloat::from_u64(355, params);
        let b = CeilFloat::from_u64(113, params);
        let q = a / b;
        assert!((q.to_f64() - 355.0 / 113.0).abs() / (355.0 / 113.0) < 1e-3);
        assert!(q.to_f64() >= 355.0 / 113.0 * (1.0 - 1e-12));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let params = p(8);
        let _ = CeilFloat::one(params) / CeilFloat::zero(params);
    }

    #[test]
    #[should_panic(expected = "different FpParams")]
    fn mixed_params_panics() {
        let _ = CeilFloat::one(p(8)) + CeilFloat::one(p(9));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let params = p(14);
        let vals = [0u64, 1, 2, 3, 1000, 123_456_789];
        for v in vals {
            let f = CeilFloat::from_u64(v, params);
            let bits = f.encode();
            assert!(bits < 1u64 << params.encoded_bits());
            let g = CeilFloat::decode(bits, params);
            assert_eq!(f, g);
        }
        // Fractions round-trip too.
        let f = CeilFloat::from_u64(7, params).recip();
        assert_eq!(CeilFloat::decode(f.encode(), params), f);
    }

    /// The largest and smallest values the number system holds at `l`.
    fn extremes(params: FpParams) -> (CeilFloat, CeilFloat) {
        let l = params.mantissa_bits();
        let max = CeilFloat {
            mant: (1 << l) - 1,
            exp: EXP_LIMIT as i16,
            params,
        };
        let min = CeilFloat {
            mant: 1 << (l - 1),
            exp: -EXP_LIMIT as i16,
            params,
        };
        (max, min)
    }

    fn assert_roundtrips(f: CeilFloat) {
        let params = f.params();
        let bits = f.encode();
        assert!(bits < 1u64 << params.encoded_bits(), "{f:?}");
        assert_eq!(CeilFloat::decode(bits, params), f);
        assert_eq!(CeilFloat::try_decode(bits, params), Some(f));
    }

    #[test]
    fn encode_decode_roundtrip_at_the_exponent_limits() {
        for l in [1, 8, 14, 31] {
            let (max, min) = extremes(p(l));
            assert_roundtrips(max);
            assert_roundtrips(min);
        }
    }

    #[test]
    fn saturating_sums_and_products_still_roundtrip() {
        for l in [1, 8, 14, 31] {
            let (max, min) = extremes(p(l));
            let sum = max + max;
            let prod = max * max;
            assert_eq!(sum.exp as i32, EXP_LIMIT, "{sum:?}");
            assert_eq!(prod.exp as i32, EXP_LIMIT, "{prod:?}");
            assert_roundtrips(sum);
            assert_roundtrips(prod);
            let tiny = min * min;
            assert_eq!(tiny.exp as i32, -EXP_LIMIT, "{tiny:?}");
            assert_roundtrips(tiny);
        }
    }

    #[test]
    fn ordering_follows_value() {
        let params = p(10);
        let a = CeilFloat::from_u64(100, params);
        let b = CeilFloat::from_u64(200, params);
        let z = CeilFloat::zero(params);
        assert!(a < b);
        assert!(z < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        let half = CeilFloat::from_u64(2, params).recip();
        assert!(half < a);
        assert!(z < half);
    }

    #[test]
    fn to_rational_is_exact() {
        let params = p(10);
        let f = CeilFloat::from_u64(768, params); // exactly representable
        assert_eq!(f.to_rational(), BigRational::from_u64(768));
        let half = CeilFloat::from_u64(2, params).recip();
        assert_eq!(half.to_rational(), BigRational::from_ratio_u64(1, 2));
        assert!(CeilFloat::zero(params).to_rational().is_zero());
    }

    #[test]
    fn sigma_reciprocal_sum_error_stays_small() {
        // Emulates a ψ accumulation: sum of 1/σ for many σ values; relative
        // error should stay O(#ops · 2^-L).
        let params = p(20);
        let mut acc = CeilFloat::zero(params);
        let mut exact = 0.0f64;
        for sigma in 1..=2000u64 {
            acc += CeilFloat::from_u64(sigma, params).recip();
            exact += 1.0 / sigma as f64;
        }
        let rel = (acc.to_f64() - exact).abs() / exact;
        assert!(rel < 4000.0 * params.lemma1_bound(), "rel error {rel}");
    }

    #[test]
    fn debug_display_nonempty() {
        let f = CeilFloat::from_u64(5, p(8));
        assert!(!format!("{f:?}").is_empty());
        assert_eq!(format!("{f}"), "5");
    }
}
