//! Multiplicative order of `x` in GF(2)\[x\]/(f) — algebraically, via the
//! factorization of `f` and of the group orders `2^d − 1`.
//!
//! The order `e` is the smallest positive exponent with `x^e ≡ 1 (mod f)`,
//! equivalently the degree of the smallest weight-2 multiple `x^e + 1` of
//! `f`. In CRC terms (Koopman §3/Table 1): a 2-bit error becomes
//! undetectable exactly when the codeword is long enough to contain
//! `x^e + 1`, i.e. at data-word length `e − (r − 1)` for an `r`-bit CRC.
//! This module therefore pins the `HD=2` column of Table 1 exactly.

use crate::factor::factor;
use crate::int::{factor_u64, lcm_u128};
use crate::modring::ModCtx;
use crate::poly::Poly;
use crate::{Error, Result};

/// Multiplicative order of `x` modulo an irreducible `p` of degree `d ≤ 64`:
/// the smallest divisor `e` of `2^d − 1` with `x^e ≡ 1`.
///
/// # Errors
///
/// [`Error::ZeroPolynomial`] for constants, [`Error::DegreeOverflow`] for
/// degree > 64.
pub fn order_of_x_irreducible(p: Poly) -> Result<u64> {
    let d = match p.degree() {
        None | Some(0) => return Err(Error::ZeroPolynomial),
        Some(d) => d,
    };
    if d > 64 {
        return Err(Error::DegreeOverflow);
    }
    if p == Poly::X {
        return Err(Error::DivisibleByX);
    }
    if p == Poly::X_PLUS_1 {
        return Ok(1);
    }
    let ctx = ModCtx::new(p)?;
    let group = u64::MAX >> (64 - d);
    debug_assert_eq!(
        ctx.x_pow(group),
        Poly::ONE,
        "x^(2^d-1) must be 1 mod irreducible"
    );
    let mut e = group;
    for (q, mult) in factor_u64(group) {
        for _ in 0..mult {
            if e.is_multiple_of(q) && ctx.x_pow(e / q) == Poly::ONE {
                e /= q;
            } else {
                break;
            }
        }
    }
    Ok(e)
}

/// Multiplicative order of `x` modulo an arbitrary `f` with `f(0) = 1`.
///
/// For `f = Π pᵢ^mᵢ` the order is `lcmᵢ(ord(pᵢ)) · 2^⌈log₂ max mᵢ⌉`
/// (the characteristic-2 correction for repeated factors).
///
/// ```
/// use gf2poly::{order_of_x, Poly};
/// // 0xBA0DC66B (full form): order 114,695 ⇒ 2-bit errors first
/// // undetectable at data length 114,695 − 31 = 114,664 — matching the
/// // paper's Table 1 "HD=2 at 114664+" entry.
/// let g = Poly::from_mask(0x1_741B_8CD7);
/// assert_eq!(order_of_x(g).unwrap(), 114_695);
/// ```
///
/// # Errors
///
/// [`Error::DivisibleByX`] if the constant term is zero (then `x^e ≡ 1` is
/// impossible), [`Error::ZeroPolynomial`] for constants.
pub fn order_of_x(f: Poly) -> Result<u128> {
    match f.degree() {
        None | Some(0) => return Err(Error::ZeroPolynomial),
        Some(_) => {}
    }
    if !f.has_constant_term() {
        return Err(Error::DivisibleByX);
    }
    let fac = factor(f);
    let mut l: u128 = 1;
    let mut max_mult = 1u32;
    for &(p, m) in fac.factors() {
        let e = order_of_x_irreducible(p)?;
        l = lcm_u128(l, e as u128);
        max_mult = max_mult.max(m);
    }
    // Smallest power of two ≥ max multiplicity.
    let pow2 = max_mult.next_power_of_two() as u128;
    Ok(l * pow2)
}

/// Order computed by brute-force iteration of the registered LFSR —
/// a slow reference used for cross-validation in tests and experiments.
///
/// Returns `None` if the order exceeds `cap`.
pub fn order_of_x_by_scan(f: Poly, cap: u64) -> Result<Option<u64>> {
    match f.degree() {
        None | Some(0) => return Err(Error::ZeroPolynomial),
        Some(_) => {}
    }
    if !f.has_constant_term() {
        return Err(Error::DivisibleByX);
    }
    let ctx = ModCtx::new(f)?;
    // Invariant: acc = x^e mod f at the top of iteration e.
    let mut acc = ctx.reduce(Poly::X);
    for e in 1..=cap {
        if acc == Poly::ONE {
            return Ok(Some(e));
        }
        acc = ctx.mul(acc, Poly::X);
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_of_small_irreducibles() {
        // x^3+x+1 primitive: order 7. x^4+x^3+x^2+x+1: order 5.
        assert_eq!(order_of_x_irreducible(Poly::from_mask(0b1011)).unwrap(), 7);
        assert_eq!(order_of_x_irreducible(Poly::from_mask(0b11111)).unwrap(), 5);
        assert_eq!(order_of_x_irreducible(Poly::X_PLUS_1).unwrap(), 1);
        assert!(order_of_x_irreducible(Poly::X).is_err());
    }

    #[test]
    fn degree_64_irreducible_has_an_order() {
        // x^64 + x^4 + x^3 + x + 1 is primitive: order 2^64 − 1, the
        // largest group a 64-bit CRC generator can have.
        let p = Poly::from_exponents(&[64, 4, 3, 1, 0]);
        assert_eq!(order_of_x_irreducible(p).unwrap(), u64::MAX);
        assert_eq!(order_of_x(p).unwrap(), u64::MAX as u128);
        let too_wide = Poly::from_exponents(&[65, 1, 0]);
        assert_eq!(order_of_x_irreducible(too_wide), Err(Error::DegreeOverflow));
    }

    #[test]
    fn composite_order_with_repeated_factors() {
        // (x+1)^2: order = 1 * 2 = 2 (x^2 + 1 = (x+1)^2).
        let f = Poly::from_mask(0b101);
        assert_eq!(order_of_x(f).unwrap(), 2);
        // (x+1)^3: multiplicity 3 → ×4 → order 4 (x^4+1 = (x+1)^4, but
        // (x+1)^3 | x^4+1 and not x^2+1): verify.
        let f3 = Poly::X_PLUS_1 * Poly::X_PLUS_1 * Poly::X_PLUS_1;
        assert_eq!(order_of_x(f3).unwrap(), 4);
        // (x+1)(x^3+x+1): lcm(1,7) = 7.
        let f = Poly::X_PLUS_1 * Poly::from_mask(0b1011);
        assert_eq!(order_of_x(f).unwrap(), 7);
    }

    #[test]
    fn order_rejects_x_divisible() {
        assert_eq!(order_of_x(Poly::X), Err(Error::DivisibleByX));
        assert_eq!(order_of_x(Poly::from_mask(0b110)), Err(Error::DivisibleByX));
    }

    #[test]
    fn paper_table1_hd2_onsets() {
        // Table 1's HD=2 column: first 2-bit-undetectable data length is
        // order − 31 for each 32-bit polynomial.
        let cases: [(u64, u128); 5] = [
            (0xBA0DC66B, 114_695), // HD=2 at 114664+
            (0xFA567D89, 65_534),  // HD=2 at 65503+
            (0x992C1A4C, 65_538),  // HD=2 at 65507+
            (0x90022004, 65_538),  // HD=2 at 65507+
            (0xD419CC15, 65_537),  // HD=2 at 65506+
        ];
        for (k, order) in cases {
            let full = Poly::from_mask(((k as u128) << 1 | 1) | (1 << 32));
            assert_eq!(order_of_x(full).unwrap(), order, "poly {k:#010X}");
        }
    }

    #[test]
    fn low_tap_hd5_poly_order() {
        // 0x80108400 {32}: order 65537 ⇒ HD=2 at 65506+ like 0xD419CC15.
        let full = Poly::from_mask((0x80108400u128 << 1 | 1) | (1 << 32));
        assert_eq!(order_of_x(full).unwrap(), 65_537);
    }

    #[test]
    fn iscsi_poly_order_is_mersenne_prime() {
        // 0x8F6E37A0 {1,31}: primitive degree-31 factor ⇒ order 2^31 − 1,
        // which is why its HD=4 span runs far past the 128 Kbit horizon.
        let full = Poly::from_mask((0x8F6E37A0u128 << 1 | 1) | (1 << 32));
        assert_eq!(order_of_x(full).unwrap(), 2_147_483_647);
    }

    #[test]
    fn scan_agrees_with_algebraic_order() {
        for mask in [0b1011u128, 0b111, 0b101, 0b11111, 0b100101, 0b1100111] {
            let f = Poly::from_mask(mask);
            if !f.has_constant_term() {
                continue;
            }
            let fast = order_of_x(f).unwrap();
            let slow = order_of_x_by_scan(f, 100_000).unwrap();
            assert_eq!(slow, Some(fast as u64), "mask {mask:#b}");
        }
    }

    #[test]
    fn scan_respects_cap() {
        let f = Poly::from_mask((0x8F6E37A0u128 << 1 | 1) | (1 << 32));
        assert_eq!(order_of_x_by_scan(f, 1000).unwrap(), None);
    }
}
