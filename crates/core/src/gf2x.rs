//! Carryless 64×64-bit GF(2) multiplication and Barrett modular
//! reduction — the arithmetic under the bitsliced block kernels
//! ([`crate::bitslice`]).
//!
//! Follows the crckit engine pattern: an x86_64 `pclmulqdq` kernel
//! selected by runtime feature detection, a portable shift-XOR soft
//! multiply with bit-identical output, and an environment override
//! (`CRC_HD_FORCE_GF2=soft`) so CI can pin the no-CLMUL path on any
//! host. The dispatch decision is made once per process and cached.
//!
//! [`Gf2Mod`] wraps the multiply into reduction modulo a generator via
//! Barrett's method: with `μ = ⌊x^{2w} / G⌋` precomputed by one long
//! division, `a·b mod G` costs three carryless multiplies and no
//! per-bit loop — exactly what the block extension needs to advance a
//! 64-position anchor in one step.

use std::sync::OnceLock;

/// Whether multiplies dispatch to the hardware CLMUL kernel (decided
/// once; `CRC_HD_FORCE_GF2=soft` forces the portable path).
///
/// # Panics
///
/// Panics if `CRC_HD_FORCE_GF2` is set to a non-empty value other than
/// `soft`: a typo must not silently run the hardware multiply.
pub fn clmul_active() -> bool {
    static ACTIVE: OnceLock<bool> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if let Some(forced) = std::env::var_os("CRC_HD_FORCE_GF2").filter(|v| !v.is_empty()) {
            assert!(
                forced == "soft",
                "CRC_HD_FORCE_GF2={forced:?} is not a GF(2) multiply override (accepted: soft)"
            );
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            return std::is_x86_feature_detected!("pclmulqdq");
        }
        #[allow(unreachable_code)]
        false
    })
}

/// Carryless (GF(2)\[x\]) product of two 64-bit polynomials, full
/// 127-bit result.
#[inline]
pub fn mul64(a: u64, b: u64) -> u128 {
    #[cfg(target_arch = "x86_64")]
    if clmul_active() {
        return x86::mul64_detected(a, b);
    }
    mul64_soft(a, b)
}

/// Portable carryless multiply: one shift-XOR per set bit of `b`.
#[inline]
pub fn mul64_soft(a: u64, mut b: u64) -> u128 {
    let wide = a as u128;
    let mut acc = 0u128;
    while b != 0 {
        acc ^= wide << b.trailing_zeros();
        b &= b - 1;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    // The single unsafe island of this crate (crate root is
    // `deny(unsafe_code)`): two intrinsics behind a runtime feature
    // check, no pointers, no aliasing.
    #![allow(unsafe_code)]

    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_srli_si128,
    };

    #[inline]
    pub(super) fn mul64_detected(a: u64, b: u64) -> u128 {
        // SAFETY: only reached after `clmul_active()` observed
        // `is_x86_feature_detected!("pclmulqdq")`.
        unsafe { mul64_clmul(a, b) }
    }

    // sse2-only extraction (`_mm_srli_si128` + `_mm_cvtsi128_si64`)
    // rather than `_mm_extract_epi64`, which would demand sse4.1.
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    unsafe fn mul64_clmul(a: u64, b: u64) -> u128 {
        let va = _mm_set_epi64x(0, a as i64);
        let vb = _mm_set_epi64x(0, b as i64);
        let prod: __m128i = _mm_clmulepi64_si128::<0x00>(va, vb);
        let lo = _mm_cvtsi128_si64(prod) as u64;
        let hi = _mm_cvtsi128_si64(_mm_srli_si128::<8>(prod)) as u64;
        ((hi as u128) << 64) | lo as u128
    }
}

/// Reduction context modulo one generator `G` of width ≤ 32: Barrett
/// constant `μ = ⌊x^{2w} / G⌋` (fits 33 bits ≤ `u64` at these widths),
/// so `mulmod` is multiply → two more multiplies → mask, with no
/// per-bit division loop.
#[derive(Debug, Clone)]
pub struct Gf2Mod {
    width: u32,
    /// `G` with its implicit top bit made explicit (degree-`width`).
    g_full: u64,
    /// `⌊x^{2·width} / G⌋`, degree `width`.
    mu: u64,
}

impl Gf2Mod {
    /// Context for the width-`width` generator with normal form
    /// `normal` (the low `width` bits of `G`).
    pub fn new(width: u32, normal: u64) -> Gf2Mod {
        debug_assert!((3..=32).contains(&width));
        let g_full = (1u64 << width) | normal;
        // Long-divide x^{2w} by G over GF(2): standard schoolbook, 2w+1
        // bit dividend, runs once per binding.
        let mut rem = 1u128 << (2 * width);
        let mut mu = 0u64;
        let gdeg = width;
        while rem.leading_zeros() <= 127 - gdeg {
            let shift = (127 - rem.leading_zeros()) - gdeg;
            mu |= 1u64 << shift;
            rem ^= (g_full as u128) << shift;
        }
        Gf2Mod { width, g_full, mu }
    }

    /// The generator's width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// `a·b mod G` for `a, b` in the value space (`< 2^width`).
    #[inline]
    pub fn mulmod(&self, a: u64, b: u64) -> u64 {
        let c = mul64(a, b);
        // Barrett: q ≈ ⌊c / G⌋ from the high half; one correction-free
        // step suffices because deg(c) < 2w and deg(μ) = w.
        let q = mul64((c >> self.width) as u64, self.mu) >> self.width;
        let r = c ^ mul64(q as u64, self.g_full);
        debug_assert!(r < (1u128 << self.width), "Barrett residue in range");
        r as u64
    }

    /// `x^e mod G` by square-and-multiply.
    pub fn x_pow(&self, e: u64) -> u64 {
        let mut base = 2u64; // x itself (width ≥ 3, so x is reduced)
        let mut acc = 1u64;
        let mut e = e;
        while e != 0 {
            if e & 1 != 0 {
                acc = self.mulmod(acc, base);
            }
            base = self.mulmod(base, base);
            e >>= 1;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genpoly::GenPoly;
    use crate::syndrome::syndrome_at;

    #[test]
    fn soft_mul_matches_naive_definition() {
        // Exhaustive over small operands against the textbook double loop.
        for a in 0u64..64 {
            for b in 0u64..64 {
                let mut want = 0u128;
                for i in 0..6 {
                    for j in 0..6 {
                        if a >> i & 1 != 0 && b >> j & 1 != 0 {
                            want ^= 1u128 << (i + j);
                        }
                    }
                }
                assert_eq!(mul64_soft(a, b), want, "{a} x {b}");
            }
        }
    }

    #[test]
    fn dispatched_mul_matches_soft() {
        // Splitmix-style mixing gives deterministic "random" operands.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..2000 {
            let (a, b) = (next(), next());
            assert_eq!(mul64(a, b), mul64_soft(a, b), "{a:#x} x {b:#x}");
        }
        assert_eq!(mul64(u64::MAX, u64::MAX), mul64_soft(u64::MAX, u64::MAX));
    }

    #[test]
    fn barrett_mulmod_matches_modring_oracle() {
        for (width, koopman) in [
            (8u32, 0x83u64),
            (17, 0x1685B),
            (29, 0x1800_5B41),
            (32, 0x82608EDB),
        ] {
            let g = GenPoly::from_koopman(width, koopman).unwrap();
            let ctx = Gf2Mod::new(width, g.normal());
            let oracle = gf2poly::ModCtx::new(g.to_poly()).unwrap();
            let mut v = 1u64;
            for step in 0..500u64 {
                let w = ctx.x_pow(step.wrapping_mul(0x9E37) % 100_000);
                let want = oracle
                    .mul(
                        gf2poly::Poly::from_mask(v as u128),
                        gf2poly::Poly::from_mask(w as u128),
                    )
                    .mask() as u64;
                v = ctx.mulmod(v, w);
                assert_eq!(v, want, "width {width} step {step}");
            }
        }
    }

    #[test]
    fn x_pow_matches_syndrome_at() {
        let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
        let ctx = Gf2Mod::new(32, g.normal());
        for e in [0u64, 1, 31, 32, 64, 127, 128, 12_112, 1 << 20] {
            assert_eq!(ctx.x_pow(e), syndrome_at(&g, e), "e={e}");
        }
    }

    #[test]
    fn gf2_override_env_var_is_honored_or_fails_loudly() {
        // The dispatch decision is process-global and cached, so each
        // value runs in a child: this same test binary running the hidden
        // `gf2_override_child` check.
        let exe = std::env::current_exe().expect("test binary path");
        let child = |value: &str| {
            std::process::Command::new(&exe)
                .args([
                    "gf2x::tests::gf2_override_child",
                    "--exact",
                    "--nocapture",
                    "--include-ignored",
                ])
                .env("CRC_HD_FORCE_GF2", value)
                .env("CRC_HD_GF2_CHILD", "1")
                .output()
                .expect("spawn child test")
        };
        let out = child("soft");
        assert!(
            out.status.success(),
            "soft must force the portable multiply: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        for typo in ["Soft", "sotf", "hard"] {
            let out = child(typo);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{typo:?} must not be accepted");
            assert!(
                stderr.contains("CRC_HD_FORCE_GF2")
                    && stderr.contains(&format!("{typo:?}"))
                    && stderr.contains("accepted: soft"),
                "{typo:?}: the panic must name the variable, the value and `soft`:\n{stderr}"
            );
        }
    }

    /// Child half of `gf2_override_env_var_is_honored_or_fails_loudly`;
    /// ignored unless that test spawns it.
    #[test]
    #[ignore = "runs only as a child of gf2_override_env_var_is_honored_or_fails_loudly"]
    fn gf2_override_child() {
        if std::env::var_os("CRC_HD_GF2_CHILD").is_none() {
            return;
        }
        assert!(
            !clmul_active(),
            "CRC_HD_FORCE_GF2=soft selects the soft path"
        );
        assert_eq!(mul64(0b1011, 0b110), mul64_soft(0b1011, 0b110));
    }
}
