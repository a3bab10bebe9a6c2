//! The carryless-multiply folding tier.
//!
//! Bulk data reduces through 128-bit *folding*: four 128-bit accumulators
//! stride 64 bytes per iteration, each folded 512 bits forward by two
//! 64×64 carryless multiplies against `x^k mod G` constants
//! ([`super::fold::FoldTable`]). The accumulators then combine into one,
//! the remaining 16-byte chunks fold at 128-bit stride, and the final
//! 128-bit residue — by construction congruent to the whole processed
//! prefix modulo `G` — is serialized back into 16 *virtual message bytes*
//! and drained through the slicing engine together with the byte tail.
//! That drain costs a constant ≤ 31 bytes of table work and sidesteps a
//! per-polynomial Barrett reduction entirely.
//!
//! Three interchangeable kernels implement the fold:
//!
//! * x86_64 `pclmulqdq` (`_mm_clmulepi64_si128`), selected by runtime
//!   feature detection;
//! * aarch64 `pmull` (`vmull_p64`), likewise;
//! * a portable software carryless multiply, used when the CPU lacks the
//!   instruction or the `clmul` cargo feature is disabled — bit-identical
//!   output, so [`super::EngineKind::Clmul`] is correct everywhere.
//!
//! Correctness of the drain rests on two facts the test suite pins down:
//! from a zero raw state the slicing engine's state is a function of the
//! message polynomial modulo `G` alone, and an incoming state XORs into
//! the first 8 message bytes (both directions of the Rocksoft reflection
//! convention).

use super::fold::FoldTable;
use super::Crc;

/// Minimum length worth setting up the folding loop for; shorter
/// inputs go straight to the slicing engine.
const MIN_FOLD: usize = 64;

/// Whether this host can run the fold on dedicated instructions.
pub(crate) fn hardware_available() -> bool {
    #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
    {
        return std::is_x86_feature_detected!("pclmulqdq");
    }
    #[cfg(all(feature = "clmul", target_arch = "aarch64"))]
    {
        return std::arch::is_aarch64_feature_detected!("aes");
    }
    #[allow(unreachable_code)]
    false
}

/// Advances a raw state over `bytes` on the CLMUL tier.
pub(crate) fn update(crc: &Crc, ft: &FoldTable, state: u64, bytes: &[u8]) -> u64 {
    if bytes.len() < MIN_FOLD {
        return crc.update_raw(state, bytes);
    }
    let refin = crc.params().refin;
    let (virt, consumed) = fold_bulk(ft, refin, state, bytes);
    let mid = crc.update_raw(0, &virt);
    crc.update_raw(mid, &bytes[consumed..])
}

/// Folds all whole 16-byte chunks of `bytes` (at least 64 bytes), with
/// `state` pre-XORed into the first 8 message bytes. Returns the 16
/// virtual message bytes the residue serializes to, and how many input
/// bytes were consumed.
fn fold_bulk(ft: &FoldTable, refin: bool, state: u64, bytes: &[u8]) -> ([u8; 16], usize) {
    #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
    if std::is_x86_feature_detected!("pclmulqdq") {
        return x86::fold_bulk_detected(ft, refin, state, bytes);
    }
    #[cfg(all(feature = "clmul", target_arch = "aarch64"))]
    if std::arch::is_aarch64_feature_detected!("aes") {
        return fold_generic::<aarch64::Pmull>(ft, refin, state, bytes);
    }
    fold_generic::<Soft>(ft, refin, state, bytes)
}

/// A 64×64→127-bit carryless multiply provider.
trait Backend {
    fn mul(a: u64, b: u64) -> u128;
}

/// Portable software carryless multiply (one shift-XOR per set bit of the
/// constant — folding constants average width/2 bits).
struct Soft;

impl Backend for Soft {
    #[inline(always)]
    fn mul(a: u64, mut b: u64) -> u128 {
        let wide = a as u128;
        let mut acc = 0u128;
        while b != 0 {
            acc ^= wide << b.trailing_zeros();
            b &= b - 1;
        }
        acc
    }
}

/// One 128-bit accumulator, tracked as (high-degree half, low-degree
/// half) independent of the bit-order domain.
#[derive(Clone, Copy)]
struct Acc {
    hi: u64,
    lo: u64,
}

#[inline(always)]
fn load(refin: bool, chunk: &[u8]) -> Acc {
    // First message bytes always carry the higher polynomial degrees; the
    // reflection convention only changes the bit order inside each half.
    if refin {
        Acc {
            hi: u64::from_le_bytes(chunk[..8].try_into().expect("8-byte half")),
            lo: u64::from_le_bytes(chunk[8..16].try_into().expect("8-byte half")),
        }
    } else {
        Acc {
            hi: u64::from_be_bytes(chunk[..8].try_into().expect("8-byte half")),
            lo: u64::from_be_bytes(chunk[8..16].try_into().expect("8-byte half")),
        }
    }
}

#[inline(always)]
fn xor(a: Acc, b: Acc) -> Acc {
    Acc {
        hi: a.hi ^ b.hi,
        lo: a.lo ^ b.lo,
    }
}

/// The shared scalar folding kernel, generic over the multiplier.
fn fold_generic<B: Backend>(
    ft: &FoldTable,
    refin: bool,
    state: u64,
    bytes: &[u8],
) -> ([u8; 16], usize) {
    debug_assert!(bytes.len() >= MIN_FOLD);
    // In the reflected domain the 127-bit product's low integer bits are
    // the high polynomial degrees; in the normal domain the high bits are.
    let split = |p: u128| -> Acc {
        if refin {
            Acc {
                hi: p as u64,
                lo: (p >> 64) as u64,
            }
        } else {
            Acc {
                hi: (p >> 64) as u64,
                lo: p as u64,
            }
        }
    };
    let fold = |acc: Acc, k: (u64, u64)| split(B::mul(acc.hi, k.0) ^ B::mul(acc.lo, k.1));

    let mut acc = [
        load(refin, &bytes[0..16]),
        load(refin, &bytes[16..32]),
        load(refin, &bytes[32..48]),
        load(refin, &bytes[48..64]),
    ];
    acc[0].hi ^= state;
    let mut pos = 64;
    while pos + 64 <= bytes.len() {
        for (i, a) in acc.iter_mut().enumerate() {
            *a = xor(
                fold(*a, ft.k512),
                load(refin, &bytes[pos + 16 * i..pos + 16 * i + 16]),
            );
        }
        pos += 64;
    }
    let mut s = xor(
        xor(fold(acc[0], ft.k384), fold(acc[1], ft.k256)),
        xor(fold(acc[2], ft.k128), acc[3]),
    );
    while pos + 16 <= bytes.len() {
        s = xor(fold(s, ft.k128), load(refin, &bytes[pos..pos + 16]));
        pos += 16;
    }
    (serialize(refin, s), pos)
}

#[inline(always)]
fn serialize(refin: bool, s: Acc) -> [u8; 16] {
    let mut out = [0u8; 16];
    if refin {
        out[..8].copy_from_slice(&s.hi.to_le_bytes());
        out[8..].copy_from_slice(&s.lo.to_le_bytes());
    } else {
        out[..8].copy_from_slice(&s.hi.to_be_bytes());
        out[8..].copy_from_slice(&s.lo.to_be_bytes());
    }
    out
}

#[cfg(all(feature = "clmul", target_arch = "x86_64"))]
mod x86 {
    #![allow(unsafe_code)]

    use super::super::fold::FoldTable;
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_loadu_si128, _mm_set_epi64x, _mm_storeu_si128,
        _mm_xor_si128,
    };

    /// Safe wrapper: callers guarantee detection already succeeded.
    pub(super) fn fold_bulk_detected(
        ft: &FoldTable,
        refin: bool,
        state: u64,
        bytes: &[u8],
    ) -> ([u8; 16], usize) {
        // SAFETY: only reached after `is_x86_feature_detected!("pclmulqdq")`.
        unsafe { fold_bulk(ft, refin, state, bytes) }
    }

    /// Reflected-domain fold of one accumulator: register low half is the
    /// high-degree half, paired with `k_hi` in the key vector's low lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    unsafe fn fold_r(acc: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k, 0x00),
            _mm_clmulepi64_si128(acc, k, 0x11),
        )
    }

    /// Normal-domain fold: register high half is the high-degree half,
    /// paired with `k_hi` in the key vector's low lane.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    unsafe fn fold_n(acc: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k, 0x01),
            _mm_clmulepi64_si128(acc, k, 0x10),
        )
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load_le(bytes: &[u8], pos: usize) -> __m128i {
        debug_assert!(pos + 16 <= bytes.len());
        _mm_loadu_si128(bytes.as_ptr().add(pos) as *const __m128i)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn load_be(bytes: &[u8], pos: usize) -> __m128i {
        let hi = u64::from_be_bytes(bytes[pos..pos + 8].try_into().expect("8-byte half"));
        let lo = u64::from_be_bytes(bytes[pos + 8..pos + 16].try_into().expect("8-byte half"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub(super) unsafe fn fold_bulk(
        ft: &FoldTable,
        refin: bool,
        state: u64,
        bytes: &[u8],
    ) -> ([u8; 16], usize) {
        // Key vectors carry k_hi in the low lane, k_lo in the high lane.
        let kv = |k: (u64, u64)| _mm_set_epi64x(k.1 as i64, k.0 as i64);
        let (k512, k384, k256, k128) = (kv(ft.k512), kv(ft.k384), kv(ft.k256), kv(ft.k128));
        let n = bytes.len();
        debug_assert!(n >= super::MIN_FOLD);

        macro_rules! kernel {
            ($load:ident, $fold:ident, $state_vec:expr) => {{
                let mut a0 = _mm_xor_si128($load(bytes, 0), $state_vec);
                let mut a1 = $load(bytes, 16);
                let mut a2 = $load(bytes, 32);
                let mut a3 = $load(bytes, 48);
                let mut pos = 64usize;
                while pos + 64 <= n {
                    a0 = _mm_xor_si128($fold(a0, k512), $load(bytes, pos));
                    a1 = _mm_xor_si128($fold(a1, k512), $load(bytes, pos + 16));
                    a2 = _mm_xor_si128($fold(a2, k512), $load(bytes, pos + 32));
                    a3 = _mm_xor_si128($fold(a3, k512), $load(bytes, pos + 48));
                    pos += 64;
                }
                let mut s = _mm_xor_si128(
                    _mm_xor_si128($fold(a0, k384), $fold(a1, k256)),
                    _mm_xor_si128($fold(a2, k128), a3),
                );
                while pos + 16 <= n {
                    s = _mm_xor_si128($fold(s, k128), $load(bytes, pos));
                    pos += 16;
                }
                (s, pos)
            }};
        }

        let mut stored = [0u8; 16];
        let (s, pos) = if refin {
            // State occupies the first 8 message bytes = register low lane.
            kernel!(load_le, fold_r, _mm_set_epi64x(0, state as i64))
        } else {
            // State is the high-degree half = register high lane.
            kernel!(load_be, fold_n, _mm_set_epi64x(state as i64, 0))
        };
        _mm_storeu_si128(stored.as_mut_ptr() as *mut __m128i, s);
        let out = if refin {
            // Register layout already is the virtual-message byte order.
            stored
        } else {
            let lo = u64::from_le_bytes(stored[..8].try_into().expect("8-byte half"));
            let hi = u64::from_le_bytes(stored[8..].try_into().expect("8-byte half"));
            super::serialize(false, super::Acc { hi, lo })
        };
        (out, pos)
    }
}

#[cfg(all(feature = "clmul", target_arch = "aarch64"))]
mod aarch64 {
    #![allow(unsafe_code)]

    /// `pmull`-backed multiplier for the shared scalar kernel.
    pub(super) struct Pmull;

    impl super::Backend for Pmull {
        #[inline(always)]
        fn mul(a: u64, b: u64) -> u128 {
            // SAFETY: this backend is only selected after runtime
            // detection of the `aes` feature set (which carries PMULL).
            unsafe { mul_p64(a, b) }
        }
    }

    #[inline]
    #[target_feature(enable = "aes")]
    unsafe fn mul_p64(a: u64, b: u64) -> u128 {
        std::arch::aarch64::vmull_p64(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::super::EngineKind;
    use super::*;
    use crate::catalog;

    /// Second, independent software multiply to validate `Soft::mul`.
    fn mul_naive(a: u64, b: u64) -> u128 {
        let mut acc = 0u128;
        for i in 0..64 {
            if b >> i & 1 == 1 {
                acc ^= (a as u128) << i;
            }
        }
        acc
    }

    #[test]
    fn soft_multiply_matches_naive() {
        let mut rng = gf2poly::SplitMix64::new(0x1234_5678_9ABC_DEF0);
        for _ in 0..200 {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            assert_eq!(Soft::mul(a, b), mul_naive(a, b));
        }
        assert_eq!(Soft::mul(0, 0xFFFF), 0);
        assert_eq!(Soft::mul(u64::MAX, 1), u64::MAX as u128);
    }

    #[test]
    fn portable_fold_matches_slicing_engine() {
        // The portable kernel must agree with slice-8 regardless of what
        // the host CPU supports.
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 131 + 7) as u8).collect();
        for params in [
            catalog::CRC32_ISO_HDLC, // reflected
            catalog::CRC32_BZIP2,    // unreflected
            catalog::CRC64_XZ,       // reflected, width 64
            catalog::CRC64_ECMA_182, // unreflected, width 64
            catalog::CRC16_ARC,      // reflected, narrow
            catalog::CRC24_OPENPGP,  // unreflected, odd width
        ] {
            let crc = crate::Crc::new(params);
            let ft = super::super::fold::FoldTable::derive(&params);
            for len in [64usize, 65, 79, 80, 128, 129, 1024, 4096] {
                let bytes = &data[..len];
                let state = crc.init_raw();
                let (virt, consumed) = fold_generic::<Soft>(&ft, params.refin, state, bytes);
                let mid = crc.update_raw(0, &virt);
                let folded = crc.update_raw(mid, &bytes[consumed..]);
                let expected = crc.update_raw(state, bytes);
                assert_eq!(
                    crc.finalize_raw(folded),
                    crc.finalize_raw(expected),
                    "{} len {len}",
                    params.name
                );
            }
        }
    }

    #[test]
    fn hardware_and_portable_kernels_agree() {
        if !hardware_available() {
            return; // hardware path covered only where it exists
        }
        let data: Vec<u8> = (0..2048u32).map(|i| (i * 89 + 3) as u8).collect();
        for params in [
            catalog::CRC32_ISO_HDLC,
            catalog::CRC32_BZIP2,
            catalog::CRC64_XZ,
        ] {
            let crc = crate::Crc::new(params);
            let ft = super::super::fold::FoldTable::derive(&params);
            for len in [64usize, 96, 100, 777, 2048] {
                let hw = fold_bulk(&ft, params.refin, crc.init_raw(), &data[..len]);
                let sw = fold_generic::<Soft>(&ft, params.refin, crc.init_raw(), &data[..len]);
                assert_eq!(hw.0, sw.0, "{} len {len}", params.name);
                assert_eq!(hw.1, sw.1, "{} len {len}", params.name);
            }
        }
    }

    #[test]
    fn clmul_tier_handles_short_inputs_via_slicing() {
        let crc = crate::Crc::new(catalog::CRC32_ISCSI);
        for len in 0..MIN_FOLD {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(
                crc.checksum_with(EngineKind::Clmul, &data),
                crc.checksum_bitwise(&data),
                "len {len}"
            );
        }
    }
}
