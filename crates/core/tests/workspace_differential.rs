//! Differential suite: every workspace kernel against the scratch-built
//! reference paths (CI job `screening-equivalence`).
//!
//! The workspace changes *how* answers are computed three times over —
//! direct-indexed probes instead of hash probes, memoized scan resumes
//! instead of fresh scans, certified-zero sweep skipping instead of full
//! sweeps — and none of those may change a single answer. Each test
//! drives a shared workspace through a schedule of mixed calls (the
//! access pattern the survey engine and the staged/breakpoint drivers
//! produce) and asserts bit-identical results against
//! [`crc_hd::reference`], which still computes everything from scratch
//! per call.

use crc_hd::filter::{
    breakpoint_search, breakpoint_search_in, hd_filter_in, FilterVerdict, StagedFilter,
};
use crc_hd::profile::HdProfile;
use crc_hd::reference;
use crc_hd::workspace::{IndexPolicy, SyndromeWorkspace};
use crc_hd::GenPoly;
use gf2poly::SplitMix64;

/// Deterministic sample of generators at one width: a few fixed
/// well-known values plus random draws.
fn sample_polys(width: u32, count: usize, seed: u64) -> Vec<GenPoly> {
    let mut rng = SplitMix64::new(seed ^ (width as u64) << 32);
    let mut out: Vec<GenPoly> = Vec::new();
    let known: &[u64] = match width {
        8 => &[0x83, 0x97, 0xEA],
        16 => &[0x8810, 0xC86C, 0xAC9A],
        32 => &[0x82608EDB, 0xBA0DC66B, 0x8F6E37A0, 0xFB567D89],
        _ => &[],
    };
    for &k in known {
        out.push(GenPoly::from_koopman(width, k).unwrap());
    }
    let lo = 1u64 << (width - 1);
    while out.len() < count {
        let k = lo | (rng.next_u64() & (lo - 1));
        out.push(GenPoly::from_koopman(width, k).expect("top bit set"));
    }
    out
}

/// The length schedules one polynomial is probed at, in an order that
/// exercises shrink-after-grow memo paths (not just monotone growth).
fn schedules(width: u32) -> Vec<Vec<u32>> {
    let base = vec![
        vec![8, 16, 33, 64, 100],
        vec![100, 16, 64, 8, 33],
        vec![64, 250, 40],
    ];
    if width >= 16 {
        let mut with_long = base;
        with_long.push(vec![900, 120, 500]);
        with_long
    } else {
        base
    }
}

#[test]
fn hd_filter_verdicts_identical_across_widths_and_schedules() {
    for width in [8u32, 13, 16, 32] {
        for policy in [IndexPolicy::Auto, IndexPolicy::ForceHash] {
            let mut ws = SyndromeWorkspace::with_policy(policy);
            for g in sample_polys(width, 8, 11) {
                for schedule in schedules(width) {
                    for len in schedule {
                        for hd in [3u32, 4, 5, 6] {
                            let got = hd_filter_in(&mut ws, &g, len, hd).unwrap();
                            let want = reference::hd_filter(&g, len, hd).unwrap();
                            assert_eq!(got, want, "{g} len={len} hd={hd} policy={policy:?}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn weights_identical_with_and_without_prior_stages() {
    for width in [8u32, 13, 16, 32] {
        for policy in [IndexPolicy::Auto, IndexPolicy::ForceHash] {
            let mut ws = SyndromeWorkspace::with_policy(policy);
            for g in sample_polys(width, 6, 23) {
                for schedule in schedules(width) {
                    for len in schedule {
                        let got = ws.weights234(&g, len);
                        let want = reference::weights234(&g, len);
                        match (got, want) {
                            (Ok(a), Ok(b)) => {
                                assert_eq!(a, b, "{g} len={len} policy={policy:?}")
                            }
                            (Err(_), Err(_)) => {} // same refusal (past the order)
                            (a, b) => panic!("{g} len={len}: {a:?} vs {b:?}"),
                        }
                    }
                }
                // And once more after a full profile primed the memo —
                // the maximally-hinted sweep must still count the same.
                let _ = HdProfile::compute_in(&mut ws, &g, 200, 8).unwrap();
                if let Ok(want) = reference::weights234(&g, 150) {
                    assert_eq!(ws.weights234(&g, 150).unwrap(), want, "{g} hinted");
                }
            }
        }
    }
}

#[test]
fn profiles_identical_to_scratch_assembly() {
    for width in [8u32, 13, 16, 32] {
        let mut ws = SyndromeWorkspace::new();
        for g in sample_polys(width, 6, 37) {
            for max_len in [24u32, 150, 800] {
                for max_weight in [5u32, 8] {
                    let got = HdProfile::compute_in(&mut ws, &g, max_len, max_weight).unwrap();
                    let want = reference::profile(&g, max_len, max_weight).unwrap();
                    assert_eq!(got.order(), want.order(), "{g}");
                    assert_eq!(got.dmins(), want.dmins(), "{g} max_len={max_len}");
                    assert_eq!(got.bands(), want.bands(), "{g} max_len={max_len}");
                }
            }
        }
    }
}

#[test]
fn dmin_identical_under_shuffled_cap_schedules() {
    // Caps shrink and grow in arbitrary order: memoized resume must
    // never change an answer (including error-free None/Some flips at
    // the exact boundary).
    for width in [8u32, 13, 16, 32] {
        let mut ws = SyndromeWorkspace::new();
        for g in sample_polys(width, 6, 41) {
            for cap in [5u32, 300, 40, 77, 500, 39, 301] {
                for w in 2..=6u32 {
                    let got = ws.dmin(&g, w, cap).unwrap();
                    let want = reference::dmin(&g, w, cap).unwrap();
                    assert_eq!(got, want, "{g} w={w} cap={cap}");
                }
            }
        }
    }
}

/// The four index/kernel flavors a wide-width binding can run under.
const WIDE_POLICIES: [IndexPolicy; 4] = [
    IndexPolicy::Auto,      // resolves to the two-level index at 17–32
    IndexPolicy::ForceHash, // the differential oracle path
    IndexPolicy::ForceTwoLevel,
    IndexPolicy::Bitsliced, // two-level + CLMUL block kernels
];

#[test]
fn wide_widths_identical_across_every_index_flavor() {
    // The PR-6 kernels (two-level index, bitsliced block extension,
    // persistent MITM maps) at the widths they exist for, against the
    // scratch oracle, under shuffled length/cap schedules: verdicts,
    // weights, profiles and d_min must be bit-identical. Widths 16, 33
    // and 64 sit on the kernel crossovers (last direct index, first hash
    // index, widest generator); width 64 trims the largest caps, where the
    // scratch reference's weight-6 d_min and weight-8 profile take seconds
    // per call.
    for width in [16u32, 17, 24, 29, 32, 33, 64] {
        let (caps, profile_len, profile_weight) = if width == 64 {
            ([5u32, 160, 40, 200, 159], 200, 6)
        } else {
            ([5u32, 300, 40, 500, 299], 400, 8)
        };
        for policy in WIDE_POLICIES {
            let mut ws = SyndromeWorkspace::with_policy(policy);
            for g in sample_polys(width, 4, 71) {
                for cap in caps {
                    for w in 2..=6u32 {
                        let got = ws.dmin(&g, w, cap).unwrap();
                        let want = reference::dmin(&g, w, cap).unwrap();
                        assert_eq!(got, want, "{g} w={w} cap={cap} policy={policy:?}");
                    }
                }
                for len in [100u32, 16, 900, 64, 899] {
                    let got = ws.weights234(&g, len);
                    let want = reference::weights234(&g, len);
                    match (got, want) {
                        (Ok(a), Ok(b)) => assert_eq!(a, b, "{g} len={len} policy={policy:?}"),
                        (Err(_), Err(_)) => {} // same refusal (past the order)
                        (a, b) => panic!("{g} len={len}: {a:?} vs {b:?}"),
                    }
                }
                for (len, hd) in [(64u32, 5u32), (250, 4), (120, 6)] {
                    let got = hd_filter_in(&mut ws, &g, len, hd).unwrap();
                    let want = reference::hd_filter(&g, len, hd).unwrap();
                    assert_eq!(got, want, "{g} len={len} hd={hd} policy={policy:?}");
                }
                let got = HdProfile::compute_in(&mut ws, &g, profile_len, profile_weight).unwrap();
                let want = reference::profile(&g, profile_len, profile_weight).unwrap();
                assert_eq!(got.dmins(), want.dmins(), "{g} policy={policy:?}");
                assert_eq!(got.bands(), want.bands(), "{g} policy={policy:?}");
            }
        }
    }
}

#[test]
fn bitsliced_block_growth_interleaves_with_serial() {
    // Alternate calls that grow the table in bulk (weights sweeps, long
    // caps) with short serial growth on the same binding; the resynced
    // stepper and the block extension must stay value-identical.
    let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
    let mut ws = SyndromeWorkspace::with_policy(IndexPolicy::Bitsliced);
    for (w, cap) in [(3u32, 50u32), (4, 4000), (3, 120), (5, 700), (4, 5000)] {
        assert_eq!(
            ws.dmin(&g, w, cap).unwrap(),
            reference::dmin(&g, w, cap).unwrap(),
            "w={w} cap={cap}"
        );
    }
    assert_eq!(
        ws.weights234(&g, 3000).unwrap(),
        reference::weights234(&g, 3000).unwrap()
    );
}

#[test]
fn hash_index_never_rehashes_under_the_sizing_contract() {
    // Width-32 regression for the PosMap reserve audit: every scan
    // pre-sizes through `reserve_hash`, and `PosMap::reserve`
    // at-least-doubles per actual resize, so even the breakpoint
    // search's bisection pattern (the index trailing its table through
    // many slightly-growing caps) must trigger zero implicit growth
    // rehashes.
    let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
    let mut ws = SyndromeWorkspace::with_policy(IndexPolicy::ForceHash);
    for cap in [10u32, 500, 1200, 1201, 1300, 2000, 3500, 5000] {
        ws.dmin(&g, 4, cap).unwrap();
    }
    breakpoint_search_in(&mut ws, &g, 5, 65_536).unwrap();
    ws.weights234(&g, 3000).unwrap();
    assert_eq!(ws.hash_rehashes(), 0, "implicit rehash despite reserve");
}

#[test]
fn breakpoint_search_evaluation_counts_identical() {
    // The workspace variant must take the *same* doubling+bisect path:
    // identical breakpoints and identical evaluation counts (the §4.1
    // quantity the search strategy is measured by).
    for (width, koopman, hd, hi) in [
        (32u32, 0x82608EDBu64, 5u32, 65_536u32),
        (32, 0x82608EDB, 6, 4096),
        (32, 0xBA0DC66B, 6, 32_768),
        (16, 0x8810, 4, 8192),
        (8, 0x83, 4, 1024),
    ] {
        let g = GenPoly::from_koopman(width, koopman).unwrap();
        let mut ws = SyndromeWorkspace::new();
        let got = breakpoint_search_in(&mut ws, &g, hd, hi).unwrap();
        let want = reference::breakpoint_search(&g, hd, hi).unwrap();
        assert_eq!(got, want, "{g} hd={hd} hi={hi}");
        // The free function (fresh workspace) agrees too.
        assert_eq!(breakpoint_search(&g, hd, hi).unwrap(), want);
    }
}

#[test]
fn staged_filter_funnel_identical_to_scratch_filtering() {
    let polys = sample_polys(8, 40, 53);
    let staged = StagedFilter::new(vec![16, 32, 64], 4);
    let (survivors, stats) = staged.run(polys.iter().copied()).unwrap();
    // Scratch stage-major replay.
    let mut current = polys.clone();
    for (stage, &len) in [16u32, 32, 64].iter().enumerate() {
        assert_eq!(stats[stage].candidates_in, current.len(), "stage {stage}");
        current.retain(|g| reference::hd_filter(g, len, 4).unwrap().passed());
        assert_eq!(stats[stage].survivors_out, current.len(), "stage {stage}");
    }
    assert_eq!(survivors, current);
}

#[test]
fn one_workspace_survives_width_changes() {
    // A campaign worker's workspace outlives candidates; mixing widths
    // (direct and hash bindings interleaved) must leave no residue.
    let mut ws = SyndromeWorkspace::new();
    let mixed: Vec<GenPoly> = sample_polys(8, 4, 61)
        .into_iter()
        .chain(sample_polys(32, 4, 61))
        .chain(sample_polys(13, 4, 61))
        .collect();
    for _round in 0..2 {
        for g in &mixed {
            match (ws.weights234(g, 60), reference::weights234(g, 60)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{g}"),
                (Err(_), Err(_)) => {} // both refuse past the order
                (a, b) => panic!("{g}: {a:?} vs {b:?}"),
            }
            assert_eq!(
                hd_filter_in(&mut ws, g, 48, 5).unwrap(),
                reference::hd_filter(g, 48, 5).unwrap(),
                "{g}"
            );
        }
    }
}

/// The bucket count a two-level directory holding `positions` positions
/// must have: the smallest power of two at least four times the count,
/// between `2^min(width, 10)` and `2^min(width, 20)`.
fn expected_dir_buckets(width: u32, positions: u32) -> usize {
    let (lo, hi) = (width.min(10), width.min(20));
    let mut bits = lo;
    while bits < hi && (positions as usize) * 4 > 1usize << bits {
        bits += 1;
    }
    1 << bits
}

#[test]
fn wide_widths_directory_doubles_across_crossover_widths() {
    // ROADMAP item 4's crossovers: 17 (first two-level width), 20 (the
    // directory cap covers the whole value space), 21 and 32 (capped
    // directory, collisions spill). Each length below pushes the index
    // across one more doubling (2^10 → 2^16 buckets at the MTU), so every
    // step re-buckets the positions and spill rows the previous one
    // filed; every answer must stay the scratch oracle's.
    for width in [17u32, 20, 21, 32] {
        let g = sample_polys(width, 1, 83)[0];
        let mut ws = SyndromeWorkspace::new();
        let mut seen = Vec::new();
        let mut spilled = false;
        for len in [200u32, 400, 800, 1600, 3200, 6400, 12_112] {
            let got = ws.weights234(&g, len);
            match (got, reference::weights234(&g, len)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{g} len={len}"),
                (Err(_), Err(_)) => {} // same refusal (past the order)
                (a, b) => panic!("{g} len={len}: {a:?} vs {b:?}"),
            }
            let buckets = ws.two_level_dir_buckets();
            assert_eq!(
                buckets,
                expected_dir_buckets(width, ws.positions_indexed()),
                "{g} len={len}: directory not sized to its positions"
            );
            spilled |= ws.two_level_spill_rows() > 0;
            seen.push(buckets);
        }
        assert!(seen.windows(2).all(|p| p[0] <= p[1]), "{g}: {seen:?}");
        if width > 20 {
            assert!(spilled, "{g}: a capped directory never spilled");
        }
        if width == 32 {
            // 802.3's order is far past the MTU: every doubling happens.
            let bits: Vec<u32> = seen.iter().map(|b| b.trailing_zeros()).collect();
            assert_eq!(bits, (10..=16).collect::<Vec<u32>>(), "{g}");
        }
    }
}

#[test]
fn wide_widths_rebind_right_after_a_grown_directory() {
    // A grown directory must be cleared by replay at its grown size, and
    // the next binding must start small again with nothing left behind
    // — under every policy that binds the two-level index.
    for policy in [
        IndexPolicy::Auto,
        IndexPolicy::ForceTwoLevel,
        IndexPolicy::Bitsliced,
    ] {
        for width in [21u32, 32] {
            let polys = sample_polys(width, 3, 89);
            let mut ws = SyndromeWorkspace::with_policy(policy);
            for round in 0..2 {
                for g in &polys {
                    // Grow on this binding...
                    let long = ws.weights234(g, 3000);
                    match (long, reference::weights234(g, 3000)) {
                        (Ok(a), Ok(b)) => assert_eq!(a, b, "{g} {policy:?}"),
                        (Err(_), Err(_)) => continue,
                        (a, b) => panic!("{g}: {a:?} vs {b:?}"),
                    }
                    assert!(ws.two_level_dir_buckets() >= 1 << 14, "{g} {policy:?}");
                }
                // ...then rebind (the last binding above just grew) and
                // ask short questions first.
                for g in &polys {
                    ws.bind(g);
                    assert_eq!(ws.two_level_dir_buckets(), 1 << 10, "{g} {policy:?}");
                    assert_eq!(ws.two_level_spill_rows(), 0, "{g} {policy:?}");
                    for (len, hd) in [(40u32, 5u32), (300, 6), (1000, 5)] {
                        assert_eq!(
                            hd_filter_in(&mut ws, g, len, hd).unwrap(),
                            reference::hd_filter(g, len, hd).unwrap(),
                            "{g} len={len} hd={hd} {policy:?} round={round}"
                        );
                    }
                    if let Ok(want) = reference::weights234(g, 500) {
                        assert_eq!(ws.weights234(g, 500).unwrap(), want, "{g} {policy:?}");
                    }
                    // The next polynomial's rebind comes right after a
                    // directory this binding just grew.
                    ws.weights234(g, 2500).ok();
                }
            }
        }
    }
}

#[test]
fn wide_widths_odd_generators_failing_at_weight_3_report_it() {
    // The filter hunts weight 4 before it checks weight 3; a generator
    // with a weight-3 codeword in range must still fail at 3, whether
    // the hunt found a weight-4 codeword first or came back clean.
    let mtu = 12_112u32;
    let mut cases: Vec<(GenPoly, u32)> = Vec::new();
    // x^32 + x^7 + 1 is itself weight 3: d_min(3) = 32, d_min(4) = 39,
    // so data lengths up to 7 fail at 3 after a clean hunt, 8 and
    // longer after a hit.
    let trinomial = GenPoly::from_normal(32, 0x81).unwrap();
    for data_len in [1u32, 6, 7, 8, 40, mtu] {
        cases.push((trinomial, data_len));
    }
    // Random odd-weight draws whose weight-3 codeword lies within the
    // MTU (about one draw in sixty), usually well past the weight-4 one.
    let mut rng = SplitMix64::new(0x5EED_0003);
    let mut found = 0;
    let mut w4_first = 0;
    while found < 3 {
        let k = (1u64 << 31) | (rng.next_u64() & 0x7FFF_FFFF);
        let g = GenPoly::from_koopman(32, k).unwrap();
        if g.divisible_by_x_plus_1() {
            continue;
        }
        if let Some(d3) = reference::dmin(&g, 3, mtu + 31).unwrap() {
            found += 1;
            if reference::dmin(&g, 4, d3 - 1).unwrap().is_some() {
                w4_first += 1;
            }
            cases.push((g, mtu));
        }
    }
    assert!(w4_first > 0, "no draw exercises a hunt that hits first");
    for policy in WIDE_POLICIES {
        let mut ws = SyndromeWorkspace::with_policy(policy);
        for &(g, data_len) in &cases {
            for hd in [5u32, 6] {
                let want = reference::hd_filter(&g, data_len, hd).unwrap();
                assert_eq!(want, FilterVerdict::FailAt(3), "{g} len={data_len}");
                assert_eq!(
                    hd_filter_in(&mut ws, &g, data_len, hd).unwrap(),
                    want,
                    "{g} len={data_len} hd={hd} {policy:?}"
                );
            }
        }
    }
}
