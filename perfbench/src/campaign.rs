//! The two campaign workloads: `census32_hd6` (the paper's §4 HD = 6 at
//! the Ethernet MTU screen, where nearly every candidate dies in the
//! weight-4 hunt) and `survivors32_mtu` (the 32-bit census of
//! `docs/CENSUS.md` profiled to weight 4, where nearly every candidate
//! survives and is profiled and weighed at the MTU).
//!
//! The untraced run times `Campaign::run` into a fresh directory. The
//! traced run replays the same units through the public calls the
//! campaign makes — `SyndromeWorkspace::bind` and `exists_weight` in
//! `hd_filter_in`'s order, the profile's `dmin` chain, `weight2` /
//! `weights234`, `gf2poly::factor` plus `engine_cost`, `memo_facts` and
//! `ShardResult::to_json` — and requires its rendered shard logs to be
//! byte-identical to the untraced run's.

use crate::calib::{self, Calibration};
use crate::report::Report;
use crate::stats::{interquartile_mean, median, Summary};
use crate::trace::{self, Span, Tracer};
use crate::{repeat_within, sub_seed, Ctx};
use crc_hd::costmodel::engine_cost;
use crc_hd::filter::{hd_filter, hd_filter_in, FilterVerdict};
use crc_hd::{reference, GenPoly, HdProfile, SyndromeWorkspace};
use crc_survey::campaign::{unit_seed, ShardResult, WorkUnit, STREAM_SAMPLE};
use crc_survey::census::{strata, Stratum};
use crc_survey::{Campaign, CampaignConfig, Mode, SurvivorRecord};
use gf2poly::SplitMix64;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Shape {
    name: &'static str,
    min_hd: u32,
    target_lengths: &'static [u32],
    max_weight: u32,
    /// Draws per tap-count stratum: a campaign screens 32 × this many
    /// candidates.
    per_stratum: u64,
    /// IEEE 802.3's verdict on the screen (`min_hd` at the first length),
    /// which the set-up's warm-up must reproduce.
    warm_verdict: FilterVerdict,
}

pub const CENSUS32_HD6: Shape = Shape {
    name: "census32_hd6",
    min_hd: 6,
    target_lengths: &[12_112],
    max_weight: 6,
    per_stratum: 2,
    warm_verdict: FilterVerdict::FailAt(4),
};

pub const SURVIVORS32_MTU: Shape = Shape {
    name: "survivors32_mtu",
    min_hd: 4,
    target_lengths: &[1024, 12_112],
    max_weight: 4,
    per_stratum: 1,
    // 802.3 has HD 5 at 1024 bits.
    warm_verdict: FilterVerdict::Pass,
};

/// The paper's generators that keep HD = 6 at the 12112-bit MTU.
const HD6_AT_MTU: [u64; 3] = [0xBA0D_C66B, 0xFA56_7D89, 0x992C_1A4C];
/// IEEE 802.3, which has HD = 4 at the MTU.
const IEEE_802_3: u64 = 0x8260_8EDB;

/// Set-ups per run, for a steady `setup_s` median. The first few set-ups
/// after a campaign run are slow while caches and the allocator warm up
/// again (for survivors32_mtu: about 1 ms, falling to 0.5 ms over five
/// set-ups). A survivors32_mtu run holds only a few campaigns, so most of
/// its set-ups are timed after them, enough for the median to fall among
/// the settled ones. Set-ups after the timed loop stop at `SETUPS` or
/// after `SETUP_TOPUP`, whichever comes first.
const SETUPS: usize = 64;
const SETUP_TOPUP: Duration = Duration::from_secs(1);
/// Units of the first census32_hd6 campaign run again at one thread.
const ONE_THREAD_UNITS: u64 = 8;
/// Rejections (census32_hd6) or survivors (survivors32_mtu) re-checked
/// against the scratch reference per run.
const REFERENCE_SAMPLE: usize = 6;
const REFERENCE_SURVIVORS: usize = 2;

impl Shape {
    fn config(&self, seed: u64) -> CampaignConfig {
        CampaignConfig {
            width: 32,
            shards: 32,
            seed,
            mode: Mode::Census {
                per_stratum: self.per_stratum,
                classes: Vec::new(),
            },
            min_hd: self.min_hd,
            target_lengths: self.target_lengths.to_vec(),
            ber_grid: vec![1e-5, 1e-6],
            max_weight: self.max_weight,
        }
    }

    fn is_census(&self) -> bool {
        self.name == CENSUS32_HD6.name
    }
}

fn g32(koopman: u64) -> Result<GenPoly, String> {
    GenPoly::from_koopman(32, koopman).map_err(|e| format!("{koopman:#X}: {e}"))
}

/// Builds a campaign directory for repetition `k` and warms up: input
/// generation, `Campaign::create`, and one run of the campaign's screen
/// on 802.3, whose verdict is known.
fn setup(shape: &Shape, ctx: &Ctx, k: u64, tag: &str) -> Result<Campaign, String> {
    let cfg = shape.config(sub_seed(ctx.seed, k));
    let (len, min_hd) = (cfg.screen_len(), cfg.min_hd);
    let dir = ctx.out_dir.join(format!("{}-{k}-{tag}", shape.name));
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = Campaign::create(&dir, cfg).map_err(|e| e.to_string())?;
    let warm = hd_filter(&g32(IEEE_802_3)?, len, min_hd).map_err(|e| e.to_string())?;
    if warm != shape.warm_verdict {
        return Err(format!(
            "802.3, HD >= {min_hd} at {len} bits: {warm:?}, expected {:?}",
            shape.warm_verdict
        ));
    }
    Ok(campaign)
}

/// The `survey.funnel.*` counters the program keeps in its telemetry
/// registry: candidates, hd_pass, profiled, weights, recorded.
fn funnel_counters() -> [u64; 5] {
    ["candidates", "hd_pass", "profiled", "weights", "recorded"].map(|stage| {
        match telemetry::global().get(&format!("survey.funnel.{stage}")) {
            Some(telemetry::Metric::Counter(c)) => c.get(),
            _ => 0,
        }
    })
}

fn delta(after: [u64; 5], before: [u64; 5]) -> [u64; 5] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// One untraced `Campaign::run` at `threads`: (summary, wall seconds,
/// funnel counter deltas).
fn run_untraced(
    campaign: &mut Campaign,
    threads: usize,
) -> Result<(crc_survey::RunSummary, f64, [u64; 5]), String> {
    let before = funnel_counters();
    let t = Instant::now();
    let summary = campaign.run(threads, None).map_err(|e| e.to_string())?;
    let wall = t.elapsed().as_secs_f64();
    Ok((summary, wall, delta(funnel_counters(), before)))
}

/// Runs up to `chunk` units of `campaign` (all pending units for
/// `None`) at `nproc` threads: (summary, wall seconds, CPU seconds). The
/// program's own funnel telemetry must count what the call reports:
/// every draw screened, every survivor recorded.
fn timed_chunk(
    campaign: &mut Campaign,
    ctx: &Ctx,
    chunk: Option<u64>,
    report: &mut Report,
) -> Result<(crc_survey::RunSummary, f64, f64), String> {
    let before = funnel_counters();
    let cpu = cpu_seconds();
    let t = Instant::now();
    let summary = campaign
        .run(ctx.threads, chunk)
        .map_err(|e| e.to_string())?;
    let wall = t.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu;
    let funnel = delta(funnel_counters(), before);
    let agrees = funnel[0] == summary.scanned && funnel[4] == summary.survivors;
    report.ops(summary.scanned, u64::from(!agrees));
    report.gate(agrees, || {
        format!("funnel telemetry {funnel:?} disagrees with run summary {summary:?}")
    });
    Ok((summary, wall, cpu))
}

/// Keeps the first complete campaign for the gates and removes the rest.
fn keep_first(first: &mut Option<Campaign>, done: Campaign) {
    if first.is_none() {
        *first = Some(done);
    } else {
        let _ = std::fs::remove_dir_all(done.dir());
    }
}

/// Each campaign is a census into a fresh directory at `nproc` threads
/// (the local pool). The rates are interquartile means over timed
/// samples, each scaled by the mean time of the calibration sweeps run
/// just before and just after it (see `calib.rs`): the campaign kernels'
/// speed follows the shared host's caches and memory, which drift more
/// over minutes than a run can average out.
///
/// The first rate counts candidates per wall second. The second counts
/// per CPU second of the process, which leaves out idle threads: the
/// per-core rate one `survey work` process of a distributed census sees.
///
/// `census32_hd6` times each campaign (two draws per stratum) whole as
/// one sample: a rare candidate costs 100× the typical one (0xFF7FFF7F
/// sweeps weight 4 to the MTU in 1.6 s), so a pooled rate would swing
/// with whether a run drew one; the interquartile mean leaves such
/// samples out. Its second rate counts candidates. Its
/// first campaign is run again at one thread after the timed loop, and
/// the shard logs must be byte-identical.
///
/// `survivors32_mtu` (one draw per stratum) times chunks of `2 × nproc`
/// units (`Campaign::run` with `stop_after`): a survivor costs about
/// 0.5 s, so a whole campaign takes several seconds and a run would hold
/// only a few of them. Its second rate counts survivors, whose cost
/// barely varies, so that the rare cheap rejection in a chunk does not
/// move it.
pub fn e2e(shape: &Shape, ctx: &Ctx, budget: Duration, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    // Per timed sample: candidates per wall second, and candidates
    // (census32_hd6) or survivors (survivors32_mtu) per CPU second. A
    // calibration sweep runs before the first sample and after each one.
    let mut raw: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut calib_s = Vec::new();
    let calib = Calibration::new();
    calib_s.push(calib.time(ctx.threads));
    let chunk = if shape.is_census() {
        None
    } else {
        Some(2 * ctx.threads as u64)
    };
    // The first campaign is kept for the gates; later ones are removed
    // once complete. A timed sample runs one chunk of the current
    // campaign, set up anew once the last one is complete.
    let mut first: Option<Campaign> = None;
    let mut current: Option<Campaign> = None;
    repeat_within(budget, 1, |_| {
        let campaign = match current.as_mut() {
            Some(c) if !c.is_complete() => c,
            _ => {
                if let Some(done) = current.take() {
                    keep_first(&mut first, done);
                }
                let t = Instant::now();
                let c = setup(shape, ctx, setups.len() as u64, "run")?;
                setups.push(t.elapsed().as_secs_f64());
                current.insert(c)
            }
        };
        let (summary, wall, cpu) = timed_chunk(campaign, ctx, chunk, report)?;
        calib_s.push(calib.time(ctx.threads));
        let per_cpu = if shape.is_census() {
            summary.scanned
        } else {
            summary.survivors
        };
        raw[0].push(summary.scanned as f64 / wall);
        raw[1].push(per_cpu as f64 / cpu);
        Ok(())
    })?;
    // The gates need a complete campaign: one the budget cut short is
    // finished untimed if it is the first, and removed otherwise.
    if let Some(mut c) = current.take() {
        if first.is_none() {
            while !c.is_complete() {
                timed_chunk(&mut c, ctx, chunk, report)?;
            }
        }
        keep_first(&mut first, c);
    }
    let topup = Instant::now();
    while setups.len() < SETUPS && topup.elapsed() < SETUP_TOPUP {
        let t = Instant::now();
        let campaign = setup(shape, ctx, setups.len() as u64, "setup")?;
        setups.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(campaign.dir());
    }
    // A sample is scaled by the mean of the calibrations on either side.
    let rates = raw.each_ref().map(|r| {
        let scaled: Vec<f64> = r
            .iter()
            .zip(calib_s.windows(2))
            .map(|(x, c)| x * (c[0] + c[1]) / 2.0 / calib::REFERENCE_S)
            .collect();
        interquartile_mean(&scaled)
    });
    let raw = raw.map(|r| interquartile_mean(&r));
    report.metric("setup_s", median(&setups), "s");
    report.metric("ops_per_s", rates[0], "1/s");
    report.note("polys_per_s, host-scaled", rates[0], "1/s");
    report.note("polys_per_s, raw", raw[0], "1/s");
    report.metric("ops2_per_s", rates[1], "1/s");
    let what2 = if shape.is_census() {
        "polys_per_cpu_s"
    } else {
        "survivors_per_cpu_s"
    };
    report.note(&format!("{what2}, host-scaled"), rates[1], "1/s");
    report.note(&format!("{what2}, raw"), raw[1], "1/s");
    report.note("calibration sweep", median(&calib_s), "s");
    let campaign = first.expect("at least one repetition ran");
    if shape.is_census() {
        // Gate: the first campaign's first units at one thread give
        // byte-identical shard logs.
        let mut one = setup(shape, ctx, 0, "t1")?;
        one.run(1, Some(ONE_THREAD_UNITS))
            .map_err(|e| e.to_string())?;
        let log = |c: &Campaign, shard| std::fs::read_to_string(c.shard_log_path(shard)).ok();
        let same = (0..ONE_THREAD_UNITS).all(|shard| {
            let a = log(&one, shard);
            a.is_some() && a == log(&campaign, shard)
        });
        let _ = std::fs::remove_dir_all(one.dir());
        report.gate(same, || {
            format!("shard logs differ between {} threads and 1", ctx.threads)
        });
    }
    let gated = gates(shape, &campaign, ctx, report);
    let _ = std::fs::remove_dir_all(campaign.dir());
    gated
}

/// CPU time of the whole process, every thread included, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). Time the hypervisor gives the virtual
/// CPU to another guest is not counted.
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The distinct draws of one census unit, exactly as the engine makes
/// them: the stratum's own SplitMix64 stream, sorted and deduplicated.
fn unit_draws(cfg: &CampaignConfig, strata: &[Stratum], shard: u64) -> Result<Vec<u64>, String> {
    let Mode::Census { per_stratum, .. } = cfg.mode else {
        return Err("not a census campaign".into());
    };
    let mut rng = SplitMix64::new(unit_seed(cfg.seed, shard, STREAM_SAMPLE));
    let mut draws = (0..per_stratum)
        .map(|_| strata[shard as usize].draw(cfg.width, &mut rng))
        .collect::<Result<Vec<u64>, _>>()
        .map_err(|e| e.to_string())?;
    draws.sort_unstable();
    draws.dedup();
    Ok(draws)
}

/// Correctness gates, outside the timed window.
fn gates(shape: &Shape, campaign: &Campaign, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let cfg = campaign.config();
    let survivors = campaign.survivors().map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::new(sub_seed(ctx.seed, u64::MAX));
    if shape.is_census() {
        for k in HD6_AT_MTU {
            let v = hd_filter(&g32(k)?, 12_112, 6).map_err(|e| e.to_string())?;
            report.gate(v.passed(), || {
                format!("{k:#X} must pass HD >= 6 at 12112 bits, got {v:?}")
            });
        }
        let v = hd_filter(&g32(IEEE_802_3)?, 12_112, 6).map_err(|e| e.to_string())?;
        report.gate(v == FilterVerdict::FailAt(4), || {
            format!("802.3 must fail at weight 4, got {v:?}")
        });
        // A seeded subsample of rejections agrees with the scratch oracle.
        let strata = strata(cfg).map_err(|e| e.to_string())?;
        let mut rejected = Vec::new();
        for shard in 0..cfg.shards {
            let draws = unit_draws(cfg, &strata, shard)?;
            rejected.extend(
                draws
                    .into_iter()
                    .filter(|k| survivors.iter().all(|s| s.koopman != *k)),
            );
        }
        for _ in 0..REFERENCE_SAMPLE.min(rejected.len()) {
            let k = rejected.swap_remove(rng.next_below(rejected.len() as u64) as usize);
            let g = g32(k)?;
            let fast = hd_filter(&g, cfg.screen_len(), cfg.min_hd).map_err(|e| e.to_string())?;
            let slow = reference::hd_filter(&g, cfg.screen_len(), cfg.min_hd)
                .map_err(|e| e.to_string())?;
            report.gate(fast == slow && !fast.passed(), || {
                format!("{k:#X}: workspace {fast:?}, reference {slow:?}")
            });
        }
    } else {
        report.gate(!survivors.is_empty(), || "no survivors to check".into());
        let mut pool = survivors;
        for _ in 0..REFERENCE_SURVIVORS.min(pool.len()) {
            let rec = pool.swap_remove(rng.next_below(pool.len() as u64) as usize);
            let g = rec.poly();
            let profile = reference::profile(&g, rec.ref_len, rec.max_weight_explored)
                .map_err(|e| e.to_string())?;
            report.gate(profile.dmins() == rec.dmins.as_slice(), || {
                format!(
                    "{:#X}: profile {:?}, reference {:?}",
                    rec.koopman,
                    rec.dmins,
                    profile.dmins()
                )
            });
            let w2 = crc_hd::weights::weight2(&g, rec.ref_len).map_err(|e| e.to_string())?;
            report.gate(w2 == rec.w2, || {
                format!("{:#X}: W2 {}, reference {w2}", rec.koopman, rec.w2)
            });
            if let Some(w34) = rec.w34 {
                let w = reference::weights234(&g, rec.ref_len).map_err(|e| e.to_string())?;
                report.gate((w.w3, w.w4) == w34, || {
                    format!(
                        "{:#X}: (W3, W4) {w34:?}, reference ({}, {})",
                        rec.koopman, w.w3, w.w4
                    )
                });
            }
        }
    }
    Ok(())
}

/// Per-candidate counts the replay keeps alongside its spans.
#[derive(Default)]
struct Counts {
    /// Candidates, hd_pass, profiled, weights, recorded — the funnel
    /// telemetry's stages.
    funnel: [u64; 5],
    /// Filter rejections by the weight that killed them (index = weight).
    kills: [u64; 8],
    syndromes: u64,
    positions: u64,
    spill_rows: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        for i in 0..5 {
            self.funnel[i] += o.funnel[i];
        }
        for i in 0..8 {
            self.kills[i] += o.kills[i];
        }
        self.syndromes += o.syndromes;
        self.positions += o.positions;
        self.spill_rows += o.spill_rows;
    }
}

fn weight_span(w: u32) -> &'static str {
    match w {
        2 => "workspace.w2",
        3 => "workspace.w3",
        4 => "workspace.w4",
        _ => "workspace.mitm",
    }
}

/// `hd_filter_in`'s documented order, one span per call: bind, then
/// `exists_weight(w)` for `w = 2..min_hd` (odd weights skipped when
/// `x + 1` divides `g`), stopping at the first weight present. The
/// verdict must equal `hd_filter_in`'s on the same workspace.
fn filter_kernels(
    cfg: &CampaignConfig,
    ws: &mut SyndromeWorkspace,
    g: &GenPoly,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<FilterVerdict, String> {
    let k = g.koopman();
    tr.span("workspace.bind", k, || ws.bind(g));
    let codeword = cfg.screen_len() + g.width();
    let mut verdict = FilterVerdict::Pass;
    for w in 2..cfg.min_hd {
        if g.divisible_by_x_plus_1() && w % 2 == 1 {
            continue;
        }
        let hit = tr.span(weight_span(w), k, || ws.exists_weight(g, w, codeword));
        if hit.map_err(|e| e.to_string())? {
            verdict = FilterVerdict::FailAt(w);
            counts.kills[(w as usize).min(7)] += 1;
            break;
        }
    }
    let official = hd_filter_in(ws, g, cfg.screen_len(), cfg.min_hd).map_err(|e| e.to_string())?;
    if official != verdict {
        return Err(format!(
            "{k:#X}: replayed filter {verdict:?}, hd_filter_in {official:?}"
        ));
    }
    Ok(verdict)
}

/// `HdProfile::compute_in`'s `d_min` chain, one span per call (weights
/// 5 and up are the meet-in-the-middle searches, `workspace.mitm` as in
/// the filter); the profile `compute_in` then returns from the deposited
/// memo must match.
fn profile_kernels(
    cfg: &CampaignConfig,
    ws: &mut SyndromeWorkspace,
    g: &GenPoly,
    tr: &mut Tracer,
) -> Result<HdProfile, String> {
    let k = g.koopman();
    let r = g.width();
    let order = ws.order(g);
    let degree_cap = cfg.ref_len() + r - 1;
    let mut dmins = Vec::new();
    let mut best = degree_cap + 1;
    if order <= u128::from(degree_cap) {
        best = order as u32;
        dmins.push((2, best));
    }
    let mut w = 3;
    while w <= cfg.max_weight && best > r {
        if g.divisible_by_x_plus_1() && w % 2 == 1 {
            w += 1;
            continue;
        }
        let cap = best - 1;
        if cap < w - 1 {
            break;
        }
        let name = match w {
            3 => "workspace.dmin3",
            4 => "workspace.dmin4",
            _ => "workspace.mitm",
        };
        if let Some(d) = tr
            .span(name, k, || ws.dmin(g, w, cap))
            .map_err(|e| e.to_string())?
        {
            best = d;
            dmins.push((w, d));
        }
        w += 1;
    }
    let profile =
        HdProfile::compute_in(ws, g, cfg.ref_len(), cfg.max_weight).map_err(|e| e.to_string())?;
    if profile.dmins() != dmins.as_slice() {
        return Err(format!(
            "{k:#X}: replayed profile {dmins:?}, compute_in {:?}",
            profile.dmins()
        ));
    }
    Ok(profile)
}

/// The paper's HD = 6 generators profiled at the MTU to the workload's
/// `max_weight`, with the replay's span names. Each `d_min(6)` is a
/// meet-in-the-middle search. The census draws reach weight 5 about once
/// in a few hundred, so `workspace.mitm_us` is timed on this fixed work,
/// once per traced run; the draws' own searches give `workspace.mitm_share`.
fn mitm_probe(cfg: &CampaignConfig) -> Result<Vec<Span>, String> {
    let mut tr = Tracer::new(Instant::now());
    let mut ws = SyndromeWorkspace::new();
    for k in HD6_AT_MTU {
        let g = g32(k)?;
        tr.open("probe.hd6", k);
        let profiled = profile_kernels(cfg, &mut ws, &g, &mut tr);
        tr.close();
        let profile = profiled?;
        if profile.dmins().first().map(|&(w, _)| w) != Some(6) {
            return Err(format!(
                "{k:#X} at {} bits: profile {:?}, expected HD 6",
                cfg.ref_len(),
                profile.dmins()
            ));
        }
    }
    Ok(tr.into_spans())
}

/// One candidate through the campaign's stages (`SurvivorRecord::screen_in`
/// call by call).
fn replay_candidate(
    cfg: &CampaignConfig,
    ws: &mut SyndromeWorkspace,
    g: &GenPoly,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<Option<SurvivorRecord>, String> {
    let k = g.koopman();
    counts.funnel[0] += 1;
    tr.open("funnel.filter", k);
    let filtered = filter_kernels(cfg, ws, g, tr, counts);
    tr.close();
    if !filtered?.passed() {
        return Ok(None);
    }
    counts.funnel[1] += 1;
    tr.open("funnel.profile", k);
    let profiled = profile_kernels(cfg, ws, g, tr);
    tr.close();
    let profile = profiled?;
    counts.funnel[2] += 1;
    let ref_len = cfg.ref_len();
    let weighed = tr.span("funnel.weights", k, || -> crc_hd::Result<_> {
        let w2 = ws.weight2(g, ref_len)?;
        let w34 = if u128::from(ref_len + g.width()) <= profile.order() {
            let w = ws.weights234(g, ref_len)?;
            Some((w.w3, w.w4))
        } else {
            None
        };
        Ok((w2, w34))
    });
    let (w2, w34) = weighed.map_err(|e| e.to_string())?;
    counts.funnel[3] += u64::from(w34.is_some());
    tr.open("funnel.classify", k);
    let class = tr.span("classify.factor", k, || {
        gf2poly::factor(g.to_poly()).signature().to_string()
    });
    let taps = engine_cost(g).taps;
    tr.close();
    counts.funnel[4] += 1;
    Ok(Some(tr.span("funnel.record", k, || SurvivorRecord {
        koopman: k,
        width: g.width(),
        class,
        taps,
        order: profile.order(),
        dmins: profile.dmins().to_vec(),
        memo: ws.memo_facts(g),
        max_weight_explored: profile.max_weight_explored(),
        ref_len,
        w2,
        w34,
    })))
}

/// One work unit: its draws, every candidate, and the shard log rendered
/// and written. Returns the log text and the unit's counts.
fn replay_unit(
    cfg: &CampaignConfig,
    strata: &[Stratum],
    dir: &Path,
    ws: &mut SyndromeWorkspace,
    shard: u64,
    tr: &mut Tracer,
) -> Result<(String, Counts), String> {
    let mut counts = Counts::default();
    let draws = unit_draws(cfg, strata, shard)?;
    let mut survivors = Vec::new();
    let mut canonical = 0;
    for &k in &draws {
        let g = g32(k)?;
        if g.koopman() <= g.reciprocal().koopman() {
            canonical += 1;
        }
        tr.open("survey.candidate", k);
        let screened = replay_candidate(cfg, ws, &g, tr, &mut counts);
        tr.close();
        counts.syndromes += ws.syndromes_known() as u64;
        counts.positions += u64::from(ws.positions_indexed());
        counts.spill_rows += ws.two_level_spill_rows() as u64;
        survivors.extend(screened?);
    }
    let Mode::Census { per_stratum, .. } = cfg.mode else {
        return Err("not a census campaign".into());
    };
    let result = ShardResult {
        unit: WorkUnit {
            shard,
            start: 0,
            end: per_stratum,
        },
        scanned: draws.len() as u64,
        canonical,
        survivors,
    };
    let path = dir.join(format!("shard-{shard:05}.json"));
    let written = tr.span("engine.record", shard, || {
        let text = result.to_json(cfg.content_hash()).render();
        std::fs::write(&path, &text).map(|()| text)
    });
    Ok((
        written.map_err(|e| format!("write {}: {e}", path.display()))?,
        counts,
    ))
}

/// Engine figures from one replay: unit times, busy share and tail idle.
struct EngineFigures {
    unit_ms: Vec<f64>,
    busy_share: f64,
    tail_idle_s: f64,
}

fn engine_figures(spans: &[Vec<Span>], wall_ns: u64, threads: usize) -> EngineFigures {
    let units: Vec<&Span> = spans
        .iter()
        .flatten()
        .filter(|s| s.name == "survey.unit")
        .collect();
    let busy: u64 = units.iter().map(|s| s.dur_ns()).sum();
    let tail_idle_ns: u64 = spans
        .iter()
        .map(|t| wall_ns.saturating_sub(t.iter().map(|s| s.end_ns).max().unwrap_or(0)))
        .sum();
    EngineFigures {
        unit_ms: units.iter().map(|s| s.dur_ns() as f64 / 1e6).collect(),
        busy_share: busy as f64 / (threads as f64 * wall_ns as f64),
        tail_idle_s: tail_idle_ns as f64 / 1e9,
    }
}

pub fn traced(
    shape: &Shape,
    ctx: &Ctx,
    budget: Duration,
    report: &mut Report,
) -> Result<(), String> {
    let mut all_spans: Vec<Vec<Span>> = Vec::new();
    let mut counts = Counts::default();
    let mut overheads = Vec::new();
    let mut unit_ms = Vec::new();
    let mut busy_shares = Vec::new();
    let mut tail_idle = Vec::new();
    let t0 = Instant::now();
    let probe = if shape.is_census() {
        mitm_probe(&shape.config(ctx.seed))?
    } else {
        Vec::new()
    };
    let budget = budget.saturating_sub(t0.elapsed());
    repeat_within(budget, 1, |k| {
        let mut campaign = setup(shape, ctx, k, "traced")?;
        let (summary, untraced_s, funnel) = run_untraced(&mut campaign, ctx.threads)?;
        let cfg = campaign.config().clone();
        let strata = strata(&cfg).map_err(|e| e.to_string())?;
        let dir = ctx.out_dir.join(format!("{}-{k}-replay", shape.name));
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let epoch = Instant::now();
        let (units, spans) = trace::pool(
            ctx.threads,
            cfg.shards as usize,
            epoch,
            SyndromeWorkspace::new,
            |ws, shard, tr| {
                tr.open("survey.unit", shard as u64);
                let r = replay_unit(&cfg, &strata, &dir, ws, shard as u64, tr);
                tr.close();
                r
            },
        );
        let wall_ns = epoch.elapsed().as_nanos() as u64;
        let mut rep_counts = Counts::default();
        for (shard, unit) in units.into_iter().enumerate() {
            let (log, c) = unit?;
            rep_counts.add(&c);
            let path = campaign.shard_log_path(shard as u64);
            let original = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            report.gate(log == original, || {
                format!("replayed shard log {shard} differs from {}", path.display())
            });
        }
        report.ops(rep_counts.funnel[0], 0);
        report.gate(
            rep_counts.funnel == funnel && funnel[0] == summary.scanned,
            || {
                format!(
                    "replay funnel {:?} differs from survey.funnel telemetry {funnel:?}",
                    rep_counts.funnel
                )
            },
        );
        counts.add(&rep_counts);
        overheads.push(wall_ns as f64 / 1e9 / untraced_s - 1.0);
        let e = engine_figures(&spans, wall_ns, ctx.threads);
        unit_ms.extend(e.unit_ms);
        busy_shares.push(e.busy_share);
        tail_idle.push(e.tail_idle_s);
        all_spans.extend(spans);
        let _ = std::fs::remove_dir_all(campaign.dir());
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    })?;

    let (by_name, busy_ns) = trace::layers(&all_spans);
    let empty = trace::Layer::default();
    let layer = |name: &str| by_name.get(name).unwrap_or(&empty);
    let per = |name: &str, scale: f64| -> Vec<f64> {
        layer(name).durs.iter().map(|&d| d as f64 / scale).collect()
    };
    let share = |name: &str| layer(name).total_ns() as f64 / busy_ns as f64;
    let candidates = counts.funnel[0].max(1) as f64;

    report.metric("engine.unit_ms_p50", median(&unit_ms), "ms");
    report.metric(
        "engine.unit_ms_max",
        unit_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    report.metric("engine.busy_share", median(&busy_shares), "share");
    report.metric("engine.tail_idle_s", median(&tail_idle), "s");
    report.metric("engine.record_ms", median(&per("engine.record", 1e6)), "ms");
    report.summary(
        "funnel.filter_us",
        Summary::of(&per("funnel.filter", 1e3)),
        "us",
    );
    report.metric("funnel.filter_share", share("funnel.filter"), "share");
    if shape.is_census() {
        report.summary(
            "workspace.bind_us",
            Summary::of(&per("workspace.bind", 1e3)),
            "us",
        );
        report.summary(
            "workspace.w2_us",
            Summary::of(&per("workspace.w2", 1e3)),
            "us",
        );
        report.summary(
            "workspace.w3_us",
            Summary::of(&per("workspace.w3", 1e3)),
            "us",
        );
        report.summary(
            "workspace.w4_us",
            Summary::of(&per("workspace.w4", 1e3)),
            "us",
        );
        report.metric("workspace.w4_share", share("workspace.w4"), "share");
        let (probe_layers, _) = trace::layers(std::slice::from_ref(&probe));
        let mitm: Vec<f64> = probe_layers
            .get("workspace.mitm")
            .map_or_else(Vec::new, |l| {
                l.durs.iter().map(|&d| d as f64 / 1e3).collect()
            });
        report.summary("workspace.mitm_us", Summary::of(&mitm), "us");
        report.metric("workspace.mitm_share", share("workspace.mitm"), "share");
        for w in 2..=5 {
            report.metric(
                &format!("workspace.kills_w{w}"),
                counts.kills[w] as f64,
                "count",
            );
        }
        report.metric(
            "workspace.syndromes_per_poly",
            counts.syndromes as f64 / candidates,
            "count",
        );
        report.metric(
            "workspace.positions_per_poly",
            counts.positions as f64 / candidates,
            "count",
        );
        report.metric(
            "workspace.spill_rows",
            counts.spill_rows as f64 / candidates,
            "count",
        );
    } else {
        report.summary(
            "funnel.profile_ms",
            Summary::of(&per("funnel.profile", 1e6)),
            "ms",
        );
        report.metric("funnel.profile_share", share("funnel.profile"), "share");
        report.summary(
            "funnel.weights_ms",
            Summary::of(&per("funnel.weights", 1e6)),
            "ms",
        );
        report.metric("funnel.weights_share", share("funnel.weights"), "share");
        report.summary(
            "funnel.classify_us",
            Summary::of(&per("funnel.classify", 1e3)),
            "us",
        );
        report.summary(
            "funnel.record_us",
            Summary::of(&per("funnel.record", 1e3)),
            "us",
        );
        report.metric(
            "funnel.pass_share",
            counts.funnel[1] as f64 / candidates,
            "share",
        );
        report.summary(
            "classify.factor_us",
            Summary::of(&per("classify.factor", 1e3)),
            "us",
        );
    }
    report.metric("trace.overhead_share", median(&overheads), "share");
    all_spans.push(probe);
    trace::save(ctx, shape.name, &all_spans)
}
