//! `netsim_mtu`: the default sharded `Simulator` on CRC-32/ISO-HDLC with
//! 1514-byte payloads, in two phases that use `netsim` and `crckit` in
//! opposite proportions.
//!
//! * BSC at 1e-5 — the content-independent delta path: channel RNG for
//!   every frame, payload fill, seal and verify only for the ~11% of
//!   frames the channel corrupts.
//! * `JammerChannel::hdlc(0.25)` — the eager path: every frame is filled,
//!   sealed, scanned by the jammer and (when hit) verified.
//!
//! The traced run replays `Simulator::run`'s shard and stream layout
//! through the public pieces (`Channel::fork` / `corrupt_batch`,
//! `FrameCodec::seal` / `verify_batch`, the `shard_seed` streams) with one
//! span per stage per burst, and requires the replayed tallies to equal
//! the simulator's.

use crate::report::Report;
use crate::stats::{median, Summary};
use crate::trace::{self, Span, Tracer};
use crate::{repeat_within, sub_seed, Ctx};
use crckit::catalog::CRC32_ISO_HDLC;
use netsim::montecarlo::{shard_seed, STREAM_CHANNEL, STREAM_FILL};
use netsim::{BscChannel, Channel, FrameCodec, JammerChannel, Simulator, TrialConfig, TrialStats};
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const PAYLOAD: usize = 1514;
/// The BSC phase's bit error rate: about 11% of frames are corrupted. The
/// phase's time goes to the per-frame bookkeeping and to `crckit` on the
/// corrupted frames; the channel's produce stage is only 8–9% of it.
const BER: f64 = 1e-5;
const JAM_HIT: f64 = 0.25;
/// Frames per timed `Simulator::run` call (about 0.2 s per phase on a
/// 2-core x86_64 host).
const BSC_TRIALS: u64 = 4 << 20;
const EAGER_TRIALS: u64 = 1 << 18;
const SETUPS: usize = 5;

struct Phase {
    name: &'static str,
    channel: Box<dyn Channel>,
    trials: u64,
}

fn phases() -> [Phase; 2] {
    [
        Phase {
            name: "bsc",
            channel: Box::new(BscChannel::new(BER)),
            trials: BSC_TRIALS,
        },
        Phase {
            name: "eager",
            channel: Box::new(JammerChannel::hdlc(JAM_HIT)),
            trials: EAGER_TRIALS,
        },
    ]
}

fn config(trials: u64, seed: u64) -> TrialConfig {
    TrialConfig {
        payload_len: PAYLOAD,
        trials,
        seed,
    }
}

/// Codec and table construction, channels, and a short warm-up run of
/// each phase.
fn setup() -> (FrameCodec, [Phase; 2]) {
    let codec = FrameCodec::new(CRC32_ISO_HDLC);
    let phases = phases();
    for p in &phases {
        std::hint::black_box(Simulator::new().run(
            &codec,
            p.channel.as_ref(),
            &config(p.trials / 16, 1),
        ));
    }
    (codec, phases)
}

pub fn e2e(ctx: &Ctx, budget: Duration, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        built = Some(std::hint::black_box(setup()));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (codec, phases) = built.expect("SETUPS > 0");
    // The phases alternate, one timed run each per repetition, so that
    // both rates sample the whole run.
    let mut rates = [Vec::new(), Vec::new()];
    repeat_within(budget, 3, |k| {
        for (i, p) in phases.iter().enumerate() {
            let cfg = config(p.trials, sub_seed(ctx.seed, k));
            let t = Instant::now();
            let stats = Simulator::new().run(&codec, p.channel.as_ref(), &cfg);
            rates[i].push(p.trials as f64 / t.elapsed().as_secs_f64());
            // Every frame is tallied; on the BSC nothing gets through
            // (CRC-32 has HD >= 4 at this length and the BER makes
            // heavier patterns vanishingly rare).
            let bad_total = stats.total() != p.trials;
            let bad_bsc = p.name == "bsc" && stats.undetected != 0;
            report.ops(
                p.trials,
                u64::from(bad_total) + if bad_bsc { stats.undetected } else { 0 },
            );
            report.gate(!bad_total && !bad_bsc, || {
                format!("{}: tally {stats:?}", p.name)
            });
        }
        Ok(())
    })?;
    report.metric("setup_s", median(&setups), "s");
    report.metric("ops_per_s", median(&rates[0]), "1/s");
    report.note("frames_per_s", median(&rates[0]), "1/s");
    report.metric("ops2_per_s", median(&rates[1]), "1/s");
    report.note("eager_frames_per_s", median(&rates[1]), "1/s");
    // Gate: tallies are identical at 1 and nproc threads.
    for p in &phases {
        let cfg = config(p.trials / 4, sub_seed(ctx.seed, u64::MAX));
        let one = Simulator::new()
            .threads(1)
            .run(&codec, p.channel.as_ref(), &cfg);
        let many = Simulator::new()
            .threads(ctx.threads)
            .run(&codec, p.channel.as_ref(), &cfg);
        report.gate(one == many, || {
            format!(
                "{}: 1 thread {one:?}, {} threads {many:?}",
                p.name, ctx.threads
            )
        });
    }
    Ok(())
}

/// Reusable per-worker burst buffers.
#[derive(Default)]
struct Scratch {
    frames: Vec<Vec<u8>>,
    work: Vec<Vec<u8>>,
    flips: Vec<u32>,
}

/// One shard of `Simulator::run`, stage by stage: the same streams
/// (`shard_seed(seed, shard, STREAM_FILL / STREAM_CHANNEL)`), bursts of
/// `DEFAULT_BATCH` frames and the same draw order, so the tally matches
/// the simulator's. Within a burst the stages run one after another
/// (fill every frame, then seal every frame) so each gets one span.
fn replay_shard(
    codec: &FrameCodec,
    channel: &dyn Channel,
    seed: u64,
    shard: u64,
    count: u64,
    s: &mut Scratch,
    tr: &mut Tracer,
) -> TrialStats {
    let mut fill = rand::rngs::StdRng::seed_from_u64(shard_seed(seed, shard, STREAM_FILL));
    let mut ch = channel.fork(shard_seed(seed, shard, STREAM_CHANNEL));
    let delta = channel.content_independent();
    let overhead = codec.overhead();
    let mut stats = TrialStats::default();
    let mut left = count;
    let mut burst_no = 0;
    while left > 0 {
        let burst = (Simulator::DEFAULT_BATCH as u64).min(left) as usize;
        let req = shard * 1000 + burst_no;
        s.frames.resize_with(burst.max(s.frames.len()), Vec::new);
        let frames = &mut s.frames[..burst];
        tr.open("netsim.burst", req);
        if delta {
            tr.span("netsim.produce", req, || {
                for f in frames.iter_mut() {
                    f.resize(PAYLOAD + overhead, 0);
                }
                ch.corrupt_batch(frames, &mut s.flips);
            });
            let dirty: Vec<usize> = (0..burst).filter(|&i| s.flips[i] > 0).collect();
            s.work.resize_with(dirty.len().max(s.work.len()), Vec::new);
            let work = &mut s.work[..dirty.len()];
            tr.span("netsim.fill", req, || {
                for w in work.iter_mut() {
                    w.clear();
                    w.resize(PAYLOAD, 0);
                    fill.fill(&mut w[..]);
                }
            });
            tr.span("netsim.seal", req, || {
                work.iter_mut().for_each(|w| codec.seal(w))
            });
            tr.span("netsim.compose", req, || {
                for (&i, w) in dirty.iter().zip(work.iter()) {
                    frames[i].iter_mut().zip(w).for_each(|(d, w)| *d ^= w);
                }
            });
        } else {
            tr.span("netsim.fill", req, || {
                for f in frames.iter_mut() {
                    f.clear();
                    f.resize(PAYLOAD, 0);
                    fill.fill(&mut f[..]);
                }
            });
            tr.span("netsim.seal", req, || {
                frames.iter_mut().for_each(|f| codec.seal(f))
            });
            tr.span("netsim.jammer", req, || {
                ch.corrupt_batch(frames, &mut s.flips)
            });
        }
        let flips = &s.flips;
        let verdicts = tr.span("netsim.verify", req, || {
            let corrupted: Vec<&[u8]> = frames
                .iter()
                .zip(flips)
                .filter(|(_, &f)| f > 0)
                .map(|(f, _)| f.as_slice())
                .collect();
            codec.verify_batch(&corrupted)
        });
        let mut v = verdicts.into_iter();
        for &f in flips.iter() {
            stats.bits_flipped += u64::from(f);
            match (f, if f > 0 { v.next() } else { None }) {
                (0, _) => stats.clean += 1,
                (_, Some(true)) => stats.undetected += 1,
                _ => stats.detected += 1,
            }
        }
        if delta {
            for (f, &n) in frames.iter_mut().zip(flips) {
                if n > 0 {
                    f.iter_mut().for_each(|b| *b = 0);
                }
            }
        }
        tr.close();
        left -= burst as u64;
        burst_no += 1;
    }
    stats
}

pub fn traced(ctx: &Ctx, budget: Duration, report: &mut Report) -> Result<(), String> {
    let (codec, phases) = setup();
    let mut overheads = Vec::new();
    let mut spans: [Vec<Vec<Span>>; 2] = [Vec::new(), Vec::new()];
    let mut tallies = [TrialStats::default(); 2];
    for (i, p) in phases.iter().enumerate() {
        repeat_within(budget / 2, 1, |k| {
            let cfg = config(p.trials, sub_seed(ctx.seed, k));
            let t = Instant::now();
            let expect = Simulator::new().run(&codec, p.channel.as_ref(), &cfg);
            let untraced_s = t.elapsed().as_secs_f64();
            let shard_frames = Simulator::DEFAULT_SHARD_FRAMES;
            let shards = cfg.trials.div_ceil(shard_frames);
            let epoch = Instant::now();
            let (parts, rep_spans) = trace::pool(
                ctx.threads,
                shards as usize,
                epoch,
                Scratch::default,
                |s, shard, tr| {
                    let shard = shard as u64;
                    let count = shard_frames.min(cfg.trials - shard * shard_frames);
                    tr.open("netsim.shard", shard);
                    let stats =
                        replay_shard(&codec, p.channel.as_ref(), cfg.seed, shard, count, s, tr);
                    tr.close();
                    stats
                },
            );
            let traced_s = epoch.elapsed().as_secs_f64();
            let mut got = TrialStats::default();
            parts.iter().for_each(|s| got.merge(s));
            report.ops(cfg.trials, u64::from(got != expect));
            report.gate(got == expect, || {
                format!("{}: replay {got:?}, simulator {expect:?}", p.name)
            });
            tallies[i].merge(&got);
            overheads.push(traced_s / untraced_s - 1.0);
            spans[i].extend(rep_spans);
            Ok(())
        })?;
    }
    for ((p, threads), tally) in phases.iter().zip(&spans).zip(&tallies) {
        let (by_name, busy_ns) = trace::layers(threads);
        // Every burst is DEFAULT_BATCH frames: the trial counts are
        // multiples of it.
        let per_frame = |stage: &str| -> Vec<f64> {
            by_name.get(stage).map_or_else(Vec::new, |l| {
                l.durs
                    .iter()
                    .map(|&d| d as f64 / Simulator::DEFAULT_BATCH as f64)
                    .collect()
            })
        };
        let share = |stage: &str| {
            by_name
                .get(stage)
                .map_or(0.0, |l| l.total_ns() as f64 / busy_ns as f64)
        };
        let pre = format!("netsim.{}", p.name);
        let stages: &[&str] = if p.name == "bsc" {
            &["produce", "fill", "seal", "verify"]
        } else {
            &["fill", "seal", "jammer", "verify"]
        };
        for stage in stages {
            let key = format!("netsim.{stage}");
            report.summary(
                &format!("{pre}.{stage}_ns"),
                Summary::of(&per_frame(&key)),
                "ns",
            );
        }
        let corrupted = tally.corrupted() as f64 / tally.total() as f64;
        report.metric(&format!("{pre}.corrupted_share"), corrupted, "share");
        // The stage the phase was chosen for, and the share of `crckit`
        // (seal + verify) in it.
        // The burst's own time: tallying, the verify list, resetting the
        // delta frames — the simulator's per-frame bookkeeping.
        let bookkeeping: Vec<f64> = by_name["netsim.burst"]
            .selfs
            .iter()
            .map(|&d| d as f64 / Simulator::DEFAULT_BATCH as f64)
            .collect();
        report.metric(&format!("{pre}.burst_self_ns"), median(&bookkeeping), "ns");
        let dominant = if p.name == "bsc" { "produce" } else { "jammer" };
        report.metric(
            &format!("{pre}.{dominant}_share"),
            share(&format!("netsim.{dominant}")),
            "share",
        );
        let crckit = share("netsim.seal") + share("netsim.verify");
        report.metric(&format!("{pre}.crckit_share"), crckit, "share");
    }
    report.metric("trace.overhead_share", median(&overheads), "share");
    trace::save(ctx, "netsim_mtu", &spans.concat())
}
