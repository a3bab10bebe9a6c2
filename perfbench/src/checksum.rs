//! `checksum_imix`: seeded streams of CRC-32/ISO-HDLC `Crc::checksum`
//! calls, one per thread on `nproc` threads, on IMIX packets (40, 576 and
//! 1500 bytes in a 7:4:1 mix — the packet sizes marked on the paper's
//! Figure 1), plus 64 KiB buffers for the bulk folding rate. No other
//! workload would move under an engine change: `crckit` is at most a
//! fifth of any of them.

use crate::report::Report;
use crate::stats::{interquartile_mean, median, Summary};
use crate::trace::{self, Tracer};
use crate::{sub_seed, Ctx};
use crckit::catalog::{self, CRC32_ISO_HDLC};
use crckit::{Crc, EngineKind};
use gf2poly::SplitMix64;
use std::time::{Duration, Instant};

/// IMIX packet sizes and their weights.
const IMIX: [(usize, u64); 3] = [(40, 7), (576, 4), (1500, 1)];
/// Distinct packets: about 350 KB, so packets and the engine's tables stay
/// in a core's L2 and the rate measures the engine, not the memory system
/// the host shares with its other tenants.
const PACKETS: usize = 1024;
/// Packet references per pass (about 4 ms): a sequence far longer than a
/// branch predictor can learn, so size-dependent branches mispredict as
/// they would on live traffic.
const IMIX_CALLS: usize = 1 << 16;
const BULK_LEN: usize = 64 << 10;
const BULK_BUFFERS: usize = 4;
/// 64 KiB references per pass (about 4 ms).
const BULK_CALLS: usize = 1 << 10;
const SETUPS: usize = 5;
/// The timed run alternates IMIX and bulk passes in this many blocks, so
/// that both rates sample the whole run; each rate is the interquartile
/// mean of its blocks' rates.
const BLOCKS: u32 = 48;
/// Calls per traced `crckit.checksum` span.
const SPAN_CALLS: usize = 256;

fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut v: Vec<u8> = (0..len.div_ceil(8))
        .flat_map(|_| rng.next_u64().to_le_bytes())
        .collect();
    v.truncate(len);
    v
}

fn buffers(seed: u64, count: usize, len: usize) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed);
    (0..count).map(|_| random_bytes(&mut rng, len)).collect()
}

/// An order-sensitive fold of every checksum of one pass.
fn digest(sums: impl Iterator<Item = u64>) -> u64 {
    sums.fold(0, |d, c| d.rotate_left(7) ^ c)
}

/// A seeded call sequence: each pass checksums `bufs[i]` for every `i`
/// in `order`.
struct Stream {
    bufs: Vec<Vec<u8>>,
    order: Vec<u32>,
}

impl Stream {
    fn new(seed: u64, bufs: Vec<Vec<u8>>, calls: usize) -> Stream {
        let mut rng = SplitMix64::new(seed);
        let order = (0..calls)
            .map(|_| rng.next_below(bufs.len() as u64) as u32)
            .collect();
        Stream { bufs, order }
    }

    fn imix(seed: u64) -> Stream {
        let total: u64 = IMIX.iter().map(|&(_, w)| w).sum();
        let mut rng = SplitMix64::new(seed);
        let packets = (0..PACKETS)
            .map(|_| {
                let mut pick = rng.next_below(total);
                let len = IMIX
                    .iter()
                    .find(|&&(_, w)| {
                        let hit = pick < w;
                        pick = pick.saturating_sub(w);
                        hit
                    })
                    .map_or(IMIX[0].0, |&(len, _)| len);
                random_bytes(&mut rng, len)
            })
            .collect();
        Stream::new(sub_seed(seed, 0), packets, IMIX_CALLS)
    }

    fn bulk(seed: u64) -> Stream {
        Stream::new(
            sub_seed(seed, 0),
            buffers(seed, BULK_BUFFERS, BULK_LEN),
            BULK_CALLS,
        )
    }

    /// The digest of one pass of `checksum`.
    fn pass(&self, mut checksum: impl FnMut(&[u8]) -> u64) -> u64 {
        digest(
            self.order
                .iter()
                .map(|&i| checksum(std::hint::black_box(&self.bufs[i as usize]))),
        )
    }
}

/// One IMIX and one bulk stream per worker thread.
struct Inputs {
    crc: Crc,
    imix: Vec<Stream>,
    bulk: Vec<Stream>,
}

/// Input generation, table and folding-constant construction, and two
/// warm-up passes over each stream.
fn setup(seed: u64, threads: usize) -> Inputs {
    let crc = Crc::new(CRC32_ISO_HDLC);
    let imix: Vec<Stream> = (0..threads as u64)
        .map(|t| Stream::imix(sub_seed(seed, 2 * t)))
        .collect();
    let bulk: Vec<Stream> = (0..threads as u64)
        .map(|t| Stream::bulk(sub_seed(seed, 2 * t + 1)))
        .collect();
    for s in imix.iter().chain(&bulk) {
        for _ in 0..2 {
            std::hint::black_box(s.pass(|b| crc.checksum(b)));
        }
    }
    Inputs { crc, imix, bulk }
}

/// The digest of one slice8 pass over each stream.
fn slice8_digests(crc: &Crc, streams: &[Stream]) -> Vec<u64> {
    streams
        .iter()
        .map(|s| s.pass(|b| crc.checksum_with(EngineKind::Slice8, b)))
        .collect()
}

/// Runs passes over every stream at once, one thread per stream, for
/// `budget`, and returns the sum over threads of each thread's calls per
/// second; every pass's digest must equal its slice8 replay's.
fn timed_passes(
    crc: &Crc,
    streams: &[Stream],
    expect: &[u64],
    budget: Duration,
    report: &mut Report,
) -> f64 {
    let per_thread: Vec<(u64, f64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(expect)
            .map(|(stream, &expect)| {
                scope.spawn(move || {
                    let (mut calls, mut bad) = (0, 0);
                    let t0 = Instant::now();
                    while calls == 0 || t0.elapsed() < budget {
                        let d = stream.pass(|b| crc.checksum(b));
                        calls += stream.order.len() as u64;
                        bad += u64::from(d != expect);
                    }
                    (calls, t0.elapsed().as_secs_f64(), bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checksum thread panicked"))
            .collect()
    });
    let mut rate = 0.0;
    for (calls, secs, bad) in per_thread {
        report.ops(calls, bad);
        report.gate(bad == 0, || {
            format!("{bad} passes disagree with the slice8 digest")
        });
        rate += calls as f64 / secs;
    }
    rate
}

/// Catalog check values hold on every engine tier.
fn catalog_gate(report: &mut Report) {
    for params in &catalog::ALL {
        let crc = Crc::new(*params);
        for kind in EngineKind::ALL {
            let got = crc.checksum_with(kind, b"123456789");
            report.gate(got == params.check, || {
                format!(
                    "{} on {kind}: {got:#x}, check value {:#x}",
                    params.name, params.check
                )
            });
        }
    }
}

pub fn e2e(ctx: &Ctx, budget: Duration, report: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = Some(std::hint::black_box(setup(ctx.seed, ctx.threads)));
        setups.push(t.elapsed().as_secs_f64());
    }
    let Inputs { crc, imix, bulk } = inputs.expect("SETUPS > 0");
    let (imix_digests, bulk_digests) = (slice8_digests(&crc, &imix), slice8_digests(&crc, &bulk));
    let (mut pkts, mut bufs) = (Vec::new(), Vec::new());
    let block = budget / (2 * BLOCKS);
    for _ in 0..BLOCKS {
        pkts.push(timed_passes(&crc, &imix, &imix_digests, block, report));
        bufs.push(timed_passes(&crc, &bulk, &bulk_digests, block, report));
    }
    let (pkts, bufs) = (interquartile_mean(&pkts), interquartile_mean(&bufs));
    catalog_gate(report);
    report.metric("setup_s", median(&setups), "s");
    report.metric("ops_per_s", pkts, "1/s");
    report.note("pkts_per_s", pkts, "1/s");
    report.metric("ops2_per_s", bufs, "1/s");
    report.note(
        "bulk_gib_per_s",
        bufs * BULK_LEN as f64 / (1u64 << 30) as f64,
        "GiB/s",
    );
    Ok(())
}

/// Times `calls` calls of `f` per sample for `budget`; ns per call.
fn per_call(budget: Duration, calls: usize, mut f: impl FnMut(usize) -> u64) -> Vec<f64> {
    let mut out = Vec::new();
    let t0 = Instant::now();
    while out.len() < 20 || t0.elapsed() < budget {
        let t = Instant::now();
        let mut acc = 0;
        for i in 0..calls {
            acc ^= f(i);
        }
        std::hint::black_box(acc);
        out.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    out
}

fn gib_per_s(ns_per_call: f64, len: usize) -> f64 {
    len as f64 / ns_per_call / (1u64 << 30) as f64 * 1e9
}

pub fn traced(ctx: &Ctx, budget: Duration, report: &mut Report) -> Result<(), String> {
    // One thread: the traced split times calls, not the host's cores.
    let Inputs { crc, imix, bulk } = setup(ctx.seed, 1);
    let (imix, bulk) = (&imix[0], &bulk[0]);
    let streams = std::slice::from_ref(imix);
    let expect = slice8_digests(&crc, streams)[0];
    let untraced = timed_passes(&crc, streams, &[expect], budget / 8, report);
    // The same passes with spans: one per pass, one per SPAN_CALLS calls.
    let mut tr = Tracer::new(Instant::now());
    let mut passes = 0;
    let t0 = Instant::now();
    while passes < 5 || t0.elapsed() < budget / 8 {
        tr.open("imix.pass", passes);
        let mut sums = Vec::with_capacity(imix.order.len());
        for (i, group) in imix.order.chunks(SPAN_CALLS).enumerate() {
            tr.span("crckit.checksum", (i * SPAN_CALLS) as u64, || {
                let bufs = group
                    .iter()
                    .map(|&p| std::hint::black_box(&imix.bufs[p as usize]));
                sums.extend(bufs.map(|b| crc.checksum(b)));
            });
        }
        let d = digest(sums.into_iter());
        tr.close();
        passes += 1;
        report.ops(imix.order.len() as u64, u64::from(d != expect));
        report.gate(d == expect, || {
            "a traced pass disagrees with the slice8 digest".into()
        });
    }
    let traced = (passes * imix.order.len() as u64) as f64 / t0.elapsed().as_secs_f64();
    let spans = vec![tr.into_spans()];
    let (by_name, busy_ns) = trace::layers(&spans);
    trace::save(ctx, "checksum_imix", &spans)?;
    let crckit_ns = by_name.get("crckit.checksum").map_or(0, |l| l.total_ns());
    report.metric("crckit.share", crckit_ns as f64 / busy_ns as f64, "share");

    // Per-call cost by packet size: 64 buffers of each size per sample.
    let slice = budget / 32;
    for len in [40, 64, 576, 1514] {
        let bufs = buffers(sub_seed(ctx.seed, len as u64), 64, len);
        let ns = per_call(slice, bufs.len(), |i| {
            crc.checksum(std::hint::black_box(&bufs[i]))
        });
        report.summary(&format!("crckit.call_ns_{len}"), Summary::of(&ns), "ns");
    }
    let ns = per_call(slice, bulk.bufs.len(), |i| {
        crc.checksum(std::hint::black_box(&bulk.bufs[i]))
    });
    report.metric(
        "crckit.gib_s_64k",
        gib_per_s(median(&ns), BULK_LEN),
        "GiB/s",
    );
    // Every tier on a 1514-byte frame and a 64 KiB buffer.
    let frames = buffers(sub_seed(ctx.seed, 1514), 64, 1514);
    for kind in [
        EngineKind::Slice8,
        EngineKind::Slice16,
        EngineKind::Chorba,
        EngineKind::Clmul,
    ] {
        let ns = per_call(slice, frames.len(), |i| {
            crc.checksum_with(kind, std::hint::black_box(&frames[i]))
        });
        report.metric(
            &format!("crckit.{kind}.gib_s_1514"),
            gib_per_s(median(&ns), 1514),
            "GiB/s",
        );
        let ns = per_call(slice, bulk.bufs.len(), |i| {
            crc.checksum_with(kind, std::hint::black_box(&bulk.bufs[i]))
        });
        report.metric(
            &format!("crckit.{kind}.gib_s_64k"),
            gib_per_s(median(&ns), BULK_LEN),
            "GiB/s",
        );
    }
    report.metric("trace.overhead_share", untraced / traced - 1.0, "share");
    catalog_gate(report);
    Ok(())
}
