//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metric catalogue and the per-layer → end-to-end predictions.
//!
//! ```text
//! perfbench --workload <name|all> --seed <u64> --seconds <1..=600> --trace <0|1>
//! ```

mod calib;
mod campaign;
mod checksum;
mod report;
mod sim;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "census32_hd6",
    "survivors32_mtu",
    "netsim_mtu",
    "checksum_imix",
];

/// Never used while the benchmark was written or tuned: a claimed gain
/// must also hold on this seed.
const HELD_OUT_SEED: u64 = 20_021_017;

const USAGE: &str =
    "usage: perfbench --workload <census32_hd6|survivors32_mtu|netsim_mtu|checksum_imix|all> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Strict flag parsing: every flag is required exactly once, as
/// `--flag value`; anything unknown, repeated or malformed is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if slot.replace(value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let workload = need(workload, "--workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed_text = need(seed, "--seed")?;
    let seed = seed_text
        .parse::<u64>()
        .map_err(|_| format!("--seed {seed_text:?} is not an unsigned integer"))?;
    let seconds_text = need(seconds, "--seconds")?;
    let seconds = seconds_text
        .parse::<u64>()
        .ok()
        .filter(|s| (1..=600).contains(s))
        .ok_or_else(|| format!("--seconds {seconds_text:?} is not an integer in 1..=600"))?;
    let trace = match need(trace, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is not 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What every workload needs to know about the run.
pub struct Ctx {
    pub seed: u64,
    /// Worker threads: `nproc`.
    pub threads: usize,
    /// Scratch space for campaign directories, under the build
    /// directory; removed when the run ends.
    pub out_dir: PathBuf,
    /// Where a traced run writes its spans (one CSV per workload).
    pub trace_dir: PathBuf,
}

/// A seed for repetition `k` of a workload, derived from the run seed
/// (SplitMix64 finalizer), so the same seed always yields the same inputs.
/// Kept here rather than borrowed from the program so that the inputs
/// never change with the code under test.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `rep(k)` for `k = 0, 1, …` while the budget lasts: a repetition
/// starts only if the time spent plus the slowest repetition so far still
/// fits. At least `min` repetitions run.
pub fn repeat_within(
    budget: Duration,
    min: usize,
    mut rep: impl FnMut(u64) -> Result<(), String>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut slowest = Duration::ZERO;
    let mut k = 0;
    while k < min as u64 || t0.elapsed() + slowest <= budget {
        let t = Instant::now();
        rep(k)?;
        slowest = slowest.max(t.elapsed());
        k += 1;
    }
    Ok(())
}

/// The checkout's git revision, read from `.git` without leaving the
/// working directory; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run_record(args: &Args, threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let pclmulqdq = std::arch::is_x86_feature_detected!("pclmulqdq");
    #[cfg(not(target_arch = "x86_64"))]
    let pclmulqdq = false;
    let engine = crckit::Crc::new(crckit::catalog::CRC32_ISO_HDLC).engine();
    let mut ws = crc_hd::SyndromeWorkspace::new();
    ws.bind(&crc_hd::GenPoly::from_koopman(32, 0x8260_8EDB).expect("802.3 is a valid generator"));
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \
         \"trace\": {}, \"nproc\": {nproc}, \"threads\": {threads}, \"pclmulqdq\": {pclmulqdq}, \
         \"crc_engine\": \"{engine}\", \"index_kind_w32\": \"{:?}\", \"git_revision\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ws.index_kind(),
        git_revision()
    )
}

/// The workloads a run measures, in order, with each one's share of the
/// budget. An untraced run measures the named workload (every workload,
/// one after another, for `all`) for the whole budget. A traced run prints
/// every per-layer metric, and the per-layer catalogue spans all four
/// workloads, so it measures the split of each of them: the named
/// workload first, for half the budget, then the other three in a sixth
/// each; `all` gives each a quarter.
fn plan(workload: &str, trace: bool, budget: Duration) -> Vec<(&'static str, Duration)> {
    if !trace {
        return WORKLOADS
            .into_iter()
            .filter(|w| workload == "all" || workload == *w)
            .map(|w| (w, budget))
            .collect();
    }
    if workload == "all" {
        return WORKLOADS.into_iter().map(|w| (w, budget / 4)).collect();
    }
    let named = WORKLOADS.into_iter().filter(|w| workload == *w);
    let others = WORKLOADS.into_iter().filter(|w| workload != *w);
    named
        .map(|w| (w, budget / 2))
        .chain(others.map(|w| (w, budget / 6)))
        .collect()
}

fn run_workload(name: &str, ctx: &Ctx, budget: Duration, trace: bool, report: &mut Report) {
    let outcome = match (name, trace) {
        ("census32_hd6", false) => campaign::e2e(&campaign::CENSUS32_HD6, ctx, budget, report),
        ("census32_hd6", true) => campaign::traced(&campaign::CENSUS32_HD6, ctx, budget, report),
        ("survivors32_mtu", false) => {
            campaign::e2e(&campaign::SURVIVORS32_MTU, ctx, budget, report)
        }
        ("survivors32_mtu", true) => {
            campaign::traced(&campaign::SURVIVORS32_MTU, ctx, budget, report)
        }
        ("netsim_mtu", false) => sim::e2e(ctx, budget, report),
        ("netsim_mtu", true) => sim::traced(ctx, budget, report),
        ("checksum_imix", false) => checksum::e2e(ctx, budget, report),
        ("checksum_imix", true) => checksum::traced(ctx, budget, report),
        _ => unreachable!("workload names are validated while parsing"),
    };
    if let Err(e) = outcome {
        report.gate(false, || format!("{name}: {e}"));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let ctx = Ctx {
        seed: args.seed,
        threads,
        out_dir: target.join(format!("perfbench-run-{}", std::process::id())),
        trace_dir: target.join("perfbench-traces"),
    };
    let dirs = if args.trace {
        vec![&ctx.out_dir, &ctx.trace_dir]
    } else {
        vec![&ctx.out_dir]
    };
    for dir in dirs {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("perfbench: create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    println!("run record: {}", run_record(&args, threads));

    let budget = Duration::from_secs(args.seconds);
    let mut report = Report::default();
    for (name, share) in plan(&args.workload, args.trace, budget) {
        println!("{name}{}:", if args.trace { " (traced split)" } else { "" });
        if args.trace || args.workload == "all" {
            report.set_prefix(format!("{name}."));
        }
        run_workload(name, &ctx, share, args.trace, &mut report);
    }
    let _ = std::fs::remove_dir_all(&ctx.out_dir);
    let ok = report.correct();
    println!("{}", report.json());
    std::process::exit(if ok { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload netsim_mtu --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "netsim_mtu".into(),
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_unknown_repeated_missing_and_malformed_flags() {
        let ok = "--workload all --seed 1 --seconds 5 --trace 0";
        assert!(parse_args(&argv(ok)).is_ok());
        for bad in [
            "--workload all --seed 1 --seconds 5 --trace 0 --reps 3",
            "--workload all --seed 1 --seed 2 --seconds 5 --trace 0",
            "--workload all --seed 1 --seconds 5",
            "--workload all --seed x --seconds 5 --trace 0",
            "--workload all --seed -1 --seconds 5 --trace 0",
            "--workload all --seed 1 --seconds 0 --trace 0",
            "--workload all --seed 1 --seconds 5 --trace yes",
            "--workload nope --seed 1 --seconds 5 --trace 0",
            "--workload all --seed 1 --seconds 5 --trace",
            "--workload=all --seed 1 --seconds 5 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn traced_runs_measure_every_workload_named_one_first() {
        let secs = Duration::from_secs;
        assert_eq!(
            plan("netsim_mtu", false, secs(12)),
            vec![("netsim_mtu", secs(12))]
        );
        assert_eq!(plan("all", false, secs(12)).len(), 4);
        assert_eq!(
            plan("netsim_mtu", true, secs(12)),
            vec![
                ("netsim_mtu", secs(6)),
                ("census32_hd6", secs(2)),
                ("survivors32_mtu", secs(2)),
                ("checksum_imix", secs(2)),
            ]
        );
        assert!(plan("all", true, secs(12))
            .iter()
            .all(|&(_, d)| d == secs(3)));
    }

    #[test]
    fn sub_seeds_are_deterministic_and_distinct() {
        assert_eq!(sub_seed(5, 3), sub_seed(5, 3));
        assert_ne!(sub_seed(5, 3), sub_seed(5, 4));
        assert_ne!(sub_seed(5, 3), sub_seed(6, 3));
    }
}
