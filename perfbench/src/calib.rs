//! Host-speed calibration for the campaign workloads.
//!
//! The campaign kernels are bound by random reads into the workspace's
//! 4 MiB two-level directory, and on a shared host the time of such reads
//! drifts by up to 2× over minutes with what other tenants do to the
//! caches and memory. A benchmark run is too short to average that out,
//! so each timed campaign sample is paired with this kernel, run just
//! before it on as many threads, and its rate is scaled by the kernel's
//! time against [`REFERENCE_S`].
//!
//! The kernel is a frozen copy of the access pattern, not of the program:
//! the pair sweep of a weight-4 search over the syndromes of CRC-32 at the
//! Ethernet MTU, with a 2^17-bit L1-resident screen and a 2^20-entry
//! directory. It lives here so that no change to the program can move it.

use std::hint::black_box;
use std::time::Instant;

/// Syndromes: a 12112-bit payload plus 32 check bits.
const LEN: usize = 12_144;
/// The sweep covers targets `START..LEN`: about 13 M pair probes.
const START: usize = 11_000;
const SCREEN_BITS: u32 = 17;
const DIR_BITS: u32 = 20;
/// CRC-32 (IEEE 802.3) in normal form.
const POLY: u32 = 0x04C1_1DB7;
const EMPTY: u32 = u32::MAX;

/// The calibration's median time on the 2-core x86_64 virtual machine the
/// benchmark was tuned on, in seconds. It only fixes the unit: a scaled
/// rate reads as the rate at that host speed.
pub const REFERENCE_S: f64 = 0.09;

pub struct Calibration {
    syn: Vec<u32>,
    screen: Vec<u64>,
    dir: Vec<u32>,
    /// The sweep's result, which every timed sweep must reproduce.
    hits: u64,
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut syn = Vec::with_capacity(LEN);
        let mut s = 1u32;
        for _ in 0..LEN {
            syn.push(s);
            s = (s << 1) ^ if s >> 31 == 1 { POLY } else { 0 };
        }
        let mut screen = vec![0u64; 1 << (SCREEN_BITS - 6)];
        let mut dir = vec![EMPTY; 1 << DIR_BITS];
        for (i, &v) in syn.iter().enumerate() {
            let low = v as usize & ((1 << SCREEN_BITS) - 1);
            screen[low >> 6] |= 1 << (low & 63);
            dir[(v >> (32 - DIR_BITS)) as usize] = i as u32;
        }
        let mut c = Calibration {
            syn,
            screen,
            dir,
            hits: 0,
        };
        c.hits = c.sweep();
        c
    }

    /// Pairs `(k, t)` with `syn[k] ^ syn[t] ^ 1` present in the
    /// directory's slot: screen first, then one directory read.
    fn sweep(&self) -> u64 {
        let (syn, screen, dir) = (&self.syn[..], &self.screen[..], &self.dir[..]);
        let mut hits = 0;
        for t in black_box(START)..LEN {
            let target = 1 ^ syn[t];
            for &s in &syn[1..t] {
                let v = target ^ s;
                let low = v as usize & ((1 << SCREEN_BITS) - 1);
                if screen[low >> 6] & (1 << (low & 63)) == 0 {
                    continue;
                }
                let p = dir[(v >> (32 - DIR_BITS)) as usize];
                hits += u64::from(p != EMPTY && syn[p as usize] == v);
            }
        }
        hits
    }

    /// Wall seconds for one sweep on each of `threads` threads at once.
    pub fn time(&self, threads: usize) -> f64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            let sweeps: Vec<_> = (0..threads).map(|_| s.spawn(|| self.sweep())).collect();
            for h in sweeps {
                let hits = h.join().expect("calibration sweep does not panic");
                assert_eq!(hits, self.hits, "calibration sweep is deterministic");
            }
        });
        t.elapsed().as_secs_f64()
    }
}
