//! Tier-1 simulator anchor: three scenarios of the `sim_determinism`
//! suite, rebuilt through the umbrella crate with the same seeds and
//! configurations, must render rows found verbatim in the committed
//! golden `tests/golden/sim_determinism.json` — at one worker thread and
//! at three.
//!
//! The scenarios cover the XOR-delta path (`bsc_1e-4_mtu`), the eager path
//! (`jammer_hdlc_mtu`) and the oracle-scale CRC-8 weighted trials whose
//! undetected count is nonzero (`crc8_weighted_k4`). CI's
//! `sim-determinism` job diffs the whole suite against the same file.

use koopman_crc::crckit::catalog;
use koopman_crc::netsim::channel::{BscChannel, JammerChannel};
use koopman_crc::netsim::frame::FrameCodec;
use koopman_crc::netsim::montecarlo::{Simulator, TrialConfig, TrialStats};

const GOLDEN: &str = include_str!("golden/sim_determinism.json");

/// One scenario row, rendered exactly as `sim_determinism` writes it.
fn row(name: &str, seed: u64, s: &TrialStats) -> String {
    format!(
        "    {{\"scenario\": \"{name}\", \"seed\": {seed}, \"clean\": {}, \"detected\": {}, \
         \"undetected\": {}, \"bits_flipped\": {}}}",
        s.clean, s.detected, s.undetected, s.bits_flipped
    )
}

fn assert_in_golden(rendered: &str) {
    assert!(
        GOLDEN
            .lines()
            .any(|line| line.strip_suffix(',').unwrap_or(line) == rendered),
        "row not in tests/golden/sim_determinism.json:\n{rendered}"
    );
}

#[test]
fn sim_rows_match_the_golden_at_one_and_three_threads() {
    let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
    let codec8 = FrameCodec::new(catalog::CRC8_SMBUS);
    let bsc = TrialConfig {
        payload_len: 1_514,
        trials: 50_000,
        seed: 0xD17E_0001,
    };
    let jammer = TrialConfig {
        payload_len: 1_514,
        trials: 20_000,
        seed: 0xD17E_0006,
    };
    for threads in [1usize, 3] {
        let sim = Simulator::new().threads(threads);
        let s = sim.run(&codec, &BscChannel::new(1e-4), &bsc);
        assert_in_golden(&row("bsc_1e-4_mtu", bsc.seed, &s));
        let s = sim.run(&codec, &JammerChannel::hdlc(0.25), &jammer);
        assert_in_golden(&row("jammer_hdlc_mtu", jammer.seed, &s));
        let s = sim.run_weighted(&codec8, 2, 4, 60_000, 0xD17E_0004);
        assert!(
            s.undetected > 0,
            "CRC-8 weighted trials see undetected events"
        );
        assert_in_golden(&row("crc8_weighted_k4", 0xD17E_0004, &s));
    }
}
