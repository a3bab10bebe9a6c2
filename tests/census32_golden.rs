//! 32-bit census goldens: two small census-mode campaigns over the
//! paper's own 32-bit space, diffed byte for byte against shard logs
//! committed under `tests/golden/`.
//!
//! * `census32_hd6_mtu` — one draw from each of the 32 tap-count strata,
//!   screened for HD ≥ 6 at the 12112-bit Ethernet MTU (§4's question):
//!   nearly every draw dies in the weight-4 hunt, and none of these 32
//!   survives, so this pins the screen's pass/fail split and counts.
//! * `census32_hd4_1024` — one draw per stratum screened for HD ≥ 4 at
//!   1024 bits, profiled to weight 4 and weighed at 1024: 29 of 32
//!   survive, so this pins survivor records, memo facts and
//!   `weights234` counts.
//!
//! Each golden file is the campaign's 32 shard logs concatenated in
//! shard order, exactly as `Campaign::run` wrote them (2 threads; shard
//! logs are byte-identical at every thread count). The goldens were
//! written by the code that still hunted weight 3 before weight 4 and
//! probed a fixed 2^20-bucket directory, so a kernel, index or
//! evaluation-order change that moves a byte fails here.

use crc_survey::campaign::{CampaignConfig, Mode};
use crc_survey::engine::Campaign;
use std::path::{Path, PathBuf};

fn config(min_hd: u32, len: u32, max_weight: u32) -> CampaignConfig {
    CampaignConfig {
        width: 32,
        shards: 32, // one unit per tap-count stratum
        seed: 2002,
        mode: Mode::Census {
            per_stratum: 1,
            classes: Vec::new(),
        },
        min_hd,
        target_lengths: vec![len],
        ber_grid: vec![1e-5, 1e-6],
        max_weight,
    }
}

/// Runs the campaign into a fresh temporary directory and compares its
/// shard logs, concatenated in shard order, with the golden file.
fn assert_matches_golden(name: &str, cfg: CampaignConfig) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("crc-census32-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut campaign = Campaign::create(&dir, cfg).unwrap();
    campaign.run(2, None).unwrap();
    assert!(campaign.is_complete());
    let logs: Vec<String> = (0..32)
        .map(|shard| std::fs::read_to_string(campaign.shard_log_path(shard)).unwrap())
        .collect();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.shards"));
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    let mut offset = 0;
    for (shard, log) in logs.iter().enumerate() {
        assert_eq!(
            golden.get(offset..offset + log.len()),
            Some(log.as_str()),
            "{name}: shard {shard} differs from {}",
            golden_path.display()
        );
        offset += log.len();
    }
    assert_eq!(
        offset,
        golden.len(),
        "{name}: golden holds more than 32 logs"
    );
}

#[test]
fn census32_hd6_at_mtu_matches_golden_shard_logs() {
    assert_matches_golden("census32_hd6_mtu", config(6, 12_112, 6));
}

#[test]
fn census32_hd4_at_1024_matches_golden_shard_logs() {
    assert_matches_golden("census32_hd4_1024", config(4, 1024, 4));
}
