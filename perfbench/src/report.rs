//! The result a run prints: human-readable metric lines as they are
//! measured, then one JSON object as the last line of standard output.

use crate::stats::Summary;

#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (candidates, frames, checksum calls).
    pub attempted: u64,
    /// Operations that failed: evaluation errors and mismatches.
    pub failed: u64,
    /// Correctness gates that did not hold.
    gate_failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Prepended to every metric name (`census32_hd6.` in traced runs).
    prefix: String,
}

impl Report {
    pub fn set_prefix(&mut self, prefix: String) {
        self.prefix = prefix;
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let name = format!("{}{name}", self.prefix);
        println!("  {name:<48} {value:>16.6} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// A timing as its median (`name`), tail (`name_tail`) and sample
    /// count (`name_n`).
    pub fn summary(&mut self, name: &str, s: Summary, unit: &'static str) {
        self.metric(name, s.p50, unit);
        self.metric(&format!("{name}_tail"), s.tail, unit);
        self.metric(&format!("{name}_n"), s.n as f64, "count");
    }

    /// A human-readable alias line that is not part of the JSON result
    /// (the workload-specific name of a generic end-to-end metric).
    pub fn note(&self, label: &str, value: f64, unit: &str) {
        println!("  ({label} = {value:.6} {unit})");
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a correctness gate; a gate that does not hold withholds
    /// every number from the result.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            println!("GATE FAILED: {msg}");
            self.gate_failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The final result line. A run that is not correct reports its
    /// counts and no metric.
    pub fn json(&self) -> String {
        let correct = self.correct();
        let metrics: Vec<String> = if correct {
            self.metrics
                .iter()
                .map(|(name, v, unit)| {
                    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
                })
                .collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_gate_withholds_numbers() {
        let mut r = Report::default();
        r.ops(3, 0);
        r.metric("setup_s", 0.5, "s");
        assert!(r
            .json()
            .contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        r.gate(false, || "mismatch".into());
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 0, \"metrics\": {}}"
        );
    }
}
