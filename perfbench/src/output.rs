//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of what the
//! benchmark prints; `BENCHMARK.json` at the repository root declares the
//! same names and units, and a test holds the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_keys_per_s", "keys/s"),
    ("p50_ms", "ms"),
    ("ops_per_s", "ops/s"),
    ("publish_lag_ms", "ms"),
    ("rank_slack_frac", "fraction"),
    ("rank_err_frac", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`.  A layer that
/// does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("storage.read_s", "s"),
    ("storage.read_mb_per_s", "MB/s"),
    ("storage.bytes_read", "bytes"),
    ("storage.buffer_reuse_ratio", "fraction"),
    ("select.sample_s", "s"),
    ("select.keys_per_s", "keys/s"),
    ("core.run_merge_s", "s"),
    ("core.sketch_points", "count"),
    ("core.estimate_us", "us"),
    ("parallel.dispatch_s", "s"),
    ("parallel.shard_busy_s", "s"),
    ("parallel.shard_starved_frac", "fraction"),
    ("parallel.merge_s", "s"),
    ("parallel.refresh_build_s", "s"),
    ("serve.snapshot_us", "us"),
    ("serve.hit_ratio", "fraction"),
    ("serve.reloads", "count"),
    ("serve.evictions", "count"),
    ("serve.resident_points", "count"),
    ("serve.publishes", "count"),
    ("serve.refresh_queue_ms", "ms"),
    ("query.parse_us", "us"),
    ("query.fetch_us", "us"),
    ("query.merge_us", "us"),
    ("query.fused_points", "count"),
    ("query.execute_us", "us"),
    ("net.route_us", "us"),
    ("net.render_us", "us"),
    ("net.transport_us", "us"),
    ("net.requests", "count"),
    ("net.connections", "count"),
    ("net.rejected", "count"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// What one run measured and whether every answer was correct.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (ingest passes or requests), at least 1.
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong answer.
    pub failed: u64,
    /// Descriptions of the first few failures, for the log.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report printed before the result line.
    pub report: String,
}

impl Outcome {
    /// Record a failed operation (or failed check) with its reason.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(reason.into());
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Whether the run passes its correctness gates.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the latter holding every metric
    /// of `catalogue`.
    ///
    /// # Panics
    /// If the workload did not set a metric of the catalogue — a bug in the
    /// benchmark, not in the measured program.
    pub fn result_line(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = *self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report metric {name}"));
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(name, _)| *name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.set("a", 1.5);
        let line = outcome.result_line(&[("a", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        outcome.fail("wrong");
        assert!(outcome
            .result_line(&[("a", "s")])
            .starts_with("{\"correct\": false"));
    }
}
