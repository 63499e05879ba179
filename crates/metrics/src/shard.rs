//! Per-shard ingestion statistics for the sharded (multi-threaded) OPAQ
//! ingest path.
//!
//! The sharded ingester in `opaq-parallel` feeds runs to worker threads
//! through one shared queue; each worker reports how many runs and elements
//! it sampled, how long it spent sampling ([`ShardStats::busy`]) and how
//! long it sat idle waiting for the next run ([`ShardStats::starved`]).
//! A high starved fraction across all shards means ingestion is I/O-bound
//! (adding threads will not help); a low one means the sampling CPU work is
//! the bottleneck and more shards scale it — the same diagnostic the paper's
//! Table 11/12 I/O-fraction analysis provides for the sequential algorithm.

use crate::TextTable;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// What one ingestion shard (worker thread) did.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Worker index.
    pub shard: usize,
    /// Number of store runs this worker sampled.
    pub runs: u64,
    /// Number of data elements this worker sampled.
    pub elements: u64,
    /// Number of sample points this worker extracted.
    pub sample_points: usize,
    /// Wall-clock time spent sampling runs.
    pub busy: Duration,
    /// Wall-clock time spent waiting on the run queue (I/O starvation).
    pub starved: Duration,
}

impl ShardStats {
    /// Fraction of this shard's wall-clock spent starved for input
    /// (0 when the shard never waited).
    pub fn starved_fraction(&self) -> f64 {
        let total = self.busy + self.starved;
        if total.is_zero() {
            0.0
        } else {
            self.starved.as_secs_f64() / total.as_secs_f64()
        }
    }
}

/// Render per-shard statistics as a fixed-width table (one row per shard
/// plus a totals row), for the CLI and the experiment binaries.
pub fn render_shard_table(stats: &[ShardStats]) -> String {
    let mut table = TextTable::new(format!("sharded ingest ({} shards)", stats.len())).header([
        "shard",
        "runs",
        "elements",
        "samples",
        "busy",
        "starved",
        "starved %",
    ]);
    for s in stats {
        table.row([
            s.shard.to_string(),
            s.runs.to_string(),
            s.elements.to_string(),
            s.sample_points.to_string(),
            format!("{:?}", s.busy),
            format!("{:?}", s.starved),
            format!("{:.1}", s.starved_fraction() * 100.0),
        ]);
    }
    let total_runs: u64 = stats.iter().map(|s| s.runs).sum();
    let total_elements: u64 = stats.iter().map(|s| s.elements).sum();
    let total_samples: usize = stats.iter().map(|s| s.sample_points).sum();
    let total_busy: Duration = stats.iter().map(|s| s.busy).sum();
    let total_starved: Duration = stats.iter().map(|s| s.starved).sum();
    table.row([
        "all".to_string(),
        total_runs.to_string(),
        total_elements.to_string(),
        total_samples.to_string(),
        format!("{total_busy:?}"),
        format!("{total_starved:?}"),
        String::new(),
    ]);
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(shard: usize, busy_ms: u64, starved_ms: u64) -> ShardStats {
        ShardStats {
            shard,
            runs: 4,
            elements: 4_000,
            sample_points: 400,
            busy: Duration::from_millis(busy_ms),
            starved: Duration::from_millis(starved_ms),
        }
    }

    #[test]
    fn starved_fraction_bounds() {
        assert_eq!(stat(0, 0, 0).starved_fraction(), 0.0);
        assert!((stat(0, 75, 25).starved_fraction() - 0.25).abs() < 1e-9);
        assert_eq!(stat(0, 0, 10).starved_fraction(), 1.0);
    }

    #[test]
    fn multi_digit_shard_counts_stay_aligned() {
        // 12 shards: indices go two-digit and the busy/starved columns mix
        // `ms` and `µs` debug formats; every rendered line must still have
        // the same printable width.
        let stats: Vec<ShardStats> = (0..12)
            .map(|i| ShardStats {
                shard: i,
                runs: 10 + i as u64,
                elements: 1_000 * (i as u64 + 1),
                sample_points: 100,
                busy: Duration::from_micros(950 + 137 * i as u64),
                starved: Duration::from_micros(7 * i as u64),
            })
            .collect();
        let rendered = render_shard_table(&stats);
        assert!(rendered.contains("12 shards"));
        assert!(rendered.contains("11"), "two-digit shard index present");
        let widths: Vec<usize> = rendered
            .lines()
            .skip(1) // title
            .map(|l| l.chars().count())
            .collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "shard table misaligned: {widths:?}\n{rendered}"
        );
    }

    #[test]
    fn table_lists_every_shard_and_totals() {
        let rendered = render_shard_table(&[stat(0, 10, 1), stat(1, 12, 2)]);
        assert!(rendered.contains("sharded ingest (2 shards)"));
        assert!(rendered.contains("starved"));
        // One row per shard plus the totals row.
        assert!(rendered.lines().any(|l| l.trim_start().starts_with("0 ")));
        assert!(rendered.lines().any(|l| l.trim_start().starts_with("1 ")));
        assert!(rendered.lines().any(|l| l.trim_start().starts_with("all")));
        assert!(rendered.contains("8000"));
    }
}
