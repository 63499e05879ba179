//! Answers checked against the data itself, not against the sketch.
//!
//! A [`Truth`] is the exact sorted content of one dataset or of a union of
//! datasets (a coalesced answer covers several).  [`Truth::check_estimate`]
//! checks the paper's guarantee for one quantile answer: the bounds enclose
//! the true quantile (`e_l ≤ Q_φ ≤ e_u`), at most `max_rank_slack` elements
//! lie strictly between the quantile and either bound (Lemmas 1–2), and at
//! most twice that many lie in `[e_l, e_u]` besides copies of `Q_φ`
//! (Lemma 3).

use opaq_core::{QuantileEstimate, RankBounds};
use opaq_metrics::GroundTruth;
use std::sync::Arc;

/// Exact ranks over the union of one or more sorted datasets.
#[derive(Debug, Clone)]
pub struct Truth {
    parts: Vec<Arc<GroundTruth>>,
}

/// A passed quantile check: the observed and the guaranteed rank error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checked {
    /// Elements strictly between the true quantile and the farther bound.
    pub err: u64,
    /// The answer's guaranteed per-bound slack.
    pub slack: u64,
}

impl Truth {
    /// The union of `parts`.
    ///
    /// # Panics
    /// If `parts` is empty.
    pub fn new(parts: Vec<Arc<GroundTruth>>) -> Self {
        assert!(!parts.is_empty(), "a truth needs at least one dataset");
        Self { parts }
    }

    /// Number of elements.
    pub fn n(&self) -> u64 {
        self.parts.iter().map(|p| p.n()).sum()
    }

    /// Elements `< value`.
    pub fn rank_lt(&self, value: u64) -> u64 {
        self.parts.iter().map(|p| p.rank_lt(value)).sum()
    }

    /// Elements `≤ value`.
    pub fn rank_le(&self, value: u64) -> u64 {
        self.parts.iter().map(|p| p.rank_le(value)).sum()
    }

    /// The element of 1-based rank `psi`.
    pub fn value_at_rank(&self, psi: u64) -> u64 {
        let mut lo = self.parts.iter().map(|p| p.sorted()[0]).min().unwrap_or(0);
        let mut hi = self
            .parts
            .iter()
            .filter_map(|p| p.sorted().last().copied())
            .max()
            .unwrap_or(0);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.rank_le(mid) >= psi {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Check one quantile answer.
    ///
    /// # Errors
    /// A description of the violated guarantee.
    pub fn check_estimate(&self, est: &QuantileEstimate<u64>) -> Result<Checked, String> {
        let n = self.n();
        if est.target_rank == 0 || est.target_rank > n {
            return Err(format!("target rank {} outside 1..={n}", est.target_rank));
        }
        let q = self.value_at_rank(est.target_rank);
        if !(est.lower <= q && q <= est.upper) {
            return Err(format!(
                "bound violation at rank {}: e_l {} <= Q {} <= e_u {} fails",
                est.target_rank, est.lower, q, est.upper
            ));
        }
        let slack = est.max_rank_slack;
        let lower_gap = self.rank_lt(q).saturating_sub(self.rank_le(est.lower));
        let upper_gap = self.rank_lt(est.upper).saturating_sub(self.rank_le(q));
        if lower_gap > slack || upper_gap > slack {
            return Err(format!(
                "rank slack exceeded at rank {}: {lower_gap} and {upper_gap} elements between Q and the bounds, cap {slack}",
                est.target_rank
            ));
        }
        let copies_of_q = self.rank_le(q) - self.rank_lt(q);
        let inside = self.rank_le(est.upper) - self.rank_lt(est.lower) - copies_of_q;
        if inside > 2 * slack {
            return Err(format!(
                "Lemma 3 cap exceeded at rank {}: {inside} elements in [e_l, e_u], cap {}",
                est.target_rank,
                2 * slack
            ));
        }
        Ok(Checked {
            err: lower_gap.max(upper_gap),
            slack,
        })
    }

    /// Check a rank answer: the true count of elements `≤ key` lies in the
    /// answered interval.
    ///
    /// # Errors
    /// A description of the violation.
    pub fn check_rank(&self, key: u64, bounds: &RankBounds) -> Result<(), String> {
        let rank = self.rank_le(key);
        if bounds.min_rank <= rank && rank <= bounds.max_rank {
            Ok(())
        } else {
            Err(format!(
                "rank violation for key {key}: true rank {rank} outside [{}, {}]",
                bounds.min_rank, bounds.max_rank
            ))
        }
    }
}

/// Sorted ground truth of `keys`, built without a second copy.
pub fn ground_truth(mut keys: Vec<u64>) -> Arc<GroundTruth> {
    keys.sort_unstable();
    Arc::new(GroundTruth::from_sorted(keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use opaq_core::{OpaqConfig, QuantileSketch, RunSampler};

    fn sketch_of(data: &[u64], m: usize, s: u64) -> QuantileSketch<u64> {
        let config = OpaqConfig::builder()
            .run_length(m as u64)
            .sample_size(s)
            .build()
            .unwrap();
        let mut sampler = RunSampler::new(config.sample_size, config.strategy).unwrap();
        let samples = data
            .chunks(m)
            .map(|run| sampler.sample(&mut run.to_vec()).unwrap())
            .collect();
        QuantileSketch::from_run_samples(samples).unwrap()
    }

    fn data(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i * 2_654_435_761) % 1_000_003).collect()
    }

    #[test]
    fn honest_answers_pass_and_report_their_error() {
        let keys = data(50_000);
        let sketch = sketch_of(&keys, 5_000, 100);
        let truth = Truth::new(vec![ground_truth(keys)]);
        for i in 1..10 {
            let est = sketch.estimate(f64::from(i) / 10.0).unwrap();
            let checked = truth.check_estimate(&est).unwrap();
            assert!(checked.err <= checked.slack);
        }
        let bounds = sketch.rank_bounds(500_000);
        truth.check_rank(500_000, &bounds).unwrap();
    }

    #[test]
    fn a_planted_bound_violation_is_caught() {
        let keys = data(50_000);
        let sketch = sketch_of(&keys, 5_000, 100);
        let truth = Truth::new(vec![ground_truth(keys)]);
        let mut est = sketch.estimate(0.5).unwrap();
        est.lower = truth.value_at_rank(est.target_rank) + 1;
        est.upper = est.upper.max(est.lower);
        assert!(truth
            .check_estimate(&est)
            .unwrap_err()
            .contains("bound violation"));
        let mut bounds = sketch.rank_bounds(500_000);
        bounds.max_rank = truth.rank_le(500_000) - 1;
        bounds.min_rank = bounds.min_rank.min(bounds.max_rank);
        assert!(truth.check_rank(500_000, &bounds).is_err());
    }

    #[test]
    fn union_ranks_add_up() {
        let a = ground_truth(vec![1, 3, 5]);
        let b = ground_truth(vec![2, 4, 6]);
        let truth = Truth::new(vec![a, b]);
        assert_eq!(truth.n(), 6);
        assert_eq!(truth.rank_le(4), 4);
        assert_eq!(truth.value_at_rank(5), 5);
    }
}
