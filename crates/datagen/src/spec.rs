//! Serializable workload descriptions.
//!
//! The experiment harness (crate `opaq-bench`) sweeps over data sizes,
//! distributions and duplicate fractions; [`DatasetSpec`] captures one cell
//! of such a sweep so that every printed table row is labelled with the exact
//! workload that produced it.

use crate::patterns::{Pattern, PatternGenerator};
use crate::{inject_duplicates, KeyGenerator, NormalGenerator, UniformGenerator, ZipfGenerator};
use serde::{Deserialize, Serialize};

/// The key distribution of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Distribution {
    /// Uniform over `[0, domain)`.
    Uniform {
        /// Key domain size.
        domain: u64,
    },
    /// Zipf with the paper's parameter convention (1 = uniform, 0 = maximal
    /// skew); the paper uses 0.86.
    Zipf {
        /// Key domain size.
        domain: u64,
        /// Paper-convention skew parameter in `[0, 1]`.
        parameter: f64,
    },
    /// Normal with the given mean and standard deviation, clamped to the domain.
    Normal {
        /// Key domain size.
        domain: u64,
        /// Mean of the distribution.
        mean: f64,
        /// Standard deviation of the distribution.
        std_dev: f64,
    },
    /// A deterministic adversarial pattern.
    Sorted,
    /// Reverse-sorted deterministic pattern.
    ReverseSorted,
    /// Organ-pipe deterministic pattern.
    OrganPipe,
    /// All keys identical.
    Constant(u64),
}

/// A complete workload description: distribution, size, duplicates and seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Number of keys to generate.
    pub n: u64,
    /// Key distribution.
    pub distribution: Distribution,
    /// Fraction of positions overwritten with copies of other keys
    /// (the paper uses 0.1, i.e. `n/10` duplicates).
    pub duplicate_fraction: f64,
    /// RNG seed; every generated dataset is a pure function of the spec.
    pub seed: u64,
}

impl DatasetSpec {
    /// The paper's standard sequential workload: `n` keys, uniform over a
    /// 32-bit-ish domain, `n/10` duplicates.
    pub fn paper_uniform(n: u64, seed: u64) -> Self {
        Self {
            n,
            distribution: Distribution::Uniform { domain: 1 << 31 },
            duplicate_fraction: 0.1,
            seed,
        }
    }

    /// The paper's standard skewed workload: Zipf with parameter 0.86.
    pub fn paper_zipf(n: u64, seed: u64) -> Self {
        Self {
            n,
            distribution: Distribution::Zipf {
                domain: 1 << 31,
                parameter: 0.86,
            },
            duplicate_fraction: 0.1,
            seed,
        }
    }

    /// Generate the dataset described by this spec.
    pub fn generate(&self) -> Vec<u64> {
        let n = self.n as usize;
        let mut keys = match self.distribution {
            Distribution::Uniform { domain } => {
                UniformGenerator::new(self.seed, domain).generate(n)
            }
            Distribution::Zipf { domain, parameter } => {
                ZipfGenerator::from_paper_parameter(self.seed, domain, parameter).generate(n)
            }
            Distribution::Normal {
                domain,
                mean,
                std_dev,
            } => NormalGenerator::new(self.seed, domain, mean, std_dev).generate(n),
            Distribution::Sorted => PatternGenerator::new(Pattern::Sorted).generate(n),
            Distribution::ReverseSorted => {
                PatternGenerator::new(Pattern::ReverseSorted).generate(n)
            }
            Distribution::OrganPipe => PatternGenerator::new(Pattern::OrganPipe).generate(n),
            Distribution::Constant(c) => PatternGenerator::new(Pattern::Constant(c)).generate(n),
        };
        inject_duplicates(&mut keys, self.duplicate_fraction, self.seed);
        keys
    }

    /// A short label for experiment tables, e.g. `"uniform"` or `"zipf(0.86)"`.
    pub fn label(&self) -> String {
        match self.distribution {
            Distribution::Uniform { .. } => "uniform".to_string(),
            Distribution::Zipf { parameter, .. } => format!("zipf({parameter:.2})"),
            Distribution::Normal { .. } => "normal".to_string(),
            Distribution::Sorted => "sorted".to_string(),
            Distribution::ReverseSorted => "reverse-sorted".to_string(),
            Distribution::OrganPipe => "organ-pipe".to_string(),
            Distribution::Constant(_) => "constant".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duplicates::count_duplicated_elements;

    #[test]
    fn paper_uniform_spec_generates_n_keys_with_duplicates() {
        let spec = DatasetSpec::paper_uniform(10_000, 3);
        let keys = spec.generate();
        assert_eq!(keys.len(), 10_000);
        assert!(
            count_duplicated_elements(&keys) >= 1000 / 2,
            "duplicates injected"
        );
        assert_eq!(spec.label(), "uniform");
    }

    #[test]
    fn paper_zipf_spec_label_and_determinism() {
        let spec = DatasetSpec::paper_zipf(5_000, 11);
        assert_eq!(spec.label(), "zipf(0.86)");
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn deterministic_patterns_ignore_duplicate_injection_gracefully() {
        let spec = DatasetSpec {
            n: 100,
            distribution: Distribution::Constant(5),
            duplicate_fraction: 0.1,
            seed: 0,
        };
        let keys = spec.generate();
        assert!(keys.iter().all(|&k| k == 5));
    }

    #[test]
    fn all_distributions_generate_requested_length() {
        for dist in [
            Distribution::Uniform { domain: 1000 },
            Distribution::Zipf {
                domain: 1000,
                parameter: 0.86,
            },
            Distribution::Normal {
                domain: 1000,
                mean: 500.0,
                std_dev: 100.0,
            },
            Distribution::Sorted,
            Distribution::ReverseSorted,
            Distribution::OrganPipe,
            Distribution::Constant(3),
        ] {
            let spec = DatasetSpec {
                n: 777,
                distribution: dist,
                duplicate_fraction: 0.05,
                seed: 1,
            };
            assert_eq!(spec.generate().len(), 777, "{dist:?}");
        }
    }

    #[test]
    fn spec_serde_round_trip() {
        // serde is exercised via the Serialize/Deserialize derives without a
        // JSON dependency: a manual token-ish check through the Debug path is
        // not enough, so round-trip through the `serde` `Value`-free path:
        // here we simply assert the derives exist by using them generically.
        fn assert_serde<T: serde::Serialize + for<'a> serde::Deserialize<'a>>() {}
        assert_serde::<DatasetSpec>();
        assert_serde::<Distribution>();
    }
}
