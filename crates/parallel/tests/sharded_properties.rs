//! Property-based pin of the sharded-ingestion invariant: for any input,
//! any run length, and any thread count in `1..=8`, [`ShardedOpaq`] must
//! produce a sketch **identical** to the sequential
//! [`OpaqEstimator::build_sketch`] (the reference the benchmark gates on)
//! and to the [`IncrementalOpaq`] fold over the same store — same samples,
//! same gaps, same bounds, same metadata — regardless of worker completion
//! order.

use opaq_core::{IncrementalOpaq, OpaqConfig, OpaqEstimator};
use opaq_parallel::ShardedOpaq;
use opaq_storage::{MemRunStore, RunStore};
use proptest::prelude::*;

fn config_for(store: &MemRunStore<u64>, s: u64) -> OpaqConfig {
    OpaqConfig::builder()
        .run_length(store.layout().m())
        .sample_size(s.min(store.layout().m()))
        .build()
        .unwrap()
}

fn assert_sharded_identical(data: Vec<u64>, m: u64, s: u64) -> Result<(), TestCaseError> {
    let store = MemRunStore::new(data, m);
    let config = config_for(&store, s);
    let reference = OpaqEstimator::new(config).build_sketch(&store).unwrap();
    let mut inc = IncrementalOpaq::new(config).unwrap();
    inc.add_store(&store).unwrap();
    prop_assert_eq!(&inc.into_sketch().unwrap(), &reference);
    for threads in 1..=8usize {
        let sharded = ShardedOpaq::new(config, threads)
            .unwrap()
            .build_sketch(&store)
            .unwrap();
        // `QuantileSketch: PartialEq` covers samples, gaps, prefix sums,
        // element/run counts, max gap and dataset bounds in one comparison.
        prop_assert_eq!(&sharded, &reference, "threads {}", threads);
        // Bounds derived from the sketches must agree too (belt and braces:
        // the quantile phase only reads what PartialEq already compared).
        for q in [2u64, 5, 10] {
            let a = sharded.estimate_q_quantiles(q).unwrap();
            let b = reference.estimate_q_quantiles(q).unwrap();
            prop_assert_eq!(a, b, "threads {} q {}", threads, q);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_equals_sequential_random(
        data in proptest::collection::vec(any::<u64>(), 1..4_000),
        m_seed in 1u64..600,
        s in 1u64..64,
    ) {
        let m = m_seed.min(data.len() as u64);
        assert_sharded_identical(data, m, s)?;
    }

    #[test]
    fn sharded_equals_sequential_duplicate_heavy(
        len in 1usize..4_000,
        domain in 1u64..6,
        m_seed in 1u64..400,
        s in 1u64..32,
    ) {
        // Tiny domains force massive duplication, the regime where merge
        // tie-breaking order could diverge between shard counts.
        let data: Vec<u64> = (0..len as u64).map(|i| (i * 48271) % domain).collect();
        let m = m_seed.min(data.len() as u64);
        assert_sharded_identical(data, m, s)?;
    }

    #[test]
    fn sharded_equals_sequential_reversed(
        len in 1usize..4_000,
        m_seed in 1u64..500,
        s in 1u64..48,
    ) {
        let data: Vec<u64> = (0..len as u64).rev().collect();
        let m = m_seed.min(data.len() as u64);
        assert_sharded_identical(data, m, s)?;
    }
}

/// Runs whose sampling cost differs: every fourth run is 20k scrambled
/// keys, which take about twice as long to sample as the constant runs
/// around it.  A worker holding a scrambled run is overtaken by the others,
/// so runs finish out of order.  Every constant run holds the same key, and
/// the half-length tail run's samples carry smaller gaps than the rest, so
/// the sketch changes if equal samples are not merged in run order.
fn uneven_cost_data(runs: u64, m: u64, seed: u64) -> Vec<u64> {
    (0..runs * m - m / 2)
        .map(|i| {
            if (i / m) % 4 == seed % 4 {
                (i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40
            } else {
                42
            }
        })
        .collect()
}

#[test]
fn sharded_equals_sequential_when_workers_finish_out_of_order() {
    let m = 20_000;
    for seed in 0..4 {
        let store = MemRunStore::new(uneven_cost_data(12, m, seed), m);
        let config = config_for(&store, 200);
        let reference = OpaqEstimator::new(config).build_sketch(&store).unwrap();
        for threads in [2usize, 3, 4] {
            for depth in [1usize, 4] {
                let sharded = ShardedOpaq::new(config, threads)
                    .unwrap()
                    .with_prefetch_depth(depth)
                    .build_sketch(&store)
                    .unwrap();
                assert_eq!(
                    sharded, reference,
                    "seed {seed} threads {threads} depth {depth}"
                );
            }
        }
    }
}
