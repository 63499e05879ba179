//! Host-speed calibration.
//!
//! The benchmark runs on small shared VMs whose CPU speed moves by 20–40%
//! between runs and over seconds within one, as neighbouring VMs come and
//! go.  No statistic over one run's own timings removes that: a whole run
//! can land in a slow period.  So the benchmark also times a fixed
//! reference kernel — plain `std` code that shares nothing with the program
//! under test — interleaved with the measured work, and reports each timing
//! scaled to the host speed at which the kernel takes [`REFERENCE_S`].
//!
//! A change to the program moves the scaled figures exactly as it moves the
//! raw ones; a change of host speed moves the kernel too, and cancels out
//! as far as the kernel and the program slow alike (`perfbench/README.md`
//! gives the measured spreads, raw and scaled).  Reports print the raw
//! figures beside the scaled ones.

use crate::stats::median;
use std::time::Instant;

/// Kernel time, in seconds, of the host speed every scaled timing refers to
/// (about what a calm 2-vCPU host reads).
pub const REFERENCE_S: f64 = 0.02;

/// Keys the kernel selects over in one run; a smaller array is filled and
/// partitioned several times over, so every kernel run does the same work.
const KERNEL_KEYS: usize = 1 << 20;

/// Array size for work that streams through memory, as ingest does: 8 MB,
/// past the L2 cache, like one ingest run.
pub const STREAMING: usize = 1 << 20;

/// Array size for work that stays in the core's caches, as serving does:
/// 1 MB, about one coalesce merge's working set.
pub const CACHED: usize = 1 << 17;

/// Kernel repetitions per reading; the reading is their median.
const REPS: usize = 7;

/// The reference kernel: fill an array of `u64`s with a fixed xorshift
/// sequence and partition it at the seven eighths with
/// `select_nth_unstable`, over [`KERNEL_KEYS`] keys in all.
///
/// It runs on the calling thread, over an array made once with the
/// calibrator.  So a reading allocates nothing sizeable and starts no
/// thread: memory a reading freed could stay resident, and a thread it
/// started could change which allocator arena the program's own threads
/// get next; either would move the next peak-RSS figure.  The calling thread lands
/// on each core in turn, so readings over a run sample every core.
pub struct HostSpeed {
    keys: Vec<u64>,
    readings: Vec<f64>,
}

impl HostSpeed {
    /// A calibrator whose kernel runs over arrays of `keys` keys
    /// ([`STREAMING`] or [`CACHED`]).
    pub fn new(keys: usize) -> Self {
        HostSpeed {
            keys: vec![0; keys.clamp(1, KERNEL_KEYS)],
            readings: Vec::new(),
        }
    }

    /// Seconds for one kernel run.
    fn run_kernel(&mut self) -> f64 {
        let start = Instant::now();
        kernel(&mut self.keys);
        start.elapsed().as_secs_f64()
    }

    /// Take a reading now (the median of [`REPS`] kernel runs), keep it,
    /// and return it in seconds.
    pub fn read(&mut self) -> f64 {
        let mut times = [0.0; REPS];
        for time in &mut times {
            *time = self.run_kernel();
        }
        let reading = median(&times);
        self.readings.push(reading);
        reading
    }

    /// Every reading taken so far, in order.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }

    /// The scale factor of work done between readings `i` and `i + 1`
    /// (or around reading `i` if it is the last): [`REFERENCE_S`] over the
    /// mean of the two readings.  Multiply a time by it, or divide a rate
    /// by it, to scale the figure to the reference host speed.
    pub fn factor(&self, i: usize) -> f64 {
        let Some(&before) = self.readings.get(i) else {
            return 1.0;
        };
        let after = self.readings.get(i + 1).copied().unwrap_or(before);
        REFERENCE_S / (0.5 * (before + after)).max(1e-12)
    }

    /// Median of every reading, in seconds; 0 with none.
    pub fn median(&self) -> f64 {
        median(&self.readings)
    }
}

/// Fill `keys` from a fixed xorshift sequence and partition it at the
/// seven eighths, as often as it takes to cover [`KERNEL_KEYS`] keys.
fn kernel(keys: &mut [u64]) {
    // xorshift64: fixed data, independent of the run's seed.
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let n = keys.len();
    for _ in 0..KERNEL_KEYS / n {
        for key in keys.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *key = x;
        }
        for eighth in 1..8 {
            keys.select_nth_unstable(n * eighth / 8);
        }
        std::hint::black_box(&keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_uses_the_readings_around_the_work() {
        let mut speed = HostSpeed::new(CACHED);
        speed.readings = vec![0.01, 0.03, 0.04];
        assert!((speed.factor(0) - 1.0).abs() < 1e-12);
        assert!((speed.factor(2) - 0.5).abs() < 1e-12);
        assert_eq!(speed.factor(3), 1.0);
    }

    #[test]
    fn a_reading_is_positive() {
        for keys in [STREAMING, CACHED] {
            let mut speed = HostSpeed::new(keys);
            assert!(speed.read() > 0.0);
            assert_eq!(speed.readings().len(), 1);
        }
    }
}
