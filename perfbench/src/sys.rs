//! Process facts and seeded inputs.

use opaq_datagen::{KeyGenerator, UniformGenerator};

/// Keys are drawn uniformly from `[0, KEY_DOMAIN)`: wide enough that
/// duplicates are vanishingly rare, so the Lemma 3 cap needs no duplicate
/// allowance.
pub const KEY_DOMAIN: u64 = 1 << 62;

/// Worker threads the host offers (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the peak resident set size (`VmHWM`) to the current one, so the
/// next [`peak_rss_mb`] covers only what runs in between.  Does nothing
/// where `/proc/self/clear_refs` is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A seed for stream `stream` of run seed `seed` (SplitMix64 finaliser).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` uniform keys of dataset `stream`; the same `(seed, stream)` always
/// gives the same keys.
pub fn keys(seed: u64, stream: u64, n: usize) -> Vec<u64> {
    UniformGenerator::new(derive_seed(seed, stream), KEY_DOMAIN).generate(n)
}
