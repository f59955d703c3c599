//! Order statistics over per-op samples and small shared helpers.

/// Nearest-rank percentile of `samples` at rank `rank` (1-based) after
/// sorting.
fn at_rank(samples: &[f64], rank: usize) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank.clamp(1, s.len()) - 1]
}

/// Nearest-rank median (the lower middle for an even count); 0 when
/// there are no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    at_rank(samples, samples.len().div_ceil(2))
}

/// The highest nearest-rank percentile with at least ten samples beyond
/// it, as `(value, percentile)`. Runs with fewer than 40 samples keep a
/// quarter of them beyond it instead (the upper quartile), so that one
/// slow sample cannot set the tail; below 4 samples it is the maximum.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let rank = n - (n / 4).min(10);
    (at_rank(samples, rank), 100.0 * rank as f64 / n as f64)
}

/// Deterministic seed mixer (splitmix64 finalizer): derives per-epoch
/// and per-instance seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        assert_eq!(median(&s), 25.0);
        assert_eq!(tail(&s), (40.0, 80.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
        assert_eq!(tail(&[8.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), (6.0, 75.0));
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
    }
}
