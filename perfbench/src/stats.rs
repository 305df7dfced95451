//! Percentiles with a sample-count guard, and the small summaries the
//! workloads report.
//!
//! A percentile is only printed when at least [`MIN_BEYOND`] samples lie
//! beyond it: a "p99" over 200 samples is two observations, not a tail.

/// Samples that must lie strictly beyond a percentile for it to count.
pub const MIN_BEYOND: usize = 10;

/// Tail ranks tried, highest first, by [`tail`].
const TAIL_RANKS: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// A percentile together with the rank and sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The rank in `(0, 1)`, e.g. `0.99`.
    pub rank: f64,
    /// The value at that rank (nearest-rank definition).
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// Nearest-rank index of `rank` in `n` sorted samples.
fn rank_index(n: usize, rank: f64) -> usize {
    ((rank * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples lying beyond the nearest-rank percentile `rank` of `n`.
pub fn beyond(n: usize, rank: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(n, rank)
    }
}

/// The `rank` percentile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], rank: f64) -> Option<Pct> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    if beyond(sorted.len(), rank) < MIN_BEYOND {
        return None;
    }
    Some(Pct {
        rank,
        value: sorted[rank_index(sorted.len(), rank)],
        samples: sorted.len(),
    })
}

/// The highest percentile up to `max_rank` that the sample count
/// supports.
pub fn tail(sorted: &[f64], max_rank: f64) -> Option<Pct> {
    TAIL_RANKS
        .iter()
        .filter(|&&r| r <= max_rank)
        .find_map(|&r| percentile(sorted, r))
}

/// Sorts a copy of `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("sample is NaN"));
    v
}

/// The plain median of a small set of repeats (mean of the middle pair
/// for even counts). Repeat medians need no tail guard.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The arithmetic mean, `0` for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median and guarded tail of a latency sample, in the sample's unit.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    /// The median.
    pub p50: Pct,
    /// The highest supported percentile up to the requested rank.
    pub tail: Pct,
}

impl Latency {
    /// Summarises `values` with the highest supported tail up to
    /// `max_rank`; `None` when even the median lacks [`MIN_BEYOND`]
    /// samples beyond it.
    pub fn of(values: &[f64], max_rank: f64) -> Option<Latency> {
        let v = sorted(values);
        Some(Latency {
            p50: percentile(&v, 0.5)?,
            tail: tail(&v, max_rank)?,
        })
    }

    /// One-line description for the run record.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p{} {:.4} {unit} (n = {})",
            self.p50.value,
            (self.tail.rank * 100.0).round(),
            self.tail.value,
            self.p50.samples
        )
    }
}

/// Folds one repeat of a measurement into `best`, element by element:
/// each entry keeps the least value any repeat gave it. The first repeat
/// fills an empty `best`; a repeat of another length is refused.
///
/// Repeats over the same inputs do the same work, so the least time of
/// each item is its cost on a quiet host. A stall from outside the
/// program (a vCPU the hypervisor gave away, a neighbour's cache
/// traffic) must then hit an item in every repeat to show.
pub fn keep_best(best: &mut Vec<f64>, repeat: &[f64]) -> Result<(), String> {
    if best.is_empty() {
        best.extend_from_slice(repeat);
        return Ok(());
    }
    if best.len() != repeat.len() {
        return Err(format!(
            "a repeat measured {} items, the first {}",
            repeat.len(),
            best.len()
        ));
    }
    for (b, &r) in best.iter_mut().zip(repeat) {
        *b = b.min(r);
    }
    Ok(())
}

/// Deterministic 64-bit generator for benchmark inputs (SplitMix64).
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5).unwrap().value, 50.0);
        assert_eq!(percentile(&v, 0.9).unwrap().value, 90.0);
        let v = ramp(2000);
        assert_eq!(percentile(&v, 0.99).unwrap().value, 1980.0);
        assert_eq!(percentile(&v, 0.99).unwrap().samples, 2000);
    }

    #[test]
    fn guard_refuses_thin_tails() {
        // p99 of 1000 samples has exactly 10 beyond it: allowed.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(percentile(&ramp(1000), 0.99).is_some());
        // One sample fewer leaves 9 beyond: refused.
        assert_eq!(beyond(999, 0.99), 9);
        assert!(percentile(&ramp(999), 0.99).is_none());
        // The median needs 20 samples (10 beyond index 9).
        assert!(percentile(&ramp(19), 0.5).is_none());
        assert!(percentile(&ramp(20), 0.5).is_some());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_rank() {
        assert_eq!(tail(&ramp(5000), 0.99).unwrap().rank, 0.99);
        assert_eq!(tail(&ramp(5000), 0.95).unwrap().rank, 0.95);
        assert_eq!(tail(&ramp(400), 0.99).unwrap().rank, 0.95);
        assert_eq!(tail(&ramp(100), 0.99).unwrap().rank, 0.90);
        assert_eq!(tail(&ramp(60), 0.99).unwrap().rank, 0.75);
        assert_eq!(tail(&ramp(30), 0.99).unwrap().rank, 0.50);
        assert!(tail(&ramp(15), 0.99).is_none());
        assert!(Latency::of(&ramp(15), 0.99).is_none());
        let l = Latency::of(&ramp(1000), 0.99).unwrap();
        assert_eq!((l.p50.value, l.tail.value), (500.0, 990.0));
    }

    #[test]
    fn keep_best_takes_the_least_value_per_item() {
        let mut best = Vec::new();
        keep_best(&mut best, &[3.0, 1.0, 5.0]).unwrap();
        assert_eq!(best, vec![3.0, 1.0, 5.0]);
        keep_best(&mut best, &[2.0, 4.0, 5.0]).unwrap();
        assert_eq!(best, vec![2.0, 1.0, 5.0]);
        assert!(keep_best(&mut best, &[1.0]).is_err());
        assert_eq!(best, vec![2.0, 1.0, 5.0]);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn generator_is_deterministic_and_in_range() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        for _ in 0..1000 {
            let u = a.unit();
            assert_eq!(u, b.unit());
            assert!((0.0..1.0).contains(&u));
        }
        let mean_exp = (0..20_000).map(|_| a.exp(2.0)).sum::<f64>() / 20_000.0;
        assert!((mean_exp - 2.0).abs() < 0.1, "exp mean {mean_exp}");
    }
}
