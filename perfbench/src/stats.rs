//! Order statistics for the benchmark's reports: medians, quartiles, the
//! tail-percentile rule, and ratios that keep their base.

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (the mean of the middle pair for an even
/// count), or `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// (the default of Python's `statistics.quantiles(values, n=4)`), or
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        // position i*m/4 (1-based), clamped to the data as Python does
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        *q = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    Some(out)
}

/// The nearest-rank `p`-th percentile of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = rank_of(sorted.len(), p);
    Some(sorted[rank.max(1) - 1])
}

/// The highest candidate percentile that leaves at least [`MIN_BEYOND`]
/// of `n` samples strictly beyond its rank, or `None` when even the
/// median does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| n - rank_of(n, p).min(n) >= MIN_BEYOND)
}

/// `ceil(p * n)`, computed so that e.g. `0.99 * 1000` is exactly 990.
fn rank_of(n: usize, p: f64) -> usize {
    let scaled = (p * n as f64 * 1e6).round() / 1e6;
    scaled.ceil() as usize
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A timing sample set reduced to its median and tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_percentile`] and its value,
    /// when the sample supports one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values`, or `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let p50 = median(values)?;
        let sorted = sorted(values);
        let tail = tail_percentile(sorted.len())
            .and_then(|p| percentile_sorted(&sorted, p).map(|v| (p, v)));
        Some(Summary { n: sorted.len(), p50, tail })
    }

    /// The nearest-rank `p`-th percentile, only when at least
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn supported_percentile(values: &[f64], p: f64) -> Option<f64> {
        let n = values.len();
        if n == 0 || n - rank_of(n, p).min(n) < MIN_BEYOND {
            return None;
        }
        percentile_sorted(&sorted(values), p)
    }
}

/// A ratio that keeps its base, so a reader can tell 0/3 from 0/30000.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator.
    pub num: u64,
    /// Denominator: the base the ratio is taken over.
    pub den: u64,
}

impl Ratio {
    /// `num / den`, or `None` for an empty base.
    pub fn value(self) -> Option<f64> {
        (self.den > 0).then(|| self.num as f64 / self.den as f64)
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.value() {
            Some(v) => write!(f, "{v} ({}/{})", self.num, self.den),
            None => write!(f, "n/a (0/0)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]: the
        // exclusive method extrapolates past the ends of tiny samples
        assert_eq!(quartiles(&[9.0, 5.0]), Some([4.0, 7.0, 10.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v).expect("nonempty");
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail, Some((0.99, 990.0)));
        assert_eq!(Summary::supported_percentile(&v, 0.99), Some(990.0));
        assert_eq!(Summary::supported_percentile(&v[..999], 0.99), None);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn ratios_carry_their_base() {
        let r = Ratio { num: 0, den: 30_000 };
        assert_eq!(r.value(), Some(0.0));
        assert_eq!(r.to_string(), "0 (0/30000)");
        assert_eq!(Ratio { num: 1, den: 4 }.to_string(), "0.25 (1/4)");
        assert_eq!(Ratio { num: 0, den: 0 }.value(), None);
        assert_eq!(Ratio { num: 0, den: 0 }.to_string(), "n/a (0/0)");
    }
}
