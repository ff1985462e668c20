//! Descriptive statistics.
//!
//! These functions back both the survey analysis (`treu-surveys` reproduces
//! the paper's Tables 1–3, all of which are means, modes and boosts) and the
//! quantitative experiments (medians, quantiles, covariance for PCA and the
//! robust-statistics project).

use crate::matrix::Matrix;

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Unbiased (n-1) sample variance; `0.0` if fewer than two samples.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Median via sorting a copy; `0.0` for an empty slice.
///
/// For even lengths, the average of the two central order statistics.
pub fn median(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut v = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("median: NaN in input"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Empirical quantile with linear interpolation (type-7, the R/NumPy
/// default). `q` is clamped to `[0, 1]`.
pub fn quantile(x: &[f64], q: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut v = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("quantile: NaN in input"));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Mode of an integer-valued sample (the paper reports modal Likert scores).
///
/// Ties resolve to the smallest value, matching the convention of reporting
/// the most conservative modal response. Returns `None` for an empty slice.
pub fn mode_int(x: &[i64]) -> Option<i64> {
    if x.is_empty() {
        return None;
    }
    let mut sorted = x.to_vec();
    sorted.sort_unstable();
    let mut best_val = sorted[0];
    let mut best_count = 0usize;
    let mut i = 0;
    while i < sorted.len() {
        let mut j = i;
        while j < sorted.len() && sorted[j] == sorted[i] {
            j += 1;
        }
        if j - i > best_count {
            best_count = j - i;
            best_val = sorted[i];
        }
        i = j;
    }
    Some(best_val)
}

/// Minimum and maximum of a slice; `None` for an empty slice.
pub fn min_max(x: &[f64]) -> Option<(f64, f64)> {
    if x.is_empty() {
        return None;
    }
    let mut lo = x[0];
    let mut hi = x[0];
    for &v in &x[1..] {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    Some((lo, hi))
}

/// Pearson correlation coefficient; `0.0` when either variance is zero.
///
/// # Panics
///
/// Panics if slices have different lengths.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson: length mismatch");
    if x.len() < 2 {
        return 0.0;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// Sample covariance matrix of row-sample data (`n x d` → `d x d`),
/// using the unbiased `1/(n-1)` normalizer.
///
/// Returns the zero matrix when `n < 2`.
pub fn covariance_matrix(samples: &Matrix) -> Matrix {
    let (n, d) = samples.shape();
    let mut cov = Matrix::zeros(d, d);
    if n < 2 {
        return cov;
    }
    let mu = column_means(samples);
    // Center each row once, then add its outer product into the upper
    // triangle; every element still sums its rows in ascending order.
    let mut centered = vec![0.0; d];
    for r in 0..n {
        for ((c, x), m) in centered.iter_mut().zip(samples.row(r)).zip(&mu) {
            *c = x - m;
        }
        for i in 0..d {
            let di = centered[i];
            for (cij, dj) in cov.row_mut(i)[i..].iter_mut().zip(&centered[i..]) {
                *cij += di * dj;
            }
        }
    }
    let norm = 1.0 / (n - 1) as f64;
    for i in 0..d {
        for j in i..d {
            let v = cov[(i, j)] * norm;
            cov[(i, j)] = v;
            cov[(j, i)] = v;
        }
    }
    cov
}

/// Column means of a row-sample matrix.
pub fn column_means(samples: &Matrix) -> Vec<f64> {
    let (n, d) = samples.shape();
    let mut mu = vec![0.0; d];
    if n == 0 {
        return mu;
    }
    for r in 0..n {
        for (m, x) in mu.iter_mut().zip(samples.row(r)) {
            *m += x;
        }
    }
    for m in mu.iter_mut() {
        *m /= n as f64;
    }
    mu
}

/// A fixed-width histogram over `[lo, hi)` with `bins` buckets.
///
/// Values outside the range clamp into the first/last bucket, so the counts
/// always sum to the sample size.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self { lo, hi, counts: vec![0; bins] }
    }

    /// Adds a sample.
    pub fn add(&mut self, v: f64) {
        let bins = self.counts.len();
        let t = (v - self.lo) / (self.hi - self.lo);
        let idx = ((t * bins as f64) as isize).clamp(0, bins as isize - 1) as usize;
        self.counts[idx] += 1;
    }

    /// Bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total samples observed.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Midpoint of bucket `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }
}

/// Welford online mean/variance accumulator, for streaming statistics in
/// the simulators where storing every sample would be wasteful.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; `0.0` before any sample.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased running variance; `0.0` with fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Running standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merges another accumulator (Chan's parallel combination).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_median_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn variance_matches_hand_computation() {
        // Var of {2,4,4,4,5,5,7,9} with n-1 norm = 32/7.
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((variance(&x) - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let x = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&x, 0.0), 10.0);
        assert_eq!(quantile(&x, 1.0), 40.0);
        assert_eq!(quantile(&x, 0.5), 25.0);
        assert!((quantile(&x, 1.0 / 3.0) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn mode_ties_take_smallest() {
        assert_eq!(mode_int(&[3, 1, 3, 1, 2]), Some(1));
        assert_eq!(mode_int(&[4, 4, 2]), Some(4));
        assert_eq!(mode_int(&[]), None);
    }

    #[test]
    fn pearson_perfect_and_zero() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let anti: Vec<f64> = y.iter().map(|v| -v).collect();
        assert!((pearson(&x, &anti) + 1.0).abs() < 1e-12);
        let constant = [5.0; 4];
        assert_eq!(pearson(&x, &constant), 0.0);
    }

    #[test]
    fn covariance_of_known_data() {
        // Two perfectly correlated columns.
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let c = covariance_matrix(&m);
        assert!((c[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((c[(1, 1)] - 4.0).abs() < 1e-12);
        assert!((c[(0, 1)] - 2.0).abs() < 1e-12);
        assert_eq!(c[(0, 1)], c[(1, 0)]);
    }

    #[test]
    fn covariance_degenerate() {
        let m = Matrix::from_rows(&[&[1.0, 2.0]]);
        let c = covariance_matrix(&m);
        assert_eq!(c.max_abs_diff(&Matrix::zeros(2, 2)), 0.0);
    }

    #[test]
    fn histogram_clamps_and_counts() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [-1.0, 0.0, 3.0, 9.9, 10.0, 100.0] {
            h.add(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts()[0], 2); // -1 clamps in, 0.0 lands here
        assert_eq!(h.counts()[4], 3); // 9.9, 10.0 and 100.0 clamp into last
        assert_eq!(h.bin_center(0), 1.0);
    }

    #[test]
    fn welford_matches_batch() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert!((w.mean() - mean(&xs)).abs() < 1e-12);
        assert!((w.variance() - variance(&xs)).abs() < 1e-10);
    }

    #[test]
    fn welford_merge_matches_single_stream() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.7).collect();
        let ys: Vec<f64> = (0..70).map(|i| (i as f64) - 10.0).collect();
        let mut all = Welford::new();
        for v in xs.iter().chain(&ys) {
            all.add(*v);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for v in &xs {
            a.add(*v);
        }
        for v in &ys {
            b.add(*v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-8);
    }

    #[test]
    fn min_max_works() {
        assert_eq!(min_max(&[3.0, -1.0, 2.0]), Some((-1.0, 3.0)));
        assert_eq!(min_max(&[]), None);
    }
}
