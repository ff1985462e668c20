//! Free functions over `&[f64]` slices.
//!
//! These are the innermost kernels of the workspace: dot products, norms and
//! axpy updates written as straight loops over slices so the compiler can
//! vectorize them. Per the perf-book guidance, all take `&[f64]` / `&mut
//! [f64]` rather than `&Vec<f64>`.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    // Four-way unrolled accumulation: breaks the sequential FP dependency
    // chain so LLVM can keep multiple FMAs in flight.
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let k = i * 4;
        acc[0] += a[k] * b[k];
        acc[1] += a[k + 1] * b[k + 1];
        acc[2] += a[k + 2] * b[k + 2];
        acc[3] += a[k + 3] * b[k + 3];
    }
    let mut tail = 0.0;
    for k in chunks * 4..a.len() {
        tail += a[k] * b[k];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Dot product as **one sequential ascending-index chain** — the
/// order-pinned counterpart of [`dot`]. Slower (a serial FP dependency
/// chain), but its accumulation order is exactly the ascending-k order the
/// GEMM determinism rule fixes, so tuned matmul paths that need bitwise
/// parity with the naive kernel must use this, never [`dot`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_chain(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_chain: length mismatch");
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// `y += alpha * x` (the BLAS `axpy` update).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place: `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// L1 norm (sum of absolute values).
#[inline]
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// L∞ norm (maximum absolute value); `0.0` for an empty slice.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance: length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Normalizes `x` to unit L2 norm in place; leaves the zero vector unchanged.
///
/// Returns the original norm.
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Element-wise addition into a fresh vector.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise subtraction into a fresh vector (`a - b`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Index of the maximum element; `None` for an empty slice.
///
/// Ties resolve to the earliest index, and NaN entries are never selected
/// unless every entry is NaN (in which case index 0 is returned).
pub fn argmax(x: &[f64]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, v) in x.iter().enumerate().skip(1) {
        if *v > x[best] || x[best].is_nan() {
            best = i;
        }
    }
    Some(best)
}

/// Index of the minimum element; `None` for an empty slice.
pub fn argmin(x: &[f64]) -> Option<usize> {
    if x.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, v) in x.iter().enumerate().skip(1) {
        if *v < x[best] || x[best].is_nan() {
            best = i;
        }
    }
    Some(best)
}

/// Numerically-stable softmax into a fresh vector.
///
/// Subtracts the maximum before exponentiating, so inputs of any magnitude
/// produce a valid probability vector.
pub fn softmax(x: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; x.len()];
    softmax_into(x, &mut out);
    out
}

/// [`softmax`] written into `out`, without allocating: the same max
/// shift, the same `iter().sum()` denominator and the same division per
/// element, so the two agree bit for bit.
///
/// # Panics
///
/// Panics if `out.len() != x.len()`.
pub fn softmax_into(x: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), out.len(), "softmax_into: length mismatch");
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for (o, v) in out.iter_mut().zip(x) {
        *o = (v - m).exp();
    }
    let z: f64 = out.iter().sum();
    for o in out.iter_mut() {
        *o /= z;
    }
}

/// Kahan-compensated sum, for long accumulations where naive summation
/// would lose low-order bits.
pub fn kahan_sum(x: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut c = 0.0;
    for &v in x {
        let y = v - c;
        let t = sum + y;
        c = (t - sum) - y;
        sum = t;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_unrolled_matches_naive() {
        let a: Vec<f64> = (0..37).map(|i| i as f64 * 0.3).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn dot_chain_is_the_sequential_order() {
        let a: Vec<f64> = (0..41).map(|i| (i as f64).cos() * 3.0).collect();
        let b: Vec<f64> = (0..41).map(|i| (i as f64).sin() - 0.5).collect();
        let mut seq = 0.0f64;
        for (x, y) in a.iter().zip(&b) {
            seq += x * y;
        }
        assert_eq!(dot_chain(&a, &b).to_bits(), seq.to_bits());
        assert_eq!(dot_chain(&[], &[]), 0.0);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm1(&[-1.0, 2.0]), 3.0);
        assert_eq!(norm_inf(&[-5.0, 2.0]), 5.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn normalize_unit() {
        let mut x = vec![3.0, 4.0];
        let n = normalize(&mut x);
        assert_eq!(n, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-12);
        let mut z = vec![0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn argmax_argmin() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmin(&[1.0, 3.0, 2.0]), Some(0));
        assert_eq!(argmax(&[]), None);
        // Ties pick first.
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
        // NaN never wins over a real value.
        assert_eq!(argmax(&[f64::NAN, 1.0]), Some(1));
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 999.0]);
        let s: f64 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!(p[0] > p[2]);
    }

    #[test]
    fn kahan_beats_naive_on_pathological_input() {
        // 1.0 followed by many tiny values that naive summation drops.
        let mut xs = vec![1.0];
        xs.extend(std::iter::repeat_n(1e-16, 10_000));
        let k = kahan_sum(&xs);
        assert!((k - (1.0 + 1e-12)).abs() < 1e-15);
    }

    #[test]
    fn distance_symmetric() {
        let a = [1.0, 2.0];
        let b = [4.0, 6.0];
        assert_eq!(distance(&a, &b), 5.0);
        assert_eq!(distance(&a, &b), distance(&b, &a));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = [1.0, 2.0, 3.0];
        let b = [0.5, 0.25, 0.125];
        let s = add(&a, &b);
        let d = sub(&s, &b);
        for (x, y) in d.iter().zip(&a) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
