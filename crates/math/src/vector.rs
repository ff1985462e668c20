//! Free functions over `&[f64]` slices.
//!
//! These are the innermost kernels of the workspace: dot products, norms and
//! axpy updates written as straight loops over slices so the compiler can
//! vectorize them. Per the perf-book guidance, all take `&[f64]` / `&mut
//! [f64]` rather than `&Vec<f64>`.

/// Dot product of two equal-length slices: `dot_rows` of one row.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let [d] = dot_rows([a], b);
    d
}

/// [`dot`] of `R` rows with one `x`, sharing each load of `x` among the
/// rows. This is the one kernel that fixes `dot`'s summation order, which
/// every pinned fingerprint depends on: per row, four lane accumulators
/// over the four-element chunks (four-way unrolling breaks the sequential
/// FP dependency chain so several adds are in flight), a tail loop over
/// the rest, and the `a0 + a1 + a2 + a3 + tail` combine. So
/// `dot_rows(rows, x)[i]` is bitwise `dot(rows[i], x)` for every `R`; more
/// rows give more independent add chains.
///
/// # Panics
///
/// Panics if a row's length differs from `x`'s.
#[inline]
pub(crate) fn dot_rows<const R: usize>(rows: [&[f64]; R], x: &[f64]) -> [f64; R] {
    let (x_chunks, x_tail) = x.as_chunks::<4>();
    let rows = rows.map(|row| {
        assert_eq!(row.len(), x.len(), "dot: length mismatch");
        row.as_chunks::<4>()
    });
    let mut acc = [[0.0f64; 4]; R];
    for (k, xk) in x_chunks.iter().enumerate() {
        for (acc, (chunks, _)) in acc.iter_mut().zip(&rows) {
            let a = &chunks[k];
            acc[0] += a[0] * xk[0];
            acc[1] += a[1] * xk[1];
            acc[2] += a[2] * xk[2];
            acc[3] += a[3] * xk[3];
        }
    }
    let mut out = [0.0; R];
    for ((o, acc), (_, row_tail)) in out.iter_mut().zip(&acc).zip(&rows) {
        let mut tail = 0.0;
        for (a, b) in row_tail.iter().zip(x_tail) {
            tail += a * b;
        }
        *o = acc[0] + acc[1] + acc[2] + acc[3] + tail;
    }
    out
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
    fn dot_rows_is_the_four_lane_order() {
        // Four lane sums over `k % 4`, a tail after the last full chunk,
        // then `a0 + a1 + a2 + a3 + tail`, written out plainly. Magnitudes
        // spread over eight decades, so any other order rounds apart.
        fn four_lane(a: &[f64], b: &[f64]) -> f64 {
            let (mut lanes, mut tail, full) = ([0.0f64; 4], 0.0f64, a.len() / 4 * 4);
            for k in 0..a.len() {
                if k < full {
                    lanes[k % 4] += a[k] * b[k];
                } else {
                    tail += a[k] * b[k];
                }
            }
            lanes[0] + lanes[1] + lanes[2] + lanes[3] + tail
        }
        let val = |i: usize, s: f64| (i as f64 * s).sin() * 10f64.powi((i * 7 % 9) as i32 - 4);
        for n in (0..=17).chain([256]) {
            let rows: [Vec<f64>; 3] =
                std::array::from_fn(|r| (0..n).map(|i| val(i + 31 * r, 0.7)).collect());
            let x: Vec<f64> = (0..n).map(|i| val(i, 1.3)).collect();
            let want = rows.each_ref().map(|row| four_lane(row, &x).to_bits());
            assert_eq!(dot(&rows[0], &x).to_bits(), want[0], "dot n={n}");
            let got = dot_rows(rows.each_ref().map(Vec::as_slice), &x).map(f64::to_bits);
            assert_eq!(got, want, "dot_rows n={n}");
        }
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
