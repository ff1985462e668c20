//! Property tests for the decomposition substrate: the invariants that the
//! robust-statistics and shape crates rely on.

use proptest::prelude::*;
use treu_math::decomp::{power_iteration, reconstruct, svd, symmetric_eigen};
use treu_math::rng::SplitMix64;
use treu_math::{vector, Matrix};

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

fn symmetric(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n).prop_map(|a| {
        let at = a.transpose();
        let mut s = a.add(&at);
        s.scale_in_place(0.5);
        s
    })
}

fn any_size_symmetric() -> impl Strategy<Value = Matrix> {
    prop_oneof![symmetric(1), symmetric(2), symmetric(5), symmetric(8)]
}

/// Power iteration with two matvecs per iteration: `A·x` for the step and
/// `A·y` for the Rayleigh quotient. [`power_iteration`] carries `A·y` into
/// the next iteration as its `A·x` instead, and must return these exact
/// bits.
fn two_matvec_power_iteration(
    a: &Matrix,
    seed: u64,
    tol: f64,
    max_iters: usize,
) -> (f64, Vec<f64>) {
    let n = a.rows();
    let mut rng = SplitMix64::new(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
    vector::normalize(&mut x);
    let mut lambda = 0.0;
    for _ in 0..max_iters {
        let mut y = a.matvec(&x);
        let norm = vector::normalize(&mut y);
        if norm == 0.0 {
            for v in x.iter_mut() {
                *v = rng.next_gaussian();
            }
            vector::normalize(&mut x);
            continue;
        }
        let new_lambda = vector::dot(&y, &a.matvec(&y));
        x = y;
        if (new_lambda - lambda).abs() <= tol * new_lambda.abs().max(1.0) {
            lambda = new_lambda;
            break;
        }
        lambda = new_lambda;
    }
    (lambda, x)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn power_iteration_matches_the_two_matvec_reference(
        a in any_size_symmetric(),
        seed in any::<u64>(),
        max_iters in 0usize..120,
        tol_exp in 0i32..16,
    ) {
        let tol = 10f64.powi(-tol_exp);
        let (lam, v) = power_iteration(&a, seed, tol, max_iters);
        let (ref_lam, ref_v) = two_matvec_power_iteration(&a, seed, tol, max_iters);
        prop_assert_eq!(lam.to_bits(), ref_lam.to_bits());
        prop_assert_eq!(bits(&v), bits(&ref_v));
    }

    #[test]
    fn power_iteration_restarts_match_the_reference(
        n in 1usize..9,
        seed in any::<u64>(),
        max_iters in 0usize..40,
    ) {
        // The zero matrix takes the restart branch every iteration. The
        // shift matrix (ones on the superdiagonal) is nilpotent: its
        // carried product reaches zero after at most n - 1 iterations and
        // must then be dropped, not reused, by the restart.
        let shift = Matrix::from_fn(n, n, |r, c| if c == r + 1 { 1.0 } else { 0.0 });
        for a in [Matrix::zeros(n, n), shift] {
            let (lam, v) = power_iteration(&a, seed, 1e-12, max_iters);
            let (ref_lam, ref_v) = two_matvec_power_iteration(&a, seed, 1e-12, max_iters);
            prop_assert_eq!(lam.to_bits(), ref_lam.to_bits());
            prop_assert_eq!(bits(&v), bits(&ref_v));
        }
    }

    #[test]
    fn eigen_reconstructs_symmetric_matrices(a in symmetric(5)) {
        let e = symmetric_eigen(&a, 1e-12, 200);
        let n = a.rows();
        let mut recon = Matrix::zeros(n, n);
        for k in 0..n {
            let v = e.vectors.row(k);
            for i in 0..n {
                for j in 0..n {
                    recon[(i, j)] += e.values[k] * v[i] * v[j];
                }
            }
        }
        prop_assert!(recon.max_abs_diff(&a) < 1e-6, "diff {}", recon.max_abs_diff(&a));
    }

    #[test]
    fn eigenvalue_sum_equals_trace(a in symmetric(6)) {
        let e = symmetric_eigen(&a, 1e-12, 200);
        let trace: f64 = (0..6).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-7);
    }

    #[test]
    fn svd_frobenius_identity(a in matrix(6, 4)) {
        // ||A||_F^2 = sum of squared singular values.
        let d = svd(&a, 1e-14, 80);
        let fro2 = a.frobenius_norm().powi(2);
        let sig2: f64 = d.sigma.iter().map(|s| s * s).sum();
        prop_assert!((fro2 - sig2).abs() < 1e-6 * fro2.max(1.0));
    }

    #[test]
    fn svd_factors_are_orthonormal(a in matrix(5, 5)) {
        let d = svd(&a, 1e-14, 80);
        let utu = d.u.transpose().matmul(&d.u);
        let vvt = d.vt.matmul(&d.vt.transpose());
        prop_assert!(utu.max_abs_diff(&Matrix::identity(5)) < 1e-6);
        prop_assert!(vvt.max_abs_diff(&Matrix::identity(5)) < 1e-6);
    }

    #[test]
    fn svd_reconstruction_for_wide_and_tall(a in matrix(3, 7), b in matrix(7, 3)) {
        prop_assert!(reconstruct(&svd(&a, 1e-14, 80)).max_abs_diff(&a) < 1e-6);
        prop_assert!(reconstruct(&svd(&b, 1e-14, 80)).max_abs_diff(&b) < 1e-6);
    }

    #[test]
    fn power_iteration_bounded_by_extreme_eigenvalues(a in symmetric(5), seed in any::<u64>()) {
        // On a PSD shift of a, power iteration's Rayleigh quotient cannot
        // exceed the top eigenvalue (within tolerance).
        let mut shifted = a.clone();
        for i in 0..5 {
            shifted[(i, i)] += 60.0; // strongly diagonally dominant => PSD
        }
        let e = symmetric_eigen(&shifted, 1e-12, 200);
        let (lam, v) = power_iteration(&shifted, seed, 1e-10, 5000);
        prop_assert!(lam <= e.values[0] + 1e-6, "lam {} vs top {}", lam, e.values[0]);
        prop_assert!(lam >= *e.values.last().unwrap() - 1e-6);
        // Returned vector is unit.
        let n: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        prop_assert!((n - 1.0).abs() < 1e-9);
    }
}
