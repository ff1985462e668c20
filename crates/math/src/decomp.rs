//! Matrix decompositions: symmetric Jacobi eigendecomposition, one-sided
//! Jacobi SVD, and power iteration.
//!
//! The robust-statistics project (§2.10 of the paper) reports that its
//! "main computational bottlenecks were in linear algebra (SVD)"; this
//! module is the substrate that makes those experiments runnable without an
//! external LAPACK. Jacobi methods are chosen for their simplicity,
//! unconditional convergence on symmetric/general inputs, and high relative
//! accuracy — properties that matter more here than peak speed.

use crate::matrix::Matrix;
use crate::vector;

/// Result of a symmetric eigendecomposition: `a = V diag(values) V^T`.
///
/// Eigenvalues are sorted in descending order; `vectors.row(i)` is the unit
/// eigenvector paired with `values[i]`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as rows, aligned with `values`.
    pub vectors: Matrix,
}

/// Result of a singular value decomposition `a = U diag(sigma) V^T`.
///
/// Singular values are sorted descending. `u` is `m x k` and `vt` is
/// `k x n` where `k = min(m, n)` (thin SVD).
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (columns of `U`), stored as an `m x k` matrix.
    pub u: Matrix,
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// Right singular vectors transposed (`k x n`).
    pub vt: Matrix,
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Sweeps all off-diagonal pairs until the off-diagonal Frobenius mass drops
/// below `tol * ||a||_F`, or `max_sweeps` is reached (convergence is
/// guaranteed; the cap only bounds worst-case time).
///
/// # Panics
///
/// Panics if `a` is not square.
pub fn symmetric_eigen(a: &Matrix, tol: f64, max_sweeps: usize) -> SymmetricEigen {
    assert_eq!(a.rows(), a.cols(), "symmetric_eigen: matrix must be square");
    let n = a.rows();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let anorm = a.frobenius_norm().max(f64::MIN_POSITIVE);

    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[(p, q)] * m[(p, q)];
            }
        }
        if (2.0 * off).sqrt() <= tol * anorm {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= f64::MIN_POSITIVE {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply the rotation to rows/cols p and q of m, and to v.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(j, j)].partial_cmp(&m[(i, i)]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let vectors = Matrix::from_fn(n, n, |r, c| v[(c, order[r])]);
    SymmetricEigen { values, vectors }
}

/// One-sided Jacobi SVD (Hestenes method).
///
/// Orthogonalizes the columns of `a` by plane rotations; on convergence the
/// column norms are the singular values, the normalized columns are `U`, and
/// the accumulated rotations give `V`. Works for `m >= n` and `m < n`
/// (the wide case is handled by transposing).
pub fn svd(a: &Matrix, tol: f64, max_sweeps: usize) -> Svd {
    if a.rows() < a.cols() {
        // Wide: decompose the transpose and swap factors.
        let t = svd(&a.transpose(), tol, max_sweeps);
        return Svd { u: t.vt.transpose(), sigma: t.sigma, vt: t.u.transpose() };
    }
    let (m, n) = a.shape();
    // Work on columns: store as column-major list of vectors for locality.
    let mut cols: Vec<Vec<f64>> = (0..n).map(|c| a.col(c)).collect();
    let mut v = Matrix::identity(n);

    for _ in 0..max_sweeps {
        let mut converged = true;
        for p in 0..n {
            for q in (p + 1)..n {
                let alpha = vector::dot(&cols[p], &cols[p]);
                let beta = vector::dot(&cols[q], &cols[q]);
                let gamma = vector::dot(&cols[p], &cols[q]);
                if gamma.abs() > tol * (alpha * beta).sqrt() && gamma.abs() > f64::MIN_POSITIVE {
                    converged = false;
                    let zeta = (beta - alpha) / (2.0 * gamma);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for k in 0..m {
                        let cp = cols[p][k];
                        let cq = cols[q][k];
                        cols[p][k] = c * cp - s * cq;
                        cols[q][k] = s * cp + c * cq;
                    }
                    for k in 0..n {
                        let vp = v[(k, p)];
                        let vq = v[(k, q)];
                        v[(k, p)] = c * vp - s * vq;
                        v[(k, q)] = s * vp + c * vq;
                    }
                }
            }
        }
        if converged {
            break;
        }
    }

    let mut sigma: Vec<f64> = cols.iter().map(|c| vector::norm2(c)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| sigma[j].partial_cmp(&sigma[i]).unwrap());
    let sigma_sorted: Vec<f64> = order.iter().map(|&i| sigma[i]).collect();
    sigma = sigma_sorted;

    let mut u = Matrix::zeros(m, n);
    for (new_c, &old_c) in order.iter().enumerate() {
        let nrm = sigma[new_c];
        for r in 0..m {
            u[(r, new_c)] = if nrm > 0.0 { cols[old_c][r] / nrm } else { 0.0 };
        }
    }
    let vt = Matrix::from_fn(n, n, |r, c| v[(c, order[r])]);
    Svd { u, sigma, vt }
}

/// Power iteration for the dominant eigenpair of a symmetric matrix.
///
/// Returns `(eigenvalue, eigenvector)`. The start vector is deterministic
/// (derived from `seed`), so results are reproducible. Converges when the
/// Rayleigh quotient stabilizes within `tol` or after `max_iters`.
///
/// # Panics
///
/// Panics if `a` is not square or is empty.
pub fn power_iteration(a: &Matrix, seed: u64, tol: f64, max_iters: usize) -> (f64, Vec<f64>) {
    assert_eq!(a.rows(), a.cols(), "power_iteration: matrix must be square");
    let n = a.rows();
    assert!(n > 0, "power_iteration: empty matrix");
    let mut rng = crate::rng::SplitMix64::new(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
    vector::normalize(&mut x);
    let mut lambda = 0.0;
    // `y` holds `A·x` for the current `x` when `ax_formed`: the Rayleigh
    // product `A·y` of one iteration is the next iteration's `A·x`, since
    // `x` becomes `y`. One matvec per iteration, not two, and the two
    // buffers swap roles instead of being reallocated.
    let mut y = Vec::with_capacity(n);
    let mut ax_formed = false;
    for _ in 0..max_iters {
        if !ax_formed {
            a.matvec_into(&x, &mut y);
        }
        let norm = vector::normalize(&mut y);
        if norm == 0.0 {
            // x was in the null space; restart from a fresh direction.
            for v in x.iter_mut() {
                *v = rng.next_gaussian();
            }
            vector::normalize(&mut x);
            ax_formed = false;
            continue;
        }
        // `x` is spent: it takes `A·y`, then the buffers swap.
        a.matvec_into(&y, &mut x);
        let new_lambda = vector::dot(&y, &x);
        std::mem::swap(&mut x, &mut y);
        ax_formed = true;
        if (new_lambda - lambda).abs() <= tol * new_lambda.abs().max(1.0) {
            lambda = new_lambda;
            break;
        }
        lambda = new_lambda;
    }
    (lambda, x)
}

/// Reconstructs `U diag(sigma) V^T`; used by tests and by callers that need
/// low-rank approximations.
pub fn reconstruct(svd: &Svd) -> Matrix {
    let k = svd.sigma.len();
    let mut us = svd.u.clone();
    for r in 0..us.rows() {
        for c in 0..k {
            us[(r, c)] *= svd.sigma[c];
        }
    }
    us.matmul(&svd.vt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn random_symmetric(seed: u64, n: usize) -> Matrix {
        let mut rng = SplitMix64::new(seed);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = rng.next_gaussian();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        a
    }

    #[test]
    fn eigen_of_diagonal() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 1.0]]);
        let e = symmetric_eigen(&a, 1e-12, 50);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigen_reconstructs_matrix() {
        let a = random_symmetric(10, 8);
        let e = symmetric_eigen(&a, 1e-12, 100);
        // Rebuild V^T diag V and compare. vectors are rows.
        let n = a.rows();
        let mut recon = Matrix::zeros(n, n);
        for k in 0..n {
            let vk = e.vectors.row(k);
            for i in 0..n {
                for j in 0..n {
                    recon[(i, j)] += e.values[k] * vk[i] * vk[j];
                }
            }
        }
        assert!(recon.max_abs_diff(&a) < 1e-8, "diff {}", recon.max_abs_diff(&a));
    }

    #[test]
    fn eigen_vectors_are_orthonormal() {
        let a = random_symmetric(11, 6);
        let e = symmetric_eigen(&a, 1e-12, 100);
        for i in 0..6 {
            for j in 0..6 {
                let d = vector::dot(e.vectors.row(i), e.vectors.row(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn svd_reconstructs_tall_matrix() {
        let mut rng = SplitMix64::new(12);
        let a = Matrix::from_fn(9, 5, |_, _| rng.next_gaussian());
        let d = svd(&a, 1e-14, 60);
        assert!(reconstruct(&d).max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn svd_reconstructs_wide_matrix() {
        let mut rng = SplitMix64::new(13);
        let a = Matrix::from_fn(4, 11, |_, _| rng.next_gaussian());
        let d = svd(&a, 1e-14, 60);
        assert_eq!(d.u.shape(), (4, 4));
        assert_eq!(d.vt.shape(), (4, 11));
        assert!(reconstruct(&d).max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn svd_values_sorted_and_nonnegative() {
        let mut rng = SplitMix64::new(14);
        let a = Matrix::from_fn(10, 7, |_, _| rng.next_gaussian());
        let d = svd(&a, 1e-14, 60);
        for w in d.sigma.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(d.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn svd_matches_eigen_of_gram_matrix() {
        let mut rng = SplitMix64::new(15);
        let a = Matrix::from_fn(12, 6, |_, _| rng.next_gaussian());
        let d = svd(&a, 1e-14, 60);
        let gram = a.transpose().matmul(&a);
        let e = symmetric_eigen(&gram, 1e-12, 100);
        for k in 0..6 {
            let expect = e.values[k].max(0.0).sqrt();
            assert!((d.sigma[k] - expect).abs() < 1e-7, "k={k}");
        }
    }

    #[test]
    fn power_iteration_finds_top_eigenpair() {
        let a = random_symmetric(16, 10);
        // Shift to make it PSD-dominant so power iteration targets the max.
        let shifted = a.add(&{
            let mut i = Matrix::identity(10);
            i.scale_in_place(20.0);
            i
        });
        let e = symmetric_eigen(&shifted, 1e-12, 100);
        let (lam, vec) = power_iteration(&shifted, 7, 1e-12, 10_000);
        assert!((lam - e.values[0]).abs() < 1e-6, "lam {lam} vs {}", e.values[0]);
        // Eigenvector matches up to sign.
        let cos = vector::dot(&vec, e.vectors.row(0)).abs();
        assert!(cos > 1.0 - 1e-6, "cos {cos}");
    }

    #[test]
    fn svd_of_rank_one() {
        // a = u v^T has exactly one nonzero singular value = |u||v|.
        let u = [1.0, 2.0, 2.0];
        let v = [3.0, 4.0];
        let a = Matrix::from_fn(3, 2, |r, c| u[r] * v[c]);
        let d = svd(&a, 1e-14, 60);
        assert!((d.sigma[0] - 15.0).abs() < 1e-9); // |u|=3, |v|=5
        assert!(d.sigma[1].abs() < 1e-9);
    }
}
