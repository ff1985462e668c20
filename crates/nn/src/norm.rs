//! Layer normalization.
//!
//! Normalizes each row to zero mean and unit variance, then applies a
//! learned per-channel affine transform — the stabilizer transformer
//! blocks are built around.

use crate::layer::{Layer, Trainable};
use treu_math::Matrix;

/// Layer normalization over the last (feature) axis with learned
/// gain/bias.
pub struct LayerNorm {
    dim: usize,
    eps: f64,
    gamma: Vec<f64>,
    beta: Vec<f64>,
    grad_gamma: Vec<f64>,
    grad_beta: Vec<f64>,
    // Forward cache.
    normalized: Matrix,
    inv_std: Vec<f64>,
    out: Matrix,
    // Backward scratch.
    dz: Vec<f64>,
    grad_in: Matrix,
}

impl LayerNorm {
    /// Creates a layer norm over `dim`-wide rows (γ = 1, β = 0).
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "LayerNorm: zero dimension");
        Self {
            dim,
            eps: 1e-5,
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            grad_gamma: vec![0.0; dim],
            grad_beta: vec![0.0; dim],
            normalized: Matrix::default(),
            inv_std: Vec::new(),
            out: Matrix::default(),
            dz: vec![0.0; dim],
            grad_in: Matrix::default(),
        }
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, input: &Matrix, _train: bool) -> &Matrix {
        assert_eq!(input.cols(), self.dim, "LayerNorm: width mismatch");
        let n = self.dim as f64;
        self.out.reset(input.rows(), self.dim);
        self.normalized.reset(input.rows(), self.dim);
        self.inv_std.clear();
        for r in 0..input.rows() {
            let row = input.row(r);
            let mean: f64 = row.iter().sum::<f64>() / n;
            let var: f64 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            let inv = 1.0 / (var + self.eps).sqrt();
            self.inv_std.push(inv);
            for c in 0..self.dim {
                let z = (row[c] - mean) * inv;
                self.normalized[(r, c)] = z;
                self.out[(r, c)] = self.gamma[c] * z + self.beta[c];
            }
        }
        &self.out
    }

    fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        assert_eq!(grad_out.rows(), self.normalized.rows(), "LayerNorm: backward before forward");
        let n = self.dim as f64;
        self.grad_in.reset(grad_out.rows(), self.dim);
        let dz = &mut self.dz;
        for r in 0..grad_out.rows() {
            // Accumulate parameter grads.
            for c in 0..self.dim {
                let g = grad_out[(r, c)];
                self.grad_gamma[c] += g * self.normalized[(r, c)];
                self.grad_beta[c] += g;
                dz[c] = g * self.gamma[c];
            }
            // Standard layer-norm input gradient:
            // dx = inv_std * (dz - mean(dz) - z * mean(dz ⊙ z)).
            let mean_dz: f64 = dz.iter().sum::<f64>() / n;
            let mean_dz_z: f64 =
                dz.iter().enumerate().map(|(c, v)| v * self.normalized[(r, c)]).sum::<f64>() / n;
            for c in 0..self.dim {
                self.grad_in[(r, c)] =
                    self.inv_std[r] * (dz[c] - mean_dz - self.normalized[(r, c)] * mean_dz_z);
            }
        }
        &self.grad_in
    }
}

impl Trainable for LayerNorm {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.gamma, &mut self.grad_gamma);
        f(&mut self.beta, &mut self.grad_beta);
    }

    fn zero_grads(&mut self) {
        self.grad_gamma.fill(0.0);
        self.grad_beta.fill(0.0);
    }

    fn param_count(&self) -> usize {
        2 * self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_diff_check;
    use treu_math::rng::SplitMix64;

    #[test]
    fn output_rows_are_standardized_at_identity_params() {
        let mut ln = LayerNorm::new(8);
        let mut rng = SplitMix64::new(1);
        let x = Matrix::from_fn(4, 8, |_, _| rng.next_gaussian() * 3.0 + 5.0);
        let y = ln.forward(&x, true);
        for r in 0..4 {
            let row = y.row(r);
            let mean: f64 = row.iter().sum::<f64>() / 8.0;
            let var: f64 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / 8.0;
            assert!(mean.abs() < 1e-9, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn scale_invariance() {
        // LayerNorm output is invariant to scaling the input row.
        let mut ln = LayerNorm::new(6);
        let x = Matrix::from_rows(&[&[1.0, -2.0, 0.5, 3.0, -1.0, 0.0]]);
        let y1 = ln.forward(&x, true).clone();
        let mut x2 = x.clone();
        x2.scale_in_place(7.0);
        let y2 = ln.forward(&x2, true);
        assert!(y1.max_abs_diff(y2) < 1e-4);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut ln = LayerNorm::new(5);
        // Nudge gamma/beta off identity so the test covers the affine path.
        ln.gamma.copy_from_slice(&[1.5, 0.5, 2.0, 1.0, 0.8]);
        ln.beta.copy_from_slice(&[0.1, -0.2, 0.0, 0.3, -0.1]);
        let mut rng = SplitMix64::new(2);
        let x = Matrix::from_fn(3, 5, |_, _| rng.next_gaussian());
        finite_diff_check(&mut ln, &x, 1e-3);
    }

    #[test]
    fn param_gradients_accumulate_and_zero() {
        let mut ln = LayerNorm::new(3);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 4.0]]);
        let y = ln.forward(&x, true).clone();
        ln.backward(&y);
        assert!(ln.grad_beta.iter().any(|&g| g != 0.0));
        ln.zero_grads();
        assert!(ln.grad_beta.iter().all(|&g| g == 0.0));
        assert_eq!(ln.param_count(), 6);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_panics() {
        LayerNorm::new(4).forward(&Matrix::zeros(1, 3), true);
    }
}
