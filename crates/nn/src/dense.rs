//! Fully-connected (dense) layer.

use crate::init;
use crate::layer::{Layer, Trainable};
use treu_math::rng::SplitMix64;
use treu_math::Matrix;

/// A dense layer computing `y = x W + b` for a batch `x` (rows = samples).
///
/// Weights are He-initialized from the constructor seed; biases start at
/// zero. Gradients accumulate across `backward` calls until
/// [`Trainable::zero_grads`].
pub struct Dense {
    w: Matrix,        // in x out
    b: Vec<f64>,      // out
    grad_w: Matrix,   // in x out
    grad_b: Vec<f64>, // out
    input: Matrix,    // cached batch
    out: Matrix,      // batch x out
    grad_in: Matrix,  // batch x in
}

impl Dense {
    /// Creates a dense layer with `fan_in` inputs and `fan_out` outputs,
    /// deterministically initialized from `seed`.
    pub fn new(fan_in: usize, fan_out: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(treu_math::rng::derive_seed(seed, "dense.w"));
        Self {
            w: init::he_normal(&mut rng, fan_in, fan_out),
            b: vec![0.0; fan_out],
            grad_w: Matrix::zeros(fan_in, fan_out),
            grad_b: vec![0.0; fan_out],
            input: Matrix::default(),
            out: Matrix::default(),
            grad_in: Matrix::default(),
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// Read-only weight access (tests, analysis, weight transplanting for
    /// the fine-tuning experiments in `treu-histo`).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Mutable weight access; used by fine-tuning to transplant pretrained
    /// trunks.
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.w
    }

    /// Read-only bias access.
    pub fn bias(&self) -> &[f64] {
        &self.b
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Matrix, _train: bool) -> &Matrix {
        assert_eq!(input.cols(), self.w.rows(), "Dense: input width mismatch");
        self.input.clone_from(input);
        // The bias is added after the product, as a separate rounding.
        input.matmul_into(&self.w, &mut self.out);
        for r in 0..self.out.rows() {
            let row = self.out.row_mut(r);
            for (o, bi) in row.iter_mut().zip(&self.b) {
                *o += bi;
            }
        }
        &self.out
    }

    fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        assert_eq!(grad_out.rows(), self.input.rows(), "Dense: backward batch mismatch");
        assert_eq!(grad_out.cols(), self.w.cols(), "Dense: backward width mismatch");
        // dW = x^T g ; db = column sums of g ; dx = g W^T — both GEMMs
        // read the transposed operand in place. dW adds this batch's
        // product to grad_w, each element a chain from +0.0 added once:
        // seeding the chain with grad_w would round differently.
        self.grad_w.add_matmul_tn(&self.input, grad_out);
        for r in 0..grad_out.rows() {
            for (gb, g) in self.grad_b.iter_mut().zip(grad_out.row(r)) {
                *gb += g;
            }
        }
        grad_out.matmul_nt_into(&self.w, &mut self.grad_in);
        &self.grad_in
    }
}

impl Trainable for Dense {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(self.w.as_mut_slice(), self.grad_w.as_mut_slice());
        f(&mut self.b, &mut self.grad_b);
    }

    fn zero_grads(&mut self) {
        self.grad_w.as_mut_slice().fill(0.0);
        self.grad_b.fill(0.0);
    }

    fn param_count(&self) -> usize {
        self.w.as_slice().len() + self.b.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_diff_check;
    use treu_math::rng::SplitMix64;

    #[test]
    fn forward_shape_and_bias() {
        let mut d = Dense::new(3, 2, 1);
        // Zero the weights so output equals the bias.
        d.weights_mut().as_mut_slice().fill(0.0);
        d.b.copy_from_slice(&[1.0, -1.0]);
        let y = d.forward(&Matrix::from_rows(&[&[5.0, 6.0, 7.0]]), true);
        assert_eq!(y.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut d = Dense::new(4, 3, 2);
        let mut rng = SplitMix64::new(9);
        let x = Matrix::from_fn(2, 4, |_, _| rng.next_gaussian());
        finite_diff_check(&mut d, &x, 1e-4);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut d = Dense::new(3, 2, 5);
        let mut rng = SplitMix64::new(10);
        let x = Matrix::from_fn(4, 3, |_, _| rng.next_gaussian());

        let out = d.forward(&x, true).clone();
        d.zero_grads();
        d.backward(&out);
        let analytic = d.grad_w.clone();

        let eps = 1e-5;
        for i in 0..d.w.as_slice().len() {
            let orig = d.w.as_slice()[i];
            d.w.as_mut_slice()[i] = orig + eps;
            let lp: f64 = d.forward(&x, true).as_slice().iter().map(|v| v * v * 0.5).sum();
            d.w.as_mut_slice()[i] = orig - eps;
            let lm: f64 = d.forward(&x, true).as_slice().iter().map(|v| v * v * 0.5).sum();
            d.w.as_mut_slice()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            assert!((numeric - a).abs() < 1e-4 * numeric.abs().max(1.0), "i={i} {a} vs {numeric}");
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut d = Dense::new(2, 2, 3);
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let g = Matrix::from_rows(&[&[1.0, 1.0]]);
        d.forward(&x, true);
        d.backward(&g);
        let once = d.grad_w.clone();
        d.forward(&x, true);
        d.backward(&g);
        let twice = d.grad_w.clone();
        assert!(
            twice.max_abs_diff(&{
                let mut m = once.clone();
                m.scale_in_place(2.0);
                m
            }) < 1e-12
        );
        d.zero_grads();
        assert_eq!(d.grad_w.frobenius_norm(), 0.0);
    }

    #[test]
    fn param_count() {
        let d = Dense::new(10, 4, 0);
        assert_eq!(d.param_count(), 44);
    }

    #[test]
    fn deterministic_init() {
        let a = Dense::new(5, 5, 77);
        let b = Dense::new(5, 5, 77);
        assert_eq!(a.weights(), b.weights());
    }
}
