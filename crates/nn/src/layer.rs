//! The [`Layer`] and [`Trainable`] traits and element-wise activation layers.
//!
//! A layer owns its parameters, their gradient buffers, and the buffers it
//! returns. The training protocol is: `forward(x, train)` caches whatever
//! it needs and returns its output, `backward(g)` accumulates parameter
//! gradients and returns the gradient with respect to the input, and the
//! optimizer visits parameters through [`Trainable::for_each_param`].
//! Visitation order is deterministic (each layer visits its buffers in a
//! fixed order, the container visits layers in order), which is what lets
//! stateful optimizers like Adam keep their moment estimates aligned
//! without any registry.
//!
//! # The buffer contract
//!
//! `forward` and `backward` return a `&Matrix` that borrows a buffer the
//! layer owns. The buffer is sized on the first call, reshaped when the
//! batch's row count changes, and overwritten by the next call, so a
//! training step allocates nothing once every buffer has its shape. The
//! borrow checker ends the borrow before the layer can be called again;
//! a caller that needs a result past that point clones it. A buffer that a
//! kernel accumulates into is reset to `+0.0` first (`Matrix::reset`),
//! exactly where a fresh `Matrix::zeros` used to stand, so reuse never
//! changes a result bit.

use treu_math::Matrix;

/// A set of trainable parameters with their gradient buffers: what an
/// [`crate::optimizer::Optimizer`] updates. Models that are not a single
/// matrix-to-matrix map (token classifiers, multi-head models) implement
/// only this.
pub trait Trainable {
    /// Visits every `(parameter, gradient)` buffer pair in a fixed order.
    ///
    /// The default is a no-op for parameter-free layers.
    fn for_each_param(&mut self, _f: &mut dyn FnMut(&mut [f64], &mut [f64])) {}

    /// Zeroes all gradient buffers. Default no-op.
    fn zero_grads(&mut self) {}

    /// Number of scalar parameters (for reporting). Default zero.
    fn param_count(&self) -> usize {
        0
    }
}

/// A differentiable map from a batch (rows = samples) to a batch, with
/// owned parameters and owned output buffers (see the module docs).
pub trait Layer: Trainable {
    /// Computes the layer output for a batch (rows = samples) into the
    /// layer's output buffer and returns it.
    ///
    /// `train` distinguishes training from inference for layers that
    /// behave differently (none of the built-ins currently do, but
    /// project crates implement dropout-style layers).
    fn forward(&mut self, input: &Matrix, train: bool) -> &Matrix;

    /// Backpropagates `grad_out` (gradient of the loss w.r.t. this layer's
    /// output), accumulating parameter gradients, and returns the gradient
    /// w.r.t. this layer's input from the layer's input-gradient buffer.
    ///
    /// Must be called after a `forward` on the same batch.
    fn backward(&mut self, grad_out: &Matrix) -> &Matrix;
}

/// Copies every parameter buffer of `src` into the matching buffer of
/// `dst`, slice by slice and in visitation order (a target-network sync).
///
/// # Panics
///
/// Panics if the two visit different numbers or lengths of buffers.
pub fn copy_params(dst: &mut dyn Trainable, src: &mut dyn Trainable) {
    let mut copied = 0;
    src.for_each_param(&mut |from, _| {
        let mut seen = 0;
        dst.for_each_param(&mut |to, _| {
            if seen == copied {
                assert_eq!(to.len(), from.len(), "copy_params: parameter shape mismatch");
                to.copy_from_slice(from);
            }
            seen += 1;
        });
        assert!(copied < seen, "copy_params: destination has too few buffers");
        copied += 1;
    });
    let mut total = 0;
    dst.for_each_param(&mut |_, _| total += 1);
    assert_eq!(total, copied, "copy_params: destination has too many buffers");
}

/// Applies `f` element-wise from `input` into `out`, reshaping `out` to
/// `input`'s shape.
fn map_into(input: &Matrix, out: &mut Matrix, f: impl Fn(f64) -> f64) {
    out.reset(input.rows(), input.cols());
    for (o, &v) in out.as_mut_slice().iter_mut().zip(input.as_slice()) {
        *o = f(v);
    }
}

/// Writes `d(g, c)` into `grad_in` for each element `g` of `grad_out` and
/// the matching cached forward value `c` (an output or a mask), reshaping
/// `grad_in` to `grad_out`'s shape.
fn chain_into<T: Copy>(
    grad_out: &Matrix,
    cached: &[T],
    grad_in: &mut Matrix,
    d: impl Fn(f64, T) -> f64,
) {
    assert_eq!(grad_out.as_slice().len(), cached.len(), "backward before forward");
    grad_in.reset(grad_out.rows(), grad_out.cols());
    for ((gi, &g), &c) in grad_in.as_mut_slice().iter_mut().zip(grad_out.as_slice()).zip(cached) {
        *gi = d(g, c);
    }
}

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Vec<bool>,
    out: Matrix,
    grad_in: Matrix,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Trainable for Relu {}

impl Layer for Relu {
    fn forward(&mut self, input: &Matrix, _train: bool) -> &Matrix {
        self.mask.clear();
        self.mask.extend(input.as_slice().iter().map(|&v| v > 0.0));
        map_into(input, &mut self.out, |v| v.max(0.0));
        &self.out
    }

    fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        chain_into(grad_out, &self.mask, &mut self.grad_in, |g, m| if m { g } else { 0.0 });
        &self.grad_in
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Default)]
pub struct Tanh {
    out: Matrix,
    grad_in: Matrix,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Trainable for Tanh {}

impl Layer for Tanh {
    fn forward(&mut self, input: &Matrix, _train: bool) -> &Matrix {
        map_into(input, &mut self.out, f64::tanh);
        &self.out
    }

    fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        chain_into(grad_out, self.out.as_slice(), &mut self.grad_in, |g, y| g * (1.0 - y * y));
        &self.grad_in
    }
}

/// Logistic sigmoid activation.
#[derive(Debug, Default)]
pub struct Sigmoid {
    out: Matrix,
    grad_in: Matrix,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Trainable for Sigmoid {}

impl Layer for Sigmoid {
    fn forward(&mut self, input: &Matrix, _train: bool) -> &Matrix {
        map_into(input, &mut self.out, |v| 1.0 / (1.0 + (-v).exp()));
        &self.out
    }

    fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        chain_into(grad_out, self.out.as_slice(), &mut self.grad_in, |g, y| g * y * (1.0 - y));
        &self.grad_in
    }
}

/// Numerically checks a layer's input gradient against central finite
/// differences on a scalar loss `sum(output^2)/2`. Test helper shared by
/// the layer implementations.
#[doc(hidden)]
pub fn finite_diff_check<L: Layer>(layer: &mut L, input: &Matrix, tol: f64) {
    // Analytic gradient: d(sum(y^2)/2)/dy = y.
    let grad_out = layer.forward(input, true).clone();
    let grad_in = layer.backward(&grad_out).clone();

    let eps = 1e-5;
    for i in 0..input.as_slice().len() {
        let mut plus = input.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = input.clone();
        minus.as_mut_slice()[i] -= eps;
        let lp: f64 = layer.forward(&plus, true).as_slice().iter().map(|v| v * v * 0.5).sum();
        let lm: f64 = layer.forward(&minus, true).as_slice().iter().map(|v| v * v * 0.5).sum();
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = grad_in.as_slice()[i];
        assert!(
            (numeric - analytic).abs() <= tol * numeric.abs().max(1.0),
            "grad mismatch at {i}: analytic {analytic} vs numeric {numeric}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treu_math::rng::SplitMix64;

    fn random_batch(seed: u64, r: usize, c: usize) -> Matrix {
        let mut rng = SplitMix64::new(seed);
        Matrix::from_fn(r, c, |_, _| rng.next_gaussian())
    }

    #[test]
    fn relu_forward_clamps() {
        let mut relu = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]);
        let y = relu.forward(&x, true);
        assert_eq!(y.row(0), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let mut relu = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 3.0]]);
        relu.forward(&x, true);
        let g = relu.backward(&Matrix::from_rows(&[&[5.0, 5.0]]));
        assert_eq!(g.row(0), &[0.0, 5.0]);
    }

    #[test]
    fn tanh_gradient_matches_finite_difference() {
        let mut t = Tanh::new();
        finite_diff_check(&mut t, &random_batch(1, 3, 4), 1e-5);
    }

    #[test]
    fn sigmoid_gradient_matches_finite_difference() {
        let mut s = Sigmoid::new();
        finite_diff_check(&mut s, &random_batch(2, 2, 5), 1e-5);
    }

    #[test]
    fn relu_gradient_matches_finite_difference_away_from_kink() {
        // Shift inputs away from zero so the finite difference is valid.
        let mut x = random_batch(3, 3, 3);
        for v in x.as_mut_slice() {
            if v.abs() < 0.1 {
                *v += 0.5;
            }
        }
        finite_diff_check(&mut Relu::new(), &x, 1e-5);
    }

    #[test]
    fn activations_have_no_params() {
        let mut r = Relu::new();
        assert_eq!(r.param_count(), 0);
        let mut visited = 0;
        r.for_each_param(&mut |_, _| visited += 1);
        assert_eq!(visited, 0);
    }

    #[test]
    fn copy_params_copies_every_buffer_and_rejects_other_shapes() {
        use crate::dense::Dense;
        let x = random_batch(4, 2, 3);
        let (mut a, mut b) = (Dense::new(3, 2, 1), Dense::new(3, 2, 2));
        assert_ne!(a.forward(&x, false), b.forward(&x, false));
        copy_params(&mut b, &mut a);
        assert_eq!(a.forward(&x, false), b.forward(&x, false));
        for mut other in [Dense::new(3, 3, 3), Dense::new(2, 2, 3)] {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                copy_params(&mut other, &mut a);
            }));
            assert!(r.is_err(), "a different shape must not be copied into");
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            copy_params(&mut Relu::new(), &mut a);
        }));
        assert!(r.is_err(), "a destination with fewer buffers must be rejected");
    }

    #[test]
    fn sigmoid_range() {
        let mut s = Sigmoid::new();
        let y = s.forward(&Matrix::from_rows(&[&[-100.0, 0.0, 100.0]]), false);
        assert!(y.row(0)[0] < 1e-10);
        assert!((y.row(0)[1] - 0.5).abs() < 1e-12);
        assert!(y.row(0)[2] > 1.0 - 1e-10);
    }
}
