//! The [`Sequential`] container and training helpers.

use crate::layer::{Layer, Trainable};
use crate::loss::softmax_cross_entropy;
use crate::optimizer::Optimizer;
use treu_math::rng::SplitMix64;
use treu_math::Matrix;

/// A stack of layers applied in order. Each layer reads the previous
/// layer's output buffer in place (the container clones neither input
/// nor gradient); the model's result is its last layer's buffer.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// What an empty model returns: a copy of its input or gradient.
    identity: Matrix,
}

impl Sequential {
    /// Builds a model from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers, identity: Matrix::default() }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to layer `i` (for analysis/transplanting, the
    /// caller downcasts via its own bookkeeping).
    pub fn layer(&self, i: usize) -> &dyn Layer {
        self.layers[i].as_ref()
    }

    /// Mutable access to layer `i`.
    pub fn layer_mut(&mut self, i: usize) -> &mut dyn Layer {
        self.layers[i].as_mut()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Matrix, train: bool) -> &Matrix {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            self.identity.clone_from(input);
            return &self.identity;
        };
        let mut x = first.forward(input, train);
        for l in rest {
            x = l.forward(x, train);
        }
        x
    }

    fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        let Some((last, rest)) = self.layers.split_last_mut() else {
            self.identity.clone_from(grad_out);
            return &self.identity;
        };
        let mut g = last.backward(grad_out);
        for l in rest.iter_mut().rev() {
            g = l.backward(g);
        }
        g
    }
}

impl Trainable for Sequential {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        for l in &mut self.layers {
            l.for_each_param(f);
        }
    }

    fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }
}

/// One epoch of minibatch classification training.
///
/// Shuffles sample order with `rng` (deterministic given the stream),
/// slices `(x, y)` into batches of `batch_size`, and performs a
/// forward/backward/step per batch. Returns the mean per-batch loss.
///
/// # Panics
///
/// Panics if `x.rows() != y.len()` or `batch_size == 0`.
pub fn train_epoch(
    model: &mut Sequential,
    opt: &mut dyn Optimizer,
    x: &Matrix,
    y: &[usize],
    batch_size: usize,
    rng: &mut SplitMix64,
) -> f64 {
    assert_eq!(x.rows(), y.len(), "train_epoch: label count mismatch");
    assert!(batch_size > 0, "train_epoch: zero batch size");
    let order = treu_math::rng::permutation(rng, y.len());
    let mut total = 0.0;
    let mut batches = 0usize;
    for chunk in order.chunks(batch_size) {
        let mut bx = Matrix::zeros(chunk.len(), x.cols());
        let mut by = Vec::with_capacity(chunk.len());
        for (i, &idx) in chunk.iter().enumerate() {
            bx.row_mut(i).copy_from_slice(x.row(idx));
            by.push(y[idx]);
        }
        let logits = model.forward(&bx, true);
        let (loss, grad) = softmax_cross_entropy(logits, &by);
        model.backward(&grad);
        opt.step(model);
        model.zero_grads();
        total += loss;
        batches += 1;
    }
    if batches == 0 {
        0.0
    } else {
        total / batches as f64
    }
}

/// Predicted class per row (argmax of logits) without gradient tracking.
pub fn predict(model: &mut Sequential, x: &Matrix) -> Vec<usize> {
    let logits = model.forward(x, false);
    (0..logits.rows()).map(|r| treu_math::vector::argmax(logits.row(r)).unwrap_or(0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::Dense;
    use crate::layer::Relu;
    use crate::loss::accuracy;
    use crate::optimizer::Sgd;

    /// Two Gaussian blobs, linearly separable.
    fn blobs(seed: u64, n_per: usize) -> (Matrix, Vec<usize>) {
        let mut rng = SplitMix64::new(seed);
        let mut x = Matrix::zeros(2 * n_per, 2);
        let mut y = Vec::new();
        for i in 0..2 * n_per {
            let c = i / n_per;
            let cx = if c == 0 { -2.0 } else { 2.0 };
            x[(i, 0)] = cx + rng.next_gaussian() * 0.5;
            x[(i, 1)] = rng.next_gaussian() * 0.5;
            y.push(c);
        }
        (x, y)
    }

    fn mlp(seed: u64) -> Sequential {
        Sequential::new(vec![
            Box::new(Dense::new(2, 16, seed)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 2, seed + 1)),
        ])
    }

    #[test]
    fn learns_linearly_separable_blobs() {
        let (x, y) = blobs(1, 50);
        let mut model = mlp(10);
        let mut opt = Sgd::new(0.1, 0.9);
        let mut rng = SplitMix64::new(2);
        let mut last = f64::INFINITY;
        for _ in 0..30 {
            last = train_epoch(&mut model, &mut opt, &x, &y, 16, &mut rng);
        }
        assert!(last < 0.1, "final loss {last}");
        let acc = accuracy(model.forward(&x, false), &y);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = blobs(3, 30);
        let run = || {
            let mut model = mlp(7);
            let mut opt = Sgd::new(0.05, 0.0);
            let mut rng = SplitMix64::new(11);
            for _ in 0..5 {
                train_epoch(&mut model, &mut opt, &x, &y, 8, &mut rng);
            }
            model.forward(&x, false).clone()
        };
        let a = run();
        let b = run();
        assert_eq!(a.max_abs_diff(&b), 0.0, "training must be bitwise deterministic");
    }

    #[test]
    fn predict_matches_argmax() {
        let (x, y) = blobs(5, 10);
        let mut model = mlp(9);
        let preds = predict(&mut model, &x);
        assert_eq!(preds.len(), y.len());
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn param_count_sums_layers() {
        let model = mlp(0);
        // 2*16+16 + 16*2+2 = 48 + 34 = 82
        let mut m = model;
        assert_eq!(m.param_count(), 82);
        let mut seen = 0;
        m.for_each_param(&mut |p, _| seen += p.len());
        assert_eq!(seen, 82);
    }

    #[test]
    #[should_panic(expected = "zero batch size")]
    fn zero_batch_panics() {
        let (x, y) = blobs(6, 4);
        let mut model = mlp(1);
        let mut opt = Sgd::new(0.1, 0.0);
        let mut rng = SplitMix64::new(0);
        train_epoch(&mut model, &mut opt, &x, &y, 0, &mut rng);
    }

    #[test]
    fn empty_model_is_identity() {
        let mut m = Sequential::new(vec![]);
        assert!(m.is_empty());
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(m.forward(&x, true), &x);
        assert_eq!(m.backward(&x), &x);
    }
}
