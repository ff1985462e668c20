//! One-dimensional convolution and pooling.
//!
//! The malware project (§2.9) follows McLaughlin et al.'s architecture:
//! embed opcodes, convolve along the sequence, global-max-pool, classify.
//! [`Conv1d`] and [`GlobalMaxPool1d`] are those pieces. Batches are rows of
//! a `Matrix` whose columns are a `(channels x length)` flattening in
//! channel-major order: element `c * len + t` is channel `c` at position
//! `t`.

use crate::init;
use crate::layer::{Layer, Trainable};
use treu_math::rng::SplitMix64;
use treu_math::Matrix;

/// 1-D convolution with "valid" padding and stride 1.
///
/// Input rows are `(in_channels x len)` channel-major flattenings; output
/// rows are `(out_channels x (len - kernel + 1))`.
pub struct Conv1d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    len: usize,
    /// Weights: `out_channels x (in_channels * kernel)` (each row is one
    /// output filter, channel-major within the row).
    w: Matrix,
    b: Vec<f64>,
    grad_w: Matrix,
    grad_b: Vec<f64>,
    input: Matrix,
    out: Matrix,
    grad_in: Matrix,
}

impl Conv1d {
    /// Creates a convolution over sequences of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `kernel > len` or any dimension is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        len: usize,
        seed: u64,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0, "Conv1d: zero dimension");
        assert!(kernel <= len, "Conv1d: kernel longer than sequence");
        let mut rng = SplitMix64::new(treu_math::rng::derive_seed(seed, "conv1d.w"));
        let fan_in = in_channels * kernel;
        Self {
            in_channels,
            out_channels,
            kernel,
            len,
            w: init::he_normal(&mut rng, out_channels, fan_in),
            b: vec![0.0; out_channels],
            grad_w: Matrix::zeros(out_channels, fan_in),
            grad_b: vec![0.0; out_channels],
            input: Matrix::default(),
            out: Matrix::default(),
            grad_in: Matrix::default(),
        }
    }

    /// Output sequence length (`len - kernel + 1`).
    pub fn out_len(&self) -> usize {
        self.len - self.kernel + 1
    }

    /// Output row width (`out_channels * out_len`).
    pub fn out_width(&self) -> usize {
        self.out_channels * self.out_len()
    }
}

impl Layer for Conv1d {
    // Both passes walk row slices in the loop order (r, oc, t, ic, k):
    // every output and gradient element sees its adds in the same order
    // as a plain indexed loop, without a bounds check per access.
    fn forward(&mut self, input: &Matrix, _train: bool) -> &Matrix {
        assert_eq!(input.cols(), self.in_channels * self.len, "Conv1d: input width mismatch");
        self.input.clone_from(input);
        let (len, kernel, out_len) = (self.len, self.kernel, self.out_len());
        let out = &mut self.out;
        out.reset(input.rows(), self.out_channels * out_len);
        for r in 0..input.rows() {
            let x = input.row(r);
            let filters = self.w.as_slice().chunks_exact(self.in_channels * kernel);
            for ((filt, &bias), oseg) in
                filters.zip(&self.b).zip(out.row_mut(r).chunks_exact_mut(out_len))
            {
                for (t, o) in oseg.iter_mut().enumerate() {
                    let mut acc = bias;
                    for (xc, wc) in x.chunks_exact(len).zip(filt.chunks_exact(kernel)) {
                        for (xv, wv) in xc[t..t + kernel].iter().zip(wc) {
                            acc += xv * wv;
                        }
                    }
                    *o = acc;
                }
            }
        }
        &self.out
    }

    fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        let (len, kernel, out_len) = (self.len, self.kernel, self.out_len());
        assert_eq!(grad_out.cols(), self.out_channels * out_len, "Conv1d: grad width mismatch");
        assert_eq!(grad_out.rows(), self.input.rows(), "Conv1d: grad batch mismatch");
        let fan_in = self.in_channels * kernel;
        // The input gradient is scattered into with `+=`, so it starts at zero.
        self.grad_in.reset(self.input.rows(), self.in_channels * len);
        for r in 0..grad_out.rows() {
            let x = self.input.row(r);
            let gin = self.grad_in.row_mut(r);
            for (((gseg, gb), gw), filt) in grad_out
                .row(r)
                .chunks_exact(out_len)
                .zip(self.grad_b.iter_mut())
                .zip(self.grad_w.as_mut_slice().chunks_exact_mut(fan_in))
                .zip(self.w.as_slice().chunks_exact(fan_in))
            {
                for (t, &g) in gseg.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    *gb += g;
                    for (((xc, gic), gwc), wc) in x
                        .chunks_exact(len)
                        .zip(gin.chunks_exact_mut(len))
                        .zip(gw.chunks_exact_mut(kernel))
                        .zip(filt.chunks_exact(kernel))
                    {
                        for (((xv, gi), gwv), wv) in xc[t..t + kernel]
                            .iter()
                            .zip(&mut gic[t..t + kernel])
                            .zip(gwc.iter_mut())
                            .zip(wc)
                        {
                            *gwv += g * xv;
                            *gi += g * wv;
                        }
                    }
                }
            }
        }
        &self.grad_in
    }
}

impl Trainable for Conv1d {
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

/// Global max pooling over the time axis of a `(channels x len)` row.
///
/// Output rows have one value per channel — the sequence-length-independent
/// summary that lets the §2.9 CNN consume arbitrarily long opcode streams.
pub struct GlobalMaxPool1d {
    channels: usize,
    len: usize,
    argmax: Vec<usize>, // per (row, channel): winning time index
    out: Matrix,
    grad_in: Matrix,
}

impl GlobalMaxPool1d {
    /// Creates a pool over `(channels x len)` rows.
    pub fn new(channels: usize, len: usize) -> Self {
        assert!(channels > 0 && len > 0, "GlobalMaxPool1d: zero dimension");
        Self {
            channels,
            len,
            argmax: Vec::new(),
            out: Matrix::default(),
            grad_in: Matrix::default(),
        }
    }
}

impl Trainable for GlobalMaxPool1d {}

impl Layer for GlobalMaxPool1d {
    fn forward(&mut self, input: &Matrix, _train: bool) -> &Matrix {
        assert_eq!(input.cols(), self.channels * self.len, "GlobalMaxPool1d: width mismatch");
        self.argmax.resize(input.rows() * self.channels, 0);
        self.out.reset(input.rows(), self.channels);
        for r in 0..input.rows() {
            let x = input.row(r);
            for c in 0..self.channels {
                let seg = &x[c * self.len..(c + 1) * self.len];
                let mut best = 0;
                for (t, v) in seg.iter().enumerate().skip(1) {
                    if *v > seg[best] {
                        best = t;
                    }
                }
                self.argmax[r * self.channels + c] = best;
                self.out[(r, c)] = seg[best];
            }
        }
        &self.out
    }

    fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        let rows = self.out.rows();
        assert_eq!(grad_out.cols(), self.channels, "GlobalMaxPool1d: grad width mismatch");
        assert_eq!(grad_out.rows(), rows, "GlobalMaxPool1d: grad batch mismatch");
        // Only the argmax positions are written: the rest must be zero.
        self.grad_in.reset(rows, self.channels * self.len);
        for r in 0..rows {
            for c in 0..self.channels {
                let t = self.argmax[r * self.channels + c];
                self.grad_in[(r, c * self.len + t)] = grad_out[(r, c)];
            }
        }
        &self.grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_diff_check;
    use treu_math::rng::SplitMix64;

    #[test]
    fn conv_known_values() {
        // 1 channel, kernel [1, 2], bias 0, input [1, 2, 3].
        let mut c = Conv1d::new(1, 1, 2, 3, 0);
        c.w.as_mut_slice().copy_from_slice(&[1.0, 2.0]);
        c.b[0] = 0.5;
        let y = c.forward(&Matrix::from_rows(&[&[1.0, 2.0, 3.0]]), true);
        // [1*1+2*2, 1*2+2*3] + 0.5 = [5.5, 8.5]
        assert_eq!(y.row(0), &[5.5, 8.5]);
        assert_eq!(c.out_len(), 2);
        assert_eq!(c.out_width(), 2);
    }

    #[test]
    fn conv_multichannel_shapes() {
        let mut c = Conv1d::new(3, 4, 5, 20, 1);
        let mut rng = SplitMix64::new(2);
        let x = Matrix::from_fn(2, 3 * 20, |_, _| rng.next_gaussian());
        let y = c.forward(&x, true);
        assert_eq!(y.shape(), (2, 4 * 16));
    }

    #[test]
    fn conv_input_gradient_matches_finite_difference() {
        let mut c = Conv1d::new(2, 3, 3, 6, 3);
        let mut rng = SplitMix64::new(4);
        let x = Matrix::from_fn(2, 12, |_, _| rng.next_gaussian());
        finite_diff_check(&mut c, &x, 1e-4);
    }

    #[test]
    fn conv_weight_gradient_matches_finite_difference() {
        let mut c = Conv1d::new(1, 2, 2, 5, 5);
        let mut rng = SplitMix64::new(6);
        let x = Matrix::from_fn(3, 5, |_, _| rng.next_gaussian());
        let out = c.forward(&x, true).clone();
        c.zero_grads();
        c.backward(&out);
        let analytic = c.grad_w.clone();
        let eps = 1e-5;
        for i in 0..c.w.as_slice().len() {
            let orig = c.w.as_slice()[i];
            c.w.as_mut_slice()[i] = orig + eps;
            let lp: f64 = c.forward(&x, true).as_slice().iter().map(|v| v * v * 0.5).sum();
            c.w.as_mut_slice()[i] = orig - eps;
            let lm: f64 = c.forward(&x, true).as_slice().iter().map(|v| v * v * 0.5).sum();
            c.w.as_mut_slice()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[i]).abs() < 1e-4 * numeric.abs().max(1.0),
                "i={i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "kernel longer than sequence")]
    fn conv_kernel_too_long_panics() {
        Conv1d::new(1, 1, 10, 5, 0);
    }

    #[test]
    fn pool_takes_max_per_channel() {
        let mut p = GlobalMaxPool1d::new(2, 3);
        let x = Matrix::from_rows(&[&[1.0, 5.0, 2.0, -1.0, -7.0, -2.0]]);
        let y = p.forward(&x, true);
        assert_eq!(y.row(0), &[5.0, -1.0]);
    }

    #[test]
    fn pool_routes_gradient_to_argmax() {
        let mut p = GlobalMaxPool1d::new(1, 4);
        p.forward(&Matrix::from_rows(&[&[0.0, 9.0, 1.0, 2.0]]), true);
        let g = p.backward(&Matrix::from_rows(&[&[3.0]]));
        assert_eq!(g.row(0), &[0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn pool_gradient_matches_finite_difference() {
        let mut rng = SplitMix64::new(8);
        let x = Matrix::from_fn(2, 8, |_, _| rng.next_gaussian());
        finite_diff_check(&mut GlobalMaxPool1d::new(2, 4), &x, 1e-5);
    }
}
