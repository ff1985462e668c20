//! Two-dimensional convolution.
//!
//! Input rows are `(channels x h x w)` channel-major flattenings —
//! element `c*h*w + y*w + x` — matching how the histopathology and
//! detection crates rasterize patches. Valid padding, stride 1.
//!
//! The forward pass is im2col-packed: each sample's receptive fields are
//! gathered once into a contiguous `(out_h*out_w) x fan_in` patch buffer,
//! then every output element is one ascending-`f` accumulator chain
//! (`f = ic*k² + dy*k + dx`) seeded with the bias — exactly the term order
//! of the naive six-loop form, so packing changes layout and speed, never
//! a result bit.

use crate::init;
use crate::layer::{Layer, Trainable};
use treu_math::rng::SplitMix64;
use treu_math::{vector, Matrix};

/// 2-D convolution with "valid" padding and stride 1.
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    h: usize,
    w: usize,
    /// Weights: `out_channels x (in_channels * kernel * kernel)`.
    weights: Matrix,
    bias: Vec<f64>,
    grad_w: Matrix,
    grad_b: Vec<f64>,
    input: Matrix,
    out: Matrix,
    grad_in: Matrix,
    /// The sample-independent im2col gather map ([`Conv2d::im2col_map`]).
    map: Vec<usize>,
    /// One sample's packed patches, `(out_h*out_w) x fan_in`.
    patches: Vec<f64>,
}

impl Conv2d {
    /// Creates a convolution over `(in_channels, h, w)` inputs.
    ///
    /// # Panics
    ///
    /// Panics if the kernel exceeds either spatial extent or any dimension
    /// is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        h: usize,
        w: usize,
        seed: u64,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0, "Conv2d: zero dimension");
        assert!(kernel <= h && kernel <= w, "Conv2d: kernel larger than input");
        let mut rng = SplitMix64::new(treu_math::rng::derive_seed(seed, "conv2d.w"));
        let fan_in = in_channels * kernel * kernel;
        let mut conv = Self {
            in_channels,
            out_channels,
            kernel,
            h,
            w,
            weights: init::he_normal(&mut rng, out_channels, fan_in),
            bias: vec![0.0; out_channels],
            grad_w: Matrix::zeros(out_channels, fan_in),
            grad_b: vec![0.0; out_channels],
            input: Matrix::default(),
            out: Matrix::default(),
            grad_in: Matrix::default(),
            map: Vec::new(),
            patches: Vec::new(),
        };
        conv.map = conv.im2col_map();
        conv.patches = vec![0.0; conv.map.len()];
        conv
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        self.h - self.kernel + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        self.w - self.kernel + 1
    }

    /// Output row width (`out_channels * out_h * out_w`).
    pub fn out_len(&self) -> usize {
        self.out_channels * self.out_h() * self.out_w()
    }

    /// Patch width (`in_channels * kernel * kernel`).
    fn fan_in(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    #[inline]
    fn in_idx(&self, c: usize, y: usize, x: usize) -> usize {
        c * self.h * self.w + y * self.w + x
    }

    /// The sample-independent im2col gather map: entry `pix*fan_in + f` is
    /// the input-row index feeding patch element `f` of output pixel `pix`.
    fn im2col_map(&self) -> Vec<usize> {
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut map = Vec::with_capacity(oh * ow * self.fan_in());
        for y in 0..oh {
            for xx in 0..ow {
                for ic in 0..self.in_channels {
                    for dy in 0..self.kernel {
                        for dx in 0..self.kernel {
                            map.push(self.in_idx(ic, y + dy, xx + dx));
                        }
                    }
                }
            }
        }
        map
    }

    /// Gathers one sample row into the patch buffer (`(oh*ow) x fan_in`).
    fn gather_patches(x: &[f64], map: &[usize], patches: &mut [f64]) {
        for (dst, &src) in patches.iter_mut().zip(map) {
            *dst = x[src];
        }
    }

    /// Convolves one sample's packed patches into one output row, given
    /// the `out_channels x fan_in` filters and their biases.
    ///
    /// Per output element the accumulator starts at the bias and grows by
    /// one ascending-`f` chain — the naive loop's exact order. Four output
    /// pixels advance in lockstep for ILP; their chains stay independent.
    fn forward_row(weights: &Matrix, bias: &[f64], patches: &[f64], orow: &mut [f64]) {
        let fan = weights.cols();
        let pix_count = orow.len() / bias.len();
        for (oc, (oseg, &b)) in orow.chunks_exact_mut(pix_count).zip(bias).enumerate() {
            let filt = weights.row(oc);
            let mut pix = 0;
            while pix + 4 <= pix_count {
                let p0 = &patches[pix * fan..(pix + 1) * fan];
                let p1 = &patches[(pix + 1) * fan..(pix + 2) * fan];
                let p2 = &patches[(pix + 2) * fan..(pix + 3) * fan];
                let p3 = &patches[(pix + 3) * fan..(pix + 4) * fan];
                let (mut a0, mut a1, mut a2, mut a3) = (b, b, b, b);
                for f in 0..fan {
                    let wv = filt[f];
                    a0 += p0[f] * wv;
                    a1 += p1[f] * wv;
                    a2 += p2[f] * wv;
                    a3 += p3[f] * wv;
                }
                oseg[pix] = a0;
                oseg[pix + 1] = a1;
                oseg[pix + 2] = a2;
                oseg[pix + 3] = a3;
                pix += 4;
            }
            while pix < pix_count {
                let p = &patches[pix * fan..(pix + 1) * fan];
                let mut acc = b;
                for f in 0..fan {
                    acc += p[f] * filt[f];
                }
                oseg[pix] = acc;
                pix += 1;
            }
        }
    }

    /// The naive six-loop forward — the reference kernel the packed
    /// im2col path of [`Layer::forward`] must reproduce bit-for-bit
    /// (bias-seeded ascending-f accumulation chain per output pixel). Kept
    /// public so benches can price the packed path against the
    /// untransformed loop nest.
    ///
    /// # Panics
    ///
    /// Panics if the input width disagrees with the layer geometry.
    pub fn forward_naive(&self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.in_channels * self.h * self.w,
            "Conv2d: input width mismatch"
        );
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut out = Matrix::zeros(input.rows(), self.out_channels * oh * ow);
        for r in 0..input.rows() {
            let x = input.row(r);
            for oc in 0..self.out_channels {
                let filt = self.weights.row(oc);
                for y in 0..oh {
                    for xx in 0..ow {
                        let mut acc = self.bias[oc];
                        for ic in 0..self.in_channels {
                            for dy in 0..self.kernel {
                                for dx in 0..self.kernel {
                                    acc += x[self.in_idx(ic, y + dy, xx + dx)]
                                        * filt[ic * self.kernel * self.kernel
                                            + dy * self.kernel
                                            + dx];
                                }
                            }
                        }
                        out[(r, oc * oh * ow + y * ow + xx)] = acc;
                    }
                }
            }
        }
        out
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Matrix, _train: bool) -> &Matrix {
        assert_eq!(
            input.cols(),
            self.in_channels * self.h * self.w,
            "Conv2d: input width mismatch"
        );
        self.input.clone_from(input);
        let out_len = self.out_len();
        self.out.reset(input.rows(), out_len);
        for (i, orow) in self.out.as_mut_slice().chunks_mut(out_len).enumerate() {
            Self::gather_patches(input.row(i), &self.map, &mut self.patches);
            Self::forward_row(&self.weights, &self.bias, &self.patches, orow);
        }
        &self.out
    }

    fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        let (oh, ow) = (self.out_h(), self.out_w());
        assert_eq!(grad_out.cols(), self.out_channels * oh * ow, "Conv2d: grad width mismatch");
        assert_eq!(grad_out.rows(), self.input.rows(), "Conv2d: grad batch mismatch");
        let fan = self.fan_in();
        let pix_count = oh * ow;
        // The input gradient is scattered into with `+=`, so it starts at zero.
        self.grad_in.reset(self.input.rows(), self.in_channels * self.h * self.w);
        for r in 0..grad_out.rows() {
            Self::gather_patches(self.input.row(r), &self.map, &mut self.patches);
            let girow = self.grad_in.row_mut(r);
            for oc in 0..self.out_channels {
                let gseg = &grad_out.row(r)[oc * pix_count..(oc + 1) * pix_count];
                let wrow = self.weights.row(oc);
                let gwrow = self.grad_w.row_mut(oc);
                for pix in 0..pix_count {
                    let g = gseg[pix];
                    if g == 0.0 {
                        continue;
                    }
                    self.grad_b[oc] += g;
                    // dW row: one axpy over the packed patch — same
                    // ascending-f term order as the naive gather loop.
                    vector::axpy(g, &self.patches[pix * fan..(pix + 1) * fan], gwrow);
                    // dX: scatter back through the im2col map.
                    let pmap = &self.map[pix * fan..(pix + 1) * fan];
                    for f in 0..fan {
                        girow[pmap[f]] += g * wrow[f];
                    }
                }
            }
        }
        &self.grad_in
    }
}

impl Trainable for Conv2d {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(self.weights.as_mut_slice(), self.grad_w.as_mut_slice());
        f(&mut self.bias, &mut self.grad_b);
    }

    fn zero_grads(&mut self) {
        self.grad_w.as_mut_slice().fill(0.0);
        self.grad_b.fill(0.0);
    }

    fn param_count(&self) -> usize {
        self.weights.as_slice().len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_diff_check;

    #[test]
    fn identity_kernel_copies_input() {
        // 1x1 kernel with weight 1: output equals input.
        let mut c = Conv2d::new(1, 1, 1, 3, 3, 0);
        c.weights.as_mut_slice()[0] = 1.0;
        c.bias[0] = 0.0;
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]]);
        let y = c.forward(&x, true);
        assert_eq!(y.row(0), x.row(0));
    }

    #[test]
    fn known_3x3_box_filter() {
        let mut c = Conv2d::new(1, 1, 2, 3, 3, 0);
        c.weights.as_mut_slice().fill(1.0);
        c.bias[0] = 0.0;
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]]);
        let y = c.forward(&x, true);
        // 2x2 sums: [1+2+4+5, 2+3+5+6, 4+5+7+8, 5+6+8+9]
        assert_eq!(y.row(0), &[12.0, 16.0, 24.0, 28.0]);
        assert_eq!(c.out_len(), 4);
    }

    #[test]
    fn multichannel_shapes() {
        let mut c = Conv2d::new(3, 5, 3, 8, 10, 1);
        let x = Matrix::zeros(2, 3 * 8 * 10);
        let y = c.forward(&x, true);
        assert_eq!(y.shape(), (2, 5 * 6 * 8));
        assert_eq!(c.param_count(), 5 * 27 + 5);
    }

    #[test]
    fn packed_forward_matches_naive_loop_bitwise() {
        let mut rng = SplitMix64::new(42);
        let mut c = Conv2d::new(3, 4, 3, 7, 9, 11);
        for b in c.bias.iter_mut() {
            *b = rng.next_gaussian();
        }
        let x = Matrix::from_fn(3, 3 * 7 * 9, |_, _| rng.next_gaussian());
        let want = c.forward_naive(&x);
        let got = c.forward(&x, false);
        assert_eq!(got.shape(), want.shape());
        for (i, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "elem {i}: {a} vs {b}");
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut c = Conv2d::new(2, 2, 2, 4, 4, 3);
        let mut rng = SplitMix64::new(4);
        let x = Matrix::from_fn(2, 2 * 16, |_, _| rng.next_gaussian());
        finite_diff_check(&mut c, &x, 1e-4);
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut c = Conv2d::new(1, 2, 2, 4, 4, 5);
        let mut rng = SplitMix64::new(6);
        let x = Matrix::from_fn(2, 16, |_, _| rng.next_gaussian());
        let out = c.forward(&x, true).clone();
        c.zero_grads();
        c.backward(&out);
        let analytic = c.grad_w.clone();
        let eps = 1e-5;
        for i in 0..c.weights.as_slice().len() {
            let orig = c.weights.as_slice()[i];
            c.weights.as_mut_slice()[i] = orig + eps;
            let lp: f64 = c.forward(&x, true).as_slice().iter().map(|v| v * v * 0.5).sum();
            c.weights.as_mut_slice()[i] = orig - eps;
            let lm: f64 = c.forward(&x, true).as_slice().iter().map(|v| v * v * 0.5).sum();
            c.weights.as_mut_slice()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[i]).abs() < 1e-4 * numeric.abs().max(1.0),
                "w[{i}]"
            );
        }
    }

    #[test]
    #[should_panic(expected = "kernel larger than input")]
    fn oversized_kernel_panics() {
        Conv2d::new(1, 1, 5, 4, 4, 0);
    }
}
