//! Parameter-update rules.
//!
//! Optimizers visit a model's parameters through
//! [`crate::layer::Trainable::for_each_param`]. Because visitation order is
//! deterministic, stateful optimizers keep per-buffer state in a `Vec`
//! indexed by visitation position — no parameter registry or interior
//! mutability needed.

use crate::layer::Trainable;

/// An update rule applicable to any [`Trainable`] (layers, containers and
/// models that are not layers).
pub trait Optimizer {
    /// Applies one update step using the currently accumulated gradients.
    /// Does not zero gradients; call [`Trainable::zero_grads`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a visited gradient buffer's length differs from its
    /// parameter buffer's, before that buffer's state is touched.
    fn step(&mut self, model: &mut dyn Trainable);
}

/// Stochastic gradient descent with classical momentum.
pub struct Sgd {
    lr: f64,
    momentum: f64,
    velocity: Vec<Vec<f64>>,
}

impl Sgd {
    /// Creates SGD with learning rate `lr` and momentum coefficient
    /// `momentum` (`0.0` disables momentum).
    pub fn new(lr: f64, momentum: f64) -> Self {
        Self { lr, momentum, velocity: Vec::new() }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Replaces the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Trainable) {
        let mut idx = 0usize;
        let lr = self.lr;
        let mu = self.momentum;
        let velocity = &mut self.velocity;
        model.for_each_param(&mut |params, grads| {
            assert_eq!(grads.len(), params.len(), "Sgd: gradient/parameter length mismatch");
            if velocity.len() == idx {
                velocity.push(vec![0.0; params.len()]);
            }
            let v = &mut velocity[idx];
            assert_eq!(v.len(), params.len(), "Sgd: model shape changed between steps");
            for ((p, g), vi) in params.iter_mut().zip(grads.iter()).zip(v.iter_mut()) {
                *vi = mu * *vi - lr * g;
                *p += *vi;
            }
            idx += 1;
        });
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction.
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Creates Adam with the standard defaults `beta1=0.9`, `beta2=0.999`,
    /// `eps=1e-8`.
    pub fn new(lr: f64) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Creates Adam with explicit hyperparameters.
    pub fn with_betas(lr: f64, beta1: f64, beta2: f64) -> Self {
        Self { beta1, beta2, ..Self::new(lr) }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Trainable) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        // `bc1` rounds to exactly 1.0 once `beta1^t` is at most half an ulp
        // below 1.0 (t = 356 for 0.9), and `x / 1.0 == x` for every f64:
        // from then on its division is skipped, with the same bits. `bc2`
        // gets there only at t = 37,412 for 0.999, so it is always divided.
        let update = if bc1 == 1.0 { adam_update::<false> } else { adam_update::<true> };
        let h = AdamStep { lr: self.lr, b1: self.beta1, b2: self.beta2, eps: self.eps, bc1, bc2 };
        let (ms, vs) = (&mut self.m, &mut self.v);
        let mut idx = 0usize;
        model.for_each_param(&mut |params, grads| {
            assert_eq!(grads.len(), params.len(), "Adam: gradient/parameter length mismatch");
            if ms.len() == idx {
                ms.push(vec![0.0; params.len()]);
                vs.push(vec![0.0; params.len()]);
            }
            let m = &mut ms[idx];
            let v = &mut vs[idx];
            assert_eq!(m.len(), params.len(), "Adam: model shape changed between steps");
            update(&h, params, grads, m, v);
            idx += 1;
        });
    }
}

/// The constants of one Adam step.
struct AdamStep {
    lr: f64,
    b1: f64,
    b2: f64,
    eps: f64,
    bc1: f64,
    bc2: f64,
}

/// One Adam step over one parameter buffer. `DIV1` selects whether the
/// first moment is divided by its bias correction; a caller clears it only
/// when that correction is exactly 1.0.
fn adam_update<const DIV1: bool>(
    h: &AdamStep,
    params: &mut [f64],
    grads: &[f64],
    m: &mut [f64],
    v: &mut [f64],
) {
    // Lengths are checked by the caller, so the zip drops no element; the
    // zip, unlike indexing, lets this loop vectorize.
    for (((p, &g), mi), vi) in params.iter_mut().zip(grads).zip(m).zip(v) {
        *mi = h.b1 * *mi + (1.0 - h.b1) * g;
        *vi = h.b2 * *vi + (1.0 - h.b2) * g * g;
        let mhat = if DIV1 { *mi / h.bc1 } else { *mi };
        let vhat = *vi / h.bc2;
        *p -= h.lr * mhat / (vhat.sqrt() + h.eps);
    }
}

/// Clips every gradient buffer to a global L2 norm of at most `max_norm`.
///
/// Used by the RL crate (DQN training is famously unstable without it).
pub fn clip_grad_norm(model: &mut dyn Trainable, max_norm: f64) -> f64 {
    let mut sq = 0.0;
    model.for_each_param(&mut |_, grads| {
        for g in grads.iter() {
            sq += g * g;
        }
    });
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let s = max_norm / norm;
        model.for_each_param(&mut |_, grads| {
            for g in grads.iter_mut() {
                *g *= s;
            }
        });
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A layer holding one scalar, loss = p^2/2 so grad = p.
    struct Scalar {
        p: Vec<f64>,
        g: Vec<f64>,
    }
    impl Scalar {
        fn new(p0: f64) -> Self {
            Self { p: vec![p0], g: vec![0.0] }
        }
        fn compute_grad(&mut self) {
            self.g[0] = self.p[0];
        }
    }
    impl Trainable for Scalar {
        fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
            f(&mut self.p, &mut self.g);
        }
        fn zero_grads(&mut self) {
            self.g[0] = 0.0;
        }
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut s = Scalar::new(10.0);
        let mut opt = Sgd::new(0.1, 0.0);
        for _ in 0..200 {
            s.compute_grad();
            opt.step(&mut s);
            s.zero_grads();
        }
        assert!(s.p[0].abs() < 1e-6, "p = {}", s.p[0]);
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let run = |mu: f64| {
            let mut s = Scalar::new(10.0);
            let mut opt = Sgd::new(0.01, mu);
            for _ in 0..100 {
                s.compute_grad();
                opt.step(&mut s);
                s.zero_grads();
            }
            s.p[0].abs()
        };
        assert!(run(0.9) < run(0.0), "momentum should converge faster here");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut s = Scalar::new(5.0);
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            s.compute_grad();
            opt.step(&mut s);
            s.zero_grads();
        }
        assert!(s.p[0].abs() < 1e-3, "p = {}", s.p[0]);
    }

    #[test]
    fn adam_first_step_magnitude_is_lr() {
        // With bias correction, |first step| ≈ lr regardless of grad scale.
        for g0 in [0.001, 1.0, 1000.0] {
            let mut s = Scalar::new(0.0);
            s.g[0] = g0;
            let mut opt = Adam::new(0.1);
            opt.step(&mut s);
            assert!((s.p[0].abs() - 0.1).abs() < 1e-6, "g0={g0} step={}", s.p[0]);
        }
    }

    #[test]
    fn adam_skipping_unit_bias_corrections_matches_always_dividing_bitwise() {
        // Over 400 steps, each beta1 crosses t where `1 - beta1^t` rounds to
        // 1.0 (t = 54 for 0.5, 356 for 0.9), so both instances run.
        assert_eq!(1.0 - 0.5f64.powi(54), 1.0);
        assert_ne!(1.0 - 0.5f64.powi(53), 1.0);
        assert_eq!(1.0 - 0.9f64.powi(356), 1.0);
        assert_ne!(1.0 - 0.9f64.powi(355), 1.0);
        // Parameters start at zero, so even a subnormal step shows.
        let grads = [0.0, -0.0, -3.5, 0.25, 5e-324, -1e-310, 1e150, -2e100];
        let scales = [1.0, -0.5, 2.0, 0.75, -1.25];
        let n = grads.len();
        for (b1, b2) in [(0.9, 0.999), (0.5, 0.9)] {
            let (lr, eps) = (0.01, 1e-8);
            let mut s = Scalar { p: vec![0.0; n], g: vec![0.0; n] };
            let mut opt = Adam::with_betas(lr, b1, b2);
            let (mut p, mut m, mut v) = (s.p.clone(), vec![0.0; n], vec![0.0; n]);
            for t in 1..=400 {
                for (g, base) in s.g.iter_mut().zip(grads) {
                    *g = base * scales[t % scales.len()];
                }
                opt.step(&mut s);
                let bc1 = 1.0 - b1.powi(t as i32);
                let bc2 = 1.0 - b2.powi(t as i32);
                for i in 0..n {
                    let g = s.g[i];
                    m[i] = b1 * m[i] + (1.0 - b1) * g;
                    v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                    p[i] -= lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
                }
                for (i, (got, want)) in s.p.iter().zip(&p).enumerate() {
                    assert_eq!(got.to_bits(), want.to_bits(), "betas ({b1}, {b2}), t={t}, i={i}");
                }
            }
        }
    }

    /// A layer whose gradient buffer is one element short of its
    /// parameters.
    fn mismatched() -> Scalar {
        Scalar { p: vec![1.0; 3], g: vec![1.0; 2] }
    }

    #[test]
    #[should_panic(expected = "Sgd: gradient/parameter length mismatch")]
    fn sgd_rejects_mismatched_gradients() {
        Sgd::new(0.1, 0.9).step(&mut mismatched());
    }

    #[test]
    #[should_panic(expected = "Adam: gradient/parameter length mismatch")]
    fn adam_rejects_mismatched_gradients() {
        Adam::new(0.1).step(&mut mismatched());
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut s = Scalar::new(0.0);
        s.g[0] = 10.0;
        let n = clip_grad_norm(&mut s, 1.0);
        assert_eq!(n, 10.0);
        assert!((s.g[0] - 1.0).abs() < 1e-12);
        // Under the cap: untouched.
        s.g[0] = 0.5;
        clip_grad_norm(&mut s, 1.0);
        assert_eq!(s.g[0], 0.5);
    }

    #[test]
    fn set_lr_changes_step() {
        let mut s = Scalar::new(1.0);
        let mut opt = Sgd::new(0.0, 0.0);
        opt.set_lr(1.0);
        assert_eq!(opt.lr(), 1.0);
        s.compute_grad();
        opt.step(&mut s);
        assert_eq!(s.p[0], 0.0);
    }
}
