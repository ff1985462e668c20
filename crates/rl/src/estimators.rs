//! The two Q-estimator families: convolutional and attention-based.
//!
//! Both consume the same flattened `GRID x GRID` observation and emit
//! [`crate::env::N_ACTIONS`] Q-values; the DQN agent drives either through
//! one [`QNetwork`], so the reliability comparison isolates the estimator
//! family exactly as §2.8 isolates "CNNs vs. vision transformers for
//! estimating Q values".

use crate::env::{GRID, N_ACTIONS, OBS_LEN};
use treu_math::rng::derive_seed;
use treu_math::Matrix;
use treu_nn::attention::SelfAttention;
use treu_nn::conv::Conv1d;
use treu_nn::dense::Dense;
use treu_nn::layer::{Layer, Relu, Trainable};
use treu_nn::model::Sequential;
use treu_nn::optimizer::{Adam, Optimizer};

/// Estimator family selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Convolutional (the CNN family: EfficientNet's role).
    Conv,
    /// Attention (the vision-transformer family: SwinNet's role).
    Attention,
}

impl EstimatorKind {
    /// Both families.
    pub fn all() -> [EstimatorKind; 2] {
        [EstimatorKind::Conv, EstimatorKind::Attention]
    }

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::Conv => "conv",
            EstimatorKind::Attention => "attention",
        }
    }

    /// Builds an estimator with the given learning rate.
    ///
    /// The convolutional family reads the grid as one `1 x OBS_LEN` row:
    /// grid rows as channels, Conv1d along columns, ReLU, dense head. The
    /// attention family reads it as `GRID x GRID` tokens ([`AttnNet`]).
    pub fn build(self, lr: f64, seed: u64) -> QNetwork {
        match self {
            EstimatorKind::Conv => {
                let conv = Conv1d::new(GRID, 8, 3, GRID, derive_seed(seed, "conv"));
                let width = conv.out_width();
                let net = Sequential::new(vec![
                    Box::new(conv),
                    Box::new(Relu::new()),
                    Box::new(Dense::new(width, 32, derive_seed(seed, "fc1"))),
                    Box::new(Relu::new()),
                    Box::new(Dense::new(32, N_ACTIONS, derive_seed(seed, "fc2"))),
                ]);
                QNetwork::new(Box::new(net), (1, OBS_LEN), lr)
            }
            EstimatorKind::Attention => {
                QNetwork::new(Box::new(AttnNet::new(seed)), (GRID, GRID), lr)
            }
        }
    }
}

/// A trainable state-action value estimator: a network from an
/// observation to one row of Q-values, the input and TD-gradient buffers
/// it reads, and its optimizer. A step allocates nothing.
pub struct QNetwork {
    net: Box<dyn Layer>,
    /// The observation, shaped as the family reads it.
    x: Matrix,
    /// The squared TD error's gradient on the Q-values (`1 x N_ACTIONS`).
    grad: Matrix,
    opt: Adam,
}

impl QNetwork {
    fn new(net: Box<dyn Layer>, (rows, cols): (usize, usize), lr: f64) -> Self {
        Self { net, x: Matrix::zeros(rows, cols), grad: Matrix::default(), opt: Adam::new(lr) }
    }

    /// Q-values for all actions in a state, read from the network's own
    /// output buffer.
    pub fn q_values(&mut self, obs: &[f64]) -> &[f64] {
        assert_eq!(obs.len(), OBS_LEN, "observation length mismatch");
        self.x.as_mut_slice().copy_from_slice(obs);
        self.net.forward(&self.x, false).row(0)
    }

    /// One TD update: move `Q(obs, action)` toward `target`.
    pub fn update(&mut self, obs: &[f64], action: usize, target: f64) {
        self.x.as_mut_slice().copy_from_slice(obs);
        let q = self.net.forward(&self.x, true)[(0, action)];
        // Squared TD error on the chosen action only: every other entry
        // of the gradient must be zero, so the buffer is reset.
        self.grad.reset(1, N_ACTIONS);
        self.grad[(0, action)] = 2.0 * (q - target);
        self.net.backward(&self.grad);
        treu_nn::optimizer::clip_grad_norm(self.net.as_mut(), 5.0);
        self.opt.step(self.net.as_mut());
        self.net.zero_grads();
    }

    /// The network's parameters; the target-network sync copies them with
    /// [`treu_nn::layer::copy_params`].
    pub fn params(&mut self) -> &mut dyn Trainable {
        self.net.as_mut()
    }
}

/// The attention family's network: grid rows as tokens (dim = GRID), one
/// self-attention block, mean pool, dense head.
pub struct AttnNet {
    attn: SelfAttention,
    head1: Dense,
    relu: Relu,
    head2: Dense,
    /// Token mean (`1 x GRID`).
    pooled: Matrix,
    /// The pooled gradient spread back over the tokens (`GRID x GRID`).
    grad_tokens: Matrix,
}

impl AttnNet {
    /// Builds the network.
    pub fn new(seed: u64) -> Self {
        Self {
            attn: SelfAttention::new(GRID, derive_seed(seed, "attn")),
            head1: Dense::new(GRID, 32, derive_seed(seed, "fc1")),
            relu: Relu::new(),
            head2: Dense::new(32, N_ACTIONS, derive_seed(seed, "fc2")),
            pooled: Matrix::default(),
            grad_tokens: Matrix::default(),
        }
    }
}

impl Layer for AttnNet {
    fn forward(&mut self, tokens: &Matrix, train: bool) -> &Matrix {
        let y = self.attn.forward(tokens, train); // GRID x GRID
                                                  // Mean-pool tokens -> 1 x GRID, accumulated from zero.
        self.pooled.reset(1, GRID);
        for t in 0..GRID {
            for c in 0..GRID {
                self.pooled[(0, c)] += y[(t, c)] / GRID as f64;
            }
        }
        let h = self.head1.forward(&self.pooled, train);
        let h = self.relu.forward(h, train);
        self.head2.forward(h, train)
    }

    fn backward(&mut self, grad: &Matrix) -> &Matrix {
        let g = self.head2.backward(grad);
        let g = self.relu.backward(g);
        let g = self.head1.backward(g); // 1 x GRID
        self.grad_tokens.reset(GRID, GRID);
        for t in 0..GRID {
            for c in 0..GRID {
                self.grad_tokens[(t, c)] = g[(0, c)] / GRID as f64;
            }
        }
        self.attn.backward(&self.grad_tokens)
    }
}

impl Trainable for AttnNet {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.attn.for_each_param(f);
        self.head1.for_each_param(f);
        self.head2.for_each_param(f);
    }

    fn zero_grads(&mut self) {
        self.attn.zero_grads();
        self.head1.zero_grads();
        self.head2.zero_grads();
    }

    fn param_count(&self) -> usize {
        self.attn.param_count() + self.head1.param_count() + self.head2.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero_obs() -> Vec<f64> {
        vec![0.0; OBS_LEN]
    }

    #[test]
    fn q_values_have_action_arity() {
        for kind in EstimatorKind::all() {
            let mut q = kind.build(0.01, 1);
            let v = q.q_values(&zero_obs());
            assert_eq!(v.len(), N_ACTIONS, "{}", kind.name());
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn update_moves_q_toward_target() {
        for kind in EstimatorKind::all() {
            let mut q = kind.build(0.02, 2);
            let mut obs = zero_obs();
            obs[7] = 1.0;
            let before = q.q_values(&obs)[3];
            for _ in 0..200 {
                q.update(&obs, 3, 5.0);
            }
            let after = q.q_values(&obs)[3];
            assert!(
                (after - 5.0).abs() < (before - 5.0).abs(),
                "{}: {before} -> {after}",
                kind.name()
            );
            assert!((after - 5.0).abs() < 1.0, "{}: after {after}", kind.name());
        }
    }

    #[test]
    fn target_sync_roundtrip() {
        for kind in EstimatorKind::all() {
            let mut a = kind.build(0.02, 3);
            let mut b = kind.build(0.02, 4);
            let obs = {
                let mut o = zero_obs();
                o[10] = 1.0;
                o[20] = -1.0;
                o
            };
            assert_ne!(a.q_values(&obs), b.q_values(&obs), "different seeds differ");
            treu_nn::layer::copy_params(b.params(), a.params());
            assert_eq!(a.q_values(&obs), b.q_values(&obs), "{}", kind.name());
        }
    }

    #[test]
    #[should_panic(expected = "observation length mismatch")]
    fn wrong_obs_len_panics() {
        EstimatorKind::Conv.build(0.01, 0).q_values(&[0.0; 4]);
    }

    #[test]
    fn updates_are_deterministic() {
        for kind in EstimatorKind::all() {
            let run = || {
                let mut q = kind.build(0.02, 7);
                let mut obs = zero_obs();
                obs[0] = 1.0;
                for i in 0..50 {
                    q.update(&obs, i % N_ACTIONS, 1.0);
                }
                q.q_values(&obs).to_vec()
            };
            assert_eq!(run(), run(), "{}", kind.name());
        }
    }
}
