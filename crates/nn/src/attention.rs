//! Token embedding, sinusoidal positional encoding, and single-head
//! self-attention.
//!
//! These are the transformer ingredients the paper's projects name
//! explicitly: §2.9 ("embedding, positional encoding, and attention") for
//! the BERT-like malware classifier, and §2.2 ("positional encoding layers,
//! and attention layers") for the particle-filter weighting network.
//!
//! Unlike the batch layers in the rest of the crate, sequence layers treat
//! **matrix rows as sequence positions** of a single example; classifiers
//! over sequences train one sequence per step (exactly how the REU
//! students' single-GPU transformer ran).

use crate::init;
use crate::layer::{Layer, Trainable};
use treu_math::rng::SplitMix64;
use treu_math::{vector, Matrix};

/// A learned token-embedding table. It maps token ids, not feature rows,
/// so it is [`Trainable`] but not a [`Layer`].
pub struct Embedding {
    table: Matrix,      // vocab x dim
    grad: Matrix,       // vocab x dim
    tokens: Vec<usize>, // cached token ids from the last forward
    out: Matrix,        // len x dim
}

impl Embedding {
    /// Creates a `vocab x dim` embedding, N(0, 0.02) initialized (the
    /// BERT convention).
    pub fn new(vocab: usize, dim: usize, seed: u64) -> Self {
        Self::with_scale(vocab, dim, 0.02, seed)
    }

    /// Creates an embedding with an explicit init scale. Architectures
    /// whose gradient path is gated by hard selections (e.g. a global max
    /// pool) need larger initial embeddings than the transformer
    /// convention, or the selection never sees signal above the noise.
    pub fn with_scale(vocab: usize, dim: usize, scale: f64, seed: u64) -> Self {
        let mut rng = SplitMix64::new(treu_math::rng::derive_seed(seed, "embedding"));
        Self {
            table: init::scaled_normal(&mut rng, vocab, dim, scale),
            grad: Matrix::zeros(vocab, dim),
            tokens: Vec::new(),
            out: Matrix::default(),
        }
    }

    /// Embeds a token sequence into an `(len x dim)` matrix the embedding
    /// owns (the layer buffer contract, [`crate::layer`]).
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of vocabulary.
    pub fn forward_tokens(&mut self, tokens: &[usize]) -> &Matrix {
        self.out.reset(tokens.len(), self.table.cols());
        for (i, &t) in tokens.iter().enumerate() {
            assert!(t < self.table.rows(), "token {t} out of vocab {}", self.table.rows());
            self.out.row_mut(i).copy_from_slice(self.table.row(t));
        }
        self.tokens.clear();
        self.tokens.extend_from_slice(tokens);
        &self.out
    }

    /// Accumulates gradients for the last embedded sequence.
    pub fn backward_tokens(&mut self, grad_out: &Matrix) {
        assert_eq!(grad_out.rows(), self.tokens.len(), "Embedding: grad length mismatch");
        for (i, &t) in self.tokens.iter().enumerate() {
            vector::axpy(1.0, grad_out.row(i), self.grad.row_mut(t));
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.rows()
    }
}

impl Trainable for Embedding {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(self.table.as_mut_slice(), self.grad.as_mut_slice());
    }

    fn zero_grads(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }

    fn param_count(&self) -> usize {
        self.table.as_slice().len()
    }
}

/// Sinusoidal positional encoding, added to an `(len x dim)` sequence.
/// Parameter-free; gradients pass through unchanged.
#[derive(Debug, Default)]
pub struct PositionalEncoding {
    out: Matrix,
    grad_in: Matrix,
}

impl PositionalEncoding {
    /// Creates the encoding layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoding value at `(position, channel)` for width `dim`.
    pub fn value(pos: usize, ch: usize, dim: usize) -> f64 {
        let i = ch / 2;
        let angle = pos as f64 / 10_000f64.powf(2.0 * i as f64 / dim as f64);
        if ch.is_multiple_of(2) {
            angle.sin()
        } else {
            angle.cos()
        }
    }
}

impl Trainable for PositionalEncoding {}

impl Layer for PositionalEncoding {
    fn forward(&mut self, input: &Matrix, _train: bool) -> &Matrix {
        let dim = input.cols();
        self.out.clone_from(input);
        for p in 0..self.out.rows() {
            let row = self.out.row_mut(p);
            for (c, v) in row.iter_mut().enumerate() {
                *v += Self::value(p, c, dim);
            }
        }
        &self.out
    }

    fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        self.grad_in.clone_from(grad_out);
        &self.grad_in
    }
}

/// Single-head scaled dot-product self-attention: `Y = softmax(QK^T/√d) V`
/// with learned `Wq, Wk, Wv` projections, over an `(len x dim)` sequence.
pub struct SelfAttention {
    dim: usize,
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    grad_wq: Matrix,
    grad_wk: Matrix,
    grad_wv: Matrix,
    // Cached forward intermediates.
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    scores: Matrix,
    attn: Matrix,
    out: Matrix,
    // Backward intermediates.
    d_attn: Matrix,
    d_scores: Matrix,
    d_q: Matrix,
    d_k: Matrix,
    d_v: Matrix,
    /// One `d · Wᵀ` addend of the input gradient.
    prod: Matrix,
    grad_in: Matrix,
}

impl SelfAttention {
    /// Creates an attention layer over `dim`-wide token vectors.
    pub fn new(dim: usize, seed: u64) -> Self {
        let mk = |tag: &str| {
            let mut rng = SplitMix64::new(treu_math::rng::derive_seed(seed, tag));
            init::xavier_uniform(&mut rng, dim, dim)
        };
        Self {
            dim,
            wq: mk("attn.wq"),
            wk: mk("attn.wk"),
            wv: mk("attn.wv"),
            grad_wq: Matrix::zeros(dim, dim),
            grad_wk: Matrix::zeros(dim, dim),
            grad_wv: Matrix::zeros(dim, dim),
            x: Matrix::default(),
            q: Matrix::default(),
            k: Matrix::default(),
            v: Matrix::default(),
            scores: Matrix::default(),
            attn: Matrix::default(),
            out: Matrix::default(),
            d_attn: Matrix::default(),
            d_scores: Matrix::default(),
            d_q: Matrix::default(),
            d_k: Matrix::default(),
            d_v: Matrix::default(),
            prod: Matrix::default(),
            grad_in: Matrix::default(),
        }
    }

    /// The attention weights of the last forward pass (rows sum to 1).
    pub fn attention_weights(&self) -> &Matrix {
        &self.attn
    }
}

impl Layer for SelfAttention {
    fn forward(&mut self, input: &Matrix, _train: bool) -> &Matrix {
        assert_eq!(input.cols(), self.dim, "SelfAttention: width mismatch");
        self.x.clone_from(input);
        input.matmul_into(&self.wq, &mut self.q);
        input.matmul_into(&self.wk, &mut self.k);
        input.matmul_into(&self.wv, &mut self.v);
        let scale = 1.0 / (self.dim as f64).sqrt();
        self.q.matmul_nt_into(&self.k, &mut self.scores);
        self.scores.scale_in_place(scale);
        let l = self.scores.rows();
        self.attn.reset(l, l);
        for r in 0..l {
            vector::softmax_into(self.scores.row(r), self.attn.row_mut(r));
        }
        self.attn.matmul_into(&self.v, &mut self.out);
        &self.out
    }

    fn backward(&mut self, grad_out: &Matrix) -> &Matrix {
        let scale = 1.0 / (self.dim as f64).sqrt();
        // dA = dY V^T ; dV = A^T dY — transposed operands are read in
        // place (matmul_nt / matmul_tn), as everywhere below: no
        // transpose() allocations in the backward pass.
        grad_out.matmul_nt_into(&self.v, &mut self.d_attn);
        self.attn.matmul_tn_into(grad_out, &mut self.d_v);
        // Softmax backward per row: dS_i = A_i ⊙ (dA_i - <dA_i, A_i>)
        let l = self.attn.rows();
        self.d_scores.reset(l, l);
        for r in 0..l {
            let a = self.attn.row(r);
            let da = self.d_attn.row(r);
            let inner = vector::dot(da, a);
            for (c, ds) in self.d_scores.row_mut(r).iter_mut().enumerate() {
                *ds = a[c] * (da[c] - inner) * scale;
            }
        }
        // dQ = dS K ; dK = dS^T Q
        self.d_scores.matmul_into(&self.k, &mut self.d_q);
        self.d_scores.matmul_tn_into(&self.q, &mut self.d_k);
        // Parameter grads and input grad: each product is its own chain
        // from +0.0, then added, as the owned-product form did.
        self.grad_wq.add_matmul_tn(&self.x, &self.d_q);
        self.grad_wk.add_matmul_tn(&self.x, &self.d_k);
        self.grad_wv.add_matmul_tn(&self.x, &self.d_v);
        self.d_q.matmul_nt_into(&self.wq, &mut self.grad_in);
        self.d_k.matmul_nt_into(&self.wk, &mut self.prod);
        self.grad_in.add_in_place(&self.prod);
        self.d_v.matmul_nt_into(&self.wv, &mut self.prod);
        self.grad_in.add_in_place(&self.prod);
        &self.grad_in
    }
}

impl Trainable for SelfAttention {
    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(self.wq.as_mut_slice(), self.grad_wq.as_mut_slice());
        f(self.wk.as_mut_slice(), self.grad_wk.as_mut_slice());
        f(self.wv.as_mut_slice(), self.grad_wv.as_mut_slice());
    }

    fn zero_grads(&mut self) {
        self.grad_wq.as_mut_slice().fill(0.0);
        self.grad_wk.as_mut_slice().fill(0.0);
        self.grad_wv.as_mut_slice().fill(0.0);
    }

    fn param_count(&self) -> usize {
        3 * self.dim * self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_diff_check;

    #[test]
    fn embedding_roundtrip_and_grads() {
        let mut e = Embedding::new(10, 4, 1);
        let x = e.forward_tokens(&[3, 3, 7]);
        assert_eq!(x.shape(), (3, 4));
        assert_eq!(x.row(0), x.row(1)); // same token, same vector
        let mut g = Matrix::zeros(3, 4);
        g.row_mut(0).fill(1.0);
        g.row_mut(1).fill(1.0);
        g.row_mut(2).fill(2.0);
        e.backward_tokens(&g);
        // Token 3 saw two rows of ones -> grad 2 per channel.
        assert!(e.grad.row(3).iter().all(|&v| (v - 2.0).abs() < 1e-12));
        assert!(e.grad.row(7).iter().all(|&v| (v - 2.0).abs() < 1e-12));
        assert!(e.grad.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn embedding_oov_panics() {
        Embedding::new(4, 2, 0).forward_tokens(&[4]);
    }

    #[test]
    fn positional_encoding_is_deterministic_and_bounded() {
        let mut pe = PositionalEncoding::new();
        let x = Matrix::zeros(16, 8);
        let y = pe.forward(&x, true);
        assert!(y.as_slice().iter().all(|v| v.abs() <= 1.0));
        // Position 0 even channels are sin(0)=0, odd are cos(0)=1.
        assert_eq!(y[(0, 0)], 0.0);
        assert_eq!(y[(0, 1)], 1.0);
        // Distinct positions get distinct encodings.
        assert_ne!(y.row(1), y.row(2));
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let mut a = SelfAttention::new(6, 3);
        let mut rng = treu_math::rng::SplitMix64::new(5);
        let x = Matrix::from_fn(4, 6, |_, _| rng.next_gaussian());
        let y = a.forward(&x, true);
        assert_eq!(y.shape(), (4, 6));
        for r in 0..4 {
            let s: f64 = a.attention_weights().row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn attention_input_gradient_matches_finite_difference() {
        let mut a = SelfAttention::new(4, 7);
        let mut rng = treu_math::rng::SplitMix64::new(8);
        let x = Matrix::from_fn(3, 4, |_, _| rng.next_gaussian() * 0.5);
        finite_diff_check(&mut a, &x, 1e-3);
    }

    #[test]
    fn attention_weight_gradient_matches_finite_difference() {
        let mut a = SelfAttention::new(3, 9);
        let mut rng = treu_math::rng::SplitMix64::new(10);
        let x = Matrix::from_fn(4, 3, |_, _| rng.next_gaussian() * 0.5);
        let out = a.forward(&x, true).clone();
        a.zero_grads();
        a.backward(&out);
        let analytic = a.grad_wq.clone();
        let eps = 1e-5;
        for i in 0..a.wq.as_slice().len() {
            let orig = a.wq.as_slice()[i];
            a.wq.as_mut_slice()[i] = orig + eps;
            let lp: f64 = a.forward(&x, true).as_slice().iter().map(|v| v * v * 0.5).sum();
            a.wq.as_mut_slice()[i] = orig - eps;
            let lm: f64 = a.forward(&x, true).as_slice().iter().map(|v| v * v * 0.5).sum();
            a.wq.as_mut_slice()[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[i]).abs() < 1e-3 * numeric.abs().max(1.0),
                "wq[{i}]: analytic {} vs numeric {numeric}",
                analytic.as_slice()[i]
            );
        }
    }
}
