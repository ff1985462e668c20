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
use crate::layer::Layer;
use treu_math::rng::SplitMix64;
use treu_math::{vector, Matrix};

/// A learned token-embedding table.
pub struct Embedding {
    table: Matrix,      // vocab x dim
    grad: Matrix,       // vocab x dim
    tokens: Vec<usize>, // cached token ids from the last forward
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
        }
    }

    /// Embeds a token sequence into an `(len x dim)` matrix.
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of vocabulary.
    pub fn forward_tokens(&mut self, tokens: &[usize]) -> Matrix {
        let dim = self.table.cols();
        let mut out = Matrix::zeros(tokens.len(), dim);
        for (i, &t) in tokens.iter().enumerate() {
            assert!(t < self.table.rows(), "token {t} out of vocab {}", self.table.rows());
            out.row_mut(i).copy_from_slice(self.table.row(t));
        }
        self.tokens = tokens.to_vec();
        out
    }

    /// Accumulates gradients for the last embedded sequence.
    pub fn backward_tokens(&mut self, grad_out: &Matrix) {
        assert_eq!(grad_out.rows(), self.tokens.len(), "Embedding: grad length mismatch");
        for (i, &t) in self.tokens.iter().enumerate() {
            let g = grad_out.row(i).to_vec();
            vector::axpy(1.0, &g, self.grad.row_mut(t));
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

impl Layer for Embedding {
    /// Not supported: embeddings consume token ids, not feature rows. Use
    /// [`Embedding::forward_tokens`].
    fn forward(&mut self, _input: &Matrix, _train: bool) -> Matrix {
        panic!("Embedding::forward: use forward_tokens for token input");
    }

    fn backward(&mut self, _grad_out: &Matrix) -> Matrix {
        panic!("Embedding::backward: use backward_tokens for token input");
    }

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

/// Sinusoidal positional encoding, added in place to an `(len x dim)`
/// sequence. Parameter-free; gradients pass through unchanged.
#[derive(Debug, Default)]
pub struct PositionalEncoding;

impl PositionalEncoding {
    /// Creates the encoding layer.
    pub fn new() -> Self {
        Self
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

impl Layer for PositionalEncoding {
    fn forward(&mut self, input: &Matrix, _train: bool) -> Matrix {
        let dim = input.cols();
        let mut out = input.clone();
        for p in 0..out.rows() {
            let row = out.row_mut(p);
            for (c, v) in row.iter_mut().enumerate() {
                *v += Self::value(p, c, dim);
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        grad_out.clone()
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
    attn: Matrix,
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
            x: Matrix::zeros(0, 0),
            q: Matrix::zeros(0, 0),
            k: Matrix::zeros(0, 0),
            v: Matrix::zeros(0, 0),
            attn: Matrix::zeros(0, 0),
        }
    }

    /// The attention weights of the last forward pass (rows sum to 1).
    pub fn attention_weights(&self) -> &Matrix {
        &self.attn
    }
}

impl Layer for SelfAttention {
    fn forward(&mut self, input: &Matrix, _train: bool) -> Matrix {
        assert_eq!(input.cols(), self.dim, "SelfAttention: width mismatch");
        self.x = input.clone();
        self.q = input.matmul(&self.wq);
        self.k = input.matmul(&self.wk);
        self.v = input.matmul(&self.wv);
        let scale = 1.0 / (self.dim as f64).sqrt();
        let mut scores = self.q.matmul_nt(&self.k);
        scores.scale_in_place(scale);
        let l = scores.rows();
        let mut attn = Matrix::zeros(l, l);
        for r in 0..l {
            let sm = vector::softmax(scores.row(r));
            attn.row_mut(r).copy_from_slice(&sm);
        }
        self.attn = attn;
        self.attn.matmul(&self.v)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let scale = 1.0 / (self.dim as f64).sqrt();
        // dA = dY V^T ; dV = A^T dY — transposed operands are read in
        // place (matmul_nt / matmul_tn), as everywhere below: no
        // transpose() allocations in the backward pass.
        let d_attn = grad_out.matmul_nt(&self.v);
        let d_v = self.attn.matmul_tn(grad_out);
        // Softmax backward per row: dS_i = A_i ⊙ (dA_i - <dA_i, A_i>)
        let l = self.attn.rows();
        let mut d_scores = Matrix::zeros(l, l);
        for r in 0..l {
            let a = self.attn.row(r);
            let da = d_attn.row(r);
            let inner = vector::dot(da, a);
            for c in 0..l {
                d_scores[(r, c)] = a[c] * (da[c] - inner) * scale;
            }
        }
        // dQ = dS K ; dK = dS^T Q
        let d_q = d_scores.matmul(&self.k);
        let d_k = d_scores.matmul_tn(&self.q);
        // Parameter grads and input grad.
        self.grad_wq.add_in_place(&self.x.matmul_tn(&d_q));
        self.grad_wk.add_in_place(&self.x.matmul_tn(&d_k));
        self.grad_wv.add_in_place(&self.x.matmul_tn(&d_v));
        let mut grad_in = d_q.matmul_nt(&self.wq);
        grad_in.add_in_place(&d_k.matmul_nt(&self.wk));
        grad_in.add_in_place(&d_v.matmul_nt(&self.wv));
        grad_in
    }

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
        let out = a.forward(&x, true);
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

    #[test]
    fn embedding_layer_api_panics() {
        let mut e = Embedding::new(4, 2, 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.forward(&Matrix::zeros(1, 2), true)
        }));
        assert!(r.is_err());
    }
}
