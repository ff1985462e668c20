//! `treu-nn` — a small, deterministic neural-network library.
//!
//! Five of the paper's student projects (§2.2, §2.3, §2.7, §2.8, §2.9) were
//! "written in PyTorch" and run on GPUs. This crate is the substitution that
//! makes them runnable on a laptop with bitwise reproducibility: dense,
//! convolutional and attention layers with hand-derived backpropagation,
//! SGD/Adam optimizers, and a [`model::Sequential`] container — all over the
//! `treu-math` [`treu_math::Matrix`] type with batches as rows.
//!
//! A layer owns the buffers it returns: [`layer::Layer::forward`] and
//! [`layer::Layer::backward`] hand back a `&Matrix` the layer overwrites on
//! its next call, so a training step allocates nothing once its buffers
//! have their shapes (the buffer contract in [`layer`]). Optimizers take
//! any [`layer::Trainable`], which is also all a token classifier or a
//! multi-head model implements.
//!
//! The library is intentionally eager and entirely `f64`: the projects'
//! findings are about *relative* behaviour of training regimes, which is
//! preserved, while determinism — the REU's actual subject — is
//! strengthened.
//!
//! # Example
//!
//! ```
//! use treu_nn::prelude::*;
//! use treu_math::Matrix;
//!
//! // XOR with a 2-8-2 MLP.
//! let mut model = Sequential::new(vec![
//!     Box::new(Dense::new(2, 8, 1)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(8, 2, 2)),
//! ]);
//! let x = Matrix::from_rows(&[&[0.,0.],&[0.,1.],&[1.,0.],&[1.,1.]]);
//! let y = vec![0usize, 1, 1, 0];
//! let mut opt = Sgd::new(0.5, 0.9);
//! for _ in 0..500 {
//!     // `logits` borrows the model's last layer; the gradient is owned.
//!     let logits = model.forward(&x, true);
//!     let (loss, grad) = softmax_cross_entropy(logits, &y);
//!     assert!(loss.is_finite());
//!     model.backward(&grad);
//!     opt.step(&mut model);
//!     model.zero_grads();
//! }
//! let acc = accuracy(model.forward(&x, false), &y);
//! assert_eq!(acc, 1.0);
//! ```

#![forbid(unsafe_code)]
// Indexed loops over multiple parallel arrays are the clearest idiom in
// this crate's numeric kernels; the zip-chain rewrite the lint suggests
// obscures them.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod attention;
pub mod conv;
pub mod conv2d;
pub mod dense;
pub mod init;
pub mod layer;
pub mod loss;
pub mod model;
pub mod norm;
pub mod optimizer;

/// Convenient glob import for model building.
pub mod prelude {
    pub use crate::attention::{Embedding, PositionalEncoding, SelfAttention};
    pub use crate::conv::{Conv1d, GlobalMaxPool1d};
    pub use crate::conv2d::Conv2d;
    pub use crate::dense::Dense;
    pub use crate::layer::{Layer, Relu, Sigmoid, Tanh, Trainable};
    pub use crate::loss::{accuracy, mse, softmax_cross_entropy};
    pub use crate::model::Sequential;
    pub use crate::norm::LayerNorm;
    pub use crate::optimizer::{Adam, Optimizer, Sgd};
}
