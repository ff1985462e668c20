//! `treu-math` — numerical substrate for the TREU workspace.
//!
//! This crate provides the dense linear algebra, decompositions, statistics
//! and deterministic-randomness utilities that every other TREU crate builds
//! on. Everything is pure Rust, allocation-conscious, and deterministic: the
//! same seed always produces bitwise-identical results, which is the
//! foundation of the reproducibility harness in `treu-core`.
//!
//! # Modules
//!
//! * [`rng`] — seed derivation and deterministic RNG construction.
//! * [`vector`] — free functions over `&[f64]` slices (dot, axpy, norms).
//! * [`matrix`] — a row-major dense [`matrix::Matrix`] with blocked,
//!   single-threaded multiplication.
//! * [`gemm`] — shape classes and blocking plans (`Matrix::matmul` runs
//!   its class's default plan; the autotuner times candidate plans).
//! * [`decomp`] — Jacobi eigendecomposition and one-sided Jacobi SVD.
//! * [`pca`] — principal component analysis on row-sample matrices.
//! * [`stats`] — descriptive statistics (mean, mode, quantiles, covariance).
//! * [`scaling`] — parallel performance measurement and Amdahl fitting
//!   (the paper's §4 reusable HPC lesson module).
//! * [`parallel`] — scoped-thread data-parallel helpers (executor jobs and
//!   the §2.5 `parallelize` schedule primitive).
//!
//! # Example
//!
//! ```
//! use treu_math::matrix::Matrix;
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

#![forbid(unsafe_code)]
// Indexed loops over multiple parallel arrays are the clearest idiom in
// this crate's numeric kernels; the zip-chain rewrite the lint suggests
// obscures them.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod decomp;
pub mod gemm;
pub mod hash;
pub mod matrix;
pub mod parallel;
pub mod pca;
pub mod rng;
pub mod scaling;
pub mod stats;
pub mod vector;

pub use matrix::Matrix;
