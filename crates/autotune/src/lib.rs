//! `treu-autotune` — compiler scheduling and autotuning for ML primitives
//! (paper §2.5).
//!
//! The project: students "used an autotuner called Ansor to generate the
//! best schedule for a set of kernels for the state-of-the-art TVM
//! compiler. Ansor uses genetic algorithms to generate potential
//! candidates. Students were interested in whether the schedules in Ansor
//! could be replicated in another compiler framework, MLIR ... and achieve
//! the same performance." The kernel suite is the paper's own lesson list:
//! matrix-vector multiplication, conv1d, conv2d, transposed matrix-matrix
//! multiplication, and matrix-matrix multiplication; the roofline model is
//! the performance-analysis lesson.
//!
//! The substitution (DESIGN.md §2): instead of TVM and MLIR this crate has
//! one **schedule IR** ([`schedule::Schedule`]: tiling, unrolling,
//! parallelization, lowering strategy) and two executable **backends**
//! ([`executor::Backend::AxpyLowering`] and `DotLowering`) that play the
//! roles of the two frameworks. Everything runs for real: schedules
//! restructure actual Rust loop nests over actual buffers, the genetic
//! tuner ([`tuner`]) searches the real space, and correctness of every
//! scheduled variant is checked against the naive kernel. A deterministic
//! [`cost`] model provides seed-stable fitness for harnessed experiments;
//! the `autotune_kernels` example times the real executors to validate the
//! model's ranking.

#![forbid(unsafe_code)]
// Indexed loops over multiple parallel arrays are the clearest idiom in
// this crate's numeric kernels; the zip-chain rewrite the lint suggests
// obscures them.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod book;
pub mod cost;
pub mod executor;
pub mod experiment;
pub mod kernels;
pub mod roofline;
pub mod schedule;
pub mod tuner;

pub use book::ScheduleBook;
pub use kernels::Kernel;
pub use schedule::Schedule;
pub use tuner::{GaParams, Tuner};
