//! `treu-pf` — particle filters for event location (paper §2.2).
//!
//! The project: "Particle filters are often used to estimate the position
//! of an object in an environment given a map of its features and
//! (imperfect) sensor readings. Usual implementations of particle filters
//! require environment features to be repeatedly observable, and we sought
//! ways around this limitation. The case study involved locating events in
//! a musical concert."
//!
//! The model here: a concert follows a published [`schedule::EventSchedule`]
//! but is performed with tempo drift, so the *temporal location* within the
//! schedule is the hidden state. Each event is heard at most once (features
//! are **not** repeatedly observable), which defeats the "typical" filter
//! with a fixed-rate motion model ([`baseline`]) and motivates the
//! schedule-aware filter with an augmented `(position, rate)` state
//! ([`filter::ScheduleFilter`]).
//!
//! The section's second finding — "a fast weighting function that ... is
//! much faster and almost as accurate as the typical Gaussian weighting
//! function" — is [`weighting::WeightFn::Triangular`] (and `Rational`),
//! compared against `Gaussian` in experiment E2.2a and, per evaluation,
//! in the `concert_tracking` example.
//!
//! # Example
//!
//! ```
//! use treu_pf::experiment::{run_tracking, Workload};
//! use treu_pf::WeightFn;
//!
//! let result = run_tracking(Workload::default(), WeightFn::Triangular, 128, 7);
//! assert!(result.rmse.is_finite() && result.kernel_evals > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiment;
pub mod filter;
pub mod schedule;
pub mod weighting;

pub use filter::ScheduleFilter;
pub use schedule::{EventSchedule, Observation, Performance};
pub use weighting::WeightFn;
