//! `treu-core` — the reproducibility and artifact-evaluation harness.
//!
//! The TREU paper's central thesis is that *trust fundamentally depends on
//! reproducibility*: "a person must be able to take an existing scientific
//! result or a pre-existing software component, test it, and see if they can
//! reproduce the published specifications or claims." This crate turns that
//! thesis into infrastructure. Every experiment in the workspace runs
//! through it:
//!
//! * [`experiment`] — seeded, parameterized experiment runs with per-
//!   component RNG streams. Identical seeds produce bitwise-identical
//!   results, and [`experiment::assert_deterministic`] verifies it.
//! * [`provenance`] — an append-only trail of everything a run did
//!   (parameters read, RNG streams opened, metrics recorded), with a stable
//!   fingerprint so two runs can be compared byte-for-byte.
//! * [`environment`] — capture of the host environment, the part of a
//!   result that is *not* controlled by the seed and must be disclosed.
//! * [`artifact`] — machine-checkable artifact specifications, modelling
//!   the §2.1 finding that "authors conceive of research artifacts as
//!   distinct from the documentation that explains them": both halves are
//!   first-class and completeness is checked for each separately.
//! * [`badge`] — ACM-style badge evaluation (Available / Functional /
//!   Results Reproduced) computed from an artifact spec plus run evidence.
//! * [`attest`] — in-toto-style attestation: each pipeline step (run →
//!   verify → badge) emits a MAC-sealed **link** naming its materials and
//!   products as FNV-1a content addresses, chained into a Merkle DAG
//!   rooted in a **layout** document; `treu attest verify` walks the
//!   chain and pinpoints the first step whose products were tampered.
//! * [`registry`] — the per-experiment index required by DESIGN.md: every
//!   table/figure id maps to a runnable entry.
//! * [`study`] — the human-centered-computing substrate for §2.1: diary
//!   study instruments, interview protocols and pilot-session revision
//!   tracking.
//! * [`sweep`] — parameter-grid sweeps with per-point derived seeds.
//! * [`exec`] — the deterministic parallel executor: fans seeds, sweeps
//!   and batch tasks over self-scheduling scoped workers and merges in
//!   canonical order, so results are bitwise-identical for every
//!   `--jobs` value. Its supervisor catches panics, enforces per-run
//!   deadlines and retries under a deterministic backoff, quarantining
//!   (not aborting on) runs that exhaust their budget.
//! * [`batch`] — the one registry batch pipeline: a run or verify
//!   request becomes tasks, dispatched in-process or across `treu worker`
//!   processes through the same task function, merged into one record —
//!   the outcomes and one trace — that its report prints from.
//! * [`fault`] — seeded, content-addressed fault injection: a
//!   [`fault::FaultPlan`] deterministically panics, delays, corrupts or
//!   transiently fails runs by `(id, seed, attempt)`, so the supervisor's
//!   failure handling is itself a reproducible experiment.
//! * [`cache`] — the content-addressed run cache: completed runs persist
//!   under `hash(id, params, seed)` validated by a code+env fingerprint,
//!   so re-verification recomputes nothing that has not changed.
//! * [`trace`] — deterministic run-trace observability: every supervised
//!   run emits ordered span events (claim → attempts → fault/backoff →
//!   cache → verdict) merged index-ordered into a content-addressed JSONL
//!   trace whose hash is schedule-independent; timestamps live in a
//!   separate non-hashed sidecar.
//! * [`svc`] — the crash-tolerant sharded verification service: `treu
//!   worker` subprocesses speak a length-prefixed JSONL protocol, a
//!   supervising coordinator shards work across them with heartbeats,
//!   exactly-once shard requeue, seeded respawn backoff and graceful
//!   degradation to in-process execution — with fingerprints and trace
//!   addresses bitwise-identical at every topology and kill schedule.
//! * [`codec`] — the one text codec every persisted and wire format
//!   above is written and strictly read with: three escape tables,
//!   `hex64`, strict decimals, a payload-exact `f64` form, a flat-JSON
//!   reader, and the canonical rule (a parser accepts only the bytes its
//!   renderer writes, else an error with a byte offset and a reason).
//! * [`aggregate`] — multi-seed metric summaries (the distributional view
//!   reliability claims need).
//! * [`report`] — plain-text table rendering shared by the survey crate and
//!   the examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod artifact;
pub mod attest;
pub mod badge;
pub mod batch;
pub mod cache;
pub mod codec;
pub mod environment;
pub mod exec;
pub mod experiment;
pub mod fault;
#[cfg(test)]
mod fuzz;
pub mod hash;
pub mod provenance;
pub mod registry;
pub mod report;
pub mod study;
pub mod svc;
pub mod sweep;
pub mod trace;

pub use attest::{AttestKey, AttestStore, ChainReport, Layout, Link, LinkDraft};
pub use batch::{Batch, BatchOutcome, BatchReport, Dispatch, Mode};
pub use cache::{CacheStats, RunCache};
pub use exec::{
    DenyPolicy, Executor, FailureKind, RunFailure, RunOutcome, RunReport, SupervisePolicy,
    VerifyReport,
};
pub use experiment::{Experiment, RunContext, RunRecord};
pub use fault::{FaultKind, FaultPlan, FaultyExperiment, KillPlan};
pub use provenance::Trail;
pub use registry::ExperimentRegistry;
pub use svc::{SvcConfig, SvcStats, WorkerPool};
pub use trace::{BatchTrace, RunTrace, TraceCounters, TraceEvent};
