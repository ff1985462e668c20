//! Deterministic parallel experiment execution.
//!
//! The repo's whole point is that a result you cannot re-run bitwise is a
//! result you cannot trust — but if verification is slow, people skip it
//! (the §3 "result collection takes too long" failure mode). This module
//! removes the speed excuse without touching the guarantee: an
//! [`Executor`] fans multi-seed runs, parameter sweeps, and registry-wide
//! batches out over `std::thread::scope` worker chunks and merges results
//! back in canonical (input) order.
//!
//! The determinism contract: every run owns its own
//! [`crate::experiment::RunContext`], all randomness is derived from
//! per-run seeds, and merge order is input order — never completion order
//! — so fingerprints, rendered tables, and aggregate summaries are
//! **bitwise-identical for every job count**. Only `wall_seconds` (which
//! is environment, not result, and is excluded from trails and
//! fingerprints) may differ. The workspace conformance and property tests
//! enforce this for every registered experiment id across jobs ∈ {1, 2, 8}.
//!
//! Scheduling is **dynamic**: workers claim index chunks from a shared
//! atomic counter ([`treu_math::parallel::par_map_dynamic`]) instead of
//! being handed fixed contiguous bands, so one expensive run (the §3
//! "one job hogs the GPU" shape) no longer strands its band-mates behind
//! it while other workers idle. Out-of-order compute plus index-ordered
//! merge keeps the output bitwise-identical to sequential regardless of
//! which worker computed what.
//!
//! Observability: the `_report` variants return an [`ExecReport`] with
//! per-run wall seconds, total vs critical-path time, per-worker busy
//! time (load-imbalance ratio, utilization), and the measured speedup
//! with its implied Amdahl serial fraction ([`treu_math::scaling`]) —
//! fitted from measured per-worker busy time when available, not batch
//! wall time alone — so the parallelism is itself a measured, reportable
//! experiment: the paper's §4 performance-measurement lesson applied to
//! the harness.
//!
//! Registry-wide batches — run or verify, cached or not, in-process or
//! sharded — all go through the one pipeline in [`crate::batch`], which
//! maps [`crate::svc::execute_task`] over this executor's workers.
//! [`Executor::verify_all_supervised_with`] is a single call into it.
//!
//! **Supervision.** Every registry run executes under
//! `std::panic::catch_unwind`, optionally bounded by a per-run deadline
//! (a scoped watchdog waits on a channel with a timeout — the verdict
//! lands at the deadline, the straggler is joined cooperatively), and
//! failed attempts retry under the deterministic backoff schedule in
//! [`crate::fault::backoff_millis`] up to a [`SupervisePolicy`] budget.
//! A run that exhausts its budget is **quarantined**, not fatal: the rest
//! of the batch completes, the [`VerifyReport`] carries a per-run failure
//! taxonomy ([`FailureKind`]), and the exit decision is deferred to a
//! [`DenyPolicy`]. Injected chaos (a [`FaultPlan`]) flows through the
//! same path, so the §3 "finish the batch and report what broke" story is
//! a tested property, not a hope.

use crate::batch::{Batch, Dispatch, Mode};
use crate::cache::{Lookup, RunCache};
use crate::experiment::{run_once, Experiment, Params, RunRecord};
use crate::fault::{backoff_millis, FaultPlan, FaultyExperiment};
use crate::registry::ExperimentRegistry;
use crate::sweep::{grid_points, Axis, SweepPoint};
use crate::trace::{
    worker_timings, AttemptOutcome, BatchTrace, CacheResult, RunTrace, TraceCounters, TraceEvent,
};
use std::time::{Duration, Instant};
use treu_math::parallel::{adaptive_chunk, default_threads, par_map_dynamic_stats, SchedStats};
use treu_math::scaling::amdahl_speedup;

/// Deterministic parallel executor with a fixed worker count.
#[derive(Debug, Clone)]
pub struct Executor {
    jobs: usize,
    tracing: bool,
}

impl Default for Executor {
    /// One worker per available hardware thread.
    fn default() -> Self {
        Self::new(default_threads())
    }
}

impl Executor {
    /// Executor with `jobs` workers (clamped to at least 1). Trace
    /// collection is on by default — the stream is a handful of enum
    /// pushes per run, well under the < 2% overhead budget exec_bench
    /// enforces.
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1), tracing: true }
    }

    /// Single-worker executor: runs everything inline, in order.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Enables or disables trace collection for the batch methods.
    /// Disabled, the supervised paths skip every event push and reports
    /// carry an empty [`BatchTrace`] — the baseline exec_bench measures
    /// overhead against.
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Whether trace collection is enabled.
    pub fn tracing_enabled(&self) -> bool {
        self.tracing
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The executor's core primitive: applies `f` to every index in
    /// `0..n` across the configured workers — dynamic self-scheduling,
    /// results in index order. Scheduling never influences output order
    /// or content.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_indexed_stats(n, f).0
    }

    /// [`Executor::map_indexed`] plus the scheduler's per-worker
    /// [`SchedStats`] (busy seconds, chunks claimed, items computed).
    pub fn map_indexed_stats<T, F>(&self, n: usize, f: F) -> (Vec<T>, SchedStats)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        par_map_dynamic_stats(n, self.jobs, adaptive_chunk(n, self.jobs), f)
    }

    /// Parallel form of [`crate::experiment::run_seeds`]: one record per
    /// seed, in seed order, bitwise-identical to the sequential version.
    pub fn run_seeds<E>(&self, exp: &E, seeds: &[u64], params: &Params) -> Vec<RunRecord>
    where
        E: Experiment + Sync + ?Sized,
    {
        self.map_indexed(seeds.len(), |i| run_once(exp, seeds[i], params.clone()))
    }

    /// [`Executor::run_seeds`] plus an [`ExecReport`] for the batch.
    pub fn run_seeds_report<E>(
        &self,
        exp: &E,
        seeds: &[u64],
        params: &Params,
    ) -> (Vec<RunRecord>, ExecReport)
    where
        E: Experiment + Sync + ?Sized,
    {
        // treu-lint: allow(wall-clock, reason = "batch timing reported outside the fingerprint")
        let start = Instant::now();
        let (records, sched) =
            self.map_indexed_stats(seeds.len(), |i| run_once(exp, seeds[i], params.clone()));
        let report = ExecReport::from_labelled(
            self.jobs,
            records.iter().map(|r| (format!("seed {}", r.seed), r.wall_seconds)),
            start.elapsed().as_secs_f64(),
        )
        .with_workers(&sched);
        (records, report)
    }

    /// Parallel form of [`crate::sweep::sweep`]: the full cartesian grid
    /// in canonical (odometer) order, bitwise-identical to the sequential
    /// version.
    pub fn sweep<E>(&self, exp: &E, base: &Params, axes: &[Axis], seed: u64) -> Vec<SweepPoint>
    where
        E: Experiment + Sync + ?Sized,
    {
        let grid = grid_points(base, axes, seed);
        self.map_indexed(grid.len(), |i| {
            let gp = &grid[i];
            SweepPoint {
                assignment: gp.assignment.clone(),
                record: run_once(exp, gp.seed, gp.params.clone()),
            }
        })
    }

    /// The parallel form of [`crate::experiment::assert_deterministic`]:
    /// runs `exp` twice concurrently with the same seed and panics unless
    /// the two trails are bitwise-identical. Returns the shared
    /// fingerprint on success.
    pub fn assert_deterministic<E>(&self, exp: &E, seed: u64, params: &Params) -> u64
    where
        E: Experiment + Sync + ?Sized,
    {
        let runs = self.map_indexed(2, |_| run_once(exp, seed, params.clone()));
        assert_eq!(
            runs[0].trail,
            runs[1].trail,
            "experiment '{}' is not deterministic for seed {seed} under concurrent re-execution",
            exp.name()
        );
        runs[0].fingerprint()
    }

    /// Verifies every registered experiment in-process under `policy` and
    /// an optional fault plan, through an optional cache, at the
    /// parameters `params` picks for each id — a single
    /// [`crate::batch::Batch`] of [`crate::batch::Mode::Verify`].
    ///
    /// Each non-cached id runs as two supervised replicas; both must
    /// succeed and agree bitwise to count as reproduced. Failures carry a
    /// taxonomy (see [`FailureKind`]); the batch always completes, and
    /// gating is the caller's [`DenyPolicy`] decision.
    pub fn verify_all_supervised_with(
        &self,
        reg: &ExperimentRegistry,
        seed: u64,
        cache: Option<&RunCache>,
        policy: &SupervisePolicy,
        plan: Option<&FaultPlan>,
        params: impl Fn(&str, Params) -> Params + Sync,
    ) -> VerifyReport {
        let batch = Batch {
            cache,
            policy: *policy,
            plan,
            params: &params,
            ..Batch::new(Mode::Verify, seed)
        };
        batch
            .execute(reg, Dispatch::InProcess(self))
            .expect("in-process dispatch does no fallible I/O")
            .report
            .into_verify()
    }
}

/// Maps a cache [`Lookup`] classification onto its trace-event mirror.
pub(crate) fn cache_result(found: &Lookup) -> CacheResult {
    match found {
        Lookup::Hit(_) => CacheResult::Hit,
        Lookup::Miss => CacheResult::Miss,
        Lookup::Stale => CacheResult::Stale,
        Lookup::Corrupt => CacheResult::Corrupt,
    }
}

/// Pushes `event` into the tracer's run buffer, stamped with the elapsed
/// time since the batch epoch. A `None` tracer costs one branch.
pub(crate) fn emit(tracer: &mut Option<(&mut RunTrace, Instant)>, event: TraceEvent) {
    if let Some((rt, epoch)) = tracer.as_mut() {
        rt.push(event, epoch.elapsed().as_secs_f64());
    }
}

/// Retry and deadline budget for supervised execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SupervisePolicy {
    /// Retries after the first attempt (0 = one attempt only).
    pub retries: u32,
    /// Per-attempt wall-clock deadline; `None` disarms the watchdog.
    pub deadline: Option<Duration>,
}

impl SupervisePolicy {
    /// A policy with `retries` retries and no deadline.
    pub fn new(retries: u32) -> Self {
        Self { retries, deadline: None }
    }

    /// Arms the per-attempt watchdog (non-positive `secs` disarms it).
    pub fn with_deadline_secs(mut self, secs: f64) -> Self {
        self.deadline = (secs > 0.0).then(|| Duration::from_secs_f64(secs));
        self
    }
}

/// Why a supervised run failed — the report's failure taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The run panicked on every attempt in the budget.
    Panicked,
    /// The run exceeded its per-attempt deadline on every attempt.
    TimedOut,
    /// Verification replicas completed but produced different trails.
    Nondeterministic,
    /// A cached entry failed read-time checksum verification and the
    /// recomputation could not re-establish a verified result.
    CorruptCache,
}

impl FailureKind {
    /// Every kind, for reading a label back.
    pub(crate) const ALL: [Self; 4] =
        [Self::Panicked, Self::TimedOut, Self::Nondeterministic, Self::CorruptCache];

    /// Stable taxonomy label, as rendered in `QUARANTINED(..)` lines.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panicked => "Panicked",
            FailureKind::TimedOut => "TimedOut",
            FailureKind::Nondeterministic => "Nondeterministic",
            FailureKind::CorruptCache => "CorruptCache",
        }
    }
}

/// A quarantined run: taxonomy, attempts spent, and the last error text.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFailure {
    /// What class of failure exhausted the budget.
    pub taxonomy: FailureKind,
    /// Attempts consumed (retries + 1 when exhausted).
    pub attempts: u32,
    /// The last attempt's error (panic message or deadline report).
    pub last_error: String,
}

/// The outcome of one supervised run.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run completed; `attempts` counts tries including the final
    /// successful one (1 = clean first try).
    Ok {
        /// The completed record.
        record: RunRecord,
        /// Attempts consumed, including the successful one.
        attempts: u32,
    },
    /// The run exhausted its budget and was quarantined.
    Failed(RunFailure),
}

impl RunOutcome {
    /// The completed record, if any.
    pub fn record(&self) -> Option<&RunRecord> {
        match self {
            RunOutcome::Ok { record, .. } => Some(record),
            RunOutcome::Failed(_) => None,
        }
    }

    /// Attempts consumed either way.
    pub fn attempts(&self) -> u32 {
        match self {
            RunOutcome::Ok { attempts, .. } => *attempts,
            RunOutcome::Failed(f) => f.attempts,
        }
    }

    /// True on success.
    pub fn is_ok(&self) -> bool {
        matches!(self, RunOutcome::Ok { .. })
    }
}

/// When a report's findings should flip the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyPolicy {
    /// Never gate: report and exit 0.
    None,
    /// Gate on warnings and errors: any quarantine/mismatch, any run that
    /// needed retries to pass, any self-healed cache corruption.
    Warn,
    /// Gate on errors only: quarantined or mismatched runs.
    Error,
}

impl DenyPolicy {
    /// Parses `none|warn|error`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(DenyPolicy::None),
            "warn" => Some(DenyPolicy::Warn),
            "error" => Some(DenyPolicy::Error),
            _ => None,
        }
    }

    /// The flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            DenyPolicy::None => "none",
            DenyPolicy::Warn => "warn",
            DenyPolicy::Error => "error",
        }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// One supervised attempt: catch panics, optionally bound by a deadline.
#[allow(clippy::too_many_arguments)]
fn attempt_once<E>(
    exp: &E,
    id: &str,
    seed: u64,
    params: &Params,
    deadline: Option<Duration>,
    plan: Option<&FaultPlan>,
    attempt: u32,
    replica: u32,
) -> Result<RunRecord, (FailureKind, String)>
where
    E: Experiment + Sync + ?Sized,
{
    let run = || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match plan {
            Some(p) => {
                run_once(&FaultyExperiment::new(exp, p, id, attempt, replica), seed, params.clone())
            }
            None => run_once(exp, seed, params.clone()),
        }))
        .map_err(|payload| (FailureKind::Panicked, panic_message(payload.as_ref())))
    };
    match deadline {
        None => run(),
        Some(limit) => {
            // Watchdog: the attempt runs on a scoped thread while this
            // thread waits on the channel with a timeout. The verdict is
            // rendered *at* the deadline; the straggler is joined
            // cooperatively when the scope closes (injected delays are
            // bounded, so the join is too — a kill would need unsafe or
            // process isolation, both out of contract here).
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::scope(|s| {
                // treu-lint: allow(wall-clock, reason = "deadline budget accounting; never part of a result")
                let attempt_start = Instant::now();
                s.spawn(move || {
                    let _ = tx.send(run());
                });
                match await_deadline(&rx, attempt_start, limit) {
                    Ok(res) => res,
                    Err(_) => Err((
                        FailureKind::TimedOut,
                        format!("exceeded per-run deadline of {:.3}s", limit.as_secs_f64()),
                    )),
                }
            })
        }
    }
}

/// Waits on `rx` for at most `limit` measured from the logical attempt
/// start `start` — *not* from each call to `recv_timeout`. Re-arming a
/// wait with the full deadline after a spurious wakeup lets the
/// effective budget drift arbitrarily past `limit`; this loop always
/// re-arms with the remaining budget, so the total wait is bounded by
/// `limit` no matter how often the wait is interrupted.
///
/// Returns `Err(true)` when the sender disconnected without a value and
/// `Err(false)` on deadline exhaustion. Shared by the per-attempt
/// watchdog above and reused as the supervision discipline for the
/// service coordinator's per-worker watchdog.
pub(crate) fn await_deadline<T>(
    rx: &std::sync::mpsc::Receiver<T>,
    start: Instant,
    limit: Duration,
) -> Result<T, bool> {
    use std::sync::mpsc::RecvTimeoutError;
    loop {
        let remaining = limit.saturating_sub(start.elapsed());
        if remaining.is_zero() {
            return Err(false);
        }
        match rx.recv_timeout(remaining) {
            Ok(v) => return Ok(v),
            Err(RecvTimeoutError::Disconnected) => return Err(true),
            // A wakeup short of the budget: recompute the remainder from
            // the attempt epoch and keep waiting.
            Err(RecvTimeoutError::Timeout) => continue,
        }
    }
}

/// Runs one experiment under a [`SupervisePolicy`]: panics are caught,
/// failed attempts retry after the deterministic
/// [`crate::fault::backoff_millis`] pause, and an exhausted budget yields
/// a quarantined [`RunOutcome::Failed`] instead of propagating.
///
/// `plan` (when present) wraps the experiment in a [`FaultyExperiment`]
/// for attempt-aware chaos injection; `replica` distinguishes
/// verification replicas so injected trail corruption cannot hide by
/// corrupting both replicas identically.
pub fn run_supervised<E>(
    exp: &E,
    id: &str,
    seed: u64,
    params: &Params,
    policy: &SupervisePolicy,
    plan: Option<&FaultPlan>,
    replica: u32,
) -> RunOutcome
where
    E: Experiment + Sync + ?Sized,
{
    run_supervised_traced(exp, id, seed, params, policy, plan, replica, None)
}

/// [`run_supervised`] with span recording: every attempt boundary,
/// injected fault and backoff pause is pushed into the caller's
/// [`RunTrace`] (stamped relative to the epoch `Instant`). With `tracer`
/// `None` the event path costs one branch per site — this *is*
/// [`run_supervised`].
#[allow(clippy::too_many_arguments)]
pub fn run_supervised_traced<E>(
    exp: &E,
    id: &str,
    seed: u64,
    params: &Params,
    policy: &SupervisePolicy,
    plan: Option<&FaultPlan>,
    replica: u32,
    mut tracer: Option<(&mut RunTrace, Instant)>,
) -> RunOutcome
where
    E: Experiment + Sync + ?Sized,
{
    let mut last = (FailureKind::Panicked, String::new());
    for attempt in 0..=policy.retries {
        if attempt > 0 {
            let millis = backoff_millis(attempt, id, seed);
            emit(&mut tracer, TraceEvent::Backoff { replica, attempt, millis });
            std::thread::sleep(Duration::from_millis(millis));
        }
        emit(&mut tracer, TraceEvent::AttemptStart { replica, attempt });
        if tracer.is_some() {
            if let Some(kind) = plan.and_then(|p| p.fault_at(id, seed, attempt)) {
                emit(&mut tracer, TraceEvent::Fault { replica, attempt, kind: kind.label() });
            }
        }
        match attempt_once(exp, id, seed, params, policy.deadline, plan, attempt, replica) {
            Ok(record) => {
                emit(
                    &mut tracer,
                    TraceEvent::AttemptEnd { replica, attempt, outcome: AttemptOutcome::Ok },
                );
                emit(
                    &mut tracer,
                    TraceEvent::Outcome {
                        replica,
                        ok: true,
                        attempts: attempt + 1,
                        taxonomy: None,
                    },
                );
                return RunOutcome::Ok { record, attempts: attempt + 1 };
            }
            Err(e) => {
                let outcome = match e.0 {
                    FailureKind::TimedOut => AttemptOutcome::TimedOut,
                    _ => AttemptOutcome::Panicked,
                };
                emit(&mut tracer, TraceEvent::AttemptEnd { replica, attempt, outcome });
                last = e;
            }
        }
    }
    emit(
        &mut tracer,
        TraceEvent::Outcome {
            replica,
            ok: false,
            attempts: policy.retries + 1,
            taxonomy: Some(last.0.name()),
        },
    );
    RunOutcome::Failed(RunFailure {
        taxonomy: last.0,
        attempts: policy.retries + 1,
        last_error: last.1,
    })
}

/// One experiment's verification outcome.
#[derive(Debug, Clone)]
pub struct VerifyOutcome {
    /// Experiment id.
    pub id: String,
    /// Fingerprint of the first replica.
    pub fingerprint: u64,
    /// True when both replicas produced bitwise-identical trails.
    pub reproduced: bool,
    /// True when the outcome was served from the run cache (previously
    /// verified under the same code+env fingerprint) without recompute.
    pub cached: bool,
    /// Attempts the slower replica needed (1 = clean first try; cached
    /// outcomes are always 1).
    pub attempts: u32,
    /// True when a corrupt cache entry was detected, invalidated, and the
    /// recompute re-established a verified result (self-healed).
    pub healed_corruption: bool,
    /// The failure, when the id did not reproduce.
    pub failure: Option<RunFailure>,
}

impl VerifyOutcome {
    /// The verdict as rendered after the id: `REPRODUCED` (with its
    /// cache, healing and retry tags), `QUARANTINED(..)` or `MISMATCH`.
    pub fn status(&self) -> String {
        if self.reproduced {
            format!(
                "REPRODUCED{} (fingerprint {:#018x}){}{}",
                if self.cached { " [cached]" } else { "" },
                self.fingerprint,
                if self.healed_corruption { " [healed corrupt cache entry]" } else { "" },
                if self.attempts > 1 {
                    format!(" [after {} attempts]", self.attempts)
                } else {
                    String::new()
                }
            )
        } else if let Some(f) =
            self.failure.as_ref().filter(|f| f.taxonomy != FailureKind::Nondeterministic)
        {
            format!(
                "QUARANTINED({}) after {} attempt(s): {}",
                f.taxonomy.name(),
                f.attempts,
                f.last_error
            )
        } else {
            "MISMATCH — run is not deterministic".to_string()
        }
    }
}

/// The result of a registry-wide verification pass.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Worker count used.
    pub jobs: usize,
    /// Per-id outcomes, in registry (id) order.
    pub outcomes: Vec<VerifyOutcome>,
    /// Wall-clock seconds for the whole pass.
    pub wall_seconds: f64,
    /// Ids that were actually (re)computed this pass — with a warm cache
    /// this is zero.
    pub recomputed: usize,
    /// The pass's merged event trace (empty when tracing was disabled).
    pub trace: BatchTrace,
    /// Aggregate counters folded from [`VerifyReport::trace`] — the
    /// report and the trace are two views of the same event stream.
    pub counters: TraceCounters,
}

impl VerifyReport {
    /// True when every experiment reproduced.
    pub fn all_reproduced(&self) -> bool {
        self.outcomes.iter().all(|o| o.reproduced)
    }

    /// Ids that failed to reproduce.
    pub fn violations(&self) -> Vec<&str> {
        self.outcomes.iter().filter(|o| !o.reproduced).map(|o| o.id.as_str()).collect()
    }

    /// Outcomes served from the cache.
    pub fn cached_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cached).count()
    }

    /// Outcomes quarantined by the supervisor: the run *could not
    /// complete* (panic, deadline, corrupt cache) — as opposed to
    /// completing with mismatched replicas, which is a plain
    /// determinism violation.
    pub fn quarantined(&self) -> Vec<&VerifyOutcome> {
        self.outcomes
            .iter()
            .filter(|o| {
                o.failure.as_ref().is_some_and(|f| f.taxonomy != FailureKind::Nondeterministic)
            })
            .collect()
    }

    /// Outcomes that reproduced only after retries.
    pub fn retried(&self) -> Vec<&VerifyOutcome> {
        self.outcomes.iter().filter(|o| o.reproduced && o.attempts > 1).collect()
    }

    /// Outcomes whose corrupt cache entry was self-healed.
    pub fn healed(&self) -> Vec<&VerifyOutcome> {
        self.outcomes.iter().filter(|o| o.healed_corruption).collect()
    }

    /// True when this report should flip the exit code under `policy`:
    /// `Error` gates on any non-reproduced id; `Warn` additionally gates
    /// on runs that needed retries or self-healed cache corruption;
    /// `None` never gates.
    pub fn exceeds(&self, policy: DenyPolicy) -> bool {
        match policy {
            DenyPolicy::None => false,
            DenyPolicy::Error => !self.all_reproduced(),
            DenyPolicy::Warn => {
                !self.all_reproduced() || !self.retried().is_empty() || !self.healed().is_empty()
            }
        }
    }

    /// Renders one line per id plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            out.push_str(&format!("{:<10} {}\n", o.id, o.status()));
        }
        out.push_str(&format!(
            "{}/{} reproduced in {:.3}s with {} job(s)\n",
            self.outcomes.iter().filter(|o| o.reproduced).count(),
            self.outcomes.len(),
            self.wall_seconds,
            self.jobs
        ));
        if self.cached_count() > 0 {
            out.push_str(&format!(
                "{} from cache, {} recomputed\n",
                self.cached_count(),
                self.recomputed
            ));
        }
        let quarantined = self.quarantined();
        if !quarantined.is_empty() {
            out.push_str(&format!(
                "{} quarantined: {}\n",
                quarantined.len(),
                quarantined.iter().map(|o| o.id.as_str()).collect::<Vec<_>>().join(", ")
            ));
        }
        if self.counters.events > 0 {
            out.push_str(&self.counters.render_line());
        }
        out
    }
}

/// Wall-clock accounting for one run inside a batch.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// Display label (seed, id, or grid tag).
    pub label: String,
    /// Wall seconds of that run alone.
    pub wall_seconds: f64,
}

/// Timing report for a parallel batch: where the time went, how well the
/// fan-out paid off, and what Amdahl's law implies about pushing further.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Worker count used.
    pub jobs: usize,
    /// Per-run timings, in canonical order.
    pub runs: Vec<RunTiming>,
    /// Measured wall seconds for the whole batch.
    pub wall_seconds: f64,
    /// Runs served from the run cache (their [`RunTiming`] carries the
    /// original compute cost, not this batch's).
    pub cached_runs: usize,
    /// Runs that exhausted their supervision budget and were quarantined
    /// (they contribute no [`RunTiming`]).
    pub failed_runs: usize,
    /// The batch's merged event trace (empty when tracing was disabled or
    /// the batch did not go through a traced path). Its `workers` are the
    /// report's per-worker load, in worker-spawn order; empty when the
    /// batch did not go through the dynamic scheduler's stats path.
    pub trace: BatchTrace,
    /// Aggregate counters folded from [`ExecReport::trace`].
    pub counters: TraceCounters,
}

impl ExecReport {
    /// Builds a report from labelled per-run wall times plus the measured
    /// batch wall time.
    pub fn from_labelled(
        jobs: usize,
        runs: impl IntoIterator<Item = (String, f64)>,
        wall_seconds: f64,
    ) -> Self {
        Self {
            jobs,
            runs: runs
                .into_iter()
                .map(|(label, wall_seconds)| RunTiming { label, wall_seconds })
                .collect(),
            wall_seconds,
            cached_runs: 0,
            failed_runs: 0,
            trace: BatchTrace::empty("batch", 0),
            counters: TraceCounters::default(),
        }
    }

    /// Attaches the dynamic scheduler's per-worker load accounting to the
    /// report's trace (a later [`ExecReport::with_trace`] replaces it).
    pub fn with_workers(mut self, sched: &SchedStats) -> Self {
        self.trace.workers = worker_timings(sched);
        self
    }

    /// Records how many runs were served from the cache.
    pub fn with_cached(mut self, cached_runs: usize) -> Self {
        self.cached_runs = cached_runs;
        self
    }

    /// Records how many runs were quarantined by the supervisor.
    pub fn with_failed(mut self, failed_runs: usize) -> Self {
        self.failed_runs = failed_runs;
        self
    }

    /// Attaches the batch's merged event trace and folds its counters.
    pub fn with_trace(mut self, trace: BatchTrace) -> Self {
        self.counters = trace.counters();
        self.trace = trace;
        self
    }

    /// Total CPU-seconds across runs — the sequential cost.
    pub fn total_seconds(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_seconds).sum()
    }

    /// The longest single run — no schedule can beat this.
    pub fn critical_path_seconds(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_seconds).fold(0.0, f64::max)
    }

    /// Sum of per-worker busy seconds (0.0 when no worker stats).
    pub fn total_busy_seconds(&self) -> f64 {
        self.trace.workers.iter().map(|w| w.busy_seconds).sum()
    }

    /// Load-imbalance ratio: busiest over least-busy worker. 1.0 when
    /// fewer than two workers reported, when every run was replayed from
    /// the cache (the workers' busy time is replay, not compute), or when
    /// nobody did measurable work (e.g. every run quarantined) — always
    /// finite.
    pub fn imbalance_ratio(&self) -> f64 {
        if self.trace.workers.len() < 2 || self.all_cached() {
            return 1.0;
        }
        let max = self.trace.workers.iter().map(|w| w.busy_seconds).fold(0.0, f64::max);
        let min = self.trace.workers.iter().map(|w| w.busy_seconds).fold(f64::INFINITY, f64::min);
        // A worker with ~zero busy seconds did no measurable work — a
        // fully-cached batch, or more workers than items. max over ~0 is
        // scheduling noise, not imbalance; the old `min.max(1e-9)` floor
        // turned it into a ~1e9 "ratio".
        if max <= 0.0 || !min.is_finite() || min <= 1e-9 {
            return 1.0;
        }
        let ratio = max / min;
        if ratio.is_finite() {
            ratio
        } else {
            1.0
        }
    }

    /// True when every run in the batch was served from the run cache —
    /// nothing was computed, so busy/wall ratios describe replay, not
    /// work.
    pub fn all_cached(&self) -> bool {
        !self.runs.is_empty() && self.cached_runs >= self.runs.len()
    }

    /// Worker utilization: busy seconds over `workers × wall` (1.0 = no
    /// idle time anywhere). Falls back to run-time accounting when no
    /// worker stats are attached.
    pub fn utilization(&self) -> f64 {
        // A fully-cached batch computed nothing, but its RunTimings carry
        // the runs' *original* costs — dividing those by this batch's
        // near-zero wall time reported utilization far above 100%.
        if self.all_cached() {
            return 0.0;
        }
        let wall = self.wall_seconds.max(1e-12);
        let (busy, lanes) = if self.trace.workers.is_empty() {
            (self.total_seconds(), self.jobs.max(1) as f64)
        } else {
            (self.total_busy_seconds(), self.trace.workers.len() as f64)
        };
        (busy / (lanes * wall)).clamp(0.0, 1.0)
    }

    /// Measured speedup: sequential cost over measured batch wall time.
    /// 1.0 (not 0 or NaN) when there is nothing to account — an empty
    /// batch, one where every run was quarantined, or one served entirely
    /// from the cache (its runs' costs are their original computations',
    /// not this batch's, so dividing them by its wall time measures
    /// nothing).
    pub fn speedup(&self) -> f64 {
        let total = self.total_seconds();
        if self.runs.is_empty() || total <= 0.0 || self.all_cached() {
            return 1.0;
        }
        total / self.wall_seconds.max(1e-12)
    }

    /// The serial fraction Amdahl's law implies for the measured batch
    /// (0 = perfect scaling, 1 = none).
    ///
    /// When per-worker busy times are attached, the fit uses what was
    /// *measured at the workers*: speedup = total busy seconds over batch
    /// wall time, at the spawned worker count — so scheduler idle time
    /// (imbalance) shows up as serial fraction instead of hiding inside
    /// batch wall time. Without worker stats it falls back to the
    /// per-run-sum estimate. With one effective lane, or a batch served
    /// entirely from the cache, there is no parallelism to attribute, so
    /// 1.0.
    pub fn serial_fraction(&self) -> f64 {
        if self.all_cached() {
            return 1.0;
        }
        let lanes = self.trace.workers.len();
        let (s, t) = if lanes >= 2 {
            (self.total_busy_seconds() / self.wall_seconds.max(1e-12), lanes as f64)
        } else if lanes == 1 {
            return 1.0;
        } else {
            (self.speedup(), self.jobs.min(self.runs.len().max(1)) as f64)
        };
        if t <= 1.0 || !s.is_finite() {
            return 1.0;
        }
        let s = s.max(1e-12);
        // S = 1 / (f + (1-f)/t)  =>  f = (1/S - 1/t) / (1 - 1/t)
        ((1.0 / s - 1.0 / t) / (1.0 - 1.0 / t)).clamp(0.0, 1.0)
    }

    /// Projected speedup at `threads` workers under the fitted serial
    /// fraction — the [`treu_math::scaling`] Amdahl hook.
    pub fn projected_speedup(&self, threads: usize) -> f64 {
        amdahl_speedup(self.serial_fraction(), threads)
    }

    /// Renders the accounting: per-run lines, per-worker load, then
    /// totals and the scaling estimate.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.runs {
            out.push_str(&format!("  run    {:<24} {:>9.4}s\n", r.label, r.wall_seconds));
        }
        for (w, load) in self.trace.workers.iter().enumerate() {
            out.push_str(&format!(
                "  worker {:<3} busy {:>9.4}s  {:>4} chunk(s)  {:>4} item(s)\n",
                w, load.busy_seconds, load.chunks, load.items
            ));
        }
        out.push_str(&format!(
            "  total {:.4}s over {} run(s); critical path {:.4}s; wall {:.4}s with {} job(s)\n",
            self.total_seconds(),
            self.runs.len(),
            self.critical_path_seconds(),
            self.wall_seconds,
            self.jobs
        ));
        if !self.trace.workers.is_empty() {
            if self.all_cached() {
                out.push_str(&format!(
                    "  load: utilization — (all cached), {} worker(s) idle\n",
                    self.trace.workers.len()
                ));
            } else {
                out.push_str(&format!(
                    "  load: utilization {:.1}%, imbalance max/min {:.2} over {} worker(s)\n",
                    100.0 * self.utilization(),
                    self.imbalance_ratio(),
                    self.trace.workers.len()
                ));
            }
        }
        if self.cached_runs > 0 {
            out.push_str(&format!(
                "  cache: {} of {} run(s) served from the run cache\n",
                self.cached_runs,
                self.runs.len()
            ));
        }
        if self.failed_runs > 0 {
            out.push_str(&format!(
                "  quarantined: {} run(s) exhausted their supervision budget\n",
                self.failed_runs
            ));
        }
        if self.counters.events > 0 {
            out.push_str(&self.counters.render_line());
        }
        if self.all_cached() {
            out.push_str("  speedup — (all cached)\n");
            return out;
        }
        out.push_str(&format!(
            "  speedup {:.2}x (implied Amdahl serial fraction {:.3}{}; projected {:.2}x at {} threads)\n",
            self.speedup(),
            self.serial_fraction(),
            if self.trace.workers.len() >= 2 { " from per-worker busy time" } else { "" },
            self.projected_speedup(2 * self.jobs.max(1)),
            2 * self.jobs.max(1)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{assert_deterministic, run_seeds, RunContext};
    use crate::sweep::sweep;

    struct Noisy;
    impl Experiment for Noisy {
        fn name(&self) -> &str {
            "noisy"
        }
        fn run(&self, ctx: &mut RunContext) {
            let n = ctx.int("n", 40) as usize;
            let mut rng = ctx.rng("draws");
            let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
            ctx.record("mean", mean);
            ctx.record("n", n as f64);
        }
    }

    fn trails(records: &[RunRecord]) -> Vec<u64> {
        records.iter().map(|r| r.fingerprint()).collect()
    }

    #[test]
    fn run_seeds_matches_sequential_for_every_job_count() {
        let seeds: Vec<u64> = (0..13).collect();
        let params = Params::new().with_int("n", 64);
        let seq = run_seeds(&Noisy, &seeds, &params);
        for jobs in [1, 2, 3, 8, 32] {
            let par = Executor::new(jobs).run_seeds(&Noisy, &seeds, &params);
            assert_eq!(trails(&seq), trails(&par), "jobs={jobs}");
            for (a, b) in seq.iter().zip(par.iter()) {
                assert_eq!(a.trail, b.trail, "jobs={jobs}");
                assert_eq!(a.seed, b.seed, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn sweep_matches_sequential_for_every_job_count() {
        let axes = [Axis::ints("n", &[8, 16, 32]), Axis::floats("unused", &[0.5, 1.5])];
        let base = Params::new();
        let seq = sweep(&Noisy, &base, &axes, 2023);
        for jobs in [1, 2, 7] {
            let par = Executor::new(jobs).sweep(&Noisy, &base, &axes, 2023);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(par.iter()) {
                assert_eq!(a.assignment, b.assignment, "jobs={jobs}");
                assert_eq!(a.record.trail, b.record.trail, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn executor_assert_deterministic_agrees_with_sequential() {
        let params = Params::new().with_int("n", 32);
        let fp_seq = assert_deterministic(&Noisy, 9, &params);
        let fp_par = Executor::new(4).assert_deterministic(&Noisy, 9, &params);
        assert_eq!(fp_seq, fp_par);
    }

    struct NonDet(std::sync::atomic::AtomicU64);
    impl Experiment for NonDet {
        fn name(&self) -> &str {
            "nondet"
        }
        fn run(&self, ctx: &mut RunContext) {
            let c = self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            ctx.record("counter", c as f64);
        }
    }

    #[test]
    #[should_panic(expected = "not deterministic")]
    fn concurrent_nondeterminism_is_caught() {
        let exp = NonDet(std::sync::atomic::AtomicU64::new(0));
        Executor::new(2).assert_deterministic(&exp, 1, &Params::new());
    }

    /// A registry-wide run batch: `(id, record)` pairs plus its report.
    fn run_all(
        exec: &Executor,
        reg: &ExperimentRegistry,
        seed: u64,
        cache: Option<&RunCache>,
    ) -> (Vec<(String, RunRecord)>, ExecReport) {
        let batch = Batch { cache, ..Batch::new(Mode::Run, seed) };
        let (outcomes, report) =
            batch.execute(reg, Dispatch::InProcess(exec)).unwrap().report.into_run();
        let records = outcomes.into_iter().map(|(id, o)| (id, o.record().unwrap().clone()));
        (records.collect(), report)
    }

    /// A registry-wide verify batch at registry defaults.
    fn verify_all(
        exec: &Executor,
        reg: &ExperimentRegistry,
        seed: u64,
        cache: Option<&RunCache>,
    ) -> VerifyReport {
        exec.verify_all_supervised_with(
            reg,
            seed,
            cache,
            &SupervisePolicy::default(),
            None,
            |_, d| d,
        )
    }

    fn small_registry() -> ExperimentRegistry {
        let mut reg = ExperimentRegistry::new();
        reg.register("A", "x", "noisy a", Params::new().with_int("n", 16), Box::new(Noisy));
        reg.register("B", "y", "noisy b", Params::new().with_int("n", 24), Box::new(Noisy));
        reg.register("C", "z", "noisy c", Params::new().with_int("n", 8), Box::new(Noisy));
        reg
    }

    #[test]
    fn run_all_is_in_id_order_and_job_count_invariant() {
        let reg = small_registry();
        let base = run_all(&Executor::sequential(), &reg, 7, None).0;
        assert_eq!(base.iter().map(|(id, _)| id.as_str()).collect::<Vec<_>>(), vec!["A", "B", "C"]);
        for jobs in [2, 5] {
            let par = run_all(&Executor::new(jobs), &reg, 7, None).0;
            for ((ida, a), (idb, b)) in base.iter().zip(par.iter()) {
                assert_eq!(ida, idb);
                assert_eq!(a.trail, b.trail, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn verify_all_passes_deterministic_registry() {
        let reg = small_registry();
        for jobs in [1, 4] {
            let report = verify_all(&Executor::new(jobs), &reg, 3, None);
            assert!(report.all_reproduced(), "jobs={jobs}");
            assert!(report.violations().is_empty());
            assert_eq!(report.outcomes.len(), 3);
            let rendered = report.render();
            assert!(rendered.contains("3/3 reproduced"));
            assert!(rendered.contains("REPRODUCED"));
        }
    }

    #[test]
    fn verify_all_flags_nondeterminism_and_exit_is_nonzero_worthy() {
        let mut reg = small_registry();
        reg.register(
            "Z-bad",
            "w",
            "broken",
            Params::new(),
            Box::new(NonDet(std::sync::atomic::AtomicU64::new(0))),
        );
        let report = verify_all(&Executor::new(4), &reg, 3, None);
        assert!(!report.all_reproduced());
        assert_eq!(report.violations(), vec!["Z-bad"]);
        assert!(report.render().contains("MISMATCH"));
    }

    #[test]
    fn verify_all_with_overrides_params() {
        let reg = small_registry();
        let report = Executor::new(2).verify_all_supervised_with(
            &reg,
            5,
            None,
            &SupervisePolicy::default(),
            None,
            |_, d| d.with_int("n", 4),
        );
        assert!(report.all_reproduced());
    }

    #[test]
    fn report_accounts_time_and_fits_amdahl() {
        let report = ExecReport::from_labelled(
            4,
            [("a".to_string(), 1.0), ("b".to_string(), 1.0), ("c".to_string(), 2.0)],
            2.0,
        );
        assert_eq!(report.total_seconds(), 4.0);
        assert_eq!(report.critical_path_seconds(), 2.0);
        assert!((report.speedup() - 2.0).abs() < 1e-9);
        let f = report.serial_fraction();
        assert!((0.0..=1.0).contains(&f));
        // Perfect scaling at t=3 effective workers would be 3x; measured
        // 2x implies a nonzero serial fraction.
        assert!(f > 0.0);
        // The projection reproduces the measurement at the effective
        // worker count by construction.
        let t = report.jobs.min(report.runs.len());
        assert!((report.projected_speedup(t) - report.speedup()).abs() < 1e-9);
        let rendered = report.render();
        assert!(rendered.contains("critical path"));
        assert!(rendered.contains("speedup"));
    }

    #[test]
    fn sequential_report_has_unit_serial_fraction() {
        let report = ExecReport::from_labelled(1, [("a".to_string(), 1.0)], 1.0);
        assert_eq!(report.serial_fraction(), 1.0);
        assert_eq!(report.projected_speedup(8), 1.0);
    }

    #[test]
    fn run_seeds_report_labels_every_seed() {
        let (records, report) =
            Executor::new(2).run_seeds_report(&Noisy, &[3, 1, 4], &Params::new());
        assert_eq!(records.len(), 3);
        assert_eq!(report.runs.len(), 3);
        assert_eq!(report.runs[0].label, "seed 3");
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn map_indexed_preserves_order_under_oversubscription() {
        let v = Executor::new(64).map_indexed(5, |i| i * i);
        assert_eq!(v, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn map_indexed_stats_reports_worker_load() {
        let (v, sched) = Executor::new(4).map_indexed_stats(40, |i| i + 1);
        assert_eq!(v, (1..=40).collect::<Vec<_>>());
        assert!(sched.workers >= 1 && sched.workers <= 4);
        assert_eq!(sched.items.iter().sum::<usize>(), 40);
    }

    #[test]
    fn report_with_workers_fits_amdahl_from_busy_time() {
        // Two workers, each busy 1.0s, wall 1.0s: S = 2 at t = 2 ⇒ f = 0
        // (perfect scaling), regardless of what the per-run sums say.
        let sched = SchedStats {
            workers: 2,
            chunk: 1,
            busy_seconds: vec![1.0, 1.0],
            chunks_claimed: vec![2, 2],
            items: vec![2, 2],
        };
        let report =
            ExecReport::from_labelled(2, [("a".to_string(), 0.5), ("b".to_string(), 0.5)], 1.0)
                .with_workers(&sched);
        assert!((report.total_busy_seconds() - 2.0).abs() < 1e-12);
        assert!(report.serial_fraction() < 1e-9, "balanced busy time ⇒ zero serial fraction");
        assert!((report.utilization() - 1.0).abs() < 1e-9);
        assert!((report.imbalance_ratio() - 1.0).abs() < 1e-9);

        // One hot worker, one idle: S = 1.1/1.0 at t = 2 ⇒ large f.
        let skew = SchedStats {
            workers: 2,
            chunk: 1,
            busy_seconds: vec![1.0, 0.1],
            chunks_claimed: vec![3, 1],
            items: vec![3, 1],
        };
        let hot = ExecReport::from_labelled(2, [("a".to_string(), 1.1)], 1.0).with_workers(&skew);
        assert!(hot.serial_fraction() > 0.5, "imbalance must surface as serial fraction");
        assert!((hot.imbalance_ratio() - 10.0).abs() < 1e-9);
        let rendered = hot.render();
        assert!(rendered.contains("worker 0"));
        assert!(rendered.contains("utilization"));
        assert!(rendered.contains("from per-worker busy time"));
    }

    #[test]
    fn single_worker_stats_mean_unit_serial_fraction() {
        let sched = SchedStats {
            workers: 1,
            chunk: 4,
            busy_seconds: vec![1.0],
            chunks_claimed: vec![1],
            items: vec![4],
        };
        let report =
            ExecReport::from_labelled(1, [("a".to_string(), 1.0)], 1.0).with_workers(&sched);
        assert_eq!(report.serial_fraction(), 1.0);
    }

    fn cache_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("treu-exec-cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn run_all_cached_is_bitwise_identical_and_free_on_rerun() {
        use crate::cache::RunCache;
        let reg = small_registry();
        let dir = cache_dir("runall");
        let cache = RunCache::open(&dir).unwrap();
        let exec = Executor::new(2);
        let plain = run_all(&exec, &reg, 7, None).0;
        let (cold, cold_report) = run_all(&exec, &reg, 7, Some(&cache));
        assert_eq!(cold_report.cached_runs, 0);
        for ((ida, a), (idb, b)) in plain.iter().zip(cold.iter()) {
            assert_eq!(ida, idb);
            assert_eq!(a.trail, b.trail, "cold cached batch must match the uncached batch");
        }
        let (warm, warm_report) = run_all(&exec, &reg, 7, Some(&cache));
        assert_eq!(warm_report.cached_runs, reg.len(), "second pass is fully cached");
        for ((ida, a), (idb, b)) in plain.iter().zip(warm.iter()) {
            assert_eq!(ida, idb);
            assert_eq!(a.trail, b.trail, "cache replay must round-trip trails bitwise");
        }
        assert!(warm_report.render().contains("served from the run cache"));
        // Regression: an all-hit batch has zero-busy workers — that must
        // read as unit imbalance and an "all cached" load line, not an
        // astronomically large max/min ratio.
        assert_eq!(warm_report.imbalance_ratio(), 1.0);
        assert!(warm_report.utilization() <= 1.0);
        assert_eq!(warm_report.counters.cache_hits, reg.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_cached_recomputes_nothing_on_a_warm_cache() {
        use crate::cache::RunCache;
        let reg = small_registry();
        let dir = cache_dir("verify");
        let exec = Executor::new(4);
        let cold_cache = RunCache::open(&dir).unwrap();
        let cold = verify_all(&exec, &reg, 3, Some(&cold_cache));
        assert!(cold.all_reproduced());
        assert_eq!(cold.recomputed, reg.len());
        assert_eq!(cold.cached_count(), 0);
        assert_eq!(cold_cache.stats().misses, reg.len() as u64);

        let warm_cache = RunCache::open(&dir).unwrap();
        let warm = verify_all(&exec, &reg, 3, Some(&warm_cache));
        assert!(warm.all_reproduced());
        assert_eq!(warm.recomputed, 0, "warm cache must recompute zero experiments");
        assert_eq!(warm.cached_count(), reg.len());
        assert_eq!(warm_cache.stats().hits, reg.len() as u64, "hit count equals experiment count");
        // Fingerprints replayed from cache equal the cold pass bitwise.
        for (a, b) in cold.outcomes.iter().zip(warm.outcomes.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.fingerprint, b.fingerprint);
        }
        assert!(warm.render().contains("[cached]"));
        assert!(warm.render().contains("from cache, 0 recomputed"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_does_not_cache_nondeterministic_runs() {
        use crate::cache::RunCache;
        let mut reg = small_registry();
        reg.register(
            "Z-bad",
            "w",
            "broken",
            Params::new(),
            Box::new(NonDet(std::sync::atomic::AtomicU64::new(0))),
        );
        let dir = cache_dir("nondet");
        let cache = RunCache::open(&dir).unwrap();
        let first = verify_all(&Executor::new(2), &reg, 3, Some(&cache));
        assert_eq!(first.violations(), vec!["Z-bad"]);
        // A second pass must re-run (and re-flag) the broken id: failures
        // are never served from the cache.
        let cache2 = RunCache::open(&dir).unwrap();
        let second = verify_all(&Executor::new(2), &reg, 3, Some(&cache2));
        assert_eq!(second.violations(), vec!["Z-bad"]);
        assert_eq!(second.recomputed, 1);
        assert_eq!(second.cached_count(), reg.len() - 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_report_stats_are_finite_and_sane() {
        // Zero successful runs (everything quarantined, or nothing ran):
        // the accounting must stay finite and neutral, not NaN or 0x.
        let report = ExecReport::from_labelled(4, std::iter::empty(), 0.0).with_failed(3);
        assert_eq!(report.speedup(), 1.0);
        assert_eq!(report.serial_fraction(), 1.0);
        assert_eq!(report.imbalance_ratio(), 1.0);
        assert_eq!(report.utilization(), 0.0);
        assert!(report.speedup().is_finite());
        assert!(report.projected_speedup(8).is_finite());
        let rendered = report.render();
        assert!(rendered.contains("quarantined: 3 run(s)"));
        assert!(!rendered.contains("NaN") && !rendered.contains("inf"));

        // An idle worker next to a busy one must not blow the ratio up
        // to 1e12 — clamped finite.
        let skew = SchedStats {
            workers: 2,
            chunk: 1,
            busy_seconds: vec![1.0, 0.0],
            chunks_claimed: vec![1, 0],
            items: vec![1, 0],
        };
        let lop = ExecReport::from_labelled(2, [("a".to_string(), 1.0)], 1.0).with_workers(&skew);
        assert!(lop.imbalance_ratio().is_finite());
        assert!(lop.serial_fraction().is_finite());
    }

    #[test]
    fn zero_busy_workers_report_unit_imbalance_not_huge_ratios() {
        // Regression: an all-cache-hit batch leaves every worker with ~0
        // busy seconds. The old `min.max(1e-9)` floor reported a ~1e9
        // "imbalance" for the busy/idle pair below instead of treating
        // near-zero busy time as no-signal.
        let idle = SchedStats {
            workers: 2,
            chunk: 1,
            busy_seconds: vec![0.0, 0.0],
            chunks_claimed: vec![0, 0],
            items: vec![0, 0],
        };
        let all_idle = ExecReport::from_labelled(2, std::iter::empty(), 0.01).with_workers(&idle);
        assert_eq!(all_idle.imbalance_ratio(), 1.0);
        let near = SchedStats {
            workers: 2,
            chunk: 1,
            busy_seconds: vec![1.0, 1e-12],
            chunks_claimed: vec![1, 1],
            items: vec![1, 1],
        };
        let lop = ExecReport::from_labelled(2, [("a".to_string(), 1.0)], 1.0).with_workers(&near);
        assert_eq!(lop.imbalance_ratio(), 1.0, "sub-nanosecond busy time is noise, not load");
    }

    #[test]
    fn fully_cached_batch_renders_all_cached_and_clamps_utilization() {
        // A warm-cache batch's RunTimings carry the original compute
        // costs (here 5s against a 1ms wall): utilization must not report
        // >100%, and the load line must say "all cached" instead of
        // manufacturing a percentage out of replay time.
        let sched = SchedStats {
            workers: 2,
            chunk: 1,
            busy_seconds: vec![0.0, 0.0],
            chunks_claimed: vec![0, 0],
            items: vec![0, 0],
        };
        let report =
            ExecReport::from_labelled(2, [("a".to_string(), 2.0), ("b".to_string(), 3.0)], 0.001)
                .with_workers(&sched)
                .with_cached(2);
        assert!(report.all_cached());
        assert_eq!(report.utilization(), 0.0);
        assert!(report.utilization() <= 1.0);
        let rendered = report.render();
        assert!(rendered.contains("— (all cached)"), "{rendered}");
        assert!(!rendered.contains("utilization 1"), "{rendered}");
    }

    #[test]
    fn fully_cached_batch_reports_no_speedup() {
        // The runs' 5s of original compute against this batch's 1ms wall
        // once rendered as "speedup 5000.00x"; a batch that computed
        // nothing has no speedup to report, with or without worker stats.
        let runs = [("a".to_string(), 2.0), ("b".to_string(), 3.0)];
        let sched = SchedStats {
            workers: 2,
            chunk: 1,
            busy_seconds: vec![0.0004, 0.0003],
            chunks_claimed: vec![1, 1],
            items: vec![1, 1],
        };
        for report in [
            ExecReport::from_labelled(2, runs.clone(), 0.001).with_cached(2),
            ExecReport::from_labelled(2, runs.clone(), 0.001).with_workers(&sched).with_cached(2),
        ] {
            assert_eq!(report.speedup(), 1.0);
            assert_eq!(report.serial_fraction(), 1.0);
            let rendered = report.render();
            assert!(rendered.contains("  speedup — (all cached)\n"), "{rendered}");
            assert!(!rendered.contains("speedup 5000"), "{rendered}");
            assert!(!rendered.contains("Amdahl"), "{rendered}");
        }
        // One recomputed run is enough for the measured line to return.
        let partial = ExecReport::from_labelled(2, runs, 2.5).with_cached(1);
        assert_eq!(partial.speedup(), 2.0);
        assert!(partial.render().contains("speedup 2.00x"));
    }

    struct AlwaysPanics;
    impl Experiment for AlwaysPanics {
        fn name(&self) -> &str {
            "always-panics"
        }
        fn run(&self, _ctx: &mut RunContext) {
            panic!("permanent failure in the experiment body");
        }
    }

    struct Slow;
    impl Experiment for Slow {
        fn name(&self) -> &str {
            "slow"
        }
        fn run(&self, ctx: &mut RunContext) {
            std::thread::sleep(std::time::Duration::from_millis(300));
            ctx.record("done", 1.0);
        }
    }

    #[test]
    fn supervised_run_retries_transient_faults_to_success() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::transient(11, 1.0);
        let budget = plan.max_transient_attempts();
        assert!(budget >= 1);
        let policy = SupervisePolicy::new(budget);
        let out = run_supervised(&Noisy, "A", 7, &Params::new(), &policy, Some(&plan), 0);
        let clean = run_supervised(&Noisy, "A", 7, &Params::new(), &policy, None, 0);
        match (&out, &clean) {
            (
                RunOutcome::Ok { record: faulted, attempts },
                RunOutcome::Ok { record: baseline, .. },
            ) => {
                assert_eq!(
                    faulted.trail, baseline.trail,
                    "transient faults must not perturb the converged trail"
                );
                let expected = plan.first_clean_attempt("A", 7).unwrap() + 1;
                assert_eq!(*attempts, expected);
            }
            _ => panic!("both runs must converge within the advertised budget"),
        }
    }

    #[test]
    fn supervised_run_quarantines_permanent_panics() {
        let policy = SupervisePolicy::new(2);
        let out = run_supervised(&AlwaysPanics, "P", 1, &Params::new(), &policy, None, 0);
        match out {
            RunOutcome::Failed(f) => {
                assert_eq!(f.taxonomy, FailureKind::Panicked);
                assert_eq!(f.attempts, 3, "retries + 1 attempts consumed");
                assert!(f.last_error.contains("permanent failure"));
            }
            RunOutcome::Ok { .. } => panic!("a permanent panic cannot succeed"),
        }
    }

    #[test]
    fn supervised_run_enforces_the_deadline() {
        let policy = SupervisePolicy::new(0).with_deadline_secs(0.02);
        let out = run_supervised(&Slow, "S", 1, &Params::new(), &policy, None, 0);
        match out {
            RunOutcome::Failed(f) => {
                assert_eq!(f.taxonomy, FailureKind::TimedOut);
                assert!(f.last_error.contains("deadline"));
            }
            RunOutcome::Ok { .. } => panic!("a 300ms run cannot beat a 20ms deadline"),
        }
        // A generous deadline lets the same run through untouched.
        let ok = run_supervised(
            &Slow,
            "S",
            1,
            &Params::new(),
            &SupervisePolicy::new(0).with_deadline_secs(10.0),
            None,
            0,
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn verify_quarantines_the_broken_id_and_completes_the_rest() {
        let mut reg = small_registry();
        reg.register("Z-panic", "w", "broken", Params::new(), Box::new(AlwaysPanics));
        let policy = SupervisePolicy::new(1);
        for jobs in [1, 4] {
            let report = Executor::new(jobs).verify_all_supervised_with(
                &reg,
                3,
                None,
                &policy,
                None,
                |_, d| d,
            );
            assert_eq!(report.outcomes.len(), 4, "jobs={jobs}: the batch completes");
            let ok: Vec<_> =
                report.outcomes.iter().filter(|o| o.reproduced).map(|o| o.id.as_str()).collect();
            assert_eq!(ok, vec!["A", "B", "C"], "jobs={jobs}");
            let q = report.quarantined();
            assert_eq!(q.len(), 1, "jobs={jobs}");
            assert_eq!(q[0].id, "Z-panic");
            let f = q[0].failure.as_ref().unwrap();
            assert_eq!(f.taxonomy, FailureKind::Panicked);
            assert_eq!(f.attempts, 2);
            let rendered = report.render();
            assert!(rendered.contains("QUARANTINED(Panicked)"), "jobs={jobs}:\n{rendered}");
            assert!(rendered.contains("3/4 reproduced"), "jobs={jobs}");
            assert!(rendered.contains("1 quarantined: Z-panic"), "jobs={jobs}");
            // Gate decision is the policy's, not the report's.
            assert!(report.exceeds(DenyPolicy::Error));
            assert!(report.exceeds(DenyPolicy::Warn));
            assert!(!report.exceeds(DenyPolicy::None));
        }
    }

    #[test]
    fn verify_tags_retried_runs_and_warn_policy_gates_them() {
        use crate::fault::FaultPlan;
        let reg = small_registry();
        let plan = FaultPlan::transient(5, 1.0);
        let policy = SupervisePolicy::new(plan.max_transient_attempts());
        let faulted = Executor::new(2).verify_all_supervised_with(
            &reg,
            3,
            None,
            &policy,
            Some(&plan),
            |_, d| d,
        );
        assert!(faulted.all_reproduced(), "transient faults within budget must reproduce");
        assert!(!faulted.retried().is_empty(), "rate-1.0 transient plan must force retries");
        let clean = verify_all(&Executor::new(2), &reg, 3, None);
        for (a, b) in faulted.outcomes.iter().zip(clean.outcomes.iter()) {
            assert_eq!(a.fingerprint, b.fingerprint, "{}: chaos must converge to clean", a.id);
        }
        assert!(faulted.exceeds(DenyPolicy::Warn), "retries are warn-worthy");
        assert!(!faulted.exceeds(DenyPolicy::Error), "but not errors");
        assert!(faulted.render().contains("attempts]"));
    }

    #[test]
    fn run_all_supervised_reports_failures_without_aborting() {
        let mut reg = small_registry();
        reg.register("Z-panic", "w", "broken", Params::new(), Box::new(AlwaysPanics));
        let batch = Batch { policy: SupervisePolicy::new(0), ..Batch::new(Mode::Run, 7) };
        let exec = Executor::new(2);
        let (pairs, report) =
            batch.execute(&reg, Dispatch::InProcess(&exec)).unwrap().report.into_run();
        assert_eq!(pairs.len(), 4);
        assert_eq!(pairs.iter().filter(|(_, o)| o.is_ok()).count(), 3);
        assert_eq!(report.failed_runs, 1);
        assert_eq!(report.runs.len(), 3, "quarantined runs contribute no timing");
        let base = run_all(&Executor::sequential(), &small_registry(), 7, None).0;
        for ((id, out), (bid, brec)) in pairs.iter().filter(|(_, o)| o.is_ok()).zip(base.iter()) {
            assert_eq!(id, bid);
            assert_eq!(out.record().unwrap().trail, brec.trail);
        }
    }

    #[test]
    fn deny_policy_parses_and_names_round_trip() {
        for p in [DenyPolicy::None, DenyPolicy::Warn, DenyPolicy::Error] {
            assert_eq!(DenyPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(DenyPolicy::parse("loud"), None);
    }

    #[test]
    fn await_deadline_measures_from_the_logical_attempt_start() {
        use std::sync::mpsc::channel;

        // A pre-aged epoch: the budget is already spent, so the watchdog
        // must report expiry immediately instead of re-arming with the
        // full deadline (the drift bug this helper replaces). No sleeps —
        // the test is deterministic and immune to slow machines.
        let (_tx, rx) = channel::<()>();
        let limit = Duration::from_millis(50);
        // treu-lint: allow(wall-clock, reason = "test exercises the real deadline clock")
        let aged = Instant::now().checked_sub(Duration::from_secs(1)).expect("clock is past 1s");
        // treu-lint: allow(wall-clock, reason = "test exercises the real deadline clock")
        let before = Instant::now();
        assert_eq!(await_deadline(&rx, aged, limit), Err(false), "budget already exhausted");
        assert!(
            before.elapsed() < Duration::from_millis(40),
            "an exhausted budget must not re-arm the full deadline"
        );

        // Disconnection is surfaced distinctly from expiry.
        let (tx2, rx2) = channel::<u32>();
        drop(tx2);
        // treu-lint: allow(wall-clock, reason = "test exercises the real deadline clock")
        assert_eq!(await_deadline(&rx2, Instant::now(), limit), Err(true));

        // A value beats the deadline.
        let (tx3, rx3) = channel::<u32>();
        tx3.send(7).unwrap();
        // treu-lint: allow(wall-clock, reason = "test exercises the real deadline clock")
        assert_eq!(await_deadline(&rx3, Instant::now(), limit), Ok(7));
    }
}
