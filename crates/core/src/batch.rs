//! The one batch pipeline: every registry-wide (or single-id) `run` and
//! `verify`, in-process or sharded, goes through [`Batch::execute`].
//!
//! A batch runs in three phases:
//!
//! 1. **The coordinator looks up and builds tasks.** It looks up every id
//!    in the run cache, then ships [`TaskSpec`]s for the misses only: one
//!    per id for run, two replicas for verify. A run under an armed
//!    [`FaultPlan`] skips the cache — a faulted trail must never be stored
//!    as the experiment's record, and this is the one place that rule
//!    lives.
//! 2. **Dispatch.** [`Dispatch::InProcess`] maps [`execute_task`] over the
//!    tasks with [`Executor::map_indexed_stats`]; [`Dispatch::Sharded`]
//!    hands them to [`WorkerPool::run_tasks`], whose workers (and degraded
//!    fallback) call the same function. Both return outputs in index
//!    order, so the topology decides only *who* calls `execute_task`.
//!    No task carries a cache: workers never open one.
//! 3. **The coordinator merges and stores.** Verify cross-checks each
//!    id's two replicas and stores a reproduced pair; run takes each
//!    output as that id's outcome and stores a successful one. Task
//!    events are absorbed in index order into one [`BatchTrace`], so
//!    results and trace addresses are identical at every
//!    `(jobs, workers, kills)`.
//!
//! Every cache operation happens on the coordinator's thread, in id
//! order, through [`lookup`] and [`store`], which also emit the `Cache`
//! and `CacheStored` trace events. So one handle counts the whole batch
//! at every topology, and a bounded cache evicts the same entries in the
//! same order at every `jobs`.
//!
//! "Plain" execution is the default [`SupervisePolicy`] with no plan:
//! one `catch_unwind` per attempt, no watchdog thread (it is spawned only
//! when a deadline is armed), so no unsupervised path is kept.

use std::io;
use std::time::Instant;

use crate::cache::{Lookup, RunCache};
use crate::exec::{
    cache_result, emit, DenyPolicy, ExecReport, Executor, FailureKind, RunFailure, RunOutcome,
    SupervisePolicy, VerifyOutcome, VerifyReport,
};
use crate::experiment::{Params, RunRecord};
use crate::fault::FaultPlan;
use crate::registry::ExperimentRegistry;
use crate::svc::{execute_task, SvcConfig, SvcStats, TaskOutput, TaskSpec, WorkerPool};
use crate::trace::{worker_timings, BatchTrace, RunTrace, TraceEvent};
use treu_math::parallel::SchedStats;

/// What a batch does with each id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Run each id once.
    Run,
    /// Run each id twice and cross-check the trails.
    Verify,
}

/// Who calls [`execute_task`] on a batch's tasks.
pub enum Dispatch<'a> {
    /// Threads of this process.
    InProcess(&'a Executor),
    /// `treu worker` subprocesses under a supervised [`WorkerPool`].
    Sharded(SvcConfig),
}

/// One batch request.
pub struct Batch<'a> {
    /// Run or verify.
    pub mode: Mode,
    /// Base seed for every run.
    pub seed: u64,
    /// Ids in output order; `None` is the whole registry in id order.
    pub ids: Option<Vec<String>>,
    /// Parameter hook: receives each id and its registered defaults and
    /// returns the parameters to run at.
    pub params: &'a dyn Fn(&str, Params) -> Params,
    /// Optional run cache.
    pub cache: Option<&'a RunCache>,
    /// Retry and deadline budget per run.
    pub policy: SupervisePolicy,
    /// Optional injected chaos.
    pub plan: Option<&'a FaultPlan>,
}

/// A batch's report, by mode.
#[derive(Debug, Clone)]
pub enum BatchReport {
    /// Per-id outcomes in request order, plus the batch's timing report.
    Run {
        /// `(id, outcome)` pairs.
        outcomes: Vec<(String, RunOutcome)>,
        /// Timing, cache and trace accounting.
        report: ExecReport,
    },
    /// The cross-checked verification report.
    Verify(VerifyReport),
}

/// What [`Batch::execute`] returns.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// The merged report.
    pub report: BatchReport,
    /// Service-layer counters, for sharded batches.
    pub svc: Option<SvcStats>,
}

fn registry_defaults(_: &str, defaults: Params) -> Params {
    defaults
}

/// Encodes an armed deadline for [`TaskSpec::deadline_us`], where 0 means
/// "none": a sub-microsecond deadline rounds up to 1 µs rather than
/// silently disarming the watchdog.
fn policy_deadline_us(policy: &SupervisePolicy) -> u64 {
    policy.deadline.map_or(0, |d| (d.as_micros() as u64).max(1))
}

impl<'a> Batch<'a> {
    /// A request over the whole registry at registry defaults: no cache,
    /// no retries, no deadline, no fault plan.
    pub fn new(mode: Mode, seed: u64) -> Self {
        Batch {
            mode,
            seed,
            ids: None,
            params: &registry_defaults,
            cache: None,
            policy: SupervisePolicy::default(),
            plan: None,
        }
    }

    /// Runs the batch through `dispatch`. In-process dispatch never
    /// fails; a sharded one fails only on a coordinator I/O error.
    pub fn execute(
        &self,
        reg: &ExperimentRegistry,
        dispatch: Dispatch<'_>,
    ) -> io::Result<BatchOutcome> {
        // treu-lint: allow(wall-clock, reason = "batch timing reported outside the fingerprint")
        let start = Instant::now();
        let (tracing, jobs) = match &dispatch {
            Dispatch::InProcess(exec) => (exec.tracing_enabled(), exec.jobs()),
            Dispatch::Sharded(cfg) => (cfg.tracing, cfg.workers * cfg.jobs),
        };
        let ids: Vec<(String, Params)> = match &self.ids {
            Some(ids) => ids
                .iter()
                .map(|id| {
                    let defaults = reg.get(id).map(|e| e.defaults.clone()).unwrap_or_default();
                    (id.clone(), (self.params)(id, defaults))
                })
                .collect(),
            None => reg
                .iter()
                .map(|(id, e)| (id.to_string(), (self.params)(id, e.defaults.clone())))
                .collect(),
        };
        let mut traces: Vec<RunTrace> =
            ids.iter().map(|(id, _)| RunTrace::new(id, self.seed)).collect();

        // Phase 1: look up, then ship tasks for the misses. A run under a
        // fault plan never touches the cache: a faulted trail must never be
        // stored as the experiment's record, and this is the one place that
        // rule lives.
        let cache = self.cache.filter(|_| self.mode == Mode::Verify || self.plan.is_none());
        let looked: Vec<Lookup> = ids
            .iter()
            .zip(traces.iter_mut())
            .map(|((id, p), rt)| match cache {
                Some(c) => lookup(c, id, self.seed, p, &mut tracing.then_some((rt, start))),
                None => Lookup::Miss,
            })
            .collect();
        let replicas = match self.mode {
            Mode::Run => 1,
            Mode::Verify => 2,
        };
        // A verify miss's two replicas are independent tasks; replica =
        // k % 2 keeps the Claim numbering.
        let tasks: Vec<TaskSpec> = ids
            .iter()
            .zip(&looked)
            .filter(|(_, l)| !matches!(l, Lookup::Hit(_)))
            .flat_map(|(e, _)| std::iter::repeat_n(e, replicas))
            .enumerate()
            .map(|(k, (id, params))| TaskSpec {
                index: k,
                id: id.clone(),
                seed: self.seed,
                replica: (k % replicas) as u32,
                params: params.clone(),
                retries: self.policy.retries,
                deadline_us: policy_deadline_us(&self.policy),
                cache: false,
            })
            .collect();

        // Phase 2: dispatch.
        let (outputs, sched, svc) = match dispatch {
            Dispatch::InProcess(exec) => {
                let plan = self.plan;
                let (outputs, sched) = exec.map_indexed_stats(tasks.len(), |i| {
                    execute_task(reg, &tasks[i], plan, None, tracing, start)
                });
                (outputs, sched, None)
            }
            Dispatch::Sharded(cfg) => {
                let pool = WorkerPool::new(cfg);
                let (outputs, stats) = pool.run_tasks(reg, tasks, self.plan, None, self.seed)?;
                (outputs, SchedStats::default(), Some(stats))
            }
        };

        // Phase 3: merge and store.
        let mut fresh = outputs.into_iter();
        let report = match self.mode {
            Mode::Run => {
                let mut outcomes = Vec::with_capacity(ids.len());
                let mut cached = 0;
                for (((id, p), found), rt) in ids.into_iter().zip(looked).zip(traces.iter_mut()) {
                    let outcome = match found {
                        Lookup::Hit(record) => {
                            cached += 1;
                            RunOutcome::Ok { record, attempts: 1 }
                        }
                        _ => {
                            let out = absorb(rt, fresh.next().expect("one task per miss"));
                            if let (Some(c), Some(record)) = (cache, out.record()) {
                                let tracer = &mut tracing.then_some((rt, start));
                                store(c, &id, self.seed, &p, record, tracer);
                            }
                            out
                        }
                    };
                    outcomes.push((id, outcome));
                }
                let failed = outcomes.iter().filter(|(_, o)| !o.is_ok()).count();
                let wall = start.elapsed().as_secs_f64();
                let timings = outcomes
                    .iter()
                    .filter_map(|(id, o)| o.record().map(|r| (id.clone(), r.wall_seconds)));
                let report = ExecReport::from_labelled(jobs, timings, wall)
                    .with_cached(cached)
                    .with_failed(failed)
                    .with_trace(batch_trace("run", self.seed, traces, jobs, wall, &sched));
                BatchReport::Run { outcomes, report }
            }
            Mode::Verify => {
                let recomputed = fresh.len() / 2;
                let mut outcomes = Vec::with_capacity(ids.len());
                for (((id, p), found), rt) in ids.iter().zip(looked).zip(traces.iter_mut()) {
                    outcomes.push(match found {
                        Lookup::Hit(rec) => {
                            let fingerprint = rec.fingerprint();
                            if tracing {
                                let verdict = TraceEvent::Verdict {
                                    reproduced: true,
                                    cached: true,
                                    attempts: 1,
                                    fingerprint,
                                    failure: None,
                                };
                                rt.push(verdict, start.elapsed().as_secs_f64());
                            }
                            VerifyOutcome {
                                id: id.clone(),
                                fingerprint,
                                reproduced: true,
                                cached: true,
                                attempts: 1,
                                healed_corruption: false,
                                failure: None,
                            }
                        }
                        not_hit => {
                            let mut replica = || fresh.next().expect("two replicas per miss");
                            let pair = [absorb(rt, replica()), absorb(rt, replica())];
                            let was_corrupt = matches!(not_hit, Lookup::Corrupt);
                            let tracer = tracing.then_some((rt, start));
                            cross_check(id, self.seed, p, &pair, cache, was_corrupt, tracer)
                        }
                    });
                }
                let wall = start.elapsed().as_secs_f64();
                let trace = batch_trace("verify", self.seed, traces, jobs, wall, &sched);
                let counters = trace.counters();
                BatchReport::Verify(VerifyReport {
                    jobs,
                    outcomes,
                    wall_seconds: wall,
                    recomputed,
                    trace,
                    counters,
                })
            }
        };
        Ok(BatchOutcome { report, svc })
    }
}

impl BatchReport {
    /// The batch's merged event trace.
    pub fn trace(&self) -> &BatchTrace {
        match self {
            BatchReport::Run { report, .. } => &report.trace,
            BatchReport::Verify(r) => &r.trace,
        }
    }

    /// True when this report should flip the exit code under `policy`:
    /// `Error` gates on any quarantined, failed or mismatched id; `Warn`
    /// also on ids that needed retries (and, for verify, self-healed
    /// cache corruption); `None` never gates.
    pub fn exceeds(&self, policy: DenyPolicy) -> bool {
        match self {
            BatchReport::Verify(r) => r.exceeds(policy),
            BatchReport::Run { outcomes, .. } => {
                let failed = outcomes.iter().any(|(_, o)| !o.is_ok());
                let retried = outcomes.iter().any(|(_, o)| o.is_ok() && o.attempts() > 1);
                match policy {
                    DenyPolicy::None => false,
                    DenyPolicy::Error => failed,
                    DenyPolicy::Warn => failed || retried,
                }
            }
        }
    }

    /// The verify report; panics on a run batch.
    pub fn into_verify(self) -> VerifyReport {
        match self {
            BatchReport::Verify(r) => r,
            BatchReport::Run { .. } => panic!("a run batch has no verify report"),
        }
    }

    /// The run outcomes and report; panics on a verify batch.
    pub fn into_run(self) -> (Vec<(String, RunOutcome)>, ExecReport) {
        match self {
            BatchReport::Run { outcomes, report } => (outcomes, report),
            BatchReport::Verify(_) => panic!("a verify batch has no run outcomes"),
        }
    }
}

/// Appends one task's events to its id's trace and yields its outcome.
fn absorb(rt: &mut RunTrace, out: TaskOutput) -> RunOutcome {
    rt.dropped += out.dropped;
    for (ev, at) in out.events {
        rt.push(ev, at);
    }
    out.outcome
}

/// Looks up one run and emits its `Cache` event. This and [`store`] are
/// the only way a batch reads or writes a run entry, and
/// [`execute_task`]'s own cache branch goes through the same two.
pub(crate) fn lookup(
    cache: &RunCache,
    id: &str,
    seed: u64,
    params: &Params,
    tracer: &mut Option<(&mut RunTrace, Instant)>,
) -> Lookup {
    let found = cache.lookup_classified(id, seed, params);
    emit(tracer, TraceEvent::Cache { result: cache_result(&found) });
    found
}

/// Stores one successful run and emits `CacheStored` when the write
/// lands.
pub(crate) fn store(
    cache: &RunCache,
    id: &str,
    seed: u64,
    params: &Params,
    record: &RunRecord,
    tracer: &mut Option<(&mut RunTrace, Instant)>,
) {
    if cache.store(id, seed, params, record).is_ok() {
        emit(tracer, TraceEvent::CacheStored);
    }
}

/// Assembles per-run traces plus the scheduler's timing into a
/// [`BatchTrace`] (worker loads and wall time go to the sidecar only).
fn batch_trace(
    kind: &str,
    seed: u64,
    runs: Vec<RunTrace>,
    jobs: usize,
    wall_seconds: f64,
    sched: &SchedStats,
) -> BatchTrace {
    BatchTrace {
        kind: kind.to_string(),
        seed,
        runs,
        jobs,
        wall_seconds,
        workers: worker_timings(sched),
    }
}

/// Cross-checks one id's two supervised replicas into a [`VerifyOutcome`],
/// recording store/heal/verdict events into the run's trace when one is
/// threaded through.
fn cross_check(
    id: &str,
    seed: u64,
    params: &Params,
    pair: &[RunOutcome],
    cache: Option<&RunCache>,
    was_corrupt: bool,
    mut tracer: Option<(&mut RunTrace, Instant)>,
) -> VerifyOutcome {
    let outcome = match (&pair[0], &pair[1]) {
        (
            RunOutcome::Ok { record: a, attempts: aa },
            RunOutcome::Ok { record: b, attempts: ab },
        ) => {
            let reproduced = a.trail == b.trail;
            let attempts = (*aa).max(*ab);
            if reproduced {
                if let Some(c) = cache {
                    store(c, id, seed, params, a, &mut tracer);
                }
                if was_corrupt {
                    emit(&mut tracer, TraceEvent::CacheHealed);
                }
            }
            let failure = (!reproduced).then(|| RunFailure {
                taxonomy: if was_corrupt {
                    FailureKind::CorruptCache
                } else {
                    FailureKind::Nondeterministic
                },
                attempts,
                last_error: "verification replicas produced different trails".to_string(),
            });
            VerifyOutcome {
                id: id.to_string(),
                fingerprint: a.fingerprint(),
                reproduced,
                cached: false,
                attempts,
                healed_corruption: was_corrupt && reproduced,
                failure,
            }
        }
        _ => {
            let f = pair
                .iter()
                .find_map(|o| match o {
                    RunOutcome::Failed(f) => Some(f.clone()),
                    RunOutcome::Ok { .. } => None,
                })
                .expect("a non-Ok pair contains a failure");
            let fingerprint =
                pair.iter().find_map(RunOutcome::record).map(RunRecord::fingerprint).unwrap_or(0);
            let taxonomy = if was_corrupt { FailureKind::CorruptCache } else { f.taxonomy };
            VerifyOutcome {
                id: id.to_string(),
                fingerprint,
                reproduced: false,
                cached: false,
                attempts: f.attempts,
                healed_corruption: false,
                failure: Some(RunFailure { taxonomy, ..f }),
            }
        }
    };
    emit(
        &mut tracer,
        TraceEvent::Verdict {
            reproduced: outcome.reproduced,
            cached: false,
            attempts: outcome.attempts,
            fingerprint: outcome.fingerprint,
            failure: outcome.failure.as_ref().map(|f| f.taxonomy.name()),
        },
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{run_entry_file, CacheBound};
    use crate::experiment::{Experiment, RunContext};
    use crate::fault::FaultKind;
    use std::path::Path;
    use std::time::Duration;

    struct Draws;
    impl Experiment for Draws {
        fn name(&self) -> &str {
            "draws"
        }
        fn run(&self, ctx: &mut RunContext) {
            let n = ctx.int("n", 8) as usize;
            let mut rng = ctx.rng("draws");
            ctx.record("sum", (0..n).map(|_| rng.next_f64()).sum::<f64>());
        }
    }

    fn small_registry() -> ExperimentRegistry {
        let mut reg = ExperimentRegistry::new();
        for (id, n) in [("A", 4), ("B", 12), ("C", 20), ("D", 28)] {
            reg.register(id, "batch", "draws", Params::new().with_int("n", n), Box::new(Draws));
        }
        reg
    }

    #[test]
    fn armed_deadlines_survive_the_task_encoding() {
        let sub_micro = SupervisePolicy::new(0).with_deadline_secs(5e-7);
        assert_eq!(policy_deadline_us(&sub_micro), 1, "a sub-µs deadline must stay armed");
        assert_eq!(policy_deadline_us(&SupervisePolicy::default()), 0, "no deadline encodes as 0");
        let ms = SupervisePolicy::new(0).with_deadline_secs(0.25);
        assert_eq!(policy_deadline_us(&ms), 250_000);
    }

    #[test]
    fn fault_planned_runs_never_touch_the_cache() {
        let reg = small_registry();
        let seed = 5;
        let clean = Executor::new(2).verify_all_supervised_with(
            &reg,
            seed,
            None,
            &SupervisePolicy::default(),
            None,
            |_, d| d,
        );
        let plan = FaultPlan::with_menu(17, 1.0, vec![FaultKind::CorruptTrail]);
        assert!(Path::new("/bin/true").exists(), "test needs /bin/true");
        // /bin/true workers die before ready, so the sharded batch
        // degrades to the coordinator's own execute_task — the path that
        // would store a faulted trail if the cache flag were on.
        let dispatches = [
            Dispatch::InProcess(&Executor::new(2)),
            Dispatch::Sharded(
                SvcConfig::new(2)
                    .with_respawn_budget(0)
                    .with_hang_timeout(Duration::from_millis(150))
                    .with_worker_cmd(vec!["/bin/true".into()]),
            ),
        ];
        for (k, dispatch) in dispatches.into_iter().enumerate() {
            let dir =
                std::env::temp_dir().join(format!("treu-batch-faulted-{}-{k}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cache = RunCache::open(&dir).unwrap();
            let faulted =
                Batch { cache: Some(&cache), plan: Some(&plan), ..Batch::new(Mode::Run, seed) };
            let (outcomes, _) = faulted.execute(&reg, dispatch).unwrap().report.into_run();
            assert!(outcomes.iter().all(|(_, o)| o.is_ok()), "corruption completes the run");
            assert_eq!(cache.stats().stores, 0, "dispatch {k}: a faulted trail was cached");

            let fresh = RunCache::open(&dir).unwrap();
            let verify = Executor::new(2).verify_all_supervised_with(
                &reg,
                seed,
                Some(&fresh),
                &SupervisePolicy::default(),
                None,
                |_, d| d,
            );
            assert_eq!(verify.recomputed, reg.len(), "dispatch {k}: nothing was served cached");
            for (a, b) in verify.outcomes.iter().zip(&clean.outcomes) {
                assert_eq!(a.fingerprint, b.fingerprint, "dispatch {k}: {}", a.id);
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Run-mode cache traffic happens on the coordinator in id order, so a
    /// bounded cache evicts the same entries in the same order at every
    /// `jobs`: the two oldest stores, since every lookup missed first.
    #[test]
    fn bounded_run_cache_evicts_in_id_order_at_every_jobs() {
        let reg = small_registry();
        let seed = 9;
        let expected: Vec<String> = ["A", "B"]
            .iter()
            .map(|id| run_entry_file(id, seed, &reg.get(id).unwrap().defaults))
            .collect();
        for jobs in [1, 4] {
            let dir = std::env::temp_dir()
                .join(format!("treu-batch-bounded-{}-{jobs}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let cache = RunCache::open_bounded(&dir, CacheBound::entries(2)).unwrap();
            let batch = Batch { cache: Some(&cache), ..Batch::new(Mode::Run, seed) };
            batch.execute(&reg, Dispatch::InProcess(&Executor::new(jobs))).unwrap();
            assert_eq!(cache.eviction_log(), expected, "jobs {jobs}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
