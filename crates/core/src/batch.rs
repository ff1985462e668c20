//! The one batch pipeline: every registry-wide (or single-id) `run` and
//! `verify`, in-process or sharded, goes through [`Batch::execute`].
//!
//! A batch runs in three phases:
//!
//! 1. **The coordinator builds tasks.** Verify looks up the cache here
//!    and ships two replica [`TaskSpec`]s per miss, neither touching the
//!    cache. Run ships one task per id whose cache flag is on only when no
//!    [`FaultPlan`] is armed — a faulted trail must never be stored as the
//!    experiment's record, and this is the one place that rule lives.
//! 2. **Dispatch.** [`Dispatch::InProcess`] maps [`execute_task`] over the
//!    tasks with [`Executor::map_indexed_stats`]; [`Dispatch::Sharded`]
//!    hands them to [`WorkerPool::run_tasks`], whose workers (and degraded
//!    fallback) call the same function. Both return outputs in index
//!    order, so the topology decides only *who* calls `execute_task`.
//! 3. **The coordinator merges.** Verify cross-checks each id's two
//!    replicas; run takes each output as that id's outcome. Task events
//!    are absorbed in index order into one [`BatchTrace`], so results and
//!    trace addresses are identical at every `(jobs, workers, kills)`.
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

        // Phase 1: tasks.
        let task =
            |index: usize, (id, params): &(String, Params), replica: u32, cache: bool| TaskSpec {
                index,
                id: id.clone(),
                seed: self.seed,
                replica,
                params: params.clone(),
                retries: self.policy.retries,
                deadline_us: policy_deadline_us(&self.policy),
                cache,
            };
        let run_cache = self.mode == Mode::Run && self.plan.is_none() && self.cache.is_some();
        let looked: Vec<Lookup> = match (self.mode, self.cache) {
            (Mode::Verify, Some(c)) => ids
                .iter()
                .zip(traces.iter_mut())
                .map(|((id, p), rt)| {
                    let found = c.lookup_classified(id, self.seed, p);
                    if tracing {
                        let at = start.elapsed().as_secs_f64();
                        rt.push(TraceEvent::Cache { result: cache_result(&found) }, at);
                    }
                    found
                })
                .collect(),
            _ => ids.iter().map(|_| Lookup::Miss).collect(),
        };
        let tasks: Vec<TaskSpec> = match self.mode {
            Mode::Run => ids.iter().enumerate().map(|(i, e)| task(i, e, 0, run_cache)).collect(),
            // Both replicas of a missed id are independent tasks;
            // replica = k % 2 keeps the Claim numbering.
            Mode::Verify => ids
                .iter()
                .zip(&looked)
                .filter(|(_, l)| !matches!(l, Lookup::Hit(_)))
                .flat_map(|(e, _)| [e, e])
                .enumerate()
                .map(|(k, e)| task(k, e, (k % 2) as u32, false))
                .collect(),
        };

        // Phase 2: dispatch.
        let (outputs, sched, svc) = match dispatch {
            Dispatch::InProcess(exec) => {
                let (plan, cache) = (self.plan, self.cache);
                let (outputs, sched) = exec.map_indexed_stats(tasks.len(), |i| {
                    execute_task(reg, &tasks[i], plan, cache, tracing, start)
                });
                (outputs, sched, None)
            }
            Dispatch::Sharded(mut cfg) => {
                let shared = self.cache.filter(|_| run_cache);
                if let Some(c) = shared {
                    cfg.cache_dir = Some(c.dir().to_path_buf());
                }
                let pool = WorkerPool::new(cfg);
                let (outputs, stats) =
                    pool.run_tasks(reg, tasks, self.plan, self.cache, self.seed)?;
                if let Some(c) = shared {
                    let _ = c.merge_stats_sidecars();
                }
                (outputs, SchedStats::default(), Some(stats))
            }
        };

        // Phase 3: merge.
        let report = match self.mode {
            Mode::Run => {
                let mut outcomes = Vec::with_capacity(ids.len());
                let mut cached = 0;
                for (((id, _), out), rt) in ids.into_iter().zip(outputs).zip(traces.iter_mut()) {
                    cached += usize::from(out.cached);
                    outcomes.push((id, absorb(rt, out)));
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
                let recomputed = outputs.len() / 2;
                let mut fresh = outputs.into_iter();
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
                            cross_check(id, self.seed, p, &pair, self.cache, was_corrupt, tracer)
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
                    if c.store(id, seed, params, a).is_ok() {
                        emit(&mut tracer, TraceEvent::CacheStored);
                    }
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
        for (id, n) in [("A", 4), ("B", 12), ("C", 20)] {
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
}
