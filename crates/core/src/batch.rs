//! The one batch pipeline: every `run` and `verify`, in-process or
//! sharded, goes through [`Batch::execute`]. A batch is the whole
//! registry at one seed, one id (`treu run E3`), or any list of
//! `(id, seed)` runs (one `treu soak` dispatch round).
//!
//! A batch runs in three phases:
//!
//! 1. **The coordinator looks up and builds tasks.** It looks up every run
//!    in the run cache, then ships [`TaskSpec`]s for the misses only: one
//!    per run for run, two replicas for verify. A run batch under a
//!    [`FaultPlan`] that is not [`FaultPlan::is_transient_only`] skips the
//!    cache — a panicked, corrupted or targeted trail must never be stored
//!    as the experiment's record, and this is the one place that rule
//!    lives. A transient-only plan (the soak's epoch plans) caches: a run
//!    it lets succeed is the fault-free run, bit for bit.
//! 2. **Dispatch.** [`Dispatch::InProcess`] maps [`execute_task`] over the
//!    tasks with [`Executor::map_indexed_stats`]; [`Dispatch::Sharded`]
//!    hands them to [`WorkerPool::run_tasks`], whose workers (and degraded
//!    fallback) call the same function. Both return outputs in index
//!    order, so the topology decides only *who* calls `execute_task`.
//!    No task carries a cache: workers never open one.
//! 3. **The coordinator merges and stores.** Verify cross-checks each
//!    run's two replicas and stores a reproduced pair; run takes each
//!    output as that run's outcome, stores a successful one, and reports
//!    per run whether the cache served it. Task events are absorbed in
//!    index order into one [`BatchTrace`], so results and trace addresses
//!    are identical at every `(jobs, workers, kills)`.
//!
//! Every cache operation happens on the coordinator's thread, in request
//! order, through this module's `lookup` and `store`, which also emit the
//! `Cache` and `CacheStored` trace events. So one handle counts the whole
//! batch at every topology, and a bounded cache evicts the same entries
//! in the same order at every `jobs`. No other code looks up or stores a
//! run (`execute_task`'s own cache branch calls the same two), so this
//! module is the run cache's only client.
//!
//! "Plain" execution is the default [`SupervisePolicy`] with no plan:
//! one `catch_unwind` per attempt, no watchdog thread (it is spawned only
//! when a deadline is armed), so no unsupervised path is kept.

use std::io;
use std::time::Instant;

use crate::cache::{Lookup, RunCache};
use crate::exec::{
    cache_result, emit, DenyPolicy, Executor, FailureKind, RunFailure, RunOutcome, RunReport,
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
    /// Seed of every run when `runs` is `None`; the batch's trace and
    /// attestation link carry it either way.
    pub seed: u64,
    /// `(id, seed)` runs in output order; `None` is the whole registry in
    /// id order at `seed`.
    pub runs: Option<Vec<(String, u64)>>,
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
    /// Per-run outcomes in request order.
    Run(RunReport),
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
/// silently disarming the watchdog, and one past `u64::MAX` µs saturates
/// rather than wrapping to a short one.
fn policy_deadline_us(policy: &SupervisePolicy) -> u64 {
    policy.deadline.map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1))
}

impl<'a> Batch<'a> {
    /// A request over the whole registry at registry defaults: no cache,
    /// no retries, no deadline, no fault plan.
    pub fn new(mode: Mode, seed: u64) -> Self {
        Batch {
            mode,
            seed,
            runs: None,
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
        let runs: Vec<(String, u64, Params)> = match &self.runs {
            Some(runs) => runs
                .iter()
                .map(|(id, seed)| {
                    let defaults = reg.get(id).map(|e| e.defaults.clone()).unwrap_or_default();
                    (id.clone(), *seed, (self.params)(id, defaults))
                })
                .collect(),
            None => reg
                .iter()
                .map(|(id, e)| (id.to_string(), self.seed, (self.params)(id, e.defaults.clone())))
                .collect(),
        };
        let mut traces: Vec<RunTrace> =
            runs.iter().map(|(id, seed, _)| RunTrace::new(id, *seed)).collect();

        // Phase 1: look up, then ship tasks for the misses. A run batch
        // under a plan that can make a run fail for good or corrupt its
        // trail never touches the cache (see the module doc).
        let cache = self.cache.filter(|_| {
            self.mode == Mode::Verify || self.plan.is_none_or(FaultPlan::is_transient_only)
        });
        let looked: Vec<Lookup> = runs
            .iter()
            .zip(traces.iter_mut())
            .map(|((id, seed, p), rt)| match cache {
                Some(c) => lookup(c, id, *seed, p, &mut tracing.then_some((rt, start))),
                None => Lookup::Miss,
            })
            .collect();
        let replicas = match self.mode {
            Mode::Run => 1,
            Mode::Verify => 2,
        };
        // A verify miss's two replicas are independent tasks; replica =
        // k % 2 keeps the Claim numbering.
        let tasks: Vec<TaskSpec> = runs
            .iter()
            .zip(&looked)
            .filter(|(_, l)| !matches!(l, Lookup::Hit(_)))
            .flat_map(|(e, _)| std::iter::repeat_n(e, replicas))
            .enumerate()
            .map(|(k, (id, seed, params))| TaskSpec {
                index: k,
                id: id.clone(),
                seed: *seed,
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
                let mut outcomes = Vec::with_capacity(runs.len());
                let mut cached = Vec::with_capacity(runs.len());
                for (((id, seed, p), found), rt) in runs.into_iter().zip(looked).zip(&mut traces) {
                    let (outcome, hit) = match found {
                        Lookup::Hit(record) => (RunOutcome::Ok { record, attempts: 1 }, true),
                        _ => {
                            let out = absorb(rt, fresh.next().expect("one task per miss"));
                            if let (Some(c), Some(record)) = (cache, out.record()) {
                                let tracer = &mut tracing.then_some((rt, start));
                                store(c, &id, seed, &p, record, tracer);
                            }
                            (out, false)
                        }
                    };
                    outcomes.push((id, outcome));
                    cached.push(hit);
                }
                let wall = start.elapsed().as_secs_f64();
                BatchReport::Run(RunReport {
                    jobs,
                    outcomes,
                    cached,
                    wall_seconds: wall,
                    trace: batch_trace("run", self.seed, traces, jobs, wall, &sched),
                })
            }
            Mode::Verify => {
                let recomputed = fresh.len() / 2;
                let mut outcomes = Vec::with_capacity(runs.len());
                for (((id, seed, p), found), rt) in runs.iter().zip(looked).zip(&mut traces) {
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
                            cross_check(id, *seed, p, &pair, cache, was_corrupt, tracer)
                        }
                    });
                }
                let wall = start.elapsed().as_secs_f64();
                BatchReport::Verify(VerifyReport {
                    jobs,
                    outcomes,
                    wall_seconds: wall,
                    recomputed,
                    trace: batch_trace("verify", self.seed, traces, jobs, wall, &sched),
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
            BatchReport::Run(r) => &r.trace,
            BatchReport::Verify(r) => &r.trace,
        }
    }

    /// True when this report should flip the exit code under `policy`
    /// ([`RunReport::exceeds`], [`VerifyReport::exceeds`]).
    pub fn exceeds(&self, policy: DenyPolicy) -> bool {
        match self {
            BatchReport::Run(r) => r.exceeds(policy),
            BatchReport::Verify(r) => r.exceeds(policy),
        }
    }

    /// The verify report; panics on a run batch.
    pub fn into_verify(self) -> VerifyReport {
        match self {
            BatchReport::Verify(r) => r,
            BatchReport::Run(_) => panic!("a run batch has no verify report"),
        }
    }

    /// The run report; panics on a verify batch.
    pub fn into_run(self) -> RunReport {
        match self {
            BatchReport::Run(r) => r,
            BatchReport::Verify(_) => panic!("a verify batch has no run report"),
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
        let past_u64 = SupervisePolicy::new(0).with_deadline_secs(18_446_744_073_709.555);
        assert_eq!(policy_deadline_us(&past_u64), u64::MAX, "a huge deadline must not wrap");
        for unholdable in [f64::NAN, f64::INFINITY, 1e20] {
            let p = SupervisePolicy::new(0).with_deadline_secs(unholdable);
            assert_eq!(policy_deadline_us(&p), 0, "{unholdable} s is no deadline");
        }
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
            let outcomes = faulted.execute(&reg, dispatch).unwrap().report.into_run().outcomes;
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

    fn fresh_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("treu-batch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A transient-only plan retried to success yields the fault-free
    /// runs, so a run batch under one caches them like a fault-free batch.
    #[test]
    fn transient_only_runs_are_cached_with_fault_free_bits() {
        let reg = small_registry();
        let seed = 3;
        let exec = Executor::new(2);
        let clean = Batch::new(Mode::Run, seed);
        let clean = clean.execute(&reg, Dispatch::InProcess(&exec)).unwrap().report.into_run();
        let dir = fresh_dir("transient");
        let cache = RunCache::open(&dir).unwrap();
        let plan = FaultPlan::transient(23, 1.0);
        let chaotic = Batch {
            cache: Some(&cache),
            plan: Some(&plan),
            policy: SupervisePolicy::new(plan.max_transient_attempts()),
            ..Batch::new(Mode::Run, seed)
        };
        let outcomes =
            chaotic.execute(&reg, Dispatch::InProcess(&exec)).unwrap().report.into_run().outcomes;
        assert!(outcomes.iter().all(|(_, o)| o.attempts() > 1), "rate 1.0 faults every run");
        assert_eq!(cache.stats().stores, reg.len() as u64, "every converged run is stored");
        for ((id, a), (_, b)) in outcomes.iter().zip(&clean.outcomes) {
            let fingerprint = |o: &RunOutcome| o.record().map(RunRecord::fingerprint);
            assert_eq!(fingerprint(a), fingerprint(b), "{id}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Listed runs come back in request order, a repeated run included,
    /// and a warm rerun flags every one as served by the cache.
    #[test]
    fn listed_runs_keep_request_order_and_flag_cache_hits() {
        let reg = small_registry();
        let dir = fresh_dir("listed");
        let cache = RunCache::open(&dir).unwrap();
        let runs = vec![("A".to_string(), 1), ("B".to_string(), 2), ("A".to_string(), 1)];
        let batch = Batch { runs: Some(runs), cache: Some(&cache), ..Batch::new(Mode::Run, 0) };
        for warm in [false, true] {
            let out = batch.execute(&reg, Dispatch::InProcess(&Executor::new(2))).unwrap();
            let RunReport { outcomes, cached, .. } = out.report.into_run();
            let records: Vec<&RunRecord> =
                outcomes.iter().map(|(_, o)| o.record().unwrap()).collect();
            let got: Vec<(&str, u64)> =
                outcomes.iter().zip(&records).map(|((id, _), r)| (id.as_str(), r.seed)).collect();
            assert_eq!(got, [("A", 1), ("B", 2), ("A", 1)], "warm {warm}");
            assert_eq!(records[0].trail, records[2].trail, "warm {warm}");
            assert_eq!(cached, [warm; 3], "warm {warm}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store that cannot land is counted; the run it would have cached
    /// still completes.
    #[test]
    fn a_failed_store_is_counted_and_the_batch_completes() {
        let reg = small_registry();
        let seed = 4;
        let dir = fresh_dir("squatted");
        let cache = RunCache::open(&dir).unwrap();
        // A directory where B's entry belongs: the lookup misses and the
        // store's rename onto it fails.
        let entry = run_entry_file("B", seed, &reg.get("B").unwrap().defaults);
        std::fs::create_dir(dir.join(entry)).unwrap();
        let batch = Batch { cache: Some(&cache), ..Batch::new(Mode::Run, seed) };
        let out = batch.execute(&reg, Dispatch::InProcess(&Executor::new(2))).unwrap();
        let outcomes = out.report.into_run().outcomes;
        assert!(outcomes.iter().all(|(_, o)| o.is_ok()), "every run completes");
        let s = cache.stats();
        assert_eq!((s.stores, s.failed_stores), (reg.len() as u64 - 1, 1), "{s:?}");
        assert!(cache.render_stats().contains("; 1 failed store(s)"), "{}", cache.render_stats());
        std::fs::remove_dir_all(&dir).unwrap();
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
