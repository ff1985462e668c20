//! The discrete-event GPU-pool simulator.
//!
//! Besides the fault-free queueing model, [`Cluster::simulate_faulty`]
//! layers a seeded node-failure/preemption model on top: each job draws
//! its failure count from a per-job RNG stream (so the chaos is exactly
//! reproducible for a seed, the same discipline the core fault plan
//! follows), and a [`RecoveryPolicy`] decides how much GPU time each
//! failure burns before the job completes.

use crate::trace::Job;
use treu_math::rng::{derive_seed, SplitMix64};
use treu_math::stats;

/// Scheduling discipline for the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Strict FIFO: the head of the queue blocks everyone behind it.
    Fifo,
    /// FIFO with backfill: any queued job that fits the currently free
    /// GPUs may start, in queue order (the slurm-like behaviour CHPC runs).
    Backfill,
}

impl Scheduler {
    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Fifo => "fifo",
            Scheduler::Backfill => "backfill",
        }
    }
}

/// Simulation outcome metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Mean queue wait (hours).
    pub mean_wait: f64,
    /// 95th-percentile queue wait.
    pub p95_wait: f64,
    /// Fraction of jobs waiting longer than the stuck threshold.
    pub stuck_fraction: f64,
    /// Makespan: last finish time.
    pub makespan: f64,
    /// GPU utilization over the makespan.
    pub utilization: f64,
    /// Per-job waits, job-id order.
    pub waits: Vec<f64>,
}

/// A GPU pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cluster {
    /// Number of identical GPUs.
    pub gpus: usize,
    /// Wait threshold (hours) past which a student counts as "stuck".
    pub stuck_threshold: f64,
}

impl Default for Cluster {
    fn default() -> Self {
        Self { gpus: 8, stuck_threshold: 4.0 }
    }
}

impl Cluster {
    /// Runs the trace to completion under a scheduler and returns metrics.
    ///
    /// # Panics
    ///
    /// Panics if any job demands more GPUs than the cluster has.
    pub fn simulate(&self, jobs: &[Job], scheduler: Scheduler) -> Metrics {
        assert!(jobs.iter().all(|j| j.gpus <= self.gpus), "job exceeds cluster size");
        // Sort by submit time, stable by id.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .submit
                .partial_cmp(&jobs[b].submit)
                .expect("NaN submit")
                .then(jobs[a].id.cmp(&jobs[b].id))
        });

        let mut queue: Vec<usize> = Vec::new(); // indices into jobs, FIFO order
        let mut running: Vec<(f64, usize)> = Vec::new(); // (end_time, job idx)
        let mut free = self.gpus;
        let mut now = 0.0f64;
        let mut next_arrival = 0usize;
        let mut starts = vec![f64::NAN; jobs.len()];
        let mut busy_gpu_hours = 0.0;

        loop {
            // Start whatever the discipline allows.
            let mut i = 0;
            while i < queue.len() {
                let idx = queue[i];
                if jobs[idx].gpus <= free {
                    free -= jobs[idx].gpus;
                    starts[idx] = now;
                    busy_gpu_hours += jobs[idx].gpus as f64 * jobs[idx].duration;
                    running.push((now + jobs[idx].duration, idx));
                    queue.remove(i);
                    // FIFO stops scanning past a blocked head; backfill
                    // keeps scanning.
                } else if scheduler == Scheduler::Fifo {
                    break;
                } else {
                    i += 1;
                }
            }

            // Advance to the next event.
            let next_end = running.iter().map(|&(t, _)| t).fold(f64::INFINITY, f64::min);
            let next_sub = if next_arrival < order.len() {
                jobs[order[next_arrival]].submit
            } else {
                f64::INFINITY
            };
            if next_end.is_infinite() && next_sub.is_infinite() {
                break;
            }
            if next_sub <= next_end {
                now = now.max(next_sub);
                queue.push(order[next_arrival]);
                next_arrival += 1;
            } else {
                now = next_end;
                running.retain(|&(t, idx)| {
                    if t <= now {
                        free += jobs[idx].gpus;
                        false
                    } else {
                        true
                    }
                });
            }
        }

        let waits: Vec<f64> =
            jobs.iter().enumerate().map(|(i, j)| (starts[i] - j.submit).max(0.0)).collect();
        let makespan =
            jobs.iter().enumerate().map(|(i, j)| starts[i] + j.duration).fold(0.0f64, f64::max);
        Metrics {
            mean_wait: stats::mean(&waits),
            p95_wait: stats::quantile(&waits, 0.95),
            stuck_fraction: waits.iter().filter(|&&w| w > self.stuck_threshold).count() as f64
                / waits.len().max(1) as f64,
            makespan,
            utilization: if makespan > 0.0 {
                busy_gpu_hours / (self.gpus as f64 * makespan)
            } else {
                0.0
            },
            waits,
        }
    }
}

/// Seeded node-failure / job-preemption model.
///
/// Failures are drawn per job from `SplitMix64(derive_seed(seed,
/// "job{id}"))`: the probability a given attempt fails is
/// `1 - exp(-duration / mtbf)` (exponential failure law over the job's
/// exposure window), and attempts repeat until one survives (capped at
/// [`FailureModel::MAX_FAILURES`] so a pathological trace still
/// terminates). The draw depends only on `(seed, job id, duration)` —
/// never on schedule order — so the same trace fails the same way under
/// every scheduler and recovery policy, which is what makes the A/B
/// comparison fair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Mean time between failures a single job experiences (hours).
    pub mtbf: f64,
    /// Fixed restage/requeue overhead each failure costs (hours).
    pub restart_cost: f64,
    /// Seed for the failure draws.
    pub seed: u64,
}

impl FailureModel {
    /// Failure-count cap per job: keeps the inflated trace finite even
    /// when `mtbf` is tiny relative to job durations.
    pub const MAX_FAILURES: usize = 4;

    /// Number of failures job `id` with `duration` suffers under this
    /// model — deterministic per `(seed, id)`.
    pub fn failures_for(&self, id: usize, duration: f64) -> usize {
        let mut rng = SplitMix64::new(derive_seed(self.seed, &format!("job{id}")));
        let p = 1.0 - (-duration / self.mtbf.max(1e-9)).exp();
        let mut k = 0;
        while k < Self::MAX_FAILURES && rng.next_f64() < p {
            k += 1;
        }
        k
    }

    /// The same per-job RNG stream, positioned after the failure draws —
    /// recovery-cost draws come from here so they never perturb `k`.
    fn recovery_rng(&self, id: usize, failures: usize) -> SplitMix64 {
        let mut rng = SplitMix64::new(derive_seed(self.seed, &format!("job{id}")));
        for _ in 0..=failures.min(Self::MAX_FAILURES) {
            rng.next_f64();
        }
        rng
    }
}

/// What a failed job loses before it can continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// No checkpoints: every failure throws away a uniform-random
    /// fraction of the work done so far, plus the restart cost.
    Restage,
    /// Checkpoint/restart: a failure costs only the fixed restart
    /// overhead; completed work survives.
    Checkpoint,
}

impl RecoveryPolicy {
    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::Restage => "restage",
            RecoveryPolicy::Checkpoint => "checkpoint",
        }
    }
}

/// [`Metrics`] plus the failure accounting of a faulty run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMetrics {
    /// Queueing metrics of the inflated (failure-burdened) trace.
    pub metrics: Metrics,
    /// Total failures injected across the trace.
    pub failures: usize,
    /// GPU-hours burnt on rework and restart overhead (not on results).
    pub wasted_gpu_hours: f64,
}

impl Cluster {
    /// [`Cluster::simulate`] under a seeded [`FailureModel`]: each job's
    /// duration is inflated by what its failures cost under `recovery`,
    /// then the trace runs through the ordinary discrete-event queue.
    ///
    /// # Panics
    ///
    /// Panics if any job demands more GPUs than the cluster has.
    pub fn simulate_faulty(
        &self,
        jobs: &[Job],
        scheduler: Scheduler,
        fm: &FailureModel,
        recovery: RecoveryPolicy,
    ) -> FaultMetrics {
        self.simulate_faulty_traced(jobs, scheduler, fm, recovery).0
    }

    /// [`Cluster::simulate_faulty`] plus a per-job event trace: every
    /// job's failure draws and recovery cost land in a
    /// `treu_core::trace::BatchTrace` of kind `cluster-sim`, so the
    /// simulated chaos is as inspectable as the harness's real runs.
    /// Simulated time has no wall clock, so every event's timestamp is
    /// the job's recovery overhead itself (hours) — the sidecar doubles
    /// as a per-job cost profile — and the hashed stream is a pure
    /// function of `(jobs, failure model, recovery policy)`.
    pub fn simulate_faulty_traced(
        &self,
        jobs: &[Job],
        scheduler: Scheduler,
        fm: &FailureModel,
        recovery: RecoveryPolicy,
    ) -> (FaultMetrics, treu_core::trace::BatchTrace) {
        let mut failures = 0usize;
        let mut wasted_gpu_hours = 0.0f64;
        let mut trace = treu_core::trace::BatchTrace::empty("cluster-sim", fm.seed);
        let burdened: Vec<Job> = jobs
            .iter()
            .map(|j| {
                let k = fm.failures_for(j.id, j.duration);
                failures += k;
                let mut rng = fm.recovery_rng(j.id, k);
                let overhead: f64 = match recovery {
                    RecoveryPolicy::Checkpoint => k as f64 * fm.restart_cost,
                    RecoveryPolicy::Restage => {
                        (0..k).map(|_| rng.next_f64() * j.duration + fm.restart_cost).sum()
                    }
                };
                wasted_gpu_hours += overhead * j.gpus as f64;
                let mut rt = treu_core::trace::RunTrace::new(&format!("job{}", j.id), fm.seed);
                rt.push(treu_core::trace::TraceEvent::SimFailures { failures: k }, overhead);
                rt.push(
                    treu_core::trace::TraceEvent::SimRecovery {
                        policy: recovery.name(),
                        overhead_millihours: (overhead * 1000.0).round() as u64,
                    },
                    overhead,
                );
                trace.runs.push(rt);
                Job { duration: j.duration + overhead, ..j.clone() }
            })
            .collect();
        let metrics = self.simulate(&burdened, scheduler);
        (FaultMetrics { metrics, failures, wasted_gpu_hours }, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: usize, submit: f64, duration: f64, gpus: usize) -> Job {
        Job { id, submit, duration, gpus }
    }

    #[test]
    fn uncontended_jobs_never_wait() {
        let c = Cluster { gpus: 4, stuck_threshold: 1.0 };
        let jobs = vec![job(0, 0.0, 2.0, 1), job(1, 0.0, 2.0, 1), job(2, 0.0, 2.0, 2)];
        let m = c.simulate(&jobs, Scheduler::Fifo);
        assert_eq!(m.mean_wait, 0.0);
        assert_eq!(m.stuck_fraction, 0.0);
        assert_eq!(m.makespan, 2.0);
        assert!((m.utilization - 8.0 / (4.0 * 2.0)).abs() < 1e-12);
    }

    #[test]
    fn contended_fifo_serializes() {
        let c = Cluster { gpus: 1, stuck_threshold: 0.5 };
        let jobs = vec![job(0, 0.0, 1.0, 1), job(1, 0.0, 1.0, 1), job(2, 0.0, 1.0, 1)];
        let m = c.simulate(&jobs, Scheduler::Fifo);
        assert_eq!(m.waits, vec![0.0, 1.0, 2.0]);
        assert_eq!(m.makespan, 3.0);
        assert!((m.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backfill_lets_small_jobs_through() {
        // Head job wants the whole cluster and must wait for job 0; a
        // 1-GPU job behind it can backfill on the free GPU.
        let c = Cluster { gpus: 2, stuck_threshold: 10.0 };
        let jobs = vec![
            job(0, 0.0, 4.0, 1), // runs immediately, one GPU busy
            job(1, 0.1, 4.0, 2), // blocked until t=4
            job(2, 0.2, 1.0, 1), // backfill candidate
        ];
        let fifo = c.simulate(&jobs, Scheduler::Fifo);
        let back = c.simulate(&jobs, Scheduler::Backfill);
        assert!(fifo.waits[2] > 3.0, "fifo blocks the small job: {:?}", fifo.waits);
        assert!(back.waits[2] < 0.5, "backfill frees the small job: {:?}", back.waits);
        // The big job is not starved in this scenario.
        assert_eq!(back.waits[1], fifo.waits[1]);
    }

    #[test]
    fn late_submitters_get_stuck_in_a_rush() {
        // The §3 anecdote: the huge job launches fine; slightly-late small
        // jobs are stuck behind it.
        let c = Cluster { gpus: 4, stuck_threshold: 2.0 };
        let mut jobs = vec![job(0, 0.0, 10.0, 4)];
        for i in 1..5 {
            jobs.push(job(i, 0.1, 1.0, 1));
        }
        let m = c.simulate(&jobs, Scheduler::Fifo);
        assert_eq!(m.waits[0], 0.0, "early big job is fine");
        assert!(m.stuck_fraction >= 0.8, "late jobs stuck: {:?}", m.waits);
    }

    #[test]
    #[should_panic(expected = "exceeds cluster size")]
    fn oversized_job_panics() {
        let c = Cluster { gpus: 2, stuck_threshold: 1.0 };
        c.simulate(&[job(0, 0.0, 1.0, 3)], Scheduler::Fifo);
    }

    #[test]
    fn empty_trace_is_trivial() {
        let c = Cluster::default();
        let m = c.simulate(&[], Scheduler::Backfill);
        assert_eq!(m.makespan, 0.0);
        assert_eq!(m.utilization, 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let mut rng = treu_math::rng::SplitMix64::new(5);
        let jobs =
            crate::trace::cohort_trace(40, crate::trace::SubmissionPolicy::Clustered, &mut rng);
        let c = Cluster::default();
        let a = c.simulate(&jobs, Scheduler::Backfill);
        let b = c.simulate(&jobs, Scheduler::Backfill);
        assert_eq!(a, b);
    }

    fn rush(n: usize, seed: u64) -> Vec<Job> {
        let mut rng = treu_math::rng::SplitMix64::new(seed);
        crate::trace::cohort_trace(n, crate::trace::SubmissionPolicy::Clustered, &mut rng)
    }

    #[test]
    fn faulty_simulation_is_deterministic_and_seed_sensitive() {
        let jobs = rush(30, 5);
        let c = Cluster::default();
        let fm = FailureModel { mtbf: 6.0, restart_cost: 0.5, seed: 9 };
        let a = c.simulate_faulty(&jobs, Scheduler::Backfill, &fm, RecoveryPolicy::Restage);
        let b = c.simulate_faulty(&jobs, Scheduler::Backfill, &fm, RecoveryPolicy::Restage);
        assert_eq!(a, b, "same seed, same chaos, same metrics");
        let other = FailureModel { seed: 10, ..fm };
        let d = c.simulate_faulty(&jobs, Scheduler::Backfill, &other, RecoveryPolicy::Restage);
        assert_ne!(a.failures, d.failures, "different seeds draw different failures");
    }

    #[test]
    fn failure_draws_are_schedule_and_policy_independent() {
        let jobs = rush(30, 6);
        let c = Cluster::default();
        let fm = FailureModel { mtbf: 6.0, restart_cost: 0.5, seed: 3 };
        let fifo = c.simulate_faulty(&jobs, Scheduler::Fifo, &fm, RecoveryPolicy::Restage);
        let back = c.simulate_faulty(&jobs, Scheduler::Backfill, &fm, RecoveryPolicy::Checkpoint);
        assert_eq!(fifo.failures, back.failures, "failure count keys on (seed, job) only");
    }

    #[test]
    fn checkpointing_wastes_less_than_restaging() {
        let jobs = rush(40, 7);
        let c = Cluster::default();
        let fm = FailureModel { mtbf: 4.0, restart_cost: 0.25, seed: 11 };
        let restage = c.simulate_faulty(&jobs, Scheduler::Backfill, &fm, RecoveryPolicy::Restage);
        let ckpt = c.simulate_faulty(&jobs, Scheduler::Backfill, &fm, RecoveryPolicy::Checkpoint);
        assert!(restage.failures > 0, "an mtbf of 4h over multi-hour jobs must fail someone");
        assert!(
            ckpt.wasted_gpu_hours < restage.wasted_gpu_hours,
            "checkpoint {:.2} GPU-h vs restage {:.2} GPU-h",
            ckpt.wasted_gpu_hours,
            restage.wasted_gpu_hours
        );
        assert!(ckpt.metrics.makespan <= restage.metrics.makespan + 1e-9);
    }

    #[test]
    fn infinite_reliability_recovers_the_fault_free_metrics() {
        let jobs = rush(25, 8);
        let c = Cluster::default();
        let fm = FailureModel { mtbf: 1e12, restart_cost: 0.5, seed: 2 };
        let faulty = c.simulate_faulty(&jobs, Scheduler::Backfill, &fm, RecoveryPolicy::Restage);
        let clean = c.simulate(&jobs, Scheduler::Backfill);
        assert_eq!(faulty.failures, 0);
        assert_eq!(faulty.wasted_gpu_hours, 0.0);
        assert_eq!(faulty.metrics, clean, "no failures ⇒ bitwise the fault-free simulation");
    }

    #[test]
    fn failure_count_is_capped() {
        let fm = FailureModel { mtbf: 1e-6, restart_cost: 0.1, seed: 1 };
        assert_eq!(fm.failures_for(0, 100.0), FailureModel::MAX_FAILURES);
    }

    #[test]
    fn traced_simulation_matches_untraced_and_hashes_deterministically() {
        let jobs = rush(20, 5);
        let c = Cluster::default();
        let fm = FailureModel { mtbf: 4.0, restart_cost: 0.25, seed: 11 };
        let plain = c.simulate_faulty(&jobs, Scheduler::Backfill, &fm, RecoveryPolicy::Restage);
        let (traced, trace) =
            c.simulate_faulty_traced(&jobs, Scheduler::Backfill, &fm, RecoveryPolicy::Restage);
        assert_eq!(plain, traced, "tracing must never perturb the simulation");
        assert_eq!(trace.runs.len(), jobs.len(), "one run trace per job");
        let counters = trace.counters();
        assert_eq!(counters.events, 2 * jobs.len() as u64);
        // The trace's failure events sum to the metric's failure count —
        // the report-equals-trace property, simulator edition.
        let parsed = treu_core::trace::parse_trace(&trace.render_events()).unwrap();
        let traced_failures: usize = parsed
            .runs
            .iter()
            .flat_map(|r| r.events())
            .filter_map(|(_, e, _)| match e {
                treu_core::TraceEvent::SimFailures { failures } => Some(*failures),
                _ => None,
            })
            .sum();
        assert_eq!(traced_failures, traced.failures);
        // Same inputs ⇒ same content address; different seed ⇒ different.
        let (_, again) =
            c.simulate_faulty_traced(&jobs, Scheduler::Backfill, &fm, RecoveryPolicy::Restage);
        assert_eq!(trace.content_hash(), again.content_hash());
        let other = FailureModel { seed: 12, ..fm };
        let (_, moved) =
            c.simulate_faulty_traced(&jobs, Scheduler::Backfill, &other, RecoveryPolicy::Restage);
        assert_ne!(trace.content_hash(), moved.content_hash());
    }
}
