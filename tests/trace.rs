//! Trace conformance suite (ISSUE 5's tentpole, satellite e): the
//! deterministic span stream recorded by the executor.
//!
//! Two properties anchor the layer:
//!
//! 1. **Schedule independence** — the rendered event stream (and hence
//!    the trace's content address) is bitwise-identical at every jobs
//!    count, for plain batches, supervised batches, and supervised
//!    verification; only the non-hashed timing sidecar may differ.
//! 2. **Faithful spans** — a faulted run's trace records the injected
//!    fault, the deterministic backoff, and the retry attempt in order,
//!    and the counters folded from the stream agree with the report.

use treu::core::batch::{Batch, Dispatch, Mode};
use treu::core::exec::{ExecReport, Executor, SupervisePolicy};
use treu::core::experiment::{Experiment, Params, RunContext, RunRecord};
use treu::core::fault::FaultPlan;
use treu::core::trace::{check_trace_file, parse_times, parse_trace, TraceEvent};
use treu::core::ExperimentRegistry;

/// Silences the per-panic stderr trace for *injected* panics only.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("injected fault") {
                default(info);
            }
        }));
    });
}

/// A cheap seeded experiment so the sweep stays fast.
struct Synthetic(&'static str);

impl Experiment for Synthetic {
    fn name(&self) -> &str {
        self.0
    }

    fn run(&self, ctx: &mut RunContext) {
        let n = ctx.int("n", 16).unsigned_abs() as usize;
        let mut rng = ctx.rng("draws");
        let sum: f64 = (0..n.max(1)).map(|_| rng.next_f64()).sum();
        ctx.record("sum", sum);
    }
}

/// A registry-wide run batch in-process: `(id, record)` pairs plus the
/// batch report.
fn run_all(
    exec: &Executor,
    reg: &ExperimentRegistry,
    seed: u64,
) -> (Vec<(String, RunRecord)>, ExecReport) {
    let batch = Batch::new(Mode::Run, seed);
    let (outcomes, report) =
        batch.execute(reg, Dispatch::InProcess(exec)).expect("in-process").report.into_run();
    let records = outcomes.into_iter().map(|(id, o)| (id, o.record().expect("runs").clone()));
    (records.collect(), report)
}

fn synthetic_registry() -> ExperimentRegistry {
    let mut reg = ExperimentRegistry::new();
    for (id, n) in [("S1", 8), ("S2", 16), ("S3", 24), ("S4", 4), ("S5", 12)] {
        reg.register(
            id,
            "trace",
            "synthetic",
            Params::new().with_int("n", n),
            Box::new(Synthetic(id)),
        );
    }
    reg
}

/// Plain batches: the event stream and its content address are the same
/// at every jobs count (the sidecar is free to differ).
#[test]
fn plain_batch_trace_is_schedule_independent() {
    let reg = synthetic_registry();
    let (_, base) = run_all(&Executor::sequential(), &reg, 42);
    assert!(base.counters.events > 0, "tracing is on by default");
    for jobs in [2usize, 4, 7] {
        let (_, report) = run_all(&Executor::new(jobs), &reg, 42);
        assert_eq!(
            base.trace.render_events(),
            report.trace.render_events(),
            "event stream changed at jobs={jobs}"
        );
        assert_eq!(base.trace.content_hash(), report.trace.content_hash());
        assert_eq!(base.counters, report.counters);
    }
}

/// Supervised verification under transient chaos: same fault plan ⇒ the
/// same spans in the same order, regardless of the worker count.
#[test]
fn supervised_verify_trace_is_schedule_independent_under_chaos() {
    quiet_injected_panics();
    let reg = synthetic_registry();
    let plan = FaultPlan::transient(7, 0.3);
    let policy = SupervisePolicy::new(plan.max_transient_attempts());
    let base = Executor::sequential().verify_all_supervised_with(
        &reg,
        11,
        None,
        &policy,
        Some(&plan),
        |_, d| d,
    );
    assert!(base.all_reproduced(), "{:?}", base.violations());
    for jobs in [2usize, 4] {
        let report = Executor::new(jobs).verify_all_supervised_with(
            &reg,
            11,
            None,
            &policy,
            Some(&plan),
            |_, d| d,
        );
        assert_eq!(
            base.trace.render_events(),
            report.trace.render_events(),
            "verify event stream changed at jobs={jobs}"
        );
        assert_eq!(base.trace.content_hash(), report.trace.content_hash());
    }
}

/// The acceptance criterion: for every registered experiment (at the
/// fast conformance parameters), the unfaulted verification trace is
/// bitwise-identical at `--jobs 1` and `--jobs 4`.
#[test]
fn full_registry_verify_trace_is_bitwise_identical_across_jobs() {
    let reg = treu::full_registry();
    let policy = SupervisePolicy::new(0);
    let one =
        Executor::new(1).verify_all_supervised_with(&reg, 2023, None, &policy, None, |id, _| {
            treu::conformance_params(id)
        });
    let four =
        Executor::new(4).verify_all_supervised_with(&reg, 2023, None, &policy, None, |id, _| {
            treu::conformance_params(id)
        });
    assert!(one.all_reproduced(), "{:?}", one.violations());
    assert_eq!(one.trace.runs.len(), reg.len(), "one trace per experiment");
    assert_eq!(
        one.trace.render_events(),
        four.trace.render_events(),
        "jobs count leaked into the hashed stream"
    );
    assert_eq!(one.trace.content_hash(), four.trace.content_hash());
    // The sidecar is where the schedules are allowed to differ.
    assert_eq!(one.trace.jobs, 1);
    assert_eq!(four.trace.jobs, 4);
}

/// A rate-1.0 transient plan forces a fault on every first attempt: the
/// trace must show fault → failed attempt → backoff → retry, in order,
/// for every run.
#[test]
fn faulted_runs_record_fault_backoff_and_retry_spans_in_order() {
    quiet_injected_panics();
    let reg = synthetic_registry();
    let plan = FaultPlan::transient(3, 1.0);
    let policy = SupervisePolicy::new(plan.max_transient_attempts());
    let report =
        Executor::new(2).verify_all_supervised_with(&reg, 9, None, &policy, Some(&plan), |_, d| d);
    assert!(report.all_reproduced());
    assert!(report.counters.faults_injected > 0, "rate 1.0 must inject");
    assert_eq!(report.counters.faults_injected, report.counters.backoffs);
    for run in &report.trace.runs {
        let names: Vec<&str> = run.events().iter().map(|(_, ev, _)| ev.name()).collect();
        let fault = names.iter().position(|n| *n == "fault");
        let backoff = names.iter().position(|n| *n == "backoff");
        assert!(fault.is_some(), "{}: no fault span in {names:?}", run.id);
        assert!(backoff.is_some(), "{}: no backoff span in {names:?}", run.id);
        assert!(fault < backoff, "{}: fault must precede the backoff", run.id);
        let retried = run.events().iter().any(
            |(_, ev, _)| matches!(ev, TraceEvent::AttemptStart { attempt, .. } if *attempt >= 1),
        );
        assert!(retried, "{}: no retry attempt recorded", run.id);
    }
}

/// Counters folded from the stream agree with the report's own tallies —
/// they are the same data, so they can never drift apart.
#[test]
fn counters_agree_with_outcomes() {
    quiet_injected_panics();
    let reg = synthetic_registry();
    let plan = FaultPlan::transient(5, 0.4);
    let policy = SupervisePolicy::new(0); // underbudgeted: some quarantines
    let report =
        Executor::new(2).verify_all_supervised_with(&reg, 13, None, &policy, Some(&plan), |_, d| d);
    let c = report.trace.counters();
    assert_eq!(c, report.counters, "report counters are folded from the trace");
    assert_eq!(c.verdicts as usize, report.outcomes.len());
    assert_eq!(c.reproduced as usize, report.outcomes.iter().filter(|o| o.reproduced).count());
    assert_eq!(c.quarantined as usize, 2 * report.quarantined().len(), "two replicas per id");
    assert_eq!(c.claims, 2 * reg.len() as u64);
}

/// Disk round-trip: write under a temp dir, re-verify the content
/// address, parse both files back, and match the sidecar's offsets to
/// the stream's (run, seq) pairs.
#[test]
fn written_traces_round_trip_and_self_verify() {
    let reg = synthetic_registry();
    let (_, report) = run_all(&Executor::new(2), &reg, 17);
    let dir = std::env::temp_dir().join(format!("treu-trace-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = report.trace.write(&dir).expect("write trace");
    let hash = check_trace_file(&path).expect("stored trace verifies");
    assert_eq!(hash, report.trace.content_hash());
    let tf = parse_trace(&std::fs::read_to_string(&path).expect("readable")).expect("parses");
    assert_eq!(tf.kind, "run");
    assert_eq!(tf.runs.len(), reg.len());
    let sidecar = dir.join(report.trace.times_file_name());
    // The sidecar parses only when it carries one offset per event of the
    // stream, in stream order.
    let times = parse_times(tf, &std::fs::read_to_string(sidecar).expect("sidecar written"))
        .expect("parses");
    assert_eq!(times.jobs, 2);
    assert_eq!(times.render_times(), report.trace.render_times());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Tracing can be switched off: the batch still runs identically, the
/// report just carries an empty stream (exec_bench uses this to price
/// the overhead).
#[test]
fn tracing_off_produces_identical_results_and_empty_stream() {
    let reg = synthetic_registry();
    let (on_recs, on) = run_all(&Executor::new(2), &reg, 23);
    let (off_recs, off) = run_all(&Executor::new(2).with_tracing(false), &reg, 23);
    assert_eq!(on_recs.len(), off_recs.len());
    for ((ia, ra), (ib, rb)) in on_recs.iter().zip(off_recs.iter()) {
        assert_eq!(ia, ib);
        assert_eq!(ra.fingerprint(), rb.fingerprint(), "tracing changed a result");
    }
    assert!(on.counters.events > 0);
    assert_eq!(off.counters.events, 0, "tracing off leaves an empty stream");
}
