//! Bench: the deterministic parallel executor. Sequential and parallel
//! registry batches must produce identical fingerprints — checked before
//! any timing — and the parallel runs should demonstrate a speedup on
//! multi-core hosts, reported per job count so the scaling curve is
//! visible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use treu_bench::workload;
use treu_core::batch::{Batch, Dispatch, Mode};
use treu_core::exec::Executor;
use treu_core::experiment::{Experiment, Params, RunContext};
use treu_core::sweep::Axis;
use treu_core::ExperimentRegistry;
use treu_math::parallel::{default_threads, par_map, par_map_dynamic};
use treu_robust::contamination::{ContaminatedSample, Contamination};
use treu_robust::estimators;

/// A compute-bound stand-in: robust mean estimation on one contaminated
/// sample. Each run costs milliseconds, so worker fan-out has real work
/// to amortize its overhead against.
struct RobustTrial;

impl Experiment for RobustTrial {
    fn name(&self) -> &str {
        "bench/robust-trial"
    }

    fn run(&self, ctx: &mut RunContext) {
        let n = ctx.int("n", 300) as usize;
        let d = ctx.int("d", 24) as usize;
        let mut rng = ctx.rng("sample");
        let s = ContaminatedSample::generate(n, d, 0.1, Contamination::SubtleShift, &mut rng);
        let gm = estimators::geometric_median(&s.data, 1e-8, 120);
        ctx.record("geomedian_err", s.error(&gm));
        ctx.record("mean_err", s.error(&estimators::sample_mean(&s.data)));
    }
}

fn registry() -> ExperimentRegistry {
    let mut reg = ExperimentRegistry::new();
    for i in 0..8i64 {
        reg.register(
            &format!("X{i}"),
            "bench",
            "robust trial",
            Params::new().with_int("n", 260 + 20 * i).with_int("d", 16 + 2 * i),
            Box::new(RobustTrial),
        );
    }
    reg
}

fn bench(c: &mut Criterion) {
    let reg = registry();
    let hw = default_threads();

    // The guarantee before the speed: job count must not change results.
    let run_all = |exec: &Executor| {
        let batch = Batch::new(Mode::Run, 7);
        batch.execute(&reg, Dispatch::InProcess(exec)).expect("in-process").report.into_run().0
    };
    let seq = run_all(&Executor::sequential());
    let par = run_all(&Executor::new(hw));
    assert!(
        seq.iter()
            .zip(&par)
            .all(|(a, b)| a.0 == b.0
                && a.1.record().map(|r| &r.trail) == b.1.record().map(|r| &r.trail)),
        "parallel registry batch diverged from sequential"
    );
    println!("executor: {} registry ids, fingerprints identical at 1 and {hw} job(s)\n", seq.len());

    let mut g = c.benchmark_group("executor/run_all");
    for jobs in [1, 2, hw] {
        g.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &j| {
            let exec = Executor::new(j);
            b.iter(|| black_box(run_all(&exec)))
        });
    }
    g.finish();

    let axes = [Axis::ints("n", &[240, 280, 320, 360]), Axis::ints("d", &[16, 24, 32])];
    let mut g = c.benchmark_group("executor/sweep_12pt");
    for jobs in [1, hw] {
        g.bench_with_input(BenchmarkId::from_parameter(jobs), &jobs, |b, &j| {
            let exec = Executor::new(j);
            b.iter(|| black_box(exec.sweep(&RobustTrial, &Params::new(), &axes, 3)))
        });
    }
    g.finish();

    // Static bands vs the self-scheduling queue on the skewed (Zipf-ish)
    // sleep-cost workload. Sleeps make the scheduling difference visible
    // on any core count; outputs must match bitwise either way.
    let (n_tasks, scale_us, jobs) = (64, 1500, hw.max(4));
    let s = par_map(n_tasks, jobs, |i| workload::run_task(i, scale_us));
    let d = par_map_dynamic(n_tasks, jobs, |i| workload::run_task(i, scale_us));
    assert_eq!(s, d, "static and dynamic schedules diverged on the skewed workload");
    let mut g = c.benchmark_group("executor/skewed_sched");
    g.bench_function("static", |b| {
        b.iter(|| black_box(par_map(n_tasks, jobs, |i| workload::run_task(i, scale_us))))
    });
    g.bench_function("dynamic", |b| {
        b.iter(|| black_box(par_map_dynamic(n_tasks, jobs, |i| workload::run_task(i, scale_us))))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .without_plots();
    targets = bench
}
criterion_main!(benches);
