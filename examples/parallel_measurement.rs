//! The HPC lesson module (§4, footnote 1): "how to conduct performance
//! measurement of parallel computations" — measure a real parallel
//! matmul's speedup curve (the §2.5 `parallelize` schedule primitive over
//! row bands), fit Amdahl's law to it, then measure and fit a multi-seed
//! experiment batch through the deterministic executor the same way.
//!
//! Run with: `cargo run --release --example parallel_measurement`

use treu::autotune::executor::{execute, Backend};
use treu::autotune::{Kernel, Schedule};
use treu::core::exec::Executor;
use treu::core::experiment::{Experiment, Params, RunContext};
use treu_math::rng::SplitMix64;
use treu_math::scaling::{amdahl_speedup, fit_amdahl, measure_speedup, ScalingPoint};
use treu_math::Matrix;

/// One seeded unit of the batch workload: a Gaussian matmul whose trace is
/// recorded as the (deterministic) result metric.
struct MatmulTrial;

impl Experiment for MatmulTrial {
    fn name(&self) -> &str {
        "hpc/matmul-trial"
    }

    fn run(&self, ctx: &mut RunContext) {
        let n = ctx.int("n", 160) as usize;
        let mut rng = ctx.rng("entries");
        let a = Matrix::from_fn(n, n, |_, _| rng.next_gaussian());
        let b = Matrix::from_fn(n, n, |_, _| rng.next_gaussian());
        let c = a.matmul(&b);
        ctx.record("frobenius", c.frobenius_norm());
    }
}

/// Prints a measured curve and its Amdahl fit; returns the fitted serial
/// fraction.
fn report_curve(unit: &str, points: &[ScalingPoint]) -> f64 {
    println!("{unit:>8} {:>12} {:>9}", "seconds", "speedup");
    for p in points {
        println!("{:>8} {:>12.5} {:>8.2}x", p.threads, p.seconds, p.speedup);
    }
    let (f, rmse) = fit_amdahl(points);
    println!("\nAmdahl fit: serial fraction f = {f:.3} (rmse {rmse:.3})");
    f
}

fn main() {
    let mut rng = SplitMix64::new(1);
    let n = 384;
    let kernel = Kernel::MatMul { m: n, k: n, n };
    let mut w = kernel.workload(&mut rng);

    // Sweep past the hardware parallelism on purpose: seeing the curve go
    // flat (or negative) at oversubscription is part of the lesson.
    let hw = treu_math::parallel::default_threads();
    let counts: Vec<usize> = vec![1, 2, 4, 8];
    println!(
        "Measuring {n}x{n} matmul over {counts:?} threads (best of 3; {hw} hardware thread(s))\n"
    );
    let points = measure_speedup(&counts, 3, |t| {
        let schedule = Schedule { threads: t, ..Schedule::reference() };
        execute(&kernel, schedule, Backend::AxpyLowering, &mut w);
        assert!(w.c.iter().all(|v| v.is_finite()));
    });

    let f = report_curve("threads", &points);
    println!(
        "Projected speedup at 64 threads under this fit: {:.1}x (perfect would be 64x)",
        amdahl_speedup(f, 64)
    );
    // The same lesson at the harness level: a batch of seeded experiment
    // runs through the deterministic executor, timed and fitted the same
    // way, with every job count's records checked against one job's.
    let seeds: Vec<u64> = (0..8).collect();
    let params = Params::new().with_int("n", 160);
    let baseline = Executor::sequential().run_seeds(&MatmulTrial, &seeds, &params);
    let mut identical = true;
    let batch = measure_speedup(&counts, 3, |jobs| {
        let records = Executor::new(jobs).run_seeds(&MatmulTrial, &seeds, &params);
        identical &= records.iter().zip(&baseline).all(|(a, b)| a.trail == b.trail);
    });
    println!("\nExecutor batch: {} seeded matmul trials per job count", seeds.len());
    report_curve("jobs", &batch);
    println!("Results bitwise-identical at every job count: {identical}");
    assert!(identical, "job count must never change results");

    println!("\nLesson: report the measurement protocol (reps, minimum-of), the");
    println!("baseline, and the fitted scaling model — not just one wall-clock number.");
}
