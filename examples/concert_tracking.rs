//! Concert event-location demo (§2.2): track a drifting performance with
//! the schedule-aware particle filter, comparing weighting kernels and the
//! typical-filter baseline.
//!
//! Run with: `cargo run --release --example concert_tracking`

use std::hint::black_box;
use std::time::Instant;
use treu::pf::experiment::{run_baseline, run_tracking, Workload};
use treu::pf::WeightFn;

/// Nanoseconds per [`WeightFn::eval`]: the minimum, over 200 rounds, of the
/// mean over 10^4 evaluations spread across [-5, 5) at bandwidth 1.5. The
/// minimum, because timing noise only ever adds.
fn ns_per_eval(kernel: WeightFn) -> f64 {
    const EVALS: usize = 10_000;
    let kernel = black_box(kernel);
    (0..200)
        .map(|_| {
            // treu-lint: allow(wall-clock, reason = "table prints advisory per-evaluation time")
            let start = Instant::now();
            let mut acc = 0.0;
            for i in 0..EVALS {
                acc += kernel.eval(black_box(i as f64 * 1e-3 - 5.0), 1.5);
            }
            black_box(acc);
            start.elapsed().as_secs_f64() * 1e9 / EVALS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let workload = Workload::default();
    println!(
        "Concert: {} events, spacing {}s, performance runs {:.0}% fast\n",
        workload.k_events,
        workload.spacing,
        (workload.rate0 - 1.0) * 100.0
    );

    println!("== Weighting kernels (schedule-aware filter, 256 particles) ==");
    println!(
        "{:<12} {:>8} {:>10} {:>14} {:>12} {:>10}",
        "kernel", "rmse", "final err", "kernel evals", "wall (ms)", "eval (ns)"
    );
    for kernel in WeightFn::all() {
        let mut rmse = 0.0;
        let mut final_err = 0.0;
        let mut evals = 0;
        // treu-lint: allow(wall-clock, reason = "table prints advisory per-kernel wall time")
        let start = Instant::now();
        let trials = 10;
        for seed in 0..trials {
            let r = run_tracking(workload, kernel, 256, seed);
            rmse += r.rmse / trials as f64;
            final_err += r.final_error / trials as f64;
            evals = r.kernel_evals;
        }
        let ms = start.elapsed().as_secs_f64() * 1000.0 / trials as f64;
        println!(
            "{:<12} {:>8.3} {:>10.3} {:>14} {:>12.2} {:>10.2}",
            kernel.name(),
            rmse,
            final_err,
            evals,
            ms,
            ns_per_eval(kernel)
        );
    }

    println!("\n== Schedule-aware vs typical filter ==");
    println!("{:<10} {:>14} {:>14}", "tempo", "ours (rmse)", "typical (rmse)");
    for (label, rate0) in [("on-tempo", 1.0), ("+8% fast", 1.08), ("+15% fast", 1.15)] {
        let w = Workload { rate0, ..workload };
        let trials = 10;
        let (mut ours, mut base) = (0.0, 0.0);
        for seed in 0..trials {
            ours += run_tracking(w, WeightFn::Gaussian, 256, seed).rmse / trials as f64;
            base += run_baseline(w, 256, seed).rmse / trials as f64;
        }
        println!("{label:<10} {ours:>14.3} {base:>14.3}");
    }
    println!("\nThe fast (triangular) kernel needs no transcendental math per particle");
    println!("and is almost as accurate as the Gaussian — the §2.2 result.");
}
