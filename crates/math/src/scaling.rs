//! Parallel performance measurement — the paper's reusable lesson module
//! ("one on how to conduct performance measurement of parallel
//! computations", §4) as a library.
//!
//! Three pieces: [`measure_speedup`] runs a workload at increasing thread
//! counts with repetition-minimum timing (the standard defence against
//! scheduler noise); [`fit_amdahl`] fits Amdahl's law
//! `S(t) = 1 / (f + (1-f)/t)` to a measured curve by one-dimensional
//! search over the serial fraction `f`; and [`amdahl_speedup`] evaluates
//! the model for lesson plots.

use std::time::Instant;

/// Amdahl's-law speedup at `threads` for serial fraction `f`.
pub fn amdahl_speedup(f: f64, threads: usize) -> f64 {
    assert!((0.0..=1.0).contains(&f), "serial fraction must be in [0,1]");
    assert!(threads >= 1, "need at least one thread");
    1.0 / (f + (1.0 - f) / threads as f64)
}

/// One measured point of a scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Best-of-repetitions wall time in seconds.
    pub seconds: f64,
    /// Speedup relative to the measured single-thread time.
    pub speedup: f64,
}

/// Measures a workload's speedup curve over the given thread counts.
///
/// `workload(threads)` must perform the same total work regardless of
/// `threads`. Each point is the minimum of `reps` runs — minimum, not
/// mean, because timing noise is strictly additive.
///
/// # Panics
///
/// Panics if `thread_counts` does not start with 1 (the baseline) or
/// `reps == 0`.
pub fn measure_speedup(
    thread_counts: &[usize],
    reps: usize,
    mut workload: impl FnMut(usize),
) -> Vec<ScalingPoint> {
    assert!(thread_counts.first() == Some(&1), "curve must start at 1 thread");
    assert!(reps > 0, "need at least one repetition");
    let mut points = Vec::with_capacity(thread_counts.len());
    let mut t1 = 0.0;
    for &t in thread_counts {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            // treu-lint: allow(wall-clock, reason = "speedup measurement is inherently wall-clock")
            let start = Instant::now();
            workload(t);
            best = best.min(start.elapsed().as_secs_f64());
        }
        if t == 1 {
            t1 = best;
        }
        points.push(ScalingPoint { threads: t, seconds: best, speedup: t1 / best.max(1e-12) });
    }
    points
}

/// Fits the serial fraction `f` of Amdahl's law to a measured curve by
/// golden-section search on the squared error of log-speedups.
///
/// Returns `(f, rmse)`; `f = 0` is perfect scaling, `f = 1` no scaling.
pub fn fit_amdahl(points: &[ScalingPoint]) -> (f64, f64) {
    assert!(!points.is_empty(), "no points to fit");
    let err = |f: f64| -> f64 {
        points
            .iter()
            .map(|p| {
                let model = amdahl_speedup(f, p.threads);
                let d = p.speedup.max(1e-9).ln() - model.ln();
                d * d
            })
            .sum::<f64>()
            / points.len() as f64
    };
    // Golden-section search over f in [0, 1].
    let phi = (5.0f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (0.0f64, 1.0f64);
    let mut c = b - phi * (b - a);
    let mut d = a + phi * (b - a);
    for _ in 0..100 {
        if err(c) < err(d) {
            b = d;
        } else {
            a = c;
        }
        c = b - phi * (b - a);
        d = a + phi * (b - a);
    }
    let f = (a + b) / 2.0;
    (f, err(f).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_endpoints() {
        assert_eq!(amdahl_speedup(1.0, 64), 1.0);
        assert_eq!(amdahl_speedup(0.0, 8), 8.0);
        assert!((amdahl_speedup(0.5, 2) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "serial fraction")]
    fn bad_fraction_panics() {
        amdahl_speedup(1.5, 2);
    }

    #[test]
    fn fit_recovers_known_fraction() {
        for true_f in [0.05, 0.2, 0.5] {
            let points: Vec<ScalingPoint> = [1usize, 2, 4, 8, 16]
                .iter()
                .map(|&t| ScalingPoint {
                    threads: t,
                    seconds: 1.0 / amdahl_speedup(true_f, t),
                    speedup: amdahl_speedup(true_f, t),
                })
                .collect();
            let (f, rmse) = fit_amdahl(&points);
            assert!((f - true_f).abs() < 0.01, "f {f} vs true {true_f}");
            assert!(rmse < 1e-6);
        }
    }

    #[test]
    fn measure_speedup_runs_and_baselines() {
        // A workload whose runtime genuinely falls with threads: parallel
        // map via this crate's own par_map.
        let points = measure_speedup(&[1, 2], 3, |t| {
            let s: u64 = crate::parallel::par_map(200_000, t, |i| i as u64).iter().sum();
            assert!(s > 0);
        });
        assert_eq!(points.len(), 2);
        assert!((points[0].speedup - 1.0).abs() < 1e-9, "baseline speedup is 1");
        assert!(points.iter().all(|p| p.seconds > 0.0));
    }

    #[test]
    #[should_panic(expected = "start at 1 thread")]
    fn missing_baseline_panics() {
        measure_speedup(&[2, 4], 1, |_| {});
    }

    #[test]
    fn fit_handles_noisy_curves() {
        // Perturb a true curve by ±5%; the fit should stay close.
        let noise = [1.03, 0.97, 1.04, 0.96];
        let points: Vec<ScalingPoint> = [1usize, 2, 4, 8]
            .iter()
            .zip(noise.iter())
            .map(|(&t, &n)| {
                let s = amdahl_speedup(0.1, t) * n;
                ScalingPoint { threads: t, seconds: 1.0 / s, speedup: s }
            })
            .collect();
        let (f, _) = fit_amdahl(&points);
        assert!((f - 0.1).abs() < 0.06, "f {f}");
    }
}
