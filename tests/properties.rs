//! Property-based tests (proptest) on the workspace's core invariants:
//! linear algebra, statistics, RNG derivation, provenance fingerprints,
//! executor determinism, Likert calibration, schedule correctness, and the
//! cluster simulator.

use proptest::prelude::*;
use treu::core::exec::Executor;
use treu::core::experiment::{run_seeds, Experiment, Params, RunContext};
use treu::core::sweep::{sweep, Axis};
use treu::core::Trail;
use treu_math::rng::SplitMix64;
use treu_math::{stats, vector, Matrix};

/// A cheap randomized experiment for executor properties: a handful of
/// seeded draws folded through the run's parameters.
struct Synthetic;

impl Experiment for Synthetic {
    fn name(&self) -> &str {
        "prop/synthetic"
    }

    fn run(&self, ctx: &mut RunContext) {
        let n = ctx.int("n", 8).unsigned_abs() as usize;
        let scale = ctx.float("scale", 1.0);
        let mut rng = ctx.rng("draws");
        let sum: f64 = (0..n.max(1)).map(|_| rng.next_f64()).sum();
        ctx.record("scaled_sum", sum * scale);
        ctx.record("n_echo", n as f64);
    }
}

/// The job counts the acceptance criteria call out: 1, 2, the hardware
/// thread count, and strictly more jobs than work items.
fn job_counts() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2usize),
        Just(treu_math::parallel::default_threads()),
        13usize..48,
    ]
}

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-100.0..100.0f64, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// One trail event, for the render/parse round-trip property.
#[derive(Debug, Clone)]
enum TrailEvent {
    Param(String, String),
    Rng(String, u64),
    Metric(String, f64),
    Note(String),
}

/// Adversarial text for trail keys, values, tags and notes: arbitrary
/// unicode plus the exact shapes that used to make the grammar
/// injectable — embedded ` = `, ` <- `, newlines that mimic whole
/// forged lines, dangling backslashes, and leading whitespace.
fn adversarial_text() -> impl Strategy<Value = String> {
    prop_oneof![
        ".{0,12}",
        Just(String::new()),
        Just("k = v".to_string()),
        Just("metric forged = 42".to_string()),
        Just("a\nrng b <- 0x2a".to_string()),
        Just("note first\nnote second".to_string()),
        Just("trailing\\".to_string()),
        Just("  leading spaces".to_string()),
        Just("tab\tand\rcarriage".to_string()),
        Just("0x0x2a".to_string()),
        (".{0,6}", ".{0,6}").prop_map(|(a, b)| format!("{a}\n{b}")),
    ]
}

/// Metric values including every non-finite and sign-tricky case.
fn adversarial_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
        Just(0.0f64),
        Just(f64::MIN_POSITIVE),
    ]
}

fn trail_event() -> impl Strategy<Value = TrailEvent> {
    prop_oneof![
        (adversarial_text(), adversarial_text()).prop_map(|(k, v)| TrailEvent::Param(k, v)),
        (adversarial_text(), any::<u64>()).prop_map(|(t, s)| TrailEvent::Rng(t, s)),
        (adversarial_text(), adversarial_f64()).prop_map(|(n, v)| TrailEvent::Metric(n, v)),
        adversarial_text().prop_map(TrailEvent::Note),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- linear algebra -------------------------------------------------

    #[test]
    fn matmul_distributes_over_addition(a in small_matrix(4, 5), b in small_matrix(5, 3), c in small_matrix(5, 3)) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-6);
    }

    #[test]
    fn transpose_reverses_matmul(a in small_matrix(4, 6), b in small_matrix(6, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    // The band-parallel matmul left in the workspace is the §2.5
    // `parallelize` schedule primitive of the autotune executor.
    #[test]
    fn parallel_matmul_equals_sequential(a in small_matrix(7, 9), b in small_matrix(9, 5), threads in 1usize..6) {
        use treu::autotune::executor::{execute, Backend};
        use treu::autotune::kernels::Workload;
        use treu::autotune::{Kernel, Schedule};
        let kern = Kernel::MatMul { m: 7, k: 9, n: 5 };
        let mut seq = Workload { a: a.as_slice().to_vec(), b: b.as_slice().to_vec(), c: vec![0.0; 35] };
        let mut par = seq.clone();
        for backend in Backend::all() {
            execute(&kern, Schedule::reference(), backend, &mut seq);
            execute(&kern, Schedule { threads, ..Schedule::reference() }, backend, &mut par);
            prop_assert_eq!(&seq.c, &par.c);
        }
    }

    #[test]
    fn dot_is_bilinear(x in proptest::collection::vec(-10.0..10.0f64, 8),
                       y in proptest::collection::vec(-10.0..10.0f64, 8),
                       alpha in -5.0..5.0f64) {
        let scaled: Vec<f64> = x.iter().map(|v| v * alpha).collect();
        prop_assert!((vector::dot(&scaled, &y) - alpha * vector::dot(&x, &y)).abs() < 1e-7);
    }

    #[test]
    fn softmax_is_a_distribution(x in proptest::collection::vec(-50.0..50.0f64, 1..12)) {
        let p = vector::softmax(&x);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn svd_reconstructs(a in small_matrix(5, 4)) {
        let d = treu_math::decomp::svd(&a, 1e-14, 80);
        let recon = treu_math::decomp::reconstruct(&d);
        prop_assert!(recon.max_abs_diff(&a) < 1e-6);
        prop_assert!(d.sigma.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    // --- statistics ------------------------------------------------------

    #[test]
    fn quantile_brackets_data(x in proptest::collection::vec(-100.0..100.0f64, 1..40), q in 0.0..1.0f64) {
        let v = stats::quantile(&x, q);
        let (lo, hi) = stats::min_max(&x).unwrap();
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn variance_is_translation_invariant(x in proptest::collection::vec(-100.0..100.0f64, 2..30), shift in -50.0..50.0f64) {
        let shifted: Vec<f64> = x.iter().map(|v| v + shift).collect();
        prop_assert!((stats::variance(&x) - stats::variance(&shifted)).abs() < 1e-6);
    }

    #[test]
    fn welford_matches_batch_stats(x in proptest::collection::vec(-100.0..100.0f64, 2..50)) {
        let mut w = stats::Welford::new();
        for &v in &x {
            w.add(v);
        }
        prop_assert!((w.mean() - stats::mean(&x)).abs() < 1e-8);
        prop_assert!((w.variance() - stats::variance(&x)).abs() < 1e-6);
    }

    #[test]
    fn pca_gram_path_matches_covariance_path(data in small_matrix(5, 9)) {
        // d > n triggers the Gram trick; compare against the covariance
        // path on the transposed problem scale (same eigenvalues).
        let pca = treu_math::pca::Pca::fit(&data, 4);
        let cov = stats::covariance_matrix(&data);
        let eig = treu_math::decomp::symmetric_eigen(&cov, 1e-12, 200);
        for (a, b) in pca.explained_variance.iter().zip(eig.values.iter()) {
            prop_assert!((a - b.max(0.0)).abs() < 1e-6, "eigenvalue mismatch: {} vs {}", a, b);
        }
    }

    // --- rng ---------------------------------------------------------------

    #[test]
    fn derive_seed_is_pure_and_tag_sensitive(parent in any::<u64>(), tag in "[a-z]{1,12}") {
        let a = treu_math::rng::derive_seed(parent, &tag);
        prop_assert_eq!(a, treu_math::rng::derive_seed(parent, &tag));
        prop_assert_ne!(a, treu_math::rng::derive_seed(parent, &format!("{tag}x")));
    }

    #[test]
    fn bounded_draws_stay_in_range(seed in any::<u64>(), bound in 1u64..1000) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.next_bounded(bound) < bound);
        }
    }

    #[test]
    fn permutation_is_bijective(seed in any::<u64>(), n in 1usize..60) {
        let mut rng = SplitMix64::new(seed);
        let mut p = treu_math::rng::permutation(&mut rng, n);
        p.sort_unstable();
        prop_assert_eq!(p, (0..n).collect::<Vec<_>>());
    }

    // --- provenance ---------------------------------------------------------

    #[test]
    fn trail_fingerprint_is_injective_on_metric_values(name in "[a-z]{1,8}", v1 in any::<f64>(), v2 in any::<f64>()) {
        prop_assume!(v1.to_bits() != v2.to_bits());
        let mut a = Trail::new();
        a.metric(&name, v1);
        let mut b = Trail::new();
        b.metric(&name, v2);
        prop_assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn trail_parse_inverts_render_on_adversarial_content(
        events in proptest::collection::vec(trail_event(), 0..12)
    ) {
        let mut t = Trail::new();
        for e in &events {
            match e {
                TrailEvent::Param(k, v) => t.param(k, v),
                TrailEvent::Rng(tag, seed) => t.rng_stream(tag, *seed),
                TrailEvent::Metric(n, v) => t.metric(n, *v),
                TrailEvent::Note(text) => t.note(text.clone()),
            }
        }
        let rendered = t.render();
        let parsed = Trail::parse(&rendered);
        prop_assert!(parsed.is_some(), "render must always parse:\n{}", rendered);
        let parsed = parsed.unwrap();
        // Bitwise identity: re-render equality plus fingerprint equality
        // covers every event byte-for-byte (including NaN payload bits,
        // which `PartialEq` on f64 cannot see).
        prop_assert_eq!(parsed.render(), rendered.clone(), "parse∘render must be the identity");
        prop_assert_eq!(parsed.fingerprint(), t.fingerprint());
        prop_assert_eq!(parsed.events().len(), t.events().len());
    }

    #[test]
    fn trail_fingerprint_is_stable_under_clone(kvs in proptest::collection::vec(("[a-z]{1,6}", -1e6..1e6f64), 0..10)) {
        let mut t = Trail::new();
        for (k, v) in &kvs {
            t.param(k, v);
            t.metric(k, *v);
        }
        prop_assert_eq!(t.clone().fingerprint(), t.fingerprint());
    }

    // --- executor -----------------------------------------------------------

    #[test]
    fn executor_run_seeds_matches_sequential(
        seeds in proptest::collection::vec(any::<u64>(), 0..12),
        n in 1i64..40,
        jobs in job_counts(),
    ) {
        let params = Params::new().with_int("n", n);
        let seq = run_seeds(&Synthetic, &seeds, &params);
        let par = Executor::new(jobs).run_seeds(&Synthetic, &seeds, &params);
        prop_assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            prop_assert_eq!(a.seed, b.seed);
            prop_assert_eq!(a.fingerprint(), b.fingerprint(), "jobs={}", jobs);
            prop_assert_eq!(&a.trail, &b.trail);
        }
    }

    #[test]
    fn executor_sweep_matches_sequential(
        seed in any::<u64>(),
        n_vals in proptest::collection::vec(1i64..50, 1..4),
        scale_vals in proptest::collection::vec(0.25..4.0f64, 1..4),
        jobs in job_counts(),
    ) {
        let axes = [Axis::ints("n", &n_vals), Axis::floats("scale", &scale_vals)];
        let seq = sweep(&Synthetic, &Params::new(), &axes, seed);
        let par = Executor::new(jobs).sweep(&Synthetic, &Params::new(), &axes, seed);
        prop_assert_eq!(seq.len(), n_vals.len() * scale_vals.len());
        prop_assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            prop_assert_eq!(&a.assignment, &b.assignment, "grid order must be canonical");
            prop_assert_eq!(&a.record.trail, &b.record.trail, "jobs={}", jobs);
        }
    }

    #[test]
    fn executor_map_preserves_index_order(n in 0usize..200, jobs in 1usize..32) {
        let v = Executor::new(jobs).map_indexed(n, |i| i);
        prop_assert_eq!(v, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_dynamic_equals_sequential_for_any_schedule(
        n in 0usize..300,
        jobs in 1usize..48,
        chunk in 1usize..64,
    ) {
        // The tentpole invariant: the self-scheduling queue may claim
        // chunks in any order, but the merged output must be bitwise
        // what a sequential loop produces — for every (n, jobs, chunk).
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ n as u64;
        let seq: Vec<u64> = (0..n).map(f).collect();
        let (dynamic, sched) =
            treu_math::parallel::par_map_dynamic_stats(n, jobs, chunk, f);
        prop_assert_eq!(dynamic, seq);
        // Load accounting covers exactly the work done, however it was
        // distributed.
        prop_assert_eq!(sched.items.iter().sum::<usize>(), n);
        prop_assert!(sched.workers >= 1 && sched.workers <= jobs.max(1));
    }

    #[test]
    fn executor_verify_accepts_deterministic_runs(seed in any::<u64>(), jobs in job_counts()) {
        // Two concurrent re-executions of one seed agree bitwise with each
        // other and with the sequential run.
        let params = Params::new().with_int("n", 6);
        let pair = Executor::new(jobs).run_seeds(&Synthetic, &[seed, seed], &params);
        prop_assert_eq!(&pair[0].trail, &pair[1].trail);
        prop_assert_eq!(pair[0].fingerprint(), run_seeds(&Synthetic, &[seed], &params)[0].fingerprint());
    }

    // --- surveys ------------------------------------------------------------

    #[test]
    fn likert_sampler_hits_target_total(seed in any::<u64>(), n in 1usize..40, target in 1.0..5.0f64) {
        let mut rng = SplitMix64::new(seed);
        let xs = treu::surveys::likert::sample_with_mean(&mut rng, n, target);
        prop_assert_eq!(xs.len(), n);
        prop_assert!(xs.iter().all(|&x| (1..=5).contains(&x)));
        let want = (target * n as f64).round();
        prop_assert_eq!(xs.iter().sum::<i64>() as f64, want);
    }

    // --- autotune ------------------------------------------------------------

    #[test]
    fn random_schedules_always_execute_correctly(seed in any::<u64>()) {
        use treu::autotune::executor::{verify, Backend};
        use treu::autotune::{Kernel, Schedule};
        let mut rng = SplitMix64::new(seed);
        let sched = Schedule::random(&mut rng);
        let kern = Kernel::MatMul { m: 13, k: 9, n: 11 };
        for backend in Backend::all() {
            prop_assert!(verify(&kern, sched, backend, seed ^ 1) < 1e-9);
        }
    }

    // --- cluster ------------------------------------------------------------

    #[test]
    fn cluster_sim_conserves_work(seed in any::<u64>(), n_jobs in 1usize..25) {
        use treu::cluster::sim::Scheduler;
        use treu::cluster::trace::{cohort_trace, SubmissionPolicy};
        use treu::cluster::Cluster;
        let mut rng = SplitMix64::new(seed);
        let jobs = cohort_trace(n_jobs, SubmissionPolicy::Clustered, &mut rng);
        let c = Cluster::default();
        for sched in [Scheduler::Fifo, Scheduler::Backfill] {
            let m = c.simulate(&jobs, sched);
            // Every job started at or after submission and before makespan.
            prop_assert_eq!(m.waits.len(), jobs.len());
            prop_assert!(m.waits.iter().all(|&w| w >= 0.0 && w.is_finite()));
            // Utilization is a fraction; makespan bounds the longest job.
            prop_assert!((0.0..=1.0 + 1e-9).contains(&m.utilization));
            let longest = jobs.iter().map(|j| j.duration).fold(0.0f64, f64::max);
            prop_assert!(m.makespan >= longest - 1e-9);
        }
    }
}
