//! Chaos conformance suite: the supervised executor under deterministic
//! fault injection (ISSUE 4's tentpole, satellites c and d).
//!
//! Two properties anchor the failure model:
//!
//! 1. **Transient convergence** — for any transient-only fault plan with
//!    rate ≤ 0.3 and a retry budget covering the plan's worst transient,
//!    supervised verification produces trail fingerprints bitwise-
//!    identical to the fault-free pass, at every job count. Chaos may
//!    cost attempts, never results.
//! 2. **Quarantine, not abort** — a permanently-failing experiment is
//!    quarantined with its taxonomy while every other id still verifies.

// The vendored proptest shim expands multi-parameter strategies deeply.
#![recursion_limit = "256"]

use proptest::prelude::*;
use treu::core::cache::{CacheBound, RunCache};
use treu::core::exec::{DenyPolicy, Executor, FailureKind, SupervisePolicy};
use treu::core::experiment::{Experiment, Params, RunContext};
use treu::core::fault::FaultPlan;
use treu::core::ExperimentRegistry;

/// Silences the per-panic stderr trace for *injected* panics only —
/// they are part of the experiment here, and a 0.3-rate sweep would
/// otherwise bury real failures in noise. Genuine panics still print.
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
            if !msg.starts_with("injected fault") && !msg.contains("hardware gremlin") {
                default(info);
            }
        }));
    });
}

/// A cheap seeded experiment so the property sweep stays fast; the
/// supervisor under test is the same one the real registry runs through.
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

fn synthetic_registry() -> ExperimentRegistry {
    let mut reg = ExperimentRegistry::new();
    for (id, n) in [("S1", 8), ("S2", 16), ("S3", 24), ("S4", 4), ("S5", 12)] {
        reg.register(
            id,
            "prop",
            "synthetic",
            Params::new().with_int("n", n),
            Box::new(Synthetic(id)),
        );
    }
    reg
}

/// Body of the transient-convergence property (plain asserts; kept out
/// of the macro so the property reads as ordinary code).
fn check_transient_convergence(fault_seed: u64, rate: f64, run_seed: u64) {
    quiet_injected_panics();
    let reg = synthetic_registry();
    let plan = FaultPlan::transient(fault_seed, rate);
    let policy = SupervisePolicy::new(plan.max_transient_attempts());
    let clean = Executor::sequential().verify_all_supervised_with(
        &reg,
        run_seed,
        None,
        &SupervisePolicy::default(),
        None,
        |_, d| d,
    );
    prop_assert!(clean.all_reproduced());
    for jobs in [1usize, 4] {
        let chaotic = Executor::new(jobs).verify_all_supervised_with(
            &reg,
            run_seed,
            None,
            &policy,
            Some(&plan),
            |_, d| d,
        );
        prop_assert!(
            chaotic.all_reproduced(),
            "jobs={jobs} fault_seed={fault_seed} rate={rate}: {:?}",
            chaotic.violations()
        );
        for (c, f) in clean.outcomes.iter().zip(chaotic.outcomes.iter()) {
            prop_assert_eq!(&c.id, &f.id);
            prop_assert_eq!(
                c.fingerprint,
                f.fingerprint,
                "{} diverged under chaos at jobs={}",
                c.id,
                jobs
            );
        }
    }
}

/// Body of the fails-closed property: with no retry budget, every id
/// either reproduces the fault-free fingerprint or is quarantined with a
/// taxonomy — there is no silent third state.
fn check_fails_closed(fault_seed: u64) {
    quiet_injected_panics();
    let reg = synthetic_registry();
    let plan = FaultPlan::transient(fault_seed, 0.5);
    let policy = SupervisePolicy::new(0); // no retries at all
    let clean = Executor::sequential().verify_all_supervised_with(
        &reg,
        7,
        None,
        &SupervisePolicy::default(),
        None,
        |_, d| d,
    );
    let chaotic =
        Executor::new(2).verify_all_supervised_with(&reg, 7, None, &policy, Some(&plan), |_, d| d);
    for (c, f) in clean.outcomes.iter().zip(chaotic.outcomes.iter()) {
        if f.reproduced {
            prop_assert_eq!(c.fingerprint, f.fingerprint, "{}", c.id);
        } else {
            prop_assert!(f.failure.is_some(), "{} failed without a taxonomy", f.id);
        }
    }
}

// Satellite (c): transient-only chaos within the retry budget is
// invisible in the results — bitwise — for every fault seed, any rate up
// to 0.3, and both a serial and a parallel executor. The second property
// checks the flip side: an insufficient retry budget fails closed.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn transient_chaos_converges_to_fault_free_trails(
        fault_seed in any::<u64>(),
        rate in 0.0f64..0.3,
        run_seed in 0u64..1000,
    ) {
        check_transient_convergence(fault_seed, rate, run_seed);
    }

    #[test]
    fn underbudgeted_chaos_fails_closed(fault_seed in any::<u64>()) {
        check_fails_closed(fault_seed);
    }
}

/// The full-registry acceptance criterion, at the fast conformance
/// parameters: transient-only faults with a sufficient retry budget give
/// trail hashes bitwise-identical to the fault-free pass at `--jobs 1`
/// and `--jobs 4`.
#[test]
fn full_registry_transient_chaos_is_bitwise_invisible() {
    quiet_injected_panics();
    let reg = treu::full_registry();
    let plan = FaultPlan::transient(7, 0.2);
    let policy = SupervisePolicy::new(plan.max_transient_attempts());
    let clean = Executor::sequential().verify_all_supervised_with(
        &reg,
        77,
        None,
        &SupervisePolicy::default(),
        None,
        |id, _| treu::conformance_params(id),
    );
    assert!(clean.all_reproduced(), "{:?}", clean.violations());
    for jobs in [1usize, 4] {
        let chaotic = Executor::new(jobs).verify_all_supervised_with(
            &reg,
            77,
            None,
            &policy,
            Some(&plan),
            |id, _| treu::conformance_params(id),
        );
        assert!(chaotic.all_reproduced(), "jobs={jobs}: {:?}", chaotic.violations());
        for (c, f) in clean.outcomes.iter().zip(chaotic.outcomes.iter()) {
            assert_eq!(c.id, f.id);
            assert_eq!(c.fingerprint, f.fingerprint, "{} diverged at jobs={jobs}", c.id);
        }
    }
}

/// Satellite (d), library level: a permanent panic in one registered
/// experiment quarantines exactly that id with the `Panicked` taxonomy;
/// the other N−1 all reproduce, and the deny ladder gates as specified.
#[test]
fn permanent_panic_quarantines_one_id_and_spares_the_rest() {
    quiet_injected_panics();
    let mut reg = synthetic_registry();
    let n = reg.len() + 1;
    struct Broken;
    impl Experiment for Broken {
        fn name(&self) -> &str {
            "broken"
        }
        fn run(&self, _ctx: &mut RunContext) {
            panic!("hardware gremlin");
        }
    }
    reg.register("Z-broken", "prop", "permanently panics", Params::new(), Box::new(Broken));
    let policy = SupervisePolicy::new(2);
    let report =
        Executor::new(4).verify_all_supervised_with(&reg, 5, None, &policy, None, |_, d| d);
    assert_eq!(report.outcomes.len(), n);
    assert_eq!(report.outcomes.iter().filter(|o| o.reproduced).count(), n - 1);
    let q = report.quarantined();
    assert_eq!(q.len(), 1);
    assert_eq!(q[0].id, "Z-broken");
    let failure = q[0].failure.as_ref().expect("quarantined outcomes carry a failure");
    assert_eq!(failure.taxonomy, FailureKind::Panicked);
    assert_eq!(failure.attempts, 3, "retries + 1");
    assert!(failure.last_error.contains("hardware gremlin"));
    let rendered = report.render();
    assert!(rendered.contains("QUARANTINED(Panicked) after 3 attempt(s)"), "{rendered}");
    assert!(rendered.contains(&format!("{}/{} reproduced", n - 1, n)), "{rendered}");
    assert!(report.exceeds(DenyPolicy::Error));
    assert!(report.exceeds(DenyPolicy::Warn));
    assert!(!report.exceeds(DenyPolicy::None));
}

/// ISSUE 5 satellite (d): the cache's statistics live under one lock, so
/// a snapshot taken while a chaotic parallel verification hammers the
/// cache is never torn — every lookup lands in exactly one category, and
/// the categories always sum back to the lookup count.
#[test]
fn cache_stats_stay_consistent_under_chaos() {
    quiet_injected_panics();
    let reg = synthetic_registry();
    let dir = std::env::temp_dir().join(format!("treu-chaos-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::open(&dir).expect("cache opens");
    let plan = FaultPlan::transient(11, 0.3);
    let policy = SupervisePolicy::new(plan.max_transient_attempts());
    for pass in 0..2 {
        let report = Executor::new(4).verify_all_supervised_with(
            &reg,
            21,
            Some(&cache),
            &policy,
            Some(&plan),
            |_, d| d,
        );
        assert!(report.all_reproduced(), "pass {pass}: {:?}", report.violations());
        let stats = cache.stats();
        assert!(stats.consistent(), "pass {pass}: torn snapshot {stats:?}");
    }
    let end = cache.stats();
    let n = reg.len() as u64;
    assert_eq!(end.lookups, 2 * n, "one classified lookup per id per pass");
    assert_eq!(end.misses, n, "cold pass misses every id");
    assert_eq!(end.hits, n, "warm pass replays every id");
    assert_eq!(end.stores, n, "only the cold pass stores");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// ISSUE 6 satellite (b): the same chaos invariant with the cache under
/// a hard bound — `CacheStats::consistent()` must hold after every
/// eviction, the bound must hold at rest, and eviction churn must never
/// corrupt a verification verdict.
#[test]
fn bounded_cache_stats_stay_consistent_under_chaotic_eviction() {
    quiet_injected_panics();
    let reg = synthetic_registry();
    let dir = std::env::temp_dir().join(format!("treu-chaos-bounded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Bound below the registry size so every pass churns the cache.
    let bound = CacheBound::entries(3);
    let cache = RunCache::open_bounded(&dir, bound).expect("cache opens");
    let plan = FaultPlan::transient(11, 0.3);
    let policy = SupervisePolicy::new(plan.max_transient_attempts());
    for pass in 0..3 {
        let report = Executor::new(4).verify_all_supervised_with(
            &reg,
            21,
            Some(&cache),
            &policy,
            Some(&plan),
            |_, d| d,
        );
        assert!(report.all_reproduced(), "pass {pass}: {:?}", report.violations());
        let stats = cache.stats();
        assert!(stats.consistent(), "pass {pass}: torn snapshot after evictions {stats:?}");
        assert!(
            cache.resident_entries().len() <= 3,
            "pass {pass}: bound violated at rest: {:?}",
            cache.resident_entries()
        );
    }
    let end = cache.stats();
    let n = reg.len() as u64;
    assert_eq!(end.lookups, 3 * n, "one classified lookup per id per pass");
    assert_eq!(end.hits + end.misses, 3 * n, "every lookup classified");
    assert!(end.evictions > 0, "a 3-entry bound over {n} ids must evict: {end:?}");
    assert_eq!(end.stores, end.misses, "every miss recomputes and stores");
    assert_eq!(
        end.evictions,
        cache.eviction_log().len() as u64,
        "the eviction log and the counter must agree"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Retries that rescue a run downgrade the finding to warn severity:
/// `--deny warn` gates, `--deny error` does not.
#[test]
fn rescued_runs_gate_only_at_warn() {
    quiet_injected_panics();
    let reg = synthetic_registry();
    let plan = FaultPlan::transient(3, 1.0);
    let policy = SupervisePolicy::new(plan.max_transient_attempts());
    let report =
        Executor::new(2).verify_all_supervised_with(&reg, 9, None, &policy, Some(&plan), |_, d| d);
    assert!(report.all_reproduced());
    assert!(!report.retried().is_empty(), "a rate-1.0 plan must force retries");
    assert!(report.exceeds(DenyPolicy::Warn));
    assert!(!report.exceeds(DenyPolicy::Error));
    assert!(!report.exceeds(DenyPolicy::None));
}
