//! Integration tests for the reproducibility harness across every
//! registered experiment (RH in DESIGN.md's index).
//!
//! Every experiment in the registry must be (a) runnable, (b) bitwise
//! deterministic under a fixed seed, (c) sensitive to the seed, and
//! (d) executor-conformant: running it through the parallel
//! [`Executor`] at any job count produces trails bitwise-identical to
//! the sequential run. Heavy experiments run with lightened parameters —
//! determinism is a property of the code path, not of the workload size.

use treu::conformance_params as light_params;
use treu::core::exec::{Executor, SupervisePolicy};
use treu::core::experiment::Params;
use treu::math::hash::fnv64_parts;

#[test]
fn every_experiment_runs_and_is_deterministic() {
    let reg = treu::full_registry();
    assert!(reg.len() >= 19, "registry holds the full index");
    for (id, _) in reg.iter() {
        let p = light_params(id);
        let a = reg.run_with(id, 77, p.clone()).expect("registered");
        let b = reg.run_with(id, 77, p.clone()).expect("registered");
        assert_eq!(a.trail, b.trail, "experiment {id} is not deterministic under a fixed seed");
        assert!(!a.trail.metrics().is_empty(), "experiment {id} recorded no metrics");
    }
}

#[test]
fn conformance_every_id_reproduces_at_every_job_count() {
    // The workspace-wide determinism conformance suite: the whole registry
    // is verified (each id run twice, concurrently) at jobs 1, 2 and 8,
    // and the per-id fingerprints must be identical across job counts.
    let reg = treu::full_registry();
    let mut baseline: Option<Vec<(String, u64)>> = None;
    for jobs in [1usize, 2, 8] {
        let report = Executor::new(jobs).verify_all_supervised_with(
            &reg,
            77,
            None,
            &SupervisePolicy::default(),
            None,
            |id, _| light_params(id),
        );
        assert_eq!(report.outcomes.len(), reg.len(), "jobs={jobs}");
        assert!(
            report.all_reproduced(),
            "non-deterministic at jobs={jobs}: {:?}",
            report.violations()
        );
        let fps: Vec<(String, u64)> =
            report.outcomes.iter().map(|o| (o.id.clone(), o.fingerprint)).collect();
        match &baseline {
            None => baseline = Some(fps),
            Some(base) => {
                assert_eq!(base, &fps, "fingerprints changed between jobs=1 and jobs={jobs}")
            }
        }
    }
}

/// Per-id trail fingerprints of a conformance-parameter verify at seed
/// 2023, in registry order. Kernel rewrites must keep every one of them:
/// the determinism tests above only check that a run repeats, so a change
/// that flips a result bit the same way twice would pass them.
const PINNED_2023: [(&str, u64); 21] = [
    ("E2.10", 0x78a82e37a77c6e7d),
    ("E2.10-abl", 0x3c616613ddabc64b),
    ("E2.11", 0x72fc9f6c62a687e8),
    ("E2.2a", 0x6fa59714ca1f2077),
    ("E2.2b", 0xafaafef07db59824),
    ("E2.3", 0x355ab1b14cd10813),
    ("E2.4", 0x42eef737249d2d4f),
    ("E2.5", 0xfa42c61029604448),
    ("E2.5-abl", 0x827f51b083678715),
    ("E2.6", 0x19d3da9468e2c952),
    ("E2.7", 0x05714d1643e853d9),
    ("E2.8", 0xc07f59a6548b2258),
    ("E2.8-abl", 0x04325a434dab4ab8),
    ("E2.9", 0x388a3915f9ccf8f2),
    ("E3", 0x8ae85b0828288bfa),
    ("N1", 0x2852699dfad8201b),
    ("T1", 0xd8dccb3d246f6f07),
    ("T2", 0x09caf6007152cdfe),
    ("T3", 0xe04ee9442101f2d1),
    ("X-bias", 0x34d61cf7f2120172),
    ("cluster_faults", 0x721f96b6c342ff0e),
];

#[test]
fn conformance_fingerprints_match_the_pinned_table() {
    let reg = treu::full_registry();
    let report = Executor::new(2).verify_all_supervised_with(
        &reg,
        2023,
        None,
        &SupervisePolicy::default(),
        None,
        |id, _| light_params(id),
    );
    assert!(report.all_reproduced(), "{:?}", report.violations());
    let got: Vec<(&str, u64)> =
        report.outcomes.iter().map(|o| (o.id.as_str(), o.fingerprint)).collect();
    assert_eq!(got, PINNED_2023, "a registry result changed at seed 2023");
    // The registry-wide digest perfbench gates its workloads on: id,
    // fingerprint and outcome ("ok") per id, folded in registry order.
    let fps: Vec<[u8; 8]> = PINNED_2023.iter().map(|(_, fp)| fp.to_le_bytes()).collect();
    let parts: Vec<&[u8]> = PINNED_2023
        .iter()
        .zip(&fps)
        .flat_map(|((id, _), fp)| [id.as_bytes(), fp.as_slice(), b"ok".as_slice()])
        .collect();
    assert_eq!(fnv64_parts(&parts), 0x6f6be159d4099f12);
}

/// Full-parameter fingerprints at seed 2023, as `treu run` computes them,
/// of the DQN grid, the spectral filter and their ablations. Conformance
/// parameters train 25 episodes; at the registered 400, Adam's first
/// moments go subnormal and its second-moment bias correction rounds to
/// 1.0, regimes no entry of [`PINNED_2023`] reaches. Full-parameter E2.10
/// filters n = 800 points over four trials, driving the matvec through
/// far more power-iteration rounds than its conformance run. So rewrites
/// of the training step and of the matvec are pinned here too. Ignored by
/// default because E2.8 alone trains for about half a minute in release;
/// CI runs it with `cargo test --release --locked --test harness --
/// --ignored`.
#[test]
#[ignore = "full-parameter E2.8, E2.8-abl, E2.10 and E2.10-abl pins (~30 s in release)"]
fn full_parameter_fingerprints_match_the_pinned_values() {
    let reg = treu::full_registry();
    for (id, want) in [
        ("E2.8", 0xc8075fea897ea60e_u64),
        ("E2.8-abl", 0x084b6bb260121bce),
        ("E2.10", 0xa1c9ca59d05ce46d),
        ("E2.10-abl", 0xecd2adde3ad696b1),
    ] {
        let run = reg.run(id, 2023).expect("registered");
        assert_eq!(run.fingerprint(), want, "{id} changed at full parameters, seed 2023");
    }
}

#[test]
fn conformance_multi_seed_batches_are_job_count_invariant() {
    // run_seeds through the executor, on a spread of registry ids covering
    // different crates, must match the sequential records bitwise.
    let reg = treu::full_registry();
    let seeds = [3u64, 14, 15, 92, 65];
    for id in ["T1", "N1", "E2.10-abl", "E2.5-abl", "E3"] {
        let p = light_params(id);
        let seq: Vec<_> =
            seeds.iter().map(|&s| reg.run_with(id, s, p.clone()).expect("registered")).collect();
        for jobs in [2usize, 8] {
            let par = Executor::new(jobs).map_indexed(seeds.len(), |i| {
                reg.run_with(id, seeds[i], p.clone()).expect("registered")
            });
            for (a, b) in seq.iter().zip(par.iter()) {
                assert_eq!(a.trail, b.trail, "{id} diverged at jobs={jobs}");
            }
        }
    }
}

#[test]
fn conformance_warm_cache_verify_recomputes_nothing() {
    // Acceptance criterion: a second `treu verify` against a warm cache
    // recomputes zero experiments, the hit count equals the experiment
    // count, and the replayed fingerprints match the cold pass bitwise.
    use treu::core::cache::RunCache;
    let reg = treu::full_registry();
    let dir = std::env::temp_dir().join(format!("treu-harness-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exec = Executor::new(4);

    let cold_cache = RunCache::open(&dir).expect("cache dir");
    let cold = exec.verify_all_supervised_with(
        &reg,
        77,
        Some(&cold_cache),
        &SupervisePolicy::default(),
        None,
        |id, _| light_params(id),
    );
    assert!(cold.all_reproduced(), "cold pass: {:?}", cold.violations());
    assert_eq!(cold.recomputed, reg.len(), "cold cache verifies everything the hard way");
    assert_eq!(cold_cache.stats().misses, reg.len() as u64);
    assert_eq!(cold_cache.stats().stores, reg.len() as u64);

    // A fresh handle on the same directory, so the stats below are purely
    // the warm pass's.
    let warm_cache = RunCache::open(&dir).expect("cache dir");
    let warm = exec.verify_all_supervised_with(
        &reg,
        77,
        Some(&warm_cache),
        &SupervisePolicy::default(),
        None,
        |id, _| light_params(id),
    );
    assert!(warm.all_reproduced());
    assert_eq!(warm.recomputed, 0, "warm cache must recompute zero experiments");
    assert_eq!(warm.cached_count(), reg.len());
    assert_eq!(warm_cache.stats().hits, reg.len() as u64, "hit count equals experiment count");
    assert_eq!(warm_cache.stats().misses, 0);

    let cold_fps: Vec<(String, u64)> =
        cold.outcomes.iter().map(|o| (o.id.clone(), o.fingerprint)).collect();
    let warm_fps: Vec<(String, u64)> =
        warm.outcomes.iter().map(|o| (o.id.clone(), o.fingerprint)).collect();
    assert_eq!(cold_fps, warm_fps, "cache replay changed a fingerprint");

    // A different seed misses the cache: the address covers the seed.
    // (Param sensitivity is covered by the cache unit tests; re-running
    // the registry at default params here would be needlessly slow.)
    let seed_cache = RunCache::open(&dir).expect("cache dir");
    let reseeded = exec.verify_all_supervised_with(
        &reg,
        78,
        Some(&seed_cache),
        &SupervisePolicy::default(),
        None,
        |id, _| light_params(id),
    );
    assert!(reseeded.all_reproduced());
    assert_eq!(seed_cache.stats().hits, 0, "seed is part of the cache address");
    assert_eq!(reseeded.recomputed, reg.len());

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn executor_report_accounts_for_every_registry_run() {
    let reg = treu::full_registry();
    // The report plumbing of a light registry verify: per-id outcomes
    // plus positive wall time.
    let report = Executor::new(4).verify_all_supervised_with(
        &reg,
        5,
        None,
        &SupervisePolicy::default(),
        None,
        |id, _| light_params(id),
    );
    assert_eq!(report.jobs, 4);
    assert!(report.wall_seconds > 0.0);
    let rendered = report.render();
    for (id, _) in reg.iter() {
        assert!(rendered.contains(id), "render missing {id}");
    }
    assert!(rendered.contains(&format!("{}/{} reproduced", reg.len(), reg.len())));
}

#[test]
fn experiments_are_seed_sensitive() {
    // Randomized experiments must actually consume their seed. (Seed
    // sensitivity of the *metrics* can coincide by rounding; the trail
    // records rng streams, so fingerprints must differ.)
    let reg = treu::full_registry();
    for id in ["T1", "E2.2a", "E2.10", "E3"] {
        let p = light_params(id);
        let a = reg.run_with(id, 1, p.clone()).expect("registered");
        let b = reg.run_with(id, 2, p.clone()).expect("registered");
        assert_ne!(a.fingerprint(), b.fingerprint(), "{id} ignored its seed");
    }
}

#[test]
fn run_records_carry_wall_time_and_name() {
    let reg = treu::full_registry();
    let rec = reg.run_with("T1", 5, Params::new()).expect("registered");
    assert_eq!(rec.name, "surveys/table1");
    assert!(rec.wall_seconds >= 0.0);
    assert_eq!(rec.seed, 5);
}

#[test]
fn environment_capture_is_stable_within_process() {
    use treu::core::environment::Environment;
    let a = Environment::capture();
    let b = Environment::capture();
    assert_eq!(a, b);
    assert!(a.diff(&b).is_empty());
}
