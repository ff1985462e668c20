//! Bitwise conformance suite for the schedule-driven GEMM (ISSUE 8).
//!
//! The contract under test: every `GemmPlan` — any blocking, any
//! microkernel width — produces output **bitwise identical** to
//! `matmul_naive`, because each output element is one sequential
//! ascending-k accumulation chain no matter how the i/j traversal is
//! reordered. Property tests sweep random shapes × random clamped plans; a
//! golden FNV-1a fingerprint of one fixed workload pins the numeric results
//! themselves across refactors.

use proptest::prelude::*;
use treu_math::gemm::{GemmPlan, ShapeClass};
use treu_math::hash::fnv64;
use treu_math::rng::SplitMix64;
use treu_math::Matrix;

fn seeded_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SplitMix64::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.next_gaussian())
}

fn assert_bitwise(want: &Matrix, got: &Matrix, what: &str) {
    assert_eq!(want.shape(), got.shape(), "{what}: shape changed");
    for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert!(w.to_bits() == g.to_bits(), "{what}: element {i} diverged ({w:e} vs {g:e})");
    }
}

/// Raw plan fields; `clamped` snaps them into the kernel's valid space,
/// exactly as the dispatch path does.
fn plan_strategy() -> impl Strategy<Value = GemmPlan> {
    (1usize..300, 1usize..300, 1usize..300, 1usize..24).prop_map(|(mc, kc, nc, nr)| GemmPlan {
        mc,
        kc,
        nc,
        nr,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_random_plan_is_bitwise_naive(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        plan in plan_strategy(),
        seed in 0u64..1 << 48,
    ) {
        let a = seeded_matrix(m, k, seed);
        let b = seeded_matrix(k, n, seed ^ 0x9e37_79b9_7f4a_7c15);
        let want = a.matmul_naive(&b);
        let got = a.matmul_with_plan(&b, &plan.clamped(m, k, n));
        assert_bitwise(&want, &got, &format!("plan {plan:?}"));
    }

    #[test]
    fn transpose_free_forms_match_explicit_transpose(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1 << 48,
    ) {
        let a = seeded_matrix(m, k, seed);
        let b = seeded_matrix(k, n, seed ^ 0x5851_f42d_4c95_7f2d);
        // Aᵀ stored explicitly, multiplied without materializing A.
        let at = a.transpose();
        assert_bitwise(&a.matmul_naive(&b), &at.matmul_tn(&b), "matmul_tn");
        // Bᵀ stored explicitly, multiplied without materializing B.
        let bt = b.transpose();
        assert_bitwise(&a.matmul_naive(&b), &a.matmul_nt(&bt), "matmul_nt");
    }
}

/// The fixed workload the golden fingerprint pins: one multiplication per
/// shape class the dispatch table distinguishes in practice, each product
/// hashed twice through the default plan (the fingerprint was pinned over
/// two bitwise-equal products per shape).
fn fingerprint_fixed_workload() -> u64 {
    let shapes = [(3, 17, 5), (24, 24, 24), (80, 40, 96), (130, 64, 257)];
    let mut bytes = Vec::new();
    for (idx, &(m, k, n)) in shapes.iter().enumerate() {
        let a = seeded_matrix(m, k, 0xC0FFEE + idx as u64);
        let b = seeded_matrix(k, n, 0xBEEF + idx as u64);
        let plan = GemmPlan::default_for(ShapeClass::of(m, k, n));
        for _ in 0..2 {
            let out = a.matmul_with_plan(&b, &plan.clamped(m, k, n));
            for v in out.as_slice() {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    fnv64(&bytes)
}

/// Golden value: any change means the kernels now produce different bits
/// than they did when this suite was written — a reproducibility break,
/// not a refactor. Regenerate only with an argued determinism-contract
/// change.
const GOLDEN_GEMM_FINGERPRINT: u64 = 0xdde48a8c2db79159;

#[test]
fn fixed_workload_fingerprint_is_golden() {
    assert_eq!(
        fingerprint_fixed_workload(),
        GOLDEN_GEMM_FINGERPRINT,
        "GEMM output bits changed: {:#018x}",
        fingerprint_fixed_workload()
    );
}
