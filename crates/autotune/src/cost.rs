//! Deterministic analytic cost model.
//!
//! Harnessed experiments need seed-stable fitness, and wall-clock time is
//! environment, not result — so the tuner's experiments run on this model
//! while the `autotune_kernels` example times the real executors to
//! validate its ranking. The model is a standard loop-nest estimate: MAC
//! count scaled by (a) a backend/kernel affinity factor for the inner-loop
//! access pattern, (b) a cache factor from the tile working set, (c)
//! loop-overhead factors for degenerate tiles, (d) an unroll-efficiency
//! factor with a register-pressure penalty at 8×, and (e) parallel speedup
//! with a per-thread spawn overhead. Units are abstract "cycles".

use crate::executor::Backend;
use crate::kernels::Kernel;
use crate::schedule::Schedule;

/// Modelled cache sizes (bytes).
const L1_BYTES: f64 = 32.0 * 1024.0;
/// L2 size used by the cache factor.
const L2_BYTES: f64 = 256.0 * 1024.0;
/// Spawn overhead per extra thread, in model cycles.
const SPAWN_OVERHEAD: f64 = 50_000.0;

/// Estimated cost (abstract cycles) of executing `kernel` under
/// `schedule` on `backend`.
pub fn estimate(kernel: &Kernel, schedule: Schedule, backend: Backend) -> f64 {
    let s = schedule.clamped_for(kernel);
    let macs = kernel.flops() as f64 / 2.0;

    // (a) Backend/kernel affinity: how the lowering's inner access pattern
    // matches the kernel's layout.
    let (_, out_cols) = kernel.output_shape();
    let affinity = match (backend, kernel) {
        // Row updates need wide rows to amortize; degenerate at n = 1.
        (Backend::AxpyLowering, Kernel::MatVec { .. }) => 1.6,
        (Backend::AxpyLowering, Kernel::Conv1d { .. }) => 1.4,
        (Backend::AxpyLowering, _) => 1.0,
        // Dot lowering strides through B with stride n in the matmul
        // family: each element lands on a fresh cache line when n is wide.
        (Backend::DotLowering, Kernel::MatMul { .. }) => 1.9,
        (Backend::DotLowering, Kernel::MatMulT { .. }) => 2.1,
        // Contiguous operands: dot lowering is the natural fit.
        (Backend::DotLowering, Kernel::MatVec { .. }) => 1.0,
        (Backend::DotLowering, Kernel::Conv1d { .. }) => 1.0,
        (Backend::DotLowering, Kernel::Conv2d { .. }) => 1.1,
    };

    // (b) Cache factor from the per-tile working set.
    let ws = 8.0
        * (s.tile_i * s.tile_k + s.tile_k * s.tile_j.min(out_cols) + s.tile_i * s.tile_j) as f64;
    let cache = if ws <= L1_BYTES {
        1.0
    } else if ws <= L2_BYTES {
        1.35
    } else {
        2.2
    };

    // (c) Loop overhead: unit tiles re-enter loop prologues constantly.
    let overhead =
        1.0 + 1.5 / s.tile_k as f64 + 0.5 / s.tile_j.max(1) as f64 + 0.25 / s.tile_i.max(1) as f64;

    // (d) Unroll efficiency, with register pressure at 8.
    let unroll = match s.unroll {
        1 => 1.0,
        2 => 0.88,
        4 => 0.81,
        _ => 0.84,
    };

    // (e) Parallelism (conv1d's single output row cannot parallelize).
    let parallelizable = !matches!(kernel, Kernel::Conv1d { .. });
    let threads = if parallelizable { s.threads.max(1) as f64 } else { 1.0 };
    let spawn = if parallelizable { SPAWN_OVERHEAD * (s.threads.max(1) - 1) as f64 } else { 0.0 };

    macs * affinity * cache * overhead * unroll / threads + spawn
}

/// Model GFLOP/s for reporting (`flops / cost`, scaled so the naive matmul
/// lands at a plausible single-core figure).
pub fn model_gflops(kernel: &Kernel, schedule: Schedule, backend: Backend) -> f64 {
    // One model cycle ≈ 1/3.5e9 s (a 3.5 GHz scalar MAC machine).
    let seconds = estimate(kernel, schedule, backend) / 3.5e9;
    kernel.flops() as f64 / seconds / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_beats_naive_everywhere() {
        for kern in Kernel::suite() {
            for backend in Backend::all() {
                let n = estimate(&kern, Schedule::naive(), backend);
                let r = estimate(&kern, Schedule::reference(), backend);
                assert!(r < n, "{} {}: ref {r} vs naive {n}", kern.name(), backend.name());
            }
        }
    }

    #[test]
    fn matvec_prefers_dot_lowering() {
        let k = Kernel::MatVec { m: 256, k: 256 };
        let s = Schedule::reference();
        assert!(estimate(&k, s, Backend::DotLowering) < estimate(&k, s, Backend::AxpyLowering));
    }

    #[test]
    fn matmul_prefers_axpy_lowering() {
        let k = Kernel::MatMul { m: 96, k: 96, n: 96 };
        let s = Schedule::reference();
        assert!(estimate(&k, s, Backend::AxpyLowering) < estimate(&k, s, Backend::DotLowering));
    }

    #[test]
    fn threads_help_large_kernels_but_cost_spawn() {
        let k = Kernel::MatMul { m: 96, k: 96, n: 96 };
        let s1 = Schedule::reference();
        let s4 = Schedule { threads: 4, ..s1 };
        assert!(estimate(&k, s4, Backend::AxpyLowering) < estimate(&k, s1, Backend::AxpyLowering));
        // Tiny kernel: spawn overhead dominates.
        let tiny = Kernel::MatVec { m: 8, k: 8 };
        assert!(
            estimate(&tiny, s4, Backend::DotLowering) > estimate(&tiny, s1, Backend::DotLowering)
        );
    }

    #[test]
    fn conv1d_ignores_thread_axis() {
        let k = Kernel::Conv1d { len: 4096, k: 16 };
        let s1 = Schedule::reference();
        let s4 = Schedule { threads: 4, ..s1 };
        assert_eq!(estimate(&k, s1, Backend::DotLowering), estimate(&k, s4, Backend::DotLowering));
    }

    #[test]
    fn cost_is_deterministic_and_positive() {
        for kern in Kernel::suite() {
            let c = estimate(&kern, Schedule::reference(), Backend::AxpyLowering);
            assert!(c > 0.0);
            assert_eq!(c, estimate(&kern, Schedule::reference(), Backend::AxpyLowering));
        }
    }

    #[test]
    fn model_gflops_sane_range() {
        let k = Kernel::MatMul { m: 96, k: 96, n: 96 };
        let g = model_gflops(&k, Schedule::reference(), Backend::AxpyLowering);
        assert!(g > 0.5 && g < 100.0, "model gflops {g}");
    }
}
