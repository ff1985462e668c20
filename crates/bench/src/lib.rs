//! Shared nothing between the criterion benches: each is self-contained.
//! The exceptions are [`workload`], the synthetic skewed-cost task set
//! shared by the `executor` criterion bench and the `exec_bench` binary so
//! both measure the same thing, and [`soak`], the sustained multi-tenant
//! chaos soak driver behind `treu soak`.
#![forbid(unsafe_code)]

pub mod soak;

pub mod workload {
    //! A skewed-cost workload for scheduler benchmarking.
    //!
    //! Task durations follow a Zipf-ish 1/rank curve: a handful of heavy
    //! head tasks and a long tail of light ones — the mixed-cost shape that
    //! static contiguous bands handle worst, because whichever band owns
    //! the head serializes the batch. Costs are *slept*, not computed, so
    //! the scheduling difference is visible on any core count (including
    //! single-core CI runners) while the task *outputs* stay deterministic
    //! pure functions of the task index, which is what lets callers check
    //! static and dynamic schedules for bitwise-identical results.

    /// splitmix64 — the workload's deterministic per-task payload. Pure
    /// function of the index; no ambient randomness.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Sleep cost of task `i`, in microseconds: `scale_us / (i + 1)`,
    /// clamped below by 1µs. Task 0 alone costs as much as the entire
    /// tail past index ~e^1 combined (harmonic series), so a static band
    /// containing the head is the batch's critical path.
    pub fn skewed_cost_us(i: usize, scale_us: u64) -> u64 {
        (scale_us / (i as u64 + 1)).max(1)
    }

    /// Total slept cost of an `n`-task workload, in seconds — the ideal
    /// single-worker wall time.
    pub fn total_cost_seconds(n: usize, scale_us: u64) -> f64 {
        (0..n).map(|i| skewed_cost_us(i, scale_us) as f64 / 1e6).sum()
    }

    /// Runs task `i`: sleeps its skewed cost, returns a value that depends
    /// only on `i`. Identical for every scheduling order by construction.
    pub fn run_task(i: usize, scale_us: u64) -> u64 {
        std::thread::sleep(std::time::Duration::from_micros(skewed_cost_us(i, scale_us)));
        splitmix64(i as u64)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn costs_are_skewed_and_positive() {
            assert_eq!(skewed_cost_us(0, 1000), 1000);
            assert_eq!(skewed_cost_us(1, 1000), 500);
            assert_eq!(skewed_cost_us(999_999, 1000), 1, "tail is clamped to 1µs");
            // Head-heavy: task 0 costs more than the entire second half.
            let head = skewed_cost_us(0, 1000);
            let back_half: u64 = (32..64).map(|i| skewed_cost_us(i, 1000)).sum();
            assert!(head > back_half);
        }

        #[test]
        fn payload_is_a_pure_function_of_the_index() {
            let a: Vec<u64> = (0..16).map(|i| run_task(i, 8)).collect();
            let b: Vec<u64> = (0..16).map(|i| run_task(i, 8)).collect();
            assert_eq!(a, b);
        }
    }
}
