//! Sample summaries and the process accounting the end-to-end metrics
//! read: CPU time from getrusage(2), peak RSS from `/proc`.

use std::fs;

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples` (any order; at least one). Quartiles follow
    /// Python's `statistics.quantiles(n=4)` (exclusive method), the rule
    /// the steadiness check applies to whole runs, so a run's own spread
    /// and the check's read the same way.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut xs = samples.to_vec();
        xs.sort_by(f64::total_cmp);
        let n = xs.len();
        let median = if n % 2 == 1 { xs[n / 2] } else { (xs[n / 2 - 1] + xs[n / 2]) / 2.0 };
        let (q1, q3) = if n < 2 { (xs[0], xs[0]) } else { (quartile(&xs, 1), quartile(&xs, 3)) };
        Summary { n, q1, median, q3 }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The 95th percentile (nearest rank) of `samples`, when at least ten
/// samples lie beyond it: a tail read from fewer is one sample's noise.
pub fn p95(samples: &[f64]) -> Option<f64> {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let rank = (0.95 * xs.len() as f64).ceil() as usize;
    (rank >= 1 && xs.len() - rank >= 10).then(|| xs[rank - 1])
}

/// Per-pass means over blocks of consecutive passes: each block closes
/// once its passes' wall times sum to at least `min_s` seconds, and
/// yields the mean of `per_pass` over its passes (a last, short block is
/// dropped unless it is the only one). Passes of a second or more are
/// blocks of their own; millisecond passes are averaged over a second of
/// them, so multi-second swings in CPU speed enter each sample as a share
/// rather than flipping it.
pub fn block_means(wall: &[f64], per_pass: &[f64], min_s: f64) -> Vec<f64> {
    assert_eq!(wall.len(), per_pass.len(), "one value per pass");
    let mut out = Vec::new();
    let (mut t, mut sum, mut n) = (0.0, 0.0, 0usize);
    for (w, v) in wall.iter().zip(per_pass) {
        t += w;
        sum += v;
        n += 1;
        if t >= min_s {
            out.push(sum / n as f64);
            (t, sum, n) = (0.0, 0.0, 0);
        }
    }
    if out.is_empty() && n > 0 {
        out.push(sum / n as f64);
    }
    out
}

/// The `i`-th quartile of sorted `xs` (n >= 2), exclusive method.
fn quartile(xs: &[f64], i: usize) -> f64 {
    let ld = xs.len();
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
}

/// `struct timeval` of the 64-bit Linux ABI.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the 64-bit Linux ABI: two timevals, then fourteen
/// `long` counters this module does not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage_s(who: i32) -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the platform's
    // layout, and `who` is one of the two values getrusage(2) defines.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&ru.utime) + tv(&ru.stime)
}

/// CPU seconds consumed so far: user + system over every thread of this
/// process, live or exited, plus every child process it has reaped.
/// The kernel accounts them to the nanosecond and reports microseconds.
pub fn cpu_s() -> f64 {
    rusage_s(RUSAGE_SELF) + rusage_s(RUSAGE_CHILDREN)
}

/// Peak RSS of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(p95(&xs), Some(380.0)); // 20 beyond
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p95(&xs), Some(190.0)); // 10 beyond
        let xs: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(p95(&xs), None); // 9 beyond
    }

    #[test]
    fn blocks_close_at_min_seconds() {
        // Long passes are their own blocks.
        assert_eq!(block_means(&[1.5, 2.0], &[1.5, 2.0], 1.0), vec![1.5, 2.0]);
        // Short ones average until a block holds a second; the short
        // tail is dropped.
        let wall = [0.4, 0.4, 0.4, 0.5, 0.5, 0.1];
        assert_eq!(block_means(&wall, &[1.0, 2.0, 3.0, 4.0, 6.0, 9.0], 1.0), vec![2.0, 5.0]);
        // A run shorter than one block still yields its mean.
        assert_eq!(block_means(&[0.2, 0.2], &[1.0, 3.0], 1.0), vec![2.0]);
    }

    #[test]
    fn proc_accounting_reads() {
        let t0 = cpu_s();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_s() > t0, "a millisecond of work must register");
        assert!(peak_rss_mb() > 0.0);
    }
}
