//! `math_bench` — the GEMM autotuner's GFLOP/s regression gate.
//!
//! The registry benches price whole experiments; this binary isolates the
//! math kernels the autotuner schedules. For every probed GEMM shape it
//! measures three variants of the same multiplication:
//!
//! * **ijk** — the textbook triple loop, the untransformed nest every
//!   autotuning paper calls "naive";
//! * **axpy** — `Matrix::matmul_naive`, the repo's reference kernel
//!   (already loop-reordered, so a much stronger baseline);
//! * **tuned** — `Matrix::matmul_with_plan` under the plan the in-bench
//!   genetic tune just recorded for the shape's class. `Matrix::matmul`
//!   itself runs the class default, which the tune's bake-off also times:
//!   the tuned plan is the default whenever the GA's winner lost to it.
//!
//! All three are asserted **bitwise identical** before any timing is
//! trusted — the ascending-k reduction contract means blocking and
//! packing may never change a single output bit. Every kernel runs on one
//! thread, as it does in the registry. The conv2d packed
//! im2col path is priced against its naive six-loop reference the same
//! way. Results land in a machine-readable `BENCH_math.json` so the perf
//! trajectory is diffable across PRs.
//!
//! ```text
//! math_bench [--quick] [--enforce] [--seed S] [--out PATH]
//! ```
//!
//! `--quick` shrinks shapes and the GA budget for CI smoke runs;
//! `--enforce` exits nonzero unless the tuned kernel clears the floors
//! below on the large square class.

#![forbid(unsafe_code)]

use std::time::Instant;
use treu_autotune::book::TunedEntry;
use treu_autotune::tuner::GaParams;
use treu_autotune::ScheduleBook;
use treu_math::rng::{derive_seed, SplitMix64};
use treu_math::Matrix;
use treu_nn::conv2d::Conv2d;
use treu_nn::layer::Layer;

/// Minimum tuned over ijk-naive speedup `--enforce` accepts on the large
/// square class.
const TUNED_SPEEDUP_FLOOR: f64 = 2.0;

/// Minimum tuned-sequential over axpy-reference ratio `--enforce`
/// accepts on every shape — the tuner must never regress the kernel it
/// replaced (0.9 rather than 1.0 absorbs timer noise on tiny shapes).
const NO_REGRESSION_FLOOR: f64 = 0.9;

struct Config {
    quick: bool,
    enforce: bool,
    seed: u64,
    out: String,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg =
        Config { quick: false, enforce: false, seed: 2023, out: "BENCH_math.json".to_string() };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg.quick = true,
            "--enforce" => cfg.enforce = true,
            "--seed" => {
                i += 1;
                let v = args.get(i).ok_or("--seed requires a value")?;
                cfg.seed = v.parse::<u64>().map_err(|_| format!("invalid --seed value '{v}'"))?;
            }
            "--out" => {
                i += 1;
                cfg.out = args.get(i).ok_or("--out requires a value")?.clone();
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    Ok(cfg)
}

/// Times `f` `repeats` times and keeps the minimum — the standard
/// estimator for the noise-free cost — returning the last output so the
/// caller can bitwise-compare results across kernel variants.
fn time_min<T>(repeats: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats {
        // treu-lint: allow(wall-clock, reason = "benchmark harness measures wall time by definition")
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("repeats >= 1"))
}

/// The textbook ijk triple loop — strided B access, no blocking, no
/// packing. Each output element is the same ascending-k chain the tuned
/// kernels must reproduce, so it doubles as an independent bitwise
/// witness for `matmul_naive`.
fn matmul_ijk(a: &Matrix, b: &Matrix) -> Matrix {
    let m = a.rows();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        for j in 0..n {
            let mut acc = 0.0;
            for (kk, &av) in arow.iter().enumerate() {
                acc += av * b[(kk, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

fn assert_bitwise(want: &Matrix, got: &Matrix, what: &str) {
    assert_eq!(want.shape(), got.shape(), "{what}: shape changed");
    for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert!(
            w.to_bits() == g.to_bits(),
            "{what}: element {i} diverged ({w:e} vs {g:e}) — determinism violation"
        );
    }
}

struct ShapeResult {
    shape: (usize, usize, usize),
    class: String,
    ijk_gflops: f64,
    axpy_gflops: f64,
    tuned_gflops: f64,
}

fn gflops(flops: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        flops / secs / 1e9
    } else {
        0.0
    }
}

fn bench_shape(tuned: &TunedEntry, seed: u64, repeats: usize) -> ShapeResult {
    let ((m, k, n), plan) = (tuned.shape, tuned.plan());
    let mut rng = SplitMix64::new(derive_seed(seed, "math_bench.gemm"));
    let a = Matrix::from_fn(m, k, |_, _| rng.next_gaussian());
    let b = Matrix::from_fn(k, n, |_, _| rng.next_gaussian());

    let (axpy_secs, reference) = time_min(repeats, || a.matmul_naive(&b));
    let (ijk_secs, ijk_out) = time_min(repeats, || matmul_ijk(&a, &b));
    let (tuned_secs, tuned_out) = time_min(repeats, || a.matmul_with_plan(&b, &plan));

    assert_bitwise(&reference, &ijk_out, "ijk reference");
    assert_bitwise(&reference, &tuned_out, "tuned");

    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    ShapeResult {
        shape: (m, k, n),
        class: tuned.class.key(),
        ijk_gflops: gflops(flops, ijk_secs),
        axpy_gflops: gflops(flops, axpy_secs),
        tuned_gflops: gflops(flops, tuned_secs),
    }
}

struct ConvResult {
    label: String,
    naive_gflops: f64,
    packed_gflops: f64,
}

fn bench_conv(quick: bool, seed: u64, repeats: usize) -> ConvResult {
    let (batch, cin, cout, kernel, h, w) =
        if quick { (8, 3, 8, 3, 32, 32) } else { (16, 3, 16, 3, 48, 48) };
    let mut conv = Conv2d::new(cin, cout, kernel, h, w, derive_seed(seed, "math_bench.conv"));
    let mut rng = SplitMix64::new(derive_seed(seed, "math_bench.conv.x"));
    let x = Matrix::from_fn(batch, cin * h * w, |_, _| rng.next_gaussian());

    let (naive_secs, reference) = time_min(repeats, || conv.forward_naive(&x));
    // The packed path is the layer's forward, which writes its own buffer.
    let (packed_secs, ()) = time_min(repeats, || {
        conv.forward(&x, false);
    });
    assert_bitwise(&reference, conv.forward(&x, false), "conv packed");

    let (oh, ow) = (h - kernel + 1, w - kernel + 1);
    let flops = batch as f64 * (cout * oh * ow) as f64 * 2.0 * (cin * kernel * kernel) as f64;
    ConvResult {
        label: format!("{batch}x{cin}x{h}x{w} k{kernel} -> {cout}ch"),
        naive_gflops: gflops(flops, naive_secs),
        packed_gflops: gflops(flops, packed_secs),
    }
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("math_bench: {msg}");
            eprintln!("usage: math_bench [--quick] [--enforce] [--seed S] [--out PATH]");
            std::process::exit(2);
        }
    };
    let repeats = if cfg.quick { 3 } else { 5 };
    // The large square shape carries the enforcement gate; it leads the
    // list so its class is tuned first.
    let shapes: Vec<(usize, usize, usize)> = if cfg.quick {
        vec![(256, 256, 256), (96, 96, 96)]
    } else {
        vec![(320, 320, 320), (96, 96, 96), (128, 512, 128), (512, 64, 512)]
    };
    let enforce_shape = shapes[0];
    eprintln!("math_bench: {} shape(s), seed {}, min of {repeats}", shapes.len(), cfg.seed);

    // A genetic tune over the real kernels picks the schedule for every
    // probed class — the `tune_matmul` path `treu tune` persists through
    // the run cache — and each winner is re-verified bitwise against the
    // naive kernel before it is recorded.
    let ga = if cfg.quick {
        GaParams { population: 8, generations: 5, ..GaParams::default() }
    } else {
        GaParams { population: 12, generations: 8, ..GaParams::default() }
    };
    let mut book = ScheduleBook::new();
    let mut tuned = Vec::new();
    for &shape in &shapes {
        let e = book.tune_matmul(shape, ga, cfg.seed, repeats.min(2));
        eprintln!(
            "  tuned {:>3}x{:>3}x{:>3} (class {}): {:.2} -> {:.2} GFLOP/s",
            shape.0,
            shape.1,
            shape.2,
            e.class.key(),
            e.naive_gflops,
            e.tuned_gflops
        );
        tuned.push(e.clone());
    }

    let results: Vec<ShapeResult> =
        tuned.iter().map(|e| bench_shape(e, cfg.seed, repeats)).collect();
    eprintln!("  shape              class    ijk   axpy  tuned  (GFLOP/s)");
    for r in &results {
        let (m, k, n) = r.shape;
        eprintln!(
            "  {:<18} {:<5} {:>6.2} {:>6.2} {:>6.2}",
            format!("{m}x{k}x{n}"),
            r.class,
            r.ijk_gflops,
            r.axpy_gflops,
            r.tuned_gflops
        );
    }
    let conv = bench_conv(cfg.quick, cfg.seed, repeats);
    eprintln!(
        "  conv {:<24} naive {:.2}  packed {:.2}  (GFLOP/s)",
        conv.label, conv.naive_gflops, conv.packed_gflops
    );

    let mut shape_json = String::new();
    for (i, r) in results.iter().enumerate() {
        let (m, k, n) = r.shape;
        shape_json.push_str(&format!(
            "    {{\"shape\": \"{m}x{k}x{n}\", \"class\": \"{}\", \"ijk_gflops\": {:.4}, \
             \"axpy_gflops\": {:.4}, \"tuned_gflops\": {:.4}}}{}\n",
            r.class,
            r.ijk_gflops,
            r.axpy_gflops,
            r.tuned_gflops,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"math/gemm+conv\",\n  \"seed\": {},\n  \
         \"repeats\": {repeats},\n  \"quick\": {},\n  \
         \"shapes\": [\n{shape_json}  ],\n  \"conv\": {{\"shape\": \"{}\", \
         \"naive_gflops\": {:.4}, \"packed_gflops\": {:.4}}}\n}}\n",
        cfg.seed, cfg.quick, conv.label, conv.naive_gflops, conv.packed_gflops,
    );
    if let Err(e) = std::fs::write(&cfg.out, &json) {
        eprintln!("math_bench: cannot write {}: {e}", cfg.out);
        std::process::exit(2);
    }
    eprintln!("  wrote {}", cfg.out);

    if cfg.enforce {
        let gate = results.iter().find(|r| r.shape == enforce_shape).expect("enforce shape ran");
        let speedup = gate.tuned_gflops / gate.ijk_gflops;
        if speedup < TUNED_SPEEDUP_FLOOR {
            let (m, k, n) = gate.shape;
            eprintln!(
                "math_bench: FAIL — tuned {m}x{k}x{n} is {speedup:.2}x the ijk naive, \
                 under the {TUNED_SPEEDUP_FLOOR}x floor"
            );
            std::process::exit(1);
        }
        for r in &results {
            let ratio = r.tuned_gflops / r.axpy_gflops;
            if ratio < NO_REGRESSION_FLOOR {
                let (m, k, n) = r.shape;
                eprintln!(
                    "math_bench: FAIL — tuned {m}x{k}x{n} is {ratio:.2}x the axpy reference, \
                     under the {NO_REGRESSION_FLOOR}x no-regression floor"
                );
                std::process::exit(1);
            }
        }
        if conv.packed_gflops < conv.naive_gflops * NO_REGRESSION_FLOOR {
            eprintln!(
                "math_bench: FAIL — packed conv ({:.2} GFLOP/s) regressed past the naive \
                 loop ({:.2} GFLOP/s)",
                conv.packed_gflops, conv.naive_gflops
            );
            std::process::exit(1);
        }
        eprintln!(
            "math_bench: PASS — tuned {speedup:.2}x >= {TUNED_SPEEDUP_FLOOR}x on class {}, \
             no shape regressed",
            gate.class
        );
    }
}
