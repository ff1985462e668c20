//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload verify-cold|reverify-warm|verify-sharded-chaos
//!           [--seed N] [--seconds S] [--trace 0|1] [--passes N]
//!           [--drill forge-entry|foreign-fingerprint|no-kills] [--work-dir DIR]
//! ```
//!
//! Sets the workload up five times, each set-up followed by a window of
//! timed passes in a closed loop — one client, each pass after the
//! previous one completed — the windows together lasting `--seconds` (or
//! running `--passes`), so set-ups and passes sample the machine alike
//! over the whole run. Every pass is gated on committed content addresses
//! (see `work`); a pass that fails its gate counts as failed, never as a
//! fast pass, and makes the exit code 1. The last line of standard output
//! is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics (see `layers`).
//! Above it, one line per metric gives its median, quartiles, sample
//! count and unit.
//!
//! End-to-end metrics: `setup_s`, the median of the five set-ups;
//! `pass_s` and `cpu_s` (user + system time of every thread and reaped
//! worker), medians over blocks of consecutive passes lasting at least a
//! second, of the per-pass mean in each block — a cold or chaos pass is a
//! block of its own, and several hundred warm requests make one; and
//! `peak_rss_mb`, the median peak RSS of three fresh processes that each
//! run one gated pass, as a user's command would. `reverify-warm` also
//! reports `pass_p95_s`, the 95th percentile of single requests, once
//! ten requests lie beyond it (`stats::p95`).
//!
//! `--seed` is the run seed every experiment receives (default 2023, the
//! seed the committed addresses were recorded at). Scratch state lives
//! under `--work-dir` (default `.bench_work` in the current directory)
//! and is removed at exit; traced runs leave their span file there.

mod layers;
mod stats;
mod work;

use std::path::{Path, PathBuf};
use std::time::Instant;

use layers::{Recorder, Samples};
use stats::Summary;
use work::{Bench, Drill, Kind, PassOutput, Reference};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Shortest block of consecutive passes one `pass_s`/`cpu_s` sample
/// covers (see `stats::block_means`).
const BLOCK_S: f64 = 1.0;

/// Fresh processes whose median peak RSS is `peak_rss_mb`.
const RSS_PROCESSES: usize = 3;

/// Traced passes whose inner calls are re-timed. Re-timing writes files
/// between passes; capping it keeps most traced/plain pass pairs free of
/// that disturbance, so their ratio prices the tracing alone.
const RETIMED_PASSES: usize = 24;

const USAGE: &str = "usage: perfbench --workload verify-cold|reverify-warm|verify-sharded-chaos \
     [--seed N] [--seconds S] [--trace 0|1] [--passes N] \
     [--drill forge-entry|foreign-fingerprint|no-kills] [--work-dir DIR]\n       \
     perfbench worker [--capture DIR]\n       \
     perfbench rss-pass WORKLOAD SEED DIR DIGEST TRACE ARTIFACTS";

/// Checked command line.
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    passes: Option<usize>,
    drill: Option<Drill>,
    work_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut args = Args {
        kind: Kind::VerifyCold,
        seed: work::COMMITTED_SEED,
        seconds: 10.0,
        trace: false,
        passes: None,
        drill: None,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("invalid {flag} value '{value}'");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--passes" => {
                args.passes = Some(value.parse().ok().filter(|&n: &usize| n >= 1).ok_or_else(bad)?)
            }
            "--drill" => args.drill = Some(Drill::parse(value).ok_or_else(bad)?),
            "--work-dir" => args.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.kind = kind.ok_or("--workload is required")?;
    if let Some(d) = args.drill.filter(|d| d.kind() != args.kind) {
        return Err(format!("that --drill applies to {} only", d.kind().name()));
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    quiet_injected_faults();
    match argv.first().map(String::as_str) {
        Some("worker") => std::process::exit(work::serve_worker(&argv[1..])),
        Some("rss-pass") => std::process::exit(rss_pass(&argv[1..])),
        _ => {}
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let dir =
        args.work_dir.join(format!("{}-{}-{}", args.kind.name(), args.seed, std::process::id()));
    let code = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    std::process::exit(code);
}

/// Injected faults panic by design and the supervisor catches them; keep
/// the default report for every other panic.
fn quiet_injected_faults() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let p = info.payload();
        let msg =
            p.downcast_ref::<&str>().copied().or(p.downcast_ref::<String>().map(String::as_str));
        if !msg.is_some_and(|m| m.starts_with("injected fault")) {
            default(info);
        }
    }));
}

/// Samples of the end-to-end metrics.
#[derive(Default)]
struct EndToEnd {
    setup_s: Vec<f64>,
    pass_s: Vec<f64>,
    cpu_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
}

fn run(args: &Args, dir: &Path) -> i32 {
    let mut rec = Recorder::new(args.trace);
    let mut e2e = EndToEnd::default();
    let mut layer = Samples::new();
    // A traced run alternates traced and plain passes, so their medians
    // price the tracing itself.
    let min_passes = if args.trace { 2 } else { 1 };
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut bench: Option<Bench> = None;
    // Seconds spent in the pass windows so far.
    let mut measured = 0.0;
    for k in 1..=SETUPS {
        let t0 = Instant::now();
        let b = rec
            .span("setup", |_| Bench::setup(args.kind, args.seed, dir.join(format!("setup-{k}"))));
        let t = t0.elapsed().as_secs_f64();
        let mut b = match b {
            Ok(b) => b,
            Err(e) => {
                eprintln!("perfbench: set-up failed its gate: {e}");
                println!("{}", result_json(false, 1, 1, &[]));
                return 1;
            }
        };
        e2e.setup_s.push(t);
        if args.trace {
            layers::after_setup(&b, &mut layer);
        }
        b.fill = None;
        if let Some(d) = args.drill {
            if let Err(e) = b.apply_drill(d) {
                eprintln!("perfbench: drill: {e}");
                return 2;
            }
        }
        if let Some(old) = bench.replace(b) {
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let bench = bench.as_mut().expect("set up above");
        // Window k runs until the run's k-th share of passes or seconds.
        let window = Instant::now();
        loop {
            let done = match args.passes {
                Some(n) => attempted >= (n.max(min_passes) * k).div_ceil(SETUPS),
                None => {
                    let share = args.seconds * k as f64 / SETUPS as f64;
                    measured + window.elapsed().as_secs_f64() >= share
                        && (k < SETUPS || attempted >= min_passes)
                }
            };
            if done {
                break;
            }
            attempted += 1;
            let traced = args.trace && attempted % 2 == 1;
            rec.set_on(traced);
            rec.set_request(attempted as u64);
            let cpu0 = stats::cpu_s();
            let t0 = Instant::now();
            let out = rec.span("pass", |rec| bench.pass(rec));
            let wall = t0.elapsed().as_secs_f64();
            let cpu = stats::cpu_s() - cpu0;
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    failed += 1;
                    eprintln!("perfbench: pass {attempted} failed its gate: {e}");
                    continue;
                }
            };
            e2e.pass_s.push(wall);
            e2e.cpu_s.push(cpu);
            if traced {
                traced_s.push(wall);
                let retime = traced_s.len() <= RETIMED_PASSES;
                let scratch = dir.join(format!("retime-{attempted}"));
                if let Err(e) = layers::after_pass(bench, &out, &rec, retime, &scratch, &mut layer)
                {
                    eprintln!("perfbench: re-timing pass {attempted}: {e}");
                    failed += 1;
                }
                let _ = std::fs::remove_dir_all(&scratch);
            } else if args.trace {
                plain_s.push(wall);
            }
            if let PassOutput::Cold(cold) = &out {
                let _ = std::fs::remove_dir_all(&cold.dirs.root);
            }
        }
        measured += window.elapsed().as_secs_f64();
        rec.set_on(args.trace);
        rec.set_request(0);
    }
    let bench = bench.expect("at least one set-up");
    // Peak RSS comes from fresh processes, one pass each: in this one,
    // the mark mostly records what set-up and earlier passes left in the
    // allocator and thread-stack caches, which varies run to run.
    if !args.trace {
        for k in 0..RSS_PROCESSES {
            attempted += 1;
            match pass_rss(&bench, k) {
                Ok(mb) => e2e.peak_rss_mb.push(mb),
                Err(e) => {
                    failed += 1;
                    eprintln!("perfbench: {e}");
                }
            }
        }
    }
    let mut metrics: Vec<(String, &'static str, Summary)> = Vec::new();
    if args.trace {
        if let Err(e) =
            rec.span("probes", |_| layers::probes(&bench, &dir.join("probes"), &mut layer))
        {
            eprintln!("perfbench: probes: {e}");
            failed += 1;
        }
        if !traced_s.is_empty() && !plain_s.is_empty() {
            let overhead = Summary::of(&traced_s).median / Summary::of(&plain_s).median - 1.0;
            layer.insert("trace_overhead".to_string(), vec![overhead]);
        }
        for (name, unit) in layers::catalogue(&bench.reg) {
            if let Some(xs) = layer.get(&name).filter(|xs| !xs.is_empty()) {
                metrics.push((name, unit, Summary::of(xs)));
            }
        }
        if let Err(e) = write_spans(&rec, args, dir) {
            eprintln!("perfbench: spans: {e}");
        }
    } else if !e2e.pass_s.is_empty() && !e2e.peak_rss_mb.is_empty() {
        let block = |xs: &[f64]| Summary::of(&stats::block_means(&e2e.pass_s, xs, BLOCK_S));
        metrics.push(("setup_s".into(), "s", Summary::of(&e2e.setup_s)));
        metrics.push(("pass_s".into(), "s", block(&e2e.pass_s)));
        if let Some(p95) = stats::p95(&e2e.pass_s).filter(|_| args.kind == Kind::ReverifyWarm) {
            let n = e2e.pass_s.len();
            metrics.push(("pass_p95_s".into(), "s", Summary { n, q1: p95, median: p95, q3: p95 }));
        }
        metrics.push(("cpu_s".into(), "s", block(&e2e.cpu_s)));
        metrics.push(("peak_rss_mb".into(), "MiB", Summary::of(&e2e.peak_rss_mb)));
    }
    println!(
        "# {} seed {} — {} pass(es), {} failed",
        args.kind.name(),
        args.seed,
        attempted,
        failed
    );
    println!(
        "# {:<34} {:>13} {:>13} {:>13} {:>7} {:>5}  unit",
        "metric", "median", "q1", "q3", "iqr/med", "n"
    );
    for (name, unit, s) in &metrics {
        println!(
            "# {name:<34} {:>13.6e} {:>13.6e} {:>13.6e} {:>7.4} {:>5}  {unit}",
            s.median,
            s.q1,
            s.q3,
            s.spread(),
            s.n
        );
    }
    let correct = failed == 0 && !metrics.is_empty();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        0
    } else {
        1
    }
}

/// Peak RSS, in MiB, of a fresh process running one gated pass of
/// `bench`'s workload — what a user's command reaches. For
/// `verify-sharded-chaos` that process is the coordinator.
fn pass_rss(bench: &Bench, k: usize) -> Result<f64, String> {
    let dir = match bench.kind {
        Kind::ReverifyWarm => bench.dir.clone(),
        _ => bench.dir.join(format!("rss-{k}")),
    };
    let hex = |v: Option<u64>| v.map_or("none".to_string(), |v| format!("{v:#x}"));
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["rss-pass", bench.kind.name(), &bench.seed.to_string()])
        .arg(&dir)
        .args([hex(bench.reference.digest), hex(bench.reference.trace)])
        .arg(bench.named_artifacts.to_string())
        .output()
        .map_err(|e| format!("rss-pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), stdout.lines().last().map(str::parse::<f64>)) {
        (true, Some(Ok(mb))) => Ok(mb),
        _ => Err(format!("rss-pass failed: {}", String::from_utf8_lossy(&out.stderr).trim())),
    }
}

/// `perfbench rss-pass WORKLOAD SEED DIR DIGEST TRACE ARTIFACTS`: one
/// pass of WORKLOAD in this fresh process, gated on the reference DIGEST
/// and TRACE (`none` when unchecked), writing under DIR (where a
/// `reverify-warm` set-up left its filled state); prints the process's
/// peak RSS in MiB. Exits 1 when the pass fails its gate, 2 on bad
/// arguments.
fn rss_pass(args: &[String]) -> i32 {
    let hex = |s: &str| -> Option<Option<u64>> {
        match s {
            "none" => Some(None),
            _ => u64::from_str_radix(s.strip_prefix("0x")?, 16).ok().map(Some),
        }
    };
    let parsed = || -> Option<(Kind, u64, PathBuf, Reference, usize)> {
        let [kind, seed, dir, digest, trace, artifacts] = args else { return None };
        let reference = Reference { digest: hex(digest)?, trace: hex(trace)? };
        Some((
            Kind::parse(kind)?,
            seed.parse().ok()?,
            dir.into(),
            reference,
            artifacts.parse().ok()?,
        ))
    };
    let Some((kind, seed, dir, reference, artifacts)) = parsed() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let pass = Bench::resume(kind, seed, dir, reference, artifacts)
        .and_then(|mut b| b.pass(&mut Recorder::off()).map(|_| ()));
    match pass {
        Ok(()) => {
            println!("{:?}", stats::peak_rss_mb());
            0
        }
        Err(e) => {
            eprintln!("perfbench: rss-pass: {e}");
            1
        }
    }
}

/// Writes the traced run's spans next to the work directory, which is
/// removed at exit.
fn write_spans(rec: &Recorder, args: &Args, dir: &Path) -> std::io::Result<()> {
    let parent = dir.parent().unwrap_or(Path::new("."));
    std::fs::create_dir_all(parent)?;
    let path = parent.join(format!("spans-{}-{}.jsonl", args.kind.name(), args.seed));
    rec.write(&path)?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

/// The result line. A metric's value is its median, written with every
/// digit Rust's shortest round-trip formatting gives.
fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, &'static str, Summary)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, s)| {
            format!("\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}", s.median)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
