//! The traced run: spans around every call the benchmark makes into a
//! layer, counters read from the program's own reports, and the
//! per-layer metrics derived from both.
//!
//! Spans live in memory and are written as JSON lines when the run ends.
//! A span's self time is its duration minus its children's; a pass's
//! `unattributed_s` is the self time of its root span, i.e. the pass's
//! wall time no layer call accounts for. Work done *inside* one library
//! call (lookups inside `verify_all_*`, stores, trail rendering, frame
//! coding inside the workers) is timed by calling the same public
//! function directly on the same inputs after the pass; experiment
//! compute is read from the attempt spans of the program's own trace.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use treu::core::attest::{hash_bytes, verify_chain, AttestKey, AttestStore, VerifyContext};
use treu::core::cache::run_entry_file;
use treu::core::environment::Environment;
use treu::core::exec::VerifyReport;
use treu::core::exec::{run_supervised, run_supervised_traced, SupervisePolicy};
use treu::core::experiment::{Experiment, Params, RunContext, RunRecord};
use treu::core::fault::FaultPlan;
use treu::core::provenance::Trail;
use treu::core::svc::{execute_task, read_frame, write_frame, SvcConfig, TaskSpec, WorkerPool};
use treu::core::trace::{AttemptOutcome, BatchTrace, RunTrace, TraceEvent};
use treu::core::{CacheStats, ExperimentRegistry, RunCache};
use treu::math::Matrix;

use crate::work::{params, seal, worker_cmd, Bench, Kind, PassOutput, FAULT_SEED, JOBS, WORKERS};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer function, e.g. `cache.open`.
    pub name: &'static str,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    /// Seconds since the recorder's epoch.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The pass (request) the span belongs to; 0 is set-up and probes.
    pub request: u64,
}

/// In-memory span recorder. Off, it only runs the closures.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder::new(false)
    }

    /// A recorder, recording when `on`.
    pub fn new(on: bool) -> Recorder {
        Recorder { on, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    /// Switches recording on or off for the spans that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans that follow with request `r`.
    pub fn set_request(&mut self, r: u64) {
        self.request = r;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start, end: start, parent, request: self.request });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// The most recent root span (no parent) named `name`.
    fn last_root(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.parent.is_none() && s.name == name)
    }

    /// Direct children of span `idx`, summed by name.
    fn child_times(&self, idx: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans[idx..].iter().filter(|s| s.parent == Some(idx)) {
            *out.entry(s.name).or_insert(0.0) += s.end - s.start;
        }
        out
    }

    /// Writes every span as one JSON line with its self time.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start\":{:.9},\"end\":{:.9},\"self\":{:.9}}}",
                s.name,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start,
                s.end,
                s.end - s.start - child[i]
            )?;
        }
        out.flush()
    }
}

/// Per-layer samples by metric name; each metric reports its median.
pub type Samples = BTreeMap<String, Vec<f64>>;

fn add(samples: &mut Samples, name: impl Into<String>, v: f64) {
    samples.entry(name.into()).or_default().push(v);
}

/// Attempt-level facts folded from a batch trace's events and their
/// sidecar timestamps.
#[derive(Debug, Default)]
struct Attempts {
    /// Per id: mean compute of the replicas' successful attempts.
    run_s: Vec<(String, f64)>,
    /// Summed duration of every attempt, failed ones included.
    attempt_s: f64,
    /// Summed claim-to-outcome span of every replica (retries and
    /// backoff included).
    replica_s: f64,
    /// Longest claim-to-outcome replica span.
    critical_path_s: f64,
    /// Measured backoff pauses: backoff event to the next attempt start.
    backoff_s: f64,
}

fn attempts(trace: &BatchTrace) -> Attempts {
    let mut a = Attempts::default();
    for run in &trace.runs {
        // Per replica: claim, current attempt start, pending backoff, ok
        // attempt duration.
        let mut claim: BTreeMap<u32, f64> = BTreeMap::new();
        let mut start: BTreeMap<u32, f64> = BTreeMap::new();
        let mut backoff: BTreeMap<u32, f64> = BTreeMap::new();
        let mut ok: Vec<f64> = Vec::new();
        for (_, ev, at) in run.events() {
            match ev {
                TraceEvent::Claim { replica } => {
                    claim.insert(*replica, *at);
                }
                TraceEvent::Backoff { replica, .. } => {
                    backoff.insert(*replica, *at);
                }
                TraceEvent::AttemptStart { replica, .. } => {
                    if let Some(b) = backoff.remove(replica) {
                        a.backoff_s += at - b;
                    }
                    start.insert(*replica, *at);
                }
                TraceEvent::AttemptEnd { replica, outcome, .. } => {
                    if let Some(s) = start.remove(replica) {
                        a.attempt_s += at - s;
                        if matches!(outcome, AttemptOutcome::Ok) {
                            ok.push(at - s);
                        }
                    }
                }
                TraceEvent::Outcome { replica, .. } => {
                    if let Some(c) = claim.remove(replica) {
                        a.replica_s += at - c;
                        a.critical_path_s = a.critical_path_s.max(at - c);
                    }
                }
                _ => {}
            }
        }
        if !ok.is_empty() {
            a.run_s.push((run.id.clone(), ok.iter().sum::<f64>() / ok.len() as f64));
        }
    }
    a
}

/// Experiment and `exec` metrics of one computed verify batch that ran
/// `jobs` threads for `wall` seconds.
fn compute_metrics(samples: &mut Samples, trace: &BatchTrace, jobs: usize, wall: f64) {
    let a = attempts(trace);
    for (id, s) in &a.run_s {
        add(samples, format!("experiments.{id}.run_s"), *s);
    }
    add(samples, "exec.utilization", a.attempt_s / (jobs as f64 * wall));
    add(samples, "exec.critical_path_s", a.critical_path_s);
    add(samples, "exec.attempts", trace.counters().attempts as f64);
}

/// Metrics a set-up contributes: `reverify-warm` computes only while
/// filling its cache, so its experiment and `exec` metrics come from
/// that fill.
pub fn after_setup(bench: &Bench, samples: &mut Samples) {
    if let Some(fill) = &bench.fill {
        compute_metrics(samples, &fill.trace, JOBS, fill.wall_seconds);
    }
}

fn elapsed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

/// Re-times the cache, provenance and trace work a pass does inside
/// library calls, on the workload's own records: lookups into `lookup`
/// (an empty directory for a cold pass), stores into a fresh directory.
/// Returns the re-timed `RunCache::open` of `lookup`.
fn retime_records(
    samples: &mut Samples,
    bench: &Bench,
    lookup: &Path,
    scratch: &Path,
) -> io::Result<f64> {
    let (seed, recs) = (bench.seed, &bench.records);
    let (cache, open_s) = elapsed(|| RunCache::open(lookup));
    let cache = cache?;
    let (_, t) = elapsed(|| {
        for (id, p, _) in recs {
            black_box(cache.lookup_classified(id, seed, p));
        }
    });
    add(samples, "cache.lookup_s", t);
    let store = RunCache::open(&scratch.join("store"))?;
    let (stored, t) =
        elapsed(|| recs.iter().try_for_each(|(id, p, r)| store.store(id, seed, p, r)));
    stored?;
    add(samples, "cache.store_s", t);
    let (rendered, t) =
        elapsed(|| recs.iter().map(|(_, _, r)| r.trail.render()).collect::<Vec<_>>());
    add(samples, "provenance.render_s", t);
    let (_, t) = elapsed(|| {
        for text in &rendered {
            black_box(Trail::parse(text));
        }
    });
    add(samples, "provenance.parse_s", t);
    let (_, t) = elapsed(|| {
        for (_, _, r) in recs {
            black_box(r.trail.fingerprint());
        }
    });
    add(samples, "provenance.fingerprint_s", t);
    Ok(open_s)
}

/// Sizes of the cache entries behind `recs` under `dir`.
fn entry_bytes(recs: &[(String, Params, RunRecord)], seed: u64, dir: &Path) -> f64 {
    recs.iter().map(|(id, p, _)| file_len(&dir.join(run_entry_file(id, seed, p)))).sum()
}

/// A chain walk over `attest`, re-hashing against `cache` and `trace`.
fn walk(bench: &Bench, attest: &Path, cache: &Path, trace: &Path) -> io::Result<(usize, f64)> {
    let store = AttestStore::open(attest);
    let key = AttestKey::load(&store.key_path())?;
    let ctx = VerifyContext {
        cache_dir: Some(cache),
        trace_dir: Some(trace),
        registry_index_hash: Some(hash_bytes(bench.reg.render_index().as_bytes())),
        env_fingerprint: Some(Environment::capture().fingerprint()),
    };
    let (report, t) = elapsed(|| verify_chain(&store, &key, &ctx));
    if !report.ok() {
        return Err(io::Error::other("re-timed chain walk failed"));
    }
    Ok((report.rehashed, t))
}

/// Bytes of every artifact a chain walk re-hashes: the cache entries
/// under `cache` and the trace stream `trace_file`.
fn rehash_bytes(
    recs: &[(String, Params, RunRecord)],
    seed: u64,
    cache: &Path,
    trace_file: &Path,
) -> f64 {
    entry_bytes(recs, seed, cache) + file_len(trace_file)
}

/// Frame bytes and re-timed frame coding of the captured wire traffic
/// under `dir`: every frame is decoded with `read_frame` and encoded
/// again with `write_frame`.
fn frames(samples: &mut Samples, dir: &Path) -> io::Result<()> {
    let mut streams: Vec<Vec<u8>> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        streams.push(std::fs::read(entry?.path())?);
    }
    let bytes: usize = streams.iter().map(Vec::len).sum();
    let ((), t) = elapsed(|| {
        for s in &streams {
            let mut r = BufReader::new(s.as_slice());
            // A killed worker's stream may end mid-frame; its last whole
            // frame is where the coordinator stopped reading too.
            while let Ok(Some(payload)) = read_frame(&mut r) {
                let mut out = Vec::with_capacity(payload.len() + 12);
                write_frame(&mut out, &payload).expect("writing to memory");
                black_box(out);
            }
        }
    });
    add(samples, "svc.frame_bytes", bytes as f64);
    add(samples, "svc.frame_s", t);
    Ok(())
}

/// Per-layer samples of one traced pass: span times from `rec` and
/// counters from the pass's reports, plus — when `retime` — the inner
/// calls re-timed on the pass's inputs, writing under the empty
/// directory `scratch`.
pub fn after_pass(
    bench: &Bench,
    out: &PassOutput,
    rec: &Recorder,
    retime: bool,
    scratch: &Path,
    samples: &mut Samples,
) -> io::Result<()> {
    let root = rec.last_root("pass").expect("a traced pass records its root span");
    let wall = rec.spans[root].end - rec.spans[root].start;
    let spans = rec.child_times(root);
    let span = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    add(samples, "unattributed_s", wall - spans.values().sum::<f64>());
    let (seed, recs) = (bench.seed, &bench.records);
    std::fs::create_dir_all(scratch)?;
    match out {
        PassOutput::Cold(cold) => {
            compute_metrics(samples, &cold.report.trace, JOBS, span("exec.verify_all"));
            pass_counts(samples, &cold.report.trace, cold.cache.stats());
            add(samples, "cache.bytes_read", 0.0);
            add(samples, "cache.bytes_written", entry_bytes(recs, seed, &cold.dirs.cache));
            add(samples, "cache.open_s", span("cache.open"));
            trace_counts(samples, &cold.report.trace);
            add(samples, "trace.write_s", span("trace.write"));
            add(samples, "attest.seal_s", span("attest.seal"));
            no_svc(samples);
            if retime {
                retime_records(samples, bench, &scratch.join("empty"), scratch)?;
                let (rehashed, t) =
                    walk(bench, &cold.dirs.attest, &cold.dirs.cache, &cold.dirs.trace)?;
                add(samples, "attest.verify_chain_s", t);
                add(samples, "attest.artifacts_rehashed", rehashed as f64);
                startup_retime(samples);
            }
            let trace_file = cold.dirs.trace.join(cold.report.trace.file_name());
            let bytes = rehash_bytes(recs, seed, &cold.dirs.cache, &trace_file);
            add(samples, "attest.bytes_rehashed", bytes);
        }
        PassOutput::Warm { report, cache, chain } => {
            let warm = bench.warm.as_ref().expect("reverify-warm keeps its fill");
            pass_counts(samples, &report.trace, cache.stats());
            add(samples, "cache.bytes_read", entry_bytes(recs, seed, &warm.dirs.cache));
            add(samples, "cache.bytes_written", 0.0);
            add(samples, "cache.open_s", span("cache.open"));
            trace_counts(samples, &report.trace);
            add(
                samples,
                "attest.verify_chain_s",
                span("attest.key_load") + span("attest.verify_chain"),
            );
            add(samples, "attest.artifacts_rehashed", chain.rehashed as f64);
            let bytes = rehash_bytes(recs, seed, &warm.dirs.cache, &warm.trace_file);
            add(samples, "attest.bytes_rehashed", bytes);
            add(samples, "startup.registry_s", span("startup.registry"));
            add(samples, "startup.env_capture_s", span("startup.env_capture"));
            no_svc(samples);
            if retime {
                retime_records(samples, bench, &warm.dirs.cache, scratch)?;
                retime_trace_and_seal(samples, bench, report, cache, scratch)?;
            }
        }
        PassOutput::Chaos { report, stats } => {
            let a = attempts(&report.trace);
            let svc_s = span("svc.verify_all");
            compute_metrics(samples, &report.trace, WORKERS, svc_s);
            pass_counts(samples, &report.trace, CacheStats::default());
            add(samples, "fault.backoff_s", a.backoff_s);
            add(samples, "cache.bytes_read", 0.0);
            add(samples, "cache.bytes_written", 0.0);
            trace_counts(samples, &report.trace);
            add(samples, "svc.spawned", f64::from(stats.spawned));
            add(samples, "svc.shards", f64::from(stats.shards));
            add(samples, "svc.requeues", f64::from(stats.requeues));
            add(samples, "svc.kills", f64::from(stats.kills));
            add(samples, "svc.utilization", a.replica_s / (WORKERS as f64 * svc_s));
            add(
                samples,
                "svc.useful_shard_ratio",
                f64::from(stats.shards - stats.requeues) / f64::from(stats.shards.max(1)),
            );
            frames(samples, &bench.capture_dir())?;
            if retime {
                let open_s = retime_records(samples, bench, &bench.records_dir, scratch)?;
                add(samples, "cache.open_s", open_s);
                let cache = RunCache::open(&bench.records_dir)?;
                retime_trace_and_seal(samples, bench, report, &cache, scratch)?;
                let trace_dir = scratch.join("trace");
                let (rehashed, t) =
                    walk(bench, &scratch.join("attest"), &bench.records_dir, &trace_dir)?;
                add(samples, "attest.verify_chain_s", t);
                add(samples, "attest.artifacts_rehashed", rehashed as f64);
                let trace_file = trace_dir.join(report.trace.file_name());
                let bytes = rehash_bytes(recs, seed, &bench.records_dir, &trace_file);
                add(samples, "attest.bytes_rehashed", bytes);
                startup_retime(samples);
            }
        }
    }
    Ok(())
}

/// Counts a pass's own reports carry: injected faults from its trace,
/// cache traffic from its cache handle.
fn pass_counts(samples: &mut Samples, trace: &BatchTrace, stats: CacheStats) {
    add(samples, "fault.injected", trace.counters().faults_injected as f64);
    add(samples, "cache.hits", stats.hits as f64);
    add(samples, "cache.stores", stats.stores as f64);
}

/// Re-times the trace write and the link seal a pass's report would
/// cost, into `scratch` (workloads whose passes do neither).
fn retime_trace_and_seal(
    samples: &mut Samples,
    bench: &Bench,
    report: &VerifyReport,
    cache: &RunCache,
    scratch: &Path,
) -> io::Result<()> {
    let (written, t) = elapsed(|| report.trace.write(&scratch.join("trace")));
    written?;
    add(samples, "trace.write_s", t);
    let (sealed, t) =
        elapsed(|| seal(&bench.reg, bench.seed, cache, report, &scratch.join("attest")));
    sealed?;
    add(samples, "attest.seal_s", t);
    Ok(())
}

fn trace_counts(samples: &mut Samples, trace: &BatchTrace) {
    add(samples, "trace.events", trace.counters().events as f64);
    add(samples, "trace.bytes", (trace.render_events().len() + trace.render_times().len()) as f64);
}

/// Start-up cost for workloads whose passes reuse the set-up's registry:
/// the same two calls a fresh process makes, timed directly.
fn startup_retime(samples: &mut Samples) {
    let (_, t) = elapsed(|| black_box(treu::full_registry()));
    add(samples, "startup.registry_s", t);
    let (_, t) = elapsed(|| black_box(Environment::capture()));
    add(samples, "startup.env_capture_s", t);
}

/// Service counters of a pass that uses no worker processes.
fn no_svc(samples: &mut Samples) {
    for name in ["svc.spawned", "svc.shards", "svc.requeues", "svc.kills", "svc.utilization"] {
        add(samples, name, 0.0);
    }
    add(samples, "svc.useful_shard_ratio", 0.0);
    add(samples, "svc.frame_bytes", 0.0);
}

/// GEMM shape classes the registry's nn layers call through
/// `Matrix::matmul`, each at its most frequent shape in a conformance
/// verify (together over 85 % of the registry's GEMM flops).
pub const GEMM_SHAPES: [(&str, usize, usize, usize); 6] = [
    ("tss", 1, 32, 32),
    ("ttt", 6, 6, 6),
    ("tst", 1, 32, 5),
    ("tts", 1, 6, 32),
    ("ssl", 16, 48, 256),
    ("sms", 32, 64, 24),
];

/// Sequential `Matrix::matmul` GFLOP/s per shape class: the median of
/// five batches, each at least 20 ms.
fn gemm_probe(samples: &mut Samples) {
    for (class, m, k, n) in GEMM_SHAPES {
        let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 2) % 13) as f64 * 0.1 - 0.6);
        let flops = 2.0 * (m * k * n) as f64;
        let mut iters = 1usize;
        loop {
            let (_, t) = elapsed(|| {
                for _ in 0..iters {
                    black_box(black_box(&a).matmul(black_box(&b)));
                }
            });
            if t >= 0.02 {
                break;
            }
            iters *= 2;
        }
        let mut rates = Vec::new();
        for _ in 0..5 {
            let (_, t) = elapsed(|| {
                for _ in 0..iters {
                    black_box(black_box(&a).matmul(black_box(&b)));
                }
            });
            rates.push(flops * iters as f64 / t / 1e9);
        }
        rates.sort_by(f64::total_cmp);
        add(samples, format!("math.gemm.{class}.gflops"), rates[2]);
    }
}

/// An experiment that does nothing, so a call of it costs only the
/// code around it.
struct Noop;

impl Experiment for Noop {
    fn name(&self) -> &str {
        "noop"
    }

    fn run(&self, _: &mut RunContext) {}
}

/// The supervisor's own cost per verify: `run_supervised` at zero
/// retries minus bare `run_with`, per call on an experiment that does
/// nothing (so no compute hides it) at T1's parameters, times the
/// registry's ids. Each
/// round times `CALLS` calls of either side, the sides alternating which
/// goes first so drift falls on both; the median round counts.
fn supervise_probe(bench: &Bench, samples: &mut Samples) {
    const CALLS: u32 = 100_000;
    const ROUNDS: usize = 15;
    let mut reg = ExperimentRegistry::new();
    reg.register("noop", "perfbench", "does nothing", Params::new(), Box::new(Noop));
    let runner = reg.get("noop").expect("registered above").runner();
    let (seed, p, policy) = (bench.seed, params("T1", Params::new()), SupervisePolicy::new(0));
    let bare = || {
        elapsed(|| {
            for _ in 0..CALLS {
                black_box(reg.run_with("noop", seed, p.clone()));
            }
        })
        .1
    };
    let sup = || {
        elapsed(|| {
            for _ in 0..CALLS {
                black_box(run_supervised(runner, "noop", seed, &p, &policy, None, 0));
            }
        })
        .1
    };
    let mut diffs: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            if round % 2 == 0 {
                let b = bare();
                sup() - b
            } else {
                let s = sup();
                s - bare()
            }
        })
        .collect();
    diffs.sort_by(f64::total_cmp);
    let per_call = diffs[ROUNDS / 2] / f64::from(CALLS);
    add(samples, "exec.supervise_overhead_s", per_call * bench.reg.len() as f64);
}

/// A `T1` task: the cheapest registry experiment, so a task's cost is
/// the service's own.
fn trivial_task(bench: &Bench, index: usize) -> TaskSpec {
    TaskSpec {
        index,
        id: "T1".to_string(),
        seed: bench.seed,
        replica: 0,
        params: params("T1", Params::new()),
        retries: 0,
        deadline_us: 0,
        cache: false,
    }
}

/// Service probes on one worker: a fresh pool's round trip for one
/// trivial task (spawn, handshake, one shard, shutdown), and the
/// marginal cost of each further one-task shard beyond executing the
/// task in-process; each the median of three. With `capture`, one more
/// untimed pool of the same tasks records its wire traffic there.
fn svc_probe(bench: &Bench, samples: &mut Samples, capture: Option<&Path>) -> Result<(), String> {
    // Enough one-task shards that the shutdown handshake's polling slack
    // (up to 10 ms per pool) stays small against their summed overhead.
    const N: usize = 201;
    let pool = |n: usize, capture: Option<&Path>| -> Result<f64, String> {
        let cmd = worker_cmd(capture)?;
        let pool = WorkerPool::new(SvcConfig::new(1).with_shard_size(1).with_worker_cmd(cmd));
        let tasks = (0..n).map(|i| trivial_task(bench, i)).collect();
        let (res, t) = elapsed(|| pool.run_tasks(&bench.reg, tasks, None, None, bench.seed));
        let (outputs, _) = res.map_err(|e| format!("svc probe: {e}"))?;
        if outputs.iter().any(|o| !o.outcome.is_ok()) {
            return Err("svc probe: trivial task failed".to_string());
        }
        Ok(t)
    };
    let median3 = |f: &dyn Fn() -> Result<f64, String>| -> Result<f64, String> {
        let mut xs = [f()?, f()?, f()?];
        xs.sort_by(f64::total_cmp);
        Ok(xs[1])
    };
    let one = median3(&|| pool(1, None))?;
    let many = median3(&|| pool(N, None))?;
    let task = trivial_task(bench, 0);
    let epoch = Instant::now();
    let inproc = median3(&|| {
        Ok(elapsed(|| {
            for _ in 0..N - 1 {
                black_box(execute_task(&bench.reg, &task, None, None, false, epoch));
            }
        })
        .1)
    })?;
    add(samples, "svc.spawn_s", one);
    add(samples, "svc.task_overhead_s", (many - one - inproc) / (N - 1) as f64);
    if capture.is_some() {
        pool(N, capture)?;
    }
    Ok(())
}

/// One injected transient fault on `T1`, supervised to convergence: the
/// measured backoff pause (workloads without a fault plan).
fn backoff_probe(bench: &Bench, samples: &mut Samples) {
    let plan = FaultPlan::transient(FAULT_SEED, 1.0);
    let policy = SupervisePolicy::new(plan.max_transient_attempts());
    let entry = bench.reg.get("T1").expect("the registry holds T1");
    let mut rt = RunTrace::new("T1", bench.seed);
    let epoch = Instant::now();
    let p = params("T1", Params::new());
    let out = run_supervised_traced(
        entry.runner(),
        "T1",
        bench.seed,
        &p,
        &policy,
        Some(&plan),
        0,
        Some((&mut rt, epoch)),
    );
    assert!(out.is_ok(), "a transient fault heals within max_transient_attempts retries");
    let trace = BatchTrace { runs: vec![rt], ..BatchTrace::empty("probe", bench.seed) };
    add(samples, "fault.backoff_s", attempts(&trace).backoff_s);
}

/// Probes run once per traced run, after the passes: kernels, the
/// supervision wrapper, the service's fixed costs, and — where the
/// workload's passes have none — fault recovery and frame coding.
pub fn probes(bench: &Bench, scratch: &Path, samples: &mut Samples) -> Result<(), String> {
    gemm_probe(samples);
    supervise_probe(bench, samples);
    let capture: Option<PathBuf> =
        (bench.kind != Kind::VerifyShardedChaos).then(|| scratch.join("probe-frames"));
    svc_probe(bench, samples, capture.as_deref())?;
    if let Some(dir) = &capture {
        let mut frame_samples = Samples::new();
        frames(&mut frame_samples, dir).map_err(|e| format!("frames: {e}"))?;
        add(samples, "svc.frame_s", frame_samples["svc.frame_s"][0]);
    }
    if bench.kind != Kind::VerifyShardedChaos {
        backoff_probe(bench, samples);
    }
    Ok(())
}

/// Every per-layer metric a traced run reports, with its unit, in
/// report order.
pub fn catalogue(reg: &ExperimentRegistry) -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        reg.iter().map(|(id, _)| (format!("experiments.{id}.run_s"), "s")).collect();
    out.extend(GEMM_SHAPES.iter().map(|(c, ..)| (format!("math.gemm.{c}.gflops"), "GFLOP/s")));
    let fixed: [(&str, &'static str); 37] = [
        ("exec.utilization", "ratio"),
        ("exec.critical_path_s", "s"),
        ("exec.supervise_overhead_s", "s"),
        ("exec.attempts", "count"),
        ("fault.injected", "count"),
        ("fault.backoff_s", "s"),
        ("svc.spawn_s", "s"),
        ("svc.task_overhead_s", "s"),
        ("svc.frame_s", "s"),
        ("svc.frame_bytes", "bytes"),
        ("svc.spawned", "count"),
        ("svc.shards", "count"),
        ("svc.requeues", "count"),
        ("svc.kills", "count"),
        ("svc.utilization", "ratio"),
        ("svc.useful_shard_ratio", "ratio"),
        ("cache.open_s", "s"),
        ("cache.lookup_s", "s"),
        ("cache.bytes_read", "bytes"),
        ("cache.hits", "count"),
        ("cache.store_s", "s"),
        ("cache.bytes_written", "bytes"),
        ("cache.stores", "count"),
        ("provenance.parse_s", "s"),
        ("provenance.render_s", "s"),
        ("provenance.fingerprint_s", "s"),
        ("trace.events", "count"),
        ("trace.bytes", "bytes"),
        ("trace.write_s", "s"),
        ("attest.verify_chain_s", "s"),
        ("attest.artifacts_rehashed", "count"),
        ("attest.bytes_rehashed", "bytes"),
        ("attest.seal_s", "s"),
        ("startup.registry_s", "s"),
        ("startup.env_capture_s", "s"),
        ("unattributed_s", "s"),
        ("trace_overhead", "ratio"),
    ];
    out.extend(fixed.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}
