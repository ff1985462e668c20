//! Crash-tolerant sharded verification service.
//!
//! Promotes the single-process [`crate::exec::Executor`] into a
//! coordinator/worker architecture: `treu worker` subprocesses speak a
//! length-prefixed JSONL protocol over stdin/stdout, the coordinator shards
//! the task list across N workers with shard-level work stealing, and a
//! supervision tree makes the whole thing crash-tolerant:
//!
//! * per-worker heartbeat + no-progress watchdog (the same `recv_timeout`
//!   discipline as [`crate::exec`]'s per-run deadline),
//! * crash/hang detection that requeues the dead worker's in-flight shard
//!   exactly once per incarnation,
//! * deterministic doubling backoff on worker respawn (seeded, via
//!   [`crate::fault::backoff_millis`]),
//! * a bounded respawn budget after which the coordinator degrades
//!   gracefully to in-process execution of the orphaned shards — it never
//!   aborts the registry.
//!
//! Because every result and trace event is a pure function of
//! `(id, seed, params, policy, plan, replica)`, outputs can be computed on
//! any worker, killed and recomputed, and merged index-ordered into the
//! existing schedule-independent trace stream: fingerprints and trace
//! addresses are bitwise-identical at every (process count, jobs-per-worker,
//! kill schedule) topology.
//!
//! The run cache and attestation links ([`crate::attest`]) are
//! **coordinator-side only**. [`crate::batch`] looks up every id before it
//! ships tasks and stores every result after the merge, so a worker never
//! opens the cache: a killed worker takes no cache count with it, and a
//! fully cached batch spawns no worker. Links are sealed after the merged
//! report is assembled: workers never see `--attest-dir`, cannot race on
//! the chain, and because every address a link names is
//! schedule-independent, the sealed link bytes — MAC included — are
//! identical at every topology (DESIGN §15–16).

use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::batch::{self, Batch, Dispatch, Mode};
use crate::cache::{Lookup, RunCache};
use crate::codec::{self, Cursor, Esc, Token};
use crate::exec::{emit, FailureKind, RunFailure, RunOutcome, SupervisePolicy, VerifyReport};
use crate::experiment::{ParamValue, Params, RunRecord};
use crate::fault::{backoff_millis, FaultKind, FaultPlan, KillPlan};
use crate::provenance::Trail;
use crate::registry::ExperimentRegistry;
use crate::trace::{RunTrace, TraceEvent};

/// Wire protocol version spoken between coordinator and worker.
pub const PROTO_VERSION: u32 = 4;

/// How often an in-flight shard emits a keepalive beat when no task has
/// completed — a fraction of any sane hang timeout, so slow-but-alive
/// workers are never declared hung.
const KEEPALIVE_INTERVAL: Duration = Duration::from_secs(5);

/// Upper bound on a single frame payload; anything larger is a protocol
/// error rather than an allocation request.
const MAX_FRAME: usize = 16 << 20;

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Write one length-prefixed frame: ASCII decimal byte length, `\n`, payload.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    w.write_all(payload.len().to_string().as_bytes())?;
    w.write_all(b"\n")?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Read one length-prefixed frame. Returns `Ok(None)` on clean EOF before
/// the length line; a length line that is not exactly what
/// [`write_frame`] writes, or truncation mid-stream, is an error.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut header = String::new();
    if r.read_line(&mut header)? == 0 {
        return Ok(None);
    }
    let len = Token { at: 0, text: header.trim_end_matches('\n') }
        .value::<usize>()
        .and_then(|len| codec::canonical(&header, &format!("{len}\n")).map(|()| len))
        .map_err(|e| invalid(format!("bad frame length: {e}")))?;
    if len > MAX_FRAME {
        return Err(invalid("frame too large".into()));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload).map(Some).map_err(|_| invalid("frame not UTF-8".into()))
}

// ---------------------------------------------------------------------------
// Task specs and outputs
// ---------------------------------------------------------------------------

/// One unit of work shipped to a worker: everything the deterministic
/// execution function needs, keyed by the caller's result index.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Position in the caller's result vector (merge key).
    pub index: usize,
    /// Experiment id.
    pub id: String,
    /// Base seed.
    pub seed: u64,
    /// Replica number (verification replicas claim 0 and 1).
    pub replica: u32,
    /// Parameters for this run.
    pub params: Params,
    /// Supervised retry budget.
    pub retries: u32,
    /// Per-attempt deadline in microseconds; 0 disarms the watchdog.
    pub deadline_us: u64,
    /// Whether [`execute_task`] looks up and stores this task in the cache
    /// its caller hands it. Batches leave it off and workers hold no
    /// cache: the coordinator does all cache traffic ([`crate::batch`]).
    pub cache: bool,
}

/// The result of one task, with its trace events for index-ordered merge.
#[derive(Debug, Clone)]
pub struct TaskOutput {
    /// Merge key (same as the spec's index).
    pub index: usize,
    /// Run outcome (success record or classified failure).
    pub outcome: RunOutcome,
    /// Whether [`execute_task`] served the result from the cache it was
    /// handed; always false for batch tasks.
    pub cached: bool,
    /// Trace events the worker's ring evicted for this task.
    pub dropped: u64,
    /// Trace events recorded for this task, in emit order.
    pub events: Vec<(TraceEvent, f64)>,
}

/// One protocol frame. Its payload is flat JSON lines, each
/// `\n`-terminated; the first names the kind in `msg`. A worker's trace
/// events travel as their trace-stream objects and floats in the
/// [`codec::f64_text`] form, so every value crosses the wire bitwise.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Coordinator → worker: the settings every shard runs under.
    Hello {
        /// Threads per worker.
        jobs: usize,
        /// Whether to record trace events.
        tracing: bool,
        /// Fault plan to run under.
        plan: Option<FaultPlan>,
    },
    /// Worker → coordinator: ready for shards.
    Ready {
        /// The worker's process id.
        pid: u32,
    },
    /// Coordinator → worker: tasks to execute.
    Shard {
        /// Shard number.
        shard: usize,
        /// The shard's tasks, in index order.
        tasks: Vec<TaskSpec>,
    },
    /// Worker → coordinator: progress on a shard.
    Beat {
        /// Shard number.
        shard: usize,
        /// Tasks completed so far.
        done: usize,
    },
    /// Worker → coordinator: a shard's outputs.
    Done {
        /// Shard number.
        shard: usize,
        /// One output per task, in index order.
        outputs: Vec<TaskOutput>,
    },
}

impl Frame {
    /// The frame's payload text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self {
            Frame::Hello { jobs, tracing, plan } => {
                out.push_str(&format!(
                    "{{\"msg\":\"hello\",\"proto\":{PROTO_VERSION},\"jobs\":{jobs},\"tracing\":{tracing}}}\n"
                ));
                out.push_str(&plan.as_ref().map(encode_plan).unwrap_or_default());
            }
            Frame::Ready { pid } => out.push_str(&format!("{{\"msg\":\"ready\",\"pid\":{pid}}}\n")),
            Frame::Shard { shard, tasks } => {
                out.push_str(&format!("{{\"msg\":\"shard\",\"shard\":{shard}}}\n"));
                for t in tasks {
                    let id = codec::escape(&t.id, Esc::Json);
                    out.push_str(&format!(
                        "{{\"task\":{},\"id\":\"{id}\",\"seed\":{},\"replica\":{},\"retries\":{},\"deadline_us\":{},\"cache\":{}}}\n",
                        t.index, t.seed, t.replica, t.retries, t.deadline_us, t.cache
                    ));
                    for (k, v) in t.params.iter() {
                        out.push('{');
                        codec::json_field(&mut out, "param", k);
                        out.push_str(&match v {
                            ParamValue::Int(i) => format!(",\"int\":{i}"),
                            ParamValue::Float(f) => {
                                format!(",\"float\":\"{}\"", codec::f64_text(*f))
                            }
                            ParamValue::Text(s) => {
                                format!(",\"text\":\"{}\"", codec::escape(s, Esc::Json))
                            }
                            ParamValue::Bool(b) => format!(",\"bool\":{b}"),
                        });
                        out.push_str("}\n");
                    }
                }
            }
            Frame::Beat { shard, done } => {
                out.push_str(&format!("{{\"msg\":\"beat\",\"shard\":{shard},\"done\":{done}}}\n"));
            }
            Frame::Done { shard, outputs } => {
                out.push_str(&format!("{{\"msg\":\"done\",\"shard\":{shard}}}\n"));
                for o in outputs {
                    let attempts = match &o.outcome {
                        RunOutcome::Ok { attempts, .. } => *attempts,
                        RunOutcome::Failed(fail) => fail.attempts,
                    };
                    out.push_str(&format!(
                        "{{\"task\":{},\"attempts\":{attempts},\"dropped\":{},",
                        o.index, o.dropped
                    ));
                    match &o.outcome {
                        RunOutcome::Ok { record, .. } => {
                            let name = codec::escape(&record.name, Esc::Json);
                            let wall = codec::f64_text(record.wall_seconds);
                            out.push_str(&format!(
                                "\"cached\":{},\"name\":\"{name}\",\"seed\":{},\"wall\":\"{wall}\",",
                                o.cached, record.seed
                            ));
                            codec::json_field(&mut out, "trail", &record.trail.render());
                        }
                        RunOutcome::Failed(fail) => {
                            out.push_str(&format!("\"taxonomy\":\"{}\",", fail.taxonomy.name()));
                            codec::json_field(&mut out, "error", &fail.last_error);
                        }
                    }
                    out.push_str("}\n");
                    for (ev, at) in &o.events {
                        out.push_str(&format!("{{\"at\":\"{}\",", codec::f64_text(*at)));
                        ev.render_into(&mut out);
                        out.push_str("}\n");
                    }
                }
            }
        }
        out
    }

    /// Exact inverse of [`Frame::render`]: a payload it would not write
    /// back byte for byte is an error at its first differing byte. A hello
    /// naming another protocol version fails as a protocol mismatch.
    pub fn parse(payload: &str) -> Result<Frame, codec::Error> {
        let mut c = Cursor::new(payload);
        c.open()?;
        let at = c.pos();
        let frame = match c.str("msg")?.as_str() {
            "hello" => {
                let proto: u32 = c.value("proto")?;
                if proto != PROTO_VERSION {
                    let why =
                        format!("protocol mismatch: coordinator v{proto}, worker v{PROTO_VERSION}");
                    return Err(codec::Error::new(at, why));
                }
                let jobs = c.value("jobs")?;
                let tracing = c.value("tracing")?;
                c.close()?;
                let plan = if c.done() { None } else { Some(read_plan(&mut c)?) };
                Frame::Hello { jobs, tracing, plan }
            }
            "ready" => Frame::Ready { pid: c.value("pid")? },
            "shard" => {
                let shard = c.value("shard")?;
                let mut tasks: Vec<TaskSpec> = Vec::new();
                loop {
                    c.close()?;
                    if c.done() {
                        break;
                    }
                    c.open()?;
                    if c.peek_key() == Some("task") {
                        tasks.push(TaskSpec {
                            index: c.value("task")?,
                            id: c.str("id")?,
                            seed: c.value("seed")?,
                            replica: c.value("replica")?,
                            params: Params::new(),
                            retries: c.value("retries")?,
                            deadline_us: c.value("deadline_us")?,
                            cache: c.value("cache")?,
                        });
                        continue;
                    }
                    let key = c.str("param")?;
                    let task = tasks.last_mut().ok_or_else(|| c.err("param before any task"))?;
                    let params = std::mem::take(&mut task.params);
                    task.params = match c.peek_key() {
                        Some("int") => params.with_int(&key, c.value("int")?),
                        Some("float") => params.with_float(&key, c.str_as("float", |t| t.f64())?),
                        Some("text") => params.with_text(&key, &c.str("text")?),
                        _ => params.with_bool(&key, c.value("bool")?),
                    };
                }
                Frame::Shard { shard, tasks }
            }
            "beat" => Frame::Beat { shard: c.value("shard")?, done: c.value("done")? },
            "done" => {
                let shard = c.value("shard")?;
                let mut outputs: Vec<TaskOutput> = Vec::new();
                loop {
                    c.close()?;
                    if c.done() {
                        break;
                    }
                    c.open()?;
                    outputs.push(match c.peek_key() {
                        Some("at") => {
                            let at = c.str_as("at", |t| t.f64())?;
                            let ev = TraceEvent::read(&mut c)?;
                            let o = outputs
                                .last_mut()
                                .ok_or_else(|| c.err("event before any output"))?;
                            o.events.push((ev, at));
                            continue;
                        }
                        _ => {
                            let index = c.value("task")?;
                            let attempts = c.value("attempts")?;
                            let dropped = c.value("dropped")?;
                            let (outcome, cached) = if c.peek_key() == Some("taxonomy") {
                                let taxonomy =
                                    c.label("taxonomy", &FailureKind::ALL, FailureKind::name)?;
                                let last_error = c.str("error")?;
                                (
                                    RunOutcome::Failed(RunFailure {
                                        taxonomy,
                                        attempts,
                                        last_error,
                                    }),
                                    false,
                                )
                            } else {
                                let cached = c.value("cached")?;
                                let name = c.str("name")?;
                                let seed = c.value("seed")?;
                                let wall_seconds = c.str_as("wall", |t| t.f64())?;
                                let trail = c.str_as("trail", |t| {
                                    Trail::decode(t.text).map_err(|e| e.shift(t.at))
                                })?;
                                let record = RunRecord { name, seed, trail, wall_seconds };
                                (RunOutcome::Ok { record, attempts }, cached)
                            };
                            TaskOutput { index, outcome, cached, dropped, events: Vec::new() }
                        }
                    });
                }
                Frame::Done { shard, outputs }
            }
            other => return Err(codec::Error::new(at, format!("unknown frame {other:?}"))),
        };
        codec::canonical(payload, &frame.render())?;
        Ok(frame)
    }
}

/// Encode a [`FaultPlan`] for the wire such that the worker reconstructs a
/// bitwise-identical plan: same fingerprint, same fault on every
/// `(id, seed, attempt)`. One line for the seed, rate and menu (fault
/// labels), one per permanently panicking target.
pub fn encode_plan(plan: &FaultPlan) -> String {
    let menu: Vec<String> = plan.menu().iter().map(|k| k.label()).collect();
    let mut out = format!(
        "{{\"fault_seed\":{},\"rate\":\"{}\",\"menu\":\"{}\"}}\n",
        plan.seed(),
        codec::f64_text(plan.rate()),
        menu.join(",")
    );
    for target in plan.targets() {
        out.push('{');
        codec::json_field(&mut out, "panic_on", target);
        out.push_str("}\n");
    }
    out
}

/// Exact inverse of [`encode_plan`].
pub fn decode_plan(text: &str) -> Result<FaultPlan, codec::Error> {
    let plan = read_plan(&mut Cursor::new(text))?;
    codec::canonical(text, &encode_plan(&plan))?;
    Ok(plan)
}

/// Reads [`encode_plan`]'s lines through the end of the text.
fn read_plan(c: &mut Cursor<'_>) -> Result<FaultPlan, codec::Error> {
    c.open()?;
    let seed = c.value("fault_seed")?;
    let rate = c.str_as("rate", |t| t.f64())?;
    let at = c.pos();
    let labels = c.str("menu")?;
    let menu = labels.split(',').filter(|l| !l.is_empty()).map(FaultKind::from_label);
    let menu = menu.collect::<Option<_>>().ok_or_else(|| codec::Error::new(at, "unknown fault"))?;
    let mut plan = FaultPlan::with_menu(seed, rate, menu);
    c.close()?;
    while !c.done() {
        c.open()?;
        plan = plan.and_panic_on(&c.str("panic_on")?);
        c.close()?;
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Task execution (shared by worker processes, the degraded coordinator and
// in-process batches)
// ---------------------------------------------------------------------------

/// Execute one task deterministically. This is the same code path whether it
/// runs inside a `treu worker` subprocess, in-process after degradation, or
/// in an in-process [`Batch`], which is what makes topology unable to change
/// results or hashed trace content. Batches hand it no cache; a caller that
/// does (with `t.cache` set) goes through the batch's own `lookup` and
/// `store`.
pub fn execute_task(
    reg: &ExperimentRegistry,
    t: &TaskSpec,
    plan: Option<&FaultPlan>,
    cache: Option<&RunCache>,
    tracing: bool,
    epoch: Instant,
) -> TaskOutput {
    let mut rt = tracing.then(|| RunTrace::new(&t.id, t.seed));
    let mut policy = SupervisePolicy::new(t.retries);
    if t.deadline_us > 0 {
        policy = policy.with_deadline_secs(t.deadline_us as f64 / 1e6);
    }
    let mut tracer = rt.as_mut().map(|r| (r, epoch));
    emit(&mut tracer, TraceEvent::Claim { replica: t.replica });
    let cache = cache.filter(|_| t.cache);
    let (outcome, cached) = match reg.get(&t.id) {
        None => (
            RunOutcome::Failed(RunFailure {
                taxonomy: FailureKind::Panicked,
                attempts: 0,
                last_error: format!("unknown experiment '{}'", t.id),
            }),
            false,
        ),
        Some(entry) => {
            let found = cache.map(|c| batch::lookup(c, &t.id, t.seed, &t.params, &mut tracer));
            match found {
                Some(Lookup::Hit(record)) => (RunOutcome::Ok { record, attempts: 1 }, true),
                _ => {
                    let outcome = crate::exec::run_supervised_traced(
                        entry.runner(),
                        &t.id,
                        t.seed,
                        &t.params,
                        &policy,
                        plan,
                        t.replica,
                        tracer.as_mut().map(|(r, at)| (&mut **r, *at)),
                    );
                    if let (Some(c), Some(record)) = (cache, outcome.record()) {
                        batch::store(c, &t.id, t.seed, &t.params, record, &mut tracer);
                    }
                    (outcome, false)
                }
            }
        }
    };
    let (events, dropped) = match rt {
        Some(rt) => (rt.events().iter().map(|(_, ev, at)| (ev.clone(), *at)).collect(), rt.dropped),
        None => (Vec::new(), 0),
    };
    TaskOutput { index: t.index, outcome, cached, dropped, events }
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

/// The body of `treu worker`: read frames from `input`, execute shards with
/// a small in-process work-stealing pool, stream heartbeats, write results
/// back to `output`. Generic over the streams so tests can drive it in
/// memory.
pub fn worker_loop(
    reg: &ExperimentRegistry,
    input: impl BufRead,
    mut output: impl Write,
) -> io::Result<()> {
    let mut input = input;
    let mut jobs = 1usize;
    let mut tracing = false;
    let mut plan: Option<FaultPlan> = None;
    // treu-lint: allow(wall-clock, reason = "trace timestamps are an unhashed sidecar")
    let epoch = Instant::now();
    while let Some(payload) = read_frame(&mut input)? {
        let frame = Frame::parse(&payload).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed frame at {}", e.locate(&payload)),
            )
        })?;
        match frame {
            Frame::Hello { jobs: j, tracing: t, plan: p } => {
                jobs = j.max(1);
                tracing = t;
                plan = p;
                write_frame(&mut output, &Frame::Ready { pid: std::process::id() }.render())?;
            }
            Frame::Shard { shard, tasks } => {
                let outputs =
                    run_shard(reg, &tasks, plan.as_ref(), tracing, jobs, epoch, |done| {
                        write_frame(&mut output, &Frame::Beat { shard, done }.render())
                    })?;
                write_frame(&mut output, &Frame::Done { shard, outputs }.render())?;
            }
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "the coordinator sent a worker-side frame",
                ));
            }
        }
    }
    Ok(())
}

/// Execute a shard's tasks with `jobs` threads work-stealing off a shared
/// claim counter; outputs are re-sorted by index so shard-internal
/// scheduling never leaks into the merged stream.
fn run_shard(
    reg: &ExperimentRegistry,
    tasks: &[TaskSpec],
    plan: Option<&FaultPlan>,
    tracing: bool,
    jobs: usize,
    epoch: Instant,
    mut beat: impl FnMut(usize) -> io::Result<()>,
) -> io::Result<Vec<TaskOutput>> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<TaskOutput>();
    let mut outputs: Vec<TaskOutput> = Vec::with_capacity(tasks.len());
    std::thread::scope(|scope| -> io::Result<()> {
        for _ in 0..jobs.min(tasks.len().max(1)) {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(t) = tasks.get(i) else { break };
                if tx.send(execute_task(reg, t, plan, None, tracing, epoch)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        loop {
            match rx.recv_timeout(KEEPALIVE_INTERVAL) {
                Ok(out) => {
                    outputs.push(out);
                    beat(outputs.len())?;
                }
                // A single long task starves the per-completion beat; a
                // keepalive beat tells the coordinator's no-progress
                // watchdog the worker is slow, not dead. Beats are a
                // wall-clock side channel — never part of results.
                Err(mpsc::RecvTimeoutError::Timeout) => beat(outputs.len())?,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        Ok(())
    })?;
    outputs.sort_by_key(|o| o.index);
    Ok(outputs)
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Configuration for the sharded service coordinator.
#[derive(Debug, Clone)]
pub struct SvcConfig {
    /// Number of worker processes.
    pub workers: usize,
    /// Jobs (threads) per worker.
    pub jobs: usize,
    /// Whether workers record trace events.
    pub tracing: bool,
    /// Tasks per shard; 0 picks an automatic size.
    pub shard_size: usize,
    /// Respawns allowed per worker slot before the slot is declared dead.
    pub respawn_budget: u32,
    /// How long a busy or starting worker may go without progress.
    pub hang_timeout: Duration,
    /// Seeded kill plan for chaos drills: the coordinator SIGKILLs its own
    /// workers mid-shard.
    pub kill_plan: Option<KillPlan>,
    /// Override the worker command line; empty means `current_exe worker`.
    pub worker_cmd: Vec<String>,
}

impl SvcConfig {
    /// A coordinator over `workers` processes with defaults matching the CLI.
    pub fn new(workers: usize) -> Self {
        SvcConfig {
            workers: workers.max(1),
            jobs: 1,
            tracing: false,
            shard_size: 0,
            respawn_budget: 2,
            hang_timeout: Duration::from_secs(60),
            kill_plan: None,
            worker_cmd: Vec::new(),
        }
    }

    /// Set jobs (threads) per worker.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Enable or disable worker-side tracing.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Fix the shard size (0 = automatic).
    pub fn with_shard_size(mut self, n: usize) -> Self {
        self.shard_size = n;
        self
    }

    /// Set the per-slot respawn budget.
    pub fn with_respawn_budget(mut self, n: u32) -> Self {
        self.respawn_budget = n;
        self
    }

    /// Set the no-progress hang timeout.
    pub fn with_hang_timeout(mut self, d: Duration) -> Self {
        self.hang_timeout = d;
        self
    }

    /// Arm a seeded kill plan.
    pub fn with_kill_plan(mut self, plan: KillPlan) -> Self {
        self.kill_plan = Some(plan);
        self
    }

    /// Override the worker command line (tests use `/bin/true`, `/bin/sleep`).
    pub fn with_worker_cmd(mut self, cmd: Vec<String>) -> Self {
        self.worker_cmd = cmd;
        self
    }

    fn auto_shard_size(&self, tasks: usize) -> usize {
        if self.shard_size > 0 {
            return self.shard_size;
        }
        (tasks / (self.workers * 4).max(1)).clamp(1, 8)
    }
}

/// Supervision counters for one coordinated batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvcStats {
    /// Worker slots configured.
    pub workers: usize,
    /// Total worker processes spawned (incarnations across all slots).
    pub spawned: u32,
    /// Workers SIGKILLed by the kill plan.
    pub kills: u32,
    /// Worker crashes observed (EOF without a kill we caused).
    pub crashes: u32,
    /// Workers declared hung by the no-progress watchdog.
    pub hangs: u32,
    /// Shards requeued after an incarnation died holding them.
    pub requeues: u32,
    /// Total shard dispatches.
    pub shards: u32,
    /// Heartbeat frames received.
    pub heartbeats: u32,
    /// Tasks completed in-process after degradation.
    pub degraded_tasks: u32,
    /// Whether the coordinator degraded to in-process execution.
    pub degraded: bool,
}

impl SvcStats {
    /// One-line summary for reports.
    pub fn render(&self) -> String {
        let mut s = format!(
            "svc: workers={} spawned={} shards={} requeues={} kills={} crashes={} hangs={} beats={}",
            self.workers,
            self.spawned,
            self.shards,
            self.requeues,
            self.kills,
            self.crashes,
            self.hangs,
            self.heartbeats
        );
        if self.degraded {
            s.push_str(&format!(" DEGRADED(in-process tasks={})", self.degraded_tasks));
        }
        s
    }
}

struct Incarnation {
    child: Child,
    stdin: ChildStdin,
}

struct Slot {
    live: Option<Incarnation>,
    /// Incarnation counter; reader frames are tagged with it so frames from
    /// a killed incarnation are dropped instead of corrupting the next one.
    inc: u32,
    spawned: u32,
    ready: bool,
    /// Shards dispatched to the current incarnation (kill-plan ordinal).
    dispatched: u32,
    /// Kill-plan verdict for this incarnation: kill during the Nth dispatch.
    doom: Option<u64>,
    /// Shard currently in flight, if any.
    busy: Option<usize>,
    last_progress: Instant,
    dead: bool,
}

enum Wire {
    Frame { worker: usize, inc: u32, payload: String },
    Eof { worker: usize, inc: u32 },
}

/// Coordinator over a pool of `treu worker` subprocesses.
pub struct WorkerPool {
    cfg: SvcConfig,
}

impl WorkerPool {
    /// Create a pool with the given configuration.
    pub fn new(cfg: SvcConfig) -> Self {
        WorkerPool { cfg }
    }

    /// The configuration this pool runs with.
    pub fn config(&self) -> &SvcConfig {
        &self.cfg
    }

    fn worker_command(&self) -> io::Result<Command> {
        let argv: Vec<String> = if self.cfg.worker_cmd.is_empty() {
            vec![std::env::current_exe()?.to_string_lossy().into_owned(), "worker".to_string()]
        } else {
            self.cfg.worker_cmd.clone()
        };
        let mut cmd = Command::new(&argv[0]);
        // env_clear pins the worker environment: determinism must not hinge
        // on whatever the parent shell happened to export.
        cmd.args(&argv[1..])
            .env_clear()
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        Ok(cmd)
    }

    /// Run `tasks` across the pool. `tasks[i].index` must equal `i`.
    ///
    /// Results come back complete: any task orphaned by crashes beyond the
    /// respawn budget is executed in-process (`degraded_cache` is handed to
    /// [`execute_task`] for those; batches pass `None`), so this never
    /// aborts short of an I/O failure in the coordinator itself.
    // Indexing keeps `slots[w]` borrows short: the dispatch and hang loops
    // hand `&mut slots[w]` to `fail_incarnation` mid-iteration.
    #[allow(clippy::needless_range_loop)]
    pub fn run_tasks(
        &self,
        reg: &ExperimentRegistry,
        tasks: Vec<TaskSpec>,
        plan: Option<&FaultPlan>,
        degraded_cache: Option<&RunCache>,
        seed: u64,
    ) -> io::Result<(Vec<TaskOutput>, SvcStats)> {
        let mut stats = SvcStats { workers: self.cfg.workers, ..SvcStats::default() };
        // treu-lint: allow(wall-clock, reason = "supervision timing sidecar, never hashed")
        let epoch = Instant::now();
        if tasks.is_empty() {
            return Ok((Vec::new(), stats));
        }
        debug_assert!(tasks.iter().enumerate().all(|(i, t)| t.index == i));
        let total = tasks.len();
        let mut results: Vec<Option<TaskOutput>> = (0..total).map(|_| None).collect();
        let shard_size = self.cfg.auto_shard_size(total);
        let shards: Vec<String> = tasks
            .chunks(shard_size)
            .enumerate()
            .map(|(shard, chunk)| Frame::Shard { shard, tasks: chunk.to_vec() }.render())
            .collect();
        let mut queue: VecDeque<usize> = (0..shards.len()).collect();
        let hello =
            Frame::Hello { jobs: self.cfg.jobs, tracing: self.cfg.tracing, plan: plan.cloned() }
                .render();
        let (tx, rx) = mpsc::channel::<Wire>();
        let nslots = self.cfg.workers.min(shards.len());
        let mut slots: Vec<Slot> = Vec::with_capacity(nslots);
        for w in 0..nslots {
            let mut slot = Slot {
                live: None,
                inc: 0,
                spawned: 0,
                ready: false,
                dispatched: 0,
                doom: None,
                busy: None,
                last_progress: epoch,
                dead: false,
            };
            self.respawn(w, &mut slot, &hello, &tx, &mut stats, seed, false);
            slots.push(slot);
        }
        let mut filled = 0usize;
        while filled < total {
            if slots.iter().all(|s| s.dead) {
                // Degradation ladder, final rung: every slot exhausted its
                // respawn budget. Finish the orphaned work in-process rather
                // than abort — same execute_task, so results are identical.
                stats.degraded = true;
                for (i, slot) in results.iter_mut().enumerate() {
                    if slot.is_none() {
                        *slot = Some(execute_task(
                            reg,
                            &tasks[i],
                            plan,
                            degraded_cache,
                            self.cfg.tracing,
                            epoch,
                        ));
                        stats.degraded_tasks += 1;
                    }
                }
                break;
            }
            // Dispatch queued shards to ready, idle, live slots.
            for w in 0..slots.len() {
                if queue.is_empty() {
                    break;
                }
                if slots[w].dead
                    || slots[w].live.is_none()
                    || !slots[w].ready
                    || slots[w].busy.is_some()
                {
                    continue;
                }
                let sh = queue.pop_front().expect("non-empty queue");
                slots[w].busy = Some(sh);
                slots[w].dispatched += 1;
                // treu-lint: allow(wall-clock, reason = "supervision watchdog")
                slots[w].last_progress = Instant::now();
                stats.shards += 1;
                let write_ok = {
                    let inc = slots[w].live.as_mut().expect("live incarnation");
                    write_frame(&mut inc.stdin, &shards[sh]).is_ok()
                };
                if !write_ok {
                    stats.crashes += 1;
                    self.fail_incarnation(
                        w,
                        &mut slots[w],
                        &mut queue,
                        &hello,
                        &tx,
                        &mut stats,
                        seed,
                    );
                    continue;
                }
                // Chaos drill: the kill plan said to SIGKILL this incarnation
                // during its doom-th dispatch. The shard frame was just
                // delivered, so the kill lands mid-shard.
                if slots[w].doom == Some(u64::from(slots[w].dispatched)) {
                    stats.kills += 1;
                    self.fail_incarnation(
                        w,
                        &mut slots[w],
                        &mut queue,
                        &hello,
                        &tx,
                        &mut stats,
                        seed,
                    );
                }
            }
            // Watchdog tick: smallest remaining hang budget among slots that
            // owe us progress, clamped to keep the loop responsive.
            let mut tick = Duration::from_millis(250);
            for s in slots.iter() {
                if s.dead || s.live.is_none() {
                    continue;
                }
                if s.busy.is_some() || !s.ready {
                    let rem = self.cfg.hang_timeout.saturating_sub(s.last_progress.elapsed());
                    tick = tick.min(rem.max(Duration::from_millis(10)));
                }
            }
            match rx.recv_timeout(tick) {
                Ok(Wire::Frame { worker, inc, payload }) => {
                    let slot = &mut slots[worker];
                    if inc != slot.inc || slot.dead {
                        continue; // stale incarnation
                    }
                    // treu-lint: allow(wall-clock, reason = "supervision watchdog")
                    slot.last_progress = Instant::now();
                    match Frame::parse(&payload) {
                        Ok(Frame::Ready { .. }) => slot.ready = true,
                        Ok(Frame::Beat { .. }) => stats.heartbeats += 1,
                        Ok(Frame::Done { shard, outputs }) => {
                            if slot.busy == Some(shard) {
                                slot.busy = None;
                            }
                            for out in outputs {
                                let pos = out.index;
                                if pos < total && results[pos].is_none() {
                                    results[pos] = Some(out);
                                    filled += 1;
                                }
                            }
                        }
                        _ => {}
                    }
                }
                Ok(Wire::Eof { worker, inc }) => {
                    let slot = &mut slots[worker];
                    // An incarnation we killed was already failed, and its
                    // respawn bumped `slot.inc`: only a crash gets here.
                    if inc == slot.inc && !slot.dead && slot.live.is_some() {
                        stats.crashes += 1;
                        self.fail_incarnation(
                            worker, slot, &mut queue, &hello, &tx, &mut stats, seed,
                        );
                    }
                }
                Err(_) => {}
            }
            // Hang check: any live slot owing progress past the timeout.
            for w in 0..slots.len() {
                let hung = {
                    let s = &slots[w];
                    !s.dead
                        && s.live.is_some()
                        && (s.busy.is_some() || !s.ready)
                        && s.last_progress.elapsed() > self.cfg.hang_timeout
                };
                if hung {
                    stats.hangs += 1;
                    self.fail_incarnation(
                        w,
                        &mut slots[w],
                        &mut queue,
                        &hello,
                        &tx,
                        &mut stats,
                        seed,
                    );
                }
            }
        }
        // Orderly shutdown: closing a live worker's stdin ends its frame
        // stream, and a worker exits at the end of its stream; give it a
        // bounded grace period before reaping by force.
        for slot in slots.iter_mut() {
            if let Some(mut inc) = slot.live.take() {
                drop(inc.stdin);
                // treu-lint: allow(wall-clock, reason = "shutdown grace period")
                let patience = Instant::now();
                loop {
                    match inc.child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if patience.elapsed() < Duration::from_secs(5) => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        _ => {
                            let _ = inc.child.kill();
                            let _ = inc.child.wait();
                            break;
                        }
                    }
                }
            }
        }
        let outputs: Vec<TaskOutput> =
            results.into_iter().map(|r| r.expect("coordinator filled every task")).collect();
        Ok((outputs, stats))
    }

    /// Kill (if needed) and reap the current incarnation, requeue its
    /// in-flight shard, then respawn — or mark the slot dead once the
    /// respawn budget is exhausted. The requeue is exactly once: `take`
    /// empties the slot's in-flight shard, and the respawn's incarnation
    /// bump turns the dead incarnation's later frames and EOF stale.
    #[allow(clippy::too_many_arguments)]
    fn fail_incarnation(
        &self,
        w: usize,
        slot: &mut Slot,
        queue: &mut VecDeque<usize>,
        hello: &str,
        tx: &mpsc::Sender<Wire>,
        stats: &mut SvcStats,
        seed: u64,
    ) {
        if let Some(sh) = slot.busy.take() {
            queue.push_front(sh);
            stats.requeues += 1;
        }
        if let Some(mut inc) = slot.live.take() {
            let _ = inc.child.kill();
            let _ = inc.child.wait();
        }
        self.respawn(w, slot, hello, tx, stats, seed, true);
    }

    /// Spawn (or respawn) a worker into `slot`. Respawns sleep a seeded,
    /// deterministically doubling backoff first; a slot whose budget is
    /// exhausted is marked dead instead.
    #[allow(clippy::too_many_arguments)]
    fn respawn(
        &self,
        w: usize,
        slot: &mut Slot,
        hello: &str,
        tx: &mpsc::Sender<Wire>,
        stats: &mut SvcStats,
        seed: u64,
        is_respawn: bool,
    ) {
        slot.inc += 1;
        slot.ready = false;
        slot.dispatched = 0;
        slot.busy = None;
        if slot.spawned > self.cfg.respawn_budget {
            slot.dead = true;
            return;
        }
        if is_respawn {
            let ms = backoff_millis(slot.spawned, &format!("svc-worker-{w}"), seed);
            std::thread::sleep(Duration::from_millis(ms));
        }
        let mut cmd = match self.worker_command() {
            Ok(cmd) => cmd,
            Err(_) => {
                slot.dead = true;
                return;
            }
        };
        let mut child = match cmd.spawn() {
            Ok(child) => child,
            Err(_) => {
                slot.dead = true;
                return;
            }
        };
        slot.spawned += 1;
        stats.spawned += 1;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut stdin = child.stdin.take().expect("piped stdin");
        if write_frame(&mut stdin, hello).is_err() {
            let _ = child.kill();
            let _ = child.wait();
            self.respawn(w, slot, hello, tx, stats, seed, true);
            return;
        }
        let inc = slot.inc;
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut reader = io::BufReader::new(stdout);
            loop {
                match read_frame(&mut reader) {
                    Ok(Some(payload)) => {
                        if tx.send(Wire::Frame { worker: w, inc, payload }).is_err() {
                            break;
                        }
                    }
                    _ => {
                        let _ = tx.send(Wire::Eof { worker: w, inc });
                        break;
                    }
                }
            }
        });
        slot.doom = self.cfg.kill_plan.as_ref().and_then(|kp| kp.kill_on_dispatch(w, slot.inc));
        slot.live = Some(Incarnation { child, stdin });
        // treu-lint: allow(wall-clock, reason = "supervision watchdog")
        slot.last_progress = Instant::now();
    }
}

// ---------------------------------------------------------------------------
// Verification across the pool
// ---------------------------------------------------------------------------

/// Registry-wide verification across the worker pool — a single
/// [`Batch`] of [`Mode::Verify`] under [`Dispatch::Sharded`]. Cache
/// lookups, cross-checks and verdicts happen coordinator-side; workers
/// only compute the two fresh replicas per missed id, so the report and
/// trace are bitwise-identical to the in-process pass at every topology.
pub fn verify_all_svc(
    reg: &ExperimentRegistry,
    seed: u64,
    cache: Option<&RunCache>,
    policy: &SupervisePolicy,
    plan: Option<&FaultPlan>,
    params: impl Fn(&str, Params) -> Params,
    cfg: SvcConfig,
) -> io::Result<(VerifyReport, SvcStats)> {
    let batch =
        Batch { cache, policy: *policy, plan, params: &params, ..Batch::new(Mode::Verify, seed) };
    let out = batch.execute(reg, Dispatch::Sharded(cfg))?;
    Ok((out.report.into_verify(), out.svc.expect("sharded batches report svc stats")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::experiment::{Experiment, RunContext};
    use std::path::Path;

    fn render_shard(shard: usize, tasks: &[TaskSpec]) -> String {
        Frame::Shard { shard, tasks: tasks.to_vec() }.render()
    }

    fn parse_shard(payload: &str) -> Option<(usize, Vec<TaskSpec>)> {
        match Frame::parse(payload) {
            Ok(Frame::Shard { shard, tasks }) => Some((shard, tasks)),
            _ => None,
        }
    }

    fn render_done(shard: usize, outputs: &[TaskOutput]) -> String {
        Frame::Done { shard, outputs: outputs.to_vec() }.render()
    }

    fn parse_done(payload: &str) -> Option<(usize, Vec<TaskOutput>)> {
        match Frame::parse(payload) {
            Ok(Frame::Done { shard, outputs }) => Some((shard, outputs)),
            _ => None,
        }
    }

    /// The `msg` of a frame, when it parses.
    fn msg(payload: &str) -> Option<&'static str> {
        Some(match Frame::parse(payload).ok()? {
            Frame::Hello { .. } => "hello",
            Frame::Ready { .. } => "ready",
            Frame::Shard { .. } => "shard",
            Frame::Beat { .. } => "beat",
            Frame::Done { .. } => "done",
        })
    }

    struct Echo;
    impl Experiment for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn run(&self, ctx: &mut RunContext) {
            let gain = ctx.int("gain", 1);
            let mut rng = ctx.rng("echo");
            for i in 0..4 {
                let draw = rng.next_u64() >> 12;
                ctx.record(&format!("step{i}"), (draw as f64) * gain as f64);
            }
        }
    }

    fn small_registry() -> ExperimentRegistry {
        let mut reg = ExperimentRegistry::new();
        reg.register(
            "alpha",
            "svc::tests",
            "svc test experiment",
            Params::new().with_int("gain", 3),
            Box::new(Echo),
        );
        reg.register(
            "beta",
            "svc::tests",
            "svc test experiment",
            Params::new().with_int("gain", 5),
            Box::new(Echo),
        );
        reg.register("gamma", "svc::tests", "svc test experiment", Params::new(), Box::new(Echo));
        reg
    }

    #[test]
    fn frames_round_trip_and_reject_malformed_input() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello world").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello world"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
        let huge = format!("{}\n", MAX_FRAME + 1);
        let mut r = io::BufReader::new(huge.as_bytes());
        assert!(read_frame(&mut r).is_err(), "oversize frame rejected");
        let mut r = io::BufReader::new(&b"notanumber\nxx"[..]);
        assert!(read_frame(&mut r).is_err(), "bad length rejected");
        let mut r = io::BufReader::new(&b"10\nshort"[..]);
        assert!(read_frame(&mut r).is_err(), "truncated payload rejected");
    }

    #[test]
    fn fault_plan_wire_round_trip_is_bitwise() {
        let plan = FaultPlan::with_menu(
            0xfeed,
            0.35,
            vec![
                FaultKind::Panic,
                FaultKind::Delay(40),
                FaultKind::CorruptTrail,
                FaultKind::TransientErr(2),
            ],
        )
        .and_panic_on("bad:colon\ttab")
        .and_panic_on("worse");
        let back = decode_plan(&encode_plan(&plan)).expect("decodes");
        assert_eq!(back.fingerprint(), plan.fingerprint());
        // Per-attempt faults must agree everywhere, not just the fingerprint.
        for attempt in 0..4 {
            assert_eq!(
                format!("{:?}", back.fault_at("probe", 99, attempt)),
                format!("{:?}", plan.fault_at("probe", 99, attempt))
            );
        }
        // A plan line whose seed is not a canonical decimal u64 fails at the
        // seed, which starts at byte 14.
        for seed in ["zz", "+7", "-1", "07", "18446744073709551616"] {
            let text = format!("{{\"fault_seed\":{seed},\"rate\":\"0.5\",\"menu\":\"\"}}\n");
            assert_eq!(decode_plan(&text).unwrap_err().offset, 14, "bad seed {seed} rejected");
        }
    }

    #[test]
    fn shard_and_done_frames_round_trip() {
        let tasks = vec![
            TaskSpec {
                index: 0,
                id: "we\"ird\tid".into(),
                seed: 42,
                replica: 1,
                params: Params::new()
                    .with_int("n", -3)
                    .with_float("x", 0.1 + 0.2)
                    .with_text("label", "tab\there")
                    .with_bool("flag", true),
                retries: 2,
                deadline_us: 1_500_000,
                cache: true,
            },
            TaskSpec {
                index: 1,
                id: "plain".into(),
                seed: 43,
                replica: 0,
                params: Params::new(),
                retries: 0,
                deadline_us: 0,
                cache: false,
            },
        ];
        let (shard, parsed) = parse_shard(&render_shard(3, &tasks)).expect("parses");
        assert_eq!(shard, 3);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].id, tasks[0].id);
        assert_eq!(parsed[0].deadline_us, 1_500_000);
        assert!(parsed[0].cache && !parsed[1].cache);
        let canon = |p: &Params| {
            let mut kv: Vec<String> = p.iter().map(|(k, v)| format!("{k}={v}")).collect();
            kv.sort();
            kv.join(",")
        };
        assert_eq!(canon(&parsed[0].params), canon(&tasks[0].params));

        let reg = small_registry();
        // treu-lint: allow(wall-clock, reason = "test epoch for unhashed timestamps")
        let epoch = Instant::now();
        let spec = TaskSpec {
            index: 0,
            id: "alpha".into(),
            seed: 9,
            replica: 1,
            params: reg.get("alpha").unwrap().defaults.clone(),
            retries: 0,
            deadline_us: 0,
            cache: false,
        };
        let out = execute_task(&reg, &spec, None, None, true, epoch);
        let failed = TaskOutput {
            index: 1,
            outcome: RunOutcome::Failed(RunFailure {
                taxonomy: FailureKind::TimedOut,
                attempts: 3,
                last_error: "slow\tand\"bad".into(),
            }),
            cached: false,
            dropped: 2,
            events: Vec::new(),
        };
        let (shard, parsed) = parse_done(&render_done(5, &[out.clone(), failed])).expect("parses");
        assert_eq!(shard, 5);
        assert_eq!(parsed.len(), 2);
        let (
            RunOutcome::Ok { record: ra, attempts: aa },
            RunOutcome::Ok { record: rb, attempts: ab },
        ) = (&out.outcome, &parsed[0].outcome)
        else {
            panic!("ok outcome survives the wire");
        };
        assert_eq!(aa, ab);
        assert_eq!(ra.fingerprint(), rb.fingerprint(), "trail survives bitwise");
        assert_eq!(out.events.len(), parsed[0].events.len());
        assert!(!out.events.is_empty(), "traced execution produced events");
        for ((ea, ta), (eb, tb)) in out.events.iter().zip(parsed[0].events.iter()) {
            assert_eq!(ea, eb);
            assert_eq!(ta.to_bits(), tb.to_bits());
        }
        match &parsed[1].outcome {
            RunOutcome::Failed(f) => {
                assert_eq!(f.taxonomy.name(), "TimedOut");
                assert_eq!(f.attempts, 3);
                assert_eq!(f.last_error, "slow\tand\"bad");
            }
            _ => panic!("failure survives the wire"),
        }
        assert_eq!(parsed[1].dropped, 2);
    }

    /// Frames that the v1 readers took silently: an unknown escape in a
    /// plan target, a cache flag of `7`, an extra field, a duplicate key,
    /// a malformed `\u` escape, an event with a duplicate key or trailing
    /// bytes, and a signed frame length.
    #[test]
    fn malformed_frames_are_rejected() {
        let plan =
            "{\"fault_seed\":1,\"rate\":\"0\",\"menu\":\"\"}\n{\"panic_on\":\"bad\\qname\"}\n";
        assert!(decode_plan(plan).is_err());
        assert!(decode_plan(&plan.replace("bad\\q", "bad")).is_ok());
        let task = TaskSpec {
            index: 0,
            id: "T1".into(),
            seed: 2023,
            replica: 0,
            params: Params::new(),
            retries: 0,
            deadline_us: 0,
            cache: true,
        };
        let shard = render_shard(0, &[task]);
        assert!(parse_shard(&shard).is_some());
        for bad in [
            shard.replace("\"cache\":true", "\"cache\":7"),
            shard.replace("\"cache\":true}", "\"cache\":true,\"extra\":1}"),
            shard.replace("\"id\":\"T1\"", "\"id\":\"T\\u00zz1\""),
            "{\"msg\":\"shard\",\"shard\":1,\"shard\":2}\n".to_string(),
            // v3's exit handshake is gone: a closed stdin ends a worker.
            "{\"msg\":\"shutdown\"}\n".to_string(),
            "{\"msg\":\"bye\"}\n".to_string(),
        ] {
            assert!(Frame::parse(&bad).is_err(), "{bad}");
        }
        let claimed = TaskOutput {
            index: 0,
            outcome: RunOutcome::Failed(RunFailure {
                taxonomy: FailureKind::Panicked,
                attempts: 1,
                last_error: "boom".into(),
            }),
            cached: false,
            dropped: 0,
            events: vec![(TraceEvent::Claim { replica: 0 }, 0.5)],
        };
        let done = render_done(0, &[claimed]);
        assert!(parse_done(&done).is_some());
        for bad in [
            done.replace("\"replica\":0}", "\"replica\":0,\"replica\":1}"),
            format!("{done}garbage"),
        ] {
            assert!(Frame::parse(&bad).is_err(), "{bad}");
        }
        let mut r = io::BufReader::new(&b"+3\nabc"[..]);
        assert!(read_frame(&mut r).is_err(), "signed length rejected");
    }

    #[test]
    fn worker_loop_in_memory_matches_direct_execution() {
        let reg = small_registry();
        let mut inbox = Vec::new();
        write_frame(&mut inbox, &Frame::Hello { jobs: 2, tracing: true, plan: None }.render())
            .unwrap();
        let tasks: Vec<TaskSpec> = ["alpha", "beta", "gamma"]
            .iter()
            .enumerate()
            .map(|(i, id)| TaskSpec {
                index: i,
                id: (*id).to_string(),
                seed: 17,
                replica: (i % 2) as u32,
                params: reg.get(id).unwrap().defaults.clone(),
                retries: 1,
                deadline_us: 0,
                cache: false,
            })
            .collect();
        write_frame(&mut inbox, &render_shard(0, &tasks)).unwrap();
        // The inbox ends after the shard, as a coordinator's closed stdin
        // does: the worker must treat that end as its exit and return Ok.
        let mut outbox = Vec::new();
        worker_loop(&reg, io::BufReader::new(&inbox[..]), &mut outbox)
            .expect("a worker exits cleanly at the end of its frame stream");
        let mut r = io::BufReader::new(&outbox[..]);
        let ready = read_frame(&mut r).unwrap().expect("ready frame");
        assert_eq!(msg(&ready), Some("ready"));
        let mut done = None;
        let mut beats = 0;
        while let Some(frame) = read_frame(&mut r).unwrap() {
            match msg(&frame) {
                Some("beat") => beats += 1,
                Some("done") => done = Some(frame),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(beats, 3, "one heartbeat per completed task");
        let (shard, outputs) = parse_done(&done.expect("done frame")).expect("parses");
        assert_eq!(shard, 0);
        assert_eq!(outputs.len(), 3);
        // Parity with direct in-process execution: fingerprints and events.
        // treu-lint: allow(wall-clock, reason = "test epoch for unhashed timestamps")
        let epoch = Instant::now();
        for (t, out) in tasks.iter().zip(outputs.iter()) {
            let direct = execute_task(&reg, t, None, None, true, epoch);
            let (RunOutcome::Ok { record: a, .. }, RunOutcome::Ok { record: b, .. }) =
                (&direct.outcome, &out.outcome)
            else {
                panic!("both succeed");
            };
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_eq!(direct.events.len(), out.events.len());
            for ((ea, _), (eb, _)) in direct.events.iter().zip(out.events.iter()) {
                assert_eq!(ea, eb);
            }
        }
    }

    #[test]
    fn worker_rejects_protocol_mismatch() {
        let reg = small_registry();
        let mut inbox = Vec::new();
        write_frame(&mut inbox, "{\"msg\":\"hello\",\"proto\":999,\"jobs\":1,\"tracing\":false}")
            .unwrap();
        let mut outbox = Vec::new();
        let err = worker_loop(&reg, io::BufReader::new(&inbox[..]), &mut outbox).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("protocol mismatch"), "{err}");
    }

    #[test]
    fn instantly_dying_workers_degrade_to_in_process_with_identical_results() {
        let reg = small_registry();
        let seed = 23;
        // /bin/true exits immediately: every incarnation EOFs before ready,
        // the respawn budget burns down, and the coordinator finishes the
        // whole registry in-process.
        assert!(Path::new("/bin/true").exists(), "test needs /bin/true");
        let cfg = SvcConfig::new(2)
            .with_jobs(2)
            .with_tracing(true)
            .with_respawn_budget(1)
            .with_hang_timeout(Duration::from_millis(200))
            .with_worker_cmd(vec!["/bin/true".into()]);
        let policy = SupervisePolicy::new(1);
        let (report, stats) =
            verify_all_svc(&reg, seed, None, &policy, None, |_, p| p, cfg).unwrap();
        assert!(stats.degraded, "budget exhaustion must degrade, not abort");
        assert!(stats.crashes > 0);
        assert!(stats.degraded_tasks > 0);
        assert!(report.all_reproduced());
        // Bitwise parity with the plain in-process verifier.
        let exec = Executor::new(2).with_tracing(true);
        let baseline = exec.verify_all_supervised_with(&reg, seed, None, &policy, None, |_, p| p);
        assert_eq!(report.outcomes.len(), baseline.outcomes.len());
        for (a, b) in report.outcomes.iter().zip(baseline.outcomes.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.fingerprint, b.fingerprint, "fingerprint parity for {}", a.id);
        }
        assert_eq!(
            report.trace.content_hash(),
            baseline.trace.content_hash(),
            "trace address parity"
        );
        assert_eq!(report.trace.file_name(), baseline.trace.file_name());
    }

    #[test]
    fn hung_workers_are_detected_and_the_registry_still_completes() {
        let reg = small_registry();
        assert!(Path::new("/bin/sleep").exists(), "test needs /bin/sleep");
        // /bin/sleep never speaks the protocol: the no-progress watchdog
        // fires, budget 0 means one incarnation per slot, then degradation.
        let cfg = SvcConfig::new(1)
            .with_tracing(true)
            .with_respawn_budget(0)
            .with_hang_timeout(Duration::from_millis(120))
            .with_worker_cmd(vec!["/bin/sleep".into(), "60".into()]);
        let policy = SupervisePolicy::new(0);
        let (report, stats) = verify_all_svc(&reg, 5, None, &policy, None, |_, p| p, cfg).unwrap();
        assert!(stats.hangs >= 1, "watchdog must fire");
        assert!(stats.degraded);
        assert!(report.all_reproduced());
    }

    #[test]
    fn degraded_run_mode_matches_in_process_fingerprints() {
        let reg = small_registry();
        let cfg = SvcConfig::new(2)
            .with_tracing(true)
            .with_respawn_budget(0)
            .with_hang_timeout(Duration::from_millis(150))
            .with_worker_cmd(vec!["/bin/true".into()]);
        let batch = Batch { policy: SupervisePolicy::new(0), ..Batch::new(Mode::Run, 31) };
        let sharded = batch.execute(&reg, Dispatch::Sharded(cfg)).unwrap();
        let stats = sharded.svc.unwrap();
        let (runs, report) = sharded.report.into_run();
        assert!(stats.degraded);
        assert_eq!(runs.len(), reg.len());
        assert_eq!(report.failed_runs, 0);
        let exec = Executor::new(2).with_tracing(true);
        let (base, base_report) =
            batch.execute(&reg, Dispatch::InProcess(&exec)).unwrap().report.into_run();
        for ((id_a, out_a), (id_b, out_b)) in runs.iter().zip(base.iter()) {
            assert_eq!(id_a, id_b);
            let (RunOutcome::Ok { record: a, .. }, RunOutcome::Ok { record: b, .. }) =
                (out_a, out_b)
            else {
                panic!("both paths succeed");
            };
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
        assert_eq!(
            report.trace.content_hash(),
            base_report.trace.content_hash(),
            "run-mode trace parity under degradation"
        );
    }
}
