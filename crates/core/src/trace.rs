//! Deterministic run-trace observability: spans, counters, JSONL events.
//!
//! Reproducing a run bitwise says *that* it happened the same way twice;
//! it does not say *what happened when* — which attempt a transient fault
//! consumed, when a cache entry self-healed, why a run was quarantined.
//! The practical-reproducibility work the ROADMAP tracks wants the runtime
//! path itself to be part of the inspectable record, so this module gives
//! every supervised run an ordered stream of span events (claim →
//! attempt(s) → fault/backoff → cache hit/miss/heal → verdict) collected
//! in a per-run ring buffer and merged **index-ordered** into one batch
//! trace.
//!
//! **Determinism contract.** The event stream itself obeys the same rule
//! as every other result in the workspace: it is a pure function of
//! `(registry, seed, policy, plan)`. Everything scheduling-dependent —
//! wall-clock timestamps, worker identities, the jobs count — is kept
//! *out* of [`BatchTrace::render_events`] and written to a separate
//! timing **sidecar** ([`BatchTrace::render_times`]) instead. The rendered
//! event stream is therefore bitwise-identical for every `--jobs` value,
//! and the trace file is **content-addressed**: its FNV-1a hash is its
//! filename (`trace-<hash>.jsonl`), so two machines that produced the
//! same execution story produce the same file at the same name, and
//! `treu trace --check` can detect a tampered or truncated trace the same
//! way the run cache detects a damaged entry.
//!
//! The format is line-oriented JSON (one object per line, no nesting)
//! written and read with [`crate::codec`] — the workspace carries no
//! serde — with a header line, one descriptor line per run, and one line
//! per event. [`parse_trace`] accepts exactly the bytes
//! [`BatchTrace::render_events`] writes and returns the typed trace.
//! [`TraceCounters`] folds a batch's events into the aggregate counts the
//! reports print, so the report and the trace can never disagree.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use crate::cache::write_atomic;
use crate::codec::{self, Cursor, Esc, Token};
use treu_math::parallel::SchedStats;

/// Magic header value of the hashed event stream.
pub const TRACE_MAGIC: &str = "treu-trace v1";
/// Magic header value of the non-hashed timing sidecar.
pub const TIMES_MAGIC: &str = "treu-trace-times v1";
/// Default per-run ring-buffer capacity; a supervised verify run emits
/// roughly a dozen events, so drops only happen under pathological retry
/// storms — and are counted when they do.
pub const DEFAULT_RING_CAPACITY: usize = 512;

// The trace address is the canonical FNV-1a fold over the rendered event
// stream — the same hash the run cache and fault plan use.
use crate::hash::fnv64;

/// Failure-taxonomy labels an event may carry — the `&'static str`s the
/// in-process supervisor emits (see `FailureKind::name`).
const TAXONOMY: [&str; 4] = ["Panicked", "TimedOut", "Nondeterministic", "CorruptCache"];

/// Cluster-simulator recovery policy labels.
const POLICIES: [&str; 2] = ["restage", "checkpoint"];

/// What a classified cache lookup found — the trace-side mirror of
/// [`crate::cache::Lookup`], kept separate so this module stays free of
/// record payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheResult {
    /// Valid entry served without recompute.
    Hit,
    /// No entry at the address.
    Miss,
    /// Entry invalidated by a code+env fingerprint change.
    Stale,
    /// Entry failed read-time checksum verification (deleted on sight).
    Corrupt,
}

impl CacheResult {
    const ALL: [Self; 4] = [Self::Hit, Self::Miss, Self::Stale, Self::Corrupt];

    /// Stable event-stream label.
    pub fn name(self) -> &'static str {
        match self {
            CacheResult::Hit => "hit",
            CacheResult::Miss => "miss",
            CacheResult::Stale => "stale",
            CacheResult::Corrupt => "corrupt",
        }
    }
}

/// How one supervised attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt completed and produced a record.
    Ok,
    /// The attempt panicked (organic or injected).
    Panicked,
    /// The attempt exceeded its per-run deadline.
    TimedOut,
}

impl AttemptOutcome {
    const ALL: [Self; 3] = [Self::Ok, Self::Panicked, Self::TimedOut];

    /// Stable event-stream label.
    pub fn name(self) -> &'static str {
        match self {
            AttemptOutcome::Ok => "ok",
            AttemptOutcome::Panicked => "panicked",
            AttemptOutcome::TimedOut => "timed-out",
        }
    }
}

/// One span event in a run's execution story.
///
/// Every payload here is deterministic given `(registry, seed, policy,
/// plan)` — worker ids, timestamps and jobs counts are deliberately not
/// representable, which is what keeps the rendered stream bitwise-stable
/// across schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A worker claimed this run (one per replica).
    Claim {
        /// Verification replica index (0 for plain runs).
        replica: u32,
    },
    /// The run cache was consulted before dispatch.
    Cache {
        /// What the classified lookup found.
        result: CacheResult,
    },
    /// A supervised attempt started.
    AttemptStart {
        /// Verification replica index.
        replica: u32,
        /// Attempt number (0 = first try).
        attempt: u32,
    },
    /// The fault plan injected a fault into this attempt.
    Fault {
        /// Verification replica index.
        replica: u32,
        /// Attempt number the fault is active on.
        attempt: u32,
        /// Fault label, e.g. `transient-err(2)` or `delay(40ms)`.
        kind: String,
    },
    /// The deterministic backoff pause before a retry.
    Backoff {
        /// Verification replica index.
        replica: u32,
        /// The attempt about to run (1 = first retry).
        attempt: u32,
        /// Milliseconds slept, from [`crate::fault::backoff_millis`].
        millis: u64,
    },
    /// A supervised attempt ended.
    AttemptEnd {
        /// Verification replica index.
        replica: u32,
        /// Attempt number.
        attempt: u32,
        /// How it ended.
        outcome: AttemptOutcome,
    },
    /// The supervisor's final word on one replica.
    Outcome {
        /// Verification replica index.
        replica: u32,
        /// True when a record was produced within the budget.
        ok: bool,
        /// Attempts consumed (including the successful one).
        attempts: u32,
        /// Failure taxonomy name when quarantined.
        taxonomy: Option<&'static str>,
    },
    /// A verified record was stored into the run cache.
    CacheStored,
    /// A corrupt cache entry was invalidated and the recompute
    /// re-established a verified result.
    CacheHealed,
    /// The cross-check verdict for the run.
    Verdict {
        /// True when replicas agreed bitwise (or a valid cache entry
        /// stood in for recomputation).
        reproduced: bool,
        /// True when served from the run cache.
        cached: bool,
        /// Attempts the slower replica needed.
        attempts: u32,
        /// Fingerprint of the first replica (0 when none completed).
        fingerprint: u64,
        /// Failure taxonomy name when not reproduced.
        failure: Option<&'static str>,
    },
    /// Cluster simulator: failures drawn for one job.
    SimFailures {
        /// Failure count under the seeded failure model.
        failures: usize,
    },
    /// Cluster simulator: what recovery cost one job.
    SimRecovery {
        /// Recovery policy name (`restage` / `checkpoint`).
        policy: &'static str,
        /// Recovery overhead in milli-hours (integer so the rendered
        /// stream never depends on float formatting).
        overhead_millihours: u64,
    },
}

impl TraceEvent {
    /// Stable event name, as rendered in the `"ev"` field.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Claim { .. } => "claim",
            TraceEvent::Cache { .. } => "cache",
            TraceEvent::AttemptStart { .. } => "attempt-start",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Backoff { .. } => "backoff",
            TraceEvent::AttemptEnd { .. } => "attempt-end",
            TraceEvent::Outcome { .. } => "outcome",
            TraceEvent::CacheStored => "cache-stored",
            TraceEvent::CacheHealed => "cache-healed",
            TraceEvent::Verdict { .. } => "verdict",
            TraceEvent::SimFailures { .. } => "sim-failures",
            TraceEvent::SimRecovery { .. } => "sim-recovery",
        }
    }

    /// Reads the `"ev"` field and the payload fields of an open object, as
    /// [`TraceEvent::render_into`] writes them. Taxonomy, failure, policy
    /// and outcome labels are **interned** onto the same `&'static str`
    /// values the in-process path uses, and an unknown label is an error
    /// rather than an allocated impostor, so a parsed event can never hash
    /// differently from a native one.
    pub(crate) fn read(c: &mut Cursor<'_>) -> Result<TraceEvent, codec::Error> {
        let at = c.pos();
        let taxonomy = |c: &mut Cursor<'_>, key: &str| {
            let present = c.peek_key() == Some(key);
            present.then(|| c.label(key, &TAXONOMY, |t| t)).transpose()
        };
        Ok(match c.str("ev")?.as_str() {
            "claim" => TraceEvent::Claim { replica: c.value("replica")? },
            "cache" => TraceEvent::Cache {
                result: c.label("result", &CacheResult::ALL, CacheResult::name)?,
            },
            "attempt-start" => TraceEvent::AttemptStart {
                replica: c.value("replica")?,
                attempt: c.value("attempt")?,
            },
            "fault" => TraceEvent::Fault {
                replica: c.value("replica")?,
                attempt: c.value("attempt")?,
                kind: c.str("kind")?,
            },
            "backoff" => TraceEvent::Backoff {
                replica: c.value("replica")?,
                attempt: c.value("attempt")?,
                millis: c.value("millis")?,
            },
            "attempt-end" => TraceEvent::AttemptEnd {
                replica: c.value("replica")?,
                attempt: c.value("attempt")?,
                outcome: c.label("outcome", &AttemptOutcome::ALL, AttemptOutcome::name)?,
            },
            "outcome" => TraceEvent::Outcome {
                replica: c.value("replica")?,
                ok: c.value("ok")?,
                attempts: c.value("attempts")?,
                taxonomy: taxonomy(c, "taxonomy")?,
            },
            "cache-stored" => TraceEvent::CacheStored,
            "cache-healed" => TraceEvent::CacheHealed,
            "verdict" => TraceEvent::Verdict {
                reproduced: c.value("reproduced")?,
                cached: c.value("cached")?,
                attempts: c.value("attempts")?,
                fingerprint: c.str_as("fingerprint", |t| t.hex64())?,
                failure: taxonomy(c, "failure")?,
            },
            "sim-failures" => TraceEvent::SimFailures { failures: c.value("failures")? },
            "sim-recovery" => TraceEvent::SimRecovery {
                policy: c.label("policy", &POLICIES, |p| p)?,
                overhead_millihours: c.value("overhead_millihours")?,
            },
            other => return Err(codec::Error::new(at, format!("unknown event {other:?}"))),
        })
    }

    /// Appends `"ev":"<name>"` and this event's payload fields, in the
    /// fixed order [`TraceEvent::read`] expects.
    pub(crate) fn render_into(&self, out: &mut String) {
        out.push_str(&format!("\"ev\":\"{}\"", self.name()));
        match self {
            TraceEvent::Claim { replica } => out.push_str(&format!(",\"replica\":{replica}")),
            TraceEvent::Cache { result } => {
                out.push_str(&format!(",\"result\":\"{}\"", result.name()));
            }
            TraceEvent::AttemptStart { replica, attempt } => {
                out.push_str(&format!(",\"replica\":{replica},\"attempt\":{attempt}"));
            }
            TraceEvent::Fault { replica, attempt, kind } => {
                out.push_str(&format!(
                    ",\"replica\":{replica},\"attempt\":{attempt},\"kind\":\"{}\"",
                    codec::escape(kind, Esc::Json)
                ));
            }
            TraceEvent::Backoff { replica, attempt, millis } => {
                out.push_str(&format!(
                    ",\"replica\":{replica},\"attempt\":{attempt},\"millis\":{millis}"
                ));
            }
            TraceEvent::AttemptEnd { replica, attempt, outcome } => {
                out.push_str(&format!(
                    ",\"replica\":{replica},\"attempt\":{attempt},\"outcome\":\"{}\"",
                    outcome.name()
                ));
            }
            TraceEvent::Outcome { replica, ok, attempts, taxonomy } => {
                out.push_str(&format!(
                    ",\"replica\":{replica},\"ok\":{ok},\"attempts\":{attempts}"
                ));
                if let Some(t) = taxonomy {
                    out.push_str(&format!(",\"taxonomy\":\"{t}\""));
                }
            }
            TraceEvent::CacheStored | TraceEvent::CacheHealed => {}
            TraceEvent::Verdict { reproduced, cached, attempts, fingerprint, failure } => {
                out.push_str(&format!(
                    ",\"reproduced\":{reproduced},\"cached\":{cached},\"attempts\":{attempts},\"fingerprint\":\"{}\"",
                    codec::hex64(*fingerprint)
                ));
                if let Some(f) = failure {
                    out.push_str(&format!(",\"failure\":\"{f}\""));
                }
            }
            TraceEvent::SimFailures { failures } => {
                out.push_str(&format!(",\"failures\":{failures}"));
            }
            TraceEvent::SimRecovery { policy, overhead_millihours } => {
                out.push_str(&format!(
                    ",\"policy\":\"{policy}\",\"overhead_millihours\":{overhead_millihours}"
                ));
            }
        }
    }

    /// One line of `treu trace`'s timeline.
    fn describe(&self) -> String {
        match self {
            TraceEvent::Claim { replica } => format!("claim replica {replica}"),
            TraceEvent::Cache { result } => format!("cache {}", result.name()),
            TraceEvent::AttemptStart { replica, attempt } => {
                format!("attempt-start replica {replica} attempt {attempt}")
            }
            TraceEvent::Fault { replica, attempt, kind } => {
                format!("fault replica {replica} attempt {attempt} [{kind}]")
            }
            TraceEvent::Backoff { replica, attempt, millis } => {
                format!("backoff replica {replica} attempt {attempt} ({millis}ms)")
            }
            TraceEvent::AttemptEnd { replica, attempt, outcome } => {
                format!("attempt-end replica {replica} attempt {attempt} → {}", outcome.name())
            }
            TraceEvent::Outcome { replica, ok, attempts, taxonomy } => format!(
                "outcome replica {replica} {} after {attempts} attempt(s){}",
                if *ok { "ok" } else { "quarantined" },
                taxonomy.map(|t| format!(" ({t})")).unwrap_or_default()
            ),
            TraceEvent::CacheStored => "cache store".to_string(),
            TraceEvent::CacheHealed => "cache healed (corrupt entry recomputed)".to_string(),
            TraceEvent::Verdict { reproduced, cached, failure, .. } => format!(
                "verdict {}{}{}",
                if *reproduced { "REPRODUCED" } else { "NOT REPRODUCED" },
                if *cached { " [cached]" } else { "" },
                failure.map(|f| format!(" ({f})")).unwrap_or_default()
            ),
            TraceEvent::SimFailures { failures } => format!("{failures} simulated failure(s)"),
            TraceEvent::SimRecovery { policy, overhead_millihours } => {
                format!("recovery via {policy} cost {:.3}h", *overhead_millihours as f64 / 1000.0)
            }
        }
    }
}

/// One run's bounded event buffer: events in emission order with
/// batch-relative timestamps kept alongside (but never rendered into the
/// hashed stream).
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Experiment id (or synthetic label for non-registry runs).
    pub id: String,
    /// The run seed.
    pub seed: u64,
    events: Vec<(u64, TraceEvent, f64)>,
    next_seq: u64,
    capacity: usize,
    /// Events evicted because the ring was full — deterministic for a
    /// deterministic event stream, and reported in the run descriptor.
    pub dropped: u64,
}

impl RunTrace {
    /// A fresh trace with the [`DEFAULT_RING_CAPACITY`].
    pub fn new(id: &str, seed: u64) -> Self {
        Self::with_capacity(id, seed, DEFAULT_RING_CAPACITY)
    }

    /// A fresh trace holding at most `capacity` events (clamped to ≥ 1);
    /// the oldest event is evicted (and counted) when the ring is full.
    pub fn with_capacity(id: &str, seed: u64, capacity: usize) -> Self {
        Self {
            id: id.to_string(),
            seed,
            events: Vec::new(),
            next_seq: 0,
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends an event at `at_seconds` (batch-relative wall offset; goes
    /// only to the sidecar). Evicts the oldest event when full.
    pub fn push(&mut self, event: TraceEvent, at_seconds: f64) {
        if self.events.len() >= self.capacity {
            self.events.remove(0);
            self.dropped += 1;
        }
        self.events.push((self.next_seq, event, at_seconds));
        self.next_seq += 1;
    }

    /// Moves every event of `other` (a replica-local buffer) into this
    /// trace, re-sequencing in arrival order — the index-ordered merge
    /// that keeps the stream schedule-independent.
    pub fn absorb(&mut self, other: RunTrace) {
        self.dropped += other.dropped;
        for (_, ev, at) in other.events {
            self.push(ev, at);
        }
    }

    /// The buffered `(seq, event, at_seconds)` triples, oldest first.
    pub fn events(&self) -> &[(u64, TraceEvent, f64)] {
        &self.events
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One worker's timing as recorded in the sidecar (never hashed).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerTiming {
    /// Seconds inside the claim loop.
    pub busy_seconds: f64,
    /// Chunks claimed.
    pub chunks: usize,
    /// Items computed.
    pub items: usize,
}

/// One [`WorkerTiming`] per worker the dynamic scheduler spawned, in
/// spawn order.
pub fn worker_timings(sched: &SchedStats) -> Vec<WorkerTiming> {
    sched
        .busy_seconds
        .iter()
        .zip(&sched.chunks_claimed)
        .zip(&sched.items)
        .map(|((&busy_seconds, &chunks), &items)| WorkerTiming { busy_seconds, chunks, items })
        .collect()
}

/// Aggregate counters folded from a batch's event stream — the single
/// source the reports print from, so report and trace cannot disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCounters {
    /// Runs in the batch.
    pub runs: usize,
    /// Total buffered events.
    pub events: u64,
    /// Events evicted from full rings.
    pub dropped: u64,
    /// Worker claims.
    pub claims: u64,
    /// Supervised attempts started.
    pub attempts: u64,
    /// Faults the plan injected.
    pub faults_injected: u64,
    /// Backoff pauses taken before retries.
    pub backoffs: u64,
    /// Cache lookups that hit.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// Cache entries invalidated by a fingerprint change.
    pub cache_stale: u64,
    /// Cache entries that failed checksum verification.
    pub cache_corrupt: u64,
    /// Verified records stored into the cache.
    pub cache_stores: u64,
    /// Corrupt entries that self-healed through recompute.
    pub cache_healed: u64,
    /// Replicas that completed within budget.
    pub completed: u64,
    /// Replicas that exhausted their budget (quarantined).
    pub quarantined: u64,
    /// Cross-check verdicts rendered.
    pub verdicts: u64,
    /// Verdicts that reproduced.
    pub reproduced: u64,
}

impl TraceCounters {
    /// One-line summary for report renders.
    pub fn render_line(&self) -> String {
        format!(
            "  trace: {} event(s) over {} run(s): {} attempt(s), {} fault(s) injected, {} backoff(s), {} cache hit(s), {} store(s){}\n",
            self.events,
            self.runs,
            self.attempts,
            self.faults_injected,
            self.backoffs,
            self.cache_hits,
            self.cache_stores,
            if self.dropped > 0 { format!(", {} dropped", self.dropped) } else { String::new() }
        )
    }
}

/// A whole batch's merged trace: the deterministic event stream plus the
/// scheduling-dependent timing data destined for the sidecar.
#[derive(Debug, Clone)]
pub struct BatchTrace {
    /// Batch kind (`run`, `verify`, `chaos`, `cluster-sim`).
    pub kind: String,
    /// The batch seed.
    pub seed: u64,
    /// Per-run traces, in canonical (input) order.
    pub runs: Vec<RunTrace>,
    /// Worker count used (sidecar only).
    pub jobs: usize,
    /// Batch wall seconds (sidecar only).
    pub wall_seconds: f64,
    /// Per-worker timing (sidecar only).
    pub workers: Vec<WorkerTiming>,
}

impl BatchTrace {
    /// An empty trace of the given kind.
    pub fn empty(kind: &str, seed: u64) -> Self {
        Self {
            kind: kind.to_string(),
            seed,
            runs: Vec::new(),
            jobs: 0,
            wall_seconds: 0.0,
            workers: Vec::new(),
        }
    }

    /// Renders the **deterministic** event stream: header, one descriptor
    /// line per run, one line per event. Contains no timestamps, worker
    /// ids or jobs counts — bitwise-identical for every schedule.
    pub fn render_events(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"trace\":\"{TRACE_MAGIC}\",\"kind\":\"{}\",\"seed\":{},\"runs\":{}}}\n",
            codec::escape(&self.kind, Esc::Json),
            self.seed,
            self.runs.len()
        ));
        for (i, run) in self.runs.iter().enumerate() {
            out.push_str(&format!(
                "{{\"run\":{i},\"id\":\"{}\",\"seed\":{},\"events\":{},\"dropped\":{}}}\n",
                codec::escape(&run.id, Esc::Json),
                run.seed,
                run.len(),
                run.dropped
            ));
            for (seq, ev, _) in run.events() {
                out.push_str(&format!("{{\"run\":{i},\"seq\":{seq},"));
                ev.render_into(&mut out);
                out.push_str("}\n");
            }
        }
        out
    }

    /// FNV-1a hash of [`BatchTrace::render_events`] — the trace's content
    /// address and filename stem.
    pub fn content_hash(&self) -> u64 {
        fnv64(self.render_events().as_bytes())
    }

    /// Renders the **non-hashed** timing sidecar: jobs count, batch wall
    /// time, per-worker loads, and one `at` offset per event.
    pub fn render_times(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"times\":\"{TIMES_MAGIC}\",\"jobs\":{},\"wall_seconds\":{:.6},\"workers\":{}}}\n",
            self.jobs,
            self.wall_seconds,
            self.workers.len()
        ));
        for (w, t) in self.workers.iter().enumerate() {
            out.push_str(&format!(
                "{{\"worker\":{w},\"busy_seconds\":{:.6},\"chunks\":{},\"items\":{}}}\n",
                t.busy_seconds, t.chunks, t.items
            ));
        }
        for (i, run) in self.runs.iter().enumerate() {
            for (seq, _, at) in run.events() {
                out.push_str(&format!("{{\"run\":{i},\"seq\":{seq},\"at\":{at:.6}}}\n"));
            }
        }
        out
    }

    /// Folds the event stream into aggregate counters.
    pub fn counters(&self) -> TraceCounters {
        let mut c = TraceCounters { runs: self.runs.len(), ..TraceCounters::default() };
        for run in &self.runs {
            c.dropped += run.dropped;
            for (_, ev, _) in run.events() {
                c.events += 1;
                match ev {
                    TraceEvent::Claim { .. } => c.claims += 1,
                    TraceEvent::Cache { result } => match result {
                        CacheResult::Hit => c.cache_hits += 1,
                        CacheResult::Miss => c.cache_misses += 1,
                        CacheResult::Stale => c.cache_stale += 1,
                        CacheResult::Corrupt => c.cache_corrupt += 1,
                    },
                    TraceEvent::AttemptStart { .. } => c.attempts += 1,
                    TraceEvent::Fault { .. } => c.faults_injected += 1,
                    TraceEvent::Backoff { .. } => c.backoffs += 1,
                    TraceEvent::AttemptEnd { .. } => {}
                    TraceEvent::Outcome { ok, .. } => {
                        if *ok {
                            c.completed += 1;
                        } else {
                            c.quarantined += 1;
                        }
                    }
                    TraceEvent::CacheStored => c.cache_stores += 1,
                    TraceEvent::CacheHealed => c.cache_healed += 1,
                    TraceEvent::Verdict { reproduced, .. } => {
                        c.verdicts += 1;
                        if *reproduced {
                            c.reproduced += 1;
                        }
                    }
                    TraceEvent::SimFailures { .. } | TraceEvent::SimRecovery { .. } => {}
                }
            }
        }
        c
    }

    /// Content-addressed filename of the event stream.
    pub fn file_name(&self) -> String {
        format!("trace-{:016x}.jsonl", self.content_hash())
    }

    /// Sidecar filename next to [`BatchTrace::file_name`].
    pub fn times_file_name(&self) -> String {
        format!("trace-{:016x}.times.jsonl", self.content_hash())
    }

    /// Writes the event stream and its timing sidecar under `dir`
    /// (created if needed), each through [`write_atomic`], so a killed
    /// writer never leaves a truncated stream at its own address; returns
    /// the event-stream path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = write_atomic(dir, &self.file_name(), &self.render_events())?;
        write_atomic(dir, &self.times_file_name(), &self.render_times())?;
        Ok(path)
    }
}

/// Exact inverse of [`BatchTrace::render_events`]: the typed trace, every
/// event at its explicit `seq` (so streams with ring drops round-trip),
/// with no timing data. Anything `render_events` would not write back byte
/// for byte is an error naming its offset.
pub fn parse_trace(text: &str) -> Result<BatchTrace, codec::Error> {
    let mut c = Cursor::new(text);
    c.open()?;
    c.str("trace")?;
    let mut trace = BatchTrace::empty(&c.str("kind")?, c.value("seed")?);
    c.value::<u64>("runs")?;
    c.close()?;
    while !c.done() {
        let line = c.pos();
        c.open()?;
        c.value::<u64>("run")?;
        if c.peek_key() == Some("seq") {
            let seq: u64 = c.value("seq")?;
            let ev = TraceEvent::read(&mut c)?;
            let run = trace.runs.last_mut().ok_or_else(|| c.err("event before any run"))?;
            // `RunTrace::push` numbers a run's events consecutively and
            // evicts the oldest, so its first kept seq is at most the
            // run's dropped count and every later one is one more.
            let in_sequence = match run.events.last() {
                Some(&(prev, ..)) => prev.checked_add(1) == Some(seq),
                None => seq <= run.dropped,
            };
            if !in_sequence {
                let why = format!("seq {seq} is out of sequence for run {:?}", run.id);
                return Err(codec::Error::new(line, why));
            }
            run.events.push((seq, ev, 0.0));
        } else {
            let mut run = RunTrace::new(&c.str("id")?, c.value("seed")?);
            c.value::<u64>("events")?;
            run.dropped = c.value("dropped")?;
            trace.runs.push(run);
        }
        c.close()?;
    }
    codec::canonical(text, &trace.render_events())?;
    Ok(trace)
}

/// Joins a timing sidecar onto the stream it belongs to: the jobs count,
/// batch wall time, per-worker timing and every event's batch-relative
/// offset. Exact inverse of [`BatchTrace::render_times`] for that stream.
pub fn parse_times(mut trace: BatchTrace, text: &str) -> Result<BatchTrace, codec::Error> {
    let mut c = Cursor::new(text);
    c.open()?;
    c.str("times")?;
    trace.jobs = c.value("jobs")?;
    trace.wall_seconds = c.value("wall_seconds")?;
    let workers: u64 = c.value("workers")?;
    c.close()?;
    trace.workers.clear();
    for _ in 0..workers {
        c.open()?;
        c.value::<u64>("worker")?;
        trace.workers.push(WorkerTiming {
            busy_seconds: c.value("busy_seconds")?,
            chunks: c.value("chunks")?,
            items: c.value("items")?,
        });
        c.close()?;
    }
    for (_, _, at) in trace.runs.iter_mut().flat_map(|r| r.events.iter_mut()) {
        c.open()?;
        c.value::<u64>("run")?;
        c.value::<u64>("seq")?;
        *at = c.value("at")?;
        c.close()?;
    }
    codec::canonical(text, &trace.render_times())?;
    Ok(trace)
}

/// The content hash a trace file's name claims, when the name follows the
/// `trace-<16 hex>.jsonl` convention.
pub fn hash_from_file_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_prefix("trace-")?.strip_suffix(".jsonl")?;
    let hash = Token { at: 0, text: &format!("0x{hex}") }.hex64().ok()?;
    (name == format!("trace-{hash:016x}.jsonl")).then_some(hash)
}

/// Verifies a stored trace: recomputes the FNV-1a hash of the file bytes
/// and compares it with the hash embedded in the filename, then parses
/// the stream strictly — a stream stored at its own address still fails
/// when it is not one [`BatchTrace::render_events`] writes. Returns the
/// verified hash, or a description of the mismatch or of the first
/// offending line.
pub fn check_trace_file(path: &Path) -> Result<u64, String> {
    let claimed = hash_from_file_name(path)
        .ok_or_else(|| format!("{}: name is not trace-<hash>.jsonl", path.display()))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let actual = fnv64(text.as_bytes());
    if actual != claimed {
        return Err(format!(
            "{}: content hash {actual:#018x} does not match address {claimed:#018x}",
            path.display()
        ));
    }
    parse_trace(&text).map_err(|e| format!("{}: {}", path.display(), e.locate(&text)))?;
    Ok(actual)
}

/// Renders the per-run timeline. With `timed` (the trace came through
/// [`parse_times`]), each event carries its batch-relative `+offset`;
/// without, order alone tells the story.
pub fn render_timeline(trace: &BatchTrace, timed: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} trace, seed {}, {} run(s){}\n",
        trace.kind,
        trace.seed,
        trace.runs.len(),
        if timed {
            format!(", {} job(s), wall {:.3}s", trace.jobs, trace.wall_seconds)
        } else {
            String::new()
        }
    ));
    for (i, run) in trace.runs.iter().enumerate() {
        out.push_str(&format!(
            "run {:<3} {} (seed {}{})\n",
            i,
            run.id,
            run.seed,
            if run.dropped > 0 {
                format!(", {} event(s) dropped", run.dropped)
            } else {
                String::new()
            }
        ));
        for (_, ev, at) in run.events() {
            let offset = if timed { format!("+{at:9.6}s  ") } else { String::new() };
            out.push_str(&format!("  {offset}{}\n", ev.describe()));
        }
    }
    out
}

/// Renders the per-worker utilization table of a timed trace.
pub fn render_worker_table(trace: &BatchTrace) -> String {
    let mut out = String::new();
    out.push_str("worker   busy(s)    chunks   items   utilization\n");
    let wall = trace.wall_seconds.max(1e-12);
    for (w, t) in trace.workers.iter().enumerate() {
        out.push_str(&format!(
            "{w:<6}  {:>9.4}  {:>7}  {:>6}   {:>10.1}%\n",
            t.busy_seconds,
            t.chunks,
            t.items,
            100.0 * (t.busy_seconds / wall).clamp(0.0, 1.0)
        ));
    }
    if trace.workers.is_empty() {
        out.push_str("(no worker timing recorded)\n");
    }
    out
}

/// The top-N slowest attempt spans of a timed trace (attempt-start →
/// attempt-end pairs, matched per `(run, replica, attempt)`).
pub fn render_slowest(trace: &BatchTrace, top: usize) -> String {
    let mut starts: BTreeMap<(usize, u32, u32), f64> = BTreeMap::new();
    let mut spans: Vec<(f64, usize, u32, u32)> = Vec::new();
    for (run, rt) in trace.runs.iter().enumerate() {
        for &(_, ref ev, at) in rt.events() {
            match *ev {
                TraceEvent::AttemptStart { replica, attempt } => {
                    starts.insert((run, replica, attempt), at);
                }
                TraceEvent::AttemptEnd { replica, attempt, .. } => {
                    if let Some(t0) = starts.remove(&(run, replica, attempt)) {
                        spans.push(((at - t0).max(0.0), run, replica, attempt));
                    }
                }
                _ => {}
            }
        }
    }
    spans.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then((a.1, a.2, a.3).cmp(&(b.1, b.2, b.3)))
    });
    let mut out = String::new();
    out.push_str(&format!("top {} slowest attempt span(s):\n", top.min(spans.len())));
    for (rank, (dur, run, replica, attempt)) in spans.iter().take(top).enumerate() {
        let id = &trace.runs[*run].id;
        out.push_str(&format!(
            "  {:>2}. {id} replica {replica} attempt {attempt} — {dur:.6}s\n",
            rank + 1
        ));
    }
    if spans.is_empty() {
        out.push_str("  (no attempt spans with timing data)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BatchTrace {
        let mut a = RunTrace::new("A", 7);
        a.push(TraceEvent::Cache { result: CacheResult::Miss }, 0.001);
        a.push(TraceEvent::Claim { replica: 0 }, 0.002);
        a.push(TraceEvent::AttemptStart { replica: 0, attempt: 0 }, 0.003);
        a.push(
            TraceEvent::Fault { replica: 0, attempt: 0, kind: "transient-err(1)".to_string() },
            0.004,
        );
        a.push(
            TraceEvent::AttemptEnd { replica: 0, attempt: 0, outcome: AttemptOutcome::Panicked },
            0.005,
        );
        a.push(TraceEvent::Backoff { replica: 0, attempt: 1, millis: 3 }, 0.006);
        a.push(TraceEvent::AttemptStart { replica: 0, attempt: 1 }, 0.009);
        a.push(
            TraceEvent::AttemptEnd { replica: 0, attempt: 1, outcome: AttemptOutcome::Ok },
            0.012,
        );
        a.push(TraceEvent::Outcome { replica: 0, ok: true, attempts: 2, taxonomy: None }, 0.012);
        a.push(TraceEvent::CacheStored, 0.013);
        a.push(
            TraceEvent::Verdict {
                reproduced: true,
                cached: false,
                attempts: 2,
                fingerprint: 0xDEAD_BEEF,
                failure: None,
            },
            0.014,
        );
        let mut b = RunTrace::new("B", 7);
        b.push(TraceEvent::Cache { result: CacheResult::Hit }, 0.001);
        b.push(
            TraceEvent::Verdict {
                reproduced: true,
                cached: true,
                attempts: 1,
                fingerprint: 0xBEEF,
                failure: None,
            },
            0.002,
        );
        BatchTrace {
            kind: "verify".to_string(),
            seed: 7,
            runs: vec![a, b],
            jobs: 4,
            wall_seconds: 0.015,
            workers: vec![
                WorkerTiming { busy_seconds: 0.010, chunks: 2, items: 2 },
                WorkerTiming { busy_seconds: 0.004, chunks: 1, items: 1 },
            ],
        }
    }

    #[test]
    fn rendered_stream_excludes_schedule_and_hash_is_stable() {
        let t = sample();
        let rendered = t.render_events();
        assert!(!rendered.contains("\"at\""), "timestamps belong to the sidecar");
        assert!(!rendered.contains("jobs"), "jobs count belongs to the sidecar");
        assert!(!rendered.contains("worker"), "worker identity belongs to the sidecar");
        assert_eq!(t.content_hash(), t.content_hash());
        // The hash is a pure function of the event content: changing the
        // sidecar-only fields never moves the address.
        let mut retimed = t.clone();
        retimed.jobs = 1;
        retimed.wall_seconds = 99.0;
        retimed.workers.clear();
        assert_eq!(t.content_hash(), retimed.content_hash());
        // But the event content does.
        let mut other = t.clone();
        other.runs[0].push(TraceEvent::CacheHealed, 0.02);
        assert_ne!(t.content_hash(), other.content_hash());
    }

    #[test]
    fn counters_fold_the_event_stream() {
        let c = sample().counters();
        assert_eq!(c.runs, 2);
        assert_eq!(c.claims, 1);
        assert_eq!(c.attempts, 2);
        assert_eq!(c.faults_injected, 1);
        assert_eq!(c.backoffs, 1);
        assert_eq!(c.cache_hits, 1);
        assert_eq!(c.cache_misses, 1);
        assert_eq!(c.cache_stores, 1);
        assert_eq!(c.completed, 1);
        assert_eq!(c.quarantined, 0);
        assert_eq!(c.verdicts, 2);
        assert_eq!(c.reproduced, 2);
        assert!(c.render_line().contains("2 attempt(s)"));
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut rt = RunTrace::with_capacity("R", 1, 3);
        for i in 0..5u32 {
            rt.push(TraceEvent::AttemptStart { replica: 0, attempt: i }, 0.0);
        }
        assert_eq!(rt.len(), 3);
        assert_eq!(rt.dropped, 2);
        let seqs: Vec<u64> = rt.events().iter().map(|(s, _, _)| *s).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest events are evicted first");
    }

    #[test]
    fn absorb_merges_in_arrival_order_and_resequences() {
        let mut main = RunTrace::new("M", 1);
        main.push(TraceEvent::Cache { result: CacheResult::Miss }, 0.0);
        let mut replica = RunTrace::new("M", 1);
        replica.push(TraceEvent::Claim { replica: 1 }, 0.1);
        replica.push(TraceEvent::AttemptStart { replica: 1, attempt: 0 }, 0.2);
        main.absorb(replica);
        let seqs: Vec<u64> = main.events().iter().map(|(s, _, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn parse_round_trips_the_renderer() {
        let t = sample();
        let tf = parse_trace(&t.render_events()).unwrap();
        assert_eq!(tf.kind, "verify");
        assert_eq!(tf.seed, 7);
        assert_eq!(tf.runs.len(), 2);
        assert_eq!(tf.runs[0].id, "A");
        assert_eq!(tf.runs[0].len(), 11);
        assert_eq!(tf.counters().events, 13);
        assert_eq!(tf.runs[0].events()[3].1, t.runs[0].events()[3].1);
        let times = parse_times(tf, &t.render_times()).unwrap();
        assert_eq!(times.jobs, 4);
        assert_eq!(times.workers.len(), 2);
        assert!((times.runs[0].events()[3].2 - 0.004).abs() < 1e-9);
    }

    #[test]
    fn escaped_ids_survive_the_round_trip() {
        let mut rt = RunTrace::new("weird \"id\"\nwith\\escapes", 3);
        rt.push(TraceEvent::Claim { replica: 0 }, 0.0);
        let t = BatchTrace { runs: vec![rt], ..BatchTrace::empty("run", 3) };
        let tf = parse_trace(&t.render_events()).unwrap();
        assert_eq!(tf.runs[0].id, "weird \"id\"\nwith\\escapes");
    }

    #[test]
    fn write_check_detects_tampering() {
        let dir = std::env::temp_dir().join(format!("treu-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = sample();
        let path = t.write(&dir).unwrap();
        assert_eq!(hash_from_file_name(&path), Some(t.content_hash()));
        assert_eq!(check_trace_file(&path).unwrap(), t.content_hash());
        // Flip one byte: the content no longer matches the address.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("claim", "cla1m", 1)).unwrap();
        let err = check_trace_file(&path).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn renderers_cover_timeline_workers_and_slowest() {
        let t = sample();
        let tf = parse_trace(&t.render_events()).unwrap();
        let times = parse_times(tf, &t.render_times()).unwrap();
        let timeline = render_timeline(&times, true);
        assert!(timeline.contains("run 0   A"));
        assert!(timeline.contains("fault replica 0 attempt 0 [transient-err(1)]"));
        assert!(timeline.contains("backoff replica 0 attempt 1 (3ms)"));
        assert!(timeline.contains("verdict REPRODUCED"));
        assert!(timeline.contains("[cached]"));
        assert!(timeline.contains("+"));
        let workers = render_worker_table(&times);
        assert!(workers.contains("utilization"));
        assert!(workers.contains("0.0100"));
        let slow = render_slowest(&times, 5);
        assert!(slow.contains("A replica 0 attempt"), "{slow}");
        // The attempt-1 span (0.009 → 0.012) and attempt-0 span
        // (0.003 → 0.005): the slower one ranks first.
        let first = slow.lines().nth(1).unwrap();
        assert!(first.contains("attempt 1"), "{slow}");
    }

    #[test]
    fn event_json_round_trips_every_variant_bitwise() {
        let events = vec![
            TraceEvent::Claim { replica: 1 },
            TraceEvent::Cache { result: CacheResult::Stale },
            TraceEvent::AttemptStart { replica: 0, attempt: 2 },
            TraceEvent::Fault { replica: 1, attempt: 0, kind: "delay(40ms) \"q\"".to_string() },
            TraceEvent::Backoff { replica: 0, attempt: 1, millis: 12 },
            TraceEvent::AttemptEnd { replica: 0, attempt: 1, outcome: AttemptOutcome::TimedOut },
            TraceEvent::Outcome { replica: 1, ok: false, attempts: 3, taxonomy: Some("TimedOut") },
            TraceEvent::Outcome { replica: 0, ok: true, attempts: 1, taxonomy: None },
            TraceEvent::CacheStored,
            TraceEvent::CacheHealed,
            TraceEvent::Verdict {
                reproduced: false,
                cached: false,
                attempts: 2,
                fingerprint: 0x0123_4567_89AB_CDEF,
                failure: Some("Nondeterministic"),
            },
            TraceEvent::Verdict {
                reproduced: true,
                cached: true,
                attempts: 1,
                fingerprint: 0,
                failure: None,
            },
            TraceEvent::SimFailures { failures: 3 },
            TraceEvent::SimRecovery { policy: "checkpoint", overhead_millihours: 250 },
        ];
        let mut rt = RunTrace::new("all", 1);
        for ev in &events {
            rt.push(ev.clone(), 0.0);
        }
        let text = BatchTrace { runs: vec![rt], ..BatchTrace::empty("verify", 1) }.render_events();
        let back = parse_trace(&text).unwrap_or_else(|e| panic!("{}", e.locate(&text)));
        let parsed: Vec<&TraceEvent> = back.runs[0].events().iter().map(|(_, ev, _)| ev).collect();
        assert_eq!(parsed, events.iter().collect::<Vec<_>>());
        // Re-rendering the parsed events is byte-identical — the wire
        // cannot perturb the hashed stream.
        assert_eq!(back.render_events(), text);
        // Unknown labels are rejected, never interned as impostors.
        for fields in [
            "\"ev\":\"outcome\",\"replica\":0,\"ok\":true,\"attempts\":1,\"taxonomy\":\"Gremlins\"",
            "\"ev\":\"no-such-event\"",
        ] {
            let bad = text.replacen("\"ev\":\"claim\",\"replica\":1", fields, 1);
            assert_ne!(bad, text);
            assert!(parse_trace(&bad).is_err(), "{fields}");
        }
    }

    #[test]
    fn parse_accepts_only_the_seqs_push_writes() {
        let mut rt = RunTrace::with_capacity("R", 1, 3);
        for i in 0..5u32 {
            rt.push(TraceEvent::AttemptStart { replica: 0, attempt: i }, 0.0);
        }
        let text = BatchTrace { runs: vec![rt], ..BatchTrace::empty("run", 1) }.render_events();
        let back = parse_trace(&text).expect("a stream with ring drops round-trips");
        assert_eq!(back.render_events(), text);
        // Kept seqs are 2, 3, 4 after 2 drops: a first seq past the drop
        // count, a repeat and a gap are all rejected at their line.
        for (from, to) in [
            ("\"seq\":2,", "\"seq\":3,"),
            ("\"seq\":3,", "\"seq\":2,"),
            ("\"seq\":4,", "\"seq\":9,"),
        ] {
            let bad = text.replacen(from, to, 1);
            let err = parse_trace(&bad).unwrap_err();
            assert!(err.reason.contains("out of sequence"), "{to}: {err}");
            assert_eq!(&bad[err.offset..err.offset + 8], "{\"run\":0", "{to}: {err}");
        }
    }

    #[test]
    fn sim_events_render_and_describe() {
        let mut rt = RunTrace::new("job0", 9);
        rt.push(TraceEvent::SimFailures { failures: 2 }, 0.0);
        rt.push(TraceEvent::SimRecovery { policy: "restage", overhead_millihours: 1500 }, 0.0);
        let t = BatchTrace { runs: vec![rt], ..BatchTrace::empty("cluster-sim", 9) };
        let tf = parse_trace(&t.render_events()).unwrap();
        let timeline = render_timeline(&tf, false);
        assert!(timeline.contains("2 simulated failure(s)"));
        assert!(timeline.contains("recovery via restage cost 1.500h"));
    }
}
