//! Seeded, structure-aware fuzzing of every text parser in the crate.
//!
//! Each property generates a valid value with adversarial content —
//! separators, `\`, `"`, tabs, CRs, newlines, control and non-ASCII
//! characters, NaN payloads, `-0.0`, ±inf, `u64::MAX` — renders it, checks
//! that the rendering parses back to itself, then applies one seeded
//! mutation per try: flip, insert or delete a byte; swap an ASCII letter's
//! case; turn a `\n` into `\r\n`; duplicate, swap or drop a line; or
//! truncate. The property: no panic, and either an error whose offset lies
//! within the mutated text and whose reason is non-empty, or a value that
//! renders to the mutated bytes exactly.

use proptest::prelude::*;
use proptest::TestRng;

use crate::attest::{AttestKey, Layout, Link, StepRule};
use crate::cache::{self, RunEntry};
use crate::codec::Error;
use crate::exec::{FailureKind, RunFailure, RunOutcome};
use crate::experiment::{Params, RunRecord};
use crate::fault::{FaultKind, FaultPlan};
use crate::provenance::Trail;
use crate::svc::{self, Frame, TaskOutput, TaskSpec};
use crate::trace::{
    self, AttemptOutcome, BatchTrace, CacheResult, RunTrace, TraceEvent, WorkerTiming,
};

/// Mutated tries per generated value.
const TRIES: usize = 24;

/// Adversarial values from one seeded stream.
struct Gen(TestRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(TestRng::for_case("treu-core fuzz", seed))
    }

    fn below(&mut self, n: usize) -> usize {
        self.0.next_bounded(n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 1
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => 0,
            1 => u64::MAX,
            2 => self.below(1000) as u64,
            _ => self.0.next_u64(),
        }
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn f64(&mut self) -> f64 {
        match self.below(12) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5 => f64::from_bits(0x7ff8_0000_0000_beef),
            6 => f64::from_bits(0xfff8_0000_0000_0000),
            7 => 5e-324,
            8 => f64::MAX,
            9 => 0.1 + 0.2,
            _ => f64::from_bits(self.0.next_u64()),
        }
    }

    /// Seconds as the `{:.6}` sidecars write them.
    fn micros(&mut self) -> f64 {
        self.below(1_000_000_000) as f64 / 1e6
    }

    fn text(&mut self) -> String {
        const PIECES: [&str; 28] = [
            " = ", " <- ", " ", "=", "<", "\\", "\"", "\t", "\r", "\n", "\r\n", "\u{1}", "\u{1f}",
            "\u{7f}", "é", "💥", "{", "}", ",", ":", "0x", "NaN", "\\u0041", "\\n", "a", "Z", "9",
            "-",
        ];
        (0..self.below(6)).map(|_| self.pick(&PIECES)).collect()
    }

    /// Non-empty text without whitespace (a layout prefix).
    fn word(&mut self) -> String {
        format!("p{}", self.text().replace(char::is_whitespace, ""))
    }

    fn trail(&mut self) -> Trail {
        let mut t = Trail::new();
        for _ in 0..self.below(6) {
            match self.below(4) {
                0 => {
                    let (k, v) = (self.text(), self.text());
                    t.param(&k, v);
                }
                1 => {
                    let (tag, seed) = (self.text(), self.u64());
                    t.rng_stream(&tag, seed);
                }
                2 => {
                    let (name, v) = (self.text(), self.f64());
                    t.metric(&name, v);
                }
                _ => t.note(self.text()),
            }
        }
        t
    }

    fn record(&mut self) -> RunRecord {
        RunRecord {
            name: self.text(),
            seed: self.u64(),
            trail: self.trail(),
            wall_seconds: self.f64(),
        }
    }

    fn event(&mut self) -> TraceEvent {
        const TAXONOMY: [Option<&str>; 3] = [None, Some("TimedOut"), Some("CorruptCache")];
        let (replica, attempt) = (self.u32(), self.u32());
        match self.below(12) {
            0 => TraceEvent::Claim { replica },
            1 => TraceEvent::Cache { result: self.pick(&[CacheResult::Hit, CacheResult::Corrupt]) },
            2 => TraceEvent::AttemptStart { replica, attempt },
            3 => TraceEvent::Fault { replica, attempt, kind: self.text() },
            4 => TraceEvent::Backoff { replica, attempt, millis: self.u64() },
            5 => TraceEvent::AttemptEnd {
                replica,
                attempt,
                outcome: self.pick(&[AttemptOutcome::Ok, AttemptOutcome::TimedOut]),
            },
            6 => TraceEvent::Outcome {
                replica,
                ok: self.coin(),
                attempts: attempt,
                taxonomy: self.pick(&TAXONOMY),
            },
            7 => TraceEvent::CacheStored,
            8 => TraceEvent::CacheHealed,
            9 => TraceEvent::Verdict {
                reproduced: self.coin(),
                cached: self.coin(),
                attempts: attempt,
                fingerprint: self.u64(),
                failure: self.pick(&TAXONOMY),
            },
            10 => TraceEvent::SimFailures { failures: self.u64() as usize },
            _ => TraceEvent::SimRecovery {
                policy: self.pick(&["restage", "checkpoint"]),
                overhead_millihours: self.u64(),
            },
        }
    }

    /// A batch trace whose small rings drop events, with sidecar timing.
    fn batch_trace(&mut self) -> BatchTrace {
        let mut trace = BatchTrace::empty(&self.text(), self.u64());
        for _ in 0..self.below(4) {
            let mut run = RunTrace::with_capacity(&self.text(), self.u64(), 1 + self.below(4));
            for _ in 0..self.below(7) {
                let (ev, at) = (self.event(), self.micros());
                run.push(ev, at);
            }
            trace.runs.push(run);
        }
        trace.jobs = self.below(64);
        trace.wall_seconds = self.micros();
        trace.workers = (0..self.below(3))
            .map(|_| WorkerTiming {
                busy_seconds: self.micros(),
                chunks: self.below(100),
                items: self.below(100),
            })
            .collect();
        trace
    }

    fn plan(&mut self) -> FaultPlan {
        let menu = (0..self.below(4))
            .map(|_| match self.below(4) {
                0 => FaultKind::Panic,
                1 => FaultKind::Delay(self.u64()),
                2 => FaultKind::CorruptTrail,
                _ => FaultKind::TransientErr(self.u32()),
            })
            .collect();
        let plan = FaultPlan::with_menu(self.u64(), self.f64(), menu);
        (0..self.below(3)).fold(plan, |plan, _| plan.and_panic_on(&self.text()))
    }

    fn params(&mut self) -> Params {
        (0..self.below(4)).fold(Params::new(), |p, _| {
            let key = self.text();
            match self.below(4) {
                0 => p.with_int(&key, self.pick(&[i64::MIN, -3, 0, i64::MAX])),
                1 => p.with_float(&key, self.f64()),
                2 => p.with_text(&key, &self.text()),
                _ => p.with_bool(&key, self.coin()),
            }
        })
    }

    fn frame(&mut self) -> Frame {
        match self.below(5) {
            0 => Frame::Hello {
                jobs: self.u64() as usize,
                tracing: self.coin(),
                plan: self.coin().then(|| self.plan()),
            },
            1 => Frame::Ready { pid: self.u32() },
            2 => Frame::Shard {
                shard: self.below(100),
                tasks: (0..self.below(3))
                    .map(|index| TaskSpec {
                        index,
                        id: self.text(),
                        seed: self.u64(),
                        replica: self.u32(),
                        params: self.params(),
                        retries: self.u32(),
                        deadline_us: self.u64(),
                        cache: self.coin(),
                    })
                    .collect(),
            },
            3 => Frame::Beat { shard: self.below(100), done: self.u64() as usize },
            _ => Frame::Done {
                shard: self.below(100),
                outputs: (0..self.below(3))
                    .map(|index| TaskOutput {
                        index,
                        outcome: if self.coin() {
                            RunOutcome::Ok { record: self.record(), attempts: self.u32() }
                        } else {
                            RunOutcome::Failed(RunFailure {
                                taxonomy: self.pick(&FailureKind::ALL),
                                attempts: self.u32(),
                                last_error: self.text(),
                            })
                        },
                        cached: false,
                        dropped: self.u64(),
                        events: (0..self.below(3)).map(|_| (self.event(), self.f64())).collect(),
                    })
                    .collect(),
            },
        }
    }
}

/// One seeded mutation of `bytes`.
fn mutate(g: &mut Gen, bytes: &[u8]) -> Vec<u8> {
    let mut b = bytes.to_vec();
    let mut lines: Vec<Vec<u8>> = b.split_inclusive(|&c| c == b'\n').map(<[u8]>::to_vec).collect();
    match g.below(9) {
        0 if !b.is_empty() => {
            let i = g.below(b.len());
            b[i] ^= 1 << g.below(8);
        }
        1 => {
            let i = g.below(b.len() + 1);
            b.insert(i, g.pick(b" \\\"\t\r\n{}=<x0+-,:"));
        }
        2 if !b.is_empty() => {
            b.remove(g.below(b.len()));
        }
        3 => {
            let letters: Vec<usize> =
                (0..b.len()).filter(|&i| b[i].is_ascii_alphabetic()).collect();
            if !letters.is_empty() {
                let i = g.pick(&letters);
                b[i] ^= 0x20;
            }
        }
        4 => {
            let newlines: Vec<usize> = (0..b.len()).filter(|&i| b[i] == b'\n').collect();
            if !newlines.is_empty() {
                b.insert(g.pick(&newlines), b'\r');
            }
        }
        5..=7 if !lines.is_empty() => {
            let i = g.below(lines.len());
            match g.below(3) {
                0 => lines.insert(i, lines[i].clone()),
                1 => {
                    let j = g.below(lines.len());
                    lines.swap(i, j);
                }
                _ => {
                    lines.remove(i);
                }
            }
            b = lines.concat();
        }
        _ => b.truncate(g.below(b.len() + 1)),
    }
    b
}

/// The property, for one generated value's rendering `text`.
fn check<T>(
    seed: u64,
    text: &str,
    parse: impl Fn(&str) -> Result<T, Error>,
    render: impl Fn(&T) -> String,
) {
    let value = parse(text).unwrap_or_else(|e| panic!("a rendering must parse: {e} in {text:?}"));
    assert_eq!(render(&value), text, "a rendering must round-trip");
    let mut g = Gen::new(seed ^ 0x6d75_7461_7465);
    for _ in 0..TRIES {
        // Parsers read text: bytes that are not UTF-8 never reach them.
        let Ok(mutated) = String::from_utf8(mutate(&mut g, text.as_bytes())) else { continue };
        match parse(&mutated) {
            Err(e) => assert!(
                e.offset <= mutated.len() && !e.reason.is_empty(),
                "bad error {e:?} for {mutated:?}"
            ),
            Ok(v) => assert_eq!(render(&v), mutated, "accepted a mutation that does not re-render"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn trail(seed in any::<u64>()) {
        let text = Gen::new(seed).trail().render();
        check(seed, &text, Trail::decode, Trail::render);
    }

    #[test]
    fn run_entry(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let fingerprint = g.u64();
        let text = RunEntry::render(fingerprint, &g.record());
        let parse = |t: &str| {
            let entry = RunEntry::parse(t)?;
            Ok((entry.fingerprint, entry.record()?))
        };
        check(seed, &text, parse, |(fp, rec)| RunEntry::render(*fp, rec));
    }

    #[test]
    fn blob_entry(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let text = cache::render_blob_entry(g.u64(), &g.text());
        let parse = |t: &str| cache::parse_blob_entry(t).map(|(fp, p)| (fp, p.to_string()));
        check(seed, &text, parse, |(fp, p)| cache::render_blob_entry(*fp, p));
    }

    #[test]
    fn link(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let mut link = Link {
            step: g.text(),
            seed: g.u64(),
            prev: g.u64(),
            materials: Default::default(),
            products: Default::default(),
            mac: g.u64(),
        };
        for _ in 0..g.below(4) {
            link.materials.insert(g.text(), g.u64());
            link.products.insert(g.text(), g.u64());
        }
        check(seed, &link.render(), Link::decode, Link::render);
    }

    #[test]
    fn layout(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let steps = (0..g.below(4))
            .map(|_| StepRule {
                name: g.text(),
                consumes: (0..g.below(3)).map(|_| g.word()).collect(),
                produces: (0..g.below(3)).map(|_| g.word()).collect(),
            })
            .collect();
        let layout = Layout { steps, key_fingerprint: g.u64(), mac: g.u64() };
        check(seed, &layout.render(), Layout::parse, Layout::render);
    }

    #[test]
    fn key_file(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let key = AttestKey::from_bytes((0..1 + g.below(64)).map(|_| g.u64() as u8).collect());
        check(seed, &key.render(), AttestKey::parse, AttestKey::render);
    }

    #[test]
    fn trace_stream(seed in any::<u64>()) {
        let trace = Gen::new(seed).batch_trace();
        check(seed, &trace.render_events(), trace::parse_trace, BatchTrace::render_events);
    }

    #[test]
    fn times_sidecar(seed in any::<u64>()) {
        let trace = Gen::new(seed).batch_trace();
        let stream = trace::parse_trace(&trace.render_events()).expect("stream parses");
        let parse = |t: &str| trace::parse_times(stream.clone(), t);
        check(seed, &trace.render_times(), parse, BatchTrace::render_times);
    }

    #[test]
    fn svc_frames(seed in any::<u64>()) {
        let text = Gen::new(seed).frame().render();
        check(seed, &text, Frame::parse, Frame::render);
    }

    #[test]
    fn fault_plan(seed in any::<u64>()) {
        let text = svc::encode_plan(&Gen::new(seed).plan());
        check(seed, &text, svc::decode_plan, svc::encode_plan);
    }

    #[test]
    fn frame_stream(seed in any::<u64>()) {
        let mut g = Gen::new(seed);
        let mut bytes = Vec::new();
        for _ in 0..1 + g.below(3) {
            let payload = if g.coin() { g.frame().render() } else { g.text() };
            svc::write_frame(&mut bytes, &payload).expect("writing to memory");
        }
        for _ in 0..TRIES {
            let mutated = mutate(&mut g, &bytes);
            let mut reader = &mutated[..];
            let mut again = Vec::new();
            let clean = loop {
                match svc::read_frame(&mut reader) {
                    Ok(Some(payload)) => svc::write_frame(&mut again, &payload).expect("memory"),
                    Ok(None) => break true,
                    Err(e) => {
                        assert!(!e.to_string().is_empty());
                        break false;
                    }
                }
            };
            if clean {
                assert_eq!(again, mutated, "accepted frames that do not re-render");
            }
        }
    }
}
