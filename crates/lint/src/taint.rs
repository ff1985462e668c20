//! Interprocedural taint propagation and the flow rules R8–R12.
//!
//! The flow pass runs once over the whole workspace, after the per-file
//! token rules. It lexes every file's cleaned text, extracts items,
//! builds the [`CallGraph`] and then:
//!
//! * seeds taint at **source** sites — wall-clock reads, `std::env`
//!   reads, ambient RNG, thread ids, unordered-collection use, the
//!   per-process-seeded `DefaultHasher`/`RandomState`, and process
//!   spawns whose child inherits the ambient environment (audited by an
//!   `env_clear` scrub in the spawning function) — and propagates
//!   it callee → caller to a fixpoint (a breadth-first worklist with a
//!   visited set, so recursive and mutually-recursive call graphs
//!   terminate);
//! * reports **R8** (or **R11** for the hasher class) wherever a tainted
//!   function feeds a fingerprint/cache-key **sink** (`fnv64`,
//!   `fnv64_parts`, `fingerprint`, `content_hash`, `derive_seed`), with
//!   the full source→sink call path attached as diagnostic notes;
//! * checks parallel regions for completion-order merges (**R9**) and
//!   order-sensitive locked accumulation (**R10**);
//! * flags duplicate definitions of determinism-critical primitives
//!   (**R12**), noting whether the copies have already drifted.
//!
//! A source line that carries an honored allow for its base token rule
//! (`allow(wall-clock, ...)` on an `Instant::now` line, say) is an
//! audited site: it does not seed taint, so annotating the source is
//! enough to silence downstream R8 findings too. Granularity is the
//! function — a function that both reads a source and calls a sink is
//! flagged even if the two values never meet, which is the documented
//! over-approximation (DESIGN §9).

use crate::callgraph::CallGraph;
use crate::items::{self, FileItems};
use crate::lexer;
use crate::rules::{self, RuleId};
use crate::scanner::Scanned;

/// Function names treated as fingerprint/cache-key/trace sinks.
pub const SINKS: [&str; 5] = ["fnv64", "fnv64_parts", "fingerprint", "content_hash", "derive_seed"];

/// Free functions whose duplication R12 flags: the canonical hash and
/// seed derivation, and the one text codec (`treu-core::codec`) every
/// persisted and wire format is written and read with.
#[rustfmt::skip]
pub const CRITICAL_PRIMITIVES: [&str; 13] = [
    "fnv64", "fnv64_parts", "unit", "derive_seed", "json_str", "canonical_params",
    "escape", "unescape", "hex64", "hex_bytes", "f64_text", "json_field", "canonical",
];

/// A class of nondeterminism source the taint pass seeds from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceClass {
    /// `Instant::now` / `SystemTime` (base rule R3).
    WallClock,
    /// `std::env` reads (base rule R4).
    EnvRead,
    /// Ambient RNG (base rule R2).
    AmbientRandomness,
    /// `HashMap`/`HashSet` iteration (base rule R1).
    UnorderedIteration,
    /// Thread identity — no base token rule covers it.
    ThreadId,
    /// `DefaultHasher`/`RandomState` — reported as R11, not R8.
    DefaultHasher,
    /// A process spawn whose child inherits the parent environment — the
    /// whole ambient env becomes an input to whatever the child computes.
    /// Audited by scrubbing: a spawn whose enclosing function calls
    /// `env_clear` pins the child environment and seeds no taint.
    SpawnEnv,
}

impl SourceClass {
    /// Every class, in seeding order.
    pub const ALL: [SourceClass; 7] = [
        SourceClass::WallClock,
        SourceClass::EnvRead,
        SourceClass::AmbientRandomness,
        SourceClass::UnorderedIteration,
        SourceClass::ThreadId,
        SourceClass::DefaultHasher,
        SourceClass::SpawnEnv,
    ];

    /// Tokens that mark a source of this class in cleaned text.
    pub fn tokens(self) -> &'static [&'static str] {
        match self {
            SourceClass::WallClock => RuleId::WallClock.tokens(),
            SourceClass::EnvRead => RuleId::EnvRead.tokens(),
            SourceClass::AmbientRandomness => RuleId::AmbientRandomness.tokens(),
            SourceClass::UnorderedIteration => RuleId::UnorderedCollections.tokens(),
            SourceClass::ThreadId => &["thread::current", "ThreadId"],
            SourceClass::DefaultHasher => &["DefaultHasher", "RandomState"],
            SourceClass::SpawnEnv => &["Command::new"],
        }
    }

    /// The per-line token rule whose allow audits sources of this class
    /// (`None` for classes no token rule covers).
    pub fn base_rule(self) -> Option<RuleId> {
        match self {
            SourceClass::WallClock => Some(RuleId::WallClock),
            SourceClass::EnvRead => Some(RuleId::EnvRead),
            SourceClass::AmbientRandomness => Some(RuleId::AmbientRandomness),
            SourceClass::UnorderedIteration => Some(RuleId::UnorderedCollections),
            SourceClass::ThreadId | SourceClass::DefaultHasher | SourceClass::SpawnEnv => None,
        }
    }

    /// Short phrase used in finding messages.
    pub fn describe(self) -> &'static str {
        match self {
            SourceClass::WallClock => "a wall-clock read",
            SourceClass::EnvRead => "an ambient environment read",
            SourceClass::AmbientRandomness => "ambient randomness",
            SourceClass::UnorderedIteration => "unordered-collection iteration",
            SourceClass::ThreadId => "thread identity",
            SourceClass::DefaultHasher => "a per-process-seeded hash",
            SourceClass::SpawnEnv => "an inherited spawn environment",
        }
    }

    /// The rule a finding from this class reports as.
    pub fn finding_rule(self) -> RuleId {
        match self {
            SourceClass::DefaultHasher => RuleId::DefaultHasherOutput,
            _ => RuleId::TaintReachesFingerprint,
        }
    }
}

/// One file's inputs to the flow pass.
#[derive(Debug)]
pub struct FlowInput<'a> {
    /// Workspace-relative display path.
    pub rel: &'a str,
    /// The scan result (cleaned lines + parallel regions).
    pub sc: &'a Scanned,
    /// `(line, rule)` pairs with an active allow directive, used to
    /// recognize audited source sites.
    pub allowed: Vec<(usize, RuleId)>,
}

/// One flow finding, pre-diagnostic (the lint pipeline owns suppression
/// and `Diagnostic` assembly).
#[derive(Debug, Clone)]
pub struct FlowFinding {
    /// The rule violated (one of R8..R12).
    pub rule: RuleId,
    /// Index into the input slice of the file the finding anchors to.
    pub file: usize,
    /// 1-based line.
    pub line: usize,
    /// 1-based char column.
    pub col: usize,
    /// Site-specific message.
    pub message: String,
    /// Call-path or drift evidence.
    pub notes: Vec<String>,
}

/// A seeded source site.
#[derive(Debug, Clone)]
struct SourceSite {
    class: SourceClass,
    token: &'static str,
    file: usize,
    line: usize,
    /// Enclosing function node, if the site is inside one.
    fn_id: Option<usize>,
}

/// Runs the whole flow pass. `active` filters which of R8..R12 run.
pub fn analyze(inputs: &[FlowInput<'_>], active: &[RuleId]) -> Vec<FlowFinding> {
    let parsed: Vec<(String, FileItems)> = inputs
        .iter()
        .map(|f| (f.rel.to_string(), items::extract(&lexer::lex(&f.sc.cleaned))))
        .collect();
    let graph = CallGraph::build(&parsed);
    let mut findings = Vec::new();
    let on = |r: RuleId| active.contains(&r);
    if on(RuleId::TaintReachesFingerprint) || on(RuleId::DefaultHasherOutput) {
        taint_findings(inputs, &graph, active, &mut findings);
    }
    if on(RuleId::UnorderedParallelMerge) || on(RuleId::LockedAccumulation) {
        region_findings(inputs, active, &mut findings);
    }
    if on(RuleId::DuplicatePrimitive) {
        duplicate_findings(inputs, &graph, &mut findings);
    }
    findings.sort_by_key(|a| (a.file, a.line, a.col, a.rule));
    findings
}

/// R8/R11: seed sources, propagate callee→caller, report at sink calls.
fn taint_findings(
    inputs: &[FlowInput<'_>],
    graph: &CallGraph,
    active: &[RuleId],
    out: &mut Vec<FlowFinding>,
) {
    let sources = collect_sources(inputs, graph);
    // taint[fn] = index into `sources` of the seed that reached it first,
    // plus the predecessor hop for path reconstruction.
    type Mark = Option<(usize, Option<(usize, usize)>)>;
    let mut taint: Vec<Mark> = vec![None; graph.fns.len()];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for (si, s) in sources.iter().enumerate() {
        if let Some(fid) = s.fn_id {
            if taint[fid].is_none() {
                taint[fid] = Some((si, None));
                queue.push_back(fid);
            }
        }
    }
    // Breadth-first fixpoint: each function is enqueued at most once, so
    // cycles terminate; first-reach order is deterministic because seeds
    // and edges are in deterministic order.
    while let Some(fid) = queue.pop_front() {
        let (si, _) = taint[fid].expect("queued fns are tainted");
        for e in graph.callers_of(fid) {
            if taint[e.caller].is_none() {
                taint[e.caller] = Some((si, Some((fid, e.line))));
                queue.push_back(e.caller);
            }
        }
    }
    // Report every sink call inside a tainted function, once per
    // (sink site, source class).
    let mut reported: Vec<(usize, usize, usize, SourceClass)> = Vec::new();
    for (fid, t) in taint.iter().enumerate() {
        let Some((si, _)) = *t else { continue };
        let src = &sources[si];
        let rule = src.class.finding_rule();
        if !active.contains(&rule) {
            continue;
        }
        let f = &graph.fns[fid];
        for call in &f.calls {
            if !SINKS.contains(&call.name.as_str()) {
                continue;
            }
            let key = (f.file, call.line, call.col, src.class);
            if reported.contains(&key) {
                continue;
            }
            reported.push(key);
            let mut notes = vec![format!(
                "source: `{}` ({}) at {}:{}",
                src.token,
                src.class.describe(),
                inputs[src.file].rel,
                src.line
            )];
            // Walk the predecessor chain from the sink fn back to the
            // seed fn, then print it source-first.
            let mut hops = Vec::new();
            let mut cur = fid;
            while let Some((_, Some((pred, via_line)))) = taint[cur] {
                hops.push(format!(
                    "via `{}` called from `{}` at {}:{}",
                    graph.fns[pred].qual,
                    graph.fns[cur].qual,
                    graph.files[graph.fns[cur].file],
                    via_line
                ));
                cur = pred;
            }
            hops.reverse();
            notes.extend(hops);
            notes.push(format!(
                "sink: `{}` called in `{}` at {}:{}",
                call.name, f.qual, inputs[f.file].rel, call.line
            ));
            out.push(FlowFinding {
                rule,
                file: f.file,
                line: call.line,
                col: call.col,
                message: format!(
                    "value derived from {} flows into `{}`",
                    src.class.describe(),
                    call.name
                ),
                notes,
            });
        }
    }
}

/// Collects unaudited source sites across all files.
fn collect_sources(inputs: &[FlowInput<'_>], graph: &CallGraph) -> Vec<SourceSite> {
    let mut sources = Vec::new();
    for (fi, input) in inputs.iter().enumerate() {
        for class in SourceClass::ALL {
            let rule = class.finding_rule();
            if rule.exempt_paths().iter().any(|p| input.rel.ends_with(p)) {
                continue;
            }
            // Token-rule-exempt files are sanctioned for that hazard, so
            // their sites are audited by construction.
            if class
                .base_rule()
                .is_some_and(|r| r.exempt_paths().iter().any(|p| input.rel.ends_with(p)))
            {
                continue;
            }
            for (idx, line) in input.sc.cleaned.iter().enumerate() {
                let lineno = idx + 1;
                let audited = class
                    .base_rule()
                    .is_some_and(|r| input.allowed.iter().any(|&(l, ar)| l == lineno && ar == r));
                if audited {
                    continue;
                }
                // A spawn that scrubs the child environment is pinned by
                // construction: with `env_clear` in the enclosing
                // function, the child sees only what the spawner sets
                // explicitly, so no ambient environment leaks through.
                if class == SourceClass::SpawnEnv {
                    let scrubbed = match graph.fn_at(fi, lineno) {
                        Some(fid) => {
                            let f = &graph.fns[fid];
                            let end = f.body_lines.1.min(input.sc.cleaned.len());
                            input.sc.cleaned[f.line - 1..end]
                                .iter()
                                .any(|l| l.contains("env_clear"))
                        }
                        None => line.contains("env_clear"),
                    };
                    if scrubbed {
                        continue;
                    }
                }
                for token in class.tokens() {
                    if rules::find_token(line, token).is_empty() {
                        continue;
                    }
                    sources.push(SourceSite {
                        class,
                        token,
                        file: fi,
                        line: lineno,
                        fn_id: graph.fn_at(fi, lineno),
                    });
                }
            }
        }
    }
    sources
}

/// R9/R10: lexical checks inside parallel regions.
fn region_findings(inputs: &[FlowInput<'_>], active: &[RuleId], out: &mut Vec<FlowFinding>) {
    for (fi, input) in inputs.iter().enumerate() {
        for &(start, end) in &input.sc.par_regions {
            let lines = &input.sc.cleaned[start - 1..end.min(input.sc.cleaned.len())];
            // Float evidence anywhere in the region arms R10 for lock
            // lines that are themselves evidence-free (`*acc.lock()... +=
            // local` where the Mutex was built around 0.0 elsewhere).
            let region_float = lines.iter().any(|l| rules::has_float_evidence(l));
            for (off, line) in lines.iter().enumerate() {
                let lineno = start + off;
                if !line.contains(".lock()") {
                    continue;
                }
                let col = line.find(".lock()").map(|p| line[..p].chars().count() + 1).unwrap_or(1);
                let r9 = RuleId::UnorderedParallelMerge;
                if active.contains(&r9)
                    && !r9.exempt_paths().iter().any(|p| input.rel.ends_with(p))
                    && line.contains(".push(")
                {
                    out.push(FlowFinding {
                        rule: r9,
                        file: fi,
                        line: lineno,
                        col,
                        message: "parallel results pushed to a shared collection in completion \
                                  order"
                            .to_string(),
                        notes: vec![format!(
                            "parallel region at {}:{}..{} merges through this lock",
                            input.rel, start, end
                        )],
                    });
                }
                let r10 = RuleId::LockedAccumulation;
                let compound = line.contains("+=") || line.contains("-=") || line.contains("*=");
                if active.contains(&r10)
                    && !r10.exempt_paths().iter().any(|p| input.rel.ends_with(p))
                    && compound
                    && (rules::has_float_evidence(line) || region_float)
                {
                    out.push(FlowFinding {
                        rule: r10,
                        file: fi,
                        line: lineno,
                        col,
                        message: "float accumulation under a lock follows worker completion \
                                  order"
                            .to_string(),
                        notes: vec![format!(
                            "parallel region at {}:{}..{} accumulates through this lock",
                            input.rel, start, end
                        )],
                    });
                }
            }
        }
    }
}

/// R12: determinism-critical free functions defined in more than one
/// file. The first definition (in workspace order) is canonical; every
/// other site is flagged, with a drift note from normalized-body
/// comparison.
fn duplicate_findings(inputs: &[FlowInput<'_>], graph: &CallGraph, out: &mut Vec<FlowFinding>) {
    for name in CRITICAL_PRIMITIVES {
        // Free functions only: methods named `unit` on some struct are
        // not redefinitions of the primitive.
        let defs: Vec<usize> = (0..graph.fns.len())
            .filter(|&id| graph.fns[id].name == name && graph.fns[id].qual == name)
            .collect();
        let mut files: Vec<usize> = defs.iter().map(|&id| graph.fns[id].file).collect();
        files.dedup();
        if files.len() < 2 {
            continue;
        }
        let canon = defs[0];
        let canon_body = normalized_body(inputs, graph, canon);
        for &id in &defs[1..] {
            if graph.fns[id].file == graph.fns[canon].file {
                continue;
            }
            let drift = if normalized_body(inputs, graph, id) == canon_body {
                "bodies are currently identical — nothing guards them against drifting"
            } else {
                "bodies already differ — the copies have drifted"
            };
            out.push(FlowFinding {
                rule: RuleId::DuplicatePrimitive,
                file: graph.fns[id].file,
                line: graph.fns[id].line,
                col: 1,
                message: format!("duplicate definition of determinism-critical `{name}`"),
                notes: vec![
                    format!(
                        "canonical definition at {}:{}",
                        graph.files[graph.fns[canon].file], graph.fns[canon].line
                    ),
                    drift.to_string(),
                ],
            });
        }
    }
}

/// Whitespace-normalized body text of a function, for drift comparison.
fn normalized_body(inputs: &[FlowInput<'_>], graph: &CallGraph, id: usize) -> String {
    let f = &graph.fns[id];
    let (start, end) = f.body_lines;
    let cleaned = &inputs[f.file].sc.cleaned;
    cleaned[start.saturating_sub(1)..end.min(cleaned.len())]
        .iter()
        .flat_map(|l| l.split_whitespace())
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn run(files: &[(&str, &str)]) -> Vec<FlowFinding> {
        let scans: Vec<(&str, Scanned)> =
            files.iter().map(|&(rel, src)| (rel, scan(src))).collect();
        let inputs: Vec<FlowInput<'_>> =
            scans.iter().map(|(rel, sc)| FlowInput { rel, sc, allowed: Vec::new() }).collect();
        analyze(&inputs, &RuleId::ALL)
    }

    #[test]
    fn taint_flows_across_files_into_a_sink() {
        let findings = run(&[
            (
                "a.rs",
                "pub fn stamp_now() -> u64 {\n    Instant::now().elapsed().as_nanos() as u64\n}\n",
            ),
            (
                "b.rs",
                "pub fn keyed() -> u64 {\n    let t = stamp_now();\n    fnv64(&t.to_le_bytes())\n}\n",
            ),
        ]);
        let r8: Vec<_> =
            findings.iter().filter(|f| f.rule == RuleId::TaintReachesFingerprint).collect();
        assert_eq!(r8.len(), 1, "{findings:?}");
        let f = r8[0];
        assert_eq!((f.file, f.line), (1, 3));
        assert!(f.message.contains("wall-clock"), "{}", f.message);
        assert!(f
            .notes
            .iter()
            .any(|n| n.contains("source: `Instant::now`") && n.contains("a.rs:2")));
        assert!(f.notes.iter().any(|n| n.contains("via `stamp_now`")), "{:?}", f.notes);
        assert!(f.notes.iter().any(|n| n.contains("sink: `fnv64`")), "{:?}", f.notes);
    }

    #[test]
    fn audited_sources_do_not_seed() {
        let src = "pub fn stamp() -> u64 {\n    let t = Instant::now();\n    fnv64(&[1])\n}\n";
        let sc = scan(src);
        let inputs = [FlowInput { rel: "a.rs", sc: &sc, allowed: vec![(2, RuleId::WallClock)] }];
        let findings = analyze(&inputs, &RuleId::ALL);
        assert!(findings.is_empty(), "{findings:?}");
        // Without the allow, the same code is a finding.
        let inputs = [FlowInput { rel: "a.rs", sc: &sc, allowed: Vec::new() }];
        assert_eq!(analyze(&inputs, &RuleId::ALL).len(), 1);
    }

    #[test]
    fn recursive_call_graphs_reach_fixpoint() {
        let findings = run(&[(
            "a.rs",
            "fn ping(n: u64) -> u64 {\n    if n == 0 { SystemTime::now(); 0 } else { pong(n - 1) }\n}\n\
             fn pong(n: u64) -> u64 {\n    ping(n)\n}\n\
             fn out() -> u64 {\n    fnv64_parts(&[&ping(3).to_le_bytes()])\n}\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::TaintReachesFingerprint);
    }

    #[test]
    fn default_hasher_reports_r11() {
        let findings = run(&[(
            "a.rs",
            "fn mix() -> u64 {\n    let h = DefaultHasher::new();\n    content_hash(h.finish())\n}\n",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::DefaultHasherOutput);
        // Hasher use with no sink reach is not a finding.
        let quiet = run(&[(
            "a.rs",
            "fn dedup() -> u64 {\n    let h = DefaultHasher::new();\n    h.finish()\n}\n",
        )]);
        assert!(quiet.is_empty(), "{quiet:?}");
    }

    #[test]
    fn r9_and_r10_fire_inside_par_regions_only() {
        let findings = run(&[(
            "a.rs",
            "fn merge(out: &Mutex<Vec<u64>>) {\n    par_map_dynamic(8, |i| {\n        \
             out.lock().unwrap().push(i);\n    });\n    out.lock().unwrap().push(99);\n}\n\
             fn acc(t: &Mutex<f64>) {\n    s.spawn(move || {\n        *t.lock().unwrap() += 0.5;\n    });\n}\n",
        )]);
        let r9: Vec<_> =
            findings.iter().filter(|f| f.rule == RuleId::UnorderedParallelMerge).collect();
        assert_eq!(r9.len(), 1, "{findings:?}");
        assert_eq!(r9[0].line, 3, "the push outside the region is fine");
        let r10: Vec<_> =
            findings.iter().filter(|f| f.rule == RuleId::LockedAccumulation).collect();
        assert_eq!(r10.len(), 1, "{findings:?}");
        assert_eq!(r10[0].line, 9);
    }

    #[test]
    fn duplicate_primitives_are_flagged_with_drift_status() {
        let findings = run(&[
            ("a.rs", "pub fn fnv64(b: &[u8]) -> u64 {\n    fold(b)\n}\n"),
            ("b.rs", "pub fn fnv64(b: &[u8]) -> u64 {\n    fold(b)\n}\n"),
            ("c.rs", "pub fn fnv64(b: &[u8]) -> u64 {\n    fold_differently(b)\n}\n"),
        ]);
        let r12: Vec<_> =
            findings.iter().filter(|f| f.rule == RuleId::DuplicatePrimitive).collect();
        assert_eq!(r12.len(), 2, "{findings:?}");
        assert!(r12[0].notes.iter().any(|n| n.contains("canonical definition at a.rs:1")));
        assert!(r12[0].notes.iter().any(|n| n.contains("currently identical")));
        assert!(r12[1].notes.iter().any(|n| n.contains("have drifted")), "{r12:?}");
        // A method named like a primitive is not a duplicate.
        let quiet = run(&[
            ("a.rs", "pub fn unit(h: u64) -> f64 {\n    0.0\n}\n"),
            ("b.rs", "impl Draw {\n    pub fn unit(&self) -> f64 {\n        0.1\n    }\n}\n"),
        ]);
        assert!(quiet.iter().all(|f| f.rule != RuleId::DuplicatePrimitive), "{quiet:?}");
    }

    #[test]
    fn exempt_paths_do_not_seed_or_fire() {
        // Env reads in the sanctioned capture module feed the fingerprint
        // by design.
        let findings = run(&[(
            "crates/core/src/environment.rs",
            "pub fn capture() -> u64 {\n    let v = env::var(\"HOME\");\n    \
             fnv64_parts(&[v.as_deref().unwrap_or(\"\").as_bytes()])\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
        // R9/R10 stay quiet in the canonical parallel modules.
        let findings = run(&[(
            "crates/math/src/parallel.rs",
            "fn m(out: &Mutex<Vec<u64>>) {\n    s.spawn(|| {\n        \
             out.lock().unwrap().push(1);\n    });\n}\n",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn inactive_rules_do_not_run() {
        let scans = scan("fn f() -> u64 {\n    SystemTime::now();\n    fnv64(&[1])\n}\n");
        let inputs = [FlowInput { rel: "a.rs", sc: &scans, allowed: Vec::new() }];
        let only_r12 = analyze(&inputs, &[RuleId::DuplicatePrimitive]);
        assert!(only_r12.is_empty(), "{only_r12:?}");
    }
}
