//! The analyzer pipeline.
//!
//! Three phases, in order:
//!
//! 1. **Per-file scan** — read, scan, collect directives and apply the
//!    single-site rules (R1..R7, A1). Files are independent here, so
//!    this phase fans out across [`Lint::jobs`] threads; results are
//!    reassembled in workspace order, so the report is byte-identical
//!    for every job count.
//! 2. **Flow pass** — one serial walk over the workspace call graph for
//!    the cross-file rules R8..R12 (see [`taint`]). Flow findings honor
//!    the same allow directives, anchored at the finding line.
//! 3. **Assembly** — unused-allow accounting (A2) and the final
//!    deterministic sort.

use crate::allow::{self, Allow, Parsed};
use crate::report::{Diagnostic, LintReport, Severity};
use crate::rules::{self, RuleId};
use crate::scanner::{self, Scanned};
use crate::taint::{self, FlowInput};
use crate::workspace::{SourceFile, Workspace};
use std::io;

/// A configured lint pass.
#[derive(Debug, Clone)]
pub struct Lint {
    rules: Vec<RuleId>,
    flow: bool,
    jobs: usize,
}

impl Default for Lint {
    fn default() -> Self {
        Self::new()
    }
}

/// Phase-1 output for one file.
struct PreFile {
    sc: Scanned,
    allows: Vec<Allow>,
    diags: Vec<Diagnostic>,
}

impl Lint {
    /// A pass with every rule active, the flow pass on, single-threaded.
    pub fn new() -> Self {
        Self { rules: RuleId::ALL.to_vec(), flow: true, jobs: 1 }
    }

    /// A pass restricted to `rules` (directives naming inactive rules are
    /// ignored entirely).
    pub fn with_rules(rules: Vec<RuleId>) -> Self {
        Self { rules, flow: true, jobs: 1 }
    }

    /// Enables or disables the cross-file flow pass (R8..R12).
    pub fn flow(mut self, on: bool) -> Self {
        self.flow = on;
        self
    }

    /// Sets the phase-1 worker-thread count (clamped to at least 1).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The active rule set.
    pub fn rules(&self) -> &[RuleId] {
        &self.rules
    }

    fn active(&self, rule: RuleId) -> bool {
        self.rules.contains(&rule)
    }

    /// Lints every file in the workspace. I/O errors (unreadable or
    /// non-UTF-8 files) abort the pass — a file the analyzer cannot read
    /// is a file it cannot vouch for.
    pub fn run(&self, ws: &Workspace) -> io::Result<LintReport> {
        // Phase 1: independent per-file scans, fanned out over contiguous
        // index chunks so reassembly is a no-op.
        let texts = read_all(ws, self.jobs)?;
        let mut pres =
            par_bands(ws.files.len(), self.jobs, |i| self.scan_file(&ws.files[i], &texts[i]));

        // Phase 2: the serial cross-file flow pass.
        if self.flow && self.rules.iter().any(|r| r.is_flow()) {
            self.flow_pass(ws, &mut pres);
        }

        // Phase 3: unused-allow accounting and the deterministic sort.
        let mut diagnostics = Vec::new();
        let mut allows_honored = 0usize;
        for (file, pre) in ws.files.iter().zip(pres) {
            diagnostics.extend(pre.diags);
            for a in &pre.allows {
                if a.used {
                    allows_honored += 1;
                } else {
                    diagnostics.push(Diagnostic {
                        code: "A2",
                        rule: "unused-allow",
                        severity: Severity::Warn,
                        file: file.rel.clone(),
                        line: a.line,
                        col: a.col,
                        message: format!(
                            "allow({}) suppresses nothing on line {}",
                            a.rule.name(),
                            a.target_line
                        ),
                        hint: "delete the stale directive so suppressions stay meaningful"
                            .to_string(),
                        notes: Vec::new(),
                    });
                }
            }
        }
        diagnostics.sort_by(|a, b| {
            (&a.file, a.line, a.col, a.code).cmp(&(&b.file, b.line, b.col, b.code))
        });
        Ok(LintReport { files_scanned: ws.files.len(), diagnostics, allows_honored })
    }

    /// Lints one in-memory file through the full pipeline (flow pass
    /// included, over the one-file "workspace"); appends diagnostics and
    /// returns how many allow directives suppressed something. Test and
    /// doc surface — `run` is the real entry point.
    pub fn lint_file(&self, file: &SourceFile, text: &str, out: &mut Vec<Diagnostic>) -> usize {
        let mut pre = self.scan_file(file, text);
        if self.flow && self.rules.iter().any(|r| r.is_flow()) {
            let allowed: Vec<(usize, RuleId)> =
                pre.allows.iter().map(|a| (a.target_line, a.rule)).collect();
            let inputs = [FlowInput { rel: &file.rel, sc: &pre.sc, allowed }];
            for finding in taint::analyze(&inputs, &self.rules) {
                if suppress(&mut pre.allows, finding.rule, finding.line) {
                    continue;
                }
                let mut d =
                    diagnostic(file, finding.rule, finding.line, finding.col, finding.message);
                d.notes = finding.notes;
                pre.diags.push(d);
            }
        }
        let honored = pre.allows.iter().filter(|a| a.used).count();
        for a in &pre.allows {
            if !a.used {
                pre.diags.push(Diagnostic {
                    code: "A2",
                    rule: "unused-allow",
                    severity: Severity::Warn,
                    file: file.rel.clone(),
                    line: a.line,
                    col: a.col,
                    message: format!(
                        "allow({}) suppresses nothing on line {}",
                        a.rule.name(),
                        a.target_line
                    ),
                    hint: "delete the stale directive so suppressions stay meaningful".to_string(),
                    notes: Vec::new(),
                });
            }
        }
        out.extend(pre.diags);
        honored
    }

    /// Phase 1 for one file: scan + directives + single-site rules.
    fn scan_file(&self, file: &SourceFile, text: &str) -> PreFile {
        let sc = scanner::scan(text);
        let mut diags = Vec::new();
        let mut allows = self.collect_allows(file, &sc, &mut diags);
        for rule in &self.rules {
            match rule {
                RuleId::ThreadFloatMerge => {
                    self.check_thread_merge(file, &sc, &mut allows, &mut diags)
                }
                RuleId::MissingUnsafeForbid => check_crate_root(file, &sc, &mut diags),
                rule if rule.is_flow() => {}
                rule => self.check_tokens(file, *rule, &sc, &mut allows, &mut diags),
            }
        }
        PreFile { sc, allows, diags }
    }

    /// Phase 2: flow findings for the whole workspace, suppressed against
    /// the owning file's directives.
    fn flow_pass(&self, ws: &Workspace, pres: &mut [PreFile]) {
        let inputs: Vec<FlowInput<'_>> = ws
            .files
            .iter()
            .zip(pres.iter())
            .map(|(file, pre)| FlowInput {
                rel: &file.rel,
                sc: &pre.sc,
                allowed: pre.allows.iter().map(|a| (a.target_line, a.rule)).collect(),
            })
            .collect();
        let findings = taint::analyze(&inputs, &self.rules);
        drop(inputs);
        for finding in findings {
            let pre = &mut pres[finding.file];
            if suppress(&mut pre.allows, finding.rule, finding.line) {
                continue;
            }
            let file = &ws.files[finding.file];
            let mut d = diagnostic(file, finding.rule, finding.line, finding.col, finding.message);
            d.notes = finding.notes;
            pre.diags.push(d);
        }
    }

    /// Parses every comment for directives; malformed ones become `A1`
    /// diagnostics immediately.
    fn collect_allows(
        &self,
        file: &SourceFile,
        sc: &Scanned,
        out: &mut Vec<Diagnostic>,
    ) -> Vec<Allow> {
        let mut allows = Vec::new();
        for c in &sc.comments {
            match allow::parse(c) {
                Parsed::NotDirective => {}
                Parsed::Malformed(msg) => out.push(Diagnostic {
                    code: "A1",
                    rule: "malformed-allow",
                    severity: Severity::Error,
                    file: file.rel.clone(),
                    line: c.line,
                    col: c.col,
                    message: msg,
                    hint: "write: treu-lint: allow(<rule>, reason = \"<why>\")".to_string(),
                    notes: Vec::new(),
                }),
                Parsed::Directive { rule, reason } => {
                    if !self.active(rule) {
                        continue;
                    }
                    // A trailing directive covers its own line; a
                    // directive alone on a line covers the next line.
                    let code_before = sc
                        .cleaned
                        .get(c.line - 1)
                        .map(|l| l.chars().take(c.col - 1).any(|ch| !ch.is_whitespace()))
                        .unwrap_or(false);
                    let target_line = if code_before { c.line } else { c.line + 1 };
                    allows.push(Allow {
                        rule,
                        reason,
                        target_line,
                        line: c.line,
                        col: c.col,
                        used: false,
                    });
                }
            }
        }
        allows
    }

    fn check_tokens(
        &self,
        file: &SourceFile,
        rule: RuleId,
        sc: &Scanned,
        allows: &mut [Allow],
        out: &mut Vec<Diagnostic>,
    ) {
        if rule.exempt_paths().iter().any(|p| file.rel.ends_with(p)) {
            return;
        }
        for (idx, line) in sc.cleaned.iter().enumerate() {
            let lineno = idx + 1;
            for token in rule.tokens() {
                for col in rules::find_token(line, token) {
                    if suppress(allows, rule, lineno) {
                        continue;
                    }
                    out.push(diagnostic(file, rule, lineno, col, rule.message_for(token)));
                }
            }
        }
    }

    /// R6: `+=` accumulation on float evidence inside spawn regions that
    /// are not one of the canonical-merge modules.
    fn check_thread_merge(
        &self,
        file: &SourceFile,
        sc: &Scanned,
        allows: &mut [Allow],
        out: &mut Vec<Diagnostic>,
    ) {
        let rule = RuleId::ThreadFloatMerge;
        if rule.exempt_paths().iter().any(|p| file.rel.ends_with(p)) {
            return;
        }
        for &(start, end) in &sc.spawn_regions {
            let region: Vec<&str> = sc.cleaned[start - 1..end.min(sc.cleaned.len())]
                .iter()
                .map(String::as_str)
                .collect();
            let float_idents = rules::float_accumulator_idents(&region);
            for (off, line) in region.iter().enumerate() {
                let lineno = start + off;
                let Some(pos) = line.find("+=") else { continue };
                let evidence = rules::has_float_evidence(line)
                    || float_idents.iter().any(|id| !rules::find_token(line, id).is_empty());
                if !evidence || suppress(allows, rule, lineno) {
                    continue;
                }
                let col = line[..pos].chars().count() + 1;
                out.push(diagnostic(file, rule, lineno, col, rule.message_for("+=")));
            }
        }
    }
}

/// Reads every workspace file, fanning the I/O out with the same bands
/// as phase 1. The first error (in workspace order) wins.
fn read_all(ws: &Workspace, jobs: usize) -> io::Result<Vec<String>> {
    par_bands(ws.files.len(), jobs, |i| {
        let path = &ws.files[i].path;
        std::fs::read_to_string(path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    })
    .into_iter()
    .collect()
}

/// Maps `f` over `0..n` on up to `jobs` scoped threads, one contiguous
/// band of indices each, and returns the results in index order: the
/// bands of `treu_math::parallel::par_map`, which this crate does not
/// depend on.
fn par_bands<T: Send>(n: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if jobs <= 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    let band = n.div_ceil(jobs.min(n));
    let f = &f;
    std::thread::scope(|scope| {
        let bands: Vec<_> = (0..n)
            .step_by(band)
            .map(|start| {
                scope.spawn(move || (start..n.min(start + band)).map(f).collect::<Vec<_>>())
            })
            .collect();
        bands.into_iter().flat_map(|h| h.join().expect("lint worker panicked")).collect()
    })
}

/// R7: crate roots must carry an unsafe_code attribute. Not suppressible.
fn check_crate_root(file: &SourceFile, sc: &Scanned, out: &mut Vec<Diagnostic>) {
    if !file.is_crate_root {
        return;
    }
    let has_attr = sc.cleaned.iter().any(|l| {
        let flat: String = l.chars().filter(|c| !c.is_whitespace()).collect();
        flat.contains("#![forbid(unsafe_code)]") || flat.contains("#![deny(unsafe_code)]")
    });
    if !has_attr {
        let rule = RuleId::MissingUnsafeForbid;
        out.push(diagnostic(file, rule, 1, 1, rule.message_for("")));
    }
}

/// Marks a matching allow as used and reports whether one matched.
fn suppress(allows: &mut [Allow], rule: RuleId, line: usize) -> bool {
    if !rule.suppressible() {
        return false;
    }
    let mut hit = false;
    for a in allows.iter_mut() {
        if a.rule == rule && a.target_line == line {
            a.used = true;
            hit = true;
        }
    }
    hit
}

fn diagnostic(
    file: &SourceFile,
    rule: RuleId,
    line: usize,
    col: usize,
    message: String,
) -> Diagnostic {
    Diagnostic {
        code: rule.code(),
        rule: rule.name(),
        severity: rule.severity(),
        file: file.rel.clone(),
        line,
        col,
        message,
        hint: rule.hint().to_string(),
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_source(rel: &str, text: &str) -> (usize, Vec<Diagnostic>) {
        let file = SourceFile {
            path: std::path::PathBuf::from(rel),
            rel: rel.to_string(),
            is_crate_root: rel == "src/lib.rs" || rel.ends_with("/src/lib.rs"),
        };
        let mut out = Vec::new();
        let honored = Lint::new().lint_file(&file, text, &mut out);
        (honored, out)
    }

    #[test]
    fn hazard_tokens_in_strings_and_comments_are_inert() {
        let hm = "HashMap";
        let src = format!("// a {hm} note\nlet s = \"{hm}\";\n");
        let (_, diags) = lint_source("src/a.rs", &src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn trailing_allow_suppresses_its_own_line() {
        let src = "fn f() -> std::time::Instant {\n    \
                   std::time::Instant::now() // treu-lint: allow(wall-clock, reason = \"demo\")\n}\n";
        let (honored, diags) = lint_source("src/a.rs", src);
        assert_eq!(honored, 1);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn standalone_allow_covers_next_line_only() {
        let src = "// treu-lint: allow(wall-clock, reason = \"demo\")\n\
                   let a = std::time::Instant::now();\n\
                   let b = std::time::Instant::now();\n";
        let (honored, diags) = lint_source("src/a.rs", src);
        assert_eq!(honored, 1);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert_eq!(diags[0].code, "R3");
    }

    #[test]
    fn allow_for_the_wrong_rule_does_not_suppress() {
        let src = "// treu-lint: allow(env-read, reason = \"mismatched\")\n\
                   let a = std::time::Instant::now();\n";
        let (honored, diags) = lint_source("src/a.rs", src);
        assert_eq!(honored, 0);
        // The R3 hit plus the unused env-read allow.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.code == "R3"));
        assert!(diags.iter().any(|d| d.code == "A2"));
    }

    #[test]
    fn environment_module_is_exempt_from_env_read() {
        let src = "pub fn cap(n: &str) -> Option<String> { std::env::var(n).ok() }\n";
        let (_, diags) = lint_source("crates/core/src/environment.rs", src);
        assert!(diags.iter().all(|d| d.code != "R4"), "{diags:?}");
        let (_, diags) = lint_source("crates/other/src/x.rs", src);
        assert!(diags.iter().any(|d| d.code == "R4"), "{diags:?}");
    }

    #[test]
    fn crate_root_attribute_is_required_and_unsuppressible() {
        let (_, diags) = lint_source("crates/x/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "R7");
        let ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        let (_, diags) = lint_source("crates/x/src/lib.rs", ok);
        assert!(diags.is_empty(), "{diags:?}");
        // deny also satisfies the rule (for justified exceptions).
        let deny = "#![deny(unsafe_code)]\npub fn f() {}\n";
        let (_, diags) = lint_source("crates/x/src/lib.rs", deny);
        assert!(diags.is_empty(), "{diags:?}");
        // Non-roots are not checked.
        let (_, diags) = lint_source("crates/x/src/other.rs", "pub fn f() {}\n");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn rule_filter_disables_other_rules_and_their_allows() {
        let src = "// treu-lint: allow(wall-clock, reason = \"demo\")\n\
                   let a = std::time::Instant::now();\n\
                   static mut X: u64 = 0;\n";
        let file = SourceFile {
            path: std::path::PathBuf::from("src/a.rs"),
            rel: "src/a.rs".to_string(),
            is_crate_root: false,
        };
        let mut out = Vec::new();
        Lint::with_rules(vec![RuleId::RelaxedAtomics]).lint_file(&file, src, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].code, "R5");
    }

    #[test]
    fn thread_merge_flags_float_accumulation_in_spawn() {
        let src = "pub fn s(c: &[f64]) -> f64 {\n    let mut t = 0.0;\n    scope(|s| {\n        \
                   s.spawn(|| {\n            let mut local = 0.0;\n            for v in c {\n                \
                   local += *v;\n            }\n            t += local;\n        });\n    });\n    t\n}\n";
        let (_, diags) = lint_source("crates/x/src/m.rs", src);
        let r6: Vec<_> = diags.iter().filter(|d| d.code == "R6").collect();
        assert_eq!(r6.len(), 2, "{diags:?}");
        assert_eq!(r6[0].line, 7);
        assert_eq!(r6[1].line, 9);
    }

    #[test]
    fn thread_merge_ignores_integer_counters_and_outside_code() {
        let src = "pub fn s(c: &[u64]) -> u64 {\n    let mut t = 0u64;\n    scope(|s| {\n        \
                   s.spawn(|| {\n            let mut n = 0usize;\n            n += 1;\n        });\n    });\n    \
                   t += 9;\n    t\n}\n";
        let (_, diags) = lint_source("crates/x/src/m.rs", src);
        assert!(diags.iter().all(|d| d.code != "R6"), "{diags:?}");
    }

    #[test]
    fn canonical_merge_modules_are_exempt_from_thread_merge() {
        let src = "fn m() {\n    s.spawn(|| {\n        let mut acc = 0.0;\n        acc += 1.5;\n    });\n}\n";
        let (_, diags) = lint_source("crates/math/src/parallel.rs", src);
        assert!(diags.iter().all(|d| d.code != "R6"), "{diags:?}");
        let (_, diags) = lint_source("crates/other/src/x.rs", src);
        assert!(diags.iter().any(|d| d.code == "R6"));
    }

    #[test]
    fn malformed_directive_is_an_error_and_does_not_suppress() {
        let src = "// treu-lint: allow(wall-clock)\nlet a = std::time::Instant::now();\n";
        let (honored, diags) = lint_source("src/a.rs", src);
        assert_eq!(honored, 0);
        assert!(diags.iter().any(|d| d.code == "A1"));
        assert!(diags.iter().any(|d| d.code == "R3"));
    }

    #[test]
    fn flow_findings_flow_through_lint_file() {
        let src = "fn stamp() -> u64 {\n    let t = SystemTime::now();\n    \
                   fnv64(&[1])\n}\n";
        let (_, diags) = lint_source("src/a.rs", src);
        let r8: Vec<_> = diags.iter().filter(|d| d.code == "R8").collect();
        assert_eq!(r8.len(), 1, "{diags:?}");
        assert_eq!(r8[0].line, 3);
        assert!(!r8[0].notes.is_empty());
    }

    #[test]
    fn flow_findings_are_suppressible_at_the_sink_line() {
        let src = "fn stamp() -> u64 {\n    let t = SystemTime::now();\n    \
                   fnv64(&[1]) // treu-lint: allow(taint-reaches-fingerprint, reason = \"demo audit\")\n}\n";
        let (honored, diags) = lint_source("src/a.rs", src);
        assert!(diags.iter().all(|d| d.code != "R8"), "{diags:?}");
        assert!(honored >= 1);
    }

    #[test]
    fn no_flow_disables_r8_through_r12() {
        let src = "fn stamp() -> u64 {\n    let t = SystemTime::now();\n    fnv64(&[1])\n}\n";
        let file = SourceFile {
            path: std::path::PathBuf::from("src/a.rs"),
            rel: "src/a.rs".to_string(),
            is_crate_root: false,
        };
        let mut out = Vec::new();
        Lint::new().flow(false).lint_file(&file, src, &mut out);
        assert!(out.iter().all(|d| d.code != "R8"), "{out:?}");
        assert!(out.iter().any(|d| d.code == "R3"), "token rules still run");
    }
}
