//! Workspace call graph over extracted items.
//!
//! Links every [`CallSite`] to the workspace
//! `fn` definitions it can refer to. Resolution is name-based with three
//! refinements applied in order — same-file definitions win, then
//! written path prefixes and `use` imports confirm cross-file targets,
//! and bare names (including method calls) only link when the name is
//! unique workspace-wide. Unresolvable calls (std, vendored crates,
//! common method names) simply produce no edge; the taint pass treats
//! well-known sink/source *names* specially so resolution gaps never
//! hide a finding, only shorten a path.

use crate::items::{CallSite, FileItems};
use std::collections::BTreeMap;

/// One function node in the graph.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Index into [`CallGraph::files`].
    pub file: usize,
    /// Simple name.
    pub name: String,
    /// Scope-qualified name within its file.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Inclusive body line span.
    pub body_lines: (usize, usize),
    /// Raw call sites in the body (resolved or not), in source order.
    pub calls: Vec<CallSite>,
}

/// A resolved caller → callee edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallEdge {
    /// Calling function (index into [`CallGraph::fns`]).
    pub caller: usize,
    /// Called function (index into [`CallGraph::fns`]).
    pub callee: usize,
    /// 1-based line of the call site.
    pub line: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Display paths, parallel to the input file order.
    pub files: Vec<String>,
    /// Every `fn` in the workspace, grouped by file in input order.
    pub fns: Vec<FnInfo>,
    /// Resolved edges in deterministic (caller, source-order) order.
    pub edges: Vec<CallEdge>,
    callers_of: Vec<Vec<usize>>,
    callees_of: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the graph from per-file extracted items. `files` pairs each
    /// display path with its items; input order fixes all node ids, so
    /// the graph is deterministic for a sorted workspace walk.
    pub fn build(files: &[(String, FileItems)]) -> CallGraph {
        let mut g = CallGraph::default();
        // Flatten definitions and index them by simple name.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (fi, (path, items)) in files.iter().enumerate() {
            g.files.push(path.clone());
            for def in &items.fns {
                let id = g.fns.len();
                by_name.entry(def.name.as_str()).or_default().push(id);
                g.fns.push(FnInfo {
                    file: fi,
                    name: def.name.clone(),
                    qual: def.qual.clone(),
                    line: def.line,
                    body_lines: def.body_lines,
                    calls: def.calls.clone(),
                });
            }
        }
        // Per-file imported-name set, for bare-call confirmation.
        let imported: Vec<Vec<&str>> = files
            .iter()
            .map(|(_, items)| items.imports.iter().map(|u| u.alias.as_str()).collect())
            .collect();
        // Resolve each call site.
        for caller in 0..g.fns.len() {
            let file = g.fns[caller].file;
            for call in g.fns[caller].calls.clone() {
                let Some(cands) = by_name.get(call.name.as_str()) else { continue };
                let targets = resolve(&g, caller, &call, cands, &imported[file]);
                for callee in targets {
                    let edge = CallEdge { caller, callee, line: call.line };
                    if !g.edges.contains(&edge) {
                        g.edges.push(edge);
                    }
                }
            }
        }
        g.callers_of = vec![Vec::new(); g.fns.len()];
        g.callees_of = vec![Vec::new(); g.fns.len()];
        for (ei, e) in g.edges.iter().enumerate() {
            g.callers_of[e.callee].push(ei);
            g.callees_of[e.caller].push(ei);
        }
        g
    }

    /// Edges whose callee is `id`.
    pub fn callers_of(&self, id: usize) -> impl Iterator<Item = &CallEdge> {
        self.callers_of[id].iter().map(|&ei| &self.edges[ei])
    }

    /// Edges whose caller is `id`.
    pub fn callees_of(&self, id: usize) -> impl Iterator<Item = &CallEdge> {
        self.callees_of[id].iter().map(|&ei| &self.edges[ei])
    }

    /// The function in `file` whose body span contains `line`, preferring
    /// the innermost (latest-starting) match so nested fns win.
    pub fn fn_at(&self, file: usize, line: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && (f.line..=f.body_lines.1).contains(&line))
            .max_by_key(|(_, f)| f.line)
            .map(|(id, _)| id)
    }

    /// Display label `path::qual` for diagnostics.
    pub fn label(&self, id: usize) -> String {
        format!("{}::{}", self.files[self.fns[id].file], self.fns[id].qual)
    }
}

/// Resolution policy, in priority order (see module docs).
fn resolve(
    g: &CallGraph,
    caller: usize,
    call: &CallSite,
    cands: &[usize],
    imports: &[&str],
) -> Vec<usize> {
    let file = g.fns[caller].file;
    let cands: Vec<usize> = cands.to_vec();
    // 1. Same-file definitions win outright.
    let local: Vec<usize> = cands.iter().copied().filter(|&c| g.fns[c].file == file).collect();
    if !local.is_empty() {
        return local;
    }
    // 2. A written path (`hash::fnv64(..)`) or an import of the name
    //    confirms a cross-file free-function call: link all candidates.
    if !call.path.is_empty() || imports.contains(&call.name.as_str()) {
        return cands;
    }
    // 3. Bare names (incl. method calls) link only when unambiguous.
    if cands.len() == 1 {
        return cands;
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::lexer::lex;
    use crate::scanner::scan;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let parsed: Vec<(String, FileItems)> = files
            .iter()
            .map(|(p, src)| (p.to_string(), extract(&lex(&scan(src).cleaned))))
            .collect();
        CallGraph::build(&parsed)
    }

    #[test]
    fn same_file_calls_resolve_locally() {
        let g =
            graph_of(&[("a.rs", "fn helper() -> u64 { 1 }\nfn main_fn() -> u64 { helper() }\n")]);
        assert_eq!(g.edges.len(), 1);
        let e = g.edges[0];
        assert_eq!(g.fns[e.caller].name, "main_fn");
        assert_eq!(g.fns[e.callee].name, "helper");
    }

    #[test]
    fn cross_file_calls_need_path_or_import_when_ambiguous() {
        let g = graph_of(&[
            ("a.rs", "fn work() -> u64 { 1 }\n"),
            ("b.rs", "fn work() -> u64 { 2 }\n"),
            // Ambiguous bare call: two candidate `work` defs, no import.
            ("c.rs", "fn c1() -> u64 { work() }\n"),
            // Written path confirms a free-fn call: links both candidates.
            ("d.rs", "fn d1() -> u64 { jobs::work() }\n"),
        ]);
        let c1 = g.fns.iter().position(|f| f.name == "c1").unwrap();
        assert_eq!(g.callees_of(c1).count(), 0, "ambiguous bare call drops");
        let d1 = g.fns.iter().position(|f| f.name == "d1").unwrap();
        assert_eq!(g.callees_of(d1).count(), 2, "pathed call links candidates");
    }

    #[test]
    fn unique_bare_names_link_across_files() {
        let g = graph_of(&[
            ("a.rs", "fn only_here() -> u64 { 7 }\n"),
            ("b.rs", "fn user() -> u64 { only_here() }\n"),
        ]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.label(g.edges[0].callee), "a.rs::only_here");
    }

    #[test]
    fn fn_at_prefers_innermost() {
        let g = graph_of(&[(
            "a.rs",
            "fn outer() {\n    fn inner() {\n        work();\n    }\n}\nfn work() {}\n",
        )]);
        let id = g.fn_at(0, 3).unwrap();
        assert_eq!(g.fns[id].name, "inner");
        assert_eq!(g.fn_at(0, 6).map(|i| g.fns[i].name.clone()).unwrap(), "work");
    }

    #[test]
    fn recursion_produces_a_self_edge_not_a_hang() {
        let g = graph_of(&[(
            "a.rs",
            "fn rec(n: u64) -> u64 { if n == 0 { 0 } else { rec(n - 1) } }\n",
        )]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].caller, g.edges[0].callee);
    }
}
