//! Host environment capture.
//!
//! "Results are reproducible only when the exact setup conditions are
//! obeyed" — the paper's phrasing of why environment disclosure matters.
//! [`Environment::capture`] snapshots the parts of the setup the seed does
//! not control (OS, architecture, thread count, selected environment
//! variables) so a [`crate::RunRecord`] can be interpreted later. Two
//! captures can be diffed to explain why a numerically identical rerun was
//! or was not expected.
//!
//! The thread count is reported, never fingerprinted: the determinism
//! contract makes every result invariant to it, so a cache filled on a
//! 2-core host stays valid on a 4-core one.

use std::collections::BTreeMap;
use treu_math::hash::fnv64;

/// A snapshot of the execution environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Environment {
    /// Operating system family (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Hardware threads available to the process.
    pub threads: usize,
    /// Package version of `treu-core` that captured the snapshot.
    pub harness_version: String,
    /// Selected environment variables (sorted map; only those named in
    /// `capture_with_vars` are included, to keep snapshots reviewable).
    pub vars: BTreeMap<String, String>,
}

impl Environment {
    /// Captures the current environment with no extra variables.
    pub fn capture() -> Self {
        Self::capture_with_vars(&[])
    }

    /// Captures the current environment plus the named variables (missing
    /// ones are recorded as absent by omission).
    pub fn capture_with_vars(var_names: &[&str]) -> Self {
        let mut vars = BTreeMap::new();
        for name in var_names {
            if let Ok(v) = std::env::var(name) {
                vars.insert((*name).to_string(), v);
            }
        }
        Self {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            harness_version: env!("CARGO_PKG_VERSION").to_string(),
            vars,
        }
    }

    /// Stable fingerprint of what results may depend on: FNV-1a over os,
    /// arch, harness version and vars, rendered canonically. `threads` is
    /// left out, as results are bitwise-invariant to it.
    pub fn fingerprint(&self) -> u64 {
        let (os, arch, harness) = (&self.os, &self.arch, &self.harness_version);
        fnv64(format!("os={os} arch={arch} harness={harness}\n{}", self.var_lines()).as_bytes())
    }

    /// Canonical plain-text rendering.
    pub fn render(&self) -> String {
        format!(
            "os={} arch={} threads={} harness={}\n{}",
            self.os,
            self.arch,
            self.threads,
            self.harness_version,
            self.var_lines()
        )
    }

    /// One `var K=V` line per recorded variable, in key order.
    fn var_lines(&self) -> String {
        self.vars.iter().map(|(k, v)| format!("var {k}={v}\n")).collect()
    }

    /// Lists the fields on which two environments differ, as
    /// human-readable `field: a -> b` strings. Empty when identical.
    pub fn diff(&self, other: &Environment) -> Vec<String> {
        let mut out = Vec::new();
        if self.os != other.os {
            out.push(format!("os: {} -> {}", self.os, other.os));
        }
        if self.arch != other.arch {
            out.push(format!("arch: {} -> {}", self.arch, other.arch));
        }
        if self.threads != other.threads {
            out.push(format!("threads: {} -> {}", self.threads, other.threads));
        }
        if self.harness_version != other.harness_version {
            out.push(format!("harness: {} -> {}", self.harness_version, other.harness_version));
        }
        let keys: std::collections::BTreeSet<&String> =
            self.vars.keys().chain(other.vars.keys()).collect();
        for k in keys {
            let a = self.vars.get(k);
            let b = other.vars.get(k);
            if a != b {
                out.push(format!(
                    "var {k}: {} -> {}",
                    a.map_or("<unset>", |s| s.as_str()),
                    b.map_or("<unset>", |s| s.as_str())
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_is_selfconsistent() {
        let e = Environment::capture();
        assert!(!e.os.is_empty());
        assert!(!e.arch.is_empty());
        assert!(e.threads >= 1);
        assert_eq!(e.fingerprint(), Environment::capture().fingerprint());
    }

    #[test]
    fn diff_empty_for_identical() {
        let e = Environment::capture();
        assert!(e.diff(&e.clone()).is_empty());
    }

    #[test]
    fn diff_reports_changed_fields() {
        let a = Environment::capture();
        let mut b = a.clone();
        b.threads += 1;
        b.vars.insert("ONLY_IN_B".into(), "1".into());
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|s| s.starts_with("threads:")));
        assert!(d.iter().any(|s| s.contains("ONLY_IN_B") && s.contains("<unset>")));
    }

    #[test]
    fn fingerprint_ignores_threads() {
        let a = Environment::capture();
        let b = Environment { threads: a.threads + 2, ..a.clone() };
        assert_ne!(a.render(), b.render(), "threads is still reported");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_changes_with_vars() {
        let a = Environment::capture();
        let mut b = a.clone();
        b.vars.insert("X".into(), "1".into());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn capture_with_known_var() {
        // PATH exists in any sane test environment.
        let e = Environment::capture_with_vars(&["PATH", "TREU_DOES_NOT_EXIST_12345"]);
        assert!(e.vars.contains_key("PATH"));
        assert!(!e.vars.contains_key("TREU_DOES_NOT_EXIST_12345"));
    }

    #[test]
    fn render_mentions_os_and_vars() {
        let mut e = Environment::capture();
        e.vars.insert("K".into(), "V".into());
        let r = e.render();
        assert!(r.contains(&format!("os={}", std::env::consts::OS)));
        assert!(r.contains("var K=V"));
    }
}
