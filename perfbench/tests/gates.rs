//! Self-test of the benchmark: every workload runs one pass, prints every
//! metric `BENCHMARK.json` names with its unit, and clears its gates, at
//! the committed seed and at another; the `reverify-warm` gate fails —
//! counted, with a non-zero exit — on a forged cache entry and on a cache
//! read under another environment fingerprint; and the
//! `verify-sharded-chaos` gate fails when no worker is killed.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["verify-cold", "reverify-warm", "verify-sharded-chaos"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |s: &str, k: &str| -> Option<String> {
        let at = s.find(&format!("\"{k}\": \""))? + k.len() + 5;
        Some(s[at..at + s[at..].find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name").expect("name"), field(entry, "unit").expect("unit")))
        .collect()
}

struct Run {
    code: Option<i32>,
    last: String,
}

fn run(workload: &str, extra: &[&str]) -> Run {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-gates");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--work-dir"])
        .arg(&work)
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    Run { code: out.status.code(), last }
}

/// The unit printed for `name` in a result line, if the metric is there.
fn unit_of(line: &str, name: &str) -> Option<String> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at..];
    let u = rest.find("\"unit\": \"")? + 9;
    Some(rest[u..u + rest[u..].find('"')?].to_string())
}

fn assert_clean(r: &Run, workload: &str, metrics: &[(String, String)]) {
    assert_eq!(r.code, Some(0), "{workload} exit: {}", r.last);
    assert!(r.last.starts_with("{\"correct\": true,"), "{workload}: {}", r.last);
    assert!(r.last.contains("\"failed\": 0,"), "{workload}: {}", r.last);
    for (name, unit) in metrics {
        assert_eq!(unit_of(&r.last, name).as_deref(), Some(unit.as_str()), "{workload}: {name}");
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_clears_its_gates() {
    let metrics = section("end_to_end");
    assert!(metrics.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        let r = run(w, &["--passes", "1", "--trace", "0"]);
        assert_clean(&r, w, &metrics);
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_at_another_seed() {
    let metrics = section("per_layer");
    assert!(metrics.len() > 60, "per-layer section parsed: {}", metrics.len());
    for w in WORKLOADS {
        let r = run(w, &["--passes", "2", "--trace", "1", "--seed", "7"]);
        assert_clean(&r, w, &metrics);
    }
}

/// The whole-number field `key` of a result line.
fn count(line: &str, key: &str) -> u64 {
    let at = line.find(&format!("\"{key}\": ")).expect("field present") + key.len() + 4;
    line[at..].split(',').next().and_then(|v| v.trim().parse().ok()).expect("whole number")
}

fn assert_gate_fails(workload: &str, drill: &str) {
    let r = run(workload, &["--passes", "1", "--drill", drill]);
    assert_eq!(r.code, Some(1), "{drill}: {}", r.last);
    assert!(r.last.starts_with("{\"correct\": false,"), "{drill}: {}", r.last);
    // The timed pass fails; the fresh-process peak-RSS passes that follow
    // count too, and fail while the damage lasts (a re-verify under a
    // foreign fingerprint rewrites the entries it recomputed; the no-kills
    // drill does not reach them).
    let failed = count(&r.last, "failed");
    assert!(failed >= 1 && failed <= count(&r.last, "attempted"), "{drill}: {}", r.last);
}

#[test]
fn forged_cache_entry_fails_the_warm_gate() {
    assert_gate_fails("reverify-warm", "forge-entry");
}

#[test]
fn foreign_environment_fingerprint_fails_the_warm_gate() {
    assert_gate_fails("reverify-warm", "foreign-fingerprint");
}

#[test]
fn chaos_without_kills_fails_the_chaos_gate() {
    assert_gate_fails("verify-sharded-chaos", "no-kills");
}
