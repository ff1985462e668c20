//! Integration tests for the `treu` command-line interface.

use std::process::Command;

fn treu(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_treu")).args(args).output().expect("binary runs")
}

#[test]
fn list_prints_the_full_index() {
    let out = treu(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    for id in treu::ALL_EXPERIMENT_IDS {
        assert!(stdout.contains(id), "index missing {id}");
    }
}

#[test]
fn run_prints_provenance_and_is_seed_stable() {
    let a = treu(&["run", "T1", "7"]);
    let b = treu(&["run", "T1", "7"]);
    assert!(a.status.success());
    let sa = String::from_utf8(a.stdout).expect("utf8");
    let sb = String::from_utf8(b.stdout).expect("utf8");
    assert_eq!(sa, sb, "identical seeds must print identical provenance");
    assert!(sa.contains("metric max_abs_dev = 0"));
    assert!(sa.contains("fingerprint 0x"));
}

#[test]
fn verify_reports_reproduction() {
    let out = treu(&["verify", "T2", "11"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("REPRODUCED"), "{stdout}");
}

#[test]
fn tables_render_all_three() {
    let out = treu(&["tables"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("Table 1"));
    assert!(stdout.contains("Table 2"));
    assert!(stdout.contains("Table 3"));
    assert!(stdout.contains("Collaborate with peers"));
}

#[test]
fn tables_are_identical_for_every_jobs_value() {
    let one = treu(&["tables", "--jobs", "1"]);
    let eight = treu(&["tables", "--jobs", "8"]);
    assert!(one.status.success() && eight.status.success());
    assert_eq!(one.stdout, eight.stdout, "--jobs must never change output");
}

#[test]
fn verify_accepts_jobs_flag_in_both_spellings() {
    let a = treu(&["verify", "T1", "--jobs", "2"]);
    let b = treu(&["verify", "T1", "-j", "4"]);
    assert!(a.status.success() && b.status.success());
    let sa = String::from_utf8(a.stdout).expect("utf8");
    let sb = String::from_utf8(b.stdout).expect("utf8");
    assert_eq!(sa, sb);
    assert!(sa.contains("REPRODUCED"));
}

#[test]
fn bad_jobs_value_fails_with_usage_error() {
    for bad in [&["tables", "--jobs", "0"][..], &["tables", "--jobs", "x"], &["tables", "--jobs"]] {
        let out = treu(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf8");
        assert!(stderr.contains("--jobs") || stderr.contains("requires a value"), "{stderr}");
    }
}

#[test]
fn unknown_id_fails_cleanly() {
    let out = treu(&["run", "NOPE"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("unknown experiment id"));
}

#[test]
fn no_args_prints_usage() {
    let out = treu(&[]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("usage"));
}

fn cache_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("treu-cli-cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn verify_replays_from_a_warm_cache() {
    let dir = cache_dir("verify");
    let dir_s = dir.to_str().expect("utf8 path");
    let cold = treu(&["verify", "T1", "--cache-dir", dir_s]);
    assert!(cold.status.success());
    let cold_out = String::from_utf8(cold.stdout).expect("utf8");
    assert!(cold_out.contains("REPRODUCED"), "{cold_out}");
    assert!(!cold_out.contains("[cached]"), "cold pass must actually verify: {cold_out}");
    assert!(cold_out.contains("1 miss(es)"), "{cold_out}");
    assert!(cold_out.contains("1 store(s)"), "{cold_out}");

    let warm = treu(&["verify", "T1", "--cache-dir", dir_s]);
    assert!(warm.status.success());
    let warm_out = String::from_utf8(warm.stdout).expect("utf8");
    assert!(warm_out.contains("REPRODUCED [cached]"), "{warm_out}");
    assert!(warm_out.contains("1 hit(s)"), "{warm_out}");

    // The fingerprint replayed from the cache equals the verified one.
    let fp = |s: &str| s.split("fingerprint ").nth(1).map(|t| t[..18].to_string());
    assert_eq!(fp(&cold_out), fp(&warm_out), "cache replay changed the fingerprint");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn run_and_tables_cache_without_changing_output() {
    let dir = cache_dir("runtables");
    let dir_s = dir.to_str().expect("utf8 path");

    let plain = treu(&["run", "T2", "9"]);
    let cold = treu(&["run", "T2", "9", "--cache-dir", dir_s]);
    let warm = treu(&["run", "T2", "9", "--cache-dir", dir_s]);
    assert!(plain.status.success() && cold.status.success() && warm.status.success());
    // Wall time is environment, not result: drop the "N.NNNs," token (and
    // cache chrome) before comparing.
    let strip = |o: &std::process::Output| {
        String::from_utf8(o.stdout.clone())
            .expect("utf8")
            .lines()
            .filter(|l| !l.starts_with("cache:"))
            .map(|l| {
                l.replace(" [cached]", "")
                    .split_whitespace()
                    .filter(|t| !t.ends_with("s,"))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&plain), strip(&cold), "caching changed run output");
    assert_eq!(strip(&cold), strip(&warm), "cache replay changed run output");
    assert!(String::from_utf8(warm.stdout).expect("utf8").contains("[cached]"));

    let t_plain = treu(&["tables", "5"]);
    let t_cold = treu(&["tables", "5", "--cache-dir", dir_s]);
    let t_warm = treu(&["tables", "5", "--cache-dir", dir_s]);
    assert!(t_plain.status.success() && t_cold.status.success() && t_warm.status.success());
    assert_eq!(strip(&t_plain), strip(&t_cold), "caching changed tables output");
    assert_eq!(strip(&t_cold), strip(&t_warm), "cache replay changed tables output");
    let warm_raw = String::from_utf8(t_warm.stdout).expect("utf8");
    assert!(warm_raw.contains("1 hit(s)"), "{warm_raw}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn bad_cache_flag_fails_with_usage_error() {
    let out = treu(&["tables", "--cache-dir"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("--cache-dir requires a value"), "{stderr}");
}

const WORKSPACE: &str = env!("CARGO_MANIFEST_DIR");
const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/lint/tests/fixtures");

#[test]
fn lint_passes_on_the_workspace_at_deny_warn() {
    let out = treu(&["lint", WORKSPACE, "--deny", "warn"]);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn lint_fails_on_the_fixture_corpus() {
    let out = treu(&["lint", FIXTURES]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("error[R1 unordered-collections]"), "{stdout}");
    assert!(stdout.contains("hint:"), "{stdout}");
}

#[test]
fn lint_json_format_reports_counts() {
    let out = treu(&["lint", FIXTURES, "--format", "json", "--deny", "none"]);
    assert!(out.status.success(), "--deny none never gates");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("\"version\": 1"), "{stdout}");
    assert!(stdout.contains("\"code\": \"R5\""), "{stdout}");
}

#[test]
fn lint_rules_filter_restricts_the_pass() {
    let out = treu(&["lint", FIXTURES, "--rules", "R2", "--deny", "none"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("ambient-randomness"), "{stdout}");
    assert!(!stdout.contains("unordered-collections"), "{stdout}");
}

#[test]
fn lint_no_flow_drops_the_taint_findings() {
    let with = treu(&["lint", FIXTURES, "--format", "json", "--deny", "none"]);
    let without = treu(&["lint", FIXTURES, "--no-flow", "--format", "json", "--deny", "none"]);
    assert!(with.status.success() && without.status.success());
    let with = String::from_utf8(with.stdout).expect("utf8");
    let without = String::from_utf8(without.stdout).expect("utf8");
    assert!(with.contains("\"code\": \"R8\""), "{with}");
    for flow in ["\"R8\"", "\"R9\"", "\"R10\"", "\"R11\"", "\"R12\""] {
        assert!(!without.contains(flow), "--no-flow leaked {flow}:\n{without}");
    }
}

#[test]
fn lint_baseline_round_trip_absorbs_existing_findings() {
    let file = std::env::temp_dir().join(format!("treu-cli-baseline-{}.tsv", std::process::id()));
    let path = file.to_str().expect("utf8 temp path");
    let write = treu(&["lint", FIXTURES, "--write-baseline", path, "--deny", "none"]);
    assert!(write.status.success(), "{}", String::from_utf8_lossy(&write.stderr));
    // Replaying against the baseline absorbs every finding, so the run
    // passes even at the strictest gate.
    let replay = treu(&["lint", FIXTURES, "--baseline", path, "--deny", "warn"]);
    let stdout = String::from_utf8(replay.stdout).expect("utf8");
    assert!(replay.status.success(), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
    std::fs::remove_file(&file).ok();
}

#[test]
fn lint_bad_flags_fail_with_usage_error() {
    for bad in [
        &["lint", "--format", "xml"][..],
        &["lint", "--deny", "loud"],
        &["lint", "--rules", "R13"],
        &["lint", "--format"],
    ] {
        let out = treu(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }
}

// ---- supervision & chaos (ISSUE 4) -------------------------------------

#[test]
fn chaos_smoke_converges_under_enforce() {
    let out = treu(&["chaos", "--fault-seed", "7", "--rate", "0.2", "--enforce", "-j", "4"]);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("converged to fault-free trails"), "{stdout}");
    assert!(!stdout.contains("DIVERGED"), "{stdout}");
    assert!(!stdout.contains("QUARANTINED"), "{stdout}");
}

#[test]
fn permanent_panic_quarantines_and_gates_per_deny_policy() {
    // 1 of N permanently panicking: the other N−1 verify, the broken id is
    // quarantined with its taxonomy, and the exit code follows --deny.
    let base = ["verify", "--conformance", "--fault-panic", "E2.7", "--retries", "1"];
    let n = treu::ALL_EXPERIMENT_IDS.len() + 1; // + E3

    let deny_error = treu(&base); // --deny error is the default
    let stdout = String::from_utf8(deny_error.stdout).expect("utf8");
    assert_eq!(deny_error.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("QUARANTINED(Panicked) after 2 attempt(s)"), "{stdout}");
    assert!(stdout.contains(&format!("{}/{} reproduced", n - 1, n)), "{stdout}");
    assert!(stdout.contains("1 quarantined: E2.7"), "{stdout}");

    let mut warn = base.to_vec();
    warn.extend(["--deny", "warn"]);
    assert_eq!(treu(&warn).status.code(), Some(1), "--deny warn also gates quarantines");

    let mut none = base.to_vec();
    none.extend(["--deny", "none"]);
    let out = treu(&none);
    assert!(out.status.success(), "--deny none reports but never gates");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("QUARANTINED(Panicked)"), "{stdout}");
}

#[test]
fn single_id_supervised_run_reports_retries() {
    // Rate-1.0 transient faults with a covering retry budget: the run
    // succeeds, reports its attempts, and stays seed-stable.
    // Fault seed 4 assigns (T1, seed 7) a transient error — the draw is
    // content-addressed, so this is stable, not flaky.
    let args = ["run", "T1", "7", "--fault-seed", "4", "--fault-rate", "1.0", "--retries", "3"];
    let a = treu(&args);
    let b = treu(&args);
    assert!(a.status.success());
    let sa = String::from_utf8(a.stdout).expect("utf8");
    let sb = String::from_utf8(b.stdout).expect("utf8");
    assert_eq!(sa, sb, "supervised runs must stay deterministic");
    assert!(sa.contains("after") && sa.contains("attempts"), "{sa}");
    assert!(sa.contains("fingerprint 0x"), "{sa}");

    // The same run without faults yields the same fingerprint: supervision
    // and injection never leak into results.
    let clean = treu(&["run", "T1", "7"]);
    let sc = String::from_utf8(clean.stdout).expect("utf8");
    let fp = |s: &str| s.split("fingerprint ").nth(1).map(|t| t[..18].to_string());
    assert_eq!(fp(&sa), fp(&sc), "fault plan changed a converged result");
}

#[test]
fn deadline_quarantines_a_straggler() {
    let out = treu(&["run", "E2.9", "--deadline-secs", "0.001", "--retries", "0"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("QUARANTINED(TimedOut)"), "{stdout}");
}

// ---- run traces (ISSUE 5) ----------------------------------------------

fn trace_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("treu-cli-trace-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The lone event-stream file under a trace dir (the sidecar excluded).
fn event_file(dir: &std::path::Path) -> std::path::PathBuf {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("trace dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".jsonl") && !n.ends_with(".times.jsonl"))
        })
        .collect();
    files.sort();
    assert_eq!(files.len(), 1, "expected exactly one event stream in {}", dir.display());
    files.remove(0)
}

#[test]
fn trace_out_is_bitwise_identical_across_jobs_counts() {
    let d1 = trace_dir("j1");
    let d4 = trace_dir("j4");
    let a = treu(&["verify", "--conformance", "-j", "1", "--trace-out", d1.to_str().unwrap()]);
    let b = treu(&["verify", "--conformance", "-j", "4", "--trace-out", d4.to_str().unwrap()]);
    assert!(a.status.success() && b.status.success());
    let stdout = String::from_utf8(a.stdout).expect("utf8");
    assert!(stdout.contains("trace: "), "{stdout}");
    let (fa, fb) = (event_file(&d1), event_file(&d4));
    assert_eq!(fa.file_name(), fb.file_name(), "content address changed with --jobs");
    assert_eq!(
        std::fs::read(&fa).expect("readable"),
        std::fs::read(&fb).expect("readable"),
        "event stream changed with --jobs"
    );
    std::fs::remove_dir_all(&d1).expect("cleanup");
    std::fs::remove_dir_all(&d4).expect("cleanup");
}

#[test]
fn trace_subcommand_renders_and_checks_stored_traces() {
    let dir = trace_dir("render");
    let dir_s = dir.to_str().unwrap();
    assert!(treu(&["run", "T1", "7", "--trace-out", dir_s]).status.success());

    let rendered = treu(&["trace", dir_s]);
    assert!(rendered.status.success());
    let stdout = String::from_utf8(rendered.stdout).expect("utf8");
    assert!(stdout.contains("run trace"), "{stdout}");
    assert!(stdout.contains("claim replica 0"), "{stdout}");
    assert!(stdout.contains("attempt-start replica 0 attempt 0"), "{stdout}");
    assert!(stdout.contains("worker   busy(s)"), "{stdout}");

    let checked = treu(&["trace", dir_s, "--check"]);
    assert!(checked.status.success());
    assert!(String::from_utf8(checked.stdout).expect("utf8").contains(": ok (0x"));

    // Tampering with the stored bytes breaks the content address.
    let f = event_file(&dir);
    let mut bytes = std::fs::read(&f).expect("readable");
    bytes.push(b'\n');
    std::fs::write(&f, bytes).expect("writable");
    let tampered = treu(&["trace", dir_s, "--check"]);
    assert_eq!(tampered.status.code(), Some(1));
    let stderr = String::from_utf8(tampered.stderr).expect("utf8");
    assert!(stderr.contains("does not match address"), "{stderr}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Writes `text` under `dir` at its content address, as `--trace-out` names
/// a stream.
fn store_at_own_address(dir: &std::path::Path, text: &str) {
    let name = format!("trace-{:016x}.jsonl", treu::core::hash::fnv64(text.as_bytes()));
    std::fs::write(dir.join(name), text).expect("writable");
}

/// A stream stored at its own address is still checked against the
/// grammar: an unknown event, a non-numeric replica and a bare `maybe`,
/// or seqs out of sequence, fail `--check` with the offending line named.
#[test]
fn trace_check_rejects_a_junk_stream_stored_at_its_own_address() {
    let dir = trace_dir("junk");
    std::fs::create_dir_all(&dir).expect("trace dir");
    let text = concat!(
        "{\"trace\":\"treu-trace v1\",\"kind\":\"verify\",\"seed\":2023,\"runs\":1}\n",
        "{\"run\":0,\"id\":\"T1\",\"seed\":2023,\"events\":2,\"dropped\":0}\n",
        "{\"run\":0,\"seq\":0,\"ev\":\"gremlin\",\"replica\":\"x\"}\n",
        "{\"run\":7,\"seq\":99,\"ev\":\"verdict\",\"reproduced\":maybe}\n",
    );
    store_at_own_address(&dir, text);
    // Well-formed events at seqs a ring never writes: 5, 5, 2 with
    // nothing dropped.
    let seqs = concat!(
        "{\"trace\":\"treu-trace v1\",\"kind\":\"verify\",\"seed\":2023,\"runs\":1}\n",
        "{\"run\":0,\"id\":\"T1\",\"seed\":2023,\"events\":3,\"dropped\":0}\n",
        "{\"run\":0,\"seq\":5,\"ev\":\"cache-stored\"}\n",
        "{\"run\":0,\"seq\":5,\"ev\":\"cache-stored\"}\n",
        "{\"run\":0,\"seq\":2,\"ev\":\"cache-stored\"}\n",
    );
    store_at_own_address(&dir, seqs);
    let checked = treu(&["trace", dir.to_str().unwrap(), "--check"]);
    assert_eq!(checked.status.code(), Some(1));
    let stderr = String::from_utf8(checked.stderr).expect("utf8");
    assert!(stderr.contains("line 3, byte 134: unknown event \"gremlin\""), "{stderr}");
    assert!(
        stderr.contains("line 3, byte 118: seq 5 is out of sequence for run \"T1\""),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn faulted_run_trace_shows_fault_backoff_and_retry() {
    let dir = trace_dir("faulted");
    let dir_s = dir.to_str().unwrap();
    // Fault seed 4 assigns (T1, seed 7) a transient error (see the
    // supervised-run test above); the retry budget covers it.
    let args = [
        "run",
        "T1",
        "7",
        "--fault-seed",
        "4",
        "--fault-rate",
        "1.0",
        "--retries",
        "3",
        "--trace-out",
        dir_s,
    ];
    assert!(treu(&args).status.success());
    let rendered = treu(&["trace", dir_s]);
    assert!(rendered.status.success());
    let stdout = String::from_utf8(rendered.stdout).expect("utf8");
    let fault = stdout.find("fault replica 0");
    let backoff = stdout.find("backoff replica 0");
    assert!(fault.is_some(), "{stdout}");
    assert!(backoff.is_some(), "{stdout}");
    assert!(fault < backoff, "fault must precede the backoff: {stdout}");
    assert!(stdout.contains("attempt-start replica 0 attempt 1"), "{stdout}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn bad_trace_flags_fail_with_usage_error() {
    for bad in [
        &["run", "T1", "--trace-out"][..],
        &["trace"],
        &["trace", "--top", "0"],
        &["trace", "--nope"],
    ] {
        let out = treu(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }
}

#[test]
fn bad_supervision_flags_fail_with_usage_error() {
    for bad in [
        &["run", "T1", "--retries"][..],
        &["run", "T1", "--fault-rate", "1.5"],
        &["run", "T1", "--deny", "loudly"],
        &["chaos", "--rate", "nope"],
        // Leftover arguments: an unknown flag, a seed that does not parse
        // and a surplus argument are usage errors for every command.
        &["run", "--help"],
        &["run", "E3", "2023", "extra"],
        &["verify", "E3", "notaseed"],
        &["chaos", "--help"],
        &["tables", "notaseed"],
        &["list", "extra"],
        &["env", "--bogus"],
        // Only run, verify and chaos dispatch a batch to workers.
        &["tables", "--workers", "2"],
    ] {
        let out = treu(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }
}

/// A soak shape small enough for a CLI test: three tenants, two epochs,
/// a six-entry bound — still enough traffic to hit, miss and evict.
fn small_soak_args<'a>(out_path: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "soak",
        "42",
        "--tenants",
        "3",
        "--epochs",
        "2",
        "--per-epoch",
        "16",
        "--cache-entries",
        "6",
        "--out",
        out_path,
    ];
    args.extend_from_slice(extra);
    args
}

#[test]
fn soak_writes_bench_json_with_logical_latencies_and_hit_rate() {
    let out_path = std::env::temp_dir().join(format!("treu-soak-cli-{}.json", std::process::id()));
    let out_s = out_path.to_str().unwrap();
    let out = treu(&small_soak_args(out_s, &[]));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("soak: 32 submission(s), 3 tenant(s), 2 epoch(s)"), "{stdout}");
    assert!(stdout.contains("steady-state hit-rate"), "{stdout}");
    assert!(stdout.contains("trace address 0x"), "{stdout}");
    assert!(stdout.contains("zero drift: true"), "{stdout}");
    let json = std::fs::read_to_string(&out_path).expect("BENCH_soak.json written");
    for field in [
        "\"bench\": \"soak/multi-tenant\"",
        "\"p50_latency_rounds\"",
        "\"p99_latency_rounds\"",
        "\"steady_hit_rate\"",
        "\"epoch_hit_rates\"",
        "\"zero_drift\": true",
        "\"trace_address\"",
    ] {
        assert!(json.contains(field), "missing {field} in:\n{json}");
    }
    std::fs::remove_file(&out_path).expect("cleanup");
}

#[test]
fn soak_output_is_identical_at_jobs_one_and_four() {
    let out_path = std::env::temp_dir().join(format!("treu-soak-jobs-{}.json", std::process::id()));
    let out_s = out_path.to_str().unwrap();
    let one = treu(&small_soak_args(out_s, &["--jobs", "1"]));
    let json_one = std::fs::read_to_string(&out_path).expect("json written");
    let four = treu(&small_soak_args(out_s, &["--jobs", "4"]));
    let json_four = std::fs::read_to_string(&out_path).expect("json written");
    assert!(one.status.success() && four.status.success());
    // The header echoes the jobs count itself; every line below it —
    // hit-rates, latencies, trace address, ledger — must be identical.
    let logical_lines = |out: &[u8]| -> String {
        String::from_utf8(out.to_vec())
            .expect("utf8")
            .lines()
            .filter(|l| !l.contains("jobs="))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        logical_lines(&one.stdout),
        logical_lines(&four.stdout),
        "--jobs must never change the soak's results"
    );
    let strip_variable = |json: &str| -> String {
        json.lines()
            .filter(|l| !l.contains("wall_seconds") && !l.contains("\"jobs\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_variable(&json_one),
        strip_variable(&json_four),
        "every logical JSON field must be jobs-invariant"
    );
    std::fs::remove_file(&out_path).expect("cleanup");
}

#[test]
fn soak_enforce_accepts_a_converging_soak() {
    let out_path =
        std::env::temp_dir().join(format!("treu-soak-enforce-{}.json", std::process::id()));
    let out_s = out_path.to_str().unwrap();
    // A slightly roomier shape than the other CLI soaks: the enforce
    // ladder gates on the steady-state hit-rate floor, so the bound must
    // hold the hot set.
    let out = treu(&[
        "soak",
        "42",
        "--tenants",
        "3",
        "--epochs",
        "2",
        "--per-epoch",
        "32",
        "--cache-entries",
        "12",
        "--out",
        out_s,
        "--enforce",
        "--jobs",
        "2",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("soak: ENFORCED"), "{stdout}");
    assert!(stdout.contains("bitwise-identical to primary"), "{stdout}");
    std::fs::remove_file(&out_path).expect("cleanup");
}

#[test]
fn bad_soak_flags_fail_with_usage_error() {
    for bad in [
        &["soak", "--bogus"][..],
        &["soak", "--tenants", "x"],
        &["soak", "--epochs", "0"],
        &["soak", "--per-epoch"],
        &["soak", "not-a-seed"],
        &["soak", "--workers", "2"],
    ] {
        let out = treu(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }
}

#[test]
fn tune_persists_a_schedule_book_and_reloads_it() {
    let dir = cache_dir("tune");
    let dirs = dir.to_str().expect("utf8 path");
    let args = ["tune", "7", "--quick", "--shapes", "24x24x24", "--repeats", "1", "--jobs", "1"];
    let first = treu(&[&args[..], &["--cache-dir", dirs]].concat());
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let text = String::from_utf8_lossy(&first.stdout);
    assert!(text.contains("tuned 24x24x24 (class sss)"), "missing tune line:\n{text}");
    assert!(text.contains("schedule book persisted (1 entries)"), "missing persist line:\n{text}");

    // A second tune of a different shape reloads the stored book and
    // accumulates: the 24^3 small-class entry is replaced by the newer
    // tune of the same class, so the book still holds exactly one entry
    // per shape class.
    let again = treu(&[
        "tune",
        "7",
        "--quick",
        "--shapes",
        "80x80x80",
        "--repeats",
        "1",
        "--jobs",
        "1",
        "--cache-dir",
        dirs,
    ]);
    assert!(again.status.success(), "{}", String::from_utf8_lossy(&again.stderr));
    let text = String::from_utf8_lossy(&again.stdout);
    assert!(text.contains("sss"), "first class survived the reload:\n{text}");
    assert!(text.contains("mmm"), "second class tuned:\n{text}");
    assert!(text.contains("schedule book persisted (2 entries)"), "book grew:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tune_without_a_cache_dir_still_reports_but_does_not_persist() {
    let out = treu(&["tune", "7", "--quick", "--shapes", "16x16x16", "--repeats", "1"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("not persisted"), "missing no-cache note:\n{text}");
}

#[test]
fn bad_tune_flags_fail_with_usage_error() {
    for bad in [
        &["tune", "--bogus"][..],
        &["tune", "--shapes", "12x12"],
        &["tune", "--shapes", "axbxc"],
        &["tune", "--repeats", "0"],
        &["tune", "not-a-seed"],
    ] {
        let out = treu(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
    }
}
