//! Integration tests for the sharded verification service: real
//! coordinator/worker subprocesses, real SIGKILLs, and the CLI surface
//! that drives them.
//!
//! The determinism claims here are the strong ones from DESIGN §15: a
//! sharded run — even one whose workers are killed mid-shard — must
//! write the *same content-addressed trace file* as the fault-free
//! in-process baseline, and that file's address is pinned below.

use std::process::Command;

use treu::core::trace::check_trace_file;

/// Trace addresses of a registry batch at conformance parameters, seed
/// 2023, per command: `(command, uncached, cold into a fresh cache)`. The
/// cached stream adds each id's cache events. Every `verdict` event
/// carries its id's fingerprint, so the verify addresses also pin the
/// per-id fingerprint digest that `tests/harness.rs` folds.
const TRACES: [(&str, u64, u64); 2] = [
    ("verify", 0x4024415a23a6ab38, 0x62d86552ba898430),
    ("run", 0x5e855a1b8ab75103, 0x4f528f21f9e1d01b),
];

fn treu(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_treu")).args(args).output().expect("binary runs")
}

/// Name of the single `trace-*.jsonl` file in `dir`.
fn trace_file_name(dir: &std::path::Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("trace dir readable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("trace-") && n.ends_with(".jsonl") && !n.contains(".times."))
        .collect();
    names.sort();
    assert_eq!(names.len(), 1, "expected exactly one trace file, got {names:?}");
    names.pop().expect("one name")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("treu-svc-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The `cache:` line of a batch's output, without its directory suffix.
fn cache_line(stdout: &str) -> &str {
    let line = stdout.lines().find(|l| l.starts_with("cache: ")).unwrap_or_else(|| {
        panic!("missing cache stats line:\n{stdout}");
    });
    line.rsplit_once(" (").map_or(line, |(counts, _)| counts)
}

/// The `key` count (`workers=`, `kills=`, ...) on the `svc:` line of a
/// sharded batch's output.
fn svc_count(stdout: &str, key: &str) -> u32 {
    let svc = stdout.lines().find(|l| l.starts_with("svc: ")).unwrap_or_else(|| {
        panic!("missing svc stats line:\n{stdout}");
    });
    let field = svc.split_whitespace().find_map(|f| f.strip_prefix(key));
    field.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("no {key} in {svc:?}"))
}

#[test]
fn sharded_verify_writes_the_in_process_trace_bit_for_bit() {
    // Both batch modes go through one pipeline, so `run` traces are as
    // topology-invariant as `verify` traces. Under a kill plan every kill
    // is one the plan made: a killed worker is never also counted as a
    // crash. With a cache, the coordinator does every lookup and store: a
    // batch whose workers are killed counts the same cache traffic as the
    // in-process one, and its warm rerun spawns no worker.
    let cold = "cache: 0 hit(s), 21 miss(es), 0 invalidation(s), 0 corrupt (self-healed), \
                21 store(s) over 21 lookup(s)";
    let warm = "cache: 21 hit(s), 0 miss(es), 0 invalidation(s), 0 corrupt (self-healed), \
                0 store(s) over 21 lookup(s)";
    let inputs: [(&str, &[&str], bool); 6] = [
        ("in-process", &[], false),
        ("w2", &["--workers", "2"], false),
        ("kill", &["--workers", "3", "--kill-plan", "41"], false),
        ("wide", &["--workers", "4", "--jobs", "4", "--kill-plan", "17"], false),
        ("cached", &[], true),
        ("kill-cached", &["--workers", "3", "--kill-plan", "41"], true),
    ];
    for (cmd, uncached, cold_trace) in TRACES {
        for (tag, topology, cached) in inputs {
            let dir = temp_dir(&format!("{cmd}-{tag}"));
            let trace = dir.join("trace");
            let cache = dir.join("cache");
            let mut args =
                vec![cmd, "--conformance", "--trace-out", trace.to_str().expect("utf8 path")];
            if cached {
                args.extend(["--cache-dir", cache.to_str().expect("utf8 path")]);
            }
            args.extend(topology);
            let batch = || -> String {
                let out = treu(&args);
                assert!(
                    out.status.success(),
                    "{args:?} failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                String::from_utf8(out.stdout).expect("utf8")
            };

            let out = batch();
            // Content-addressed file name: the name is the pinned one, and
            // the bytes hash to it.
            let name = trace_file_name(&trace);
            let want = if cached { cold_trace } else { uncached };
            assert_eq!(name, format!("trace-{want:016x}.jsonl"), "{cmd} ({tag}) trace diverged");
            check_trace_file(&trace.join(&name)).expect("the stream hashes to its name");
            let sharded = topology.first() == Some(&"--workers");
            if sharded {
                assert_eq!(svc_count(&out, "workers=").to_string(), topology[1], "{out}");
            }
            if topology.contains(&"--kill-plan") {
                assert!(svc_count(&out, "kills=") >= 1, "the kill plan killed no worker:\n{out}");
                assert_eq!(svc_count(&out, "crashes="), 0, "{out}");
            }
            if cached {
                assert_eq!(cache_line(&out), cold, "{cmd} ({tag}) cache counts");
                let again = batch();
                assert_eq!(cache_line(&again), warm, "warm {cmd} ({tag}) cache counts");
                if sharded {
                    assert_eq!(svc_count(&again, "spawned="), 0, "a fully cached {cmd} spawned");
                }
            }

            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn chaos_drill_converges_with_workers_under_a_kill_plan() {
    let out = treu(&["chaos", "11", "--workers", "2", "--kill-plan", "41", "--enforce"]);
    assert!(
        out.status.success(),
        "chaos --workers --enforce failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("converged"), "missing convergence summary:\n{stdout}");
    assert_eq!(svc_count(&stdout, "workers="), 2, "{stdout}");
    // Every kill is one the plan made: a killed worker is never also
    // counted as a crash.
    assert!(svc_count(&stdout, "kills=") >= 1, "the kill plan killed no worker:\n{stdout}");
    assert_eq!(svc_count(&stdout, "crashes="), 0, "{stdout}");
}

#[test]
fn respawn_budget_exhaustion_degrades_but_still_converges() {
    let base = temp_dir("deg-base");
    let deg = temp_dir("deg");

    let a = treu(&["verify", "--conformance", "--trace-out", base.to_str().expect("utf8 path")]);
    assert!(a.status.success());

    // Every dispatch is killed and nothing may respawn: the coordinator
    // must fall all the way down the degradation ladder and finish
    // every task in-process — exit 0, same trace.
    let b = treu(&[
        "verify",
        "--workers",
        "2",
        "--kill-plan",
        "9",
        "--kill-rate",
        "1.0",
        "--respawn-budget",
        "0",
        "--conformance",
        "--trace-out",
        deg.to_str().expect("utf8 path"),
    ]);
    assert!(
        b.status.success(),
        "degraded verify must still exit 0: {}",
        String::from_utf8_lossy(&b.stderr)
    );
    let stdout = String::from_utf8(b.stdout).expect("utf8");
    assert!(stdout.contains("DEGRADED"), "stats must admit degradation:\n{stdout}");
    assert_eq!(
        trace_file_name(&base),
        trace_file_name(&deg),
        "degraded run diverged from baseline"
    );

    let _ = std::fs::remove_dir_all(&base);
    let _ = std::fs::remove_dir_all(&deg);
}
