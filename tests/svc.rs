//! Integration tests for the sharded verification service: real
//! coordinator/worker subprocesses, real SIGKILLs, and the CLI surface
//! that drives them.
//!
//! The determinism claims here are the strong ones from DESIGN §15: a
//! sharded run — even one whose workers are killed mid-shard — must
//! write the *same content-addressed trace file* as the fault-free
//! in-process baseline.

use std::process::Command;

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

#[test]
fn sharded_verify_writes_the_in_process_trace_bit_for_bit() {
    // Both batch modes go through one pipeline, so `run` traces are as
    // topology-invariant as `verify` traces. With a cache, the coordinator
    // does every lookup and store: a sharded batch whose workers are
    // killed counts the same cache traffic as the in-process one, and its
    // warm rerun spawns no worker.
    let cold = "cache: 0 hit(s), 21 miss(es), 0 invalidation(s), 0 corrupt (self-healed), \
                21 store(s) over 21 lookup(s)";
    let warm = "cache: 21 hit(s), 0 miss(es), 0 invalidation(s), 0 corrupt (self-healed), \
                0 store(s) over 21 lookup(s)";
    let inputs: [(&str, &[&str], bool); 2] = [
        ("w2", &["--workers", "2"], false),
        ("kill", &["--workers", "3", "--kill-plan", "41"], true),
    ];
    for cmd in ["verify", "run"] {
        for (tag, topology, cached) in inputs {
            let base = temp_dir(&format!("{cmd}-{tag}-base"));
            let svc = temp_dir(&format!("{cmd}-{tag}-svc"));
            let batch = |dir: &std::path::Path, flags: &[&str]| -> String {
                let trace = dir.join("trace");
                let cache = dir.join("cache");
                let mut args =
                    vec![cmd, "--conformance", "--trace-out", trace.to_str().expect("utf8 path")];
                if cached {
                    args.extend(["--cache-dir", cache.to_str().expect("utf8 path")]);
                }
                args.extend(flags);
                let out = treu(&args);
                assert!(
                    out.status.success(),
                    "{args:?} failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                String::from_utf8(out.stdout).expect("utf8")
            };

            let a = batch(&base, &[]);
            let b = batch(&svc, topology);
            let workers = format!("svc: workers={} ", topology[1]);
            assert!(b.contains(&workers), "missing svc stats line:\n{b}");

            // Content-addressed file names: equal names ⇒ equal bytes.
            let base_name = trace_file_name(&base.join("trace"));
            let svc_name = trace_file_name(&svc.join("trace"));
            assert_eq!(base_name, svc_name, "sharded {cmd} ({tag}) trace diverged from baseline");
            let ab = std::fs::read(base.join("trace").join(&base_name)).expect("baseline trace");
            let bb = std::fs::read(svc.join("trace").join(&base_name)).expect("sharded trace");
            assert_eq!(ab, bb, "same name but different bytes — content addressing is broken");

            if cached {
                assert_eq!(cache_line(&a), cold, "in-process {cmd} cache counts");
                assert_eq!(cache_line(&b), cold, "sharded {cmd} ({tag}) cache counts");
                let again = batch(&svc, topology);
                assert_eq!(cache_line(&again), warm, "warm sharded {cmd} cache counts");
                assert!(
                    again.contains(&format!("{workers}spawned=0 ")),
                    "a fully cached {cmd} must spawn no worker:\n{again}"
                );
            }

            let _ = std::fs::remove_dir_all(&base);
            let _ = std::fs::remove_dir_all(&svc);
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
    let svc = stdout.lines().find(|l| l.starts_with("svc: workers=2")).unwrap_or_else(|| {
        panic!("missing svc stats line:\n{stdout}");
    });
    let count = |key: &str| -> u32 {
        let field = svc.split_whitespace().find_map(|f| f.strip_prefix(key));
        field.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("no {key} in {svc:?}"))
    };
    // Every kill is one the plan made: a killed worker is never also
    // counted as a crash.
    assert!(count("kills=") >= 1, "the kill plan killed no worker: {svc}");
    assert_eq!(count("crashes="), 0, "{svc}");
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
