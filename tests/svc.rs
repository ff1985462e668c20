//! Integration tests for the sharded verification service: real
//! coordinator/worker subprocesses, real SIGKILLs, and the CLI surface
//! that drives them.
//!
//! The determinism claims here are the strong ones from DESIGN §15: a
//! sharded run — even one whose workers are killed mid-shard — must
//! write the *same content-addressed trace file* as the fault-free
//! in-process baseline.

use std::io::{BufReader, Read as _};
use std::process::{Command, Stdio};

use treu::core::cache::{Lookup, RunCache};
use treu::core::experiment::Params;
use treu::core::svc::{read_frame, write_frame, Frame, TaskSpec};

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

#[test]
fn sharded_verify_writes_the_in_process_trace_bit_for_bit() {
    // Both batch modes go through one pipeline, so `run` traces are as
    // topology-invariant as `verify` traces.
    for cmd in ["verify", "run"] {
        let base = temp_dir(&format!("{cmd}-base"));
        let svc = temp_dir(&format!("{cmd}-svc"));

        let a = treu(&[cmd, "--conformance", "--trace-out", base.to_str().expect("utf8 path")]);
        assert!(
            a.status.success(),
            "baseline {cmd} failed: {}",
            String::from_utf8_lossy(&a.stderr)
        );

        let b = treu(&[
            cmd,
            "--workers",
            "2",
            "--conformance",
            "--trace-out",
            svc.to_str().expect("utf8 path"),
        ]);
        assert!(b.status.success(), "sharded {cmd} failed: {}", String::from_utf8_lossy(&b.stderr));
        let stdout = String::from_utf8(b.stdout).expect("utf8");
        assert!(stdout.contains("svc: workers=2"), "missing svc stats line:\n{stdout}");

        // Content-addressed file names: equal names ⇒ equal bytes.
        let base_name = trace_file_name(&base);
        assert_eq!(base_name, trace_file_name(&svc), "sharded {cmd} trace diverged from baseline");
        let ab = std::fs::read(base.join(&base_name)).expect("baseline trace");
        let bb = std::fs::read(svc.join(&base_name)).expect("sharded trace");
        assert_eq!(ab, bb, "same name but different bytes — content addressing is broken");

        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&svc);
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

/// Satellite drill: SIGKILL a worker while it may be mid-store and prove
/// the shared cache shrugs — no torn entry is ever visible, the killed
/// writer's orphaned `.tmp` spool is swept on the next open, and the
/// stats snapshot invariant holds throughout.
#[test]
fn killed_worker_never_leaves_a_torn_cache_entry() {
    let dir = temp_dir("kill");

    // Spawn a real worker over the wire protocol. `env_clear` mirrors the
    // coordinator's own scrub: the child sees no ambient environment.
    let mut child = Command::new(env!("CARGO_BIN_EXE_treu"))
        .arg("worker")
        .env_clear()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker spawns");
    let mut stdin = child.stdin.take().expect("worker stdin");
    let mut stdout = BufReader::new(child.stdout.take().expect("worker stdout"));

    let hello = Frame::Hello {
        jobs: 1,
        tracing: false,
        plan: None,
        cache_dir: Some(dir.to_str().expect("utf8 path").to_string()),
    };
    write_frame(&mut stdin, &hello.render()).expect("hello");
    let ready = read_frame(&mut stdout).expect("io").expect("ready frame");
    assert!(ready.contains("\"msg\":\"ready\""), "unexpected frame: {ready}");

    // One cache-enabled task, then SIGKILL while the store may be in
    // flight. The exact interleaving doesn't matter: the invariant is
    // that *no* interleaving can tear an entry.
    let task = TaskSpec {
        index: 0,
        id: "T1".to_string(),
        seed: 7,
        replica: 0,
        params: Params::new(),
        retries: 0,
        deadline_us: 0,
        cache: true,
    };
    write_frame(&mut stdin, &Frame::Shard { shard: 0, tasks: vec![task] }.render()).expect("shard");
    std::thread::sleep(std::time::Duration::from_millis(15));
    child.kill().expect("SIGKILL");
    child.wait().expect("reaped");
    // Drain whatever the worker managed to flush before dying.
    let mut rest = Vec::new();
    let _ = stdout.read_to_end(&mut rest);

    // Plant an orphan spool under a provably dead pid alongside whatever
    // the killed worker left behind.
    let planted = dir.join("deadbeefdeadbeef.run.4294967294.1.tmp");
    std::fs::write(&planted, b"torn half-write").expect("plant orphan tmp");

    // Next open sweeps every orphan: the planted one and any spool the
    // killed worker abandoned (its pid is dead too).
    let cache = RunCache::open(&dir).expect("reopen");
    assert!(!planted.exists(), "planted orphan tmp survived the sweep");
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .expect("cache dir readable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "orphaned spools survived the sweep: {leftovers:?}");

    // The entry is either wholly present or wholly absent — never torn.
    let looked = cache.lookup_classified("T1", 7, &Params::new());
    assert!(
        !matches!(looked, Lookup::Corrupt),
        "killed writer left a torn entry visible as Corrupt"
    );
    assert!(cache.stats().consistent(), "stats snapshot invariant broken after crash recovery");

    let _ = std::fs::remove_dir_all(&dir);
}
