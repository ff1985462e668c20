//! Integration drills for the in-toto-style attestation chain: a real
//! `run` → `verify` pipeline emitting MAC-sealed links, then targeted
//! corruption of every artifact class the links cover — a cached blob, a
//! trace stream, a link file, the chain order itself — asserting that
//! `treu attest verify` exits non-zero *naming the exact producing
//! step*. The topology drill asserts the bytes of an emitted link are
//! identical at every `(workers, jobs)` shape, because links are sealed
//! coordinator-side from schedule-independent content addresses.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn treu(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_treu")).args(args).output().expect("binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("treu-attest-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("copy target");
    for entry in std::fs::read_dir(src).expect("copy source readable") {
        let entry = entry.expect("dir entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy file");
        }
    }
}

/// One shared run → verify chain (two registry-wide batches are not
/// cheap); every corruption drill works on its own copy. No test owns
/// it, so it lives under the build's temp dir, and each test process
/// clears the copy the previous one left.
fn built_chain() -> &'static Path {
    static CHAIN: OnceLock<PathBuf> = OnceLock::new();
    CHAIN.get_or_init(|| {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("attest-chain");
        let _ = std::fs::remove_dir_all(&root);
        for cmd in ["run", "verify"] {
            let out = treu(&[
                cmd,
                "--attest-dir",
                root.join("at").to_str().expect("utf8"),
                "--cache-dir",
                root.join("cache").to_str().expect("utf8"),
                "--trace-out",
                root.join("tr").to_str().expect("utf8"),
            ]);
            assert!(
                out.status.success(),
                "{cmd} --attest-dir failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        root
    })
}

fn attest(root: &Path, sub: &[&str]) -> std::process::Output {
    let mut args = vec!["attest"];
    args.extend_from_slice(sub);
    let at = root.join("at");
    let cache = root.join("cache");
    let tr = root.join("tr");
    args.extend_from_slice(&[
        "--attest-dir",
        at.to_str().expect("utf8"),
        "--cache-dir",
        cache.to_str().expect("utf8"),
        "--trace-out",
        tr.to_str().expect("utf8"),
    ]);
    treu(&args)
}

/// The FAIL line `attest verify` pinpoints the breakage with.
fn first_fail_line(stdout: &str) -> String {
    stdout
        .lines()
        .find(|l| l.trim_start().starts_with("FAIL "))
        .unwrap_or_else(|| panic!("no FAIL line in:\n{stdout}"))
        .trim()
        .to_string()
}

#[test]
fn untampered_chain_verifies_clean_and_earns_the_badge() {
    let root = temp_dir("clean");
    copy_dir(built_chain(), &root);

    let out = attest(&root, &["verify", "--enforce"]);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "clean chain must verify: {stdout}");
    assert!(stdout.contains("chain: OK — 2 link(s)"), "unexpected report:\n{stdout}");
    assert!(!stdout.contains("skipped:"), "all artifact classes must be re-hashed:\n{stdout}");

    // A verified chain supports the full ACM badge ladder, and the badge
    // evaluation itself becomes the final link.
    let out = attest(&root, &["badge", "--enforce"]);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "badge on a clean chain must pass: {stdout}");
    assert!(stdout.contains("awarded ResultsReproduced"), "missing badge:\n{stdout}");

    let out = attest(&root, &["verify", "--enforce"]);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(out.status.success(), "chain with badge link must verify: {stdout}");
    assert!(stdout.contains("chain: OK — 3 link(s)"), "badge link not chained:\n{stdout}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupting_one_cached_blob_names_the_producing_step() {
    let root = temp_dir("cache-corrupt");
    copy_dir(built_chain(), &root);

    // Forge one metric into one cached run entry's trail body.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(root.join("cache"))
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "run"))
        .collect();
    entries.sort();
    let victim = entries.first().expect("at least one cached run entry");
    let mut text = std::fs::read_to_string(victim).expect("entry readable");
    text.push_str("metric forged = 42\n");
    std::fs::write(victim, text).expect("entry writable");

    let out = attest(&root, &["verify"]);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(out.status.code(), Some(1), "tampered cache must fail verification:\n{stdout}");
    let fail = first_fail_line(&stdout);
    // The `run` step produced the entry; the first FAIL must blame it,
    // name the exact entry file, and say what happened.
    assert!(fail.contains("step 'run'"), "wrong step blamed: {fail}");
    let file = victim.file_name().expect("file name").to_string_lossy().into_owned();
    assert!(fail.contains(&file), "corrupted entry not named: {fail}");
    assert!(fail.contains("cache entry tampered"), "wrong diagnosis: {fail}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupting_the_trace_stream_names_the_producing_step() {
    let root = temp_dir("trace-corrupt");
    copy_dir(built_chain(), &root);

    // Append a byte to every hashed event stream (the .times sidecars
    // are deliberately outside the hash and must stay corruptible for
    // free). Walk order then blames the first producer: the run step.
    for entry in std::fs::read_dir(root.join("tr")).expect("trace dir") {
        let p = entry.expect("entry").path();
        let name = p.file_name().expect("name").to_string_lossy().into_owned();
        if name.starts_with("trace-") && name.ends_with(".jsonl") && !name.contains(".times.") {
            let mut bytes = std::fs::read(&p).expect("trace readable");
            bytes.push(b'x');
            std::fs::write(&p, bytes).expect("trace writable");
        }
    }

    let out = attest(&root, &["verify"]);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(out.status.code(), Some(1), "tampered trace must fail verification:\n{stdout}");
    let fail = first_fail_line(&stdout);
    assert!(fail.contains("step 'run'"), "wrong step blamed: {fail}");
    assert!(fail.contains("trace:trace-"), "trace artifact not named: {fail}");
    assert!(fail.contains("trace file tampered"), "wrong diagnosis: {fail}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn tampering_a_link_file_is_pinned_to_that_step() {
    let root = temp_dir("link-tamper");
    copy_dir(built_chain(), &root);

    // Flip the seed inside the sealed body of the verify link: still a
    // perfectly well-formed link file, but not the one that was MACed.
    let link = root.join("at").join("0001-verify.link");
    let text = std::fs::read_to_string(&link).expect("link readable");
    std::fs::write(&link, text.replacen("seed 2023", "seed 2024", 1)).expect("link writable");

    let out = attest(&root, &["verify"]);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(out.status.code(), Some(1), "tampered link must fail verification:\n{stdout}");
    let fail = first_fail_line(&stdout);
    assert!(fail.contains("step 'verify'"), "wrong step blamed: {fail}");
    assert!(fail.contains("0001-verify.link"), "link file not named: {fail}");
    assert!(fail.contains("link MAC rejected"), "wrong diagnosis: {fail}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn dropping_a_link_breaks_the_chain_linkage() {
    let root = temp_dir("link-drop");
    copy_dir(built_chain(), &root);

    // Remove the run link: the verify link's `prev` no longer matches
    // the chain head (now the layout MAC), so the excision is detected
    // even though every surviving file is individually pristine.
    std::fs::remove_file(root.join("at").join("0000-run.link")).expect("drop run link");

    let out = attest(&root, &["verify"]);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(out.status.code(), Some(1), "gapped chain must fail verification:\n{stdout}");
    let fail = first_fail_line(&stdout);
    assert!(fail.contains("step 'verify'"), "wrong step blamed: {fail}");
    assert!(fail.contains("chain linkage broken"), "wrong diagnosis: {fail}");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn link_bytes_are_identical_at_every_topology() {
    // The conformance batch through every (workers, jobs) shape the
    // acceptance criteria name. Links are sealed coordinator-side from
    // schedule-independent addresses, so the emitted bytes — MAC
    // included — must be identical for all six.
    let mut reference: Option<(String, Vec<u8>)> = None;
    for workers in ["1", "2", "4"] {
        for jobs in ["1", "4"] {
            let root = temp_dir(&format!("topo-w{workers}-j{jobs}"));
            let out = treu(&[
                "verify",
                "--conformance",
                "--workers",
                workers,
                "--jobs",
                jobs,
                "--attest-dir",
                root.join("at").to_str().expect("utf8"),
                "--cache-dir",
                root.join("cache").to_str().expect("utf8"),
            ]);
            assert!(
                out.status.success(),
                "verify(workers={workers}, jobs={jobs}) failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let link = root.join("at").join("0000-verify.link");
            let bytes = std::fs::read(&link).expect("link emitted");
            let shape = format!("workers={workers} jobs={jobs}");
            match &reference {
                None => reference = Some((shape, bytes)),
                Some((ref_shape, ref_bytes)) => assert_eq!(
                    ref_bytes, &bytes,
                    "link bytes diverged between {ref_shape} and {shape}"
                ),
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// Copies the shared chain, rewrites one attestation file with `edit`,
/// and checks that `attest verify --enforce` exits 1 with a first FAIL
/// line naming that file.
fn assert_edit_fails(tag: &str, file: &str, edit: impl Fn(&str) -> String) {
    let root = temp_dir(tag);
    copy_dir(built_chain(), &root);
    let path = root.join("at").join(file);
    let text = std::fs::read_to_string(&path).expect("attestation file readable");
    let edited = edit(&text);
    assert_ne!(edited, text, "{tag}: the edit must change {file}");
    std::fs::write(&path, edited).expect("attestation file writable");

    let out = attest(&root, &["verify", "--enforce"]);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert_eq!(out.status.code(), Some(1), "{tag}: edited {file} must fail:\n{stdout}");
    let fail = first_fail_line(&stdout);
    assert!(fail.contains(file), "{tag}: edited file not named: {fail}");

    let _ = std::fs::remove_dir_all(&root);
}

/// `text` with the hex digits of its first line starting `prefix`
/// upper-cased.
fn upper_hex(text: &str, prefix: &str) -> String {
    let start = text.find(&format!("\n{prefix}")).expect("line present") + 1;
    let end = start + text[start..].find('\n').expect("terminated line");
    let hex = start + text[start..end].rfind("0x").expect("hex address") + 2;
    format!("{}{}{}", &text[..hex], text[hex..end].to_uppercase(), &text[end..])
}

#[test]
fn a_signed_seed_in_a_link_fails_verification() {
    assert_edit_fails("sign", "0001-verify.link", |t| t.replacen("seed 2023", "seed +2023", 1));
}

#[test]
fn upper_cased_hex_in_a_link_or_the_layout_fails_verification() {
    for (tag, file, line) in [
        ("hex-prev", "0001-verify.link", "prev "),
        ("hex-mac", "0001-verify.link", "mac "),
        ("hex-material", "0001-verify.link", "material "),
        ("hex-layout-mac", "layout.txt", "mac "),
    ] {
        assert_edit_fails(tag, file, |t| upper_hex(t, line));
    }
}

#[test]
fn extra_whitespace_in_the_layout_fails_verification() {
    assert_edit_fails("spaces", "layout.txt", |t| {
        t.replacen("  consumes run:", "  consumes   run:", 1)
    });
}

#[test]
fn crlf_line_endings_fail_verification() {
    for (tag, file) in [("crlf-link", "0001-verify.link"), ("crlf-layout", "layout.txt")] {
        assert_edit_fails(tag, file, |t| t.replace('\n', "\r\n"));
    }
}

/// `attest init` keeps an existing key, `attest show` lists the chain as
/// it grows and names a layout it cannot read, and a batch never mints
/// an explicit `--attest-key`.
#[test]
fn attest_init_and_show_keep_the_key_and_name_what_is_missing() {
    let root = temp_dir("cmds");
    let at = root.join("at");
    let at = at.to_str().expect("utf8");
    let stdout = |out: &std::process::Output| String::from_utf8_lossy(&out.stdout).into_owned();

    let init = || {
        let out = treu(&["attest", "init", "--attest-dir", at]);
        assert!(out.status.success(), "attest init failed: {}", stdout(&out));
        stdout(&out)
    };
    let sealed = |text: &str| text.split(" initialized ").nth(1).map(str::to_string);
    let (first, second) = (init(), init());
    assert!(first.contains("wrote key"), "{first}");
    assert!(!second.contains("wrote key"), "a second init must keep the key:\n{second}");
    assert!(sealed(&first).is_some(), "{first}");
    assert_eq!(sealed(&first), sealed(&second), "same key fingerprint and layout mac");

    let show = || {
        let out = treu(&["attest", "show", "--attest-dir", at]);
        assert!(out.status.success(), "attest show failed: {}", stdout(&out));
        stdout(&out)
    };
    let empty = show();
    assert!(empty.starts_with("treu-layout v1\n") && empty.contains("\nstep run\n"), "{empty}");
    assert!(empty.ends_with("\n0 link(s)\n"), "{empty}");
    let run = treu(&["run", "--conformance", "--attest-dir", at]);
    assert!(run.status.success(), "run --attest-dir failed: {}", stdout(&run));
    let one = show();
    assert!(one.contains("0000-run.link: step run seed 2023"), "{one}");
    assert!(one.ends_with("\n1 link(s)\n"), "{one}");
    let link = Path::new(at).join("0000-run.link");
    let text = std::fs::read_to_string(&link).expect("read the link");
    std::fs::write(&link, text.replace('\n', "\r\n")).expect("write a CRLF link");
    let damaged = show();
    assert!(damaged.contains("0000-run.link: UNPARSEABLE at line 1, byte 12: "), "{damaged}");

    let missing = root.join("missing");
    let out = treu(&["attest", "show", "--attest-dir", missing.to_str().expect("utf8")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&format!("'{}'", missing.join("layout.txt").display())), "{stderr}");

    let fresh = root.join("fresh");
    let key = root.join("typo.key");
    let out = treu(&[
        "run",
        "--conformance",
        "--attest-dir",
        fresh.to_str().expect("utf8"),
        "--attest-key",
        key.to_str().expect("utf8"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("cannot load key"), "{stderr}");
    assert!(!key.exists() && !fresh.join("attest.key").exists(), "an explicit key was minted");

    let _ = std::fs::remove_dir_all(&root);
}
