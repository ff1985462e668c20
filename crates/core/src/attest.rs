//! In-toto-style attestation over the experiment registry.
//!
//! Reproducibility machinery answers *does it reproduce?*; this module
//! answers *who says so, and can the evidence be tampered with after the
//! fact?* Following the in-toto model, each pipeline step (`run` →
//! `verify` → `badge`) emits a **link** record naming the step's
//! **materials** (what it consumed) and **products** (what it produced)
//! as 64-bit FNV-1a content addresses the workspace already computes —
//! trail fingerprints from [`crate::provenance`], cache-entry body hashes
//! from [`crate::cache`], trace stream hashes from [`crate::trace`]. A
//! **layout** document declares the expected step sequence and which
//! artifact-name prefixes each step may consume and produce.
//!
//! Links are chained: every link's `prev` field carries the MAC of its
//! predecessor (the layout's MAC for the first link), and every link is
//! sealed with a keyed MAC, so the link files form a Merkle DAG rooted in
//! the layout — re-ordering, dropping, or editing any link breaks the
//! chain at a pinpointable step. [`verify_chain`] walks the chain and
//! re-hashes the artifacts the links name, reporting the *first step
//! whose products no longer match* — a tampered cache entry, trace file,
//! or link file included.
//!
//! ## MAC construction
//!
//! No external crypto is available in this workspace, so the MAC is a
//! hand-rolled HMAC-*shaped* construction over [`fnv64_parts`]: the key
//! is padded to a 64-byte block, XORed with the classic `0x36`/`0x5c`
//! inner/outer pads, and folded in two passes
//! (`outer(key ⊕ opad ‖ inner(key ⊕ ipad ‖ message))`). FNV-1a is not a
//! cryptographic hash, so this provides **tamper-evidence against
//! accidental and casual modification, not security against an adversary
//! who holds the key or is willing to search for collisions** — the same
//! honesty note DESIGN.md attaches to every fingerprint in the
//! workspace. The construction keeps the real HMAC shape so a drop-in
//! hash upgrade strengthens it without changing any format.
//!
//! ## Topology invariance
//!
//! Link bytes must be identical at every `(workers, jobs)` topology, like
//! every other content-addressed artifact here. Content addresses
//! therefore cover only schedule-independent bytes: the rendered trail
//! *body* of a cache entry (its header's `wall` line varies), the hashed
//! event stream of a trace (timestamps live in the non-hashed sidecar),
//! and trail fingerprints. The sharded `svc` pipeline emits links
//! coordinator-side only, after the merged report is assembled, so
//! workers never race on the chain.

use crate::cache::{write_atomic, RunCache, RunEntry};
use crate::codec::{self, Cursor, Esc};
use crate::exec::{RunOutcome, VerifyReport};
use crate::hash::fnv64_parts;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Magic first line of a link file.
pub const LINK_MAGIC: &str = "treu-link v1";
/// Magic first line of a layout file.
pub const LAYOUT_MAGIC: &str = "treu-layout v1";
/// Magic first line of a key file.
pub const KEY_MAGIC: &str = "treu-attest-key v1";

/// File name of the layout document inside an attestation directory.
pub const LAYOUT_FILE: &str = "layout.txt";
/// Default file name of the MAC key inside an attestation directory.
pub const KEY_FILE: &str = "attest.key";

/// Hashes raw bytes to a 64-bit content address (FNV-1a, the workspace's
/// single canonical hash).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    fnv64_parts(&[bytes])
}

// ---------------------------------------------------------------------------
// Key + MAC
// ---------------------------------------------------------------------------

/// A shared MAC key for sealing links and layouts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestKey {
    bytes: Vec<u8>,
}

impl AttestKey {
    /// Derives a 32-byte key deterministically from a seed (an FNV-1a
    /// chain over tagged blocks). Deterministic derivation keeps the
    /// whole pipeline reproducible; treat the seed like the key itself.
    pub fn derive(seed: u64) -> Self {
        let mut bytes = Vec::with_capacity(32);
        let mut h = fnv64_parts(&[b"treu-attest-key", &seed.to_le_bytes()]);
        for i in 0u64..4 {
            h = fnv64_parts(&[b"key-block", &h.to_le_bytes(), &i.to_le_bytes()]);
            bytes.extend_from_slice(&h.to_le_bytes());
        }
        Self { bytes }
    }

    /// Builds a key from raw bytes (for tests and external provisioning).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// Exact inverse of [`AttestKey::render`], except that an empty key
    /// (a blanked or truncated key file) is an error: it would seal under
    /// an all-zero MAC block anyone can compute.
    pub fn parse(text: &str) -> Result<Self, codec::Error> {
        let mut c = Cursor::new(text);
        c.tag(KEY_MAGIC)?;
        c.tag("\n")?;
        let hex = c.until("\n")?;
        if hex.text.is_empty() {
            return Err(codec::Error::new(hex.at, "empty key"));
        }
        let key = Self { bytes: hex.hex_bytes()? };
        codec::canonical(text, &key.render())?;
        Ok(key)
    }

    /// Renders the key-file text form: the magic line, then the key bytes
    /// as lowercase hex.
    pub fn render(&self) -> String {
        format!("{KEY_MAGIC}\n{}\n", codec::hex_bytes(&self.bytes))
    }

    /// Loads a key file from disk.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("'{}' is not a treu attest key file: {}", path.display(), e.locate(&text)),
            )
        })
    }

    /// Public fingerprint of the key, recorded in layouts so a
    /// wrong-key verification is diagnosed as such rather than as mass
    /// tampering.
    pub fn fingerprint(&self) -> u64 {
        fnv64_parts(&[b"attest-key-fingerprint", &self.bytes])
    }

    /// Keyed MAC over `parts` — HMAC-shaped two-pass fold (see module
    /// docs for the construction and its honesty caveat).
    pub fn mac(&self, parts: &[&[u8]]) -> u64 {
        let mut block = [0u8; 64];
        if self.bytes.len() > 64 {
            block[..8].copy_from_slice(&fnv64_parts(&[&self.bytes]).to_le_bytes());
        } else {
            block[..self.bytes.len()].copy_from_slice(&self.bytes);
        }
        let ipad: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
        let opad: Vec<u8> = block.iter().map(|b| b ^ 0x5C).collect();
        let mut inner_parts: Vec<&[u8]> = Vec::with_capacity(parts.len() + 1);
        inner_parts.push(&ipad);
        inner_parts.extend_from_slice(parts);
        let inner = fnv64_parts(&inner_parts);
        fnv64_parts(&[&opad, &inner.to_le_bytes()])
    }
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

/// One step's attestation: what it consumed, what it produced, sealed
/// with a keyed MAC and chained to its predecessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Step name (must appear in the layout).
    pub step: String,
    /// The seed the step ran under.
    pub seed: u64,
    /// MAC of the predecessor in the chain (the layout's MAC for the
    /// first link).
    pub prev: u64,
    /// Artifact name → content address consumed by the step.
    pub materials: BTreeMap<String, u64>,
    /// Artifact name → content address produced by the step.
    pub products: BTreeMap<String, u64>,
    /// Keyed MAC over the canonical body ([`Link::body`]).
    pub mac: u64,
}

impl Link {
    /// Canonical text the MAC covers: everything except the `mac` line.
    /// `BTreeMap` iteration makes the rendering order-independent of how
    /// artifacts were inserted.
    pub fn body(&self) -> String {
        let mut out = String::from(LINK_MAGIC);
        out.push('\n');
        out.push_str(&format!("step {}\n", codec::escape(&self.step, Esc::Key)));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("prev {}\n", codec::hex64(self.prev)));
        for (name, addr) in &self.materials {
            let name = codec::escape(name, Esc::Key);
            out.push_str(&format!("material {name} {}\n", codec::hex64(*addr)));
        }
        for (name, addr) in &self.products {
            let name = codec::escape(name, Esc::Key);
            out.push_str(&format!("product {name} {}\n", codec::hex64(*addr)));
        }
        out
    }

    /// Seals the link: computes and stores the MAC over [`Link::body`].
    pub fn sealed(mut self, key: &AttestKey) -> Self {
        self.mac = key.mac(&[self.body().as_bytes()]);
        self
    }

    /// True when the stored MAC matches a recomputation under `key`.
    /// [`Link::decode`] accepts only the bytes [`Link::render`] writes, so
    /// the recomputed body is the body on disk.
    pub fn mac_ok(&self, key: &AttestKey) -> bool {
        self.mac == key.mac(&[self.body().as_bytes()])
    }

    /// Full file text: body plus the `mac` line.
    pub fn render(&self) -> String {
        format!("{}mac {}\n", self.body(), codec::hex64(self.mac))
    }

    /// [`Link::decode`], with the reason dropped.
    pub fn parse(text: &str) -> Option<Link> {
        Self::decode(text).ok()
    }

    /// Exact inverse of [`Link::render`]: a duplicate or misordered
    /// artifact, a second `mac` line, a sign, an upper-case digit, a CR or
    /// an extra space is an error at its byte.
    pub fn decode(text: &str) -> Result<Link, codec::Error> {
        let mut c = Cursor::new(text);
        c.tag(LINK_MAGIC)?;
        c.tag("\nstep ")?;
        let step = c.until("\n")?.unescape(Esc::Key)?;
        c.tag("seed ")?;
        let seed = c.until("\n")?.value()?;
        c.tag("prev ")?;
        let prev = c.until("\n")?.hex64()?;
        let mut materials = BTreeMap::new();
        while c.eat("material ") {
            let name = c.until_last(" ")?.unescape(Esc::Key)?;
            materials.insert(name, c.until("\n")?.hex64()?);
        }
        let mut products = BTreeMap::new();
        while c.eat("product ") {
            let name = c.until_last(" ")?.unescape(Esc::Key)?;
            products.insert(name, c.until("\n")?.hex64()?);
        }
        c.tag("mac ")?;
        let mac = c.until("\n")?.hex64()?;
        let link = Link { step, seed, prev, materials, products, mac };
        codec::canonical(text, &link.render())?;
        Ok(link)
    }

    /// File name for the `index`-th link in a chain. The zero-padded
    /// index makes lexicographic directory order equal chain order.
    pub fn file_name(index: usize, step: &str) -> String {
        let safe: String = step
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        format!("{index:04}-{safe}.link")
    }
}

/// An unsealed link under construction: the step plus its artifact sets,
/// before the chain position (`prev`) and MAC are known.
#[derive(Debug, Clone, Default)]
pub struct LinkDraft {
    /// Step name.
    pub step: String,
    /// Seed the step ran under.
    pub seed: u64,
    /// Materials collected so far.
    pub materials: BTreeMap<String, u64>,
    /// Products collected so far.
    pub products: BTreeMap<String, u64>,
}

impl LinkDraft {
    /// Starts a draft for `step` under `seed`.
    pub fn new(step: &str, seed: u64) -> Self {
        Self { step: step.to_string(), seed, ..Self::default() }
    }

    /// Records a material (what the step consumed).
    pub fn material(&mut self, name: impl Into<String>, addr: u64) {
        self.materials.insert(name.into(), addr);
    }

    /// Records a product (what the step produced).
    pub fn product(&mut self, name: impl Into<String>, addr: u64) {
        self.products.insert(name.into(), addr);
    }

    /// Records the reproduced outcomes of a verify report: each
    /// reproduced id becomes both a `run:<id>` material (the fingerprint
    /// the step observed) and a `run:<id>` product (the fingerprint it
    /// attests), so consecutive links chain on matching fingerprints.
    pub fn absorb_verify(&mut self, report: &VerifyReport) {
        for o in report.outcomes.iter().filter(|o| o.reproduced) {
            self.material(format!("run:{}", o.id), o.fingerprint);
            self.product(format!("run:{}", o.id), o.fingerprint);
        }
    }

    /// Records the successful outcomes of a run batch as `run:<id>`
    /// products.
    pub fn absorb_run_outcomes(&mut self, pairs: &[(String, RunOutcome)]) {
        for (id, out) in pairs {
            if let RunOutcome::Ok { record, .. } = out {
                self.product(format!("run:{id}"), record.fingerprint());
            }
        }
    }

    /// Records the cache entry for `(id, seed)` under `file` as a
    /// `cache:<id>/<file>` product, addressing only the topology-stable
    /// trail body. Silently skips entries that are absent or not in the
    /// current format (nothing to attest).
    pub fn absorb_cache_entry(&mut self, cache: &RunCache, id: &str, file: &str) {
        if let Ok(text) = std::fs::read_to_string(cache.dir().join(file)) {
            if let Ok(entry) = RunEntry::parse(&text) {
                self.product(format!("cache:{id}/{file}"), hash_bytes(entry.body.as_bytes()));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

/// One step's rules in a layout: which artifact-name prefixes it may
/// consume and produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRule {
    /// Step name.
    pub name: String,
    /// Allowed material-name prefixes.
    pub consumes: Vec<String>,
    /// Allowed product-name prefixes.
    pub produces: Vec<String>,
}

/// The declared pipeline: an ordered list of steps with per-step
/// materials/products rules, sealed with the same keyed MAC as links.
/// The layout's MAC is the chain root: the first link's `prev` must
/// equal it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Steps in pipeline order.
    pub steps: Vec<StepRule>,
    /// Fingerprint of the sealing key ([`AttestKey::fingerprint`]).
    pub key_fingerprint: u64,
    /// Keyed MAC over [`Layout::body`].
    pub mac: u64,
}

impl Layout {
    /// The default pipeline: `run` → `verify` → `badge`, with the
    /// artifact-name prefixes each step legitimately touches.
    pub fn default_pipeline(key: &AttestKey) -> Self {
        let step = |name: &str, consumes: &[&str], produces: &[&str]| StepRule {
            name: name.to_string(),
            consumes: consumes.iter().map(|s| s.to_string()).collect(),
            produces: produces.iter().map(|s| s.to_string()).collect(),
        };
        Layout {
            steps: vec![
                step("run", &["registry:", "env:"], &["run:", "cache:", "trace:"]),
                step("verify", &["registry:", "env:", "run:"], &["run:", "cache:", "trace:"]),
                step("badge", &["run:"], &["badge:"]),
            ],
            key_fingerprint: key.fingerprint(),
            mac: 0,
        }
        .sealed(key)
    }

    /// Canonical text the MAC covers: everything except the `mac` line.
    pub fn body(&self) -> String {
        let mut out = String::from(LAYOUT_MAGIC);
        out.push('\n');
        out.push_str(&format!("keyfp {}\n", codec::hex64(self.key_fingerprint)));
        for s in &self.steps {
            out.push_str(&format!("step {}\n", codec::escape(&s.name, Esc::Key)));
            out.push_str(&format!("  consumes {}\n", s.consumes.join(" ")));
            out.push_str(&format!("  produces {}\n", s.produces.join(" ")));
        }
        out
    }

    /// Seals the layout under `key`.
    pub fn sealed(mut self, key: &AttestKey) -> Self {
        self.mac = key.mac(&[self.body().as_bytes()]);
        self
    }

    /// True when the stored MAC matches a recomputation under `key`.
    pub fn mac_ok(&self, key: &AttestKey) -> bool {
        self.mac == key.mac(&[self.body().as_bytes()])
    }

    /// Full file text: body plus the `mac` line.
    pub fn render(&self) -> String {
        format!("{}mac {}\n", self.body(), codec::hex64(self.mac))
    }

    /// Exact inverse of [`Layout::render`].
    pub fn parse(text: &str) -> Result<Layout, codec::Error> {
        let mut c = Cursor::new(text);
        c.tag(LAYOUT_MAGIC)?;
        c.tag("\nkeyfp ")?;
        let key_fingerprint = c.until("\n")?.hex64()?;
        let mut steps = Vec::new();
        while c.eat("step ") {
            let name = c.until("\n")?.unescape(Esc::Key)?;
            c.tag("  consumes ")?;
            let consumes = c.until("\n")?.text.split_whitespace().map(str::to_string).collect();
            c.tag("  produces ")?;
            let produces = c.until("\n")?.text.split_whitespace().map(str::to_string).collect();
            steps.push(StepRule { name, consumes, produces });
        }
        c.tag("mac ")?;
        let mac = c.until("\n")?.hex64()?;
        let layout = Layout { steps, key_fingerprint, mac };
        codec::canonical(text, &layout.render())?;
        Ok(layout)
    }

    /// Position of `step` in the pipeline, if declared.
    pub fn position(&self, step: &str) -> Option<usize> {
        self.steps.iter().position(|s| s.name == step)
    }
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// A directory holding one attestation chain: `layout.txt`, `attest.key`
/// (unless the key is provisioned elsewhere), and zero or more
/// `NNNN-<step>.link` files whose lexicographic order is chain order.
#[derive(Debug, Clone)]
pub struct AttestStore {
    dir: PathBuf,
}

impl AttestStore {
    /// Opens (without touching the filesystem) the store at `dir`.
    pub fn open(dir: &Path) -> Self {
        Self { dir: dir.to_path_buf() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the layout document.
    pub fn layout_path(&self) -> PathBuf {
        self.dir.join(LAYOUT_FILE)
    }

    /// Default path of the key file.
    pub fn key_path(&self) -> PathBuf {
        self.dir.join(KEY_FILE)
    }

    /// True when a layout document exists.
    pub fn initialized(&self) -> bool {
        self.layout_path().is_file()
    }

    /// Writes the layout (atomically), creating the directory first.
    pub fn write_layout(&self, layout: &Layout) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        write_atomic(&self.dir, LAYOUT_FILE, &layout.render())
    }

    /// Writes the key file (atomically), creating the directory first.
    pub fn write_key(&self, key: &AttestKey) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        write_atomic(&self.dir, KEY_FILE, &key.render())
    }

    /// Loads and parses the layout document.
    pub fn load_layout(&self) -> io::Result<Layout> {
        let path = self.layout_path();
        let text = std::fs::read_to_string(&path).map_err(|e| {
            io::Error::new(e.kind(), format!("cannot read '{}': {e}", path.display()))
        })?;
        Layout::parse(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("'{}' is not a treu layout file: {}", path.display(), e.locate(&text)),
            )
        })
    }

    /// All link files as `(file name, text)`, in chain (lexicographic)
    /// order.
    pub fn link_files(&self) -> io::Result<Vec<(String, String)>> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".link") {
                out.push((name, std::fs::read_to_string(entry.path())?));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Seals `draft` onto the end of the chain and writes the link file.
    /// Returns the path and the sealed link. The new link's `prev` is the
    /// MAC of the last link, or the layout's MAC when the chain is empty.
    /// Fails closed on an unparseable tail link — appending to a corrupt
    /// chain would only bury the corruption.
    pub fn append(&self, key: &AttestKey, draft: LinkDraft) -> io::Result<(PathBuf, Link)> {
        let layout = self.load_layout()?;
        if !layout.mac_ok(key) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "layout MAC rejected under this key; refusing to extend the chain",
            ));
        }
        if layout.position(&draft.step).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("step '{}' is not declared in the layout", draft.step),
            ));
        }
        let links = self.link_files()?;
        let prev = match links.last() {
            None => layout.mac,
            Some((file, text)) => Link::parse(text).map(|l| l.mac).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("chain tail '{file}' is unparseable; run `treu attest verify`"),
                )
            })?,
        };
        let index = links.len();
        let link = Link {
            step: draft.step,
            seed: draft.seed,
            prev,
            materials: draft.materials,
            products: draft.products,
            mac: 0,
        }
        .sealed(key);
        let path = write_atomic(&self.dir, &Link::file_name(index, &link.step), &link.render())?;
        Ok((path, link))
    }
}

// ---------------------------------------------------------------------------
// Chain verification
// ---------------------------------------------------------------------------

/// Where to find the artifacts links name, plus the current values of
/// root materials. Any `None` skips that class of re-hash check (the
/// report lists what was skipped — silent truncation would read as
/// "covered everything").
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyContext<'a> {
    /// Directory holding cache entries (`cache:<id>/<file>` products).
    pub cache_dir: Option<&'a Path>,
    /// Directory holding trace streams (`trace:<file>` products).
    pub trace_dir: Option<&'a Path>,
    /// Current hash of the registry index (`registry:index` material).
    pub registry_index_hash: Option<u64>,
    /// Current environment fingerprint (`env:fingerprint` material).
    pub env_fingerprint: Option<u64>,
}

/// One verification failure, attributed to the step that produced the
/// offending artifact or link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainFailure {
    /// The producing step the failure is attributed to.
    pub step: String,
    /// The link file involved.
    pub link_file: String,
    /// The artifact (or `<link>`/`<layout>`) that failed.
    pub artifact: String,
    /// What went wrong.
    pub reason: String,
}

impl ChainFailure {
    fn render(&self) -> String {
        format!(
            "FAIL step '{}' ({}): {} — {}",
            self.step, self.link_file, self.artifact, self.reason
        )
    }
}

/// The result of walking an attestation chain.
#[derive(Debug, Clone, Default)]
pub struct ChainReport {
    /// Links inspected, in chain order, with per-link artifact counts.
    pub inspected: Vec<String>,
    /// Number of artifacts re-hashed against current bytes.
    pub rehashed: usize,
    /// Check classes skipped for lack of a directory/context value.
    pub skipped: Vec<String>,
    /// All failures, in walk order (first entry pinpoints the first
    /// broken step).
    pub failures: Vec<ChainFailure>,
}

impl ChainReport {
    /// True when the chain verified clean.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of links inspected.
    pub fn links(&self) -> usize {
        self.inspected.len()
    }

    /// Plain-text report. Deterministic: counts and names only, no wall
    /// times.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.inspected {
            out.push_str(&format!("  {line}\n"));
        }
        for s in &self.skipped {
            out.push_str(&format!("  skipped: {s}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("  {}\n", f.render()));
        }
        out.push_str(&format!(
            "chain: {} — {} link(s), {} artifact(s) re-hashed, {} failure(s)\n",
            if self.ok() { "OK" } else { "BROKEN" },
            self.links(),
            self.rehashed,
            self.failures.len()
        ));
        out
    }
}

/// Walks the chain in `store` under `key`: layout MAC, per-link MACs,
/// `prev` linkage, layout step order and prefix rules, materials-vs-
/// products continuity between consecutive steps, and a re-hash of every
/// named artifact reachable through `ctx`. The first failure pinpoints
/// the first step whose products no longer hold.
pub fn verify_chain(store: &AttestStore, key: &AttestKey, ctx: &VerifyContext) -> ChainReport {
    let mut report = ChainReport::default();
    let fail = |step: &str, link_file: &str, artifact: &str, reason: String| ChainFailure {
        step: step.to_string(),
        link_file: link_file.to_string(),
        artifact: artifact.to_string(),
        reason,
    };

    // 1. Layout: must exist, parse, name our key, and pass its MAC.
    let layout = match store.load_layout() {
        Ok(l) => l,
        Err(e) => {
            report.failures.push(fail("layout", LAYOUT_FILE, "<layout>", e.to_string()));
            return report;
        }
    };
    if layout.key_fingerprint != key.fingerprint() {
        report.failures.push(fail(
            "layout",
            LAYOUT_FILE,
            "<layout>",
            format!(
                "layout was sealed under key {:#018x} but verification key is {:#018x}",
                layout.key_fingerprint,
                key.fingerprint()
            ),
        ));
        return report;
    }
    if !layout.mac_ok(key) {
        report.failures.push(fail(
            "layout",
            LAYOUT_FILE,
            "<layout>",
            "layout MAC rejected — layout file tampered".to_string(),
        ));
        return report;
    }

    let files = match store.link_files() {
        Ok(f) => f,
        Err(e) => {
            report.failures.push(fail("layout", LAYOUT_FILE, "<links>", e.to_string()));
            return report;
        }
    };

    // Latest producer of every artifact name seen so far: name →
    // (address, step, link file).
    let mut produced: BTreeMap<String, (u64, String, String)> = BTreeMap::new();
    let mut expected_prev = layout.mac;
    let mut last_position = 0usize;

    for (file, text) in &files {
        let link = match Link::decode(text) {
            Ok(l) => l,
            Err(e) => {
                report.failures.push(fail(
                    "unknown",
                    file,
                    "<link>",
                    format!("link file unparseable — truncated or tampered at {}", e.locate(text)),
                ));
                break; // nothing downstream can be attributed once the chain is unreadable
            }
        };
        report.inspected.push(format!(
            "{file:<24} step {:<8} {} material(s), {} product(s)",
            link.step,
            link.materials.len(),
            link.products.len()
        ));

        // 2. MAC: the link parsed, so its body is exactly the bytes on
        //    disk; a flipped byte that still parses (or a wrong key) lands
        //    here.
        if !link.mac_ok(key) {
            report.failures.push(fail(
                &link.step,
                file,
                "<link>",
                "link MAC rejected — link file tampered or sealed under a different key"
                    .to_string(),
            ));
            break;
        }

        // 3. Chain linkage: prev must equal the predecessor's MAC.
        if link.prev != expected_prev {
            report.failures.push(fail(
                &link.step,
                file,
                "<link>",
                format!(
                    "chain linkage broken: prev is {:#018x}, expected {:#018x} (link dropped, reordered, or inserted)",
                    link.prev, expected_prev
                ),
            ));
            break;
        }
        expected_prev = link.mac;

        // 4. Layout sequence: declared step, non-decreasing position.
        let position = match layout.position(&link.step) {
            Some(p) => p,
            None => {
                report.failures.push(fail(
                    &link.step,
                    file,
                    "<link>",
                    "step is not declared in the layout".to_string(),
                ));
                continue;
            }
        };
        if position < last_position {
            report.failures.push(fail(
                &link.step,
                file,
                "<link>",
                format!(
                    "step order violates the layout: '{}' cannot follow '{}'",
                    link.step, layout.steps[last_position].name
                ),
            ));
        }
        last_position = last_position.max(position);

        // 5. Prefix rules from the layout.
        let rule = &layout.steps[position];
        for (kind, names, allowed) in [
            ("material", &link.materials, &rule.consumes),
            ("product", &link.products, &rule.produces),
        ] {
            for name in names.keys() {
                if !allowed.iter().any(|p| name.starts_with(p.as_str())) {
                    report.failures.push(fail(
                        &link.step,
                        file,
                        name,
                        format!(
                            "{kind} name not allowed by the layout for step '{}' (allowed prefixes: {})",
                            link.step,
                            allowed.join(" ")
                        ),
                    ));
                }
            }
        }

        // 6. Materials continuity: a consumed artifact some earlier step
        //    produced must carry the producer's address.
        for (name, addr) in &link.materials {
            match produced.get(name) {
                Some((prev_addr, prev_step, prev_file)) if prev_addr != addr => {
                    report.failures.push(fail(
                        prev_step,
                        prev_file,
                        name,
                        format!(
                            "step '{prev_step}' produced {prev_addr:#018x} but step '{}' consumed {addr:#018x}",
                            link.step
                        ),
                    ));
                }
                Some(_) => {}
                // Root materials (registry:/env:) check against the
                // caller's current values.
                None if name == "registry:index" => {
                    if let Some(current) = ctx.registry_index_hash {
                        report.rehashed += 1;
                        if current != *addr {
                            report.failures.push(fail(
                                &link.step,
                                file,
                                name,
                                format!(
                                    "registry index hashed {addr:#018x} at emission but {current:#018x} now — the experiment set changed under the chain",
                                ),
                            ));
                        }
                    }
                }
                None if name == "env:fingerprint" => {
                    if let Some(current) = ctx.env_fingerprint {
                        report.rehashed += 1;
                        if current != *addr {
                            report.failures.push(fail(
                                &link.step,
                                file,
                                name,
                                format!(
                                    "environment fingerprint was {addr:#018x} at emission but {current:#018x} now — evidence is from a different build or machine",
                                ),
                            ));
                        }
                    }
                }
                None => {}
            }
        }

        // 7. Re-hash every product still on disk against its recorded
        //    address; blame this link's step (it produced the artifact).
        for (name, addr) in &link.products {
            if let Some(rest) = name.strip_prefix("cache:") {
                let Some(dir) = ctx.cache_dir else {
                    continue;
                };
                let Some((id, entry_file)) = rest.split_once('/') else {
                    report.failures.push(fail(
                        &link.step,
                        file,
                        name,
                        "malformed cache product name (want cache:<id>/<file>)".to_string(),
                    ));
                    continue;
                };
                report.rehashed += 1;
                let text = match std::fs::read_to_string(dir.join(entry_file)) {
                    Ok(t) => t,
                    Err(e) => {
                        let reason = if e.kind() == io::ErrorKind::InvalidData {
                            "cache entry no longer parses as a run entry — not UTF-8"
                        } else {
                            "cache entry missing — deleted or evicted after the step produced it"
                        };
                        report.failures.push(fail(&link.step, file, name, reason.to_string()));
                        continue;
                    }
                };
                let entry = match RunEntry::parse(&text) {
                    Ok(entry) => entry,
                    Err(e) => {
                        report.failures.push(fail(
                            &link.step,
                            file,
                            name,
                            format!(
                                "cache entry no longer parses as a run entry — header tampered or format torn at {}",
                                e.locate(&text)
                            ),
                        ));
                        continue;
                    }
                };
                let current = hash_bytes(entry.body.as_bytes());
                if current != *addr {
                    report.failures.push(fail(
                        &link.step,
                        file,
                        name,
                        format!(
                            "trail body hashed {addr:#018x} when produced but {current:#018x} now — cache entry tampered",
                        ),
                    ));
                    continue;
                }
                // Belt and braces: the entry must still be one the cache
                // would serve (its checksum vouches for the body, which
                // decodes as a trail), and the trail must still fingerprint
                // to the attested run:<id> product, so a rewrite that fixes
                // the entry checksum is still caught.
                match entry.record() {
                    Ok(rec) => {
                        if let Some(expect_fp) = link.products.get(&format!("run:{id}")) {
                            if rec.trail.fingerprint() != *expect_fp {
                                report.failures.push(fail(
                                    &link.step,
                                    file,
                                    name,
                                    format!(
                                        "trail fingerprint is {:#018x} but the link attests run:{id} as {expect_fp:#018x}",
                                        rec.trail.fingerprint()
                                    ),
                                ));
                            }
                        }
                    }
                    Err(e) => {
                        report.failures.push(fail(
                            &link.step,
                            file,
                            name,
                            format!("cache entry no longer verifies at {}", e.locate(&text)),
                        ));
                    }
                }
            } else if let Some(trace_file) = name.strip_prefix("trace:") {
                let Some(dir) = ctx.trace_dir else {
                    continue;
                };
                report.rehashed += 1;
                match std::fs::read(dir.join(trace_file)) {
                    Ok(bytes) => {
                        let current = hash_bytes(&bytes);
                        if current != *addr {
                            report.failures.push(fail(
                                &link.step,
                                file,
                                name,
                                format!(
                                    "trace stream hashed {addr:#018x} when produced but {current:#018x} now — trace file tampered",
                                ),
                            ));
                        }
                    }
                    Err(_) => {
                        report.failures.push(fail(
                            &link.step,
                            file,
                            name,
                            "trace file missing — deleted after the step produced it".to_string(),
                        ));
                    }
                }
            }
            let entry = (*addr, link.step.clone(), file.clone());
            produced.insert(name.clone(), entry);
        }
    }

    if ctx.cache_dir.is_none() {
        report.skipped.push("cache re-hash (no --cache-dir)".to_string());
    }
    if ctx.trace_dir.is_none() {
        report.skipped.push("trace re-hash (no --trace-out)".to_string());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> AttestKey {
        AttestKey::derive(2023)
    }

    fn draft(step: &str) -> LinkDraft {
        let mut d = LinkDraft::new(step, 2023);
        d.material("registry:index", 0x1111);
        d.material("env:fingerprint", 0x2222);
        d.product("run:T1", 0xAAAA);
        d
    }

    /// A store in a fresh temp dir, removed when the guard drops.
    struct TempStore(AttestStore);

    impl std::ops::Deref for TempStore {
        type Target = AttestStore;
        fn deref(&self) -> &AttestStore {
            &self.0
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(self.0.dir());
        }
    }

    fn temp_store(tag: &str) -> TempStore {
        let d = std::env::temp_dir().join(format!("treu-attest-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        TempStore(AttestStore::open(&d))
    }

    fn init(store: &AttestStore) -> AttestKey {
        let k = key();
        store.write_key(&k).unwrap();
        store.write_layout(&Layout::default_pipeline(&k)).unwrap();
        k
    }

    #[test]
    fn key_roundtrips_and_fingerprint_is_stable() {
        let k = key();
        let parsed = AttestKey::parse(&k.render()).expect("key text parses");
        assert_eq!(parsed, k);
        assert_eq!(parsed.fingerprint(), k.fingerprint());
        assert_ne!(k.fingerprint(), AttestKey::derive(2024).fingerprint());
        assert_eq!(AttestKey::parse("garbage").ok(), None);
        assert_eq!(AttestKey::parse(&format!("{KEY_MAGIC}\nzz\n")).ok(), None);
        let blank = AttestKey::parse(&format!("{KEY_MAGIC}\n\n")).unwrap_err();
        assert_eq!(blank.offset, KEY_MAGIC.len() + 1, "{blank}");
    }

    #[test]
    fn mac_is_keyed_and_position_sensitive() {
        let k = key();
        let other = AttestKey::derive(99);
        assert_ne!(k.mac(&[b"msg"]), other.mac(&[b"msg"]));
        assert_ne!(k.mac(&[b"msg"]), k.mac(&[b"msh"]));
        // fnv64_parts domain-separates parts, so shifting bytes across a
        // part boundary cannot forge the same MAC.
        assert_ne!(k.mac(&[b"ab", b"cd"]), k.mac(&[b"abcd"]));
        assert_ne!(k.mac(&[b"ab", b"cd"]), k.mac(&[b"abc", b"d"]));
    }

    #[test]
    fn link_codec_roundtrips() {
        let k = key();
        let mut d = draft("run");
        d.product("cache:T1/abc.run", 0xBBBB);
        d.product("trace:trace-1.jsonl", 0xCCCC);
        d.material("odd name with spaces = and <arrows>", 7);
        let link = Link {
            step: d.step,
            seed: d.seed,
            prev: 0xDEAD,
            materials: d.materials,
            products: d.products,
            mac: 0,
        }
        .sealed(&k);
        let text = link.render();
        let parsed = Link::parse(&text).expect("rendered link parses");
        assert_eq!(parsed, link);
        assert!(parsed.mac_ok(&k));
        assert_eq!(parsed.render(), text, "parse is the exact inverse of render");
    }

    #[test]
    fn link_mac_rejects_a_flipped_byte() {
        let k = key();
        let link = Link {
            step: "run".into(),
            seed: 2023,
            prev: 1,
            materials: draft("run").materials,
            products: draft("run").products,
            mac: 0,
        }
        .sealed(&k);
        let text = link.render();
        // Flip one byte in every body position; the MAC must reject all.
        let mac_line_start = text.rfind("mac ").unwrap();
        for i in 0..mac_line_start {
            let mut bytes = text.clone().into_bytes();
            bytes[i] ^= 0x01;
            let Ok(tampered) = String::from_utf8(bytes) else {
                continue;
            };
            // A structurally invalid parse is also a rejection.
            if let Some(l) = Link::parse(&tampered) {
                assert!(!l.mac_ok(&k), "flipped byte at {i} still passed the MAC: {tampered:?}");
            }
        }
        assert!(Link::parse(&text).unwrap().mac_ok(&k), "untampered link passes");
    }

    #[test]
    fn link_parse_rejects_malformed() {
        assert_eq!(Link::parse("nonsense"), None);
        assert_eq!(Link::parse(&format!("{LINK_MAGIC}\nstep run\nseed 1\nprev 0xzz\n")), None);
        // Duplicate artifact names and missing mac are malformed. Every
        // other line is rendered form, so each error lands on the defect.
        let head = format!("{LINK_MAGIC}\nstep run\nseed 1\nprev 0x0000000000000001\n");
        assert_eq!(Link::decode(&head).unwrap_err().offset, head.len(), "missing mac");
        let product = "product a 0x0000000000000001\n";
        let mac = "mac 0x0000000000000001\n";
        let dup = format!("{head}{product}{product}{mac}");
        assert_eq!(Link::decode(&dup).unwrap_err().offset, head.len() + product.len());
        let redefined = format!("{head}{product}product a 0x0000000000000002\n{mac}");
        assert_eq!(Link::parse(&redefined), None);
        assert!(Link::parse(&format!("{head}{product}{mac}")).is_some());
    }

    #[test]
    fn layout_codec_roundtrips_and_mac_gates() {
        let k = key();
        let layout = Layout::default_pipeline(&k);
        let parsed = Layout::parse(&layout.render()).expect("layout parses");
        assert_eq!(parsed, layout);
        assert!(parsed.mac_ok(&k));
        assert!(!parsed.mac_ok(&AttestKey::derive(7)));
        assert_eq!(parsed.position("run"), Some(0));
        assert_eq!(parsed.position("badge"), Some(2));
        assert_eq!(parsed.position("deploy"), None);
    }

    #[test]
    fn chain_verifies_clean_and_catches_linkage_breaks() {
        let store = temp_store("chain");
        let k = init(&store);
        store.append(&k, draft("run")).unwrap();
        let mut vd = draft("verify");
        vd.material("run:T1", 0xAAAA);
        store.append(&k, vd).unwrap();
        let report = verify_chain(&store, &k, &VerifyContext::default());
        assert!(report.ok(), "{}", report.render());
        assert_eq!(report.links(), 2);

        // Deleting the first link breaks the second's prev linkage.
        std::fs::remove_file(store.dir().join(Link::file_name(0, "run"))).unwrap();
        let report = verify_chain(&store, &k, &VerifyContext::default());
        assert!(!report.ok());
        assert!(report.failures[0].reason.contains("chain linkage broken"), "{}", report.render());

        // An unparseable tail refuses the next append.
        std::fs::write(store.dir().join(Link::file_name(1, "verify")), "junk").unwrap();
        let err = store.append(&k, draft("badge")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("chain tail '0001-verify.link' is unparseable"), "{err}");
    }

    #[test]
    fn chain_pinpoints_mismatched_materials() {
        let store = temp_store("materials");
        let k = init(&store);
        store.append(&k, draft("run")).unwrap();
        let mut vd = draft("verify");
        vd.material("run:T1", 0xBEEF); // does not match run's product 0xAAAA
        store.append(&k, vd).unwrap();
        let report = verify_chain(&store, &k, &VerifyContext::default());
        assert!(!report.ok());
        let f = &report.failures[0];
        assert_eq!(f.step, "run", "blames the producing step");
        assert_eq!(f.artifact, "run:T1");
        assert!(f.reason.contains("consumed"), "{}", f.reason);
    }

    #[test]
    fn chain_rejects_steps_out_of_layout_order() {
        let store = temp_store("order");
        let k = init(&store);
        store.append(&k, LinkDraft::new("badge", 2023)).unwrap();
        store.append(&k, draft("run")).unwrap();
        let report = verify_chain(&store, &k, &VerifyContext::default());
        assert!(!report.ok());
        assert!(
            report.failures.iter().any(|f| f.reason.contains("step order violates the layout")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn chain_rejects_undeclared_prefixes_and_steps() {
        let store = temp_store("prefixes");
        let k = init(&store);
        let mut d = LinkDraft::new("run", 2023);
        d.product("deploy:prod", 1); // not a run product prefix
        store.append(&k, d).unwrap();
        let report = verify_chain(&store, &k, &VerifyContext::default());
        assert!(!report.ok());
        assert!(report.failures[0].reason.contains("not allowed by the layout"));
        assert_eq!(
            store.append(&k, LinkDraft::new("deploy", 2023)).unwrap_err().kind(),
            io::ErrorKind::InvalidInput,
            "appending an undeclared step fails closed"
        );
    }

    #[test]
    fn tampered_link_file_is_named() {
        let store = temp_store("tamper-link");
        let k = init(&store);
        store.append(&k, draft("run")).unwrap();
        let path = store.dir().join(Link::file_name(0, "run"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            text.replace("run:T1 0x000000000000aaaa", "run:T1 0x000000000000aaab"),
        )
        .unwrap();
        let report = verify_chain(&store, &k, &VerifyContext::default());
        assert!(!report.ok());
        let f = &report.failures[0];
        assert_eq!(f.step, "run");
        assert!(f.reason.contains("MAC rejected"), "{}", f.reason);
    }

    #[test]
    fn tampered_layout_is_named() {
        let store = temp_store("tamper-layout");
        let k = init(&store);
        let path = store.layout_path();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("step badge", "step deploy")).unwrap();
        let report = verify_chain(&store, &k, &VerifyContext::default());
        assert!(!report.ok());
        assert!(report.failures[0].reason.contains("layout MAC rejected"));
    }

    #[test]
    fn wrong_key_is_diagnosed_as_wrong_key() {
        let store = temp_store("wrong-key");
        let k = init(&store);
        store.append(&k, draft("run")).unwrap();
        let report = verify_chain(&store, &AttestKey::derive(777), &VerifyContext::default());
        assert!(!report.ok());
        assert!(report.failures[0].reason.contains("verification key"), "{}", report.render());
    }

    #[test]
    fn root_material_drift_is_reported() {
        let store = temp_store("roots");
        let k = init(&store);
        store.append(&k, draft("run")).unwrap();
        let ctx = VerifyContext {
            registry_index_hash: Some(0x1111),
            env_fingerprint: Some(0x2222),
            ..VerifyContext::default()
        };
        assert!(verify_chain(&store, &k, &ctx).ok());
        let drifted = VerifyContext { registry_index_hash: Some(0x9999), ..ctx };
        let report = verify_chain(&store, &k, &drifted);
        assert!(!report.ok());
        assert!(report.failures[0].reason.contains("experiment set changed"));
    }

    #[test]
    fn empty_chain_is_ok_but_reports_zero_links() {
        let store = temp_store("empty");
        let k = init(&store);
        let report = verify_chain(&store, &k, &VerifyContext::default());
        assert!(report.ok());
        assert_eq!(report.links(), 0);
    }
}
