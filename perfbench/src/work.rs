//! The three workloads: set-up, one timed pass, and the correctness gate
//! every pass must clear.
//!
//! Every call into the program goes through the public API the `treu`
//! CLI itself uses, so a pass does what a user's command does:
//!
//! * `verify-cold` — `treu verify --conformance -j 2 --cache-dir C
//!   --trace-out T --attest-dir A` into fresh directories;
//! * `reverify-warm` — `treu verify --conformance --cache-dir C` followed
//!   by `treu attest verify --attest-dir A --cache-dir C --trace-out T`
//!   against state filled and sealed during set-up;
//! * `verify-sharded-chaos` — `treu chaos --workers 2 -j 1 --kill-plan
//!   41` (transient plan seed 7, rate 0.2) through worker processes of
//!   this binary.

use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};

use treu::core::attest::{hash_bytes, verify_chain, ChainReport, VerifyContext};
use treu::core::cache::run_entry_file;
use treu::core::environment::Environment;
use treu::core::exec::{Executor, SupervisePolicy, VerifyReport};
use treu::core::experiment::{Params, RunRecord};
use treu::core::fault::{FaultPlan, KillPlan};
use treu::core::hash::fnv64_parts;
use treu::core::svc::{verify_all_svc, worker_loop, SvcConfig, SvcStats};
use treu::core::{AttestKey, AttestStore, ExperimentRegistry, Layout, Link, LinkDraft, RunCache};

use crate::layers::Recorder;

/// Run seed at which the committed content addresses below apply.
pub const COMMITTED_SEED: u64 = 2023;
/// Per-id fingerprint digest of a fault-free registry verify at
/// conformance parameters, seed 2023 (`BENCH_svc.json`,
/// `baseline.fingerprint_digest`).
pub const COMMITTED_DIGEST: u64 = 0x6f6b_e159_d409_9f12;
/// Trace address of the cache-backed cold registry verify at
/// conformance parameters, seed 2023.
pub const COMMITTED_COLD_TRACE: u64 = 0x62d8_6552_ba89_8430;
/// Trace address of a `verify-sharded-chaos` pass at seed 2023. Its
/// events carry the transient plan's injected faults; worker kills leave
/// no events, so they are gated on the pool's own count below.
pub const COMMITTED_CHAOS_TRACE: u64 = 0x1ade_7d9d_92b6_150a;
/// Workers the kill plan SIGKILLs in a `verify-sharded-chaos` pass at
/// seed 2023.
pub const COMMITTED_CHAOS_KILLS: u32 = 3;
/// Transient faults the fault plan injects in a `verify-sharded-chaos`
/// pass at seed 2023.
pub const COMMITTED_CHAOS_FAULTS: u64 = 36;

/// Threads of the in-process verifier, sized to a 2-vCPU machine.
pub const JOBS: usize = 2;
/// Worker processes of the sharded verifier (one job each).
pub const WORKERS: usize = 2;
/// The CI service chaos drill's kill plan.
pub const KILL_PLAN_SEED: u64 = 41;
/// The CI chaos drill's transient fault plan.
pub const FAULT_SEED: u64 = 7;
/// Injection rate of the transient fault plan.
pub const FAULT_RATE: f64 = 0.2;
/// Seed of the CLI's default attestation key.
pub const ATTEST_KEY_SEED: u64 = 2023;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Registry verify into a fresh cache, trace and attestation chain.
    VerifyCold,
    /// Re-verify against a warm cache plus an attestation walk.
    ReverifyWarm,
    /// Registry verify through worker processes under kills and faults.
    VerifyShardedChaos,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "verify-cold" => Some(Kind::VerifyCold),
            "reverify-warm" => Some(Kind::ReverifyWarm),
            "verify-sharded-chaos" => Some(Kind::VerifyShardedChaos),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::VerifyCold => "verify-cold",
            Kind::ReverifyWarm => "reverify-warm",
            Kind::VerifyShardedChaos => "verify-sharded-chaos",
        }
    }
}

/// Deliberate damage a self-test applies after set-up to prove a gate
/// bites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drill {
    /// `reverify-warm`: append `metric forged = 42` to the first cached
    /// entry (the CI attestation drill's forgery).
    ForgeEntry,
    /// `reverify-warm`: read the cache under another environment
    /// fingerprint.
    ForeignFingerprint,
    /// `verify-sharded-chaos`: run the passes with a kill plan that
    /// kills no worker.
    NoKills,
}

impl Drill {
    /// Parses a drill name.
    pub fn parse(name: &str) -> Option<Drill> {
        match name {
            "forge-entry" => Some(Drill::ForgeEntry),
            "foreign-fingerprint" => Some(Drill::ForeignFingerprint),
            "no-kills" => Some(Drill::NoKills),
            _ => None,
        }
    }

    /// The workload the drill damages.
    pub fn kind(self) -> Kind {
        match self {
            Drill::ForgeEntry | Drill::ForeignFingerprint => Kind::ReverifyWarm,
            Drill::NoKills => Kind::VerifyShardedChaos,
        }
    }
}

/// The parameters every workload verifies at, as `treu verify
/// --conformance` passes them.
pub fn params(id: &str, _defaults: Params) -> Params {
    treu::conformance_params(id)
}

/// FNV digest over every id's outcome (id, fingerprint, failure
/// taxonomy) — the fold `treu soak --workers` commits as
/// `fingerprint_digest`.
pub fn digest(report: &VerifyReport) -> u64 {
    let mut parts: Vec<Vec<u8>> = Vec::new();
    for o in &report.outcomes {
        parts.push(o.id.as_bytes().to_vec());
        parts.push(o.fingerprint.to_le_bytes().to_vec());
        parts.push(match &o.failure {
            Some(f) => f.taxonomy.name().as_bytes().to_vec(),
            None => b"ok".to_vec(),
        });
    }
    let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
    fnv64_parts(&refs)
}

/// What a verify pass must land on. `None` fields are learned from the
/// first gated report (set-up) and fixed from then on.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Per-id fingerprint digest.
    pub digest: Option<u64>,
    /// Batch trace address.
    pub trace: Option<u64>,
}

impl Reference {
    /// The committed addresses at seed 2023, nothing at any other seed.
    fn committed(seed: u64, trace: Option<u64>) -> Reference {
        if seed == COMMITTED_SEED {
            Reference { digest: Some(COMMITTED_DIGEST), trace }
        } else {
            Reference { digest: None, trace: None }
        }
    }
}

/// Gates one verify report: every id reproduced (`cached` of them from
/// the cache, the rest recomputed), the digest and trace address on the
/// reference. Learns any reference field still unknown.
fn gate_verify(
    report: &VerifyReport,
    ids: usize,
    cached: usize,
    reference: &mut Reference,
) -> Result<(), String> {
    if report.outcomes.len() != ids {
        return Err(format!("{} outcome(s) for {ids} ids", report.outcomes.len()));
    }
    if let Some(o) = report.outcomes.iter().find(|o| !o.reproduced || o.failure.is_some()) {
        return Err(format!("{} not reproduced: {:?}", o.id, o.failure));
    }
    if report.cached_count() != cached || report.recomputed != ids - cached {
        return Err(format!(
            "{}/{ids} cached and {} recomputed, want {cached} cached",
            report.cached_count(),
            report.recomputed
        ));
    }
    let got = digest(report);
    match reference.digest {
        Some(want) if want != got => {
            return Err(format!("fingerprint digest {got:#018x} != reference {want:#018x}"))
        }
        Some(_) => {}
        None => reference.digest = Some(got),
    }
    let trace = report.trace.content_hash();
    match reference.trace {
        Some(want) if want != trace => {
            return Err(format!("trace address {trace:#018x} != reference {want:#018x}"))
        }
        Some(_) => {}
        None => reference.trace = Some(trace),
    }
    Ok(())
}

/// Seals a verify step onto the chain in `attest_dir`, as `treu verify
/// --attest-dir` does: default key and layout on first use, then a link
/// naming the registry, environment, every reproduced run, its cache
/// entry and the trace stream.
pub fn seal(
    reg: &ExperimentRegistry,
    seed: u64,
    cache: &RunCache,
    report: &VerifyReport,
    attest_dir: &Path,
) -> io::Result<()> {
    let store = AttestStore::open(attest_dir);
    let key = AttestKey::derive(ATTEST_KEY_SEED);
    store.write_key(&key)?;
    store.write_layout(&Layout::default_pipeline(&key))?;
    let mut draft = LinkDraft::new("verify", seed);
    draft.absorb_verify(report);
    draft.material("registry:index", hash_bytes(reg.render_index().as_bytes()));
    draft.material("env:fingerprint", Environment::capture().fingerprint());
    let ids: Vec<String> =
        draft.products.keys().filter_map(|n| n.strip_prefix("run:")).map(str::to_string).collect();
    for id in ids {
        if let Some(entry) = reg.get(&id) {
            let file = run_entry_file(&id, seed, &params(&id, entry.defaults.clone()));
            draft.absorb_cache_entry(cache, &id, &file);
        }
    }
    draft.product(
        format!("trace:{}", report.trace.file_name()),
        hash_bytes(report.trace.render_events().as_bytes()),
    );
    store.append(&key, draft).map(|_| ())
}

/// The fresh directories one cold verify writes into.
pub struct Dirs {
    /// Parent of the three below; removed after the pass.
    pub root: PathBuf,
    /// Run cache.
    pub cache: PathBuf,
    /// Trace output.
    pub trace: PathBuf,
    /// Attestation chain.
    pub attest: PathBuf,
}

impl Dirs {
    fn under(root: PathBuf) -> Dirs {
        Dirs {
            cache: root.join("cache"),
            trace: root.join("trace"),
            attest: root.join("attest"),
            root,
        }
    }
}

/// Everything one cold verify (a `verify-cold` pass or the
/// `reverify-warm` fill) produced, for gating and the traced run.
pub struct ColdOutput {
    /// The verify report.
    pub report: VerifyReport,
    /// The cache the verify filled.
    pub cache: RunCache,
    /// Where it wrote.
    pub dirs: Dirs,
}

/// `treu verify --conformance -j 2 --cache-dir --trace-out --attest-dir`
/// into fresh directories under `root`, gated on `reference`.
fn cold_verify(
    reg: &ExperimentRegistry,
    exec: &Executor,
    seed: u64,
    root: PathBuf,
    reference: &mut Reference,
    rec: &mut Recorder,
) -> Result<ColdOutput, String> {
    let dirs = Dirs::under(root);
    let cache = rec
        .span("cache.open", |_| RunCache::open(&dirs.cache))
        .map_err(|e| format!("cache open: {e}"))?;
    let report = rec.span("exec.verify_all", |_| {
        exec.verify_all_supervised_with(
            reg,
            seed,
            Some(&cache),
            &SupervisePolicy::default(),
            None,
            params,
        )
    });
    gate_verify(&report, reg.len(), 0, reference)?;
    rec.span("trace.write", |_| report.trace.write(&dirs.trace))
        .map_err(|e| format!("trace write: {e}"))?;
    rec.span("attest.seal", |_| seal(reg, seed, &cache, &report, &dirs.attest))
        .map_err(|e| format!("attest seal: {e}"))?;
    Ok(ColdOutput { report, cache, dirs })
}

/// The state a `reverify-warm` set-up filled and sealed.
pub struct Warm {
    /// Cache, trace and attestation directories.
    pub dirs: Dirs,
    /// The trace stream the chain names.
    pub trace_file: PathBuf,
}

impl Warm {
    /// The filled state under `root`.
    fn at(root: PathBuf) -> Result<Warm, String> {
        let dirs = Dirs::under(root);
        let trace_file = std::fs::read_dir(&dirs.trace)
            .map_err(|e| format!("trace dir: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| {
                let name = p.file_name().map(|n| n.to_string_lossy().into_owned());
                name.is_some_and(|n| n.ends_with(".jsonl") && !n.ends_with(".times.jsonl"))
            })
            .ok_or("no trace stream in the filled state")?;
        Ok(Warm { dirs, trace_file })
    }
}

/// What a pass hands the traced run besides its wall time.
pub enum PassOutput {
    /// A `verify-cold` pass.
    Cold(ColdOutput),
    /// A `reverify-warm` request.
    Warm {
        /// The cached re-verify report.
        report: VerifyReport,
        /// Cache handle of the verify step (its stats count the hits).
        cache: RunCache,
        /// The chain walk's report.
        chain: ChainReport,
    },
    /// A `verify-sharded-chaos` pass.
    Chaos {
        /// The merged verify report.
        report: VerifyReport,
        /// Supervision counters of the pool.
        stats: SvcStats,
    },
}

/// One workload's state between set-up and the last pass.
pub struct Bench {
    /// Which workload.
    pub kind: Kind,
    /// Run seed.
    pub seed: u64,
    /// The experiment registry built in set-up.
    pub reg: ExperimentRegistry,
    /// In-process verifier.
    pub exec: Executor,
    /// Scratch root of this set-up.
    pub dir: PathBuf,
    /// Gate reference.
    pub reference: Reference,
    /// `reverify-warm`: the filled, sealed state.
    pub warm: Option<Warm>,
    /// `reverify-warm`: the fill's report, for the traced run's
    /// experiment metrics; passes never read it, so the caller drops it
    /// after set-up.
    pub fill: Option<VerifyReport>,
    /// `reverify-warm`: artifacts the chain names (each must be re-hashed).
    pub named_artifacts: usize,
    /// `reverify-warm`: cache fingerprint override (the foreign-fingerprint drill).
    pub cache_fingerprint: Option<u64>,
    /// `verify-sharded-chaos`: the kill plan (rate 0 under the no-kills drill).
    pub kill_plan: KillPlan,
    /// A cache set-up filled at this seed; the traced run re-times
    /// layer calls on its entries.
    pub records_dir: PathBuf,
    /// The registry's records at this seed, read from `records_dir`.
    pub records: Vec<(String, Params, RunRecord)>,
    /// Passes run so far (names each pass's directories).
    pub passes: usize,
}

impl Bench {
    /// Set-up: registry, directories, and an untimed warm-up pass — for
    /// `reverify-warm` after the cold fill and chain seal, for
    /// `verify-sharded-chaos` after a fault-free in-process reference
    /// verify. Any failed gate fails the set-up.
    pub fn setup(kind: Kind, seed: u64, dir: PathBuf) -> Result<Bench, String> {
        std::fs::create_dir_all(&dir).map_err(|e| format!("work dir: {e}"))?;
        let reference = Reference::committed(seed, Some(COMMITTED_COLD_TRACE));
        let mut bench = Bench::fresh(kind, seed, dir, reference);
        match kind {
            Kind::VerifyCold => {
                let warm_up =
                    bench.pass(&mut Recorder::off()).map_err(|e| format!("warm-up pass: {e}"))?;
                if let PassOutput::Cold(out) = warm_up {
                    bench.records_dir = out.dirs.cache;
                }
            }
            Kind::ReverifyWarm => {
                let fill = cold_verify(
                    &bench.reg,
                    &bench.exec,
                    seed,
                    bench.dir.join("warm"),
                    &mut bench.reference,
                    &mut Recorder::off(),
                )
                .map_err(|e| format!("cold fill: {e}"))?;
                bench.named_artifacts = named_artifacts(&fill.dirs.attest)?;
                bench.records_dir = fill.dirs.cache.clone();
                bench.warm = Some(Warm::at(fill.dirs.root)?);
                bench.fill = Some(fill.report);
                bench.pass(&mut Recorder::off()).map_err(|e| format!("warm-up request: {e}"))?;
            }
            Kind::VerifyShardedChaos => {
                // A fault-free in-process verify fixes the digest every
                // chaos pass must land on. The chaos trace address (its
                // events include the injected faults) is committed at
                // seed 2023; at other seeds it is learned from the
                // warm-up and must then repeat in every pass.
                let cache = RunCache::open(&bench.records_dir)
                    .map_err(|e| format!("reference cache: {e}"))?;
                let baseline = bench.exec.verify_all_supervised_with(
                    &bench.reg,
                    seed,
                    Some(&cache),
                    &SupervisePolicy::default(),
                    None,
                    params,
                );
                gate_verify(&baseline, bench.reg.len(), 0, &mut bench.reference)
                    .map_err(|e| format!("fault-free reference: {e}"))?;
                bench.reference.trace = (seed == COMMITTED_SEED).then_some(COMMITTED_CHAOS_TRACE);
                bench.pass(&mut Recorder::off()).map_err(|e| format!("warm-up pass: {e}"))?;
            }
        }
        let cache = RunCache::open(&bench.records_dir).map_err(|e| format!("records: {e}"))?;
        bench.records = bench
            .reg
            .iter()
            .filter_map(|(id, e)| {
                let p = params(id, e.defaults.clone());
                cache.lookup(id, seed, &p).map(|r| (id.to_string(), p, r))
            })
            .collect();
        if bench.records.len() != bench.reg.len() {
            return Err(format!(
                "{}/{} records cached in set-up",
                bench.records.len(),
                bench.reg.len()
            ));
        }
        Ok(bench)
    }

    /// A set-up's state re-entered by another process: the registry and
    /// verifier are built afresh, the gate reference and (for
    /// `reverify-warm`) the filled state under `dir` are taken as given.
    pub fn resume(
        kind: Kind,
        seed: u64,
        dir: PathBuf,
        reference: Reference,
        named_artifacts: usize,
    ) -> Result<Bench, String> {
        let mut bench = Bench::fresh(kind, seed, dir, reference);
        if kind == Kind::ReverifyWarm {
            bench.warm = Some(Warm::at(bench.dir.join("warm"))?);
            bench.named_artifacts = named_artifacts;
        }
        Ok(bench)
    }

    /// A registry and verifier for `kind` at `seed` over `dir`, with no
    /// set-up state yet.
    fn fresh(kind: Kind, seed: u64, dir: PathBuf, reference: Reference) -> Bench {
        Bench {
            kind,
            seed,
            reg: treu::full_registry(),
            exec: Executor::new(JOBS),
            records_dir: dir.join("records"),
            dir,
            reference,
            warm: None,
            fill: None,
            named_artifacts: 0,
            cache_fingerprint: None,
            kill_plan: KillPlan::new(KILL_PLAN_SEED),
            passes: 0,
            records: Vec::new(),
        }
    }

    /// Where a traced `verify-sharded-chaos` pass's workers capture their
    /// wire traffic.
    pub fn capture_dir(&self) -> PathBuf {
        self.dir.join("capture").join(format!("pass-{}", self.passes))
    }

    /// Applies a self-test drill to the set-up state of `drill.kind()`.
    pub fn apply_drill(&mut self, drill: Drill) -> Result<(), String> {
        match drill {
            Drill::ForgeEntry => {
                let warm = self.warm.as_ref().expect("reverify-warm set-up fills the cache");
                let mut entries: Vec<PathBuf> = std::fs::read_dir(&warm.dirs.cache)
                    .map_err(|e| e.to_string())?
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.extension().is_some_and(|x| x == "run"))
                    .collect();
                entries.sort();
                let victim = entries.first().ok_or("no cached entry to forge")?;
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(victim)
                    .map_err(|e| e.to_string())?;
                f.write_all(b"metric forged = 42\n").map_err(|e| e.to_string())?;
            }
            Drill::ForeignFingerprint => {
                self.cache_fingerprint = Some(Environment::capture().fingerprint() ^ 0x5eed);
            }
            Drill::NoKills => self.kill_plan = KillPlan::with_rate(KILL_PLAN_SEED, 0.0),
        }
        Ok(())
    }

    /// One timed pass, gated. The caller times it; `rec` records the
    /// layer spans when the run is traced.
    pub fn pass(&mut self, rec: &mut Recorder) -> Result<PassOutput, String> {
        self.passes += 1;
        match self.kind {
            Kind::VerifyCold => {
                let root = self.dir.join(format!("pass-{}", self.passes));
                cold_verify(&self.reg, &self.exec, self.seed, root, &mut self.reference, rec)
                    .map(PassOutput::Cold)
            }
            Kind::ReverifyWarm => self.warm_request(rec),
            Kind::VerifyShardedChaos => self.chaos_pass(rec),
        }
    }

    /// One `reverify-warm` request: `treu verify --conformance
    /// --cache-dir C`, then `treu attest verify --attest-dir A --cache-dir
    /// C --trace-out T`. Each step starts as a fresh process would —
    /// registry, cache handle (and with it the environment fingerprint),
    /// key and chain from disk — and each is gated: 21/21 served from the
    /// cache on the reference digest, then a clean walk that re-hashes
    /// every named artifact.
    fn warm_request(&self, rec: &mut Recorder) -> Result<PassOutput, String> {
        let warm = self.warm.as_ref().expect("reverify-warm set-up fills the cache");
        let open = |dir: &Path| match self.cache_fingerprint {
            Some(fp) => RunCache::open_with_fingerprint(dir, fp),
            None => RunCache::open(dir),
        };
        let reg = rec.span("startup.registry", |_| treu::full_registry());
        let cache = rec
            .span("cache.open", |_| open(&warm.dirs.cache))
            .map_err(|e| format!("cache open: {e}"))?;
        let report = rec.span("exec.verify_all", |_| {
            self.exec.verify_all_supervised_with(
                &reg,
                self.seed,
                Some(&cache),
                &SupervisePolicy::default(),
                None,
                params,
            )
        });
        let ids = reg.len();
        drop(reg);
        let mut reference = Reference { digest: self.reference.digest, trace: None };
        gate_verify(&report, ids, ids, &mut reference)?;
        let reg = rec.span("startup.registry", |_| treu::full_registry());
        let chain_cache = rec
            .span("cache.open", |_| open(&warm.dirs.cache))
            .map_err(|e| format!("cache open: {e}"))?;
        let store = AttestStore::open(&warm.dirs.attest);
        let key = rec
            .span("attest.key_load", |_| AttestKey::load(&store.key_path()))
            .map_err(|e| format!("attest key: {e}"))?;
        let env = rec.span("startup.env_capture", |_| Environment::capture().fingerprint());
        let chain = rec.span("attest.verify_chain", |_| {
            let ctx = VerifyContext {
                cache_dir: Some(chain_cache.dir()),
                trace_dir: Some(&warm.dirs.trace),
                registry_index_hash: Some(hash_bytes(reg.render_index().as_bytes())),
                env_fingerprint: Some(env),
            };
            verify_chain(&store, &key, &ctx)
        });
        if let Some(f) = chain.failures.first() {
            return Err(format!("attestation chain broken: {} — {}", f.artifact, f.reason));
        }
        if !chain.skipped.is_empty() || chain.rehashed != self.named_artifacts {
            return Err(format!(
                "chain walk re-hashed {}/{} named artifacts (skipped: {:?})",
                chain.rehashed, self.named_artifacts, chain.skipped
            ));
        }
        Ok(PassOutput::Warm { report, cache, chain })
    }

    /// `treu chaos --workers 2 -j 1 --kill-plan 41 --fault-seed 7
    /// --rate 0.2`, gated on the fault-free digest, on one trace address
    /// for every pass, and on the chaos having happened.
    fn chaos_pass(&mut self, rec: &mut Recorder) -> Result<PassOutput, String> {
        let plan = FaultPlan::transient(FAULT_SEED, FAULT_RATE);
        let policy = SupervisePolicy::new(plan.max_transient_attempts());
        let mut cfg =
            SvcConfig::new(WORKERS).with_jobs(1).with_tracing(true).with_kill_plan(self.kill_plan);
        if rec.is_on() {
            cfg = cfg.with_worker_cmd(worker_cmd(Some(&self.capture_dir()))?);
        }
        let (report, stats) = rec
            .span("svc.verify_all", |_| {
                verify_all_svc(&self.reg, self.seed, None, &policy, Some(&plan), params, cfg)
            })
            .map_err(|e| format!("svc: {e}"))?;
        gate_verify(&report, self.reg.len(), 0, &mut self.reference)?;
        gate_chaos(self.seed, &report, &stats)?;
        Ok(PassOutput::Chaos { report, stats })
    }
}

/// Gates that a chaos pass met its chaos: at seed 2023 exactly the
/// committed kills and injected faults, at any other seed at least one
/// of each, and never a pool degraded to in-process execution.
fn gate_chaos(seed: u64, report: &VerifyReport, stats: &SvcStats) -> Result<(), String> {
    let faults = report.trace.counters().faults_injected;
    let met = match seed {
        COMMITTED_SEED => stats.kills == COMMITTED_CHAOS_KILLS && faults == COMMITTED_CHAOS_FAULTS,
        _ => stats.kills > 0 && faults > 0,
    };
    if met && !stats.degraded {
        Ok(())
    } else {
        Err(format!(
            "chaos not met: {} kill(s), {faults} injected fault(s), degraded {} \
             (seed 2023 wants {COMMITTED_CHAOS_KILLS} and {COMMITTED_CHAOS_FAULTS})",
            stats.kills, stats.degraded
        ))
    }
}

/// Artifacts the sealed chain names that a full walk must re-hash: every
/// cache entry and trace stream the links produce plus the two root
/// materials.
fn named_artifacts(attest_dir: &Path) -> Result<usize, String> {
    let files = AttestStore::open(attest_dir).link_files().map_err(|e| e.to_string())?;
    let mut n = 0;
    for (file, text) in &files {
        let link = Link::parse(text).ok_or_else(|| format!("{file} does not parse"))?;
        n += link
            .products
            .keys()
            .filter(|k| k.starts_with("cache:") || k.starts_with("trace:"))
            .count();
        n += link
            .materials
            .keys()
            .filter(|k| *k == "registry:index" || *k == "env:fingerprint")
            .count();
    }
    Ok(n)
}

/// The worker command line: this binary's `worker` mode, capturing its
/// wire bytes under `capture` when given.
pub fn worker_cmd(capture: Option<&Path>) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = vec![exe.to_string_lossy().into_owned(), "worker".to_string()];
    if let Some(dir) = capture {
        std::fs::create_dir_all(dir).map_err(|e| format!("capture dir: {e}"))?;
        let abs = std::path::absolute(dir).map_err(|e| format!("capture dir: {e}"))?;
        cmd.push("--capture".to_string());
        cmd.push(abs.to_string_lossy().into_owned());
    }
    Ok(cmd)
}

/// `perfbench worker [--capture DIR]`: a verification worker speaking
/// the service's frame protocol on stdin/stdout, as `treu worker` does.
/// With `--capture`, every byte read and written is also appended to
/// `DIR/<pid>.in` and `DIR/<pid>.out`, so the traced run can price the
/// frames this worker exchanged. Returns the exit code.
pub fn serve_worker(args: &[String]) -> i32 {
    let reg = treu::full_registry();
    let stdin = io::stdin();
    let stdout = io::stdout();
    let served = match args {
        [] => worker_loop(&reg, stdin.lock(), stdout.lock()),
        [flag, dir] if flag == "--capture" => {
            let dir = Path::new(dir);
            let pid = std::process::id();
            let tee = |ext: &str| std::fs::File::create(dir.join(format!("{pid}.{ext}")));
            match (tee("in"), tee("out")) {
                (Ok(fin), Ok(fout)) => worker_loop(
                    &reg,
                    io::BufReader::new(TeeRead { inner: stdin.lock(), copy: fin }),
                    TeeWrite { inner: stdout.lock(), copy: fout },
                ),
                (Err(e), _) | (_, Err(e)) => Err(e),
            }
        }
        _ => Err(io::Error::new(io::ErrorKind::InvalidInput, "usage: worker [--capture DIR]")),
    };
    match served {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("worker: {e}");
            1
        }
    }
}

/// A reader that copies every byte it yields into `copy`.
struct TeeRead<R: BufRead> {
    inner: R,
    copy: std::fs::File,
}

impl<R: BufRead> Read for TeeRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.copy.write_all(&buf[..n])?;
        Ok(n)
    }
}

/// A writer that copies every byte it accepts into `copy`.
struct TeeWrite<W: Write> {
    inner: W,
    copy: std::fs::File,
}

impl<W: Write> Write for TeeWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.copy.write_all(&buf[..n])?;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}
