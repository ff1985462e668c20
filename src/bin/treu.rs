//! `treu` — command-line front end to the experiment registry.
//!
//! ```text
//! treu list                  # print the experiment index
//! treu run [id] [seed]       # run one experiment (or all of them)
//! treu tables [seed]         # regenerate the paper's three tables
//! treu verify [id] [seed]    # run twice, check bitwise reproduction
//! treu chaos [seed]          # verify under injected transient faults
//! treu trace <dir|file>      # render or --check stored run traces
//! treu env                   # print the captured environment
//! treu attest <init|show|verify|badge>   # attestation chain ops
//! treu lint [path]           # static reproducibility analysis
//! treu soak [seed]           # sustained multi-tenant chaos soak
//! treu tune [seed]           # autotune matmul schedules into the book
//! treu worker                # verification worker (spawned, not typed)
//! ```
//!
//! Every run/tables/verify invocation accepts `--jobs N` (or `-j N`):
//! work fans out over N workers through [`treu::core::exec::Executor`],
//! and the output is bitwise-identical for every N — parallelism changes
//! wall-clock time, never results. The default is one worker per
//! hardware thread.
//!
//! The same commands accept `--cache-dir DIR`: completed runs are stored
//! content-addressed under DIR and replayed on later invocations when the
//! id, seed, parameters and code+environment fingerprint all match.
//!
//! `run`, `verify` and `chaos` each build one batch request — over the
//! whole registry, or over one id when one is named — for the pipeline in
//! [`treu::core::batch`], and share one tail: print, write the trace,
//! seal the attestation link, apply the `--deny` gate. `--conformance`
//! runs every id at its light conformance parameters, for `run` as for
//! `verify`.
//!
//! `run`, `verify` and `chaos` also accept `--trace-out DIR`: the batch's
//! span stream (claims, attempts, faults, backoffs, cache traffic,
//! outcomes, verdicts) is written content-addressed under DIR as
//! `trace-<hash>.jsonl`, with timestamps in a `.times.jsonl` sidecar that
//! is not part of the hash — the event stream is bitwise-identical for
//! every `--jobs` count and `--workers` topology. `treu trace DIR`
//! renders stored traces and `treu trace DIR --check` re-verifies them
//! against their addresses.
//!
//! `run`, `verify` and `chaos` accept `--workers N`: the batch is
//! sharded across N supervised `treu worker` subprocesses speaking a
//! length-prefixed frame protocol over stdin/stdout. `--kill-plan SEED`
//! arms a seeded chaos monkey that SIGKILLs workers mid-shard
//! (`--kill-rate F` tunes it), and `--respawn-budget N` bounds respawns
//! per worker slot before the coordinator degrades gracefully to
//! in-process execution. Results, fingerprints and trace addresses are
//! bitwise-identical at every topology and kill schedule. The coordinator
//! does all cache traffic itself, so workers never open `--cache-dir`
//! and a fully cached batch spawns none. Every other command rejects
//! these four flags as unknown, as it does any flag it does not take.
//!
//! Registry-wide `run` and `verify` also accept `--attest-dir DIR` (and
//! `--attest-key FILE`): after the batch completes, the coordinator
//! seals an in-toto-style **link** into DIR naming everything the step
//! consumed and produced as content addresses, chained by a keyed MAC to
//! the previous link and rooted in the layout document. `treu attest
//! init` provisions the directory, `treu attest show` prints the chain,
//! `treu attest verify` walks it and pinpoints the first step whose
//! products were tampered, and `treu attest badge` turns a verified
//! chain into an ACM-style badge evaluation. Links are emitted
//! coordinator-side only, so their bytes are identical at every
//! `(workers, jobs)` topology.
//!
//! Every batch is supervised: `--retries N` retries failed attempts
//! under the deterministic backoff, `--deadline-secs F` arms a per-run
//! watchdog, `--fault-seed S --fault-rate F` inject a seeded fault plan
//! (a faulted `run` never touches the cache), `--fault-panic ID` makes
//! one id fail permanently, and `--deny none|warn|error` decides what
//! findings flip the exit code. Runs that exhaust their budget are
//! quarantined with a taxonomy, never fatal to the batch.

use std::path::{Path, PathBuf};
use std::str::FromStr;

use treu::core::artifact::Artifact;
use treu::core::attest::{
    hash_bytes, verify_chain, AttestKey, AttestStore, Layout, Link, LinkDraft, VerifyContext,
};
use treu::core::badge::{evaluate, Badge, ClaimCheck};
use treu::core::batch::{Batch, BatchOutcome, BatchReport, Dispatch, Mode};
use treu::core::cache::{run_entry_file, CacheBound, RunCache};
use treu::core::environment::Environment;
use treu::core::exec::{DenyPolicy, Executor, RunOutcome, SupervisePolicy};
use treu::core::experiment::Params;
use treu::core::fault::{FaultPlan, KillPlan};
use treu::core::svc::{worker_loop, SvcConfig};
use treu::core::trace::{
    check_trace_file, parse_times, parse_trace, render_slowest, render_timeline,
    render_worker_table, BatchTrace,
};
use treu::core::ExperimentRegistry;
use treu::lint::{DenyLevel, Lint, RuleId, Workspace};
use treu::surveys::{analysis, Cohort};

/// Prints `msg` and exits 2 — the usage-error exit every flag shares.
fn usage_err(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The one flag reader: removes every `FLAG V` and `FLAG=V` from `args`
/// and returns the values in order. A trailing `FLAG` with no value is a
/// usage error.
fn take_all(args: &mut Vec<String>, flag: &str) -> Vec<String> {
    let mut values = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = args[i].strip_prefix(flag).and_then(|rest| rest.strip_prefix('=')) {
            values.push(v.to_string());
            args.remove(i);
        } else if args[i] == flag {
            if i + 1 >= args.len() {
                usage_err(format!("{flag} requires a value"));
            }
            args.remove(i);
            values.push(args.remove(i));
        } else {
            i += 1;
        }
    }
    values
}

/// The last value of `flag` (see [`take_all`]).
fn take(args: &mut Vec<String>, flag: &str) -> Option<String> {
    take_all(args, flag).pop()
}

/// [`take`], parsed as `T` and accepted by `ok`; anything else is the
/// usage error `invalid FLAG value 'V' (WANT)`.
fn take_parsed<T: FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    want: &str,
    ok: impl Fn(&T) -> bool,
) -> Option<T> {
    let v = take(args, flag)?;
    let parsed = v.parse().ok().filter(|x| ok(x));
    Some(parsed.unwrap_or_else(|| usage_err(format!("invalid {flag} value '{v}' ({want})"))))
}

/// Removes the boolean `flag` from `args`; true when it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() < before
}

/// The positional arguments left once a subcommand's flags are taken: a
/// leftover flag is unknown to `what`, and an argument past the first
/// `max` is unexpected.
fn positionals<'a>(args: &'a [String], what: &str, max: usize) -> &'a [String] {
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        usage_err(format!("unknown {what} flag '{flag}'"));
    }
    if let Some(extra) = args.get(max) {
        usage_err(format!("unexpected argument '{extra}'"));
    }
    args
}

/// The lone positional argument (see [`positionals`]).
fn positional(args: &[String], what: &str) -> Option<String> {
    positionals(args, what, 1).first().cloned()
}

/// A positional seed: anything but an unsigned integer is unexpected.
fn parse_seed(arg: &str) -> u64 {
    arg.parse().unwrap_or_else(|_| usage_err(format!("unexpected argument '{arg}'")))
}

/// [`positional`] as a seed.
fn seed_positional(args: &[String], what: &str) -> Option<u64> {
    positionals(args, what, 1).first().map(|s| parse_seed(s))
}

/// Supervision settings pulled from the shared command-line flags.
#[derive(Default)]
struct Supervision {
    retries: Option<u32>,
    deadline_secs: Option<f64>,
    fault_seed: Option<u64>,
    fault_rate: Option<f64>,
    fault_panic: Vec<String>,
    deny: Option<DenyPolicy>,
    enforce: bool,
    full: bool,
    conformance: bool,
}

impl Supervision {
    /// Removes `--retries N`, `--deadline-secs F`, `--fault-seed S`,
    /// `--fault-rate F` (alias `--rate F`), `--fault-panic ID`
    /// (repeatable), `--deny none|warn|error`, and the switches
    /// `--enforce`, `--full` and `--conformance` from `args`.
    fn take(args: &mut Vec<String>) -> Self {
        let rate = |r: &f64| (0.0..=1.0).contains(r);
        let fault_rate = take_parsed(args, "--fault-rate", "want 0.0..=1.0", rate);
        Supervision {
            retries: take_parsed(args, "--retries", "want an integer", |_| true),
            deadline_secs: take_parsed(args, "--deadline-secs", "want seconds", |_| true),
            fault_seed: take_parsed(args, "--fault-seed", "want an integer", |_| true),
            fault_rate: fault_rate.or(take_parsed(args, "--rate", "want 0.0..=1.0", rate)),
            fault_panic: take_all(args, "--fault-panic"),
            deny: take(args, "--deny").map(|v| {
                DenyPolicy::parse(&v).unwrap_or_else(|| {
                    usage_err(format!("invalid --deny '{v}' (want none|warn|error)"))
                })
            }),
            enforce: take_switch(args, "--enforce"),
            full: take_switch(args, "--full"),
            conformance: take_switch(args, "--conformance"),
        }
    }

    /// The retry/deadline budget the flags ask for.
    fn policy(&self) -> SupervisePolicy {
        let p = SupervisePolicy::new(self.retries.unwrap_or(0));
        match self.deadline_secs {
            Some(s) => p.with_deadline_secs(s),
            None => p,
        }
    }

    /// The full-menu fault plan, when any fault flag is present.
    fn plan(&self) -> Option<FaultPlan> {
        if self.fault_seed.is_none() && self.fault_rate.is_none() && self.fault_panic.is_empty() {
            return None;
        }
        let mut plan = FaultPlan::new(self.fault_seed.unwrap_or(0), self.fault_rate.unwrap_or(0.0));
        for id in &self.fault_panic {
            plan = plan.and_panic_on(id);
        }
        Some(plan)
    }

    /// Exit-code policy; errors gate by default, as `verify` always did.
    fn deny(&self) -> DenyPolicy {
        self.deny.unwrap_or(DenyPolicy::Error)
    }
}

/// The flags every subcommand shares, removed from the argument list.
struct Opts {
    jobs: usize,
    cache: Option<RunCache>,
    trace_out: Option<PathBuf>,
    svc: Option<SvcOpts>,
    attest: Option<AttestOpts>,
    sup: Supervision,
}

impl Opts {
    /// Takes the shared flags `cmd` accepts out of `args`. `lint` owns its
    /// own `--deny`, so it takes no supervision flags, and only `run`,
    /// `verify` and `chaos` dispatch a batch, so only they take the
    /// service flags. A flag left in place is named by `cmd`'s positional
    /// reader.
    fn take(args: &mut Vec<String>, cmd: &str) -> Self {
        let jobs = take(args, "--jobs").or(take(args, "-j")).map_or_else(
            treu::math::parallel::default_threads,
            |v| {
                v.parse().ok().filter(|&j| j >= 1).unwrap_or_else(|| {
                    usage_err(format!("invalid --jobs value '{v}' (want a positive integer)"))
                })
            },
        );
        let cache = take(args, "--cache-dir").map(|d| {
            RunCache::open(Path::new(&d))
                .unwrap_or_else(|e| usage_err(format!("cannot open cache dir '{d}': {e}")))
        });
        let trace_out = take(args, "--trace-out").map(PathBuf::from);
        let svc =
            if matches!(cmd, "run" | "verify" | "chaos") { SvcOpts::take(args) } else { None };
        let attest = AttestOpts::take(args);
        let sup = if cmd != "lint" { Supervision::take(args) } else { Supervision::default() };
        Opts { jobs, cache, trace_out, svc, attest, sup }
    }

    /// In-process on this executor, or sharded when `--workers` is given.
    fn dispatch<'a>(&self, exec: &'a Executor) -> Dispatch<'a> {
        match &self.svc {
            Some(s) => Dispatch::Sharded(s.config(self.jobs, true)),
            None => Dispatch::InProcess(exec),
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("worker") {
        // A verification worker: speak the length-prefixed frame protocol
        // over stdin/stdout until the coordinator closes stdin. Injected
        // faults panic by design and the in-worker supervisor catches
        // them, so the default per-panic stderr trace is noise.
        std::panic::set_hook(Box::new(|_| {}));
        let reg = treu::full_registry();
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        if let Err(e) = worker_loop(&reg, stdin.lock(), stdout.lock()) {
            eprintln!("worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let cmd = args.first().cloned().unwrap_or_default();
    let o = Opts::take(&mut args, &cmd);
    if o.sup.plan().is_some() || cmd == "chaos" || cmd == "soak" {
        // Injected faults panic by design; the supervisor catches and
        // reports them, so the default per-panic stderr trace is noise.
        std::panic::set_hook(Box::new(|_| {}));
    }
    let exec = Executor::new(o.jobs);
    let reg = treu::full_registry();
    match cmd.as_str() {
        "list" => {
            positionals(&args[1..], "list", 0);
            print!("{}", reg.render_index());
        }
        "run" => run_batch_cmd(&reg, &exec, &args[1..], &o, Mode::Run),
        "verify" => run_batch_cmd(&reg, &exec, &args[1..], &o, Mode::Verify),
        "tables" => {
            let seed = seed_positional(&args[1..], "tables").unwrap_or(2023);
            let cache = o.cache.as_ref();
            let tag = seed.to_string();
            let out = match cache.and_then(|c| c.lookup_blob("tables", &tag)) {
                Some(blob) => blob,
                None => {
                    let cohort = Cohort::simulate(seed);
                    // The three analyses are independent; fan them out, print
                    // in canonical order regardless of which finished first.
                    let rendered = exec.map_indexed(3, |i| match i {
                        0 => analysis::render_table1(&analysis::table1(&cohort)),
                        1 => analysis::render_table2(&analysis::table2(&cohort)),
                        _ => analysis::render_table3(&analysis::table3(&cohort)),
                    });
                    let mut out = String::new();
                    for table in rendered {
                        out.push_str(&table);
                        out.push('\n');
                    }
                    if let Some(c) = cache {
                        if let Err(e) = c.store_blob("tables", &tag, &out) {
                            eprintln!("cache: store failed: {e}");
                        }
                    }
                    out
                }
            };
            print!("{out}");
            if let Some(c) = cache {
                print!("{}", c.render_stats());
            }
        }
        "env" => {
            positionals(&args[1..], "env", 0);
            print!("{}", Environment::capture().render());
        }
        "attest" => run_attest_cmd(&args[1..], &reg, &o),
        "chaos" => run_chaos(&reg, &exec, &args[1..], &o),
        "soak" => run_soak_cmd(&reg, &args[1..], &o),
        "trace" => run_trace(&args[1..]),
        "lint" => run_lint(&args[1..], o.jobs),
        "tune" => run_tune_cmd(&args[1..], &o),
        _ => usage_err(
            "usage: treu <list|run|tables|verify|chaos|trace|env|attest|lint|soak|tune|worker> \
             [...] [--jobs N] [--cache-dir DIR] [--trace-out DIR] \
             [--attest-dir DIR] [--attest-key FILE] [--conformance] \
             [--retries N] [--deadline-secs F] [--fault-seed S] \
             [--fault-rate F] [--fault-panic ID] [--deny none|warn|error]; \
             run, verify and chaos also take [--workers N] [--kill-plan SEED] \
             [--kill-rate F] [--respawn-budget N]",
        ),
    }
}

/// `treu run|verify [id] [seed]` — one batch request over the whole
/// registry, or over `id` when one is named, then the shared tail. A
/// single id prints its own line format (with the trail, for `run`); the
/// registry prints one line per id plus the batch report.
fn run_batch_cmd(reg: &ExperimentRegistry, exec: &Executor, args: &[String], o: &Opts, mode: Mode) {
    let args = positionals(args, step(mode), 2);
    let single = args.first().cloned();
    if let Some(id) = single.as_deref().filter(|id| reg.get(id).is_none()) {
        eprintln!("unknown experiment id '{id}'; try `treu list`");
        std::process::exit(1);
    }
    let params =
        |id: &str, d: Params| if o.sup.conformance { treu::conformance_params(id) } else { d };
    let plan = o.sup.plan();
    let batch = Batch {
        mode,
        seed: args.get(1).map_or(2023, |s| parse_seed(s)),
        ids: single.clone().map(|id| vec![id]),
        params: &params,
        cache: o.cache.as_ref(),
        policy: o.sup.policy(),
        plan: plan.as_ref(),
    };
    let out = execute(&batch, reg, o.dispatch(exec));
    match &out.report {
        BatchReport::Run { outcomes, report } => {
            for (id, outcome) in outcomes {
                print_run(id, outcome, single.is_some(), report.cached_runs > 0);
            }
            if single.is_none() {
                println!();
                print!("{}", report.render());
            }
        }
        BatchReport::Verify(r) if single.is_some() => {
            for v in &r.outcomes {
                println!("{}: {}", v.id, v.status());
            }
        }
        BatchReport::Verify(r) => print!("{}", r.render()),
    }
    if o.attest.is_some() && single.is_some() {
        eprintln!(
            "attest: links attest whole-registry batches; --attest-dir is ignored for a \
             single-id {}",
            step(mode)
        );
    }
    let attest = o.attest.as_ref().filter(|_| single.is_none());
    if finish(&batch, &out, reg, o, attest, o.sup.deny()) {
        std::process::exit(1);
    }
}

/// The attestation step (and trace kind) of a batch mode.
fn step(mode: Mode) -> &'static str {
    match mode {
        Mode::Run => "run",
        Mode::Verify => "verify",
    }
}

/// Runs `batch` through `dispatch`; a coordinator I/O failure exits 2.
fn execute(batch: &Batch, reg: &ExperimentRegistry, dispatch: Dispatch) -> BatchOutcome {
    batch.execute(reg, dispatch).unwrap_or_else(|e| usage_err(format!("svc: {e}")))
}

/// Prints one run outcome: `ID NAME (seed, fingerprint)` for a registry
/// batch, or — for a single id — its provenance line and trail.
fn print_run(id: &str, outcome: &RunOutcome, single: bool, cached: bool) {
    let label = if single { format!("{id}:") } else { format!("{id:<10}") };
    match outcome {
        RunOutcome::Failed(f) => println!(
            "{label} QUARANTINED({}) after {} attempt(s): {}",
            f.taxonomy.name(),
            f.attempts,
            f.last_error
        ),
        RunOutcome::Ok { record: r, attempts } => {
            let after =
                if *attempts > 1 { format!(" [after {attempts} attempts]") } else { String::new() };
            if single {
                println!(
                    "{} (seed {}, {:.3}s, fingerprint {:#018x}){}{after}",
                    r.name,
                    r.seed,
                    r.wall_seconds,
                    r.fingerprint(),
                    if cached { " [cached]" } else { "" }
                );
                print!("{}", r.trail.render());
            } else {
                println!(
                    "{label} {} (seed {}, fingerprint {:#018x}){after}",
                    r.name,
                    r.seed,
                    r.fingerprint()
                );
            }
        }
    }
}

/// The one batch tail, after the command printed its lines: service
/// stats, cache stats, the trace file, the attestation link when `attest`
/// is given, then the `deny` gate — true when the exit code must flip.
fn finish(
    batch: &Batch,
    out: &BatchOutcome,
    reg: &ExperimentRegistry,
    o: &Opts,
    attest: Option<&AttestOpts>,
    deny: DenyPolicy,
) -> bool {
    if let Some(stats) = &out.svc {
        println!("{}", stats.render());
    }
    if let Some(c) = batch.cache {
        print!("{}", c.render_stats());
    }
    let trace = out.report.trace();
    if let Some(dir) = &o.trace_out {
        write_trace(trace, dir);
    }
    if let Some(at) = attest {
        // Coordinator-side only: workers never touch the chain, so link
        // bytes are topology-invariant.
        let mut d = LinkDraft::new(step(batch.mode), batch.seed);
        match &out.report {
            BatchReport::Run { outcomes, .. } => d.absorb_run_outcomes(outcomes),
            BatchReport::Verify(r) => d.absorb_verify(r),
        }
        attest_emit(at, reg, d, batch.cache, batch.params, o.trace_out.as_ref().map(|_| trace));
    }
    out.report.exceeds(deny)
}

/// `treu chaos [seed] [--fault-seed S] [--rate F] [--retries N]
/// [--deadline-secs F] [--enforce] [--full]` — the supervision
/// conformance check: a fault-free `run` batch fixes every registered
/// experiment's baseline fingerprint, then the whole registry is verified
/// under a seeded *transient-only* fault plan with enough retries to
/// outlast it. Every id must converge to its fault-free fingerprint;
/// `--enforce` turns any divergence or quarantine into exit 1. Uses the
/// fast conformance parameters unless `--full` asks for registry
/// defaults.
///
/// With `--workers N` the chaos pass runs through the sharded
/// coordinator/worker service instead of in-process threads, and
/// `--kill-plan SEED` additionally arms the process-level chaos monkey
/// that SIGKILLs workers mid-shard — the drill then proves that
/// supervision, requeue and degradation still converge every id to its
/// fault-free fingerprint.
fn run_chaos(reg: &ExperimentRegistry, exec: &Executor, args: &[String], o: &Opts) {
    let sup = &o.sup;
    let seed = seed_positional(args, "chaos").unwrap_or(2023);
    let plan = FaultPlan::transient(sup.fault_seed.unwrap_or(7), sup.fault_rate.unwrap_or(0.2));
    let retries = sup.retries.unwrap_or_else(|| plan.max_transient_attempts());
    let mut policy = SupervisePolicy::new(retries);
    if let Some(s) = sup.deadline_secs {
        policy = policy.with_deadline_secs(s);
    }
    let params = |id: &str, d: Params| if sup.full { d } else { treu::conformance_params(id) };
    let clean = Batch { params: &params, ..Batch::new(Mode::Run, seed) };
    let (baseline, _) = execute(&clean, reg, Dispatch::InProcess(exec)).report.into_run();
    let batch = Batch { mode: Mode::Verify, policy, plan: Some(&plan), ..clean };
    let mut out = execute(&batch, reg, o.dispatch(exec));
    let BatchReport::Verify(report) = &mut out.report else { unreachable!("a verify batch") };
    report.trace.kind = "chaos".to_string();
    let mut diverged = 0usize;
    let mut quarantined = 0usize;
    for (v, (_, base)) in report.outcomes.iter().zip(&baseline) {
        let base = base.record().map_or(0, |r| r.fingerprint());
        if let Some(f) = &v.failure {
            quarantined += 1;
            println!(
                "{:<10} QUARANTINED({}) after {} attempt(s): {}",
                v.id,
                f.taxonomy.name(),
                f.attempts,
                f.last_error
            );
        } else if v.fingerprint != base {
            diverged += 1;
            println!(
                "{:<10} DIVERGED: chaos fingerprint {:#018x} != fault-free {:#018x}",
                v.id, v.fingerprint, base
            );
        } else {
            println!(
                "{:<10} CONVERGED (fingerprint {:#018x}{})",
                v.id,
                v.fingerprint,
                if v.attempts > 1 { format!(", {} attempts", v.attempts) } else { String::new() }
            );
        }
    }
    println!(
        "{}/{} converged to fault-free trails under fault plan (seed {}, rate {:.2}, {} retr{}) \
         in {:.3}s with {} job(s)",
        report.outcomes.len() - diverged - quarantined,
        report.outcomes.len(),
        plan.seed(),
        plan.rate(),
        retries,
        if retries == 1 { "y" } else { "ies" },
        report.wall_seconds,
        report.jobs
    );
    let deny = if sup.enforce { DenyPolicy::Error } else { DenyPolicy::None };
    if finish(&batch, &out, reg, o, None, deny) || (sup.enforce && diverged > 0) {
        std::process::exit(1);
    }
}

/// The steady-state hit-rate the quick soak must converge to under its
/// default bound — the cache is useless below this, and the quick shape
/// reliably lands well above it.
const SOAK_HIT_RATE_FLOOR: f64 = 0.25;

/// `treu soak [seed] [--quick|--full-soak] [--enforce] [--tenants N]
/// [--epochs N] [--per-epoch N] [--cache-entries N] [--cache-bytes N]
/// [--out PATH] [--fault-seed S] [--rate F] [--jobs N]` — the sustained
/// multi-tenant drill: Zipf traffic from seeded tenants through fair
/// dispatch and supervised execution under an epoch-phased fault
/// schedule, with the run cache under a hard bound and logical-clock LRU
/// eviction. Writes `BENCH_soak.json` (or `--out`).
///
/// `--enforce` runs the acceptance ladder: the same soak at jobs=1,
/// jobs=4 and fault-free, then requires bitwise-identical trace
/// addresses, eviction logs and final cache contents across all three,
/// zero drift and zero quarantines, at least one eviction (the bound
/// must actually bite), and a steady-state hit-rate above the floor.
fn run_soak_cmd(reg: &ExperimentRegistry, args: &[String], o: &Opts) {
    use treu_bench::soak::{generate, run_soak, SoakConfig, SoakReport};

    let sup = &o.sup;
    let mut cfg = if sup.full { SoakConfig::full(o.jobs) } else { SoakConfig::quick(o.jobs) };
    if let Some(s) = sup.fault_seed {
        cfg.fault_seed = s;
    }
    if let Some(r) = sup.fault_rate {
        cfg.fault_rate = r;
    }
    let mut args = args.to_vec();
    let want = "want a positive integer";
    let positive = |n: &usize| *n >= 1;
    if let Some(n) = take_parsed(&mut args, "--tenants", want, positive) {
        cfg.tenants = n;
    }
    if let Some(n) = take_parsed(&mut args, "--epochs", want, positive) {
        cfg.epochs = n as u32;
    }
    if let Some(n) = take_parsed(&mut args, "--per-epoch", want, positive) {
        cfg.submissions_per_epoch = n;
    }
    if let Some(n) = take_parsed(&mut args, "--cache-entries", want, positive) {
        cfg.bound = CacheBound::entries(n);
    }
    if let Some(n) = take_parsed(&mut args, "--cache-bytes", want, positive) {
        cfg.bound = CacheBound::bytes(n as u64);
    }
    let out_path = take(&mut args, "--out").unwrap_or_else(|| "BENCH_soak.json".to_string());
    // The default shape; accepted so scripts can say what they mean.
    take_switch(&mut args, "--quick");
    if let Some(s) = seed_positional(&args, "soak") {
        cfg.seed = s;
    }
    // Conformance parameters keep every submission fast — the soak's
    // stress is volume and churn, not per-run cost.
    let params_of = |id: &str, _d: Params| treu::conformance_params(id);

    // Each soak run gets a fresh bounded cache in scratch space; the
    // report is what survives, not the directory.
    let scratch = std::env::temp_dir().join(format!("treu-soak-{}", std::process::id()));
    let run_once = |label: &str, cfg: &SoakConfig| -> SoakReport {
        let dir = scratch.join(label);
        if dir.exists() {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let cache = RunCache::open_bounded(&dir, cfg.bound).unwrap_or_else(|e| {
            eprintln!("soak: cannot open cache under '{}': {e}", dir.display());
            std::process::exit(2);
        });
        let report = run_soak(reg, &params_of, cfg, &cache);
        let _ = std::fs::remove_dir_all(&dir);
        report
    };

    // Sanity before spending anything: the generator must produce
    // traffic for the configured tenant population.
    let ids: Vec<String> = reg.iter().map(|(id, _)| id.to_string()).collect();
    if generate(&cfg, &ids).is_empty() {
        usage_err("soak: empty submission stream (check --epochs/--per-epoch)");
    }

    let primary = run_once("primary", &cfg);
    print!("{}", primary.render());
    match std::fs::write(&out_path, primary.render_json()) {
        Ok(()) => println!("soak: wrote {out_path}"),
        Err(e) => {
            eprintln!("soak: cannot write '{out_path}': {e}");
            std::process::exit(2);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if !sup.enforce {
        return;
    }

    // The acceptance ladder: same soak at jobs=1, jobs=4, and with the
    // fault schedule disabled. Chaos and parallelism may cost retries
    // and wall time — never bits.
    let mut failures: Vec<String> = Vec::new();
    let mut variants: Vec<(String, SoakReport)> = Vec::new();
    for jobs_variant in [1usize, 4] {
        if jobs_variant == cfg.jobs {
            continue;
        }
        let mut v = cfg.clone();
        v.jobs = jobs_variant;
        variants
            .push((format!("jobs={jobs_variant}"), run_once(&format!("jobs{jobs_variant}"), &v)));
    }
    let mut clean = cfg.clone();
    clean.fault_rate = 0.0;
    variants.push(("fault-free".to_string(), run_once("clean", &clean)));
    let _ = std::fs::remove_dir_all(&scratch);

    for (label, report) in &variants {
        if report.trace_address != primary.trace_address {
            failures.push(format!(
                "{label}: trace address {:#018x} != primary {:#018x}",
                report.trace_address, primary.trace_address
            ));
        }
        if report.eviction_address != primary.eviction_address {
            failures.push(format!("{label}: eviction log diverged from primary"));
        }
        if report.final_entries != primary.final_entries {
            failures.push(format!("{label}: final cache contents diverged from primary"));
        }
        if !report.zero_drift() {
            failures.push(format!(
                "{label}: drift {} / quarantined {}",
                report.drift, report.quarantined
            ));
        }
    }
    if !primary.zero_drift() {
        failures.push(format!(
            "primary: drift {} / quarantined {}",
            primary.drift, primary.quarantined
        ));
    }
    if primary.evictions == 0 {
        failures
            .push("primary: the cache bound never evicted — soak too small for the bound".into());
    }
    if primary.steady_hit_rate < SOAK_HIT_RATE_FLOOR {
        failures.push(format!(
            "primary: steady-state hit-rate {:.3} below floor {SOAK_HIT_RATE_FLOOR}",
            primary.steady_hit_rate
        ));
    }
    if failures.is_empty() {
        println!(
            "soak: ENFORCED — {} variant(s) bitwise-identical to primary \
             (trace {:#018x}), zero drift, steady-state hit-rate {:.3}",
            variants.len(),
            primary.trace_address,
            primary.steady_hit_rate
        );
    } else {
        for f in &failures {
            eprintln!("soak: FAILED — {f}");
        }
        std::process::exit(1);
    }
}

/// `treu lint [path] [--format human|json] [--deny none|warn|error]
/// [--rules R1,wall-clock,...] [--flow|--no-flow] [--baseline FILE]
/// [--write-baseline FILE]` — static reproducibility analysis over a
/// workspace (default: the current directory). The cross-file flow pass
/// (rules R8..R12) is on by default; `--baseline` gates only on findings
/// not recorded in FILE, and `--write-baseline` records the current
/// findings. Exits 1 when findings reach the deny level, 2 on usage or
/// I/O errors.
fn run_lint(args: &[String], jobs: usize) {
    let mut args = args.to_vec();
    let format = take(&mut args, "--format").unwrap_or_else(|| "human".to_string());
    if format != "human" && format != "json" {
        usage_err(format!("invalid --format '{format}' (want human|json)"));
    }
    let deny = take(&mut args, "--deny").map_or(DenyLevel::Warn, |v| {
        DenyLevel::parse(&v)
            .unwrap_or_else(|| usage_err(format!("invalid --deny '{v}' (want none|warn|error)")))
    });
    let rules: Option<Vec<RuleId>> = take(&mut args, "--rules").map(|v| {
        v.split(',').map(RuleId::parse).collect::<Option<_>>().unwrap_or_else(|| {
            usage_err(format!("invalid --rules '{v}' (want codes R1..R12 or rule names)"))
        })
    });
    let baseline_path = take(&mut args, "--baseline");
    let write_baseline = take(&mut args, "--write-baseline");
    // The later of `--flow` / `--no-flow` wins; the flow pass is the default.
    let last = |args: &[String], flag: &str| args.iter().rposition(|a| a == flag);
    let flow = last(&args, "--flow") >= last(&args, "--no-flow");
    take_switch(&mut args, "--flow");
    take_switch(&mut args, "--no-flow");
    let root = positional(&args, "lint");
    let root = root.unwrap_or_else(|| ".".to_string());
    let ws = Workspace::discover(std::path::Path::new(&root)).unwrap_or_else(|e| {
        eprintln!("lint: cannot walk '{root}': {e}");
        std::process::exit(2);
    });
    let lint = match rules {
        Some(r) => Lint::with_rules(r),
        None => Lint::new(),
    }
    .flow(flow)
    .jobs(jobs);
    let mut report = lint.run(&ws).unwrap_or_else(|e| {
        eprintln!("lint: {e}");
        std::process::exit(2);
    });
    if let Some(path) = write_baseline {
        let text = treu_lint::baseline::render(&report);
        std::fs::write(&path, text).unwrap_or_else(|e| {
            eprintln!("lint: cannot write baseline '{path}': {e}");
            std::process::exit(2);
        });
        eprintln!("lint: wrote {} finding(s) to baseline '{path}'", report.diagnostics.len());
    }
    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("lint: cannot read baseline '{path}': {e}");
            std::process::exit(2);
        });
        let keys = treu_lint::baseline::parse(&text).unwrap_or_else(|e| {
            eprintln!("lint: {path}: {e}");
            std::process::exit(2);
        });
        let (kept, absorbed) = treu_lint::baseline::apply(report, keys);
        report = kept;
        eprintln!("lint: baseline '{path}' absorbed {absorbed} finding(s)");
    }
    match format.as_str() {
        "json" => print!("{}", report.render_json()),
        _ => print!("{}", report.render_human()),
    }
    if report.exceeds(deny) {
        std::process::exit(1);
    }
}

/// Sharded-service settings pulled from the shared command-line flags.
struct SvcOpts {
    workers: usize,
    kill_seed: Option<u64>,
    kill_rate: Option<f64>,
    respawn_budget: Option<u32>,
}

impl SvcOpts {
    /// Removes the sharded-service flags from `args`: `--workers N` routes
    /// run/verify/chaos through the coordinator/worker service;
    /// `--kill-plan SEED` arms the seeded chaos-monkey that SIGKILLs
    /// workers mid-shard, `--kill-rate F` tunes its aggression, and
    /// `--respawn-budget N` bounds respawns per slot before degradation.
    fn take(args: &mut Vec<String>) -> Option<Self> {
        let positive = "want a positive integer";
        let workers = take_parsed(args, "--workers", positive, |&w| w >= 1);
        let kill_seed = take_parsed(args, "--kill-plan", "want a seed", |_| true);
        let kill_rate =
            take_parsed(args, "--kill-rate", "want 0.0..=1.0", |r| (0.0..=1.0).contains(r));
        let respawn_budget = take_parsed(args, "--respawn-budget", "want an integer", |_| true);
        let Some(workers) = workers else {
            if kill_seed.is_some() || kill_rate.is_some() || respawn_budget.is_some() {
                usage_err("--kill-plan/--kill-rate/--respawn-budget require --workers N");
            }
            return None;
        };
        Some(SvcOpts { workers, kill_seed, kill_rate, respawn_budget })
    }

    /// The pool configuration these flags ask for. `jobs` is the
    /// *per-worker* thread count (the shared `--jobs` flag).
    fn config(&self, jobs: usize, tracing: bool) -> SvcConfig {
        let mut cfg = SvcConfig::new(self.workers).with_jobs(jobs).with_tracing(tracing);
        if let Some(n) = self.respawn_budget {
            cfg = cfg.with_respawn_budget(n);
        }
        if let Some(s) = self.kill_seed {
            let kp = match self.kill_rate {
                Some(r) => KillPlan::with_rate(s, r),
                None => KillPlan::new(s),
            };
            cfg = cfg.with_kill_plan(kp);
        }
        cfg
    }
}

/// `treu trace <DIR|FILE> [--check] [--top N]` — inspects stored traces.
/// A directory argument selects every `trace-*.jsonl` under it (sidecars
/// excluded), in name order. `--check` re-verifies each file against its
/// content address and exits 1 on any mismatch; the default mode renders
/// the per-run timeline plus, when the timing sidecar is present, the
/// per-worker utilization table and the top-N slowest attempt spans
/// (default 5).
fn run_trace(args: &[String]) {
    let mut args = args.to_vec();
    let top = take_parsed(&mut args, "--top", "want a positive integer", |&n| n >= 1).unwrap_or(5);
    let check = take_switch(&mut args, "--check");
    let target = positional(&args, "trace")
        .unwrap_or_else(|| usage_err("usage: treu trace <DIR|FILE> [--check] [--top N]"));
    let path = Path::new(&target);
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut files: Vec<PathBuf> = match std::fs::read_dir(path) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.ends_with(".jsonl") && !n.ends_with(".times.jsonl"))
                })
                .collect(),
            Err(e) => {
                eprintln!("trace: cannot read '{target}': {e}");
                std::process::exit(2);
            }
        };
        files.sort();
        if files.is_empty() {
            eprintln!("trace: no trace files under '{target}'");
            std::process::exit(2);
        }
        files
    } else {
        vec![path.to_path_buf()]
    };
    if check {
        let mut failed = false;
        for f in &files {
            match check_trace_file(f) {
                Ok(hash) => println!("{}: ok ({hash:#018x})", f.display()),
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }
    for (n, f) in files.iter().enumerate() {
        if n > 0 {
            println!();
        }
        let text = std::fs::read_to_string(f).unwrap_or_else(|e| {
            eprintln!("trace: cannot read '{}': {e}", f.display());
            std::process::exit(2);
        });
        let trace = parse_trace(&text).unwrap_or_else(|e| {
            eprintln!("trace: {}: {}", f.display(), e.locate(&text));
            std::process::exit(2);
        });
        let timed = std::fs::read_to_string(f.with_extension("times.jsonl"))
            .ok()
            .and_then(|t| parse_times(trace.clone(), &t).ok());
        print!("{}", render_timeline(timed.as_ref().unwrap_or(&trace), timed.is_some()));
        if let Some(timed) = &timed {
            print!("{}", render_worker_table(timed));
            print!("{}", render_slowest(timed, top));
        }
    }
}

/// Writes `trace` (event stream + timing sidecar) under `dir` and prints
/// its content address.
fn write_trace(trace: &BatchTrace, dir: &Path) {
    match trace.write(dir) {
        Ok(path) => {
            let c = trace.counters();
            println!(
                "trace: {} ({} event(s) over {} run(s), hash {:#018x})",
                path.display(),
                c.events,
                c.runs,
                trace.content_hash()
            );
        }
        Err(e) => {
            eprintln!("trace: write failed under '{}': {e}", dir.display());
            std::process::exit(2);
        }
    }
}

/// Seed for the deterministically derived default attestation key, used
/// when `--attest-dir` is given but no key file exists yet. Derivation
/// is deterministic so the whole pipeline (including the topology
/// conformance drill) stays reproducible; provision a real key file for
/// anything beyond tamper-evidence.
const ATTEST_DEFAULT_KEY_SEED: u64 = 2023;

/// Attestation settings pulled from `--attest-dir DIR` and
/// `--attest-key FILE`. The key file defaults to `DIR/attest.key`.
struct AttestOpts {
    dir: PathBuf,
    key: Option<PathBuf>,
}

impl AttestOpts {
    /// Removes `--attest-dir DIR` and `--attest-key FILE` from `args`.
    /// `--attest-key` alone is a usage error — the key names no chain
    /// without a directory.
    fn take(args: &mut Vec<String>) -> Option<Self> {
        let dir = take(args, "--attest-dir").map(PathBuf::from);
        let key = take(args, "--attest-key").map(PathBuf::from);
        if dir.is_none() && key.is_some() {
            usage_err("--attest-key requires --attest-dir");
        }
        Some(AttestOpts { dir: dir?, key })
    }

    fn store(&self) -> AttestStore {
        AttestStore::open(&self.dir)
    }

    /// The key file path in effect: `--attest-key`, else `DIR/attest.key`.
    fn key_path(&self) -> PathBuf {
        self.key.clone().unwrap_or_else(|| self.store().key_path())
    }

    /// Loads the key, failing the process when it is absent or invalid.
    fn require_key(&self) -> AttestKey {
        let path = self.key_path();
        AttestKey::load(&path).unwrap_or_else(|e| {
            eprintln!(
                "attest: cannot load key '{}': {e} (run `treu attest init` or pass --attest-key)",
                path.display()
            );
            std::process::exit(2);
        })
    }

    /// Loads the key, deriving and writing the deterministic default on
    /// first use so a bare `--attest-dir` works out of the box. An
    /// explicit `--attest-key` is never auto-created — a typo there must
    /// not silently mint a new identity.
    fn load_or_init_key(&self, seed: u64) -> AttestKey {
        if self.key.is_some() || self.key_path().is_file() {
            return self.require_key();
        }
        let key = AttestKey::derive(seed);
        match self.store().write_key(&key) {
            Ok(p) => {
                println!(
                    "attest: wrote key {} (fingerprint {:#018x})",
                    p.display(),
                    key.fingerprint()
                );
                key
            }
            Err(e) => {
                eprintln!("attest: cannot write key '{}': {e}", self.key_path().display());
                std::process::exit(2);
            }
        }
    }

    /// Writes the default run→verify→badge layout when the store has none.
    fn ensure_layout(&self, key: &AttestKey) {
        let store = self.store();
        if store.initialized() {
            return;
        }
        match store.write_layout(&Layout::default_pipeline(key)) {
            Ok(p) => println!("attest: wrote default layout {}", p.display()),
            Err(e) => {
                eprintln!("attest: cannot write layout: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// Seals one pipeline step's link onto the chain: the draft's run
/// products plus root materials (registry index, environment), the
/// cache entry behind every attested run, and the trace stream when one
/// was written. Called on the coordinator after the batch has merged, so
/// the link bytes are identical at every `(workers, jobs)` topology.
fn attest_emit(
    at: &AttestOpts,
    reg: &ExperimentRegistry,
    mut draft: LinkDraft,
    cache: Option<&RunCache>,
    params_of: &dyn Fn(&str, Params) -> Params,
    trace: Option<&BatchTrace>,
) {
    let key = at.load_or_init_key(ATTEST_DEFAULT_KEY_SEED);
    at.ensure_layout(&key);
    draft.material("registry:index", hash_bytes(reg.render_index().as_bytes()));
    draft.material("env:fingerprint", Environment::capture().fingerprint());
    if let Some(c) = cache {
        let ids: Vec<String> = draft
            .products
            .keys()
            .filter_map(|n| n.strip_prefix("run:"))
            .map(str::to_string)
            .collect();
        for id in ids {
            if let Some(entry) = reg.get(&id) {
                let file = run_entry_file(&id, draft.seed, &params_of(&id, entry.defaults.clone()));
                draft.absorb_cache_entry(c, &id, &file);
            }
        }
    }
    if let Some(tr) = trace {
        draft.product(
            format!("trace:{}", tr.file_name()),
            hash_bytes(tr.render_events().as_bytes()),
        );
    }
    match at.store().append(&key, draft) {
        Ok((path, link)) => println!(
            "attest: {} link {} ({} material(s), {} product(s), mac {:#018x})",
            link.step,
            path.display(),
            link.materials.len(),
            link.products.len(),
            link.mac
        ),
        Err(e) => {
            eprintln!("attest: {e}");
            std::process::exit(2);
        }
    }
}

/// `treu attest <init|show|verify|badge> --attest-dir DIR [--attest-key
/// FILE] [--cache-dir DIR] [--trace-out DIR] [--enforce]` — attestation
/// chain operations. `init` provisions the key and layout, `show` prints
/// the chain, `verify` walks it (exit 1 names the first broken step),
/// and `badge` turns a verified chain into an ACM-style badge
/// evaluation, appending the result as the final link.
fn run_attest_cmd(args: &[String], reg: &ExperimentRegistry, o: &Opts) {
    fn usage() -> ! {
        usage_err(
            "usage: treu attest <init|show|verify|badge> --attest-dir DIR \
             [--attest-key FILE] [--cache-dir DIR] [--trace-out DIR] [--enforce] [seed]",
        )
    }
    let op = args.first().map(String::as_str);
    // Only `init` takes a second positional: its key seed.
    let args = positionals(args, "attest", if op == Some("init") { 2 } else { 1 });
    let Some(at) = &o.attest else {
        eprintln!("attest: --attest-dir DIR is required");
        usage();
    };
    let store = at.store();
    let exit_on = |e: std::io::Error| -> ! {
        eprintln!("attest: {e}");
        std::process::exit(2);
    };
    // The re-hash context: current registry/environment values always,
    // artifact directories when the caller names them.
    let ctx = VerifyContext {
        cache_dir: o.cache.as_ref().map(|c| c.dir()),
        trace_dir: o.trace_out.as_deref(),
        registry_index_hash: Some(hash_bytes(reg.render_index().as_bytes())),
        env_fingerprint: Some(Environment::capture().fingerprint()),
    };
    match op {
        Some("init") => {
            let seed = args.get(1).map_or(ATTEST_DEFAULT_KEY_SEED, |s| parse_seed(s));
            let key = at.load_or_init_key(seed);
            at.ensure_layout(&key);
            let layout = store.load_layout().unwrap_or_else(|e| exit_on(e));
            if !layout.mac_ok(&key) {
                eprintln!(
                    "attest: existing layout is sealed under key {:#018x}, not {:#018x}",
                    layout.key_fingerprint,
                    key.fingerprint()
                );
                std::process::exit(1);
            }
            println!(
                "attest: {} initialized (key fingerprint {:#018x}, layout mac {:#018x}, {} step(s))",
                store.dir().display(),
                key.fingerprint(),
                layout.mac,
                layout.steps.len()
            );
        }
        Some("show") => {
            let layout = store.load_layout().unwrap_or_else(|e| exit_on(e));
            print!("{}", layout.render());
            let files = store.link_files().unwrap_or_else(|e| exit_on(e));
            for (file, text) in &files {
                match Link::parse(text) {
                    Some(l) => println!(
                        "{file}: step {} seed {} prev {:#018x} mac {:#018x} \
                         ({} material(s), {} product(s))",
                        l.step,
                        l.seed,
                        l.prev,
                        l.mac,
                        l.materials.len(),
                        l.products.len()
                    ),
                    None => println!("{file}: UNPARSEABLE"),
                }
            }
            println!("{} link(s)", files.len());
        }
        Some("verify") => {
            let key = at.require_key();
            let report = verify_chain(&store, &key, &ctx);
            print!("{}", report.render());
            if !report.ok() {
                std::process::exit(1);
            }
            if o.sup.enforce && report.links() == 0 {
                eprintln!("attest: --enforce requires a non-empty chain (nothing was attested)");
                std::process::exit(1);
            }
        }
        Some("badge") => {
            let key = at.require_key();
            let chain = verify_chain(&store, &key, &ctx);
            if !chain.ok() {
                print!("{}", chain.render());
                eprintln!("attest: chain is broken; refusing to badge tampered evidence");
                std::process::exit(1);
            }
            // The latest verify link carries the rerun evidence the
            // badge ladder needs.
            let files = store.link_files().unwrap_or_else(|e| exit_on(e));
            let verify_link = files
                .iter()
                .rev()
                .find_map(|(_, text)| Link::parse(text).filter(|l| l.step == "verify"));
            let Some(vl) = verify_link else {
                eprintln!(
                    "attest: no verify link in the chain; \
                     run `treu verify --attest-dir ...` first"
                );
                std::process::exit(1);
            };
            let reproduced = vl.products.keys().filter(|n| n.starts_with("run:")).count();
            let measured = reproduced as f64 / reg.len() as f64;
            let artifact = Artifact::new("treu", env!("CARGO_PKG_VERSION"))
                .with_code("harness", "rust", true, true)
                .with_doc("DESIGN.md", &["R1"])
                .with_claim("R1", "every registry experiment reproduces bitwise", 0.0);
            let checks = vec![ClaimCheck { claim_id: "R1".into(), claimed: 1.0, measured }];
            let eval = evaluate(&artifact, true, &checks);
            let mut rendered = String::new();
            for b in &eval.awarded {
                rendered.push_str(&format!("awarded {b:?}\n"));
            }
            for w in &eval.withheld {
                rendered.push_str(&format!("withheld {w}\n"));
            }
            print!("{rendered}");
            let mut d = LinkDraft::new("badge", vl.seed);
            for (name, addr) in vl.products.iter().filter(|(n, _)| n.starts_with("run:")) {
                d.material(name.clone(), *addr);
            }
            d.product("badge:evaluation", hash_bytes(rendered.as_bytes()));
            match store.append(&key, d) {
                Ok((path, link)) => println!(
                    "attest: badge link {} ({} material(s), mac {:#018x})",
                    path.display(),
                    link.materials.len(),
                    link.mac
                ),
                Err(e) => exit_on(e),
            }
            if o.sup.enforce && !eval.has(Badge::ResultsReproduced) {
                eprintln!("attest: --enforce requires the ResultsReproduced badge");
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}

/// `treu tune [seed] [--quick|--full] [--shapes MxKxN,...] [--repeats N]`
/// — runs the autotune loop for the math kernels. For each requested
/// shape the genetic tuner searches real blocked-matmul schedules, every
/// winner is re-verified bitwise against the naive kernel before it is
/// admitted, and the resulting schedule book is persisted through the
/// content-addressed run cache when `--cache-dir` is given, extending the
/// book persisted there. The book is a record: no other command loads it,
/// and `Matrix::matmul` keeps running each class's default plan.
fn run_tune_cmd(args: &[String], o: &Opts) {
    use treu::autotune::tuner::GaParams;
    use treu::autotune::ScheduleBook;

    fn parse_shape(text: &str) -> Option<(usize, usize, usize)> {
        let mut dims = text.split('x').map(|p| p.parse::<usize>().ok().filter(|&d| d >= 1));
        let (m, k, n) = (dims.next()??, dims.next()??, dims.next()??);
        if dims.next().is_some() {
            return None;
        }
        Some((m, k, n))
    }
    let (cache, sup) = (o.cache.as_ref(), &o.sup);
    let mut args = args.to_vec();
    let shapes: Option<Vec<(usize, usize, usize)>> = take(&mut args, "--shapes").map(|v| {
        v.split(',')
            .map(parse_shape)
            .collect::<Option<_>>()
            .unwrap_or_else(|| usage_err(format!("invalid --shapes '{v}' (want MxKxN[,MxKxN...])")))
    });
    let repeats = take_parsed(&mut args, "--repeats", "want a positive integer", |&r| r >= 1);
    // The default shape; accepted so scripts can say what they mean.
    take_switch(&mut args, "--quick");
    let seed = seed_positional(&args, "tune").unwrap_or(2023);
    // Quick keeps CI latency low; --full runs the registry-default GA.
    let ga = if sup.full {
        GaParams::default()
    } else {
        GaParams { population: 8, generations: 5, ..GaParams::default() }
    };
    let repeats = repeats.unwrap_or(if sup.full { 3 } else { 2 });
    let shapes = shapes.unwrap_or_else(|| {
        if sup.full {
            vec![(64, 64, 64), (128, 512, 128), (512, 64, 512), (320, 320, 320)]
        } else {
            vec![(64, 64, 64), (256, 256, 256)]
        }
    });

    let mut book = match cache {
        Some(c) => ScheduleBook::load(c),
        None => ScheduleBook::new(),
    };
    for &shape in &shapes {
        let e = book.tune_matmul(shape, ga, seed, repeats);
        let (m, k, n) = e.shape;
        println!(
            "tuned {m}x{k}x{n} (class {}): {:.2} -> {:.2} GFLOP/s",
            e.class.key(),
            e.naive_gflops,
            e.tuned_gflops
        );
    }
    print!("{}", book.render());
    match cache {
        Some(c) => {
            if let Err(e) = book.persist(c) {
                eprintln!("tune: cannot persist schedule book: {e}");
                std::process::exit(1);
            }
            println!("schedule book persisted ({} entries)", book.len());
        }
        None => println!("note: book not persisted; pass --cache-dir DIR to keep schedules"),
    }
}
