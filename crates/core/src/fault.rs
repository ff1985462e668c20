//! Deterministic fault injection: seeded chaos for the supervisor.
//!
//! The paper's §3 is a catalogue of runs that *failed under contention* —
//! stalled jobs, restaged batches, results lost to crashes — and the
//! artifact-evaluation practice the ROADMAP tracks expects a harness to
//! finish a campaign and report what broke instead of dying wholesale.
//! Proving that property needs failures on demand, and the failures
//! themselves must obey the workspace's determinism contract: a chaos run
//! that cannot be re-run bitwise is exactly as untrustworthy as any other
//! irreproducible result.
//!
//! A [`FaultPlan`] is therefore *seeded and content-addressed* like a
//! cache key: whether a given run is faulted, and how, is a pure function
//! of `(plan, experiment id, run seed)`, and transient faults additionally
//! key on the *attempt* number so a retry schedule can outlast them. The
//! same plan replayed against the same registry injects byte-for-byte the
//! same failures — chaos tests are themselves reproducible experiments.
//!
//! Injection happens through the [`FaultyExperiment`] adapter, which wraps
//! any [`Experiment`] without touching it: experiment crates stay fault-
//! agnostic, there is no unsafe code, and removing the plan removes every
//! trace of the machinery.

use crate::experiment::{Experiment, RunContext};
use std::time::Duration;

/// One way a run can be made to fail (or misbehave).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Permanent panic: every attempt dies. Retries cannot save it; the
    /// supervisor must quarantine.
    Panic,
    /// The run takes `ms` extra milliseconds — long enough to trip a
    /// deadline when one is armed, otherwise harmless (wall time is
    /// excluded from trails and fingerprints).
    Delay(u64),
    /// The run completes but its provenance trail is corrupted afterwards
    /// (a replica-keyed metric is flipped in), so verification replicas
    /// disagree: injected irreproducibility.
    CorruptTrail,
    /// Transient error: the first `k` attempts panic, attempt `k` (0-based)
    /// succeeds. A retry budget of at least `k` recovers bitwise-identical
    /// output.
    TransientErr(u32),
}

impl FaultKind {
    /// Short stable name for reports and taxonomy lines.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Delay(_) => "delay",
            FaultKind::CorruptTrail => "corrupt-trail",
            FaultKind::TransientErr(_) => "transient-err",
        }
    }

    /// Parameterized label for trace events, e.g. `delay(40ms)` or
    /// `transient-err(2)` — deterministic, so it is safe to hash.
    pub fn label(self) -> String {
        match self {
            FaultKind::Panic => "panic".to_string(),
            FaultKind::Delay(ms) => format!("delay({ms}ms)"),
            FaultKind::CorruptTrail => "corrupt-trail".to_string(),
            FaultKind::TransientErr(k) => format!("transient-err({k})"),
        }
    }

    /// Exact inverse of [`FaultKind::label`]: the kind whose label is
    /// `label`, trying every kind with the label's digits as argument.
    pub(crate) fn from_label(label: &str) -> Option<Self> {
        let arg = label.trim_matches(|c: char| !c.is_ascii_digit());
        let kinds = [Self::Panic, Self::CorruptTrail];
        let with_arg = [arg.parse().map(Self::Delay), arg.parse().map(Self::TransientErr)];
        kinds.into_iter().chain(with_arg.into_iter().flatten()).find(|k| k.label() == label)
    }

    /// True when a sufficient retry budget recovers the fault-free result.
    pub fn is_transient(self) -> bool {
        matches!(self, FaultKind::TransientErr(_) | FaultKind::Delay(_))
    }

    fn encode(self) -> [u8; 9] {
        let (tag, arg): (u8, u64) = match self {
            FaultKind::Panic => (1, 0),
            FaultKind::Delay(ms) => (2, ms),
            FaultKind::CorruptTrail => (3, 0),
            FaultKind::TransientErr(k) => (4, u64::from(k)),
        };
        let mut out = [0u8; 9];
        out[0] = tag;
        out[1..].copy_from_slice(&arg.to_le_bytes());
        out
    }
}

// Fault draws are the canonical separator-mixed FNV-1a fold over their
// key material, mapped to [0, 1) — stable, well-mixed functions shared
// with the run cache's addresses.
use crate::hash::{fnv64_parts, unit};

/// A seeded, content-addressed plan of which runs fail and how.
///
/// The plan is pure data: no RNG state, no wall clock. Every decision is
/// a hash of `(plan seed, experiment id, run seed)`, so concurrent
/// workers, retries and replicas all see one consistent story.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
    menu: Vec<FaultKind>,
    /// Ids that always receive a permanent [`FaultKind::Panic`],
    /// regardless of `rate` — the quarantine tests' lever.
    targets: Vec<String>,
}

impl FaultPlan {
    /// A plan drawing from the full fault menu at `rate` (clamped to
    /// `[0, 1]`): panics, delays, trail corruption and transient errors.
    pub fn new(seed: u64, rate: f64) -> Self {
        Self::with_menu(
            seed,
            rate,
            vec![
                FaultKind::Panic,
                FaultKind::Delay(40),
                FaultKind::CorruptTrail,
                FaultKind::TransientErr(1),
                FaultKind::TransientErr(2),
            ],
        )
    }

    /// A transient-only plan: every injected fault is a
    /// [`FaultKind::TransientErr`] of 1..=3 attempts, so a supervisor with
    /// `retries >= 3` always converges to the fault-free result. This is
    /// what `treu chaos` runs.
    pub fn transient(seed: u64, rate: f64) -> Self {
        Self::with_menu(
            seed,
            rate,
            vec![
                FaultKind::TransientErr(1),
                FaultKind::TransientErr(2),
                FaultKind::TransientErr(3),
            ],
        )
    }

    /// A plan with an explicit fault menu.
    pub fn with_menu(seed: u64, rate: f64, menu: Vec<FaultKind>) -> Self {
        Self { seed, rate: rate.clamp(0.0, 1.0), menu, targets: Vec::new() }
    }

    /// A plan that injects nothing except a permanent panic into the
    /// listed ids — the minimal plan for quarantine-path tests.
    pub fn panic_on(ids: &[&str]) -> Self {
        Self {
            seed: 0,
            rate: 0.0,
            menu: Vec::new(),
            targets: ids.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Adds a permanently-panicking target id to any plan.
    pub fn and_panic_on(mut self, id: &str) -> Self {
        self.targets.push(id.to_string());
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's injection rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The fault menu draws pick from, in draw order. Exposed so the
    /// service layer can serialize a plan over the worker wire protocol
    /// and reconstruct it bitwise on the other side.
    pub fn menu(&self) -> &[FaultKind] {
        &self.menu
    }

    /// Ids that always receive a permanent panic (see
    /// [`FaultPlan::panic_on`]), for the same wire round-trip.
    pub fn targets(&self) -> &[String] {
        &self.targets
    }

    /// The fault (if any) this plan assigns to `(id, run_seed)`. The draw
    /// is attempt-independent: a faulted run keeps its fault kind across
    /// retries (transience lives inside [`FaultKind::TransientErr`]).
    pub fn fault_for(&self, id: &str, run_seed: u64) -> Option<FaultKind> {
        if self.targets.iter().any(|t| t == id) {
            return Some(FaultKind::Panic);
        }
        if self.menu.is_empty() || self.rate <= 0.0 {
            return None;
        }
        let gate = fnv64_parts(&[
            b"fault-gate",
            &self.seed.to_le_bytes(),
            id.as_bytes(),
            &run_seed.to_le_bytes(),
        ]);
        if unit(gate) >= self.rate {
            return None;
        }
        let pick = fnv64_parts(&[
            b"fault-kind",
            &self.seed.to_le_bytes(),
            id.as_bytes(),
            &run_seed.to_le_bytes(),
        ]);
        Some(self.menu[(pick % self.menu.len() as u64) as usize])
    }

    /// The fault actually *active* on one attempt — [`FaultPlan::fault_for`]
    /// narrowed by attempt number, mirroring what
    /// [`crate::fault::FaultyExperiment`] injects: a
    /// [`FaultKind::TransientErr`] stops firing once the attempt index
    /// reaches its budget, every other kind fires on all attempts. This is
    /// what the trace layer records, so fault events appear only on
    /// attempts that were genuinely faulted.
    pub fn fault_at(&self, id: &str, run_seed: u64, attempt: u32) -> Option<FaultKind> {
        match self.fault_for(id, run_seed) {
            Some(FaultKind::TransientErr(k)) if attempt >= k => None,
            other => other,
        }
    }

    /// The first attempt (0-based) at which `(id, run_seed)` succeeds, or
    /// `None` when no retry budget can save it (permanent panic or trail
    /// corruption). Used to size `retries` in the conformance tests.
    pub fn first_clean_attempt(&self, id: &str, run_seed: u64) -> Option<u32> {
        match self.fault_for(id, run_seed) {
            None | Some(FaultKind::Delay(_)) => Some(0),
            Some(FaultKind::TransientErr(k)) => Some(k),
            Some(FaultKind::Panic) | Some(FaultKind::CorruptTrail) => None,
        }
    }

    /// The largest `k` any [`FaultKind::TransientErr`] in the menu can
    /// demand — the retry budget that guarantees convergence for a
    /// transient-only plan.
    pub fn max_transient_attempts(&self) -> u32 {
        self.menu
            .iter()
            .filter_map(|k| match k {
                FaultKind::TransientErr(n) => Some(*n),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// True when every fault this plan can inject is recoverable by
    /// retrying (no permanent panics, no trail corruption, no targets).
    pub fn is_transient_only(&self) -> bool {
        self.targets.is_empty() && self.menu.iter().all(|k| k.is_transient())
    }

    /// Content address of the plan — hash of everything that determines
    /// its behaviour, so reports can name the exact chaos configuration.
    pub fn fingerprint(&self) -> u64 {
        let mut parts: Vec<Vec<u8>> = vec![
            b"fault-plan".to_vec(),
            self.seed.to_le_bytes().to_vec(),
            self.rate.to_bits().to_le_bytes().to_vec(),
        ];
        for k in &self.menu {
            parts.push(k.encode().to_vec());
        }
        for t in &self.targets {
            parts.push(t.as_bytes().to_vec());
        }
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        fnv64_parts(&refs)
    }

    /// The nonce a [`FaultKind::CorruptTrail`] injection flips into the
    /// trail. Keyed on the *replica* as well as `(id, seed, attempt)` so
    /// two verification replicas corrupt differently — deterministic
    /// corruption that still shows up as a mismatch.
    pub fn corruption_nonce(&self, id: &str, run_seed: u64, attempt: u32, replica: u32) -> u64 {
        fnv64_parts(&[
            b"corrupt",
            &self.seed.to_le_bytes(),
            id.as_bytes(),
            &run_seed.to_le_bytes(),
            &attempt.to_le_bytes(),
            &replica.to_le_bytes(),
        ])
    }
}

/// An epoch-phased soak schedule: fault classes cycle in and out across
/// seeded epochs, chaos-mesh style, so a sustained run sees *evolving*
/// pressure instead of one static plan.
///
/// Like [`FaultPlan`], the schedule is pure data: which plan governs
/// epoch `e` is a hash of `(schedule seed, e)` and nothing else. Every
/// per-epoch plan is transient-only, so a supervisor armed with
/// [`SoakSchedule::retry_budget`] retries is guaranteed to converge to
/// fault-free results in every epoch — the soak's zero-drift acceptance
/// criterion is achievable by construction, and any divergence is a real
/// bug, not an artifact of the chaos.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakSchedule {
    seed: u64,
    rate: f64,
    epochs: u32,
}

impl SoakSchedule {
    /// A schedule of `epochs` epochs at base injection `rate` (clamped to
    /// `[0, 1]`). Epoch 0 is always fault-free — the in-band warmup every
    /// later epoch's results are implicitly compared against.
    pub fn new(seed: u64, rate: f64, epochs: u32) -> Self {
        Self { seed, rate: rate.clamp(0.0, 1.0), epochs: epochs.max(1) }
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The schedule's base injection rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Number of epochs.
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// The fault plan governing `epoch`, or `None` for a fault-free
    /// epoch. Epoch 0 is always clean; later epochs rotate through
    /// seeded transient-only menus — short and long transient bursts,
    /// mixed menus with small delays — and roughly one in four is a
    /// clean trough so recovery under zero pressure is exercised too.
    pub fn plan_for(&self, epoch: u32) -> Option<FaultPlan> {
        if epoch == 0 || epoch >= self.epochs || self.rate <= 0.0 {
            return None;
        }
        let draw = fnv64_parts(&[b"soak-epoch", &self.seed.to_le_bytes(), &epoch.to_le_bytes()]);
        let menu: Vec<FaultKind> = match draw % 4 {
            0 => vec![FaultKind::TransientErr(1), FaultKind::TransientErr(2)],
            1 => vec![FaultKind::TransientErr(2), FaultKind::TransientErr(3)],
            2 => vec![FaultKind::TransientErr(1), FaultKind::TransientErr(3), FaultKind::Delay(2)],
            _ => return None, // clean trough
        };
        // Modulate the pressure per epoch: between 0.5× and 1.5× of the
        // base rate, drawn from the same hash so replays agree.
        let scale = 0.5 + unit(draw.rotate_left(17));
        let plan_seed =
            fnv64_parts(&[b"soak-plan-seed", &self.seed.to_le_bytes(), &epoch.to_le_bytes()]);
        Some(FaultPlan::with_menu(plan_seed, (self.rate * scale).min(1.0), menu))
    }

    /// The retry budget that guarantees convergence in *every* epoch: the
    /// worst transient any epoch menu can demand.
    pub fn retry_budget(&self) -> u32 {
        (0..self.epochs)
            .filter_map(|e| self.plan_for(e))
            .map(|p| p.max_transient_attempts())
            .max()
            .unwrap_or(0)
    }

    /// Content address of the schedule — everything that determines its
    /// behaviour, for naming the exact soak configuration in reports.
    pub fn fingerprint(&self) -> u64 {
        fnv64_parts(&[
            b"soak-schedule",
            &self.seed.to_le_bytes(),
            &self.rate.to_bits().to_le_bytes(),
            &self.epochs.to_le_bytes(),
        ])
    }
}

/// A seeded plan of *process* kills for the sharded verification
/// service's chaos drills: which worker incarnations get SIGKILLed, and
/// after how many dispatched shards.
///
/// Like [`FaultPlan`], the plan is pure data — whether incarnation `k` of
/// worker `w` is killed, and when, is a hash of `(plan seed, w, k)` and
/// nothing else, so a kill schedule replays bitwise. The kill point is
/// expressed in *dispatched shards*: the coordinator delivers the n-th
/// shard to the doomed incarnation and then kills it immediately, which
/// guarantees the SIGKILL lands mid-shard (the worker can never have
/// answered a frame it has not yet been sent). Results survive by
/// construction: the dead incarnation's in-flight shard is requeued and
/// recomputed, and every task result is a pure function of its spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillPlan {
    seed: u64,
    rate: f64,
}

impl KillPlan {
    /// A plan killing every doomed incarnation drawn at `rate` (clamped
    /// to `[0, 1]`); `new` uses the default drill rate of 0.5 — roughly
    /// every other incarnation dies, so respawns *and* clean completions
    /// are both exercised.
    pub fn new(seed: u64) -> Self {
        Self::with_rate(seed, 0.5)
    }

    /// A plan with an explicit kill rate. `1.0` kills every incarnation,
    /// which drives the respawn budget to exhaustion and forces the
    /// coordinator's graceful in-process degradation.
    pub fn with_rate(seed: u64, rate: f64) -> Self {
        Self { seed, rate: rate.clamp(0.0, 1.0) }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's kill rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The 1-based dispatched-shard count at which incarnation
    /// `incarnation` of worker `worker` is SIGKILLed, or `None` when this
    /// incarnation survives. The draw is content-addressed: replays and
    /// concurrent observers agree.
    pub fn kill_on_dispatch(&self, worker: usize, incarnation: u32) -> Option<u64> {
        if self.rate <= 0.0 {
            return None;
        }
        let gate = fnv64_parts(&[
            b"kill-gate",
            &self.seed.to_le_bytes(),
            &(worker as u64).to_le_bytes(),
            &incarnation.to_le_bytes(),
        ]);
        if unit(gate) >= self.rate {
            return None;
        }
        let pick = fnv64_parts(&[
            b"kill-shard",
            &self.seed.to_le_bytes(),
            &(worker as u64).to_le_bytes(),
            &incarnation.to_le_bytes(),
        ]);
        Some(1 + pick % 2)
    }

    /// Content address of the plan, for naming the exact kill schedule in
    /// reports.
    pub fn fingerprint(&self) -> u64 {
        fnv64_parts(&[b"kill-plan", &self.seed.to_le_bytes(), &self.rate.to_bits().to_le_bytes()])
    }
}

/// Deterministic retry backoff: a fixed doubling table plus seeded jitter.
///
/// `attempt` is the attempt about to run (1 = first retry). The jitter is
/// a hash of `(id, run_seed, attempt)` — no wall clock, no RNG state — so
/// the whole retry schedule is part of the reproducible record. The table
/// is in milliseconds and deliberately small: tests and CI retry in tens
/// of milliseconds, while the doubling shape matches what a production
/// backoff would scale up.
pub fn backoff_millis(attempt: u32, id: &str, run_seed: u64) -> u64 {
    const BASE_MS: [u64; 6] = [0, 2, 4, 8, 16, 32];
    let base = BASE_MS[(attempt as usize).min(BASE_MS.len() - 1)];
    let span = base / 2 + 1;
    let h =
        fnv64_parts(&[b"backoff", id.as_bytes(), &run_seed.to_le_bytes(), &attempt.to_le_bytes()]);
    base + h % span
}

/// Wraps an [`Experiment`] so a [`FaultPlan`] can fail it on purpose.
///
/// The adapter is the only injection point: experiment crates never see
/// the plan, and an unfaulted `(id, seed)` pair runs the inner experiment
/// untouched — same trail, same fingerprint.
pub struct FaultyExperiment<'a, E: Experiment + ?Sized> {
    inner: &'a E,
    plan: &'a FaultPlan,
    id: &'a str,
    attempt: u32,
    replica: u32,
}

impl<'a, E: Experiment + ?Sized> FaultyExperiment<'a, E> {
    /// Wraps `inner` under `plan` for one attempt of one replica of the
    /// run registered as `id`.
    pub fn new(inner: &'a E, plan: &'a FaultPlan, id: &'a str, attempt: u32, replica: u32) -> Self {
        Self { inner, plan, id, attempt, replica }
    }
}

impl<E: Experiment + ?Sized> Experiment for FaultyExperiment<'_, E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, ctx: &mut RunContext) {
        let Some(fault) = self.plan.fault_for(self.id, ctx.seed()) else {
            return self.inner.run(ctx);
        };
        match fault {
            FaultKind::Panic => panic!(
                "injected fault: permanent panic (id={}, seed={}, attempt={})",
                self.id,
                ctx.seed(),
                self.attempt
            ),
            FaultKind::TransientErr(k) if self.attempt < k => panic!(
                "injected fault: transient error {}/{k} (id={}, seed={})",
                self.attempt + 1,
                self.id,
                ctx.seed()
            ),
            FaultKind::TransientErr(_) => self.inner.run(ctx),
            FaultKind::Delay(ms) => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.run(ctx)
            }
            FaultKind::CorruptTrail => {
                self.inner.run(ctx);
                let nonce =
                    self.plan.corruption_nonce(self.id, ctx.seed(), self.attempt, self.replica);
                // An integer-valued f64 (never NaN) so trail equality
                // behaves; replica-keyed so the two verification replicas
                // disagree and the corruption is *caught*.
                ctx.record("__injected_trail_corruption", (nonce >> 11) as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_once, Params};

    struct Echo;
    impl Experiment for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn run(&self, ctx: &mut RunContext) {
            let mut rng = ctx.rng("draws");
            ctx.record("x", rng.next_f64());
        }
    }

    #[test]
    fn draws_are_deterministic_and_rate_scaled() {
        let plan = FaultPlan::new(7, 0.25);
        let again = FaultPlan::new(7, 0.25);
        let ids = ["A", "B", "C", "D"];
        let mut faulted = 0usize;
        for id in ids {
            for seed in 0..200u64 {
                assert_eq!(plan.fault_for(id, seed), again.fault_for(id, seed));
                if plan.fault_for(id, seed).is_some() {
                    faulted += 1;
                }
            }
        }
        let frac = faulted as f64 / 800.0;
        assert!((0.15..0.35).contains(&frac), "injection rate off target: {frac}");
        // A different plan seed redraws.
        let other = FaultPlan::new(8, 0.25);
        assert!(
            (0..200u64).any(|s| plan.fault_for("A", s) != other.fault_for("A", s)),
            "plan seed must matter"
        );
    }

    #[test]
    fn zero_rate_injects_nothing_and_targets_always_panic() {
        let plan = FaultPlan::new(1, 0.0).and_panic_on("bad");
        for seed in 0..50u64 {
            assert_eq!(plan.fault_for("ok", seed), None);
            assert_eq!(plan.fault_for("bad", seed), Some(FaultKind::Panic));
        }
        assert!(!plan.is_transient_only());
        assert_eq!(plan.first_clean_attempt("bad", 3), None);
    }

    #[test]
    fn transient_plans_converge_within_the_advertised_budget() {
        let plan = FaultPlan::transient(11, 0.3);
        assert!(plan.is_transient_only());
        let budget = plan.max_transient_attempts();
        assert_eq!(budget, 3);
        for seed in 0..100u64 {
            let first = plan.first_clean_attempt("X", seed).expect("transient plans always clear");
            assert!(first <= budget, "clean attempt {first} exceeds budget {budget}");
        }
    }

    #[test]
    fn fingerprint_covers_seed_rate_menu_and_targets() {
        let base = FaultPlan::new(1, 0.2);
        assert_eq!(base.fingerprint(), FaultPlan::new(1, 0.2).fingerprint());
        assert_ne!(base.fingerprint(), FaultPlan::new(2, 0.2).fingerprint());
        assert_ne!(base.fingerprint(), FaultPlan::new(1, 0.3).fingerprint());
        assert_ne!(base.fingerprint(), FaultPlan::transient(1, 0.2).fingerprint());
        assert_ne!(base.fingerprint(), FaultPlan::new(1, 0.2).and_panic_on("x").fingerprint());
    }

    #[test]
    fn adapter_is_transparent_for_unfaulted_runs() {
        let plan = FaultPlan::new(1, 0.0);
        let plain = run_once(&Echo, 5, Params::new());
        let wrapped = run_once(&FaultyExperiment::new(&Echo, &plan, "E", 0, 0), 5, Params::new());
        assert_eq!(plain.trail, wrapped.trail, "no fault drawn ⇒ bitwise-identical trail");
        assert_eq!(wrapped.name, "echo");
    }

    #[test]
    fn transient_fault_panics_then_clears() {
        let plan = FaultPlan::with_menu(3, 1.0, vec![FaultKind::TransientErr(2)]);
        let attempt0 = std::panic::catch_unwind(|| {
            run_once(&FaultyExperiment::new(&Echo, &plan, "E", 0, 0), 5, Params::new())
        });
        assert!(attempt0.is_err(), "attempt 0 must fail");
        let attempt2 = run_once(&FaultyExperiment::new(&Echo, &plan, "E", 2, 0), 5, Params::new());
        let plain = run_once(&Echo, 5, Params::new());
        assert_eq!(attempt2.trail, plain.trail, "post-transient run is fault-free bitwise");
    }

    #[test]
    fn corrupt_trail_diverges_across_replicas() {
        let plan = FaultPlan::with_menu(3, 1.0, vec![FaultKind::CorruptTrail]);
        let a = run_once(&FaultyExperiment::new(&Echo, &plan, "E", 0, 0), 5, Params::new());
        let b = run_once(&FaultyExperiment::new(&Echo, &plan, "E", 0, 1), 5, Params::new());
        assert_ne!(a.trail, b.trail, "replica-keyed corruption must be caught as a mismatch");
        // But each replica's corruption is itself deterministic.
        let a2 = run_once(&FaultyExperiment::new(&Echo, &plan, "E", 0, 0), 5, Params::new());
        assert_eq!(a.trail, a2.trail);
    }

    #[test]
    fn soak_schedule_is_seeded_phased_and_transient_only() {
        let sched = SoakSchedule::new(42, 0.25, 12);
        let again = SoakSchedule::new(42, 0.25, 12);
        assert_eq!(sched.plan_for(0), None, "epoch 0 is always the clean warmup");
        let mut faulted_epochs = 0usize;
        let mut distinct = std::collections::BTreeSet::new();
        for e in 0..12 {
            assert_eq!(sched.plan_for(e), again.plan_for(e), "replays must agree");
            if let Some(plan) = sched.plan_for(e) {
                faulted_epochs += 1;
                assert!(plan.is_transient_only(), "epoch {e} plan must be recoverable");
                assert!(plan.rate() > 0.0 && plan.rate() <= 0.375, "0.5x..1.5x of base");
                distinct.insert(plan.fingerprint());
            }
        }
        assert!(faulted_epochs >= 4, "most epochs apply pressure: {faulted_epochs}/12");
        assert!(faulted_epochs < 11, "some epochs are clean troughs: {faulted_epochs}/12");
        assert!(distinct.len() >= 2, "fault classes must actually phase in and out");
        assert!(sched.retry_budget() <= 3);
        assert!(sched.retry_budget() >= 1, "pressure epochs need a real budget");
        // A different schedule seed re-phases the epochs.
        let other = SoakSchedule::new(43, 0.25, 12);
        assert!(
            (0..12).any(|e| sched.plan_for(e) != other.plan_for(e)),
            "schedule seed must matter"
        );
        assert_ne!(sched.fingerprint(), other.fingerprint());
    }

    #[test]
    fn soak_schedule_zero_rate_is_entirely_clean() {
        let sched = SoakSchedule::new(5, 0.0, 8);
        assert!((0..8).all(|e| sched.plan_for(e).is_none()));
        assert_eq!(sched.retry_budget(), 0);
    }

    #[test]
    fn kill_plan_is_seeded_rate_scaled_and_mid_shard() {
        let plan = KillPlan::new(9);
        let again = KillPlan::new(9);
        let mut killed = 0usize;
        for w in 0..8usize {
            for k in 0..25u32 {
                assert_eq!(plan.kill_on_dispatch(w, k), again.kill_on_dispatch(w, k));
                if let Some(n) = plan.kill_on_dispatch(w, k) {
                    killed += 1;
                    assert!((1..=2).contains(&n), "kill point must be an early shard: {n}");
                }
            }
        }
        let frac = killed as f64 / 200.0;
        assert!((0.35..0.65).contains(&frac), "kill rate off the 0.5 target: {frac}");
        // Rate 0 spares everyone; rate 1 kills every incarnation.
        assert!((0..20).all(|k| KillPlan::with_rate(9, 0.0).kill_on_dispatch(0, k).is_none()));
        assert!((0..20).all(|k| KillPlan::with_rate(9, 1.0).kill_on_dispatch(0, k).is_some()));
        // Seed matters.
        let other = KillPlan::new(10);
        assert!((0..25u32).any(|k| plan.kill_on_dispatch(0, k) != other.kill_on_dispatch(0, k)));
        assert_ne!(plan.fingerprint(), other.fingerprint());
        assert_ne!(plan.fingerprint(), KillPlan::with_rate(9, 1.0).fingerprint());
    }

    #[test]
    fn plan_menu_and_targets_are_observable_for_the_wire() {
        let plan = FaultPlan::transient(3, 0.2).and_panic_on("bad");
        assert_eq!(plan.menu().len(), 3);
        assert!(plan.menu().iter().all(|k| matches!(k, FaultKind::TransientErr(_))));
        assert_eq!(plan.targets(), ["bad".to_string()]);
        let rebuilt = FaultPlan::with_menu(plan.seed(), plan.rate(), plan.menu().to_vec())
            .and_panic_on("bad");
        assert_eq!(rebuilt, plan, "accessors must suffice to reconstruct a plan bitwise");
        assert_eq!(rebuilt.fingerprint(), plan.fingerprint());
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        for attempt in 1..8u32 {
            let a = backoff_millis(attempt, "E", 7);
            assert_eq!(a, backoff_millis(attempt, "E", 7), "jitter must be seeded, not sampled");
        }
        assert_eq!(backoff_millis(0, "E", 7), 0, "attempt 0 never sleeps");
        let late = backoff_millis(5, "E", 7);
        assert!((32..=48).contains(&late), "base 32 + jitter <= span: {late}");
        assert!(backoff_millis(1, "A", 1) <= 3, "first retry stays within base 2 + jitter");
    }
}
