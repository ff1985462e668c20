//! `treu soak` — sustained multi-tenant chaos soak over a bounded cache.
//!
//! One-shot drills (`treu chaos`, `treu verify`) prove the harness
//! survives a single pass; the reproducibility@XSEDE experience the
//! ROADMAP tracks says shared-infrastructure reproduction fails in the
//! *sustained, multi-tenant* regime — queues back up behind hot users,
//! caches churn, faults arrive in phases, and drift creeps in over hours
//! rather than minutes. This module simulates exactly that regime while
//! keeping every observable deterministic:
//!
//! * **Traffic** is Zipf-distributed over seeded tenant ids: a pure
//!   function of `(soak seed, submission index)` maps each submission to
//!   a tenant, and each tenant to a small preferred pool of registry
//!   experiments and run seeds — hot tenants re-request hot keys, which
//!   is what gives a bounded cache a steady state to converge to.
//! * **Dispatch** drains per-tenant FIFOs through
//!   [`FairQueue`]: rounds of `capacity` slots, at most
//!   `quota` per tenant per round, so a flooding tenant inflates its own
//!   tail latency and nobody else's.
//! * **Execution** is supervised under an epoch-phased
//!   [`SoakSchedule`]: fault classes cycle in and out across epochs,
//!   transient-only, with the retry budget sized so every run converges
//!   to its fault-free bits.
//! * **Each dispatch round is one run [`Batch`]** over the round's
//!   `(id, seed)` submissions, through the same pipeline as `treu run`:
//!   its coordinator looks up every submission, computes the misses in
//!   parallel and stores them, all cache traffic on the driver thread in
//!   dispatch order. The cache runs under a hard [`CacheBound`] with
//!   logical-clock LRU eviction, so eviction decisions are identical at
//!   every `--jobs` count.
//! * **Latencies are logical**: a submission's latency is the dispatch
//!   round that served it (1-based), a pure function of queue state.
//!   p50/p99 are therefore reproducible numbers, not wall-clock noise.
//!
//! Every served submission appends one line to a logical trace; its FNV
//! content address is the soak's identity. The acceptance criterion is
//! that this address — which covers every fingerprint the soak saw — is
//! bitwise-identical across job counts *and* to the fault-free baseline
//! soak (same config at rate 0): chaos may cost attempts, never results.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;
use treu_core::batch::{Batch, Dispatch, Mode};
use treu_core::cache::{CacheBound, RunCache};
use treu_core::exec::{Executor, RunOutcome, RunReport, SupervisePolicy};
use treu_core::experiment::Params;
use treu_core::fault::SoakSchedule;
use treu_core::ExperimentRegistry;

// Traffic shapes are drawn from the canonical separator-mixed FNV-1a
// fold — the same construction the run cache uses for its addresses.
use treu_core::hash::{fnv64_parts, unit};

/// Soak shape: how much traffic, from whom, under how much pressure.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Master seed for traffic generation (tenant draws, key pools).
    pub seed: u64,
    /// Number of simulated tenants.
    pub tenants: usize,
    /// Submissions generated per epoch.
    pub submissions_per_epoch: usize,
    /// Number of fault epochs (epoch 0 is always clean).
    pub epochs: u32,
    /// Dispatch slots per scheduling round.
    pub capacity: usize,
    /// Per-tenant slot quota per round.
    pub quota: usize,
    /// Zipf skew exponent for the tenant popularity curve.
    pub zipf_s: f64,
    /// Size of each tenant's preferred experiment pool.
    pub ids_per_tenant: usize,
    /// Size of each tenant's run-seed pool (smaller ⇒ hotter keys).
    pub seeds_per_tenant: usize,
    /// Seed of the epoch-phased fault schedule.
    pub fault_seed: u64,
    /// Base fault injection rate (0 ⇒ the fault-free baseline soak).
    pub fault_rate: f64,
    /// Cache bound the soak runs under.
    pub bound: CacheBound,
    /// Executor worker count for the compute phase.
    pub jobs: usize,
}

impl SoakConfig {
    /// The CI drill shape: small enough for seconds, large enough that
    /// the bound forces evictions and the hit-rate has a steady state.
    pub fn quick(jobs: usize) -> Self {
        Self {
            seed: 42,
            tenants: 6,
            submissions_per_epoch: 96,
            epochs: 4,
            capacity: 16,
            quota: 4,
            zipf_s: 1.1,
            ids_per_tenant: 3,
            seeds_per_tenant: 3,
            fault_seed: 7,
            fault_rate: 0.2,
            bound: CacheBound::entries(24),
            jobs,
        }
    }

    /// The sustained shape: more tenants, more epochs, longer tail.
    pub fn full(jobs: usize) -> Self {
        Self {
            seed: 42,
            tenants: 12,
            submissions_per_epoch: 400,
            epochs: 8,
            capacity: 24,
            quota: 4,
            zipf_s: 1.1,
            ids_per_tenant: 4,
            seeds_per_tenant: 4,
            fault_seed: 7,
            fault_rate: 0.25,
            bound: CacheBound::entries(64),
            jobs,
        }
    }

    /// Total submissions across all epochs.
    pub fn total_submissions(&self) -> usize {
        self.submissions_per_epoch * self.epochs as usize
    }
}

/// One generated submission: a tenant asking for one `(id, seed)` run.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// Global submission index (generation order).
    pub index: usize,
    /// Epoch this submission belongs to.
    pub epoch: u32,
    /// Tenant id in `0..cfg.tenants`.
    pub tenant: u64,
    /// Registry experiment id.
    pub id: String,
    /// Run seed, drawn from the tenant's bounded seed pool.
    pub seed: u64,
}

/// Draws the tenant for global submission `index`: inverse-CDF over the
/// Zipf weights `w_k ∝ 1/(k+1)^s`. Pure function of `(cfg.seed, index)`.
fn draw_tenant(cfg: &SoakConfig, index: usize) -> u64 {
    let weights: Vec<f64> =
        (0..cfg.tenants).map(|k| 1.0 / ((k + 1) as f64).powf(cfg.zipf_s)).collect();
    let total: f64 = weights.iter().sum();
    let u =
        unit(fnv64_parts(&[b"soak-tenant", &cfg.seed.to_le_bytes(), &index.to_le_bytes()])) * total;
    let mut acc = 0.0;
    for (k, w) in weights.iter().enumerate() {
        acc += w;
        if u < acc {
            return k as u64;
        }
    }
    (cfg.tenants - 1) as u64
}

/// Generates the soak's full submission stream against the given
/// experiment id pool. Deterministic: a pure function of `(cfg, ids)`.
pub fn generate(cfg: &SoakConfig, ids: &[String]) -> Vec<Submission> {
    assert!(!ids.is_empty(), "soak needs a non-empty experiment pool");
    let per_epoch = cfg.submissions_per_epoch;
    let mut subs = Vec::with_capacity(cfg.total_submissions());
    for index in 0..cfg.total_submissions() {
        let epoch = (index / per_epoch) as u32;
        let tenant = draw_tenant(cfg, index);
        // The tenant's preferred experiment pool: `ids_per_tenant`
        // deterministic picks from the registry (repeats allowed — they
        // just make that tenant hotter on fewer keys).
        let slot_count = cfg.ids_per_tenant.max(1);
        let pick = fnv64_parts(&[b"soak-id", &cfg.seed.to_le_bytes(), &index.to_le_bytes()]);
        let slot = (pick % slot_count as u64) as usize;
        let id_ix = fnv64_parts(&[
            b"soak-pref",
            &cfg.seed.to_le_bytes(),
            &tenant.to_le_bytes(),
            &slot.to_le_bytes(),
        ]) % ids.len() as u64;
        let id = ids[id_ix as usize].clone();
        // Run seed from the tenant's bounded pool, so repeat requests
        // address the same cache entries.
        let seed_slot =
            fnv64_parts(&[b"soak-seed-slot", &cfg.seed.to_le_bytes(), &index.to_le_bytes()])
                % cfg.seeds_per_tenant.max(1) as u64;
        let seed = fnv64_parts(&[
            b"soak-run-seed",
            &cfg.seed.to_le_bytes(),
            &tenant.to_le_bytes(),
            &seed_slot.to_le_bytes(),
        ]) % 100_000;
        subs.push(Submission { index, epoch, tenant, id, seed });
    }
    subs
}

/// What one soak run measured. Everything except `wall_seconds` and
/// `retried` is bitwise-identical across job counts and fault rates
/// (retries are chaos-visible, results are not).
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Echo of the configuration that produced this report.
    pub config: SoakConfig,
    /// Submissions served (hits + computed).
    pub served: u64,
    /// Served from the cache.
    pub hits: u64,
    /// Served by computing.
    pub computed: u64,
    /// Runs whose first attempt failed but a retry rescued (chaos cost).
    pub retried: u64,
    /// Runs that exhausted the supervision budget (must be 0 for
    /// transient-only schedules).
    pub quarantined: u64,
    /// Fingerprint mismatches against the clean baseline (must be 0).
    pub drift: u64,
    /// Cache evictions across the soak.
    pub evictions: u64,
    /// Cache stores that failed to write (the run was still served).
    pub failed_stores: u64,
    /// Total dispatch rounds.
    pub rounds: u64,
    /// p50 logical service latency, in rounds.
    pub p50_latency_rounds: u64,
    /// p99 logical service latency, in rounds.
    pub p99_latency_rounds: u64,
    /// Worst per-tenant max latency (the fairness headline).
    pub worst_tenant_latency_rounds: u64,
    /// Hit-rate per epoch, in epoch order.
    pub epoch_hit_rates: Vec<f64>,
    /// Final-epoch hit-rate — the steady state the cache converged to.
    pub steady_hit_rate: f64,
    /// FNV content address of the logical trace (covers every served
    /// fingerprint and the eviction log).
    pub trace_address: u64,
    /// FNV address of the eviction log alone.
    pub eviction_address: u64,
    /// Resident cache entries at the end, in canonical order.
    pub final_entries: Vec<String>,
    /// Per-tenant accounting.
    pub ledger: TenantLedger,
    /// Content address of the fault schedule that was active.
    pub schedule_fingerprint: u64,
    /// Wall time of the whole soak (reporting only; never a result).
    pub wall_seconds: f64,
}

impl SoakReport {
    /// True when the soak met the zero-drift acceptance criterion.
    pub fn zero_drift(&self) -> bool {
        self.drift == 0 && self.quarantined == 0
    }

    /// Human summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "soak: {} submission(s), {} tenant(s), {} epoch(s), jobs={}, bound {} entr(ies)/{} byte(s)\n",
            self.served,
            self.config.tenants,
            self.config.epochs,
            self.config.jobs,
            self.config.bound.max_entries,
            self.config.bound.max_bytes,
        ));
        for (e, rate) in self.epoch_hit_rates.iter().enumerate() {
            out.push_str(&format!("  epoch {e}: hit-rate {rate:.3}\n"));
        }
        out.push_str(&format!(
            "  latency: p50 {} / p99 {} round(s); worst tenant max {} round(s) over {} round(s)\n",
            self.p50_latency_rounds,
            self.p99_latency_rounds,
            self.worst_tenant_latency_rounds,
            self.rounds,
        ));
        out.push_str(&format!(
            "  cache: steady-state hit-rate {:.3}, {} eviction(s), {} resident",
            self.steady_hit_rate,
            self.evictions,
            self.final_entries.len(),
        ));
        if self.failed_stores > 0 {
            out.push_str(&format!(", {} failed store(s)", self.failed_stores));
        }
        out.push('\n');
        out.push_str(&format!(
            "  chaos: {} retried, {} quarantined, drift {} — zero drift: {}\n",
            self.retried,
            self.quarantined,
            self.drift,
            self.zero_drift(),
        ));
        out.push_str(&format!("  trace address {:#018x}\n", self.trace_address));
        out.push_str(&self.ledger.render());
        out
    }

    /// Machine-readable JSON (`BENCH_soak.json`), hand-rolled like the
    /// other bench emitters — no serde in the dependency budget.
    pub fn render_json(&self) -> String {
        let rates: Vec<String> = self.epoch_hit_rates.iter().map(|r| format!("{r:.6}")).collect();
        format!(
            "{{\n  \"bench\": \"soak/multi-tenant\",\n  \"seed\": {seed},\n  \
             \"tenants\": {tenants},\n  \"epochs\": {epochs},\n  \
             \"submissions\": {subs},\n  \"capacity\": {capacity},\n  \
             \"quota\": {quota},\n  \"jobs\": {jobs},\n  \
             \"cache_max_entries\": {maxe},\n  \"cache_max_bytes\": {maxb},\n  \
             \"fault_rate\": {rate:.4},\n  \"served\": {served},\n  \
             \"hits\": {hits},\n  \"computed\": {computed},\n  \
             \"retried\": {retried},\n  \"quarantined\": {quarantined},\n  \
             \"drift\": {drift},\n  \"evictions\": {evictions},\n  \
             \"rounds\": {rounds},\n  \"p50_latency_rounds\": {p50},\n  \
             \"p99_latency_rounds\": {p99},\n  \
             \"worst_tenant_latency_rounds\": {worst},\n  \
             \"epoch_hit_rates\": [{rates}],\n  \
             \"steady_hit_rate\": {steady:.6},\n  \
             \"zero_drift\": {zero},\n  \
             \"trace_address\": \"{trace:#018x}\",\n  \
             \"eviction_address\": \"{evaddr:#018x}\",\n  \
             \"schedule_fingerprint\": \"{sched:#018x}\",\n  \
             \"wall_seconds\": {wall:.6}\n}}\n",
            seed = self.config.seed,
            tenants = self.config.tenants,
            epochs = self.config.epochs,
            subs = self.served,
            capacity = self.config.capacity,
            quota = self.config.quota,
            jobs = self.config.jobs,
            maxe = self.config.bound.max_entries,
            maxb = self.config.bound.max_bytes,
            rate = self.config.fault_rate,
            served = self.served,
            hits = self.hits,
            computed = self.computed,
            retried = self.retried,
            quarantined = self.quarantined,
            drift = self.drift,
            evictions = self.evictions,
            rounds = self.rounds,
            p50 = self.p50_latency_rounds,
            p99 = self.p99_latency_rounds,
            worst = self.worst_tenant_latency_rounds,
            rates = rates.join(", "),
            steady = self.steady_hit_rate,
            zero = self.zero_drift(),
            trace = self.trace_address,
            evaddr = self.eviction_address,
            sched = self.schedule_fingerprint,
            wall = self.wall_seconds,
        )
    }
}

/// Nearest-rank (ceil) quantile over an ascending-sorted sample.
///
/// The rank is `ceil(q * n)` clamped to `1..=n`, so `q = 0.99` answers
/// "the smallest value at or above which 99% of samples sit". The
/// tempting truncating form `(n * 99) / 100` is an off-by-one below 100
/// samples — at `n = 3` it indexes the *median* instead of the maximum —
/// which is exactly the kind of silent small-sample skew a
/// reproducibility report cannot afford. Used by
/// [`TenantLedger::latency_quantile`], which the soak report reads.
fn quantile_ceil_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Per-tenant accounting for a sustained multi-tenant run.
///
/// Latencies are **logical**: measured in dispatch rounds (a pure count
/// of scheduler iterations), never wall time, so fairness numbers are
/// part of the reproducible record like everything else.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantStats {
    /// Submissions enqueued for this tenant.
    pub submitted: u64,
    /// Submissions served (from cache or computed).
    pub served: u64,
    /// Served from the run cache.
    pub cache_hits: u64,
    /// Served by computing (supervised execution).
    pub computed: u64,
    /// Worst service latency, in dispatch rounds (1 = served in the
    /// round it became eligible).
    pub max_latency_rounds: u64,
    /// Sum of service latencies, for the mean.
    pub total_latency_rounds: u64,
}

impl TenantStats {
    /// Mean service latency in rounds (0 when nothing served yet).
    pub fn mean_latency_rounds(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.total_latency_rounds as f64 / self.served as f64
        }
    }
}

/// Deterministic per-tenant ledger: a `BTreeMap` keyed by tenant id, so
/// iteration, rendering and hashing are canonical.
#[derive(Debug, Clone, Default)]
pub struct TenantLedger {
    tenants: BTreeMap<u64, TenantStats>,
    // Pooled across tenants ([`TenantStats`] stays `Copy`); one entry per
    // served submission, in service order.
    latencies: Vec<u64>,
}

impl TenantLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one enqueued submission.
    pub fn note_submitted(&mut self, tenant: u64) {
        self.tenants.entry(tenant).or_default().submitted += 1;
    }

    /// Records one served submission with its logical latency.
    pub fn note_served(&mut self, tenant: u64, latency_rounds: u64, from_cache: bool) {
        let t = self.tenants.entry(tenant).or_default();
        t.served += 1;
        if from_cache {
            t.cache_hits += 1;
        } else {
            t.computed += 1;
        }
        t.max_latency_rounds = t.max_latency_rounds.max(latency_rounds);
        t.total_latency_rounds += latency_rounds;
        self.latencies.push(latency_rounds);
    }

    /// This tenant's stats (zeroed when unknown).
    pub fn get(&self, tenant: u64) -> TenantStats {
        self.tenants.get(&tenant).copied().unwrap_or_default()
    }

    /// Tenants in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &TenantStats)> {
        self.tenants.iter().map(|(t, s)| (*t, s))
    }

    /// Number of tenants seen.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenant has been recorded.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The worst per-tenant maximum latency — the fairness headline: with
    /// quotas on, a hot tenant's backlog raises *its own* number, not
    /// everyone else's.
    pub fn worst_latency_rounds(&self) -> u64 {
        self.tenants.values().map(|t| t.max_latency_rounds).max().unwrap_or(0)
    }

    /// Ceil-rank `q`-quantile of service latency pooled across all
    /// tenants (0 when nothing served). At small n the p99 is the maximum,
    /// never a smaller rank — see `quantile_ceil_rank`.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        quantile_ceil_rank(&sorted, q)
    }

    /// Per-tenant table for reports.
    pub fn render(&self) -> String {
        let mut out = String::from("  tenant      served    hits  computed  mean-lat  max-lat\n");
        for (tenant, t) in self.iter() {
            out.push_str(&format!(
                "  {:<10} {:>7} {:>7} {:>9} {:>9.2} {:>8}\n",
                format!("t{tenant}"),
                t.served,
                t.cache_hits,
                t.computed,
                t.mean_latency_rounds(),
                t.max_latency_rounds
            ));
        }
        out
    }
}

/// A deterministic weighted-round-robin dispatch queue: per-tenant FIFO
/// sub-queues, drained in rounds that interleave tenants so one hot
/// tenant can never occupy more than its quota of any round.
///
/// Scheduling is a pure function of queue state — tenants are visited in
/// ascending id order, one item per tenant per rotation, rotations
/// repeat up to the quota — so every schedule replays bitwise and the
/// soak's eviction/trace determinism can stand on top of it.
#[derive(Debug, Clone)]
pub struct FairQueue<T> {
    queues: BTreeMap<u64, VecDeque<T>>,
    quota: usize,
}

impl<T> FairQueue<T> {
    /// A queue granting each tenant up to `quota` slots per round
    /// (`quota` is clamped to at least 1).
    pub fn new(quota: usize) -> Self {
        Self { queues: BTreeMap::new(), quota: quota.max(1) }
    }

    /// The per-round per-tenant slot quota.
    pub fn quota(&self) -> usize {
        self.quota
    }

    /// Enqueues `item` at the back of `tenant`'s FIFO.
    pub fn push(&mut self, tenant: u64, item: T) {
        self.queues.entry(tenant).or_default().push_back(item);
    }

    /// Total queued items across tenants.
    pub fn len(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }

    /// True when every tenant's queue is drained.
    pub fn is_empty(&self) -> bool {
        self.queues.values().all(VecDeque::is_empty)
    }

    /// Drains the next dispatch round: up to `capacity` items, at most
    /// `quota` per tenant, interleaved one-per-tenant in ascending id
    /// order so the quota cut never biases toward low tenant ids.
    /// Returns `(tenant, item)` pairs in dispatch order.
    pub fn next_round(&mut self, capacity: usize) -> Vec<(u64, T)> {
        let mut round = Vec::new();
        for _rotation in 0..self.quota {
            if round.len() >= capacity {
                break;
            }
            let mut progressed = false;
            let tenants: Vec<u64> = self.queues.keys().copied().collect();
            for tenant in tenants {
                if round.len() >= capacity {
                    break;
                }
                if let Some(q) = self.queues.get_mut(&tenant) {
                    if let Some(item) = q.pop_front() {
                        round.push((tenant, item));
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        self.queues.retain(|_, q| !q.is_empty());
        round
    }
}

/// Computes (or replays) the clean-baseline fingerprint for a key. The
/// baseline is always a fresh, unsupervised, fault-free run — the bits
/// every cached or chaos-computed result must match.
fn baseline_fingerprint(
    reg: &ExperimentRegistry,
    params_of: &dyn Fn(&str, Params) -> Params,
    memo: &mut BTreeMap<(String, u64), u64>,
    id: &str,
    seed: u64,
) -> u64 {
    if let Some(fp) = memo.get(&(id.to_string(), seed)) {
        return *fp;
    }
    let entry = reg.get(id).expect("soak submissions target registered ids");
    let params = params_of(id, entry.defaults.clone());
    let rec = reg.run_with(id, seed, params).expect("registered id runs");
    let fp = rec.fingerprint();
    memo.insert((id.to_string(), seed), fp);
    fp
}

/// Runs the soak: Zipf traffic through fair dispatch, one supervised run
/// batch per round under the epoch schedule, bounded cache in the middle.
///
/// `cache` should be opened with `cfg.bound` on an empty directory; the
/// report's determinism claims are over cache operation order, which
/// each round's batch serializes (lookups, then parallel compute, then
/// stores, all in dispatch order) so the `--jobs` count cannot leak into
/// eviction decisions.
pub fn run_soak(
    reg: &ExperimentRegistry,
    params_of: &dyn Fn(&str, Params) -> Params,
    cfg: &SoakConfig,
    cache: &RunCache,
) -> SoakReport {
    // treu-lint: allow(wall-clock, reason = "soak wall time is report-only; every result metric is logical")
    let t0 = Instant::now();
    let ids: Vec<String> = reg.iter().map(|(id, _)| id.to_string()).collect();
    let subs = generate(cfg, &ids);
    let schedule = SoakSchedule::new(cfg.fault_seed, cfg.fault_rate, cfg.epochs);
    let policy = SupervisePolicy::new(schedule.retry_budget());
    let exec = Executor::new(cfg.jobs).with_tracing(false);

    let mut memo: BTreeMap<(String, u64), u64> = BTreeMap::new();
    let mut ledger = TenantLedger::new();
    let mut trace = String::new();
    let mut epoch_hit_rates = Vec::new();
    let (mut retried, mut quarantined, mut drift, mut rounds) = (0u64, 0u64, 0u64, 0u64);

    for epoch in 0..cfg.epochs {
        let plan = schedule.plan_for(epoch);
        let mut q = FairQueue::new(cfg.quota);
        for sub in subs.iter().filter(|s| s.epoch == epoch) {
            ledger.note_submitted(sub.tenant);
            q.push(sub.tenant, sub);
        }
        let mut epoch_round = 0u64;
        let (mut epoch_hits, mut epoch_served) = (0u64, 0u64);
        while !q.is_empty() {
            let round = q.next_round(cfg.capacity);
            epoch_round += 1;
            rounds += 1;

            let batch = Batch {
                runs: Some(round.iter().map(|(_, sub)| (sub.id.clone(), sub.seed)).collect()),
                params: params_of,
                cache: Some(cache),
                policy,
                plan: plan.as_ref(),
                ..Batch::new(Mode::Run, cfg.seed)
            };
            let out = batch.execute(reg, Dispatch::InProcess(&exec));
            let RunReport { outcomes, cached, .. } =
                out.expect("in-process dispatch does no fallible I/O").report.into_run();

            // Hit lines first, then computed and quarantined ones, each
            // group in dispatch order.
            let (served_hits, rest): (Vec<_>, Vec<_>) =
                round.iter().zip(outcomes).zip(cached).partition(|(_, hit)| *hit);
            for (((tenant, sub), (_, outcome)), hit) in served_hits.into_iter().chain(rest) {
                let how = match outcome {
                    RunOutcome::Ok { record, attempts } => {
                        let fp = record.fingerprint();
                        if fp != baseline_fingerprint(reg, params_of, &mut memo, &sub.id, sub.seed)
                        {
                            drift += 1;
                        }
                        if attempts > 1 {
                            retried += 1;
                        }
                        epoch_hits += u64::from(hit);
                        epoch_served += 1;
                        ledger.note_served(*tenant, epoch_round, hit);
                        format!("{} fp={fp:016x}", if hit { "hit" } else { "computed" })
                    }
                    RunOutcome::Failed(f) => {
                        quarantined += 1;
                        format!("quarantined taxonomy={}", f.taxonomy.name())
                    }
                };
                trace.push_str(&format!(
                    "sub={} epoch={epoch} round={epoch_round} tenant={tenant} id={} seed={} {how}\n",
                    sub.index, sub.id, sub.seed
                ));
            }
        }
        epoch_hit_rates.push(if epoch_served == 0 {
            0.0
        } else {
            epoch_hits as f64 / epoch_served as f64
        });
    }

    // The eviction log joins the trace so eviction *order* is part of
    // the soak's identity, not just its count.
    for name in cache.eviction_log() {
        trace.push_str(&format!("evict={name}\n"));
    }
    let trace_address = fnv64_parts(&[trace.as_bytes()]);

    let steady_hit_rate = epoch_hit_rates.last().copied().unwrap_or(0.0);
    let stats = cache.stats();
    let (hits, computed) =
        ledger.iter().fold((0, 0), |(h, c), (_, t)| (h + t.cache_hits, c + t.computed));
    SoakReport {
        config: cfg.clone(),
        served: hits + computed,
        hits,
        computed,
        retried,
        quarantined,
        drift,
        evictions: stats.evictions,
        failed_stores: stats.failed_stores,
        rounds,
        p50_latency_rounds: ledger.latency_quantile(0.50),
        p99_latency_rounds: ledger.latency_quantile(0.99),
        worst_tenant_latency_rounds: ledger.worst_latency_rounds(),
        epoch_hit_rates,
        steady_hit_rate,
        trace_address,
        eviction_address: cache.eviction_fingerprint(),
        final_entries: cache.resident_entries(),
        ledger,
        schedule_fingerprint: schedule.fingerprint(),
        wall_seconds: t0.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SoakConfig {
        SoakConfig::quick(2)
    }

    /// Flattens a submission-order tenant sequence into fair dispatch order:
    /// the order [`FairQueue`] with the given `quota` and unbounded round
    /// capacity would serve it. Returns indices into `tenants`, so
    /// fairness is testable as a pure permutation, independent of the soak.
    fn fair_interleave(tenants: &[u64], quota: usize) -> Vec<usize> {
        let mut q = FairQueue::new(quota);
        for (i, &t) in tenants.iter().enumerate() {
            q.push(t, i);
        }
        let mut order = Vec::with_capacity(tenants.len());
        while !q.is_empty() {
            order.extend(q.next_round(usize::MAX).into_iter().map(|(_, i)| i));
        }
        order
    }

    #[test]
    fn generation_is_deterministic_and_well_formed() {
        let ids: Vec<String> = ["A", "B", "C", "D"].iter().map(|s| s.to_string()).collect();
        let cfg = quick();
        let a = generate(&cfg, &ids);
        let b = generate(&cfg, &ids);
        assert_eq!(a, b, "traffic is a pure function of the config");
        assert_eq!(a.len(), cfg.total_submissions());
        for s in &a {
            assert!((s.tenant as usize) < cfg.tenants);
            assert!(ids.contains(&s.id));
            assert_eq!(s.epoch, (s.index / cfg.submissions_per_epoch) as u32);
        }
        let mut other_seed = cfg.clone();
        other_seed.seed = 43;
        assert_ne!(generate(&other_seed, &ids), a, "the soak seed must matter");
    }

    #[test]
    fn tenant_draw_is_zipf_skewed() {
        let cfg = quick();
        let mut counts = vec![0usize; cfg.tenants];
        for i in 0..4000 {
            counts[draw_tenant(&cfg, i) as usize] += 1;
        }
        assert!(
            counts[0] > 2 * counts[cfg.tenants - 1],
            "head tenant must dominate the tail: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0), "every tenant gets traffic: {counts:?}");
        let head_share = counts[0] as f64 / 4000.0;
        assert!((0.30..0.60).contains(&head_share), "s=1.1 head share off: {head_share}");
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        assert_eq!(quantile_ceil_rank(&[], 0.5), 0);
        assert_eq!(quantile_ceil_rank(&[7], 0.5), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_ceil_rank(&v, 0.50), 50);
        assert_eq!(quantile_ceil_rank(&v, 0.99), 99);
        assert_eq!(quantile_ceil_rank(&v, 1.0), 100);
    }

    #[test]
    fn report_json_carries_the_acceptance_fields() {
        let cfg = quick();
        let report = SoakReport {
            config: cfg,
            served: 10,
            hits: 6,
            computed: 4,
            retried: 1,
            quarantined: 0,
            drift: 0,
            evictions: 3,
            failed_stores: 0,
            rounds: 5,
            p50_latency_rounds: 1,
            p99_latency_rounds: 4,
            worst_tenant_latency_rounds: 4,
            epoch_hit_rates: vec![0.25, 0.75],
            steady_hit_rate: 0.75,
            trace_address: 0xDEAD,
            eviction_address: 0xBEEF,
            final_entries: vec![],
            ledger: TenantLedger::new(),
            schedule_fingerprint: 0x1234,
            wall_seconds: 0.5,
        };
        let json = report.render_json();
        for field in [
            "\"steady_hit_rate\": 0.750000",
            "\"p50_latency_rounds\": 1",
            "\"p99_latency_rounds\": 4",
            "\"trace_address\": \"0x000000000000dead\"",
            "\"zero_drift\": true",
            "\"evictions\": 3",
        ] {
            assert!(json.contains(field), "missing {field} in:\n{json}");
        }
        assert!(report.render().contains("steady-state hit-rate 0.750"));
    }

    #[test]
    fn fair_queue_interleaves_and_caps_a_hot_tenant_per_round() {
        let mut q = FairQueue::new(2);
        // Tenant 1 floods; tenants 2 and 3 trickle.
        for i in 0..8 {
            q.push(1, format!("hot-{i}"));
        }
        q.push(2, "a".to_string());
        q.push(3, "b".to_string());
        let round = q.next_round(16);
        // Rotation 1 visits 1,2,3; rotation 2 has only tenant 1 left.
        let tenants: Vec<u64> = round.iter().map(|(t, _)| *t).collect();
        assert_eq!(tenants, vec![1, 2, 3, 1], "one per tenant per rotation, quota 2");
        assert_eq!(round[0].1, "hot-0");
        assert_eq!(round[3].1, "hot-1", "per-tenant FIFO order is preserved");
        assert_eq!(tenants.iter().filter(|&&t| t == 1).count(), 2, "quota caps the flood");
        assert_eq!(q.len(), 6, "the rest of the flood waits its turn");
        // Capacity cuts mid-rotation without losing items.
        let cut = q.next_round(1);
        assert_eq!(cut.len(), 1);
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn fair_queue_rounds_replay_bitwise() {
        let build = || {
            let mut q = FairQueue::new(3);
            for i in 0..40u64 {
                q.push(i % 5, i);
            }
            q
        };
        let drain = |mut q: FairQueue<u64>| {
            let mut order = Vec::new();
            while !q.is_empty() {
                order.extend(q.next_round(7));
            }
            order
        };
        assert_eq!(drain(build()), drain(build()), "scheduling is pure queue state");
    }

    #[test]
    fn fair_interleave_is_a_permutation_that_bounds_starvation() {
        // Submission order: 12 from tenant 9, then one each from 1 and 2.
        let mut tenants = vec![9u64; 12];
        tenants.extend([1, 2]);
        let order = fair_interleave(&tenants, 1);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..tenants.len()).collect::<Vec<_>>(), "permutation");
        // With quota 1 the light tenants are served in the very first
        // rotation, despite arriving last.
        assert!(order[..3].contains(&12), "tenant 1's lone item is up front: {order:?}");
        assert!(order[..3].contains(&13), "tenant 2's lone item is up front: {order:?}");
        // Degenerate inputs stay total.
        assert!(fair_interleave(&[], 4).is_empty());
        assert_eq!(fair_interleave(&[5], 0).len(), 1, "quota clamps to 1");
    }

    #[test]
    fn tenant_ledger_accounts_and_renders_canonically() {
        let mut ledger = TenantLedger::new();
        for t in [3u64, 1, 1, 2] {
            ledger.note_submitted(t);
        }
        ledger.note_served(1, 1, true);
        ledger.note_served(1, 5, false);
        ledger.note_served(2, 2, false);
        ledger.note_served(3, 1, true);
        assert_eq!(ledger.len(), 3);
        let t1 = ledger.get(1);
        assert_eq!((t1.submitted, t1.served, t1.cache_hits, t1.computed), (2, 2, 1, 1));
        assert_eq!(t1.max_latency_rounds, 5);
        assert_eq!(t1.mean_latency_rounds(), 3.0);
        assert_eq!(ledger.worst_latency_rounds(), 5);
        let ids: Vec<u64> = ledger.iter().map(|(t, _)| t).collect();
        assert_eq!(ids, vec![1, 2, 3], "iteration is ascending tenant id");
        let table = ledger.render();
        assert!(table.contains("t1"), "{table}");
        assert!(table.contains("max-lat"), "{table}");
        assert_eq!(ledger.get(99), TenantStats::default(), "unknown tenants read as zero");
    }

    #[test]
    fn quantile_ceil_rank_never_undershoots_small_samples() {
        assert_eq!(quantile_ceil_rank(&[], 0.99), 0);
        assert_eq!(quantile_ceil_rank(&[7], 0.99), 7);

        // n = 3: ceil rank is ceil(2.97) = 3 → the maximum. The truncating
        // form (3 * 99) / 100 = 2 would index the *median* — the exact
        // off-by-one this function exists to rule out.
        let three = [1u64, 2, 3];
        assert_eq!(quantile_ceil_rank(&three, 0.99), 3);
        assert_eq!((three.len() * 99) / 100, 2, "the truncating rank lands on the median");

        // n = 99: ceil(98.01) = 99 → still the maximum; truncation gives 98.
        let n99: Vec<u64> = (1..=99).collect();
        assert_eq!(quantile_ceil_rank(&n99, 0.99), 99);
        assert_eq!((n99.len() * 99) / 100, 98);

        // n = 100: ceil(99.0) = 99 → first index where the two agree.
        let n100: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_ceil_rank(&n100, 0.99), 99);
        assert_eq!(quantile_ceil_rank(&n100, 0.50), 50);
        assert_eq!(quantile_ceil_rank(&n100, 1.0), 100);
        assert_eq!(quantile_ceil_rank(&n100, 0.0), 1, "rank clamps to at least 1");
    }

    #[test]
    fn tenant_ledger_p99_is_ceil_rank_over_pooled_latencies() {
        let mut ledger = TenantLedger::new();
        assert_eq!(ledger.latency_quantile(0.99), 0, "empty ledger reads as zero");
        // Three served submissions across two tenants: p99 must be the
        // pooled maximum (9), not the median a truncating rank would pick.
        ledger.note_served(1, 2, true);
        ledger.note_served(2, 9, false);
        ledger.note_served(1, 4, false);
        assert_eq!(ledger.latency_quantile(0.99), 9);
        assert_eq!(ledger.worst_latency_rounds(), 9);
    }
}
