//! The schedule book: the record of the autotune loop's GEMM winners.
//!
//! `treu tune` runs the genetic tuner over **real GEMM timings** per
//! [`ShapeClass`], records each class's winning [`Schedule`] in a
//! [`ScheduleBook`], and persists the book content-addressed through
//! `treu-core::cache` (one blob under [`BOOK_KIND`]/[`BOOK_TAG`], so the
//! cache's fingerprint validation and atomic writes apply). The book is a
//! tuning record, not a dispatch table: `Matrix::matmul` always runs its
//! class's default plan, and a tuned plan runs only where a caller passes
//! [`TunedEntry::plan`] to `Matrix::matmul_with_plan` (as `math_bench`
//! does to time it).
//!
//! Timing is inherently wall-clock and machine-dependent, so *which*
//! schedule wins is environment, not result: every candidate plan computes
//! the bitwise-identical product (the ascending-k rule), and the tuner
//! re-verifies the winner against the naive kernel before it is admitted
//! to the book.

use crate::schedule::Schedule;
use crate::tuner::{GaParams, Tuner};
use std::collections::BTreeMap;
use std::time::Instant;
use treu_core::cache::RunCache;
use treu_core::codec::{self, Cursor};
use treu_math::gemm::{GemmPlan, ShapeClass};
use treu_math::rng::{derive_seed, SplitMix64};
use treu_math::Matrix;

/// Cache blob kind the book is persisted under.
pub const BOOK_KIND: &str = "schedule-book";
/// Cache blob tag (bump on format changes).
pub const BOOK_TAG: &str = "v1";

/// One tuned (kernel, shape-class) record.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedEntry {
    /// Shape class the schedule was tuned for.
    pub class: ShapeClass,
    /// The concrete `(m, k, n)` workload the class was tuned on.
    pub shape: (usize, usize, usize),
    /// The GA's winning schedule.
    pub schedule: Schedule,
    /// Naive-kernel throughput on the tuning workload, GFLOP/s.
    pub naive_gflops: f64,
    /// Winning-schedule throughput on the tuning workload, GFLOP/s.
    pub tuned_gflops: f64,
}

impl TunedEntry {
    /// The GEMM plan this entry's schedule lowers to.
    pub fn plan(&self) -> GemmPlan {
        plan_from_schedule(&self.schedule)
    }
}

/// Lowers a schedule from the GA's discrete space into a [`GemmPlan`].
///
/// The schedule's tile axes are in register-quad units: each is scaled ×4
/// into a cache-block extent, so the GA's 1..=64 tile range spans
/// register-tile (4) to L2-panel (256) blocking. `unroll` maps directly to
/// the microkernel width. `threads` does not lower: GEMM plans run on one
/// thread.
pub fn plan_from_schedule(s: &Schedule) -> GemmPlan {
    GemmPlan {
        mc: s.tile_i.saturating_mul(4).max(1),
        kc: s.tile_k.saturating_mul(4).max(1),
        nc: s.tile_j.saturating_mul(4).max(1),
        nr: s.unroll.max(1),
    }
}

/// The GA fitness for an `m×k×n` GEMM: the cost of the clamped plan each
/// schedule lowers to, timed once per distinct plan. Schedules that differ
/// only in `threads` or in tiles past the shape's extents run the same
/// program, and the GA re-proposes its elites every generation, so
/// without the memo most evaluations would re-time a plan already timed.
fn plan_fitness(
    (m, k, n): (usize, usize, usize),
    mut time: impl FnMut(&GemmPlan) -> f64,
) -> impl FnMut(Schedule) -> f64 {
    let mut timed: BTreeMap<GemmPlan, f64> = BTreeMap::new();
    move |s| {
        let plan = plan_from_schedule(&s).clamped(m, k, n);
        *timed.entry(plan).or_insert_with(|| time(&plan))
    }
}

/// The inverse lowering: a plan expressed back in the schedule IR (tile
/// axes in register-quad units). Used to let hand-written plans — like
/// the class default — compete in the tuner's bake-off and still be
/// recorded as schedules; such schedules may sit outside the GA's
/// discrete choice lists, which only constrain random generation.
///
/// Tiles are capped at 2^16 register-quads (a 262144-wide block after
/// lowering): the kernel clamps every plan to the actual shape anyway,
/// so the cap never changes a dispatched plan — it only keeps the
/// "unblocked" small-class default from rendering as `usize::MAX / 4`.
fn schedule_from_plan(p: &GemmPlan) -> Schedule {
    const TILE_CAP: usize = 1 << 16;
    Schedule {
        tile_i: (p.mc / 4).clamp(1, TILE_CAP),
        tile_j: (p.nc / 4).clamp(1, TILE_CAP),
        tile_k: (p.kc / 4).clamp(1, TILE_CAP),
        unroll: p.nr.max(1),
        threads: 1,
    }
}

/// The tuned-schedule registry: winning schedules per shape class,
/// serializable to one cache blob.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ScheduleBook {
    entries: BTreeMap<String, TunedEntry>,
}

impl ScheduleBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tuned classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the book holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The tuned entry for a class, if any.
    pub fn entry(&self, class: ShapeClass) -> Option<&TunedEntry> {
        self.entries.get(&class.key())
    }

    /// All entries in class-key order.
    pub fn entries(&self) -> impl Iterator<Item = &TunedEntry> {
        self.entries.values()
    }

    /// Tunes the matmul kernel for the shape class of `(m, k, n)` with the
    /// genetic tuner over real timings of the schedule-driven kernel, and
    /// records the winner. Deterministic workload from `seed`; timing (and
    /// therefore which schedule wins) is machine-dependent, results never
    /// are — the winner is re-verified bitwise against the naive kernel.
    ///
    /// The GA's fitness times each distinct plan once.
    /// The kernel runs every plan on one thread, so the bake-off candidates
    /// and the recorded schedule carry `threads: 1`: the entry names the
    /// one-thread program that was timed.
    ///
    /// Returns the recorded entry.
    ///
    /// # Panics
    ///
    /// Panics if the winning schedule's product diverges bitwise from the
    /// naive kernel — that would be a determinism bug in the GEMM kernel,
    /// and the book would record a plan that changes results.
    pub fn tune_matmul(
        &mut self,
        (m, k, n): (usize, usize, usize),
        ga: GaParams,
        seed: u64,
        repeats: usize,
    ) -> &TunedEntry {
        let class = ShapeClass::of(m, k, n);
        let mut rng = SplitMix64::new(derive_seed(seed, "book.workload"));
        let a = Matrix::from_fn(m, k, |_, _| rng.next_gaussian());
        let b = Matrix::from_fn(k, n, |_, _| rng.next_gaussian());
        let reference = a.matmul_naive(&b);
        let mut tuner = Tuner::new(ga, derive_seed(seed, "book.ga"));
        let (ga_best, _) = tuner.tune(plan_fitness((m, k, n), |plan| {
            time_min(repeats, || a.matmul_with_plan(&b, plan))
        }));
        let ga_best = Schedule { threads: 1, ..ga_best };
        // The GA's reported cost is a minimum taken over many noisy
        // measurements, so it is biased optimistic — on a loaded machine a
        // mediocre schedule can "win" on a lucky sample. Before admission
        // the winner must beat the hand-written class default in a fresh
        // head-to-head timing at higher repeat count; the default is
        // expressible in the schedule IR, so the book's entry stays a
        // schedule either way.
        let bake = repeats.max(3);
        let naive_secs = time_min(bake, || a.matmul_naive(&b));
        let dflt = schedule_from_plan(&GemmPlan::default_for(class));
        let mut best = ga_best;
        let mut best_secs = f64::INFINITY;
        for cand in [ga_best, dflt] {
            let plan = plan_from_schedule(&cand).clamped(m, k, n);
            let secs = time_min(bake, || a.matmul_with_plan(&b, &plan));
            if secs < best_secs {
                best = cand;
                best_secs = secs;
            }
        }
        let plan = plan_from_schedule(&best).clamped(m, k, n);
        let tuned = a.matmul_with_plan(&b, &plan);
        assert_bitwise(&reference, &tuned, &format!("tuned schedule for class {}", class.key()));
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        let entry = TunedEntry {
            class,
            shape: (m, k, n),
            schedule: best,
            naive_gflops: gflops(flops, naive_secs),
            tuned_gflops: gflops(flops, best_secs),
        };
        self.entries.insert(class.key(), entry);
        self.entries.get(&class.key()).expect("entry just inserted")
    }

    /// Serializes the book to its line format (one entry per line,
    /// `matmul <class> <m> <k> <n> <tile_i> <tile_j> <tile_k> <unroll>
    /// <threads> <naive_gflops> <tuned_gflops>`).
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        for e in self.entries.values() {
            let s = &e.schedule;
            out.push_str(&format!(
                "matmul {} {} {} {} {} {} {} {} {} {:.4} {:.4}\n",
                e.class.key(),
                e.shape.0,
                e.shape.1,
                e.shape.2,
                s.tile_i,
                s.tile_j,
                s.tile_k,
                s.unroll,
                s.threads,
                e.naive_gflops,
                e.tuned_gflops,
            ));
        }
        out
    }

    /// Parses a book serialized by [`ScheduleBook::serialize`], and only
    /// that: any text `serialize` would not write back byte for byte (an
    /// unknown line such as the retired `crossover <elems>`, a damaged
    /// class key, a reformatted number, classes out of order) fails with
    /// the byte offset where it departs ([`codec::canonical`]). Blob
    /// payloads carry no checksum, so this is what keeps a damaged book
    /// from loading as a smaller one.
    pub fn parse(payload: &str) -> Result<Self, codec::Error> {
        let mut book = Self::new();
        let mut c = Cursor::new(payload);
        while !c.done() {
            c.tag("matmul ")?;
            let key = c.until(" ")?;
            let class = ShapeClass::parse_key(key.text)
                .ok_or_else(|| codec::Error::new(key.at, "expected a shape class key"))?;
            let shape = (c.until(" ")?.value()?, c.until(" ")?.value()?, c.until(" ")?.value()?);
            let schedule = Schedule {
                tile_i: c.until(" ")?.value()?,
                tile_j: c.until(" ")?.value()?,
                tile_k: c.until(" ")?.value()?,
                unroll: c.until(" ")?.value()?,
                threads: c.until(" ")?.value()?,
            };
            let naive_gflops = c.until(" ")?.value()?;
            let tuned_gflops = c.until("\n")?.value()?;
            let entry = TunedEntry { class, shape, schedule, naive_gflops, tuned_gflops };
            book.entries.insert(class.key(), entry);
        }
        codec::canonical(payload, &book.serialize())?;
        Ok(book)
    }

    /// Loads the persisted book from a run cache: an empty book on a miss,
    /// the [`ScheduleBook::parse`] error when the stored book is damaged.
    pub fn load(cache: &RunCache) -> Result<Self, codec::Error> {
        cache.lookup_blob(BOOK_KIND, BOOK_TAG).map_or_else(|| Ok(Self::new()), |p| Self::parse(&p))
    }

    /// Persists the book through the cache's atomic content-addressed blob
    /// store.
    pub fn persist(&self, cache: &RunCache) -> std::io::Result<()> {
        cache.store_blob(BOOK_KIND, BOOK_TAG, &self.serialize())
    }

    /// Human-readable table for CLI output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("class  shape              schedule                                            naive    tuned  speedup\n");
        for e in self.entries.values() {
            let (m, k, n) = e.shape;
            let speedup = if e.naive_gflops > 0.0 { e.tuned_gflops / e.naive_gflops } else { 0.0 };
            out.push_str(&format!(
                "{:<6} {:<18} {:<51} {:>6.2} {:>8.2} {:>7.2}x\n",
                e.class.key(),
                format!("{m}x{k}x{n}"),
                e.schedule.render(),
                e.naive_gflops,
                e.tuned_gflops,
                speedup,
            ));
        }
        out
    }
}

fn gflops(flops: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        flops / secs / 1e9
    } else {
        0.0
    }
}

/// Minimum wall time of `repeats` runs of `f` — minimum, not mean, because
/// scheduling noise only ever adds time.
fn time_min<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        // treu-lint: allow(wall-clock, reason = "kernel timing is the tuner's fitness signal; report-only, never fingerprinted")
        let t0 = Instant::now();
        let _keep = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn assert_bitwise(want: &Matrix, got: &Matrix, ctx: &str) {
    assert_eq!(want.shape(), got.shape(), "{ctx}: shape mismatch");
    for (i, (a, b)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{ctx}: element {i} diverges bitwise ({a} vs {b}) — determinism bug"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ga() -> GaParams {
        GaParams { population: 4, generations: 2, tournament: 2, elites: 1, ..GaParams::default() }
    }

    #[test]
    fn plan_lowering_scales_tiles() {
        let s = Schedule { tile_i: 16, tile_j: 32, tile_k: 64, unroll: 8, threads: 2 };
        let p = plan_from_schedule(&s);
        assert_eq!(p, GemmPlan { mc: 64, kc: 256, nc: 128, nr: 8 });
        let naive = plan_from_schedule(&Schedule::naive());
        assert_eq!(naive, GemmPlan { mc: 4, kc: 4, nc: 4, nr: 1 });
    }

    #[test]
    fn tune_records_a_verified_entry() {
        let mut book = ScheduleBook::new();
        let e = book.tune_matmul((24, 18, 20), tiny_ga(), 7, 1).clone();
        assert_eq!(e.class, ShapeClass::of(24, 18, 20));
        assert_eq!(e.shape, (24, 18, 20));
        assert!(e.tuned_gflops > 0.0 && e.naive_gflops > 0.0);
        assert_eq!(book.len(), 1);
        assert_eq!(book.entry(e.class), Some(&e));
        // The recorded schedule is the one-thread program matmul runs, in
        // the entry, the rendered table and the persisted line alike.
        assert_eq!(e.schedule.threads, 1);
        assert!(book.render().contains("parallelize(threads=1)"), "{}", book.render());
        let fields: Vec<String> = book.serialize().split_whitespace().map(str::to_string).collect();
        assert_eq!(fields[9], "1", "threads field of {fields:?}");
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let mut book = ScheduleBook::new();
        book.tune_matmul((20, 12, 16), tiny_ga(), 3, 1);
        book.tune_matmul((70, 12, 16), tiny_ga(), 4, 1);
        let text = book.serialize();
        let parsed = ScheduleBook::parse(&text).unwrap();
        assert_eq!(parsed.len(), book.len());
        for (a, b) in parsed.entries().zip(book.entries()) {
            assert_eq!(a.class, b.class);
            assert_eq!(a.schedule, b.schedule);
            assert_eq!(a.shape, b.shape);
        }
    }

    #[test]
    fn parse_fails_at_the_offset_of_a_line_serialize_would_not_write() {
        // An entry tuned at 4 threads, from before GEMM plans lost their
        // worker count, is a line `serialize` still writes: it loads.
        let good = "matmul lll 320 320 320 16 16 16 8 4 1.0000 9.0000\n\
                    matmul mmm 64 64 64 8 8 8 4 1 1.0000 2.0000\n";
        let book = ScheduleBook::parse(good).unwrap();
        assert_eq!(book.len(), 2);
        assert_eq!(book.entry(ShapeClass::of(64, 64, 64)).unwrap().schedule.unroll, 4);
        let legacy = book.entry(ShapeClass::of(320, 320, 320)).unwrap();
        assert_eq!(legacy.schedule.threads, 4);
        assert_eq!(legacy.plan(), GemmPlan { mc: 64, kc: 64, nc: 64, nr: 8 });
        // A garbage line and the retired `crossover` line each fail where
        // they start, wherever they sit.
        for bad in ["not-a-line\n", "crossover 100\n"] {
            for (at, text) in [(0, format!("{bad}{good}")), (good.len(), format!("{good}{bad}"))] {
                let err = ScheduleBook::parse(&text).unwrap_err();
                assert_eq!(err.offset, at, "{bad:?}: {err}");
            }
        }
        // A damaged class key fails at the key, a reformatted number at
        // its first byte that `serialize` would write differently.
        let err = ScheduleBook::parse(&good.replace("mmm", "mxm")).unwrap_err();
        assert_eq!(err.offset, good.find("mmm").unwrap(), "{err}");
        let err = ScheduleBook::parse(&good.replace("2.0000", "2.0")).unwrap_err();
        assert_eq!(err.offset, good.find("2.0000").unwrap() + 3, "{err}");
    }

    #[test]
    fn ga_fitness_times_each_distinct_plan_once() {
        // `treu tune`'s quick GA over a shape whose extents clamp the
        // larger tiles, with a counting timer in place of the GEMM.
        let shape = (96, 40, 24);
        let ga = GaParams { population: 8, generations: 5, ..GaParams::default() };
        let mut timings: BTreeMap<GemmPlan, usize> = BTreeMap::new();
        let mut tuner = Tuner::new(ga, 2023);
        tuner.tune(plan_fitness(shape, |p| {
            *timings.entry(*p).or_default() += 1;
            (p.mc * 7 + p.kc * 3 + p.nc) as f64 / p.nr as f64
        }));
        assert!(timings.values().all(|&n| n == 1), "a plan was timed twice: {timings:?}");
        let timed: usize = timings.values().sum();
        assert!(timed < tuner.evaluations() as usize, "{timed} timings, no evaluation reused");
    }

    #[test]
    fn render_mentions_every_class() {
        let mut book = ScheduleBook::new();
        book.tune_matmul((20, 12, 16), tiny_ga(), 3, 1);
        let r = book.render();
        assert!(r.contains("ss") || r.contains("st"), "render: {r}");
    }

    #[test]
    fn cache_roundtrip() {
        let dir = std::env::temp_dir().join(format!("treu-book-{}", std::process::id()));
        let cache = RunCache::open(&dir).expect("open cache");
        let mut book = ScheduleBook::new();
        book.tune_matmul((20, 12, 16), tiny_ga(), 3, 1);
        book.persist(&cache).expect("persist");
        let loaded = ScheduleBook::load(&cache).unwrap();
        assert_eq!(loaded.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
