//! GEMM planning: shape classes and the blocking plans `Matrix::matmul`
//! runs.
//!
//! A GEMM's plan is a pure function of its shape: `Matrix::matmul` buckets
//! its operands into a [`ShapeClass`] and runs that class's hand-written
//! [`GemmPlan::default_for`]. The autotuner (`treu-autotune`) searches a
//! schedule space per class and records the winners in its schedule book;
//! a tuned plan runs only where a caller passes it explicitly, through
//! `Matrix::matmul_with_plan`. Plans change only *how* the loop nest is
//! blocked and packed, never the per-output accumulation order, so
//! results are bitwise-identical for every plan (the ascending-k rule; see
//! DESIGN.md §14 and the conformance suite).

/// Size bucket for one GEMM extent. Boundaries are powers of two so the
/// bucket of a dimension is stable under small perturbations and the
/// bucket triple captures aspect (e.g. tall-skinny = `Large`/`Tiny`/...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SizeBucket {
    /// `0..16`
    Tiny,
    /// `16..64`
    Small,
    /// `64..256`
    Medium,
    /// `256..1024`
    Large,
    /// `1024..`
    Huge,
}

impl SizeBucket {
    /// Buckets one extent.
    pub fn of(extent: usize) -> Self {
        match extent {
            0..=15 => Self::Tiny,
            16..=63 => Self::Small,
            64..=255 => Self::Medium,
            256..=1023 => Self::Large,
            _ => Self::Huge,
        }
    }

    /// Single-letter tag used in class keys (`t`/`s`/`m`/`l`/`h`).
    pub fn tag(self) -> &'static str {
        match self {
            Self::Tiny => "t",
            Self::Small => "s",
            Self::Medium => "m",
            Self::Large => "l",
            Self::Huge => "h",
        }
    }

    /// Parses a tag written by [`SizeBucket::tag`].
    pub fn parse_tag(tag: &str) -> Option<Self> {
        match tag {
            "t" => Some(Self::Tiny),
            "s" => Some(Self::Small),
            "m" => Some(Self::Medium),
            "l" => Some(Self::Large),
            "h" => Some(Self::Huge),
            _ => None,
        }
    }

    /// A representative extent inside the bucket (used by `treu tune` to
    /// synthesize a workload for a class).
    pub fn representative(self) -> usize {
        match self {
            Self::Tiny => 8,
            Self::Small => 32,
            Self::Medium => 128,
            Self::Large => 320,
            Self::Huge => 1280,
        }
    }
}

/// Deterministic shape class of a GEMM `C[m×n] = A[m×k] · B[k×n]`: the
/// bucket triple of the three extents. This is the key default plans are
/// chosen by and tuned schedules are recorded under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShapeClass {
    /// Bucket of the output row count `m`.
    pub m: SizeBucket,
    /// Bucket of the reduction depth `k`.
    pub k: SizeBucket,
    /// Bucket of the output column count `n`.
    pub n: SizeBucket,
}

impl ShapeClass {
    /// Classifies a GEMM by its three extents.
    pub fn of(m: usize, k: usize, n: usize) -> Self {
        Self { m: SizeBucket::of(m), k: SizeBucket::of(k), n: SizeBucket::of(n) }
    }

    /// Stable three-letter key (`m` tag, `k` tag, `n` tag), e.g. `"mml"`.
    /// This string is what the schedule book persists under.
    pub fn key(&self) -> String {
        format!("{}{}{}", self.m.tag(), self.k.tag(), self.n.tag())
    }

    /// Parses a key written by [`ShapeClass::key`].
    pub fn parse_key(key: &str) -> Option<Self> {
        let mut it = key.chars();
        let (a, b, c) = (it.next()?, it.next()?, it.next()?);
        if it.next().is_some() {
            return None;
        }
        Some(Self {
            m: SizeBucket::parse_tag(&a.to_string())?,
            k: SizeBucket::parse_tag(&b.to_string())?,
            n: SizeBucket::parse_tag(&c.to_string())?,
        })
    }

    /// A representative `(m, k, n)` inside the class, for tuning workloads.
    pub fn representative(&self) -> (usize, usize, usize) {
        (self.m.representative(), self.k.representative(), self.n.representative())
    }
}

/// A concrete blocking plan for the GEMM loop nest: NC-wide packed B
/// strips, MC-tall row blocks, KC-deep reduction panels, and an NR-wide
/// register microkernel. Every plan runs on one thread.
///
/// Every plan computes the bitwise-identical result: blocking reorders the
/// i/j traversal and the packing only; each output element's reduction is
/// always one ascending-k chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GemmPlan {
    /// Row-block height (output rows per C block held hot across KC panels).
    pub mc: usize,
    /// Reduction panel depth (k extent per accumulation pass).
    pub kc: usize,
    /// Packed B strip width (output columns per pass).
    pub nc: usize,
    /// Microkernel width: independent per-element accumulator chains kept
    /// in registers. Normalized to {1, 2, 4, 8, 16}.
    pub nr: usize,
}

/// Supported microkernel widths, largest first.
pub const NR_CHOICES: [usize; 5] = [16, 8, 4, 2, 1];

impl GemmPlan {
    /// The degenerate single-block plan: one strip, one panel, scalar
    /// microkernel. Useful as a worst-case anchor in tuning sweeps.
    pub fn naive() -> Self {
        Self { mc: usize::MAX, kc: usize::MAX, nc: usize::MAX, nr: 1 }
    }

    /// Hand-written default for a shape class — the plan `Matrix::matmul`
    /// runs for every shape in the class. Small shapes run as a single
    /// block (blocking overhead would dominate); larger shapes get a
    /// compact packed panel (~72 KiB of B, comfortably L2-resident) and the
    /// widest microkernel, whose sixteen independent per-element chains
    /// keep the vector units fed without touching the ascending-k
    /// reduction order.
    pub fn default_for(class: ShapeClass) -> Self {
        let small = |b: SizeBucket| b <= SizeBucket::Small;
        if small(class.m) && small(class.k) && small(class.n) {
            Self { mc: usize::MAX, kc: usize::MAX, nc: usize::MAX, nr: 16 }
        } else {
            Self { mc: 64, kc: 96, nc: 96, nr: 16 }
        }
    }

    /// Clamps block extents into `[1, dim]` and normalizes `nr` to the
    /// nearest supported width at or below the requested one.
    pub fn clamped(mut self, m: usize, k: usize, n: usize) -> Self {
        self.mc = self.mc.clamp(1, m.max(1));
        self.kc = self.kc.clamp(1, k.max(1));
        self.nc = self.nc.clamp(1, n.max(1));
        self.nr = NR_CHOICES.iter().copied().find(|&w| w <= self.nr.max(1)).unwrap_or(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_have_stable_boundaries() {
        assert_eq!(SizeBucket::of(0), SizeBucket::Tiny);
        assert_eq!(SizeBucket::of(15), SizeBucket::Tiny);
        assert_eq!(SizeBucket::of(16), SizeBucket::Small);
        assert_eq!(SizeBucket::of(63), SizeBucket::Small);
        assert_eq!(SizeBucket::of(64), SizeBucket::Medium);
        assert_eq!(SizeBucket::of(255), SizeBucket::Medium);
        assert_eq!(SizeBucket::of(256), SizeBucket::Large);
        assert_eq!(SizeBucket::of(1023), SizeBucket::Large);
        assert_eq!(SizeBucket::of(1024), SizeBucket::Huge);
    }

    #[test]
    fn class_key_roundtrips() {
        for (m, k, n) in [(1, 1, 1), (17, 64, 1000), (256, 8, 2048), (128, 128, 128)] {
            let c = ShapeClass::of(m, k, n);
            assert_eq!(ShapeClass::parse_key(&c.key()), Some(c), "key {}", c.key());
        }
        assert_eq!(ShapeClass::of(128, 128, 128).key(), "mmm");
        assert_eq!(ShapeClass::of(300, 8, 64).key(), "ltm");
        assert!(ShapeClass::parse_key("xx").is_none());
        assert!(ShapeClass::parse_key("mmmm").is_none());
        assert!(ShapeClass::parse_key("mxm").is_none());
    }

    #[test]
    fn representatives_land_in_their_own_bucket() {
        for b in [
            SizeBucket::Tiny,
            SizeBucket::Small,
            SizeBucket::Medium,
            SizeBucket::Large,
            SizeBucket::Huge,
        ] {
            assert_eq!(SizeBucket::of(b.representative()), b);
        }
    }

    #[test]
    fn clamping_normalizes_plans() {
        let p = GemmPlan { mc: 0, kc: 1000, nc: 7, nr: 5 }.clamped(10, 20, 30);
        assert_eq!(p, GemmPlan { mc: 1, kc: 20, nc: 7, nr: 4 });
        let q = GemmPlan::naive().clamped(3, 4, 5);
        assert_eq!((q.mc, q.kc, q.nc, q.nr), (3, 4, 5, 1));
        // nr snaps down to a supported width.
        for (want, got) in [(1, 1), (2, 2), (3, 2), (4, 4), (7, 4), (8, 8), (100, 16)] {
            let p = GemmPlan { mc: 1, kc: 1, nc: 1, nr: want }.clamped(1, 1, 1);
            assert_eq!(p.nr, got, "nr {want}");
        }
    }

    #[test]
    fn default_plans_are_single_block_for_small_shapes() {
        let tiny = GemmPlan::default_for(ShapeClass::of(8, 8, 8));
        assert_eq!(tiny.nc, usize::MAX);
        let big = GemmPlan::default_for(ShapeClass::of(512, 512, 512));
        assert!(big.nc < usize::MAX);
    }
}
