//! Particle weighting functions.
//!
//! The §2.2 headline result: "we developed a fast weighting function that,
//! according to our experiments, is much faster and almost as accurate as
//! the typical Gaussian weighting function, which may be preferred in
//! applications that demand low latency or frequent updates."
//!
//! The Gaussian kernel costs one `exp` per particle per update; the fast
//! kernels below are a handful of multiply/compare operations. The
//! `concert_tracking` example measures the wall-clock gap per evaluation;
//! experiment E2.2a measures the accuracy gap across the kernel family.

/// A likelihood kernel `w(d)` over the discrepancy `d` between a particle's
/// implied event time and the observed event's nominal time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightFn {
    /// `exp(-d² / 2σ²)` — the "typical" kernel.
    Gaussian,
    /// `max(0, 1 - |d| / 3σ)` — compact support, no transcendentals.
    Triangular,
    /// `1 / (1 + (d/σ)²)` — heavy-tailed, no transcendentals.
    Rational,
    /// `(1 - (d/3σ)²)² on |d|<3σ, else 0` — the Epanechnikov-squared
    /// (biweight) kernel; compact support, smoother than triangular.
    Biweight,
}

impl WeightFn {
    /// Evaluates the kernel at discrepancy `d` with bandwidth `sigma`.
    ///
    /// All kernels satisfy `w(0) = 1`, are even in `d`, and are
    /// non-increasing in `|d|`.
    #[inline]
    pub fn eval(self, d: f64, sigma: f64) -> f64 {
        debug_assert!(sigma > 0.0, "bandwidth must be positive");
        match self {
            WeightFn::Gaussian => (-d * d / (2.0 * sigma * sigma)).exp(),
            WeightFn::Triangular => {
                let z = d.abs() / (3.0 * sigma);
                (1.0 - z).max(0.0)
            }
            WeightFn::Rational => {
                let z = d / sigma;
                1.0 / (1.0 + z * z)
            }
            WeightFn::Biweight => {
                let z = d / (3.0 * sigma);
                let q = 1.0 - z * z;
                if q <= 0.0 {
                    0.0
                } else {
                    q * q
                }
            }
        }
    }

    /// Whether the kernel needs transcendental function evaluations — the
    /// deterministic cost proxy recorded by experiment E2.2a (wall-clock is
    /// environment, so the `concert_tracking` example times it instead).
    pub fn uses_transcendentals(self) -> bool {
        matches!(self, WeightFn::Gaussian)
    }

    /// All kernels, for sweeps.
    pub fn all() -> [WeightFn; 4] {
        [WeightFn::Gaussian, WeightFn::Triangular, WeightFn::Rational, WeightFn::Biweight]
    }

    /// Short stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WeightFn::Gaussian => "gaussian",
            WeightFn::Triangular => "triangular",
            WeightFn::Rational => "rational",
            WeightFn::Biweight => "biweight",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_at_zero() {
        for k in WeightFn::all() {
            assert!((k.eval(0.0, 1.0) - 1.0).abs() < 1e-12, "{}", k.name());
        }
    }

    #[test]
    fn even_and_nonincreasing() {
        for k in WeightFn::all() {
            let mut prev = k.eval(0.0, 2.0);
            for i in 1..100 {
                let d = i as f64 * 0.1;
                let w = k.eval(d, 2.0);
                assert!((w - k.eval(-d, 2.0)).abs() < 1e-12, "{} not even", k.name());
                assert!(w <= prev + 1e-12, "{} increased at {d}", k.name());
                prev = w;
            }
        }
    }

    #[test]
    fn compact_support_kernels_vanish() {
        assert_eq!(WeightFn::Triangular.eval(3.01, 1.0), 0.0);
        assert_eq!(WeightFn::Biweight.eval(3.01, 1.0), 0.0);
        assert!(WeightFn::Gaussian.eval(3.01, 1.0) > 0.0);
        assert!(WeightFn::Rational.eval(3.01, 1.0) > 0.0);
    }

    #[test]
    fn gaussian_matches_closed_form() {
        let w = WeightFn::Gaussian.eval(1.0, 1.0);
        assert!((w - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn fast_kernels_approximate_gaussian_shape() {
        // Within one sigma, triangular and rational stay within 0.25 of
        // the Gaussian — close enough that weighting decisions rarely flip.
        for i in 0..=10 {
            let d = i as f64 * 0.1;
            let g = WeightFn::Gaussian.eval(d, 1.0);
            for k in [WeightFn::Triangular, WeightFn::Rational, WeightFn::Biweight] {
                assert!((k.eval(d, 1.0) - g).abs() < 0.25, "{} deviates at {d}", k.name());
            }
        }
    }

    #[test]
    fn cost_proxy() {
        assert!(WeightFn::Gaussian.uses_transcendentals());
        assert!(!WeightFn::Triangular.uses_transcendentals());
        assert!(!WeightFn::Rational.uses_transcendentals());
        assert!(!WeightFn::Biweight.uses_transcendentals());
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            WeightFn::all().iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 4);
    }
}
