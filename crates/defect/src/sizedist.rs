//! The defect-size probability density.
//!
//! Following Ferris-Prabhu (paper ref \[10\]), spot-defect diameters obey
//! `f(x) = 2·x₀²/x³` for `x ≥ x₀`: defects at the lithographic
//! resolution limit dominate and the density falls off with the cube of
//! the size. The distribution is normalised on `[x₀, ∞)`; an upper
//! truncation bound is carried for numeric integration and sampling.

use geom::Coord;
use rand::{Rng, RngExt};

/// The `2x₀²/x³` defect-size distribution, sizes in nanometres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeDistribution {
    x0: f64,
    x_max: f64,
}

impl SizeDistribution {
    /// Creates a distribution with resolution limit `x0` and truncation
    /// bound `x_max` (both nm).
    ///
    /// # Panics
    /// Panics unless `0 < x0 < x_max`.
    pub fn new(x0: Coord, x_max: Coord) -> Self {
        assert!(x0 > 0 && x_max > x0, "need 0 < x0 < x_max");
        SizeDistribution {
            x0: x0 as f64,
            x_max: x_max as f64,
        }
    }

    /// The default for the generic 1 µm technology: x₀ = 1 µm (2λ),
    /// truncated at 20 µm (the tail above carries < 0.3 % of the mass).
    pub fn default_1um() -> Self {
        SizeDistribution::new(1_000, 20_000)
    }

    /// Resolution limit x₀ in nm.
    pub fn x0(&self) -> f64 {
        self.x0
    }

    /// Truncation bound in nm.
    pub fn x_max(&self) -> f64 {
        self.x_max
    }

    /// Probability density at size `x` (per nm).
    pub fn pdf(&self, x: f64) -> f64 {
        if x < self.x0 {
            0.0
        } else {
            2.0 * self.x0 * self.x0 / (x * x * x)
        }
    }

    /// Cumulative distribution `P(X ≤ x)` of the *untruncated* law.
    pub fn cdf(&self, x: f64) -> f64 {
        if x < self.x0 {
            0.0
        } else {
            1.0 - (self.x0 / x) * (self.x0 / x)
        }
    }

    /// Mean defect size, `2·x₀`, of the untruncated law.
    pub fn mean(&self) -> f64 {
        2.0 * self.x0
    }

    /// Draws a size by inverse-transform sampling, truncated at
    /// `x_max`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // P(X <= x_max) of the untruncated law:
        let p_max = self.cdf(self.x_max);
        let u: f64 = rng.random_range(0.0..p_max);
        self.x0 / (1.0 - u).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdf_normalises_to_one() {
        let d = SizeDistribution::new(1_000, 1_000_000);
        // Numeric integral of the pdf over [x0, x_max] ≈ cdf(x_max).
        let n = 200_000;
        let (a, b) = (d.x0(), d.x_max());
        let h = (b - a) / n as f64;
        let mut sum = 0.5 * (d.pdf(a) + d.pdf(b));
        for i in 1..n {
            sum += d.pdf(a + i as f64 * h);
        }
        let integral = sum * h;
        assert!((integral - d.cdf(b)).abs() < 1e-3, "integral {integral}");
        assert!(d.cdf(b) > 0.999_99);
    }

    #[test]
    fn cdf_inverse_matches_sampling_formula() {
        let d = SizeDistribution::default_1um();
        for u in [0.1_f64, 0.5, 0.9] {
            let x = d.x0() / (1.0 - u).sqrt();
            assert!((d.cdf(x) - u).abs() < 1e-12);
        }
    }

    #[test]
    fn small_defects_dominate() {
        let d = SizeDistribution::default_1um();
        // 75 % of defects are below 2·x0.
        assert!((d.cdf(2.0 * d.x0()) - 0.75).abs() < 1e-12);
        // pdf falls by 1000x per 10x size.
        let ratio = d.pdf(d.x0()) / d.pdf(10.0 * d.x0());
        assert!((ratio - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn sampling_statistics() {
        use rand::SeedableRng;
        let d = SizeDistribution::default_1um();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 50_000;
        let mut below_2x0 = 0usize;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!(x >= d.x0() && x <= d.x_max() * 1.0001);
            if x <= 2.0 * d.x0() {
                below_2x0 += 1;
            }
        }
        // ~75 % mass below 2 x0 (slightly more after truncation).
        let frac = below_2x0 as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "x0 < x_max")]
    fn bad_bounds_panic() {
        let _ = SizeDistribution::new(1_000, 500);
    }
}
