//! Monte Carlo spot-defect injection.
//!
//! The original inductive-fault-analysis flow (Shen/Maly/Ferguson, paper
//! ref \[25\]) throws random defects at the layout and records which ones
//! change circuit topology. This module provides that sampler; LIFT's
//! analytic critical areas are cross-validated against it, and the
//! examples use it to visualise defect sensitivity.

use crate::sizedist::SizeDistribution;
use geom::{Rect, Region};
use rand::{Rng, RngExt};

/// One sampled spot defect: a square of side `size` centred at
/// (`cx`, `cy`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotDefect {
    /// Centre x (nm).
    pub cx: i64,
    /// Centre y (nm).
    pub cy: i64,
    /// Side length (nm).
    pub size: i64,
}

impl SpotDefect {
    /// The defect's footprint rectangle.
    pub fn footprint(&self) -> Rect {
        let h = self.size / 2;
        Rect::new(self.cx - h, self.cy - h, self.cx + h, self.cy + h)
    }

    /// True when the defect overlaps the region (shares interior area).
    pub fn hits(&self, region: &Region) -> bool {
        let fp = self.footprint();
        region.rects().iter().any(|r| r.overlaps(&fp))
    }

    /// True when the defect bridges both regions.
    pub fn bridges(&self, a: &Region, b: &Region) -> bool {
        self.hits(a) && self.hits(b)
    }
}

/// Samples `n` defects uniformly over `window` with sizes drawn from
/// `dist`.
pub fn sample_defects<R: Rng + ?Sized>(
    rng: &mut R,
    window: &Rect,
    dist: &SizeDistribution,
    n: usize,
) -> Vec<SpotDefect> {
    (0..n)
        .map(|_| SpotDefect {
            cx: rng.random_range(window.x0()..=window.x1()),
            cy: rng.random_range(window.y0()..=window.y1()),
            size: dist.sample(rng) as i64,
        })
        .collect()
}

/// Estimates the size-weighted bridge critical area between two regions
/// by Monte Carlo: `A̅ ≈ window_area · P(defect bridges)`.
pub fn mc_bridge_area<R: Rng + ?Sized>(
    rng: &mut R,
    a: &Region,
    b: &Region,
    window: &Rect,
    dist: &SizeDistribution,
    samples: usize,
) -> f64 {
    let defects = sample_defects(rng, window, dist, samples);
    let hits = defects.iter().filter(|d| d.bridges(a, b)).count();
    window.area() as f64 * hits as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::weighted_bridge_area_exact;
    use rand::SeedableRng;

    #[test]
    fn footprint_geometry() {
        let d = SpotDefect {
            cx: 0,
            cy: 0,
            size: 1_000,
        };
        assert_eq!(d.footprint(), Rect::new(-500, -500, 500, 500));
    }

    #[test]
    fn defect_smaller_than_gap_never_bridges() {
        let a = Region::from_rects([Rect::new(0, 0, 10_000, 1_000)]);
        let b = Region::from_rects([Rect::new(0, 4_000, 10_000, 5_000)]);
        // Gap = 3000; a 2000-size defect cannot touch both.
        for cx in (-1_000..11_000).step_by(997) {
            for cy in 0..6 {
                let d = SpotDefect {
                    cx,
                    cy: cy * 1_000,
                    size: 2_000,
                };
                assert!(!d.bridges(&a, &b), "{d:?}");
            }
        }
    }

    #[test]
    fn defect_spanning_gap_bridges() {
        let a = Region::from_rects([Rect::new(0, 0, 10_000, 1_000)]);
        let b = Region::from_rects([Rect::new(0, 4_000, 10_000, 5_000)]);
        let d = SpotDefect {
            cx: 5_000,
            cy: 2_500,
            size: 4_000,
        };
        assert!(d.bridges(&a, &b));
    }

    #[test]
    fn mc_estimate_matches_analytic_integration() {
        let a = Region::from_rects([Rect::new(0, 0, 20_000, 3_000)]);
        let b = Region::from_rects([Rect::new(0, 5_000, 20_000, 8_000)]);
        let dist = SizeDistribution::new(1_000, 20_000);
        let window = Rect::new(-10_000, -10_000, 30_000, 18_000);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mc = mc_bridge_area(&mut rng, &a, &b, &window, &dist, 200_000);
        let exact = weighted_bridge_area_exact(&a, &b, &dist, 400);
        let rel = (mc - exact).abs() / exact;
        assert!(rel < 0.15, "mc {mc} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn sampler_respects_window() {
        let window = Rect::new(0, 0, 1_000, 1_000);
        let dist = SizeDistribution::default_1um();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for d in sample_defects(&mut rng, &window, &dist, 1_000) {
            assert!(window.contains_point(geom::Point::new(d.cx, d.cy)));
        }
    }
}
