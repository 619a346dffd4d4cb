//! Critical-area evaluation.
//!
//! The critical area `A_c(x)` of a failure for defect diameter `x` is
//! the area of defect-centre positions that cause the failure
//! (Stapper, paper ref \[28\]). The quantity LIFT needs is the
//! size-weighted average `A̅ = ∫ A_c(x)·f(x) dx` with `f` the defect
//! size pdf: `p_j = density · A̅` is then the expected number of
//! occurrences of fault `j` per die, used as its probability ranking.
//!
//! Square defects are assumed (the paper permits circle or square).
//! Three closed forms cover the geometries LIFT generates:
//!
//! * **bridge** between facing wire edges: `A_c(x) = (L + x)·(x − s)`;
//! * **line open** severing a wire of width `w`: `A_c(x) = (L + x)·(x − w)`;
//! * **cut open** covering a `c × c` contact: `A_c(x) = (x − c)²`;
//!
//! plus an exact geometric evaluator (expand-and-intersect on the real
//! shapes) used for irregular neighbourhoods and cross-validated against
//! the closed forms and Monte Carlo in the tests.

use crate::sizedist::SizeDistribution;
use geom::{Rect, Region};

/// Weighted critical area (nm²) for a **bridge** between two parallel
/// facing edges at spacing `s` with parallel-run length `l` (both nm).
///
/// Closed form of `∫ (l + x)(x − s)·2x₀²/x³ dx` from `max(s, x₀)` to
/// `x_max`.
pub fn weighted_bridge_area(l: f64, s: f64, dist: &SizeDistribution) -> f64 {
    weighted_strip_area(l, s, dist)
}

/// Weighted critical area (nm²) for a **line open** on a wire of width
/// `w` and segment length `l` (both nm). Same geometry as the bridge
/// with the roles of conductor and gap exchanged.
pub fn weighted_open_area(l: f64, w: f64, dist: &SizeDistribution) -> f64 {
    weighted_strip_area(l, w, dist)
}

/// Shared closed form for the `(l + x)(x − d)` strip geometry.
fn weighted_strip_area(l: f64, d: f64, dist: &SizeDistribution) -> f64 {
    let a = d.max(dist.x0());
    let b = dist.x_max();
    if b <= a {
        return 0.0;
    }
    let x0 = dist.x0();
    // (l + x)(x − d) = x² + (l−d)x − l·d, so the integrand over f(x) is
    // 2x₀²·(1/x + (l−d)/x² − l·d/x³) with primitive
    // ln x − (l−d)/x + l·d/(2x²).
    let primitive = |x: f64| x.ln() - (l - d) / x + l * d / (2.0 * x * x);
    2.0 * x0 * x0 * (primitive(b) - primitive(a))
}

/// Weighted critical area (nm²) for an **open contact/via** with square
/// cut side `c` (nm): `A_c(x) = (x − c)²`.
pub fn weighted_cut_open_area(c: f64, dist: &SizeDistribution) -> f64 {
    let a = c.max(dist.x0());
    let b = dist.x_max();
    if b <= a {
        return 0.0;
    }
    let x0 = dist.x0();
    // ∫ (x−c)²/x³ dx = ∫ (1/x − 2c/x² + c²/x³) dx
    //               = ln x + 2c/x − c²/(2x²).
    let primitive = |x: f64| x.ln() + 2.0 * c / x - c * c / (2.0 * x * x);
    2.0 * x0 * x0 * (primitive(b) - primitive(a))
}

/// Exact critical area `A_c(x)` for bridging two shape sets with a
/// square defect of side `x`: the area of centres whose defect overlaps
/// both, i.e. `area( (A ⊕ x/2) ∩ (B ⊕ x/2) )`.
pub fn bridge_critical_area_exact(a: &Region, b: &Region, x: i64) -> i128 {
    let half = x / 2;
    let ea = Region::from_rects(a.rects().iter().map(|r| r.expanded(half)));
    let eb = Region::from_rects(b.rects().iter().map(|r| r.expanded(half)));
    ea.intersection(&eb).area()
}

/// Numerically integrates the exact bridge critical area over the size
/// distribution (log-spaced trapezoid; `steps` panels).
pub fn weighted_bridge_area_exact(
    a: &Region,
    b: &Region,
    dist: &SizeDistribution,
    steps: usize,
) -> f64 {
    let lo = dist.x0();
    let hi = dist.x_max();
    let n = steps.max(4);
    let mut sum = 0.0;
    let ratio = (hi / lo).powf(1.0 / n as f64);
    let mut x_prev = lo;
    let mut f_prev = bridge_critical_area_exact(a, b, lo as i64) as f64 * dist.pdf(lo);
    for i in 1..=n {
        let x = lo * ratio.powi(i as i32);
        let f = bridge_critical_area_exact(a, b, x as i64) as f64 * dist.pdf(x);
        sum += 0.5 * (f + f_prev) * (x - x_prev);
        x_prev = x;
        f_prev = f;
    }
    sum
}

/// Convenience: the parallel-run/spacing description of two rectangles
/// (suitable inputs for [`weighted_bridge_area`]).
pub fn facing_geometry(a: &Rect, b: &Rect) -> (f64, f64) {
    let sep = geom::edge_separation(a, b);
    (sep.parallel_length as f64, sep.spacing as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> SizeDistribution {
        SizeDistribution::new(1_000, 20_000)
    }

    /// Numeric reference for the strip closed form.
    fn numeric_strip(l: f64, d: f64, dist: &SizeDistribution) -> f64 {
        let a = d.max(dist.x0());
        let b = dist.x_max();
        let n = 400_000;
        let h = (b - a) / n as f64;
        let f = |x: f64| (l + x) * (x - d) * dist.pdf(x);
        let mut sum = 0.5 * (f(a) + f(b));
        for i in 1..n {
            sum += f(a + i as f64 * h);
        }
        sum * h
    }

    #[test]
    fn closed_form_matches_numeric_integration() {
        let d = dist();
        for &(l, s) in &[(10_000.0, 1_500.0), (50_000.0, 2_000.0), (3_000.0, 500.0)] {
            let analytic = weighted_bridge_area(l, s, &d);
            let numeric = numeric_strip(l, s, &d);
            let rel = (analytic - numeric).abs() / numeric;
            assert!(rel < 1e-3, "l={l} s={s}: {analytic} vs {numeric}");
        }
    }

    #[test]
    fn cut_open_closed_form_matches_numeric() {
        let d = dist();
        let c = 1_000.0;
        let analytic = weighted_cut_open_area(c, &d);
        let (a, b) = (c.max(d.x0()), d.x_max());
        let n = 400_000;
        let h = (b - a) / n as f64;
        let f = |x: f64| (x - c) * (x - c) * d.pdf(x);
        let mut sum = 0.5 * (f(a) + f(b));
        for i in 1..n {
            sum += f(a + i as f64 * h);
        }
        let numeric = sum * h;
        let rel = (analytic - numeric).abs() / numeric;
        assert!(rel < 1e-3, "{analytic} vs {numeric}");
    }

    #[test]
    fn closer_wires_have_larger_critical_area() {
        let d = dist();
        let near = weighted_bridge_area(10_000.0, 1_500.0, &d);
        let far = weighted_bridge_area(10_000.0, 4_000.0, &d);
        assert!(near > far, "{near} vs {far}");
        // Longer run, larger area.
        let long = weighted_bridge_area(40_000.0, 1_500.0, &d);
        assert!(long > near);
    }

    #[test]
    fn spacing_beyond_xmax_gives_zero() {
        let d = dist();
        assert_eq!(weighted_bridge_area(10_000.0, 25_000.0, &d), 0.0);
        assert_eq!(weighted_cut_open_area(25_000.0, &d), 0.0);
    }

    #[test]
    fn exact_evaluator_matches_closed_form_for_parallel_wires() {
        let d = dist();
        let (l, s, w) = (20_000i64, 2_000i64, 3_000i64);
        let a = Region::from_rects([Rect::new(0, 0, l, w)]);
        let b = Region::from_rects([Rect::new(0, w + s, l, 2 * w + s)]);
        let exact = weighted_bridge_area_exact(&a, &b, &d, 400);
        let closed = weighted_bridge_area(l as f64, s as f64, &d);
        // The closed form ignores that the defect can also bridge around
        // the ends and the finite wire width; agreement within ~15 %.
        let rel = (exact - closed).abs() / closed;
        assert!(rel < 0.15, "exact {exact} vs closed {closed} (rel {rel})");
    }

    #[test]
    fn exact_area_grows_with_defect_size() {
        let a = Region::from_rects([Rect::new(0, 0, 10_000, 1_000)]);
        let b = Region::from_rects([Rect::new(0, 3_000, 10_000, 4_000)]);
        // Below the 2 µm gap: zero.
        assert_eq!(bridge_critical_area_exact(&a, &b, 1_500), 0);
        let at3 = bridge_critical_area_exact(&a, &b, 3_000);
        let at5 = bridge_critical_area_exact(&a, &b, 5_000);
        assert!(at3 > 0);
        assert!(at5 > at3);
    }

    #[test]
    fn probability_magnitude_matches_paper_range() {
        // The paper says p_j ranges 1e-7 .. 1e-9. A typical wire pair in
        // our technology: 10–50 µm run at 1.5–2 µm spacing.
        let d = dist();
        let area = weighted_bridge_area(30_000.0, 1_500.0, &d);
        let p = area * crate::mechanisms::METAL1_SHORT_DENSITY_PER_NM2;
        assert!(
            (1e-9..1e-6).contains(&p),
            "p = {p} outside the paper's plausible range"
        );
    }
}
