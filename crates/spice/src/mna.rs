//! Modified nodal analysis: the stamping interface and the dense LU
//! solver.
//!
//! Unknown vector layout: `[v_1 .. v_{N-1}, i_{V1} .. i_{Vk}]` — node
//! voltages for every node except ground, then one branch current per
//! independent voltage source. Two matrix backends implement the
//! [`Stamper`] interface: the dense row-major [`MnaSystem`] here (the
//! robust choice for tiny systems) and the pattern-reusing sparse
//! engine in [`crate::sparse`] (the fast path for everything else; see
//! that module for the symbolic/numeric split).

use crate::SpiceError;

/// Relative pivot threshold shared by the dense and sparse LU: a pivot
/// counts as singular only when it is this small *relative to the scale
/// of its column* (dense) or row (sparse). An absolute threshold
/// misfires on badly scaled but perfectly solvable systems — gmin
/// stepping routinely produces rows around 1e-12, and a fault-isolated
/// subcircuit can sit many decades below that while still having a
/// well-conditioned diagonal at its own scale.
///
/// The constant sits just above machine epsilon (≈ 5 ε) rather than at
/// a "comfortable" 1e-12: fault simulation *legitimately* factors
/// systems with condition numbers near 1e14 — a 0.01 Ω bridge (100 S)
/// in series with a gmin path (1e-12 S) leaves a Schur-complement
/// pivot fourteen decades below its column scale, and the paper's
/// resistor fault model depends on solving exactly that. Only pivots
/// indistinguishable from elimination round-off are rejected.
pub(crate) const REL_PIVOT_TOL: f64 = 1e-15;

/// The MNA assembly interface: anything devices can stamp into.
///
/// Required methods are the raw accumulators; the `stamp_*` helpers are
/// provided so every backend shares identical stamp semantics.
pub trait Stamper {
    /// System dimension.
    fn dim(&self) -> usize;

    /// Adds `g` at `(row, col)`. Indices refer to the unknown vector; a
    /// `None` (ground) entry is skipped by the stamping helpers below.
    fn add(&mut self, row: usize, col: usize, g: f64);

    /// Adds `v` to the right-hand side at `row`.
    fn add_rhs(&mut self, row: usize, v: f64);

    /// Zeroes matrix and right-hand side for the next Newton iteration.
    fn clear(&mut self);

    /// Stamps a conductance `g` between unknowns `a` and `b`
    /// (`None` = ground).
    fn stamp_conductance(&mut self, a: Option<usize>, b: Option<usize>, g: f64) {
        if let Some(i) = a {
            self.add(i, i, g);
        }
        if let Some(j) = b {
            self.add(j, j, g);
        }
        if let (Some(i), Some(j)) = (a, b) {
            self.add(i, j, -g);
            self.add(j, i, -g);
        }
    }

    /// Stamps a current `i` flowing *out of* unknown `a` and *into*
    /// unknown `b` (SPICE convention for a source from a to b).
    fn stamp_current(&mut self, a: Option<usize>, b: Option<usize>, i: f64) {
        if let Some(ia) = a {
            self.add_rhs(ia, -i);
        }
        if let Some(ib) = b {
            self.add_rhs(ib, i);
        }
    }

    /// Stamps a transconductance: current into (c→d) controlled by the
    /// voltage between (a→b): `i_cd = gm · v_ab`.
    fn stamp_vccs(
        &mut self,
        c: Option<usize>,
        d: Option<usize>,
        a: Option<usize>,
        b: Option<usize>,
        gm: f64,
    ) {
        for (row, sign_row) in [(c, 1.0), (d, -1.0)] {
            let Some(r) = row else { continue };
            if let Some(i) = a {
                self.add(r, i, sign_row * gm);
            }
            if let Some(j) = b {
                self.add(r, j, -sign_row * gm);
            }
        }
    }

    /// Stamps an ideal voltage source as the `k`-th branch-current
    /// unknown (absolute index `branch_row`), forcing `v_p − v_n = v`.
    fn stamp_vsource(&mut self, branch_row: usize, p: Option<usize>, n: Option<usize>, v: f64) {
        if let Some(ip) = p {
            self.add(ip, branch_row, 1.0);
            self.add(branch_row, ip, 1.0);
        }
        if let Some(in_) = n {
            self.add(in_, branch_row, -1.0);
            self.add(branch_row, in_, -1.0);
        }
        self.add_rhs(branch_row, v);
    }
}

/// A dense row-major matrix with its right-hand side, sized for MNA.
#[derive(Debug, Clone)]
pub struct MnaSystem {
    n: usize,
    a: Vec<f64>,
    /// Right-hand side.
    pub rhs: Vec<f64>,
}

impl Stamper for MnaSystem {
    fn dim(&self) -> usize {
        self.n
    }

    #[inline]
    fn add(&mut self, row: usize, col: usize, g: f64) {
        debug_assert!(row < self.n && col < self.n);
        self.a[row * self.n + col] += g;
    }

    #[inline]
    fn add_rhs(&mut self, row: usize, v: f64) {
        debug_assert!(row < self.n);
        self.rhs[row] += v;
    }

    fn clear(&mut self) {
        self.a.fill(0.0);
        self.rhs.fill(0.0);
    }
}

impl MnaSystem {
    /// Creates a zeroed `n × n` system.
    pub fn new(n: usize) -> Self {
        MnaSystem {
            n,
            a: vec![0.0; n * n],
            rhs: vec![0.0; n],
        }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Sets the right-hand side from a slice (used by the sparse
    /// engine's dense fallback).
    pub(crate) fn set_rhs(&mut self, rhs: &[f64]) {
        self.rhs.copy_from_slice(rhs);
    }

    /// Solves the system in place by LU with partial pivoting, returning
    /// the solution vector.
    ///
    /// Singularity is judged *relative to each column's original
    /// scale* (`REL_PIVOT_TOL`): a column whose best pivot collapses
    /// by thirteen decades against its own entries is dependent for any
    /// practical purpose, while a tiny-but-consistent column (a badly
    /// scaled yet solvable system) factors normally.
    ///
    /// # Errors
    /// [`SpiceError::Singular`] when no usable pivot exists.
    pub fn solve(&mut self, analysis: &str) -> Result<Vec<f64>, SpiceError> {
        let n = self.n;
        let a = &mut self.a;
        let b = &mut self.rhs;
        let mut perm: Vec<usize> = (0..n).collect();

        // Per-column scale of the *original* matrix: the reference for
        // the relative singularity test below.
        let mut col_scale = vec![0.0f64; n];
        for row in 0..n {
            for (col, scale) in col_scale.iter_mut().enumerate() {
                *scale = scale.max(a[row * n + col].abs());
            }
        }

        for col in 0..n {
            // Partial pivot.
            let mut best = col;
            let mut best_mag = a[perm[col] * n + col].abs();
            for row in (col + 1)..n {
                let mag = a[perm[row] * n + col].abs();
                if mag > best_mag {
                    best = row;
                    best_mag = mag;
                }
            }
            if best_mag <= REL_PIVOT_TOL * col_scale[col] {
                // Covers the all-zero column (scale 0 ⇒ best_mag 0).
                return Err(SpiceError::Singular {
                    analysis: analysis.to_string(),
                });
            }
            perm.swap(col, best);
            let prow = perm[col];
            let pivot = a[prow * n + col];
            for &r in &perm[(col + 1)..n] {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = factor; // store L
                for k in (col + 1)..n {
                    a[r * n + k] -= factor * a[prow * n + k];
                }
                b[r] -= factor * b[prow];
            }
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for col in (0..n).rev() {
            let r = perm[col];
            let mut sum = b[r];
            for k in (col + 1)..n {
                sum -= a[r * n + k] * x[k];
            }
            x[col] = sum / a[r * n + col];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let mut s = MnaSystem::new(3);
        for i in 0..3 {
            s.add(i, i, 1.0);
            s.add_rhs(i, (i + 1) as f64);
        }
        let x = s.solve("test").unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solves_with_pivoting() {
        // Leading zero forces a row swap.
        let mut s = MnaSystem::new(2);
        s.add(0, 1, 1.0);
        s.add(1, 0, 2.0);
        s.add_rhs(0, 3.0);
        s.add_rhs(1, 4.0);
        let x = s.solve("test").unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut s = MnaSystem::new(2);
        s.add(0, 0, 1.0);
        s.add(0, 1, 1.0);
        s.add(1, 0, 1.0);
        s.add(1, 1, 1.0);
        s.add_rhs(0, 1.0);
        assert!(matches!(s.solve("test"), Err(SpiceError::Singular { .. })));
    }

    #[test]
    fn badly_scaled_but_solvable_system_factors() {
        // Regression: the old absolute 1e-300 cutoff declared this
        // diagonal system singular even though it is perfectly
        // conditioned at its own scale.
        let mut s = MnaSystem::new(2);
        s.add(0, 0, 1e-305);
        s.add(1, 1, 2e-305);
        s.add_rhs(0, 3e-305);
        s.add_rhs(1, 2e-305);
        let x = s.solve("test").unwrap();
        assert!((x[0] - 3.0).abs() < 1e-9, "x0 = {}", x[0]);
        assert!((x[1] - 1.0).abs() < 1e-9, "x1 = {}", x[1]);
    }

    #[test]
    fn mixed_scale_gmin_row_is_not_singular() {
        // One row at gmin scale (1e-12), one at unit scale — the
        // classic gmin-stepping shape. Must factor.
        let mut s = MnaSystem::new(2);
        s.add(0, 0, 1e-12);
        s.add(1, 1, 1.0);
        s.add_rhs(0, 2e-12);
        s.add_rhs(1, 3.0);
        let x = s.solve("test").unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn dependent_columns_relative_to_scale_detected() {
        // Columns identical up to 1e-16 of their scale: numerically
        // singular even though every entry is far above 1e-300.
        let mut s = MnaSystem::new(2);
        s.add(0, 0, 1e6);
        s.add(0, 1, 1e6);
        s.add(1, 0, 2e6);
        s.add(1, 1, 2e6);
        s.add_rhs(0, 1.0);
        assert!(matches!(s.solve("test"), Err(SpiceError::Singular { .. })));
    }

    #[test]
    fn voltage_divider_by_stamps() {
        // V=5 on node0 via branch row 2; R1 between 0 and 1, R2 node1 to gnd.
        // Unknowns: v0, v1, i_v.
        let mut s = MnaSystem::new(3);
        let g1 = 1.0 / 1000.0;
        let g2 = 1.0 / 1000.0;
        s.stamp_conductance(Some(0), Some(1), g1);
        s.stamp_conductance(Some(1), None, g2);
        s.stamp_vsource(2, Some(0), None, 5.0);
        let x = s.solve("divider").unwrap();
        assert!((x[0] - 5.0).abs() < 1e-9);
        assert!((x[1] - 2.5).abs() < 1e-9);
        // Source current: 5V across 2k = 2.5 mA flowing out of + terminal.
        assert!((x[2] + 0.0025).abs() < 1e-9);
    }

    #[test]
    fn vccs_stamp_directions() {
        // gm * v(a) injected into node c from ground; check sign.
        // Unknowns: a(0), c(1). Drive a with a 1V source (branch 2).
        let mut s = MnaSystem::new(3);
        s.stamp_vsource(2, Some(0), None, 1.0);
        s.stamp_conductance(Some(1), None, 1.0); // 1S load at c
                                                 // current c<-d controlled by v(a)-0, gm=2: i flows from c to d(ground)
        s.stamp_vccs(Some(1), None, Some(0), None, 2.0);
        let x = s.solve("vccs").unwrap();
        // KCL at c: g*v_c + gm*v_a = 0 -> v_c = -2.0
        assert!((x[1] + 2.0).abs() < 1e-12);
    }
}
