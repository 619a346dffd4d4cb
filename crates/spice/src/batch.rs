//! Batched multi-fault transient engine: k circuit variants advanced in
//! SIMD-friendly lockstep over one shared matrix structure.
//!
//! A fault campaign re-simulates the *same* testbench with a handful of
//! MNA entries perturbed per fault. The scalar path pays the full
//! per-fault cost anyway: every variant walks its own factorisation
//! plan, refactors its own matrix, and iterates its own Newton loop.
//! This module shares everything that is structural and batches
//! everything that is numeric:
//!
//! * [`BatchGroup`] — one symbolic factorisation for a whole group of
//!   same-shape fault variants. The pattern is built over the *union*
//!   of every member's structural nonzeros, with pivot selection
//!   restricted to the *intersection* (entries present in every lane),
//!   so a single elimination order is structurally valid for all of
//!   them. Source-model shorts get a cheaper special case: the injected
//!   ideal source only adds a border row/column, so the group factors
//!   the unmodified testbench block and folds the border in with a
//!   rank-1 bordered-block solve per lane.
//! * [`BatchedSystem`] — structure-of-arrays numeric state: assembled
//!   values, RHS, LU factors and solutions are stored lane-major
//!   (`vals[slot * k + lane]`), so the refactorisation and triangular
//!   solves walk **one** index stream from the shared plan while the
//!   inner loops run contiguous `k`-wide chunks the compiler can
//!   auto-vectorise. Failed or retired lanes are masked by zeroing
//!   their pivot reciprocals — zeros propagate harmlessly, NaNs would
//!   not.
//! * [`run_group`] — a batched transient driver mirroring
//!   [`crate::tran()`]: shared drift-free grid, per-lane Newton
//!   convergence masks (a converged lane's iterate is latched so its
//!   trajectory is independent of its batch-mates), per-lane damped
//!   retry, and lane compaction — a lane whose sample callback stops
//!   it (fault detected) or whose Newton iteration dies is retired and
//!   its slot refilled from the pending queue.
//!
//! ## The scalar-fallback contract
//!
//! The batch path never step-halves and never re-pivots per lane: any
//! lane the lockstep kernel cannot finish cleanly (dead pivot, element
//! growth, non-finite iterate, damped-Newton exhaustion, degenerate
//! border) is **ejected** and reported with `completed = false`. The
//! caller re-runs that variant through the scalar path, which has the
//! full robustness ladder. Verdicts therefore come either from a clean
//! lockstep run or from the scalar engine — never from a degraded
//! batch lane. Groups whose solved block is below
//! [`crate::sparse::DENSE_CUTOFF`] or whose pivot restriction leaves no
//! transversal refuse to build at all ([`BatchGroup::build`] returns
//! `None`) and run scalar. See `docs/batched.md`.

use crate::dcop::{
    dc_operating_point_with, newton_update, CycleGuard, NewtonOpts, FAILED_ITERATIONS,
};
use crate::devices::{
    stamp_linear, stamp_nonlinear, CapCompanion, StampParams, StampPlan, UnknownMap,
};
use crate::mna::{Stamper, REL_PIVOT_TOL};
use crate::netlist::{Circuit, ElementKind};
use crate::sparse::{
    pattern_coords, Pattern, PatternCache, Plan, SolverStats, DENSE_CUTOFF, GROWTH_LIMIT, NO_SLOT,
};
use crate::tran::{cap_instances, CapInstance, CapState, Integrator, TranSpec};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

static BATCHES: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.batch.batches");
static LANES: cat_telemetry::StaticCounter = cat_telemetry::StaticCounter::new("spice.batch.lanes");
static COMPACTIONS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.batch.compactions");
static REFILLS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.batch.refills");
static EJECTIONS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.batch.ejections");

/// The shared symbolic half of a batch: one factorisation plan valid
/// for every member of a group of same-shape circuit variants.
#[derive(Debug, Clone)]
pub struct BatchGroup {
    /// Rows/columns actually factored (excludes the border in border
    /// mode).
    n_solve: usize,
    /// Full unknown-vector dimension of every member.
    dim: usize,
    /// Node count (including ground) of every member.
    node_count: usize,
    /// Border mode: every member's last element is an appended ideal
    /// V-source whose branch row/column is folded in by a bordered
    /// solve instead of being part of the factored block.
    border: bool,
    pattern: Arc<Pattern>,
}

impl BatchGroup {
    /// Recognises the bordered-group shape: `faulty` is `base` plus one
    /// appended V-source (the source-model short injection) with no new
    /// nodes, so its matrix is the base matrix plus one border
    /// row/column.
    pub fn is_border(base: &Circuit, faulty: &Circuit) -> bool {
        faulty.node_count() == base.node_count()
            && faulty.elements().len() == base.elements().len() + 1
            && matches!(
                faulty.elements().last().map(|e| &e.kind),
                Some(ElementKind::Vsource { .. })
            )
    }

    /// Builds the shared plan for a group of circuit variants. All
    /// members must agree on node count and unknown dimension (and, in
    /// border mode, end with the appended V-source). Returns `None`
    /// when the group cannot be batched — solved block under
    /// [`DENSE_CUTOFF`], mismatched shapes, or a pivot restriction with
    /// no structural transversal — in which case the members run
    /// through the scalar path instead.
    pub fn build(circuits: &[&Circuit], border: bool) -> Option<BatchGroup> {
        let first = circuits.first()?;
        let node_count = first.node_count();
        let dim = UnknownMap::new(first).dim();
        let n_solve = if border { dim.checked_sub(1)? } else { dim };
        if n_solve < DENSE_CUTOFF {
            return None;
        }
        let mut union: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut counts: HashMap<(u32, u32), usize> = HashMap::new();
        for ckt in circuits {
            if ckt.validate().is_err() || ckt.node_count() != node_count {
                return None;
            }
            let map = UnknownMap::new(ckt);
            if map.dim() != dim {
                return None;
            }
            if border {
                let last_ei = ckt.elements().len() - 1;
                if !matches!(ckt.elements()[last_ei].kind, ElementKind::Vsource { .. })
                    || map.branch_row(last_ei) != dim - 1
                {
                    return None;
                }
            }
            let mut coords = pattern_coords(ckt, &map);
            coords.sort_unstable();
            coords.dedup();
            for (r, c) in coords {
                if border && ((r as usize) >= n_solve || (c as usize) >= n_solve) {
                    // The border row/column is handled outside the
                    // factored block.
                    continue;
                }
                union.insert((r, c));
                *counts.entry((r, c)).or_insert(0) += 1;
            }
        }
        let k = circuits.len();
        let allowed: HashSet<(u32, u32)> = counts
            .into_iter()
            .filter(|&(_, c)| c == k)
            .map(|(rc, _)| rc)
            .collect();
        let pattern = Pattern::build_restricted(n_solve, union.into_iter().collect(), &allowed)?;
        Some(BatchGroup {
            n_solve,
            dim,
            node_count,
            border,
            pattern: Arc::new(pattern),
        })
    }

    /// Full unknown-vector dimension of every member.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the group solves through the bordered-block path.
    pub fn border(&self) -> bool {
        self.border
    }
}

/// Structure-of-arrays numeric state for `k` lanes sharing one
/// [`BatchGroup`] plan. Every per-entry quantity is stored lane-major
/// (`[entry 0: lane 0..k][entry 1: lane 0..k]…`), so the factorisation
/// walks the plan's index stream once and the innermost loops are
/// contiguous `k`-wide chunks.
#[derive(Debug)]
pub struct BatchedSystem {
    k: usize,
    n: usize,
    dim: usize,
    border: bool,
    pattern: Arc<Pattern>,
    /// Assembled values, `nnz × k`.
    vals: Vec<f64>,
    /// Right-hand side of the factored block, `n × k`.
    rhs: Vec<f64>,
    /// Border column (entries at `(row, n_solve)`), `n × k`.
    bcol: Vec<f64>,
    /// Border row (entries at `(n_solve, col)`), `n × k`.
    brow: Vec<f64>,
    /// Border diagonal `(n_solve, n_solve)`, `k`.
    bdiag: Vec<f64>,
    /// Border RHS, `k`.
    brhs: Vec<f64>,
    base_vals: Vec<f64>,
    base_rhs: Vec<f64>,
    base_bcol: Vec<f64>,
    base_brow: Vec<f64>,
    base_bdiag: Vec<f64>,
    base_brhs: Vec<f64>,
    /// LU factors, `nnz_factored × k`.
    lu: Vec<f64>,
    /// Pivot reciprocals, `n × k`; `0.0` marks a masked/failed lane so
    /// zeros (not NaNs) propagate through its arithmetic.
    inv_diag: Vec<f64>,
    /// Scatter workspace, `n × k`.
    work: Vec<f64>,
    /// Permuted solution of the main RHS, `n × k`.
    y: Vec<f64>,
    /// Permuted solution of the border column, `n × k`.
    z: Vec<f64>,
    /// Unpermuted main solution, `n × k`.
    xy: Vec<f64>,
    /// Unpermuted border-column solution, `n × k`.
    xz: Vec<f64>,
    /// Final per-lane solutions, `dim × k`.
    x: Vec<f64>,
    // k-sized scratch.
    a_max: Vec<f64>,
    factor_max: Vec<f64>,
    scale: Vec<f64>,
    num: Vec<f64>,
    den: Vec<f64>,
}

impl BatchedSystem {
    /// Allocates numeric state for `k` lanes over `group`'s plan.
    pub fn new(group: &BatchGroup, k: usize) -> Self {
        let n = group.n_solve;
        let nnz = group.pattern.nnz();
        let nlu = group.pattern.nnz_factored();
        BatchedSystem {
            k,
            n,
            dim: group.dim,
            border: group.border,
            pattern: group.pattern.clone(),
            vals: vec![0.0; nnz * k],
            rhs: vec![0.0; n * k],
            bcol: vec![0.0; n * k],
            brow: vec![0.0; n * k],
            bdiag: vec![0.0; k],
            brhs: vec![0.0; k],
            base_vals: vec![0.0; nnz * k],
            base_rhs: vec![0.0; n * k],
            base_bcol: vec![0.0; n * k],
            base_brow: vec![0.0; n * k],
            base_bdiag: vec![0.0; k],
            base_brhs: vec![0.0; k],
            lu: vec![0.0; nlu * k],
            inv_diag: vec![0.0; n * k],
            work: vec![0.0; n * k],
            y: vec![0.0; n * k],
            z: vec![0.0; n * k],
            xy: vec![0.0; n * k],
            xz: vec![0.0; n * k],
            x: vec![0.0; group.dim * k],
            a_max: vec![0.0; k],
            factor_max: vec![0.0; k],
            scale: vec![0.0; k],
            num: vec![0.0; k],
            den: vec![0.0; k],
        }
    }

    /// A [`Stamper`] view of one lane: devices stamp through the shared
    /// slot map; in border mode, writes touching the border row/column
    /// are intercepted into the per-lane border arrays.
    pub fn lane(&mut self, lane: usize) -> LaneStamper<'_> {
        debug_assert!(lane < self.k);
        LaneStamper { sys: self, lane }
    }

    /// Zeroes one lane's assembled values and RHS.
    fn clear_lane(&mut self, lane: usize) {
        let kw = self.k;
        let nnz = self.pattern.nnz();
        for s in 0..nnz {
            self.vals[s * kw + lane] = 0.0;
        }
        for r in 0..self.n {
            self.rhs[r * kw + lane] = 0.0;
            self.bcol[r * kw + lane] = 0.0;
            self.brow[r * kw + lane] = 0.0;
        }
        self.bdiag[lane] = 0.0;
        self.brhs[lane] = 0.0;
    }

    /// Saves the currently assembled values as the per-step baseline
    /// (the step-constant linear stamps).
    pub fn snapshot_baseline(&mut self) {
        self.base_vals.copy_from_slice(&self.vals);
        self.base_rhs.copy_from_slice(&self.rhs);
        self.base_bcol.copy_from_slice(&self.bcol);
        self.base_brow.copy_from_slice(&self.brow);
        self.base_bdiag.copy_from_slice(&self.bdiag);
        self.base_brhs.copy_from_slice(&self.brhs);
    }

    /// Restores the baseline for the next Newton iteration's nonlinear
    /// restamp.
    pub fn restore_baseline(&mut self) {
        self.vals.copy_from_slice(&self.base_vals);
        self.rhs.copy_from_slice(&self.base_rhs);
        self.bcol.copy_from_slice(&self.base_bcol);
        self.brow.copy_from_slice(&self.base_brow);
        self.bdiag.copy_from_slice(&self.base_bdiag);
        self.brhs.copy_from_slice(&self.base_brhs);
    }

    /// Lockstep refactorisation + triangular solves for every lane.
    /// `active` masks lanes that should be solved at all; `ok` is
    /// cleared for any active lane whose factorisation dies (dead
    /// pivot, element growth, degenerate border) — the numeric checks
    /// mirror the scalar kernel in [`crate::sparse`] per lane. Results
    /// land in the internal solution array (see
    /// [`BatchedSystem::solution`]); masked and failed lanes produce
    /// zeros, never NaNs.
    pub fn solve(&mut self, active: &[bool], ok: &mut [bool]) {
        let pattern = self.pattern.clone();
        let plan = &pattern.plan;
        let kw = self.k;
        let n = self.n;
        self.a_max.fill(0.0);
        self.factor_max.fill(0.0);

        // Up-looking row LU over the frozen plan: one index stream,
        // k-wide value chunks. Unlike the scalar kernel there is no
        // `f != 0` shortcut — lanes never agree on zeros, and an
        // unconditional contiguous loop is what vectorises.
        for r in 0..n {
            let (start, end) = (plan.row_start[r] as usize, plan.row_start[r + 1] as usize);
            for idx in start..end {
                let pos = plan.cols[idx] as usize * kw;
                let slot = plan.slot_at[idx];
                if slot == NO_SLOT {
                    self.work[pos..pos + kw].fill(0.0);
                } else {
                    let s = slot as usize * kw;
                    for l in 0..kw {
                        let v = self.vals[s + l];
                        self.work[pos + l] = v;
                        if v.abs() > self.a_max[l] {
                            self.a_max[l] = v.abs();
                        }
                    }
                }
            }
            let dk = plan.diag[r] as usize;
            for idx in start..dk {
                let j = plan.cols[idx] as usize;
                let jb = j * kw;
                for l in 0..kw {
                    self.work[jb + l] *= self.inv_diag[jb + l];
                }
                let dj = plan.diag[j] as usize;
                let jend = plan.row_start[j + 1] as usize;
                for idx2 in dj + 1..jend {
                    let tb = plan.cols[idx2] as usize * kw;
                    let ub = idx2 * kw;
                    for l in 0..kw {
                        self.work[tb + l] -= self.work[jb + l] * self.lu[ub + l];
                    }
                }
            }
            self.scale.fill(0.0);
            for idx in start..end {
                let pos = plan.cols[idx] as usize * kw;
                let ob = idx * kw;
                for l in 0..kw {
                    let v = self.work[pos + l];
                    self.lu[ob + l] = v;
                    if v.abs() > self.scale[l] {
                        self.scale[l] = v.abs();
                    }
                }
            }
            let db = dk * kw;
            let ib = r * kw;
            for l in 0..kw {
                if self.scale[l] > self.factor_max[l] {
                    self.factor_max[l] = self.scale[l];
                }
                let pivot = self.lu[db + l];
                if active[l] && ok[l] && pivot != 0.0 && pivot.abs() > REL_PIVOT_TOL * self.scale[l]
                {
                    self.inv_diag[ib + l] = 1.0 / pivot;
                } else {
                    self.inv_diag[ib + l] = 0.0;
                    if active[l] {
                        ok[l] = false;
                    }
                }
            }
        }
        for l in 0..kw {
            if active[l] && ok[l] && self.factor_max[l] > GROWTH_LIMIT * self.a_max[l] {
                ok[l] = false;
            }
        }

        // Main solve, all lanes at once.
        substitute(
            plan,
            n,
            kw,
            &self.lu,
            &self.inv_diag,
            &self.rhs,
            &mut self.y,
        );
        for r in 0..n {
            let cb = plan.col_perm[r] as usize * kw;
            let yb = r * kw;
            self.xy[cb..cb + kw].copy_from_slice(&self.y[yb..yb + kw]);
        }

        if self.border {
            // Bordered-block elimination: with the block A factored,
            //   [A u; wᵀ d]·[x; i] = [b; e]
            // solves as  z = A⁻¹u,  y = A⁻¹b,
            //   i = (e − wᵀy) / (d − wᵀz),  x = y − i·z.
            // One extra triangular solve per refactorisation instead of
            // refactoring an (n+1)-sized matrix per lane.
            substitute(
                plan,
                n,
                kw,
                &self.lu,
                &self.inv_diag,
                &self.bcol,
                &mut self.z,
            );
            for r in 0..n {
                let cb = plan.col_perm[r] as usize * kw;
                let zb = r * kw;
                self.xz[cb..cb + kw].copy_from_slice(&self.z[zb..zb + kw]);
            }
            self.num.copy_from_slice(&self.brhs);
            self.den.copy_from_slice(&self.bdiag);
            for c in 0..n {
                let cb = c * kw;
                for l in 0..kw {
                    self.num[l] -= self.brow[cb + l] * self.xy[cb + l];
                    self.den[l] -= self.brow[cb + l] * self.xz[cb + l];
                }
            }
            let bb = n * kw;
            for l in 0..kw {
                let i_lane = if active[l] && ok[l] {
                    let i = self.num[l] / self.den[l];
                    if i.is_finite() {
                        i
                    } else {
                        // Degenerate border (d − wᵀz = 0): the lane
                        // cannot be solved in bordered form.
                        ok[l] = false;
                        0.0
                    }
                } else {
                    0.0
                };
                self.x[bb + l] = i_lane;
            }
            for c in 0..n {
                let cb = c * kw;
                for l in 0..kw {
                    self.x[cb + l] = self.xy[cb + l] - self.x[bb + l] * self.xz[cb + l];
                }
            }
        } else {
            self.x[..n * kw].copy_from_slice(&self.xy);
        }
    }

    /// Copies one lane's latest solution (full `dim` unknowns) into
    /// `out`.
    pub fn solution(&self, lane: usize, out: &mut [f64]) {
        for (r, slot) in out.iter_mut().enumerate().take(self.dim) {
            *slot = self.x[r * self.k + lane];
        }
    }
}

/// Forward + back substitution over the shared plan for all lanes at
/// once. `rhs` is in original row order; the permuted solution lands in
/// `y` (position order).
fn substitute(
    plan: &Plan,
    n: usize,
    kw: usize,
    lu: &[f64],
    inv_diag: &[f64],
    rhs: &[f64],
    y: &mut [f64],
) {
    for r in 0..n {
        let pb = plan.row_perm[r] as usize * kw;
        let yb = r * kw;
        y[yb..yb + kw].copy_from_slice(&rhs[pb..pb + kw]);
        let (start, dk) = (plan.row_start[r] as usize, plan.diag[r] as usize);
        for idx in start..dk {
            let jb = plan.cols[idx] as usize * kw;
            let ub = idx * kw;
            for l in 0..kw {
                y[yb + l] -= lu[ub + l] * y[jb + l];
            }
        }
    }
    for r in (0..n).rev() {
        let yb = r * kw;
        let dk = plan.diag[r] as usize;
        let end = plan.row_start[r + 1] as usize;
        for idx in dk + 1..end {
            let jb = plan.cols[idx] as usize * kw;
            let ub = idx * kw;
            for l in 0..kw {
                y[yb + l] -= lu[ub + l] * y[jb + l];
            }
        }
        for l in 0..kw {
            y[yb + l] *= inv_diag[yb + l];
        }
    }
}

/// A [`Stamper`] for one lane of a [`BatchedSystem`].
pub struct LaneStamper<'a> {
    sys: &'a mut BatchedSystem,
    lane: usize,
}

impl Stamper for LaneStamper<'_> {
    fn dim(&self) -> usize {
        self.sys.dim
    }

    fn add(&mut self, row: usize, col: usize, g: f64) {
        let kw = self.sys.k;
        let n = self.sys.n;
        if self.sys.border && (row == n || col == n) {
            if row == n && col == n {
                self.sys.bdiag[self.lane] += g;
            } else if row == n {
                self.sys.brow[col * kw + self.lane] += g;
            } else {
                self.sys.bcol[row * kw + self.lane] += g;
            }
            return;
        }
        let slot = self.sys.pattern.slot_of[row * n + col];
        debug_assert!(
            slot != NO_SLOT,
            "stamp outside the batched pattern at ({row}, {col})"
        );
        self.sys.vals[slot as usize * kw + self.lane] += g;
    }

    fn add_rhs(&mut self, row: usize, v: f64) {
        if self.sys.border && row == self.sys.n {
            self.sys.brhs[self.lane] += v;
            return;
        }
        self.sys.rhs[row * self.sys.k + self.lane] += v;
    }

    fn clear(&mut self) {
        self.sys.clear_lane(self.lane);
    }
}

/// One circuit variant queued for a batched transient run.
#[derive(Debug, Clone, Copy)]
pub struct LaneJob<'c> {
    /// Caller-chosen identifier, passed back through the sample
    /// callback and the [`LaneReport`].
    pub id: usize,
    /// The variant to simulate.
    pub circuit: &'c Circuit,
}

/// Outcome of one [`LaneJob`] in a batched run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneReport {
    /// The job's `id`.
    pub id: usize,
    /// Accepted timesteps.
    pub steps: u64,
    /// Newton iterations spent on accepted steps.
    pub newton_iterations: u64,
    /// Newton iterations of failed phases (a plain phase before its
    /// damped retry, and the failing step of an ejected lane).
    pub failed_iterations: u64,
    /// The sample callback stopped the lane before the grid ended.
    pub stopped_early: bool,
    /// `true` when the lane ran start-to-finish (or was stopped by its
    /// callback) under the lockstep kernel; `false` when it was ejected
    /// and must be re-run through the scalar path.
    pub completed: bool,
}

/// Aggregate counters for one [`run_group`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchRunStats {
    /// Lane width the batch ran at.
    pub width: usize,
    /// Lane assignments (initial fill + refills).
    pub lanes: u64,
    /// Lanes started from the pending queue after a slot freed up.
    pub refills: u64,
    /// Lanes retired before reaching the end of the grid (detection
    /// early-stop or ejection).
    pub compactions: u64,
    /// Lanes the lockstep kernel could not finish (re-run scalar).
    pub ejections: u64,
    /// Total accepted steps across lanes.
    pub steps: u64,
    /// Total Newton iterations across lanes.
    pub newton_iterations: u64,
    /// Total failed-phase Newton iterations across lanes.
    pub failed_iterations: u64,
}

/// Per-job precomputed context (map, capacitances, stamp plan).
struct JobCtx<'c> {
    map: UnknownMap,
    instances: Vec<CapInstance>,
    plan: StampPlan<'c>,
}

/// Live state of one occupied lane slot.
struct Lane {
    job: usize,
    /// Completed full steps on the shared grid.
    step: usize,
    x: Vec<f64>,
    caps: Vec<CapState>,
    steps: u64,
    iters: u64,
    failed: u64,
}

/// Per-lane Newton bookkeeping for the step in flight.
struct NewtonLane {
    x: Vec<f64>,
    x_start: Vec<f64>,
    damped: bool,
    iter: usize,
    /// Solves this lane took part in over both phases of the step.
    solves: usize,
    guard: CycleGuard,
    /// `Some(Ok(iters))` converged (iterate latched), `Some(Err(()))`
    /// failed both phases.
    done: Option<Result<usize, ()>>,
}

enum LaneStart {
    Started(Lane),
    /// The initial sample already stopped the lane.
    Finished(LaneReport),
    Ejected(LaneReport),
}

/// Computes a lane's initial solution exactly as the scalar transient
/// does: UIC honours `.ic` lines and capacitor `ic=` values; otherwise
/// a full DC operating point (same ladder, same solver, same cache).
fn initial_solution(
    ckt: &Circuit,
    map: &UnknownMap,
    instances: &[CapInstance],
    spec: &TranSpec,
    cache: Option<&PatternCache>,
) -> Option<Vec<f64>> {
    if spec.uic {
        let mut x0 = vec![0.0; map.dim()];
        for &(node, v) in &ckt.initial_conditions {
            if let Some(i) = map.node_var(node) {
                x0[i] = v;
            }
        }
        for inst in instances {
            if let Some(v) = inst.ic {
                if inst.b == Circuit::GROUND {
                    if let Some(i) = map.node_var(inst.a) {
                        x0[i] = v;
                    }
                } else if inst.a == Circuit::GROUND {
                    if let Some(i) = map.node_var(inst.b) {
                        x0[i] = -v;
                    }
                }
            }
        }
        Some(x0)
    } else {
        dc_operating_point_with(ckt, spec.solver, cache).ok()
    }
}

#[allow(clippy::too_many_arguments)]
fn start_lane<F: FnMut(usize, f64, &[f64]) -> bool>(
    j: usize,
    jobs: &[LaneJob<'_>],
    ctxs: &[Option<JobCtx<'_>>],
    spec: &TranSpec,
    cache: Option<&PatternCache>,
    n_nodes: usize,
    dim: usize,
    on_sample: &mut F,
) -> LaneStart {
    let ejected = LaneReport {
        id: jobs[j].id,
        steps: 0,
        newton_iterations: 0,
        failed_iterations: 0,
        stopped_early: false,
        completed: false,
    };
    let Some(ctx) = ctxs[j].as_ref() else {
        return LaneStart::Ejected(ejected);
    };
    let Some(x0) = initial_solution(jobs[j].circuit, &ctx.map, &ctx.instances, spec, cache) else {
        // The scalar rerun will hit (and report) the same DC failure.
        return LaneStart::Ejected(ejected);
    };
    debug_assert_eq!(x0.len(), dim);
    let caps: Vec<CapState> = ctx
        .instances
        .iter()
        .map(|inst| CapState {
            v_prev: ctx.map.voltage(&x0, inst.a) - ctx.map.voltage(&x0, inst.b),
            i_prev: 0.0,
        })
        .collect();
    if !on_sample(jobs[j].id, 0.0, &x0[..n_nodes]) {
        return LaneStart::Finished(LaneReport {
            id: jobs[j].id,
            steps: 0,
            newton_iterations: 0,
            failed_iterations: 0,
            stopped_early: true,
            completed: true,
        });
    }
    LaneStart::Started(Lane {
        job: j,
        step: 0,
        x: x0,
        caps,
        steps: 0,
        iters: 0,
        failed: 0,
    })
}

/// Runs every job through `group`'s shared structure, `width` lanes at
/// a time, streaming accepted samples to `on_sample(id, t, voltages)`
/// exactly like [`crate::tran::tran_with`] does per circuit (the
/// callback returning `false` retires the lane). Lanes advance in
/// lockstep; a freed slot (detection, completion, ejection) is refilled
/// from the remaining jobs. Returns one [`LaneReport`] per job, in job
/// order, plus the run's aggregate counters. Jobs with
/// `completed == false` must be re-run through the scalar path.
pub fn run_group<F>(
    group: &BatchGroup,
    width: usize,
    spec: &TranSpec,
    jobs: &[LaneJob<'_>],
    cache: Option<&PatternCache>,
    mut on_sample: F,
) -> (Vec<LaneReport>, BatchRunStats)
where
    F: FnMut(usize, f64, &[f64]) -> bool,
{
    let _span = cat_telemetry::span!("spice.batch");
    let width = width.max(1).min(jobs.len().max(1));
    let mut stats = BatchRunStats {
        width,
        ..BatchRunStats::default()
    };
    BATCHES.inc();

    let n_nodes = group.node_count - 1;
    let dim = group.dim;
    let (full_steps, partial) = spec.grid();

    // Precompute per-job context; a job whose stamp plan cannot be
    // built (unknown model) is ejected outright.
    let ctxs: Vec<Option<JobCtx<'_>>> = jobs
        .iter()
        .map(|job| {
            let map = UnknownMap::new(job.circuit);
            if map.dim() != dim || job.circuit.node_count() != group.node_count {
                return None;
            }
            StampPlan::new(job.circuit).ok().map(|plan| JobCtx {
                map,
                instances: cap_instances(job.circuit),
                plan,
            })
        })
        .collect();

    let mut reports: Vec<Option<LaneReport>> = vec![None; jobs.len()];
    let mut sys = BatchedSystem::new(group, width);
    let mut lanes: Vec<Option<Lane>> = (0..width).map(|_| None).collect();
    let mut next_job = 0usize;

    // Fills `slot` from the queue; records reports for jobs that never
    // get off the ground.
    macro_rules! fill_slot {
        ($slot:expr, $is_refill:expr) => {
            while next_job < jobs.len() {
                let j = next_job;
                next_job += 1;
                match start_lane(j, jobs, &ctxs, spec, cache, n_nodes, dim, &mut on_sample) {
                    LaneStart::Started(lane) => {
                        stats.lanes += 1;
                        if $is_refill {
                            stats.refills += 1;
                        }
                        lanes[$slot] = Some(lane);
                        break;
                    }
                    LaneStart::Finished(report) => {
                        stats.lanes += 1;
                        reports[j] = Some(report);
                    }
                    LaneStart::Ejected(report) => {
                        stats.lanes += 1;
                        stats.ejections += 1;
                        reports[j] = Some(report);
                    }
                }
            }
        };
    }

    #[allow(clippy::needless_range_loop)] // `fill_slot!` borrows several arrays at `slot`
    for slot in 0..width {
        fill_slot!(slot, false);
    }

    let plain = &spec.newton;
    let damped_opts = NewtonOpts {
        max_iter: plain.max_iter * 3,
        max_step: 0.1,
        ..plain.clone()
    };
    let mut x_new = vec![0.0; dim];
    let mut t1s = vec![0.0f64; width];
    let mut partials = vec![false; width];
    let mut companions: Vec<Vec<CapCompanion>> = (0..width).map(|_| Vec::new()).collect();

    loop {
        let occupied: Vec<usize> = (0..width).filter(|&l| lanes[l].is_some()).collect();
        if occupied.is_empty() {
            break;
        }

        // Per-lane step setup on the shared drift-free grid: each lane
        // is at its own local step index (refilled lanes restart at 0),
        // so the first step of *that lane* is always backward Euler —
        // identical to the scalar start-up rule.
        for &l in &occupied {
            let st = lanes[l].as_ref().expect("occupied lane");
            let ctx = ctxs[st.job].as_ref().expect("started lane has context");
            let (t1, integ, is_partial) = if st.step < full_steps {
                let t1 = (st.step + 1) as f64 * spec.tstep;
                let integ = if st.step == 0 {
                    Integrator::BackwardEuler
                } else {
                    spec.integrator
                };
                (t1, integ, false)
            } else {
                let t_stop = partial.expect("lane past full grid only with a partial step");
                let integ = if full_steps == 0 {
                    Integrator::BackwardEuler
                } else {
                    spec.integrator
                };
                (t_stop, integ, true)
            };
            let t0 = st.step as f64 * spec.tstep;
            let dt = t1 - t0;
            companions[l].clear();
            companions[l].extend(ctx.instances.iter().zip(st.caps.iter()).map(|(inst, cs)| {
                let (geq, ieq) = match integ {
                    Integrator::BackwardEuler => {
                        let geq = inst.c / dt;
                        (geq, -geq * cs.v_prev)
                    }
                    Integrator::Trapezoidal => {
                        let geq = 2.0 * inst.c / dt;
                        (geq, -geq * cs.v_prev - cs.i_prev)
                    }
                };
                CapCompanion {
                    a: inst.a,
                    b: inst.b,
                    geq,
                    ieq,
                }
            }));
            t1s[l] = t1;
            partials[l] = is_partial;
        }

        // Step-constant stamps once per step, then snapshot.
        for &l in &occupied {
            let st = lanes[l].as_ref().expect("occupied lane");
            let ctx = ctxs[st.job].as_ref().expect("started lane has context");
            sys.clear_lane(l);
            let params = StampParams {
                time: t1s[l],
                cap_companions: Some(&companions[l]),
                ..StampParams::default()
            };
            let mut stamper = sys.lane(l);
            stamp_linear(jobs[st.job].circuit, &ctx.map, &mut stamper, &params);
        }
        sys.snapshot_baseline();

        // Lockstep Newton with per-lane convergence masks. A converged
        // lane's iterate is latched (it stops stamping and its solve
        // output is ignored), so each lane's trajectory is independent
        // of which other lanes share the batch.
        let mut newton: Vec<Option<NewtonLane>> = (0..width).map(|_| None).collect();
        for &l in &occupied {
            let st = lanes[l].as_ref().expect("occupied lane");
            newton[l] = Some(NewtonLane {
                x: st.x.clone(),
                x_start: st.x.clone(),
                damped: false,
                iter: 0,
                solves: 0,
                guard: CycleGuard::default(),
                done: None,
            });
        }
        loop {
            let pending: Vec<usize> = occupied
                .iter()
                .copied()
                .filter(|&l| newton[l].as_ref().is_some_and(|nl| nl.done.is_none()))
                .collect();
            if pending.is_empty() {
                break;
            }
            sys.restore_baseline();
            let mut active = vec![false; width];
            for &l in &pending {
                active[l] = true;
            }
            for &l in &pending {
                let st = lanes[l].as_ref().expect("occupied lane");
                let ctx = ctxs[st.job].as_ref().expect("started lane has context");
                let nl = newton[l].as_ref().expect("pending lane");
                let params = StampParams {
                    time: t1s[l],
                    cap_companions: Some(&companions[l]),
                    ..StampParams::default()
                };
                let mut stamper = sys.lane(l);
                stamp_nonlinear(
                    jobs[st.job].circuit,
                    &ctx.map,
                    &ctx.plan,
                    &nl.x,
                    &mut stamper,
                    &params,
                );
            }
            let mut ok = active.clone();
            sys.solve(&active, &mut ok);
            for &l in &pending {
                let nl = newton[l].as_mut().expect("pending lane");
                nl.solves += 1;
                let mut failed = !ok[l];
                if !failed {
                    sys.solution(l, &mut x_new);
                    if x_new.iter().any(|v| !v.is_finite()) {
                        failed = true;
                    }
                }
                if !failed {
                    let opts = if nl.damped { &damped_opts } else { plain };
                    nl.iter += 1;
                    // Lane solves carry no solver state from one
                    // iteration to the next, hence the constant state.
                    if newton_update(&mut nl.x, &x_new, opts) {
                        nl.done = Some(Ok(nl.iter));
                    } else if nl.iter >= opts.max_iter
                        || nl.guard.repeats(&nl.x, SolverStats::default())
                    {
                        failed = true;
                    }
                }
                if failed && nl.done.is_none() {
                    if nl.damped {
                        // Both phases exhausted: the scalar path (with
                        // its halving ladder) takes over.
                        nl.done = Some(Err(()));
                    } else {
                        nl.damped = true;
                        nl.iter = 0;
                        nl.guard.reset();
                        nl.x.copy_from_slice(&nl.x_start);
                    }
                }
            }
        }

        // Commit, record, retire, refill.
        for &l in &occupied {
            let nl = newton[l].as_ref().expect("newton loop resolves every lane");
            let result = nl.done.expect("newton loop resolves every lane");
            let accepted = result.unwrap_or(0);
            lanes[l].as_mut().expect("occupied lane").failed += (nl.solves - accepted) as u64;
            match result {
                Ok(iters) => {
                    let st = lanes[l].as_mut().expect("occupied lane");
                    let ctx = ctxs[st.job].as_ref().expect("started lane has context");
                    st.steps += 1;
                    st.iters += iters as u64;
                    for ((inst, cs), cc) in ctx
                        .instances
                        .iter()
                        .zip(st.caps.iter_mut())
                        .zip(&companions[l])
                    {
                        let v_new = ctx.map.voltage(&nl.x, inst.a) - ctx.map.voltage(&nl.x, inst.b);
                        cs.i_prev = cc.geq * v_new + cc.ieq;
                        cs.v_prev = v_new;
                    }
                    st.x.copy_from_slice(&nl.x);
                    let keep_going = on_sample(jobs[st.job].id, t1s[l], &st.x[..n_nodes]);
                    let finished_grid = if partials[l] {
                        // The final partial step records unconditionally
                        // in the scalar driver too.
                        true
                    } else {
                        st.step += 1;
                        st.step == full_steps && partial.is_none()
                    };
                    if finished_grid || !keep_going {
                        let report = LaneReport {
                            id: jobs[st.job].id,
                            steps: st.steps,
                            newton_iterations: st.iters,
                            failed_iterations: st.failed,
                            stopped_early: !keep_going && !finished_grid,
                            completed: true,
                        };
                        if !keep_going && !finished_grid {
                            stats.compactions += 1;
                        }
                        stats.steps += st.steps;
                        stats.newton_iterations += st.iters;
                        stats.failed_iterations += st.failed;
                        reports[st.job] = Some(report);
                        lanes[l] = None;
                        fill_slot!(l, true);
                    }
                }
                Err(()) => {
                    let st = lanes[l].take().expect("occupied lane");
                    stats.ejections += 1;
                    stats.compactions += 1;
                    stats.steps += st.steps;
                    stats.newton_iterations += st.iters;
                    stats.failed_iterations += st.failed;
                    reports[st.job] = Some(LaneReport {
                        id: jobs[st.job].id,
                        steps: st.steps,
                        newton_iterations: st.iters,
                        failed_iterations: st.failed,
                        stopped_early: false,
                        completed: false,
                    });
                    fill_slot!(l, true);
                }
            }
        }
    }

    LANES.add(stats.lanes);
    COMPACTIONS.add(stats.compactions);
    REFILLS.add(stats.refills);
    EJECTIONS.add(stats.ejections);
    // Batched steps and iterations fold into the same global counters
    // the scalar driver feeds, so `spice.tran.steps` /
    // `spice.newton.iterations` stay meaningful across both paths
    // (`spice.tran.runs` stays scalar-only by design).
    crate::tran::TRAN_STEPS.add(stats.steps);
    crate::tran::NEWTON_ITERATIONS.add(stats.newton_iterations);
    FAILED_ITERATIONS.add(stats.failed_iterations);

    let reports = reports
        .into_iter()
        .map(|r| r.expect("every job resolves to a report"))
        .collect();
    (reports, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_netlist;
    use crate::sparse::SolverKind;
    use crate::tran::tran_with;

    /// An RC ladder long enough to clear `DENSE_CUTOFF` (13 non-ground
    /// nodes + 1 branch row = 14 unknowns), with a scaling knob on one
    /// mid-ladder resistor so plain-mode lanes differ numerically.
    fn ladder(r5_ohms: f64, extra: &str) -> Circuit {
        let mut text = String::from("rc ladder\nv1 in 0 dc 5\nr0 in n1 1k\n");
        for i in 1..=12 {
            let r = if i == 5 {
                format!("{r5_ohms}")
            } else {
                "1k".to_string()
            };
            let next = if i == 12 {
                "nend".to_string()
            } else {
                format!("n{}", i + 1)
            };
            text.push_str(&format!("r{i} n{i} {next} {r}\nc{i} n{i} 0 1n\n"));
        }
        text.push_str(extra);
        text.push_str(".end\n");
        parse_netlist(&text).expect("ladder netlist parses")
    }

    fn spec() -> TranSpec {
        let mut spec = TranSpec::new(1e-6, 2e-5);
        spec.solver = SolverKind::Sparse;
        spec
    }

    /// Collects `(t, voltages)` samples for a scalar reference run.
    fn scalar_samples(ckt: &Circuit, spec: &TranSpec) -> Vec<(f64, Vec<f64>)> {
        let mut out = Vec::new();
        tran_with(ckt, spec, |t, x| {
            out.push((t, x.to_vec()));
            true
        })
        .expect("scalar reference run succeeds");
        out
    }

    type Samples = Vec<Vec<(f64, Vec<f64>)>>;

    fn batched_samples(
        group: &BatchGroup,
        width: usize,
        spec: &TranSpec,
        jobs: &[LaneJob<'_>],
    ) -> (Samples, Vec<LaneReport>, BatchRunStats) {
        let mut samples: Samples = vec![Vec::new(); jobs.len()];
        let (reports, stats) = run_group(group, width, spec, jobs, None, |id, t, x| {
            samples[id].push((t, x.to_vec()));
            true
        });
        (samples, reports, stats)
    }

    fn assert_waveforms_match(scalar: &[(f64, Vec<f64>)], batched: &[(f64, Vec<f64>)]) {
        assert_eq!(scalar.len(), batched.len(), "sample counts differ");
        for ((ts, xs), (tb, xb)) in scalar.iter().zip(batched) {
            assert_eq!(ts, tb, "sample times must be bit-identical");
            for (a, b) in xs.iter().zip(xb) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "waveforms diverged: {a} vs {b} at t={ts}"
                );
            }
        }
    }

    #[test]
    fn plain_group_matches_scalar_lanes() {
        let variants: Vec<Circuit> = [800.0, 1000.0, 1500.0, 4700.0]
            .map(|r| ladder(r, ""))
            .into();
        let refs: Vec<&Circuit> = variants.iter().collect();
        let group = BatchGroup::build(&refs, false).expect("plain group builds");
        assert!(!group.border());
        let spec = spec();
        let jobs: Vec<LaneJob<'_>> = refs
            .iter()
            .enumerate()
            .map(|(id, ckt)| LaneJob { id, circuit: ckt })
            .collect();
        let (samples, reports, stats) = batched_samples(&group, jobs.len(), &spec, &jobs);
        assert_eq!(stats.ejections, 0);
        for (i, ckt) in refs.iter().enumerate() {
            assert!(reports[i].completed);
            assert!(!reports[i].stopped_early);
            let reference = scalar_samples(ckt, &spec);
            assert_waveforms_match(&reference, &samples[i]);
            assert_eq!(reports[i].steps, (reference.len() - 1) as u64);
        }
    }

    #[test]
    fn border_group_matches_scalar_lanes() {
        // Source-model shorts: the base ladder plus one appended ideal
        // 0 V source per lane, shorting a different node to ground.
        let base = ladder(1000.0, "");
        let variants: Vec<Circuit> = ["n2", "n6", "n9"]
            .iter()
            .map(|node| ladder(1000.0, &format!("vshort {node} 0 dc 0\n")))
            .collect();
        for v in &variants {
            assert!(BatchGroup::is_border(&base, v));
        }
        let refs: Vec<&Circuit> = variants.iter().collect();
        let group = BatchGroup::build(&refs, true).expect("border group builds");
        assert!(group.border());
        let spec = spec();
        let jobs: Vec<LaneJob<'_>> = refs
            .iter()
            .enumerate()
            .map(|(id, ckt)| LaneJob { id, circuit: ckt })
            .collect();
        let (samples, reports, stats) = batched_samples(&group, jobs.len(), &spec, &jobs);
        assert_eq!(stats.ejections, 0);
        for (i, ckt) in refs.iter().enumerate() {
            assert!(reports[i].completed);
            let reference = scalar_samples(ckt, &spec);
            assert_waveforms_match(&reference, &samples[i]);
        }
    }

    #[test]
    fn narrow_batch_refills_from_queue_and_compacts_stopped_lanes() {
        let variants: Vec<Circuit> = [500.0, 900.0, 1300.0, 2100.0, 3400.0]
            .map(|r| ladder(r, ""))
            .into();
        let refs: Vec<&Circuit> = variants.iter().collect();
        let group = BatchGroup::build(&refs, false).expect("plain group builds");
        let spec = spec();
        let jobs: Vec<LaneJob<'_>> = refs
            .iter()
            .enumerate()
            .map(|(id, ckt)| LaneJob { id, circuit: ckt })
            .collect();
        // Stop job 1 after its third accepted sample; everything else
        // runs to completion through a 2-wide batch.
        let mut seen = vec![0usize; jobs.len()];
        let (reports, stats) = run_group(&group, 2, &spec, &jobs, None, |id, _t, _x| {
            seen[id] += 1;
            !(id == 1 && seen[id] > 3)
        });
        assert_eq!(stats.width, 2);
        assert!(stats.refills >= 3, "5 jobs over 2 lanes must refill");
        assert_eq!(stats.lanes, 5);
        assert!(stats.compactions >= 1);
        assert_eq!(stats.ejections, 0);
        assert!(reports[1].stopped_early && reports[1].completed);
        assert_eq!(reports[1].steps, 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.id, i);
            assert!(r.completed);
            if i != 1 {
                assert!(!r.stopped_early);
            }
        }
        let total: u64 = reports.iter().map(|r| r.steps).sum();
        assert_eq!(stats.steps, total);
    }

    #[test]
    fn width_one_matches_wider_batches() {
        let variants: Vec<Circuit> = [700.0, 1000.0, 2000.0].map(|r| ladder(r, "")).into();
        let refs: Vec<&Circuit> = variants.iter().collect();
        let group = BatchGroup::build(&refs, false).expect("plain group builds");
        let spec = spec();
        let jobs: Vec<LaneJob<'_>> = refs
            .iter()
            .enumerate()
            .map(|(id, ckt)| LaneJob { id, circuit: ckt })
            .collect();
        let (narrow, _, _) = batched_samples(&group, 1, &spec, &jobs);
        let (wide, _, _) = batched_samples(&group, 3, &spec, &jobs);
        // Lane latching makes each lane's trajectory independent of its
        // batch-mates, so widths agree bit-for-bit.
        for (a, b) in narrow.iter().zip(&wide) {
            assert_eq!(a.len(), b.len());
            for ((ta, xa), (tb, xb)) in a.iter().zip(b) {
                assert_eq!(ta, tb);
                assert_eq!(xa, xb);
            }
        }
    }

    #[test]
    fn tiny_groups_refuse_to_build() {
        let small = parse_netlist("tiny rc\nv1 in 0 dc 1\nr1 in out 1k\nc1 out 0 1n\n.end\n")
            .expect("tiny netlist parses");
        assert!(BatchGroup::build(&[&small], false).is_none());
    }

    #[test]
    fn partial_final_step_is_recorded() {
        // tstop off the grid: 20 full steps plus a partial one.
        let variants: Vec<Circuit> = [900.0, 1100.0].map(|r| ladder(r, "")).into();
        let refs: Vec<&Circuit> = variants.iter().collect();
        let group = BatchGroup::build(&refs, false).expect("plain group builds");
        let mut spec = spec();
        spec.tstop = 2.05e-5;
        let jobs: Vec<LaneJob<'_>> = refs
            .iter()
            .enumerate()
            .map(|(id, ckt)| LaneJob { id, circuit: ckt })
            .collect();
        let (samples, reports, _) = batched_samples(&group, 2, &spec, &jobs);
        for (i, ckt) in refs.iter().enumerate() {
            assert!(reports[i].completed);
            let reference = scalar_samples(ckt, &spec);
            assert_waveforms_match(&reference, &samples[i]);
            let last_t = samples[i].last().expect("has samples").0;
            assert_eq!(last_t, 2.05e-5);
        }
    }
}
