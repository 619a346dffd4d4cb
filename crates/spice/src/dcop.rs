//! Newton–Raphson nonlinear solve and the DC operating point.
//!
//! The operating point tries plain Newton first, then gmin stepping
//! (sweeping a node-shunt conductance down in decades), then source
//! stepping (ramping all independent sources from zero) — the classic
//! SPICE fallback ladder.
//!
//! The crate's one Newton loop, [`solve_newton_in`] (DC ladder and
//! transient rungs), ends an attempt early when its iterate repeats
//! bit for bit (`CycleGuard`). A repeat proves the iteration has
//! entered an exact limit cycle that can never converge, so the attempt
//! fails with the same [`SpiceError::NoConvergence`] it would have
//! reported at `max_iter`, minus the factorisations in between.

use crate::devices::{
    stamp_all_planned, stamp_linear, stamp_nonlinear, StampParams, StampPlan, UnknownMap,
};
use crate::mna::Stamper;
use crate::netlist::Circuit;
use crate::sparse::{MnaSolver, PatternCache, SolverBackend, SolverKind, SolverStats};
use crate::SpiceError;

/// Newton iteration controls.
#[derive(Debug, Clone)]
pub struct NewtonOpts {
    /// Maximum iterations per solve.
    pub max_iter: usize,
    /// Absolute voltage tolerance (V).
    pub vabstol: f64,
    /// Relative tolerance.
    pub reltol: f64,
    /// Maximum voltage change applied per iteration (damping clamp).
    pub max_step: f64,
}

impl Default for NewtonOpts {
    fn default() -> Self {
        NewtonOpts {
            max_iter: 200,
            vabstol: 1e-6,
            reltol: 1e-3,
            max_step: 1.0,
        }
    }
}

/// A failed Newton attempt: the error, plus the iterations the attempt
/// spent before giving up (the iteration whose solve errored
/// included), so callers can account for the discarded work.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonFailure {
    /// Why the attempt failed.
    pub error: SpiceError,
    /// Iterations spent, the failing one included.
    pub iterations: usize,
}

impl From<NewtonFailure> for SpiceError {
    fn from(failure: NewtonFailure) -> Self {
        failure.error
    }
}

/// Runs damped Newton–Raphson from the initial guess `x0`. Returns the
/// solution together with the number of iterations spent (the kernel
/// work measure the runtime experiments report).
///
/// Convenience wrapper constructing a fresh solver and stamp plan per
/// call; the hot paths build both once and call [`solve_newton_in`].
///
/// # Errors
/// [`SpiceError::NoConvergence`] when the iteration cannot converge
/// within `max_iter` iterations, [`SpiceError::Singular`] when the
/// Jacobian factorisation fails.
pub fn solve_newton(
    ckt: &Circuit,
    map: &UnknownMap,
    x0: &[f64],
    params: &StampParams<'_>,
    opts: &NewtonOpts,
    analysis: &str,
) -> Result<(Vec<f64>, usize), SpiceError> {
    let plan = StampPlan::new(ckt)?;
    let mut solver = MnaSolver::for_circuit(ckt, map, SolverKind::Auto, None);
    solve_newton_in(&mut solver, ckt, map, &plan, x0, params, opts, analysis)
        .map_err(SpiceError::from)
}

/// Runs damped Newton–Raphson inside a caller-owned solver: the
/// symbolic factorisation (sparse path) and the resolved stamp plan
/// are reused across every iteration — and, when the caller loops over
/// timesteps or gmin/source steps, across all of those solves too.
///
/// On the sparse path the step-constant (linear) stamps are assembled
/// once up front and restored by memcpy each iteration; only the
/// MOSFET linearisations are re-stamped per iterate.
///
/// # Cycle exit
/// Within one call the next iterate is a function of the current
/// iterate `x`, the fixed `params`/`opts`, and the solver's state (its
/// pivot plan, dense fallbacks and demotion — everything
/// [`SolverStats`] counts except `refactorisations`). When a
/// non-converged iterate equals an earlier one bit for bit under the
/// same solver state, every later iterate repeats the cycle between
/// them. None of those iterates converged, so none ever will: the
/// attempt would run to `max_iter` and fail. (The sparse solver's
/// count of consecutive dense rescues matters only during a rescue,
/// and a rescue changes the stats.) `CycleGuard` spots the repeat and
/// the attempt fails at once with that same error. Every call returns
/// what the loop without the guard returns — the solution and its
/// iteration count, or the error; only a failure's spent iterations,
/// and so its factorisations, are fewer.
///
/// # Errors
/// [`SpiceError::NoConvergence`] when the iteration cannot converge
/// within `max_iter` iterations (or hits a non-finite iterate),
/// [`SpiceError::Singular`] when the Jacobian factorisation fails —
/// each with the iterations the attempt spent.
#[allow(clippy::too_many_arguments)]
pub fn solve_newton_in(
    solver: &mut MnaSolver,
    ckt: &Circuit,
    map: &UnknownMap,
    plan: &StampPlan<'_>,
    x0: &[f64],
    params: &StampParams<'_>,
    opts: &NewtonOpts,
    analysis: &str,
) -> Result<(Vec<f64>, usize), NewtonFailure> {
    let mut x = x0.to_vec();
    if let Some(sys) = solver.sparse_mut() {
        sys.clear();
        stamp_linear(ckt, map, sys, params);
        sys.snapshot_baseline();
    }
    let failure = |error: SpiceError, iterations: usize| {
        FAILED_ITERATIONS.add(iterations as u64);
        NewtonFailure { error, iterations }
    };
    let mut guard = CycleGuard::default();
    let mut spent = opts.max_iter;
    for iter in 0..opts.max_iter {
        match solver.backend_mut() {
            SolverBackend::Sparse(sys) => {
                sys.restore_baseline();
                stamp_nonlinear(ckt, map, plan, &x, sys, params);
            }
            SolverBackend::Dense(sys) => {
                stamp_all_planned(ckt, map, plan, &x, sys, params);
            }
        }
        let x_new = solver
            .solve(analysis)
            .map_err(|error| failure(error, iter + 1))?;
        // A non-finite iterate means the solve overflowed (e.g.
        // inf − inf in back-substitution). NaN comparisons would
        // otherwise read as "converged" and hand a poisoned solution
        // to the caller — fail the analysis instead.
        if x_new.iter().any(|v| !v.is_finite()) {
            NONFINITE_ABORTS.inc();
            return Err(failure(
                SpiceError::NoConvergence {
                    analysis: analysis.to_string(),
                    detail: format!("non-finite solution at iteration {}", iter + 1),
                },
                iter + 1,
            ));
        }
        if newton_update(&mut x, &x_new, opts) {
            return Ok((x, iter + 1));
        }
        if guard.repeats(&x, solver.stats()) {
            spent = iter + 1;
            break;
        }
    }
    CONVERGENCE_FAILURES.inc();
    // A cycle exit reports exactly what the loop would have reported
    // at `max_iter` (see "Cycle exit" above).
    Err(failure(
        SpiceError::NoConvergence {
            analysis: analysis.to_string(),
            detail: format!("no convergence in {} iterations", opts.max_iter),
        },
        spent,
    ))
}

/// Exact limit-cycle detector for one Newton attempt of
/// [`solve_newton_in`].
///
/// Feed it every non-converged iterate together with the solver state
/// that will produce the next iterate from it. It keeps one saved
/// iterate (O(n) memory) and replaces it at exponentially spaced
/// observations — Brent's cycle-finding algorithm — so any cycle of
/// period λ is found within a few multiples of its run-in plus λ
/// observations. [`CycleGuard::repeats`] returns `true` when the
/// iterate equals the saved one bit for bit (`to_bits`: `-0.0` and
/// `0.0` differ, as they may steer the next iterate differently) and
/// the solver state is unchanged. The state is [`SolverStats`] with
/// `refactorisations` ignored: a re-pivot, dense fallback or demotion
/// changes how the next iterate is computed, so it re-arms the guard
/// instead of matching. Why a match ends the attempt exactly is argued
/// on [`solve_newton_in`]. A default guard is unarmed and allocates on
/// its first save.
#[derive(Debug, Clone, Default)]
struct CycleGuard {
    /// The saved iterate (Brent's tortoise), valid while `armed`.
    saved: Vec<f64>,
    /// Solver state when `saved` was current, `refactorisations` zeroed.
    state: SolverStats,
    armed: bool,
    /// Observations since `saved` was taken.
    since: usize,
    /// Observations the saved iterate is kept for before the next save.
    window: usize,
}

impl CycleGuard {
    /// Observes the non-converged iterate `x` under solver `state`;
    /// `true` when it repeats the saved iterate bit for bit.
    fn repeats(&mut self, x: &[f64], state: SolverStats) -> bool {
        let state = SolverStats {
            refactorisations: 0,
            ..state
        };
        if self.armed && state == self.state {
            let same = self.saved.len() == x.len()
                && self
                    .saved
                    .iter()
                    .zip(x)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if same {
                CYCLE_EXITS.inc();
                return true;
            }
            self.since += 1;
            if self.since < self.window {
                return false;
            }
            self.window *= 2;
        } else {
            self.window = 1;
        }
        self.saved.clear();
        self.saved.extend_from_slice(x);
        self.state = state;
        self.armed = true;
        self.since = 0;
        false
    }
}

/// One damped Newton update: moves `x` towards `x_new` with each
/// component's step clamped to `opts.max_step`, and reports whether the
/// *unclamped* update already satisfied the mixed relative/absolute
/// tolerance.
fn newton_update(x: &mut [f64], x_new: &[f64], opts: &NewtonOpts) -> bool {
    let mut converged = true;
    for i in 0..x.len() {
        let dx = x_new[i] - x[i];
        let limited = dx.clamp(-opts.max_step, opts.max_step);
        if dx.abs() > opts.reltol * x_new[i].abs() + opts.vabstol {
            converged = false;
        }
        x[i] += limited;
    }
    converged
}

/// Newton runs that exhausted `max_iter` or were proven to cycle
/// (includes rungs of the dcop ladder that are *expected* to fail
/// before a later rung succeeds).
static CONVERGENCE_FAILURES: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.newton.convergence_failures");
/// Iterations of every Newton attempt that failed — DC ladder rungs,
/// transient attempts.
static FAILED_ITERATIONS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.newton.failed_iterations");
/// Newton attempts ended by [`CycleGuard`].
static CYCLE_EXITS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.newton.cycle_exits");
/// Newton runs aborted on a non-finite iterate.
static NONFINITE_ABORTS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.newton.nonfinite_aborts");
static DCOP_RUNS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.dcop.runs");

/// Computes the DC operating point (capacitors open, sources at their
/// DC values).
///
/// # Errors
/// Propagates the last failure when plain Newton, gmin stepping and
/// source stepping all fail.
pub fn dc_operating_point(ckt: &Circuit) -> Result<Vec<f64>, SpiceError> {
    dc_operating_point_with(ckt, SolverKind::Auto, None)
}

/// [`dc_operating_point`] with an explicit solver choice and an
/// optional campaign-wide [`PatternCache`]. One solver (one symbolic
/// factorisation) serves the whole fallback ladder — plain Newton, all
/// gmin decades and all source steps share the matrix structure.
///
/// # Errors
/// Propagates the last failure when plain Newton, gmin stepping and
/// source stepping all fail.
pub fn dc_operating_point_with(
    ckt: &Circuit,
    kind: SolverKind,
    cache: Option<&PatternCache>,
) -> Result<Vec<f64>, SpiceError> {
    let _span = cat_telemetry::span!("spice.dcop");
    DCOP_RUNS.inc();
    let map = UnknownMap::new(ckt);
    let plan = StampPlan::new(ckt)?;
    let mut solver = MnaSolver::for_circuit(ckt, &map, kind, cache);
    let out = dcop_ladder(ckt, &map, &plan, &mut solver);
    solver.stats().flush_to_telemetry();
    out
}

/// The fallback ladder itself, over a caller-owned solver.
fn dcop_ladder(
    ckt: &Circuit,
    map: &UnknownMap,
    plan: &StampPlan<'_>,
    solver: &mut MnaSolver,
) -> Result<Vec<f64>, SpiceError> {
    let opts = NewtonOpts::default();
    let zeros = vec![0.0; map.dim()];

    // 1. Plain Newton from zero.
    let base = StampParams::default();
    if let Ok((x, _)) = solve_newton_in(solver, ckt, map, plan, &zeros, &base, &opts, "dc op") {
        return Ok(x);
    }

    // 2. gmin stepping: strong shunts make the circuit nearly linear;
    //    relax them decade by decade, carrying the solution.
    let mut x = zeros.clone();
    let mut ok = true;
    let mut gshunt = 1e-2;
    while gshunt >= 1e-12 {
        let params = StampParams {
            gshunt,
            ..StampParams::default()
        };
        match solve_newton_in(
            solver,
            ckt,
            map,
            plan,
            &x,
            &params,
            &opts,
            "dc op (gmin stepping)",
        ) {
            Ok((next, _)) => x = next,
            Err(_) => {
                ok = false;
                break;
            }
        }
        gshunt /= 10.0;
    }
    if ok {
        let params = StampParams::default();
        if let Ok((final_x, _)) = solve_newton_in(
            solver,
            ckt,
            map,
            plan,
            &x,
            &params,
            &opts,
            "dc op (gmin final)",
        ) {
            return Ok(final_x);
        }
    }

    // 3. Source stepping: ramp the supplies from 10 % to 100 %.
    let mut x = zeros;
    for pct in 1..=10 {
        let params = StampParams {
            source_scale: pct as f64 / 10.0,
            ..StampParams::default()
        };
        x = solve_newton_in(
            solver,
            ckt,
            map,
            plan,
            &x,
            &params,
            &opts,
            "dc op (source stepping)",
        )?
        .0;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{ElementKind, MosModel, Waveform};

    #[test]
    fn non_finite_iterate_fails_instead_of_converging() {
        // An infinite source drive overflows the solution. NaN/inf
        // comparisons must not read as "converged": the solve has to
        // report NoConvergence, not hand back a poisoned vector.
        let mut c = Circuit::new("inf");
        let a = c.node("a");
        c.add(
            "I1",
            vec![Circuit::GROUND, a],
            ElementKind::Isource {
                wave: Waveform::Dc(f64::INFINITY),
            },
        );
        c.add(
            "R1",
            vec![a, Circuit::GROUND],
            ElementKind::Resistor { r: 1e3 },
        );
        let map = UnknownMap::new(&c);
        let err = solve_newton(
            &c,
            &map,
            &vec![0.0; map.dim()],
            &StampParams::default(),
            &NewtonOpts::default(),
            "inf test",
        )
        .unwrap_err();
        assert!(matches!(err, SpiceError::NoConvergence { .. }), "{err:?}");
    }

    /// Feeds `xs` to a fresh guard under one solver state; returns the
    /// index of the first observation it reports as a repeat.
    fn first_repeat(xs: impl IntoIterator<Item = Vec<f64>>) -> Option<usize> {
        let mut guard = CycleGuard::default();
        xs.into_iter()
            .position(|x| guard.repeats(&x, SolverStats::default()))
    }

    /// `run_in` distinct iterates, then a cycle of `period` distinct
    /// iterates repeated forever.
    fn run_in_then_cycle(run_in: usize, period: usize) -> impl Iterator<Item = Vec<f64>> {
        (0..).map(move |i: usize| {
            if i < run_in {
                vec![i as f64, -1.0]
            } else {
                vec![((i - run_in) % period) as f64, 1.0]
            }
        })
    }

    #[test]
    fn guard_detects_cycles_after_a_long_run_in() {
        for period in [2, 3, 37] {
            for run_in in [0, 1, 100, 1000] {
                let at = first_repeat(run_in_then_cycle(run_in, period).take(10_000))
                    .unwrap_or_else(|| panic!("period {period} after {run_in} undetected"));
                // Only a genuine repeat can fire, and Brent's algorithm
                // finds it within a few multiples of run-in + period.
                assert!(at >= run_in + period, "period {period}: fired at {at}");
                assert!(
                    at <= 2 * (run_in + period) + period,
                    "period {period} after {run_in}: found late, at {at}"
                );
            }
        }
    }

    #[test]
    fn guard_never_fires_on_distinct_iterates() {
        // Iterates that differ only in the last bit of one component.
        let base = 1.0f64;
        let xs = (0..20_000u64).map(|i| vec![0.5, f64::from_bits(base.to_bits() + i)]);
        assert_eq!(first_repeat(xs), None);
    }

    #[test]
    fn guard_rearms_when_the_solver_state_changes() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let stats = |repivots, refactorisations| SolverStats {
            refactorisations,
            repivots,
            ..SolverStats::default()
        };
        let mut guard = CycleGuard::default();
        assert!(!guard.repeats(&a, stats(0, 1)));
        assert!(!guard.repeats(&b, stats(0, 2)));
        assert!(!guard.repeats(&a, stats(0, 3)));
        // `b` again, but a re-pivot happened in between: the next
        // iterate may differ, so this is no repeat.
        assert!(!guard.repeats(&b, stats(1, 5)));
        // Under the new state the cycle repeats once more and is
        // found; refactorisations alone never count as a state change.
        let found = [a, b, a, b, a]
            .iter()
            .zip(6..)
            .position(|(x, lu)| guard.repeats(x, stats(1, lu)));
        assert!(found.is_some_and(|i| i >= 1), "{found:?}");

        for change in [
            SolverStats {
                dense_fallbacks: 1,
                ..SolverStats::default()
            },
            SolverStats {
                demotions: 1,
                ..SolverStats::default()
            },
        ] {
            let mut guard = CycleGuard::default();
            assert!(!guard.repeats(&a, SolverStats::default()));
            assert!(!guard.repeats(&a, change));
            assert!(guard.repeats(&a, change));
        }
    }

    #[test]
    fn guard_tells_negative_zero_from_zero() {
        let mut guard = CycleGuard::default();
        let state = SolverStats::default();
        assert!(!guard.repeats(&[1.0, -0.0], state));
        assert!(!guard.repeats(&[1.0, 0.0], state));
        assert!(!guard.repeats(&[1.0, -0.0], state));
        // The genuine repeat of the saved `[1.0, 0.0]`.
        assert!(guard.repeats(&[1.0, 0.0], state));
    }

    /// The loop of [`solve_newton_in`] without its cycle guard: the
    /// reference the guarded loop must reproduce.
    #[allow(clippy::too_many_arguments)]
    fn unguarded_newton(
        solver: &mut MnaSolver,
        ckt: &Circuit,
        map: &UnknownMap,
        plan: &StampPlan<'_>,
        x0: &[f64],
        params: &StampParams<'_>,
        opts: &NewtonOpts,
    ) -> Result<(Vec<f64>, usize), SpiceError> {
        let mut x = x0.to_vec();
        if let Some(sys) = solver.sparse_mut() {
            sys.clear();
            stamp_linear(ckt, map, sys, params);
            sys.snapshot_baseline();
        }
        for iter in 0..opts.max_iter {
            match solver.backend_mut() {
                SolverBackend::Sparse(sys) => {
                    sys.restore_baseline();
                    stamp_nonlinear(ckt, map, plan, &x, sys, params);
                }
                SolverBackend::Dense(sys) => {
                    stamp_all_planned(ckt, map, plan, &x, sys, params);
                }
            }
            let x_new = solver.solve("reference")?;
            if x_new.iter().any(|v| !v.is_finite()) {
                return Err(SpiceError::NoConvergence {
                    analysis: "reference".into(),
                    detail: format!("non-finite solution at iteration {}", iter + 1),
                });
            }
            if newton_update(&mut x, &x_new, opts) {
                return Ok((x, iter + 1));
            }
        }
        Err(SpiceError::NoConvergence {
            analysis: "reference".into(),
            detail: format!("no convergence in {} iterations", opts.max_iter),
        })
    }

    /// One random Newton problem: one backward-Euler step of a CMOS
    /// latch or ring (2–3 inverters with random sizes, loads and load
    /// history) with extra random resistors, capacitors and
    /// transistors, from a random start point, under plain or damped
    /// options, on either solver backend.
    struct NewtonCase {
        ckt: Circuit,
        companions: Vec<crate::devices::CapCompanion>,
        x0: Vec<f64>,
        opts: NewtonOpts,
        kind: SolverKind,
    }

    fn arb_newton_case() -> impl proptest::Strategy<Value = NewtonCase> {
        use proptest::collection::vec;
        use proptest::Strategy;
        // (kind, terminal, terminal, terminal, size in ‰ of its range)
        let element = (0usize..4, 0usize..8, 0usize..8, 0usize..8, 0i64..1000);
        let stage = (0i64..1000, 0i64..1000, 0i64..1000, 0i64..5000);
        (
            vec(stage, 2..4),
            vec(element, 4..12),
            vec(-1000i64..6000, 16..17),
            (0usize..2, 0i64..1000),
            0usize..2,
        )
            .prop_map(|(stages, elements, start, (damped, dt), kind)| {
                let mut ckt = Circuit::new("newton case");
                ckt.add_model(MosModel::default_nmos("n1"));
                ckt.add_model(MosModel::default_pmos("p1"));
                let vdd = ckt.node("vdd");
                ckt.add(
                    "Vdd",
                    vec![vdd, Circuit::GROUND],
                    ElementKind::Vsource {
                        wave: Waveform::Dc(5.0),
                    },
                );
                let n = stages.len();
                let ids: Vec<_> = (0..n).map(|i| ckt.node(&format!("s{i}"))).collect();
                let dt = 1e-10 * 10f64.powf(dt as f64 / 500.0);
                let mut companions = Vec::new();
                let mut cap = |ckt: &mut Circuit, name: String, a, b, c: f64, v_prev: f64| {
                    ckt.add(name, vec![a, b], ElementKind::Capacitor { c, ic: None });
                    let geq = c / dt;
                    companions.push(crate::devices::CapCompanion {
                        a,
                        b,
                        geq,
                        ieq: -geq * v_prev,
                    });
                };
                let unit = |v: i64| v as f64 / 1000.0;
                for (i, &(wn, wp, load, v_prev)) in stages.iter().enumerate() {
                    let (inp, out) = (ids[i], ids[(i + 1) % n]);
                    ckt.add(
                        format!("Mn{i}"),
                        vec![out, inp, Circuit::GROUND, Circuit::GROUND],
                        ElementKind::Mosfet {
                            model: "n1".into(),
                            w: 1e-6 + 30e-6 * unit(wn),
                            l: 1e-6,
                        },
                    );
                    ckt.add(
                        format!("Mp{i}"),
                        vec![out, inp, vdd, vdd],
                        ElementKind::Mosfet {
                            model: "p1".into(),
                            w: 1e-6 + 60e-6 * unit(wp),
                            l: 1e-6,
                        },
                    );
                    let c = 1e-14 * 10f64.powf(3.0 * unit(load));
                    cap(
                        &mut ckt,
                        format!("Cl{i}"),
                        out,
                        Circuit::GROUND,
                        c,
                        v_prev as f64 * 1e-3,
                    );
                }
                let node = |i: usize| match i % (n + 2) {
                    0 => Circuit::GROUND,
                    1 => vdd,
                    k => ids[k - 2],
                };
                for (i, &(kind, a, b, c, value)) in elements.iter().enumerate() {
                    let (a, b, c, value) = (node(a), node(b), node(c), unit(value));
                    match kind {
                        0 if a != b => ckt.add(
                            format!("R{i}"),
                            vec![a, b],
                            ElementKind::Resistor {
                                r: 10f64.powf(2.0 + 4.0 * value),
                            },
                        ),
                        1 if a != b => {
                            let c = 1e-14 * 10f64.powf(3.0 * value);
                            cap(&mut ckt, format!("C{i}"), a, b, c, 5.0 * value);
                        }
                        2 | 3 => {
                            let (model, body) = if kind == 2 {
                                ("n1", Circuit::GROUND)
                            } else {
                                ("p1", vdd)
                            };
                            ckt.add(
                                format!("M{i}"),
                                vec![a, b, c, body],
                                ElementKind::Mosfet {
                                    model: model.into(),
                                    w: 1e-6 + 40e-6 * value,
                                    l: 1e-6,
                                },
                            );
                        }
                        _ => {}
                    }
                }
                let dim = UnknownMap::new(&ckt).dim();
                let mut x0: Vec<f64> = start.iter().map(|&v| v as f64 * 1e-3).collect();
                x0.resize(dim, 0.0);
                let opts = if damped == 1 {
                    NewtonOpts {
                        max_iter: 600,
                        max_step: 0.1,
                        ..NewtonOpts::default()
                    }
                } else {
                    NewtonOpts::default()
                };
                let kind = [SolverKind::Dense, SolverKind::Sparse][kind];
                NewtonCase {
                    ckt,
                    companions,
                    x0,
                    opts,
                    kind,
                }
            })
    }

    #[test]
    fn cycle_exit_matches_the_unguarded_loop() {
        use proptest::Strategy;
        let strategy = arb_newton_case();
        let mut rng = proptest::TestRng::for_test("cycle_exit_matches_the_unguarded_loop");
        let (mut exits, mut converged) = (0, 0);
        for case in 0..proptest::CASES {
            let c = strategy.generate(&mut rng);
            let map = UnknownMap::new(&c.ckt);
            let plan = StampPlan::new(&c.ckt).expect("models exist");
            let params = StampParams {
                time: 1e-9,
                cap_companions: Some(&c.companions),
                ..StampParams::default()
            };
            let mut guarded_solver = MnaSolver::for_circuit(&c.ckt, &map, c.kind, None);
            let mut reference_solver = MnaSolver::for_circuit(&c.ckt, &map, c.kind, None);
            let guarded = solve_newton_in(
                &mut guarded_solver,
                &c.ckt,
                &map,
                &plan,
                &c.x0,
                &params,
                &c.opts,
                "reference",
            );
            let reference = unguarded_newton(
                &mut reference_solver,
                &c.ckt,
                &map,
                &plan,
                &c.x0,
                &params,
                &c.opts,
            );
            match (&guarded, &reference) {
                (Ok((x, iters)), Ok((x_ref, iters_ref))) => {
                    converged += 1;
                    assert_eq!(iters, iters_ref, "case {case}: iteration counts differ");
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(x), bits(x_ref), "case {case}: solutions differ");
                }
                (Err(failure), Err(error)) => {
                    assert_eq!(&failure.error, error, "case {case}: errors differ")
                }
                _ => panic!("case {case}: guarded {guarded:?} vs reference {reference:?}"),
            }
            let lu = guarded_solver.stats().refactorisations;
            let lu_ref = reference_solver.stats().refactorisations;
            assert!(
                lu <= lu_ref,
                "case {case}: guard added work ({lu} > {lu_ref})"
            );
            if lu < lu_ref {
                exits += 1;
            }
        }
        eprintln!(
            "cycle exits {exits}, converged {converged} of {}",
            proptest::CASES
        );
        // The generator must reach both regimes, or the property is vacuous.
        assert!(exits > 0, "no case ended in a proven cycle");
        assert!(converged > 0, "no case converged");
    }

    #[test]
    fn linear_divider_op() {
        let mut c = Circuit::new("div");
        let a = c.node("a");
        let b = c.node("b");
        c.add(
            "V1",
            vec![a, Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Dc(10.0),
            },
        );
        c.add("R1", vec![a, b], ElementKind::Resistor { r: 1e3 });
        c.add(
            "R2",
            vec![b, Circuit::GROUND],
            ElementKind::Resistor { r: 3e3 },
        );
        let x = dc_operating_point(&c).unwrap();
        let map = UnknownMap::new(&c);
        assert!((map.voltage(&x, b) - 7.5).abs() < 1e-6);
    }

    #[test]
    fn nmos_inverter_transfer_points() {
        // NMOS with resistive pull-up: input low -> out high; input high
        // -> out pulled low.
        let build = |vin: f64| {
            let mut c = Circuit::new("inv");
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.add_model(MosModel::default_nmos("n1"));
            c.add(
                "Vdd",
                vec![vdd, Circuit::GROUND],
                ElementKind::Vsource {
                    wave: Waveform::Dc(5.0),
                },
            );
            c.add(
                "Vin",
                vec![inp, Circuit::GROUND],
                ElementKind::Vsource {
                    wave: Waveform::Dc(vin),
                },
            );
            c.add("RL", vec![vdd, out], ElementKind::Resistor { r: 10e3 });
            c.add(
                "M1",
                vec![out, inp, Circuit::GROUND, Circuit::GROUND],
                ElementKind::Mosfet {
                    model: "n1".into(),
                    w: 10e-6,
                    l: 1e-6,
                },
            );
            c
        };
        let c_low = build(0.0);
        let x = dc_operating_point(&c_low).unwrap();
        let map = UnknownMap::new(&c_low);
        let out = c_low.find_node("out").unwrap();
        assert!(
            (map.voltage(&x, out) - 5.0).abs() < 1e-3,
            "off transistor leaves out high"
        );

        let c_high = build(5.0);
        let x = dc_operating_point(&c_high).unwrap();
        let v_out = map.voltage(&x, out);
        assert!(v_out < 0.5, "on transistor pulls out low, got {v_out}");
    }

    #[test]
    fn cmos_inverter_rails() {
        let build = |vin: f64| {
            let mut c = Circuit::new("cmosinv");
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.add_model(MosModel::default_nmos("n1"));
            c.add_model(MosModel::default_pmos("p1"));
            c.add(
                "Vdd",
                vec![vdd, Circuit::GROUND],
                ElementKind::Vsource {
                    wave: Waveform::Dc(5.0),
                },
            );
            c.add(
                "Vin",
                vec![inp, Circuit::GROUND],
                ElementKind::Vsource {
                    wave: Waveform::Dc(vin),
                },
            );
            c.add(
                "Mn",
                vec![out, inp, Circuit::GROUND, Circuit::GROUND],
                ElementKind::Mosfet {
                    model: "n1".into(),
                    w: 10e-6,
                    l: 1e-6,
                },
            );
            c.add(
                "Mp",
                vec![out, inp, vdd, vdd],
                ElementKind::Mosfet {
                    model: "p1".into(),
                    w: 25e-6,
                    l: 1e-6,
                },
            );
            c
        };
        let c0 = build(0.0);
        let map = UnknownMap::new(&c0);
        let out = c0.find_node("out").unwrap();
        let x = dc_operating_point(&c0).unwrap();
        assert!(map.voltage(&x, out) > 4.9, "low in -> high out");
        let c5 = build(5.0);
        let x = dc_operating_point(&c5).unwrap();
        assert!(map.voltage(&x, out) < 0.1, "high in -> low out");
    }

    #[test]
    fn diode_connected_nmos_settles_near_vth() {
        // Current source into a diode-connected NMOS: v ≈ vth + vov.
        let mut c = Circuit::new("diode");
        let d = c.node("d");
        c.add_model(MosModel::default_nmos("n1"));
        c.add(
            "I1",
            vec![Circuit::GROUND, d],
            ElementKind::Isource {
                wave: Waveform::Dc(50e-6),
            },
        );
        c.add(
            "M1",
            vec![d, d, Circuit::GROUND, Circuit::GROUND],
            ElementKind::Mosfet {
                model: "n1".into(),
                w: 10e-6,
                l: 1e-6,
            },
        );
        let x = dc_operating_point(&c).unwrap();
        let map = UnknownMap::new(&c);
        let v = map.voltage(&x, d);
        // vov = sqrt(2 I / beta) ≈ sqrt(2*50µ/800µ) ≈ 0.35 V, vth = 0.8.
        assert!(v > 0.9 && v < 1.5, "diode voltage {v}");
    }

    #[test]
    fn floating_node_handled_by_gshunt() {
        // A node connected only through a capacitor would be singular
        // without the gshunt.
        let mut c = Circuit::new("float");
        let a = c.node("a");
        let b = c.node("b");
        c.add(
            "V1",
            vec![a, Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Dc(1.0),
            },
        );
        c.add(
            "C1",
            vec![a, b],
            ElementKind::Capacitor { c: 1e-12, ic: None },
        );
        let x = dc_operating_point(&c).unwrap();
        let map = UnknownMap::new(&c);
        assert!(
            map.voltage(&x, b).abs() < 1.0,
            "floating node pulled to ground"
        );
    }
}
