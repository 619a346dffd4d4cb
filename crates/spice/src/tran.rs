//! Transient analysis.
//!
//! Fixed-step backward-Euler by default (the paper ran a 400-step
//! transient), with a trapezoidal option and automatic local step
//! halving when Newton fails at a switching event.

use crate::dcop::{dc_operating_point_with, solve_newton_in, NewtonOpts};
use crate::devices::{CapCompanion, StampParams, StampPlan, UnknownMap};
use crate::netlist::{Circuit, ElementKind, NodeId};
use crate::sparse::{MnaSolver, PatternCache, SolverKind, SolverStats};
use crate::waveform::Wave;
use crate::SpiceError;

/// Numerical integration method for capacitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Backward Euler: L-stable, damps ringing; the default (matches the
    /// robustness-first choice fault simulation needs).
    #[default]
    BackwardEuler,
    /// Trapezoidal: second-order accurate, can ring on hard switching.
    Trapezoidal,
}

/// Transient analysis specification.
#[derive(Debug, Clone)]
pub struct TranSpec {
    /// Output/time step (s).
    pub tstep: f64,
    /// Stop time (s).
    pub tstop: f64,
    /// Skip the DC operating point and start from `.ic`/element `ic=`
    /// values (SPICE `UIC`).
    pub uic: bool,
    /// Integration method.
    pub integrator: Integrator,
    /// Newton controls.
    pub newton: NewtonOpts,
    /// Maximum depth of step halving when a timestep fails to converge
    /// (each level halves dt; 12 levels ≈ 4096× refinement).
    pub max_halvings: u32,
    /// Linear-solver backend (dense, sparse, or size-based auto).
    pub solver: SolverKind,
}

impl TranSpec {
    /// A spec with the given step and stop time and default options.
    pub fn new(tstep: f64, tstop: f64) -> Self {
        TranSpec {
            tstep,
            tstop,
            uic: false,
            integrator: Integrator::default(),
            newton: NewtonOpts::default(),
            max_halvings: 12,
            solver: SolverKind::default(),
        }
    }

    /// Same spec but starting from initial conditions (UIC).
    pub fn with_uic(mut self) -> Self {
        self.uic = true;
        self
    }

    /// Same spec with trapezoidal integration.
    pub fn with_trapezoidal(mut self) -> Self {
        self.integrator = Integrator::Trapezoidal;
        self
    }

    /// Same spec with an explicit linear-solver backend.
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// The output time grid implied by `tstep`/`tstop`: the number of
    /// full steps and, when `tstop` is not an integer multiple of
    /// `tstep`, the final partial-step stop time. Each grid point is
    /// derived from the integer step index — never by accumulating
    /// `t += tstep`, which drifts by an ULP per step and desynchronises
    /// detection times over long runs.
    fn grid(&self) -> (usize, Option<f64>) {
        let ratio = self.tstop / self.tstep;
        let nearest = ratio.round();
        if nearest >= 1.0 && (ratio - nearest).abs() <= 1e-9 * nearest {
            // tstop is an integer multiple of tstep up to float noise.
            (nearest as usize, None)
        } else {
            let full = ratio.floor() as usize;
            let rem = self.tstop - full as f64 * self.tstep;
            if rem > 1e-12 * self.tstep {
                (full, Some(self.tstop))
            } else {
                (full, None)
            }
        }
    }
}

/// Work counters for one transient run, accumulated as plain integers
/// on the hot path and flushed into the global telemetry registry
/// (`spice.tran.*`, `spice.sparse.*`) once at the end of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranStats {
    /// Accepted integration steps, *including* the sub-steps produced
    /// by halving (so a rescued grid step contributes ≥ 2).
    pub steps: u64,
    /// Step-halving events: a Newton failure that split the step in
    /// two (each recursion level counts once).
    pub halvings: u64,
    /// Newton iterations of the solves that converged — the steps the
    /// run accepted.
    pub newton_iterations: u64,
    /// Newton iterations of the attempts that failed (a plain attempt
    /// before its damped retry, a damped retry before a halving),
    /// counting the iteration whose solve errored. With
    /// `newton_iterations` it accounts for every factorisation of the
    /// run: without dense fallbacks, `solver.refactorisations ==
    /// newton_iterations + failed_iterations + solver.repivots`.
    pub failed_iterations: u64,
    /// Linear-solver work counters (sparse refactorisations, re-pivots,
    /// dense fallbacks, demotions), surviving any demotion to dense.
    pub solver: SolverStats,
}

/// Result of a transient run: one [`Wave`] per non-ground node.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    names: Vec<String>,
    data: Vec<Vec<f64>>, // indexed [node-1][sample]
    /// Work counters for the run (the paper compares fault-model
    /// runtimes via such counters).
    pub stats: TranStats,
}

impl TranResult {
    /// Sample time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Names of recorded nodes.
    pub fn node_names(&self) -> &[String] {
        &self.names
    }

    /// The waveform of a node by name (`None` when unknown).
    pub fn wave(&self, node: &str) -> Option<Wave> {
        let idx = self
            .names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(node))?;
        Some(Wave::new(self.times.clone(), self.data[idx].clone()))
    }
}

/// One integrable capacitance: an explicit capacitor element or a MOS
/// gate capacitance (Meyer-style constant partition: Cgs = ⅔·Cox·W·L,
/// Cgd = ⅓·Cox·W·L). Gate caps both smooth switching edges physically
/// and give the Newton iteration a continuation path through
/// regenerative transitions (Schmitt triggers, latches).
struct CapInstance {
    a: NodeId,
    b: NodeId,
    c: f64,
    /// Initial condition (UIC), explicit capacitors only.
    ic: Option<f64>,
}

/// Integration state per capacitance instance.
struct CapState {
    v_prev: f64,
    i_prev: f64,
}

/// Collects all capacitance instances of the circuit.
fn cap_instances(ckt: &Circuit) -> Vec<CapInstance> {
    let mut out = Vec::new();
    for e in ckt.elements() {
        match &e.kind {
            ElementKind::Capacitor { c, ic } => out.push(CapInstance {
                a: e.nodes[0],
                b: e.nodes[1],
                c: *c,
                ic: *ic,
            }),
            ElementKind::Mosfet { model, w, l } => {
                let Some(m) = ckt.models.get(&model.to_ascii_lowercase()) else {
                    continue;
                };
                if m.cox <= 0.0 {
                    continue;
                }
                let c_total = m.cox * w * l;
                let (d, g, s) = (e.nodes[0], e.nodes[1], e.nodes[2]);
                out.push(CapInstance {
                    a: g,
                    b: s,
                    c: c_total * 2.0 / 3.0,
                    ic: None,
                });
                out.push(CapInstance {
                    a: g,
                    b: d,
                    c: c_total / 3.0,
                    ic: None,
                });
            }
            _ => {}
        }
    }
    out
}

/// Runs a transient analysis.
///
/// # Errors
/// Returns the underlying Newton/matrix failure when the circuit cannot
/// be solved even after step halving.
pub fn tran(ckt: &Circuit, spec: &TranSpec) -> Result<TranResult, SpiceError> {
    tran_with_cached(ckt, spec, None, |_, _| true)
}

/// Runs a transient analysis reusing symbolic factorisations from a
/// campaign-wide [`PatternCache`] (see [`crate::sparse`]). Results are
/// identical to [`tran`]; only the symbolic setup work is shared.
///
/// # Errors
/// Returns the underlying Newton/matrix failure when the circuit cannot
/// be solved even after step halving.
pub fn tran_cached(
    ckt: &Circuit,
    spec: &TranSpec,
    cache: &PatternCache,
) -> Result<TranResult, SpiceError> {
    tran_with_cached(ckt, spec, Some(cache), |_, _| true)
}

/// Runs a transient analysis, streaming every accepted output sample to
/// `on_sample` as `(time, node_voltages)` — `node_voltages[i]` is the
/// voltage of node id `i + 1`, matching [`TranResult`]'s column order.
/// The callback sees the initial point first, then one call per output
/// step; returning `false` stops the run early and yields the samples
/// accepted so far. This is the kernel-side half of fault dropping: a
/// campaign can abandon the remaining simulation time the moment a
/// fault is detected.
///
/// # Errors
/// Returns the underlying Newton/matrix failure when the circuit cannot
/// be solved even after step halving.
pub fn tran_with<F>(ckt: &Circuit, spec: &TranSpec, on_sample: F) -> Result<TranResult, SpiceError>
where
    F: FnMut(f64, &[f64]) -> bool,
{
    tran_with_cached(ckt, spec, None, on_sample)
}

/// The most general transient entry point: streaming callback plus an
/// optional shared [`PatternCache`]. [`tran`], [`tran_cached`] and
/// [`tran_with`] all delegate here.
///
/// # Errors
/// Returns the underlying Newton/matrix failure when the circuit cannot
/// be solved even after step halving.
pub fn tran_with_cached<F>(
    ckt: &Circuit,
    spec: &TranSpec,
    cache: Option<&PatternCache>,
    mut on_sample: F,
) -> Result<TranResult, SpiceError>
where
    F: FnMut(f64, &[f64]) -> bool,
{
    let _span = cat_telemetry::span!("spice.tran");
    TRAN_RUNS.inc();
    ckt.validate().map_err(SpiceError::Elaboration)?;
    let map = UnknownMap::new(ckt);
    let dim = map.dim();

    let instances = cap_instances(ckt);

    // One solver + stamp plan for the whole run: the symbolic
    // factorisation is computed once (or fetched from the campaign
    // cache) and every Newton iteration of every timestep refactors
    // numerics only.
    let plan = StampPlan::new(ckt)?;
    let mut solver = MnaSolver::for_circuit(ckt, &map, spec.solver, cache);

    // Initial solution.
    let mut x = if spec.uic {
        let mut x0 = vec![0.0; dim];
        for &(node, v) in &ckt.initial_conditions {
            if let Some(i) = map.node_var(node) {
                x0[i] = v;
            }
        }
        // Element-level ic= on capacitors: force the first terminal's
        // node voltage difference when one side is grounded.
        for inst in &instances {
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
        x0
    } else {
        dc_operating_point_with(ckt, spec.solver, cache)?
    };

    // Capacitance states from the initial solution.
    let mut caps: Vec<CapState> = instances
        .iter()
        .map(|inst| CapState {
            v_prev: map.voltage(&x, inst.a) - map.voltage(&x, inst.b),
            i_prev: 0.0,
        })
        .collect();

    let n_nodes = ckt.node_count() - 1;
    let mut times = vec![0.0];
    let mut data: Vec<Vec<f64>> = (0..n_nodes).map(|i| vec![x[i]]).collect();
    let mut stats = TranStats::default();

    // The output grid is derived from the integer step index: step k
    // ends at exactly `k · tstep`, so a 10⁵-step run lands on the same
    // absolute times as a 10²-step one (accumulating `t += tstep`
    // instead drifts by an ULP per step — enough to shift detection
    // times and misalign waveform comparisons over long transients).
    // When tstop is not a multiple of tstep, a final partial step lands
    // exactly on tstop instead of silently over- or under-shooting.
    let (full_steps, partial) = spec.grid();
    let mut t = 0.0;
    if on_sample(t, &x[..n_nodes]) {
        let mut record =
            |t: f64, x: &[f64], times: &mut Vec<f64>, data: &mut Vec<Vec<f64>>| -> bool {
                times.push(t);
                for (i, column) in data.iter_mut().enumerate() {
                    column.push(x[i]);
                }
                on_sample(t, &x[..n_nodes])
            };
        let mut keep_going = true;
        for step in 0..full_steps {
            let t_next = (step + 1) as f64 * spec.tstep;
            // The very first step always integrates with backward Euler:
            // the trapezoidal companion needs a valid previous current,
            // which is unknown at t = 0 (standard SPICE start-up
            // behaviour).
            let integ = if step == 0 {
                Integrator::BackwardEuler
            } else {
                spec.integrator
            };
            advance(
                ckt,
                &map,
                &plan,
                &mut solver,
                spec,
                integ,
                &instances,
                &mut x,
                &mut caps,
                t,
                t_next,
                0,
                &mut stats,
            )?;
            t = t_next;
            if !record(t, &x, &mut times, &mut data) {
                keep_going = false;
                break;
            }
        }
        if keep_going {
            if let Some(t_stop) = partial {
                let integ = if full_steps == 0 {
                    Integrator::BackwardEuler
                } else {
                    spec.integrator
                };
                advance(
                    ckt,
                    &map,
                    &plan,
                    &mut solver,
                    spec,
                    integ,
                    &instances,
                    &mut x,
                    &mut caps,
                    t,
                    t_stop,
                    0,
                    &mut stats,
                )?;
                record(t_stop, &x, &mut times, &mut data);
            }
        }
    }

    let names = (1..ckt.node_count())
        .map(|n| ckt.node_name(n).to_string())
        .collect();
    stats.solver = solver.stats();
    flush_tran_stats(&stats);
    Ok(TranResult {
        times,
        names,
        data,
        stats,
    })
}

static TRAN_RUNS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.tran.runs");
static TRAN_STEPS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.tran.steps");
static TRAN_HALVINGS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.tran.halvings");
static NEWTON_ITERATIONS: cat_telemetry::StaticCounter =
    cat_telemetry::StaticCounter::new("spice.newton.iterations");

/// Adds a finished run's counters to the global registry. Each `add`
/// is a no-op while telemetry is disabled, so the cost off the record
/// path is a handful of relaxed loads per *run*.
fn flush_tran_stats(stats: &TranStats) {
    TRAN_STEPS.add(stats.steps);
    TRAN_HALVINGS.add(stats.halvings);
    NEWTON_ITERATIONS.add(stats.newton_iterations);
    stats.solver.flush_to_telemetry();
}

/// Advances the solution from `t0` to `t1`, recursively halving on
/// Newton failure.
#[allow(clippy::too_many_arguments)]
fn advance(
    ckt: &Circuit,
    map: &UnknownMap,
    plan: &StampPlan<'_>,
    solver: &mut MnaSolver,
    spec: &TranSpec,
    integrator: Integrator,
    instances: &[CapInstance],
    x: &mut Vec<f64>,
    caps: &mut Vec<CapState>,
    t0: f64,
    t1: f64,
    depth: u32,
    stats: &mut TranStats,
) -> Result<(), SpiceError> {
    let dt = t1 - t0;
    // Build companions for this step.
    let companions: Vec<CapCompanion> = instances
        .iter()
        .zip(caps.iter())
        .map(|(inst, st)| {
            let (geq, ieq) = match integrator {
                Integrator::BackwardEuler => {
                    let geq = inst.c / dt;
                    (geq, -geq * st.v_prev)
                }
                Integrator::Trapezoidal => {
                    let geq = 2.0 * inst.c / dt;
                    (geq, -geq * st.v_prev - st.i_prev)
                }
            };
            CapCompanion {
                a: inst.a,
                b: inst.b,
                geq,
                ieq,
            }
        })
        .collect();
    let params = StampParams {
        time: t1,
        cap_companions: Some(&companions),
        ..StampParams::default()
    };
    // Newton ladder: the configured options first, then a heavily
    // damped retry (regenerative switching points), then step halving.
    let solved = solve_newton_in(solver, ckt, map, plan, x, &params, &spec.newton, "tran").or_else(
        |plain| {
            stats.failed_iterations += plain.iterations as u64;
            let damped = NewtonOpts {
                max_iter: spec.newton.max_iter * 3,
                max_step: 0.1,
                ..spec.newton.clone()
            };
            solve_newton_in(solver, ckt, map, plan, x, &params, &damped, "tran (damped)")
        },
    );
    match solved {
        Ok((next, iters)) => {
            stats.steps += 1;
            stats.newton_iterations += iters as u64;
            // Commit capacitance states.
            for ((inst, st), cc) in instances.iter().zip(caps.iter_mut()).zip(&companions) {
                let v_new = map.voltage(&next, inst.a) - map.voltage(&next, inst.b);
                st.i_prev = cc.geq * v_new + cc.ieq;
                st.v_prev = v_new;
            }
            *x = next;
            Ok(())
        }
        Err(damped) => {
            stats.failed_iterations += damped.iterations as u64;
            if depth >= spec.max_halvings {
                return Err(damped.error);
            }
            stats.halvings += 1;
            let tm = 0.5 * (t0 + t1);
            advance(
                ckt,
                map,
                plan,
                solver,
                spec,
                integrator,
                instances,
                x,
                caps,
                t0,
                tm,
                depth + 1,
                stats,
            )?;
            advance(
                ckt,
                map,
                plan,
                solver,
                spec,
                integrator,
                instances,
                x,
                caps,
                tm,
                t1,
                depth + 1,
                stats,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{ElementKind, MosModel, Waveform};

    #[test]
    fn rc_charging_curve() {
        // R=1k, C=1µF, step to 1V: v(t) = 1 - exp(-t/RC), tau = 1 ms.
        let mut c = Circuit::new("rc");
        let a = c.node("a");
        let b = c.node("b");
        c.add(
            "V1",
            vec![a, Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Pulse {
                    v1: 0.0,
                    v2: 1.0,
                    td: 0.0,
                    tr: 1e-9,
                    tf: 1e-9,
                    pw: 1.0,
                    period: f64::INFINITY,
                },
            },
        );
        c.add("R1", vec![a, b], ElementKind::Resistor { r: 1e3 });
        c.add(
            "C1",
            vec![b, Circuit::GROUND],
            ElementKind::Capacitor {
                c: 1e-6,
                ic: Some(0.0),
            },
        );
        let spec = TranSpec::new(10e-6, 10e-3).with_uic();
        let res = tran(&c, &spec).unwrap();
        let w = res.wave("b").unwrap();
        // After one tau: 63.2 %.
        let v_tau = w.value_at(1e-3);
        assert!((v_tau - 0.632).abs() < 0.02, "v(tau) = {v_tau}");
        // Settles to 1.0 after 10 tau.
        assert!((w.last_value() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn trapezoidal_is_more_accurate_on_rc() {
        let build = || {
            let mut c = Circuit::new("rc");
            let a = c.node("a");
            let b = c.node("b");
            c.add(
                "V1",
                vec![a, Circuit::GROUND],
                ElementKind::Vsource {
                    wave: Waveform::Dc(1.0),
                },
            );
            c.add("R1", vec![a, b], ElementKind::Resistor { r: 1e3 });
            c.add(
                "C1",
                vec![b, Circuit::GROUND],
                ElementKind::Capacitor {
                    c: 1e-6,
                    ic: Some(0.0),
                },
            );
            c
        };
        let exact = 1.0 - (-1.0f64).exp(); // at t = tau
        let coarse = 2e-4; // 5 steps per tau — a deliberately coarse grid
        let be = tran(&build(), &TranSpec::new(coarse, 1e-3).with_uic()).unwrap();
        let tr = tran(
            &build(),
            &TranSpec::new(coarse, 1e-3).with_uic().with_trapezoidal(),
        )
        .unwrap();
        let be_err = (be.wave("b").unwrap().last_value() - exact).abs();
        let tr_err = (tr.wave("b").unwrap().last_value() - exact).abs();
        assert!(tr_err < be_err, "trap {tr_err} vs BE {be_err}");
    }

    /// Error at t = RC of a UIC RC discharge against the exact
    /// `V0·e^{−t/RC}`, for `steps` grid steps per time constant.
    fn rc_discharge_error(steps: u32, integrator: Integrator) -> f64 {
        let (v0, r, cap) = (1.0, 1e3, 1e-6);
        let tau = r * cap;
        let mut c = Circuit::new("rc discharge");
        let a = c.node("a");
        c.add("R1", vec![a, Circuit::GROUND], ElementKind::Resistor { r });
        c.add(
            "C1",
            vec![a, Circuit::GROUND],
            ElementKind::Capacitor {
                c: cap,
                ic: Some(v0),
            },
        );
        let spec = TranSpec {
            integrator,
            ..TranSpec::new(tau / f64::from(steps), tau).with_uic()
        };
        let res = tran(&c, &spec).unwrap();
        let wave = res.wave("a").unwrap();
        assert_eq!(*res.times().last().unwrap(), tau);
        (wave.last_value() - v0 * (-1.0f64).exp()).abs()
    }

    /// The integration-order oracle: halving the step halves the
    /// backward-Euler error (first order) and quarters the trapezoidal
    /// error (second order, despite its backward-Euler start-up step).
    #[test]
    fn halving_the_step_shows_each_integrators_order() {
        for (integrator, band) in [
            (Integrator::BackwardEuler, 1.8..=2.2),
            (Integrator::Trapezoidal, 3.5..=4.5),
        ] {
            let coarse = rc_discharge_error(20, integrator);
            let fine = rc_discharge_error(40, integrator);
            let ratio = coarse / fine;
            assert!(
                band.contains(&ratio),
                "{integrator:?}: error {coarse:e} -> {fine:e}, ratio {ratio}"
            );
        }
    }

    #[test]
    fn capacitor_conserves_dc_blocking() {
        // Series capacitor blocks DC: steady-state current is zero, the
        // output node returns to 0 through the resistor.
        let mut c = Circuit::new("hp");
        let a = c.node("a");
        let b = c.node("b");
        c.add(
            "V1",
            vec![a, Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Dc(5.0),
            },
        );
        c.add(
            "C1",
            vec![a, b],
            ElementKind::Capacitor { c: 1e-9, ic: None },
        );
        c.add(
            "R1",
            vec![b, Circuit::GROUND],
            ElementKind::Resistor { r: 1e3 },
        );
        let res = tran(&c, &TranSpec::new(1e-8, 2e-5)).unwrap();
        let w = res.wave("b").unwrap();
        assert!(w.last_value().abs() < 1e-3);
    }

    #[test]
    fn cmos_ring_oscillator_oscillates() {
        // Three CMOS inverters in a loop with load caps: the canonical
        // transient smoke test for the MOS model + integrator.
        let mut c = Circuit::new("ring3");
        c.add_model(MosModel::default_nmos("n1"));
        c.add_model(MosModel::default_pmos("p1"));
        let vdd = c.node("vdd");
        c.add(
            "Vdd",
            vec![vdd, Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Pulse {
                    v1: 0.0,
                    v2: 5.0,
                    td: 0.0,
                    tr: 1e-9,
                    tf: 1e-9,
                    pw: 1.0,
                    period: f64::INFINITY,
                },
            },
        );
        let n: Vec<_> = (0..3).map(|i| c.node(&format!("s{i}"))).collect();
        for i in 0..3 {
            let inp = n[i];
            let out = n[(i + 1) % 3];
            c.add(
                format!("Mn{i}"),
                vec![out, inp, Circuit::GROUND, Circuit::GROUND],
                ElementKind::Mosfet {
                    model: "n1".into(),
                    w: 10e-6,
                    l: 1e-6,
                },
            );
            c.add(
                format!("Mp{i}"),
                vec![out, inp, vdd, vdd],
                ElementKind::Mosfet {
                    model: "p1".into(),
                    w: 25e-6,
                    l: 1e-6,
                },
            );
            c.add(
                format!("Cl{i}"),
                vec![out, Circuit::GROUND],
                // Load large enough that the ring period spans many
                // timesteps (stage delay ≈ C·V/I ≈ 4 ns at 10 pF).
                ElementKind::Capacitor {
                    c: 10e-12,
                    ic: None,
                },
            );
        }
        // Break symmetry via an initial condition.
        let s0 = c.find_node("s0").unwrap();
        c.initial_conditions.push((s0, 5.0));
        let res = tran(&c, &TranSpec::new(1e-9, 400e-9).with_uic()).unwrap();
        let w = res.wave("s1").unwrap();
        assert!(w.amplitude() > 4.0, "ring amplitude {}", w.amplitude());
        let f = w.frequency().expect("ring oscillates");
        assert!(f > 1e6, "ring frequency {f}");
    }

    #[test]
    fn uic_respects_initial_conditions() {
        let mut c = Circuit::new("ic");
        let a = c.node("a");
        c.add(
            "R1",
            vec![a, Circuit::GROUND],
            ElementKind::Resistor { r: 1e3 },
        );
        c.add(
            "C1",
            vec![a, Circuit::GROUND],
            ElementKind::Capacitor {
                c: 1e-6,
                ic: Some(3.0),
            },
        );
        let res = tran(&c, &TranSpec::new(1e-5, 1e-4).with_uic()).unwrap();
        let w = res.wave("a").unwrap();
        assert!((w.values()[0] - 3.0).abs() < 1e-9);
        // Discharging exponential.
        assert!(w.last_value() < 3.0 * 0.95);
    }

    #[test]
    fn tran_with_streams_and_stops_early() {
        let mut c = Circuit::new("rc");
        let a = c.node("a");
        let b = c.node("b");
        c.add(
            "V1",
            vec![a, Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Dc(1.0),
            },
        );
        c.add("R1", vec![a, b], ElementKind::Resistor { r: 1e3 });
        c.add(
            "C1",
            vec![b, Circuit::GROUND],
            ElementKind::Capacitor {
                c: 1e-6,
                ic: Some(0.0),
            },
        );
        let spec = TranSpec::new(1e-4, 1e-2).with_uic();

        // Streaming with an always-true callback reproduces `tran`.
        let mut seen = Vec::new();
        let full = tran_with(&c, &spec, |t, x| {
            seen.push((t, x.to_vec()));
            true
        })
        .unwrap();
        let reference = tran(&c, &spec).unwrap();
        assert_eq!(full.times(), reference.times());
        assert_eq!(seen.len(), reference.times().len());
        assert_eq!(seen[0].0, 0.0, "initial point streams first");
        // Column order matches TranResult: x[node-1].
        let wave_b = reference.wave("b").unwrap();
        let col_b = c.find_node("b").unwrap() - 1;
        for ((t, x), (&rt, &rv)) in seen
            .iter()
            .zip(reference.times().iter().zip(wave_b.values()))
        {
            assert_eq!(*t, rt);
            assert_eq!(x[col_b], rv);
        }

        // Returning false stops the run at that sample.
        let res = tran_with(&c, &spec, |t, _| t < 2e-3).unwrap();
        let last = *res.times().last().unwrap();
        assert!((2e-3..2.2e-3).contains(&last), "stopped at {last}");
        assert!(res.stats.newton_iterations < reference.stats.newton_iterations);
    }

    /// A plain resistive divider driven by a DC source: converges in
    /// two Newton iterations per step, so very long grids stay cheap.
    fn divider() -> Circuit {
        let mut c = Circuit::new("div");
        let a = c.node("a");
        let b = c.node("b");
        c.add(
            "V1",
            vec![a, Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Dc(1.0),
            },
        );
        c.add("R1", vec![a, b], ElementKind::Resistor { r: 1e3 });
        c.add(
            "R2",
            vec![b, Circuit::GROUND],
            ElementKind::Resistor { r: 1e3 },
        );
        c
    }

    #[test]
    fn time_grid_does_not_drift_over_1e5_steps() {
        // Regression: accumulating `t += tstep` drifts by an ULP per
        // step; after 10⁵ steps the final time disagreed with
        // `steps · tstep` and waveform alignment shifted. Every grid
        // point must be bit-exact `k · tstep`.
        let c = divider();
        let tstep = 1e-9;
        let res = tran(&c, &TranSpec::new(tstep, 1e-4)).unwrap();
        assert_eq!(res.times().len(), 100_001);
        for (k, &t) in res.times().iter().enumerate() {
            assert_eq!(
                t,
                k as f64 * tstep,
                "grid point {k} must be derived from the step index"
            );
        }
        assert_eq!(*res.times().last().unwrap(), 1e-4);
    }

    #[test]
    fn non_multiple_tstop_emits_final_partial_step() {
        // tstop = 1 µs with tstep = 0.3 µs: 3 full steps plus a final
        // 0.1 µs partial step landing exactly on tstop. The old
        // `round()` grid silently stopped at 0.9 µs.
        let c = divider();
        let res = tran(&c, &TranSpec::new(0.3e-6, 1e-6)).unwrap();
        let times = res.times();
        assert_eq!(times.len(), 5, "0, 0.3, 0.6, 0.9, 1.0 µs: {times:?}");
        assert_eq!(*times.last().unwrap(), 1e-6);
        assert!((times[3] - 0.9e-6).abs() < 1e-18);
    }

    #[test]
    fn near_multiple_tstop_does_not_invent_a_step() {
        // tstop = 1 µs with tstep = 0.6 µs: the old grid rounded
        // 1.67 → 2 steps and simulated past tstop (1.2 µs). Now: one
        // full step plus the 0.4 µs partial step.
        let c = divider();
        let res = tran(&c, &TranSpec::new(0.6e-6, 1e-6)).unwrap();
        assert_eq!(res.times(), &[0.0, 0.6e-6, 1e-6]);

        // And a tstop that is a multiple up to float noise snaps to the
        // exact grid without a sliver step.
        let res = tran(&c, &TranSpec::new(0.1e-6, 0.3e-6)).unwrap();
        assert_eq!(res.times().len(), 4);
        assert_eq!(*res.times().last().unwrap(), 3.0 * 0.1e-6);

        // tstop below one step still produces a single partial step.
        let res = tran(&c, &TranSpec::new(1e-6, 0.4e-6)).unwrap();
        assert_eq!(res.times(), &[0.0, 0.4e-6]);
    }

    /// A hard-switching circuit whose Newton iteration cannot absorb a
    /// full-step input jump under a tight iteration budget: a stiff RC
    /// divider into a MOS whose gate swings rail to rail in one step.
    fn halving_testbench() -> (Circuit, TranSpec) {
        let mut c = Circuit::new("halving");
        c.add_model(MosModel::default_nmos("n1"));
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
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
                wave: Waveform::Pulse {
                    v1: 0.0,
                    v2: 5.0,
                    td: 1e-6,
                    tr: 100e-9,
                    tf: 100e-9,
                    pw: 1.0,
                    period: f64::INFINITY,
                },
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
        c.add(
            "CL",
            vec![out, Circuit::GROUND],
            ElementKind::Capacitor {
                c: 100e-12,
                ic: None,
            },
        );
        // A 2 µs step straddles the 100 ns input edge; with a two-
        // iteration budget the full step cannot converge, so the
        // integrator must halve its way through the transition.
        let mut spec = TranSpec::new(2e-6, 4e-6);
        spec.newton.max_iter = 2;
        (c, spec)
    }

    #[test]
    fn step_halving_rescues_a_failing_step() {
        let (c, spec) = halving_testbench();
        let res = tran(&c, &spec).expect("halving absorbs the edge");
        // The output ends pulled low through the switched-on NMOS.
        assert!(res.wave("out").unwrap().last_value() < 1.0);
        // The output grid is unchanged by the internal halving.
        assert_eq!(res.times(), &[0.0, 2e-6, 4e-6]);
    }

    #[test]
    fn failed_iterations_account_for_every_refactorisation() {
        let (c, spec) = halving_testbench();
        let res = tran(&c, &spec.with_solver(crate::sparse::SolverKind::Sparse)).unwrap();
        let s = res.stats;
        assert!(s.halvings > 0, "the testbench must fail some attempts");
        assert!(s.failed_iterations > 0);
        assert_eq!(s.solver.dense_fallbacks, 0);
        // Each iteration factors once, plus once more per re-pivot.
        assert_eq!(
            s.solver.refactorisations,
            s.newton_iterations + s.failed_iterations + s.solver.repivots,
            "{s:?}"
        );
    }

    #[test]
    fn max_halvings_zero_propagates_the_failure() {
        let (c, mut spec) = halving_testbench();
        spec.max_halvings = 0;
        let err = tran(&c, &spec).unwrap_err();
        assert!(
            matches!(err, SpiceError::NoConvergence { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn dense_and_sparse_transients_agree() {
        use crate::sparse::SolverKind;
        // Force both backends on the same MOS circuit and compare the
        // full waveforms.
        let (c, _) = halving_testbench();
        let spec = TranSpec::new(20e-9, 4e-6);
        let dense = tran(&c, &spec.clone().with_solver(SolverKind::Dense)).unwrap();
        let sparse = tran(&c, &spec.with_solver(SolverKind::Sparse)).unwrap();
        assert_eq!(dense.times(), sparse.times());
        for node in dense.node_names() {
            let dw = dense.wave(node).unwrap();
            let sw = sparse.wave(node).unwrap();
            let delta = dw.max_abs_diff(&sw);
            assert!(delta < 1e-9, "node {node} diverges by {delta}");
        }
    }

    #[test]
    fn cached_tran_matches_uncached() {
        use crate::sparse::PatternCache;
        let (c, _) = halving_testbench();
        let spec = TranSpec::new(20e-9, 4e-6).with_solver(crate::sparse::SolverKind::Sparse);
        let cache = PatternCache::new();
        let a = tran_cached(&c, &spec, &cache).unwrap();
        let b = tran(&c, &spec).unwrap();
        assert_eq!(a.times(), b.times());
        assert_eq!(
            a.wave("out").unwrap().values(),
            b.wave("out").unwrap().values()
        );
        // Second cached run reuses the symbolic factorisations (one
        // pattern serves both the DC op and the transient).
        let _ = tran_cached(&c, &spec, &cache).unwrap();
        assert!(cache.hits() > 0, "second run must hit the pattern cache");
    }

    #[test]
    fn result_exposes_node_names() {
        let mut c = Circuit::new("t");
        let a = c.node("alpha");
        c.add(
            "R1",
            vec![a, Circuit::GROUND],
            ElementKind::Resistor { r: 1.0 },
        );
        let res = tran(&c, &TranSpec::new(1e-6, 1e-5)).unwrap();
        assert_eq!(res.node_names(), &["alpha".to_string()]);
        assert!(res.wave("ALPHA").is_some(), "lookup is case-insensitive");
        assert!(res.wave("nope").is_none());
    }
}
