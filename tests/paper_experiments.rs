//! Shape-level checks of the paper's figures (the full regenerations
//! live in `crates/bench/src/bin`; these tests assert the qualitative
//! claims cheaply enough for CI).

use anafault::{DetectionSpec, HardFaultModel};
use cat::prelude::*;
use spice::SolverKind;

#[test]
fn fig4_fault_classes_behave_as_described() {
    let fig = bench::fig4_waveforms();
    // Fault-free output oscillates rail to rail.
    let f0 = fig.fault_free.frequency().expect("fault-free oscillates");
    assert!(fig.fault_free.amplitude() > 4.5);
    // The switch ds-short changes the frequency but keeps oscillating
    // ("at the first glance an increased oscillation would be
    //  attributed to some kind of soft rather than to a hard fault").
    let (label_ds, wave_ds) = &fig.f_ds;
    assert!(label_ds.contains("n_ds_short"));
    match wave_ds.frequency() {
        Some(f) => assert!(
            (f - f0).abs() / f0 > 0.2,
            "ds short must shift the frequency: {f0} -> {f}"
        ),
        None => panic!("ds short should keep oscillating"),
    }
    // The metal1 1->5 bridge kills the oscillation (constant output
    // after the first cycle).
    let (_, wave_m1) = &fig.f_m1;
    let late: Vec<f64> = wave_m1
        .times()
        .iter()
        .zip(wave_m1.values())
        .filter(|(t, _)| **t > 2e-6)
        .map(|(_, v)| *v)
        .collect();
    let swing = late.iter().copied().fold(f64::MIN, f64::max)
        - late.iter().copied().fold(f64::MAX, f64::min);
    assert!(
        swing < 1.0,
        "1->5 short pins the output, late swing {swing}"
    );
}

#[test]
fn fig6_resistance_sweep_degrades_monotonically() {
    let sweep = bench::fig6_sweep(&[1000.0, 21.0, 1.0]);
    let amp: Vec<f64> = sweep.iter().map(|(_, w)| w.amplitude()).collect();
    // 1 kΩ barely visible, 21 Ω clearly degraded, 1 Ω dead.
    assert!(amp[0] > 4.0, "1 kΩ nearly nominal, got Vpp {}", amp[0]);
    assert!(amp[1] < amp[0], "21 Ω worse than 1 kΩ");
    assert!(
        amp[2] < 1.0,
        "1 Ω stops the oscillation, got Vpp {}",
        amp[2]
    );
    // And the 1 kΩ case still oscillates.
    assert!(sweep[0].1.frequency().is_some());
}

#[test]
fn fault_models_agree_on_outcomes() {
    // Paper: resistor and source model yield "nearly identical fault
    // coverage plots". Check outcome agreement on the top faults.
    let (sys, tb) = bench::vco_system();
    let faults: Vec<Fault> = sys.fault_list().into_iter().take(10).collect();
    let run = |model: HardFaultModel| {
        sys.campaign_builder()
            .testbench(tb.clone())
            .tran(bench::paper_tran())
            .observe(vco::OBSERVED_NODE)
            .detection(DetectionSpec::paper_fig5())
            .model(model)
            .build()
            .expect("complete configuration")
            .run(&faults)
            .expect("runs")
    };
    let r = run(HardFaultModel::paper_resistor());
    let s = run(HardFaultModel::Source);
    let detected = |result: &anafault::CampaignResult| -> Vec<bool> {
        result
            .records
            .iter()
            .map(|rec| matches!(rec.outcome, anafault::FaultOutcome::Detected { .. }))
            .collect()
    };
    assert_eq!(detected(&r), detected(&s), "models disagree");
}

#[test]
fn sparse_and_dense_solvers_agree_on_every_netlist() {
    // The pattern-reusing sparse engine must be a drop-in replacement
    // for the dense LU: on the DC-biased VCO and on fault-injected
    // variants, Newton converged through either backend must land on
    // the same operating point with |Δx| < 1e-9.
    //
    // The comparison polishes both backends from one common starting
    // point under a tight tolerance. (Raw single-solve solutions can
    // legitimately differ by ~cond·ε — a 0.01 Ω bridge over a gmin
    // path puts the condition number near 1e14, where *any* two pivot
    // orders disagree around 1e-8 — but Newton's fixed point does not
    // depend on the linear solver, so converged solutions must agree.)
    use spice::dcop::{solve_newton_in, NewtonOpts};
    use spice::devices::{StampParams, StampPlan, UnknownMap};
    use spice::MnaSolver;

    let (sys, _) = bench::vco_system();
    // DC-biased testbench (settled supply, mid-range control voltage):
    // a non-trivial operating point on every node.
    let tb = vco::vco_dc_testbench(&vco::TestbenchParams::default());

    let mut circuits = vec![("nominal".to_string(), tb.clone())];
    for f in sys.fault_list().into_iter().take(8) {
        let faulty = anafault::inject(&tb, &f, HardFaultModel::paper_resistor())
            .expect("paper faults inject cleanly");
        circuits.push((format!("#{} {}", f.id, f.label), faulty));
    }

    let mut compared = 0;
    for (label, ckt) in circuits {
        let map = UnknownMap::new(&ckt);
        let plan = StampPlan::new(&ckt).expect("models resolve");
        let x0 = match spice::dcop::dc_operating_point(&ckt) {
            Ok(x) => x,
            // Some hard faults genuinely defeat the operating-point
            // ladder; the verdict-identity test below covers those.
            Err(_) => continue,
        };
        let params = StampParams::default();
        // Tolerance ladder: each backend polishes at the tightest rung
        // it can reach. A bridge fault at condition ~1e14 (0.01 Ω short
        // over a gmin path) can stagnate just above the tightest dx
        // threshold under one pivot order and not the other — its
        // Newton stagnation floor (~2e-9) sits above the comparison
        // bar, so the 1e-9 assertion only applies when *both* backends
        // reach the tightest rung; the verdict-identity test below
        // still covers the stagnating fault end to end.
        let polish = |kind: SolverKind| {
            let mut solver = MnaSolver::for_circuit(&ckt, &map, kind, None);
            if kind == SolverKind::Sparse {
                assert!(
                    solver.is_sparse(),
                    "{label}: VCO systems take the sparse path"
                );
            }
            let ladder = [(1e-12, 1e-10), (1e-10, 1e-8), (1e-9, 1e-7)];
            for (rung, &(vabstol, reltol)) in ladder.iter().enumerate() {
                let opts = NewtonOpts {
                    vabstol,
                    reltol,
                    max_iter: 400,
                    ..NewtonOpts::default()
                };
                if let Ok((x, _)) =
                    solve_newton_in(&mut solver, &ckt, &map, &plan, &x0, &params, &opts, "agree")
                {
                    return Some((x, rung));
                }
            }
            None
        };
        match (polish(SolverKind::Dense), polish(SolverKind::Sparse)) {
            (Some((xd, 0)), Some((xs, 0))) => {
                let delta = xd
                    .iter()
                    .zip(&xs)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                assert!(delta < 1e-9, "{label}: |Δx| = {delta:e}");
                compared += 1;
            }
            (Some(_), Some(_)) => {} // a stagnating ill-conditioned fault
            (None, None) => {}       // both agree the point is unreachable
            (d, s) => panic!(
                "{label}: backends disagree about solvability: dense {} vs sparse {}",
                d.is_some(),
                s.is_some()
            ),
        }
    }
    assert!(compared >= 6, "only {compared} netlists compared");
}

#[test]
fn sparse_and_dense_campaigns_reach_identical_verdicts() {
    // The acceptance bar for the sparse engine: same fault verdicts as
    // the dense path on the Fig. 5 campaign settings (a 15-fault slice
    // keeps CI affordable; the full comparison lives in the fig5
    // binary).
    let (sys, tb) = bench::vco_system();
    let faults: Vec<Fault> = sys.fault_list().into_iter().take(15).collect();
    let run = |kind: SolverKind| {
        sys.campaign_builder()
            .testbench(tb.clone())
            .tran(bench::paper_tran_with_solver(kind))
            .observe(vco::OBSERVED_NODE)
            .detection(DetectionSpec::paper_fig5())
            .build()
            .expect("complete configuration")
            .run(&faults)
            .expect("runs")
    };
    let dense = run(SolverKind::Dense);
    let sparse = run(SolverKind::Sparse);
    for (d, s) in dense.records.iter().zip(&sparse.records) {
        let verdict = |o: &anafault::FaultOutcome| -> &'static str {
            match o {
                anafault::FaultOutcome::Detected { .. } => "detected",
                anafault::FaultOutcome::NotDetected => "not-detected",
                anafault::FaultOutcome::InjectionFailed(_) => "injection-failed",
                anafault::FaultOutcome::SimulationFailed(_) => "simulation-failed",
            }
        };
        assert_eq!(
            verdict(&d.outcome),
            verdict(&s.outcome),
            "fault #{} {}: dense {:?} vs sparse {:?}",
            d.fault.id,
            d.fault.label,
            d.outcome,
            s.outcome
        );
    }
}

#[test]
fn coverage_curve_is_monotone_and_saturates_early() {
    // A miniature Fig. 5: top 15 faults only (the full campaign runs in
    // the fig5 binary).
    let (sys, tb) = bench::vco_system();
    let faults: Vec<Fault> = sys.fault_list().into_iter().take(15).collect();
    let result = sys
        .campaign_builder()
        .testbench(tb)
        .tran(bench::paper_tran())
        .observe(vco::OBSERVED_NODE)
        .detection(DetectionSpec::paper_fig5())
        .model(HardFaultModel::paper_resistor())
        .build()
        .expect("complete configuration")
        .run(&faults)
        .expect("runs");
    let samples: Vec<f64> = (0..=40).map(|i| i as f64 * 1e-7).collect();
    let curve = result.coverage_curve(&samples);
    for w in curve.windows(2) {
        assert!(w[1].1 >= w[0].1, "coverage must not decrease");
    }
    // Detections concentrate in the earlier part of the record: all of
    // them land by 75 % of test time (the paper reports 55 % for its
    // layout; our measured full-campaign value is 69 %).
    let at_75 = curve
        .iter()
        .find(|(t, _)| *t >= 3e-6)
        .map(|(_, c)| *c)
        .expect("sample at 75 % time");
    assert_eq!(
        at_75,
        result.final_coverage(),
        "all detections land by 75 % of the test"
    );
    // And at least half the final coverage is reached by half time.
    let half = curve
        .iter()
        .find(|(t, _)| *t >= 2e-6)
        .map(|(_, c)| *c)
        .expect("sample at half time");
    assert!(
        half >= 0.5 * result.final_coverage(),
        "half {half}, final {}",
        result.final_coverage()
    );
}

#[test]
fn heavy_fig5_faults_keep_their_verdicts_and_drop_cycling_work() {
    // Two of the costliest fig5 faults (Source model, full length),
    // pinned to the verdicts and accepted work of the Newton loop
    // without a cycle exit. Ending proven limit cycles early must only
    // remove factorisations: below each fault's earlier count, every
    // other number bitwise unchanged.
    let (sys, tb) = bench::vco_system();
    let pinned: [(usize, f64, u64, u64, u64, u64); 2] = [
        // (id, detected at, steps, halvings, Newton iterations, refactorisations before)
        (36, 2.56e-6, 426, 26, 976, 21_776),
        (62, 2.6e-7, 868, 468, 9_474, 385_476),
    ];
    let faults: Vec<Fault> = sys
        .fault_list()
        .into_iter()
        .filter(|f| pinned.iter().any(|p| p.0 == f.id))
        .collect();
    assert_eq!(faults.len(), pinned.len());
    let result = bench::paper_campaign(tb, HardFaultModel::Source)
        .run(&faults)
        .expect("nominal simulation succeeds");
    for (id, at, steps, halvings, newton, lu_before) in pinned {
        let r = result
            .records
            .iter()
            .find(|r| r.fault.id == id)
            .expect("pinned fault simulated");
        match &r.outcome {
            anafault::FaultOutcome::Detected { at: t, .. } => {
                assert_eq!(t.to_bits(), at.to_bits(), "fault {id}: detected at {t}")
            }
            other => panic!("fault {id}: {other:?}"),
        }
        let t = &r.telemetry;
        assert!(!t.early_stopped, "fault {id} must run full length");
        assert_eq!((t.steps, t.halvings), (steps, halvings), "fault {id}");
        assert_eq!(t.newton_iterations, newton, "fault {id}");
        assert_eq!(r.newton_iterations, newton, "fault {id}");
        assert!(
            t.solver.refactorisations < lu_before,
            "fault {id}: {} refactorisations",
            t.solver.refactorisations
        );
        // Every factorisation is accounted for by an accepted or a
        // failed iteration (plus one per re-pivot).
        assert_eq!(t.solver.dense_fallbacks, 0, "fault {id}");
        assert_eq!(
            t.solver.refactorisations,
            t.newton_iterations + t.failed_iterations + t.solver.repivots,
            "fault {id}: {t:?}"
        );
    }
}
