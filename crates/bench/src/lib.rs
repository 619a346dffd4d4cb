//! # bench — the experiment harness
//!
//! One function per table/figure of the paper (see DESIGN.md §4). Each
//! `src/bin/*` binary calls one of these and prints the regenerated
//! artefact next to the paper's reference values; the Criterion benches
//! measure the performance dimensions (fault-model runtime ratio,
//! kernel/extraction throughput).

pub mod args;
pub mod metrics;

pub use args::{ArgSpec, Args};
pub use metrics::{render_report, DiagnosisSummary, Metrics, REPORT_SCHEMA, REQUIRED_COUNTERS};

use anafault::{
    Campaign, CampaignResult, DetectionSpec, Fault, FaultEffect, FaultOutcome, HardFaultModel,
};
use cat_core::{CatSystem, FaultFunnel};
use defect::SizeDistribution;
use diagnose::{Diagnoser, FaultDictionary};
use extract::ExtractOptions;
use lift::schematic::schematic_faults;
use lift::{LiftOptions, LiftResult};
use spice::tran::TranSpec;
use spice::{Circuit, SolverKind, Wave};
use vco::{attach_sources, TestbenchParams, OBSERVED_NODE};

/// The LIFT configuration used for all paper experiments: Tab. 1
/// densities, x₀ = 1 µm / x_max = 10 µm defect sizes, p_min = 3·10⁻⁸.
/// These reproduce the paper's headline reduction (70 faults, 53 %)
/// on our generated layout.
pub fn paper_lift_options() -> LiftOptions {
    LiftOptions {
        ports: vec!["vdd".into(), "0".into(), "1".into(), "11".into()],
        size_dist: SizeDistribution::new(1_000, 10_000),
        p_min: 3e-8,
        ..LiftOptions::default()
    }
}

/// The paper's transient: 400 steps over 4 µs, starting at supply
/// activation (UIC).
pub fn paper_tran() -> TranSpec {
    TranSpec::new(10e-9, 4e-6).with_uic()
}

/// [`paper_tran`] pinned to a specific linear-solver backend (used by
/// the dense-vs-sparse comparisons).
pub fn paper_tran_with_solver(kind: SolverKind) -> TranSpec {
    paper_tran().with_solver(kind)
}

/// Builds the full CAT system for the VCO plus the testbench circuit.
pub fn vco_system() -> (CatSystem, Circuit) {
    let (flat, tech) = vco::vco_layout();
    let sys = CatSystem::from_layout(
        &flat,
        &tech,
        &ExtractOptions::default(),
        &paper_lift_options(),
    )
    .expect("VCO layout extracts cleanly");
    let mut tb = sys.circuit.clone();
    attach_sources(&mut tb, &TestbenchParams::default());
    (sys, tb)
}

/// A campaign with the paper's settings over the given testbench.
/// Early stop stays off so fault-model runtime comparisons measure the
/// full transient, as the paper's protocol files did.
pub fn paper_campaign(testbench: Circuit, model: HardFaultModel) -> Campaign {
    Campaign::builder()
        .testbench(testbench)
        .tran(paper_tran())
        .observe(OBSERVED_NODE)
        .detection(DetectionSpec::paper_fig5())
        .model(model)
        .build()
        .expect("paper campaign settings are complete")
}

// ---------------------------------------------------------------------
// SCH-FLT + LIFT-RED: the §VI fault-count tables
// ---------------------------------------------------------------------

/// The §VI reduction experiment: schematic-complete counts versus
/// LIFT's extracted list.
#[derive(Debug, Clone)]
pub struct ReductionReport {
    /// Schematic single opens (paper: 78 + 1 capacitor = 79).
    pub schematic_opens: usize,
    /// Schematic shorts (paper: 73 including the capacitor).
    pub schematic_shorts: usize,
    /// Designed gate-drain shorts skipped (paper: 6).
    pub designed_shorts: usize,
    /// LIFT result.
    pub lift: LiftResult,
}

impl ReductionReport {
    /// Total schematic faults.
    pub fn schematic_total(&self) -> usize {
        self.schematic_opens + self.schematic_shorts
    }

    /// The headline reduction percentage (paper: 53 %).
    pub fn reduction_percent(&self) -> f64 {
        self.lift.reduction_vs(self.schematic_total())
    }
}

/// Runs the reduction experiment.
pub fn lift_reduction() -> ReductionReport {
    let (sys, _) = vco_system();
    let sch = schematic_faults(&vco::vco_schematic());
    ReductionReport {
        schematic_opens: sch.opens.len(),
        schematic_shorts: sch.shorts.len(),
        designed_shorts: sch.skipped_designed_shorts,
        lift: sys.lift,
    }
}

/// The Fig. 1 funnel: all faults → L²RFM → GLRFM.
pub fn fault_funnel() -> FaultFunnel {
    let tech = layout::Technology::generic_1um();
    let sch = schematic_faults(&vco::vco_schematic());
    let all = sch.all();
    let patterns = cat_core::l2rfm::characterise_mos(&tech);
    let l2 = cat_core::l2rfm::apply_patterns(&all, &patterns);
    let (sys, _) = vco_system();
    FaultFunnel::new(all.len(), l2.len(), sys.lift.stats.total())
}

// ---------------------------------------------------------------------
// FIG4: example fault waveforms
// ---------------------------------------------------------------------

/// The Fig. 4 regeneration: fault-free output plus the two example
/// bridging faults.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Fault-free V(11).
    pub fault_free: Wave,
    /// `BRI n_ds_short 5->6` label and waveform.
    pub f_ds: (String, Wave),
    /// `BRI metal1_short 1->5` label and waveform.
    pub f_m1: (String, Wave),
}

/// Simulates the Fig. 4 waveforms (resistor fault model, as in the
/// paper's main run).
pub fn fig4_waveforms() -> Fig4 {
    let (sys, tb) = vco_system();
    let nominal = spice::tran::tran(&tb, &paper_tran()).expect("nominal run");
    let fault_free = nominal.wave(OBSERVED_NODE).expect("observed node");

    let find = |needle: &str| -> Fault {
        sys.lift
            .faults
            .iter()
            .map(|f| &f.fault)
            .find(|f| f.label.contains(needle))
            .unwrap_or_else(|| panic!("fault `{needle}` not in the LIFT list"))
            .clone()
    };
    let run = |fault: &Fault| -> Wave {
        let faulty =
            anafault::inject(&tb, fault, HardFaultModel::paper_resistor()).expect("injectable");
        spice::tran::tran(&faulty, &paper_tran())
            .expect("faulty run")
            .wave(OBSERVED_NODE)
            .expect("observed node")
    };
    let f_ds = find("n_ds_short 5->6");
    let f_m1 = find("metal1_short 1->5");
    Fig4 {
        fault_free,
        f_ds: (format!("#{} {}", f_ds.id, f_ds.label), run(&f_ds)),
        f_m1: (format!("#{} {}", f_m1.id, f_m1.label), run(&f_m1)),
    }
}

// ---------------------------------------------------------------------
// FIG5: fault coverage vs time
// ---------------------------------------------------------------------

/// The Fig. 5 coverage curve, sampled each 1 % of test time.
pub fn fig5_curve(result: &CampaignResult) -> Vec<(f64, f64)> {
    let samples: Vec<f64> = (0..=100).map(|i| i as f64 / 100.0 * 4e-6).collect();
    result.coverage_curve(&samples)
}

/// Runs the full fault-simulation campaign and returns the result plus
/// the coverage curve sampled each 1 % of test time.
pub fn fig5_campaign(model: HardFaultModel) -> (CampaignResult, Vec<(f64, f64)>) {
    fig5_campaign_limited(model, None, false)
}

/// [`fig5_campaign`] with an optional fault budget — the CI smoke job
/// runs a trimmed list (`--max-faults`) so the report pipeline is
/// exercised in seconds rather than the full campaign's minutes — and
/// optional fault dropping (`early_stop`).
pub fn fig5_campaign_limited(
    model: HardFaultModel,
    max_faults: Option<usize>,
    early_stop: bool,
) -> (CampaignResult, Vec<(f64, f64)>) {
    let (sys, tb) = vco_system();
    let mut builder = Campaign::builder()
        .testbench(tb)
        .tran(paper_tran())
        .observe(OBSERVED_NODE)
        .detection(DetectionSpec::paper_fig5())
        .model(model)
        .early_stop(early_stop);
    if let Some(n) = max_faults {
        builder = builder.max_faults(n);
    }
    let result = builder
        .build()
        .expect("paper campaign settings are complete")
        .run(&sys.fault_list())
        .expect("nominal simulation succeeds");
    let curve = fig5_curve(&result);
    (result, curve)
}

/// [`fig5_campaign_limited`] with diagnosis signature recording on:
/// every successfully simulated fault's record carries its deviation
/// trajectory, so the result can seed a fault dictionary. Signature
/// recording needs the complete faulty waveform, so the campaign runs
/// full-length.
pub fn fig5_campaign_signed(
    model: HardFaultModel,
    max_faults: Option<usize>,
) -> (CampaignResult, Vec<(f64, f64)>) {
    let (sys, tb) = vco_system();
    let mut builder = Campaign::builder()
        .testbench(tb)
        .tran(paper_tran())
        .observe(OBSERVED_NODE)
        .detection(DetectionSpec::paper_fig5())
        .model(model)
        .record_signatures(true);
    if let Some(n) = max_faults {
        builder = builder.max_faults(n);
    }
    let result = builder
        .build()
        .expect("paper campaign settings are complete")
        .run(&sys.fault_list())
        .expect("nominal simulation succeeds");
    let curve = fig5_curve(&result);
    (result, curve)
}

/// Probes every detected fault's own synthesized waveform back through
/// the dictionary and counts how often its true ambiguity class lands
/// at rank 1 (and within the first 3). On a self-consistent dictionary
/// the probe reconstructs the stored trajectory to round-off, so `top1`
/// must equal `queries` — the fig5 `--diagnose` acceptance check.
pub fn self_diagnose(dict: &FaultDictionary, result: &CampaignResult) -> DiagnosisSummary {
    let diagnoser = Diagnoser::new(dict);
    let mut queries = 0;
    let mut top1 = 0;
    let mut top3 = 0;
    for record in &result.records {
        if !matches!(record.outcome, FaultOutcome::Detected { .. }) {
            continue;
        }
        let Some(probe) = dict.probe_waves(record.fault.id) else {
            continue;
        };
        let candidates = diagnoser
            .rank(&probe)
            .expect("probe waves name observed nodes");
        queries += 1;
        let hit = |c: &diagnose::Candidate| c.fault_ids.contains(&record.fault.id);
        if candidates.first().is_some_and(hit) {
            top1 += 1;
        }
        if candidates.iter().take(3).any(hit) {
            top3 += 1;
        }
    }
    DiagnosisSummary {
        entries: dict.entries.len(),
        classes: dict.classes.len(),
        queries,
        top1,
        top3,
    }
}

/// The Fig. 5 campaign as a serialisable [`anafault::CampaignSpec`] —
/// what `fig5 --emit-spec` prints, and what the `anafault-serve` CI
/// smoke job submits. The spec must round-trip through the netlist
/// text, so both the daemon and `anafault-cli direct` rebuild exactly
/// the same circuit (node order included) and verdicts compare
/// bit-for-bit.
pub fn fig5_campaign_spec(
    model: HardFaultModel,
    max_faults: Option<usize>,
    client: Option<String>,
    signatures: bool,
) -> anafault::CampaignSpec {
    let (sys, tb) = vco_system();
    let tran = paper_tran();
    anafault::CampaignSpec {
        netlist: tb.to_netlist(),
        tstep: tran.tstep,
        tstop: tran.tstop,
        uic: tran.uic,
        observe: vec![OBSERVED_NODE.to_string()],
        detection: DetectionSpec::paper_fig5(),
        model,
        early_stop: false,
        record_signatures: signatures,
        max_faults,
        client,
        faults: sys.fault_list(),
    }
}

/// Dense-vs-sparse comparison on the Fig. 5 campaign: the same fault
/// list, tolerances and fault model through both linear-solver
/// backends, with verdict agreement checked fault by fault.
#[derive(Debug, Clone)]
pub struct SolverComparison {
    /// Wall-clock seconds for the whole campaign, dense LU.
    pub dense_seconds: f64,
    /// Wall-clock seconds for the whole campaign, sparse engine.
    pub sparse_seconds: f64,
    /// Kernel work (accepted Newton iterations), dense LU.
    pub dense_work: u64,
    /// Kernel work, sparse engine.
    pub sparse_work: u64,
    /// Faults simulated.
    pub n_faults: usize,
    /// Faults whose Detected/NotDetected/failure verdict differs
    /// between the backends (must be empty — listed by fault id).
    pub disagreements: Vec<usize>,
}

impl SolverComparison {
    /// Dense/sparse wall-clock ratio (> 1 means the sparse engine wins).
    pub fn speedup(&self) -> f64 {
        self.dense_seconds / self.sparse_seconds
    }

    /// Dense/sparse ratio of seconds *per Newton iteration* — the
    /// engine comparison with trajectory luck factored out. On
    /// halving-heavy faults the two backends legitimately walk
    /// different ladder paths (round-off level solution differences
    /// pick different damping/halving branches), so raw wall-clock
    /// undersells the per-solve speedup whenever the sparse run happens
    /// to draw more iterations.
    pub fn work_normalised_speedup(&self) -> f64 {
        (self.dense_seconds / self.dense_work.max(1) as f64)
            / (self.sparse_seconds / self.sparse_work.max(1) as f64)
    }

    /// True when both backends produced identical fault verdicts.
    pub fn verdicts_agree(&self) -> bool {
        self.disagreements.is_empty()
    }
}

/// Runs the Fig. 5 campaign once per solver backend and compares
/// runtime and verdicts. Also returns the sparse run's full result so
/// the caller can render the coverage report without paying for a
/// third campaign.
pub fn fig5_solver_comparison(model: HardFaultModel) -> (SolverComparison, CampaignResult) {
    let (sys, tb) = vco_system();
    let faults = sys.fault_list();
    let run = |kind: SolverKind| {
        Campaign::builder()
            .testbench(tb.clone())
            .tran(paper_tran_with_solver(kind))
            .observe(OBSERVED_NODE)
            .detection(DetectionSpec::paper_fig5())
            .model(model)
            .build()
            .expect("paper campaign settings are complete")
            .run(&faults)
            .expect("nominal simulation succeeds")
    };
    let dense = run(SolverKind::Dense);
    let sparse = run(SolverKind::Sparse);
    let disagreements = verdict_disagreements(&dense, &sparse);
    let comparison = SolverComparison {
        dense_seconds: dense.total_seconds,
        sparse_seconds: sparse.total_seconds,
        dense_work: dense.total_newton_iterations(),
        sparse_work: sparse.total_newton_iterations(),
        n_faults: faults.len(),
        disagreements,
    };
    (comparison, sparse)
}

/// Fault ids whose Detected/NotDetected/failure verdict class differs
/// between two runs of the same fault list (detection *times* may move
/// within tolerance between engines; the verdict class must not).
fn verdict_disagreements(a: &CampaignResult, b: &CampaignResult) -> Vec<usize> {
    a.records
        .iter()
        .zip(&b.records)
        .filter(|(x, y)| {
            use anafault::FaultOutcome::*;
            !matches!(
                (&x.outcome, &y.outcome),
                (Detected { .. }, Detected { .. })
                    | (NotDetected, NotDetected)
                    | (InjectionFailed(_), InjectionFailed(_))
                    | (SimulationFailed(_), SimulationFailed(_))
            )
        })
        .map(|(x, _)| x.fault.id)
        .collect()
}

// ---------------------------------------------------------------------
// FIG6: bridge resistance sweep on M11's drain
// ---------------------------------------------------------------------

/// Simulates the Fig. 6 sweep: a resistor from the Schmitt trigger
/// M11's drain (the supply rail — M11 is the N-side feedback device)
/// to ground, for each resistance value. Observability comes through
/// the testbench's supply impedance, exactly as on a real bench.
pub fn fig6_sweep(r_values: &[f64]) -> Vec<(f64, Wave)> {
    let (_, tb) = vco_system();
    r_values
        .iter()
        .map(|&r| {
            let fault = Fault::new(
                900,
                format!("BRI M11.d->0 R={r}"),
                FaultEffect::Short {
                    a: "vdd".into(),
                    b: "0".into(),
                },
            );
            let model = HardFaultModel::Resistor {
                r_short: r,
                r_open: 100e6,
            };
            let faulty = anafault::inject(&tb, &fault, model).expect("injectable");
            let wave = spice::tran::tran(&faulty, &paper_tran())
                .expect("sweep point simulates")
                .wave(OBSERVED_NODE)
                .expect("observed node");
            (r, wave)
        })
        .collect()
}

// ---------------------------------------------------------------------
// RT-RATIO: source vs resistor model runtime
// ---------------------------------------------------------------------

/// Runtime comparison between the two hard-fault models (paper §VI:
/// source model 43 % slower — 4383 s vs 3068 s on their hardware).
#[derive(Debug, Clone)]
pub struct RuntimeComparison {
    /// Summed per-fault simulation seconds, resistor model.
    pub resistor_seconds: f64,
    /// Summed per-fault simulation seconds, source model.
    pub source_seconds: f64,
    /// Kernel work (Newton solves), resistor model.
    pub resistor_work: u64,
    /// Kernel work, source model.
    pub source_work: u64,
    /// Coverage agreement between the two models (percentage points of
    /// difference; the paper found "nearly identical" plots).
    pub coverage_delta: f64,
}

impl RuntimeComparison {
    /// Source/resistor runtime ratio (paper: 1.43).
    pub fn ratio(&self) -> f64 {
        self.source_seconds / self.resistor_seconds
    }
}

/// Runs both campaigns and compares runtimes.
pub fn runtime_comparison() -> RuntimeComparison {
    let (resistor, _) = fig5_campaign(HardFaultModel::paper_resistor());
    let (source, _) = fig5_campaign(HardFaultModel::Source);
    RuntimeComparison {
        resistor_seconds: resistor.fault_sim_seconds(),
        source_seconds: source.fault_sim_seconds(),
        resistor_work: resistor.total_newton_iterations(),
        source_work: source.total_newton_iterations(),
        coverage_delta: (resistor.final_coverage() - source.final_coverage()).abs(),
    }
}

// ---------------------------------------------------------------------
// Rendering helpers shared by the binaries
// ---------------------------------------------------------------------

/// Renders a waveform as an ASCII strip chart (`width` columns,
/// `height` rows), used by the fig4/fig6 binaries.
pub fn ascii_wave(wave: &Wave, width: usize, height: usize, v_min: f64, v_max: f64) -> String {
    let mut grid = vec![vec![' '; width]; height];
    let t0 = wave.times().first().copied().unwrap_or(0.0);
    let t1 = wave.times().last().copied().unwrap_or(1.0);
    // clippy wants `grid.iter().enumerate()`, but `col` indexes the
    // inner dimension under a computed `row`.
    #[allow(clippy::needless_range_loop)]
    for col in 0..width {
        let t = t0 + (t1 - t0) * col as f64 / (width - 1) as f64;
        let v = wave.value_at(t);
        let frac = ((v - v_min) / (v_max - v_min)).clamp(0.0, 1.0);
        let row = height - 1 - (frac * (height - 1) as f64).round() as usize;
        grid[row][col] = '*';
    }
    let mut s = String::new();
    for (i, row) in grid.iter().enumerate() {
        let level = v_max - (v_max - v_min) * i as f64 / (height - 1) as f64;
        s.push_str(&format!("{level:>6.1} |"));
        s.extend(row.iter());
        s.push('\n');
    }
    s.push_str(&format!("       +{}\n", "-".repeat(width)));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_options_are_consistent() {
        let o = paper_lift_options();
        assert_eq!(o.p_min, 3e-8);
        assert_eq!(o.size_dist.x_max(), 10_000.0);
        let t = paper_tran();
        assert_eq!(t.tstep, 10e-9);
        assert_eq!(t.tstop, 4e-6);
        assert!(t.uic);
    }

    #[test]
    fn ascii_wave_renders() {
        let w = Wave::new(vec![0.0, 1.0, 2.0], vec![0.0, 5.0, 0.0]);
        let art = ascii_wave(&w, 30, 8, -1.0, 5.0);
        assert_eq!(art.lines().count(), 9);
        assert!(art.contains('*'));
    }
}
