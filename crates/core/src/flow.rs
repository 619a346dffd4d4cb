//! The end-to-end CAT flow.
//!
//! # Quickstart
//!
//! One [`CatSystem`] per design: extraction + LIFT run once, then any
//! number of campaigns are configured through the builder and executed
//! over LIFT's ranked fault list:
//!
//! ```no_run
//! use cat_core::{CatError, CatSystem};
//! use extract::ExtractOptions;
//! use lift::LiftOptions;
//! use spice::tran::TranSpec;
//!
//! # fn testbench(sys: &CatSystem) -> spice::Circuit { sys.circuit.clone() }
//! let (flat, tech) = vco::vco_layout();
//! let sys = CatSystem::from_layout(
//!     &flat, &tech,
//!     &ExtractOptions::default(),
//!     &LiftOptions::default(),
//! )?;
//! let campaign = sys
//!     .campaign_builder()
//!     .testbench(testbench(&sys))
//!     .tran(TranSpec::new(10e-9, 4e-6).with_uic())
//!     .observe("11")          // any-detect: call again for more pins
//!     .early_stop(true)       // drop each fault once detected
//!     .build()?;
//! let result = sys.simulate(&campaign)?;
//! println!("coverage {:.1} %", result.final_coverage());
//! # Ok::<(), CatError>(())
//! ```
//!
//! Every fallible step funnels into [`CatError`], the crate-wide error
//! type; long campaigns can stream per-fault progress through
//! [`CatSystem::simulate_with_progress`].

use anafault::{
    Campaign, CampaignBuilder, CampaignProgress, CampaignReport, CampaignResult, ConfigError,
    Fault, InjectError,
};
use extract::{ExtractError, ExtractOptions, ExtractedNetlist};
use layout::{FlatLayout, Technology};
use lift::{extract_faults, LiftOptions, LiftResult};
use spice::{Circuit, SpiceError};

/// The unified error type of the CAT system: everything a flow can
/// raise — extraction, simulation, fault injection and campaign
/// configuration — converts into this via `From`, so `?` composes
/// across layers.
#[derive(Debug)]
pub enum CatError {
    /// Circuit extraction failed.
    Extract(ExtractError),
    /// Simulation failed.
    Spice(SpiceError),
    /// Fault injection failed (outside a campaign, where it would be
    /// recorded per fault instead).
    Inject(InjectError),
    /// Campaign configuration was incomplete or inconsistent.
    Config(ConfigError),
}

impl core::fmt::Display for CatError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CatError::Extract(e) => write!(f, "extraction: {e}"),
            CatError::Spice(e) => write!(f, "simulation: {e}"),
            CatError::Inject(e) => write!(f, "injection: {e}"),
            CatError::Config(e) => write!(f, "configuration: {e}"),
        }
    }
}

impl std::error::Error for CatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CatError::Extract(e) => Some(e),
            CatError::Spice(e) => Some(e),
            CatError::Inject(e) => Some(e),
            CatError::Config(e) => Some(e),
        }
    }
}

impl From<ExtractError> for CatError {
    fn from(e: ExtractError) -> Self {
        CatError::Extract(e)
    }
}

impl From<SpiceError> for CatError {
    fn from(e: SpiceError) -> Self {
        CatError::Spice(e)
    }
}

impl From<InjectError> for CatError {
    fn from(e: InjectError) -> Self {
        CatError::Inject(e)
    }
}

impl From<ConfigError> for CatError {
    fn from(e: ConfigError) -> Self {
        CatError::Config(e)
    }
}

/// The assembled CAT system for one design: extracted netlist,
/// simulation circuit and ranked realistic fault list.
#[derive(Debug, Clone)]
pub struct CatSystem {
    /// Geometric/electrical extraction result.
    pub netlist: ExtractedNetlist,
    /// The extracted circuit (no testbench yet).
    pub circuit: Circuit,
    /// LIFT's ranked weighted fault list.
    pub lift: LiftResult,
}

impl CatSystem {
    /// Runs extraction and LIFT on a flattened layout.
    ///
    /// # Errors
    /// Propagates extraction failures ([`CatError::Extract`]).
    pub fn from_layout(
        flat: &FlatLayout,
        tech: &Technology,
        extract_options: &ExtractOptions,
        lift_options: &LiftOptions,
    ) -> Result<Self, CatError> {
        let netlist = extract::extract(flat, tech, extract_options)?;
        let circuit = netlist.to_circuit("extracted", extract_options);
        let lift = extract_faults(&netlist, tech, lift_options);
        Ok(CatSystem {
            netlist,
            circuit,
            lift,
        })
    }

    /// The simulation-ready fault list.
    pub fn fault_list(&self) -> Vec<Fault> {
        self.lift.fault_list()
    }

    /// Starts configuring a campaign (see [`CampaignBuilder`]). The
    /// caller supplies the testbench — usually [`CatSystem::circuit`]
    /// plus sources — the transient, and the observed node(s).
    pub fn campaign_builder(&self) -> CampaignBuilder {
        Campaign::builder()
    }

    /// Runs `campaign` over LIFT's ranked fault list, blocking until
    /// every fault is simulated.
    ///
    /// # Errors
    /// Fails when the nominal simulation fails ([`CatError::Spice`]).
    pub fn simulate(&self, campaign: &Campaign) -> Result<CampaignResult, CatError> {
        Ok(campaign.run(&self.fault_list())?)
    }

    /// Runs `campaign` over LIFT's ranked fault list, streaming one
    /// [`CampaignProgress`] event per completed fault.
    ///
    /// # Errors
    /// Fails when the nominal simulation fails ([`CatError::Spice`]).
    pub fn simulate_with_progress(
        &self,
        campaign: &Campaign,
        on_event: impl FnMut(&CampaignProgress),
    ) -> Result<CampaignResult, CatError> {
        let faults = self.fault_list();
        Ok(campaign.session(&faults).run_with_progress(on_event)?)
    }

    /// Runs `campaign` and aggregates the records into a
    /// [`CampaignReport`] — the one-call entry point for flows that
    /// only need the run's summary statistics and telemetry.
    ///
    /// # Errors
    /// Fails when the nominal simulation fails ([`CatError::Spice`]).
    pub fn simulate_reported(
        &self,
        campaign: &Campaign,
    ) -> Result<(CampaignResult, CampaignReport), CatError> {
        let result = self.simulate(campaign)?;
        let report = result.report();
        Ok((result, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anafault::{DetectionSpec, HardFaultModel};
    use spice::tran::TranSpec;
    use spice::{ElementKind, Waveform};

    #[test]
    fn full_flow_on_vco_layout() {
        let (flat, tech) = vco::vco_layout();
        let lift_options = LiftOptions {
            ports: vec!["vdd".into(), "0".into(), "1".into(), "11".into()],
            ..LiftOptions::default()
        };
        let sys = CatSystem::from_layout(&flat, &tech, &ExtractOptions::default(), &lift_options)
            .unwrap();
        assert_eq!(sys.netlist.mosfets.len(), 26);
        assert!(sys.lift.stats.total() > 20, "stats: {:?}", sys.lift.stats);
        assert!(sys.lift.stats.bridges > 0);
        assert!(sys.lift.stats.stuck_opens + sys.lift.stats.line_opens > 0);
        // Probabilities are ranked descending.
        let ps: Vec<f64> = sys.lift.faults.iter().map(|f| f.probability).collect();
        assert!(ps.windows(2).all(|w| w[0] >= w[1]));
        assert!(sys.circuit.validate().is_ok());
    }

    #[test]
    fn campaign_runs_on_extracted_circuit() {
        let (flat, tech) = vco::vco_layout();
        let sys = CatSystem::from_layout(
            &flat,
            &tech,
            &ExtractOptions::default(),
            &LiftOptions::default(),
        )
        .unwrap();
        // Attach the paper's testbench to the extracted circuit.
        let mut tb = sys.circuit.clone();
        let vdd = tb.node("vdd");
        let vin = tb.node("1");
        tb.add(
            "VDD",
            vec![vdd, spice::Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Pulse {
                    v1: 0.0,
                    v2: 5.0,
                    td: 0.0,
                    tr: 50e-9,
                    tf: 50e-9,
                    pw: f64::INFINITY,
                    period: f64::INFINITY,
                },
            },
        );
        tb.add(
            "VIN",
            vec![vin, spice::Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Dc(2.2),
            },
        );
        // Short campaign: top 10 faults only (full campaign is the
        // benchmark's job).
        let campaign = sys
            .campaign_builder()
            .testbench(tb)
            .tran(TranSpec::new(10e-9, 4e-6).with_uic())
            .observe("11")
            .detection(DetectionSpec::paper_fig5())
            .model(HardFaultModel::paper_resistor())
            .max_faults(10)
            .build()
            .unwrap();
        let mut events = 0usize;
        let result = sys
            .simulate_with_progress(&campaign, |_| events += 1)
            .unwrap();
        assert_eq!(result.records.len(), 10);
        assert_eq!(events, 10, "one progress event per fault");
        // The top-probability faults on this oscillator are gross
        // shorts; most should be detected.
        assert!(
            result.final_coverage() >= 50.0,
            "coverage {} too low; records: {:?}",
            result.final_coverage(),
            result
                .records
                .iter()
                .map(|r| (&r.fault.label, &r.outcome))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn cat_error_unifies_every_layer() {
        let spice_err: CatError = SpiceError::Elaboration("x".into()).into();
        let inject_err: CatError = InjectError::UnknownNode("n".into()).into();
        let config_err: CatError = ConfigError::MissingTestbench.into();
        assert!(matches!(spice_err, CatError::Spice(_)));
        assert!(matches!(inject_err, CatError::Inject(_)));
        assert!(matches!(config_err, CatError::Config(_)));
        // Display and source() are wired through.
        for e in [spice_err, inject_err, config_err] {
            assert!(!e.to_string().is_empty());
            assert!(std::error::Error::source(&e).is_some());
        }
    }
}
