//! # cat — the complete LIFT + AnaFAULT reproduction, one roof
//!
//! An umbrella crate re-exporting the whole Computer-Aided Test system
//! of *"Automatic Fault Extraction and Simulation of Layout Realistic
//! Faults for Integrated Analogue Circuits"* (Sebeke, Teixeira, Ohletz
//! — DATE 1995):
//!
//! | crate | role |
//! |---|---|
//! | [`geom`] | Manhattan geometry, boolean regions, spatial index |
//! | [`layout`] | layers, technology rules, cells, GDSII |
//! | [`extract`] | layout → transistor netlist, LVS |
//! | [`defect`] | Tab. 1 mechanisms, defect sizes, critical areas |
//! | [`spice`] | MNA kernel simulator (DC, transient, MOS level-1) |
//! | [`lift`] | realistic fault extraction (GLRFM) |
//! | [`anafault`] | fault models, injection, campaigns, coverage |
//! | [`diagnose`] | fault dictionaries, ambiguity classes, waveform matching |
//! | [`cat_core`] | the linked flow, Fig. 1 funnel, L²RFM |
//! | [`vco`] | the paper's 26-transistor evaluation circuit |
//!
//! ```no_run
//! use cat::prelude::*;
//!
//! // Extraction + LIFT run once per design …
//! let (flat, tech) = cat::vco::vco_layout();
//! let sys = CatSystem::from_layout(
//!     &flat, &tech,
//!     &ExtractOptions::default(),
//!     &LiftOptions::default(),
//! )?;
//! assert_eq!(sys.netlist.mosfets.len(), 26);
//!
//! // … then campaigns are configured through the builder and stream
//! // one progress event per completed fault.
//! let mut tb = sys.circuit.clone();
//! cat::vco::attach_sources(&mut tb, &cat::vco::TestbenchParams::default());
//! let campaign = sys
//!     .campaign_builder()
//!     .testbench(tb)
//!     .tran(TranSpec::new(10e-9, 4e-6).with_uic())
//!     .observe(cat::vco::OBSERVED_NODE) // repeat to probe more pins
//!     .early_stop(true)                 // drop faults once detected
//!     .build()?;
//! let result = sys.simulate_with_progress(&campaign, |p| {
//!     eprintln!("{}/{} {}", p.completed, p.total, p.record.fault);
//! })?;
//! println!("{}", cat::anafault::protocol::to_json(&result));
//! # Ok::<(), cat::cat_core::CatError>(())
//! ```
//!
//! Every fallible step above funnels into [`cat_core::CatError`].

pub use anafault;
pub use cat_core;
pub use cat_telemetry;
pub use defect;
pub use diagnose;
pub use extract;
pub use geom;
pub use layout;
pub use lift;
pub use spice;
pub use vco;

/// The names most flows need.
pub mod prelude {
    pub use anafault::{
        Campaign, CampaignBuilder, CampaignProgress, CampaignReport, CampaignResult,
        CampaignTelemetry, DetectionSpec, Fault, FaultEffect, FaultTelemetry, HardFaultModel,
    };
    pub use cat_core::{CatError, CatSystem, FaultFunnel};
    pub use defect::{MechanismTable, SizeDistribution};
    pub use extract::ExtractOptions;
    pub use layout::{Cell, CellBuilder, Layer, Library, Technology};
    pub use lift::{LiftOptions, LiftResult};
    pub use spice::tran::{tran, TranSpec};
    pub use spice::{Circuit, Wave};
}
