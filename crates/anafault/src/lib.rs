//! # anafault — the automatic analogue fault simulator
//!
//! The Rust reproduction of AnaFAULT (paper §V): a complete tool that
//! takes a circuit, a fault list and a stimulus, and produces fault
//! coverage statistics. Its defining capability — the one the paper
//! notes stock circuit simulators lack — is **altering the topology** of
//! the circuit for every fault:
//!
//! * [`fault`] — the fault model vocabulary of Fig. 2: local shorts,
//!   global shorts, local opens, **split nodes** (a node of order *n*
//!   becomes two nodes of order *k* and *n−k*) and transistor
//!   stuck-opens, plus parametric (soft) deviations;
//! * [`inject`] — rewrites a deep copy of the in-memory netlist per
//!   fault, under either the **resistor model** (short = 0.01 Ω,
//!   open = 100 MΩ) or the **source model** (ideal 0 V / 0 A sources);
//! * [`campaign`] — the repetitive simulate–compare–log cycle as a
//!   builder-configured session: [`CampaignBuilder`] is the only way to
//!   assemble a [`Campaign`], and [`Campaign::session`] streams one
//!   [`CampaignProgress`] event per completed fault from a pool of
//!   worker threads (the paper's cluster-parallel execution, reproduced
//!   with threads). Several nodes can be observed at once (any-detect),
//!   a fault budget caps the list, and fault dropping abandons each
//!   faulty transient at the moment of detection;
//! * [`coverage`] — tolerance-band detection (2 V amplitude / 0.2 µs
//!   time in the paper's Fig. 5) and fault-coverage-versus-time curves;
//! * [`faultlist`] — the textual fault-list interface through which LIFT
//!   hands over extracted faults;
//! * [`soft`] — parametric (soft) fault generation, deterministic sweeps
//!   and Monte Carlo deviations (the paper's §II soft-fault model), with
//!   id offsets so mixed hard/soft campaigns keep unique fault ids;
//! * [`report`] — tabular reports, protocol rows and ASCII coverage
//!   plots;
//! * [`protocol`] — the machine-readable JSON protocol file
//!   ([`CampaignResult`] round-trips losslessly);
//! * [`diagnosis`] — bridges a finished campaign (run with
//!   `record_signatures(true)`) to the `diagnose` crate's fault
//!   dictionaries and ambiguity classes.
//!
//! See the [`campaign`] module for a runnable quickstart.

pub mod campaign;
pub mod coverage;
pub mod diagnosis;
pub mod fault;
pub mod faultlist;
pub mod inject;
pub mod protocol;
pub mod report;
pub mod soft;

pub use campaign::{
    apply_budget, match_checkpoint, share_wall, worker_threads, BatchMode, Campaign,
    CampaignBuilder, CampaignProgress, CampaignReport, CampaignResult, CampaignSession,
    CampaignTelemetry, ConfigError, FaultOutcome, FaultRecord, FaultTelemetry, PreparedCampaign,
    DEFAULT_BATCH_WIDTH,
};
pub use coverage::{coverage_curve, DetectionSpec};
pub use diagnosis::{build_dictionary, DictionaryError};
pub use fault::{Fault, FaultEffect, MosTerminal};
pub use inject::{inject, HardFaultModel, InjectError};
pub use protocol::{CampaignSpec, ProtocolError, StreamEvent};
pub use soft::{MonteCarloSpec, SweepSpec};
