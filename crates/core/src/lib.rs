//! # cat-core — the linked Computer-Aided Test system
//!
//! The paper's headline contribution is not LIFT or AnaFAULT alone but
//! the *link*: one CAT environment that takes a finished layout, pulls a
//! realistic weighted fault list out of it, and drives the analogue
//! fault simulator with that list instead of the bloated
//! schematic-complete one. This crate is that link:
//!
//! * [`flow`] — [`flow::CatSystem`]: layout → extraction → LIFT →
//!   simulation-ready circuit and fault list, campaigns configured via
//!   [`anafault::CampaignBuilder`] and executed (optionally streaming
//!   per-fault progress) over the extracted list, all under the unified
//!   [`flow::CatError`];
//! * [`funnel`] — the Fig. 1 fault-list funnel: *all faults* →
//!   L²RFM → GLRFM, with the list size at each stage;
//! * [`l2rfm`] — the pre-layout "Local Layout Realistic Faults
//!   Mapping" stage (paper ref \[18\]): per-element realistic fault
//!   patterns derived from representative single-element layouts,
//!   applied to the schematic before the real layout exists.

pub mod flow;
pub mod funnel;
pub mod l2rfm;

pub use flow::{CatError, CatSystem};
pub use funnel::{FaultFunnel, FunnelStage};
