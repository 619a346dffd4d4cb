//! # spice — the kernel analogue circuit simulator
//!
//! AnaFAULT (the fault simulator crate) needs a SPICE-class kernel it
//! can call repeatedly on topology-modified netlists. The paper used
//! ELDO; this crate is the in-tree substitute: a modified-nodal-analysis
//! simulator with
//!
//! * a circuit data model designed for *in-memory topology editing*
//!   ([`Circuit`], [`Element`]) — the capability the paper points out is
//!   missing from stock simulators;
//! * a SPICE-netlist text parser ([`parser`]);
//! * Newton–Raphson DC operating point with gmin and source stepping
//!   ([`dcop`]);
//! * backward-Euler / trapezoidal transient analysis ([`tran`](mod@tran));
//! * device models: resistor, capacitor, independent V/I sources
//!   (DC/PULSE/SIN/PWL) and the Shichman–Hodges MOS level-1 model with
//!   body effect and channel-length modulation ([`devices`]);
//! * waveform storage and measurement utilities ([`waveform`]).
//!
//! ## The pattern/solver split
//!
//! The linear core is split along the classic sparse-SPICE boundary
//! between *symbolic* and *numeric* work (see [`sparse`]):
//!
//! * a [`sparse::Pattern`] captures everything that depends only on
//!   the circuit **topology** — the structural nonzeros, a Markowitz
//!   pivot order, the fill-in, and a slot map so devices stamp into
//!   precomputed nonzero indices. It is built once per topology and
//!   shared (`Arc`) across every Newton iteration, every timestep and,
//!   through a [`sparse::PatternCache`], every fault of a campaign
//!   whose injection preserves the stamp structure;
//! * a [`sparse::SparseSystem`] holds the **numbers** — assembled
//!   values and the LU arrays — and refactors them over the frozen
//!   structure with no pivot search and no allocation;
//! * the [`sparse::MnaSolver`] dispatcher keeps the dense
//!   partial-pivoting LU ([`mna::MnaSystem`]) for tiny systems (below
//!   [`sparse::DENSE_CUTOFF`] unknowns) and as the automatic fallback
//!   whenever the frozen pivot order hits a numerically dead pivot, so
//!   the sparse fast path never costs robustness.
//!
//! Both backends judge singularity *relative to the column/row scale*,
//! not against an absolute epsilon — badly scaled but solvable systems
//! (routine under gmin stepping) factor normally.
//!
//! ```
//! use spice::parser::parse_netlist;
//! use spice::tran::{tran, TranSpec};
//!
//! let ckt = parse_netlist(r#"rc divider
//! v1 in 0 dc 5
//! r1 in out 1k
//! r2 out 0 1k
//! .end
//! "#)?;
//! let res = tran(&ckt, &TranSpec::new(1e-6, 1e-5))?;
//! let v_out = res.wave("out").unwrap().last_value();
//! assert!((v_out - 2.5).abs() < 1e-6);
//! # Ok::<(), spice::SpiceError>(())
//! ```

pub mod dcop;
pub mod devices;
pub mod mna;
pub mod netlist;
pub mod parser;
pub mod sparse;
pub mod tran;
pub mod waveform;

pub use mna::Stamper;
pub use netlist::{Circuit, Element, ElementKind, MosModel, MosPolarity, NodeId, Waveform};
pub use sparse::{MnaSolver, Pattern, PatternCache, SolverBackend, SolverKind, SolverStats};
pub use tran::{tran, tran_cached, tran_with, tran_with_cached, TranResult, TranSpec, TranStats};
pub use waveform::Wave;

/// Errors surfaced by parsing or simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiceError {
    /// Text netlist could not be parsed.
    Parse {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The circuit references an undefined model or node.
    Elaboration(String),
    /// Newton iteration failed to converge.
    NoConvergence {
        /// Which analysis failed.
        analysis: String,
        /// Diagnostic detail.
        detail: String,
    },
    /// The MNA matrix became singular.
    Singular {
        /// Which analysis hit the singularity.
        analysis: String,
    },
}

impl core::fmt::Display for SpiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpiceError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            SpiceError::Elaboration(m) => write!(f, "elaboration error: {m}"),
            SpiceError::NoConvergence { analysis, detail } => {
                write!(f, "{analysis} failed to converge: {detail}")
            }
            SpiceError::Singular { analysis } => {
                write!(f, "singular matrix during {analysis}")
            }
        }
    }
}

impl std::error::Error for SpiceError {}
