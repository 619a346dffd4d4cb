//! # extract — transistor-level circuit extraction from layout
//!
//! LIFT performs fault extraction *simultaneously with* transistor-level
//! circuit extraction (paper §IV, ref \[29\]). This crate is the circuit
//! half of that pairing:
//!
//! * [`connectivity`] labels nets: union-find over same-layer shape
//!   contact plus contact/via cuts, with MOS channels splitting the
//!   active layer into source/drain sides;
//! * [`devices`] recognises MOSFETs (poly ∩ active), derives W/L and
//!   polarity (n-well ⇒ PMOS), and finds plate capacitors;
//! * [`lvs`] compares an extracted netlist against a schematic
//!   (Weisfeiler–Lehman refinement), the classic layout-versus-schematic
//!   check used by the integration tests to prove the generated VCO
//!   layout matches the paper's circuit.
//!
//! The output type [`ExtractedNetlist`] keeps full geometric provenance
//! (net fragments per layer, cut positions, channel rectangles) because
//! the fault extractor needs exactly that information to compute
//! critical areas per electrical net.

pub mod circuit;
pub mod connectivity;
pub mod devices;
pub mod lvs;

use geom::{Coord, Point, Rect, Region};
use layout::Layer;

/// Identifier of an extracted net.
pub type NetId = usize;

/// A connected piece of conductor geometry on one layer.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The conductor layer.
    pub layer: Layer,
    /// The merged geometry of this fragment.
    pub region: Region,
    /// The net this fragment belongs to.
    pub net: NetId,
}

/// A contact or via cut joining two fragments.
#[derive(Debug, Clone)]
pub struct Cut {
    /// `Contact` or `Via1`.
    pub layer: Layer,
    /// The cut square.
    pub rect: Rect,
    /// Net the cut belongs to (both joined fragments share it).
    pub net: NetId,
    /// Index into [`ExtractedNetlist::fragments`] of the upper conductor.
    pub upper_fragment: usize,
    /// Index into [`ExtractedNetlist::fragments`] of the lower conductor.
    pub lower_fragment: usize,
}

/// An extracted net: a name (from labels or synthesised) plus its
/// fragments.
#[derive(Debug, Clone)]
pub struct Net {
    /// Net name: label text when labelled, else `n<id>`.
    pub name: String,
    /// Indices into [`ExtractedNetlist::fragments`].
    pub fragments: Vec<usize>,
}

/// Recognised MOSFET polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// N-channel (active outside any n-well).
    Nmos,
    /// P-channel (active inside an n-well).
    Pmos,
}

/// A recognised MOSFET.
#[derive(Debug, Clone)]
pub struct Mosfet {
    /// Synthesised instance name (`M1`, `M2`, … in deterministic
    /// layout order).
    pub name: String,
    /// Channel rectangle (poly ∩ active component).
    pub channel: Rect,
    /// Polarity.
    pub polarity: Polarity,
    /// Gate net.
    pub gate: NetId,
    /// Source net (by convention the left/bottom diffusion).
    pub source: NetId,
    /// Drain net.
    pub drain: NetId,
    /// Channel width in nm.
    pub w: Coord,
    /// Channel length in nm.
    pub l: Coord,
}

/// A recognised plate capacitor (large Metal1/Metal2 overlap).
#[derive(Debug, Clone)]
pub struct PlateCap {
    /// Synthesised instance name (`C1`, …).
    pub name: String,
    /// The overlap region's bounding box.
    pub plate: Rect,
    /// Bottom-plate (Metal1) net.
    pub bottom: NetId,
    /// Top-plate (Metal2) net.
    pub top: NetId,
    /// Estimated capacitance in farads.
    pub value: f64,
}

/// A labelled external connection point (where the testbench attaches).
#[derive(Debug, Clone)]
pub struct PortLabel {
    /// Port/net name from the layout label.
    pub name: String,
    /// Fragment index the label landed on.
    pub fragment: usize,
    /// Label anchor position.
    pub at: Point,
}

/// The complete result of circuit extraction.
#[derive(Debug, Clone)]
pub struct ExtractedNetlist {
    /// All nets.
    pub nets: Vec<Net>,
    /// All conductor fragments (geometry provenance for LIFT).
    pub fragments: Vec<Fragment>,
    /// All contact/via cuts.
    pub cuts: Vec<Cut>,
    /// Recognised transistors.
    pub mosfets: Vec<Mosfet>,
    /// Recognised plate capacitors.
    pub capacitors: Vec<PlateCap>,
    /// Labelled external connection points.
    pub ports: Vec<PortLabel>,
    /// Non-fatal oddities encountered (dangling cuts, unlabelled
    /// supplies, …).
    pub warnings: Vec<String>,
}

impl ExtractedNetlist {
    /// The net id carrying `name`, if any.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name.eq_ignore_ascii_case(name))
    }

    /// All fragments of `net` on `layer`.
    pub fn net_fragments(&self, net: NetId, layer: Layer) -> Vec<&Fragment> {
        self.nets[net]
            .fragments
            .iter()
            .map(|&fi| &self.fragments[fi])
            .filter(|f| f.layer == layer)
            .collect()
    }

    /// Number of distinct nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }
}

/// Extraction tuning knobs.
#[derive(Debug, Clone)]
pub struct ExtractOptions {
    /// Metal1/Metal2 overlaps at least this large (nm²) become plate
    /// capacitors instead of incidental routing crossovers.
    pub cap_threshold: i128,
    /// Capacitance per nm² for recognised plate caps (F/nm²).
    /// The default corresponds to a 1 fF/µm² MIM-style stack.
    pub cap_per_area: f64,
    /// Net name tied to NMOS bulks.
    pub bulk_n: String,
    /// Net name tied to PMOS bulks.
    pub bulk_p: String,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            cap_threshold: 100_000_000, // 100 µm² in nm²
            cap_per_area: 1e-21,        // 1 fF/µm² = 1e-21 F/nm²
            bulk_n: "0".to_string(),
            bulk_p: "vdd".to_string(),
        }
    }
}

/// Errors produced by extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// A MOS channel did not have exactly two diffusion neighbours.
    MalformedDevice(String),
    /// Two different labels landed on the same net.
    LabelConflict {
        /// The net's first name.
        first: String,
        /// The conflicting second name.
        second: String,
    },
}

impl core::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExtractError::MalformedDevice(m) => write!(f, "malformed device: {m}"),
            ExtractError::LabelConflict { first, second } => {
                write!(f, "labels `{first}` and `{second}` short together")
            }
        }
    }
}

impl std::error::Error for ExtractError {}

pub use connectivity::extract;
