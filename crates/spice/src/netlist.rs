//! The circuit data model.
//!
//! Designed for in-memory topology editing: the fault injector adds and
//! removes elements, rewires individual terminals and splits nodes. All
//! of that happens on [`Circuit`] before it is handed to an analysis.

use std::collections::HashMap;

/// Index of a circuit node. Node 0 is always ground (`"0"` / `"gnd"`).
pub type NodeId = usize;

/// MOS transistor polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosPolarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// Shichman–Hodges (SPICE level-1) model parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MosModel {
    /// Model name as referenced by `M` cards.
    pub name: String,
    /// Polarity.
    pub polarity: MosPolarity,
    /// Zero-bias threshold voltage (V); negative for PMOS.
    pub vto: f64,
    /// Transconductance parameter µ·Cox (A/V²).
    pub kp: f64,
    /// Channel-length modulation (1/V).
    pub lambda: f64,
    /// Body-effect coefficient (√V).
    pub gamma: f64,
    /// Surface potential 2φF (V).
    pub phi: f64,
    /// Gate-oxide capacitance per area (F/m²), used for simple gate
    /// loading; zero disables it.
    pub cox: f64,
}

impl MosModel {
    /// Default 1 µm-era NMOS model.
    pub fn default_nmos(name: impl Into<String>) -> Self {
        MosModel {
            name: name.into(),
            polarity: MosPolarity::Nmos,
            vto: 0.8,
            kp: 80e-6,
            lambda: 0.05,
            gamma: 0.4,
            phi: 0.65,
            cox: 1.7e-3,
        }
    }

    /// Default 1 µm-era PMOS model.
    pub fn default_pmos(name: impl Into<String>) -> Self {
        MosModel {
            name: name.into(),
            polarity: MosPolarity::Pmos,
            vto: -0.9,
            kp: 27e-6,
            lambda: 0.07,
            gamma: 0.5,
            phi: 0.65,
            cox: 1.7e-3,
        }
    }
}

/// Independent source waveform.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// SPICE `PULSE(v1 v2 td tr tf pw per)`.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge (s).
        td: f64,
        /// Rise time (s).
        tr: f64,
        /// Fall time (s).
        tf: f64,
        /// Pulse width (s).
        pw: f64,
        /// Period (s); `f64::INFINITY` for a single pulse.
        period: f64,
    },
    /// SPICE `SIN(vo va freq td theta)`.
    Sin {
        /// Offset.
        vo: f64,
        /// Amplitude.
        va: f64,
        /// Frequency (Hz).
        freq: f64,
        /// Delay (s).
        td: f64,
        /// Damping factor (1/s).
        theta: f64,
    },
    /// Piecewise-linear `(time, value)` points, sorted by time.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Source value at time `t` (transient semantics; DC analyses use
    /// `t = 0`).
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v1,
                v2,
                td,
                tr,
                tf,
                pw,
                period,
            } => {
                if t < *td {
                    return *v1;
                }
                let mut tl = t - td;
                if period.is_finite() && *period > 0.0 {
                    tl %= period;
                }
                if tl < *tr {
                    let f = if *tr > 0.0 { tl / tr } else { 1.0 };
                    v1 + (v2 - v1) * f
                } else if tl < tr + pw {
                    *v2
                } else if tl < tr + pw + tf {
                    let f = if *tf > 0.0 { (tl - tr - pw) / tf } else { 1.0 };
                    v2 + (v1 - v2) * f
                } else {
                    *v1
                }
            }
            Waveform::Sin {
                vo,
                va,
                freq,
                td,
                theta,
            } => {
                if t < *td {
                    *vo
                } else {
                    let tp = t - td;
                    vo + va * (-theta * tp).exp() * (2.0 * std::f64::consts::PI * freq * tp).sin()
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t <= t1 {
                        if t1 == t0 {
                            return v1;
                        }
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points.last().unwrap().1
            }
        }
    }

    /// The DC (t = 0⁻) value of the waveform.
    pub fn dc_value(&self) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse { v1, .. } => *v1,
            Waveform::Sin { vo, .. } => *vo,
            Waveform::Pwl(p) => p.first().map(|&(_, v)| v).unwrap_or(0.0),
        }
    }
}

/// The electrical behaviour of an element.
#[derive(Debug, Clone, PartialEq)]
pub enum ElementKind {
    /// Linear resistor (Ω).
    Resistor {
        /// Resistance in ohms; must be non-zero.
        r: f64,
    },
    /// Linear capacitor (F) with optional initial condition (V).
    Capacitor {
        /// Capacitance in farads.
        c: f64,
        /// Initial voltage used when the transient runs with UIC.
        ic: Option<f64>,
    },
    /// Independent voltage source.
    Vsource {
        /// Waveform.
        wave: Waveform,
    },
    /// Independent current source (current flows from terminal 0 through
    /// the source to terminal 1).
    Isource {
        /// Waveform.
        wave: Waveform,
    },
    /// MOS transistor, terminals `[d, g, s, b]`.
    Mosfet {
        /// Model name (must exist in [`Circuit::models`]).
        model: String,
        /// Channel width (m).
        w: f64,
        /// Channel length (m).
        l: f64,
    },
}

impl ElementKind {
    /// Number of terminals this kind requires.
    pub fn terminal_count(&self) -> usize {
        match self {
            ElementKind::Mosfet { .. } => 4,
            _ => 2,
        }
    }

    /// SPICE card letter.
    pub fn letter(&self) -> char {
        match self {
            ElementKind::Resistor { .. } => 'R',
            ElementKind::Capacitor { .. } => 'C',
            ElementKind::Vsource { .. } => 'V',
            ElementKind::Isource { .. } => 'I',
            ElementKind::Mosfet { .. } => 'M',
        }
    }
}

/// A circuit element: a name, terminal nodes and a kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Instance name (`M11`, `Rshort`, …).
    pub name: String,
    /// Terminal nodes; length matches `kind.terminal_count()`.
    pub nodes: Vec<NodeId>,
    /// Electrical behaviour.
    pub kind: ElementKind,
}

/// A complete circuit: named nodes, elements and MOS models.
///
/// ```
/// use spice::{Circuit, ElementKind, Waveform};
///
/// let mut ckt = Circuit::new("divider");
/// let vin = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.add("V1", vec![vin, Circuit::GROUND], ElementKind::Vsource { wave: Waveform::Dc(5.0) });
/// ckt.add("R1", vec![vin, out], ElementKind::Resistor { r: 1e3 });
/// ckt.add("R2", vec![out, Circuit::GROUND], ElementKind::Resistor { r: 1e3 });
/// assert_eq!(ckt.node_count(), 3);
/// assert_eq!(ckt.node_order(out), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    /// Human-readable title (first netlist line).
    pub title: String,
    node_names: Vec<String>,
    node_lookup: HashMap<String, NodeId>,
    elements: Vec<Element>,
    /// MOS models by name.
    pub models: HashMap<String, MosModel>,
    /// `.ic` initial node voltages (node, volts).
    pub initial_conditions: Vec<(NodeId, f64)>,
}

impl Circuit {
    /// The ground node id.
    pub const GROUND: NodeId = 0;

    /// Creates an empty circuit containing only the ground node.
    pub fn new(title: impl Into<String>) -> Self {
        let mut node_lookup = HashMap::new();
        node_lookup.insert("0".to_string(), 0);
        Circuit {
            title: title.into(),
            node_names: vec!["0".to_string()],
            node_lookup,
            elements: Vec::new(),
            models: HashMap::new(),
            initial_conditions: Vec::new(),
        }
    }

    /// Returns the id for a node name, creating the node when new.
    /// `"0"`, `"gnd"` and `"gnd!"` all map to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        let key = name.to_ascii_lowercase();
        if key == "0" || key == "gnd" || key == "gnd!" {
            return Circuit::GROUND;
        }
        if let Some(&id) = self.node_lookup.get(&key) {
            return id;
        }
        let id = self.node_names.len();
        self.node_names.push(key.clone());
        self.node_lookup.insert(key, id);
        id
    }

    /// Creates a fresh, uniquely named internal node (used by node
    /// splitting and series-element insertion).
    pub fn fresh_node(&mut self, hint: &str) -> NodeId {
        let mut i = 0usize;
        loop {
            let candidate = if i == 0 {
                hint.to_string()
            } else {
                format!("{hint}_{i}")
            };
            let key = candidate.to_ascii_lowercase();
            if !self.node_lookup.contains_key(&key) {
                let id = self.node_names.len();
                self.node_names.push(key.clone());
                self.node_lookup.insert(key, id);
                return id;
            }
            i += 1;
        }
    }

    /// Looks up an existing node id by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        let key = name.to_ascii_lowercase();
        if key == "0" || key == "gnd" || key == "gnd!" {
            return Some(Circuit::GROUND);
        }
        self.node_lookup.get(&key).copied()
    }

    /// The name of node `id`.
    ///
    /// # Panics
    /// Panics when `id` is out of range.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id]
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Adds an element.
    ///
    /// # Panics
    /// Panics when the terminal count does not match the element kind or
    /// a node id is out of range.
    pub fn add(&mut self, name: impl Into<String>, nodes: Vec<NodeId>, kind: ElementKind) {
        assert_eq!(
            nodes.len(),
            kind.terminal_count(),
            "wrong terminal count for element kind"
        );
        for &n in &nodes {
            assert!(n < self.node_names.len(), "node id {n} out of range");
        }
        self.elements.push(Element {
            name: name.into(),
            nodes,
            kind,
        });
    }

    /// Registers a MOS model.
    pub fn add_model(&mut self, model: MosModel) {
        self.models.insert(model.name.to_ascii_lowercase(), model);
    }

    /// All elements.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Mutable elements (the fault injector's entry point).
    pub fn elements_mut(&mut self) -> &mut Vec<Element> {
        &mut self.elements
    }

    /// Finds an element index by instance name (case-insensitive).
    pub fn find_element(&self, name: &str) -> Option<usize> {
        self.elements
            .iter()
            .position(|e| e.name.eq_ignore_ascii_case(name))
    }

    /// The *order* of a node: how many element terminals attach to it.
    pub fn node_order(&self, node: NodeId) -> usize {
        self.elements
            .iter()
            .flat_map(|e| e.nodes.iter())
            .filter(|&&n| n == node)
            .count()
    }

    /// All `(element index, terminal index)` pairs attached to `node`.
    pub fn attachments(&self, node: NodeId) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (ei, e) in self.elements.iter().enumerate() {
            for (ti, &n) in e.nodes.iter().enumerate() {
                if n == node {
                    out.push((ei, ti));
                }
            }
        }
        out
    }

    /// Validates that every MOS references a known model and every node
    /// id is in range.
    ///
    /// # Errors
    /// Returns a human-readable description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        for e in &self.elements {
            if e.nodes.len() != e.kind.terminal_count() {
                return Err(format!("element {} has wrong terminal count", e.name));
            }
            for &n in &e.nodes {
                if n >= self.node_names.len() {
                    return Err(format!("element {} references unknown node {n}", e.name));
                }
            }
            if let ElementKind::Mosfet { model, .. } = &e.kind {
                if !self.models.contains_key(&model.to_ascii_lowercase()) {
                    return Err(format!(
                        "element {} references undefined model `{model}`",
                        e.name
                    ));
                }
            }
            if let ElementKind::Resistor { r } = e.kind {
                if r == 0.0 {
                    return Err(format!("resistor {} has zero resistance", e.name));
                }
            }
        }
        Ok(())
    }

    /// Emits the circuit as SPICE netlist text (round-trippable through
    /// [`crate::parser::parse_netlist`]).
    pub fn to_netlist(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.title);
        for e in &self.elements {
            let nodes: Vec<&str> = e.nodes.iter().map(|&n| self.node_name(n)).collect();
            match &e.kind {
                ElementKind::Resistor { r } => {
                    let _ = writeln!(s, "{} {} {} {}", e.name, nodes[0], nodes[1], r);
                }
                ElementKind::Capacitor { c, ic } => {
                    let _ = write!(s, "{} {} {} {}", e.name, nodes[0], nodes[1], c);
                    if let Some(v) = ic {
                        let _ = write!(s, " ic={v}");
                    }
                    let _ = writeln!(s);
                }
                ElementKind::Vsource { wave } | ElementKind::Isource { wave } => {
                    let _ = write!(s, "{} {} {} ", e.name, nodes[0], nodes[1]);
                    let _ = writeln!(s, "{}", format_wave(wave));
                }
                ElementKind::Mosfet { model, w, l } => {
                    let _ = writeln!(
                        s,
                        "{} {} {} {} {} {} w={w} l={l}",
                        e.name, nodes[0], nodes[1], nodes[2], nodes[3], model
                    );
                }
            }
        }
        // Sorted by name: `models` is a `HashMap`, and the text must not
        // depend on its per-instance iteration order.
        let mut models: Vec<(&String, &MosModel)> = self.models.iter().collect();
        models.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (_, m) in models {
            let pol = match m.polarity {
                MosPolarity::Nmos => "nmos",
                MosPolarity::Pmos => "pmos",
            };
            let _ = writeln!(
                s,
                ".model {} {} vto={} kp={} lambda={} gamma={} phi={}",
                m.name, pol, m.vto, m.kp, m.lambda, m.gamma, m.phi
            );
        }
        for (n, v) in &self.initial_conditions {
            let _ = writeln!(s, ".ic v({})={}", self.node_name(*n), v);
        }
        s.push_str(".end\n");
        s
    }
}

fn format_wave(w: &Waveform) -> String {
    match w {
        Waveform::Dc(v) => format!("dc {v}"),
        Waveform::Pulse {
            v1,
            v2,
            td,
            tr,
            tf,
            pw,
            period,
        } => {
            if period.is_finite() {
                format!("pulse({v1} {v2} {td} {tr} {tf} {pw} {period})")
            } else {
                format!("pulse({v1} {v2} {td} {tr} {tf} {pw})")
            }
        }
        Waveform::Sin {
            vo,
            va,
            freq,
            td,
            theta,
        } => format!("sin({vo} {va} {freq} {td} {theta})"),
        Waveform::Pwl(points) => {
            let inner: Vec<String> = points.iter().map(|(t, v)| format!("{t} {v}")).collect();
            format!("pwl({})", inner.join(" "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new("t");
        assert_eq!(c.node("0"), 0);
        assert_eq!(c.node("gnd"), 0);
        assert_eq!(c.node("GND!"), 0);
        let a = c.node("a");
        assert_eq!(c.node("A"), a, "node names are case-insensitive");
    }

    #[test]
    fn node_order_counts_attachments() {
        let mut c = Circuit::new("t");
        let a = c.node("a");
        let b = c.node("b");
        c.add("R1", vec![a, b], ElementKind::Resistor { r: 1.0 });
        c.add(
            "R2",
            vec![a, Circuit::GROUND],
            ElementKind::Resistor { r: 1.0 },
        );
        c.add(
            "C1",
            vec![a, Circuit::GROUND],
            ElementKind::Capacitor { c: 1e-12, ic: None },
        );
        assert_eq!(c.node_order(a), 3);
        assert_eq!(c.node_order(b), 1);
        assert_eq!(c.attachments(a).len(), 3);
    }

    #[test]
    fn fresh_node_never_collides() {
        let mut c = Circuit::new("t");
        let n1 = c.node("split");
        let n2 = c.fresh_node("split");
        assert_ne!(n1, n2);
        let n3 = c.fresh_node("split");
        assert_ne!(n2, n3);
    }

    #[test]
    fn validate_catches_missing_model() {
        let mut c = Circuit::new("t");
        let d = c.node("d");
        c.add(
            "M1",
            vec![d, Circuit::GROUND, Circuit::GROUND, Circuit::GROUND],
            ElementKind::Mosfet {
                model: "nope".into(),
                w: 1e-6,
                l: 1e-6,
            },
        );
        assert!(c.validate().unwrap_err().contains("undefined model"));
    }

    #[test]
    fn validate_catches_zero_resistor() {
        let mut c = Circuit::new("t");
        let a = c.node("a");
        c.add(
            "R1",
            vec![a, Circuit::GROUND],
            ElementKind::Resistor { r: 0.0 },
        );
        assert!(c.validate().is_err());
    }

    #[test]
    fn pulse_waveform_shape() {
        let w = Waveform::Pulse {
            v1: 0.0,
            v2: 5.0,
            td: 1e-9,
            tr: 1e-9,
            tf: 1e-9,
            pw: 5e-9,
            period: 10e-9,
        };
        assert_eq!(w.value_at(0.0), 0.0);
        assert!((w.value_at(1.5e-9) - 2.5).abs() < 1e-9); // mid-rise
        assert_eq!(w.value_at(3e-9), 5.0); // high
        assert!((w.value_at(7.5e-9) - 2.5).abs() < 1e-9); // mid-fall
                                                          // Periodic repetition.
        assert_eq!(w.value_at(13e-9), 5.0);
        assert_eq!(w.dc_value(), 0.0);
    }

    #[test]
    fn sin_waveform_shape() {
        let w = Waveform::Sin {
            vo: 1.0,
            va: 2.0,
            freq: 1e6,
            td: 0.0,
            theta: 0.0,
        };
        assert!((w.value_at(0.0) - 1.0).abs() < 1e-12);
        assert!((w.value_at(0.25e-6) - 3.0).abs() < 1e-9); // peak
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::Pwl(vec![(0.0, 0.0), (1.0, 10.0), (2.0, 10.0)]);
        assert_eq!(w.value_at(-1.0), 0.0);
        assert!((w.value_at(0.5) - 5.0).abs() < 1e-12);
        assert_eq!(w.value_at(5.0), 10.0);
    }

    #[test]
    fn netlist_text_round_trip_shape() {
        let mut c = Circuit::new("rt");
        let a = c.node("a");
        c.add(
            "V1",
            vec![a, Circuit::GROUND],
            ElementKind::Vsource {
                wave: Waveform::Dc(5.0),
            },
        );
        c.add(
            "R1",
            vec![a, Circuit::GROUND],
            ElementKind::Resistor { r: 1000.0 },
        );
        let text = c.to_netlist();
        assert!(text.contains("V1 a 0 dc 5"));
        assert!(text.contains("R1 a 0 1000"));
        assert!(text.ends_with(".end\n"));
    }

    #[test]
    fn netlist_text_is_identical_across_builds() {
        let build = || {
            let mut c = Circuit::new("models");
            let d = c.node("d");
            // Lower-case models and upper-case elements: the parser
            // normalises both that way, so the text can round-trip exactly.
            for name in ["nch", "pch", "nlow", "phigh", "nmid"] {
                let model = if name.starts_with('n') {
                    MosModel::default_nmos(name)
                } else {
                    MosModel::default_pmos(name)
                };
                c.add(
                    format!("M{}", name.to_ascii_uppercase()),
                    vec![d, Circuit::GROUND, Circuit::GROUND, Circuit::GROUND],
                    ElementKind::Mosfet {
                        model: name.into(),
                        w: 2e-6,
                        l: 1e-6,
                    },
                );
                c.add_model(model);
            }
            c.to_netlist()
        };
        let text = build();
        for _ in 0..8 {
            assert_eq!(build(), text, "every build emits the same bytes");
        }
        let models: Vec<&str> = text.lines().filter(|l| l.starts_with(".model")).collect();
        assert_eq!(models.len(), 5);
        let reparsed = crate::parser::parse_netlist(&text).unwrap();
        assert_eq!(reparsed.models.len(), 5);
        assert_eq!(reparsed.to_netlist(), text, "the text round-trips");
    }
}
