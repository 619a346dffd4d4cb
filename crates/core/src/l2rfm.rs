//! L²RFM — Local Layout Realistic Faults Mapping (paper ref \[18\]).
//!
//! Before the final layout exists, the schematic-complete fault list
//! can already be thinned using *element-local* layout knowledge: each
//! element type has a known cell layout, so the realistic fault
//! patterns *within one element* (which terminal pairs can actually
//! bridge, which terminals can open) can be pre-characterised once and
//! applied per instance. This module does exactly that with the same
//! machinery as the global pass: it generates a representative layout
//! of a single MOSFET, runs LIFT on it, and records which local fault
//! patterns survive.

use anafault::{Fault, FaultEffect};
use extract::{connectivity, ExtractOptions};
use geom::Point;
use layout::{CellBuilder, Layer, Library, MosParams, MosStyle, Technology};
use lift::{extract_faults, LiftFaultClass, LiftOptions};
use std::collections::HashSet;

/// The per-element realistic fault patterns L²RFM derives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalFaultPatterns {
    /// Realistic terminal-pair shorts inside one MOS: subset of
    /// `{"gd", "gs", "ds"}`.
    pub mos_shorts: HashSet<String>,
    /// Realistic terminal opens inside one MOS: subset of
    /// `{"d", "g", "s"}`.
    pub mos_opens: HashSet<String>,
}

/// Characterises the local fault patterns of a single MOSFET layout in
/// the given technology.
pub fn characterise_mos(tech: &Technology) -> LocalFaultPatterns {
    // A representative single-transistor cell with its three terminals
    // routed out (so opens have something to separate).
    let mut b = CellBuilder::new("l2rfm_mos", tech);
    let geo = b.mosfet(
        Point::new(0, 0),
        &MosParams {
            w: 6_000,
            l: 1_000,
            style: MosStyle::Nmos,
        },
    );
    let stub = geo.gate_stub.center();
    let gate_c = Point::new(stub.x, stub.y - 4_000);
    b.min_wire(Layer::Poly, &[stub, gate_c]);
    b.contact(gate_c, Layer::Poly);
    b.wire(
        Layer::Metal1,
        &[gate_c, Point::new(gate_c.x - 12_000, gate_c.y)],
        1_500,
    );
    b.label(Layer::Metal1, Point::new(gate_c.x - 11_000, gate_c.y), "g");
    let s = geo.source_pad.center();
    b.wire(Layer::Metal1, &[s, Point::new(s.x, s.y + 12_000)], 1_500);
    b.label(Layer::Metal1, Point::new(s.x, s.y + 11_000), "s");
    let d = geo.drain_pad.center();
    b.wire(Layer::Metal1, &[d, Point::new(d.x, d.y + 12_000)], 1_500);
    b.label(Layer::Metal1, Point::new(d.x, d.y + 11_000), "d");

    let cell = b.finish();
    let mut lib = Library::new("l2rfm");
    lib.add_cell(cell);
    let flat = lib.flatten("l2rfm_mos").expect("cell exists");
    let netlist =
        connectivity::extract(&flat, tech, &ExtractOptions::default()).expect("clean cell");
    let lift_options = LiftOptions {
        ports: vec!["g".into(), "s".into(), "d".into()],
        // Same probability threshold as the global pass: local patterns
        // too unlikely to matter (e.g. opening a doubled S/D contact
        // pair with one spot defect) drop out here, pre-layout.
        p_min: 3e-8,
        ..LiftOptions::default()
    };
    let result = extract_faults(&netlist, tech, &lift_options);

    let mut mos_shorts = HashSet::new();
    let mut mos_opens = HashSet::new();
    let canonical_pair = |a: &str, b: &str| {
        let mut pair = [terminal_letter(a), terminal_letter(b)];
        pair.sort_unstable();
        format!("{}{}", pair[0], pair[1])
    };
    for f in &result.faults {
        match (&f.class, &f.fault.effect) {
            (LiftFaultClass::Bridge, FaultEffect::Short { a, b }) => {
                let (ta, tb) = (terminal_letter(a), terminal_letter(b));
                if ta != '?' && tb != '?' {
                    mos_shorts.insert(canonical_pair(a, b));
                    let _ = (ta, tb);
                }
            }
            (LiftFaultClass::StuckOpen, FaultEffect::OpenTerminal { terminal, .. }) => {
                let letter = match terminal {
                    0 => "d",
                    1 => "g",
                    2 => "s",
                    _ => "?",
                };
                mos_opens.insert(letter.to_string());
            }
            _ => {}
        }
    }
    LocalFaultPatterns {
        mos_shorts,
        mos_opens,
    }
}

fn terminal_letter(net: &str) -> char {
    match net {
        "g" | "d" | "s" => net.chars().next().expect("single letter"),
        _ => '?',
    }
}

/// Filters a schematic-complete fault list down to the locally
/// realistic subset (the paper's Fig. 1 middle stage).
pub fn apply_patterns(faults: &[Fault], patterns: &LocalFaultPatterns) -> Vec<Fault> {
    faults
        .iter()
        .filter(|f| keep(f, patterns))
        .cloned()
        .collect()
}

fn keep(f: &Fault, patterns: &LocalFaultPatterns) -> bool {
    match &f.effect {
        FaultEffect::ElementShort { element, t1, t2 } if element.starts_with('M') => {
            let pair = match (t1.min(t2), t1.max(t2)) {
                (0, 1) => "dg",
                (0, 2) => "ds",
                (1, 2) => "gs",
                _ => return true,
            };
            // Normalise to sorted letters used by characterise_mos.
            let sorted: String = {
                let mut cs: Vec<char> = pair.chars().collect();
                cs.sort_unstable();
                cs.into_iter().collect()
            };
            patterns.mos_shorts.contains(&sorted)
        }
        FaultEffect::OpenTerminal { element, terminal } if element.starts_with('M') => {
            let letter = match terminal {
                0 => "d",
                1 => "g",
                2 => "s",
                _ => return true,
            };
            patterns.mos_opens.contains(letter)
        }
        _ => true, // capacitors and non-element faults pass through
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lift::schematic::schematic_faults;

    #[test]
    fn single_mos_patterns_are_physical() {
        let tech = Technology::generic_1um();
        let p = characterise_mos(&tech);
        // The drain-source bridge across a 1 µm channel is always
        // realistic.
        assert!(p.mos_shorts.contains("ds"), "{:?}", p.mos_shorts);
        // Gate open (poly riser / contact) is realistic.
        assert!(p.mos_opens.contains("g"), "{:?}", p.mos_opens);
        // Everything extracted is one of the known patterns.
        for s in &p.mos_shorts {
            assert!(["dg", "ds", "gs"].contains(&s.as_str()), "{s}");
        }
    }

    #[test]
    fn applying_patterns_reduces_the_vco_list() {
        let tech = Technology::generic_1um();
        let patterns = characterise_mos(&tech);
        let all = schematic_faults(&vco::vco_schematic()).all();
        let reduced = apply_patterns(&all, &patterns);
        assert!(reduced.len() <= all.len());
        assert!(
            !reduced.is_empty(),
            "local mapping must keep the realistic core"
        );
        // Capacitor faults are untouched by MOS patterns.
        assert!(reduced.iter().any(|f| f.label.contains("C1")));
    }
}
