//! Failure mechanisms and their relative defect densities.
//!
//! Reproduces Tab. 1 of the paper: the likely physical failure modes in
//! a digital CMOS process and their densities normalised to the metal-1
//! short density. The table is also parseable from / serialisable to a
//! small text format, mirroring LIFT's "file (default, or user defined)"
//! containing the assumed failure modes.

use layout::Layer;

/// Metal-1 short defect density: 1 defect/cm² (paper §IV, ref \[9\]),
/// expressed per nm².
pub const METAL1_SHORT_DENSITY_PER_NM2: f64 = 1e-14;

/// Whether a mechanism removes material (open) or adds it (short).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// Missing material: line opens, cut opens.
    Open,
    /// Extra material: bridging faults.
    Short,
}

impl core::fmt::Display for FailureClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FailureClass::Open => f.write_str("open"),
            FailureClass::Short => f.write_str("short"),
        }
    }
}

/// A single failure mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mechanism {
    /// Line open on a conductor layer.
    LineOpen(Layer),
    /// Bridging (short) on a conductor layer.
    Bridge(Layer),
    /// Open metal-1-to-diffusion contact (`Al/diff.contacts` in Tab. 1).
    ContactOpenDiff,
    /// Open metal-1-to-poly contact (`m1/poly contacts`).
    ContactOpenPoly,
    /// Open via (metal1/metal2).
    ViaOpen,
}

impl Mechanism {
    /// The failure class of this mechanism.
    pub fn class(&self) -> FailureClass {
        match self {
            Mechanism::Bridge(_) => FailureClass::Short,
            _ => FailureClass::Open,
        }
    }

    /// The layer the defect lands on.
    pub fn layer(&self) -> Layer {
        match self {
            Mechanism::LineOpen(l) | Mechanism::Bridge(l) => *l,
            Mechanism::ContactOpenDiff | Mechanism::ContactOpenPoly => Layer::Contact,
            Mechanism::ViaOpen => Layer::Via1,
        }
    }

    /// The short lowercase identifier used in fault names and the
    /// mechanism file (`metal1_short`, `poly_open`, `via_open`, …).
    pub fn id(&self) -> String {
        match self {
            Mechanism::LineOpen(l) => format!("{}_open", l.short_name()),
            Mechanism::Bridge(l) => format!("{}_short", l.short_name()),
            Mechanism::ContactOpenDiff => "cont_diff_open".to_string(),
            Mechanism::ContactOpenPoly => "cont_poly_open".to_string(),
            Mechanism::ViaOpen => "via_open".to_string(),
        }
    }

    /// Reverse of [`Mechanism::id`].
    pub fn from_id(id: &str) -> Option<Mechanism> {
        let all = MechanismTable::paper_defaults();
        all.entries().iter().map(|(m, _)| *m).find(|m| m.id() == id)
    }
}

/// A table of mechanisms with relative densities (normalised to the
/// metal-1 short density).
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismTable {
    entries: Vec<(Mechanism, f64)>,
}

impl MechanismTable {
    /// The default table: Tab. 1 of the paper, verbatim.
    ///
    /// | layer | failure | relative density |
    /// |---|---|---|
    /// | diffusion | open / short | 0.01 / 1.00 |
    /// | polysilicon | open / short | 0.25 / 1.25 |
    /// | metal 1 | open / short | 0.01 / 1.00 |
    /// | metal 2 | open / short | 0.02 / 1.50 |
    /// | Al/diff contacts | open | 0.66 |
    /// | m1/poly contacts | open | 0.67 |
    /// | vias | open | 0.80 |
    pub fn paper_defaults() -> Self {
        MechanismTable {
            entries: vec![
                (Mechanism::LineOpen(Layer::Active), 0.01),
                (Mechanism::Bridge(Layer::Active), 1.00),
                (Mechanism::LineOpen(Layer::Poly), 0.25),
                (Mechanism::Bridge(Layer::Poly), 1.25),
                (Mechanism::LineOpen(Layer::Metal1), 0.01),
                (Mechanism::Bridge(Layer::Metal1), 1.00),
                (Mechanism::LineOpen(Layer::Metal2), 0.02),
                (Mechanism::Bridge(Layer::Metal2), 1.50),
                (Mechanism::ContactOpenDiff, 0.66),
                (Mechanism::ContactOpenPoly, 0.67),
                (Mechanism::ViaOpen, 0.80),
            ],
        }
    }

    /// All `(mechanism, relative density)` entries.
    pub fn entries(&self) -> &[(Mechanism, f64)] {
        &self.entries
    }

    /// The relative density of `mechanism` (0 when absent: mechanism
    /// disabled).
    pub fn relative_density(&self, mechanism: Mechanism) -> f64 {
        self.entries
            .iter()
            .find(|(m, _)| *m == mechanism)
            .map(|(_, d)| *d)
            .unwrap_or(0.0)
    }

    /// The absolute density of `mechanism` in defects per nm².
    pub fn absolute_density(&self, mechanism: Mechanism) -> f64 {
        self.relative_density(mechanism) * METAL1_SHORT_DENSITY_PER_NM2
    }

    /// Overrides (or adds) a mechanism's relative density — the "user
    /// defined" path of the paper's mechanism file.
    pub fn set(&mut self, mechanism: Mechanism, relative_density: f64) {
        match self.entries.iter_mut().find(|(m, _)| *m == mechanism) {
            Some(e) => e.1 = relative_density,
            None => self.entries.push((mechanism, relative_density)),
        }
    }

    /// Serialises as the mechanism file format: one `id density` pair
    /// per line, `#` comments allowed.
    pub fn to_file_format(&self) -> String {
        let mut s = String::from("# LIFT failure mechanism file (relative densities)\n");
        for (m, d) in &self.entries {
            s.push_str(&format!("{} {}\n", m.id(), d));
        }
        s
    }

    /// Parses the mechanism file format.
    ///
    /// # Errors
    /// Returns a message naming the offending line on unknown mechanism
    /// ids or bad numbers.
    pub fn from_file_format(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let id = parts.next().expect("non-empty line");
            let density: f64 = parts
                .next()
                .ok_or_else(|| format!("line {}: missing density", i + 1))?
                .parse()
                .map_err(|_| format!("line {}: bad density", i + 1))?;
            let mech = Mechanism::from_id(id)
                .ok_or_else(|| format!("line {}: unknown mechanism `{id}`", i + 1))?;
            entries.push((mech, density));
        }
        Ok(MechanismTable { entries })
    }
}

impl Default for MechanismTable {
    fn default() -> Self {
        MechanismTable::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_values() {
        let t = MechanismTable::paper_defaults();
        assert_eq!(t.relative_density(Mechanism::Bridge(Layer::Metal1)), 1.00);
        assert_eq!(t.relative_density(Mechanism::Bridge(Layer::Metal2)), 1.50);
        assert_eq!(t.relative_density(Mechanism::Bridge(Layer::Poly)), 1.25);
        assert_eq!(t.relative_density(Mechanism::LineOpen(Layer::Active)), 0.01);
        assert_eq!(t.relative_density(Mechanism::ContactOpenDiff), 0.66);
        assert_eq!(t.relative_density(Mechanism::ContactOpenPoly), 0.67);
        assert_eq!(t.relative_density(Mechanism::ViaOpen), 0.80);
        assert_eq!(t.entries().len(), 11);
    }

    #[test]
    fn shorts_dominate_opens() {
        // The beta/alpha ratio the paper quotes as ~100 for positive
        // photoresist lines: shorts far denser than opens per layer.
        let t = MechanismTable::paper_defaults();
        for layer in [Layer::Active, Layer::Metal1, Layer::Metal2] {
            let b = t.relative_density(Mechanism::Bridge(layer));
            let a = t.relative_density(Mechanism::LineOpen(layer));
            assert!(b / a >= 50.0, "{layer}: beta/alpha = {}", b / a);
        }
    }

    #[test]
    fn absolute_density_scale() {
        let t = MechanismTable::paper_defaults();
        // metal1 short: 1 defect/cm² = 1e-14 /nm².
        assert_eq!(t.absolute_density(Mechanism::Bridge(Layer::Metal1)), 1e-14);
    }

    #[test]
    fn file_round_trip() {
        let t = MechanismTable::paper_defaults();
        let text = t.to_file_format();
        let back = MechanismTable::from_file_format(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn file_parse_errors() {
        assert!(MechanismTable::from_file_format("bogus_mech 1.0").is_err());
        assert!(MechanismTable::from_file_format("metal1_short notanumber").is_err());
        assert!(MechanismTable::from_file_format("metal1_short").is_err());
        // Comments and blanks are fine.
        let ok = MechanismTable::from_file_format("# comment\n\nmetal1_short 2.0\n").unwrap();
        assert_eq!(ok.relative_density(Mechanism::Bridge(Layer::Metal1)), 2.0);
    }

    #[test]
    fn user_override() {
        let mut t = MechanismTable::paper_defaults();
        t.set(Mechanism::Bridge(Layer::Metal1), 3.0);
        assert_eq!(t.relative_density(Mechanism::Bridge(Layer::Metal1)), 3.0);
    }

    #[test]
    fn mechanism_ids_round_trip() {
        for (m, _) in MechanismTable::paper_defaults().entries() {
            assert_eq!(Mechanism::from_id(&m.id()), Some(*m), "{}", m.id());
        }
    }
}
