//! Workload inputs: the seeded fault-list permutations, the front end
//! that produces the fig5 VCO testbench and LIFT fault list, and the
//! campaign configurations of each workload.

use crate::trace;
use anafault::{BatchMode, Campaign, CampaignSpec, DetectionSpec, Fault, HardFaultModel};
use defect::SizeDistribution;
use extract::ExtractOptions;
use lift::LiftOptions;
use spice::tran::TranSpec;
use spice::Circuit;
use vco::{TestbenchParams, OBSERVED_NODE};

/// Distinct fault-list orders a run cycles through. Flows follow the
/// orders in turn, so a run's medians cover several schedules of the
/// same faults, and a run long enough to come back to an order repeats
/// that order's work exactly.
pub const ORDERS: u64 = 8;

/// SplitMix64: a small deterministic generator, so inputs depend only
/// on the seed and not on any library's sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Fault-list order number `order` of `seed`: a Fisher–Yates shuffle
/// of `0..n`.
pub fn permutation(n: usize, seed: u64, order: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, order);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// `faults` in the order `perm`.
pub fn permuted(faults: &[Fault], perm: &[usize]) -> Vec<Fault> {
    perm.iter().map(|&i| faults[i].clone()).collect()
}

/// The LIFT settings of the paper experiments: Tab. 1 densities,
/// 1–10 µm defect sizes, p_min = 3·10⁻⁸.
fn lift_options() -> LiftOptions {
    LiftOptions {
        ports: vec!["vdd".into(), "0".into(), "1".into(), "11".into()],
        size_dist: SizeDistribution::new(1_000, 10_000),
        p_min: 3e-8,
        ..LiftOptions::default()
    }
}

/// The paper's transient: 10 ns steps over 4 µs from supply turn-on.
pub fn paper_tran() -> TranSpec {
    TranSpec::new(10e-9, 4e-6).with_uic()
}

/// The front end's products: the simulation testbench and the LIFT
/// fault list in LIFT's own order.
pub struct FrontEnd {
    /// Extracted VCO circuit with the fig5 sources attached.
    pub testbench: Circuit,
    /// Realistic fault list.
    pub faults: Vec<Fault>,
}

/// Layout → extraction → LIFT, one span per layer.
pub fn front_end(request: u64) -> FrontEnd {
    let (flat, tech) = {
        let _s = trace::span("layout.build", request);
        vco::vco_layout()
    };
    let options = ExtractOptions::default();
    let (netlist, circuit) = {
        let _s = trace::span("extract", request);
        let netlist = extract::extract(&flat, &tech, &options).expect("the VCO layout extracts");
        let circuit = netlist.to_circuit("extracted", &options);
        (netlist, circuit)
    };
    let faults = {
        let _s = trace::span("lift", request);
        lift::extract_faults(&netlist, &tech, &lift_options()).fault_list()
    };
    let mut testbench = circuit;
    vco::attach_sources(&mut testbench, &TestbenchParams::default());
    FrontEnd { testbench, faults }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig5, full-length scalar simulation of every fault.
    CampaignFull,
    /// fig5 with fault dropping and default batching.
    CampaignDrop,
    /// fig5 fault-dropping campaigns through an in-process daemon,
    /// beside reads of campaigns from an earlier daemon life.
    ServeMixed,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "campaign_full" => Some(Workload::CampaignFull),
            "campaign_drop" => Some(Workload::CampaignDrop),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// Whether the workload's campaigns abandon a fault once detected.
    pub fn early_stop(self) -> bool {
        self != Workload::CampaignFull
    }

    /// The workload's scheduling mode (the daemon never batches).
    pub fn batch(self) -> BatchMode {
        match self {
            Workload::CampaignDrop => BatchMode::Auto,
            _ => BatchMode::Off,
        }
    }

    /// The key under which a flow's work counts must repeat: scalar
    /// faults are simulated independently of each other, so every order
    /// does the same work; batched lanes are grouped in list order, so
    /// only flows over the same order must agree.
    pub fn count_key(self, order: u64) -> u64 {
        match self.batch() {
            BatchMode::Off => 0,
            _ => order,
        }
    }
}

/// A fig5 campaign over `testbench` (source fault model, 2 V / 0.2 µs
/// detection on the VCO output, one thread per core).
pub fn campaign(testbench: Circuit, early_stop: bool, batch: BatchMode) -> Campaign {
    Campaign::builder()
        .testbench(testbench)
        .tran(paper_tran())
        .observe(OBSERVED_NODE)
        .detection(DetectionSpec::paper_fig5())
        .model(HardFaultModel::Source)
        .early_stop(early_stop)
        .batch(batch)
        .build()
        .expect("fig5 campaign settings are complete")
}

/// The fault-dropping fig5 campaign as a submittable spec.
pub fn spec(testbench: &Circuit, faults: Vec<Fault>, client: &str) -> CampaignSpec {
    let tran = paper_tran();
    CampaignSpec {
        netlist: testbench.to_netlist(),
        tstep: tran.tstep,
        tstop: tran.tstop,
        uic: tran.uic,
        observe: vec![OBSERVED_NODE.to_string()],
        detection: DetectionSpec::paper_fig5(),
        model: HardFaultModel::Source,
        early_stop: true,
        record_signatures: false,
        max_faults: None,
        client: Some(client.to_string()),
        faults,
    }
}

/// Sample times of the coverage curve: every 1 % of the test time.
pub fn coverage_samples() -> Vec<f64> {
    (0..=100).map(|i| f64::from(i) / 100.0 * 4e-6).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_gives_the_same_inputs() {
        for seed in [0, 1, 42, u64::MAX] {
            for order in 0..ORDERS {
                assert_eq!(permutation(71, seed, order), permutation(71, seed, order));
            }
        }
        let mut a = Rng::new(9, 1);
        let mut b = Rng::new(9, 1);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn permutations_are_permutations_and_depend_on_the_seed() {
        let p = permutation(71, 5, 0);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..71).collect::<Vec<_>>());
        assert_ne!(p, permutation(71, 6, 0));
        assert_ne!(p, permutation(71, 5, 1));
    }

    #[test]
    fn the_front_end_is_deterministic() {
        let a = front_end(0);
        let b = front_end(0);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.faults.len(), 71);
        // The circuit is the same; only the order of its `.model` lines
        // in the netlist text may differ between builds.
        let lines = |fe: &FrontEnd| {
            let text = fe.testbench.to_netlist();
            let mut lines: Vec<String> = text.lines().map(String::from).collect();
            lines.sort();
            lines
        };
        assert_eq!(lines(&a), lines(&b));
    }
}
