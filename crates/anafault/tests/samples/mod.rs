//! Fixed sample documents shared by the JSON golden tests: one value of
//! every protocol document kind, chosen to cover every effect, outcome
//! and optional field plus awkward strings and floats.

#![allow(dead_code)]

use anafault::campaign::CampaignProgress;
use anafault::coverage::DetectionSpec;
use anafault::inject::HardFaultModel;
use anafault::protocol::{CampaignSpec, DiagnoseRequest};
use anafault::FaultTelemetry;
use anafault::{CampaignResult, CampaignTelemetry, Fault, FaultEffect, FaultOutcome, FaultRecord};
use diagnose::{Candidate, DictionaryEntry, FaultDictionary, FaultSignature, NodeSignature};
use spice::{SolverStats, Wave};
use std::time::Duration;

fn signature(a: [f64; 3], b: [f64; 3], onset: Option<f64>) -> FaultSignature {
    FaultSignature {
        nodes: vec![
            NodeSignature {
                trajectory: a.to_vec(),
                onset,
                peak_deviation: a.iter().fold(0.0_f64, |m, x| m.max(x.abs())),
                steady_state_offset: a[2],
            },
            NodeSignature {
                trajectory: b.to_vec(),
                onset: None,
                peak_deviation: 0.0,
                steady_state_offset: b[2],
            },
        ],
    }
}

fn record(fault: Fault, outcome: FaultOutcome, sim_seconds: f64, iterations: u64) -> FaultRecord {
    FaultRecord {
        fault,
        outcome,
        sim_seconds,
        newton_iterations: iterations,
        telemetry: FaultTelemetry::default(),
        signature: None,
    }
}

/// A result with one record per effect kind and outcome status.
pub fn result() -> CampaignResult {
    let mut first = record(
        Fault::new(
            6,
            "BRI n_ds_short 5->6",
            FaultEffect::Short {
                a: "5".into(),
                b: "6".into(),
            },
        )
        .with_probability(3.2e-8),
        FaultOutcome::Detected {
            at: 0.5e-6,
            node: "11".into(),
        },
        0.01,
        400,
    );
    first.telemetry = FaultTelemetry {
        wall: Duration::from_millis(10),
        steps: 120,
        halvings: 3,
        newton_iterations: 400,
        failed_iterations: 1600,
        solver: SolverStats {
            refactorisations: 123,
            repivots: 1,
            dense_fallbacks: 1,
            demotions: 0,
        },
        early_stopped: true,
        ejected: true,
    };
    first.signature = Some(signature([0.0, 0.5, -0.25], [0.0, 0.0, 0.0], Some(0.5e-6)));
    CampaignResult {
        observed: vec![
            "11".to_string(),
            "out\"quoted\"\\µ\u{1F600}\t\u{1}".to_string(),
        ],
        nominals: vec![
            Wave::new(vec![0.0, 1e-6, 2e-6], vec![-0.0, 5.0, -0.25]),
            Wave::new(vec![0.0, 1e-6], vec![2.2, 1e-300]),
        ],
        records: vec![
            first,
            record(
                Fault::new(
                    7,
                    "SOP M3.g",
                    FaultEffect::OpenTerminal {
                        element: "M3".into(),
                        terminal: 1,
                    },
                ),
                FaultOutcome::NotDetected,
                0.02,
                410,
            ),
            record(
                Fault::new(
                    9,
                    "OPN split 6",
                    FaultEffect::SplitNode {
                        node: "6".into(),
                        move_terminals: vec![("C1".into(), 1), ("M4".into(), 0)],
                    },
                ),
                FaultOutcome::InjectionFailed("unknown node `zz`\nline two".into()),
                0.001,
                0,
            ),
            record(
                Fault::new(
                    10,
                    "BRI R2",
                    FaultEffect::ElementShort {
                        element: "R2".into(),
                        t1: 0,
                        t2: 1,
                    },
                ),
                FaultOutcome::SimulationFailed("tran failed to converge".into()),
                0.5,
                12,
            ),
            record(
                Fault::new(
                    11,
                    "SOFT R1 x1.050",
                    FaultEffect::ParamDeviation {
                        element: "R1".into(),
                        factor: 1.05,
                    },
                )
                .with_probability(1.0),
                FaultOutcome::NotDetected,
                0.015,
                380,
            ),
        ],
        nominal_seconds: 0.01,
        total_seconds: 0.04,
        telemetry: CampaignTelemetry {
            pattern_cache_hits: 146_441,
            pattern_cache_misses: 2,
            pattern_cache_entries: 2,
            early_stops: 1,
            batches: 3,
            batched_faults: 5,
            ejections: 1,
            replayed_faults: 0,
            deduped_faults: 4,
        },
    }
}

/// A result that simulated no faults: `records` is an empty
/// top-level array.
pub fn empty_result() -> CampaignResult {
    CampaignResult {
        observed: vec!["out".to_string()],
        nominals: vec![Wave::new(vec![0.0, 1e-6], vec![0.0, 5.0])],
        records: Vec::new(),
        nominal_seconds: 0.25,
        total_seconds: 0.5,
        telemetry: CampaignTelemetry::default(),
    }
}

/// Progress events for every record of [`result`].
pub fn progress() -> Vec<CampaignProgress> {
    let result = result();
    let total = result.records.len();
    result
        .records
        .into_iter()
        .enumerate()
        .map(|(k, record)| CampaignProgress {
            index: total - 1 - k,
            completed: k + 1,
            total,
            record,
        })
        .collect()
}

/// A spec with every optional field present.
pub fn spec() -> CampaignSpec {
    CampaignSpec {
        netlist: "rc µ-bench\nV1 in 0 pulse(0 5 0 1u 1u 40u 100u)\nR1 in out 10k\n\
                  C1 out 0 1n ic=0\n.end\n"
            .to_string(),
        tstep: 0.5e-6,
        tstop: 50e-6,
        uic: true,
        observe: vec!["out".to_string(), "in".to_string()],
        detection: DetectionSpec {
            v_tol: 1.0,
            t_tol: 1e-6,
        },
        model: HardFaultModel::paper_resistor(),
        early_stop: false,
        record_signatures: true,
        max_faults: Some(8),
        client: Some("ci \"quoted\"".to_string()),
        faults: result().records.into_iter().map(|r| r.fault).collect(),
    }
}

/// A spec with every optional field absent and no faults: `faults` is
/// an empty top-level array.
pub fn minimal_spec() -> CampaignSpec {
    CampaignSpec {
        model: HardFaultModel::Source,
        early_stop: true,
        record_signatures: false,
        max_faults: None,
        client: None,
        faults: Vec::new(),
        uic: false,
        ..spec()
    }
}

/// A two-entry dictionary in two classes.
pub fn dictionary() -> FaultDictionary {
    FaultDictionary {
        observed: vec!["11".to_string(), "out\"quoted\"".to_string()],
        t0: 0.0,
        t1: 2e-6,
        points: 3,
        threshold: 0.05,
        shift_steps: 2,
        nominal: vec![vec![0.0, 5.0, -0.25], vec![2.2, 2.2, 2.2]],
        entries: vec![
            DictionaryEntry {
                fault_id: 6,
                label: "BRI n_ds_short 5->6".to_string(),
                signature: signature([0.0, 0.5, -0.25], [0.0, 0.0, 0.0], Some(0.5e-6)),
            },
            DictionaryEntry {
                fault_id: 10,
                label: "BRI R2".to_string(),
                signature: signature([0.0, -2.0, -2.0], [0.1, 0.1, 0.1], Some(1e-6)),
            },
            DictionaryEntry {
                fault_id: 12,
                label: "BRI R2 twin".to_string(),
                signature: signature([0.0, -2.0, -2.0], [0.1, 0.1, 0.1], Some(1e-6)),
            },
        ],
        classes: vec![vec![0], vec![1, 2]],
    }
}

/// A dictionary without entries: empty `entries` and `classes`.
pub fn empty_dictionary() -> FaultDictionary {
    FaultDictionary {
        entries: Vec::new(),
        classes: Vec::new(),
        ..dictionary()
    }
}

/// A two-wave diagnosis request.
pub fn diagnose_request() -> DiagnoseRequest {
    DiagnoseRequest {
        campaign: "c12".to_string(),
        waves: vec![
            (
                "out\"quoted\"".to_string(),
                Wave::new(vec![0.0, 1e-6, 2e-6], vec![0.0, 5.0, -0.25]),
            ),
            ("11".to_string(), Wave::new(vec![0.0, 1.0], vec![1.0, 2.0])),
        ],
    }
}

/// Ranked candidates, one per ambiguity class.
pub fn candidates() -> Vec<Candidate> {
    vec![
        Candidate {
            class: 4,
            score: 0.125,
            fault_ids: vec![6, 10],
            labels: vec!["BRI n_ds_short 5->6".to_string(), "BRI R2".to_string()],
        },
        Candidate {
            class: 0,
            score: 3.0,
            fault_ids: vec![7],
            labels: vec!["SOP M3.g".to_string()],
        },
    ]
}
