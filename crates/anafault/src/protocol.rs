//! Machine-readable protocol files.
//!
//! The paper's AnaFAULT writes a per-fault protocol file; this module
//! is its machine-readable counterpart: [`CampaignResult`] (and every
//! [`FaultRecord`] inside it) serializes to a self-contained JSON
//! document and parses back without loss. The campaign service's other
//! documents live here too: specs, NDJSON stream and checkpoint lines,
//! fault dictionaries, diagnosis requests and candidates. Each kind is
//! one writer/reader pair over the [`Json`] tree of the workspace's one
//! JSON layer, [`cat_telemetry::json`] (re-exported here: [`Json`],
//! [`parse_json`], [`ProtocolError`]), which owns layout, number
//! spelling and parsing.

use crate::campaign::{
    Campaign, CampaignProgress, CampaignResult, CampaignTelemetry, FaultOutcome, FaultRecord,
    FaultTelemetry,
};
use crate::coverage::DetectionSpec;
use crate::fault::{Fault, FaultEffect};
use crate::inject::HardFaultModel;
pub use cat_telemetry::json::{parse_json, Json, ProtocolError};
use diagnose::{Candidate, DictionaryEntry, FaultDictionary, FaultSignature, NodeSignature};
use spice::{SolverStats, Wave};
use std::collections::BTreeSet;
use std::time::Duration;

/// Schema version stamped into every protocol file.
pub const PROTOCOL_VERSION: u64 = 1;

fn schema_err(message: impl Into<String>) -> ProtocolError {
    ProtocolError::Schema(message.into())
}

/// Reads a string array (observed-node lists).
fn strings_from_json(v: &Json) -> Result<Vec<String>, ProtocolError> {
    v.map_array(|v| v.as_str().map(str::to_string))
}

/// Reads a counter that postdates the first telemetry schema: absent in
/// older captures, so it defaults to zero instead of erroring.
fn opt_u64(v: &Json, key: &str) -> Result<u64, ProtocolError> {
    v.get(key).map_or(Ok(0), |j| j.as_u64())
}

/// Same back-compat rule for a boolean flag (absent ⇒ `false`).
fn opt_bool(v: &Json, key: &str) -> Result<bool, ProtocolError> {
    v.get(key).map_or(Ok(false), |j| j.as_bool())
}

// ---------------------------------------------------------------------
// Campaign results
// ---------------------------------------------------------------------

/// Serializes a campaign result to the JSON protocol document.
pub fn to_json(result: &CampaignResult) -> String {
    result_json(result).to_document()
}

/// Parses a JSON protocol document back into a [`CampaignResult`].
///
/// # Errors
/// [`ProtocolError::Parse`] on malformed JSON, [`ProtocolError::Schema`]
/// when the document does not match the protocol schema.
pub fn from_json(text: &str) -> Result<CampaignResult, ProtocolError> {
    result_from_json(&parse_json(text)?)
}

fn result_json(result: &CampaignResult) -> Json {
    Json::object([
        ("version", PROTOCOL_VERSION.into()),
        ("observed", result.observed.as_slice().into()),
        ("nominal_seconds", result.nominal_seconds.into()),
        ("total_seconds", result.total_seconds.into()),
        ("telemetry", campaign_telemetry_json(&result.telemetry)),
        ("nominals", result.nominals.iter().map(wave_json).collect()),
        ("records", result.records.iter().map(record_json).collect()),
    ])
}

/// The back half of [`from_json`], shared with the NDJSON stream
/// terminator in [`event_from_json`].
fn result_from_json(doc: &Json) -> Result<CampaignResult, ProtocolError> {
    let version = doc.field("version")?.as_usize()?;
    if version as u64 != PROTOCOL_VERSION {
        return Err(schema_err(format!(
            "unsupported protocol version {version}"
        )));
    }
    let observed = strings_from_json(doc.field("observed")?)?;
    let nominals: Vec<Wave> = doc.field("nominals")?.map_array(wave_from_json)?;
    if observed.is_empty() || observed.len() != nominals.len() {
        return Err(schema_err("observed/nominals mismatch"));
    }
    let records: Vec<FaultRecord> = doc.field("records")?.map_array(record_from_json)?;
    Ok(CampaignResult {
        observed,
        nominals,
        records,
        nominal_seconds: doc.field("nominal_seconds")?.as_f64()?,
        total_seconds: doc.field("total_seconds")?.as_f64()?,
        telemetry: campaign_telemetry_from_json(doc.get("telemetry"))?,
    })
}

fn campaign_telemetry_json(t: &CampaignTelemetry) -> Json {
    Json::object([
        ("pattern_cache_hits", t.pattern_cache_hits.into()),
        ("pattern_cache_misses", t.pattern_cache_misses.into()),
        ("pattern_cache_entries", t.pattern_cache_entries.into()),
        ("early_stops", t.early_stops.into()),
        ("batches", t.batches.into()),
        ("batched_faults", t.batched_faults.into()),
        ("ejections", t.ejections.into()),
        ("replayed_faults", t.replayed_faults.into()),
        ("deduped_faults", t.deduped_faults.into()),
    ])
}

/// Campaign-level telemetry is *optional* in the document — protocol
/// files captured before the telemetry layer existed parse to
/// [`CampaignTelemetry::default`].
fn campaign_telemetry_from_json(v: Option<&Json>) -> Result<CampaignTelemetry, ProtocolError> {
    let Some(v) = v else {
        return Ok(CampaignTelemetry::default());
    };
    Ok(CampaignTelemetry {
        pattern_cache_hits: v.field("pattern_cache_hits")?.as_u64()?,
        pattern_cache_misses: v.field("pattern_cache_misses")?.as_u64()?,
        pattern_cache_entries: v.field("pattern_cache_entries")?.as_usize()?,
        early_stops: v.field("early_stops")?.as_u64()?,
        batches: opt_u64(v, "batches")?,
        batched_faults: opt_u64(v, "batched_faults")?,
        ejections: opt_u64(v, "ejections")?,
        replayed_faults: opt_u64(v, "replayed_faults")?,
        deduped_faults: opt_u64(v, "deduped_faults")?,
    })
}

fn wave_json(wave: &Wave) -> Json {
    Json::object([
        ("times", wave.times().into()),
        ("values", wave.values().into()),
    ])
}

fn wave_from_json(v: &Json) -> Result<Wave, ProtocolError> {
    let times = v.field("times")?.as_f64_array()?;
    let values = v.field("values")?.as_f64_array()?;
    if times.len() != values.len() || !times.windows(2).all(|w| w[0] < w[1]) {
        return Err(schema_err("malformed waveform"));
    }
    Ok(Wave::new(times, values))
}

fn record_json(record: &FaultRecord) -> Json {
    let mut members = vec![
        ("fault", fault_json(&record.fault)),
        ("outcome", outcome_json(&record.outcome)),
        ("sim_seconds", record.sim_seconds.into()),
        ("newton_iterations", record.newton_iterations.into()),
        ("telemetry", fault_telemetry_json(&record.telemetry)),
    ];
    if let Some(signature) = &record.signature {
        members.push(("signature", signature_json(signature)));
    }
    Json::object(members)
}

fn record_from_json(v: &Json) -> Result<FaultRecord, ProtocolError> {
    Ok(FaultRecord {
        fault: fault_from_json(v.field("fault")?)?,
        outcome: outcome_from_json(v.field("outcome")?)?,
        sim_seconds: v.field("sim_seconds")?.as_f64()?,
        newton_iterations: v.field("newton_iterations")?.as_u64()?,
        telemetry: fault_telemetry_from_json(v.get("telemetry"))?,
        // Signatures postdate the first record schema: absent (or null)
        // in signature-less captures, so they parse to `None`.
        signature: match v.get("signature") {
            None | Some(Json::Null) => None,
            Some(s) => Some(signature_from_json(s)?),
        },
    })
}

fn signature_json(signature: &FaultSignature) -> Json {
    let nodes = signature.nodes.iter().map(|node| {
        Json::object([
            ("trajectory", node.trajectory.as_slice().into()),
            ("onset", node.onset.into()),
            ("peak_deviation", node.peak_deviation.into()),
            ("steady_state_offset", node.steady_state_offset.into()),
        ])
    });
    Json::object([("nodes", nodes.collect())])
}

fn signature_from_json(v: &Json) -> Result<FaultSignature, ProtocolError> {
    let nodes = v.field("nodes")?.map_array(|node| {
        Ok(NodeSignature {
            trajectory: node.field("trajectory")?.as_f64_array()?,
            onset: match node.field("onset")? {
                Json::Null => None,
                t => Some(t.as_f64()?),
            },
            peak_deviation: node.field("peak_deviation")?.as_f64()?,
            steady_state_offset: node.field("steady_state_offset")?.as_f64()?,
        })
    })?;
    Ok(FaultSignature { nodes })
}

fn fault_telemetry_json(t: &FaultTelemetry) -> Json {
    Json::object([
        ("wall_seconds", t.wall.as_secs_f64().into()),
        ("steps", t.steps.into()),
        ("halvings", t.halvings.into()),
        ("newton_iterations", t.newton_iterations.into()),
        ("failed_iterations", t.failed_iterations.into()),
        ("refactorisations", t.solver.refactorisations.into()),
        ("repivots", t.solver.repivots.into()),
        ("dense_fallbacks", t.solver.dense_fallbacks.into()),
        ("demotions", t.solver.demotions.into()),
        ("early_stopped", t.early_stopped.into()),
        ("ejected", t.ejected.into()),
    ])
}

/// Per-record telemetry is *optional* for the same reason as the
/// campaign-level object.
fn fault_telemetry_from_json(v: Option<&Json>) -> Result<FaultTelemetry, ProtocolError> {
    let Some(v) = v else {
        return Ok(FaultTelemetry::default());
    };
    let wall = Duration::try_from_secs_f64(v.field("wall_seconds")?.as_f64()?)
        .map_err(|_| schema_err("wall_seconds must be a finite, non-negative duration"))?;
    Ok(FaultTelemetry {
        wall,
        steps: v.field("steps")?.as_u64()?,
        halvings: v.field("halvings")?.as_u64()?,
        newton_iterations: v.field("newton_iterations")?.as_u64()?,
        failed_iterations: opt_u64(v, "failed_iterations")?,
        solver: SolverStats {
            refactorisations: v.field("refactorisations")?.as_u64()?,
            repivots: v.field("repivots")?.as_u64()?,
            dense_fallbacks: v.field("dense_fallbacks")?.as_u64()?,
            demotions: v.field("demotions")?.as_u64()?,
        },
        early_stopped: v.field("early_stopped")?.as_bool()?,
        ejected: opt_bool(v, "ejected")?,
    })
}

fn fault_json(fault: &Fault) -> Json {
    Json::object([
        ("id", fault.id.into()),
        ("label", fault.label.as_str().into()),
        ("probability", fault.probability.into()),
        ("effect", effect_json(&fault.effect)),
    ])
}

fn fault_from_json(v: &Json) -> Result<Fault, ProtocolError> {
    let mut fault = Fault::new(
        v.field("id")?.as_usize()?,
        v.field("label")?.as_str()?,
        effect_from_json(v.field("effect")?)?,
    );
    match v.field("probability")? {
        Json::Null => {}
        p => fault = fault.with_probability(p.as_f64()?),
    }
    Ok(fault)
}

fn effect_json(effect: &FaultEffect) -> Json {
    match effect {
        FaultEffect::Short { a, b } => Json::object([
            ("kind", "short".into()),
            ("a", a.as_str().into()),
            ("b", b.as_str().into()),
        ]),
        FaultEffect::ElementShort { element, t1, t2 } => Json::object([
            ("kind", "element_short".into()),
            ("element", element.as_str().into()),
            ("t1", (*t1).into()),
            ("t2", (*t2).into()),
        ]),
        FaultEffect::OpenTerminal { element, terminal } => Json::object([
            ("kind", "open_terminal".into()),
            ("element", element.as_str().into()),
            ("terminal", (*terminal).into()),
        ]),
        FaultEffect::SplitNode {
            node,
            move_terminals,
        } => {
            let moves = move_terminals
                .iter()
                .map(|(e, t)| Json::from_iter([e.as_str().into(), (*t).into()]));
            Json::object([
                ("kind", "split_node".into()),
                ("node", node.as_str().into()),
                ("move_terminals", moves.collect()),
            ])
        }
        FaultEffect::ParamDeviation { element, factor } => Json::object([
            ("kind", "param_deviation".into()),
            ("element", element.as_str().into()),
            ("factor", (*factor).into()),
        ]),
    }
}

fn effect_from_json(v: &Json) -> Result<FaultEffect, ProtocolError> {
    let string =
        |key: &str| -> Result<String, ProtocolError> { Ok(v.field(key)?.as_str()?.to_string()) };
    match v.field("kind")?.as_str()? {
        "short" => Ok(FaultEffect::Short {
            a: string("a")?,
            b: string("b")?,
        }),
        "element_short" => Ok(FaultEffect::ElementShort {
            element: string("element")?,
            t1: v.field("t1")?.as_usize()?,
            t2: v.field("t2")?.as_usize()?,
        }),
        "open_terminal" => Ok(FaultEffect::OpenTerminal {
            element: string("element")?,
            terminal: v.field("terminal")?.as_usize()?,
        }),
        "split_node" => {
            let move_terminals = v.field("move_terminals")?.map_array(|pair| {
                let pair = pair.as_array()?;
                if pair.len() != 2 {
                    return Err(schema_err("move_terminals entries are [element, terminal]"));
                }
                Ok((pair[0].as_str()?.to_string(), pair[1].as_usize()?))
            })?;
            Ok(FaultEffect::SplitNode {
                node: string("node")?,
                move_terminals,
            })
        }
        "param_deviation" => Ok(FaultEffect::ParamDeviation {
            element: string("element")?,
            factor: v.field("factor")?.as_f64()?,
        }),
        kind => Err(schema_err(format!("unknown effect kind `{kind}`"))),
    }
}

fn outcome_json(outcome: &FaultOutcome) -> Json {
    match outcome {
        FaultOutcome::Detected { at, node } => Json::object([
            ("status", "detected".into()),
            ("at", (*at).into()),
            ("node", node.as_str().into()),
        ]),
        FaultOutcome::NotDetected => Json::object([("status", "not_detected".into())]),
        FaultOutcome::InjectionFailed(m) => Json::object([
            ("status", "injection_failed".into()),
            ("message", m.as_str().into()),
        ]),
        FaultOutcome::SimulationFailed(m) => Json::object([
            ("status", "simulation_failed".into()),
            ("message", m.as_str().into()),
        ]),
    }
}

fn outcome_from_json(v: &Json) -> Result<FaultOutcome, ProtocolError> {
    let message =
        || -> Result<String, ProtocolError> { Ok(v.field("message")?.as_str()?.to_string()) };
    match v.field("status")?.as_str()? {
        "detected" => Ok(FaultOutcome::Detected {
            at: v.field("at")?.as_f64()?,
            node: v.field("node")?.as_str()?.to_string(),
        }),
        "not_detected" => Ok(FaultOutcome::NotDetected),
        "injection_failed" => Ok(FaultOutcome::InjectionFailed(message()?)),
        "simulation_failed" => Ok(FaultOutcome::SimulationFailed(message()?)),
        status => Err(schema_err(format!("unknown outcome status `{status}`"))),
    }
}

// ---------------------------------------------------------------------
// Campaign specification documents
// ---------------------------------------------------------------------

/// Schema version stamped into every campaign-spec document.
pub const SPEC_VERSION: u64 = 1;

/// A self-contained, serializable campaign request: everything a
/// service front-end needs to rebuild and run a [`Campaign`] — the
/// testbench as netlist text, the transient window, observed nodes,
/// detection tolerances, fault model, execution knobs and the fault
/// list itself. This is what clients `POST` to `anafault-serve` and
/// what the daemon persists to its state directory so an interrupted
/// campaign can be rebuilt after a restart.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// The fault-free testbench circuit, as netlist text
    /// ([`spice::Circuit::to_netlist`] round-trips through the parser).
    pub netlist: String,
    /// Transient timestep (s).
    pub tstep: f64,
    /// Transient stop time (s).
    pub tstop: f64,
    /// Start from the netlist's initial conditions (`uic`).
    pub uic: bool,
    /// Observed output nodes (any-detect).
    pub observe: Vec<String>,
    /// Detection tolerances.
    pub detection: DetectionSpec,
    /// Hard fault model.
    pub model: HardFaultModel,
    /// Abandon each faulty transient at first detection.
    pub early_stop: bool,
    /// Record a diagnosis [`FaultSignature`] per simulated fault
    /// (forces full-length scalar simulation).
    pub record_signatures: bool,
    /// Fault budget: simulate at most this many faults from the head
    /// of the list.
    pub max_faults: Option<usize>,
    /// Client identity for the server's per-client fault budgets;
    /// anonymous submissions share one bucket.
    pub client: Option<String>,
    /// The faults to simulate, in ranked order.
    pub faults: Vec<Fault>,
}

impl CampaignSpec {
    /// Serializes the spec to its JSON document. The optional fields
    /// (`record_signatures` when off, `max_faults`, `client`) are
    /// omitted rather than written as defaults, so older readers keep
    /// parsing the document.
    pub fn to_json(&self) -> String {
        let mut members = vec![
            ("spec_version", SPEC_VERSION.into()),
            ("netlist", self.netlist.as_str().into()),
            (
                "tran",
                Json::object([
                    ("tstep", self.tstep.into()),
                    ("tstop", self.tstop.into()),
                    ("uic", self.uic.into()),
                ]),
            ),
            ("observe", self.observe.as_slice().into()),
            (
                "detection",
                Json::object([
                    ("v_tol", self.detection.v_tol.into()),
                    ("t_tol", self.detection.t_tol.into()),
                ]),
            ),
            ("model", model_json(&self.model)),
            ("early_stop", self.early_stop.into()),
        ];
        if self.record_signatures {
            members.push(("record_signatures", true.into()));
        }
        if let Some(max) = self.max_faults {
            members.push(("max_faults", max.into()));
        }
        if let Some(client) = &self.client {
            members.push(("client", client.as_str().into()));
        }
        members.push(("faults", self.faults.iter().map(fault_json).collect()));
        Json::object(members).to_document()
    }

    /// Parses and validates a campaign-spec document.
    ///
    /// # Errors
    /// [`ProtocolError::Parse`] on malformed JSON,
    /// [`ProtocolError::Schema`] when the document does not match the
    /// spec schema or carries non-physical values (non-positive
    /// transient window, no observed nodes).
    pub fn from_json(text: &str) -> Result<CampaignSpec, ProtocolError> {
        let doc = parse_json(text)?;
        let version = doc.field("spec_version")?.as_usize()?;
        if version as u64 != SPEC_VERSION {
            return Err(schema_err(format!("unsupported spec version {version}")));
        }
        let tran = doc.field("tran")?;
        let tstep = tran.field("tstep")?.as_f64()?;
        let tstop = tran.field("tstop")?.as_f64()?;
        if !(tstep.is_finite() && tstop.is_finite()) || tstep <= 0.0 || tstop < tstep {
            return Err(schema_err(
                "transient window needs 0 < tstep <= tstop, both finite",
            ));
        }
        let observe = strings_from_json(doc.field("observe")?)?;
        if observe.is_empty() {
            return Err(schema_err("spec observes no nodes"));
        }
        let detection = doc.field("detection")?;
        let spec = CampaignSpec {
            netlist: doc.field("netlist")?.as_str()?.to_string(),
            tstep,
            tstop,
            uic: tran.field("uic")?.as_bool()?,
            observe,
            detection: DetectionSpec {
                v_tol: detection.field("v_tol")?.as_f64()?,
                t_tol: detection.field("t_tol")?.as_f64()?,
            },
            model: model_from_json(doc.field("model")?)?,
            early_stop: opt_bool(&doc, "early_stop")?,
            record_signatures: opt_bool(&doc, "record_signatures")?,
            max_faults: match doc.get("max_faults") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_usize()?),
            },
            client: match doc.get("client") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_str()?.to_string()),
            },
            faults: doc.field("faults")?.map_array(fault_from_json)?,
        };
        Ok(spec)
    }

    /// Rebuilds the executable [`Campaign`] this spec describes: parses
    /// the netlist and assembles the builder. The spec's fault list and
    /// budget are *not* consumed here — open a session over
    /// [`CampaignSpec::faults`] (the builder carries the budget).
    ///
    /// # Errors
    /// [`ProtocolError::Schema`] when the netlist does not parse or the
    /// configuration is incomplete.
    pub fn build_campaign(&self) -> Result<Campaign, ProtocolError> {
        let circuit = spice::parser::parse_netlist(&self.netlist)
            .map_err(|e| schema_err(format!("spec netlist does not parse: {e}")))?;
        let mut tran = spice::tran::TranSpec::new(self.tstep, self.tstop);
        if self.uic {
            tran = tran.with_uic();
        }
        let mut builder = Campaign::builder()
            .testbench(circuit)
            .tran(tran)
            .observe_nodes(self.observe.iter().cloned())
            .detection(self.detection)
            .model(self.model)
            .early_stop(self.early_stop)
            .record_signatures(self.record_signatures);
        if let Some(max) = self.max_faults {
            builder = builder.max_faults(max);
        }
        builder
            .build()
            .map_err(|e| schema_err(format!("spec does not configure a campaign: {e}")))
    }

    /// Removes faults whose *effect* duplicates an earlier entry (same
    /// model kind and the same nodes/terminals — the canonical effect
    /// serialization is the comparison key). The first occurrence wins,
    /// keeping the ranked order; labels and ids of later duplicates are
    /// dropped with them. Returns the number of entries trimmed, which
    /// the daemon records as `CampaignTelemetry::deduped_faults`.
    pub fn dedup_faults(&mut self) -> u64 {
        let before = self.faults.len();
        let mut seen = BTreeSet::new();
        self.faults
            .retain(|f| seen.insert(effect_json(&f.effect).to_string()));
        (before - self.faults.len()) as u64
    }
}

fn model_json(model: &HardFaultModel) -> Json {
    match model {
        HardFaultModel::Resistor { r_short, r_open } => Json::object([
            ("kind", "resistor".into()),
            ("r_short", (*r_short).into()),
            ("r_open", (*r_open).into()),
        ]),
        HardFaultModel::Source => Json::object([("kind", "source".into())]),
    }
}

fn model_from_json(v: &Json) -> Result<HardFaultModel, ProtocolError> {
    match v.field("kind")?.as_str()? {
        "resistor" => Ok(HardFaultModel::Resistor {
            r_short: v.field("r_short")?.as_f64()?,
            r_open: v.field("r_open")?.as_f64()?,
        }),
        "source" => Ok(HardFaultModel::Source),
        kind => Err(schema_err(format!("unknown fault model kind `{kind}`"))),
    }
}

// ---------------------------------------------------------------------
// NDJSON event stream
// ---------------------------------------------------------------------

/// One line of a campaign event stream (and of the daemon's checkpoint
/// files): either a per-fault progress event or the terminating full
/// result document.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// A fault completed.
    Progress(CampaignProgress),
    /// The campaign finished; this is the last line of a stream.
    Result(CampaignResult),
}

/// Serializes one progress event as a single NDJSON line (no trailing
/// newline). The embedded record uses the same schema as the `records`
/// array of a protocol document.
pub fn progress_to_json(progress: &CampaignProgress) -> String {
    Json::object([
        ("event", "progress".into()),
        ("index", progress.index.into()),
        ("completed", progress.completed.into()),
        ("total", progress.total.into()),
        ("record", record_json(&progress.record)),
    ])
    .to_string()
}

/// Serializes the stream-terminating result as a single NDJSON line (no
/// trailing newline): the [`to_json`] document in compact form.
pub fn result_event_json(result: &CampaignResult) -> String {
    Json::object([("event", "result".into()), ("result", result_json(result))]).to_string()
}

/// Parses one NDJSON stream (or checkpoint) line.
///
/// # Errors
/// [`ProtocolError::Parse`] on malformed JSON — a torn final checkpoint
/// line surfaces here — and [`ProtocolError::Schema`] on an unknown
/// event kind or a non-conforming payload.
pub fn event_from_json(line: &str) -> Result<StreamEvent, ProtocolError> {
    let doc = parse_json(line)?;
    match doc.field("event")?.as_str()? {
        "progress" => Ok(StreamEvent::Progress(CampaignProgress {
            index: doc.field("index")?.as_usize()?,
            completed: doc.field("completed")?.as_usize()?,
            total: doc.field("total")?.as_usize()?,
            record: record_from_json(doc.field("record")?)?,
        })),
        "result" => Ok(StreamEvent::Result(result_from_json(doc.field("result")?)?)),
        kind => Err(schema_err(format!("unknown stream event `{kind}`"))),
    }
}

// ---------------------------------------------------------------------
// Fault-dictionary and diagnosis documents
// ---------------------------------------------------------------------

/// Schema version stamped into every dictionary document.
pub const DICT_VERSION: u64 = 1;

/// Serializes a fault dictionary to its JSON document. The writer is
/// deterministic: serialize → parse → serialize reproduces the bytes,
/// which the daemon relies on when reloading persisted dictionaries.
pub fn dictionary_to_json(dict: &FaultDictionary) -> String {
    let entries = dict.entries.iter().map(|entry| {
        Json::object([
            ("fault_id", entry.fault_id.into()),
            ("label", entry.label.as_str().into()),
            ("signature", signature_json(&entry.signature)),
        ])
    });
    Json::object([
        ("dict_version", DICT_VERSION.into()),
        ("observed", dict.observed.as_slice().into()),
        ("t0", dict.t0.into()),
        ("t1", dict.t1.into()),
        ("points", dict.points.into()),
        ("threshold", dict.threshold.into()),
        ("shift_steps", dict.shift_steps.into()),
        (
            "nominal",
            dict.nominal
                .iter()
                .map(|row| row.as_slice().into())
                .collect(),
        ),
        ("entries", entries.collect()),
        (
            "classes",
            dict.classes.iter().map(|c| c.as_slice().into()).collect(),
        ),
    ])
    .to_document()
}

/// Parses a dictionary document back into a [`FaultDictionary`].
///
/// Beyond shape, the parser enforces the invariants the matcher leans
/// on: a shared grid (`points` ≥ 2, `t1` > `t0`), one nominal row and
/// one signature node per observed name, every trajectory on the grid,
/// and `classes` forming a partition of the entry indices.
///
/// # Errors
/// [`ProtocolError::Parse`] on malformed JSON, [`ProtocolError::Schema`]
/// on a schema or invariant violation.
pub fn dictionary_from_json(text: &str) -> Result<FaultDictionary, ProtocolError> {
    let doc = parse_json(text)?;
    let version = doc.field("dict_version")?.as_u64()?;
    if version != DICT_VERSION {
        return Err(schema_err(format!(
            "unsupported dictionary version {version}"
        )));
    }
    let observed = strings_from_json(doc.field("observed")?)?;
    if observed.is_empty() {
        return Err(schema_err("dictionary observes no nodes"));
    }
    let t0 = doc.field("t0")?.as_f64()?;
    let t1 = doc.field("t1")?.as_f64()?;
    if !t0.is_finite() || !t1.is_finite() || t1 <= t0 {
        return Err(schema_err("dictionary grid window must satisfy t0 < t1"));
    }
    let points = doc.field("points")?.as_usize()?;
    if points < 2 {
        return Err(schema_err("dictionary grid needs at least two points"));
    }
    let threshold = doc.field("threshold")?.as_f64()?;
    if !threshold.is_finite() || threshold < 0.0 {
        return Err(schema_err("threshold must be finite and non-negative"));
    }
    let shift_steps = doc.field("shift_steps")?.as_usize()?;
    let nominal: Vec<Vec<f64>> = doc.field("nominal")?.map_array(Json::as_f64_array)?;
    if nominal.len() != observed.len() || nominal.iter().any(|row| row.len() != points) {
        return Err(schema_err("nominal rows must match observed × points"));
    }
    let entries: Vec<DictionaryEntry> = doc.field("entries")?.map_array(|v| {
        let signature = signature_from_json(v.field("signature")?)?;
        if signature.nodes.len() != observed.len()
            || signature.nodes.iter().any(|n| n.trajectory.len() != points)
        {
            return Err(schema_err("entry signature off the dictionary grid"));
        }
        Ok(DictionaryEntry {
            fault_id: v.field("fault_id")?.as_usize()?,
            label: v.field("label")?.as_str()?.to_string(),
            signature,
        })
    })?;
    let classes: Vec<Vec<usize>> = doc
        .field("classes")?
        .map_array(|class| class.map_array(Json::as_usize))?;
    let mut seen = vec![false; entries.len()];
    for &index in classes.iter().flatten() {
        if index >= entries.len() || seen[index] {
            return Err(schema_err("classes must partition the entry indices"));
        }
        seen[index] = true;
    }
    if seen.iter().any(|covered| !covered) {
        return Err(schema_err("classes must partition the entry indices"));
    }
    Ok(FaultDictionary {
        observed,
        t0,
        t1,
        points,
        threshold,
        shift_steps,
        nominal,
        entries,
        classes,
    })
}

/// Schema version stamped into every diagnosis request.
pub const DIAGNOSE_VERSION: u64 = 1;

/// A waveform-to-fault matching request: measured waveforms, tagged
/// with the campaign whose dictionary should rank them.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnoseRequest {
    /// Campaign id whose dictionary answers the query.
    pub campaign: String,
    /// Measured `(node, waveform)` pairs; node names must be a subset
    /// of the dictionary's observed nodes.
    pub waves: Vec<(String, Wave)>,
}

impl DiagnoseRequest {
    /// Serializes the request as a single-line JSON document.
    pub fn to_json(&self) -> String {
        let waves = self.waves.iter().map(|(node, wave)| {
            Json::object([
                ("node", node.as_str().into()),
                ("times", wave.times().into()),
                ("values", wave.values().into()),
            ])
        });
        Json::object([
            ("diagnose_version", DIAGNOSE_VERSION.into()),
            ("campaign", self.campaign.as_str().into()),
            ("waves", waves.collect()),
        ])
        .to_string()
    }

    /// Parses a diagnosis request. Waveforms are validated the same way
    /// as protocol nominals (equal lengths, strictly increasing times)
    /// *before* any [`Wave`] is constructed — this parser fronts raw
    /// network input and must reject rather than panic.
    ///
    /// # Errors
    /// [`ProtocolError::Parse`] on malformed JSON, [`ProtocolError::Schema`]
    /// on a version/shape mismatch or a malformed waveform.
    pub fn from_json(text: &str) -> Result<Self, ProtocolError> {
        let doc = parse_json(text)?;
        let version = doc.field("diagnose_version")?.as_u64()?;
        if version != DIAGNOSE_VERSION {
            return Err(schema_err(format!(
                "unsupported diagnose version {version}"
            )));
        }
        let waves = doc.field("waves")?.map_array(|v| {
            let node = v.field("node")?.as_str()?.to_string();
            Ok((node, wave_from_json(v)?))
        })?;
        if waves.is_empty() {
            return Err(schema_err("diagnosis needs at least one waveform"));
        }
        Ok(DiagnoseRequest {
            campaign: doc.field("campaign")?.as_str()?.to_string(),
            waves,
        })
    }
}

/// Serializes one ranked diagnosis candidate as an NDJSON line (no
/// trailing newline) — the daemon streams one per ambiguity class,
/// best match first, `rank` starting at 1.
pub fn candidate_json(rank: usize, candidate: &Candidate) -> String {
    let faults = candidate
        .fault_ids
        .iter()
        .zip(&candidate.labels)
        .map(|(id, label)| Json::object([("id", (*id).into()), ("label", label.as_str().into())]));
    Json::object([
        ("rank", rank.into()),
        ("class", candidate.class.into()),
        ("score", candidate.score.into()),
        ("faults", faults.collect()),
    ])
    .to_string()
}

/// Parses one candidate line back into its rank and [`Candidate`].
///
/// # Errors
/// [`ProtocolError::Parse`] on malformed JSON, [`ProtocolError::Schema`]
/// on a non-conforming candidate object.
pub fn candidate_from_json(line: &str) -> Result<(usize, Candidate), ProtocolError> {
    let doc = parse_json(line)?;
    let faults = doc.field("faults")?.as_array()?;
    let mut fault_ids = Vec::with_capacity(faults.len());
    let mut labels = Vec::with_capacity(faults.len());
    for fault in faults {
        fault_ids.push(fault.field("id")?.as_usize()?);
        labels.push(fault.field("label")?.as_str()?.to_string());
    }
    Ok((
        doc.field("rank")?.as_usize()?,
        Candidate {
            class: doc.field("class")?.as_usize()?,
            score: doc.field("score")?.as_f64()?,
            fault_ids,
            labels,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cat_telemetry::json::num;

    fn sample_result() -> CampaignResult {
        CampaignResult {
            observed: vec!["11".to_string(), "out\"quoted\"".to_string()],
            nominals: vec![
                Wave::new(vec![0.0, 1e-6, 2e-6], vec![0.0, 5.0, -0.25]),
                Wave::new(vec![0.0, 1e-6], vec![2.2, 2.2]),
            ],
            records: vec![
                FaultRecord {
                    fault: Fault::new(
                        6,
                        "BRI n_ds_short 5->6",
                        FaultEffect::Short {
                            a: "5".into(),
                            b: "6".into(),
                        },
                    )
                    .with_probability(3.2e-8),
                    outcome: FaultOutcome::Detected {
                        at: 0.5e-6,
                        node: "11".into(),
                    },
                    sim_seconds: 0.01,
                    newton_iterations: 400,
                    telemetry: FaultTelemetry {
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
                    },
                    signature: Some(FaultSignature {
                        nodes: vec![
                            NodeSignature {
                                trajectory: vec![0.0, 0.5, -0.25],
                                onset: Some(0.5e-6),
                                peak_deviation: 0.5,
                                steady_state_offset: -0.25,
                            },
                            NodeSignature {
                                trajectory: vec![0.0, 0.0, 0.0],
                                onset: None,
                                peak_deviation: 0.0,
                                steady_state_offset: 0.0,
                            },
                        ],
                    }),
                },
                FaultRecord {
                    fault: Fault::new(
                        7,
                        "SOP M3.g",
                        FaultEffect::OpenTerminal {
                            element: "M3".into(),
                            terminal: 1,
                        },
                    ),
                    outcome: FaultOutcome::NotDetected,
                    sim_seconds: 0.02,
                    newton_iterations: 410,
                    telemetry: FaultTelemetry::default(),
                    signature: None,
                },
                FaultRecord {
                    fault: Fault::new(
                        9,
                        "OPN split 6",
                        FaultEffect::SplitNode {
                            node: "6".into(),
                            move_terminals: vec![("C1".into(), 1), ("M4".into(), 0)],
                        },
                    ),
                    outcome: FaultOutcome::InjectionFailed("unknown node `zz`".into()),
                    sim_seconds: 0.001,
                    newton_iterations: 0,
                    telemetry: FaultTelemetry::default(),
                    signature: None,
                },
                FaultRecord {
                    fault: Fault::new(
                        10,
                        "BRI R2",
                        FaultEffect::ElementShort {
                            element: "R2".into(),
                            t1: 0,
                            t2: 1,
                        },
                    ),
                    outcome: FaultOutcome::SimulationFailed("tran failed to converge".into()),
                    sim_seconds: 0.5,
                    newton_iterations: 12,
                    telemetry: FaultTelemetry::default(),
                    signature: None,
                },
                FaultRecord {
                    fault: Fault::new(
                        11,
                        "SOFT R1 x1.050",
                        FaultEffect::ParamDeviation {
                            element: "R1".into(),
                            factor: 1.05,
                        },
                    ),
                    outcome: FaultOutcome::NotDetected,
                    sim_seconds: 0.015,
                    newton_iterations: 380,
                    telemetry: FaultTelemetry::default(),
                    signature: None,
                },
            ],
            nominal_seconds: 0.0123,
            total_seconds: 0.25,
            telemetry: CampaignTelemetry {
                pattern_cache_hits: 5,
                pattern_cache_misses: 2,
                pattern_cache_entries: 2,
                early_stops: 1,
                batches: 3,
                batched_faults: 4,
                ejections: 1,
                replayed_faults: 2,
                deduped_faults: 3,
            },
        }
    }

    #[test]
    fn json_round_trips_every_effect_and_outcome() {
        let original = sample_result();
        let text = to_json(&original);
        let back = from_json(&text).expect("round trip parses");
        assert_eq!(back.observed, original.observed);
        assert_eq!(back.nominals, original.nominals);
        assert_eq!(back.nominal_seconds, original.nominal_seconds);
        assert_eq!(back.total_seconds, original.total_seconds);
        assert_eq!(back.records.len(), original.records.len());
        for (a, b) in back.records.iter().zip(&original.records) {
            assert_eq!(a.fault, b.fault);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.sim_seconds, b.sim_seconds);
            assert_eq!(a.newton_iterations, b.newton_iterations);
            assert_eq!(a.telemetry, b.telemetry);
            assert_eq!(a.signature, b.signature);
        }
        assert_eq!(back.telemetry, original.telemetry);
        // Derived statistics survive too.
        assert_eq!(back.final_coverage(), original.final_coverage());
        assert_eq!(back.detections(), original.detections());
    }

    /// Protocol files written before the telemetry layer existed lack
    /// both the top-level and the per-record `telemetry` objects; they
    /// must keep parsing, with defaults filled in.
    #[test]
    fn pre_telemetry_captures_still_parse() {
        let old_capture = r#"{
  "version": 1,
  "observed": ["out"],
  "nominal_seconds": 0.01,
  "total_seconds": 0.05,
  "nominals": [
    {"times": [0.0, 1e-6], "values": [0.0, 5.0]}
  ],
  "records": [
    {"fault": {"id": 1, "label": "BRI a->b", "probability": null,
      "effect": {"kind": "short", "a": "a", "b": "b"}},
     "outcome": {"status": "not_detected"},
     "sim_seconds": 0.02, "newton_iterations": 40}
  ]
}"#;
        let back = from_json(old_capture).expect("old capture parses");
        assert_eq!(back.telemetry, CampaignTelemetry::default());
        assert_eq!(back.records[0].telemetry, FaultTelemetry::default());
        assert_eq!(back.records[0].newton_iterations, 40);
    }

    /// Telemetry written before `failed_iterations` existed parses it
    /// as 0 and keeps every other counter.
    #[test]
    fn telemetry_without_failed_iterations_parses_as_zero() {
        let original = sample_result();
        let text = to_json(&original);
        let old = text.replace("\"failed_iterations\": 1600, ", "");
        assert_ne!(old, text, "the sample writes the field");
        let back = from_json(&old).expect("capture without the field parses");
        let expected = FaultTelemetry {
            failed_iterations: 0,
            ..original.records[0].telemetry
        };
        assert_eq!(back.records[0].telemetry, expected);
    }

    /// A *present but malformed* telemetry object is a schema error,
    /// not silently defaulted.
    #[test]
    fn malformed_telemetry_rejected() {
        let mut result = sample_result();
        result.records.truncate(1);
        let text = to_json(&result).replace("\"wall_seconds\": 0.01", "\"wall_seconds\": null");
        assert!(matches!(from_json(&text), Err(ProtocolError::Schema(_))));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(matches!(
            from_json("not json"),
            Err(ProtocolError::Parse(_))
        ));
        assert!(matches!(
            from_json("{\"version\": 1}"),
            Err(ProtocolError::Schema(_))
        ));
        assert!(matches!(
            from_json("{\"version\": 99, \"observed\": [], \"nominals\": [], \"records\": [], \"nominal_seconds\": 0, \"total_seconds\": 0}"),
            Err(ProtocolError::Schema(_))
        ));
        // Trailing garbage is an error, not silently ignored.
        let mut text = to_json(&sample_result());
        text.push_str("[]");
        assert!(matches!(from_json(&text), Err(ProtocolError::Parse(_))));
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            3.2e-8,
            1e-7,
            4e-6,
            f64::MIN_POSITIVE,
            123456.789,
        ] {
            let s = num(x);
            let back = s.parse::<f64>().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(num(x), "null");
        }
        // A NaN probability yields a valid document that parses back
        // with the probability absent.
        let mut result = sample_result();
        result.records[0].fault.probability = Some(f64::NAN);
        let text = to_json(&result);
        let back = from_json(&text).expect("document stays valid JSON");
        assert_eq!(back.records[0].fault.probability, None);
    }

    fn sample_spec() -> CampaignSpec {
        CampaignSpec {
            netlist: "rc µ-bench\nV1 in 0 pulse(0 5 0 1u 1u 40u 100u)\nR1 in out 10k\n\
                      C1 out 0 1n ic=0\n.end\n"
                .to_string(),
            tstep: 0.5e-6,
            tstop: 50e-6,
            uic: true,
            observe: vec!["out".to_string()],
            detection: DetectionSpec {
                v_tol: 1.0,
                t_tol: 1e-6,
            },
            model: HardFaultModel::paper_resistor(),
            early_stop: false,
            record_signatures: false,
            max_faults: Some(8),
            client: Some("ci".to_string()),
            faults: vec![
                Fault::new(
                    1,
                    "BRI in->out",
                    FaultEffect::Short {
                        a: "in".into(),
                        b: "out".into(),
                    },
                )
                .with_probability(1e-7),
                Fault::new(
                    2,
                    "SOFT R1 ×1.05",
                    FaultEffect::ParamDeviation {
                        element: "R1".into(),
                        factor: 1.05,
                    },
                ),
            ],
        }
    }

    #[test]
    fn spec_round_trips_and_builds() {
        let spec = sample_spec();
        let text = spec.to_json();
        let back = CampaignSpec::from_json(&text).expect("spec round trip parses");
        assert_eq!(back, spec);
        let campaign = back.build_campaign().expect("spec builds a campaign");
        assert_eq!(campaign.observed(), ["out".to_string()]);
        assert_eq!(campaign.max_faults(), Some(8));
        assert_eq!(campaign.model(), HardFaultModel::paper_resistor());
        // A session honours the spec's budget over the spec's faults.
        assert_eq!(campaign.session(&back.faults).faults().len(), 2);
    }

    #[test]
    fn spec_source_model_and_optional_fields() {
        let mut spec = sample_spec();
        spec.model = HardFaultModel::Source;
        spec.max_faults = None;
        spec.client = None;
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn spec_rejects_bad_documents() {
        let spec = sample_spec();
        // Non-physical transient window.
        let bad = spec.to_json().replace("\"tstep\": 5e-7", "\"tstep\": -1.0");
        assert!(matches!(
            CampaignSpec::from_json(&bad),
            Err(ProtocolError::Schema(_))
        ));
        // No observed nodes.
        let bad = spec.to_json().replace("[\"out\"]", "[]");
        assert!(matches!(
            CampaignSpec::from_json(&bad),
            Err(ProtocolError::Schema(_))
        ));
        // Unknown model kind.
        let bad = spec
            .to_json()
            .replace("\"kind\": \"resistor\"", "\"kind\": \"laser\"");
        assert!(matches!(
            CampaignSpec::from_json(&bad),
            Err(ProtocolError::Schema(_))
        ));
        // A netlist that does not parse fails at build time.
        let mut broken = spec.clone();
        broken.netlist = "broken\nR1 in\n.end\n".to_string();
        assert!(CampaignSpec::from_json(&broken.to_json())
            .unwrap()
            .build_campaign()
            .is_err());
    }

    #[test]
    fn stream_events_round_trip() {
        let result = sample_result();
        let progress = CampaignProgress {
            index: 3,
            completed: 1,
            total: 5,
            record: result.records[0].clone(),
        };
        let line = progress_to_json(&progress);
        assert!(!line.contains('\n'), "NDJSON lines are single-line");
        match event_from_json(&line).unwrap() {
            StreamEvent::Progress(p) => {
                assert_eq!(p.index, 3);
                assert_eq!(p.completed, 1);
                assert_eq!(p.total, 5);
                assert_eq!(p.record.fault, progress.record.fault);
                assert_eq!(p.record.outcome, progress.record.outcome);
                assert_eq!(p.record.telemetry, progress.record.telemetry);
            }
            StreamEvent::Result(_) => panic!("expected a progress event"),
        }

        let line = result_event_json(&result);
        assert!(!line.contains('\n'), "NDJSON lines are single-line");
        match event_from_json(&line).unwrap() {
            StreamEvent::Result(r) => {
                assert_eq!(r.observed, result.observed);
                assert_eq!(r.nominals, result.nominals);
                assert_eq!(r.telemetry, result.telemetry);
                assert_eq!(r.records.len(), result.records.len());
            }
            StreamEvent::Progress(_) => panic!("expected a result event"),
        }

        assert!(matches!(
            event_from_json("{\"event\": \"flush\"}"),
            Err(ProtocolError::Schema(_))
        ));
    }

    /// Every strict prefix of a golden document must come back as an
    /// error — never a panic. This is what lets resume tolerate a
    /// checkpoint whose final line was torn mid-write. (Prefixes that
    /// only drop trailing whitespace still parse, hence the `trim_end`
    /// cutoff.)
    fn assert_prefixes_fail<T>(text: &str, parse: impl Fn(&str) -> Result<T, ProtocolError>) {
        let end = text.trim_end().len();
        for k in (0..text.len()).filter(|&k| text.is_char_boundary(k)) {
            let prefix = &text[..k];
            if k < end {
                assert!(parse(prefix).is_err(), "prefix of {k} bytes parsed");
            } else {
                assert!(
                    parse(prefix).is_ok(),
                    "whitespace-trimmed tail failed at {k}"
                );
            }
        }
    }

    #[test]
    fn truncated_result_documents_error_at_every_offset() {
        assert_prefixes_fail(&to_json(&sample_result()), from_json);
    }

    #[test]
    fn truncated_spec_documents_error_at_every_offset() {
        assert_prefixes_fail(&sample_spec().to_json(), CampaignSpec::from_json);
    }

    #[test]
    fn truncated_stream_lines_error_at_every_offset() {
        let result = sample_result();
        let progress = CampaignProgress {
            index: 0,
            completed: 1,
            total: 5,
            record: result.records[0].clone(),
        };
        assert_prefixes_fail(&progress_to_json(&progress), event_from_json);
        assert_prefixes_fail(&result_event_json(&result), event_from_json);
    }

    /// A 1 MB netlist (multi-byte characters, quotes, backslashes and
    /// control characters included) round-trips exactly. The string
    /// scan is linear: it copies each run between escapes as one slice
    /// instead of re-validating the rest of the document per character.
    #[test]
    fn megabyte_netlist_round_trips_exactly() {
        let mut spec = sample_spec();
        let line = "R\u{b5}1 in out 10k ; \"q\" \\ \u{1F600}\t\u{1}\n";
        spec.netlist = line.repeat((1 << 20) / line.len() + 1);
        assert!(spec.netlist.len() > 1 << 20);
        let text = spec.to_json();
        let back = CampaignSpec::from_json(&text).expect("large spec parses");
        assert_eq!(back.netlist, spec.netlist);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn spec_record_signatures_round_trips_and_reaches_the_campaign() {
        let mut spec = sample_spec();
        spec.record_signatures = true;
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        let campaign = back.build_campaign().unwrap();
        assert!(campaign.record_signatures_enabled());
        // The flag is omitted (not written as `false`) when off, so
        // pre-diagnosis specs keep parsing unchanged.
        spec.record_signatures = false;
        assert!(!spec.to_json().contains("record_signatures"));
        assert!(
            !CampaignSpec::from_json(&spec.to_json())
                .unwrap()
                .record_signatures
        );
    }

    #[test]
    fn spec_dedup_trims_repeated_effects_keeping_the_first() {
        let mut spec = sample_spec();
        // Same effect as fault 1 under a different id and label, plus a
        // genuinely new effect — only the repeat goes.
        spec.faults.push(Fault::new(
            9,
            "BRI in->out again",
            FaultEffect::Short {
                a: "in".into(),
                b: "out".into(),
            },
        ));
        spec.faults.push(Fault::new(
            10,
            "SOP C1.0",
            FaultEffect::OpenTerminal {
                element: "C1".into(),
                terminal: 0,
            },
        ));
        assert_eq!(spec.dedup_faults(), 1);
        assert_eq!(
            spec.faults.iter().map(|f| f.id).collect::<Vec<_>>(),
            [1, 2, 10]
        );
        // Idempotent once clean.
        assert_eq!(spec.dedup_faults(), 0);
    }

    fn sample_dictionary() -> FaultDictionary {
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
                    signature: FaultSignature {
                        nodes: vec![
                            NodeSignature {
                                trajectory: vec![0.0, 0.5, -0.25],
                                onset: Some(0.5e-6),
                                peak_deviation: 0.5,
                                steady_state_offset: -0.25,
                            },
                            NodeSignature {
                                trajectory: vec![0.0, 0.0, 0.0],
                                onset: None,
                                peak_deviation: 0.0,
                                steady_state_offset: 0.0,
                            },
                        ],
                    },
                },
                DictionaryEntry {
                    fault_id: 10,
                    label: "BRI R2".to_string(),
                    signature: FaultSignature {
                        nodes: vec![
                            NodeSignature {
                                trajectory: vec![0.0, -2.0, -2.0],
                                onset: Some(1e-6),
                                peak_deviation: 2.0,
                                steady_state_offset: -2.0,
                            },
                            NodeSignature {
                                trajectory: vec![0.1, 0.1, 0.1],
                                onset: Some(0.0),
                                peak_deviation: 0.1,
                                steady_state_offset: 0.1,
                            },
                        ],
                    },
                },
            ],
            classes: vec![vec![0], vec![1]],
        }
    }

    #[test]
    fn dictionary_round_trips_bitwise() {
        let dict = sample_dictionary();
        let text = dictionary_to_json(&dict);
        let back = dictionary_from_json(&text).expect("dictionary parses");
        assert_eq!(back, dict);
        // Reserialization is byte-identical — the daemon reloads
        // persisted dictionaries and must not see drift.
        assert_eq!(dictionary_to_json(&back), text);
    }

    #[test]
    fn truncated_dictionary_documents_error_at_every_offset() {
        assert_prefixes_fail(
            &dictionary_to_json(&sample_dictionary()),
            dictionary_from_json,
        );
    }

    #[test]
    fn dictionary_rejects_invariant_violations() {
        let text = dictionary_to_json(&sample_dictionary());
        for (from, to) in [
            // Unsupported version.
            ("\"dict_version\": 1", "\"dict_version\": 2"),
            // Trajectories no longer sit on the grid.
            ("\"points\": 3", "\"points\": 4"),
            // Degenerate window.
            ("\"t1\": 2e-6", "\"t1\": 0.0"),
            // Entry 1 appears twice, entry 0 never.
            ("[\n    [0],\n    [1]\n  ]", "[[1], [1]]"),
            // Entry index out of range.
            ("[\n    [0],\n    [1]\n  ]", "[[0], [7]]"),
            // A nominal row off the grid.
            ("[2.2, 2.2, 2.2]", "[2.2, 2.2]"),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text, "tamper `{from}` did not apply");
            assert!(
                matches!(dictionary_from_json(&bad), Err(ProtocolError::Schema(_))),
                "tamper `{to}` accepted"
            );
        }
    }

    #[test]
    fn diagnose_request_round_trips_and_validates_waves() {
        let request = DiagnoseRequest {
            campaign: "c12".to_string(),
            waves: vec![(
                "out\"quoted\"".to_string(),
                Wave::new(vec![0.0, 1e-6, 2e-6], vec![0.0, 5.0, -0.25]),
            )],
        };
        let line = request.to_json();
        assert!(!line.contains('\n'), "requests are NDJSON-safe");
        assert_eq!(DiagnoseRequest::from_json(&line).unwrap(), request);
        assert_prefixes_fail(&line, DiagnoseRequest::from_json);
        // Non-increasing times must be rejected before Wave::new — this
        // parser fronts raw network input.
        let bad = line.replace("[0.0, 1e-6, 2e-6]", "[0.0, 2e-6, 1e-6]");
        assert_ne!(bad, line, "tamper did not apply");
        assert!(matches!(
            DiagnoseRequest::from_json(&bad),
            Err(ProtocolError::Schema(_))
        ));
        // An empty wave set can never rank anything.
        let empty = format!(
            "{{\"diagnose_version\": {DIAGNOSE_VERSION}, \"campaign\": \"c1\", \"waves\": []}}"
        );
        assert!(matches!(
            DiagnoseRequest::from_json(&empty),
            Err(ProtocolError::Schema(_))
        ));
    }

    #[test]
    fn candidate_lines_round_trip() {
        let candidate = Candidate {
            class: 4,
            score: 0.125,
            fault_ids: vec![6, 10],
            labels: vec!["BRI n_ds_short 5->6".to_string(), "BRI R2".to_string()],
        };
        let line = candidate_json(1, &candidate);
        assert!(!line.contains('\n'), "candidates are NDJSON lines");
        let (rank, back) = candidate_from_json(&line).unwrap();
        assert_eq!(rank, 1);
        assert_eq!(back, candidate);
        assert_prefixes_fail(&line, candidate_from_json);
    }

    /// Unbounded nesting must be a parse error, not a stack overflow —
    /// the daemon feeds this parser raw network input.
    #[test]
    fn deep_nesting_is_rejected_not_fatal() {
        for open in ["[", "{\"k\":["] {
            let bomb = open.repeat(100_000);
            assert!(matches!(parse_json(&bomb), Err(ProtocolError::Parse(_))));
        }
        // The limit leaves generous headroom over the real schema.
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_json(&deep).is_ok());
    }
}
