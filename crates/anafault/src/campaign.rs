//! The automatic fault-simulation campaign.
//!
//! Mirrors AnaFAULT's "repetitive cycle of three main phases":
//! preprocessing (fault injection into the in-memory netlist), the call
//! of the kernel simulator, and post-processing (comparison against the
//! nominal response and statistics). Faults run concurrently on worker
//! threads — the reproduction of the paper's workstation-cluster
//! parallel execution \[21\].
//!
//! # Quickstart
//!
//! A campaign is configured through [`CampaignBuilder`] — the only way
//! to assemble one — and executed either blocking ([`Campaign::run`])
//! or streaming, with one [`CampaignProgress`] event per completed
//! fault ([`CampaignSession::run_with_progress`]):
//!
//! ```
//! use anafault::{Campaign, DetectionSpec, Fault, FaultEffect};
//! use spice::parser::parse_netlist;
//! use spice::tran::TranSpec;
//!
//! let testbench = parse_netlist(
//!     "rc\nV1 in 0 pulse(0 5 0 1u 1u 40u 100u)\nR1 in out 10k\nC1 out 0 1n ic=0\n.end\n",
//! )?;
//! let campaign = Campaign::builder()
//!     .testbench(testbench)
//!     .tran(TranSpec::new(0.5e-6, 50e-6).with_uic())
//!     .observe("out")
//!     .detection(DetectionSpec { v_tol: 1.0, t_tol: 1e-6 })
//!     .early_stop(true) // drop each fault as soon as it is detected
//!     .build()?;
//!
//! let faults = vec![Fault::new(
//!     1,
//!     "BRI in->out",
//!     FaultEffect::Short { a: "in".into(), b: "out".into() },
//! )];
//! let mut events = 0;
//! let result = campaign
//!     .session(&faults)
//!     .run_with_progress(|progress| {
//!         events += 1;
//!         assert_eq!(progress.total, 1);
//!     })?;
//! assert_eq!(events, result.records.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Several nodes may be observed at once (`.observe()` appends); a
//! fault counts as detected when **any** observed node leaves the
//! tolerance band — real test programs probe multiple pins, not just
//! the paper's V(11).

use crate::coverage::{coverage_curve, final_coverage, DetectionSpec};
use crate::fault::Fault;
use crate::inject::{inject, HardFaultModel};
use cat_telemetry::json::Json;
use cat_telemetry::{HistogramSnapshot, StaticCounter};
use diagnose::{FaultSignature, SignatureSpec};
use spice::tran::{tran_with_cached, TranSpec, TranStats};
use spice::{Circuit, PatternCache, SolverStats, SpiceError, Wave};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The former batch-scheduling switch of [`CampaignBuilder::batch`].
/// It is inert: every session runs one scalar transient per fault on
/// the worker pool. `Auto` only turns fault dropping on, as batched
/// sessions always did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// No effect (the default).
    #[default]
    Off,
    /// Fault dropping, as [`CampaignBuilder::early_stop`]`(true)`.
    Auto,
}

/// What happened to one fault during the campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultOutcome {
    /// The faulty response left the tolerance band at time `at` on
    /// observed node `node`.
    Detected {
        /// Detection time (s).
        at: f64,
        /// The observed node that detected the fault first.
        node: String,
    },
    /// The faulty response stayed within tolerance on every observed
    /// node for the whole test.
    NotDetected,
    /// Fault injection failed (inconsistent fault list).
    InjectionFailed(String),
    /// The kernel simulator failed on the faulty circuit.
    SimulationFailed(String),
}

/// Per-fault kernel work counters, captured alongside the outcome.
///
/// Every field is taken from the single transient run of that fault
/// ([`spice::tran::TranStats`]), plus the wall-clock [`Duration`]
/// measured around injection + simulation + detection.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultTelemetry {
    /// Wall-clock time spent on this fault (injection through verdict).
    pub wall: Duration,
    /// Accepted transient steps (halved sub-steps included).
    pub steps: u64,
    /// Timestep halvings forced by convergence rescues.
    pub halvings: u64,
    /// Accepted Newton solves across the whole transient.
    pub newton_iterations: u64,
    /// Newton iterations of failed attempts — discarded work that
    /// `newton_iterations` leaves out ([`TranStats::failed_iterations`]).
    pub failed_iterations: u64,
    /// Sparse-solver work counters (refactorisations, re-pivots,
    /// dense fallbacks, demotions).
    pub solver: SolverStats,
    /// Whether fault dropping abandoned the remaining simulation time.
    pub early_stopped: bool,
    /// Always `false`: set by the removed lockstep batch engine when it
    /// re-ran a fault scalar. Kept so the field stays on the wire.
    pub ejected: bool,
}

impl FaultTelemetry {
    /// Lifts a kernel [`TranStats`] into a fault-level record; `wall`
    /// and `early_stopped` are filled in by the campaign afterwards.
    fn from_tran(stats: &TranStats) -> Self {
        FaultTelemetry {
            wall: Duration::ZERO,
            steps: stats.steps,
            halvings: stats.halvings,
            newton_iterations: stats.newton_iterations,
            failed_iterations: stats.failed_iterations,
            solver: stats.solver,
            early_stopped: false,
            ejected: false,
        }
    }
}

/// Per-fault protocol record.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// The fault simulated.
    pub fault: Fault,
    /// Its outcome.
    pub outcome: FaultOutcome,
    /// Wall-clock seconds spent simulating this fault.
    pub sim_seconds: f64,
    /// Kernel work measure (accepted Newton solves).
    pub newton_iterations: u64,
    /// Kernel work counters for this fault's simulation.
    pub telemetry: FaultTelemetry,
    /// Diagnosis signature of the faulty response, recorded when the
    /// campaign ran with [`CampaignBuilder::record_signatures`]; `None`
    /// otherwise (and for failed or signature-less legacy records).
    pub signature: Option<FaultSignature>,
}

/// A configuration error from [`CampaignBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// No testbench circuit was provided.
    MissingTestbench,
    /// No transient specification was provided.
    MissingTran,
    /// No observed node was provided.
    NoObservedNodes,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::MissingTestbench => {
                f.write_str("campaign configuration lacks a testbench circuit")
            }
            ConfigError::MissingTran => {
                f.write_str("campaign configuration lacks a transient specification")
            }
            ConfigError::NoObservedNodes => f.write_str("campaign configuration observes no nodes"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Chainable configuration for a [`Campaign`] — the only way to build
/// one. Mandatory pieces: a testbench ([`CampaignBuilder::testbench`]),
/// a transient ([`CampaignBuilder::tran`]) and at least one observed
/// node ([`CampaignBuilder::observe`]). Everything else defaults to the
/// paper's settings.
#[derive(Debug, Clone, Default)]
pub struct CampaignBuilder {
    circuit: Option<Circuit>,
    tran: Option<TranSpec>,
    observe: Vec<String>,
    detection: DetectionSpec,
    model: HardFaultModel,
    threads: usize,
    max_faults: Option<usize>,
    early_stop: bool,
    record_signatures: bool,
}

impl CampaignBuilder {
    /// An empty builder with the paper's default detection, the
    /// resistor fault model, one worker per core, no fault budget and
    /// full-length simulations.
    pub fn new() -> Self {
        CampaignBuilder::default()
    }

    /// The fault-free circuit including the stimulus/testbench.
    pub fn testbench(mut self, circuit: Circuit) -> Self {
        self.circuit = Some(circuit);
        self
    }

    /// Transient analysis to run for the nominal and every fault.
    pub fn tran(mut self, spec: TranSpec) -> Self {
        self.tran = Some(spec);
        self
    }

    /// Adds one observed output node. May be called repeatedly: a fault
    /// is detected when **any** observed node leaves the tolerance band
    /// (the paper observes V(11) only; real test programs probe several
    /// pins).
    pub fn observe(mut self, node: impl Into<String>) -> Self {
        self.observe.push(node.into());
        self
    }

    /// Adds several observed nodes at once (any-detect semantics).
    pub fn observe_nodes<I, S>(mut self, nodes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.observe.extend(nodes.into_iter().map(Into::into));
        self
    }

    /// Detection tolerances (default: the paper's Fig. 5 band).
    pub fn detection(mut self, spec: DetectionSpec) -> Self {
        self.detection = spec;
        self
    }

    /// Hard fault model (default: the paper's resistor model).
    pub fn model(mut self, model: HardFaultModel) -> Self {
        self.model = model;
        self
    }

    /// Worker threads; 0 = one per available core (the default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Fault budget: at most this many faults from the head of the list
    /// are simulated (the list arrives ranked by probability, so this
    /// keeps the most likely defects).
    pub fn max_faults(mut self, max: usize) -> Self {
        self.max_faults = Some(max);
        self
    }

    /// Fault dropping: when `true`, each faulty simulation is abandoned
    /// the moment the fault is detected — the classic fault-simulation
    /// speedup. Whenever the full-length simulation converges, outcomes
    /// are identical; a fault that deviates and *then* fails to
    /// converge is reported `Detected` here but `SimulationFailed` by
    /// the full run (dropping never reaches the failing time step).
    /// Default `false`, so runtime comparisons between fault models
    /// stay meaningful.
    pub fn early_stop(mut self, on: bool) -> Self {
        self.early_stop = on;
        self
    }

    /// The former batch-scheduling switch, kept for existing callers.
    /// Every session runs the one scalar worker pool; [`BatchMode::Auto`]
    /// turns fault dropping on ([`CampaignBuilder::early_stop`]), as
    /// batched sessions always dropped faults, and [`BatchMode::Off`]
    /// changes nothing.
    pub fn batch(self, mode: BatchMode) -> Self {
        match mode {
            BatchMode::Off => self,
            BatchMode::Auto => self.early_stop(true),
        }
    }

    /// Diagnosis signature recording: when `true`, every successfully
    /// simulated fault's record carries a [`FaultSignature`] — the
    /// resampled deviation trajectory per observed node — so the
    /// campaign result can seed a fault dictionary. Recording needs the
    /// complete faulty waveform, so it forces full-length simulation:
    /// fault dropping is bypassed for the session. Default `false`.
    pub fn record_signatures(mut self, on: bool) -> Self {
        self.record_signatures = on;
        self
    }

    /// Validates the configuration into a [`Campaign`].
    ///
    /// # Errors
    /// [`ConfigError`] when the testbench, transient or observed nodes
    /// are missing.
    pub fn build(self) -> Result<Campaign, ConfigError> {
        let circuit = self.circuit.ok_or(ConfigError::MissingTestbench)?;
        let tran = self.tran.ok_or(ConfigError::MissingTran)?;
        if self.observe.is_empty() {
            return Err(ConfigError::NoObservedNodes);
        }
        Ok(Campaign {
            circuit,
            tran,
            observe: self.observe,
            detection: self.detection,
            model: self.model,
            threads: self.threads,
            max_faults: self.max_faults,
            early_stop: self.early_stop,
            record_signatures: self.record_signatures,
        })
    }
}

/// A validated campaign configuration. Construct with
/// [`Campaign::builder`]; execute with [`Campaign::run`] or stream
/// per-fault events through [`Campaign::session`].
#[derive(Debug, Clone)]
pub struct Campaign {
    circuit: Circuit,
    tran: TranSpec,
    observe: Vec<String>,
    detection: DetectionSpec,
    model: HardFaultModel,
    threads: usize,
    max_faults: Option<usize>,
    early_stop: bool,
    record_signatures: bool,
}

/// One progress event: a fault finished simulating. Emitted exactly
/// once per fault, in completion order (not input order — workers run
/// concurrently).
#[derive(Debug, Clone)]
pub struct CampaignProgress {
    /// Position of the fault in the campaign's input list.
    pub index: usize,
    /// Faults completed so far, including this one (1-based).
    pub completed: usize,
    /// Total faults this session will simulate.
    pub total: usize,
    /// The completed record.
    pub record: FaultRecord,
}

/// One executable run of a campaign over a fault list: the session owns
/// the fault-budget truncation and the streaming interface. The
/// blocking [`CampaignSession::run`] is built on top of the streaming
/// [`CampaignSession::run_with_progress`].
#[derive(Debug)]
pub struct CampaignSession<'c> {
    campaign: &'c Campaign,
    faults: &'c [Fault],
}

/// Campaign-level telemetry: pattern-cache behaviour across the whole
/// session (the per-fault counters live in [`FaultTelemetry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignTelemetry {
    /// Symbolic patterns reused from the session cache.
    pub pattern_cache_hits: u64,
    /// Lookups that forced a fresh symbolic analysis.
    pub pattern_cache_misses: u64,
    /// Distinct stamp topologies cached by the end of the session.
    pub pattern_cache_entries: usize,
    /// Faults whose remaining simulation time was dropped on detection.
    pub early_stops: u64,
    /// Always 0: lockstep group runs of the removed batch engine. This
    /// and the next two fields are kept so they stay on the wire.
    pub batches: u64,
    /// Always 0: faults whose verdict came from the removed lockstep
    /// kernel.
    pub batched_faults: u64,
    /// Always 0: lanes the removed lockstep kernel re-ran scalar.
    pub ejections: u64,
    /// Faults whose record was replayed from a checkpoint instead of
    /// being re-simulated ([`CampaignSession::run_resumed`]).
    pub replayed_faults: u64,
    /// Identical fault entries trimmed from the submitted list before
    /// sharding (`CampaignSpec::dedup_faults`); 0 for direct sessions.
    pub deduped_faults: u64,
}

/// The campaign result: nominal response plus per-fault records.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The observed node names, in configuration order.
    pub observed: Vec<String>,
    /// Nominal waveform per observed node (parallel to `observed`).
    pub nominals: Vec<Wave>,
    /// One record per fault, in input order.
    pub records: Vec<FaultRecord>,
    /// Seconds for the nominal simulation.
    pub nominal_seconds: f64,
    /// Wall-clock seconds for the whole campaign.
    pub total_seconds: f64,
    /// Session-wide telemetry (pattern cache, early stops).
    pub telemetry: CampaignTelemetry,
}

impl Campaign {
    /// Starts configuring a campaign.
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder::new()
    }

    /// The observed node names.
    pub fn observed(&self) -> &[String] {
        &self.observe
    }

    /// The transient specification.
    pub fn tran_spec(&self) -> &TranSpec {
        &self.tran
    }

    /// The detection tolerances.
    pub fn detection(&self) -> DetectionSpec {
        self.detection
    }

    /// The hard fault model.
    pub fn model(&self) -> HardFaultModel {
        self.model
    }

    /// The fault budget, when set.
    pub fn max_faults(&self) -> Option<usize> {
        self.max_faults
    }

    /// Whether fault dropping (early stop on detection) is enabled.
    pub fn early_stop_enabled(&self) -> bool {
        self.early_stop
    }

    /// Whether diagnosis signature recording is enabled.
    pub fn record_signatures_enabled(&self) -> bool {
        self.record_signatures
    }

    /// How this campaign extracts signatures: the default trajectory
    /// length, with the detection band's voltage tolerance as the
    /// divergence-onset threshold.
    pub fn signature_spec(&self) -> SignatureSpec {
        SignatureSpec {
            points: diagnose::DEFAULT_POINTS,
            onset_eps: self.detection.v_tol,
        }
    }

    /// Opens a session over `faults`, applying the fault budget.
    pub fn session<'c>(&'c self, faults: &'c [Fault]) -> CampaignSession<'c> {
        CampaignSession {
            campaign: self,
            faults: apply_budget(self.max_faults, faults),
        }
    }

    /// Runs the campaign on `faults`, blocking until every fault is
    /// simulated.
    ///
    /// # Errors
    /// Fails only when the *nominal* simulation fails or an observed
    /// node does not exist; per-fault problems are recorded in the
    /// result instead.
    pub fn run(&self, faults: &[Fault]) -> Result<CampaignResult, SpiceError> {
        self.session(faults).run()
    }

    /// Runs the nominal simulation once and freezes the campaign into
    /// the [`PreparedCampaign`] engine that every session runs on — and
    /// that external schedulers such as the `anafault-serve` daemon
    /// drive one fault at a time.
    ///
    /// # Errors
    /// Fails when the nominal simulation fails or an observed node does
    /// not exist — the same contract as [`Campaign::run`].
    pub fn prepare(self) -> Result<PreparedCampaign, SpiceError> {
        // One pattern cache per campaign: the symbolic factorisation of
        // the nominal topology is shared by every structure-preserving
        // fault, and each hard-fault stamp shape is analysed exactly
        // once no matter how many workers touch it.
        let cache = PatternCache::new();
        let t0 = Instant::now();
        let nominal = tran_with_cached(&self.circuit, &self.tran, Some(&cache), |_, _| true)?;
        let nominal_seconds = t0.elapsed().as_secs_f64();
        let nominals = self
            .observe
            .iter()
            .map(|name| {
                nominal.wave(name).ok_or_else(|| {
                    SpiceError::Elaboration(format!("observed node `{name}` not found"))
                })
            })
            .collect::<Result<Vec<Wave>, SpiceError>>()?;
        Ok(PreparedCampaign {
            campaign: self,
            cache,
            nominals,
            nominal_seconds,
        })
    }

    /// How each fault is simulated. Signature recording needs the
    /// complete faulty waveform, so it overrides fault dropping.
    fn sim_mode(&self) -> SimMode {
        if self.record_signatures {
            SimMode::Signature
        } else if self.early_stop {
            SimMode::Dropping
        } else {
            SimMode::FullLength
        }
    }
}

/// Worker threads for a requested count, where 0 means one per
/// available core. Session pools and the daemon's simulation workers
/// both resolve their size here.
pub fn worker_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// The fault budget: at most `max_faults` faults from the head of the
/// list (which arrives ranked by probability, so the cut keeps the most
/// likely defects); `None` keeps them all.
pub fn apply_budget(max_faults: Option<usize>, faults: &[Fault]) -> &[Fault] {
    &faults[..max_faults.unwrap_or(faults.len()).min(faults.len())]
}

/// Matches checkpointed records to a fault list by [`Fault::id`]: the
/// first record per id wins (so a checkpoint with a torn duplicate tail
/// replays cleanly) and records whose id is not in `faults` are
/// ignored. Returns `(index into faults, record)` pairs in input order.
pub fn match_checkpoint<'r>(
    faults: &[Fault],
    checkpoint: &'r [FaultRecord],
) -> Vec<(usize, &'r FaultRecord)> {
    let mut first: BTreeMap<usize, &FaultRecord> = BTreeMap::new();
    for record in checkpoint {
        first.entry(record.fault.id).or_insert(record);
    }
    faults
        .iter()
        .enumerate()
        .filter_map(|(i, fault)| first.get(&fault.id).map(|&record| (i, record)))
        .collect()
}

/// How one injected fault is simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimMode {
    /// Fault dropping: abandon the transient at the first deviating
    /// sample.
    Dropping,
    /// Simulate the whole window, then compare per node.
    FullLength,
    /// Full length, plus the diagnosis signature.
    Signature,
}

/// A simulated fault before its wall clock is stamped.
type Simulated = (FaultOutcome, FaultTelemetry, Option<FaultSignature>);

impl FaultRecord {
    /// A record whose `sim_seconds` and `newton_iterations` mirror
    /// `telemetry`.
    fn new(
        fault: &Fault,
        outcome: FaultOutcome,
        telemetry: FaultTelemetry,
        signature: Option<FaultSignature>,
    ) -> Self {
        FaultRecord {
            fault: fault.clone(),
            outcome,
            sim_seconds: telemetry.wall.as_secs_f64(),
            newton_iterations: telemetry.newton_iterations,
            telemetry,
            signature,
        }
    }
}

/// The shared guard outcome for an observed node that vanished from
/// the faulty circuit (kept in one place so the full-length and
/// dropping paths cannot drift apart).
fn missing_observed(name: &str) -> FaultOutcome {
    FaultOutcome::SimulationFailed(format!("observed node `{name}` missing in faulty circuit"))
}

/// The campaign engine: a campaign frozen after its nominal pass, with
/// the campaign-wide [`PatternCache`] and the resolved nominal
/// waveforms. Every session runs on it — [`CampaignSession::run`] and
/// [`CampaignSession::run_with_progress`] through the worker pool,
/// [`CampaignSession::run_resumed`] through the pool after replaying
/// its checkpoint — and every one returns through
/// [`PreparedCampaign::finish`].
///
/// The handle is `Send + Sync`, so an external scheduler may call
/// [`PreparedCampaign::simulate_fault`] from many threads at once and
/// assemble the document with `finish`; the `anafault-serve` daemon
/// does exactly that from its worker queue, which serves many
/// campaigns at once. `simulate_fault` honours `early_stop` and
/// signature recording, so every scheduler does the same work per
/// fault.
#[derive(Debug)]
pub struct PreparedCampaign {
    campaign: Campaign,
    cache: PatternCache,
    nominals: Vec<Wave>,
    nominal_seconds: f64,
}

impl PreparedCampaign {
    /// The underlying campaign configuration.
    pub fn campaign(&self) -> &Campaign {
        &self.campaign
    }

    /// Nominal waveform per observed node (parallel to
    /// [`Campaign::observed`]).
    pub fn nominals(&self) -> &[Wave] {
        &self.nominals
    }

    /// Seconds the nominal simulation took.
    pub fn nominal_seconds(&self) -> f64 {
        self.nominal_seconds
    }

    /// Applies the campaign's fault budget to a fault list, returning
    /// the slice a session over the same list would simulate.
    pub fn budgeted<'f>(&self, faults: &'f [Fault]) -> &'f [Fault] {
        apply_budget(self.campaign.max_faults, faults)
    }

    /// Simulates one fault against the prepared nominal response.
    /// Injection and simulation failures are folded into the record's
    /// outcome, never returned — the same contract as a session worker.
    pub fn simulate_fault(&self, fault: &Fault) -> FaultRecord {
        let t0 = Instant::now();
        let faulty = match inject(&self.campaign.circuit, fault, self.campaign.model) {
            Ok(faulty) => faulty,
            Err(e) => {
                let telemetry = FaultTelemetry {
                    wall: t0.elapsed(),
                    ..FaultTelemetry::default()
                };
                let outcome = FaultOutcome::InjectionFailed(e.to_string());
                return FaultRecord::new(fault, outcome, telemetry, None);
            }
        };
        let _span = cat_telemetry::span!("anafault.fault");
        let simulated = match self.campaign.sim_mode() {
            SimMode::Dropping => self.simulate_dropping(&faulty),
            SimMode::FullLength => self.simulate_full(&faulty, false),
            SimMode::Signature => self.simulate_full(&faulty, true),
        };
        let (outcome, mut telemetry, signature) = simulated.unwrap_or_else(|e| {
            let failed = FaultOutcome::SimulationFailed(e.to_string());
            (failed, FaultTelemetry::default(), None)
        });
        telemetry.wall = t0.elapsed();
        FaultRecord::new(fault, outcome, telemetry, signature)
    }

    /// Assembles the final [`CampaignResult`] from the completed
    /// records (in input order). `replayed_faults` is the number of
    /// records that came from a checkpoint rather than
    /// [`PreparedCampaign::simulate_fault`]; `total_seconds` is the
    /// caller's wall-clock measure for the whole campaign (an external
    /// scheduler may span process restarts, so the clock cannot live
    /// here). Flushes the `anafault.campaign.*` counters.
    pub fn finish(
        &self,
        records: Vec<FaultRecord>,
        replayed_faults: u64,
        total_seconds: f64,
    ) -> CampaignResult {
        let telemetry = CampaignTelemetry {
            pattern_cache_hits: self.cache.hits(),
            pattern_cache_misses: self.cache.misses(),
            pattern_cache_entries: self.cache.len(),
            early_stops: records.iter().filter(|r| r.telemetry.early_stopped).count() as u64,
            replayed_faults,
            ..CampaignTelemetry::default()
        };
        let result = CampaignResult {
            observed: self.campaign.observe.clone(),
            nominals: self.nominals.clone(),
            records,
            nominal_seconds: self.nominal_seconds,
            total_seconds,
            telemetry,
        };
        flush_campaign_counters(&result);
        result
    }

    /// Full-length simulation, then per-node detection; any-detect =
    /// earliest detection across observed nodes (ties keep
    /// configuration order).
    fn simulate_full(
        &self,
        faulty: &Circuit,
        want_signature: bool,
    ) -> Result<Simulated, SpiceError> {
        let res = tran_with_cached(faulty, &self.campaign.tran, Some(&self.cache), |_, _| true)?;
        let telemetry = FaultTelemetry::from_tran(&res.stats);
        let mut waves = Vec::with_capacity(self.campaign.observe.len());
        for name in &self.campaign.observe {
            let Some(wave) = res.wave(name) else {
                return Ok((missing_observed(name), telemetry, None));
            };
            waves.push(wave);
        }
        let mut first: Option<(f64, usize)> = None;
        for (k, (wave, nominal)) in waves.iter().zip(&self.nominals).enumerate() {
            if let Some(at) = self.campaign.detection.first_detection(wave, nominal) {
                if first.is_none_or(|(best, _)| at < best) {
                    first = Some((at, k));
                }
            }
        }
        let signature = want_signature.then(|| self.signature(&waves));
        Ok((self.outcome(first), telemetry, signature))
    }

    /// Extracts one node signature per observed node from the faulty
    /// waveforms, on the grid spanned by the primary nominal transient.
    fn signature(&self, waves: &[Wave]) -> FaultSignature {
        let spec = self.campaign.signature_spec();
        let times = self.nominals[0].times();
        let t1 = *times.last().expect("nominal is non-empty");
        let grid = diagnose::grid(times[0], t1, spec.points);
        FaultSignature {
            nodes: self
                .nominals
                .iter()
                .zip(waves)
                .map(|(nominal, faulty)| {
                    diagnose::extract_signature(nominal, faulty, &grid, spec.onset_eps)
                })
                .collect(),
        }
    }

    /// Streaming simulation with fault dropping: evaluates the same
    /// per-sample predicate as [`Wave::first_detection`] while the
    /// kernel integrates, and abandons the remaining simulation time at
    /// the first deviating sample. Outcomes are bit-identical to
    /// [`PreparedCampaign::simulate_full`] whenever the full run
    /// converges; a deviation followed by a convergence failure is
    /// `Detected` here (the failing step is never reached) but
    /// `SimulationFailed` there.
    fn simulate_dropping(&self, faulty: &Circuit) -> Result<Simulated, SpiceError> {
        let columns = match self.observed_columns(faulty) {
            Ok(columns) => columns,
            Err(outcome) => return Ok((outcome, FaultTelemetry::default(), None)),
        };
        let mut detected: Option<(f64, usize)> = None;
        let res = tran_with_cached(
            faulty,
            &self.campaign.tran,
            Some(&self.cache),
            |t, x| match self.deviating_node(&columns, t, x) {
                Some(k) => {
                    detected = Some((t, k));
                    false
                }
                None => true,
            },
        )?;
        let mut telemetry = FaultTelemetry::from_tran(&res.stats);
        telemetry.early_stopped = detected.is_some();
        Ok((self.outcome(detected), telemetry, None))
    }

    /// Resolves each observed node to its sample column in `faulty`'s
    /// solution vector. A fault cannot remove a node, but guard anyway:
    /// a missing one yields the fault's failure outcome.
    fn observed_columns(&self, faulty: &Circuit) -> Result<Vec<usize>, FaultOutcome> {
        self.campaign
            .observe
            .iter()
            .map(|name| match faulty.find_node(name) {
                Some(id) if id != Circuit::GROUND => Ok(id - 1),
                _ => Err(missing_observed(name)),
            })
            .collect()
    }

    /// The first observed node (in configuration order) whose sample at
    /// `t` leaves the nominal band — the per-sample predicate of the
    /// dropping path.
    fn deviating_node(&self, columns: &[usize], t: f64, x: &[f64]) -> Option<usize> {
        let band = self.campaign.detection;
        columns
            .iter()
            .zip(&self.nominals)
            .position(|(&col, nominal)| !nominal.tracks(t, x[col], band.v_tol, band.t_tol))
    }

    /// The verdict for the earliest detection `(time, observed node)`,
    /// if any.
    fn outcome(&self, detected: Option<(f64, usize)>) -> FaultOutcome {
        match detected {
            Some((at, k)) => FaultOutcome::Detected {
                at,
                node: self.campaign.observe[k].clone(),
            },
            None => FaultOutcome::NotDetected,
        }
    }

    /// Runs one session over `faults`: the records matched from
    /// `checkpoint` replay first (in input order, never re-simulated),
    /// then the remaining faults run through the worker pool.
    /// `started` is the session's clock, started before the nominal
    /// pass.
    fn run_session(
        &self,
        faults: &[Fault],
        checkpoint: &[FaultRecord],
        started: Instant,
        on_event: impl FnMut(&CampaignProgress),
    ) -> CampaignResult {
        let mut progress = Progress {
            slots: vec![None; faults.len()],
            completed: 0,
            on_event,
        };
        let replayed = match_checkpoint(faults, checkpoint);
        for &(i, record) in &replayed {
            progress.emit(i, record.clone());
        }
        let pending: Vec<usize> = (0..faults.len())
            .filter(|&i| progress.slots[i].is_none())
            .collect();
        self.run_pool(faults, &pending, &mut progress);
        let records = progress
            .slots
            .into_iter()
            .map(|r| r.expect("every fault reports exactly once"))
            .collect();
        self.finish(
            records,
            replayed.len() as u64,
            started.elapsed().as_secs_f64(),
        )
    }

    /// The session worker pool: scoped workers pull pending fault
    /// indices off a shared counter and hand records back over a
    /// channel, so collection is lock-free and the progress callback
    /// runs on the calling thread.
    fn run_pool<F: FnMut(&CampaignProgress)>(
        &self,
        faults: &[Fault],
        pending: &[usize],
        progress: &mut Progress<F>,
    ) {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, FaultRecord)>();
        std::thread::scope(|scope| {
            for _ in 0..worker_threads(self.campaign.threads).min(pending.len()) {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || {
                    while let Some(&i) = pending.get(next.fetch_add(1, Ordering::Relaxed)) {
                        if tx.send((i, self.simulate_fault(&faults[i]))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            while let Ok((index, record)) = rx.recv() {
                progress.emit(index, record);
            }
        });
    }
}

/// Completion bookkeeping for one session: a slot per fault, the
/// arrival count and the caller's callback. Every record — replayed
/// or pooled — reaches the result through [`Progress::emit`].
struct Progress<F> {
    slots: Vec<Option<FaultRecord>>,
    completed: usize,
    on_event: F,
}

impl<F: FnMut(&CampaignProgress)> Progress<F> {
    /// Records one finished fault and streams its progress event.
    fn emit(&mut self, index: usize, record: FaultRecord) {
        self.completed += 1;
        let event = CampaignProgress {
            index,
            completed: self.completed,
            total: self.slots.len(),
            record,
        };
        (self.on_event)(&event);
        self.slots[index] = Some(event.record);
    }
}

impl CampaignSession<'_> {
    /// The faults this session will simulate (after the budget cut).
    pub fn faults(&self) -> &[Fault] {
        self.faults
    }

    /// Runs the session, blocking until done. Equivalent to
    /// [`CampaignSession::run_with_progress`] with an ignoring callback.
    ///
    /// # Errors
    /// See [`Campaign::run`].
    pub fn run(self) -> Result<CampaignResult, SpiceError> {
        self.run_with_progress(|_| {})
    }

    /// Runs the session, invoking `on_event` once per completed fault
    /// (in completion order). Worker threads hand records over an event
    /// channel — result collection is lock-free, and the callback runs
    /// on the calling thread, so it may freely update progress bars or
    /// stream to a service front-end.
    ///
    /// # Errors
    /// See [`Campaign::run`].
    pub fn run_with_progress(
        self,
        on_event: impl FnMut(&CampaignProgress),
    ) -> Result<CampaignResult, SpiceError> {
        self.execute(&[], on_event)
    }

    /// Resumes a session from checkpointed records: every fault whose
    /// id appears in `completed` is replayed verbatim — its record is
    /// cloned, never re-simulated — and only the remaining faults run
    /// through the scalar worker pool. Replay events stream first, in
    /// input order, then live completions in completion order, so a
    /// consumer sees every fault exactly once and
    /// `telemetry.replayed_faults` counts the replays.
    ///
    /// Records are matched by [`match_checkpoint`]: by
    /// [`Fault::id`](crate::Fault), first record per id, ignoring ids
    /// outside this session's (budgeted) fault list. The tail of an
    /// interrupted campaign runs exactly as it would have (honouring
    /// `early_stop`), so resumed verdicts match an uninterrupted run
    /// bit for bit.
    ///
    /// # Errors
    /// See [`Campaign::run`].
    pub fn run_resumed(
        self,
        completed: &[FaultRecord],
        on_event: impl FnMut(&CampaignProgress),
    ) -> Result<CampaignResult, SpiceError> {
        self.execute(completed, on_event)
    }

    /// Prepares the engine on a copy of the campaign and runs the
    /// session on it; the clock includes the nominal pass.
    fn execute(
        self,
        checkpoint: &[FaultRecord],
        on_event: impl FnMut(&CampaignProgress),
    ) -> Result<CampaignResult, SpiceError> {
        let started = Instant::now();
        let prepared = self.campaign.clone().prepare()?;
        Ok(prepared.run_session(self.faults, checkpoint, started, on_event))
    }
}

/// Campaign runs completed (successful `run_with_progress` returns).
static CAMPAIGN_RUNS: StaticCounter = StaticCounter::new("anafault.campaign.runs");
/// Faults simulated across all campaigns.
static CAMPAIGN_FAULTS: StaticCounter = StaticCounter::new("anafault.campaign.faults");
/// Faults whose outcome was `Detected`.
static CAMPAIGN_DETECTED: StaticCounter = StaticCounter::new("anafault.campaign.detected");
/// Faults abandoned early by fault dropping.
static CAMPAIGN_EARLY_STOPS: StaticCounter = StaticCounter::new("anafault.campaign.early_stops");

/// One flush at campaign end — the per-fault hot path stays free of
/// atomic traffic on the global registry.
fn flush_campaign_counters(result: &CampaignResult) {
    if !cat_telemetry::enabled() {
        return;
    }
    CAMPAIGN_RUNS.inc();
    CAMPAIGN_FAULTS.add(result.records.len() as u64);
    let detected = result
        .records
        .iter()
        .filter(|r| matches!(r.outcome, FaultOutcome::Detected { .. }))
        .count() as u64;
    CAMPAIGN_DETECTED.add(detected);
    CAMPAIGN_EARLY_STOPS.add(result.telemetry.early_stops);
}

impl CampaignResult {
    /// The nominal waveform of the primary (first) observed node.
    pub fn nominal(&self) -> &Wave {
        &self.nominals[0]
    }

    /// Detection times per fault (`None` for undetected or failed).
    pub fn detections(&self) -> Vec<Option<f64>> {
        self.records
            .iter()
            .map(|r| match r.outcome {
                FaultOutcome::Detected { at, .. } => Some(at),
                _ => None,
            })
            .collect()
    }

    /// Fault coverage versus time, sampled at `sample_times`.
    pub fn coverage_curve(&self, sample_times: &[f64]) -> Vec<(f64, f64)> {
        coverage_curve(&self.detections(), sample_times)
    }

    /// Final fault coverage in percent.
    pub fn final_coverage(&self) -> f64 {
        final_coverage(&self.detections())
    }

    /// Summed per-fault simulation seconds (the paper's protocol-file
    /// runtime comparison between fault models uses this).
    pub fn fault_sim_seconds(&self) -> f64 {
        self.records.iter().map(|r| r.sim_seconds).sum()
    }

    /// Total kernel work across all fault simulations.
    pub fn total_newton_iterations(&self) -> u64 {
        self.records.iter().map(|r| r.newton_iterations).sum()
    }

    /// Records of faults that failed to simulate or inject.
    pub fn failures(&self) -> Vec<&FaultRecord> {
        self.records
            .iter()
            .filter(|r| {
                matches!(
                    r.outcome,
                    FaultOutcome::InjectionFailed(_) | FaultOutcome::SimulationFailed(_)
                )
            })
            .collect()
    }

    /// Aggregates the per-fault records into a [`CampaignReport`]:
    /// verdict counts, summed kernel work, solver counters and the
    /// per-fault time/iteration distributions.
    pub fn report(&self) -> CampaignReport {
        let mut report = CampaignReport {
            faults: self.records.len() as u64,
            coverage_percent: self.final_coverage(),
            wall_seconds: self.total_seconds,
            nominal_seconds: self.nominal_seconds,
            fault_sim_seconds: self.fault_sim_seconds(),
            telemetry: self.telemetry,
            sim_seconds: HistogramSnapshot::empty(SIM_SECONDS_EDGES),
            iterations: HistogramSnapshot::empty(ITERATIONS_EDGES),
            ..CampaignReport::default()
        };
        let sim_hist = cat_telemetry::Histogram::new(SIM_SECONDS_EDGES);
        let iter_hist = cat_telemetry::Histogram::new(ITERATIONS_EDGES);
        for r in &self.records {
            match r.outcome {
                FaultOutcome::Detected { .. } => report.detected += 1,
                FaultOutcome::NotDetected => report.not_detected += 1,
                FaultOutcome::InjectionFailed(_) => report.injection_failed += 1,
                FaultOutcome::SimulationFailed(_) => report.simulation_failed += 1,
            }
            report.newton_iterations += r.telemetry.newton_iterations;
            report.failed_iterations += r.telemetry.failed_iterations;
            report.steps += r.telemetry.steps;
            report.halvings += r.telemetry.halvings;
            report.solver.merge(&r.telemetry.solver);
            sim_hist.record(r.sim_seconds);
            iter_hist.record(r.telemetry.newton_iterations as f64);
        }
        report.sim_seconds = sim_hist.snapshot();
        report.iterations = iter_hist.snapshot();
        report
    }
}

/// Bucket upper bounds for the per-fault wall-clock distribution (s).
const SIM_SECONDS_EDGES: &[f64] = &[1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0];
/// Bucket upper bounds for the per-fault Newton-iteration distribution.
const ITERATIONS_EDGES: &[f64] = &[1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6];

/// Aggregated campaign run report, built by [`CampaignResult::report`]
/// and persisted by bench binaries under `--metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Faults simulated.
    pub faults: u64,
    /// Faults whose response left the tolerance band.
    pub detected: u64,
    /// Faults that stayed within tolerance for the whole test.
    pub not_detected: u64,
    /// Faults whose injection failed.
    pub injection_failed: u64,
    /// Faults whose kernel simulation failed.
    pub simulation_failed: u64,
    /// Final fault coverage in percent.
    pub coverage_percent: f64,
    /// Wall-clock seconds for the whole campaign.
    pub wall_seconds: f64,
    /// Seconds spent on the nominal simulation.
    pub nominal_seconds: f64,
    /// Summed per-fault simulation seconds (across workers, so this
    /// exceeds `wall_seconds` on multi-threaded runs).
    pub fault_sim_seconds: f64,
    /// Accepted Newton solves across all fault simulations.
    pub newton_iterations: u64,
    /// Newton iterations of failed attempts across all fault
    /// simulations.
    pub failed_iterations: u64,
    /// Accepted transient steps across all fault simulations.
    pub steps: u64,
    /// Timestep halvings across all fault simulations.
    pub halvings: u64,
    /// Sparse-solver work counters summed over all fault simulations.
    pub solver: SolverStats,
    /// Session-wide pattern-cache and early-stop telemetry.
    pub telemetry: CampaignTelemetry,
    /// Distribution of per-fault wall-clock seconds.
    pub sim_seconds: HistogramSnapshot,
    /// Distribution of per-fault Newton iterations.
    pub iterations: HistogramSnapshot,
}

impl Default for CampaignReport {
    fn default() -> Self {
        CampaignReport {
            faults: 0,
            detected: 0,
            not_detected: 0,
            injection_failed: 0,
            simulation_failed: 0,
            coverage_percent: 0.0,
            wall_seconds: 0.0,
            nominal_seconds: 0.0,
            fault_sim_seconds: 0.0,
            newton_iterations: 0,
            failed_iterations: 0,
            steps: 0,
            halvings: 0,
            solver: SolverStats::default(),
            telemetry: CampaignTelemetry::default(),
            sim_seconds: HistogramSnapshot::empty(SIM_SECONDS_EDGES),
            iterations: HistogramSnapshot::empty(ITERATIONS_EDGES),
        }
    }
}

impl CampaignReport {
    /// Serialises the report as a single-line JSON object.
    pub fn to_json(&self) -> String {
        Json::from(self).to_string()
    }
}

impl From<&CampaignReport> for Json {
    fn from(r: &CampaignReport) -> Json {
        let t = &r.telemetry;
        Json::object([
            ("faults", r.faults.into()),
            ("detected", r.detected.into()),
            ("not_detected", r.not_detected.into()),
            ("injection_failed", r.injection_failed.into()),
            ("simulation_failed", r.simulation_failed.into()),
            ("coverage_percent", r.coverage_percent.into()),
            ("wall_seconds", r.wall_seconds.into()),
            ("nominal_seconds", r.nominal_seconds.into()),
            ("fault_sim_seconds", r.fault_sim_seconds.into()),
            ("newton_iterations", r.newton_iterations.into()),
            ("failed_iterations", r.failed_iterations.into()),
            ("steps", r.steps.into()),
            ("halvings", r.halvings.into()),
            ("early_stops", t.early_stops.into()),
            ("batches", t.batches.into()),
            ("batched_faults", t.batched_faults.into()),
            ("ejections", t.ejections.into()),
            // Every pattern-cache miss builds one pattern.
            ("pattern_builds", t.pattern_cache_misses.into()),
            ("pattern_cache_hits", t.pattern_cache_hits.into()),
            ("pattern_cache_misses", t.pattern_cache_misses.into()),
            ("pattern_cache_entries", t.pattern_cache_entries.into()),
            ("refactorisations", r.solver.refactorisations.into()),
            ("repivots", r.solver.repivots.into()),
            ("dense_fallbacks", r.solver.dense_fallbacks.into()),
            ("demotions", r.solver.demotions.into()),
            ("sim_seconds_distribution", (&r.sim_seconds).into()),
            ("newton_iterations_distribution", (&r.iterations).into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEffect;
    use spice::parser::parse_netlist;

    /// A simple RC low-pass with a pulse input: faults change the
    /// output visibly.
    fn testbench() -> Circuit {
        parse_netlist(
            "rc lowpass\n\
             V1 in 0 pulse(0 5 0 1u 1u 40u 100u)\n\
             R1 in out 10k\n\
             C1 out 0 1n ic=0\n\
             R2 out 0 100k\n\
             .end\n",
        )
        .unwrap()
    }

    fn campaign_builder() -> CampaignBuilder {
        Campaign::builder()
            .testbench(testbench())
            .tran(TranSpec::new(0.5e-6, 50e-6).with_uic())
            .observe("out")
            .detection(DetectionSpec {
                v_tol: 1.0,
                t_tol: 1e-6,
            })
            .model(HardFaultModel::paper_resistor())
            .threads(2)
    }

    fn campaign() -> Campaign {
        campaign_builder().build().unwrap()
    }

    fn fault_set() -> Vec<Fault> {
        vec![
            // Hard short in->out: output follows input instantly — detected.
            Fault::new(
                1,
                "BRI in->out",
                FaultEffect::Short {
                    a: "in".into(),
                    b: "out".into(),
                },
            ),
            // Output shorted to ground — detected.
            Fault::new(
                2,
                "BRI out->0",
                FaultEffect::Short {
                    a: "out".into(),
                    b: "0".into(),
                },
            ),
            // R2 drifts 5 %: invisible at 1 V tolerance — not detected.
            Fault::new(
                3,
                "SOFT R2 x1.05",
                FaultEffect::ParamDeviation {
                    element: "R2".into(),
                    factor: 1.05,
                },
            ),
            // R1 open: output never charges — detected.
            Fault::new(
                4,
                "OPN R1.0",
                FaultEffect::OpenTerminal {
                    element: "R1".into(),
                    terminal: 0,
                },
            ),
            // Bogus fault: injection failure recorded, campaign continues.
            Fault::new(
                5,
                "BAD",
                FaultEffect::Short {
                    a: "nope".into(),
                    b: "out".into(),
                },
            ),
        ]
    }

    #[test]
    fn builder_rejects_incomplete_configuration() {
        assert_eq!(
            Campaign::builder().build().unwrap_err(),
            ConfigError::MissingTestbench
        );
        assert_eq!(
            Campaign::builder()
                .testbench(testbench())
                .build()
                .unwrap_err(),
            ConfigError::MissingTran
        );
        assert_eq!(
            Campaign::builder()
                .testbench(testbench())
                .tran(TranSpec::new(1e-6, 1e-5))
                .build()
                .unwrap_err(),
            ConfigError::NoObservedNodes
        );
    }

    #[test]
    fn builder_defaults_match_the_paper() {
        let c = Campaign::builder()
            .testbench(testbench())
            .tran(TranSpec::new(1e-6, 1e-5))
            .observe("out")
            .build()
            .unwrap();
        assert_eq!(c.detection(), DetectionSpec::paper_fig5());
        assert_eq!(c.model(), HardFaultModel::paper_resistor());
        assert_eq!(c.observed(), ["out".to_string()]);
        assert_eq!(c.max_faults(), None);
        assert!(!c.early_stop_enabled());
    }

    #[test]
    fn campaign_detects_expected_subset() {
        let result = campaign().run(&fault_set()).unwrap();
        assert_eq!(result.records.len(), 5);
        assert!(matches!(
            result.records[0].outcome,
            FaultOutcome::Detected { .. }
        ));
        assert!(matches!(
            result.records[1].outcome,
            FaultOutcome::Detected { .. }
        ));
        assert_eq!(result.records[2].outcome, FaultOutcome::NotDetected);
        assert!(matches!(
            result.records[3].outcome,
            FaultOutcome::Detected { .. }
        ));
        assert!(matches!(
            result.records[4].outcome,
            FaultOutcome::InjectionFailed(_)
        ));
        // 3 of 5 detected.
        assert_eq!(result.final_coverage(), 60.0);
        assert_eq!(result.failures().len(), 1);
        // Every detection names the observed node.
        for r in &result.records {
            if let FaultOutcome::Detected { node, .. } = &r.outcome {
                assert_eq!(node, "out");
            }
        }
    }

    #[test]
    fn coverage_curve_reaches_final_value() {
        let result = campaign().run(&fault_set()).unwrap();
        let samples: Vec<f64> = (0..=50).map(|i| i as f64 * 1e-6).collect();
        let curve = result.coverage_curve(&samples);
        assert_eq!(curve.last().unwrap().1, result.final_coverage());
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = campaign_builder().threads(1).build().unwrap();
        let parallel = campaign_builder().threads(4).build().unwrap();
        let faults = fault_set();
        let a = serial.run(&faults).unwrap();
        let b = parallel.run(&faults).unwrap();
        let oa: Vec<_> = a.records.iter().map(|r| r.outcome.clone()).collect();
        let ob: Vec<_> = b.records.iter().map(|r| r.outcome.clone()).collect();
        assert_eq!(oa, ob);
    }

    #[test]
    fn missing_observe_node_is_fatal() {
        let c = campaign_builder().observe("ghost").build().unwrap();
        assert!(c.run(&fault_set()).is_err());
    }

    #[test]
    fn source_model_campaign_runs() {
        let c = campaign_builder()
            .model(HardFaultModel::Source)
            .build()
            .unwrap();
        let result = c.run(&fault_set()).unwrap();
        assert!(matches!(
            result.records[0].outcome,
            FaultOutcome::Detected { .. }
        ));
        assert_eq!(result.records[2].outcome, FaultOutcome::NotDetected);
    }

    /// Two independent RC branches: a fault on the second branch is
    /// invisible at the first output.
    fn two_branch_testbench() -> Circuit {
        parse_netlist(
            "two branches\n\
             V1 in 0 pulse(0 5 0 1u 1u 40u 100u)\n\
             R1 in out1 10k\n\
             C1 out1 0 1n ic=0\n\
             R2 in out2 10k\n\
             C2 out2 0 1n ic=0\n\
             .end\n",
        )
        .unwrap()
    }

    #[test]
    fn any_detect_across_multiple_observed_nodes() {
        let fault = vec![Fault::new(
            1,
            "BRI out2->0",
            FaultEffect::Short {
                a: "out2".into(),
                b: "0".into(),
            },
        )];
        let base = || {
            Campaign::builder()
                .testbench(two_branch_testbench())
                .tran(TranSpec::new(0.5e-6, 50e-6).with_uic())
                .detection(DetectionSpec {
                    v_tol: 1.0,
                    t_tol: 1e-6,
                })
                .threads(1)
        };
        // Observing only the healthy branch misses the fault …
        let miss = base().observe("out1").build().unwrap();
        let r = miss.run(&fault).unwrap();
        assert_eq!(r.records[0].outcome, FaultOutcome::NotDetected);
        // … observing both catches it, and names the detecting node.
        let hit = base().observe("out1").observe("out2").build().unwrap();
        let r = hit.run(&fault).unwrap();
        match &r.records[0].outcome {
            FaultOutcome::Detected { node, .. } => assert_eq!(node, "out2"),
            other => panic!("expected detection, got {other:?}"),
        }
        assert_eq!(r.observed, ["out1".to_string(), "out2".to_string()]);
        assert_eq!(r.nominals.len(), 2);
    }

    #[test]
    fn early_stop_outcomes_match_full_length() {
        let faults = fault_set();
        let full = campaign_builder().build().unwrap().run(&faults).unwrap();
        let dropped = campaign_builder()
            .early_stop(true)
            .build()
            .unwrap()
            .run(&faults)
            .unwrap();
        let oa: Vec<_> = full.records.iter().map(|r| r.outcome.clone()).collect();
        let ob: Vec<_> = dropped.records.iter().map(|r| r.outcome.clone()).collect();
        assert_eq!(oa, ob, "fault dropping must not change outcomes");
        // Detected faults abandon the rest of the transient, so the
        // kernel does strictly less work.
        assert!(
            dropped.total_newton_iterations() < full.total_newton_iterations(),
            "dropped {} vs full {}",
            dropped.total_newton_iterations(),
            full.total_newton_iterations()
        );
    }

    #[test]
    fn progress_stream_emits_one_event_per_fault() {
        let faults = fault_set();
        let c = campaign_builder().threads(4).build().unwrap();
        let mut events: Vec<(usize, usize, usize)> = Vec::new();
        let result = c
            .session(&faults)
            .run_with_progress(|p| events.push((p.index, p.completed, p.total)))
            .unwrap();
        assert_eq!(events.len(), faults.len());
        // `completed` counts arrivals 1..=n; `total` is constant.
        for (n, &(_, completed, total)) in events.iter().enumerate() {
            assert_eq!(completed, n + 1);
            assert_eq!(total, faults.len());
        }
        // Every input index reports exactly once.
        let mut indices: Vec<usize> = events.iter().map(|e| e.0).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..faults.len()).collect::<Vec<_>>());
        assert_eq!(result.records.len(), faults.len());
    }

    #[test]
    fn fault_budget_truncates_the_list() {
        let faults = fault_set();
        let c = campaign_builder().max_faults(2).build().unwrap();
        assert_eq!(c.session(&faults).faults().len(), 2);
        let result = c.run(&faults).unwrap();
        assert_eq!(result.records.len(), 2);
        assert_eq!(result.records[0].fault.id, 1);
        assert_eq!(result.records[1].fault.id, 2);
    }

    #[test]
    fn per_fault_telemetry_is_populated() {
        let result = campaign().run(&fault_set()).unwrap();
        for r in &result.records {
            assert_eq!(r.telemetry.wall.as_secs_f64(), r.sim_seconds);
            assert_eq!(r.telemetry.newton_iterations, r.newton_iterations);
            match &r.outcome {
                FaultOutcome::InjectionFailed(_) => {
                    assert_eq!(r.telemetry.steps, 0);
                    assert_eq!(r.telemetry.newton_iterations, 0);
                }
                _ => {
                    // Simulated faults took real transient steps and
                    // at least one Newton solve per step.
                    assert!(r.telemetry.steps > 0);
                    assert!(r.telemetry.newton_iterations >= r.telemetry.steps);
                    assert!(r.telemetry.wall > Duration::ZERO);
                }
            }
            // This RC testbench is below the sparse cutoff, so the
            // sparse counters stay untouched.
            assert_eq!(r.telemetry.solver, spice::SolverStats::default());
            assert!(!r.telemetry.early_stopped, "full runs never early-stop");
        }
    }

    #[test]
    fn session_telemetry_counts_cache_and_early_stops() {
        let faults = fault_set();
        let result = campaign_builder()
            .early_stop(true)
            .build()
            .unwrap()
            .run(&faults)
            .unwrap();
        let t = result.telemetry;
        // Dense-only campaign: nothing ever reaches the sparse cache.
        assert_eq!(t.pattern_cache_hits + t.pattern_cache_misses, 0);
        assert_eq!(t.pattern_cache_entries, 0);
        // The three detected faults dropped their remaining transient.
        assert_eq!(t.early_stops, 3);
        let flagged = result
            .records
            .iter()
            .filter(|r| r.telemetry.early_stopped)
            .count() as u64;
        assert_eq!(flagged, t.early_stops);
    }

    /// `BatchMode` is inert: `Auto` is exactly fault dropping — same
    /// verdicts, same kernel work — and `Off` is exactly the default.
    /// The batch counters kept on the wire never move.
    #[test]
    fn batch_mode_auto_only_turns_on_fault_dropping() {
        for (builder, faults) in scheduler_cases() {
            let dropping = builder.clone().early_stop(true).build().unwrap();
            let auto = builder.clone().batch(BatchMode::Auto).build().unwrap();
            let off = builder.clone().batch(BatchMode::Off).build().unwrap();
            assert!(auto.early_stop_enabled());
            assert!(!off.early_stop_enabled());
            let reference = dropping.run(&faults).unwrap();
            let result = auto.run(&faults).unwrap();
            assert_same_work(&result, &reference, "batch(Auto)");
            assert_same_work(
                &off.run(&faults).unwrap(),
                &builder.build().unwrap().run(&faults).unwrap(),
                "batch(Off)",
            );
            let t = result.telemetry;
            assert_eq!((t.batches, t.batched_faults, t.ejections), (0, 0, 0));
            assert!(result.records.iter().all(|r| !r.telemetry.ejected));
        }
    }

    #[test]
    fn signature_recording_populates_records_and_forces_full_length() {
        let c = campaign_builder()
            .record_signatures(true)
            .early_stop(true)
            .build()
            .unwrap();
        assert!(c.record_signatures_enabled());
        let points = c.signature_spec().points;
        let result = c.run(&fault_set()).unwrap();
        for r in &result.records {
            match &r.outcome {
                FaultOutcome::InjectionFailed(_) | FaultOutcome::SimulationFailed(_) => {
                    assert!(r.signature.is_none(), "failures carry no signature");
                }
                _ => {
                    let sig = r.signature.as_ref().expect("simulated faults record one");
                    assert_eq!(sig.nodes.len(), 1);
                    assert_eq!(sig.nodes[0].trajectory.len(), points);
                }
            }
            assert!(!r.telemetry.early_stopped, "recording runs full-length");
        }
        // Detected faults deviate visibly; their onset is where the
        // resampled deviation first crosses the detection tolerance.
        for r in &result.records {
            if let (FaultOutcome::Detected { .. }, Some(sig)) = (&r.outcome, &r.signature) {
                assert!(sig.nodes[0].peak_deviation > 0.0);
                assert!(sig.nodes[0].onset.is_some());
            }
        }
        // Default sessions never record.
        let plain = campaign().run(&fault_set()).unwrap();
        assert!(plain.records.iter().all(|r| r.signature.is_none()));
    }

    /// A 12-section RC ladder driven by a pulse: 14 unknowns, enough to
    /// clear the sparse cutoff so the sparse solver runs.
    fn ladder_testbench() -> Circuit {
        let mut s = String::from("ladder\nV1 in 0 pulse(0 5 0 1u 1u 40u 100u)\n");
        let mut prev = "in".to_string();
        for i in 1..=12 {
            s.push_str(&format!("R{i} {prev} n{i} 1k\nC{i} n{i} 0 1n ic=0\n"));
            prev = format!("n{i}");
        }
        s.push_str(".end\n");
        parse_netlist(&s).unwrap()
    }

    /// Shorts near and far from the observed node, an open, a soft
    /// deviation and a broken fault — a mix of detected, undetected,
    /// structural and failing injections.
    fn ladder_faults() -> Vec<Fault> {
        let mut faults = vec![Fault::new(
            1,
            "BRI in->n1",
            FaultEffect::Short {
                a: "in".into(),
                b: "n1".into(),
            },
        )];
        for i in 2..=6 {
            faults.push(Fault::new(
                i,
                format!("BRI n{}->n{}", i - 1, i),
                FaultEffect::Short {
                    a: format!("n{}", i - 1),
                    b: format!("n{i}"),
                },
            ));
        }
        faults.push(Fault::new(
            7,
            "BRI n12->0",
            FaultEffect::Short {
                a: "n12".into(),
                b: "0".into(),
            },
        ));
        faults.push(Fault::new(
            8,
            "SOFT R6 x1.02",
            FaultEffect::ParamDeviation {
                element: "R6".into(),
                factor: 1.02,
            },
        ));
        faults.push(Fault::new(
            9,
            "OPN R3.0",
            FaultEffect::OpenTerminal {
                element: "R3".into(),
                terminal: 0,
            },
        ));
        faults.push(Fault::new(
            10,
            "BAD",
            FaultEffect::Short {
                a: "nope".into(),
                b: "n1".into(),
            },
        ));
        faults
    }

    fn ladder_campaign(model: HardFaultModel) -> CampaignBuilder {
        Campaign::builder()
            .testbench(ladder_testbench())
            .tran(TranSpec::new(0.5e-6, 50e-6).with_uic())
            .observe("n12")
            .detection(DetectionSpec {
                v_tol: 1.0,
                t_tol: 1e-6,
            })
            .model(model)
            .threads(1)
    }

    #[test]
    fn report_aggregates_records() {
        let result = campaign().run(&fault_set()).unwrap();
        let report = result.report();
        assert_eq!(report.faults, 5);
        assert_eq!(report.detected, 3);
        assert_eq!(report.not_detected, 1);
        assert_eq!(report.injection_failed, 1);
        assert_eq!(report.simulation_failed, 0);
        assert_eq!(report.coverage_percent, 60.0);
        assert_eq!(
            report.newton_iterations,
            result.total_newton_iterations(),
            "report sums the same counters as the result accessors"
        );
        assert_eq!(report.fault_sim_seconds, result.fault_sim_seconds());
        assert_eq!(report.sim_seconds.count, 5);
        assert_eq!(report.iterations.count, 5);
        assert!(report.sim_seconds.sum > 0.0);

        // The JSON rendering exposes every counter and both
        // distributions, and parses back through the protocol parser.
        let json = report.to_json();
        let doc = crate::protocol::parse_json(&json).expect("report JSON parses");
        assert_eq!(doc.field("faults").unwrap().as_u64().unwrap(), 5);
        assert_eq!(doc.field("detected").unwrap().as_u64().unwrap(), 3);
        assert_eq!(
            doc.field("coverage_percent").unwrap().as_f64().unwrap(),
            60.0
        );
        for key in [
            "pattern_builds",
            "pattern_cache_hits",
            "refactorisations",
            "repivots",
            "dense_fallbacks",
            "demotions",
            "early_stops",
            "steps",
            "halvings",
        ] {
            assert!(doc.field(key).is_ok(), "missing report key `{key}`");
        }
        let dist = doc.field("sim_seconds_distribution").unwrap();
        let edges = dist.field("edges").unwrap().as_f64_array().unwrap();
        let counts = dist.field("counts").unwrap().as_array().unwrap();
        assert_eq!(counts.len(), edges.len() + 1);
        assert_eq!(dist.field("count").unwrap().as_u64().unwrap(), 5);
    }

    /// The kernel work of one record — every counter the scheduler
    /// must not change (the wall clock excluded).
    fn work(r: &FaultRecord) -> (u64, u64, u64, SolverStats) {
        let t = &r.telemetry;
        (t.steps, t.halvings, t.newton_iterations, t.solver)
    }

    /// The RC testbench (dense solver) and the ladder (sparse solver,
    /// so the solver counters are non-zero), each with its fault list.
    fn scheduler_cases() -> [(CampaignBuilder, Vec<Fault>); 2] {
        [
            (campaign_builder(), fault_set()),
            (
                ladder_campaign(HardFaultModel::paper_resistor()),
                ladder_faults(),
            ),
        ]
    }

    /// Asserts that `got` reaches the same verdicts with the same
    /// kernel work as `reference`, fault by fault.
    fn assert_same_work(got: &CampaignResult, reference: &CampaignResult, what: &str) {
        assert_eq!(got.records.len(), reference.records.len(), "{what}");
        for (i, (res, refr)) in got.records.iter().zip(&reference.records).enumerate() {
            assert_eq!(res.fault.id, refr.fault.id, "{what}");
            assert_eq!(res.outcome, refr.outcome, "verdict differs at {i}, {what}");
            assert_eq!(work(res), work(refr), "work differs at {i}, {what}");
        }
    }

    #[test]
    fn resume_replays_checkpoint_and_matches_uninterrupted_run() {
        for (builder, faults) in scheduler_cases() {
            for threads in [1, 4] {
                let campaign = builder.clone().threads(threads).build().unwrap();
                let reference = campaign.run(&faults).unwrap();
                for k in [0, 1, 3, faults.len()] {
                    let checkpoint: Vec<FaultRecord> = reference.records[..k].to_vec();
                    let mut events = 0usize;
                    let resumed = campaign
                        .session(&faults)
                        .run_resumed(&checkpoint, |p| {
                            // Replays stream first, in input order, verbatim.
                            if p.completed <= k {
                                assert_eq!(p.index, p.completed - 1);
                            }
                            events += 1;
                        })
                        .unwrap();
                    let what = format!("threads={threads}, k={k}");
                    assert_eq!(events, faults.len(), "one event per fault at {what}");
                    assert_eq!(resumed.telemetry.replayed_faults, k as u64);
                    assert_same_work(&resumed, &reference, &what);
                    for (res, refr) in resumed.records.iter().zip(&reference.records).take(k) {
                        // Replayed records are clones of the checkpoint —
                        // bitwise-equal timings prove nothing re-simulated.
                        assert_eq!(res.sim_seconds, refr.sim_seconds);
                        assert_eq!(res.telemetry, refr.telemetry);
                    }
                }
            }
        }
    }

    #[test]
    fn resume_ignores_unknown_and_duplicate_checkpoint_records() {
        let faults = fault_set();
        let reference = campaign().run(&faults).unwrap();
        let mut checkpoint = vec![reference.records[0].clone()];
        // A torn rewrite can duplicate a record; only the first counts.
        let mut dup = reference.records[0].clone();
        dup.sim_seconds = -1.0;
        checkpoint.push(dup);
        // A record from some other campaign's fault list is ignored.
        let mut alien = reference.records[1].clone();
        alien.fault.id = 9999;
        checkpoint.push(alien);
        let resumed = campaign()
            .session(&faults)
            .run_resumed(&checkpoint, |_| {})
            .unwrap();
        assert_eq!(resumed.telemetry.replayed_faults, 1);
        assert_eq!(
            resumed.records[0].sim_seconds,
            reference.records[0].sim_seconds
        );
        for (res, refr) in resumed.records.iter().zip(&reference.records) {
            assert_eq!(res.outcome, refr.outcome);
        }
    }

    #[test]
    fn prepared_campaign_matches_session_run() {
        for (builder, faults) in scheduler_cases() {
            for threads in [1, 4] {
                let campaign = builder.clone().threads(threads).build().unwrap();
                let reference = campaign.run(&faults).unwrap();
                let prepared = campaign.prepare().unwrap();
                let budgeted = prepared.budgeted(&faults);
                assert_eq!(budgeted.len(), faults.len());
                let records: Vec<FaultRecord> = budgeted
                    .iter()
                    .map(|f| prepared.simulate_fault(f))
                    .collect();
                let result = prepared.finish(records, 2, 1.5);
                assert_eq!(result.observed, reference.observed);
                assert_eq!(result.nominals, reference.nominals);
                assert_same_work(&result, &reference, &format!("threads={threads}"));
                assert_eq!(result.telemetry.replayed_faults, 2);
                assert_eq!(result.total_seconds, 1.5);
            }
        }
        // The ladder runs on the sparse solver, so the comparison above
        // covered its counters too.
        let ladder = ladder_campaign(HardFaultModel::paper_resistor())
            .build()
            .unwrap()
            .run(&ladder_faults())
            .unwrap();
        assert!(ladder
            .records
            .iter()
            .any(|r| r.telemetry.solver.refactorisations > 0));
    }

    #[test]
    fn prepared_campaign_budget_applies() {
        let prepared = campaign_builder()
            .max_faults(2)
            .build()
            .unwrap()
            .prepare()
            .unwrap();
        let faults = fault_set();
        assert_eq!(prepared.budgeted(&faults).len(), 2);
    }
}
