//! The `--metrics <path>` run-report layer shared by every bench
//! binary.
//!
//! When a binary is invoked with `--metrics out.json`, telemetry
//! collection is switched on for the process and, at exit, a single
//! JSON document is written containing the run's wall-clock, its named
//! phases, every counter and histogram from the [`cat_telemetry`]
//! global registry, and (for campaign binaries) the aggregated
//! [`CampaignReport`]. The document is written by the workspace's one
//! JSON writer ([`cat_telemetry::json`], document layout: one top-level
//! member per line, one phase per line) and parses back through
//! [`cat_telemetry::json::parse_json`].

use anafault::CampaignReport;
use cat_telemetry::json::Json;
use std::time::Instant;

/// Counter keys every run report must contain. Keys the registry has
/// not seen (a dense-only campaign never touches the sparse cache) are
/// written with value 0 rather than omitted, so report consumers —
/// including the CI smoke job — can rely on their presence.
pub const REQUIRED_COUNTERS: &[&str] = &[
    "spice.sparse.pattern_builds",
    "spice.sparse.pattern_cache.hits",
    "spice.sparse.pattern_cache.misses",
    "spice.sparse.refactorisations",
    "spice.sparse.repivots",
    "spice.sparse.dense_fallbacks",
    "spice.sparse.demotions",
    "spice.tran.runs",
    "spice.tran.steps",
    "spice.newton.iterations",
    "anafault.serve.requests",
    "anafault.serve.campaigns_started",
    "anafault.serve.campaigns_resumed",
    "anafault.serve.faults_replayed",
    "anafault.serve.stream_bytes",
    "anafault.diagnose.dictionaries_built",
    "anafault.diagnose.entries",
    "anafault.diagnose.classes",
    "anafault.diagnose.rankings",
];

/// Schema tag stamped into every run report.
pub const REPORT_SCHEMA: &str = "bench-report/1";

/// Per-binary metrics session. Construct with [`Metrics::from_args`]
/// at the top of `main`, mark coarse stages with [`Metrics::phase`],
/// and call [`Metrics::finish`] last.
#[derive(Debug)]
pub struct Metrics {
    bench: &'static str,
    path: Option<String>,
    start: Instant,
    phases: Vec<(String, f64)>,
    current: Option<(String, Instant)>,
    campaign: Option<CampaignReport>,
    diagnosis: Option<DiagnosisSummary>,
}

/// The diagnosis entry written into the run report: dictionary size,
/// ambiguity structure, and self-diagnosis accuracy. Produced by
/// [`crate::self_diagnose`].
#[derive(Debug, Clone, Copy)]
pub struct DiagnosisSummary {
    /// Faults with recorded signatures (dictionary entries).
    pub entries: usize,
    /// Ambiguity classes after clustering indistinguishable faults.
    pub classes: usize,
    /// Detected faults probed back through the dictionary.
    pub queries: usize,
    /// Probes whose true ambiguity class ranked first.
    pub top1: usize,
    /// Probes whose true ambiguity class ranked in the first three.
    pub top3: usize,
}

impl Metrics {
    /// Reads `--metrics <path>` from the process arguments. When the
    /// flag is present, telemetry collection is enabled process-wide;
    /// otherwise every later call is a cheap no-op.
    pub fn from_args(bench: &'static str) -> Metrics {
        let mut path = None;
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            if a == "--metrics" {
                path = args.next();
                if path.is_none() {
                    eprintln!("--metrics requires a file path");
                    std::process::exit(2);
                }
            }
        }
        Metrics::with_path(bench, path)
    }

    /// Builds a session from an already-parsed `--metrics` value — the
    /// entry point for binaries on the shared [`crate::ArgSpec`]
    /// parser, which owns the argument scan.
    pub fn with_path(bench: &'static str, path: Option<String>) -> Metrics {
        if path.is_some() {
            cat_telemetry::set_enabled(true);
        }
        Metrics {
            bench,
            path,
            start: Instant::now(),
            phases: Vec::new(),
            current: None,
            campaign: None,
            diagnosis: None,
        }
    }

    /// True when `--metrics` was given (telemetry is being collected).
    pub fn active(&self) -> bool {
        self.path.is_some()
    }

    /// Closes the running phase (if any) and opens a new one.
    pub fn phase(&mut self, name: &str) {
        self.end_phase();
        self.current = Some((name.to_string(), Instant::now()));
    }

    /// Attaches the aggregated campaign report to the run report.
    pub fn attach_campaign(&mut self, report: CampaignReport) {
        self.campaign = Some(report);
    }

    /// Attaches the fault-dictionary self-diagnosis summary.
    pub fn attach_diagnosis(&mut self, diagnosis: DiagnosisSummary) {
        self.diagnosis = Some(diagnosis);
    }

    /// Closes the session: when `--metrics` was given, renders the run
    /// report and writes it to the requested path.
    pub fn finish(mut self) {
        self.end_phase();
        let Some(path) = self.path.take() else {
            return;
        };
        let report = render_report(
            self.bench,
            self.start.elapsed().as_secs_f64(),
            &self.phases,
            self.campaign.as_ref(),
            self.diagnosis,
        );
        match std::fs::write(&path, report) {
            Ok(()) => eprintln!("metrics report written to {path}"),
            Err(e) => {
                eprintln!("failed to write metrics report to {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    fn end_phase(&mut self) {
        if let Some((name, t0)) = self.current.take() {
            self.phases.push((name, t0.elapsed().as_secs_f64()));
        }
    }
}

/// Renders the run-report JSON document: schema tag, bench name,
/// wall-clock, phases, the global registry's counters (with
/// [`REQUIRED_COUNTERS`] zero-filled) and histograms, plus the
/// campaign report when one was attached. Public so tests can validate
/// the schema without spawning a binary.
pub fn render_report(
    bench: &str,
    wall_seconds: f64,
    phases: &[(String, f64)],
    campaign: Option<&CampaignReport>,
    diagnosis: Option<DiagnosisSummary>,
) -> String {
    let phases = phases.iter().map(|(name, seconds)| {
        Json::object([
            ("name", name.as_str().into()),
            ("seconds", (*seconds).into()),
        ])
    });
    let mut counters = cat_telemetry::global().counter_values();
    for key in REQUIRED_COUNTERS {
        counters.entry(key.to_string()).or_insert(0);
    }
    let histograms = cat_telemetry::global().histogram_snapshots();
    let diagnosis = diagnosis.map(|d| {
        Json::object([
            ("entries", d.entries.into()),
            ("classes", d.classes.into()),
            ("queries", d.queries.into()),
            ("top1", d.top1.into()),
            ("top3", d.top3.into()),
        ])
    });
    Json::object([
        ("schema", REPORT_SCHEMA.into()),
        ("bench", bench.into()),
        ("wall_seconds", wall_seconds.into()),
        ("phases", phases.collect()),
        (
            "counters",
            Json::object(counters.into_iter().map(|(k, v)| (k, v.into()))),
        ),
        (
            "histograms",
            Json::object(histograms.iter().map(|(k, h)| (k.as_str(), h.into()))),
        ),
        ("diagnosis", diagnosis.into()),
        ("campaign", campaign.map(Json::from).into()),
    ])
    .to_document()
}
