//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <campaign_full|campaign_drop|serve_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed, sets up (several times,
//! reporting the median), runs the workload for `--seconds`, checks
//! every verdict against a reference run, and prints as its last line
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `--trace 0` reports the bounded end-to-end metrics and prints the
//! wall-clock ones above that line; `--trace 1` reports the per-layer
//! metrics from spans recorded around the program's public calls, the
//! wall-clock metrics and the tracing overhead, and writes the spans
//! to `.bench_out/`. The exit code is 1 when any check failed.
//!
//! `serve_mixed` also runs this binary as a child process in two
//! internal modes: `--first-life <dir> --seed <n>` (the daemon's life
//! before its restart, see [`served::first_life`]) and `--setup-only
//! <dir> --seed <n>` (one set-up whose daemon ends with the process).

mod direct;
mod inputs;
mod served;
mod stats;
mod trace;
mod verdict;

use inputs::Workload;
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use verdict::{ejected_seconds, Counts};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Flows (served: submits) per client after which `peak_rss_mb` is
/// read, so the figure does not grow with the flows a run completes.
/// Every run makes at least this many.
pub const RSS_AFTER_FLOWS: u64 = 2;

/// Operations attempted and failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed when `problems` is not empty.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems.iter().take(5) {
                eprintln!("perfbench: FAILED: {p}");
            }
        }
    }

    fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Timings of one kind of iteration (traced or untraced).
#[derive(Debug, Default)]
pub struct Samples {
    /// Whole-flow wall (s).
    pub flow: Vec<f64>,
    /// Campaign hand-over to result (s).
    pub submit: Vec<f64>,
    /// Campaign hand-over to the first fault verdict (s).
    pub first_event: Vec<f64>,
    /// Read latencies (ms).
    pub reads: Vec<f64>,
    /// LU refactorisations of each campaign.
    pub lu: Vec<f64>,
    /// Accepted Newton iterations of each campaign, lockstep lanes
    /// included.
    pub newton: Vec<f64>,
    /// Fault verdicts delivered.
    pub verdicts: u64,
}

impl Samples {
    fn merge(&mut self, other: Samples) {
        self.flow.extend(other.flow);
        self.submit.extend(other.submit);
        self.first_event.extend(other.first_event);
        self.reads.extend(other.reads);
        self.lu.extend(other.lu);
        self.newton.extend(other.newton);
        self.verdicts += other.verdicts;
    }
}

/// Work counts per key ([`Workload::count_key`]); flows under one key
/// must agree.
#[derive(Debug, Default)]
pub struct CountLog {
    by_key: BTreeMap<u64, (Counts, f64)>,
}

impl CountLog {
    /// Logs the counts of a flow under `key`; returns a problem when an
    /// earlier flow under the same key counted differently.
    pub fn record(&mut self, key: u64, result: &anafault::CampaignResult) -> Vec<String> {
        self.add(key, Counts::of(result), ejected_seconds(result))
    }

    fn add(&mut self, key: u64, counts: Counts, ejected_s: f64) -> Vec<String> {
        match self.by_key.get(&key) {
            None => {
                self.by_key.insert(key, (counts, ejected_s));
                Vec::new()
            }
            Some((seen, _)) if *seen == counts => Vec::new(),
            Some((seen, _)) => vec![format!(
                "work counts under key {key} differ between flows: {seen:?} vs {counts:?}"
            )],
        }
    }

    fn merge(&mut self, other: &CountLog) -> Vec<String> {
        let mut problems = Vec::new();
        for (&key, &(c, e)) in &other.by_key {
            problems.extend(self.add(key, c, e));
        }
        problems
    }
}

/// Everything a timed loop observed.
#[derive(Debug, Default)]
pub struct Observed {
    pub untraced: Samples,
    pub traced: Samples,
    pub counts: CountLog,
    /// Wall of the timed loop (s).
    pub wall: f64,
    /// Peak resident memory after [`RSS_AFTER_FLOWS`] flows (MB).
    pub rss_mb: Option<f64>,
}

impl Observed {
    /// The samples of a traced or untraced iteration.
    pub fn lap(&mut self, traced: bool) -> &mut Samples {
        if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        }
    }
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What the command line asks for.
enum Mode {
    /// Run a workload.
    Run(Args),
    /// Internal: the daemon's first life in a `serve_mixed` set-up.
    FirstLife { seed: u64, state_dir: PathBuf },
    /// Internal: one `serve_mixed` set-up; prints its seconds.
    SetupOnly { seed: u64, state_dir: PathBuf },
}

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut first_life = None;
    let mut setup_only = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--first-life" => first_life = Some(PathBuf::from(value)),
            "--setup-only" => setup_only = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds takes a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if let Some(state_dir) = first_life {
        return Ok(Mode::FirstLife { seed, state_dir });
    }
    if let Some(state_dir) = setup_only {
        return Ok(Mode::SetupOnly { seed, state_dir });
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Mode::Run(Args {
        workload: Workload::parse(&workload_name)
            .ok_or(format!("unknown workload {workload_name}"))?,
        workload_name,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Peak resident set size of this process (MB), from the kernel.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Durations of the spans named `name`.
fn durations(spans: &[trace::Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(trace::Span::duration)
        .collect()
}

fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

fn quantile_or_zero(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        quantile(xs, q)
    }
}

fn median_u64(xs: &[u64]) -> f64 {
    median_or_zero(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// Sums self time per span name and prints the table to stderr.
fn print_self_times(spans: &[trace::Span]) {
    let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(trace::self_times(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration();
        e.2 += own;
    }
    eprintln!("perfbench: span                      count    total_s     self_s");
    for (name, (n, total, own)) in by_name {
        eprintln!("perfbench: {name:<24} {n:>7} {total:>10.4} {own:>10.4}");
    }
}

/// Writes the spans to `.bench_out/trace-<workload>-<seed>.ndjson`.
fn write_spans(args: &Args, spans: &[trace::Span]) {
    let dir = PathBuf::from(".bench_out");
    let path = dir.join(format!("trace-{}-{}.ndjson", args.workload_name, args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace::to_ndjson(spans)));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Reports the outcome of an internal child mode: prints `lines` on
/// success, the error otherwise.
fn child_exit(outcome: Result<Vec<String>, String>) -> ExitCode {
    match outcome {
        Ok(lines) => {
            for l in lines {
                println!("{l}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let args = match parse_args() {
        Ok(Mode::Run(a)) => a,
        Ok(Mode::FirstLife { seed, state_dir }) => {
            return child_exit(served::first_life(seed, &state_dir));
        }
        Ok(Mode::SetupOnly { seed, state_dir }) => {
            let t = Instant::now();
            let setup = served::setup(seed, state_dir, clients);
            return child_exit(setup.map(|_| vec![t.elapsed().as_secs_f64().to_string()]));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <campaign_full|campaign_drop|serve_mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut obs = Observed::default();
    let mut serve_extra: Option<(Vec<u64>, Vec<u64>, u64)> = None;
    let mut result_bytes = 0;
    let state_root = PathBuf::from(".bench_state").join(format!(
        "{}-{}-{}",
        args.workload_name,
        args.seed,
        std::process::id()
    ));

    match args.workload {
        Workload::CampaignFull | Workload::CampaignDrop => {
            let mut references = Vec::new();
            for _ in 0..SETUP_REPEATS {
                let t = Instant::now();
                references.push(direct::setup(args.seed));
                setup_s.push(t.elapsed().as_secs_f64());
            }
            let reference = references.pop().expect("at least one set-up");
            if references.iter().any(|r| *r != reference) {
                tally.op(vec!["reference runs of one seed disagree".into()]);
            }
            if args.trace {
                result_bytes = direct::layer_pass(args.workload, args.seed, &reference, &mut tally);
            }
            direct::run(
                args.workload,
                args.seed,
                args.seconds,
                args.trace,
                &reference,
                &mut obs,
                &mut tally,
            );
        }
        Workload::ServeMixed => {
            // All but the last set-up run in child processes, so that
            // only the kept set-up's daemon lives in this one.
            for rep in 1..SETUP_REPEATS {
                match served::setup_in_child(args.seed, &state_root.join(format!("setup-{rep}"))) {
                    Ok(s) => setup_s.push(s),
                    Err(e) => tally.op(vec![e]),
                }
            }
            let t = Instant::now();
            let setup = served::setup(args.seed, state_root.join("setup-0"), clients);
            setup_s.push(t.elapsed().as_secs_f64());
            match setup {
                Ok(setup) => {
                    if args.trace {
                        result_bytes = direct::layer_pass(
                            args.workload,
                            args.seed,
                            &setup.reference,
                            &mut tally,
                        );
                    }
                    let t = Instant::now();
                    let (logs, rss_mb) =
                        served::run(args.seed, args.seconds, args.trace, clients, &setup);
                    obs.wall = t.elapsed().as_secs_f64();
                    obs.rss_mb = rss_mb;
                    let mut ids = Vec::new();
                    let mut stream_bytes = Vec::new();
                    let mut http_errors = 0;
                    for log in logs {
                        tally.merge(&log.tally);
                        let problems = obs.counts.merge(&log.obs.counts);
                        if !problems.is_empty() {
                            tally.op(problems);
                        }
                        obs.untraced.merge(log.obs.untraced);
                        obs.traced.merge(log.obs.traced);
                        ids.extend(log.ids);
                        stream_bytes.extend(log.stream_bytes);
                        http_errors += log.http_errors;
                    }
                    let checkpoints = served::checkpoint_bytes(&setup.state_dir, &ids);
                    serve_extra = Some((stream_bytes, checkpoints, http_errors));
                }
                Err(e) => tally.op(vec![e]),
            }
        }
    }
    if let Err(e) = std::fs::remove_dir_all(&state_root) {
        if state_root.exists() {
            eprintln!("perfbench: cannot remove {}: {e}", state_root.display());
        }
    }
    // Succeeds only once no other run keeps its state there.
    std::fs::remove_dir(".bench_state").ok();
    eprintln!(
        "perfbench: {} set-ups, median {:.3} s; {:.3} s from process start to the end",
        setup_s.len(),
        median_or_zero(&setup_s),
        process_start.elapsed().as_secs_f64()
    );

    let u = &obs.untraced;
    let mut problems = Vec::new();
    // Only `serve_mixed` reads; on the direct workloads `read_*` is 0.
    let tail = stats::tail(&u.reads);
    match tail {
        Some(t) => println!(
            "read_tail_ms = {:.4} ms at p{:.1} of {} reads",
            t.value, t.percentile, t.samples
        ),
        None if args.workload == Workload::ServeMixed => {
            problems.push(format!("only {} reads: no tail percentile", u.reads.len()))
        }
        None => {}
    }
    println!(
        "samples: {} flows, {} reads, {} verdicts in {:.2} s on {} cores",
        u.flow.len(),
        u.reads.len(),
        u.verdicts,
        obs.wall,
        clients
    );
    // Wall-clock metrics of the flow follow the host's speed, which is
    // not steady (see the README), so they carry no regression bound:
    // they are printed here and reported beside the per-layer metrics.
    let timings = [
        metric("flow_s", median_or_zero(&u.flow), "s"),
        metric("submit_to_result_s", median_or_zero(&u.submit), "s"),
        metric(
            "faults_per_s",
            (u.verdicts + obs.traced.verdicts) as f64 / obs.wall,
            "1/s",
        ),
        metric("first_event_s", median_or_zero(&u.first_event), "s"),
        metric("read_p50_ms", median_or_zero(&u.reads), "ms"),
        metric("read_tail_ms", tail.map_or(0.0, |t| t.value), "ms"),
    ];
    let mut metrics;
    if !args.trace {
        for m in &timings {
            println!(
                "{} = {} {} (unbounded; reported under --trace 1)",
                m.name, m.value, m.unit
            );
        }
        metrics = vec![
            metric("setup_s", median_or_zero(&setup_s), "s"),
            metric("lu_per_campaign", median_or_zero(&u.lu), "count"),
            metric("newton_per_campaign", median_or_zero(&u.newton), "count"),
            metric("peak_rss_mb", obs.rss_mb.unwrap_or_else(peak_rss_mb), "MB"),
        ];
    } else {
        let spans = trace::spans();
        write_spans(&args, &spans);
        print_self_times(&spans);
        let d = |name: &str| durations(&spans, name);
        let faults = d("anafault.simulate_fault");
        let (counts, ejected_s) = obs
            .counts
            .by_key
            .get(&0)
            .copied()
            .unwrap_or((Counts::default(), 0.0));
        println!("work counts (first order): {counts:?}");
        let (stream_bytes, checkpoints, http_errors) = serve_extra.unwrap_or_default();
        let t = &obs.traced;
        let overhead = |traced: &[f64], untraced: &[f64]| {
            if traced.is_empty() || untraced.is_empty() {
                0.0
            } else {
                median(traced) - median(untraced)
            }
        };
        println!(
            "tracing overhead from {} traced and {} untraced flows",
            t.flow.len(),
            u.flow.len()
        );
        let lift_faults = inputs::front_end(0).faults.len();
        metrics = vec![
            metric("layout.build_s", median_or_zero(&d("layout.build")), "s"),
            metric("extract.s", median_or_zero(&d("extract")), "s"),
            metric("lift.s", median_or_zero(&d("lift")), "s"),
            metric("lift.faults", lift_faults as f64, "count"),
            metric(
                "anafault.nominal_s",
                median_or_zero(&d("anafault.prepare")),
                "s",
            ),
            metric("anafault.inject_s", d("anafault.inject").iter().sum(), "s"),
            metric("anafault.fault_p50_s", quantile_or_zero(&faults, 0.5), "s"),
            metric("anafault.fault_p90_s", quantile_or_zero(&faults, 0.9), "s"),
            metric("anafault.fault_max_s", quantile_or_zero(&faults, 1.0), "s"),
            metric(
                "anafault.serial_s",
                median_or_zero(&d("anafault.serial")),
                "s",
            ),
            metric(
                "anafault.coverage_s",
                median_or_zero(&d("anafault.coverage")),
                "s",
            ),
            metric("spice.steps", counts.steps as f64, "count"),
            metric("spice.halvings", counts.halvings as f64, "count"),
            metric(
                "spice.newton_iterations",
                counts.newton_iterations as f64,
                "count",
            ),
            metric(
                "spice.refactorisations",
                counts.refactorisations as f64,
                "count",
            ),
            metric(
                "spice.pattern_builds",
                counts.pattern_builds as f64,
                "count",
            ),
            metric("spice.newton_yield", counts.newton_yield(), "ratio"),
            metric("batch.batches", counts.batches as f64, "count"),
            metric("batch.lanes", counts.lanes() as f64, "count"),
            metric("batch.ejections", counts.ejections as f64, "count"),
            metric("batch.lane_yield", counts.lane_yield(), "ratio"),
            metric("batch.ejected_s", ejected_s, "s"),
            metric(
                "protocol.spec_encode_s",
                median_or_zero(&d("protocol.spec_encode")),
                "s",
            ),
            metric(
                "protocol.spec_decode_s",
                median_or_zero(&d("protocol.spec_decode")),
                "s",
            ),
            metric(
                "protocol.result_encode_s",
                median_or_zero(&d("protocol.result_encode")),
                "s",
            ),
            metric(
                "protocol.result_decode_s",
                median_or_zero(&d("protocol.result_decode")),
                "s",
            ),
            metric("protocol.result_bytes", result_bytes as f64, "bytes"),
            metric("serve.admit_s", median_or_zero(&d("serve.admit")), "s"),
            metric("serve.stream_s", median_or_zero(&d("serve.stream")), "s"),
            metric(
                "serve.replay_s",
                median_or_zero(&d("serve.read.events")),
                "s",
            ),
            metric("serve.stream_bytes", median_u64(&stream_bytes), "bytes"),
            metric("serve.checkpoint_bytes", median_u64(&checkpoints), "bytes"),
            metric("serve.http_errors", http_errors as f64, "count"),
            metric("trace.overhead_flow_s", overhead(&t.flow, &u.flow), "s"),
            metric(
                "trace.overhead_submit_s",
                overhead(&t.submit, &u.submit),
                "s",
            ),
        ];
        metrics.extend(timings);
    }
    if !problems.is_empty() {
        tally.op(problems);
    }
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    if args.trace {
        metrics.push(metric("failed_share", failed_share, "ratio"));
    }
    println!(
        "failed_share = {failed_share} ({} of {})",
        tally.failed, tally.attempted
    );
    for m in &metrics {
        println!("{:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            line,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_log_flags_a_changed_count_of_one_order() {
        let mut log = CountLog::default();
        let c = Counts {
            steps: 10,
            ..Counts::default()
        };
        assert!(log.add(0, c, 0.0).is_empty());
        assert!(log.add(0, c, 0.5).is_empty(), "walls may differ");
        assert!(log.add(1, Counts::default(), 0.0).is_empty());
        let d = Counts { steps: 11, ..c };
        assert_eq!(log.add(0, d, 0.0).len(), 1);
    }

    #[test]
    fn tally_counts_failed_operations() {
        let mut t = Tally::default();
        t.op(Vec::new());
        t.op(vec!["mismatch".into(), "another".into()]);
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
