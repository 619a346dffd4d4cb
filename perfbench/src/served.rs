//! The `serve_mixed` workload: an in-process `anafault-serve` on
//! loopback, driven by a closed loop of clients that each submit a
//! fault-dropping fig5 campaign, follow its event stream to the result,
//! and then read campaigns completed in an earlier daemon life.

use crate::direct::check;
use crate::inputs::{self, permutation, permuted, Rng, Workload, ORDERS};
use crate::trace;
use crate::verdict::{Counts, Reference};
use crate::{peak_rss_mb, Observed, Tally, RSS_AFTER_FLOWS};
use anafault::protocol::{self, StreamEvent};
use anafault::{CampaignResult, CampaignSpec, Fault};
use serve::http;
use serve::{Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Campaigns completed before the restart; the reads target these.
const EARLIER_CAMPAIGNS: usize = 3;

/// Reads after each submit, cycling GET result, GET status and GET
/// events, so the three kinds stay in fixed proportion.
const READS_PER_SUBMIT: usize = 9;

/// What a served set-up leaves for the timed part.
pub struct Setup {
    /// Address of the restarted daemon.
    pub addr: String,
    /// Its state directory.
    pub state_dir: PathBuf,
    /// Campaigns finished in the daemon's earlier life.
    pub earlier: Vec<String>,
    /// Verdict table of the seed's spec.
    pub reference: Reference,
}

/// Starts a daemon on `state_dir` sized for `clients` closed-loop
/// clients. The daemon releases a campaign's quota only after its
/// stream has closed, so a client's next submit can arrive while its
/// previous campaign still counts: each client may hold two campaigns
/// and, while it follows a stream, one HTTP worker.
fn start(state_dir: &Path, clients: usize) -> Server {
    let clients = clients.max(EARLIER_CAMPAIGNS);
    Server::start(ServerConfig {
        state_dir: state_dir.to_path_buf(),
        max_campaigns: 2 * clients,
        http_workers: 2 * clients + 2,
        ..ServerConfig::default()
    })
    .expect("the daemon starts on loopback")
}

/// The result line of an event stream.
fn is_result_line(line: &str) -> bool {
    line.starts_with("{\"event\": \"result\"")
}

fn decode_result_line(line: &str) -> Result<CampaignResult, String> {
    match protocol::event_from_json(line) {
        Ok(StreamEvent::Result(r)) => Ok(r),
        Ok(StreamEvent::Progress(_)) => Err("result line decodes as progress".into()),
        Err(e) => Err(format!("result line does not parse: {e}")),
    }
}

/// The seed's set-up spec: the front end's faults in the first order.
fn setup_spec(seed: u64) -> (CampaignSpec, Vec<Fault>) {
    let fe = inputs::front_end(0);
    let n = fe.faults.len();
    let spec = inputs::spec(
        &fe.testbench,
        permuted(&fe.faults, &permutation(n, seed, 0)),
        "perfbench-setup",
    );
    (spec, fe.faults)
}

/// The daemon's earlier life, run in a child process (`perfbench
/// --first-life`): a daemon on `state_dir` completes the earlier
/// campaigns and the process exits, which stops the daemon. Returns
/// their ids, or why one did not complete.
pub fn first_life(seed: u64, state_dir: &Path) -> Result<Vec<String>, String> {
    let (spec, faults) = setup_spec(seed);
    let daemon = start(state_dir, EARLIER_CAMPAIGNS);
    let addr = daemon.addr().to_string();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..EARLIER_CAMPAIGNS as u64)
            .map(|k| {
                let mut spec = spec.clone();
                spec.faults = permuted(&faults, &permutation(faults.len(), seed, k % ORDERS));
                let addr = &addr;
                scope.spawn(move || submit_and_follow(addr, &spec.to_json()).map(|(id, _)| id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up client panicked"))
            .collect()
    })
}

/// One set-up in `state_dir`: front end, the reference run (direct,
/// in-process, scalar, fault dropping, over the campaign the seed's
/// spec rebuilds), the daemon's earlier life in a child process, and
/// the daemon's restart in this process on the same state directory,
/// sized for `clients`. The restarted daemon holds the earlier
/// campaigns only on disk.
pub fn setup(seed: u64, state_dir: PathBuf, clients: usize) -> Result<Setup, String> {
    let (spec, _) = setup_spec(seed);
    let direct = spec
        .build_campaign()
        .expect("the fig5 spec builds")
        .run(&spec.faults)
        .expect("the nominal fig5 simulation succeeds");
    let reference = Reference::new(&direct);

    let exe = std::env::current_exe().map_err(|e| format!("cannot find perfbench: {e}"))?;
    let child = Command::new(exe)
        .arg("--first-life")
        .arg(&state_dir)
        .args(["--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the daemon's first life: {e}"))?;
    let earlier: Vec<String> = String::from_utf8_lossy(&child.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    if !child.status.success() || earlier.len() != EARLIER_CAMPAIGNS {
        return Err(format!(
            "the daemon's first life ended with {} and {} campaigns",
            child.status,
            earlier.len()
        ));
    }
    let restarted = start(&state_dir, clients);
    Ok(Setup {
        addr: restarted.addr().to_string(),
        state_dir,
        earlier,
        reference,
    })
}

/// Runs one [`setup`] in a child process (`perfbench --setup-only`),
/// whose daemon ends with it. Returns the set-up's seconds as the child
/// measured them.
pub fn setup_in_child(seed: u64, state_dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find perfbench: {e}"))?;
    let child = Command::new(exe)
        .arg("--setup-only")
        .arg(state_dir)
        .args(["--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a set-up: {e}"))?;
    let out = String::from_utf8_lossy(&child.stdout);
    match out.lines().last().map(str::parse::<f64>) {
        Some(Ok(seconds)) if child.status.success() => Ok(seconds),
        _ => Err(format!(
            "a set-up in a child process ended with {}",
            child.status
        )),
    }
}

/// POSTs `spec_text` and follows the campaign's event stream to its
/// result line, without timing anything.
fn submit_and_follow(addr: &str, spec_text: &str) -> Result<(String, CampaignResult), String> {
    let (status, body) = http::request(addr, "POST", "/campaigns", Some(spec_text))
        .map_err(|e| format!("submit failed: {e}"))?;
    if status != 201 {
        return Err(format!("submit answered {status}: {}", body.trim()));
    }
    let id = campaign_id(&body).ok_or_else(|| format!("no id in {body}"))?;
    let mut result = None;
    let status = http::stream_request(addr, "GET", &format!("/campaigns/{id}/events"), None, |l| {
        if is_result_line(l) {
            result = Some(l.to_string());
        }
        Ok(())
    })
    .map_err(|e| format!("event stream failed: {e}"))?;
    if status != 200 {
        return Err(format!("event stream answered {status}"));
    }
    let line = result.ok_or("the stream ended without a result")?;
    Ok((id, decode_result_line(&line)?))
}

/// The `id` field of an admission response.
fn campaign_id(body: &str) -> Option<String> {
    let rest = &body[body.find("\"id\": \"")? + 7..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Per-client output of the timed loop.
#[derive(Default)]
pub struct ClientLog {
    pub obs: Observed,
    pub tally: Tally,
    /// Campaigns this client submitted.
    pub ids: Vec<String>,
    /// Bytes received on each live event stream.
    pub stream_bytes: Vec<u64>,
    /// Responses outside 2xx.
    pub http_errors: u64,
}

/// What the clients share: the count of finished submits and the
/// peak resident memory read when it reached [`RSS_AFTER_FLOWS`] per
/// client.
struct Progress {
    clients: u64,
    submits: AtomicU64,
    rss_mb: Mutex<Option<f64>>,
}

impl Progress {
    fn submitted(&self) {
        if self.submits.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AFTER_FLOWS * self.clients {
            *self.rss_mb.lock().expect("rss lock poisoned") = Some(peak_rss_mb());
        }
    }
}

/// Runs `clients` closed-loop clients for `seconds`, each making at
/// least [`RSS_AFTER_FLOWS`] submits. With `trace`, each client records
/// spans on odd iterations only. Returns the clients' logs and the
/// peak resident memory once every client could have made that many.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    clients: usize,
    setup: &Setup,
) -> (Vec<ClientLog>, Option<f64>) {
    let start = Instant::now();
    let progress = Progress {
        clients: clients as u64,
        submits: AtomicU64::new(0),
        rss_mb: Mutex::new(None),
    };
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                let progress = &progress;
                scope.spawn(move || client(k, seed, seconds, trace, start, setup, progress))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let rss_mb = *progress.rss_mb.lock().expect("rss lock poisoned");
    (logs, rss_mb)
}

fn client(
    k: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    start: Instant,
    setup: &Setup,
    progress: &Progress,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = Rng::new(seed, 2000 + k as u64);
    let samples = inputs::coverage_samples();
    let addr = setup.addr.as_str();
    let tag = format!("perfbench-{k}");
    let mut i: u64 = 0;
    while i < RSS_AFTER_FLOWS || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && i % 2 == 1;
        trace::set_enabled(traced);
        let order = (k as u64 + i) % ORDERS;
        let request = ((k as u64) << 32) | i;

        let flow_span = trace::span("flow", request);
        let t0 = Instant::now();
        let fe = inputs::front_end(request);
        let spec = inputs::spec(
            &fe.testbench,
            permuted(&fe.faults, &permutation(fe.faults.len(), seed, order)),
            &tag,
        );
        let text = {
            let _s = trace::span("protocol.spec_encode", request);
            spec.to_json()
        };
        let t_submit = Instant::now();
        let admitted = {
            let _s = trace::span("serve.admit", request);
            http::request(addr, "POST", "/campaigns", Some(&text))
        };
        let id = match admitted {
            Ok((201, body)) => campaign_id(&body),
            Ok((status, body)) => {
                log.http_errors += 1;
                log.tally
                    .op(vec![format!("submit answered {status}: {}", body.trim())]);
                progress.submitted();
                i += 1;
                continue;
            }
            Err(e) => {
                log.tally.op(vec![format!("submit failed: {e}")]);
                progress.submitted();
                i += 1;
                continue;
            }
        };
        let Some(id) = id else {
            log.tally
                .op(vec!["admission response carries no id".into()]);
            progress.submitted();
            i += 1;
            continue;
        };
        let mut first: Option<Instant> = None;
        let mut result: Option<(Instant, Result<CampaignResult, String>)> = None;
        let mut bytes = 0u64;
        let streamed = {
            let _s = trace::span("serve.stream", request);
            http::stream_request(addr, "GET", &format!("/campaigns/{id}/events"), None, |l| {
                first.get_or_insert_with(Instant::now);
                bytes += l.len() as u64 + 1;
                if is_result_line(l) {
                    let decoded = {
                        let _s = trace::span("protocol.result_decode", request);
                        decode_result_line(l)
                    };
                    result = Some((Instant::now(), decoded));
                }
                Ok(())
            })
        };
        let mut problems = Vec::new();
        match streamed {
            Ok(200) => {}
            Ok(status) => {
                log.http_errors += 1;
                problems.push(format!("event stream answered {status}"));
            }
            Err(e) => problems.push(format!("event stream failed: {e}")),
        }
        match result {
            Some((t_result, Ok(r))) => {
                let curve = {
                    let _s = trace::span("anafault.coverage", request);
                    r.coverage_curve(&samples)
                };
                let t_end = Instant::now();
                drop(flow_span);
                std::hint::black_box(curve);
                problems.extend(check(&setup.reference, &r));
                problems.extend(
                    log.obs
                        .counts
                        .record(Workload::ServeMixed.count_key(order), &r),
                );
                let lap = log.obs.lap(traced);
                let counts = Counts::of(&r);
                lap.lu.push(counts.refactorisations as f64);
                lap.newton.push(counts.newton_iterations as f64);
                lap.flow.push((t_end - t0).as_secs_f64());
                lap.submit.push((t_result - t_submit).as_secs_f64());
                lap.first_event
                    .push((first.unwrap_or(t_result) - t_submit).as_secs_f64());
                lap.verdicts += r.records.len() as u64;
                log.stream_bytes.push(bytes);
            }
            Some((_, Err(e))) => problems.push(e),
            None => problems.push("the stream ended without a result".into()),
        }
        log.tally.op(problems);
        log.ids.push(id);
        progress.submitted();

        for r in 0..READS_PER_SUBMIT {
            let target = &setup.earlier[rng.below(setup.earlier.len())];
            let (name, path) = match r % 3 {
                0 => ("serve.read.result", format!("/campaigns/{target}/result")),
                1 => ("serve.read.status", format!("/campaigns/{target}")),
                _ => ("serve.read.events", format!("/campaigns/{target}/events")),
            };
            let t = Instant::now();
            let answer = {
                let _s = trace::span(name, request);
                http::request(addr, "GET", &path, None)
            };
            log.obs
                .lap(traced)
                .reads
                .push(t.elapsed().as_secs_f64() * 1e3);
            let problems = match answer {
                Ok((status, body)) if (200..300).contains(&status) => {
                    verify_read(r % 3, target, &body, &setup.reference)
                }
                Ok((status, _)) => {
                    log.http_errors += 1;
                    vec![format!("GET {path} answered {status}")]
                }
                Err(e) => vec![format!("GET {path} failed: {e}")],
            };
            log.tally.op(problems);
        }
        i += 1;
    }
    trace::set_enabled(false);
    log
}

/// Checks a read's body: a result must match the reference, a status
/// must say done, and a replayed event stream must end in a matching
/// result after one progress line per fault.
fn verify_read(kind: usize, id: &str, body: &str, reference: &Reference) -> Vec<String> {
    match kind {
        0 => match protocol::from_json(body) {
            Ok(r) => check(reference, &r),
            Err(e) => vec![format!("result of {id} does not parse: {e}")],
        },
        1 if body.contains("\"phase\": \"done\"") => Vec::new(),
        1 => vec![format!("status of {id} is not done: {}", body.trim())],
        _ => {
            let lines: Vec<&str> = body.lines().collect();
            let Some((last, progress)) = lines.split_last() else {
                return vec![format!("events of {id} are empty")];
            };
            let mut problems = match decode_result_line(last) {
                Ok(r) => {
                    let mut p = check(reference, &r);
                    if progress.len() != r.records.len() {
                        p.push(format!(
                            "events of {id}: {} progress lines for {} faults",
                            progress.len(),
                            r.records.len()
                        ));
                    }
                    p
                }
                Err(e) => vec![e],
            };
            problems.truncate(8);
            problems
        }
    }
}

/// Sizes of the checkpoints of `ids` in the state directory (bytes).
pub fn checkpoint_bytes(state_dir: &Path, ids: &[String]) -> Vec<u64> {
    ids.iter()
        .filter_map(|id| std::fs::metadata(state_dir.join(format!("{id}.ndjson"))).ok())
        .map(|m| m.len())
        .collect()
}
