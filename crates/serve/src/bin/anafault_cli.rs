//! `anafault-cli` — client for the `anafault-serve` campaign daemon.
//!
//! ```text
//! anafault-cli submit  --addr HOST:PORT --spec spec.json
//! anafault-cli tail    --addr HOST:PORT --id c1
//! anafault-cli run     --addr HOST:PORT --spec spec.json [--out result.json]
//! anafault-cli result  --addr HOST:PORT --id c1 [--wait SECS] [--out result.json]
//! anafault-cli direct  --spec spec.json [--out result.json]
//! anafault-cli diff    a.json b.json
//! anafault-cli dict    --addr HOST:PORT --id c1 [--out dict.json]
//! anafault-cli probe   dict.json <fault-id|first> --out probe.json
//! anafault-cli diagnose --addr HOST:PORT --id c1 --wave probe.json [--expect N]
//! anafault-cli metrics --addr HOST:PORT
//! anafault-cli health  --addr HOST:PORT
//! ```
//!
//! `direct` runs the spec in-process through `CampaignSession` — the
//! reference a served result must match bit-for-bit on verdicts; `diff`
//! performs that comparison (ignoring wall-clock fields) and exits 1 on
//! any mismatch. Together they are the acceptance check CI uses for the
//! kill-and-resume flow. `dict`/`probe`/`diagnose` drive the fault
//! dictionary: build it from a finished campaign, synthesize a probe
//! waveform from a recorded signature, and rank it — `--expect` turns
//! the last step into a self-diagnosis acceptance check (exit 1 when
//! the expected fault is not in the top-ranked ambiguity class).

use anafault::protocol::{self, CampaignSpec, DiagnoseRequest, StreamEvent};
use anafault::CampaignResult;
use serve::http;
use std::process::ExitCode;

const USAGE: &str = "\
usage: anafault-cli <command> [flags]

commands:
  submit   POST a campaign spec; prints the campaign id
  tail     stream a campaign's NDJSON events to stdout
  run      submit + tail; optionally write the final result with --out
  result   fetch a finished campaign's result (--wait SECS polls)
  direct   run the spec in-process (no daemon); the reference result
  diff     compare two result documents, ignoring timings; exit 1 on mismatch
  dict     build + persist a finished campaign's fault dictionary
  probe    synthesize a probe waveform file from a dictionary entry;
           prints the fault id (use `first` to pick the first entry)
  diagnose rank a waveform file against a campaign's dictionary;
           --expect N exits 1 unless fault N tops the ranking
  metrics  print the daemon's counter snapshot
  health   check the daemon is up

flags:
  --addr HOST:PORT   daemon address (submit/tail/run/result/dict/diagnose/metrics/health)
  --spec FILE        campaign spec document (submit/run/direct)
  --id ID            campaign id (tail/result/dict/diagnose)
  --out FILE         write the output document here (run/result/direct/dict/probe)
  --wait SECS        poll for up to SECS until the result is ready (result)
  --wave FILE        waveform document to diagnose (diagnose)
  --expect N         fault id that must top the ranking (diagnose)
";

struct Args {
    addr: Option<String>,
    spec: Option<String>,
    id: Option<String>,
    out: Option<String>,
    wait: Option<u64>,
    wave: Option<String>,
    expect: Option<usize>,
    positional: Vec<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        spec: None,
        id: None,
        out: None,
        wait: None,
        wave: None,
        expect: None,
        positional: Vec::new(),
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--spec" => args.spec = Some(value("--spec")?),
            "--id" => args.id = Some(value("--id")?),
            "--out" => args.out = Some(value("--out")?),
            "--wait" => {
                args.wait = Some(
                    value("--wait")?
                        .parse()
                        .map_err(|_| "--wait needs an integer".to_string())?,
                );
            }
            "--wave" => args.wave = Some(value("--wave")?),
            "--expect" => {
                args.expect = Some(
                    value("--expect")?
                        .parse()
                        .map_err(|_| "--expect needs a fault id".to_string())?,
                );
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

fn need<'a>(value: &'a Option<String>, name: &str) -> Result<&'a str, String> {
    value
        .as_deref()
        .ok_or_else(|| format!("{name} is required"))
}

fn load_spec(path: &str) -> Result<CampaignSpec, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec {path}: {e}"))?;
    CampaignSpec::from_json(&text).map_err(|e| format!("bad spec {path}: {e}"))
}

fn write_out(out: &Option<String>, text: &str) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            println!("{text}");
            Ok(())
        }
    }
}

fn submit(addr: &str, spec_path: &str) -> Result<String, String> {
    let spec = load_spec(spec_path)?;
    let (status, body) = http::request(addr, "POST", "/campaigns", Some(&spec.to_json()))
        .map_err(|e| format!("cannot reach {addr}: {e}"))?;
    if status != 201 {
        return Err(format!("submit rejected ({status}): {}", body.trim()));
    }
    let id = protocol::parse_json(&body)
        .ok()
        .and_then(|doc| Some(doc.get("id")?.as_str().ok()?.to_string()));
    id.ok_or_else(|| format!("no campaign id in response: {}", body.trim()))
}

/// Streams events, echoing each line, and returns the final result if
/// the stream reached it (a killed daemon cuts the stream short).
fn tail(addr: &str, id: &str) -> Result<Option<CampaignResult>, String> {
    let mut result = None;
    let status = http::stream_request(
        addr,
        "GET",
        &format!("/campaigns/{id}/events"),
        None,
        |line| {
            println!("{line}");
            if let Ok(StreamEvent::Result(r)) = protocol::event_from_json(line) {
                result = Some(r);
            }
            Ok(())
        },
    )
    .map_err(|e| format!("stream from {addr} failed: {e}"))?;
    if status != 200 {
        return Err(format!("event stream rejected ({status})"));
    }
    Ok(result)
}

fn fetch_result(addr: &str, id: &str, wait: u64) -> Result<String, String> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(wait);
    loop {
        let (status, body) = http::request(addr, "GET", &format!("/campaigns/{id}/result"), None)
            .map_err(|e| format!("cannot reach {addr}: {e}"))?;
        match status {
            200 => return Ok(body),
            409 if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            _ => return Err(format!("result not available ({status}): {}", body.trim())),
        }
    }
}

/// Verdict-level comparison of two result documents, ignoring the
/// wall-clock fields (`sim_seconds`, iteration counts, telemetry) that
/// legitimately differ between runs of the same campaign.
fn diff_results(a: &CampaignResult, b: &CampaignResult) -> Vec<String> {
    let mut problems = Vec::new();
    if a.observed != b.observed {
        problems.push(format!(
            "observed nodes differ: {:?} vs {:?}",
            a.observed, b.observed
        ));
    }
    if a.nominals != b.nominals {
        problems.push("nominal waveforms differ".to_string());
    }
    if a.records.len() != b.records.len() {
        problems.push(format!(
            "record counts differ: {} vs {}",
            a.records.len(),
            b.records.len()
        ));
        return problems;
    }
    for (ra, rb) in a.records.iter().zip(&b.records) {
        if ra.fault.id != rb.fault.id {
            problems.push(format!(
                "fault order differs: id {} vs id {}",
                ra.fault.id, rb.fault.id
            ));
        } else if ra.outcome != rb.outcome {
            problems.push(format!(
                "fault {} ({}): outcome {:?} vs {:?}",
                ra.fault.id, ra.fault.label, ra.outcome, rb.outcome
            ));
        }
    }
    if a.final_coverage() != b.final_coverage() {
        problems.push(format!(
            "coverage differs: {:?} vs {:?}",
            a.final_coverage(),
            b.final_coverage()
        ));
    }
    problems
}

fn run_command(command: &str, args: &Args) -> Result<ExitCode, String> {
    match command {
        "submit" => {
            let id = submit(need(&args.addr, "--addr")?, need(&args.spec, "--spec")?)?;
            println!("{id}");
            Ok(ExitCode::SUCCESS)
        }
        "tail" => {
            tail(need(&args.addr, "--addr")?, need(&args.id, "--id")?)?;
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let addr = need(&args.addr, "--addr")?;
            let id = submit(addr, need(&args.spec, "--spec")?)?;
            eprintln!("campaign {id}");
            let result = tail(addr, &id)?
                .ok_or_else(|| "event stream ended before the result".to_string())?;
            if args.out.is_some() {
                write_out(&args.out, &protocol::to_json(&result))?;
            }
            Ok(ExitCode::SUCCESS)
        }
        "result" => {
            let text = fetch_result(
                need(&args.addr, "--addr")?,
                need(&args.id, "--id")?,
                args.wait.unwrap_or(0),
            )?;
            write_out(&args.out, &text)?;
            Ok(ExitCode::SUCCESS)
        }
        "direct" => {
            let mut spec = load_spec(need(&args.spec, "--spec")?)?;
            // Same admission-time dedup the daemon applies, so direct
            // and served runs of one spec stay verdict-comparable.
            let deduped = spec.dedup_faults();
            if deduped > 0 {
                eprintln!("dropped {deduped} duplicate fault(s)");
            }
            let campaign = spec
                .build_campaign()
                .map_err(|e| format!("bad campaign: {e}"))?;
            let mut result = campaign
                .session(&spec.faults)
                .run()
                .map_err(|e| format!("campaign failed: {e}"))?;
            result.telemetry.deduped_faults = deduped;
            write_out(&args.out, &protocol::to_json(&result))?;
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let [pa, pb] = args.positional.as_slice() else {
                return Err("diff needs two result files".to_string());
            };
            let read = |p: &str| -> Result<CampaignResult, String> {
                let text =
                    std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
                protocol::from_json(&text).map_err(|e| format!("bad result {p}: {e}"))
            };
            let problems = diff_results(&read(pa)?, &read(pb)?);
            if problems.is_empty() {
                println!("results match: verdicts, nominals and coverage identical");
                Ok(ExitCode::SUCCESS)
            } else {
                for p in &problems {
                    eprintln!("mismatch: {p}");
                }
                Ok(ExitCode::FAILURE)
            }
        }
        "dict" => {
            let addr = need(&args.addr, "--addr")?;
            let id = need(&args.id, "--id")?;
            let (status, body) =
                http::request(addr, "POST", &format!("/campaigns/{id}/dictionary"), None)
                    .map_err(|e| format!("cannot reach {addr}: {e}"))?;
            if status != 201 {
                return Err(format!(
                    "dictionary build rejected ({status}): {}",
                    body.trim()
                ));
            }
            write_out(&args.out, &body)?;
            Ok(ExitCode::SUCCESS)
        }
        "probe" => {
            let [dict_path, which] = args.positional.as_slice() else {
                return Err("probe needs a dictionary file and a fault id (or `first`)".to_string());
            };
            let text = std::fs::read_to_string(dict_path)
                .map_err(|e| format!("cannot read dictionary {dict_path}: {e}"))?;
            let dict = protocol::dictionary_from_json(&text)
                .map_err(|e| format!("bad dictionary {dict_path}: {e}"))?;
            let fault_id = if which == "first" {
                dict.entries
                    .first()
                    .ok_or_else(|| "dictionary has no entries".to_string())?
                    .fault_id
            } else {
                which
                    .parse()
                    .map_err(|_| format!("`{which}` is not a fault id (or `first`)"))?
            };
            let waves = dict
                .probe_waves(fault_id)
                .ok_or_else(|| format!("fault {fault_id} is not in the dictionary"))?;
            // The campaign tag is filled in by `diagnose --id`.
            let request = DiagnoseRequest {
                campaign: String::new(),
                waves,
            };
            let out = need(&args.out, "--out")?;
            std::fs::write(out, request.to_json())
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("{fault_id}");
            Ok(ExitCode::SUCCESS)
        }
        "diagnose" => {
            let addr = need(&args.addr, "--addr")?;
            let id = need(&args.id, "--id")?;
            let wave_path = need(&args.wave, "--wave")?;
            let text = std::fs::read_to_string(wave_path)
                .map_err(|e| format!("cannot read waves {wave_path}: {e}"))?;
            let mut request = DiagnoseRequest::from_json(&text)
                .map_err(|e| format!("bad wave document {wave_path}: {e}"))?;
            request.campaign = id.to_string();
            let mut first = None;
            let status = http::stream_request(
                addr,
                "POST",
                "/diagnose",
                Some(&request.to_json()),
                |line| {
                    println!("{line}");
                    if first.is_none() {
                        first = Some(line.to_string());
                    }
                    Ok(())
                },
            )
            .map_err(|e| format!("cannot reach {addr}: {e}"))?;
            if status != 200 {
                return Err(format!("diagnosis rejected ({status})"));
            }
            let first = first.ok_or_else(|| "daemon returned no candidates".to_string())?;
            let (_, top) = protocol::candidate_from_json(&first)
                .map_err(|e| format!("bad candidate line: {e}"))?;
            if let Some(expected) = args.expect {
                if !top.fault_ids.contains(&expected) {
                    eprintln!(
                        "fault {expected} is not in the top-ranked ambiguity class {:?}",
                        top.fault_ids
                    );
                    return Ok(ExitCode::FAILURE);
                }
                eprintln!("top-1 ambiguity class contains fault {expected}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "metrics" => {
            let (status, body) =
                http::request(need(&args.addr, "--addr")?, "GET", "/metrics", None)
                    .map_err(|e| format!("cannot reach daemon: {e}"))?;
            if status != 200 {
                return Err(format!("metrics rejected ({status})"));
            }
            println!("{body}");
            Ok(ExitCode::SUCCESS)
        }
        "health" => {
            let (status, body) =
                http::request(need(&args.addr, "--addr")?, "GET", "/healthz", None)
                    .map_err(|e| format!("cannot reach daemon: {e}"))?;
            if status != 200 {
                return Err(format!("unhealthy ({status}): {}", body.trim()));
            }
            println!("{}", body.trim());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("anafault-cli: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_command(command, &args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("anafault-cli: {message}");
            ExitCode::FAILURE
        }
    }
}
