//! Every protocol document kind against snapshots captured before the
//! JSON writer was unified (`tests/golden/`, written from the fixtures
//! in `samples/`).
//!
//! Result, spec, progress and checkpoint lines, diagnosis requests and
//! candidate lines must be byte-identical. The dictionary (`classes`
//! now one class per line) and the stream's result line (now compact
//! instead of the document with its newlines flattened) may differ in
//! whitespace only. Every snapshot must parse to a tree equal to
//! today's output and read back through its typed reader.
//!
//! `golden/legacy_*` keeps a result and a checkpoint as written while
//! the lockstep batch engine existed, with its `batch_width`,
//! `lane_compactions` and `lane_refills` keys. They must still parse,
//! and re-encode to today's snapshots: only those keys are gone.

mod samples;

use anafault::protocol::{self, parse_json, CampaignSpec, DiagnoseRequest, StreamEvent};

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn ndjson(lines: impl IntoIterator<Item = String>) -> String {
    lines.into_iter().map(|l| l + "\n").collect()
}

fn assert_same_tree(golden: &str, now: &str) {
    assert_eq!(parse_json(golden).unwrap(), parse_json(now).unwrap());
}

/// Whitespace-only difference: equal once all whitespace is dropped
/// (strings included; the tree comparison checks those exactly), and
/// equal as trees.
fn assert_whitespace_only(golden: &str, now: &str) {
    let squeeze = |s: &str| s.split_whitespace().collect::<String>();
    assert_eq!(squeeze(golden), squeeze(now));
    assert_same_tree(golden, now);
}

#[test]
fn results_are_byte_identical() {
    for (name, result) in [
        ("result.json", samples::result()),
        ("result_empty.json", samples::empty_result()),
    ] {
        let text = protocol::to_json(&result);
        assert_eq!(text, golden(name), "{name}");
        let back = protocol::from_json(&golden(name)).unwrap();
        assert_eq!(protocol::to_json(&back), text);
    }
}

#[test]
fn specs_are_byte_identical() {
    for (name, spec) in [
        ("spec.json", samples::spec()),
        ("spec_minimal.json", samples::minimal_spec()),
    ] {
        assert_eq!(spec.to_json(), golden(name), "{name}");
        assert_eq!(CampaignSpec::from_json(&golden(name)).unwrap(), spec);
    }
}

#[test]
fn progress_and_checkpoint_lines_are_byte_identical() {
    let stream = golden("stream.ndjson");
    let progress = samples::progress();
    let lines: Vec<&str> = stream.lines().collect();
    assert_eq!(lines.len(), progress.len() + 2);
    for (line, event) in lines.iter().zip(&progress) {
        assert_eq!(protocol::progress_to_json(event), *line);
    }
    // Checkpoint lines are progress lines as the daemon appends them.
    let checkpoint = golden("checkpoint.ndjson");
    for line in checkpoint.lines() {
        let Ok(StreamEvent::Progress(p)) = protocol::event_from_json(line) else {
            panic!("not a progress line: {line}");
        };
        assert_eq!(protocol::progress_to_json(&p), line);
    }
}

#[test]
fn result_lines_change_whitespace_only() {
    let stream = golden("stream.ndjson");
    let results = stream.lines().skip(samples::progress().len());
    for (old, result) in results.zip([samples::result(), samples::empty_result()]) {
        let now = protocol::result_event_json(&result);
        assert!(!now.contains('\n'));
        assert_whitespace_only(old, &now);
        let Ok(StreamEvent::Result(back)) = protocol::event_from_json(old) else {
            panic!("not a result line: {old}");
        };
        assert_eq!(protocol::result_event_json(&back), now);
    }
}

#[test]
fn diagnosis_requests_and_candidates_are_byte_identical() {
    let mut blank = samples::diagnose_request();
    blank.campaign = String::new();
    let requests = [samples::diagnose_request(), blank];
    assert_eq!(
        ndjson(requests.iter().map(DiagnoseRequest::to_json)),
        golden("diagnose.ndjson")
    );
    for (line, request) in golden("diagnose.ndjson").lines().zip(&requests) {
        assert_eq!(&DiagnoseRequest::from_json(line).unwrap(), request);
    }
    let candidates = samples::candidates();
    let lines = candidates
        .iter()
        .enumerate()
        .map(|(k, c)| protocol::candidate_json(k + 1, c));
    assert_eq!(ndjson(lines), golden("candidates.ndjson"));
}

#[test]
fn dictionaries_change_whitespace_only() {
    for (name, dict) in [
        ("dictionary.json", samples::dictionary()),
        ("dictionary_empty.json", samples::empty_dictionary()),
    ] {
        let now = protocol::dictionary_to_json(&dict);
        assert_whitespace_only(&golden(name), &now);
        assert_eq!(protocol::dictionary_from_json(&golden(name)).unwrap(), dict);
    }
}

#[test]
fn documents_with_lockstep_keys_still_parse() {
    let old = golden("legacy_result.json");
    assert!(old.contains("\"batch_width\": 4") && old.contains("\"lane_refills\""));
    let result = protocol::from_json(&old).unwrap();
    assert!(result.records[0].telemetry.ejected);
    assert_eq!(protocol::to_json(&result), golden("result.json"));

    let checkpoint = golden("legacy_checkpoint.ndjson");
    let lines: Vec<String> = checkpoint
        .lines()
        .map(|line| {
            assert!(line.contains("\"batch_width\""));
            let Ok(StreamEvent::Progress(p)) = protocol::event_from_json(line) else {
                panic!("not a progress line: {line}");
            };
            protocol::progress_to_json(&p)
        })
        .collect();
    assert_eq!(ndjson(lines), golden("checkpoint.ndjson"));
}
