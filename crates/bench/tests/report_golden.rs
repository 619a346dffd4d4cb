//! The `bench-report/1` run report against snapshots captured before
//! the JSON writer was unified (`tests/golden/`). Two changes are
//! allowed: `phases` is laid out one phase per line, and floats are
//! spelled the protocol way (`1.0`, not `1`). Every snapshot must parse
//! to a tree equal to today's output: same keys in the same order,
//! values bitwise equal.
//!
//! Telemetry stays off in this test binary, so the global registry
//! holds only the zero-filled required counters.

#[path = "../../anafault/tests/samples/mod.rs"]
mod samples;

use anafault::protocol::parse_json;
use bench::{render_report, DiagnosisSummary};

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_same_tree(golden: &str, now: &str) {
    assert_eq!(
        parse_json(golden).unwrap(),
        parse_json(now).unwrap(),
        "{now}"
    );
}

#[test]
fn reports_match_snapshots() {
    let phases = vec![("setup".to_string(), 0.25), ("campaign".to_string(), 1.0)];
    let full = render_report(
        "fig5",
        1.5,
        &phases,
        Some(&samples::result().report()),
        Some(DiagnosisSummary {
            entries: 4,
            classes: 3,
            queries: 4,
            top1: 4,
            top3: 4,
        }),
    );
    assert_same_tree(&golden("report.json"), &full);
    // One phase per line; the CI greps still find their members.
    assert!(full.contains(
        "  \"phases\": [\n    {\"name\": \"setup\", \"seconds\": 0.25},\n    \
         {\"name\": \"campaign\", \"seconds\": 1.0}\n  ],\n"
    ));
    assert!(full.contains("\n  \"diagnosis\": {\"entries\": 4, "));

    let partial = render_report(
        "tab \"x\"",
        1e-7,
        &phases[..1],
        Some(&samples::empty_result().report()),
        None,
    );
    assert_same_tree(&golden("report_partial.json"), &partial);

    let empty = render_report("empty", 0.0, &[], None, None);
    assert_same_tree(&golden("report_empty.json"), &empty);
}

#[test]
fn campaign_reports_match_snapshots() {
    let golden = golden("campaign_report.json");
    let lines: Vec<&str> = golden.lines().collect();
    let now = [samples::result(), samples::empty_result()].map(|r| r.report().to_json());
    assert_eq!(lines.len(), now.len());
    for (old, new) in lines.iter().zip(&now) {
        assert_same_tree(old, new);
    }
}
