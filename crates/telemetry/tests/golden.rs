//! The telemetry JSON (histogram snapshots and NDJSON sink events)
//! against snapshots captured before the JSON writer was unified. The
//! only change allowed is float spelling (`1` became `1.0`, and a long
//! digit string became `1e300`), so every snapshot must parse to a
//! tree equal to today's output.

use cat_telemetry::json::parse_json;
use cat_telemetry::{Event, HistogramSnapshot};

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn assert_same_lines(golden: &str, now: &[String]) {
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), now.len());
    for (old, new) in lines.iter().zip(now) {
        assert_eq!(parse_json(old).unwrap(), parse_json(new).unwrap(), "{new}");
    }
}

fn histogram() -> HistogramSnapshot {
    HistogramSnapshot {
        edges: vec![1.0, 2.5, 1e-7],
        counts: vec![2, 0, 146_441, 1],
        count: 146_444,
        sum: 0.75,
        min: 0.25,
        max: 1e300,
    }
}

#[test]
fn histogram_snapshots_match() {
    let empty = HistogramSnapshot::empty(&[1e-3, 1.0]);
    assert_same_lines(
        &golden("histograms.json"),
        &[histogram().to_json(), empty.to_json()],
    );
}

#[test]
fn sink_events_match() {
    let events = [
        Event::Counter {
            name: "a.b".into(),
            value: 7,
        },
        Event::Counter {
            name: "big \"q\"".into(),
            value: u64::MAX,
        },
        Event::Histogram {
            name: "h".into(),
            snapshot: histogram(),
        },
        Event::Histogram {
            name: "empty".into(),
            snapshot: HistogramSnapshot::empty(&[1e-3, 1.0]),
        },
        Event::Span {
            name: "t".into(),
            seconds: 0.5,
            depth: 1,
        },
        Event::Span {
            name: "whole".into(),
            seconds: 2.0,
            depth: 0,
        },
    ];
    let lines: Vec<String> = events.iter().map(Event::to_ndjson).collect();
    assert_same_lines(&golden("sink.ndjson"), &lines);
    // The old spelling reads back to the same events.
    for (old, event) in golden("sink.ndjson").lines().zip(&events) {
        assert_eq!(&Event::from_ndjson(old).unwrap(), event);
    }
}
