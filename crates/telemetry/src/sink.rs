//! NDJSON event sink: telemetry events serialized one JSON object
//! per line through the workspace's one JSON writer
//! ([`crate::json`]). Install a sink with [`set_sink`]; nothing is
//! emitted while telemetry is disabled or no sink is installed.

use std::sync::{Arc, Mutex};

use crate::json::{parse_json, Json, ProtocolError};
use crate::metrics::{HistogramSnapshot, Registry};

/// One telemetry event. Each variant serializes to a single NDJSON
/// line with a `"type"` discriminant.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    Counter {
        name: String,
        value: u64,
    },
    Histogram {
        name: String,
        snapshot: HistogramSnapshot,
    },
    Span {
        name: String,
        seconds: f64,
        depth: u64,
    },
}

impl Event {
    /// One line of NDJSON (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        let (kind, name, fields) = match self {
            Event::Counter { name, value } => {
                ("counter", name, Json::object([("value", (*value).into())]))
            }
            Event::Histogram { name, snapshot } => ("histogram", name, snapshot.into()),
            Event::Span {
                name,
                seconds,
                depth,
            } => (
                "span",
                name,
                Json::object([("seconds", (*seconds).into()), ("depth", (*depth).into())]),
            ),
        };
        let mut members = vec![
            ("type".into(), kind.into()),
            ("name".into(), name.as_str().into()),
        ];
        if let Json::Object(fields) = fields {
            members.extend(fields);
        }
        Json::Object(members).to_string()
    }

    /// Parses one line written by [`Event::to_ndjson`].
    ///
    /// # Errors
    /// [`ProtocolError::Parse`] on malformed JSON,
    /// [`ProtocolError::Schema`] on an unknown `type` or a missing field.
    pub fn from_ndjson(line: &str) -> Result<Event, ProtocolError> {
        let doc = parse_json(line)?;
        let name = doc.field("name")?.as_str()?.to_string();
        match doc.field("type")?.as_str()? {
            "counter" => Ok(Event::Counter {
                name,
                value: doc.field("value")?.as_u64()?,
            }),
            "histogram" => Ok(Event::Histogram {
                name,
                snapshot: HistogramSnapshot::try_from(&doc)?,
            }),
            "span" => Ok(Event::Span {
                name,
                seconds: doc.field("seconds")?.as_f64()?,
                depth: doc.field("depth")?.as_u64()?,
            }),
            kind => Err(ProtocolError::Schema(format!(
                "unknown event type `{kind}`"
            ))),
        }
    }
}

/// Receives telemetry events. Implementations must tolerate being
/// called from any thread.
pub trait EventSink: Send + Sync {
    fn emit(&self, event: &Event);
}

/// Collects events as NDJSON lines in memory (tests, report dumps).
#[derive(Debug, Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().clone()
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.lines.lock().unwrap().push(event.to_ndjson());
    }
}

static SINK: Mutex<Option<Arc<dyn EventSink>>> = Mutex::new(None);

/// Installs (or removes, with `None`) the process-wide event sink.
pub fn set_sink(sink: Option<Arc<dyn EventSink>>) {
    *SINK.lock().unwrap() = sink;
}

/// Routes an event to the installed sink, if telemetry is enabled.
pub fn emit(event: &Event) {
    if !crate::enabled() {
        return;
    }
    let sink = SINK.lock().unwrap().clone();
    if let Some(sink) = sink {
        sink.emit(event);
    }
}

/// Emits the current state of `registry` — every counter and
/// histogram — as events. Useful as a final dump before writing a
/// report.
pub fn emit_registry(registry: &Registry) {
    for (name, value) in registry.counter_values() {
        emit(&Event::Counter { name, value });
    }
    for (name, snapshot) in registry.histogram_snapshots() {
        emit(&Event::Histogram { name, snapshot });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_one_line_each() {
        let c = Event::Counter {
            name: "a.b".into(),
            value: 7,
        };
        assert_eq!(
            c.to_ndjson(),
            "{\"type\": \"counter\", \"name\": \"a.b\", \"value\": 7}"
        );
        let h = Event::Histogram {
            name: "h".into(),
            snapshot: HistogramSnapshot {
                edges: vec![1.0],
                counts: vec![2, 0],
                count: 2,
                sum: 0.75,
                min: 0.25,
                max: 0.5,
            },
        };
        let line = h.to_ndjson();
        assert!(line.contains("\"edges\": [1.0]") && line.contains("\"counts\": [2, 0]"));
        assert!(!line.contains('\n'));
        let s = Event::Span {
            name: "t".into(),
            seconds: 0.5,
            depth: 1,
        };
        assert!(s.to_ndjson().ends_with("\"seconds\": 0.5, \"depth\": 1}"));
        for event in [c, h, s] {
            assert_eq!(Event::from_ndjson(&event.to_ndjson()).unwrap(), event);
        }
        assert!(matches!(
            Event::from_ndjson("{\"type\": \"gauge\", \"name\": \"g\"}"),
            Err(ProtocolError::Schema(_))
        ));
    }

    #[test]
    fn emit_respects_enabled_flag() {
        let sink = Arc::new(MemorySink::new());
        set_sink(Some(sink.clone()));
        crate::set_enabled(false);
        emit(&Event::Counter {
            name: "off".into(),
            value: 1,
        });
        assert!(sink.lines().is_empty());
        set_sink(None);
    }
}
