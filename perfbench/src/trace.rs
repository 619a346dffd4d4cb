//! In-memory spans recorded by the benchmark around its calls into the
//! program. Recording is switched per thread, so traced and untraced
//! iterations can alternate inside one run; a disabled span costs one
//! thread-local read.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `extract` or `serve.admit`.
    pub name: &'static str,
    /// Start time (s).
    pub start: f64,
    /// End time (s).
    pub end: f64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Request identifier shared by the spans of one request: a fault
    /// id, a flow number or a served campaign number.
    pub request: u64,
}

impl Span {
    /// Wall-clock duration (s).
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// An open span; it closes when dropped.
#[must_use = "a span closes when the guard is dropped"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` for `request` when the calling thread
/// records, nested under the innermost span it has open.
pub fn span(name: &'static str, request: u64) -> Guard {
    if !ENABLED.with(Cell::get) {
        return Guard(None);
    }
    let t = tracer();
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let start = t.epoch.elapsed().as_secs_f64();
    let index = {
        let mut spans = t.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(index));
    Guard(Some(index))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        let t = tracer();
        let end = t.epoch.elapsed().as_secs_f64();
        OPEN.with(|o| {
            let mut open = o.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&i| i == index) {
                open.remove(pos);
            }
        });
        if let Ok(mut spans) = t.spans.lock() {
            spans[index].end = end;
        }
    }
}

/// A copy of every span recorded so far.
pub fn spans() -> Vec<Span> {
    tracer().spans.lock().expect("span log poisoned").clone()
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover (overlapping children count
/// once; parts of a child outside the parent count not at all).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(parent, kids)| {
            let mut covered: Vec<(f64, f64)> = kids
                .iter()
                .map(|&c| {
                    (
                        spans[c].start.max(parent.start),
                        spans[c].end.min(parent.end),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            covered.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut busy = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in covered {
                let from = a.max(reach);
                if b > from {
                    busy += b - from;
                }
                reach = reach.max(b);
            }
            parent.duration() - busy
        })
        .collect()
}

/// The spans as NDJSON, one object per line, with their self times.
pub fn to_ndjson(spans: &[Span]) -> String {
    let self_s = self_times(spans);
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(self_s).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
             \"self_s\": {own}, \"parent\": {parent}, \"request\": {}}}",
            s.name, s.start, s.end, s.request
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // flow [0,10] ⊃ campaign [2,8] ⊃ fault [3,4], fault [5,7];
        // flow ⊃ coverage [8,9].
        let spans = vec![
            s("flow", 0.0, 10.0, None),
            s("campaign", 2.0, 8.0, Some(0)),
            s("fault", 3.0, 4.0, Some(1)),
            s("fault", 5.0, 7.0, Some(1)),
            s("coverage", 8.0, 9.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![3.0, 3.0, 1.0, 2.0, 1.0]);
        // Self times partition the root interval.
        assert_eq!(own.iter().sum::<f64>(), spans[0].duration());
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = vec![
            s("parent", 0.0, 10.0, None),
            s("a", 1.0, 5.0, Some(0)),
            s("b", 4.0, 6.0, Some(0)),
            s("c", 9.0, 12.0, Some(0)),
        ];
        // Covered: [1,6] and [9,10] → 6 of 10 s.
        assert_eq!(self_times(&spans)[0], 4.0);
    }

    #[test]
    fn guards_nest_on_one_thread() {
        set_enabled(true);
        let before = spans().len();
        {
            let _outer = span("test.outer", 7);
            let _inner = span("test.inner", 7);
        }
        set_enabled(false);
        {
            let _ignored = span("test.ignored", 7);
        }
        let mine: Vec<Span> = spans()
            .into_iter()
            .skip(before)
            .filter(|s| s.name.starts_with("test."))
            .collect();
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].name, "test.outer");
        assert_eq!(mine[1].parent, Some(before));
        assert!(mine[0].end >= mine[1].end);
    }
}
