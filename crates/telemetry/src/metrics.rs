//! Counters, bounded histograms and the registry they live in.
//!
//! Everything is lock-free on the record path (atomics only); the
//! registry itself takes a mutex, but instrumented code resolves its
//! metrics once (see [`StaticCounter`]) so registry locks stay off
//! hot paths.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::json::{Json, ProtocolError};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram. `edges` are ascending bucket *upper*
/// bounds; an implicit overflow bucket catches everything above the
/// last edge, so `buckets.len() == edges.len() + 1`. Sum/min/max are
/// maintained with compare-and-swap on the float bit patterns —
/// bounded memory, no allocation after construction.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    /// `edges` must be finite and strictly ascending.
    pub fn new(edges: &[f64]) -> Histogram {
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]) && edges.iter().all(|e| e.is_finite()),
            "histogram edges must be finite and strictly ascending"
        );
        Histogram {
            edges: edges.to_vec(),
            buckets: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    pub fn record(&self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let idx = self.edges.partition_point(|&e| e < x);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        fold_bits(&self.sum_bits, x, |acc, x| acc + x);
        fold_bits(&self.min_bits, x, f64::min);
        fold_bits(&self.max_bits, x, f64::max);
    }

    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            edges: self.edges.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }
}

/// CAS-loop update of a float stored as bits in an atomic.
fn fold_bits(cell: &AtomicU64, x: f64, f: impl Fn(f64, f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur), x).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A point-in-time copy of a [`Histogram`]. `counts[i]` holds samples
/// with `value <= edges[i]` (and above the previous edge); the final
/// entry is the overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub edges: Vec<f64>,
    pub counts: Vec<u64>,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl HistogramSnapshot {
    /// An empty snapshot with the given edges (used for defaults).
    pub fn empty(edges: &[f64]) -> HistogramSnapshot {
        Histogram::new(edges).snapshot()
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// JSON object with `edges`, `counts`, `count`, `sum`, `min`,
    /// `max` (min/max are `null` while empty — they are infinities).
    pub fn to_json(&self) -> String {
        Json::from(self).to_string()
    }
}

impl From<&HistogramSnapshot> for Json {
    fn from(h: &HistogramSnapshot) -> Json {
        Json::object([
            ("edges", h.edges.as_slice().into()),
            ("counts", h.counts.as_slice().into()),
            ("count", h.count.into()),
            ("sum", h.sum.into()),
            ("min", h.min.into()),
            ("max", h.max.into()),
        ])
    }
}

/// Reads the object written by [`HistogramSnapshot::to_json`]; a
/// `null` min/max reads back as the infinity an empty histogram holds.
impl TryFrom<&Json> for HistogramSnapshot {
    type Error = ProtocolError;

    fn try_from(v: &Json) -> Result<HistogramSnapshot, ProtocolError> {
        let bound = |key: &str, empty: f64| match v.field(key)? {
            Json::Null => Ok(empty),
            x => x.as_f64(),
        };
        let snapshot = HistogramSnapshot {
            edges: v.field("edges")?.as_f64_array()?,
            counts: v.field("counts")?.map_array(Json::as_u64)?,
            count: v.field("count")?.as_u64()?,
            sum: v.field("sum")?.as_f64()?,
            min: bound("min", f64::INFINITY)?,
            max: bound("max", f64::NEG_INFINITY)?,
        };
        if snapshot.counts.len() != snapshot.edges.len() + 1 {
            return Err(ProtocolError::Schema(
                "histogram needs one count per edge plus the overflow bucket".into(),
            ));
        }
        Ok(snapshot)
    }
}

/// A named collection of counters and histograms. The process-wide
/// instance is [`crate::global`]; tests may build private ones.
#[derive(Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    pub const fn new() -> Registry {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::new());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Returns the histogram registered under `name`, creating it
    /// with `edges` on first use (later callers inherit the original
    /// edges).
    pub fn histogram(&self, name: &str, edges: &[f64]) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new(edges));
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// Current value of every registered counter.
    pub fn counter_values(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Snapshot of every registered histogram.
    pub fn histogram_snapshots(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    /// Zeroes every counter and histogram *in place* — registered
    /// `Arc` handles (including [`StaticCounter`] caches) stay valid.
    pub fn reset(&self) {
        for c in self.counters.lock().unwrap().values() {
            c.reset();
        }
        for h in self.histograms.lock().unwrap().values() {
            h.reset();
        }
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

/// A counter declared as a `static` at its use site and resolved in
/// the global registry on first increment. When telemetry is
/// disabled, `add` is a single relaxed load — safe on cold-ish paths
/// like cache lookups or convergence failures.
///
/// ```
/// static BUILDS: cat_telemetry::StaticCounter =
///     cat_telemetry::StaticCounter::new("demo.builds");
/// BUILDS.inc(); // no-op while disabled
/// ```
#[derive(Debug)]
pub struct StaticCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl StaticCounter {
    pub const fn new(name: &'static str) -> StaticCounter {
        StaticCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.cell
                .get_or_init(|| crate::global().counter(self.name))
                .add(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let h = Histogram::new(&[1.0, 10.0]);
        for x in [0.5, 1.0, 2.0, 50.0] {
            h.record(x);
        }
        h.record(f64::NAN); // ignored
        let s = h.snapshot();
        // 0.5 and 1.0 land at or below the first edge; 2.0 in the
        // second bucket; 50.0 overflows.
        assert_eq!(s.counts, vec![2, 1, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 53.5);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 50.0);
        assert_eq!(s.mean(), 53.5 / 4.0);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let s = HistogramSnapshot::empty(&[1.0]);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        // min/max serialize as null while empty.
        assert!(s.to_json().contains("\"min\": null"));
    }

    #[test]
    fn snapshots_round_trip_through_json() {
        let h = Histogram::new(&[1.0, 10.0]);
        for v in [0.5, 2.0, 50.0] {
            h.record(v);
        }
        for s in [h.snapshot(), HistogramSnapshot::empty(&[1.0])] {
            let back = crate::json::parse_json(&s.to_json()).unwrap();
            assert_eq!(HistogramSnapshot::try_from(&back).unwrap(), s);
        }
        let bad = crate::json::parse_json(
            "{\"edges\": [1.0], \"counts\": [1], \"count\": 1, \
             \"sum\": 1.0, \"min\": 1.0, \"max\": 1.0}",
        )
        .unwrap();
        assert!(HistogramSnapshot::try_from(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unordered_edges_rejected() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn registry_reuses_and_resets() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        let h = r.histogram("h", &[1.0]);
        h.record(0.5);
        assert_eq!(r.histogram("h", &[99.0]).edges(), &[1.0]);
        r.reset();
        assert_eq!(a.get(), 0);
        assert!(r.histogram_snapshots()["h"].is_empty());
        // The original handle still feeds the registry after reset.
        a.inc();
        assert_eq!(r.counter_values()["x"], 1);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let h = Arc::new(Histogram::new(&[0.5]));
        let c = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.record(if i % 2 == 0 { 0.25 } else { 0.75 });
                        c.inc();
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.counts, vec![2000, 2000]);
        assert_eq!(s.sum, 2000.0 * 0.25 + 2000.0 * 0.75);
        assert_eq!(c.get(), 4000);
    }
}
