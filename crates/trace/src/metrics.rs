//! The metrics registry: counters, gauges, and fixed-bucket latency
//! histograms with quantile estimation.
//!
//! Everything here is lock-free on the update path — plain relaxed
//! atomics — so instruments can be shared across serving threads and
//! bumped from the evaluation hot loop without coordination. The only
//! lock is the registry's name table, taken on (rare) instrument
//! registration, never on update.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A monotone event counter.
///
/// ```
/// use spannerlib_trace::Counter;
/// let c = Counter::new();
/// c.inc();
/// c.add(41);
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (resident bytes, live entries, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` covers `[2^i, 2^(i+1))`
/// nanoseconds (bucket 0 also holds zero), so the range spans ~1 ns to
/// ~18 minutes — plenty for IE-call and rule-firing latencies.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-bucket latency histogram (power-of-two nanosecond buckets)
/// with lock-free recording and p50/p90/p99 estimation.
///
/// ```
/// use spannerlib_trace::Histogram;
/// let h = Histogram::new();
/// for ns in [100, 200, 300, 400, 10_000] { h.record(ns); }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 5);
/// assert!(snap.p50() >= 100 && snap.p50() <= 512);
/// assert!(snap.p99() >= 10_000);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket covering `ns`.
fn bucket_index(ns: u64) -> usize {
    if ns <= 1 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Folds a previously taken snapshot into this histogram (used to
    /// aggregate per-run profiles into a long-lived registry).
    pub fn merge(&self, snap: &HistogramSnapshot) {
        for (b, n) in self.buckets.iter().zip(snap.buckets.iter()) {
            b.fetch_add(*n, Ordering::Relaxed);
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy (individual fields are
    /// read relaxed; concurrent recording may skew them by a sample).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`], with quantile estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (bucket `i` covers
    /// `[2^i, 2^(i+1))` ns).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, in nanoseconds.
    pub sum: u64,
    /// Largest observed value, in nanoseconds.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Records one observation without atomics — for single-threaded
    /// per-run collection (see `RunTrace`), where a full [`Histogram`]
    /// would pay for synchronization nobody needs.
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum += ns;
        self.max = self.max.max(ns);
    }

    /// Folds another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Upper bound (ns) of the bucket containing the `q`-quantile
    /// (`0.0 ≤ q ≤ 1.0`), clamped to the observed maximum; `0` when
    /// empty. Fixed buckets bound the error to a factor of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i + 1 >= 63 {
                    u64::MAX
                } else {
                    1u64 << (i + 1)
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median estimate (ns).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate (ns).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate (ns).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean observed value (ns); `0` when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Renders the snapshot's summary statistics as one JSON object —
    /// the wire shape served by `spannerd`'s `/profile` endpoint.
    ///
    /// ```
    /// use spannerlib_trace::Histogram;
    /// let h = Histogram::new();
    /// h.record(1_000);
    /// assert_eq!(
    ///     h.snapshot().summary_json(),
    ///     r#"{"count":1,"mean_ns":1000,"p50_ns":1000,"p90_ns":1000,"p99_ns":1000,"max_ns":1000}"#
    /// );
    /// ```
    pub fn summary_json(&self) -> String {
        format!(
            r#"{{"count":{},"mean_ns":{},"p50_ns":{},"p90_ns":{},"p99_ns":{},"max_ns":{}}}"#,
            self.count,
            self.mean(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max
        )
    }
}

/// An interned, immutable label set (`route="/execute"`, …), shared by
/// every instrument and snapshot series carrying it.
pub type Labels = Arc<[(String, String)]>;

/// The registry's label-set table: each distinct set of label pairs is
/// interned once and addressed by a small id, so instruments key on
/// `(name, label-set id)` instead of re-hashing label vectors.
#[derive(Debug)]
struct LabelTable {
    /// Id → interned set. Id `0` is always the empty set.
    sets: Vec<Labels>,
    /// Reverse index for interning.
    ids: BTreeMap<Vec<(String, String)>, u32>,
}

impl Default for LabelTable {
    fn default() -> Self {
        LabelTable {
            sets: vec![Arc::from(Vec::new().into_boxed_slice())],
            ids: BTreeMap::new(),
        }
    }
}

impl LabelTable {
    /// The id of `labels`, interning on first sight. Pair order is
    /// preserved (callers pass a stable order per call site).
    fn intern(&mut self, labels: &[(&str, &str)]) -> u32 {
        if labels.is_empty() {
            return 0;
        }
        let key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some(id) = self.ids.get(&key) {
            return *id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(Arc::from(key.clone().into_boxed_slice()));
        self.ids.insert(key, id);
        id
    }

    fn get(&self, id: u32) -> Labels {
        self.sets[id as usize].clone()
    }
}

/// One observed time series in a [`MetricsSnapshot`]: a metric name, an
/// interned label set, and the value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct Series<T> {
    /// Metric (family) name as registered.
    pub name: String,
    /// Label pairs, in registration order; empty for unlabeled series.
    pub labels: Labels,
    /// The value captured by the snapshot.
    pub value: T,
}

/// A point-in-time copy of every series in a [`MetricsRegistry`] —
/// the input to the Prometheus exposition encoder
/// ([`crate::encode_prometheus`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter series, ordered by (name, label-set registration order).
    pub counters: Vec<Series<u64>>,
    /// Gauge series, same order contract.
    pub gauges: Vec<Series<i64>>,
    /// Histogram series, same order contract.
    pub histograms: Vec<Series<HistogramSnapshot>>,
}

/// A named registry of [`Counter`]s, [`Gauge`]s, and [`Histogram`]s,
/// optionally dimensioned by label pairs.
///
/// Instruments are created on first use and shared thereafter
/// (`Arc`-handed-out), so call sites can cache the handle and skip the
/// name lookup on the hot path. Labeled variants address one series of
/// a family: `counter_with("http_requests_total",
/// &[("route", "/execute"), ("status", "2xx")])` — label sets are
/// interned once in a side table, so repeated lookups hash a small id,
/// not the pairs.
///
/// ```
/// use spannerlib_trace::MetricsRegistry;
/// let reg = MetricsRegistry::new();
/// reg.counter("evals").inc();
/// reg.counter("evals").add(2);
/// reg.histogram("eval_ns").record(1_500);
/// assert_eq!(reg.counter("evals").get(), 3);
/// assert_eq!(reg.counters()[0], ("evals".to_string(), 3));
///
/// let ok = reg.counter_with("http_requests_total", &[("status", "2xx")]);
/// ok.inc();
/// assert_eq!(
///     reg.counters().iter().find(|(n, _)| n.contains("2xx")).unwrap().1,
///     1,
/// );
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    labels: Mutex<LabelTable>,
    counters: Mutex<BTreeMap<(String, u32), Arc<Counter>>>,
    gauges: Mutex<BTreeMap<(String, u32), Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<(String, u32), Arc<Histogram>>>,
}

/// Std-mutex lock that shrugs off poisoning: metrics must never turn a
/// panicking evaluation into a second panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Renders `name{k="v",…}` for human-readable listings (the exposition
/// encoder does its own escaping; this is for [`MetricsRegistry::counters`]
/// and friends).
fn series_name(name: &str, labels: &Labels) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    format!("{name}{{{}}}", pairs.join(","))
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn label_id(&self, labels: &[(&str, &str)]) -> u32 {
        lock(&self.labels).intern(labels)
    }

    /// The unlabeled counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The counter series `name{labels}`, created at zero on first use.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let id = self.label_id(labels);
        lock(&self.counters)
            .entry((name.to_string(), id))
            .or_default()
            .clone()
    }

    /// The unlabeled gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// The gauge series `name{labels}`, created at zero on first use.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let id = self.label_id(labels);
        lock(&self.gauges)
            .entry((name.to_string(), id))
            .or_default()
            .clone()
    }

    /// The unlabeled histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// The histogram series `name{labels}`, created empty on first use.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let id = self.label_id(labels);
        lock(&self.histograms)
            .entry((name.to_string(), id))
            .or_default()
            .clone()
    }

    /// All counter values, sorted by name; labeled series render as
    /// `name{k="v"}`.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let labels = lock(&self.labels);
        lock(&self.counters)
            .iter()
            .map(|((name, id), v)| (series_name(name, &labels.get(*id)), v.get()))
            .collect()
    }

    /// All gauge values, sorted by name; labeled series render as
    /// `name{k="v"}`.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        let labels = lock(&self.labels);
        lock(&self.gauges)
            .iter()
            .map(|((name, id), v)| (series_name(name, &labels.get(*id)), v.get()))
            .collect()
    }

    /// Snapshots of all histograms, sorted by name; labeled series
    /// render as `name{k="v"}`.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let labels = lock(&self.labels);
        lock(&self.histograms)
            .iter()
            .map(|((name, id), v)| (series_name(name, &labels.get(*id)), v.snapshot()))
            .collect()
    }

    /// A structured point-in-time copy of every series — the input to
    /// the exposition encoder.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let labels = lock(&self.labels);
        let counters = lock(&self.counters)
            .iter()
            .map(|((name, id), v)| Series {
                name: name.clone(),
                labels: labels.get(*id),
                value: v.get(),
            })
            .collect();
        let gauges = lock(&self.gauges)
            .iter()
            .map(|((name, id), v)| Series {
                name: name.clone(),
                labels: labels.get(*id),
                value: v.get(),
            })
            .collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|((name, id), v)| Series {
                name: name.clone(),
                labels: labels.get(*id),
                value: v.snapshot(),
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_monotone_and_bounded() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let mut prev = 0;
        for ns in [0u64, 1, 7, 100, 10_000, 1 << 30, u64::MAX] {
            let b = bucket_index(ns);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn quantiles_bound_the_true_value_within_2x() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert!(s.p50() >= 1_000 && s.p50() < 2_048, "p50 = {}", s.p50());
        assert!(s.p99() >= 1_000_000, "p99 = {}", s.p99());
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.mean(), (90 * 1_000 + 10 * 1_000_000) / 100);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.p50(), s.p99(), s.mean(), s.count), (0, 0, 0, 0));
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        a.record(10);
        let b = Histogram::new();
        b.record(1_000);
        b.merge(&a.snapshot());
        let s = b.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 1_010);
        assert_eq!(s.max, 1_000);
    }

    #[test]
    fn registry_hands_out_shared_instruments() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("x");
        let c2 = reg.counter("x");
        c1.inc();
        c2.inc();
        assert_eq!(reg.counter("x").get(), 2);
        reg.gauge("g").set(-5);
        assert_eq!(reg.gauges(), vec![("g".to_string(), -5)]);
        reg.histogram("h").record(3);
        assert_eq!(reg.histograms()[0].1.count, 1);
    }
}
