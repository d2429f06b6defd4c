//! The metrics registry: counters, gauges, and fixed-bucket latency
//! histograms with quantile estimation.
//!
//! Instruments update through plain relaxed atomics, so they can be
//! shared across serving threads. Finding one takes the lock of its
//! kind's name table: `spannerd` looks its instruments up per request,
//! which costs a lock and a map lookup, and allocates only the first
//! time a series is seen.

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
}

/// One label pair of a series: `("route", "/execute")`.
pub type Label = (&'static str, &'static str);

/// Families by name, each the series by their label pairs: what the
/// exposition encoder reads.
pub(crate) type Families<T> = Mutex<BTreeMap<&'static str, BTreeMap<Vec<Label>, Arc<T>>>>;

/// A named registry of [`Counter`]s, [`Gauge`]s, and [`Histogram`]s,
/// optionally dimensioned by label pairs.
///
/// Names and label pairs are constants of the calling code, so they are
/// `&'static str`, already in the exposition grammar: a name matches
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, a label name `[a-zA-Z_][a-zA-Z0-9_]*`,
/// and a label value holds no `"`, `\` or newline. An instrument is
/// created on first use and shared thereafter; a labeled variant
/// addresses one series of a family: `counter_with("http_requests_total",
/// &[("route", "/execute"), ("status", "2xx")])`.
///
/// ```
/// use spannerlib_trace::{encode_prometheus, MetricsRegistry};
/// let reg = MetricsRegistry::new();
/// reg.counter("evals").inc();
/// reg.counter("evals").add(2);
/// reg.histogram("eval_ns").record(1_500);
/// assert_eq!(reg.counter("evals").get(), 3);
///
/// reg.counter_with("http_requests_total", &[("status", "2xx")]).inc();
/// let body = encode_prometheus(&reg);
/// assert!(body.contains("evals 3\n"));
/// assert!(body.contains("http_requests_total{status=\"2xx\"} 1\n"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    pub(crate) counters: Families<Counter>,
    pub(crate) gauges: Families<Gauge>,
    pub(crate) histograms: Families<Histogram>,
}

/// Std-mutex lock that shrugs off poisoning: metrics must never turn a
/// panicking evaluation into a second panic.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The series `name{labels}` of `families`, created on first use. A
/// lookup of an existing series allocates nothing.
fn series<T: Default>(families: &Families<T>, name: &'static str, labels: &[Label]) -> Arc<T> {
    let mut families = lock(families);
    let family = families.entry(name).or_default();
    if let Some(series) = family.get(labels) {
        return Arc::clone(series);
    }
    Arc::clone(family.entry(labels.to_vec()).or_default())
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The unlabeled counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The counter series `name{labels}`, created at zero on first use.
    pub fn counter_with(&self, name: &'static str, labels: &[Label]) -> Arc<Counter> {
        series(&self.counters, name, labels)
    }

    /// The unlabeled gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        series(&self.gauges, name, &[])
    }

    /// The unlabeled histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// The histogram series `name{labels}`, created empty on first use.
    pub fn histogram_with(&self, name: &'static str, labels: &[Label]) -> Arc<Histogram> {
        series(&self.histograms, name, labels)
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
        assert_eq!(s.sum, 90 * 1_000 + 10 * 1_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.p50(), s.p99(), s.sum, s.count), (0, 0, 0, 0));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = HistogramSnapshot::default();
        a.record(10);
        let b = Histogram::new();
        b.record(1_000);
        a.merge(&b.snapshot());
        assert_eq!((a.count, a.sum, a.max), (2, 1_010, 1_000));
        assert_eq!(a.buckets[bucket_index(10)], 1);
        assert_eq!(a.buckets[bucket_index(1_000)], 1);
    }

    #[test]
    fn registry_hands_out_shared_instruments() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("x");
        let c2 = reg.counter("x");
        c1.inc();
        c2.inc();
        assert_eq!(reg.counter("x").get(), 2);
        let labels = [("route", "/execute"), ("status", "2xx")];
        reg.counter_with("x", &labels).inc();
        assert!(Arc::ptr_eq(
            &reg.counter_with("x", &labels),
            &reg.counter_with("x", &labels)
        ));
        assert_eq!(reg.counter("x").get(), 2, "another series of the family");
        reg.gauge("g").set(-5);
        assert_eq!(reg.gauge("g").get(), -5);
        reg.histogram("h").record(3);
        assert_eq!(reg.histogram("h").snapshot().count, 1);
        let families = lock(&reg.counters);
        assert_eq!(families["x"].len(), 2);
    }
}
