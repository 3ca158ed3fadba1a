//! The one metric store: counters, gauges and fixed-bucket histograms
//! keyed by `(name, label set)`.
//!
//! A label set is a sorted, deduplicated list of `(key, value)` pairs —
//! `tenant`, `bank`, `scheme`, `policy`, `workload` — and an unlabeled
//! metric is simply the entry with the empty label set. The `*_with` /
//! [`MetricsRegistry::observe_labeled`] calls sort their pairs on every
//! call.
//!
//! Hot simulation loops never record here. Each run counts what it
//! observes in plain state it owns — its own statistics, plus what they
//! lack (such as [`IntHistogram`]s) in a [`RunCounts`] — and publishes
//! that state at the run's boundary (and what is left when the run is
//! dropped). The registry is therefore written a handful of times per
//! run, and one mutex guards the whole store. Disabled (the default),
//! every recording call is one relaxed atomic load, and a
//! [`RunCounts`] built while the registry is off holds nothing, so its
//! run pays one branch per event.
//!
//! # Determinism
//!
//! Counters add, and the hot paths observe integer cycle and step
//! counts, whose `f64` histogram sums are exact in any order below
//! 2^53. Publishing per run instead of per event, from any worker in
//! any order, therefore yields the same snapshot as recording every
//! event as it happened. Gauges are last-writer-wins: callers set them
//! after joining their workers, in cell order.
//!
//! `enabled` is loaded and stored with `Relaxed` ordering: it is a
//! sampling gate, not a synchronization edge. Callers enable recording
//! before building and running their simulations and snapshot after
//! joining them; the store's mutex orders the writes themselves.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::json::Json;

/// Default histogram bucket upper bounds: a 1–2–5 ladder covering
/// nine decades, suitable for cycle counts and latencies.
pub const DEFAULT_BUCKETS: [f64; 28] = [
    1.0, 2.0, 5.0, 1.0e1, 2.0e1, 5.0e1, 1.0e2, 2.0e2, 5.0e2, 1.0e3, 2.0e3, 5.0e3, 1.0e4, 2.0e4,
    5.0e4, 1.0e5, 2.0e5, 5.0e5, 1.0e6, 2.0e6, 5.0e6, 1.0e7, 2.0e7, 5.0e7, 1.0e8, 2.0e8, 5.0e8,
    1.0e9,
];

/// A metric's label set: `(key, value)` pairs sorted and deduplicated,
/// empty for an unlabeled metric.
pub type Labels = Vec<(String, String)>;

/// Canonical form of caller-supplied label pairs: sorted by key (then
/// value) with exact duplicates dropped, so pair order never splits a
/// metric into two entries.
fn canonical(pairs: &[(&str, &str)]) -> Labels {
    let mut labels: Labels = pairs
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    labels.dedup();
    labels
}

/// The index of the bucket `value` falls in: the first bound it does
/// not exceed, or the overflow bucket past the last bound.
fn bucket_of(bounds: &[f64], value: f64) -> usize {
    bounds
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(bounds.len())
}

/// A fixed-bucket histogram in the store: `counts[i]` tallies
/// observations with `value <= bounds[i]`, the final slot is the
/// overflow bucket.
#[derive(Debug, Clone)]
struct Hist {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Hist {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, value: f64) {
        self.counts[bucket_of(&self.bounds, value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds a run's integer histogram in; its layout must match.
    fn merge(&mut self, run: &IntHistogram) {
        debug_assert_eq!(self.bounds, run.bounds, "histogram layouts differ");
        for (value, &n) in run.exact.iter().enumerate().filter(|(_, &n)| n > 0) {
            self.counts[bucket_of(&self.bounds, value as f64)] += n;
            self.count += n;
            self.min = self.min.min(value as f64);
            self.max = self.max.max(value as f64);
        }
        if run.large_count > 0 {
            for (total, n) in self.counts.iter_mut().zip(run.large.iter()) {
                *total += n;
            }
            self.count += run.large_count;
            self.min = self.min.min(run.large_min as f64);
            self.max = self.max.max(run.large_max as f64);
        }
        self.sum += run.sum() as f64;
    }

    fn summary(&self) -> HistogramSummary {
        let (min, max) = if self.count == 0 {
            (0.0, 0.0)
        } else {
            (self.min, self.max)
        };
        let buckets: Vec<(f64, u64)> = self
            .bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
            .collect();
        let quantile = |q| bucket_quantile(&buckets, self.count, min, max, q);
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min,
            max,
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
            buckets,
        }
    }
}

/// Observations below this are counted exactly, one slot per value.
const EXACT: usize = 256;

/// A fixed-bucket histogram of integer observations that one run owns
/// outright: no lock and no atomic. The small values that dominate
/// cycle and step counts are counted exactly, one slot per value, so
/// recording one is a single increment; larger values are bucketed as
/// they come. [`MetricsRegistry::histogram_merge`] folds it into the
/// store's histogram of the same name at the run's boundary; since the
/// observations are integers, the merged histogram equals the one
/// built by observing every value in turn.
#[derive(Debug, Clone, PartialEq)]
pub struct IntHistogram {
    bounds: &'static [f64],
    /// `exact[v]` observations of each value `v` below [`EXACT`].
    exact: Box<[u64; EXACT]>,
    /// Bucket counts, count, sum and extremes of the observations at
    /// or above [`EXACT`].
    large: Box<[u64]>,
    large_count: u64,
    large_sum: u64,
    large_min: u64,
    large_max: u64,
}

impl IntHistogram {
    /// An empty histogram over the given strictly increasing bucket
    /// upper bounds (plus the overflow bucket).
    pub fn new(bounds: &'static [f64]) -> Self {
        Self {
            bounds,
            exact: Box::new([0; EXACT]),
            large: vec![0; bounds.len() + 1].into_boxed_slice(),
            large_count: 0,
            large_sum: 0,
            large_min: u64::MAX,
            large_max: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        match self.exact.get_mut(value as usize) {
            Some(n) => *n += 1,
            None => self.record_large(value),
        }
    }

    fn record_large(&mut self, value: u64) {
        self.large[bucket_of(self.bounds, value as f64)] += 1;
        self.large_count += 1;
        self.large_sum += value;
        self.large_min = self.large_min.min(value);
        self.large_max = self.large_max.max(value);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.exact.iter().sum::<u64>() + self.large_count
    }

    /// Sum of the observations.
    pub fn sum(&self) -> u64 {
        let exact: u64 = (0..).zip(self.exact.iter()).map(|(v, &n)| v * n).sum();
        exact + self.large_sum
    }
}

/// One stored metric; its kind is fixed by its first recording.
#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Hist),
}

impl Metric {
    fn value(&self) -> MetricValue {
        match self {
            Metric::Counter(v) => MetricValue::Counter(*v),
            Metric::Gauge(v) => MetricValue::Gauge(*v),
            Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
        }
    }
}

/// One `(name, labels)` key and its metric.
#[derive(Debug)]
struct Entry {
    name: String,
    labels: Labels,
    metric: Metric,
}

/// The metric store.
///
/// Names are free-form dotted strings (`"shift.latency_cycles"`). A
/// `(name, labels)` key keeps the kind of its first recording;
/// recording a different kind under the same key is ignored rather
/// than panicking, so instrumentation can never take a simulation
/// down. The same name may carry different kinds under different label
/// sets (`serve.cycles` is an unlabeled gauge and a labeled counter).
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: AtomicBool,
    /// Every metric, sorted by `(name, labels)`: lookups are a binary
    /// search and snapshots need no sort.
    store: Mutex<Vec<Entry>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty, disabled registry.
    pub const fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            store: Mutex::new(Vec::new()),
        }
    }

    /// Turns recording on or off. Off is the default; disabled
    /// recording calls cost one relaxed atomic load.
    pub fn set_enabled(&self, on: bool) {
        // Relaxed: a sampling gate, not a synchronization edge (see the
        // module-level notes).
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn store(&self) -> MutexGuard<'_, Vec<Entry>> {
        self.store.lock().expect("metrics registry poisoned")
    }

    /// Runs `op` on the metric stored under `(name, labels)` in the
    /// locked `store`, creating it with `make` first if absent.
    fn with_metric(
        store: &mut Vec<Entry>,
        name: &str,
        labels: &[(String, String)],
        make: impl FnOnce() -> Metric,
        op: impl FnOnce(&mut Metric),
    ) {
        let found = store.binary_search_by(|e| {
            e.name
                .as_str()
                .cmp(name)
                .then_with(|| e.labels.as_slice().cmp(labels))
        });
        let i = found.unwrap_or_else(|pos| {
            let entry = Entry {
                name: name.to_string(),
                labels: labels.to_vec(),
                metric: make(),
            };
            store.insert(pos, entry);
            pos
        });
        op(&mut store[i].metric);
    }

    fn add(store: &mut Vec<Entry>, name: &str, labels: &[(String, String)], delta: u64) {
        Self::with_metric(
            store,
            name,
            labels,
            || Metric::Counter(0),
            |metric| match metric {
                Metric::Counter(v) => *v += delta,
                _ => debug_assert!(false, "metric {name} is not a counter"),
            },
        );
    }

    fn set(&self, name: &str, labels: &[(String, String)], value: f64) {
        Self::with_metric(
            &mut self.store(),
            name,
            labels,
            || Metric::Gauge(0.0),
            |metric| match metric {
                Metric::Gauge(v) => *v = value,
                _ => debug_assert!(false, "metric {name} is not a gauge"),
            },
        );
    }

    fn record(&self, name: &str, labels: &[(String, String)], value: f64, bounds: &[f64]) {
        Self::with_metric(
            &mut self.store(),
            name,
            labels,
            || Metric::Histogram(Hist::new(bounds)),
            |metric| match metric {
                Metric::Histogram(h) => h.observe(value),
                _ => debug_assert!(false, "metric {name} is not a histogram"),
            },
        );
    }

    /// Adds `delta` to the counter `name`, creating it at zero first
    /// (a zero `delta` still creates the key).
    pub fn counter_add(&self, name: &str, delta: u64) {
        if self.enabled() {
            Self::add(&mut self.store(), name, &[], delta);
        }
    }

    /// Adds each `(name, delta)` pair whose `delta` is nonzero, under
    /// one lock. A zero total creates no key: this is how a run
    /// publishes counts whose per-event recording call was conditional,
    /// so that a run that never made the call leaves no entry.
    pub fn counters_add(&self, counts: &[(&str, u64)]) {
        if self.enabled() {
            let mut store = self.store();
            for &(name, delta) in counts.iter().filter(|(_, d)| *d > 0) {
                Self::add(&mut store, name, &[], delta);
            }
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if self.enabled() {
            self.set(name, &[], value);
        }
    }

    /// Records `value` into the histogram `name` with the
    /// [`DEFAULT_BUCKETS`] layout.
    pub fn observe(&self, name: &str, value: f64) {
        if self.enabled() {
            self.record(name, &[], value, &DEFAULT_BUCKETS);
        }
    }

    /// Folds a run's integer histogram into the histogram `name`,
    /// creating it with the run's layout on first use; an empty run
    /// histogram creates nothing. The result equals observing each of
    /// the run's values in turn.
    pub fn histogram_merge(&self, name: &str, run: &IntHistogram) {
        if self.enabled() && run.count() > 0 {
            Self::with_metric(
                &mut self.store(),
                name,
                &[],
                || Metric::Histogram(Hist::new(run.bounds)),
                |metric| match metric {
                    Metric::Histogram(h) => h.merge(run),
                    _ => debug_assert!(false, "metric {name} is not a histogram"),
                },
            );
        }
    }

    /// [`Self::counter_add`] under a label set (sorts the pairs on
    /// every call).
    pub fn counter_add_with(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if self.enabled() {
            Self::add(&mut self.store(), name, &canonical(labels), delta);
        }
    }

    /// [`Self::gauge_set`] under a label set.
    pub fn gauge_set_with(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if self.enabled() {
            self.set(name, &canonical(labels), value);
        }
    }

    /// [`Self::observe`] under a label set.
    pub fn observe_labeled(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if self.enabled() {
            self.record(name, &canonical(labels), value, &DEFAULT_BUCKETS);
        }
    }

    /// Removes every metric (the enabled flag is untouched).
    pub fn reset(&self) {
        self.store().clear();
    }

    /// A copy of every metric, sorted by `(name, labels)`: one
    /// consistent cut, taken under the store's lock.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self
            .store()
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                labels: e.labels.clone(),
                value: e.metric.value(),
            })
            .collect();
        RegistrySnapshot { metrics }
    }
}

/// The plain counts a run keeps, beside its own statistics, of the
/// metrics its hot path feeds: `None` unless the global registry was on
/// when the run was built, so every recording site costs one branch on
/// [`Self::get`] and a run built while the registry is off holds
/// nothing.
///
/// The run publishes the counts at its boundary, together with what its
/// statistics gained since it last published, and publishes the rest
/// when it is dropped. A clone starts from zero, so clone a run before
/// it serves anything, as a template is.
pub struct RunCounts<T>(Option<Box<T>>);

impl<T: Default> RunCounts<T> {
    /// Empty counts if the global registry is on, none otherwise.
    pub fn new() -> Self {
        Self(crate::global().registry().enabled().then(Box::default))
    }

    /// The counts to record into, or `None` when this run does not
    /// count.
    #[inline]
    pub fn get(&mut self) -> Option<&mut T> {
        self.0.as_deref_mut()
    }
}

impl<T: Default> Default for RunCounts<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default> Clone for RunCounts<T> {
    fn clone(&self) -> Self {
        Self(self.0.as_ref().map(|_| Box::default()))
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RunCounts<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RunCounts").field(&self.0).finish()
    }
}

/// Quantile estimate by linear interpolation inside the bucket that
/// contains the target rank; exact at bucket edges and clamped to the
/// observed `[min, max]`. `buckets` ends with the overflow bucket,
/// whose upper edge is taken to be `max`.
///
/// # Edge cases (pinned by unit tests)
///
/// * **Empty histogram**: every quantile is `0.0` (not NaN), matching
///   `min`/`max`, which are reported as `0.0` when `count == 0`.
/// * **Single sample `v`**: every quantile is exactly `v` — the clamp
///   to `[min, max] = [v, v]` collapses the in-bucket interpolation.
/// * **Point mass** (all samples equal): same collapse, exact value.
///
/// For degenerate inputs this reports an actually observed value, as
/// the exact-sample [`nearest_rank`] rule does; in general it is an
/// interpolation, not a nearest rank.
fn bucket_quantile(buckets: &[(f64, u64)], count: u64, min: f64, max: f64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = q * count as f64;
    let overflow = buckets.len() - 1;
    let mut cumulative = 0u64;
    for (i, &(le, c)) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let next = cumulative + c;
        if next as f64 >= rank {
            let lower = if i == 0 {
                min.min(0.0)
            } else {
                buckets[i - 1].0
            };
            let upper = if i < overflow { le } else { max };
            let frac = (rank - cumulative as f64) / c as f64;
            let est = lower + frac * (upper - lower);
            return est.clamp(min, max);
        }
        cumulative = next;
    }
    max
}

/// Exact nearest-rank percentile over a **sorted** sample slice:
/// `sorted[(n - 1) * pct / 100]` with integer arithmetic, so results
/// are bit-identical across platforms and thread counts.
///
/// # Edge cases (pinned by unit tests)
///
/// * **Empty slice**: returns `0` (there is no sample to report; the
///   zero matches the empty [`HistogramSummary`], whose `min`/`max`/
///   quantiles all read `0`).
/// * **Single sample**: every percentile — p0 through p100 — returns
///   that sample: the only observed value *is* every quantile.
/// * The index `(n - 1) * pct / 100` rounds the rank *down*, so p50 of
///   `[1, 2]` is `1` (the lower of the two), and p99 of 100 samples is
///   the 99th (index 98), not the maximum.
///
/// # Panics
///
/// Debug-asserts that `sorted` is non-decreasing and `pct <= 100`.
pub fn nearest_rank(sorted: &[u64], pct: usize) -> u64 {
    debug_assert!(pct <= 100, "percentile out of range: {pct}");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "nearest_rank needs sorted input"
    );
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * pct / 100]
}

/// A point-in-time copy of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// The metric's registered name.
    pub name: String,
    /// Sorted `(key, value)` label pairs; empty for an unlabeled
    /// metric.
    pub labels: Labels,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

/// The value of a snapshotted metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Last-set level.
    Gauge(f64),
    /// Distribution summary.
    Histogram(HistogramSummary),
}

/// Summary of a histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// `(upper_bound, count)` per bucket; the last bound is
    /// `f64::INFINITY` (the overflow bucket).
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSummary {
    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A point-in-time copy of a whole registry, sorted by
/// `(name, labels)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// All metrics, sorted by `(name, labels)`.
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// Looks a metric up by name and exact label set; pass the pairs
    /// in sorted key order, as snapshots store them (`&[]` for an
    /// unlabeled metric).
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| {
                m.name == name
                    && m.labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .eq(labels.iter().copied())
            })
            .map(|m| &m.value)
    }

    /// The value of the unlabeled counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name, &[]) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of the unlabeled gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name, &[]) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The summary of the unlabeled histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        match self.get(name, &[]) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Every labeled entry of metric `name`, in label order.
    pub fn series(&self, name: &str) -> Vec<&MetricSnapshot> {
        self.metrics
            .iter()
            .filter(|m| m.name == name && !m.labels.is_empty())
            .collect()
    }

    /// Encodes the unlabeled metrics as a JSON object keyed by name
    /// (the `--metrics` dump).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .filter(|m| m.labels.is_empty())
                .map(|m| (m.name.clone(), metric_to_json(&m.value)))
                .collect(),
        )
    }

    /// Encodes the labeled metrics as a JSON array of
    /// `{name, labels, value}` objects in `(name, labels)` order (the
    /// `--labels` dump).
    pub fn labeled_json(&self) -> Json {
        Json::Arr(
            self.metrics
                .iter()
                .filter(|m| !m.labels.is_empty())
                .map(|m| {
                    Json::obj(vec![
                        ("name", Json::Str(m.name.clone())),
                        (
                            "labels",
                            Json::Obj(
                                m.labels
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                                    .collect(),
                            ),
                        ),
                        ("value", metric_to_json(&m.value)),
                    ])
                })
                .collect(),
        )
    }

    /// Decodes a snapshot produced by [`Self::to_json`] (an object) or
    /// [`Self::labeled_json`] (an array).
    ///
    /// Returns `None` when the document has neither shape.
    pub fn from_json(doc: &Json) -> Option<RegistrySnapshot> {
        let metrics = match doc {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(name, value)| {
                    Some(MetricSnapshot {
                        name: name.clone(),
                        labels: Labels::new(),
                        value: metric_from_json(value)?,
                    })
                })
                .collect::<Option<_>>()?,
            Json::Arr(entries) => entries
                .iter()
                .map(|e| {
                    let Json::Obj(pairs) = e.get("labels")? else {
                        return None;
                    };
                    Some(MetricSnapshot {
                        name: e.get("name")?.as_str()?.to_string(),
                        labels: pairs
                            .iter()
                            .map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
                            .collect::<Option<_>>()?,
                        value: metric_from_json(e.get("value")?)?,
                    })
                })
                .collect::<Option<_>>()?,
            _ => return None,
        };
        Some(RegistrySnapshot { metrics })
    }
}

fn bound_to_json(b: f64) -> Json {
    if b.is_infinite() {
        Json::Str("inf".to_string())
    } else {
        Json::Num(b)
    }
}

fn bound_from_json(j: &Json) -> Option<f64> {
    match j {
        Json::Str(s) if s == "inf" => Some(f64::INFINITY),
        Json::Num(v) => Some(*v),
        _ => None,
    }
}

fn metric_to_json(value: &MetricValue) -> Json {
    match value {
        MetricValue::Counter(v) => Json::obj(vec![
            ("type", Json::Str("counter".into())),
            ("value", Json::Num(*v as f64)),
        ]),
        MetricValue::Gauge(v) => Json::obj(vec![
            ("type", Json::Str("gauge".into())),
            ("value", Json::Num(*v)),
        ]),
        MetricValue::Histogram(h) => Json::obj(vec![
            ("type", Json::Str("histogram".into())),
            ("count", Json::Num(h.count as f64)),
            ("sum", Json::Num(h.sum)),
            ("min", Json::Num(h.min)),
            ("max", Json::Num(h.max)),
            ("p50", Json::Num(h.p50)),
            ("p95", Json::Num(h.p95)),
            ("p99", Json::Num(h.p99)),
            (
                "buckets",
                Json::Arr(
                    h.buckets
                        .iter()
                        .map(|&(le, count)| {
                            Json::obj(vec![
                                ("le", bound_to_json(le)),
                                ("count", Json::Num(count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn metric_from_json(doc: &Json) -> Option<MetricValue> {
    match doc.get("type")?.as_str()? {
        "counter" => Some(MetricValue::Counter(doc.get("value")?.as_u64()?)),
        "gauge" => Some(MetricValue::Gauge(doc.get("value")?.as_f64()?)),
        "histogram" => {
            let buckets = doc
                .get("buckets")?
                .as_arr()?
                .iter()
                .map(|b| Some((bound_from_json(b.get("le")?)?, b.get("count")?.as_u64()?)))
                .collect::<Option<Vec<_>>>()?;
            Some(MetricValue::Histogram(HistogramSummary {
                count: doc.get("count")?.as_u64()?,
                sum: doc.get("sum")?.as_f64()?,
                min: doc.get("min")?.as_f64()?,
                max: doc.get("max")?.as_f64()?,
                p50: doc.get("p50")?.as_f64()?,
                p95: doc.get("p95")?.as_f64()?,
                p99: doc.get("p99")?.as_f64()?,
                buckets,
            }))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.set_enabled(true);
        r
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = MetricsRegistry::new();
        r.counter_add("c", 5);
        r.gauge_set("g", 1.0);
        r.observe("h", 3.0);
        r.counter_add_with("c", &[("tenant", "0")], 5);
        r.observe_labeled("h", &[("tenant", "0")], 3.0);
        assert!(r.snapshot().metrics.is_empty());
    }

    #[test]
    fn counter_accumulates() {
        let r = enabled();
        r.counter_add("shift.count", 3);
        r.counter_add("shift.count", 4);
        assert_eq!(r.snapshot().counter("shift.count"), Some(7));
    }

    #[test]
    fn gauge_keeps_the_last_value() {
        let r = enabled();
        r.gauge_set("energy.pj", 10.0);
        r.gauge_set("energy.pj", 4.0);
        assert_eq!(r.snapshot().gauge("energy.pj"), Some(4.0));
    }

    #[test]
    fn histogram_counts_and_moments() {
        let r = enabled();
        for v in [1.0, 2.0, 3.0, 100.0] {
            r.observe("lat", v);
        }
        let snap = r.snapshot();
        let h = snap.histogram("lat").expect("histogram");
        assert_eq!(h.count, 4);
        assert!((h.sum - 106.0).abs() < 1e-12);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.mean() - 26.5).abs() < 1e-12);
        let total: u64 = h.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 4);
        assert!(h.buckets.last().expect("overflow").0.is_infinite());
    }

    #[test]
    fn quantiles_are_ordered_and_within_range() {
        let r = enabled();
        for i in 0..1000 {
            r.observe("lat", (i % 97) as f64 + 1.0);
        }
        let snap = r.snapshot();
        let h = snap.histogram("lat").expect("histogram");
        assert!(h.min <= h.p50 && h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.max);
        // Uniform-ish over [1, 97]: p50 should sit near the middle.
        assert!(h.p50 > 20.0 && h.p50 < 80.0, "p50 {}", h.p50);
    }

    #[test]
    fn quantile_exact_for_point_mass() {
        let r = enabled();
        for _ in 0..50 {
            r.observe("lat", 42.0);
        }
        let snap = r.snapshot();
        let h = snap.histogram("lat").expect("histogram");
        assert_eq!(h.p50, 42.0);
        assert_eq!(h.p99, 42.0);
    }

    #[test]
    fn quantiles_of_empty_histogram_are_zero() {
        // Pinned edge case: an empty histogram reports 0.0 for every
        // summary field rather than NaN or an interpolation artefact.
        let h = Hist::new(&DEFAULT_BUCKETS).summary();
        assert_eq!(h.count, 0);
        assert_eq!((h.min, h.max), (0.0, 0.0));
        assert_eq!((h.p50, h.p95, h.p99), (0.0, 0.0, 0.0));
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantiles_of_single_sample_are_exact() {
        // Pinned edge case: with one observation, every quantile is
        // that observation — the [min, max] clamp collapses the
        // in-bucket interpolation to the exact value.
        for v in [0.0, 1.0, 3.7, 42.0, 1.5e8, 9.9e9] {
            let mut hist = Hist::new(&DEFAULT_BUCKETS);
            hist.observe(v);
            let h = hist.summary();
            assert_eq!(h.count, 1);
            assert_eq!((h.min, h.max), (v, v));
            assert_eq!((h.p50, h.p95, h.p99), (v, v, v), "value {v}");
        }
    }

    #[test]
    fn nearest_rank_pins_edge_cases() {
        // Empty: no sample to report, so 0 (matching the empty
        // histogram summary).
        assert_eq!(nearest_rank(&[], 50), 0);
        assert_eq!(nearest_rank(&[], 99), 0);
        // Single sample: every percentile is that sample.
        for pct in [0, 1, 50, 95, 99, 100] {
            assert_eq!(nearest_rank(&[7], pct), 7, "p{pct}");
        }
        // Two samples: the floor rank picks the lower one at p50.
        assert_eq!(nearest_rank(&[1, 2], 50), 1);
        assert_eq!(nearest_rank(&[1, 2], 100), 2);
        // 100 samples 1..=100: p99 is the 99th, not the max.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 50), 50);
        assert_eq!(nearest_rank(&v, 95), 95);
        assert_eq!(nearest_rank(&v, 99), 99);
        assert_eq!(nearest_rank(&v, 100), 100);
    }

    #[test]
    fn custom_buckets_are_kept() {
        const BOUNDS: [f64; 3] = [1.0, 4.0, 9.0];
        let r = enabled();
        for v in [3, 100] {
            let mut run = IntHistogram::new(&BOUNDS);
            run.record(v);
            r.histogram_merge("d", &run);
        }
        let snap = r.snapshot();
        let h = snap.histogram("d").expect("histogram");
        assert_eq!(h.buckets.len(), 4);
        assert_eq!(h.buckets[1], (4.0, 1));
        assert_eq!(h.buckets[3].1, 1, "overflow bucket holds 100.0");
    }

    #[test]
    fn reset_clears_metrics() {
        let r = enabled();
        r.counter_add("c", 1);
        r.counter_add_with("c", &[("bank", "2")], 7);
        r.reset();
        assert!(r.snapshot().metrics.is_empty());
        assert!(r.enabled(), "reset keeps the enabled flag");
    }

    #[test]
    fn labeled_metrics_accumulate_per_label_set() {
        let r = enabled();
        r.counter_add_with("serve.requests", &[("tenant", "0"), ("bank", "3")], 3);
        // Pair order and exact duplicates do not split the entry.
        r.counter_add_with(
            "serve.requests",
            &[("bank", "3"), ("tenant", "0"), ("bank", "3")],
            1,
        );
        r.counter_add_with("serve.requests", &[("tenant", "1"), ("bank", "3")], 5);
        r.gauge_set_with("serve.occupancy", &[("tenant", "0")], 0.5);
        r.observe_labeled("serve.latency", &[("tenant", "0")], 12.0);
        r.observe_labeled("serve.latency", &[("tenant", "0")], 20.0);
        let snap = r.snapshot();
        let t0 = [("bank", "3"), ("tenant", "0")];
        assert_eq!(
            snap.get("serve.requests", &t0),
            Some(&MetricValue::Counter(4))
        );
        assert_eq!(
            snap.get("serve.occupancy", &[("tenant", "0")]),
            Some(&MetricValue::Gauge(0.5))
        );
        assert_eq!(snap.series("serve.requests").len(), 2);
        match snap.get("serve.latency", &[("tenant", "0")]) {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 2),
            other => panic!("expected histogram, got {other:?}"),
        }
        // Labeled entries are invisible to the unlabeled accessors.
        assert_eq!(snap.counter("serve.requests"), None);
    }

    #[test]
    fn merged_run_histograms_equal_per_value_observation() {
        // Integer observations merged per run, in any run order, give
        // the histogram that observing every value in turn gives.
        let values: Vec<u64> = (0..5_000u64).map(|i| (i * 7_919) % 3_000).collect();
        let per_value = enabled();
        for &v in &values {
            per_value.observe("lat", v as f64);
        }
        let per_run = enabled();
        for chunk in values.chunks(333).rev() {
            let mut run = IntHistogram::new(&DEFAULT_BUCKETS);
            for &v in chunk {
                run.record(v);
            }
            per_run.histogram_merge("lat", &run);
        }
        per_run.histogram_merge("lat", &IntHistogram::new(&DEFAULT_BUCKETS));
        assert_eq!(per_run.snapshot(), per_value.snapshot());
        // An empty run histogram creates nothing.
        let r = enabled();
        r.histogram_merge("empty", &IntHistogram::new(&DEFAULT_BUCKETS));
        assert!(r.snapshot().metrics.is_empty());
    }

    #[test]
    fn counters_add_creates_only_nonzero_keys() {
        let r = enabled();
        r.counters_add(&[("a", 3), ("b", 0), ("c", 1)]);
        r.counters_add(&[("a", 1)]);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), Some(4));
        assert_eq!(snap.counter("b"), None);
        assert_eq!(snap.counter("c"), Some(1));
        // counter_add itself creates the key even at zero.
        r.counter_add("b", 0);
        assert_eq!(r.snapshot().counter("b"), Some(0));
    }

    #[test]
    fn kind_is_fixed_per_key_not_per_name() {
        let r = enabled();
        r.gauge_set("serve.cycles", 9.0);
        r.counter_add_with("serve.cycles", &[("policy", "fcfs")], 9);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("serve.cycles"), Some(9.0));
        assert_eq!(
            snap.get("serve.cycles", &[("policy", "fcfs")]),
            Some(&MetricValue::Counter(9))
        );
        assert_eq!(snap.series("serve.cycles").len(), 1);
    }

    #[test]
    fn label_pairs_do_not_alias() {
        // "ab"+"c" must not collide with "a"+"bc".
        let r = enabled();
        r.counter_add_with("c", &[("ab", "c")], 1);
        r.counter_add_with("c", &[("a", "bc")], 1);
        assert_eq!(r.snapshot().series("c").len(), 2);
    }

    #[test]
    fn snapshot_is_sorted_by_name_then_labels() {
        let r = enabled();
        // Create keys in scrambled order on purpose.
        for i in (0..100).rev() {
            r.counter_add(&format!("m{:03}", (i * 37) % 100), i);
        }
        for t in [3, 1, 2, 0] {
            r.counter_add_with("b.metric", &[("tenant", &t.to_string())], 1);
            r.counter_add_with("a.metric", &[("tenant", &t.to_string())], 1);
        }
        r.counter_add("b.metric", 1);
        let snap = r.snapshot();
        assert_eq!(snap.metrics.len(), 109);
        let keys: Vec<(&String, &Labels)> =
            snap.metrics.iter().map(|m| (&m.name, &m.labels)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn json_dumps_split_unlabeled_and_labeled_entries() {
        let r = enabled();
        r.counter_add("a.count", 12);
        r.gauge_set("b.level", -2.5);
        for v in [1.0, 7.0, 7.0, 30.0] {
            r.observe("c.hist", v);
        }
        r.counter_add_with("a.count", &[("tenant", "0"), ("scheme", "p-ECC-S")], 4);
        r.gauge_set_with("bank.busy_frac", &[("bank", "5")], 0.25);
        r.observe_labeled("serve.latency", &[("tenant", "1")], 33.0);
        let snap = r.snapshot();
        let decode = |doc: Json| {
            let parsed = Json::parse(&doc.pretty()).expect("parse");
            RegistrySnapshot::from_json(&parsed).expect("decode")
        };
        let unlabeled = decode(snap.to_json());
        let labeled = decode(snap.labeled_json());
        assert_eq!(unlabeled.metrics.len(), 3);
        assert_eq!(labeled.metrics.len(), 3);
        assert!(labeled.metrics.iter().all(|m| !m.labels.is_empty()));
        let mut both = unlabeled.metrics;
        both.extend(labeled.metrics);
        both.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        assert_eq!(both, snap.metrics);
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let r = enabled();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let r = &r;
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        r.counter_add("shared.count", 1);
                        r.counter_add(&format!("worker{t}.count"), 1);
                        r.counter_add_with("req", &[("tenant", &(t % 4).to_string())], 1);
                        r.observe("shared.hist", (i % 10) as f64);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("shared.count"), Some(8_000));
        for t in 0..8 {
            assert_eq!(snap.counter(&format!("worker{t}.count")), Some(1_000));
        }
        for t in 0..4 {
            let tenant = t.to_string();
            assert_eq!(
                snap.get("req", &[("tenant", &tenant)]),
                Some(&MetricValue::Counter(2_000)),
                "tenant {t}"
            );
        }
        assert_eq!(snap.histogram("shared.hist").expect("hist").count, 8_000);
    }
}
