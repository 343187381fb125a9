//! The in-memory metric registry.

use crate::snapshot::{HistogramSummary, MetricsSnapshot};
use crate::{CandidateEvent, Recorder, SpanRecord};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

const SHARDS: usize = 16;

/// Number of power-of-two histogram buckets (covers the full u64 range).
/// Shared with the rolling-window recorder so windowed and cumulative
/// quantiles agree bucket-for-bucket.
pub(crate) const BUCKETS: usize = 64;

/// A name-keyed, sharded map of atomic metric cells. After a name's first
/// touch, updates are a read-lock plus an atomic op — no allocation, no
/// write-lock, no contention between different shards.
struct NameMap<T> {
    shards: Vec<RwLock<HashMap<String, Arc<T>>>>,
}

impl<T: Default> NameMap<T> {
    fn new() -> Self {
        NameMap {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard_of(&self, name: &str) -> &RwLock<HashMap<String, Arc<T>>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Runs `f` on the cell for `name`, creating it on first touch.
    fn with<R>(&self, name: &str, f: impl FnOnce(&T) -> R) -> R {
        let shard = self.shard_of(name);
        {
            let read = shard.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(cell) = read.get(name) {
                return f(cell);
            }
        }
        let mut write = shard.write().unwrap_or_else(PoisonError::into_inner);
        let cell = write.entry(name.to_string()).or_default().clone();
        drop(write);
        f(&cell)
    }

    /// All (name, cell) pairs, unordered.
    fn entries(&self) -> Vec<(String, Arc<T>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let read = shard.read().unwrap_or_else(PoisonError::into_inner);
            out.extend(read.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }
}

/// A lock-free-after-registration histogram: power-of-two buckets plus
/// count/sum/min/max cells, all atomics.
struct AtomicHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

pub(crate) fn bucket_of(value: u64) -> usize {
    // Bucket i holds values whose highest set bit is i (value 0 → bucket 0).
    (63 - value.max(1).leading_zeros()) as usize
}

/// Upper bound of a bucket, used as its representative for quantiles.
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (2u64 << i) - 1
    }
}

/// Quantile `num/den` over merged log₂ bucket counts, clamped to the
/// observed `max`. Integer-only (rank = ⌈total·num/den⌉), so windowed and
/// cumulative summaries are bit-deterministic for a given event sequence.
pub(crate) fn bucket_quantile(counts: &[u64], total: u64, max: u64, num: u64, den: u64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = (total.saturating_mul(num).saturating_add(den - 1) / den).max(1);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper(i).min(max);
        }
    }
    max
}

fn atomic_max(cell: &AtomicU64, observed: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while observed > cur {
        match cell.compare_exchange_weak(cur, observed, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => cur = now,
        }
    }
}

fn atomic_min(cell: &AtomicU64, observed: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while observed < cur {
        match cell.compare_exchange_weak(cur, observed, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => cur = now,
        }
    }
}

impl AtomicHistogram {
    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        atomic_min(&self.min, value);
        atomic_max(&self.max, value);
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSummary {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max,
            p50: bucket_quantile(&counts, count, max, 1, 2),
            p95: bucket_quantile(&counts, count, max, 19, 20),
            p99: bucket_quantile(&counts, count, max, 99, 100),
        }
    }
}

/// The in-memory registry sink: sharded maps of atomic counters, gauges,
/// and log-bucketed histograms. Span durations land in the histogram map
/// under `span.<path>`.
///
/// Designed for always-on use: the steady-state cost of an update is a
/// shard read-lock plus one or two atomic RMW ops.
#[derive(Default)]
pub struct MemoryRecorder {
    counters: NameMap<AtomicU64>,
    gauges: NameMap<AtomicU64>,
    histograms: NameMap<AtomicHistogram>,
}

impl<T: Default> Default for NameMap<T> {
    fn default() -> Self {
        NameMap::new()
    }
}

impl MemoryRecorder {
    /// An empty registry.
    pub fn new() -> Self {
        MemoryRecorder::default()
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.with(name, |c| c.load(Ordering::Relaxed))
    }

    /// A point-in-time snapshot of every metric, name-sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for (name, cell) in self.counters.entries() {
            snap.counters.insert(name, cell.load(Ordering::Relaxed));
        }
        for (name, cell) in self.gauges.entries() {
            snap.gauges.insert(name, cell.load(Ordering::Relaxed));
        }
        for (name, cell) in self.histograms.entries() {
            snap.histograms.insert(name, cell.summary());
        }
        snap
    }
}

impl Recorder for MemoryRecorder {
    fn counter(&self, name: &str, delta: u64) {
        self.counters
            .with(name, |c| c.fetch_add(delta, Ordering::Relaxed));
    }

    fn gauge_set(&self, name: &str, value: u64) {
        self.gauges
            .with(name, |g| g.store(value, Ordering::Relaxed));
    }

    fn gauge_max(&self, name: &str, observed: u64) {
        self.gauges.with(name, |g| atomic_max(g, observed));
    }

    fn histogram(&self, name: &str, value: u64) {
        self.histograms.with(name, |h| h.record(value));
    }

    fn span_record(&self, rec: &SpanRecord<'_>) {
        with_name_buf("span.", rec.path, |name| self.histogram(name, rec.dur_us));
    }

    fn lifecycle(&self, event: &CandidateEvent) {
        // Aggregate view of the provenance stream: one counter per event
        // kind (bounded — six kinds), so funnel totals survive in the
        // snapshot even when no trace file is attached.
        with_name_buf("lifecycle.", event.kind.kind(), |name| {
            self.counter(name, 1)
        });
    }
}

thread_local! {
    static NAME_BUF: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
}

/// Builds `{prefix}{rest}` in a reused per-thread buffer. Span and
/// lifecycle records fire once per served request on the daemon's hot
/// path; this keeps the derived metric name off the allocator.
fn with_name_buf<R>(prefix: &str, rest: &str, f: impl FnOnce(&str) -> R) -> R {
    NAME_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        buf.push_str(prefix);
        buf.push_str(rest);
        f(&buf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MemoryRecorder::new();
        r.counter("a", 1);
        r.counter("a", 4);
        r.counter("b", 2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 2);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn gauges_set_and_max() {
        let r = MemoryRecorder::new();
        r.gauge_set("depth", 3);
        r.gauge_max("depth", 7);
        r.gauge_max("depth", 5);
        assert_eq!(r.snapshot().gauge("depth"), 7);
    }

    #[test]
    fn histogram_summary_tracks_extremes_and_quantiles() {
        let r = MemoryRecorder::new();
        for v in [1u64, 2, 3, 4, 100] {
            r.histogram("lat", v);
        }
        let snap = r.snapshot();
        let h = snap.histograms.get("lat").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 110);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert!(h.p50 <= h.p95);
        assert!(h.p95 <= h.max);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Arc::new(MemoryRecorder::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let r = r.clone();
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        r.counter("n", 1);
                        r.histogram("h", i % 17);
                        r.gauge_max("g", i);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("n"), 8000);
        assert_eq!(snap.histograms.get("h").unwrap().count, 8000);
        assert_eq!(snap.gauge("g"), 999);
    }

    #[test]
    fn lifecycle_events_count_per_kind() {
        let r = MemoryRecorder::new();
        let ev = |kind| CandidateEvent {
            fingerprint: 1,
            ts_us: 0,
            kind,
        };
        r.lifecycle(&ev(crate::Lifecycle::Validated { via_group: false }));
        r.lifecycle(&ev(crate::Lifecycle::Demoted {
            reason: "deployable".into(),
        }));
        r.lifecycle(&ev(crate::Lifecycle::Demoted {
            reason: "counterexample".into(),
        }));
        let snap = r.snapshot();
        assert_eq!(snap.counter("lifecycle.validated"), 1);
        assert_eq!(snap.counter("lifecycle.demoted"), 2);
    }

    #[test]
    fn saturation_bucket_quantiles_stay_within_max() {
        // Values with the top bit set land in the final (saturation)
        // bucket, whose upper bound is u64::MAX; quantiles must clamp to
        // the observed max instead of reporting the bucket bound.
        let r = MemoryRecorder::new();
        let big = u64::MAX - 3;
        r.histogram("sat", big);
        r.histogram("sat", big - 1);
        let snap = r.snapshot();
        let h = snap.histograms.get("sat").unwrap();
        assert_eq!(bucket_of(big), 63);
        assert_eq!(bucket_upper(63), u64::MAX);
        assert_eq!(h.max, big);
        assert_eq!(h.p50, big);
        assert_eq!(h.p95, big);
    }

    #[test]
    fn bucket_mapping_is_monotone() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        let mut prev = 0;
        for v in [1u64, 10, 100, 1_000, 1_000_000, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= prev);
            assert!(v <= bucket_upper(b));
            prev = b;
        }
    }
}
