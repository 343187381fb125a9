//! Time-windowed operational metrics: fixed rings of log₂ histograms.
//!
//! The cumulative registry ([`MemoryRecorder`]) answers "what happened since
//! start-up"; a long-running `zodiacd` also needs "what is happening *now*".
//! [`RollingRecorder`] keeps, per operation, two fixed rings of buckets —
//! 60 × 1 s (the last minute) and 60 × 1 m (the last hour) — each bucket
//! holding a request count, an error count, a latency sum/max, and the same
//! 64 power-of-two latency buckets as the cumulative registry, so windowed
//! p50/p95/p99 agree bucket-for-bucket with lifetime quantiles.
//!
//! Everything is integer arithmetic over an injected [`Clock`], so ring
//! advance, bucket expiry, partial-window coverage, and shard merges are
//! all deterministic in tests ([`ManualClock`]) and lock scope stays one
//! op's ring for one observation in production.
//!
//! # Feeding the rings
//!
//! The recorder implements [`Recorder`] and intercepts the serving-boundary
//! naming convention: a histogram named `op.<name>.us` records a latency
//! observation for operation `<name>`, and a counter named
//! `op.<name>.errors` records failures. Every subsystem that already
//! records through an [`Obs`] handle therefore gains live windows the
//! moment the daemon attaches a `RollingRecorder` as a sink — no
//! cross-crate API changes.
//!
//! [`MemoryRecorder`]: crate::MemoryRecorder
//! [`Obs`]: crate::Obs
//! [`ManualClock`]: crate::ManualClock

use crate::clock::Clock;
use crate::registry::{bucket_of, bucket_quantile, BUCKETS};
use crate::{escape_json, CandidateEvent, Recorder, SpanRecord};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Slots per ring. With 1 s and 60 s bucket widths this yields a one-minute
/// and a one-hour window.
pub const RING_LEN: usize = 60;

/// Histogram name prefix/suffix intercepted as a latency observation.
const OP_PREFIX: &str = "op.";
const LATENCY_SUFFIX: &str = ".us";
const ERROR_SUFFIX: &str = ".errors";

/// One time-bucket of a ring: totals plus log₂ latency buckets, stamped
/// with the *absolute* bucket index it belongs to so stale slots are
/// detected (and lazily reset) instead of aged by a background thread.
#[derive(Clone)]
struct Bucket {
    /// Absolute bucket index (`now_us / width_us`); `u64::MAX` = never used.
    stamp: u64,
    count: u64,
    errors: u64,
    sum_us: u64,
    max_us: u64,
    lat: [u64; BUCKETS],
}

impl Default for Bucket {
    fn default() -> Self {
        Bucket {
            stamp: u64::MAX,
            count: 0,
            errors: 0,
            sum_us: 0,
            max_us: 0,
            lat: [0; BUCKETS],
        }
    }
}

impl Bucket {
    fn reset(&mut self, stamp: u64) {
        *self = Bucket {
            stamp,
            ..Bucket::default()
        };
    }

    fn add(&mut self, other: &Bucket) {
        self.count += other.count;
        self.errors += other.errors;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
        for (a, b) in self.lat.iter_mut().zip(other.lat.iter()) {
            *a += *b;
        }
    }
}

/// A fixed ring of [`RING_LEN`] buckets of `width_us` each.
struct Ring {
    width_us: u64,
    slots: Vec<Bucket>,
}

impl Ring {
    fn new(width_us: u64) -> Self {
        Ring {
            width_us,
            slots: vec![Bucket::default(); RING_LEN],
        }
    }

    /// The bucket for `now_us`, lazily reset if its slot last held an
    /// earlier window.
    fn bucket_at(&mut self, now_us: u64) -> &mut Bucket {
        let idx = now_us / self.width_us;
        let slot = (idx % RING_LEN as u64) as usize;
        let b = &mut self.slots[slot];
        if b.stamp != idx {
            b.reset(idx);
        }
        b
    }

    fn record(&mut self, now_us: u64, latency_us: u64) {
        let b = self.bucket_at(now_us);
        b.count += 1;
        b.sum_us = b.sum_us.saturating_add(latency_us);
        b.max_us = b.max_us.max(latency_us);
        b.lat[bucket_of(latency_us)] += 1;
    }

    fn record_errors(&mut self, now_us: u64, n: u64) {
        self.bucket_at(now_us).errors += n;
    }

    /// Summarises the live window ending at `now_us`. A slot contributes
    /// iff its stamp falls inside the last [`RING_LEN`] bucket indices;
    /// anything older (or never written) is dead air.
    fn summarize(&self, now_us: u64) -> WindowSummary {
        let idx = now_us / self.width_us;
        let oldest = idx.saturating_sub(RING_LEN as u64 - 1);
        let mut merged = Bucket {
            stamp: 0,
            ..Bucket::default()
        };
        for b in &self.slots {
            if b.stamp >= oldest && b.stamp <= idx {
                merged.add(b);
            }
        }
        // Partial-window coverage: a ring only `idx + 1` buckets old has
        // seen that much wall-clock, not the full window — rates divide by
        // covered time, so a fresh daemon does not under-report req/s.
        let covered = (idx + 1).min(RING_LEN as u64) * self.width_us;
        WindowSummary {
            window_secs: RING_LEN as u64 * self.width_us / 1_000_000,
            covered_us: covered,
            count: merged.count,
            errors: merged.errors,
            sum_us: merged.sum_us,
            max_us: merged.max_us,
            p50_us: bucket_quantile(&merged.lat, merged.count, merged.max_us, 1, 2),
            p95_us: bucket_quantile(&merged.lat, merged.count, merged.max_us, 19, 20),
            p99_us: bucket_quantile(&merged.lat, merged.count, merged.max_us, 99, 100),
        }
    }

    /// Slot-wise merge for combining shard-local rings: equal stamps add,
    /// a newer stamp on either side wins the slot outright.
    fn merge_from(&mut self, other: &Ring) {
        debug_assert_eq!(self.width_us, other.width_us);
        for (mine, theirs) in self.slots.iter_mut().zip(other.slots.iter()) {
            if theirs.stamp == u64::MAX {
                continue;
            }
            if mine.stamp == theirs.stamp {
                mine.add(theirs);
                continue;
            }
            if mine.stamp == u64::MAX || theirs.stamp > mine.stamp {
                *mine = theirs.clone();
            }
        }
    }
}

/// Both rings for one operation.
struct OpWindows {
    secs: Ring,
    mins: Ring,
}

impl OpWindows {
    fn new() -> Self {
        OpWindows {
            secs: Ring::new(1_000_000),
            mins: Ring::new(60_000_000),
        }
    }
}

/// Aggregate view of one window: totals plus quantiles, all integers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSummary {
    /// Nominal window length in seconds (60 or 3600).
    pub window_secs: u64,
    /// Wall-clock actually covered (≤ `window_secs`·10⁶ µs); rates divide
    /// by this so young daemons report honest throughput.
    pub covered_us: u64,
    pub count: u64,
    pub errors: u64,
    pub sum_us: u64,
    pub max_us: u64,
    pub p50_us: u64,
    pub p95_us: u64,
    pub p99_us: u64,
}

impl WindowSummary {
    /// Requests per second over the covered window, in milli-units
    /// (1000 = 1 req/s) so consumers stay integer-only.
    pub fn rate_milli(&self) -> u64 {
        if self.covered_us == 0 {
            return 0;
        }
        self.count.saturating_mul(1_000_000_000) / self.covered_us
    }

    /// Errors per thousand requests (0 when idle).
    pub fn error_permille(&self) -> u64 {
        if self.count == 0 {
            return 0;
        }
        self.errors.saturating_mul(1000) / self.count
    }

    /// Mean latency in microseconds, rounded down.
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }

    fn to_json(self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"window_secs\":{},\"covered_us\":{},\"count\":{},\"errors\":{},\
             \"sum_us\":{},\"max_us\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            self.window_secs,
            self.covered_us,
            self.count,
            self.errors,
            self.sum_us,
            self.max_us,
            self.p50_us,
            self.p95_us,
            self.p99_us
        );
    }

    /// Parses the object written by [`RollingSnapshot::to_json`] (absent
    /// keys default to 0). Used by `zodiac top` on the client side.
    pub fn from_json(v: &serde_json::Value) -> WindowSummary {
        let get = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
        WindowSummary {
            window_secs: get("window_secs"),
            covered_us: get("covered_us"),
            count: get("count"),
            errors: get("errors"),
            sum_us: get("sum_us"),
            max_us: get("max_us"),
            p50_us: get("p50_us"),
            p95_us: get("p95_us"),
            p99_us: get("p99_us"),
        }
    }
}

/// Point-in-time summaries of one op's two windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpWindowSnapshot {
    pub last_1m: WindowSummary,
    pub last_1h: WindowSummary,
}

/// Name-sorted snapshot of every op's rolling windows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RollingSnapshot {
    pub ops: BTreeMap<String, OpWindowSnapshot>,
}

impl RollingSnapshot {
    /// Single-line JSON: `{"ops":{"scan":{"last_1m":{...},"last_1h":{...}}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"ops\":{");
        for (i, (name, op)) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(name, &mut out);
            out.push_str("\":{\"last_1m\":");
            op.last_1m.to_json(&mut out);
            out.push_str(",\"last_1h\":");
            op.last_1h.to_json(&mut out);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Parses the encoding of [`RollingSnapshot::to_json`].
    pub fn from_json(v: &serde_json::Value) -> RollingSnapshot {
        let mut snap = RollingSnapshot::default();
        let Some(ops) = v.get("ops").and_then(|o| o.as_object()) else {
            return snap;
        };
        for (name, op) in ops {
            let window = |k: &str| op.get(k).map(WindowSummary::from_json).unwrap_or_default();
            snap.ops.insert(
                name.clone(),
                OpWindowSnapshot {
                    last_1m: window("last_1m"),
                    last_1h: window("last_1h"),
                },
            );
        }
        snap
    }
}

/// The rolling-window recorder: per-op 1-minute and 1-hour rings over an
/// injected clock. Attach as an [`Obs`] sink — it feeds itself from the
/// `op.<name>.us` / `op.<name>.errors` naming convention — or record
/// directly via [`RollingRecorder::record_latency`].
///
/// [`Obs`]: crate::Obs
pub struct RollingRecorder {
    clock: Arc<dyn Clock>,
    ops: RwLock<HashMap<String, Arc<Mutex<OpWindows>>>>,
}

impl RollingRecorder {
    /// A recorder over the given clock ([`MonotonicClock`] in daemons,
    /// [`ManualClock`] in tests).
    ///
    /// [`MonotonicClock`]: crate::MonotonicClock
    /// [`ManualClock`]: crate::ManualClock
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        RollingRecorder {
            clock,
            ops: RwLock::new(HashMap::new()),
        }
    }

    fn with_op<R>(&self, op: &str, f: impl FnOnce(&mut OpWindows) -> R) -> R {
        {
            let read = self.ops.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(cell) = read.get(op) {
                let cell = cell.clone();
                drop(read);
                let mut w = cell.lock().unwrap_or_else(PoisonError::into_inner);
                return f(&mut w);
            }
        }
        let cell = {
            let mut write = self.ops.write().unwrap_or_else(PoisonError::into_inner);
            write
                .entry(op.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(OpWindows::new())))
                .clone()
        };
        let mut w = cell.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut w)
    }

    /// Records one request's latency for `op` into both rings.
    pub fn record_latency(&self, op: &str, latency_us: u64) {
        let now = self.clock.now_us();
        self.with_op(op, |w| {
            w.secs.record(now, latency_us);
            w.mins.record(now, latency_us);
        });
    }

    /// Records `n` failures for `op`.
    pub fn record_errors(&self, op: &str, n: u64) {
        let now = self.clock.now_us();
        self.with_op(op, |w| {
            w.secs.record_errors(now, n);
            w.mins.record_errors(now, n);
        });
    }

    /// Snapshot of every op's live windows as of the clock's now.
    pub fn snapshot(&self) -> RollingSnapshot {
        let now = self.clock.now_us();
        let mut snap = RollingSnapshot::default();
        let read = self.ops.read().unwrap_or_else(PoisonError::into_inner);
        for (name, cell) in read.iter() {
            let w = cell.lock().unwrap_or_else(PoisonError::into_inner);
            snap.ops.insert(
                name.clone(),
                OpWindowSnapshot {
                    last_1m: w.secs.summarize(now),
                    last_1h: w.mins.summarize(now),
                },
            );
        }
        snap
    }

    /// Folds a shard-local recorder into this one, slot-wise: equal-stamp
    /// buckets add exactly, newer stamps win a slot. Both recorders must
    /// share a clock epoch (shards of one process do).
    pub fn merge_from(&self, other: &RollingRecorder) {
        let theirs = other.ops.read().unwrap_or_else(PoisonError::into_inner);
        for (name, cell) in theirs.iter() {
            let other_w = cell.lock().unwrap_or_else(PoisonError::into_inner);
            self.with_op(name, |w| {
                w.secs.merge_from(&other_w.secs);
                w.mins.merge_from(&other_w.mins);
            });
        }
    }
}

impl Recorder for RollingRecorder {
    fn counter(&self, name: &str, delta: u64) {
        if let Some(op) = name
            .strip_prefix(OP_PREFIX)
            .and_then(|rest| rest.strip_suffix(ERROR_SUFFIX))
        {
            self.record_errors(op, delta);
        }
    }

    fn gauge_set(&self, _name: &str, _value: u64) {}

    fn gauge_max(&self, _name: &str, _observed: u64) {}

    fn histogram(&self, name: &str, value: u64) {
        if let Some(op) = name
            .strip_prefix(OP_PREFIX)
            .and_then(|rest| rest.strip_suffix(LATENCY_SUFFIX))
        {
            self.record_latency(op, value);
        }
    }

    fn span_record(&self, _rec: &SpanRecord<'_>) {}

    fn lifecycle(&self, _event: &CandidateEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn recorder() -> (Arc<ManualClock>, RollingRecorder) {
        let clock = Arc::new(ManualClock::new());
        let rec = RollingRecorder::new(clock.clone());
        (clock, rec)
    }

    #[test]
    fn empty_recorder_snapshots_empty() {
        let (_c, rec) = recorder();
        assert!(rec.snapshot().ops.is_empty());
    }

    #[test]
    fn recorder_trait_intercepts_op_convention() {
        let (_c, rec) = recorder();
        rec.histogram("op.scan.us", 500);
        rec.counter("op.scan.errors", 2);
        // Non-convention names are ignored.
        rec.histogram("deploy.latency_us.success", 10);
        rec.counter("deploy.requests", 1);
        let snap = rec.snapshot();
        assert_eq!(snap.ops.len(), 1);
        let op = snap.ops.get("scan").unwrap();
        assert_eq!(op.last_1m.count, 1);
        assert_eq!(op.last_1m.errors, 2);
        assert_eq!(op.last_1h.count, 1);
    }

    #[test]
    fn window_rates_use_partial_coverage() {
        let (clock, rec) = recorder();
        clock.advance_secs(2); // three 1s buckets old (idx 0..=2)
        for _ in 0..30 {
            rec.record_latency("scan", 1_000);
        }
        let w = rec.snapshot().ops.get("scan").unwrap().last_1m;
        assert_eq!(w.count, 30);
        assert_eq!(w.covered_us, 3_000_000);
        // 30 requests over 3 covered seconds = 10 req/s.
        assert_eq!(w.rate_milli(), 10_000);
        // Once the ring is older than the window, coverage caps at 60s.
        clock.advance_secs(100);
        let w = rec.snapshot().ops.get("scan").unwrap().last_1m;
        assert_eq!(w.covered_us, 60_000_000);
    }

    #[test]
    fn buckets_expire_after_the_window() {
        let (clock, rec) = recorder();
        rec.record_latency("scan", 100);
        rec.record_errors("scan", 1);
        let w = rec.snapshot().ops.get("scan").unwrap().last_1m;
        assert_eq!((w.count, w.errors), (1, 1));
        // 59 seconds later the observation is still inside the minute…
        clock.advance_secs(59);
        let w = rec.snapshot().ops.get("scan").unwrap().last_1m;
        assert_eq!(w.count, 1);
        // …one more second and it has aged out of the 1m ring but remains
        // in the 1h ring.
        clock.advance_secs(1);
        let op = *rec.snapshot().ops.get("scan").unwrap();
        assert_eq!(op.last_1m.count, 0);
        assert_eq!(op.last_1m.p99_us, 0);
        assert_eq!(op.last_1h.count, 1);
        // After an hour the 1h ring forgets it too.
        clock.advance_secs(3600);
        let op = *rec.snapshot().ops.get("scan").unwrap();
        assert_eq!(op.last_1h.count, 0);
    }

    #[test]
    fn slot_reuse_resets_stale_buckets() {
        let (clock, rec) = recorder();
        rec.record_latency("scan", 100);
        // 60s later the same slot index recurs; the old contents must not
        // leak into the new bucket.
        clock.advance_secs(60);
        rec.record_latency("scan", 200);
        let w = rec.snapshot().ops.get("scan").unwrap().last_1m;
        assert_eq!(w.count, 1);
        assert_eq!(w.max_us, 200);
    }

    #[test]
    fn quantiles_match_log2_bucket_resolution() {
        let (clock, rec) = recorder();
        // 98 fast requests, 2 slow ones: p50/p95 in the fast bucket,
        // p99 in the slow one, everything clamped to the observed max.
        for _ in 0..98 {
            rec.record_latency("scan", 100);
        }
        rec.record_latency("scan", 50_000);
        rec.record_latency("scan", 60_000);
        clock.advance_secs(1);
        let w = rec.snapshot().ops.get("scan").unwrap().last_1m;
        assert_eq!(w.count, 100);
        assert_eq!(w.max_us, 60_000);
        assert_eq!(w.p50_us, 127); // bucket_upper(bucket_of(100))
        assert_eq!(w.p95_us, 127);
        assert_eq!(w.p99_us, 60_000); // saturated to observed max
        assert!(w.mean_us() >= 100);
    }

    #[test]
    fn deterministic_under_manual_clock() {
        let run = || {
            let (clock, rec) = recorder();
            for i in 0..500u64 {
                rec.record_latency("scan", 100 + i % 37);
                if i % 13 == 0 {
                    rec.record_errors("scan", 1);
                }
                clock.advance_us(250_000);
            }
            rec.snapshot().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn merge_across_shards_is_exact_for_equal_stamps() {
        let clock = Arc::new(ManualClock::new());
        let a = RollingRecorder::new(clock.clone());
        let b = RollingRecorder::new(clock.clone());
        let whole = RollingRecorder::new(clock.clone());
        for i in 0..40u64 {
            let lat = 100 + i * 10;
            if i % 2 == 0 {
                a.record_latency("mine", lat);
            } else {
                b.record_latency("mine", lat);
            }
            whole.record_latency("mine", lat);
            if i % 8 == 0 {
                a.record_errors("mine", 1);
                whole.record_errors("mine", 1);
            }
            clock.advance_us(500_000);
        }
        let merged = RollingRecorder::new(clock.clone());
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.snapshot(), whole.snapshot());
    }

    #[test]
    fn merge_prefers_newer_slots_on_stamp_conflict() {
        let clock = Arc::new(ManualClock::new());
        let old = RollingRecorder::new(clock.clone());
        old.record_latency("scan", 111);
        // A recorder that wrote the same slot one full ring later.
        let newer = RollingRecorder::new(clock.clone());
        clock.advance_secs(60);
        newer.record_latency("scan", 222);
        old.merge_from(&newer);
        let w = old.snapshot().ops.get("scan").unwrap().last_1m;
        assert_eq!(w.count, 1);
        assert_eq!(w.max_us, 222);
    }

    #[test]
    fn json_round_trips_through_compat_serde() {
        let (clock, rec) = recorder();
        rec.record_latency("scan", 300);
        rec.record_errors("scan", 1);
        rec.record_latency("repair", 9_999);
        clock.advance_secs(3);
        let snap = rec.snapshot();
        let text = snap.to_json();
        let value: serde_json::Value = serde_json::from_str(&text).expect("rolling JSON parses");
        assert_eq!(RollingSnapshot::from_json(&value), snap);
    }

    #[test]
    fn error_rate_derivation() {
        let w = WindowSummary {
            window_secs: 60,
            covered_us: 10_000_000,
            count: 40,
            errors: 10,
            ..WindowSummary::default()
        };
        assert_eq!(w.error_permille(), 250);
        assert_eq!(w.rate_milli(), 4_000);
        assert_eq!(WindowSummary::default().error_permille(), 0);
        assert_eq!(WindowSummary::default().rate_milli(), 0);
    }
}
