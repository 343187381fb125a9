//! The benchmark's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around each call into
//! a layer, and kept in memory; at the end they are written out through
//! `zodiac_obs::JsonLinesSink` in the JSONL v2 trace format, so
//! `zodiac report --trace FILE` renders the same layer table the benchmark
//! prints. A span's path is chosen when it closes, so a request can be filed
//! under the path its outcome selects (a memo hit or a cold scan).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use zodiac_obs::{JsonLinesSink, Recorder, SpanRecord};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (never 0).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Per-thread ordinal of the recording thread.
    pub tid: u64,
    /// `bench/<layer>/...` path.
    pub path: &'static str,
    /// Start offset from the tracer's epoch, microseconds.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// An open span: close it with [`Tracer::close`].
#[must_use = "an open span must be closed"]
pub struct Open {
    id: u64,
    parent: u64,
    prev_ambient: Option<u64>,
    start: Instant,
}

impl Open {
    /// Time since the span opened.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

/// An in-memory span recorder with one ambient parent, like the trace
/// context of `zodiac_obs::Obs`: scoped spans (opened on the driving
/// thread) become the parent of everything opened until they close, leaf
/// spans (safe on worker threads) never do.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    ambient: AtomicU64,
    next_tid: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            ambient: AtomicU64::new(0),
            next_tid: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
}

impl Tracer {
    /// Opens a span; a scoped span becomes the ambient parent until closed.
    pub fn open(&self, scoped: bool) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.ambient.load(Ordering::Relaxed);
        let prev_ambient = scoped.then(|| self.ambient.swap(id, Ordering::Relaxed));
        Open {
            id,
            parent,
            prev_ambient,
            start: Instant::now(),
        }
    }

    /// Closes `span` under `path`, returning its duration in microseconds.
    pub fn close(&self, span: Open, path: &'static str) -> u64 {
        let dur_us = span.start.elapsed().as_micros() as u64;
        if let Some(prev) = span.prev_ambient {
            self.ambient.store(prev, Ordering::Relaxed);
        }
        let tid = TID.with(|t| {
            if t.get() == 0 {
                t.set(self.next_tid.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        });
        let ts_us = span.start.saturating_duration_since(self.epoch).as_micros() as u64;
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Span {
                id: span.id,
                parent: span.parent,
                tid,
                path,
                ts_us,
                dur_us,
            });
        dur_us
    }

    /// Runs `f` inside a scoped span at `path`.
    pub fn scope<R>(&self, path: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.open(true);
        let out = f();
        self.close(span, path);
        out
    }

    /// The spans closed so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Writes every span to `path` as a JSONL v2 trace.
    pub fn flush(&self, path: &Path) -> std::io::Result<()> {
        let sink = JsonLinesSink::create(path)?;
        for s in self.spans() {
            sink.span_record(&SpanRecord {
                id: s.id,
                parent: s.parent,
                tid: s.tid,
                path: s.path,
                ts_us: s.ts_us,
                dur_us: s.dur_us,
                attrs: &[],
            });
        }
        sink.flush()
    }
}

/// Per-path totals: spans, total and self time (a span's duration minus its
/// direct children's, floored at zero), microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathTime {
    /// Spans at the path.
    pub count: u64,
    /// Summed duration.
    pub total_us: u64,
    /// Summed self time.
    pub self_us: u64,
}

/// Aggregates spans per path, as `zodiac report` attributes self time.
pub fn by_path(spans: &[Span]) -> BTreeMap<&'static str, PathTime> {
    let mut child: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child.entry(s.parent).or_default() += s.dur_us;
    }
    let mut out: BTreeMap<&'static str, PathTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.path).or_default();
        t.count += 1;
        t.total_us += s.dur_us;
        t.self_us += s
            .dur_us
            .saturating_sub(child.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// The layer table rows, in `zodiac report`'s latency-attribution format and
/// order (by self time, then path).
pub fn table_rows(paths: &BTreeMap<&'static str, PathTime>) -> Vec<String> {
    let total: u64 = paths.values().map(|t| t.self_us).sum();
    let mut ranked: Vec<(&&str, &PathTime)> = paths.iter().collect();
    ranked.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
    ranked
        .into_iter()
        .map(|(path, t)| {
            let pct = if total == 0 {
                0.0
            } else {
                t.self_us as f64 * 100.0 / total as f64
            };
            let mut row = String::new();
            let _ = write!(
                row,
                "  {:<40} {:>7} {:>12.3} {:>12.3} {:>5.1}%",
                path,
                t.count,
                t.self_us as f64 / 1000.0,
                t.total_us as f64 / 1000.0,
                pct
            );
            row
        })
        .collect()
}
