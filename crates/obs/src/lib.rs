//! Pipeline observability for the mine → filter → schedule → mutate →
//! deploy funnel.
//!
//! Zodiac's value is its funnel: candidates die at well-defined stages
//! (statistical filtering, false-positive removal, counterexample demotion)
//! and wall-clock concentrates in well-defined places (deployment, solver
//! mutation). This crate gives every stage a first-class instrumentation
//! surface instead of ad-hoc counter structs — and, beyond aggregates, a
//! *causal* record: structured spans with identities and parent links, and
//! per-candidate lifecycle events keyed by check fingerprint.
//!
//! * the [`Recorder`] trait — counters, gauges, histograms, structured
//!   stage spans ([`SpanRecord`]), and candidate lifecycle events
//!   ([`CandidateEvent`]) — implemented by pluggable sinks;
//! * [`MemoryRecorder`], a sharded in-memory registry whose hot path is a
//!   read-lock + atomic add (no allocation, no write-lock after first
//!   touch), cheap enough to stay enabled in benches and tests;
//! * [`JsonLinesSink`], a streaming JSON-lines event sink for the CLI's
//!   `--trace-out` (schema v2: header, spans with id/parent/attrs,
//!   lifecycle events, final metrics snapshot);
//! * [`chrome_trace_json`], rendering spans and lifecycle events as Chrome
//!   trace-event JSON that opens directly in `ui.perfetto.dev`; the one
//!   exporter is `zodiac report --trace FILE --perfetto OUT`, which
//!   converts a recorded JSON-lines trace after the run;
//! * [`Obs`], a cheaply-clonable fan-out handle threaded through the
//!   pipeline. A disabled (null) handle makes every call a no-op over an
//!   empty sink list, so un-instrumented callers pay nothing measurable;
//! * [`RollingRecorder`], time-windowed (last-minute / last-hour) per-op
//!   latency quantiles and error rates over an injected [`Clock`], fed by
//!   the serving-boundary naming convention below;
//! * [`TailExemplars`], a bounded reservoir of the slowest requests per op
//!   with span ids and check fingerprints, bridging quantiles back to
//!   per-candidate provenance (`zodiac explain`);
//! * [`render_prometheus`], text-format exposition of snapshots, windows,
//!   and exemplars for `GET /metrics`.
//!
//! # Span identity and parenting
//!
//! Every span gets a `u64` id from the handle's shared [trace context] and
//! a parent link. Parenting is *ambient*: [`Obs::start_span`] reads the
//! current ambient parent, then installs its own id as the ambient parent
//! until the guard finishes (LIFO, matching RAII scopes on the pipeline
//! thread). Concurrent subsystems — the deployment engine's worker pool —
//! must use [`Obs::start_leaf_span`], which *reads* the ambient parent but
//! never installs itself, so racing workers cannot corrupt the scope stack.
//! Handles cloned from one another (including [`Obs::with_sink`]) share one
//! trace context; handles built with [`Obs::fanout`]/[`Obs::single`] start
//! a fresh one (ids from 1, timestamps from 0).
//!
//! [trace context]: Obs::with_sink
//!
//! # Span naming convention
//!
//! Span *names* are hierarchical by path, slash-separated, rooted at the
//! subsystem — `pipeline/corpus`, `pipeline/mining/stats`,
//! `pipeline/validation/iter` — and **bounded**: dynamic dimensions
//! (iteration index, wave number, episode) are span attributes, not name
//! segments, so the `span.<path>` histogram namespace in the registry
//! stays finite no matter how long a run iterates.
//!
//! # Metric naming convention
//!
//! Dotted, lowercase, subsystem-first: `corpus.motif.<name>`,
//! `mining.filtered.confidence`, `validation.fp.deployable`,
//! `deploy.cache_hits`, `deploy.latency_us.success`. Dynamic label values
//! (motif names, template families, failure phases) go in the last
//! segment.
//!
//! One family is special: `op.<name>.us` histograms and `op.<name>.errors`
//! counters mark a subsystem's *serving boundary* (one request served, its
//! end-to-end latency, whether it failed). The cumulative registry stores
//! them like any other metric, while a [`RollingRecorder`] attached to the
//! same handle folds them into live windows — so a subsystem opts into
//! operational telemetry just by naming its boundary metrics this way.

mod alloc;
mod clock;
mod event;
mod exemplar;
mod jsonl;
mod perfetto;
mod prom;
mod registry;
mod rolling;
mod snapshot;

pub use alloc::CountingAlloc;
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use event::{CandidateEvent, Lifecycle, Polarity};
pub use exemplar::{Exemplar, TailExemplars};
pub use jsonl::JsonLinesSink;
pub use perfetto::{chrome_trace_json, TraceInstant, TraceSpan};
pub use prom::{prom_name, render_prometheus};
pub use registry::MemoryRecorder;
pub use rolling::{OpWindowSnapshot, RollingRecorder, RollingSnapshot, WindowSummary, RING_LEN};
pub use snapshot::{HistogramSummary, MetricsSnapshot};

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Version of the JSON-lines trace schema emitted by [`JsonLinesSink`].
pub const TRACE_SCHEMA_VERSION: u64 = 2;

/// A span attribute value (structured key/value pairs on [`SpanRecord`]s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned integer attribute (iteration index, batch size, seed).
    U64(u64),
    /// A string attribute.
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A completed structured span, passed to every sink at span end.
///
/// `parent == 0` marks a root span; `tid` is a small per-thread ordinal
/// (the pipeline thread that created the trace context is 1), `ts_us` is
/// the span's start offset from the trace epoch and `dur_us` its monotonic
/// duration, both in microseconds.
#[derive(Debug, Clone)]
pub struct SpanRecord<'a> {
    /// Span id, unique within one trace context (never 0).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Per-thread ordinal of the recording thread.
    pub tid: u64,
    /// Bounded, slash-separated span path.
    pub path: &'a str,
    /// Start offset from the trace epoch, microseconds.
    pub ts_us: u64,
    /// Monotonic duration, microseconds.
    pub dur_us: u64,
    /// Structured attributes attached via [`SpanGuard::attr`].
    pub attrs: &'a [(&'static str, AttrValue)],
}

/// A metrics + tracing sink. All methods take `&self`: recorders are shared
/// across worker threads (the deployment engine records from its pool).
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the counter `name`.
    fn counter(&self, name: &str, delta: u64);
    /// Sets the gauge `name` to `value`.
    fn gauge_set(&self, name: &str, value: u64);
    /// Raises the gauge `name` to `observed` if higher (high-water mark).
    fn gauge_max(&self, name: &str, observed: u64);
    /// Records one observation of `value` into the histogram `name`.
    fn histogram(&self, name: &str, value: u64);
    /// Records a completed structured span (identity, parent link, thread,
    /// timestamps, attributes). `path` follows the naming convention and
    /// `dur_us` is monotonic elapsed time; aggregate sinks read only those.
    fn span_record(&self, rec: &SpanRecord<'_>);
    /// Records a per-candidate lifecycle event. Defaults to a no-op so
    /// aggregate-only sinks ignore provenance.
    fn lifecycle(&self, _event: &CandidateEvent) {}
}

/// Shared per-trace state: the span id allocator, the ambient parent cell,
/// the epoch all timestamps are relative to, and the thread-ordinal
/// allocator. One context is shared by every clone of an [`Obs`] handle.
struct TraceCtx {
    next_id: AtomicU64,
    ambient: AtomicU64,
    next_tid: AtomicU64,
    epoch: Instant,
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx {
            next_id: AtomicU64::new(1),
            ambient: AtomicU64::new(0),
            next_tid: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }
}

impl TraceCtx {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Small per-thread ordinal, allocated on first use per (thread,
    /// context) pair. The thread that creates the context first is 1.
    fn tid(self: &Arc<Self>) -> u64 {
        thread_local! {
            static TID: std::cell::Cell<(usize, u64)> = const { std::cell::Cell::new((0, 0)) };
        }
        let key = Arc::as_ptr(self) as usize;
        TID.with(|cell| {
            let (cached_key, cached_tid) = cell.get();
            if cached_key == key {
                return cached_tid;
            }
            let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
            cell.set((key, tid));
            tid
        })
    }
}

/// A cheaply-clonable handle fanning instrumentation out to zero or more
/// sinks. The zero-sink ("null") handle is the default and makes every
/// record call a no-op.
#[derive(Clone)]
pub struct Obs {
    sinks: Arc<[Arc<dyn Recorder>]>,
    ctx: Arc<TraceCtx>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs {
            sinks: Arc::from(Vec::new().into_boxed_slice()),
            ctx: Arc::new(TraceCtx::default()),
        }
    }
}

impl Obs {
    /// The disabled handle: every call is a no-op.
    pub fn null() -> Self {
        Obs::default()
    }

    /// A handle recording into a single sink, with a fresh trace context.
    pub fn single(sink: Arc<dyn Recorder>) -> Self {
        Obs::fanout(vec![sink])
    }

    /// A handle fanning out to several sinks (e.g. a registry plus a
    /// JSON-lines trace file), with a fresh trace context.
    pub fn fanout(sinks: Vec<Arc<dyn Recorder>>) -> Self {
        Obs {
            sinks: Arc::from(sinks.into_boxed_slice()),
            ctx: Arc::new(TraceCtx::default()),
        }
    }

    /// A handle with `sink` appended, **sharing this handle's trace
    /// context** — span ids, the ambient-parent scope, and the timestamp
    /// epoch stay coherent across both. Subsystems that keep a private
    /// registry while honouring a caller's handle (the deployment engine)
    /// must use this instead of [`Obs::fanout`], which would start a
    /// second id space.
    pub fn with_sink(&self, sink: Arc<dyn Recorder>) -> Self {
        let mut sinks: Vec<Arc<dyn Recorder>> = self.sinks.to_vec();
        sinks.push(sink);
        Obs {
            sinks: Arc::from(sinks.into_boxed_slice()),
            ctx: self.ctx.clone(),
        }
    }

    /// True if at least one sink is attached. Callers building dynamic
    /// metric names or lifecycle payloads (string concatenation,
    /// fingerprint hashing) should guard on this so the null handle stays
    /// free.
    pub fn is_enabled(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// See [`Recorder::counter`].
    pub fn counter(&self, name: &str, delta: u64) {
        for s in self.sinks.iter() {
            s.counter(name, delta);
        }
    }

    /// See [`Recorder::gauge_set`].
    pub fn gauge_set(&self, name: &str, value: u64) {
        for s in self.sinks.iter() {
            s.gauge_set(name, value);
        }
    }

    /// See [`Recorder::gauge_max`].
    pub fn gauge_max(&self, name: &str, observed: u64) {
        for s in self.sinks.iter() {
            s.gauge_max(name, observed);
        }
    }

    /// See [`Recorder::histogram`].
    pub fn histogram(&self, name: &str, value: u64) {
        for s in self.sinks.iter() {
            s.histogram(name, value);
        }
    }

    /// Emits a per-candidate lifecycle event keyed by check fingerprint.
    /// The event timestamp is stamped from the trace epoch. Free on a
    /// disabled handle, but callers should still gate payload construction
    /// on [`Obs::is_enabled`].
    pub fn lifecycle(&self, fingerprint: u64, kind: Lifecycle) {
        if !self.is_enabled() {
            return;
        }
        let event = CandidateEvent {
            fingerprint,
            ts_us: self.ctx.now_us(),
            kind,
        };
        for s in self.sinks.iter() {
            s.lifecycle(&event);
        }
    }

    /// Starts a *scoped* stage span: the span's parent is the current
    /// ambient span and the span becomes the ambient parent for everything
    /// started before the guard finishes. Use from straight-line pipeline
    /// code; guards must finish in LIFO order (RAII gives this for free).
    pub fn start_span(&self, path: impl Into<Cow<'static, str>>) -> SpanGuard {
        self.span_guard(path.into(), true)
    }

    /// Starts a *leaf* span: parented under the current ambient span but
    /// never installed as the ambient parent itself. Safe to use from
    /// concurrent worker threads (the deployment engine's per-request
    /// spans), where a scoped span would corrupt the shared scope stack.
    pub fn start_leaf_span(&self, path: impl Into<Cow<'static, str>>) -> SpanGuard {
        self.span_guard(path.into(), false)
    }

    fn span_guard(&self, path: Cow<'static, str>, scoped: bool) -> SpanGuard {
        let (id, parent, ts_us) = if self.is_enabled() {
            let id = self.ctx.next_id.fetch_add(1, Ordering::Relaxed);
            let parent = self.ctx.ambient.load(Ordering::Relaxed);
            if scoped {
                self.ctx.ambient.store(id, Ordering::Relaxed);
            }
            (id, parent, self.ctx.now_us())
        } else {
            (0, 0, 0)
        };
        SpanGuard {
            obs: self.clone(),
            path,
            start: Instant::now(),
            ts_us,
            id,
            parent,
            scoped,
            attrs: Vec::new(),
            done: false,
        }
    }
}

/// An [`Obs`] handle is itself a recorder, so handles can nest: a subsystem
/// can fan out to its own registry *plus* a caller-provided handle. The
/// nested handle's own trace context is unused — structured records pass
/// through verbatim.
impl Recorder for Obs {
    fn counter(&self, name: &str, delta: u64) {
        Obs::counter(self, name, delta);
    }
    fn gauge_set(&self, name: &str, value: u64) {
        Obs::gauge_set(self, name, value);
    }
    fn gauge_max(&self, name: &str, observed: u64) {
        Obs::gauge_max(self, name, observed);
    }
    fn histogram(&self, name: &str, value: u64) {
        Obs::histogram(self, name, value);
    }
    fn span_record(&self, rec: &SpanRecord<'_>) {
        for s in self.sinks.iter() {
            s.span_record(rec);
        }
    }
    fn lifecycle(&self, event: &CandidateEvent) {
        for s in self.sinks.iter() {
            s.lifecycle(event);
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Obs({} sink(s))", self.sinks.len())
    }
}

/// RAII guard for a stage span; records on drop. Literal span paths (the
/// common case — every hot serving path) borrow, so starting a span
/// allocates nothing.
pub struct SpanGuard {
    obs: Obs,
    path: Cow<'static, str>,
    start: Instant,
    ts_us: u64,
    id: u64,
    parent: u64,
    scoped: bool,
    attrs: Vec<(&'static str, AttrValue)>,
    done: bool,
}

impl SpanGuard {
    /// Attaches a structured attribute to the span (recorded at finish).
    /// Dynamic dimensions — iteration index, wave, batch size — belong
    /// here, not in the span path, so histogram names stay bounded.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.obs.is_enabled() {
            self.attrs.push((key, value.into()));
        }
    }

    /// This span's id (0 on a disabled handle).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ends the span now (instead of at scope exit) and records it.
    pub fn finish(mut self) {
        self.record();
    }

    /// Elapsed time so far.
    pub fn elapsed_micros(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn record(&mut self) {
        if !self.done {
            self.done = true;
            if self.obs.is_enabled() {
                if self.scoped {
                    // Restore the previous ambient parent (LIFO contract).
                    self.obs.ctx.ambient.store(self.parent, Ordering::Relaxed);
                }
                let rec = SpanRecord {
                    id: self.id,
                    parent: self.parent,
                    tid: self.obs.ctx.tid(),
                    path: self.path.as_ref(),
                    ts_us: self.ts_us,
                    dur_us: self.start.elapsed().as_micros() as u64,
                    attrs: &self.attrs,
                };
                for s in self.obs.sinks.iter() {
                    s.span_record(&rec);
                }
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.record();
    }
}

/// JSON string escaping shared by the sink and snapshot encoders.
pub(crate) fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn null_handle_is_disabled_and_free() {
        let obs = Obs::null();
        assert!(!obs.is_enabled());
        obs.counter("x", 1);
        obs.histogram("y", 2);
        let g = obs.start_span("a/b");
        assert_eq!(g.id(), 0);
        g.finish();
        obs.lifecycle(1, Lifecycle::Validated { via_group: false });
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(MemoryRecorder::new());
        let b = Arc::new(MemoryRecorder::new());
        let obs = Obs::fanout(vec![a.clone(), b.clone()]);
        assert!(obs.is_enabled());
        obs.counter("hits", 3);
        obs.counter("hits", 2);
        assert_eq!(a.snapshot().counter("hits"), 5);
        assert_eq!(b.snapshot().counter("hits"), 5);
    }

    #[test]
    fn span_guard_records_into_registry() {
        let reg = Arc::new(MemoryRecorder::new());
        let obs = Obs::single(reg.clone());
        {
            let _g = obs.start_span("pipeline/mining");
        }
        obs.start_span("pipeline/mining").finish();
        let snap = reg.snapshot();
        let h = snap
            .histograms
            .get("span.pipeline/mining")
            .expect("span histogram present");
        assert_eq!(h.count, 2);
    }

    /// A sink that captures structured span records for assertions.
    #[derive(Default)]
    struct CaptureSink {
        spans: Mutex<Vec<(u64, u64, String)>>,
        events: Mutex<Vec<CandidateEvent>>,
    }

    impl Recorder for CaptureSink {
        fn counter(&self, _: &str, _: u64) {}
        fn gauge_set(&self, _: &str, _: u64) {}
        fn gauge_max(&self, _: &str, _: u64) {}
        fn histogram(&self, _: &str, _: u64) {}
        fn span_record(&self, rec: &SpanRecord<'_>) {
            self.spans
                .lock()
                .unwrap()
                .push((rec.id, rec.parent, rec.path.to_string()));
        }
        fn lifecycle(&self, event: &CandidateEvent) {
            self.events.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn scoped_spans_nest_and_leaf_spans_do_not_take_scope() {
        let sink = Arc::new(CaptureSink::default());
        let obs = Obs::single(sink.clone());
        let root = obs.start_span("pipeline");
        let root_id = root.id();
        {
            let child = obs.start_span("pipeline/validation");
            let child_id = child.id();
            // A leaf span is parented under the innermost scoped span but
            // does not become the ambient parent itself.
            let leaf = obs.start_leaf_span("deploy");
            assert_eq!(leaf.parent, child_id);
            let sibling = obs.start_leaf_span("deploy");
            assert_eq!(sibling.parent, child_id);
            sibling.finish();
            leaf.finish();
            child.finish();
        }
        // After the scoped child finished, new spans parent to the root.
        let late = obs.start_span("pipeline/report");
        assert_eq!(late.parent, root_id);
        late.finish();
        root.finish();
        let spans = sink.spans.lock().unwrap();
        assert_eq!(spans.len(), 5);
        // Root span has parent 0 and every other parent id is a live span.
        let ids: Vec<u64> = spans.iter().map(|(id, _, _)| *id).collect();
        for (id, parent, path) in spans.iter() {
            if path == "pipeline" {
                assert_eq!(*parent, 0);
            } else {
                assert!(ids.contains(parent), "span {id} has dead parent {parent}");
            }
        }
    }

    #[test]
    fn with_sink_shares_the_trace_context() {
        let a = Arc::new(CaptureSink::default());
        let b = Arc::new(CaptureSink::default());
        let obs = Obs::single(a.clone());
        let outer = obs.start_span("outer");
        let outer_id = outer.id();
        // A derived handle (extra private sink) still sees the ambient
        // parent and allocates from the same id space.
        let derived = obs.with_sink(b.clone());
        let inner = derived.start_leaf_span("inner");
        assert_eq!(inner.parent, outer_id);
        assert!(inner.id() > outer_id);
        inner.finish();
        outer.finish();
        assert_eq!(a.spans.lock().unwrap().len(), 2); // both spans
        assert_eq!(b.spans.lock().unwrap().len(), 1); // inner only
    }

    #[test]
    fn lifecycle_events_reach_sinks_with_fingerprint() {
        let sink = Arc::new(CaptureSink::default());
        let obs = Obs::single(sink.clone());
        obs.lifecycle(
            0xDEAD,
            Lifecycle::Demoted {
                reason: "counterexample".into(),
            },
        );
        let events = sink.events.lock().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].fingerprint, 0xDEAD);
        assert!(matches!(events[0].kind, Lifecycle::Demoted { .. }));
    }

    #[test]
    fn span_attrs_are_recorded() {
        let reg = Arc::new(MemoryRecorder::new());
        let obs = Obs::single(reg.clone());
        let mut g = obs.start_span("pipeline/validation/iter");
        g.attr("iter", 3u64);
        g.attr("kind", "tp");
        g.finish();
        // The histogram name stays bounded regardless of the iteration
        // attribute (the cardinality contract).
        let snap = reg.snapshot();
        assert!(snap
            .histograms
            .contains_key("span.pipeline/validation/iter"));
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn escape_json_handles_specials() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }
}
