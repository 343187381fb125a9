//! Streaming JSON-lines trace sink (schema v2).

use crate::snapshot::MetricsSnapshot;
use crate::{escape_json, CandidateEvent, Recorder, SpanRecord, TRACE_SCHEMA_VERSION};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// A [`Recorder`] that streams structured spans and candidate lifecycle
/// events to a writer as JSON lines (one object per line), for the CLI's
/// `--trace-out <path>`.
///
/// Counters/gauges/histograms are high-frequency and belong in the
/// in-memory registry; call [`JsonLinesSink::write_snapshot`] once at end
/// of run to append the aggregate metrics as a final line.
///
/// Line shapes (schema v2):
///
/// ```text
/// {"event":"trace","schema":2}
/// {"event":"span","id":4,"parent":1,"tid":1,"path":"pipeline/mining","ts":1042,"us":40812,"attrs":{"iter":3}}
/// {"event":"lifecycle","fp":"00a1b2...","ts":1100,"kind":"demoted","reason":"counterexample"}
/// {"event":"snapshot","metrics":{"counters":{...},"gauges":{...},"histograms":{...}}}
/// ```
///
/// The `trace` header is written eagerly at construction so consumers can
/// version-dispatch without scanning. `parent` is omitted on root spans
/// and `attrs` when empty.
pub struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesSink {
    /// A sink writing to an arbitrary writer (buffered writers recommended).
    /// Writes the schema header line immediately.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        let sink = JsonLinesSink {
            out: Mutex::new(out),
        };
        sink.write_line(&format!(
            "{{\"event\":\"trace\",\"schema\":{TRACE_SCHEMA_VERSION}}}"
        ));
        sink
    }

    /// Creates (truncating) a trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonLinesSink::new(Box::new(BufWriter::new(file))))
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        // Trace output is best-effort: a full disk must not fail the pipeline.
        let _ = writeln!(out, "{line}");
    }

    /// Appends the aggregate metrics snapshot as a final `snapshot` event.
    pub fn write_snapshot(&self, snapshot: &MetricsSnapshot) {
        let line = format!(
            "{{\"event\":\"snapshot\",\"metrics\":{}}}",
            snapshot.to_json()
        );
        self.write_line(&line);
    }

    /// Flushes the underlying writer.
    pub fn flush(&self) -> io::Result<()> {
        self.out
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush()
    }
}

impl Recorder for JsonLinesSink {
    fn counter(&self, _name: &str, _delta: u64) {}
    fn gauge_set(&self, _name: &str, _value: u64) {}
    fn gauge_max(&self, _name: &str, _observed: u64) {}
    fn histogram(&self, _name: &str, _value: u64) {}

    fn span_record(&self, rec: &SpanRecord<'_>) {
        let mut line = String::with_capacity(96 + rec.path.len());
        let _ = write!(line, "{{\"event\":\"span\",\"id\":{}", rec.id);
        if rec.parent != 0 {
            let _ = write!(line, ",\"parent\":{}", rec.parent);
        }
        let _ = write!(line, ",\"tid\":{},\"path\":\"", rec.tid);
        escape_json(rec.path, &mut line);
        let _ = write!(line, "\",\"ts\":{},\"us\":{}", rec.ts_us, rec.dur_us);
        if !rec.attrs.is_empty() {
            line.push_str(",\"attrs\":{");
            for (i, (key, value)) in rec.attrs.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push('"');
                escape_json(key, &mut line);
                line.push_str("\":");
                match value {
                    crate::AttrValue::U64(v) => {
                        let _ = write!(line, "{v}");
                    }
                    crate::AttrValue::Str(s) => {
                        line.push('"');
                        escape_json(s, &mut line);
                        line.push('"');
                    }
                }
            }
            line.push('}');
        }
        line.push('}');
        self.write_line(&line);
    }

    fn lifecycle(&self, event: &CandidateEvent) {
        self.write_line(&event.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lifecycle, MemoryRecorder, Obs};
    use std::sync::Arc;

    /// A Write handle that appends into a shared buffer we can inspect.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8(
                self.0
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            )
            .expect("trace is utf-8")
        }
    }

    #[test]
    fn streams_header_spans_and_final_snapshot_as_json_lines() {
        let buf = SharedBuf::default();
        let sink = Arc::new(JsonLinesSink::new(Box::new(buf.clone())));
        let reg = Arc::new(MemoryRecorder::new());
        let obs = Obs::fanout(vec![sink.clone(), reg.clone()]);

        obs.start_span("pipeline/corpus").finish();
        obs.counter("deploy.requests", 3);
        obs.start_span("pipeline/mining").finish();
        sink.write_snapshot(&reg.snapshot());
        sink.flush().expect("flush in-memory buffer");

        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
            assert!(v.get("event").is_some());
        }
        assert!(lines[0].contains("\"event\":\"trace\""));
        assert!(lines[0].contains("\"schema\":2"));
        assert!(lines[1].contains("\"path\":\"pipeline/corpus\""));
        assert!(lines[2].contains("\"path\":\"pipeline/mining\""));
        assert!(lines[3].contains("\"event\":\"snapshot\""));
        assert!(lines[3].contains("\"deploy.requests\":3"));
    }

    #[test]
    fn span_records_carry_id_parent_and_attrs() {
        let buf = SharedBuf::default();
        let sink = Arc::new(JsonLinesSink::new(Box::new(buf.clone())));
        let obs = Obs::single(sink.clone());

        let root = obs.start_span("pipeline");
        let mut child = obs.start_span("pipeline/validation/iter");
        child.attr("iter", 3u64);
        child.attr("kind", "tp");
        child.finish();
        root.finish();
        sink.flush().expect("flush");

        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 spans (child recorded first)
        let child_v: serde_json::Value = serde_json::from_str(lines[1]).expect("child JSON");
        let root_v: serde_json::Value = serde_json::from_str(lines[2]).expect("root JSON");
        let root_id = root_v.get("id").and_then(|v| v.as_u64()).expect("root id");
        assert!(root_v.get("parent").is_none(), "root has no parent key");
        assert_eq!(
            child_v.get("parent").and_then(|v| v.as_u64()),
            Some(root_id)
        );
        let attrs = child_v.get("attrs").expect("attrs object");
        assert_eq!(attrs.get("iter").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(attrs.get("kind").and_then(|v| v.as_str()), Some("tp"));
        assert!(child_v.get("ts").is_some());
    }

    #[test]
    fn lifecycle_events_are_streamed() {
        let buf = SharedBuf::default();
        let sink = Arc::new(JsonLinesSink::new(Box::new(buf.clone())));
        let obs = Obs::single(sink.clone());
        obs.lifecycle(
            0xC0FFEE,
            Lifecycle::Demoted {
                reason: "counterexample".into(),
            },
        );
        sink.flush().expect("flush");
        let text = buf.contents();
        let line = text.lines().nth(1).expect("lifecycle line");
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
        assert_eq!(v.get("event").and_then(|e| e.as_str()), Some("lifecycle"));
        assert_eq!(
            v.get("fp").and_then(|f| f.as_str()),
            Some("0000000000c0ffee")
        );
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("demoted"));
        assert_eq!(
            v.get("reason").and_then(|r| r.as_str()),
            Some("counterexample")
        );
    }

    #[test]
    fn span_paths_are_escaped() {
        let buf = SharedBuf::default();
        let sink = JsonLinesSink::new(Box::new(buf.clone()));
        sink.span_record(&SpanRecord {
            id: 1,
            parent: 0,
            tid: 1,
            path: "weird\"path\\x",
            ts_us: 0,
            dur_us: 1,
            attrs: &[],
        });
        sink.flush().expect("flush");
        let text = buf.contents();
        let line = text.lines().nth(1).expect("span line");
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
        assert_eq!(
            v.get("path").and_then(|p| p.as_str()),
            Some("weird\"path\\x")
        );
    }
}
