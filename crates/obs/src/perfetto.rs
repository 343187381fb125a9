//! Chrome/Perfetto trace-event rendering.
//!
//! Produces the legacy Chrome trace-event JSON format — an object with a
//! `traceEvents` array of complete (`"ph":"X"`) and instant (`"ph":"i"`)
//! events — which `ui.perfetto.dev` and `chrome://tracing` open directly.
//! Spans carry their zodiac span id, parent id, and attributes in `args`;
//! candidate lifecycle events become instant events named by their kind
//! with the check fingerprint in `args.fp`.
//!
//! There is one exporter: `zodiac report --trace FILE --perfetto OUT`
//! converts a recorded JSON-lines trace after the run. Events are sorted by
//! start timestamp so consumers (and the CI monotonicity check) see a
//! time-ordered stream — spans are *recorded* at end time, so raw emission
//! order is end-ordered, not start-ordered.

use crate::{escape_json, AttrValue};

/// A buffered span destined for the trace-event array.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Span id (unique within the trace).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Thread ordinal.
    pub tid: u64,
    /// Span path (becomes the event `name`).
    pub name: String,
    /// Start offset from the trace epoch, microseconds.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Attributes (merged into `args`).
    pub attrs: Vec<(String, AttrValue)>,
}

/// A buffered instant event (candidate lifecycle transition).
#[derive(Debug, Clone)]
pub struct TraceInstant {
    /// Event name (the lifecycle kind, e.g. `demoted`).
    pub name: String,
    /// Thread ordinal.
    pub tid: u64,
    /// Offset from the trace epoch, microseconds.
    pub ts_us: u64,
    /// Extra args rendered verbatim: (key, already-JSON-encoded value).
    pub args: Vec<(String, String)>,
}

/// Renders buffered spans + instants as a Chrome trace-event JSON document.
///
/// Events are emitted sorted by `ts` (stable on ties by span id), one
/// per line inside the array, so the output is diff-friendly and passes a
/// monotonic-`ts` scan. The CLI's JSONL→Perfetto conversion
/// (`zodiac report --perfetto`) renders with it.
pub fn chrome_trace_json(spans: &[TraceSpan], instants: &[TraceInstant]) -> String {
    // Merge-sort both kinds by timestamp; tag spans 0 / instants 1 so the
    // order is total and deterministic.
    let mut order: Vec<(u64, u8, usize)> = Vec::with_capacity(spans.len() + instants.len());
    for (i, s) in spans.iter().enumerate() {
        order.push((s.ts_us, 0, i));
    }
    for (i, e) in instants.iter().enumerate() {
        order.push((e.ts_us, 1, i));
    }
    order.sort();

    let mut out = String::with_capacity(128 * (order.len() + 1));
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (n, (_, tag, i)) in order.iter().enumerate() {
        if n > 0 {
            out.push_str(",\n");
        }
        if *tag == 0 {
            let s = &spans[*i];
            out.push_str("{\"name\":\"");
            escape_json(&s.name, &mut out);
            out.push_str(&format!(
                "\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{}",
                s.tid, s.ts_us, s.dur_us, s.id
            ));
            if s.parent != 0 {
                out.push_str(&format!(",\"parent\":{}", s.parent));
            }
            for (key, value) in &s.attrs {
                out.push_str(",\"");
                escape_json(key, &mut out);
                out.push_str("\":");
                match value {
                    AttrValue::U64(v) => out.push_str(&v.to_string()),
                    AttrValue::Str(v) => {
                        out.push('"');
                        escape_json(v, &mut out);
                        out.push('"');
                    }
                }
            }
            out.push_str("}}");
        } else {
            let e = &instants[*i];
            out.push_str("{\"name\":\"");
            escape_json(&e.name, &mut out);
            out.push_str(&format!(
                "\",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{",
                e.tid, e.ts_us
            ));
            for (k, (key, value)) in e.args.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_json(key, &mut out);
                out.push_str("\":");
                out.push_str(value);
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_sorted_well_formed_trace_events() {
        let spans = vec![
            TraceSpan {
                id: 2,
                parent: 1,
                tid: 1,
                name: "pipeline/mining".into(),
                ts_us: 50,
                dur_us: 10,
                attrs: vec![("iter".into(), AttrValue::U64(3))],
            },
            TraceSpan {
                id: 1,
                parent: 0,
                tid: 1,
                name: "pipeline".into(),
                ts_us: 0,
                dur_us: 100,
                attrs: vec![],
            },
        ];
        let instants = vec![TraceInstant {
            name: "demoted".into(),
            tid: 1,
            ts_us: 75,
            args: vec![("fp".into(), "\"00000000000000ab\"".into())],
        }];
        let json = chrome_trace_json(&spans, &instants);
        let v: serde_json::Value = serde_json::from_str(&json).expect("well-formed JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 3);
        // Sorted by ts: pipeline (0), mining (50), demoted (75).
        let ts: Vec<u64> = events
            .iter()
            .map(|e| e.get("ts").and_then(|t| t.as_u64()).expect("ts"))
            .collect();
        assert_eq!(ts, vec![0, 50, 75]);
        assert_eq!(
            events[0].get("name").and_then(|n| n.as_str()),
            Some("pipeline")
        );
        assert!(events[0]
            .get("args")
            .and_then(|a| a.get("parent"))
            .is_none());
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_u64()),
            Some(1)
        );
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("iter"))
                .and_then(|p| p.as_u64()),
            Some(3)
        );
        assert_eq!(events[2].get("ph").and_then(|p| p.as_str()), Some("i"));
    }
}
