//! Post-hoc trace analysis: candidate lifecycle ledgers and run reports.
//!
//! A pipeline run recorded with `--trace-out` leaves a schema-v2 JSON-lines
//! file: structured spans (id/parent/attrs), per-candidate lifecycle events
//! keyed by check fingerprint, and a final metrics snapshot. This module
//! reads such a file back and answers the two questions aggregates cannot:
//!
//! * **why this one** — [`Trace::ledger_for`] reconstructs the complete
//!   lifecycle of a single candidate (`zodiac explain <check> --trace f`);
//! * **where the time went** — [`render_report`] folds the span tree into a
//!   funnel table plus a top-N *self-time* latency attribution
//!   (`zodiac report --trace f`).
//!
//! The loaded trace can also be re-exported as Chrome/Perfetto trace-event
//! JSON ([`Trace::to_perfetto_json`]) for timeline inspection in
//! `ui.perfetto.dev`.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use zodiac_obs::{chrome_trace_json, AttrValue, TraceInstant, TraceSpan};

/// One structured span read back from a trace file.
#[derive(Debug, Clone)]
pub struct SpanEntry {
    /// Span id (0 for legacy identity-less span lines).
    pub id: u64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Thread ordinal.
    pub tid: u64,
    /// Span path.
    pub path: String,
    /// Start offset from the trace epoch, microseconds.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Attributes: key → rendered value (integers render bare).
    pub attrs: Vec<(String, String)>,
}

/// One lifecycle event read back from a trace file.
#[derive(Debug, Clone)]
pub struct LedgerEvent {
    /// Candidate fingerprint.
    pub fingerprint: u64,
    /// Offset from the trace epoch, microseconds.
    pub ts_us: u64,
    /// Event kind (`mined`, `filter_verdict`, `scheduled`,
    /// `deploy_outcome`, `validated`, `demoted`).
    pub kind: String,
    /// Remaining fields: key → rendered value, in wire order.
    pub fields: Vec<(String, String)>,
}

impl LedgerEvent {
    /// A named field's rendered value, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A parsed schema-v2 trace file.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Schema version from the header line (0 for headerless legacy files).
    pub schema: u64,
    /// Structured spans, in record order.
    pub spans: Vec<SpanEntry>,
    /// Lifecycle events, in record order.
    pub events: Vec<LedgerEvent>,
}

/// Renders a JSON scalar the way ledgers display it (strings bare, no
/// quotes; everything else via the JSON encoding).
fn render_scalar(v: &Value) -> String {
    match v.as_str() {
        Some(s) => s.to_string(),
        None => serde_json::to_string(v).unwrap_or_default(),
    }
}

impl Trace {
    /// Loads a trace from a JSON-lines file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Trace> {
        let text = fs::read_to_string(path)?;
        Ok(Trace::parse(&text))
    }

    /// Parses trace text (one JSON object per line; unparseable or unknown
    /// lines are skipped — traces are best-effort output).
    pub fn parse(text: &str) -> Trace {
        let mut trace = Trace::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(v) = serde_json::from_str::<Value>(line) else {
                continue;
            };
            match v.get("event").and_then(|e| e.as_str()) {
                Some("trace") => {
                    trace.schema = v.get("schema").and_then(|s| s.as_u64()).unwrap_or(0);
                }
                Some("span") => {
                    let attrs = v
                        .get("attrs")
                        .and_then(|a| a.as_object())
                        .map(|m| {
                            m.iter()
                                .map(|(k, val)| (k.clone(), render_scalar(val)))
                                .collect()
                        })
                        .unwrap_or_default();
                    trace.spans.push(SpanEntry {
                        id: v.get("id").and_then(|x| x.as_u64()).unwrap_or(0),
                        parent: v.get("parent").and_then(|x| x.as_u64()).unwrap_or(0),
                        tid: v.get("tid").and_then(|x| x.as_u64()).unwrap_or(1),
                        path: v
                            .get("path")
                            .and_then(|p| p.as_str())
                            .unwrap_or_default()
                            .to_string(),
                        ts_us: v.get("ts").and_then(|x| x.as_u64()).unwrap_or(0),
                        dur_us: v.get("us").and_then(|x| x.as_u64()).unwrap_or(0),
                        attrs,
                    });
                }
                Some("lifecycle") => {
                    let fingerprint = v
                        .get("fp")
                        .and_then(|f| f.as_str())
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                        .unwrap_or(0);
                    let mut fields = Vec::new();
                    if let Some(obj) = v.as_object() {
                        for (k, val) in obj {
                            if matches!(k.as_str(), "event" | "fp" | "ts" | "kind") {
                                continue;
                            }
                            fields.push((k.clone(), render_scalar(val)));
                        }
                    }
                    trace.events.push(LedgerEvent {
                        fingerprint,
                        ts_us: v.get("ts").and_then(|x| x.as_u64()).unwrap_or(0),
                        kind: v
                            .get("kind")
                            .and_then(|kv| kv.as_str())
                            .unwrap_or_default()
                            .to_string(),
                        fields,
                    });
                }
                _ => {}
            }
        }
        trace
    }

    /// All lifecycle events for one candidate, in record order.
    pub fn ledger_for(&self, fingerprint: u64) -> Vec<&LedgerEvent> {
        self.events
            .iter()
            .filter(|e| e.fingerprint == fingerprint)
            .collect()
    }

    /// Fingerprints of every candidate whose ledger ends in a `demoted`
    /// event, sorted.
    pub fn demoted_fingerprints(&self) -> Vec<u64> {
        let mut last: BTreeMap<u64, &str> = BTreeMap::new();
        for e in &self.events {
            last.insert(e.fingerprint, &e.kind);
        }
        last.into_iter()
            .filter(|(_, kind)| *kind == "demoted")
            .map(|(fp, _)| fp)
            .collect()
    }

    /// Re-exports the loaded trace as Chrome/Perfetto trace-event JSON.
    pub fn to_perfetto_json(&self) -> String {
        let spans: Vec<TraceSpan> = self
            .spans
            .iter()
            .map(|s| TraceSpan {
                id: s.id,
                parent: s.parent,
                tid: s.tid,
                name: s.path.clone(),
                ts_us: s.ts_us,
                dur_us: s.dur_us,
                attrs: s
                    .attrs
                    .iter()
                    .map(|(k, v)| {
                        let value = match v.parse::<u64>() {
                            Ok(n) => AttrValue::U64(n),
                            Err(_) => AttrValue::Str(v.clone()),
                        };
                        (k.clone(), value)
                    })
                    .collect(),
            })
            .collect();
        let instants: Vec<TraceInstant> = self
            .events
            .iter()
            .map(|e| {
                let mut args = vec![("fp".to_string(), format!("\"{:016x}\"", e.fingerprint))];
                for (k, v) in &e.fields {
                    let enc = match v.parse::<u64>() {
                        Ok(n) => n.to_string(),
                        Err(_) if v == "true" || v == "false" => v.clone(),
                        Err(_) => {
                            serde_json::to_string(&Value::String(v.clone())).unwrap_or_default()
                        }
                    };
                    args.push((k.clone(), enc));
                }
                TraceInstant {
                    name: e.kind.clone(),
                    tid: 1,
                    ts_us: e.ts_us,
                    args,
                }
            })
            .collect();
        chrome_trace_json(&spans, &instants)
    }
}

/// Resolves an `explain` argument to a fingerprint: a 16-digit hex string
/// is taken verbatim, anything else must parse as a check (whose canonical
/// fingerprint is used).
pub fn resolve_fingerprint(arg: &str) -> Result<u64, String> {
    let looks_hex = arg.len() == 16 && arg.bytes().all(|b| b.is_ascii_hexdigit());
    if looks_hex {
        return u64::from_str_radix(arg, 16).map_err(|e| e.to_string());
    }
    match zodiac_spec::parse_check(arg) {
        Ok(check) => Ok(check.fingerprint()),
        Err(e) => Err(format!(
            "not a 16-hex fingerprint and not a parseable check: {e:?}"
        )),
    }
}

/// Renders one candidate's lifecycle ledger as human-readable lines.
pub fn render_ledger(fingerprint: u64, events: &[&LedgerEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "candidate {fingerprint:016x}");
    if events.is_empty() {
        out.push_str("  (no lifecycle events in this trace)\n");
        return out;
    }
    for e in events {
        let detail = e
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "  {:>12.3}ms  {:<16} {}",
            e.ts_us as f64 / 1000.0,
            e.kind,
            detail
        );
    }
    // The verdict comes from the last *terminal* event: probes recorded
    // after a `validated` (e.g. unsuccessful counterexample deployments)
    // do not reopen the candidate.
    let terminal = events.iter().rev().find(|e| {
        matches!(
            e.kind.as_str(),
            "validated" | "demoted" | "repair_accepted" | "repair_rejected"
        ) || (e.kind == "filter_verdict" && e.field("kept") == Some("false"))
    });
    let verdict = match terminal {
        Some(e) if e.kind == "validated" => "kept (validated)".to_string(),
        Some(e) if e.kind == "demoted" => format!(
            "demoted (reason: {})",
            e.field("reason").unwrap_or("unknown")
        ),
        Some(e) if e.kind == "repair_accepted" => format!(
            "repair accepted ({} edit(s))",
            e.field("edits").unwrap_or("?")
        ),
        Some(e) if e.kind == "repair_rejected" => format!(
            "repair rejected at L{} ({})",
            e.field("layer").unwrap_or("?"),
            e.field("reason").unwrap_or("unknown")
        ),
        Some(e) => format!(
            "filtered out (rule: {})",
            e.field("rule").unwrap_or("unknown")
        ),
        // A candidate that reached the scheduler but has no terminal verdict
        // was cut off mid-validation (early exit, crash, or a still-running
        // pipeline) — that is an unresolved candidate, not a broken ledger.
        None if events.iter().any(|e| e.kind == "scheduled") => format!(
            "in flight / unresolved (scheduled, last event: {})",
            events[events.len() - 1].kind.as_str()
        ),
        // Fingerprints that appear only in post-validation events — daemon
        // serving verdicts, or a repair request cut off mid-oracle — carry a
        // legitimately partial lifecycle: the candidate's mine/validate
        // history lives in an earlier trace, not this one.
        None if events.iter().all(|e| {
            matches!(
                e.kind.as_str(),
                "served" | "repair_proposed" | "oracle_verdict"
            )
        }) =>
        {
            format!(
                "partial lifecycle (post-validation events only, last: {})",
                events[events.len() - 1].kind.as_str()
            )
        }
        None => format!(
            "open (last event: {})",
            events[events.len() - 1].kind.as_str()
        ),
    };
    let _ = writeln!(out, "  verdict: {verdict}");
    out
}

/// Funnel + latency report rendered from a recorded trace.
pub fn render_report(trace: &Trace, top: usize) -> String {
    let mut out = String::new();

    // ---- funnel: lifecycle event counts in pipeline order --------------
    let count = |kind: &str| trace.events.iter().filter(|e| e.kind == kind).count();
    let count_field = |kind: &str, key: &str, value: &str| {
        trace
            .events
            .iter()
            .filter(|e| e.kind == kind && e.field(key) == Some(value))
            .count()
    };
    let distinct: BTreeMap<u64, ()> = trace.events.iter().map(|e| (e.fingerprint, ())).collect();
    out.push_str("funnel (from lifecycle events):\n");
    let _ = writeln!(
        out,
        "  {:<40} {:>8}",
        "candidates (distinct fingerprints)",
        distinct.len()
    );
    let rows: &[(&str, usize)] = &[
        ("mined", count("mined")),
        (
            "  killed: min_confidence",
            count_field("filter_verdict", "rule", "min_confidence"),
        ),
        (
            "  killed: min_lift",
            count_field("filter_verdict", "rule", "min_lift"),
        ),
        (
            "  kept: statistical",
            count_field("filter_verdict", "rule", "statistical"),
        ),
        (
            "  kept: oracle",
            count_field("filter_verdict", "rule", "oracle"),
        ),
        ("scheduled", count("scheduled")),
        ("deploy probes", count("deploy_outcome")),
        (
            "  fp probes",
            count_field("deploy_outcome", "polarity", "fp_probe"),
        ),
        (
            "  tp probes",
            count_field("deploy_outcome", "polarity", "tp_probe"),
        ),
        (
            "  counterexample probes",
            count_field("deploy_outcome", "polarity", "counterexample"),
        ),
        ("  cached", count_field("deploy_outcome", "cached", "true")),
        ("validated", count("validated")),
        ("demoted", count("demoted")),
        (
            "  by counterexample",
            count_field("demoted", "reason", "counterexample"),
        ),
        (
            "  deployable",
            count_field("demoted", "reason", "deployable"),
        ),
        (
            "  unsatisfiable",
            count_field("demoted", "reason", "unsatisfiable"),
        ),
        (
            "  no positive case",
            count_field("demoted", "reason", "no_positive_case"),
        ),
        (
            "  not applicable",
            count_field("demoted", "reason", "not_applicable"),
        ),
    ];
    for (label, n) in rows {
        let _ = writeln!(out, "  {label:<40} {n:>8}");
    }
    // Serving traces (zodiacd) additionally carry per-verdict events;
    // batch-pipeline reports stay unchanged when none are present.
    if count("served") > 0 {
        let _ = writeln!(
            out,
            "  {:<40} {:>8}",
            "served (daemon verdicts)",
            count("served")
        );
        let _ = writeln!(
            out,
            "  {:<40} {:>8}",
            "  from memo cache",
            count_field("served", "cached", "true")
        );
    }
    // Repair traces additionally carry the oracle funnel; scan-only
    // reports stay unchanged when no repair was attempted.
    if count("repair_proposed") > 0 {
        out.push_str("repair funnel (from lifecycle events):\n");
        let repair_rows: &[(&str, usize)] = &[
            ("repairs proposed", count("repair_proposed")),
            ("oracle verdicts", count("oracle_verdict")),
            (
                "  L1 deploy-succeeds",
                count_field("oracle_verdict", "layer", "1"),
            ),
            (
                "  L2 checks-pass",
                count_field("oracle_verdict", "layer", "2"),
            ),
            (
                "  L3 intent-preserved",
                count_field("oracle_verdict", "layer", "3"),
            ),
            ("accepted", count("repair_accepted")),
            ("rejected", count("repair_rejected")),
            (
                "  at L1 (deploy failed)",
                count_field("repair_rejected", "layer", "1"),
            ),
            (
                "  at L2 (violations remain)",
                count_field("repair_rejected", "layer", "2"),
            ),
            (
                "  at L3 (deceptive fix)",
                count_field("repair_rejected", "layer", "3"),
            ),
        ];
        for (label, n) in repair_rows {
            let _ = writeln!(out, "  {label:<40} {n:>8}");
        }
    }

    // ---- latency attribution: per-path self time -----------------------
    // Self time = a span's duration minus the duration of its direct
    // children, so nested stages don't double-count their parents.
    let mut child_dur: BTreeMap<u64, u64> = BTreeMap::new();
    for s in &trace.spans {
        if s.parent != 0 {
            *child_dur.entry(s.parent).or_default() += s.dur_us;
        }
    }
    struct PathAgg {
        count: u64,
        total_us: u64,
        self_us: u64,
    }
    let mut by_path: BTreeMap<&str, PathAgg> = BTreeMap::new();
    for s in &trace.spans {
        let children = child_dur.get(&s.id).copied().unwrap_or(0);
        let agg = by_path.entry(s.path.as_str()).or_insert(PathAgg {
            count: 0,
            total_us: 0,
            self_us: 0,
        });
        agg.count += 1;
        agg.total_us += s.dur_us;
        agg.self_us += s.dur_us.saturating_sub(children);
    }
    let mut ranked: Vec<(&str, PathAgg)> = by_path.into_iter().collect();
    ranked.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));
    let total_self: u64 = ranked.iter().map(|(_, a)| a.self_us).sum();
    let shown = ranked.len().min(top.max(1));
    let _ = writeln!(
        out,
        "\nlatency attribution (top {} of {} span paths, by self time):",
        shown,
        ranked.len()
    );
    let _ = writeln!(
        out,
        "  {:<40} {:>7} {:>12} {:>12} {:>6}",
        "path", "count", "self ms", "total ms", "self%"
    );
    for (path, agg) in ranked.iter().take(shown) {
        let pct = if total_self == 0 {
            0.0
        } else {
            agg.self_us as f64 * 100.0 / total_self as f64
        };
        let _ = writeln!(
            out,
            "  {:<40} {:>7} {:>12.3} {:>12.3} {:>5.1}%",
            path,
            agg.count,
            agg.self_us as f64 / 1000.0,
            agg.total_us as f64 / 1000.0,
            pct
        );
    }
    if shown < ranked.len() {
        let hidden: u64 = ranked.iter().skip(shown).map(|(_, a)| a.self_us).sum();
        let _ = writeln!(
            out,
            "  {:<40} {:>7} {:>12.3}",
            "(remaining paths)",
            ranked.len() - shown,
            hidden as f64 / 1000.0
        );
    }

    // ---- wave attribution: where the deploy time went, per wave --------
    // The scheduler stamps each batched deploy with a `pipeline/.../wave`
    // span carrying wave index, width (candidates), batch size (programs)
    // and the wave's max conflict degree. Grouping by wave index shows
    // whether latency is dominated by a few wide waves or a long tail of
    // conflict-serialised singletons.
    let attr = |s: &SpanEntry, key: &str| -> Option<u64> {
        s.attrs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
    };
    struct WaveAgg {
        spans: u64,
        width: u64,
        batch: u64,
        degree: u64,
        dur_us: u64,
    }
    let mut by_wave: BTreeMap<u64, WaveAgg> = BTreeMap::new();
    for s in &trace.spans {
        if !s.path.ends_with("/wave") {
            continue;
        }
        let Some(wave) = attr(s, "wave") else {
            continue;
        };
        let agg = by_wave.entry(wave).or_insert(WaveAgg {
            spans: 0,
            width: 0,
            batch: 0,
            degree: 0,
            dur_us: 0,
        });
        agg.spans += 1;
        agg.width += attr(s, "width").unwrap_or(0);
        agg.batch += attr(s, "batch").unwrap_or(0);
        agg.degree = agg.degree.max(attr(s, "degree").unwrap_or(0));
        agg.dur_us += s.dur_us;
    }
    if !by_wave.is_empty() {
        let wave_total: u64 = by_wave.values().map(|a| a.dur_us).sum();
        // Like the latency section, cap the table at the top N waves by
        // deploy time — a conflict-heavy run can have hundreds of
        // singleton waves and the slow ones are the actionable ones.
        let mut ranked: Vec<(u64, WaveAgg)> = by_wave.into_iter().collect();
        ranked.sort_by(|a, b| b.1.dur_us.cmp(&a.1.dur_us).then(a.0.cmp(&b.0)));
        let shown = ranked.len().min(top.max(1));
        let _ = writeln!(
            out,
            "\nwave attribution (top {} of {} waves by deploy time, {:.3}ms total):",
            shown,
            ranked.len(),
            wave_total as f64 / 1000.0
        );
        let _ = writeln!(
            out,
            "  {:>6} {:>7} {:>7} {:>7} {:>12} {:>6}",
            "wave", "width", "batch", "degree", "ms", "time%"
        );
        for (wave, agg) in ranked.iter().take(shown) {
            let pct = if wave_total == 0 {
                0.0
            } else {
                agg.dur_us as f64 * 100.0 / wave_total as f64
            };
            let _ = writeln!(
                out,
                "  {:>6} {:>7} {:>7} {:>7} {:>12.3} {:>5.1}%",
                wave,
                agg.width,
                agg.batch,
                agg.degree,
                agg.dur_us as f64 / 1000.0,
                pct
            );
        }
        if shown < ranked.len() {
            let rest: u64 = ranked.iter().skip(shown).map(|(_, a)| a.dur_us).sum();
            let _ = writeln!(
                out,
                "  {:>6} {:>7} {:>7} {:>7} {:>12.3}",
                "(rest)",
                ranked.len() - shown,
                "",
                "",
                rest as f64 / 1000.0
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"event":"trace","schema":2}
{"event":"span","id":1,"tid":1,"path":"pipeline","ts":0,"us":1000}
{"event":"span","id":2,"parent":1,"tid":1,"path":"pipeline/mining","ts":10,"us":400}
{"event":"span","id":3,"parent":1,"tid":1,"path":"pipeline/validation/iter","ts":420,"us":500,"attrs":{"iter":0,"open":3}}
{"event":"span","id":4,"parent":3,"tid":1,"path":"pipeline/validation/wave","ts":430,"us":300,"attrs":{"wave":0,"width":2,"batch":5,"degree":1}}
{"event":"span","id":5,"parent":3,"tid":1,"path":"pipeline/validation/wave","ts":740,"us":100,"attrs":{"wave":1,"width":1,"batch":2,"degree":3}}
{"event":"lifecycle","fp":"00000000000000aa","ts":5,"kind":"mined","template":"intra/eq-eq","support":12,"confidence_ppm":990000}
{"event":"lifecycle","fp":"00000000000000aa","ts":6,"kind":"filter_verdict","rule":"statistical","kept":true}
{"event":"lifecycle","fp":"00000000000000aa","ts":430,"kind":"scheduled","wave":0,"conflicts":2}
{"event":"lifecycle","fp":"00000000000000aa","ts":600,"kind":"deploy_outcome","polarity":"tp_probe","success":false,"phase":"plugin checks","rule":"R9","cached":false}
{"event":"lifecycle","fp":"00000000000000aa","ts":610,"kind":"validated","via_group":false}
{"event":"lifecycle","fp":"00000000000000aa","ts":900,"kind":"demoted","reason":"counterexample"}
{"event":"lifecycle","fp":"00000000000000bb","ts":7,"kind":"mined","template":"intra/eq-ne","support":4,"confidence_ppm":930000}
{"event":"lifecycle","fp":"00000000000000bb","ts":8,"kind":"filter_verdict","rule":"min_lift","kept":false}
{"event":"lifecycle","fp":"00000000000000cc","ts":9,"kind":"mined","template":"intra/eq-eq","support":6,"confidence_ppm":950000}
{"event":"lifecycle","fp":"00000000000000cc","ts":435,"kind":"scheduled","wave":1,"conflicts":0}
{"event":"lifecycle","fp":"00000000000000e1","ts":1000,"kind":"repair_proposed","program":"000000000000cafe","edits":1}
{"event":"lifecycle","fp":"00000000000000e1","ts":1001,"kind":"oracle_verdict","layer":1,"pass":true}
{"event":"lifecycle","fp":"00000000000000e1","ts":1002,"kind":"oracle_verdict","layer":2,"pass":true}
{"event":"lifecycle","fp":"00000000000000e1","ts":1003,"kind":"oracle_verdict","layer":3,"pass":true}
{"event":"lifecycle","fp":"00000000000000e1","ts":1004,"kind":"repair_accepted","edits":1}
{"event":"lifecycle","fp":"00000000000000e2","ts":1010,"kind":"repair_proposed","program":"000000000000beef","edits":2}
{"event":"lifecycle","fp":"00000000000000e2","ts":1011,"kind":"oracle_verdict","layer":1,"pass":true}
{"event":"lifecycle","fp":"00000000000000e2","ts":1012,"kind":"oracle_verdict","layer":2,"pass":true}
{"event":"lifecycle","fp":"00000000000000e2","ts":1013,"kind":"oracle_verdict","layer":3,"pass":false,"detail":"deleted-resource: repair deletes 'vm'"}
{"event":"lifecycle","fp":"00000000000000e2","ts":1014,"kind":"repair_rejected","layer":3,"reason":"deleted-resource: repair deletes 'vm'"}
{"event":"snapshot","metrics":{"counters":{},"gauges":{},"histograms":{}}}
"#;

    #[test]
    fn parses_schema_spans_and_events() {
        let trace = Trace::parse(SAMPLE);
        assert_eq!(trace.schema, 2);
        assert_eq!(trace.spans.len(), 5);
        assert_eq!(trace.events.len(), 20);
        let iter_span = &trace.spans[2];
        assert_eq!(iter_span.parent, 1);
        assert_eq!(
            iter_span.attrs.iter().find(|(k, _)| k == "iter"),
            Some(&("iter".to_string(), "0".to_string()))
        );
    }

    /// Older traces hold span lines with neither id nor timestamp; no
    /// writer emits them any more, but their files still load.
    #[test]
    fn parses_identity_less_span_lines() {
        let trace = Trace::parse("{\"event\":\"span\",\"path\":\"pipeline/mining\",\"us\":40}\n");
        assert_eq!(trace.schema, 0);
        let span = &trace.spans[0];
        assert_eq!((span.id, span.parent, span.ts_us), (0, 0, 0));
        assert_eq!((span.path.as_str(), span.dur_us), ("pipeline/mining", 40));
    }

    #[test]
    fn ledger_reconstructs_one_candidate_in_order() {
        let trace = Trace::parse(SAMPLE);
        let ledger = trace.ledger_for(0xAA);
        let kinds: Vec<&str> = ledger.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            vec![
                "mined",
                "filter_verdict",
                "scheduled",
                "deploy_outcome",
                "validated",
                "demoted"
            ]
        );
        let rendered = render_ledger(0xAA, &ledger);
        assert!(rendered.contains("00000000000000aa"));
        assert!(rendered.contains("demoted (reason: counterexample)"));
        assert!(rendered.contains("phase=plugin checks"));
    }

    #[test]
    fn demoted_fingerprints_finds_terminal_demotions() {
        let trace = Trace::parse(SAMPLE);
        assert_eq!(trace.demoted_fingerprints(), vec![0xAA]);
    }

    #[test]
    fn filtered_candidate_ledger_reports_the_killing_rule() {
        let trace = Trace::parse(SAMPLE);
        let ledger = trace.ledger_for(0xBB);
        let rendered = render_ledger(0xBB, &ledger);
        assert!(rendered.contains("filtered out (rule: min_lift)"));
    }

    #[test]
    fn report_renders_funnel_and_latency() {
        let trace = Trace::parse(SAMPLE);
        let report = render_report(&trace, 10);
        assert!(report.contains("funnel"));
        assert!(report.contains("latency attribution"));
        assert!(report.contains("pipeline/mining"));
        // pipeline has 900us of children → 100us self; mining has 400 self.
        assert!(report.contains("mined"));
        assert!(report.contains("counterexample"));
    }

    #[test]
    fn report_attributes_latency_by_wave() {
        let trace = Trace::parse(SAMPLE);
        let report = render_report(&trace, 10);
        assert!(
            report.contains("wave attribution (top 2 of 2 waves by deploy time, 0.400ms total)")
        );
        // wave 0: width 2, batch 5, degree 1, 300us = 75% of deploy time.
        assert!(report.contains("     0       2       5       1        0.300  75.0%"));
        assert!(report.contains("     1       1       2       3        0.100  25.0%"));
    }

    #[test]
    fn scheduled_without_terminal_verdict_is_in_flight() {
        let trace = Trace::parse(SAMPLE);
        let ledger = trace.ledger_for(0xCC);
        let rendered = render_ledger(0xCC, &ledger);
        assert!(
            rendered.contains("in flight / unresolved"),
            "scheduled-but-unresolved must not read as an error: {rendered}"
        );
        // A candidate that never reached the scheduler stays plain "open".
        let pre = Trace::parse(
            "{\"event\":\"trace\",\"schema\":2}\n{\"event\":\"lifecycle\",\"fp\":\"00000000000000dd\",\"ts\":1,\"kind\":\"mined\"}\n",
        );
        let rendered = render_ledger(0xDD, &pre.ledger_for(0xDD));
        assert!(rendered.contains("open (last event: mined)"), "{rendered}");
    }

    #[test]
    fn accepted_repair_ledger_reconstructs_layer_verdicts() {
        let trace = Trace::parse(SAMPLE);
        let ledger = trace.ledger_for(0xE1);
        let kinds: Vec<&str> = ledger.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            vec![
                "repair_proposed",
                "oracle_verdict",
                "oracle_verdict",
                "oracle_verdict",
                "repair_accepted"
            ]
        );
        let rendered = render_ledger(0xE1, &ledger);
        assert!(rendered.contains("layer=1 pass=true"), "{rendered}");
        assert!(rendered.contains("layer=3 pass=true"), "{rendered}");
        assert!(
            rendered.contains("verdict: repair accepted (1 edit(s))"),
            "{rendered}"
        );
    }

    #[test]
    fn rejected_repair_ledger_names_layer_and_reason() {
        let trace = Trace::parse(SAMPLE);
        let rendered = render_ledger(0xE2, &trace.ledger_for(0xE2));
        assert!(
            rendered
                .contains("verdict: repair rejected at L3 (deleted-resource: repair deletes 'vm')"),
            "{rendered}"
        );
    }

    #[test]
    fn post_validation_only_ledgers_are_partial_not_open() {
        // A daemon trace records `served` verdicts for checks whose mining
        // history lives in an earlier trace; a repair trace cut off
        // mid-oracle has proposals without a terminal. Neither is corrupt.
        let served_only = Trace::parse(
            "{\"event\":\"trace\",\"schema\":2}\n{\"event\":\"lifecycle\",\"fp\":\"00000000000000d1\",\"ts\":1,\"kind\":\"served\",\"cached\":true}\n",
        );
        let rendered = render_ledger(0xD1, &served_only.ledger_for(0xD1));
        assert!(
            rendered.contains("partial lifecycle (post-validation events only, last: served)"),
            "{rendered}"
        );
        let cut_off = Trace::parse(
            "{\"event\":\"trace\",\"schema\":2}\n{\"event\":\"lifecycle\",\"fp\":\"00000000000000d2\",\"ts\":1,\"kind\":\"repair_proposed\",\"edits\":2}\n{\"event\":\"lifecycle\",\"fp\":\"00000000000000d2\",\"ts\":2,\"kind\":\"oracle_verdict\",\"layer\":1,\"pass\":true}\n",
        );
        let rendered = render_ledger(0xD2, &cut_off.ledger_for(0xD2));
        assert!(
            rendered
                .contains("partial lifecycle (post-validation events only, last: oracle_verdict)"),
            "{rendered}"
        );
    }

    #[test]
    fn report_renders_repair_funnel() {
        let trace = Trace::parse(SAMPLE);
        let report = render_report(&trace, 10);
        assert!(report.contains("repair funnel"), "{report}");
        assert!(report.contains("repairs proposed"));
        let row = |label: &str, n: usize| format!("  {label:<40} {n:>8}\n");
        assert!(report.contains(&row("repairs proposed", 2)), "{report}");
        assert!(report.contains(&row("oracle verdicts", 6)), "{report}");
        assert!(report.contains(&row("accepted", 1)), "{report}");
        assert!(
            report.contains(&row("  at L3 (deceptive fix)", 1)),
            "{report}"
        );
        // A trace with no repair events renders no repair section.
        let plain = Trace::parse(
            "{\"event\":\"trace\",\"schema\":2}\n{\"event\":\"lifecycle\",\"fp\":\"00000000000000aa\",\"ts\":1,\"kind\":\"mined\"}\n",
        );
        assert!(!render_report(&plain, 10).contains("repair funnel"));
    }

    #[test]
    fn resolve_fingerprint_accepts_hex_and_check_text() {
        assert_eq!(resolve_fingerprint("00000000000000aa"), Ok(0xAA));
        let check = "let r:VM in r.priority == 'Spot' => r.eviction_policy != null";
        let parsed = zodiac_spec::parse_check(check).unwrap();
        assert_eq!(resolve_fingerprint(check), Ok(parsed.fingerprint()));
        assert!(resolve_fingerprint("not a check").is_err());
    }

    #[test]
    fn perfetto_export_round_trips_spans_and_instants() {
        // A deploy outcome as the trace sink writes it, appended after the
        // sample so it is the last event on the timeline.
        let deploy = zodiac_obs::CandidateEvent {
            fingerprint: 0xAB,
            ts_us: 2000,
            kind: zodiac_obs::Lifecycle::DeployOutcome {
                polarity: zodiac_obs::Polarity::FpProbe,
                success: false,
                phase: "plugin checks".into(),
                rule: "R1".into(),
                cached: true,
            },
        };
        let trace = Trace::parse(&format!("{SAMPLE}{}\n", deploy.to_json()));
        let json = trace.to_perfetto_json();
        let v: serde_json::Value = serde_json::from_str(&json).expect("well-formed");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents");
        assert_eq!(events.len(), 5 + 21);
        // ts must be monotonic.
        let ts: Vec<u64> = events
            .iter()
            .map(|e| e.get("ts").and_then(|t| t.as_u64()).unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        // Lifecycle args keep their JSON types: strings stay strings and
        // `cached` is a bool.
        let last = events.last().expect("deploy outcome instant");
        assert_eq!(
            last.get("name").and_then(|n| n.as_str()),
            Some("deploy_outcome")
        );
        assert_eq!(last.get("ph").and_then(|p| p.as_str()), Some("i"));
        let args = last.get("args").expect("args");
        assert_eq!(
            args.get("fp").and_then(|f| f.as_str()),
            Some("00000000000000ab")
        );
        assert_eq!(
            args.get("polarity").and_then(|p| p.as_str()),
            Some("fp_probe")
        );
        assert_eq!(
            args.get("phase").and_then(|p| p.as_str()),
            Some("plugin checks")
        );
        assert_eq!(args.get("rule").and_then(|r| r.as_str()), Some("R1"));
        assert_eq!(args.get("success").and_then(|s| s.as_bool()), Some(false));
        assert_eq!(args.get("cached").and_then(|c| c.as_bool()), Some(true));
    }
}
