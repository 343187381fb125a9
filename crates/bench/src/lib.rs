//! Shared harness for the experiment binaries (`exp_*`).
//!
//! Every binary regenerates one table or figure from the paper's evaluation
//! (§5). They share the corpus/pipeline setup, the negative-test-suite
//! generator, category bucketing, and plain-text table/JSON reporting.

use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;
use zodiac::{PipelineConfig, PipelineResult};
use zodiac_kb::KnowledgeBase;
use zodiac_mining::MinedCheck;
use zodiac_model::Program;
use zodiac_obs::{JsonLinesSink, MemoryRecorder, MetricsSnapshot, Obs, Recorder};
use zodiac_spec::{Check, ShapeCategory};
use zodiac_validation::{mdc, mutate};

/// The evaluation-scale pipeline configuration shared by experiments.
pub fn eval_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::evaluation();
    cfg.corpus.projects = 600;
    cfg.counterexample_projects = 300;
    cfg
}

/// Runs the shared pipeline, recording funnel counters and stage spans into
/// an observability handle, and returns the result plus the mined corpus.
pub fn run_eval_pipeline_obs(obs: &Obs) -> (PipelineResult, Vec<Program>) {
    let cfg = eval_config();
    let corpus: Vec<Program> = zodiac_corpus::generate(&cfg.corpus)
        .into_iter()
        .map(|p| p.program)
        .collect();
    let result = zodiac::run_pipeline_obs(&cfg, obs);
    (result, corpus)
}

/// Observability harness shared by the experiment binaries: an always-on
/// in-memory registry (so every record gains a funnel-stage metrics dump),
/// plus an optional JSON-lines trace sink enabled by `--trace-out FILE` on
/// the process command line (`zodiac report --trace FILE --perfetto OUT`
/// turns the trace into a Chrome/Perfetto timeline).
pub struct ExpObs {
    registry: Arc<MemoryRecorder>,
    trace: Option<Arc<JsonLinesSink>>,
    /// The handle to thread into pipeline runs and deploy engines.
    pub obs: Obs,
}

impl Default for ExpObs {
    fn default() -> Self {
        ExpObs::from_args()
    }
}

impl ExpObs {
    /// Builds the harness from the process arguments (`--trace-out FILE`).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let arg_value = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1).cloned())
        };
        let registry = Arc::new(MemoryRecorder::new());
        let mut sinks: Vec<Arc<dyn Recorder>> = vec![registry.clone()];
        let trace = arg_value("--trace-out").and_then(|path| match JsonLinesSink::create(&path) {
            Ok(sink) => Some(Arc::new(sink)),
            Err(e) => {
                eprintln!("warning: cannot create trace file {path}: {e}");
                None
            }
        });
        if let Some(sink) = &trace {
            sinks.push(sink.clone());
        }
        let obs = Obs::fanout(sinks);
        ExpObs {
            registry,
            trace,
            obs,
        }
    }

    /// A point-in-time snapshot of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Writes the experiment record under `target/experiments/` with the
    /// funnel metrics embedded as a top-level `metrics` key, then appends
    /// the final snapshot line to the trace file (if `--trace-out` was
    /// given) and flushes it.
    pub fn write_json_with_metrics<T: Serialize>(&self, name: &str, value: &T) {
        let snap = self.snapshot();
        let mut record = value.serialize();
        if let serde::Value::Object(fields) = &mut record {
            fields.insert("metrics".to_string(), snap.serialize());
        }
        write_json(name, &record);
        if let Some(sink) = &self.trace {
            sink.write_snapshot(&snap);
            let _ = sink.flush();
        }
    }
}

/// Table 2 / Figure 6 category of a check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Category {
    /// Intra-resource.
    Intra,
    /// Inter-resource without aggregation.
    Inter,
    /// Inter-resource with aggregation.
    InterAgg,
    /// LLM/oracle-interpolated quantitative checks.
    Interpolation,
}

impl Category {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Category::Intra => "intra-resource",
            Category::Inter => "inter w/o agg",
            Category::InterAgg => "inter w/ agg",
            Category::Interpolation => "interpolation",
        }
    }
}

/// Buckets a mined check by provenance + shape.
pub fn category_of(mined: &MinedCheck) -> Category {
    if mined.family.starts_with("interp/") {
        return Category::Interpolation;
    }
    match mined.check.shape_category() {
        ShapeCategory::Intra => Category::Intra,
        ShapeCategory::Inter => Category::Inter,
        ShapeCategory::InterAgg => Category::InterAgg,
    }
}

/// Generates up to `n` negative test cases for random validated checks —
/// the "~500 negative test cases" used as inputs to Tables 3 and 4.
pub fn negative_suite(
    checks: &[MinedCheck],
    corpus: &[Program],
    kb: &KnowledgeBase,
    n: usize,
) -> Vec<(usize, Program)> {
    let mut out = Vec::new();
    if checks.is_empty() {
        return out;
    }
    let cfg = mutate::MutationConfig::default();
    let mut seed = 0usize;
    while out.len() < n && seed < n * 4 {
        let idx = seed % checks.len();
        let offset = seed / checks.len();
        seed += 1;
        let check = &checks[idx].check;
        // Vary the positive case by scanning from different corpus offsets.
        let start = (offset * 37) % corpus.len().max(1);
        let rotated: Vec<Program> = corpus[start..]
            .iter()
            .chain(corpus[..start].iter())
            .cloned()
            .collect();
        let Some(positive) = mdc::find_positive(check, &rotated, kb, 150) else {
            continue;
        };
        let others: Vec<(Check, u64)> = checks
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != idx)
            .map(|(_, c)| (c.check.clone(), 50))
            .collect();
        match mutate::negative_test(check, &positive, &[], &others, kb, corpus, &cfg) {
            mutate::MutationResult::Negative(neg) => out.push((idx, neg.program)),
            _ => continue,
        }
    }
    out
}

/// Renders an aligned plain-text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("| {} |", joined.join(" | "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

/// Writes an experiment's JSON record under `target/experiments/`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("target/experiments");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, json);
        println!("\n[record written to {}]", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zodiac_spec::parse_check;

    #[test]
    fn category_bucketing() {
        let mk = |src: &str, family: &'static str| MinedCheck {
            check: parse_check(src).unwrap(),
            family,
            support: 1,
            confidence: 1.0,
            lift: None,
            interp: None,
        };
        assert_eq!(
            category_of(&mk(
                "let r:VM in r.priority == 'Spot' => r.eviction_policy != null",
                "intra/eq-notnull"
            )),
            Category::Intra
        );
        assert_eq!(
            category_of(&mk(
                "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => r1.location == r2.location",
                "conn/attr-eq"
            )),
            Category::Inter
        );
        assert_eq!(
            category_of(&mk(
                "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => indegree(r2, VM) == 1",
                "conn/indeg-one"
            )),
            Category::InterAgg
        );
        assert_eq!(
            category_of(&mk(
                "let r:VM in r.size == 'Standard_B1s' => outdegree(r, NIC) <= 2",
                "interp/degree-limit"
            )),
            Category::Interpolation
        );
    }
}
