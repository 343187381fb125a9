//! The request streams the serving workloads send, all functions of the seeds.
//!
//! * Scans: one request in five is a program the daemon has never seen — a
//!   generated project with 5% injected misconfigurations, rendered to HCL.
//!   The rest repeat already-sent programs with Zipf popularity, exponent
//!   0.5 (the earliest-sent programs are the most popular).
//! * Corpus deltas: each upserts the next five unseen projects of the
//!   corpus stream and removes the five oldest, so the served corpus keeps
//!   its size.
//! * Repairs: the programs of a pool of flagged (violating) programs, in a
//!   seeded order.

use crate::stats::{mix, Rng};
use serde::Value;
use zodiac_corpus::{CorpusConfig, Project, ProjectStream};

/// Programs sent before a repeat may target them: a repeat never names a
/// program the other connection may still be sending for the first time.
const REPEAT_LAG: usize = 4;
/// One scan in `FRESH_EVERY` is a never-seen program.
const FRESH_EVERY: u64 = 5;
/// The Zipf exponent of repeat popularity. Under the classic exponent 1 the
/// ten earliest of 2000 sent programs draw a third of all repeats, so the
/// cost of those few seeded programs sets the scan percentiles beside writes
/// (p50 from 410 to 710 us between seeds); at 0.5 they draw a twentieth.
const POPULARITY_SKEW: f64 = 0.5;

/// The corpus configuration of the evaluation pipeline, on `seed`.
pub fn eval_corpus(seed: u64) -> CorpusConfig {
    let mut cfg = zodiac::PipelineConfig::evaluation().corpus;
    cfg.seed = seed;
    cfg
}

/// The `k`-th never-seen program of the stream seeded by `seed`: a one-project
/// corpus with 5% noise, rendered to HCL.
pub fn fresh_source(seed: u64, k: u64) -> String {
    let cfg = CorpusConfig {
        seed: mix(seed, k),
        projects: 1,
        noise_rate: 0.05,
        ..eval_corpus(0)
    };
    ProjectStream::new(&cfg)
        .next()
        .map(|p| p.to_hcl())
        .unwrap_or_default()
}

/// A JSON string literal holding `s`.
pub fn json_str(s: &str) -> String {
    Value::String(s.to_string()).to_string()
}

/// One `scan` request line.
pub fn scan_line(source: &str) -> String {
    format!("{{\"op\":\"scan\",\"source\":{}}}", json_str(source))
}

/// One `repair` request line.
pub fn repair_line(source: &str) -> String {
    format!("{{\"op\":\"repair\",\"source\":{}}}", json_str(source))
}

/// One `submit_corpus_delta` request line.
pub fn delta_line(upsert: &[(String, String)], remove: &[String]) -> String {
    let ups: Vec<String> = upsert
        .iter()
        .map(|(id, src)| {
            format!(
                "{{\"project\":{},\"source\":{}}}",
                json_str(id),
                json_str(src)
            )
        })
        .collect();
    let rem: Vec<String> = remove.iter().map(|id| json_str(id)).collect();
    format!(
        "{{\"op\":\"submit_corpus_delta\",\"upsert\":[{}],\"remove\":[{}]}}",
        ups.join(","),
        rem.join(",")
    )
}

/// What one scan step sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The `k`-th never-seen program.
    Fresh(u32),
    /// A repeat of the `k`-th program.
    Repeat(u32),
}

impl Step {
    /// The program this step sends.
    pub fn program(self) -> u32 {
        match self {
            Step::Fresh(k) | Step::Repeat(k) => k,
        }
    }
}

/// A precomputed scan request sequence. Steps are handed out through a
/// shared cursor, so the requests sent are the same prefix of one sequence
/// however the connections interleave. Every request line is rendered when
/// the plan is built, so no phase pays for generating its own inputs.
pub struct ScanPlan {
    seed: u64,
    steps: Vec<Step>,
    lines: Vec<String>,
}

impl ScanPlan {
    /// The first `len` steps of the sequence seeded by `seed`.
    pub fn new(seed: u64, len: usize) -> ScanPlan {
        let mut rng = Rng::new(mix(seed, 0x5CA9));
        let mut steps = Vec::with_capacity(len);
        let mut fresh = 0u32;
        for i in 0..len {
            let sent = fresh as usize;
            let eligible = sent.saturating_sub(REPEAT_LAG.min(i));
            if eligible == 0 || rng.next_u64().is_multiple_of(FRESH_EVERY) {
                steps.push(Step::Fresh(fresh));
                fresh += 1;
            } else {
                steps.push(Step::Repeat(rng.zipf(eligible, POPULARITY_SKEW) as u32));
            }
        }
        // Two threads render the programs, each an interleaved half.
        let render = |parity: u32| -> Vec<String> {
            (parity..fresh)
                .step_by(2)
                .map(|k| scan_line(&fresh_source(seed, u64::from(k))))
                .collect()
        };
        let (even, odd) = std::thread::scope(|s| {
            let odd = s.spawn(|| render(1));
            (render(0), odd.join().expect("plan renderer panicked"))
        });
        let mut lines = Vec::with_capacity(fresh as usize);
        let mut odd = odd.into_iter();
        for line in even {
            lines.push(line);
            lines.extend(odd.next());
        }
        ScanPlan { seed, steps, lines }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Step `i`.
    pub fn step(&self, i: usize) -> Step {
        self.steps[i]
    }

    /// The source of program `k`.
    pub fn source(&self, k: u32) -> String {
        fresh_source(self.seed, u64::from(k))
    }

    /// The request line of step `i`.
    pub fn line(&self, i: usize) -> &str {
        &self.lines[self.steps[i].program() as usize]
    }
}

/// The order in which write cycles send the `n` programs of the repair
/// pool: a seeded permutation, repeated. Every `n` consecutive cycles send
/// every program once, so runs on different seeds repair the same programs.
pub fn repair_order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// One corpus delta.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Upserted projects: (id, HCL source).
    pub upsert: Vec<(String, String)>,
    /// Removed project ids.
    pub remove: Vec<String>,
}

impl Delta {
    /// The `submit_corpus_delta` request line.
    pub fn line(&self) -> String {
        delta_line(&self.upsert, &self.remove)
    }
}

/// The corpus-delta stream: bootstraps `base` projects, then each delta
/// upserts the next `width` projects of the stream and removes the oldest
/// `width`.
///
/// The stream belongs to the corpus, not to the traffic: whether a delta
/// changes the published check set, and so how many scans beside it miss
/// the verdict cache, depends on which projects it upserts.
pub struct DeltaStream {
    stream: ProjectStream,
    base: usize,
    width: usize,
    cycle: usize,
}

impl DeltaStream {
    /// A stream over the evaluation corpus on `seed`.
    pub fn new(seed: u64, base: usize, width: usize) -> DeltaStream {
        let mut cfg = eval_corpus(seed);
        cfg.projects = usize::MAX;
        DeltaStream {
            stream: ProjectStream::new(&cfg),
            base,
            width,
            cycle: 0,
        }
    }

    fn take(&mut self, n: usize) -> Vec<(String, String)> {
        let start = self.stream.position();
        self.stream
            .by_ref()
            .take(n)
            .enumerate()
            .map(|(i, p): (usize, Project)| (format!("p{}", start + i), p.to_hcl()))
            .collect()
    }

    /// The bootstrap delta: the first `base` projects.
    pub fn bootstrap(&mut self) -> Delta {
        Delta {
            upsert: self.take(self.base),
            remove: Vec::new(),
        }
    }

    /// The next delta.
    pub fn next_delta(&mut self) -> Delta {
        let upsert = self.take(self.width);
        let first = self.cycle * self.width;
        let remove = (first..first + self.width)
            .map(|i| format!("p{i}"))
            .collect();
        self.cycle += 1;
        Delta { upsert, remove }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_function_of_the_seed() {
        let a = ScanPlan::new(3, 500);
        let b = ScanPlan::new(3, 500);
        assert_eq!(a.steps, b.steps);
        assert_ne!(a.steps, ScanPlan::new(4, 500).steps);
        assert_eq!(a.line(10), b.line(10));
        let k = a.step(10).program();
        assert_eq!(a.line(10), scan_line(&a.source(k)));
    }

    #[test]
    fn one_scan_in_five_is_fresh_and_repeats_trail_the_sent_prefix() {
        let plan = ScanPlan::new(1, 20_000);
        let fresh = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Fresh(_)))
            .count();
        assert!((3_600..4_400).contains(&fresh), "fresh = {fresh}");
        let mut sent = 0u32;
        for (i, s) in plan.steps.iter().enumerate() {
            match *s {
                Step::Fresh(k) => {
                    assert_eq!(k, sent);
                    sent += 1;
                }
                Step::Repeat(k) => assert!(k + (REPEAT_LAG.min(i) as u32) < sent),
            }
        }
    }

    #[test]
    fn repair_order_is_a_seeded_permutation() {
        let mut a = repair_order(5, 32);
        assert_ne!(a, repair_order(6, 32));
        assert_eq!(a, repair_order(5, 32));
        a.sort_unstable();
        assert_eq!(a, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn deltas_keep_the_corpus_size() {
        let mut d = DeltaStream::new(9, 4, 2);
        let boot = d.bootstrap().line();
        assert!(boot.contains("\"p3\"") && !boot.contains("\"p4\""));
        let first = d.next_delta().line();
        assert!(first.contains("\"p4\"") && first.contains("\"p5\""));
        assert!(first.contains("\"remove\":[\"p0\",\"p1\"]"));
        let second = d.next_delta().line();
        assert!(second.contains("\"remove\":[\"p2\",\"p3\"]"));
    }
}
