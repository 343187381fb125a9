//! # zodiac-testkit
//!
//! Property-based **differential fuzzing** of the mine→mutate→validate
//! pipeline. The paper's core claim (§5.6) is that deployment-based
//! validation filters out wrong hypotheses; this crate checks that claim
//! against the simulator's ground truth on inputs nobody hand-wrote.
//!
//! The fuzzer runs in *episodes*. Each episode mines and validates checks
//! from a fresh seeded corpus, then asserts a hierarchy of properties:
//!
//! 1. **Soundness** — no surviving check rejects a program
//!    [`CloudSim`](zodiac_cloud::CloudSim) deploys successfully. Generated wild programs double as the
//!    open-world corpus for the §5.6 counterexample pass first, so the
//!    property is asserted over post-demotion checks, exactly as the
//!    pipeline ships them.
//! 2. **Mutation efficacy** — every validated check's SMT-mutated negative
//!    program failed deployment, in the *phase its ground-truth rule
//!    declares* (a differential check between the scheduler's captured
//!    report and the rule table).
//! 3. **Permutation stability** — re-running the scheduler on a shuffled
//!    candidate list validates the same check set.
//! 4. **Corpus monotonicity** — self-duplicating the corpus (which doubles
//!    support while provably preserving confidence and lift) never shrinks
//!    the mined candidate set.
//! 5. **Print/parse round-trip** — every mined and generated check
//!    re-parses to an identical IR value (the property that catches the
//!    historical literal-escaping bug).
//! 6. **Repair soundness** — every repair `zodiac-repair` *accepts* against
//!    the episode's surviving checks yields a program that violates none of
//!    them and still deploys on [`CloudSim`](zodiac_cloud::CloudSim).
//! 7. **Repair minimality** — no strict subset of an accepted repair's
//!    edits clears all three oracle layers (deploy-succeeds, checks-pass,
//!    intent-preserved).
//! 8. **Repair intent** — an accepted repair never deletes a resource
//!    present in the original program and never trips the deceptive-fix
//!    detector (scope narrowing, dropped references or attributes the
//!    violated checks do not mention).
//! 9. **Shard invariance** — mining with a random shard count, over the
//!    materialised corpus and over a stream of it, reproduces the 1-shard
//!    candidate list byte-for-byte.
//! 10. **Evaluator short-circuit** — over generated and mined checks
//!     crossed with generated graphs, the evaluator's early-exit queries
//!     agree with its full instance list: `holds` is true exactly when no
//!     instance is a violation, `first_witness` is the first witnessing
//!     instance, and `violations` is the instance list filtered to
//!     violations, in the same order. Each instance's condition and
//!     statement, grounded with no solver variables and evaluated under
//!     the empty assignment, equal the evaluator's.
//!
//! The wave scheduler's equivalence to one-candidate-at-a-time validation
//! is not a fuzz property: `zodiac-validation` checks it against a
//! test-only reference loop, on this fuzzer's own episode corpora among
//! others.
//!
//! Failures shrink deterministically ([`shrink`]) and the whole report is
//! a pure function of `(seed, cases)` — byte-identical across runs — so a
//! printed replay seed reproduces any failure exactly.
//!
//! ```no_run
//! use zodiac_testkit::{run_fuzz, FuzzConfig};
//! let report = run_fuzz(&FuzzConfig { cases: 64, ..Default::default() });
//! assert!(report.passed(), "{}", report.render());
//! ```

pub mod gen;
mod oracle;
pub mod regression;
pub mod shrink;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;
use zodiac_obs::Obs;

/// Fuzzing configuration. The report is a pure function of this value.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every episode and case derives from it.
    pub seed: u64,
    /// Total generated-program soundness cases.
    pub cases: usize,
    /// Cases per episode (each episode runs one mini pipeline).
    pub cases_per_episode: usize,
    /// Corpus projects mined per episode.
    pub corpus_projects: usize,
    /// Generated checks fed to the round-trip property per episode, on top
    /// of every mined candidate.
    pub checks_per_episode: usize,
    /// Violating programs repaired per episode for the repair properties
    /// (6–8). Targets are wild cases that violate a surviving check, topped
    /// up with noise-injected corpus programs.
    pub repairs_per_episode: usize,
    /// Optional wall-clock budget: no new episode starts after this many
    /// seconds. Truncation is recorded in the report, which makes the
    /// output timing-dependent — leave `None` (the default) when
    /// byte-identical reports matter.
    pub max_seconds: Option<u64>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xC0FFEE,
            cases: 256,
            cases_per_episode: 64,
            corpus_projects: 32,
            checks_per_episode: 32,
            repairs_per_episode: 3,
            max_seconds: None,
        }
    }
}

/// The property names, in reporting order.
pub const PROPERTIES: &[&str] = &[
    "soundness",
    "mutation-efficacy",
    "permutation-stability",
    "corpus-monotonicity",
    "print-parse-roundtrip",
    "repair-soundness",
    "repair-minimality",
    "repair-intent",
    "shard-invariance",
    "eval-short-circuit",
];

/// One verified-property failure, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Which property fell (one of [`PROPERTIES`]).
    pub property: &'static str,
    /// Episode index.
    pub episode: usize,
    /// Seed that replays the failing derivation (episode seed, or the
    /// per-case seed for program-level failures).
    pub replay_seed: u64,
    /// Human-readable detail, including the shrunk artifact.
    pub detail: String,
}

/// Per-episode pipeline statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpisodeStats {
    /// Episode seed (derived from the master seed).
    pub seed: u64,
    /// Corpus programs mined.
    pub corpus_projects: usize,
    /// Mined candidates entering validation.
    pub candidates: usize,
    /// Checks validated by the scheduler.
    pub validated: usize,
    /// Checks demoted by the counterexample pass.
    pub demoted: usize,
    /// Soundness cases generated.
    pub cases: usize,
    /// Of those, programs the simulator deployed successfully.
    pub deployable: usize,
}

/// Per-property tallies.
#[derive(Debug, Clone, Copy, Default)]
pub struct PropertyStats {
    /// Individual assertions checked.
    pub checked: usize,
    /// Assertions that failed.
    pub failures: usize,
}

/// The full fuzzing report. [`FuzzReport::render`] is deterministic for a
/// given [`FuzzConfig`] (with no time budget): no timestamps, no map
/// iteration of unordered state, no thread interleaving.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Master seed.
    pub seed: u64,
    /// Requested soundness cases.
    pub cases_requested: usize,
    /// Episodes planned from the configuration.
    pub episodes_planned: usize,
    /// Per-episode statistics (one entry per *completed* episode).
    pub episodes: Vec<EpisodeStats>,
    /// Per-property tallies, index-aligned with [`PROPERTIES`].
    pub properties: Vec<PropertyStats>,
    /// All failures, in discovery order.
    pub failures: Vec<FuzzFailure>,
    /// True when the time budget stopped the run early.
    pub truncated: bool,
}

impl FuzzReport {
    /// True when every property held on every case.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn tally(&mut self, property: &'static str, n: usize) {
        if let Some(i) = PROPERTIES.iter().position(|p| *p == property) {
            self.properties[i].checked += n;
        }
    }

    fn fail(&mut self, failure: FuzzFailure) {
        if let Some(i) = PROPERTIES.iter().position(|p| *p == failure.property) {
            self.properties[i].failures += 1;
        }
        self.failures.push(failure);
    }

    /// Renders the deterministic text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "zodiac fuzz report");
        let _ = writeln!(out, "seed: {:#x}", self.seed);
        let _ = writeln!(out, "cases: {}", self.cases_requested);
        let _ = writeln!(
            out,
            "episodes: {}/{}{}",
            self.episodes.len(),
            self.episodes_planned,
            if self.truncated {
                " (time budget exceeded)"
            } else {
                ""
            }
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<8} {:<20} {:>7} {:>11} {:>10} {:>8} {:>6} {:>11}",
            "episode",
            "seed",
            "corpus",
            "candidates",
            "validated",
            "demoted",
            "cases",
            "deployable"
        );
        for (i, e) in self.episodes.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<8} {:<20} {:>7} {:>11} {:>10} {:>8} {:>6} {:>11}",
                i,
                format!("{:#x}", e.seed),
                e.corpus_projects,
                e.candidates,
                e.validated,
                e.demoted,
                e.cases,
                e.deployable
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<24} {:>8} {:>9}", "property", "checked", "failures");
        for (name, stats) in PROPERTIES.iter().zip(&self.properties) {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>9}",
                name, stats.checked, stats.failures
            );
        }
        if !self.failures.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "failures:");
            for f in &self.failures {
                let _ = writeln!(
                    out,
                    "[{}] episode {}, replay seed {:#x}",
                    f.property, f.episode, f.replay_seed
                );
                for line in f.detail.lines() {
                    let _ = writeln!(out, "  {line}");
                }
            }
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "result: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Runs the fuzzer without observability.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    run_fuzz_obs(cfg, &Obs::null())
}

/// [`run_fuzz`] with an observability handle: records a `fuzz` span with
/// one bounded `fuzz/episode` child per episode (the episode index is a
/// span attribute), plus `fuzz.cases`, `fuzz.deployable`, and
/// `fuzz.failures` counters.
pub fn run_fuzz_obs(cfg: &FuzzConfig, obs: &Obs) -> FuzzReport {
    let _span = obs.start_span("fuzz");
    let start = Instant::now();
    let cases = cfg.cases.max(1);
    let per_episode = cfg.cases_per_episode.max(1);
    let episodes = cases.div_ceil(per_episode);

    let mut report = FuzzReport {
        seed: cfg.seed,
        cases_requested: cases,
        episodes_planned: episodes,
        properties: vec![PropertyStats::default(); PROPERTIES.len()],
        ..Default::default()
    };

    let mut master = StdRng::seed_from_u64(cfg.seed);
    for ep in 0..episodes {
        let episode_seed: u64 = master.gen();
        if let Some(budget) = cfg.max_seconds {
            if ep > 0 && start.elapsed().as_secs() >= budget {
                report.truncated = true;
                break;
            }
        }
        let episode_cases = per_episode.min(cases - ep * per_episode);
        let mut span = obs.start_span("fuzz/episode");
        span.attr("episode", ep);
        oracle::run_episode(ep, episode_seed, episode_cases, cfg, obs, &mut report);
        span.finish();
    }

    obs.counter(
        "fuzz.cases",
        report.episodes.iter().map(|e| e.cases as u64).sum(),
    );
    obs.counter(
        "fuzz.deployable",
        report.episodes.iter().map(|e| e.deployable as u64).sum(),
    );
    obs.counter("fuzz.failures", report.failures.len() as u64);
    report
}
