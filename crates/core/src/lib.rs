//! # Zodiac
//!
//! A Rust reproduction of *"Unearthing Semantic Checks for Cloud
//! Infrastructure-as-Code Programs"* (SOSP 2024): an automated pipeline that
//! **mines** semantic checks for Terraform/Azure programs from a corpus of
//! repositories and **validates** them through deployment-based testing.
//!
//! The crates compose as in the paper's Figure 2:
//!
//! ```text
//! corpus ──► knowledge base ──► mining (templates + statistics + oracle)
//!    │                                        │ hypothesized checks
//!    │                                        ▼
//!    └────────────► validation (MDC + solver mutation + scheduler) ──► R_v
//!                          │ positive/negative test cases
//!                          ▼
//!                 cloud simulator (deploy / observe)
//! ```
//!
//! This crate ties the phases together behind [`run_pipeline`] and offers
//! the downstream use case — scanning user programs for violations of
//! validated checks ([`scanner`]).
//!
//! Every phase threads a `zodiac-obs` [`Obs`] handle: pass one to
//! [`run_pipeline_obs`] to collect funnel counters and
//! `pipeline/corpus` → `pipeline/mining` → `pipeline/validation` →
//! deployment stage spans across the whole run.
//!
//! # Examples
//!
//! ```no_run
//! use zodiac::{PipelineConfig, run_pipeline};
//!
//! let mut cfg = PipelineConfig::default();
//! cfg.corpus.projects = 300;
//! let result = run_pipeline(&cfg);
//! println!(
//!     "validated {} checks ({} false positives removed)",
//!     result.final_checks.len(),
//!     result.validation.false_positives.len()
//! );
//! ```

pub mod fixtures;
pub mod insights;
pub mod provenance;
pub mod scanner;

pub use scanner::{
    check_set_key, scan_corpus, scan_program, MisconfigReport, ScanCache, Violation,
};

use serde::Serialize;
use std::collections::BTreeSet;
use zodiac_cloud::CloudSim;
use zodiac_corpus::CorpusConfig;
use zodiac_deployer::{DeployEngine, DeployerConfig};
use zodiac_kb::KnowledgeBase;
use zodiac_mining::{MiningConfig, MiningReport};
use zodiac_model::Program;
use zodiac_obs::{MetricsSnapshot, Obs};
use zodiac_validation::{
    counterexample::{counterexample_pass_obs, CounterexampleReport},
    DeployOracle, Scheduler, SchedulerConfig, ValidatedCheck, ValidationOutcome,
};

/// End-to-end pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Corpus generation (the crawled-repository substitute).
    pub corpus: CorpusConfig,
    /// Mining phase settings.
    pub mining: MiningConfig,
    /// Validation scheduler settings.
    pub scheduler: SchedulerConfig,
    /// Deployment execution engine settings (worker pool, memoization,
    /// fault injection). The engine is semantics-preserving, so these only
    /// affect speed and telemetry, never `R_v`.
    pub deployer: DeployerConfig,
    /// Extra projects generated for the §5.6 counterexample pass
    /// (0 disables the pass).
    pub counterexample_projects: usize,
    /// Violating programs examined per check in the counterexample pass.
    pub counterexample_budget: usize,
    /// Worker shards for the mining observation pass (0 or 1 = monolithic).
    /// Any value yields byte-identical mining results — the shard merge is
    /// exact — so this only trades threads for wall-clock.
    pub mining_shards: usize,
    /// Stream the corpus through mining one project at a time instead of
    /// materialising `Vec<Project>` — the 100k-project mode. Validation
    /// (which needs in-memory programs to deploy) then runs over a prefix
    /// of the same corpus, kept as it streams past; see
    /// [`PipelineConfig::validation_projects`]. Keeping the prefix instead
    /// of generating it again holds it in memory beside the observation
    /// database for the whole mining pass: at 10k projects with the
    /// default 600-program prefix, peak RSS rises from ~90 to ~110 MiB.
    pub stream_corpus: bool,
    /// Cap on corpus projects materialised for validation. `None` means all
    /// projects in batch mode and `min(projects, 600)` in streaming mode —
    /// so at the default 600-project scale, streaming and batch runs are
    /// byte-identical end-to-end.
    pub validation_projects: Option<usize>,
}

impl PipelineConfig {
    /// The configuration used by the evaluation binaries: a moderately
    /// sized corpus with realistic noise.
    pub fn evaluation() -> Self {
        PipelineConfig {
            corpus: CorpusConfig {
                projects: 600,
                noise_rate: 0.02,
                rare_option_rate: 0.004,
                ..Default::default()
            },
            counterexample_projects: 300,
            counterexample_budget: 8,
            ..Default::default()
        }
    }
}

/// Everything the pipeline produced.
#[derive(Serialize)]
pub struct PipelineResult {
    /// Number of corpus projects mined.
    pub corpus_projects: usize,
    /// Mining report (funnel counters + surviving checks).
    pub mining: MiningReport,
    /// Validation outcome (R_v, false positives, trace).
    pub validation: ValidationOutcome,
    /// Checks demoted by the counterexample pass (indices into
    /// `validation.validated`).
    pub demoted: Vec<usize>,
    /// Counterexample-pass statistics.
    #[serde(skip)]
    pub counterexamples: CounterexampleReport,
    /// The final check set: validated minus demoted.
    pub final_checks: Vec<ValidatedCheck>,
    /// Execution-engine metrics for the whole run (the `deploy.*`
    /// namespace: requests, cache hits, retries, latency histograms), when
    /// deployment went through an engine.
    pub deploy_metrics: Option<MetricsSnapshot>,
}

/// Runs corpus generation → mining → validation → counterexample testing.
///
/// Deployment goes through a [`DeployEngine`] configured by
/// [`PipelineConfig::deployer`] wrapping the Azure simulator.
pub fn run_pipeline(cfg: &PipelineConfig) -> PipelineResult {
    run_pipeline_obs(cfg, &Obs::null())
}

/// [`run_pipeline`] with an observability handle: every phase records its
/// funnel counters and stage spans into `obs`, and the deploy engine fans
/// its `deploy.*` metrics out to it as well.
pub fn run_pipeline_obs(cfg: &PipelineConfig, obs: &Obs) -> PipelineResult {
    let kb = zodiac_kb::azure_kb();
    let engine = DeployEngine::with_obs(CloudSim::new_azure(), cfg.deployer.clone(), obs.clone());
    run_pipeline_with_obs(cfg, &kb, &engine, obs)
}

/// [`run_pipeline`] with an injected KB and deployment oracle — any
/// [`DeployOracle`]: the bare simulator, an execution engine wrapping it, or
/// a test double.
pub fn run_pipeline_with<D: DeployOracle>(
    cfg: &PipelineConfig,
    kb: &KnowledgeBase,
    sim: &D,
) -> PipelineResult {
    run_pipeline_with_obs(cfg, kb, sim, &Obs::null())
}

/// [`run_pipeline_with`] plus an observability handle threaded through
/// every phase.
pub fn run_pipeline_with_obs<D: DeployOracle>(
    cfg: &PipelineConfig,
    kb: &KnowledgeBase,
    sim: &D,
    obs: &Obs,
) -> PipelineResult {
    let pipeline_span = obs.start_span("pipeline");
    let shard = zodiac_mining::ShardConfig::with_shards(cfg.mining_shards);
    let (corpus_projects, mining, programs) = if cfg.stream_corpus {
        // Streaming mode: projects are generated on demand inside the shard
        // driver's producer loop and never live in memory all at once, so
        // there is no separate `pipeline/corpus` span — generation cost is
        // part of the mining span, and per-project corpus counters are
        // recorded as each project streams past. Validation deploys
        // programs, so the first `val_n` are kept.
        let val_n = cfg
            .validation_projects
            .unwrap_or_else(|| cfg.corpus.projects.min(600))
            .min(cfg.corpus.projects);
        let mut programs: Vec<Program> = Vec::with_capacity(val_n);
        let stream = zodiac_corpus::ProjectStream::new(&cfg.corpus).map(|p| {
            zodiac_corpus::observe_project(&p, obs);
            if programs.len() < val_n {
                programs.push(p.program.clone());
            }
            p.program
        });
        let (mining, streamed) =
            zodiac_mining::mine_streaming_obs(stream, kb, &cfg.mining, &shard, obs);
        (streamed, mining, programs)
    } else {
        let corpus = zodiac_corpus::generate_obs(&cfg.corpus, obs);
        let corpus_projects = corpus.len();
        let mut programs: Vec<Program> = corpus.into_iter().map(|p| p.program).collect();
        let (mining, _) =
            zodiac_mining::mine_streaming_obs(&programs, kb, &cfg.mining, &shard, obs);
        if let Some(n) = cfg.validation_projects {
            programs.truncate(n);
        }
        (corpus_projects, mining, programs)
    };

    let validation_span = obs.start_span("pipeline/validation");
    let scheduler = Scheduler::new(sim, kb, &programs, cfg.scheduler.clone()).with_obs(obs.clone());
    let validation = scheduler.run(mining.checks.clone());
    validation_span.finish();

    let (counterexamples, demoted) = if cfg.counterexample_projects > 0 {
        let extra_cfg = CorpusConfig {
            projects: cfg.counterexample_projects,
            seed: cfg.corpus.seed.wrapping_add(0x5EED),
            // The extra corpus leans on rare options so open-world false
            // positives surface (§5.6).
            rare_option_rate: (cfg.corpus.rare_option_rate * 4.0).clamp(0.0, 0.05),
            ..cfg.corpus.clone()
        };
        let extra: Vec<Program> = zodiac_corpus::generate(&extra_cfg)
            .into_iter()
            .map(|p| p.program)
            .collect();
        let report = counterexample_pass_obs(
            &validation.validated,
            &extra,
            kb,
            sim,
            cfg.counterexample_budget.max(1),
            obs,
        );
        let demoted = report.demoted.clone();
        (report, demoted)
    } else {
        (CounterexampleReport::default(), Vec::new())
    };

    // Set-membership filtering: `demoted` is sorted but can grow with the
    // validated set, and `Vec::contains` per element made this quadratic.
    let demoted_set: BTreeSet<usize> = demoted.iter().copied().collect();
    let final_checks: Vec<ValidatedCheck> = validation
        .validated
        .iter()
        .enumerate()
        .filter(|(i, _)| !demoted_set.contains(i))
        .map(|(_, v)| v.clone())
        .collect();

    obs.gauge_set("pipeline.final_checks", final_checks.len() as u64);
    pipeline_span.finish();

    PipelineResult {
        corpus_projects,
        mining,
        validation,
        demoted,
        counterexamples,
        final_checks,
        deploy_metrics: sim.telemetry(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zodiac_obs::MemoryRecorder;

    #[test]
    fn every_mining_run_records_op_mine_us() {
        for shards in [0, 2] {
            let mut cfg = PipelineConfig::evaluation();
            cfg.corpus.projects = 40;
            cfg.counterexample_projects = 0;
            cfg.mining_shards = shards;
            let rec = Arc::new(MemoryRecorder::new());
            run_pipeline_obs(&cfg, &Obs::single(rec.clone()));
            assert_eq!(
                rec.snapshot().histogram("op.mine.us").count,
                1,
                "{shards} mining shards"
            );
        }
    }
}
