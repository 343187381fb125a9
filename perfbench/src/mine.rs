//! The offline product: one evaluation pipeline run, deployed through the
//! timing oracles, and its deterministic fingerprint.

use crate::oracle::{OracleCounts, TimedOracle};
use crate::tracer::Tracer;
use std::sync::Arc;
use std::time::Instant;
use zodiac::{PipelineConfig, PipelineResult};
use zodiac_cloud::CloudSim;
use zodiac_deployer::{DeployEngine, DeployerConfig};
use zodiac_kb::KnowledgeBase;
use zodiac_obs::Obs;

/// The pipeline configuration of the `mine` workload: the evaluation
/// corpus (600 projects plus 300 counterexample projects) on `seed`, with one
/// deploy worker per core.
pub fn pipeline_config(seed: u64, workers: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::evaluation();
    cfg.corpus.seed = seed;
    cfg.deployer.workers = workers;
    cfg
}

/// The deploy path of one pipeline run: a timing oracle in front of a fresh
/// engine, which deploys through a metering oracle around the simulator.
pub type DeployPath = TimedOracle<DeployEngine<TimedOracle<CloudSim>>>;

/// Builds a fresh deploy path (cold in-memory caches); `tracer` receives
/// the oracle spans.
pub fn deploy_path(cfg: &DeployerConfig, tracer: Option<Arc<Tracer>>) -> DeployPath {
    let backend = TimedOracle::backend(CloudSim::new_azure(), tracer.clone());
    TimedOracle::front(DeployEngine::new(backend, cfg.clone()), tracer)
}

/// The quantities of a pipeline run that must repeat exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Funnel {
    /// Candidates instantiated from templates.
    pub hypothesized: usize,
    /// Candidates into validation.
    pub mined: usize,
    /// Validated checks.
    pub validated: usize,
    /// The final check set's size.
    pub final_checks: usize,
    /// `check_set_key` of the final check set.
    pub check_hash: u64,
    /// Deploy requests the pipeline made.
    pub requests: u64,
    /// Distinct programs that reached the cloud.
    pub cloud_deploys: u64,
    /// Their simulated cloud-seconds.
    pub cloud_secs: u64,
}

impl Funnel {
    /// The funnel of `result`, with deploy counts from the deploy path.
    pub fn of(result: &PipelineResult, front: OracleCounts, back: OracleCounts) -> Funnel {
        let finals: Vec<_> = result
            .final_checks
            .iter()
            .map(|v| v.mined.check.clone())
            .collect();
        Funnel {
            hypothesized: result.mining.hypothesized,
            mined: result.mining.checks.len(),
            validated: result.validation.validated.len(),
            final_checks: result.final_checks.len(),
            check_hash: zodiac::check_set_key(&finals),
            requests: front.requests,
            cloud_deploys: back.distinct,
            cloud_secs: back.cloud_secs,
        }
    }
}

/// One timed pipeline iteration.
pub struct MineRun {
    /// Wall time, seconds.
    pub secs: f64,
    /// Its deterministic quantities.
    pub funnel: Funnel,
    /// The result itself, until the caller drops it.
    pub result: Option<PipelineResult>,
    /// Counts of the front (engine-facing) oracle.
    pub front: OracleCounts,
    /// Counts of the backend (cloud-facing) oracle.
    pub back: OracleCounts,
}

/// Runs `zodiac::run_pipeline_with_obs` once on a fresh deploy path.
pub fn run_once(cfg: &PipelineConfig, kb: &KnowledgeBase) -> MineRun {
    let path = deploy_path(&cfg.deployer, None);
    let t0 = Instant::now();
    let result = zodiac::run_pipeline_with_obs(cfg, kb, &path, &Obs::null());
    let secs = t0.elapsed().as_secs_f64();
    let front = path.counts();
    let back = path.inner().backend().counts();
    MineRun {
        secs,
        funnel: Funnel::of(&result, front, back),
        result: Some(result),
        front,
        back,
    }
}
