//! The deployment execution engine.

use crate::fault::{AttemptInjector, FaultConfig};
use crate::fingerprint::fingerprint;
use crate::memo::DeployMemo;
use crate::RetryPolicy;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use zodiac_cloud::{DeployOracle, DeployReport};
use zodiac_model::Program;
use zodiac_obs::{MemoryRecorder, MetricsSnapshot, Obs};

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployerConfig {
    /// Worker threads used by [`DeployOracle::deploy_batch`]. `1` keeps
    /// everything on the calling thread.
    pub workers: usize,
    /// Memoize deploy results by canonical program fingerprint.
    pub cache: bool,
    /// Inject deterministic transient faults (None = fault-free backend).
    pub faults: Option<FaultConfig>,
    /// Retry/backoff policy for transient failures.
    pub retry: RetryPolicy,
    /// Path of a cross-process persistent deploy memo ([`DeployMemo`]);
    /// verdicts recorded there survive the process and are shared between
    /// the CLI, benches, and `zodiacd`.
    pub persistent_cache: Option<PathBuf>,
}

impl Default for DeployerConfig {
    fn default() -> Self {
        DeployerConfig {
            workers: 4,
            cache: true,
            faults: None,
            retry: RetryPolicy::default(),
            persistent_cache: None,
        }
    }
}

const CACHE_SHARDS: usize = 16;

/// A concurrent, fault-tolerant, memoizing deployment engine wrapping any
/// [`DeployOracle`] backend.
///
/// The engine is itself a `DeployOracle`, so consumers (the validation
/// scheduler, the counterexample pass, the scanner) are oblivious to
/// whether they talk to the backend directly or through the engine.
///
/// # Metrics
///
/// The engine always records into an internal `zodiac-obs` registry
/// (surfaced by [`DeployOracle::telemetry`] / [`DeployEngine::metrics`]),
/// and additionally fans out to any external [`Obs`] handle passed to
/// [`DeployEngine::with_obs`] — e.g. the CLI's trace sink. Counters live
/// under the `deploy.*` namespace:
///
/// * `deploy.requests`, `deploy.cache_hits`, `deploy.backend_deploys`
/// * `deploy.persistent_hits`, `deploy.persistent_stores`,
///   `deploy.persistent_errors` (cross-process memo traffic)
/// * `deploy.transient_failures`, `deploy.retries`, `deploy.backoff_secs`
/// * gauge `deploy.queue_depth.max` (worker-pool high-water mark)
/// * histograms `deploy.latency_us.cache_hit` / `deploy.latency_us.backend`
///
/// # Equivalence guarantee
///
/// For a deterministic backend, `engine.deploy(p)` returns exactly
/// `backend.deploy(p)` — regardless of worker count, cache state, or fault
/// injection. Three mechanisms compose to give this:
///
/// * the cache key is a canonical fingerprint ([`crate::fingerprint()`]), so a
///   hit can only return the verdict of a semantically identical program;
/// * transient failures (rule ids under `transient/`) are never returned:
///   the retry loop consumes them, and every retry of a deterministic
///   backend that gets past the injector yields the fault-free verdict
///   (injected faults preempt evaluation but never alter it);
/// * the final retry attempt always runs injector-free, so the loop
///   terminates with the backend's own verdict even under fault rates of
///   `1.0`.
pub struct DeployEngine<B> {
    backend: B,
    cfg: DeployerConfig,
    cache: Vec<RwLock<HashMap<u128, DeployReport>>>,
    persistent: Option<Mutex<DeployMemo>>,
    registry: Arc<MemoryRecorder>,
    obs: Obs,
}

impl<B: DeployOracle + Sync> DeployEngine<B> {
    /// Wraps `backend` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`DeployerConfig::persistent_cache`] names a file that
    /// cannot be opened as a deploy memo; use
    /// [`DeployEngine::try_with_obs`] to handle that error.
    pub fn new(backend: B, cfg: DeployerConfig) -> Self {
        DeployEngine::with_obs(backend, cfg, Obs::null())
    }

    /// Wraps `backend`, fanning metrics out to `obs` in addition to the
    /// engine's own in-memory registry. The engine derives its handle via
    /// [`Obs::with_sink`], sharing the caller's trace context, so
    /// per-request deploy spans parent correctly under whatever span is
    /// ambient when the deploy is issued (e.g. a validation wave).
    ///
    /// # Panics
    ///
    /// Panics if [`DeployerConfig::persistent_cache`] names a file that
    /// cannot be opened as a deploy memo; use
    /// [`DeployEngine::try_with_obs`] to handle that error.
    pub fn with_obs(backend: B, cfg: DeployerConfig, obs: Obs) -> Self {
        match DeployEngine::try_with_obs(backend, cfg, obs) {
            Ok(engine) => engine,
            Err(e) => panic!("deploy cache: {e}"),
        }
    }

    /// [`DeployEngine::with_obs`], surfacing persistent-memo open errors
    /// (missing parent directory, corrupt interior record, wrong header)
    /// instead of panicking.
    pub fn try_with_obs(backend: B, cfg: DeployerConfig, obs: Obs) -> Result<Self, String> {
        let persistent = match &cfg.persistent_cache {
            Some(path) => Some(Mutex::new(DeployMemo::open(path)?.0)),
            None => None,
        };
        let registry = Arc::new(MemoryRecorder::new());
        Ok(DeployEngine {
            backend,
            cfg,
            cache: (0..CACHE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            persistent,
            obs: obs.with_sink(registry.clone()),
            registry,
        })
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Forces the persistent memo (if configured) to stable storage.
    /// Appends are plain writes — visible to other processes immediately
    /// but not yet durable; this is the durability point, also taken
    /// best-effort on drop.
    pub fn sync_persistent(&self) -> Result<(), String> {
        match &self.persistent {
            Some(memo) => memo.lock().sync(),
            None => Ok(()),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &DeployerConfig {
        &self.cfg
    }

    /// A point-in-time snapshot of the engine's `deploy.*` metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    fn shard(&self, fp: u128) -> &RwLock<HashMap<u128, DeployReport>> {
        &self.cache[(fp % CACHE_SHARDS as u128) as usize]
    }

    /// One deploy request: cache lookup, then the retrying attempt loop.
    fn deploy_one(&self, program: &Program) -> DeployReport {
        self.deploy_one_annotated(program).0
    }

    /// Serving-boundary telemetry for one deploy request: `op.deploy.us`
    /// feeds rolling latency windows when a [`RollingRecorder`] sink is
    /// attached, `op.deploy.errors` counts failed deployment verdicts.
    ///
    /// [`RollingRecorder`]: zodiac_obs::RollingRecorder
    fn record_boundary(&self, t0: Instant, report: &DeployReport) {
        self.obs
            .histogram("op.deploy.us", t0.elapsed().as_micros() as u64);
        if !report.outcome.is_success() {
            self.obs.counter("op.deploy.errors", 1);
        }
    }

    /// [`DeployEngine::deploy_one`], also reporting whether the result came
    /// from the memo cache. Emits a *leaf* span (never a scoped one — this
    /// runs on pool worker threads) parented under whatever span is
    /// ambient, with the cache verdict as an attribute.
    fn deploy_one_annotated(&self, program: &Program) -> (DeployReport, bool) {
        let t0 = Instant::now();
        let mut span = self.obs.start_leaf_span("deploy");
        self.obs.counter("deploy.requests", 1);
        let fp = fingerprint(program);
        if self.cfg.cache {
            if let Some(hit) = self.shard(fp).read().get(&fp).cloned() {
                self.obs.counter("deploy.cache_hits", 1);
                self.obs.histogram(
                    "deploy.latency_us.cache_hit",
                    t0.elapsed().as_micros() as u64,
                );
                self.record_boundary(t0, &hit);
                span.attr("cached", 1u64);
                span.finish();
                return (hit, true);
            }
        }
        // The persistent memo backstops the in-memory cache: a hit from a
        // previous run still skips the backend, and is promoted into the
        // shard so repeats stay off the memo lock.
        if let Some(memo) = &self.persistent {
            if let Some(hit) = memo.lock().get(fp).cloned() {
                self.obs.counter("deploy.cache_hits", 1);
                self.obs.counter("deploy.persistent_hits", 1);
                if self.cfg.cache {
                    self.shard(fp).write().insert(fp, hit.clone());
                }
                self.obs.histogram(
                    "deploy.latency_us.cache_hit",
                    t0.elapsed().as_micros() as u64,
                );
                self.record_boundary(t0, &hit);
                span.attr("cached", 1u64);
                span.finish();
                return (hit, true);
            }
        }
        self.obs.counter("deploy.backend_deploys", 1);
        let report = self.attempt_loop(program, fp);
        if self.cfg.cache {
            // Two workers may race to a cold fingerprint; both compute the
            // same verdict (deterministic backend), so last-write-wins is
            // harmless.
            self.shard(fp).write().insert(fp, report.clone());
        }
        if let Some(memo) = &self.persistent {
            // Append failures (disk full, memo deleted under us) cost
            // persistence, never correctness; count them instead of
            // failing the deploy.
            match memo.lock().record(fp, &report) {
                Ok(true) => self.obs.counter("deploy.persistent_stores", 1),
                Ok(false) => {}
                Err(_) => self.obs.counter("deploy.persistent_errors", 1),
            }
        }
        self.obs
            .histogram("deploy.latency_us.backend", t0.elapsed().as_micros() as u64);
        self.record_boundary(t0, &report);
        span.attr("cached", 0u64);
        span.finish();
        (report, false)
    }

    /// Deploys with retries until a non-transient verdict.
    ///
    /// # Retry policy
    ///
    /// A transient failure (`transient/` rule id) is retried up to
    /// [`RetryPolicy::max_attempts`] total attempts; each retry charges the
    /// fault's retry-after hint (throttling) or exponential backoff
    /// (`base_backoff_secs << attempt`) to the simulated-backoff counter.
    /// Any other outcome — success or a deterministic (ground-truth)
    /// failure — returns immediately. The last attempt runs without the
    /// injector, so the loop always terminates with a deterministic verdict.
    fn attempt_loop(&self, program: &Program, fp: u128) -> DeployReport {
        let Some(faults) = &self.cfg.faults else {
            return self.backend.deploy(program);
        };
        let attempts = self.cfg.retry.max_attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            let report = if attempt + 1 == attempts {
                self.backend.deploy(program)
            } else {
                let injector = AttemptInjector::new(faults, fp, attempt);
                self.backend.deploy_with_faults(program, &injector)
            };
            if !report.is_transient_failure() {
                return report;
            }
            self.obs.counter("deploy.transient_failures", 1);
            self.obs.counter("deploy.retries", 1);
            let backoff = if matches!(
                &report.outcome,
                zodiac_cloud::DeployOutcome::Failure { rule_id, .. }
                    if rule_id == "transient/throttled"
            ) {
                faults.retry_after_secs
            } else {
                self.cfg.retry.base_backoff_secs << attempt.min(16)
            };
            self.obs.counter("deploy.backoff_secs", backoff);
            last = Some(report);
        }
        // Unreachable in practice: the final attempt runs fault-free, so the
        // loop always returns from inside. Kept panic-free regardless.
        match last {
            Some(report) => report,
            None => self.backend.deploy(program),
        }
    }
}

impl<B> Drop for DeployEngine<B> {
    fn drop(&mut self) {
        if let Some(memo) = &self.persistent {
            let _ = memo.lock().sync();
        }
    }
}

impl<B: DeployOracle + Sync> DeployOracle for DeployEngine<B> {
    fn deploy(&self, program: &Program) -> DeployReport {
        self.deploy_one(program)
    }

    /// Fans the batch across the worker pool through a bounded request
    /// queue; reports come back in input order.
    fn deploy_batch(&self, programs: &[Program]) -> Vec<DeployReport> {
        self.deploy_batch_annotated(programs)
            .into_iter()
            .map(|(report, _)| report)
            .collect()
    }

    fn deploy_annotated(&self, program: &Program) -> (DeployReport, bool) {
        self.deploy_one_annotated(program)
    }

    fn deploy_batch_annotated(&self, programs: &[Program]) -> Vec<(DeployReport, bool)> {
        let workers = self.cfg.workers.max(1).min(programs.len());
        if workers <= 1 {
            return programs
                .iter()
                .map(|p| self.deploy_one_annotated(p))
                .collect();
        }
        let (job_tx, job_rx) = crossbeam::channel::bounded::<(usize, &Program)>(workers * 2);
        let (res_tx, res_rx) =
            crossbeam::channel::bounded::<(usize, (DeployReport, bool))>(programs.len());
        let mut out: Vec<Option<(DeployReport, bool)>> = vec![None; programs.len()];
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let job_rx = job_rx.clone();
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    while let Ok((idx, program)) = job_rx.recv() {
                        let report = self.deploy_one_annotated(program);
                        if res_tx.send((idx, report)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(job_rx);
            drop(res_tx);
            for job in programs.iter().enumerate() {
                // A send can only fail if every worker already exited; any
                // job not handed off is deployed on this thread below.
                if job_tx.send(job).is_err() {
                    break;
                }
                self.obs
                    .gauge_max("deploy.queue_depth.max", job_tx.len() as u64);
            }
            drop(job_tx);
            for (idx, report) in res_rx.iter() {
                out[idx] = Some(report);
            }
        });
        out.into_iter()
            .enumerate()
            .map(|(idx, r)| match r {
                Some(report) => report,
                // Fallback for jobs the pool never reported on.
                None => self.deploy_one_annotated(&programs[idx]),
            })
            .collect()
    }

    fn telemetry(&self) -> Option<MetricsSnapshot> {
        Some(self.metrics())
    }
}
