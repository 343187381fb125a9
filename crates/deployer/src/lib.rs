//! Concurrent, fault-tolerant deployment execution engine with result
//! memoization.
//!
//! Deployment is the paper's dominant cost: validating ~400 candidate
//! checks takes thousands of cloud deploys, each minutes long, throttled,
//! and transiently flaky. This crate inserts an execution engine between
//! every deploy consumer and the [`DeployOracle`] backend:
//!
//! * **worker pool** — [`DeployOracle::deploy_batch`] fans independent test
//!   deployments across OS threads through a bounded request queue
//!   (mirroring cloud-side concurrency limits);
//! * **memoization** — verdicts are cached under a canonical program
//!   [`fingerprint`](fingerprint::fingerprint) that is invariant under
//!   resource/attribute declaration order, so the scheduler's repeated
//!   probes of identical test cases hit the cache instead of the cloud;
//! * **fault injection + retry** — a deterministic, seeded
//!   [`FaultConfig`] schedule models throttling, spurious request
//!   failures, and polling timeouts (see [`fault`] for the fault model);
//!   the engine's retry loop absorbs them (see
//!   [`DeployEngine::attempt_loop`'s policy][DeployEngine]) so consumers
//!   only ever observe deterministic verdicts;
//! * **metrics** — the engine records `deploy.*` counters, gauges, and
//!   latency histograms (requests, cache hits, retries, queue depth,
//!   simulated backoff) into a `zodiac-obs` registry that threads into the
//!   validation trace and the experiment binaries; pass an external
//!   [`Obs`](zodiac_obs::Obs) via [`DeployEngine::with_obs`] to mirror
//!   them into a trace sink.
//!
//! The engine implements [`DeployOracle`] itself, so swapping it in is
//! transparent: `R_v` from a parallel, cached, fault-injected run is
//! identical to a direct sequential run against the same backend.
//!
//! Verdicts can also outlive the process in a [`DeployMemo`], built on
//! [`AppendLog`]: the one crash-tolerant append-only log, which `zodiacd`'s
//! check store uses too.

pub mod append_log;
pub mod engine;
pub mod fault;
pub mod fingerprint;
pub mod memo;

pub use append_log::{AppendLog, Durability};
pub use engine::{DeployEngine, DeployerConfig};
pub use fault::{AttemptInjector, FaultConfig};
pub use fingerprint::fingerprint;
pub use memo::{DeployMemo, MemoLoadReport, MemoStats};
pub use zodiac_cloud::DeployOracle;

/// Retry/backoff policy for transient deploy failures.
///
/// `max_attempts` bounds *total* attempts (first try included); retries
/// sleep — in simulated time, charged to the `deploy.backoff_secs`
/// counter — for the fault's retry-after hint when throttled, or
/// `base_backoff_secs * 2^attempt` otherwise. The final attempt always
/// runs fault-free, so a deploy request never surfaces a transient failure
/// to its consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per deploy request, including the first (≥ 1).
    pub max_attempts: u32,
    /// Base of the exponential backoff applied to non-throttle transients.
    pub base_backoff_secs: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_secs: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zodiac_cloud::{CloudSim, DeployOutcome};
    use zodiac_model::{Program, Resource, Value};

    fn vnet_program(cidr: &str) -> Program {
        Program::new()
            .with(
                Resource::new("azurerm_resource_group", "rg")
                    .with("name", "rg1")
                    .with("location", "eastus"),
            )
            .with(
                Resource::new("azurerm_virtual_network", "vnet")
                    .with("name", "vnet1")
                    .with("location", "eastus")
                    .with("address_space", Value::List(vec![Value::s(cidr)]))
                    .with(
                        "resource_group_name",
                        Value::r("azurerm_resource_group", "rg", "name"),
                    ),
            )
    }

    #[test]
    fn cache_hit_skips_backend() {
        let engine = DeployEngine::new(CloudSim::new_azure(), DeployerConfig::default());
        let p = vnet_program("10.0.0.0/16");
        let first = engine.deploy(&p);
        let second = engine.deploy(&p);
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap()
        );
        let tel = engine.metrics();
        assert_eq!(tel.counter("deploy.requests"), 2);
        assert_eq!(tel.counter("deploy.cache_hits"), 1);
        assert_eq!(tel.counter("deploy.backend_deploys"), 1);
        assert_eq!(tel.histogram("deploy.latency_us.cache_hit").count, 1);
        assert_eq!(tel.histogram("deploy.latency_us.backend").count, 1);
    }

    #[test]
    fn serving_boundary_emits_op_windows() {
        let engine = DeployEngine::new(CloudSim::new_azure(), DeployerConfig::default());
        // One clean deploy, one cache hit, one deterministic failure (Spot
        // VM without an eviction policy).
        let clean = vnet_program("10.0.0.0/16");
        engine.deploy(&clean);
        engine.deploy(&clean);
        let report = engine.deploy(
            &Program::new().with(
                Resource::new("azurerm_linux_virtual_machine", "vm")
                    .with("size", "Standard_B1s")
                    .with("priority", "Spot"),
            ),
        );
        assert!(!report.outcome.is_success());
        let tel = engine.metrics();
        // Every request — cached or not, failed or not — lands in the
        // boundary histogram; only the failed verdict counts as an error.
        assert_eq!(tel.histogram("op.deploy.us").count, 3);
        assert_eq!(tel.counter("op.deploy.errors"), 1);
    }

    #[test]
    fn faults_are_absorbed_by_retries() {
        let cfg = DeployerConfig {
            faults: Some(FaultConfig {
                throttle_rate: 1.0,
                ..FaultConfig::default()
            }),
            ..DeployerConfig::default()
        };
        let engine = DeployEngine::new(CloudSim::new_azure(), cfg);
        let report = engine.deploy(&vnet_program("10.0.0.0/16"));
        assert!(
            matches!(report.outcome, DeployOutcome::Success),
            "retries must absorb transients: {:?}",
            report.outcome
        );
        let tel = engine.metrics();
        assert!(tel.counter("deploy.retries") > 0);
        assert!(tel.counter("deploy.backoff_secs") > 0);
    }

    #[test]
    fn persistent_memo_spans_engine_lifetimes() {
        let path = std::env::temp_dir().join(format!(
            "zodiac-deploy-memo-engine-{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let cfg = DeployerConfig {
            persistent_cache: Some(path.clone()),
            ..DeployerConfig::default()
        };
        let p = vnet_program("10.0.0.0/16");
        let first = {
            let engine = DeployEngine::new(CloudSim::new_azure(), cfg.clone());
            let report = engine.deploy(&p);
            let tel = engine.metrics();
            assert_eq!(tel.counter("deploy.backend_deploys"), 1);
            assert_eq!(tel.counter("deploy.persistent_stores"), 1);
            report
        };
        // A fresh engine — a different process, as far as the memo is
        // concerned — serves the verdict without touching the backend.
        let engine = DeployEngine::new(CloudSim::new_azure(), cfg);
        let (second, cached) = engine.deploy_annotated(&p);
        assert!(cached);
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap()
        );
        let tel = engine.metrics();
        assert_eq!(tel.counter("deploy.backend_deploys"), 0);
        assert_eq!(tel.counter("deploy.persistent_hits"), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batch_matches_sequential_backend() {
        let sim = CloudSim::new_azure();
        let programs: Vec<Program> = (0..24)
            .map(|i| {
                if i % 3 == 0 {
                    vnet_program("10.0.0.0/16")
                } else {
                    vnet_program(&format!("10.{i}.0.0/16"))
                }
            })
            .collect();
        let expected: Vec<String> = programs
            .iter()
            .map(|p| serde_json::to_string(&sim.deploy(p)).unwrap())
            .collect();
        let engine = DeployEngine::new(sim, DeployerConfig::default());
        let got: Vec<String> = engine
            .deploy_batch(&programs)
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        assert_eq!(got, expected);
        let tel = engine.metrics();
        assert_eq!(tel.counter("deploy.requests"), 24);
        assert!(
            tel.counter("deploy.backend_deploys") < tel.counter("deploy.requests"),
            "duplicates must hit the cache"
        );
    }
}
