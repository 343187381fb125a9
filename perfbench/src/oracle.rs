//! A timing and costing [`DeployOracle`] wrapper.
//!
//! The benchmark wraps the deploy path twice: once outside the
//! `DeployEngine` (every request the validator or repairer makes) and once
//! around the `CloudSim` backend (every deploy that reaches the cloud). The
//! difference between the two is the engine's own cost; the backend wrapper
//! also charges each deploy in *simulated cloud-seconds*, the quantity the
//! paper's validation actually pays for.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use zodiac_cloud::{duration_of, DeployOracle, DeployOutcome, DeployReport, FaultInjector};
use zodiac_graph::{deploy_order, ResourceGraph};
use zodiac_model::Program;
use zodiac_obs::MetricsSnapshot;

use crate::tracer::Tracer;

/// Simulated cloud-seconds one deploy occupies: the latest finish time among
/// the resources it deployed and the resource it failed on, on the same
/// discrete-event schedule `CloudSim` uses (a resource starts when its
/// dependencies finish and takes `duration_of` its type).
pub fn cloud_secs(program: &Program, report: &DeployReport) -> u64 {
    let graph = ResourceGraph::build(program.clone());
    let Ok(topo) = deploy_order(&graph) else {
        return 0; // A dependency cycle fails before anything deploys.
    };
    let mut finish = vec![0u64; graph.len()];
    for &node in &topo {
        let start = graph
            .out_edges(node)
            .filter(|e| e.dst != node)
            .map(|e| finish[e.dst])
            .max()
            .unwrap_or(0);
        finish[node] = start + duration_of(&graph.resource(node).rtype);
    }
    let failing = match &report.outcome {
        DeployOutcome::Failure { resource, .. } => Some(resource.as_str()),
        DeployOutcome::Success => None,
    };
    let deployed: HashSet<_> = report.deployed.iter().collect();
    (0..graph.len())
        .filter(|&i| {
            let id = graph.resource(i).id();
            deployed.contains(&id) || failing == Some(id.to_string().as_str())
        })
        .map(|i| finish[i])
        .max()
        .unwrap_or(0)
}

/// Counters of one [`TimedOracle`], read after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleCounts {
    /// Programs passed through the wrapper (a batch counts each program).
    pub requests: u64,
    /// Distinct programs (by canonical fingerprint) deployed, when metering.
    pub distinct: u64,
    /// Simulated cloud-seconds of the distinct programs, when metering.
    pub cloud_secs: u64,
}

/// Forwards every [`DeployOracle`] method to `inner`, counting requests and
/// recording a span around each call when traced. With metering on (the backend position) it
/// also charges every deployed program in simulated cloud-seconds.
///
/// Metering counts each distinct program once: two engine workers can miss
/// the cache on the same program at the same moment and both deploy it, so
/// the raw backend count is not a deterministic quantity, but the set of
/// programs that reached the cloud is.
pub struct TimedOracle<D> {
    inner: D,
    meter: bool,
    span: &'static str,
    tracer: Option<Arc<Tracer>>,
    requests: AtomicU64,
    seen: Mutex<HashSet<u128>>,
    cloud_secs: AtomicU64,
}

impl<D: DeployOracle> TimedOracle<D> {
    /// Wraps an oracle in front of the engine: counts and times, no costing.
    pub fn front(inner: D, tracer: Option<Arc<Tracer>>) -> Self {
        TimedOracle::build(inner, false, "bench/deployer", tracer)
    }

    /// Wraps the cloud backend: counts, times and costs every deploy.
    pub fn backend(inner: D, tracer: Option<Arc<Tracer>>) -> Self {
        TimedOracle::build(inner, true, "bench/cloud", tracer)
    }

    fn build(inner: D, meter: bool, span: &'static str, tracer: Option<Arc<Tracer>>) -> Self {
        TimedOracle {
            inner,
            meter,
            span,
            tracer,
            requests: AtomicU64::new(0),
            seen: Mutex::new(HashSet::new()),
            cloud_secs: AtomicU64::new(0),
        }
    }

    /// The wrapped oracle.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Counters so far.
    pub fn counts(&self) -> OracleCounts {
        OracleCounts {
            requests: self.requests.load(Ordering::Relaxed),
            distinct: self
                .seen
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len() as u64,
            cloud_secs: self.cloud_secs.load(Ordering::Relaxed),
        }
    }

    /// Forwards one call over `programs`, then meters its reports.
    /// The backend position is reached from engine worker threads, so its
    /// spans are leaves; the front position runs on the caller's thread and
    /// scopes its span so backend deploys nest under it.
    fn timed<R>(
        &self,
        programs: &[&Program],
        call: impl FnOnce() -> R,
        reports: impl Fn(&R) -> Vec<&DeployReport>,
    ) -> R {
        let span = self.tracer.as_ref().map(|t| t.open(!self.meter));
        let out = call();
        if let (Some(t), Some(span)) = (&self.tracer, span) {
            t.close(span, self.span);
        }
        self.requests
            .fetch_add(programs.len() as u64, Ordering::Relaxed);
        if self.meter {
            for (program, report) in programs.iter().zip(reports(&out)) {
                let fp = zodiac_deployer::fingerprint(program);
                let fresh = self
                    .seen
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(fp);
                if fresh {
                    self.cloud_secs
                        .fetch_add(cloud_secs(program, report), Ordering::Relaxed);
                }
            }
        }
        out
    }
}

impl<D: DeployOracle> DeployOracle for TimedOracle<D> {
    fn deploy(&self, program: &Program) -> DeployReport {
        self.timed(&[program], || self.inner.deploy(program), |r| vec![r])
    }

    fn deploy_with_faults(&self, program: &Program, injector: &dyn FaultInjector) -> DeployReport {
        self.timed(
            &[program],
            || self.inner.deploy_with_faults(program, injector),
            |r| vec![r],
        )
    }

    fn deploy_batch(&self, programs: &[Program]) -> Vec<DeployReport> {
        let refs: Vec<&Program> = programs.iter().collect();
        self.timed(
            &refs,
            || self.inner.deploy_batch(programs),
            |rs| rs.iter().collect(),
        )
    }

    fn deploy_annotated(&self, program: &Program) -> (DeployReport, bool) {
        self.timed(
            &[program],
            || self.inner.deploy_annotated(program),
            |r| vec![&r.0],
        )
    }

    fn deploy_batch_annotated(&self, programs: &[Program]) -> Vec<(DeployReport, bool)> {
        let refs: Vec<&Program> = programs.iter().collect();
        self.timed(
            &refs,
            || self.inner.deploy_batch_annotated(programs),
            |rs| rs.iter().map(|r| &r.0).collect(),
        )
    }

    fn telemetry(&self) -> Option<MetricsSnapshot> {
        self.inner.telemetry()
    }
}
