//! The timing wrapper is transparent: a pipeline deployed through the
//! benchmark's deploy path (a `TimedOracle` in front of the engine and one
//! around the simulator) gives the same final check set and the same
//! `deploy.*` telemetry as one deployed through a bare engine.

use zodiac::PipelineResult;
use zodiac_cloud::CloudSim;
use zodiac_deployer::DeployEngine;
use zodiac_obs::{MetricsSnapshot, Obs};
use zodiac_perfbench::mine::{deploy_path, pipeline_config};
use zodiac_spec::Check;

fn finals(result: &PipelineResult) -> Vec<Check> {
    result
        .final_checks
        .iter()
        .map(|v| v.mined.check.clone())
        .collect()
}

/// Every `deploy.*` counter and gauge, and the sample count of every
/// `deploy.*` histogram (its values are latencies).
fn deploy_telemetry(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    let deploy = |name: &&String| name.starts_with("deploy.");
    let counters = snap.counters.iter().filter(|(n, _)| deploy(n));
    let gauges = snap.gauges.iter().filter(|(n, _)| deploy(n));
    let histograms = snap
        .histograms
        .iter()
        .filter(|(n, _)| deploy(n))
        .map(|(n, h)| (n, &h.count));
    counters
        .chain(gauges)
        .chain(histograms)
        .map(|(n, v)| (n.clone(), *v))
        .collect()
}

#[test]
fn wrapped_and_unwrapped_pipelines_agree() {
    let kb = zodiac_kb::azure_kb();
    // One deploy worker: with two, which of two racing workers deploys a
    // program (a backend deploy or a cache hit) is not deterministic.
    let mut cfg = pipeline_config(0xC0FFEE, 1);
    cfg.corpus.projects = 60;
    cfg.counterexample_projects = 30;

    let bare = DeployEngine::new(CloudSim::new_azure(), cfg.deployer.clone());
    let plain = zodiac::run_pipeline_with_obs(&cfg, &kb, &bare, &Obs::null());
    let path = deploy_path(&cfg.deployer, None);
    let wrapped = zodiac::run_pipeline_with_obs(&cfg, &kb, &path, &Obs::null());

    assert!(!finals(&plain).is_empty(), "the pipeline validated nothing");
    assert_eq!(finals(&plain), finals(&wrapped), "final check sets differ");

    let a = plain.deploy_metrics.expect("bare engine telemetry");
    let b = wrapped.deploy_metrics.expect("wrapped engine telemetry");
    let (a, b) = (deploy_telemetry(&a), deploy_telemetry(&b));
    assert!(
        a.iter().any(|(n, v)| n == "deploy.requests" && *v > 0),
        "no deploy.requests counted: {a:?}"
    );
    assert_eq!(a, b, "deploy.* telemetry differs");

    // The wrappers count what the engine counts.
    let requests = b
        .iter()
        .find(|(n, _)| n == "deploy.requests")
        .map(|(_, v)| *v);
    let backend = b
        .iter()
        .find(|(n, _)| n == "deploy.backend_deploys")
        .map(|(_, v)| *v);
    assert_eq!(Some(path.counts().requests), requests);
    assert_eq!(Some(path.inner().backend().counts().requests), backend);
}
