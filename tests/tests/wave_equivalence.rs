//! Differential guarantee for the deploy path under validation: a
//! worker-pool engine and the persistent deploy memo must be pure
//! performance features — every candidate lands in the same verdict set
//! (validated / falsified / unresolved) as a run straight against the
//! simulator, both when the memo is cold and when it replays every probe.
//! The wave scheduler itself is checked against the one-at-a-time
//! reference loop inside `zodiac-validation`.
//!
//! Runs on the default corpus seed `0xC0FFEE`.

use std::collections::BTreeSet;
use std::sync::Arc;
use zodiac_cloud::CloudSim;
use zodiac_deployer::{DeployEngine, DeployerConfig};
use zodiac_mining::{mine, MiningConfig};
use zodiac_model::Program;
use zodiac_obs::{MemoryRecorder, Obs};
use zodiac_validation::{Scheduler, SchedulerConfig, ValidationOutcome};

fn corpus() -> Vec<Program> {
    // Default config carries seed 0xC0FFEE.
    zodiac_corpus::generate(&zodiac_corpus::CorpusConfig {
        projects: 60,
        noise_rate: 0.02,
        ..Default::default()
    })
    .into_iter()
    .map(|p| p.program)
    .collect()
}

/// (validated, falsified, unresolved) candidate fingerprints.
fn verdict_sets(o: &ValidationOutcome) -> [BTreeSet<u64>; 3] {
    [
        o.validated
            .iter()
            .map(|v| v.mined.check.fingerprint())
            .collect(),
        o.false_positives
            .iter()
            .map(|f| f.mined.check.fingerprint())
            .collect(),
        o.unresolved.iter().map(|m| m.check.fingerprint()).collect(),
    ]
}

#[test]
fn memo_backed_engine_matches_bare_simulator_verdicts() {
    let corpus = corpus();
    let kb = zodiac_kb::azure_kb();
    let sim = CloudSim::new_azure();
    let mining = mine(&corpus, &kb, &MiningConfig::default());
    assert!(!mining.checks.is_empty(), "nothing mined on seed 0xC0FFEE");

    // Reference: the scheduler straight against the bare simulator.
    let wave =
        Scheduler::new(&sim, &kb, &corpus, SchedulerConfig::default()).run(mining.checks.clone());
    let reference = verdict_sets(&wave);
    assert!(!reference[0].is_empty(), "reference run validated nothing");

    // The same scheduler through a memo-backed worker engine, cold then warm:
    // the warm run replays every probe from disk and must not change a
    // verdict either.
    let memo = std::env::temp_dir().join(format!("zodiac-wave-eq-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&memo);
    let run_with_memo = || {
        let rec = Arc::new(MemoryRecorder::new());
        let engine = DeployEngine::try_with_obs(
            CloudSim::new_azure(),
            DeployerConfig {
                workers: 2,
                persistent_cache: Some(memo.clone()),
                ..Default::default()
            },
            Obs::single(rec.clone()),
        )
        .expect("memo opens");
        let outcome = Scheduler::new(&engine, &kb, &corpus, SchedulerConfig::default())
            .run(mining.checks.clone());
        engine.sync_persistent().expect("memo syncs");
        (outcome, rec.snapshot())
    };

    let (cold, cold_tel) = run_with_memo();
    assert_eq!(
        verdict_sets(&cold),
        reference,
        "memo-backed cold run changed a verdict set"
    );
    assert!(cold_tel.counter("deploy.backend_deploys") > 0);
    assert!(cold_tel.counter("deploy.persistent_stores") > 0);

    let (warm, warm_tel) = run_with_memo();
    assert_eq!(
        verdict_sets(&warm),
        reference,
        "memo replay changed a verdict set"
    );
    assert!(warm_tel.counter("deploy.persistent_hits") > 0);
    assert_eq!(
        warm_tel.counter("deploy.backend_deploys"),
        0,
        "warm run must replay every probe from the memo"
    );

    let _ = std::fs::remove_file(&memo);
}
