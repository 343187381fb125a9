//! Criterion benches for the validation scheduler regimes the benchmark
//! (`perfbench/`) does not cover: a 4-worker deploy engine and a warm
//! persistent deploy memo. The cold single-worker schedule, corpus
//! generation, mining and scanning are timed per layer by perfbench.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use zodiac_cloud::CloudSim;
use zodiac_corpus::CorpusConfig;
use zodiac_deployer::{DeployEngine, DeployerConfig};
use zodiac_mining::{mine, MiningConfig};
use zodiac_model::Program;
use zodiac_obs::Obs;
use zodiac_validation::{Scheduler, SchedulerConfig};

fn small_corpus() -> Vec<Program> {
    zodiac_corpus::generate(&CorpusConfig {
        projects: 60,
        noise_rate: 0.02,
        ..Default::default()
    })
    .into_iter()
    .map(|p| p.program)
    .collect()
}

fn bench_validation(c: &mut Criterion) {
    let corpus = small_corpus();
    let kb = zodiac_kb::azure_kb();
    let mining = mine(&corpus, &kb, &MiningConfig::default());
    // Wave-parallel through the worker-pool engine (4 deploy workers):
    // what `zodiac mine --workers 4` pays per scheduling pass.
    c.bench_function("validation/schedule-60-workers-4", |b| {
        b.iter_batched(
            || mining.checks.clone(),
            |checks| {
                let engine = DeployEngine::with_obs(
                    CloudSim::new_azure(),
                    DeployerConfig {
                        workers: 4,
                        ..Default::default()
                    },
                    Obs::null(),
                );
                Scheduler::new(&engine, &kb, &corpus, SchedulerConfig::default()).run(checks)
            },
            BatchSize::SmallInput,
        )
    });
    // Warm persistent memo: every deploy probe replays from the on-disk
    // deploy cache (`--deploy-cache`), so this isolates the scheduler +
    // solver cost with backend latency removed — the repeat-run regime of
    // a CI bot or a restarted zodiacd.
    let memo_path =
        std::env::temp_dir().join(format!("zodiac-bench-memo-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&memo_path);
    let warm_engine = || {
        DeployEngine::try_with_obs(
            CloudSim::new_azure(),
            DeployerConfig {
                workers: 1,
                persistent_cache: Some(memo_path.clone()),
                ..Default::default()
            },
            Obs::null(),
        )
        .expect("memo opens")
    };
    {
        // One priming pass records every probe in the memo.
        let engine = warm_engine();
        Scheduler::new(&engine, &kb, &corpus, SchedulerConfig::default())
            .run(mining.checks.clone());
        engine.sync_persistent().expect("memo syncs");
    }
    c.bench_function("validation/schedule-60-warm-memo", |b| {
        b.iter_batched(
            || (mining.checks.clone(), warm_engine()),
            |(checks, engine)| {
                // The engine rides back out so its Drop (memo fsync) lands
                // outside the timed region.
                let outcome =
                    Scheduler::new(&engine, &kb, &corpus, SchedulerConfig::default()).run(checks);
                (outcome, engine)
            },
            BatchSize::SmallInput,
        )
    });
    let _ = std::fs::remove_file(&memo_path);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_validation
}
criterion_main!(benches);
