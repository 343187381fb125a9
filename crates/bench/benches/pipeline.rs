//! Criterion benches for the pipeline phases: corpus generation, mining,
//! validation scheduling, and misconfiguration scanning.

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

fn bench_corpus_generation(c: &mut Criterion) {
    c.bench_function("corpus/generate-60-projects", |b| {
        b.iter(|| {
            zodiac_corpus::generate(&CorpusConfig {
                projects: 60,
                ..Default::default()
            })
        })
    });
}

fn bench_mining(c: &mut Criterion) {
    let corpus = small_corpus();
    let kb = zodiac_kb::azure_kb();
    c.bench_function("mining/60-projects", |b| {
        b.iter(|| mine(&corpus, &kb, &MiningConfig::default()))
    });
}

fn bench_validation(c: &mut Criterion) {
    let corpus = small_corpus();
    let kb = zodiac_kb::azure_kb();
    let sim = CloudSim::new_azure();
    let mining = mine(&corpus, &kb, &MiningConfig::default());
    // The headline scheduling number: wave-parallel (the default), cold,
    // straight against the simulator. Keep the name stable — CI's
    // schedule_smoke gate and BENCH_pipeline.json both track it.
    c.bench_function("validation/schedule-60-projects", |b| {
        b.iter_batched(
            || mining.checks.clone(),
            |checks| {
                let scheduler = Scheduler::new(&sim, &kb, &corpus, SchedulerConfig::default());
                scheduler.run(checks)
            },
            BatchSize::SmallInput,
        )
    });
    // Wave-parallel through the worker-pool engine (4 deploy workers):
    // what `zodiac mine --deploy-workers 4` pays per scheduling pass.
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

// The headline evaluation scale (corpus → mining → validation →
// counterexamples, 600 + 300 projects) end to end, as `zodiac mine` and the
// exp_* binaries run it. Tracks the cost of the whole funnel rather than
// one phase; BENCH_pipeline.json records the committed baseline.
fn bench_full_pipeline(c: &mut Criterion) {
    let cfg = zodiac_bench::eval_config();
    c.bench_function("pipeline/600-projects", |b| {
        b.iter(|| zodiac::run_pipeline(&cfg))
    });
}

fn bench_scanner(c: &mut Criterion) {
    let corpus = small_corpus();
    let kb = zodiac_kb::azure_kb();
    let checks = vec![
        zodiac_spec::parse_check(
            "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => r1.location == r2.location",
        )
        .unwrap(),
        zodiac_spec::parse_check(
            "let r:SA in r.account_tier == 'Premium' => r.account_replication_type != 'GZRS'",
        )
        .unwrap(),
    ];
    c.bench_function("scanner/60-projects-2-checks", |b| {
        b.iter(|| zodiac::scanner::scan_corpus(&corpus, &checks, &kb))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_corpus_generation, bench_mining, bench_validation, bench_full_pipeline, bench_scanner
}
criterion_main!(benches);
