//! Criterion benches for the mining shard driver at 2 shards, which the
//! benchmark (`perfbench/`) does not run: it mines on one shard and times
//! observation, instantiation and filtering per layer.
//!
//! On a single-core host these measure the driver's scheduling overhead;
//! on a multi-core host, its speedup. Results are byte-identical either way.

use criterion::{criterion_group, criterion_main, Criterion};
use zodiac_corpus::{CorpusConfig, ProjectStream};
use zodiac_mining::{build_stats_streaming, mine_streaming, MiningConfig, ShardConfig};
use zodiac_model::Program;

fn corpus(projects: usize) -> Vec<Program> {
    zodiac_corpus::generate(&CorpusConfig {
        projects,
        noise_rate: 0.02,
        ..Default::default()
    })
    .into_iter()
    .map(|p| p.program)
    .collect()
}

/// The observation pass through the shard driver (2 shards).
fn bench_observe_sharded(c: &mut Criterion) {
    let corpus = corpus(60);
    let kb = zodiac_kb::azure_kb();
    let cfg = ShardConfig::with_shards(2);
    c.bench_function("mining/observe-60-projects-2-shards", |b| {
        b.iter(|| build_stats_streaming(&corpus, &kb, true, &cfg))
    });
}

/// Streaming mining end-to-end: generation + observation overlapped through
/// the bounded channel, no materialised corpus.
fn bench_mine_streaming(c: &mut Criterion) {
    let kb = zodiac_kb::azure_kb();
    let ccfg = CorpusConfig {
        projects: 200,
        noise_rate: 0.02,
        ..Default::default()
    };
    let shard = ShardConfig::with_shards(2);
    c.bench_function("mining/stream-200-projects-2-shards", |b| {
        b.iter(|| {
            let stream = ProjectStream::new(&ccfg).map(|p| p.program);
            mine_streaming(stream, &kb, &MiningConfig::default(), &shard)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_observe_sharded, bench_mine_streaming
}
criterion_main!(benches);
