//! Mining-throughput bench for the typed check IR.
//!
//! Isolates the mining phase (observation + template instantiation +
//! statistical filtering + oracle interpolation) so the effect of the
//! IR refactor — interned symbol keys, `Ord`-based candidate sorting,
//! hash-based dedup, and builder-constructed checks replacing the old
//! `format!`-then-parse round trip — shows up as end-to-end throughput.
//! Results are recorded in `BENCH_check_ir.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion};
use zodiac_corpus::{CorpusConfig, ProjectStream};
use zodiac_mining::{
    build_stats_streaming, mine, mine_streaming, CorpusStats, MiningConfig, ShardConfig,
};
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

/// End-to-end mining over the standard 60-project corpus — the headline
/// number compared before/after the IR refactor.
fn bench_mine_60(c: &mut Criterion) {
    let corpus = corpus(60);
    let kb = zodiac_kb::azure_kb();
    c.bench_function("mining/60-projects", |b| {
        b.iter(|| mine(&corpus, &kb, &MiningConfig::default()))
    });
}

/// A larger corpus stresses candidate sorting and dedup, where interned
/// symbols replace per-comparison string rendering.
fn bench_mine_200(c: &mut Criterion) {
    let corpus = corpus(200);
    let kb = zodiac_kb::azure_kb();
    c.bench_function("mining/200-projects", |b| {
        b.iter(|| mine(&corpus, &kb, &MiningConfig::default()))
    });
}

/// The observation pass alone: corpus statistics keyed by interned symbols.
fn bench_observe(c: &mut Criterion) {
    let corpus = corpus(60);
    let kb = zodiac_kb::azure_kb();
    c.bench_function("mining/observe-60-projects", |b| {
        b.iter(|| CorpusStats::build(&corpus, &kb, true))
    });
}

/// The observation pass through the shard driver (2 shards). On a
/// single-core host this measures the driver's scheduling overhead; on a
/// multi-core host, its speedup. Results are byte-identical either way.
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
    targets = bench_mine_60, bench_mine_200, bench_observe, bench_observe_sharded,
        bench_mine_streaming
}
criterion_main!(benches);
