//! Shard-parallel corpus observation: the 100k-project mining substrate,
//! and the mining crate's one worker pool.
//!
//! [`CorpusStats::build`] folds the whole corpus on one thread. At paper
//! scale (~6k projects) that is fine; at the 100k+ scale the shard driver
//! targets, the observation pass dominates mining wall-clock and
//! parallelises perfectly because per-project observations are independent
//! (see [`CorpusStats::observe_program`]).
//!
//! One driver serves every input. [`build_stats_streaming_obs`] takes any
//! iterator whose items borrow a [`Program`]: `&Program` from a materialised
//! slice, or `Program` from a `ProjectStream` that never materialises the
//! corpus. With one shard it folds on the calling thread. Otherwise the
//! calling thread drives the iterator (corpus generation is sequential per
//! seed) and feeds messages of at most 32 projects through one bounded
//! channel that `shards` scoped workers drain; bounded capacity keeps at
//! most `2 × shards` messages in flight, which is what caps a stream's peak
//! memory. An input shorter than `32 × shards` gets smaller messages, so
//! every worker still draws some of it. `IncrementalStats::observe_batch`
//! runs on the same pool, one project per message.
//!
//! Each worker accumulates a **shard-local** [`CorpusStats`] (reusing one
//! [`FlattenArena`] for every project's flattened attribute vectors) and
//! the driver merges shard stats **in shard-index order** via
//! [`CorpusStats::merge_from`]. The merge is exact — integer counters,
//! set unions, and monotone folds only — so which worker observed which
//! project never shows: any shard count, any scheduling interleaving
//! produces a database `PartialEq`-identical to the monolithic build, and
//! therefore byte-identical mined check sets. The `shard-invariance` fuzz
//! property and the differential tests in `tests/shard_equivalence.rs`
//! pin exactly that.
//!
//! Observability: each worker records a `pipeline/mining/stats/shard` leaf
//! span (attrs `shard`, `projects`), and the final fold records its cost
//! in the `mining.shard_merge_ns` counter. A one-shard run records neither.

use crate::stats::{CorpusStats, FlattenArena};
use crate::{MiningConfig, MiningReport};
use std::borrow::Borrow;
use std::time::Instant;
use zodiac_kb::KnowledgeBase;
use zodiac_model::Program;
use zodiac_obs::Obs;

/// Most projects per channel message when mining: large enough to amortise
/// channel traffic, small enough to balance the tail across workers.
const MINING_BATCH: usize = 32;

/// Shard-driver configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker threads observing projects. `1` keeps everything on the
    /// calling thread (no channel, no spawn) and is the default.
    pub shards: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 1 }
    }
}

impl ShardConfig {
    /// `shards` workers (at least one).
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig {
            shards: shards.max(1),
        }
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn available_shards() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The crate's one worker pool. Runs `worker` over `items` and returns one
/// result per worker, in shard-index order.
///
/// There are never more workers than the iterator's upper size bound. One
/// worker runs on the calling thread and is passed `None`. Otherwise the
/// calling thread feeds messages of at most `batch` items through a bounded
/// channel to scoped workers, which are passed `Some(shard)` and see the
/// items they drew, in message order. A known upper size bound `n` also
/// caps the message size at `n / shards` (rounded up), so a small input is
/// still split across every worker instead of filling one message.
pub(crate) fn fan_out<I, R>(
    items: I,
    shards: usize,
    batch: usize,
    worker: impl Fn(Option<usize>, &mut dyn Iterator<Item = I::Item>) -> R + Sync,
) -> Vec<R>
where
    I: IntoIterator,
    I::Item: Send,
    R: Send,
{
    let mut items = items.into_iter();
    let bound = items.size_hint().1.unwrap_or(usize::MAX);
    let shards = shards.min(bound);
    if shards <= 1 {
        return vec![worker(None, &mut items)];
    }
    let batch = batch.min(bound.div_ceil(shards)).max(1);
    let (tx, rx) = crossbeam::channel::bounded::<Vec<I::Item>>(shards * 2);
    std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                let rx = rx.clone();
                scope.spawn(move || worker(Some(shard), &mut rx.iter().flatten()))
            })
            .collect();
        // Only workers hold receivers now, so `send` fails exactly when all
        // of them are gone — a panic, surfacing at `join` below.
        drop(rx);
        loop {
            let message: Vec<I::Item> = items.by_ref().take(batch).collect();
            if message.is_empty() || tx.send(message).is_err() {
                break;
            }
        }
        drop(tx);
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

/// Merges shard-local databases in shard-index order; the merge itself is
/// order-insensitive (integer counters only), so this determinism is
/// belt-and-braces rather than load-bearing. Records `mining.shard_merge_ns`
/// unless there is only one shard, which is its own result.
fn merge_shards(shards: Vec<CorpusStats>, obs: &Obs) -> CorpusStats {
    let start = Instant::now();
    let mut iter = shards.into_iter();
    let mut merged = iter.next().unwrap_or_default();
    if iter.len() == 0 {
        return merged;
    }
    for shard in iter {
        merged.merge_from(&shard);
    }
    obs.counter("mining.shard_merge_ns", start.elapsed().as_nanos() as u64);
    merged
}

/// Builds [`CorpusStats`] from any sequence of programs, borrowed or owned,
/// without materialising it. Returns the merged database and the number of
/// projects observed. Equals `CorpusStats::build` exactly, for every shard
/// count.
pub fn build_stats_streaming<I>(
    projects: I,
    kb: &KnowledgeBase,
    use_kb: bool,
    cfg: &ShardConfig,
) -> (CorpusStats, usize)
where
    I: IntoIterator,
    I::Item: Borrow<Program> + Send,
{
    build_stats_streaming_obs(projects, kb, use_kb, cfg, &Obs::null())
}

/// [`build_stats_streaming`] with per-shard spans and merge timing.
pub fn build_stats_streaming_obs<I>(
    projects: I,
    kb: &KnowledgeBase,
    use_kb: bool,
    cfg: &ShardConfig,
    obs: &Obs,
) -> (CorpusStats, usize)
where
    I: IntoIterator,
    I::Item: Borrow<Program> + Send,
{
    let per_shard = fan_out(projects, cfg.shards, MINING_BATCH, |shard, projects| {
        let span = shard.map(|shard| {
            let mut span = obs.start_leaf_span("pipeline/mining/stats/shard");
            span.attr("shard", shard);
            span
        });
        let mut local = CorpusStats::default();
        let mut arena = FlattenArena::default();
        let mut observed = 0usize;
        for p in projects {
            local.observe_program_with(p.borrow(), kb, use_kb, &mut arena);
            observed += 1;
        }
        if let Some(mut span) = span {
            span.attr("projects", observed);
            span.finish();
        }
        (local, observed)
    });
    let observed = per_shard.iter().map(|(_, n)| n).sum();
    let stats = per_shard.into_iter().map(|(s, _)| s).collect();
    (merge_shards(stats, obs), observed)
}

/// Full mining over any sequence of programs, borrowed or owned: observation
/// never materialises the corpus. Returns the report plus the number of
/// projects observed. Byte-identical to [`crate::mine`] over the collected
/// sequence, for every shard count.
pub fn mine_streaming<I>(
    projects: I,
    kb: &KnowledgeBase,
    cfg: &MiningConfig,
    shard: &ShardConfig,
) -> (MiningReport, usize)
where
    I: IntoIterator,
    I::Item: Borrow<Program> + Send,
{
    mine_streaming_obs(projects, kb, cfg, shard, &Obs::null())
}

/// [`mine_streaming`] with an observability handle: `pipeline/mining/*`
/// stage spans, `mining.*` funnel counters, and the whole pass's latency
/// in `op.mine.us`.
pub fn mine_streaming_obs<I>(
    projects: I,
    kb: &KnowledgeBase,
    cfg: &MiningConfig,
    shard: &ShardConfig,
    obs: &Obs,
) -> (MiningReport, usize)
where
    I: IntoIterator,
    I::Item: Borrow<Program> + Send,
{
    let t0 = Instant::now();
    let _span = obs.start_span("pipeline/mining");
    let stats_span = obs.start_span("pipeline/mining/stats");
    let (stats, observed) = build_stats_streaming_obs(projects, kb, cfg.use_kb, shard, obs);
    stats_span.finish();
    let report = crate::mine_stats_inner(&stats, kb, cfg, obs, None);
    // Serving-boundary latency: one whole mining pass, visible in rolling
    // windows (`op.mine.us`) when a RollingRecorder sink is attached.
    obs.histogram("op.mine.us", t0.elapsed().as_micros() as u64);
    (report, observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;
    use zodiac_model::Resource;

    fn corpus(n: usize) -> Vec<Program> {
        (0..n)
            .map(|i| {
                let mut vm = Resource::new("azurerm_linux_virtual_machine", "vm")
                    .with("name", format!("vm-{i}"))
                    .with("size", "Standard_B1s")
                    .with("priority", if i % 3 == 0 { "Spot" } else { "Regular" });
                if i % 3 == 0 {
                    vm = vm.with("eviction_policy", "Deallocate");
                }
                Program::new().with(vm)
            })
            .collect()
    }

    #[test]
    fn sharded_equals_monolithic() {
        let kb = zodiac_kb::azure_kb();
        let programs = corpus(50);
        let mono = CorpusStats::build(&programs, &kb, true);
        for shards in [1, 2, 3, 8] {
            let cfg = ShardConfig::with_shards(shards);
            let (sharded, n) = build_stats_streaming(&programs, &kb, true, &cfg);
            assert_eq!(n, programs.len());
            assert_eq!(sharded, mono, "{shards} shards diverge");
            let (streamed, n) = build_stats_streaming(programs.iter().cloned(), &kb, true, &cfg);
            assert_eq!(n, programs.len());
            assert_eq!(streamed, mono, "{shards}-shard stream diverges");
        }
    }

    #[test]
    fn a_small_input_reaches_every_worker() {
        // Each worker holds its first item until every worker has one (or
        // the timeout passes). A waiting worker cannot draw another
        // message, so this passes only if the input went out in at least
        // one message per worker.
        let shards = 4;
        let arrived = (Mutex::new(0usize), Condvar::new());
        let per_worker = fan_out(0..32, shards, MINING_BATCH, |_, items| {
            let mut seen = 0usize;
            for _ in items {
                if seen == 0 {
                    let (count, all_in) = &arrived;
                    let mut count = count.lock().unwrap();
                    *count += 1;
                    all_in.notify_all();
                    let timeout = Duration::from_secs(10);
                    drop(all_in.wait_timeout_while(count, timeout, |n| *n < shards));
                }
                seen += 1;
            }
            seen
        });
        assert_eq!(per_worker, vec![8; 4]);
    }

    #[test]
    fn empty_and_tiny_corpora() {
        let kb = zodiac_kb::azure_kb();
        let cfg = ShardConfig::with_shards(4);
        let none: &[Program] = &[];
        assert_eq!(
            build_stats_streaming(none, &kb, true, &cfg),
            (CorpusStats::default(), 0)
        );
        let (stats, n) = build_stats_streaming(std::iter::empty::<Program>(), &kb, true, &cfg);
        assert_eq!(n, 0);
        assert_eq!(stats, CorpusStats::default());
        let one = corpus(1);
        assert_eq!(
            build_stats_streaming(&one, &kb, true, &cfg),
            (CorpusStats::build(&one, &kb, true), 1)
        );
    }
}
