//! Peak-memory pinning for streaming mining (ISSUE 9).
//!
//! The point of `--stream` is that a 100k-project corpus never lives in
//! memory: projects are generated on demand, observed, and dropped, with
//! only shard-local `CorpusStats` (bounded by distinct keys, not project
//! count) and a bounded channel of in-flight batches alive at once. RSS
//! would be the honest metric but is noisy and platform-dependent, so this
//! binary installs [`zodiac_obs::CountingAlloc`] as its global allocator
//! and asserts on live-heap high-water marks instead: an accidental
//! `Vec<Project>` materialisation inflates the streaming peak by the size
//! of the corpus, far beyond the budget's headroom.

use zodiac_corpus::{CorpusConfig, ProjectStream};
use zodiac_mining::{build_stats_streaming, ShardConfig};
use zodiac_obs::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const PROJECTS: usize = 10_000;

/// Peak heap budget for the 10k streaming observation pass. The peak is
/// dominated by the observation database itself (~69 MiB live at 10k
/// projects — `attr_value`/`joint_value` keys grow with distinct corpus
/// values, which is inherent to the mining algorithm, not a streaming
/// leak); measured streaming peak is ~106 MiB with two shards. The budget
/// leaves ~50% headroom while sitting far below the ~278 MiB a
/// materialised 10k-project `Vec<Project>` adds on top.
const PEAK_BUDGET_BYTES: usize = 160 * 1024 * 1024;

#[test]
fn streaming_mine_of_10k_projects_stays_under_peak_heap_budget() {
    let kb = zodiac_kb::azure_kb();
    let cfg = CorpusConfig {
        projects: PROJECTS,
        noise_rate: 0.02,
        ..Default::default()
    };
    // Two shards exercises the bounded-channel path (producer + workers);
    // the in-flight window is shards × 2 messages.
    let shard = ShardConfig::with_shards(2);
    let baseline = ALLOC.reset_peak();
    let stream = ProjectStream::new(&cfg).map(|p| p.program);
    let (stats, observed) = build_stats_streaming(stream, &kb, true, &shard);
    let peak = ALLOC.peak_bytes();
    assert_eq!(observed, PROJECTS);
    assert_eq!(stats.total_programs, PROJECTS);
    let delta = peak.saturating_sub(baseline);
    assert!(
        delta < PEAK_BUDGET_BYTES,
        "streaming mine peaked at {delta} heap bytes over baseline \
         (budget {PEAK_BUDGET_BYTES}); did something rematerialise the corpus?"
    );
}
