//! Differential pinning of shard-parallel mining (ISSUE 9).
//!
//! The shard driver's whole contract is *invisibility*: any shard count,
//! input kind, scheduling interleaving, or merge order must produce an
//! observation database — and therefore a mined check set — identical to
//! the monolithic [`CorpusStats::build`]. These tests pin that contract
//! differentially across seeds × shard counts (including a prime count
//! that never divides the corpus evenly), and pin the latent merge-order
//! hazard: every probability the templates query (`p_value`, `p_present`,
//! `p_eq`, `p_overlap`, `p_contain`) must derive from merged *integer*
//! counters, so permuting the shard merge order changes query results by
//! not even one ULP.

use zodiac_corpus::{generate, CorpusConfig, ProjectStream};
use zodiac_mining::stats::FlattenArena;
use zodiac_mining::{
    build_stats_streaming, mine, mine_streaming, CorpusStats, MinedCheck, MiningConfig, ShardConfig,
};
use zodiac_model::Program;

const SHARD_COUNTS: [usize; 4] = [1, 2, 8, 17];

fn corpus(seed: u64, projects: usize) -> Vec<Program> {
    generate(&CorpusConfig {
        seed,
        projects,
        noise_rate: 0.05,
        rare_option_rate: 0.004,
        ..Default::default()
    })
    .into_iter()
    .map(|p| p.program)
    .collect()
}

/// Byte-exact rendering of a mined check set: the check's canonical string
/// plus every statistic, floats rendered through their bit patterns.
fn render(checks: &[MinedCheck]) -> Vec<String> {
    checks
        .iter()
        .map(|c| {
            format!(
                "{} | {} | s={} c={:016x} l={:?}",
                c.check,
                c.family,
                c.support,
                c.confidence.to_bits(),
                c.lift.map(f64::to_bits),
            )
        })
        .collect()
}

#[test]
fn sharded_and_streaming_stats_equal_monolithic_across_seeds() {
    let kb = zodiac_kb::azure_kb();
    for seed in [1u64, 0xC0FFEE, 9157] {
        let programs = corpus(seed, 90);
        let mono = CorpusStats::build(&programs, &kb, true);
        for shards in SHARD_COUNTS {
            let cfg = ShardConfig::with_shards(shards);
            let (sharded, _) = build_stats_streaming(&programs, &kb, true, &cfg);
            assert_eq!(
                sharded, mono,
                "seed {seed}: {shards}-shard build diverges from monolithic"
            );
            let (streamed, n) = build_stats_streaming(programs.iter().cloned(), &kb, true, &cfg);
            assert_eq!(n, programs.len(), "seed {seed}: stream lost projects");
            assert_eq!(
                streamed, mono,
                "seed {seed}: {shards}-shard streaming build diverges"
            );
        }
    }
}

#[test]
fn sharded_and_streaming_mining_yield_byte_identical_check_sets() {
    let kb = zodiac_kb::azure_kb();
    let mcfg = MiningConfig::default();
    for seed in [2u64, 0xC0FFEE] {
        let programs = corpus(seed, 90);
        let baseline = render(&mine(&programs, &kb, &mcfg).checks);
        assert!(
            !baseline.is_empty(),
            "seed {seed}: baseline mined nothing — the comparison is vacuous"
        );
        for shards in SHARD_COUNTS {
            let cfg = ShardConfig::with_shards(shards);
            let (sharded, _) = mine_streaming(&programs, &kb, &mcfg, &cfg);
            assert_eq!(
                render(&sharded.checks),
                baseline,
                "seed {seed}: {shards}-shard mine diverges"
            );
            let (streamed, n) = mine_streaming(programs.iter().cloned(), &kb, &mcfg, &cfg);
            assert_eq!(n, programs.len());
            assert_eq!(
                render(&streamed.checks),
                baseline,
                "seed {seed}: {shards}-shard streaming mine diverges"
            );
        }
    }
}

#[test]
fn project_stream_feeds_mining_identically_to_generate() {
    // The streaming entry point consumes `ProjectStream` directly in
    // production (`zodiac mine --stream`); pin the whole path, not just the
    // corpus-side identity test.
    let kb = zodiac_kb::azure_kb();
    let ccfg = CorpusConfig {
        projects: 60,
        noise_rate: 0.05,
        ..Default::default()
    };
    let materialised: Vec<Program> = generate(&ccfg).into_iter().map(|p| p.program).collect();
    let mcfg = MiningConfig::default();
    let baseline = render(&mine(&materialised, &kb, &mcfg).checks);
    let stream = ProjectStream::new(&ccfg).map(|p| p.program);
    let (report, n) = mine_streaming(stream, &kb, &mcfg, &ShardConfig::with_shards(3));
    assert_eq!(n, 60);
    assert_eq!(render(&report.checks), baseline);
}

/// The merge-order hazard regression: shard-local databases merged in any
/// permutation must answer every template probability query with
/// bit-identical `f64`s. This is only true because the merged state is all
/// integer counters — an implementation that averaged per-shard floats
/// would fail on the first permutation.
#[test]
fn merge_order_permutations_are_bit_identical() {
    let kb = zodiac_kb::azure_kb();
    let programs = corpus(0xC0FFEE, 72);

    // Eight shard-local partials, built over contiguous slices.
    let partials: Vec<CorpusStats> = programs
        .chunks(9)
        .map(|chunk| CorpusStats::build(chunk, &kb, true))
        .collect();
    assert_eq!(partials.len(), 8);

    let merge_in = |order: &[usize]| {
        let mut merged = CorpusStats::default();
        for &i in order {
            merged.merge_from(&partials[i]);
        }
        merged
    };

    let reference = merge_in(&[0, 1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(reference, CorpusStats::build(&programs, &kb, true));

    // Every probability query the templates can issue, over every attr the
    // corpus actually observed (pairs for the two-sided queries).
    let probe = |s: &CorpusStats| -> Vec<u64> {
        let mut bits = Vec::new();
        for (t, a, v) in s.attr_value.keys() {
            bits.push(s.p_value(*t, *a, v).to_bits());
        }
        for (t, a) in s.attr_present.keys() {
            bits.push(s.p_present(*t, *a).to_bits());
        }
        let attrs: Vec<_> = s.attr_present.keys().copied().collect();
        for (t1, a1) in attrs.iter().take(12) {
            for (t2, a2) in attrs.iter().rev().take(12) {
                bits.push(s.p_eq(*t1, *a1, *t2, *a2).to_bits());
                bits.push(s.p_overlap(*t1, *a1, *t2, *a2).to_bits());
                bits.push(s.p_contain(*t1, *a1, *t2, *a2).to_bits());
            }
        }
        bits
    };
    let expected = probe(&reference);
    assert!(
        expected.iter().any(|b| *b != 0),
        "all probes returned 0.0 — the regression test is vacuous"
    );

    for order in [
        [7, 6, 5, 4, 3, 2, 1, 0],
        [3, 0, 6, 1, 7, 2, 5, 4],
        [1, 7, 0, 5, 3, 6, 4, 2],
    ] {
        let merged = merge_in(&order);
        assert_eq!(
            merged, reference,
            "merge order {order:?} changes the database"
        );
        assert_eq!(
            probe(&merged),
            expected,
            "merge order {order:?} shifts a probability query by at least one ULP"
        );
    }
}

/// An arena reused across many programs must not leak state between them.
#[test]
fn arena_reuse_matches_fresh_arenas() {
    let kb = zodiac_kb::azure_kb();
    let programs = corpus(5, 30);
    let mut reused = CorpusStats::default();
    let mut arena = FlattenArena::default();
    for p in &programs {
        reused.observe_program_with(p, &kb, true, &mut arena);
    }
    let mut fresh = CorpusStats::default();
    for p in &programs {
        fresh.observe_program(p, &kb, true);
    }
    assert_eq!(reused, fresh);
    assert_eq!(reused, CorpusStats::build(&programs, &kb, true));
}
