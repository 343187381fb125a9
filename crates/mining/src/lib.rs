//! The Zodiac mining engine (§3.3).
//!
//! Mining turns a corpus of compiled IaC programs into *hypothesized
//! semantic checks*:
//!
//! 1. an observation pass ([`stats`]) aggregates attribute values, edge
//!    patterns, sibling/hub/copath co-occurrences, degrees and block
//!    lengths across the corpus;
//! 2. the template library ([`templates`]) instantiates candidate checks
//!    from those observations, constrained by the semantic knowledge base
//!    (conditions must test Enum-typed attributes, overlap applies to CIDR
//!    attributes, and so on — the constraints that keep the search space
//!    tractable, Figure 7a);
//! 3. **statistical filtering** removes candidates with low *confidence*
//!    (`P(stmt | cond)`) or low *lift* (`P(stmt|cond) / P(stmt)`);
//! 4. the **interpolation oracle** ([`oracle`]) answers documentation
//!    queries ("how many NICs can a `Standard_F2s_v2` VM attach?") to
//!    generalise quantitative candidates beyond what the corpus witnessed —
//!    the paper's GPT-4 step, backed here by encoded doc tables with
//!    optional answer noise.

pub mod delta;
pub mod oracle;
pub mod shard;
pub mod stats;
pub mod templates;

pub use delta::IncrementalStats;
pub use oracle::{DocOracle, InterpQuery};
pub use shard::{
    available_shards, build_stats_streaming, mine_streaming, mine_streaming_obs, ShardConfig,
};
pub use stats::CorpusStats;

use serde::Serialize;
use std::collections::BTreeMap;
use zodiac_kb::KnowledgeBase;
use zodiac_model::{Program, Symbol};
use zodiac_obs::Obs;
use zodiac_spec::Check;

/// Mining configuration.
#[derive(Debug, Clone)]
pub struct MiningConfig {
    /// Use the semantic KB to constrain template instantiation. Disabling
    /// this reproduces the "w/o KB" ablation of Figure 7a.
    pub use_kb: bool,
    /// Minimum number of condition occurrences for a candidate.
    pub min_support: usize,
    /// Minimum confidence `P(stmt|cond)`.
    pub min_confidence: f64,
    /// Minimum lift `P(stmt|cond)/P(stmt)`.
    pub min_lift: f64,
    /// Probability that the oracle mis-answers a query (hallucination).
    pub oracle_noise: f64,
    /// Oracle RNG seed.
    pub oracle_seed: u64,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig {
            use_kb: true,
            min_support: 4,
            min_confidence: 0.92,
            min_lift: 1.01,
            oracle_noise: 0.0,
            oracle_seed: 7,
        }
    }
}

/// A mined check with its mining statistics.
#[derive(Debug, Clone, Serialize)]
pub struct MinedCheck {
    /// The check.
    pub check: Check,
    /// Template family id (e.g. `intra/eq-eq`, `conn/attr-eq`).
    pub family: &'static str,
    /// Number of condition occurrences in the corpus.
    pub support: usize,
    /// `P(stmt | cond)` over corpus occurrences.
    pub confidence: f64,
    /// `confidence / P(stmt)`, when a marginal is defined for the family.
    pub lift: Option<f64>,
    /// Interpolation query this candidate maps to, if quantitative.
    pub interp: Option<InterpQuery>,
}

/// Outcome of the mining phase, including the funnel counters used by
/// Figure 7.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MiningReport {
    /// All candidates instantiated from templates.
    pub hypothesized: usize,
    /// Candidates removed by the confidence filter.
    pub removed_by_confidence: usize,
    /// Candidates removed by the lift filter (after confidence).
    pub removed_by_lift: usize,
    /// Checks added by oracle interpolation.
    pub llm_found: usize,
    /// Interpolation queries the oracle rejected.
    pub llm_removed: usize,
    /// Surviving checks (statistically filtered + interpolated).
    pub checks: Vec<MinedCheck>,
    /// Intra-resource candidate counts per resource type (Figure 7a).
    pub intra_candidates_per_type: BTreeMap<Symbol, usize>,
}

/// Runs the full mining phase over a corpus.
pub fn mine(programs: &[Program], kb: &KnowledgeBase, cfg: &MiningConfig) -> MiningReport {
    mine_obs(programs, kb, cfg, &Obs::null())
}

/// [`mine`] with an observability handle: records `pipeline/mining/*` stage
/// spans plus `mining.*` funnel counters (candidates hypothesized per
/// template family, statistical-filter kills by reason, oracle
/// interpolation adds/removes) and `op.mine.us`. The one-shard case of
/// [`mine_streaming_obs`].
pub fn mine_obs(
    programs: &[Program],
    kb: &KnowledgeBase,
    cfg: &MiningConfig,
    obs: &Obs,
) -> MiningReport {
    mine_streaming_obs(programs, kb, cfg, &ShardConfig::default(), obs).0
}

/// Mines from a prebuilt observation database — the entry point for
/// incremental re-mining, where an [`IncrementalStats`] keeps the database
/// live across corpus deltas and only instantiation + filtering re-run.
/// `mine(programs, ..) == mine_with_stats(&CorpusStats::build(programs, ..), ..)`
/// by construction.
pub fn mine_with_stats(
    stats: &CorpusStats,
    kb: &KnowledgeBase,
    cfg: &MiningConfig,
) -> MiningReport {
    mine_with_stats_obs(stats, kb, cfg, &Obs::null())
}

/// [`mine_with_stats`] with an observability handle.
pub fn mine_with_stats_obs(
    stats: &CorpusStats,
    kb: &KnowledgeBase,
    cfg: &MiningConfig,
    obs: &Obs,
) -> MiningReport {
    let _span = obs.start_span("pipeline/mining");
    mine_stats_inner(stats, kb, cfg, obs, None)
}

/// Re-scores only the templates anchored on the given resource types: the
/// narrow waist of incremental re-mining. After a corpus delta, only types
/// whose supporting-project set changed can gain or lose checks, so the
/// daemon re-runs instantiation + filtering for exactly those anchors.
///
/// Every pipeline stage after instantiation (statistical filter, oracle
/// interpolation with `oracle_noise == 0`, dedup) is per-candidate, so this
/// equals `mine_with_stats(..).checks` restricted to candidates whose
/// anchor binding (`check.bindings[0].rtype`) lies in `types`, in the same
/// relative order. With `oracle_noise > 0` the oracle's RNG stream depends
/// on the global candidate sequence and the equivalence breaks — callers
/// doing incremental re-mining must pin noise to zero.
pub fn mine_types_with_stats(
    stats: &CorpusStats,
    kb: &KnowledgeBase,
    cfg: &MiningConfig,
    types: &std::collections::BTreeSet<Symbol>,
) -> Vec<MinedCheck> {
    mine_stats_inner(stats, kb, cfg, &Obs::null(), Some(types)).checks
}

/// Instantiation + statistical filtering + oracle interpolation over a
/// built observation database.
pub(crate) fn mine_stats_inner(
    stats: &CorpusStats,
    kb: &KnowledgeBase,
    cfg: &MiningConfig,
    obs: &Obs,
    anchors: Option<&std::collections::BTreeSet<Symbol>>,
) -> MiningReport {
    let templates_span = obs.start_span("pipeline/mining/templates");
    let mut candidates = templates::instantiate(stats, kb, cfg);
    if let Some(types) = anchors {
        candidates.retain(|c| types.contains(&c.check.bindings[0].rtype));
    }
    templates_span.finish();
    // Everything downstream — solver soft constraints, validation grouping,
    // report ordering — is order-sensitive, so pin a canonical total order
    // here rather than depending on template iteration details. The IR
    // derives `Ord` (symbols compare by resolved string), so this needs no
    // text rendering.
    candidates.sort_by(|a, b| {
        a.check
            .cmp(&b.check)
            .then_with(|| a.family.cmp(b.family))
            .then_with(|| a.support.cmp(&b.support))
            .then_with(|| a.confidence.total_cmp(&b.confidence))
    });

    let mut report = MiningReport {
        hypothesized: candidates.len(),
        ..Default::default()
    };
    for c in &candidates {
        let t = c.check.bindings[0].rtype;
        if c.check.shape_category() == zodiac_spec::ShapeCategory::Intra {
            *report.intra_candidates_per_type.entry(t).or_default() += 1;
        }
    }

    if obs.is_enabled() {
        for c in &candidates {
            obs.counter(&format!("mining.hypothesized.{}", c.family), 1);
            obs.lifecycle(
                c.check.fingerprint(),
                zodiac_obs::Lifecycle::Mined {
                    template: c.family.to_string(),
                    support: c.support as u64,
                    confidence_ppm: (c.confidence * 1e6) as u64,
                },
            );
        }
    }

    // Statistical filtering: confidence first, then lift.
    let filter_span = obs.start_span("pipeline/mining/filter");
    let traced = obs.is_enabled();
    let verdict = |c: &MinedCheck, rule: &str, kept: bool| {
        if traced {
            obs.lifecycle(
                c.check.fingerprint(),
                zodiac_obs::Lifecycle::FilterVerdict {
                    rule: rule.to_string(),
                    kept,
                },
            );
        }
    };
    let mut survivors = Vec::new();
    for c in candidates {
        if c.support < cfg.min_support || c.confidence < cfg.min_confidence {
            report.removed_by_confidence += 1;
            verdict(&c, "min_confidence", false);
            continue;
        }
        if let Some(lift) = c.lift {
            if lift < cfg.min_lift {
                report.removed_by_lift += 1;
                verdict(&c, "min_lift", false);
                continue;
            }
        }
        verdict(&c, "statistical", true);
        survivors.push(c);
    }
    filter_span.finish();

    // Interpolation: quantitative candidates are generalised through the
    // documentation oracle; the oracle also proposes checks for enum values
    // the corpus never witnessed (mitigating data scarcity).
    let oracle_span = obs.start_span("pipeline/mining/oracle");
    let mut oracle = DocOracle::new(cfg.oracle_noise, cfg.oracle_seed);
    let (interpolated, removed) = oracle::interpolate(&survivors, kb, &mut oracle);
    oracle_span.finish();
    report.llm_found = interpolated.len();
    report.llm_removed = removed;
    if obs.is_enabled() {
        // Interpolation may generalise a quantitative check (changing its
        // fingerprint), so oracle-backed checks get their own provenance:
        // a Mined event under the final identity plus the oracle verdict.
        for c in &interpolated {
            obs.lifecycle(
                c.check.fingerprint(),
                zodiac_obs::Lifecycle::Mined {
                    template: c.family.to_string(),
                    support: c.support as u64,
                    confidence_ppm: (c.confidence * 1e6) as u64,
                },
            );
            obs.lifecycle(
                c.check.fingerprint(),
                zodiac_obs::Lifecycle::FilterVerdict {
                    rule: "oracle".to_string(),
                    kept: true,
                },
            );
        }
    }

    // Merge: non-quantitative survivors + oracle-backed quantitative checks.
    let mut checks: Vec<MinedCheck> = survivors
        .into_iter()
        .filter(|c| c.interp.is_none())
        .collect();
    checks.extend(interpolated);
    dedup(&mut checks);
    // Doc-driven interpolation proposes checks for its whole catalogue
    // regardless of the survivor set, so an anchor-restricted run must trim
    // the merged list back to the requested types to match the full run's
    // slice.
    if let Some(types) = anchors {
        checks.retain(|c| types.contains(&c.check.bindings[0].rtype));
    }
    report.checks = checks;
    obs.counter("mining.hypothesized", report.hypothesized as u64);
    obs.counter(
        "mining.filtered.confidence",
        report.removed_by_confidence as u64,
    );
    obs.counter("mining.filtered.lift", report.removed_by_lift as u64);
    obs.counter("mining.oracle.found", report.llm_found as u64);
    obs.counter("mining.oracle.removed", report.llm_removed as u64);
    obs.counter("mining.checks", report.checks.len() as u64);
    report
}

/// Deduplicates structurally, keeping the first occurrence. Checks hash by
/// interned symbol ids, so this never renders text.
fn dedup(checks: &mut Vec<MinedCheck>) {
    let mut seen: std::collections::HashSet<Check> = std::collections::HashSet::new();
    checks.retain(|c| seen.insert(c.check.clone()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use zodiac_model::Resource;

    fn spot_corpus() -> Vec<Program> {
        (0..30)
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
    fn mines_spot_eviction_check() {
        let kb = zodiac_kb::azure_kb();
        let report = mine(&spot_corpus(), &kb, &MiningConfig::default());
        let target = "let r:VM in r.priority == 'Spot' => r.eviction_policy != null";
        let parsed = zodiac_spec::parse_check(target).unwrap();
        assert!(
            report
                .checks
                .iter()
                .any(|c| c.check.canonical() == parsed.canonical()),
            "missing spot/eviction check; got {} checks",
            report.checks.len()
        );
    }

    #[test]
    fn funnel_counters_are_consistent() {
        let kb = zodiac_kb::azure_kb();
        let report = mine(&spot_corpus(), &kb, &MiningConfig::default());
        assert!(report.hypothesized > 0);
        assert!(report.removed_by_confidence < report.hypothesized);
    }

    #[test]
    fn no_duplicate_checks() {
        let kb = zodiac_kb::azure_kb();
        let report = mine(&spot_corpus(), &kb, &MiningConfig::default());
        let mut canon: Vec<String> = report.checks.iter().map(|c| c.check.canonical()).collect();
        let before = canon.len();
        canon.sort();
        canon.dedup();
        assert_eq!(before, canon.len());
    }

    #[test]
    fn per_type_mining_matches_the_full_mining_slice() {
        let kb = zodiac_kb::azure_kb();
        let cfg = MiningConfig::default();
        let programs = spot_corpus();
        let stats = CorpusStats::build(&programs, &kb, cfg.use_kb);
        let full = mine_with_stats(&stats, &kb, &cfg);
        let anchors: std::collections::BTreeSet<Symbol> = full
            .checks
            .iter()
            .map(|c| c.check.bindings[0].rtype)
            .collect();
        assert!(!anchors.is_empty());
        for t in anchors {
            let only: std::collections::BTreeSet<Symbol> = [t].into_iter().collect();
            let sub = mine_types_with_stats(&stats, &kb, &cfg, &only);
            let slice: Vec<&MinedCheck> = full
                .checks
                .iter()
                .filter(|c| c.check.bindings[0].rtype == t)
                .collect();
            assert_eq!(sub.len(), slice.len());
            for (a, b) in sub.iter().zip(slice) {
                assert_eq!(a.check, b.check);
                assert_eq!(a.family, b.family);
                assert_eq!(a.support, b.support);
            }
        }
    }

    #[test]
    fn without_kb_generates_more_intra_candidates() {
        let kb = zodiac_kb::azure_kb();
        let with = mine(
            &spot_corpus(),
            &kb,
            &MiningConfig {
                use_kb: true,
                ..Default::default()
            },
        );
        let without = mine(
            &spot_corpus(),
            &kb,
            &MiningConfig {
                use_kb: false,
                ..Default::default()
            },
        );
        let w: usize = with.intra_candidates_per_type.values().sum();
        let wo: usize = without.intra_candidates_per_type.values().sum();
        assert!(wo > w, "w/o KB {wo} should exceed w/ KB {w}");
    }
}
