//! Scanning user programs against validated checks (§5.5).
//!
//! Once validated, semantic checks become static guardrails: a program is
//! scanned *before* deployment, catching cloud-level violations at the
//! compilation stage. This is the downstream use case that found
//! misconfigurations in 85 repositories (2.0% of the paper's dataset) and
//! four buggy official usage examples.

use serde::Serialize;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use zodiac_graph::ResourceGraph;
use zodiac_kb::KnowledgeBase;
use zodiac_model::{Program, ResourceId};
use zodiac_spec::{violations, Check, EvalContext};

/// One semantic violation in a scanned program.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// Index of the violated check.
    pub check_index: usize,
    /// The violated check, rendered.
    pub check: String,
    /// Resources bound by the violating instance.
    pub resources: Vec<ResourceId>,
}

/// Scan result over a corpus of programs.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MisconfigReport {
    /// Programs scanned.
    pub scanned: usize,
    /// Programs with at least one violation.
    pub buggy_programs: usize,
    /// All violations, keyed by program index.
    pub violations: Vec<(usize, Vec<Violation>)>,
}

impl MisconfigReport {
    /// Fraction of scanned programs that violate at least one check.
    pub fn buggy_rate(&self) -> f64 {
        if self.scanned == 0 {
            0.0
        } else {
            self.buggy_programs as f64 / self.scanned as f64
        }
    }

    /// The checks most often violated, as `(check_index, violation_count)`
    /// sorted descending — the paper's "top-3 checks" that drove the GitHub
    /// search queries.
    pub fn top_checks(&self, n: usize) -> Vec<(usize, usize)> {
        let mut counts: std::collections::BTreeMap<usize, usize> = Default::default();
        for (_, vs) in &self.violations {
            for v in vs {
                *counts.entry(v.check_index).or_default() += 1;
            }
        }
        let mut out: Vec<(usize, usize)> = counts.into_iter().collect();
        out.sort_by_key(|o| std::cmp::Reverse(o.1));
        out.truncate(n);
        out
    }
}

/// Scans one program against a check set.
pub fn scan_program(program: &Program, checks: &[Check], kb: &KnowledgeBase) -> Vec<Violation> {
    let graph = ResourceGraph::build(program.clone());
    let ctx = EvalContext {
        graph: &graph,
        kb: Some(kb),
    };
    let mut out = Vec::new();
    for (i, check) in checks.iter().enumerate() {
        for v in violations(check, ctx) {
            out.push(Violation {
                check_index: i,
                check: check.to_string(),
                resources: v
                    .binding
                    .values()
                    .map(|&n| graph.resource(n).id())
                    .collect(),
            });
        }
    }
    out
}

/// Scans a corpus of programs. Identical programs (by canonical
/// fingerprint) are scanned once and served from a [`ScanCache`].
pub fn scan_corpus(programs: &[Program], checks: &[Check], kb: &KnowledgeBase) -> MisconfigReport {
    let cache = ScanCache::new();
    let key = check_set_key(checks);
    let mut report = MisconfigReport {
        scanned: programs.len(),
        ..Default::default()
    };
    for (idx, p) in programs.iter().enumerate() {
        let (vs, _) = cache.scan(p, checks, key, kb);
        if !vs.is_empty() {
            report.buggy_programs += 1;
            report.violations.push((idx, vs.as_ref().clone()));
        }
    }
    report
}

/// The check-set identity that keys the scan memo's second half, so a
/// cache survives check-set swaps without invalidation: verdicts computed
/// under an old set simply stop being addressed.
pub use zodiac_spec::check_set_key;

const SCAN_CACHE_SHARDS: usize = 16;

/// A sharded, thread-safe memo of scan verdicts, keyed by (canonical
/// program fingerprint, check-set key).
///
/// Scanning is a pure function of the program and the check set, so two
/// submissions of the same infrastructure — same resources in any
/// declaration order — share one computed verdict. One instance backs both
/// the in-process [`scan_corpus`] dedup and `zodiacd`'s serving cache,
/// where the memo is what turns repeat submissions into O(1) lookups.
#[derive(Debug)]
pub struct ScanCache {
    shards: Vec<Mutex<ScanShard>>,
}

/// One cache shard: verdicts keyed by (program fingerprint, check-set key).
type ScanShard = HashMap<(u128, u64), Arc<Vec<Violation>>>;

impl Default for ScanCache {
    fn default() -> Self {
        ScanCache::new()
    }
}

impl ScanCache {
    /// An empty cache.
    pub fn new() -> Self {
        ScanCache {
            shards: (0..SCAN_CACHE_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    fn shard(&self, program_fp: u128) -> &Mutex<ScanShard> {
        &self.shards[(program_fp as usize) % SCAN_CACHE_SHARDS]
    }

    /// Scans a program against a check set, serving a memoized verdict when
    /// this (program, check set) pair has been scanned before. Returns the
    /// verdict and whether it was served from the cache.
    pub fn scan(
        &self,
        program: &Program,
        checks: &[Check],
        check_set_key: u64,
        kb: &KnowledgeBase,
    ) -> (Arc<Vec<Violation>>, bool) {
        let fp = zodiac_deployer::fingerprint(program);
        self.scan_fingerprinted(fp, program, checks, check_set_key, kb)
    }

    /// [`ScanCache::scan`] with the program fingerprint precomputed by the
    /// caller (the daemon fingerprints once per request for logging).
    pub fn scan_fingerprinted(
        &self,
        program_fp: u128,
        program: &Program,
        checks: &[Check],
        check_set_key: u64,
        kb: &KnowledgeBase,
    ) -> (Arc<Vec<Violation>>, bool) {
        if let Some(hit) = self.get(program_fp, check_set_key) {
            return (hit, true);
        }
        let key = (program_fp, check_set_key);
        let verdict = Arc::new(scan_program(program, checks, kb));
        let mut shard = self
            .shard(program_fp)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Two threads may race to compute the same verdict; both compute
        // the same pure function, so last-write-wins is harmless.
        shard.insert(key, verdict.clone());
        (verdict, false)
    }

    /// The memoized verdict of the program with fingerprint `program_fp`
    /// against the check set keyed `check_set_key`, if there is one.
    pub fn get(&self, program_fp: u128, check_set_key: u64) -> Option<Arc<Vec<Violation>>> {
        self.shard(program_fp)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(program_fp, check_set_key))
            .cloned()
    }

    /// Number of memoized verdicts.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoized verdict.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zodiac_model::Resource;
    use zodiac_spec::parse_check;

    #[test]
    fn scanner_finds_spot_violation() {
        let checks =
            vec![
                parse_check("let r:VM in r.priority == 'Spot' => r.eviction_policy != null")
                    .unwrap(),
            ];
        let kb = zodiac_kb::azure_kb();
        let bad = Program::new()
            .with(Resource::new("azurerm_linux_virtual_machine", "vm").with("priority", "Spot"));
        let good = Program::new().with(
            Resource::new("azurerm_linux_virtual_machine", "vm")
                .with("priority", "Spot")
                .with("eviction_policy", "Delete"),
        );
        let report = scan_corpus(&[bad, good], &checks, &kb);
        assert_eq!(report.scanned, 2);
        assert_eq!(report.buggy_programs, 1);
        assert_eq!(report.top_checks(3), vec![(0, 1)]);
        assert!((report.buggy_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cache_memoizes_identical_programs() {
        let checks =
            vec![
                parse_check("let r:VM in r.priority == 'Spot' => r.eviction_policy != null")
                    .unwrap(),
            ];
        let kb = zodiac_kb::azure_kb();
        let key = check_set_key(&checks);
        let bad = Program::new()
            .with(Resource::new("azurerm_linux_virtual_machine", "vm").with("priority", "Spot"));
        let cache = ScanCache::new();
        let (first, cached_first) = cache.scan(&bad, &checks, key, &kb);
        let (second, cached_second) = cache.scan(&bad.clone(), &checks, key, &kb);
        assert!(!cached_first);
        assert!(cached_second);
        assert_eq!(first.len(), 1);
        assert!(Arc::ptr_eq(&first, &second), "memo must share the verdict");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_distinguishes_check_sets() {
        let kb = zodiac_kb::azure_kb();
        let spot =
            vec![
                parse_check("let r:VM in r.priority == 'Spot' => r.eviction_policy != null")
                    .unwrap(),
            ];
        let none: Vec<zodiac_spec::Check> = Vec::new();
        assert_ne!(check_set_key(&spot), check_set_key(&none));
        let bad = Program::new()
            .with(Resource::new("azurerm_linux_virtual_machine", "vm").with("priority", "Spot"));
        let cache = ScanCache::new();
        let (with, _) = cache.scan(&bad, &spot, check_set_key(&spot), &kb);
        let (without, cached) = cache.scan(&bad, &none, check_set_key(&none), &kb);
        assert!(!cached, "different check set must miss");
        assert_eq!(with.len(), 1);
        assert!(without.is_empty());
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_hits_across_declaration_order() {
        let checks =
            vec![
                parse_check("let r:VM in r.priority == 'Spot' => r.eviction_policy != null")
                    .unwrap(),
            ];
        let kb = zodiac_kb::azure_kb();
        let key = check_set_key(&checks);
        let vm = Resource::new("azurerm_linux_virtual_machine", "vm").with("priority", "Spot");
        let other = Resource::new("azurerm_subnet", "s");
        let p1 = Program::new().with(vm.clone()).with(other.clone());
        let p2 = Program::new().with(other).with(vm);
        let cache = ScanCache::new();
        cache.scan(&p1, &checks, key, &kb);
        let (_, cached) = cache.scan(&p2, &checks, key, &kb);
        assert!(cached, "canonical fingerprint ignores declaration order");
    }
}
