//! Wave planning for the validation scheduler.
//!
//! The false-positive pass is *almost* embarrassingly parallel: candidate
//! `i`'s negative test depends on candidate `j` only when `j`'s check can
//! ground over one of `i`'s mutated programs (then `j` shapes `i`'s soft
//! constraints, and `i`'s deploy can demote `j` by co-violation). The
//! planner makes that dependency explicit:
//!
//! 1. a [`TypeReach`] relation over-approximates which resource types a
//!    mutated program can contain — the types of the positive case plus
//!    everything reachable through KB endpoint declarations *and* observed
//!    corpus references (mutation only clones existing resources or imports
//!    corpus donors along those edges, so the closure is sound);
//! 2. check `j` is **relevant** to candidate `i` iff all of `j`'s bound
//!    types fall inside `i`'s closure — irrelevant checks can never ground,
//!    never appear among violated constraints, and can be dropped from
//!    `i`'s soft encoding without changing the solver's answer;
//! 3. two candidates **conflict** when either is relevant to the other;
//!    greedy chain-rule coloring (`wave(i) = 1 + max(wave(j))` over earlier
//!    conflicting `j`) partitions candidates into independent waves whose
//!    members can be encoded against the same snapshot and deployed as one
//!    batch.
//!
//! The scheduler treats waves as a *speculation* plan: encodings and batch
//! deploys are computed wave-by-wave, then validated against the exact
//! sequential timeline and replayed one-by-one on mismatch, so verdicts are
//! identical to the one-at-a-time loop by construction (the scheduler's
//! test-only reference checks exactly this equivalence).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use zodiac_graph::ResourceGraph;
use zodiac_kb::KnowledgeBase;
use zodiac_model::Symbol;

/// Per-candidate planner input.
#[derive(Debug, Clone)]
pub struct PlanCandidate {
    /// Evaluation-order key (O4 deployment depth); candidates are colored
    /// in `(order, fingerprint)` order so the plan is independent of input
    /// permutation.
    pub order: i64,
    /// The check's fingerprint — the canonical tie-break and identity.
    pub fingerprint: u64,
    /// The check's bound resource types.
    pub bound: Vec<Symbol>,
    /// Resource types present in the candidate's positive case (falls back
    /// to `bound` when no positive case exists).
    pub present: Vec<Symbol>,
}

/// Which resource types are reachable from a given type when building a
/// deployable program: KB endpoint targets (imports pull in declared
/// dependencies) unioned with reference edges observed anywhere in the
/// corpus (donor subgraphs follow actual program edges).
pub struct TypeReach {
    succ: HashMap<Symbol, BTreeSet<Symbol>>,
}

impl TypeReach {
    /// Builds the reachability relation from the KB schema and a set of
    /// prebuilt corpus graphs.
    pub fn build<'a>(
        kb: &KnowledgeBase,
        graphs: impl Iterator<Item = &'a ResourceGraph>,
    ) -> TypeReach {
        let mut succ: HashMap<Symbol, BTreeSet<Symbol>> = HashMap::new();
        for t in kb.types() {
            let sym = Symbol::intern(t);
            let entry = succ.entry(sym).or_default();
            if let Some(schema) = kb.resource(&sym) {
                for ep in schema.endpoints.values() {
                    entry.insert(Symbol::intern(&ep.target_type));
                }
            }
        }
        for graph in graphs {
            for edge in graph.edges() {
                let src = Symbol::intern(&graph.resource(edge.src).rtype);
                let dst = Symbol::intern(&graph.resource(edge.dst).rtype);
                succ.entry(src).or_default().insert(dst);
            }
        }
        TypeReach { succ }
    }

    /// The reachable-type closure of a seed set (inclusive).
    pub fn closure(&self, seeds: &[Symbol]) -> BTreeSet<Symbol> {
        let mut out: BTreeSet<Symbol> = BTreeSet::new();
        let mut stack: Vec<Symbol> = seeds.to_vec();
        while let Some(t) = stack.pop() {
            if !out.insert(t) {
                continue;
            }
            if let Some(next) = self.succ.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        out
    }
}

/// The planned waves plus the conflict model they came from.
pub struct WavePlan {
    /// Waves of input indices; members of one wave are mutually
    /// conflict-free, and every member of wave `k+1` conflicts with some
    /// member of an earlier wave.
    pub waves: Vec<Vec<usize>>,
    /// Conflict degree per input candidate.
    pub degree: Vec<usize>,
    bound: Vec<BTreeSet<Symbol>>,
    reach: Vec<BTreeSet<Symbol>>,
}

impl WavePlan {
    /// True when candidate `j`'s check can ground over candidate `i`'s
    /// mutated programs — i.e. `j` belongs in `i`'s soft encoding.
    pub fn relevant(&self, j: usize, i: usize) -> bool {
        self.bound[j].iter().all(|t| self.reach[i].contains(t))
    }

    /// True when the two candidates must not share a wave.
    pub fn conflicts(&self, i: usize, j: usize) -> bool {
        i != j && (self.relevant(i, j) || self.relevant(j, i))
    }
}

/// Colors candidates into independent waves.
///
/// Candidates are processed in `(order, fingerprint)` order — a canonical
/// total order (fingerprints are unique identities), so the resulting
/// partition is deterministic under any permutation of the input. The
/// chain rule `wave(i) = 1 + max(wave(j) : j ≺ i, conflict(i, j))` keeps
/// every conflicting pair ordered across waves exactly as the sequential
/// scheduler would process them.
pub fn plan_waves(cands: &[PlanCandidate], reach: &TypeReach) -> WavePlan {
    let n = cands.len();
    let bound: Vec<BTreeSet<Symbol>> = cands
        .iter()
        .map(|c| c.bound.iter().copied().collect())
        .collect();
    let closures: Vec<BTreeSet<Symbol>> = cands.iter().map(|c| reach.closure(&c.present)).collect();
    let mut plan = WavePlan {
        waves: Vec::new(),
        degree: vec![0; n],
        bound,
        reach: closures,
    };

    let mut canonical: Vec<usize> = (0..n).collect();
    canonical.sort_by_key(|&i| (cands[i].order, cands[i].fingerprint));

    let mut wave_of: Vec<usize> = vec![0; n];
    let mut waves: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (pos, &i) in canonical.iter().enumerate() {
        let mut wave = 0usize;
        for &j in &canonical[..pos] {
            if plan.conflicts(i, j) {
                wave = wave.max(wave_of[j] + 1);
            }
        }
        wave_of[i] = wave;
        waves.entry(wave).or_default().push(i);
    }
    for i in 0..n {
        plan.degree[i] = (0..n).filter(|&j| plan.conflicts(i, j)).count();
    }
    plan.waves = waves.into_values().collect();
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn reach_empty() -> TypeReach {
        TypeReach {
            succ: HashMap::new(),
        }
    }

    fn cand(fp: u64, bound: &[&str], present: &[&str]) -> PlanCandidate {
        PlanCandidate {
            order: 0,
            fingerprint: fp,
            bound: bound.iter().map(|s| sym(s)).collect(),
            present: present.iter().map(|s| sym(s)).collect(),
        }
    }

    #[test]
    fn closure_follows_kb_and_corpus_edges() {
        let kb = zodiac_kb::azure_kb();
        let reach = TypeReach::build(&kb, std::iter::empty());
        let c = reach.closure(&[sym("azurerm_linux_virtual_machine")]);
        // A VM reaches its NIC, the NIC its subnet, and so on down to the
        // resource group.
        assert!(c.contains(&sym("azurerm_network_interface")));
        assert!(c.contains(&sym("azurerm_subnet")));
        assert!(c.contains(&sym("azurerm_resource_group")));
        // Reachability is directional: the RG reaches nothing above itself.
        let rg = reach.closure(&[sym("azurerm_resource_group")]);
        assert!(!rg.contains(&sym("azurerm_linux_virtual_machine")));
    }

    #[test]
    fn disjoint_candidates_share_wave_zero() {
        let cands = vec![cand(1, &["a"], &["a"]), cand(2, &["b"], &["b"])];
        let plan = plan_waves(&cands, &reach_empty());
        assert_eq!(plan.waves, vec![vec![0, 1]]);
        assert_eq!(plan.degree, vec![0, 0]);
        assert!(!plan.conflicts(0, 1));
    }

    #[test]
    fn relevant_candidates_are_separated() {
        // Both checks bind type "a" and their positives contain "a": each is
        // relevant to the other, so they conflict and take separate waves.
        let cands = vec![cand(1, &["a"], &["a"]), cand(2, &["a"], &["a"])];
        let plan = plan_waves(&cands, &reach_empty());
        assert_eq!(plan.waves.len(), 2);
        assert!(plan.conflicts(0, 1));
        assert_eq!(plan.degree, vec![1, 1]);
    }

    #[test]
    fn one_directional_relevance_still_conflicts() {
        // Candidate 0's positives contain {a, b}; candidate 1 binds only b,
        // so 1 is relevant to 0 but not vice versa — still a conflict.
        let cands = vec![cand(1, &["a"], &["a", "b"]), cand(2, &["b"], &["b"])];
        let plan = plan_waves(&cands, &reach_empty());
        assert!(plan.relevant(1, 0));
        assert!(!plan.relevant(0, 1));
        assert!(plan.conflicts(0, 1));
        assert_eq!(plan.waves.len(), 2);
    }

    #[test]
    fn coloring_is_an_independent_set_partition() {
        // A chain a–ab–b plus an unrelated c: waves must never contain a
        // conflicting pair.
        let cands = vec![
            cand(1, &["a"], &["a"]),
            cand(2, &["a", "b"], &["a", "b"]),
            cand(3, &["b"], &["b"]),
            cand(4, &["c"], &["c"]),
        ];
        let plan = plan_waves(&cands, &reach_empty());
        for wave in &plan.waves {
            for (x, &i) in wave.iter().enumerate() {
                for &j in &wave[x + 1..] {
                    assert!(!plan.conflicts(i, j), "wave holds conflicting {i},{j}");
                }
            }
        }
        // The unrelated candidate rides in the first wave.
        assert!(plan.waves[0].contains(&3));
    }

    #[test]
    fn plan_is_deterministic_under_permutation() {
        let base = vec![
            cand(10, &["a"], &["a"]),
            cand(11, &["a", "b"], &["a", "b"]),
            cand(12, &["b"], &["b"]),
            cand(13, &["c"], &["c"]),
            cand(14, &["b"], &["b", "c"]),
        ];
        let reach = reach_empty();
        let fingerprint_waves = |cands: &[PlanCandidate]| -> Vec<Vec<u64>> {
            plan_waves(cands, &reach)
                .waves
                .iter()
                .map(|w| {
                    let mut fps: Vec<u64> = w.iter().map(|&i| cands[i].fingerprint).collect();
                    fps.sort_unstable();
                    fps
                })
                .collect()
        };
        let reference = fingerprint_waves(&base);
        // A few deterministic permutations (rotations and a reversal).
        for rot in 1..base.len() {
            let mut permuted = base.clone();
            permuted.rotate_left(rot);
            assert_eq!(fingerprint_waves(&permuted), reference, "rotation {rot}");
        }
        let mut reversed = base.clone();
        reversed.reverse();
        assert_eq!(fingerprint_waves(&reversed), reference);
    }
}
