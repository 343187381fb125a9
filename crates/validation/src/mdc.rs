//! Positive test cases and minimal-deployable-configuration pruning.
//!
//! Given a candidate check, [`find_positive`] scans the corpus for a program
//! containing a *witness* (a binding satisfying both condition and
//! statement), then prunes it to the witness resources plus their ancestor
//! closure — the resources required for the witness to deploy. Everything
//! else (unreachable resources, and child resources that would deploy after
//! the check takes effect) is removed, shrinking SMT encodings and cloud
//! cost (§4.1, *pruning IaC programs*; evaluated in Table 6).

use serde::Serialize;
use std::collections::{BTreeMap, HashSet};
use zodiac_graph::{ancestors, NodeIdx, ResourceGraph};
use zodiac_kb::KnowledgeBase;
use zodiac_model::{Program, ResourceId, Symbol};
use zodiac_spec::{first_witness, Check, EvalContext};

/// A positive test case for a check.
#[derive(Debug, Clone)]
pub struct PositiveCase {
    /// The pruned (MDC) program.
    pub program: Program,
    /// Witness binding: variable → resource id in `program`.
    pub witness: BTreeMap<Symbol, ResourceId>,
    /// Pruning statistics for this case.
    pub stats: MdcStats,
}

/// Before/after pruning statistics (Table 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct MdcStats {
    /// KB-attended resources after pruning.
    pub pruned_attended: usize,
    /// KB-attended resources before pruning.
    pub orig_attended: usize,
    /// Unattended resources after pruning.
    pub pruned_unattended: usize,
    /// Unattended resources before pruning.
    pub orig_unattended: usize,
}

/// Prebuilt per-program resource graphs plus their type inventories. It
/// serves both searches over a corpus: one index serves every positive-case
/// search of a scheduler run, and another the whole §5.6 counterexample
/// pass over the extra corpus, so each graph is built once rather than once
/// per `(check, program)` pair. Searches skip programs that lack one of a
/// check's bound types: such programs bind no instance at all (no witness,
/// no violation), so skipping them is behavior-preserving.
pub struct CorpusIndex {
    graphs: Vec<ResourceGraph>,
    types: Vec<HashSet<Symbol>>,
}

impl CorpusIndex {
    /// Builds graphs and type inventories for every corpus program.
    pub fn build(corpus: &[Program]) -> CorpusIndex {
        let graphs: Vec<ResourceGraph> = corpus
            .iter()
            .map(|p| ResourceGraph::build(p.clone()))
            .collect();
        let types = graphs
            .iter()
            .map(|g| {
                g.program()
                    .resources()
                    .iter()
                    .map(|r| Symbol::intern(&r.rtype))
                    .collect()
            })
            .collect();
        CorpusIndex { graphs, types }
    }

    /// The prebuilt graphs, in corpus order.
    pub fn graphs(&self) -> &[ResourceGraph] {
        &self.graphs
    }

    /// True when program `i` contains at least one resource of every type
    /// the check binds — a necessary condition for any instance, witness or
    /// violation.
    pub(crate) fn may_bind(&self, i: usize, check: &Check) -> bool {
        check
            .bindings
            .iter()
            .all(|b| self.types[i].contains(&b.rtype))
    }
}

/// Finds a positive test case for `check` in the corpus, preferring the
/// program that yields the smallest MDC.
pub fn find_positive(
    check: &Check,
    corpus: &[Program],
    kb: &KnowledgeBase,
    max_scan: usize,
) -> Option<PositiveCase> {
    find_positive_indexed(check, &CorpusIndex::build(corpus), kb, max_scan)
}

/// [`find_positive`] over a prebuilt [`CorpusIndex`] — same scan order,
/// early exit, and tie-break, so the result is identical; only the graph
/// construction is amortised.
///
/// Each program's case is sized before it is built: the MDC of a witness is
/// the witness plus its ancestor closure, so only a closure strictly smaller
/// than the best case so far is pruned into a program. Ties keep the
/// earliest program.
pub fn find_positive_indexed(
    check: &Check,
    index: &CorpusIndex,
    kb: &KnowledgeBase,
    max_scan: usize,
) -> Option<PositiveCase> {
    let mut best: Option<PositiveCase> = None;
    for (i, graph) in index.graphs.iter().take(max_scan.max(1)).enumerate() {
        if !index.may_bind(i, check) {
            continue;
        }
        let ctx = EvalContext {
            graph,
            kb: Some(kb),
        };
        let Some(w) = first_witness(check, ctx) else {
            continue;
        };
        let keep = closure(graph, &w.binding);
        if best.as_ref().is_some_and(|b| keep.len() >= b.program.len()) {
            continue;
        }
        let minimal = keep.len();
        best = Some(prune_to(graph, &w.binding, &keep, kb));
        if minimal <= check.bindings.len() + 2 {
            break; // Cannot get much smaller.
        }
    }
    best
}

/// The nodes an MDC keeps: the witness binding plus its ancestor closure.
/// Its size is the pruned program's length (resource ids are unique within
/// a program).
fn closure(graph: &ResourceGraph, binding: &BTreeMap<Symbol, NodeIdx>) -> HashSet<NodeIdx> {
    let mut keep: HashSet<NodeIdx> = binding.values().copied().collect();
    for &node in binding.values() {
        keep.extend(ancestors(graph, node));
    }
    keep
}

/// Prunes a program to the witness binding plus its ancestor closure.
pub fn prune(
    graph: &ResourceGraph,
    binding: &BTreeMap<Symbol, NodeIdx>,
    kb: &KnowledgeBase,
) -> PositiveCase {
    prune_to(graph, binding, &closure(graph, binding), kb)
}

/// Prunes a program to `keep`, the [`closure`] of `binding`.
fn prune_to(
    graph: &ResourceGraph,
    binding: &BTreeMap<Symbol, NodeIdx>,
    keep: &HashSet<NodeIdx>,
    kb: &KnowledgeBase,
) -> PositiveCase {
    let program = graph.program();
    let mut stats = MdcStats::default();
    for (idx, r) in program.resources().iter().enumerate() {
        let attended = kb.is_attended(&r.rtype);
        if attended {
            stats.orig_attended += 1;
        } else {
            stats.orig_unattended += 1;
        }
        if keep.contains(&idx) {
            if attended {
                stats.pruned_attended += 1;
            } else {
                stats.pruned_unattended += 1;
            }
        }
    }

    let keep_ids: HashSet<ResourceId> = keep.iter().map(|&n| graph.resource(n).id()).collect();
    let mut pruned = program.clone();
    pruned.retain_ids(&keep_ids);

    let witness = binding
        .iter()
        .map(|(&var, &node)| (var, graph.resource(node).id()))
        .collect();

    PositiveCase {
        program: pruned,
        witness,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zodiac_model::{Resource, Value};
    use zodiac_spec::parse_check;

    /// rg ← vnet ← subnet ← nic ← vm, plus an unrelated storage account and
    /// an unattended custom resource.
    fn sample() -> Program {
        Program::new()
            .with(
                Resource::new("azurerm_resource_group", "rg")
                    .with("name", "rg")
                    .with("location", "eastus"),
            )
            .with(
                Resource::new("azurerm_virtual_network", "v")
                    .with("name", "vn")
                    .with(
                        "resource_group_name",
                        Value::r("azurerm_resource_group", "rg", "name"),
                    ),
            )
            .with(Resource::new("azurerm_subnet", "s").with(
                "virtual_network_name",
                Value::r("azurerm_virtual_network", "v", "name"),
            ))
            .with(
                Resource::new("azurerm_network_interface", "n")
                    .with("location", "eastus")
                    .with("subnet_id", Value::r("azurerm_subnet", "s", "id")),
            )
            .with(
                Resource::new("azurerm_linux_virtual_machine", "vm")
                    .with("location", "eastus")
                    .with(
                        "network_interface_ids",
                        Value::List(vec![Value::r("azurerm_network_interface", "n", "id")]),
                    ),
            )
            .with(Resource::new("azurerm_storage_account", "sa").with("name", "saxyz"))
            .with(Resource::new("custom_thing", "x").with("name", "x"))
    }

    #[test]
    fn finds_and_prunes_witness() {
        let kb = zodiac_kb::azure_kb();
        let check = parse_check(
            "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => r1.location == r2.location",
        )
        .unwrap();
        let case = find_positive(&check, &[sample()], &kb, 100).expect("witness exists");
        // Keeps vm + nic + subnet + vnet + rg; drops SA and the custom type.
        assert_eq!(case.program.len(), 5);
        assert!(case
            .program
            .find(&ResourceId::new("azurerm_storage_account", "sa"))
            .is_none());
        assert!(case
            .program
            .find(&ResourceId::new("custom_thing", "x"))
            .is_none());
        assert_eq!(case.stats.orig_attended, 6);
        assert_eq!(case.stats.pruned_attended, 5);
        assert_eq!(case.stats.orig_unattended, 1);
        assert_eq!(case.stats.pruned_unattended, 0);
        assert_eq!(
            case.witness.get(&Symbol::intern("r1")),
            Some(&ResourceId::new("azurerm_linux_virtual_machine", "vm"))
        );
    }

    #[test]
    fn no_witness_returns_none() {
        let kb = zodiac_kb::azure_kb();
        let check =
            parse_check("let r:GW in r.sku == 'Basic' => r.active_active == false").unwrap();
        assert!(find_positive(&check, &[sample()], &kb, 100).is_none());
    }

    #[test]
    fn pruned_program_still_witnesses() {
        let kb = zodiac_kb::azure_kb();
        let check = parse_check(
            "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => r1.location == r2.location",
        )
        .unwrap();
        let case = find_positive(&check, &[sample()], &kb, 100).unwrap();
        let graph = ResourceGraph::build(case.program.clone());
        let ctx = EvalContext {
            graph: &graph,
            kb: Some(&kb),
        };
        let witnesses = zodiac_spec::instances(&check, ctx)
            .into_iter()
            .filter(|i| i.is_witness())
            .count();
        assert_eq!(witnesses, 1);
    }

    /// A witnessing VM (`vm{tag}`) whose ancestor chain holds `depth - 1` of
    /// nic → subnet → vnet → rg, plus an unrelated storage account.
    fn chain(tag: usize, depth: usize) -> Program {
        let links: [(&str, &str, &str); 4] = [
            ("azurerm_network_interface", "n", "subnet_id"),
            ("azurerm_subnet", "s", "virtual_network_name"),
            ("azurerm_virtual_network", "v", "resource_group_name"),
            ("azurerm_resource_group", "rg", ""),
        ];
        let mut p = Program::new()
            .with(Resource::new("azurerm_storage_account", format!("sa{tag}")).with("name", "sa"));
        let mut vm = Resource::new("azurerm_linux_virtual_machine", format!("vm{tag}"))
            .with("location", "eastus")
            .with("size", "B1");
        if depth > 1 {
            vm = vm.with(
                "network_interface_ids",
                Value::List(vec![Value::r(links[0].0, links[0].1, "id")]),
            );
        }
        p.add(vm).unwrap();
        for (i, &(rtype, name, ref_attr)) in links.iter().enumerate().take(depth - 1) {
            let mut r = Resource::new(rtype, name).with("name", name);
            if i + 2 < depth {
                let (next_type, next_name, _) = links[i + 1];
                r = r.with(ref_attr, Value::r(next_type, next_name, "name"));
            }
            p.add(r).unwrap();
        }
        p
    }

    fn sized_check() -> Check {
        parse_check("let r:VM in r.location == 'eastus' => r.size == 'B1'").unwrap()
    }

    /// The search as it ran before size-first selection: prune the first
    /// witness of every program, keep a strictly smaller case, stop at
    /// `bindings + 2`.
    fn prune_every_witness(
        check: &Check,
        corpus: &[Program],
        kb: &KnowledgeBase,
    ) -> Option<PositiveCase> {
        let mut best: Option<PositiveCase> = None;
        for program in corpus {
            let graph = ResourceGraph::build(program.clone());
            let ctx = EvalContext {
                graph: &graph,
                kb: Some(kb),
            };
            let Some(w) = zodiac_spec::instances(check, ctx)
                .into_iter()
                .find(|i| i.is_witness())
            else {
                continue;
            };
            let case = prune(&graph, &w.binding, kb);
            if best
                .as_ref()
                .is_none_or(|b| case.program.len() < b.program.len())
            {
                let minimal = case.program.len();
                best = Some(case);
                if minimal <= check.bindings.len() + 2 {
                    break;
                }
            }
        }
        best
    }

    /// The witnessing VM's name and the case's size, checked against the
    /// prune-every-witness search.
    fn search(corpus: &[Program]) -> (String, usize) {
        let kb = zodiac_kb::azure_kb();
        let check = sized_check();
        let got = find_positive_indexed(&check, &CorpusIndex::build(corpus), &kb, 100)
            .expect("a witness exists");
        let want = prune_every_witness(&check, corpus, &kb).expect("a witness exists");
        assert_eq!(got.program, want.program);
        assert_eq!(got.witness, want.witness);
        assert_eq!(got.stats, want.stats);
        let vm = &got.witness[&Symbol::intern("r")];
        (vm.name.clone(), got.program.len())
    }

    #[test]
    fn pruned_length_is_the_closure_size() {
        let kb = zodiac_kb::azure_kb();
        let vm_nic = parse_check(
            "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => r1.location == r2.location",
        )
        .unwrap();
        let cases = (1..=5)
            .map(|depth| (sized_check(), chain(depth, depth)))
            .chain([(vm_nic, sample())]);
        for (check, program) in cases {
            let graph = ResourceGraph::build(program);
            let ctx = EvalContext {
                graph: &graph,
                kb: Some(&kb),
            };
            let w = first_witness(&check, ctx).expect("a witness exists");
            let size = closure(&graph, &w.binding).len();
            assert_eq!(prune(&graph, &w.binding, &kb).program.len(), size);
            assert!(size < graph.len(), "the storage account is pruned");
        }
    }

    #[test]
    fn strictly_smaller_case_wins_and_first_equal_case_stays() {
        // Sizes 5, 4, 4, 5: the first size-4 case wins.
        let corpus = [chain(0, 5), chain(1, 4), chain(2, 4), chain(3, 5)];
        assert_eq!(search(&corpus), ("vm1".to_string(), 4));
    }

    #[test]
    fn small_enough_case_stops_the_search() {
        // One binding: a case of 1 + 2 resources ends the scan, so the
        // smaller case after it is never reached.
        let corpus = [chain(0, 5), chain(1, 3), chain(2, 1)];
        assert_eq!(search(&corpus), ("vm1".to_string(), 3));
        // Without the early exit candidate, the strictly smaller one wins.
        let corpus = [chain(0, 5), chain(1, 4), chain(2, 1)];
        assert_eq!(search(&corpus), ("vm2".to_string(), 1));
    }
}
