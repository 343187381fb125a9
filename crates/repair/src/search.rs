//! The repair search: the mutation encoding of `zodiac_validation::mutate`
//! run in reverse.
//!
//! Mutation asks the solver for the cheapest assignment violating one
//! target check while conforming to the rest; repair asks for the cheapest
//! assignment satisfying **every** check at once. Both share the grounding
//! core in [`zodiac_validation::ground`]: symbolic attributes over
//! KB-derived domains, weight-1 prefer-original softs (so branch-and-bound
//! minimises the edit count), and a [`Grounder`] folding check instances
//! into constraints.
//!
//! The mutable set is the *coupled closure* of the violation witnesses:
//! resources bound in violating instances, plus — transitively — any
//! resource a cond-holding instance of any check binds together with one.
//! Without the closure, fixes that ripple through conforming instances are
//! spuriously UNSAT: re-ranging a vnet to escape a peering overlap moves
//! the containment target of every one of its subnets.
//!
//! Re-solves are seeded incrementally: a relaxed *stage-A* problem (only
//! the violated checks hard) is solved first and its model — when it
//! happens to satisfy the full problem too — seeds the main solve with a
//! feasible penalty bound through [`Problem::seed_bound`]. Rejected
//! candidates add a blocking constraint and re-solve under the same
//! seeding; seeding is pure pruning, so outcomes match a cold search
//! exactly (the PR 7 machinery, pointed the other way).

use std::collections::{BTreeMap, BTreeSet};
use zodiac_cloud::DeployOracle;
use zodiac_graph::ResourceGraph;
use zodiac_kb::KnowledgeBase;
use zodiac_model::{Program, Resource, ResourceId, Symbol, Value};
use zodiac_obs::Obs;
use zodiac_solver::{solve, solve_with_bound, Constraint, Problem, Term, VarId};
use zodiac_spec::{Check, CmpOp, EvalContext, Expr, Instance, Val};
use zodiac_validation::ground::{self, Grounder, SymbolicAttr};

use crate::{
    repair_fingerprint, verify_candidate, RepairConfig, RepairEdit, RepairOutcome, RepairReport,
    RepairStats,
};

/// Cap on containment-derived candidate subnets per endpoint (the solver
/// needs alternatives when sibling-overlap constraints exclude the first).
const MAX_SUBNET_CANDIDATES: usize = 8;

pub(crate) fn run<D: DeployOracle + ?Sized>(
    program: &Program,
    checks: &[Check],
    kb: &KnowledgeBase,
    oracle: &D,
    cfg: &RepairConfig,
    obs: &Obs,
) -> RepairReport {
    let fp = repair_fingerprint(program, checks);
    let graph = ResourceGraph::build(program.clone());
    let ctx = EvalContext {
        graph: &graph,
        kb: Some(kb),
    };

    // ---- what is broken --------------------------------------------------
    let mut violated: Vec<Check> = Vec::new();
    let mut violating: Vec<(&Check, Instance)> = Vec::new();
    for check in checks {
        let before = violating.len();
        for instance in zodiac_spec::violations(check, ctx) {
            violating.push((check, instance));
        }
        if violating.len() > before {
            violated.push(check.clone());
        }
    }
    let violation_count = violating.len();
    let mut report = RepairReport {
        fingerprint: fp,
        violated: violated.clone(),
        violations: violation_count,
        outcome: RepairOutcome::Clean,
        attempts: Vec::new(),
        stats: RepairStats::default(),
    };
    if violated.is_empty() {
        return report;
    }

    // ---- symbolic attributes over the violation witnesses ----------------
    // Resources bound in some violating instance seed the mutable set (any
    // repair must change how at least one violating instance evaluates).
    let mut witnesses: BTreeSet<ResourceId> = BTreeSet::new();
    for (_, instance) in &violating {
        for &node in instance.binding.values() {
            witnesses.insert(graph.resource(node).id());
        }
    }
    // A fix on a witness can force coupled *conforming* instances to move
    // with it — escape a peering overlap by re-ranging a vnet and its
    // subnets must follow into the new range — so the encoding closes over
    // check-coupled resources: every cond-holding instance sharing a
    // resource with the witness set contributes its bound resources and
    // its check's attributes as additional (prefer-original) fix levers.
    let mut bound_sets: Vec<(usize, Vec<ResourceId>)> = Vec::new();
    for (index, check) in checks.iter().enumerate() {
        for instance in zodiac_spec::instances(check, ctx) {
            if instance.cond {
                bound_sets.push((
                    index,
                    instance
                        .binding
                        .values()
                        .map(|&n| graph.resource(n).id())
                        .collect(),
                ));
            }
        }
    }
    let mut coupled: BTreeSet<usize> = checks
        .iter()
        .enumerate()
        .filter(|(_, c)| violated.contains(c))
        .map(|(i, _)| i)
        .collect();
    loop {
        let mut grew = false;
        for (index, bound) in &bound_sets {
            if bound.iter().any(|id| witnesses.contains(id)) {
                for id in bound {
                    grew |= witnesses.insert(id.clone());
                }
                grew |= coupled.insert(*index);
            }
        }
        if !grew {
            break;
        }
    }
    // Attributes the violated *or coupled* checks mention are the fix
    // levers; the full set then grounds hard so a fix never breaks a
    // conforming check.
    let relevant = ground::relevant_attrs(coupled.iter().map(|&i| &checks[i]));
    let mut cross = repair_cross(&violating, &graph);
    // Propagate candidate values through the coupled conforming instances:
    // a neighbour range offered to a vnet's address space yields sub-range
    // candidates for the prefixes of its subnets, and so on transitively.
    for _ in 0..2 {
        let snapshot = cross.clone();
        for &index in &coupled {
            let check = &checks[index];
            for instance in zodiac_spec::instances(check, ctx) {
                if instance.cond {
                    collect_cross(&check.stmt, &instance, &graph, &snapshot, &mut cross);
                }
            }
        }
    }
    let removable = |path: &str| violated.iter().any(|c| check_mentions(c, path));
    let corpus = std::slice::from_ref(program);

    let mut problem = Problem::new();
    let mut vars: BTreeMap<(ResourceId, Symbol), (VarId, SymbolicAttr)> = BTreeMap::new();
    let symbolic_ids: Vec<ResourceId> = program
        .resources()
        .iter()
        .map(Resource::id)
        .filter(|id| witnesses.contains(id))
        .collect();
    for id in &symbolic_ids {
        let Some(resource) = program.find(id) else {
            continue;
        };
        for sym in ground::symbolic_attrs(resource, kb, corpus, &relevant, &cross, &removable) {
            let var = problem.add_var(sym.domain.clone());
            problem.prefer(
                Constraint::eq(Term::Var(var), Term::Const(sym.original.clone())),
                1,
            );
            vars.insert((id.clone(), sym.attr), (var, sym));
        }
    }
    if vars.is_empty() {
        report.outcome = RepairOutcome::Unrepairable {
            reason: "no mutable attributes are relevant to the violated checks".into(),
        };
        return report;
    }
    // Every violating instance must touch a symbolic resource, or the
    // encoding cannot even express fixing it.
    for (check, instance) in &violating {
        let touches = instance.binding.values().any(|&n| {
            let id = graph.resource(n).id();
            vars.keys().any(|(rid, _)| rid == &id)
        });
        if !touches {
            report.outcome = RepairOutcome::Unrepairable {
                reason: format!("a violating instance of `{check}` has no mutable attributes"),
            };
            return report;
        }
    }

    let var_ids: BTreeMap<(ResourceId, Symbol), VarId> =
        vars.iter().map(|(k, (v, _))| (k.clone(), *v)).collect();
    let grounder = Grounder::new(ctx, &var_ids);

    // ---- stage A: relaxed problem (violated checks only) -----------------
    // Its model seeds the full solve with a feasible penalty bound whenever
    // fixing the violations happens not to disturb any conforming check —
    // the common case, and the repair-side reuse of incremental solving.
    let mut stage_a = Problem::new();
    let mut by_var: Vec<&(VarId, SymbolicAttr)> = vars.values().collect();
    by_var.sort_by_key(|(var, _)| *var);
    for (var, sym) in by_var {
        let stage_var = stage_a.add_var(sym.domain.clone());
        debug_assert_eq!(*var, stage_var);
        stage_a.prefer(
            Constraint::eq(Term::Var(*var), Term::Const(sym.original.clone())),
            1,
        );
    }
    for check in &violated {
        for grounded in grounder.ground_all(check) {
            stage_a.require(grounded);
        }
    }
    let mut seeds: Vec<Vec<Value>> = Vec::new();
    match solve(&stage_a).solution() {
        Some(solution) => seeds.push(solution.assignment.clone()),
        None => {
            report.outcome = RepairOutcome::Unrepairable {
                reason: "the violated checks are unsatisfiable over the mutable attribute domains"
                    .into(),
            };
            return report;
        }
    }

    // ---- full problem: every check hard ----------------------------------
    for check in checks {
        for grounded in grounder.ground_all(check) {
            problem.require(grounded);
        }
    }

    // ---- enumerate candidates, gate each through the oracle stack --------
    for _ in 0..cfg.max_candidates {
        let outcome = match seeds.iter().find_map(|m| problem.seed_bound(m)) {
            Some(bound) => {
                report.stats.seeded += 1;
                solve_with_bound(&problem, Some(bound))
            }
            None => {
                report.stats.cold += 1;
                solve(&problem)
            }
        };
        let Some(solution) = outcome.solution() else {
            report.outcome = if report.attempts.is_empty() {
                RepairOutcome::Unrepairable {
                    reason: "the check set is unsatisfiable over the mutable attribute domains"
                        .into(),
                }
            } else {
                RepairOutcome::Exhausted
            };
            return report;
        };
        let model = solution.assignment.clone();

        let mut candidate = program.clone();
        let mut edits: Vec<RepairEdit> = Vec::new();
        for ((rid, _), (var, sym)) in &vars {
            let value = &model[*var];
            if value != &sym.original {
                edits.push(RepairEdit {
                    resource: rid.clone(),
                    attr: sym.attr,
                    from: on_resource(&sym.original, sym.wrap_list),
                    to: on_resource(value, sym.wrap_list),
                });
            }
            ground::apply_value(&mut candidate, rid, sym, value.clone());
        }
        if edits.is_empty() {
            // The grounding admitted the original assignment: evaluator and
            // encoding disagree on this program; bail rather than loop.
            report.outcome = RepairOutcome::Unrepairable {
                reason: "the solver proposed no change for a violating program".into(),
            };
            return report;
        }
        if edits.len() > cfg.max_edits {
            // The search is penalty-minimal, so the first over-budget
            // candidate proves no smaller repair exists; blocked re-solves
            // only grow.
            report.outcome = if report.attempts.is_empty() {
                RepairOutcome::Unrepairable {
                    reason: format!(
                        "minimal repair needs {} edits (budget {})",
                        edits.len(),
                        cfg.max_edits
                    ),
                }
            } else {
                RepairOutcome::Exhausted
            };
            return report;
        }

        let attempt = verify_candidate(
            program, &candidate, edits, checks, &violated, kb, oracle, obs, fp,
        );
        let accepted = attempt.accepted();
        report.attempts.push(attempt);
        if accepted {
            let edits = report
                .attempts
                .last()
                .map(|a| a.edits.clone())
                .unwrap_or_default();
            report.outcome = RepairOutcome::Accepted {
                program: candidate,
                edits,
            };
            return report;
        }
        // Exclude this exact assignment and re-solve.
        let conj: Vec<Constraint> = vars
            .values()
            .map(|(var, _)| Constraint::eq(Term::Var(*var), Term::Const(model[*var].clone())))
            .collect();
        problem.require(Constraint::Not(Box::new(Constraint::And(conj))));
    }
    report.outcome = RepairOutcome::Exhausted;
    report
}

/// The value as written on the resource: re-wraps single-element lists.
fn on_resource(v: &Value, wrap_list: bool) -> Value {
    if wrap_list && !matches!(v, Value::Null) {
        Value::List(vec![v.clone()])
    } else {
        v.clone()
    }
}

/// True when any endpoint of the check (condition or statement) reads
/// `attr` — the repair-side nullability gate: removal is a repair lever
/// only for attributes some violated check actually depends on.
fn check_mentions(check: &Check, attr: &str) -> bool {
    check
        .atoms()
        .flat_map(Expr::operands)
        .any(|v| matches!(v, Val::Endpoint { attr: a, .. } if a == attr))
}

/// Repair-specific cross values: candidate values each endpoint of a
/// violated comparison borrows from the *other* side, so the solver can
/// force equality, containment, or overlap-escape that KB-derived domains
/// alone cannot express.
fn repair_cross(
    violating: &[(&Check, Instance)],
    graph: &ResourceGraph,
) -> BTreeMap<(ResourceId, Symbol), Vec<Value>> {
    let mut out: BTreeMap<(ResourceId, Symbol), Vec<Value>> = BTreeMap::new();
    let no_extra = BTreeMap::new();
    for (check, instance) in violating {
        collect_cross(&check.stmt, instance, graph, &no_extra, &mut out);
    }
    out
}

fn collect_cross(
    expr: &Expr,
    instance: &Instance,
    graph: &ResourceGraph,
    extra: &BTreeMap<(ResourceId, Symbol), Vec<Value>>,
    out: &mut BTreeMap<(ResourceId, Symbol), Vec<Value>>,
) {
    match expr {
        Expr::CoConn { first, second } | Expr::CoPath { first, second } => {
            collect_cross(first, instance, graph, extra, out);
            collect_cross(second, instance, graph, extra, out);
        }
        Expr::Cmp {
            op,
            lhs: Val::Endpoint { var: lv, attr: la },
            rhs: Val::Endpoint { var: rv, attr: ra },
            negated,
        } => {
            // Each endpoint resolves to its current values plus any
            // candidate values earlier rounds already offered it, so
            // candidates propagate across coupled instances.
            let resolve = |var: &Symbol, attr: &Symbol| -> (Option<ResourceId>, Vec<Value>) {
                let Some(&node) = instance.binding.get(var) else {
                    return (None, Vec::new());
                };
                let resource = graph.resource(node);
                let mut vals: Vec<Value> = resource.get_all(attr).into_iter().cloned().collect();
                if let Some(candidates) = extra.get(&(resource.id(), *attr)) {
                    for v in candidates {
                        if !vals.contains(v) {
                            vals.push(v.clone());
                        }
                    }
                }
                (Some(resource.id()), vals)
            };
            let (l_id, l_vals) = resolve(lv, la);
            let (r_id, r_vals) = resolve(rv, ra);
            let mut push = |id: &Option<ResourceId>, attr: &Symbol, vals: Vec<Value>| {
                if let Some(id) = id {
                    let entry = out.entry((id.clone(), *attr)).or_default();
                    for v in vals {
                        if !matches!(v, Value::Null) && !entry.contains(&v) {
                            entry.push(v);
                        }
                    }
                }
            };
            // Each side always borrows the other's current values (forced
            // equality; also turns `contains` into the equal-range fix).
            push(&l_id, la, r_vals.clone());
            push(&r_id, ra, l_vals.clone());
            match (op, negated) {
                (CmpOp::Contain, false) => {
                    // lhs must contain rhs: offer rhs sub-ranges of each lhs
                    // range, at rhs's current prefix when it has one.
                    let rhs_prefix = r_vals
                        .iter()
                        .find_map(|v| v.as_str().and_then(zodiac_model::cidr::parse_opt))
                        .map(|c| c.prefix());
                    let mut extra = Vec::new();
                    for v in &l_vals {
                        let Some(container) = v.as_str().and_then(zodiac_model::cidr::parse_opt)
                        else {
                            continue;
                        };
                        let prefix = rhs_prefix
                            .unwrap_or(container.prefix())
                            .max(container.prefix());
                        for sub in container
                            .subnets(prefix)
                            .into_iter()
                            .take(MAX_SUBNET_CANDIDATES)
                        {
                            extra.push(Value::s(sub.to_string()));
                        }
                    }
                    push(&r_id, ra, extra);
                }
                (CmpOp::Overlap, true) => {
                    // The ranges must stop overlapping: offer each side the
                    // other's neighbours.
                    let neighbours = |vals: &[Value]| -> Vec<Value> {
                        let mut out = Vec::new();
                        for v in vals {
                            if let Some(c) = v.as_str().and_then(zodiac_model::cidr::parse_opt) {
                                out.push(Value::s(c.adjacent().to_string()));
                                out.push(Value::s(c.adjacent().adjacent().to_string()));
                            }
                        }
                        out
                    };
                    push(&l_id, la, neighbours(&r_vals));
                    push(&r_id, ra, neighbours(&l_vals));
                }
                _ => {}
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OracleLayer, RepairOutcome};
    use zodiac_cloud::CloudSim;
    use zodiac_spec::parse_check;

    fn kb() -> KnowledgeBase {
        zodiac_kb::azure_kb()
    }

    fn repair(program: &Program, checks: &[Check]) -> RepairReport {
        let sim = CloudSim::new_azure();
        crate::repair_program(
            program,
            checks,
            &kb(),
            &sim,
            &RepairConfig::default(),
            &Obs::null(),
        )
    }

    fn spot_check() -> Check {
        parse_check("let v:VM in v.priority == 'Spot' => v.eviction_policy != null").unwrap()
    }

    #[test]
    fn clean_program_needs_no_repair() {
        let program = crate::fixtures::network();
        let report = repair(&program, &[spot_check()]);
        assert!(matches!(report.outcome, RepairOutcome::Clean));
        assert!(report.attempts.is_empty());
    }

    #[test]
    fn repairs_spot_vm_with_single_edit() {
        let program = crate::fixtures::spot_vm_network();
        let report = repair(&program, &[spot_check()]);
        let RepairOutcome::Accepted {
            program: fixed,
            edits,
        } = &report.outcome
        else {
            panic!("expected accepted repair, got {:?}", report.outcome);
        };
        assert_eq!(edits.len(), 1, "minimal repair is one edit: {edits:?}");
        let graph = ResourceGraph::build(fixed.clone());
        let ctx = EvalContext {
            graph: &graph,
            kb: Some(&kb()),
        };
        assert!(zodiac_spec::holds(&spot_check(), ctx));
        // The accepted attempt passed all three layers.
        let attempt = report.attempts.last().unwrap();
        assert!(attempt.accepted());
        assert_eq!(
            attempt.layers.iter().map(|l| l.layer).collect::<Vec<_>>(),
            vec![
                OracleLayer::DeploySucceeds,
                OracleLayer::ChecksPass,
                OracleLayer::IntentPreserved
            ]
        );
    }

    #[test]
    fn repairs_subnet_outside_vnet_via_containment_cross() {
        let contain = parse_check(
            "let v:VPC, s:SUBNET in conn(s.virtual_network_name -> v.name) \
             => contain(v.address_space, s.address_prefixes)",
        )
        .unwrap();
        let program = crate::fixtures::with_attr(
            crate::fixtures::network(),
            "azurerm_subnet",
            "s",
            "address_prefixes",
            Value::List(vec![Value::s("10.99.0.0/24")]),
        );
        let report = repair(&program, std::slice::from_ref(&contain));
        let RepairOutcome::Accepted {
            program: fixed,
            edits,
        } = &report.outcome
        else {
            panic!("expected accepted repair, got {:?}", report.outcome);
        };
        assert_eq!(edits.len(), 1);
        let graph = ResourceGraph::build(fixed.clone());
        let ctx = EvalContext {
            graph: &graph,
            kb: Some(&kb()),
        };
        assert!(zodiac_spec::holds(&contain, ctx));
    }

    #[test]
    fn escaping_a_peering_overlap_drags_coupled_subnets_along() {
        // Two peered vnets share an address space; the only fix is to
        // re-range one vnet — which forces its subnet (bound only in a
        // *conforming* containment instance) to follow into the new range.
        // Without the coupled closure this grounding is spuriously UNSAT.
        let overlap = parse_check(
            "let r1:PEERING, r2:VPC, r3:VPC in \
             coconn(r1.remote_virtual_network_id -> r2.id, r1.virtual_network_name -> r3.name) \
             => !overlap(r2.address_space, r3.address_space)",
        )
        .unwrap();
        let contain = parse_check(
            "let v:VPC, s:SUBNET in conn(s.virtual_network_name -> v.name) \
             => contain(v.address_space, s.address_prefixes)",
        )
        .unwrap();
        let vnet = |name: &str| {
            Resource::new("azurerm_virtual_network", name)
                .with("name", format!("net-{name}"))
                .with("location", "eastus")
                .with(
                    "resource_group_name",
                    Value::r("azurerm_resource_group", "rg", "name"),
                )
                .with("address_space", Value::List(vec![Value::s("10.1.0.0/16")]))
        };
        let subnet = |name: &str, vnet: &str| {
            Resource::new("azurerm_subnet", name)
                .with("name", format!("snet-{name}"))
                .with(
                    "resource_group_name",
                    Value::r("azurerm_resource_group", "rg", "name"),
                )
                .with(
                    "virtual_network_name",
                    Value::r("azurerm_virtual_network", vnet, "name"),
                )
                .with(
                    "address_prefixes",
                    Value::List(vec![Value::s("10.1.1.0/24")]),
                )
        };
        let program = Program::new()
            .with(
                Resource::new("azurerm_resource_group", "rg")
                    .with("name", "rg1")
                    .with("location", "eastus"),
            )
            .with(vnet("vnet1"))
            .with(subnet("s1", "vnet1"))
            .with(vnet("vnet2"))
            .with(subnet("s2", "vnet2"))
            .with(
                Resource::new("azurerm_virtual_network_peering", "peer")
                    .with("name", "peer1")
                    .with(
                        "resource_group_name",
                        Value::r("azurerm_resource_group", "rg", "name"),
                    )
                    .with(
                        "virtual_network_name",
                        Value::r("azurerm_virtual_network", "vnet1", "name"),
                    )
                    .with(
                        "remote_virtual_network_id",
                        Value::r("azurerm_virtual_network", "vnet2", "id"),
                    ),
            );
        let checks = [overlap, contain];
        let report = repair(&program, &checks);
        let RepairOutcome::Accepted {
            program: fixed,
            edits,
        } = &report.outcome
        else {
            panic!("expected accepted repair, got {:?}", report.outcome);
        };
        assert_eq!(edits.len(), 2, "one vnet and its subnet move: {edits:?}");
        let graph = ResourceGraph::build(fixed.clone());
        let ctx = EvalContext {
            graph: &graph,
            kb: Some(&kb()),
        };
        for check in &checks {
            assert!(zodiac_spec::holds(check, ctx), "{check} must hold");
        }
    }

    #[test]
    fn unsatisfiable_domains_report_unrepairable() {
        // Degree constraints ground to constants (topology is fixed under
        // repair), so a violated degree check is unrepairable by design.
        let degree = parse_check("let v:VM in v.name != null => outdegree(v, NIC) >= 2").unwrap();
        let program = crate::fixtures::spot_vm_network();
        let report = repair(&program, &[degree, spot_check()]);
        assert!(
            matches!(report.outcome, RepairOutcome::Unrepairable { .. }),
            "got {:?}",
            report.outcome
        );
    }

    #[test]
    fn repair_is_deterministic() {
        let program = crate::fixtures::spot_vm_network();
        let a = repair(&program, &[spot_check()]);
        let b = repair(&program, &[spot_check()]);
        let (RepairOutcome::Accepted { edits: ea, .. }, RepairOutcome::Accepted { edits: eb, .. }) =
            (&a.outcome, &b.outcome)
        else {
            panic!("expected accepted repairs");
        };
        assert_eq!(ea, eb);
    }

    #[test]
    fn stage_a_seeds_the_full_solve() {
        let program = crate::fixtures::spot_vm_network();
        let report = repair(&program, &[spot_check()]);
        assert!(matches!(report.outcome, RepairOutcome::Accepted { .. }));
        assert_eq!(report.stats.seeded, 1, "stage-A model should seed");
        assert_eq!(report.stats.cold, 0);
    }
}
