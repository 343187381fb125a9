//! Solver-aided negative test generation (§4.1).
//!
//! Given a positive test case, the mutation engine produces a program that
//! violates the target check while conforming to every check in `R_v`
//! (hard) and disturbing checks in `R_c` as little as possible (soft):
//!
//! 1. a **structural plan** decides topology edits — for aggregation
//!    statements, *virtual resources* are cloned from the corpus and wired
//!    to the witness (the paper's `NIC.v0`, `VPC.v1`, `SUBNET.v2`);
//! 2. eligible attributes of witness and virtual resources become **solver
//!    variables** whose domains come from the KB (enum members, locations,
//!    adjacent CIDR ranges, removability of optional attributes);
//! 3. every known check is **grounded** over the mutated graph's bindings
//!    into solver constraints — the target's condition must hold and its
//!    statement must fail on the witness binding, `R_v` instances are hard,
//!    `R_c` instances are weighted soft constraints (O2);
//! 4. change-minimisation soft constraints prefer original values, keeping
//!    the negative case minimally different (Table 5, bottom).

use crate::ground::{self, Grounder, SymbolicAttr};
use crate::mdc::PositiveCase;
use std::collections::BTreeMap;
use zodiac_graph::ResourceGraph;
use zodiac_kb::KnowledgeBase;
use zodiac_model::{AttrPath, Program, Resource, ResourceId, Symbol, Value};
use zodiac_solver::{solve, Constraint, Problem, Term, VarId};
use zodiac_spec::{Check, CmpOp, EvalContext, Expr, Val};

/// Mutation configuration, including the Table 5 ablation switches.
#[derive(Debug, Clone)]
pub struct MutationConfig {
    /// Encode `R_v` as hard and `R_c` as soft constraints. Disabling tests
    /// only the target check ("ignoring non-target checks", Table 5 top).
    pub consider_other_checks: bool,
    /// Add change-minimisation objectives ("minimizing changes", Table 5
    /// bottom). When disabled, mutated values are tried *first*.
    pub minimize_changes: bool,
    /// Weight of one soft `R_c` instance (relative to weight-1 value
    /// changes).
    pub soft_check_weight: u64,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            consider_other_checks: true,
            minimize_changes: true,
            soft_check_weight: 100,
        }
    }
}

/// A generated negative test case.
#[derive(Debug, Clone)]
pub struct NegativeCase {
    /// The mutated program.
    pub program: Program,
    /// Number of attribute values that differ from the positive case.
    pub changed_attrs: usize,
    /// Number of virtual resources added.
    pub added_resources: usize,
    /// Indices into the `soft` check list that the case violates (`R_n`
    /// minus the target).
    pub violated_soft: Vec<usize>,
    /// Indices into the `hard` check list that the case violates (non-empty
    /// only when `consider_other_checks` is off).
    pub violated_hard: Vec<usize>,
}

/// Result of negative-test generation.
#[derive(Debug, Clone)]
pub enum MutationResult {
    /// A negative case was produced.
    Negative(Box<NegativeCase>),
    /// No mutation can violate the target without breaking `R_v` — the
    /// scheduler treats this as evidence against the candidate.
    Unsat,
    /// The statement shape is outside the mutation engine's repertoire.
    NotApplicable,
}

/// Generates a negative test case for `target` from a positive case.
pub fn negative_test(
    target: &Check,
    positive: &PositiveCase,
    hard: &[Check],
    soft: &[(Check, u64)],
    kb: &KnowledgeBase,
    corpus: &[Program],
    cfg: &MutationConfig,
) -> MutationResult {
    // Try structural variants (reuse dependencies first, then fresh clones
    // of the dependencies — the paper's optional virtual resources) and keep
    // the least-disturbing SAT result.
    let mut best: Option<NegativeCase> = None;
    let mut saw_not_applicable = false;
    for fresh_deps in [false, true] {
        match negative_test_variant(target, positive, hard, soft, kb, corpus, cfg, fresh_deps) {
            MutationResult::Negative(neg) => {
                let better = best.as_ref().is_none_or(|b| {
                    (
                        neg.violated_hard.len(),
                        neg.violated_soft.len(),
                        neg.changed_attrs,
                    ) < (
                        b.violated_hard.len(),
                        b.violated_soft.len(),
                        b.changed_attrs,
                    )
                });
                let zero = neg.violated_soft.is_empty() && neg.violated_hard.is_empty();
                if better {
                    best = Some(*neg);
                }
                if zero {
                    break;
                }
            }
            MutationResult::NotApplicable => {
                saw_not_applicable = true;
                break;
            }
            MutationResult::Unsat => {}
        }
    }
    match best {
        Some(neg) => MutationResult::Negative(Box::new(neg)),
        None if saw_not_applicable => MutationResult::NotApplicable,
        None => MutationResult::Unsat,
    }
}

#[allow(clippy::too_many_arguments)]
fn negative_test_variant(
    target: &Check,
    positive: &PositiveCase,
    hard: &[Check],
    soft: &[(Check, u64)],
    kb: &KnowledgeBase,
    corpus: &[Program],
    cfg: &MutationConfig,
    fresh_deps: bool,
) -> MutationResult {
    // ---- structural plan ------------------------------------------------
    let mut program = positive.program.clone();
    let witness_ids: BTreeMap<Symbol, ResourceId> = positive.witness.clone();
    let mut added = 0usize;
    match plan_structure(target, &mut program, &witness_ids, kb, corpus, fresh_deps) {
        PlanOutcome::Ok { added_resources } => added = added_resources,
        PlanOutcome::AttributesOnly => {}
        PlanOutcome::Impossible => return MutationResult::Unsat,
        PlanOutcome::NotApplicable => return MutationResult::NotApplicable,
    }

    let graph = ResourceGraph::build(program.clone());

    // ---- symbolic attributes --------------------------------------------
    let mut problem = Problem::new();
    // Ordered so the apply loop below is deterministic: attribute paths can
    // overlap (a whole `security_rule` block variable plus per-field
    // `security_rule.*` variables), and a parent path must be written before
    // its children or the children's values are clobbered.
    let mut vars: BTreeMap<(ResourceId, Symbol), (VarId, SymbolicAttr)> = BTreeMap::new();
    let symbolic_resources: Vec<ResourceId> = program
        .resources()
        .iter()
        .map(Resource::id)
        .filter(|id| witness_ids.values().any(|w| w == id) || id.name.contains("-zv"))
        .collect();
    // Only attributes that some known check mentions can matter to the
    // solver; restricting the variable set keeps search tractable.
    let relevant = ground::relevant_attrs(
        std::iter::once(target)
            .chain(hard)
            .chain(soft.iter().map(|(c, _)| c)),
    );
    // Cross values let the solver *force equality* between plain string
    // attributes (needed to violate `r2.os_disk.name != r3.name`-style
    // statements): each statement endpoint's current value joins the other
    // endpoint's domain.
    let cross = cross_values(target, &program, &witness_ids);
    // Non-enum optional attributes are only removable when the target
    // statement mentions them — removal elsewhere can't affect the target.
    let removable = |path: &str| stmt_mentions(target, path);
    for id in &symbolic_resources {
        let Some(resource) = program.find(id) else {
            continue; // Ids were just collected from this program.
        };
        for sym in ground::symbolic_attrs(resource, kb, corpus, &relevant, &cross, &removable) {
            let mut domain = sym.domain.clone();
            if !cfg.minimize_changes {
                // Ablation: mutated values are tried before the original.
                domain.reverse();
            }
            let var = problem.add_var(domain);
            if cfg.minimize_changes {
                problem.prefer(
                    Constraint::eq(Term::Var(var), Term::Const(sym.original.clone())),
                    1,
                );
            }
            vars.insert((id.clone(), sym.attr), (var, sym));
        }
    }

    // ---- ground the target on the witness binding ------------------------
    let ctx = EvalContext {
        graph: &graph,
        kb: Some(kb),
    };
    let witness_nodes: BTreeMap<Symbol, usize> = witness_ids
        .iter()
        .filter_map(|(&v, id)| graph.node(id).map(|n| (v, n)))
        .collect();
    if witness_nodes.len() != witness_ids.len() {
        return MutationResult::NotApplicable;
    }
    let var_ids: BTreeMap<(ResourceId, Symbol), VarId> =
        vars.iter().map(|(k, (v, _))| (k.clone(), *v)).collect();
    let grounder = Grounder::new(ctx, &var_ids);
    let cond = grounder.ground(&target.cond, &witness_nodes);
    let stmt = grounder.ground(&target.stmt, &witness_nodes);
    problem.require(cond);
    problem.require(Constraint::Not(Box::new(stmt)));

    // ---- ground R_v (hard) and R_c (soft) --------------------------------
    if cfg.consider_other_checks {
        for check in hard {
            for grounded in grounder.ground_all(check) {
                problem.require(grounded);
            }
        }
        for (check, weight) in soft {
            for grounded in grounder.ground_all(check) {
                problem.prefer(grounded, cfg.soft_check_weight.saturating_add(*weight));
            }
        }
    }

    // ---- solve and apply --------------------------------------------------
    let outcome = solve(&problem);
    let Some(solution) = outcome.solution() else {
        return MutationResult::Unsat;
    };
    let mut changed = 0usize;
    for ((rid, _attr), (var, sym)) in &vars {
        let value = &solution.assignment[*var];
        if value != &sym.original {
            changed += 1;
        }
        ground::apply_value(&mut program, rid, sym, value.clone());
    }
    changed += added; // Structural additions count as changes too.

    // ---- measure what the case actually violates --------------------------
    let final_graph = ResourceGraph::build(program.clone());
    let final_ctx = EvalContext {
        graph: &final_graph,
        kb: Some(kb),
    };
    let violated_soft: Vec<usize> = soft
        .iter()
        .enumerate()
        .filter(|(_, (c, _))| !zodiac_spec::holds(c, final_ctx))
        .map(|(i, _)| i)
        .collect();
    let violated_hard: Vec<usize> = hard
        .iter()
        .enumerate()
        .filter(|(_, c)| !zodiac_spec::holds(c, final_ctx))
        .map(|(i, _)| i)
        .collect();
    // Sanity: the target must actually be violated now.
    if zodiac_spec::holds(target, final_ctx) {
        return MutationResult::Unsat;
    }

    MutationResult::Negative(Box::new(NegativeCase {
        program,
        changed_attrs: changed,
        added_resources: added,
        violated_soft,
        violated_hard,
    }))
}

// ---------------------------------------------------------------------------
// Structural planning
// ---------------------------------------------------------------------------

enum PlanOutcome {
    Ok { added_resources: usize },
    AttributesOnly,
    Impossible,
    NotApplicable,
}

/// Decides and applies topology edits needed to violate aggregation
/// statements; attribute-only statements need no structural change.
fn plan_structure(
    target: &Check,
    program: &mut Program,
    witness: &BTreeMap<Symbol, ResourceId>,
    kb: &KnowledgeBase,
    corpus: &[Program],
    fresh_deps: bool,
) -> PlanOutcome {
    let Expr::Cmp {
        op,
        lhs,
        rhs,
        negated,
    } = &target.stmt
    else {
        return PlanOutcome::NotApplicable;
    };
    let (agg, bound) = match (lhs, rhs) {
        (Val::InDegree { var, tau }, Val::Lit(Value::Int(k)))
        | (Val::OutDegree { var, tau }, Val::Lit(Value::Int(k))) => {
            ((var, tau, matches!(lhs, Val::InDegree { .. })), *k)
        }
        (Val::Length(inner), Val::Lit(Value::Int(k))) => {
            return plan_length(inner, *k, *op, *negated, program, witness);
        }
        _ => return PlanOutcome::AttributesOnly,
    };
    let (var, tau, inbound) = agg;
    let Some(anchor_id) = witness.get(var) else {
        return PlanOutcome::Impossible;
    };

    // How many τ-edges must exist to violate `deg op bound`?
    let graph = ResourceGraph::build(program.clone());
    let Some(anchor) = graph.node(anchor_id) else {
        return PlanOutcome::Impossible;
    };
    let current = if inbound {
        graph.distinct_in_neighbors(anchor, tau.type_name(), tau.negated())
    } else {
        graph.distinct_out_neighbors(anchor, tau.type_name(), tau.negated())
    } as i64;
    let needed = match (op, negated) {
        (CmpOp::Le, false) => bound + 1,
        (CmpOp::Lt, false) => bound,
        (CmpOp::Eq, false) => {
            if bound == 0 {
                1
            } else {
                bound + 1
            }
        }
        // `deg >= k` or negated forms: violating means *removing* edges,
        // which breaks required endpoints; out of repertoire.
        _ => return PlanOutcome::NotApplicable,
    };
    let to_add = needed - current;
    if to_add <= 0 {
        // Already violated structurally (should not happen for a witness).
        return PlanOutcome::Ok { added_resources: 0 };
    }
    if to_add > 12 {
        return PlanOutcome::Impossible; // Unreasonably large mutation.
    }

    // Pick the concrete peer type to instantiate.
    let peer_type = if tau.negated() {
        match pick_other_type(kb, &anchor_id.rtype, tau.type_name(), inbound) {
            Some(t) => t,
            None => return PlanOutcome::Impossible,
        }
    } else {
        tau.type_name().to_string()
    };

    for i in 0..to_add {
        let suffix = format!("zv{i}");
        let ok = if inbound {
            add_referencing_clone(
                program, anchor_id, &peer_type, &suffix, kb, corpus, fresh_deps,
            )
        } else {
            add_referenced_clone(program, anchor_id, &peer_type, &suffix, kb, corpus)
        };
        if !ok {
            return PlanOutcome::Impossible;
        }
    }
    PlanOutcome::Ok {
        added_resources: to_add as usize,
    }
}

/// Violating `length(r.attr) >= k` truncates the list below `k`.
fn plan_length(
    inner: &Val,
    k: i64,
    op: CmpOp,
    negated: bool,
    program: &mut Program,
    witness: &BTreeMap<Symbol, ResourceId>,
) -> PlanOutcome {
    if op != CmpOp::Ge || negated {
        return PlanOutcome::NotApplicable;
    }
    let Val::Endpoint { var, attr } = inner else {
        return PlanOutcome::NotApplicable;
    };
    let Some(rid) = witness.get(var) else {
        return PlanOutcome::Impossible;
    };
    let Some(resource) = program.find_mut(rid) else {
        return PlanOutcome::Impossible;
    };
    let Some(Value::List(items)) = resource.attrs.get_mut(attr.as_str()) else {
        return PlanOutcome::Impossible;
    };
    let keep = (k - 1).max(1) as usize;
    if items.len() <= keep {
        return PlanOutcome::Impossible;
    }
    items.truncate(keep);
    PlanOutcome::Ok { added_resources: 0 }
}

/// The resource types [`plan_structure`] can *add* to a positive case when
/// violating the target's statement — the peer type of a degree bound, or
/// the concrete type picked for a negated selector. Wave planning seeds the
/// target's type-reachability closure with these, so relevance judgments
/// cover every resource a mutant can contain (kept next to the planner: a
/// new structural edit must extend both).
pub(crate) fn structural_peer_types(target: &Check, kb: &KnowledgeBase) -> Vec<String> {
    let Expr::Cmp { lhs, rhs, .. } = &target.stmt else {
        return Vec::new();
    };
    let (var, tau, inbound) = match (lhs, rhs) {
        (Val::InDegree { var, tau }, Val::Lit(Value::Int(_))) => (var, tau, true),
        (Val::OutDegree { var, tau }, Val::Lit(Value::Int(_))) => (var, tau, false),
        _ => return Vec::new(),
    };
    if !tau.negated() {
        return vec![tau.type_name().to_string()];
    }
    let Some(anchor) = target.bindings.iter().find(|b| b.var == *var) else {
        return Vec::new();
    };
    pick_other_type(kb, anchor.rtype.as_str(), tau.type_name(), inbound)
        .into_iter()
        .collect()
}

/// A KB type (≠ `excluded`) that can reference `target_type` — used to
/// violate exclusivity checks (`indegree(r, !GW) == 0`).
fn pick_other_type(
    kb: &KnowledgeBase,
    target_type: &str,
    excluded: &str,
    inbound: bool,
) -> Option<String> {
    if !inbound {
        return None;
    }
    // Prefer a NIC when the target is a subnet (the common exclusivity
    // probe), otherwise the first schema type with a matching endpoint.
    let mut candidates: Vec<&str> = kb
        .types()
        .filter(|t| *t != excluded)
        .filter(|t| {
            kb.resource(t)
                .map(|r| r.endpoints.values().any(|e| e.target_type == target_type))
                .unwrap_or(false)
        })
        .collect();
    candidates.sort_by_key(|t| {
        if *t == "azurerm_network_interface" {
            0
        } else {
            1
        }
    });
    candidates.first().map(|t| t.to_string())
}

/// Adds a clone of `peer_type` that references `anchor` (raising its
/// indegree). Returns false if no donor or endpoint exists.
fn add_referencing_clone(
    program: &mut Program,
    anchor: &ResourceId,
    peer_type: &str,
    suffix: &str,
    kb: &KnowledgeBase,
    corpus: &[Program],
    fresh_deps: bool,
) -> bool {
    let Some(schema) = kb.resource(peer_type) else {
        return false;
    };
    let Some(endpoint) = schema
        .endpoints
        .values()
        .find(|e| e.target_type == anchor.rtype)
    else {
        return false;
    };
    let Some(mut clone) = find_donor(program, corpus, peer_type, suffix) else {
        return false;
    };
    let ep_path: AttrPath = match endpoint.in_endpoint.parse() {
        Ok(p) => p,
        Err(_) => return false,
    };
    let reference = Value::Ref(zodiac_model::Reference::new(
        anchor.rtype.clone(),
        anchor.name.clone(),
        endpoint.target_attr.clone(),
    ));
    let value = if endpoint.many {
        Value::List(vec![reference])
    } else {
        reference
    };
    if !clone.set(&ep_path, value) {
        return false;
    }
    if fresh_deps {
        fresh_import(program, &mut clone, corpus, suffix, &ep_path);
    }
    retarget_or_import(program, &mut clone, corpus, suffix);
    program.add(clone).is_ok()
}

/// Replaces the clone's non-anchor references with *fresh* clones of their
/// targets, so the virtual resource does not share dependencies with the
/// witness (the variant that separates otherwise co-violated checks).
fn fresh_import(
    program: &mut Program,
    clone: &mut Resource,
    corpus: &[Program],
    suffix: &str,
    anchor_path: &AttrPath,
) {
    for (path, reference) in clone.references() {
        if &path == anchor_path {
            continue;
        }
        let Some(mut dep) = find_donor(program, corpus, &reference.rtype, suffix) else {
            continue;
        };
        // The fresh dependency's own references reuse existing resources.
        let dep_refs = dep.references();
        for (dpath, dref) in dep_refs {
            if let Some(existing) = program.of_type(&dref.rtype).next() {
                let new_ref = Value::Ref(zodiac_model::Reference::new(
                    existing.rtype.clone(),
                    existing.name.clone(),
                    dref.attr.clone(),
                ));
                dep.set(&dpath, new_ref);
            }
        }
        let dep_id = dep.id();
        if program.add(dep).is_ok() {
            let new_ref = Value::Ref(zodiac_model::Reference::new(
                dep_id.rtype,
                dep_id.name,
                reference.attr.clone(),
            ));
            clone.set(&path, new_ref);
        }
    }
}

/// Adds a clone of `peer_type` referenced *by* `anchor` (raising the
/// anchor's outdegree) via the anchor's many-endpoint.
fn add_referenced_clone(
    program: &mut Program,
    anchor: &ResourceId,
    peer_type: &str,
    suffix: &str,
    kb: &KnowledgeBase,
    corpus: &[Program],
) -> bool {
    let Some(schema) = kb.resource(&anchor.rtype) else {
        return false;
    };
    let Some(endpoint) = schema
        .endpoints
        .values()
        .find(|e| e.target_type == peer_type && e.many)
    else {
        return false;
    };
    let Some(mut clone) = find_donor(program, corpus, peer_type, suffix) else {
        return false;
    };
    retarget_or_import(program, &mut clone, corpus, suffix);
    let clone_id = clone.id();
    if program.add(clone).is_err() {
        return false;
    }
    let target_attr = endpoint.target_attr.clone();
    let ep_path: AttrPath = match endpoint.in_endpoint.parse() {
        Ok(p) => p,
        Err(_) => return false,
    };
    let Some(anchor_res) = program.find_mut(anchor) else {
        return false;
    };
    let reference = Value::Ref(zodiac_model::Reference::new(
        clone_id.rtype,
        clone_id.name,
        target_attr,
    ));
    match anchor_res.get(&endpoint.in_endpoint).cloned() {
        Some(Value::List(mut items)) => {
            items.push(reference);
            anchor_res.set(&ep_path, Value::List(items))
        }
        _ => anchor_res.set(&ep_path, Value::List(vec![reference])),
    }
}

/// Finds a donor resource of `rtype` (program first, then corpus), cloned
/// with a fresh identity.
fn find_donor(
    program: &Program,
    corpus: &[Program],
    rtype: &str,
    suffix: &str,
) -> Option<Resource> {
    let donor = program
        .of_type(rtype)
        .next()
        .cloned()
        .or_else(|| corpus.iter().flat_map(|p| p.of_type(rtype)).next().cloned())?;
    let mut clone = donor;
    clone.name = format!("{}-{suffix}", clone.name);
    if let Some(Value::Str(n)) = clone.attrs.get("name").cloned() {
        clone
            .attrs
            .insert("name".into(), Value::s(format!("{n}-{suffix}")));
    }
    Some(clone)
}

/// Rewires the clone's remaining references to resources present in the
/// program, importing missing dependencies from the corpus when needed.
fn retarget_or_import(
    program: &mut Program,
    clone: &mut Resource,
    corpus: &[Program],
    suffix: &str,
) {
    for (path, reference) in clone.references() {
        let exists = program
            .find(&ResourceId::new(&reference.rtype, &reference.name))
            .is_some();
        if exists {
            continue;
        }
        // Retarget to any same-type resource already present.
        if let Some(existing) = program.of_type(&reference.rtype).next() {
            let new_ref = Value::Ref(zodiac_model::Reference::new(
                existing.rtype.clone(),
                existing.name.clone(),
                reference.attr.clone(),
            ));
            clone.set(&path, new_ref);
            continue;
        }
        // Import the dependency from the corpus (bounded: one level).
        if let Some(mut dep) = find_donor(program, corpus, &reference.rtype, suffix) {
            // Point the dep's own dangling references at program resources
            // where possible; deeper chains are dropped by the cloud as
            // dangling and surfaced during deployment.
            let dep_refs = dep.references();
            for (dpath, dref) in dep_refs {
                if program
                    .find(&ResourceId::new(&dref.rtype, &dref.name))
                    .is_none()
                {
                    if let Some(existing) = program.of_type(&dref.rtype).next() {
                        let new_ref = Value::Ref(zodiac_model::Reference::new(
                            existing.rtype.clone(),
                            existing.name.clone(),
                            dref.attr.clone(),
                        ));
                        dep.set(&dpath, new_ref);
                    }
                }
            }
            let dep_id = dep.id();
            if program.add(dep).is_ok() {
                let new_ref = Value::Ref(zodiac_model::Reference::new(
                    dep_id.rtype,
                    dep_id.name,
                    reference.attr.clone(),
                ));
                clone.set(&path, new_ref);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Symbolic attributes (domain construction shared with `crate::ground`)
// ---------------------------------------------------------------------------

/// Values each `(resource, attr)` pair should additionally be able to take,
/// derived from the *other* side of the target statement's comparison.
fn cross_values(
    target: &Check,
    program: &Program,
    witness: &BTreeMap<Symbol, ResourceId>,
) -> BTreeMap<(ResourceId, Symbol), Vec<Value>> {
    let mut out: BTreeMap<(ResourceId, Symbol), Vec<Value>> = BTreeMap::new();
    let Expr::Cmp {
        lhs: Val::Endpoint { var: lv, attr: la },
        rhs: Val::Endpoint { var: rv, attr: ra },
        ..
    } = &target.stmt
    else {
        return out;
    };
    let resolve = |var: &Symbol, attr: &Symbol| -> Vec<Value> {
        let Some(rid) = witness.get(var) else {
            return Vec::new();
        };
        let Some(resource) = program.find(rid) else {
            return Vec::new();
        };
        resource.get_all(attr).into_iter().cloned().collect()
    };
    let l_vals = resolve(lv, la);
    let r_vals = resolve(rv, ra);
    if let Some(rid) = witness.get(lv) {
        out.entry((rid.clone(), *la))
            .or_default()
            .extend(r_vals.clone());
    }
    if let Some(rid) = witness.get(rv) {
        out.entry((rid.clone(), *ra)).or_default().extend(l_vals);
    }
    out
}

fn stmt_mentions(check: &Check, attr: &str) -> bool {
    check
        .stmt
        .atoms()
        .flat_map(Expr::operands)
        .any(|v| matches!(v, Val::Endpoint { attr: a, .. } if a == attr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdc;
    use zodiac_spec::parse_check;

    fn kb() -> KnowledgeBase {
        zodiac_kb::azure_kb()
    }

    /// A conforming VM+NIC program (both eastus).
    fn vm_nic_program() -> Program {
        Program::new()
            .with(
                Resource::new("azurerm_network_interface", "nic")
                    .with("name", "nic1")
                    .with("location", "eastus"),
            )
            .with(
                Resource::new("azurerm_linux_virtual_machine", "vm")
                    .with("name", "vm1")
                    .with("location", "eastus")
                    .with("size", "Standard_B1s")
                    .with(
                        "network_interface_ids",
                        Value::List(vec![Value::r("azurerm_network_interface", "nic", "id")]),
                    ),
            )
    }

    fn positive_for(check: &Check, program: &Program) -> PositiveCase {
        mdc::find_positive(check, std::slice::from_ref(program), &kb(), 10).expect("witness exists")
    }

    #[test]
    fn attribute_mutation_flips_location() {
        let check = parse_check(
            "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => r1.location == r2.location",
        )
        .unwrap();
        let program = vm_nic_program();
        let positive = positive_for(&check, &program);
        let result = negative_test(
            &check,
            &positive,
            &[],
            &[],
            &kb(),
            &[],
            &MutationConfig::default(),
        );
        let MutationResult::Negative(neg) = result else {
            panic!("expected a negative case");
        };
        // Exactly one attribute changed — minimal mutation.
        assert_eq!(neg.changed_attrs, 1, "{:?}", neg.program);
        assert_eq!(neg.added_resources, 0);
        // The case indeed violates the check.
        let graph = ResourceGraph::build(neg.program.clone());
        let ctx = EvalContext {
            graph: &graph,
            kb: Some(&kb()),
        };
        assert!(!zodiac_spec::holds(&check, ctx));
    }

    #[test]
    fn hard_checks_block_the_only_mutation() {
        let target =
            parse_check("let r:IP in r.sku == 'Standard' => r.allocation_method == 'Static'")
                .unwrap();
        // An equivalent hard check closes the only violating assignment.
        let hard = vec![parse_check(
            "let r:IP in r.sku == 'Standard' => r.allocation_method != 'Dynamic'",
        )
        .unwrap()];
        let program = Program::new().with(
            Resource::new("azurerm_public_ip", "ip")
                .with("name", "ip1")
                .with("sku", "Standard")
                .with("allocation_method", "Static"),
        );
        let positive = positive_for(&target, &program);
        let result = negative_test(
            &target,
            &positive,
            &hard,
            &[],
            &kb(),
            &[],
            &MutationConfig::default(),
        );
        assert!(
            matches!(result, MutationResult::Unsat),
            "the hard equivalent must make mutation UNSAT"
        );
    }

    #[test]
    fn degree_mutation_instantiates_virtual_resources() {
        let check = parse_check(
            "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => indegree(r2, VM) == 1",
        )
        .unwrap();
        let program = vm_nic_program();
        let positive = positive_for(&check, &program);
        let result = negative_test(
            &check,
            &positive,
            &[],
            &[],
            &kb(),
            std::slice::from_ref(&program),
            &MutationConfig::default(),
        );
        let MutationResult::Negative(neg) = result else {
            panic!("expected a negative case");
        };
        assert!(neg.added_resources >= 1, "a second VM must be cloned");
        assert!(
            neg.program.of_type("azurerm_linux_virtual_machine").count() >= 2,
            "{:?}",
            neg.program.types()
        );
    }

    #[test]
    fn nullability_mutation_removes_optional_attr() {
        let check =
            parse_check("let r:VM in r.priority == 'Spot' => r.eviction_policy != null").unwrap();
        let program = Program::new().with(
            Resource::new("azurerm_linux_virtual_machine", "vm")
                .with("name", "vm1")
                .with("priority", "Spot")
                .with("eviction_policy", "Deallocate"),
        );
        let positive = positive_for(&check, &program);
        let result = negative_test(
            &check,
            &positive,
            &[],
            &[],
            &kb(),
            &[],
            &MutationConfig::default(),
        );
        let MutationResult::Negative(neg) = result else {
            panic!("expected a negative case");
        };
        let vm = neg
            .program
            .find(&ResourceId::new("azurerm_linux_virtual_machine", "vm"))
            .unwrap();
        assert!(vm.get_attr("eviction_policy").is_none(), "policy removed");
        // The condition still holds (cond preservation).
        assert_eq!(vm.get_attr("priority"), Some(&Value::s("Spot")));
    }

    #[test]
    fn cross_values_enable_name_equality_violations() {
        let check = parse_check(
            "let r1:ATTACH, r2:VM, r3:DISK in coconn(r1.virtual_machine_id -> r2.id, r1.managed_disk_id -> r3.id) => r2.os_disk.name != r3.name",
        )
        .unwrap();
        let mut vm = Resource::new("azurerm_linux_virtual_machine", "vm")
            .with("name", "vm1")
            .with("location", "eastus");
        let path: AttrPath = "os_disk.name".parse().unwrap();
        vm.set(&path, Value::s("vm1-osdisk"));
        let program = Program::new()
            .with(vm)
            .with(
                Resource::new("azurerm_managed_disk", "disk")
                    .with("name", "datadisk1")
                    .with("location", "eastus"),
            )
            .with(
                Resource::new("azurerm_virtual_machine_data_disk_attachment", "attach")
                    .with(
                        "virtual_machine_id",
                        Value::r("azurerm_linux_virtual_machine", "vm", "id"),
                    )
                    .with(
                        "managed_disk_id",
                        Value::r("azurerm_managed_disk", "disk", "id"),
                    )
                    .with("lun", 0i64)
                    .with("caching", Value::s("ReadWrite")),
            );
        let positive = positive_for(&check, &program);
        let result = negative_test(
            &check,
            &positive,
            &[],
            &[],
            &kb(),
            &[],
            &MutationConfig::default(),
        );
        let MutationResult::Negative(neg) = result else {
            panic!("expected a negative case (cross values must unlock it)");
        };
        let graph = ResourceGraph::build(neg.program.clone());
        let ctx = EvalContext {
            graph: &graph,
            kb: Some(&kb()),
        };
        assert!(!zodiac_spec::holds(&check, ctx), "names now clash");
    }

    #[test]
    fn length_mutation_truncates_blocks() {
        let check =
            parse_check("let r:GW in r.active_active == true => length(r.ip_configuration) >= 2")
                .unwrap();
        let mut gw = Resource::new("azurerm_virtual_network_gateway", "gw")
            .with("name", "gw1")
            .with("active_active", true);
        gw.attrs.insert(
            "ip_configuration".into(),
            Value::List(vec![
                Value::Map(Default::default()),
                Value::Map(Default::default()),
            ]),
        );
        let program = Program::new().with(gw);
        let positive = positive_for(&check, &program);
        let result = negative_test(
            &check,
            &positive,
            &[],
            &[],
            &kb(),
            &[],
            &MutationConfig::default(),
        );
        let MutationResult::Negative(neg) = result else {
            panic!("expected a negative case");
        };
        let gw = neg
            .program
            .find(&ResourceId::new("azurerm_virtual_network_gateway", "gw"))
            .unwrap();
        assert_eq!(
            gw.get_attr("ip_configuration")
                .and_then(Value::as_list)
                .map(<[Value]>::len),
            Some(1)
        );
    }
}
