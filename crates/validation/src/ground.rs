//! Check grounding: compiling checks over a fixed resource graph into
//! solver constraints over symbolic attribute variables.
//!
//! This is the shared core of two solver encodings that run in opposite
//! directions:
//!
//! * **mutation** ([`crate::mutate`], §4.1) — violate one target check
//!   while conforming to the rest (negative-test generation);
//! * **repair** (`zodiac-repair`) — satisfy *all* checks at once while
//!   changing as few attributes as possible (the mutation encoding run in
//!   reverse).
//!
//! Both build the same three ingredients: a set of **symbolic attributes**
//! (KB-derived candidate domains per mutable attribute), a map from
//! `(resource, attribute)` to solver variables, and a [`Grounder`] that
//! folds every check instance touching a symbolic resource into a
//! [`Constraint`].
//!
//! Grounding adds one thing to evaluation: a solver variable for each
//! symbolic endpoint. Everything else — `conn`/`path` atoms, the values of
//! non-symbolic endpoints (with their KB defaults), degrees and lengths —
//! is asked of [`zodiac_spec::Env`], and comparisons keep
//! [`zodiac_model::CmpOp::holds`]' meaning in the solver. So a check
//! grounded with no variables evaluates, under the empty assignment, to
//! exactly the evaluator's verdict; the testkit's `eval-short-circuit`
//! property checks this on every instance it crosses.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;
use zodiac_graph::NodeIdx;
use zodiac_kb::{AttrKind, KnowledgeBase, ValueFormat};
use zodiac_model::{AttrPath, Cidr, Program, Resource, ResourceId, Symbol, Value};
use zodiac_solver::{Constraint, Term, VarId};
use zodiac_spec::eval::visit_bindings;
use zodiac_spec::{Check, Env, EvalContext, Expr, Val};

/// A symbolic attribute: its location, original value, and candidate domain
/// (original first, so weight-1 prefer-original softs make branch-and-bound
/// a change-minimisation search).
#[derive(Debug, Clone)]
pub struct SymbolicAttr {
    /// Dotted attribute path, interned.
    pub attr: Symbol,
    /// The value the program currently has (after applying KB defaults).
    pub original: Value,
    /// Candidate values, original first.
    pub domain: Vec<Value>,
    /// Whether writes must re-wrap the value in a single-element list
    /// (the original was a one-element top-level list).
    pub wrap_list: bool,
}

/// Attribute paths mentioned (per resource type) across a set of checks.
/// Only these attributes can matter to a solver encoding; restricting the
/// variable set keeps search tractable.
pub fn relevant_attrs<'a, I>(checks: I) -> BTreeMap<String, BTreeSet<String>>
where
    I: IntoIterator<Item = &'a Check>,
{
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for check in checks {
        for operand in check.atoms().flat_map(Expr::operands) {
            if let Val::Endpoint { var, attr } = operand {
                if let Some(rtype) = check.type_of(var) {
                    out.entry(rtype.to_string())
                        .or_default()
                        .insert(attr.to_string());
                }
            }
        }
    }
    out
}

/// Builds the symbolic attributes of one resource: every schema attribute
/// in the `relevant` set whose KB format yields a non-trivial domain (enum
/// members, locations, adjacent CIDR ranges, boolean flips), extended with
/// caller-provided `cross` values (forced equalities, containment targets)
/// and — for optional attributes the `removable` predicate admits —
/// `Value::Null` (removal) plus a corpus-borrowed concrete value when the
/// original is absent.
pub fn symbolic_attrs(
    resource: &Resource,
    kb: &KnowledgeBase,
    corpus: &[Program],
    relevant: &BTreeMap<String, BTreeSet<String>>,
    cross: &BTreeMap<(ResourceId, Symbol), Vec<Value>>,
    removable: &dyn Fn(&str) -> bool,
) -> Vec<SymbolicAttr> {
    let Some(schema) = kb.resource(&resource.rtype) else {
        // Unattended resources are immutable (§4.1).
        return Vec::new();
    };
    let relevant_here = relevant.get(&resource.rtype);
    let rid = resource.id();
    let mut out = Vec::new();
    for attr in schema.attrs.values() {
        if !relevant_here.is_some_and(|set| set.contains(&attr.path)) {
            continue;
        }
        let (mut original, wrap_list) = match resource.get_all(&attr.path)[..] {
            [v] => (
                v.clone(),
                matches!(resource.get(&attr.path), Some(Value::List(_)))
                    && !attr.path.contains('.'),
            ),
            [] => (Value::Null, false),
            _ => continue, // Multi-valued: left immutable.
        };
        // The evaluator applies KB defaults to omitted attributes, so the
        // solver must see the same semantics: an absent attribute with a
        // provider default *is* that default, and `Null` never enters the
        // domain of a defaulted attribute (assigning it would diverge from
        // evaluation).
        let provider_default = attr.format.default_value();
        if matches!(original, Value::Null) {
            if let Some(d) = &provider_default {
                original = d.clone();
            }
        }
        let mut domain = vec![original.clone()];
        match &attr.format {
            ValueFormat::Enum { values, .. } => {
                for v in values {
                    let val = Value::s(v.clone());
                    if !domain.contains(&val) {
                        domain.push(val);
                    }
                }
            }
            ValueFormat::BoolDefault { .. } => {
                let flipped = match &original {
                    Value::Bool(b) => Value::Bool(!b),
                    _ => Value::Bool(true),
                };
                if !domain.contains(&flipped) {
                    domain.push(flipped);
                }
            }
            ValueFormat::Location => {
                for l in &kb.locations {
                    let val = Value::s(l.clone());
                    if !domain.contains(&val) {
                        domain.push(val);
                    }
                }
            }
            ValueFormat::Cidr => {
                if let Some(c) = original.as_str().and_then(|s| s.parse::<Cidr>().ok()) {
                    let mut push = |v: Cidr| {
                        let val = Value::s(v.to_string());
                        if !domain.contains(&val) {
                            domain.push(val);
                        }
                    };
                    push(c.adjacent());
                    push(c.adjacent().adjacent());
                    // A definitely-foreign range for containment violations.
                    if let Ok(outside) = "192.168.250.0/24".parse::<Cidr>() {
                        push(outside);
                    }
                }
            }
            _ => {}
        }
        // Cross values from the caller (statement comparisons, containment
        // targets, overlap escapes).
        if let Some(extra) = cross.get(&(rid.clone(), Symbol::intern(&attr.path))) {
            for v in extra {
                if !matches!(v, Value::Null) && !domain.contains(v) {
                    domain.push(v.clone());
                }
            }
        }
        // Nullability: optional enum/bool attributes may always be removed
        // or instantiated (the solver needs this to satisfy co-checks, e.g.
        // adding an eviction policy when a mutation turns a VM into Spot);
        // other optional attributes only when the caller's predicate admits
        // them.
        let enumish = matches!(
            attr.format,
            ValueFormat::Enum { .. } | ValueFormat::BoolDefault { .. }
        );
        if attr.kind == AttrKind::Optional
            && provider_default.is_none()
            && (enumish || removable(&attr.path))
        {
            if !domain.contains(&Value::Null) {
                domain.push(Value::Null);
            }
            if matches!(original, Value::Null) {
                // Need a concrete value to *set*: borrow one from the corpus.
                if let Some(v) = corpus.iter().find_map(|p| {
                    p.of_type(&resource.rtype)
                        .find_map(|r| r.get_all(&attr.path).first().copied().cloned())
                }) {
                    if !domain.contains(&v) {
                        domain.push(v);
                    }
                }
            }
        }
        if domain.len() > 1 {
            out.push(SymbolicAttr {
                attr: Symbol::intern(&attr.path),
                original,
                domain,
                wrap_list,
            });
        }
    }
    out
}

/// Writes a solved value back into the program at `sym`'s path: `Null`
/// removes the attribute, `wrap_list` re-wraps single-element lists, nested
/// paths descend through single blocks.
pub fn apply_value(program: &mut Program, rid: &ResourceId, sym: &SymbolicAttr, value: Value) {
    let Some(resource) = program.find_mut(rid) else {
        return;
    };
    let path: AttrPath = match sym.attr.parse() {
        Ok(p) => p,
        Err(_) => return,
    };
    if matches!(value, Value::Null) {
        remove_path(resource, &path);
        return;
    }
    let final_value = if sym.wrap_list {
        Value::List(vec![value])
    } else {
        value
    };
    // Nested paths through single blocks resolve indices implicitly: find
    // the concrete path by descending.
    set_normalized(resource, &path.0, final_value);
}

/// Sets a value at a normalised (index-free) path, descending into single
/// list elements.
pub fn set_normalized(resource: &mut Resource, segs: &[String], value: Value) -> bool {
    fn descend(v: &mut Value, segs: &[String], value: Value) -> bool {
        let Some((head, rest)) = segs.split_first() else {
            *v = value;
            return true;
        };
        match v {
            Value::Map(m) => match m.get_mut(head) {
                Some(inner) => descend(inner, rest, value),
                None => {
                    if rest.is_empty() {
                        m.insert(head.clone(), value);
                        true
                    } else {
                        false
                    }
                }
            },
            Value::List(l) => {
                for item in l.iter_mut() {
                    if descend(item, segs, value.clone()) {
                        return true;
                    }
                }
                false
            }
            _ => false,
        }
    }
    let Some((head, rest)) = segs.split_first() else {
        return false;
    };
    if rest.is_empty() {
        resource.attrs.insert(head.clone(), value);
        return true;
    }
    match resource.attrs.get_mut(head) {
        Some(inner) => descend(inner, rest, value),
        None => false,
    }
}

/// Removes the attribute at `path`, descending through maps and lists.
pub fn remove_path(resource: &mut Resource, path: &AttrPath) {
    fn descend(v: &mut Value, segs: &[String]) -> bool {
        let Some((head, rest)) = segs.split_first() else {
            return false;
        };
        match v {
            Value::Map(m) => {
                if rest.is_empty() {
                    m.remove(head).is_some()
                } else if let Some(inner) = m.get_mut(head) {
                    descend(inner, rest)
                } else {
                    false
                }
            }
            Value::List(l) => l.iter_mut().any(|item| descend(item, segs)),
            _ => false,
        }
    }
    if path.0.len() == 1 {
        resource.attrs.remove(&path.0[0]);
        return;
    }
    if let Some(inner) = resource.attrs.get_mut(&path.0[0]) {
        descend(inner, &path.0[1..]);
    }
}

/// Grounds checks over a fixed resource graph into solver constraints:
/// each symbolic `(resource, attribute)` endpoint becomes its solver
/// variable, and every other term and atom is the evaluator's.
pub struct Grounder<'a> {
    ctx: EvalContext<'a>,
    /// Solver variable of each symbolic (node, attribute).
    vars: BTreeMap<(NodeIdx, Symbol), VarId>,
    /// Nodes with at least one symbolic attribute.
    symbolic: BTreeSet<NodeIdx>,
}

impl<'a> Grounder<'a> {
    /// A grounder over `ctx`'s (topology-final) graph, with `vars` the
    /// solver variables of the symbolic attributes.
    pub fn new(ctx: EvalContext<'a>, vars: &BTreeMap<(ResourceId, Symbol), VarId>) -> Self {
        let vars: BTreeMap<(NodeIdx, Symbol), VarId> = vars
            .iter()
            .filter_map(|((rid, attr), &var)| Some(((ctx.graph.node(rid)?, *attr), var)))
            .collect();
        let symbolic = vars.keys().map(|&(node, _)| node).collect();
        Grounder {
            ctx,
            vars,
            symbolic,
        }
    }

    /// Grounds `check` over every binding that touches a symbolic resource
    /// (other instances cannot be affected by any assignment).
    pub fn ground_all(&self, check: &Check) -> Vec<Constraint> {
        let mut out = Vec::new();
        let _ = visit_bindings(check, self.ctx.graph, |env| {
            let touches = check
                .bindings
                .iter()
                .filter_map(|b| env.node(&b.var))
                .any(|n| self.symbolic.contains(&n));
            if touches {
                out.push(Constraint::implies(
                    self.ground_in(&check.cond, env),
                    self.ground_in(&check.stmt, env),
                ));
            }
            ControlFlow::Continue(())
        });
        out
    }

    /// Grounds one expression under a binding from check variables to graph
    /// nodes.
    pub fn ground(&self, expr: &Expr, binding: &BTreeMap<Symbol, NodeIdx>) -> Constraint {
        let pairs: Vec<(Symbol, NodeIdx)> = binding.iter().map(|(&v, &n)| (v, n)).collect();
        self.ground_in(expr, Env::new(&pairs))
    }

    fn ground_in(&self, expr: &Expr, env: Env<'_>) -> Constraint {
        match expr {
            Expr::CoConn { first, second } | Expr::CoPath { first, second } => {
                Constraint::And(vec![
                    self.ground_in(first, env),
                    self.ground_in(second, env),
                ])
            }
            Expr::Cmp {
                op,
                lhs,
                rhs,
                negated,
            } => {
                let l = self.terms(lhs, env);
                let r = self.terms(rhs, env);
                let op = *op;
                let mut alternatives = Vec::new();
                for lt in &l {
                    for rt in &r {
                        alternatives.push(Constraint::Cmp {
                            op,
                            lhs: lt.clone(),
                            rhs: rt.clone(),
                        });
                    }
                }
                let existential = if alternatives.is_empty() {
                    Constraint::False
                } else {
                    Constraint::Or(alternatives)
                };
                if *negated {
                    Constraint::Not(Box::new(existential))
                } else {
                    existential
                }
            }
            // Topology is fixed before grounding: an edge atom is a constant.
            atom => {
                if env.holds(atom, self.ctx) {
                    Constraint::True
                } else {
                    Constraint::False
                }
            }
        }
    }

    /// A symbolic endpoint's solver variable, or the evaluator's values.
    fn terms(&self, val: &Val, env: Env<'_>) -> Vec<Term> {
        if let Val::Endpoint { var, attr } = val {
            if let Some(&v) = env.node(var).and_then(|n| self.vars.get(&(n, *attr))) {
                return vec![Term::Var(v)];
            }
        }
        env.values(val, self.ctx)
            .into_iter()
            .map(|v| Term::Const(v.into_owned()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zodiac_graph::ResourceGraph;
    use zodiac_spec::{instances, parse_check};

    #[test]
    fn a_check_grounded_without_variables_is_the_evaluators_verdict() {
        let check =
            parse_check("let r:VM in r.priority == 'Spot' => length(outdegree(r, NIC)) == 1")
                .unwrap();
        let program = Program::new()
            .with(Resource::new("azurerm_network_interface", "nic").with("name", "nic1"))
            .with(
                Resource::new("azurerm_linux_virtual_machine", "vm")
                    .with("priority", "Spot")
                    .with(
                        "network_interface_ids",
                        Value::List(vec![Value::r("azurerm_network_interface", "nic", "id")]),
                    ),
            );
        let graph = ResourceGraph::build(program);
        let kb = zodiac_kb::azure_kb();
        let ctx = EvalContext {
            graph: &graph,
            kb: Some(&kb),
        };
        let grounder = Grounder::new(ctx, &BTreeMap::new());
        let all = instances(&check, ctx);
        assert_eq!(all.len(), 1);
        for instance in &all {
            assert!(instance.cond && instance.stmt, "{instance:?}");
            let cond = grounder.ground(&check.cond, &instance.binding);
            let stmt = grounder.ground(&check.stmt, &instance.binding);
            assert_eq!(cond.eval(&[]), Some(instance.cond));
            assert_eq!(stmt.eval(&[]), Some(instance.stmt));
        }
    }
}
