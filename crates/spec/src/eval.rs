//! Evaluation of semantic checks over resource graphs.
//!
//! A check `let r₁:t₁,…,rₙ:tₙ in cond ⇒ stmt` is evaluated by enumerating
//! every binding of the variables to *distinct* resources of the declared
//! types and testing `cond` and `stmt` on each. The check **holds** on a
//! program when every binding with a true condition also has a true
//! statement; bindings where `cond ∧ ¬stmt` are **violations**, and bindings
//! where `cond ∧ stmt` are **witnesses** (used by mining statistics and by
//! positive-test-case selection).
//!
//! One binding visitor answers every query, in one enumeration order.
//! [`instances`] evaluates both expressions on every binding; the other
//! queries stop or skip as soon as the answer is known: [`holds`] returns at
//! the first violation, [`first_witness`] at the first witness, and
//! [`violations`] evaluates the statement only where the condition holds.
//! Expressions are pure, so each answer equals the one read off
//! [`instances`] (the testkit's `eval-short-circuit` property checks this).
//!
//! Attribute endpoints read through
//! [`Resource::get_all`](zodiac_model::Resource::get_all): a dotted path
//! descends through nested blocks, fanning out over list elements, so
//! `r.address_prefixes` yields every CIDR in the list and
//! `r.security_rule.priority` yields the priority of every rule.
//! Comparisons ([`CmpOp::holds`]) are existential over the resolved sets;
//! outer negation flips the result, giving `!overlap(...)` the expected
//! universal reading. When a [`KnowledgeBase`] is supplied, omitted
//! attributes fall back to their provider defaults (Class-2 facts) before
//! defaulting to `Null`.
//!
//! This module is the one meaning of the check language: the validation
//! grounder asks an [`Env`] for every value and edge it does not make a
//! solver variable, so a grounded check agrees with evaluation by
//! construction.

use crate::ast::{Check, CmpOp, Expr, Val};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use zodiac_graph::{NodeIdx, ResourceGraph};
use zodiac_kb::KnowledgeBase;
use zodiac_model::{Symbol, Value};

/// Evaluation context: the graph plus an optional KB for default values.
#[derive(Clone, Copy)]
pub struct EvalContext<'a> {
    /// The resource graph under evaluation.
    pub graph: &'a ResourceGraph,
    /// Knowledge base for Class-2 defaults (optional).
    pub kb: Option<&'a KnowledgeBase>,
}

/// One evaluated binding of a check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Variable → node assignments, keyed by variable name.
    pub binding: BTreeMap<Symbol, NodeIdx>,
    /// Whether the condition held.
    pub cond: bool,
    /// Whether the statement held.
    pub stmt: bool,
}

impl Instance {
    /// True if this instance violates the check (`cond ∧ ¬stmt`).
    pub fn is_violation(&self) -> bool {
        self.cond && !self.stmt
    }

    /// True if this instance witnesses the check (`cond ∧ stmt`).
    pub fn is_witness(&self) -> bool {
        self.cond && self.stmt
    }
}

/// A binding under evaluation: `(variable, node)` pairs in declaration
/// order.
#[derive(Clone, Copy)]
pub struct Env<'b> {
    pairs: &'b [(Symbol, NodeIdx)],
}

impl<'b> Env<'b> {
    /// A binding read from `(variable, node)` pairs.
    pub fn new(pairs: &'b [(Symbol, NodeIdx)]) -> Env<'b> {
        Env { pairs }
    }

    /// The node bound to `var`. A repeated variable name resolves to its
    /// last binding, as in [`Instance::binding`].
    pub fn node(self, var: &Symbol) -> Option<NodeIdx> {
        self.pairs
            .iter()
            .rev()
            .find(|(v, _)| v == var)
            .map(|&(_, n)| n)
    }

    fn to_map(self) -> BTreeMap<Symbol, NodeIdx> {
        self.pairs.iter().copied().collect()
    }

    /// Whether `expr` holds under this binding.
    pub fn holds(self, expr: &Expr, ctx: EvalContext<'_>) -> bool {
        match expr {
            Expr::Conn {
                src,
                in_endpoint,
                dst,
                out_attr,
            } => {
                let (Some(s), Some(d)) = (self.node(src), self.node(dst)) else {
                    return false;
                };
                ctx.graph
                    .conn(s, Some(in_endpoint.as_str()), d, Some(out_attr.as_str()))
            }
            Expr::Path { src, dst } => {
                let (Some(s), Some(d)) = (self.node(src), self.node(dst)) else {
                    return false;
                };
                ctx.graph.path(s, d)
            }
            Expr::CoConn { first, second } | Expr::CoPath { first, second } => {
                self.holds(first, ctx) && self.holds(second, ctx)
            }
            Expr::Cmp {
                op,
                lhs,
                rhs,
                negated,
            } => compare(*op, &self.values(lhs, ctx), &self.values(rhs, ctx)) != *negated,
        }
    }

    /// The set of values a term denotes under this binding: an endpoint's
    /// values (else its KB default, else `Null`), a degree, or a length.
    pub fn values<'a>(self, val: &'a Val, ctx: EvalContext<'a>) -> Vec<Cow<'a, Value>> {
        let null = || vec![Cow::Owned(Value::Null)];
        let count = |n: usize| vec![Cow::Owned(Value::Int(n as i64))];
        match val {
            Val::Lit(v) => vec![Cow::Borrowed(v)],
            Val::Endpoint { var, attr } => {
                let Some(node) = self.node(var) else {
                    return null();
                };
                let resource = ctx.graph.resource(node);
                let found: Vec<Cow<'a, Value>> = resource
                    .get_all(attr)
                    .into_iter()
                    .map(Cow::Borrowed)
                    .collect();
                if !found.is_empty() {
                    return found;
                }
                match ctx
                    .kb
                    .and_then(|kb| kb.default_of(&resource.rtype, attr.as_str()))
                {
                    Some(default) => vec![Cow::Owned(default)],
                    None => null(),
                }
            }
            Val::InDegree { var, tau } => match self.node(var) {
                Some(node) => count(ctx.graph.distinct_in_neighbors(
                    node,
                    tau.type_name(),
                    tau.negated(),
                )),
                None => null(),
            },
            Val::OutDegree { var, tau } => match self.node(var) {
                Some(node) => count(ctx.graph.distinct_out_neighbors(
                    node,
                    tau.type_name(),
                    tau.negated(),
                )),
                None => null(),
            },
            Val::Length(inner) => {
                let Val::Endpoint { var, attr } = inner.as_ref() else {
                    return count(self.values(inner, ctx).len());
                };
                let Some(node) = self.node(var) else {
                    return null();
                };
                count(match ctx.graph.resource(node).get(attr) {
                    Some(Value::List(l)) => l.len(),
                    Some(Value::Null) | None => 0,
                    Some(_) => 1,
                })
            }
        }
    }
}

/// The binding visitor behind every query: calls `visit` on each binding of
/// the check's variables to *distinct* nodes of the declared types, in
/// declaration-major order, until `visit` breaks; returns `Break` if it did.
pub fn visit_bindings<F>(check: &Check, graph: &ResourceGraph, mut visit: F) -> ControlFlow<()>
where
    F: FnMut(Env<'_>) -> ControlFlow<()>,
{
    fn descend<F>(
        levels: &[(Symbol, Vec<NodeIdx>)],
        assignment: &mut Vec<(Symbol, NodeIdx)>,
        visit: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(Env<'_>) -> ControlFlow<()>,
    {
        let Some((var, nodes)) = levels.get(assignment.len()) else {
            return visit(Env::new(assignment));
        };
        for &node in nodes {
            if assignment.iter().any(|&(_, n)| n == node) {
                continue; // Distinct variables bind distinct resources.
            }
            assignment.push((*var, node));
            let flow = descend(levels, assignment, visit);
            assignment.pop();
            flow?;
        }
        ControlFlow::Continue(())
    }

    let levels: Vec<(Symbol, Vec<NodeIdx>)> = check
        .bindings
        .iter()
        .map(|b| (b.var, graph.nodes_of_type(&b.rtype).collect()))
        .collect();
    let mut assignment = Vec::with_capacity(levels.len());
    descend(&levels, &mut assignment, &mut visit)
}

/// True if `env` violates the check; the statement is evaluated only where
/// the condition holds.
fn violates(check: &Check, env: Env<'_>, ctx: EvalContext<'_>) -> bool {
    env.holds(&check.cond, ctx) && !env.holds(&check.stmt, ctx)
}

/// Evaluates a check over all bindings.
pub fn instances(check: &Check, ctx: EvalContext<'_>) -> Vec<Instance> {
    let mut out = Vec::new();
    let _ = visit_bindings(check, ctx.graph, |env| {
        out.push(Instance {
            binding: env.to_map(),
            cond: env.holds(&check.cond, ctx),
            stmt: env.holds(&check.stmt, ctx),
        });
        ControlFlow::Continue(())
    });
    out
}

/// True if the check holds on the graph (no violating binding). Stops at the
/// first violation.
pub fn holds(check: &Check, ctx: EvalContext<'_>) -> bool {
    visit_bindings(check, ctx.graph, |env| {
        if violates(check, env, ctx) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
    .is_continue()
}

/// All violating bindings: [`instances`] filtered to violations, in the same
/// order.
pub fn violations(check: &Check, ctx: EvalContext<'_>) -> Vec<Instance> {
    let mut out = Vec::new();
    let _ = visit_bindings(check, ctx.graph, |env| {
        if violates(check, env, ctx) {
            out.push(Instance {
                binding: env.to_map(),
                cond: true,
                stmt: false,
            });
        }
        ControlFlow::Continue(())
    });
    out
}

/// The first witnessing binding in enumeration order — the first witness
/// [`instances`] lists. Stops there.
pub fn first_witness(check: &Check, ctx: EvalContext<'_>) -> Option<Instance> {
    let mut found = None;
    let _ = visit_bindings(check, ctx.graph, |env| {
        if !(env.holds(&check.cond, ctx) && env.holds(&check.stmt, ctx)) {
            return ControlFlow::Continue(());
        }
        found = Some(Instance {
            binding: env.to_map(),
            cond: true,
            stmt: true,
        });
        ControlFlow::Break(())
    });
    found
}

/// Existential comparison: some value on the left relates to some value on
/// the right.
fn compare(op: CmpOp, lhs: &[Cow<'_, Value>], rhs: &[Cow<'_, Value>]) -> bool {
    lhs.iter().any(|l| rhs.iter().any(|r| op.holds(l, r)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_check;
    use zodiac_model::{Program, Resource};

    fn graph(p: Program) -> ResourceGraph {
        ResourceGraph::build(p)
    }

    fn vm_nic_program(vm_loc: &str, nic_loc: &str) -> Program {
        Program::new()
            .with(
                Resource::new("azurerm_network_interface", "nic")
                    .with("location", nic_loc)
                    .with("subnet_id", Value::r("azurerm_subnet", "s", "id")),
            )
            .with(Resource::new("azurerm_subnet", "s").with("name", "internal"))
            .with(
                Resource::new("azurerm_linux_virtual_machine", "vm")
                    .with("location", vm_loc)
                    .with(
                        "network_interface_ids",
                        Value::List(vec![Value::r("azurerm_network_interface", "nic", "id")]),
                    ),
            )
    }

    fn check_vm_nic_location() -> Check {
        parse_check(
            "let r1:VM, r2:NIC in conn(r1.network_interface_ids -> r2.id) => r1.location == r2.location",
        )
        .unwrap()
    }

    #[test]
    fn conforming_program_holds() {
        let g = graph(vm_nic_program("eastus", "eastus"));
        let ctx = EvalContext {
            graph: &g,
            kb: None,
        };
        assert!(holds(&check_vm_nic_location(), ctx));
        let all = instances(&check_vm_nic_location(), ctx);
        assert_eq!(all.iter().filter(|i| i.is_witness()).count(), 1);
        assert_eq!(
            first_witness(&check_vm_nic_location(), ctx).as_ref(),
            all.first()
        );
    }

    #[test]
    fn violating_program_fails() {
        let g = graph(vm_nic_program("eastus", "westus"));
        let ctx = EvalContext {
            graph: &g,
            kb: None,
        };
        let v = violations(&check_vm_nic_location(), ctx);
        assert_eq!(v.len(), 1);
        assert!(!holds(&check_vm_nic_location(), ctx));
    }

    #[test]
    fn unconnected_resources_satisfy_vacuously() {
        let p = Program::new()
            .with(Resource::new("azurerm_linux_virtual_machine", "vm").with("location", "a"))
            .with(Resource::new("azurerm_network_interface", "nic").with("location", "b"));
        let g = graph(p);
        let ctx = EvalContext {
            graph: &g,
            kb: None,
        };
        assert!(holds(&check_vm_nic_location(), ctx));
        assert!(first_witness(&check_vm_nic_location(), ctx).is_none());
    }

    #[test]
    fn null_checks_detect_missing_attrs() {
        let check =
            parse_check("let r:VM in r.priority == 'Spot' => r.eviction_policy != null").unwrap();
        let spot_without = Program::new()
            .with(Resource::new("azurerm_linux_virtual_machine", "vm").with("priority", "Spot"));
        let g = graph(spot_without);
        let ctx = EvalContext {
            graph: &g,
            kb: None,
        };
        assert!(!holds(&check, ctx));

        let spot_with = Program::new().with(
            Resource::new("azurerm_linux_virtual_machine", "vm")
                .with("priority", "Spot")
                .with("eviction_policy", "Deallocate"),
        );
        let g2 = graph(spot_with);
        assert!(holds(
            &check,
            EvalContext {
                graph: &g2,
                kb: None
            }
        ));
    }

    #[test]
    fn kb_defaults_apply() {
        // sku omitted on public IP defaults to Basic via the KB.
        let kb = zodiac_kb::azure_kb();
        let check = parse_check("let r:IP in r.allocation_method == 'Dynamic' => r.sku == 'Basic'")
            .unwrap();
        let p = Program::new()
            .with(Resource::new("azurerm_public_ip", "ip").with("allocation_method", "Dynamic"));
        let g = graph(p);
        assert!(holds(
            &check,
            EvalContext {
                graph: &g,
                kb: Some(&kb)
            }
        ));
        // Without the KB the default is unknown and the check is violated.
        assert!(!holds(
            &check,
            EvalContext {
                graph: &g,
                kb: None
            }
        ));
    }

    #[test]
    fn overlap_over_cidr_lists() {
        let check = parse_check(
            "let r1:SUBNET, r2:SUBNET, r3:VPC in \
             coconn(r1.virtual_network_name -> r3.name, r2.virtual_network_name -> r3.name) \
             => !overlap(r1.address_prefixes, r2.address_prefixes)",
        )
        .unwrap();
        let mk = |c1: &str, c2: &str| {
            Program::new()
                .with(Resource::new("azurerm_virtual_network", "v").with("name", "vnet"))
                .with(
                    Resource::new("azurerm_subnet", "a")
                        .with("address_prefixes", Value::List(vec![Value::s(c1)]))
                        .with(
                            "virtual_network_name",
                            Value::r("azurerm_virtual_network", "v", "name"),
                        ),
                )
                .with(
                    Resource::new("azurerm_subnet", "b")
                        .with("address_prefixes", Value::List(vec![Value::s(c2)]))
                        .with(
                            "virtual_network_name",
                            Value::r("azurerm_virtual_network", "v", "name"),
                        ),
                )
        };
        let ok = graph(mk("10.0.1.0/24", "10.0.2.0/24"));
        assert!(holds(
            &check,
            EvalContext {
                graph: &ok,
                kb: None
            }
        ));
        let bad = graph(mk("10.0.1.0/24", "10.0.1.128/25"));
        assert!(!holds(
            &check,
            EvalContext {
                graph: &bad,
                kb: None
            }
        ));
    }

    #[test]
    fn degree_checks() {
        let check = parse_check("let r:VM in r.size == 'Standard_F2s_v2' => indegree(r, NIC) <= 2")
            .unwrap();
        // Degree here counts NICs referencing the VM; build the inverse shape:
        // attachments point from NIC to VM via an attachment-like edge.
        let mut p = Program::new().with(
            Resource::new("azurerm_linux_virtual_machine", "vm").with("size", "Standard_F2s_v2"),
        );
        for i in 0..3 {
            p.add(
                Resource::new("azurerm_network_interface", format!("nic{i}")).with(
                    "attached_vm_id",
                    Value::r("azurerm_linux_virtual_machine", "vm", "id"),
                ),
            )
            .unwrap();
        }
        let g = graph(p);
        assert!(!holds(
            &check,
            EvalContext {
                graph: &g,
                kb: None
            }
        ));
    }

    #[test]
    fn nested_multi_resolution() {
        let check = parse_check(
            "let r:SG in r.security_rule.direction == 'Inbound' => r.security_rule.priority >= 100",
        )
        .unwrap();
        let mut sg = Resource::new("azurerm_network_security_group", "sg");
        sg.attrs.insert(
            "security_rule".into(),
            Value::List(vec![Value::Map(
                [
                    ("direction".to_string(), Value::s("Inbound")),
                    ("priority".to_string(), Value::Int(50)),
                ]
                .into_iter()
                .collect(),
            )]),
        );
        let g = graph(Program::new().with(sg));
        // Existential semantics: priority 50 < 100, so the stmt fails.
        assert!(!holds(
            &check,
            EvalContext {
                graph: &g,
                kb: None
            }
        ));
    }

    #[test]
    fn length_counts_blocks() {
        let check =
            parse_check("let r:GW in r.active_active == true => length(r.ip_configuration) >= 2")
                .unwrap();
        let mut gw = Resource::new("azurerm_virtual_network_gateway", "gw");
        gw.attrs.insert("active_active".into(), Value::Bool(true));
        gw.attrs.insert(
            "ip_configuration".into(),
            Value::List(vec![Value::Map(Default::default())]),
        );
        let g = graph(Program::new().with(gw));
        assert!(!holds(
            &check,
            EvalContext {
                graph: &g,
                kb: None
            }
        ));
    }

    #[test]
    fn integers_equal_their_decimal_strings() {
        let check = parse_check("let r:VM in r.size == 'a' => r.priority == 2").unwrap();
        let p = Program::new().with(
            Resource::new("azurerm_linux_virtual_machine", "vm")
                .with("size", "a")
                .with("priority", "2"),
        );
        let g = graph(p);
        assert!(holds(
            &check,
            EvalContext {
                graph: &g,
                kb: None
            }
        ));
    }

    #[test]
    fn distinct_variables_bind_distinct_nodes() {
        // A single subnet must not bind both r1 and r2.
        let check = parse_check("let r1:SUBNET, r2:SUBNET in path(r1 -> r2) => r1.name != r2.name")
            .unwrap();
        let p = Program::new().with(Resource::new("azurerm_subnet", "only").with("name", "x"));
        let g = graph(p);
        assert!(instances(
            &check,
            EvalContext {
                graph: &g,
                kb: None
            }
        )
        .is_empty());
    }
}
