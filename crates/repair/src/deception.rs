//! The L3 oracle: a deceptive-fix detector.
//!
//! Deploy success (L1) and check satisfaction (L2) are necessary but not
//! sufficient — a "repair" that deletes the violating resource, drops the
//! attribute the original set intentionally, or quietly narrows a network
//! rule also clears both. This module diffs the original and repaired
//! programs **against the typed check IR** (not strings): a structural or
//! scope change is only excused when some violated check actually demanded
//! it.
//!
//! Four deception classes are recognised:
//!
//! * [`DeceptionKind::DeletedResource`] — a resource present in the
//!   original is gone, and no violated degree constraint sanctions removing
//!   resources of its type.
//! * [`DeceptionKind::DroppedReference`] — a reference-carrying attribute
//!   was removed without any violated check mentioning it (disconnecting
//!   two resources to escape a relational check's condition).
//! * [`DeceptionKind::DroppedAttr`] — a concrete attribute the original
//!   set intentionally was removed, top-level or nested, without being
//!   mentioned by a violated check.
//! * [`DeceptionKind::NarrowedScope`] — a CIDR- or port-valued attribute
//!   covers strictly less than before (`'*'`/`0.0.0.0/0` treated as full
//!   range), without being mentioned by a violated check.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use zodiac_kb::{KnowledgeBase, ValueFormat};
use zodiac_model::{Cidr, Program, Resource, ResourceId, Value};
use zodiac_spec::{Check, Expr, Val};
use zodiac_validation::ground;

/// The class of a detected deceptive fix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeceptionKind {
    /// A resource was deleted without a degree constraint demanding it.
    DeletedResource,
    /// A reference-carrying attribute was dropped, disconnecting resources.
    DroppedReference,
    /// An intentionally-set attribute was dropped.
    DroppedAttr,
    /// A network scope (CIDR/port range) was narrowed.
    NarrowedScope,
}

impl DeceptionKind {
    /// Stable machine-readable slug (used in provenance `RepairRejected`
    /// reasons).
    pub fn slug(self) -> &'static str {
        match self {
            DeceptionKind::DeletedResource => "deleted-resource",
            DeceptionKind::DroppedReference => "dropped-reference",
            DeceptionKind::DroppedAttr => "dropped-attr",
            DeceptionKind::NarrowedScope => "narrowed-scope",
        }
    }
}

/// One detected deceptive change.
#[derive(Debug, Clone)]
pub struct Deception {
    /// The deception class.
    pub kind: DeceptionKind,
    /// The resource the change happened on.
    pub resource: ResourceId,
    /// Human-readable description of the change.
    pub detail: String,
}

impl fmt::Display for Deception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.slug(), self.detail)
    }
}

/// What the violated checks *sanction*: removals they genuinely demand.
struct Sanctions {
    /// Resource types whose deletion a violated degree constraint excuses
    /// (`true` flags a negated type spec — any type is excused).
    deletable: BTreeSet<String>,
    any_deletable: bool,
    /// `(holder type, target type)` pairs whose connecting references a
    /// violated degree constraint excuses dropping.
    ref_drops: Vec<(String, String)>,
}

impl Sanctions {
    fn from_violated(violated: &[Check]) -> Self {
        let mut out = Sanctions {
            deletable: BTreeSet::new(),
            any_deletable: false,
            ref_drops: Vec::new(),
        };
        for check in violated {
            collect_degree_sanctions(check, &mut out);
        }
        out
    }

    fn deletion_sanctioned(&self, rtype: &str) -> bool {
        self.any_deletable || self.deletable.contains(rtype)
    }

    fn ref_drop_sanctioned(&self, holder: &str, target: &str) -> bool {
        self.any_deletable
            || self
                .ref_drops
                .iter()
                .any(|(h, t)| h == holder && t == target)
    }
}

fn collect_degree_sanctions(check: &Check, out: &mut Sanctions) {
    for operand in check.stmt.atoms().flat_map(Expr::operands) {
        match operand {
            // `indegree(v, τ)` constrains how many τ-resources point at v:
            // a violated instance may require deleting a τ source or the
            // reference it holds.
            Val::InDegree { var, tau } => {
                if tau.negated() {
                    out.any_deletable = true;
                } else {
                    out.deletable.insert(tau.type_name().to_string());
                    if let Some(target) = check.type_of(var) {
                        out.ref_drops
                            .push((tau.type_name().to_string(), target.to_string()));
                    }
                }
            }
            // `outdegree(v, τ)` constrains how many τ-resources v points
            // at: dropping v's references to τ (or a τ target) is fair.
            Val::OutDegree { var, tau } => {
                if tau.negated() {
                    out.any_deletable = true;
                } else {
                    out.deletable.insert(tau.type_name().to_string());
                    if let Some(holder) = check.type_of(var) {
                        out.ref_drops
                            .push((holder.to_string(), tau.type_name().to_string()));
                    }
                }
            }
            _ => {}
        }
    }
}

/// True when the violated checks mention `path` on `rtype` — directly, as
/// an ancestor (dropping a block whose field a check reads *is* a change
/// the check asked about), or as a descendant.
fn mentioned(mentions: &BTreeMap<String, BTreeSet<String>>, rtype: &str, path: &str) -> bool {
    let Some(set) = mentions.get(rtype) else {
        return false;
    };
    set.iter().any(|m| {
        m == path
            || m.strip_prefix(path).is_some_and(|r| r.starts_with('.'))
            || path
                .strip_prefix(m.as_str())
                .is_some_and(|r| r.starts_with('.'))
    })
}

/// Diffs `repaired` against `original` under the violated-check IR and
/// returns every deceptive change found, in deterministic order.
pub fn detect(
    original: &Program,
    repaired: &Program,
    violated: &[Check],
    kb: &KnowledgeBase,
) -> Vec<Deception> {
    let mentions = ground::relevant_attrs(violated.iter());
    let sanctions = Sanctions::from_violated(violated);
    let mut out = Vec::new();

    for before in original.resources() {
        let id = before.id();
        let Some(after) = repaired.find(&id) else {
            if !sanctions.deletion_sanctioned(&before.rtype) {
                out.push(Deception {
                    kind: DeceptionKind::DeletedResource,
                    resource: id.clone(),
                    detail: format!("resource `{id}` was deleted by the repair"),
                });
            }
            continue;
        };
        diff_resource(before, after, &mentions, &sanctions, kb, &mut out);
    }
    out
}

fn diff_resource(
    before: &Resource,
    after: &Resource,
    mentions: &BTreeMap<String, BTreeSet<String>>,
    sanctions: &Sanctions,
    kb: &KnowledgeBase,
    out: &mut Vec<Deception>,
) {
    let id = before.id();
    let mut dropped_heads: BTreeSet<&str> = BTreeSet::new();

    // --- top-level attribute drops ---------------------------------------
    for (key, value) in &before.attrs {
        if after.attrs.contains_key(key) {
            continue;
        }
        dropped_heads.insert(key.as_str());
        let refs = {
            let mut collected = Vec::new();
            value.collect_refs(&zodiac_model::AttrPath::single(key.clone()), &mut collected);
            collected
        };
        if let Some((_, reference)) = refs.first() {
            if !mentioned(mentions, &before.rtype, key)
                && !sanctions.ref_drop_sanctioned(&before.rtype, &reference.rtype)
            {
                out.push(Deception {
                    kind: DeceptionKind::DroppedReference,
                    resource: id.clone(),
                    detail: format!(
                        "`{key}` referencing {}.{} was removed, but no violated check \
                         mentions it",
                        reference.rtype, reference.name
                    ),
                });
            }
            continue;
        }
        if !mentioned(mentions, &before.rtype, key) {
            out.push(Deception {
                kind: DeceptionKind::DroppedAttr,
                resource: id.clone(),
                detail: format!("attribute `{key}` was removed, but no violated check mentions it"),
            });
        }
    }

    // --- nested drops and scope narrowing, per KB schema path -------------
    let Some(schema) = kb.resource(&before.rtype) else {
        return;
    };
    for attr in schema.attrs.values() {
        let old = before.get_all(&attr.path);
        let new = after.get_all(&attr.path);
        // Nested drop: the path resolved before and no longer does (already
        // reported when its whole top-level block went away).
        let nested_head = attr.path.split_once('.').map(|(head, _)| head);
        if nested_head.is_some_and(|head| !dropped_heads.contains(head))
            && !old.is_empty()
            && new.is_empty()
            && !mentioned(mentions, &before.rtype, &attr.path)
        {
            out.push(Deception {
                kind: DeceptionKind::DroppedAttr,
                resource: id.clone(),
                detail: format!(
                    "attribute `{}` was removed, but no violated check mentions it",
                    attr.path
                ),
            });
            continue;
        }
        // Scope narrowing on unmentioned CIDR/port attributes.
        if old.is_empty() || new.is_empty() || mentioned(mentions, &before.rtype, &attr.path) {
            continue;
        }
        let narrowing = match attr.format {
            ValueFormat::Cidr => cidr_narrowed(&old, &new),
            ValueFormat::Port => port_narrowed(&old, &new),
            // Address-prefix attributes are schema'd as plain strings on
            // some blocks; treat them as CIDR scopes when every value
            // parses as one.
            _ => cidr_narrowed_if_all_parse(&old, &new),
        };
        if narrowing {
            out.push(Deception {
                kind: DeceptionKind::NarrowedScope,
                resource: id.clone(),
                detail: format!(
                    "scope of `{}` narrowed from {} to {}, but no violated check mentions it",
                    attr.path,
                    render_vals(&old),
                    render_vals(&new)
                ),
            });
        }
    }
}

fn render_vals(vals: &[&Value]) -> String {
    let parts: Vec<String> = vals
        .iter()
        .map(|v| match v.as_str() {
            Some(s) => format!("'{s}'"),
            None => v.render(),
        })
        .collect();
    parts.join(", ")
}

/// `'*'` and `0.0.0.0/0` denote the full address range.
fn parse_cidr_scope(v: &Value) -> Option<Cidr> {
    let s = v.as_str()?;
    if s == "*" || s.eq_ignore_ascii_case("internet") || s.eq_ignore_ascii_case("any") {
        return "0.0.0.0/0".parse().ok();
    }
    zodiac_model::cidr::parse_opt(s)
}

/// Every element of `xs` is contained in some element of `ys` (equality
/// allowed, so equal scope sets are never "narrowed").
fn cidr_covered(xs: &[Cidr], ys: &[Cidr]) -> bool {
    xs.iter().all(|x| ys.iter().any(|y| y.contains(x)))
}

fn cidr_narrowed(old: &[&Value], new: &[&Value]) -> bool {
    let old: Option<Vec<Cidr>> = old.iter().map(|v| parse_cidr_scope(v)).collect();
    let new: Option<Vec<Cidr>> = new.iter().map(|v| parse_cidr_scope(v)).collect();
    match (old, new) {
        (Some(old), Some(new)) => cidr_covered(&new, &old) && !cidr_covered(&old, &new),
        _ => false,
    }
}

fn cidr_narrowed_if_all_parse(old: &[&Value], new: &[&Value]) -> bool {
    let all_parse =
        |vals: &[&Value]| !vals.is_empty() && vals.iter().all(|v| parse_cidr_scope(v).is_some());
    all_parse(old) && all_parse(new) && cidr_narrowed(old, new)
}

/// `'*'` denotes 0–65535; a port value is `n` or `a-b`.
fn parse_port_scope(v: &Value) -> Option<(u32, u32)> {
    if let Some(n) = v.as_int() {
        let n = u32::try_from(n).ok()?;
        return Some((n, n));
    }
    let s = v.as_str()?;
    if s == "*" {
        return Some((0, 65535));
    }
    match s.split_once('-') {
        Some((a, b)) => {
            let a: u32 = a.trim().parse().ok()?;
            let b: u32 = b.trim().parse().ok()?;
            Some((a.min(b), a.max(b)))
        }
        None => {
            let n: u32 = s.trim().parse().ok()?;
            Some((n, n))
        }
    }
}

fn port_covered(xs: &[(u32, u32)], ys: &[(u32, u32)]) -> bool {
    xs.iter()
        .all(|&(lo, hi)| ys.iter().any(|&(ylo, yhi)| ylo <= lo && hi <= yhi))
}

fn port_narrowed(old: &[&Value], new: &[&Value]) -> bool {
    let old: Option<Vec<(u32, u32)>> = old.iter().map(|v| parse_port_scope(v)).collect();
    let new: Option<Vec<(u32, u32)>> = new.iter().map(|v| parse_port_scope(v)).collect();
    match (old, new) {
        (Some(old), Some(new)) => port_covered(&new, &old) && !port_covered(&old, &new),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zodiac_spec::parse_check;

    fn kb() -> KnowledgeBase {
        zodiac_kb::azure_kb()
    }

    fn spot_check() -> Check {
        parse_check("let v:VM in v.priority == 'Spot' => v.eviction_policy != null").unwrap()
    }

    fn spot_vm() -> Resource {
        Resource::new("azurerm_linux_virtual_machine", "vm")
            .with("name", "vm1")
            .with("location", "eastus")
            .with("size", "Standard_B1s")
            .with("priority", "Spot")
    }

    #[test]
    fn deleting_the_violating_resource_is_deceptive() {
        let original = Program::new().with(spot_vm());
        let repaired = Program::new();
        let found = detect(&original, &repaired, &[spot_check()], &kb());
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].kind, DeceptionKind::DeletedResource);
    }

    #[test]
    fn legitimate_attribute_fix_is_clean() {
        let original = Program::new().with(spot_vm());
        let repaired = Program::new().with(spot_vm().with("eviction_policy", "Deallocate"));
        assert!(detect(&original, &repaired, &[spot_check()], &kb()).is_empty());
    }

    #[test]
    fn dropping_mentioned_attr_is_excused() {
        // Removing `priority` falsifies the condition — the check mentions
        // it, so this is a legitimate (if blunt) lever.
        let original = Program::new().with(spot_vm());
        let mut fixed = spot_vm();
        fixed.attrs.remove("priority");
        let repaired = Program::new().with(fixed);
        assert!(detect(&original, &repaired, &[spot_check()], &kb()).is_empty());
    }

    #[test]
    fn dropping_unmentioned_attr_is_deceptive() {
        let original = Program::new().with(spot_vm().with("zone", "1"));
        let mut fixed = spot_vm().with("eviction_policy", "Deallocate");
        fixed.attrs.remove("zone");
        let repaired = Program::new().with(fixed);
        let found = detect(&original, &repaired, &[spot_check()], &kb());
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, DeceptionKind::DroppedAttr);
    }

    #[test]
    fn dropping_unmentioned_reference_is_deceptive() {
        let nic_ref = Value::List(vec![Value::r("azurerm_network_interface", "nic", "id")]);
        let original = Program::new().with(spot_vm().with("network_interface_ids", nic_ref));
        let repaired = Program::new().with(spot_vm().with("eviction_policy", "Deallocate"));
        let found = detect(&original, &repaired, &[spot_check()], &kb());
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, DeceptionKind::DroppedReference);
    }

    #[test]
    fn degree_constraint_sanctions_ref_drop() {
        // A violated out-degree bound genuinely demands disconnecting.
        let degree = parse_check("let v:VM in v.name != null => outdegree(v, NIC) <= 0").unwrap();
        let nic_ref = Value::List(vec![Value::r("azurerm_network_interface", "nic", "id")]);
        let original = Program::new().with(spot_vm().with("network_interface_ids", nic_ref));
        let repaired = Program::new().with(spot_vm());
        let found = detect(&original, &repaired, &[degree], &kb());
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn narrowing_unmentioned_cidr_scope_is_deceptive() {
        let before = Resource::new("azurerm_subnet", "s")
            .with("name", "s1")
            .with(
                "address_prefixes",
                Value::List(vec![Value::s("10.0.0.0/16")]),
            )
            .with("zone", "1");
        let mut after = before.clone();
        after.attrs.insert(
            "address_prefixes".into(),
            Value::List(vec![Value::s("10.0.0.0/24")]),
        );
        after.attrs.remove("zone");
        // The violated check mentions only `zone`, not the prefix.
        let check = parse_check("let s:SUBNET in s.name != null => s.zone == null").unwrap();
        let found = detect(
            &Program::new().with(before),
            &Program::new().with(after),
            &[check],
            &kb(),
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, DeceptionKind::NarrowedScope);
    }

    #[test]
    fn star_counts_as_full_range_for_ports() {
        assert!(port_narrowed(&[&Value::s("*")], &[&Value::s("443")]));
        assert!(!port_narrowed(&[&Value::s("443")], &[&Value::s("*")]));
        assert!(!port_narrowed(&[&Value::s("0-65535")], &[&Value::s("*")]));
    }

    #[test]
    fn equal_scopes_are_not_narrowed() {
        assert!(!cidr_narrowed(
            &[&Value::s("10.0.0.0/24")],
            &[&Value::s("10.0.0.0/24")]
        ));
        assert!(cidr_narrowed(
            &[&Value::s("0.0.0.0/0")],
            &[&Value::s("10.0.0.0/8")]
        ));
    }
}
