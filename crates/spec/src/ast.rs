//! AST for the check specification language.
//!
//! This is the typed check IR shared by the whole pipeline: mining
//! constructs it through [`crate::build`], validation and the CLI consume it
//! directly, and the textual form exists only at the user boundary (parsing
//! user-authored specs, printing reports). Identifiers — variable names,
//! resource types, attribute paths — are interned [`Symbol`]s, so checks
//! hash and compare in O(1) and a cloned check shares no heap allocations.

use serde::{Deserialize, Serialize};
use std::fmt;
use zodiac_kb::short_name;
use zodiac_model::{Symbol, Value};

pub use zodiac_model::CmpOp;

/// A resource variable binding: `r1 : azurerm_linux_virtual_machine`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Binding {
    /// Variable name.
    pub var: Symbol,
    /// Full resource type name.
    pub rtype: Symbol,
}

/// A type specifier `τ ::= t | !t` used by degree aggregations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TypeSpec {
    /// Matches exactly this type.
    Is(Symbol),
    /// Matches every type except this one.
    Not(Symbol),
}

impl TypeSpec {
    /// The underlying type name.
    pub fn type_name(&self) -> &'static str {
        match self {
            TypeSpec::Is(t) | TypeSpec::Not(t) => t.as_str(),
        }
    }

    /// True if this is the negated form.
    pub fn negated(&self) -> bool {
        matches!(self, TypeSpec::Not(_))
    }
}

/// A value term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Val {
    /// A literal base value.
    Lit(Value),
    /// `r.attr` — an attribute endpoint (dotted path allowed).
    Endpoint {
        /// Variable name.
        var: Symbol,
        /// Dotted attribute path.
        attr: Symbol,
    },
    /// `indegree(r, τ)`.
    InDegree {
        /// Variable name.
        var: Symbol,
        /// Edge-source type filter.
        tau: TypeSpec,
    },
    /// `outdegree(r, τ)`.
    OutDegree {
        /// Variable name.
        var: Symbol,
        /// Edge-target type filter.
        tau: TypeSpec,
    },
    /// `length(r.attr)` — number of elements of a list attribute.
    Length(Box<Val>),
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// `conn(r1.in → r2.out)`.
    Conn {
        /// Source variable.
        src: Symbol,
        /// Inbound endpoint on the source (indices stripped).
        in_endpoint: Symbol,
        /// Destination variable.
        dst: Symbol,
        /// Outbound attribute on the destination.
        out_attr: Symbol,
    },
    /// `path(r1 → r2)`.
    Path {
        /// Source variable.
        src: Symbol,
        /// Destination variable.
        dst: Symbol,
    },
    /// `coconn(e1, e2)` — both edges exist.
    CoConn {
        /// First edge.
        first: Box<Expr>,
        /// Second edge.
        second: Box<Expr>,
    },
    /// `copath(p1, p2)` — both paths exist.
    CoPath {
        /// First path.
        first: Box<Expr>,
        /// Second path.
        second: Box<Expr>,
    },
    /// `op(val1, val2)` or infix comparison; `negated` renders as `!op(...)`.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Val,
        /// Right operand.
        rhs: Val,
        /// Outer negation.
        negated: bool,
    },
}

/// A semantic check: `let bindings in cond ⇒ stmt`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Check {
    /// Quantified resource variables.
    pub bindings: Vec<Binding>,
    /// Condition expression.
    pub cond: Expr,
    /// Statement expression.
    pub stmt: Expr,
}

/// Structural category of a check (Table 2's grouping, minus the
/// mining-provenance "interpolation" class which is not a shape property).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShapeCategory {
    /// Constrains one resource's attributes.
    Intra,
    /// Relates multiple resources without aggregation.
    Inter,
    /// Uses `indegree`/`outdegree`/`length` aggregation.
    InterAgg,
}

impl Expr {
    /// The atoms of this expression in printing order: every `conn`,
    /// `path` and comparison, descending through `coconn`/`copath`.
    pub fn atoms(&self) -> impl Iterator<Item = &Expr> {
        Atoms { stack: vec![self] }
    }

    /// The operands of a comparison, each read through any `length(...)`
    /// to the term it measures; none for any other expression.
    pub fn operands(&self) -> impl Iterator<Item = &Val> {
        let pair = match self {
            Expr::Cmp { lhs, rhs, .. } => Some([lhs, rhs]),
            _ => None,
        };
        pair.into_iter().flatten().map(|mut v| {
            while let Val::Length(inner) = v {
                v = inner;
            }
            v
        })
    }
}

/// Iterator over an expression's atoms; see [`Expr::atoms`].
struct Atoms<'a> {
    stack: Vec<&'a Expr>,
}

impl<'a> Iterator for Atoms<'a> {
    type Item = &'a Expr;

    fn next(&mut self) -> Option<&'a Expr> {
        loop {
            match self.stack.pop()? {
                Expr::CoConn { first, second } | Expr::CoPath { first, second } => {
                    self.stack.push(second);
                    self.stack.push(first);
                }
                atom => return Some(atom),
            }
        }
    }
}

impl Check {
    /// The atoms of the condition, then of the statement.
    pub fn atoms(&self) -> impl Iterator<Item = &Expr> {
        self.cond.atoms().chain(self.stmt.atoms())
    }

    /// The structural category of this check.
    pub fn shape_category(&self) -> ShapeCategory {
        let aggregates = |v: &Val| {
            matches!(
                v,
                Val::InDegree { .. } | Val::OutDegree { .. } | Val::Length(_)
            )
        };
        if self
            .atoms()
            .any(|a| matches!(a, Expr::Cmp { lhs, rhs, .. } if aggregates(lhs) || aggregates(rhs)))
        {
            ShapeCategory::InterAgg
        } else if self.bindings.len() > 1 {
            ShapeCategory::Inter
        } else {
            ShapeCategory::Intra
        }
    }

    /// The declared type of a variable, if bound.
    pub fn type_of(&self, var: &str) -> Option<&'static str> {
        self.bindings
            .iter()
            .find(|b| b.var == *var)
            .map(|b| b.rtype.as_str())
    }

    /// Resource types mentioned in the bindings (deduplicated, in order).
    pub fn types(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for b in &self.bindings {
            if !out.contains(&b.rtype.as_str()) {
                out.push(b.rtype.as_str());
            }
        }
        out
    }

    /// A stable canonical string form, used at text boundaries (reports,
    /// logs, fixtures). In-pipeline dedup hashes the IR directly.
    pub fn canonical(&self) -> String {
        self.to_string()
    }

    /// A 64-bit FNV-1a hash of the canonical form: the candidate's
    /// identity in observability traces and provenance ledgers. Stable
    /// across runs and processes (pure function of the canonical string),
    /// printed as 16 lowercase hex digits at text boundaries.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.canonical().bytes())
    }
}

/// The 64-bit FNV-1a offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// Folds `bytes` into the 64-bit FNV-1a `hash`.
fn fnv1a(hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100000001b3))
}

/// A stable 64-bit identity for a check *set*: FNV-1a over the per-check
/// canonical fingerprints in order. Used wherever a verdict depends on the
/// whole set at once — the scan memo key (a cache survives check-set swaps
/// without invalidation) and the repair fingerprint (a repair is only
/// meaningful relative to the set it was asked to satisfy).
pub fn check_set_key(checks: &[Check]) -> u64 {
    fingerprint_set_key(checks.iter().map(Check::fingerprint))
}

/// [`check_set_key`] from the checks' fingerprints, for callers that keep
/// them and need not render every check again.
pub fn fingerprint_set_key(fingerprints: impl IntoIterator<Item = u64>) -> u64 {
    fingerprints
        .into_iter()
        .fold(FNV_OFFSET, |h, fp| fnv1a(h, fp.to_le_bytes()))
}

/// Escapes a string literal for the check language: backslash-escapes the
/// quote and the backslash itself so every string round-trips through
/// [`crate::parse_check`].
fn escape_str(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "'")?;
    #[cfg(feature = "test-hooks")]
    if crate::test_hooks::literal_escaping_disabled() {
        // Reinstates the pre-IR-refactor bug for mutation-testing the
        // fuzzer: literals print raw, so embedded quotes break re-parsing.
        write!(f, "{s}")?;
        return write!(f, "'");
    }
    for c in s.chars() {
        match c {
            '\'' | '\\' => write!(f, "\\{c}")?,
            _ => write!(f, "{c}")?,
        }
    }
    write!(f, "'")
}

fn fmt_val(v: &Val, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match v {
        Val::Lit(Value::Str(s)) => escape_str(s, f),
        Val::Lit(other) => write!(f, "{}", other.render()),
        Val::Endpoint { var, attr } => write!(f, "{var}.{attr}"),
        Val::InDegree { var, tau } => write!(f, "indegree({var}, {})", fmt_tau(tau)),
        Val::OutDegree { var, tau } => write!(f, "outdegree({var}, {})", fmt_tau(tau)),
        Val::Length(inner) => {
            write!(f, "length(")?;
            fmt_val(inner, f)?;
            write!(f, ")")
        }
    }
}

fn fmt_tau(tau: &TypeSpec) -> String {
    match tau {
        TypeSpec::Is(t) => short_name(t).to_string(),
        TypeSpec::Not(t) => format!("!{}", short_name(t)),
    }
}

/// Prints the interior of a `conn`/`path` edge (no surrounding call syntax),
/// used by the `coconn`/`copath` forms.
fn fmt_edge(e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match e {
        Expr::Conn {
            src,
            in_endpoint,
            dst,
            out_attr,
        } => write!(f, "{src}.{in_endpoint} -> {dst}.{out_attr}"),
        Expr::Path { src, dst } => write!(f, "{src} -> {dst}"),
        // Grammatically co-forms only nest edges; print anything else in
        // full so malformed IR stays visible rather than truncated.
        other => write!(f, "{other}"),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Conn { .. } => {
                write!(f, "conn(")?;
                fmt_edge(self, f)?;
                write!(f, ")")
            }
            Expr::Path { .. } => {
                write!(f, "path(")?;
                fmt_edge(self, f)?;
                write!(f, ")")
            }
            Expr::CoConn { first, second } => {
                write!(f, "coconn(")?;
                fmt_edge(first, f)?;
                write!(f, ", ")?;
                fmt_edge(second, f)?;
                write!(f, ")")
            }
            Expr::CoPath { first, second } => {
                write!(f, "copath(")?;
                fmt_edge(first, f)?;
                write!(f, ", ")?;
                fmt_edge(second, f)?;
                write!(f, ")")
            }
            Expr::Cmp {
                op,
                lhs,
                rhs,
                negated,
            } => {
                if *negated {
                    write!(f, "!")?;
                }
                match op {
                    CmpOp::Overlap | CmpOp::Contain => {
                        write!(f, "{op}(")?;
                        fmt_val(lhs, f)?;
                        write!(f, ", ")?;
                        fmt_val(rhs, f)?;
                        write!(f, ")")
                    }
                    _ => {
                        fmt_val(lhs, f)?;
                        write!(f, " {op} ")?;
                        fmt_val(rhs, f)
                    }
                }
            }
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "let ")?;
        for (i, b) in self.bindings.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}", b.var, short_name(&b.rtype))?;
        }
        write!(f, " in {} => {}", self.cond, self.stmt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_check;

    #[test]
    fn atoms_descend_co_forms_in_printing_order() {
        let check = parse_check(
            "let r1:SUBNET, r2:SUBNET, r3:VPC in \
             coconn(r1.virtual_network_name -> r3.name, r2.virtual_network_name -> r3.name) \
             => length(r1.address_prefixes) >= indegree(r3, SUBNET)",
        )
        .unwrap();
        let atoms: Vec<String> = check.atoms().map(ToString::to_string).collect();
        assert_eq!(
            atoms,
            [
                "conn(r1.virtual_network_name -> r3.name)",
                "conn(r2.virtual_network_name -> r3.name)",
                "length(r1.address_prefixes) >= indegree(r3, SUBNET)",
            ]
        );
        let operands: Vec<&Val> = check.atoms().flat_map(Expr::operands).collect();
        assert!(matches!(operands[0], Val::Endpoint { attr, .. } if *attr == "address_prefixes"));
        assert!(matches!(operands[1], Val::InDegree { .. }));
        assert_eq!(check.shape_category(), ShapeCategory::InterAgg);
    }
}
