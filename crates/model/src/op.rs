//! The comparison operators shared by the check language and the solver,
//! and their one truth table.
//!
//! The spec AST (`zodiac-spec`) and the finite-domain constraint language
//! (`zodiac-solver`) use the exact same operator set; defining it once here
//! lets the mutation engine pass operators straight from a check into solver
//! constraints without a conversion table. [`CmpOp::holds`] is what each
//! operator means on two values, for the evaluator and the solver alike.

use crate::{Cidr, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison / function operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// CIDR ranges share addresses.
    Overlap,
    /// First CIDR contains the second.
    Contain,
}

impl CmpOp {
    /// Whether `l op r` holds on two single values. Equality tolerates an
    /// integer against its decimal string (`2 == '2'`); the orderings need
    /// two integers and the CIDR operators two CIDR strings, and are false
    /// otherwise.
    #[inline]
    pub fn holds(self, l: &Value, r: &Value) -> bool {
        let ints = || Some((l.as_int()?, r.as_int()?));
        let cidrs = || Some((cidr(l)?, cidr(r)?));
        match self {
            CmpOp::Eq => equal(l, r),
            CmpOp::Ne => !equal(l, r),
            CmpOp::Le => ints().is_some_and(|(a, b)| a <= b),
            CmpOp::Ge => ints().is_some_and(|(a, b)| a >= b),
            CmpOp::Lt => ints().is_some_and(|(a, b)| a < b),
            CmpOp::Gt => ints().is_some_and(|(a, b)| a > b),
            CmpOp::Overlap => cidrs().is_some_and(|(a, b)| a.overlaps(&b)),
            CmpOp::Contain => cidrs().is_some_and(|(a, b)| a.contains(&b)),
        }
    }
}

#[inline]
fn equal(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Int(a), Value::Str(b)) | (Value::Str(b), Value::Int(a)) => {
            b.parse::<i64>() == Ok(*a)
        }
        _ => l == r,
    }
}

fn cidr(v: &Value) -> Option<Cidr> {
    v.as_str()?.parse().ok()
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
            CmpOp::Overlap => "overlap",
            CmpOp::Contain => "contain",
        };
        write!(f, "{s}")
    }
}
