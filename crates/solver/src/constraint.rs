//! Constraint representation and three-valued evaluation.

use crate::VarId;
use zodiac_model::Value;

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A solver variable.
    Var(VarId),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Convenience constructor for string constants.
    pub fn s(v: impl Into<String>) -> Term {
        Term::Const(Value::Str(v.into()))
    }

    /// Convenience constructor for integer constants.
    pub fn i(v: i64) -> Term {
        Term::Const(Value::Int(v))
    }

    fn value<'a>(&'a self, assignment: &'a [Option<Value>]) -> Option<&'a Value> {
        match self {
            Term::Var(v) => assignment.get(*v).and_then(|o| o.as_ref()),
            Term::Const(c) => Some(c),
        }
    }
}

/// Relational operators over terms — the same operator set the check
/// language uses, so mutation passes check operators through unchanged.
pub use zodiac_model::CmpOp as Op;

/// A constraint over solver variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// Always true.
    True,
    /// Always false.
    False,
    /// `lhs op rhs`.
    Cmp {
        /// Operator.
        op: Op,
        /// Left term.
        lhs: Term,
        /// Right term.
        rhs: Term,
    },
    /// Negation.
    Not(Box<Constraint>),
    /// Conjunction.
    And(Vec<Constraint>),
    /// Disjunction.
    Or(Vec<Constraint>),
    /// `offset + Σ bool-vars op bound` — pseudo-boolean counting, used for
    /// degree constraints ("at most k NICs may be instantiated").
    Linear {
        /// Boolean variables counted when true.
        vars: Vec<VarId>,
        /// Constant offset (already-present edges).
        offset: i64,
        /// Comparison operator (`Le`, `Ge`, `Lt`, `Gt`, `Eq`, `Ne`).
        op: Op,
        /// Right-hand bound.
        bound: i64,
    },
}

impl Constraint {
    /// `lhs == rhs`.
    pub fn eq(lhs: Term, rhs: Term) -> Constraint {
        Constraint::Cmp {
            op: Op::Eq,
            lhs,
            rhs,
        }
    }

    /// `lhs != rhs`.
    pub fn ne(lhs: Term, rhs: Term) -> Constraint {
        Constraint::Cmp {
            op: Op::Ne,
            lhs,
            rhs,
        }
    }

    /// `a => b` as `¬a ∨ b`.
    pub fn implies(a: Constraint, b: Constraint) -> Constraint {
        Constraint::Or(vec![Constraint::Not(Box::new(a)), b])
    }

    /// Three-valued evaluation under a partial assignment: `Some(b)` when
    /// the truth value is already determined, `None` otherwise.
    pub fn eval(&self, assignment: &[Option<Value>]) -> Option<bool> {
        match self {
            Constraint::True => Some(true),
            Constraint::False => Some(false),
            Constraint::Cmp { op, lhs, rhs } => {
                let l = lhs.value(assignment)?;
                let r = rhs.value(assignment)?;
                Some(op.holds(l, r))
            }
            Constraint::Not(inner) => inner.eval(assignment).map(|b| !b),
            Constraint::And(items) => {
                let mut all_known = true;
                for item in items {
                    match item.eval(assignment) {
                        Some(false) => return Some(false),
                        Some(true) => {}
                        None => all_known = false,
                    }
                }
                if all_known {
                    Some(true)
                } else {
                    None
                }
            }
            Constraint::Or(items) => {
                let mut all_known = true;
                for item in items {
                    match item.eval(assignment) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => all_known = false,
                    }
                }
                if all_known {
                    Some(false)
                } else {
                    None
                }
            }
            Constraint::Linear {
                vars,
                offset,
                op,
                bound,
            } => {
                let mut min = *offset;
                let mut max = *offset;
                for v in vars {
                    match assignment.get(*v).and_then(|o| o.as_ref()) {
                        Some(Value::Bool(true)) => {
                            min += 1;
                            max += 1;
                        }
                        Some(_) => {}
                        None => max += 1,
                    }
                }
                linear_range(*op, min, max, *bound)
            }
        }
    }
}

fn linear_range(op: Op, min: i64, max: i64, bound: i64) -> Option<bool> {
    let over = |v: i64| op.holds(&Value::Int(v), &Value::Int(bound));
    match op {
        Op::Le | Op::Lt => {
            if over(max) {
                Some(true)
            } else if !over(min) {
                Some(false)
            } else {
                None
            }
        }
        Op::Ge | Op::Gt => {
            if over(min) {
                Some(true)
            } else if !over(max) {
                Some(false)
            } else {
                None
            }
        }
        Op::Eq | Op::Ne => {
            if min == max {
                Some(over(min))
            } else if bound < min || bound > max {
                Some(op == Op::Ne)
            } else {
                None
            }
        }
        Op::Overlap | Op::Contain => Some(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_valued_cmp() {
        let c = Constraint::eq(Term::Var(0), Term::s("eastus"));
        assert_eq!(c.eval(&[None]), None);
        assert_eq!(c.eval(&[Some(Value::s("eastus"))]), Some(true));
        assert_eq!(c.eval(&[Some(Value::s("westus"))]), Some(false));
    }

    #[test]
    fn and_or_short_circuit_on_partial() {
        let t = Constraint::True;
        let f = Constraint::False;
        let unknown = Constraint::eq(Term::Var(0), Term::i(1));
        let a = &[None];
        assert_eq!(
            Constraint::And(vec![f.clone(), unknown.clone()]).eval(a),
            Some(false)
        );
        assert_eq!(
            Constraint::And(vec![t.clone(), unknown.clone()]).eval(a),
            None
        );
        assert_eq!(Constraint::Or(vec![t, unknown.clone()]).eval(a), Some(true));
        assert_eq!(Constraint::Or(vec![f, unknown]).eval(a), None);
    }

    #[test]
    fn implies_encoding() {
        let imp = Constraint::implies(
            Constraint::eq(Term::Var(0), Term::s("Spot")),
            Constraint::ne(Term::Var(1), Term::Const(Value::Null)),
        );
        let sat = &[Some(Value::s("Spot")), Some(Value::s("Deallocate"))];
        let unsat = &[Some(Value::s("Spot")), Some(Value::Null)];
        let vacuous = &[Some(Value::s("Regular")), Some(Value::Null)];
        assert_eq!(imp.eval(sat), Some(true));
        assert_eq!(imp.eval(unsat), Some(false));
        assert_eq!(imp.eval(vacuous), Some(true));
    }

    #[test]
    fn linear_bounds() {
        // offset 2 + two bool vars <= 3
        let c = Constraint::Linear {
            vars: vec![0, 1],
            offset: 2,
            op: Op::Le,
            bound: 3,
        };
        assert_eq!(c.eval(&[None, None]), None);
        assert_eq!(c.eval(&[Some(Value::Bool(true)), None]), None);
        assert_eq!(
            c.eval(&[Some(Value::Bool(true)), Some(Value::Bool(true))]),
            Some(false)
        );
        assert_eq!(c.eval(&[Some(Value::Bool(false)), None]), Some(true));
    }

    #[test]
    fn cidr_ops() {
        let overlap = Constraint::Cmp {
            op: Op::Overlap,
            lhs: Term::s("10.0.0.0/16"),
            rhs: Term::s("10.0.1.0/24"),
        };
        assert_eq!(overlap.eval(&[]), Some(true));
        let contain = Constraint::Cmp {
            op: Op::Contain,
            lhs: Term::s("10.0.1.0/24"),
            rhs: Term::s("10.0.0.0/16"),
        };
        assert_eq!(contain.eval(&[]), Some(false));
    }

    #[test]
    fn integers_equal_their_decimal_strings_as_in_the_evaluator() {
        // The evaluator holds `r.x == 2` on `x = "2"`; so does the solver.
        assert_eq!(
            Constraint::eq(Term::i(2), Term::s("2")).eval(&[]),
            Some(true)
        );
        assert_eq!(
            Constraint::ne(Term::i(2), Term::s("2")).eval(&[]),
            Some(false)
        );
    }

    #[test]
    fn non_cidr_strings_never_overlap() {
        let c = Constraint::Cmp {
            op: Op::Overlap,
            lhs: Term::s("hello"),
            rhs: Term::s("10.0.0.0/8"),
        };
        assert_eq!(c.eval(&[]), Some(false));
    }
}
