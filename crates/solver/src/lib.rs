//! A finite-domain constraint solver with weighted soft constraints.
//!
//! Zodiac's solver-aided mutation (§4.1) encodes a positive test case with
//! symbolic attribute values and asks a solver for a concrete assignment
//! that violates the target check, conforms to every other known check, and
//! *minimises the distance* from the original program. The paper uses Z3
//! with MaxSMT optimisation objectives; this crate implements the same
//! contract over the (finite) mutation search space:
//!
//! * variables range over explicit candidate-value domains (enum members,
//!   locations, adjacent CIDR ranges, candidate endpoints, booleans);
//! * **hard** constraints must hold — if they cannot, the problem is UNSAT
//!   (the signal the validation scheduler uses to classify checks);
//! * **soft** constraints carry weights; the solver branch-and-bounds to an
//!   assignment of minimum total violated weight, which encodes both
//!   "prefer original values" and "prefer violating no `R_c` check".
//!
//! The search is exact for the sizes mutation produces (tens of variables,
//! small domains); a node budget bounds pathological cases, returning the
//! best solution found so far (and never spuriously reporting UNSAT: the
//! budget only kicks in after a first solution exists).
//!
//! # Seeded re-solving
//!
//! Repair solves a relaxed problem first, then the full one over the same
//! variables. [`Problem::seed_bound`] turns the earlier model into a
//! feasible penalty upper bound for the new problem, and
//! [`solve_with_bound`] uses that bound for strictly-better pruning —
//! returning a result *identical* to a cold [`solve`], just faster.

mod constraint;
mod search;

pub use constraint::{Constraint, Op, Term};
pub use search::{solve, solve_with_bound, Outcome, Solution};

use zodiac_model::Value;

/// Index of a solver variable.
pub type VarId = usize;

/// A constraint problem over finite-domain variables.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    domains: Vec<Vec<Value>>,
    hard: Vec<Constraint>,
    soft: Vec<(Constraint, u64)>,
    node_budget: Option<u64>,
}

impl Problem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Problem::default()
    }

    /// Adds a variable with a candidate domain, ordered by preference
    /// (the search tries earlier values first). Empty domains make the
    /// problem trivially UNSAT.
    pub fn add_var(&mut self, domain: Vec<Value>) -> VarId {
        self.domains.push(domain);
        self.domains.len() - 1
    }

    /// Adds a boolean variable (preferring `false`).
    pub fn add_bool(&mut self) -> VarId {
        self.add_var(vec![Value::Bool(false), Value::Bool(true)])
    }

    /// Adds a hard constraint.
    pub fn require(&mut self, c: Constraint) {
        self.hard.push(c);
    }

    /// Adds a soft constraint with a violation weight.
    pub fn prefer(&mut self, c: Constraint, weight: u64) {
        self.soft.push((c, weight));
    }

    /// Caps the number of search nodes explored after the first solution.
    pub fn set_node_budget(&mut self, budget: u64) {
        self.node_budget = Some(budget);
    }

    /// The variable domains.
    pub fn domains(&self) -> &[Vec<Value>] {
        &self.domains
    }

    /// The hard constraints.
    pub fn hard(&self) -> &[Constraint] {
        &self.hard
    }

    /// The soft constraints.
    pub fn soft(&self) -> &[(Constraint, u64)] {
        &self.soft
    }

    pub(crate) fn budget(&self) -> u64 {
        self.node_budget.unwrap_or(2_000_000)
    }

    /// Validates a previous model against this problem and, when it still
    /// satisfies every hard constraint (and every value is in-domain),
    /// returns its total soft penalty — a feasible upper bound suitable for
    /// [`solve_with_bound`]. Returns `None` when the model does not carry
    /// over; solving then falls back to a cold search.
    pub fn seed_bound(&self, assignment: &[Value]) -> Option<u64> {
        if assignment.len() != self.domains.len() {
            return None;
        }
        for (value, domain) in assignment.iter().zip(&self.domains) {
            if !domain.contains(value) {
                return None;
            }
        }
        let full: Vec<Option<Value>> = assignment.iter().cloned().map(Some).collect();
        for c in &self.hard {
            if c.eval(&full) != Some(true) {
                return None;
            }
        }
        let mut penalty = 0u64;
        for (c, w) in &self.soft {
            if c.eval(&full) != Some(true) {
                penalty += w;
            }
        }
        Some(penalty)
    }
}

#[cfg(test)]
mod delta_tests {
    use super::*;

    #[test]
    fn seed_bound_totals_ground_softs() {
        let mut p = Problem::new();
        let x = p.add_var(vec![Value::Int(0), Value::Int(1)]);
        p.prefer(Constraint::False, 5); // Ground, always violated.
        p.prefer(Constraint::eq(Term::Var(x), Term::i(1)), 3);
        assert_eq!(p.seed_bound(&[Value::Int(1)]), Some(5));
        assert_eq!(p.seed_bound(&[Value::Int(0)]), Some(8));
    }
}
