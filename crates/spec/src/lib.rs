//! The Zodiac semantic-check specification language (§3.2, Figure 4).
//!
//! A semantic check is `let r₁:t₁, …, rₙ:tₙ in exp₁ ⇒ exp₂`: universally
//! quantified over bindings of the declared resource variables, whenever the
//! condition expression holds the statement expression must hold too.
//! Expressions combine **topological** predicates over the resource graph
//! (`conn`, `path`, `coconn`, `copath`), **aggregation** values
//! (`indegree`, `outdegree`), and comparisons over attribute endpoints
//! (`==`, `!=`, `<=`, `>=`, `<`, `>`, `overlap`, `contain`, `length`).
//!
//! # Examples
//!
//! ```
//! use zodiac_spec::parse_check;
//! let check = parse_check(
//!     "let r1:VM, r2:NIC in \
//!      conn(r1.network_interface_ids -> r2.id) => r1.location == r2.location",
//! )
//! .unwrap();
//! assert_eq!(check.bindings.len(), 2);
//! ```

pub mod ast;
pub mod build;
pub mod eval;
pub mod parser;
#[cfg(feature = "test-hooks")]
pub mod test_hooks;

pub use ast::{
    check_set_key, fingerprint_set_key, Binding, Check, CmpOp, Expr, ShapeCategory, TypeSpec, Val,
};
pub use eval::{first_witness, holds, instances, violations, Env, EvalContext, Instance};
pub use parser::{parse_check, ParseError};
