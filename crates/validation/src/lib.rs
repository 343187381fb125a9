//! Deployment-based validation of hypothesized semantic checks (§4).
//!
//! For every candidate check the engine finds a **positive test case** — a
//! corpus program that witnesses the check, pruned to a *minimal deployable
//! configuration* ([`mdc`]) — and derives a **negative test case** by
//! solver-aided mutation ([`mutate`]): an assignment that violates the
//! target check while conforming to every validated check (hard) and
//! minimally disturbing the other candidates (soft). The **validation
//! scheduler** ([`scheduler`], Figure 5) alternates false-positive removal
//! and true-positive validation passes, grouping *indistinguishable* checks
//! that no test case can separate, until the candidate set empties.
//!
//! Deployment itself goes through the [`DeployOracle`] trait — the cloud
//! simulator in this repository, real Azure in the paper.

pub mod counterexample;
pub mod ground;
pub mod mdc;
pub mod mutate;
pub mod plan;
pub mod scheduler;

pub use mdc::{find_positive, find_positive_indexed, CorpusIndex, MdcStats, PositiveCase};
pub use mutate::{MutationConfig, MutationResult, NegativeCase};
pub use plan::{plan_waves, PlanCandidate, TypeReach, WavePlan};
pub use scheduler::{
    FalsifiedCheck, FalsifyReason, Scheduler, SchedulerConfig, ValidatedCheck, ValidationOutcome,
    ValidationTrace,
};

// The oracle abstraction lives next to the simulator; re-exported here
// because validation is its primary consumer and callers historically
// imported it from this crate.
pub use zodiac_cloud::DeployOracle;
