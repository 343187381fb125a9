//! The validation scheduling algorithm (Figure 5).
//!
//! The scheduler alternates two passes over the candidate set `R_c` until it
//! empties (O1):
//!
//! * **False-positive removal**: each candidate gets a negative test that
//!   conforms to every validated check (hard) while minimising violations of
//!   the other candidates (soft, O2). Candidates whose negative test cannot
//!   exist (UNSAT) or *deploys successfully* are false positives — and when
//!   a successful deployment violates several candidates at once, all of
//!   them fall together.
//! * **True-positive validation**: a candidate whose negative test fails to
//!   deploy is validated when it is the *only* violated candidate, or when
//!   every violated candidate belongs to the same *indistinguishable group*
//!   (O3) — a set of checks no test case can separate, established by UNSAT
//!   probes.
//!
//! Candidates are processed in *evaluation partial order* (O4): checks
//! anchored on types that deploy earlier are evaluated first, which breaks
//! reasoning loops among inter-resource checks.
//!
//! The false-positive pass runs in conflict-free *waves* ([`crate::plan`]):
//! wave members are encoded against one speculative snapshot and deployed
//! as one batch, then the exact one-candidate-at-a-time timeline is
//! replayed, so every verdict is the one Figure 5's loop reaches. A
//! test-only copy of that loop (`scheduler/reference.rs`) is the reference
//! the wave path is checked against.

use crate::mdc::{self, PositiveCase};
use crate::mutate::{self, MutationConfig, MutationResult};
use crate::plan;
use crate::DeployOracle;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use zodiac_cloud::DeployReport;
use zodiac_kb::KnowledgeBase;
use zodiac_mining::MinedCheck;
use zodiac_model::{Program, Symbol};
use zodiac_obs::{Lifecycle, MetricsSnapshot, Obs, Polarity};
use zodiac_spec::{Check, Expr, Val};

/// Scheduler configuration, including the Figure 8 ablation switches.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Resolve indistinguishable groups (O3). Disabling reproduces
    /// Figure 8b: validation stalls with a non-empty `R_c`.
    pub handle_indistinguishable: bool,
    /// Order candidates by the deployment partial order (O4).
    pub use_partial_order: bool,
    /// Maximum outer iterations before declaring the rest unresolved.
    pub max_iterations: usize,
    /// Mutation settings (Table 5 ablations).
    pub mutation: MutationConfig,
    /// Maximum corpus programs scanned per positive-case search.
    pub max_scan: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            handle_indistinguishable: true,
            use_partial_order: true,
            max_iterations: 8,
            mutation: MutationConfig::default(),
            max_scan: 400,
        }
    }
}

/// Why a candidate was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FalsifyReason {
    /// No corpus program witnesses the check and none could be synthesised.
    NoPositiveCase,
    /// Every mutation violating the check also violates `R_v` (solver
    /// UNSAT).
    Unsatisfiable,
    /// A negative test deployed successfully.
    Deployable,
    /// The statement shape is outside the mutation repertoire.
    NotApplicable,
}

impl FalsifyReason {
    /// Stable machine-readable reason string used in `Demoted` lifecycle
    /// events and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            FalsifyReason::NoPositiveCase => "no_positive_case",
            FalsifyReason::Unsatisfiable => "unsatisfiable",
            FalsifyReason::Deployable => "deployable",
            FalsifyReason::NotApplicable => "not_applicable",
        }
    }
}

/// Splits a deploy report into the (success, phase, rule) triple carried by
/// `DeployOutcome` lifecycle events.
fn outcome_fields(report: &DeployReport) -> (bool, String, String) {
    match &report.outcome {
        zodiac_cloud::DeployOutcome::Success => (true, String::new(), String::new()),
        zodiac_cloud::DeployOutcome::Failure { phase, rule_id, .. } => {
            (false, phase.to_string(), rule_id.clone())
        }
    }
}

/// A validated check.
#[derive(Debug, Clone, Serialize)]
pub struct ValidatedCheck {
    /// The mined check and its statistics.
    pub mined: MinedCheck,
    /// True if validated through an indistinguishable group (more than one
    /// candidate violated by its negative test).
    pub via_group: bool,
    /// The deployment report of the failing negative test.
    pub negative_report: DeployReport,
    /// Size of the negative test program.
    pub negative_size: usize,
}

/// A falsified check.
#[derive(Debug, Clone, Serialize)]
pub struct FalsifiedCheck {
    /// The mined check.
    pub mined: MinedCheck,
    /// Why it fell.
    pub reason: FalsifyReason,
}

/// Per-iteration statistics (Figure 8).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct IterationStats {
    /// Cumulative validated checks after this iteration.
    pub validated_total: usize,
    /// Cumulative false positives after this iteration.
    pub false_positive_total: usize,
    /// Candidates still open.
    pub remaining: usize,
    /// FPs removed this iteration because the negative test deployed.
    pub fp_deployable: usize,
    /// FPs removed this iteration because mutation was UNSAT.
    pub fp_unsatisfiable: usize,
    /// TPs validated with a single-violation negative test.
    pub tp_single: usize,
    /// TPs validated through an indistinguishable group.
    pub tp_multiple: usize,
    /// Deploy requests issued this iteration (0 unless the oracle reports
    /// telemetry, i.e. deployment goes through an execution engine).
    pub deploy_requests: u64,
    /// Of those, requests served from the engine's memoization cache.
    pub deploy_cache_hits: u64,
}

/// Full per-run trace.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ValidationTrace {
    /// One entry per outer iteration.
    pub iterations: Vec<IterationStats>,
    /// Final execution-engine metrics (the `deploy.*` namespace), when the
    /// oracle collects any.
    pub deploy: Option<MetricsSnapshot>,
}

/// Outcome of a validation run.
#[derive(Debug, Clone, Serialize)]
pub struct ValidationOutcome {
    /// `R_v`: validated checks.
    pub validated: Vec<ValidatedCheck>,
    /// Discarded candidates.
    pub false_positives: Vec<FalsifiedCheck>,
    /// Candidates still open when the run ended (non-empty only when the
    /// scheduler stalls, e.g. with indistinguishability handling disabled).
    pub unresolved: Vec<MinedCheck>,
    /// Indistinguishable groups found (indices into `validated`).
    pub groups: Vec<Vec<usize>>,
    /// Per-iteration trace.
    pub trace: ValidationTrace,
}

impl ValidationOutcome {
    /// Number of validated checks counting each indistinguishable group as
    /// one (the paper's reporting convention).
    pub fn validated_groups_as_one(&self) -> usize {
        let grouped: usize = self.groups.iter().map(|g| g.len()).sum();
        self.validated.len() - grouped + self.groups.len()
    }
}

/// The validation scheduler.
pub struct Scheduler<'a, D: DeployOracle> {
    oracle: &'a D,
    kb: &'a KnowledgeBase,
    corpus: &'a [Program],
    cfg: SchedulerConfig,
    obs: Obs,
}

struct Candidate {
    mined: MinedCheck,
    positive: Option<PositiveCase>,
    order: i64,
    /// Check fingerprint: canonical tie-break and memo identity.
    fp: u64,
}

/// Soft-constraint weight of a candidate: better-supported candidates are
/// costlier to violate, breaking ties toward the corpus evidence.
fn soft_weight(c: &MinedCheck) -> u64 {
    (c.support as u64).min(100)
}

/// Resource types a candidate's mutated programs can start from: its
/// positive case's inventory, or the check's bound types before a positive
/// case exists.
fn present_types(c: &Candidate) -> Vec<Symbol> {
    match &c.positive {
        Some(p) => p
            .program
            .resources()
            .iter()
            .map(|r| Symbol::intern(&r.rtype))
            .collect(),
        None => c.mined.check.bindings.iter().map(|b| b.rtype).collect(),
    }
}

/// The candidates that belong in candidate `i`'s soft encoding at its
/// position in the sequential timeline: relevant (their checks can ground
/// over `i`'s mutants) and not demoted at an earlier position. `at` maps
/// demoted candidates to the canonical position of the test that demoted
/// them, so "not yet demoted when `i` runs" is `position >= i`.
fn relevant_open(
    i: usize,
    wave_plan: &plan::WavePlan,
    at: &BTreeMap<usize, usize>,
    n: usize,
) -> Vec<usize> {
    (0..n)
        .filter(|&j| j != i && wave_plan.relevant(j, i) && at.get(&j).is_none_or(|&p| p >= i))
        .collect()
}

/// A per-candidate negative test shared by the grouping and TP passes, with
/// its violations resolved to global candidate indices (production encodes
/// relevance-reduced soft lists and the reference full ones, but the
/// violated *sets* are identical, so both resolve to the same global form).
struct SharedNegative {
    neg: mutate::NegativeCase,
    /// Open candidates (indices into `rc`, excluding the owner) violated by
    /// the negative program.
    violates: BTreeSet<usize>,
}

/// The wave planner's view of a candidate. `present` seeds the mutant
/// type closure: the positive case's inventory plus every type the
/// structural planner could add when violating this statement.
fn plan_candidate(c: &Candidate, kb: &KnowledgeBase) -> plan::PlanCandidate {
    let mut present = present_types(c);
    present.extend(
        mutate::structural_peer_types(&c.mined.check, kb)
            .iter()
            .map(|t| Symbol::intern(t)),
    );
    plan::PlanCandidate {
        order: c.order,
        fingerprint: c.fp,
        bound: c.mined.check.bindings.iter().map(|b| b.rtype).collect(),
        present,
    }
}

impl<'a, D: DeployOracle> Scheduler<'a, D> {
    /// Creates a scheduler over a deployment oracle, KB, and corpus.
    pub fn new(
        oracle: &'a D,
        kb: &'a KnowledgeBase,
        corpus: &'a [Program],
        cfg: SchedulerConfig,
    ) -> Self {
        Scheduler {
            oracle,
            kb,
            corpus,
            cfg,
            obs: Obs::null(),
        }
    }

    /// Attaches an observability handle: the scheduler records
    /// `validation.*` funnel counters, bounded `pipeline/validation/iter`
    /// spans (iteration index as a span attribute), per-wave deploy spans,
    /// and per-candidate lifecycle events into it.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Emits a lifecycle event for a check, gated so disabled handles pay
    /// no fingerprint hashing.
    fn lifecycle(&self, check: &Check, kind: Lifecycle) {
        if self.obs.is_enabled() {
            self.obs.lifecycle(check.fingerprint(), kind);
        }
    }

    /// Emits the `Demoted` event for a falsified candidate.
    fn demote_event(&self, check: &Check, reason: FalsifyReason) {
        self.lifecycle(
            check,
            Lifecycle::Demoted {
                reason: reason.as_str().to_string(),
            },
        );
    }

    /// Runs validation to completion (Figure 5).
    pub fn run(&self, candidates: Vec<MinedCheck>) -> ValidationOutcome {
        let t0 = std::time::Instant::now();
        let mut rc = self.candidates(candidates);

        // Shared per-run machinery: prebuilt corpus graphs and the type
        // reachability relation behind wave planning and soft-set reduction.
        let index = mdc::CorpusIndex::build(self.corpus);
        let reach = plan::TypeReach::build(self.kb, index.graphs().iter());
        let mut waves_done: u64 = 0;

        let mut validated: Vec<ValidatedCheck> = Vec::new();
        let mut false_positives: Vec<FalsifiedCheck> = Vec::new();
        let mut groups_out: Vec<Vec<usize>> = Vec::new();
        let mut trace = ValidationTrace::default();
        self.obs
            .gauge_set("validation.candidates.initial", rc.len() as u64);

        for iter in 0..self.cfg.max_iterations {
            if rc.is_empty() {
                break;
            }
            // One bounded span per iteration: the index is an attribute,
            // not a path segment, so the histogram namespace stays finite.
            let _iter_span = if self.obs.is_enabled() {
                let mut span = self.obs.start_span("pipeline/validation/iter");
                span.attr("iter", iter as u64);
                span.attr("open", rc.len());
                Some(span)
            } else {
                None
            };
            let mut stats = IterationStats::default();
            let progress_before = rc.len();
            let tel_before = self.oracle.telemetry();

            // The validated (hard) set is frozen for the whole iteration.
            let hard: Vec<Check> = validated.iter().map(|v| v.mined.check.clone()).collect();

            // ---------------- false positive removal pass -----------------
            let removed = self.fp_pass_waves(
                &mut rc,
                &hard,
                &mut false_positives,
                &mut stats,
                &index,
                &reach,
                &mut waves_done,
            );
            retain_not(&mut rc, &removed);

            // ---------------- grouping + true positive pass ---------------
            let negatives = self.generate_negatives_reduced(&mut rc, &hard, &index, &reach);
            self.tp_pass(
                &mut rc,
                &negatives,
                &mut validated,
                &mut groups_out,
                &mut stats,
                &mut waves_done,
            );

            stats.validated_total = validated.len();
            stats.false_positive_total = false_positives.len();
            stats.remaining = rc.len();
            if let Some(before) = &tel_before {
                let after = self.oracle.telemetry().unwrap_or_else(|| before.clone());
                stats.deploy_requests = after
                    .counter("deploy.requests")
                    .saturating_sub(before.counter("deploy.requests"));
                stats.deploy_cache_hits = after
                    .counter("deploy.cache_hits")
                    .saturating_sub(before.counter("deploy.cache_hits"));
            }
            self.obs.counter("validation.iterations", 1);
            self.obs
                .counter("validation.fp.deployable", stats.fp_deployable as u64);
            self.obs
                .counter("validation.fp.unsatisfiable", stats.fp_unsatisfiable as u64);
            self.obs
                .counter("validation.tp.single", stats.tp_single as u64);
            self.obs
                .counter("validation.tp.group", stats.tp_multiple as u64);
            trace.iterations.push(stats);

            if rc.len() == progress_before {
                break; // Stalled (Figure 8b without O3).
            }
        }
        if self.obs.is_enabled() {
            // Reasons not tracked per-iteration (they fall outside Figure 8's
            // stats) are recovered from the accumulated falsified list.
            for reason in [FalsifyReason::NoPositiveCase, FalsifyReason::NotApplicable] {
                let n = false_positives
                    .iter()
                    .filter(|f| f.reason == reason)
                    .count();
                let name = match reason {
                    FalsifyReason::NoPositiveCase => "validation.fp.no_positive_case",
                    _ => "validation.fp.not_applicable",
                };
                self.obs.counter(name, n as u64);
            }
            self.obs
                .gauge_set("validation.validated.total", validated.len() as u64);
        }
        // Emitted unconditionally — including on a max-iterations early exit
        // or a stall — so funnel snapshots always report the leftover count.
        self.obs.gauge_set("validation.unresolved", rc.len() as u64);
        trace.deploy = self.oracle.telemetry();
        // Serving-boundary latency: one whole validation run, visible in
        // rolling windows (`op.validate.us`) when a RollingRecorder sink
        // is attached.
        self.obs
            .histogram("op.validate.us", t0.elapsed().as_micros() as u64);

        ValidationOutcome {
            validated,
            false_positives,
            unresolved: rc.into_iter().map(|c| c.mined).collect(),
            groups: groups_out,
            trace,
        }
    }

    /// The open candidate set `R_c`, in evaluation order when O4 is on.
    fn candidates(&self, mined: Vec<MinedCheck>) -> Vec<Candidate> {
        let depths = type_depths(self.kb);
        let mut rc: Vec<Candidate> = mined
            .into_iter()
            .map(|mined| {
                let order = check_order(&mined.check, &depths);
                let fp = mined.check.fingerprint();
                Candidate {
                    mined,
                    positive: None,
                    order,
                    fp,
                }
            })
            .collect();
        if self.cfg.use_partial_order {
            // O4, with the fingerprint as tie-break: a canonical total order
            // shared with the wave planner, so the replayed timeline is the
            // one-at-a-time loop's.
            rc.sort_by_key(|c| (c.order, c.fp));
        }
        rc
    }

    /// The second half of an iteration: indistinguishable grouping (O3),
    /// then one batch deploy of the shared negative tests, validating every
    /// candidate whose failing test violates only itself or one group.
    /// Newly validated candidates move from `rc` to `validated`.
    fn tp_pass(
        &self,
        rc: &mut Vec<Candidate>,
        negatives: &[Option<SharedNegative>],
        validated: &mut Vec<ValidatedCheck>,
        groups_out: &mut Vec<Vec<usize>>,
        stats: &mut IterationStats,
        waves_done: &mut u64,
    ) {
        let groups = if self.cfg.handle_indistinguishable {
            self.group_indistinct(rc, validated, negatives)
        } else {
            Vec::new()
        };

        // The negative tests are mutually independent, so deploy them as
        // one batch: an execution engine fans the batch across its
        // worker pool and memoizes repeats, a plain oracle runs them
        // sequentially — either way reports come back in input order,
        // so the outcome is identical to the one-at-a-time loop.
        let to_deploy: Vec<usize> = (0..rc.len()).filter(|&i| negatives[i].is_some()).collect();
        let batch: Vec<Program> = to_deploy
            .iter()
            .filter_map(|&i| negatives[i].as_ref().map(|n| n.neg.program.clone()))
            .collect();
        self.obs
            .histogram("validation.tp.batch_size", batch.len() as u64);
        // The wave span scopes the batch: per-request deploy spans from
        // the engine's worker pool parent under it.
        let wave_span = if self.obs.is_enabled() && !batch.is_empty() {
            let mut span = self.obs.start_span("pipeline/validation/wave");
            span.attr("wave", *waves_done);
            span.attr("width", to_deploy.len());
            span.attr("batch", batch.len());
            Some(span)
        } else {
            None
        };
        let mut reports: Vec<Option<(DeployReport, bool)>> = vec![None; rc.len()];
        let batch_reports = self.oracle.deploy_batch_annotated(&batch);
        for (&i, report) in to_deploy.iter().zip(batch_reports) {
            reports[i] = Some(report);
        }
        if let Some(span) = wave_span {
            span.finish();
        }
        if !batch.is_empty() {
            *waves_done += 1;
            self.obs.counter("validation.waves", 1);
        }
        if self.obs.is_enabled() {
            // TP probe outcomes, in candidate order (deterministic even
            // when the engine fans the batch across workers).
            for &i in &to_deploy {
                if let Some((report, cached)) = reports[i].as_ref() {
                    let (success, phase, rule) = outcome_fields(report);
                    self.lifecycle(
                        &rc[i].mined.check,
                        Lifecycle::DeployOutcome {
                            polarity: Polarity::TpProbe,
                            success,
                            phase,
                            rule,
                            cached: *cached,
                        },
                    );
                }
            }
        }
        let mut newly_validated: BTreeSet<usize> = BTreeSet::new();
        for i in 0..rc.len() {
            let Some(neg) = negatives[i].as_ref() else {
                continue;
            };
            let Some((report, _cached)) = reports[i].take() else {
                continue; // Every negative in `to_deploy` got a report.
            };
            if report.outcome.is_success() {
                continue; // Handled next iteration's FP pass.
            }
            // R_n: the open candidates the negative test violates
            // (including the target itself).
            let mut rn: BTreeSet<usize> = neg.violates.clone();
            rn.insert(i);
            let single = rn.len() == 1;
            let in_group = groups.iter().any(|g| rn.iter().all(|j| g.contains(j)));
            if single || in_group {
                if single {
                    stats.tp_single += 1;
                } else {
                    stats.tp_multiple += 1;
                }
                newly_validated.insert(i);
                self.lifecycle(
                    &rc[i].mined.check,
                    Lifecycle::Validated { via_group: !single },
                );
                validated.push(ValidatedCheck {
                    mined: rc[i].mined.clone(),
                    via_group: !single,
                    negative_size: neg.neg.program.len(),
                    negative_report: report,
                });
            }
        }
        // Record group memberships among the newly validated.
        if !groups.is_empty() {
            let offset = validated.len() - newly_validated.len();
            let validated_this_round: Vec<usize> = newly_validated.iter().copied().collect();
            for g in &groups {
                let members: Vec<usize> = validated_this_round
                    .iter()
                    .enumerate()
                    .filter(|(_, idx)| g.contains(idx))
                    .map(|(k, _)| offset + k)
                    .collect();
                if members.len() > 1 {
                    groups_out.push(members);
                }
            }
        }
        retain_not(rc, &newly_validated);
    }

    /// Finds (or synthesises) and caches a positive case for a candidate,
    /// searching through the prebuilt corpus index.
    fn ensure_positive<'b>(
        &self,
        c: &'b mut Candidate,
        index: &mdc::CorpusIndex,
    ) -> Option<&'b PositiveCase> {
        if c.positive.is_none() {
            c.positive =
                mdc::find_positive_indexed(&c.mined.check, index, self.kb, self.cfg.max_scan)
                    .or_else(|| self.synthesize_positive(&c.mined.check));
        }
        c.positive.as_ref()
    }

    /// Synthesises a positive case for single-binding enum-conditioned
    /// checks whose condition value never appears in the corpus (oracle
    /// interpolation covers skus the corpus never witnessed): take any
    /// resource of the bound type, rewrite the condition attribute, and
    /// verify the check holds.
    fn synthesize_positive(&self, check: &Check) -> Option<PositiveCase> {
        let [binding] = check.bindings.as_slice() else {
            return None;
        };
        let Expr::Cmp {
            op: zodiac_spec::CmpOp::Eq,
            lhs: Val::Endpoint { var, attr },
            rhs: Val::Lit(value),
            negated: false,
        } = &check.cond
        else {
            return None;
        };
        for program in self.corpus.iter().take(self.cfg.max_scan) {
            let Some(donor) = program.of_type(&binding.rtype).next() else {
                continue;
            };
            let donor_id = donor.id();
            let mut modified = program.clone();
            let path: zodiac_model::AttrPath = attr.parse().ok()?;
            modified.find_mut(&donor_id)?.set(&path, value.clone());
            let graph = zodiac_graph::ResourceGraph::build(modified);
            let ctx = zodiac_spec::EvalContext {
                graph: &graph,
                kb: Some(self.kb),
            };
            let donor_node = graph.node(&donor_id);
            let Some(w) = zodiac_spec::instances(check, ctx)
                .into_iter()
                .find(|w| w.is_witness() && w.binding.get(var).copied() == donor_node)
            else {
                continue;
            };
            return Some(mdc::prune(&graph, &w.binding, self.kb));
        }
        None
    }
}

fn retain_not(rc: &mut Vec<Candidate>, drop: &BTreeSet<usize>) {
    let mut i = 0usize;
    rc.retain(|_| {
        let keep = !drop.contains(&i);
        i += 1;
        keep
    });
}

/// Deployment depth of each KB type: types referencing nothing deploy first
/// (depth 0); a type's depth is one more than the deepest type it can
/// reference.
pub fn type_depths(kb: &KnowledgeBase) -> HashMap<Symbol, i64> {
    let mut depths: HashMap<Symbol, i64> = HashMap::new();
    fn depth_of(
        kb: &KnowledgeBase,
        t: Symbol,
        depths: &mut HashMap<Symbol, i64>,
        stack: &mut Vec<Symbol>,
    ) -> i64 {
        if let Some(&d) = depths.get(&t) {
            return d;
        }
        if stack.contains(&t) {
            return 0; // Self/cyclic references (DISK → DISK) bottom out.
        }
        stack.push(t);
        let d = kb
            .resource(&t)
            .map(|schema| {
                schema
                    .endpoints
                    .values()
                    .map(|e| depth_of(kb, Symbol::intern(&e.target_type), depths, stack) + 1)
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        stack.pop();
        depths.insert(t, d);
        d
    }
    let types: Vec<Symbol> = kb.types().map(Symbol::intern).collect();
    for &t in &types {
        let mut stack = Vec::new();
        depth_of(kb, t, &mut depths, &mut stack);
    }
    depths
}

/// A check's evaluation order: the *minimum* deployment depth among its
/// bound types — checks about early-deploying resources go first.
fn check_order(check: &Check, depths: &HashMap<Symbol, i64>) -> i64 {
    check
        .bindings
        .iter()
        .map(|b| depths.get(&b.rtype).copied().unwrap_or(i64::MAX / 2))
        .min()
        .unwrap_or(0)
}

impl<'a, D: DeployOracle> Scheduler<'a, D> {
    /// Candidate `i`'s negative test, encoded against the open candidates
    /// `soft_ids` (indices into `rc`); the returned `violated_soft`
    /// positions index `soft_ids`.
    fn negative_for(
        &self,
        rc: &[Candidate],
        i: usize,
        soft_ids: &[usize],
        hard: &[Check],
    ) -> MutationResult {
        // Callers only ask after a positive case exists; fall back to the
        // same demotion the reference would reach if it ever is not.
        let Some(positive) = rc[i].positive.as_ref() else {
            return MutationResult::NotApplicable;
        };
        let soft: Vec<(Check, u64)> = soft_ids
            .iter()
            .map(|&j| (rc[j].mined.check.clone(), soft_weight(&rc[j].mined)))
            .collect();
        mutate::negative_test(
            &rc[i].mined.check,
            positive,
            hard,
            &soft,
            self.kb,
            self.corpus,
            &self.cfg.mutation,
        )
    }

    /// The false-positive pass: plan conflict-free waves, *speculatively*
    /// encode and batch-deploy each wave, then replay the exact
    /// one-at-a-time timeline consuming speculative records whose soft sets
    /// match. Verdict sets are those of the reference loop by construction:
    /// solver UNSAT / not-applicable verdicts do not depend on soft
    /// constraints at all (exact whenever discovered), and every
    /// deploy-dependent verdict is confirmed at its exact position. Returns
    /// the set of demoted indices.
    #[allow(clippy::too_many_arguments)]
    fn fp_pass_waves(
        &self,
        rc: &mut [Candidate],
        hard: &[Check],
        false_positives: &mut Vec<FalsifiedCheck>,
        stats: &mut IterationStats,
        index: &mdc::CorpusIndex,
        reach: &plan::TypeReach,
        waves_done: &mut u64,
    ) -> BTreeSet<usize> {
        let n = rc.len();
        // Canonical-position map of demotions (see [`relevant_open`]); the
        // plain demotion *set* is its key set.
        let mut exact_at: BTreeMap<usize, usize> = BTreeMap::new();

        // Positive cases up front: the no-positive-case verdict is
        // soft-set-independent, so these demotions are exact. (A candidate
        // the reference loop would have demoted earlier by co-violation
        // gets a different *reason* here, never a different verdict.)
        for (i, cand) in rc.iter_mut().enumerate() {
            if self.ensure_positive(cand, index).is_none() {
                exact_at.insert(i, i);
                self.demote_event(&cand.mined.check, FalsifyReason::NoPositiveCase);
                false_positives.push(FalsifiedCheck {
                    mined: cand.mined.clone(),
                    reason: FalsifyReason::NoPositiveCase,
                });
            }
        }

        let cands: Vec<plan::PlanCandidate> =
            rc.iter().map(|c| plan_candidate(c, self.kb)).collect();
        let wave_plan = plan::plan_waves(&cands, reach);
        if self.obs.is_enabled() {
            for (w, wave) in wave_plan.waves.iter().enumerate() {
                for &i in wave {
                    self.lifecycle(
                        &rc[i].mined.check,
                        Lifecycle::Scheduled {
                            wave: *waves_done + w as u64,
                            conflicts: wave_plan.degree[i] as u64,
                        },
                    );
                }
            }
        }

        // ---- speculation: encode and batch-deploy wave by wave ----------
        struct Spec {
            soft_ids: Vec<usize>,
            neg: Box<mutate::NegativeCase>,
            report: DeployReport,
            cached: bool,
        }
        let mut specs: HashMap<usize, Spec> = HashMap::new();
        let mut spec_at: BTreeMap<usize, usize> = exact_at.clone();
        for (w, wave) in wave_plan.waves.iter().enumerate() {
            let mut members: Vec<(usize, Vec<usize>, Box<mutate::NegativeCase>)> = Vec::new();
            for &i in wave {
                if spec_at.get(&i).is_some_and(|&p| p <= i) {
                    continue; // Expected demoted at or before its own turn.
                }
                let soft_ids = relevant_open(i, &wave_plan, &spec_at, n);
                match self.negative_for(rc, i, &soft_ids, hard) {
                    MutationResult::Unsat => {
                        stats.fp_unsatisfiable += 1;
                        exact_at.insert(i, i);
                        spec_at.insert(i, i);
                        self.demote_event(&rc[i].mined.check, FalsifyReason::Unsatisfiable);
                        false_positives.push(FalsifiedCheck {
                            mined: rc[i].mined.clone(),
                            reason: FalsifyReason::Unsatisfiable,
                        });
                    }
                    MutationResult::NotApplicable => {
                        exact_at.insert(i, i);
                        spec_at.insert(i, i);
                        self.demote_event(&rc[i].mined.check, FalsifyReason::NotApplicable);
                        false_positives.push(FalsifiedCheck {
                            mined: rc[i].mined.clone(),
                            reason: FalsifyReason::NotApplicable,
                        });
                    }
                    MutationResult::Negative(neg) => members.push((i, soft_ids, neg)),
                }
            }
            if members.is_empty() {
                continue;
            }
            let batch: Vec<Program> = members
                .iter()
                .map(|(_, _, neg)| neg.program.clone())
                .collect();
            let span = if self.obs.is_enabled() {
                let mut span = self.obs.start_span("pipeline/validation/wave");
                span.attr("wave", *waves_done + w as u64);
                span.attr("width", wave.len());
                span.attr("batch", batch.len());
                let degree = wave.iter().map(|&i| wave_plan.degree[i]).max().unwrap_or(0);
                span.attr("degree", degree);
                Some(span)
            } else {
                None
            };
            let reports = self.oracle.deploy_batch_annotated(&batch);
            if let Some(span) = span {
                span.finish();
            }
            self.obs.counter("validation.waves", 1);
            for ((i, soft_ids, neg), (report, cached)) in members.into_iter().zip(reports) {
                if report.outcome.is_success() {
                    // Predicted demotions: the deployer at position `i`
                    // takes itself and every violated candidate down.
                    spec_at
                        .entry(i)
                        .and_modify(|p| *p = (*p).min(i))
                        .or_insert(i);
                    for &pos in &neg.violated_soft {
                        if let Some(&j) = soft_ids.get(pos) {
                            spec_at
                                .entry(j)
                                .and_modify(|p| *p = (*p).min(i))
                                .or_insert(i);
                        }
                    }
                }
                specs.insert(
                    i,
                    Spec {
                        soft_ids,
                        neg,
                        report,
                        cached,
                    },
                );
            }
        }
        *waves_done += wave_plan.waves.len() as u64;

        // ---- exact replay along the canonical timeline -------------------
        for i in 0..n {
            if exact_at.get(&i).is_some_and(|&p| p <= i) {
                continue; // Demoted before its turn — exactly as one at a time.
            }
            let soft_ids = relevant_open(i, &wave_plan, &exact_at, n);
            let (soft_ids, neg, report, cached) = match specs.remove(&i) {
                Some(s) if s.soft_ids == soft_ids => (s.soft_ids, s.neg, s.report, s.cached),
                _ => {
                    // Mispredicted soft set (a speculative demotion that did
                    // not happen, or happened at the wrong position):
                    // recompute at the exact position and deploy alone.
                    self.obs.counter("validation.wave.replays", 1);
                    match self.negative_for(rc, i, &soft_ids, hard) {
                        MutationResult::Unsat => {
                            stats.fp_unsatisfiable += 1;
                            exact_at.insert(i, i);
                            self.demote_event(&rc[i].mined.check, FalsifyReason::Unsatisfiable);
                            false_positives.push(FalsifiedCheck {
                                mined: rc[i].mined.clone(),
                                reason: FalsifyReason::Unsatisfiable,
                            });
                            continue;
                        }
                        MutationResult::NotApplicable => {
                            exact_at.insert(i, i);
                            self.demote_event(&rc[i].mined.check, FalsifyReason::NotApplicable);
                            false_positives.push(FalsifiedCheck {
                                mined: rc[i].mined.clone(),
                                reason: FalsifyReason::NotApplicable,
                            });
                            continue;
                        }
                        MutationResult::Negative(neg) => {
                            let (report, cached) = self.oracle.deploy_annotated(&neg.program);
                            (soft_ids, neg, report, cached)
                        }
                    }
                }
            };
            let (success, phase, rule) = outcome_fields(&report);
            self.lifecycle(
                &rc[i].mined.check,
                Lifecycle::DeployOutcome {
                    polarity: Polarity::FpProbe,
                    success,
                    phase,
                    rule,
                    cached,
                },
            );
            if success {
                stats.fp_deployable += 1;
                exact_at.insert(i, i);
                self.demote_event(&rc[i].mined.check, FalsifyReason::Deployable);
                false_positives.push(FalsifiedCheck {
                    mined: rc[i].mined.clone(),
                    reason: FalsifyReason::Deployable,
                });
                for &pos in &neg.violated_soft {
                    let Some(&j) = soft_ids.get(pos) else {
                        continue;
                    };
                    match exact_at.entry(j) {
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            // Already demoted by a soft-set-independent
                            // verdict at its own (later) position; tighten
                            // it to the co-violation position so later soft
                            // sets exclude it, as the reference loop would.
                            let p = *e.get();
                            e.insert(p.min(i));
                        }
                        std::collections::btree_map::Entry::Vacant(v) => {
                            v.insert(i);
                            stats.fp_deployable += 1;
                            self.demote_event(&rc[j].mined.check, FalsifyReason::Deployable);
                            false_positives.push(FalsifiedCheck {
                                mined: rc[j].mined.clone(),
                                reason: FalsifyReason::Deployable,
                            });
                        }
                    }
                }
            }
        }
        exact_at.keys().copied().collect()
    }

    /// Generates one shared negative test per open candidate, for the
    /// grouping and TP passes. Soft lists are relevance-reduced: irrelevant
    /// checks cannot ground over a candidate's mutants, so dropping them
    /// leaves the solver's answer — and the violated set — unchanged.
    fn generate_negatives_reduced(
        &self,
        rc: &mut [Candidate],
        hard: &[Check],
        index: &mdc::CorpusIndex,
        reach: &plan::TypeReach,
    ) -> Vec<Option<SharedNegative>> {
        let n = rc.len();
        for cand in rc.iter_mut() {
            self.ensure_positive(cand, index);
        }
        let cands: Vec<plan::PlanCandidate> =
            rc.iter().map(|c| plan_candidate(c, self.kb)).collect();
        let wave_plan = plan::plan_waves(&cands, reach);
        let open = BTreeMap::new();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if rc[i].positive.is_none() {
                out.push(None);
                continue;
            }
            let soft_ids = relevant_open(i, &wave_plan, &open, n);
            let result = self.negative_for(rc, i, &soft_ids, hard);
            out.push(match result {
                MutationResult::Negative(neg) => {
                    let violates = neg
                        .violated_soft
                        .iter()
                        .filter_map(|&p| soft_ids.get(p).copied())
                        .collect();
                    Some(SharedNegative {
                        neg: *neg,
                        violates,
                    })
                }
                _ => None,
            });
        }
        out
    }

    /// Finds indistinguishable groups (O3): candidates that mutually violate
    /// each other's negative tests and for which no test separates them.
    fn group_indistinct(
        &self,
        rc: &mut [Candidate],
        validated: &[ValidatedCheck],
        negatives: &[Option<SharedNegative>],
    ) -> Vec<Vec<usize>> {
        let n = rc.len();
        if n < 2 {
            return Vec::new();
        }
        // Step 1: mutual-violation adjacency from the shared negative tests.
        let mut violates: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for i in 0..n {
            if let Some(shared) = negatives[i].as_ref() {
                violates[i] = shared.violates.clone();
            }
        }
        // Candidate groups come from two granularities: components over
        // *mutual* violation (the paper's step 1), and weakly-connected
        // components of the violation digraph — needed when equivalent
        // check families chain through one-directional violations (e.g.
        // `Regular ⇒ no eviction policy` and its `eviction ⇒ Spot`
        // contrapositives). The UNSAT probes of step 2 reject any
        // over-approximation.
        let components = |mutual: bool| -> Vec<Vec<usize>> {
            let mut component = vec![usize::MAX; n];
            let mut next = 0usize;
            for i in 0..n {
                if component[i] != usize::MAX {
                    continue;
                }
                let mut stack = vec![i];
                component[i] = next;
                while let Some(cur) = stack.pop() {
                    let neighbours: Vec<usize> = if mutual {
                        violates[cur]
                            .iter()
                            .copied()
                            .filter(|&j| violates[j].contains(&cur))
                            .collect()
                    } else {
                        // Weak connectivity: edges in either direction.
                        (0..n)
                            .filter(|&j| violates[cur].contains(&j) || violates[j].contains(&cur))
                            .collect()
                    };
                    for j in neighbours {
                        if component[j] == usize::MAX {
                            component[j] = next;
                            stack.push(j);
                        }
                    }
                }
                next += 1;
            }
            let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (i, &c) in component.iter().enumerate() {
                groups.entry(c).or_default().push(i);
            }
            groups.into_values().collect()
        };
        let mut candidate_groups: Vec<Vec<usize>> = components(true);
        for weak in components(false) {
            if weak.len() <= 12 && !candidate_groups.contains(&weak) {
                candidate_groups.push(weak);
            }
        }
        // Step 2: UNSAT probes — a candidate group is real only if no member
        // can be violated while conforming to the rest of the group.
        let mut out = Vec::new();
        'group: for members in candidate_groups {
            if members.len() < 2 {
                continue;
            }
            for &i in &members {
                let Some(positive) = rc[i].positive.as_ref() else {
                    continue;
                };
                let mut hard: Vec<Check> =
                    validated.iter().map(|v| v.mined.check.clone()).collect();
                hard.extend(
                    members
                        .iter()
                        .filter(|&&j| j != i)
                        .map(|&j| rc[j].mined.check.clone()),
                );
                let no_soft: [(Check, u64); 0] = [];
                let result = mutate::negative_test(
                    &rc[i].mined.check,
                    positive,
                    &hard,
                    &no_soft,
                    self.kb,
                    self.corpus,
                    &self.cfg.mutation,
                );
                if matches!(result, MutationResult::Negative(_)) {
                    // Separable: not an indistinguishable group.
                    continue 'group;
                }
            }
            out.push(members);
        }
        out
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_depths_follow_reference_chains() {
        let kb = zodiac_kb::azure_kb();
        let depths = type_depths(&kb);
        let d = |t: &str| depths.get(&Symbol::intern(t)).copied().unwrap_or(-1);
        // RG references nothing; VNet references RG; subnet references VNet;
        // NIC references subnet; VM references NICs.
        assert_eq!(d("azurerm_resource_group"), 0);
        assert!(d("azurerm_virtual_network") > d("azurerm_resource_group"));
        assert!(d("azurerm_subnet") > d("azurerm_virtual_network"));
        assert!(d("azurerm_network_interface") > d("azurerm_subnet"));
        assert!(d("azurerm_linux_virtual_machine") > d("azurerm_network_interface"));
    }

    #[test]
    fn self_referencing_types_terminate() {
        // azurerm_managed_disk can reference itself (source_resource_id).
        let kb = zodiac_kb::azure_kb();
        let depths = type_depths(&kb);
        assert!(depths.contains_key(&Symbol::intern("azurerm_managed_disk")));
    }

    #[test]
    fn check_order_uses_min_binding_depth() {
        let kb = zodiac_kb::azure_kb();
        let depths = type_depths(&kb);
        let nic_vpc = zodiac_spec::parse_check(
            "let r1:NIC, r2:VPC in path(r1 -> r2) => r1.location == r2.location",
        )
        .unwrap();
        let vm_nic = zodiac_spec::parse_check(
            "let r1:VM, r2:NIC in path(r1 -> r2) => r1.location == r2.location",
        )
        .unwrap();
        // Both touch NICs, but the NIC/VPC check bottoms out at the VPC,
        // which deploys earlier — so it is evaluated first (O4).
        assert!(check_order(&nic_vpc, &depths) < check_order(&vm_nic, &depths));
    }

    #[test]
    fn soft_weight_saturates() {
        let mined = |support: usize| zodiac_mining::MinedCheck {
            check: zodiac_spec::parse_check(
                "let r:VM in r.priority == 'Spot' => r.eviction_policy != null",
            )
            .unwrap(),
            family: "t",
            support,
            confidence: 1.0,
            lift: None,
            interp: None,
        };
        assert_eq!(soft_weight(&mined(3)), 3);
        assert_eq!(soft_weight(&mined(5000)), 100);
    }

    #[test]
    fn groups_as_one_counts_correctly() {
        let outcome = ValidationOutcome {
            validated: Vec::new(),
            false_positives: Vec::new(),
            unresolved: Vec::new(),
            groups: vec![vec![0, 1, 2], vec![3, 4]],
            trace: ValidationTrace::default(),
        };
        // 0 validated entries but 5 grouped indices is inconsistent in real
        // runs; the arithmetic is what we check: len - grouped + groups.
        let fake = ValidationOutcome {
            validated: (0..7)
                .map(|_| ValidatedCheck {
                    mined: zodiac_mining::MinedCheck {
                        check: zodiac_spec::parse_check(
                            "let r:VM in r.priority == 'Spot' => r.eviction_policy != null",
                        )
                        .unwrap(),
                        family: "t",
                        support: 1,
                        confidence: 1.0,
                        lift: None,
                        interp: None,
                    },
                    via_group: false,
                    negative_report: zodiac_cloud::DeployReport {
                        outcome: zodiac_cloud::DeployOutcome::Success,
                        deployed: Vec::new(),
                        halted: Vec::new(),
                        rollback: Vec::new(),
                        violations: Vec::new(),
                    },
                    negative_size: 1,
                })
                .collect(),
            ..outcome
        };
        // 7 checks, groups of 3 and 2 → 7 - 5 + 2 = 4.
        assert_eq!(fake.validated_groups_as_one(), 4);
    }
}
