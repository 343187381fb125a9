//! Automated counterexample testing (§5.6).
//!
//! The open-world assumption means validated checks can still be false
//! positives: the negative test's deployment failure may have a root cause
//! Zodiac does not know about. This pass hunts for such cases in *additional
//! repositories*: if a program that violates a validated check nevertheless
//! deploys successfully, the check is demoted.

use crate::mdc;
use crate::scheduler::ValidatedCheck;
use crate::DeployOracle;
use zodiac_kb::KnowledgeBase;
use zodiac_model::Program;
use zodiac_obs::{Lifecycle, Obs, Polarity};
use zodiac_spec::{violations, Check, EvalContext};

/// Result of the counterexample pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterexampleReport {
    /// Indices (into the validated list) of demoted checks.
    pub demoted: Vec<usize>,
    /// Number of violating programs examined.
    pub examined: usize,
}

/// Runs counterexample testing over extra corpus programs.
///
/// For each validated check, violating programs are pruned around the
/// violation and deployed; a successful deployment is a counterexample.
pub fn counterexample_pass<D: DeployOracle>(
    validated: &[ValidatedCheck],
    extra_corpus: &[Program],
    kb: &KnowledgeBase,
    oracle: &D,
    max_per_check: usize,
) -> CounterexampleReport {
    counterexample_pass_obs(
        validated,
        extra_corpus,
        kb,
        oracle,
        max_per_check,
        &Obs::null(),
    )
}

/// [`counterexample_pass`] with an observability handle: records
/// `validation.ce.*` counters (cases examined, batch sizes, demotions) and
/// a `pipeline/validation/counterexample` span.
pub fn counterexample_pass_obs<D: DeployOracle>(
    validated: &[ValidatedCheck],
    extra_corpus: &[Program],
    kb: &KnowledgeBase,
    oracle: &D,
    max_per_check: usize,
    obs: &Obs,
) -> CounterexampleReport {
    let _span = obs.start_span("pipeline/validation/counterexample");
    let mut report = CounterexampleReport::default();
    // Every check searches the same programs: build each graph once.
    let index = mdc::CorpusIndex::build(extra_corpus);
    for (idx, v) in validated.iter().enumerate() {
        // Gather up to `max_per_check` pruned violating cases first, then
        // deploy them as one batch: an execution engine fans the batch over
        // its worker pool and memoizes repeated cases.
        let cases = violating_cases(&v.mined.check, &index, kb, max_per_check);
        // `examined` keeps the sequential contract: cases after the first
        // counterexample do not count (a one-at-a-time pass never reaches
        // them), so the report is identical either way.
        obs.histogram("validation.ce.batch_size", cases.len() as u64);
        let reports = oracle.deploy_batch_annotated(&cases);
        let first_success = reports.iter().position(|(r, _)| r.outcome.is_success());
        if obs.is_enabled() {
            // Provenance for the examined prefix only — a sequential pass
            // never deploys past the first counterexample.
            let upper = first_success.map(|k| k + 1).unwrap_or(reports.len());
            let fp = v.mined.check.fingerprint();
            for (r, cached) in &reports[..upper] {
                let success = r.outcome.is_success();
                let (phase, rule) = match &r.outcome {
                    zodiac_cloud::DeployOutcome::Success => (String::new(), String::new()),
                    zodiac_cloud::DeployOutcome::Failure { phase, rule_id, .. } => {
                        (phase.to_string(), rule_id.clone())
                    }
                };
                obs.lifecycle(
                    fp,
                    Lifecycle::DeployOutcome {
                        polarity: Polarity::Counterexample,
                        success,
                        phase,
                        rule,
                        cached: *cached,
                    },
                );
            }
        }
        match first_success {
            Some(k) => {
                report.examined += k + 1;
                report.demoted.push(idx);
                obs.counter("validation.ce.demoted", 1);
                if obs.is_enabled() {
                    obs.lifecycle(
                        v.mined.check.fingerprint(),
                        Lifecycle::Demoted {
                            reason: "counterexample".to_string(),
                        },
                    );
                }
            }
            None => report.examined += cases.len(),
        }
    }
    report.demoted.sort_unstable();
    report.demoted.dedup();
    obs.counter("validation.ce.examined", report.examined as u64);
    report
}

/// The first `max` violations of `check` across the indexed corpus, in
/// corpus then enumeration order, each pruned around its violation.
fn violating_cases(
    check: &Check,
    index: &mdc::CorpusIndex,
    kb: &KnowledgeBase,
    max: usize,
) -> Vec<Program> {
    let mut cases = Vec::new();
    for (i, graph) in index.graphs().iter().enumerate() {
        if cases.len() >= max {
            break;
        }
        if !index.may_bind(i, check) {
            continue;
        }
        let ctx = EvalContext {
            graph,
            kb: Some(kb),
        };
        let found = violations(check, ctx);
        let room = max - cases.len();
        cases.extend(
            found
                .iter()
                .take(room)
                .map(|v| mdc::prune(graph, &v.binding, kb).program),
        );
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use zodiac_cloud::{CloudSim, DeployOutcome, DeployReport};
    use zodiac_corpus::CorpusConfig;

    fn validated(src: &str) -> ValidatedCheck {
        ValidatedCheck {
            mined: zodiac_mining::MinedCheck {
                check: zodiac_spec::parse_check(src).expect("valid check"),
                family: "test",
                support: 10,
                confidence: 1.0,
                lift: None,
                interp: None,
            },
            via_group: false,
            negative_report: DeployReport {
                outcome: DeployOutcome::Success,
                deployed: Vec::new(),
                halted: Vec::new(),
                rollback: Vec::new(),
                violations: Vec::new(),
            },
            negative_size: 1,
        }
    }

    fn corpus(rare_option_rate: f64) -> Vec<Program> {
        zodiac_corpus::generate(&CorpusConfig {
            projects: 25,
            noise_rate: 0.0,
            rare_option_rate,
            seed: 0xCE11,
            ..Default::default()
        })
        .into_iter()
        .map(|p| p.program)
        .collect()
    }

    // The §5.6 open-world false positive: `source_image_reference` looks
    // mandatory in the corpus, but a rare-`Attach` VM deploys fine without
    // it — the pass must find that counterexample and demote the check.
    const OPEN_WORLD_FP: &str =
        "let r:VM in r.create_option == 'Attach' => r.source_image_reference != null";

    #[test]
    fn demotes_on_rare_option_counterexample() {
        let kb = zodiac_kb::azure_kb();
        let sim = CloudSim::new_azure();
        let checks = vec![validated(OPEN_WORLD_FP)];
        let extra = corpus(1.0); // Every project uses the rare Attach option.
        let report = counterexample_pass(&checks, &extra, &kb, &sim, 8);
        assert_eq!(report.demoted, vec![0], "the open-world FP is demoted");
        assert!(report.examined >= 1);
    }

    #[test]
    fn conforming_corpus_never_demotes() {
        let kb = zodiac_kb::azure_kb();
        let sim = CloudSim::new_azure();
        let checks = vec![validated(OPEN_WORLD_FP)];
        let extra = corpus(0.0); // No project violates the check.
        let report = counterexample_pass(&checks, &extra, &kb, &sim, 8);
        assert!(
            report.demoted.is_empty(),
            "no violating program, no demotion"
        );
        assert_eq!(report.examined, 0);
    }

    #[test]
    fn enforced_check_survives_violating_programs() {
        let kb = zodiac_kb::azure_kb();
        let sim = CloudSim::new_azure();
        // A check the cloud actually enforces: its violating programs fail
        // to deploy, so none of them is a counterexample.
        let checks = vec![validated(
            "let r:VM in r.priority == 'Spot' => r.eviction_policy != null",
        )];
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let extra: Vec<Program> = corpus(0.0)
            .into_iter()
            .map(|mut p| {
                zodiac_corpus::inject_kind(&mut rng, &mut p, "spot-without-eviction");
                p
            })
            .collect();
        let report = counterexample_pass(&checks, &extra, &kb, &sim, 8);
        assert!(
            report.examined > 0,
            "the injected violations must be exercised"
        );
        assert!(
            report.demoted.is_empty(),
            "enforced checks are never demoted"
        );
    }

    #[test]
    fn pass_is_deterministic() {
        let kb = zodiac_kb::azure_kb();
        let sim = CloudSim::new_azure();
        let checks = vec![
            validated(OPEN_WORLD_FP),
            validated("let r:VM in r.priority == 'Spot' => r.eviction_policy != null"),
        ];
        let extra = corpus(1.0);
        let a = counterexample_pass(&checks, &extra, &kb, &sim, 4);
        let b = counterexample_pass(&checks, &extra, &kb, &sim, 4);
        assert_eq!(a.demoted, b.demoted);
        assert_eq!(a.examined, b.examined);
    }
}
