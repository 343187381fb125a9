//! The reference the wave path is checked against: Figure 5's loop run one
//! candidate at a time. Each false-positive probe encodes against the full
//! open soft list, solves cold, and deploys alone; the shared negatives do
//! the same. The grouping and TP half is production's own
//! [`Scheduler::tp_pass`]. Test-only: production has no seam for it.

use super::*;
use std::sync::Arc;
use zodiac_cloud::CloudSim;
use zodiac_mining::{mine, MiningConfig};
use zodiac_obs::MemoryRecorder;

impl<D: DeployOracle> Scheduler<'_, D> {
    /// Runs Figure 5 to completion, one candidate at a time.
    fn run_reference(&self, candidates: Vec<MinedCheck>) -> ValidationOutcome {
        let mut rc = self.candidates(candidates);
        let index = mdc::CorpusIndex::build(self.corpus);
        let mut validated: Vec<ValidatedCheck> = Vec::new();
        let mut false_positives: Vec<FalsifiedCheck> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut waves_done = 0;
        for _ in 0..self.cfg.max_iterations {
            if rc.is_empty() {
                break;
            }
            let before = rc.len();
            let hard: Vec<Check> = validated.iter().map(|v| v.mined.check.clone()).collect();
            let removed = self.fp_pass_sequential(&mut rc, &hard, &mut false_positives, &index);
            retain_not(&mut rc, &removed);
            let negatives = self.generate_negatives_full(&mut rc, &hard, &index);
            let mut stats = IterationStats::default();
            self.tp_pass(
                &mut rc,
                &negatives,
                &mut validated,
                &mut groups,
                &mut stats,
                &mut waves_done,
            );
            if rc.len() == before {
                break;
            }
        }
        ValidationOutcome {
            validated,
            false_positives,
            unresolved: rc.into_iter().map(|c| c.mined).collect(),
            groups,
            trace: ValidationTrace::default(),
        }
    }

    /// The one-candidate-at-a-time false-positive pass. Returns the set of
    /// demoted indices.
    fn fp_pass_sequential(
        &self,
        rc: &mut [Candidate],
        hard: &[Check],
        false_positives: &mut Vec<FalsifiedCheck>,
        index: &mdc::CorpusIndex,
    ) -> BTreeSet<usize> {
        let mut removed: BTreeSet<usize> = BTreeSet::new();
        for i in 0..rc.len() {
            if removed.contains(&i) {
                continue;
            }
            if self.ensure_positive(&mut rc[i], index).is_none() {
                removed.insert(i);
                false_positives.push(FalsifiedCheck {
                    mined: rc[i].mined.clone(),
                    reason: FalsifyReason::NoPositiveCase,
                });
                continue;
            }
            let soft: Vec<(Check, u64)> = rc
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i && !removed.contains(j))
                .map(|(_, c)| (c.mined.check.clone(), soft_weight(&c.mined)))
                .collect();
            let Some(positive) = rc[i].positive.as_ref() else {
                continue;
            };
            let result = mutate::negative_test(
                &rc[i].mined.check,
                positive,
                hard,
                &soft,
                self.kb,
                self.corpus,
                &self.cfg.mutation,
            );
            match result {
                MutationResult::Unsat => {
                    removed.insert(i);
                    false_positives.push(FalsifiedCheck {
                        mined: rc[i].mined.clone(),
                        reason: FalsifyReason::Unsatisfiable,
                    });
                }
                MutationResult::NotApplicable => {
                    removed.insert(i);
                    false_positives.push(FalsifiedCheck {
                        mined: rc[i].mined.clone(),
                        reason: FalsifyReason::NotApplicable,
                    });
                }
                MutationResult::Negative(neg) => {
                    let (report, _cached) = self.oracle.deploy_annotated(&neg.program);
                    if report.outcome.is_success() {
                        removed.insert(i);
                        false_positives.push(FalsifiedCheck {
                            mined: rc[i].mined.clone(),
                            reason: FalsifyReason::Deployable,
                        });
                        // Every violated open candidate falls with it: the
                        // deployment succeeded despite violating them all.
                        let soft_indices: Vec<usize> = rc
                            .iter()
                            .enumerate()
                            .filter(|(j, _)| *j != i && !removed.contains(j))
                            .map(|(j, _)| j)
                            .collect();
                        for (pos_in_soft, &j) in soft_indices.iter().enumerate() {
                            if neg.violated_soft.contains(&pos_in_soft) {
                                removed.insert(j);
                                false_positives.push(FalsifiedCheck {
                                    mined: rc[j].mined.clone(),
                                    reason: FalsifyReason::Deployable,
                                });
                            }
                        }
                    }
                }
            }
        }
        removed
    }

    /// Generates one shared negative test per open candidate against the
    /// full open soft list, for the grouping and TP passes.
    fn generate_negatives_full(
        &self,
        rc: &mut [Candidate],
        hard: &[Check],
        index: &mdc::CorpusIndex,
    ) -> Vec<Option<SharedNegative>> {
        let n = rc.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if self.ensure_positive(&mut rc[i], index).is_none() {
                out.push(None);
                continue;
            }
            let soft: Vec<(Check, u64)> = (0..n)
                .filter(|j| *j != i)
                .map(|j| (rc[j].mined.check.clone(), soft_weight(&rc[j].mined)))
                .collect();
            let Some(positive) = rc[i].positive.as_ref() else {
                out.push(None);
                continue;
            };
            let result = mutate::negative_test(
                &rc[i].mined.check,
                positive,
                hard,
                &soft,
                self.kb,
                self.corpus,
                &self.cfg.mutation,
            );
            out.push(match result {
                MutationResult::Negative(neg) => {
                    let soft_global: Vec<usize> = (0..n).filter(|j| *j != i).collect();
                    let violates = neg
                        .violated_soft
                        .iter()
                        .filter_map(|&p| soft_global.get(p).copied())
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
}

/// (validated, falsified, unresolved) candidate fingerprints. Falsify
/// reasons are left out: the wave path finds every positive case up front,
/// so it may record `no_positive_case` where the reference first demotes
/// the candidate by co-violation.
fn verdict_sets(o: &ValidationOutcome) -> [BTreeSet<u64>; 3] {
    [
        o.validated
            .iter()
            .map(|v| v.mined.check.fingerprint())
            .collect(),
        o.false_positives
            .iter()
            .map(|f| f.mined.check.fingerprint())
            .collect(),
        o.unresolved.iter().map(|m| m.check.fingerprint()).collect(),
    ]
}

/// The 32-project corpus a fuzz episode mines, as `zodiac-testkit`'s
/// `gen::arb_corpus` draws it from the episode seed.
fn episode_corpus(episode_seed: u64) -> Vec<Program> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(episode_seed);
    zodiac_corpus::generate(&zodiac_corpus::CorpusConfig {
        seed: rng.gen(),
        projects: 32,
        noise_rate: 0.0,
        rare_option_rate: 0.0,
        min_motifs: 1,
        max_motifs: 3,
    })
    .into_iter()
    .map(|p| p.program)
    .collect()
}

#[test]
fn wave_path_matches_the_reference() {
    // The 60-project corpus of `tests/wave_equivalence.rs` (seed 0xC0FFEE),
    // then the episodes `zodiac fuzz --seed 0xC0FFEE --cases 256` runs and
    // the first episode of regression seed 0x5eed0001.
    let mut corpora: Vec<(String, Vec<Program>)> = vec![(
        "0xC0FFEE, 60 projects".to_string(),
        zodiac_corpus::generate(&zodiac_corpus::CorpusConfig {
            projects: 60,
            noise_rate: 0.02,
            ..Default::default()
        })
        .into_iter()
        .map(|p| p.program)
        .collect(),
    )];
    for episode_seed in [
        0x120e99a6dde4a550,
        0x8f989ef97733d4b4,
        0xf0a28eb2e4fd367b,
        0x50c29bfe8734f5d2,
        0xcd45c7f1de81ef56,
    ] {
        corpora.push((
            format!("episode {episode_seed:#x}"),
            episode_corpus(episode_seed),
        ));
    }

    let kb = zodiac_kb::azure_kb();
    let sim = CloudSim::new_azure();
    let rec = Arc::new(MemoryRecorder::new());
    for (name, corpus) in &corpora {
        let checks = mine(corpus, &kb, &MiningConfig::default()).checks;
        assert!(!checks.is_empty(), "{name}: nothing mined");
        let wave = Scheduler::new(&sim, &kb, corpus, SchedulerConfig::default())
            .with_obs(Obs::single(rec.clone()))
            .run(checks.clone());
        let reference =
            Scheduler::new(&sim, &kb, corpus, SchedulerConfig::default()).run_reference(checks);
        let (wave, reference) = (verdict_sets(&wave), verdict_sets(&reference));
        for (which, (w, r)) in ["validated", "falsified", "unresolved"]
            .iter()
            .zip(wave.iter().zip(&reference))
        {
            assert!(
                w == r,
                "{name}: {which} sets differ; only the wave path: {:x?}, only the reference: {:x?}",
                w.difference(r).collect::<Vec<_>>(),
                r.difference(w).collect::<Vec<_>>()
            );
        }
    }
    // Without a replay the comparison never exercises the exact timeline.
    assert!(
        rec.snapshot().counter("validation.wave.replays") > 0,
        "no input made the wave path replay a mispredicted probe"
    );
}
