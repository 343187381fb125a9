//! The differential oracle: one fuzzing episode end-to-end.
//!
//! An episode runs the real pipeline — corpus → mining → validation
//! scheduler → counterexample demotion — against the bare [`CloudSim`]
//! (no worker threads, so every deployment interleaving is deterministic),
//! then asserts the property hierarchy documented in the crate root.

use crate::gen;
use crate::shrink;
use crate::{EpisodeStats, FuzzConfig, FuzzFailure, FuzzReport};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use zodiac_cloud::{CloudSim, DeployOutcome, Phase, TRANSIENT_PREFIX};
use zodiac_graph::ResourceGraph;
use zodiac_kb::KnowledgeBase;
use zodiac_mining::MiningConfig;
use zodiac_model::Program;
use zodiac_obs::Obs;
use zodiac_repair::{RepairConfig, RepairOutcome};
use zodiac_spec::{
    first_witness, holds, instances, parse_check, violations, Check, EvalContext, Instance,
};
use zodiac_validation::counterexample::counterexample_pass;
use zodiac_validation::ground::Grounder;
use zodiac_validation::{Scheduler, SchedulerConfig, ValidatedCheck};

/// Violating programs examined per check in the episode's §5.6 pass.
const CE_BUDGET: usize = 4;

/// True when printing then re-parsing `check` loses information.
fn roundtrip_fails(check: &Check) -> bool {
    match parse_check(&check.to_string()) {
        Ok(back) => back != *check,
        Err(_) => true,
    }
}

/// Runs one episode and records its stats, tallies, and failures.
pub(crate) fn run_episode(
    ep: usize,
    episode_seed: u64,
    episode_cases: usize,
    cfg: &FuzzConfig,
    obs: &Obs,
    report: &mut FuzzReport,
) {
    let mut rng = StdRng::seed_from_u64(episode_seed);
    let kb = zodiac_kb::azure_kb();
    let sim = CloudSim::new_azure();

    // --- the real pipeline, minus the engine wrapper -----------------------
    let corpus = gen::arb_corpus(&mut rng, cfg.corpus_projects.max(1));
    let mining = zodiac_mining::mine(&corpus, &kb, &MiningConfig::default());
    let outcome =
        Scheduler::new(&sim, &kb, &corpus, SchedulerConfig::default()).run(mining.checks.clone());

    // Generate this episode's wild programs up front: they are both the
    // soundness probes and the open-world corpus of the counterexample
    // pass, so soundness is asserted over post-demotion checks.
    let cases: Vec<(u64, Program)> = (0..episode_cases)
        .map(|_| {
            let (case_seed, mut case_rng) = gen::child_rng(&mut rng);
            (case_seed, gen::arb_program(&mut case_rng))
        })
        .collect();
    let case_programs: Vec<Program> = cases.iter().map(|(_, p)| p.clone()).collect();
    let ce = counterexample_pass(&outcome.validated, &case_programs, &kb, &sim, CE_BUDGET);
    let demoted: BTreeSet<usize> = ce.demoted.iter().copied().collect();
    let final_checks: Vec<&ValidatedCheck> = outcome
        .validated
        .iter()
        .enumerate()
        .filter(|(i, _)| !demoted.contains(i))
        .map(|(_, v)| v)
        .collect();

    let mut stats = EpisodeStats {
        seed: episode_seed,
        corpus_projects: corpus.len(),
        candidates: mining.checks.len(),
        validated: outcome.validated.len(),
        demoted: demoted.len(),
        cases: cases.len(),
        deployable: 0,
    };

    // --- P1: soundness -----------------------------------------------------
    for (case_seed, program) in &cases {
        report.tally("soundness", 1);
        if !sim.deploys_ok(program) {
            continue;
        }
        stats.deployable += 1;
        let graph = ResourceGraph::build(program.clone());
        let ctx = EvalContext {
            graph: &graph,
            kb: Some(&kb),
        };
        for v in &final_checks {
            if violations(&v.mined.check, ctx).is_empty() {
                continue;
            }
            let check = v.mined.check.clone();
            let still_fails = |p: &Program| {
                !p.is_empty() && sim.deploys_ok(p) && {
                    let g = ResourceGraph::build(p.clone());
                    !violations(
                        &check,
                        EvalContext {
                            graph: &g,
                            kb: Some(&kb),
                        },
                    )
                    .is_empty()
                }
            };
            let shrunk = shrink::shrink_program(program, still_fails);
            report.fail(FuzzFailure {
                property: "soundness",
                episode: ep,
                replay_seed: *case_seed,
                detail: format!(
                    "surviving check `{check}` rejects a program the cloud deploys\n\
                     shrunk program ({} of {} resources):\n{}",
                    shrunk.len(),
                    program.len(),
                    zodiac_hcl::to_hcl(&shrunk)
                ),
            });
        }
    }
    obs.counter("fuzz.episode.deployable", stats.deployable as u64);

    // --- P2: mutation efficacy --------------------------------------------
    for v in &outcome.validated {
        report.tally("mutation-efficacy", 1);
        if let Some(detail) = efficacy_violation(&sim, v) {
            report.fail(FuzzFailure {
                property: "mutation-efficacy",
                episode: ep,
                replay_seed: episode_seed,
                detail,
            });
        }
    }

    // --- P3: permutation stability -----------------------------------------
    report.tally("permutation-stability", 1);
    let mut shuffled = mining.checks.clone();
    shuffled.shuffle(&mut rng);
    let permuted = Scheduler::new(&sim, &kb, &corpus, SchedulerConfig::default()).run(shuffled);
    let base_set: BTreeSet<String> = outcome
        .validated
        .iter()
        .map(|v| v.mined.check.canonical())
        .collect();
    let perm_set: BTreeSet<String> = permuted
        .validated
        .iter()
        .map(|v| v.mined.check.canonical())
        .collect();
    if base_set != perm_set {
        let only_base: Vec<&String> = base_set.difference(&perm_set).collect();
        let only_perm: Vec<&String> = perm_set.difference(&base_set).collect();
        report.fail(FuzzFailure {
            property: "permutation-stability",
            episode: ep,
            replay_seed: episode_seed,
            detail: format!(
                "validated set changed under candidate permutation\n\
                 only in original order ({}): {:?}\n\
                 only in shuffled order ({}): {:?}",
                only_base.len(),
                only_base,
                only_perm.len(),
                only_perm
            ),
        });
    }

    // --- P4: corpus monotonicity -------------------------------------------
    // Self-duplication doubles every support count while keeping confidence
    // and lift bit-identical, so the mined set must not shrink (it may grow:
    // candidates below min_support clear the bar at double support).
    report.tally("corpus-monotonicity", 1);
    let doubled: Vec<Program> = corpus.iter().chain(corpus.iter()).cloned().collect();
    let mining_doubled = zodiac_mining::mine(&doubled, &kb, &MiningConfig::default());
    let base_mined: BTreeSet<String> = mining.checks.iter().map(|c| c.check.canonical()).collect();
    let doubled_mined: BTreeSet<String> = mining_doubled
        .checks
        .iter()
        .map(|c| c.check.canonical())
        .collect();
    let lost: Vec<&String> = base_mined.difference(&doubled_mined).collect();
    if !lost.is_empty() {
        report.fail(FuzzFailure {
            property: "corpus-monotonicity",
            episode: ep,
            replay_seed: episode_seed,
            detail: format!(
                "{} candidate(s) vanished when the corpus was self-duplicated: {:?}",
                lost.len(),
                lost
            ),
        });
    }

    // --- P9: shard invariance ----------------------------------------------
    // Mining with a random shard count, over both the materialised corpus
    // and a stream of it, must reproduce the 1-shard candidate list
    // byte-for-byte — same checks, same order, same statistics to the last
    // float bit. This is the fuzzing face of the exact integer-counter
    // shard merge (`CorpusStats::merge_from`).
    report.tally("shard-invariance", 1);
    let shard_cfg = zodiac_mining::ShardConfig::with_shards(rng.gen_range(2..=9));
    let fingerprint = |checks: &[zodiac_mining::MinedCheck]| -> Vec<String> {
        checks
            .iter()
            .map(|c| {
                format!(
                    "{}|{}|{}|{:016x}|{:?}",
                    c.check,
                    c.family,
                    c.support,
                    c.confidence.to_bits(),
                    c.lift.map(f64::to_bits),
                )
            })
            .collect()
    };
    let baseline_fp = fingerprint(&mining.checks);
    let (sharded, _) =
        zodiac_mining::mine_streaming(&corpus, &kb, &MiningConfig::default(), &shard_cfg);
    let (streamed, streamed_n) = zodiac_mining::mine_streaming(
        corpus.iter().cloned(),
        &kb,
        &MiningConfig::default(),
        &shard_cfg,
    );
    for (mode, got, ok) in [
        ("materialised", fingerprint(&sharded.checks), true),
        (
            "streaming",
            fingerprint(&streamed.checks),
            streamed_n == corpus.len(),
        ),
    ] {
        if got == baseline_fp && ok {
            continue;
        }
        let only_base: Vec<&String> = baseline_fp.iter().filter(|c| !got.contains(c)).collect();
        let only_shard: Vec<&String> = got.iter().filter(|c| !baseline_fp.contains(c)).collect();
        report.fail(FuzzFailure {
            property: "shard-invariance",
            episode: ep,
            replay_seed: episode_seed,
            detail: format!(
                "{mode} mine with {} shards diverges from the 1-shard candidate list\n\
                 only 1-shard ({}): {:?}\n\
                 only sharded ({}): {:?}",
                shard_cfg.shards,
                only_base.len(),
                only_base,
                only_shard.len(),
                only_shard
            ),
        });
    }

    // --- P5: print/parse round-trip ----------------------------------------
    let generated: Vec<Check> = (0..cfg.checks_per_episode)
        .map(|_| gen::arb_check(&mut rng))
        .collect();
    for check in mining.checks.iter().map(|c| &c.check).chain(&generated) {
        report.tally("print-parse-roundtrip", 1);
        if !roundtrip_fails(check) {
            continue;
        }
        let shrunk = shrink::shrink_check(check, roundtrip_fails);
        let printed = shrunk.to_string();
        let parse_result = match parse_check(&printed) {
            Ok(back) if back != shrunk => "re-parses to a different check".to_string(),
            Ok(_) => "unexpectedly round-trips after shrinking".to_string(),
            Err(e) => format!("fails to re-parse: {e}"),
        };
        report.fail(FuzzFailure {
            property: "print-parse-roundtrip",
            episode: ep,
            replay_seed: episode_seed,
            detail: format!("printed form of a check {parse_result}\nshrunk check: {printed}"),
        });
    }

    // --- P6–P8: repair properties ------------------------------------------
    // Every repair the engine *accepts* against the surviving checks must be
    // sound (violates nothing, still deploys), minimal (no strict subset of
    // its edits clears the oracle stack), and intent-preserving (no deleted
    // resources, no deceptive diffs). Unrepairable/exhausted outcomes are
    // legitimate — the properties constrain accepted repairs only.
    let repair_checks: Vec<Check> = final_checks.iter().map(|v| v.mined.check.clone()).collect();
    if !repair_checks.is_empty() {
        let violates_some = |program: &Program| {
            let graph = ResourceGraph::build(program.clone());
            let ctx = EvalContext {
                graph: &graph,
                kb: Some(&kb),
            };
            repair_checks.iter().any(|c| !violations(c, ctx).is_empty())
        };
        // Targets: wild cases violating a surviving check, topped up with
        // noise-injected corpus programs (both derived from the episode rng,
        // so the target list is deterministic).
        let mut targets: Vec<Program> = cases
            .iter()
            .map(|(_, p)| p)
            .filter(|p| violates_some(p))
            .take(cfg.repairs_per_episode)
            .cloned()
            .collect();
        for base in &corpus {
            if targets.len() >= cfg.repairs_per_episode {
                break;
            }
            let mut noisy = base.clone();
            if zodiac_corpus::inject(&mut rng, &mut noisy).is_some() && violates_some(&noisy) {
                targets.push(noisy);
            }
        }
        for original in &targets {
            let repair = zodiac_repair::repair_program(
                original,
                &repair_checks,
                &kb,
                &sim,
                &RepairConfig::default(),
                obs,
            );
            let RepairOutcome::Accepted {
                program: repaired,
                edits,
            } = &repair.outcome
            else {
                continue;
            };

            // P6: soundness of the accepted repair.
            report.tally("repair-soundness", 1);
            if violates_some(repaired) || !sim.deploys_ok(repaired) {
                report.fail(FuzzFailure {
                    property: "repair-soundness",
                    episode: ep,
                    replay_seed: episode_seed,
                    detail: format!(
                        "accepted repair ({} edit(s)) still violates a surviving check or \
                         fails to deploy\nedits:\n{}",
                        edits.len(),
                        render_edits(edits)
                    ),
                });
            }

            // A subset of edits "passes" when it clears all three oracle
            // layers against the same original program and violated set.
            let subset_passes = |subset: &[zodiac_repair::RepairEdit]| {
                let candidate = zodiac_repair::apply_edits(original, subset);
                sim.deploys_ok(&candidate)
                    && !violates_some(&candidate)
                    && zodiac_repair::deceptive_fixes(original, &candidate, &repair.violated, &kb)
                        .is_empty()
            };

            // P7: minimality — enumerate strict subsets (edit lists are
            // small; the engine's own budget caps them).
            if edits.len() <= MINIMALITY_EDIT_CAP {
                report.tally("repair-minimality", 1);
                let proper_pass = (0..(1u32 << edits.len()) - 1).find(|mask| {
                    let subset: Vec<zodiac_repair::RepairEdit> = edits
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| mask & (1 << i) != 0)
                        .map(|(_, e)| e.clone())
                        .collect();
                    subset_passes(&subset)
                });
                if proper_pass.is_some() {
                    let shrunk = shrink::shrink_edits(edits, |subset| subset_passes(subset));
                    report.fail(FuzzFailure {
                        property: "repair-minimality",
                        episode: ep,
                        replay_seed: episode_seed,
                        detail: format!(
                            "a strict subset of an accepted {}-edit repair clears all three \
                             oracle layers\nminimal passing subset ({} edit(s)):\n{}",
                            edits.len(),
                            shrunk.len(),
                            render_edits(&shrunk)
                        ),
                    });
                }
            }

            // P8: intent preservation.
            report.tally("repair-intent", 1);
            let deleted: Vec<String> = original
                .resources()
                .iter()
                .map(|r| r.id())
                .filter(|id| repaired.find(id).is_none())
                .map(|id| id.to_string())
                .collect();
            let deceptions =
                zodiac_repair::deceptive_fixes(original, repaired, &repair.violated, &kb);
            if !deleted.is_empty() || !deceptions.is_empty() {
                report.fail(FuzzFailure {
                    property: "repair-intent",
                    episode: ep,
                    replay_seed: episode_seed,
                    detail: format!(
                        "accepted repair is not intent-preserving\n\
                         deleted resources: {:?}\ndeceptions: {:?}\nedits:\n{}",
                        deleted,
                        deceptions.iter().map(|d| d.to_string()).collect::<Vec<_>>(),
                        render_edits(edits)
                    ),
                });
            }
        }
    }

    // --- P10: evaluator short-circuit --------------------------------------
    // The queries that stop or skip early must answer as the full instance
    // list does, and grounding must agree with evaluation, over generated
    // checks and mined candidates crossed with generated graphs. Drawn
    // last, so no other property's inputs move.
    let graphs: Vec<(u64, ResourceGraph)> = (0..EVAL_GRAPHS)
        .map(|_| {
            let (graph_seed, mut graph_rng) = gen::child_rng(&mut rng);
            (graph_seed, gen::arb_graph(&mut graph_rng))
        })
        .collect();
    for check in generated
        .iter()
        .chain(mining.checks.iter().map(|c| &c.check))
    {
        for (graph_seed, graph) in &graphs {
            report.tally("eval-short-circuit", 1);
            let Some(what) = short_circuit_mismatch(check, graph, &kb) else {
                continue;
            };
            let shrunk = shrink::shrink_program(graph.program(), |p| {
                short_circuit_mismatch(check, &ResourceGraph::build(p.clone()), &kb).is_some()
            });
            report.fail(FuzzFailure {
                property: "eval-short-circuit",
                episode: ep,
                replay_seed: *graph_seed,
                detail: format!(
                    "{what}
check: {check}
shrunk program ({} of {} resources):
{}",
                    shrunk.len(),
                    graph.len(),
                    zodiac_hcl::to_hcl(&shrunk)
                ),
            });
        }
    }

    report.episodes.push(stats);
}

/// Generated graphs each episode crosses with its checks for P10.
const EVAL_GRAPHS: usize = 8;

/// How the short-circuiting queries, or the check grounded with no solver
/// variables, disagree with the full instance list of `check` on `graph`,
/// if they do.
fn short_circuit_mismatch(
    check: &Check,
    graph: &ResourceGraph,
    kb: &KnowledgeBase,
) -> Option<&'static str> {
    let ctx = EvalContext {
        graph,
        kb: Some(kb),
    };
    let all = instances(check, ctx);
    if holds(check, ctx) == all.iter().any(Instance::is_violation) {
        return Some("`holds` disagrees with the instance list");
    }
    if first_witness(check, ctx).as_ref() != all.iter().find(|i| i.is_witness()) {
        return Some("`first_witness` is not the first witnessing instance");
    }
    let grounder = Grounder::new(ctx, &BTreeMap::new());
    let grounded = |expr, instance: &Instance| grounder.ground(expr, &instance.binding).eval(&[]);
    if all.iter().any(|i| {
        grounded(&check.cond, i) != Some(i.cond) || grounded(&check.stmt, i) != Some(i.stmt)
    }) {
        return Some("grounding with no solver variables disagrees with evaluation");
    }
    let filtered: Vec<Instance> = all.into_iter().filter(Instance::is_violation).collect();
    if violations(check, ctx) != filtered {
        return Some("`violations` is not the instance list filtered to violations");
    }
    None
}

/// Edits beyond this count skip the exponential minimality enumeration.
const MINIMALITY_EDIT_CAP: usize = 4;

fn render_edits(edits: &[zodiac_repair::RepairEdit]) -> String {
    edits
        .iter()
        .map(|e| format!("  {e}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Checks one validated check's negative report against the rule table;
/// returns failure detail if the efficacy property is violated.
fn efficacy_violation(sim: &CloudSim, v: &ValidatedCheck) -> Option<String> {
    let check = &v.mined.check;
    match &v.negative_report.outcome {
        DeployOutcome::Success => Some(format!(
            "negative test for `{check}` deployed successfully, yet the check was validated"
        )),
        DeployOutcome::Failure { phase, rule_id, .. } => {
            if rule_id.starts_with(TRANSIENT_PREFIX) {
                return Some(format!(
                    "negative test for `{check}` failed on transient {rule_id} with no fault \
                     injector configured"
                ));
            }
            let declared = if rule_id == "core/dependency-cycle" {
                Some(Phase::PluginCheck)
            } else {
                sim.rules()
                    .iter()
                    .find(|r| r.id == *rule_id)
                    .map(|r| r.phase)
            };
            match declared {
                None => Some(format!(
                    "negative test for `{check}` failed on unknown rule {rule_id}"
                )),
                Some(declared) if declared != *phase => Some(format!(
                    "negative test for `{check}` failed at {phase}, but rule {rule_id} \
                     declares {declared}"
                )),
                Some(_) => None,
            }
        }
    }
}
