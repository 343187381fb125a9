//! The §5.6 counterexample pass over one shared corpus index equals the
//! per-(check, program) loop it replaced: the same `CounterexampleReport`,
//! and the deploy oracle receives the same batches in the same order.
//!
//! The reference below is that loop, kept as a test-only model: it builds a
//! graph for every (check, program) pair, scans every program (no type
//! filter), and reads violations off the full instance list.

use std::sync::Mutex;
use zodiac::PipelineConfig;
use zodiac_cloud::{CloudSim, DeployOracle, DeployReport};
use zodiac_corpus::CorpusConfig;
use zodiac_graph::ResourceGraph;
use zodiac_kb::KnowledgeBase;
use zodiac_model::Program;
use zodiac_spec::{instances, EvalContext};
use zodiac_validation::counterexample::{counterexample_pass, CounterexampleReport};
use zodiac_validation::{mdc, ValidatedCheck};

/// A deploy oracle double that records every batch it is asked to deploy
/// (a single deploy is recorded as a batch of one) and answers from the
/// simulator.
struct Recording {
    sim: CloudSim,
    batches: Mutex<Vec<Vec<Program>>>,
}

impl Recording {
    fn new() -> Recording {
        Recording {
            sim: CloudSim::new_azure(),
            batches: Mutex::new(Vec::new()),
        }
    }

    fn batches(self) -> Vec<Vec<Program>> {
        self.batches.into_inner().expect("recording lock")
    }
}

impl DeployOracle for Recording {
    fn deploy(&self, program: &Program) -> DeployReport {
        self.batches
            .lock()
            .expect("recording lock")
            .push(vec![program.clone()]);
        self.sim.deploy(program)
    }

    fn deploy_batch(&self, programs: &[Program]) -> Vec<DeployReport> {
        self.batches
            .lock()
            .expect("recording lock")
            .push(programs.to_vec());
        programs.iter().map(|p| self.sim.deploy(p)).collect()
    }

    fn deploy_batch_annotated(&self, programs: &[Program]) -> Vec<(DeployReport, bool)> {
        self.deploy_batch(programs)
            .into_iter()
            .map(|r| (r, false))
            .collect()
    }
}

/// The per-(check, program) counterexample loop the indexed pass replaced.
fn reference_pass<D: DeployOracle>(
    validated: &[ValidatedCheck],
    extra_corpus: &[Program],
    kb: &KnowledgeBase,
    oracle: &D,
    max_per_check: usize,
) -> CounterexampleReport {
    let mut report = CounterexampleReport::default();
    for (idx, v) in validated.iter().enumerate() {
        let mut cases: Vec<Program> = Vec::new();
        'programs: for program in extra_corpus {
            if cases.len() >= max_per_check {
                break;
            }
            let graph = ResourceGraph::build(program.clone());
            let ctx = EvalContext {
                graph: &graph,
                kb: Some(kb),
            };
            for violation in instances(&v.mined.check, ctx)
                .into_iter()
                .filter(|i| i.is_violation())
            {
                cases.push(mdc::prune(&graph, &violation.binding, kb).program);
                if cases.len() >= max_per_check {
                    break 'programs;
                }
            }
        }
        let reports = oracle.deploy_batch_annotated(&cases);
        match reports.iter().position(|(r, _)| r.outcome.is_success()) {
            Some(k) => {
                report.examined += k + 1;
                report.demoted.push(idx);
            }
            None => report.examined += cases.len(),
        }
    }
    report.demoted.sort_unstable();
    report.demoted.dedup();
    report
}

/// The validated checks and the extra corpus of the evaluation pipeline on
/// `seed`. The extra corpus is derived as `zodiac::run_pipeline` derives it
/// (restated here: the derivation is the contract).
fn evaluation_inputs(seed: u64) -> (Vec<ValidatedCheck>, Vec<Program>) {
    let mut cfg = PipelineConfig::evaluation();
    cfg.corpus.seed = seed;
    let result = zodiac::run_pipeline(&cfg);
    let extra_cfg = CorpusConfig {
        projects: cfg.counterexample_projects,
        seed: cfg.corpus.seed.wrapping_add(0x5EED),
        rare_option_rate: (cfg.corpus.rare_option_rate * 4.0).clamp(0.0, 0.05),
        ..cfg.corpus.clone()
    };
    let extra = zodiac_corpus::generate(&extra_cfg)
        .into_iter()
        .map(|p| p.program)
        .collect();
    (result.validation.validated, extra)
}

fn assert_equivalent(seed: u64) {
    let kb = zodiac_kb::azure_kb();
    let (validated, extra) = evaluation_inputs(seed);
    assert!(!validated.is_empty(), "{seed:#x}: nothing validated");
    for budget in [1, 8] {
        let reference_oracle = Recording::new();
        let expected = reference_pass(&validated, &extra, &kb, &reference_oracle, budget);
        let indexed_oracle = Recording::new();
        let got = counterexample_pass(&validated, &extra, &kb, &indexed_oracle, budget);
        assert_eq!(got, expected, "{seed:#x}, budget {budget}: report");
        let (expected_batches, got_batches) =
            (reference_oracle.batches(), indexed_oracle.batches());
        assert_eq!(
            got_batches.len(),
            validated.len(),
            "{seed:#x}, budget {budget}: one batch per validated check"
        );
        assert!(
            got_batches == expected_batches,
            "{seed:#x}, budget {budget}: the oracle received different batches"
        );
        assert!(
            got_batches.iter().any(|b| !b.is_empty()),
            "{seed:#x}, budget {budget}: no check had a violating program"
        );
    }
}

#[test]
fn indexed_pass_matches_per_pair_loop_on_headline_corpus() {
    assert_equivalent(0xC0FFEE);
}

#[test]
fn indexed_pass_matches_per_pair_loop_on_held_out_corpus() {
    assert_equivalent(0xC0FFEF);
}
