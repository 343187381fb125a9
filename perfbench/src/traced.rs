//! The traced run: the per-layer split of every workload.
//!
//! Each product is run twice on identical inputs: once untraced, as the
//! end-to-end reference, and once with a span around every call into a
//! layer. The layers must add up to the untraced time within the reported
//! residual (`<workload>.residual_ms`); the tracing overhead is the traced
//! time minus the untraced time of the pipeline, the one replay that does
//! exactly the untraced work.
//!
//! * `mine`: the pipeline is rebuilt from its public calls
//!   (`zodiac_corpus::generate`, `CorpusStats::build`, `mine_with_stats`,
//!   `Scheduler::run`, `counterexample_pass`) and must equal the
//!   `run_pipeline_with_obs` result; deploys are timed in front of the engine
//!   (`bench/deployer`) and around the simulator (`bench/cloud`). The traced
//!   pair deploys on one worker, the untraced workload on two.
//! * `serve-read`: a prefix of the scan plan is sent over one socket
//!   connection, then replayed in-process: `Daemon::handle_line` per request
//!   (filed as a memo hit or a cold scan), with `Request::parse`,
//!   `zodiac_hcl::compile` and `zodiac::scan_program` timed on their own as
//!   the attribution of the cold path. Transport is the round trip of a
//!   minimal request minus its handling time.
//! * `serve-write`: write cycles (a corpus delta, a repair, then scans) are
//!   sent over one connection, then replayed in-process: deltas through
//!   `Daemon::handle_line`, attributed on a shadow `IncrementalStats`
//!   (`observe_batch`/`retract`, then `mine_types_with_stats`); repairs
//!   through `repair_program` over the timed deploy path on the daemon's
//!   deploy-memo file.

use crate::mine::{deploy_path, pipeline_config, run_once};
use crate::requests::{repair_line, repair_order, Delta, DeltaStream, ScanPlan, Step};
use crate::run::{check_mine, Options, Outcome};
use crate::serve::{delta_ok, parse_verdict, reference_verdict, to_verdict, Verdict};
use crate::stats::ratio;
use crate::tracer::{by_path, table_rows, PathTime, Span, Tracer};
use crate::wire::{field, is_ok, Server};
use crate::world::{
    fresh_dir, mine_checks, read_daemon, repair_pool, write_daemon, Seeds, DELTA_WIDTH, READ_PLAN,
    REPAIR_CHOICE, REPAIR_POOL, WRITE_BASE, WRITE_PLAN,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;
use zodiac_corpus::CorpusConfig;
use zodiac_daemon::protocol::Request;
use zodiac_deployer::DeployerConfig;
use zodiac_kb::KnowledgeBase;
use zodiac_mining::{
    mine_types_with_stats, mine_with_stats, CorpusStats, IncrementalStats, MiningConfig,
    ShardConfig,
};
use zodiac_model::Program;
use zodiac_obs::Obs;
use zodiac_spec::Check;
use zodiac_validation::counterexample::counterexample_pass;
use zodiac_validation::Scheduler;

/// Scan requests in the serve-read replay.
pub const READ_REPLAY: usize = 3000;
/// Write cycles in the serve-write replay.
pub const WRITE_REPLAY: usize = 16;
/// Scans after each write cycle in the serve-write replay.
pub const SCANS_PER_CYCLE: usize = 40;
/// Round trips of the transport probe.
pub const PROBES: usize = 2000;
/// The transport probe: a request the daemon rejects at once.
const PROBE: &str = "{\"op\":\"nop\"}";

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

fn per(total_us: u64, n: usize) -> f64 {
    total_us as f64 / n.max(1) as f64
}

/// Self/total time of `path` among `spans`.
fn at(paths: &BTreeMap<&'static str, PathTime>, path: &str) -> PathTime {
    paths.get(path).copied().unwrap_or_default()
}

/// The pipeline rebuilt from its public calls, with a span around each.
struct Rebuilt {
    mining: zodiac_mining::MiningReport,
    validation: zodiac_validation::ValidationOutcome,
    ce: zodiac_validation::counterexample::CounterexampleReport,
    finals: Vec<Check>,
    projects: usize,
    front: crate::oracle::OracleCounts,
    back: crate::oracle::OracleCounts,
    us: u64,
}

/// The traced `mine` product. A warm-up pair of untraced and traced runs
/// goes first, so the measured pair compares warm process states.
///
/// Both runs of the pair deploy on one worker, so every cloud span nests in
/// its deployer span on the driving thread and the self times partition the
/// wall time; with two workers the cloud spans overlap in time. The result
/// is the same at any worker count.
fn mine(seeds: Seeds, kb: &KnowledgeBase, tracer: &Arc<Tracer>, out: &mut Outcome) {
    let cfg = pipeline_config(seeds.traced_corpus(), 1);
    let warm = run_once(&cfg, kb);
    let warm_rebuild = rebuild(&cfg, kb, &Arc::new(Tracer::default()));
    let untraced = run_once(&cfg, kb);
    let mark = tracer.spans().len();
    let rebuilt = rebuild(&cfg, kb, tracer);
    let runs = [warm, untraced];
    check_mine(&runs, seeds.traced_corpus(), false, out);
    let untraced = &runs[1];
    let Some(r) = &untraced.result else {
        return;
    };
    for (i, b) in [&warm_rebuild, &rebuilt].into_iter().enumerate() {
        let checks = |v: &[zodiac_validation::ValidatedCheck]| -> Vec<Check> {
            v.iter().map(|c| c.mined.check.clone()).collect()
        };
        let same = b.mining.hypothesized == r.mining.hypothesized
            && b.mining.checks.iter().map(|c| &c.check).eq(r
                .mining
                .checks
                .iter()
                .map(|c| &c.check))
            && checks(&b.validation.validated) == checks(&r.validation.validated)
            && b.validation.false_positives.len() == r.validation.false_positives.len()
            && b.ce.demoted == r.demoted
            && b.finals == checks(&r.final_checks);
        if !same {
            out.failed += 1;
            out.problems.push(format!(
                "rebuilt pipeline {i} differs from run_pipeline_with_obs"
            ));
        }
        let got = (b.front.requests, b.back.distinct, b.back.cloud_secs);
        let want = (
            untraced.front.requests,
            untraced.back.distinct,
            untraced.back.cloud_secs,
        );
        if got != want {
            out.failed += 1;
            out.problems.push(format!(
                "DRIFT: traced deploy counts {got:?} differ from untraced {want:?}"
            ));
        }
    }
    out.attempted += 4;
    let Rebuilt {
        mining,
        validation,
        ce,
        projects,
        front,
        back,
        us: traced_us,
        ..
    } = rebuilt;

    let spans: Vec<Span> = tracer.spans()[mark..].to_vec();
    let paths = by_path(&spans);
    let stats_t = at(&paths, "bench/mining/stats");
    out.metric(
        "corpus.generate_ms",
        ms(at(&paths, "bench/corpus/generate").self_us),
        "ms",
    );
    out.metric("mining.stats_ms", ms(stats_t.self_us), "ms");
    out.metric(
        "mining.pps",
        projects as f64 / (stats_t.self_us.max(1) as f64 / 1e6),
        "1/s",
    );
    out.metric(
        "mining.instantiate_ms",
        ms(at(&paths, "bench/mining/instantiate").self_us),
        "ms",
    );
    out.metric("mining.hypothesized", mining.hypothesized as f64, "count");
    out.metric(
        "mining.kept_ratio",
        ratio(mining.checks.len() as u64, mining.hypothesized as u64),
        "ratio",
    );
    out.metric(
        "validation.schedule_self_ms",
        ms(at(&paths, "bench/validation/schedule").self_us),
        "ms",
    );
    out.metric("validation.scheduled", mining.checks.len() as f64, "count");
    out.metric(
        "validation.validated_ratio",
        ratio(
            validation.validated.len() as u64,
            mining.checks.len() as u64,
        ),
        "ratio",
    );
    out.metric(
        "validation.counterexample_self_ms",
        ms(at(&paths, "bench/validation/counterexample").self_us),
        "ms",
    );
    out.metric("validation.ce_cases", ce.examined as f64, "count");
    out.metric(
        "deployer.self_ms",
        ms(at(&paths, "bench/deployer").self_us),
        "ms",
    );
    out.metric("deployer.requests", front.requests as f64, "count");
    out.metric(
        "deployer.hit_ratio",
        1.0 - ratio(back.distinct, front.requests),
        "ratio",
    );
    out.metric(
        "cloud.deploy_ms",
        ms(at(&paths, "bench/cloud").total_us),
        "ms",
    );
    out.metric("cloud.deploys", back.distinct as f64, "count");
    out.metric("cloud.sim_s", back.cloud_secs as f64, "cloud-s");

    let layers: u64 = paths
        .iter()
        .filter(|(p, _)| **p != "bench/mine")
        .map(|(_, t)| t.self_us)
        .sum();
    let untraced_us = (untraced.secs * 1e6) as u64;
    out.metric(
        "mine.residual_ms",
        (untraced_us as f64 - layers as f64) / 1000.0,
        "ms",
    );
    out.metric(
        "trace.overhead_ms",
        (traced_us as f64 - untraced_us as f64) / 1000.0,
        "ms",
    );
    out.notes.push(format!(
        "mine: untraced {:.1} ms, traced {:.1} ms, layers {:.1} ms",
        ms(untraced_us),
        ms(traced_us),
        ms(layers)
    ));
}

/// Runs the pipeline from its public calls, recording spans into `tracer`.
fn rebuild(cfg: &zodiac::PipelineConfig, kb: &KnowledgeBase, tracer: &Arc<Tracer>) -> Rebuilt {
    let t0 = Instant::now();
    let root = tracer.open(true);
    let corpus = tracer.scope("bench/corpus/generate", || {
        zodiac_corpus::generate(&cfg.corpus)
    });
    let programs: Vec<Program> = corpus.iter().map(|p| p.program.clone()).collect();
    let stats = tracer.scope("bench/mining/stats", || {
        CorpusStats::build(&programs, kb, cfg.mining.use_kb)
    });
    let mining = tracer.scope("bench/mining/instantiate", || {
        mine_with_stats(&stats, kb, &cfg.mining)
    });
    let path = deploy_path(&cfg.deployer, Some(tracer.clone()));
    let validation = tracer.scope("bench/validation/schedule", || {
        Scheduler::new(&path, kb, &programs, cfg.scheduler.clone()).run(mining.checks.clone())
    });
    // The counterexample corpus, derived as the pipeline derives it.
    let extra_cfg = CorpusConfig {
        projects: cfg.counterexample_projects,
        seed: cfg.corpus.seed.wrapping_add(0x5EED),
        rare_option_rate: (cfg.corpus.rare_option_rate * 4.0).clamp(0.0, 0.05),
        ..cfg.corpus.clone()
    };
    let extra: Vec<Program> = tracer
        .scope("bench/corpus/generate", || {
            zodiac_corpus::generate(&extra_cfg)
        })
        .into_iter()
        .map(|p| p.program)
        .collect();
    let ce = tracer.scope("bench/validation/counterexample", || {
        counterexample_pass(
            &validation.validated,
            &extra,
            kb,
            &path,
            cfg.counterexample_budget.max(1),
        )
    });
    let demoted: BTreeSet<usize> = ce.demoted.iter().copied().collect();
    let finals: Vec<Check> = validation
        .validated
        .iter()
        .enumerate()
        .filter(|(i, _)| !demoted.contains(i))
        .map(|(_, v)| v.mined.check.clone())
        .collect();
    tracer.close(root, "bench/mine");
    Rebuilt {
        mining,
        validation,
        ce,
        finals,
        projects: programs.len(),
        front: path.counts(),
        back: path.inner().backend().counts(),
        us: t0.elapsed().as_micros() as u64,
    }
}

/// The verdict of a scan answer, if it is a successful scan.
fn answer_verdict(resp: &str) -> Option<Verdict> {
    is_ok(resp)
        .then(|| field(resp, "violations"))
        .flatten()
        .and_then(parse_verdict)
}

/// Mean round trip of the transport probe over `server`, minus its
/// in-process handling time, microseconds.
fn transport_us(server: &Server, daemon: &zodiac_daemon::Daemon) -> Result<f64, String> {
    let mut client = server.connect()?;
    let t0 = Instant::now();
    for _ in 0..PROBES {
        client.call(PROBE)?;
    }
    let rt = t0.elapsed().as_secs_f64() * 1e6 / PROBES as f64;
    let t0 = Instant::now();
    for _ in 0..PROBES {
        std::hint::black_box(daemon.handle_line(std::hint::black_box(PROBE)));
    }
    let handle = t0.elapsed().as_secs_f64() * 1e6 / PROBES as f64;
    Ok((rt - handle).max(0.0))
}

/// The traced `serve-read` product.
fn serve_read(
    seeds: Seeds,
    kb: &KnowledgeBase,
    tracer: &Arc<Tracer>,
    opts: &Options,
    out: &mut Outcome,
) -> Result<(), String> {
    let checks = mine_checks(seeds.corpus, kb);
    let plan = ScanPlan::new(seeds.stream(READ_PLAN), READ_REPLAY);
    for i in 0..plan.len() {
        plan.line(i); // Render every request before timing.
    }

    // Untraced: the plan over one socket connection.
    let daemon = read_daemon(&opts.scratch.join("read-a"), &checks)?;
    let server = Server::start(daemon.clone(), &opts.scratch.join("ra.sock"))?;
    let mut client = server.connect()?;
    let t0 = Instant::now();
    for i in 0..plan.len() {
        client.call(plan.line(i))?;
    }
    let untraced_us = t0.elapsed().as_micros() as u64;
    drop(client);
    let transport = transport_us(&server, &daemon)?;
    server.stop()?;

    // Traced: the same plan in-process on a fresh daemon.
    let daemon = read_daemon(&opts.scratch.join("read-b"), &checks)?;
    let mut refs: HashMap<u32, Verdict> = HashMap::new();
    let (mut parse, mut compile, mut eval) = (0u64, 0u64, 0u64);
    let (mut cold, mut memo, mut n_cold, mut n_memo, mut fresh) =
        (0u64, 0u64, 0usize, 0usize, 0usize);
    let root = tracer.open(true);
    for i in 0..plan.len() {
        let line = plan.line(i);
        let step = plan.step(i);
        let span = tracer.open(true);
        let _ = std::hint::black_box(Request::parse(line));
        parse += tracer.close(span, "bench/daemon/parse");
        if let Step::Fresh(k) = step {
            let source = plan.source(k);
            fresh += 1;
            let span = tracer.open(true);
            let program = zodiac_hcl::compile(&source);
            compile += tracer.close(span, "bench/hcl/compile");
            if let Ok(program) = program {
                let span = tracer.open(true);
                let verdict = zodiac::scan_program(&program, &checks, kb);
                eval += tracer.close(span, "bench/scanner/eval");
                refs.insert(k, to_verdict(verdict));
            }
        }
        let span = tracer.open(true);
        let resp = daemon.handle_line(line);
        let cached = field(&resp, "cached").is_some_and(|v| v.starts_with("true"));
        let us = tracer.close(
            span,
            if cached {
                "bench/daemon/handle-memo"
            } else {
                "bench/daemon/handle-cold"
            },
        );
        if cached {
            memo += us;
            n_memo += 1;
        } else {
            cold += us;
            n_cold += 1;
        }
        let expected = refs.get(&step.program());
        if expected.is_none() || answer_verdict(&resp).as_ref() != expected {
            out.failed += 1;
        }
    }
    tracer.close(root, "bench/serve-read");
    out.attempted += plan.len() as u64;

    out.metric("daemon.parse_us", per(parse, plan.len()), "us");
    out.metric("hcl.compile_us", per(compile, fresh), "us");
    out.metric("scanner.eval_us", per(eval, fresh), "us");
    out.metric("daemon.handle_cold_us", per(cold, n_cold), "us");
    out.metric("daemon.handle_memo_us", per(memo, n_memo), "us");
    out.metric("daemon.transport_us", transport, "us");
    out.metric(
        "daemon.memo_hit_ratio",
        ratio(n_memo as u64, plan.len() as u64),
        "ratio",
    );
    let layers = (cold + memo) as f64 + transport * plan.len() as f64;
    out.metric(
        "serve-read.residual_ms",
        (untraced_us as f64 - layers) / 1000.0,
        "ms",
    );
    out.notes.push(format!(
        "serve-read: {} scans ({} fresh); untraced {:.1} ms over the socket, handle {:.1} ms + transport {:.1} ms",
        plan.len(),
        fresh,
        ms(untraced_us),
        ms(cold + memo),
        transport * plan.len() as f64 / 1000.0
    ));
    Ok(())
}

/// The operations of one write cycle.
struct Cycle {
    delta: Delta,
    repair: String,
    scans: std::ops::Range<usize>,
}

/// The traced `serve-write` product.
fn serve_write(
    seeds: Seeds,
    kb: &KnowledgeBase,
    tracer: &Arc<Tracer>,
    opts: &Options,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut stream = DeltaStream::new(seeds.corpus, WRITE_BASE, DELTA_WIDTH);
    let bootstrap = stream.bootstrap();
    let plan = ScanPlan::new(seeds.stream(WRITE_PLAN), WRITE_REPLAY * SCANS_PER_CYCLE);

    // Untraced: the cycles over one socket connection.
    let daemon = write_daemon(&opts.scratch.join("write-a"), &bootstrap.line())?;
    let pool = repair_pool(seeds.pool(), daemon.snapshot().plain(), kb, REPAIR_POOL);
    if pool.is_empty() {
        return Err("no flagged program found for the repair pool".into());
    }
    let order = repair_order(seeds.stream(REPAIR_CHOICE), pool.len());
    let cycles: Vec<Cycle> = (0..WRITE_REPLAY)
        .map(|c| Cycle {
            delta: stream.next_delta(),
            repair: pool[order[c % order.len()]].clone(),
            scans: c * SCANS_PER_CYCLE..(c + 1) * SCANS_PER_CYCLE,
        })
        .collect();
    let lines: Vec<(String, String)> = cycles
        .iter()
        .map(|c| (c.delta.line(), repair_line(&c.repair)))
        .collect();
    for i in 0..plan.len() {
        plan.line(i);
    }
    let server = Server::start(daemon.clone(), &opts.scratch.join("wa.sock"))?;
    let mut client = server.connect()?;
    let t0 = Instant::now();
    for (c, (delta, repair)) in cycles.iter().zip(&lines) {
        client.call(delta)?;
        client.call(repair)?;
        for i in c.scans.clone() {
            client.call(plan.line(i))?;
        }
    }
    let untraced_us = t0.elapsed().as_micros() as u64;
    drop(client);
    let transport = transport_us(&server, &daemon)?;
    server.stop()?;

    // Traced: the same cycles in-process on a fresh daemon, with a shadow
    // observation database attributing each delta.
    let dir = opts.scratch.join("write-b");
    let daemon = write_daemon(&dir, &bootstrap.line())?;
    let mining = MiningConfig::default();
    let shards = ShardConfig::with_shards(0);
    let mut shadow = IncrementalStats::new(mining.use_kb);
    let compiled = |d: &Delta| -> Vec<(String, Program)> {
        d.upsert
            .iter()
            .filter_map(|(id, src)| zodiac_hcl::compile(src).ok().map(|p| (id.clone(), p)))
            .collect()
    };
    shadow.observe_batch(compiled(&bootstrap), kb, &shards);
    shadow.take_affected_types();
    let deployer = DeployerConfig {
        workers: 1,
        persistent_cache: Some(dir.join("deploy.memo")),
        ..DeployerConfig::default()
    };
    let sim = zodiac_cloud::CloudSim::new_azure();
    let mut refs: HashMap<(u32, u64), Option<Verdict>> = HashMap::new();
    let (mut delta_us, mut observe, mut remine, mut rescored) = (0u64, 0u64, 0u64, 0usize);
    let (mut repair_total, mut accepted, mut front_req, mut back_req) = (0u64, 0u64, 0u64, 0u64);
    let (mut scan_us, mut n_memo) = (0u64, 0usize);
    let mark = tracer.spans().len();
    let root = tracer.open(true);
    for (c, (delta, _)) in cycles.iter().zip(&lines) {
        let span = tracer.open(true);
        let resp = daemon.handle_line(delta);
        delta_us += tracer.close(span, "bench/daemon/delta");
        if !delta_ok(&resp) {
            out.failed += 1;
        }

        let upserts = compiled(&c.delta);
        let span = tracer.open(true);
        for id in &c.delta.remove {
            shadow.retract(id, kb);
        }
        shadow.observe_batch(upserts, kb, &shards);
        let changed = shadow.take_affected_types();
        observe += tracer.close(span, "bench/mining/observe");
        rescored += changed.len();
        let span = tracer.open(true);
        std::hint::black_box(mine_types_with_stats(shadow.stats(), kb, &mining, &changed));
        remine += tracer.close(span, "bench/mining/remine");

        // The repair the daemon would run: its current check set, a fresh
        // single-worker engine over the shared deploy memo.
        let snapshot = daemon.snapshot();
        match zodiac_hcl::compile(&c.repair) {
            Ok(program) => {
                let path = deploy_path(&deployer, Some(tracer.clone()));
                let span = tracer.open(true);
                let report = zodiac_repair::repair_program(
                    &program,
                    snapshot.plain(),
                    kb,
                    &path,
                    &zodiac_repair::RepairConfig::default(),
                    &Obs::null(),
                );
                repair_total += tracer.close(span, "bench/repair");
                if path.inner().sync_persistent().is_err() {
                    out.failed += 1;
                }
                front_req += path.counts().requests;
                back_req += path.inner().backend().counts().requests;
                if let Some(fixed) = report.accepted_program() {
                    accepted += 1;
                    let deploys = zodiac_hcl::compile(&zodiac_hcl::to_hcl(fixed))
                        .is_ok_and(|p| sim.deploy(&p).outcome.is_success());
                    if !deploys {
                        out.failed += 1;
                    }
                }
            }
            Err(_) => out.failed += 1,
        }

        for i in c.scans.clone() {
            let span = tracer.open(true);
            let resp = daemon.handle_line(plan.line(i));
            let cached = field(&resp, "cached").is_some_and(|v| v.starts_with("true"));
            scan_us += tracer.close(
                span,
                if cached {
                    "bench/daemon/handle-memo"
                } else {
                    "bench/daemon/handle-cold"
                },
            );
            n_memo += usize::from(cached);
            let k = plan.step(i).program();
            let expected = refs
                .entry((k, snapshot.key))
                .or_insert_with(|| reference_verdict(&plan.source(k), snapshot.plain(), kb));
            if expected.is_none() || answer_verdict(&resp) != *expected {
                out.failed += 1;
            }
        }
    }
    tracer.close(root, "bench/serve-write");
    let n = cycles.len();
    out.attempted += (n * (2 + SCANS_PER_CYCLE)) as u64;

    let paths = by_path(&tracer.spans()[mark..]);
    let deploy_us = at(&paths, "bench/deployer").total_us;
    out.metric("daemon.delta_handle_ms", ms(delta_us) / n as f64, "ms");
    out.metric("mining.observe_ms", ms(observe) / n as f64, "ms");
    out.metric("mining.remine_ms", ms(remine) / n as f64, "ms");
    out.metric("mining.types_rescored", rescored as f64, "count");
    out.metric(
        "daemon.delta_residual_ms",
        (ms(delta_us) - ms(observe) - ms(remine)) / n as f64,
        "ms",
    );
    out.metric(
        "repair.self_ms",
        ms(repair_total.saturating_sub(deploy_us)) / n as f64,
        "ms",
    );
    out.metric("repair.deploy_ms", ms(deploy_us) / n as f64, "ms");
    out.metric("repair.accepted_ratio", ratio(accepted, n as u64), "ratio");
    out.metric(
        "repair.deploy_hit_ratio",
        1.0 - ratio(back_req, front_req),
        "ratio",
    );
    out.metric(
        "daemon.memo_hit_ratio_writes",
        ratio(n_memo as u64, plan.len() as u64),
        "ratio",
    );
    let ops = n * (2 + SCANS_PER_CYCLE);
    let layers = (delta_us + repair_total + scan_us) as f64 + transport * ops as f64;
    out.metric(
        "serve-write.residual_ms",
        (untraced_us as f64 - layers) / 1000.0,
        "ms",
    );
    out.notes.push(format!(
        "serve-write: {n} cycles ({} scans each); untraced {:.1} ms over the socket, deltas {:.1} ms + repairs {:.1} ms + scans {:.1} ms + transport {:.1} ms",
        SCANS_PER_CYCLE,
        ms(untraced_us),
        ms(delta_us),
        ms(repair_total),
        ms(scan_us),
        transport * ops as f64 / 1000.0
    ));
    Ok(())
}

/// The traced run of `opts.workload`.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let seeds = Seeds::new(opts.seed, opts.corpus);
    fresh_dir(&opts.scratch)?;
    let kb = zodiac_kb::azure_kb();
    let tracer = Arc::new(Tracer::default());
    let mut out = Outcome::default();
    mine(seeds, &kb, &tracer, &mut out);
    serve_read(seeds, &kb, &tracer, opts, &mut out)?;
    serve_write(seeds, &kb, &tracer, opts, &mut out)?;

    // The layer table, and the same table from the JSONL trace through
    // `zodiac report`.
    let spans = tracer.spans();
    let paths = by_path(&spans);
    let rows = table_rows(&paths);
    out.notes.push("layer table (self time):".into());
    out.notes.push(format!(
        "  {:<40} {:>7} {:>12} {:>12} {:>6}",
        "path", "count", "self ms", "total ms", "self%"
    ));
    out.notes.extend(rows.iter().cloned());
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let file = opts.out.join(format!(
        "trace-{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    tracer
        .flush(&file)
        .map_err(|e| format!("{}: {e}", file.display()))?;
    let trace =
        zodiac::provenance::Trace::load(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    let report = zodiac::provenance::render_report(&trace, paths.len());
    let missing: Vec<&String> = rows
        .iter()
        .filter(|r| !report.contains(r.as_str()))
        .collect();
    if !missing.is_empty() {
        out.problems.push(format!(
            "zodiac report renders {} layer rows differently, first: {}",
            missing.len(),
            missing[0].trim()
        ));
    }
    out.notes.push(format!(
        "trace: {} spans in {} (render with `zodiac report --trace {}`)",
        spans.len(),
        file.display(),
        file.display()
    ));
    Ok(out)
}
