//! The `zodiac` command-line tool.
//!
//! ```text
//! zodiac mine   [--projects N] [--seed S] --out checks.txt
//! zodiac scan   --checks checks.txt FILE...
//! zodiac deploy FILE...
//! zodiac explain "<check>"
//! zodiac explain <fingerprint> --trace trace.jsonl
//! zodiac report --trace trace.jsonl
//! zodiac insights --checks checks.txt
//! ```
//!
//! `FILE` may be Terraform source (`.tf`) or a `terraform show -json` plan
//! (`.json`). `mine` runs the full pipeline against a synthetic corpus and
//! writes the validated checks one per line; `scan` applies a check file to
//! programs statically; `deploy` runs the cloud simulator and reports the
//! failure phase and blast radius.

use std::process::ExitCode;
use std::sync::Arc;
use zodiac::provenance;
use zodiac_model::Program;
use zodiac_obs::{JsonLinesSink, MemoryRecorder, MetricsSnapshot, Obs, Recorder};
use zodiac_spec::{parse_check, Check};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "mine" => cmd_mine(rest),
        "scan" => cmd_scan(rest),
        "repair" => cmd_repair(rest),
        "deploy" => cmd_deploy(rest),
        "explain" => cmd_explain(rest),
        "report" => cmd_report(rest),
        "insights" => cmd_insights(rest),
        "fuzz" => cmd_fuzz(rest),
        "client" => cmd_client(rest),
        "top" => cmd_top(rest),
        "deploy-cache" => cmd_deploy_cache(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!(
            "unknown command: {other} (commands: mine, scan, repair, deploy, explain, \
             report, insights, fuzz, client, top, deploy-cache; the serving daemon is the \
             separate `zodiacd` binary)\n{USAGE}"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "zodiac — mine and validate semantic checks for cloud IaC programs

USAGE:
    zodiac mine [--projects N] [--seed S] --out FILE   run the pipeline, write validated checks
                [--shards N|auto] [--stream]           (--shards fans mining over N worker
                [--validate-projects N]                threads — results are byte-identical for
                                                       any shard count; --stream generates the
                                                       corpus on the fly so 100k+ projects mine
                                                       without materialising, validating over
                                                       the first --validate-projects (default
                                                       ≤600) projects, kept as they stream past)
    zodiac scan --checks FILE [--no-confirm]           scan programs, deploy-confirm violations
                PROGRAM...                             (--no-confirm skips the deploy cross-check)
    zodiac repair --checks FILE [--max-edits N]        search for a minimal repair satisfying
                  [--explain] [--out DIR] PROGRAM...   every check, gated by the three-layer
                  [--candidate FILE]                   oracle stack (deploy-succeeds, checks-pass,
                                                       intent-preserved); --candidate verifies a
                                                       proposed fix instead of searching;
                                                       --explain prints per-layer verdicts
    zodiac deploy PROGRAM...                           simulate deployment and report outcome
    zodiac explain \"<check>\"                           render a check as a deployment insight
    zodiac explain <check-or-fp> --trace FILE          print one candidate's lifecycle ledger
                                                       from a recorded trace (fp = 16-hex
                                                       fingerprint)
    zodiac report --trace FILE [--top N]               funnel table + latency attribution from
                  [--perfetto OUT]                     a recorded trace; optionally re-export it
                                                       as Chrome/Perfetto trace-event JSON
    zodiac insights --checks FILE                      export a JSON-lines RAG knowledge base
    zodiac fuzz [--seed S] [--cases N]                 differential-fuzz the pipeline
                [--max-seconds T]                      (report on stdout; exit 1 on failures)
    zodiac deploy-cache stats FILE                     shape of a persistent deploy memo
    zodiac deploy-cache compact FILE                   drop duplicate memo records in place
    zodiac client --socket PATH OP [ARGS]              talk to a running `zodiacd` daemon:
        scan PROGRAM...                                  scan programs (output matches
                                                         `zodiac scan --no-confirm`)
        repair [--max-edits N] [--out DIR] PROGRAM...    repair programs against the live
                                                         check set (repaired source written
                                                         under --out)
        status | list-checks | shutdown                  serving counters / live checks / stop
        metrics                                          Prometheus exposition page on stdout
        explain <fp>                                     one check's stored provenance
        delta [--upsert ID=FILE]... [--remove ID]...     submit a corpus delta, re-mine
    zodiac top --socket PATH [--interval SECS]         live per-op dashboard for a running
               [--frames N]                            daemon: req/s, latency quantiles,
                                                       error rates, cache hit rate, heap,
                                                       and the slowest recent requests
                                                       (--frames bounds the refresh loop,
                                                       e.g. --frames 1 for one still frame)

    (start the daemon itself with `zodiacd --store DIR`; see `zodiacd --help`)

DEPLOYMENT OPTIONS (mine, scan, repair, deploy):
    --workers N          worker threads in the deployment engine (default 4)
    --no-deploy-cache    disable in-memory deploy-result memoization
    --deploy-cache FILE  persist deploy verdicts to FILE (created if missing)
                         and reuse them across runs and processes

OBSERVABILITY OPTIONS (mine, scan, repair, deploy, fuzz):
    --metrics            print the funnel/latency metrics summary on exit
    --trace-out FILE     stream structured spans + candidate lifecycle events
                         as JSON lines (schema v2), plus a final metrics
                         snapshot, to FILE (`zodiac report --trace FILE
                         --perfetto OUT` turns it into a Chrome/Perfetto
                         timeline that opens in ui.perfetto.dev)

PROGRAM is .tf (Terraform source) or .json (terraform show -json plan).";

/// Pulls `--flag value` out of an argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let idx = args.iter().position(|a| a == flag)?;
    if idx + 1 >= args.len() {
        return None;
    }
    let value = args.remove(idx + 1);
    args.remove(idx);
    Some(value)
}

/// Pulls a boolean `--switch` out of an argument list.
fn take_switch(args: &mut Vec<String>, switch: &str) -> bool {
    match args.iter().position(|a| a == switch) {
        Some(idx) => {
            args.remove(idx);
            true
        }
        None => false,
    }
}

/// Rejects any leftover `-`-prefixed argument: every subcommand consumes
/// the flags it knows with `take_flag`/`take_switch`, so anything
/// dash-shaped still present is a typo that must not fall through
/// silently.
fn reject_unknown_flags(cmd: &str, args: &[String]) -> Result<(), String> {
    match args.iter().find(|a| a.starts_with('-')) {
        Some(flag) => Err(format!("{cmd}: unknown flag: {flag}")),
        None => Ok(()),
    }
}

/// Rejects all leftover arguments, for subcommands that take no
/// positionals.
fn reject_leftovers(cmd: &str, args: &[String]) -> Result<(), String> {
    reject_unknown_flags(cmd, args)?;
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("{cmd}: unexpected arguments: {}", args.join(" ")))
    }
}

/// Parses the shared `--workers` / `--no-deploy-cache` / `--deploy-cache`
/// engine flags. A `--deploy-cache` path is opened (created if missing)
/// eagerly, so a corrupt or unwritable memo fails the command up front
/// instead of mid-pipeline.
fn take_deployer_flags(args: &mut Vec<String>) -> Result<zodiac_deployer::DeployerConfig, String> {
    let mut cfg = zodiac_deployer::DeployerConfig::default();
    if let Some(v) = take_flag(args, "--workers") {
        cfg.workers = v
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--workers expects a number >= 1")?;
    }
    if take_switch(args, "--no-deploy-cache") {
        cfg.cache = false;
    }
    if let Some(path) = take_flag(args, "--deploy-cache") {
        let path = std::path::PathBuf::from(path);
        let (_, load) = zodiac_deployer::DeployMemo::open(&path)?;
        if load.entries > 0 || load.dropped_partial {
            eprintln!(
                "deploy cache {}: {} verdict(s) replayed{}",
                path.display(),
                load.entries,
                if load.dropped_partial {
                    " (torn final record dropped)"
                } else {
                    ""
                }
            );
        }
        cfg.persistent_cache = Some(path);
    }
    Ok(cfg)
}

/// Prints the engine's telemetry summary after a run.
fn print_telemetry(tel: &MetricsSnapshot) {
    let requests = tel.counter("deploy.requests");
    let cache_hits = tel.counter("deploy.cache_hits");
    let hit_rate = if requests == 0 {
        0.0
    } else {
        cache_hits as f64 / requests as f64
    };
    eprintln!(
        "deploys: {} requests, {} backend deploys, {} cache hits ({:.0}% hit rate), \
         {} retries, peak queue depth {}",
        requests,
        tel.counter("deploy.backend_deploys"),
        cache_hits,
        hit_rate * 100.0,
        tel.counter("deploy.retries"),
        tel.gauge("deploy.queue_depth.max"),
    );
    let persistent_hits = tel.counter("deploy.persistent_hits");
    let persistent_stores = tel.counter("deploy.persistent_stores");
    if persistent_hits > 0 || persistent_stores > 0 {
        eprintln!(
            "deploy cache: {persistent_hits} verdict(s) reused from disk, \
             {persistent_stores} newly recorded"
        );
    }
}

fn cmd_deploy_cache(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    reject_unknown_flags("deploy-cache", &args)?;
    let (op, path) = match args.len() {
        2 => (args.remove(0), args.remove(0)),
        _ => {
            return Err("deploy-cache requires an operation and a file: \
                 deploy-cache stats|compact FILE"
                .into())
        }
    };
    let path = std::path::PathBuf::from(path);
    let (mut memo, load) = zodiac_deployer::DeployMemo::open(&path)?;
    match op.as_str() {
        "stats" => {
            let stats = memo.stats();
            println!("path: {}", path.display());
            println!("entries: {}", stats.entries);
            println!("records: {}", stats.records);
            println!("bytes: {}", stats.bytes);
            println!("torn_tail_dropped: {}", load.dropped_partial);
            Ok(())
        }
        "compact" => {
            let before = memo.stats();
            memo.compact()?;
            memo.sync()?;
            let after = memo.stats();
            println!(
                "compacted {}: {} record(s) ({} bytes) -> {} record(s) ({} bytes)",
                path.display(),
                before.records,
                before.bytes,
                after.records,
                after.bytes
            );
            Ok(())
        }
        other => Err(format!(
            "deploy-cache: unknown operation {other:?} (expected stats or compact)"
        )),
    }
}

/// The CLI's observability wiring, parsed from `--metrics`/`--trace-out`.
struct ObsFlags {
    metrics: bool,
    trace: Option<Arc<JsonLinesSink>>,
    registry: Arc<MemoryRecorder>,
    obs: Obs,
}

/// Parses the shared `--metrics` / `--trace-out FILE` observability flags.
/// With no flag the returned handle is null, so instrumented code paths
/// stay free.
fn take_obs_flags(args: &mut Vec<String>) -> Result<ObsFlags, String> {
    let metrics = take_switch(args, "--metrics");
    let trace_path = take_flag(args, "--trace-out");
    let registry = Arc::new(MemoryRecorder::new());
    let mut sinks: Vec<Arc<dyn Recorder>> = vec![registry.clone()];
    let trace = match trace_path {
        Some(path) => {
            let sink = Arc::new(
                JsonLinesSink::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?,
            );
            sinks.push(sink.clone());
            Some(sink)
        }
        None => None,
    };
    let obs = if metrics || trace.is_some() {
        Obs::fanout(sinks)
    } else {
        Obs::null()
    };
    Ok(ObsFlags {
        metrics,
        trace,
        registry,
        obs,
    })
}

impl ObsFlags {
    /// Emits the end-of-run artifacts: the final snapshot line of the trace
    /// file and the `--metrics` summary table.
    fn finish(&self) -> Result<(), String> {
        if let Some(sink) = &self.trace {
            sink.write_snapshot(&self.registry.snapshot());
            sink.flush()
                .map_err(|e| format!("cannot flush trace file: {e}"))?;
        }
        if self.metrics {
            eprint!("{}", self.registry.snapshot().render());
        }
        Ok(())
    }
}

fn load_program(path: &str) -> Result<Program, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".json") {
        zodiac_hcl::from_plan_json(&source).map_err(|e| format!("{path}: {e}"))
    } else {
        zodiac_hcl::compile(&source).map_err(|e| format!("{path}: {e}"))
    }
}

fn load_checks(path: &str) -> Result<Vec<Check>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut checks = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let check = parse_check(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        checks.push(check);
    }
    Ok(checks)
}

fn cmd_mine(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let projects: usize = take_flag(&mut args, "--projects")
        .map(|v| {
            v.parse()
                .map_err(|_| "--projects expects a number".to_string())
        })
        .transpose()?
        .unwrap_or(300);
    let seed: u64 = take_flag(&mut args, "--seed")
        .map(|v| parse_seed(&v))
        .transpose()?
        .unwrap_or(0xC0FFEE);
    let out = take_flag(&mut args, "--out").ok_or("mine requires --out FILE")?;
    let shards: usize = take_flag(&mut args, "--shards")
        .map(|v| match v.as_str() {
            "auto" => Ok(zodiac_mining::available_shards()),
            _ => v
                .parse()
                .map_err(|_| "--shards expects a number or 'auto'".to_string()),
        })
        .transpose()?
        .unwrap_or(1);
    let stream = take_switch(&mut args, "--stream");
    let validate_projects: Option<usize> = take_flag(&mut args, "--validate-projects")
        .map(|v| {
            v.parse()
                .map_err(|_| "--validate-projects expects a number".to_string())
        })
        .transpose()?;
    let deployer = take_deployer_flags(&mut args)?;
    let obs_flags = take_obs_flags(&mut args)?;
    reject_leftovers("mine", &args)?;

    let mut cfg = zodiac::PipelineConfig::evaluation();
    cfg.corpus.projects = projects;
    cfg.corpus.seed = seed;
    cfg.deployer = deployer;
    cfg.mining_shards = shards;
    cfg.stream_corpus = stream;
    cfg.validation_projects = validate_projects;
    let mode = if stream { "streaming" } else { "batch" };
    eprintln!(
        "mining + validating over {projects} synthetic projects ({mode}, {shards} shard(s))..."
    );
    let cli_span = obs_flags.obs.start_span("cli/mine");
    let result = zodiac::run_pipeline_obs(&cfg, &obs_flags.obs);
    cli_span.finish();
    eprintln!(
        "hypothesized {} → candidates {} → validated {} ({} demoted by counterexamples)",
        result.mining.hypothesized,
        result.mining.checks.len(),
        result.validation.validated.len(),
        result.demoted.len(),
    );
    if let Some(tel) = &result.deploy_metrics {
        print_telemetry(tel);
    }
    let mut lines = String::new();
    for v in &result.final_checks {
        lines.push_str(&v.mined.check.to_string());
        lines.push('\n');
    }
    std::fs::write(&out, lines).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("{} checks written to {out}", result.final_checks.len());
    obs_flags.finish()
}

fn cmd_scan(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let checks_path = take_flag(&mut args, "--checks").ok_or("scan requires --checks FILE")?;
    let no_confirm = take_switch(&mut args, "--no-confirm");
    let deployer = take_deployer_flags(&mut args)?;
    let obs_flags = take_obs_flags(&mut args)?;
    reject_unknown_flags("scan", &args)?;
    if args.is_empty() {
        return Err("scan requires at least one program file".into());
    }
    let cli_span = obs_flags.obs.start_span("cli/scan");
    let checks = load_checks(&checks_path)?;
    let kb = zodiac_kb::azure_kb();
    // Identical programs share one verdict through the same memo the
    // daemon serves from.
    let cache = zodiac::ScanCache::new();
    let key = zodiac::check_set_key(&checks);
    let mut total_violations = 0usize;
    let mut flagged: Vec<(String, Program)> = Vec::new();
    for path in &args {
        let program = load_program(path)?;
        let (violations, _) = cache.scan(&program, &checks, key, &kb);
        if violations.is_empty() {
            println!("{path}: OK ({} resources)", program.len());
        } else {
            println!("{path}: {} violation(s)", violations.len());
            for v in violations.iter() {
                println!("  ✗ {}", v.check);
                for r in &v.resources {
                    println!("      involves {r}");
                }
            }
            total_violations += violations.len();
            flagged.push((path.clone(), program));
        }
    }
    // Cross-check flagged programs against the simulator (the paper's
    // precision claim: scanner hits should fail real deployment).
    if !no_confirm && !flagged.is_empty() {
        use zodiac_deployer::DeployOracle;
        let engine = zodiac_deployer::DeployEngine::with_obs(
            zodiac_cloud::CloudSim::new_azure(),
            deployer,
            obs_flags.obs.clone(),
        );
        let programs: Vec<Program> = flagged.iter().map(|(_, p)| p.clone()).collect();
        for ((path, _), report) in flagged.iter().zip(engine.deploy_batch(&programs)) {
            if report.outcome.is_success() {
                println!("{path}: violation NOT confirmed by simulated deployment");
            } else {
                println!("{path}: confirmed — deployment fails");
            }
        }
        print_telemetry(&engine.metrics());
    }
    cli_span.finish();
    obs_flags.finish()?;
    if total_violations > 0 {
        Err(format!("{total_violations} violation(s) found"))
    } else {
        Ok(())
    }
}

/// Renders one repair attempt's layer-by-layer verdicts.
fn render_attempt(index: usize, attempt: &zodiac_repair::RepairAttempt) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  candidate {}: {} edit(s)",
        index + 1,
        attempt.edits.len()
    );
    for edit in &attempt.edits {
        let _ = writeln!(out, "    {edit}");
    }
    for v in &attempt.layers {
        let _ = write!(out, "    L{} {}: ", v.layer.index(), v.layer.label());
        if v.passed {
            let _ = writeln!(out, "pass");
        } else {
            let _ = writeln!(out, "FAIL ({})", v.reason);
        }
    }
    out
}

fn cmd_repair(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let checks_path = take_flag(&mut args, "--checks").ok_or("repair requires --checks FILE")?;
    let max_edits: Option<usize> = take_flag(&mut args, "--max-edits")
        .map(|v| {
            v.parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or("--max-edits expects a number >= 1".to_string())
        })
        .transpose()?;
    let explain = take_switch(&mut args, "--explain");
    let candidate_path = take_flag(&mut args, "--candidate");
    let out_dir = take_flag(&mut args, "--out");
    let deployer = take_deployer_flags(&mut args)?;
    let obs_flags = take_obs_flags(&mut args)?;
    reject_unknown_flags("repair", &args)?;
    if args.is_empty() {
        return Err("repair requires at least one program file".into());
    }
    if candidate_path.is_some() && args.len() != 1 {
        return Err("--candidate verifies one proposed fix against exactly one program".into());
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    }

    let cli_span = obs_flags.obs.start_span("cli/repair");
    let checks = load_checks(&checks_path)?;
    let kb = zodiac_kb::azure_kb();
    let engine = zodiac_deployer::DeployEngine::with_obs(
        zodiac_cloud::CloudSim::new_azure(),
        deployer,
        obs_flags.obs.clone(),
    );
    let mut cfg = zodiac_repair::RepairConfig::default();
    if let Some(n) = max_edits {
        cfg.max_edits = n;
    }

    let mut unresolved = 0usize;
    for path in &args {
        let program = load_program(path)?;
        match &candidate_path {
            // Verification mode: gate a proposed fix through the oracle
            // stack without searching.
            Some(cpath) => {
                let candidate = load_program(cpath)?;
                let fp = zodiac_repair::repair_fingerprint(&program, &checks);
                let graph = zodiac_graph::ResourceGraph::build(program.clone());
                let ctx = zodiac_spec::EvalContext {
                    graph: &graph,
                    kb: Some(&kb),
                };
                let violated: Vec<Check> = checks
                    .iter()
                    .filter(|c| !zodiac_spec::violations(c, ctx).is_empty())
                    .cloned()
                    .collect();
                let edits = zodiac_repair::diff_edits(&program, &candidate);
                let attempt = zodiac_repair::verify_candidate(
                    &program,
                    &candidate,
                    edits,
                    &checks,
                    &violated,
                    &kb,
                    &engine,
                    &obs_flags.obs,
                    fp,
                );
                println!("{path}: candidate {cpath} [repair {fp:016x}]");
                print!("{}", render_attempt(0, &attempt));
                match attempt.rejected_at() {
                    None => println!("  accepted"),
                    Some(v) => {
                        println!("  rejected at L{} ({})", v.layer.index(), v.reason);
                        unresolved += 1;
                    }
                }
            }
            // Search mode: minimal soft-constraint repair.
            None => {
                let report = zodiac_repair::repair_program(
                    &program,
                    &checks,
                    &kb,
                    &engine,
                    &cfg,
                    &obs_flags.obs,
                );
                let fp = report.fingerprint;
                match &report.outcome {
                    zodiac_repair::RepairOutcome::Clean => {
                        println!("{path}: OK (no violated checks)");
                    }
                    zodiac_repair::RepairOutcome::Accepted { program, edits } => {
                        println!(
                            "{path}: repaired — {} violation(s) of {} check(s) fixed with {} \
                             edit(s) [repair {fp:016x}]",
                            report.violations,
                            report.violated.len(),
                            edits.len()
                        );
                        for edit in edits {
                            println!("  {edit}");
                        }
                        if let Some(dir) = &out_dir {
                            let name = std::path::Path::new(path)
                                .file_name()
                                .map(|n| n.to_string_lossy().into_owned())
                                .unwrap_or_else(|| "repaired.tf".into());
                            let out = std::path::Path::new(dir).join(name);
                            std::fs::write(&out, zodiac_hcl::to_hcl(program))
                                .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
                            println!("  written to {}", out.display());
                        }
                    }
                    zodiac_repair::RepairOutcome::Exhausted => {
                        println!(
                            "{path}: no acceptable repair — {} candidate(s) all rejected \
                             [repair {fp:016x}]",
                            report.attempts.len()
                        );
                        unresolved += 1;
                    }
                    zodiac_repair::RepairOutcome::Unrepairable { reason } => {
                        println!("{path}: unrepairable — {reason} [repair {fp:016x}]");
                        unresolved += 1;
                    }
                }
                if explain {
                    for (i, attempt) in report.attempts.iter().enumerate() {
                        print!("{}", render_attempt(i, attempt));
                    }
                }
            }
        }
    }
    print_telemetry(&engine.metrics());
    cli_span.finish();
    obs_flags.finish()?;
    if unresolved > 0 {
        Err(format!("{unresolved} program(s) not repaired"))
    } else {
        Ok(())
    }
}

fn cmd_deploy(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let deployer = take_deployer_flags(&mut args)?;
    let obs_flags = take_obs_flags(&mut args)?;
    reject_unknown_flags("deploy", &args)?;
    if args.is_empty() {
        return Err("deploy requires at least one program file".into());
    }
    let cli_span = obs_flags.obs.start_span("cli/deploy");
    use zodiac_deployer::DeployOracle;
    let engine = zodiac_deployer::DeployEngine::with_obs(
        zodiac_cloud::CloudSim::new_azure(),
        deployer,
        obs_flags.obs.clone(),
    );
    let mut failed = false;
    let programs: Vec<(String, Program)> = args
        .iter()
        .map(|path| load_program(path).map(|p| (path.clone(), p)))
        .collect::<Result<_, _>>()?;
    let batch: Vec<Program> = programs.iter().map(|(_, p)| p.clone()).collect();
    for ((path, _), report) in programs.iter().zip(engine.deploy_batch(&batch)) {
        match &report.outcome {
            zodiac_cloud::DeployOutcome::Success => {
                println!("{path}: deployed {} resources", report.deployed.len());
            }
            zodiac_cloud::DeployOutcome::Failure {
                phase,
                rule_id,
                resource,
                message,
            } => {
                failed = true;
                println!("{path}: FAILED at {phase} on {resource}");
                println!("  rule: {rule_id}");
                println!("  {message}");
                println!(
                    "  deployed {} / halted {} / rollback spans {} resource type(s)",
                    report.deployed.len(),
                    report.halted.len(),
                    report.rollback_radius()
                );
            }
        }
    }
    print_telemetry(&engine.metrics());
    cli_span.finish();
    obs_flags.finish()?;
    if failed {
        Err("deployment failed".into())
    } else {
        Ok(())
    }
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let trace_path = take_flag(&mut args, "--trace");
    reject_unknown_flags("explain", &args)?;
    let [src] = args.as_slice() else {
        return Err(
            "explain requires exactly one quoted check (or a 16-hex fingerprint with --trace)"
                .into(),
        );
    };
    match trace_path {
        // Provenance mode: replay one candidate's lifecycle from a trace.
        Some(path) => {
            let fp = provenance::resolve_fingerprint(src)?;
            let trace =
                provenance::Trace::load(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let events = trace.ledger_for(fp);
            print!("{}", provenance::render_ledger(fp, &events));
            Ok(())
        }
        // Insight mode: render the check as a deployment insight.
        None => {
            let check = parse_check(src).map_err(|e| e.to_string())?;
            println!("{}", zodiac::insights::explain(&check));
            Ok(())
        }
    }
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let trace_path = take_flag(&mut args, "--trace").ok_or("report requires --trace FILE")?;
    let top: usize = take_flag(&mut args, "--top")
        .map(|v| {
            v.parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or("--top expects a number >= 1".to_string())
        })
        .transpose()?
        .unwrap_or(10);
    let perfetto_out = take_flag(&mut args, "--perfetto");
    reject_leftovers("report", &args)?;
    let trace = provenance::Trace::load(&trace_path)
        .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    print!("{}", provenance::render_report(&trace, top));
    if let Some(out) = perfetto_out {
        std::fs::write(&out, trace.to_perfetto_json())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("perfetto trace written to {out}");
    }
    Ok(())
}

fn cmd_insights(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let checks_path = take_flag(&mut args, "--checks").ok_or("insights requires --checks FILE")?;
    reject_leftovers("insights", &args)?;
    let checks = load_checks(&checks_path)?;
    println!("{}", zodiac::insights::export_jsonl(&checks));
    Ok(())
}

/// Parses a `u64` seed in decimal or `0x`-prefixed hex, matching the
/// `{:#x}` replay seeds the fuzz report prints.
fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("--seed expects a decimal or 0x-hex number, got {v}"))
}

fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let mut cfg = zodiac_testkit::FuzzConfig::default();
    if let Some(v) = take_flag(&mut args, "--seed") {
        cfg.seed = parse_seed(&v)?;
    }
    if let Some(v) = take_flag(&mut args, "--cases") {
        cfg.cases = v
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or("--cases expects a number >= 1")?;
    }
    if let Some(v) = take_flag(&mut args, "--max-seconds") {
        cfg.max_seconds = Some(
            v.parse()
                .map_err(|_| "--max-seconds expects a number".to_string())?,
        );
    }
    let obs_flags = take_obs_flags(&mut args)?;
    reject_leftovers("fuzz", &args)?;
    eprintln!(
        "fuzzing the pipeline: {} cases from seed {:#x}...",
        cfg.cases, cfg.seed
    );
    let report = zodiac_testkit::run_fuzz_obs(&cfg, &obs_flags.obs);
    print!("{}", report.render());
    obs_flags.finish()?;
    if report.passed() {
        Ok(())
    } else {
        Err(format!("{} property failure(s)", report.failures.len()))
    }
}

/// A connection to a running `zodiacd`, speaking one LDJSON request /
/// response pair at a time. The client builds requests as raw JSON values
/// rather than importing the daemon crate — the wire protocol is the
/// contract.
struct DaemonClient {
    reader: std::io::BufReader<std::os::unix::net::UnixStream>,
    writer: std::os::unix::net::UnixStream,
}

impl DaemonClient {
    fn connect(socket: &str) -> Result<DaemonClient, String> {
        let stream = std::os::unix::net::UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {socket}: {e} (is zodiacd running?)"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone socket: {e}"))?;
        Ok(DaemonClient {
            reader: std::io::BufReader::new(stream),
            writer,
        })
    }

    fn call(&mut self, request: serde_json::Value) -> Result<serde_json::Value, String> {
        use std::io::{BufRead, Write};
        let line = request.to_string();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("cannot send request: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("cannot read response: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        let v: serde_json::Value = serde_json::from_str(response.trim_end())
            .map_err(|e| format!("malformed response: {e}"))?;
        if v.get("ok").and_then(serde_json::Value::as_bool) != Some(true) {
            let msg = v
                .get("error")
                .and_then(serde_json::Value::as_str)
                .unwrap_or("unknown daemon error");
            return Err(format!("daemon: {msg}"));
        }
        Ok(v)
    }
}

/// Builds a one-op request object.
fn client_request(op: &str) -> serde_json::Map<String, serde_json::Value> {
    let mut m = serde_json::Map::new();
    m.insert("op".into(), serde_json::Value::String(op.into()));
    m
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    use serde_json::Value;
    let mut args = args.to_vec();
    let socket = take_flag(&mut args, "--socket").ok_or("client requires --socket PATH")?;
    let Some((op, rest)) = args.split_first() else {
        return Err(
            "client requires an operation: scan, repair, status, list-checks, explain, delta, \
             shutdown"
                .into(),
        );
    };
    let mut rest = rest.to_vec();
    let mut client = DaemonClient::connect(&socket)?;
    match op.as_str() {
        // Scan prints byte-identically to `zodiac scan --no-confirm`, so
        // daemon and batch verdicts diff cleanly.
        "scan" => {
            reject_unknown_flags("client scan", &rest)?;
            if rest.is_empty() {
                return Err("client scan requires at least one program file".into());
            }
            let mut total_violations = 0u64;
            for path in &rest {
                let source = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let mut req = client_request("scan");
                req.insert("source".into(), Value::String(source));
                req.insert(
                    "format".into(),
                    Value::String(
                        if path.ends_with(".json") {
                            "plan"
                        } else {
                            "tf"
                        }
                        .into(),
                    ),
                );
                req.insert("id".into(), Value::String(path.clone()));
                let resp = client.call(Value::Object(req))?;
                let violations = resp
                    .get("violations")
                    .and_then(Value::as_array)
                    .ok_or("scan response missing violations")?;
                if violations.is_empty() {
                    let resources = resp.get("resources").and_then(Value::as_u64).unwrap_or(0);
                    println!("{path}: OK ({resources} resources)");
                } else {
                    println!("{path}: {} violation(s)", violations.len());
                    for v in violations {
                        let check = v.get("check").and_then(Value::as_str).unwrap_or("?");
                        println!("  ✗ {check}");
                        for r in v
                            .get("resources")
                            .and_then(Value::as_array)
                            .into_iter()
                            .flatten()
                        {
                            println!("      involves {}", r.as_str().unwrap_or("?"));
                        }
                    }
                    total_violations += violations.len() as u64;
                }
            }
            if total_violations > 0 {
                return Err(format!("{total_violations} violation(s) found"));
            }
            Ok(())
        }
        // Repair prints like `zodiac repair` search mode, with the repaired
        // source optionally written under --out.
        "repair" => {
            let max_edits: Option<u64> = take_flag(&mut rest, "--max-edits")
                .map(|v| {
                    v.parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or("--max-edits expects a number >= 1".to_string())
                })
                .transpose()?;
            let out_dir = take_flag(&mut rest, "--out");
            reject_unknown_flags("client repair", &rest)?;
            if rest.is_empty() {
                return Err("client repair requires at least one program file".into());
            }
            if let Some(dir) = &out_dir {
                std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
            }
            let mut unresolved = 0usize;
            for path in &rest {
                let source = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let mut req = client_request("repair");
                req.insert("source".into(), Value::String(source));
                req.insert(
                    "format".into(),
                    Value::String(
                        if path.ends_with(".json") {
                            "plan"
                        } else {
                            "tf"
                        }
                        .into(),
                    ),
                );
                req.insert("id".into(), Value::String(path.clone()));
                if let Some(n) = max_edits {
                    req.insert(
                        "max_edits".into(),
                        Value::Number(serde_json::Number::from_u64(n)),
                    );
                }
                let resp = client.call(Value::Object(req))?;
                let fp = resp
                    .get("fingerprint")
                    .and_then(Value::as_str)
                    .unwrap_or("?");
                let outcome = resp.get("outcome").and_then(Value::as_str).unwrap_or("?");
                match outcome {
                    "clean" => println!("{path}: OK (no violated checks)"),
                    "accepted" => {
                        let edits = resp
                            .get("edits")
                            .and_then(Value::as_array)
                            .map(Vec::as_slice)
                            .unwrap_or_default();
                        println!(
                            "{path}: repaired with {} edit(s) [repair {fp}]",
                            edits.len()
                        );
                        for e in edits {
                            println!("  {}", e.as_str().unwrap_or("?"));
                        }
                        if let (Some(dir), Some(repaired)) = (
                            &out_dir,
                            resp.get("repaired_source").and_then(Value::as_str),
                        ) {
                            let name = std::path::Path::new(path)
                                .file_name()
                                .map(|n| n.to_string_lossy().into_owned())
                                .unwrap_or_else(|| "repaired.tf".into());
                            let out = std::path::Path::new(dir).join(name);
                            std::fs::write(&out, repaired)
                                .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
                            println!("  written to {}", out.display());
                        }
                    }
                    "exhausted" => {
                        println!("{path}: no acceptable repair [repair {fp}]");
                        unresolved += 1;
                    }
                    "unrepairable" => {
                        let reason = resp.get("reason").and_then(Value::as_str).unwrap_or("?");
                        println!("{path}: unrepairable — {reason} [repair {fp}]");
                        unresolved += 1;
                    }
                    other => {
                        println!("{path}: unexpected outcome {other:?}");
                        unresolved += 1;
                    }
                }
            }
            if unresolved > 0 {
                return Err(format!("{unresolved} program(s) not repaired"));
            }
            Ok(())
        }
        "status" => {
            reject_leftovers("client status", &rest)?;
            let resp = client.call(Value::Object(client_request("status")))?;
            for key in [
                "checks",
                "check_set_version",
                "check_set_key",
                "scans",
                "repairs",
                "cache_hits",
                "cache_entries",
                "corpus_projects",
                "deltas",
                "store_records",
            ] {
                if let Some(v) = resp.get(key) {
                    println!("{key}: {v}");
                }
            }
            if let Some(ready) = resp.get("ready").and_then(Value::as_bool) {
                println!("ready: {ready}");
            }
            if let Some(gauges) = resp.get("metrics").and_then(|m| m.get("gauges")) {
                if let Some(live) = gauges.get("heap.live_bytes").and_then(Value::as_u64) {
                    let peak = gauges
                        .get("heap.peak_bytes")
                        .and_then(Value::as_u64)
                        .unwrap_or(live);
                    println!("heap: {} live, {} peak", fmt_bytes(live), fmt_bytes(peak));
                }
            }
            let table = render_op_table(resp.get("rolling").unwrap_or(&Value::Null));
            if !table.is_empty() {
                println!();
                for line in table {
                    println!("{line}");
                }
            }
            Ok(())
        }
        "metrics" => {
            reject_leftovers("client metrics", &rest)?;
            let resp = client.call(Value::Object(client_request("metrics")))?;
            let page = resp
                .get("prometheus")
                .and_then(Value::as_str)
                .ok_or("metrics response missing the prometheus page")?;
            print!("{page}");
            Ok(())
        }
        "list-checks" => {
            reject_leftovers("client list-checks", &rest)?;
            let resp = client.call(Value::Object(client_request("list_checks")))?;
            for c in resp
                .get("checks")
                .and_then(Value::as_array)
                .into_iter()
                .flatten()
            {
                println!(
                    "{} [{}] {}",
                    c.get("fp").and_then(Value::as_str).unwrap_or("?"),
                    c.get("origin").and_then(Value::as_str).unwrap_or("?"),
                    c.get("check").and_then(Value::as_str).unwrap_or("?"),
                );
            }
            Ok(())
        }
        "explain" => {
            reject_unknown_flags("client explain", &rest)?;
            let [fp] = rest.as_slice() else {
                return Err("client explain requires exactly one 16-hex fingerprint".into());
            };
            let mut req = client_request("explain");
            req.insert("fp".into(), Value::String(fp.clone()));
            let resp = client.call(Value::Object(req))?;
            for key in [
                "fp",
                "check",
                "origin",
                "family",
                "support",
                "confidence_ppm",
                "seq",
            ] {
                if let Some(v) = resp.get(key) {
                    match v.as_str() {
                        Some(s) => println!("{key}: {s}"),
                        None => println!("{key}: {v}"),
                    }
                }
            }
            if let Some(insight) = resp.get("insight").and_then(Value::as_str) {
                println!("{insight}");
            }
            Ok(())
        }
        "delta" => {
            let mut upserts = Vec::new();
            while let Some(spec) = take_flag(&mut rest, "--upsert") {
                let (id, file) = spec
                    .split_once('=')
                    .ok_or(format!("--upsert expects ID=FILE, got {spec}"))?;
                let source = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read {file}: {e}"))?;
                let mut entry = serde_json::Map::new();
                entry.insert("project".into(), Value::String(id.to_string()));
                entry.insert("source".into(), Value::String(source));
                upserts.push(Value::Object(entry));
            }
            let mut removals = Vec::new();
            while let Some(id) = take_flag(&mut rest, "--remove") {
                removals.push(Value::String(id));
            }
            reject_leftovers("client delta", &rest)?;
            if upserts.is_empty() && removals.is_empty() {
                return Err("client delta requires --upsert ID=FILE or --remove ID".into());
            }
            let mut req = client_request("submit_corpus_delta");
            req.insert("upsert".into(), Value::Array(upserts));
            req.insert("remove".into(), Value::Array(removals));
            let resp = client.call(Value::Object(req))?;
            for key in [
                "upserted",
                "removed",
                "corpus_projects",
                "types_rescored",
                "checks_added",
                "checks_updated",
                "checks_retired",
                "checks_rejected",
                "check_set_version",
            ] {
                if let Some(v) = resp.get(key) {
                    println!("{key}: {v}");
                }
            }
            Ok(())
        }
        "shutdown" => {
            reject_leftovers("client shutdown", &rest)?;
            client.call(Value::Object(client_request("shutdown")))?;
            println!("daemon shutting down");
            Ok(())
        }
        other => Err(format!(
            "client: unknown operation {other:?} (expected scan, repair, status, \
             metrics, list-checks, explain, delta, shutdown)"
        )),
    }
}

/// Formats a microsecond latency for dashboard tables.
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{}.{}s", us / 1_000_000, us % 1_000_000 / 100_000)
    } else if us >= 1_000 {
        format!("{}.{}ms", us / 1_000, us % 1_000 / 100)
    } else {
        format!("{us}us")
    }
}

/// Formats a byte count for dashboard headers.
fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{}.{} MiB", bytes >> 20, ((bytes % (1 << 20)) * 10) >> 20)
    } else if bytes >= 1 << 10 {
        format!("{} KiB", bytes >> 10)
    } else {
        format!("{bytes} B")
    }
}

/// Renders milli-units (requests/s × 1000, errors per mille) as decimals.
fn fmt_milli(v: u64) -> String {
    format!("{}.{}", v / 1000, v % 1000 / 100)
}

fn fmt_permille(v: u64) -> String {
    format!("{}.{}", v / 10, v % 10)
}

/// Renders the per-op rolling-window table embedded in `status`/`metrics`
/// responses (`{"ops":{NAME:{"last_1m":{...},"last_1h":{...}}}}`). Empty
/// when the daemon has served nothing yet.
fn render_op_table(rolling: &serde_json::Value) -> Vec<String> {
    use zodiac_obs::WindowSummary;
    let mut lines = Vec::new();
    let Some(ops) = rolling.get("ops").and_then(serde_json::Value::as_object) else {
        return lines;
    };
    if ops.is_empty() {
        return lines;
    }
    lines.push(format!(
        "{:<20} {:>9} {:>6} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "op", "1m req/s", "err%", "p50", "p95", "p99", "max", "1h req/s"
    ));
    for (name, windows) in ops {
        let null = serde_json::Value::Null;
        let m = WindowSummary::from_json(windows.get("last_1m").unwrap_or(&null));
        let h = WindowSummary::from_json(windows.get("last_1h").unwrap_or(&null));
        lines.push(format!(
            "{:<20} {:>9} {:>6} {:>8} {:>8} {:>8} {:>8} {:>9}",
            name,
            fmt_milli(m.rate_milli()),
            fmt_permille(m.error_permille()),
            fmt_us(m.p50_us),
            fmt_us(m.p95_us),
            fmt_us(m.p99_us),
            fmt_us(m.max_us),
            fmt_milli(h.rate_milli()),
        ));
    }
    lines
}

/// `zodiac top`: a refreshing terminal dashboard over a running daemon's
/// `metrics` op — per-op rolling windows, cumulative cache hit rate, live
/// heap, and the slowest recent request per op with its check fingerprints
/// (replayable via `zodiac client explain`).
fn cmd_top(args: &[String]) -> Result<(), String> {
    use serde_json::Value;
    let mut args = args.to_vec();
    let socket = take_flag(&mut args, "--socket").ok_or("top requires --socket PATH")?;
    let interval: u64 = take_flag(&mut args, "--interval")
        .map(|v| {
            v.parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or("--interval expects a number of seconds >= 1".to_string())
        })
        .transpose()?
        .unwrap_or(2);
    let frames: Option<u64> = take_flag(&mut args, "--frames")
        .map(|v| {
            v.parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or("--frames expects a number >= 1".to_string())
        })
        .transpose()?;
    reject_leftovers("top", &args)?;

    // A single still frame (--frames 1) never clears — it composes with
    // shell pipelines and the smoke tests; the refreshing dashboard
    // repaints from the top-left each tick.
    let clearing = frames != Some(1);
    let mut served = 0u64;
    loop {
        // Reconnect per frame: the dashboard survives a daemon restart by
        // picking up the new process on the next tick.
        let mut client = DaemonClient::connect(&socket)?;
        let resp = client.call(Value::Object(client_request("metrics")))?;
        let mut out = String::new();
        render_top_frame(&socket, &resp, &mut out);
        if clearing {
            print!("\x1b[2J\x1b[H");
        }
        println!("{out}");
        served += 1;
        if let Some(n) = frames {
            if served >= n {
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_secs(interval));
    }
    Ok(())
}

/// Builds one `zodiac top` frame from a `metrics` op response.
fn render_top_frame(socket: &str, resp: &serde_json::Value, out: &mut String) {
    use serde_json::Value;
    use std::fmt::Write;
    let ready = resp.get("ready").and_then(Value::as_bool).unwrap_or(false);
    let snapshot = resp.get("snapshot");
    let gauge = |name: &str| {
        snapshot
            .and_then(|s| s.get("gauges"))
            .and_then(|g| g.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let counter = |name: &str| {
        snapshot
            .and_then(|s| s.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let _ = writeln!(
        out,
        "zodiacd @ {socket} — {}, {} check(s) live",
        if ready { "ready" } else { "starting" },
        gauge("daemon.checks_live"),
    );
    let scans = counter("daemon.scans");
    let hits = counter("daemon.cache_hits");
    let _ = writeln!(
        out,
        "heap {} live / {} peak — scan cache {} entr(ies), {}% hit over {} scan(s)",
        fmt_bytes(gauge("heap.live_bytes")),
        fmt_bytes(gauge("heap.peak_bytes")),
        gauge("daemon.cache_entries"),
        (hits * 100).checked_div(scans).unwrap_or(0),
        scans,
    );
    let table = render_op_table(resp.get("rolling").unwrap_or(&Value::Null));
    if table.is_empty() {
        let _ = writeln!(out, "\n(no requests served yet)");
    } else {
        out.push('\n');
        for line in table {
            let _ = writeln!(out, "{line}");
        }
    }
    // The slowest retained request per op, replayable by fingerprint.
    let mut slow_lines = Vec::new();
    if let Some(ops) = resp.get("exemplars").and_then(Value::as_object) {
        for (op, list) in ops {
            let Some(e) = list.as_array().and_then(|l| l.first()) else {
                continue;
            };
            let latency = e.get("latency_us").and_then(Value::as_u64).unwrap_or(0);
            let span = e.get("span_id").and_then(Value::as_u64).unwrap_or(0);
            let fps: Vec<String> = e
                .get("fingerprints")
                .and_then(Value::as_array)
                .into_iter()
                .flatten()
                .filter_map(Value::as_u64)
                .map(|fp| format!("{fp:016x}"))
                .collect();
            slow_lines.push(format!(
                "  {:<20} {:>8}  span {span}{}",
                op,
                fmt_us(latency),
                if fps.is_empty() {
                    String::new()
                } else {
                    format!("  checks {}", fps.join(","))
                }
            ));
        }
    }
    if !slow_lines.is_empty() {
        let _ = writeln!(
            out,
            "\nslowest requests (replay checks with `zodiac client explain <fp>`):"
        );
        for line in slow_lines {
            let _ = writeln!(out, "{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_in_hex_and_decimal() {
        assert_eq!(parse_seed("0xC0FFEE"), parse_seed("12648430"));
        assert_eq!(parse_seed("0xC0FFEE"), Ok(0xC0FFEE));
        assert!(parse_seed("coffee").is_err());
    }
}
