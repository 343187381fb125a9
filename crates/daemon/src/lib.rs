//! # zodiacd — the check-serving daemon
//!
//! The batch pipeline (`zodiac mine` → `zodiac scan`) treats check mining
//! as a one-shot job. This crate turns the validated check set into a
//! long-running service:
//!
//! * a **persistent check store** ([`store`]) — an append-only, fsynced
//!   log of canonical-form check snapshots keyed by
//!   [`zodiac_spec::Check::fingerprint`], replayed on start and compacted
//!   when mostly dead;
//! * an **incremental re-mining engine** — corpus deltas (project
//!   added/removed/changed) feed a [`zodiac_mining::IncrementalStats`], and
//!   only templates anchored on resource types whose supporting projects
//!   changed are re-scored ([`zodiac_mining::mine_types_with_stats`]);
//! * a **concurrent scan API** ([`protocol`], [`server`]) — LDJSON over a
//!   Unix domain socket, with verdicts memoized in a
//!   [`zodiac::ScanCache`] keyed by (canonical program fingerprint,
//!   check-set key).
//!
//! Check-set swaps are atomic: the daemon publishes immutable
//! [`CheckSet`] snapshots behind an `RwLock<Arc<..>>`, so an in-flight
//! scan holds one consistent set end-to-end and never observes a
//! half-applied delta.

pub mod http;
pub mod protocol;
pub mod server;
pub mod store;

use protocol::{Request, Response, SourceFormat};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use store::{CheckStore, LoadReport, Origin, StoredCheck};
use zodiac::ScanCache;
use zodiac_kb::KnowledgeBase;
use zodiac_mining::{mine_types_with_stats, IncrementalStats, MinedCheck, MiningConfig};
use zodiac_model::{Program, Symbol};
use zodiac_obs::{
    render_prometheus, Clock, CountingAlloc, Exemplar, Lifecycle, MemoryRecorder, MonotonicClock,
    Obs, Recorder, RollingRecorder, TailExemplars,
};
use zodiac_spec::Check;

/// Slowest requests retained per op for exemplar replay.
const EXEMPLARS_PER_OP: usize = 8;
/// Check fingerprints retained per exemplar.
const FINGERPRINTS_PER_EXEMPLAR: usize = 8;

/// Daemon configuration.
#[derive(Debug, Clone, Default)]
pub struct DaemonConfig {
    /// Mining thresholds for incremental re-mining. `oracle_noise` must be
    /// zero: a noisy oracle's RNG stream depends on the global candidate
    /// order, which breaks the incremental-equals-batch equivalence.
    pub mining: MiningConfig,
    /// Deploy-validate freshly mined checks against the in-memory corpus
    /// before admitting them: `submit_corpus_delta` only serves checks that
    /// survive the same wave-scheduled validation the batch pipeline runs.
    pub revalidate: bool,
    /// Persistent deploy memo shared with the CLI and benches
    /// ([`zodiac_deployer::DeployMemo`]); re-validation probes recorded
    /// there are reused across deltas and daemon restarts.
    pub deploy_cache: Option<std::path::PathBuf>,
    /// Worker shards for per-project observation when a delta upserts many
    /// projects at once (0 or 1 = on the serving thread). The incremental
    /// database absorbs shard-built observations through the same exact
    /// merge the mining shard driver uses, so this never changes the mined
    /// set.
    pub mining_shards: usize,
}

/// An immutable snapshot of the served check set.
///
/// Scans capture one `Arc<CheckSet>` at request start; delta application
/// builds a complete replacement before swapping it in, so `version`,
/// `key`, and the checks themselves are always mutually consistent.
#[derive(Debug)]
pub struct CheckSet {
    /// Store sequence number at publish time.
    pub version: u64,
    /// Content-based identity ([`zodiac::check_set_key`]) — the memo-cache
    /// key half, so re-publishing an identical set keeps cache hits.
    pub key: u64,
    /// The checks with provenance, in admission order.
    pub entries: Vec<StoredCheck>,
    plain: Vec<Check>,
    /// Each check's fingerprint, taken once at publish.
    fingerprints: Vec<u64>,
}

impl CheckSet {
    fn build(store: &CheckStore) -> CheckSet {
        let entries: Vec<StoredCheck> = store.live_in_seq_order().into_iter().cloned().collect();
        let plain: Vec<Check> = entries.iter().map(|c| c.check.clone()).collect();
        let fingerprints: Vec<u64> = plain.iter().map(Check::fingerprint).collect();
        CheckSet {
            version: store.seq(),
            key: zodiac_spec::fingerprint_set_key(fingerprints.iter().copied()),
            entries,
            plain,
            fingerprints,
        }
    }

    /// The bare checks, parallel to `entries`.
    pub fn plain(&self) -> &[Check] {
        &self.plain
    }

    /// Number of live checks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Canonical fingerprints and resource counts of compiled programs, keyed
/// by the request's (format, source text).
type ProgramMemo = HashMap<(SourceFormat, String), (u128, usize)>;

/// Compiles a request's source text.
fn compile(source: &str, format: SourceFormat) -> Result<Program, String> {
    let compiled = match format {
        SourceFormat::Tf => zodiac_hcl::compile(source),
        SourceFormat::Plan => zodiac_hcl::from_plan_json(source),
    };
    compiled.map_err(|e| e.to_string())
}

/// Session state of the incremental re-mining engine. The corpus lives in
/// memory (deltas are session state; only checks are durable), while the
/// mined check set it maintains is diffed into the store on every delta.
struct Remine {
    stats: IncrementalStats,
    /// Surviving mined checks grouped by anchor type
    /// (`check.bindings[0].rtype`) — the granularity at which deltas
    /// invalidate.
    mined: BTreeMap<Symbol, Vec<MinedCheck>>,
}

/// The daemon: shared state behind the serving loops.
pub struct Daemon {
    kb: KnowledgeBase,
    cfg: DaemonConfig,
    store: Mutex<CheckStore>,
    checks: RwLock<Arc<CheckSet>>,
    cache: ScanCache,
    /// Compile memo: source text → (canonical fingerprint, resource
    /// count). Compilation is deterministic and check-set independent, so
    /// entries never need invalidating; repeat scans of the same source skip
    /// straight to the fingerprint-keyed verdict cache. It keeps no compiled
    /// program: one takes ~30 KB against ~4 KB of source, and the memo holds
    /// every distinct program scanned, so a verdict miss (a new check set)
    /// compiles the source again instead.
    programs: Mutex<ProgramMemo>,
    remine: Mutex<Remine>,
    obs: Obs,
    /// Cumulative metric registry: every subsystem recording through
    /// [`Daemon::obs`] lands here, so one snapshot covers deploy, mining,
    /// validation, repair, and the daemon's own serving counters.
    registry: Arc<MemoryRecorder>,
    /// Live windows fed by the `op.<name>.us` serving-boundary convention.
    rolling: Arc<RollingRecorder>,
    /// Slowest-N requests per op, replayable via `zodiac explain`.
    exemplars: TailExemplars,
    clock: Arc<dyn Clock>,
    ready: AtomicBool,
    shutdown: AtomicBool,
}

impl Daemon {
    /// Opens the store under `dir` (compacting it when mostly garbage) and
    /// builds the serving state.
    pub fn open(dir: &Path, cfg: DaemonConfig, obs: Obs) -> Result<(Daemon, LoadReport), String> {
        if cfg.mining.oracle_noise != 0.0 {
            return Err("incremental re-mining requires oracle_noise = 0".into());
        }
        let (mut store, report) = CheckStore::open(dir)?;
        if store.wants_compaction() {
            store.compact()?;
        }
        let snapshot = Arc::new(CheckSet::build(&store));
        // Operational telemetry: a cumulative registry plus rolling windows
        // join whatever sinks the caller configured (trace files), sharing
        // the caller's trace context so span ids stay coherent.
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let registry = Arc::new(MemoryRecorder::new());
        let rolling = Arc::new(RollingRecorder::new(clock.clone()));
        let obs = obs
            .with_sink(registry.clone())
            .with_sink(rolling.clone() as Arc<dyn zodiac_obs::Recorder>);
        let daemon = Daemon {
            kb: zodiac_kb::azure_kb(),
            remine: Mutex::new(Remine {
                stats: IncrementalStats::new(cfg.mining.use_kb),
                mined: BTreeMap::new(),
            }),
            cfg,
            store: Mutex::new(store),
            checks: RwLock::new(snapshot),
            cache: ScanCache::new(),
            programs: Mutex::new(HashMap::new()),
            obs,
            registry,
            rolling,
            exemplars: TailExemplars::new(EXEMPLARS_PER_OP),
            clock,
            ready: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        };
        Ok((daemon, report))
    }

    /// Imports checks (idempotently) as `origin = imported`, e.g. from a
    /// `zodiac mine` output file at startup. Returns how many were new.
    pub fn import_checks(&self, checks: &[Check]) -> Result<usize, String> {
        let mut store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        let mut added = 0usize;
        for check in checks {
            if !store.live().contains_key(&check.fingerprint()) {
                store.admit(check.clone(), Origin::Imported, "imported", 0, 0)?;
                added += 1;
            }
        }
        self.publish(&store);
        Ok(added)
    }

    /// The daemon's composed observability handle: the caller's sinks plus
    /// the telemetry registry and rolling windows.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The current check-set snapshot.
    pub fn snapshot(&self) -> Arc<CheckSet> {
        self.checks
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Whether a graceful shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Whether the daemon finished start-up (store recovered and any
    /// initial check import applied). `GET /healthz` keys on this.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst)
    }

    /// Marks start-up complete. Called by the binary once the store is
    /// recovered and the initial `--checks` import (if any) has been
    /// published.
    pub fn set_ready(&self) {
        self.ready.store(true, Ordering::SeqCst);
    }

    /// Requests a graceful shutdown of the serving loops.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn publish(&self, store: &CheckStore) {
        let next = Arc::new(CheckSet::build(store));
        *self.checks.write().unwrap_or_else(PoisonError::into_inner) = next;
    }

    /// Handles one request line, returning one response line (no newline).
    pub fn handle_line(&self, line: &str) -> String {
        match Request::parse(line) {
            Ok(req) => self.handle(req).render(),
            Err(e) => Response::err(&e).render(),
        }
    }

    /// Handles one parsed request, timing it at the serving boundary:
    /// every request lands one `op.<name>.us` observation (cumulative
    /// registry + rolling windows), errored responses bump
    /// `op.<name>.errors`, and slow requests enter the exemplar reservoir
    /// with the check fingerprints they touched.
    pub fn handle(&self, req: Request) -> Response {
        let op = req.op_name();
        let (latency_metric, error_metric) = req.boundary_metrics();
        let span = self.obs.start_leaf_span(req.span_path());
        let span_id = span.id();
        let mut touched: Vec<u64> = Vec::new();
        let resp = self.dispatch(req, &mut touched);
        let latency_us = span.elapsed_micros();
        span.finish();
        self.obs.histogram(latency_metric, latency_us);
        if !resp.is_ok() {
            self.obs.counter(error_metric, 1);
        }
        self.exemplars.observe_with(op, latency_us, || {
            touched.truncate(FINGERPRINTS_PER_EXEMPLAR);
            Exemplar {
                latency_us,
                ts_us: self.clock.now_us(),
                span_id,
                fingerprints: touched,
            }
        });
        resp
    }

    fn dispatch(&self, req: Request, touched: &mut Vec<u64>) -> Response {
        match req {
            Request::Scan { id, source, format } => self.scan(id, &source, format, touched),
            Request::Repair {
                id,
                source,
                format,
                max_edits,
            } => self.repair(id, &source, format, max_edits, touched),
            Request::SubmitCorpusDelta { upsert, remove } => self.delta(upsert, remove),
            Request::ListChecks => self.list_checks(),
            Request::Explain { fp } => {
                touched.push(fp);
                self.explain(fp)
            }
            Request::Status => self.status(),
            Request::Metrics => self.metrics(),
            Request::Shutdown => {
                self.request_shutdown();
                Response::ok("shutdown")
            }
        }
    }

    /// The canonical fingerprint and resource count of a request's program
    /// through the compile memo. On a memo miss it compiles the source and
    /// also returns the program, so the caller need not compile it again.
    fn fingerprint_memoized(
        &self,
        source: &str,
        format: SourceFormat,
    ) -> Result<(u128, usize, Option<Program>), String> {
        let memo = self
            .programs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(format, source.to_string()))
            .copied();
        if let Some((fp, resources)) = memo {
            return Ok((fp, resources, None));
        }
        let program = compile(source, format)?;
        let fp = zodiac_deployer::fingerprint(&program);
        self.programs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((format, source.to_string()), (fp, program.len()));
        Ok((fp, program.len(), Some(program)))
    }

    fn scan(
        &self,
        id: Option<String>,
        source: &str,
        format: SourceFormat,
        touched: &mut Vec<u64>,
    ) -> Response {
        let (fp, resources, compiled) = match self.fingerprint_memoized(source, format) {
            Ok(hit) => hit,
            Err(e) => return Response::err(&format!("scan: {e}")),
        };
        let snapshot = self.snapshot();
        let (verdict, cached) = match self.cache.get(fp, snapshot.key) {
            Some(verdict) => (verdict, true),
            None => {
                let program = match compiled.map_or_else(|| compile(source, format), Ok) {
                    Ok(program) => program,
                    Err(e) => return Response::err(&format!("scan: {e}")),
                };
                self.cache.scan_fingerprinted(
                    fp,
                    &program,
                    snapshot.plain(),
                    snapshot.key,
                    &self.kb,
                )
            }
        };
        self.obs.counter("daemon.scans", 1);
        if cached {
            self.obs.counter("daemon.cache_hits", 1);
        }
        // Violated-check fingerprints, deduped in check order: the
        // exemplar payload that lets an operator replay a slow scan's
        // causal ledger, and the key of its Served lifecycle events.
        let mut per_check: BTreeMap<usize, u64> = BTreeMap::new();
        for v in verdict.iter() {
            *per_check.entry(v.check_index).or_default() += 1;
        }
        let fingerprints = &snapshot.fingerprints;
        touched.extend(per_check.keys().map(|&idx| fingerprints[idx]));
        if self.obs.is_enabled() {
            // One Served lifecycle event per violated check, so `zodiac
            // explain <fp> --trace` over a daemon trace shows where a
            // validated check fires in production.
            let folded = zodiac_repair::fold_program_fingerprint(fp);
            for (idx, count) in per_check {
                self.obs.lifecycle(
                    fingerprints[idx],
                    Lifecycle::Served {
                        program: folded,
                        violations: count,
                        cached,
                    },
                );
            }
        }
        let violations: Vec<Value> = verdict
            .iter()
            .map(|v| {
                Value::Object(
                    [
                        (
                            "check_index".to_string(),
                            Value::Number(serde::Number::from_u64(v.check_index as u64)),
                        ),
                        ("check".to_string(), Value::String(v.check.clone())),
                        (
                            "resources".to_string(),
                            Value::Array(
                                v.resources
                                    .iter()
                                    .map(|r| Value::String(r.to_string()))
                                    .collect(),
                            ),
                        ),
                    ]
                    .into_iter()
                    .collect(),
                )
            })
            .collect();
        let mut resp = Response::ok("scan")
            .str("program_fp", &format!("{fp:032x}"))
            .num("resources", resources as u64)
            .num("check_set_version", snapshot.version)
            .bool("cached", cached)
            .field("violations", Value::Array(violations));
        if let Some(id) = id {
            resp = resp.str("id", &id);
        }
        resp
    }

    /// Repairs one program against the current check-set snapshot. The
    /// search runs per-request behind a single-worker [`DeployEngine`]
    /// sharing the daemon's persistent deploy memo, so oracle probes are
    /// replayed across requests and restarts; lifecycle events keyed by the
    /// repair fingerprint land in the daemon trace for `zodiac explain`.
    fn repair(
        &self,
        id: Option<String>,
        source: &str,
        format: SourceFormat,
        max_edits: Option<usize>,
        touched: &mut Vec<u64>,
    ) -> Response {
        let program = match compile(source, format) {
            Ok(program) => program,
            Err(e) => return Response::err(&format!("repair: {e}")),
        };
        let snapshot = self.snapshot();
        let engine = match zodiac_deployer::DeployEngine::try_with_obs(
            zodiac_cloud::CloudSim::new_azure(),
            zodiac_deployer::DeployerConfig {
                workers: 1,
                persistent_cache: self.cfg.deploy_cache.clone(),
                ..Default::default()
            },
            self.obs.clone(),
        ) {
            Ok(engine) => engine,
            Err(e) => return Response::err(&format!("repair: {e}")),
        };
        let mut rcfg = zodiac_repair::RepairConfig::default();
        if let Some(n) = max_edits {
            rcfg.max_edits = n;
        }
        let report = zodiac_repair::repair_program(
            &program,
            snapshot.plain(),
            &self.kb,
            &engine,
            &rcfg,
            &self.obs,
        );
        if let Err(e) = engine.sync_persistent() {
            return Response::err(&format!("repair: {e}"));
        }
        self.obs.counter("daemon.repairs", 1);
        // The repair fingerprint keys the accepted/rejected ledger, so a
        // slow repair's exemplar replays through `zodiac explain` directly.
        touched.push(report.fingerprint);

        let attempts: Vec<Value> = report
            .attempts
            .iter()
            .map(|a| {
                let layers: Vec<Value> = a
                    .layers
                    .iter()
                    .map(|l| {
                        Value::Object(
                            [
                                (
                                    "layer".to_string(),
                                    Value::Number(serde::Number::from_u64(l.layer.index())),
                                ),
                                ("label".to_string(), Value::String(l.layer.label().into())),
                                ("pass".to_string(), Value::Bool(l.passed)),
                                ("reason".to_string(), Value::String(l.reason.clone())),
                            ]
                            .into_iter()
                            .collect(),
                        )
                    })
                    .collect();
                Value::Object(
                    [
                        (
                            "edits".to_string(),
                            Value::Array(
                                a.edits
                                    .iter()
                                    .map(|e| Value::String(e.to_string()))
                                    .collect(),
                            ),
                        ),
                        ("layers".to_string(), Value::Array(layers)),
                    ]
                    .into_iter()
                    .collect(),
                )
            })
            .collect();
        let outcome = match &report.outcome {
            zodiac_repair::RepairOutcome::Clean => "clean",
            zodiac_repair::RepairOutcome::Accepted { .. } => "accepted",
            zodiac_repair::RepairOutcome::Exhausted => "exhausted",
            zodiac_repair::RepairOutcome::Unrepairable { .. } => "unrepairable",
        };
        let mut resp = Response::ok("repair")
            .str("fingerprint", &format!("{:016x}", report.fingerprint))
            .str("outcome", outcome)
            .num("violations_before", report.violations as u64)
            .num("violated_checks", report.violated.len() as u64)
            .num("check_set_version", snapshot.version)
            .field("attempts", Value::Array(attempts));
        match &report.outcome {
            zodiac_repair::RepairOutcome::Accepted { program, edits } => {
                resp = resp
                    .field(
                        "edits",
                        Value::Array(edits.iter().map(|e| Value::String(e.to_string())).collect()),
                    )
                    .str("repaired_source", &zodiac_hcl::to_hcl(program));
            }
            zodiac_repair::RepairOutcome::Unrepairable { reason } => {
                resp = resp.str("reason", reason);
            }
            _ => {}
        }
        if let Some(id) = id {
            resp = resp.str("id", &id);
        }
        resp
    }

    fn delta(&self, upsert: Vec<(String, String)>, remove: Vec<String>) -> Response {
        // Compile every upserted source before touching any state: a delta
        // applies atomically or not at all.
        let mut compiled = Vec::with_capacity(upsert.len());
        for (project, source) in upsert {
            match zodiac_hcl::compile(&source) {
                Ok(p) => compiled.push((project, p)),
                Err(e) => return Response::err(&format!("delta: {project}: {e}")),
            }
        }

        let mut remine = self.remine.lock().unwrap_or_else(PoisonError::into_inner);
        let mut upserted = 0u64;
        let mut removed = 0u64;
        for id in &remove {
            if remine.stats.retract(id, &self.kb) {
                removed += 1;
            }
        }
        upserted += compiled.len() as u64;
        remine.stats.observe_batch(
            compiled,
            &self.kb,
            &zodiac_mining::ShardConfig::with_shards(self.cfg.mining_shards),
        );
        let changed = remine.stats.take_affected_types();
        let fresh =
            mine_types_with_stats(remine.stats.stats(), &self.kb, &self.cfg.mining, &changed);
        let mut by_type: BTreeMap<Symbol, Vec<MinedCheck>> = BTreeMap::new();
        for c in fresh {
            by_type
                .entry(c.check.bindings[0].rtype)
                .or_default()
                .push(c);
        }
        for t in &changed {
            match by_type.remove(t) {
                Some(group) => {
                    remine.mined.insert(*t, group);
                }
                None => {
                    remine.mined.remove(t);
                }
            }
        }

        // Diff the maintained mined set against the store: admit newcomers,
        // retire mined-origin checks that no longer survive. Imported
        // checks are never auto-retired by corpus deltas.
        let desired: BTreeMap<u64, &MinedCheck> = remine
            .mined
            .values()
            .flatten()
            .map(|c| (c.check.fingerprint(), c))
            .collect();
        let mut store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        // Re-validation gate: deploy-test the checks this delta would newly
        // admit, against the current in-memory corpus, through the shared
        // persistent deploy memo. Checks that fail stay out of the store
        // (they remain in the maintained mined set, so a later corpus
        // change re-tests them — cheaply, since the memo replays every
        // already-probed deployment).
        let mut checks_rejected = 0u64;
        let rejected: std::collections::BTreeSet<u64> = if self.cfg.revalidate {
            let fresh_mined: Vec<MinedCheck> = desired
                .iter()
                .filter(|(fp, _)| !store.live().contains_key(*fp))
                .map(|(_, c)| (*c).clone())
                .collect();
            if fresh_mined.is_empty() {
                Default::default()
            } else {
                match self.revalidate(&remine, fresh_mined) {
                    Ok(r) => r,
                    Err(e) => return Response::err(&format!("delta: revalidate: {e}")),
                }
            }
        } else {
            Default::default()
        };
        let mut checks_added = 0u64;
        let mut checks_retired = 0u64;
        let stale: Vec<u64> = store
            .live()
            .iter()
            .filter(|(fp, c)| c.origin == Origin::Mined && !desired.contains_key(fp))
            .map(|(fp, _)| *fp)
            .collect();
        for fp in stale {
            if let Err(e) = store.retire(fp) {
                return Response::err(&format!("delta: store: {e}"));
            }
            checks_retired += 1;
        }
        let mut checks_updated = 0u64;
        for (fp, c) in &desired {
            if rejected.contains(fp) {
                checks_rejected += 1;
                continue;
            }
            let support = c.support as u64;
            let confidence_ppm = (c.confidence * 1e6) as u64;
            // A surviving check's statistics drift as the corpus does;
            // re-admit (same fingerprint, fresh provenance) so `explain`
            // reports the current support. Imported checks keep their
            // imported provenance.
            let (new, refresh) = match store.live().get(fp) {
                None => (true, true),
                Some(live) => (
                    false,
                    live.origin == Origin::Mined
                        && (live.family != c.family
                            || live.support != support
                            || live.confidence_ppm != confidence_ppm),
                ),
            };
            if refresh {
                if let Err(e) = store.admit(
                    c.check.clone(),
                    Origin::Mined,
                    c.family,
                    support,
                    confidence_ppm,
                ) {
                    return Response::err(&format!("delta: store: {e}"));
                }
                if new {
                    checks_added += 1;
                } else {
                    checks_updated += 1;
                }
            }
        }
        self.publish(&store);
        let version = store.seq();
        drop(store);
        let projects = remine.stats.projects() as u64;
        drop(remine);

        self.obs.counter("daemon.deltas", 1);
        Response::ok("submit_corpus_delta")
            .num("upserted", upserted)
            .num("removed", removed)
            .num("corpus_projects", projects)
            .num("types_rescored", changed.len() as u64)
            .num("checks_added", checks_added)
            .num("checks_updated", checks_updated)
            .num("checks_retired", checks_retired)
            .num("checks_rejected", checks_rejected)
            .num("check_set_version", version)
    }

    /// Deploy-validates freshly mined checks against the current corpus,
    /// returning the fingerprints that must NOT be admitted (demoted as
    /// false positives or left unresolved). Runs the same wave-scheduled
    /// validation as the batch pipeline, behind a [`DeployEngine`] that
    /// replays and extends the configured persistent deploy memo.
    fn revalidate(
        &self,
        remine: &Remine,
        fresh: Vec<MinedCheck>,
    ) -> Result<std::collections::BTreeSet<u64>, String> {
        use zodiac_validation::{Scheduler, SchedulerConfig};
        let corpus: Vec<Program> = remine.stats.observed_programs().cloned().collect();
        let engine = zodiac_deployer::DeployEngine::try_with_obs(
            zodiac_cloud::CloudSim::new_azure(),
            zodiac_deployer::DeployerConfig {
                workers: 1,
                persistent_cache: self.cfg.deploy_cache.clone(),
                ..Default::default()
            },
            self.obs.clone(),
        )?;
        let candidates: Vec<u64> = fresh.iter().map(|c| c.check.fingerprint()).collect();
        let outcome = Scheduler::new(&engine, &self.kb, &corpus, SchedulerConfig::default())
            .with_obs(self.obs.clone())
            .run(fresh);
        let validated: std::collections::BTreeSet<u64> = outcome
            .validated
            .iter()
            .map(|v| v.mined.check.fingerprint())
            .collect();
        self.obs.counter("daemon.revalidations", 1);
        engine.sync_persistent()?;
        Ok(candidates
            .into_iter()
            .filter(|fp| !validated.contains(fp))
            .collect())
    }

    fn list_checks(&self) -> Response {
        let snapshot = self.snapshot();
        let checks: Vec<Value> = snapshot
            .entries
            .iter()
            .zip(&snapshot.fingerprints)
            .map(|(c, fp)| {
                Value::Object(
                    [
                        ("fp".to_string(), Value::String(format!("{fp:016x}"))),
                        ("check".to_string(), Value::String(c.check.to_string())),
                        (
                            "origin".to_string(),
                            Value::String(c.origin.as_str().into()),
                        ),
                        ("family".to_string(), Value::String(c.family.clone())),
                        (
                            "seq".to_string(),
                            Value::Number(serde::Number::from_u64(c.seq)),
                        ),
                    ]
                    .into_iter()
                    .collect(),
                )
            })
            .collect();
        Response::ok("list_checks")
            .num("check_set_version", snapshot.version)
            .num("count", snapshot.len() as u64)
            .field("checks", Value::Array(checks))
    }

    fn explain(&self, fp: u64) -> Response {
        let snapshot = self.snapshot();
        let Some(idx) = snapshot.fingerprints.iter().position(|&f| f == fp) else {
            return Response::err(&format!("no live check with fingerprint {fp:016x}"));
        };
        let c = &snapshot.entries[idx];
        Response::ok("explain")
            .str("fp", &format!("{fp:016x}"))
            .str("check", &c.check.to_string())
            .str("origin", c.origin.as_str())
            .str("family", &c.family)
            .num("support", c.support)
            .num("confidence_ppm", c.confidence_ppm)
            .num("seq", c.seq)
            .str("insight", &zodiac::insights::explain(&c.check))
    }

    /// Publishes point-in-time process gauges (heap, cache sizes, live
    /// checks) into the registry so snapshots and exposition carry them.
    fn publish_process_gauges(&self) {
        if let Some(alloc) = CountingAlloc::global() {
            alloc.publish_gauges(self.registry.as_ref());
        }
        self.registry
            .gauge_set("daemon.cache_entries", self.cache.len() as u64);
        self.registry
            .gauge_set("daemon.checks_live", self.snapshot().len() as u64);
    }

    /// The Prometheus exposition page: cumulative registry + rolling
    /// windows + tail exemplars. Served by `GET /metrics` and embedded in
    /// the `metrics` op.
    pub fn metrics_page(&self) -> String {
        self.publish_process_gauges();
        render_prometheus(
            &self.registry.snapshot(),
            Some(&self.rolling.snapshot()),
            Some(&self.exemplars),
        )
    }

    /// Parses one of the obs crate's hand-rolled JSON encodings into a
    /// protocol `Value` for embedding in a response.
    fn embed_json(text: &str) -> Value {
        serde_json::from_str(text).unwrap_or(Value::Null)
    }

    fn metrics(&self) -> Response {
        self.publish_process_gauges();
        let snapshot = self.registry.snapshot();
        let rolling = self.rolling.snapshot();
        let page = render_prometheus(&snapshot, Some(&rolling), Some(&self.exemplars));
        Response::ok("metrics")
            .bool("ready", self.is_ready())
            .field("snapshot", Self::embed_json(&snapshot.to_json()))
            .field("rolling", Self::embed_json(&rolling.to_json()))
            .field("exemplars", Self::embed_json(&self.exemplars.to_json()))
            .str("prometheus", &page)
    }

    fn status(&self) -> Response {
        let snapshot = self.snapshot();
        let (records, projects) = {
            let store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
            let remine = self.remine.lock().unwrap_or_else(PoisonError::into_inner);
            (store.records() as u64, remine.stats.projects() as u64)
        };
        self.publish_process_gauges();
        // The flat counters are read from the snapshot the response embeds,
        // so the two always agree. `MetricsSnapshot::counter` reads 0 for a
        // counter never touched without creating it in the registry.
        let metrics = self.registry.snapshot();
        Response::ok("status")
            .num("checks", snapshot.len() as u64)
            .num("check_set_version", snapshot.version)
            .str("check_set_key", &format!("{:016x}", snapshot.key))
            .num("scans", metrics.counter("daemon.scans"))
            .num("repairs", metrics.counter("daemon.repairs"))
            .num("cache_hits", metrics.counter("daemon.cache_hits"))
            .num("cache_entries", self.cache.len() as u64)
            .num("corpus_projects", projects)
            .num("deltas", metrics.counter("daemon.deltas"))
            .num("store_records", records)
            .bool("ready", self.is_ready())
            .field("metrics", Self::embed_json(&metrics.to_json()))
            .field(
                "rolling",
                Self::embed_json(&self.rolling.snapshot().to_json()),
            )
    }
}

#[cfg(test)]
mod tests {
    //! The cost of the serving boundary, pinned deterministically: on a warm
    //! daemon, [`Daemon::handle`] may differ from the bare
    //! [`Daemon::dispatch`] it wraps only by the boundary's own records,
    //! and never by a heap allocation.

    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use zodiac_obs::{CandidateEvent, SpanRecord};

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts allocations per thread: the crate's unit tests run on
    /// parallel threads, and a process-wide count would take in theirs.
    struct ThreadCountingAlloc;

    impl ThreadCountingAlloc {
        fn bump() {
            // `try_with`, not `with`: an allocator must never panic.
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    }

    // SAFETY: every call goes to `System` verbatim; the count is a
    // thread-local cell that neither allocates nor sees the pointers.
    unsafe impl GlobalAlloc for ThreadCountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            Self::bump();
            System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            Self::bump();
            System.alloc_zeroed(layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            Self::bump();
            System.realloc(ptr, layout, new_size)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOC: ThreadCountingAlloc = ThreadCountingAlloc;

    fn allocations() -> u64 {
        ALLOCATIONS.with(Cell::get)
    }

    /// Counts recorder calls by kind and name. A name's first call
    /// allocates its entry; later calls only bump it, so a warm sink adds
    /// no allocation to the window it is called in.
    #[derive(Default)]
    struct CountingSink {
        calls: Mutex<BTreeMap<&'static str, HashMap<String, u64>>>,
    }

    impl CountingSink {
        fn bump(&self, kind: &'static str, name: &str) {
            let mut calls = self.calls.lock().unwrap();
            let names = calls.entry(kind).or_default();
            match names.get_mut(name) {
                Some(n) => *n += 1,
                None => {
                    names.insert(name.to_string(), 1);
                }
            }
        }

        /// Every call so far, as `"<kind> <name>" → count`.
        fn snapshot(&self) -> BTreeMap<String, u64> {
            let calls = self.calls.lock().unwrap();
            calls
                .iter()
                .flat_map(|(kind, names)| {
                    names.iter().map(move |(n, c)| (format!("{kind} {n}"), *c))
                })
                .collect()
        }
    }

    impl Recorder for CountingSink {
        fn counter(&self, name: &str, _: u64) {
            self.bump("counter", name);
        }
        fn gauge_set(&self, name: &str, _: u64) {
            self.bump("gauge", name);
        }
        fn gauge_max(&self, name: &str, _: u64) {
            self.bump("gauge", name);
        }
        fn histogram(&self, name: &str, _: u64) {
            self.bump("histogram", name);
        }
        fn span_record(&self, rec: &SpanRecord<'_>) {
            self.bump("span", rec.path);
        }
        fn lifecycle(&self, event: &CandidateEvent) {
            self.bump("lifecycle", event.kind.kind());
        }
    }

    /// The allocations `f` makes on this thread and the recorder calls it
    /// lands in `sink`.
    fn measure(
        sink: &CountingSink,
        f: impl FnOnce() -> Response,
    ) -> (u64, BTreeMap<String, u64>, bool) {
        let before = sink.snapshot();
        let start = allocations();
        let resp = f();
        let allocated = allocations() - start;
        let mut calls = sink.snapshot();
        for (name, n) in &before {
            if let Some(c) = calls.get_mut(name) {
                *c -= n;
            }
        }
        calls.retain(|_, c| *c > 0);
        (allocated, calls, resp.is_ok())
    }

    #[test]
    fn serving_boundary_adds_no_allocation_and_only_its_own_records() {
        // The 40-project memo-path workload: generated projects scanned
        // against the check set mined from them, plus one failing scan.
        let sources: Vec<String> = zodiac_corpus::generate(&zodiac_corpus::CorpusConfig {
            projects: 40,
            noise_rate: 0.05,
            ..Default::default()
        })
        .iter()
        .map(|p| p.to_hcl())
        .collect();
        let dir = std::env::temp_dir().join(format!("zodiacd-boundary-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = Arc::new(CountingSink::default());
        let (daemon, _) =
            Daemon::open(&dir, DaemonConfig::default(), Obs::single(sink.clone())).unwrap();
        let programs: Vec<Program> = sources
            .iter()
            .map(|s| zodiac_hcl::compile(s).unwrap())
            .collect();
        let mined = zodiac_mining::mine(&programs, &daemon.kb, &daemon.cfg.mining);
        let checks: Vec<Check> = mined.checks.into_iter().map(|c| c.check).collect();
        assert!(!checks.is_empty(), "the workload mined no checks");
        daemon.import_checks(&checks).unwrap();

        let mut lines: Vec<String> = sources
            .iter()
            .map(|s| {
                format!(
                    "{{\"op\":\"scan\",\"source\":{}}}",
                    serde_json::to_string(&Value::String(s.clone())).unwrap()
                )
            })
            .collect();
        lines.push("{\"op\":\"scan\",\"source\":\"resource \\\"\"}".to_string());
        let request = |line: &str| Request::parse(line).unwrap();

        // Warm every memo, cache, metric cell, rolling window, exemplar
        // reservoir and name buffer through both entry points.
        for _ in 0..2 {
            for line in &lines {
                daemon.handle(request(line));
                daemon.dispatch(request(line), &mut Vec::new());
            }
        }

        for round in 0..20 {
            for (i, line) in lines.iter().enumerate() {
                let (req, twin) = (request(line), request(line));
                let (handle_allocs, handle_calls, ok) = measure(&sink, || daemon.handle(req));
                let (dispatch_allocs, dispatch_calls, dispatch_ok) =
                    measure(&sink, || daemon.dispatch(twin, &mut Vec::new()));
                assert_eq!(ok, dispatch_ok);
                assert_eq!(ok, i < sources.len(), "request {i}: unexpected outcome");
                assert_eq!(
                    handle_allocs, dispatch_allocs,
                    "round {round}, request {i}: the boundary allocated"
                );
                // The boundary's own records, and nothing else.
                let mut want = dispatch_calls;
                for boundary in ["span daemon/request/scan", "histogram op.scan.us"]
                    .into_iter()
                    .chain((!ok).then_some("counter op.scan.errors"))
                {
                    *want.entry(boundary.to_string()).or_default() += 1;
                }
                assert_eq!(handle_calls, want, "round {round}, request {i}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
