//! The serving workloads: closed-loop clients over the daemon's Unix socket,
//! and the reference checks on everything they got back.

use crate::requests::{repair_line, repair_order, ScanPlan};
use crate::stats::{fnv, median, quantile};
use crate::wire::{field, is_ok, num_field, Client, Server};
use crate::world::WriteWorld;
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zodiac_daemon::{CheckSet, Daemon};
use zodiac_kb::KnowledgeBase;
use zodiac_spec::Check;

/// One answered scan.
#[derive(Debug, Clone, Copy)]
pub struct ScanRecord {
    /// The plan step sent.
    pub step: u32,
    /// Round-trip latency, nanoseconds.
    pub lat_ns: u64,
    /// When the answer arrived, nanoseconds since the phase started.
    pub at_ns: u64,
    /// `check_set_version` of the answer (0 for an error answer).
    pub version: u64,
    /// Hash of the answer's `violations` array (0 for an error answer).
    pub hash: u64,
}

/// Everything the scan clients of one phase saw.
#[derive(Default)]
pub struct ScanLog {
    /// Answered scans in completion order per connection.
    pub records: Vec<ScanRecord>,
    /// One `violations` text per distinct (program, version, hash).
    pub texts: HashMap<(u32, u64, u64), String>,
    /// Requests that got no answer or an error answer.
    pub errors: u64,
    /// Phase wall time, seconds.
    pub secs: f64,
}

impl ScanLog {
    fn absorb(&mut self, other: ScanLog) {
        self.records.extend(other.records);
        for (k, v) in other.texts {
            self.texts.entry(k).or_insert(v);
        }
        self.errors += other.errors;
    }

    /// The scan metrics of the phase, `(p50 µs, p99 µs, requests per
    /// second)`: each is the median over the phase's whole seconds of that
    /// second's figure, so a burst of outside load in part of a run moves
    /// it less. A phase shorter than two seconds is one window.
    pub fn windowed(&self) -> (f64, f64, f64) {
        let (p50, p99, rps) = self.windows();
        (median(&p50), median(&p99), median(&rps))
    }

    /// The per-second figures [`ScanLog::windowed`] takes the medians of.
    pub fn windows(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let windows = (self.secs.floor() as usize).max(1);
        let width = self.secs / windows as f64;
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for r in &self.records {
            let w = ((r.at_ns as f64 / 1e9 / width) as usize).min(windows - 1);
            lat[w].push(r.lat_ns as f64 / 1e3);
        }
        let full: Vec<&Vec<f64>> = lat.iter().filter(|l| !l.is_empty()).collect();
        let per = |f: &dyn Fn(&Vec<f64>) -> f64| full.iter().map(|l| f(l)).collect::<Vec<_>>();
        (
            per(&|l| quantile(l, 0.5)),
            per(&|l| quantile(l, 0.99)),
            per(&|l| l.len() as f64 / width),
        )
    }
}

/// One write-cycle operation.
#[derive(Debug, Clone)]
pub struct WriteRecord {
    /// Round-trip latency, nanoseconds.
    pub lat_ns: u64,
    /// Whether the answer passed its reference check at receipt.
    pub ok: bool,
}

/// Everything the write client of one phase saw.
#[derive(Default)]
pub struct WriteLog {
    /// Corpus deltas.
    pub deltas: Vec<WriteRecord>,
    /// Repairs.
    pub repairs: Vec<WriteRecord>,
    /// Distinct repaired sources of accepted repairs, by hash.
    pub repaired: BTreeMap<u64, String>,
    /// Accepted repairs.
    pub accepted: u64,
    /// The check set published at each version seen.
    pub versions: BTreeMap<u64, Arc<CheckSet>>,
}

/// Sends plan steps on `client` until the deadline or the plan runs out.
fn scan_loop(
    client: &mut Client,
    plan: &ScanPlan,
    cursor: &AtomicUsize,
    start: Instant,
    deadline: Instant,
) -> ScanLog {
    let mut log = ScanLog::default();
    while Instant::now() < deadline {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= plan.len() {
            break;
        }
        let line = plan.line(i);
        let t0 = Instant::now();
        let answer = client.call(line);
        let lat_ns = t0.elapsed().as_nanos() as u64;
        let at_ns = start.elapsed().as_nanos() as u64;
        let step = i as u32;
        match answer {
            Ok(resp) if is_ok(resp) => {
                let version = num_field(resp, "check_set_version").unwrap_or(0);
                let text = field(resp, "violations").unwrap_or("");
                let hash = fnv(text.as_bytes());
                let key = (plan.step(i).program(), version, hash);
                log.texts.entry(key).or_insert_with(|| text.to_string());
                log.records.push(ScanRecord {
                    step,
                    lat_ns,
                    at_ns,
                    version,
                    hash,
                });
            }
            Ok(_) => log.errors += 1,
            Err(_) => {
                log.errors += 1;
                break;
            }
        }
    }
    log
}

/// The read phase: two closed-loop connections scanning `daemon` for
/// `secs` seconds.
pub fn read_phase(
    daemon: &Arc<Daemon>,
    sock: &Path,
    plan: &ScanPlan,
    secs: f64,
) -> Result<ScanLog, String> {
    let server = Server::start(daemon.clone(), sock)?;
    let mut clients = vec![server.connect()?, server.connect()?];
    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let logs: Vec<ScanLog> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let cursor = &cursor;
                s.spawn(move || scan_loop(c, plan, cursor, t0, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scan client panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    drop(clients);
    server.stop()?;
    let mut log = ScanLog::default();
    for l in logs {
        log.absorb(l);
    }
    log.secs = wall;
    Ok(log)
}

/// Passes over the repair pool a write phase makes at least: the first
/// repairs every program cold, the second from the daemon's warm deploy memo.
pub const MIN_PASSES: usize = 2;
/// The shortest write cycle: a cycle that ends sooner waits out the rest
/// (think time). A cycle takes 75 to 90 ms on two cores. Without the floor
/// the publish rate follows the writer's speed, and the share of scans that
/// miss the verdict cache follows the ratio of the two connections' speeds,
/// which outside load on the machine moves by a third between runs.
pub const WRITE_CYCLE: Duration = Duration::from_millis(125);

/// The write phase: one connection scans `world.daemon` while the other runs
/// closed-loop write cycles (a corpus delta, then a repair of the next pool
/// program in the order `seed` gives, at most one cycle per [`WRITE_CYCLE`])
/// for `secs` seconds and at least [`MIN_PASSES`] passes over the pool.
pub fn write_phase(
    world: &mut WriteWorld,
    sock: &Path,
    plan: &ScanPlan,
    secs: f64,
    seed: u64,
) -> Result<(ScanLog, WriteLog), String> {
    let daemon = world.daemon.clone();
    let server = Server::start(daemon.clone(), sock)?;
    let mut reader = server.connect()?;
    let mut writer = server.connect()?;
    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let initial = world.initial.clone();
    let deltas = &mut world.deltas;
    let repairs = &world.repairs;
    // The scans run until the write cycles are done.
    let stop = AtomicUsize::new(0);
    let (scans, writes) = std::thread::scope(|s| {
        let writes = s.spawn(|| {
            let mut log = WriteLog::default();
            log.versions.insert(initial.version, initial);
            let order = repair_order(seed, repairs.len());
            let n = order.len();
            let mut next = Instant::now();
            while Instant::now() < deadline || log.repairs.len() < MIN_PASSES * n {
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
                next = Instant::now() + WRITE_CYCLE;
                let line = deltas.next_delta().line();
                let t = Instant::now();
                let answer = writer.call(&line).map(str::to_string);
                let lat_ns = t.elapsed().as_nanos() as u64;
                let ok = answer.as_deref().is_ok_and(delta_ok);
                if let Ok(resp) = &answer {
                    if let Some(v) = num_field(resp, "check_set_version") {
                        let snap = daemon.snapshot();
                        if snap.version == v {
                            log.versions.entry(v).or_insert(snap);
                        }
                    }
                }
                log.deltas.push(WriteRecord { lat_ns, ok });
                if answer.is_err() {
                    break;
                }

                let pick = order[log.repairs.len() % order.len()];
                let line = repair_line(&repairs[pick]);
                let t = Instant::now();
                let answer = writer.call(&line).map(str::to_string);
                let lat_ns = t.elapsed().as_nanos() as u64;
                let ok = answer.as_deref().is_ok_and(is_ok);
                if let Ok(resp) = &answer {
                    if let Some(src) = field(resp, "repaired_source") {
                        log.accepted += 1;
                        let text = json_prefix(src);
                        if let Ok(Value::String(src)) = serde_json::from_str::<Value>(text) {
                            log.repaired.entry(fnv(src.as_bytes())).or_insert(src);
                        }
                    }
                }
                log.repairs.push(WriteRecord { lat_ns, ok });
                if answer.is_err() {
                    break;
                }
            }
            stop.store(1, Ordering::Relaxed);
            log
        });
        let scans = s.spawn(|| {
            let mut log = ScanLog::default();
            while stop.load(Ordering::Relaxed) == 0 {
                let slice = scan_loop(
                    &mut reader,
                    plan,
                    &cursor,
                    t0,
                    Instant::now() + Duration::from_millis(20),
                );
                let done = slice.records.is_empty() && slice.errors == 0;
                log.absorb(slice);
                if done {
                    break;
                }
            }
            log
        });
        (
            scans.join().expect("scan client panicked"),
            writes.join().expect("write client panicked"),
        )
    });
    let mut scans = scans;
    scans.secs = t0.elapsed().as_secs_f64();
    drop(reader);
    drop(writer);
    server.stop()?;
    Ok((scans, writes))
}

/// The reference check of a delta answer: it succeeded and the served corpus
/// kept its size.
pub fn delta_ok(resp: &str) -> bool {
    is_ok(resp)
        && num_field(resp, "corpus_projects") == Some(crate::world::WRITE_BASE as u64)
        && num_field(resp, "upserted") == Some(crate::world::DELTA_WIDTH as u64)
        && num_field(resp, "removed") == Some(crate::world::DELTA_WIDTH as u64)
}

/// The leading JSON string literal of `text`.
fn json_prefix(text: &str) -> &str {
    let bytes = text.as_bytes();
    let mut i = 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return &text[..=i],
            _ => i += 1,
        }
    }
    text
}

/// A verdict in comparable form: (check index, check text, resources).
pub type Verdict = Vec<(u64, String, Vec<String>)>;

/// The reference verdict: `zodiac::scan_program` on the compiled source.
pub fn reference_verdict(source: &str, checks: &[Check], kb: &KnowledgeBase) -> Option<Verdict> {
    let program = zodiac_hcl::compile(source).ok()?;
    Some(to_verdict(zodiac::scan_program(&program, checks, kb)))
}

/// A scanner result in comparable form.
pub fn to_verdict(violations: Vec<zodiac::Violation>) -> Verdict {
    violations
        .into_iter()
        .map(|v| {
            (
                v.check_index as u64,
                v.check,
                v.resources.iter().map(|r| r.to_string()).collect(),
            )
        })
        .collect()
}

/// Parses the `violations` text of an answer (the array plus the closing
/// brace of the response object).
pub fn parse_verdict(text: &str) -> Option<Verdict> {
    let array = text.strip_suffix('}')?;
    let v: Value = serde_json::from_str(array).ok()?;
    v.as_array()?
        .iter()
        .map(|item| {
            Some((
                item.get("check_index")?.as_u64()?,
                item.get("check")?.as_str()?.to_string(),
                item.get("resources")?
                    .as_array()?
                    .iter()
                    .map(|r| r.as_str().map(str::to_string))
                    .collect::<Option<Vec<_>>>()?,
            ))
        })
        .collect()
}

/// Counts the scans whose answer differs from the reference verdict. The
/// check set behind an answer is looked up by its version in `versions`;
/// `corrupt` flips one reference verdict (the self-test of the check).
pub fn verify_scans(
    log: &ScanLog,
    plan: &ScanPlan,
    versions: &BTreeMap<u64, Arc<[Check]>>,
    kb: &KnowledgeBase,
    corrupt: bool,
) -> u64 {
    // Versions that republish the same checks share references.
    let content: BTreeMap<u64, (u64, &Arc<[Check]>)> = versions
        .iter()
        .map(|(v, checks)| (*v, (zodiac::check_set_key(checks), checks)))
        .collect();
    // One reference per (program, check-set content); two threads share the
    // work, which costs what the daemon's cold scans cost.
    let keys: Vec<(u32, u64)> = {
        let mut k: Vec<(u32, u64)> = log
            .texts
            .keys()
            .filter_map(|&(p, v, _)| content.get(&v).map(|(key, _)| (p, *key)))
            .collect();
        k.sort_unstable();
        k.dedup();
        k
    };
    let by_key: HashMap<u64, &Arc<[Check]>> = content.values().copied().collect();
    let refs: HashMap<(u32, u64), Option<Verdict>> = std::thread::scope(|s| {
        let half = keys.len() / 2;
        let (a, b) = keys.split_at(half);
        let work = |part: &[(u32, u64)]| -> Vec<((u32, u64), Option<Verdict>)> {
            part.iter()
                .map(|&(p, key)| {
                    let verdict = by_key
                        .get(&key)
                        .and_then(|checks| reference_verdict(&plan.source(p), checks, kb));
                    ((p, key), verdict)
                })
                .collect()
        };
        let ha = s.spawn(move || work(a));
        let mut out = work(b);
        out.extend(ha.join().expect("reference worker panicked"));
        out.into_iter().collect()
    });
    let mut good: HashMap<(u32, u64, u64), bool> = HashMap::new();
    for (i, (key, text)) in log.texts.iter().enumerate() {
        let expected = content
            .get(&key.1)
            .and_then(|(ck, _)| refs.get(&(key.0, *ck)))
            .and_then(|r| r.clone())
            .map(|mut r| {
                if corrupt && i == 0 {
                    r.push((u64::MAX, "corrupted".into(), Vec::new()));
                }
                r
            });
        let ok = expected.is_some() && expected == parse_verdict(text);
        good.insert(*key, ok);
    }
    log.errors
        + log
            .records
            .iter()
            .filter(|r| {
                let key = (plan.step(r.step as usize).program(), r.version, r.hash);
                !good.get(&key).copied().unwrap_or(false)
            })
            .count() as u64
}

/// Counts write operations that failed: error answers, deltas that broke the
/// corpus size, and accepted repairs whose repaired source does not compile
/// or does not deploy cleanly on a bare `CloudSim`.
pub fn verify_writes(log: &WriteLog, corrupt: bool) -> u64 {
    let bad_ops = log
        .deltas
        .iter()
        .chain(&log.repairs)
        .filter(|r| !r.ok)
        .count() as u64;
    let sim = zodiac_cloud::CloudSim::new_azure();
    let bad_repairs = log
        .repaired
        .values()
        .enumerate()
        .filter(|(i, src)| {
            let deploys = zodiac_hcl::compile(src)
                .map(|p| sim.deploy(&p).outcome.is_success())
                .unwrap_or(false);
            !deploys || (corrupt && *i == 0)
        })
        .count() as u64;
    bad_ops + bad_repairs
}
