//! One untraced benchmark run: set up, run the workload's phase and short
//! side phases of the others, check every output, report the end-to-end
//! metrics.

use crate::mine::{pipeline_config, run_once, MineRun};
use crate::reference;
use crate::requests::ScanPlan;
use crate::serve::{read_phase, verify_scans, verify_writes, write_phase, ScanLog, WriteLog};
use crate::stats::{median, quantile};
use crate::world::{ReadWorld, Seeds, WriteWorld, READ_PLAN, REPAIR_CHOICE, WRITE_PLAN};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use zodiac_kb::KnowledgeBase;
use zodiac_spec::Check;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The offline product: evaluation pipeline iterations.
    Mine,
    /// CI bots scanning programs against the read daemon.
    ServeRead,
    /// Scans beside corpus deltas and repairs on the write daemon.
    ServeWrite,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "mine" => Some(Workload::Mine),
            "serve-read" => Some(Workload::ServeRead),
            "serve-write" => Some(Workload::ServeWrite),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mine => "mine",
            Workload::ServeRead => "serve-read",
            Workload::ServeWrite => "serve-write",
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Pipeline iterations at least, when `mine` is the workload.
pub const MINE_MIN: usize = 3;
/// Pipeline iterations of the side phase on the other workloads.
pub const MINE_SIDE: usize = 2;
/// Seconds of the read and write side phases on the other workloads.
pub const SIDE_SECS: f64 = 4.0;
/// Scan requests per second a pre-rendered read-phase plan provides for;
/// two closed-loop connections reached 7.7k to 11.3k/s on two cores. A plan
/// that runs out ends the phase early, with a warning.
pub const READ_PLAN_RATE: f64 = 12_000.0;
/// The same for the scans beside writes, one connection (1.5k/s).
pub const WRITE_PLAN_RATE: f64 = 4_000.0;

/// A named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or differed from their reference.
    pub failed: u64,
    /// Problems that make the run incorrect besides failed operations
    /// (deterministic quantities that drifted, a rebuilt pipeline that
    /// differs, a trace that does not replay).
    pub problems: Vec<String>,
    /// Reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The `--seed` argument.
    pub seed: u64,
    /// The `--corpus` argument.
    pub corpus: u64,
    /// The `--seconds` argument.
    pub seconds: f64,
    /// Corrupt the references (self-test of the checks).
    pub corrupt: bool,
    /// Scratch directory for daemon stores, memos and sockets.
    pub scratch: PathBuf,
    /// Directory the traced run writes its JSONL trace to.
    pub out: PathBuf,
}

/// Runs `build` [`SETUP_REPS`] times, each after the previous product is
/// dropped, and returns the last product and the median time.
pub fn timed_setup<T>(
    mut build: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build(rep)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let last = last.ok_or("no set-up ran")?;
    Ok((last, median(&times)))
}

/// A scan plan for a phase of `secs` at `rate` requests per second.
fn plan_for(seed: u64, secs: f64, rate: f64, out: &mut Outcome) -> ScanPlan {
    let t0 = Instant::now();
    let before = peak_rss_mb();
    let plan = ScanPlan::new(seed, ((secs + 1.0) * rate) as usize);
    out.notes.push(format!(
        "scan plan: {} requests rendered in {:.2} s; peak RSS {:.1} MB before, {:.1} MB after",
        plan.len(),
        t0.elapsed().as_secs_f64(),
        before,
        peak_rss_mb()
    ));
    plan
}

/// Checks the pipeline iterations of a run: each must produce the recorded
/// deterministic quantities when the corpus seed has a record, and the
/// first iteration's otherwise. `corrupt` flips the expected check-set hash
/// (the self-test of the check).
pub fn check_mine(runs: &[MineRun], corpus_seed: u64, corrupt: bool, out: &mut Outcome) {
    let Some(first) = runs.first() else {
        out.problems.push("no pipeline iteration ran".into());
        return;
    };
    let recorded = reference::funnel(corpus_seed);
    let mut expected = recorded.unwrap_or(first.funnel);
    if corrupt {
        expected.check_hash ^= 1;
    }
    for (i, r) in runs.iter().enumerate() {
        if r.funnel != expected {
            out.failed += 1;
            let against = if recorded.is_some() {
                "the record"
            } else {
                "iteration 0"
            };
            out.problems.push(format!(
                "DRIFT: pipeline iteration {i} on corpus seed {corpus_seed:#x} gives {:?}, {against} {:?}",
                r.funnel, expected
            ));
        }
    }
    out.attempted += runs.len() as u64;
}

/// Pipeline iterations: at least `min` of them, and for `secs` seconds.
fn mine_phase(
    seeds: Seeds,
    kb: &KnowledgeBase,
    secs: f64,
    min: usize,
    opts: &Options,
    out: &mut Outcome,
) -> Vec<MineRun> {
    let cfg = pipeline_config(seeds.corpus, 2);
    let mut runs: Vec<MineRun> = Vec::new();
    let t0 = Instant::now();
    while runs.len() < min || t0.elapsed().as_secs_f64() < secs {
        let mut run = run_once(&cfg, kb);
        run.result = None; // Only the funnel is checked.
        runs.push(run);
    }
    check_mine(&runs, seeds.corpus, opts.corrupt, out);
    runs
}

/// The read phase on `world` for `secs` seconds, with its reference checks.
fn read_run(
    world: &ReadWorld,
    seeds: Seeds,
    secs: f64,
    opts: &Options,
    out: &mut Outcome,
) -> Result<ScanLog, String> {
    let plan = plan_for(seeds.stream(READ_PLAN), secs, READ_PLAN_RATE, out);
    let log = read_phase(&world.daemon, &world.dir.join("r.sock"), &plan, secs)?;
    note_exhausted(&log, &plan, out);
    let versions: BTreeMap<u64, Arc<[Check]>> = [(
        world.daemon.snapshot().version,
        Arc::from(world.checks.clone()),
    )]
    .into();
    out.attempted += log.records.len() as u64 + log.errors;
    out.failed += verify_scans(&log, &plan, &versions, &world.kb, opts.corrupt);
    Ok(log)
}

/// The write phase on `world` for `secs` seconds, with its reference checks.
fn write_run(
    world: &mut WriteWorld,
    seeds: Seeds,
    secs: f64,
    opts: &Options,
    out: &mut Outcome,
) -> Result<(ScanLog, WriteLog), String> {
    let plan = plan_for(seeds.stream(WRITE_PLAN), secs, WRITE_PLAN_RATE, out);
    let sock = world.dir.join("w.sock");
    let (scans, writes) = write_phase(world, &sock, &plan, secs, seeds.stream(REPAIR_CHOICE))?;
    note_exhausted(&scans, &plan, out);
    let versions: BTreeMap<u64, Arc<[Check]>> = writes
        .versions
        .iter()
        .map(|(v, set)| (*v, Arc::from(set.plain().to_vec())))
        .collect();
    out.attempted += scans.records.len() as u64 + scans.errors;
    out.attempted += (writes.deltas.len() + writes.repairs.len()) as u64;
    out.failed += verify_scans(&scans, &plan, &versions, &world.kb, false);
    out.failed += verify_writes(&writes, opts.corrupt);
    Ok((scans, writes))
}

/// A phase that sent its whole plan ended before its time: say so, since
/// its rate is then bounded by the plan, not by the daemon.
fn note_exhausted(log: &ScanLog, plan: &ScanPlan, out: &mut Outcome) {
    if log.records.len() as u64 + log.errors >= plan.len() as u64 {
        out.notes.push(format!(
            "WARNING: the scan plan ran out after {} requests in {:.2} s; raise the plan rate",
            plan.len(),
            log.secs
        ));
    }
}

/// The untraced run. The workload's own phase comes first: its set-up
/// (timed [`SETUP_REPS`] times), then `--seconds` of its operations; peak
/// RSS covers exactly these. Short side phases of the other two workloads
/// follow, so every end-to-end metric is reported on every workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let seeds = Seeds::new(opts.seed, opts.corpus);
    let mut out = Outcome::default();
    let dir = |name: &str| opts.scratch.join(name);
    let started = Instant::now();
    reset_peak_rss();
    let (runs, reads, (wscans, writes), setup_s, peak) = match opts.workload {
        Workload::Mine => {
            let (kb, setup_s) = timed_setup(|_| Ok(zodiac_kb::azure_kb()))?;
            let runs = mine_phase(seeds, &kb, opts.seconds, MINE_MIN, opts, &mut out);
            let peak = peak_rss_mb();
            let read = ReadWorld::build(seeds, &dir("read"))?;
            let reads = read_run(&read, seeds, SIDE_SECS, opts, &mut out)?;
            drop(read);
            let mut write = WriteWorld::build(seeds, &dir("write"))?;
            let writes = write_run(&mut write, seeds, SIDE_SECS, opts, &mut out)?;
            (runs, reads, writes, setup_s, peak)
        }
        Workload::ServeRead => {
            let (read, setup_s) =
                timed_setup(|rep| ReadWorld::build(seeds, &dir(&format!("read-{rep}"))))?;
            let reads = read_run(&read, seeds, opts.seconds, opts, &mut out)?;
            let peak = peak_rss_mb();
            let runs = mine_phase(seeds, &read.kb, 0.0, MINE_SIDE, opts, &mut out);
            drop(read);
            let mut write = WriteWorld::build(seeds, &dir("write"))?;
            let writes = write_run(&mut write, seeds, SIDE_SECS, opts, &mut out)?;
            (runs, reads, writes, setup_s, peak)
        }
        Workload::ServeWrite => {
            let (mut write, setup_s) =
                timed_setup(|rep| WriteWorld::build(seeds, &dir(&format!("write-{rep}"))))?;
            let writes = write_run(&mut write, seeds, opts.seconds, opts, &mut out)?;
            let peak = peak_rss_mb();
            let runs = mine_phase(seeds, &write.kb, 0.0, MINE_SIDE, opts, &mut out);
            drop(write);
            let read = ReadWorld::build(seeds, &dir("read"))?;
            let reads = read_run(&read, seeds, SIDE_SECS, opts, &mut out)?;
            (runs, reads, writes, setup_s, peak)
        }
    };
    report(
        &mut out,
        opts.workload,
        &runs,
        &reads,
        &wscans,
        &writes,
        setup_s,
        peak,
    );
    out.notes.push(format!(
        "run wall time: {:.2} s",
        started.elapsed().as_secs_f64()
    ));
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn report(
    out: &mut Outcome,
    workload: Workload,
    runs: &[MineRun],
    reads: &ScanLog,
    wscans: &ScanLog,
    writes: &WriteLog,
    setup_s: f64,
    peak_mb: f64,
) {
    let mine: Vec<f64> = runs.iter().map(|r| r.secs).collect();
    out.metric("mine_s", median(&mine), "s");

    // Scans under writes are the serve-write workload's scans.
    let scans = if workload == Workload::ServeWrite {
        wscans
    } else {
        reads
    };
    let (p50, p99, rps) = scans.windowed();
    let p50s: Vec<String> = scans
        .windows()
        .0
        .iter()
        .map(|v| format!("{v:.1}"))
        .collect();
    out.notes
        .push(format!("scan p50 per second, us: {}", p50s.join(" ")));
    out.metric("scan_p50_us", p50, "us");
    out.metric("scan_p99_us", p99, "us");
    out.metric("scan_rps", rps, "1/s");

    let ms = |rs: &[crate::serve::WriteRecord]| -> Vec<f64> {
        rs.iter().map(|r| r.lat_ns as f64 / 1e6).collect()
    };
    let deltas = ms(&writes.deltas);
    let repairs = ms(&writes.repairs);
    // p80: the highest percentile with ten samples beyond it in a phase's
    // 64 cycles or more.
    out.metric("delta_p50_ms", quantile(&deltas, 0.5), "ms");
    out.metric("delta_p80_ms", quantile(&deltas, 0.8), "ms");
    out.metric("repair_p50_ms", quantile(&repairs, 0.5), "ms");
    out.metric("repair_p80_ms", quantile(&repairs, 0.8), "ms");
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", peak_mb, "MB");

    out.notes.push(format!(
        "samples: {} pipeline iterations, {} scans ({} read-phase, {} write-phase), {} deltas, {} repairs ({} accepted)",
        runs.len(),
        scans.records.len(),
        reads.records.len(),
        wscans.records.len(),
        deltas.len(),
        repairs.len(),
        writes.accepted
    ));
    let secs: Vec<String> = mine.iter().map(|s| format!("{s:.3}")).collect();
    out.notes
        .push(format!("pipeline iterations, s: {}", secs.join(" ")));
    if let Some(r) = runs.first() {
        let f = r.funnel;
        out.notes.push(format!(
            "funnel: {} hypothesized -> {} mined -> {} validated -> {} final (check-set hash {:016x}); {} deploy requests, {} cloud deploys, {} cloud-seconds",
            f.hypothesized, f.mined, f.validated, f.final_checks, f.check_hash, f.requests, f.cloud_deploys, f.cloud_secs
        ));
    }
}

/// Resets the peak resident set size of this process to its current size.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, MiB (`VmHWM`), since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iteration(funnel: crate::mine::Funnel) -> MineRun {
        MineRun {
            secs: 1.0,
            funnel,
            result: None,
            front: Default::default(),
            back: Default::default(),
        }
    }

    #[test]
    fn a_corrupted_reference_fails_the_mine_check() {
        let recorded = reference::funnel(0xC0FFEE).expect("recorded");
        let runs = [iteration(recorded), iteration(recorded)];
        let mut out = Outcome::default();
        check_mine(&runs, 0xC0FFEE, false, &mut out);
        assert_eq!((out.attempted, out.failed), (2, 0));
        assert!(out.correct());

        let mut out = Outcome::default();
        check_mine(&runs, 0xC0FFEE, true, &mut out);
        assert_eq!((out.attempted, out.failed), (2, 2));
        assert!(!out.correct());
    }

    #[test]
    fn drift_from_the_record_or_between_iterations_fails() {
        let recorded = reference::funnel(0xC0FFEF).expect("recorded");
        let mut drifted = recorded;
        drifted.cloud_secs += 1;
        let mut out = Outcome::default();
        check_mine(&[iteration(drifted)], 0xC0FFEF, false, &mut out);
        assert_eq!(out.failed, 1);

        // An unrecorded seed is checked against its first iteration.
        let mut out = Outcome::default();
        check_mine(
            &[iteration(recorded), iteration(drifted)],
            7,
            false,
            &mut out,
        );
        assert_eq!(out.failed, 1);
        let mut out = Outcome::default();
        check_mine(&[iteration(recorded)], 7, true, &mut out);
        assert_eq!(out.failed, 1);
    }
}
