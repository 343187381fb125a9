//! Set-up: everything a run builds before it measures.
//!
//! The read world mines the pre-validation check set of the seeded
//! evaluation corpus and opens a read daemon serving it. The write world opens
//! a write daemon (persistent deploy memo, `revalidate: false`) bootstrapped
//! with a 300-project corpus delta, and picks the pool of flagged programs the
//! repair requests send. A run builds only the worlds its phases use.

use crate::requests::{eval_corpus, fresh_source, DeltaStream};
use crate::stats::mix;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use zodiac_daemon::{CheckSet, Daemon, DaemonConfig};
use zodiac_kb::KnowledgeBase;
use zodiac_mining::{mine_with_stats, CorpusStats, MiningConfig};
use zodiac_obs::Obs;
use zodiac_spec::Check;

/// Projects the write daemon is bootstrapped with.
pub const WRITE_BASE: usize = 300;
/// Projects each write-workload delta upserts (and removes).
pub const DELTA_WIDTH: usize = 5;
/// Flagged programs in the repair pool.
pub const REPAIR_POOL: usize = 32;

/// The default corpus seed: the paper's headline corpus, whose funnel
/// `tests/headline_funnel.rs` pins.
pub const DEFAULT_CORPUS: u64 = 0xC0FFEE;

/// The seeds of one run.
///
/// The corpus the product is built from (the pipeline's corpus, the read
/// daemon's checks, the write daemon's corpus deltas) comes from
/// `--corpus`; the traffic (the scanned programs and the order of repairs)
/// comes from `--seed`. The pipeline's cost varies up to
/// twofold between corpora, far more than between traffic seeds.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// The `--seed` argument.
    pub arg: u64,
    /// The evaluation corpus seed, `--corpus`.
    pub corpus: u64,
}

impl Seeds {
    /// The seeds of a run with `--seed arg --corpus corpus`.
    pub fn new(arg: u64, corpus: u64) -> Seeds {
        Seeds { arg, corpus }
    }

    /// The corpus the traced `mine` product runs: `corpus + arg`, so that
    /// traced runs walk unseen corpora (`--seed 0` and `1` are recorded).
    pub fn traced_corpus(&self) -> u64 {
        self.corpus.wrapping_add(self.arg)
    }

    /// An independent stream seed for `purpose`.
    pub fn stream(&self, purpose: u64) -> u64 {
        mix(self.arg, purpose)
    }

    /// The seed of the repair pool. The pool belongs to the corpus, not to
    /// the traffic: repair cost varies a thousandfold between programs (one
    /// flagged program of the stream on `--seed 14` takes 4.2 s, most take
    /// 5 to 40 ms), and one such program in a traffic-drawn pool stalls the
    /// write connection for most of a run.
    pub fn pool(&self) -> u64 {
        mix(self.corpus, REPAIRS)
    }
}

/// Stream purposes.
pub const READ_PLAN: u64 = 1;
/// The scan plan sent to the write daemon.
pub const WRITE_PLAN: u64 = 2;
/// The repair pool.
pub const REPAIRS: u64 = 3;
/// The order of repair requests.
pub const REPAIR_CHOICE: u64 = 103;

/// The read daemon and what it serves.
pub struct ReadWorld {
    /// The Azure knowledge base.
    pub kb: KnowledgeBase,
    /// The pre-validation checks the daemon serves.
    pub checks: Vec<Check>,
    /// The read daemon.
    pub daemon: Arc<Daemon>,
    /// This world's scratch directory.
    pub dir: PathBuf,
}

/// The write daemon and the write requests' inputs.
pub struct WriteWorld {
    /// The Azure knowledge base.
    pub kb: KnowledgeBase,
    /// The write daemon.
    pub daemon: Arc<Daemon>,
    /// The write daemon's check set after bootstrap.
    pub initial: Arc<CheckSet>,
    /// The corpus-delta stream, positioned after the bootstrap.
    pub deltas: DeltaStream,
    /// Flagged programs (HCL) the repair requests send.
    pub repairs: Vec<String>,
    /// This world's scratch directory.
    pub dir: PathBuf,
}

/// Mines the pre-validation check set of the evaluation corpus on `seed`.
pub fn mine_checks(seed: u64, kb: &KnowledgeBase) -> Vec<Check> {
    let programs: Vec<_> = zodiac_corpus::generate(&eval_corpus(seed))
        .into_iter()
        .map(|p| p.program)
        .collect();
    let cfg = MiningConfig::default();
    let stats = CorpusStats::build(&programs, kb, cfg.use_kb);
    mine_with_stats(&stats, kb, &cfg)
        .checks
        .into_iter()
        .map(|c| c.check)
        .collect()
}

/// Opens a read daemon in `dir` serving `checks`.
pub fn read_daemon(dir: &Path, checks: &[Check]) -> Result<Arc<Daemon>, String> {
    let (daemon, _) = Daemon::open(dir, DaemonConfig::default(), Obs::null())?;
    daemon.import_checks(checks)?;
    daemon.set_ready();
    Ok(Arc::new(daemon))
}

/// Opens a write daemon in `dir` and applies the bootstrap delta.
pub fn write_daemon(dir: &Path, bootstrap: &str) -> Result<Arc<Daemon>, String> {
    let cfg = DaemonConfig {
        deploy_cache: Some(dir.join("deploy.memo")),
        ..DaemonConfig::default()
    };
    let (daemon, _) = Daemon::open(dir, cfg, Obs::null())?;
    let resp = daemon.handle_line(bootstrap);
    if !crate::wire::is_ok(&resp) {
        return Err(format!("bootstrap delta failed: {resp}"));
    }
    daemon.set_ready();
    Ok(Arc::new(daemon))
}

/// The first `n` programs of the repair stream that violate `checks`.
pub fn repair_pool(seed: u64, checks: &[Check], kb: &KnowledgeBase, n: usize) -> Vec<String> {
    let mut out = Vec::new();
    for k in 0..(200 * n as u64) {
        let src = fresh_source(seed, k);
        let Ok(program) = zodiac_hcl::compile(&src) else {
            continue;
        };
        if !zodiac::scan_program(&program, checks, kb).is_empty() {
            out.push(src);
            if out.len() == n {
                break;
            }
        }
    }
    out
}

impl ReadWorld {
    /// Builds the read world under `dir` (created empty).
    pub fn build(seeds: Seeds, dir: &Path) -> Result<ReadWorld, String> {
        fresh_dir(dir)?;
        let kb = zodiac_kb::azure_kb();
        let checks = mine_checks(seeds.corpus, &kb);
        let daemon = read_daemon(&dir.join("read"), &checks)?;
        Ok(ReadWorld {
            kb,
            checks,
            daemon,
            dir: dir.to_path_buf(),
        })
    }
}

impl WriteWorld {
    /// Builds the write world under `dir` (created empty).
    pub fn build(seeds: Seeds, dir: &Path) -> Result<WriteWorld, String> {
        fresh_dir(dir)?;
        let kb = zodiac_kb::azure_kb();
        let mut deltas = DeltaStream::new(seeds.corpus, WRITE_BASE, DELTA_WIDTH);
        let daemon = write_daemon(&dir.join("write"), &deltas.bootstrap().line())?;
        let initial = daemon.snapshot();
        let repairs = repair_pool(seeds.pool(), initial.plain(), &kb, REPAIR_POOL);
        if repairs.is_empty() {
            return Err("no flagged program found for the repair pool".into());
        }
        Ok(WriteWorld {
            kb,
            daemon,
            initial,
            deltas,
            repairs,
            dir: dir.to_path_buf(),
        })
    }
}

/// Removes and re-creates `dir`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}
