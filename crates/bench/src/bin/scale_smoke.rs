//! One-shot timed mining run at corpus scale — the shard-invariance check
//! `scripts/ci.sh` runs at 10k projects.
//!
//! Usage: `scale_smoke --projects N [--shards K|auto] [--stream]
//! [--seed S]`
//!
//! Generates (or streams) an `N`-project corpus and runs the full mining
//! phase — observation, template instantiation, statistical filtering,
//! oracle interpolation — printing one JSON line:
//!
//! ```text
//! {"bench":"mining/scale","projects":N,"shards":K,"mode":"stream",
//!  "wall_ms":…,"pps":…,"checks":…,"check_set_hash":"…","cores":…}
//! ```
//!
//! The wall clock covers corpus generation + mining in both modes, so
//! batch and streaming numbers are directly comparable (streaming
//! generates inside the mine; batch pays the same generation cost up
//! front). `check_set_hash` is a stable FNV-1a over the rendered check
//! set including float bit patterns — two runs that print different
//! hashes mined different checks, which is how CI diffs a sharded run
//! against a 1-shard run without storing either set. The timing is for
//! reading only; the benchmark (`perfbench/`) times mining as `mine_s`.

use std::time::Instant;
use zodiac_corpus::{CorpusConfig, ProjectStream};
use zodiac_mining::{mine_streaming, MinedCheck, MiningConfig, MiningReport, ShardConfig};
use zodiac_model::Program;

/// FNV-1a over the canonical check-set rendering: stable across runs and
/// processes (no DefaultHasher seed dependence).
fn check_set_hash(checks: &[MinedCheck]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for c in checks {
        eat(c.check.to_string().as_bytes());
        eat(c.family.as_bytes());
        eat(&(c.support as u64).to_le_bytes());
        eat(&c.confidence.to_bits().to_le_bytes());
        eat(&c.lift.map_or(0, f64::to_bits).to_le_bytes());
        eat(b"\n");
    }
    h
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut projects: usize = 600;
    let mut shards: usize = 1;
    let mut stream = false;
    let mut seed: u64 = 0xC0FFEE;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--projects" => {
                projects = it.next().and_then(|v| v.parse().ok()).unwrap_or(600).max(1);
            }
            "--shards" => {
                shards = match it.next().map(String::as_str) {
                    Some("auto") => zodiac_mining::available_shards(),
                    Some(v) => v.parse().unwrap_or(1),
                    None => 1,
                }
                .max(1);
            }
            "--stream" => stream = true,
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(0xC0FFEE);
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }

    let corpus_cfg = CorpusConfig {
        seed,
        projects,
        noise_rate: 0.02,
        rare_option_rate: 0.004,
        ..Default::default()
    };
    let kb = zodiac_kb::azure_kb();
    let mining_cfg = MiningConfig::default();
    let shard_cfg = ShardConfig::with_shards(shards);

    let start = Instant::now();
    let report: MiningReport = if stream {
        let source = ProjectStream::new(&corpus_cfg).map(|p| p.program);
        let (report, observed) = mine_streaming(source, &kb, &mining_cfg, &shard_cfg);
        assert_eq!(observed, projects, "stream lost projects");
        report
    } else {
        let programs: Vec<Program> = zodiac_corpus::generate(&corpus_cfg)
            .into_iter()
            .map(|p| p.program)
            .collect();
        mine_streaming(&programs, &kb, &mining_cfg, &shard_cfg).0
    };
    let wall = start.elapsed();

    let wall_ms = wall.as_millis();
    let pps = projects as f64 / wall.as_secs_f64();
    println!(
        "{{\"bench\":\"mining/scale\",\"projects\":{projects},\"shards\":{shards},\
         \"mode\":\"{}\",\"wall_ms\":{wall_ms},\"pps\":{pps:.1},\"checks\":{},\
         \"check_set_hash\":\"{:016x}\",\"cores\":{}}}",
        if stream { "stream" } else { "batch" },
        report.checks.len(),
        check_set_hash(&report.checks),
        zodiac_mining::available_shards(),
    );
}
