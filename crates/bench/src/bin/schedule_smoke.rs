//! One-shot timed run of the `validation/schedule-60-projects` workload —
//! the CI pipeline-bench smoke gate (`scripts/ci.sh` fails the build when
//! the wall time exceeds the ratcheted ceiling).
//!
//! Usage: `schedule_smoke [--ceiling-ms N] [--runs N] [--projects N]`
//!
//! Prints one JSON line: `{"bench":"validation/schedule-60-projects",
//! "runs":N,"best_ms":…,"mean_ms":…,"validated":…,"ceiling_ms":…}` and
//! exits non-zero when the best run is slower than the ceiling (the best of
//! N absorbs scheduler noise on shared CI runners).

use std::time::Instant;
use zodiac_cloud::CloudSim;
use zodiac_corpus::CorpusConfig;
use zodiac_mining::{mine, MiningConfig};
use zodiac_model::Program;
use zodiac_validation::{Scheduler, SchedulerConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ceiling_ms: Option<u128> = None;
    let mut runs: usize = 1;
    let mut projects: usize = 60;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ceiling-ms" => {
                ceiling_ms = it.next().and_then(|v| v.parse().ok());
            }
            "--runs" => {
                runs = it.next().and_then(|v| v.parse().ok()).unwrap_or(1).max(1);
            }
            "--projects" => {
                projects = it.next().and_then(|v| v.parse().ok()).unwrap_or(60).max(1);
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }

    let corpus: Vec<Program> = zodiac_corpus::generate(&CorpusConfig {
        projects,
        noise_rate: 0.02,
        ..Default::default()
    })
    .into_iter()
    .map(|p| p.program)
    .collect();
    let kb = zodiac_kb::azure_kb();
    let sim = CloudSim::new_azure();
    let mining = mine(&corpus, &kb, &MiningConfig::default());

    let mut times = Vec::with_capacity(runs);
    let mut validated = 0usize;
    for _ in 0..runs {
        let checks = mining.checks.clone();
        let start = Instant::now();
        let scheduler = Scheduler::new(&sim, &kb, &corpus, SchedulerConfig::default());
        let outcome = scheduler.run(checks);
        times.push(start.elapsed().as_millis());
        validated = outcome.validated.len();
    }
    let best = *times.iter().min().unwrap_or(&0);
    let mean = times.iter().sum::<u128>() / times.len().max(1) as u128;
    println!(
        "{{\"bench\":\"validation/schedule-{projects}-projects\",\"runs\":{},\"best_ms\":{},\"mean_ms\":{},\"validated\":{},\"ceiling_ms\":{}}}",
        runs,
        best,
        mean,
        validated,
        ceiling_ms.map_or("null".to_string(), |c| c.to_string())
    );
    if let Some(ceiling) = ceiling_ms {
        if best > ceiling {
            eprintln!("schedule smoke: best run {best}ms exceeds ceiling {ceiling}ms");
            std::process::exit(1);
        }
    }
}
