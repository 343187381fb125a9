//! `zodiac-perfbench`: runs one workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mine|serve-read|serve-write --seed N --seconds S --trace 0|1 \
//!     [--corpus N] [--corrupt-reference]
//! ```
//!
//! `--corpus` (default `0xC0FFEE`) chooses the corpus the product is built
//! from, `--seed` the traffic; `--corrupt-reference` corrupts one reference
//! of each kind, so the run must report failures.
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1` it
//! replays the workload's operations with a span around each layer and
//! prints every per-layer metric. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

use std::path::PathBuf;
use std::process::ExitCode;
use zodiac_perfbench::run::{run, Options, Outcome, Workload};
use zodiac_perfbench::traced;
use zodiac_perfbench::world::DEFAULT_CORPUS;

const USAGE: &str = "usage: zodiac-perfbench --workload mine|serve-read|serve-write \
                     [--seed N] [--corpus N] [--seconds S] [--trace 0|1] [--corrupt-reference]";

/// Parses a decimal or `0x`-prefixed hexadecimal number.
fn parse_u64(text: &str) -> Result<u64, std::num::ParseIntError> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
}

fn parse_args() -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut corpus = DEFAULT_CORPUS;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut corrupt = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload: {name}"))?);
            }
            "--seed" => seed = parse_u64(&value("--seed")?).map_err(|e| format!("--seed: {e}"))?,
            "--corpus" => {
                corpus = parse_u64(&value("--corpus")?).map_err(|e| format!("--corpus: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--corrupt-reference" => corrupt = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag: {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(format!("--workload is required\n{USAGE}"))?;
    // Daemon stores, memos and sockets live under the benchmark's own
    // directory of the checkout; sockets need a short relative path.
    let base = if std::path::Path::new("perfbench/Cargo.toml").is_file() {
        PathBuf::from("perfbench")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    let opts = Options {
        workload,
        seed,
        corpus,
        seconds,
        corrupt,
        scratch: base.join("tmp").join(std::process::id().to_string()),
        out: base.join("out"),
    };
    Ok((opts, trace))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print(outcome: &Outcome, opts: &Options, trace: bool) {
    println!(
        "zodiac-perfbench: workload {} seed {} corpus {:#x} seconds {} trace {} cores {}",
        opts.workload.name(),
        opts.seed,
        opts.corpus,
        opts.seconds,
        u8::from(trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for m in &outcome.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<36} {:>16.4} ratio  ({} failed of {} attempted)",
        "fail_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for p in &outcome.problems {
        println!("PROBLEM: {p}");
        eprintln!("PROBLEM: {p}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let (opts, trace) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = if trace {
        traced::run(&opts)
    } else {
        run(&opts)
    };
    let _ = std::fs::remove_dir_all(&opts.scratch);
    if let Some(tmp) = opts.scratch.parent() {
        let _ = std::fs::remove_dir(tmp); // Only if no other run uses it.
    }
    match result {
        Ok(outcome) => {
            print(&outcome, &opts, trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("zodiac-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
