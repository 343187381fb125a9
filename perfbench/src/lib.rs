//! The zodiac benchmark: one harness for the offline miner and the
//! check-serving daemon, measured end to end and split by layer.
//!
//! See `perfbench/README.md` for the workloads, the metrics and how to run it.

pub mod mine;
pub mod oracle;
pub mod reference;
pub mod requests;
pub mod run;
pub mod serve;
pub mod stats;
pub mod traced;
pub mod tracer;
pub mod wire;
pub mod world;
