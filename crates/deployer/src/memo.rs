//! The persistent deploy memo: a cross-process, append-only cache of
//! deploy verdicts.
//!
//! The in-memory memo in [`crate::DeployEngine`] only helps within one
//! process; bench reruns, experiment sweeps, and every `zodiacd` corpus
//! delta re-probe the same test deployments from scratch. This module
//! keeps a deploy-result memo shared across processes and runs
//! (`--deploy-cache PATH`):
//!
//! ```text
//! {"record":"zodiac-deploy-memo","schema":1}          header (first line)
//! {"record":"deploy","fp":"32-hex","report":{...}}    one probed deployment
//! ```
//!
//! Entries are keyed by the canonical program fingerprint
//! ([`crate::fingerprint()`]) — invariant under declaration order — and hold
//! the full [`DeployReport`] JSON, so a hit reproduces the backend verdict
//! exactly.
//!
//! The file is an [`AppendLog`], the same log as the daemon's check store
//! and with the same crash contract: a torn *final* line is dropped and
//! truncated away on open, while a malformed *interior* record — which no
//! crash of this writer can produce — is a hard error. Unlike the store,
//! the memo is a *cache*, not a ledger: losing the tail of the log only
//! costs re-deploys, never correctness. Appends are therefore single
//! `write(2)`s (immediately visible to other processes) without a
//! per-record fsync; [`DeployMemo::sync`] forces durability at engine
//! shutdown.

use crate::append_log::{AppendLog, Durability};
use std::collections::HashMap;
use std::path::Path;
use zodiac_cloud::DeployReport;

const HEADER: &str = "{\"record\":\"zodiac-deploy-memo\",\"schema\":1}";

/// What [`DeployMemo::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoLoadReport {
    /// Record lines replayed (header excluded).
    pub records: usize,
    /// Distinct fingerprints after replay.
    pub entries: usize,
    /// Whether a torn final record was dropped and truncated away.
    pub dropped_partial: bool,
}

/// Point-in-time shape of the memo, as printed by
/// `zodiac deploy-cache stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Record lines in the log (duplicates included).
    pub records: usize,
    /// Distinct fingerprints.
    pub entries: usize,
    /// Log size in bytes.
    pub bytes: u64,
}

/// The append-only deploy-verdict memo.
#[derive(Debug)]
pub struct DeployMemo {
    log: AppendLog,
    entries: HashMap<u128, DeployReport>,
}

impl DeployMemo {
    /// Opens (creating if needed) the memo file and replays it.
    pub fn open(path: &Path) -> Result<(DeployMemo, MemoLoadReport), String> {
        let mut entries = HashMap::new();
        let (log, dropped_partial) = AppendLog::open(path, HEADER, Durability::Cache, |line| {
            Self::replay(line, &mut entries)
        })?;
        let report = MemoLoadReport {
            records: log.records(),
            entries: entries.len(),
            dropped_partial,
        };
        Ok((DeployMemo { log, entries }, report))
    }

    /// Applies one parsed record to the entry map.
    fn replay(text: &str, entries: &mut HashMap<u128, DeployReport>) -> Result<(), String> {
        let v: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let kind = v
            .get("record")
            .and_then(serde::Value::as_str)
            .ok_or("missing record kind")?;
        if kind != "deploy" {
            return Err(format!("unknown record kind {kind:?}"));
        }
        let fp = v
            .get("fp")
            .and_then(serde::Value::as_str)
            .and_then(|s| u128::from_str_radix(s, 16).ok())
            .ok_or("missing fp")?;
        let report = v.get("report").ok_or("missing report")?;
        let report =
            serde::Deserialize::deserialize(report).map_err(|e: serde::Error| e.to_string())?;
        // Duplicate fingerprints (concurrent writers racing the same cold
        // probe) replay last-wins; a deterministic backend makes them
        // byte-identical anyway.
        entries.insert(fp, report);
        Ok(())
    }

    /// Looks up a verdict by canonical fingerprint.
    pub fn get(&self, fp: u128) -> Option<&DeployReport> {
        self.entries.get(&fp)
    }

    /// Records a verdict, appending it to the log. Returns `false` (writing
    /// nothing) when the fingerprint is already present.
    pub fn record(&mut self, fp: u128, report: &DeployReport) -> Result<bool, String> {
        if self.entries.contains_key(&fp) {
            return Ok(false);
        }
        self.log.append(&record_line(fp, report))?;
        self.entries.insert(fp, report.clone());
        Ok(true)
    }

    /// Forces all appended records to stable storage.
    pub fn sync(&self) -> Result<(), String> {
        self.log.sync()
    }

    /// Number of distinct fingerprints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memo holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The memo's shape: records, entries, file size.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            records: self.log.records(),
            entries: self.entries.len(),
            bytes: std::fs::metadata(self.path()).map_or(0, |m| m.len()),
        }
    }

    /// Rewrites the log to one record per distinct fingerprint (in
    /// fingerprint order), via a temp file renamed into place.
    pub fn compact(&mut self) -> Result<(), String> {
        let mut fps: Vec<u128> = self.entries.keys().copied().collect();
        fps.sort_unstable();
        let lines = fps.iter().map(|fp| record_line(*fp, &self.entries[fp]));
        self.log.rewrite(lines)
    }

    /// Path of the memo file.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

fn record_line(fp: u128, report: &DeployReport) -> String {
    let mut m = serde::Map::new();
    m.insert("record".into(), serde::Value::String("deploy".into()));
    m.insert("fp".into(), serde::Value::String(format!("{fp:032x}")));
    m.insert("report".into(), serde::Serialize::serialize(report));
    serde::Value::Object(m).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;
    use zodiac_cloud::{DeployOutcome, Phase};
    use zodiac_model::ResourceId;

    fn temp_memo(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "zodiac-deploy-memo-{tag}-{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn report(i: usize) -> DeployReport {
        if i.is_multiple_of(2) {
            DeployReport {
                outcome: DeployOutcome::Success,
                deployed: vec![ResourceId::new("azurerm_virtual_network", format!("v{i}"))],
                halted: Vec::new(),
                rollback: Vec::new(),
                violations: Vec::new(),
            }
        } else {
            DeployReport {
                outcome: DeployOutcome::Failure {
                    phase: Phase::SendingRequest,
                    rule_id: format!("ground/rule-{i}"),
                    resource: format!("azurerm_subnet.s{i}"),
                    message: "CIDR overlaps".into(),
                },
                deployed: Vec::new(),
                halted: vec![ResourceId::new("azurerm_subnet", format!("s{i}"))],
                rollback: Vec::new(),
                violations: Vec::new(),
            }
        }
    }

    #[test]
    fn round_trips_reports_across_reopen() {
        let path = temp_memo("roundtrip");
        {
            let (mut memo, load) = DeployMemo::open(&path).unwrap();
            assert_eq!(load, MemoLoadReport::default());
            for i in 0..4u128 {
                assert!(memo.record(i, &report(i as usize)).unwrap());
            }
            assert!(!memo.record(2, &report(2)).unwrap(), "dedup by fp");
        }
        let (memo, load) = DeployMemo::open(&path).unwrap();
        assert!(!load.dropped_partial);
        assert_eq!(load.records, 4);
        assert_eq!(load.entries, 4);
        for i in 0..4u128 {
            assert_eq!(memo.get(i), Some(&report(i as usize)));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compaction_drops_duplicate_records() {
        let path = temp_memo("compact");
        let (mut memo, _) = DeployMemo::open(&path).unwrap();
        for i in 0..3u128 {
            memo.record(i, &report(i as usize)).unwrap();
        }
        // A racing second writer can append a duplicate line; simulate one.
        let mut dup = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(dup, "{}", record_line(1, &report(1))).unwrap();
        drop(dup);
        drop(memo);
        let (mut memo, load) = DeployMemo::open(&path).unwrap();
        assert_eq!(load.records, 4);
        assert_eq!(load.entries, 3);
        memo.compact().unwrap();
        assert_eq!(memo.stats().records, 3);
        drop(memo);
        let (memo, load) = DeployMemo::open(&path).unwrap();
        assert_eq!(load.records, 3);
        assert_eq!(memo.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_inside_a_multibyte_character_is_dropped() {
        let path = temp_memo("utf8");
        let mut zurich = report(1);
        if let DeployOutcome::Failure { message, .. } = &mut zurich.outcome {
            *message = "location 'Zürich' is not offered".into();
        }
        {
            let (mut memo, _) = DeployMemo::open(&path).unwrap();
            memo.record(0, &report(0)).unwrap();
            memo.record(1, &zurich).unwrap();
        }
        // Cut the final record after the first byte of 'ü'.
        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.windows(2).rposition(|w| w == "ü".as_bytes()).unwrap() + 1;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let (mut memo, load) = DeployMemo::open(&path).unwrap();
        assert!(load.dropped_partial, "torn tail must be reported");
        assert_eq!(load.entries, 1);
        assert!(memo.record(1, &zurich).unwrap());
        drop(memo);
        let (memo, load) = DeployMemo::open(&path).unwrap();
        assert!(!load.dropped_partial);
        assert_eq!(memo.get(0), Some(&report(0)));
        assert_eq!(memo.get(1), Some(&zurich));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_without_its_newline_opens_as_an_empty_memo() {
        let path = temp_memo("header");
        std::fs::write(&path, HEADER).unwrap();
        let (mut memo, load) = DeployMemo::open(&path).unwrap();
        assert_eq!(load.entries, 0);
        assert!(memo.record(7, &report(7)).unwrap());
        drop(memo);
        let (memo, load) = DeployMemo::open(&path).unwrap();
        assert_eq!(load.records, 1);
        assert_eq!(memo.get(7), Some(&report(7)));
        let _ = std::fs::remove_file(&path);
    }
}
