//! The persistent check store: an append-only log of validated checks.
//!
//! `zodiacd` must survive `kill -9` and restart serving the same check
//! set, so every mutation is one JSON line appended and fsynced before the
//! daemon acknowledges it. The log holds three record kinds:
//!
//! ```text
//! {"record":"zodiacd-store","schema":1}              header (first line)
//! {"record":"check","seq":N,"fp":"16-hex", ...}      a check entered service
//! {"record":"retire","seq":N,"fp":"16-hex"}          a check left service
//! ```
//!
//! Checks are keyed by [`zodiac_spec::Check::fingerprint`] — the 64-bit
//! FNV-1a hash of the canonical form — and stored as canonical-form text
//! snapshots, so a record is self-verifying: on load the text is re-parsed
//! and re-fingerprinted, and a mismatch is corruption, not a quiet skip.
//!
//! The file is a [`zodiac_deployer::AppendLog`], which keeps the crash
//! contract: a torn *final* record (the write that was in flight when the
//! process died) is dropped and the file truncated back to the last durable
//! record, while a malformed record in the *interior* of the log — which no
//! crash of this writer can produce — is a hard error. This module keeps
//! only the record format, the live map and the compaction trigger.

use serde::{Map, Value};
use std::collections::BTreeMap;
use std::path::Path;
use zodiac_deployer::{AppendLog, Durability};
use zodiac_spec::{parse_check, Check};

/// File name of the log inside the store directory.
pub const LOG_NAME: &str = "checks.log";
const HEADER: &str = "{\"record\":\"zodiacd-store\",\"schema\":1}";

/// Where a stored check came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Loaded from a validated-checks file at startup (`--checks`).
    Imported,
    /// Produced by the incremental re-mining engine from a corpus delta.
    Mined,
}

impl Origin {
    /// Stable lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Origin::Imported => "imported",
            Origin::Mined => "mined",
        }
    }

    fn parse(s: &str) -> Option<Origin> {
        match s {
            "imported" => Some(Origin::Imported),
            "mined" => Some(Origin::Mined),
            _ => None,
        }
    }
}

/// One live check in the store: the canonical snapshot plus the mining
/// provenance that `explain` serves.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredCheck {
    /// Log sequence number of the record that admitted this check.
    pub seq: u64,
    /// The check itself.
    pub check: Check,
    /// How the check entered the store.
    pub origin: Origin,
    /// Template family (`imported` for file-loaded checks).
    pub family: String,
    /// Association-rule support at admission time.
    pub support: u64,
    /// Association-rule confidence in parts-per-million.
    pub confidence_ppm: u64,
}

impl StoredCheck {
    /// The check's canonical 64-bit fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.check.fingerprint()
    }

    fn to_line(&self) -> String {
        let mut m = Map::new();
        m.insert("record".into(), Value::String("check".into()));
        m.insert("seq".into(), num(self.seq));
        m.insert(
            "fp".into(),
            Value::String(format!("{:016x}", self.fingerprint())),
        );
        m.insert("check".into(), Value::String(self.check.to_string()));
        m.insert("origin".into(), Value::String(self.origin.as_str().into()));
        m.insert("family".into(), Value::String(self.family.clone()));
        m.insert("support".into(), num(self.support));
        m.insert("confidence_ppm".into(), num(self.confidence_ppm));
        Value::Object(m).to_string()
    }
}

fn num(n: u64) -> Value {
    Value::Number(serde::Number::from_u64(n))
}

/// What [`CheckStore::open`] found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Records replayed (header excluded).
    pub records: usize,
    /// Live checks after replay.
    pub live: usize,
    /// Whether a torn final record was dropped and truncated away.
    pub dropped_partial: bool,
}

/// The append-only check store.
#[derive(Debug)]
pub struct CheckStore {
    log: AppendLog,
    live: BTreeMap<u64, StoredCheck>,
    seq: u64,
}

impl CheckStore {
    /// Opens (creating if needed) the store under `dir` and replays the
    /// log.
    pub fn open(dir: &Path) -> Result<(CheckStore, LoadReport), String> {
        let mut live = BTreeMap::new();
        let mut seq = 0u64;
        let (log, dropped_partial) =
            AppendLog::open(&dir.join(LOG_NAME), HEADER, Durability::Ledger, |line| {
                Self::replay(line, &mut live).map(|s| seq = seq.max(s))
            })?;
        let report = LoadReport {
            records: log.records(),
            live: live.len(),
            dropped_partial,
        };
        Ok((CheckStore { log, live, seq }, report))
    }

    /// Applies one parsed record to the live map, returning its seq.
    fn replay(text: &str, live: &mut BTreeMap<u64, StoredCheck>) -> Result<u64, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let kind = v
            .get("record")
            .and_then(Value::as_str)
            .ok_or("missing record kind")?;
        let seq = v.get("seq").and_then(Value::as_u64).ok_or("missing seq")?;
        let fp = v
            .get("fp")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("missing fp")?;
        match kind {
            "check" => {
                let text = v
                    .get("check")
                    .and_then(Value::as_str)
                    .ok_or("missing check")?;
                let check = parse_check(text).map_err(|e| format!("unparseable check: {e}"))?;
                if check.fingerprint() != fp {
                    return Err(format!(
                        "fingerprint mismatch: stored {fp:016x}, computed {:016x}",
                        check.fingerprint()
                    ));
                }
                let origin = v
                    .get("origin")
                    .and_then(Value::as_str)
                    .and_then(Origin::parse)
                    .ok_or("missing origin")?;
                live.insert(
                    fp,
                    StoredCheck {
                        seq,
                        check,
                        origin,
                        family: v
                            .get("family")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        support: v.get("support").and_then(Value::as_u64).unwrap_or(0),
                        confidence_ppm: v
                            .get("confidence_ppm")
                            .and_then(Value::as_u64)
                            .unwrap_or(0),
                    },
                );
                Ok(seq)
            }
            "retire" => {
                live.remove(&fp);
                Ok(seq)
            }
            other => Err(format!("unknown record kind {other:?}")),
        }
    }

    /// Admits a check, assigning it the next sequence number. The record is
    /// fsynced before this returns. Re-admitting a live fingerprint
    /// replaces its provenance.
    pub fn admit(
        &mut self,
        check: Check,
        origin: Origin,
        family: &str,
        support: u64,
        confidence_ppm: u64,
    ) -> Result<u64, String> {
        self.seq += 1;
        let stored = StoredCheck {
            seq: self.seq,
            check,
            origin,
            family: family.to_string(),
            support,
            confidence_ppm,
        };
        self.log.append(&stored.to_line())?;
        self.live.insert(stored.fingerprint(), stored);
        Ok(self.seq)
    }

    /// Retires a live check by fingerprint. Returns false (writing
    /// nothing) when the fingerprint is not live.
    pub fn retire(&mut self, fp: u64) -> Result<bool, String> {
        if !self.live.contains_key(&fp) {
            return Ok(false);
        }
        self.seq += 1;
        let line = format!(
            "{{\"record\":\"retire\",\"seq\":{},\"fp\":\"{fp:016x}\"}}",
            self.seq
        );
        self.log.append(&line)?;
        self.live.remove(&fp);
        Ok(true)
    }

    /// The live checks, keyed by fingerprint.
    pub fn live(&self) -> &BTreeMap<u64, StoredCheck> {
        &self.live
    }

    /// The live checks in admission (seq) order — the order the daemon
    /// serves them in, which for an imported file is the file's order.
    pub fn live_in_seq_order(&self) -> Vec<&StoredCheck> {
        let mut out: Vec<&StoredCheck> = self.live.values().collect();
        out.sort_by_key(|c| c.seq);
        out
    }

    /// Highest sequence number written — the check-set version the daemon
    /// reports.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Records in the log (live or superseded), header excluded.
    pub fn records(&self) -> usize {
        self.log.records()
    }

    /// Whether enough of the log is dead weight for compaction to pay off.
    pub fn wants_compaction(&self) -> bool {
        self.log.records() > 2 * self.live.len() + 16
    }

    /// Rewrites the log to hold only the live records, byte-for-byte
    /// identical to their original form (same seq numbers), via a temp file
    /// renamed into place.
    pub fn compact(&mut self) -> Result<(), String> {
        let live = self.live_in_seq_order();
        let lines: Vec<String> = live.iter().map(|c| c.to_line()).collect();
        self.log.rewrite(lines)
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_store(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("zodiacd-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn admit(store: &mut CheckStore, src: &str) {
        let check = parse_check(src).unwrap();
        store
            .admit(check, Origin::Imported, "imported", 0, 0)
            .unwrap();
    }

    #[test]
    fn torn_tail_inside_a_multibyte_character_is_dropped() {
        let dir = temp_store("utf8");
        {
            let (mut store, _) = CheckStore::open(&dir).unwrap();
            admit(
                &mut store,
                "let r:VM in r.priority == 'Spot' => r.eviction_policy != null",
            );
            admit(
                &mut store,
                "let r:VM in r.size == 'café' => r.priority != null",
            );
        }
        // Cut the final record after the first byte of 'é'.
        let log = dir.join(LOG_NAME);
        let bytes = std::fs::read(&log).unwrap();
        let cut = bytes.windows(2).rposition(|w| w == "é".as_bytes()).unwrap() + 1;
        std::fs::write(&log, &bytes[..cut]).unwrap();

        let (mut store, report) = CheckStore::open(&dir).unwrap();
        assert!(report.dropped_partial, "torn tail must be reported");
        assert_eq!(report.live, 1);
        admit(
            &mut store,
            "let r:VM in r.size == 'café' => r.priority != null",
        );
        drop(store);
        let (store, report) = CheckStore::open(&dir).unwrap();
        assert!(!report.dropped_partial);
        assert_eq!(store.live().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_without_its_newline_opens_as_an_empty_store() {
        let dir = temp_store("header");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(LOG_NAME), HEADER).unwrap();
        let (mut store, report) = CheckStore::open(&dir).unwrap();
        assert_eq!(report.live, 0);
        admit(
            &mut store,
            "let r:VM in r.priority == 'Spot' => r.eviction_policy != null",
        );
        drop(store);
        let (store, report) = CheckStore::open(&dir).unwrap();
        assert_eq!(report.records, 1);
        assert_eq!(store.live().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
