//! One append-only log of record lines, shared by the deploy memo
//! ([`crate::DeployMemo`]) and `zodiacd`'s check store.
//!
//! A log is a header line followed by one record per line, and a record's
//! trailing newline is its durability marker. The crash contract, kept here
//! once for every log:
//!
//! * a file holding only part of `header\n` is what a crash during creation
//!   leaves, and it opens as an empty log; any other first line is a
//!   foreign file and a hard error;
//! * an unterminated final fragment is a torn append, whatever its bytes
//!   (a cut inside a multi-byte character included), and so is a complete
//!   final line that fails to replay: open drops it and truncates the file
//!   back to the last durable record;
//! * a complete *interior* line that fails to replay, invalid UTF-8
//!   included, is damage no crash of this writer can produce, and a hard
//!   error.
//!
//! An append is a single `write(2)` of the record and its newline, so a
//! crash tears at most the final line; when it reaches stable storage is
//! the caller's [`Durability`] constant. A new log and a
//! [`rewrite`](AppendLog::rewrite) are whole files: one write to a temp
//! file, fsynced, renamed into place, and the directory fsynced, so a crash
//! leaves either the old file or the new one.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// When an appended record reaches stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// A ledger: each append is fsynced before it returns.
    Ledger,
    /// A cache: appends are visible to other processes at once but are
    /// fsynced only by [`AppendLog::sync`]. Losing the tail costs work,
    /// never correctness.
    Cache,
}

/// An open append-only log.
#[derive(Debug)]
pub struct AppendLog {
    path: PathBuf,
    file: File,
    header: &'static str,
    durability: Durability,
    records: usize,
}

impl AppendLog {
    /// Opens (creating if needed) the log at `path` and hands each durable
    /// record line, in order and without its newline, to `replay`. Returns
    /// the log and whether a torn final record was dropped and truncated
    /// away. An `Err` from `replay` on an interior line fails the open.
    pub fn open(
        path: &Path,
        header: &'static str,
        durability: Durability,
        mut replay: impl FnMut(&str) -> Result<(), String>,
    ) -> Result<(AppendLog, bool), String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let header_line = format!("{header}\n");
        let mut records = 0;
        let mut dropped_partial = false;
        // Byte offset just past the last durable record.
        let mut durable_end = header_line.len();
        if bytes.len() < durable_end && header_line.as_bytes().starts_with(&bytes) {
            install(path, header_line.as_bytes())?;
        } else if !bytes.starts_with(header_line.as_bytes()) {
            return Err(format!("{}: bad header, expected {header}", path.display()));
        } else {
            let mut lines = bytes[durable_end..]
                .split_inclusive(|&b| b == b'\n')
                .peekable();
            while let Some(line) = lines.next() {
                let Some(record) = line.strip_suffix(b"\n") else {
                    dropped_partial = true;
                    break;
                };
                let replayed = std::str::from_utf8(record)
                    .map_err(|e| e.to_string())
                    .and_then(&mut replay);
                match replayed {
                    Ok(()) => {
                        records += 1;
                        durable_end += line.len();
                    }
                    Err(_) if lines.peek().is_none() => {
                        dropped_partial = true;
                        break;
                    }
                    Err(e) => return Err(format!("{}: corrupt record: {e}", path.display())),
                }
            }
        }
        let file = open_append(path)?;
        if dropped_partial {
            file.set_len(durable_end as u64)
                .and_then(|()| file.sync_all())
                .map_err(io_err(path))?;
        }
        let log = AppendLog {
            path: path.to_path_buf(),
            file,
            header,
            durability,
            records,
        };
        Ok((log, dropped_partial))
    }

    /// Appends one record line (given without its newline) in a single
    /// write; under [`Durability::Ledger`] it is fsynced before this
    /// returns. A record holding a newline is a caller bug and panics: it
    /// would replay as two lines.
    pub fn append(&mut self, record: &str) -> Result<(), String> {
        assert!(!record.contains('\n'), "a record is one line");
        let mut buf = String::with_capacity(record.len() + 1);
        buf.push_str(record);
        buf.push('\n');
        self.file
            .write_all(buf.as_bytes())
            .map_err(io_err(&self.path))?;
        if self.durability == Durability::Ledger {
            self.sync()?;
        }
        self.records += 1;
        Ok(())
    }

    /// Forces every appended record to stable storage.
    pub fn sync(&self) -> Result<(), String> {
        self.file.sync_all().map_err(io_err(&self.path))
    }

    /// Replaces the log with the header plus `records`, written to a temp
    /// file that is fsynced before it is renamed over the log.
    pub fn rewrite(&mut self, records: impl IntoIterator<Item = String>) -> Result<(), String> {
        let mut buf = format!("{}\n", self.header);
        let mut count = 0;
        for record in records {
            assert!(!record.contains('\n'), "a record is one line");
            buf.push_str(&record);
            buf.push('\n');
            count += 1;
        }
        install(&self.path, buf.as_bytes())?;
        self.file = open_append(&self.path)?;
        self.records = count;
        Ok(())
    }

    /// Record lines in the log, header excluded.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Puts a file holding `bytes` at `path`: one write to `<path>.tmp`,
/// fsynced, renamed over `path`, and the directory fsynced so the new entry
/// survives a crash too.
fn install(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .map_err(io_err(&tmp))?;
    std::fs::rename(&tmp, path).map_err(io_err(path))?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let dir = dir.unwrap_or(Path::new("."));
    File::open(dir)
        .and_then(|dir| dir.sync_all())
        .map_err(io_err(dir))
}

fn open_append(path: &Path) -> Result<File, String> {
    OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEADER: &str = "{\"record\":\"test-log\",\"schema\":1}";

    fn temp_log(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!(
            "zodiac-append-log-{tag}-{}.log",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Opens the log at `path`, collecting the records it replays.
    fn open(path: &Path) -> Result<(AppendLog, Vec<String>, bool), String> {
        let mut replayed = Vec::new();
        let (log, dropped_partial) = AppendLog::open(path, HEADER, Durability::Cache, |line| {
            replayed.push(line.to_string());
            Ok(())
        })?;
        Ok((log, replayed, dropped_partial))
    }

    /// The log file holding the header plus `records`.
    fn log_bytes(records: &[&str]) -> Vec<u8> {
        let mut text = format!("{HEADER}\n");
        for record in records {
            text.push_str(record);
            text.push('\n');
        }
        text.into_bytes()
    }

    #[test]
    fn every_cut_recovers_exactly_the_durable_records() {
        let path = temp_log("sweep");
        let records = ["{\"n\":1}", "{\"at\":\"Zürich\"}", "{\"n\":22}"];
        let full = log_bytes(&records);
        assert!(full.len() < 200, "keep the sweep short");
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            // A record is durable when its newline lies inside the cut.
            let mut durable = Vec::new();
            let mut durable_end = HEADER.len() + 1;
            for record in records {
                if durable_end + record.len() >= cut {
                    break;
                }
                durable.push(record);
                durable_end += record.len() + 1;
            }
            let (mut log, replayed, dropped_partial) =
                open(&path).unwrap_or_else(|e| panic!("cut {cut}: open failed: {e}"));
            assert_eq!(replayed, durable, "cut {cut}: replayed records");
            assert_eq!(dropped_partial, cut > durable_end, "cut {cut}: torn flag");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                log_bytes(&durable),
                "cut {cut}: file after recovery"
            );
            log.append("{\"n\":\"new\"}").unwrap();
            drop(log);
            let (_, replayed, dropped_partial) =
                open(&path).unwrap_or_else(|e| panic!("cut {cut}: reopen failed: {e}"));
            durable.push("{\"n\":\"new\"}");
            assert_eq!(replayed, durable, "cut {cut}: replay after append");
            assert!(!dropped_partial, "cut {cut}: reopen found a torn tail");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interior_damage_is_a_hard_error_and_a_bad_final_line_is_torn() {
        let path = temp_log("damage");
        let mut bytes = log_bytes(&["{\"n\":1}"]);
        bytes.extend_from_slice(b"\xff\xfe\n{\"n\":2}\n");
        std::fs::write(&path, &bytes).unwrap();
        let err = open(&path).unwrap_err();
        assert!(err.contains("corrupt record"), "{err}");

        // A complete final line the caller rejects is dropped like a torn one.
        std::fs::write(&path, log_bytes(&["{\"n\":1}", "{\"n\":2}", "bad"])).unwrap();
        let (log, dropped_partial) = AppendLog::open(&path, HEADER, Durability::Ledger, |line| {
            if line == "bad" {
                Err("unparseable".to_string())
            } else {
                Ok(())
            }
        })
        .unwrap();
        assert!(dropped_partial);
        assert_eq!(log.records(), 2);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            log_bytes(&["{\"n\":1}", "{\"n\":2}"])
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_first_lines_are_rejected() {
        let path = temp_log("foreign");
        for foreign in [
            "{\"record\":\"other\",\"schema\":1}\n".to_string(),
            format!("{HEADER}{{\"n\":1}}\n"),
            format!("{HEADER} \n"),
            "x".to_string(),
        ] {
            std::fs::write(&path, &foreign).unwrap();
            assert!(open(&path).is_err(), "{foreign:?} must not open");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), foreign);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "a record is one line")]
    fn a_record_holding_a_newline_is_refused() {
        let path = temp_log("newline");
        let (mut log, _, _) = open(&path).unwrap();
        let _ = log.append("{\"n\":1}\n{\"n\":2}");
    }

    #[test]
    fn rewrite_replaces_the_log_through_a_renamed_temp_file() {
        let path = temp_log("rewrite");
        let (mut log, _, _) = open(&path).unwrap();
        for n in 0..4 {
            log.append(&format!("{{\"n\":{n}}}")).unwrap();
        }
        assert_eq!(log.records(), 4);
        log.rewrite(["{\"n\":3}".to_string(), "{\"n\":1}".to_string()])
            .unwrap();
        assert_eq!(log.records(), 2);
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "temp file renamed away");
        log.append("{\"n\":4}").unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            log_bytes(&["{\"n\":3}", "{\"n\":1}", "{\"n\":4}"])
        );
        let _ = std::fs::remove_file(&path);
    }
}
