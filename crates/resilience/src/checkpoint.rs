//! Crash-safe trial checkpointing and content-keyed journalling.
//!
//! The format is an append-only line log: each completed record is one
//! `"{key}\t{payload}\n"` line, flushed as it is written, alone or with
//! the rest of its batch. Payloads
//! are the record's canonical single-line JSON, stored *verbatim* — on
//! resume the final report is assembled from these exact strings,
//! which is what makes a killed-and-resumed campaign byte-identical to
//! an uninterrupted one.
//!
//! A kill can truncate at most the final line (appends are sequential
//! and flushed per line); the readers therefore tolerate — and
//! silently drop — a last line with no trailing newline or a malformed
//! prefix. Everything before it is intact by construction. Every
//! reader streams the file through [`visit_log`], one line at a time,
//! so reading a log never holds more than one line of it beyond what
//! the caller keeps.
//!
//! One writer, [`JournalWriter`], serves two keyspaces:
//!
//! * the hardened executor's checkpoint keys records by the decimal
//!   *trial index*, read back by [`read_checkpoint_counting`] (the soak
//!   campaign's resume log);
//! * the serve daemon keys records by content-address hex digests, read
//!   back by [`visit_log`] / [`scan_log`], so a restarted daemon
//!   re-answers any previously computed request from the journal
//!   without re-evaluating it.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Appends keyed records to a log file, one line per record, flushed
/// per record or per batch.
/// The key is any non-empty single-line string: the serve daemon writes
/// cache-key hex digests, the hardened executor decimal trial indices.
#[derive(Debug)]
pub struct JournalWriter {
    out: BufWriter<File>,
}

impl JournalWriter {
    /// Opens `path` for appending (created if absent). Existing records
    /// are preserved — pass the same path on `--resume`.
    pub fn append(path: &Path) -> std::io::Result<JournalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JournalWriter {
            out: BufWriter::new(file),
        })
    }

    /// Records `key -> payload` and flushes so a kill cannot lose it.
    ///
    /// # Panics
    ///
    /// Panics if `key` or `payload` contains a newline or tab (records
    /// must stay single-line so a torn append damages at most itself).
    pub fn record(&mut self, key: &str, payload: &str) -> std::io::Result<()> {
        self.record_all([(key, payload)])
    }

    /// Records every `key -> payload` of a batch, in order, and flushes
    /// once: the same bytes as one [`JournalWriter::record`] per record,
    /// in one write where they fit the buffer. A kill still tears at
    /// most the file's last line.
    ///
    /// # Panics
    ///
    /// Panics as [`JournalWriter::record`] does, at the first bad
    /// record; the records before it are buffered, not yet flushed.
    pub fn record_all<K, P>(
        &mut self,
        records: impl IntoIterator<Item = (K, P)>,
    ) -> std::io::Result<()>
    where
        K: AsRef<str>,
        P: AsRef<str>,
    {
        for (key, payload) in records {
            let (key, payload) = (key.as_ref(), payload.as_ref());
            assert!(
                !key.contains('\n') && !key.contains('\t') && !key.is_empty(),
                "journal keys must be non-empty, single-line and tab-free"
            );
            assert!(
                !payload.contains('\n') && !payload.contains('\t'),
                "journal payloads must be single-line and tab-free"
            );
            writeln!(self.out, "{key}\t{payload}")?;
        }
        self.out.flush()
    }
}

/// What a log scan dropped: the evidence behind the
/// `journal_torn_lines` telemetry counter. Drops are tolerated, never
/// fatal — but they are *counted*, so bit-rot and torn appends surface
/// in `{"op":"stats"}` and the soak/serve reports instead of vanishing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// A non-empty unterminated tail was dropped (a kill tore the
    /// final append mid-line).
    pub torn_tail: bool,
    /// Complete lines dropped for having no tab separator or an empty
    /// key (cannot be produced by the writers; evidence of corruption).
    pub malformed: usize,
}

impl ScanStats {
    /// Total dropped lines (torn tail plus malformed), the value the
    /// `journal_torn_lines` counter accumulates.
    pub fn dropped(&self) -> u64 {
        self.malformed as u64 + u64::from(self.torn_tail)
    }
}

/// Streams an append-only log, calling `visit(key, payload)` for each
/// complete record in file order, and counts what it drops. The file
/// is read one line at a time, so memory stays at one line however
/// long the log. The unterminated tail (a torn final append) and any
/// malformed complete line are skipped rather than fatal: the only
/// writers are the `record` methods, so they can't occur in practice,
/// and a resume should never be scuttled by one stray line — but each
/// drop lands in [`ScanStats`]. A missing file visits nothing; a read
/// error or invalid UTF-8 is an `Err` (records before it have already
/// been visited).
pub fn visit_log(path: &Path, mut visit: impl FnMut(&str, &str)) -> std::io::Result<ScanStats> {
    let mut reader = match File::open(path) {
        Ok(f) => BufReader::new(f),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ScanStats::default()),
        Err(e) => return Err(e),
    };
    let mut stats = ScanStats::default();
    let mut line = String::new();
    while reader.read_line(&mut line)? > 0 {
        let Some(complete) = line.strip_suffix('\n') else {
            // No newline before end of file: a torn final append.
            stats.torn_tail = true;
            break;
        };
        match complete.split_once('\t') {
            Some((key, payload)) if !key.is_empty() => visit(key, payload),
            _ => stats.malformed += 1,
        }
        line.clear();
    }
    Ok(stats)
}

/// Reads an append-only log back as complete `(key, payload)` records
/// in file order, counting what it drops: [`visit_log`] collected into
/// a `Vec`.
pub fn scan_log(path: &Path) -> std::io::Result<(Vec<(String, String)>, ScanStats)> {
    let mut records = Vec::new();
    let stats = visit_log(path, |key, payload| {
        records.push((key.to_owned(), payload.to_owned()));
    })?;
    Ok((records, stats))
}

/// Reads a checkpoint file back as `index -> payload`, plus the
/// [`ScanStats`] of what was dropped.
///
/// Returns an empty map if the file does not exist. A torn final line
/// (kill mid-append) is dropped, and a record whose key is not a trial
/// index counts as malformed; a later record for the same index wins
/// (harmless — payloads are deterministic, so duplicates are equal).
pub fn read_checkpoint_counting(
    path: &Path,
) -> std::io::Result<(BTreeMap<usize, String>, ScanStats)> {
    let mut map = BTreeMap::new();
    let mut unindexed = 0;
    let mut stats = visit_log(path, |key, payload| match key.parse::<usize>() {
        Ok(i) => {
            map.insert(i, payload.to_owned());
        }
        Err(_) => unindexed += 1,
    })?;
    stats.malformed += unindexed;
    Ok((map, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("timber-ckpt-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_records_in_index_order() {
        let path = tmp("round");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::append(&path).unwrap();
            w.record("2", r#"{"trial":2}"#).unwrap();
            w.record("0", r#"{"trial":0}"#).unwrap();
            w.record("1", r#"{"trial":1}"#).unwrap();
        }
        let map = read_checkpoint_counting(&path).unwrap().0;
        assert_eq!(
            map.into_iter().collect::<Vec<_>>(),
            vec![
                (0, r#"{"trial":0}"#.to_owned()),
                (1, r#"{"trial":1}"#.to_owned()),
                (2, r#"{"trial":2}"#.to_owned()),
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_reads_empty() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        assert!(read_checkpoint_counting(&path).unwrap().0.is_empty());
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let path = tmp("torn");
        std::fs::write(&path, "0\t{\"a\":1}\n1\t{\"b\":2}\n2\t{\"tru").unwrap();
        let map = read_checkpoint_counting(&path).unwrap().0;
        assert_eq!(map.len(), 2);
        assert_eq!(map[&0], "{\"a\":1}");
        assert_eq!(map[&1], "{\"b\":2}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_preserves_existing_records() {
        let path = tmp("append");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::append(&path).unwrap();
            w.record("0", "a").unwrap();
        }
        {
            let mut w = JournalWriter::append(&path).unwrap();
            w.record("1", "b").unwrap();
        }
        let map = read_checkpoint_counting(&path).unwrap().0;
        assert_eq!(map.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "single-line")]
    fn multiline_payloads_are_rejected() {
        let path = tmp("reject");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::append(&path).unwrap();
        let _ = w.record("0", "bad\npayload");
    }

    #[test]
    fn journal_round_trips_in_append_order() {
        let path = tmp("journal");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JournalWriter::append(&path).unwrap();
            w.record("cafe01", r#"{"a":1}"#).unwrap();
            w.record("beef02", r#"{"b":2}"#).unwrap();
            w.record("cafe01", r#"{"a":1}"#).unwrap(); // duplicate key
        }
        let records = scan_log(&path).unwrap().0;
        assert_eq!(
            records,
            vec![
                ("cafe01".to_owned(), r#"{"a":1}"#.to_owned()),
                ("beef02".to_owned(), r#"{"b":2}"#.to_owned()),
                ("cafe01".to_owned(), r#"{"a":1}"#.to_owned()),
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_batch_writes_the_bytes_of_one_record_at_a_time() {
        let records = [
            ("cafe01", r#"{"a":1}"#),
            ("beef02", ""),
            ("7", r#"{"trial":7,"pad":"xxxxxxxxxxxxxxxxxxxxxxxx"}"#),
            ("cafe01", r#"{"a":1}"#),
        ];
        let (one, batch) = (tmp("one-at-a-time"), tmp("batch"));
        for path in [&one, &batch] {
            std::fs::write(path, "old\tline\n").unwrap();
        }
        {
            let mut w = JournalWriter::append(&one).unwrap();
            for (key, payload) in records {
                w.record(key, payload).unwrap();
            }
            let mut w = JournalWriter::append(&batch).unwrap();
            w.record_all(records).unwrap();
            w.record_all(Vec::<(String, String)>::new()).unwrap();
        }
        let bytes = std::fs::read(&batch).unwrap();
        assert_eq!(bytes, std::fs::read(&one).unwrap());
        assert_eq!(scan_log(&batch).unwrap().0.len(), 1 + records.len());
        for path in [one, batch] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn journal_tolerates_torn_final_line() {
        let path = tmp("journal-torn");
        std::fs::write(&path, "aa\t{\"x\":1}\nbb\t{\"y\":2}\ncc\t{\"to").unwrap();
        let records = scan_log(&path).unwrap().0;
        assert_eq!(records.len(), 2);
        assert_eq!(records[1], ("bb".to_owned(), "{\"y\":2}".to_owned()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_missing_file_reads_empty() {
        let path = tmp("journal-missing");
        let _ = std::fs::remove_file(&path);
        assert!(scan_log(&path).unwrap().0.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn journal_rejects_empty_keys() {
        let path = tmp("journal-reject");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::append(&path).unwrap();
        let _ = w.record("", "payload");
    }

    /// Collects what [`visit_log`] visits, for comparison with
    /// [`scan_log`].
    fn visited(path: &Path) -> std::io::Result<(Vec<(String, String)>, ScanStats)> {
        let mut records = Vec::new();
        let stats = visit_log(path, |k, p| records.push((k.to_owned(), p.to_owned())))?;
        Ok((records, stats))
    }

    #[test]
    fn visit_log_and_scan_log_agree_on_every_damage_shape() {
        let cases: [(&str, Option<&str>, usize, usize, bool); 5] = [
            ("missing", None, 0, 0, false),
            ("empty", Some(""), 0, 0, false),
            ("torn", Some("aa\t1\nbb\t2\ncc\t{\"to"), 2, 0, true),
            (
                "malformed",
                Some("aa\t1\nno-tab\n\tempty-key\nbb\t2\n"),
                2,
                2,
                false,
            ),
            ("no-newline", Some("aa\t1\nbb\t2"), 1, 0, true),
        ];
        for (name, text, records, malformed, torn_tail) in cases {
            let path = tmp(&format!("visit-{name}"));
            let _ = std::fs::remove_file(&path);
            if let Some(text) = text {
                std::fs::write(&path, text).unwrap();
            }
            let scanned = scan_log(&path).unwrap();
            assert_eq!(visited(&path).unwrap(), scanned, "{name}");
            assert_eq!(scanned.0.len(), records, "{name}");
            assert_eq!(
                scanned.1,
                ScanStats {
                    torn_tail,
                    malformed
                },
                "{name}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let path = tmp("visit-utf8");
        std::fs::write(&path, b"aa\t1\nbb\t\xff\xfe\n").unwrap();
        assert_eq!(
            visited(&path).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        assert!(scan_log(&path).is_err());
        assert!(read_checkpoint_counting(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
