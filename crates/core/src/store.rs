//! Durable, append-only storage for sweep campaign cells.
//!
//! A [`SweepStore`] is a JSONL file: one self-describing line per
//! completed campaign cell, keyed by a 64-bit content hash of the cell's
//! full identity (model key, quantization scheme, injection-axis key,
//! axis point, evaluation dataset and batch size — see
//! [`crate::sweep::run_sweep`]). The orchestrator appends each cell as
//! soon as it completes and *skips* any cell whose key is already stored,
//! which is what makes long sweeps resumable: a killed process loses at
//! most the cells that had not yet been appended.
//!
//! # Durability and exactness
//!
//! * Every append is a single `write(2)` of one newline-terminated line;
//!   data written before a `SIGKILL` survives in the page cache, so a
//!   killed sweep's store is valid up to (at worst) one truncated trailing
//!   line, which [`SweepStore::open`] detects and discards.
//! * Results are stored twice: as human-readable decimal floats *and* as
//!   exact `f32` bit patterns (`error_bits` / `confidence_bits`). The bit
//!   fields are authoritative on load, so a resumed sweep's assembled
//!   results are **byte-identical** to an uninterrupted run's.
//! * [`SweepStore::fingerprint`] hashes cells in key order, independent of
//!   append order — an interrupted-and-resumed store fingerprints equal to
//!   a single-shot one.
//!
//! The format is hand-rolled (the workspace's vendored `serde` is an
//! offline marker stub with no data model): a flat JSON object per line,
//! string values restricted to a quote-and-backslash-free subset so no
//! escaping is ever needed.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::eval::EvalResult;

/// FNV-1a over a byte string: the store's content hash. 64 bits is plenty
/// for sweep-sized key spaces (collisions are *detected*, not assumed
/// absent: see [`SweepStore::append`]).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Errors from [`SweepStore`] operations.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A non-trailing line failed to parse (trailing partial lines from a
    /// killed writer are silently discarded instead).
    Corrupt {
        /// 1-based line number in the store file.
        line: usize,
        /// What failed to parse.
        reason: String,
    },
    /// Two different cell payloads under one key: either a genuine 64-bit
    /// hash collision or (far more likely) a non-deterministic evaluation
    /// writing to an existing store. Never silently overwritten.
    Collision {
        /// The contested cell key.
        key: u64,
    },
    /// A metadata string contains characters the escape-free line format
    /// cannot carry (`"`, `\`, or control characters).
    Metadata(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "sweep store I/O error: {e}"),
            StoreError::Corrupt { line, reason } => {
                write!(f, "sweep store corrupt at line {line}: {reason}")
            }
            StoreError::Collision { key } => {
                write!(f, "sweep store key collision on {key:016x}: differing cell payloads")
            }
            StoreError::Metadata(s) => {
                write!(f, "sweep store metadata not representable without escaping: {s:?}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One completed cell, ready to append: the content-hash key, the
/// human-readable identity it was derived from, and the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellRecord<'a> {
    /// Content-hash key (see [`crate::sweep::run_sweep`] for the recipe).
    pub key: u64,
    /// Model identity (e.g. a zoo cache key).
    pub model: &'a str,
    /// Quantization scheme key (`QuantScheme::key`).
    pub scheme: &'a str,
    /// Injection axis key (`ChipAxis::key`).
    pub axis: &'a str,
    /// Point index within the axis.
    pub point: usize,
    /// The cell's evaluation result.
    pub result: EvalResult,
}

/// A stored cell: its canonical serialized line plus the exact result
/// bits.
#[derive(Debug, Clone, PartialEq)]
struct StoredCell {
    line: String,
    error_bits: u32,
    confidence_bits: u32,
}

/// An append-only, key-addressed on-disk store of sweep cells. See the
/// [module docs](self) for the format and durability contract.
#[derive(Debug)]
pub struct SweepStore {
    path: PathBuf,
    file: fs::File,
    cells: BTreeMap<u64, StoredCell>,
}

impl SweepStore {
    /// Opens (creating if absent) the store at `path`, loading every
    /// stored cell. Parent directories are created. A truncated trailing
    /// line — the signature of a killed writer — is discarded and the file
    /// is trimmed back to its last complete line.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] if a non-trailing line is malformed,
    /// [`StoreError::Collision`] if one key appears with two different
    /// payloads, or [`StoreError::Io`] on filesystem failures.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e.into()),
        };

        let mut cells = BTreeMap::new();
        let mut valid_len = 0usize;
        let mut unterminated_tail = false;
        let mut rest = text.as_str();
        let mut line_no = 0usize;
        while !rest.is_empty() {
            line_no += 1;
            let (line, complete, consumed) = match rest.find('\n') {
                Some(at) => (&rest[..at], true, at + 1),
                None => (rest, false, rest.len()),
            };
            match parse_line(line) {
                Ok((key, cell)) => {
                    if let Some(existing) = cells.get(&key) {
                        if *existing != cell {
                            return Err(StoreError::Collision { key });
                        }
                        // Identical duplicate lines are tolerated (they can
                        // only carry the same result); keep one.
                    } else {
                        cells.insert(key, cell);
                    }
                    // A parseable final line with no newline: the writer
                    // died between the record bytes and the terminator.
                    // Keep the cell, but remember to re-terminate the file
                    // before anything is appended after it.
                    unterminated_tail = !complete;
                }
                Err(reason) if !complete => {
                    // A partial trailing line from a killed writer: drop it
                    // and trim the file so later appends start cleanly.
                    let _ = reason;
                    break;
                }
                Err(reason) => return Err(StoreError::Corrupt { line: line_no, reason }),
            }
            valid_len += consumed;
            rest = &text[valid_len..];
        }

        if valid_len < text.len() {
            let file = fs::OpenOptions::new().write(true).open(&path)?;
            file.set_len(valid_len as u64)?;
        }
        let mut file = fs::OpenOptions::new().create(true).append(true).open(&path)?;
        if unterminated_tail {
            // Re-terminate the surviving record so the next append starts
            // on its own line instead of gluing two records together.
            file.write_all(b"\n")?;
        }
        Ok(Self { path, file, cells })
    }

    /// The store's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of stored cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The stored result under `key`, exact to the bit, if present.
    pub fn get(&self, key: u64) -> Option<EvalResult> {
        self.cells.get(&key).map(|c| EvalResult {
            error: f32::from_bits(c.error_bits),
            confidence: f32::from_bits(c.confidence_bits),
        })
    }

    /// Appends one completed cell and flushes it to the file in a single
    /// write. Appending a key that is already stored with the **same**
    /// payload is an idempotent no-op; a differing payload is rejected
    /// ([`StoreError::Collision`]) — the store never rewrites history.
    ///
    /// # Errors
    ///
    /// [`StoreError::Metadata`] if an identity string cannot be stored
    /// without escaping, [`StoreError::Collision`] as above, or
    /// [`StoreError::Io`].
    pub fn append(&mut self, record: &CellRecord<'_>) -> Result<(), StoreError> {
        for s in [record.model, record.scheme, record.axis] {
            if s.chars().any(|c| c == '"' || c == '\\' || c.is_control()) {
                return Err(StoreError::Metadata(s.to_string()));
            }
        }
        let cell = StoredCell {
            line: serialize_line(record),
            error_bits: record.result.error.to_bits(),
            confidence_bits: record.result.confidence.to_bits(),
        };
        if let Some(existing) = self.cells.get(&record.key) {
            if *existing == cell {
                return Ok(());
            }
            return Err(StoreError::Collision { key: record.key });
        }
        {
            // Time only the durable write, not key validation above.
            bitrobust_obs::span!("store.append");
            self.file.write_all(format!("{}\n", cell.line).as_bytes())?;
        }
        bitrobust_obs::counter_add("store.appends", 1);
        bitrobust_obs::counter_add("store.bytes_appended", cell.line.len() as u64 + 1);
        self.cells.insert(record.key, cell);
        Ok(())
    }

    /// A 64-bit fingerprint over all stored cells in **key order** —
    /// independent of append order, so an interrupted-and-resumed store
    /// fingerprints identically to a single-shot one iff they hold the
    /// same cells with the same results.
    pub fn fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        for cell in self.cells.values() {
            bytes.extend_from_slice(cell.line.as_bytes());
            bytes.push(b'\n');
        }
        fnv1a64(&bytes)
    }
}

/// Serializes one cell line. The format is intentionally flat and
/// escape-free; [`parse_line`] is its exact inverse.
fn serialize_line(r: &CellRecord<'_>) -> String {
    format!(
        "{{\"key\":\"{:016x}\",\"model\":\"{}\",\"scheme\":\"{}\",\"axis\":\"{}\",\
         \"point\":{},\"error\":{:e},\"confidence\":{:e},\"error_bits\":\"{:08x}\",\
         \"confidence_bits\":\"{:08x}\"}}",
        r.key,
        r.model,
        r.scheme,
        r.axis,
        r.point,
        r.result.error,
        r.result.confidence,
        r.result.error.to_bits(),
        r.result.confidence.to_bits(),
    )
}

/// Extracts the raw value of `"name":` from a flat, escape-free JSON
/// object line: the text between the following `:` and the next `,` or
/// closing `}`, with surrounding quotes stripped for string values.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let value = if let Some(inner) = rest.strip_prefix('"') {
        &inner[..inner.find('"')?]
    } else {
        let end = rest.find([',', '}'])?;
        &rest[..end]
    };
    Some(value)
}

/// Parses one stored line back into `(key, cell)`. Returns a reason string
/// on malformed input (the caller decides whether the position makes it
/// corruption or a truncated tail).
fn parse_line(line: &str) -> Result<(u64, StoredCell), String> {
    if !(line.starts_with('{') && line.ends_with('}')) {
        return Err("not a JSON object line".into());
    }
    let key = u64::from_str_radix(field(line, "key").ok_or("missing key")?, 16)
        .map_err(|e| format!("bad key: {e}"))?;
    let error_bits =
        u32::from_str_radix(field(line, "error_bits").ok_or("missing error_bits")?, 16)
            .map_err(|e| format!("bad error_bits: {e}"))?;
    let confidence_bits =
        u32::from_str_radix(field(line, "confidence_bits").ok_or("missing confidence_bits")?, 16)
            .map_err(|e| format!("bad confidence_bits: {e}"))?;
    for required in ["model", "scheme", "axis", "point"] {
        field(line, required).ok_or_else(|| format!("missing {required}"))?;
    }
    Ok((key, StoredCell { line: line.to_string(), error_bits, confidence_bits }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bitrobust-store-{}-{name}.jsonl", std::process::id()))
    }

    fn record(key: u64, error: f32, confidence: f32) -> CellRecord<'static> {
        CellRecord {
            key,
            model: "mlp-s0",
            scheme: "q8laun",
            axis: "uniform-s1000-c2-r[1e-2]",
            point: (key % 7) as usize,
            result: EvalResult { error, confidence },
        }
    }

    #[test]
    fn round_trips_exact_bits_through_reopen() {
        let path = temp_path("roundtrip");
        let _ = fs::remove_file(&path);
        // Values chosen to stress the decimal text path: subnormal,
        // last-ulp-odd, and an exactly representable fraction.
        let cases =
            [(1u64, f32::from_bits(0x0000_0001), 0.25f32), (2, 0.1, 0.999_999_94), (3, 0.0, 1.0)];
        {
            let mut store = SweepStore::open(&path).unwrap();
            for (key, e, c) in cases {
                store.append(&record(key, e, c)).unwrap();
            }
        }
        let store = SweepStore::open(&path).unwrap();
        assert_eq!(store.len(), cases.len());
        for (key, e, c) in cases {
            let got = store.get(key).unwrap();
            assert_eq!(got.error.to_bits(), e.to_bits());
            assert_eq!(got.confidence.to_bits(), c.to_bits());
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_collisions_and_tolerates_idempotent_appends() {
        let path = temp_path("collision");
        let _ = fs::remove_file(&path);
        let mut store = SweepStore::open(&path).unwrap();
        store.append(&record(7, 0.5, 0.9)).unwrap();
        // Same key, same payload: idempotent.
        store.append(&record(7, 0.5, 0.9)).unwrap();
        assert_eq!(store.len(), 1);
        // Same key, different payload: rejected, store unchanged.
        let err = store.append(&record(7, 0.25, 0.9)).unwrap_err();
        assert!(matches!(err, StoreError::Collision { key: 7 }), "{err}");
        assert_eq!(store.get(7).unwrap().error, 0.5);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn discards_truncated_trailing_line_and_keeps_appending() {
        let path = temp_path("truncated");
        let _ = fs::remove_file(&path);
        {
            let mut store = SweepStore::open(&path).unwrap();
            store.append(&record(1, 0.5, 0.9)).unwrap();
            store.append(&record(2, 0.25, 0.8)).unwrap();
        }
        // Simulate a writer killed mid-append: a partial line, no newline.
        {
            let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"key\":\"00000000000000").unwrap();
        }
        let mut store = SweepStore::open(&path).unwrap();
        assert_eq!(store.len(), 2, "complete lines must survive");
        store.append(&record(3, 0.125, 0.7)).unwrap();
        drop(store);
        let reread = SweepStore::open(&path).unwrap();
        assert_eq!(reread.len(), 3, "append after trim must produce a clean line");
        assert_eq!(reread.get(3).unwrap().error, 0.125);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn reterminates_complete_line_missing_its_newline() {
        // A writer killed between the record bytes and the '\n' leaves a
        // fully parseable unterminated line; the cell must survive and the
        // next append must not glue onto it.
        let path = temp_path("unterminated");
        let _ = fs::remove_file(&path);
        {
            let mut store = SweepStore::open(&path).unwrap();
            store.append(&record(1, 0.5, 0.9)).unwrap();
            store.append(&record(2, 0.25, 0.8)).unwrap();
        }
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.strip_suffix('\n').unwrap()).unwrap();

        let mut store = SweepStore::open(&path).unwrap();
        assert_eq!(store.len(), 2, "the unterminated record must survive");
        store.append(&record(3, 0.125, 0.7)).unwrap();
        let fp = store.fingerprint();
        drop(store);
        let reread = SweepStore::open(&path).unwrap();
        assert_eq!(reread.len(), 3, "append after re-termination must stay on its own line");
        assert_eq!(reread.get(2).unwrap().error, 0.25);
        assert_eq!(reread.get(3).unwrap().error, 0.125);
        assert_eq!(reread.fingerprint(), fp);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_corrupt_interior_line() {
        let path = temp_path("corrupt");
        let _ = fs::remove_file(&path);
        {
            let mut store = SweepStore::open(&path).unwrap();
            store.append(&record(1, 0.5, 0.9)).unwrap();
        }
        {
            let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"garbage line\n").unwrap();
        }
        let err = SweepStore::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { line: 2, .. }), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_unescapable_metadata() {
        let path = temp_path("metadata");
        let _ = fs::remove_file(&path);
        let mut store = SweepStore::open(&path).unwrap();
        let bad = CellRecord { model: "quo\"te", ..record(1, 0.5, 0.9) };
        assert!(matches!(store.append(&bad).unwrap_err(), StoreError::Metadata(_)));
        assert!(store.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_is_append_order_independent() {
        let a_path = temp_path("fp-a");
        let b_path = temp_path("fp-b");
        let _ = fs::remove_file(&a_path);
        let _ = fs::remove_file(&b_path);
        let mut a = SweepStore::open(&a_path).unwrap();
        let mut b = SweepStore::open(&b_path).unwrap();
        let records = [record(1, 0.5, 0.9), record(2, 0.25, 0.8), record(3, 0.75, 0.7)];
        for r in &records {
            a.append(r).unwrap();
        }
        for r in records.iter().rev() {
            b.append(r).unwrap();
        }
        assert_eq!(a.fingerprint(), b.fingerprint());
        // And the fingerprint reacts to content.
        let mut c = SweepStore::open(&a_path).unwrap();
        c.append(&record(4, 0.1, 0.6)).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        let _ = fs::remove_file(&a_path);
        let _ = fs::remove_file(&b_path);
    }
}
