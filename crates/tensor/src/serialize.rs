//! A tiny self-describing binary format for named tensor collections.
//!
//! Used to persist trained models in the experiment zoo and for the
//! save/load round-trip tests. The format is little-endian:
//!
//! ```text
//! magic  "BRTS"          4 bytes
//! version u32            currently 1
//! count   u32            number of entries
//! entry*: name_len u32, name bytes (utf-8),
//!         ndim u32, dims u32*, data f32*
//! ```

use std::io::{self, Read, Write};

use crate::Tensor;

const MAGIC: &[u8; 4] = b"BRTS";
const VERSION: u32 = 1;

/// Writes named tensors to `w` in the `BRTS` format.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_tensors<W: Write>(mut w: W, entries: &[(String, Tensor)]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    write_u32(&mut w, entries.len() as u32)?;
    for (name, tensor) in entries {
        let bytes = name.as_bytes();
        write_u32(&mut w, bytes.len() as u32)?;
        w.write_all(bytes)?;
        write_u32(&mut w, tensor.ndim() as u32)?;
        for &d in tensor.shape() {
            write_u32(&mut w, d as u32)?;
        }
        for &v in tensor.data() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads named tensors from `r` in the `BRTS` format.
///
/// Header fields are untrusted: entries and shapes grow as they are read,
/// and names and data are read through [`Read::take`], so a forged count,
/// length or dimension ends in an error, never in a huge allocation.
///
/// # Errors
///
/// Returns an error on I/O failure, bad magic, unsupported version, invalid
/// UTF-8 names, a shape whose element count overflows, or truncated
/// payloads.
pub fn read_tensors<R: Read>(mut r: R) -> io::Result<Vec<(String, Tensor)>> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a BRTS tensor file"));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(invalid(&format!("unsupported BRTS version {version}")));
    }
    let count = read_u32(&mut r)?;
    let mut entries = Vec::new();
    for _ in 0..count {
        let name_len = read_u32(&mut r)?;
        let name = String::from_utf8(read_bytes(&mut r, u64::from(name_len))?)
            .map_err(|_| invalid("tensor name is not utf-8"))?;
        let ndim = read_u32(&mut r)?;
        let mut shape = Vec::new();
        for _ in 0..ndim {
            shape.push(read_u32(&mut r)? as usize);
        }
        let bytes = shape
            .iter()
            .try_fold(4usize, |n, &d| n.checked_mul(d))
            .ok_or_else(|| invalid("tensor shape overflows"))?;
        let data = read_bytes(&mut r, bytes as u64)?
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        entries.push((name, Tensor::from_vec(shape, data)));
    }
    Ok(entries)
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Reads exactly `len` bytes, growing the buffer only as bytes arrive.
fn read_bytes<R: Read>(r: &mut R, len: u64) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    r.take(len).read_to_end(&mut buf)?;
    if buf.len() as u64 != len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated BRTS payload"));
    }
    Ok(buf)
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_names_shapes_values() {
        let entries = vec![
            ("conv1.weight".to_string(), Tensor::from_fn(&[4, 3, 3, 3], |i| i as f32 * 0.5)),
            ("conv1.bias".to_string(), Tensor::from_vec(vec![4], vec![-1.0, 0.0, 1.0, 2.0])),
            ("empty".to_string(), Tensor::zeros(&[0])),
        ];
        let mut buf = Vec::new();
        write_tensors(&mut buf, &entries).unwrap();
        let back = read_tensors(&buf[..]).unwrap();
        assert_eq!(back.len(), 3);
        for ((n0, t0), (n1, t1)) in entries.iter().zip(&back) {
            assert_eq!(n0, n1);
            assert_eq!(t0, t1);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_tensors(&b"NOPE\0\0\0\0"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_payload() {
        let entries = vec![("w".to_string(), Tensor::from_vec(vec![4], vec![1.0; 4]))];
        let mut buf = Vec::new();
        write_tensors(&mut buf, &entries).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_tensors(&buf[..]).is_err());
    }

    #[test]
    fn rejects_future_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_tensors(&buf[..]).is_err());
    }

    /// A version-1 header followed by `fields`, little-endian.
    fn forged(fields: &[u32]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        for v in [VERSION].iter().chain(fields) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    /// Runs forged-header test `name` in a copy of this test binary whose
    /// address space is capped at 1 GiB (on Linux). A buffer sized from a
    /// forged header is then an abort, where uncapped it may be address
    /// space that is never touched.
    fn capped(name: &str, case: impl FnOnce()) {
        const MARK: &str = "BRTS_TEST_CAPPED";
        if !cfg!(target_os = "linux") || std::env::var_os(MARK).is_some() {
            return case();
        }
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new("sh")
            .args(["-c", "ulimit -v 1048576 && exec \"$0\" \"$@\""])
            .arg(exe)
            .args([&format!("serialize::tests::{name}"), "--exact", "--test-threads=1"])
            .env(MARK, "1")
            .output()
            .expect("spawn the capped test");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{name} failed under a 1 GiB address-space cap:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn forged_entry_count_is_an_error() {
        capped("forged_entry_count_is_an_error", || {
            let err = read_tensors(&forged(&[u32::MAX])[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        });
    }

    #[test]
    fn forged_name_length_is_an_error() {
        capped("forged_name_length_is_an_error", || {
            let err = read_tensors(&forged(&[1, u32::MAX])[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        });
    }

    #[test]
    fn forged_data_length_is_an_error() {
        capped("forged_data_length_is_an_error", || {
            let err = read_tensors(&forged(&[1, 0, 2, 1 << 20, 1 << 20])[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        });
    }

    #[test]
    fn overflowing_dims_are_invalid_data() {
        let forged = forged(&[1, 0, 3, u32::MAX, u32::MAX, u32::MAX]);
        let err = read_tensors(&forged[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
