//! # bitrobust-bench
//!
//! The repo's one gated kernel comparison, `benches/gemm.rs` (a
//! `harness = false` `fn main`: packed vs naive GEMM on the paper's layer
//! shapes). It asserts the packed kernels agree with the naive reference
//! before the clock starts, then writes `BENCH_gemm.json` at the
//! workspace root for CI to gate. This library is its timer and JSON
//! writer. Paper-protocol timings and their gates (RandBET training, the
//! profiled-chip sweep, serving at fixed loads) live in the separate
//! `e2e_bench` package.

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark timer: wall-clock time is what it measures"
)]

use std::path::PathBuf;
use std::time::Instant;

/// Best-of-`reps` wall-clock seconds per call of `f`. Each rep times
/// `iters` back-to-back calls, enough to dodge timer granularity on
/// sub-millisecond kernels.
pub fn best_of(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// `s` as a JSON string literal, with quotes, backslashes and control
/// characters escaped.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// An inline JSON object. Each value is already rendered as JSON (a number,
/// `true`, [`json_str`], or a nested [`object`]).
pub fn object(fields: &[(&str, String)]) -> String {
    format!("{{{}}}", join_fields(fields, ", "))
}

/// The `BENCH_*.json` document: one top-level field per line.
fn document(fields: &[(&str, String)]) -> String {
    format!("{{\n  {}\n}}\n", join_fields(fields, ",\n  "))
}

fn join_fields(fields: &[(&str, String)], sep: &str) -> String {
    let rendered: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    rendered.join(sep)
}

/// Writes `BENCH_<name>.json` at the workspace root (values rendered as for
/// [`object`]) and prints its path and contents.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_bench_json(name: &str, fields: &[(&str, String)]) {
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .join(format!("BENCH_{name}.json"));
    let json = document(fields);
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}:\n{json}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_str_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(json_str("plain"), r#""plain""#);
        assert_eq!(json_str(r#"a"b\c"#), r#""a\"b\\c""#);
        assert_eq!(json_str("2\n\t\u{1}"), r#""2\u000a\u0009\u0001""#);
    }

    #[test]
    fn fields_are_comma_separated_without_a_trailing_comma() {
        let fields = [("a", "1".to_string()), ("b", json_str("x"))];
        assert_eq!(object(&fields), r#"{"a": 1, "b": "x"}"#);
        assert_eq!(document(&fields), "{\n  \"a\": 1,\n  \"b\": \"x\"\n}\n");
        assert_eq!(object(&[]), "{}");
    }

    #[test]
    fn best_of_returns_the_fastest_rep() {
        let mut rep = 0;
        let best = best_of(3, 1, || {
            rep += 1;
            std::thread::sleep(std::time::Duration::from_millis(if rep == 2 { 1 } else { 50 }));
        });
        // Below both the mean (~34 ms) and the slow reps (50 ms).
        assert!((0.001..0.02).contains(&best), "best {best}");
    }
}
