//! The workspace's lint rules (README "Static analysis"), checked against
//! fixtures. Each test lints a small source file with the toolchain's
//! `clippy-driver` under the root `clippy.toml` and the `[workspace.lints]`
//! tables of the root `Cargo.toml`, and asserts which lints fire on which
//! lines. CI's clippy job shows the workspace is clean; these tests show the
//! configuration still catches what each rule is for, so a dropped ban or
//! lint level fails a test instead of lapsing silently.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A diagnostic's lint or error code and the 1-based line it points at.
type Hit = (String, usize);

fn workspace_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `--warn=..`-style flags that `[workspace.lints.*]` gives every crate.
fn workspace_lint_flags(manifest: &str) -> Vec<String> {
    let mut flags = Vec::new();
    let mut tool = None;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            tool = match line {
                "[workspace.lints.rust]" => Some(""),
                "[workspace.lints.clippy]" => Some("clippy::"),
                _ => None,
            };
        } else if let (Some(tool), Some((lint, level))) = (tool, line.split_once('=')) {
            if !line.starts_with('#') {
                flags.push(format!("--{}={tool}{}", level.trim().trim_matches('"'), lint.trim()));
            }
        }
    }
    flags
}

/// `core/src/qmodel.rs`'s cast-boundary attribute, verbatim.
fn cast_boundary() -> String {
    let src = workspace_file("crates/core/src/qmodel.rs");
    let start = src.find("#![cfg_attr(").expect("qmodel.rs has a cast-boundary attribute");
    let len = src[start..].find(")]").expect("the attribute is closed") + ")]".len();
    format!("{}\n", &src[start..start + len])
}

/// Lints `prelude` + `src` as a library crate (with `cfg(test)` set when
/// `cfg_test` is) and returns its coded diagnostics, sorted, with lines
/// counted from the start of `src`.
fn lint(prelude: &str, src: &str, cfg_test: bool) -> Vec<Hit> {
    static FIXTURES: AtomicUsize = AtomicUsize::new(0);
    let n = FIXTURES.fetch_add(1, Ordering::Relaxed);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("bitrobust-rules-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("fixture.rs");
    std::fs::write(&file, format!("{prelude}{src}")).unwrap();

    let manifest = workspace_file("Cargo.toml");
    let edition = manifest.lines().find_map(|l| l.trim().strip_prefix("edition = "));
    let driver = Path::new(env!("CARGO")).with_file_name("clippy-driver");
    let mut cmd = Command::new(&driver);
    cmd.env("CLIPPY_CONF_DIR", Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .args(["--crate-type=lib", "--emit=metadata", "--error-format=json"])
        .arg(format!("--edition={}", edition.expect("workspace edition").trim_matches('"')))
        .args(workspace_lint_flags(&manifest))
        // Fixtures are fragments: an unused private item is not what they test.
        .arg("--allow=dead_code")
        .arg("--out-dir")
        .arg(&dir)
        .arg(&file);
    if cfg_test {
        cmd.args(["--cfg", "test"]);
    }
    let out = cmd.output().unwrap_or_else(|e| {
        panic!("cannot run {} (rust-toolchain.toml installs clippy): {e}", driver.display())
    });
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fixture failed to compile:\n{stderr}");

    let offset = prelude.lines().count();
    let mut hits: Vec<Hit> = stderr
        .lines()
        .filter_map(|diag| {
            // The top-level `code` precedes `spans`; the first `line_start`
            // is the primary span's. A hit in the prelude reads as line 0.
            let code = diag.split_once(r#""code":{"code":""#)?.1.split('"').next()?;
            let line: usize =
                diag.split_once(r#""line_start":"#)?.1.split(',').next()?.parse().ok()?;
            Some((code.to_owned(), line.saturating_sub(offset)))
        })
        .collect();
    hits.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
    hits
}

mod tests {
    use super::*;

    #[track_caller]
    fn assert_hits(hits: Vec<Hit>, expected: &[(&str, usize)]) {
        let hits: Vec<(&str, usize)> = hits.iter().map(|(c, l)| (c.as_str(), *l)).collect();
        assert_eq!(hits, expected);
    }

    fn hits(src: &str) -> Vec<Hit> {
        lint("", src, false)
    }

    // --- unsafe blocks and `unsafe impl`: clippy::undocumented_unsafe_blocks

    #[test]
    fn unsafe_block_without_comment_is_flagged() {
        let src = "pub fn f(p: &[f32]) -> f32 {\n    unsafe { *p.get_unchecked(0) }\n}\n";
        assert_hits(hits(src), &[("clippy::undocumented_unsafe_blocks", 2)]);
    }

    #[test]
    fn unsafe_block_with_contiguous_safety_comment_passes() {
        let src = "\
pub fn f(p: &[f32]) -> f32 {
    assert!(!p.is_empty());
    // SAFETY: checked above.
    unsafe { *p.get_unchecked(0) }
}
";
        assert_hits(hits(src), &[]);
    }

    #[test]
    fn safety_comment_separated_by_statement_does_not_count() {
        let src = "\
pub fn f(p: &[f32]) -> f32 {
    // SAFETY: stale.
    let n = p.len();
    let x = unsafe { *p.get_unchecked(n - 1) };
    x + 1.0
}
";
        assert_hits(hits(src), &[("clippy::undocumented_unsafe_blocks", 4)]);
    }

    #[test]
    fn each_unsafe_impl_needs_its_own_comment() {
        let src = "\
pub struct P(*mut f32);
// SAFETY: disjoint carving only.
unsafe impl Send for P {}
unsafe impl Sync for P {}
";
        assert_hits(hits(src), &[("clippy::undocumented_unsafe_blocks", 4)]);
    }

    #[test]
    fn multiline_statement_accepts_comment_above_statement_start() {
        let src = "\
pub fn f(x: &[f32]) -> f32 {
    assert!(!x.is_empty());
    // SAFETY: checked above.
    let v =
        unsafe { *x.get_unchecked(0) };
    v + 1.0
}
";
        assert_hits(hits(src), &[]);
    }

    #[test]
    fn unsafe_in_string_is_not_flagged() {
        assert_hits(hits("pub fn f() -> &'static str {\n    \"unsafe { }\"\n}\n"), &[]);
    }

    // --- `unsafe fn` contracts: clippy::missing_safety_doc + check-private-items

    #[test]
    fn unsafe_fn_with_safety_doc_passes_without_line_comment() {
        let src = "/// Frees it.\n///\n/// # Safety\n/// `p` must be live.\nunsafe fn free(_p: *mut u8) {}\n";
        assert_hits(hits(src), &[]);
    }

    #[test]
    fn unsafe_fn_without_any_justification_is_flagged() {
        assert_hits(hits("unsafe fn free(_p: *mut u8) {}\n"), &[("clippy::missing_safety_doc", 1)]);
    }

    #[test]
    fn pub_unsafe_fn_without_safety_section_is_flagged() {
        let src = "/// Does a thing.\n// SAFETY: internal use.\npub unsafe fn f() {}\n";
        assert_hits(hits(src), &[("clippy::missing_safety_doc", 3)]);
    }

    #[test]
    fn target_feature_fn_needs_safety_section() {
        let src = "#[target_feature(enable = \"avx\")]\nfn kernel() {}\n";
        assert_hits(hits(src), &[("clippy::missing_safety_doc", 2)]);
    }

    #[test]
    fn target_feature_fn_with_safety_section_passes() {
        let src = "\
/// AVX kernel.
///
/// # Safety
/// Call only after `is_x86_feature_detected!(\"avx\")`.
#[target_feature(enable = \"avx\")]
fn kernel() {}
";
        assert_hits(hits(src), &[]);
    }

    #[test]
    fn private_safe_fn_needs_no_safety_doc() {
        assert_hits(hits("fn plain() {}\npub fn also_plain() {}\n"), &[]);
    }

    // --- debug asserts: clippy::disallowed_macros

    #[test]
    fn debug_assert_inside_unsafe_block_is_flagged() {
        let src = "\
pub fn f(p: &mut [f32]) {
    // SAFETY: bounds checked by the debug_assert (which is the bug).
    unsafe {
        debug_assert!(p.len() > 4);
        *p.get_unchecked_mut(4) = 0.0;
    }
}
";
        assert_hits(hits(src), &[("clippy::disallowed_macros", 4)]);
    }

    // --- determinism: clippy::disallowed_types and clippy::disallowed_methods

    #[test]
    fn hashmap_in_numeric_crate_is_flagged_everywhere_including_imports() {
        let src = "\
use std::collections::HashMap;
pub fn f() -> usize { let m: HashMap<u8, u8> = HashMap::new(); m.len() }
";
        let banned = "clippy::disallowed_types";
        assert_hits(hits(src), &[(banned, 1), (banned, 2), (banned, 2)]);
    }

    #[test]
    fn wall_clock_authorities_may_read_clocks_but_nothing_else() {
        let src = "\
#[expect(clippy::disallowed_methods, reason = \"the wall-clock authority times work\")]
pub mod obs {
    pub fn now() -> std::time::Instant { std::time::Instant::now() }
}
pub mod gemm {
    pub fn now() -> std::time::Instant { std::time::Instant::now() }
}
";
        assert_hits(hits(src), &[("clippy::disallowed_methods", 6)]);
    }

    #[test]
    fn thread_count_reads_are_flagged_outside_the_pool() {
        let src = "\
pub fn shards() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) * 2 }
#[expect(clippy::disallowed_methods, reason = \"the pool is the one authority on thread count\")]
pub fn pool_size() -> usize { std::thread::available_parallelism().map_or(1, |n| n.get()) }
";
        assert_hits(hits(src), &[("clippy::disallowed_methods", 1)]);
    }

    // --- the quantization boundary: qmodel.rs's clippy::cast_* attribute

    #[test]
    fn bare_cast_in_boundary_file_is_flagged() {
        let src = "pub fn requantize(dot: i32, s: f32) -> f32 { s * dot as f32 }\n";
        assert_hits(lint(&cast_boundary(), src, false), &[("clippy::cast_precision_loss", 1)]);
    }

    #[test]
    fn allowlisted_codec_fn_may_cast() {
        let src = "\
pub struct S;
impl S {
    #[expect(clippy::cast_lossless, clippy::cast_possible_wrap, reason = \"u8 -> i8 -> i32 sign extension\")]
    pub fn decode_level(&self, w: u8) -> i32 { w as i8 as i32 }
    pub fn sneaky(&self, w: u8) -> i32 { w as i8 as i32 }
}
";
        assert_hits(
            lint(&cast_boundary(), src, false),
            &[("clippy::cast_lossless", 5), ("clippy::cast_possible_wrap", 5)],
        );
    }

    #[test]
    fn cast_in_boundary_test_code_is_exempt() {
        let src = "pub fn f(i: u32) -> f32 { i as f32 }\n";
        assert_hits(lint(&cast_boundary(), src, true), &[]);
        assert_hits(lint(&cast_boundary(), src, false), &[("clippy::cast_precision_loss", 1)]);
    }

    #[test]
    fn use_as_rename_is_not_a_cast() {
        assert_hits(lint(&cast_boundary(), "pub use std::fmt::Result as FmtResult;\n", false), &[]);
    }

    // --- suppressions: allow_attributes_without_reason, unknown_lints,
    // unfulfilled_lint_expectations

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let src = "#[expect(clippy::no_such_lint, reason = \"whatever\")]\npub fn f() {}\n";
        assert_hits(hits(src), &[("unknown_lints", 1)]);
    }

    #[test]
    fn reasonless_allow_is_flagged() {
        let src = "\
#[expect(clippy::undocumented_unsafe_blocks)]
pub fn f(p: &[f32]) -> f32 {
    unsafe { *p.get_unchecked(0) }
}
";
        assert_hits(hits(src), &[("clippy::allow_attributes_without_reason", 1)]);
    }

    #[test]
    fn unused_allow_is_flagged() {
        let src = "#[expect(clippy::disallowed_methods, reason = \"no clock here at all\")]\npub fn f() {}\n";
        assert_hits(hits(src), &[("unfulfilled_lint_expectations", 1)]);
    }

    #[test]
    fn used_allow_with_reason_is_clean() {
        let src = "\
#[expect(clippy::undocumented_unsafe_blocks, reason = \"a reasoned, used expectation\")]
pub fn f(p: &[f32]) -> f32 {
    unsafe { *p.get_unchecked(0) }
}
";
        assert_hits(hits(src), &[]);
    }
}
