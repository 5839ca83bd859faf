//! `bitrobust-analyze`: the workspace's own static-analysis pass.
//!
//! The reproduction's credibility rests on invariants no compiler checks:
//! byte-identical results across thread counts, fixed-shape serial
//! reductions, pointer disjointness in the hand-rolled thread pool, and
//! exactness of the quantization boundary. This crate walks every `.rs`
//! source in the workspace with a small hand-rolled lexer
//! ([`lexer`] — strings/comments/attributes aware, zero dependencies) and
//! enforces a rule engine ([`rules`]) of repo-specific lints. The only
//! escape hatch is an inline
//! [`// analyze:allow(rule, reason)`](context::Suppression) with a
//! mandatory reason, so the pass runs strict (`--deny`) in CI: every
//! other finding fails it.
//!
//! Run it as:
//!
//! ```text
//! cargo run -p bitrobust-analyze -- --deny --json ANALYZE_report.json
//! ```
//!
//! See the README "Static analysis" section for the rule catalogue and
//! the workflow around allows.

#![forbid(unsafe_code)]

pub mod context;
pub mod lexer;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

use context::FileContext;
use report::Report;
use rules::Finding;

/// Directory names never descended into: build output, vendored stubs
/// (third-party conventions, not ours), VCS internals, and the analyzer's
/// own rule fixtures (which *deliberately* violate every rule).
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Top-level entries scanned for `.rs` sources, relative to the workspace
/// root.
const SCAN_ROOTS: &[&str] = &["crates", "tests", "examples"];

/// Recursively collects the workspace's `.rs` files, sorted for
/// deterministic report ordering.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in SCAN_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes every source under `root` and assembles the [`Report`].
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let files = collect_sources(root)?;
    let files_scanned = files.len();
    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressed = 0usize;
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        let ctx = FileContext::new(rel, &src);
        let (file_findings, file_suppressed) = rules::analyze_file(&ctx);
        findings.extend(file_findings);
        suppressed += file_suppressed;
    }
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(Report { findings, suppressed, files_scanned })
}

/// Locates the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
