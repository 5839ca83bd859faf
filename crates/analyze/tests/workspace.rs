//! Integration tests: the analyzer against (a) the real workspace, which
//! must be clean, and (b) the seeded fixtures, where every rule must fire.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use bitrobust_analyze::analyze_workspace;
use bitrobust_analyze::context::FileContext;
use bitrobust_analyze::rules::{analyze_file, Finding, RULES};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

/// The acceptance gate: the committed tree carries zero findings without
/// an inline allow, so `--deny` in CI is green by construction.
#[test]
fn real_workspace_is_clean_under_deny() {
    let root = workspace_root();
    let report = analyze_workspace(&root).expect("scan workspace");
    assert!(report.files_scanned > 50, "walker found only {} files", report.files_scanned);
    assert_eq!(
        report.violations(),
        0,
        "the committed workspace must be analyze-clean:\n{}",
        report.render_text()
    );
}

fn scan_fixture(fixture: &str, virtual_path: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    analyze_file(&FileContext::new(virtual_path.to_string(), &src)).0
}

fn rules_hit(findings: &[Finding]) -> BTreeSet<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn unsafety_fixture_trips_the_unsafety_rules() {
    let findings = scan_fixture("unsafety.rs", "crates/nn/src/fixture.rs");
    let hit = rules_hit(&findings);
    for rule in ["safety-comment", "safety-doc", "debug-assert-unsafe"] {
        assert!(hit.contains(rule), "expected {rule} in {findings:?}");
    }
}

#[test]
fn determinism_fixture_trips_all_four_det_rules() {
    let findings = scan_fixture("determinism.rs", "crates/nn/src/fixture.rs");
    let hit = rules_hit(&findings);
    for rule in ["det-collections", "det-wall-clock", "det-rng", "det-thread-count"] {
        assert!(hit.contains(rule), "expected {rule} in {findings:?}");
    }
}

#[test]
fn determinism_fixture_is_exempt_outside_numeric_crates() {
    let findings = scan_fixture("determinism.rs", "crates/serve/src/fixture.rs");
    assert!(
        rules_hit(&findings).iter().all(|r| !r.starts_with("det-")),
        "serve is allowed clocks and thread counts, got {findings:?}"
    );
}

#[test]
fn casts_fixture_trips_cast_boundary_but_spares_usize() {
    let findings = scan_fixture("casts.rs", "crates/quant/src/fixture.rs");
    let casts: Vec<_> = findings.iter().filter(|f| f.rule == "cast-boundary").collect();
    // `as i8`, `q as f32`, `acc as f32`, `idx as f32` — `as usize` is exempt.
    assert_eq!(casts.len(), 4, "{findings:?}");
    // The same file outside the boundary is not policed at all.
    let outside = scan_fixture("casts.rs", "crates/tensor/src/fixture.rs");
    assert!(rules_hit(&outside).is_empty(), "{outside:?}");
}

#[test]
fn api_fixture_trips_deprecated_note_and_suppression_hygiene() {
    let findings = scan_fixture("api.rs", "crates/core/src/fixture.rs");
    let deprecated = findings.iter().filter(|f| f.rule == "deprecated-note").count();
    assert_eq!(deprecated, 2, "bare and since-only #[deprecated]: {findings:?}");
    let hygiene = findings.iter().filter(|f| f.rule == "suppression-hygiene").count();
    assert_eq!(hygiene, 3, "unknown rule, missing reason, unused allow: {findings:?}");
}

#[test]
fn clean_fixture_produces_zero_findings_under_the_strictest_path() {
    let findings = scan_fixture("clean.rs", "crates/core/src/qmodel.rs");
    assert!(findings.is_empty(), "negative control must stay clean: {findings:?}");
}

/// Every advertised rule is exercised by at least one fixture, so a rule
/// regressing to never-fires cannot go unnoticed.
#[test]
fn fixtures_cover_every_rule_in_the_catalogue() {
    let mut covered = BTreeSet::new();
    covered.extend(rules_hit(&scan_fixture("unsafety.rs", "crates/nn/src/fixture.rs")));
    covered.extend(rules_hit(&scan_fixture("determinism.rs", "crates/nn/src/fixture.rs")));
    covered.extend(rules_hit(&scan_fixture("casts.rs", "crates/quant/src/fixture.rs")));
    covered.extend(rules_hit(&scan_fixture("api.rs", "crates/core/src/fixture.rs")));
    for rule in RULES {
        assert!(covered.contains(rule.id), "no fixture exercises `{}`", rule.id);
    }
    assert!(RULES.len() >= 6, "the catalogue must stay substantive");
}
