//! Human and JSON rendering of an analysis run.
//!
//! The JSON writer is hand-rolled like the sweep store's (the vendored
//! `serde` is an offline marker stub): a single stable-shaped document,
//! with full string escaping since finding messages quote arbitrary
//! source text.

use crate::rules::Finding;

/// Everything one run produced, ready to render.
pub struct Report {
    /// Findings without an inline `analyze:allow` (each fails `--deny`).
    pub findings: Vec<Finding>,
    /// Findings masked by inline `analyze:allow`s.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Total count of conditions that fail a `--deny` run.
    pub fn violations(&self) -> usize {
        self.findings.len()
    }

    /// The human-readable listing printed to stdout.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n    {}\n",
                f.path, f.line, f.rule, f.message, f.snippet
            ));
        }
        out.push_str(&format!(
            "bitrobust-analyze: {} file(s), {} violation(s); {} suppressed by analyze:allow\n",
            self.files_scanned,
            self.violations(),
            self.suppressed,
        ));
        out
    }

    /// The machine-readable document uploaded as the CI artifact.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"version\": 2,\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"violations\": {},\n", self.violations()));
        s.push_str(&format!("  \"suppressed\": {},\n", self.suppressed));

        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \
                 \"snippet\": {}}}",
                json_str(f.rule),
                json_str(&f.path),
                f.line,
                json_str(&f.message),
                json_str(&f.snippet),
            ));
        }
        s.push_str(if self.findings.is_empty() { "],\n" } else { "\n  ],\n" });

        // Per-rule counts, so the artifact graphs rule activity at a glance.
        let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        s.push_str("  \"counts\": {");
        for (i, (rule, n)) in counts.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{}: {}", json_str(rule), n));
        }
        s.push_str("}\n}\n");
        s
    }
}

/// JSON string escaping (quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(findings: Vec<Finding>) -> Report {
        Report { findings, suppressed: 0, files_scanned: 3 }
    }

    fn finding(snippet: &str) -> Finding {
        Finding {
            rule: "cast-boundary",
            path: "crates/quant/src/scheme.rs".to_string(),
            line: 9,
            message: "bare `as f32`".to_string(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn json_escapes_quotes_and_backslashes_in_snippets() {
        let r = report_with(vec![finding(r#"let s = "a\"b" as f32; \ tab:	end"#)]);
        let json = r.render_json();
        assert!(json.contains(r#"\"a\\\"b\""#), "{json}");
        assert!(json.contains("\\t"), "{json}");
        // No raw control characters or unescaped quotes survive.
        assert!(!json.contains('\t'));
    }

    #[test]
    fn empty_report_renders_valid_empty_arrays() {
        let r = report_with(Vec::new());
        let json = r.render_json();
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"counts\": {}"));
        assert!(json.contains("\"violations\": 0"));
        assert!(!json.contains("baseline"), "inline allows are the only escape hatch: {json}");
    }

    #[test]
    fn violations_count_every_finding() {
        let r = report_with(vec![finding("x as f32"), finding("y as f32")]);
        assert_eq!(r.violations(), 2);
        let text = r.render_text();
        assert!(text.contains("2 violation(s)"), "{text}");
        assert!(text.contains("x as f32") && text.contains("y as f32"), "{text}");
        assert!(r.render_json().contains("\"violations\": 2"));
    }

    #[test]
    fn counts_aggregate_findings_by_rule() {
        let mut unsafety = finding("unsafe { x }");
        unsafety.rule = "safety-comment";
        let r = report_with(vec![finding("a as f32"), unsafety, finding("b as f32")]);
        let json = r.render_json();
        assert!(
            json.contains("\"counts\": {\"cast-boundary\": 2, \"safety-comment\": 1}"),
            "{json}"
        );
    }
}
