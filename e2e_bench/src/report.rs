//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`, printed last on stdout.

use crate::{Checks, Metric};

/// Renders the result object. Values print with every digit Rust's
/// shortest round-trip formatting gives (plain decimal, valid JSON); a
/// non-finite value, which JSON cannot carry, renders as 0.
pub fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_contract_shape() {
        let checks = Checks { attempted: 3, failed: 0, failures: Vec::new() };
        let json = result_json(
            &checks,
            &[Metric::new("latency_p50_ms", 1.25, "ms"), Metric::new("x", f64::NAN, "s")],
        );
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"x\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_make_it_incorrect() {
        let checks = Checks { attempted: 2, failed: 1, failures: vec!["bad".into()] };
        assert!(result_json(&checks, &[]).starts_with("{\"correct\": false"));
    }
}
