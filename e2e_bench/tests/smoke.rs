//! Runs the benchmark binary in its tiny `--smoke` mode and checks the
//! result contract: exit code, the final JSON line, and metric names that
//! match `BENCHMARK.json`.

use std::path::Path;
use std::process::{Command, Output};

use bitrobust_e2e_bench::{per_layer_names, serve, Workload, END_TO_END};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .args(args)
        .output()
        .expect("run the benchmark binary")
}

fn smoke(workload: Workload, trace: bool) -> String {
    let out = run(&[
        "--workload",
        workload.name(),
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
        "--smoke",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{} failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// Metric names of a result line, in order.
fn result_metric_names(line: &str) -> Vec<String> {
    line.split(": {\"value\": ")
        .map(|part| part.rsplit('"').nth(1).unwrap_or_default().to_string())
        .take(line.matches(": {\"value\": ").count())
        .collect()
}

/// The `name` fields of one top-level array of `BENCHMARK.json`.
fn benchmark_names(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{section}\": [")).expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

fn assert_correct(line: &str) {
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    assert!(line.contains("\"failed\": 0, "), "{line}");
}

#[test]
fn untraced_workloads_report_every_end_to_end_metric() {
    let expected: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(benchmark_names("end_to_end"), expected);
    for workload in Workload::ALL {
        let line = smoke(workload, false);
        assert_correct(&line);
        assert_eq!(result_metric_names(&line), expected, "{}", workload.name());
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_folded_stacks() {
    let expected: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(benchmark_names("per_layer"), expected);
    let line = smoke(Workload::TrainRandbet, true);
    assert_correct(&line);
    assert_eq!(result_metric_names(&line), expected);
    let folded = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out/train_randbet.folded.txt"),
    )
    .expect("folded stacks written");
    assert!(folded.lines().any(|l| l.contains(";train.shard;")), "{folded}");
    assert!(folded.lines().any(|l| l.contains(";bench.step;bench.forward")), "{folded}");
}

#[test]
fn workloads_match_benchmark_json() {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(benchmark_names("workloads"), names);
}

#[test]
fn manifest_records_the_serve_constants() {
    let manifest =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("manifest.json"))
            .expect("read manifest.json");
    let ladder: Vec<String> = serve::LADDER.iter().map(|(_, rate, _)| format!("{rate}")).collect();
    let shares: Vec<String> =
        serve::LADDER.iter().map(|(_, _, share)| format!("{share}")).collect();
    for needle in [
        format!("\"rate_ladder_rps\": [{}]", ladder.join(", ")),
        format!("\"stage_share_of_seconds\": [{}]", shares.join(", ")),
        format!("\"capacity_window\": {}", serve::CAPACITY_WINDOW),
        format!("\"capacity_share_of_seconds\": {}", serve::CAPACITY_SHARE),
        format!("\"p99_limit_ms\": {}", serve::P99_LIMIT_MS),
        format!("\"gen_late_limit_ms\": {}", serve::GEN_LATE_LIMIT_MS),
        format!("\"backlog_limit\": {}", serve::BACKLOG_LIMIT),
        format!("\"queue_capacity\": {}", serve::CONFIG.queue_capacity),
        format!("\"max_batch\": {}", serve::CONFIG.max_batch),
        format!("\"max_delay_ms\": {}", serve::CONFIG.max_delay.as_millis()),
    ] {
        assert!(manifest.contains(&needle), "manifest.json lacks {needle}");
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "serve_open_loop", "--trace", "2"],
        &["--workload", "train_randbet", "--threads", "1"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
