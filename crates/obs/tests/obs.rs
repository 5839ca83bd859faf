//! Integration tests for the obs runtime: cross-thread merge
//! determinism, span recording across a panic unwind, and end-to-end
//! report/trace export.
//!
//! Every test in this binary that needs recording enabled installs the
//! same `Trace`-level config (idempotent under the parallel test
//! harness) and uses test-unique metric names so concurrent tests never
//! observe each other's data.

use std::path::PathBuf;

use bitrobust_obs::{
    counter_add, gauge_set, init, snapshot, span, Gauge, Hist, ObsConfig, ObsLevel, Snapshot,
};
use proptest::prelude::*;

fn enable_trace() {
    init(&ObsConfig { level: ObsLevel::Trace, trace_path: None, report_path: None });
}

#[test]
fn counters_sum_across_threads() {
    enable_trace();
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..100 {
                    counter_add("test.obs.cross_thread", 1);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(snapshot().counter("test.obs.cross_thread"), 400);
}

#[test]
fn snapshot_is_cumulative_across_calls() {
    enable_trace();
    counter_add("test.obs.cumulative", 2);
    let first = snapshot().counter("test.obs.cumulative");
    assert!(first >= 2);
    counter_add("test.obs.cumulative", 3);
    assert_eq!(snapshot().counter("test.obs.cumulative"), first + 3);
}

#[test]
fn spans_record_durations_when_a_panic_unwinds_them() {
    enable_trace();
    // A panic crossing open spans drops their guards during unwinding,
    // and each still records its duration.
    let result = std::panic::catch_unwind(|| {
        let _a = span("test.obs.unwind_a");
        let _b = span("test.obs.unwind_b");
        panic!("boom");
    });
    assert!(result.is_err());
    let snap = snapshot();
    assert!(snap.hist("test.obs.unwind_a").is_some_and(|h| h.count >= 1));
    assert!(snap.hist("test.obs.unwind_b").is_some_and(|h| h.count >= 1));
}

#[test]
fn span_durations_feed_histograms_and_trace() {
    enable_trace();
    {
        let _g = span("test.obs.timed");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let snap = snapshot();
    let h = snap.hist("test.obs.timed").expect("span recorded a histogram");
    assert!(h.count >= 1);
    assert!(h.min >= 2_000_000, "a 2ms span must record >= 2ms in ns, got {}", h.min);
}

#[test]
fn gauge_last_write_wins() {
    enable_trace();
    gauge_set("test.obs.gauge", 10);
    gauge_set("test.obs.gauge", 3);
    assert_eq!(snapshot().gauge("test.obs.gauge"), Some(3));
}

#[test]
fn report_file_round_trips() {
    enable_trace();
    counter_add("test.obs.report", 1);
    let path = PathBuf::from(concat!(env!("CARGO_TARGET_TMPDIR"), "/obs_report_test.json"));
    snapshot().write_report(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("{\n"), "{text}");
    assert!(text.contains("\"test.obs.report\""), "{text}");
    assert!(text.trim_end().ends_with('}'), "{text}");
}

/// Rebuild the per-thread states a run would produce and check that
/// *every* merge order yields the same snapshot — the property that
/// makes `OBS_report.json` independent of thread scheduling.
fn snapshot_from_ops(ops: &[(u8, u64)], base_seq: u64) -> Snapshot {
    const NAMES: [&str; 3] = ["m.alpha", "m.beta", "m.gamma"];
    let mut s = Snapshot::default();
    for (i, &(which, value)) in ops.iter().enumerate() {
        let name = NAMES[(which % 3) as usize];
        match which % 3 {
            0 => *s.counters.entry(name).or_insert(0) += value,
            1 => {
                s.gauges.insert(name, Gauge { seq: base_seq + i as u64, value });
            }
            _ => s.hists.entry(name).or_insert_with(Hist::default).record(value),
        }
    }
    s
}

proptest! {
    /// Merging per-thread snapshots in any order produces identical
    /// aggregates and byte-identical JSON.
    #[test]
    fn merge_order_never_changes_the_snapshot(
        a in prop::collection::vec((any::<u8>(), 0u64..1_000_000), 0..16),
        b in prop::collection::vec((any::<u8>(), 0u64..1_000_000), 0..16),
        c in prop::collection::vec((any::<u8>(), 0u64..1_000_000), 0..16),
    ) {
        // Disjoint seq ranges emulate the global gauge sequence counter.
        let parts =
            [snapshot_from_ops(&a, 0), snapshot_from_ops(&b, 100), snapshot_from_ops(&c, 200)];
        let orders: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let mut reference: Option<Snapshot> = None;
        for order in orders {
            let mut merged = Snapshot::default();
            for i in order {
                merged.merge(&parts[i]);
            }
            match &reference {
                None => reference = Some(merged),
                Some(r) => {
                    prop_assert_eq!(r, &merged);
                    prop_assert_eq!(r.render_json(), merged.render_json());
                }
            }
        }
    }
}
