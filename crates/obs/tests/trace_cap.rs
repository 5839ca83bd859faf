//! The trace buffer's cap: past 2^20 buffered events, a span still feeds
//! its histogram but drops its trace event and counts it in
//! `obs.trace.dropped`.
//!
//! A binary of its own, because the cap is process-wide: spans recorded
//! by any other test would share it.

use bitrobust_obs::{init, snapshot, span, take_trace, ObsConfig, ObsLevel};

const CAP: usize = 1 << 20;

#[test]
fn spans_past_the_cap_drop_their_events_but_keep_their_histogram() {
    init(&ObsConfig { level: ObsLevel::Trace, trace_path: None, report_path: None });
    for _ in 0..CAP + 5 {
        let _s = span("test.obs.trace_cap");
    }
    assert_eq!(take_trace().len(), CAP);
    let snap = snapshot();
    assert_eq!(snap.counter("obs.trace.dropped"), 5);
    let hist = snap.hist("test.obs.trace_cap").expect("the span recorded its histogram");
    assert_eq!(hist.count, CAP as u64 + 5);
}
