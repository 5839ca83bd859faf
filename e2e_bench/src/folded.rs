//! Folded stacks (`frame;frame;frame self_us` per line, the input format
//! of `flamegraph.pl` and inferno) from the Chrome trace events obs
//! collects — the program's own spans plus the benchmark's.
//!
//! Spans nest per thread by time: an event whose interval lies inside an
//! open span's interval is its child. A frame's value is its self time,
//! its duration minus what its children cover. Each thread's stacks are
//! rooted at `thread-<tid>` (obs's dense thread id).

use std::collections::BTreeMap;

use bitrobust_obs::TraceEvent;

/// Renders `events` as folded stacks, one line per distinct stack, in
/// lexicographic order, with self time in whole microseconds (stacks whose
/// self time rounds to 0 are dropped).
pub fn fold(events: &[TraceEvent]) -> String {
    let mut by_thread: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        by_thread.entry(e.tid).or_default().push(e);
    }
    let mut self_ns: BTreeMap<String, i128> = BTreeMap::new();
    for (tid, mut evs) in by_thread {
        // Parents first: earlier start, then longer duration.
        evs.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
        let root = format!("thread-{tid}");
        // Open spans: (end time, folded path).
        let mut open: Vec<(u64, String)> = Vec::new();
        for e in evs {
            let end = e.ts_ns + e.dur_ns;
            while open.last().is_some_and(|(open_end, _)| *open_end < end) {
                open.pop();
            }
            let parent = open.last().map_or(root.as_str(), |(_, path)| path.as_str());
            let path = format!("{parent};{}", e.name);
            if !open.is_empty() {
                *self_ns.entry(parent.to_string()).or_default() -= i128::from(e.dur_ns);
            }
            *self_ns.entry(path.clone()).or_default() += i128::from(e.dur_ns);
            open.push((end, path));
        }
    }
    let mut out = String::new();
    for (path, ns) in self_ns {
        let us = ns.max(0) / 1000;
        if us > 0 {
            out.push_str(&format!("{path} {us}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, ts_us: u64, dur_us: u64, tid: u64) -> TraceEvent {
        TraceEvent { name, ts_ns: ts_us * 1000, dur_ns: dur_us * 1000, tid }
    }

    #[test]
    fn nests_by_interval_and_reports_self_time() {
        let events = [
            ev("step", 0, 100, 0),
            ev("forward", 10, 30, 0),
            ev("gemm", 12, 20, 0),
            ev("backward", 50, 40, 0),
            ev("shard", 5, 7, 1),
        ];
        let folded = fold(&events);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            [
                "thread-0;step 30",
                "thread-0;step;backward 40",
                "thread-0;step;forward 10",
                "thread-0;step;forward;gemm 20",
                "thread-1;shard 7",
            ]
        );
    }

    #[test]
    fn siblings_after_a_closed_span_are_not_its_children() {
        let events = [ev("a", 0, 10, 0), ev("b", 10, 5, 0)];
        assert_eq!(fold(&events), "thread-0;a 10\nthread-0;b 5\n");
    }
}
