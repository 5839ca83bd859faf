//! Aggregated metrics and the `OBS_report.json` writer.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

use crate::hist::Hist;

/// A gauge sample: the last value written, stamped with a process-wide
/// sequence number so "last" is well defined across threads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Gauge {
    /// Global write sequence (monotonic across all threads).
    pub seq: u64,
    /// The value at that write.
    pub value: u64,
}

/// A point-in-time aggregate of every counter, gauge, and histogram.
///
/// Merging is commutative and associative: counters and histograms sum,
/// gauges keep the sample with the highest global sequence number. Any
/// merge order over the per-thread states yields byte-identical JSON,
/// which is what lets `OBS_report.json` be compared across runs.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<&'static str, Gauge>,
    /// Log2 histograms by name (spans record their duration here, in ns).
    pub hists: BTreeMap<&'static str, Hist>,
}

impl Snapshot {
    /// Fold another snapshot into this one (order-independent).
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, g) in &other.gauges {
            let e = self.gauges.entry(name).or_insert(*g);
            // Strictly greater seq wins; global sequence numbers are
            // unique, so ties only happen for identical samples.
            if g.seq > e.seq {
                *e = *g;
            }
        }
        for (name, h) in &other.hists {
            self.hists.entry(name).or_default().merge(h);
        }
    }

    /// Counter value by name (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Last gauge value by name, if ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).map(|g| g.value)
    }

    /// Histogram by name, if anything was recorded.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// Render the report document. Hand-rolled JSON (the vendored
    /// `serde` is a marker stub); all maps are `BTreeMap`s so the output
    /// is canonically ordered.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"version\": 1,\n");

        s.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{name}\": {v}"));
        }
        s.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });

        s.push_str("  \"gauges\": {");
        for (i, (name, g)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    \"{name}\": {}", g.value));
        }
        s.push_str(if self.gauges.is_empty() { "},\n" } else { "\n  },\n" });

        s.push_str("  \"hists\": {");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let buckets: Vec<String> =
                h.nonzero_buckets().iter().map(|(b, c)| format!("[{b}, {c}]")).collect();
            s.push_str(&format!(
                "\n    \"{name}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"buckets\": [{}]}}",
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                buckets.join(", "),
            ));
        }
        s.push_str(if self.hists.is_empty() { "}\n" } else { "\n  }\n" });

        s.push_str("}\n");
        s
    }

    /// Write the report to `path` (the CI artifact `OBS_report.json`).
    pub fn write_report(&self, path: &Path) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.render_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("b.count", 2);
        s.counters.insert("a.count", 1);
        s.gauges.insert("q.depth", Gauge { seq: 5, value: 7 });
        let mut h = Hist::default();
        h.record(3);
        h.record(1024);
        s.hists.insert("lat.ns", h);
        s
    }

    #[test]
    fn json_is_sorted_and_compact() {
        let json = sample().render_json();
        let a = json.find("a.count").unwrap();
        let b = json.find("b.count").unwrap();
        assert!(a < b, "counters must render in name order:\n{json}");
        assert!(json.contains("\"q.depth\": 7"), "{json}");
        assert!(
            json.contains("\"buckets\": [[2, 1], [11, 1]]"),
            "only occupied buckets serialize:\n{json}"
        );
    }

    #[test]
    fn empty_snapshot_renders_empty_objects() {
        let json = Snapshot::default().render_json();
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"gauges\": {}"), "{json}");
        assert!(json.contains("\"hists\": {}"), "{json}");
    }

    #[test]
    fn merge_sums_counters_and_keeps_latest_gauge() {
        let mut a = sample();
        let mut b = Snapshot::default();
        b.counters.insert("a.count", 10);
        b.gauges.insert("q.depth", Gauge { seq: 9, value: 1 });
        a.merge(&b);
        assert_eq!(a.counter("a.count"), 11);
        assert_eq!(a.counter("b.count"), 2);
        assert_eq!(a.gauge("q.depth"), Some(1), "higher seq wins");
        let mut c = Snapshot::default();
        c.gauges.insert("q.depth", Gauge { seq: 2, value: 99 });
        a.merge(&c);
        assert_eq!(a.gauge("q.depth"), Some(1), "stale seq loses");
    }
}
