//! What the program recorded between two obs snapshots: counter
//! differences and histogram differences with interpolated quantiles.

use bitrobust_obs::{bucket_bounds, Hist, Snapshot, BUCKETS};

use crate::Metric;

/// The difference of two cumulative snapshots (`after − before`).
pub struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

/// One histogram's samples recorded between two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct HistDelta {
    /// Samples recorded.
    pub count: u64,
    /// Sum of the samples (span durations are in ns).
    pub sum: u64,
    buckets: [u64; BUCKETS],
}

impl<'a> Delta<'a> {
    /// The recording between `before` and `after`.
    pub fn new(before: &'a Snapshot, after: &'a Snapshot) -> Self {
        Self { before, after }
    }

    /// A counter's increase.
    pub fn counter(&self, name: &str) -> u64 {
        self.after.counter(name) - self.before.counter(name)
    }

    /// A histogram's (or span's) samples.
    pub fn hist(&self, name: &str) -> HistDelta {
        let empty = Hist::default();
        let a = self.after.hist(name).unwrap_or(&empty);
        let b = self.before.hist(name).unwrap_or(&empty);
        let mut buckets = [0u64; BUCKETS];
        for (i, slot) in buckets.iter_mut().enumerate() {
            *slot = a.bucket(i) - b.bucket(i);
        }
        HistDelta { count: a.count - b.count, sum: a.sum - b.sum, buckets }
    }
}

impl HistDelta {
    /// Mean sample; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile, interpolated linearly inside its log2 bucket; 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q * self.count as f64;
        let mut seen = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if seen + c >= target {
                let (lo, hi) = bucket_bounds(i);
                let frac = ((target - seen) / c).clamp(0.0, 1.0);
                return lo as f64 + frac * (hi - lo) as f64;
            }
            seen += c;
        }
        let (_, hi) = bucket_bounds(BUCKETS - 1);
        hi as f64
    }
}

/// The metrics of layers every workload calls: the GEMM kernel, the thread
/// pool, the scheduler, and the campaign engine. `flops` is the workload's
/// GEMM work computed from layer shapes (see `manifest.json`).
pub fn common_metrics(d: &Delta<'_>, flops: f64) -> Vec<Metric> {
    let gemm = d.hist("gemm.f32");
    let pack_b = d.hist("gemm.pack_b");
    let busy_s = gemm.sum as f64 / 1e9;
    let jobs = d.counter("pool.jobs") as f64;
    let inline = d.counter("pool.inline") as f64;
    let waves = d.hist("campaign.wave");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        Metric::new("gemm.calls", gemm.count as f64, "count"),
        Metric::new("gemm.busy_s", busy_s, "s"),
        Metric::new("gemm.mean_us", gemm.mean() / 1e3, "us"),
        Metric::new("gemm.pack_b_share", ratio(pack_b.sum as f64, gemm.sum as f64), "ratio"),
        Metric::new("gemm.gflops_computed", ratio(flops / 1e9, busy_s), "GFLOP/s"),
        Metric::new("pool.jobs", jobs, "count"),
        Metric::new("pool.inline_share", ratio(inline, inline + jobs), "ratio"),
        Metric::new("scheduler.execute_calls", d.hist("scheduler.execute").count as f64, "count"),
        Metric::new("scheduler.items", d.counter("scheduler.items") as f64, "count"),
        Metric::new(
            "campaign.cells_per_wave",
            ratio(d.counter("campaign.cells") as f64, waves.count as f64),
            "count",
        ),
        Metric::new("campaign.item_ms.p50", d.hist("campaign.item").quantile(0.5) / 1e6, "ms"),
        Metric::new("campaign.wave_ms.p50", waves.quantile(0.5) / 1e6, "ms"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_subtract_and_quantiles_interpolate() {
        let before = Snapshot::default();
        let mut after = Snapshot::default();
        after.counters.insert("c", 5);
        let mut h = Hist::default();
        for v in [1000u64, 1000, 1000, 3000] {
            h.record(v);
        }
        after.hists.insert("h", h);
        let d = Delta::new(&before, &after);
        assert_eq!(d.counter("c"), 5);
        let hd = d.hist("h");
        assert_eq!(hd.count, 4);
        assert_eq!(hd.mean(), 1500.0);
        // 1000 lies in [512, 1024); the median is inside that bucket.
        let p50 = hd.quantile(0.5);
        assert!((512.0..1024.0).contains(&p50), "{p50}");
        // 3000 lies in [2048, 4096).
        assert!(hd.quantile(1.0) >= 2048.0);
        assert_eq!(d.hist("missing").quantile(0.5), 0.0);
    }
}
