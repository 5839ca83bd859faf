//! Process accounting from `/proc/self` (Linux).

use std::time::Instant;

/// Peak resident set size (`VmHWM`) in MiB; 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of the whole process, in seconds, from
/// `/proc/self/stat` (clock ticks at the Linux default of 100 Hz).
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// CPU utilization over an interval: `(utime + stime) ÷ (wall × threads)`.
#[derive(Debug, Clone, Copy)]
pub struct CpuMeter {
    wall: Instant,
    cpu: f64,
}

impl CpuMeter {
    /// Starts the interval.
    pub fn start() -> Self {
        Self { wall: Instant::now(), cpu: cpu_seconds() }
    }

    /// Utilization since [`CpuMeter::start`], as a share of `threads`
    /// fully busy cores.
    pub fn utilization(&self, threads: usize) -> f64 {
        let wall = self.wall.elapsed().as_secs_f64();
        (cpu_seconds() - self.cpu) / (wall * threads as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        assert!(peak_rss_mb() > 0.0);
        let meter = CpuMeter::start();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(meter.utilization(1) >= 0.0);
    }
}
