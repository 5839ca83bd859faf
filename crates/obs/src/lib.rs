//! # bitrobust-obs — zero-cost-when-off observability
//!
//! A dependency-free (std-only) tracing/metrics layer sitting *below*
//! every other crate in the workspace — the tensor pool itself is
//! instrumented — providing three primitives:
//!
//! - **Spans**: [`span!`] pushes an RAII guard whose `Drop` records the
//!   elapsed nanoseconds into a log2 histogram and, at `trace` level,
//!   emits a Chrome `trace_event` record.
//! - **Counters**: [`counter_add`] — monotonic, summed across threads.
//! - **Gauges / histograms**: [`gauge_set`] (last-write-wins, stamped
//!   with a global sequence number) and [`record`] (log2 buckets).
//!
//! ## Levels and configuration
//!
//! The process-wide level comes from `BITROBUST_OBS`:
//!
//! | value          | effect                                            |
//! |----------------|---------------------------------------------------|
//! | `off` (default)| every call is a relaxed load + predictable branch |
//! | `counters`     | counters, gauges, and span-duration histograms    |
//! | `trace`        | all of the above plus Chrome trace events         |
//! | `trace:<path>` | `trace`, writing the Chrome trace to `<path>`     |
//!
//! `BITROBUST_OBS_REPORT` / `BITROBUST_OBS_TRACE` override the output
//! paths (defaults: `OBS_report.json`, `OBS_trace.json` in the working
//! directory). Programs may instead call [`init`] explicitly — the
//! `experiments` binaries map an `--obs <spec>` flag onto
//! [`ObsConfig::parse`].
//!
//! ## Bit-neutrality contract
//!
//! Observability reads clocks but **never feeds results**: no value
//! returned by this crate may influence numeric computation. The golden
//! tests and the determinism thread-matrix run with `BITROBUST_OBS=trace`
//! and must stay byte-identical to obs-off runs.
//!
//! ## Determinism of the report itself
//!
//! Per-thread states merge through commutative operations only (sums,
//! element-wise histogram adds, max-sequence gauges) into a [`Snapshot`]
//! keyed by `BTreeMap`, so `OBS_report.json` does not depend on thread
//! scheduling — only the *values* (durations) differ between runs.
//! Trace events sort by `(start, tid, name)` before serialization.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "the wall-clock authority: spans read clocks but never feed results (see Bit-neutrality)"
)]

mod hist;
mod snapshot;
mod trace;

pub use hist::{bucket_bounds, bucket_index, Hist, BUCKETS};
pub use snapshot::{Gauge, Snapshot};
pub use trace::{render_chrome_trace, write_chrome_trace, TraceEvent};

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// How much the process records. Ordered: `Trace` implies `Counters`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum ObsLevel {
    /// Record nothing; every obs call is a branch on a static.
    #[default]
    Off,
    /// Counters, gauges, and span-duration histograms.
    Counters,
    /// Everything, plus Chrome `trace_event` records per span.
    Trace,
}

/// Process-wide observability configuration.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ObsConfig {
    /// Recording level.
    pub level: ObsLevel,
    /// Chrome trace output path (`OBS_trace.json` when `None`).
    pub trace_path: Option<PathBuf>,
    /// Report output path (`OBS_report.json` when `None`).
    pub report_path: Option<PathBuf>,
}

impl ObsConfig {
    /// Everything disabled.
    pub fn off() -> Self {
        ObsConfig::default()
    }

    /// Parse an `--obs` / `BITROBUST_OBS` spec:
    /// `off`, `counters`, `trace`, or `trace:<path>`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = ObsConfig::off();
        match spec {
            "off" | "" => {}
            "counters" => cfg.level = ObsLevel::Counters,
            "trace" => cfg.level = ObsLevel::Trace,
            _ => match spec.split_once(':') {
                Some(("trace", path)) if !path.is_empty() => {
                    cfg.level = ObsLevel::Trace;
                    cfg.trace_path = Some(PathBuf::from(path));
                }
                _ => {
                    return Err(format!(
                        "bad obs spec {spec:?}: expected off|counters|trace|trace:<path>"
                    ));
                }
            },
        }
        Ok(cfg)
    }

    /// Fill *unset* output paths from `BITROBUST_OBS_TRACE` /
    /// `BITROBUST_OBS_REPORT`. A path already present (e.g. from a
    /// `trace:<path>` spec) wins over the environment, so an `--obs`
    /// flag and the env overrides compose instead of clobbering.
    pub fn with_env_paths(mut self) -> Self {
        if self.trace_path.is_none() {
            if let Ok(p) = std::env::var("BITROBUST_OBS_TRACE") {
                self.trace_path = Some(PathBuf::from(p));
            }
        }
        if self.report_path.is_none() {
            if let Ok(p) = std::env::var("BITROBUST_OBS_REPORT") {
                self.report_path = Some(PathBuf::from(p));
            }
        }
        self
    }

    /// Build from `BITROBUST_OBS` (+ `BITROBUST_OBS_TRACE` /
    /// `BITROBUST_OBS_REPORT` path overrides). Unset means off.
    pub fn from_env() -> Result<Self, String> {
        Ok(Self::parse(&std::env::var("BITROBUST_OBS").unwrap_or_default())?.with_env_paths())
    }
}

const LEVEL_UNINIT: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNINIT);

fn config_slot() -> &'static Mutex<ObsConfig> {
    static CONFIG: OnceLock<Mutex<ObsConfig>> = OnceLock::new();
    CONFIG.get_or_init(|| Mutex::new(ObsConfig::off()))
}

/// Install a configuration, replacing whatever the environment set.
/// Safe to call at any time; data already recorded is kept.
pub fn init(config: &ObsConfig) {
    *lock(config_slot()) = config.clone();
    LEVEL.store(config.level as u8, Ordering::Relaxed);
}

#[cold]
fn init_lazy() -> u8 {
    let cfg = ObsConfig::from_env().unwrap_or_else(|e| {
        eprintln!("bitrobust-obs: {e}; observability stays off");
        ObsConfig::off()
    });
    init(&cfg);
    cfg.level as u8
}

#[inline]
fn level_u8() -> u8 {
    // First call per process resolves BITROBUST_OBS; afterwards this is
    // a relaxed load and a predictable branch — the "zero-cost when
    // off" contract the gemm bench gates in CI.
    let l = LEVEL.load(Ordering::Relaxed);
    if l == LEVEL_UNINIT {
        init_lazy()
    } else {
        l
    }
}

/// The active level.
pub fn level() -> ObsLevel {
    match level_u8() {
        x if x == ObsLevel::Counters as u8 => ObsLevel::Counters,
        x if x == ObsLevel::Trace as u8 => ObsLevel::Trace,
        _ => ObsLevel::Off,
    }
}

/// True when anything at all is being recorded.
#[inline]
pub fn enabled() -> bool {
    let l = level_u8();
    l != ObsLevel::Off as u8 && l != LEVEL_UNINIT
}

/// True when Chrome trace events are being collected.
#[inline]
pub fn trace_enabled() -> bool {
    level_u8() == ObsLevel::Trace as u8
}

// ---------------------------------------------------------------------------
// Per-thread state and the global registry.

#[derive(Default)]
struct LocalState {
    tid: u64,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
    hists: BTreeMap<&'static str, Hist>,
    events: Vec<TraceEvent>,
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<LocalState>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<LocalState>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn cumulative() -> &'static Mutex<Snapshot> {
    static CUMULATIVE: OnceLock<Mutex<Snapshot>> = OnceLock::new();
    CUMULATIVE.get_or_init(|| Mutex::new(Snapshot::default()))
}

/// Monotonic origin for trace timestamps.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Recover from poisoning: obs state is plain data, and a panicking
/// instrumented thread must not take observability down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

thread_local! {
    static LOCAL: Arc<Mutex<LocalState>> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(0);
        let state = Arc::new(Mutex::new(LocalState {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            ..LocalState::default()
        }));
        lock(registry()).push(Arc::clone(&state));
        state
    };
}

fn with_local(f: impl FnOnce(&mut LocalState)) {
    // try_with: silently drop samples arriving during thread teardown.
    let _ = LOCAL.try_with(|state| f(&mut lock(state)));
}

// ---------------------------------------------------------------------------
// Recording API.

/// Add to a named monotonic counter.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_local(|l| *l.counters.entry(name).or_insert(0) += delta);
}

/// Set a named gauge to its current value (last write across all
/// threads wins, ordered by a global sequence number).
#[inline]
pub fn gauge_set(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    static GAUGE_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = GAUGE_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    with_local(|l| {
        l.gauges.insert(name, Gauge { seq, value });
    });
}

/// Record one sample into a named log2 histogram.
#[inline]
pub fn record(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    with_local(|l| l.hists.entry(name).or_default().record(value));
}

/// Cap on buffered Chrome trace events; past it, spans still feed their
/// histograms but drop the event and bump `obs.trace.dropped`.
const TRACE_CAP: usize = 1 << 20;
static TRACE_TOTAL: AtomicUsize = AtomicUsize::new(0);

/// RAII span guard: measures from construction to drop. Create via
/// [`span()`] or the [`span!`] macro.
#[must_use = "a span measures until dropped; binding it to _ ends it immediately"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Open a span. When obs is off this is a branch and returns an inert
/// guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { name, start: None };
    }
    SpanGuard { name, start: Some(Instant::now()) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let dur = start.elapsed();
        let trace = trace_enabled();
        let ts_ns = start.saturating_duration_since(origin()).as_nanos() as u64;
        let dur_ns = dur.as_nanos() as u64;
        let name = self.name;
        with_local(|l| {
            l.hists.entry(name).or_default().record(dur_ns);
            if trace {
                if TRACE_TOTAL.fetch_add(1, Ordering::Relaxed) < TRACE_CAP {
                    l.events.push(TraceEvent { name, ts_ns, dur_ns, tid: l.tid });
                } else {
                    *l.counters.entry("obs.trace.dropped").or_insert(0) += 1;
                }
            }
        });
    }
}

/// Open a named span for the rest of the enclosing scope:
/// `span!("gemm.pack_b");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _obs_span_guard = $crate::span($name);
    };
}

// ---------------------------------------------------------------------------
// Aggregation and export.

/// Drain every thread's local state into the cumulative aggregate and
/// return a copy. Monotonic: each call reflects everything recorded so
/// far, regardless of which threads have exited.
pub fn snapshot() -> Snapshot {
    let mut cum = lock(cumulative());
    for state in lock(registry()).iter() {
        let mut l = lock(state);
        let part = Snapshot {
            counters: std::mem::take(&mut l.counters),
            gauges: std::mem::take(&mut l.gauges),
            hists: std::mem::take(&mut l.hists),
        };
        cum.merge(&part);
    }
    cum.clone()
}

/// Drain all buffered Chrome trace events, sorted by
/// `(start, tid, name)` so serialization order is deterministic.
pub fn take_trace() -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for state in lock(registry()).iter() {
        events.append(&mut lock(state).events);
    }
    events.sort_by_key(|e| (e.ts_ns, e.tid, e.name));
    events
}

/// Write the configured outputs (report always, Chrome trace at `trace`
/// level) and return the paths written. A no-op at `Off`.
pub fn finish() -> io::Result<Vec<PathBuf>> {
    let cfg = lock(config_slot()).clone();
    if !enabled() {
        return Ok(Vec::new());
    }
    let mut written = Vec::new();
    let report = cfg.report_path.unwrap_or_else(|| PathBuf::from("OBS_report.json"));
    snapshot().write_report(&report)?;
    written.push(report);
    if cfg.level == ObsLevel::Trace {
        let path = cfg.trace_path.unwrap_or_else(|| PathBuf::from("OBS_trace.json"));
        write_trace_file(&path)?;
        written.push(path);
    }
    Ok(written)
}

fn write_trace_file(path: &Path) -> io::Result<()> {
    write_chrome_trace(path, &take_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_specs() {
        assert_eq!(ObsConfig::parse("off").unwrap().level, ObsLevel::Off);
        assert_eq!(ObsConfig::parse("").unwrap().level, ObsLevel::Off);
        assert_eq!(ObsConfig::parse("counters").unwrap().level, ObsLevel::Counters);
        assert_eq!(ObsConfig::parse("trace").unwrap().level, ObsLevel::Trace);
        let cfg = ObsConfig::parse("trace:/tmp/t.json").unwrap();
        assert_eq!(cfg.level, ObsLevel::Trace);
        assert_eq!(cfg.trace_path.as_deref(), Some(Path::new("/tmp/t.json")));
        assert!(ObsConfig::parse("verbose").is_err());
        assert!(ObsConfig::parse("trace:").is_err());
    }

    #[test]
    fn off_guards_are_inert() {
        init(&ObsConfig::off());
        let g = span("inert");
        assert!(g.start.is_none(), "off-level span must not read the clock");
    }
}
