//! # bitrobust-e2e-bench — the repository's end-to-end benchmark
//!
//! One command runs one workload from a workload seed, measures it for a
//! fixed number of seconds, checks its outputs, and prints every metric by
//! name and unit; the last stdout line is one JSON object
//! (`{"correct", "attempted", "failed", "metrics"}`):
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <train_randbet|sweep_profiled|serve_open_loop> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! | workload          | loop   | what it runs                                               |
//! |-------------------|--------|------------------------------------------------------------|
//! | `train_randbet`   | closed | Alg. 1 RandBET training of SimpleNet-GN, then RErr @ p=1%  |
//! | `sweep_profiled`  | closed | the Tab. 5 quick plan: 36 profiled-chip cells into a store |
//! | `serve_open_loop` | open   | `InferenceService` under a fixed ladder of offered rates   |
//!
//! With `--trace 0` the run is untraced (`BITROBUST_OBS` off) and reports
//! the end-to-end metrics ([`END_TO_END`]). With `--trace 1` it instead
//! runs the workload once untraced and once at obs level `trace`, drives
//! every layer of the SimpleNet stack directly, replays Alg. 1 steps with a
//! span around each call, and reports the per-layer metrics
//! ([`per_layer_names`]); the Chrome trace, the obs report, and a
//! flamegraph-ready folded-stack file land in `e2e_bench/out/`. A per-layer
//! metric of a layer the workload never calls reads 0.
//!
//! `--smoke` shrinks every workload to a few seconds; the crate's tests
//! run the binary that way. `manifest.json` beside this crate records the
//! run manifest: rates, limits, FLOP formulas, and which per-layer metric
//! should move which end-to-end metric on which workload.

pub mod folded;
pub mod layers;
pub mod obsdelta;
pub mod procfs;
pub mod report;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod train;

use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics every workload reports with `--trace 0`, as
/// `(name, unit)`. What each means per workload is in `manifest.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("error_pct", "%"),
];

/// Per-stage serve metrics, suffixed `.<stage>` in [`per_layer_names`].
pub const SERVE_STAGE_METRICS: [(&str, &str); 7] = [
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.wave_ms.p50", "ms"),
    ("serve.submit_us.p99", "us"),
    ("serve.gen_late_ms.max", "ms"),
    ("serve.queue_depth", "count"),
];

/// Layer kinds the layer probe drives, in SimpleNet order.
pub const LAYER_KINDS: [&str; 6] =
    ["conv2d", "groupnorm", "relu", "maxpool2d", "globalavgpool", "linear"];

/// Per-layer metrics other than the per-kind `nn.*` and per-stage
/// `serve.*` families, as `(name, unit)`.
pub const PER_LAYER_FIXED: [(&str, &str); 31] = [
    ("gemm.calls", "count"),
    ("gemm.busy_s", "s"),
    ("gemm.mean_us", "us"),
    ("gemm.pack_b_share", "ratio"),
    ("gemm.gflops_computed", "GFLOP/s"),
    ("pool.jobs", "count"),
    ("pool.inline_share", "ratio"),
    ("proc.cpu_util", "ratio"),
    ("nn.loss_ms", "ms"),
    ("optim.step_ms", "ms"),
    ("quant.quantize_ms", "ms"),
    ("quant.write_ms", "ms"),
    ("biterror.inject_ms", "ms"),
    ("biterror.flip_ratio", "ratio"),
    ("data.augment_ms", "ms"),
    ("train.forward_s", "s"),
    ("train.backward_s", "s"),
    ("train.reduce_s", "s"),
    ("train.shard_s", "s"),
    ("dp.scaling_eff", "ratio"),
    ("train.unattributed_share", "ratio"),
    ("scheduler.execute_calls", "count"),
    ("scheduler.items", "count"),
    ("campaign.cells_per_wave", "count"),
    ("campaign.item_ms.p50", "ms"),
    ("campaign.wave_ms.p50", "ms"),
    ("sweep.build_image_ms", "ms"),
    ("sweep.useful_ratio", "ratio"),
    ("store.append_us.p50", "us"),
    ("store.bytes_per_cell", "B"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric reported with `--trace 1`, as `(name, unit)`.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> =
        PER_LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for kind in LAYER_KINDS {
        for suffix in ["fwd_ms", "bwd_ms", "infer_ms.b256", "infer_ms.b32"] {
            names.push((format!("nn.{kind}.{suffix}"), "ms"));
        }
    }
    for stage in serve::MEASURED {
        for (metric, unit) in SERVE_STAGE_METRICS {
            names.push((format!("{metric}.{stage}"), unit));
        }
    }
    names
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop RandBET training plus an RErr campaign.
    TrainRandbet,
    /// Closed-loop Tab. 5 profiled-chip sweep into a fresh store.
    SweepProfiled,
    /// Open-loop serving at a fixed ladder of offered rates.
    ServeOpenLoop,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::TrainRandbet, Workload::SweepProfiled, Workload::ServeOpenLoop];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainRandbet => "train_randbet",
            Workload::SweepProfiled => "sweep_profiled",
            Workload::ServeOpenLoop => "serve_open_loop",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Checked command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload to run.
    pub workload: Workload,
    /// Workload seed: the same seed builds the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// `--trace 1`: report per-layer metrics from a traced run.
    pub trace: bool,
    /// Tiny sizes for the crate's own tests.
    pub smoke: bool,
}

impl Opts {
    /// Problem sizes for this run.
    pub fn size(&self) -> Size {
        if self.smoke {
            Size::smoke()
        } else {
            Size::full()
        }
    }
}

/// Problem sizes; [`Size::full`] is the benchmark, [`Size::smoke`] the
/// test-sized stand-in with the same code paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// Training examples (a prefix of the synth-CIFAR10 train split).
    pub train_examples: usize,
    /// Test examples (a prefix of the test split).
    pub test_examples: usize,
    /// Training epochs per repeat.
    pub epochs: usize,
    /// Chips in the post-training RErr campaign.
    pub rerr_chips: usize,
    /// Mapping offsets per rate in the profiled sweep.
    pub sweep_offsets: usize,
    /// Multiplier on the serve ladder's offered rates.
    pub rate_scale: f64,
    /// Alg. 1 steps the traced run replays.
    pub replay_steps: usize,
    /// Repeats per layer-probe timing.
    pub probe_repeats: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            train_examples: 3000,
            test_examples: 1000,
            epochs: 1,
            rerr_chips: 5,
            sweep_offsets: 2,
            rate_scale: 1.0,
            replay_steps: 12,
            probe_repeats: 7,
        }
    }

    /// Test-sized runs of the same code paths.
    pub fn smoke() -> Self {
        Self {
            train_examples: 192,
            test_examples: 128,
            epochs: 1,
            rerr_chips: 2,
            sweep_offsets: 1,
            rate_scale: 0.1,
            replay_steps: 2,
            probe_repeats: 2,
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self { name: name.into(), value, unit }
    }
}

/// Output checks of one run: how many were made and how many failed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Checks {
    /// Checks made (operations whose output was verified).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure, for the log.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records `n` operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.failures.push(what());
        }
    }
}

/// The end-to-end result of an untraced workload run.
#[derive(Debug, Clone)]
pub struct E2e {
    /// Median set-up time over [`SETUP_REPEATS`] set-ups.
    pub setup_s: f64,
    /// Work completed per second (samples, cells, or requests).
    pub throughput: f64,
    /// Median latency of the workload's unit of work.
    pub latency_p50_ms: f64,
    /// Quality: error of the workload's outputs, in percent.
    pub error_pct: f64,
    /// The workload's own named metrics (`train_samples_per_s`, ...),
    /// printed as `metric` lines, not part of the result object.
    pub named: Vec<Metric>,
    /// Output checks.
    pub checks: Checks,
}

/// The per-layer result of a traced workload run (metrics of layers the
/// workload exercises; the rest are filled with 0).
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Output checks made during the traced run.
    pub checks: Checks,
}

/// How often each run sets its workload up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Runs `setup` [`SETUP_REPEATS`] times, returning the last result and the
/// median wall time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first, so each one starts from the same
        // memory state.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPEATS > 0"), stats::median(&times))
}

/// Whether a closed-loop run that started at `t0` and has finished
/// `repeats` repeats should stop: at least two repeats (so the
/// repeat-identity check always runs), and no further repeat that would
/// end past `seconds` at the average pace so far.
pub fn budget_spent(t0: Instant, repeats: usize, seconds: f64) -> bool {
    let elapsed = t0.elapsed().as_secs_f64();
    repeats >= 2 && elapsed + elapsed / repeats as f64 > seconds
}

/// The benchmark's output directory (`e2e_bench/out`, git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The worker threads the program's pool runs with.
pub fn threads() -> usize {
    bitrobust_tensor::pool_parallelism()
}

/// Runs the untraced measurement of `opts.workload`.
pub fn run_e2e(opts: &Opts) -> E2e {
    match opts.workload {
        Workload::TrainRandbet => train::run_e2e(opts),
        Workload::SweepProfiled => sweep::run_e2e(opts),
        Workload::ServeOpenLoop => serve::run_e2e(opts),
    }
}

/// Runs the traced measurement of `opts.workload` plus the layer probe and
/// the Alg. 1 replay, returning every per-layer metric.
pub fn run_traced(opts: &Opts) -> Traced {
    let out = out_dir();
    std::fs::create_dir_all(&out).expect("create the benchmark output directory");
    let mut traced = match opts.workload {
        Workload::TrainRandbet => train::run_traced(opts),
        Workload::SweepProfiled => sweep::run_traced(opts),
        Workload::ServeOpenLoop => serve::run_traced(opts),
    };
    // The layer probe and replay run with obs still at `trace`, so their
    // spans land in the same Chrome trace and folded stacks.
    traced.metrics.extend(layers::probe(opts));
    traced.metrics.extend(layers::replay(opts));

    let name = opts.workload.name();
    let events = bitrobust_obs::take_trace();
    let trace_path = out.join(format!("{name}.trace.json"));
    bitrobust_obs::write_chrome_trace(&trace_path, &events).expect("write the Chrome trace");
    let folded_path = out.join(format!("{name}.folded.txt"));
    std::fs::write(&folded_path, folded::fold(&events)).expect("write the folded stacks");
    bitrobust_obs::snapshot()
        .write_report(&out.join(format!("{name}.obs_report.json")))
        .expect("write the obs report");
    println!("trace {} ({} events)", trace_path.display(), events.len());
    println!("folded {}", folded_path.display());

    // Fill layers this workload never calls with 0, in the canonical order.
    let mut metrics = Vec::new();
    for (name, unit) in per_layer_names() {
        let value = traced.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        metrics.push(Metric::new(name, value, unit));
    }
    Traced { metrics, checks: traced.checks }
}

/// Switches obs to `trace` level. Nothing calls `bitrobust_obs::finish`:
/// [`run_traced`] writes the outputs into [`out_dir`] itself.
pub fn obs_trace_on() {
    bitrobust_obs::init(&bitrobust_obs::ObsConfig {
        level: bitrobust_obs::ObsLevel::Trace,
        ..bitrobust_obs::ObsConfig::off()
    });
}

/// `trace.overhead_pct`: how much slower the traced pass ran than the
/// untraced one, from their throughputs.
pub fn overhead_pct(untraced_rate: f64, traced_rate: f64) -> Metric {
    Metric::new("trace.overhead_pct", 100.0 * (untraced_rate / traced_rate - 1.0), "%")
}
