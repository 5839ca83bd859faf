//! `train_randbet`: closed-loop RandBET training with one caller.
//!
//! Each repeat trains a fresh copy of one SimpleNet-GN on the synth-CIFAR10
//! train split with Alg. 1 (`rquant(8)`, `RandBet { wmax: 0.1, p: 0.01,
//! Standard }`, injection from step 0, the zoo's `DataParallel::protocol()`
//! plan), then measures RErr at p = 1% over uniform chips, one `Campaign`
//! per chip so that each chip's evaluation is timed on its own. Repeats
//! within a run must be byte-identical.

use std::time::Instant;

use bitrobust_biterror::UniformChip;
use bitrobust_core::{
    build, train, ArchKind, Campaign, DataParallel, EvalResult, NormKind, QuantizedModel,
    RandBetVariant, TrainConfig, TrainMethod, TrainReport,
};
use bitrobust_data::{Dataset, SynthDataset};
use bitrobust_nn::Model;
use bitrobust_obs::snapshot;
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

use crate::obsdelta::Delta;
use crate::procfs::CpuMeter;
use crate::{layers, stats, timed_setup, Checks, E2e, Metric, Opts, Traced};

/// Training (and evaluation) bit error rate.
pub const P: f64 = 0.01;
/// RandBET's clipping bound.
pub const WMAX: f32 = 0.1;
/// Mini-batch size.
pub const BATCH: usize = 64;
/// Seed of the data, the initial weights, and the training RNG. Fixed, so
/// the workload's quality metric varies only with the chips: RErr after
/// two epochs moved by a fifth between training seeds, more than any
/// useful bound.
pub const TRAIN_SEED: u64 = 0;
/// RErr chip `c` of workload seed `s` has chip seed
/// `CHIP_SEED_BASE + s * n_chips + c`.
pub const CHIP_SEED_BASE: u64 = 1000;
/// Quantization scheme of training and evaluation.
pub fn scheme() -> QuantScheme {
    QuantScheme::rquant(8)
}

/// The synth-CIFAR10 splits for `seed`, cut to the run's sizes.
pub fn datasets(seed: u64, train_examples: usize, test_examples: usize) -> (Dataset, Dataset) {
    let (train, test) = SynthDataset::Cifar10.generate(seed);
    (prefix(train, train_examples), prefix(test, test_examples))
}

fn prefix(ds: Dataset, n: usize) -> Dataset {
    if n >= ds.len() {
        return ds;
    }
    let (x, y) = ds.batch_range(0, n);
    Dataset::new(ds.name(), x, y, ds.n_classes())
}

/// A SimpleNet-GN for 16×16 RGB, 10 classes, initialized from `seed`.
pub fn simplenet(seed: u64) -> Model {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    build(ArchKind::SimpleNet, [3, 16, 16], 10, NormKind::Group, &mut rng).model
}

/// Everything a repeat needs, built from the seed.
pub struct Setup {
    train: Dataset,
    test: Dataset,
    model: Model,
    cfg: TrainConfig,
    rerr_chips: usize,
    chip_seed_base: u64,
}

impl Setup {
    /// Builds datasets, the initial model, and the training config.
    pub fn new(opts: &Opts) -> Self {
        let size = opts.size();
        let (train, test) = datasets(TRAIN_SEED, size.train_examples, size.test_examples);
        let mut cfg = TrainConfig::new(
            Some(scheme()),
            TrainMethod::RandBet { wmax: Some(WMAX), p: P, variant: RandBetVariant::Standard },
        );
        cfg.epochs = size.epochs;
        cfg.batch_size = BATCH;
        // Any finite loss is below it: bit errors are injected from step 0.
        cfg.warmup_loss = f32::INFINITY;
        cfg.seed = TRAIN_SEED;
        cfg.data_parallel = Some(DataParallel::protocol());
        let rerr_chips = size.rerr_chips;
        let chip_seed_base = CHIP_SEED_BASE + opts.seed.wrapping_mul(rerr_chips as u64);
        Self { train, test, model: simplenet(TRAIN_SEED), cfg, rerr_chips, chip_seed_base }
    }

    /// Training samples one repeat processes.
    pub fn samples(&self) -> usize {
        self.cfg.epochs * self.train.len()
    }
}

/// One training repeat and its RErr campaign.
#[derive(Debug, Clone)]
pub struct Repeat {
    /// Wall time of `train()`.
    pub train_s: f64,
    /// Wall time of each chip's RErr campaign, ms.
    pub chip_ms: Vec<f64>,
    /// Mean RErr over the chips, in percent.
    pub rerr_pct: f64,
    /// The training report.
    pub report: TrainReport,
    /// FNV-1a over the trained weights' bits, the report, and the RErr.
    pub fingerprint: u64,
}

/// Trains a fresh copy of the set-up model and measures its RErr.
pub fn repeat(s: &Setup) -> Repeat {
    let mut model = s.model.clone();
    let t0 = Instant::now();
    let report = train(&mut model, &s.train, &s.test, &s.cfg);
    let train_s = t0.elapsed().as_secs_f64();

    let q0 = QuantizedModel::quantize(&model, scheme());
    let mut chip_ms = Vec::with_capacity(s.rerr_chips);
    let results: Vec<EvalResult> = (0..s.rerr_chips)
        .map(|c| {
            let t1 = Instant::now();
            let mut q = q0.clone();
            q.inject(&UniformChip::new(s.chip_seed_base + c as u64).at_rate(P));
            let result = Campaign::new(&model, &s.test).run(std::slice::from_ref(&q))[0];
            chip_ms.push(1e3 * t1.elapsed().as_secs_f64());
            result
        })
        .collect();
    let errors: Vec<f64> = results.iter().map(|r| f64::from(r.error)).collect();
    let rerr_pct = 100.0 * stats::mean(&errors);

    let mut bytes = Vec::new();
    for t in model.param_tensors() {
        for v in t.data() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    for r in &results {
        bytes.extend_from_slice(&r.error.to_bits().to_le_bytes());
        bytes.extend_from_slice(&r.confidence.to_bits().to_le_bytes());
    }
    // `{:?}` prints every f32 with round-trip digits, so equal strings
    // mean equal reports.
    bytes.extend_from_slice(format!("{report:?}").as_bytes());
    Repeat { train_s, chip_ms, rerr_pct, report, fingerprint: fnv1a64(&bytes) }
}

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn check_repeat(checks: &mut Checks, first: &Repeat, r: &Repeat, index: usize) {
    if index == 0 {
        checks.check(
            r.report.final_loss.is_finite()
                && r.report.bit_errors_started_at == Some(0)
                && (0.0..=100.0).contains(&r.rerr_pct),
            || format!("train repeat 0: implausible report {:?}, RErr {}", r.report, r.rerr_pct),
        );
    } else {
        checks.check(r.fingerprint == first.fingerprint && r.report == first.report, || {
            format!("train repeat {index} differs from repeat 0 (not byte-identical)")
        });
    }
}

/// The untraced run: repeats until the time budget is spent (at least two,
/// so the repeat-identity check always runs).
pub fn run_e2e(opts: &Opts) -> E2e {
    let (s, setup_s) = timed_setup(|| Setup::new(opts));
    let mut checks = Checks::default();
    let mut repeats: Vec<Repeat> = Vec::new();
    let t0 = Instant::now();
    loop {
        let r = repeat(&s);
        check_repeat(&mut checks, repeats.first().unwrap_or(&r), &r, repeats.len());
        repeats.push(r);
        if crate::budget_spent(t0, repeats.len(), opts.seconds) {
            break;
        }
    }
    let rates: Vec<f64> = repeats.iter().map(|r| s.samples() as f64 / r.train_s).collect();
    let chip_ms: Vec<f64> = repeats.iter().flat_map(|r| r.chip_ms.iter().copied()).collect();
    let throughput = stats::median(&rates);
    let rerr_pct = repeats[0].rerr_pct;
    E2e {
        setup_s,
        throughput,
        latency_p50_ms: stats::median(&chip_ms),
        error_pct: rerr_pct,
        named: vec![
            Metric::new("train_samples_per_s", throughput, "samples/s"),
            Metric::new("train_rerr_pct", rerr_pct, "%"),
            Metric::new("train_repeats", repeats.len() as f64, "count"),
            Metric::new("train_rerr_chip_ms", stats::median(&chip_ms), "ms"),
        ],
        checks,
    }
}

/// Samples/s of one repeat; the `--one-thread-train` child prints this.
pub fn one_repeat_rate(opts: &Opts) -> f64 {
    let s = Setup::new(opts);
    s.samples() as f64 / repeat(&s).train_s
}

/// The traced run: one untraced repeat, one traced repeat (which must
/// match it bit for bit), and a one-thread repeat in a child process for
/// the data-parallel scaling efficiency.
pub fn run_traced(opts: &Opts) -> Traced {
    let s = Setup::new(opts);
    let mut checks = Checks::default();
    let meter = CpuMeter::start();
    let untraced = repeat(&s);
    let cpu_util = meter.utilization(crate::threads());
    check_repeat(&mut checks, &untraced, &untraced, 0);

    crate::obs_trace_on();
    let before = snapshot();
    let traced = {
        let _span = bitrobust_obs::span("bench.train_randbet");
        repeat(&s)
    };
    let after = snapshot();
    checks.check(traced.fingerprint == untraced.fingerprint, || {
        "traced training differs from untraced (obs must be bit-neutral)".to_string()
    });
    let d = Delta::new(&before, &after);

    let rate = s.samples() as f64 / untraced.train_s;
    let traced_rate = s.samples() as f64 / traced.train_s;
    let one_thread = one_thread_rate(opts);
    // Forward and backward of both Alg. 1 passes per sample (backward
    // counted as twice the forward: dX and dW), then the clean test pass
    // inside `train()` and the RErr campaign.
    let fwd = layers::forward_gemm_flops();
    let flops = fwd * s.samples() as f64 * 2.0 * 3.0
        + fwd * s.test.len() as f64 * (1 + s.rerr_chips) as f64;

    let mut m = crate::obsdelta::common_metrics(&d, flops);
    let span_s = |name: &str| d.hist(name).sum as f64 / 1e9;
    m.extend([
        Metric::new("proc.cpu_util", cpu_util, "ratio"),
        Metric::new("train.forward_s", span_s("train.forward"), "s"),
        Metric::new("train.backward_s", span_s("train.backward"), "s"),
        Metric::new("train.reduce_s", span_s("train.reduce"), "s"),
        Metric::new("train.shard_s", span_s("train.shard"), "s"),
        Metric::new("dp.scaling_eff", rate / (crate::threads() as f64 * one_thread), "ratio"),
        crate::overhead_pct(rate, traced_rate),
    ]);
    println!(
        "train: {rate:.1} samples/s untraced, {traced_rate:.1} traced, {one_thread:.1} at 1 thread"
    );
    Traced { metrics: m, checks }
}

/// Runs one repeat at one thread in a child process of this binary.
fn one_thread_rate(opts: &Opts) -> f64 {
    let exe = std::env::current_exe().expect("locate the benchmark executable");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", "train_randbet", "--seed", &opts.seed.to_string()])
        .arg("--one-thread-train");
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("run the one-thread training child");
    assert!(out.status.success(), "one-thread training child failed: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| l.trim().parse::<f64>().ok())
        .expect("one-thread training child prints its samples/s last")
}
