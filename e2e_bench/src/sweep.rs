//! `sweep_profiled`: the Tab. 5 quick plan as one durable sweep.
//!
//! Three SimpleNet-GN models (built from the seed and clipped like the
//! Tab. 5 methods, not trained: dense inference cost does not depend on the
//! weight values) × three profiled chips at the paper's rates × two rates ×
//! two mapping offsets = 36 cells over the test split, run through
//! `run_sweep` into a fresh `SweepStore` per repeat.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bitrobust_biterror::{ChipKind, ProfiledAxis};
use bitrobust_core::{
    run_sweep, Campaign, ChipAxis, EvalResult, QuantizedModel, SweepAxis, SweepModel, SweepOptions,
    SweepResults, SweepStore,
};
use bitrobust_data::Dataset;
use bitrobust_nn::Model;
use bitrobust_obs::snapshot;

use crate::obsdelta::Delta;
use crate::procfs::CpuMeter;
use crate::train::{datasets, scheme, simplenet};
use crate::{layers, stats, timed_setup, Checks, E2e, Metric, Opts, Traced};

/// Each profiled chip with the two bit error rates Tab. 5 measures it at.
pub const CHIP_RATES: [(ChipKind, [f64; 2]); 3] = [
    (ChipKind::Chip1, [0.0086, 0.0275]),
    (ChipKind::Chip2, [0.0014, 0.0108]),
    (ChipKind::Chip3, [0.0003, 0.005]),
];

/// Clipping of the three models: Tab. 5's `RQUANT`, `CLIPPING 0.05`, and
/// `RANDBET 0.05` weight ranges.
pub const MODEL_CLIPS: [Option<f32>; 3] = [None, Some(0.05), Some(0.05)];

/// Sampled cells re-evaluated on `Campaign::serial()` per run.
pub const SERIAL_SAMPLES: usize = 2;

/// Models, axes, and the test split, built from the seed.
pub struct Setup {
    test: Dataset,
    models: Vec<Model>,
    keys: Vec<String>,
    axes: Vec<ProfiledAxis>,
}

impl Setup {
    /// Builds the plan.
    pub fn new(opts: &Opts) -> Self {
        let size = opts.size();
        let (_, test) = datasets(opts.seed, 0, size.test_examples);
        let mut models = Vec::new();
        let mut keys = Vec::new();
        for (i, clip) in MODEL_CLIPS.iter().enumerate() {
            let model_seed = opts.seed.wrapping_mul(3).wrapping_add(i as u64);
            let mut model = simplenet(model_seed);
            if let Some(wmax) = clip {
                model.clip_params(*wmax);
            }
            models.push(model);
            keys.push(format!("simplenet-gn-seed{model_seed}-clip{clip:?}"));
        }
        let axes = CHIP_RATES
            .iter()
            .map(|(kind, rates)| {
                ProfiledAxis::tab5(*kind, opts.seed, rates.to_vec(), size.sweep_offsets)
            })
            .collect();
        Self { test, models, keys, axes }
    }

    /// Cells in the plan.
    pub fn planned(&self) -> usize {
        self.models.len() * self.axes.iter().map(ProfiledAxis::n_points).sum::<usize>()
    }
}

/// One sweep into a fresh store.
pub struct Repeat {
    /// Wall time of `run_sweep`.
    pub wall_s: f64,
    /// Time until the first cell landed.
    pub first_cell_s: f64,
    /// The sweep's results.
    pub results: SweepResults,
    /// The store's fingerprint after the sweep.
    pub fingerprint: u64,
}

/// Runs the plan into a fresh store at `path` and checks the store: every
/// planned cell stored, and a reopened store holding the same bits.
pub fn repeat(s: &Setup, path: &Path, checks: &mut Checks) -> Repeat {
    let _ = std::fs::remove_file(path);
    let mut store = SweepStore::open(path).expect("open a fresh sweep store");
    let models: Vec<SweepModel<'_>> = s
        .models
        .iter()
        .zip(&s.keys)
        .map(|(m, k)| SweepModel::new(k.clone(), scheme(), m))
        .collect();
    let axes: Vec<SweepAxis> = s
        .axes
        .iter()
        .map(|a| SweepAxis::new(a.kind.name(), ChipAxis::Profiled(a.clone())))
        .collect();
    let mut landed: Vec<(u64, EvalResult)> = Vec::new();
    let mut first_cell_s = 0.0;
    let t0 = Instant::now();
    let results = run_sweep(
        &models,
        &axes,
        &s.test,
        &SweepOptions::default(),
        Some(&mut store),
        |cell, r| {
            if landed.is_empty() {
                first_cell_s = t0.elapsed().as_secs_f64();
            }
            landed.push((cell.id, *r));
        },
    );
    let wall_s = t0.elapsed().as_secs_f64();

    let planned = s.planned();
    let missing = planned.saturating_sub(store.len());
    checks.count(planned as u64, missing as u64, || {
        format!("sweep: {missing} of {planned} planned cells missing from the store")
    });
    checks.check(results.resumed == 0 && results.evaluated == planned, || {
        format!("sweep: fresh store resumed {} cells", results.resumed)
    });
    let fingerprint = store.fingerprint();
    drop(store);
    let reopened = SweepStore::open(path).expect("reopen the sweep store");
    let same_bits = landed.iter().all(|(id, r)| {
        reopened.get(*id).is_some_and(|s| {
            s.error.to_bits() == r.error.to_bits()
                && s.confidence.to_bits() == r.confidence.to_bits()
        })
    });
    checks.check(reopened.fingerprint() == fingerprint && same_bits, || {
        "sweep: the reopened store differs from the run's cells".to_string()
    });
    Repeat { wall_s, first_cell_s, results, fingerprint }
}

/// Re-evaluates sampled cells on the serial reference engine; each must
/// equal the sweep's cell bit for bit.
fn check_serial(s: &Setup, results: &SweepResults, seed: u64, checks: &mut Checks) {
    let per_axis = s.axes[0].n_points();
    let per_model = per_axis * s.axes.len();
    for k in 0..SERIAL_SAMPLES as u64 {
        let cell = (seed.wrapping_mul(7).wrapping_add(k * 13) % s.planned() as u64) as usize;
        let (m, a, point) = (cell / per_model, cell % per_model / per_axis, cell % per_axis);
        let axis = &s.axes[a];
        let chip = axis.synthesize();
        let voltages = axis.voltages(&chip);
        let mut q = QuantizedModel::quantize(&s.models[m], scheme());
        q.inject(&axis.injector(&chip, &voltages, point));
        let serial = Campaign::new(&s.models[m], &s.test).serial().run(&[q])[0];
        let swept = results.cell(m, a, point);
        checks.check(
            serial.error.to_bits() == swept.error.to_bits()
                && serial.confidence.to_bits() == swept.confidence.to_bits(),
            || format!("sweep cell ({m}, {a}, {point}): {swept:?} != serial {serial:?}"),
        );
    }
}

fn bits(results: &SweepResults) -> Vec<(u32, u32)> {
    results.cells().iter().map(|c| (c.error.to_bits(), c.confidence.to_bits())).collect()
}

fn work_dir(opts: &Opts) -> PathBuf {
    crate::out_dir().join(format!("sweep-{}-{}", opts.seed, std::process::id()))
}

/// The untraced run: repeats until the time budget is spent (at least
/// two); every repeat must reproduce the first one's cells and store.
pub fn run_e2e(opts: &Opts) -> E2e {
    let (s, setup_s) = timed_setup(|| Setup::new(opts));
    let dir = work_dir(opts);
    let mut checks = Checks::default();
    let mut repeats: Vec<Repeat> = Vec::new();
    let t0 = Instant::now();
    loop {
        let r = repeat(&s, &dir.join(format!("store-{}.jsonl", repeats.len())), &mut checks);
        match repeats.first() {
            None => check_serial(&s, &r.results, opts.seed, &mut checks),
            Some(first) => checks.check(
                bits(&r.results) == bits(&first.results) && r.fingerprint == first.fingerprint,
                || format!("sweep repeat {} differs from repeat 0", repeats.len()),
            ),
        }
        repeats.push(r);
        if crate::budget_spent(t0, repeats.len(), opts.seconds) {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let planned = s.planned() as f64;
    let rates: Vec<f64> = repeats.iter().map(|r| planned / r.wall_s).collect();
    let first_ms: Vec<f64> = repeats.iter().map(|r| 1e3 * r.first_cell_s).collect();
    let errors: Vec<f64> = repeats[0].results.cells().iter().map(|c| f64::from(c.error)).collect();
    let throughput = stats::median(&rates);
    E2e {
        setup_s,
        throughput,
        latency_p50_ms: stats::median(&first_ms),
        error_pct: 100.0 * stats::mean(&errors),
        named: vec![
            Metric::new("sweep_cells_per_s", throughput, "cells/s"),
            Metric::new("sweep_repeats", repeats.len() as f64, "count"),
        ],
        checks,
    }
}

/// The traced run: one untraced sweep, then one traced sweep that must
/// reproduce it.
pub fn run_traced(opts: &Opts) -> Traced {
    let s = Setup::new(opts);
    let dir = work_dir(opts);
    let mut checks = Checks::default();
    let meter = CpuMeter::start();
    let untraced = repeat(&s, &dir.join("untraced.jsonl"), &mut checks);
    let cpu_util = meter.utilization(crate::threads());

    crate::obs_trace_on();
    let before = snapshot();
    let traced = {
        let _span = bitrobust_obs::span("bench.sweep_profiled");
        repeat(&s, &dir.join("traced.jsonl"), &mut checks)
    };
    let after = snapshot();
    let _ = std::fs::remove_dir_all(&dir);
    checks.check(
        bits(&traced.results) == bits(&untraced.results)
            && traced.fingerprint == untraced.fingerprint,
        || "traced sweep differs from untraced (obs must be bit-neutral)".to_string(),
    );
    let d = Delta::new(&before, &after);
    let planned = s.planned() as f64;
    let flops = layers::forward_gemm_flops() * s.test.len() as f64 * planned;
    let appends = d.counter("store.appends") as f64;
    let mut m = crate::obsdelta::common_metrics(&d, flops);
    m.extend([
        Metric::new("proc.cpu_util", cpu_util, "ratio"),
        Metric::new("sweep.build_image_ms", d.hist("sweep.build_image").mean() / 1e6, "ms"),
        Metric::new(
            "sweep.useful_ratio",
            d.counter("sweep.cells_run") as f64 / d.counter("sweep.cells_planned").max(1) as f64,
            "ratio",
        ),
        Metric::new("store.append_us.p50", d.hist("store.append").quantile(0.5) / 1e3, "us"),
        Metric::new(
            "store.bytes_per_cell",
            d.counter("store.bytes_appended") as f64 / appends.max(1.0),
            "B",
        ),
        crate::overhead_pct(planned / untraced.wall_s, planned / traced.wall_s),
    ]);
    Traced { metrics: m, checks }
}
