//! End-to-end robust evaluation cost: quantize → inject → dequantize →
//! forward over a test set, per simulated chip — comparing the serial
//! reference path against the parallel fault-injection campaign engine,
//! plus clean (single-pattern) evaluation through the same engine,
//! single-model vs data-parallel RandBET training, and one `run_sweep`
//! per model vs one orchestrated multi-model sweep.
//!
//! Running this bench writes a machine-readable `BENCH_robust_eval.json`
//! at the workspace root with serial vs parallel wall-clock and the
//! resulting speedups. CI uploads the file as an artifact and **fails the
//! build if the campaign path or data-parallel training regresses to slower
//! than serial** on multi-core runners (`speedup < 1.0`), with a graded
//! floor for the orchestrated sweep (its baseline is already parallel).

use bitrobust_bench::{best_of, json_str, write_bench_json};
use bitrobust_biterror::UniformChip;
use bitrobust_core::{
    build, evaluate, evaluate_serial, run_sweep, train, ArchKind, Campaign, ChipAxis, DataParallel,
    NormKind, QuantizedModel, RandBetVariant, RobustEval, SweepAxis, SweepModel, SweepOptions,
    TrainConfig, TrainMethod, TrainReport,
};
use bitrobust_data::{AugmentConfig, Dataset, SynthDataset};
use bitrobust_nn::{Mode, Model};
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

const N_CHIPS: usize = 8;
const RATE: f64 = 0.01;
const BATCH: usize = 256;
const TRAIN_EPOCHS: usize = 2;
const TRAIN_BATCH: usize = 128;
/// Models in the orchestrated-sweep comparison.
const SWEEP_MODELS: usize = 2;
/// Chips per rate of the per-model grids the sweep orchestrates.
const SWEEP_CHIPS: usize = 4;

fn setup() -> (Model, Dataset) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let (_, test_ds) = SynthDataset::Mnist.generate(0);
    (built.model, test_ds)
}

/// A short RandBET training run, single-model (`data_parallel: None`) or
/// sharded; returns the report so callers can sanity-check determinism.
fn train_once(data_parallel: Option<DataParallel>) -> TrainReport {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;
    let (train_src, test_src) = SynthDataset::Mnist.generate(0);
    let (xt, yt) = train_src.batch_range(0, 600);
    let (xe, ye) = test_src.batch_range(0, 300);
    let train_ds = Dataset::new("train", xt, yt, 10);
    let test_ds = Dataset::new("test", xe, ye, 10);
    let mut cfg = TrainConfig::new(
        Some(QuantScheme::rquant(8)),
        TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
    );
    cfg.epochs = TRAIN_EPOCHS;
    cfg.batch_size = TRAIN_BATCH;
    cfg.augment = AugmentConfig::none();
    cfg.warmup_loss = 100.0;
    cfg.data_parallel = data_parallel;
    train(&mut model, &train_ds, &test_ds, &cfg)
}

/// The multi-model sweep comparison setup: `SWEEP_MODELS` distinct models
/// plus the shared rate grid their cells span.
fn sweep_setup() -> (Vec<Model>, Vec<f64>, Dataset) {
    let (_, test_ds) = SynthDataset::Mnist.generate(0);
    let models: Vec<Model> = (0..SWEEP_MODELS as u64)
        .map(|seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model
        })
        .collect();
    (models, vec![0.005, RATE], test_ds)
}

/// The baseline the orchestrator replaces: one (already parallel) sweep
/// per model, in sequence.
fn per_model_grids(models: &[Model], rates: &[f64], test_ds: &Dataset) -> Vec<Vec<RobustEval>> {
    (0..models.len())
        .map(|i| orchestrated_sweep(&models[i..=i], rates, test_ds).remove(0))
        .collect()
}

/// The orchestrated path: every model's cells in one fan-out (no store —
/// this measures pure compute).
fn orchestrated_sweep(models: &[Model], rates: &[f64], test_ds: &Dataset) -> Vec<Vec<RobustEval>> {
    let entries: Vec<SweepModel> = models
        .iter()
        .enumerate()
        .map(|(i, m)| SweepModel::new(format!("bench-{i}"), QuantScheme::rquant(8), m))
        .collect();
    let axes = vec![SweepAxis::new("uniform", ChipAxis::uniform(rates.to_vec(), SWEEP_CHIPS, 42))];
    let opts = SweepOptions { batch_size: BATCH, mode: Mode::Eval };
    let results = run_sweep(&entries, &axes, test_ds, &opts, None, |_, _| {});
    (0..models.len()).map(|mi| results.robust(mi, 0)).collect()
}

fn chip_images(model: &Model) -> Vec<QuantizedModel> {
    let q0 = QuantizedModel::quantize(model, QuantScheme::rquant(8));
    (0..N_CHIPS)
        .map(|c| {
            let mut q = q0.clone();
            q.inject(&UniformChip::new(42 + c as u64).at_rate(RATE));
            q
        })
        .collect()
}

/// Measures serial vs parallel throughput (robust evaluation, clean
/// evaluation, and single-model vs data-parallel training) and writes the
/// comparison to `BENCH_robust_eval.json` at the workspace root.
fn main() {
    let (model, test_ds) = setup();
    let images = chip_images(&model);

    // Warm up the thread pool and verify the determinism guarantees once.
    let serial_ref = Campaign::new(&model, &test_ds).batch_size(BATCH).serial().run(&images);
    let campaign_ref = Campaign::new(&model, &test_ds).batch_size(BATCH).run(&images);
    assert_eq!(serial_ref, campaign_ref, "engine must be bit-identical to the serial path");
    let clean_serial_ref = evaluate_serial(&model, &test_ds, BATCH, Mode::Eval);
    let clean_campaign_ref = evaluate(&model, &test_ds, BATCH, Mode::Eval);
    assert_eq!(
        clean_serial_ref, clean_campaign_ref,
        "clean evaluate must be bit-identical to its serial reference"
    );

    // Data-parallel training must be bit-identical to its serial shard
    // reference; the shard count, not the thread count, defines the bits.
    let train_parallel_ref = train_once(Some(DataParallel::protocol()));
    let train_shard_serial_ref =
        train_once(Some(DataParallel { serial: true, ..DataParallel::protocol() }));
    assert_eq!(
        train_parallel_ref, train_shard_serial_ref,
        "data-parallel training must be bit-identical to its serial shard reference"
    );

    let reps = 3;
    let serial_secs = best_of(reps, 1, || {
        drop(Campaign::new(&model, &test_ds).batch_size(BATCH).serial().run(&images))
    });
    let campaign_secs =
        best_of(reps, 1, || drop(Campaign::new(&model, &test_ds).batch_size(BATCH).run(&images)));
    let clean_serial_secs = best_of(reps, 1, || {
        evaluate_serial(&model, &test_ds, BATCH, Mode::Eval);
    });
    let clean_campaign_secs = best_of(reps, 1, || {
        evaluate(&model, &test_ds, BATCH, Mode::Eval);
    });
    let train_serial_secs = best_of(reps, 1, || drop(train_once(None)));
    let train_parallel_secs = best_of(reps, 1, || drop(train_once(Some(DataParallel::protocol()))));

    // Orchestrated multi-model sweep vs sequential per-model grids: the
    // cells must be byte-identical, the fused fan-out at least as fast.
    let (sweep_models, sweep_rates, sweep_ds) = sweep_setup();
    let per_model_ref = per_model_grids(&sweep_models, &sweep_rates, &sweep_ds);
    let sweep_ref = orchestrated_sweep(&sweep_models, &sweep_rates, &sweep_ds);
    assert_eq!(
        per_model_ref, sweep_ref,
        "orchestrated sweep must be bit-identical to per-model grids"
    );
    let per_model_secs =
        best_of(reps, 1, || drop(per_model_grids(&sweep_models, &sweep_rates, &sweep_ds)));
    let sweep_secs =
        best_of(reps, 1, || drop(orchestrated_sweep(&sweep_models, &sweep_rates, &sweep_ds)));

    // `threads` is the pool's *own* accounting of what it actually used
    // (`pool_parallelism()`), not the raw environment request:
    // BITROBUST_THREADS is clamped to the supported range and unset means
    // auto-detect, so only the pool knows the real worker count.
    // `threads_env` records the raw request (or null) so a `threads: 1`
    // row on a multi-core runner is attributable to its override instead
    // of reading like a regression.
    let threads_env = std::env::var(bitrobust_tensor::THREADS_ENV)
        .map_or_else(|_| "null".to_string(), |v| json_str(&v));
    let secs = |x: f64| format!("{x:.6}");
    let ratio = |x: f64| format!("{x:.3}");
    write_bench_json(
        "robust_eval",
        &[
            ("bench", json_str("robust_eval")),
            ("arch", json_str("mlp")),
            ("dataset", json_str(test_ds.name())),
            ("examples", test_ds.len().to_string()),
            ("n_chips", N_CHIPS.to_string()),
            ("rate", RATE.to_string()),
            ("batch_size", BATCH.to_string()),
            ("threads", bitrobust_tensor::pool_parallelism().to_string()),
            ("threads_env", threads_env),
            ("serial_secs", secs(serial_secs)),
            ("campaign_secs", secs(campaign_secs)),
            ("speedup", ratio(serial_secs / campaign_secs)),
            ("clean_serial_secs", secs(clean_serial_secs)),
            ("clean_campaign_secs", secs(clean_campaign_secs)),
            ("clean_speedup", ratio(clean_serial_secs / clean_campaign_secs)),
            ("train_serial_secs", secs(train_serial_secs)),
            ("train_parallel_secs", secs(train_parallel_secs)),
            ("train_speedup", ratio(train_serial_secs / train_parallel_secs)),
            ("train_shards", bitrobust_core::TRAIN_SHARDS.to_string()),
            ("sweep_models", SWEEP_MODELS.to_string()),
            ("per_model_secs", secs(per_model_secs)),
            ("sweep_secs", secs(sweep_secs)),
            ("sweep_speedup", ratio(per_model_secs / sweep_secs)),
            ("bit_identical", "true".to_string()),
        ],
    );
}
