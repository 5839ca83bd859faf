//! Golden pinning tests: committed bit-exact values for short RandBET
//! training runs on the MLP (per-epoch losses, clean error, the trained
//! model's per-chip RErr or weights fingerprint, for Standard and the
//! PerturbedOnly and Curricular variants, direct and data-parallel) and
//! one campaign grid cell, plus inference, one RandBET step and one sweep
//! cell on SimpleNet-GN, which pin the conv kernels.
//!
//! Purpose: parallelization refactors keep claiming "byte-identical
//! results" — these tests pin the actual bytes, so a refactor that
//! silently drifts numerics (different reduction order, a changed seed
//! path, a lost clip) fails here even if parallel and serial paths still
//! agree with *each other*.
//!
//! If a change intentionally alters numerics, regenerate the constants
//! with:
//!
//! ```text
//! cargo test -p bitrobust-core --test golden print_golden_values \
//!     -- --exact --ignored --nocapture
//! ```
//!
//! and update this file, explaining in the commit why the numbers moved.

use bitrobust_biterror::UniformChip;
use bitrobust_core::{
    build, run_sweep, train, ArchKind, Campaign, ChipAxis, DataParallel, NormKind, QuantizedModel,
    RandBetVariant, SweepAxis, SweepModel, SweepOptions, TrainConfig, TrainMethod, TrainReport,
};
use bitrobust_data::{AugmentConfig, Dataset, SynthDataset};
use bitrobust_nn::{Mode, Model};
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

mod common;
use common::{tensors_fingerprint, weights_fingerprint};

// ---------------------------------------------------------------------------
// Pinned values (f32 bit patterns; see the module docs to regenerate).
// ---------------------------------------------------------------------------

/// Per-epoch mean clean training loss of the pinned RandBET run.
///
/// Regenerated when `MultiStepLr::paper_schedule` dropped duplicate
/// milestones: a 3-epoch run previously hit milestones `[1, 1, 2]` and
/// trained epochs 1–2 at 0.01×/0.001× the base LR; the fixed `[1, 2]`
/// staircase trains them at 0.1×/0.01×, so epochs 1–2 (and everything
/// downstream of the weights) moved.
const GOLDEN_EPOCH_LOSSES: [u32; 3] = [0x3fe6_6185, 0x3f40_9cdd, 0x3f2e_1af3];

/// Per-chip RErr of the trained model at p = 1% over 2 uniform chips
/// seeded from 1000, measured by `run_sweep`. (Before the in-training
/// probe was deleted, its final-epoch result pinned the same bits.)
const GOLDEN_FINAL_EPOCH_CHIP_ERRORS: [u32; 2] = [0x3daa_aaab, 0x3daa_aaab];

/// Clean quantized test error after training.
const GOLDEN_CLEAN_ERROR: u32 = 0x3d9d_036a;

/// Per-epoch mean clean training loss of the same run trained
/// data-parallel (4 shards): its own pinned trajectory, byte-identical
/// across machines and thread counts. (For this short quantized run it
/// happens to coincide with the single-model bits — the 8-bit weight grid
/// absorbs the last-ulp gradient-summation differences — but the two
/// constants are separate contracts and may diverge independently.)
const GOLDEN_DP_EPOCH_LOSSES: [u32; 3] = [0x3fe6_6185, 0x3f40_9cdd, 0x3f2e_1af3];

/// Clean quantized test error of the data-parallel run.
const GOLDEN_DP_CLEAN_ERROR: u32 = 0x3d9d_036a;

/// FNV-1a fingerprint of the data-parallel run's final float weights.
///
/// Regenerated when the matmul variants moved onto the packed GEMM
/// (`bitrobust_tensor::gemm`): `matmul_nt` dropped its 4-accumulator dot
/// for the canonical sequential-k reduction and the linear/conv backward
/// passes now accumulate gradients in pack-order, shifting float weights
/// by last-ulp amounts. Every *quantized* metric (losses, RErr, clean
/// error, campaign cells) stayed bit-identical — the 8-bit weight grid
/// absorbs the drift — so only this raw-float fingerprint moved.
const GOLDEN_DP_WEIGHTS_HASH: u64 = 0xb666_dc7a_6762_818f;

/// Per-chip errors of the pinned campaign grid cell (rate 1%, 3 chips).
const GOLDEN_CELL_ERRORS: [u32; 3] = [0x3f55_c28f, 0x3f57_4bc7, 0x3f63_53f8];

/// Mean and sample-std of the pinned cell.
const GOLDEN_CELL_MEAN: u32 = 0x3f5a_cb6f;
const GOLDEN_CELL_STD: u32 = 0x3ced_c19e;

/// One pinned training run on the golden MNIST subset: per-epoch mean
/// clean training loss, clean quantized test error, and the FNV-1a
/// fingerprint of the final float weights.
#[derive(Debug, PartialEq)]
struct TrainPin {
    epoch_losses: [u32; 3],
    clean_error: u32,
    weights_hash: u64,
}

// The two RandBET variants the runs above do not cover, each trained
// direct and at 3 shards. PerturbedOnly uses warm-up 1.9, so its latch
// flips mid-epoch 0: the clean gradient trains until that batch, is
// dropped on it, and is never computed after. Curricular injects from
// step 0 and ramps the training rate over the first half of training.

/// PerturbedOnly, warm-up 1.9, single-model path.
const GOLDEN_PERTURBED_ONLY: TrainPin = TrainPin {
    epoch_losses: [0x4003_2ac3, 0x3f9a_a0be, 0x3f90_5b53],
    clean_error: 0x3e61_47ae,
    weights_hash: 0x1c4c_3023_e1f4_952f,
};

/// PerturbedOnly, warm-up 1.9, `DataParallel::new(3)`.
const GOLDEN_PERTURBED_ONLY_DP3: TrainPin = TrainPin {
    epoch_losses: [0x4003_2ac3, 0x3f9a_a0be, 0x3f90_5b53],
    clean_error: 0x3e61_47ae,
    weights_hash: 0x4a96_db92_2249_79ff,
};

/// Curricular, warm-up 100, single-model path.
const GOLDEN_CURRICULAR: TrainPin = TrainPin {
    epoch_losses: [0x3fe5_d7ca, 0x3f3f_1ac4, 0x3f2c_cc75],
    clean_error: 0x3d96_2fc9,
    weights_hash: 0x19b3_898e_0afd_e743,
};

/// Curricular, warm-up 100, `DataParallel::new(3)`.
const GOLDEN_CURRICULAR_DP3: TrainPin = TrainPin {
    epoch_losses: [0x3fe5_d7ca, 0x3f3f_1ac4, 0x3f2c_cc76],
    clean_error: 0x3d96_2fc9,
    weights_hash: 0x629e_036a_3251_80c7,
};

// SimpleNet-GN (`common::simplenet_fixture`): the conv pins. Generated
// before conv moved to the implicit-GEMM lowering (weights packed once per
// call, im2col gathered straight into the GEMM's B panels), which left
// every bit in place.

/// FNV-1a fingerprint of the `Model::infer` logits on the first 5 test
/// images.
const GOLDEN_SIMPLENET_LOGITS_HASH: u64 = 0xa87d_ce28_2abd_111f;

/// Loss of one `DataParallel::protocol()` RandBET step.
const GOLDEN_SIMPLENET_STEP_LOSS: u32 = 0x4018_b4e5;

/// FNV-1a fingerprint of that step's reduced (clean + perturbed) gradient.
const GOLDEN_SIMPLENET_STEP_GRADS_HASH: u64 = 0xf67a_e0b0_6ee5_dd02;

/// Per-chip errors and confidences of one `run_sweep` cell (rate 2%, 3
/// chips). The untrained model's errors sit at chance; the confidences
/// carry the logits' bits.
const GOLDEN_SIMPLENET_CELL_ERRORS: [u32; 3] = [0x3f68_0000, 0x3f68_0000, 0x3f68_0000];
const GOLDEN_SIMPLENET_CELL_CONFIDENCES: [u32; 3] = [0x3ef1_03da, 0x3eab_e37a, 0x3ef9_d044];

// ---------------------------------------------------------------------------

/// The golden MNIST subset: the first 600 training and 300 test images of
/// the seed-1 synthetic MNIST.
fn golden_datasets() -> (Dataset, Dataset) {
    let (train_src, test_src) = SynthDataset::Mnist.generate(1);
    let train_idx: Vec<usize> = (0..600).collect();
    let test_idx: Vec<usize> = (0..300).collect();
    let (xt, yt) = train_src.batch(&train_idx);
    let (xe, ye) = test_src.batch(&test_idx);
    (Dataset::new("train", xt, yt, 10), Dataset::new("test", xe, ye, 10))
}

/// The golden RandBET run on the golden MNIST subset (seed-2 MLP, 3
/// epochs, batch 128, `wmax` 0.1, p = 1%) for `variant` at `warmup_loss`.
fn golden_training_report(
    variant: RandBetVariant,
    warmup_loss: f32,
    data_parallel: Option<DataParallel>,
) -> (TrainReport, Model) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;
    let (train_ds, test_ds) = golden_datasets();

    let mut cfg = TrainConfig::new(
        Some(QuantScheme::rquant(8)),
        TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant },
    );
    cfg.epochs = 3;
    cfg.batch_size = 128;
    cfg.augment = AugmentConfig::none();
    cfg.warmup_loss = warmup_loss;
    cfg.data_parallel = data_parallel;
    let report = train(&mut model, &train_ds, &test_ds, &cfg);
    (report, model)
}

/// The Standard golden run, injecting from step 0.
fn golden_standard_report(data_parallel: Option<DataParallel>) -> (TrainReport, Model) {
    golden_training_report(RandBetVariant::Standard, 100.0, data_parallel)
}

/// Per-chip errors of `model` on the golden test subset at p = 1% over 2
/// uniform chips seeded from 1000.
fn golden_chip_errors(model: &Model) -> Vec<f32> {
    let (_, test_ds) = golden_datasets();
    let models = [SweepModel::new("mlp", QuantScheme::rquant(8), model)];
    let axes = [SweepAxis::new("uniform", ChipAxis::uniform(vec![0.01], 2, 1000))];
    run_sweep(&models, &axes, &test_ds, &SweepOptions::default(), None, |_, _| {})
        .robust(0, 0)
        .remove(0)
        .errors
}

/// The variant runs behind the `TrainPin` constants, in declaration order.
fn variant_pin_runs() -> [(&'static str, RandBetVariant, f32, Option<DataParallel>); 4] {
    [
        ("GOLDEN_PERTURBED_ONLY", RandBetVariant::PerturbedOnly, 1.9, None),
        (
            "GOLDEN_PERTURBED_ONLY_DP3",
            RandBetVariant::PerturbedOnly,
            1.9,
            Some(DataParallel::new(3)),
        ),
        ("GOLDEN_CURRICULAR", RandBetVariant::Curricular, 100.0, None),
        ("GOLDEN_CURRICULAR_DP3", RandBetVariant::Curricular, 100.0, Some(DataParallel::new(3))),
    ]
}

fn variant_pin(variant: RandBetVariant, warmup_loss: f32, dp: Option<DataParallel>) -> TrainPin {
    let (report, model) = golden_training_report(variant, warmup_loss, dp);
    assert_eq!(report.bit_errors_started_at, Some(0), "{variant:?}: injection starts in epoch 0");
    TrainPin {
        epoch_losses: bits(&report.epoch_losses).try_into().expect("3 epochs"),
        clean_error: report.clean_error.to_bits(),
        weights_hash: weights_fingerprint(&model),
    }
}

fn fmt_pin(pin: &TrainPin) -> String {
    format!(
        "TrainPin {{ epoch_losses: {}, clean_error: 0x{:08x}, weights_hash: 0x{:016x} }}",
        hex(&pin.epoch_losses),
        pin.clean_error,
        pin.weights_hash
    )
}

fn golden_grid_cell() -> (Vec<f32>, f32, f32) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let model = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
    let (_, test) = SynthDataset::Mnist.generate(0);
    let models = [SweepModel::new("mlp", QuantScheme::rquant(8), &model)];
    let axes = [SweepAxis::new("uniform", ChipAxis::uniform(vec![0.01], 3, 1000))];
    let cell = run_sweep(&models, &axes, &test, &SweepOptions::default(), None, |_, _| {})
        .robust(0, 0)
        .remove(0);
    (cell.errors, cell.mean_error, cell.std_error)
}

fn golden_simplenet_logits() -> u64 {
    let (model, _, test) = common::simplenet_fixture();
    let (x, _) = test.batch_range(0, 5);
    tensors_fingerprint(&[model.infer(&x, Mode::Eval)])
}

fn golden_simplenet_step() -> (f32, u64) {
    let (mut model, train_ds, test_ds) = common::simplenet_fixture();
    let report =
        common::simplenet_randbet_step(&mut model, &train_ds, &test_ds, DataParallel::protocol());
    (report.epoch_losses[0], tensors_fingerprint(&model.grad_tensors()))
}

fn golden_simplenet_cell() -> (Vec<f32>, Vec<f32>) {
    let (model, _, test) = common::simplenet_fixture();
    let models = [SweepModel::new("simplenet", QuantScheme::rquant(8), &model)];
    let axes = [SweepAxis::new("uniform", ChipAxis::uniform(vec![0.02], 3, 1000))];
    let results = run_sweep(&models, &axes, &test, &SweepOptions::default(), None, |_, _| {});
    results.cells().iter().map(|r| (r.error, r.confidence)).unzip()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn hex(values: &[u32]) -> String {
    let items: Vec<String> = values.iter().map(|b| format!("0x{b:08x}")).collect();
    format!("[{}]", items.join(", "))
}

#[test]
fn golden_randbet_trajectory_is_pinned() {
    let (report, model) = golden_standard_report(None);
    assert_eq!(
        bits(&report.epoch_losses),
        GOLDEN_EPOCH_LOSSES,
        "epoch losses drifted; actual {} (see module docs to regenerate)",
        hex(&bits(&report.epoch_losses))
    );
    let final_chips = golden_chip_errors(&model);
    assert_eq!(
        bits(&final_chips),
        GOLDEN_FINAL_EPOCH_CHIP_ERRORS,
        "final-epoch per-chip RErr drifted; actual {}",
        hex(&bits(&final_chips))
    );
    assert_eq!(
        report.clean_error.to_bits(),
        GOLDEN_CLEAN_ERROR,
        "clean error drifted; actual 0x{:08x}",
        report.clean_error.to_bits()
    );
}

/// The data-parallel trajectory is its own pinned contract: the 4-shard
/// gradient split is a different float path than the single-model one, but
/// it must never drift across machines, thread counts, or refactors.
#[test]
fn golden_data_parallel_trajectory_is_pinned() {
    let (report, model) = golden_standard_report(Some(DataParallel::new(4)));
    assert_eq!(
        bits(&report.epoch_losses),
        GOLDEN_DP_EPOCH_LOSSES,
        "data-parallel epoch losses drifted; actual {}",
        hex(&bits(&report.epoch_losses))
    );
    assert_eq!(
        report.clean_error.to_bits(),
        GOLDEN_DP_CLEAN_ERROR,
        "data-parallel clean error drifted; actual 0x{:08x}",
        report.clean_error.to_bits()
    );
    assert_eq!(
        weights_fingerprint(&model),
        GOLDEN_DP_WEIGHTS_HASH,
        "data-parallel final weights drifted; actual 0x{:016x}",
        weights_fingerprint(&model)
    );
}

/// PerturbedOnly's latch-flip gradient drop and Curricular's rate ramp,
/// on both execution paths.
#[test]
fn golden_variant_trajectories_are_pinned() {
    let pins = [
        GOLDEN_PERTURBED_ONLY,
        GOLDEN_PERTURBED_ONLY_DP3,
        GOLDEN_CURRICULAR,
        GOLDEN_CURRICULAR_DP3,
    ];
    for ((name, variant, warmup_loss, dp), expected) in variant_pin_runs().into_iter().zip(pins) {
        let actual = variant_pin(variant, warmup_loss, dp);
        assert_eq!(actual, expected, "{name} drifted; actual {}", fmt_pin(&actual));
    }
}

#[test]
fn golden_campaign_cell_is_pinned() {
    let (errors, mean, std) = golden_grid_cell();
    assert_eq!(
        bits(&errors),
        GOLDEN_CELL_ERRORS,
        "per-chip cell errors drifted; actual {}",
        hex(&bits(&errors))
    );
    assert_eq!(
        mean.to_bits(),
        GOLDEN_CELL_MEAN,
        "cell mean drifted; actual 0x{:08x}",
        mean.to_bits()
    );
    assert_eq!(std.to_bits(), GOLDEN_CELL_STD, "cell std drifted; actual 0x{:08x}", std.to_bits());
}

/// The `Campaign::run` path — pool-sized waves of cells, patterns held as
/// quantized integer images and written into scratch replicas per work
/// item — must reproduce the pinned cell bit-for-bit.
#[test]
fn golden_cell_is_pinned_through_eager_campaign_run() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let model = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
    let (_, test) = SynthDataset::Mnist.generate(0);
    // The exact images `run_sweep` builds for the pinned cell: rquant(8)
    // at rate 1%, chips seeded `1000 + c`.
    let q0 = QuantizedModel::quantize(&model, QuantScheme::rquant(8));
    let images: Vec<QuantizedModel> = (0..3)
        .map(|c| {
            let mut q = q0.clone();
            q.inject(&UniformChip::new(1000 + c).at_rate(0.01));
            q
        })
        .collect();
    let results = Campaign::new(&model, &test).run(&images);
    let errors: Vec<f32> = results.iter().map(|r| r.error).collect();
    assert_eq!(
        bits(&errors),
        GOLDEN_CELL_ERRORS,
        "campaign per-chip errors drifted; actual {}",
        hex(&bits(&errors))
    );
}

/// Full tracing must not move a single golden bit: observability reads
/// clocks but never feeds results. Enabling it process-wide here is safe
/// for the sibling tests for exactly that reason — and doing so means the
/// whole golden suite runs instrumented whenever this test is scheduled
/// first.
#[test]
fn golden_cell_is_pinned_with_tracing_on() {
    bitrobust_obs::init(&bitrobust_obs::ObsConfig {
        level: bitrobust_obs::ObsLevel::Trace,
        ..Default::default()
    });
    let (errors, mean, std) = golden_grid_cell();
    assert_eq!(
        bits(&errors),
        GOLDEN_CELL_ERRORS,
        "BITROBUST_OBS=trace changed per-chip cell errors; actual {}",
        hex(&bits(&errors))
    );
    assert_eq!(mean.to_bits(), GOLDEN_CELL_MEAN);
    assert_eq!(std.to_bits(), GOLDEN_CELL_STD);
    // The instrumentation itself must have observed the run.
    let snap = bitrobust_obs::snapshot();
    assert!(snap.counter("scheduler.items") > 0, "campaign ran uninstrumented");
}

#[test]
fn golden_simplenet_infer_is_pinned() {
    let logits = golden_simplenet_logits();
    assert_eq!(
        logits, GOLDEN_SIMPLENET_LOGITS_HASH,
        "SimpleNet logits drifted; actual 0x{logits:016x}"
    );
}

#[test]
fn golden_simplenet_randbet_step_is_pinned() {
    let (loss, grads) = golden_simplenet_step();
    assert_eq!(
        loss.to_bits(),
        GOLDEN_SIMPLENET_STEP_LOSS,
        "SimpleNet step loss drifted; actual 0x{:08x}",
        loss.to_bits()
    );
    assert_eq!(
        grads, GOLDEN_SIMPLENET_STEP_GRADS_HASH,
        "SimpleNet step gradient drifted; actual 0x{grads:016x}"
    );
}

#[test]
fn golden_simplenet_sweep_cell_is_pinned() {
    let (errors, confidences) = golden_simplenet_cell();
    assert_eq!(
        bits(&errors),
        GOLDEN_SIMPLENET_CELL_ERRORS,
        "SimpleNet per-chip errors drifted; actual {}",
        hex(&bits(&errors))
    );
    assert_eq!(
        bits(&confidences),
        GOLDEN_SIMPLENET_CELL_CONFIDENCES,
        "SimpleNet per-chip confidences drifted; actual {}",
        hex(&bits(&confidences))
    );
}

/// Generator for the pinned constants above (see module docs).
#[test]
#[ignore = "generator: prints current golden values"]
fn print_golden_values() {
    let (report, model) = golden_standard_report(None);
    println!("GOLDEN_EPOCH_LOSSES: {}", hex(&bits(&report.epoch_losses)));
    println!("GOLDEN_FINAL_EPOCH_CHIP_ERRORS: {}", hex(&bits(&golden_chip_errors(&model))));
    println!("GOLDEN_CLEAN_ERROR: 0x{:08x}", report.clean_error.to_bits());

    let (dp_report, dp_model) = golden_standard_report(Some(DataParallel::new(4)));
    println!("GOLDEN_DP_EPOCH_LOSSES: {}", hex(&bits(&dp_report.epoch_losses)));
    println!("GOLDEN_DP_CLEAN_ERROR: 0x{:08x}", dp_report.clean_error.to_bits());
    println!("GOLDEN_DP_WEIGHTS_HASH: 0x{:016x}", weights_fingerprint(&dp_model));

    for (name, variant, warmup_loss, dp) in variant_pin_runs() {
        println!("{name}: {}", fmt_pin(&variant_pin(variant, warmup_loss, dp)));
    }

    let (errors, mean, std) = golden_grid_cell();
    println!("GOLDEN_CELL_ERRORS: {}", hex(&bits(&errors)));
    println!("GOLDEN_CELL_MEAN: 0x{:08x}", mean.to_bits());
    println!("GOLDEN_CELL_STD: 0x{:08x}", std.to_bits());

    println!("GOLDEN_SIMPLENET_LOGITS_HASH: 0x{:016x}", golden_simplenet_logits());
    let (loss, grads) = golden_simplenet_step();
    println!("GOLDEN_SIMPLENET_STEP_LOSS: 0x{:08x}", loss.to_bits());
    println!("GOLDEN_SIMPLENET_STEP_GRADS_HASH: 0x{grads:016x}");
    let (errors, confidences) = golden_simplenet_cell();
    println!("GOLDEN_SIMPLENET_CELL_ERRORS: {}", hex(&bits(&errors)));
    println!("GOLDEN_SIMPLENET_CELL_CONFIDENCES: {}", hex(&bits(&confidences)));
}
