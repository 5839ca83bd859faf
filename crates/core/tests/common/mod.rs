//! Helpers shared between the core integration-test suites.

#![allow(
    dead_code,
    reason = "compiled into every test binary that declares it, and not all of them use every helper"
)]

use bitrobust_biterror::{ChipKind, ProfiledAxis};
use bitrobust_core::{
    build, run_sweep, train, ArchKind, ChipAxis, DataParallel, NormKind, RandBetVariant, SweepAxis,
    SweepModel, SweepOptions, SweepResults, SweepStore, TrainConfig, TrainMethod, TrainReport,
};
use bitrobust_data::{AugmentConfig, Dataset, SynthDataset};
use bitrobust_nn::Model;
use bitrobust_quant::QuantScheme;
use bitrobust_tensor::Tensor;
use rand::SeedableRng;

/// FNV-1a over all parameter bits: a byte-exact weights fingerprint.
///
/// Used by both the determinism thread matrix and the golden pinning
/// tests — the committed `GOLDEN_DP_WEIGHTS_HASH` is a value of this
/// function, so any change here invalidates that constant.
pub fn weights_fingerprint(model: &Model) -> u64 {
    tensors_fingerprint(&model.param_tensors())
}

/// FNV-1a over the bits of `tensors`, in order.
pub fn tensors_fingerprint(tensors: &[Tensor]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for t in tensors {
        for v in t.data() {
            for byte in v.to_bits().to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

// The conv fixture: the paper's main model, so the pins and the thread
// matrix run every conv pass (forward, dW, dX) at 16x16, 8x8 and 4x4,
// with im2col depths from 27 up to 576 (> one K block of the GEMM).

/// A seed-0 SimpleNet-GN for 16x16 RGB, 16 synth-CIFAR10 training and 64
/// test examples.
pub fn simplenet_fixture() -> (Model, Dataset, Dataset) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let model = build(ArchKind::SimpleNet, [3, 16, 16], 10, NormKind::Group, &mut rng).model;
    let (train_ds, test_ds) = SynthDataset::Cifar10.generate(0);
    let prefix = |ds: &Dataset, n: usize| {
        let (x, y) = ds.batch_range(0, n);
        Dataset::new(ds.name(), x, y, ds.n_classes())
    };
    (model, prefix(&train_ds, 16), prefix(&test_ds, 64))
}

/// One Alg. 1 step on the fixture: the whole training split is one
/// mini-batch, with bit errors injected from step 0. Afterwards `model`
/// holds the step's summed (clean + perturbed) reduced gradient.
pub fn simplenet_randbet_step(
    model: &mut Model,
    train_ds: &Dataset,
    test_ds: &Dataset,
    dp: DataParallel,
) -> TrainReport {
    let mut cfg = TrainConfig::new(
        Some(QuantScheme::rquant(8)),
        TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
    );
    cfg.epochs = 1;
    cfg.batch_size = train_ds.len();
    cfg.augment = AugmentConfig::none();
    cfg.warmup_loss = f32::INFINITY;
    cfg.data_parallel = Some(dp);
    train(model, train_ds, test_ds, &cfg)
}

// The canonical sweep fixture — ONE plan shared by the determinism thread
// matrix and the kill-and-resume suite, so a protocol tweak can never
// desynchronize the two. Two seed-0 MLPs × (Chip1 profiled axis + uniform
// axis) = 16 cells.

/// The fixture's models and evaluation dataset.
pub fn sweep_fixture_models() -> (Model, Model, Dataset) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let a = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
    let b = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
    let (_, test) = SynthDataset::Mnist.generate(0);
    (a, b, test)
}

/// The fixture's axes: a profiled voltage/offset axis plus a uniform axis.
pub fn sweep_fixture_axes() -> Vec<SweepAxis> {
    vec![
        SweepAxis::new(
            "profiled",
            ChipAxis::Profiled(ProfiledAxis::tab5(ChipKind::Chip1, 0, vec![0.01, 0.02], 2)),
        ),
        SweepAxis::new("uniform", ChipAxis::uniform(vec![0.001, 0.01], 2, 1000)),
    ]
}

/// Total cells of the fixture plan.
pub const SWEEP_FIXTURE_CELLS: usize = 16;

/// Runs the fixture plan. `on_evaluated(n)` fires after the `n`-th freshly
/// evaluated (non-resumed) cell — the kill worker uses it to die mid-run.
pub fn run_sweep_fixture(
    models: (&Model, &Model),
    test: &Dataset,
    store: Option<&mut SweepStore>,
    mut on_evaluated: impl FnMut(usize),
) -> SweepResults {
    let scheme = QuantScheme::rquant(8);
    let entries = vec![
        SweepModel::new("mlp-a", scheme, models.0),
        SweepModel::new("mlp-b", scheme, models.1),
    ];
    let mut evaluated = 0usize;
    run_sweep(&entries, &sweep_fixture_axes(), test, &SweepOptions::default(), store, |cell, _| {
        if !cell.resumed {
            evaluated += 1;
            on_evaluated(evaluated);
        }
    })
}
