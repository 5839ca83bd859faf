//! Smoke test mirroring `examples/quickstart.rs` end-to-end at reduced
//! scale: train the quickstart's conv net (SimpleNet + GroupNorm) with
//! RandBET on a small synthetic dataset, then check the paper's headline
//! claim — under random bit errors the RandBET model beats a baseline
//! trained without injection, while giving up little clean accuracy.

use bitrobust_core::{
    build, robust_eval, train, ArchKind, ChipAxis, NormKind, RandBetVariant, TrainConfig,
    TrainMethod,
};
use bitrobust_data::{AugmentConfig, Dataset, SynthDataset};
use bitrobust_nn::Model;
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

const EPOCHS: usize = 4;
const TRAIN_SUBSET: usize = 800;
const EVAL_RATE: f64 = 0.08;
const N_CHIPS: usize = 6;

fn quickstart_datasets() -> (Dataset, Dataset) {
    let (train_ds, test_ds) = SynthDataset::Mnist.generate(0);
    // The example trains on the full split for 10 epochs; the smoke test
    // subsets it to stay fast while keeping the claim measurable.
    let subset: Vec<usize> = (0..TRAIN_SUBSET).collect();
    let (x, y) = train_ds.batch(&subset);
    (Dataset::new("train", x, y, train_ds.n_classes()), test_ds)
}

/// The quickstart pipeline: build SimpleNet, train with `method`, return
/// the model and its clean test error.
fn quickstart_train(method: TrainMethod) -> (Model, f32, Dataset) {
    let (train_ds, test_ds) = quickstart_datasets();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let built = build(ArchKind::SimpleNet, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;
    let mut cfg = TrainConfig::new(Some(QuantScheme::rquant(8)), method);
    cfg.epochs = EPOCHS;
    cfg.augment = AugmentConfig::mnist();
    cfg.warmup_loss = 100.0; // short schedule: inject from the first step
    let report = train(&mut model, &train_ds, &test_ds, &cfg);
    (model, report.clean_error, test_ds)
}

#[test]
fn quickstart_randbet_beats_uninjected_baseline() {
    let scheme = QuantScheme::rquant(8);

    let (baseline, baseline_err, test_ds) = quickstart_train(TrainMethod::Normal);
    let (randbet, randbet_err, _) = quickstart_train(TrainMethod::RandBet {
        wmax: Some(0.2),
        p: EVAL_RATE,
        variant: RandBetVariant::Standard,
    });

    // Both models must actually learn the task...
    assert!(baseline_err < 0.25, "baseline failed to train: clean error {baseline_err}");
    // ...and RandBET's clean-accuracy cost must stay moderate.
    assert!(randbet_err < baseline_err + 0.15, "RandBET clean error too high: {randbet_err}");

    // The headline claim: at the trained error rate, the RandBET model's
    // robust error is clearly below the uninjected baseline's.
    let axis = ChipAxis::uniform(vec![EVAL_RATE], N_CHIPS, 42);
    let r_base = robust_eval(&baseline, scheme, &test_ds, axis.clone()).remove(0);
    let r_randbet = robust_eval(&randbet, scheme, &test_ds, axis).remove(0);
    assert!(
        r_randbet.mean_error < r_base.mean_error - 0.05,
        "RandBET must beat the uninjected baseline at p={EVAL_RATE}: \
         RErr {:.4} (RandBET) vs {:.4} (baseline)",
        r_randbet.mean_error,
        r_base.mean_error
    );

    // Robust error can exceed clean error but must stay a real error rate.
    assert!(r_randbet.mean_error >= randbet_err - 0.05);
    assert!(r_randbet.mean_error <= 1.0 && r_base.mean_error <= 1.0);
}
