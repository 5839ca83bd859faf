//! End-to-end pipeline tests: train → quantize → inject → evaluate,
//! exercising every crate in the workspace together.

use bitrobust_biterror::UniformChip;
use bitrobust_core::{
    build, evaluate, quantized_error, robust_eval, train, ArchKind, ChipAxis, NormKind,
    QuantizedModel, TrainConfig, TrainMethod,
};
use bitrobust_data::{AugmentConfig, Dataset, SynthDataset};
use bitrobust_nn::Model;
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

fn trained_mnist_model() -> (Model, Dataset) {
    let (train_ds, test_ds) = SynthDataset::Mnist.generate(11);
    let subset: Vec<usize> = (0..800).collect();
    let (x, y) = train_ds.batch(&subset);
    let small_train = Dataset::new("train", x, y, 10);

    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;
    let mut cfg = TrainConfig::new(Some(QuantScheme::rquant(8)), TrainMethod::Normal);
    cfg.epochs = 6;
    cfg.augment = AugmentConfig::none();
    let report = train(&mut model, &small_train, &test_ds, &cfg);
    assert!(report.clean_error < 0.15, "model must learn, got {}", report.clean_error);
    (model, test_ds)
}

#[test]
fn rerr_grows_with_bit_error_rate() {
    let (model, test_ds) = trained_mnist_model();
    let scheme = QuantScheme::rquant(8);
    let axis = ChipAxis::uniform(vec![0.0, 0.01, 0.05, 0.15], 5, 42);
    let mut last = 0.0f32;
    let mut increased = 0;
    for r in robust_eval(&model, scheme, &test_ds, axis) {
        assert!(
            r.mean_error >= last - 0.02,
            "RErr should not drop much: {} -> {}",
            last,
            r.mean_error
        );
        if r.mean_error > last {
            increased += 1;
        }
        last = r.mean_error;
    }
    assert!(increased >= 2, "RErr must grow over the sweep");
    assert!(last > 0.3, "p = 15% should be devastating for a normally-trained model, got {last}");
}

#[test]
fn quantization_loses_little_accuracy_at_8_bit() {
    let (model, test_ds) = trained_mnist_model();
    let float_err = evaluate(&model, &test_ds).error;
    let q8 = quantized_error(&model, QuantScheme::rquant(8), &test_ds).error;
    assert!(
        (q8 - float_err).abs() < 0.02,
        "8-bit quantization must be nearly free: {float_err} vs {q8}"
    );
}

#[test]
fn robust_eval_restores_float_weights_exactly() {
    let (model, test_ds) = trained_mnist_model();
    let before = model.param_tensors();
    let _ =
        robust_eval(&model, QuantScheme::rquant(8), &test_ds, ChipAxis::uniform(vec![0.05], 3, 7));
    let after = model.param_tensors();
    assert_eq!(before, after);
}

#[test]
fn model_level_subset_property() {
    // Flips at p' <= p on the same chip are a subset at the whole-model
    // level, so raising the voltage can only remove errors.
    let (model, _) = trained_mnist_model();
    let scheme = QuantScheme::rquant(8);
    let q0 = QuantizedModel::quantize(&model, scheme);
    let chip = UniformChip::new(1234);
    let mut q_low = q0.clone();
    q_low.inject(&chip.at_rate(0.01));
    let mut q_high = q0.clone();
    q_high.inject(&chip.at_rate(0.05));
    for ((t0, tl), th) in q0.tensors().iter().zip(q_low.tensors()).zip(q_high.tensors()) {
        let mask = t0.live_mask();
        for ((w0, wl), wh) in t0.words().iter().zip(tl.words()).zip(th.words()) {
            let low_flips = (w0 ^ wl) & mask;
            let high_flips = (w0 ^ wh) & mask;
            assert_eq!(low_flips & !high_flips, 0, "low-rate flips must be a subset");
        }
    }
}

#[test]
fn different_chips_give_different_rerr_samples() {
    let (model, test_ds) = trained_mnist_model();
    let axis = ChipAxis::uniform(vec![0.1], 8, 999);
    let r = robust_eval(&model, QuantScheme::rquant(8), &test_ds, axis).remove(0);
    assert_eq!(r.errors.len(), 8);
    let distinct: std::collections::BTreeSet<u32> = r.errors.iter().map(|e| e.to_bits()).collect();
    assert!(distinct.len() > 1, "chips must produce varied errors");
    assert!(r.std_error > 0.0);
}

#[test]
fn lower_precision_is_not_more_robust_for_a_normal_model() {
    // At the same p, a 4-bit quantization of an 8-bit-trained model suffers
    // at least comparably — each flip is a larger fraction of the range.
    let (model, test_ds) = trained_mnist_model();
    let axis = ChipAxis::uniform(vec![0.05], 5, 77);
    let r8 = robust_eval(&model, QuantScheme::rquant(8), &test_ds, axis.clone()).remove(0);
    let r4 = robust_eval(&model, QuantScheme::rquant(4), &test_ds, axis).remove(0);
    assert!(
        r4.mean_error > r8.mean_error - 0.05,
        "4-bit should not be much more robust: {} vs {}",
        r4.mean_error,
        r8.mean_error
    );
}
