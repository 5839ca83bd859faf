//! Quickstart: train a small DNN with random bit error training (RandBET),
//! then measure its robustness to low-voltage bit errors.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bitrobust_core::{
    build, robust_eval, train, ArchKind, ChipAxis, NormKind, RandBetVariant, TrainConfig,
    TrainMethod,
};
use bitrobust_data::{AugmentConfig, SynthDataset};
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

fn main() {
    // 1. Data: a synthetic MNIST-like task (deterministic from the seed).
    let (train_ds, test_ds) = SynthDataset::Mnist.generate(0);

    // 2. Model: a small conv net with GroupNorm (BatchNorm is fragile under
    //    weight bit errors — see the tab10_batchnorm experiment).
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let built = build(ArchKind::SimpleNet, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;

    // 3. Train with the full stack: robust quantization (RQuant), weight
    //    clipping (wmax = 0.1), and random bit errors at p = 5% per step.
    let scheme = QuantScheme::rquant(8);
    let method =
        TrainMethod::RandBet { wmax: Some(0.1), p: 0.05, variant: RandBetVariant::Standard };
    let mut cfg = TrainConfig::new(Some(scheme), method);
    cfg.epochs = 10;
    cfg.augment = AugmentConfig::mnist();
    println!("training (10 epochs)...");
    let report = train(&mut model, &train_ds, &test_ds, &cfg);
    println!(
        "clean test error {:.2}% (confidence {:.1}%)\n",
        100.0 * report.clean_error,
        100.0 * report.clean_confidence
    );

    // 4. Evaluate robustness: inject random bit errors into the quantized
    //    weights of 10 simulated chips per rate.
    println!("bit error rate p -> robust test error (RErr):");
    let ps = vec![0.001, 0.01, 0.05, 0.1];
    let per_rate = robust_eval(&model, scheme, &test_ds, ChipAxis::uniform(ps.clone(), 10, 42));
    for (p, r) in ps.iter().zip(&per_rate) {
        println!(
            "  p = {:>5.1}% -> RErr {:.2}% ± {:.2}",
            100.0 * p,
            100.0 * r.mean_error,
            100.0 * r.std_error
        );
    }
    println!("\nA normally trained model collapses near p = 5%; RandBET holds.");
}
