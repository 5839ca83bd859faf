//! Low-voltage operating sweep: how far can the SRAM supply voltage drop
//! before a trained model's accuracy collapses — and how much energy does
//! each step save?
//!
//! ```text
//! cargo run --release --example low_voltage_sweep
//! ```

use bitrobust_core::{
    build, robust_eval, train, ArchKind, ChipAxis, NormKind, RandBetVariant, TrainConfig,
    TrainMethod,
};
use bitrobust_data::{AugmentConfig, SynthDataset};
use bitrobust_quant::QuantScheme;
use bitrobust_sram::{EnergyModel, VoltageErrorModel};
use rand::SeedableRng;

fn main() {
    let (train_ds, test_ds) = SynthDataset::Mnist.generate(3);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let built = build(ArchKind::SimpleNet, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;

    let scheme = QuantScheme::rquant(8);
    let mut cfg = TrainConfig::new(
        Some(scheme),
        TrainMethod::RandBet { wmax: Some(0.1), p: 0.05, variant: RandBetVariant::Standard },
    );
    cfg.epochs = 10;
    cfg.augment = AugmentConfig::mnist();
    println!("training a RandBET model...");
    let report = train(&mut model, &train_ds, &test_ds, &cfg);
    println!("clean error {:.2}%\n", 100.0 * report.clean_error);

    let volts = VoltageErrorModel::chandramoorthy14nm();
    let energy = EnergyModel::default();

    let vs: Vec<f64> = (0..8).map(|i| 1.0 - 0.03 * i as f64).collect();
    let ps: Vec<f64> = vs.iter().map(|&v| volts.rate_at(v)).collect();
    let per_rate = robust_eval(&model, scheme, &test_ds, ChipAxis::uniform(ps.clone(), 10, 42));
    println!("{:>7} {:>10} {:>12} {:>10}", "V/Vmin", "p (%)", "energy save", "RErr (%)");
    for ((&v, p), r) in vs.iter().zip(&ps).zip(&per_rate) {
        println!(
            "{v:>7.3} {:>10.4} {:>11.1}% {:>10.2}",
            100.0 * p,
            100.0 * energy.saving_at(v),
            100.0 * r.mean_error
        );
    }
    println!("\nPick the lowest voltage whose RErr is acceptable; the energy saving is free.");
}
