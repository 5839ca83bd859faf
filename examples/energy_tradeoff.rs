//! Energy/accuracy trade-off analysis: combine a measured RErr curve with
//! the SRAM voltage and energy models to choose an operating point.
//!
//! ```text
//! cargo run --release --example energy_tradeoff
//! ```

use bitrobust_core::{
    best_saving_within, build, energy_tradeoff, robust_eval, train, ArchKind, ChipAxis, NormKind,
    RandBetVariant, TrainConfig, TrainMethod,
};
use bitrobust_data::{AugmentConfig, SynthDataset};
use bitrobust_quant::QuantScheme;
use bitrobust_sram::{EnergyModel, VoltageErrorModel};
use rand::SeedableRng;

fn main() {
    let (train_ds, test_ds) = SynthDataset::Mnist.generate(5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let built = build(ArchKind::SimpleNet, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;

    let scheme = QuantScheme::rquant(8);
    let mut cfg = TrainConfig::new(
        Some(scheme),
        TrainMethod::RandBet { wmax: Some(0.1), p: 0.05, variant: RandBetVariant::Standard },
    );
    cfg.epochs = 10;
    cfg.augment = AugmentConfig::mnist();
    println!("training...");
    let report = train(&mut model, &train_ds, &test_ds, &cfg);
    let clean = report.clean_error as f64;
    println!("clean error {:.2}%\n", 100.0 * clean);

    // Measure the RErr curve.
    let ps = vec![1e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1];
    let per_rate = robust_eval(&model, scheme, &test_ds, ChipAxis::uniform(ps.clone(), 10, 42));
    let curve: Vec<(f64, f64)> =
        ps.iter().zip(&per_rate).map(|(&p, r)| (p, r.mean_error as f64)).collect();

    // Map onto voltage/energy.
    let volts = VoltageErrorModel::chandramoorthy14nm();
    let energy = EnergyModel::default();
    let points = energy_tradeoff(&curve, &volts, &energy);
    println!("{:>8} {:>8} {:>13} {:>9}", "p (%)", "V/Vmin", "energy save", "RErr (%)");
    for pt in &points {
        println!(
            "{:>8.2} {:>8.3} {:>12.1}% {:>9.2}",
            100.0 * pt.p,
            pt.voltage,
            100.0 * pt.energy_saving,
            100.0 * pt.robust_error
        );
    }

    for budget in [0.01, 0.025] {
        match best_saving_within(&points, clean, budget) {
            Some(best) => println!(
                "\nbest saving within +{:.1}% error: {:.1}% energy at p = {:.2}% (V/Vmin = {:.3})",
                100.0 * budget,
                100.0 * best.energy_saving,
                100.0 * best.p,
                best.voltage
            ),
            None => println!("\nno operating point within +{:.1}% error", 100.0 * budget),
        }
    }
}
