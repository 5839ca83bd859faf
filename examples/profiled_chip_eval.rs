//! Deploy-time check on specific chips: evaluate a trained model against
//! synthesized *profiled* chips with realistic spatial error structure
//! (column-aligned faults, 0-to-1 bias), at several memory mappings.
//!
//! ```text
//! cargo run --release --example profiled_chip_eval
//! ```

use bitrobust_biterror::{ChipKind, ProfiledAxis};
use bitrobust_core::{
    build, robust_eval, train, ArchKind, ChipAxis, NormKind, RandBetVariant, TrainConfig,
    TrainMethod,
};
use bitrobust_data::{AugmentConfig, SynthDataset};
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

fn main() {
    let (train_ds, test_ds) = SynthDataset::Mnist.generate(4);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let built = build(ArchKind::SimpleNet, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;

    let scheme = QuantScheme::rquant(8);
    let mut cfg = TrainConfig::new(
        Some(scheme),
        TrainMethod::RandBet { wmax: Some(0.1), p: 0.05, variant: RandBetVariant::Standard },
    );
    cfg.epochs = 10;
    cfg.augment = AugmentConfig::mnist();
    println!("training a RandBET model (trained ONLY on uniform random errors)...");
    let report = train(&mut model, &train_ds, &test_ds, &cfg);
    println!("clean error {:.2}%\n", 100.0 * report.clean_error);

    for kind in ChipKind::all() {
        // Each target rate resolves to an operating voltage; average over
        // four different weight-to-memory mappings at each.
        let axis = ProfiledAxis {
            offset_stride: 99_991,
            ..ProfiledAxis::tab5(kind, 1, vec![0.005, 0.02], 4)
        };
        let chip = axis.synthesize();
        let voltages = axis.voltages(&chip);
        println!("{} ({} bit cells):", kind.name(), chip.n_cells());
        let per_rate = robust_eval(&model, scheme, &test_ds, ChipAxis::Profiled(axis));
        for (&v, r) in voltages.iter().zip(&per_rate) {
            let stats = chip.stats_at(v);
            println!(
                "  V/Vmin {v:.3}: p {:.2}% (0->1 {:.2}%, 1->0 {:.2}%) -> RErr {:.2}% ± {:.2}",
                100.0 * stats.rate,
                100.0 * stats.rate_0_to_1,
                100.0 * stats.rate_1_to_0,
                100.0 * r.mean_error,
                100.0 * r.std_error,
            );
        }
    }
    println!("\nRandBET generalizes across chips without per-chip profiling or retraining.");
}
