//! Integration tests of profiled-chip evaluation: structure, persistence,
//! and the full model → memory → errors → accuracy path.

use bitrobust_biterror::{ChipKind, ErrorInjector, ProfiledAxis, ProfiledChip};
use bitrobust_core::{
    build, robust_eval, train, ArchKind, ChipAxis, NormKind, TrainConfig, TrainMethod,
};
use bitrobust_data::{AugmentConfig, Dataset, SynthDataset};
use bitrobust_nn::Model;
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

fn trained_model() -> (Model, Dataset) {
    let (train_ds, test_ds) = SynthDataset::Mnist.generate(31);
    let subset: Vec<usize> = (0..800).collect();
    let (x, y) = train_ds.batch(&subset);
    let small = Dataset::new("train", x, y, 10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;
    let mut cfg = TrainConfig::new(Some(QuantScheme::rquant(8)), TrainMethod::Normal);
    cfg.epochs = 6;
    cfg.augment = AugmentConfig::none();
    let report = train(&mut model, &small, &test_ds, &cfg);
    assert!(report.clean_error < 0.15);
    (model, test_ds)
}

#[test]
fn all_chip_kinds_hit_their_target_rates() {
    for kind in ChipKind::all() {
        let chip = ProfiledChip::synthesize(kind, 5);
        for target in [0.002, 0.01, 0.03] {
            let v = chip.voltage_for_rate(target);
            let measured = chip.bit_error_rate_at(v);
            assert!(
                (measured - target).abs() < target * 0.5 + 2e-4,
                "{}: {measured} vs {target}",
                kind.name()
            );
        }
    }
}

#[test]
fn chip2_is_column_biased_and_0to1_dominant() {
    let chip = ProfiledChip::synthesize(ChipKind::Chip2, 6);
    let v = chip.voltage_for_rate(0.03);
    let stats = chip.stats_at(v);
    assert!(stats.rate_0_to_1 > 1.5 * stats.rate_1_to_0, "0-to-1 flips must dominate on chip 2");
}

#[test]
fn profiled_rerr_is_worse_at_lower_voltage() {
    let (model, test_ds) = trained_model();
    let scheme = QuantScheme::rquant(8);
    // Chip 1 at the voltages of p = 0.5% and p = 6%, one mapping (offset 0).
    let axis = ProfiledAxis::tab5(ChipKind::Chip1, 7, vec![0.005, 0.06], 1);
    let per_rate = robust_eval(&model, scheme, &test_ds, ChipAxis::Profiled(axis));
    let (at_hi, at_lo) = (&per_rate[0], &per_rate[1]);
    assert!(
        at_lo.mean_error >= at_hi.mean_error,
        "lower voltage (more errors) must not improve accuracy: {} vs {}",
        at_lo.mean_error,
        at_hi.mean_error
    );
}

#[test]
fn offsets_simulate_different_mappings() {
    let (model, test_ds) = trained_model();
    let scheme = QuantScheme::rquant(8);
    let axis = ProfiledAxis {
        offset_stride: 100_003,
        ..ProfiledAxis::tab5(ChipKind::Chip2, 8, vec![0.02], 4)
    };
    let r = robust_eval(&model, scheme, &test_ds, ChipAxis::Profiled(axis)).remove(0);
    assert_eq!(r.errors.len(), 4);
    let distinct: std::collections::BTreeSet<u32> = r.errors.iter().map(|e| e.to_bits()).collect();
    assert!(distinct.len() > 1, "different mappings must hit different weights");
}

#[test]
fn persistent_only_injection_is_weaker() {
    let chip = ProfiledChip::synthesize(ChipKind::Chip3, 9);
    let v = chip.voltage_for_rate(0.05);
    let mut all = vec![0u8; 30_000];
    let mut pers = vec![0u8; 30_000];
    chip.at_voltage(v, 0, false).inject(&mut all, 8, 0);
    chip.at_voltage(v, 0, true).inject(&mut pers, 8, 0);
    let flips_all: u32 = all.iter().map(|w| w.count_ones()).sum();
    let flips_pers: u32 = pers.iter().map(|w| w.count_ones()).sum();
    assert!(flips_pers > 0 && flips_pers < flips_all);
}

#[test]
fn stored_data_interacts_with_stuck_values() {
    // A profiled chip flips a bit only when the stored value differs from
    // the stuck value, so complementary data yields complementary flips.
    let chip = ProfiledChip::synthesize(ChipKind::Chip1, 10);
    let v = chip.voltage_for_rate(0.03);
    let zeros_in = vec![0x00u8; 10_000];
    let ones_in = vec![0xFFu8; 10_000];
    let mut zeros = zeros_in.clone();
    let mut ones = ones_in.clone();
    chip.at_voltage(v, 0, false).inject(&mut zeros, 8, 0);
    chip.at_voltage(v, 0, false).inject(&mut ones, 8, 0);
    for (i, (&z, &o)) in zeros.iter().zip(&ones).enumerate() {
        let flips_z = z; // 0 -> 1 flips
        let flips_o = !o; // 1 -> 0 flips
        assert_eq!(flips_z & flips_o, 0, "cell {i} cannot flip both directions at once");
    }
}
