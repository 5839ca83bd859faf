//! **Tab. 3 / Tab. 16** — Fixed-pattern bit error training (`PATTBET`)
//! does not generalize.
//!
//! Trains on one fixed bit error pattern (the co-design approach of
//! Kim et al., 2018 / Koppula et al., 2019) and evaluates:
//!
//! * on the *same* pattern at the trained rate and at a lower rate (the
//!   lower-rate errors are a subset of the trained ones — and still break
//!   the model);
//! * on completely random patterns (catastrophic).
//!
//! The `RANDBET` row shows the contrast: trained on fresh random errors,
//! it generalizes to both.

use bitrobust_core::{robust_eval, ChipAxis, PattPattern, RandBetVariant, TrainMethod};
use bitrobust_experiments::{
    dataset_pair, pct, protocol_axis, zoo_model, DatasetKind, ExpOptions, Table,
};
use bitrobust_quant::QuantScheme;

const FIXED_CHIP_SEED: u64 = 777_777;

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);
    let (p_train, p_low) = (0.025, 0.01);

    let configs: Vec<(String, TrainMethod)> = vec![
        (
            format!("PATTBET p={:.1}%", 100.0 * p_train),
            TrainMethod::PattBet {
                wmax: None,
                pattern: PattPattern::Uniform { seed: FIXED_CHIP_SEED, p: p_train },
            },
        ),
        (
            format!("PATTBET 0.15 p={:.1}%", 100.0 * p_train),
            TrainMethod::PattBet {
                wmax: Some(0.15),
                pattern: PattPattern::Uniform { seed: FIXED_CHIP_SEED, p: p_train },
            },
        ),
        (
            format!("RANDBET 0.15 p={:.1}%", 100.0 * p_train),
            TrainMethod::RandBet {
                wmax: Some(0.15),
                p: p_train,
                variant: RandBetVariant::Standard,
            },
        ),
    ];

    let mut table = Table::new(&[
        "model",
        "Err %",
        "same patt p=1%",
        "same patt p=2.5%",
        "random p=1%",
        "random p=2.5%",
    ]);
    for (name, method) in configs {
        let spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method);
        let (model, report) = zoo_model(&spec, opts.no_cache);

        // Evaluation on the exact trained pattern: a one-chip axis whose
        // chip 0 is the trained chip. Lower rates are subsets of the
        // trained pattern by construction.
        let fixed = ChipAxis::uniform(vec![p_low, p_train], 1, FIXED_CHIP_SEED);
        let same = robust_eval(&model, scheme, &test_ds, fixed);
        // Evaluation on unseen random patterns.
        let random =
            robust_eval(&model, scheme, &test_ds, protocol_axis(&[p_low, p_train], opts.chips));
        table.row_owned(vec![
            name,
            pct(report.clean_error as f64),
            pct(same[0].mean_error as f64),
            pct(same[1].mean_error as f64),
            pct(random[0].mean_error as f64),
            pct(random[1].mean_error as f64),
        ]);
    }
    println!(
        "Tab. 3 (CIFAR10 stand-in, m = 8 bit, fixed pattern seed {FIXED_CHIP_SEED}):\n{}",
        table.render()
    );
    println!("Expected shape (paper): PATTBET is good on its trained pattern but degrades on the");
    println!("same pattern at lower rate and fails on random patterns; RANDBET handles all.");
    bitrobust_experiments::finish_obs();
}
