//! **Extension (Sec. 1 argument)** — SECDED ECC vs training-time
//! robustness.
//!
//! The paper dismisses classic ECC with a one-line probability argument:
//! at `p = 1%`, 13.5% of 64-bit words hold two or more errors, which
//! SECDED cannot correct. This experiment makes the comparison concrete:
//! RErr of an `RQUANT` model with SECDED protection vs a `RANDBET` model
//! with none, across bit error rates.

use bitrobust_biterror::UniformChip;
use bitrobust_core::{
    apply_secded, multi_error_probability, robust_eval, Campaign, DoubleErrorPolicy,
    QuantizedModel, RandBetVariant, SecdedConfig, TrainMethod,
};
use bitrobust_experiments::{
    dataset_pair, pct, protocol_axis, zoo_model, DatasetKind, ExpOptions, Table, CHIP_SEED,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);
    let ps = [1e-3, 5e-3, 1e-2, 2.5e-2];

    // The analytic argument.
    println!("Probability of >= 2 bit errors per word (SECDED-uncorrectable):");
    let mut table = Table::new(&["p %", "64-bit word", "72-bit word (with parity)"]);
    for p in [1e-3, 5e-3, 1e-2, 2.5e-2, 5e-2] {
        table.row_owned(vec![
            format!("{:.2}", 100.0 * p),
            format!("{:.3}%", 100.0 * multi_error_probability(p, 64)),
            format!("{:.3}%", 100.0 * multi_error_probability(p, 72)),
        ]);
    }
    println!("{}", table.render());
    println!("(Paper: 13.5% at p = 1% for 64-bit words.)\n");

    // Empirical comparison.
    let rq_spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), TrainMethod::Normal);
    let (rquant, _) = zoo_model(&rq_spec, opts.no_cache);

    let rb_method =
        TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard };
    let rb_spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), rb_method);
    let (randbet, _) = zoo_model(&rb_spec, opts.no_cache);

    let mut header = vec!["configuration".to_string()];
    header.extend(ps.iter().map(|p| format!("RErr p={:.1}%", 100.0 * p)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    // RQuant, no protection.
    let mut row = vec!["RQUANT, no ECC".to_string()];
    row.extend(
        robust_eval(&rquant, scheme, &test_ds, protocol_axis(&ps, opts.chips))
            .iter()
            .map(|r| pct(r.mean_error as f64)),
    );
    table.row_owned(row);

    // RQuant with SECDED (both double-error policies).
    for policy in [DoubleErrorPolicy::Leave, DoubleErrorPolicy::ZeroWord] {
        let cfg = SecdedConfig { policy, ..Default::default() };
        let mut row = vec![format!("RQUANT + SECDED ({policy:?})")];
        for &p in &ps {
            row.push(pct(secded_rerr(&rquant, scheme, &test_ds, p, opts.chips, &cfg)));
        }
        table.row_owned(row);
    }

    // RandBET, no protection.
    let mut row = vec!["RANDBET 0.1 p=1%, no ECC".to_string()];
    row.extend(
        robust_eval(&randbet, scheme, &test_ds, protocol_axis(&ps, opts.chips))
            .iter()
            .map(|r| pct(r.mean_error as f64)),
    );
    table.row_owned(row);

    println!("Empirical comparison (CIFAR10 stand-in):\n{}", table.render());
    println!("Expected shape: SECDED rescues low rates but degrades as multi-error words");
    println!("dominate; RandBET needs no decoder, no parity storage, and no extra access");
    println!("energy, and keeps working at high rates.");
    bitrobust_experiments::finish_obs();
}

/// Mean RErr over the shared chips after SECDED correction: each chip's
/// injected image is decoded against the clean one before evaluation.
fn secded_rerr(
    model: &bitrobust_nn::Model,
    scheme: QuantScheme,
    test_ds: &bitrobust_data::Dataset,
    p: f64,
    chips: usize,
    cfg: &SecdedConfig,
) -> f64 {
    let q0 = QuantizedModel::quantize(model, scheme);
    let results = Campaign::new(model, test_ds).run_cells(chips, |c| {
        let mut q = q0.clone();
        q.inject(&UniformChip::new(CHIP_SEED + c as u64).at_rate(p));
        let _ = apply_secded(&q0, &mut q, cfg);
        (0, q)
    });
    results.iter().map(|r| r.error as f64).sum::<f64>() / chips as f64
}
