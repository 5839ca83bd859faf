//! **Extension (design-choice ablations)** — Which parts of Alg. 1 matter?
//!
//! 1. *Clean + perturbed vs perturbed-only loss*: the paper keeps the clean
//!    term in Eq. (2) "to avoid an increase in (clean) test error and
//!    stabilize training". The `PerturbedOnly` ablation drops it.
//! 2. *Warm-up*: bit error injection normally starts once the clean loss
//!    falls below 1.75 ("introducing bit errors right from the start may
//!    prevent the DNN from converging"); the no-warm-up ablation injects
//!    from step one.

use bitrobust_core::{robust_eval, RandBetVariant, TrainMethod};
use bitrobust_experiments::{
    dataset_pair, pct, pct_pm, protocol_axis, zoo_model, DatasetKind, ExpOptions, Table,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (train_ds, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);
    let ps = [1e-3, 1e-2];
    let p_train = 0.01;

    let mut header = vec!["model".to_string(), "Err %".to_string(), "inject from".to_string()];
    header.extend(ps.iter().map(|p| format!("RErr p={:.1}%", 100.0 * p)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    let configs: Vec<(&str, RandBetVariant, bool)> = vec![
        ("RANDBET (Alg. 1)", RandBetVariant::Standard, false),
        ("perturbed-only loss", RandBetVariant::PerturbedOnly, false),
        ("no warm-up", RandBetVariant::Standard, true),
    ];

    for (name, variant, no_warmup) in configs {
        let method = TrainMethod::RandBet { wmax: Some(0.1), p: p_train, variant };
        let spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method);
        // The zoo key does not encode the warm-up override, so bypass the
        // cache for the ablated run, but train it exactly as the zoo would.
        let (model, report) = if no_warmup {
            let mut cfg = spec.train_config();
            cfg.warmup_loss = f32::INFINITY;
            let mut model = spec.initial_model();
            let report = bitrobust_core::train(&mut model, &train_ds, &test_ds, &cfg);
            (model, report)
        } else {
            zoo_model(&spec, opts.no_cache)
        };
        let sweep = robust_eval(&model, scheme, &test_ds, protocol_axis(&ps, opts.chips));
        let started =
            report.bit_errors_started_at.map_or("never".to_string(), |e| format!("epoch {e}"));
        let mut row = vec![name.to_string(), pct(report.clean_error as f64), started];
        row.extend(sweep.iter().map(|r| pct_pm(r.mean_error as f64, r.std_error as f64)));
        table.row_owned(row);
    }
    println!(
        "RandBET design-choice ablations (CIFAR10 stand-in, wmax=0.1, p=1%):\n{}",
        table.render()
    );
    println!("Expected shape: dropping the clean loss term costs clean Err; skipping the");
    println!("warm-up slows or destabilizes convergence.");
    bitrobust_experiments::finish_obs();
}
