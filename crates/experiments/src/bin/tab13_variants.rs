//! **Tab. 13** — RandBET variants.
//!
//! Standard RandBET (Alg. 1) vs the curricular schedule (ramping the
//! training bit error rate) and the alternating two-update scheme. The
//! paper finds both variants slightly *worse* than the standard recipe.

use bitrobust_core::{robust_eval, RandBetVariant, TrainMethod};
use bitrobust_experiments::{
    dataset_pair, pct, pct_pm, protocol_axis, zoo_model, DatasetKind, ExpOptions, Table,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);
    let ps = [1e-3, 1e-2];

    let mut header = vec!["model".to_string(), "Err %".to_string()];
    header.extend(ps.iter().map(|p| format!("RErr p={:.1}%", 100.0 * p)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    for (name, variant) in [
        ("RANDBET p=1% (standard)", RandBetVariant::Standard),
        ("Curricular RANDBET p=1%", RandBetVariant::Curricular),
        ("Alternating RANDBET p=1%", RandBetVariant::Alternating),
    ] {
        let method = TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant };
        let spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method);
        let (model, report) = zoo_model(&spec, opts.no_cache);
        let sweep = robust_eval(&model, scheme, &test_ds, protocol_axis(&ps, opts.chips));
        let mut row = vec![name.to_string(), pct(report.clean_error as f64)];
        row.extend(sweep.iter().map(|r| pct_pm(r.mean_error as f64, r.std_error as f64)));
        table.row_owned(row);
    }
    println!("Tab. 13 (CIFAR10 stand-in, m = 8 bit, wmax = 0.1):\n{}", table.render());
    println!("Expected shape (paper): both variants perform slightly worse than standard RANDBET.");
    bitrobust_experiments::finish_obs();
}
