//! **Tab. 14 / App. G.7** — Clipping and RandBET work on ResNets too.

use bitrobust_core::{robust_eval, ArchKind, RandBetVariant, TrainMethod};
use bitrobust_experiments::{
    dataset_pair, pct, pct_pm, protocol_axis, zoo_model, DatasetKind, ExpOptions, Table,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);
    let ps = [5e-3, 1.5e-2];

    let mut header = vec!["model (resnet-mini)".to_string(), "Err %".to_string()];
    header.extend(ps.iter().map(|p| format!("RErr p={:.1}%", 100.0 * p)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    let methods: Vec<(&str, TrainMethod)> = vec![
        ("RQUANT", TrainMethod::Normal),
        ("CLIPPING 0.1", TrainMethod::Clipping { wmax: 0.1 }),
        (
            "RANDBET 0.1 p=1%",
            TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
        ),
    ];
    for (name, method) in methods {
        let mut spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method);
        spec.arch = ArchKind::ResNetMini;
        let (model, report) = zoo_model(&spec, opts.no_cache);
        let sweep = robust_eval(&model, scheme, &test_ds, protocol_axis(&ps, opts.chips));
        let mut row = vec![name.to_string(), pct(report.clean_error as f64)];
        row.extend(sweep.iter().map(|r| pct_pm(r.mean_error as f64, r.std_error as f64)));
        table.row_owned(row);
    }
    println!("Tab. 14 (CIFAR10 stand-in, ResNet with GroupNorm):\n{}", table.render());
    println!("Expected shape (paper): same ordering as SimpleNet — RANDBET < CLIPPING < RQUANT.");
    bitrobust_experiments::finish_obs();
}
