//! **Tab. 7** — Quantization-aware training accuracies.
//!
//! Clean Err across precisions (`m ∈ {8, 4, 3, 2}`; the paper trains
//! `m ≤ 4` with clipping 0.1), float baselines, and the architecture /
//! normalization comparison (SimpleNet vs ResNet, GroupNorm vs BatchNorm).

use bitrobust_core::{ArchKind, NormKind, TrainMethod};
use bitrobust_experiments::{pct, zoo_model, DatasetKind, ExpOptions, Table};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();

    // Precision sweep.
    let mut table = Table::new(&["precision m", "method", "Err %"]);
    let float_spec = opts.zoo_spec(DatasetKind::Cifar10, None, TrainMethod::Normal);
    let (_m, float_report) = zoo_model(&float_spec, opts.no_cache);
    table.row_owned(vec!["float".into(), "NORMAL".into(), pct(float_report.clean_error as f64)]);
    for (m, method, label) in [
        (8u8, TrainMethod::Normal, "RQUANT"),
        (4, TrainMethod::Clipping { wmax: 0.1 }, "CLIPPING 0.1"),
        (3, TrainMethod::Clipping { wmax: 0.1 }, "CLIPPING 0.1"),
        (2, TrainMethod::Clipping { wmax: 0.1 }, "CLIPPING 0.1"),
    ] {
        let spec = opts.zoo_spec(DatasetKind::Cifar10, Some(QuantScheme::rquant(m)), method);
        let (_, report) = zoo_model(&spec, opts.no_cache);
        table.row_owned(vec![format!("{m}"), label.into(), pct(report.clean_error as f64)]);
    }
    println!("Tab. 7 (left) — precision sweep on the CIFAR10 stand-in:\n{}", table.render());

    // Architecture / normalization comparison, m = 8.
    let mut table = Table::new(&["architecture", "norm", "Err %"]);
    for (arch, arch_name) in
        [(ArchKind::SimpleNet, "simplenet"), (ArchKind::ResNetMini, "resnet-mini")]
    {
        for (norm, norm_name) in [(NormKind::Group, "GN"), (NormKind::Batch, "BN")] {
            let mut spec = opts.zoo_spec(
                DatasetKind::Cifar10,
                Some(QuantScheme::rquant(8)),
                TrainMethod::Normal,
            );
            spec.arch = arch;
            spec.norm = norm;
            let (_, report) = zoo_model(&spec, opts.no_cache);
            table.row_owned(vec![
                arch_name.into(),
                norm_name.into(),
                pct(report.clean_error as f64),
            ]);
        }
    }
    println!("Tab. 7 (right) — architecture comparison (m = 8):\n{}", table.render());

    // CIFAR100 stand-in: default vs wide model.
    let mut table = Table::new(&["model", "Err %"]);
    for (arch, name) in
        [(ArchKind::SimpleNet, "simplenet"), (ArchKind::WideSimpleNet, "wide (WRN sub)")]
    {
        let mut spec =
            opts.zoo_spec(DatasetKind::Cifar100, Some(QuantScheme::rquant(8)), TrainMethod::Normal);
        spec.arch = arch;
        let (_, report) = zoo_model(&spec, opts.no_cache);
        table.row_owned(vec![name.into(), pct(report.clean_error as f64)]);
    }
    println!("Tab. 7 — CIFAR100 stand-in:\n{}", table.render());
    println!("Expected shape (paper): m=8/4 match float closely, m=3/2 lose 1-2%;");
    println!("BN beats GN slightly on clean Err (but loses badly on robustness, Tab. 10);");
    println!("the wider model wins on CIFAR100.");
    bitrobust_experiments::finish_obs();
}
