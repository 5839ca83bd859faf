//! **Fig. 6 / Fig. 10** — Why weight clipping works: redundancy.
//!
//! For `RQUANT`, `CLIPPING`, and `RANDBET` (without clipping) models:
//! clean vs perturbed confidence, weight-distribution redundancy metrics
//! (relative absolute error, weight relevance, zero/large weight
//! fractions), and the "ReLU relevance": the fraction of positive
//! activations after the last ReLU, measured over all test images under
//! the clean quantized weights.

use bitrobust_core::{
    redundancy_metrics, relu_relevance, robust_eval, RandBetVariant, TrainMethod,
};
use bitrobust_experiments::{
    dataset_pair, pct, protocol_axis, zoo_model, DatasetKind, ExpOptions, Table, CHIP_SEED,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);
    let p = 0.01;

    let configs: Vec<(&str, TrainMethod)> = vec![
        ("RQUANT", TrainMethod::Normal),
        ("CLIPPING 0.1", TrainMethod::Clipping { wmax: 0.1 }),
        ("CLIPPING 0.05", TrainMethod::Clipping { wmax: 0.05 }),
        (
            "RANDBET p=1% (no clip)",
            TrainMethod::RandBet { wmax: None, p, variant: RandBetVariant::Standard },
        ),
    ];

    let mut table = Table::new(&[
        "model",
        "Err %",
        "Conf %",
        "Conf p=1%",
        "RErr p=1%",
        "rel abs err",
        "weight relevance",
        "zero frac",
        "ReLU relevance",
    ]);
    for (name, method) in configs {
        let spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method);
        let (model, report) = zoo_model(&spec, opts.no_cache);

        let robust =
            robust_eval(&model, scheme, &test_ds, protocol_axis(&[p], opts.chips)).remove(0);
        let red = redundancy_metrics(&model, scheme, p, opts.chips.min(5), CHIP_SEED);
        let relu = relu_relevance(&model, scheme, &test_ds);

        table.row_owned(vec![
            name.into(),
            pct(report.clean_error as f64),
            pct(report.clean_confidence as f64),
            pct(robust.mean_confidence as f64),
            pct(robust.mean_error as f64),
            format!("{:.4}", red.relative_abs_error),
            format!("{:.3}", red.weight_relevance),
            format!("{:.4}", red.fraction_zero),
            format!("{relu:.3}"),
        ]);
    }
    println!("Fig. 6 / Fig. 10 (CIFAR10 stand-in, m = 8 bit, p = 1%):\n{}", table.render());
    println!("Expected shape (paper): clipping keeps perturbed confidence close to clean,");
    println!("raises weight relevance (more weights doing work), and lowers the relative");
    println!("perturbation; RANDBET alone is less effective at preserving confidences.");
    bitrobust_experiments::finish_obs();
}
