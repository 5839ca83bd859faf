//! **Tab. 2 / Tab. 9** — Weight clipping improves robustness; label
//! smoothing destroys the effect.
//!
//! Trains `CLIPPING` models across `wmax` with and without label smoothing
//! and reports clean Err, clean confidence, confidence under `p = 1%` bit
//! errors, and RErr at `p ∈ {0.1%, 1%}`.

use bitrobust_core::{robust_eval, TrainMethod};
use bitrobust_experiments::{
    dataset_pair, pct, pct_pm, protocol_axis, zoo_model, DatasetKind, ExpOptions, Table,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);

    let configs: Vec<(String, TrainMethod, Option<f32>)> = vec![
        ("RQUANT".into(), TrainMethod::Normal, None),
        ("CLIPPING 0.15".into(), TrainMethod::Clipping { wmax: 0.15 }, None),
        ("CLIPPING 0.1".into(), TrainMethod::Clipping { wmax: 0.1 }, None),
        ("CLIPPING 0.05".into(), TrainMethod::Clipping { wmax: 0.05 }, None),
        ("CLIPPING 0.025".into(), TrainMethod::Clipping { wmax: 0.025 }, None),
        ("CLIPPING 0.15 +LS".into(), TrainMethod::Clipping { wmax: 0.15 }, Some(0.9)),
        ("CLIPPING 0.1 +LS".into(), TrainMethod::Clipping { wmax: 0.1 }, Some(0.9)),
        ("CLIPPING 0.05 +LS".into(), TrainMethod::Clipping { wmax: 0.05 }, Some(0.9)),
    ];

    let mut table =
        Table::new(&["model", "Err %", "Conf %", "Conf p=1%", "RErr p=0.1%", "RErr p=1%"]);
    for (name, method, ls) in configs {
        let mut spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method);
        spec.label_smoothing = ls;
        let (model, report) = zoo_model(&spec, opts.no_cache);
        let r = robust_eval(&model, scheme, &test_ds, protocol_axis(&[1e-3, 1e-2], opts.chips));
        let (r_small, r_large) = (&r[0], &r[1]);
        table.row_owned(vec![
            name,
            pct(report.clean_error as f64),
            pct(report.clean_confidence as f64),
            pct(r_large.mean_confidence as f64),
            pct_pm(r_small.mean_error as f64, r_small.std_error as f64),
            pct_pm(r_large.mean_error as f64, r_large.std_error as f64),
        ]);
    }
    println!("Tab. 2 (CIFAR10 stand-in, m = 8 bit):\n{}", table.render());
    println!("Expected shape (paper): smaller wmax -> higher Err but much lower RErr;");
    println!("label smoothing keeps Err but loses the robustness gain (confidence pressure is");
    println!("what makes clipping work).");
    bitrobust_experiments::finish_obs();
}
