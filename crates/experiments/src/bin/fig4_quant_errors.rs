//! **Fig. 4** — Quantization schemes and the shape of random bit error
//! noise.
//!
//! Quantizes a trained CIFAR10 model's weights under four schemes, injects
//! `p = 2.5%` random bit errors, and summarizes the induced weight
//! perturbations (max/mean absolute error, mean relative error, fraction of
//! affected weights). The paper's scatter plots reduce to these summary
//! statistics: global symmetric quantization suffers the largest absolute
//! errors; asymmetric per-layer quantization shrinks them; clipping shrinks
//! absolute errors further while *relative* errors grow.

use bitrobust_biterror::UniformChip;
use bitrobust_core::{QuantizedModel, TrainMethod};
use bitrobust_experiments::{zoo_model, DatasetKind, ExpOptions, Table, CHIP_SEED};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();

    // One reference model trained with robust quantization, one with
    // 4-bit clipping (the right panel of Fig. 4).
    let spec8 =
        opts.zoo_spec(DatasetKind::Cifar10, Some(QuantScheme::rquant(8)), TrainMethod::Normal);
    let (mut model8, _) = zoo_model(&spec8, opts.no_cache);

    let spec4 = opts.zoo_spec(
        DatasetKind::Cifar10,
        Some(QuantScheme::rquant(4)),
        TrainMethod::Clipping { wmax: 0.1 },
    );
    let (mut model4, _) = zoo_model(&spec4, opts.no_cache);

    let p = 0.025;
    println!("Fig. 4: weight perturbations under p = {:.1}% random bit errors\n", 100.0 * p);
    let mut table =
        Table::new(&["scheme", "max |err|", "mean |err|", "mean rel err", "affected %"]);

    let schemes8 = [
        ("global, m=8 (Eq.1 qmax=global)", QuantScheme::eq1_global(8)),
        ("per-layer (NORMAL), m=8", QuantScheme::normal(8)),
        ("+asymmetric, m=8", QuantScheme::asymmetric_signed(8)),
        ("RQuant (asym/unsigned/round)", QuantScheme::rquant(8)),
    ];
    for (name, scheme) in schemes8 {
        table.row_owned(stats_row(name, &mut model8, scheme, p));
    }
    table.row_owned(stats_row("Clipping 0.1, m=4", &mut model4, QuantScheme::rquant(4), p));
    println!("{}", table.render());
    println!("Expected shape (paper): global >> per-layer on absolute errors;");
    println!("clipping shrinks absolute errors but relative errors grow.");
    bitrobust_experiments::finish_obs();
}

fn stats_row(
    name: &str,
    model: &mut bitrobust_nn::Model,
    scheme: QuantScheme,
    p: f64,
) -> Vec<String> {
    let q0 = QuantizedModel::quantize(model, scheme);
    let clean: Vec<f32> = q0.tensors().iter().flat_map(|t| t.dequantize()).collect();
    let mut q = q0.clone();
    q.inject(&UniformChip::new(CHIP_SEED).at_rate(p));
    let dirty: Vec<f32> = q.tensors().iter().flat_map(|t| t.dequantize()).collect();

    let max_abs_weight = clean.iter().fold(0f64, |m, &v| m.max(v.abs() as f64)).max(1e-12);
    let mut max_err = 0f64;
    let mut sum_err = 0f64;
    let mut sum_rel = 0f64;
    let mut affected = 0usize;
    for (&c, &d) in clean.iter().zip(&dirty) {
        let e = (d - c).abs() as f64;
        max_err = max_err.max(e);
        sum_err += e;
        sum_rel += e / max_abs_weight;
        if e > 0.0 {
            affected += 1;
        }
    }
    let n = clean.len() as f64;
    vec![
        name.to_string(),
        format!("{max_err:.4}"),
        format!("{:.5}", sum_err / n),
        format!("{:.5}", sum_rel / n),
        format!("{:.2}", 100.0 * affected as f64 / n),
    ]
}
