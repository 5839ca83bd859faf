//! **Tab. 11** — Down-scaling weights is *not* what makes clipping robust.
//!
//! Takes the `RQUANT` model, rescales its convolution/linear weights and
//! biases so the maximum absolute weight matches the `CLIPPING 0.25`
//! model's range, and shows that robustness does **not** improve: the
//! benefit of clipping comes from training-time redundancy, not from the
//! reduced quantization range.
//!
//! Because every convolution is followed by a normalization layer, scaling
//! conv weights+biases leaves post-norm activations unchanged; scaling the
//! classifier scales the logits without changing predictions. Clean Err is
//! therefore preserved, exactly as in the paper's fixed-scale GroupNorm
//! setup.

use bitrobust_core::{quantized_error, robust_eval, TrainMethod};
use bitrobust_experiments::{
    dataset_pair, pct, pct_pm, protocol_axis, zoo_model, DatasetKind, ExpOptions, Table,
};
use bitrobust_nn::ParamKind;
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);
    let ps = [1e-3, 1e-2];

    let rq_spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), TrainMethod::Normal);
    let (mut rquant, rq_report) = zoo_model(&rq_spec, opts.no_cache);

    let clip_method = TrainMethod::Clipping { wmax: 0.25 };
    let clip_spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), clip_method);
    let (mut clipped, clip_report) = zoo_model(&clip_spec, opts.no_cache);

    // Scale factor: bring RQuant's largest conv/linear weight down to the
    // clipped model's largest.
    let max_weight = |model: &mut bitrobust_nn::Model| {
        let mut m = 0f32;
        model.visit_params(&mut |p| {
            if matches!(p.kind(), ParamKind::Weight | ParamKind::Bias) {
                m = m.max(p.value().abs_max());
            }
        });
        m
    };
    let factor = max_weight(&mut clipped) / max_weight(&mut rquant);
    let mut scaled = {
        // Copy the RQuant model and scale its conv/linear params.
        let mut model = rquant.clone();
        model.visit_params(&mut |p| {
            if matches!(p.kind(), ParamKind::Weight | ParamKind::Bias) {
                p.value_mut().scale(factor);
            }
        });
        model
    };

    let mut table = Table::new(&["model", "Err %", "RErr p=0.1%", "RErr p=1%"]);
    for (name, model, clean) in [
        ("RQUANT", &mut rquant, rq_report.clean_error as f64),
        ("CLIPPING 0.25", &mut clipped, clip_report.clean_error as f64),
        ("RQUANT -> scaled to 0.25 range", &mut scaled, -1.0),
    ] {
        let clean = if clean >= 0.0 {
            clean
        } else {
            quantized_error(model, scheme, &test_ds).error as f64
        };
        let r = robust_eval(model, scheme, &test_ds, protocol_axis(&ps, opts.chips));
        table.row_owned(vec![
            name.into(),
            pct(clean),
            pct_pm(r[0].mean_error as f64, r[0].std_error as f64),
            pct_pm(r[1].mean_error as f64, r[1].std_error as f64),
        ]);
    }
    println!("Tab. 11 (scale factor {factor:.3}):\n{}", table.render());
    println!("Expected shape (paper): the scaled model keeps clean Err but gains no robustness —");
    println!("clipping's benefit is redundancy from training, not a smaller quantization range.");
    bitrobust_experiments::finish_obs();
}
