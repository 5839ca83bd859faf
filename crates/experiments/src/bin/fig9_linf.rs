//! **Fig. 9** — Weight clipping also buys robustness against relative
//! `L∞` weight noise (which, unlike bit errors, perturbs *every* weight).

use bitrobust_biterror::hash_unit;
use bitrobust_core::{evaluate, TrainMethod, EVAL_BATCH};
use bitrobust_experiments::{dataset_pair, pct, zoo_model, DatasetKind, ExpOptions, Table};
use bitrobust_nn::{Mode, Model};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);
    let magnitudes = [0.0, 0.05, 0.10, 0.20, 0.30];
    let n_draws = opts.chips.min(10);

    let configs: Vec<(&str, TrainMethod)> = vec![
        ("RQUANT (no clipping)", TrainMethod::Normal),
        ("CLIPPING 0.15", TrainMethod::Clipping { wmax: 0.15 }),
        ("CLIPPING 0.1", TrainMethod::Clipping { wmax: 0.1 }),
        ("CLIPPING 0.05", TrainMethod::Clipping { wmax: 0.05 }),
    ];

    let mut header = vec!["model".to_string()];
    header.extend(magnitudes.iter().map(|m| format!("L-inf {:.0}%", 100.0 * m)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    for (name, method) in configs {
        let spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method);
        let (mut model, _) = zoo_model(&spec, opts.no_cache);
        let mut row = vec![name.to_string()];
        for &mag in &magnitudes {
            let mut sum = 0f64;
            for draw in 0..n_draws {
                sum += linf_error(&mut model, &test_ds, mag, draw as u64) as f64;
            }
            row.push(pct(sum / n_draws as f64));
        }
        table.row_owned(row);
    }
    println!(
        "Fig. 9 — RErr under relative L-inf weight noise (CIFAR10 stand-in):\n{}",
        table.render()
    );
    println!("Expected shape (paper): clipping improves robustness here too; note L-inf noise");
    println!("affects all weights, unlike sparse random bit errors.");
    bitrobust_experiments::finish_obs();
}

/// Adds per-tensor uniform noise of magnitude `mag * max|w|`, evaluates,
/// restores.
fn linf_error(model: &mut Model, test_ds: &bitrobust_data::Dataset, mag: f32, draw: u64) -> f32 {
    let snapshot = model.param_tensors();
    let mut tensor_idx = 0u64;
    model.visit_params(&mut |p| {
        let eps = mag * p.value().abs_max();
        let mut i = 0u64;
        p.value_mut().map_inplace(|v| {
            let u = hash_unit(draw ^ (tensor_idx << 32), i, 0) as f32;
            i += 1;
            v + eps * (2.0 * u - 1.0)
        });
        tensor_idx += 1;
    });
    let result = evaluate(model, test_ds, EVAL_BATCH, Mode::Eval);
    model.set_param_tensors(&snapshot);
    result.error
}
