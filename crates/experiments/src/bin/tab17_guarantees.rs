//! **Tab. 17 / Prop. 1 / App. C.2 + G.6** — Generalization guarantees for
//! the empirical RErr.
//!
//! Evaluates RErr with the standard number of error patterns and with a
//! stress-test number of patterns, and prints the Prop. 1 deviation bound
//! for the actual `(n, l)`; the paper's observation is that the empirical
//! estimate barely moves when `l` grows, well within the bound.

use bitrobust_core::{deviation_bound, robust_eval, RandBetVariant, TrainMethod};
use bitrobust_experiments::{
    dataset_pair, pct_pm, protocol_axis, zoo_model, DatasetKind, ExpOptions, Table,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);
    let p = 0.01;
    let l_small = opts.chips;
    let l_large = if opts.quick { 50 } else { 500 };

    let methods: Vec<(&str, TrainMethod)> = vec![
        ("RQUANT", TrainMethod::Normal),
        ("CLIPPING 0.05", TrainMethod::Clipping { wmax: 0.05 }),
        (
            "RANDBET 0.05 p=2%",
            TrainMethod::RandBet { wmax: Some(0.05), p: 0.02, variant: RandBetVariant::Standard },
        ),
    ];

    let mut table =
        Table::new(&["model", &format!("RErr l={l_small}"), &format!("RErr l={l_large}")]);
    for (name, method) in methods {
        let spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method);
        let (model, _) = zoo_model(&spec, opts.no_cache);
        let small = robust_eval(&model, scheme, &test_ds, protocol_axis(&[p], l_small)).remove(0);
        let large = robust_eval(&model, scheme, &test_ds, protocol_axis(&[p], l_large)).remove(0);
        table.row_owned(vec![
            name.into(),
            pct_pm(small.mean_error as f64, small.std_error as f64),
            pct_pm(large.mean_error as f64, large.std_error as f64),
        ]);
    }
    println!("Tab. 17 (p = 1%, n = {} test examples):\n{}", test_ds.len(), table.render());

    println!("Prop. 1 deviation bounds at 99% confidence:");
    let mut table = Table::new(&["n", "l", "bound ε %"]);
    for (n, l) in [
        (test_ds.len(), l_small),
        (test_ds.len(), l_large),
        (10_000, 1_000_000),
        (100_000, 1_000_000),
    ] {
        table.row_owned(vec![
            format!("{n}"),
            format!("{l}"),
            format!("{:.1}", 100.0 * deviation_bound(n, l, 0.01)),
        ]);
    }
    println!("{}", table.render());
    println!("Paper: n=10^4, l=10^6 gives 4.1%; n=10^5 gives 1.7%. Empirical RErr is stable in l.");
    bitrobust_experiments::finish_obs();
}
