//! **Tab. 10** — BatchNorm is not robust to weight bit errors.
//!
//! Compares GroupNorm and BatchNorm models under random bit errors, and
//! shows that evaluating BatchNorm with *batch statistics at test time*
//! recovers much of the robustness — the accumulated running statistics
//! are what break.

use bitrobust_core::{run_sweep, NormKind, SweepAxis, SweepModel, SweepOptions, TrainMethod};
use bitrobust_experiments::{
    dataset_pair, pct, pct_pm, protocol_axis, warm_zoo, DatasetKind, ExpOptions, Table, ZooSpec,
};
use bitrobust_nn::Mode;
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);
    let ps = [1e-3, 5e-3];

    let mut table = Table::new(&["model", "Err %", "RErr p=0.1%", "RErr p=0.5%"]);

    let configs: Vec<(String, NormKind, TrainMethod, Mode)> = vec![
        ("GN NORMAL".into(), NormKind::Group, TrainMethod::Normal, Mode::Eval),
        (
            "GN CLIPPING 0.1".into(),
            NormKind::Group,
            TrainMethod::Clipping { wmax: 0.1 },
            Mode::Eval,
        ),
        ("BN NORMAL (accum stats)".into(), NormKind::Batch, TrainMethod::Normal, Mode::Eval),
        (
            "BN CLIPPING 0.1 (accum stats)".into(),
            NormKind::Batch,
            TrainMethod::Clipping { wmax: 0.1 },
            Mode::Eval,
        ),
        (
            "BN NORMAL (batch stats)".into(),
            NormKind::Batch,
            TrainMethod::Normal,
            Mode::EvalBatchStats,
        ),
        (
            "BN CLIPPING 0.1 (batch stats)".into(),
            NormKind::Batch,
            TrainMethod::Clipping { wmax: 0.1 },
            Mode::EvalBatchStats,
        ),
    ];

    // BatchNorm models are not cacheable; `warm_zoo` trains each distinct
    // (norm, method) spec once and reuses it across eval modes.
    let specs: Vec<ZooSpec> = configs
        .iter()
        .map(|(_, norm, method, _)| {
            let mut spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), *method);
            spec.norm = *norm;
            spec
        })
        .collect();
    let warmed = warm_zoo(&specs, opts.no_cache);
    for ((name, _, _, mode), (model, report)) in configs.into_iter().zip(&warmed) {
        // Batch-statistics rows need their own inference mode, so this
        // sweep sets it instead of going through `robust_eval`.
        let models = [SweepModel::new(name.as_str(), scheme, model)];
        let axes = [SweepAxis::new("protocol", protocol_axis(&ps, opts.chips))];
        let sweep_opts = SweepOptions { mode, ..Default::default() };
        let r = run_sweep(&models, &axes, &test_ds, &sweep_opts, None, |_, _| {}).robust(0, 0);
        table.row_owned(vec![
            name,
            pct(report.clean_error as f64),
            pct_pm(r[0].mean_error as f64, r[0].std_error as f64),
            pct_pm(r[1].mean_error as f64, r[1].std_error as f64),
        ]);
    }
    println!("Tab. 10 (CIFAR10 stand-in, m = 8 bit):\n{}", table.render());
    println!("Expected shape (paper): BN with accumulated statistics degrades far more than GN");
    println!("under bit errors; using batch statistics at test time recovers most of it.");
    bitrobust_experiments::finish_obs();
}
