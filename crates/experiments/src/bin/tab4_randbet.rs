//! **Tab. 4 / Tab. 12** — Random bit error training (`RANDBET`).
//!
//! RErr of `RQUANT`, `CLIPPING 0.1`, and `RANDBET 0.1 (p=1%)` at `m = 8`
//! and `m = 4` bits, for `p ∈ {0.5%, 1%, 1.5%}`, plus the symmetric
//! quantization ablation (Tab. 12).
//!
//! All seven models run as **one** durable sweep campaign
//! ([`bitrobust_core::run_sweep`]): the zoo is warmed once, every
//! (model, rate, chip) cell fans out together, and completed cells land in
//! `target/sweeps/tab4.jsonl` — interrupt and rerun to resume
//! (`--fresh` recomputes).

use bitrobust_core::{run_sweep, RandBetVariant, SweepAxis, SweepOptions, TrainMethod};
use bitrobust_experiments::zoo::ZooSpec;
use bitrobust_experiments::{
    open_sweep_store, pct, pct_pm, protocol_axis, sweep_models, sweep_progress, warm_zoo,
    DatasetKind, ExpOptions, Table,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = bitrobust_experiments::dataset_pair(DatasetKind::Cifar10, opts.seed);
    let ps = [5e-3, 1e-2, 1.5e-2];

    let runs: Vec<(&str, QuantScheme, TrainMethod)> = vec![
        ("8bit RQUANT", QuantScheme::rquant(8), TrainMethod::Normal),
        ("8bit CLIPPING 0.1", QuantScheme::rquant(8), TrainMethod::Clipping { wmax: 0.1 }),
        (
            "8bit RANDBET 0.1 p=1%",
            QuantScheme::rquant(8),
            TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
        ),
        ("4bit CLIPPING 0.1", QuantScheme::rquant(4), TrainMethod::Clipping { wmax: 0.1 }),
        (
            "4bit RANDBET 0.1 p=1%",
            QuantScheme::rquant(4),
            TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
        ),
        // Tab. 12: symmetric quantization instead of RQuant.
        ("8bit sym CLIPPING 0.1", QuantScheme::symmetric(8), TrainMethod::Clipping { wmax: 0.1 }),
        (
            "8bit sym RANDBET 0.1 p=1%",
            QuantScheme::symmetric(8),
            TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
        ),
    ];

    let specs: Vec<ZooSpec> = runs
        .iter()
        .map(|(_, scheme, method)| opts.zoo_spec(DatasetKind::Cifar10, Some(*scheme), *method))
        .collect();
    eprintln!("warming {} cifar10 zoo models...", specs.len());
    let warmed = warm_zoo(&specs, opts.no_cache);

    let models = sweep_models(&specs, &warmed);
    let axes = vec![SweepAxis::new("uniform", protocol_axis(&ps, opts.chips))];
    let total = models.len() * axes[0].axis.n_points();
    let mut store = open_sweep_store("tab4", &opts);
    eprint!("sweep {} models x {} cells: ", models.len(), axes[0].axis.n_points());
    let results = run_sweep(
        &models,
        &axes,
        &test_ds,
        &SweepOptions::default(),
        Some(&mut store),
        sweep_progress(total),
    );

    let mut header = vec!["model".to_string(), "Err %".to_string()];
    header.extend(ps.iter().map(|p| format!("RErr p={:.1}%", 100.0 * p)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    for (mi, (name, _, _)) in runs.iter().enumerate() {
        let sweep = results.robust(mi, 0);
        let mut row = vec![name.to_string(), pct(warmed[mi].1.clean_error as f64)];
        row.extend(sweep.iter().map(|r| pct_pm(r.mean_error as f64, r.std_error as f64)));
        table.row_owned(row);
    }
    println!("Tab. 4 / Tab. 12 (CIFAR10 stand-in):\n{}", table.render());
    println!("Expected shape (paper): RANDBET < CLIPPING < RQUANT in RErr at p >= 0.5%,");
    println!("more pronounced at 4 bit; symmetric quantization is slightly worse than RQuant.");
    bitrobust_experiments::finish_obs();
}
