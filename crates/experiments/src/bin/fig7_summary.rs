//! **Fig. 7 / Fig. 11 / Tab. 18–21** — Summary sweeps: RErr vs bit error
//! rate on all three datasets and across precisions.
//!
//! For each dataset, trains the method stack (`NORMAL`, `RQUANT`,
//! `+CLIPPING`, `+RANDBET`) at 8 bit and the best low-precision models
//! (`m ∈ {4, 3, 2}`), then prints the per-rate RErr series the paper plots.
//!
//! Each dataset's whole method stack evaluates as **one** durable sweep
//! campaign ([`bitrobust_core::run_sweep`]) checkpointed to
//! `target/sweeps/fig7_<dataset>.jsonl` — interrupt and rerun to resume
//! (`--fresh` recomputes).

use bitrobust_core::{run_sweep, RandBetVariant, SweepAxis, SweepOptions, TrainMethod};
use bitrobust_experiments::zoo::ZooSpec;
use bitrobust_experiments::{
    dataset_pair, open_sweep_store, p_grid_cifar, p_grid_cifar100, p_grid_mnist, pct, pct_pm,
    protocol_axis, sweep_models, sweep_progress, warm_zoo, DatasetKind, ExpOptions, Table,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    for kind in [DatasetKind::Cifar10, DatasetKind::Cifar100, DatasetKind::Mnist] {
        run_dataset(kind, &opts);
    }
    println!("Expected shape (paper): per dataset, NORMAL < RQUANT < +CLIPPING < +RANDBET in");
    println!("robustness; tolerable rates are far higher on MNIST than CIFAR100; low precision");
    println!("costs clean Err but RANDBET keeps RErr from exploding.");
    bitrobust_experiments::finish_obs();
}

fn run_dataset(kind: DatasetKind, opts: &ExpOptions) {
    let (_, test_ds) = dataset_pair(kind, opts.seed);
    let ps = match kind {
        DatasetKind::Cifar10 => p_grid_cifar(),
        DatasetKind::Cifar100 => p_grid_cifar100(),
        DatasetKind::Mnist => p_grid_mnist(),
    };
    // RandBET training rate scales with what the dataset tolerates.
    let (p_train, p_train_low) = match kind {
        DatasetKind::Mnist => (0.1, 0.05),
        DatasetKind::Cifar10 => (0.01, 0.005),
        DatasetKind::Cifar100 => (0.005, 0.001),
    };

    let mut runs: Vec<(String, QuantScheme, TrainMethod)> = vec![
        ("NORMAL 8bit".into(), QuantScheme::normal(8), TrainMethod::Normal),
        ("RQUANT 8bit".into(), QuantScheme::rquant(8), TrainMethod::Normal),
        ("CLIPPING 0.1 8bit".into(), QuantScheme::rquant(8), TrainMethod::Clipping { wmax: 0.1 }),
        ("CLIPPING 0.05 8bit".into(), QuantScheme::rquant(8), TrainMethod::Clipping { wmax: 0.05 }),
        (
            format!("RANDBET 0.1 p={:.2}% 8bit", 100.0 * p_train_low),
            QuantScheme::rquant(8),
            TrainMethod::RandBet {
                wmax: Some(0.1),
                p: p_train_low,
                variant: RandBetVariant::Standard,
            },
        ),
        (
            format!("RANDBET 0.05 p={:.2}% 8bit", 100.0 * p_train),
            QuantScheme::rquant(8),
            TrainMethod::RandBet {
                wmax: Some(0.05),
                p: p_train,
                variant: RandBetVariant::Standard,
            },
        ),
    ];
    // Low-precision best models (skip for CIFAR100 to bound runtime; the
    // paper's Fig. 11 low-precision panels cover CIFAR10/MNIST).
    if kind != DatasetKind::Cifar100 {
        for m in [4u8, 3, 2] {
            runs.push((
                format!("RANDBET 0.05 p={:.2}% {m}bit", 100.0 * p_train),
                QuantScheme::rquant(m),
                TrainMethod::RandBet {
                    wmax: Some(0.05),
                    p: p_train,
                    variant: RandBetVariant::Standard,
                },
            ));
        }
    }

    let mut header = vec!["model".to_string(), "Err %".to_string()];
    header.extend(ps.iter().map(|p| format!("p={:.3}%", 100.0 * p)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    // Warm the zoo for the whole method stack (parallel across models, or
    // sequential with full inner parallelism when the stack is small), then
    // evaluate every model's rate grid as one durable sweep campaign.
    let specs: Vec<ZooSpec> = runs
        .iter()
        .map(|(_, scheme, method)| opts.zoo_spec(kind, Some(*scheme), *method))
        .collect();
    eprintln!("warming {} {} zoo models...", specs.len(), kind.name());
    let warmed = warm_zoo(&specs, opts.no_cache);

    let models = sweep_models(&specs, &warmed);
    let axes = vec![SweepAxis::new("uniform", protocol_axis(&ps, opts.chips))];
    let total = models.len() * axes[0].axis.n_points();
    let mut store = open_sweep_store(&format!("fig7_{}", kind.name()), opts);
    eprint!("sweep {} models x {} cells: ", models.len(), axes[0].axis.n_points());
    let results = run_sweep(
        &models,
        &axes,
        &test_ds,
        &SweepOptions::default(),
        Some(&mut store),
        sweep_progress(total),
    );

    for (mi, ((name, _, _), (_, report))) in runs.into_iter().zip(&warmed).enumerate() {
        let sweep = results.robust(mi, 0);
        let mut row = vec![name, pct(report.clean_error as f64)];
        row.extend(sweep.iter().map(|r| pct_pm(r.mean_error as f64, r.std_error as f64)));
        table.row_owned(row);
    }
    println!("Fig. 7 — {}:\n{}", kind.name(), table.render());
}
