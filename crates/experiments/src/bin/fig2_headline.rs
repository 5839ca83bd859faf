//! **Fig. 2** — The headline result: RErr vs bit error rate for the
//! technique stack, with the energy savings each tolerated rate buys.
//!
//! `NORMAL → RQUANT → +CLIPPING → +RANDBET` at 8 bit, plus the best 4-bit
//! model, across the CIFAR bit error rate grid; the final table combines
//! the best curve with the Fig. 1 energy model to state the paper's
//! headline claims.

use bitrobust_core::{
    best_saving_within, energy_tradeoff, run_sweep, RandBetVariant, SweepAxis, SweepModel,
    SweepOptions, TrainMethod,
};
use bitrobust_experiments::{
    dataset_pair, p_grid_cifar, pct, pct_pm, protocol_axis, sweep_progress, zoo_model, DatasetKind,
    ExpOptions, Table,
};
use bitrobust_quant::QuantScheme;
use bitrobust_sram::{EnergyModel, VoltageErrorModel};

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = dataset_pair(DatasetKind::Cifar10, opts.seed);
    let ps = p_grid_cifar();

    let runs: Vec<(&str, QuantScheme, TrainMethod)> = vec![
        ("NORMAL 8bit", QuantScheme::normal(8), TrainMethod::Normal),
        ("RQUANT 8bit", QuantScheme::rquant(8), TrainMethod::Normal),
        ("+CLIPPING 0.1", QuantScheme::rquant(8), TrainMethod::Clipping { wmax: 0.1 }),
        (
            "+RANDBET p=1%",
            QuantScheme::rquant(8),
            TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
        ),
        (
            "best 4bit (RANDBET)",
            QuantScheme::rquant(4),
            TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
        ),
    ];

    let mut header = vec!["model".to_string(), "Err %".to_string()];
    header.extend(ps.iter().map(|p| format!("p={:.2}%", 100.0 * p)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    let axes = [SweepAxis::new("protocol", protocol_axis(&ps, opts.chips))];
    let mut best_curve: Option<(f64, Vec<(f64, f64)>)> = None;
    for (name, scheme, method) in runs {
        let spec = opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), method);
        let (model, report) = zoo_model(&spec, opts.no_cache);
        // Stream the campaign: one dot per (rate, chip) cell as it lands.
        eprint!("sweep {name}: ");
        let sweep = run_sweep(
            &[SweepModel::new(spec.key(), scheme, &model)],
            &axes,
            &test_ds,
            &SweepOptions::default(),
            None,
            sweep_progress(axes[0].axis.n_points()),
        )
        .robust(0, 0);
        let mut row = vec![name.to_string(), pct(report.clean_error as f64)];
        row.extend(sweep.iter().map(|r| pct_pm(r.mean_error as f64, r.std_error as f64)));
        table.row_owned(row);
        if name.contains("RANDBET") && scheme.bits() == 8 {
            let curve: Vec<(f64, f64)> =
                ps.iter().zip(&sweep).map(|(&p, r)| (p, r.mean_error as f64)).collect();
            best_curve = Some((report.clean_error as f64, curve));
        }
    }
    println!("Fig. 2 — RErr vs p (CIFAR10 stand-in):\n{}", table.render());

    if let Some((clean, curve)) = best_curve {
        let volts = VoltageErrorModel::chandramoorthy14nm();
        let energy = EnergyModel::default();
        let points = energy_tradeoff(&curve, &volts, &energy);
        let mut table = Table::new(&["p %", "V/Vmin", "energy saving %", "RErr %"]);
        for pt in &points {
            table.row_owned(vec![
                format!("{:.2}", 100.0 * pt.p),
                format!("{:.3}", pt.voltage),
                format!("{:.1}", 100.0 * pt.energy_saving),
                format!("{:.2}", 100.0 * pt.robust_error),
            ]);
        }
        println!("Energy trade-off of the 8-bit RANDBET model:\n{}", table.render());
        for budget in [0.01, 0.025] {
            match best_saving_within(&points, clean, budget) {
                Some(best) => println!(
                    "Within +{:.1}% RErr of clean ({:.2}%): p={:.2}% -> {:.1}% energy saving",
                    100.0 * budget,
                    100.0 * clean,
                    100.0 * best.p,
                    100.0 * best.energy_saving
                ),
                None => println!("No operating point within +{:.1}% of clean", 100.0 * budget),
            }
        }
        println!("\nPaper headline: <1% accuracy cost buys ~20% energy; ~2.5% cost buys ~30%.");
    }
    bitrobust_experiments::finish_obs();
}
