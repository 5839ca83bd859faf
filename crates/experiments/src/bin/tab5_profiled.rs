//! **Tab. 5 / Tab. 15** — RandBET generalizes to profiled chips.
//!
//! Evaluates `RQUANT`, `CLIPPING 0.05` and `RANDBET 0.05 (p=1.5%)` on the
//! three synthesized profiled chips at the paper's measured rates,
//! averaging over several weight-to-memory mapping offsets (App. C.1).
//!
//! The whole table — 3 models × 3 profiled chips × rates × offsets — runs
//! as **one** durable sweep campaign ([`bitrobust_core::run_sweep`]) over
//! profiled-chip [`ChipAxis`] axes, checkpointed to
//! `target/sweeps/tab5_profiled.jsonl`: kill it at any point and rerun to
//! resume byte-identically (`--fresh` recomputes).

use bitrobust_biterror::{ChipKind, ProfiledAxis};
use bitrobust_core::{run_sweep, ChipAxis, RandBetVariant, SweepAxis, SweepOptions, TrainMethod};
use bitrobust_experiments::zoo::ZooSpec;
use bitrobust_experiments::{
    open_sweep_store, pct, sweep_models, sweep_progress, warm_zoo, DatasetKind, ExpOptions, Table,
};
use bitrobust_quant::QuantScheme;

fn main() {
    let opts = ExpOptions::from_args();
    let (_, test_ds) = bitrobust_experiments::dataset_pair(DatasetKind::Cifar10, opts.seed);
    let scheme = QuantScheme::rquant(8);
    let n_offsets = if opts.quick { 2 } else { 8 };

    let chip_rates: &[(ChipKind, &[f64])] = &[
        (ChipKind::Chip1, &[0.0086, 0.0275]),
        (ChipKind::Chip2, &[0.0014, 0.0108]),
        (ChipKind::Chip3, &[0.0003, 0.005]),
    ];

    let methods: Vec<(&str, TrainMethod)> = vec![
        ("RQUANT", TrainMethod::Normal),
        ("CLIPPING 0.05", TrainMethod::Clipping { wmax: 0.05 }),
        (
            "RANDBET 0.05 p=1.5%",
            TrainMethod::RandBet { wmax: Some(0.05), p: 0.015, variant: RandBetVariant::Standard },
        ),
    ];

    let specs: Vec<ZooSpec> = methods
        .iter()
        .map(|(_, method)| opts.zoo_spec(DatasetKind::Cifar10, Some(scheme), *method))
        .collect();
    eprintln!("warming {} cifar10 zoo models...", specs.len());
    let warmed = warm_zoo(&specs, opts.no_cache);

    // One axis per profiled chip: rates resolve to operating voltages,
    // offsets vary the weight-to-memory mapping (the Tab. 5 protocol).
    let models = sweep_models(&specs, &warmed);
    let axes: Vec<SweepAxis> = chip_rates
        .iter()
        .map(|&(kind, rates)| {
            SweepAxis::new(
                kind.name(),
                ChipAxis::Profiled(ProfiledAxis::tab5(kind, opts.seed, rates.to_vec(), n_offsets)),
            )
        })
        .collect();
    let total = models.len() * axes.iter().map(|a| a.axis.n_points()).sum::<usize>();
    let mut store = open_sweep_store("tab5_profiled", &opts);
    eprint!("sweep {} models x 3 profiled chips ({total} cells): ", models.len());
    let results = run_sweep(
        &models,
        &axes,
        &test_ds,
        &SweepOptions::default(),
        Some(&mut store),
        sweep_progress(total),
    );

    for (ai, &(kind, rates)) in chip_rates.iter().enumerate() {
        let mut header = vec!["model".to_string(), "Err %".to_string()];
        header.extend(rates.iter().map(|r| format!("RErr p~{:.2}%", 100.0 * r)));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(&header_refs);

        for (mi, (name, _)) in methods.iter().enumerate() {
            let mut row = vec![name.to_string(), pct(warmed[mi].1.clean_error as f64)];
            row.extend(results.robust(mi, ai).iter().map(|r| pct(r.mean_error as f64)));
            table.row_owned(row);
        }
        println!(
            "Tab. 5 / Tab. 15 — {} ({} offsets per rate):\n{}",
            kind.name(),
            n_offsets,
            table.render()
        );
    }
    println!("Expected shape (paper): RANDBET (trained only on uniform random errors)");
    println!("generalizes to all profiled chips; chip 2's column-aligned, 0-to-1 biased");
    println!("errors are hardest.");
    bitrobust_experiments::finish_obs();
}
