//! **Fig. 1** — Bit error rate and normalized energy per SRAM access vs
//! supply voltage (normalized by `Vmin`).
//!
//! Reproduces the measurement protocol of the paper's App. A: 32 SRAM
//! arrays of 512×64 bit cells are sampled from the per-cell failure model,
//! characterized at each voltage, and compared against the analytic
//! voltage→rate model; the energy column is the `c + (1-c)V²` model.

use bitrobust_experiments::{ExpOptions, Table};
use bitrobust_sram::{characterize, CellProfile, EnergyModel, SramArray, VoltageErrorModel};
use rand::SeedableRng;

fn main() {
    let opts = ExpOptions::from_args();
    let volts = VoltageErrorModel::chandramoorthy14nm();
    let energy = EnergyModel::default();

    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed);
    let n_arrays = if opts.quick { 4 } else { 32 };
    let arrays: Vec<SramArray> = (0..n_arrays)
        .map(|_| SramArray::sample(512, 64, &volts, &CellProfile::uniform(), &mut rng))
        .collect();

    println!("Fig. 1: bit error rate p and normalized energy vs voltage");
    println!(
        "({} arrays of 512x64 bit cells, {} cells total)\n",
        arrays.len(),
        arrays.len() * 512 * 64
    );

    let voltages: Vec<f64> = (0..=10).map(|i| 0.75 + i as f64 * 0.025).collect();
    let measured = characterize(&arrays, &voltages);

    let mut table = Table::new(&["V/Vmin", "p measured %", "p model %", "energy E/E(Vmin)"]);
    for (v, p_meas) in measured {
        table.row_owned(vec![
            format!("{v:.3}"),
            format!("{:.4}", 100.0 * p_meas),
            format!("{:.4}", 100.0 * volts.rate_at(v)),
            format!("{:.3}", energy.energy_at(v)),
        ]);
    }
    println!("{}", table.render());

    println!("Operating points for headline error rates:");
    let mut table = Table::new(&["tolerated p %", "V/Vmin", "energy saving %"]);
    for p in [1e-4, 1e-3, 0.005, 0.01, 0.025] {
        let v = volts.voltage_for_rate(p);
        table.row_owned(vec![
            format!("{:.2}", 100.0 * p),
            format!("{v:.3}"),
            format!("{:.1}", 100.0 * energy.saving_at(v)),
        ]);
    }
    println!("{}", table.render());
    println!("Paper: p = 1% tolerance -> roughly 30% SRAM energy saving (Fig. 1).");
    bitrobust_experiments::finish_obs();
}
