//! **Fig. 3 / Fig. 8 / App. C.1** — Profiled SRAM bit error patterns.
//!
//! Synthesizes the three profiled chips, prints the App. C.1 statistics
//! table (`p`, `p0t1`, `p1t0`, `psa` at each measured voltage), renders an
//! ASCII fault map of a 32×64 sub-array, and verifies the voltage-subset
//! ("inherited errors") property.

use bitrobust_biterror::{ChipKind, ProfiledChip};
use bitrobust_experiments::{ExpOptions, Table};

fn main() {
    let opts = ExpOptions::from_args();

    // The paper's measured rates per chip (App. C.1).
    let target_rates: &[(ChipKind, &[f64])] = &[
        (ChipKind::Chip1, &[0.02744, 0.00866]),
        (ChipKind::Chip2, &[0.04707, 0.0101, 0.00136]),
        (ChipKind::Chip3, &[0.02297, 0.00597]),
    ];

    println!("App. C.1 statistics of the synthesized profiled chips");
    let mut table = Table::new(&["chip", "target p %", "p %", "p0t1 %", "p1t0 %", "psa %"]);
    for &(kind, rates) in target_rates {
        let chip = ProfiledChip::synthesize(kind, opts.seed);
        for &rate in rates {
            let v = chip.voltage_for_rate(rate);
            let s = chip.stats_at(v);
            table.row_owned(vec![
                kind.name().to_string(),
                format!("{:.3}", 100.0 * rate),
                format!("{:.3}", 100.0 * s.rate),
                format!("{:.3}", 100.0 * s.rate_0_to_1),
                format!("{:.3}", 100.0 * s.rate_1_to_0),
                format!("{:.3}", 100.0 * s.rate_persistent),
            ]);
        }
    }
    println!("{}", table.render());
    println!("Paper chip 1: p=2.744 (p0t1 1.27 / p1t0 1.47), chip 2: p=4.707 (3.443/1.091),");
    println!("chip 3: p=2.297 (1.81/0.48) — chip 2/3 are 0-to-1 biased, chip 2 column-aligned.\n");

    // ASCII fault maps (a 32x64 window) at two voltages, chip 1 vs chip 2.
    for kind in [ChipKind::Chip1, ChipKind::Chip2] {
        let chip = ProfiledChip::synthesize(kind, opts.seed);
        let v_hi = chip.voltage_for_rate(0.01);
        let v_lo = chip.voltage_for_rate(0.03);
        println!(
            "{} fault map (rows 0..32, cols 0..64; '#' faulty at p=3%, '+' also at p=1%):",
            kind.name()
        );
        print_map(&chip, v_hi, v_lo);
        println!();
    }

    // Subset property across voltages.
    let chip = ProfiledChip::synthesize(ChipKind::Chip2, opts.seed);
    let (v_hi, v_lo) = (chip.voltage_for_rate(0.005), chip.voltage_for_rate(0.04));
    let mut violations = 0usize;
    let mut faults_hi = 0usize;
    for i in 0..chip.n_cells() {
        let hi = chip.is_cell_faulty_at(i, v_hi);
        let lo = chip.is_cell_faulty_at(i, v_lo);
        if hi {
            faults_hi += 1;
            if !lo {
                violations += 1;
            }
        }
    }
    println!(
        "Inherited-errors check on {}: {} faults at the higher voltage, {} not present at the lower voltage (must be 0)",
        chip.kind().name(),
        faults_hi,
        violations
    );
    assert_eq!(violations, 0, "subset property violated");
    bitrobust_experiments::finish_obs();
}

fn print_map(chip: &ProfiledChip, v_hi: f64, v_lo: f64) {
    let cols = 64;
    for row in 0..32 {
        let mut line = String::with_capacity(cols);
        for col in 0..cols {
            let cell = row * 128 + col; // chip geometry is N x 128
            let at_lo = chip.is_cell_faulty_at(cell, v_lo);
            let at_hi = chip.is_cell_faulty_at(cell, v_hi);
            line.push(if at_hi {
                '+'
            } else if at_lo {
                '#'
            } else {
                '.'
            });
        }
        println!("{line}");
    }
}
