//! # bitrobust-experiments
//!
//! Shared infrastructure for the per-table / per-figure reproduction
//! binaries (see the README section "Reproducing the paper's figures and
//! tables" for the experiment index): a disk-backed
//! zoo of trained models, glue for the durable sweep orchestrator
//! ([`sweeps`]), table formatting helpers, and the common command-line
//! options.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod protocol;
pub mod sweeps;
pub mod table;
pub mod zoo;

pub use cli::ExpOptions;

/// Flushes observability output at end-of-run: writes `OBS_report.json`
/// (and, at trace level, the Chrome trace) and prints where they landed.
/// A no-op when obs is off; a write failure warns but never fails the
/// experiment — observability must not cost results.
pub fn finish_obs() {
    match bitrobust_obs::finish() {
        Ok(paths) => {
            for path in paths {
                println!("obs output written to {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: failed to write obs output: {e}"),
    }
}
pub use protocol::{p_grid_cifar, p_grid_cifar100, p_grid_mnist, protocol_axis, CHIP_SEED};
pub use sweeps::{open_sweep_store, sweep_dir, sweep_models, sweep_progress};
pub use table::{pct, pct_pm, Table};
pub use zoo::{dataset_pair, warm_zoo, zoo_model, DatasetKind, ZooSpec};
