//! The shared evaluation protocol: fixed chip seeds and bit-error-rate
//! grids, so every experiment binary measures RErr on the *same* simulated
//! chips (as the paper fixes its 50 error patterns across all models).

use bitrobust_core::{run_axis, run_axis_streaming, ChipAxis, EvalResult, RobustEval, EVAL_BATCH};
use bitrobust_data::Dataset;
use bitrobust_nn::{Mode, Model};
use bitrobust_quant::QuantScheme;

/// Base seed for the shared evaluation chips.
pub const CHIP_SEED: u64 = 1000;

/// The shared-protocol injection axis: `ps × chips` uniform chips seeded
/// from [`CHIP_SEED`] — the single constructor behind every uniform RErr
/// sweep ([`rerr_sweep`] and [`bitrobust_core::run_sweep`] plans), so no
/// binary can drift off the shared chips.
pub fn protocol_axis(ps: &[f64], chips: usize) -> ChipAxis {
    ChipAxis::uniform(ps.to_vec(), chips, CHIP_SEED)
}

/// The paper's CIFAR bit error rate grid (in fractions, not %):
/// 0.01, 0.05, 0.1, 0.5, 1, 1.5, 2, 2.5 percent.
pub fn p_grid_cifar() -> Vec<f64> {
    vec![1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 1.5e-2, 2e-2, 2.5e-2]
}

/// The CIFAR100 grid (Fig. 7 middle): 0.001 … 1 percent.
pub fn p_grid_cifar100() -> Vec<f64> {
    vec![1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2]
}

/// The MNIST grid (Fig. 7 right): 1 … 20 percent.
pub fn p_grid_mnist() -> Vec<f64> {
    vec![1e-2, 5e-2, 1e-1, 1.25e-1, 1.5e-1, 2e-1]
}

/// Evaluates RErr on the shared chips for every rate in `ps`.
///
/// The whole sweep runs as **one** fault-injection campaign over the
/// shared [`protocol_axis`] ([`bitrobust_core::run_axis`]): all
/// `ps.len() x chips` patterns fan out over the thread pool together,
/// instead of nested serial loops. Per-chip errors are bit-identical to
/// calling `robust_eval_uniform` per rate.
pub fn rerr_sweep(
    model: &Model,
    scheme: QuantScheme,
    test_ds: &Dataset,
    ps: &[f64],
    chips: usize,
) -> Vec<RobustEval> {
    run_axis(model, &[scheme], &protocol_axis(ps, chips), test_ds, EVAL_BATCH, Mode::Eval).remove(0)
}

/// [`rerr_sweep`] with per-cell progress: `on_cell(rate_index, chip_index,
/// result)` fires — in rate-major, then chip order — as each cell's wave of
/// the streaming campaign ([`bitrobust_core::run_axis_streaming`]) lands.
/// The returned sweep is byte-identical to [`rerr_sweep`]'s; long-running
/// experiment binaries use the callback for progress output.
pub fn rerr_sweep_streaming(
    model: &Model,
    scheme: QuantScheme,
    test_ds: &Dataset,
    ps: &[f64],
    chips: usize,
    mut on_cell: impl FnMut(usize, usize, &EvalResult),
) -> Vec<RobustEval> {
    run_axis_streaming(
        model,
        &[scheme],
        &protocol_axis(ps, chips),
        test_ds,
        EVAL_BATCH,
        Mode::Eval,
        |cell, result| on_cell(cell.group, cell.point, result),
    )
    .remove(0)
}

/// Writes one progress dot per completed campaign cell to stderr, with a
/// newline after the final cell — the shared progress style of the
/// long-running experiment binaries ([`rerr_sweep_streaming`]'s usual
/// `on_cell`).
pub fn progress_dots(total_cells: usize) -> impl FnMut(usize, usize, &EvalResult) {
    use std::io::Write;
    let mut done = 0usize;
    move |_rate, _chip, _result| {
        done += 1;
        let mut err = std::io::stderr();
        let _ = write!(err, ".");
        if done == total_cells {
            let _ = writeln!(err);
        }
        let _ = err.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitrobust_core::{build, ArchKind, NormKind};
    use bitrobust_data::SynthDataset;
    use rand::SeedableRng;

    #[test]
    fn grids_are_sorted_and_positive() {
        for grid in [p_grid_cifar(), p_grid_cifar100(), p_grid_mnist()] {
            assert!(grid.windows(2).all(|w| w[0] < w[1]));
            assert!(grid.iter().all(|&p| p > 0.0 && p < 1.0));
        }
    }

    #[test]
    fn protocol_axis_spans_the_shared_chips() {
        let ps = [0.001, 0.01];
        let axis = protocol_axis(&ps, 7);
        assert_eq!(axis, ChipAxis::uniform(ps.to_vec(), 7, CHIP_SEED));
        assert_eq!(axis.rates(), &ps);
        assert_eq!(axis.n_points(), ps.len() * 7);
    }

    #[test]
    fn streaming_sweep_matches_batch_and_covers_every_cell_in_order() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let model = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
        let (_, test_ds) = SynthDataset::Mnist.generate(0);
        let ps = [0.001, 0.01];
        let chips = 3;

        let batch = rerr_sweep(&model, QuantScheme::rquant(8), &test_ds, &ps, chips);
        let mut seen = Vec::new();
        let streamed = rerr_sweep_streaming(
            &model,
            QuantScheme::rquant(8),
            &test_ds,
            &ps,
            chips,
            |r, c, _| seen.push((r, c)),
        );
        assert_eq!(batch, streamed, "streaming must not change results");
        let expected: Vec<(usize, usize)> =
            (0..ps.len()).flat_map(|r| (0..chips).map(move |c| (r, c))).collect();
        assert_eq!(seen, expected, "every cell must stream exactly once, in order");
    }
}
