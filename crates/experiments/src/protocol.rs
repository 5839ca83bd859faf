//! The shared evaluation protocol: fixed chip seeds and bit-error-rate
//! grids, so every experiment binary measures RErr on the *same* simulated
//! chips (as the paper fixes its 50 error patterns across all models).

use bitrobust_core::{run_sweep, ChipAxis, RobustEval, SweepAxis, SweepModel, SweepOptions};
use bitrobust_data::Dataset;
use bitrobust_nn::Model;
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
/// The whole sweep runs as **one** fault-injection campaign: a one-model
/// [`bitrobust_core::run_sweep`] over the shared [`protocol_axis`], so all
/// `ps.len() x chips` patterns fan out over the thread pool together.
/// Per-chip errors are bit-identical to calling `robust_eval_uniform` per
/// rate.
pub fn rerr_sweep(
    model: &Model,
    scheme: QuantScheme,
    test_ds: &Dataset,
    ps: &[f64],
    chips: usize,
) -> Vec<RobustEval> {
    let models = [SweepModel::new("model", scheme, model)];
    let axes = [SweepAxis::new("protocol", protocol_axis(ps, chips))];
    run_sweep(&models, &axes, test_ds, &SweepOptions::default(), None, |_, _| {}).robust(0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitrobust_core::{build, robust_eval_uniform, ArchKind, NormKind, EVAL_BATCH};
    use bitrobust_data::SynthDataset;
    use bitrobust_nn::Mode;
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

    /// Every binary that sweeps rates through [`rerr_sweep`] relies on
    /// this: each rate's entry is the per-rate protocol evaluation.
    #[test]
    fn rerr_sweep_matches_per_rate_evaluation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let model = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
        let (_, test_ds) = SynthDataset::Mnist.generate(0);
        let (scheme, ps, chips) = (QuantScheme::rquant(8), [0.001, 0.01], 3);

        let sweep = rerr_sweep(&model, scheme, &test_ds, &ps, chips);
        assert_eq!(sweep.len(), ps.len());
        for (&p, swept) in ps.iter().zip(&sweep) {
            let alone = robust_eval_uniform(
                &model,
                scheme,
                &test_ds,
                p,
                chips,
                CHIP_SEED,
                EVAL_BATCH,
                Mode::Eval,
            );
            assert_eq!(swept, &alone, "rate {p}");
        }
    }
}
