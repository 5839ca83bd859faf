//! The shared evaluation protocol: fixed chip seeds and bit-error-rate
//! grids, so every experiment binary measures RErr on the *same* simulated
//! chips (as the paper fixes its 50 error patterns across all models).

use bitrobust_core::ChipAxis;

/// Base seed for the shared evaluation chips.
pub const CHIP_SEED: u64 = 1000;

/// The shared-protocol injection axis: `ps × chips` uniform chips seeded
/// from [`CHIP_SEED`] — the single constructor behind every uniform RErr
/// row, whether one model's ([`bitrobust_core::robust_eval`]) or a
/// multi-model [`bitrobust_core::run_sweep`] plan's, so no binary can
/// drift off the shared chips.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
