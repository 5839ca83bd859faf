//! SGD with momentum and weight decay, plus the paper's LR schedule.

use bitrobust_tensor::Tensor;

use crate::Model;

/// Stochastic gradient descent with classical momentum and L2 weight decay.
///
/// Matches the paper's training setup: momentum 0.9, weight decay 5·10⁻⁴,
/// and a multi-step learning-rate schedule (see [`MultiStepLr`]).
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    buffers: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, momentum, weight_decay, buffers: Vec::new() }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (used by schedules between epochs).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one update step using the gradients accumulated in `model`.
    ///
    /// Momentum buffers are created lazily on first use and matched to
    /// parameters by visit order.
    pub fn step(&mut self, model: &mut Model) {
        let lr = self.lr;
        let momentum = self.momentum;
        let weight_decay = self.weight_decay;
        let buffers = &mut self.buffers;
        let mut index = 0;
        model.visit_params(&mut |param| {
            if buffers.len() <= index {
                buffers.push(Tensor::zeros(param.value().shape()));
            }
            let buf = &mut buffers[index];
            let (value, grad) = param.value_and_grad_mut();
            debug_assert_eq!(buf.shape(), value.shape(), "momentum buffer shape drift");
            let b = buf.data_mut();
            let v = value.data_mut();
            let g = grad.data();
            for i in 0..v.len() {
                let step = g[i] + weight_decay * v[i];
                b[i] = momentum * b[i] + step;
                v[i] -= lr * b[i];
            }
            index += 1;
        });
    }
}

/// Multi-step learning-rate decay: `lr = base * gamma^(milestones passed)`.
///
/// The paper multiplies by 0.1 after 2/5, 3/5 and 4/5 of the epoch budget.
///
/// # Examples
///
/// ```
/// use bitrobust_nn::MultiStepLr;
///
/// let schedule = MultiStepLr::paper_schedule(0.05, 100);
/// assert_eq!(schedule.lr_at(0), 0.05);
/// assert!((schedule.lr_at(40) - 0.005).abs() < 1e-9);
/// assert!((schedule.lr_at(80) - 0.00005).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct MultiStepLr {
    base: f32,
    milestones: Vec<usize>,
    gamma: f32,
}

impl MultiStepLr {
    /// Creates a schedule decaying by `gamma` at each milestone epoch.
    pub fn new(base: f32, milestones: Vec<usize>, gamma: f32) -> Self {
        Self { base, milestones, gamma }
    }

    /// The paper's schedule: ×0.1 after 2/5, 3/5 and 4/5 of `epochs`.
    ///
    /// Zero and duplicate milestones (which integer division produces for
    /// small epoch budgets) are dropped: a milestone of 0 would count as
    /// already passed at epoch 0, so every short run would start at
    /// `0.1 × base` and never train at the base learning rate, and a
    /// duplicated milestone would apply two decay steps at once.
    pub fn paper_schedule(base: f32, epochs: usize) -> Self {
        let mut milestones: Vec<usize> = [epochs * 2 / 5, epochs * 3 / 5, epochs * 4 / 5]
            .into_iter()
            .filter(|&m| m > 0)
            .collect();
        milestones.dedup();
        Self::new(base, milestones, 0.1)
    }

    /// Learning rate for the given (0-based) epoch.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        let passed = self.milestones.iter().filter(|&&m| epoch >= m).count();
        self.base * self.gamma.powi(passed as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrossEntropyLoss;
    use crate::{Linear, Mode, Sequential};
    use rand::SeedableRng;

    #[test]
    fn sgd_reduces_loss_on_a_toy_problem() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut net = Sequential::new();
        net.push(Linear::new(2, 2, &mut rng));
        let mut model = Model::new("toy", net);
        let mut sgd = Sgd::new(0.5, 0.9, 0.0);
        let loss_fn = CrossEntropyLoss::new();

        // Linearly separable points.
        let x = Tensor::from_vec(vec![4, 2], vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0, 0.1, 0.9]);
        let labels = [0usize, 0, 1, 1];

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..50 {
            model.zero_grads();
            let logits = model.forward(&x, Mode::Train);
            let out = loss_fn.compute(&logits, &labels);
            model.backward(&out.grad);
            sgd.step(&mut model);
            first.get_or_insert(out.loss);
            last = out.loss;
        }
        assert!(last < first.unwrap() * 0.1, "loss {} -> {}", first.unwrap(), last);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradients() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut net = Sequential::new();
        net.push(Linear::new(2, 2, &mut rng));
        let mut model = Model::new("toy", net);
        let before: f32 =
            model.param_tensors().iter().map(|t| t.data().iter().map(|v| v * v).sum::<f32>()).sum();
        let mut sgd = Sgd::new(0.1, 0.0, 0.1);
        model.zero_grads();
        sgd.step(&mut model);
        let after: f32 =
            model.param_tensors().iter().map(|t| t.data().iter().map(|v| v * v).sum::<f32>()).sum();
        assert!(after < before);
    }

    #[test]
    fn multistep_schedule_counts_milestones() {
        let s = MultiStepLr::new(1.0, vec![10, 20], 0.5);
        assert_eq!(s.lr_at(9), 1.0);
        assert_eq!(s.lr_at(10), 0.5);
        assert_eq!(s.lr_at(25), 0.25);
    }

    /// Regression test: `epochs * 2 / 5 == 0` for `epochs < 3` used to put a
    /// milestone at epoch 0, so `lr_at(0)` already counted a passed decay and
    /// short runs never saw the base learning rate.
    #[test]
    fn paper_schedule_drops_zero_and_duplicate_milestones() {
        // epochs = 1: all milestones collapse to 0 and are dropped.
        let s1 = MultiStepLr::paper_schedule(0.05, 1);
        assert_eq!(s1.lr_at(0), 0.05);

        // epochs = 2: milestones [0, 1, 1] -> [1]; one decay step at epoch 1.
        let s2 = MultiStepLr::paper_schedule(0.05, 2);
        assert_eq!(s2.lr_at(0), 0.05);
        assert!((s2.lr_at(1) - 0.005).abs() < 1e-9);

        // epochs = 5: the canonical [2, 3, 4] staircase.
        let s5 = MultiStepLr::paper_schedule(0.05, 5);
        assert_eq!(s5.lr_at(0), 0.05);
        assert!((s5.lr_at(2) - 0.005).abs() < 1e-9);
        assert!((s5.lr_at(3) - 0.0005).abs() < 1e-9);
        assert!((s5.lr_at(4) - 0.00005).abs() < 1e-10);

        // epochs = 100: unchanged by the fix.
        let s100 = MultiStepLr::paper_schedule(0.05, 100);
        assert_eq!(s100.lr_at(0), 0.05);
        assert_eq!(s100.lr_at(39), 0.05);
        assert!((s100.lr_at(40) - 0.005).abs() < 1e-9);
        assert!((s100.lr_at(60) - 0.0005).abs() < 1e-9);
        assert!((s100.lr_at(99) - 0.00005).abs() < 1e-10);
    }
}
