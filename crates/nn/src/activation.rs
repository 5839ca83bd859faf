//! Elementwise activations.

use bitrobust_tensor::Tensor;

use crate::{Layer, Mode};

/// Rectified linear unit, `y = max(0, x)`.
///
/// # Examples
///
/// ```
/// use bitrobust_nn::{Layer, Mode, Relu};
/// use bitrobust_tensor::Tensor;
///
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![1, 3], vec![-1.0, 0.0, 2.0]);
/// let y = relu.forward(&x, Mode::Eval);
/// assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self { mask: Vec::new() }
    }
}

impl Layer for Relu {
    fn train_forward(&mut self, input: &Tensor) -> Tensor {
        self.mask = input.data().iter().map(|&v| v > 0.0).collect();
        input.map(|v| v.max(0.0))
    }

    fn infer(&self, input: &Tensor, mode: Mode) -> Tensor {
        mode.assert_inference();
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert_eq!(
            grad_output.numel(),
            self.mask.len(),
            "backward called without a matching training forward"
        );
        let mut grad = grad_output.clone();
        for (g, &keep) in grad.data_mut().iter_mut().zip(&self.mask) {
            if !keep {
                *g = 0.0;
            }
        }
        grad
    }

    fn layer_type(&self) -> &'static str {
        "Relu"
    }

    fn clear_cache(&mut self) {
        self.mask = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-2.0, -0.5, 0.5, 2.0]);
        let y = relu.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-2.0, -0.5, 0.5, 2.0]);
        let _ = relu.forward(&x, Mode::Train);
        let g = Tensor::from_vec(vec![4], vec![1.0, 1.0, 1.0, 1.0]);
        let gx = relu.backward(&g);
        assert_eq!(gx.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![1], vec![0.0]);
        let _ = relu.forward(&x, Mode::Train);
        let gx = relu.backward(&Tensor::from_vec(vec![1], vec![5.0]));
        assert_eq!(gx.data(), &[0.0]);
    }
}
