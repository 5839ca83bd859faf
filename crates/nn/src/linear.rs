//! Fully connected layer.

use bitrobust_tensor::{matmul, matmul_nt, matmul_tn_accumulate, Tensor};
use rand::Rng;

use crate::{init, Layer, Mode, Param, ParamKind};

/// A fully connected layer `y = x · Wᵀ + b` with `W: [out, in]`.
///
/// # Examples
///
/// ```
/// use bitrobust_nn::{Layer, Linear, Mode};
/// use bitrobust_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut fc = Linear::new(8, 4, &mut rng);
/// let x = Tensor::zeros(&[2, 8]);
/// let y = fc.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    input_cache: Option<Tensor>,
}

impl Linear {
    /// Creates a linear layer with He-initialized weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Self {
            weight: Param::new(
                "weight",
                ParamKind::Weight,
                init::he_linear(out_features, in_features, rng),
            ),
            bias: Param::new("bias", ParamKind::Bias, Tensor::zeros(&[out_features])),
            input_cache: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value().dim(1)
    }

    /// The cache-free forward computation shared by both passes.
    fn compute(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.ndim(), 2, "Linear expects [batch, features]");
        assert_eq!(input.dim(1), self.in_features(), "Linear input feature mismatch");
        let mut out = matmul_nt(input, self.weight.value());
        let (batch, out_f) = (out.dim(0), out.dim(1));
        let bias = self.bias.value().data();
        let data = out.data_mut();
        for b in 0..batch {
            for (o, &bias_v) in bias.iter().enumerate().take(out_f) {
                data[b * out_f + o] += bias_v;
            }
        }
        out
    }
}

impl Layer for Linear {
    fn train_forward(&mut self, input: &Tensor) -> Tensor {
        self.input_cache = Some(input.clone());
        self.compute(input)
    }

    fn infer(&self, input: &Tensor, mode: Mode) -> Tensor {
        mode.assert_inference();
        self.compute(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.input_cache.as_ref().expect("backward before training forward");
        // dW += dYᵀ · X  with dY: [B, out], X: [B, in]  ->  [out, in],
        // accumulated straight into the gradient buffer (no temporary).
        let (batch_b, out_f_b, in_f) = (grad_output.dim(0), grad_output.dim(1), input.dim(1));
        matmul_tn_accumulate(
            self.weight.grad_mut().data_mut(),
            grad_output.data(),
            input.data(),
            out_f_b,
            batch_b,
            in_f,
        );
        // db += column sums of dY
        let (batch, out_f) = (grad_output.dim(0), grad_output.dim(1));
        {
            let db = self.bias.grad_mut().data_mut();
            let g = grad_output.data();
            for b in 0..batch {
                for (o, db_v) in db.iter_mut().enumerate().take(out_f) {
                    *db_v += g[b * out_f + o];
                }
            }
        }
        // dX = dY · W
        matmul(grad_output, self.weight.value())
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        visitor(&self.weight);
        visitor(&self.bias);
    }

    fn layer_type(&self) -> &'static str {
        "Linear"
    }

    fn clear_cache(&mut self) {
        self.input_cache = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradients, GradCheckConfig};
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual_computation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut fc = Linear::new(3, 2, &mut rng);
        fc.weight.value_mut().data_mut().copy_from_slice(&[1.0, 0.0, -1.0, 0.5, 0.5, 0.5]);
        fc.bias.value_mut().data_mut().copy_from_slice(&[0.1, -0.1]);
        let x = Tensor::from_vec(vec![1, 3], vec![2.0, 4.0, 6.0]);
        let y = fc.forward(&x, Mode::Eval);
        assert!((y.at(&[0, 0]) - (2.0 - 6.0 + 0.1)).abs() < 1e-6);
        assert!((y.at(&[0, 1]) - (6.0 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut fc = Linear::new(5, 3, &mut rng);
        check_layer_gradients(&mut fc, &[2, 5], &GradCheckConfig::default(), &mut rng);
    }

    #[test]
    fn grads_accumulate_across_backward_calls() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut fc = Linear::new(2, 2, &mut rng);
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]);
        let g = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]);
        let _ = fc.forward(&x, Mode::Train);
        let _ = fc.backward(&g);
        let after_one = fc.bias.grad().sum();
        let _ = fc.forward(&x, Mode::Train);
        let _ = fc.backward(&g);
        assert!((fc.bias.grad().sum() - 2.0 * after_one).abs() < 1e-6);
    }
}
