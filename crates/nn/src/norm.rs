//! Normalization layers.
//!
//! The paper replaces BatchNorm with GroupNorm because BatchNorm's
//! *accumulated* statistics do not account for weight bit errors at test
//! time (Tab. 10, App. G.1). Both are provided here, and [`BatchNorm2d`]
//! supports evaluating with batch statistics ([`Mode::EvalBatchStats`]) to
//! reproduce that ablation.
//!
//! Both layers use the App. E reparameterization: the learnable scale is
//! stored as `alpha' = alpha - 1`, so aggressive weight clipping to
//! `[-wmax, wmax]` with `wmax < 1` does not prevent the layer from
//! representing the identity (`alpha = 1` corresponds to `alpha' = 0`).

use bitrobust_tensor::Tensor;

use crate::{Layer, Mode, Param, ParamKind};

const EPS: f32 = 1e-5;

/// Group normalization (Wu & He, 2018) over `[batch, ch, h, w]`.
///
/// # Examples
///
/// ```
/// use bitrobust_nn::{GroupNorm, Layer, Mode};
/// use bitrobust_tensor::Tensor;
///
/// let mut gn = GroupNorm::new(8, 4);
/// let x = Tensor::from_fn(&[2, 8, 3, 3], |i| i as f32);
/// let y = gn.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 8, 3, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct GroupNorm {
    scale: Param, // alpha' = alpha - 1
    shift: Param,
    groups: usize,
    normalized_cache: Option<Tensor>,
    inv_std_cache: Vec<f32>, // [batch * groups]
}

impl GroupNorm {
    /// Creates a group-norm layer with identity initialization.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide `channels`.
    pub fn new(channels: usize, groups: usize) -> Self {
        assert!(groups > 0 && channels.is_multiple_of(groups), "groups must divide channels");
        Self {
            scale: Param::new("scale", ParamKind::NormScale, Tensor::zeros(&[channels])),
            shift: Param::new("shift", ParamKind::NormBias, Tensor::zeros(&[channels])),
            groups,
            normalized_cache: None,
            inv_std_cache: Vec::new(),
        }
    }

    /// Per-group normalization shared by both passes.
    fn normalize(&self, input: &Tensor) -> (Tensor, Vec<f32>) {
        assert_eq!(input.ndim(), 4, "GroupNorm expects [batch, ch, h, w]");
        let (batch, ch, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        assert_eq!(ch, self.scale.numel(), "GroupNorm channel mismatch");
        let group_ch = ch / self.groups;
        let group_len = group_ch * h * w;

        // Normalization is a single cheap pass relative to the surrounding
        // convolutions, so it stays serial and simple.
        let mut normalized = input.clone();
        let mut inv_stds = vec![0f32; batch * self.groups];
        let x = input.data();
        let data = normalized.data_mut();
        for b in 0..batch {
            for g in 0..self.groups {
                let start = b * ch * h * w + g * group_len;
                let chunk = &x[start..start + group_len];
                let mean = chunk.iter().sum::<f32>() / group_len as f32;
                let var =
                    chunk.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / group_len as f32;
                let inv_std = 1.0 / (var + EPS).sqrt();
                inv_stds[b * self.groups + g] = inv_std;
                for (o, &v) in data[start..start + group_len].iter_mut().zip(chunk) {
                    *o = (v - mean) * inv_std;
                }
            }
        }
        (normalized, inv_stds)
    }

    /// Applies the reparameterized scale/shift to a normalized tensor.
    fn scale_shift(&self, normalized: &Tensor) -> Tensor {
        let (batch, ch, h, w) =
            (normalized.dim(0), normalized.dim(1), normalized.dim(2), normalized.dim(3));
        let mut out = normalized.clone();
        let scale = self.scale.value().data();
        let shift = self.shift.value().data();
        let out_data = out.data_mut();
        for b in 0..batch {
            for c in 0..ch {
                let gamma = 1.0 + scale[c];
                let beta = shift[c];
                let start = (b * ch + c) * h * w;
                for v in &mut out_data[start..start + h * w] {
                    *v = gamma * *v + beta;
                }
            }
        }
        out
    }
}

impl Layer for GroupNorm {
    fn train_forward(&mut self, input: &Tensor) -> Tensor {
        let (normalized, inv_stds) = self.normalize(input);
        let out = self.scale_shift(&normalized);
        self.normalized_cache = Some(normalized);
        self.inv_std_cache = inv_stds;
        out
    }

    fn infer(&self, input: &Tensor, mode: Mode) -> Tensor {
        mode.assert_inference();
        let (normalized, _) = self.normalize(input);
        self.scale_shift(&normalized)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let normalized = self.normalized_cache.as_ref().expect("backward before training forward");
        let (batch, ch, h, w) =
            (grad_output.dim(0), grad_output.dim(1), grad_output.dim(2), grad_output.dim(3));
        let group_ch = ch / self.groups;
        let group_len = group_ch * h * w;
        let hw = h * w;

        let dy = grad_output.data();
        let xhat = normalized.data();

        // Parameter gradients.
        {
            let dscale = self.scale.grad_mut().data_mut();
            let dshift = self.shift.grad_mut().data_mut();
            for b in 0..batch {
                for c in 0..ch {
                    let start = (b * ch + c) * hw;
                    let mut s_scale = 0.0;
                    let mut s_shift = 0.0;
                    for i in start..start + hw {
                        s_scale += dy[i] * xhat[i];
                        s_shift += dy[i];
                    }
                    dscale[c] += s_scale;
                    dshift[c] += s_shift;
                }
            }
        }

        // Input gradient: dx = inv_std * (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat))
        let mut dx = Tensor::zeros(grad_output.shape());
        let scale = self.scale.value().data();
        let dxd = dx.data_mut();
        for b in 0..batch {
            for g in 0..self.groups {
                let start = b * ch * hw + g * group_len;
                let inv_std = self.inv_std_cache[b * self.groups + g];
                let mut sum_dxhat = 0.0f64;
                let mut sum_dxhat_xhat = 0.0f64;
                for local in 0..group_len {
                    let c = g * group_ch + local / hw;
                    let i = start + local;
                    let dxhat = (dy[i] * (1.0 + scale[c])) as f64;
                    sum_dxhat += dxhat;
                    sum_dxhat_xhat += dxhat * xhat[i] as f64;
                }
                let mean_dxhat = (sum_dxhat / group_len as f64) as f32;
                let mean_dxhat_xhat = (sum_dxhat_xhat / group_len as f64) as f32;
                for local in 0..group_len {
                    let c = g * group_ch + local / hw;
                    let i = start + local;
                    let dxhat = dy[i] * (1.0 + scale[c]);
                    dxd[i] = inv_std * (dxhat - mean_dxhat - xhat[i] * mean_dxhat_xhat);
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.scale);
        visitor(&mut self.shift);
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        visitor(&self.scale);
        visitor(&self.shift);
    }

    fn layer_type(&self) -> &'static str {
        "GroupNorm"
    }

    fn clear_cache(&mut self) {
        self.normalized_cache = None;
        self.inv_std_cache = Vec::new();
    }
}

/// Batch normalization over `[batch, ch, h, w]` with running statistics.
///
/// In [`Mode::Train`] the layer normalizes with batch statistics and updates
/// the running mean/variance with momentum 0.1. In [`Mode::Eval`] it uses
/// the running statistics (the deployment behaviour whose fragility under
/// weight bit errors the paper demonstrates). [`Mode::EvalBatchStats`]
/// recomputes statistics from the evaluation batch without updating the
/// running buffers.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    scale: Param, // alpha' = alpha - 1
    shift: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    normalized_cache: Option<Tensor>,
    inv_std_cache: Vec<f32>, // [ch]
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with identity initialization.
    pub fn new(channels: usize) -> Self {
        Self {
            scale: Param::new("scale", ParamKind::NormScale, Tensor::zeros(&[channels])),
            shift: Param::new("shift", ParamKind::NormBias, Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            normalized_cache: None,
            inv_std_cache: Vec::new(),
        }
    }

    /// `[batch, ch, h, w]` of `input`, checked against this layer.
    fn dims(&self, input: &Tensor) -> (usize, usize, usize, usize) {
        assert_eq!(input.ndim(), 4, "BatchNorm2d expects [batch, ch, h, w]");
        assert_eq!(input.dim(1), self.scale.numel(), "BatchNorm2d channel mismatch");
        (input.dim(0), input.dim(1), input.dim(2), input.dim(3))
    }

    /// Per-channel batch statistics of `input`.
    fn batch_stats(&self, input: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (batch, ch, h, w) = self.dims(input);
        let hw = h * w;
        let n = batch * hw;
        let x = input.data();
        let mut means = vec![0f32; ch];
        let mut vars = vec![0f32; ch];
        for c in 0..ch {
            let mut sum = 0.0f64;
            for b in 0..batch {
                let start = (b * ch + c) * hw;
                sum += x[start..start + hw].iter().map(|&v| v as f64).sum::<f64>();
            }
            let mean = (sum / n as f64) as f32;
            let mut var = 0.0f64;
            for b in 0..batch {
                let start = (b * ch + c) * hw;
                var +=
                    x[start..start + hw].iter().map(|&v| ((v - mean) as f64).powi(2)).sum::<f64>();
            }
            means[c] = mean;
            vars[c] = (var / n as f64) as f32;
        }
        (means, vars)
    }

    /// Normalizes with the given statistics and applies scale/shift; returns
    /// `(out, normalized, inv_stds)` so the training pass can cache the
    /// latter two.
    fn apply_stats(
        &self,
        input: &Tensor,
        means: &[f32],
        vars: &[f32],
    ) -> (Tensor, Tensor, Vec<f32>) {
        let (batch, ch, h, w) = self.dims(input);
        let hw = h * w;

        let mut normalized = input.clone();
        let mut inv_stds = vec![0f32; ch];
        {
            let data = normalized.data_mut();
            for c in 0..ch {
                let inv_std = 1.0 / (vars[c] + EPS).sqrt();
                inv_stds[c] = inv_std;
                for b in 0..batch {
                    let start = (b * ch + c) * hw;
                    for v in &mut data[start..start + hw] {
                        *v = (*v - means[c]) * inv_std;
                    }
                }
            }
        }

        let mut out = normalized.clone();
        {
            let scale = self.scale.value().data();
            let shift = self.shift.value().data();
            let data = out.data_mut();
            for c in 0..ch {
                let gamma = 1.0 + scale[c];
                let beta = shift[c];
                for b in 0..batch {
                    let start = (b * ch + c) * hw;
                    for v in &mut data[start..start + hw] {
                        *v = gamma * *v + beta;
                    }
                }
            }
        }
        (out, normalized, inv_stds)
    }
}

impl Layer for BatchNorm2d {
    fn train_forward(&mut self, input: &Tensor) -> Tensor {
        let (means, vars) = self.batch_stats(input);
        for c in 0..means.len() {
            self.running_mean[c] =
                (1.0 - self.momentum) * self.running_mean[c] + self.momentum * means[c];
            self.running_var[c] =
                (1.0 - self.momentum) * self.running_var[c] + self.momentum * vars[c];
        }
        let (out, normalized, inv_stds) = self.apply_stats(input, &means, &vars);
        self.normalized_cache = Some(normalized);
        self.inv_std_cache = inv_stds;
        out
    }

    fn infer(&self, input: &Tensor, mode: Mode) -> Tensor {
        mode.assert_inference();
        let (means, vars) = if matches!(mode, Mode::EvalBatchStats) {
            self.batch_stats(input)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };
        self.apply_stats(input, &means, &vars).0
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let normalized = self.normalized_cache.as_ref().expect("backward before training forward");
        let (batch, ch, h, w) =
            (grad_output.dim(0), grad_output.dim(1), grad_output.dim(2), grad_output.dim(3));
        let hw = h * w;
        let n = (batch * hw) as f32;

        let dy = grad_output.data();
        let xhat = normalized.data();
        let scale: Vec<f32> = self.scale.value().data().to_vec();

        let mut dx = Tensor::zeros(grad_output.shape());
        let dxd = dx.data_mut();
        {
            let dscale = self.scale.grad_mut().data_mut();
            let dshift = self.shift.grad_mut().data_mut();
            for c in 0..ch {
                let mut sum_dy = 0.0f64;
                let mut sum_dy_xhat = 0.0f64;
                for b in 0..batch {
                    let start = (b * ch + c) * hw;
                    for i in start..start + hw {
                        sum_dy += dy[i] as f64;
                        sum_dy_xhat += (dy[i] * xhat[i]) as f64;
                    }
                }
                dscale[c] += sum_dy_xhat as f32;
                dshift[c] += sum_dy as f32;

                let gamma = 1.0 + scale[c];
                let inv_std = self.inv_std_cache[c];
                let mean_dxhat = gamma * sum_dy as f32 / n;
                let mean_dxhat_xhat = gamma * sum_dy_xhat as f32 / n;
                for b in 0..batch {
                    let start = (b * ch + c) * hw;
                    for i in start..start + hw {
                        let dxhat = dy[i] * gamma;
                        dxd[i] = inv_std * (dxhat - mean_dxhat - xhat[i] * mean_dxhat_xhat);
                    }
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.scale);
        visitor(&mut self.shift);
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        visitor(&self.scale);
        visitor(&self.shift);
    }

    fn layer_type(&self) -> &'static str {
        "BatchNorm2d"
    }

    fn clear_cache(&mut self) {
        self.normalized_cache = None;
        self.inv_std_cache = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradients, GradCheckConfig};
    use rand::SeedableRng;

    #[test]
    fn groupnorm_normalizes_each_group() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut gn = GroupNorm::new(4, 2);
        let x = Tensor::randn(&[3, 4, 5, 5], 3.0, &mut rng);
        let y = gn.forward(&x, Mode::Eval);
        // With identity scale/shift, each (sample, group) chunk of the output
        // has mean ~0 and variance ~1.
        let group_len = 2 * 25;
        for b in 0..3 {
            for g in 0..2 {
                let start = b * 4 * 25 + g * group_len;
                let chunk = &y.data()[start..start + group_len];
                let mean = chunk.iter().sum::<f32>() / group_len as f32;
                let var =
                    chunk.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / group_len as f32;
                assert!(mean.abs() < 1e-4, "mean {mean}");
                assert!((var - 1.0).abs() < 1e-2, "var {var}");
            }
        }
    }

    #[test]
    fn groupnorm_gradients_match_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut gn = GroupNorm::new(4, 2);
        // Non-identity scale/shift to exercise those paths.
        gn.scale.value_mut().data_mut().copy_from_slice(&[0.3, -0.2, 0.1, 0.0]);
        gn.shift.value_mut().data_mut().copy_from_slice(&[0.5, 0.0, -0.5, 0.1]);
        check_layer_gradients(&mut gn, &[2, 4, 3, 3], &GradCheckConfig::default(), &mut rng);
    }

    #[test]
    fn batchnorm_train_normalizes_per_channel() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::randn(&[8, 3, 4, 4], 2.0, &mut rng);
        let y = bn.forward(&x, Mode::Train);
        for c in 0..3 {
            let mut vals = Vec::new();
            for b in 0..8 {
                let start = (b * 3 + c) * 16;
                vals.extend_from_slice(&y.data()[start..start + 16]);
            }
            let mean = vals.iter().sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut bn = BatchNorm2d::new(2);
        // Warm up running stats.
        for _ in 0..200 {
            let x = Tensor::randn(&[16, 2, 2, 2], 1.0, &mut rng).map(|v| v + 5.0);
            let _ = bn.forward(&x, Mode::Train);
        }
        assert!((bn.running_mean[0] - 5.0).abs() < 0.3);
        // Eval with shifted input: output mean reflects the mismatch.
        let x = Tensor::full(&[4, 2, 2, 2], 5.0);
        let y = bn.forward(&x, Mode::Eval);
        assert!(y.mean().abs() < 0.5, "eval should roughly center 5.0 via running stats");
        // EvalBatchStats re-centres exactly (variance is 0 -> output 0).
        let y2 = bn.forward(&x, Mode::EvalBatchStats);
        assert!(y2.abs_max() < 1e-2);
    }

    #[test]
    fn batchnorm_gradients_match_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut bn = BatchNorm2d::new(3);
        bn.scale.value_mut().data_mut().copy_from_slice(&[0.2, -0.1, 0.0]);
        bn.shift.value_mut().data_mut().copy_from_slice(&[0.1, 0.3, -0.2]);
        check_layer_gradients(&mut bn, &[4, 3, 3, 3], &GradCheckConfig::default(), &mut rng);
    }
}
