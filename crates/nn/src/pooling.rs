//! Spatial pooling layers.

use bitrobust_tensor::Tensor;

use crate::{Layer, Mode};

/// Max pooling over `[batch, ch, h, w]`.
///
/// # Examples
///
/// ```
/// use bitrobust_nn::{Layer, MaxPool2d, Mode};
/// use bitrobust_tensor::Tensor;
///
/// let mut pool = MaxPool2d::new(2, 2);
/// let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
/// let y = pool.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[1, 1, 2, 2]);
/// assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    argmax: Vec<usize>,
    input_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        Self { kernel, stride, argmax: Vec::new(), input_shape: Vec::new() }
    }

    /// The cache-free pooling computation shared by both passes;
    /// returns the output plus the winning input index per output cell.
    fn compute(&self, input: &Tensor) -> (Tensor, Vec<usize>) {
        assert_eq!(input.ndim(), 4, "MaxPool2d expects [batch, ch, h, w]");
        let (batch, ch, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        assert!(h >= self.kernel && w >= self.kernel, "input smaller than pooling kernel");
        let oh = (h - self.kernel) / self.stride + 1;
        let ow = (w - self.kernel) / self.stride + 1;

        let mut out = Tensor::zeros(&[batch, ch, oh, ow]);
        let mut argmax = vec![0usize; batch * ch * oh * ow];
        let x = input.data();
        let data = out.data_mut();
        for bc in 0..batch * ch {
            let x_plane = &x[bc * h * w..(bc + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for ky in 0..self.kernel {
                        for kx in 0..self.kernel {
                            let iy = oy * self.stride + ky;
                            let ix = ox * self.stride + kx;
                            let idx = iy * w + ix;
                            if x_plane[idx] > best {
                                best = x_plane[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = (bc * oh + oy) * ow + ox;
                    data[o] = best;
                    argmax[o] = bc * h * w + best_idx;
                }
            }
        }
        (out, argmax)
    }
}

impl Layer for MaxPool2d {
    fn train_forward(&mut self, input: &Tensor) -> Tensor {
        let (out, argmax) = self.compute(input);
        self.argmax = argmax;
        self.input_shape = input.shape().to_vec();
        out
    }

    fn infer(&self, input: &Tensor, mode: Mode) -> Tensor {
        mode.assert_inference();
        self.compute(input).0
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        assert_eq!(
            grad_output.numel(),
            self.argmax.len(),
            "backward called without a matching training forward"
        );
        let mut dx = Tensor::zeros(&self.input_shape);
        let dxd = dx.data_mut();
        for (g, &src) in grad_output.data().iter().zip(&self.argmax) {
            dxd[src] += g;
        }
        dx
    }

    fn layer_type(&self) -> &'static str {
        "MaxPool2d"
    }

    fn clear_cache(&mut self) {
        self.argmax = Vec::new();
    }
}

/// Global average pooling: `[batch, ch, h, w]` → `[batch, ch]`.
#[derive(Debug, Clone, Default)]
pub struct GlobalAvgPool {
    input_shape: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global average pooling layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache-free pooling computation shared by both passes.
    fn compute(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.ndim(), 4, "GlobalAvgPool expects [batch, ch, h, w]");
        let (batch, ch, h, w) = (input.dim(0), input.dim(1), input.dim(2), input.dim(3));
        let hw = (h * w) as f32;
        let x = input.data();
        let mut out = Tensor::zeros(&[batch, ch]);
        let data = out.data_mut();
        for bc in 0..batch * ch {
            data[bc] = x[bc * h * w..(bc + 1) * h * w].iter().sum::<f32>() / hw;
        }
        out
    }
}

impl Layer for GlobalAvgPool {
    fn train_forward(&mut self, input: &Tensor) -> Tensor {
        self.input_shape = input.shape().to_vec();
        self.compute(input)
    }

    fn infer(&self, input: &Tensor, mode: Mode) -> Tensor {
        mode.assert_inference();
        self.compute(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let (h, w) = (self.input_shape[2], self.input_shape[3]);
        let hw = h * w;
        let inv = 1.0 / hw as f32;
        let mut dx = Tensor::zeros(&self.input_shape);
        let dxd = dx.data_mut();
        for (bc, &g) in grad_output.data().iter().enumerate() {
            for v in &mut dxd[bc * hw..(bc + 1) * hw] {
                *v = g * inv;
            }
        }
        dx
    }

    fn layer_type(&self) -> &'static str {
        "GlobalAvgPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_forward_and_backward_route_to_argmax() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
        );
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[4.0, 8.0, 12.0, 16.0]);
        let g = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let dx = pool.backward(&g);
        assert_eq!(dx.at(&[0, 0, 1, 1]), 1.0);
        assert_eq!(dx.at(&[0, 0, 1, 3]), 2.0);
        assert_eq!(dx.at(&[0, 0, 3, 1]), 3.0);
        assert_eq!(dx.at(&[0, 0, 3, 3]), 4.0);
        assert_eq!(dx.sum(), 10.0);
    }

    #[test]
    fn global_avg_pool_means_and_spreads() {
        let mut pool = GlobalAvgPool::new();
        let x = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let y = pool.forward(&x, Mode::Train);
        assert_eq!(y.data(), &[1.5, 5.5]);
        let g = Tensor::from_vec(vec![1, 2], vec![4.0, 8.0]);
        let dx = pool.backward(&g);
        assert_eq!(dx.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(dx.at(&[0, 1, 1, 1]), 2.0);
    }

    #[test]
    fn maxpool_overlapping_window() {
        let mut pool = MaxPool2d::new(3, 2);
        let x = Tensor::from_fn(&[1, 1, 5, 5], |i| i as f32);
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 14.0, 22.0, 24.0]);
    }
}
