//! Softmax cross-entropy with optional label smoothing.

use bitrobust_tensor::{softmax_rows, Tensor};

/// Softmax cross-entropy loss.
///
/// With `smoothing_target = Some(tau)` the target distribution puts `tau` on
/// the true class and `(1 - tau)/(C - 1)` on each other class — the exact
/// label-smoothing variant the paper uses (τ = 0.9) to show that removing
/// the pressure for high confidences also removes the robustness benefit of
/// weight clipping (Tab. 2).
///
/// # Examples
///
/// ```
/// use bitrobust_nn::CrossEntropyLoss;
/// use bitrobust_tensor::Tensor;
///
/// let loss = CrossEntropyLoss::new();
/// let logits = Tensor::from_vec(vec![1, 3], vec![10.0, 0.0, 0.0]);
/// let out = loss.compute(&logits, &[0]);
/// assert!(out.loss < 1e-3); // confidently correct
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropyLoss {
    smoothing_target: Option<f32>,
}

/// The results of a loss evaluation.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Loss normalized by the denominator passed to
    /// [`CrossEntropyLoss::compute_scaled`] — the batch mean for
    /// [`CrossEntropyLoss::compute`].
    pub loss: f32,
    /// Unnormalized sum of per-example losses (f64, so data-parallel
    /// shards can be reduced without losing the bits of the batch mean).
    pub loss_sum: f64,
    /// Gradient of the normalized loss w.r.t. the logits, `[batch, classes]`.
    pub grad: Tensor,
    /// Softmax probabilities, `[batch, classes]`.
    pub probs: Tensor,
}

impl CrossEntropyLoss {
    /// Standard cross-entropy against one-hot targets.
    pub fn new() -> Self {
        Self { smoothing_target: None }
    }

    /// Cross-entropy against label-smoothed targets.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tau <= 1`.
    pub fn with_label_smoothing(tau: f32) -> Self {
        assert!(tau > 0.0 && tau <= 1.0, "smoothing target must be in (0, 1]");
        Self { smoothing_target: Some(tau) }
    }

    /// Computes the batch-mean loss, logits gradient, and probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is not 2-D, `labels.len()` differs from the batch
    /// size, or a label is out of range.
    pub fn compute(&self, logits: &Tensor, labels: &[usize]) -> LossOutput {
        self.compute_scaled(logits, labels, logits.dim(0))
    }

    /// [`CrossEntropyLoss::compute`] with an explicit normalization
    /// denominator: loss and gradient are divided by `denom` instead of the
    /// number of rows in `logits`.
    ///
    /// This is the shard-side primitive of data-parallel training: each
    /// worker evaluates its slice of the mini-batch with `denom` set to the
    /// *full* batch size, so the per-shard gradients are already scaled by
    /// `1/B` and sum — in a fixed reduction order — to the gradient of the
    /// batch-mean loss. With `denom == logits.dim(0)` this is exactly
    /// [`CrossEntropyLoss::compute`], bit for bit.
    ///
    /// # Panics
    ///
    /// As [`CrossEntropyLoss::compute`], and if `denom == 0`.
    pub fn compute_scaled(&self, logits: &Tensor, labels: &[usize], denom: usize) -> LossOutput {
        assert_eq!(logits.ndim(), 2, "logits must be [batch, classes]");
        let (batch, classes) = (logits.dim(0), logits.dim(1));
        assert_eq!(labels.len(), batch, "labels/batch size mismatch");
        assert!(classes >= 2, "need at least two classes");
        assert!(denom > 0, "loss denominator must be positive");

        let probs = softmax_rows(logits);
        let (target_true, target_other) = match self.smoothing_target {
            Some(tau) => (tau, (1.0 - tau) / (classes as f32 - 1.0)),
            None => (1.0, 0.0),
        };

        let mut grad = probs.clone();
        let mut loss = 0.0f64;
        let inv_denom = 1.0 / denom as f32;
        {
            let g = grad.data_mut();
            let p = probs.data();
            for (b, &label) in labels.iter().enumerate() {
                assert!(label < classes, "label {label} out of range for {classes} classes");
                for c in 0..classes {
                    let t = if c == label { target_true } else { target_other };
                    let idx = b * classes + c;
                    if t > 0.0 {
                        loss -= t as f64 * (p[idx].max(1e-12) as f64).ln();
                    }
                    g[idx] = (p[idx] - t) * inv_denom;
                }
            }
        }
        LossOutput { loss: (loss / denom as f64) as f32, loss_sum: loss, grad, probs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let loss = CrossEntropyLoss::new();
        let logits = Tensor::zeros(&[4, 10]);
        let out = loss.compute(&logits, &[0, 3, 5, 9]);
        assert!((out.loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let loss = CrossEntropyLoss::new();
        let mut logits = Tensor::from_vec(vec![2, 3], vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let out = loss.compute(&logits, &labels);
        let eps = 1e-3;
        for i in 0..6 {
            let orig = logits.data()[i];
            logits.data_mut()[i] = orig + eps;
            let plus = loss.compute(&logits, &labels).loss;
            logits.data_mut()[i] = orig - eps;
            let minus = loss.compute(&logits, &labels).loss;
            logits.data_mut()[i] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!(
                (out.grad.data()[i] - numeric).abs() < 1e-3,
                "coord {i}: {} vs {numeric}",
                out.grad.data()[i]
            );
        }
    }

    #[test]
    fn smoothing_gradient_matches_finite_differences() {
        let loss = CrossEntropyLoss::with_label_smoothing(0.9);
        let mut logits = Tensor::from_vec(vec![1, 4], vec![2.0, -1.0, 0.5, 0.0]);
        let labels = [1usize];
        let out = loss.compute(&logits, &labels);
        let eps = 1e-3;
        for i in 0..4 {
            let orig = logits.data()[i];
            logits.data_mut()[i] = orig + eps;
            let plus = loss.compute(&logits, &labels).loss;
            logits.data_mut()[i] = orig - eps;
            let minus = loss.compute(&logits, &labels).loss;
            logits.data_mut()[i] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            assert!((out.grad.data()[i] - numeric).abs() < 1e-3);
        }
    }

    #[test]
    fn smoothing_penalizes_extreme_confidence() {
        let smooth = CrossEntropyLoss::with_label_smoothing(0.9);
        let confident = Tensor::from_vec(vec![1, 2], vec![50.0, -50.0]);
        let moderate = Tensor::from_vec(vec![1, 2], vec![2.2, 0.0]); // p ~ 0.9
        assert!(smooth.compute(&confident, &[0]).loss > smooth.compute(&moderate, &[0]).loss);
    }

    #[test]
    #[should_panic(expected = "label")]
    fn rejects_out_of_range_labels() {
        let loss = CrossEntropyLoss::new();
        let _ = loss.compute(&Tensor::zeros(&[1, 3]), &[3]);
    }

    #[test]
    fn compute_scaled_with_batch_denominator_matches_compute() {
        let loss = CrossEntropyLoss::new();
        let logits = Tensor::from_vec(
            vec![3, 4],
            vec![0.5, -0.2, 0.1, 2.0, 1.0, 0.0, -1.0, 0.3, 0.2, 0.7, -0.4, 0.0],
        );
        let labels = [2usize, 0, 3];
        let a = loss.compute(&logits, &labels);
        let b = loss.compute_scaled(&logits, &labels, 3);
        assert_eq!(a.loss.to_bits(), b.loss.to_bits());
        assert_eq!(a.loss_sum.to_bits(), b.loss_sum.to_bits());
        assert_eq!(a.grad, b.grad);
    }

    #[test]
    fn sharded_loss_sums_recover_the_batch_mean() {
        let loss = CrossEntropyLoss::new();
        let logits = Tensor::from_vec(vec![4, 2], vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0, 0.1, 0.9]);
        let labels = [0usize, 0, 1, 1];
        let whole = loss.compute(&logits, &labels);

        // Split into two shards, each normalized by the full batch size.
        let top = Tensor::from_vec(vec![3, 2], logits.data()[..6].to_vec());
        let bottom = Tensor::from_vec(vec![1, 2], logits.data()[6..].to_vec());
        let a = loss.compute_scaled(&top, &labels[..3], 4);
        let b = loss.compute_scaled(&bottom, &labels[3..], 4);
        let mean = ((a.loss_sum + b.loss_sum) / 4.0) as f32;
        assert!((mean - whole.loss).abs() < 1e-6);
        // Shard gradients concatenate to the batch-mean gradient.
        let merged: Vec<f32> = a.grad.data().iter().chain(b.grad.data()).copied().collect();
        for (m, w) in merged.iter().zip(whole.grad.data()) {
            assert!((m - w).abs() < 1e-7);
        }
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn compute_scaled_rejects_zero_denominator() {
        let loss = CrossEntropyLoss::new();
        let _ = loss.compute_scaled(&Tensor::zeros(&[1, 3]), &[0], 0);
    }
}
