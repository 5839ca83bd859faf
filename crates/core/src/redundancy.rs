//! Redundancy metrics (Fig. 6 / Fig. 10): why weight clipping helps.
//!
//! The paper argues clipping forces the network to spread information over
//! more weights: the cross-entropy loss demands large logits, clipping caps
//! individual weights, so *many* weights must contribute — redundancy that
//! absorbs individual bit errors. These metrics quantify that claim.

use bitrobust_biterror::UniformChip;
use bitrobust_data::Dataset;
use bitrobust_nn::{Mode, Model};
use bitrobust_quant::QuantScheme;

use crate::{QuantizedModel, EVAL_BATCH};

/// Weight-distribution redundancy metrics for a trained model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedundancyMetrics {
    /// Mean absolute bit-error-induced weight perturbation relative to the
    /// maximum absolute weight ("relative absolute error" in Fig. 10,
    /// computed at the given bit error rate).
    pub relative_abs_error: f64,
    /// `Σ|w| / (max|w| · W)`: how many weights are *relevant* relative to
    /// the largest ("weight relevance" in Fig. 10, normalized to `[0, 1]`).
    pub weight_relevance: f64,
    /// Fraction of exactly-zero quantized weights (log-scale spike of
    /// Fig. 6 right).
    pub fraction_zero: f64,
    /// Fraction of weights with `|w| > 0.5 · max|w|` (large-tail mass).
    pub fraction_large: f64,
}

/// Computes redundancy metrics for `model` under `scheme`, measuring the
/// bit-error perturbation at rate `p` averaged over `n_chips` chips.
pub fn redundancy_metrics(
    model: &Model,
    scheme: QuantScheme,
    p: f64,
    n_chips: usize,
    chip_seed_base: u64,
) -> RedundancyMetrics {
    let q0 = QuantizedModel::quantize(model, scheme);
    let clean: Vec<Vec<f32>> = q0.tensors().iter().map(|t| t.dequantize()).collect();

    // Weight-distribution statistics on the clean quantized weights.
    let mut sum_abs = 0f64;
    let mut max_abs = 0f64;
    let mut zeros = 0usize;
    let mut count = 0usize;
    for t in &clean {
        for &w in t {
            sum_abs += w.abs() as f64;
            max_abs = max_abs.max(w.abs() as f64);
            if w == 0.0 {
                zeros += 1;
            }
            count += 1;
        }
    }
    let mut large = 0usize;
    if max_abs > 0.0 {
        for t in &clean {
            for &w in t {
                if (w.abs() as f64) > 0.5 * max_abs {
                    large += 1;
                }
            }
        }
    }

    // Bit-error perturbation magnitude.
    let mut err_sum = 0f64;
    let mut err_count = 0usize;
    for c in 0..n_chips {
        let mut q = q0.clone();
        q.inject(&UniformChip::new(chip_seed_base + c as u64).at_rate(p));
        for (qt, ct) in q.tensors().iter().zip(&clean) {
            for (d, &cw) in qt.dequantize().iter().zip(ct) {
                err_sum += (d - cw).abs() as f64;
                err_count += 1;
            }
        }
    }

    RedundancyMetrics {
        relative_abs_error: if max_abs > 0.0 {
            err_sum / err_count.max(1) as f64 / max_abs
        } else {
            0.0
        },
        weight_relevance: if max_abs > 0.0 { sum_abs / (max_abs * count as f64) } else { 0.0 },
        fraction_zero: zeros as f64 / count.max(1) as f64,
        fraction_large: large as f64 / count.max(1) as f64,
    }
}

/// "ReLU relevance" (Fig. 10): the fraction of strictly positive
/// activations after the model's last top-level ReLU, over every example
/// in `dataset` — how many units the network actually uses.
///
/// The clean quantized weights under `scheme` go into a clone, so `model`
/// is never written. Each batch of [`EVAL_BATCH`] runs in [`Mode::Eval`]
/// through [`Model::layers`] up to and including the last top-level
/// `Relu`. The result is a ratio of exact counts, so it does not depend on
/// the batch size.
///
/// # Panics
///
/// Panics if `dataset` is empty or `model` has no top-level ReLU.
pub fn relu_relevance(model: &Model, scheme: QuantScheme, dataset: &Dataset) -> f64 {
    assert!(!dataset.is_empty(), "dataset must not be empty");
    let mut clean = model.clone();
    QuantizedModel::quantize(model, scheme).write_to(&mut clean);
    let depth = clean
        .layers()
        .enumerate()
        .filter(|(_, layer)| layer.layer_type() == "Relu")
        .map(|(i, _)| i + 1)
        .last()
        .expect("relu_relevance needs a model with a top-level ReLU");

    let (mut positive, mut total) = (0usize, 0usize);
    for start in (0..dataset.len()).step_by(EVAL_BATCH) {
        let (mut x, _) = dataset.batch_range(start, (start + EVAL_BATCH).min(dataset.len()));
        for layer in clean.layers().take(depth) {
            x = layer.infer(&x, Mode::Eval);
        }
        positive += x.data().iter().filter(|&&v| v > 0.0).count();
        total += x.numel();
    }
    positive as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, ArchKind, NormKind};
    use bitrobust_nn::{Linear, Sequential};
    use bitrobust_tensor::Tensor;
    use rand::SeedableRng;

    fn random_dataset(n: usize, shape: [usize; 3], rng: &mut impl rand::Rng) -> Dataset {
        let [c, h, w] = shape;
        Dataset::new("random", Tensor::randn(&[n, c, h, w], 1.0, rng), vec![0; n], 10)
    }

    fn model_with_weights(f: impl Fn(usize) -> f32) -> Model {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut net = Sequential::new();
        net.push(Linear::new(32, 32, &mut rng));
        let mut model = Model::new("m", net);
        let mut k = 0;
        model.visit_params(&mut |p| {
            p.value_mut().map_inplace(|_| {
                k += 1;
                f(k)
            });
        });
        model
    }

    #[test]
    fn uniform_weights_have_high_relevance() {
        // All weights equal -> relevance 1.
        let m = model_with_weights(|_| 0.05);
        let r = redundancy_metrics(&m, QuantScheme::rquant(8), 0.01, 2, 0);
        assert!(r.weight_relevance > 0.95, "relevance {}", r.weight_relevance);
    }

    #[test]
    fn spiky_weights_have_low_relevance() {
        // One dominant weight -> relevance near 0.
        let m = model_with_weights(|k| if k == 1 { 1.0 } else { 0.001 });
        let r = redundancy_metrics(&m, QuantScheme::rquant(8), 0.01, 2, 0);
        assert!(r.weight_relevance < 0.1, "relevance {}", r.weight_relevance);
    }

    #[test]
    fn higher_rate_increases_relative_error() {
        let m = model_with_weights(|k| ((k % 13) as f32 - 6.0) * 0.01);
        let lo = redundancy_metrics(&m, QuantScheme::rquant(8), 0.001, 3, 7);
        let hi = redundancy_metrics(&m, QuantScheme::rquant(8), 0.05, 3, 7);
        assert!(hi.relative_abs_error > lo.relative_abs_error);
    }

    #[test]
    fn fractions_are_probabilities() {
        let m = model_with_weights(|k| (k % 5) as f32 * 0.01);
        let r = redundancy_metrics(&m, QuantScheme::rquant(8), 0.01, 1, 0);
        assert!((0.0..=1.0).contains(&r.fraction_zero));
        assert!((0.0..=1.0).contains(&r.fraction_large));
    }

    /// 300 examples span two full batches and a partial one; the result
    /// equals one pass of the same layers over the whole set.
    #[test]
    fn relu_relevance_is_independent_of_batch_size() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let model = build(ArchKind::SimpleNet, [3, 16, 16], 10, NormKind::Group, &mut rng).model;
        let data = random_dataset(300, [3, 16, 16], &mut rng);
        let scheme = QuantScheme::rquant(8);

        let mut clean = model.clone();
        QuantizedModel::quantize(&model, scheme).write_to(&mut clean);
        let last_relu = clean.layers().enumerate().filter(|(_, l)| l.layer_type() == "Relu").last();
        let depth = last_relu.expect("SimpleNet has a ReLU").0 + 1;
        let mut x = data.images().clone();
        for layer in clean.layers().take(depth) {
            x = layer.infer(&x, Mode::Eval);
        }
        let whole = x.data().iter().filter(|&&v| v > 0.0).count() as f64 / x.numel() as f64;

        let r = relu_relevance(&model, scheme, &data);
        assert!(r > 0.0 && r < 1.0, "relevance {r}");
        assert_eq!(r.to_bits(), whole.to_bits());
    }

    #[test]
    fn relu_relevance_matches_the_hidden_layer_of_an_mlp() {
        // Flatten -> Linear(16, 128) -> Relu -> Linear(128, 3), hand-weighted.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut model = build(ArchKind::Mlp, [1, 4, 4], 3, NormKind::Group, &mut rng).model;
        let mut k = 0usize;
        model.visit_params(&mut |p| {
            p.value_mut().map_inplace(|_| {
                k += 1;
                ((k * 7919) % 23) as f32 * 0.01 - 0.11
            });
        });
        let data = random_dataset(50, [1, 4, 4], &mut rng);
        let scheme = QuantScheme::rquant(8);

        // ReLU(W1 * flatten(x) + b1) under the clean quantized weights, in
        // the GEMM's order: ascending-k sum, then the bias.
        let mut clean = model.clone();
        QuantizedModel::quantize(&model, scheme).write_to(&mut clean);
        let params = clean.param_tensors();
        let (w1, b1) = (params[0].data(), params[1].data());
        let mut positive = 0usize;
        for x in data.images().data().chunks_exact(16) {
            for (row, &bias) in w1.chunks_exact(16).zip(b1) {
                let mut acc = 0f32;
                for (&w, &xi) in row.iter().zip(x) {
                    acc += xi * w;
                }
                if acc + bias > 0.0 {
                    positive += 1;
                }
            }
        }
        let expected = positive as f64 / (data.len() * 128) as f64;
        assert!(expected > 0.0 && expected < 1.0, "expected {expected}");
        assert_eq!(relu_relevance(&model, scheme, &data), expected);
    }
}
