//! Clean and robust evaluation (`Err` and `RErr`, Sec. 5 "Metrics").
//!
//! Every entry point here takes `&Model`: evaluation is read-only, runs on
//! the immutable [`Model::infer`](bitrobust_nn::Model::infer) path, and
//! fans out over the thread pool through the campaign engine
//! ([`crate::campaign`]). Clean evaluation is a single-pattern campaign
//! (batches are the work items). Robust evaluation has one entry point,
//! [`robust_eval`]: a one-model [`crate::run_sweep`] over a
//! [`ChipAxis`] (rates × chips × batches), so every `RErr` row is a set of
//! sweep cells with content-hash identities. Results are byte-identical to
//! the serial reference paths ([`evaluate_serial`],
//! [`crate::Campaign::serial`]) at any thread count.

use bitrobust_data::Dataset;
use bitrobust_nn::{Mode, Model};
use bitrobust_quant::QuantScheme;
use bitrobust_tensor::softmax_rows;

use crate::sweep::{run_sweep, SweepAxis, SweepModel, SweepOptions};
use crate::{ChipAxis, QuantizedModel};

/// The test batch size of every evaluation: clean, robust, and sweep
/// cells. Confidence partial sums regroup at batch boundaries, so sweep
/// cell identities record it.
pub const EVAL_BATCH: usize = 128;

/// Result of a single (clean or perturbed) evaluation pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Classification error in `[0, 1]`.
    pub error: f32,
    /// Mean confidence (softmax probability of the predicted class).
    pub confidence: f32,
}

/// Evaluates the model as-is on a dataset, batch-parallel, in batches of
/// [`EVAL_BATCH`] in [`Mode::Eval`].
///
/// Batches fan out over the thread pool as a single-pattern campaign
/// ([`crate::campaign`]); the result is byte-identical to
/// [`evaluate_serial`] at any thread count.
///
/// # Panics
///
/// Panics if `dataset` is empty.
pub fn evaluate(model: &Model, dataset: &Dataset) -> EvalResult {
    crate::campaign::eval_model(model, dataset)
}

/// The serial reference implementation of [`evaluate`]: one batch of
/// [`EVAL_BATCH`] at a time on the calling thread, in dataset order,
/// bit-identical results. Exists for the determinism suite; real callers
/// should use [`evaluate`].
///
/// # Panics
///
/// As [`evaluate`].
pub fn evaluate_serial(model: &Model, dataset: &Dataset) -> EvalResult {
    assert!(!dataset.is_empty(), "dataset must not be empty");
    let mut wrong = 0usize;
    let mut conf_sum = 0f64;
    let n = dataset.len();
    let mut index = 0;
    while index < n {
        let end = (index + EVAL_BATCH).min(n);
        let (x, labels) = dataset.batch_range(index, end);
        let logits = model.infer(&x, Mode::Eval);
        let probs = softmax_rows(&logits);
        let preds = probs.argmax_rows();
        for (row, (&label, &pred)) in labels.iter().zip(&preds).enumerate() {
            if pred != label {
                wrong += 1;
            }
            conf_sum += probs.row(row)[pred] as f64;
        }
        index = end;
    }
    EvalResult { error: wrong as f32 / n as f32, confidence: (conf_sum / n as f64) as f32 }
}

/// Evaluates the model after quantization (the clean `Err` the paper
/// reports for quantized DNNs) at [`EVAL_BATCH`] in [`Mode::Eval`]. The
/// model itself is never written: the quantized weights go into a campaign
/// replica, and batches fan out in parallel.
///
/// # Panics
///
/// Panics if `dataset` is empty.
pub fn quantized_error(model: &Model, scheme: QuantScheme, dataset: &Dataset) -> EvalResult {
    let q = QuantizedModel::quantize(model, scheme);
    crate::campaign::Campaign::new(model, dataset)
        .run(std::slice::from_ref(&q))
        .pop()
        .expect("single-image campaign yields one result")
}

/// Robust test error over a set of error-pattern samples.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustEval {
    /// Mean `RErr` over patterns, in `[0, 1]`.
    pub mean_error: f32,
    /// Sample standard deviation of `RErr` over patterns (what the paper's
    /// `±` columns report); `0` for a single pattern.
    pub std_error: f32,
    /// Mean confidence under errors.
    pub mean_confidence: f32,
    /// Per-pattern errors.
    pub errors: Vec<f32>,
}

impl RobustEval {
    /// Aggregates per-pattern results into the paper's `RErr ± std` summary.
    ///
    /// # Panics
    ///
    /// Panics if `results` is empty.
    pub fn from_results(results: &[EvalResult]) -> Self {
        assert!(!results.is_empty(), "need at least one error pattern");
        let n = results.len() as f64;
        let mean = results.iter().map(|r| r.error as f64).sum::<f64>() / n;
        let std = if results.len() > 1 {
            let var =
                results.iter().map(|r| (r.error as f64 - mean).powi(2)).sum::<f64>() / (n - 1.0);
            var.sqrt()
        } else {
            0.0
        };
        let conf = results.iter().map(|r| r.confidence as f64).sum::<f64>() / n;
        Self {
            mean_error: mean as f32,
            std_error: std as f32,
            mean_confidence: conf as f32,
            errors: results.iter().map(|r| r.error).collect(),
        }
    }
}

/// `RErr` on every chip of `axis`: one [`RobustEval`] per rate, each
/// aggregating that rate's chips (the paper's protocol: a fixed set of
/// chips per rate, shared across models and rates so results are
/// comparable).
///
/// A store-free, one-model [`crate::run_sweep`] at
/// [`SweepOptions::default`] ([`Mode::Eval`], batches of [`EVAL_BATCH`]).
/// The axis may be uniform chips at any rate grid (a one-chip axis is a
/// single fixed pattern) or a profiled chip's voltage/offset span, and each
/// (rate, chip) cell is bit-identical to the same cell of any larger
/// sweep. The model is only read: patterns are written into scratch
/// replicas, never the model.
///
/// # Panics
///
/// Panics if `axis` has no rates or no chips per rate, or `dataset` is
/// empty.
pub fn robust_eval(
    model: &Model,
    scheme: QuantScheme,
    dataset: &Dataset,
    axis: ChipAxis,
) -> Vec<RobustEval> {
    let models = [SweepModel::new("model", scheme, model)];
    let axes = [SweepAxis::new("axis", axis)];
    run_sweep(&models, &axes, dataset, &SweepOptions::default(), None, |_, _| {}).robust(0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{build, ArchKind, NormKind};
    use bitrobust_data::SynthDataset;
    use rand::SeedableRng;

    fn tiny_setup() -> (Model, Dataset) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let (_, test) = SynthDataset::Mnist.generate(0);
        (built.model, test)
    }

    #[test]
    fn untrained_model_is_near_chance() {
        let (model, test) = tiny_setup();
        let r = evaluate(&model, &test);
        assert!(r.error > 0.6, "untrained error {} should be near chance", r.error);
        assert!(r.confidence > 0.0 && r.confidence <= 1.0);
    }

    /// Sets of one example, under one batch, of exactly one batch, just
    /// over one batch, and of many batches with a partial last one.
    #[test]
    fn evaluate_matches_serial_reference() {
        let (model, test) = tiny_setup();
        for n in [1, 7, 127, 128, 129, 1000] {
            let (x, y) = test.batch_range(0, n);
            let subset = Dataset::new("subset", x, y, test.n_classes());
            let parallel = evaluate(&model, &subset);
            assert_eq!(parallel, evaluate_serial(&model, &subset), "{n} examples");
        }
    }

    #[test]
    fn quantized_error_leaves_weights_untouched() {
        let (model, test) = tiny_setup();
        let before = model.param_tensors();
        let _ = quantized_error(&model, QuantScheme::rquant(8), &test);
        let after = model.param_tensors();
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a, b, "float weights must be untouched");
        }
    }

    #[test]
    fn robust_eval_produces_one_result_per_rate_and_chip() {
        let (model, test) = tiny_setup();
        let axis = ChipAxis::uniform(vec![0.001, 0.01], 5, 1000);
        let per_rate = robust_eval(&model, QuantScheme::rquant(8), &test, axis);
        assert_eq!(per_rate.len(), 2);
        for r in &per_rate {
            assert_eq!(r.errors.len(), 5);
            assert!(r.mean_error >= 0.0 && r.mean_error <= 1.0);
            assert!(r.std_error >= 0.0);
        }
    }

    /// A rate's chips do not depend on what else is on the axis: the
    /// first chips at p = 1% are the same with and without other rates
    /// and extra chips beside them.
    #[test]
    fn robust_eval_cells_are_independent_of_the_rest_of_the_axis() {
        let (model, test) = tiny_setup();
        let scheme = QuantScheme::rquant(8);
        let alone = robust_eval(&model, scheme, &test, ChipAxis::uniform(vec![0.01], 2, 1000));
        let wide = ChipAxis::uniform(vec![0.001, 0.01, 0.05], 4, 1000);
        let within = robust_eval(&model, scheme, &test, wide);
        assert_eq!(alone[0].errors, within[1].errors[..2]);
    }

    #[test]
    fn from_results_reports_sample_standard_deviation() {
        let results: Vec<EvalResult> =
            [0.1f32, 0.2, 0.3].iter().map(|&error| EvalResult { error, confidence: 0.5 }).collect();
        let r = RobustEval::from_results(&results);
        assert!((r.mean_error - 0.2).abs() < 1e-7);
        // Sample std: sqrt(((0.1)^2 + 0 + (0.1)^2) / (3 - 1)) = 0.1.
        assert!((r.std_error - 0.1).abs() < 1e-6, "std {}", r.std_error);
        assert!((r.mean_confidence - 0.5).abs() < 1e-7);
    }

    #[test]
    fn from_results_single_pattern_has_zero_std() {
        let r = RobustEval::from_results(&[EvalResult { error: 0.4, confidence: 0.9 }]);
        assert_eq!(r.std_error, 0.0);
        assert_eq!(r.errors, vec![0.4]);
    }

    #[test]
    fn robust_eval_leaves_model_weights_untouched() {
        let (model, test) = tiny_setup();
        let before = model.param_tensors();
        let axis = ChipAxis::uniform(vec![0.05], 3, 1000);
        let _ = robust_eval(&model, QuantScheme::rquant(8), &test, axis);
        assert_eq!(before, model.param_tensors());
    }

    #[test]
    fn zero_rate_matches_quantized_error() {
        let (model, test) = tiny_setup();
        let scheme = QuantScheme::rquant(8);
        let clean = quantized_error(&model, scheme, &test);
        let robust =
            robust_eval(&model, scheme, &test, ChipAxis::uniform(vec![0.0], 3, 1000)).remove(0);
        assert!((robust.mean_error - clean.error).abs() < 1e-6);
        assert_eq!(robust.std_error, 0.0);
    }
}
