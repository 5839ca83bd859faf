//! Training methods: quantization-aware `NORMAL`/`RQUANT`, `CLIPPING`,
//! `RANDBET` (Alg. 1 of the paper), and the `PATTBET` baseline.

use bitrobust_biterror::UniformChip;
use bitrobust_data::{augment_batch, AugmentConfig, Dataset};
use bitrobust_nn::{CrossEntropyLoss, Mode, Model, MultiStepLr, Sgd};
use bitrobust_quant::QuantScheme;
use bitrobust_tensor::Tensor;
use rand::Rng;
use rand::SeedableRng;

use crate::data_parallel::{sharded_forward_backward, DataParallel};
use crate::eval::{evaluate, quantized_error};
use crate::scheduler::ScratchReplicas;
use crate::QuantizedModel;

/// RandBET variants evaluated in Tab. 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RandBetVariant {
    /// Alg. 1: average clean and perturbed gradients in one update.
    Standard,
    /// "Curricular": the training bit error rate ramps from `p/20` to `p`
    /// over the first half of training (as in Koppula et al., 2019).
    Curricular,
    /// "Alternating": separate clean and perturbed updates, with perturbed
    /// updates projected back into the pre-update quantization ranges.
    Alternating,
    /// Ablation: train on the perturbed loss only (no clean gradient).
    /// The paper notes this destabilizes training and hurts clean Err —
    /// the clean term in Eq. (2) is load-bearing.
    PerturbedOnly,
}

/// The training method (the paper's model names).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrainMethod {
    /// Plain quantization-aware training (`NORMAL` / `RQUANT`, depending on
    /// the scheme in [`TrainConfig::scheme`]).
    Normal,
    /// Weight clipping to `[-wmax, wmax]` during training (`CLIPPING`).
    Clipping {
        /// The clipping bound.
        wmax: f32,
    },
    /// Random bit error training (`RANDBET`, Alg. 1), optionally combined
    /// with weight clipping.
    RandBet {
        /// Optional clipping bound (the paper's `RANDBET_wmax`).
        wmax: Option<f32>,
        /// Training bit error rate.
        p: f64,
        /// Algorithm variant.
        variant: RandBetVariant,
    },
    /// Fixed-pattern bit error training (`PATTBET`, the Kim et al., 2018 /
    /// Koppula et al., 2019 style co-design baseline of Tab. 3): every
    /// step injects the same uniform-random chip at rate `p`.
    PattBet {
        /// Optional clipping bound.
        wmax: Option<f32>,
        /// Identity of the one chip trained on.
        seed: u64,
        /// Training bit error rate.
        p: f64,
    },
}

impl TrainMethod {
    /// The clipping bound, if any.
    pub fn wmax(&self) -> Option<f32> {
        match *self {
            TrainMethod::Normal => None,
            TrainMethod::Clipping { wmax } => Some(wmax),
            TrainMethod::RandBet { wmax, .. } => wmax,
            TrainMethod::PattBet { wmax, .. } => wmax,
        }
    }
}

/// The paper's initial learning rate, decayed ×0.1 after 2/5, 3/5 and 4/5
/// of training ([`MultiStepLr::paper_schedule`]).
const LR: f32 = 0.05;

/// The paper's SGD momentum.
const MOMENTUM: f32 = 0.9;

/// The paper's L2 weight decay.
const WEIGHT_DECAY: f32 = 5e-4;

/// Full training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Quantization-aware training scheme; `None` trains in float (used for
    /// the post-training-quantization ablation, Tab. 9 top).
    pub scheme: Option<QuantScheme>,
    /// The training method.
    pub method: TrainMethod,
    /// Label smoothing target (`Some(0.9)` reproduces the Tab. 2 ablation).
    pub label_smoothing: Option<f32>,
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Data augmentation recipe.
    pub augment: AugmentConfig,
    /// Bit error injection starts once the clean loss first drops below
    /// this threshold (1.75 on MNIST/CIFAR10, 3.5 on CIFAR100).
    pub warmup_loss: f32,
    /// RNG seed for shuffling, augmentation, and per-step chips.
    pub seed: u64,
    /// Optional data-parallel execution of every training forward/backward:
    /// each mini-batch is split into [`DataParallel::shards`] contiguous
    /// shards, run on cloned replicas over the thread pool, and the
    /// per-shard gradients are combined with a fixed-shape serial tree
    /// reduction — byte-identical results at any thread count. `None`, the
    /// default, runs every pass on `model` itself; it is the only path for
    /// BatchNorm models. The shard count is part of the numerical contract:
    /// `Some(DataParallel::new(n))` and `None` produce different (equally
    /// valid) float trajectories.
    ///
    /// Requires a BatchNorm-free model: training-mode BatchNorm couples
    /// batch rows through shared statistics, which sharding would change.
    pub data_parallel: Option<DataParallel>,
}

impl TrainConfig {
    /// The paper's setup scaled to the synthetic datasets: 30 epochs of
    /// batch 64, CIFAR-style augmentation, warm-up loss 1.75, seed 0, and
    /// the single-model path. The optimizer is not configurable: `train`
    /// always runs SGD at the paper's learning rate 0.05, momentum 0.9 and
    /// weight decay 5e-4, with [`MultiStepLr::paper_schedule`].
    pub fn new(scheme: Option<QuantScheme>, method: TrainMethod) -> Self {
        Self {
            scheme,
            method,
            label_smoothing: None,
            epochs: 30,
            batch_size: 64,
            augment: AugmentConfig::cifar(),
            warmup_loss: 1.75,
            seed: 0,
            data_parallel: None,
        }
    }
}

/// Summary of a completed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean clean training loss over the final epoch.
    pub final_loss: f32,
    /// Clean test error (quantized if a scheme was configured).
    pub clean_error: f32,
    /// Mean clean test confidence.
    pub clean_confidence: f32,
    /// Epoch at which bit error injection became active (`None` if never).
    pub bit_errors_started_at: Option<usize>,
    /// Mean clean training loss per epoch (the training trajectory).
    pub epoch_losses: Vec<f32>,
}

/// Runs one training forward over `(x, labels)` through the configured
/// execution path and returns the batch-mean loss. With `need_grads` it
/// also adds the batch gradient onto `model`'s accumulated gradients:
/// `Model::backward` on the direct path, the tree-reduced shard gradients
/// on the data-parallel path. Without it no backward runs on either path;
/// the pass then only feeds the warm-up latch.
///
/// `replicas` is the training run's own [`ScratchReplicas`] pool, used
/// only on the data-parallel path: shards check replicas out, re-sync
/// them, and give them back, byte-identical to fresh clones.
fn forward_backward(
    model: &mut Model,
    x: &Tensor,
    labels: &[usize],
    loss_fn: &CrossEntropyLoss,
    dp: Option<&DataParallel>,
    need_grads: bool,
    replicas: &ScratchReplicas,
) -> f32 {
    match dp {
        None => {
            let logits = model.forward(x, Mode::Train);
            let out = loss_fn.compute(&logits, labels);
            if need_grads {
                model.backward(&out.grad);
            }
            out.loss
        }
        Some(dp) => {
            let pass =
                sharded_forward_backward(model, x, labels, loss_fn, dp, need_grads, replicas);
            if let Some(grads) = pass.grads {
                model.accumulate_grads(&grads);
            }
            pass.loss
        }
    }
}

/// Trains `model` on `train_ds` according to `cfg`, evaluating on `test_ds`.
///
/// Implements Alg. 1 of the paper: per step, clip weights, quantize, run a
/// clean forward/backward on the dequantized weights, once the warm-up
/// latch is set a perturbed forward/backward on bit-error-injected weights,
/// and apply the summed gradient to the float weights with the paper's SGD
/// (see [`TrainConfig::new`]). [`RandBetVariant`] selects the Tab. 13
/// variants. After the last epoch the weights are clipped once more and
/// the clean test error is measured (quantized when `cfg.scheme` is set).
///
/// With [`TrainConfig::data_parallel`] set, every forward/backward shards
/// the mini-batch over model replicas (see [`crate::data_parallel`]); the
/// resulting [`TrainReport`] and weights are byte-identical across thread
/// counts and to the [`DataParallel::serial`] reference.
pub fn train(
    model: &mut Model,
    train_ds: &Dataset,
    test_ds: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(cfg.epochs > 0, "need at least one epoch");
    assert!(!train_ds.is_empty(), "cannot train on an empty training set");
    if cfg.data_parallel.is_some() {
        let mut has_batchnorm = false;
        model.visit_layers(&mut |l| has_batchnorm |= l.layer_type() == "BatchNorm2d");
        assert!(
            !has_batchnorm,
            "data-parallel training requires a batch-size-independent training forward; \
             BatchNorm2d computes whole-batch statistics and updates running state, which \
             per-shard replicas would change and then discard — train without data_parallel"
        );
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x0072_A117);
    let loss_fn = match cfg.label_smoothing {
        Some(tau) => CrossEntropyLoss::with_label_smoothing(tau),
        None => CrossEntropyLoss::new(),
    };
    let mut sgd = Sgd::new(LR, MOMENTUM, WEIGHT_DECAY);
    let schedule = MultiStepLr::paper_schedule(LR, cfg.epochs);
    let dp = cfg.data_parallel.as_ref();

    let injects = matches!(cfg.method, TrainMethod::RandBet { .. } | TrainMethod::PattBet { .. });
    let perturbed_only =
        matches!(cfg.method, TrainMethod::RandBet { variant: RandBetVariant::PerturbedOnly, .. });
    let alternating =
        matches!(cfg.method, TrainMethod::RandBet { variant: RandBetVariant::Alternating, .. });

    let total_steps = cfg.epochs * train_ds.len().div_ceil(cfg.batch_size);
    // One replica pool per training run, never shared with a campaign: the
    // data-parallel passes clone replicas on a miss and only re-sync
    // parameters after.
    let shard_replicas = ScratchReplicas::new();
    let mut step = 0usize;
    let mut bit_errors_active = false;
    let mut bit_errors_started_at = None;
    let mut final_loss = f32::INFINITY;
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    for epoch in 0..cfg.epochs {
        sgd.set_lr(schedule.lr_at(epoch));
        let mut epoch_loss = 0f64;
        let mut batches = 0usize;
        for (mut x, labels) in train_ds.shuffled_batches(cfg.batch_size, &mut rng) {
            augment_batch(&mut x, &cfg.augment, &mut rng);

            // Alg. 1 line 6: elementwise clipping.
            if let Some(wmax) = cfg.method.wmax() {
                model.clip_params(wmax);
            }
            let float_params = model.param_tensors();

            // Alg. 1 lines 8-9: quantize and dequantize.
            let quantized = cfg.scheme.map(|scheme| {
                let q = QuantizedModel::quantize(model, scheme);
                q.write_to(model);
                q
            });

            // Alg. 1 lines 10-11: clean forward/backward; the loss also
            // drives the warm-up latch. PerturbedOnly past warm-up trains
            // on the perturbed loss alone, so its clean pass only computes
            // the loss.
            model.zero_grads();
            let clean_loss = forward_backward(
                model,
                &x,
                &labels,
                &loss_fn,
                dp,
                !(perturbed_only && bit_errors_active),
                &shard_replicas,
            );
            epoch_loss += clean_loss as f64;
            batches += 1;

            if !bit_errors_active && clean_loss < cfg.warmup_loss {
                bit_errors_active = true;
                bit_errors_started_at = Some(epoch);
                if perturbed_only {
                    // The latch needed this batch's loss, so the clean
                    // gradient is already accumulated: drop it.
                    model.zero_grads();
                }
            }

            let mut update_from = float_params;
            let mut projection = None;
            if bit_errors_active && injects {
                let q =
                    quantized.as_ref().expect("bit error training requires a quantization scheme");
                if alternating {
                    // Variant: apply the clean update first, and record the
                    // ranges to project the perturbed update into.
                    model.set_param_tensors(&update_from);
                    sgd.step(model);
                    model.zero_grads();
                    projection = Some(q.tensors().iter().map(|t| t.range()).collect::<Vec<_>>());
                    update_from = model.param_tensors();
                }
                // Alg. 1 lines 12-14: perturbed forward/backward.
                let q2 = perturb(q, &cfg.method, step, total_steps, &mut rng);
                q2.write_to(model);
                forward_backward(model, &x, &labels, &loss_fn, dp, true, &shard_replicas);
            }
            // Alg. 1 line 16: update the float weights with the summed
            // gradients.
            model.set_param_tensors(&update_from);
            sgd.step(model);
            if let Some(ranges) = projection {
                // Projection: perturbed updates may not grow the ranges.
                let mut idx = 0;
                model.visit_params(&mut |p| {
                    let r = ranges[idx];
                    p.value_mut().map_inplace(|v| v.clamp(r.lo(), r.hi()));
                    idx += 1;
                });
            }
            // The single shared step counter: every method and variant must
            // advance it exactly once per mini-batch, because it feeds the
            // per-step perturbation seeds and the Curricular ramp.
            step += 1;
        }
        final_loss = (epoch_loss / batches as f64) as f32;
        epoch_losses.push(final_loss);
    }

    // Warm-up step accounting: `step` seeds the per-step perturbations and
    // the Curricular ramp divides by `total_steps`, so drift here silently
    // changes injected error patterns. `shuffled_batches` yields the final
    // partial batch, hence exactly ceil(len / batch) increments per epoch.
    assert_eq!(
        step, total_steps,
        "step accounting drifted: a training path advanced `step` other than once per mini-batch"
    );

    // Final projection + evaluation.
    if let Some(wmax) = cfg.method.wmax() {
        model.clip_params(wmax);
    }
    let result = match cfg.scheme {
        Some(scheme) => quantized_error(model, scheme, test_ds),
        None => evaluate(model, test_ds),
    };
    model.clear_caches();
    TrainReport {
        final_loss,
        clean_error: result.error,
        clean_confidence: result.confidence,
        bit_errors_started_at,
        epoch_losses,
    }
}

/// Produces the perturbed quantized image for the current step.
fn perturb(
    q: &QuantizedModel,
    method: &TrainMethod,
    step: usize,
    total_steps: usize,
    rng: &mut impl Rng,
) -> QuantizedModel {
    let mut q2 = q.clone();
    match method {
        TrainMethod::RandBet { p, variant, .. } => {
            let p_eff = match variant {
                RandBetVariant::Curricular => {
                    let ramp = (step as f64 / (total_steps as f64 / 2.0)).min(1.0);
                    p * (0.05 + 0.95 * ramp)
                }
                _ => *p,
            };
            // A fresh random chip every step: this is what makes RandBET
            // generalize across chips and voltages.
            let chip = UniformChip::new(rng.gen());
            q2.inject(&chip.at_rate(p_eff));
        }
        TrainMethod::PattBet { seed, p, .. } => {
            q2.inject(&UniformChip::new(*seed).at_rate(*p));
        }
        _ => unreachable!("perturb called for a method without bit errors"),
    }
    q2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{build, ArchKind, NormKind};
    use bitrobust_data::SynthDataset;

    fn quick_cfg(method: TrainMethod) -> TrainConfig {
        let mut cfg = TrainConfig::new(Some(QuantScheme::rquant(8)), method);
        cfg.epochs = 3;
        cfg.batch_size = 128;
        cfg.augment = AugmentConfig::none();
        cfg
    }

    fn mnist_subset() -> (Dataset, Dataset) {
        let (train, test) = SynthDataset::Mnist.generate(1);
        // Use a subset to keep unit tests fast.
        let train_idx: Vec<usize> = (0..600).collect();
        let test_idx: Vec<usize> = (0..300).collect();
        let (xt, yt) = train.batch(&train_idx);
        let (xe, ye) = test.batch(&test_idx);
        (Dataset::new("train", xt, yt, 10), Dataset::new("test", xe, ye, 10))
    }

    #[test]
    fn normal_training_learns_mnist_subset() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let mut model = built.model;
        let (train_ds, test_ds) = mnist_subset();
        let report = train(&mut model, &train_ds, &test_ds, &quick_cfg(TrainMethod::Normal));
        assert!(report.clean_error < 0.5, "error {} should beat chance", report.clean_error);
        assert!(report.final_loss < 1.5, "loss {}", report.final_loss);
    }

    #[test]
    fn clipping_constrains_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let mut model = built.model;
        let (train_ds, test_ds) = mnist_subset();
        let _ =
            train(&mut model, &train_ds, &test_ds, &quick_cfg(TrainMethod::Clipping { wmax: 0.1 }));
        model.visit_params(&mut |p| {
            assert!(p.value().abs_max() <= 0.1 + 1e-6);
        });
    }

    #[test]
    fn randbet_runs_and_reports_injection_start() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let mut model = built.model;
        let (train_ds, test_ds) = mnist_subset();
        let mut cfg = quick_cfg(TrainMethod::RandBet {
            wmax: Some(0.1),
            p: 0.01,
            variant: RandBetVariant::Standard,
        });
        cfg.warmup_loss = 100.0; // inject from the start
        let report = train(&mut model, &train_ds, &test_ds, &cfg);
        assert_eq!(report.bit_errors_started_at, Some(0));
        assert!(report.clean_error < 0.6);
    }

    #[test]
    fn pattbet_uniform_trains() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let mut model = built.model;
        let (train_ds, test_ds) = mnist_subset();
        let mut cfg = quick_cfg(TrainMethod::PattBet { wmax: Some(0.1), seed: 77, p: 0.01 });
        cfg.warmup_loss = 100.0;
        let report = train(&mut model, &train_ds, &test_ds, &cfg);
        assert!(report.clean_error < 0.6);
    }

    #[test]
    fn variants_run() {
        for variant in [RandBetVariant::Curricular, RandBetVariant::Alternating] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(4);
            let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
            let mut model = built.model;
            let (train_ds, test_ds) = mnist_subset();
            let mut cfg = quick_cfg(TrainMethod::RandBet { wmax: Some(0.1), p: 0.005, variant });
            cfg.warmup_loss = 100.0;
            cfg.epochs = 2;
            let report = train(&mut model, &train_ds, &test_ds, &cfg);
            assert!(report.clean_error.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_is_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let mut model = built.model;
        let (_, test_ds) = mnist_subset();
        let empty = Dataset::new("empty", Tensor::zeros(&[0, 1, 14, 14]), Vec::new(), 10);
        let _ = train(&mut model, &empty, &test_ds, &quick_cfg(TrainMethod::Normal));
    }

    /// Every method/variant must advance `step` exactly once per mini-batch
    /// (600 examples / 128 batch = 5 batches per epoch, final one partial);
    /// the assertion inside `train` fires on any drift. Alternating used to
    /// maintain its own increment on a separate control path.
    #[test]
    fn step_accounting_is_exact_for_every_method() {
        let methods = [
            TrainMethod::Normal,
            TrainMethod::Clipping { wmax: 0.1 },
            TrainMethod::RandBet { wmax: Some(0.1), p: 0.005, variant: RandBetVariant::Standard },
            TrainMethod::RandBet { wmax: Some(0.1), p: 0.005, variant: RandBetVariant::Curricular },
            TrainMethod::RandBet {
                wmax: Some(0.1),
                p: 0.005,
                variant: RandBetVariant::Alternating,
            },
            TrainMethod::RandBet {
                wmax: Some(0.1),
                p: 0.005,
                variant: RandBetVariant::PerturbedOnly,
            },
            TrainMethod::PattBet { wmax: Some(0.1), seed: 7, p: 0.005 },
        ];
        for method in methods {
            let mut rng = rand::rngs::StdRng::seed_from_u64(9);
            let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
            let mut model = built.model;
            let (train_ds, test_ds) = mnist_subset();
            let mut cfg = quick_cfg(method);
            cfg.warmup_loss = 100.0; // inject from step 0 for the BET methods
            cfg.epochs = 2;
            let report = train(&mut model, &train_ds, &test_ds, &cfg);
            assert!(report.clean_error.is_finite(), "{method:?}");
        }
    }

    #[test]
    fn data_parallel_training_learns() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let mut model = built.model;
        let (train_ds, test_ds) = mnist_subset();
        let mut cfg = quick_cfg(TrainMethod::Normal);
        cfg.data_parallel = Some(DataParallel::new(4));
        let report = train(&mut model, &train_ds, &test_ds, &cfg);
        assert!(report.clean_error < 0.5, "error {} should beat chance", report.clean_error);
    }

    /// PerturbedOnly past warm-up asks the clean pass for the loss only;
    /// the method must still train (on the perturbed gradient) under both
    /// execution paths and report the same injection start.
    #[test]
    fn data_parallel_perturbed_only_trains() {
        let mut reports = Vec::new();
        for data_parallel in [None, Some(DataParallel::new(3))] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(13);
            let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
            let mut model = built.model;
            let (train_ds, test_ds) = mnist_subset();
            let mut cfg = quick_cfg(TrainMethod::RandBet {
                wmax: Some(0.1),
                p: 0.005,
                variant: RandBetVariant::PerturbedOnly,
            });
            cfg.warmup_loss = 100.0;
            cfg.epochs = 2;
            cfg.data_parallel = data_parallel;
            reports.push(train(&mut model, &train_ds, &test_ds, &cfg));
        }
        for report in &reports {
            assert_eq!(report.bit_errors_started_at, Some(0));
            assert!(report.clean_error.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "BatchNorm2d")]
    fn data_parallel_rejects_batchnorm_models() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        // The MLP has no normalization layers; SimpleNet actually carries
        // BatchNorm2d when built with NormKind::Batch.
        let built = build(ArchKind::SimpleNet, [1, 14, 14], 10, NormKind::Batch, &mut rng);
        let mut model = built.model;
        let (train_ds, test_ds) = mnist_subset();
        let mut cfg = quick_cfg(TrainMethod::Normal);
        cfg.data_parallel = Some(DataParallel::new(2));
        let _ = train(&mut model, &train_ds, &test_ds, &cfg);
    }

    #[test]
    fn float_training_without_scheme_works() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let mut model = built.model;
        let (train_ds, test_ds) = mnist_subset();
        let mut cfg = quick_cfg(TrainMethod::Clipping { wmax: 0.1 });
        cfg.scheme = None;
        let report = train(&mut model, &train_ds, &test_ds, &cfg);
        assert!(report.clean_error < 0.6);
    }
}
