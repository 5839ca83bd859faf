//! Training methods: quantization-aware `NORMAL`/`RQUANT`, `CLIPPING`,
//! `RANDBET` (Alg. 1 of the paper), and the `PATTBET` baseline.

use bitrobust_biterror::{ChipKind, ProfiledChip, UniformChip};
use bitrobust_data::{augment_batch, AugmentConfig, Dataset};
use bitrobust_nn::{CrossEntropyLoss, LossOutput, Mode, Model, MultiStepLr, Sgd};
use bitrobust_quant::QuantScheme;
use bitrobust_tensor::Tensor;
use rand::Rng;
use rand::SeedableRng;

use crate::data_parallel::{sharded_forward_backward, DataParallel};
use crate::eval::{evaluate, quantized_error, robust_eval_uniform, RobustEval, EVAL_BATCH};
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

/// The fixed error pattern `PATTBET` trains on (Kim et al., 2018 /
/// Koppula et al., 2019 style co-design baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PattPattern {
    /// A fixed uniform-random pattern: one [`UniformChip`] at rate `p`.
    Uniform {
        /// Chip identity.
        seed: u64,
        /// Training bit error rate.
        p: f64,
    },
    /// A profiled chip at the voltage whose measured rate is `rate`.
    Profiled {
        /// Which chip structure to synthesize.
        kind: ChipKind,
        /// Chip instance seed.
        seed: u64,
        /// Target bit error rate (converted to a voltage at train start).
        rate: f64,
        /// Restrict to persistent errors (Tab. 16).
        persistent_only: bool,
    },
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
    /// Fixed-pattern bit error training (`PATTBET`), the non-generalizing
    /// baseline of Tab. 3 / Tab. 16.
    PattBet {
        /// Optional clipping bound.
        wmax: Option<f32>,
        /// The fixed pattern.
        pattern: PattPattern,
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

/// Configuration of the optional per-epoch robust-error probe.
///
/// When set on [`TrainConfig::rerr_probe`], training measures `RErr` on
/// the test set after every epoch: the model is [`Model::clone`]d (so
/// training state — caches, gradients, probes — is untouched), clipped
/// like the final evaluation would be, and evaluated over `n_chips`
/// uniform chips (chip `c` seeded `1000 + c`, batches of [`EVAL_BATCH`])
/// through the parallel campaign engine. The per-epoch results land in
/// [`TrainReport::epoch_rerr`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RErrProbe {
    /// Bit error rate to probe at.
    pub p: f64,
    /// Number of uniform chips per probe.
    pub n_chips: usize,
}

impl RErrProbe {
    /// A probe at rate `p` over `n_chips` chips.
    pub fn new(p: f64, n_chips: usize) -> Self {
        Self { p, n_chips }
    }
}

/// Seed of the probe's chip 0: the experiments' shared chip seed, so a
/// probe measures the same chips as the protocol's RErr.
const PROBE_CHIP_SEED: u64 = 1000;

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
    /// Initial learning rate (decays ×0.1 after 2/5, 3/5, 4/5 of training).
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Data augmentation recipe.
    pub augment: AugmentConfig,
    /// Bit error injection starts once the clean loss first drops below
    /// this threshold (1.75 on MNIST/CIFAR10, 3.5 on CIFAR100).
    pub warmup_loss: f32,
    /// RNG seed for shuffling, augmentation, and per-step chips.
    pub seed: u64,
    /// Optional per-epoch `RErr` probe on the test set (requires a
    /// quantization scheme). See [`RErrProbe`].
    pub rerr_probe: Option<RErrProbe>,
    /// Optional data-parallel execution of every training forward/backward:
    /// each mini-batch is split into [`DataParallel::shards`] contiguous
    /// shards, run on cloned replicas over the thread pool, and the
    /// per-shard gradients are combined with a fixed-shape serial tree
    /// reduction — byte-identical results at any thread count. `None`
    /// (default) runs the historical single-model path. The shard count is
    /// part of the numerical contract: `Some(DataParallel::new(n))` and
    /// `None` produce different (equally valid) float trajectories.
    ///
    /// Requires a BatchNorm-free model: training-mode BatchNorm couples
    /// batch rows through shared statistics, which sharding would change.
    pub data_parallel: Option<DataParallel>,
}

impl TrainConfig {
    /// The paper's setup scaled to the synthetic datasets: SGD(0.05, 0.9,
    /// 5e-4), multi-step decay, CIFAR-style augmentation.
    pub fn new(scheme: Option<QuantScheme>, method: TrainMethod) -> Self {
        Self {
            scheme,
            method,
            label_smoothing: None,
            epochs: 30,
            batch_size: 64,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 5e-4,
            augment: AugmentConfig::cifar(),
            warmup_loss: 1.75,
            seed: 0,
            rerr_probe: None,
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
    /// Per-epoch robust-error probe results; empty unless
    /// [`TrainConfig::rerr_probe`] is set.
    pub epoch_rerr: Vec<RobustEval>,
}

enum PattChipState {
    None,
    Uniform(UniformChip, f64),
    Profiled(Box<ProfiledChip>, f64, bool),
}

/// One forward/backward pass, held until the warm-up latch decides whether
/// its gradient participates in the update.
///
/// The single-model path defers `Model::backward` (the activation caches
/// from the forward are untouched in between); the data-parallel path has
/// already reduced its shard gradients and defers only the merge.
enum GradPass {
    /// Direct path: the loss output whose `grad` drives `Model::backward`.
    Direct(LossOutput),
    /// Data-parallel path: tree-reduced gradient buffers to accumulate.
    Sharded(Vec<Tensor>),
}

impl GradPass {
    /// Adds this pass's gradient to the model's accumulated gradients.
    fn accumulate(self, model: &mut Model) {
        match self {
            GradPass::Direct(out) => {
                model.backward(&out.grad);
            }
            GradPass::Sharded(grads) => model.accumulate_grads(&grads),
        }
    }
}

/// Runs one training forward/backward over `(x, labels)` through the
/// configured execution path, returning the batch-mean loss and the
/// deferred gradient (see [`GradPass`]). With `need_grads: false` the
/// gradient work is skipped where that saves anything (the sharded
/// backward/reduction; the direct path defers its backward anyway) and
/// `None` is returned — callers use this when the pass only feeds the
/// warm-up latch.
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
) -> (f32, Option<GradPass>) {
    match dp {
        None => {
            let logits = model.forward(x, Mode::Train);
            let out = loss_fn.compute(&logits, labels);
            (out.loss, need_grads.then_some(GradPass::Direct(out)))
        }
        Some(dp) => {
            let pass =
                sharded_forward_backward(model, x, labels, loss_fn, dp, need_grads, replicas);
            (pass.loss, pass.grads.map(GradPass::Sharded))
        }
    }
}

/// Trains `model` on `train_ds` according to `cfg`, evaluating on `test_ds`.
///
/// Implements Alg. 1 of the paper: per step, clip weights, quantize,
/// run a clean forward/backward on the dequantized weights, optionally a
/// perturbed forward/backward on bit-error-injected weights, and apply the
/// summed gradient to the float weights. With
/// [`TrainConfig::data_parallel`] set, every forward/backward shards the
/// mini-batch over model replicas (see [`crate::data_parallel`]); the
/// resulting [`TrainReport`] is byte-identical across thread counts and to
/// the [`DataParallel::serial`] reference.
pub fn train(
    model: &mut Model,
    train_ds: &Dataset,
    test_ds: &Dataset,
    cfg: &TrainConfig,
) -> TrainReport {
    assert!(cfg.epochs > 0, "need at least one epoch");
    assert!(!train_ds.is_empty(), "cannot train on an empty training set");
    assert!(
        cfg.rerr_probe.is_none() || cfg.scheme.is_some(),
        "the per-epoch RErr probe requires a quantization scheme"
    );
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
    let mut sgd = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
    let schedule = MultiStepLr::paper_schedule(cfg.lr, cfg.epochs);

    let patt_chip = match cfg.method {
        TrainMethod::PattBet { pattern: PattPattern::Uniform { seed, p }, .. } => {
            PattChipState::Uniform(UniformChip::new(seed), p)
        }
        TrainMethod::PattBet {
            pattern: PattPattern::Profiled { kind, seed, rate, persistent_only },
            ..
        } => {
            let chip = ProfiledChip::synthesize(kind, seed);
            let v = chip.voltage_for_rate(rate);
            PattChipState::Profiled(Box::new(chip), v, persistent_only)
        }
        _ => PattChipState::None,
    };

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
    let mut epoch_rerr = Vec::new();

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

            // Clean forward (Alg. 1 line 10); the loss also drives the
            // warm-up latch. The backward (line 11) is deferred until the
            // latch decides whether this step trains on the perturbed loss
            // alone (the PerturbedOnly ablation); once that ablation is
            // past warm-up its clean gradient is known-discarded, so the
            // pass is asked for the loss only. (If the latch flips on this
            // very batch, one computed gradient is dropped — unavoidable,
            // since the decision needs this batch's loss.)
            let is_perturbed_only_variant = matches!(
                cfg.method,
                TrainMethod::RandBet { variant: RandBetVariant::PerturbedOnly, .. }
            );
            let clean_grads_needed = !(bit_errors_active && is_perturbed_only_variant);
            model.zero_grads();
            let (clean_loss, clean_pass) = forward_backward(
                model,
                &x,
                &labels,
                &loss_fn,
                cfg.data_parallel.as_ref(),
                clean_grads_needed,
                &shard_replicas,
            );
            epoch_loss += clean_loss as f64;
            batches += 1;

            if !bit_errors_active && clean_loss < cfg.warmup_loss {
                bit_errors_active = true;
                bit_errors_started_at = Some(epoch);
            }

            let inject_now = bit_errors_active
                && matches!(cfg.method, TrainMethod::RandBet { .. } | TrainMethod::PattBet { .. });

            let perturbed_only = inject_now && is_perturbed_only_variant;
            if !perturbed_only {
                clean_pass
                    .expect("the clean gradient is computed whenever it participates")
                    .accumulate(model);
            }

            let alternating = matches!(
                cfg.method,
                TrainMethod::RandBet { variant: RandBetVariant::Alternating, .. }
            );

            if inject_now && alternating {
                let q =
                    quantized.as_ref().expect("bit error training requires a quantization scheme");
                // Variant: apply the clean update first.
                model.set_param_tensors(&float_params);
                sgd.step(model);
                model.zero_grads();
                // Record ranges to project the perturbed update into.
                let ranges: Vec<_> = q.tensors().iter().map(|t| t.range()).collect();
                let after_clean = model.param_tensors();
                let q2 = perturb(q, &cfg.method, &patt_chip, step, total_steps, &mut rng);
                q2.write_to(model);
                let (_, perturbed_pass) = forward_backward(
                    model,
                    &x,
                    &labels,
                    &loss_fn,
                    cfg.data_parallel.as_ref(),
                    true,
                    &shard_replicas,
                );
                perturbed_pass.expect("perturbed gradients were requested").accumulate(model);
                model.set_param_tensors(&after_clean);
                sgd.step(model);
                // Projection: perturbed updates may not grow the ranges.
                let mut idx = 0;
                model.visit_params(&mut |p| {
                    let r = ranges[idx];
                    p.value_mut().map_inplace(|v| v.clamp(r.lo(), r.hi()));
                    idx += 1;
                });
            } else {
                if inject_now {
                    let q = quantized
                        .as_ref()
                        .expect("bit error training requires a quantization scheme");
                    // Alg. 1 lines 12-14: perturbed forward/backward.
                    let q2 = perturb(q, &cfg.method, &patt_chip, step, total_steps, &mut rng);
                    q2.write_to(model);
                    let (_, perturbed_pass) = forward_backward(
                        model,
                        &x,
                        &labels,
                        &loss_fn,
                        cfg.data_parallel.as_ref(),
                        true,
                        &shard_replicas,
                    );
                    perturbed_pass.expect("perturbed gradients were requested").accumulate(model);
                }
                // Alg. 1 line 16: update the float weights with the summed
                // gradients.
                model.set_param_tensors(&float_params);
                sgd.step(model);
            }
            // The single shared step counter: every method and variant must
            // advance it exactly once per mini-batch, because it feeds the
            // per-step perturbation seeds and the Curricular ramp.
            step += 1;
        }
        final_loss = (epoch_loss / batches as f64) as f32;
        epoch_losses.push(final_loss);

        // Per-epoch RErr probe: evaluate a clipped *clone* through the
        // campaign engine, so training state (caches, gradients, probes)
        // and the float weights are untouched. The clone's detached
        // probes and immutable `infer` make the fan-out safe.
        if let Some(probe) = cfg.rerr_probe {
            let scheme =
                cfg.scheme.expect("the per-epoch RErr probe requires a quantization scheme");
            let mut snapshot = model.clone();
            if let Some(wmax) = cfg.method.wmax() {
                snapshot.clip_params(wmax);
            }
            epoch_rerr.push(robust_eval_uniform(
                &snapshot,
                scheme,
                test_ds,
                probe.p,
                probe.n_chips,
                PROBE_CHIP_SEED,
                EVAL_BATCH,
                Mode::Eval,
            ));
        }
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
        Some(scheme) => quantized_error(model, scheme, test_ds, EVAL_BATCH, Mode::Eval),
        None => evaluate(model, test_ds, EVAL_BATCH, Mode::Eval),
    };
    model.clear_caches();
    TrainReport {
        final_loss,
        clean_error: result.error,
        clean_confidence: result.confidence,
        bit_errors_started_at,
        epoch_losses,
        epoch_rerr,
    }
}

/// Produces the perturbed quantized image for the current step.
fn perturb(
    q: &QuantizedModel,
    method: &TrainMethod,
    patt: &PattChipState,
    step: usize,
    total_steps: usize,
    rng: &mut impl Rng,
) -> QuantizedModel {
    let mut q2 = q.clone();
    match (method, patt) {
        (TrainMethod::RandBet { p, variant, .. }, _) => {
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
        (TrainMethod::PattBet { .. }, PattChipState::Uniform(chip, p)) => {
            q2.inject(&chip.at_rate(*p));
        }
        (TrainMethod::PattBet { .. }, PattChipState::Profiled(chip, v, persistent_only)) => {
            q2.inject(&chip.at_voltage(*v, 0, *persistent_only));
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
        let mut cfg = quick_cfg(TrainMethod::PattBet {
            wmax: Some(0.1),
            pattern: PattPattern::Uniform { seed: 77, p: 0.01 },
        });
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
    fn rerr_probe_records_one_result_per_epoch() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let mut model = built.model;
        let (train_ds, test_ds) = mnist_subset();
        let mut cfg = quick_cfg(TrainMethod::RandBet {
            wmax: Some(0.1),
            p: 0.01,
            variant: RandBetVariant::Standard,
        });
        cfg.warmup_loss = 100.0;
        cfg.epochs = 2;
        cfg.rerr_probe = Some(RErrProbe::new(0.01, 3));
        let report = train(&mut model, &train_ds, &test_ds, &cfg);
        assert_eq!(report.epoch_losses.len(), 2);
        assert_eq!(report.epoch_rerr.len(), 2);
        assert!(report.epoch_rerr.iter().all(|r| r.errors.len() == 3));
        assert_eq!(report.final_loss, *report.epoch_losses.last().unwrap());
    }

    /// The final epoch's probe evaluates the same clipped weights `train`
    /// returns, so the serial reference engine over that model's probe
    /// chips must reproduce it bit for bit.
    #[test]
    fn final_rerr_probe_matches_serial_campaign() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let mut model = built.model;
        let (train_ds, test_ds) = mnist_subset();
        let mut cfg = quick_cfg(TrainMethod::RandBet {
            wmax: Some(0.1),
            p: 0.01,
            variant: RandBetVariant::Standard,
        });
        cfg.warmup_loss = 100.0;
        cfg.epochs = 2;
        cfg.rerr_probe = Some(RErrProbe::new(0.01, 2));
        let report = train(&mut model, &train_ds, &test_ds, &cfg);

        let q0 = QuantizedModel::quantize(&model, QuantScheme::rquant(8));
        let images: Vec<QuantizedModel> = (0..2)
            .map(|c| {
                let mut q = q0.clone();
                q.inject(&UniformChip::new(1000 + c).at_rate(0.01));
                q
            })
            .collect();
        let serial = crate::Campaign::new(&model, &test_ds).serial().run(&images);
        assert_eq!(report.epoch_rerr.last(), Some(&RobustEval::from_results(&serial)));
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
            TrainMethod::PattBet {
                wmax: Some(0.1),
                pattern: PattPattern::Uniform { seed: 7, p: 0.005 },
            },
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
    fn data_parallel_rerr_probe_still_works() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let mut model = built.model;
        let (train_ds, test_ds) = mnist_subset();
        let mut cfg = quick_cfg(TrainMethod::RandBet {
            wmax: Some(0.1),
            p: 0.01,
            variant: RandBetVariant::Standard,
        });
        cfg.warmup_loss = 100.0;
        cfg.epochs = 2;
        cfg.rerr_probe = Some(RErrProbe::new(0.01, 2));
        cfg.data_parallel = Some(DataParallel::new(3));
        let report = train(&mut model, &train_ds, &test_ds, &cfg);
        assert_eq!(report.epoch_rerr.len(), 2);
        assert!(report.epoch_rerr.iter().all(|r| r.errors.len() == 2));
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
