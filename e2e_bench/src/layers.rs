//! The traced run's direct layer measurements.
//!
//! - [`probe`] builds the SimpleNet-GN stack from the layers' public
//!   constructors (the widths `arch::build` uses) and times every layer's
//!   `forward`/`backward` at the training shard shape and its `infer` at
//!   batch 256 (the sweep's batch) and 32 (serve's `max_batch`), summed per
//!   layer kind.
//! - [`replay`] replays Alg. 1 steps from public calls, with a span and a
//!   timer around each call, which yields per-phase times and the share of
//!   step wall time no phase accounts for.

use std::hint::black_box;
use std::time::Instant;

use bitrobust_biterror::UniformChip;
use bitrobust_core::{QuantizedModel, TRAIN_SHARDS};
use bitrobust_data::{augment_batch, AugmentConfig};
use bitrobust_nn::{
    Conv2d, CrossEntropyLoss, GlobalAvgPool, GroupNorm, Layer, Linear, MaxPool2d, Mode, Relu, Sgd,
};
use bitrobust_tensor::Tensor;
use rand::{Rng, SeedableRng};

use crate::train::{datasets, scheme, simplenet, BATCH, P, WMAX};
use crate::{stats, Metric, Opts, LAYER_KINDS};

/// SimpleNet's channel widths, as `arch::build(ArchKind::SimpleNet, ..)`
/// builds them.
pub const WIDTHS: [usize; 6] = [16, 16, 32, 32, 64, 96];
/// Input image shape `[channels, height, width]`.
pub const IMAGE: [usize; 3] = [3, 16, 16];
/// Classes of the classifier head.
pub const CLASSES: usize = 10;
/// Rows per data-parallel shard: the protocol batch over the protocol
/// shard count.
pub const SHARD_BATCH: usize = BATCH / TRAIN_SHARDS;

/// One layer of the SimpleNet stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// 3×3 convolution, stride 1, padding 1.
    Conv {
        /// Input channels.
        cin: usize,
        /// Output channels.
        cout: usize,
    },
    /// Group normalization over `channels`.
    Norm(usize),
    /// ReLU.
    Relu,
    /// 2×2 max pooling, stride 2.
    MaxPool,
    /// Global average pooling.
    Gap,
    /// Fully connected classifier head.
    Linear {
        /// Input features.
        inputs: usize,
        /// Output features.
        outputs: usize,
    },
}

impl Op {
    /// Index of the layer's kind in [`LAYER_KINDS`].
    pub fn kind(self) -> usize {
        match self {
            Op::Conv { .. } => 0,
            Op::Norm(_) => 1,
            Op::Relu => 2,
            Op::MaxPool => 3,
            Op::Gap => 4,
            Op::Linear { .. } => 5,
        }
    }

    fn build(self, rng: &mut impl Rng) -> Box<dyn Layer> {
        match self {
            Op::Conv { cin, cout } => Box::new(Conv2d::new(cin, cout, 3, 1, 1, rng)),
            Op::Norm(c) => Box::new(GroupNorm::new(c, group_count(c))),
            Op::Relu => Box::new(Relu::new()),
            Op::MaxPool => Box::new(MaxPool2d::new(2, 2)),
            Op::Gap => Box::new(GlobalAvgPool::new()),
            Op::Linear { inputs, outputs } => Box::new(Linear::new(inputs, outputs, rng)),
        }
    }
}

/// Largest divisor of `channels` not above 8 — the group count
/// `arch::build` gives GroupNorm.
fn group_count(channels: usize) -> usize {
    (1..=8.min(channels)).rev().find(|&g| channels.is_multiple_of(g)).unwrap_or(1)
}

/// The SimpleNet-GN stack in forward order (the activation probe, an
/// identity at inference, is left out).
pub fn simplenet_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    let mut cin = IMAGE[0];
    for (i, &cout) in WIDTHS.iter().enumerate() {
        ops.extend([Op::Conv { cin, cout }, Op::Norm(cout), Op::Relu]);
        if i == 1 || i == 3 {
            ops.push(Op::MaxPool);
        }
        cin = cout;
    }
    ops.extend([Op::Gap, Op::Linear { inputs: cin, outputs: CLASSES }]);
    ops
}

/// GEMM FLOPs of one sample's forward pass through SimpleNet-GN:
/// `2·Cin·9·Cout·H·W` per 3×3 convolution, `2·in·out` for the head.
pub fn forward_gemm_flops() -> f64 {
    let mut hw = (IMAGE[1] * IMAGE[2]) as f64;
    let mut flops = 0.0;
    for op in simplenet_ops() {
        match op {
            Op::Conv { cin, cout } => flops += 2.0 * (cin * 9 * cout) as f64 * hw,
            Op::MaxPool => hw /= 4.0,
            Op::Linear { inputs, outputs } => flops += 2.0 * (inputs * outputs) as f64,
            Op::Norm(_) | Op::Relu | Op::Gap => {}
        }
    }
    flops
}

/// Span names of the probe, per kind: forward, backward, infer.
const PROBE_SPANS: [[&str; 3]; 6] = [
    ["bench.nn.conv2d.forward", "bench.nn.conv2d.backward", "bench.nn.conv2d.infer"],
    ["bench.nn.groupnorm.forward", "bench.nn.groupnorm.backward", "bench.nn.groupnorm.infer"],
    ["bench.nn.relu.forward", "bench.nn.relu.backward", "bench.nn.relu.infer"],
    ["bench.nn.maxpool2d.forward", "bench.nn.maxpool2d.backward", "bench.nn.maxpool2d.infer"],
    [
        "bench.nn.globalavgpool.forward",
        "bench.nn.globalavgpool.backward",
        "bench.nn.globalavgpool.infer",
    ],
    ["bench.nn.linear.forward", "bench.nn.linear.backward", "bench.nn.linear.infer"],
];

fn time_ms<T>(span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = bitrobust_obs::span(span);
    let t0 = Instant::now();
    let out = black_box(f());
    (out, 1e3 * t0.elapsed().as_secs_f64())
}

/// Per-kind layer times: `nn.<kind>.fwd_ms` / `bwd_ms` at the shard shape
/// and `infer_ms.b256` / `infer_ms.b32`, each the sum over the stack's
/// layers of that kind of the median over the run's repeats.
pub fn probe(opts: &Opts) -> Vec<Metric> {
    let _span = bitrobust_obs::span("bench.layer_probe");
    let repeats = opts.size().probe_repeats;
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed ^ 0x9E0B_E000);
    let ops = simplenet_ops();
    let mut layers: Vec<Box<dyn Layer>> = ops.iter().map(|op| op.build(&mut rng)).collect();
    // totals[kind] = [fwd, bwd, infer b256, infer b32] in ms.
    let mut totals = [[0f64; 4]; LAYER_KINDS.len()];

    let mut x = Tensor::randn(&[SHARD_BATCH, IMAGE[0], IMAGE[1], IMAGE[2]], 1.0, &mut rng);
    for (op, layer) in ops.iter().zip(layers.iter_mut()) {
        let k = op.kind();
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        let mut y = None;
        for _ in 0..repeats {
            let (out, ms) = time_ms(PROBE_SPANS[k][0], || layer.forward(&x, Mode::Train));
            fwd.push(ms);
            let grad = Tensor::full(out.shape(), 0.01);
            bwd.push(time_ms(PROBE_SPANS[k][1], || layer.backward(&grad)).1);
            y = Some(out);
        }
        totals[k][0] += stats::median(&fwd);
        totals[k][1] += stats::median(&bwd);
        x = y.expect("probe_repeats > 0");
    }

    for (col, batch) in [(2, 256), (3, 32)] {
        let mut x = Tensor::randn(&[batch, IMAGE[0], IMAGE[1], IMAGE[2]], 1.0, &mut rng);
        for (op, layer) in ops.iter().zip(&layers) {
            let k = op.kind();
            let mut times = Vec::new();
            let mut y = None;
            for _ in 0..repeats {
                let (out, ms) = time_ms(PROBE_SPANS[k][2], || layer.infer(&x, Mode::Eval));
                times.push(ms);
                y = Some(out);
            }
            totals[k][col] += stats::median(&times);
            x = y.expect("probe_repeats > 0");
        }
    }

    let mut metrics = Vec::new();
    for (kind, t) in LAYER_KINDS.iter().zip(totals) {
        metrics.push(Metric::new(format!("nn.{kind}.fwd_ms"), t[0], "ms"));
        metrics.push(Metric::new(format!("nn.{kind}.bwd_ms"), t[1], "ms"));
        metrics.push(Metric::new(format!("nn.{kind}.infer_ms.b256"), t[2], "ms"));
        metrics.push(Metric::new(format!("nn.{kind}.infer_ms.b32"), t[3], "ms"));
    }
    metrics
}

/// Accumulated time per Alg. 1 phase of the replay, in ms.
#[derive(Debug, Default)]
struct Phases {
    augment: f64,
    clip: f64,
    quantize: f64,
    write: f64,
    forward: f64,
    loss: f64,
    backward: f64,
    inject: f64,
    optim: f64,
}

impl Phases {
    fn total(&self) -> f64 {
        self.augment
            + self.clip
            + self.quantize
            + self.write
            + self.forward
            + self.loss
            + self.backward
            + self.inject
            + self.optim
    }
}

/// Runs `f` inside `span`, adding its wall time to `acc` (ms).
fn phase<T>(acc: &mut f64, span: &'static str, f: impl FnOnce() -> T) -> T {
    let (out, ms) = time_ms(span, f);
    *acc += ms;
    out
}

/// Replays Alg. 1 RandBET steps (batch 64, single model) from public calls
/// and reports per-step phase times, the realized-flip ratio, and the
/// unattributed share of step wall time.
pub fn replay(opts: &Opts) -> Vec<Metric> {
    let _span = bitrobust_obs::span("bench.replay");
    let size = opts.size();
    let steps = size.replay_steps;
    let (train_ds, _) = datasets(opts.seed, size.train_examples, 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(opts.seed ^ 0x0A16_0001);
    let mut model = simplenet(opts.seed);
    let loss_fn = CrossEntropyLoss::new();
    let mut sgd = Sgd::new(0.05, 0.9, 5e-4);
    let augment = AugmentConfig::cifar();
    let batches = train_ds.shuffled_batches(BATCH, &mut rng);

    let mut t = Phases::default();
    let mut step_ms = 0.0;
    let mut flips = 0usize;
    let mut expected_flips = 0.0;
    for step in 0..steps {
        let (mut x, labels) = batches[step % batches.len()].clone();
        let _step_span = bitrobust_obs::span("bench.step");
        let t0 = Instant::now();
        phase(&mut t.augment, "bench.augment_batch", || augment_batch(&mut x, &augment, &mut rng));
        phase(&mut t.clip, "bench.clip_params", || model.clip_params(WMAX));
        let float_params = model.param_tensors();
        let q =
            phase(&mut t.quantize, "bench.quantize", || QuantizedModel::quantize(&model, scheme()));
        phase(&mut t.write, "bench.write_to", || q.write_to(&mut model));
        model.zero_grads();
        let logits = phase(&mut t.forward, "bench.forward", || model.forward(&x, Mode::Train));
        let out = phase(&mut t.loss, "bench.loss", || loss_fn.compute(&logits, &labels));
        phase(&mut t.backward, "bench.backward", || model.backward(&out.grad));
        let chip_seed: u64 = rng.gen();
        let perturbed = phase(&mut t.inject, "bench.clone_inject", || {
            let mut q2 = q.clone();
            q2.inject(&UniformChip::new(chip_seed).at_rate(P));
            q2
        });
        phase(&mut t.write, "bench.write_to", || perturbed.write_to(&mut model));
        let logits = phase(&mut t.forward, "bench.forward", || model.forward(&x, Mode::Train));
        let out = phase(&mut t.loss, "bench.loss", || loss_fn.compute(&logits, &labels));
        phase(&mut t.backward, "bench.backward", || model.backward(&out.grad));
        model.set_param_tensors(&float_params);
        phase(&mut t.optim, "bench.sgd_step", || sgd.step(&mut model));
        step_ms += 1e3 * t0.elapsed().as_secs_f64();

        flips += q.hamming_distance(&perturbed);
        expected_flips += P * q.total_weights() as f64 * f64::from(scheme().bits());
    }

    let per_step = |ms: f64| ms / steps as f64;
    vec![
        Metric::new("data.augment_ms", per_step(t.augment), "ms"),
        Metric::new("quant.quantize_ms", per_step(t.quantize), "ms"),
        Metric::new("quant.write_ms", per_step(t.write), "ms"),
        Metric::new("biterror.inject_ms", per_step(t.inject), "ms"),
        Metric::new("biterror.flip_ratio", flips as f64 / expected_flips, "ratio"),
        Metric::new("nn.loss_ms", t.loss / (2 * steps) as f64, "ms"),
        Metric::new("optim.step_ms", per_step(t.optim), "ms"),
        Metric::new("train.unattributed_share", 1.0 - t.total() / step_ms, "ratio"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_matches_simplenet() {
        let ops = simplenet_ops();
        assert_eq!(ops.len(), 6 * 3 + 2 + 2);
        assert_eq!(ops.iter().filter(|o| o.kind() == 0).count(), 6);
        assert_eq!(ops.last(), Some(&Op::Linear { inputs: 96, outputs: CLASSES }));
        // Same parameter count as the model `arch::build` returns (the
        // probe layer carries no parameters).
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut probe_params = 0;
        for op in ops {
            let mut layer = op.build(&mut rng);
            layer.visit_params(&mut |p| probe_params += p.value().numel());
        }
        assert_eq!(probe_params, simplenet(0).num_params());
        assert_eq!(group_count(96), 8);
        assert_eq!(group_count(3), 3);
    }

    #[test]
    fn flops_follow_the_shapes() {
        let conv = |cin: f64, cout: f64, hw: f64| 2.0 * cin * 9.0 * cout * hw;
        let expected = conv(3.0, 16.0, 256.0)
            + conv(16.0, 16.0, 256.0)
            + conv(16.0, 32.0, 64.0)
            + conv(32.0, 32.0, 64.0)
            + conv(32.0, 64.0, 16.0)
            + conv(64.0, 96.0, 16.0)
            + 2.0 * 96.0 * 10.0;
        assert_eq!(forward_gemm_flops(), expected);
    }
}
