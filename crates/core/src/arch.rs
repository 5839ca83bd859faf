//! Scaled-down versions of the paper's architectures.
//!
//! The paper uses SimpleNet (5.5 M weights on CIFAR10, halved channels on
//! MNIST), a Wide ResNet on CIFAR100, and ResNet-20/50 for the architecture
//! ablation. Training here runs on CPU, so every architecture keeps its
//! *shape* (conv+norm+ReLU stacks with the same pooling schedule, residual
//! blocks with projection shortcuts) at reduced width; the README section
//! "Reproducing the paper's figures and tables" records the substitution.
//! Group normalization is the default, matching the paper's finding that
//! BatchNorm is fragile under weight bit errors (Tab. 10).

use bitrobust_nn::{
    BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, GroupNorm, Linear, MaxPool2d, Model, Relu,
    Residual, Sequential,
};
use rand::Rng;

/// Which normalization layers an architecture uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormKind {
    /// Group normalization (the paper's robust default; App. G.1).
    Group,
    /// Batch normalization (fragile under weight bit errors; Tab. 10).
    Batch,
}

/// Architecture families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// SimpleNet-style plain conv stack (the paper's main model).
    SimpleNet,
    /// A wider SimpleNet used for the CIFAR100 stand-in (WRN substitute).
    WideSimpleNet,
    /// A small residual network (ResNet-20/50 stand-in; App. G.7).
    ResNetMini,
    /// A two-layer MLP baseline (sanity checks and fast tests).
    Mlp,
}

/// What [`build`] returns: the model holds exactly the architecture's
/// layers. Callers read [`BuiltModel::model`].
#[derive(Debug)]
pub struct BuiltModel {
    /// The trainable model.
    pub model: Model,
}

/// Builds an architecture for images of shape `[channels, size, size]`.
///
/// # Panics
///
/// Panics if the spatial size is too small for the pooling schedule
/// (minimum 8 for conv nets).
pub fn build(
    arch: ArchKind,
    image_shape: [usize; 3],
    n_classes: usize,
    norm: NormKind,
    rng: &mut impl Rng,
) -> BuiltModel {
    match arch {
        // The final width matters for weight clipping: logits are bounded by
        // roughly `wmax * Σ|features|`, so the classifier head keeps a wide
        // feature vector (the paper's SimpleNet feeds 256 features into the
        // classifier for the same reason).
        ArchKind::SimpleNet => {
            simplenet(image_shape, n_classes, norm, &[16, 16, 32, 32, 64, 96], rng)
        }
        ArchKind::WideSimpleNet => {
            simplenet(image_shape, n_classes, norm, &[24, 24, 48, 48, 96, 128], rng)
        }
        ArchKind::ResNetMini => resnet_mini(image_shape, n_classes, norm, rng),
        ArchKind::Mlp => mlp(image_shape, n_classes, rng),
    }
}

fn norm_layer(norm: NormKind, channels: usize, net: &mut Sequential) {
    match norm {
        NormKind::Group => net.push(GroupNorm::new(channels, group_count(channels))),
        NormKind::Batch => net.push(BatchNorm2d::new(channels)),
    }
}

fn group_count(channels: usize) -> usize {
    // Largest divisor of `channels` not exceeding 8 (GroupNorm default
    // spirit at our widths).
    (1..=8.min(channels)).rev().find(|&g| channels.is_multiple_of(g)).unwrap_or(1)
}

/// Conv + Norm + ReLU block.
fn conv_block(
    net: &mut Sequential,
    in_ch: usize,
    out_ch: usize,
    stride: usize,
    norm: NormKind,
    rng: &mut impl Rng,
) {
    net.push(Conv2d::new(in_ch, out_ch, 3, stride, 1, rng));
    norm_layer(norm, out_ch, net);
    net.push(Relu::new());
}

/// The SimpleNet-style stack: pairs of 3×3 convolutions with 2×2 pooling,
/// global average pooling, then a linear classifier.
fn simplenet(
    image_shape: [usize; 3],
    n_classes: usize,
    norm: NormKind,
    widths: &[usize; 6],
    rng: &mut impl Rng,
) -> BuiltModel {
    let [c, h, _] = image_shape;
    assert!(h >= 8, "SimpleNet requires spatial size >= 8, got {h}");
    let mut net = Sequential::new();
    conv_block(&mut net, c, widths[0], 1, norm, rng);
    conv_block(&mut net, widths[0], widths[1], 1, norm, rng);
    net.push(MaxPool2d::new(2, 2));
    conv_block(&mut net, widths[1], widths[2], 1, norm, rng);
    conv_block(&mut net, widths[2], widths[3], 1, norm, rng);
    net.push(MaxPool2d::new(2, 2));
    conv_block(&mut net, widths[3], widths[4], 1, norm, rng);
    conv_block(&mut net, widths[4], widths[5], 1, norm, rng);
    net.push(GlobalAvgPool::new());
    net.push(Linear::new(widths[5], n_classes, rng));
    BuiltModel { model: Model::new("simplenet", net) }
}

/// A small pre-activation-free residual network (stem + three stages with a
/// strided projection block each), standing in for ResNet-20/50.
fn resnet_mini(
    image_shape: [usize; 3],
    n_classes: usize,
    norm: NormKind,
    rng: &mut impl Rng,
) -> BuiltModel {
    let [c, h, _] = image_shape;
    assert!(h >= 8, "ResNetMini requires spatial size >= 8, got {h}");
    let widths = [16usize, 32, 48];
    let mut net = Sequential::new();
    conv_block(&mut net, c, widths[0], 1, norm, rng);

    // Stage 1: identity residual block.
    let mut body = Sequential::new();
    conv_block(&mut body, widths[0], widths[0], 1, norm, rng);
    body.push(Conv2d::new(widths[0], widths[0], 3, 1, 1, rng));
    match norm {
        NormKind::Group => body.push(GroupNorm::new(widths[0], group_count(widths[0]))),
        NormKind::Batch => body.push(BatchNorm2d::new(widths[0])),
    }
    net.push(Residual::new(body));
    net.push(Relu::new());

    // Stages 2 and 3: strided projection blocks.
    for s in 0..2 {
        let (in_ch, out_ch) = (widths[s], widths[s + 1]);
        let mut body = Sequential::new();
        conv_block(&mut body, in_ch, out_ch, 2, norm, rng);
        body.push(Conv2d::new(out_ch, out_ch, 3, 1, 1, rng));
        match norm {
            NormKind::Group => body.push(GroupNorm::new(out_ch, group_count(out_ch))),
            NormKind::Batch => body.push(BatchNorm2d::new(out_ch)),
        }
        let shortcut = Conv2d::new(in_ch, out_ch, 1, 2, 0, rng);
        net.push(Residual::with_shortcut(body, shortcut));
        net.push(Relu::new());
    }

    net.push(GlobalAvgPool::new());
    net.push(Linear::new(widths[2], n_classes, rng));
    BuiltModel { model: Model::new("resnet-mini", net) }
}

/// Flatten → 128 → classifier.
fn mlp(image_shape: [usize; 3], n_classes: usize, rng: &mut impl Rng) -> BuiltModel {
    let [c, h, w] = image_shape;
    let mut net = Sequential::new();
    net.push(Flatten::new());
    net.push(Linear::new(c * h * w, 128, rng));
    net.push(Relu::new());
    net.push(Linear::new(128, n_classes, rng));
    BuiltModel { model: Model::new("mlp", net) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitrobust_nn::Mode;
    use bitrobust_tensor::Tensor;
    use rand::SeedableRng;

    fn check_forward(arch: ArchKind, shape: [usize; 3], classes: usize) -> usize {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut built = build(arch, shape, classes, NormKind::Group, &mut rng);
        let x = Tensor::randn(&[2, shape[0], shape[1], shape[2]], 1.0, &mut rng);
        let y = built.model.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, classes]);
        assert!(y.data().iter().all(|v| v.is_finite()));
        built.model.num_params()
    }

    #[test]
    fn simplenet_shapes_and_size() {
        let n = check_forward(ArchKind::SimpleNet, [3, 16, 16], 10);
        assert!(n > 30_000 && n < 120_000, "unexpected parameter count {n}");
    }

    #[test]
    fn wide_simplenet_is_bigger() {
        let slim = check_forward(ArchKind::SimpleNet, [3, 16, 16], 100);
        let wide = check_forward(ArchKind::WideSimpleNet, [3, 16, 16], 100);
        assert!(wide > slim);
    }

    #[test]
    fn resnet_mini_forward_and_gradients_flow() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut built = build(ArchKind::ResNetMini, [3, 16, 16], 10, NormKind::Group, &mut rng);
        let x = Tensor::randn(&[2, 3, 16, 16], 1.0, &mut rng);
        let y = built.model.forward(&x, Mode::Train);
        let g = Tensor::full(y.shape(), 0.1);
        built.model.backward(&g);
        let mut any_grad = false;
        built.model.visit_params(&mut |p| {
            if p.grad().abs_max() > 0.0 {
                any_grad = true;
            }
        });
        assert!(any_grad, "gradients must reach parameters through residual blocks");
    }

    #[test]
    fn mnist_shape_works() {
        check_forward(ArchKind::SimpleNet, [1, 14, 14], 10);
    }

    #[test]
    fn mlp_builds() {
        let n = check_forward(ArchKind::Mlp, [1, 14, 14], 10);
        assert_eq!(n, 14 * 14 * 128 + 128 + 128 * 10 + 10);
    }

    #[test]
    fn batch_norm_variant_builds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut built = build(ArchKind::SimpleNet, [3, 16, 16], 10, NormKind::Batch, &mut rng);
        let x = Tensor::randn(&[4, 3, 16, 16], 1.0, &mut rng);
        let y = built.model.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[4, 10]);
    }

    #[test]
    fn simplenet_has_exactly_the_paper_layers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let built = build(ArchKind::SimpleNet, [3, 16, 16], 10, NormKind::Group, &mut rng);
        let types: Vec<&str> = built.model.layers().map(|l| l.layer_type()).collect();
        let mut expected = Vec::new();
        for block in 0..6 {
            expected.extend(["Conv2d", "GroupNorm", "Relu"]);
            if block == 1 || block == 3 {
                expected.push("MaxPool2d");
            }
        }
        expected.extend(["GlobalAvgPool", "Linear"]);
        assert_eq!(types.len(), 22);
        assert_eq!(types, expected);
    }

    #[test]
    fn group_count_divides() {
        for ch in [3, 12, 16, 24, 48, 72] {
            assert_eq!(ch % group_count(ch), 0);
        }
    }
}
