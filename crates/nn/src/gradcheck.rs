//! Finite-difference gradient checking for layers.
//!
//! Every layer's hand-written backward pass is validated against central
//! finite differences of the scalar loss `L = Σ G ⊙ forward(x)` for a random
//! projection tensor `G`. The crate's unit tests run it on every layer.

use bitrobust_tensor::Tensor;
use rand::Rng;

use crate::Layer;

/// Tolerances and step size for [`check_layer_gradients`].
#[derive(Debug, Clone, Copy)]
pub struct GradCheckConfig {
    /// Central-difference step.
    pub eps: f32,
    /// Accept `|analytic - numeric| <= tol * max(1, |analytic|, |numeric|)`.
    pub tol: f32,
    /// Maximum number of coordinates probed per tensor (sampled evenly).
    pub max_coords: usize,
}

impl Default for GradCheckConfig {
    fn default() -> Self {
        Self { eps: 5e-3, tol: 2e-2, max_coords: 64 }
    }
}

/// Validates a layer's input and parameter gradients with finite differences.
///
/// # Panics
///
/// Panics with a diagnostic message if any probed coordinate disagrees
/// beyond the configured tolerance — this is the intended "assert" for use
/// inside tests.
pub fn check_layer_gradients(
    layer: &mut dyn Layer,
    input_shape: &[usize],
    cfg: &GradCheckConfig,
    rng: &mut impl Rng,
) {
    let x = Tensor::randn(input_shape, 1.0, rng);
    let y0 = layer.train_forward(&x);
    let projection = Tensor::randn(y0.shape(), 1.0, rng);

    // Analytic gradients.
    layer.visit_params(&mut |p| p.zero_grad());
    let _ = layer.train_forward(&x);
    let dx = layer.backward(&projection);

    // Numeric input gradient.
    let mut x_probe = x.clone();
    let coords = probe_coords(x.numel(), cfg.max_coords);
    for &i in &coords {
        let numeric =
            central_difference(|xp| loss_of(layer, xp, &projection), &mut x_probe, i, cfg.eps);
        let analytic = dx.data()[i];
        assert_close(analytic, numeric, cfg.tol, &format!("input coord {i}"));
    }

    // Numeric parameter gradients. Collect analytic copies first, then probe
    // one parameter at a time through the visitor.
    let mut analytic_grads: Vec<Tensor> = Vec::new();
    layer.visit_params(&mut |p| analytic_grads.push(p.grad().clone()));
    for (pi, grads) in analytic_grads.iter().enumerate() {
        let coords = probe_coords(grads.numel(), cfg.max_coords);
        for &ci in &coords {
            let numeric = param_central_difference(layer, &x, &projection, pi, ci, cfg.eps);
            let analytic = grads.data()[ci];
            assert_close(analytic, numeric, cfg.tol, &format!("param {pi} coord {ci}"));
        }
    }
}

fn loss_of(layer: &mut dyn Layer, x: &Tensor, projection: &Tensor) -> f64 {
    let y = layer.train_forward(x);
    y.data().iter().zip(projection.data()).map(|(&a, &b)| a as f64 * b as f64).sum()
}

fn central_difference(
    mut f: impl FnMut(&Tensor) -> f64,
    x: &mut Tensor,
    i: usize,
    eps: f32,
) -> f32 {
    let orig = x.data()[i];
    x.data_mut()[i] = orig + eps;
    let plus = f(x);
    x.data_mut()[i] = orig - eps;
    let minus = f(x);
    x.data_mut()[i] = orig;
    ((plus - minus) / (2.0 * eps as f64)) as f32
}

fn param_central_difference(
    layer: &mut dyn Layer,
    x: &Tensor,
    projection: &Tensor,
    param_index: usize,
    coord: usize,
    eps: f32,
) -> f32 {
    nudge_param(layer, param_index, coord, eps);
    let plus = loss_of(layer, x, projection);
    nudge_param(layer, param_index, coord, -2.0 * eps);
    let minus = loss_of(layer, x, projection);
    nudge_param(layer, param_index, coord, eps); // restore
    ((plus - minus) / (2.0 * eps as f64)) as f32
}

fn nudge_param(layer: &mut dyn Layer, param_index: usize, coord: usize, delta: f32) {
    let mut idx = 0;
    layer.visit_params(&mut |p| {
        if idx == param_index {
            p.value_mut().data_mut()[coord] += delta;
        }
        idx += 1;
    });
}

fn probe_coords(numel: usize, max_coords: usize) -> Vec<usize> {
    if numel <= max_coords {
        (0..numel).collect()
    } else {
        let stride = numel as f64 / max_coords as f64;
        (0..max_coords).map(|k| (k as f64 * stride) as usize).collect()
    }
}

fn assert_close(analytic: f32, numeric: f32, tol: f32, what: &str) {
    let scale = 1.0f32.max(analytic.abs()).max(numeric.abs());
    assert!(
        (analytic - numeric).abs() <= tol * scale,
        "gradient mismatch at {what}: analytic {analytic} vs numeric {numeric}"
    );
}
