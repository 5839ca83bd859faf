//! Layer composition: sequential chains, residual blocks, flattening.

use bitrobust_tensor::Tensor;

use crate::{Layer, Mode, Param};

/// A chain of layers applied in order.
///
/// # Examples
///
/// ```
/// use bitrobust_nn::{Layer, Linear, Mode, Relu, Sequential};
/// use bitrobust_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Linear::new(4, 8, &mut rng));
/// net.push(Relu::new());
/// net.push(Linear::new(8, 2, &mut rng));
/// let y = net.forward(&Tensor::zeros(&[3, 4]), Mode::Eval);
/// assert_eq!(y.shape(), &[3, 2]);
/// ```
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.layer_type()).collect();
        f.debug_struct("Sequential").field("layers", &names).finish()
    }
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers in the chain.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the contained layers.
    pub fn layers(&self) -> impl Iterator<Item = &dyn Layer> {
        self.layers.iter().map(|b| b.as_ref())
    }
}

impl Layer for Sequential {
    fn train_forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.train_forward(&x);
        }
        x
    }

    fn infer(&self, input: &Tensor, mode: Mode) -> Tensor {
        mode.assert_inference();
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.infer(&x, mode);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        for layer in &self.layers {
            layer.visit_params_ref(visitor);
        }
    }

    fn visit_children(&self, visitor: &mut dyn FnMut(&dyn Layer)) {
        for layer in &self.layers {
            visitor(layer.as_ref());
        }
    }

    fn layer_type(&self) -> &'static str {
        "Sequential"
    }

    fn clear_cache(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }
}

/// A residual block: `y = body(x) + shortcut(x)`.
///
/// The shortcut defaults to identity; set one (e.g. a strided 1×1
/// convolution) when the body changes shape.
#[derive(Clone)]
pub struct Residual {
    body: Sequential,
    shortcut: Option<Box<dyn Layer>>,
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field("body", &self.body)
            .field("has_shortcut", &self.shortcut.is_some())
            .finish()
    }
}

impl Residual {
    /// Creates a residual block with an identity shortcut.
    pub fn new(body: Sequential) -> Self {
        Self { body, shortcut: None }
    }

    /// Creates a residual block with a projection shortcut.
    pub fn with_shortcut(body: Sequential, shortcut: impl Layer + 'static) -> Self {
        Self { body, shortcut: Some(Box::new(shortcut)) }
    }
}

/// `branch + skip`, the residual join of both passes.
fn join(branch: Tensor, skip: Tensor) -> Tensor {
    assert_eq!(
        branch.shape(),
        skip.shape(),
        "residual body and shortcut produced different shapes"
    );
    &branch + &skip
}

impl Layer for Residual {
    fn train_forward(&mut self, input: &Tensor) -> Tensor {
        let branch = self.body.train_forward(input);
        let skip = match &mut self.shortcut {
            Some(layer) => layer.train_forward(input),
            None => input.clone(),
        };
        join(branch, skip)
    }

    fn infer(&self, input: &Tensor, mode: Mode) -> Tensor {
        mode.assert_inference();
        let branch = self.body.infer(input, mode);
        let skip = match &self.shortcut {
            Some(layer) => layer.infer(input, mode),
            None => input.clone(),
        };
        join(branch, skip)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let through_body = self.body.backward(grad_output);
        let through_skip = match &mut self.shortcut {
            Some(layer) => layer.backward(grad_output),
            None => grad_output.clone(),
        };
        &through_body + &through_skip
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.body.visit_params(visitor);
        if let Some(layer) = &mut self.shortcut {
            layer.visit_params(visitor);
        }
    }

    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        self.body.visit_params_ref(visitor);
        if let Some(layer) = &self.shortcut {
            layer.visit_params_ref(visitor);
        }
    }

    fn visit_children(&self, visitor: &mut dyn FnMut(&dyn Layer)) {
        visitor(&self.body);
        if let Some(layer) = &self.shortcut {
            visitor(layer.as_ref());
        }
    }

    fn layer_type(&self) -> &'static str {
        "Residual"
    }

    fn clear_cache(&mut self) {
        self.body.clear_cache();
        if let Some(layer) = &mut self.shortcut {
            layer.clear_cache();
        }
    }
}

/// Flattens `[batch, ...]` into `[batch, features]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache-free reshape shared by both passes.
    fn compute(input: &Tensor) -> Tensor {
        assert!(input.ndim() >= 2, "Flatten expects at least [batch, features]");
        let batch = input.dim(0);
        let features = input.numel() / batch;
        input.clone().reshape(&[batch, features])
    }
}

impl Layer for Flatten {
    fn train_forward(&mut self, input: &Tensor) -> Tensor {
        let out = Self::compute(input);
        self.input_shape = input.shape().to_vec();
        out
    }

    fn infer(&self, input: &Tensor, mode: Mode) -> Tensor {
        mode.assert_inference();
        Self::compute(input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        grad_output.clone().reshape(&self.input_shape)
    }

    fn layer_type(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradients, GradCheckConfig};
    use crate::{Conv2d, Linear, Relu};
    use rand::SeedableRng;

    #[test]
    fn sequential_chains_and_backprops() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Linear::new(4, 6, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(6, 3, &mut rng));
        check_layer_gradients(&mut net, &[2, 4], &GradCheckConfig::default(), &mut rng);
    }

    #[test]
    fn residual_identity_gradients() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut body = Sequential::new();
        body.push(Conv2d::new(2, 2, 3, 1, 1, &mut rng));
        body.push(Relu::new());
        let mut block = Residual::new(body);
        check_layer_gradients(&mut block, &[1, 2, 4, 4], &GradCheckConfig::default(), &mut rng);
    }

    #[test]
    fn residual_projection_gradients() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut body = Sequential::new();
        body.push(Conv2d::new(2, 4, 3, 2, 1, &mut rng));
        let shortcut = Conv2d::new(2, 4, 1, 2, 0, &mut rng);
        let mut block = Residual::with_shortcut(body, shortcut);
        check_layer_gradients(&mut block, &[1, 2, 4, 4], &GradCheckConfig::default(), &mut rng);
    }

    #[test]
    fn flatten_round_trips_shape() {
        let mut flat = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let y = flat.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 12]);
        let dx = flat.backward(&y);
        assert_eq!(dx.shape(), &[2, 3, 2, 2]);
        assert_eq!(dx, x);
    }

    #[test]
    fn sequential_param_visit_order_is_stable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut net = Sequential::new();
        net.push(Linear::new(2, 3, &mut rng));
        net.push(Linear::new(3, 1, &mut rng));
        let mut names = Vec::new();
        net.visit_params(&mut |p| names.push(format!("{}{:?}", p.name(), p.value().shape())));
        assert_eq!(names, vec!["weight[3, 2]", "bias[3]", "weight[1, 3]", "bias[1]"]);
    }
}
