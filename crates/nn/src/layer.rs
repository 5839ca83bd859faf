//! The layer abstraction used by every network in the workspace.

use bitrobust_tensor::Tensor;

use crate::Param;

/// Forward-pass mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: caches activations for backward, uses batch statistics, and
    /// updates running statistics in normalization layers.
    Train,
    /// Inference with accumulated statistics (the deployment configuration).
    Eval,
    /// Inference that recomputes normalization statistics from the current
    /// batch. Used to reproduce the paper's Tab. 10, which shows BatchNorm's
    /// accumulated statistics are what breaks under weight bit errors.
    EvalBatchStats,
}

impl Mode {
    /// Whether this mode caches intermediate state for a later backward pass.
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }

    /// Guards the immutable `infer` path.
    ///
    /// # Panics
    ///
    /// Panics if this mode is [`Mode::Train`].
    pub fn assert_inference(self) {
        assert!(
            !self.is_train(),
            "infer requires a non-training mode; use forward for Mode::Train"
        );
    }
}

/// A differentiable layer with hand-written backprop.
///
/// Contract: a layer has exactly three passes.
///
/// * [`Layer::train_forward`] is the training pass. It caches whatever
///   `backward` reads, uses batch statistics, and updates running
///   statistics in normalization layers.
/// * [`Layer::infer`] is the inference pass for a non-training mode. It
///   takes `&self` and touches no cache, so one layer tree (`Layer`
///   requires `Sync`) can serve concurrent evaluation passes — the property
///   the fault-injection campaign engine builds on.
/// * [`Layer::backward`] receives `dL/d(output)` of the last training pass
///   and returns `dL/d(input)`. It **accumulates** parameter gradients
///   (`+=`) so that multi-pass training schemes (e.g. random bit error
///   training, which averages a clean and a perturbed gradient) work
///   without extra buffers. Calling it twice without a new training pass
///   is a logic error that layers need not detect.
///
/// [`Layer::forward`] only dispatches on the mode, so a non-training
/// `forward` is `infer` by construction.
///
/// A clone (every layer is `Clone`; boxed layers clone through
/// [`CloneLayer`]) copies everything: parameters, accumulated gradients,
/// running statistics and activation caches, so a clone taken between a
/// training pass and `backward` backprops like the original.
/// [`Layer::clear_cache`] frees the caches.
///
/// `visit_params` yields parameters in a deterministic order; the order
/// defines the global parameter indexing used for quantization, bit error
/// injection offsets, and serialization.
pub trait Layer: CloneLayer + Send + Sync {
    /// The training pass: computes the output and caches what
    /// [`Layer::backward`] reads.
    fn train_forward(&mut self, input: &Tensor) -> Tensor;

    /// Computes the layer output without mutating any state.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`Mode::Train`]: training passes must go through
    /// [`Layer::train_forward`] so backward caches are populated.
    fn infer(&self, input: &Tensor, mode: Mode) -> Tensor;

    /// Propagates gradients; returns `dL/d(input)` and accumulates parameter
    /// gradients.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Computes the layer output: [`Layer::train_forward`] in
    /// [`Mode::Train`], [`Layer::infer`] in every other mode.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        match mode {
            Mode::Train => self.train_forward(input),
            Mode::Eval | Mode::EvalBatchStats => self.infer(input, mode),
        }
    }

    /// Visits all trainable parameters in deterministic order.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        let _ = visitor;
    }

    /// Visits all trainable parameters immutably, in the **same order** as
    /// [`Layer::visit_params`]. This is what lets read-only consumers
    /// (quantization snapshots, parameter statistics, serialization) work
    /// from a shared `&Model` instead of demanding exclusive access.
    ///
    /// **Contract:** any layer that overrides [`Layer::visit_params`] MUST
    /// override this too, yielding the same parameters in the same order —
    /// the default visits nothing, so forgetting the override makes
    /// quantization and serialization silently skip the layer's weights.
    /// `Model::param_tensors` (ref path) is asserted against `visit_params`
    /// (mut path) in the test suites; keep new layers covered there.
    fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        let _ = visitor;
    }

    /// Visits the layer's *direct* children (containers override; leaf
    /// layers have none). Combined with [`crate::Model::visit_layers`] this
    /// gives a depth-first walk of the whole layer tree.
    ///
    /// **Contract:** any container holding child layers MUST override this,
    /// or tree walks (e.g. training's check that data-parallel models hold
    /// no BatchNorm) will not see the children.
    fn visit_children(&self, visitor: &mut dyn FnMut(&dyn Layer)) {
        let _ = visitor;
    }

    /// A short human-readable layer type name (e.g. `"Conv2d"`).
    fn layer_type(&self) -> &'static str;

    /// Releases cached activations to free memory (optional).
    fn clear_cache(&mut self) {}
}

/// Clones a layer behind a `Box<dyn Layer>`. Implemented for every
/// `Layer + Clone`; it is what makes `Box<dyn Layer>`, and with it the
/// containers and [`crate::Model`], `Clone`.
pub trait CloneLayer {
    /// A boxed copy of the whole layer, caches included.
    fn clone_layer(&self) -> Box<dyn Layer>;
}

impl<T: Layer + Clone + 'static> CloneLayer for T {
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        (**self).clone_layer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_train_detection() {
        assert!(Mode::Train.is_train());
        assert!(!Mode::Eval.is_train());
        assert!(!Mode::EvalBatchStats.is_train());
    }
}
