//! The trainable model wrapper.

use std::io::{self, Read, Write};

use bitrobust_tensor::{read_tensors, write_tensors, Tensor};

use crate::{Layer, Mode, Param, Sequential};

/// A named network with convenience accessors over its parameters.
///
/// `Model` wraps a [`Sequential`] root and provides the operations the
/// robustness pipeline needs: snapshotting parameter tensors (so quantized
/// or bit-error-perturbed weights can be swapped in and out around forward
/// passes), clipping, gradient zeroing, and (de)serialization.
///
/// Parameter order is the deterministic visit order of the layer tree; this
/// order defines the linear weight-to-memory mapping used for bit error
/// injection.
///
/// A clone copies everything: parameters, accumulated gradients, running
/// statistics and activation caches ([`Model::clear_caches`] frees the
/// latter).
#[derive(Clone)]
pub struct Model {
    name: String,
    root: Sequential,
}

// The immutable `infer` path plus `Layer: Send + Sync` make a model shareable
// across evaluation workers; keep that guarantee from regressing.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Model>();
};

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model").field("name", &self.name).field("root", &self.root).finish()
    }
}

impl Model {
    /// Wraps a layer chain as a model.
    pub fn new(name: impl Into<String>, root: Sequential) -> Self {
        Self { name: name.into(), root }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Forward pass: the training pass in [`Mode::Train`], [`Model::infer`]
    /// in every other mode.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.root.forward(input, mode)
    }

    /// Immutable inference pass: what [`Model::forward`] runs in a
    /// non-training `mode`, but requires no exclusive access, so one model
    /// can serve concurrent evaluation workers.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`Mode::Train`].
    pub fn infer(&self, input: &Tensor, mode: Mode) -> Tensor {
        self.root.infer(input, mode)
    }

    /// Backward pass; returns the input gradient and accumulates parameter
    /// gradients.
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.root.backward(grad_output)
    }

    /// Visits all parameters in deterministic order.
    pub fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.root.visit_params(visitor);
    }

    /// Visits all parameters immutably, in the same order as
    /// [`Model::visit_params`]. Read-only consumers (quantization,
    /// statistics, serialization) use this so they can share a `&Model`
    /// with concurrent evaluation workers.
    pub fn visit_params_ref(&self, visitor: &mut dyn FnMut(&Param)) {
        self.root.visit_params_ref(visitor);
    }

    /// The top-level layers in forward order. A residual block is one
    /// item here; [`Model::visit_layers`] also walks its children.
    pub fn layers(&self) -> impl Iterator<Item = &dyn Layer> {
        self.root.layers()
    }

    /// Visits every layer in the tree depth-first (containers before their
    /// children), including nested layers inside residual blocks.
    pub fn visit_layers(&self, visitor: &mut dyn FnMut(&dyn Layer)) {
        fn walk(layer: &dyn Layer, visitor: &mut dyn FnMut(&dyn Layer)) {
            visitor(layer);
            layer.visit_children(&mut |child| walk(child, visitor));
        }
        walk(&self.root, visitor);
    }

    /// Total number of trainable scalars.
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params_ref(&mut |p| n += p.numel());
        n
    }

    /// Clones all parameter tensors in visit order.
    pub fn param_tensors(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params_ref(&mut |p| out.push(p.value().clone()));
        out
    }

    /// Overwrites all parameter tensors from `values` (visit order).
    ///
    /// # Panics
    ///
    /// Panics if the count or any shape differs.
    pub fn set_param_tensors(&mut self, values: &[Tensor]) {
        let mut index = 0;
        self.visit_params(&mut |p| {
            let v = values.get(index).expect("fewer tensors than parameters");
            assert_eq!(v.shape(), p.value().shape(), "parameter {index} shape mismatch");
            p.value_mut().data_mut().copy_from_slice(v.data());
            index += 1;
        });
        assert_eq!(index, values.len(), "more tensors than parameters");
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Clones all accumulated gradient tensors in visit order — the
    /// extraction half of the data-parallel gradient buffer API. A training
    /// replica runs `forward`/`backward` on its shard of a mini-batch, then
    /// its gradients are pulled out with this and merged into the primary
    /// model via [`Model::accumulate_grads`] (after a deterministic
    /// [`crate::tree_reduce_grads`] across shards).
    pub fn grad_tensors(&self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_params_ref(&mut |p| out.push(p.grad().clone()));
        out
    }

    /// Adds `grads` (visit order, e.g. from [`Model::grad_tensors`] on a
    /// replica) onto this model's accumulated gradients — the merge half of
    /// the data-parallel gradient buffer API.
    ///
    /// # Panics
    ///
    /// Panics if the count or any shape differs.
    pub fn accumulate_grads(&mut self, grads: &[Tensor]) {
        let mut index = 0;
        self.visit_params(&mut |p| {
            let g = grads.get(index).expect("fewer gradient tensors than parameters");
            p.grad_mut().axpy(1.0, g);
            index += 1;
        });
        assert_eq!(index, grads.len(), "more gradient tensors than parameters");
    }

    /// Projects every parameter onto `[-wmax, wmax]` (the paper's weight
    /// clipping, Alg. 1 line 6).
    ///
    /// # Panics
    ///
    /// Panics if `wmax` is not positive.
    pub fn clip_params(&mut self, wmax: f32) {
        assert!(wmax > 0.0, "wmax must be positive");
        self.visit_params(&mut |p| {
            p.value_mut().map_inplace(|v| v.clamp(-wmax, wmax));
        });
    }

    /// Releases all cached activations.
    pub fn clear_caches(&mut self) {
        self.root.clear_cache();
    }

    /// Serializes all parameters to `w` (names are `p{index}.{param name}`).
    ///
    /// Note: non-parameter buffers (BatchNorm running statistics) are not
    /// serialized; models using BatchNorm should be re-calibrated or saved
    /// through a higher-level mechanism.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn save_params<W: Write>(&self, w: W) -> io::Result<()> {
        let mut entries = Vec::new();
        let mut index = 0;
        self.visit_params_ref(&mut |p| {
            entries.push((format!("p{index}.{}", p.name()), p.value().clone()));
            index += 1;
        });
        write_tensors(w, &entries)
    }

    /// Restores parameters previously written by [`Model::save_params`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or malformed input.
    ///
    /// # Panics
    ///
    /// Panics if the tensor count or shapes do not match this model.
    pub fn load_params<R: Read>(&mut self, r: R) -> io::Result<()> {
        let entries = read_tensors(r)?;
        let values: Vec<Tensor> = entries.into_iter().map(|(_, t)| t).collect();
        self.set_param_tensors(&values);
        Ok(())
    }

    /// A compact per-layer summary (layer types and parameter counts).
    pub fn summary(&self) -> String {
        let n_params = self.num_params();
        let types: Vec<&str> = self.layers().map(|l| l.layer_type()).collect();
        format!("{}: {} layers, {} params [{}]", self.name, types.len(), n_params, types.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};
    use rand::SeedableRng;

    fn toy_model(seed: u64) -> Model {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Linear::new(4, 8, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(8, 3, &mut rng));
        Model::new("toy", net)
    }

    #[test]
    fn param_snapshot_round_trip() {
        let mut m = toy_model(1);
        let snapshot = m.param_tensors();
        assert_eq!(snapshot.len(), 4);
        let mut m2 = toy_model(2);
        let x = Tensor::full(&[1, 4], 0.5);
        let y1 = m.forward(&x, Mode::Eval);
        m2.set_param_tensors(&snapshot);
        let y2 = m2.forward(&x, Mode::Eval);
        assert_eq!(y1, y2);
    }

    #[test]
    fn num_params_counts_scalars() {
        let m = toy_model(3);
        assert_eq!(m.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn clip_params_bounds_all_values() {
        let mut m = toy_model(4);
        m.visit_params(&mut |p| p.value_mut().map_inplace(|_| 5.0));
        m.clip_params(0.1);
        m.visit_params(&mut |p| {
            assert!(p.value().abs_max() <= 0.1);
        });
    }

    #[test]
    fn save_and_load_params() {
        let mut m = toy_model(5);
        let mut buf = Vec::new();
        m.save_params(&mut buf).unwrap();
        let mut m2 = toy_model(6);
        m2.load_params(&buf[..]).unwrap();
        let x = Tensor::full(&[2, 4], -0.3);
        assert_eq!(m.forward(&x, Mode::Eval), m2.forward(&x, Mode::Eval));
    }

    #[test]
    fn infer_matches_forward_in_eval_mode() {
        let mut m = toy_model(8);
        let x = Tensor::full(&[3, 4], 0.25);
        let via_forward = m.forward(&x, Mode::Eval);
        let via_infer = m.infer(&x, Mode::Eval);
        assert_eq!(via_forward, via_infer);
    }

    #[test]
    #[should_panic(expected = "non-training mode")]
    fn infer_rejects_train_mode() {
        let m = toy_model(9);
        let _ = m.infer(&Tensor::zeros(&[1, 4]), Mode::Train);
    }

    #[test]
    fn clone_copies_weights_and_detaches_them() {
        let mut m = toy_model(10);
        let mut copy = m.clone();
        let x = Tensor::full(&[2, 4], -0.7);
        assert_eq!(m.forward(&x, Mode::Eval), copy.forward(&x, Mode::Eval));
        // Mutating the copy must not write through to the original.
        copy.visit_params(&mut |p| p.value_mut().map_inplace(|v| v + 1.0));
        assert_ne!(m.forward(&x, Mode::Eval), copy.forward(&x, Mode::Eval));
    }

    #[test]
    fn model_can_be_shared_across_threads_for_infer() {
        let mut m = toy_model(11);
        let x = Tensor::full(&[2, 4], 0.5);
        let expected = m.forward(&x, Mode::Eval);
        let outputs = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (m, x) = (&m, &x);
                    s.spawn(move || m.infer(x, Mode::Eval))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("thread panicked")).collect::<Vec<_>>()
        });
        for y in outputs {
            assert_eq!(y, expected);
        }
    }

    #[test]
    fn grad_tensors_round_trip_through_accumulate() {
        use crate::CrossEntropyLoss;

        let mut m = toy_model(20);
        let x = Tensor::full(&[2, 4], 0.5);
        let labels = [0usize, 2];

        // Compute a reference gradient directly on the model.
        m.zero_grads();
        let logits = m.forward(&x, Mode::Train);
        let out = CrossEntropyLoss::new().compute(&logits, &labels);
        m.backward(&out.grad);
        let reference = m.grad_tensors();
        assert_eq!(reference.len(), 4);

        // A replica doing the same work hands its buffers back losslessly.
        let mut replica = m.clone();
        replica.zero_grads();
        let logits = replica.forward(&x, Mode::Train);
        let out = CrossEntropyLoss::new().compute(&logits, &labels);
        replica.backward(&out.grad);
        let shard = replica.grad_tensors();
        assert_eq!(shard, reference);

        // Accumulating onto zeroed gradients reproduces the buffer; a second
        // accumulation doubles it (gradients accumulate, Alg. 1 style).
        m.zero_grads();
        m.accumulate_grads(&shard);
        assert_eq!(m.grad_tensors(), reference);
        m.accumulate_grads(&shard);
        let doubled = m.grad_tensors();
        for (d, r) in doubled.iter().zip(&reference) {
            for (dv, rv) in d.data().iter().zip(r.data()) {
                assert_eq!(*dv, rv + rv);
            }
        }
    }

    #[test]
    #[should_panic(expected = "fewer gradient tensors")]
    fn accumulate_grads_rejects_short_input() {
        let mut m = toy_model(21);
        m.accumulate_grads(&[Tensor::zeros(&[8, 4])]);
    }

    #[test]
    fn visit_params_ref_matches_mutable_order() {
        let mut m = toy_model(12);
        let mut mutable = Vec::new();
        m.visit_params(&mut |p| mutable.push((p.name().to_string(), p.value().clone())));
        let mut immutable = Vec::new();
        m.visit_params_ref(&mut |p| immutable.push((p.name().to_string(), p.value().clone())));
        assert_eq!(mutable, immutable);
        assert_eq!(m.param_tensors().len(), mutable.len());
    }

    #[test]
    fn visit_layers_walks_the_tree() {
        let m = toy_model(13);
        let mut types = Vec::new();
        m.visit_layers(&mut |l| types.push(l.layer_type()));
        assert_eq!(types, vec!["Sequential", "Linear", "Relu", "Linear"]);
    }

    #[test]
    fn summary_mentions_layers_and_params() {
        let m = toy_model(7);
        let s = m.summary();
        assert!(s.contains("Linear"));
        assert!(s.contains("Relu"));
        assert!(s.contains(&format!("{}", 4 * 8 + 8 + 8 * 3 + 3)));
    }

    /// One model holding every layer kind of the crate.
    fn every_layer_model(seed: u64) -> Model {
        use crate::{BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, GroupNorm, MaxPool2d, Residual};

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut body = Sequential::new();
        body.push(Conv2d::new(2, 2, 3, 1, 1, &mut rng));
        body.push(GroupNorm::new(2, 1));
        let mut net = Sequential::new();
        net.push(Conv2d::new(2, 2, 3, 1, 1, &mut rng));
        net.push(BatchNorm2d::new(2));
        net.push(Relu::new());
        net.push(Residual::with_shortcut(body, Conv2d::new(2, 2, 1, 1, 0, &mut rng)));
        net.push(MaxPool2d::new(2, 2));
        net.push(GlobalAvgPool::new());
        net.push(Flatten::new());
        net.push(Linear::new(2, 3, &mut rng));
        Model::new("all-layers", net)
    }

    /// Guards the `visit_params` / `visit_params_ref` pairing contract over
    /// every parameter-bearing layer and container in the crate: a layer
    /// that overrides only the mutable visitor would silently vanish from
    /// quantization and serialization (which use the ref path).
    #[test]
    fn every_param_layer_agrees_between_ref_and_mut_visitors() {
        let mut m = every_layer_model(14);

        let mut mutable = Vec::new();
        m.visit_params(&mut |p| mutable.push((p.name().to_string(), p.value().clone())));
        let mut immutable = Vec::new();
        m.visit_params_ref(&mut |p| immutable.push((p.name().to_string(), p.value().clone())));
        assert!(!mutable.is_empty());
        assert_eq!(mutable, immutable, "ref visitor must mirror the mutable visitor exactly");

        // The tree walk must descend into the residual body and shortcut.
        let mut types = Vec::new();
        m.visit_layers(&mut |l| types.push(l.layer_type()));
        assert_eq!(types.iter().filter(|t| **t == "Conv2d").count(), 3);
        assert_eq!(types.iter().filter(|t| **t == "Sequential").count(), 2);
    }

    /// A clone copies the activation caches: taken between a training pass
    /// and `backward`, it backprops to the same input and parameter
    /// gradients as the original, through every layer kind.
    #[test]
    fn clone_after_training_pass_backprops_like_the_original() {
        let mut m = every_layer_model(15);
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let x = Tensor::randn(&[3, 2, 8, 8], 1.0, &mut rng);
        let y = m.forward(&x, Mode::Train);
        let mut copy = m.clone();
        let dy = Tensor::randn(y.shape(), 1.0, &mut rng);

        let dx = m.backward(&dy);
        let dx_copy = copy.backward(&dy);
        assert_eq!(dx, dx_copy, "input gradients differ");
        let grads = m.grad_tensors();
        assert!(grads.iter().any(|g| g.abs_max() > 0.0), "backward accumulated nothing");
        assert_eq!(grads, copy.grad_tensors(), "parameter gradients differ");
    }
}
