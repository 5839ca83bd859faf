//! Whole-model quantization with a linear weight-to-memory mapping.

use bitrobust_biterror::ErrorInjector;
use bitrobust_nn::Model;
use bitrobust_quant::{Granularity, QuantRange, QuantScheme, QuantizedTensor};
use bitrobust_tensor::Tensor;

/// The quantized image of a model's parameters: one [`QuantizedTensor`] per
/// parameter tensor plus each tensor's word offset in the network's global,
/// linearized weight vector.
///
/// The offsets realize the paper's linear weight-to-memory mapping (Sec. 3):
/// injecting errors tensor-by-tensor with the running offset is equivalent
/// to injecting into one contiguous memory image.
///
/// # Examples
///
/// ```
/// use bitrobust_biterror::UniformChip;
/// use bitrobust_core::QuantizedModel;
/// use bitrobust_nn::{Linear, Mode, Model, Sequential};
/// use bitrobust_quant::QuantScheme;
/// use bitrobust_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Linear::new(8, 4, &mut rng));
/// let model = Model::new("demo", net);
///
/// // Quantizing needs only `&Model`, so snapshots can be taken from a
/// // template that is concurrently serving evaluation workers.
/// let mut q = QuantizedModel::quantize(&model, QuantScheme::rquant(8));
/// q.inject(&UniformChip::new(1).at_rate(0.01));
///
/// // Evaluate the perturbed image against a dedicated replica — the
/// // template itself is never mutated (this is how campaigns run).
/// let mut replica = model.clone();
/// q.write_to(&mut replica);
/// let x = Tensor::zeros(&[1, 8]);
/// let y = replica.infer(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[1, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    scheme: QuantScheme,
    tensors: Vec<QuantizedTensor>,
    offsets: Vec<usize>,
    shapes: Vec<Vec<usize>>,
    total_weights: usize,
}

impl QuantizedModel {
    /// Quantizes all parameters of `model` under `scheme`. Needs only
    /// shared access, so snapshots can be taken from models that are
    /// concurrently serving evaluation workers.
    ///
    /// For [`Granularity::Global`] schemes a single range spanning every
    /// parameter is computed first; per-tensor schemes adapt each tensor's
    /// range individually ("the quantization range always adapts to the
    /// weight range at hand", Sec. 4.2).
    pub fn quantize(model: &Model, scheme: QuantScheme) -> Self {
        let params = model.param_tensors();
        let global_range: Option<QuantRange> = match scheme.granularity {
            Granularity::Global => {
                let mut merged: Option<QuantRange> = None;
                for t in &params {
                    let r = scheme.range_for(t.data());
                    merged = Some(match merged {
                        Some(m) => m.merge(&r),
                        None => r,
                    });
                }
                merged
            }
            Granularity::PerTensor => None,
        };

        let mut tensors = Vec::with_capacity(params.len());
        let mut offsets = Vec::with_capacity(params.len());
        let mut shapes = Vec::with_capacity(params.len());
        let mut offset = 0usize;
        for t in &params {
            let q = match global_range {
                Some(r) => scheme.quantize_with_range(t.data(), r),
                None => scheme.quantize(t.data()),
            };
            offsets.push(offset);
            offset += q.len();
            shapes.push(t.shape().to_vec());
            tensors.push(q);
        }
        Self { scheme, tensors, offsets, shapes, total_weights: offset }
    }

    /// The scheme used.
    pub fn scheme(&self) -> &QuantScheme {
        &self.scheme
    }

    /// Total number of quantized weights `W`.
    pub fn total_weights(&self) -> usize {
        self.total_weights
    }

    /// The per-tensor quantized buffers.
    pub fn tensors(&self) -> &[QuantizedTensor] {
        &self.tensors
    }

    /// Mutable access to the per-tensor buffers (for error correction and
    /// targeted manipulation).
    pub fn tensors_mut(&mut self) -> &mut [QuantizedTensor] {
        &mut self.tensors
    }

    /// Injects bit errors into a single parameter tensor only (used for the
    /// per-layer vulnerability analysis). The injector still sees the
    /// tensor's global offset, so patterns stay consistent with whole-model
    /// injection.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn inject_tensor(&mut self, index: usize, injector: &impl ErrorInjector) {
        let bits = self.scheme.bits();
        let offset = self.offsets[index];
        injector.inject(self.tensors[index].words_mut(), bits, offset);
    }

    /// Injects bit errors across the whole linearized weight image.
    pub fn inject(&mut self, injector: &impl ErrorInjector) {
        let bits = self.scheme.bits();
        for (q, &offset) in self.tensors.iter_mut().zip(&self.offsets) {
            injector.inject(q.words_mut(), bits, offset);
        }
    }

    /// Dequantizes into the model's parameters (the `w_q = Q⁻¹(v)` of
    /// Alg. 1).
    ///
    /// # Panics
    ///
    /// Panics if `model`'s parameter shapes differ from the quantization
    /// snapshot.
    pub fn write_to(&self, model: &mut Model) {
        let mut index = 0;
        model.visit_params(&mut |p| {
            assert!(index < self.tensors.len(), "model has more parameters than snapshot");
            assert_eq!(
                p.value().shape(),
                &self.shapes[index][..],
                "parameter {index} shape mismatch"
            );
            self.tensors[index].dequantize_into(p.value_mut().data_mut());
            index += 1;
        });
        assert_eq!(index, self.tensors.len(), "model has fewer parameters than snapshot");
    }

    /// Dequantizes all tensors into fresh buffers (for analysis).
    pub fn dequantize_tensors(&self) -> Vec<Tensor> {
        self.tensors
            .iter()
            .zip(&self.shapes)
            .map(|(q, shape)| Tensor::from_vec(shape.clone(), q.dequantize()))
            .collect()
    }

    /// Total number of differing live bits vs another snapshot (diagnostic).
    ///
    /// # Panics
    ///
    /// Panics if the snapshots have different structure.
    pub fn hamming_distance(&self, other: &QuantizedModel) -> usize {
        assert_eq!(self.tensors.len(), other.tensors.len(), "snapshot structure mismatch");
        self.tensors.iter().zip(&other.tensors).map(|(a, b)| a.hamming_distance(b)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitrobust_biterror::UniformChip;
    use bitrobust_nn::{Linear, Mode, Relu, Sequential};
    use rand::SeedableRng;

    fn toy_model(seed: u64) -> Model {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Linear::new(6, 12, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(12, 4, &mut rng));
        Model::new("toy", net)
    }

    #[test]
    fn quantize_write_round_trip_is_close() {
        let mut model = toy_model(1);
        let before = model.param_tensors();
        let q = QuantizedModel::quantize(&model, QuantScheme::rquant(8));
        assert_eq!(q.total_weights(), 6 * 12 + 12 + 12 * 4 + 4);
        q.write_to(&mut model);
        let after = model.param_tensors();
        for (b, a) in before.iter().zip(&after) {
            let span = b.max() - b.min();
            for (x, y) in b.data().iter().zip(a.data()) {
                assert!((x - y).abs() <= span / 254.0 + 1e-6, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn global_scheme_shares_one_range() {
        let model = toy_model(2);
        let q = QuantizedModel::quantize(&model, QuantScheme::eq1_global(8));
        let first = q.tensors()[0].range();
        for t in q.tensors() {
            assert_eq!(t.range(), first, "global granularity must share the range");
        }
    }

    #[test]
    fn per_tensor_scheme_adapts_ranges() {
        let mut model = toy_model(3);
        // Scale one parameter up so ranges must differ.
        model.visit_params(&mut |p| {
            if p.value().shape() == [4] {
                p.value_mut().map_inplace(|v| v + 3.0);
            }
        });
        let q = QuantizedModel::quantize(&model, QuantScheme::rquant(8));
        let ranges: Vec<_> = q.tensors().iter().map(|t| t.range()).collect();
        assert!(ranges.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn inject_changes_outputs_consistently_with_offsets() {
        let model = toy_model(4);
        let q0 = QuantizedModel::quantize(&model, QuantScheme::rquant(8));
        let mut q1 = q0.clone();
        let mut q2 = q0.clone();
        let chip = UniformChip::new(9);
        q1.inject(&chip.at_rate(0.05));
        q2.inject(&chip.at_rate(0.05));
        // Same chip, same rate -> identical pattern.
        assert_eq!(q1.hamming_distance(&q2), 0);
        // Subset property at the model level.
        let mut q3 = q0.clone();
        q3.inject(&chip.at_rate(0.01));
        let flips_small = q0.hamming_distance(&q3);
        let flips_large = q0.hamming_distance(&q1);
        assert!(flips_small < flips_large);
    }

    #[test]
    fn perturbed_model_changes_predictions_gracefully() {
        let mut model = toy_model(5);
        let x = bitrobust_tensor::Tensor::rand_uniform(
            &[4, 6],
            -1.0,
            1.0,
            &mut rand::rngs::StdRng::seed_from_u64(0),
        );
        let clean_out = model.forward(&x, Mode::Eval);
        let mut q = QuantizedModel::quantize(&model, QuantScheme::rquant(8));
        q.inject(&UniformChip::new(1).at_rate(0.1));
        q.write_to(&mut model);
        let dirty_out = model.forward(&x, Mode::Eval);
        assert_eq!(clean_out.shape(), dirty_out.shape());
        assert!(dirty_out.data().iter().all(|v| v.is_finite()));
        assert_ne!(clean_out, dirty_out);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn write_to_rejects_mismatched_model() {
        let model = toy_model(6);
        let q = QuantizedModel::quantize(&model, QuantScheme::rquant(8));
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut other_net = Sequential::new();
        other_net.push(Linear::new(5, 12, &mut rng));
        other_net.push(Linear::new(12, 4, &mut rng));
        let mut other = Model::new("other", other_net);
        q.write_to(&mut other);
    }
}
