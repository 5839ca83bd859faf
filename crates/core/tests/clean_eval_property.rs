//! Property test: the batch-parallel clean-eval path is the campaign
//! engine with a single **no-op** pattern.
//!
//! Setup: quantize the model and write the dequantized weights back, so
//! the quantized image reproduces the model's weights exactly (a true
//! no-op pattern). Then, for arbitrary dataset sizes — smaller than one
//! batch of `EVAL_BATCH`, exactly one batch, and several batches with a
//! partial last one — `evaluate` must equal
//! `Campaign::new(model, dataset).run(&[no-op pattern])` and the serial
//! reference, byte-for-byte.

use std::sync::OnceLock;

use bitrobust_core::{
    build, evaluate, evaluate_serial, ArchKind, Campaign, NormKind, QuantizedModel,
};
use bitrobust_data::{Dataset, SynthDataset};
use bitrobust_nn::Model;
use bitrobust_quant::QuantScheme;
use proptest::prelude::*;
use rand::SeedableRng;

/// A model already on the quantization lattice, the matching no-op image,
/// and the test set whose prefixes the cases evaluate. Built once: every
/// proptest case reuses the shared state.
fn setup() -> &'static (Model, QuantizedModel, Dataset) {
    static SETUP: OnceLock<(Model, QuantizedModel, Dataset)> = OnceLock::new();
    SETUP.get_or_init(|| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut model = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
        let (_, test) = SynthDataset::Mnist.generate(0);

        // Put the model itself on the lattice so the quantized image is an
        // exact no-op: a campaign replica built from it carries weights
        // bit-identical to the model's.
        let q = QuantizedModel::quantize(&model, QuantScheme::rquant(8));
        q.write_to(&mut model);
        let noop = QuantizedModel::quantize(&model, QuantScheme::rquant(8));
        (model, noop, test)
    })
}

proptest! {
    #[test]
    fn clean_eval_equals_single_noop_pattern_campaign(n in 1usize..300) {
        let (model, noop, test) = setup();
        let (x, y) = test.batch_range(0, n);
        let dataset = &Dataset::new("test-prefix", x, y, test.n_classes());

        let clean = evaluate(model, dataset);
        let serial = evaluate_serial(model, dataset);
        prop_assert_eq!(clean, serial, "parallel clean eval must match serial");

        let campaign = Campaign::new(model, dataset).run(std::slice::from_ref(noop));
        prop_assert_eq!(campaign.len(), 1);
        prop_assert_eq!(
            clean,
            campaign[0],
            "clean eval must equal a single no-op-pattern campaign ({} examples)",
            n
        );
    }
}
