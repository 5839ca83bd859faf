//! Experiment-side glue for the durable sweep orchestrator
//! ([`bitrobust_core::sweep`]): store locations under `target/sweeps/`,
//! zoo-spec → [`SweepModel`] wiring, and shared progress output.
//!
//! Binaries that run multi-model campaigns (`tab4_randbet`,
//! `tab5_profiled`, `fig7_summary`) open their store with
//! [`open_sweep_store`] — honoring `--fresh`/`--resume` — and hand it to
//! [`bitrobust_core::run_sweep`]; a killed run continues where it left
//! off on the next invocation, byte-identically.

use std::path::PathBuf;

use bitrobust_core::store::fnv1a64;
use bitrobust_core::{EvalResult, SweepCell, SweepModel, SweepStore, TrainReport};
use bitrobust_nn::Model;

use crate::cli::ExpOptions;
use crate::zoo::ZooSpec;

/// Directory holding the experiment binaries' sweep stores
/// (`$BITROBUST_SWEEPS`, or `target/sweeps/` in the workspace).
pub fn sweep_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BITROBUST_SWEEPS") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/sweeps")
}

/// Opens the named sweep store (`<sweep_dir>/<name>.jsonl`), deleting it
/// first under `--fresh`. Reports the resume position on stderr so a
/// rerun after an interruption is visible.
///
/// # Panics
///
/// Panics if the store cannot be opened or parsed — a corrupt store must
/// be inspected or deleted, never silently recomputed over.
pub fn open_sweep_store(name: &str, opts: &ExpOptions) -> SweepStore {
    let path = sweep_dir().join(format!("{name}.jsonl"));
    if opts.fresh && path.exists() {
        std::fs::remove_file(&path).expect("remove sweep store for --fresh");
    }
    let store = SweepStore::open(&path).expect("open sweep store");
    if !store.is_empty() {
        eprintln!(
            "sweep store {}: resuming past {} stored cells (use --fresh to recompute)",
            store.path().display(),
            store.len()
        );
    }
    store
}

/// Pairs warmed zoo models with their specs as sweep entries. The model
/// identity is the spec's cache key plus a fingerprint of the weights
/// (FNV-1a over every parameter's bits), so a store never replays cells
/// of other weights cached under the same key, such as a model retrained
/// by a changed trainer. The spec's training scheme is the evaluation
/// scheme.
///
/// # Panics
///
/// Panics if a spec trains in float (`scheme: None`) — the evaluation
/// scheme would be ambiguous — or if `specs` and `warmed` differ in
/// length.
pub fn sweep_models<'a>(
    specs: &[ZooSpec],
    warmed: &'a [(Model, TrainReport)],
) -> Vec<SweepModel<'a>> {
    assert_eq!(specs.len(), warmed.len(), "one warmed model per spec");
    specs
        .iter()
        .zip(warmed)
        .map(|(spec, (model, _))| {
            let scheme = spec
                .scheme
                .expect("sweep entries need a quantization scheme (float specs are ambiguous)");
            SweepModel::new(
                format!("{}@{:016x}", spec.key(), weights_fingerprint(model)),
                scheme,
                model,
            )
        })
        .collect()
}

/// FNV-1a over the bits of every parameter, in visit order.
fn weights_fingerprint(model: &Model) -> u64 {
    let mut bytes = Vec::with_capacity(4 * model.num_params());
    model.visit_params_ref(&mut |p| {
        bytes.extend(p.value().data().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    });
    fnv1a64(&bytes)
}

/// The shared progress style for orchestrated sweeps: one dot per cell
/// (`.` evaluated, `,` replayed from the store), a newline after the last
/// cell.
pub fn sweep_progress(total_cells: usize) -> impl FnMut(&SweepCell, &EvalResult) {
    use std::io::Write;
    let mut done = 0usize;
    move |cell, _result| {
        done += 1;
        let mut err = std::io::stderr();
        let _ = write!(err, "{}", if cell.resumed { ',' } else { '.' });
        if done == total_cells {
            let _ = writeln!(err);
        }
        let _ = err.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::DatasetKind;
    use bitrobust_core::{run_sweep, ArchKind, ChipAxis, SweepAxis, SweepOptions, TrainMethod};
    use bitrobust_quant::QuantScheme;

    /// A store must not replay the cells of other weights cached under the
    /// same spec, e.g. after a trainer change retrained the zoo.
    #[test]
    fn other_weights_under_the_same_spec_never_resume() {
        let mut spec =
            ZooSpec::new(DatasetKind::Mnist, Some(QuantScheme::rquant(8)), TrainMethod::Normal);
        spec.arch = ArchKind::Mlp;
        let report = TrainReport {
            final_loss: 0.0,
            clean_error: 0.0,
            clean_confidence: 0.0,
            bit_errors_started_at: None,
            epoch_losses: Vec::new(),
        };
        let stored = spec.initial_model();
        let mut retrained = stored.clone();
        retrained.visit_params(&mut |p| p.value_mut().data_mut()[0] += 1.0);

        let (_, test) = crate::zoo::dataset_pair(spec.dataset, spec.seed);
        let axes = [SweepAxis::new("uniform", ChipAxis::uniform(vec![0.01], 2, 1000))];
        let path = std::env::temp_dir()
            .join(format!("bitrobust-sweeps-{}-same-spec.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let run = |model: &Model| {
            let warmed = [(model.clone(), report.clone())];
            let models = sweep_models(std::slice::from_ref(&spec), &warmed);
            let mut store = SweepStore::open(&path).expect("open store");
            let options = SweepOptions::default();
            run_sweep(&models, &axes, &test, &options, Some(&mut store), |_, _| {})
        };
        assert_eq!(run(&stored).evaluated, 2);
        assert_eq!(run(&stored).resumed, 2, "the same weights resume");
        assert_eq!(run(&retrained).resumed, 0, "other weights must recompute");
        std::fs::remove_file(&path).expect("remove store");
    }
}
