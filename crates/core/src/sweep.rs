//! The durable sweep orchestrator: multi-model × multi-axis campaigns
//! with checkpointed, resumable on-disk results.
//!
//! The paper's headline experiments (Tab. 4/5, Fig. 7) are *sweeps*: many
//! trained models crossed with many injection axes — uniform bit error
//! rates **and** profiled-chip voltage/offset grids. The [`campaign`
//! engine](crate::campaign) already runs one model's axis as a single
//! parallel fan-out; this module is the layer above it, turning a whole
//! sweep into **one** fan-out and making it durable.
//!
//! # Plan → store → resume
//!
//! ```text
//!   SweepPlan                          run_sweep
//!   models: [SweepModel]  ─┐   ┌──────────────────────────────┐
//!     key  ("zoo key")     │   │ flatten: (model, axis, point) │
//!     scheme               ├──▶│ skip cells already in store   │──▶ SweepResults
//!     &Model               │   │ fan out the rest as ONE       │     per (model, axis):
//!   axes: [SweepAxis]      │   │ (model, pattern, batch)       │     RobustEval per rate
//!     name                 │   │ campaign over the pool        │
//!     ChipAxis            ─┘   └──────────┬───────────────────┘
//!                                         │ each completed cell
//!                                         ▼ (appended + flushed)
//!                              SweepStore (JSONL on disk)
//!                              key = content hash of
//!                              model key × scheme × axis × point
//!                              × dataset × batch × mode
//! ```
//!
//! Interrupt the process at any point — `SIGKILL` included — and rerun:
//! [`run_sweep`] reloads the store, replays the stored cells (exact `f32`
//! bits), evaluates only the missing ones, and the final results *and* the
//! final store fingerprint are **byte-identical** to an uninterrupted
//! single-shot run, at any thread count.
//!
//! # Determinism
//!
//! Every cell is an independent campaign unit: its replica, batch
//! partials, and serial reduction depend only on the cell's own identity,
//! never on which other cells share the fan-out (see
//! [`crate::Campaign::run_cells`]). That is the invariant that makes
//! skip-and-resume sound, and it is pinned by the determinism suite's
//! thread matrix and the kill-and-resume integration tests.
//!
//! # Examples
//!
//! ```no_run
//! use bitrobust_core::{
//!     build, run_sweep, ArchKind, ChipAxis, NormKind, SweepAxis, SweepModel, SweepOptions,
//! };
//! use bitrobust_data::SynthDataset;
//! use bitrobust_quant::QuantScheme;
//! use rand::SeedableRng;
//!
//! let (_, test_ds) = SynthDataset::Mnist.generate(0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let a = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
//! let b = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
//!
//! let models = vec![
//!     SweepModel::new("mlp-a", QuantScheme::rquant(8), &a),
//!     SweepModel::new("mlp-b", QuantScheme::rquant(8), &b),
//! ];
//! let axes =
//!     vec![SweepAxis::new("uniform", ChipAxis::uniform(vec![1e-3, 1e-2], 50, 1000))];
//! let mut store = bitrobust_core::SweepStore::open("target/sweeps/demo.jsonl").unwrap();
//! let results = run_sweep(
//!     &models,
//!     &axes,
//!     &test_ds,
//!     &SweepOptions::default(),
//!     Some(&mut store),
//!     |_, _| {},
//! );
//! println!("model a, p=1%: RErr {:.2}%", 100.0 * results.robust(0, 0)[1].mean_error);
//! ```

use bitrobust_data::Dataset;
use bitrobust_nn::{Mode, Model};
use bitrobust_quant::QuantScheme;

use crate::campaign::{Campaign, ChipAxis};
use crate::eval::{EvalResult, RobustEval, EVAL_BATCH};
use crate::store::{fnv1a64, CellRecord, SweepStore};
use crate::QuantizedModel;

/// One model entering a sweep: a stable identity key (anything that
/// uniquely names the trained weights; the experiments use a zoo cache key
/// plus a fingerprint of the weights), the quantization scheme it is
/// evaluated under, and the model itself.
#[derive(Debug, Clone)]
pub struct SweepModel<'a> {
    /// Identity of the trained weights (part of every cell's content
    /// hash, so two different models must never share a key).
    pub key: String,
    /// Evaluation quantization scheme.
    pub scheme: QuantScheme,
    /// The model (read-only; evaluation writes patterns into scratch
    /// replicas).
    pub model: &'a Model,
}

impl<'a> SweepModel<'a> {
    /// Convenience constructor.
    pub fn new(key: impl Into<String>, scheme: QuantScheme, model: &'a Model) -> Self {
        Self { key: key.into(), scheme, model }
    }
}

/// One injection axis of a sweep: a display name plus the [`ChipAxis`]
/// description. The *name* is presentation only; the axis [`ChipAxis::key`]
/// is what enters cell hashes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Human-readable label (table/progress output).
    pub name: String,
    /// The axis description.
    pub axis: ChipAxis,
}

impl SweepAxis {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, axis: ChipAxis) -> Self {
        Self { name: name.into(), axis }
    }
}

/// The evaluation protocol shared by every cell of a sweep. Cells always
/// evaluate in batches of [`EVAL_BATCH`]; only the inference mode varies
/// (Tab. 10 evaluates BatchNorm models with batch statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Inference mode ([`Mode::Train`] is rejected).
    pub mode: Mode,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self { mode: Mode::Eval }
    }
}

/// Identifies one sweep cell as it completes (or is replayed from the
/// store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// Model index into the sweep's model list.
    pub model: usize,
    /// Axis index into the sweep's axis list.
    pub axis: usize,
    /// Group (= rate) index within the axis.
    pub group: usize,
    /// Point index within the group (chip / mapping offset).
    pub point: usize,
    /// The cell's content-hash key (the sweep-store key).
    pub id: u64,
    /// Whether the result was replayed from the store instead of
    /// evaluated.
    pub resumed: bool,
}

/// The assembled results of a sweep, indexable by `(model, axis)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults {
    /// `(n_groups, group_size)` per axis.
    axis_dims: Vec<(usize, usize)>,
    /// Start of each axis's block within one model's cell span.
    axis_offsets: Vec<usize>,
    /// Cells per model (= sum of axis spans).
    model_stride: usize,
    /// All cells, model-major, then axis, then point.
    cells: Vec<EvalResult>,
    /// Number of cells actually evaluated by this run.
    pub evaluated: usize,
    /// Number of cells replayed from the store.
    pub resumed: usize,
}

impl SweepResults {
    /// Number of models.
    pub fn n_models(&self) -> usize {
        self.cells.len().checked_div(self.model_stride).unwrap_or(0)
    }

    /// All cells, model-major, then axis, then group, then point.
    pub fn cells(&self) -> &[EvalResult] {
        &self.cells
    }

    /// One cell by `(model, axis, point-within-axis)` indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn cell(&self, model: usize, axis: usize, point: usize) -> EvalResult {
        let (groups, group_size) = self.axis_dims[axis];
        assert!(point < groups * group_size, "axis point {point} out of range");
        self.cells[model * self.model_stride + self.axis_offsets[axis] + point]
    }

    /// The `(model, axis)` block aggregated per group: one [`RobustEval`]
    /// per rate, exactly as a sweep of that model and axis alone would
    /// return.
    ///
    /// # Panics
    ///
    /// Panics if `model` or `axis` is out of range.
    pub fn robust(&self, model: usize, axis: usize) -> Vec<RobustEval> {
        let (groups, group_size) = self.axis_dims[axis];
        let start = model * self.model_stride + self.axis_offsets[axis];
        let block = &self.cells[start..start + groups * group_size];
        block.chunks(group_size).map(RobustEval::from_results).collect()
    }
}

/// The evaluation dataset's identity string: name, size, and a content
/// fingerprint over every image byte and label. The fingerprint is what
/// keeps two *generations* of a same-named synthetic dataset (different
/// data seeds) from aliasing in the store — computed once per sweep, not
/// per cell.
fn dataset_identity(dataset: &Dataset) -> String {
    let mut bytes = Vec::with_capacity(dataset.images().data().len() * 4);
    for v in dataset.images().data() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for &label in dataset.labels() {
        bytes.extend_from_slice(&(label as u64).to_le_bytes());
    }
    format!("{}:{}:{:016x}", dataset.name(), dataset.len(), fnv1a64(&bytes))
}

/// The content-hash key of one sweep cell: every input that shapes the
/// cell's bytes enters the hash — the model identity, evaluation scheme,
/// axis identity (which covers its seeds and exact rates), the point
/// index, and the evaluation dataset (content-fingerprinted) / batch
/// protocol. Cells from unrelated sweeps can therefore share one store
/// file without ever aliasing. The batch size is always [`EVAL_BATCH`],
/// but it stays in the hashed identity, so stores written by earlier
/// versions keep their keys.
fn cell_id(
    model_key: &str,
    scheme_key: &str,
    axis_key: &str,
    point: usize,
    data_identity: &str,
    opts: &SweepOptions,
) -> u64 {
    let identity = format!(
        "model={model_key}|scheme={scheme_key}|axis={axis_key}|point={point}|data={data_identity}|batch={EVAL_BATCH}|mode={:?}",
        opts.mode,
    );
    fnv1a64(identity.as_bytes())
}

/// Runs `models × axes` as **one** durable campaign.
///
/// The whole plan flattens into a single `(model, pattern, batch)` fan-out
/// over the thread pool — all models' missing cells keep every core busy
/// together, instead of one bursty campaign per model. Per-cell results
/// are byte-identical to running each model's axis alone (serial reference
/// included); see the [module docs](self) for the resume contract.
///
/// If `store` is given, every already-stored cell is *skipped* (its stored
/// bits are replayed into the results) and every newly evaluated cell is
/// appended and flushed as soon as its wave completes. `on_cell` fires for
/// every cell — replayed ones first, in canonical (model, axis, point)
/// order, then evaluated ones as they land.
///
/// # Panics
///
/// Panics if `models` or `axes` is empty, an axis is empty in any
/// dimension, two models share a key, or the store rejects an append
/// (collision or I/O error — a sweep must never silently lose cells); plus
/// the usual campaign conditions (empty dataset, training mode).
pub fn run_sweep(
    models: &[SweepModel<'_>],
    axes: &[SweepAxis],
    dataset: &Dataset,
    opts: &SweepOptions,
    mut store: Option<&mut SweepStore>,
    mut on_cell: impl FnMut(&SweepCell, &EvalResult),
) -> SweepResults {
    bitrobust_obs::span!("sweep.run");
    assert!(!models.is_empty(), "sweep needs at least one model");
    assert!(!axes.is_empty(), "sweep needs at least one axis");
    for axis in axes {
        assert!(axis.axis.n_groups() > 0, "axis {:?} needs at least one rate", axis.name);
        assert!(axis.axis.group_size() > 0, "axis {:?} needs at least one point", axis.name);
    }
    for (i, a) in models.iter().enumerate() {
        for b in &models[i + 1..] {
            assert!(a.key != b.key, "sweep models must have distinct keys ({:?})", a.key);
        }
    }

    // Resolve the axes (profiled-chip synthesis, rate→voltage) and each
    // model's clean quantized image once; cells reuse both.
    let prepared: Vec<_> = axes.iter().map(|a| a.axis.prepare()).collect();
    let axis_keys: Vec<String> = axes.iter().map(|a| a.axis.key()).collect();
    let q0s: Vec<QuantizedModel> =
        models.iter().map(|m| QuantizedModel::quantize(m.model, m.scheme)).collect();
    let scheme_keys: Vec<String> = models.iter().map(|m| m.scheme.key()).collect();

    let axis_dims: Vec<(usize, usize)> =
        axes.iter().map(|a| (a.axis.n_groups(), a.axis.group_size())).collect();
    let mut axis_offsets = Vec::with_capacity(axes.len());
    let mut model_stride = 0usize;
    for &(groups, group_size) in &axis_dims {
        axis_offsets.push(model_stride);
        model_stride += groups * group_size;
    }

    // Canonical cell enumeration: model-major, then axis, then point.
    let data_identity = dataset_identity(dataset);
    struct Cell {
        model: usize,
        axis: usize,
        point: usize,
        id: u64,
    }
    let mut cells = Vec::with_capacity(models.len() * model_stride);
    for (mi, model) in models.iter().enumerate() {
        for (ai, axis) in axes.iter().enumerate() {
            for point in 0..axis.axis.n_points() {
                let id = cell_id(
                    &model.key,
                    &scheme_keys[mi],
                    &axis_keys[ai],
                    point,
                    &data_identity,
                    opts,
                );
                cells.push(Cell { model: mi, axis: ai, point, id });
            }
        }
    }

    let sweep_cell = |cell: &Cell, resumed: bool| {
        let (_, group_size) = axis_dims[cell.axis];
        SweepCell {
            model: cell.model,
            axis: cell.axis,
            group: cell.point / group_size,
            point: cell.point % group_size,
            id: cell.id,
            resumed,
        }
    };

    // Replay stored cells, then fan out only the missing ones.
    let mut results: Vec<Option<EvalResult>> = vec![None; cells.len()];
    let mut missing = Vec::new();
    for (index, cell) in cells.iter().enumerate() {
        match store.as_ref().and_then(|s| s.get(cell.id)) {
            Some(result) => {
                on_cell(&sweep_cell(cell, true), &result);
                results[index] = Some(result);
            }
            None => missing.push(index),
        }
    }
    let resumed = cells.len() - missing.len();

    // Resume accounting: planned == skipped + run reconciles in
    // OBS_report.json (write-only, never read back).
    bitrobust_obs::counter_add("sweep.cells_planned", cells.len() as u64);
    bitrobust_obs::counter_add("sweep.cells_skipped", resumed as u64);

    let templates: Vec<&Model> = models.iter().map(|m| m.model).collect();
    if !missing.is_empty() {
        // Split the captures: the cell builder borrows the plan immutably,
        // the completion callback owns the mutable store/results halves.
        let build = |k: usize| {
            bitrobust_obs::span!("sweep.build_image");
            let cell = &cells[missing[k]];
            (cell.model, prepared[cell.axis].make_image(&q0s[cell.model], cell.point))
        };
        Campaign::multi(&templates, dataset)
            .mode(opts.mode)
            .on_cell(|k, result| {
                bitrobust_obs::counter_add("sweep.cells_run", 1);
                let index = missing[k];
                let cell = &cells[index];
                if let Some(store) = store.as_deref_mut() {
                    store
                        .append(&CellRecord {
                            key: cell.id,
                            model: &models[cell.model].key,
                            scheme: &scheme_keys[cell.model],
                            axis: &axis_keys[cell.axis],
                            point: cell.point,
                            result: *result,
                        })
                        .expect("sweep store append failed");
                }
                results[index] = Some(*result);
                on_cell(&sweep_cell(cell, false), result);
            })
            .run_cells(missing.len(), build);
    }

    let cells: Vec<EvalResult> =
        results.into_iter().map(|r| r.expect("sweep cell left unevaluated")).collect();
    SweepResults { axis_dims, axis_offsets, model_stride, cells, evaluated: missing.len(), resumed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{build, ArchKind, NormKind};
    use crate::robust_eval;
    use bitrobust_data::SynthDataset;
    use rand::SeedableRng;

    fn two_models() -> (Model, Model, Dataset) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let a = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
        let b = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
        let (_, test) = SynthDataset::Mnist.generate(0);
        (a, b, test)
    }

    fn sweep(models: &[SweepModel<'_>], axes: &[SweepAxis], test: &Dataset) -> SweepResults {
        run_sweep(models, axes, test, &SweepOptions::default(), None, |_, _| {})
    }

    #[test]
    fn sweep_matches_per_model_axis_runs() {
        let (a, b, test) = two_models();
        let scheme = QuantScheme::rquant(8);
        let axes = [SweepAxis::new("uniform", ChipAxis::uniform(vec![0.001, 0.01], 3, 1000))];
        let models = vec![SweepModel::new("a", scheme, &a), SweepModel::new("b", scheme, &b)];
        let results = sweep(&models, &axes, &test);
        assert_eq!(results.evaluated, 12);
        assert_eq!(results.resumed, 0);

        for (mi, model) in models.iter().enumerate() {
            let alone = sweep(std::slice::from_ref(model), &axes, &test);
            assert_eq!(results.robust(mi, 0), alone.robust(0, 0), "model {mi}");
        }
    }

    /// One model under two schemes is two sweep models: each scheme's
    /// cells group by rate and match the standalone uniform evaluation.
    #[test]
    fn sweep_groups_cells_by_scheme_and_rate() {
        let (model, _, test) = two_models();
        let models = vec![
            SweepModel::new("q8", QuantScheme::rquant(8), &model),
            SweepModel::new("q4", QuantScheme::rquant(4), &model),
        ];
        let axes = [SweepAxis::new("uniform", ChipAxis::uniform(vec![0.001, 0.01], 3, 1000))];
        let results = sweep(&models, &axes, &test);
        assert_eq!(results.n_models(), 2);
        let out: Vec<Vec<RobustEval>> = (0..2).map(|m| results.robust(m, 0)).collect();
        assert!(out.iter().all(|per_rate| per_rate.len() == 2));
        assert!(out.iter().flatten().all(|r| r.errors.len() == 3));

        // Each grid cell must equal the standalone uniform evaluation.
        let standalone = robust_eval(
            &model,
            QuantScheme::rquant(8),
            &test,
            ChipAxis::uniform(vec![0.01], 3, 1000),
        );
        assert_eq!(out[0][1].errors, standalone[0].errors);
    }

    #[test]
    fn cell_callbacks_cover_every_cell_once() {
        let (a, _, test) = two_models();
        let models = vec![SweepModel::new("a", QuantScheme::rquant(8), &a)];
        let axes = vec![
            SweepAxis::new("u1", ChipAxis::uniform(vec![0.01], 2, 1000)),
            SweepAxis::new("u2", ChipAxis::uniform(vec![0.001, 0.01], 1, 2000)),
        ];
        let mut seen = Vec::new();
        let _ = run_sweep(&models, &axes, &test, &SweepOptions::default(), None, |cell, _| {
            seen.push((cell.axis, cell.group, cell.point, cell.resumed))
        });
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![(0, 0, 0, false), (0, 0, 1, false), (1, 0, 0, false), (1, 1, 0, false),]
        );
    }

    #[test]
    fn cell_ids_separate_every_identity_component() {
        let (_, _, test) = two_models();
        let data = dataset_identity(&test);
        let opts = SweepOptions::default();
        let base = cell_id("m", "q8laun", "axis", 0, &data, &opts);
        assert_ne!(base, cell_id("m2", "q8laun", "axis", 0, &data, &opts));
        assert_ne!(base, cell_id("m", "q4laun", "axis", 0, &data, &opts));
        assert_ne!(base, cell_id("m", "q8laun", "axis2", 0, &data, &opts));
        assert_ne!(base, cell_id("m", "q8laun", "axis", 1, &data, &opts));
        // Tab. 10 evaluates one model under both modes; a shared store must
        // never alias them.
        let batch_stats = SweepOptions { mode: Mode::EvalBatchStats };
        assert_ne!(base, cell_id("m", "q8laun", "axis", 0, &data, &batch_stats));
    }

    /// Two generations of a same-named dataset (different data seeds) have
    /// the same name and length but different content — they must never
    /// alias in the store, or a resumed sweep could replay stale cells.
    #[test]
    fn dataset_identity_fingerprints_content_not_just_shape() {
        let (_, seed0) = SynthDataset::Mnist.generate(0);
        let (_, seed1) = SynthDataset::Mnist.generate(1);
        assert_eq!(seed0.name(), seed1.name());
        assert_eq!(seed0.len(), seed1.len());
        assert_ne!(dataset_identity(&seed0), dataset_identity(&seed1));
        assert_eq!(dataset_identity(&seed0), dataset_identity(&seed0));
    }

    #[test]
    #[should_panic(expected = "distinct keys")]
    fn rejects_duplicate_model_keys() {
        let (a, b, test) = two_models();
        let scheme = QuantScheme::rquant(8);
        let models = vec![SweepModel::new("same", scheme, &a), SweepModel::new("same", scheme, &b)];
        let axes = vec![SweepAxis::new("u", ChipAxis::uniform(vec![0.01], 1, 1000))];
        let _ = run_sweep(&models, &axes, &test, &SweepOptions::default(), None, |_, _| {});
    }
}
