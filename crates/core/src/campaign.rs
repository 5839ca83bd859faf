//! Parallel fault-injection campaign engine.
//!
//! The paper's evaluation protocol measures `RErr` on ~50 simulated chips
//! per bit error rate, and the follow-up work multiplies that by rate
//! grids, voltages, and quantization schemes — so *robust evaluation*, not
//! training, dominates experiment wall-clock. This module turns those
//! nested serial loops into one data-parallel campaign, built on the
//! shared [`crate::scheduler`] executor.
//!
//! # The `Campaign` builder
//!
//! [`Campaign`] is the single entry point: configure once, then pick the
//! image source that fits:
//!
//! ```no_run
//! # use bitrobust_core::{build, ArchKind, Campaign, NormKind, QuantizedModel};
//! # use bitrobust_data::SynthDataset;
//! # use bitrobust_quant::QuantScheme;
//! # use rand::SeedableRng;
//! # let (_, test_ds) = SynthDataset::Cifar10.generate(0);
//! # let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! # let model = build(ArchKind::SimpleNet, [3, 16, 16], 10, NormKind::Group, &mut rng).model;
//! # let images: Vec<QuantizedModel> = vec![];
//! let results = Campaign::new(&model, &test_ds)
//!     .on_cell(|i, r| eprintln!("pattern {i}: {:.2}%", 100.0 * r.error))
//!     .run(&images);
//! ```
//!
//! * [`Campaign::run`] — evaluate pre-built quantized images;
//! * [`Campaign::run_cells`] — build each image on demand, one wave at a
//!   time, against the template it names (large grids, and the
//!   multi-model sweep fan-out; single-template callers name template 0);
//! * [`Campaign::serial`] — the one-batch-at-a-time reference path,
//!   bit-identical to the parallel engine (determinism suite, benchmarks).
//!
//! Defaults: `batch_size = EVAL_BATCH`, `mode = Mode::Eval`. All paths
//! return byte-identical results for the same cells. Grids of cells —
//! models × rates × chips, or a profiled chip's voltage/offset span — are
//! a [`ChipAxis`] run through [`crate::run_sweep`].
//!
//! # Work-item granularity
//!
//! A campaign is a set of **quantized images** (one [`QuantizedModel`] per
//! error pattern — i.e. per grid cell) evaluated over a dataset. The unit
//! of parallel work is a `(pattern, batch)` pair: every test batch of
//! every pattern is an independent item, fanned out over the
//! `bitrobust-tensor` thread pool by [`crate::scheduler::execute_tracked`].
//! Fine granularity keeps all cores busy even when the pattern count is
//! small (e.g. 3 profiled-chip offsets) or the dataset is large, and the
//! pool's self-scheduling balances uneven batch costs. The layers' own
//! `parallel_for` calls nest harmlessly: the pool runs nested submissions
//! inline on the claiming worker.
//!
//! When the item count far exceeds the pool parallelism (50 chips × 8
//! rates × many batches), per-batch items only add scheduling overhead, so
//! the scheduler merges runs of contiguous batches of one pattern into
//! larger items. Sizing never changes results: items only decide *which
//! worker computes which per-batch partials* — the partials themselves and
//! their reduction order are fixed.
//!
//! The same engine also serves **clean evaluation**: a single-pattern
//! campaign whose one "replica" is the caller's model itself
//! (`N patterns = 1`, batches fan out), which is what
//! [`crate::evaluate`] runs on. And for long sweeps, [`Campaign::on_cell`]
//! processes patterns in small waves and hands each cell's result to the
//! callback, in cell order, as soon as its wave completes — progress
//! reporting without giving up byte-identical results.
//!
//! # Replicas
//!
//! Evaluating a pattern takes a model whose parameters hold the pattern's
//! dequantized (bit-error-perturbed) weights. Patterns exist only as their
//! **quantized integer images** (~4× smaller than an `f32` replica); each
//! work item checks an `f32` scratch replica out of a
//! [`crate::scheduler::ScratchReplicas`] pool, writes its pattern's image
//! over the parameters, evaluates its batches through [`Model::infer`]
//! (which takes `&self` and touches no activation caches), and parks the
//! replica again. Live `f32` replicas are bounded by the pool parallelism
//! instead of the pattern count, so eager campaigns run as **one wave of
//! all cells**.
//!
//! A reused replica is **byte-identical** to a fresh clone: the image
//! write overwrites every parameter tensor and evaluation reads nothing
//! else. The lazy entry point builds the perturbed *quantized images* one
//! wave at a time, so peak memory stays at one wave of images for
//! model-zoo-sized grids.
//!
//! # Determinism guarantee
//!
//! Campaign results are **bit-identical to the serial reference path**
//! ([`Campaign::serial`]) regardless of thread count or scheduling, and
//! the per-pattern `error` values are additionally bit-identical to the
//! historical quantize → inject → `write_to` → `forward` loop (they come
//! from integer miss counts; mean *confidence* may differ from the legacy
//! loop in the last ULP because f64 partial sums regroup at batch
//! boundaries). This holds because:
//!
//! * `infer` produces bit-identical outputs to an eval-mode `forward`;
//! * every batch's partial statistics are computed independently and
//!   written to that item's dedicated slot (no shared accumulators);
//! * partials are reduced serially in `(pattern, batch)` order.
//!
//! Same seeds ⇒ identical per-chip `errors`, so results stay comparable
//! across machines, thread counts, and the serial/parallel boundary.
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
//! let (_, test_ds) = SynthDataset::Cifar10.generate(0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let model = build(ArchKind::SimpleNet, [3, 16, 16], 10, NormKind::Group, &mut rng).model;
//!
//! // One campaign: 2 rates x 50 chips = 100 grid cells, all parallel.
//! // Evaluation is read-only: a shared `&Model` is all the engine needs.
//! let models = [SweepModel::new("simplenet", QuantScheme::rquant(8), &model)];
//! let axes = [SweepAxis::new("uniform", ChipAxis::uniform(vec![1e-3, 1e-2], 50, 1000))];
//! let sweep = run_sweep(&models, &axes, &test_ds, &SweepOptions::default(), None, |_, _| {});
//! println!("RErr at p=1%: {:.2}%", 100.0 * sweep.robust(0, 0)[1].mean_error);
//! ```

use bitrobust_biterror::{ProfiledAxis, ProfiledChip, UniformChip};
use bitrobust_data::Dataset;
use bitrobust_nn::{Mode, Model};
use bitrobust_tensor::softmax_rows;

use crate::eval::{EvalResult, EVAL_BATCH};
use crate::scheduler::{self, ScratchReplicas};
use crate::QuantizedModel;

/// Per-`(pattern, batch)` partial statistics.
struct BatchPartial {
    wrong: usize,
    conf: f64,
}

/// Evaluates one test batch against one replica.
fn eval_batch(
    replica: &Model,
    dataset: &Dataset,
    start: usize,
    end: usize,
    mode: Mode,
) -> BatchPartial {
    let (x, labels) = dataset.batch_range(start, end);
    let logits = replica.infer(&x, mode);
    let probs = softmax_rows(&logits);
    let preds = probs.argmax_rows();
    let mut wrong = 0usize;
    let mut conf = 0f64;
    for (row, (&label, &pred)) in labels.iter().zip(&preds).enumerate() {
        if pred != label {
            wrong += 1;
        }
        conf += probs.row(row)[pred] as f64;
    }
    BatchPartial { wrong, conf }
}

/// Serially reduces one pattern's batch partials (in batch order) into its
/// [`EvalResult`] over an `n`-sample dataset.
fn reduce_pattern(partials: &[BatchPartial], n: usize) -> EvalResult {
    let mut wrong = 0usize;
    let mut conf = 0f64;
    for part in partials {
        wrong += part.wrong;
        conf += part.conf;
    }
    EvalResult { error: wrong as f32 / n as f32, confidence: (conf / n as f64) as f32 }
}

/// Builds a pattern's replica: template clone + dequantized weights.
fn build_replica(template: &Model, image: &QuantizedModel) -> Model {
    let mut replica = template.clone();
    image.write_to(&mut replica);
    replica
}

/// A quantized image a campaign cell evaluates: borrowed from the caller
/// (eager runs never deep-copy) or built lazily for the current wave.
enum CellImage<'i> {
    Borrowed(&'i QuantizedModel),
    Owned(QuantizedModel),
}

impl CellImage<'_> {
    fn image(&self) -> &QuantizedModel {
        match self {
            CellImage::Borrowed(q) => q,
            CellImage::Owned(q) => q,
        }
    }
}

/// Builder-style configuration of one fault-injection campaign: the
/// single public entry point to the engine.
///
/// Construct with [`Campaign::new`] (one template model) or
/// [`Campaign::multi`] (per-cell templates, for multi-model sweeps),
/// adjust the optional knobs, then run via [`Campaign::run`] or
/// [`Campaign::run_cells`]. See the
/// [module docs](self) for the configuration defaults.
///
/// All run paths — eager, lazy, streaming, serial — return byte-identical
/// results for the same cells.
pub struct Campaign<'a> {
    templates: Vec<&'a Model>,
    dataset: &'a Dataset,
    batch_size: usize,
    mode: Mode,
    serial: bool,
    #[allow(clippy::type_complexity)]
    on_cell: Option<Box<dyn FnMut(usize, &EvalResult) + 'a>>,
}

impl<'a> Campaign<'a> {
    /// A campaign whose every cell evaluates against `template` (which
    /// supplies the architecture and any non-parameter state such as
    /// BatchNorm running statistics; its own weights are irrelevant and it
    /// is never mutated).
    pub fn new(template: &'a Model, dataset: &'a Dataset) -> Self {
        Self::multi(&[template], dataset)
    }

    /// A campaign spanning several template models: cells built by
    /// [`Campaign::run_cells`] name their template by index into
    /// `templates` (the sweep orchestrator's multi-model fan-out).
    pub fn multi(templates: &[&'a Model], dataset: &'a Dataset) -> Self {
        Self {
            templates: templates.to_vec(),
            dataset,
            batch_size: EVAL_BATCH,
            mode: Mode::Eval,
            serial: false,
            on_cell: None,
        }
    }

    /// Test batch size (default [`EVAL_BATCH`]). Affects wall-clock and
    /// the f64 confidence regrouping documented in the module docs, never
    /// the per-cell error counts.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Inference mode (default [`Mode::Eval`]; [`Mode::Train`] is
    /// rejected at run time).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Run the serial reference path: one pattern and one batch at a time
    /// on the calling thread, bit-identical to the parallel engine. Exists
    /// for determinism tests and the serial-vs-campaign benchmark.
    pub fn serial(mut self) -> Self {
        self.serial = true;
        self
    }

    /// Streams per-cell results: `on_cell(index, result)` fires for every
    /// cell — in index order — as soon as its wave completes, so long
    /// campaigns can report progress while running. Never changes the
    /// returned results.
    pub fn on_cell(mut self, callback: impl FnMut(usize, &EvalResult) + 'a) -> Self {
        self.on_cell = Some(Box::new(callback));
        self
    }

    /// Evaluates every pre-built quantized image over the dataset,
    /// returning one [`EvalResult`] per image, in order. Images are
    /// borrowed — no per-wave deep copies.
    ///
    /// # Panics
    ///
    /// Panics if the configured batch size is 0, the dataset is empty, or
    /// the mode is [`Mode::Train`]; or if an image's shapes do not match
    /// its template.
    pub fn run(self, images: &[QuantizedModel]) -> Vec<EvalResult> {
        self.drive(images.len(), |i| (0, CellImage::Borrowed(&images[i])), true)
    }

    /// Like [`Campaign::run`], but builds the quantized images **lazily**,
    /// one wave of cells at a time: `make_cell(i)` is called for
    /// `i in 0..n_cells` as each wave starts, so at most one wave of images
    /// (plus the scratch replicas, bounded by the pool parallelism) is
    /// alive at a time. Use this for large grids where materializing every
    /// perturbed weight copy up front would dominate memory.
    ///
    /// `make_cell(i)` returns `(template_index, image)`, and the cell is
    /// evaluated against `templates[template_index]` from
    /// [`Campaign::multi`] — so one campaign can span **several models'**
    /// cells (the sweep orchestrator's engine entry point). A
    /// single-template campaign from [`Campaign::new`] names template 0.
    ///
    /// Each cell's result is **byte-identical** to evaluating the same
    /// image through a single-template campaign of its own model: cells
    /// never share state, so neither the cohort of cells in the fan-out
    /// nor their order affects any individual result (which is what lets a
    /// resumed sweep skip already-stored cells without perturbing the
    /// rest).
    ///
    /// # Panics
    ///
    /// Panics if a cell's template index is out of range, or on the
    /// [`Campaign::run`] conditions.
    pub fn run_cells(
        self,
        n_cells: usize,
        make_cell: impl Fn(usize) -> (usize, QuantizedModel),
    ) -> Vec<EvalResult> {
        self.drive(
            n_cells,
            |i| {
                let (template, image) = make_cell(i);
                (template, CellImage::Owned(image))
            },
            false,
        )
    }

    /// The one driver behind every run path: waves of cells through a
    /// scratch replica pool and the shared scheduler.
    fn drive<'i>(
        self,
        n_cells: usize,
        make: impl Fn(usize) -> (usize, CellImage<'i>),
        eager: bool,
    ) -> Vec<EvalResult> {
        let Campaign { templates, dataset, batch_size, mode, serial, mut on_cell } = self;
        validate(dataset, batch_size, mode);
        let n = dataset.len();
        let mut results = Vec::with_capacity(n_cells);

        if serial {
            for i in 0..n_cells {
                bitrobust_obs::span!("campaign.cell");
                bitrobust_obs::counter_add("campaign.cells", 1);
                let (template, cell) = make(i);
                let replica = build_replica(templates[template], cell.image());
                let partials = scheduler::execute_serial(1, n.div_ceil(batch_size), |_, batch| {
                    let start = batch * batch_size;
                    eval_batch(&replica, dataset, start, (start + batch_size).min(n), mode)
                });
                results.push(reduce_pattern(&partials, n));
                if let Some(callback) = on_cell.as_mut() {
                    callback(i, &results[i]);
                }
            }
            return results;
        }

        // Wave sizing. Scratch replicas are bounded by parallelism, so
        // eager silent runs take all cells in one wave. Lazy and streaming
        // runs use pool-sized waves so image construction stays bounded and
        // cells land promptly. The split never changes bytes — cells are
        // independent — only the memory and delivery profile.
        let n_batches = n.div_ceil(batch_size);
        let wave = if eager && on_cell.is_none() {
            n_cells.max(1)
        } else {
            scheduler::wave_size(n_batches)
        };
        let scratch = ScratchReplicas::new();
        let mut start = 0;
        while start < n_cells {
            let end = (start + wave).min(n_cells);
            // Per-wave timing and throughput accounting (write-only).
            bitrobust_obs::span!("campaign.wave");
            bitrobust_obs::counter_add("campaign.cells", (end - start) as u64);
            bitrobust_obs::record("campaign.wave_cells", (end - start) as u64);
            let cells: Vec<(usize, CellImage)> = (start..end).map(&make).collect();
            let partials = scheduler::execute_tracked(
                cells.len(),
                n_batches,
                |track| {
                    let (template, ref cell) = cells[track];
                    assert!(
                        template < templates.len(),
                        "cell {} template index {template} out of range",
                        start + track
                    );
                    let tag = start + track;
                    // The guard rides in the item context, so its drop in
                    // `done` times the whole work item (checkout through
                    // give-back) — per-cell latency.
                    let item_span = bitrobust_obs::span("campaign.item");
                    let replica = match scratch.checkout(template) {
                        Some((last, replica)) if last == tag => replica,
                        Some((_, mut replica)) => {
                            cell.image().write_to(&mut replica);
                            replica
                        }
                        None => build_replica(templates[template], cell.image()),
                    };
                    (template, tag, replica, item_span)
                },
                |(_, _, replica, _), _, batch| {
                    let first = batch * batch_size;
                    eval_batch(replica, dataset, first, (first + batch_size).min(n), mode)
                },
                |_, (template, tag, replica, item_span)| {
                    scratch.give_back(template, tag, replica);
                    drop(item_span);
                },
            );
            for per_pattern in partials.chunks(n_batches) {
                results.push(reduce_pattern(per_pattern, n));
            }
            if let Some(callback) = on_cell.as_mut() {
                for (i, result) in results.iter().enumerate().take(end).skip(start) {
                    callback(i, result);
                }
            }
            start = end;
        }
        results
    }
}

/// Evaluates one model directly (no quantized image, no replica build):
/// the single-pattern campaign behind [`crate::evaluate`]'s batch-parallel
/// clean-eval path.
pub(crate) fn eval_model(
    model: &Model,
    dataset: &Dataset,
    batch_size: usize,
    mode: Mode,
) -> EvalResult {
    validate(dataset, batch_size, mode);
    let n = dataset.len();
    // Per-batch partials land in dedicated slots and are reduced serially
    // in batch order — independent of thread count and scheduling.
    let partials = scheduler::execute(1, n.div_ceil(batch_size), |_, batch| {
        let start = batch * batch_size;
        eval_batch(model, dataset, start, (start + batch_size).min(n), mode)
    });
    reduce_pattern(&partials, n)
}

fn validate(dataset: &Dataset, batch_size: usize, mode: Mode) {
    assert!(batch_size > 0, "batch size must be positive");
    mode.assert_inference();
    assert!(!dataset.is_empty(), "dataset must not be empty");
}

/// One heterogeneous injection axis: any family of error patterns the
/// paper evaluates. An axis is a grid of **groups** (one per
/// bit error rate) times **points per group** (simulated chips, or
/// weight-to-memory mapping offsets), and every point deterministically
/// yields one perturbed quantized image.
///
/// Axes are pure descriptions — cheap to clone, compare, and hash into
/// persistent identities ([`ChipAxis::key`]) — and are *prepared* once per
/// campaign (profiled-chip synthesis, rate→voltage resolution) before any
/// cell is built.
///
/// Uniform grids are not a separate code path: [`crate::robust_eval`] and
/// the durable sweeps both drive a [`ChipAxis`] through
/// [`crate::run_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChipAxis {
    /// Uniform random chips: `rates × n_chips` cells with chip `c` seeded
    /// `chip_seed_base + c`, in rate-major, then chip order.
    Uniform {
        /// Bit error rates `p`.
        rates: Vec<f64>,
        /// Simulated chips per rate.
        n_chips: usize,
        /// Seed of chip 0; chip `c` uses `chip_seed_base + c`.
        chip_seed_base: u64,
    },
    /// A profiled chip's voltage/offset span (Tab. 5): rates resolved to
    /// operating voltages, crossed with mapping offsets.
    Profiled(ProfiledAxis),
}

impl ChipAxis {
    /// A uniform-chip axis: `rates × n_chips` cells, chip `c` seeded
    /// `chip_seed_base + c`.
    pub fn uniform(rates: Vec<f64>, n_chips: usize, chip_seed_base: u64) -> Self {
        ChipAxis::Uniform { rates, n_chips, chip_seed_base }
    }

    /// The bit error rates spanned (one per group; for profiled axes these
    /// are the *target* rates the voltages were resolved from).
    pub fn rates(&self) -> &[f64] {
        match self {
            ChipAxis::Uniform { rates, .. } => rates,
            ChipAxis::Profiled(axis) => &axis.rates,
        }
    }

    /// Number of groups (= rates).
    pub fn n_groups(&self) -> usize {
        self.rates().len()
    }

    /// Points per group (chips for uniform axes, mapping offsets for
    /// profiled ones).
    pub fn group_size(&self) -> usize {
        match self {
            ChipAxis::Uniform { n_chips, .. } => *n_chips,
            ChipAxis::Profiled(axis) => axis.n_offsets,
        }
    }

    /// Total number of axis points (`n_groups × group_size`).
    pub fn n_points(&self) -> usize {
        self.n_groups() * self.group_size()
    }

    /// A stable identity string covering every input that shapes the
    /// injected patterns (seeds, rates in exact round-trip encoding, group
    /// geometry). Sweep-store cell keys hash this, so two axes with equal
    /// keys must produce byte-identical cells.
    pub fn key(&self) -> String {
        match self {
            ChipAxis::Uniform { rates, n_chips, chip_seed_base } => {
                let rates: Vec<String> = rates.iter().map(|r| format!("{r:e}")).collect();
                format!("uniform-s{chip_seed_base}-c{n_chips}-r[{}]", rates.join(","))
            }
            ChipAxis::Profiled(axis) => axis.key(),
        }
    }

    /// Resolves the axis for cell construction: synthesizes the profiled
    /// chip and its per-rate operating voltages once, so per-point image
    /// building is cheap. Deterministic — preparing twice yields
    /// byte-identical cells.
    pub(crate) fn prepare(&self) -> PreparedAxis<'_> {
        match self {
            ChipAxis::Uniform { rates, n_chips, chip_seed_base } => {
                PreparedAxis::Uniform { rates, n_chips: *n_chips, chip_seed_base: *chip_seed_base }
            }
            ChipAxis::Profiled(axis) => {
                let chip = axis.synthesize();
                let voltages = axis.voltages(&chip);
                PreparedAxis::Profiled { axis, chip, voltages }
            }
        }
    }
}

/// A [`ChipAxis`] with its per-campaign state resolved (synthesized chip,
/// rate→voltage table). Built once per sweep/campaign; shared by all of
/// the axis's cells.
pub(crate) enum PreparedAxis<'a> {
    Uniform { rates: &'a [f64], n_chips: usize, chip_seed_base: u64 },
    Profiled { axis: &'a ProfiledAxis, chip: ProfiledChip, voltages: Vec<f64> },
}

impl PreparedAxis<'_> {
    /// Builds the perturbed quantized image of axis point `point` from the
    /// clean quantized image `q0`.
    pub(crate) fn make_image(&self, q0: &QuantizedModel, point: usize) -> QuantizedModel {
        let mut q = q0.clone();
        match self {
            PreparedAxis::Uniform { rates, n_chips, chip_seed_base } => {
                let p = rates[point / n_chips];
                let c = point % n_chips;
                q.inject(&UniformChip::new(chip_seed_base + c as u64).at_rate(p));
            }
            PreparedAxis::Profiled { axis, chip, voltages } => {
                q.inject(&axis.injector(chip, voltages, point));
            }
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{build, ArchKind, NormKind};
    use crate::{evaluate, robust_eval, EVAL_BATCH};
    use bitrobust_data::SynthDataset;
    use bitrobust_quant::QuantScheme;
    use rand::SeedableRng;

    fn tiny_setup() -> (Model, Dataset) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let (_, test) = SynthDataset::Mnist.generate(0);
        (built.model, test)
    }

    fn uniform_images(model: &mut Model, n_chips: usize, p: f64) -> Vec<QuantizedModel> {
        let q0 = QuantizedModel::quantize(model, QuantScheme::rquant(8));
        (0..n_chips)
            .map(|c| {
                let mut q = q0.clone();
                q.inject(&UniformChip::new(1000 + c as u64).at_rate(p));
                q
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let (mut model, test) = tiny_setup();
        let images = uniform_images(&mut model, 6, 0.02);
        let parallel = Campaign::new(&model, &test).run(&images);
        let serial = Campaign::new(&model, &test).serial().run(&images);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn engine_matches_legacy_mutate_and_forward_loop() {
        let (mut model, test) = tiny_setup();
        let images = uniform_images(&mut model, 4, 0.01);
        let engine = Campaign::new(&model, &test).run(&images);

        // The pre-engine path: write each image into the model and run the
        // cached-forward evaluator.
        let snapshot = model.param_tensors();
        let legacy: Vec<EvalResult> = images
            .iter()
            .map(|q| {
                q.write_to(&mut model);
                evaluate(&model, &test, EVAL_BATCH, Mode::Eval)
            })
            .collect();
        model.set_param_tensors(&snapshot);

        for (e, l) in engine.iter().zip(&legacy) {
            assert_eq!(e.error, l.error, "error must be bit-identical to the legacy loop");
        }
    }

    #[test]
    fn robust_eval_is_deterministic_across_calls() {
        let (model, test) = tiny_setup();
        let axis = ChipAxis::uniform(vec![0.01], 5, 1000);
        let a = robust_eval(&model, QuantScheme::rquant(8), &test, axis.clone());
        let b = robust_eval(&model, QuantScheme::rquant(8), &test, axis);
        assert_eq!(a, b);
    }

    #[test]
    fn lazy_image_construction_matches_eager() {
        let (mut model, test) = tiny_setup();
        let images = uniform_images(&mut model, 5, 0.02);
        let eager = Campaign::new(&model, &test).run(&images);
        let lazy = Campaign::new(&model, &test).run_cells(images.len(), |i| (0, images[i].clone()));
        assert_eq!(eager, lazy);
    }

    #[test]
    fn chunked_campaign_matches_unchunked() {
        let (mut model, test) = tiny_setup();
        // Cells are independent of the cohort they are evaluated with, so
        // splitting a campaign in two yields the same cells.
        let images = uniform_images(&mut model, 6, 0.02);
        let whole = Campaign::new(&model, &test).run(&images);
        let mut split = Campaign::new(&model, &test).run(&images[..2]);
        split.extend(Campaign::new(&model, &test).run(&images[2..]));
        assert_eq!(whole, split);
    }

    #[test]
    fn multi_template_cells_match_single_template_campaigns() {
        let (mut model_a, test) = tiny_setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut model_b = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
        let images_a = uniform_images(&mut model_a, 2, 0.01);
        let images_b = uniform_images(&mut model_b, 2, 0.02);

        // Interleave the two models' cells in one multi-template campaign.
        let all: Vec<(usize, QuantizedModel)> = vec![
            (0, images_a[0].clone()),
            (1, images_b[0].clone()),
            (0, images_a[1].clone()),
            (1, images_b[1].clone()),
        ];
        let templates = [&model_a, &model_b];
        let mixed = Campaign::multi(&templates, &test).run_cells(all.len(), |i| all[i].clone());

        let solo_a = Campaign::new(&model_a, &test).run(&images_a);
        let solo_b = Campaign::new(&model_b, &test).run(&images_b);
        assert_eq!(mixed[0], solo_a[0]);
        assert_eq!(mixed[2], solo_a[1]);
        assert_eq!(mixed[1], solo_b[0]);
        assert_eq!(mixed[3], solo_b[1]);
    }

    /// A cell naming a template the campaign does not have panics with
    /// its index on whichever thread claims it, and the panic reaches the
    /// caller.
    #[test]
    #[should_panic(expected = "template index 1 out of range")]
    fn out_of_range_template_index_panics() {
        let (mut model, test) = tiny_setup();
        let images = uniform_images(&mut model, 4, 0.01);
        Campaign::multi(&[&model], &test).run_cells(images.len(), |i| (1, images[i].clone()));
    }

    #[test]
    fn streaming_delivers_every_cell_in_order() {
        let (mut model, test) = tiny_setup();
        let images = uniform_images(&mut model, 4, 0.01);
        let mut seen = Vec::new();
        let silent = Campaign::new(&model, &test).run(&images);
        let streamed =
            Campaign::new(&model, &test).on_cell(|i, r| seen.push((i, r.error))).run(&images);
        assert_eq!(silent, streamed, "streaming must not change results");
        let expected: Vec<(usize, f32)> =
            streamed.iter().enumerate().map(|(i, r)| (i, r.error)).collect();
        assert_eq!(seen, expected, "every cell must stream exactly once, in order");
    }

    #[test]
    #[should_panic(expected = "non-training mode")]
    fn rejects_training_mode() {
        let (mut model, test) = tiny_setup();
        let images = uniform_images(&mut model, 1, 0.0);
        let _ = Campaign::new(&model, &test).mode(Mode::Train).run(&images);
    }
}
