//! Determinism suite for the batch-parallel evaluation surface.
//!
//! The invariant being pinned: **parallel == serial == seed**. Every
//! parallel path — clean `evaluate`, the campaign engine, the streaming
//! campaign, and sweeps — must produce byte-identical results to its
//! serial reference, and those results must be byte-identical across
//! thread counts.
//!
//! The in-process tests check parallel-vs-serial at whatever thread count
//! this process runs with. The `thread_matrix` test re-executes this test
//! binary with `BITROBUST_THREADS` set to 1, 2, and the machine maximum
//! (the pool is sized once per process, so distinct counts need distinct
//! processes) — plus one run with `BITROBUST_OBS=trace`, pinning the obs
//! crate's bit-neutrality contract — and asserts the fingerprints printed
//! by the [`worker_fingerprints`] helper are identical across all runs and
//! to the committed `determinism_fingerprints.txt`, so they are pinned
//! across commits too.
//!
//! Since data-parallel training landed, the same discipline covers
//! `train()`: sharded training must be byte-identical to its in-order
//! serial shard reference ([`bitrobust_core::DataParallel::serial`]) —
//! losses, clean error, *and* final weights — for every training method,
//! at every thread count.
//!
//! The sweep orchestrator extends it once more: profiled-chip axes must
//! match their serial reference with a pinned iteration order, and a
//! killed-and-resumed multi-model sweep's store must fingerprint
//! identically to a single-shot run's — again at 1, 2, and max threads.
//!
//! Every case above runs the MLP; one more runs SimpleNet-GN, so the
//! matrix also covers the conv kernels' forward, dW and dX passes.

use std::fmt::Write as _;

mod common;
use common::{tensors_fingerprint, weights_fingerprint};

use bitrobust_core::{
    build, evaluate, evaluate_serial, run_sweep, train, ArchKind, Campaign, ChipAxis, DataParallel,
    EvalResult, NormKind, QuantizedModel, RandBetVariant, SweepAxis, SweepModel, SweepOptions,
    SweepStore, TrainConfig, TrainMethod, TrainReport, EVAL_BATCH, TRAIN_SHARDS,
};
use bitrobust_data::{AugmentConfig, Dataset, SynthDataset};
use bitrobust_nn::{Mode, Model};
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

fn tiny_setup() -> (Model, Dataset) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let (_, test) = SynthDataset::Mnist.generate(0);
    (built.model, test)
}

fn chip_images(model: &Model, n_chips: usize, p: f64) -> Vec<QuantizedModel> {
    use bitrobust_biterror::UniformChip;
    let q0 = QuantizedModel::quantize(model, QuantScheme::rquant(8));
    (0..n_chips)
        .map(|c| {
            let mut q = q0.clone();
            q.inject(&UniformChip::new(1000 + c as u64).at_rate(p));
            q
        })
        .collect()
}

fn mnist_subset() -> (Dataset, Dataset) {
    let (train_ds, test_ds) = SynthDataset::Mnist.generate(1);
    let train_idx: Vec<usize> = (0..600).collect();
    let test_idx: Vec<usize> = (0..300).collect();
    let (xt, yt) = train_ds.batch(&train_idx);
    let (xe, ye) = test_ds.batch(&test_idx);
    (Dataset::new("train", xt, yt, 10), Dataset::new("test", xe, ye, 10))
}

/// A short single-model RandBET run.
fn training_report() -> TrainReport {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;
    let (train_ds, test_ds) = mnist_subset();
    let mut cfg = TrainConfig::new(
        Some(QuantScheme::rquant(8)),
        TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
    );
    cfg.epochs = 2;
    cfg.batch_size = 128;
    cfg.augment = AugmentConfig::none();
    cfg.warmup_loss = 100.0;
    train(&mut model, &train_ds, &test_ds, &cfg)
}

/// The training methods the data-parallel determinism contract is pinned
/// over: all three bit-error training paths (Standard's summed gradients,
/// PattBET's fixed pattern, Alternating's two-phase update).
fn dp_methods() -> [TrainMethod; 3] {
    [
        TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Standard },
        TrainMethod::PattBet { wmax: Some(0.1), seed: 77, p: 0.01 },
        TrainMethod::RandBet { wmax: Some(0.1), p: 0.01, variant: RandBetVariant::Alternating },
    ]
}

/// A short data-parallel training run; returns the report and the trained
/// model so callers can compare weights byte-for-byte.
fn dp_training_run(method: TrainMethod, dp: DataParallel) -> (TrainReport, Model) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;
    let (train_ds, test_ds) = mnist_subset();
    let mut cfg = TrainConfig::new(Some(QuantScheme::rquant(8)), method);
    cfg.epochs = 2;
    cfg.batch_size = 128;
    cfg.augment = AugmentConfig::none();
    cfg.warmup_loss = 100.0;
    cfg.data_parallel = Some(dp);
    let report = train(&mut model, &train_ds, &test_ds, &cfg);
    (report, model)
}

fn fp_result(out: &mut String, r: &EvalResult) {
    write!(out, "{:08x}:{:08x};", r.error.to_bits(), r.confidence.to_bits()).unwrap();
}

fn fp_results(results: &[EvalResult]) -> String {
    let mut out = String::new();
    for r in results {
        fp_result(&mut out, r);
    }
    out
}

fn fp_report(report: &TrainReport) -> String {
    let mut out = String::new();
    write!(out, "{:08x}:{:08x};", report.final_loss.to_bits(), report.clean_error.to_bits())
        .unwrap();
    for loss in &report.epoch_losses {
        write!(out, "{:08x};", loss.to_bits()).unwrap();
    }
    out
}

// ---------------------------------------------------------------------------
// (a) clean evaluate: parallel vs serial
// ---------------------------------------------------------------------------

#[test]
fn clean_evaluate_parallel_matches_serial() {
    let (model, test) = tiny_setup();
    // Sets smaller than one batch, exactly one, just over one, and many
    // batches with a partial last one.
    for n in [1, 7, EVAL_BATCH - 1, EVAL_BATCH, EVAL_BATCH + 1, 1000] {
        let (x, y) = test.batch_range(0, n);
        let subset = Dataset::new("test-prefix", x, y, test.n_classes());
        assert_eq!(evaluate(&model, &subset), evaluate_serial(&model, &subset), "{n} examples");
    }
}

// ---------------------------------------------------------------------------
// (b) streaming vs batch campaign
// ---------------------------------------------------------------------------

#[test]
fn streaming_campaign_matches_batch() {
    let (model, test) = tiny_setup();
    let images = chip_images(&model, 6, 0.02);
    let batch = Campaign::new(&model, &test).run(&images);

    let mut streamed_cells = Vec::new();
    let streamed =
        Campaign::new(&model, &test).on_cell(|i, r| streamed_cells.push((i, *r))).run(&images);
    assert_eq!(batch, streamed, "streaming must not change results");
    let in_order: Vec<(usize, EvalResult)> = batch.iter().copied().enumerate().collect();
    assert_eq!(streamed_cells, in_order, "cells must stream exactly once, in order");
}

// ---------------------------------------------------------------------------
// (c2) profiled-chip axes: campaign vs serial reference, fixed iteration
// ---------------------------------------------------------------------------

/// The canonical two-model × two-axis (profiled + uniform) sweep plan the
/// thread-matrix and kill-resume tests pin — defined once in
/// [`common::run_sweep_fixture`] so both suites stay in lockstep. `None`
/// store = pure compute.
fn tiny_sweep(store: Option<&mut SweepStore>) -> Vec<EvalResult> {
    let (a, b, test) = common::sweep_fixture_models();
    common::run_sweep_fixture((&a, &b), &test, store, |_| {}).cells().to_vec()
}

/// A profiled-chip axis campaign must be byte-identical to the serial
/// reference over manually built images, and iterate rate-major then
/// offset-major — the order its cells are persisted and resumed under.
#[test]
fn profiled_axis_matches_serial_reference_and_iteration_order() {
    use bitrobust_biterror::{ChipKind, ProfiledAxis};
    let (model, test) = tiny_setup();
    let scheme = QuantScheme::rquant(8);
    let axis = ProfiledAxis::tab5(ChipKind::Chip1, 0, vec![0.01, 0.02], 3);

    // The manual Tab. 5-style loop: voltage per rate, offset per column.
    let chip = axis.synthesize();
    let voltages = axis.voltages(&chip);
    let q0 = QuantizedModel::quantize(&model, scheme);
    let images: Vec<QuantizedModel> = (0..axis.n_points())
        .map(|point| {
            let mut q = q0.clone();
            q.inject(&axis.injector(&chip, &voltages, point));
            q
        })
        .collect();
    let serial = Campaign::new(&model, &test).serial().run(&images);

    let models = [SweepModel::new("mlp", scheme, &model)];
    let axes = [SweepAxis::new("profiled", ChipAxis::Profiled(axis.clone()))];
    let mut seen = Vec::new();
    let campaign = run_sweep(&models, &axes, &test, &SweepOptions::default(), None, |cell, _| {
        seen.push((cell.group, cell.point))
    })
    .robust(0, 0);

    assert_eq!(campaign.iter().map(|r| r.errors.len()).sum::<usize>(), axis.n_points());
    for (group, robust) in campaign.iter().enumerate() {
        for (offset, &error) in robust.errors.iter().enumerate() {
            let reference = serial[group * axis.n_offsets + offset];
            assert_eq!(error, reference.error, "cell ({group}, {offset})");
        }
    }
    let expected: Vec<(usize, usize)> =
        (0..axis.rates.len()).flat_map(|g| (0..axis.n_offsets).map(move |o| (g, o))).collect();
    assert_eq!(seen, expected, "profiled cells must stream rate-major, in order");
}

// ---------------------------------------------------------------------------
// (e) data-parallel training: parallel vs serial shard execution
// ---------------------------------------------------------------------------

#[test]
fn data_parallel_training_matches_serial_reference() {
    for method in dp_methods() {
        let (parallel_report, parallel_model) =
            dp_training_run(method, DataParallel { shards: 3, serial: false });
        let (serial_report, serial_model) =
            dp_training_run(method, DataParallel { shards: 3, serial: true });
        assert_eq!(
            parallel_report, serial_report,
            "{method:?}: sharded training must not depend on how shards are scheduled"
        );
        assert_eq!(
            parallel_model.param_tensors(),
            serial_model.param_tensors(),
            "{method:?}: final weights must be byte-identical"
        );
    }
}

/// The shard *count* is part of the numerical contract: different counts
/// split float sums differently and legitimately produce different (still
/// deterministic) trajectories. Guard against an implementation that
/// secretly ignores the configured count. Float (unquantized) training is
/// used because quantized training snaps last-ulp weight differences back
/// onto the 8-bit grid, which can mask the split in the observable report.
#[test]
fn shard_count_is_a_numerical_contract() {
    let run = |shards: usize| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let mut model = built.model;
        let (train_ds, test_ds) = mnist_subset();
        let mut cfg = TrainConfig::new(None, TrainMethod::Clipping { wmax: 0.1 });
        cfg.epochs = 2;
        cfg.batch_size = 128;
        cfg.augment = AugmentConfig::none();
        cfg.data_parallel = Some(DataParallel::new(shards));
        let report = train(&mut model, &train_ds, &test_ds, &cfg);
        (report, model.param_tensors())
    };
    let (two, two_weights) = run(2);
    let (two_again, two_weights_again) = run(2);
    let (four, four_weights) = run(4);
    assert_eq!(two, two_again, "same shard count must reproduce exactly");
    assert_eq!(two_weights, two_weights_again);
    assert_ne!(
        (two.epoch_losses, two_weights),
        (four.epoch_losses, four_weights),
        "different shard counts should not be silently collapsed"
    );
}

// ---------------------------------------------------------------------------
// Thread-count matrix: 1, 2, and max threads must agree byte-for-byte.
// ---------------------------------------------------------------------------

/// Hidden helper: computes every case's canonical fingerprint at this
/// process's thread count (after asserting parallel == serial in-process)
/// and prints them as `FP <case> <hex>` lines for [`thread_matrix`].
#[test]
#[ignore = "subprocess worker for thread_matrix; run via BITROBUST_THREADS matrix"]
fn worker_fingerprints() {
    let (model, test) = tiny_setup();

    // (a) clean evaluate.
    let clean = evaluate(&model, &test);
    assert_eq!(clean, evaluate_serial(&model, &test));
    println!("FP clean_evaluate {}", fp_results(&[clean]));

    // (b)+(c) campaign: serial reference vs the parallel run, silent and
    // streaming.
    let images = chip_images(&model, 6, 0.02);
    let serial = Campaign::new(&model, &test).serial().run(&images);
    let streamed = Campaign::new(&model, &test).on_cell(|_, _| {}).run(&images);
    assert_eq!(serial, streamed);
    assert_eq!(serial, Campaign::new(&model, &test).run(&images), "parallel campaign");
    println!("FP campaign {}", fp_results(&serial));

    // (d) single-model training.
    println!("FP training {}", fp_report(&training_report()));

    // (e) data-parallel training: report + final weights, after asserting
    // parallel == serial shard execution in-process.
    let mut dp_fp = String::new();
    for method in dp_methods() {
        let (parallel_report, parallel_model) =
            dp_training_run(method, DataParallel { shards: 3, serial: false });
        let (serial_report, serial_model) =
            dp_training_run(method, DataParallel { shards: 3, serial: true });
        assert_eq!(parallel_report, serial_report, "{method:?}");
        assert_eq!(parallel_model.param_tensors(), serial_model.param_tensors(), "{method:?}");
        write!(
            dp_fp,
            "{}w{:016x}|",
            fp_report(&parallel_report),
            weights_fingerprint(&parallel_model)
        )
        .unwrap();
    }
    println!("FP dp_training {dp_fp}");

    // (f) the durable sweep orchestrator: a 2-model (profiled + uniform
    // axis) sweep's store must fingerprint identically whether run in one
    // shot or interrupted and resumed — at every thread count.
    let dir = std::env::temp_dir();
    let single_path = dir.join(format!("bitrobust-det-sweep-single-{}.jsonl", std::process::id()));
    let resumed_path =
        dir.join(format!("bitrobust-det-sweep-resumed-{}.jsonl", std::process::id()));
    for path in [&single_path, &resumed_path] {
        let _ = std::fs::remove_file(path);
    }

    let mut single_store = SweepStore::open(&single_path).expect("open single-shot store");
    let single_cells = tiny_sweep(Some(&mut single_store));

    // Simulate an interrupted run: seed the resumed store with the first
    // half of the single-shot store's lines (a killed writer's file is
    // exactly a prefix of complete lines), then resume.
    let text = std::fs::read_to_string(&single_path).expect("read single-shot store");
    let lines: Vec<&str> = text.lines().collect();
    let half: String = lines[..lines.len() / 2].iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&resumed_path, half).expect("seed interrupted store");
    let mut resumed_store = SweepStore::open(&resumed_path).expect("open interrupted store");
    assert_eq!(resumed_store.len(), lines.len() / 2);
    let resumed_cells = tiny_sweep(Some(&mut resumed_store));

    assert_eq!(resumed_cells, single_cells, "resumed results must be byte-identical");
    assert_eq!(
        resumed_store.fingerprint(),
        single_store.fingerprint(),
        "resumed store must fingerprint identically to the single-shot store"
    );
    println!("FP sweep_store {:016x}:{}", single_store.fingerprint(), fp_results(&single_cells));
    for path in [&single_path, &resumed_path] {
        let _ = std::fs::remove_file(path);
    }

    // (g) conv: SimpleNet-GN inference, one protocol-sharded RandBET step
    // (parallel vs serial shards: report, weights, reduced gradient), and a
    // campaign (serial vs parallel).
    let (model, train_ds, test_ds) = common::simplenet_fixture();
    let (x, _) = test_ds.batch_range(0, 5);
    let mut conv_fp = format!("{:016x}|", tensors_fingerprint(&[model.infer(&x, Mode::Eval)]));
    let step = |serial: bool| {
        let mut m = model.clone();
        let dp = DataParallel { shards: TRAIN_SHARDS, serial };
        let report = common::simplenet_randbet_step(&mut m, &train_ds, &test_ds, dp);
        (report, m.param_tensors(), m.grad_tensors())
    };
    let parallel = step(false);
    assert_eq!(parallel, step(true), "protocol-sharded conv step");
    let (report, weights, grads) = parallel;
    write!(
        conv_fp,
        "{}w{:016x}g{:016x}|",
        fp_report(&report),
        tensors_fingerprint(&weights),
        tensors_fingerprint(&grads)
    )
    .unwrap();
    let images = chip_images(&model, 2, 0.02);
    let serial = Campaign::new(&model, &test_ds).serial().run(&images);
    assert_eq!(serial, Campaign::new(&model, &test_ds).run(&images), "parallel conv campaign");
    conv_fp.push_str(&fp_results(&serial));
    println!("FP simplenet {conv_fp}");
}

/// Extracts the `FP <case> <hex>` lines from a worker run's stdout. With
/// `--nocapture` the libtest harness prints `test ... ` on the same line
/// as the worker's first fingerprint, so match anywhere in the line.
fn fingerprint_lines(stdout: &str) -> Vec<String> {
    let lines: Vec<String> =
        stdout.lines().filter_map(|l| l.find("FP ").map(|at| l[at..].to_string())).collect();
    assert_eq!(lines.len(), 6, "worker must print one fingerprint per case:\n{stdout}");
    lines
}

/// The 1-thread obs-off `FP` lines of the last commit that moved results.
const COMMITTED_FINGERPRINTS: &str = include_str!("determinism_fingerprints.txt");

/// The command that rewrites `determinism_fingerprints.txt` from the
/// current code.
const REGENERATE: &str = "BITROBUST_THREADS=1 cargo test -p bitrobust-core --test determinism \
     worker_fingerprints -- --exact --ignored --nocapture | grep -o 'FP .*' \
     > crates/core/tests/determinism_fingerprints.txt";

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the matrix runs at the machine's maximum thread count, among others"
)]
fn thread_matrix_results_identical_at_1_2_and_max_threads() {
    let exe = std::env::current_exe().expect("test binary path");
    let max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // The matrix: 1, 2, and max threads with observability off, plus one
    // run with full tracing enabled — obs reads clocks but must never
    // change a byte of any result.
    let cases = [
        ("1".to_string(), "off"),
        ("2".to_string(), "off"),
        (max.to_string(), "off"),
        ("2".to_string(), "trace"),
    ];

    let mut runs = Vec::new();
    for (threads, obs) in &cases {
        let output = std::process::Command::new(&exe)
            .args(["worker_fingerprints", "--exact", "--ignored", "--nocapture"])
            .env("BITROBUST_THREADS", threads)
            .env("BITROBUST_OBS", obs)
            .output()
            .expect("spawn worker");
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        assert!(
            output.status.success(),
            "worker failed at BITROBUST_THREADS={threads} BITROBUST_OBS={obs}:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        runs.push((format!("threads={threads} obs={obs}"), fingerprint_lines(&stdout)));
    }

    let (_, reference) = &runs[0];
    for (case, lines) in &runs[1..] {
        assert_eq!(
            lines, reference,
            "results at {case} differ from the 1-thread obs-off reference"
        );
    }
    let committed: Vec<&str> = COMMITTED_FINGERPRINTS.lines().collect();
    assert_eq!(
        reference, &committed,
        "the 1-thread fingerprints differ from crates/core/tests/determinism_fingerprints.txt. \
         If the change moves results on purpose, regenerate the file with\n  {REGENERATE}"
    );
}
