//! Integration suite for the durable sweep orchestrator: multi-model
//! campaigns must match per-model grids byte-for-byte, resume must skip
//! stored cells without changing a single bit, and a run killed without
//! warning (`abort`, the `SIGKILL` analogue) must leave a store that a
//! rerun completes into a byte-identical final state.

use std::path::PathBuf;

use bitrobust_biterror::{ChipKind, ProfiledAxis};
use bitrobust_core::{
    run_sweep, Campaign, ChipAxis, QuantizedModel, SweepAxis, SweepModel, SweepOptions, SweepStore,
    EVAL_BATCH,
};
use bitrobust_nn::Mode;
use bitrobust_quant::QuantScheme;

mod common;
// The canonical kill-and-resume plan (2 models × profiled + uniform axes
// = 16 cells) lives in `common` so the determinism thread matrix pins the
// exact same cells this suite kills and resumes.
use common::{run_sweep_fixture as run_plan, sweep_fixture_models as two_models};

/// Env var pointing the abort worker at its store file.
const KILL_STORE_ENV: &str = "BITROBUST_SWEEP_KILL_STORE";

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bitrobust-sweep-{}-{name}.jsonl", std::process::id()))
}

#[test]
fn multi_model_sweep_matches_per_model_grids_bit_for_bit() {
    let (a, b, test) = two_models();
    let scheme = QuantScheme::rquant(8);
    let rates = vec![0.001, 0.01];
    let axes = vec![SweepAxis::new("uniform", ChipAxis::uniform(rates, 3, 1000))];
    let models = vec![SweepModel::new("mlp-a", scheme, &a), SweepModel::new("mlp-b", scheme, &b)];
    let results = run_sweep(&models, &axes, &test, &SweepOptions::default(), None, |_, _| {});

    for (mi, model) in models.iter().enumerate() {
        let alone = run_sweep(
            std::slice::from_ref(model),
            &axes,
            &test,
            &SweepOptions::default(),
            None,
            |_, _| {},
        );
        assert_eq!(
            results.robust(mi, 0),
            alone.robust(0, 0),
            "model {mi} must match its standalone grid"
        );
    }
}

#[test]
fn profiled_sweep_matches_manual_tab5_loop_bit_for_bit() {
    let (a, _, test) = two_models();
    let scheme = QuantScheme::rquant(8);
    let axis = ProfiledAxis::tab5(ChipKind::Chip1, 0, vec![0.01, 0.02], 2);
    let models = vec![SweepModel::new("mlp-a", scheme, &a)];
    let axes = vec![SweepAxis::new("chip1", ChipAxis::Profiled(axis.clone()))];
    let results = run_sweep(&models, &axes, &test, &SweepOptions::default(), None, |_, _| {});

    // The pre-orchestrator tab5 path: materialize every (rate, offset)
    // image up front and run one eager campaign.
    let chip = axis.synthesize();
    let q0 = QuantizedModel::quantize(&a, scheme);
    let mut images = Vec::new();
    for &rate in &axis.rates {
        let v = chip.voltage_for_rate(rate);
        for k in 0..axis.n_offsets {
            let mut q = q0.clone();
            q.inject(&chip.at_voltage(v, k * axis.offset_stride, false));
            images.push(q);
        }
    }
    let legacy = Campaign::new(&a, &test).batch_size(EVAL_BATCH).mode(Mode::Eval).run(&images);
    assert_eq!(results.cells(), &legacy[..], "sweep cells must equal the legacy tab5 loop");
}

/// A whole `RobustEval` survives the store: aggregating replayed cells
/// yields bit-identical means/stds/errors to aggregating the originals.
#[test]
fn robust_eval_round_trips_through_stored_cells() {
    use bitrobust_core::{CellRecord, RobustEval};
    let (a, _, test) = two_models();
    let scheme = QuantScheme::rquant(8);
    let axis = ChipAxis::uniform(vec![0.02], 4, 1000);
    let models = vec![SweepModel::new("mlp-a", scheme, &a)];
    let axes = vec![SweepAxis::new("u", axis)];
    let results = run_sweep(&models, &axes, &test, &SweepOptions::default(), None, |_, _| {});
    let direct = RobustEval::from_results(results.cells());

    let path = temp_path("robust-roundtrip");
    let _ = std::fs::remove_file(&path);
    {
        let mut store = SweepStore::open(&path).unwrap();
        for (i, cell) in results.cells().iter().enumerate() {
            store
                .append(&CellRecord {
                    key: i as u64,
                    model: "mlp-a",
                    scheme: "q8laun",
                    axis: "u",
                    point: i,
                    result: *cell,
                })
                .unwrap();
        }
    }
    let store = SweepStore::open(&path).unwrap();
    let replayed: Vec<_> =
        (0..results.cells().len() as u64).map(|key| store.get(key).expect("stored cell")).collect();
    assert_eq!(RobustEval::from_results(&replayed), direct);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_skips_stored_cells_and_reproduces_bits() {
    let (a, b, test) = two_models();
    let single_path = temp_path("resume-single");
    let partial_path = temp_path("resume-partial");
    for p in [&single_path, &partial_path] {
        let _ = std::fs::remove_file(p);
    }

    // Single-shot reference.
    let mut single = SweepStore::open(&single_path).unwrap();
    let reference = run_plan((&a, &b), &test, Some(&mut single), |_| {});
    assert_eq!(reference.evaluated, 16);
    assert_eq!(single.len(), 16);

    // Re-running against the full store evaluates nothing and replays
    // identical bits.
    let mut single = SweepStore::open(&single_path).unwrap();
    let replayed = run_plan((&a, &b), &test, Some(&mut single), |_| {});
    assert_eq!(replayed.evaluated, 0);
    assert_eq!(replayed.resumed, 16);
    assert_eq!(replayed.cells(), reference.cells());

    // A prefix of the store (an interrupted run's file) resumes to the
    // same bits and the same store fingerprint.
    let text = std::fs::read_to_string(&single_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let prefix: String = lines[..5].iter().map(|l| format!("{l}\n")).collect();
    std::fs::write(&partial_path, prefix).unwrap();
    let mut partial = SweepStore::open(&partial_path).unwrap();
    let resumed = run_plan((&a, &b), &test, Some(&mut partial), |_| {});
    assert_eq!(resumed.evaluated, 11);
    assert_eq!(resumed.resumed, 5);
    assert_eq!(resumed.cells(), reference.cells(), "resumed results must be byte-identical");
    let single = SweepStore::open(&single_path).unwrap();
    assert_eq!(partial.fingerprint(), single.fingerprint());

    for p in [&single_path, &partial_path] {
        let _ = std::fs::remove_file(p);
    }
}

/// Hidden worker for [`killed_sweep_resumes_byte_identically`]: starts the
/// canonical plan against the store named by [`KILL_STORE_ENV`] and
/// `abort()`s after three cells have been evaluated and appended —
/// no unwinding, no destructors, no flushes, exactly like `SIGKILL`.
#[test]
#[ignore = "abort worker for killed_sweep_resumes_byte_identically"]
fn sweep_kill_worker() {
    let path = std::env::var(KILL_STORE_ENV).expect("worker needs the store path env var");
    let (a, b, test) = two_models();
    let mut store = SweepStore::open(path).unwrap();
    run_plan((&a, &b), &test, Some(&mut store), |evaluated| {
        if evaluated == 3 {
            std::process::abort();
        }
    });
    unreachable!("worker must die mid-sweep");
}

#[test]
fn killed_sweep_resumes_byte_identically() {
    let kill_path = temp_path("killed");
    let single_path = temp_path("killed-reference");
    for p in [&kill_path, &single_path] {
        let _ = std::fs::remove_file(p);
    }

    // Run the worker subprocess and let it die mid-sweep.
    let exe = std::env::current_exe().expect("test binary path");
    let output = std::process::Command::new(&exe)
        .args(["sweep_kill_worker", "--exact", "--ignored", "--nocapture"])
        .env(KILL_STORE_ENV, &kill_path)
        .output()
        .expect("spawn kill worker");
    assert!(
        !output.status.success(),
        "worker must die mid-sweep, got: {}",
        String::from_utf8_lossy(&output.stdout)
    );

    // The store survives with a prefix of completed cells.
    let mut store = SweepStore::open(&kill_path).expect("killed store must reopen cleanly");
    assert!(store.len() >= 3, "3 cells were appended before the abort");
    assert!(store.len() < 16, "the sweep must not have finished");
    let killed_at = store.len();

    // Resume in this process; compare against an uninterrupted run.
    let (a, b, test) = two_models();
    let resumed = run_plan((&a, &b), &test, Some(&mut store), |_| {});
    assert_eq!(resumed.resumed, killed_at);
    assert_eq!(resumed.evaluated, 16 - killed_at);

    let mut single = SweepStore::open(&single_path).unwrap();
    let reference = run_plan((&a, &b), &test, Some(&mut single), |_| {});
    assert_eq!(resumed.cells(), reference.cells(), "resumed results must be byte-identical");
    assert_eq!(
        store.fingerprint(),
        single.fingerprint(),
        "killed-and-resumed store must fingerprint identically to a single-shot run"
    );

    for p in [&kill_path, &single_path] {
        let _ = std::fs::remove_file(p);
    }
}
