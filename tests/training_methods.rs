//! Integration tests of the training methods: the qualitative claims the
//! paper makes must hold on a small, fast task.

use bitrobust_core::{
    build, robust_eval, train, ArchKind, ChipAxis, NormKind, RandBetVariant, TrainConfig,
    TrainMethod,
};
use bitrobust_data::{AugmentConfig, Dataset, SynthDataset};
use bitrobust_nn::Model;
use bitrobust_quant::QuantScheme;
use rand::SeedableRng;

const SCHEME_BITS: u8 = 8;

fn datasets() -> (Dataset, Dataset) {
    let (train_ds, test_ds) = SynthDataset::Mnist.generate(21);
    let subset: Vec<usize> = (0..1000).collect();
    let (x, y) = train_ds.batch(&subset);
    (Dataset::new("train", x, y, 10), test_ds)
}

fn train_with(method: TrainMethod, seed: u64, epochs: usize) -> (Model, f32, Dataset) {
    let (train_ds, test_ds) = datasets();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;
    let mut cfg = TrainConfig::new(Some(QuantScheme::rquant(SCHEME_BITS)), method);
    cfg.epochs = epochs;
    cfg.augment = AugmentConfig::none();
    cfg.seed = seed;
    cfg.warmup_loss = 100.0; // inject from the start: short schedules
    let report = train(&mut model, &train_ds, &test_ds, &cfg);
    (model, report.clean_error, test_ds)
}

#[test]
fn randbet_beats_normal_at_the_trained_rate() {
    let p = 0.08;
    let (normal, normal_err, test_ds) = train_with(TrainMethod::Normal, 5, 8);
    let (randbet, randbet_err, _) = train_with(
        TrainMethod::RandBet { wmax: Some(0.2), p, variant: RandBetVariant::Standard },
        5,
        8,
    );
    assert!(normal_err < 0.15 && randbet_err < 0.2, "{normal_err} vs {randbet_err}");

    let scheme = QuantScheme::rquant(SCHEME_BITS);
    let axis = ChipAxis::uniform(vec![p], 8, 500);
    let r_normal = robust_eval(&normal, scheme, &test_ds, axis.clone()).remove(0);
    let r_randbet = robust_eval(&randbet, scheme, &test_ds, axis).remove(0);
    assert!(
        r_randbet.mean_error < r_normal.mean_error - 0.05,
        "RandBET must be clearly more robust at p={p}: {} vs {}",
        r_randbet.mean_error,
        r_normal.mean_error
    );
}

#[test]
fn randbet_generalizes_to_lower_rates() {
    // Robustness at the trained rate must extend to lower rates (higher
    // voltages) — the property PattBET lacks.
    let p = 0.08;
    let (randbet, _, test_ds) = train_with(
        TrainMethod::RandBet { wmax: Some(0.2), p, variant: RandBetVariant::Standard },
        6,
        8,
    );
    let scheme = QuantScheme::rquant(SCHEME_BITS);
    let per_rate =
        robust_eval(&randbet, scheme, &test_ds, ChipAxis::uniform(vec![p, p / 2.0], 6, 700));
    let (at_train, at_half) = (&per_rate[0], &per_rate[1]);
    assert!(
        at_half.mean_error <= at_train.mean_error + 0.02,
        "lower rate must not be worse: {} vs {}",
        at_half.mean_error,
        at_train.mean_error
    );
}

#[test]
fn pattbet_fails_on_unseen_patterns() {
    // The co-adaptation failure needs a regime where the pattern actually
    // matters: a high rate and no clipping (which would add pattern-agnostic
    // robustness of its own).
    let p = 0.2;
    let fixed_seed = 31_337;
    let (patt, _, test_ds) =
        train_with(TrainMethod::PattBet { wmax: None, seed: fixed_seed, p }, 7, 8);
    let scheme = QuantScheme::rquant(SCHEME_BITS);
    // On its own pattern (chip 0 of a one-chip axis seeded with the
    // trained pattern's seed): fine.
    let own = robust_eval(&patt, scheme, &test_ds, ChipAxis::uniform(vec![p], 1, fixed_seed));
    // On random patterns: much worse.
    let random = robust_eval(&patt, scheme, &test_ds, ChipAxis::uniform(vec![p], 8, 900));
    let (own, random) = (&own[0], &random[0]);
    assert!(
        random.mean_error > own.mean_error + 0.05,
        "PattBET must not generalize to random patterns: own {} vs random {}",
        own.mean_error,
        random.mean_error
    );
}

#[test]
fn clipping_projects_all_parameters() {
    let (mut clipped, err, _) = train_with(TrainMethod::Clipping { wmax: 0.1 }, 8, 6);
    assert!(err < 0.3);
    clipped.visit_params(&mut |p| {
        assert!(p.value().abs_max() <= 0.1 + 1e-6, "clipping bound violated");
    });
}

#[test]
fn label_smoothing_reduces_clean_confidence() {
    let (train_ds, test_ds) = datasets();
    let mut results = Vec::new();
    for ls in [None, Some(0.9f32)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
        let mut model = built.model;
        let mut cfg = TrainConfig::new(
            Some(QuantScheme::rquant(SCHEME_BITS)),
            TrainMethod::Clipping { wmax: 0.2 },
        );
        cfg.epochs = 8;
        cfg.augment = AugmentConfig::none();
        cfg.label_smoothing = ls;
        let report = train(&mut model, &train_ds, &test_ds, &cfg);
        results.push(report.clean_confidence);
    }
    assert!(
        results[1] < results[0] - 0.02,
        "label smoothing must cap confidence: {} vs {}",
        results[1],
        results[0]
    );
}

#[test]
fn warmup_delays_injection_until_loss_drops() {
    let (train_ds, test_ds) = datasets();
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let built = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng);
    let mut model = built.model;
    let mut cfg = TrainConfig::new(
        Some(QuantScheme::rquant(SCHEME_BITS)),
        TrainMethod::RandBet { wmax: Some(0.2), p: 0.05, variant: RandBetVariant::Standard },
    );
    cfg.epochs = 6;
    cfg.augment = AugmentConfig::none();
    cfg.warmup_loss = 1.75;
    let report = train(&mut model, &train_ds, &test_ds, &cfg);
    // The loss starts near ln(10) ~ 2.3, so injection cannot begin at the
    // very first step but must begin eventually.
    assert!(report.bit_errors_started_at.is_some(), "injection must start");
}
