//! A disk-backed zoo of trained models.
//!
//! Reproducing the paper requires dozens of trained models (quantization
//! schemes × clipping levels × RandBET rates × datasets × precisions), and
//! several tables share models. The zoo trains each configuration once and
//! caches the parameters under `target/zoo/`, keyed by the full training
//! configuration; subsequent experiment binaries reload in milliseconds.

use std::fs;
use std::path::PathBuf;

use bitrobust_core::{
    build, scheduler, train, ArchKind, DataParallel, NormKind, RandBetVariant, TrainConfig,
    TrainMethod, TrainReport,
};
use bitrobust_data::{AugmentConfig, Dataset, SynthDataset};
use bitrobust_nn::Model;
use bitrobust_quant::QuantScheme;
use bitrobust_tensor::pool_parallelism;
use rand::SeedableRng;

/// The dataset a zoo model is trained on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// The MNIST stand-in.
    Mnist,
    /// The CIFAR10 stand-in (the paper's main benchmark).
    Cifar10,
    /// The CIFAR100 stand-in.
    Cifar100,
}

impl DatasetKind {
    /// The synthetic generator.
    pub fn synth(self) -> SynthDataset {
        match self {
            DatasetKind::Mnist => SynthDataset::Mnist,
            DatasetKind::Cifar10 => SynthDataset::Cifar10,
            DatasetKind::Cifar100 => SynthDataset::Cifar100,
        }
    }

    /// Image shape `[c, h, w]`.
    pub fn image_shape(self) -> [usize; 3] {
        let spec = self.synth().spec();
        [spec.channels, spec.size, spec.size]
    }

    /// Number of classes.
    pub fn n_classes(self) -> usize {
        self.synth().spec().n_classes
    }

    /// Default architecture (the paper: SimpleNet on MNIST/CIFAR10, a wide
    /// model on CIFAR100).
    pub fn default_arch(self) -> ArchKind {
        match self {
            DatasetKind::Mnist | DatasetKind::Cifar10 => ArchKind::SimpleNet,
            DatasetKind::Cifar100 => ArchKind::WideSimpleNet,
        }
    }

    /// Default epoch budget (scaled from the paper's 100/250).
    pub fn default_epochs(self) -> usize {
        match self {
            DatasetKind::Mnist => 12,
            DatasetKind::Cifar10 => 20,
            DatasetKind::Cifar100 => 18,
        }
    }

    /// RandBET warm-up loss threshold (1.75 / 3.5 in the paper).
    pub fn warmup_loss(self) -> f32 {
        match self {
            DatasetKind::Cifar100 => 3.5,
            _ => 1.75,
        }
    }

    /// Augmentation recipe.
    pub fn augment(self) -> AugmentConfig {
        match self {
            DatasetKind::Mnist => AugmentConfig::mnist(),
            _ => AugmentConfig::cifar(),
        }
    }

    /// Short name used in keys and tables.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Mnist => "mnist",
            DatasetKind::Cifar10 => "cifar10",
            DatasetKind::Cifar100 => "cifar100",
        }
    }
}

/// Generates the (train, test) pair for a dataset kind.
pub fn dataset_pair(kind: DatasetKind, seed: u64) -> (Dataset, Dataset) {
    kind.synth().generate(seed)
}

/// A fully specified training configuration for the zoo.
#[derive(Debug, Clone)]
pub struct ZooSpec {
    /// Dataset.
    pub dataset: DatasetKind,
    /// Architecture.
    pub arch: ArchKind,
    /// Normalization.
    pub norm: NormKind,
    /// Quantization scheme during training (`None` = float training).
    pub scheme: Option<QuantScheme>,
    /// Training method.
    pub method: TrainMethod,
    /// Label smoothing target.
    pub label_smoothing: Option<f32>,
    /// Epochs.
    pub epochs: usize,
    /// Seed (training data, init, shuffling, per-step chips).
    pub seed: u64,
}

impl ZooSpec {
    /// A standard spec: default architecture/epochs for the dataset.
    pub fn new(dataset: DatasetKind, scheme: Option<QuantScheme>, method: TrainMethod) -> Self {
        Self {
            dataset,
            arch: dataset.default_arch(),
            norm: NormKind::Group,
            scheme,
            method,
            label_smoothing: None,
            epochs: dataset.default_epochs(),
            seed: 0,
        }
    }

    /// A stable, filename-safe cache key encoding the full configuration.
    pub fn key(&self) -> String {
        let arch = match self.arch {
            ArchKind::SimpleNet => "simplenet",
            ArchKind::WideSimpleNet => "widesimplenet",
            ArchKind::ResNetMini => "resnetmini",
            ArchKind::Mlp => "mlp",
        };
        let norm = match self.norm {
            NormKind::Group => "gn",
            NormKind::Batch => "bn",
        };
        let scheme = match &self.scheme {
            None => "float".to_string(),
            Some(s) => s.key(),
        };
        let method = match &self.method {
            TrainMethod::Normal => "normal".to_string(),
            TrainMethod::Clipping { wmax } => format!("clip{wmax:.3}"),
            TrainMethod::RandBet { wmax, p, variant } => {
                let v = match variant {
                    RandBetVariant::Standard => "std",
                    RandBetVariant::Curricular => "cur",
                    RandBetVariant::Alternating => "alt",
                    RandBetVariant::PerturbedOnly => "ponly",
                };
                format!(
                    "randbet-w{}-p{p:.4}-{v}",
                    wmax.map_or("none".into(), |w| format!("{w:.3}"))
                )
            }
            TrainMethod::PattBet { wmax, seed, p } => {
                format!(
                    "pattbet-w{}-u{seed}p{p:.4}",
                    wmax.map_or("none".into(), |w| format!("{w:.3}"))
                )
            }
        };
        let ls = self.label_smoothing.map_or("ls0".to_string(), |t| format!("ls{t:.2}"));
        // The execution plan is part of the numerical identity of the
        // trained weights: data-parallel training at k shards is a
        // different float trajectory than the single-model path, so a
        // cache written under one plan must never serve the other.
        let dp = match self.train_config().data_parallel {
            Some(d) => format!("dp{}", d.shards),
            None => "dp0".to_string(),
        };
        format!(
            "{}-{arch}-{norm}-{scheme}-{method}-{ls}-e{}-s{}-{dp}",
            self.dataset.name(),
            self.epochs,
            self.seed
        )
    }

    /// The spec's training configuration: the dataset's warm-up loss and
    /// augmentation, the spec's epochs, seed and label smoothing, and
    /// data-parallel training at [`DataParallel::protocol`] unless the
    /// model uses BatchNorm.
    pub fn train_config(&self) -> TrainConfig {
        let mut cfg = TrainConfig::new(self.scheme, self.method);
        cfg.label_smoothing = self.label_smoothing;
        cfg.epochs = self.epochs;
        cfg.warmup_loss = self.dataset.warmup_loss();
        cfg.augment = self.dataset.augment();
        cfg.seed = self.seed;
        // Zoo training is data-parallel at the protocol shard count: the
        // fixed count keeps trained weights identical on every machine and
        // thread count, while single-model trainings (tab3/tab4-style
        // binaries) get real wall-clock wins. Under `warm_zoo`'s own
        // fan-out the shard loop runs inline on the claiming worker, so
        // nothing is lost when many models train at once. BatchNorm specs
        // must stay on the single-model path (whole-batch statistics).
        if self.norm != NormKind::Batch {
            cfg.data_parallel = Some(DataParallel::protocol());
        }
        cfg
    }

    /// The spec's untrained model: its architecture and normalization,
    /// initialized from the spec's seed.
    pub fn initial_model(&self) -> Model {
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed ^ 0xA2C4);
        build(self.arch, self.dataset.image_shape(), self.dataset.n_classes(), self.norm, &mut rng)
            .model
    }
}

fn zoo_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BITROBUST_ZOO") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/zoo")
}

/// Returns the trained model for `spec`, training and caching it if needed.
///
/// A cache miss trains on `dataset_pair(spec.dataset, spec.seed)`, generated
/// here and only then: the spec's seed names its training data as well as
/// its initialization, so a cache key never names a model trained on other
/// data. The report's clean error is measured on that pair's test split.
///
/// Models using BatchNorm bypass the cache (their running statistics are
/// not serialized).
///
/// # Panics
///
/// Panics on cache I/O errors other than "not found", and on a `.brts` or
/// `.meta` that is truncated or garbled (corrupt cache files should be
/// deleted rather than silently retrained).
pub fn zoo_model(spec: &ZooSpec, no_cache: bool) -> (Model, TrainReport) {
    let mut model = spec.initial_model();

    let cacheable = spec.norm != NormKind::Batch;
    let dir = zoo_dir();
    let params_path = dir.join(format!("{}.brts", spec.key()));
    let meta_path = dir.join(format!("{}.meta", spec.key()));

    if cacheable && !no_cache && params_path.exists() && meta_path.exists() {
        let file = fs::File::open(&params_path).expect("open cached params");
        model.load_params(std::io::BufReader::new(file)).expect("read cached params");
        let text = fs::read_to_string(&meta_path).expect("read cached meta");
        let report = read_meta(&text).unwrap_or_else(|e| {
            panic!("corrupt zoo cache {}: {e}; delete it to retrain", meta_path.display())
        });
        return (model, report);
    }

    let (train_ds, test_ds) = dataset_pair(spec.dataset, spec.seed);
    let report = train(&mut model, &train_ds, &test_ds, &spec.train_config());

    if cacheable && !no_cache {
        fs::create_dir_all(&dir).expect("create zoo dir");
        let file = fs::File::create(&params_path).expect("create params cache");
        model.save_params(std::io::BufWriter::new(file)).expect("write params cache");
        fs::write(&meta_path, write_meta(&report)).expect("write meta cache");
    }
    (model, report)
}

/// Whether a zoo warmup of `n_unique` trainings should run them
/// sequentially with full *inner* parallelism instead of fanning models
/// out over the pool.
///
/// The pool runs nested `parallel_for` inline on the claiming worker, so
/// an outer model-level fan-out caps each training at one core. With at
/// least as many models as threads that is ideal (every core trains a
/// model); with a *small* zoo it starves the machine — 2 models on 16
/// cores would leave 14 idle. In that regime it is faster to train the
/// models one after another and let each training's own fan-outs
/// (data-parallel shards and batch-parallel evaluation) own the
/// whole pool. The crossover is heuristic: inner parallelism never scales
/// perfectly, so sequential-inner only wins clearly while the model count
/// is at most about half the thread count.
///
/// Scheduling never changes bytes: each training is self-contained and
/// byte-deterministic, so both modes produce identical models.
fn inner_parallel_warmup(n_unique: usize, parallelism: usize) -> bool {
    n_unique * 2 <= parallelism
}

/// Ensures every spec is trained and cached. Returns one `(model, report)`
/// per spec, in input order.
///
/// Large spec lists fan out through [`scheduler::execute`] (one training
/// per work item, nested fan-outs inline); small lists — fewer models than
/// half the threads — train sequentially so each training's inner
/// parallelism can use the whole pool instead. Either way the zoo and
/// everything downstream (e.g. the multi-model sweep
/// orchestrator's evaluation fan-out) share the one process-wide pool, and
/// results are bit-identical to calling [`zoo_model`] per spec serially.
///
/// Duplicate specs (same [`ZooSpec::key`]) are trained once and cloned, so
/// no two workers ever touch the same cache file. As in [`zoo_model`],
/// each spec's training data come from its own seed.
///
/// This is the cache-warmup path for experiment binaries that need many
/// models: warm the zoo once, then reload per model in milliseconds.
#[expect(
    clippy::disallowed_methods,
    reason = "the thread count picks where training runs, not what it computes: a model trains identically on either path"
)]
pub fn warm_zoo(specs: &[ZooSpec], no_cache: bool) -> Vec<(Model, TrainReport)> {
    // Dedupe by cache key; remember which unique entry serves each spec.
    let mut unique: Vec<&ZooSpec> = Vec::new();
    let mut keys: Vec<String> = Vec::new();
    let assignment: Vec<usize> = specs
        .iter()
        .map(|spec| {
            let key = spec.key();
            match keys.iter().position(|k| *k == key) {
                Some(i) => i,
                None => {
                    keys.push(key);
                    unique.push(spec);
                    unique.len() - 1
                }
            }
        })
        .collect();

    let trained: Vec<(Model, TrainReport)> =
        if inner_parallel_warmup(unique.len(), pool_parallelism()) {
            // Few models, many cores: train sequentially on this thread so
            // the nested fan-outs inside each training get the whole pool.
            unique.iter().map(|spec| zoo_model(spec, no_cache)).collect()
        } else {
            scheduler::execute(unique.len(), 1, |i, _| zoo_model(unique[i], no_cache))
        };
    assignment.into_iter().map(|i| trained[i].clone()).collect()
}

fn write_meta(r: &TrainReport) -> String {
    let losses: Vec<String> = r.epoch_losses.iter().map(|l| l.to_string()).collect();
    format!(
        "final_loss={}\nclean_error={}\nclean_confidence={}\nstarted_at={}\nepoch_losses={}\n",
        r.final_loss,
        r.clean_error,
        r.clean_confidence,
        r.bit_errors_started_at.map_or(-1i64, |e| e as i64),
        losses.join(",")
    )
}

/// Parses a `.meta` file written by [`write_meta`]. Every key must be
/// present and parse, and the file must end in its final newline; an
/// empty `epoch_losses=` is valid. A truncated or garbled file is an
/// error, never a report with defaulted fields.
fn read_meta(text: &str) -> Result<TrainReport, String> {
    let fields: Vec<(&str, &str)> = text.lines().filter_map(|l| l.split_once('=')).collect();
    let field = |key: &str| {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("missing `{key}`"))
    };
    fn parse<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
        v.parse().map_err(|_| format!("`{key}={v}` does not parse"))
    }
    // Fields are read in file order, so a truncated file names the first
    // key it lost.
    let final_loss = parse("final_loss", field("final_loss")?)?;
    let clean_error = parse("clean_error", field("clean_error")?)?;
    let clean_confidence = parse("clean_confidence", field("clean_confidence")?)?;
    let started_at: i64 = parse("started_at", field("started_at")?)?;
    let losses = field("epoch_losses")?;
    let epoch_losses = if losses.is_empty() {
        Vec::new()
    } else {
        losses.split(',').map(|l| parse("epoch_losses", l)).collect::<Result<_, _>>()?
    };
    // A cut inside the last line can still leave parseable numbers.
    if !text.ends_with('\n') {
        return Err("no final newline: the file was cut off mid-write".to_string());
    }
    Ok(TrainReport {
        final_loss,
        clean_error,
        clean_confidence,
        bit_errors_started_at: usize::try_from(started_at).ok(),
        epoch_losses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_distinct_and_stable() {
        let a =
            ZooSpec::new(DatasetKind::Cifar10, Some(QuantScheme::rquant(8)), TrainMethod::Normal);
        let b = ZooSpec::new(
            DatasetKind::Cifar10,
            Some(QuantScheme::rquant(8)),
            TrainMethod::Clipping { wmax: 0.1 },
        );
        assert_ne!(a.key(), b.key());
        assert_eq!(a.key(), a.key());
        assert!(a.key().contains("cifar10"));
        assert!(b.key().contains("clip0.100"));
        // Cached PATTBET models load by these exact keys.
        let pattbet = |wmax| {
            let method = TrainMethod::PattBet { wmax, seed: 777_777, p: 0.025 };
            ZooSpec::new(DatasetKind::Cifar10, Some(QuantScheme::rquant(8)), method).key()
        };
        assert_eq!(
            pattbet(None),
            "cifar10-simplenet-gn-q8laun-pattbet-wnone-u777777p0.0250-ls0-e20-s0-dp8"
        );
        assert_eq!(
            pattbet(Some(0.15)),
            "cifar10-simplenet-gn-q8laun-pattbet-w0.150-u777777p0.0250-ls0-e20-s0-dp8"
        );
    }

    /// The execution plan is part of the cache identity: data-parallel
    /// weights are a different float trajectory than single-model ones, so
    /// caches written before the dp rollout (or by the BatchNorm fallback)
    /// must never be served to a dp training and vice versa.
    #[test]
    fn keys_encode_the_execution_plan() {
        let dp =
            ZooSpec::new(DatasetKind::Cifar10, Some(QuantScheme::rquant(8)), TrainMethod::Normal);
        assert!(dp.key().ends_with("-dp8"), "{}", dp.key());
        let mut single = dp.clone();
        single.norm = NormKind::Batch;
        assert!(single.key().ends_with("-dp0"), "{}", single.key());
    }

    #[test]
    fn keys_distinguish_schemes() {
        let rq =
            ZooSpec::new(DatasetKind::Cifar10, Some(QuantScheme::rquant(8)), TrainMethod::Normal);
        let nm =
            ZooSpec::new(DatasetKind::Cifar10, Some(QuantScheme::normal(8)), TrainMethod::Normal);
        let fl = ZooSpec::new(DatasetKind::Cifar10, None, TrainMethod::Normal);
        assert_ne!(rq.key(), nm.key());
        assert_ne!(rq.key(), fl.key());
    }

    #[test]
    fn meta_round_trip() {
        let r = TrainReport {
            final_loss: 0.5,
            clean_error: 0.043,
            clean_confidence: 0.97,
            bit_errors_started_at: Some(3),
            epoch_losses: vec![1.25, 0.75, 0.5],
        };
        let back = read_meta(&write_meta(&r)).expect("round trip");
        assert_eq!(back, r);
        let r2 = TrainReport { bit_errors_started_at: None, epoch_losses: Vec::new(), ..r };
        assert_eq!(read_meta(&write_meta(&r2)), Ok(r2));
    }

    /// A `.meta` cut off mid-write (the file is written after the `.brts`)
    /// must fail to load instead of reading back as a 0%-error model.
    #[test]
    fn truncated_meta_is_rejected() {
        let err = read_meta("final_loss=0.5\nclean_er").expect_err("truncated meta loaded");
        assert!(err.contains("clean_error"), "{err}");
        // Cut inside the loss list: every key is present and parses.
        let full = "final_loss=0.5\nclean_error=0.1\nclean_confidence=0.9\nstarted_at=-1\n\
                    epoch_losses=1.25,0.75\n";
        assert!(read_meta(full).is_ok());
        let err = read_meta(&full[..full.len() - 3]).expect_err("cut loss list loaded");
        assert!(err.contains("cut off"), "{err}");
    }

    #[test]
    fn non_numeric_meta_value_is_rejected() {
        let r = TrainReport {
            final_loss: 0.5,
            clean_error: 0.043,
            clean_confidence: 0.97,
            bit_errors_started_at: None,
            epoch_losses: vec![1.25, 0.5],
        };
        let garbled = write_meta(&r).replace("clean_error=0.043", "clean_error=abc");
        let err = read_meta(&garbled).expect_err("garbled meta loaded");
        assert!(err.contains("clean_error=abc"), "{err}");
        let bad_loss = write_meta(&r).replace("1.25,0.5", "1.25,x");
        assert!(read_meta(&bad_loss).is_err());
    }

    #[test]
    fn warm_zoo_matches_serial_training_and_dedupes() {
        let mut spec =
            ZooSpec::new(DatasetKind::Mnist, Some(QuantScheme::rquant(8)), TrainMethod::Normal);
        spec.epochs = 2;
        let mut other = spec.clone();
        other.seed = 1;

        // Bypass the on-disk cache so the test exercises the training path.
        let specs = vec![spec.clone(), other.clone(), spec.clone()];
        let warmed = warm_zoo(&specs, true);
        assert_eq!(warmed.len(), 3);

        let (serial_model, serial_report) = zoo_model(&spec, true);
        assert_eq!(warmed[0].1, serial_report, "parallel warmup must match serial training");
        assert_eq!(warmed[0].0.param_tensors(), serial_model.param_tensors());
        // Duplicate specs share one training run.
        assert_eq!(warmed[0].0.param_tensors(), warmed[2].0.param_tensors());
        assert_eq!(warmed[0].1, warmed[2].1);
        // Distinct seeds are genuinely different runs.
        assert_ne!(warmed[0].1, warmed[1].1);
    }

    /// A spec's seed names its training data: a cache miss trains on
    /// `dataset_pair(dataset, seed)`, never on another seed's data.
    #[test]
    fn zoo_model_trains_on_the_data_its_seed_names() {
        let mut spec =
            ZooSpec::new(DatasetKind::Mnist, Some(QuantScheme::rquant(8)), TrainMethod::Normal);
        spec.arch = ArchKind::Mlp;
        spec.epochs = 1;
        spec.seed = 1;
        let (model, report) = zoo_model(&spec, true);

        let (train_ds, test_ds) = dataset_pair(DatasetKind::Mnist, 1);
        let mut expected = spec.initial_model();
        let expected_report = train(&mut expected, &train_ds, &test_ds, &spec.train_config());
        assert_eq!(report, expected_report);
        assert_eq!(model.param_tensors(), expected.param_tensors());
    }

    /// The warmup scheduling crossover: sequential-inner-parallel only
    /// while the unique model count is at most half the thread count.
    #[test]
    fn warmup_scheduling_crossover() {
        assert!(inner_parallel_warmup(1, 2));
        assert!(inner_parallel_warmup(2, 4));
        assert!(inner_parallel_warmup(4, 8));
        assert!(!inner_parallel_warmup(5, 8));
        assert!(!inner_parallel_warmup(8, 8));
        assert!(!inner_parallel_warmup(1, 1));
        assert!(!inner_parallel_warmup(16, 4));
    }

    #[test]
    fn dataset_kind_metadata() {
        assert_eq!(DatasetKind::Cifar100.n_classes(), 100);
        assert_eq!(DatasetKind::Mnist.image_shape(), [1, 14, 14]);
        assert_eq!(DatasetKind::Cifar100.warmup_loss(), 3.5);
    }
}
