//! Minimal command-line options shared by all experiment binaries.

use bitrobust_core::TrainMethod;
use bitrobust_quant::QuantScheme;

use crate::zoo::{DatasetKind, ZooSpec};

/// Options parsed from the command line.
///
/// Every experiment binary accepts:
///
/// * `--quick` — fewer epochs and chips (smoke-test mode);
/// * `--chips N` — number of random chips for RErr averaging;
/// * `--seed S` — base RNG seed: it generates the evaluation data and seeds
///   each zoo model's training data and initialization
///   ([`ExpOptions::zoo_spec`]);
/// * `--no-cache` — ignore the model zoo cache and retrain.
///
/// Binaries that drive the sweep orchestrator additionally accept:
///
/// * `--resume` — reuse the on-disk sweep store, skipping completed cells
///   (the default: resuming is always byte-safe because cells are keyed by
///   a content hash of their full identity);
/// * `--fresh` — delete the binary's sweep store first and recompute every
///   cell.
///
/// All binaries also accept `--obs <spec>` (`off|counters|trace` or
/// `trace:<path>`), which overrides the `BITROBUST_OBS` environment
/// variable; see `bitrobust_obs` for the full schema. Observability is
/// bit-neutral — results are identical with it on or off.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Reduced-effort mode for smoke tests.
    pub quick: bool,
    /// Number of random chips per RErr estimate.
    pub chips: usize,
    /// Base seed.
    pub seed: u64,
    /// Skip the on-disk model cache.
    pub no_cache: bool,
    /// Delete the sweep store before running (`--fresh`); the default is
    /// to resume from it.
    pub fresh: bool,
    /// `--obs` spec, if given (applied by [`ExpOptions::from_args`];
    /// `parse` stays a pure function for tests).
    pub obs: Option<String>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        Self { quick: false, chips: 20, seed: 0, no_cache: false, fresh: false, obs: None }
    }
}

impl ExpOptions {
    /// Parses `std::env::args`, ignoring unknown flags, and applies the
    /// `--obs` spec (if any) to the global observability config. A bad
    /// spec aborts with a usage message rather than silently recording
    /// nothing.
    pub fn from_args() -> Self {
        let opts = Self::parse(&std::env::args().skip(1).collect::<Vec<String>>());
        if let Some(spec) = &opts.obs {
            match bitrobust_obs::ObsConfig::parse(spec) {
                Ok(cfg) => bitrobust_obs::init(&cfg.with_env_paths()),
                Err(e) => {
                    eprintln!("--obs: {e}");
                    std::process::exit(2);
                }
            }
        }
        opts
    }

    /// Parses an argument list (exposed separately so flag handling is
    /// unit-testable; later flags win).
    pub fn parse(args: &[String]) -> Self {
        let mut opts = Self::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => {
                    opts.quick = true;
                    opts.chips = opts.chips.min(5);
                }
                "--no-cache" => opts.no_cache = true,
                "--fresh" => opts.fresh = true,
                "--resume" => opts.fresh = false,
                "--chips" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.chips = v;
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.seed = v;
                        i += 1;
                    }
                }
                "--obs" => {
                    if let Some(v) = args.get(i + 1) {
                        opts.obs = Some(v.clone());
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }

    /// Scales an epoch budget down in quick mode.
    pub fn epochs(&self, full: usize) -> usize {
        if self.quick {
            (full / 3).max(2)
        } else {
            full
        }
    }

    /// The zoo spec for one of this run's models: the dataset's defaults,
    /// with [`ExpOptions::epochs`] applied to its epoch budget and the run's
    /// `--seed` as its seed (so `--seed` picks the model's training data
    /// and initialization, and its cache key says so).
    pub fn zoo_spec(
        &self,
        dataset: DatasetKind,
        scheme: Option<QuantScheme>,
        method: TrainMethod,
    ) -> ZooSpec {
        let mut spec = ZooSpec::new(dataset, scheme, method);
        spec.epochs = self.epochs(spec.epochs);
        spec.seed = self.seed;
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ExpOptions {
        ExpOptions::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_are_sane() {
        let o = ExpOptions::default();
        assert!(!o.quick);
        assert_eq!(o.chips, 20);
        assert!(!o.fresh, "sweeps resume by default");
    }

    #[test]
    fn quick_reduces_epochs() {
        let mut o = ExpOptions::default();
        assert_eq!(o.epochs(30), 30);
        o.quick = true;
        assert_eq!(o.epochs(30), 10);
        assert_eq!(o.epochs(3), 2);
    }

    #[test]
    fn zoo_specs_take_the_run_seed_and_quick_epochs() {
        // The key encodes every field of a spec.
        let (kind, scheme) = (DatasetKind::Cifar10, Some(QuantScheme::rquant(8)));
        let mut expected = ZooSpec::new(kind, scheme, TrainMethod::Normal);
        let full = parse(&[]).zoo_spec(kind, scheme, TrainMethod::Normal);
        assert_eq!(full.key(), expected.key());

        let quick = parse(&["--quick", "--seed", "3"]).zoo_spec(kind, scheme, TrainMethod::Normal);
        (expected.epochs, expected.seed) = (6, 3);
        assert_eq!(quick.key(), expected.key());
    }

    #[test]
    fn parses_flags_and_values() {
        let o = parse(&["--quick", "--chips", "3", "--seed", "7", "--no-cache"]);
        assert!(o.quick);
        assert_eq!(o.chips, 3);
        assert_eq!(o.seed, 7);
        assert!(o.no_cache);
        // Unknown flags are ignored, missing values leave defaults.
        let o = parse(&["--wat", "--chips"]);
        assert_eq!(o.chips, 20);
    }

    #[test]
    fn obs_spec_is_captured_not_applied_by_parse() {
        assert_eq!(parse(&[]).obs, None);
        assert_eq!(
            parse(&["--obs", "trace:/tmp/t.json"]).obs.as_deref(),
            Some("trace:/tmp/t.json")
        );
        // parse() never validates or installs the spec — that happens in
        // from_args, keeping this function pure for tests.
        assert_eq!(parse(&["--obs", "not-a-level"]).obs.as_deref(), Some("not-a-level"));
        assert_eq!(parse(&["--obs"]).obs, None);
    }

    #[test]
    fn fresh_and_resume_toggle_with_last_flag_winning() {
        assert!(parse(&["--fresh"]).fresh);
        assert!(!parse(&["--resume"]).fresh);
        assert!(!parse(&["--fresh", "--resume"]).fresh);
        assert!(parse(&["--resume", "--fresh"]).fresh);
    }
}
