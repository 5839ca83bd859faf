//! # bitrobust-core
//!
//! The Rust reproduction of *"Bit Error Robustness for Energy-Efficient DNN
//! Accelerators"* (Stutz, Chandramoorthy, Hein, Schiele — MLSys 2021).
//!
//! DNN accelerators can cut SRAM energy quadratically by operating below
//! the rated voltage `Vmin`, at the cost of exponentially growing random
//! bit errors in the stored weights. The paper — and this crate — makes
//! DNNs robust to those errors with three stacked techniques:
//!
//! 1. **Robust quantization** (`RQUANT`): per-layer, asymmetric, unsigned
//!    fixed-point quantization with proper rounding
//!    ([`bitrobust_quant::QuantScheme::rquant`]).
//! 2. **Weight clipping** (`CLIPPING`): constraining weights to
//!    `[-wmax, wmax]` during training, which together with the
//!    cross-entropy loss forces redundant weight usage
//!    ([`TrainMethod::Clipping`], [`redundancy_metrics`], [`relu_relevance`]).
//! 3. **Random bit error training** (`RANDBET`, Alg. 1): injecting fresh
//!    random bit errors into the quantized weights at every training step
//!    and averaging clean and perturbed gradients
//!    ([`TrainMethod::RandBet`]).
//!
//! The crate also implements the non-generalizing fixed-pattern baseline
//! (`PATTBET`, [`TrainMethod::PattBet`]), the `Err`/`RErr` evaluation
//! protocol ([`evaluate`]; [`robust_eval`], a one-model [`run_sweep`])
//! backed by the parallel fault-injection [`campaign`] engine (the
//! [`Campaign`] builder), the reusable fork-join [`scheduler`] every
//! batch-parallel subsystem (campaigns, sweeps, data-parallel training, the
//! `bitrobust-serve` inference service) runs through, the [`sweep`]
//! orchestrator that runs every uniform or profiled-chip axis (multi-model
//! × multi-axis campaigns, optionally checkpointed to a resumable on-disk
//! [`SweepStore`] — [`run_sweep`]), deterministic data-parallel training
//! ([`TrainConfig::data_parallel`] → [`data_parallel`]), the Prop. 1
//! generalization bound ([`deviation_bound`]), and the energy trade-off
//! analysis combining the SRAM voltage/energy models with measured RErr
//! curves ([`energy_tradeoff`]).
//!
//! # Examples
//!
//! Train a small model with RandBET and measure its robustness:
//!
//! ```no_run
//! use bitrobust_core::{
//!     build, robust_eval, train, ArchKind, ChipAxis, NormKind, RandBetVariant, TrainConfig,
//!     TrainMethod,
//! };
//! use bitrobust_data::SynthDataset;
//! use bitrobust_quant::QuantScheme;
//! use rand::SeedableRng;
//!
//! let (train_ds, test_ds) = SynthDataset::Cifar10.generate(0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let built = build(ArchKind::SimpleNet, [3, 16, 16], 10, NormKind::Group, &mut rng);
//! let mut model = built.model;
//!
//! let scheme = QuantScheme::rquant(8);
//! let method = TrainMethod::RandBet {
//!     wmax: Some(0.1),
//!     p: 0.01,
//!     variant: RandBetVariant::Standard,
//! };
//! let report = train(&mut model, &train_ds, &test_ds, &TrainConfig::new(Some(scheme), method));
//! // 20 uniform random chips (seeds 1000..1020) at p = 1%.
//! let robust = robust_eval(&model, scheme, &test_ds, ChipAxis::uniform(vec![0.01], 20, 1000));
//! println!("Err {:.2}% RErr {:.2}%", 100.0 * report.clean_error, 100.0 * robust[0].mean_error);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod bound;
pub mod campaign;
pub mod data_parallel;
mod ecc;
mod energy;
mod eval;
mod qmodel;
mod redundancy;
pub mod scheduler;
pub mod store;
pub mod sweep;
mod train;

pub use arch::{build, ArchKind, BuiltModel, NormKind};
pub use bound::{deviation_bound, deviation_probability};
pub use campaign::{Campaign, ChipAxis};
pub use data_parallel::{DataParallel, TRAIN_SHARDS};
pub use ecc::{apply_secded, multi_error_probability, DoubleErrorPolicy, EccStats, SecdedConfig};
pub use energy::{best_saving_within, energy_tradeoff, TradeoffPoint};
pub use eval::{
    evaluate, evaluate_serial, quantized_error, robust_eval, EvalResult, RobustEval, EVAL_BATCH,
};
pub use qmodel::QuantizedModel;
pub use redundancy::{redundancy_metrics, relu_relevance, RedundancyMetrics};
pub use scheduler::ScratchReplicas;
pub use store::{CellRecord, StoreError, SweepStore};
pub use sweep::{run_sweep, SweepAxis, SweepCell, SweepModel, SweepOptions, SweepResults};
pub use train::{train, PattPattern, RandBetVariant, TrainConfig, TrainMethod, TrainReport};
