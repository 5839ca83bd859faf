//! # bitrobust-data
//!
//! Deterministic synthetic image-classification datasets standing in for
//! MNIST / CIFAR10 / CIFAR100 in the Rust reproduction of *"Bit Error
//! Robustness for Energy-Efficient DNN Accelerators"* (Stutz et al.,
//! MLSys 2021).
//!
//! The paper's robustness techniques operate on weights; the datasets
//! provide three difficulty levels against which clean error and robust
//! error are traded off. [`SynthDataset`] generates class-prototype tasks
//! reproducing that ordering (the README section "Reproducing the paper's
//! figures and tables" gives the substitution rationale), [`Dataset`]
//! holds the data, and [`augment_batch`] applies
//! the crop/flip/cutout recipe used during training.
//!
//! # Examples
//!
//! ```
//! use bitrobust_data::SynthDataset;
//!
//! let (train, test) = SynthDataset::Cifar10.generate(42);
//! assert_eq!(train.n_classes(), 10);
//! assert_eq!(train.image_shape(), [3, 16, 16]);
//! assert!(test.len() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod augment;
mod dataset;
mod synth;

pub use augment::{augment_batch, AugmentConfig};
pub use dataset::Dataset;
pub use synth::{SynthDataset, SynthSpec};
