//! # bitrobust-integration
//!
//! An umbrella crate that owns the repository-level `tests/` and
//! `examples/` directories (declared with explicit paths in this crate's
//! manifest, since the workspace root is a virtual manifest) and re-exports
//! every `bitrobust` crate under one roof for convenience:
//!
//! ```
//! use bitrobust_integration::quant::QuantScheme;
//!
//! let q = QuantScheme::rquant(8).quantize(&[0.1f32, -0.2]);
//! assert_eq!(q.words().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod rules;

pub use bitrobust_biterror as biterror;
pub use bitrobust_core as core;
pub use bitrobust_data as data;
pub use bitrobust_experiments as experiments;
pub use bitrobust_nn as nn;
pub use bitrobust_quant as quant;
pub use bitrobust_sram as sram;
pub use bitrobust_tensor as tensor;
