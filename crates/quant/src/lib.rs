//! # bitrobust-quant
//!
//! Bit-exact fixed-point quantization for DNN weights, reproducing the
//! scheme lattice of *"Bit Error Robustness for Energy-Efficient DNN
//! Accelerators"* (Stutz et al., MLSys 2021), Sec. 4.1 / App. D.
//!
//! A [`QuantScheme`] is a point in the four-dimensional lattice
//! `granularity × range × representation × rounding`; the paper's named
//! schemes are provided as constructors:
//!
//! | Constructor | Paper name | Tab. 1 row |
//! |---|---|---|
//! | [`QuantScheme::eq1_global`] | Eq. (1), global | 1 |
//! | [`QuantScheme::normal`] | `NORMAL` | 2 |
//! | [`QuantScheme::asymmetric_signed`] | +asymmetric | 3 |
//! | [`QuantScheme::asymmetric_unsigned`] | +unsigned | 4 |
//! | [`QuantScheme::rquant`] | `RQUANT` (+rounding) | 5 |
//!
//! Quantized weights are stored as one `u8` word per weight with only the
//! low `m` bits live ([`QuantizedTensor`]), exactly mirroring the paper's
//! implementation (App. D): bit errors XOR those words, and dequantization
//! decodes whatever the errors produced.
//!
//! # Examples
//!
//! ```
//! use bitrobust_quant::QuantScheme;
//!
//! // Quantize, flip the most significant bit of one weight, observe the
//! // characteristic large error.
//! let scheme = QuantScheme::rquant(8);
//! let mut q = scheme.quantize(&[0.02f32, -0.07, 0.11]);
//! let clean = q.dequantize();
//! q.words_mut()[1] ^= 0x80;
//! let dirty = q.dequantize();
//! assert!((dirty[1] - clean[1]).abs() > 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod quantized;
mod scheme;

pub use quantized::{QuantRange, QuantizedTensor};
pub use scheme::{Granularity, IntegerRepr, QuantScheme, RangeMode, Rounding};
