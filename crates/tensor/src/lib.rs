//! # bitrobust-tensor
//!
//! A minimal, dependency-light `f32` tensor library purpose-built for the
//! [`bitrobust`] workspace — the Rust reproduction of *"Bit Error Robustness
//! for Energy-Efficient DNN Accelerators"* (Stutz et al., MLSys 2021).
//!
//! The crate provides:
//!
//! * [`Tensor`] — a dense row-major `f32` tensor with the constructors,
//!   elementwise operations, and reductions the NN substrate needs;
//! * matrix kernels ([`matmul`], [`matmul_nt`], [`matmul_tn`]) in the exact
//!   layouts required by hand-written backprop, all routed through one
//!   packed, cache-blocked, register-tiled GEMM (see [`gemm`]) that absorbs
//!   transposition and conv's im2col lowering at pack time, so neither a
//!   transpose nor a column matrix is ever materialized on the hot path;
//! * a persistent fork-join [`ThreadPool`] with [`parallel_for`] and
//!   [`parallel_for_disjoint_chunks`], used by the layers in `bitrobust-nn`
//!   for per-sample batch parallelism; a panic inside a fan-out reaches
//!   its caller once every worker has left the closure;
//! * a tiny binary serialization format ([`write_tensors`]/[`read_tensors`])
//!   for persisting trained models.
//!
//! # Examples
//!
//! ```
//! use bitrobust_tensor::{matmul, Tensor};
//!
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
//! let b = Tensor::from_vec(vec![2, 2], vec![0.0, 1.0, 1.0, 0.0]);
//! let c = matmul(&a, &b);
//! assert_eq!(c.data(), &[2.0, 1.0, 4.0, 3.0]);
//! ```
//!
//! [`bitrobust`]: https://example.com/bitrobust/bitrobust

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod gemm;
mod ops;
mod pool;
mod serialize;
mod tensor;

pub use gemm::GemmOperand;
pub use ops::{
    matmul, matmul_nt, matmul_nt_reference, matmul_reference, matmul_tn, matmul_tn_accumulate,
    matmul_tn_reference, softmax_rows, transpose,
};
pub use pool::{
    parallel_for, parallel_for_disjoint_chunks, pool_parallelism, ThreadPool, THREADS_ENV,
};
pub use serialize::{read_tensors, write_tensors};
pub use tensor::Tensor;
