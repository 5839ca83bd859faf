//! # bitrobust-nn
//!
//! A from-scratch neural-network substrate with hand-written backprop,
//! built for the Rust reproduction of *"Bit Error Robustness for
//! Energy-Efficient DNN Accelerators"* (Stutz et al., MLSys 2021).
//!
//! The paper's training schemes (quantization-aware training, weight
//! clipping, random bit error training) all revolve around swapping
//! parameter tensors around forward/backward passes; this crate provides
//! exactly the pieces that workflow needs:
//!
//! * layers with deterministic parameter order and **accumulating**
//!   gradients ([`Conv2d`], [`Linear`], [`GroupNorm`], [`BatchNorm2d`],
//!   [`Relu`], [`MaxPool2d`], [`GlobalAvgPool`], [`Flatten`], [`Sequential`],
//!   [`Residual`]);
//! * [`CrossEntropyLoss`] with the paper's label-smoothing variant;
//! * [`Sgd`] with momentum/weight decay and the paper's [`MultiStepLr`]
//!   schedule;
//! * a [`Model`] wrapper with parameter snapshot/restore, clipping,
//!   serialization, and a gradient buffer API
//!   ([`Model::grad_tensors`] / [`Model::accumulate_grads`] plus the
//!   fixed-shape [`tree_reduce_grads`] reduction) for deterministic
//!   data-parallel training;
//! * a finite-difference [`gradcheck`] harness validating every layer.
//!
//! Normalization layers implement the paper's App. E reparameterization
//! (`scale = 1 + alpha'`) so aggressive weight clipping cannot pin scales
//! below one, and [`BatchNorm2d`] supports evaluation with batch statistics
//! to reproduce the BN-fragility ablation (Tab. 10).
//!
//! # Examples
//!
//! ```
//! use bitrobust_nn::{CrossEntropyLoss, Linear, Mode, Model, Relu, Sequential, Sgd};
//! use bitrobust_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Sequential::new();
//! net.push(Linear::new(4, 16, &mut rng));
//! net.push(Relu::new());
//! net.push(Linear::new(16, 2, &mut rng));
//! let mut model = Model::new("demo", net);
//!
//! let x = Tensor::rand_uniform(&[8, 4], -1.0, 1.0, &mut rng);
//! let labels = [0usize, 1, 0, 1, 0, 1, 0, 1];
//! let mut sgd = Sgd::new(0.1, 0.9, 5e-4);
//! for _ in 0..3 {
//!     model.zero_grads();
//!     let logits = model.forward(&x, Mode::Train);
//!     let out = CrossEntropyLoss::new().compute(&logits, &labels);
//!     model.backward(&out.grad);
//!     sgd.step(&mut model);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod container;
mod conv;
mod grad;
pub mod gradcheck;
pub mod init;
mod layer;
mod linear;
mod loss;
mod model;
mod norm;
mod optim;
mod param;
mod pooling;

pub use activation::Relu;
pub use container::{Flatten, Residual, Sequential};
pub use conv::{Conv2d, CONV_COL_PANEL};
pub use grad::tree_reduce_grads;
pub use layer::{Layer, Mode};
pub use linear::Linear;
pub use loss::{CrossEntropyLoss, LossOutput};
pub use model::Model;
pub use norm::{BatchNorm2d, GroupNorm};
pub use optim::{MultiStepLr, Sgd};
pub use param::{Param, ParamKind};
pub use pooling::{GlobalAvgPool, MaxPool2d};
