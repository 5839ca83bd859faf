//! # bitrobust-serve
//!
//! An inference service for the bitrobust model stack, built on the same
//! fork-join [`scheduler`](bitrobust_core::scheduler) that runs the
//! fault-injection campaigns, sweeps, and data-parallel training — one
//! executor, every batch-parallel subsystem.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──submit──▶ [bounded queue] ──wave──▶ [micro-batcher]
//!                        │ shed when full          │ groups by (model, shape)
//!                        ▼                         ▼
//!                     Overloaded            [scheduler::execute]
//!                                            one work item per micro-batch
//!                                                  │
//!  [model registry] ◀──resolve at submit──         ▼
//!    hot-swap via Arc            responses delivered in wave order
//! ```
//!
//! - **[`ModelRegistry`]**: named, versioned models behind `Arc` swaps.
//!   [`ModelRegistry::publish`] under a live service is a zero-downtime
//!   hot-swap: requests already submitted keep the model they resolved,
//!   later submissions get the new version, and every response reports
//!   the version that served it.
//! - **Bounded queue + admission control**: the queue holds at most
//!   [`ServeConfig::queue_capacity`] pending requests; beyond that,
//!   [`InferenceService::submit`] sheds with [`SubmitError::Overloaded`]
//!   instead of buffering without bound. Shed requests are counted
//!   ([`ServeStats::shed`]) — nothing is silently dropped, and shutdown
//!   drains (serves, not discards) everything still queued.
//! - **Dynamic micro-batching**: single-image requests are coalesced into
//!   engine-sized batches — the engine waits up to
//!   [`ServeConfig::max_delay`] past the oldest pending request for more
//!   traffic, then fans the wave's micro-batches out through
//!   [`bitrobust_core::scheduler::execute`].
//!
//! ## Determinism
//!
//! Every inference kernel is row-independent (im2col matmul, GroupNorm,
//! pooling, and row softmax all operate per sample), so a request's
//! response is **byte-identical** to running its image alone through
//! [`reference_response`] — regardless of which requests it was batched
//! with, the batch size, or the thread count. The serve integration suite
//! pins this against concurrent synthetic clients.
//!
//! ## Caveats
//!
//! Requests are grouped by (model, image shape), so a request can only
//! ever be batched with shape-compatible peers; an image whose shape does
//! not match its model's input will panic the engine thread, as the same
//! tensor would panic [`bitrobust_nn::Model::infer`] directly. Submitting
//! well-formed single-sample images (`[1, C, H, W]`) is the caller's
//! contract. A dead engine stops admitting work: the requests it held or
//! had queued are dropped, so their [`Ticket::wait`] panics, later
//! submissions fail with [`SubmitError::ShuttingDown`], and
//! [`InferenceService::shutdown`] panics to report the death.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod queue;
pub mod registry;
pub mod service;

pub use batcher::coalesce;
pub use queue::{BoundedQueue, PushError};
pub use registry::{ModelRegistry, ServedModel};
pub use service::{
    reference_response, InferenceService, ServeConfig, ServeResponse, ServeStats, SubmitError,
    Ticket,
};
