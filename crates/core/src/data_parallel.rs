//! Deterministic data-parallel training backend.
//!
//! Alg. 1 training was the last exclusive-access hot path: evaluation went
//! batch-parallel over `&Model` in the campaign engine, but every training
//! forward/backward still serialized through `&mut Model`. This module
//! shards each mini-batch over **backward-capable replicas** and combines
//! their gradients deterministically, so RandBET/PattBET training scales
//! the same way evaluation does.
//!
//! # Execution model
//!
//! Per forward/backward pass, the mini-batch's rows are split into
//! [`DataParallel::shards`] contiguous shards (sizes differing by at most
//! one). Shards run as a `shards × 1` grid on the shared
//! [`crate::scheduler`] executor, each against a replica checked out of
//! the training run's [`ScratchReplicas`] pool, the same pool type every
//! campaign uses. A checkout miss clones the model ([`Model::clone`] —
//! parameters and normalization state; caches start empty); later passes
//! reuse the parked replicas, so live replicas are bounded by the shards
//! running at once, not by the shard count. Each shard worker:
//!
//! 1. copies the current parameters onto its replica
//!    ([`Model::set_param_tensors`] — an exact bit copy) and zeroes the
//!    replica's gradients,
//! 2. runs `forward(Mode::Train)` + `backward` on its shard, with the
//!    loss normalized by the *full* batch size
//!    ([`CrossEntropyLoss::compute_scaled`]),
//! 3. gives the replica back to the pool, and
//! 4. hands back `(loss_sum, grad_tensors)`.
//!
//! Replica reuse is byte-identical to cloning fresh every pass, whichever
//! shard last held the replica: parameter sync is exact, forward
//! overwrites every activation cache unconditionally, and each pass starts
//! from zeroed gradients. Shard results land in per-shard scheduler slots,
//! then the gradient buffers are combined with the fixed-shape serial
//! [`tree_reduce_grads`] and the loss sums are added in shard order.
//!
//! # Determinism contract
//!
//! The combined gradient and loss are **bit-identical regardless of thread
//! count** (`BITROBUST_THREADS=1`, `2`, max — pinned by the core
//! determinism suite), because each shard's computation is independent and
//! itself thread-count-deterministic, and everything that mixes shards is
//! serial with a fixed shape. [`DataParallel::serial`] routes the shard
//! loop through an in-order serial execution of the *same* shard
//! computations so tests can prove exactly that. The shard **count** is
//! part of the numerical contract (it decides where float sums split), so
//! it lives in the config — deliberately not derived from the pool size —
//! and experiment protocols fix it at [`TRAIN_SHARDS`].
//!
//! BatchNorm models are rejected: training-mode BatchNorm couples rows
//! through whole-batch statistics and updates running state, which
//! per-shard replicas would silently compute per-shard and then discard.

use bitrobust_nn::{tree_reduce_grads, CrossEntropyLoss, Mode, Model};
use bitrobust_tensor::Tensor;

use crate::scheduler::{self, ScratchReplicas};

/// Shard count fixed by the experiment protocol (zoo training, paper
/// reproduction binaries): enough to keep typical core counts busy, small
/// enough that per-shard batches stay substantial, and — because the shard
/// count decides where float sums split — constant so published numbers
/// are identical on every machine.
pub const TRAIN_SHARDS: usize = 8;

/// Configuration of data-parallel training (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataParallel {
    /// Number of contiguous shards each mini-batch is split into. Part of
    /// the numerical contract: changing it changes where float gradient
    /// sums split (thread count, by design, does not).
    pub shards: usize,
    /// Route the shard loop through an in-order serial execution instead of
    /// the thread pool. Results are bit-identical either way — this exists
    /// so the determinism suite can prove exactly that.
    pub serial: bool,
}

impl DataParallel {
    /// Data-parallel training over `shards` shards on the thread pool.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "data-parallel training needs at least one shard");
        Self { shards, serial: false }
    }

    /// The experiment-protocol configuration: [`TRAIN_SHARDS`] shards.
    pub fn protocol() -> Self {
        Self::new(TRAIN_SHARDS)
    }
}

/// The result of one sharded pass over a mini-batch.
pub(crate) struct ShardedPass {
    /// Batch-mean loss (shard loss sums reduced in shard order, f64).
    pub loss: f32,
    /// Gradient of the batch-mean loss, in parameter visit order, already
    /// tree-reduced across shards; `None` for a forward-only pass.
    pub grads: Option<Vec<Tensor>>,
}

/// Balanced contiguous shard boundaries: `rows` rows into `n` ranges whose
/// sizes differ by at most one, earlier shards taking the remainder.
fn shard_bounds(rows: usize, n: usize) -> Vec<(usize, usize)> {
    let base = rows / n;
    let rem = rows % n;
    (0..n)
        .map(|s| {
            let start = s * base + s.min(rem);
            let end = start + base + usize::from(s < rem);
            (start, end)
        })
        .collect()
}

/// Copies rows `start..end` of a batched tensor into a new tensor.
fn slice_rows(x: &Tensor, start: usize, end: usize) -> Tensor {
    let rows = x.dim(0);
    // Full assert, not debug_assert: shard disjointness is what lets the
    // per-shard buffers be merged without aliasing; check it in release too.
    assert!(start < end && end <= rows, "shard rows {start}..{end} out of 0..{rows}");
    let sample = x.numel() / rows;
    let mut shape = x.shape().to_vec();
    shape[0] = end - start;
    Tensor::from_vec(shape, x.data()[start * sample..end * sample].to_vec())
}

/// One data-parallel forward (and, with `need_grads`, backward) over
/// `(x, labels)` against the current state of `model` (which is only read;
/// gradients come back in the returned buffers and are merged by the
/// caller). `need_grads: false` skips the per-shard backward, gradient
/// extraction, and reduction entirely — the warm-up latch only needs the
/// loss when the clean gradient is about to be discarded (the
/// PerturbedOnly ablation past warm-up).
///
/// `replicas` is the training run's replica pool: callers keep it alive
/// across passes so replicas are cloned on a miss and merely re-synced
/// afterwards. It must hold only replicas of `model`'s architecture, so a
/// campaign's pool is never passed here. A fresh pool per call is always
/// correct — just slower — and byte-identical either way.
///
/// Empty shards cannot occur: the effective shard count is capped at the
/// row count, so a final partial mini-batch smaller than the configured
/// shard count simply uses fewer shards.
pub(crate) fn sharded_forward_backward(
    model: &Model,
    x: &Tensor,
    labels: &[usize],
    loss_fn: &CrossEntropyLoss,
    dp: &DataParallel,
    need_grads: bool,
    replicas: &ScratchReplicas,
) -> ShardedPass {
    let rows = x.dim(0);
    assert!(rows > 0, "cannot train on an empty mini-batch");
    assert_eq!(labels.len(), rows, "labels/batch size mismatch");
    // `DataParallel`'s fields are public; re-establish the `new` invariant
    // here so a literal `shards: 0` fails with intent, not a divide-by-zero.
    assert!(dp.shards > 0, "data-parallel training needs at least one shard");

    let n_shards = dp.shards.min(rows);
    let bounds = shard_bounds(rows, n_shards);
    let params = model.param_tensors();
    let run_shard = |s: usize| {
        bitrobust_obs::span!("train.shard");
        let (start, end) = bounds[s];
        let shard_x = slice_rows(x, start, end);
        // Any parked replica will do: re-sync it to the current model
        // state — exact parameter bits, gradients from zero (a replica
        // keeps whatever its previous pass accumulated).
        let mut replica = replicas.checkout(0).map_or_else(|| model.clone(), |(_, r)| r);
        replica.set_param_tensors(&params);
        replica.zero_grads();
        let out = {
            bitrobust_obs::span!("train.forward");
            let logits = replica.forward(&shard_x, Mode::Train);
            loss_fn.compute_scaled(&logits, &labels[start..end], rows)
        };
        let grads = if need_grads {
            bitrobust_obs::span!("train.backward");
            replica.backward(&out.grad);
            replica.grad_tensors()
        } else {
            Vec::new()
        };
        replicas.give_back(0, 0, replica);
        (out.loss_sum, grads)
    };

    let parts: Vec<(f64, Vec<Tensor>)> = if dp.serial {
        scheduler::execute_serial(n_shards, 1, |s, _| run_shard(s))
    } else {
        scheduler::execute(n_shards, 1, |s, _| run_shard(s))
    };

    let mut loss_sum = 0f64;
    let mut buffers = Vec::with_capacity(n_shards);
    for (shard_loss, shard_grads) in parts {
        loss_sum += shard_loss;
        buffers.push(shard_grads);
    }
    bitrobust_obs::counter_add("train.shards", n_shards as u64);
    ShardedPass {
        loss: (loss_sum / rows as f64) as f32,
        grads: need_grads.then(|| {
            bitrobust_obs::span!("train.reduce");
            tree_reduce_grads(buffers)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{build, ArchKind, NormKind};
    use bitrobust_data::SynthDataset;
    use rand::SeedableRng;

    fn setup(batch: usize) -> (Model, Tensor, Vec<usize>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let model = build(ArchKind::Mlp, [1, 14, 14], 10, NormKind::Group, &mut rng).model;
        let (train_ds, _) = SynthDataset::Mnist.generate(0);
        let (x, labels) = train_ds.batch_range(0, batch);
        (model, x, labels)
    }

    fn grad_bits(grads: &[Tensor]) -> Vec<u32> {
        grads.iter().flat_map(|t| t.data().iter().map(|v| v.to_bits())).collect()
    }

    #[test]
    fn shard_bounds_are_balanced_and_cover_all_rows() {
        for rows in [1usize, 5, 8, 17, 128] {
            for n in 1..=rows.min(9) {
                let bounds = shard_bounds(rows, n);
                assert_eq!(bounds.len(), n);
                assert_eq!(bounds[0].0, 0);
                assert_eq!(bounds[n - 1].1, rows);
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "shards must be contiguous");
                }
                let sizes: Vec<usize> = bounds.iter().map(|(s, e)| e - s).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "rows {rows} shards {n}: {sizes:?}");
                assert!(*min >= 1);
            }
        }
    }

    #[test]
    fn slice_rows_matches_dataset_range() {
        let (_, x, _) = setup(12);
        let s = slice_rows(&x, 3, 7);
        assert_eq!(s.shape(), &[4, 1, 14, 14]);
        let sample = 14 * 14;
        assert_eq!(s.data(), &x.data()[3 * sample..7 * sample]);
    }

    /// A single shard is exactly the direct forward/backward on the model:
    /// same loss bits, same gradient bits.
    #[test]
    fn one_shard_matches_direct_backward_bit_for_bit() {
        let (mut model, x, labels) = setup(32);
        let loss_fn = CrossEntropyLoss::new();

        let pass = sharded_forward_backward(
            &model,
            &x,
            &labels,
            &loss_fn,
            &DataParallel::new(1),
            true,
            &ScratchReplicas::new(),
        );

        model.zero_grads();
        let logits = model.forward(&x, Mode::Train);
        let out = loss_fn.compute(&logits, &labels);
        model.backward(&out.grad);

        assert_eq!(pass.loss.to_bits(), out.loss.to_bits());
        let grads = pass.grads.expect("gradients were requested");
        assert_eq!(grad_bits(&grads), grad_bits(&model.grad_tensors()));
    }

    /// Parallel and serial shard execution must be byte-identical for every
    /// shard count, including counts exceeding the row count.
    #[test]
    fn parallel_matches_serial_reference_for_all_shard_counts() {
        let (model, x, labels) = setup(19);
        let loss_fn = CrossEntropyLoss::new();
        for shards in [1usize, 2, 3, 8, 64] {
            let parallel = sharded_forward_backward(
                &model,
                &x,
                &labels,
                &loss_fn,
                &DataParallel { shards, serial: false },
                true,
                &ScratchReplicas::new(),
            );
            let serial = sharded_forward_backward(
                &model,
                &x,
                &labels,
                &loss_fn,
                &DataParallel { shards, serial: true },
                true,
                &ScratchReplicas::new(),
            );
            assert_eq!(parallel.loss.to_bits(), serial.loss.to_bits(), "shards {shards}");
            assert_eq!(
                grad_bits(&parallel.grads.expect("requested")),
                grad_bits(&serial.grads.expect("requested")),
                "shards {shards}"
            );
        }
    }

    /// Sharding approximates the direct gradient to float tolerance (the
    /// exact bits legitimately differ: the split changes summation order).
    #[test]
    fn sharded_gradient_is_numerically_the_batch_gradient() {
        let (mut model, x, labels) = setup(40);
        let loss_fn = CrossEntropyLoss::new();
        let pass = sharded_forward_backward(
            &model,
            &x,
            &labels,
            &loss_fn,
            &DataParallel::new(4),
            true,
            &ScratchReplicas::new(),
        );

        model.zero_grads();
        let logits = model.forward(&x, Mode::Train);
        let out = loss_fn.compute(&logits, &labels);
        model.backward(&out.grad);

        assert!((pass.loss - out.loss).abs() < 1e-5);
        let direct = model.grad_tensors();
        for (s, d) in pass.grads.expect("requested").iter().zip(&direct) {
            for (sv, dv) in s.data().iter().zip(d.data()) {
                assert!((sv - dv).abs() < 1e-5, "{sv} vs {dv}");
            }
        }
    }

    /// The primary model is untouched: no gradient, parameter, or cache
    /// changes leak out of a sharded pass.
    #[test]
    fn model_state_is_untouched() {
        let (mut model, x, labels) = setup(16);
        model.zero_grads();
        let params_before = model.param_tensors();
        let grads_before = model.grad_tensors();
        let _ = sharded_forward_backward(
            &model,
            &x,
            &labels,
            &CrossEntropyLoss::new(),
            &DataParallel::protocol(),
            true,
            &ScratchReplicas::new(),
        );
        assert_eq!(model.param_tensors(), params_before);
        assert_eq!(model.grad_tensors(), grads_before);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = DataParallel::new(0);
    }

    /// The public fields can bypass `DataParallel::new`; the pass itself
    /// must still reject a zero shard count with the intended message.
    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_literal_is_rejected_by_the_pass() {
        let (model, x, labels) = setup(8);
        let _ = sharded_forward_backward(
            &model,
            &x,
            &labels,
            &CrossEntropyLoss::new(),
            &DataParallel { shards: 0, serial: false },
            true,
            &ScratchReplicas::new(),
        );
    }

    /// A forward-only pass (the PerturbedOnly warm-up latch) yields the
    /// same loss bits as the full pass and skips gradient work entirely.
    #[test]
    fn forward_only_pass_matches_loss_and_skips_grads() {
        let (model, x, labels) = setup(24);
        let loss_fn = CrossEntropyLoss::new();
        let full = sharded_forward_backward(
            &model,
            &x,
            &labels,
            &loss_fn,
            &DataParallel::new(4),
            true,
            &ScratchReplicas::new(),
        );
        let loss_only = sharded_forward_backward(
            &model,
            &x,
            &labels,
            &loss_fn,
            &DataParallel::new(4),
            false,
            &ScratchReplicas::new(),
        );
        assert_eq!(loss_only.loss.to_bits(), full.loss.to_bits());
        assert!(loss_only.grads.is_none());
    }

    /// Different shard counts split the float gradient sums differently:
    /// the bits must actually depend on the configured count (this is what
    /// makes the count part of the numerical contract).
    #[test]
    fn shard_count_changes_gradient_summation() {
        let (model, x, labels) = setup(128);
        let loss_fn = CrossEntropyLoss::new();
        let two = sharded_forward_backward(
            &model,
            &x,
            &labels,
            &loss_fn,
            &DataParallel::new(2),
            true,
            &ScratchReplicas::new(),
        );
        let four = sharded_forward_backward(
            &model,
            &x,
            &labels,
            &loss_fn,
            &DataParallel::new(4),
            true,
            &ScratchReplicas::new(),
        );
        assert_ne!(
            grad_bits(&two.grads.expect("requested")),
            grad_bits(&four.grads.expect("requested")),
            "gradient bits must depend on the shard count"
        );
    }

    /// Pooled replicas must be byte-identical to fresh clones on every
    /// pass, whichever shard last held them, including after the model's
    /// parameters change between passes (as every optimizer step does).
    #[test]
    fn persistent_replicas_match_fresh_clones_across_passes() {
        let (model, x, labels) = setup(32);
        let loss_fn = CrossEntropyLoss::new();
        let dp = DataParallel::new(4);
        let pool = ScratchReplicas::new();

        let pass = |model: &Model, pool: &ScratchReplicas| {
            sharded_forward_backward(model, &x, &labels, &loss_fn, &dp, true, pool)
        };

        let first_pooled = pass(&model, &pool);
        let first_fresh = pass(&model, &ScratchReplicas::new());
        assert_eq!(first_pooled.loss.to_bits(), first_fresh.loss.to_bits());
        assert_eq!(
            grad_bits(&first_pooled.grads.expect("requested")),
            grad_bits(&first_fresh.grads.expect("requested"))
        );

        // Step the model as an optimizer would, then re-run with the same
        // (now stale-parameter) pool vs a fresh one.
        let mut stepped = model.clone();
        let updated: Vec<Tensor> = stepped
            .param_tensors()
            .iter()
            .map(|t| {
                Tensor::from_vec(t.shape().to_vec(), t.data().iter().map(|v| v * 0.9).collect())
            })
            .collect();
        stepped.set_param_tensors(&updated);

        let second_pooled = pass(&stepped, &pool);
        let second_fresh = pass(&stepped, &ScratchReplicas::new());
        assert_eq!(second_pooled.loss.to_bits(), second_fresh.loss.to_bits());
        assert_eq!(
            grad_bits(&second_pooled.grads.expect("requested")),
            grad_bits(&second_fresh.grads.expect("requested"))
        );
        assert_ne!(
            first_pooled.loss.to_bits(),
            second_pooled.loss.to_bits(),
            "the parameter step must actually change the pass"
        );
    }

    /// Live replicas are bounded by the shards running at once: a pass
    /// over 8 shards parks at most one replica per pool thread, never one
    /// per shard.
    #[test]
    fn replicas_are_bounded_by_concurrent_shards() {
        let (model, x, labels) = setup(32);
        let pool = ScratchReplicas::new();
        let _ = sharded_forward_backward(
            &model,
            &x,
            &labels,
            &CrossEntropyLoss::new(),
            &DataParallel::new(8),
            true,
            &pool,
        );
        let bound = 8.min(bitrobust_tensor::pool_parallelism());
        assert!((1..=bound).contains(&pool.len()), "{} replicas, bound {bound}", pool.len());
    }
}
