//! The reusable fork-join scheduler behind campaigns, sweeps, training,
//! and serving.
//!
//! This module is the campaign engine's executor, extracted so every
//! batch-parallel subsystem shares one scheduling substrate instead of
//! re-implementing it:
//!
//! * the fault-injection **campaign engine** ([`crate::campaign`]) fans
//!   `(pattern, batch)` work items through [`execute_tracked`];
//! * the durable **sweep orchestrator** ([`crate::sweep`]) flattens whole
//!   multi-model plans into the same fan-out;
//! * **data-parallel training** ([`crate::data_parallel`]) runs its
//!   per-shard forward/backward passes as a `shards × 1` grid;
//! * the **inference service** (`bitrobust-serve`) executes each round of
//!   coalesced micro-batches as independent work items.
//!
//! # Execution model
//!
//! Work is an `n_tracks × n_slots` grid of *independent* units: a track is
//! one logical stream (an error pattern's replica, a training shard, a
//! served micro-batch) and a slot is one unit within it (a test batch, the
//! shard's single pass). [`execute`] fans items over the
//! `bitrobust-tensor` thread pool, writes every unit's result to its own
//! dedicated slot (no shared accumulators), and returns the full grid in
//! `(track, slot)` order so callers can reduce serially.
//!
//! A work item is a run of consecutive slots of one track. While work is
//! scarce every slot is its own item; when the unit count far exceeds the
//! pool parallelism (50 chips × 8 rates × many batches), runs are merged so
//! each hardware thread gets a few items, trading a little balance for much
//! less scheduling overhead. A single-slot track (a training shard, a
//! served micro-batch) is always exactly one item.
//!
//! # Determinism contract
//!
//! Scheduling never changes bytes. Item sizing only decides *which worker
//! computes which slots*; the per-slot values and the caller's serial
//! reduction over them are identical regardless of thread count, sizing,
//! or claim order — [`execute_serial`] is the in-order reference that pins
//! this, and the core determinism suite runs both paths at
//! `BITROBUST_THREADS=1/2/max`.
//!
//! # Persistent replicas
//!
//! Fan-outs that need per-track model state keep it in one small
//! [`ScratchReplicas`] pool instead of cloning the template model every
//! pass: a work item checks out a replica of its template (cloning only on
//! a miss), overwrites whatever state its unit reads, and parks it again,
//! so live replicas are bounded by the concurrently claimed items, not by
//! the track count. Campaigns write a pattern's weights over the
//! parameters; data-parallel training shards re-sync the parameters
//! bit-exactly and zero the gradients.

use std::sync::{Mutex, OnceLock};

use bitrobust_nn::Model;
use bitrobust_tensor::{parallel_for, pool_parallelism};

/// Upper bound on cells per streaming or lazy campaign wave, so a wave's
/// quantized images stay bounded however few batches each cell has.
const MAX_WAVE: usize = 64;

/// Work items aim for this many per hardware thread, so the pool's
/// self-scheduling can still balance uneven slot costs.
const ADAPTIVE_OVERSUBSCRIPTION: usize = 4;

/// Number of consecutive slots of one track each work item covers (see
/// the module docs). Always within `1..=n_slots`, so a single-slot track is
/// one item.
#[expect(
    clippy::disallowed_methods,
    reason = "sizes work items only; partials and their serial reduction are thread-count independent"
)]
fn slots_per_item(n_tracks: usize, n_slots: usize) -> usize {
    let total = n_tracks * n_slots;
    let target = (pool_parallelism() * ADAPTIVE_OVERSUBSCRIPTION).max(1);
    (total / target).clamp(1, n_slots.max(1))
}

/// Slots (cells, patterns) per streaming wave: small enough for frequent
/// progress delivery, large enough (≥ two work items per hardware thread)
/// to keep every core busy, and at most 64. `n_slots` is the number of
/// slots each track contributes (e.g. test batches per pattern).
#[expect(
    clippy::disallowed_methods,
    reason = "wave size batches delivery; per-slot results are computed and reduced identically at any size"
)]
pub fn wave_size(n_slots: usize) -> usize {
    (2 * pool_parallelism()).div_ceil(n_slots.max(1)).clamp(1, MAX_WAVE)
}

/// Fans an `n_tracks × n_slots` grid of independent work units over the
/// thread pool and returns every unit's result in `(track, slot)`
/// row-major order.
///
/// Work items are runs of consecutive slots of one track (see the module
/// docs); every unit's result is written to its own dedicated slot, so
/// results are independent of thread count, scheduling, *and* work-item
/// sizing — bit-identical to [`execute_serial`].
///
/// # Panics
///
/// Panics if a slot is computed twice or never (both indicate a scheduler
/// bug, not a caller error). A panic in `work` reaches the caller with its
/// own payload (see [`bitrobust_tensor::ThreadPool::parallel_for`]).
pub fn execute<T, F>(n_tracks: usize, n_slots: usize, work: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize, usize) -> T + Sync,
{
    execute_tracked(n_tracks, n_slots, |_| (), |_, track, slot| work(track, slot), |_, _| ())
}

/// [`execute`] with a per-work-item context: `init(track)` runs once as a
/// worker claims an item (a run of consecutive slots of one track), every
/// unit of the item computes through `work(&mut ctx, track, slot)`, and
/// `done(track, ctx)` releases the context when the item completes.
///
/// This is how fan-outs thread expensive per-track state (e.g. a model
/// replica checked out of a [`ScratchReplicas`] pool) through the scheduler
/// without keeping one instance per track alive: live contexts are bounded
/// by the number of concurrently claimed items, not by `n_tracks`.
///
/// The determinism contract is unchanged — contexts only carry state the
/// caller guarantees is equivalent for every item of a track, so results
/// stay bit-identical to [`execute_serial`] regardless of sizing or
/// scheduling.
///
/// # Panics
///
/// As [`execute`].
pub fn execute_tracked<C, T, I, F, D>(
    n_tracks: usize,
    n_slots: usize,
    init: I,
    work: F,
    done: D,
) -> Vec<T>
where
    T: Send + Sync,
    I: Fn(usize) -> C + Sync,
    F: Fn(&mut C, usize, usize) -> T + Sync,
    D: Fn(usize, C) + Sync,
{
    if n_tracks == 0 || n_slots == 0 {
        return Vec::new();
    }
    let group = slots_per_item(n_tracks, n_slots);
    let groups_per_track = n_slots.div_ceil(group);
    // Observability only: timings and counts are recorded, never read
    // back — results stay a function of inputs and seeds alone.
    bitrobust_obs::span!("scheduler.execute");
    bitrobust_obs::counter_add("scheduler.items", (n_tracks * groups_per_track) as u64);
    bitrobust_obs::counter_add("scheduler.slots", (n_tracks * n_slots) as u64);
    bitrobust_obs::record("scheduler.slots_per_item", group as u64);
    let partials: Vec<OnceLock<T>> = (0..n_tracks * n_slots).map(|_| OnceLock::new()).collect();
    parallel_for(n_tracks * groups_per_track, |item| {
        let track = item / groups_per_track;
        let first = (item % groups_per_track) * group;
        let last = (first + group).min(n_slots);
        let mut ctx = init(track);
        for slot in first..last {
            let value = work(&mut ctx, track, slot);
            let index = track * n_slots + slot;
            assert!(partials[index].set(value).is_ok(), "scheduler slot {index} visited twice");
        }
        done(track, ctx);
    });
    partials
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.into_inner().unwrap_or_else(|| panic!("missing partial {i}")))
        .collect()
}

/// The in-order serial reference of [`execute`]: every `(track, slot)`
/// unit on the calling thread, track-major. Bit-identical results; exists
/// for serial reference paths and the determinism suite.
pub fn execute_serial<T>(
    n_tracks: usize,
    n_slots: usize,
    mut work: impl FnMut(usize, usize) -> T,
) -> Vec<T> {
    let mut out = Vec::with_capacity(n_tracks * n_slots);
    for track in 0..n_tracks {
        for slot in 0..n_slots {
            out.push(work(track, slot));
        }
    }
    out
}

/// A checkout pool of scratch model replicas, shared by every fan-out
/// that needs per-item model state.
///
/// The pool keeps only as many replicas of a template as there are
/// concurrently claimed work items (at most the pool parallelism): a
/// worker checks a replica out at item start, overwrites the state its
/// work reads, runs, and gives the replica back. The lock is held only
/// around checkout and give-back, never across an item's work, so a
/// panicking item cannot poison it for later items.
///
/// * **Campaigns** write a pattern's integer image over the parameters and
///   evaluate via [`Model::infer`]. Patterns themselves only ever exist as
///   quantized images (~4× smaller than an `f32` replica), so campaign
///   memory does not scale with the pattern count.
/// * **Data-parallel training** ([`crate::data_parallel`]) keeps one pool
///   per training run, private to it: each shard re-syncs the parameter
///   bits and zeroes the gradients before its forward/backward.
///
/// Slots are tagged with a `source` (template identity — mixing replicas
/// of different architectures is never allowed) and a `tag` (the pattern
/// last written), so a campaign checkout that lands on a same-pattern slot
/// can skip the rewrite. Reuse is byte-identical to a fresh clone: the
/// image write ([`crate::QuantizedModel::write_to`]) and the training
/// re-sync ([`Model::set_param_tensors`]) overwrite every parameter
/// tensor; `infer` reads nothing else a previous item could have touched,
/// and a training forward overwrites every activation cache before its
/// backward reads it.
#[derive(Debug, Default)]
pub struct ScratchReplicas {
    /// `(source id, pattern tag, replica)` for every parked replica.
    slots: Mutex<Vec<(usize, usize, Model)>>,
}

impl ScratchReplicas {
    /// An empty pool; replicas are cloned by callers on checkout miss.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of parked replicas (checked-out ones are not counted).
    pub fn len(&self) -> usize {
        self.slots.lock().expect("scratch replica lock poisoned").len()
    }

    /// Whether the pool holds no parked replicas.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks out a parked replica of template `source`, returning the
    /// pattern tag it was last written with and the replica itself — or
    /// `None` if no replica of that template is parked (the caller then
    /// clones its template fresh). Replicas of other sources are left
    /// parked for their own campaigns' items.
    pub fn checkout(&self, source: usize) -> Option<(usize, Model)> {
        let mut slots = self.slots.lock().expect("scratch replica lock poisoned");
        let Some(pos) = slots.iter().position(|(s, _, _)| *s == source) else {
            bitrobust_obs::counter_add("scheduler.replica.checkout_miss", 1);
            return None;
        };
        bitrobust_obs::counter_add("scheduler.replica.checkout_reuse", 1);
        let (_, tag, replica) = slots.swap_remove(pos);
        Some((tag, replica))
    }

    /// Parks a replica for later checkout: `tag` names the pattern whose
    /// weights it currently holds, so a same-pattern checkout can skip the
    /// image rewrite.
    pub fn give_back(&self, source: usize, tag: usize, replica: Model) {
        self.slots.lock().expect("scratch replica lock poisoned").push((source, tag, replica));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{build, ArchKind, NormKind};
    use rand::SeedableRng;

    #[test]
    fn execute_covers_every_unit_in_order() {
        for (tracks, slots) in [(1, 1), (3, 5), (7, 2), (1, 17)] {
            let parallel = execute(tracks, slots, |t, s| (t, s));
            let serial = execute_serial(tracks, slots, |t, s| (t, s));
            assert_eq!(parallel, serial, "tracks {tracks} slots {slots}");
            assert_eq!(parallel.len(), tracks * slots);
        }
    }

    #[test]
    fn execute_tracked_contexts_cover_items_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        for (tracks, slots) in [(1, 1), (3, 5), (7, 2), (3, 1), (8, 1)] {
            let inits = AtomicUsize::new(0);
            let dones = AtomicUsize::new(0);
            let out = execute_tracked(
                tracks,
                slots,
                |track| {
                    inits.fetch_add(1, Ordering::Relaxed);
                    track * 100
                },
                |ctx, t, s| {
                    assert_eq!(*ctx, t * 100, "context must belong to the item's track");
                    (t, s)
                },
                |track, ctx| {
                    assert_eq!(ctx, track * 100);
                    dones.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(out, execute_serial(tracks, slots, |t, s| (t, s)));
            // Every init is paired with a done; the item count depends on
            // sizing but contexts never leak.
            let (inits, dones) = (inits.into_inner(), dones.into_inner());
            assert_eq!(inits, dones);
            assert!(inits >= tracks);
            if slots == 1 {
                // One item per single-slot track: a data-parallel shard or
                // a served micro-batch is never merged with another.
                assert_eq!(inits, tracks, "tracks {tracks}: single-slot tracks are one item each");
            }
        }
    }

    #[test]
    fn scratch_replicas_checkout_prefers_matching_source() {
        let model = tiny_model();
        let pool = ScratchReplicas::new();
        assert!(pool.is_empty());
        assert!(pool.checkout(0).is_none());

        pool.give_back(0, 42, model.clone());
        pool.give_back(1, 7, model.clone());
        assert_eq!(pool.len(), 2);

        // Source 0's replica comes back with its pattern tag; source 1's
        // stays parked.
        let (tag, replica) = pool.checkout(0).expect("source 0 parked");
        assert_eq!(tag, 42);
        assert_eq!(pool.len(), 1);
        assert!(pool.checkout(0).is_none(), "other sources must not be drained");
        pool.give_back(0, 43, replica);
        assert_eq!(pool.checkout(1).expect("source 1 parked").0, 7);
    }

    #[test]
    fn execute_empty_grid_is_empty() {
        assert!(execute(0, 5, |_, _| 0u8).is_empty());
        assert!(execute(5, 0, |_, _| 0u8).is_empty());
    }

    #[test]
    fn slots_per_item_bounds() {
        // Always within [1, n_slots].
        for (tracks, slots) in [(1, 1), (50, 8), (2, 1000), (64, 1)] {
            let g = slots_per_item(tracks, slots);
            assert!((1..=slots).contains(&g), "tracks {tracks} slots {slots}: {g}");
        }
    }

    #[test]
    fn wave_size_is_positive_and_capped() {
        for slots in [0usize, 1, 8, 10_000] {
            let w = wave_size(slots);
            assert!((1..=MAX_WAVE).contains(&w), "slots {slots}: {w}");
        }
    }

    fn tiny_model() -> Model {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        build(ArchKind::Mlp, [1, 8, 8], 4, NormKind::Group, &mut rng).model
    }
}
