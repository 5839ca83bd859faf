//! A small persistent thread pool with a data-parallel `parallel_for`.
//!
//! The NN substrate is compute-bound on convolution and matrix products.
//! Spawning OS threads per layer call would dominate runtime, so a single
//! process-wide pool is created lazily and reused. Work is distributed via an
//! atomic index counter (self-scheduling), which balances uneven per-item
//! costs such as im2col on boundary samples.
//!
//! The pool intentionally exposes only *fork-join* parallelism. Each
//! background worker owns a job channel and runs the jobs it receives in
//! order. `parallel_for` sends its job to every worker, runs its own share,
//! and then waits for one report per worker. Every participant reports
//! exactly once, after its last call of the closure, carrying the panic it
//! caught, if any. The submitter neither returns nor unwinds before the
//! last report, which is what makes lending non-`'static` closures to the
//! workers sound, and it then resumes a caught panic on the caller (the
//! contract of `std::thread::scope`).

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

use parking_lot::Mutex;

thread_local! {
    /// Whether the current thread is executing a pool job. Nested
    /// `parallel_for` calls from inside a job run inline instead of
    /// re-submitting: the outer fan-out already saturates the pool, and a
    /// nested submission from a worker would wait on its own job channel.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

/// RAII marker flagging the current thread as executing pool work.
struct JobScope;

impl JobScope {
    fn enter() -> Self {
        IN_POOL_JOB.with(|flag| flag.set(true));
        JobScope
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        IN_POOL_JOB.with(|flag| flag.set(false));
    }
}

/// Environment variable overriding the number of worker threads.
pub const THREADS_ENV: &str = "BITROBUST_THREADS";

/// Work items below this count run inline; the pool is not worth waking.
const SERIAL_CUTOFF: usize = 2;

type Task = dyn Fn(usize) + Sync;

/// What a participant reports: the payload of the panic it caught, if any.
type Report = Option<Box<dyn Any + Send>>;

/// One `parallel_for` call as a participant sees it.
///
/// The raw pointer borrows from the submitting stack frame. This is sound
/// because `ThreadPool::parallel_for` neither returns nor unwinds before
/// every worker it sent the job to has reported, and a worker reports only
/// after `Job::run` has returned.
#[derive(Clone)]
struct Job {
    func: *const Task,
    shared: Arc<Shared>,
}

// SAFETY: `shared` is `Send` on its own. The closure behind `func` is
// `Sync`, so calling it from another thread is sound, and `func` is only
// dereferenced in `Job::run`, which the submitting frame outlives (see
// `Job`).
unsafe impl Send for Job {}

/// The state every participant of one job shares.
struct Shared {
    n: usize,
    next: AtomicUsize,
    reports: mpsc::Sender<Report>,
}

impl Job {
    /// Claims and runs indices until none is left, and returns the panic of
    /// the closure, if it panicked. After a panic no participant claims
    /// another index.
    fn run(&self) -> Report {
        let _scope = JobScope::enter();
        let Shared { n, next, .. } = &*self.shared;
        // SAFETY: the submitter keeps the closure alive until this
        // participant has reported, which happens only after `run` returns.
        let func = unsafe { &*self.func };
        panic::catch_unwind(AssertUnwindSafe(|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= *n {
                break;
            }
            func(i);
        }))
        .err()
        .inspect(|_| next.store(*n, Ordering::Relaxed))
    }
}

/// A fixed-size fork-join thread pool.
///
/// Most users never construct one: [`parallel_for`] uses a lazily created
/// process-wide pool sized from `std::thread::available_parallelism`, capped
/// by the `BITROBUST_THREADS` environment variable.
///
/// # Examples
///
/// ```
/// let sums: Vec<std::sync::atomic::AtomicU64> =
///     (0..128).map(|_| std::sync::atomic::AtomicU64::new(0)).collect();
/// bitrobust_tensor::parallel_for(128, |i| {
///     sums[i].store(i as u64 * 2, std::sync::atomic::Ordering::Relaxed);
/// });
/// assert_eq!(sums[64].load(std::sync::atomic::Ordering::Relaxed), 128);
/// ```
pub struct ThreadPool {
    /// One job channel per background worker. Dropping the pool drops the
    /// senders, and each worker exits once its channel is drained.
    workers: Vec<mpsc::Sender<Job>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("workers", &self.workers()).finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `workers` background threads.
    ///
    /// The submitting thread also participates in each job, so total
    /// parallelism is `workers + 1`. With 0 workers every job runs inline
    /// on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread cannot be spawned.
    pub fn new(workers: usize) -> Self {
        let workers = (0..workers)
            .map(|_| {
                let (sender, inbox) = mpsc::channel::<Job>();
                std::thread::Builder::new()
                    .name("bitrobust-pool".into())
                    .spawn(move || {
                        for job in inbox {
                            // Cannot fail: the submitter keeps the receiver
                            // until every report is in.
                            let _ = job.shared.reports.send(job.run());
                        }
                    })
                    .expect("failed to spawn pool worker");
                sender
            })
            .collect();
        Self { workers }
    }

    /// Number of background worker threads (0 for a serial pool).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Invokes `f(i)` for every `i in 0..n`, distributing indices over the
    /// pool. Blocks until all invocations complete.
    ///
    /// Indices are claimed dynamically, so per-index workloads may be uneven.
    /// `f` must be safe to call concurrently from multiple threads.
    ///
    /// Nesting is supported: a `parallel_for` issued from inside a running
    /// job executes its iterations inline on the calling worker (the outer
    /// fan-out already owns the pool), so parallel layers can be driven from
    /// parallel outer loops such as the fault-injection campaign engine.
    /// Concurrent submitters do not queue on each other: each runs its own
    /// job at once, and every worker runs the jobs it receives in order.
    ///
    /// # Panics
    ///
    /// If `f` panics on any thread, no index is claimed after the panic.
    /// Once every participant has left `f`, a caught panic resumes on the
    /// caller with its original payload (the calling thread's own, if it
    /// panicked). The pool stays usable.
    pub fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n == 0 {
            return;
        }
        if self.workers.is_empty() || n < SERIAL_CUTOFF || IN_POOL_JOB.with(Cell::get) {
            bitrobust_obs::counter_add("pool.inline", 1);
            for i in 0..n {
                f(i);
            }
            return;
        }
        bitrobust_obs::counter_add("pool.jobs", 1);

        let (reports, inbox) = mpsc::channel();
        let f_ref: &(dyn Fn(usize) + Sync + '_) = &f;
        // SAFETY: lifetime erasure only; the pointer is not dereferenced
        // after this function returns or unwinds, because it first receives
        // one report from every worker the job was sent to.
        let f_static: &'static Task = unsafe { std::mem::transmute(f_ref) };
        let job = Job {
            func: f_static as *const Task,
            shared: Arc::new(Shared { n, next: AtomicUsize::new(0), reports }),
        };
        let sent = self.workers.iter().filter(|worker| worker.send(job.clone()).is_ok()).count();

        // The submitter chips in instead of idling.
        let own = job.run();
        // Collect every report before dropping any payload, so nothing can
        // unwind out of here while a worker may still be inside `f`.
        let reports: Vec<Report> =
            (0..sent).map(|_| inbox.recv().expect("the job holds a report sender")).collect();
        if let Some(payload) = own.into_iter().chain(reports.into_iter().flatten()).next() {
            panic::resume_unwind(payload);
        }
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "the pool is the one authority on machine parallelism; callers size work from shard counts"
)]
fn global_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let available = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(available)
            .clamp(1, 64);
        // The submitter participates, so spawn one fewer worker.
        ThreadPool::new(threads - 1)
    })
}

/// Runs `f(i)` for `i in 0..n` on the process-wide pool.
///
/// See [`ThreadPool::parallel_for`] for the contract on `f`, including what
/// happens when it panics.
pub fn parallel_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    global_pool().parallel_for(n, f);
}

/// Total parallelism of the process-wide pool (background workers plus the
/// submitting thread; `1` for a serial pool). This is the authoritative
/// thread count for benchmark reports — it reflects the `BITROBUST_THREADS`
/// override and clamping exactly as the pool applied them.
pub fn pool_parallelism() -> usize {
    global_pool().workers() + 1
}

/// Splits `out` into `n = out.len().div_ceil(chunk)` consecutive chunks and
/// runs `f(i, chunk_i)` in parallel, handing each invocation exclusive access
/// to its chunk.
///
/// This is the workhorse for per-sample parallelism: a batched tensor's data
/// is a contiguous buffer, and each sample occupies a disjoint `chunk`-sized
/// region.
///
/// # Panics
///
/// Panics if `chunk == 0`, and with `f`'s payload if `f` panics (as
/// [`ThreadPool::parallel_for`]).
pub fn parallel_for_disjoint_chunks<F>(out: &mut [f32], chunk: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    // Index `i` is the only one that ever locks chunk `i`, so every lock is
    // uncontended; the mutex only lets the shared closure hand out `&mut`.
    let chunks: Vec<Mutex<&mut [f32]>> = out.chunks_mut(chunk).map(Mutex::new).collect();
    parallel_for(chunks.len(), |i| f(i, &mut chunks[i].lock()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_visits_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_zero_and_one() {
        parallel_for(0, |_| panic!("must not be called"));
        let hit = AtomicUsize::new(0);
        parallel_for(1, |i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = ThreadPool::new(3);
        for round in 0..100 {
            let counter = AtomicUsize::new(0);
            pool.parallel_for(round % 7 + 1, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), round % 7 + 1);
        }
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = ThreadPool::new(0);
        let caller = std::thread::current().id();
        let counter = AtomicUsize::new(0);
        pool.parallel_for(10, |_| {
            assert_eq!(std::thread::current().id(), caller, "a serial pool runs on the caller");
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn disjoint_chunks_cover_buffer_exactly() {
        let mut buf = vec![0.0f32; 103]; // deliberately not a multiple of chunk
        parallel_for_disjoint_chunks(&mut buf, 10, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as f32 + 1.0;
            }
        });
        assert!(buf.iter().all(|&v| v > 0.0));
        assert_eq!(buf[0], 1.0);
        assert_eq!(buf[100], 11.0);
        assert_eq!(buf[102], 11.0);
    }

    #[test]
    fn disjoint_chunks_empty_buffer_is_noop() {
        let mut buf: Vec<f32> = Vec::new();
        parallel_for_disjoint_chunks(&mut buf, 4, |_, _| panic!("must not run"));
    }

    #[test]
    fn nested_parallel_for_runs_inline_without_deadlock() {
        // Every (i, j) pair must be visited exactly once; the inner call
        // runs inline on whichever thread claimed `i`.
        let hits: Vec<Vec<AtomicUsize>> =
            (0..16).map(|_| (0..8).map(|_| AtomicUsize::new(0)).collect()).collect();
        parallel_for(16, |i| {
            parallel_for(8, |j| {
                hits[i][j].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().flatten().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_disjoint_chunks_cover_buffer() {
        let results: Vec<Mutex<Vec<f32>>> = (0..6).map(|_| Mutex::new(Vec::new())).collect();
        parallel_for(6, |i| {
            let mut buf = vec![0.0f32; 32];
            parallel_for_disjoint_chunks(&mut buf, 8, |j, chunk| {
                for v in chunk.iter_mut() {
                    *v = (i * 10 + j) as f32;
                }
            });
            *results[i].lock() = buf;
        });
        for (i, slot) in results.iter().enumerate() {
            let buf = slot.lock();
            assert_eq!(buf[0], (i * 10) as f32);
            assert_eq!(buf[31], (i * 10 + 3) as f32);
        }
    }

    #[test]
    fn concurrent_submitters_share_the_workers() {
        let pool = std::sync::Arc::new(ThreadPool::new(2));
        let total = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                let total = std::sync::Arc::clone(&total);
                s.spawn(move || {
                    for _ in 0..25 {
                        pool.parallel_for(8, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 25 * 8);
    }
}
