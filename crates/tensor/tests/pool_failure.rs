//! Failure semantics of the thread pool: a panic anywhere in a fan-out
//! reaches the caller of `parallel_for` with its own payload, only after
//! every participant has left the closure, and the pool stays usable.
//!
//! Each `case_*` test runs in a child process: the deadline test
//! re-executes this test binary once per case at `BITROBUST_THREADS` = 1, 2
//! and the machine maximum, and kills any child that outlives
//! [`DEADLINE`]. A pool that hangs on a panic therefore fails the suite
//! instead of hanging it.

#![expect(
    clippy::disallowed_methods,
    reason = "a deadline needs a wall clock, and the cases are chosen by the pool's thread count"
)]

use std::panic::{self, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bitrobust_tensor::{parallel_for, parallel_for_disjoint_chunks, pool_parallelism, THREADS_ENV};

/// How long one case may run before the deadline test kills it.
const DEADLINE: Duration = Duration::from_secs(30);

const CASES: [&str; 4] = [
    "case_panic_on_a_pool_thread",
    "case_panic_on_the_calling_thread",
    "case_panic_in_a_nested_parallel_for",
    "case_panic_in_disjoint_chunks",
];

#[test]
fn every_case_passes_within_its_deadline_at_1_2_and_max_threads() {
    let exe = std::env::current_exe().expect("test binary path");
    let max = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for threads in [1, 2, max] {
        for case in CASES {
            let mut child = Command::new(&exe)
                .args([case, "--exact", "--ignored"])
                .env(THREADS_ENV, threads.to_string())
                .env("RUST_BACKTRACE", "0")
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn case");
            let start = Instant::now();
            while child.try_wait().expect("poll case").is_none() {
                if start.elapsed() > DEADLINE {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("{case} at {THREADS_ENV}={threads} still ran after {DEADLINE:?}");
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let output = child.wait_with_output().expect("case output");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success() && stdout.contains("1 passed"),
                "{case} failed at {THREADS_ENV}={threads}:\n{stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
        }
    }
}

fn on_pool_thread() -> bool {
    std::thread::current().name() == Some("bitrobust-pool")
}

/// Sleeps until `done` holds, for at most 10 s.
fn wait_until(done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Whether the calling thread is the one a case panics on: a pool thread
/// if the pool has workers, else the thread that called `parallel_for`.
/// Any other thread holds here until the panic site is reached, so that a
/// worker claims an index.
fn panic_site(reached: &AtomicBool) -> bool {
    if on_pool_thread() || pool_parallelism() == 1 {
        reached.store(true, Ordering::SeqCst);
        return true;
    }
    wait_until(|| reached.load(Ordering::SeqCst));
    false
}

/// Runs `f`, which must panic with a string literal, and returns the
/// message that reached this caller.
fn caught(f: impl FnOnce()) -> &'static str {
    let payload =
        panic::catch_unwind(AssertUnwindSafe(f)).expect_err("the panic must reach the caller");
    *payload.downcast::<&'static str>().expect("the closure's own payload")
}

/// The pool must still complete a normal job after a panic.
fn assert_pool_works() {
    let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
    parallel_for(hits.len(), |i| {
        hits[i].fetch_add(1, Ordering::Relaxed);
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

/// Counts the threads inside a closure; leaving by a panic counts too.
struct Inside<'a>(&'a AtomicUsize);

impl<'a> Inside<'a> {
    fn enter(count: &'a AtomicUsize) -> Self {
        count.fetch_add(1, Ordering::SeqCst);
        Self(count)
    }
}

impl Drop for Inside<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
#[ignore = "run in a child process by the deadline test"]
fn case_panic_on_a_pool_thread() {
    let reached = AtomicBool::new(false);
    // With no workers there is no pool thread, so nothing panics.
    let job = || {
        parallel_for(64, |_| {
            if panic_site(&reached) && on_pool_thread() {
                panic!("panic on a pool thread");
            }
        })
    };
    if pool_parallelism() > 1 {
        assert_eq!(caught(job), "panic on a pool thread");
    } else {
        job();
    }
    assert_pool_works();
}

#[test]
#[ignore = "run in a child process by the deadline test"]
fn case_panic_on_the_calling_thread() {
    let caller = std::thread::current().id();
    let inside = AtomicUsize::new(0);
    let message = caught(|| {
        parallel_for(64, |_| {
            let _inside = Inside::enter(&inside);
            if std::thread::current().id() == caller {
                // Panic only once a worker is inside too, so the caller has
                // to wait for it to leave.
                if pool_parallelism() > 1 {
                    wait_until(|| inside.load(Ordering::SeqCst) > 1);
                }
                panic!("panic on the calling thread");
            }
            std::thread::sleep(Duration::from_millis(100));
        })
    });
    assert_eq!(message, "panic on the calling thread");
    assert_eq!(inside.load(Ordering::SeqCst), 0, "a participant is still inside the closure");
    assert_pool_works();
}

#[test]
#[ignore = "run in a child process by the deadline test"]
fn case_panic_in_a_nested_parallel_for() {
    let reached = AtomicBool::new(false);
    let message = caught(|| {
        parallel_for(16, |_| {
            parallel_for(8, |j| {
                if j == 5 && panic_site(&reached) {
                    panic!("panic in a nested parallel_for");
                }
            })
        })
    });
    assert_eq!(message, "panic in a nested parallel_for");
    assert_pool_works();
}

#[test]
#[ignore = "run in a child process by the deadline test"]
fn case_panic_in_disjoint_chunks() {
    let reached = AtomicBool::new(false);
    let mut buf = vec![0.0f32; 64];
    let message = caught(|| {
        parallel_for_disjoint_chunks(&mut buf, 4, |_, chunk| {
            if panic_site(&reached) {
                panic!("panic in a disjoint chunk");
            }
            chunk.fill(1.0);
        })
    });
    assert_eq!(message, "panic in a disjoint chunk");
    parallel_for_disjoint_chunks(&mut buf, 4, |i, chunk| chunk.fill(i as f32));
    assert_eq!(buf[63], 15.0);
    assert_pool_works();
}
