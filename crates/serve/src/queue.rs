//! The bounded request queue: admission control on the way in, wave
//! collection on the way out.
//!
//! Producers [`push`](BoundedQueue::push) and are rejected (shed) when the
//! queue is at capacity or closed — shed items are counted, never silently
//! dropped. The single consumer (the engine thread) blocks in
//! [`wait_wave`](BoundedQueue::wait_wave) until traffic arrives, then
//! holds the wave open until either `max_batch` requests are pending or
//! `max_delay` has passed since the **oldest** pending request was
//! enqueued — the dynamic micro-batching window. Closing the queue wakes
//! the consumer immediately; the final waves drain every remaining item
//! so shutdown serves, rather than discards, the backlog.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a [`BoundedQueue::push`] was rejected. Either way the item was
/// shed: it never entered the queue, and the shed counter was bumped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue held `capacity` items.
    Full,
    /// [`BoundedQueue::close`] or [`BoundedQueue::abandon`] was called.
    Closed,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<(Instant, T)>,
    shed: u64,
    closed: bool,
}

/// A bounded MPSC queue with shed accounting and deadline-based wave
/// collection. See the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` pending items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 (every push would shed).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            state: Mutex::new(QueueState { items: VecDeque::new(), shed: 0, closed: false }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item`, or sheds it (dropping it and counting the shed)
    /// when the queue is full or closed.
    pub fn push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        if state.closed {
            state.shed += 1;
            return Err(PushError::Closed);
        }
        if state.items.len() >= self.capacity {
            state.shed += 1;
            return Err(PushError::Full);
        }
        state.items.push_back((Instant::now(), item));
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until at least one item is pending (or the queue is closed),
    /// then keeps the wave open until `max_batch` items are pending or
    /// `max_delay` has elapsed since the oldest pending item was pushed —
    /// whichever comes first — and drains **all** pending items.
    ///
    /// Returns `None` once the queue is closed *and* empty; a close with
    /// items still pending yields them as a final wave first, so no
    /// admitted item is ever lost.
    pub fn wait_wave(&self, max_batch: usize, max_delay: Duration) -> Option<Vec<T>> {
        let mut state = self.state.lock().expect("queue lock poisoned");
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock poisoned");
        }
        let deadline = state.items.front().expect("non-empty queue").0 + max_delay;
        while !state.closed && state.items.len() < max_batch {
            let now = Instant::now();
            let Some(remaining) = deadline.checked_duration_since(now).filter(|d| !d.is_zero())
            else {
                break;
            };
            let (next, timeout) =
                self.available.wait_timeout(state, remaining).expect("queue lock poisoned");
            state = next;
            if timeout.timed_out() {
                break;
            }
        }
        Some(state.items.drain(..).map(|(_, item)| item).collect())
    }

    /// Closes the queue: subsequent pushes shed with [`PushError::Closed`]
    /// and the consumer drains whatever is left, then sees `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue lock poisoned").closed = true;
        self.available.notify_all();
    }

    /// Closes the queue and drops every pending item, for a consumer that
    /// stops for good: pushes shed with [`PushError::Closed`] from now on,
    /// and no admitted item waits for a wave that will never come.
    pub fn abandon(&self) {
        // Called from drop guards, possibly while unwinding, so it must not
        // panic. Every update leaves the state valid, so a poisoned lock is
        // safe to use.
        let mut state = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        state.closed = true;
        state.items.clear();
    }

    /// Items shed so far (full- and closed-queue rejections).
    pub fn shed_count(&self) -> u64 {
        self.state.lock().expect("queue lock poisoned").shed
    }

    /// Pending (admitted, not yet drained) items.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock poisoned").items.len()
    }

    /// Whether no items are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_exactly_beyond_capacity() {
        let queue = BoundedQueue::new(3);
        for i in 0..3 {
            assert_eq!(queue.push(i), Ok(()));
        }
        assert_eq!(queue.push(3), Err(PushError::Full));
        assert_eq!(queue.push(4), Err(PushError::Full));
        assert_eq!(queue.shed_count(), 2);
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn wave_drains_fifo_and_close_ends_the_stream() {
        let queue = BoundedQueue::new(8);
        for i in 0..5 {
            queue.push(i).unwrap();
        }
        // max_batch already exceeded → no deadline wait.
        let wave = queue.wait_wave(4, Duration::from_secs(60)).unwrap();
        assert_eq!(wave, vec![0, 1, 2, 3, 4], "drains everything pending, in order");
        queue.close();
        assert_eq!(queue.push(9), Err(PushError::Closed));
        assert_eq!(queue.wait_wave(4, Duration::from_secs(60)), None);
    }

    #[test]
    fn close_with_backlog_yields_a_final_wave() {
        let queue = BoundedQueue::new(8);
        queue.push(1).unwrap();
        queue.push(2).unwrap();
        queue.close();
        assert_eq!(queue.wait_wave(64, Duration::from_secs(60)), Some(vec![1, 2]));
        assert_eq!(queue.wait_wave(64, Duration::from_secs(60)), None);
    }

    #[test]
    fn abandon_drops_the_backlog_and_refuses_pushes() {
        let queue = BoundedQueue::new(8);
        queue.push(1).unwrap();
        queue.abandon();
        assert!(queue.is_empty());
        assert_eq!(queue.push(2), Err(PushError::Closed));
        assert_eq!(queue.wait_wave(64, Duration::from_secs(60)), None);
    }

    #[test]
    fn deadline_releases_a_partial_wave() {
        let queue = BoundedQueue::new(8);
        let start = Instant::now();
        queue.push(7).unwrap();
        let wave = queue.wait_wave(64, Duration::from_millis(20)).unwrap();
        assert_eq!(wave, vec![7]);
        assert!(start.elapsed() >= Duration::from_millis(10), "must have waited for the window");
    }
}
