//! The bounded chunk queue between the BFS caller and its helper threads.
//!
//! The calling thread of [`run_bfs`](crate::bfs) owns the frontier, so it
//! is the single producer: it cuts the current level into chunks of
//! [`CHUNK_ENTRIES`] records and [`submit`](Pool::submit)s them; helper
//! threads [`serve`](Pool::serve) the queue and hand each chunk's result
//! back for the caller to [`collect`](Pool::collect). The queue holds at
//! most two chunks per helper. A full queue — always, with zero helpers —
//! hands the chunk back and the caller expands it itself, which is both
//! the back-pressure that keeps the resident part of a level bounded and
//! the reason the sequential search needs no code of its own.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Frontier records per chunk: large enough that the queue's one lock is
/// taken a few thousand times a second, small enough that a level a few
/// hundred entries wide still spreads over every thread.
pub(crate) const CHUNK_ENTRIES: usize = 64;

struct Shared<T, R> {
    queue: VecDeque<Vec<T>>,
    results: Vec<R>,
    /// Chunks submitted and not yet handed back.
    outstanding: usize,
}

/// See the module docs. A chunk is a `Vec<T>` — the BFS core's are the
/// bytes of framed frontier records — and `R` a chunk's result.
pub(crate) struct Pool<T, R> {
    shared: Mutex<Shared<T, R>>,
    /// Helpers park here while the queue is empty.
    work: Condvar,
    /// The caller parks here while every remaining chunk is in flight.
    done: Condvar,
    /// Queue bound, `2 × helpers`.
    cap: usize,
    /// Set once the run is over (verdict reached, or the caller panicked):
    /// helpers stop taking chunks and skim the one they hold.
    stopped: AtomicBool,
}

impl<T, R> Pool<T, R> {
    pub(crate) fn new(helpers: usize) -> Self {
        Pool {
            shared: Mutex::new(Shared {
                queue: VecDeque::new(),
                results: Vec::new(),
                outstanding: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cap: 2 * helpers,
            stopped: AtomicBool::new(false),
        }
    }

    /// Locks the shared state, ignoring poisoning: it is plain collections
    /// that stay valid if a helper panics, and by not re-panicking here the
    /// caller can still leave the thread scope, which re-raises the
    /// original panic.
    fn lock(&self) -> MutexGuard<'_, Shared<T, R>> {
        self.shared.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Queues a chunk for the helpers, or hands it back when the queue is
    /// full.
    pub(crate) fn submit(&self, chunk: Vec<T>) -> Result<(), Vec<T>> {
        let mut shared = self.lock();
        if shared.queue.len() >= self.cap {
            return Err(chunk);
        }
        shared.queue.push_back(chunk);
        shared.outstanding += 1;
        debug_assert!(shared.queue.len() <= self.cap, "queue over its bound");
        self.work.notify_one();
        Ok(())
    }

    /// A helper thread's whole life: runs `work` on queued chunks until
    /// the pool is stopped.
    pub(crate) fn serve(&self, mut work: impl FnMut(Vec<T>) -> R) {
        loop {
            let chunk = {
                let mut shared = self.lock();
                loop {
                    if self.stopped() {
                        return;
                    }
                    if let Some(chunk) = shared.queue.pop_front() {
                        break chunk;
                    }
                    shared = self.work.wait(shared).unwrap_or_else(|p| p.into_inner());
                }
            };
            let mut completion = Completion {
                pool: self,
                result: None,
            };
            completion.result = Some(work(chunk));
        }
    }

    /// Takes every result handed back so far. With `wait`, first blocks
    /// until there is one; an empty answer then means nothing is
    /// outstanding any more.
    pub(crate) fn collect(&self, wait: bool) -> Vec<R> {
        let mut shared = self.lock();
        while wait && shared.results.is_empty() && shared.outstanding > 0 {
            shared = self.done.wait(shared).unwrap_or_else(|p| p.into_inner());
        }
        std::mem::take(&mut shared.results)
    }

    /// Ends the run for the helpers. The flag is raised under the lock a
    /// parking helper re-checks it under, so no wake-up is lost.
    pub(crate) fn stop(&self) {
        let _shared = self.lock();
        self.stopped.store(true, Ordering::Relaxed);
        self.work.notify_all();
    }

    pub(crate) fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }
}

/// Hands a chunk's result back when dropped — a drop guard, so a helper
/// that panics mid-chunk still counts its chunk down and the caller drains
/// instead of waiting forever (the panic resurfaces when the scope joins).
struct Completion<'a, T, R> {
    pool: &'a Pool<T, R>,
    result: Option<R>,
}

impl<T, R> Drop for Completion<'_, T, R> {
    fn drop(&mut self) {
        let mut shared = self.pool.lock();
        shared.results.extend(self.result.take());
        shared.outstanding -= 1;
        self.pool.done.notify_one();
    }
}

/// Stops the pool when dropped, so a caller that leaves early — a verdict,
/// or a panic on frontier I/O — releases the helpers and the scope joins.
pub(crate) struct StopOnDrop<'a, T, R>(pub(crate) &'a Pool<T, R>);

impl<T, R> Drop for StopOnDrop<'_, T, R> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_queue_hands_the_chunk_back_to_the_caller() {
        let inline: Pool<u32, u32> = Pool::new(0);
        assert_eq!(inline.submit(vec![7]), Err(vec![7]), "no helpers: no queue");

        let pool: Pool<u32, u32> = Pool::new(1);
        assert_eq!(pool.submit(vec![1]), Ok(()));
        assert_eq!(pool.submit(vec![2]), Ok(()));
        assert_eq!(pool.submit(vec![3]), Err(vec![3]), "two chunks per helper");
        assert!(pool.collect(false).is_empty());
    }

    #[test]
    fn helpers_serve_in_fifo_order_until_stopped() {
        let pool: Pool<u32, u32> = Pool::new(1);
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&pool);
            scope.spawn(|| pool.serve(|chunk| chunk.iter().sum()));
            pool.submit(vec![1, 2]).unwrap();
            pool.submit(vec![10]).unwrap();
            let mut sums = Vec::new();
            loop {
                let finished = pool.collect(true);
                if finished.is_empty() {
                    break;
                }
                sums.extend(finished);
            }
            assert_eq!(sums, vec![3, 10]);
        });
        assert!(pool.stopped());
    }

    #[test]
    fn a_panicking_helper_still_counts_its_chunk_down() {
        let pool: Pool<u32, u32> = Pool::new(1);
        let joined = std::thread::scope(|scope| {
            let _stop = StopOnDrop(&pool);
            let helper = scope.spawn(|| pool.serve(|_| panic!("boom")));
            pool.submit(vec![1]).unwrap();
            assert!(pool.collect(true).is_empty(), "no result, nothing pending");
            helper.join()
        });
        assert!(joined.is_err());
    }
}
