//! Bounded MPSC channels with explicit backpressure accounting.
//!
//! The collector service feeds each ingest worker through one of these
//! channels: producers block when the buffer is full (the backpressure
//! event is *counted*, so the bench harness can report how often the
//! pipeline ran hot), and the consumer drains in batches to amortize
//! lock traffic. The implementation is a deliberately small
//! Mutex+Condvar ring — no external channel crates — sized so the
//! per-record cost is one short critical section in the common case.
//!
//! Semantics:
//!
//! * [`Sender::send`] blocks while the buffer holds `capacity` items and
//!   fails with [`SendError`] once the receiver is gone.
//! * [`Receiver::recv`] blocks until an item arrives and returns `None`
//!   once every sender has dropped *and* the buffer is drained.
//! * [`Receiver::try_recv_batch`] moves up to `max` items without
//!   blocking — the collector's hot path.
//! * [`Sender::backpressure_events`] counts the times a send had to
//!   wait for space (shared across clones of the channel).

use crate::locks::lock;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The receiver disconnected; the payload is handed back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

struct ChannelInner<T> {
    queue: Mutex<VecDeque<T>>,
    /// Signalled when the queue gains an item or the channel closes.
    not_empty: Condvar,
    /// Signalled when the queue loses an item or the receiver drops.
    not_full: Condvar,
    capacity: usize,
    senders: AtomicUsize,
    receiver_alive: AtomicUsize,
    backpressure: AtomicU64,
}

/// Producer half of a bounded channel; cloneable (MPSC).
pub struct Sender<T> {
    inner: Arc<ChannelInner<T>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("capacity", &self.inner.capacity)
            .finish_non_exhaustive()
    }
}

/// Consumer half of a bounded channel; single owner.
pub struct Receiver<T> {
    inner: Arc<ChannelInner<T>>,
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("capacity", &self.inner.capacity)
            .finish_non_exhaustive()
    }
}

/// Create a bounded channel with room for `capacity` in-flight items.
///
/// Panics if `capacity == 0` — a zero-capacity rendezvous channel is
/// never what the coalescing pipeline wants.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "channel capacity must be positive");
    let inner = Arc::new(ChannelInner {
        queue: Mutex::new(VecDeque::with_capacity(capacity)),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity,
        senders: AtomicUsize::new(1),
        receiver_alive: AtomicUsize::new(1),
        backpressure: AtomicU64::new(0),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueue `value`, blocking while the channel is at capacity.
    ///
    /// Each blocking episode increments the shared backpressure counter
    /// once. Returns the value if the receiver has disconnected.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let inner = &*self.inner;
        let mut queue = lock(&inner.queue);
        if queue.len() >= inner.capacity {
            inner.backpressure.fetch_add(1, Ordering::Relaxed);
            while queue.len() >= inner.capacity {
                if inner.receiver_alive.load(Ordering::Acquire) == 0 {
                    return Err(SendError(value));
                }
                queue = inner
                    .not_full
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        if inner.receiver_alive.load(Ordering::Acquire) == 0 {
            return Err(SendError(value));
        }
        queue.push_back(value);
        drop(queue);
        inner.not_empty.notify_one();
        Ok(())
    }

    /// Times a `send` found the channel full and had to wait.
    pub fn backpressure_events(&self) -> u64 {
        self.inner.backpressure.load(Ordering::Relaxed)
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender: wake a receiver blocked in recv() so it can
            // observe the disconnect.
            let _guard = lock(&self.inner.queue);
            self.inner.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Dequeue one item, blocking until one arrives. Returns `None`
    /// once all senders have dropped and the buffer is empty.
    pub fn recv(&self) -> Option<T> {
        let inner = &*self.inner;
        let mut queue = lock(&inner.queue);
        loop {
            if let Some(value) = queue.pop_front() {
                drop(queue);
                inner.not_full.notify_one();
                return Some(value);
            }
            if inner.senders.load(Ordering::Acquire) == 0 {
                return None;
            }
            queue = inner
                .not_empty
                .wait(queue)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Move up to `max` items into `out` without blocking; returns the
    /// number moved. The collector's batch-drain hot path.
    pub fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let inner = &*self.inner;
        let mut queue = lock(&inner.queue);
        let take = queue.len().min(max);
        out.extend(queue.drain(..take));
        drop(queue);
        if take > 0 {
            inner.not_full.notify_all();
        }
        take
    }

    /// True once every sender has dropped (items may still be queued).
    pub fn is_disconnected(&self) -> bool {
        self.inner.senders.load(Ordering::Acquire) == 0
    }

    /// Items currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.inner.queue).len()
    }

    /// True when no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times a `send` found the channel full and had to wait.
    pub fn backpressure_events(&self) -> u64 {
        self.inner.backpressure.load(Ordering::Relaxed)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.receiver_alive.store(0, Ordering::Release);
        let _guard = lock(&self.inner.queue);
        self.inner.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn delivers_in_order_and_signals_disconnect() {
        let (tx, rx) = bounded::<usize>(4);
        thread::scope(|s| {
            s.spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..100 {
                assert_eq!(rx.recv(), Some(i));
            }
            assert_eq!(rx.recv(), None);
        });
    }

    #[test]
    fn bounded_capacity_counts_backpressure() {
        let (tx, rx) = bounded::<usize>(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        thread::scope(|s| {
            let blocked = tx.clone();
            s.spawn(move || {
                // The channel is full: this send must block and count a
                // backpressure event before the drain below frees space.
                blocked.send(2).unwrap();
            });
            while tx.backpressure_events() == 0 {
                thread::yield_now();
            }
            let mut got = Vec::new();
            for _ in 0..3 {
                got.push(rx.recv().unwrap());
            }
            assert_eq!(got, vec![0, 1, 2]);
        });
        assert!(tx.backpressure_events() >= 1);
        assert!(rx.is_empty());
    }

    #[test]
    fn batch_drain_moves_up_to_max() {
        let (tx, rx) = bounded::<usize>(16);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.try_recv_batch(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
        assert_eq!(rx.try_recv_batch(&mut out, 100), 0);
        assert!(rx.is_empty());
        drop(tx);
        assert!(rx.is_disconnected());
    }

    #[test]
    fn send_fails_once_receiver_is_gone() {
        let (tx, rx) = bounded::<usize>(1);
        tx.send(1).unwrap();
        drop(rx);
        assert_eq!(tx.send(2), Err(SendError(2)));
    }

    #[test]
    fn mpsc_clones_share_the_channel() {
        let (tx, rx) = bounded::<usize>(8);
        let tx2 = tx.clone();
        thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..20 {
                    tx.send(1).unwrap();
                }
            });
            s.spawn(move || {
                for _ in 0..20 {
                    tx2.send(2).unwrap();
                }
            });
            let mut total = 0;
            let mut count = 0;
            while let Some(v) = rx.recv() {
                total += v;
                count += 1;
            }
            assert_eq!(count, 40);
            assert_eq!(total, 60);
        });
    }
}
