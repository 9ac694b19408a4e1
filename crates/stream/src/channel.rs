//! Bounded MPSC channels with explicit backpressure accounting.
//!
//! The collector service feeds each ingest worker through one of these
//! channels: producers block when the buffer is full (the backpressure
//! event is *counted*, so the bench harness can report how often the
//! pipeline ran hot), and the consumer drains in batches to amortize
//! lock traffic. The implementation is a deliberately small
//! Mutex-guarded ring — no external channel crates — sized so the
//! per-record cost is one short critical section in the common case.
//!
//! Semantics:
//!
//! * [`Sender::send`] blocks while the buffer holds `capacity` items and
//!   fails with [`SendError`] once the receiver is gone.
//! * [`Sender::send_batch`] moves a whole vector under one lock: as many
//!   items as fit, then waits in place for room and moves the rest. On a
//!   gone receiver it fails and leaves the unsent items in the vector.
//! * [`Receiver::try_recv_batch`] moves up to `max` items without
//!   blocking; it is the consumer's only way to take items. The stream
//!   is over once [`Receiver::is_disconnected`] and the buffer is empty.
//! * [`Sender::backpressure_events`] counts the times a send had to
//!   wait for space (shared across clones of the channel).
//!
//! Wake-ups are paid only when a party is actually blocked. The waiter
//! state lives under the queue lock: a count of senders waiting on the
//! `not_full` condvar, and the handle of a consumer thread parked on the
//! channel. A drain notifies `not_full` only when that count is nonzero.
//! A consumer blocks by parking: [`Receiver::register_waiter`] records
//! its thread (only while the channel is empty and connected), and the
//! next send, or the last sender dropping, takes the handle and unparks
//! it. One thread may register on many channels and park once, which is
//! how a collector ingest thread waits on every stream it owns: drain
//! with `try_recv_batch`, spin with [`Backoff`] while nothing arrives,
//! then register and park. A registration left behind on a channel the
//! thread did not end up waiting on costs at most one spurious wake-up,
//! which the polling loop absorbs.
//!
//! Every wait is spin-then-sleep. Before a sender waits on `not_full`,
//! and before a consumer parks, it polls for up to [`SPIN`], yielding
//! its CPU between polls ([`Backoff`]). The gaps of a streaming
//! hand-off are far shorter than that, so in steady streaming neither
//! side sleeps. A sleep costs a wake-up whose latency is the
//! scheduler's, not the channel's: on a virtual machine, waking a
//! halted vCPU takes from microseconds to milliseconds depending on
//! the host's load, and a hand-off that slept on every round ran at a
//! rate set by that latency, varying from run to run. The polls read
//! a length mirror, not the lock, so a poll never delays the other
//! side; [`Receiver::try_recv_batch`] on an empty channel takes no lock
//! either. A party idle for longer than [`SPIN`] sleeps.

use crate::locks::lock;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long a waiting party polls before it sleeps. The gaps of a
/// streaming hand-off are tens of microseconds (one collector round);
/// the budget also rides out a peer that its scheduler preempted for
/// about one tick (1 to 4 ms), which a 0.5 ms budget slept through
/// during noisy spells. An idle party still sleeps within 2 ms.
pub const SPIN: Duration = Duration::from_millis(2);

/// A bounded spin ahead of a sleep: a party with nothing to do calls
/// [`Backoff::snooze`] between polls until it returns `false`, then
/// sleeps; progress calls [`Backoff::reset`].
#[derive(Debug, Default)]
pub struct Backoff {
    started: Option<Instant>,
}

impl Backoff {
    /// Yields the CPU and returns `true` until [`SPIN`] has passed
    /// since the first call after a reset; from then on returns `false`
    /// at once.
    pub fn snooze(&mut self) -> bool {
        if self.started.get_or_insert_with(Instant::now).elapsed() >= SPIN {
            return false;
        }
        std::thread::yield_now();
        true
    }

    /// Starts the next spin afresh.
    pub fn reset(&mut self) {
        self.started = None;
    }
}

/// The receiver disconnected; the payload is handed back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Everything guarded by the channel's one lock.
struct State<T> {
    queue: VecDeque<T>,
    /// The consumer parked waiting for an item or a disconnect; taken
    /// and unparked by the next send or the last sender dropping.
    consumer: Option<Thread>,
    /// Senders waiting on `not_full`.
    blocked_senders: usize,
}

struct ChannelInner<T> {
    state: Mutex<State<T>>,
    /// Signalled when the queue loses items while a sender waits, or
    /// when the receiver drops.
    not_full: Condvar,
    capacity: usize,
    senders: AtomicUsize,
    receiver_alive: AtomicUsize,
    backpressure: AtomicU64,
    /// `queue.len()`, stored under the lock after every change, read
    /// without it by polls.
    len: AtomicUsize,
}

impl<T> ChannelInner<T> {
    fn receiver_gone(&self) -> bool {
        self.receiver_alive.load(Ordering::Acquire) == 0
    }

    /// Stores the queue's length for the lock-free polls.
    fn publish_len(&self, state: &State<T>) {
        self.len.store(state.queue.len(), Ordering::Release);
    }

    /// Waits while the queue is full; `None` once the receiver is gone.
    /// A wait counts one backpressure event and first wakes a parked
    /// consumer, which would otherwise never make room. It polls the
    /// length mirror for up to [`SPIN`] before it sleeps on `not_full`.
    fn wait_for_room<'a>(
        &'a self,
        mut state: MutexGuard<'a, State<T>>,
    ) -> Option<MutexGuard<'a, State<T>>> {
        if state.queue.len() >= self.capacity && !self.receiver_gone() {
            self.backpressure.fetch_add(1, Ordering::Relaxed);
            if let Some(consumer) = state.consumer.take() {
                consumer.unpark();
            }
            drop(state);
            let mut backoff = Backoff::default();
            while self.len.load(Ordering::Acquire) >= self.capacity
                && !self.receiver_gone()
                && backoff.snooze()
            {}
            state = lock(&self.state);
            state.blocked_senders += 1;
            state = self
                .not_full
                .wait_while(state, |s| {
                    s.queue.len() >= self.capacity && !self.receiver_gone()
                })
                .unwrap_or_else(|e| e.into_inner());
            state.blocked_senders -= 1;
        }
        (!self.receiver_gone()).then_some(state)
    }
}

/// Unlocks `state`, then unparks the consumer if one was parked on it.
fn unlock_and_wake<T>(mut state: MutexGuard<'_, State<T>>) {
    let consumer = state.consumer.take();
    drop(state);
    if let Some(consumer) = consumer {
        consumer.unpark();
    }
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

/// Consumer half of a bounded channel; single owner. It may move
/// between threads but not be shared by them (`!Sync`): the channel
/// keeps one parked-consumer slot.
pub struct Receiver<T> {
    inner: Arc<ChannelInner<T>>,
    _single_consumer: PhantomData<std::cell::Cell<()>>,
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
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            consumer: None,
            blocked_senders: 0,
        }),
        not_full: Condvar::new(),
        capacity,
        senders: AtomicUsize::new(1),
        receiver_alive: AtomicUsize::new(1),
        backpressure: AtomicU64::new(0),
        len: AtomicUsize::new(0),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver {
            inner,
            _single_consumer: PhantomData,
        },
    )
}

impl<T> Sender<T> {
    /// Enqueue `value`, blocking while the channel is at capacity.
    ///
    /// Each blocking episode increments the shared backpressure counter
    /// once. Returns the value if the receiver has disconnected.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let inner = &*self.inner;
        let Some(mut state) = inner.wait_for_room(lock(&inner.state)) else {
            return Err(SendError(value));
        };
        state.queue.push_back(value);
        inner.publish_len(&state);
        unlock_and_wake(state);
        Ok(())
    }

    /// Enqueue every item of `items`, front first, under one lock
    /// acquisition per fill: as many as fit, then, while the channel is
    /// full, wait in place (one backpressure event per wait) and move the
    /// rest. On success `items` is left empty; an empty `items` never
    /// waits. Fails once the receiver is gone, leaving the unsent items
    /// in `items`.
    pub fn send_batch(&self, items: &mut Vec<T>) -> Result<(), SendError<()>> {
        let inner = &*self.inner;
        let mut state = lock(&inner.state);
        while !items.is_empty() {
            state = inner.wait_for_room(state).ok_or(SendError(()))?;
            let room = inner.capacity - state.queue.len();
            state.queue.extend(items.drain(..room.min(items.len())));
            inner.publish_len(&state);
        }
        unlock_and_wake(state);
        Ok(())
    }

    /// Times a send found the channel full and had to wait.
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
            // Last sender: wake a parked consumer so it can observe the
            // disconnect.
            unlock_and_wake(lock(&self.inner.state));
        }
    }
}

impl<T> Receiver<T> {
    /// Move up to `max` items into `out` without blocking; returns the
    /// number moved. The collector's batch-drain hot path. An empty
    /// channel returns 0 without taking the lock.
    pub fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if self.is_empty() {
            return 0;
        }
        let inner = &*self.inner;
        let mut state = lock(&inner.state);
        let take = state.queue.len().min(max);
        out.extend(state.queue.drain(..take));
        inner.publish_len(&state);
        let wake = take > 0 && state.blocked_senders > 0;
        drop(state);
        if wake {
            inner.not_full.notify_all();
        }
        take
    }

    /// Arranges for `waiter` to be unparked by the next send or by the
    /// last sender dropping, and returns `true`. Returns `false` without
    /// registering when the channel already holds items or has
    /// disconnected: the caller has work and must not park. The check
    /// and the registration share one critical section, so a send can
    /// never slip between them unnoticed.
    pub fn register_waiter(&self, waiter: &Thread) -> bool {
        let mut state = lock(&self.inner.state);
        if !state.queue.is_empty() || self.is_disconnected() {
            return false;
        }
        state.consumer = Some(waiter.clone());
        true
    }

    /// True once every sender has dropped (items may still be queued).
    pub fn is_disconnected(&self) -> bool {
        self.inner.senders.load(Ordering::Acquire) == 0
    }

    /// Items currently buffered (read without the lock).
    pub fn len(&self) -> usize {
        self.inner.len.load(Ordering::Acquire)
    }

    /// True when no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times a send found the channel full and had to wait.
    pub fn backpressure_events(&self) -> u64 {
        self.inner.backpressure.load(Ordering::Relaxed)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.receiver_alive.store(0, Ordering::Release);
        let _guard = lock(&self.inner.state);
        self.inner.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// Takes the next item, waiting the way a collector ingest thread
    /// does: drain with `try_recv_batch`, spin with [`Backoff`] while
    /// nothing arrives, then register and park. `None` once every sender
    /// has dropped and the buffer is drained.
    fn recv<T>(rx: &Receiver<T>) -> Option<T> {
        let me = thread::current();
        let mut backoff = Backoff::default();
        let mut out = Vec::with_capacity(1);
        loop {
            if rx.try_recv_batch(&mut out, 1) > 0 {
                return out.pop();
            }
            if rx.is_disconnected() && rx.is_empty() {
                return None;
            }
            if !backoff.snooze() {
                backoff.reset();
                if rx.register_waiter(&me) {
                    thread::park();
                }
            }
        }
    }

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
                assert_eq!(recv(&rx), Some(i));
            }
            assert_eq!(recv(&rx), None);
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
                got.push(recv(&rx).unwrap());
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
        assert_eq!(rx.len(), 10);
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_batch(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.len(), 6);
        tx.send_batch(&mut vec![10, 11]).unwrap();
        assert_eq!(rx.len(), 8);
        assert_eq!(recv(&rx), Some(4));
        assert_eq!(rx.len(), 7);
        assert_eq!(rx.try_recv_batch(&mut out, 100), 7);
        assert_eq!(out, vec![0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11]);
        assert_eq!(rx.try_recv_batch(&mut out, 100), 0);
        assert!(rx.is_empty());
        drop(tx);
        assert!(rx.is_disconnected());
    }

    #[test]
    fn send_batch_larger_than_capacity_arrives_in_order() {
        let cap = 8;
        let (tx, rx) = bounded::<usize>(cap);
        let mut items: Vec<usize> = (0..3 * cap).collect();
        thread::scope(|s| {
            s.spawn(move || {
                tx.send_batch(&mut items).unwrap();
                assert!(items.is_empty());
                assert!(tx.backpressure_events() >= 1);
            });
            let got: Vec<usize> = std::iter::from_fn(|| recv(&rx)).collect();
            assert_eq!(got, (0..3 * cap).collect::<Vec<_>>());
        });
        // A batch of three capacities cannot fit without waiting.
        assert!(rx.backpressure_events() >= 1);
    }

    #[test]
    fn send_batch_fails_once_receiver_is_gone() {
        let (tx, rx) = bounded::<usize>(2);
        drop(rx);
        let mut items = vec![1, 2, 3];
        assert_eq!(tx.send_batch(&mut items), Err(SendError(())));
        assert_eq!(items, vec![1, 2, 3]);

        // A receiver that drops while the batch waits for room: the
        // items that fit went out, the rest stay with the caller.
        let (tx, rx) = bounded::<usize>(2);
        let mut items = vec![1, 2, 3, 4, 5];
        let watch = &tx;
        thread::scope(|s| {
            s.spawn(move || {
                while watch.backpressure_events() == 0 {
                    thread::yield_now();
                }
                drop(rx);
            });
            assert_eq!(tx.send_batch(&mut items), Err(SendError(())));
        });
        assert_eq!(items, vec![3, 4, 5]);
    }

    #[test]
    fn backoff_spins_for_the_budget_then_stops() {
        let mut backoff = Backoff::default();
        let start = Instant::now();
        let mut polls = 0u64;
        while backoff.snooze() {
            polls += 1;
        }
        assert!(start.elapsed() >= SPIN);
        assert!(polls > 0);
        assert!(!backoff.snooze(), "a spent spin stays spent");
        backoff.reset();
        assert!(backoff.snooze(), "a reset starts a fresh spin");
    }

    #[test]
    fn waits_longer_than_the_spin_sleep_and_wake() {
        // Every wait outlasts `SPIN`, so each ends asleep (the sender on
        // `not_full`, the consumer parked for an item and then for the
        // disconnect) and must be woken. A lost wake-up fails at the
        // watchdog instead of hanging the test.
        let pause = SPIN * 10;
        let (done_tx, done_rx) = mpsc::channel();
        thread::spawn(move || {
            let (tx, rx) = bounded::<usize>(2);
            // Not a scoped thread: a scoped thread's exit unparks the
            // scope's owner, which would mask a missed disconnect wake.
            let sender = thread::spawn(move || {
                tx.send_batch(&mut vec![0, 1, 2]).unwrap();
                thread::sleep(pause);
                tx.send(3).unwrap();
                // The last sender drops after the consumer parked.
                thread::sleep(pause);
            });
            while rx.backpressure_events() == 0 {
                thread::yield_now();
            }
            thread::sleep(pause);
            let got: Vec<usize> = std::iter::from_fn(|| recv(&rx)).collect();
            sender.join().unwrap();
            done_tx.send(got).unwrap();
        });
        let got = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a sleeping party missed its wake-up (watchdog expired)");
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn send_fails_once_receiver_is_gone() {
        let (tx, rx) = bounded::<usize>(1);
        tx.send(1).unwrap();
        drop(rx);
        assert_eq!(tx.send(2), Err(SendError(2)));
    }

    #[test]
    fn register_waiter_refuses_a_ready_channel() {
        let me = thread::current();
        let (tx, rx) = bounded::<usize>(4);
        assert!(rx.register_waiter(&me));
        tx.send(1).unwrap();
        assert!(!rx.register_waiter(&me), "items are queued");
        let mut out = Vec::new();
        rx.try_recv_batch(&mut out, 4);
        drop(tx);
        assert!(!rx.register_waiter(&me), "the channel disconnected");
    }

    #[test]
    fn parked_consumer_wakes_on_any_of_its_channels() {
        // One thread parked on four channels must wake for a send to any
        // one of them and for the last sender of each dropping. A lost
        // wake-up hangs the consumer, so the watchdog fails the test
        // instead of letting it hang.
        const ITERS: usize = 1000;
        let (done_tx, done_rx) = mpsc::channel();
        thread::spawn(move || {
            for iter in 0..ITERS {
                let (txs, rxs): (Vec<_>, Vec<_>) = (0..4).map(|_| bounded::<usize>(2)).unzip();
                let mut txs: Vec<Option<Sender<usize>>> = txs.into_iter().map(Some).collect();
                let parks = AtomicUsize::new(0);
                let parks = &parks;
                thread::scope(|s| {
                    let consumer = s.spawn(move || {
                        let me = thread::current();
                        let mut got = Vec::new();
                        loop {
                            let drained: usize =
                                rxs.iter().map(|rx| rx.try_recv_batch(&mut got, 8)).sum();
                            let mut live = rxs
                                .iter()
                                .filter(|rx| !(rx.is_disconnected() && rx.is_empty()))
                                .peekable();
                            if live.peek().is_none() {
                                return got;
                            }
                            if drained == 0 && live.all(|rx| rx.register_waiter(&me)) {
                                parks.fetch_add(1, Ordering::SeqCst);
                                thread::park();
                            }
                        }
                    });
                    // Each event waits until the consumer has registered
                    // and gone to park since the event before it.
                    let mut seen = 0;
                    let mut settle = || {
                        while parks.load(Ordering::SeqCst) <= seen {
                            thread::yield_now();
                        }
                        seen = parks.load(Ordering::SeqCst);
                    };
                    settle();
                    let target = iter % 4;
                    txs[target].as_ref().unwrap().send(iter).unwrap();
                    for k in 1..=4 {
                        settle();
                        txs[(target + k) % 4] = None;
                    }
                    assert_eq!(consumer.join().unwrap(), vec![iter]);
                });
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("a parked consumer missed a wake-up (watchdog expired)");
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
            while let Some(v) = recv(&rx) {
                total += v;
                count += 1;
            }
            assert_eq!(count, 40);
            assert_eq!(total, 60);
        });
    }
}
