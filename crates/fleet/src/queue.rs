//! Bounded ring-buffer queue with backpressure accounting and a
//! lock-light fast path.
//!
//! The fleet engine ships every shard's traffic — interval batches *and*
//! lifecycle control messages — through one bounded FIFO per shard. The
//! storage is a fixed-capacity **ring**: one `Box<[Option<T>]>`
//! allocated up front and addressed `(head + i) % capacity`, so neither
//! push nor pop ever allocates or moves other entries (the classic
//! sequence-counted MPMC ring layout, degenerated to a mutex-protected
//! ring because this crate is `#![forbid(unsafe_code)]`).
//!
//! **Uncontended fast path.** The expensive part of a `Mutex + Condvar`
//! queue is not the lock — an uncontended lock is one atomic — but the
//! unconditional `notify_one` after every push: each notify is a
//! potential `futex(FUTEX_WAKE)` syscall, and a fleet driver pushing
//! thousands of intervals per second pays it even when every consumer is
//! busy draining. This queue therefore keeps **waiter registries inside
//! the mutex**: a consumer increments `consumer_waiters` under the lock
//! before parking on the condvar, and a producer only notifies when that
//! count is nonzero (symmetrically for `producer_waiters` / `not_full`).
//! A push into a queue whose consumer is running is lock, slot write,
//! unlock — zero syscalls, zero allocations. [`QueueStats::notifies`]
//! counts the wakeups actually issued so tests can pin this down.
//!
//! **Backpressure** is lossless: a full queue makes the producer wait,
//! and each wait episode is counted as one **stall** — the paper's
//! measure of how often monitoring would have intruded on the critical
//! path with this buffer depth (§3.2.3).

use regmon_stats::histogram::log2_bucket;
use regmon_telemetry::{journal, metrics};
use std::sync::{Condvar, Mutex};

/// Queue entries that may carry interval payloads.
pub trait Droppable {
    /// How many payload units the entry carries: `Some(n)` for an
    /// interval batch of `n` intervals, `None` for control messages.
    /// Pushing a payload records `n` in the batch-size histogram.
    fn units(&self) -> Option<usize>;
}

/// Largest accepted queue depth. Every slot is allocated up front, so
/// a depth past this bound is a configuration error, not a request for
/// gigabytes of ring.
pub const MAX_QUEUE_DEPTH: usize = 65_536;

/// Buckets of the batch-size histogram in [`QueueStats`]: bucket `i`
/// counts payload messages carrying `2^i ..= 2^(i+1) - 1` units (the
/// last bucket is open-ended).
pub const BATCH_BUCKETS: usize = 8;

/// Human-readable label of batch-size bucket `i` (`"1"`, `"2-3"`, …,
/// `"128+"`).
#[must_use]
pub fn batch_bucket_label(i: usize) -> String {
    let lo = 1usize << i;
    if i + 1 >= BATCH_BUCKETS {
        format!("{lo}+")
    } else if lo == (1 << (i + 1)) - 1 {
        format!("{lo}")
    } else {
        format!("{lo}-{}", (1 << (i + 1)) - 1)
    }
}

/// Backpressure counters of one queue, all monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Entries accepted.
    pub pushed: usize,
    /// Entries handed to the consumer.
    pub popped: usize,
    /// Wait episodes of a producer that found the queue full.
    pub stalls: usize,
    /// Maximum occupancy ever observed (after a push).
    pub high_water: usize,
    /// Condvar wakeups actually issued by producers and consumers. The
    /// uncontended-path contract is `notifies == 0` while the peer never
    /// parks; this is what the wakeup-herding regression test pins.
    pub notifies: usize,
    /// Histogram of payload-message sizes in units (log2 buckets, see
    /// [`BATCH_BUCKETS`]). Control messages are not counted.
    pub batch_sizes: [usize; BATCH_BUCKETS],
}

impl QueueStats {
    fn record_batch(&mut self, units: usize) {
        let bucket = log2_bucket(units as u64, BATCH_BUCKETS);
        self.batch_sizes[bucket] = self.batch_sizes[bucket].saturating_add(1);
    }

    /// Total payload messages recorded in the batch-size histogram.
    #[must_use]
    pub fn payload_messages(&self) -> usize {
        self.batch_sizes.iter().sum()
    }
}

/// Fixed-capacity ring storage: `slots[(head + i) % capacity]` is the
/// `i`-th oldest entry. Entries never move on push/pop.
#[derive(Debug)]
struct RingBuf<T> {
    slots: Box<[Option<T>]>,
    head: usize,
    len: usize,
}

impl<T> RingBuf<T> {
    fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity).map(|_| None).collect(),
            head: 0,
            len: 0,
        }
    }

    fn idx(&self, i: usize) -> usize {
        (self.head + i) % self.slots.len()
    }

    fn push_back(&mut self, item: T) {
        debug_assert!(self.len < self.slots.len(), "ring overfull");
        let at = self.idx(self.len);
        debug_assert!(self.slots[at].is_none(), "ring slot clobbered");
        self.slots[at] = Some(item);
        self.len += 1;
    }

    fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let item = self.slots[self.head].take();
        debug_assert!(item.is_some(), "ring slot lost");
        self.head = (self.head + 1) % self.slots.len();
        self.len -= 1;
        item
    }
}

#[derive(Debug)]
struct Inner<T> {
    ring: RingBuf<T>,
    closed: bool,
    /// Consumers currently parked on `not_empty` (registered under the
    /// lock *before* waiting, so a producer's check cannot race it).
    consumer_waiters: usize,
    /// Producers currently parked on `not_full`.
    producer_waiters: usize,
    stats: QueueStats,
}

/// Error returned when pushing into a closed queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

/// A bounded ring FIFO connecting the fleet driver to one shard worker.
#[derive(Debug)]
pub struct RingQueue<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    /// Shard id stamped on telemetry events emitted by this queue.
    label: u64,
}

impl<T: Droppable> RingQueue<T> {
    /// A queue holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or above [`MAX_QUEUE_DEPTH`].
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(
            (1..=MAX_QUEUE_DEPTH).contains(&capacity),
            "queue depth must be in 1..={MAX_QUEUE_DEPTH}"
        );
        Self {
            inner: Mutex::new(Inner {
                ring: RingBuf::new(capacity),
                closed: false,
                consumer_waiters: 0,
                producer_waiters: 0,
                stats: QueueStats::default(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            label: 0,
        }
    }

    /// Stamp telemetry events from this queue with `label` (the owning
    /// shard's id). Builder-style so construction sites stay one
    /// expression.
    #[must_use]
    pub fn with_label(mut self, label: u64) -> Self {
        self.label = label;
        self
    }

    /// Enqueues `item`, waiting while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`Closed`] when the queue has been closed.
    pub fn push(&self, item: T) -> Result<(), Closed> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(Closed);
        }

        let stalled = inner.ring.len >= self.capacity;
        if stalled {
            // One stall per wait episode. Only the striped counter runs
            // under the lock; the journal write (mutex + clock) is
            // deferred to the post-push telemetry block so a stalled
            // producer never stretches the critical section consumers
            // drain through.
            inner.stats.stalls = inner.stats.stalls.saturating_add(1);
            metrics::QUEUE_STALLS.inc();
            while inner.ring.len >= self.capacity && !inner.closed {
                inner.producer_waiters += 1;
                inner = self.not_full.wait(inner).expect("queue poisoned");
                inner.producer_waiters -= 1;
            }
            if inner.closed {
                return Err(Closed);
            }
        }

        let units = item.units();
        if let Some(units) = units {
            inner.stats.record_batch(units);
        }
        inner.ring.push_back(item);
        inner.stats.pushed = inner.stats.pushed.saturating_add(1);
        let occupancy = inner.ring.len;
        let high_water = occupancy > inner.stats.high_water;
        if high_water {
            inner.stats.high_water = occupancy;
        }
        // Waiter-gated wakeup: only pay the futex syscall when a
        // consumer is actually parked.
        let wake = inner.consumer_waiters > 0;
        if wake {
            inner.stats.notifies = inner.stats.notifies.saturating_add(1);
        }
        drop(inner);
        // Telemetry outside the queue lock: one relaxed load + branch
        // when disabled.
        if regmon_telemetry::enabled() {
            metrics::QUEUE_PUSHED.inc();
            if let Some(units) = units {
                metrics::QUEUE_BATCH_UNITS.record(units as u64);
            }
            if stalled {
                // Stall episodes that end in Closed return early and are
                // visible only in the counter.
                journal::record(journal::EventKind::Backpressure {
                    shard: self.label,
                    units: units.unwrap_or(0) as u64,
                });
            }
            if wake {
                metrics::QUEUE_NOTIFIES.inc();
            }
            if high_water {
                metrics::QUEUE_HIGH_WATER.set_max(occupancy as i64);
                journal::record(journal::EventKind::QueueHighWater {
                    shard: self.label,
                    depth: occupancy as u64,
                });
            }
        }
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Dequeues the oldest entry, waiting while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.ring.pop_front() {
                inner.stats.popped = inner.stats.popped.saturating_add(1);
                let wake = inner.producer_waiters > 0;
                if wake {
                    inner.stats.notifies = inner.stats.notifies.saturating_add(1);
                }
                drop(inner);
                if regmon_telemetry::enabled() {
                    metrics::QUEUE_POPPED.inc();
                    if wake {
                        metrics::QUEUE_NOTIFIES.inc();
                    }
                }
                if wake {
                    self.not_full.notify_one();
                }
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner.consumer_waiters += 1;
            inner = self.not_empty.wait(inner).expect("queue poisoned");
            inner.consumer_waiters -= 1;
        }
    }

    /// Closes the queue: producers start failing, the consumer drains
    /// the remaining entries and then sees end-of-stream.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current occupancy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").ring.len
    }

    /// `true` when no entries are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the backpressure counters.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        self.inner.lock().expect("queue poisoned").stats
    }

    /// Maximum occupancy.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Debug, PartialEq)]
    enum Msg {
        Data(u32),
        /// A payload carrying several units (a fleet interval batch).
        Pack(u32, usize),
        Ctrl(u32),
    }

    impl Droppable for Msg {
        fn units(&self) -> Option<usize> {
            match self {
                Msg::Data(_) => Some(1),
                Msg::Pack(_, n) => Some(*n),
                Msg::Ctrl(_) => None,
            }
        }
    }

    /// Pushes `item` from a second thread into the full queue `q`, waits
    /// until that producer has parked, pops one entry so the blocked
    /// push can land, and returns every entry in delivery order.
    fn push_into_full(q: &Arc<RingQueue<Msg>>, item: Msg) -> Vec<Msg> {
        let producer = {
            let q = Arc::clone(q);
            std::thread::spawn(move || q.push(item))
        };
        while q.inner.lock().unwrap().producer_waiters == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(q.len(), q.capacity(), "a full queue evicted an entry");
        let mut drained = vec![q.pop().unwrap()]; // frees a slot; producer lands
        producer.join().unwrap().unwrap();
        q.close();
        drained.extend(std::iter::from_fn(|| q.pop()));
        drained
    }

    #[test]
    fn fifo_order_preserved() {
        let q = RingQueue::new(8);
        for i in 0..5 {
            q.push(Msg::Data(i)).unwrap();
        }
        q.close();
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            drained,
            (0..5).map(Msg::Data).collect::<Vec<_>>(),
            "FIFO violated"
        );
    }

    #[test]
    fn ring_wraps_without_reordering() {
        // Interleave pushes and pops so head laps the ring repeatedly:
        // draining two of three slots each time the ring fills advances
        // the head by two on a three-slot array, walking every offset.
        let q = RingQueue::new(3);
        let mut expect = Vec::new();
        let mut got = Vec::new();
        for i in 0..20u32 {
            q.push(Msg::Data(i)).unwrap();
            expect.push(Msg::Data(i));
            if q.len() == 3 {
                got.push(q.pop().unwrap());
                got.push(q.pop().unwrap());
            }
        }
        q.close();
        got.extend(std::iter::from_fn(|| q.pop()));
        assert_eq!(got, expect);
        let stats = q.stats();
        assert_eq!(stats.pushed, 20);
        assert_eq!(stats.popped, 20);
    }

    /// A full queue of payloads keeps its oldest entry: the next push
    /// waits instead of evicting the head.
    #[test]
    fn drop_oldest_evicts_front_droppable_only() {
        let q = Arc::new(RingQueue::new(3));
        q.push(Msg::Ctrl(0)).unwrap();
        q.push(Msg::Data(1)).unwrap();
        q.push(Msg::Data(2)).unwrap();
        let drained = push_into_full(&q, Msg::Data(3));
        assert_eq!(
            drained,
            vec![Msg::Ctrl(0), Msg::Data(1), Msg::Data(2), Msg::Data(3)]
        );
        let stats = q.stats();
        assert_eq!(stats.stalls, 1);
        assert_eq!(stats.high_water, 3);
    }

    /// A blocked push onto a full ring whose head has wrapped past the
    /// end of the slot array lands behind every older entry.
    #[test]
    fn mid_ring_eviction_survives_wrap() {
        let q = Arc::new(RingQueue::new(4));
        q.push(Msg::Data(0)).unwrap();
        q.push(Msg::Data(1)).unwrap();
        assert_eq!(q.pop(), Some(Msg::Data(0)));
        assert_eq!(q.pop(), Some(Msg::Data(1))); // head now at 2
        q.push(Msg::Ctrl(10)).unwrap();
        q.push(Msg::Ctrl(11)).unwrap();
        q.push(Msg::Data(12)).unwrap();
        q.push(Msg::Data(13)).unwrap();
        let drained = push_into_full(&q, Msg::Data(14));
        assert_eq!(
            drained,
            vec![
                Msg::Ctrl(10),
                Msg::Ctrl(11),
                Msg::Data(12),
                Msg::Data(13),
                Msg::Data(14)
            ]
        );
        assert_eq!(q.stats().stalls, 1);
    }

    /// A ring *full of control messages* never loses one: the producer
    /// waits and every control message survives.
    #[test]
    fn drop_oldest_never_evicts_control_from_full_ring() {
        let q = Arc::new(RingQueue::new(3));
        for i in 0..3 {
            q.push(Msg::Ctrl(i)).unwrap();
        }
        assert_eq!(q.len(), 3, "ring full of control messages");
        let drained = push_into_full(&q, Msg::Data(99));
        assert_eq!(
            drained,
            vec![Msg::Ctrl(0), Msg::Ctrl(1), Msg::Ctrl(2), Msg::Data(99)]
        );
        assert_eq!(q.stats().stalls, 1, "producer blocked instead");
    }

    /// A stall is one wait episode, however many units the waiting
    /// batch carries; the histogram still records each batch's units.
    #[test]
    fn dropped_counts_units_not_messages() {
        let q = Arc::new(RingQueue::new(1));
        q.push(Msg::Pack(0, 5)).unwrap();
        let drained = push_into_full(&q, Msg::Pack(1, 2));
        assert_eq!(drained, vec![Msg::Pack(0, 5), Msg::Pack(1, 2)]);
        let stats = q.stats();
        assert_eq!(stats.stalls, 1, "one episode, not two units");
        assert_eq!(stats.batch_sizes[1], 1, "the 2-unit batch");
        assert_eq!(stats.batch_sizes[2], 1, "the 5-unit batch");
    }

    #[test]
    fn batch_size_histogram_buckets_by_log2() {
        let q = RingQueue::new(16);
        for (tag, units) in [(0, 1), (1, 3), (2, 8), (3, 40)] {
            q.push(Msg::Pack(tag, units)).unwrap();
        }
        q.push(Msg::Ctrl(9)).unwrap();
        let stats = q.stats();
        let mut expect = [0usize; BATCH_BUCKETS];
        expect[0] = 1; // 1
        expect[1] = 1; // 3
        expect[3] = 1; // 8
        expect[5] = 1; // 40
        assert_eq!(stats.batch_sizes, expect, "control messages not counted");
        assert_eq!(stats.payload_messages(), 4);
        assert_eq!(batch_bucket_label(0), "1");
        assert_eq!(batch_bucket_label(1), "2-3");
        assert_eq!(batch_bucket_label(5), "32-63");
        assert_eq!(batch_bucket_label(7), "128+");
    }

    /// Wakeup-herding regression: pushes with no parked consumer must
    /// not issue a single condvar notification (PR 1 notified on every
    /// push), while a parked consumer still gets woken.
    #[test]
    fn uncontended_push_is_notify_free() {
        let q = Arc::new(RingQueue::new(32));
        for i in 0..20 {
            q.push(Msg::Data(i)).unwrap();
        }
        assert_eq!(
            q.stats().notifies,
            0,
            "uncontended pushes must be syscall-free"
        );
        while q.pop().is_some() {
            if q.is_empty() {
                break;
            }
        }
        assert_eq!(q.stats().notifies, 0, "uncontended pops too");

        // Now park a consumer and prove the wakeup still happens.
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20)); // let it park
        q.push(Msg::Data(99)).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(Msg::Data(99)));
        assert!(q.stats().notifies >= 1, "parked consumer must be notified");
        q.close();
    }

    #[test]
    fn block_policy_counts_stalls_and_delivers_everything() {
        let q = Arc::new(RingQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(m) = q.pop() {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    got.push(m);
                }
                got
            })
        };
        for i in 0..20 {
            q.push(Msg::Data(i)).unwrap();
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got.len(), 20, "a blocking queue is lossless");
        assert!(q.stats().stalls > 0, "depth-1 queue must have stalled");
    }

    #[test]
    fn close_wakes_blocked_producer() {
        let q = Arc::new(RingQueue::new(1));
        q.push(Msg::Data(0)).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(Msg::Data(1)))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(Closed));
    }

    /// Named for the policy parser it once covered; the queue's one
    /// remaining setting is its depth, which accepts `1..=MAX_QUEUE_DEPTH`
    /// and names that range when it refuses a value.
    #[test]
    fn policy_parse_accepts_all_spellings_and_lists_them_on_error() {
        for depth in [1, MAX_QUEUE_DEPTH] {
            assert_eq!(RingQueue::<Msg>::new(depth).capacity(), depth);
        }
        for depth in [0, MAX_QUEUE_DEPTH + 1] {
            let err = std::panic::catch_unwind(|| RingQueue::<Msg>::new(depth))
                .expect_err("out-of-range depth accepted");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("1..=65536"), "depth {depth}: {msg:?}");
        }
    }
}
