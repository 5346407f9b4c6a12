//! Deterministic event queue.
//!
//! Every testbed owns exactly one [`EventQueue`]; it is the only source of
//! time advancement in a simulation. Events scheduled for the same instant
//! are popped in FIFO order of scheduling (a monotone sequence number breaks
//! ties), which makes runs bit-for-bit reproducible.
//!
//! # Cancellation bookkeeping
//!
//! Cancellation is O(1) amortised and hash-free: every scheduled event owns
//! a slot in a generation-tagged slab, and its heap entry carries the slot
//! index. [`EventQueue::cancel`] flips the slot to a tombstone; tombstoned
//! entries leave the heap in two ways, with a counter keeping
//! [`EventQueue::len`] exact:
//!
//! - **Top drain.** The heap *top* is never a tombstone (tombstones are
//!   drained whenever they surface), so [`EventQueue::next_time`] is a
//!   non-mutating O(1) peek.
//! - **Bulk compaction.** Re-arming a timer (cancel the old deadline,
//!   schedule a new one) buries tombstones deep in the heap, where the
//!   top drain never reaches them until their deadline comes round — a
//!   TCP RTO floor of 200 ms leaves ~2000 dead entries per live one on a
//!   busy testbed. So whenever tombstones reach `COMPACT_MIN` (64) *and*
//!   outnumber the live entries after a `cancel` or `pop`, the queue
//!   drops every tombstone at once, frees their slots, and re-heapifies
//!   bottom-up (Floyd's method). The heap therefore always holds fewer
//!   than `2·len() + 64` entries. A compaction over `n` entries costs
//!   O(n) and removes more than `n/2` of them, each of which paid one
//!   O(1) `cancel`, so the amortised cost of `cancel` stays O(1).
//!
//! Neither path can change the pop order: delivery keys `(at, seq)` are
//! unique, so the sequence of minima a heap yields does not depend on its
//! shape. Slot generations make stale tokens — from events that already
//! fired, were cancelled, or were discarded by [`EventQueue::clear`] —
//! harmless even after their slot is reused.
//!
//! # Examples
//!
//! ```
//! use simcore::event::EventQueue;
//! use simcore::time::{SimTime, SimDuration};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule_at(SimTime::from_micros(5), "b");
//! q.schedule_at(SimTime::from_micros(1), "a");
//! assert_eq!(q.next_time(), Some(SimTime::from_micros(1)));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
//! assert!(q.pop().is_none());
//! ```

use crate::time::{SimDuration, SimTime};

/// A heap entry: delivery key plus the slab slot holding the payload.
///
/// Payloads live in the slot slab, not the heap (a SoA split): sift
/// operations move 24-byte keys instead of whole event structs, so the
/// hot loop's swaps stay within a couple of cache lines even for large
/// event enums (a testbed event embedding a TCP segment is >100 bytes).
#[derive(Debug, Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    /// Total order of delivery: earliest time first, FIFO within an
    /// instant. `seq` is unique, so the order is total and the pop
    /// sequence is independent of heap shape.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A flat 4-ary min-heap ordered by [`Entry::key`].
///
/// Half the levels of a binary heap for the same population: pops touch
/// fewer cache lines, and the event queue is the single hottest
/// structure in every testbed. Four sibling keys share adjacent slots,
/// so the widest sift-down level is one or two cache lines.
#[derive(Debug)]
struct MinHeap {
    v: Vec<Entry>,
}

impl MinHeap {
    const ARITY: usize = 4;

    fn new() -> Self {
        MinHeap { v: Vec::new() }
    }

    fn len(&self) -> usize {
        self.v.len()
    }

    fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    fn peek(&self) -> Option<&Entry> {
        self.v.first()
    }

    fn clear(&mut self) {
        self.v.clear();
    }

    fn push(&mut self, entry: Entry) {
        self.v.push(entry);
        let mut i = self.v.len() - 1;
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if self.v[parent].key() <= self.v[i].key() {
                break;
            }
            self.v.swap(parent, i);
            i = parent;
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        let last = self.v.len().checked_sub(1)?;
        self.v.swap(0, last);
        let top = self.v.pop();
        self.sift_down(0);
        top
    }

    /// Moves the entry at `i` down until no child sorts before it.
    fn sift_down(&mut self, mut i: usize) {
        let len = self.v.len();
        loop {
            let first = i * Self::ARITY + 1;
            if first >= len {
                break;
            }
            let mut min = first;
            let end = (first + Self::ARITY).min(len);
            for c in first + 1..end {
                if self.v[c].key() < self.v[min].key() {
                    min = c;
                }
            }
            if self.v[i].key() <= self.v[min].key() {
                break;
            }
            self.v.swap(i, min);
            i = min;
        }
    }

    /// Keeps only the entries `keep` accepts, then restores heap order
    /// bottom-up (Floyd's method: sift down every internal node, last
    /// parent first), O(n) for the whole rebuild.
    fn retain(&mut self, keep: impl FnMut(&Entry) -> bool) {
        self.v.retain(keep);
        if self.v.len() > 1 {
            for i in (0..=(self.v.len() - 2) / Self::ARITY).rev() {
                self.sift_down(i);
            }
        }
    }
}

/// Handle identifying a scheduled event so it can be cancelled.
///
/// Encodes a slab slot index plus the slot's generation at scheduling
/// time, so a token outlives its event harmlessly: cancelling after the
/// event fired (or after the slot was recycled) reports `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(u64);

impl EventToken {
    fn new(slot: u32, gen: u32) -> Self {
        EventToken(u64::from(gen) << 32 | u64::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Occupancy of one slab slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// The slot's event is scheduled and live.
    Pending,
    /// The slot's event was cancelled; its heap entry is a tombstone.
    Cancelled,
    /// No event owns the slot (it is on the free list).
    Free,
}

#[derive(Debug)]
struct Slot<E> {
    /// Bumped every time the slot is released, invalidating old tokens.
    gen: u32,
    state: SlotState,
    /// Next slot on the free list (valid only when `state == Free`).
    next_free: u32,
    /// The scheduled payload (present while `state == Pending`; dropped
    /// eagerly on cancel so tombstones hold no event data).
    event: Option<E>,
}

const NIL: u32 = u32::MAX;

/// Fewest tombstones that trigger a bulk compaction (which also needs
/// them to outnumber the live entries). Below this the top drain alone
/// keeps the heap small.
const COMPACT_MIN: usize = 64;

/// A time-ordered queue of simulation events.
///
/// `E` is the testbed-specific event type. The queue tracks the current
/// simulated time: popping an event advances [`EventQueue::now`] to the
/// event's timestamp. Scheduling in the past is clamped to `now` (the
/// event fires "immediately", still in deterministic order).
///
/// # Accounting
///
/// The lifetime counters always satisfy
///
/// ```text
/// scheduled_total == popped_total + cancelled_total + discarded_total + len()
/// ```
///
/// where [`EventQueue::discarded_total`] counts events dropped by
/// [`EventQueue::clear`].
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: MinHeap,
    now: SimTime,
    next_seq: u64,
    slots: Vec<Slot<E>>,
    free_head: u32,
    /// Cancelled entries still sitting in the heap.
    tombstones: usize,
    scheduled_total: u64,
    popped_total: u64,
    cancelled_total: u64,
    discarded_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: MinHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            slots: Vec::new(),
            free_head: NIL,
            tombstones: 0,
            scheduled_total: 0,
            popped_total: 0,
            cancelled_total: 0,
            discarded_total: 0,
        }
    }

    /// The current simulated time (the timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() - self.tombstones
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        // The heap top is never a tombstone, so a non-empty heap always
        // holds at least one pending event.
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled.
    #[must_use]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events ever popped (delivered).
    #[must_use]
    pub fn popped_total(&self) -> u64 {
        self.popped_total
    }

    /// Total number of events ever cancelled.
    #[must_use]
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// Total number of pending events discarded by [`EventQueue::clear`].
    #[must_use]
    pub fn discarded_total(&self) -> u64 {
        self.discarded_total
    }

    /// Takes a slot off the free list (or grows the slab), marks it
    /// pending, and parks the payload there. Returns the slot index.
    fn alloc_slot(&mut self, event: E) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next_free;
            slot.state = SlotState::Pending;
            slot.event = Some(event);
            idx
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab exceeds u32 slots");
            self.slots.push(Slot {
                gen: 0,
                state: SlotState::Pending,
                next_free: NIL,
                event: Some(event),
            });
            idx
        }
    }

    /// Releases a slot whose heap entry was just removed: bumps the
    /// generation (invalidating outstanding tokens), takes whatever
    /// payload is still parked, and pushes the slot onto the free list.
    fn free_slot(&mut self, idx: u32) -> Option<E> {
        let next_free = self.free_head;
        let slot = &mut self.slots[idx as usize];
        slot.gen = slot.gen.wrapping_add(1);
        slot.state = SlotState::Free;
        slot.next_free = next_free;
        self.free_head = idx;
        slot.event.take()
    }

    /// Restores the invariants that the heap top is never a tombstone
    /// and that tombstones never both reach `COMPACT_MIN` and outnumber
    /// the live entries.
    fn drain_tombstones(&mut self) {
        if self.tombstones >= COMPACT_MIN && self.tombstones > self.len() {
            self.compact();
            return;
        }
        while self.tombstones > 0 {
            let Some(top) = self.heap.peek() else { return };
            if self.slots[top.slot as usize].state != SlotState::Cancelled {
                return;
            }
            let entry = self.heap.pop().expect("peeked entry exists");
            self.free_slot(entry.slot);
            self.tombstones -= 1;
        }
    }

    /// Drops every tombstone from the heap in one O(n) pass. Each
    /// dropped entry's slot is freed with a generation bump, exactly as
    /// the top drain frees it.
    fn compact(&mut self) {
        let mut heap = std::mem::replace(&mut self.heap, MinHeap::new());
        heap.retain(|entry| {
            let live = self.slots[entry.slot as usize].state != SlotState::Cancelled;
            if !live {
                self.free_slot(entry.slot);
            }
            live
        });
        self.heap = heap;
        self.tombstones = 0;
    }

    /// Heap entries including tombstones (for the compaction bound test).
    #[cfg(test)]
    fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `event` at absolute time `at`. Times in the past are
    /// clamped to `now`. Returns a token usable with [`EventQueue::cancel`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventToken {
        let at = if at < self.now { self.now } else { at };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        let slot = self.alloc_slot(event);
        let token = EventToken::new(slot, self.slots[slot as usize].gen);
        self.heap.push(Entry { at, seq, slot });
        token
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventToken {
        self.schedule_at(self.now.saturating_add(delay), event)
    }

    /// Schedules `event` to fire at the current time, after any events
    /// already queued for this instant.
    pub fn schedule_now(&mut self, event: E) -> EventToken {
        self.schedule_at(self.now, event)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event
    /// was still pending. Cancelling twice, cancelling an event that
    /// already fired, or cancelling across a [`EventQueue::clear`]
    /// returns `false`. Amortised O(1): an occasional call compacts the
    /// heap (see the module docs).
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let idx = token.slot();
        let Some(slot) = self.slots.get_mut(idx as usize) else {
            return false;
        };
        if slot.gen != token.gen() || slot.state != SlotState::Pending {
            return false;
        }
        slot.state = SlotState::Cancelled;
        slot.event = None; // drop eagerly: tombstones hold no payload
        self.tombstones += 1;
        self.cancelled_total += 1;
        // Keep the heap top tombstone-free so `next_time` stays a pure peek.
        self.drain_tombstones();
        true
    }

    /// Removes and returns the next event along with its timestamp,
    /// advancing the simulated clock. Returns `None` when the queue is
    /// drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // The top is never a tombstone, so the first entry is live.
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "time must be monotone");
        debug_assert_eq!(self.slots[entry.slot as usize].state, SlotState::Pending);
        let event = self
            .free_slot(entry.slot)
            .expect("pending slot holds payload");
        self.now = entry.at;
        self.popped_total += 1;
        self.drain_tombstones();
        Some((entry.at, event))
    }

    /// The timestamp of the next pending event without removing it.
    /// Non-mutating: tombstones are drained eagerly on `cancel`/`pop`,
    /// never surfacing here.
    #[must_use]
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.at)
    }

    /// Discards all pending events without changing the clock or the
    /// lifetime counters.
    ///
    /// Reset semantics: pending events are counted in
    /// [`EventQueue::discarded_total`] (they were neither popped nor
    /// cancelled), tombstone accounting is drained, and every slab slot
    /// is released with a generation bump — so a token issued before
    /// `clear()` can never cancel an event scheduled after it. The
    /// accounting identity
    /// `scheduled == popped + cancelled + discarded + len` keeps holding
    /// across arbitrary clear/reuse cycles.
    pub fn clear(&mut self) {
        self.discarded_total += self.len() as u64;
        self.heap.clear();
        self.tombstones = 0;
        // Rebuild the free list, invalidating every outstanding token.
        self.free_head = NIL;
        for idx in (0..self.slots.len()).rev() {
            let next_free = self.free_head;
            let slot = &mut self.slots[idx];
            if slot.state != SlotState::Free {
                slot.gen = slot.gen.wrapping_add(1);
                slot.state = SlotState::Free;
                slot.event = None;
            }
            slot.next_free = next_free;
            self.free_head = u32::try_from(idx).expect("slab exceeds u32 slots");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_for_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(5));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(10), "late");
        q.pop();
        q.schedule_at(SimTime::from_micros(1), "clamped");
        let (t, e) = q.pop().expect("event");
        assert_eq!(e, "clamped");
        assert_eq!(t, SimTime::from_micros(10));
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(1), "a");
        q.schedule_at(SimTime::from_nanos(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(1), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        // Cancelling now must not poison a future event that reuses state.
        assert!(!q.cancel(a), "cancelling a fired event reports false");
        q.schedule_at(SimTime::from_nanos(2), "b");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn stale_token_cannot_cancel_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(1), "a");
        q.pop();
        // "b" reuses the slab slot "a" occupied; the old token's
        // generation no longer matches.
        q.schedule_at(SimTime::from_nanos(2), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(100), "first");
        q.pop();
        q.schedule_in(SimDuration::from_micros(50), "second");
        let (t, _) = q.pop().expect("event");
        assert_eq!(t, SimTime::from_micros(150));
    }

    #[test]
    fn next_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(1), "a");
        q.schedule_at(SimTime::from_nanos(5), "b");
        q.cancel(a);
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn next_time_is_nonmutating_and_exact() {
        let mut q = EventQueue::new();
        let mut toks = Vec::new();
        for i in 0..10u64 {
            toks.push(q.schedule_at(SimTime::from_nanos(i), i));
        }
        // Cancel a prefix: tombstones at the top must be drained so the
        // immutable peek sees the first live event.
        for t in &toks[..4] {
            q.cancel(*t);
        }
        let q = &q; // immutable from here on
        assert_eq!(q.next_time(), Some(SimTime::from_nanos(4)));
        assert_eq!(q.len(), 6);
        assert!(!q.is_empty());
    }

    #[test]
    fn cancelling_everything_empties_the_queue() {
        let mut q = EventQueue::new();
        let toks: Vec<_> = (0..32u64)
            .map(|i| q.schedule_at(SimTime::from_nanos(i), i))
            .collect();
        for t in toks {
            assert!(q.cancel(t));
        }
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_time(), None);
        assert!(q.pop().is_none());
        assert_eq!(q.cancelled_total(), 32);
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        q.schedule_now(1);
        q.schedule_now(2);
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.popped_total(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_reset_semantics_stay_consistent() {
        // Regression test: `clear()` must leave the accounting identity
        // `scheduled == popped + cancelled + discarded + len` intact and
        // the tombstone/slab state reusable.
        let identity = |q: &EventQueue<u64>| {
            assert_eq!(
                q.scheduled_total(),
                q.popped_total() + q.cancelled_total() + q.discarded_total() + q.len() as u64
            );
        };
        let mut q = EventQueue::new();
        let mut toks = Vec::new();
        for i in 0..10u64 {
            toks.push(q.schedule_at(SimTime::from_nanos(i), i));
        }
        q.pop();
        q.cancel(toks[5]);
        identity(&q);
        let pre_clear_token = toks[7];
        q.clear();
        identity(&q);
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 10);
        assert_eq!(q.popped_total(), 1);
        assert_eq!(q.cancelled_total(), 1);
        assert_eq!(q.discarded_total(), 8);

        // Reuse after clear: fresh events schedule, cancel, and pop
        // normally; stale tokens from before the clear are inert.
        let b = q.schedule_at(SimTime::from_micros(1), 100);
        assert!(!q.cancel(pre_clear_token), "stale token must not cancel");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(q.pop().is_none());
        identity(&q);
        q.schedule_at(SimTime::from_micros(2), 101);
        assert_eq!(q.pop().map(|(_, e)| e), Some(101));
        identity(&q);
        // The clock survived the clear (clear is not a time reset).
        assert_eq!(q.now(), SimTime::from_micros(2));
    }

    #[test]
    fn clear_drains_tombstone_accounting() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(5), 1);
        q.schedule_at(SimTime::from_nanos(1), 2);
        q.cancel(a); // tombstone buried below the live top
        q.clear();
        assert_eq!(q.len(), 0);
        // Tombstones from before the clear never resurface.
        for i in 0..4u64 {
            q.schedule_at(SimTime::from_nanos(10 + i), i);
        }
        assert_eq!(q.len(), 4);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn determinism_with_interleaved_cancels() {
        // The tombstone scheme must preserve bit-for-bit FIFO-tie order
        // against the reference behaviour: same (time, seq) order, with
        // cancelled events elided.
        let run = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            let mut toks = Vec::new();
            for i in 0..200u64 {
                toks.push(q.schedule_at(SimTime::from_nanos(i % 17), i));
            }
            for (i, t) in toks.iter().enumerate() {
                if i % 3 == 0 {
                    q.cancel(*t);
                }
            }
            while let Some((t, e)) = q.pop() {
                out.push((t, e));
                if e % 7 == 0 {
                    q.schedule_in(SimDuration::from_nanos(e % 5), 1000 + e);
                }
            }
            out
        };
        assert_eq!(run(), run());
    }

    /// Reference model: a `BTreeMap` keyed by the delivery order, plus
    /// the set of tokens whose events are still pending.
    #[derive(Default)]
    struct Model {
        pending: std::collections::BTreeMap<(SimTime, u64), u64>,
        tokens: std::collections::HashMap<EventToken, (SimTime, u64)>,
        now: SimTime,
        seq: u64,
        scheduled: u64,
        popped: u64,
        cancelled: u64,
        discarded: u64,
    }

    impl Model {
        fn schedule_at(&mut self, token: EventToken, at: SimTime, e: u64) {
            let key = (at.max(self.now), self.seq);
            self.seq += 1;
            self.scheduled += 1;
            self.pending.insert(key, e);
            assert!(
                self.tokens.insert(token, key).is_none(),
                "token reused while live"
            );
        }

        fn cancel(&mut self, token: EventToken) -> bool {
            let Some(key) = self.tokens.remove(&token) else {
                return false;
            };
            self.pending.remove(&key).expect("live token has an event");
            self.cancelled += 1;
            true
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let ((at, seq), e) = self.pending.pop_first()?;
            self.tokens.retain(|_, key| *key != (at, seq));
            self.now = at;
            self.popped += 1;
            Some((at, e))
        }

        fn clear(&mut self) {
            self.discarded += self.pending.len() as u64;
            self.pending.clear();
            self.tokens.clear();
        }
    }

    fn assert_matches(q: &EventQueue<u64>, m: &Model) {
        assert_eq!(q.len(), m.pending.len());
        assert_eq!(q.is_empty(), m.pending.is_empty());
        assert_eq!(q.next_time(), m.pending.keys().next().map(|&(at, _)| at));
        assert_eq!(q.now(), m.now);
        assert_eq!(
            (
                q.scheduled_total(),
                q.popped_total(),
                q.cancelled_total(),
                q.discarded_total()
            ),
            (m.scheduled, m.popped, m.cancelled, m.discarded)
        );
        assert_eq!(
            q.scheduled_total(),
            q.popped_total() + q.cancelled_total() + q.discarded_total() + q.len() as u64
        );
        assert!(
            q.heap_len() < 2 * q.len() + COMPACT_MIN,
            "heap {} entries for {} live",
            q.heap_len(),
            q.len()
        );
    }

    /// Schedules event `e` on both sides at a random time: mostly in
    /// the future, some in the past (clamped), many ties on `now`.
    /// Timers land far beyond the ordinary events, the way a TCP RTO
    /// does, so their cancelled deadlines sink below the heap top.
    fn schedule_both(
        q: &mut EventQueue<u64>,
        m: &mut Model,
        rng: &mut crate::rng::SimRng,
        e: u64,
        timer: bool,
    ) -> EventToken {
        let now = m.now.as_nanos();
        let at = SimTime::from_nanos(match rng.below(4) {
            _ if timer => now + 100_000 + rng.below(100_000),
            0 => now.saturating_sub(rng.below(50)),
            1 => now,
            _ => now + 1 + rng.below(5_000),
        });
        let tok = q.schedule_at(at, e);
        m.schedule_at(tok, at, e);
        tok
    }

    #[test]
    fn differential_against_btreemap_model() {
        for seed in 0..24u64 {
            let mut rng = crate::rng::SimRng::new(seed);
            let mut q = EventQueue::new();
            let mut m = Model::default();
            // Every token ever issued: live, fired, cancelled or cleared.
            let mut issued: Vec<EventToken> = Vec::new();
            // Tokens of re-armable timers; re-arming cancels and
            // reschedules, burying tombstones the top drain cannot reach.
            let mut timers: Vec<EventToken> = Vec::new();
            for e in 0..4_000u64 {
                match rng.below(100) {
                    0..=19 => issued.push(schedule_both(&mut q, &mut m, &mut rng, e, false)),
                    20..=24 => {
                        let tok = schedule_both(&mut q, &mut m, &mut rng, e, true);
                        issued.push(tok);
                        timers.push(tok);
                    }
                    25..=64 if !timers.is_empty() => {
                        // Re-arm; the old token may already have fired.
                        let i = rng.below(timers.len() as u64) as usize;
                        assert_eq!(q.cancel(timers[i]), m.cancel(timers[i]));
                        timers[i] = schedule_both(&mut q, &mut m, &mut rng, e, true);
                        issued.push(timers[i]);
                    }
                    65..=74 if !issued.is_empty() => {
                        // Any token at all, live or stale.
                        let tok = issued[rng.below(issued.len() as u64) as usize];
                        assert_eq!(q.cancel(tok), m.cancel(tok));
                    }
                    75..=98 => assert_eq!(q.pop(), m.pop()),
                    99 => {
                        q.clear();
                        m.clear();
                    }
                    _ => {}
                }
                assert_matches(&q, &m);
            }
            // Drain: the remaining pop streams agree to the end.
            loop {
                let (a, b) = (q.pop(), m.pop());
                assert_eq!(a, b);
                assert_matches(&q, &m);
                if a.is_none() {
                    break;
                }
            }
            // Every token is now stale.
            for tok in issued {
                assert!(!q.cancel(tok));
            }
        }
    }

    #[test]
    fn rearming_one_timer_keeps_the_heap_near_live() {
        // A handful of live events ahead of the timer keep its cancelled
        // deadlines off the heap top, so only compaction can shed them.
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule_at(SimTime::from_micros(1 + i), i);
        }
        let rto = SimTime::from_millis(200);
        let mut timer = q.schedule_at(rto, 100);
        for k in 1..=100_000u64 {
            assert!(q.cancel(timer));
            timer = q.schedule_at(rto + SimDuration::from_nanos(k), 100);
            assert!(q.heap_len() <= 2 * q.len() + COMPACT_MIN);
        }
        assert_eq!(q.len(), 6);
        assert_eq!(q.cancelled_total(), 100_000);
        let order: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
        let mut expected: Vec<(SimTime, u64)> = (0..5u64)
            .map(|i| (SimTime::from_micros(1 + i), i))
            .collect();
        expected.push((rto + SimDuration::from_nanos(100_000), 100));
        assert_eq!(order, expected);
        assert!(!q.cancel(timer), "fired timer token is stale");
    }
}
