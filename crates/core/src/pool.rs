//! Slab-allocated packet pool with intrusive per-arc FIFO lists.
//!
//! The simulators keep every waiting packet of every arc in **one**
//! contiguous slab (`Vec` of slots); each arc holds only a `(head, tail)`
//! pair of `u32` slot indices ([`ArcFifo`]). Freed slots recycle through an
//! internal free list, so after the warm-up transient the steady state
//! performs **zero allocation**: a packet enqueue is "pop free slot, write
//! 24 bytes, link", a dequeue is "unlink, push free slot". Compare the seed
//! implementation — one `VecDeque<Packet>` per arc, i.e. `d·2^d` separate
//! ring buffers scattered across the heap.
//!
//! The lists are doubly linked, so LIFO service ([`ArcFifo::pop_back`])
//! stays `O(1)`, matching the `VecDeque` ablation it replaces. The
//! `ContentionPolicy::Random` pick does not use these lists: it needs a
//! uniformly random member, which an intrusive list cannot reach without
//! walking, so that policy keeps each arc's packets in an [`ArcBag`].
//!
//! Items are `Copy` (packets are ≤ 24 bytes), which keeps the pool free of
//! `unsafe`/`MaybeUninit`: a freed slot simply retains its stale payload
//! until reused.

/// Null slot index (no packet).
pub const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot<T> {
    item: T,
    /// Next toward the tail; doubles as the free-list link.
    next: u32,
    /// Previous toward the head.
    prev: u32,
}

/// A contiguous slab of `T` with an internal free list.
///
/// All list operations live on [`ArcFifo`] and borrow the pool, so many
/// lists (one per arc) can share one slab.
#[derive(Clone, Debug)]
pub struct SlabPool<T: Copy> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    live: usize,
}

impl<T: Copy> SlabPool<T> {
    /// Empty pool with room for `cap` items before the first regrowth.
    pub fn with_capacity(cap: usize) -> SlabPool<T> {
        SlabPool {
            slots: Vec::with_capacity(cap),
            free_head: NIL,
            live: 0,
        }
    }

    /// Number of live (allocated) items.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no items are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots ever created (live + free); the slab's high-water mark.
    pub fn capacity_used(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn alloc(&mut self, item: T) -> u32 {
        self.live += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next;
            slot.item = item;
            slot.next = NIL;
            slot.prev = NIL;
            idx
        } else {
            let idx = self.slots.len() as u32;
            assert!(idx != NIL, "slab pool exhausted u32 index space");
            self.slots.push(Slot {
                item,
                next: NIL,
                prev: NIL,
            });
            idx
        }
    }

    #[inline]
    fn release(&mut self, idx: u32) -> T {
        let item = self.slots[idx as usize].item;
        self.slots[idx as usize].next = self.free_head;
        self.free_head = idx;
        self.live -= 1;
        item
    }
}

/// An intrusive doubly-linked FIFO of slab slots: 12 bytes per arc.
#[derive(Clone, Copy, Debug)]
pub struct ArcFifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for ArcFifo {
    fn default() -> Self {
        ArcFifo::new()
    }
}

impl ArcFifo {
    /// Empty list.
    pub const fn new() -> ArcFifo {
        ArcFifo {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of queued items.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Append `item` at the tail (arrival order). `O(1)`.
    #[inline]
    pub fn push_back<T: Copy>(&mut self, pool: &mut SlabPool<T>, item: T) {
        let idx = pool.alloc(item);
        let slot_prev = self.tail;
        {
            let slot = &mut pool.slots[idx as usize];
            slot.prev = slot_prev;
            slot.next = NIL;
        }
        if slot_prev == NIL {
            self.head = idx;
        } else {
            pool.slots[slot_prev as usize].next = idx;
        }
        self.tail = idx;
        self.len += 1;
    }

    /// Remove and return the head (oldest) item. `O(1)`.
    #[inline]
    pub fn pop_front<T: Copy>(&mut self, pool: &mut SlabPool<T>) -> Option<T> {
        let idx = self.head;
        if idx == NIL {
            return None;
        }
        let next = pool.slots[idx as usize].next;
        self.head = next;
        if next == NIL {
            self.tail = NIL;
        } else {
            pool.slots[next as usize].prev = NIL;
        }
        self.len -= 1;
        Some(pool.release(idx))
    }

    /// Remove and return the tail (newest) item. `O(1)`.
    #[inline]
    pub fn pop_back<T: Copy>(&mut self, pool: &mut SlabPool<T>) -> Option<T> {
        let idx = self.tail;
        if idx == NIL {
            return None;
        }
        let prev = pool.slots[idx as usize].prev;
        self.tail = prev;
        if prev == NIL {
            self.head = NIL;
        } else {
            pool.slots[prev as usize].next = NIL;
        }
        self.len -= 1;
        Some(pool.release(idx))
    }
}

/// Indexed per-arc storage for constant-time uniform random picks.
///
/// A uniformly random node of an intrusive [`ArcFifo`] cannot be reached
/// without walking the list. When
/// [`crate::config::ContentionPolicy::Random`] is selected — and only
/// then — the engine keeps each arc's waiting packets in one of these
/// instead: a plain growable array where `take(i)` is `swap_remove`,
/// i.e. `O(1)` regardless of queue length. The swap scrambles residual
/// *order*, which FIFO/LIFO would care about but a policy that picks
/// uniformly at random does not: every subsequent pick is uniform over
/// the surviving set whatever its arrangement. Long queues occur only
/// under unstable loads, exactly where the Random ablation probes run.
///
/// Steady state performs zero allocation: the backing `Vec` retains its
/// high-water capacity.
#[derive(Clone, Debug, Default)]
pub struct ArcBag<T> {
    items: Vec<T>,
}

impl<T> ArcBag<T> {
    /// Empty bag.
    pub const fn new() -> ArcBag<T> {
        ArcBag { items: Vec::new() }
    }

    /// Number of stored items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the bag is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Insert an item. `O(1)` amortised.
    #[inline]
    pub fn insert(&mut self, item: T) {
        self.items.push(item);
    }

    /// Remove and return the item at position `n` (`swap_remove`), `O(1)`.
    /// For `n` drawn uniformly from `0..len`, the removed item is a
    /// uniformly random member of the bag.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<T> {
        if n < self.items.len() {
            Some(self.items.swap_remove(n))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_roundtrip() {
        let mut pool = SlabPool::with_capacity(8);
        let mut q = ArcFifo::new();
        for i in 0..10 {
            q.push_back(&mut pool, i);
        }
        assert_eq!(q.len(), 10);
        assert_eq!(pool.len(), 10);
        for i in 0..10 {
            assert_eq!(q.pop_front(&mut pool), Some(i));
        }
        assert_eq!(q.pop_front(&mut pool), None);
        assert!(q.is_empty() && pool.is_empty());
    }

    #[test]
    fn lifo_order() {
        let mut pool = SlabPool::with_capacity(4);
        let mut q = ArcFifo::new();
        for i in 0..5 {
            q.push_back(&mut pool, i);
        }
        for i in (0..5).rev() {
            assert_eq!(q.pop_back(&mut pool), Some(i));
        }
        assert_eq!(q.pop_back(&mut pool), None);
    }

    #[test]
    fn slots_recycle_zero_steady_state_growth() {
        let mut pool = SlabPool::with_capacity(0);
        let mut q = ArcFifo::new();
        for round in 0..1000 {
            for i in 0..8 {
                q.push_back(&mut pool, round * 8 + i);
            }
            for _ in 0..8 {
                q.pop_front(&mut pool);
            }
        }
        // High-water mark, not 8000: every slot was recycled.
        assert_eq!(pool.capacity_used(), 8);
    }

    #[test]
    fn many_lists_share_one_pool() {
        let mut pool = SlabPool::with_capacity(16);
        let mut a = ArcFifo::new();
        let mut b = ArcFifo::new();
        for i in 0..6 {
            if i % 2 == 0 {
                a.push_back(&mut pool, i);
            } else {
                b.push_back(&mut pool, i);
            }
        }
        assert_eq!(pool.len(), 6);
        assert_eq!(a.pop_front(&mut pool), Some(0));
        assert_eq!(b.pop_back(&mut pool), Some(5));
        assert_eq!(a.pop_back(&mut pool), Some(4));
        assert_eq!(b.pop_front(&mut pool), Some(1));
        assert_eq!(a.pop_front(&mut pool), Some(2));
        assert_eq!(b.pop_back(&mut pool), Some(3));
        assert!(a.is_empty() && b.is_empty() && pool.is_empty());
    }

    #[test]
    fn arc_bag_uniform_picks() {
        // Regression test for the Random-contention fallback: repeatedly
        // fill a bag with 8 labelled items and remove them one by one with
        // uniform position draws; every label must be *first*-picked
        // equally often. This catches both biased indexing and any
        // accidental order dependence introduced by `swap_remove`.
        use hyperroute_desim::SimRng;
        let mut rng = SimRng::new(0xBA6);
        let k = 8usize;
        let rounds = 40_000usize;
        let mut first_picks = vec![0u64; k];
        for _ in 0..rounds {
            let mut bag = ArcBag::new();
            for label in 0..k {
                bag.insert(label);
            }
            let first = bag.take(rng.below(bag.len())).unwrap();
            first_picks[first] += 1;
            while !bag.is_empty() {
                bag.take(rng.below(bag.len())).unwrap();
            }
        }
        let expect = rounds as f64 / k as f64;
        for (label, &count) in first_picks.iter().enumerate() {
            let rel = (count as f64 - expect).abs() / expect;
            assert!(
                rel < 0.05,
                "label {label} first-picked {count} times vs expected {expect}"
            );
        }
    }

    #[test]
    fn arc_bag_take_out_of_range() {
        let mut bag = ArcBag::new();
        bag.insert(1);
        assert_eq!(bag.take(1), None);
        assert_eq!(bag.take(0), Some(1));
        assert!(bag.is_empty());
        assert_eq!(bag.take(0), None::<i32>);
    }
}
