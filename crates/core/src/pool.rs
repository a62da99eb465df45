//! Slab-allocated packet pool with one-word intrusive waiting lists.
//!
//! The simulators keep every waiting packet of every arc in **one**
//! contiguous slab (`Vec` of slots); each arc holds only one `u32` word,
//! its [`ArcList`]. Freed slots recycle through an internal free list, so
//! after the warm-up transient the steady state performs **zero
//! allocation**: a packet enqueue is "pop free slot, write the packet,
//! link", a dequeue is "unlink, push free slot". Compare the seed
//! implementation — one `VecDeque<Packet>` per arc, i.e. `d·2^d` separate
//! ring buffers scattered across the heap.
//!
//! A list is a circular singly linked ring of slots named by its back
//! slot: the back slot's `next` link is the front, and its second link
//! field holds the list's length. So the front,
//! the back and the length are all one hop from the word, both ends take
//! `O(1)` pushes ([`ArcList::push_back`] for FIFO service,
//! [`ArcList::push_front`] for LIFO), and [`ArcList::pop_front`] serves
//! either order in `O(1)`. The `ContentionPolicy::Random` pick does not
//! use these lists: it needs a uniformly random member, which an intrusive
//! list cannot reach without walking, so that policy keeps each arc's
//! packets in an [`ArcBag`].
//!
//! Slot ids start at 1, so no list word is ever 0: the engine uses 0 for
//! an idle arc and the empty list's word for a busy arc with nobody
//! waiting, which makes its whole per-arc state one `u32`.
//!
//! Items are `Copy` (packets are ≤ 32 bytes), which keeps the pool free of
//! `unsafe`/`MaybeUninit`: a freed slot simply retains its stale payload
//! until reused.

/// Free-list terminator: no slot has id 0.
const NO_SLOT: u32 = 0;

#[derive(Clone, Copy, Debug)]
struct Slot<T> {
    item: T,
    /// Next toward the back; the back slot's link closes the ring at the
    /// front. Doubles as the free-list link.
    next: u32,
    /// The list's length, kept in its back slot only.
    len: u32,
}

/// A contiguous slab of `T` with an internal free list.
///
/// All list operations live on [`ArcList`] and borrow the pool, so many
/// lists (one per arc) can share one slab.
#[derive(Clone, Debug)]
pub struct SlabPool<T: Copy> {
    /// Slot `id` lives at index `id - 1`.
    slots: Vec<Slot<T>>,
    free_head: u32,
    live: usize,
}

impl<T: Copy> SlabPool<T> {
    /// Empty pool with room for `cap` items before the first regrowth.
    pub fn with_capacity(cap: usize) -> SlabPool<T> {
        SlabPool {
            slots: Vec::with_capacity(cap),
            free_head: NO_SLOT,
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
    fn slot(&self, id: u32) -> &Slot<T> {
        &self.slots[id as usize - 1]
    }

    #[inline]
    fn slot_mut(&mut self, id: u32) -> &mut Slot<T> {
        &mut self.slots[id as usize - 1]
    }

    /// Store `item` with the given links; returns its slot id (≥ 1).
    #[inline]
    fn alloc(&mut self, item: T, next: u32, len: u32) -> u32 {
        self.live += 1;
        let slot = Slot { item, next, len };
        if self.free_head != NO_SLOT {
            let id = self.free_head;
            let free = self.slot_mut(id);
            let after = free.next;
            *free = slot;
            self.free_head = after;
            id
        } else {
            assert!(
                self.slots.len() < ArcList::EMPTY.0 as usize - 1,
                "slab pool exhausted u32 slot ids"
            );
            self.slots.push(slot);
            self.slots.len() as u32
        }
    }

    #[inline]
    fn release(&mut self, id: u32) -> T {
        let free_head = self.free_head;
        let slot = self.slot_mut(id);
        slot.next = free_head;
        let item = slot.item;
        self.free_head = id;
        self.live -= 1;
        item
    }
}

/// One waiting list over a shared [`SlabPool`], packed into one `u32`:
/// the id of its back slot, or [`ArcList::EMPTY`]'s word. See the module
/// docs for the ring layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArcList(u32);

impl ArcList {
    /// The empty list. Its word is `u32::MAX`, which is never a slot id.
    pub const EMPTY: ArcList = ArcList(u32::MAX);

    /// The list a word from [`ArcList::word`] names.
    #[inline]
    pub const fn from_word(word: u32) -> ArcList {
        ArcList(word)
    }

    /// The list's one-word handle: never 0.
    #[inline]
    pub const fn word(self) -> u32 {
        self.0
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self == ArcList::EMPTY
    }

    /// Number of queued items, read from the back slot.
    #[inline]
    pub fn len<T: Copy>(self, pool: &SlabPool<T>) -> usize {
        if self.is_empty() {
            0
        } else {
            pool.slot(self.0).len as usize
        }
    }

    /// A one-slot ring holding `item`; returns the new length, 1.
    #[inline]
    fn push_first<T: Copy>(&mut self, pool: &mut SlabPool<T>, item: T) -> usize {
        let id = pool.alloc(item, NO_SLOT, 1);
        pool.slot_mut(id).next = id;
        self.0 = id;
        1
    }

    /// Append `item` at the back (arrival order); returns the new length.
    /// `O(1)`.
    #[inline]
    pub fn push_back<T: Copy>(&mut self, pool: &mut SlabPool<T>, item: T) -> usize {
        if self.is_empty() {
            return self.push_first(pool, item);
        }
        let back = pool.slot(self.0);
        let (front, len) = (back.next, back.len + 1);
        let id = pool.alloc(item, front, len);
        pool.slot_mut(self.0).next = id;
        self.0 = id;
        len as usize
    }

    /// Put `item` at the front, so it is popped next; returns the new
    /// length. `O(1)`.
    #[inline]
    pub fn push_front<T: Copy>(&mut self, pool: &mut SlabPool<T>, item: T) -> usize {
        if self.is_empty() {
            return self.push_first(pool, item);
        }
        let back = pool.slot(self.0);
        let (front, len) = (back.next, back.len + 1);
        let id = pool.alloc(item, front, 0);
        let back = pool.slot_mut(self.0);
        back.next = id;
        back.len = len;
        len as usize
    }

    /// Remove and return the front item. `O(1)`.
    #[inline]
    pub fn pop_front<T: Copy>(&mut self, pool: &mut SlabPool<T>) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let front = pool.slot(self.0).next;
        if front == self.0 {
            *self = ArcList::EMPTY;
        } else {
            let after = pool.slot(front).next;
            let back = pool.slot_mut(self.0);
            back.next = after;
            back.len -= 1;
        }
        Some(pool.release(front))
    }
}

/// Indexed per-arc storage for constant-time uniform random picks.
///
/// A uniformly random node of an intrusive [`ArcList`] cannot be reached
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
        let mut q = ArcList::EMPTY;
        for i in 0..10 {
            assert_eq!(q.push_back(&mut pool, i), i + 1);
        }
        assert_eq!(q.len(&pool), 10);
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
        let mut q = ArcList::EMPTY;
        for i in 0..5 {
            q.push_front(&mut pool, i);
        }
        for i in (0..5).rev() {
            assert_eq!(q.pop_front(&mut pool), Some(i));
        }
        assert_eq!(q.pop_front(&mut pool), None);
    }

    #[test]
    fn slots_recycle_zero_steady_state_growth() {
        let mut pool = SlabPool::with_capacity(0);
        let mut q = ArcList::EMPTY;
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
        let mut a = ArcList::EMPTY;
        let mut b = ArcList::EMPTY;
        for i in 0..6 {
            if i % 2 == 0 {
                a.push_back(&mut pool, i);
            } else {
                b.push_front(&mut pool, i);
            }
        }
        assert_eq!(pool.len(), 6);
        assert_eq!((a.len(&pool), b.len(&pool)), (3, 3));
        assert_eq!(a.pop_front(&mut pool), Some(0));
        assert_eq!(b.pop_front(&mut pool), Some(5));
        assert_eq!(a.pop_front(&mut pool), Some(2));
        assert_eq!(b.pop_front(&mut pool), Some(3));
        assert_eq!(a.pop_front(&mut pool), Some(4));
        assert_eq!(b.pop_front(&mut pool), Some(1));
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
