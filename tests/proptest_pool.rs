//! Property test of the slab pool's one-word waiting lists against a
//! `VecDeque` model.
//!
//! Each case drives random `push_back` / `push_front` / `pop_front`
//! operations over 8–12 [`ArcList`]s that share one [`SlabPool`], the way
//! the engine's arcs share it under FIFO (push back) and LIFO (push
//! front) service. After every operation each list must pop what its
//! model pops, report the model's length from its one-word handle, and
//! the slab must never have grown past the most items ever live at once.
//! The vendored proptest does not shrink, so every failure names the
//! case seed; [`Draw`] rebuilds that case's exact operations from it.

use hyperroute_core::pool::{ArcList, SlabPool};
use hyperroute_desim::splitmix64;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Deterministic draws from a case seed.
struct Draw {
    seed: u64,
    counter: u64,
}

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.counter += 1;
        (splitmix64(self.seed ^ splitmix64(self.counter)) % n as u64) as usize
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn shared_pool_lists_match_a_deque_model(seed in any::<u64>()) {
        let mut draw = Draw { seed, counter: 0 };
        let lists = 8 + draw.below(5);
        let mut pool: SlabPool<u64> = SlabPool::with_capacity(draw.below(4));
        let mut handles = vec![ArcList::EMPTY; lists];
        let mut models = vec![VecDeque::new(); lists];
        let (mut next_item, mut live, mut peak) = (0u64, 0usize, 0usize);
        // Phases alternate a push bias with a pop bias, so lists grow
        // long, drain to empty and regrow over recycled slots.
        for step in 0..600 + draw.below(600) {
            let pushing = (step / 100) % 2 == 0;
            let at = draw.below(lists);
            let (list, model) = (&mut handles[at], &mut models[at]);
            match draw.below(10) {
                roll if roll < 6 && pushing || roll < 3 => {
                    let len = if draw.below(3) == 0 {
                        model.push_front(next_item);
                        list.push_front(&mut pool, next_item)
                    } else {
                        model.push_back(next_item);
                        list.push_back(&mut pool, next_item)
                    };
                    next_item += 1;
                    live += 1;
                    peak = peak.max(live);
                    prop_assert_eq!(len, model.len(), "seed {:#x} step {}: push length", seed, step);
                }
                _ => {
                    let popped = list.pop_front(&mut pool);
                    live -= popped.is_some() as usize;
                    prop_assert_eq!(popped, model.pop_front(), "seed {:#x} step {}: pop", seed, step);
                }
            }
            prop_assert_eq!(
                list.len(&pool),
                model.len(),
                "seed {:#x} step {}: length read from the handle",
                seed,
                step
            );
            prop_assert_eq!(list.is_empty(), model.is_empty(), "seed {:#x} step {}", seed, step);
            prop_assert_ne!(list.word(), 0, "seed {:#x} step {}: a list word is 0", seed, step);
            prop_assert_eq!(pool.len(), live, "seed {:#x} step {}: live items", seed, step);
            prop_assert!(
                pool.capacity_used() <= peak,
                "seed {seed:#x} step {step}: {} slots for a peak of {peak} live items",
                pool.capacity_used()
            );
        }
        // Drain: every list yields its model's remaining order, through a
        // copy rebuilt from the bare word the engine stores.
        for (at, model) in models.iter_mut().enumerate() {
            let mut list = ArcList::from_word(handles[at].word());
            while let Some(expected) = model.pop_front() {
                prop_assert_eq!(list.pop_front(&mut pool), Some(expected), "seed {:#x} list {}", seed, at);
            }
            prop_assert_eq!(list.pop_front(&mut pool), None, "seed {:#x} list {}", seed, at);
            prop_assert_eq!(list, ArcList::EMPTY, "seed {:#x} list {}", seed, at);
        }
        prop_assert!(pool.is_empty(), "seed {seed:#x}: items left after draining");
    }
}
