//! Property test of [`DiskCache`] entry loading: **no entry bytes panic
//! a lookup or serve a wrong report**.
//!
//! Each case stores a valid entry with `put`, then overwrites its file
//! with one of four kinds of damage: random bytes, a truncation, bytes
//! that are not UTF-8, or flipped bytes. Every damaged entry differs from
//! the stored one, so `get` must count a miss and return nothing, without
//! a panic; the next `put` must heal the entry, and the `get` after it
//! must serve the report byte for byte. The vendored proptest does not
//! shrink, so every failure names the case seed; [`damaged_entry`]
//! rebuilds that case's exact bytes from it.

use hyperroute_core::scenario::{Scenario, Topology};
use hyperroute_desim::splitmix64;
use hyperroute_grid::{CacheKey, CacheStats, DiskCache, ReportCache};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn scenario() -> Scenario {
    Scenario::builder(Topology::Hypercube { dim: 3 })
        .lambda(0.6)
        .p(0.5)
        .horizon(30.0)
        .warmup(5.0)
        .seed(4)
        .build()
        .unwrap()
}

/// The damage done to `entry` in the case with `seed`: its kind, and the
/// bytes that replace the entry file.
fn damaged_entry(entry: &[u8], seed: u64) -> (&'static str, Vec<u8>) {
    let mut counter = 0u64;
    let mut draw = |n: usize| {
        counter += 1;
        (splitmix64(seed ^ splitmix64(counter)) % n as u64) as usize
    };
    let kind = draw(4);
    let mut bytes = entry.to_vec();
    match kind {
        0 => {
            let len = draw(2 * entry.len());
            return ("random", (0..len).map(|_| draw(256) as u8).collect());
        }
        1 => {
            bytes.truncate(draw(entry.len()));
            return ("truncated", bytes);
        }
        _ => {}
    }
    // 1–3 distinct positions, so no edit undoes another.
    let edits = 1 + draw(3);
    let positions: BTreeSet<usize> = (0..edits).map(|_| draw(bytes.len())).collect();
    for at in positions {
        if kind == 2 {
            // An entry is ASCII, and bytes 0xF5..=0xFF occur nowhere in
            // UTF-8.
            bytes[at] = 0xF5 + draw(11) as u8;
        } else {
            bytes[at] ^= 1 + draw(255) as u8;
        }
    }
    (if kind == 2 { "not UTF-8" } else { "flipped" }, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_entries_miss_without_a_panic_and_heal(seed in any::<u64>()) {
        let dir = std::env::temp_dir().join(format!(
            "hyperroute-damaged-entry-{}-{seed:x}",
            std::process::id()
        ));
        let cache = DiskCache::open(&dir).unwrap();
        let s = scenario();
        let key = CacheKey::for_scenario(&s);
        let report = s.run().unwrap();
        cache.put(&key, &report);
        let path = dir.join(format!("{key}.report.json"));
        let entry = std::fs::read(&path).unwrap();

        let (kind, damaged) = damaged_entry(&entry, seed);
        prop_assert_ne!(&damaged, &entry, "seed {:#x}: the {} entry is undamaged", seed, kind);
        std::fs::write(&path, &damaged).unwrap();
        let got = catch_unwind(AssertUnwindSafe(|| cache.get(&key)));
        prop_assert!(got.is_ok(), "seed {seed:#x}: a {kind} entry panicked `get`");
        prop_assert!(
            got.unwrap().is_none(),
            "seed {seed:#x}: a {kind} entry was served as a report"
        );
        prop_assert_eq!(
            cache.stats(),
            CacheStats { hits: 0, misses: 1, inserts: 1 },
            "seed {:#x}: a {} entry was not counted as one miss",
            seed,
            kind
        );

        cache.put(&key, &report);
        let healed = cache.get(&key);
        prop_assert!(
            healed.as_ref() == Some(&report),
            "seed {seed:#x}: the put after a {kind} entry did not heal it"
        );
        prop_assert_eq!(
            serde_json::to_string(&healed.unwrap()).unwrap(),
            serde_json::to_string(&report).unwrap(),
            "seed {:#x}",
            seed
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
