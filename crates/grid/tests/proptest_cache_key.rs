//! Property tests of the content-addressed cache key: **representation
//! never matters, semantics always do**.
//!
//! The report cache's whole correctness argument is that
//! [`CacheKey::for_scenario`] hashes the scenario's *canonical* form —
//! so two JSON files that spell the same simulation differently (field
//! order, explicit `null` optionals, float formatting) must collide on
//! one key, while any change that could alter a single report byte
//! (λ, p, seed, horizon, topology size or variant, drain, …) must
//! produce a different key. A false split only costs a re-simulation;
//! a false merge silently serves the wrong report, which is why the
//! separating direction gets a per-field sweep. [`corpus_keys_are_pinned`]
//! fixes the key scheme itself to literal values.

use hyperroute_core::scenario::{Scenario, Topology};
use hyperroute_grid::CacheKey;
use proptest::prelude::*;
use serde_json::Value;

/// A valid scenario drawn from the sampled knobs (hypercube keeps every
/// field below meaningful — butterflies ignore `scheme`, say).
fn scenario(
    dim: usize,
    lambda: f64,
    p: f64,
    horizon: f64,
    warmup_frac: f64,
    seed: u64,
) -> Scenario {
    Scenario::builder(Topology::Hypercube { dim })
        .lambda(lambda)
        .p(p)
        .horizon(horizon)
        .warmup(horizon * warmup_frac)
        .seed(seed)
        .build()
        .expect("sampled scenario must validate")
}

fn key(s: &Scenario) -> CacheKey {
    CacheKey::for_scenario(s)
}

/// Render `value` as JSON text with every object's fields in *reverse*
/// order — same document, different bytes. Floats use Rust's shortest
/// round-tripping `Display`, deliberately not the canonical writer's
/// formatting, so number spelling varies too.
fn render_reversed(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => out.push_str(&x.to_string()),
        Value::String(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_reversed(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (name, field)) in fields.iter().rev().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(name);
                out.push_str("\":");
                render_reversed(field, out);
            }
            out.push('}');
        }
    }
}

/// Push an explicit `"name": null` onto the named top-level section.
fn add_null_field(doc: &mut Value, section: &str, name: &str) {
    let Value::Object(top) = doc else {
        panic!("scenario JSON must be an object")
    };
    let sec = top
        .iter_mut()
        .find(|(k, _)| k == section)
        .unwrap_or_else(|| panic!("no `{section}` section"));
    let Value::Object(fields) = &mut sec.1 else {
        panic!("`{section}` must be an object")
    };
    assert!(
        !fields.iter().any(|(k, _)| k == name),
        "`{section}.{name}` unexpectedly present; pick an absent optional"
    );
    fields.push((name.to_string(), Value::Null));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reversed field order + non-canonical number spelling: same key.
    #[test]
    fn json_field_order_and_number_spelling_never_change_the_key(
        dim in 2usize..9,
        lambda in 0.05f64..1.2,
        p in 0.05f64..0.95,
        horizon in 50.0f64..500.0,
        warmup_frac in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        let s = scenario(dim, lambda, p, horizon, warmup_frac, seed);
        let canonical = s.to_json();
        let doc = serde_json::parse(&canonical).expect("canonical JSON parses");

        let mut scrambled = String::new();
        render_reversed(&doc, &mut scrambled);
        prop_assert_ne!(
            &scrambled, &canonical,
            "reversal should produce different bytes"
        );

        let reparsed = Scenario::from_json(&scrambled)
            .expect("scrambled spelling still parses");
        prop_assert_eq!(key(&reparsed), key(&s));
    }

    /// `"stretch": null` spells the same scenario as leaving the key out
    /// entirely; the key must not see the difference.
    #[test]
    fn explicit_null_optionals_hash_like_absent_ones(
        dim in 2usize..9,
        lambda in 0.05f64..1.2,
        seed in any::<u64>(),
    ) {
        let s = scenario(dim, lambda, 0.5, 100.0, 0.2, seed);
        let mut doc = serde_json::parse(&s.to_json()).unwrap();
        add_null_field(&mut doc, "workload", "stretch");
        let mut text = String::new();
        render_reversed(&doc, &mut text);
        let reparsed = Scenario::from_json(&text).unwrap();
        prop_assert_eq!(key(&reparsed), key(&s));
    }

    /// Every semantic knob separates: change exactly one field, get a
    /// new key.
    #[test]
    fn any_single_semantic_change_changes_the_key(
        dim in 2usize..8,
        lambda in 0.05f64..1.0,
        p in 0.1f64..0.9,
        horizon in 50.0f64..400.0,
        seed in any::<u64>(),
    ) {
        prop_assume!(lambda != p);
        let base = scenario(dim, lambda, p, horizon, 0.25, seed);
        let k0 = key(&base);

        let mutations: Vec<(&str, Scenario)> = vec![
            ("dim", scenario(dim + 1, lambda, p, horizon, 0.25, seed)),
            ("lambda", scenario(dim, lambda + 0.01, p, horizon, 0.25, seed)),
            ("p", scenario(dim, lambda, p + 0.01, horizon, 0.25, seed)),
            ("horizon", scenario(dim, lambda, p, horizon + 1.0, 0.25, seed)),
            ("seed", scenario(dim, lambda, p, horizon, 0.25, seed ^ 1)),
            ("drain", {
                let mut s = base.clone();
                s.run.drain = !s.run.drain;
                s
            }),
            ("warmup", {
                let mut s = base.clone();
                s.run.warmup += 1.0;
                s
            }),
            // The same fields under another variant: only the variant's
            // name tells the two apart.
            ("topology variant", {
                let mut s = base.clone();
                s.topology = Topology::Butterfly { dim };
                s
            }),
            // The same two values in the other fields: only field order
            // and names tell the two apart.
            ("lambda and p exchanged", {
                let mut s = base.clone();
                (s.workload.lambda, s.workload.p) = (p, lambda);
                s
            }),
        ];
        for (what, mutated) in &mutations {
            prop_assert_ne!(
                key(mutated), k0,
                "changing `{}` left the cache key unchanged", what
            );
        }

        // And the keys of distinct mutations are themselves distinct —
        // the hash is not collapsing everything onto two values.
        let mut keys: Vec<u128> = mutations.iter().map(|(_, m)| key(m).0 .0).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), mutations.len());

        // A sparse generator's seed picks another random graph.
        let small_world = |generator_seed| {
            let mut s = base.clone();
            s.topology = Topology::SmallWorld {
                side: 8,
                dims: 2,
                links: 1,
                alpha: 2.0,
                seed: generator_seed,
            };
            s
        };
        let graph_seed = seed.rotate_left(17);
        prop_assert_ne!(
            key(&small_world(graph_seed ^ 1)),
            key(&small_world(graph_seed)),
            "changing the generator `seed` left the cache key unchanged"
        );
    }
}

/// The key scheme, pinned: the keys of three corpus scenarios, one each
/// for a paper topology, a sparse generator with float parameters and an
/// equivalent network. Every report cache files its entries under such
/// keys, so these values may change only together with a new key-scheme
/// version string (`KEY_SCHEME` in `crates/core/src/scenario.rs`) in the
/// same commit, or with an `ENGINE_FINGERPRINT` bump, which moves every
/// key on purpose. A serde, field-order or hashing change that moves them
/// by accident fails here instead of silently turning every disk cache
/// into misses.
#[test]
fn corpus_keys_are_pinned() {
    // (corpus file, its key, its key under scheme v1, which hashed the
    // pretty JSON text byte by byte)
    let pins = [
        (
            "hypercube_greedy_baseline",
            "994afcf2a15232f5382236f1e24cb4ad",
            "8ff48d6ab4f4fbff5b04abdb5cbd4f1c",
        ),
        (
            "hyperbolic_hub_greedy",
            "a3c20aae332b9d200564bef09b3a0a85",
            "5af7be8289ed19b2e5c4f09add2f157f",
        ),
        (
            "eqnet_fig2_occupancy",
            "4fa6a6d95966d7b5c6d81f3ee0cd568e",
            "2ba1de880d637784cdef9d969f6b51b7",
        ),
    ];
    for (stem, pinned, v1) in pins {
        let path = format!("{}/../../scenarios/{stem}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let got = key(&Scenario::from_json(&text).unwrap()).to_string();
        assert_ne!(got, v1, "{stem}: still the key scheme v1 key");
        assert_eq!(got, pinned, "{stem}: the cache key moved");
    }
}
