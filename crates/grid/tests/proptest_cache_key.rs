//! Property tests of the content-addressed cache key: **representation
//! never matters, semantics always do**.
//!
//! The report cache's whole correctness argument is that
//! [`CacheKey::for_scenario`] hashes the scenario's *canonical* form —
//! so two JSON files that spell the same simulation differently (field
//! order, explicit `null` optionals, float formatting) must collide on
//! one key, while any change that could alter a single report byte
//! (λ, p, seed, horizon, topology size, drain, …) must
//! produce a different key. A false split only costs a re-simulation;
//! a false merge silently serves the wrong report, which is why the
//! separating direction gets a per-field sweep.

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
    }
}
