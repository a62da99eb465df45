//! Node embeddings: the metric that replaces a closed-form greedy step.
//!
//! Dense topologies route with an analytic `next_arc`; sparse generated
//! graphs route **metric-greedily** instead — forward to the neighbour
//! closest to the destination under the generator's embedding distance.
//! Each generator pairs its graph with one [`Embedding`]:
//!
//! * [`Embedding::Lattice`] — the Kleinberg small-world grid's circular
//!   L1 distance over base-`side` digit vectors.
//! * [`Embedding::Disk`] — the hyperbolic plane's distance between
//!   `(r, θ)` placements (Krioukov et al.).
//! * [`Embedding::RingOffset`] — circular node-id distance, the neutral
//!   metric for graphs without a geometric embedding (configuration
//!   model, expander).

/// Fixed-point scale for quantising continuous (hyperbolic) metrics into
/// the `usize` distances the engine's fallback machinery compares. 64
/// steps per unit keeps strict-progress comparisons meaningful while the
/// quantised values stay far below `usize::MAX` for any disk radius.
pub const DISK_SCALE: f64 = 64.0;

/// A per-generator node embedding defining the greedy metric.
#[derive(Clone, Debug)]
pub enum Embedding {
    /// `dims`-dimensional circular lattice with side length `side`: node
    /// ids are base-`side` digit vectors, the metric is the sum of
    /// per-digit circular distances (integer-valued).
    Lattice {
        /// Side length of every dimension.
        side: u32,
        /// Number of dimensions.
        dims: u32,
    },
    /// Native hyperbolic disk placement: node `v` sits at polar
    /// coordinates `(r[v], theta[v])`; the metric is the hyperbolic
    /// distance `acosh(cosh r_u cosh r_v − sinh r_u sinh r_v cos Δθ)`.
    /// Coordinates are stored as `f32` (half the memory at 10⁶ nodes);
    /// the per-node trigonometric terms they imply are cached in `f64`
    /// at construction — a greedy step evaluates a key per candidate
    /// neighbour (every neighbour on a short row, an angular window of
    /// each radius band on a hub row), so evaluating transcendentals per
    /// candidate would dominate routing time. Construct via
    /// [`Embedding::disk`], which fills the caches.
    Disk {
        /// Radial coordinates, one per node.
        r: Vec<f32>,
        /// Angular coordinates, one per node.
        theta: Vec<f32>,
        /// Cached per-node trig terms `[cosh r, sinh r, cos θ, sin θ]`,
        /// interleaved so a row scan touches one cache line per
        /// neighbour instead of gathering four parallel arrays.
        trig: Vec<[f64; 4]>,
    },
    /// Circular distance between node ids on the `n`-cycle
    /// (integer-valued) — for graphs whose generator has no geometry.
    RingOffset {
        /// Number of nodes on the cycle.
        n: u32,
    },
}

impl Embedding {
    /// Build a [`Embedding::Disk`] from polar placements, precomputing
    /// the per-node `cosh`/`sinh`/`cos`/`sin` terms the metric needs.
    /// With the caches, one pairwise comparison costs five multiplies —
    /// `cos Δθ` expands as `cos θ_u cos θ_v + sin θ_u sin θ_v` — instead
    /// of five transcendental evaluations.
    pub fn disk(r: Vec<f32>, theta: Vec<f32>) -> Embedding {
        let trig = r
            .iter()
            .zip(&theta)
            .map(|(&rad, &ang)| {
                let (rad, ang) = (rad as f64, ang as f64);
                [rad.cosh(), rad.sinh(), ang.cos(), ang.sin()]
            })
            .collect();
        Embedding::Disk { r, theta, trig }
    }

    /// The embedding distance between two nodes (0 iff `u == v` for the
    /// integer metrics; the disk metric is 0 only at identical
    /// coordinates, which distinct nodes almost surely never share).
    pub fn metric(&self, u: u64, v: u64) -> f64 {
        match self {
            Embedding::Lattice { side, dims } => {
                let s = *side as u64;
                let (mut a, mut b) = (u, v);
                let mut total = 0u64;
                for _ in 0..*dims {
                    let (da, db) = (a % s, b % s);
                    let d = da.abs_diff(db);
                    total += d.min(s - d);
                    a /= s;
                    b /= s;
                }
                total as f64
            }
            Embedding::Disk { .. } => {
                if u == v {
                    return 0.0;
                }
                self.disk_chord(u as usize, v as usize).acosh()
            }
            Embedding::RingOffset { n } => {
                let n = *n as u64;
                let d = u.abs_diff(v);
                d.min(n - d) as f64
            }
        }
    }

    /// A strictly-monotone surrogate for [`Embedding::metric`]: comparing
    /// keys orders node pairs exactly as comparing metrics does, but a
    /// key may skip the final transcendental. The integer metrics return
    /// the metric itself; the disk returns the clamped `acosh` argument
    /// (`acosh` is strictly increasing on `[1, ∞)`), turning the
    /// per-candidate cost of a greedy step into pure arithmetic.
    /// Keys from *different* pairs are comparable; keys and metrics are
    /// not on the same scale.
    pub fn greedy_key(&self, u: u64, v: u64) -> f64 {
        match self {
            Embedding::Lattice { .. } | Embedding::RingOffset { .. } => self.metric(u, v),
            Embedding::Disk { .. } => {
                if u == v {
                    return 1.0;
                }
                self.disk_chord(u as usize, v as usize)
            }
        }
    }

    /// Quantise a metric value into the integer distance the engine's
    /// strict-progress comparisons use: identity for the integer-valued
    /// metrics, fixed-point at [`DISK_SCALE`] steps per unit for the
    /// hyperbolic disk.
    pub fn quantise(&self, metric: f64) -> usize {
        match self {
            Embedding::Lattice { .. } | Embedding::RingOffset { .. } => metric as usize,
            Embedding::Disk { .. } => (metric * DISK_SCALE).round() as usize,
        }
    }

    /// An evaluator of [`Embedding::greedy_key`] anchored at one
    /// destination: the destination's cached terms are read once, so a
    /// greedy row scan only loads each *neighbour's* cache line. The
    /// disk arm evaluates the exact expression [`Embedding::greedy_key`]
    /// would — bit-identical values, hence identical arc choices.
    pub fn key_to(&self, dest: u64) -> KeyToDest<'_> {
        match self {
            Embedding::Disk { trig, .. } => KeyToDest::Disk {
                trig,
                dest: trig[dest as usize],
            },
            _ => KeyToDest::Exact { embed: self, dest },
        }
    }

    /// The disk metric's `acosh` argument from the cached per-node trig
    /// terms, clamped at 1 against rounding (nearly-coincident points).
    /// Panics on the non-disk variants.
    fn disk_chord(&self, u: usize, v: usize) -> f64 {
        let Embedding::Disk { trig, .. } = self else {
            unreachable!("disk_chord is only called on the Disk variant");
        };
        disk_chord_terms(trig[u], trig[v])
    }
}

/// `max(1, cosh r_u cosh r_v − sinh r_u sinh r_v cos Δθ)` from two
/// nodes' cached `[cosh r, sinh r, cos θ, sin θ]` terms.
#[inline]
fn disk_chord_terms(u: [f64; 4], v: [f64; 4]) -> f64 {
    let [cu, su, au, bu] = u;
    let [cv, sv, av, bv] = v;
    let arg = cu * cv - su * sv * (au * av + bu * bv);
    arg.max(1.0)
}

/// See [`Embedding::key_to`]: a destination-anchored greedy-key
/// evaluator for hot row scans.
pub enum KeyToDest<'a> {
    /// Integer metrics: delegate to [`Embedding::greedy_key`] directly
    /// (nothing worth hoisting).
    Exact {
        /// The embedding to evaluate under.
        embed: &'a Embedding,
        /// The anchored destination.
        dest: u64,
    },
    /// Hyperbolic disk: the destination's cached trig terms held in
    /// registers across the scan.
    Disk {
        /// All nodes' cached trig terms.
        trig: &'a [[f64; 4]],
        /// The destination's cached trig terms.
        dest: [f64; 4],
    },
}

impl KeyToDest<'_> {
    /// [`Embedding::greedy_key`]`(u, dest)` for the anchored
    /// destination.
    #[inline]
    pub fn key(&self, u: u64) -> f64 {
        match self {
            KeyToDest::Exact { embed, dest } => embed.greedy_key(u, *dest),
            KeyToDest::Disk { trig, dest } => disk_chord_terms(trig[u as usize], *dest),
        }
    }
}

/// Hyperbolic distance between polar placements `(r1, θ1)` and
/// `(r2, θ2)` in the native disk model. The `acosh` argument is clamped
/// at 1 against rounding (nearly-coincident points).
pub fn hyperbolic_distance(r1: f64, t1: f64, r2: f64, t2: f64) -> f64 {
    let dt = (t1 - t2).cos();
    let arg = r1.cosh() * r2.cosh() - r1.sinh() * r2.sinh() * dt;
    arg.max(1.0).acosh()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_metric_is_circular_l1() {
        let e = Embedding::Lattice { side: 8, dims: 2 };
        // Node 0 = (0,0); node 7 = (7,0): circular distance 1.
        assert_eq!(e.metric(0, 7), 1.0);
        // (3,2) encoded 3 + 2*8 = 19 vs (0,0): 3 + 2 = 5.
        assert_eq!(e.metric(0, 19), 5.0);
        assert_eq!(e.metric(19, 0), 5.0);
        assert_eq!(e.metric(19, 19), 0.0);
        // Antipodal digit: side 8 → max per-digit distance 4.
        assert_eq!(e.metric(0, 4), 4.0);
    }

    #[test]
    fn ring_offset_metric_wraps() {
        let e = Embedding::RingOffset { n: 10 };
        assert_eq!(e.metric(1, 9), 2.0);
        assert_eq!(e.metric(9, 1), 2.0);
        assert_eq!(e.metric(2, 7), 5.0);
        assert_eq!(e.metric(4, 4), 0.0);
    }

    #[test]
    fn disk_metric_matches_radial_special_case() {
        // Same angle: distance reduces to |r1 - r2|.
        let d = hyperbolic_distance(3.0, 1.0, 5.0, 1.0);
        assert!((d - 2.0).abs() < 1e-9, "radial distance {d}");
        // Symmetry.
        let a = hyperbolic_distance(2.0, 0.3, 4.0, 5.1);
        let b = hyperbolic_distance(4.0, 5.1, 2.0, 0.3);
        assert_eq!(a, b);
        // Triangle-ish sanity: opposite points are farther than radial sum
        // is… bounded by it, actually: d ≤ r1 + r2.
        assert!(a <= 6.0 + 1e-9);
    }

    #[test]
    fn quantisation_scales_only_the_disk() {
        let lat = Embedding::Lattice { side: 4, dims: 1 };
        assert_eq!(lat.quantise(2.0), 2);
        let disk = Embedding::disk(vec![], vec![]);
        assert_eq!(disk.quantise(1.0), DISK_SCALE as usize);
        assert_eq!(disk.quantise(0.0), 0);
    }

    #[test]
    fn cached_disk_metric_matches_the_direct_formula() {
        let r = vec![0.5f32, 3.0, 5.0, 9.5];
        let theta = vec![0.1f32, 1.0, 4.2, 6.0];
        let disk = Embedding::disk(r.clone(), theta.clone());
        for u in 0..r.len() {
            for v in 0..r.len() {
                let direct = if u == v {
                    0.0
                } else {
                    hyperbolic_distance(r[u] as f64, theta[u] as f64, r[v] as f64, theta[v] as f64)
                };
                let cached = disk.metric(u as u64, v as u64);
                // The cached path expands cos Δθ by angle addition, so
                // agreement is to rounding, not bit-exact.
                assert!(
                    (cached - direct).abs() < 1e-6 * (1.0 + direct),
                    "pair ({u},{v}): cached {cached} vs direct {direct}"
                );
            }
        }
    }

    #[test]
    fn greedy_key_orders_pairs_like_the_metric() {
        let disk = Embedding::disk(vec![0.5, 3.0, 5.0, 9.5], vec![0.1, 1.0, 4.2, 6.0]);
        let ring = Embedding::RingOffset { n: 4 };
        for e in [&disk, &ring] {
            let mut pairs = Vec::new();
            for u in 0..4u64 {
                for v in 0..4u64 {
                    pairs.push((u, v));
                }
            }
            for &(a, b) in &pairs {
                for &(c, d) in &pairs {
                    let by_metric = e.metric(a, b).partial_cmp(&e.metric(c, d)).unwrap();
                    let by_key = e.greedy_key(a, b).partial_cmp(&e.greedy_key(c, d)).unwrap();
                    assert_eq!(by_metric, by_key, "pairs ({a},{b}) vs ({c},{d})");
                }
            }
        }
    }
}
