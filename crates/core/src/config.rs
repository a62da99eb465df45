//! Shared simulation configuration types and their validation errors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A structured configuration-validation error.
///
/// Returned by the [`crate::scenario::Scenario`] builder and by the
/// fallible constructors in this module — every malformed spec surfaces
/// as one of these before any engine is built.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ConfigError {
    /// Topology dimension outside the supported range.
    Dimension {
        /// The rejected dimension.
        dim: usize,
        /// Smallest accepted value.
        min: usize,
        /// Largest accepted value.
        max: usize,
    },
    /// Per-node arrival rate is negative, NaN or infinite.
    Lambda(
        /// The rejected rate.
        f64,
    ),
    /// Bit-flip probability outside `[0, 1]`.
    FlipProbability(
        /// The rejected probability.
        f64,
    ),
    /// Measurement window is empty, inverted or non-finite.
    Window {
        /// Configured generation horizon.
        horizon: f64,
        /// Configured warm-up cutoff.
        warmup: f64,
    },
    /// Slotted arrivals need at least one slot per unit time.
    SlotsPerUnit,
    /// Destination pmf has the wrong number of entries.
    PmfLength {
        /// Number of entries supplied.
        len: usize,
        /// Required length (`2^d`), when the dimension is known.
        expected: Option<usize>,
    },
    /// Destination pmf entry is negative, NaN or infinite.
    PmfEntry {
        /// Index of the offending entry.
        index: usize,
        /// The rejected value.
        value: f64,
    },
    /// Destination pmf does not sum to 1.
    PmfSum(
        /// The actual sum.
        f64,
    ),
    /// Pipelined scheme needs at least two rounds.
    Rounds(
        /// The rejected round count.
        usize,
    ),
    /// Ring node count outside the supported range.
    RingSize {
        /// The rejected node count.
        nodes: usize,
        /// Smallest accepted value.
        min: usize,
        /// Largest accepted value.
        max: usize,
    },
    /// Torus shape outside the supported range (`k >= 3`, `d >= 1`,
    /// `k^d <= 2^26`).
    TorusShape {
        /// The rejected radix `k`.
        radix: usize,
        /// The rejected dimension count `d`.
        dim: usize,
    },
    /// Weighted-node destination pmf has the wrong number of entries.
    NodePmfLength {
        /// Number of entries supplied.
        len: usize,
        /// Required length (the topology's node count).
        expected: usize,
    },
    /// Power-law destination exponent is negative, NaN or infinite.
    PowerLawExponent(
        /// The rejected exponent.
        f64,
    ),
    /// Seeded fault fraction outside `[0, 1]`.
    FaultFraction(
        /// The rejected fraction.
        f64,
    ),
    /// Explicit dead-arc index outside the topology's arc space.
    FaultArc {
        /// The rejected arc index.
        index: usize,
        /// Number of arcs the topology has.
        num_arcs: usize,
    },
    /// Retry fallback configured with a zero budget (a packet must be
    /// allowed at least one paid deflection to differ from `Drop`).
    RetryBudget,
    /// Escape fallback configured with a zero TTL (a stuck packet must
    /// be allowed at least one paid escape hop to differ from `Drop`).
    EscapeTtl,
    /// A sparse-generator parameter outside its supported range.
    GeneratorParam {
        /// Which parameter was rejected.
        param: String,
        /// The rejected value.
        value: f64,
        /// Human-readable statement of the accepted range.
        requirement: String,
    },
    /// Dynamic fault-arrival rate is negative, NaN or infinite.
    FaultRate(
        /// The rejected rate.
        f64,
    ),
    /// The requested combination is meaningless for the chosen topology
    /// (e.g. a routing scheme on the butterfly, whose paths are unique).
    Unsupported {
        /// The topology that rejected the setting.
        topology: String,
        /// What was requested.
        feature: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Dimension { dim, min, max } => {
                write!(f, "dimension {dim} outside supported range {min}..={max}")
            }
            ConfigError::Lambda(l) => {
                write!(f, "arrival rate λ = {l} must be finite and non-negative")
            }
            ConfigError::FlipProbability(p) => {
                write!(f, "flip probability p = {p} outside [0, 1]")
            }
            ConfigError::Window { horizon, warmup } => write!(
                f,
                "measurement window needs finite 0 <= warmup < horizon, \
                 got warmup = {warmup}, horizon = {horizon}"
            ),
            ConfigError::SlotsPerUnit => {
                write!(f, "slotted model needs at least one slot per unit time")
            }
            ConfigError::PmfLength { len, expected } => match expected {
                Some(e) => write!(f, "destination pmf has {len} entries, needs 2^d = {e}"),
                None => write!(
                    f,
                    "destination pmf has {len} entries, needs a power of two covering 2^d masks"
                ),
            },
            ConfigError::PmfEntry { index, value } => write!(
                f,
                "destination pmf entry {index} = {value} must be finite and non-negative"
            ),
            ConfigError::PmfSum(s) => {
                write!(f, "destination pmf sums to {s}, must sum to 1")
            }
            ConfigError::Rounds(r) => {
                write!(f, "pipelined simulation needs at least 2 rounds, got {r}")
            }
            ConfigError::RingSize { nodes, min, max } => {
                write!(f, "ring size {nodes} outside supported range {min}..={max}")
            }
            ConfigError::TorusShape { radix, dim } => write!(
                f,
                "torus shape {radix}^{dim} unsupported (need radix >= 3, dim >= 1, \
                 at most 2^26 nodes)"
            ),
            ConfigError::NodePmfLength { len, expected } => write!(
                f,
                "node destination pmf has {len} entries, needs one per node = {expected}"
            ),
            ConfigError::PowerLawExponent(a) => write!(
                f,
                "power-law destination exponent {a} must be finite and non-negative"
            ),
            ConfigError::FaultFraction(x) => {
                write!(f, "fault fraction {x} outside [0, 1]")
            }
            ConfigError::FaultArc { index, num_arcs } => write!(
                f,
                "explicit dead arc {index} outside the topology's arc space 0..{num_arcs}"
            ),
            ConfigError::RetryBudget => {
                write!(f, "retry fallback needs a budget of at least 1 deflection")
            }
            ConfigError::EscapeTtl => {
                write!(f, "escape fallback needs a TTL of at least 1 hop")
            }
            ConfigError::GeneratorParam {
                param,
                value,
                requirement,
            } => {
                write!(
                    f,
                    "generator parameter {param} = {value} invalid: {requirement}"
                )
            }
            ConfigError::FaultRate(r) => {
                write!(f, "fault arrival rate {r} must be finite and non-negative")
            }
            ConfigError::Unsupported { topology, feature } => {
                write!(f, "the {topology} topology does not support {feature}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which routing scheme drives the hypercube simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Scheme {
    /// The paper's scheme: cross the required dimensions in increasing
    /// index order (canonical paths) — §3.
    #[default]
    Greedy,
    /// Ablation: cross the required dimensions in an order chosen uniformly
    /// at random, one hop at a time. Still shortest-path and oblivious to
    /// traffic, but the network is no longer levelled, so the paper's proof
    /// technique does not apply to it (experiment E19 measures whether the
    /// *behaviour* changes).
    RandomOrder,
    /// Valiant–Brebner "mixing" (§5 discussion): route greedily to a
    /// uniformly random intermediate node, then greedily to the true
    /// destination. Doubles the expected path length but flattens any
    /// destination skew.
    TwoPhaseValiant,
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scheme::Greedy => "greedy",
            Scheme::RandomOrder => "random-order",
            Scheme::TwoPhaseValiant => "two-phase-valiant",
        })
    }
}

/// How packets are generated (paper §1.1 vs §3.4).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize, Default)]
pub enum ArrivalModel {
    /// Continuous time: each node generates packets as an independent
    /// Poisson process with rate `λ`.
    #[default]
    Poisson,
    /// Slotted time: at each slot boundary (slot length `1/slots_per_unit`)
    /// each node generates a Poisson batch with mean `λ·r`.
    Slotted {
        /// Number of slots per unit time (`1/r`, must be ≥ 1).
        slots_per_unit: u32,
    },
}

impl ArrivalModel {
    /// Slot length `r` (1.0 for the continuous model, where it is unused).
    pub fn slot_length(self) -> f64 {
        match self {
            ArrivalModel::Poisson => 1.0,
            ArrivalModel::Slotted { slots_per_unit } => 1.0 / slots_per_unit as f64,
        }
    }

    /// Reject zero-slot configurations.
    pub fn validate(self) -> Result<(), ConfigError> {
        match self {
            ArrivalModel::Poisson => Ok(()),
            ArrivalModel::Slotted { slots_per_unit } if slots_per_unit >= 1 => Ok(()),
            ArrivalModel::Slotted { .. } => Err(ConfigError::SlotsPerUnit),
        }
    }
}

impl fmt::Display for ArrivalModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalModel::Poisson => f.write_str("poisson"),
            ArrivalModel::Slotted { slots_per_unit } => {
                write!(f, "slotted({slots_per_unit}/unit)")
            }
        }
    }
}

/// Which waiting packet an arc serves next (ablation of the paper's FIFO
/// contention rule, "priority to the one that arrived first").
///
/// All three policies are non-preemptive and work-conserving, so the mean
/// delay is (nearly) policy-independent while the delay *distribution*
/// changes sharply — experiment E22 measures both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ContentionPolicy {
    /// The paper's rule: first-come, first-served.
    #[default]
    Fifo,
    /// Last-come, first-served (stack order).
    Lifo,
    /// Serve a uniformly random waiting packet.
    Random,
}

impl fmt::Display for ContentionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ContentionPolicy::Fifo => "fifo",
            ContentionPolicy::Lifo => "lifo",
            ContentionPolicy::Random => "random",
        })
    }
}

/// Destination distribution (all translation-invariant, as required by the
/// §2.2 generalisation: `Pr[dest = z | origin = x]` depends on `x ⊕ z`
/// only).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Default)]
pub enum DestinationSpec {
    /// Eq. (1): flip each bit independently with the config's `p`
    /// (Lemma 1's product form). On the node-addressed graph topologies
    /// (ring, torus, de Bruijn) this default means **uniform over all
    /// nodes** (`p` is ignored).
    #[default]
    BitFlip,
    /// Arbitrary pmf over XOR masks `0..2^d` (must have length `2^d` and
    /// sum to 1). The per-dimension load factors and the generalised
    /// stability condition `λ·max_j p_j < 1` come from
    /// `hyperroute_analysis::load::dimension_load_factors`.
    ///
    /// Construct with [`DestinationSpec::mask_pmf`], which validates the
    /// entries up front.
    MaskPmf(Vec<f64>),
    /// Arbitrary pmf over **absolute destination nodes** (one entry per
    /// node, summing to 1) — the reusable weighted-node arm for the
    /// graph topologies (ring, torus, de Bruijn). A destination equal to
    /// the origin self-delivers with zero hops, like the uniform law's
    /// `1/n` mass.
    ///
    /// Construct with [`DestinationSpec::node_pmf`], which validates the
    /// entries up front.
    NodePmf(Vec<f64>),
    /// Papillon-style skewed ring demand (ring only): the destination is
    /// `origin + ℓ (mod n)` with the clockwise offset `ℓ` drawn from
    /// `P(ℓ) ∝ ℓ^-alpha` over `ℓ ∈ 1..n` — translation-invariant,
    /// never self-destined, harmonic for `alpha = 1` (the small-world /
    /// DHT demand Abraham et al. route greedily under).
    RingPowerLaw {
        /// Skew exponent `α >= 0` (`0` = uniform over non-self nodes).
        alpha: f64,
    },
}

/// Tolerance for the pmf unit-sum check (matches the analysis crate's).
const PMF_SUM_TOLERANCE: f64 = 1e-9;

/// Workload + measurement-window validation shared by every topology arm
/// of `Scenario::validate` — one implementation, so the rules can never
/// drift between topologies.
pub(crate) fn check_workload_window(
    lambda: f64,
    p: f64,
    horizon: f64,
    warmup: f64,
    arrivals: ArrivalModel,
) -> Result<(), ConfigError> {
    if !(lambda >= 0.0 && lambda.is_finite()) {
        return Err(ConfigError::Lambda(lambda));
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(ConfigError::FlipProbability(p));
    }
    if !(horizon.is_finite() && warmup.is_finite() && horizon > warmup && warmup >= 0.0) {
        return Err(ConfigError::Window { horizon, warmup });
    }
    arrivals.validate()
}

/// Borrowed-field validation for the dimension-parameterised packet
/// simulators (hypercube/butterfly arms of `Scenario::validate`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn check_sim_fields(
    dim: usize,
    max_dim: usize,
    lambda: f64,
    p: f64,
    horizon: f64,
    warmup: f64,
    arrivals: ArrivalModel,
    dest: Option<&DestinationSpec>,
) -> Result<(), ConfigError> {
    if dim < 1 || dim > max_dim {
        return Err(ConfigError::Dimension {
            dim,
            min: 1,
            max: max_dim,
        });
    }
    check_workload_window(lambda, p, horizon, warmup, arrivals)?;
    match dest {
        Some(dest) => dest.validate(dim),
        None => Ok(()),
    }
}

/// Borrowed-slice pmf checks shared by [`DestinationSpec::mask_pmf`] and
/// [`DestinationSpec::validate`] — no allocation, so validating a dim-20
/// pmf (1M entries) does not copy it.
fn check_pmf(pmf: &[f64], expected: Option<usize>) -> Result<(), ConfigError> {
    let length_ok = match expected {
        Some(e) => pmf.len() == e,
        None => !pmf.is_empty() && pmf.len().is_power_of_two(),
    };
    if !length_ok {
        return Err(ConfigError::PmfLength {
            len: pmf.len(),
            expected,
        });
    }
    check_pmf_entries(pmf)
}

/// Entry/sum checks shared by mask and node pmfs (length rules differ).
fn check_pmf_entries(pmf: &[f64]) -> Result<(), ConfigError> {
    for (index, &value) in pmf.iter().enumerate() {
        if !value.is_finite() || value < 0.0 {
            return Err(ConfigError::PmfEntry { index, value });
        }
    }
    let sum: f64 = pmf.iter().sum();
    if (sum - 1.0).abs() > PMF_SUM_TOLERANCE {
        return Err(ConfigError::PmfSum(sum));
    }
    Ok(())
}

impl DestinationSpec {
    /// Validated construction of a [`DestinationSpec::MaskPmf`]: the pmf
    /// must have a power-of-two length (one entry per XOR mask of some
    /// dimension), finite non-negative entries, and unit sum.
    pub fn mask_pmf(pmf: Vec<f64>) -> Result<DestinationSpec, ConfigError> {
        check_pmf(&pmf, None)?;
        Ok(DestinationSpec::MaskPmf(pmf))
    }

    /// Validated construction of a [`DestinationSpec::NodePmf`]: finite
    /// non-negative entries with unit sum (the length is checked against
    /// the topology's node count at scenario validation).
    pub fn node_pmf(pmf: Vec<f64>) -> Result<DestinationSpec, ConfigError> {
        if pmf.is_empty() {
            return Err(ConfigError::NodePmfLength {
                len: 0,
                expected: 1,
            });
        }
        check_pmf_entries(&pmf)?;
        Ok(DestinationSpec::NodePmf(pmf))
    }

    /// Check this spec against a node-addressed graph topology with
    /// `nodes` nodes (ring / torus / de Bruijn arms of
    /// `Scenario::validate`). `BitFlip` means uniform there; `MaskPmf` is
    /// rejected by the caller before this runs.
    pub(crate) fn validate_nodes(&self, nodes: usize) -> Result<(), ConfigError> {
        match self {
            DestinationSpec::BitFlip => Ok(()),
            DestinationSpec::MaskPmf(_) => unreachable!("mask pmfs are hypercube-only"),
            DestinationSpec::NodePmf(pmf) => {
                if pmf.len() != nodes {
                    return Err(ConfigError::NodePmfLength {
                        len: pmf.len(),
                        expected: nodes,
                    });
                }
                check_pmf_entries(pmf)
            }
            DestinationSpec::RingPowerLaw { alpha } => {
                if alpha.is_finite() && *alpha >= 0.0 {
                    Ok(())
                } else {
                    Err(ConfigError::PowerLawExponent(*alpha))
                }
            }
        }
    }

    /// Check this spec against a concrete topology dimension `d` (re-runs
    /// the construction checks too, because the `MaskPmf` variant is still
    /// directly constructible). The node-addressed arms (`NodePmf`,
    /// `RingPowerLaw`) are not meaningful against a hypercube dimension
    /// and are rejected.
    pub fn validate(&self, dim: usize) -> Result<(), ConfigError> {
        match self {
            DestinationSpec::BitFlip => Ok(()),
            DestinationSpec::MaskPmf(pmf) => check_pmf(pmf, Some(1usize << dim)),
            DestinationSpec::NodePmf(_) | DestinationSpec::RingPowerLaw { .. } => {
                Err(ConfigError::Unsupported {
                    topology: "hypercube".to_string(),
                    feature: "node-addressed destination laws (mask pmfs instead)".to_string(),
                })
            }
        }
    }

    /// Papillon-style harmonic ring demand (`RingPowerLaw` with
    /// `alpha = 1`).
    pub fn ring_harmonic() -> DestinationSpec {
        DestinationSpec::RingPowerLaw { alpha: 1.0 }
    }

    /// Build the Eq.-(1)-style product pmf from per-dimension flip
    /// probabilities (a convenient way to construct skewed but structured
    /// distributions).
    ///
    /// Panics on malformed input (dimension outside `1..=20` or
    /// probabilities outside `[0, 1]`); use [`DestinationSpec::mask_pmf`]
    /// for fallible construction from raw entries.
    pub fn product_of_flips(per_dim: &[f64]) -> DestinationSpec {
        let d = per_dim.len();
        assert!((1..=20).contains(&d), "dimension out of range");
        assert!(per_dim.iter().all(|&q| (0.0..=1.0).contains(&q)));
        let n = 1usize << d;
        let mut pmf = vec![0.0f64; n];
        for (mask, slot) in pmf.iter_mut().enumerate() {
            let mut prob = 1.0;
            for (j, &q) in per_dim.iter().enumerate() {
                prob *= if (mask >> j) & 1 == 1 { q } else { 1.0 - q };
            }
            *slot = prob;
        }
        DestinationSpec::mask_pmf(pmf).expect("product pmf is valid by construction")
    }
}

/// Arc-failure mask of a faulty-network workload (Angel et al., *Routing
/// Complexity of Faulty Networks*): a set of dead directed arcs plus the
/// policy applied when a packet's greedy arc is dead.
///
/// Supported on the graph-routed topologies (ring, torus, de Bruijn, and
/// the hypercube under the canonical greedy scheme); the simulators count
/// a delivered/dropped split in the report's graph extension.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Which arcs are dead at the start of the run.
    pub mode: FaultMode,
    /// What a packet does when its greedy arc is dead.
    pub fallback: FaultFallback,
    /// Optional **dynamic** fault process: further arcs die mid-run at
    /// seeded exponential interarrival times, on top of the static
    /// `mode` mask. `None` (the default, omitted from serialised specs)
    /// keeps the fault pattern fixed at `t = 0`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub dynamics: Option<FaultArrivals>,
}

/// A seeded Poisson process of arc deaths for [`FaultSpec::dynamics`]:
/// every `Exp(rate)` time units another uniformly-chosen arc dies
/// (already-dead picks are idempotent, so the kill rate tapers as the
/// mask fills). The process has its own RNG seed, independent of both
/// the traffic seed and the static-mask seed, so sweeps can vary any of
/// the three alone.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultArrivals {
    /// Mean arc deaths per unit time (must be finite and non-negative;
    /// `0` disables the process).
    pub rate: f64,
    /// Seed of the dedicated fault-arrival RNG.
    pub seed: u64,
}

/// How the dead-arc set of a [`FaultSpec`] is chosen.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultMode {
    /// Kill `round(fraction · num_arcs)` arcs chosen uniformly without
    /// replacement by a dedicated RNG — independent of the run seed, so
    /// sweeps can vary traffic over a fixed fault pattern (or vice
    /// versa).
    Seeded {
        /// Fraction of arcs to kill, in `[0, 1]`.
        fraction: f64,
        /// Seed of the fault-pattern RNG.
        seed: u64,
    },
    /// Kill exactly these dense arc indices.
    Explicit {
        /// The dead arcs (duplicates are idempotent).
        arcs: Vec<usize>,
    },
}

/// Fallback applied when a packet's greedy arc is **unavailable** — dead
/// under a fault mask, or absent entirely because metric greedy on a
/// sparse topology hit a local minimum. The arms span the free/paid ×
/// single/multi recovery space; the `hyperroute-core` crate docs walk
/// through them on a worked butterfly example.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum FaultFallback {
    /// Deterministically scan the node's other outgoing arcs in dense
    /// index order and take the first **live** arc whose head is strictly
    /// closer to the destination (shortest-path progress is preserved, so
    /// routes still terminate); drop the packet if none exists.
    #[default]
    Detour,
    /// Drop the packet immediately.
    Drop,
    /// Detour when a free (strict-progress) live arc exists; otherwise
    /// spend one unit of the packet's deflection budget on **any** live
    /// arc out of the node — scanned dense-index-first, then the
    /// topology's ranked alternates (which on the butterfly reach the
    /// level-`d` wrap back into a fresh pass). A packet whose budget is
    /// exhausted with no free arc is dropped, so routes still terminate.
    Retry {
        /// Paid (non-progress) deflections allowed per packet, `>= 1`.
        budget: u16,
    },
    /// Consult the topology's **ranked alternate arcs**
    /// (`RoutingTopology::alternate_arcs`) and take the first live one —
    /// free when it makes strict progress, otherwise one of a bounded
    /// number of paid deflections per packet; drop when no ranked
    /// alternate is live or the deflection bound is spent.
    Multipath,
    /// GOAFR-style last-resort escape for **metric-greedy** local minima
    /// (and dead greedy arcs generally): forward to the live
    /// out-neighbour closest to the destination even when that regresses,
    /// remembering the distance where the walk got stuck. Regressing
    /// hops are paid against a per-packet TTL; the packet leaves escape
    /// mode the moment it reaches a node strictly closer than the entry
    /// point and resumes plain greedy. Drops when the TTL is spent or no
    /// live out-arc exists (a dead end).
    Escape {
        /// Paid (non-progress) escape hops allowed per packet, `>= 1`.
        ttl: u16,
    },
}

impl FaultSpec {
    /// Check the spec against a topology with `num_arcs` arcs.
    pub fn validate(&self, num_arcs: usize) -> Result<(), ConfigError> {
        match &self.mode {
            FaultMode::Seeded { fraction, .. } => {
                if !(0.0..=1.0).contains(fraction) {
                    return Err(ConfigError::FaultFraction(*fraction));
                }
            }
            FaultMode::Explicit { arcs } => {
                if let Some(&index) = arcs.iter().find(|&&a| a >= num_arcs) {
                    return Err(ConfigError::FaultArc { index, num_arcs });
                }
            }
        }
        if matches!(self.fallback, FaultFallback::Retry { budget: 0 }) {
            return Err(ConfigError::RetryBudget);
        }
        if matches!(self.fallback, FaultFallback::Escape { ttl: 0 }) {
            return Err(ConfigError::EscapeTtl);
        }
        if let Some(FaultArrivals { rate, .. }) = self.dynamics {
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(ConfigError::FaultRate(rate));
            }
        }
        Ok(())
    }

    /// Whether any arc can ever be dead under this spec — `false` only
    /// for a statically-empty mask with no dynamic arrivals.
    pub fn can_kill(&self) -> bool {
        let static_kill = match &self.mode {
            FaultMode::Seeded { fraction, .. } => *fraction > 0.0,
            FaultMode::Explicit { arcs } => !arcs.is_empty(),
        };
        static_kill || self.dynamics.is_some_and(|d| d.rate > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_unique() {
        let names = [
            Scheme::Greedy.to_string(),
            Scheme::RandomOrder.to_string(),
            Scheme::TwoPhaseValiant.to_string(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn slot_lengths() {
        assert_eq!(ArrivalModel::Poisson.slot_length(), 1.0);
        assert_eq!(
            ArrivalModel::Slotted { slots_per_unit: 4 }.slot_length(),
            0.25
        );
    }

    #[test]
    fn arrival_model_validation() {
        assert!(ArrivalModel::Poisson.validate().is_ok());
        assert!(ArrivalModel::Slotted { slots_per_unit: 1 }
            .validate()
            .is_ok());
        assert_eq!(
            ArrivalModel::Slotted { slots_per_unit: 0 }.validate(),
            Err(ConfigError::SlotsPerUnit)
        );
    }

    #[test]
    fn defaults_match_paper_model() {
        assert_eq!(Scheme::default(), Scheme::Greedy);
        assert_eq!(ArrivalModel::default(), ArrivalModel::Poisson);
        assert_eq!(ContentionPolicy::default(), ContentionPolicy::Fifo);
        assert_eq!(DestinationSpec::default(), DestinationSpec::BitFlip);
    }

    #[test]
    fn product_of_flips_recovers_eq1() {
        // Uniform per-dimension probability q reproduces Eq. (1)'s
        // p^|mask| (1-p)^(d-|mask|).
        let q = 0.3f64;
        let DestinationSpec::MaskPmf(pmf) = DestinationSpec::product_of_flips(&[q; 3]) else {
            panic!("wrong variant");
        };
        assert_eq!(pmf.len(), 8);
        let total: f64 = pmf.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        for (mask, &prob) in pmf.iter().enumerate() {
            let k = (mask as u32).count_ones() as i32;
            let expect = q.powi(k) * (1.0 - q).powi(3 - k);
            assert!((prob - expect).abs() < 1e-12, "mask {mask}");
        }
    }

    #[test]
    fn skewed_product_pmf() {
        // Dim 0 always flips: masks without bit 0 have probability 0.
        let DestinationSpec::MaskPmf(pmf) = DestinationSpec::product_of_flips(&[1.0, 0.25]) else {
            panic!("wrong variant");
        };
        assert_eq!(pmf[0b00], 0.0);
        assert_eq!(pmf[0b10], 0.0);
        assert!((pmf[0b01] - 0.75).abs() < 1e-12);
        assert!((pmf[0b11] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mask_pmf_rejects_bad_lengths() {
        assert!(matches!(
            DestinationSpec::mask_pmf(vec![]),
            Err(ConfigError::PmfLength { len: 0, .. })
        ));
        assert!(matches!(
            DestinationSpec::mask_pmf(vec![0.5, 0.3, 0.2]),
            Err(ConfigError::PmfLength { len: 3, .. })
        ));
        assert!(DestinationSpec::mask_pmf(vec![0.25; 4]).is_ok());
    }

    #[test]
    fn mask_pmf_rejects_bad_entries() {
        assert!(matches!(
            DestinationSpec::mask_pmf(vec![1.5, -0.5]),
            Err(ConfigError::PmfEntry { index: 1, .. })
        ));
        assert!(matches!(
            DestinationSpec::mask_pmf(vec![f64::NAN, 1.0]),
            Err(ConfigError::PmfEntry { index: 0, .. })
        ));
        assert!(matches!(
            DestinationSpec::mask_pmf(vec![0.9, 0.3]),
            Err(ConfigError::PmfSum(_))
        ));
    }

    #[test]
    fn validate_against_dimension() {
        let spec = DestinationSpec::mask_pmf(vec![0.25; 4]).unwrap();
        assert!(spec.validate(2).is_ok());
        assert_eq!(
            spec.validate(3),
            Err(ConfigError::PmfLength {
                len: 4,
                expected: Some(8),
            })
        );
        assert!(DestinationSpec::BitFlip.validate(12).is_ok());
        // Directly-constructed malformed pmfs are caught by validate too.
        let bad = DestinationSpec::MaskPmf(vec![0.7, 0.7]);
        assert_eq!(bad.validate(1), Err(ConfigError::PmfSum(1.4)));
    }

    #[test]
    fn node_pmf_validation() {
        assert!(matches!(
            DestinationSpec::node_pmf(vec![]),
            Err(ConfigError::NodePmfLength { len: 0, .. })
        ));
        assert!(matches!(
            DestinationSpec::node_pmf(vec![0.5, 0.4]),
            Err(ConfigError::PmfSum(_))
        ));
        let spec = DestinationSpec::node_pmf(vec![0.5, 0.25, 0.25]).unwrap();
        assert!(spec.validate_nodes(3).is_ok());
        assert_eq!(
            spec.validate_nodes(4),
            Err(ConfigError::NodePmfLength {
                len: 3,
                expected: 4,
            })
        );
        // Node-addressed laws are rejected against a hypercube dimension.
        assert!(matches!(
            spec.validate(2),
            Err(ConfigError::Unsupported { .. })
        ));
    }

    #[test]
    fn power_law_validation() {
        assert!(DestinationSpec::ring_harmonic().validate_nodes(8).is_ok());
        assert!(matches!(
            DestinationSpec::RingPowerLaw { alpha: f64::NAN }.validate_nodes(8),
            Err(ConfigError::PowerLawExponent(a)) if a.is_nan()
        ));
        assert!(matches!(
            DestinationSpec::RingPowerLaw { alpha: -1.0 }.validate_nodes(8),
            Err(ConfigError::PowerLawExponent(_))
        ));
    }

    #[test]
    fn fault_spec_validation() {
        let ok = FaultSpec {
            mode: FaultMode::Seeded {
                fraction: 0.25,
                seed: 7,
            },
            fallback: FaultFallback::Detour,
            dynamics: None,
        };
        assert!(ok.validate(64).is_ok());
        let bad_fraction = FaultSpec {
            mode: FaultMode::Seeded {
                fraction: 1.5,
                seed: 7,
            },
            fallback: FaultFallback::Drop,
            dynamics: None,
        };
        assert_eq!(
            bad_fraction.validate(64),
            Err(ConfigError::FaultFraction(1.5))
        );
        let bad_arc = FaultSpec {
            mode: FaultMode::Explicit { arcs: vec![3, 64] },
            fallback: FaultFallback::Drop,
            dynamics: None,
        };
        assert_eq!(
            bad_arc.validate(64),
            Err(ConfigError::FaultArc {
                index: 64,
                num_arcs: 64,
            })
        );
    }

    #[test]
    fn retry_and_dynamics_validation() {
        let base = FaultSpec {
            mode: FaultMode::Seeded {
                fraction: 0.1,
                seed: 7,
            },
            fallback: FaultFallback::Retry { budget: 3 },
            dynamics: None,
        };
        assert!(base.validate(64).is_ok());
        let zero_budget = FaultSpec {
            fallback: FaultFallback::Retry { budget: 0 },
            ..base.clone()
        };
        assert_eq!(zero_budget.validate(64), Err(ConfigError::RetryBudget));
        let dynamic = FaultSpec {
            fallback: FaultFallback::Multipath,
            dynamics: Some(FaultArrivals { rate: 0.5, seed: 9 }),
            ..base.clone()
        };
        assert!(dynamic.validate(64).is_ok());
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let spec = FaultSpec {
                dynamics: Some(FaultArrivals { rate: bad, seed: 9 }),
                ..base.clone()
            };
            assert!(matches!(spec.validate(64), Err(ConfigError::FaultRate(_))));
        }
    }

    #[test]
    fn can_kill_accounts_for_statics_and_dynamics() {
        let empty = FaultSpec {
            mode: FaultMode::Explicit { arcs: vec![] },
            fallback: FaultFallback::Detour,
            dynamics: None,
        };
        assert!(!empty.can_kill());
        assert!(FaultSpec {
            dynamics: Some(FaultArrivals { rate: 0.1, seed: 1 }),
            ..empty.clone()
        }
        .can_kill());
        assert!(!FaultSpec {
            dynamics: Some(FaultArrivals { rate: 0.0, seed: 1 }),
            ..empty.clone()
        }
        .can_kill());
        assert!(FaultSpec {
            mode: FaultMode::Seeded {
                fraction: 0.2,
                seed: 3,
            },
            ..empty
        }
        .can_kill());
    }

    #[test]
    fn fault_spec_serde_is_backward_compatible() {
        // Specs written before the dynamics field existed still parse,
        // and a static spec round-trips without serialising `dynamics` —
        // this is what keeps the pre-existing corpus scenarios
        // byte-identical.
        let legacy = r#"{"mode":{"Seeded":{"fraction":0.15,"seed":77}},"fallback":"Detour"}"#;
        let spec: FaultSpec = serde_json::from_str(legacy).unwrap();
        assert_eq!(spec.dynamics, None);
        assert_eq!(serde_json::to_string(&spec).unwrap(), legacy);
        let dynamic = FaultSpec {
            dynamics: Some(FaultArrivals { rate: 0.5, seed: 9 }),
            ..spec
        };
        let json = serde_json::to_string(&dynamic).unwrap();
        assert!(json.contains("dynamics"));
        assert_eq!(serde_json::from_str::<FaultSpec>(&json).unwrap(), dynamic);
    }

    #[test]
    fn new_fault_error_messages_render() {
        assert!(ConfigError::RetryBudget.to_string().contains("at least 1"));
        assert!(ConfigError::FaultRate(-2.0).to_string().contains("-2"));
        assert!(ConfigError::EscapeTtl.to_string().contains("TTL"));
        let g = ConfigError::GeneratorParam {
            param: "alpha".to_string(),
            value: -1.0,
            requirement: "must be positive".to_string(),
        };
        assert!(g.to_string().contains("alpha"));
        assert!(g.to_string().contains("positive"));
    }

    #[test]
    fn escape_ttl_validation() {
        let base = FaultSpec {
            mode: FaultMode::Seeded {
                fraction: 0.1,
                seed: 7,
            },
            fallback: FaultFallback::Escape { ttl: 8 },
            dynamics: None,
        };
        assert!(base.validate(64).is_ok());
        let zero = FaultSpec {
            fallback: FaultFallback::Escape { ttl: 0 },
            ..base
        };
        assert_eq!(zero.validate(64), Err(ConfigError::EscapeTtl));
    }

    #[test]
    fn config_error_messages_render() {
        let e = ConfigError::Dimension {
            dim: 99,
            min: 1,
            max: 26,
        };
        assert!(e.to_string().contains("99"));
        assert!(ConfigError::SlotsPerUnit
            .to_string()
            .contains("slot per unit"));
        assert!(ConfigError::PmfSum(0.8).to_string().contains("0.8"));
    }
}
