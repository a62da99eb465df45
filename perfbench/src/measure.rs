//! Statistics, the correctness gate, report digests and memory readings.

use hyperroute_core::scenario::{Report, ReportExt, Scenario, Topology};

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest percentile with at least ten samples above it, as
/// `(percentile, value)`; `None` below eleven samples.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = n - 11;
    Some(((100 * k / (n - 1)) as u32, v[k]))
}

/// FNV-1a 64 over a stream of byte strings: the report digest printed per
/// workload, so two commits' simulated statistics compare exactly.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0u8]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Counts operations attempted and failed; keeps the first few failure
/// messages for the log.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Gate {
    /// Record one operation; `Err` marks it failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(message);
            }
        }
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// Packets dropped by a run (graph topologies report them; the dense
/// hand-written engines never drop).
pub fn dropped(report: &Report) -> u64 {
    match &report.ext {
        ReportExt::Graph(g) => g.dropped,
        _ => 0,
    }
}

/// Mean arcs crossed per delivered packet.
pub fn hops_per_delivery(scenario: &Scenario, report: &Report) -> f64 {
    match (&scenario.topology, &report.ext) {
        // Every butterfly packet crosses all `d` levels.
        (Topology::Butterfly { dim }, _) => *dim as f64,
        (_, ReportExt::Hypercube(h)) => h.mean_hops,
        (_, ReportExt::Graph(g)) => g.mean_hops,
        (_, ReportExt::Ring(r)) => r.mean_hops,
        _ => 0.0,
    }
}

/// Conservation: every generated packet was delivered or dropped.
pub fn check_conservation(label: &str, report: &Report) -> Result<(), String> {
    let (generated, delivered, dropped) = (report.generated, report.delivered, dropped(report));
    if generated == delivered + dropped {
        Ok(())
    } else {
        Err(format!(
            "{label}: generated {generated} != delivered {delivered} + dropped {dropped}"
        ))
    }
}

/// The mean delay lies inside `[lower, upper]` up to the run's own 95%
/// confidence half-width.
pub fn check_bracket(label: &str, report: &Report, lower: f64, upper: f64) -> Result<(), String> {
    let (mean, ci) = (report.delay.mean, report.delay.ci95);
    if !mean.is_finite() || !ci.is_finite() {
        return Err(format!("{label}: mean delay {mean} ± {ci} is not finite"));
    }
    if mean + ci < lower || mean - ci > upper {
        return Err(format!(
            "{label}: mean delay {mean:.4} ± {ci:.4} outside the bracket [{lower:.4}, {upper:.4}]"
        ));
    }
    Ok(())
}

/// Restart this process's peak-memory reading from its current resident
/// size, so the next [`peak_rss_mb`] covers one pass. Best effort: where
/// the kernel refuses, the reading covers the whole run instead.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory in MB of this process plus its live child
/// processes (the service's workers), from `/proc`.
pub fn peak_rss_mb() -> Result<f64, String> {
    fn hwm_kb(status: &str) -> Option<f64> {
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }
    let me = std::process::id();
    let own = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let mut kb = hwm_kb(&own).ok_or("no VmHWM in /proc/self/status")?;
    let entries = std::fs::read_dir("/proc").map_err(|e| e.to_string())?;
    for entry in entries.flatten() {
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
            continue;
        };
        let ppid = status
            .lines()
            .find_map(|l| l.strip_prefix("PPid:"))
            .and_then(|v| v.trim().parse::<u32>().ok());
        if ppid == Some(me) {
            kb += hwm_kb(&status).unwrap_or(0.0);
        }
    }
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_tail() {
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(median(&v), 11.0);
        assert_eq!(quantile(&v, 0.25), 6.0);
        // 21 samples: the 11th-largest has ten above it, at the 50th
        // percentile.
        assert_eq!(tail(&v), Some((50, 11.0)));
        assert_eq!(tail(&v[..10]), None);
    }

    #[test]
    fn gate_counts_failures() {
        let mut gate = Gate::default();
        gate.op(Ok(()));
        gate.op(Err("boom".into()));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert_eq!(gate.messages(), ["boom".to_string()]);
    }
}
