//! Per-layer metrics of a traced run: span self-times from
//! `alice_obs::take_trace()`, counters from `snapshot_prometheus()`.
//!
//! A span's self time is its duration minus the part its direct children
//! on the same trace lane cover. Spans are grouped by name into layer
//! metrics through [`SELF_TIME_MS`].

use alice_obs::Trace;
use std::collections::HashMap;

/// Layer time metrics (self time per job, ms) and the spans each sums.
/// `bench.*`, `verilog.parse`, `dataflow.analyze`, `core.filter`,
/// `attacks.sat_attack` and `store.open` are the benchmark's own spans
/// around public calls; the rest are recorded inside the program.
pub const SELF_TIME_MS: &[(&str, &[&str])] = &[
    ("verilog.parse_ms", &["verilog.parse"]),
    ("dataflow.analyze_ms", &["dataflow.analyze"]),
    ("core.filter_ms", &["core.filter", "stage.filter"]),
    ("core.cluster_ms", &["stage.cluster"]),
    ("core.select_ms", &["stage.select"]),
    ("fabric.characterize_ms", &["db.characterize"]),
    ("netlist.lutmap_ms", &["db.lutmap"]),
    ("netlist.elaborate_ms", &["db.elaborate"]),
    ("core.redact_ms", &["stage.redact"]),
    ("cec.build_ms", &["cec.build", "cec.keyed_build"]),
    ("cec.encode_ms", &["cec.encode"]),
    ("cec.sweep_ms", &["cec.sweep", "cec.pair_proof"]),
    (
        "cec.prove_ms",
        &["cec.prove", "verify.prove", "cec.race_candidate"],
    ),
    ("cec.corruption_ms", &["cec.corruption", "verify.wrong_key"]),
    (
        "core.verify_ms",
        &["stage.verify", "verify.wrong_key_sweep"],
    ),
    ("attacks.attack_ms", &["attacks.sat_attack"]),
    ("store.open_ms", &["store.open"]),
    ("store.flush_ms", &["store.flush", "store.flush.shard"]),
];

/// Spans whose self time is SAT solving (the base of
/// `attacks.sat.mprops_per_s`).
pub const SAT_SPANS: &[&str] = &[
    "cec.pair_proof",
    "cec.prove",
    "cec.race_candidate",
    "cec.corruption",
    "verify.prove",
    "verify.wrong_key",
    "attacks.sat_attack",
];

/// Self time and occurrence count per span name.
#[derive(Debug, Default)]
pub struct SelfTimes {
    by_name: HashMap<&'static str, (u64, u64)>,
}

impl SelfTimes {
    /// Adds every event of a drained trace.
    pub fn absorb(&mut self, trace: &Trace) {
        let mut lanes: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, e) in trace.events.iter().enumerate() {
            lanes.entry(e.tid).or_default().push(i);
        }
        let mut child_ns = vec![0u64; trace.events.len()];
        for idx in lanes.values_mut() {
            let ev = &trace.events;
            // Parents start first; on a tie the longer span is the parent.
            idx.sort_by_key(|&i| (ev[i].start_ns, std::cmp::Reverse(ev[i].dur_ns)));
            let mut open: Vec<usize> = Vec::new();
            for &i in idx.iter() {
                while let Some(&p) = open.last() {
                    if ev[p].start_ns + ev[p].dur_ns <= ev[i].start_ns {
                        open.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&p) = open.last() {
                    child_ns[p] += ev[i].dur_ns;
                }
                open.push(i);
            }
        }
        for (e, child) in trace.events.iter().zip(child_ns) {
            let slot = self.by_name.entry(e.name).or_default();
            slot.0 += e.dur_ns.saturating_sub(child);
            slot.1 += 1;
        }
    }

    /// Total self time of the named spans, in nanoseconds.
    pub fn self_ns(&self, names: &[&str]) -> u64 {
        names
            .iter()
            .filter_map(|n| self.by_name.get(n))
            .map(|s| s.0)
            .sum()
    }

    /// How many spans of this name were recorded.
    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map(|s| s.1).unwrap_or(0)
    }
}

/// Value of a counter in a Prometheus text snapshot (0 when the counter
/// was never touched, so never registered).
pub fn counter(snapshot: &str, name: &str) -> u64 {
    snapshot
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == name).then(|| v.trim().parse().ok()).flatten()
        })
        .unwrap_or(0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
