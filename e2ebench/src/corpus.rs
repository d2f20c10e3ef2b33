//! Seeded workload corpora.
//!
//! A corpus entry is one job: a design, submitted as Verilog source text,
//! under one flow configuration. Each workload mixes paper designs with
//! synthetic designs from `alice_benchmarks::generator`, repeated every
//! pass or drawn afresh for each pass. A
//! synthetic design's *shape* (leaf count, leaf width, number of
//! arithmetic operators) is fixed per slot, so the cost profile of a
//! workload does not drift with the seed; the seed draws which operators,
//! shift amounts and leaf order fill that shape.

use crate::Workload;
use alice_benchmarks::generator::{generate, GeneratorParams};
use alice_core::config::AliceConfig;
use alice_intern::StableHasher;
use std::sync::Arc;

/// One job of the corpus.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Stable job id, `design/config` (also the digest-check key).
    pub id: String,
    /// Verilog source text, exactly as submitted.
    pub source: Arc<str>,
    /// Top module (`None`: the design's only root).
    pub top: Option<&'static str>,
    /// The flow configuration, selected outputs included.
    pub cfg: AliceConfig,
}

/// Fixed shape of a generated design: `(leaves, leaf width)`.
type Shape = (usize, u32);

/// `redact_cold`: leaf counts spread over 4–16. The narrow 10-leaf and
/// the 14–16-leaf slots carry Algorithm 2's cluster blow-up (hundreds of
/// candidate clusters under cfg2); with DES3 they form the slowest
/// fifth of the jobs, so p90 falls inside that group rather than on the
/// edge of one.
const COLD_SHAPES: &[Shape] = &[
    (4, 4),
    (5, 4),
    (6, 4),
    (7, 6),
    (8, 6),
    (10, 6),
    (10, 6),
    (11, 8),
    (12, 8),
    (14, 8),
    (15, 8),
    (16, 8),
    (16, 8),
];

/// `store_mixed` (repeated every pass): designs of at most 10 leaves and
/// at least 6-bit leaves, so cluster identification stays a small share
/// of a job.
const STORE_SHAPES: &[Shape] = &[
    (10, 8),
    (9, 8),
    (8, 8),
    (7, 8),
    (6, 8),
    (8, 6),
    (7, 6),
    (6, 6),
    (10, 8),
    (9, 8),
    (8, 8),
    (8, 6),
    (7, 6),
];

/// `verify_sweep`: 11 five-leaf designs of 6-bit leaves, drawn afresh
/// for every pass. Each signs off faster than the cheapest paper design,
/// and with the 8 paper jobs a pass has 30 jobs, so p90 falls in the
/// middle of the SASC jobs (the 3rd and 4th slowest of each pass). One
/// shape throughout gives a dense band of latencies around p50, and new
/// draws every pass make p50 a statistic over many designs.
const VERIFY_SHAPES: &[Shape] = &[(5, 6); 11];

/// `store_mixed`: shapes of the fresh designs added to every timed pass
/// (each under cfg1 and cfg2), so a fifth of a pass misses the store.
const STORE_FRESH_SHAPES: &[Shape] = &[(8, 6), (7, 4), (6, 6), (5, 4), (4, 6)];

/// Paper designs the `verify_sweep` workload signs off, heaviest first.
/// IIR is left out because its multiplier miter takes minutes per proof;
/// DES3 and SHA256 because their sign-off takes 4–8 s per job, which
/// would keep a run from completing 100 jobs within its time budget.
const VERIFY_PAPER: &[&str] = &["USB_PHY", "SASC", "GCD", "FIR"];

/// Wrong keys in the verify sweep of a `verify_sweep` job.
const WRONG_KEYS: usize = 8;

/// The two paper configurations, by name.
fn configs() -> [(&'static str, AliceConfig); 2] {
    [("cfg1", AliceConfig::cfg1()), ("cfg2", AliceConfig::cfg2())]
}

/// Applies the workload's per-job settings to a paper configuration.
fn job_config(workload: Workload, base: AliceConfig, flow_jobs: usize) -> AliceConfig {
    let verify = workload == Workload::VerifySweep;
    AliceConfig {
        jobs: flow_jobs,
        verify,
        verify_wrong_keys: if verify { WRONG_KEYS } else { 0 },
        ..base
    }
}

/// The splitmix64 finalizer, to derive seeds from the workload seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Number of arithmetic (`+`/`-`) operators in a generated source.
fn arithmetic_ops(src: &str) -> usize {
    src.matches(" + (b >>").count() + src.matches(" - (b >>").count()
}

/// A generated design of the given shape, drawn from `seed`: the first
/// candidate whose operator mix is half arithmetic (carry chains) and
/// half bitwise, so every draw costs about the same to map and prove.
fn shaped_design(seed: u64, (leaves, width): Shape) -> String {
    let params = GeneratorParams {
        leaves,
        min_width: width,
        max_width: width,
        depth: 2,
    };
    let target = leaves; // depth 2: 2 × leaves operators in all
    let mut best: Option<(usize, String)> = None;
    for attempt in 0..64u64 {
        let src = generate(mix(seed ^ mix(attempt)), params);
        let off = arithmetic_ops(&src).abs_diff(target);
        if off == 0 {
            return src;
        }
        if best.as_ref().is_none_or(|(b, _)| off < *b) {
            best = Some((off, src));
        }
    }
    best.expect("at least one candidate").1
}

fn generated(
    workload: Workload,
    seed: u64,
    tag: &str,
    shapes: &[Shape],
    flow_jobs: usize,
) -> Vec<Entry> {
    let mut out = Vec::new();
    for (slot, &shape) in shapes.iter().enumerate() {
        let source: Arc<str> = shaped_design(mix(seed ^ mix(slot as u64 + 1)), shape).into();
        for (cname, base) in configs() {
            out.push(Entry {
                id: format!("{tag}{slot}_l{}w{}/{cname}", shape.0, shape.1),
                source: source.clone(),
                top: None,
                cfg: job_config(workload, base, flow_jobs),
            });
        }
    }
    out
}

fn paper(workload: Workload, names: Option<&[&str]>, flow_jobs: usize) -> Vec<Entry> {
    let mut suite = alice_benchmarks::suite();
    if let Some(names) = names {
        suite.retain(|b| names.contains(&b.name));
        suite.sort_by_key(|b| names.iter().position(|n| *n == b.name));
    }
    let mut out = Vec::new();
    for b in suite {
        let source: Arc<str> = b.source.as_str().into();
        for (cname, base) in configs() {
            out.push(Entry {
                id: format!("{}/{cname}", b.name),
                source: source.clone(),
                top: Some(b.top),
                cfg: job_config(workload, b.config(base), flow_jobs),
            });
        }
    }
    out
}

/// The base corpus of a workload: the jobs every pass repeats, in
/// submission order.
pub fn build(workload: Workload, seed: u64, flow_jobs: usize) -> Vec<Entry> {
    match workload {
        Workload::RedactCold => {
            let mut jobs = paper(workload, None, flow_jobs);
            jobs.extend(generated(workload, seed, "gen", COLD_SHAPES, flow_jobs));
            jobs
        }
        Workload::VerifySweep => paper(workload, Some(VERIFY_PAPER), flow_jobs),
        Workload::StoreMixed => {
            let mut jobs = paper(workload, None, flow_jobs);
            jobs.extend(generated(workload, seed, "gen", STORE_SHAPES, flow_jobs));
            jobs
        }
    }
}

/// The designs new to pass `pass`, submitted after the base corpus:
/// `verify_sweep`'s generated designs, and `store_mixed`'s designs that
/// miss the store and `put`. Never seen before in the run.
pub fn fresh(workload: Workload, seed: u64, pass: usize, flow_jobs: usize) -> Vec<Entry> {
    let shapes = match workload {
        Workload::RedactCold => return Vec::new(),
        Workload::VerifySweep => VERIFY_SHAPES,
        Workload::StoreMixed => STORE_FRESH_SHAPES,
    };
    let pass_seed = mix(seed ^ mix(0xf7e5_0000 + pass as u64));
    generated(
        workload,
        pass_seed,
        &format!("fresh{pass}_"),
        shapes,
        flow_jobs,
    )
}

/// Digest of a corpus (ids, sources, tops, configurations), printed so
/// two runs can show they had identical inputs.
pub fn digest(entries: &[Entry]) -> String {
    let mut h = StableHasher::new();
    for e in entries {
        h.write_str(&e.id);
        h.write_str(&e.source);
        h.write_str(e.top.unwrap_or(""));
        h.write_str(&format!("{:?}", e.cfg));
    }
    let (a, b) = h.finish();
    format!("{a:016x}{b:016x}")
}
