//! End-to-end benchmark of the ALICE redaction flow.
//!
//! Runs one seeded, closed-loop workload through the public API — the
//! Verilog source of each job goes in, a redacted design (and, on
//! `verify_sweep`, its sign-off) comes out — checks every output, and
//! prints the metrics, ending with one JSON line:
//!
//! ```text
//! e2ebench --workload <redact_cold|verify_sweep|store_mixed>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` spends half the time untraced and half traced, and
//! reports the per-layer metrics. See `README.md` beside this crate.

mod corpus;
mod cosim;
mod job;
mod layers;

use alice_core::DesignDb;
use alice_obs as obs;
use alice_store::Store;
use corpus::Entry;
use job::JobOutput;
use layers::{counter, ratio, SelfTimes, SAT_SPANS, SELF_TIME_MS};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Default `--seconds`.
const DEFAULT_SECONDS: u64 = 20;
/// An untraced run keeps going past `--seconds` until it has timed this
/// many jobs, so the 90th percentile has at least ten samples beyond it.
const MIN_JOBS: usize = 100;
/// Stack of a client thread: elaborating a redacted DES3 recurses deep.
const CLIENT_STACK: usize = 256 << 20;
/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Paper designs whose jobs warm up `verify_sweep` set-up; `redact_cold`
/// warms up on all of its paper-design jobs.
const VERIFY_WARMUP: &[&str] = &["GCD", "FIR"];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One designer waiting on each redaction: 1 client, `jobs = nproc`,
    /// verify off, a fresh in-memory db per pass.
    RedactCold,
    /// Batch security sign-off: `nproc` clients, `jobs = 1`, verify with
    /// the wrong-key sweep plus SAT attacks, a fresh db per job.
    VerifySweep,
    /// Store-served redaction: `nproc` clients, `jobs = 1`, a new store
    /// handle per pass over a directory filled during set-up.
    StoreMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "redact_cold" => Some(Workload::RedactCold),
            "verify_sweep" => Some(Workload::VerifySweep),
            "store_mixed" => Some(Workload::StoreMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::RedactCold => "redact_cold",
            Workload::VerifySweep => "verify_sweep",
            Workload::StoreMixed => "store_mixed",
        }
    }

    /// Concurrent closed-loop clients.
    fn clients(self, nproc: usize) -> usize {
        match self {
            Workload::RedactCold => 1,
            Workload::VerifySweep | Workload::StoreMixed => nproc,
        }
    }

    /// `AliceConfig::jobs` of every job.
    fn flow_jobs(self, nproc: usize) -> usize {
        match self {
            Workload::RedactCold => nproc,
            Workload::VerifySweep | Workload::StoreMixed => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One finished job of a pass.
struct Record {
    /// Index into the pass's entry list.
    index: usize,
    latency: Duration,
    result: Result<JobOutput, String>,
}

/// One pass over a workload's job list.
struct Pass {
    wall: Duration,
    records: Vec<Record>,
    /// On-disk store size after the pass's flush (`store_mixed`).
    store_bytes: u64,
}

/// Runs `entries` on `clients` closed-loop client threads pulling from a
/// shared queue. `shared` is the pass's db; `None` gives every job a
/// fresh one.
fn run_clients(
    entries: &[Entry],
    clients: usize,
    traced: bool,
    attack: bool,
    shared: Option<&DesignDb>,
) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(entries.len()));
    std::thread::scope(|s| {
        for c in 0..clients {
            let (next, done) = (&next, &done);
            std::thread::Builder::new()
                .name(format!("client {c}"))
                .stack_size(CLIENT_STACK)
                .spawn_scoped(s, move || {
                    if traced {
                        obs::set_thread_name(&format!("client {c}"));
                    }
                    let mut local = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(entry) = entries.get(index) else {
                            break;
                        };
                        let fresh;
                        let db = match shared {
                            Some(db) => db,
                            None => {
                                fresh = DesignDb::new();
                                &fresh
                            }
                        };
                        let start = Instant::now();
                        let result =
                            catch_unwind(AssertUnwindSafe(|| job::run(entry, db, traced, attack)))
                                .unwrap_or_else(|_| Err("panicked".into()));
                        local.push(Record {
                            index,
                            latency: start.elapsed(),
                            result,
                        });
                    }
                    done.lock()
                        .expect("no client panics holding the lock")
                        .extend(local);
                })
                .expect("spawn client thread");
        }
    });
    let mut records = done.into_inner().expect("clients joined");
    records.sort_by_key(|r| r.index);
    records
}

/// Fails every record of a pass with `reason` (a store that would not
/// open or flush).
fn fail_all(records: &mut [Record], reason: &str) {
    for r in records {
        if r.result.is_ok() {
            r.result = Err(reason.to_string());
        }
    }
}

struct Bench {
    workload: Workload,
    seed: u64,
    nproc: usize,
    corpus: Vec<Entry>,
    /// `store_mixed`: the store directory set-up filled.
    store_dir: Option<PathBuf>,
}

impl Bench {
    fn pass_entries(&self, pass: usize) -> Vec<Entry> {
        let mut entries = self.corpus.clone();
        entries.extend(corpus::fresh(
            self.workload,
            self.seed,
            pass,
            self.workload.flow_jobs(self.nproc),
        ));
        entries
    }

    fn run_pass(&self, entries: &[Entry], traced: bool) -> Pass {
        let clients = self.workload.clients(self.nproc);
        let start = Instant::now();
        let mut store_bytes = 0;
        let records = match self.workload {
            Workload::RedactCold => {
                let db = DesignDb::new();
                run_clients(entries, clients, traced, false, Some(&db))
            }
            Workload::VerifySweep => run_clients(entries, clients, traced, true, None),
            Workload::StoreMixed => {
                let dir = self.store_dir.as_ref().expect("store_mixed has a store");
                let opened = {
                    let _span = obs::span("store.open");
                    Store::open(dir)
                };
                match opened {
                    Err(e) => {
                        let mut records = run_clients(entries, clients, traced, false, None);
                        fail_all(&mut records, &format!("store open: {e}"));
                        records
                    }
                    Ok(store) => {
                        let db = DesignDb::with_store_handle(Arc::new(store));
                        let mut records = run_clients(entries, clients, traced, false, Some(&db));
                        if let Err(e) = db.flush_store() {
                            fail_all(&mut records, &format!("store flush: {e}"));
                        }
                        store_bytes = db.store().map(|s| s.stats().bytes()).unwrap_or(0);
                        records
                    }
                }
            }
        };
        Pass {
            wall: start.elapsed(),
            records,
            store_bytes,
        }
    }
}

/// Output checks across the whole run: per-id reference digests, the
/// first output of every id kept for co-simulation, and failures by job.
#[derive(Default)]
struct Checker {
    digests: HashMap<String, (u64, u64)>,
    /// First output of each id, co-simulated after the timed phases.
    pending: Vec<(Entry, alice_core::redact::RedactedDesign)>,
    /// Successful runs per id (all fail when the id's co-simulation does).
    ok_runs: HashMap<String, usize>,
    attempted: usize,
    failures: Vec<(String, String)>,
    cosimulated: usize,
}

impl Checker {
    /// Checks one job result; returns its output when the job passed.
    fn absorb(&mut self, entry: &Entry, result: Result<JobOutput, String>) -> Option<JobOutput> {
        self.attempted += 1;
        let mut out = match result {
            Ok(out) => out,
            Err(reason) => {
                self.failures.push((entry.id.clone(), reason));
                return None;
            }
        };
        let digest = job::digest(&out);
        match self.digests.get(&entry.id) {
            Some(&reference) if reference != digest => {
                self.failures.push((
                    entry.id.clone(),
                    "output digest drifted from first run".into(),
                ));
                return None;
            }
            Some(_) => {}
            None => {
                self.digests.insert(entry.id.clone(), digest);
                if let Some(redacted) = out.redacted.take() {
                    self.pending.push((entry.clone(), redacted));
                }
            }
        }
        *self.ok_runs.entry(entry.id.clone()).or_default() += 1;
        Some(out)
    }

    /// Co-simulates every kept output on `threads` threads; a mismatch
    /// fails every run of that id.
    fn cosimulate(&mut self, seed: u64, threads: usize) {
        let pending = std::mem::take(&mut self.pending);
        let next = AtomicUsize::new(0);
        let bad = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..threads {
                let (next, bad, pending) = (&next, &bad, &pending);
                std::thread::Builder::new()
                    .stack_size(CLIENT_STACK)
                    .spawn_scoped(s, move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((entry, redacted)) = pending.get(i) else {
                            break;
                        };
                        let verdict = catch_unwind(AssertUnwindSafe(|| {
                            let design = alice_core::design::Design::from_source(
                                entry.id.as_str(),
                                &entry.source,
                                entry.top,
                            )
                            .map_err(|e| format!("co-simulation parse: {e}"))?;
                            let stimulus = seed ^ corpus_key(&entry.id);
                            cosim::check(
                                &entry.source,
                                design.hierarchy.top.as_str(),
                                redacted,
                                stimulus,
                            )
                        }))
                        .unwrap_or_else(|_| Err("co-simulation panicked".into()));
                        if let Err(reason) = verdict {
                            bad.lock()
                                .expect("no co-simulation panics holding the lock")
                                .push((entry.id.clone(), reason));
                        }
                    })
                    .expect("spawn co-simulation thread");
            }
        });
        self.cosimulated += pending.len();
        for (id, reason) in bad.into_inner().expect("threads joined") {
            let runs = self.ok_runs.remove(&id).unwrap_or(0);
            for _ in 0..runs {
                self.failures.push((id.clone(), reason.clone()));
            }
        }
    }
}

/// A per-id stimulus seed.
fn corpus_key(id: &str) -> u64 {
    let mut h = alice_intern::StableHasher::new();
    h.write_str(id);
    h.finish().0
}

/// What one measuring phase saw.
#[derive(Default)]
struct Phase {
    wall: Duration,
    passes: usize,
    latencies_ms: Vec<f64>,
    busy: Duration,
    clusters: usize,
    valid: usize,
    dips: usize,
    store_bytes: u64,
}

impl Phase {
    fn jobs(&self) -> usize {
        self.latencies_ms.len()
    }
}

/// Runs whole passes until `budget` of pass wall time has elapsed and at
/// least `min_jobs` jobs are done. Traced phases drain the trace buffer
/// after every pass into `spans`.
fn measure(
    bench: &Bench,
    budget: Duration,
    min_jobs: usize,
    first_pass: usize,
    checker: &mut Checker,
    mut spans: Option<&mut SelfTimes>,
) -> Result<Phase, String> {
    let traced = spans.is_some();
    let mut phase = Phase::default();
    loop {
        let entries = bench.pass_entries(first_pass + phase.passes);
        let pass = bench.run_pass(&entries, traced);
        phase.wall += pass.wall;
        phase.passes += 1;
        phase.store_bytes = pass.store_bytes;
        for r in pass.records {
            phase.latencies_ms.push(r.latency.as_secs_f64() * 1e3);
            phase.busy += r.latency;
            if let Some(out) = checker.absorb(&entries[r.index], r.result) {
                phase.clusters += out.clusters;
                phase.valid += out.valid;
                phase.dips += out.attacks.iter().map(|a| a.dips).sum::<usize>();
            }
        }
        if let Some(spans) = spans.as_deref_mut() {
            let trace = obs::take_trace();
            if trace.dropped > 0 {
                return Err(format!(
                    "trace buffer dropped {} events; per-layer numbers would be wrong",
                    trace.dropped
                ));
            }
            spans.absorb(&trace);
        }
        if phase.wall >= budget && phase.jobs() >= min_jobs {
            return Ok(phase);
        }
    }
}

/// Whether a job belongs to set-up's warm-up pass. `store_mixed` fills
/// its store with the whole corpus; the others warm up on paper-design
/// jobs, which do not vary with the seed, so neither does set-up time.
fn in_setup_pass(workload: Workload, entry: &Entry) -> bool {
    match workload {
        Workload::StoreMixed => true,
        Workload::RedactCold => entry.top.is_some(),
        Workload::VerifySweep => VERIFY_WARMUP
            .iter()
            .any(|d| entry.id.starts_with(&format!("{d}/"))),
    }
}

/// One set-up: corpus generation, then a warm-up pass (`redact_cold`,
/// `verify_sweep`) or a cold pass filling a fresh store, flush included
/// (`store_mixed`). Its outputs are checked like any other job's.
fn setup(
    workload: Workload,
    seed: u64,
    nproc: usize,
    store_dir: PathBuf,
    checker: &mut Checker,
) -> Result<Bench, String> {
    let store_dir = if workload == Workload::StoreMixed {
        if store_dir.exists() {
            std::fs::remove_dir_all(&store_dir).map_err(|e| format!("clear store: {e}"))?;
        }
        Some(store_dir)
    } else {
        None
    };
    let bench = Bench {
        workload,
        seed,
        nproc,
        corpus: corpus::build(workload, seed, workload.flow_jobs(nproc)),
        store_dir,
    };
    let entries: Vec<Entry> = bench
        .corpus
        .iter()
        .filter(|e| in_setup_pass(workload, e))
        .cloned()
        .collect();
    for r in bench.run_pass(&entries, false).records {
        checker.absorb(&entries[r.index], r.result);
    }
    Ok(bench)
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The named metrics of a run, in print order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(phase: &Phase, setup_s: f64, peak_rss_mb: f64, checker: &Checker) -> Metrics {
    let mut sorted = phase.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let failed = checker.failures.len() as f64;
    vec![
        (
            "jobs_per_s",
            phase.jobs() as f64 / phase.wall.as_secs_f64(),
            "1/s",
        ),
        ("job_p50_ms", percentile(&sorted, 0.50), "ms"),
        ("job_p90_ms", percentile(&sorted, 0.90), "ms"),
        ("setup_s", setup_s, "s"),
        (
            "ok_frac",
            1.0 - failed / checker.attempted.max(1) as f64,
            "ratio",
        ),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

fn per_layer(
    plain: &Phase,
    traced: &Phase,
    spans: &SelfTimes,
    snapshot: &str,
    clients: usize,
) -> Metrics {
    let jobs = traced.jobs().max(1) as f64;
    let per_job_ms = |names: &[&str]| spans.self_ns(names) as f64 / 1e6 / jobs;
    let c = |name: &str| counter(snapshot, name) as f64;
    let mut m: Metrics = SELF_TIME_MS
        .iter()
        .map(|&(metric, names)| (metric, per_job_ms(names), "ms"))
        .collect();
    let gets = spans.count("store.get") as f64;
    let db_served = c("alice_db_cache_hits_total") + c("alice_db_cache_disk_hits_total");
    let sat_s = spans.self_ns(SAT_SPANS) as f64 / 1e9;
    let kept = c("alice_solver_learned_kept");
    let per_wall = |p: &Phase| ratio(p.wall.as_secs_f64(), p.jobs() as f64);
    m.extend([
        ("core.clusters", traced.clusters as f64 / jobs, "count"),
        (
            "core.select.valid_ratio",
            ratio(traced.valid as f64, traced.clusters as f64),
            "ratio",
        ),
        (
            "core.db.served_ratio",
            ratio(db_served, db_served + c("alice_db_cache_misses_total")),
            "ratio",
        ),
        (
            "core.db.misses",
            c("alice_db_cache_misses_total") / jobs,
            "count",
        ),
        (
            "cec.pair_proofs",
            spans.count("cec.pair_proof") as f64 / jobs,
            "count",
        ),
        (
            "cec.sweep.merge_ratio",
            ratio(
                c("alice_cec_sweep_merged_total"),
                c("alice_cec_sweep_candidates_total"),
            ),
            "ratio",
        ),
        (
            "cec.sweep.lemma_hits",
            c("alice_cec_sweep_lemma_hits_total") / jobs,
            "count",
        ),
        (
            "attacks.sat.conflicts",
            c("alice_sat_conflicts_total") / jobs,
            "count",
        ),
        (
            "attacks.sat.propagations",
            c("alice_sat_propagations_total") / jobs,
            "count",
        ),
        (
            "attacks.sat.mprops_per_s",
            ratio(c("alice_sat_propagations_total") / 1e6, sat_s),
            "M/s",
        ),
        (
            "attacks.sat.assumption_solves",
            c("alice_solver_assumption_solves") / jobs,
            "count",
        ),
        (
            "attacks.sat.learned_keep_ratio",
            ratio(kept, kept + c("alice_solver_learned_dropped")),
            "ratio",
        ),
        ("attacks.dips", traced.dips as f64 / jobs, "count"),
        (
            "store.get_us",
            ratio(spans.self_ns(&["store.get"]) as f64 / 1e3, gets),
            "us",
        ),
        ("store.gets", c("alice_store_gets_total") / jobs, "count"),
        (
            "store.mapped_ratio",
            ratio(
                c("alice_store_mapped_gets_total"),
                c("alice_store_gets_total"),
            ),
            "ratio",
        ),
        (
            "store.shard_flushes",
            c("alice_store_shard_flushes_total") / jobs,
            "count",
        ),
        ("store.bytes", traced.store_bytes as f64, "bytes"),
        (
            "load.client_busy_ratio",
            ratio(
                plain.busy.as_secs_f64(),
                clients as f64 * plain.wall.as_secs_f64(),
            ),
            "ratio",
        ),
        (
            "obs.trace_overhead_ratio",
            ratio(per_wall(traced), per_wall(plain)) - 1.0,
            "ratio",
        ),
    ]);
    m
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn run(args: &Args, work_dir: &std::path::Path) -> Result<(), String> {
    let nproc = alice_core::par::resolve_jobs(0);
    let workload = args.workload;
    let clients = workload.clients(nproc);
    println!(
        "e2ebench workload={} seed={} seconds={} trace={} nproc={nproc} clients={clients} \
         flow_jobs={}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        workload.flow_jobs(nproc),
    );

    let mut checker = Checker::default();
    let mut setup_times = Vec::new();
    let mut bench = None;
    for k in 0..SETUP_REPEATS {
        let start = Instant::now();
        let b = setup(
            workload,
            args.seed,
            nproc,
            work_dir.join(format!("store-{k}")),
            &mut checker,
        )?;
        setup_times.push(start.elapsed().as_secs_f64());
        if let Some(dir) = bench.replace(b).and_then(|old: Bench| old.store_dir) {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("remove old store: {e}"))?;
        }
    }
    let bench = bench.expect("at least one set-up");
    let setup_s = median(setup_times.clone());
    let first_pass = bench.pass_entries(0);
    println!(
        "corpus: {} repeated + {} new jobs per pass, digest {} (repeated and pass-0 jobs)",
        bench.corpus.len(),
        first_pass.len() - bench.corpus.len(),
        corpus::digest(&first_pass)
    );
    println!(
        "setup: {} runs, median {setup_s:.3} s (all: {setup_times:.3?})",
        setup_times.len()
    );

    let seconds = Duration::from_secs(args.seconds);
    let (metrics, timed) = if args.trace {
        let half = seconds / 2;
        let plain = measure(&bench, half, 0, 0, &mut checker, None)?;
        obs::enable_tracing();
        obs::enable_metrics();
        obs::reset_metrics();
        drop(obs::take_trace());
        let mut spans = SelfTimes::default();
        let traced = measure(
            &bench,
            half,
            0,
            plain.passes,
            &mut checker,
            Some(&mut spans),
        )?;
        obs::disable_tracing();
        obs::disable_metrics();
        let snapshot = obs::snapshot_prometheus();
        println!(
            "traced: {} jobs in {} passes, {:.2} s wall (untraced half: {} jobs, {:.2} s)",
            traced.jobs(),
            traced.passes,
            traced.wall.as_secs_f64(),
            plain.jobs(),
            plain.wall.as_secs_f64()
        );
        checker.cosimulate(args.seed, nproc);
        let m = per_layer(&plain, &traced, &spans, &snapshot, clients);
        (m, plain.jobs() + traced.jobs())
    } else {
        let phase = measure(&bench, seconds, MIN_JOBS, 0, &mut checker, None)?;
        // Read before co-simulation, whose memory is the checker's.
        let peak_rss_mb = peak_rss_mb();
        let mut sorted = phase.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        println!(
            "timed: {n} jobs in {} passes, {:.2} s wall",
            phase.passes,
            phase.wall.as_secs_f64()
        );
        println!(
            "job latency: p50 {:.2} ms (n={n}), p90 {:.2} ms (n={n}, {} samples beyond)",
            percentile(&sorted, 0.5),
            percentile(&sorted, 0.9),
            n - ((0.9 * n as f64).ceil() as usize).clamp(1, n)
        );
        checker.cosimulate(args.seed, nproc);
        (end_to_end(&phase, setup_s, peak_rss_mb, &checker), n)
    };

    println!(
        "checks: {} jobs checked ({timed} timed), {} outputs co-simulated, {} failed",
        checker.attempted,
        checker.cosimulated,
        checker.failures.len()
    );
    let mut seen = std::collections::BTreeMap::new();
    for (id, reason) in &checker.failures {
        *seen.entry((id.as_str(), reason.as_str())).or_insert(0usize) += 1;
    }
    for ((id, reason), n) in seen {
        println!("FAILED {id} (x{n}): {reason}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>14.4} {unit}");
    }
    println!(
        "{}",
        json_line(
            checker.failures.is_empty(),
            checker.attempted,
            checker.failures.len(),
            &metrics
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <redact_cold|verify_sweep|store_mixed> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let work_dir = PathBuf::from(".bench_build")
        .join("e2ebench-work")
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = run(&args, &work_dir);
    if work_dir.exists() {
        let _ = std::fs::remove_dir_all(&work_dir);
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
