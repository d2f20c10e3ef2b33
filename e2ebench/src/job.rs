//! One job through the public flow API: parse the submitted source,
//! drive the pipeline stages with `run_stage`, and (on `verify_sweep`)
//! attack each small selected fabric.
//!
//! The untraced path runs exactly `Flow::stages()`. The traced path
//! splits the filter stage into its two public calls — dataflow analysis
//! and `filter_modules` — each inside a benchmark span, so their self
//! times separate; the remaining stages are the program's own.

use crate::corpus::Entry;
use alice_attacks::{sat_attack, AttackBudget, AttackStatus};
use alice_core::design::Design;
use alice_core::error::AliceError;
use alice_core::filter::filter_modules;
use alice_core::flow::Flow;
use alice_core::redact::RedactedDesign;
use alice_core::select::ClusterMapper;
use alice_core::stage::{
    run_stage, ClusterStage, FlowContext, PhaseTimings, RedactStage, SelectStage, Stage,
    VerifyStage, CLUSTER, SELECT,
};
use alice_core::verify::{VerifyOutcome, VerifyReport};
use alice_core::DesignDb;
use alice_intern::StableHasher;

/// Fabrics with more LUTs than this are not attacked (the `security`
/// binary's budget class: larger keys stay resilient at this budget).
const ATTACK_LUT_CAP: usize = 220;

/// SAT-attack budget per fabric, as in the `security` binary.
const ATTACK_BUDGET: AttackBudget = AttackBudget {
    max_dips: 12,
    conflicts_per_call: 8_000,
};

/// Result of one SAT attack on a selected fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackSummary {
    /// LUTs in the attacked fabric network.
    pub luts: usize,
    /// Whether the attack recovered a working key within budget.
    pub broken: bool,
    /// Distinguishing input patterns found.
    pub dips: usize,
    /// Key length in bits.
    pub key_bits: usize,
}

/// Everything a finished job produced.
#[derive(Debug)]
pub struct JobOutput {
    /// The redacted design, when the flow found a solution.
    pub redacted: Option<RedactedDesign>,
    /// The verify stage's report (verify-enabled jobs with a redaction).
    pub verify: Option<VerifyReport>,
    /// One entry per attacked fabric.
    pub attacks: Vec<AttackSummary>,
    /// |C| of the cluster stage.
    pub clusters: usize,
    /// Valid eFPGA implementations of the select stage.
    pub valid: usize,
}

/// The dataflow half of the filter stage (traced runs only).
struct DataflowStage;

impl Stage for DataflowStage {
    fn name(&self) -> &'static str {
        "dataflow"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), AliceError> {
        let _span = alice_obs::span("dataflow.analyze");
        let top = cx.design.hierarchy.top.as_str();
        let dataflow = alice_dataflow::analyze(&cx.design.file, top)
            .map_err(|e| AliceError::Dataflow(e.to_string()))?;
        cx.dataflow = Some(dataflow);
        Ok(())
    }

    fn items(&self, _cx: &FlowContext<'_>) -> usize {
        0
    }
}

/// Algorithm 1 over the dataflow computed by [`DataflowStage`] (traced
/// runs only).
struct ModuleFilterStage;

impl Stage for ModuleFilterStage {
    fn name(&self) -> &'static str {
        "filter"
    }

    fn run(&self, cx: &mut FlowContext<'_>) -> Result<(), AliceError> {
        let _span = alice_obs::span("core.filter");
        let dataflow = cx
            .dataflow
            .as_ref()
            .ok_or_else(|| AliceError::Dataflow("dataflow stage did not run".into()))?;
        cx.filter = Some(filter_modules(cx.design, dataflow, cx.cfg)?);
        Ok(())
    }

    fn items(&self, cx: &FlowContext<'_>) -> usize {
        cx.candidates().len()
    }
}

/// Runs one job. `Err` names why the job failed: a parse or flow error,
/// or a verdict other than `Equivalent`.
pub fn run(entry: &Entry, db: &DesignDb, traced: bool, attack: bool) -> Result<JobOutput, String> {
    let _job = alice_obs::span_with("bench.job", || entry.id.clone());
    let design = {
        let _span = alice_obs::span("verilog.parse");
        Design::from_source(entry.id.as_str(), &entry.source, entry.top)
            .map_err(|e| format!("parse: {e}"))?
    };
    let mut cx = FlowContext::new(&design, &entry.cfg, db);
    let mut timings = PhaseTimings::default();
    let traced_stages: [&dyn Stage; 6] = [
        &DataflowStage,
        &ModuleFilterStage,
        &ClusterStage,
        &SelectStage,
        &RedactStage,
        &VerifyStage,
    ];
    let program_stages = Flow::stages();
    let stages: &[&dyn Stage] = if traced {
        &traced_stages
    } else {
        &program_stages
    };
    for stage in stages {
        run_stage(*stage, &mut cx, &mut timings)
            .map_err(|e| format!("{} stage: {e}", stage.name()))?;
    }
    if entry.cfg.verify && cx.redacted.is_some() {
        match cx.verify.as_ref().map(|v| &v.outcome) {
            Some(VerifyOutcome::Equivalent) => {}
            Some(other) => return Err(format!("verdict: {other}")),
            None => return Err("verify stage produced no report".into()),
        }
    }
    let attacks = if attack {
        attack_fabrics(&cx, &design, db)?
    } else {
        Vec::new()
    };
    Ok(JobOutput {
        redacted: cx.redacted,
        verify: cx.verify,
        attacks,
        clusters: timings.items_of(CLUSTER),
        valid: timings.items_of(SELECT),
    })
}

/// SAT-attacks every selected fabric of at most [`ATTACK_LUT_CAP`] LUTs.
fn attack_fabrics(
    cx: &FlowContext<'_>,
    design: &Design,
    db: &DesignDb,
) -> Result<Vec<AttackSummary>, String> {
    let Some(selection) = cx.selection.as_ref() else {
        return Ok(Vec::new());
    };
    let Some(best) = selection.best.as_ref() else {
        return Ok(Vec::new());
    };
    let mut mapper = ClusterMapper::new(design, cx.cfg.arch.lut_inputs, db);
    let mut out = Vec::new();
    for &vi in &best.efpgas {
        let network = mapper
            .cluster_network(&selection.valid[vi].cluster, cx.candidates())
            .map_err(|e| format!("attack mapping: {e}"))?;
        let luts = network.lut_count();
        if luts > ATTACK_LUT_CAP {
            continue;
        }
        let report = {
            let _span = alice_obs::span("attacks.sat_attack");
            sat_attack(&network, ATTACK_BUDGET)
        };
        out.push(AttackSummary {
            luts,
            broken: matches!(report.status, AttackStatus::KeyRecovered { .. }),
            dips: report.dips,
            key_bits: report.key_bits,
        });
    }
    Ok(out)
}

fn write_bits(h: &mut StableHasher, bits: &[bool]) {
    h.write_u64(bits.len() as u64);
    let bytes: Vec<u8> = bits.iter().map(|&b| b as u8).collect();
    h.write(&bytes);
}

/// Digest of a job's observable output: the emitted Verilog, every
/// bitstream and configuration stream, the verdict, the per-key
/// corruption counts and the attack results. Timings and cache
/// provenance are left out, so a repeat must reproduce it byte for byte.
pub fn digest(out: &JobOutput) -> (u64, u64) {
    let mut h = StableHasher::new();
    match &out.redacted {
        None => h.write_str("no redaction"),
        Some(r) => {
            h.write_str(&r.combined_verilog());
            for e in &r.efpgas {
                h.write_str(e.module_name.as_str());
                h.write_str(&e.size.to_string());
                write_bits(&mut h, e.bitstream.as_slice());
                write_bits(&mut h, &e.config_stream);
            }
        }
    }
    if let Some(v) = &out.verify {
        h.write_str(&v.outcome.to_string());
        for k in &v.wrong_keys {
            h.write_u64(k.flipped.len() as u64);
            for &f in &k.flipped {
                h.write_u64(f as u64);
            }
            h.write_u64(k.corrupted as u64);
            h.write_u64(k.total as u64);
            h.write_u64(k.complete as u64);
        }
    }
    for a in &out.attacks {
        h.write_u64(a.luts as u64);
        h.write_u64(a.broken as u64);
        h.write_u64(a.dips as u64);
        h.write_u64(a.key_bits as u64);
    }
    h.finish()
}
