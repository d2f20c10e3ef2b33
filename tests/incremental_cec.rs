//! Differential guard for the keyed-miter wrong-key sweep: one keyed
//! encoding answering the correct-key proof and the whole wrong-key
//! sweep must be *observationally identical* to freshly built folded
//! miters — same equivalence verdict, same per-key corruption counts,
//! same completeness — on GCD and DES3 with the correct key plus 8 wrong
//! keys. Only wall-clock may differ.
//!
//! The reference builds one folded [`Miter`] per wrong key the sweep
//! reports, from the same [`miter_options`] the sweep itself uses, so it
//! shares no solver state with the sweep under test.
//!
//! A second guard drives `portfolio = 3` through the keyed miter:
//! racing diversified members inside the long-lived engine may change
//! which member answers, never what the answer is.
//!
//! SAT-heavy: ignored in debug builds, run by CI's release matrix entry.

use alice_redaction::benchmarks;
use alice_redaction::cec::{CecResult, Miter};
use alice_redaction::core::config::AliceConfig;
use alice_redaction::core::flow::{Flow, FlowOutcome};
use alice_redaction::core::verify::{miter_options, VerifyOutcome};
use alice_redaction::netlist::elaborate;
use alice_redaction::verilog::parse_source;

fn sweep_config(b: &benchmarks::Benchmark, portfolio: usize, wrong_keys: usize) -> AliceConfig {
    AliceConfig {
        verify: true,
        verify_wrong_keys: wrong_keys,
        portfolio,
        // Fixed worker count on both sides of each comparison, so the
        // sweep's slice partitioning is identical run-to-run.
        jobs: portfolio.max(2),
        ..b.config(AliceConfig::cfg1())
    }
}

fn verified_run(b: &benchmarks::Benchmark, portfolio: usize, wrong_keys: usize) -> FlowOutcome {
    let d = b.design().expect("load");
    Flow::new(sweep_config(b, portfolio, wrong_keys))
        .run(&d)
        .expect("flow")
}

#[cfg_attr(debug_assertions, ignore = "SAT-heavy; run with --release")]
#[test]
fn incremental_sweep_matches_the_fresh_baseline() {
    for b in [benchmarks::gcd::benchmark(), benchmarks::des3::benchmark()] {
        let cfg = sweep_config(&b, 1, 8);
        let d = b.design().expect("load");
        let out = Flow::new(cfg.clone()).run(&d).expect("flow");
        let v = out.verify.as_ref().expect("verify ran");
        assert_eq!(
            v.outcome,
            VerifyOutcome::Equivalent,
            "{}: keyed verdict",
            b.name
        );
        assert_eq!(v.wrong_keys.len(), 8, "{}", b.name);

        let redacted = out.redacted.as_ref().expect("redacted");
        let top = d.hierarchy.top.as_str();
        let golden = elaborate(&d.file, top).expect("original elaborates");
        let parsed = parse_source(&redacted.combined_verilog()).expect("re-parses");
        let revised = elaborate(&parsed, top).expect("redaction elaborates");
        let fresh = |flipped: &[usize]| {
            Miter::build(&golden, &revised, &miter_options(redacted, &cfg, flipped))
                .expect("builds")
        };
        assert_eq!(
            fresh(&[]).prove(&[]),
            Ok(CecResult::Equivalent),
            "{}: folded verdict",
            b.name
        );
        for wk in &v.wrong_keys {
            let c = fresh(&wk.flipped).corruption(&[]).expect("no key");
            assert_eq!(
                (wk.corrupted, wk.total, wk.complete),
                (c.corrupted.len(), c.total, c.complete),
                "{}: keyed and fresh corruption of {:?} differ",
                b.name,
                wk.flipped
            );
            assert!(wk.complete, "{}: sweep analyses must be exact", b.name);
        }
        // The sweep must have found corrupting keys, or the equality
        // above compared all-zero counts and proves nothing.
        assert!(
            v.wrong_keys.iter().any(|wk| wk.corrupted > 0),
            "{}: no wrong key corrupted anything — guard is vacuous",
            b.name
        );
    }
}

#[cfg_attr(debug_assertions, ignore = "SAT-heavy; run with --release")]
#[test]
fn portfolio_keyed_miter_agrees_with_single() {
    // `portfolio = 1` vs `3`: wrong keys put the proof on the keyed
    // miter, and the race happens *inside* the long-lived engine via
    // coherent member resets between assumption solves.
    let b = benchmarks::gcd::benchmark();
    let p1 = verified_run(&b, 1, 8);
    let p3 = verified_run(&b, 3, 8);
    let v1 = p1.verify.as_ref().expect("verify ran");
    let v3 = p3.verify.as_ref().expect("verify ran");
    assert_eq!(v1.outcome, VerifyOutcome::Equivalent);
    assert_eq!(v3.outcome, v1.outcome, "portfolio changed the verdict");
    assert_eq!(
        v3.wrong_keys, v1.wrong_keys,
        "portfolio changed the sweep's corruption results"
    );
    assert!(v1.portfolio.is_none(), "classic width reports no race");
    let summary = v3.portfolio.as_ref().expect("raced proof has a summary");
    assert_eq!(summary.configs, 3);
    assert!(summary.winner < 3);
    assert!(
        summary.assumption_solves > 0,
        "the keyed miter answers by assumption solves"
    );
}
