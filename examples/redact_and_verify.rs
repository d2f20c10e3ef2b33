//! End-to-end redaction with *proven* functional verification: redact a
//! design and let the flow's CEC verify stage build a SAT miter of the
//! regenerated Verilog (top ASIC + fabric netlists) against the
//! original, with the configuration registers pinned to the correct
//! bitstream — a proof over all inputs, not a simulation sweep. A
//! wrong-key pass then shows the converse: corrupt bitstreams provably
//! corrupt outputs.
//!
//! The same checks are then posed through the raw `alice-cec` API: a
//! folded `Miter` with the key left free (the attacker's view), and one
//! keyed `Miter` answering the correct and every wrong key by
//! assumption solves on a single engine.
//!
//! ```text
//! cargo run --example redact_and_verify
//! ```

use alice_redaction::cec::{CecResult, Miter, MiterOptions};
use alice_redaction::core::config::AliceConfig;
use alice_redaction::core::design::Design;
use alice_redaction::core::flow::Flow;
use alice_redaction::core::verify::miter_options;
use alice_redaction::netlist::elaborate;
use alice_redaction::verilog::parse_source;

const SRC: &str = r#"
module mixer(input wire [7:0] a, input wire [7:0] b, output wire [7:0] y);
  assign y = (a ^ b) + {b[3:0], a[7:4]};
endmodule
module scaler(input wire [7:0] a, output wire [7:0] y);
  assign y = (a << 2) | (a >> 5);
endmodule
module top(input wire [7:0] p, input wire [7:0] q,
           output wire [7:0] o1, output wire [7:0] o2);
  mixer u_mix(.a(p), .b(q), .y(o1));
  scaler u_scale(.a(p), .y(o2));
endmodule
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = Design::from_source("demo", SRC, None)?;
    // `verify: true` appends the CEC stage to the pipeline; the wrong-key
    // sweep flips truth-table bits and measures provable corruption.
    let cfg = AliceConfig {
        verify: true,
        verify_wrong_keys: 3,
        ..AliceConfig::cfg1()
    };
    let outcome = Flow::new(cfg.clone()).run(&design)?;
    let redacted = outcome.redacted.as_ref().expect("demo always redacts");
    println!(
        "redacted {:?} into {} eFPGA(s)",
        redacted
            .efpgas
            .iter()
            .flat_map(|e| e.instances.clone())
            .collect::<Vec<_>>(),
        redacted.efpgas.len()
    );

    let verify = outcome.verify.as_ref().expect("verify stage ran");
    println!(
        "CEC: {} over {} difference points ({} vars, {} clauses)",
        verify.outcome, verify.diff_points, verify.cnf_vars, verify.cnf_clauses
    );
    assert!(verify.outcome.is_equivalent(), "redaction must be correct");
    for wk in &verify.wrong_keys {
        println!(
            "wrong bitstream (flipping {} key bit(s)): {}/{} outputs provably corrupted",
            wk.flipped.len(),
            wk.corrupted,
            wk.total
        );
    }

    // The same check through the raw `alice-cec` API: an *unconfigured*
    // attacker view — every configuration register left free — is NOT
    // equivalent: some key assignment corrupts some output.
    let golden = elaborate(&design.file, "top")?;
    let revised = elaborate(&parse_source(&redacted.combined_verilog())?, "top")?;
    let mut opts = MiterOptions::default();
    opts.pin_inputs
        .push((alice_intern::Symbol::intern("cfg_en"), vec![false]));
    for e in &redacted.efpgas {
        // Pair the fabric flip-flops with the registers they replaced,
        // but leave `cfg` registers free instead of pinning the secret.
        opts.state_rename
            .extend(e.binding.state_map.iter().copied());
    }
    // A folded miter (no key slots) is queried with an empty key.
    match Miter::build(&golden, &revised, &opts)?.prove(&[])? {
        CecResult::NotEquivalent(cex) => println!(
            "free-key miter: NOT equivalent, witness corrupts {:?} (as redaction intends)",
            cex.diffs
        ),
        other => println!("free-key miter: unexpected verdict {other:?}"),
    }
    println!("(the correct bitstream is the only thing separating the two results)");

    // A keyed miter encodes the pair once with the bitstream registers
    // as assumption slots; every query names a key.
    let correct = miter_options(redacted, &cfg, &[]);
    let mut keyed = Miter::build_keyed(&golden, &revised, &correct, 1)?;
    println!(
        "keyed miter ({} key slots), correct key: {:?}",
        keyed.key_slots().len(),
        keyed.prove(&correct.pin_state)?
    );
    for wk in &verify.wrong_keys {
        let wrong = miter_options(redacted, &cfg, &wk.flipped).pin_state;
        let c = keyed.corruption(&wrong)?;
        assert_eq!(c.corrupted.len(), wk.corrupted, "same answer as the flow");
        println!(
            "keyed miter, wrong key {:?}: {}/{} outputs corrupted",
            wk.flipped,
            c.corrupted.len(),
            c.total
        );
    }
    println!(
        "({} assumption solves on one engine)",
        keyed.stats().assumption_solves
    );
    Ok(())
}
