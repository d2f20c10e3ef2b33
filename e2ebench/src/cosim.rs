//! Co-simulation of a redacted output against its original design: the
//! correct configuration streams are shifted into the fabrics, then the
//! configured chip and the original see the same seeded random stimulus
//! and every original output must agree, cycle by cycle.
//!
//! Both sides go through a reset phase (when the design has a reset
//! input) and a warm-up phase before outputs are compared, so registers
//! moved into a fabric start from the same state as the ones they
//! replaced.

use crate::corpus::mix;
use alice_core::redact::RedactedDesign;
use alice_netlist::{elaborate, Lit, Netlist, Node, NodeId, Simulator};
use alice_verilog::{parse_source, Bits};
use std::collections::HashMap;

/// Cycles with reset asserted.
const RESET_CYCLES: usize = 2;
/// Cycles of random stimulus before outputs are compared.
const WARMUP_CYCLES: usize = 16;
/// Cycles whose outputs are compared.
const COMPARE_CYCLES: usize = 48;

/// How an input port is driven during stimulus.
enum Drive {
    /// Clock pins stay low: the simulator clocks every register per step.
    Clock,
    /// Reset, asserted (to `active`) only during the reset phase.
    Reset { active: bool },
    /// Random data.
    Data,
}

fn drive_of(port: &str) -> Drive {
    match port {
        "clk" | "clock" => Drive::Clock,
        "rst" | "reset" => Drive::Reset { active: true },
        "rst_n" | "rstn" | "reset_n" | "resetn" => Drive::Reset { active: false },
        _ => Drive::Data,
    }
}

/// Seeded stimulus source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    fn bits(&mut self, width: usize) -> Bits {
        let mut bits = Vec::with_capacity(width);
        let mut word = 0;
        for i in 0..width {
            if i % 64 == 0 {
                word = self.next();
            }
            bits.push((word >> (i % 64)) & 1 == 1);
        }
        Bits::from_bits(&bits)
    }
}

/// A configuration-phase value: a constant, or a register or input bit,
/// possibly complemented.
#[derive(Debug, Clone, Copy)]
enum Folded {
    Const(bool),
    Bit(NodeId, bool),
}

impl Folded {
    fn negate_if(self, c: bool) -> Folded {
        match self {
            Folded::Const(v) => Folded::Const(v ^ c),
            Folded::Bit(id, n) => Folded::Bit(id, n ^ c),
        }
    }
}

/// Folds `lit` with `cfg_en` high: `None` when it depends on logic that
/// does not reduce to a single register or input bit.
fn fold(
    n: &Netlist,
    lit: Lit,
    cfg_en: NodeId,
    memo: &mut HashMap<NodeId, Option<Folded>>,
) -> Option<Folded> {
    let id = lit.node();
    let base = match memo.get(&id) {
        Some(&known) => known,
        None => {
            let value = match n.node(id) {
                Node::Const0 => Some(Folded::Const(false)),
                Node::Input { .. } if id == cfg_en => Some(Folded::Const(true)),
                Node::Input { .. } | Node::Dff { .. } => Some(Folded::Bit(id, false)),
                Node::Buf(a) => fold(n, *a, cfg_en, memo),
                Node::And(a, b) => match (fold(n, *a, cfg_en, memo)?, fold(n, *b, cfg_en, memo)?) {
                    (Folded::Const(false), _) | (_, Folded::Const(false)) => {
                        Some(Folded::Const(false))
                    }
                    (Folded::Const(true), x) | (x, Folded::Const(true)) => Some(x),
                    _ => None,
                },
                Node::Xor(a, b) => match (fold(n, *a, cfg_en, memo)?, fold(n, *b, cfg_en, memo)?) {
                    (Folded::Const(p), x) | (x, Folded::Const(p)) => Some(x.negate_if(p)),
                    _ => None,
                },
                Node::Mux { s, t, e } => match fold(n, *s, cfg_en, memo)? {
                    Folded::Const(true) => fold(n, *t, cfg_en, memo),
                    Folded::Const(false) => fold(n, *e, cfg_en, memo),
                    Folded::Bit(..) => None,
                },
            };
            memo.insert(id, value);
            value
        }
    };
    base.map(|f| f.negate_if(lit.is_compl()))
}

/// Where a register's next state comes from during configuration.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Another register, by [`Netlist::dff_records`] position.
    Reg(usize),
    /// The configuration input.
    CfgIn,
    /// Constant low.
    Low,
}

fn input_bit(n: &Netlist, port: &str) -> Option<NodeId> {
    n.inputs
        .iter()
        .find(|(name, _)| name.as_str() == port)
        .and_then(|(_, bits)| bits.first().copied())
}

/// Register state of a fabric after shifting `stream` in with `cfg_en`
/// high, in [`Netlist::dff_records`] order — the same result as stepping
/// a [`Simulator`] once per bit, computed on the registers alone: with
/// `cfg_en` folded in, every register's next state is one bit (the
/// previous chain stage, `cfg_in`, itself, or a constant), so a cycle
/// costs one read per register instead of a settle of the whole fabric.
/// `None` when some next state does not fold that way.
fn shift(fabric: &Netlist, stream: &[bool]) -> Option<Vec<bool>> {
    let cfg_en = input_bit(fabric, "cfg_en")?;
    let cfg_in = input_bit(fabric, "cfg_in")?;
    let dffs = fabric.dff_records();
    let slot: HashMap<NodeId, usize> = dffs.iter().enumerate().map(|(k, r)| (r.0, k)).collect();
    let mut memo = HashMap::new();
    let mut next: Vec<(Source, bool)> = Vec::with_capacity(dffs.len());
    for &(_, _, d, _) in &dffs {
        next.push(match fold(fabric, d, cfg_en, &mut memo)? {
            Folded::Const(v) => (Source::Low, v),
            Folded::Bit(id, neg) => match slot.get(&id) {
                Some(&k) => (Source::Reg(k), neg),
                None if id == cfg_in => (Source::CfgIn, neg),
                // Every other input is low while configuring.
                None => (Source::Low, neg),
            },
        });
    }
    let mut state: Vec<bool> = dffs.iter().map(|r| r.3).collect();
    let mut after = state.clone();
    for &bit in stream {
        for (value, &(src, neg)) in after.iter_mut().zip(&next) {
            *value = neg
                ^ match src {
                    Source::Reg(k) => state[k],
                    Source::CfgIn => bit,
                    Source::Low => false,
                };
        }
        std::mem::swap(&mut state, &mut after);
    }
    Some(state)
}

/// Shifts each fabric's configuration stream into that fabric, taken on
/// its own (shifting through the whole chip costs a full-chip settle per
/// configuration bit), and returns the chip with every fabric register
/// starting from the state the shift left it in. The shifted state must
/// equal the binding the equivalence proof pins.
fn configured_chip(chip: &Netlist, redacted: &RedactedDesign) -> Result<Netlist, String> {
    let fabric_file = parse_source(&redacted.fabric_verilog)
        .map_err(|e| format!("fabric output does not parse: {e}"))?;
    let mut loaded: HashMap<String, bool> = HashMap::new();
    for (i, e) in redacted.efpgas.iter().enumerate() {
        let fabric = elaborate(&fabric_file, e.module_name.as_str())
            .map_err(|err| format!("fabric {} does not elaborate: {err}", e.module_name))?;
        let state = shift(&fabric, &e.config_stream).ok_or_else(|| {
            format!(
                "configuration logic of {} does not reduce to a shift register",
                e.module_name
            )
        })?;
        let inner_prefix = format!("{}.", e.module_name);
        let chip_prefix = format!("{}.u_alice_efpga{i}.", e.insertion_point);
        for ((_, name, _, _), value) in fabric.dff_records().into_iter().zip(state) {
            let inner = name
                .as_str()
                .strip_prefix(&inner_prefix)
                .unwrap_or(name.as_str());
            loaded.insert(format!("{chip_prefix}{inner}"), value);
        }
        for (name, want) in &e.binding.cfg_pins {
            if loaded.get(name.as_str()) != Some(want) {
                return Err(format!(
                    "configuration stream of {} does not load `{name}` = {want}",
                    e.module_name
                ));
            }
        }
    }
    let mut nodes = chip.nodes().to_vec();
    let mut placed = 0;
    for (id, name, _, _) in chip.dff_records() {
        if let (Some(&v), Node::Dff { init, .. }) =
            (loaded.get(name.as_str()), &mut nodes[id.0 as usize])
        {
            *init = v;
            placed += 1;
        }
    }
    if placed != loaded.len() {
        return Err(format!(
            "{} of {} fabric registers not found in the redacted chip",
            loaded.len() - placed,
            loaded.len()
        ));
    }
    Ok(Netlist::from_parts(
        chip.name.clone(),
        nodes,
        chip.inputs.clone(),
        chip.outputs.clone(),
    ))
}

/// Co-simulates `redacted` against the original `source` on stimulus
/// drawn from `seed`. `Err` names the first disagreement.
pub fn check(source: &str, top: &str, redacted: &RedactedDesign, seed: u64) -> Result<(), String> {
    let original_file = parse_source(source).map_err(|e| format!("original parse: {e}"))?;
    let original: Netlist =
        elaborate(&original_file, top).map_err(|e| format!("original elaborate: {e}"))?;
    let chip_file = parse_source(&redacted.combined_verilog())
        .map_err(|e| format!("redacted output does not parse: {e}"))?;
    let chip_netlist = elaborate(&chip_file, top)
        .map_err(|e| format!("redacted output does not elaborate: {e}"))?;

    let configured = configured_chip(&chip_netlist, redacted)?;
    let mut golden = Simulator::new(&original);
    let mut chip = Simulator::new(&configured);
    chip.set_input("cfg_en", &Bits::from_u64(0, 1));

    let ports: Vec<(String, usize, Drive)> = original
        .inputs
        .iter()
        .map(|(name, bits)| (name.to_string(), bits.len(), drive_of(name.as_str())))
        .collect();
    let mut rng = Rng(seed);
    for cycle in 0..RESET_CYCLES + WARMUP_CYCLES + COMPARE_CYCLES {
        let in_reset = cycle < RESET_CYCLES;
        for (name, width, drive) in &ports {
            let value = match drive {
                Drive::Clock => Bits::from_u64(0, *width as u32),
                Drive::Reset { active } => {
                    let level = if in_reset { *active } else { !*active };
                    Bits::from_u64(level as u64, *width as u32)
                }
                Drive::Data => rng.bits(*width),
            };
            golden.set_input(name, &value);
            chip.set_input(name, &value);
        }
        golden.settle();
        chip.settle();
        if cycle >= RESET_CYCLES + WARMUP_CYCLES {
            for (name, _) in &original.outputs {
                let (want, got) = (golden.output(name.as_str()), chip.output(name.as_str()));
                if want != got {
                    return Err(format!(
                        "co-simulation: output `{name}` differs at cycle {cycle}: \
                         original {want:?}, redacted {got:?}"
                    ));
                }
            }
        }
        golden.step();
        chip.step();
    }
    Ok(())
}
