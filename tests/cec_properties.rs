//! Property tests for the `alice-cec` equivalence checker: random small
//! netlists must prove equivalent to themselves, and mutated copies must
//! yield counterexamples that the `alice-netlist` simulator confirms
//! end-to-end (the SAT layer and the simulation layer cross-validate).
//!
//! A differential guard pins the on-demand SAT sweep: a miter whose
//! sweep is forced before its first query and one that sweeps only when
//! a probe runs out must give the same verdicts and the same corruption
//! sets, folded and keyed, under every key.

use alice_intern::Symbol;
use alice_redaction::benchmarks::generator::{generate, GeneratorParams};
use alice_redaction::cec::{prove_equivalent, CecResult, Miter, MiterOptions};
use alice_redaction::core::config::AliceConfig;
use alice_redaction::core::design::Design;
use alice_redaction::core::flow::Flow;
use alice_redaction::core::verify::miter_options;
use alice_redaction::netlist::elaborate;
use alice_redaction::netlist::ir::{Lit, Netlist, Node};
use alice_redaction::netlist::sim::eval_comb;
use alice_redaction::verilog::parse_source;
use alice_redaction::verilog::Bits;
use proptest::prelude::*;

/// Builds a random combinational netlist: `inputs` single-bit ports and a
/// random AND/XOR/MUX DAG over them, with 2 output ports.
fn random_netlist(seed: u64, inputs: u32, gates: u32) -> Netlist {
    let mut rng = proptest::TestRng::deterministic(&format!("net-{seed}"));
    let mut n = Netlist::new("rand");
    let mut pool: Vec<Lit> = (0..inputs)
        .flat_map(|i| n.add_input(&format!("i{i}"), 1))
        .collect();
    for _ in 0..gates {
        let pick = |rng: &mut proptest::TestRng, pool: &[Lit]| -> Lit {
            let l = pool[(rng.next_u64() % pool.len() as u64) as usize];
            if rng.next_u64() & 1 == 1 {
                l.compl()
            } else {
                l
            }
        };
        let a = pick(&mut rng, &pool);
        let b = pick(&mut rng, &pool);
        let g = match rng.next_u64() % 3 {
            0 => n.and(a, b),
            1 => n.xor(a, b),
            _ => {
                let c = pick(&mut rng, &pool);
                n.mux(a, b, c)
            }
        };
        pool.push(g);
    }
    let y0 = pool[pool.len() - 1];
    let y1 = pool[pool.len() / 2];
    n.add_output("y0", vec![y0]);
    n.add_output("y1", vec![y1]);
    n
}

/// Simulated output vector: `(port, value)` pairs from `eval_comb`.
type SimOutputs = Vec<(String, Bits)>;

/// Applies a counterexample's inputs to both netlists and returns the
/// two output vectors (the simulator as the independent referee).
fn replay(
    cex_inputs: &[(alice_intern::Symbol, Vec<bool>)],
    a: &Netlist,
    b: &Netlist,
) -> (SimOutputs, SimOutputs) {
    let assigns: Vec<(&str, Bits)> = cex_inputs
        .iter()
        .map(|(name, bits)| (name.as_str(), Bits::from_bits(bits)))
        .collect();
    (eval_comb(a, &assigns), eval_comb(b, &assigns))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Reflexivity: every netlist is equivalent to itself.
    #[test]
    fn self_equivalence_always_holds(seed in 0u64..100_000) {
        let n = random_netlist(seed, 2 + (seed % 5) as u32, 5 + (seed % 36) as u32);
        prop_assert_eq!(prove_equivalent(&n, &n), Ok(CecResult::Equivalent));
    }

    /// A copy with one output polarity flipped is never equivalent, and
    /// the counterexample replays on the simulator with differing
    /// outputs.
    #[test]
    fn flipped_output_yields_a_sim_confirmed_counterexample(seed in 0u64..100_000) {
        let n = random_netlist(seed, 3 + (seed % 4) as u32, 8 + (seed % 24) as u32);
        let mut bad = n.clone();
        bad.outputs[0].1[0] = bad.outputs[0].1[0].compl();
        match prove_equivalent(&n, &bad).expect("boundary pairs") {
            CecResult::NotEquivalent(cex) => {
                prop_assert!(cex.diffs.contains(&"y0[0]".to_string()));
                let (oa, ob) = replay(&cex.inputs, &n, &bad);
                prop_assert!(oa != ob, "simulator must confirm the counterexample");
                prop_assert!(oa[0].1 != ob[0].1, "y0 must differ under the witness");
            }
            other => prop_assert!(false, "expected counterexample, got {:?}", other),
        }
    }

    /// A copy with one random gate rewired: if the checker reports a
    /// counterexample the simulator confirms it; if it proves equivalence
    /// exhaustive simulation over all input patterns agrees (the mutation
    /// can land outside the output cones).
    #[test]
    fn gate_mutations_are_caught_or_provably_harmless(seed in 0u64..100_000) {
        let inputs = 3 + (seed % 4) as u32; // ≤ 6 inputs: exhaustible
        let n = random_netlist(seed, inputs, 8 + (seed % 24) as u32);
        // Rebuild with one gate's fanin complemented.
        let mut rng = proptest::TestRng::deterministic(&format!("mut-{seed}"));
        let gate_ids: Vec<_> = n.gates().map(|(id, _)| id).collect();
        prop_assert!(!gate_ids.is_empty());
        let victim = gate_ids[(rng.next_u64() % gate_ids.len() as u64) as usize];
        let mut bad = Netlist::new("mutant");
        let mut map: Vec<Lit> = Vec::with_capacity(n.len());
        map.push(Lit::FALSE); // constant node
        for (id, node) in n.iter().skip(1) {
            let remap = |l: Lit, map: &[Lit]| -> Lit {
                let base = map[l.node().0 as usize];
                if l.is_compl() { base.compl() } else { base }
            };
            let lit = match node {
                Node::Const0 => Lit::FALSE,
                Node::Input { name } => Lit::new(bad.add_input_bit(*name), false),
                Node::And(a, b) => {
                    let (mut a, b) = (remap(*a, &map), remap(*b, &map));
                    if id == victim {
                        a = a.compl();
                    }
                    bad.and(a, b)
                }
                Node::Xor(a, b) => {
                    let (a, mut b) = (remap(*a, &map), remap(*b, &map));
                    if id == victim {
                        b = b.compl();
                    }
                    bad.xor(a, b)
                }
                Node::Mux { s, t, e } => {
                    let (mut s, t, e) = (remap(*s, &map), remap(*t, &map), remap(*e, &map));
                    if id == victim {
                        s = s.compl();
                    }
                    bad.mux(s, t, e)
                }
                Node::Dff { .. } | Node::Buf(_) => unreachable!("combinational netlist"),
            };
            map.push(lit);
        }
        // Mirror port structure.
        for (name, bits) in &n.inputs {
            let mapped: Vec<_> = bits.iter().map(|&b| map[b.0 as usize].node()).collect();
            bad.inputs.push((*name, mapped));
        }
        for (name, bits) in &n.outputs {
            let mapped = bits
                .iter()
                .map(|&l| {
                    let base = map[l.node().0 as usize];
                    if l.is_compl() { base.compl() } else { base }
                })
                .collect();
            bad.add_output(*name, mapped);
        }

        match prove_equivalent(&n, &bad).expect("boundary pairs") {
            CecResult::NotEquivalent(cex) => {
                let (oa, ob) = replay(&cex.inputs, &n, &bad);
                prop_assert!(oa != ob, "simulator must confirm the counterexample");
            }
            CecResult::Equivalent => {
                // The flip missed the output cones (or was folded away):
                // exhaustive simulation must agree on every pattern.
                let bits = n.inputs.len();
                for pattern in 0..(1u64 << bits) {
                    let assigns: Vec<(&str, Bits)> = n
                        .inputs
                        .iter()
                        .enumerate()
                        .map(|(i, (name, _))| {
                            (name.as_str(), Bits::from_u64((pattern >> i) & 1, 1))
                        })
                        .collect();
                    prop_assert_eq!(eval_comb(&n, &assigns), eval_comb(&bad, &assigns));
                }
            }
            CecResult::ResourceLimit => prop_assert!(false, "tiny netlists never hit the budget"),
        }
    }

    /// Random DAGs, ripple-carry adders, xor banks and AND ladders
    /// against their restructured keyed twins: forcing the sweep first
    /// never changes an answer.
    #[test]
    fn forced_and_on_demand_sweeps_agree(seed in 0u64..100_000) {
        let golden = match seed % 4 {
            0 => random_netlist(seed, 3 + (seed % 4) as u32, 8 + (seed % 24) as u32),
            1 => adder(2 + (seed % 5) as u32),
            2 => xor_bank(2 + (seed % 6) as u32),
            _ => and_ladder(10 + (seed % 5) as u32),
        };
        let (revised, slots) = keyed_twin(&golden, 1 + (seed % 3) as usize, seed);
        prop_assert!(!slots.is_empty());
        let keys = keys_over(&slots, 3, seed);
        let verdicts = sweep_differential(&golden, &revised, &MiterOptions::default(), &keys);
        prop_assert_eq!(verdicts.len(), keys.len());
        prop_assert_eq!(verdicts[0], "equivalent", "the correct key proves");
    }
}

/// A ripple-carry adder of two `width`-bit ports (`s` = sum bits and
/// carry out).
fn adder(width: u32) -> Netlist {
    let mut n = Netlist::new("add");
    let a = n.add_input("a", width);
    let b = n.add_input("b", width);
    let mut carry = Lit::FALSE;
    let mut outs = Vec::new();
    for i in 0..width as usize {
        let s1 = n.xor(a[i], b[i]);
        outs.push(n.xor(s1, carry));
        let c1 = n.and(a[i], b[i]);
        let c2 = n.and(s1, carry);
        carry = n.or(c1, c2);
    }
    outs.push(carry);
    n.add_output("s", outs);
    n
}

/// `y[i] = a[0] & … & a[i]`: the wide prefixes almost never toggle, so
/// random simulation cannot tell them apart and the sweep must refute
/// false candidates with SAT witnesses.
fn and_ladder(width: u32) -> Netlist {
    let mut n = Netlist::new("ladder");
    let a = n.add_input("a", width);
    let mut acc = a[0];
    let mut ys = vec![acc];
    for &bit in &a[1..] {
        acc = n.and(acc, bit);
        ys.push(acc);
    }
    n.add_output("y", ys);
    n
}

/// `y = a ^ b` bit by bit.
fn xor_bank(width: u32) -> Netlist {
    let mut n = Netlist::new("xor");
    let a = n.add_input("a", width);
    let b = n.add_input("b", width);
    let ys = (0..width as usize).map(|i| n.xor(a[i], b[i])).collect();
    n.add_output("y", ys);
    n
}

/// A keyed twin of the combinational `golden`: every XOR is rebuilt as
/// `(a & !b) | (!a & b)` and every MUX as `(s & t) | (!s & e)` (the same
/// functions in a different structure, so the sweep has real pairs to
/// merge), and `keys` gates pass through a key mux `cfg ? !g : g` on a
/// fresh configuration register. The correct key is all-zero. Returns
/// the twin and its key register names.
fn keyed_twin(golden: &Netlist, keys: usize, seed: u64) -> (Netlist, Vec<Symbol>) {
    let mut rng = proptest::TestRng::deterministic(&format!("twin-{seed}"));
    let gates: Vec<_> = golden.gates().map(|(id, _)| id).collect();
    let mut keyed = std::collections::BTreeSet::new();
    while keyed.len() < keys.min(gates.len()) {
        keyed.insert(gates[(rng.next_u64() % gates.len() as u64) as usize]);
    }
    let mut r = Netlist::new("twin");
    let mut map: Vec<Lit> = vec![Lit::FALSE];
    let mut names = Vec::new();
    let remap = |l: Lit, map: &[Lit]| {
        let base = map[l.node().0 as usize];
        if l.is_compl() {
            base.compl()
        } else {
            base
        }
    };
    for (id, node) in golden.iter().skip(1) {
        let mut lit = match node {
            Node::Input { name } => Lit::new(r.add_input_bit(*name), false),
            Node::And(a, b) => r.and(remap(*a, &map), remap(*b, &map)),
            Node::Xor(a, b) => {
                let (a, b) = (remap(*a, &map), remap(*b, &map));
                let t1 = r.and(a, b.compl());
                let t2 = r.and(a.compl(), b);
                r.or(t1, t2)
            }
            Node::Mux { s, t, e } => {
                let (s, t, e) = (remap(*s, &map), remap(*t, &map), remap(*e, &map));
                let t1 = r.and(s, t);
                let t2 = r.and(s.compl(), e);
                r.or(t1, t2)
            }
            other => unreachable!("combinational golden netlist, got {other:?}"),
        };
        if keyed.contains(&id) {
            let name = format!("top.le0.cfg[{}]", names.len());
            let k = r.dff(&name, false);
            r.set_dff_input(k, k);
            lit = r.mux(k, lit.compl(), lit);
            names.push(Symbol::intern(&name));
        }
        map.push(lit);
    }
    for (name, bits) in &golden.inputs {
        let mapped = bits.iter().map(|&b| map[b.0 as usize].node()).collect();
        r.inputs.push((*name, mapped));
    }
    for (name, lits) in &golden.outputs {
        let mapped = lits.iter().map(|&l| remap(l, &map)).collect();
        r.add_output(*name, mapped);
    }
    (r, names)
}

/// Verdict class of a query: witnesses may differ between two solver
/// runs, the class may not.
fn verdict(r: &CecResult) -> &'static str {
    match r {
        CecResult::Equivalent => "equivalent",
        CecResult::NotEquivalent(_) => "not equivalent",
        CecResult::ResourceLimit => "resource limit",
    }
}

/// Asks every key of `keys` (the first is the one the keyed miter is
/// built with) of a lazily sweeping miter and of one whose sweep is
/// forced before the first query — one long-lived keyed miter each, and
/// one folded miter per key, all built from `base` with the key pinned —
/// and requires identical verdicts and corruption sets. Returns the
/// verdict under each key.
fn sweep_differential(
    golden: &Netlist,
    revised: &Netlist,
    base: &MiterOptions,
    keys: &[Vec<(Symbol, bool)>],
) -> Vec<&'static str> {
    let opts = |pins: &[(Symbol, bool)]| MiterOptions {
        pin_state: pins.to_vec(),
        ..base.clone()
    };
    fn pair<'n>(build: impl Fn() -> Miter<'n>) -> (Miter<'n>, Miter<'n>) {
        let lazy = build();
        let mut forced = build();
        forced.force_sweep();
        assert!(forced.sweep_stats().is_some(), "the forced sweep ran");
        (lazy, forced)
    }
    let (mut lazy_k, mut forced_k) =
        pair(|| Miter::build_keyed(golden, revised, &opts(&keys[0]), 1).expect("builds"));
    let mut verdicts = Vec::new();
    for key in keys {
        let (mut lazy_f, mut forced_f) =
            pair(|| Miter::build(golden, revised, &opts(key)).expect("builds"));
        let answers = [
            (lazy_k.prove(key), forced_k.prove(key), "keyed"),
            (lazy_f.prove(&[]), forced_f.prove(&[]), "folded"),
        ];
        for (lazy, forced, how) in answers {
            let (lazy, forced) = (lazy.expect("known slots"), forced.expect("known slots"));
            assert_eq!(
                verdict(&lazy),
                verdict(&forced),
                "{how} verdict under {key:?}"
            );
        }
        verdicts.push(verdict(&lazy_f.prove(&[]).expect("no key")));
        let corruption = [
            (lazy_k.corruption(key), forced_k.corruption(key), "keyed"),
            (lazy_f.corruption(&[]), forced_f.corruption(&[]), "folded"),
        ];
        for (lazy, forced, how) in corruption {
            let lazy = lazy.expect("known slots");
            assert!(lazy.complete, "unbudgeted analyses are exact");
            assert_eq!(
                lazy,
                forced.expect("known slots"),
                "{how} corruption under {key:?}"
            );
        }
    }
    verdicts
}

/// The correct (all-zero) key over `slots`, then `wrong` keys with one
/// to three bits set.
fn keys_over(slots: &[Symbol], wrong: usize, seed: u64) -> Vec<Vec<(Symbol, bool)>> {
    let mut rng = proptest::TestRng::deterministic(&format!("keys-{seed}"));
    let mut keys = vec![slots.iter().map(|&s| (s, false)).collect::<Vec<_>>()];
    for _ in 0..wrong {
        let mut key = keys[0].clone();
        for _ in 0..1 + rng.next_u64() % 3 {
            let i = (rng.next_u64() % key.len() as u64) as usize;
            key[i].1 = true;
        }
        keys.push(key);
    }
    keys
}

/// The same guard on real eFPGA redactions of generated designs: the
/// flow's own miter options for the correct bitstream and for several
/// wrong ones.
#[test]
fn forced_and_on_demand_sweeps_agree_on_generated_redactions() {
    let mut redacted_any = false;
    for seed in [3u64, 11] {
        let params = GeneratorParams {
            leaves: 3,
            min_width: 4,
            max_width: 6,
            depth: 1,
        };
        let d = Design::from_source("synth", &generate(seed, params), None).expect("load");
        let cfg = AliceConfig::cfg1();
        let out = Flow::new(cfg.clone()).run(&d).expect("flow");
        let Some(redacted) = &out.redacted else {
            continue;
        };
        redacted_any = true;
        let top = d.hierarchy.top.as_str();
        let golden = elaborate(&d.file, top).expect("original elaborates");
        let parsed = parse_source(&redacted.combined_verilog()).expect("re-parses");
        let revised = elaborate(&parsed, top).expect("redaction elaborates");
        let key_bits: usize = redacted
            .efpgas
            .iter()
            .map(|e| e.binding.key_bits.len())
            .sum();
        assert!(key_bits > 0, "seed {seed}: a redaction has key bits");
        let keys: Vec<Vec<(Symbol, bool)>> = [vec![], vec![0], vec![key_bits / 2, key_bits - 1]]
            .iter()
            .map(|flipped| miter_options(redacted, &cfg, flipped).pin_state)
            .collect();
        let verdicts = sweep_differential(
            &golden,
            &revised,
            &miter_options(redacted, &cfg, &[]),
            &keys,
        );
        assert_eq!(
            verdicts[0], "equivalent",
            "seed {seed}: the correct bitstream proves"
        );
    }
    assert!(
        redacted_any,
        "no generated design was redacted: the guard is vacuous"
    );
}
