//! Differential test of the CDCL solver against brute-force enumeration
//! on random small CNF instances: SAT/UNSAT verdicts must agree, SAT
//! models must satisfy the formula, and the incremental assumption
//! interface must match brute force under the same pinned literals.
//!
//! Clause densities straddle the ~4.26 clauses/variable 3-SAT phase
//! transition so both verdicts occur, and instances are large enough to
//! exercise unit propagation, conflict analysis, clause learning, and
//! Luby restarts rather than pure backtracking.

use alice_redaction::attacks::solver::{Lit, SatResult, Solver, Var};
use alice_redaction::attacks::{PortfolioEngine, SatEngine};
use proptest::prelude::*;

struct Cnf {
    vars: usize,
    clauses: Vec<Vec<(usize, bool)>>, // (variable, negated)
}

/// Deterministic random CNF: `vars` ≤ 14 so brute force stays cheap.
/// Density sweeps 2..6 clauses/var across seeds: SAT-ish to UNSAT-ish.
fn random_cnf(seed: u64) -> Cnf {
    cnf_with_density(seed, 2 + (seed % 5) as usize)
}

/// Deterministic random CNF with `per_var` clauses per variable.
fn cnf_with_density(seed: u64, per_var: usize) -> Cnf {
    let mut rng = proptest::TestRng::deterministic(&format!("cnf-{seed}"));
    let vars = 3 + (rng.next_u64() % 12) as usize; // 3..=14
    let clauses_n = vars * per_var;
    let clauses = (0..clauses_n)
        .map(|_| {
            let width = 1 + (rng.next_u64() % 3) as usize; // 1..=3 literals
            (0..width)
                .map(|_| {
                    (
                        (rng.next_u64() % vars as u64) as usize,
                        rng.next_u64() & 1 == 1,
                    )
                })
                .collect()
        })
        .collect();
    Cnf { vars, clauses }
}

fn clause_satisfied(clause: &[(usize, bool)], assignment: u64) -> bool {
    clause
        .iter()
        .any(|&(v, neg)| ((assignment >> v) & 1 == 1) != neg)
}

/// Brute force: is there a satisfying assignment with `pinned` respected?
fn brute_force(cnf: &Cnf, pinned: &[(usize, bool)]) -> bool {
    'outer: for assignment in 0..(1u64 << cnf.vars) {
        for &(v, val) in pinned {
            if ((assignment >> v) & 1 == 1) != val {
                continue 'outer;
            }
        }
        if cnf.clauses.iter().all(|c| clause_satisfied(c, assignment)) {
            return true;
        }
    }
    false
}

fn load(cnf: &Cnf) -> (Solver, Vec<Var>) {
    let mut s = Solver::new();
    let vars = load_into(cnf, &mut s);
    (s, vars)
}

/// Loads `cnf` into any [`SatEngine`] — the portfolio runs the same
/// differential suite as the plain solver through this seam.
fn load_into(cnf: &Cnf, s: &mut dyn SatEngine) -> Vec<Var> {
    let vars: Vec<Var> = (0..cnf.vars).map(|_| s.new_var()).collect();
    for c in &cnf.clauses {
        let lits: Vec<Lit> = c.iter().map(|&(v, neg)| Lit::new(vars[v], neg)).collect();
        s.add_clause(&lits);
    }
    vars
}

/// The verdict a fresh solver reaches with `pinned` added as unit
/// clauses — the reference every incremental answer must equal.
fn pinned_verdict(cnf: &Cnf, pinned: &[(usize, bool)]) -> SatResult {
    let (mut fresh, fvars) = load(cnf);
    for &(v, val) in pinned {
        fresh.add_clause(&[Lit::new(fvars[v], !val)]);
    }
    fresh.solve()
}

/// One incremental query under `pinned`: the verdict must equal
/// [`pinned_verdict`] (a budgeted engine may also answer `Unknown`), and
/// a `Sat` model must satisfy the formula and every pin.
fn checked_query(
    e: &mut dyn SatEngine,
    cnf: &Cnf,
    vars: &[Var],
    pinned: &[(usize, bool)],
) -> SatResult {
    let assumptions: Vec<Lit> = pinned
        .iter()
        .map(|&(v, val)| Lit::new(vars[v], !val))
        .collect();
    let got = e.solve_with(&assumptions);
    if got == SatResult::Unknown && e.budget().is_some() {
        return got;
    }
    assert_eq!(got, pinned_verdict(cnf, pinned), "pins {pinned:?}");
    if got == SatResult::Sat {
        let mut assignment = 0u64;
        for (i, &v) in vars.iter().enumerate() {
            if e.value(v) == Some(true) {
                assignment |= 1 << i;
            }
        }
        for c in &cnf.clauses {
            assert!(clause_satisfied(c, assignment), "model violates a clause");
        }
        for &(v, val) in pinned {
            assert_eq!((assignment >> v) & 1 == 1, val, "model violates pin {v}");
        }
    }
    got
}

/// Drives `e` through assumption sequences shaped like the real
/// consumers — `base ++ [x_i]` (the keyed miter's prove and corruption
/// loops) and a growing prefix whose last literal flips on `Unsat`
/// (lex-min key extraction) — so consecutive calls share prefixes of
/// every length. Between queries, clause additions, root resets, and
/// budget-limited calls under the current prefix are interleaved.
fn prefix_sharing_sequences(e: &mut dyn SatEngine, seed: u64) {
    // 1..3 clauses/var: mostly satisfiable, so assumption prefixes are
    // usually consistent and stay on the trail between calls.
    let mut cnf = cnf_with_density(seed, 1 + (seed % 3) as usize);
    let vars = load_into(&cnf, e);
    let mut rng = proptest::TestRng::deterministic(&format!("prefix-{seed}"));
    let n = cnf.vars as u64;
    let pin =
        |rng: &mut proptest::TestRng| ((rng.next_u64() % n) as usize, rng.next_u64() & 1 == 1);
    let interleave = |e: &mut dyn SatEngine,
                      cnf: &mut Cnf,
                      prefix: &[(usize, bool)],
                      rng: &mut proptest::TestRng| {
        match rng.next_u64() % 10 {
            0 => {
                let width = 1 + (rng.next_u64() % 3) as usize;
                let clause: Vec<(usize, bool)> = (0..width).map(|_| pin(rng)).collect();
                let lits: Vec<Lit> = clause
                    .iter()
                    .map(|&(v, neg)| Lit::new(vars[v], neg))
                    .collect();
                e.add_clause(&lits);
                cnf.clauses.push(clause);
            }
            1 => e.reset_to_root(),
            2 => {
                e.set_budget(Some(rng.next_u64() % 3));
                let mut q = prefix.to_vec();
                q.push(pin(rng));
                checked_query(e, cnf, &vars, &q);
                e.set_budget(None);
            }
            _ => {}
        }
    };
    for _ in 0..2 {
        // Points come from a small pool, so a point recurs after others
        // (as when `prove` and `corruption` walk the same key's points).
        let base: Vec<(usize, bool)> = (0..rng.next_u64() % 5).map(|_| pin(&mut rng)).collect();
        let points: Vec<(usize, bool)> = (0..3).map(|_| pin(&mut rng)).collect();
        for _ in 0..6 {
            interleave(e, &mut cnf, &base, &mut rng);
            let mut q = base.clone();
            q.push(points[(rng.next_u64() % 3) as usize]);
            checked_query(e, &cnf, &vars, &q);
        }
        // A walk that backs up to a random prefix of the previous query
        // and extends it, so kept prefixes of every length occur.
        let mut walk: Vec<(usize, bool)> = Vec::new();
        for _ in 0..8 {
            interleave(e, &mut cnf, &walk, &mut rng);
            walk.truncate((rng.next_u64() % (walk.len() as u64 + 1)) as usize);
            for _ in 0..1 + rng.next_u64() % 2 {
                walk.push(pin(&mut rng));
            }
            checked_query(e, &cnf, &vars, &walk);
        }
        let mut fixed: Vec<(usize, bool)> = Vec::new();
        for v in 0..cnf.vars {
            interleave(e, &mut cnf, &fixed, &mut rng);
            fixed.push((v, false));
            if checked_query(e, &cnf, &vars, &fixed) != SatResult::Sat {
                fixed.last_mut().expect("just pushed").1 = true;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Unlimited-budget verdicts agree with brute force, and SAT models
    /// actually satisfy every clause.
    #[test]
    fn solver_agrees_with_brute_force(seed in 0u64..100_000) {
        let cnf = random_cnf(seed);
        let expect_sat = brute_force(&cnf, &[]);
        let (mut s, vars) = load(&cnf);
        match s.solve() {
            SatResult::Sat => {
                prop_assert!(expect_sat, "solver said SAT, brute force UNSAT");
                let mut assignment = 0u64;
                for (i, &v) in vars.iter().enumerate() {
                    if s.value(v) == Some(true) {
                        assignment |= 1 << i;
                    }
                }
                for c in &cnf.clauses {
                    prop_assert!(clause_satisfied(c, assignment), "model violates a clause");
                }
            }
            SatResult::Unsat => prop_assert!(!expect_sat, "solver said UNSAT, brute force SAT"),
            SatResult::Unknown => prop_assert!(false, "no budget set, Unknown impossible"),
        }
    }

    /// Assumption-based solving agrees with brute force under the same
    /// pins, and never corrupts the solver for later calls.
    #[test]
    fn assumptions_agree_with_brute_force(seed in 0u64..100_000) {
        let cnf = random_cnf(seed);
        let (mut s, vars) = load(&cnf);
        let mut rng = proptest::TestRng::deterministic(&format!("assume-{seed}"));
        for _ in 0..4 {
            let k = 1 + (rng.next_u64() % 3) as usize;
            let pinned: Vec<(usize, bool)> = (0..k)
                .map(|_| ((rng.next_u64() % cnf.vars as u64) as usize, rng.next_u64() & 1 == 1))
                .collect();
            // Contradictory duplicate pins make brute force UNSAT; the
            // solver must agree rather than wedge.
            let assumptions: Vec<Lit> = pinned.iter().map(|&(v, val)| Lit::new(vars[v], !val)).collect();
            let expect = brute_force(&cnf, &pinned);
            match s.solve_with(&assumptions) {
                SatResult::Sat => prop_assert!(expect),
                SatResult::Unsat => prop_assert!(!expect),
                SatResult::Unknown => prop_assert!(false, "no budget set"),
            }
        }
        // The formula itself must still answer consistently.
        let expect = brute_force(&cnf, &[]);
        prop_assert_eq!(s.solve() == SatResult::Sat, expect);
    }

    /// The incremental contract the keyed CEC miter rests on, stated
    /// directly: `solve_with(assumptions)` on one long-lived solver
    /// returns exactly the verdict a *fresh* solver is forced to when
    /// the same bits are added as unit clauses — across a sequence of
    /// assumption sets, with learned clauses and phase saving carrying
    /// over in between.
    #[test]
    fn assumptions_equal_unit_clause_pinning(seed in 0u64..100_000) {
        let cnf = random_cnf(seed);
        let (mut incremental, vars) = load(&cnf);
        let mut rng = proptest::TestRng::deterministic(&format!("pin-{seed}"));
        for _ in 0..4 {
            let k = 1 + (rng.next_u64() % 4) as usize;
            let pinned: Vec<(usize, bool)> = (0..k)
                .map(|_| ((rng.next_u64() % cnf.vars as u64) as usize, rng.next_u64() & 1 == 1))
                .collect();
            let assumptions: Vec<Lit> = pinned.iter().map(|&(v, val)| Lit::new(vars[v], !val)).collect();
            let got = incremental.solve_with(&assumptions);
            let (mut fresh, fvars) = load(&cnf);
            for &(v, val) in &pinned {
                fresh.add_clause(&[Lit::new(fvars[v], !val)]);
            }
            prop_assert_eq!(got, fresh.solve(), "pins {:?}", pinned);
        }
    }

    /// Prefix-sharing assumption sequences — the shape trail reuse
    /// serves — answer exactly like a fresh solver pinned by unit
    /// clauses, with sound models, across clause additions, resets,
    /// and budget-exhausted calls.
    #[test]
    fn prefix_sharing_sequences_equal_unit_clause_pinning(seed in 0u64..100_000) {
        let mut s = Solver::new();
        prefix_sharing_sequences(&mut s, seed);
    }

    /// A conflict budget may only turn an answer into Unknown, never
    /// flip it; restarts under tiny budgets stay sound.
    #[test]
    fn budget_never_flips_the_verdict(seed in 0u64..50_000, budget in 1u64..64) {
        let cnf = random_cnf(seed);
        let expect_sat = brute_force(&cnf, &[]);
        let (mut s, _) = load(&cnf);
        s.conflict_budget = Some(budget);
        match s.solve() {
            SatResult::Sat => prop_assert!(expect_sat),
            SatResult::Unsat => prop_assert!(!expect_sat),
            SatResult::Unknown => {}
        }
    }

    /// The portfolio race passes the same differential suite as the
    /// plain solver: whichever diversified member wins, verdicts match
    /// brute force, models satisfy the formula, and assumption solving
    /// stays sound across races.
    #[test]
    fn portfolio_agrees_with_brute_force(seed in 0u64..100_000) {
        let cnf = random_cnf(seed);
        let expect_sat = brute_force(&cnf, &[]);
        let mut e = PortfolioEngine::new(3);
        let vars = load_into(&cnf, &mut e);
        match e.solve() {
            SatResult::Sat => {
                prop_assert!(expect_sat, "portfolio said SAT, brute force UNSAT");
                let mut assignment = 0u64;
                for (i, &v) in vars.iter().enumerate() {
                    if e.value(v) == Some(true) {
                        assignment |= 1 << i;
                    }
                }
                for c in &cnf.clauses {
                    prop_assert!(clause_satisfied(c, assignment), "winner's model violates a clause");
                }
            }
            SatResult::Unsat => prop_assert!(!expect_sat, "portfolio said UNSAT, brute force SAT"),
            SatResult::Unknown => prop_assert!(false, "no budget set, Unknown impossible"),
        }
        // Assumption round on the same engine, after the first race.
        let pin = ((seed % cnf.vars as u64) as usize, seed & 1 == 1);
        let expect = brute_force(&cnf, &[pin]);
        let r = e.solve_with(&[Lit::new(vars[pin.0], !pin.1)]);
        prop_assert_eq!(r == SatResult::Sat, expect);
    }

    /// A portfolio budget may only turn an answer into Unknown, and
    /// Unknown surfaces exactly when every member exhausts.
    #[test]
    fn portfolio_budget_never_flips_the_verdict(seed in 0u64..50_000, budget in 1u64..64) {
        let cnf = random_cnf(seed);
        let expect_sat = brute_force(&cnf, &[]);
        let mut e = PortfolioEngine::new(3);
        load_into(&cnf, &mut e);
        e.set_budget(Some(budget));
        match e.solve() {
            SatResult::Sat => prop_assert!(expect_sat),
            SatResult::Unsat => prop_assert!(!expect_sat),
            SatResult::Unknown => {}
        }
        // Lifting the budget restores the definitive verdict.
        e.set_budget(None);
        prop_assert_eq!(e.solve() == SatResult::Sat, expect_sat);
    }
}

/// The portfolio passes the prefix-sharing sequences too: every member
/// keeps its own trail, and whichever wins must answer like a fresh
/// pinned solver.
#[test]
fn portfolio_prefix_sharing_sequences_equal_unit_clause_pinning() {
    for seed in 0..40 {
        let mut e = PortfolioEngine::new(3);
        prefix_sharing_sequences(&mut e, seed);
    }
}

/// A parity (XOR) chain forces deep conflict analysis and many restarts;
/// its satisfiability is known analytically.
#[test]
fn parity_chains_exercise_restarts() {
    for n in [8usize, 12, 14] {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        // x_i xor x_{i+1} = 1 for all i, plus x_0 = 0: satisfiable by
        // alternation; adding x_{n-1} = x_0's forced complement flipped
        // makes it UNSAT for even n.
        for w in vars.windows(2) {
            s.add_clause(&[Lit::pos(w[0]), Lit::pos(w[1])]);
            s.add_clause(&[Lit::neg(w[0]), Lit::neg(w[1])]);
        }
        s.add_clause(&[Lit::neg(vars[0])]);
        assert_eq!(s.solve(), SatResult::Sat, "n={n}");
        // Alternation: odd positions true.
        for (i, &v) in vars.iter().enumerate() {
            assert_eq!(s.value(v), Some(i % 2 == 1), "n={n} position {i}");
        }
        // Force the contradiction (x_{n-1} must be true for even n).
        s.add_clause(&[Lit::new(vars[n - 1], (n - 1) % 2 == 1)]);
        assert_eq!(s.solve(), SatResult::Unsat, "n={n} forced parity break");
    }
}
