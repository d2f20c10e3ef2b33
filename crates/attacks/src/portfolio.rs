//! Portfolio SAT solving: race diversified CDCL configurations on one
//! formula, first definitive answer wins.
//!
//! Modern SAT practice cuts the long tail of hard instances not by a
//! better single heuristic but by running several differently-tuned
//! solvers at once — restart cadence, activity decay, and initial
//! polarity interact chaotically with instance structure, so *some*
//! configuration usually finishes far earlier than the median. The
//! [`PortfolioEngine`] packages that as a drop-in [`SatEngine`]: it
//! maintains N clause-identical [`Solver`] members built from
//! [`diversified_configs`], answers every `solve_with` call by racing
//! the members over [`alice_par::race`] (losers observe the shared
//! [`CancelToken`] inside their CDCL loop and stop within one
//! propagation round), and serves model reads from the winner.
//!
//! Soundness: every member solves the *same* formula, and every
//! [`SolverConfig`] knob steers only heuristics, so any definitive
//! verdict is correct no matter which member produced it — racing never
//! changes SAT/UNSAT answers, only wall-clock and witnesses.
//! [`SatResult::Unknown`] is returned only when *every* member exhausted
//! its conflict budget, preserving budget-exhaustion semantics.

use crate::engine::{CancelToken, EngineStats, SatEngine};
use crate::solver::{Lit, SatResult, Solver, SolverConfig, Var};
use alice_intern::Symbol;
use alice_par::race;
use std::sync::Mutex;

/// Produces `n` heuristic configurations for a portfolio race.
///
/// Config 0 is always [`SolverConfig::default`] — the historical
/// single-solver behavior is a member of every portfolio, so a race can
/// only add alternatives, never lose the baseline trajectory. Later
/// configs cycle through aggressive/conservative VSIDS decay, short/long
/// Luby restart bases, inverted initial polarity, and distinct activity
/// perturbation seeds.
pub fn diversified_configs(n: usize) -> Vec<SolverConfig> {
    const DECAY: [f64; 4] = [0.90, 0.975, 0.85, 0.999];
    const RESTART: [u64; 4] = [100, 256, 32, 512];
    (0..n.max(1))
        .map(|i| {
            if i == 0 {
                SolverConfig::default()
            } else {
                let k = (i - 1) % 4;
                SolverConfig {
                    var_decay: DECAY[k],
                    restart_base: RESTART[k],
                    invert_phase: i % 2 == 1,
                    seed: 0xA11C_E000_0000_0000 | i as u64,
                }
            }
        })
        .collect()
}

/// Per-run statistics of a portfolio engine: how often each config won
/// and how much search effort the winners spent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortfolioStats {
    /// Number of racing configurations.
    pub configs: usize,
    /// Definitive answers produced per config index.
    pub wins: Vec<u64>,
    /// Conflicts spent by winning members on their winning calls.
    pub conflicts: u64,
    /// Clauses learned by winning members on their winning calls.
    pub learned: u64,
}

impl PortfolioStats {
    /// Win counts as a compact `w0/w1/…` string for table cells.
    pub fn wins_summary(&self) -> String {
        self.wins
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join("/")
    }
}

/// A [`SatEngine`] racing N diversified CDCL members (see module docs).
pub struct PortfolioEngine {
    members: Vec<Mutex<Solver>>,
    wins: Vec<u64>,
    /// Member whose model the last `Sat` answer is served from.
    last_winner: usize,
    stats: EngineStats,
    budget: Option<u64>,
    cancel: Option<CancelToken>,
}

impl PortfolioEngine {
    /// A portfolio of `n` members over [`diversified_configs`] (`n` is
    /// clamped to at least 1; config 0 is the historical default).
    pub fn new(n: usize) -> Self {
        Self::with_configs(diversified_configs(n))
    }

    /// A portfolio over explicit configurations.
    pub fn with_configs(configs: Vec<SolverConfig>) -> Self {
        let members: Vec<Mutex<Solver>> = configs
            .into_iter()
            .map(|c| Mutex::new(Solver::with_config(c)))
            .collect();
        let n = members.len().max(1);
        PortfolioEngine {
            members,
            wins: vec![0; n],
            last_winner: 0,
            stats: EngineStats::default(),
            budget: None,
            cancel: None,
        }
    }

    /// Number of racing members.
    pub fn configs(&self) -> usize {
        self.members.len()
    }

    /// Statistics snapshot: per-config win counts plus winner effort.
    pub fn portfolio_stats(&self) -> PortfolioStats {
        PortfolioStats {
            configs: self.members.len(),
            wins: self.wins.clone(),
            conflicts: self.stats.conflicts,
            learned: self.stats.learned,
        }
    }

    fn member_stats(&self, i: usize) -> EngineStats {
        self.members[i].lock().expect("member poisoned").stats()
    }

    /// Folds the winning member's effort delta into the engine-level
    /// stats (winner-only attribution, field by field).
    fn credit(&mut self, after: EngineStats, before: EngineStats) {
        self.stats.conflicts += after.conflicts - before.conflicts;
        self.stats.learned += after.learned - before.learned;
        self.stats.propagations += after.propagations - before.propagations;
        self.stats.restarts += after.restarts - before.restarts;
        self.stats.assumption_solves += after.assumption_solves - before.assumption_solves;
        self.stats.learned_kept += after.learned_kept - before.learned_kept;
        self.stats.learned_dropped += after.learned_dropped - before.learned_dropped;
    }
}

impl SatEngine for PortfolioEngine {
    fn new_var(&mut self) -> Var {
        // Every member MUST allocate (an iterator would be dangerously
        // lazy here): clause replication relies on identical numbering.
        let mut v: Option<Var> = None;
        for m in &mut self.members {
            let w = m.get_mut().expect("member poisoned").new_var();
            debug_assert!(v.is_none_or(|p| p == w), "members diverged on variables");
            v = Some(w);
        }
        v.expect("at least one member")
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        for m in &mut self.members {
            m.get_mut().expect("member poisoned").add_clause(lits);
        }
    }

    fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return SatResult::Unknown;
            }
        }
        let n = self.members.len();
        for m in &mut self.members {
            m.get_mut().expect("member poisoned").conflict_budget = self.budget;
        }
        if n == 1 {
            // Degenerate portfolio: solve inline, no race overhead.
            let before = self.member_stats(0);
            let r = self.members[0]
                .get_mut()
                .expect("member poisoned")
                .solve_with(assumptions);
            let after = self.member_stats(0);
            if r != SatResult::Unknown {
                self.wins[0] += 1;
                self.credit(after, before);
            }
            self.last_winner = 0;
            return r;
        }
        let before: Vec<EngineStats> = (0..n).map(|i| self.member_stats(i)).collect();
        let members = &self.members;
        let won = race(n, n, |i, token| {
            let mut m = members[i].lock().expect("member poisoned");
            m.set_cancel(Some(token.clone()));
            let r = m.solve_with(assumptions);
            m.set_cancel(None);
            // Unknown means cancelled or budget-exhausted: not an answer.
            (r != SatResult::Unknown).then_some(r)
        });
        match won {
            Some((i, r)) => {
                let after = self.member_stats(i);
                self.wins[i] += 1;
                self.credit(after, before[i]);
                self.last_winner = i;
                r
            }
            // Every member exhausted its budget (or the race was
            // cancelled from outside): budget-exhaustion propagates.
            None => SatResult::Unknown,
        }
    }

    fn reset_to_root(&mut self) {
        // Coherent member reset between assumption solves: EVERY member
        // unwinds to decision level 0 (not just the last winner), so
        // the next race starts all racers from an equivalent root state
        // — a loser cancelled mid-search already unwound itself, and
        // this makes that guarantee unconditional. Between resets each
        // member keeps its own assumption prefix on its trail and
        // reuses the part the next race's assumptions share with it.
        for m in &mut self.members {
            m.get_mut().expect("member poisoned").reset_to_root();
        }
    }

    fn value(&self, v: Var) -> Option<bool> {
        self.members[self.last_winner]
            .lock()
            .expect("member poisoned")
            .value(v)
    }

    fn num_vars(&self) -> usize {
        self.members[0].lock().expect("member poisoned").num_vars()
    }

    fn num_clauses(&self) -> usize {
        // Learned clauses differ per member; report the winner's view.
        self.members[self.last_winner]
            .lock()
            .expect("member poisoned")
            .num_clauses()
    }

    fn budget(&self) -> Option<u64> {
        self.budget
    }

    fn set_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        // Checked on entry to each solve call; a race in flight finishes
        // its current answer before the outer cancellation is observed.
        self.cancel = cancel;
    }

    fn label(&mut self, v: Var, name: Symbol) {
        for m in &mut self.members {
            m.get_mut().expect("member poisoned").label(v, name);
        }
    }

    fn name_of(&self, v: Var) -> Option<Symbol> {
        self.members[0].lock().expect("member poisoned").name_of(v)
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pigeonhole(s: &mut dyn SatEngine, pigeons: usize, holes: usize) -> Vec<Vec<Var>> {
        let p: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(&row.iter().map(|&v| Lit::pos(v)).collect::<Vec<_>>());
        }
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                for (&x, &y) in p[i1].iter().zip(&p[i2]) {
                    s.add_clause(&[Lit::neg(x), Lit::neg(y)]);
                }
            }
        }
        p
    }

    #[test]
    fn config_zero_is_always_the_default() {
        for n in 1..6 {
            assert_eq!(diversified_configs(n)[0], SolverConfig::default());
            assert_eq!(diversified_configs(n).len(), n);
        }
        // Later configs are pairwise distinct within a cycle.
        let c = diversified_configs(5);
        for i in 1..5 {
            for j in (i + 1)..5 {
                assert_ne!(c[i], c[j], "configs {i} and {j} coincide");
            }
        }
    }

    #[test]
    fn portfolio_agrees_with_brute_truth_on_pigeonhole() {
        let mut e = PortfolioEngine::new(3);
        pigeonhole(&mut e, 5, 4);
        assert_eq!(e.solve(), SatResult::Unsat);
        let mut e = PortfolioEngine::new(3);
        let p = pigeonhole(&mut e, 4, 4);
        assert_eq!(e.solve(), SatResult::Sat);
        // The winner's model is a real assignment: every pigeon placed.
        for row in &p {
            assert!(row.iter().any(|&v| e.value(v) == Some(true)));
        }
        let stats = e.portfolio_stats();
        assert_eq!(stats.configs, 3);
        assert_eq!(stats.wins.iter().sum::<u64>(), 1, "one definitive call");
        assert_eq!(stats.wins_summary().split('/').count(), 3);
    }

    #[test]
    fn incremental_assumptions_work_across_races() {
        let mut e = PortfolioEngine::new(4);
        let a = e.new_var();
        let b = e.new_var();
        e.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        e.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        assert_eq!(e.solve_with(&[Lit::neg(b)]), SatResult::Unsat);
        assert_eq!(e.solve_with(&[Lit::pos(a)]), SatResult::Sat);
        assert_eq!(e.value(b), Some(true));
        e.add_clause(&[Lit::neg(b)]);
        assert_eq!(e.solve(), SatResult::Unsat);
    }

    #[test]
    fn coherent_reset_between_assumption_solves() {
        // A long run of alternating assumption solves with explicit
        // resets: every answer must stay correct, and the engine-level
        // stats must see the incremental calls.
        let mut e = PortfolioEngine::new(3);
        let sel = e.new_var();
        let p = pigeonhole_relaxed(&mut e, sel, 4, 3);
        for _ in 0..3 {
            assert_eq!(e.solve_with(&[Lit::pos(sel)]), SatResult::Unsat);
            e.reset_to_root();
            assert_eq!(e.solve_with(&[Lit::neg(sel)]), SatResult::Sat);
            // The winner's model is readable before the reset (sel may
            // be a root implication by now — the formula entails !sel —
            // but the pigeon variables are genuine search assignments)…
            assert_eq!(e.value(sel), Some(false));
            assert!(p.iter().flatten().all(|&v| e.value(v).is_some()));
            e.reset_to_root();
            // …and gone after it (coherently across members): no pigeon
            // placement is implied by the formula alone.
            assert!(p.iter().flatten().all(|&v| e.value(v).is_none()));
        }
        let stats = e.stats();
        assert_eq!(stats.assumption_solves, 6, "winner-attributed calls");
    }

    fn pigeonhole_relaxed(
        s: &mut dyn SatEngine,
        sel: Var,
        pigeons: usize,
        holes: usize,
    ) -> Vec<Vec<Var>> {
        let p: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let mut c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            c.push(Lit::neg(sel));
            s.add_clause(&c);
        }
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                for (&x, &y) in p[i1].iter().zip(&p[i2]) {
                    s.add_clause(&[Lit::neg(x), Lit::neg(y)]);
                }
            }
        }
        p
    }

    #[test]
    fn unknown_only_when_every_member_exhausts() {
        // conflict_budget = 0 forces Unknown on any instance that needs
        // even one conflict — every member exhausts, Unknown propagates.
        let mut e = PortfolioEngine::new(3);
        pigeonhole(&mut e, 5, 4);
        e.set_budget(Some(0));
        assert_eq!(e.solve(), SatResult::Unknown);
        // Restoring the budget restores the verdict.
        e.set_budget(None);
        assert_eq!(e.solve(), SatResult::Unsat);
    }

    #[test]
    fn labels_replicate_to_the_winning_member() {
        let mut e = PortfolioEngine::new(2);
        let a = e.new_named_var(Symbol::intern("k[0]"));
        e.add_clause(&[Lit::pos(a)]);
        assert_eq!(e.solve(), SatResult::Sat);
        assert_eq!(e.name_of(a), Some(Symbol::intern("k[0]")));
        assert_eq!(e.value(a), Some(true));
    }
}
