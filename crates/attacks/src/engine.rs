//! The pluggable SAT boundary: every SAT consumer in the flow (CEC
//! miters and sweeping, the verify stage's wrong-key corruption sweep,
//! the oracle-guided attack harness) talks to a [`SatEngine`] instead of
//! a concrete solver, so a single-threaded CDCL search and a racing
//! portfolio are interchangeable behind one interface.
//!
//! The contract mirrors the incremental MiniSat interface the in-tree
//! solver already exposes: variables and clauses accumulate, verdicts
//! are queried under assumptions, models are read back per variable, and
//! a conflict budget turns "too expensive" into [`SatResult::Unknown`]
//! rather than an answer. Two additions make portfolios possible:
//!
//! * [`SatEngine::set_cancel`] installs a shared [`CancelToken`] that
//!   the CDCL search polls every propagation round, so a losing racer
//!   stops well within one restart of the winner finishing, and
//! * [`SatEngine::stats`] reports the conflicts/learned-clause totals
//!   *attributable to returned answers* — for a portfolio, the winners'
//!   work, not the sum of every racer's discarded effort.

use crate::solver::{Lit, SatResult, Solver, Var};
use alice_intern::Symbol;
pub use alice_par::CancelToken;

/// Cumulative search-effort statistics of a [`SatEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Conflicts attributable to returned answers.
    pub conflicts: u64,
    /// Learned clauses (including learned units) attributable to
    /// returned answers.
    pub learned: u64,
    /// Literals dequeued by unit propagation, attributable to returned
    /// answers.
    pub propagations: u64,
    /// Luby restarts attributable to returned answers.
    pub restarts: u64,
    /// `solve_with` calls that carried a non-empty assumption set — the
    /// incremental queries of the keyed-miter CEC path.
    pub assumption_solves: u64,
    /// Learned clauses surviving clause-database reductions, summed
    /// over every reduction pass.
    pub learned_kept: u64,
    /// Learned clauses dropped by clause-database reductions.
    pub learned_dropped: u64,
}

/// The pluggable incremental SAT interface (see the module docs).
///
/// # The incremental contract
///
/// Implementations must keep the incremental contract of [`Solver`],
/// which every consumer of assumption-parameterized solving (the keyed
/// CEC miter, the SAT-sweeper, the attack's lex-min key extraction)
/// relies on:
///
/// * **Clauses persist.** Variables and clauses accumulate across
///   calls; nothing added is ever semantically retracted. Learned
///   clauses may be *dropped* by database reduction, but only ones the
///   formula implies — verdicts and models are unaffected.
/// * **Assumptions are temporary.** `solve_with(assumptions)` answers
///   for the formula *conjoined with* the assumption literals;
///   [`SatResult::Unsat`] under assumptions leaves the formula usable
///   and later calls with different assumptions may be `Sat`. A
///   `solve_with(&[lits...])` call must return exactly the verdict that
///   adding each literal as a unit clause would have produced.
/// * **Heuristic state transfers.** Saved phases, variable activities,
///   and retained learned clauses carry over between calls, so a
///   sequence of related queries (the same miter under N different key
///   assumptions) amortizes search effort instead of restarting cold.
/// * **Models are transient.** A model stays readable until the next
///   mutation or solve; after `Unsat` or `Unknown` the values
///   [`SatEngine::value`] reports are unspecified. A call may leave its
///   assumption prefix on the trail, and the next call keeps the
///   longest prefix it shares with the previous assumptions instead of
///   propagating it again — so `key ++ [point_i]` sequences pay for
///   `key` once. [`SatEngine::reset_to_root`] explicitly unwinds the
///   search to decision level 0 once the caller is done with such a
///   run. For multi-member engines the reset is *coherent*: every
///   member returns to level 0, so the next assumption solve starts
///   every racer from an equivalent root state.
pub trait SatEngine {
    /// Allocates a fresh variable.
    fn new_var(&mut self) -> Var;

    /// Adds a clause over existing variables.
    fn add_clause(&mut self, lits: &[Lit]);

    /// Solves the current formula.
    fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under temporary `assumptions` (see the trait docs for the
    /// incremental contract this must uphold).
    fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult;

    /// Unwinds the search to decision level 0, invalidating any model
    /// but keeping the formula, learned clauses, and heuristic state.
    /// Multi-member engines reset every member, so the next assumption
    /// solve starts coherently from the root.
    fn reset_to_root(&mut self);

    /// Model value of `v` after a [`SatResult::Sat`] answer.
    fn value(&self, v: Var) -> Option<bool>;

    /// Number of variables.
    fn num_vars(&self) -> usize;

    /// Number of clauses (original + learned).
    fn num_clauses(&self) -> usize;

    /// The conflict budget applied to each solve call.
    fn budget(&self) -> Option<u64>;

    /// Sets the per-call conflict budget (`None` = unlimited).
    fn set_budget(&mut self, budget: Option<u64>);

    /// Installs (or clears) a cooperative cancellation token.
    fn set_cancel(&mut self, cancel: Option<CancelToken>);

    /// Attaches a diagnostic label to `v` (never affects solving).
    fn label(&mut self, v: Var, name: Symbol);

    /// The label of `v`, if any.
    fn name_of(&self, v: Var) -> Option<Symbol>;

    /// Search-effort totals attributable to returned answers.
    fn stats(&self) -> EngineStats;

    /// Allocates a fresh labeled variable.
    fn new_named_var(&mut self, name: Symbol) -> Var {
        let v = self.new_var();
        self.label(v, name);
        v
    }
}

impl SatEngine for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        Solver::add_clause(self, lits)
    }

    fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        Solver::solve_with(self, assumptions)
    }

    fn reset_to_root(&mut self) {
        Solver::reset_to_root(self)
    }

    fn value(&self, v: Var) -> Option<bool> {
        Solver::value(self, v)
    }

    fn num_vars(&self) -> usize {
        Solver::num_vars(self)
    }

    fn num_clauses(&self) -> usize {
        Solver::num_clauses(self)
    }

    fn budget(&self) -> Option<u64> {
        self.conflict_budget
    }

    fn set_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        Solver::set_cancel(self, cancel)
    }

    fn label(&mut self, v: Var, name: Symbol) {
        Solver::label(self, v, name)
    }

    fn name_of(&self, v: Var) -> Option<Symbol> {
        Solver::name_of(self, v)
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            conflicts: self.total_conflicts,
            learned: self.total_learned,
            propagations: self.total_propagations,
            restarts: self.total_restarts,
            assumption_solves: self.total_assumption_solves,
            learned_kept: self.total_learned_kept,
            learned_dropped: self.total_learned_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_implements_the_engine_boundary() {
        let mut s: Box<dyn SatEngine> = Box::new(Solver::new());
        let a = s.new_named_var(Symbol::intern("a"));
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(s.name_of(a), Some(Symbol::intern("a")));
        assert_eq!(s.solve_with(&[Lit::neg(b)]), SatResult::Unsat);
        assert!(s.stats().conflicts <= s.stats().learned + s.stats().conflicts);
        assert_eq!(s.budget(), None);
        s.set_budget(Some(5));
        assert_eq!(s.budget(), Some(5));
        assert!(s.num_vars() >= 2 && s.num_clauses() >= 1);
    }
}
