//! A CDCL SAT solver built from scratch for the attack harness.
//!
//! Implements the standard architecture: two-watched-literal propagation
//! with blocker literals (each watch entry carries one literal of its
//! clause; a true blocker proves the clause satisfied without touching
//! clause memory) over a flat clause arena, first-UIP conflict analysis
//! with clause learning, VSIDS variable activities on an indexed order
//! heap, phase saving, Luby restarts, and incremental solving under
//! assumptions ([`Solver::solve_with`]).
//!
//! Incremental calls reuse the assignment trail: a call may return with
//! its assumption prefix still assigned (one decision level per
//! assumption), and the next call keeps the longest prefix it shares
//! with the previous assumptions instead of unwinding to the root and
//! re-propagating it. A CEC miter queried under one bitstream key plus
//! one difference point at a time thus propagates the key once, not
//! once per point.
//!
//! The learned-clause database is actively managed for long-lived
//! incremental use (hundreds of assumption solves against one formula,
//! as in the keyed-miter CEC path): every learned clause is tagged with
//! its literal-block distance (LBD, "glue") at learn time and carries a
//! MiniSat-style clause activity bumped whenever conflict analysis
//! traverses it; when the live learned count outgrows a growing limit,
//! a reduction pass at a restart point drops the coldest half of the
//! *deletable* clauses — originals, glue ≤ 2 clauses, and clauses
//! locked as the reason of a current implication are never dropped —
//! and compacts the arena (watches and reason references are rebuilt
//! against the new offsets). Saved phases, variable activities, and the surviving
//! learned clauses all persist across [`Solver::solve_with`] calls, so
//! later queries on the same formula start warm.

use alice_intern::{splitmix64, Symbol};
use alice_par::CancelToken;
use std::collections::HashMap;
use std::fmt;

static SAT_CONFLICTS: alice_obs::Counter = alice_obs::Counter::new(
    "alice_sat_conflicts_total",
    "CDCL conflicts across all solver instances (including discarded racers)",
);
static SAT_LEARNED: alice_obs::Counter = alice_obs::Counter::new(
    "alice_sat_learned_total",
    "Learned clauses across all solver instances (including discarded racers)",
);
static SAT_PROPAGATIONS: alice_obs::Counter = alice_obs::Counter::new(
    "alice_sat_propagations_total",
    "Unit-propagation literal dequeues across all solver instances",
);
static SAT_RESTARTS: alice_obs::Counter = alice_obs::Counter::new(
    "alice_solver_restarts",
    "Luby restarts across all solver instances",
);
static SAT_ASSUMPTION_SOLVES: alice_obs::Counter = alice_obs::Counter::new(
    "alice_solver_assumption_solves",
    "Incremental solve_with calls carrying a non-empty assumption set",
);
static SAT_LEARNED_KEPT: alice_obs::Counter = alice_obs::Counter::new(
    "alice_solver_learned_kept",
    "Learned clauses surviving clause-database reductions (cumulative over reductions)",
);
static SAT_LEARNED_DROPPED: alice_obs::Counter = alice_obs::Counter::new(
    "alice_solver_learned_dropped",
    "Learned clauses dropped by clause-database reductions",
);

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: a variable with a sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// Builds a literal with an explicit sign (`true` = negated).
    pub fn new(v: Var, negated: bool) -> Lit {
        Lit(v.0 << 1 | negated as u32)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complement literal.
    #[must_use]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            if self.is_neg() { "-" } else { "" },
            self.var().0
        )
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable; read the model with [`Solver::value`].
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// Conflict/decision budget exhausted.
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Assign {
    Unassigned,
    True,
    False,
}

/// Search-heuristic knobs for portfolio diversification.
///
/// The default value reproduces the solver's historical behavior bit for
/// bit — `Solver::new()` and `Solver::with_config(SolverConfig::default())`
/// take identical search trajectories. Every field only steers
/// *heuristics* (decision order, restart cadence, initial polarity);
/// verdicts and models stay sound for any setting, which is what makes
/// racing differently-configured solvers on one formula correct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// VSIDS activity decay per conflict (MiniSat's `var-decay`).
    pub var_decay: f64,
    /// Base interval of the Luby restart sequence, in conflicts.
    pub restart_base: u64,
    /// Initial saved phase for fresh variables (`false` = historical
    /// negative-polarity-first behavior).
    pub invert_phase: bool,
    /// Seed for a tiny deterministic perturbation of initial variable
    /// activities, breaking decision-order ties differently per config.
    /// `0` disables the perturbation entirely.
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            var_decay: 0.95,
            restart_base: 64,
            invert_phase: false,
            seed: 0,
        }
    }
}

/// Indexed max-heap over variable activities (MiniSat's `order_heap`),
/// so picking the next decision variable is O(log n) instead of a linear
/// scan — the difference between seconds and hours on CEC miters with
/// tens of thousands of variables.
#[derive(Debug, Default)]
struct OrderHeap {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `NONE`.
    pos: Vec<u32>,
}

const NONE: u32 = u32::MAX;

impl OrderHeap {
    fn grow(&mut self) {
        self.pos.push(NONE);
    }

    fn in_heap(&self, v: u32) -> bool {
        self.pos[v as usize] != NONE
    }

    fn percolate_up(&mut self, activity: &[f64], mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let p = (i - 1) >> 1;
            if activity[self.heap[p] as usize] >= activity[v as usize] {
                break;
            }
            self.heap[i] = self.heap[p];
            self.pos[self.heap[i] as usize] = i as u32;
            i = p;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn percolate_down(&mut self, activity: &[f64], mut i: usize) {
        let v = self.heap[i];
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let c = if r < self.heap.len()
                && activity[self.heap[r] as usize] > activity[self.heap[l] as usize]
            {
                r
            } else {
                l
            };
            if activity[self.heap[c] as usize] <= activity[v as usize] {
                break;
            }
            self.heap[i] = self.heap[c];
            self.pos[self.heap[i] as usize] = i as u32;
            i = c;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn insert(&mut self, activity: &[f64], v: u32) {
        if self.in_heap(v) {
            return;
        }
        self.heap.push(v);
        self.percolate_up(activity, self.heap.len() - 1);
    }

    fn bumped(&mut self, activity: &[f64], v: u32) {
        let p = self.pos[v as usize];
        if p != NONE {
            self.percolate_up(activity, p as usize);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = NONE;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.percolate_down(activity, 0);
        }
        Some(top)
    }
}

/// Per-clause bookkeeping for database reduction, indexed by clause id
/// (the clause's ordinal in the database).
#[derive(Debug, Clone, Copy)]
struct ClauseInfo {
    /// Where the clause lives in `Solver::arena`.
    cref: CRef,
    /// Learned (deletable) vs original (permanent).
    learned: bool,
    /// Literal-block distance at learn time: the number of distinct
    /// decision levels among the clause's literals. Low-LBD ("glue")
    /// clauses connect few levels and are empirically the ones worth
    /// keeping forever; `lbd <= 2` exempts a clause from reduction.
    lbd: u32,
    /// Clause activity: bumped when conflict analysis traverses the
    /// clause, decayed once per conflict. Reduction drops the coldest
    /// deletable half.
    act: f64,
}

/// A clause reference: the offset of the clause's header in
/// `Solver::arena`. Every clause is stored there as two header words —
/// its literal count, then its clause id — followed by its literals
/// (header words reuse the `Lit` representation), so a watch or reason
/// reaches the literals with one memory access and no per-clause
/// allocation.
type CRef = u32;

/// Header words in front of each clause's literals in the arena.
const HEADER: usize = 2;

/// A watch-list entry: the watching clause plus a *blocker* literal
/// from it (MiniSat 2.2 style). A true blocker means the clause is
/// satisfied, so propagation skips it without reading the clause. Eight
/// bytes, like a bare clause index.
#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: CRef,
    blocker: Lit,
}

/// Reductions start once this many learned clauses are live (the limit
/// then grows ~10% per reduction, MiniSat-style).
const REDUCE_BASE: u64 = 2_000;

/// Clause-activity decay per conflict (MiniSat's `clause-decay`).
const CLAUSE_DECAY: f64 = 0.999;

/// The CDCL solver.
///
/// # Example
///
/// ```
/// use alice_attacks::solver::{Lit, SatResult, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(&[Lit::neg(a)]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    /// Every clause of length >= 2, back to back (see [`CRef`]).
    arena: Vec<Lit>,
    /// Reduction metadata, indexed by clause id.
    clause_info: Vec<ClauseInfo>,
    /// Clause-activity bump amount (grows as `cla_inc / CLAUSE_DECAY`
    /// per conflict, rescaled with the activities on overflow).
    cla_inc: f64,
    /// Original (non-learned) clauses of length >= 2 ever added.
    originals: u64,
    /// Learned clauses of length >= 2 currently in the database.
    learned_live: u64,
    /// Live learned count that triggers the next reduction; `0` = not
    /// yet derived from the instance size.
    reduce_limit: u64,
    /// Per literal: the clauses watching it.
    watches: Vec<Vec<Watch>>,
    /// Per literal (indexed by `Lit::index`): its current value, so
    /// reading a literal is one load with no sign arithmetic.
    vals: Vec<Assign>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<CRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    act_inc: f64,
    order: OrderHeap,
    /// Conflict-analysis marks, all `false` between calls.
    seen: Vec<bool>,
    /// Assumptions of the previous solve: decision levels
    /// `1..=trail_lim.len()` still hold a prefix of them.
    prev_assumptions: Vec<Lit>,
    unsat: bool,
    /// Conflict budget for [`Solver::solve`]; `None` = unlimited.
    pub conflict_budget: Option<u64>,
    conflicts: u64,
    /// Total conflicts over the solver's lifetime (statistics).
    pub total_conflicts: u64,
    /// Total learned clauses (including learned units) over the solver's
    /// lifetime (statistics).
    pub total_learned: u64,
    /// Total literals dequeued by unit propagation over the solver's
    /// lifetime (statistics).
    pub total_propagations: u64,
    /// Total Luby restarts over the solver's lifetime (statistics).
    pub total_restarts: u64,
    /// Total [`Solver::solve_with`] calls carrying a non-empty
    /// assumption set (statistics).
    pub total_assumption_solves: u64,
    /// Learned clauses surviving clause-database reductions, summed
    /// over every reduction pass (statistics).
    pub total_learned_kept: u64,
    /// Learned clauses dropped by clause-database reductions
    /// (statistics).
    pub total_learned_dropped: u64,
    /// Heuristic configuration (see [`SolverConfig`]).
    config: SolverConfig,
    /// Cooperative cancellation for portfolio racing: polled once per
    /// search-loop iteration, so a losing solver stops within one
    /// propagation round — well under one restart.
    cancel: Option<CancelToken>,
    /// Diagnostic labels: problem-level names (interned port, register,
    /// or key-bit names) attached to CNF variables. Sparse — only the
    /// variables an encoder chooses to label carry one.
    names: HashMap<u32, Symbol>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            act_inc: 1.0,
            cla_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Creates an empty solver with diversified heuristics; the default
    /// config reproduces [`Solver::new`] exactly.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            act_inc: 1.0,
            cla_inc: 1.0,
            config,
            ..Solver::default()
        }
    }

    /// Installs (or clears) the shared cancellation token. A cancelled
    /// solve returns [`SatResult::Unknown`] with the solver state intact.
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.phase.len() as u32);
        self.vals.push(Assign::Unassigned);
        self.vals.push(Assign::Unassigned);
        self.phase.push(self.config.invert_phase);
        self.level.push(0);
        self.reason.push(None);
        self.seen.push(false);
        // A seeded config perturbs initial activities by strictly less
        // than one bump, so it only permutes otherwise-tied decisions.
        self.activity.push(if self.config.seed == 0 {
            0.0
        } else {
            let mut x = self.config.seed ^ (u64::from(v.0) << 17);
            splitmix64(&mut x) as f64 / u64::MAX as f64 * 1e-3
        });
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow();
        self.order.insert(&self.activity, v.0);
        v
    }

    /// Allocates a fresh variable carrying a diagnostic label (see
    /// [`Solver::label`]).
    pub fn new_named_var(&mut self, name: Symbol) -> Var {
        let v = self.new_var();
        self.label(v, name);
        v
    }

    /// Attaches (or replaces) a problem-level name on `v` — the interned
    /// port, register, or key-bit identity the variable encodes. Labels
    /// never affect solving; they make models and DIPs readable.
    pub fn label(&mut self, v: Var, name: Symbol) {
        self.names.insert(v.0, name);
    }

    /// The label of `v`, if one was attached.
    pub fn name_of(&self, v: Var) -> Option<Symbol> {
        self.names.get(&v.0).copied()
    }

    /// The model restricted to labeled variables, as `(name, value)`
    /// pairs in variable order — a readable satisfying assignment after
    /// [`Solver::solve`] returns [`SatResult::Sat`].
    pub fn named_model(&self) -> Vec<(Symbol, bool)> {
        let mut out: Vec<(u32, Symbol, bool)> = self
            .names
            .iter()
            .filter_map(|(&v, &name)| self.value(Var(v)).map(|b| (v, name, b)))
            .collect();
        out.sort_unstable_by_key(|&(v, _, _)| v);
        out.into_iter().map(|(_, name, b)| (name, b)).collect()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.phase.len()
    }

    /// Number of clauses (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clause_info.len()
    }

    /// Adds a clause. An empty clause makes the instance trivially UNSAT.
    ///
    /// Adding a clause resets the search to decision level 0, so any model
    /// from a previous [`Solver::solve`] call must be read *before* adding.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        if self.unsat {
            return;
        }
        self.cancel_until(0);
        // Deduplicate and check for tautology.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort();
        c.dedup();
        if c.windows(2).any(|w| w[0] == w[1].negate()) {
            return; // tautology
        }
        // Must be at decision level 0 here.
        debug_assert!(self.trail_lim.is_empty());
        if c.iter().any(|l| self.lit_value(*l) == Assign::True) {
            return; // satisfied at level 0
        }
        c.retain(|l| self.lit_value(*l) != Assign::False);
        match c.len() {
            0 => self.unsat = true,
            1 => {
                if self.lit_value(c[0]) == Assign::False {
                    self.unsat = true;
                } else if self.lit_value(c[0]) == Assign::Unassigned {
                    self.enqueue(c[0], None);
                    if self.propagate().is_some() {
                        self.unsat = true;
                    }
                }
            }
            _ => {
                self.push_clause(&c, false, 0, 0.0);
                self.originals += 1;
            }
        }
    }

    /// Unwinds the search to decision level 0, keeping every assignment
    /// implied by the formula itself. Models from a previous `Sat`
    /// answer become unreadable; learned clauses, saved phases, and
    /// variable activities survive. Incremental drivers call this once
    /// they are done with a run of queries sharing an assumption prefix
    /// (the next [`Solver::solve_with`] then starts from the root).
    pub fn reset_to_root(&mut self) {
        self.cancel_until(0);
    }

    fn lit_value(&self, l: Lit) -> Assign {
        self.vals[l.index()]
    }

    /// The literals of clause `cr`.
    fn lits(&self, cr: CRef) -> &[Lit] {
        let start = cr as usize + HEADER;
        &self.arena[start..start + self.arena[cr as usize].0 as usize]
    }

    /// The clause id of `cr` (its index into `clause_info`).
    fn clause_id(&self, cr: CRef) -> usize {
        self.arena[cr as usize + 1].0 as usize
    }

    /// Appends a clause of length >= 2 to the arena and watches it.
    fn push_clause(&mut self, lits: &[Lit], learned: bool, lbd: u32, act: f64) -> CRef {
        let cref = CRef::try_from(self.arena.len()).expect("clause arena within u32 offsets");
        self.arena.push(Lit(lits.len() as u32));
        self.arena.push(Lit(self.clause_info.len() as u32));
        self.arena.extend_from_slice(lits);
        self.clause_info.push(ClauseInfo {
            cref,
            learned,
            lbd,
            act,
        });
        self.watch(cref);
        cref
    }

    /// Watches the first two literals of clause `cref`; each watch
    /// blocks on the other watched literal.
    fn watch(&mut self, cref: CRef) {
        let (c0, c1) = (self.lits(cref)[0], self.lits(cref)[1]);
        self.watches[c0.index()].push(Watch { cref, blocker: c1 });
        self.watches[c1.index()].push(Watch { cref, blocker: c0 });
    }

    fn enqueue(&mut self, l: Lit, reason: Option<CRef>) {
        let v = l.var().0 as usize;
        self.vals[l.index()] = Assign::True;
        self.vals[l.negate().index()] = Assign::False;
        self.phase[v] = !l.is_neg();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<CRef> {
        while self.qhead < self.trail.len() {
            let l = self.trail[self.qhead];
            self.qhead += 1;
            self.total_propagations += 1;
            let falsified = l.negate();
            // Take the watch list to sidestep aliasing; kept entries are
            // compacted to the front (`j`) as we scan (`i`).
            let mut ws = std::mem::take(&mut self.watches[falsified.index()]);
            let (mut i, mut j) = (0, 0);
            let mut confl = None;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.vals[w.blocker.index()] == Assign::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let start = w.cref as usize + HEADER;
                let len = self.arena[w.cref as usize].0 as usize;
                let clause = &mut self.arena[start..start + len];
                // Keep the falsified watch at position 1.
                if clause[0] == falsified {
                    clause.swap(0, 1);
                }
                let first = clause[0];
                let kept = Watch {
                    cref: w.cref,
                    blocker: first,
                };
                if first != w.blocker && self.vals[first.index()] == Assign::True {
                    ws[j] = kept;
                    j += 1;
                    continue; // clause satisfied
                }
                // Find a new watch.
                if let Some(k) =
                    (2..clause.len()).find(|&k| self.vals[clause[k].index()] != Assign::False)
                {
                    clause.swap(1, k);
                    self.watches[clause[1].index()].push(kept);
                    continue;
                }
                // Clause is unit or conflicting.
                ws[j] = kept;
                j += 1;
                if self.vals[first.index()] == Assign::False {
                    // Conflict: keep the unscanned watches.
                    ws.copy_within(i.., j);
                    j += ws.len() - i;
                    confl = Some(w.cref);
                    break;
                }
                self.enqueue(first, Some(w.cref));
            }
            ws.truncate(j);
            self.watches[falsified.index()] = ws;
            if confl.is_some() {
                return confl;
            }
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v.0 as usize] += self.act_inc;
        if self.activity[v.0 as usize] > 1e100 {
            // Uniform rescale preserves the heap order.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
        self.order.bumped(&self.activity, v.0);
    }

    /// Bumps a learned clause's activity (originals are permanent and
    /// carry none). Mirrors variable bumping, with the same uniform
    /// overflow rescale.
    fn bump_clause(&mut self, cr: CRef) {
        let ci = self.clause_id(cr);
        if !self.clause_info[ci].learned {
            return;
        }
        self.clause_info[ci].act += self.cla_inc;
        if self.clause_info[ci].act > 1e20 {
            for info in &mut self.clause_info {
                info.act *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis; returns (learned clause, backjump level).
    fn analyze(&mut self, mut confl: CRef) -> (Vec<Lit>, u32) {
        let cur_level = self.trail_lim.len() as u32;
        let mut learned: Vec<Lit> = vec![Lit(0)]; // slot 0 for the UIP
        let mut counter = 0u32;
        let mut trail_idx = self.trail.len();
        let mut p: Option<Lit> = None;
        loop {
            // Clauses that conflict analysis traverses are the ones
            // pulling their weight; their activity decides reduction.
            self.bump_clause(confl);
            // Skip clause[0] of reason clauses: it is the implied literal p.
            let start = if p.is_none() { 0 } else { 1 };
            for k in start..self.lits(confl).len() {
                let q = self.lits(confl)[k];
                let v = q.var().0 as usize;
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                self.seen[v] = true;
                self.bump(q.var());
                if self.level[v] >= cur_level {
                    counter += 1;
                } else {
                    learned.push(q);
                }
            }
            // Find the next seen literal on the trail.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var().0 as usize] {
                    break;
                }
            }
            let pl = self.trail[trail_idx];
            self.seen[pl.var().0 as usize] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            confl = self.reason[pl.var().0 as usize].expect("implied literal has a reason");
            p = Some(pl);
        }
        learned[0] = p.expect("found UIP").negate();
        // Every current-level mark was cleared as the trail walk consumed
        // it; the marks left are exactly the lower-level literals.
        for l in &learned[1..] {
            self.seen[l.var().0 as usize] = false;
        }
        // Backjump level = max level among the other literals; keep one
        // literal of that level at slot 1 so the watch pair stays valid
        // after the backjump.
        let mut bj = 0;
        let mut bj_idx = 0;
        for (i, l) in learned.iter().enumerate().skip(1) {
            let lv = self.level[l.var().0 as usize];
            if lv > bj {
                bj = lv;
                bj_idx = i;
            }
        }
        if bj_idx > 1 {
            learned.swap(1, bj_idx);
        }
        (learned, bj)
    }

    fn cancel_until(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().expect("non-empty");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("non-empty");
                let v = l.var().0 as usize;
                self.vals[l.index()] = Assign::Unassigned;
                self.vals[l.negate().index()] = Assign::Unassigned;
                self.reason[v] = None;
                self.order.insert(&self.activity, v as u32);
            }
        }
        self.qhead = self.trail.len();
    }

    /// Runs a clause-database reduction if the live learned count has
    /// outgrown the current limit. Called only at decision level 0 with
    /// propagation complete (restart points and solve entry), where the
    /// set of locked clauses is exactly the reasons of root implications.
    fn maybe_reduce(&mut self) {
        if self.reduce_limit == 0 {
            // First trigger scales with the instance: a third of the
            // original clause count, floored so tiny formulas never
            // churn their (useful) learned clauses.
            self.reduce_limit = REDUCE_BASE.max(self.originals / 3);
        }
        if self.learned_live > self.reduce_limit {
            self.reduce_db();
            // Grow ~10% per reduction so a genuinely hard instance is
            // allowed to retain more as the search deepens.
            self.reduce_limit += self.reduce_limit / 10;
        }
    }

    /// Drops the coldest half of the deletable learned clauses and
    /// compacts the database. Deletable = learned, glue (LBD) > 2, and
    /// not locked as the reason of a current implication; originals are
    /// permanent. Survivors are copied into a fresh arena in id order;
    /// watch lists and reason references are rebuilt against the new
    /// offsets — positions 0/1 of every clause are its watched literals
    /// by invariant, so re-watching them reproduces a valid watch state.
    fn reduce_db(&mut self) {
        debug_assert!(self.trail_lim.is_empty(), "reduce only at level 0");
        let n = self.clause_info.len();
        let mut locked = vec![false; n];
        for l in &self.trail {
            if let Some(cr) = self.reason[l.var().0 as usize] {
                locked[self.clause_id(cr)] = true;
            }
        }
        let mut cand: Vec<usize> = (0..n)
            .filter(|&ci| {
                let info = self.clause_info[ci];
                info.learned && info.lbd > 2 && !locked[ci]
            })
            .collect();
        // Coldest first; ties broken toward dropping higher glue, then
        // older clauses — fully deterministic.
        let info = &self.clause_info;
        cand.sort_unstable_by(|&a, &b| {
            info[a]
                .act
                .partial_cmp(&info[b].act)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(info[b].lbd.cmp(&info[a].lbd))
                .then(a.cmp(&b))
        });
        let ndrop = cand.len() / 2;
        if ndrop == 0 {
            return;
        }
        let mut drop_mask = vec![false; n];
        for &ci in &cand[..ndrop] {
            drop_mask[ci] = true;
        }
        // Copy the survivors into a fresh arena in id order, recording
        // each old clause id's new reference.
        let old_arena = std::mem::take(&mut self.arena);
        let old_info = std::mem::take(&mut self.clause_info);
        let mut moved: Vec<CRef> = vec![CRef::MAX; n];
        for wl in &mut self.watches {
            wl.clear();
        }
        for (ci, info) in old_info.into_iter().enumerate() {
            if drop_mask[ci] {
                continue;
            }
            let start = info.cref as usize + HEADER;
            let len = old_arena[info.cref as usize].0 as usize;
            moved[ci] = self.push_clause(
                &old_arena[start..start + len],
                info.learned,
                info.lbd,
                info.act,
            );
        }
        for r in self.reason.iter_mut().flatten() {
            *r = moved[old_arena[*r as usize + 1].0 as usize];
            debug_assert_ne!(*r, CRef::MAX, "locked clauses are kept");
        }
        self.learned_live -= ndrop as u64;
        self.total_learned_dropped += ndrop as u64;
        self.total_learned_kept += self.learned_live;
    }

    fn decide(&mut self) -> Option<Lit> {
        // Lazy deletion: assigned variables are dropped as they surface.
        while let Some(v) = self.order.pop(&self.activity) {
            if self.vals[Lit::pos(Var(v)).index()] == Assign::Unassigned {
                return Some(Lit::new(Var(v), !self.phase[v as usize]));
            }
        }
        None
    }

    /// Solves the current formula.
    ///
    /// Returns [`SatResult::Unknown`] when the conflict budget (if set) is
    /// exhausted — the attack harness uses this as its "resilient within
    /// budget" signal.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves the current formula under `assumptions` (incremental
    /// MiniSat-style interface).
    ///
    /// Each assumption literal is forced as a decision before the free
    /// search starts. [`SatResult::Unsat`] then means *unsatisfiable
    /// under these assumptions* — the formula itself stays usable and
    /// later calls with different assumptions may be SAT. This is what
    /// lets equivalence checking discharge thousands of per-output and
    /// per-candidate-pair queries against one shared clause database,
    /// reusing everything learned between queries.
    ///
    /// The call may return with its assumption prefix still on the
    /// trail, and the next call keeps the longest prefix it shares with
    /// these assumptions rather than unwinding to level 0 and
    /// propagating it again — a sequence like `key ++ [point_i]`
    /// propagates `key` once. After `Sat` the model stays readable
    /// until the next mutation or solve; after `Unsat` (or `Unknown`)
    /// the values [`Solver::value`] reports are unspecified.
    /// [`Solver::add_clause`], [`Solver::reset_to_root`], budget
    /// exhaustion, and cancellation unwind to level 0.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        if !assumptions.is_empty() {
            self.total_assumption_solves += 1;
            SAT_ASSUMPTION_SOLVES.inc();
        }
        let before = (
            self.total_conflicts,
            self.total_learned,
            self.total_propagations,
            self.total_restarts,
            self.total_learned_kept,
            self.total_learned_dropped,
        );
        let res = self.solve_with_inner(assumptions);
        // Process-wide effort mirror. Unlike `EngineStats` (winner-only
        // by contract), these count every solve that ran, including
        // discarded portfolio racers.
        SAT_CONFLICTS.add(self.total_conflicts - before.0);
        SAT_LEARNED.add(self.total_learned - before.1);
        SAT_PROPAGATIONS.add(self.total_propagations - before.2);
        SAT_RESTARTS.add(self.total_restarts - before.3);
        SAT_LEARNED_KEPT.add(self.total_learned_kept - before.4);
        SAT_LEARNED_DROPPED.add(self.total_learned_dropped - before.5);
        res
    }

    fn solve_with_inner(&mut self, assumptions: &[Lit]) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        // Trail reuse: decision level `i` holds the previous call's
        // assumption `i - 1`, so the levels of the longest common prefix
        // are still exactly what this call would rebuild.
        let keep = self
            .prev_assumptions
            .iter()
            .zip(assumptions)
            .take_while(|(a, b)| a == b)
            .count()
            .min(self.trail_lim.len());
        self.cancel_until(keep as u32);
        self.prev_assumptions.clear();
        self.prev_assumptions.extend_from_slice(assumptions);
        if keep == 0 {
            if self.propagate().is_some() {
                self.unsat = true;
                return SatResult::Unsat;
            }
            // Incremental entry point: a burst of cheap assumption
            // solves can accumulate clauses without ever restarting, so
            // the database check runs here too, not only at restart
            // points (and, like there, only at level 0).
            self.maybe_reduce();
        }
        self.conflicts = 0;
        let mut restart_idx = 0u64;
        let mut restart_limit = self.config.restart_base * luby(restart_idx);
        loop {
            // Cooperative cancellation (portfolio racing): one relaxed
            // atomic load per propagation round, losers stop well within
            // one restart. State is unwound so the solver stays usable.
            if let Some(cancel) = &self.cancel {
                if cancel.is_cancelled() {
                    self.cancel_until(0);
                    return SatResult::Unknown;
                }
            }
            match self.propagate() {
                Some(confl) => {
                    self.conflicts += 1;
                    self.total_conflicts += 1;
                    if let Some(budget) = self.conflict_budget {
                        if self.conflicts > budget {
                            self.cancel_until(0);
                            return SatResult::Unknown;
                        }
                    }
                    if self.trail_lim.is_empty() {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                    let (learned, bj) = self.analyze(confl);
                    // LBD while every learned literal is still assigned:
                    // the number of distinct decision levels it spans.
                    let lbd = {
                        let mut levels: Vec<u32> = learned
                            .iter()
                            .map(|l| self.level[l.var().0 as usize])
                            .collect();
                        levels.sort_unstable();
                        levels.dedup();
                        levels.len() as u32
                    };
                    self.cancel_until(bj);
                    self.total_learned += 1;
                    if learned.len() == 1 {
                        self.enqueue(learned[0], None);
                    } else {
                        let cref = self.push_clause(&learned, true, lbd, self.cla_inc);
                        self.learned_live += 1;
                        self.enqueue(learned[0], Some(cref));
                    }
                    self.act_inc /= self.config.var_decay;
                    self.cla_inc /= CLAUSE_DECAY;
                    if self.conflicts >= restart_limit {
                        restart_idx += 1;
                        restart_limit =
                            self.conflicts + self.config.restart_base * luby(restart_idx);
                        self.total_restarts += 1;
                        self.cancel_until(0);
                        self.maybe_reduce();
                    }
                }
                None => {
                    // Re-apply assumptions first: one decision level per
                    // literal (restarts and backjumps may have popped
                    // them). An already-false assumption is a conflict
                    // with what has been learned: UNSAT under
                    // assumptions, but not globally. The assumption
                    // levels below it stay on the trail for the next
                    // call to reuse.
                    let mut enqueued = false;
                    while self.trail_lim.len() < assumptions.len() {
                        let p = assumptions[self.trail_lim.len()];
                        match self.lit_value(p) {
                            Assign::True => self.trail_lim.push(self.trail.len()),
                            Assign::False => return SatResult::Unsat,
                            Assign::Unassigned => {
                                self.trail_lim.push(self.trail.len());
                                self.enqueue(p, None);
                                enqueued = true;
                                break;
                            }
                        }
                    }
                    if enqueued {
                        continue;
                    }
                    match self.decide() {
                        None => return SatResult::Sat,
                        Some(l) => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(l, None);
                        }
                    }
                }
            }
        }
    }

    /// Model value of `v` after a SAT answer (`None` if unassigned).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.vals[Lit::pos(v).index()] {
            Assign::Unassigned => None,
            Assign::True => Some(true),
            Assign::False => Some(false),
        }
    }
}

/// The Luby restart sequence (1,1,2,1,1,2,4,...).
fn luby(i: u64) -> u64 {
    let mut k = 1u64;
    while (1u64 << (k + 1)) - 1 <= i + 1 {
        k += 1;
    }
    let mut i = i;
    let mut kk = k;
    loop {
        if i + 1 == (1u64 << kk) - 1 {
            return 1u64 << (kk - 1);
        }
        if i + 1 < (1u64 << kk) - 1 {
            kk -= 1;
            if kk == 0 {
                return 1;
            }
            continue;
        }
        i -= (1u64 << kk) - 1;
        kk = 1;
        while (1u64 << (kk + 1)) - 1 <= i + 1 {
            kk += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));

        let mut s2 = Solver::new();
        let b = s2.new_var();
        s2.add_clause(&[Lit::pos(b)]);
        s2.add_clause(&[Lit::neg(b)]);
        assert_eq!(s2.solve(), SatResult::Unsat);
    }

    #[test]
    fn chain_implication() {
        // (a -> b -> c -> d), a  => d
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        for w in vs.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        s.add_clause(&[Lit::pos(vs[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(vs[3]), Some(true));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j] = pigeon i in hole j; 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for v in row.iter_mut() {
                *v = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn xor_constraint_forces_model() {
        // a xor b = 1, a = 1 => b = 0.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        s.add_clause(&[Lit::pos(a)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(false));
    }

    #[test]
    fn incremental_solving_with_added_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.cancel_until(0);
        s.add_clause(&[Lit::neg(a)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        s.cancel_until(0);
        s.add_clause(&[Lit::neg(b)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn budget_returns_unknown_or_solves() {
        // Hard-ish random-like instance with a tiny budget.
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..30).map(|_| s.new_var()).collect();
        // Parity chain: x0 ^ x1 ^ ... ^ x29 = 1 encoded pairwise.
        for i in 0..29 {
            let (a, b) = (vs[i], vs[i + 1]);
            s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
            s.add_clause(&[Lit::neg(a), Lit::neg(b)]);
        }
        s.conflict_budget = Some(1);
        let r = s.solve();
        assert!(r == SatResult::Sat || r == SatResult::Unknown);
    }

    #[test]
    fn assumptions_are_temporary() {
        // (a | b) & (!a | c): assuming !b forces a and c; assuming
        // (!a, !b) is UNSAT under assumptions but the formula survives.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(a), Lit::pos(c)]);
        assert_eq!(s.solve_with(&[Lit::neg(b)]), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.value(c), Some(true));
        assert_eq!(s.solve_with(&[Lit::neg(a), Lit::neg(b)]), SatResult::Unsat);
        // Not globally unsat: a plain solve still succeeds.
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.solve_with(&[Lit::pos(b)]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn assumption_conflicting_with_learned_units_is_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        // a and b are root-level implied; assuming !b must fail cleanly.
        assert_eq!(s.solve_with(&[Lit::neg(b)]), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn incremental_queries_share_learned_clauses() {
        // Pigeonhole core plus a relaxing selector: with the selector
        // assumed true the instance is UNSAT, without it SAT.
        let mut s = Solver::new();
        let sel = s.new_var();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for v in row.iter_mut() {
                *v = s.new_var();
            }
        }
        for row in &p {
            s.add_clause(&[Lit::neg(sel), Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        for _ in 0..3 {
            assert_eq!(s.solve_with(&[Lit::pos(sel)]), SatResult::Unsat);
            assert_eq!(s.solve_with(&[Lit::neg(sel)]), SatResult::Sat);
        }
    }

    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
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
    }

    #[test]
    fn pre_cancelled_solve_returns_unknown_and_stays_usable() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 5, 4);
        let token = CancelToken::new();
        token.cancel();
        s.set_cancel(Some(token));
        assert_eq!(s.solve(), SatResult::Unknown, "cancelled before searching");
        // Clearing the token restores normal solving on intact state.
        s.set_cancel(None);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn diversified_configs_agree_on_verdicts() {
        for config in [
            SolverConfig::default(),
            SolverConfig {
                var_decay: 0.85,
                restart_base: 32,
                invert_phase: true,
                seed: 0xA11C_E001,
            },
            SolverConfig {
                var_decay: 0.975,
                restart_base: 256,
                invert_phase: false,
                seed: 7,
            },
        ] {
            let mut s = Solver::with_config(config);
            pigeonhole(&mut s, 5, 4);
            assert_eq!(s.solve(), SatResult::Unsat, "{config:?}");
            let mut s = Solver::with_config(config);
            pigeonhole(&mut s, 4, 4);
            assert_eq!(s.solve(), SatResult::Sat, "{config:?}");
        }
    }

    #[test]
    fn clause_db_reduction_preserves_verdicts_and_state() {
        // Force a reduction at every restart point: the verdict must be
        // unaffected and the solver must stay usable afterwards.
        let mut s = Solver::new();
        pigeonhole(&mut s, 6, 5);
        s.reduce_limit = 1;
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(
            s.total_learned_dropped > 0,
            "a conflict-heavy instance with limit 1 must reduce"
        );
        assert!(s.total_restarts > 0);

        // SAT instances survive aggressive reduction too, and the model
        // is a real one.
        let mut s = Solver::new();
        let sel = s.new_var();
        let mut rows: Vec<Vec<Var>> = Vec::new();
        for _ in 0..5 {
            rows.push((0..4).map(|_| s.new_var()).collect());
        }
        for row in &rows {
            let mut c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            c.push(Lit::neg(sel));
            s.add_clause(&c);
        }
        for i1 in 0..5 {
            for i2 in (i1 + 1)..5 {
                for (&x, &y) in rows[i1].iter().zip(&rows[i2]) {
                    s.add_clause(&[Lit::neg(x), Lit::neg(y)]);
                }
            }
        }
        s.reduce_limit = 1;
        // Alternate UNSAT/SAT assumption solves across reductions: the
        // clause database churns, the answers must not.
        for _ in 0..4 {
            assert_eq!(s.solve_with(&[Lit::pos(sel)]), SatResult::Unsat);
            assert_eq!(s.solve_with(&[Lit::neg(sel)]), SatResult::Sat);
            assert_eq!(s.value(sel), Some(false));
        }
        assert_eq!(s.total_assumption_solves, 8);

        // Prefix-sharing solves straddling reductions: a `Sat` answer
        // leaves the shared prefix `[x, y]` on the trail, the next
        // query keeps it, and only that query's restarts (which unwind
        // to level 0) may reduce — the level-0 `debug_assert` in
        // `reduce_db` would fire if a kept prefix ever met a reduction.
        // Short restarts make every heavy query reach a restart point.
        let mut s = Solver::with_config(SolverConfig {
            restart_base: 4,
            ..SolverConfig::default()
        });
        let (x, y) = (s.new_var(), s.new_var());
        let sels: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        for &sel in &sels {
            // A pigeonhole core enabled by its selector.
            let rows: Vec<Vec<Var>> = (0..5)
                .map(|_| (0..4).map(|_| s.new_var()).collect())
                .collect();
            for row in &rows {
                let mut c: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
                c.push(Lit::neg(sel));
                s.add_clause(&c);
            }
            for i1 in 0..5 {
                for i2 in (i1 + 1)..5 {
                    for (&p, &q) in rows[i1].iter().zip(&rows[i2]) {
                        s.add_clause(&[Lit::neg(p), Lit::neg(q)]);
                    }
                }
            }
        }
        s.reduce_limit = 1;
        let prefix = [Lit::pos(x), Lit::neg(y)];
        let with = |l: Lit| [prefix[0], prefix[1], l];
        for &sel in &sels {
            assert_eq!(s.solve_with(&with(Lit::neg(sel))), SatResult::Sat);
            assert!(
                s.trail_lim.len() >= prefix.len(),
                "prefix left on the trail"
            );
            assert_eq!((s.value(x), s.value(y)), (Some(true), Some(false)));
            let dropped = s.total_learned_dropped;
            assert_eq!(s.solve_with(&with(Lit::pos(sel))), SatResult::Unsat);
            assert!(s.total_learned_dropped > dropped, "reduced mid-sequence");
        }
        for &sel in &sels {
            assert_eq!(s.solve_with(&with(Lit::pos(sel))), SatResult::Unsat);
            assert_eq!(s.solve_with(&with(Lit::neg(sel))), SatResult::Sat);
        }
    }

    #[test]
    fn shared_assumption_prefix_is_propagated_once() {
        // Each of K prefix literals implies a link of one long chain;
        // `a | b` leaves one free choice after the prefix.
        const K: usize = 64;
        let mut s = Solver::new();
        let xs: Vec<Var> = (0..K).map(|_| s.new_var()).collect();
        let ys: Vec<Var> = (0..K).map(|_| s.new_var()).collect();
        for (&x, &y) in xs.iter().zip(&ys) {
            s.add_clause(&[Lit::neg(x), Lit::pos(y)]);
        }
        for w in ys.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        let (a, b) = (s.new_var(), s.new_var());
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        let prefix: Vec<Lit> = xs.iter().map(|&x| Lit::pos(x)).collect();
        let with = |l: Lit| -> Vec<Lit> { prefix.iter().copied().chain([l]).collect() };
        let spent = |s: &mut Solver, assumptions: &[Lit], expect: SatResult| {
            let before = s.total_propagations;
            assert_eq!(s.solve_with(assumptions), expect);
            s.total_propagations - before
        };

        assert!(spent(&mut s, &with(Lit::neg(a)), SatResult::Sat) >= 2 * K as u64);
        assert_eq!(s.value(b), Some(true));
        // Same prefix, different last literal: the prefix is kept.
        let reused = spent(&mut s, &with(Lit::neg(b)), SatResult::Sat);
        assert!(reused < K as u64, "re-propagated the prefix: {reused}");
        assert_eq!(s.value(a), Some(true));
        // An already-false assumption answers Unsat without unwinding,
        // so the following query still reuses the prefix.
        let last_y = Lit::neg(ys[K - 1]);
        assert_eq!(spent(&mut s, &with(last_y), SatResult::Unsat), 0);
        assert!(spent(&mut s, &with(Lit::neg(a)), SatResult::Sat) < K as u64);
        // After a reset the prefix is propagated from the root again.
        s.reset_to_root();
        assert!(spent(&mut s, &with(Lit::neg(b)), SatResult::Sat) >= 2 * K as u64);
    }

    #[test]
    fn reduction_never_drops_glue_or_locked_clauses() {
        // An implication chain learns only small (glue <= 2) clauses;
        // none may be dropped no matter how low the limit.
        let mut s = Solver::new();
        pigeonhole(&mut s, 4, 3);
        s.reduce_limit = 1;
        assert_eq!(s.solve(), SatResult::Unsat);
        // Root-level implications keep their reason clauses alive: after
        // any number of reductions every reason index must stay valid,
        // which `solve` exercises by propagating from the root again.
        let mut s = Solver::new();
        pigeonhole(&mut s, 5, 4);
        s.reduce_limit = 1;
        assert_eq!(s.solve(), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Unsat, "state intact after reduce");
    }

    #[test]
    fn reset_to_root_keeps_formula_and_phases() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve_with(&[Lit::neg(a)]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        s.reset_to_root();
        // The model is gone but the formula still solves.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..9).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1]);
    }

    #[test]
    fn labels_name_the_model() {
        let mut s = Solver::new();
        let a = s.new_named_var(Symbol::intern("key[0]"));
        let b = s.new_var(); // unlabeled: stays out of the named model
        let c = s.new_named_var(Symbol::intern("key[1]"));
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::pos(b)]);
        s.add_clause(&[Lit::neg(c)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.name_of(a), Some(Symbol::intern("key[0]")));
        assert_eq!(s.name_of(b), None);
        assert_eq!(
            s.named_model(),
            vec![
                (Symbol::intern("key[0]"), true),
                (Symbol::intern("key[1]"), false),
            ]
        );
    }
}
