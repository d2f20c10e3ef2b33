//! Miter construction and SAT-based equivalence proofs.
//!
//! A [`Miter`] composes a *golden* netlist `a` and a *revised* netlist `b`
//! over shared primary inputs and XOR-compared outputs. Sequential designs
//! are handled with the scan model standard in logic-locking analyses:
//! every paired flip-flop's Q is a shared free variable and its
//! next-state function becomes an additional compared output, so a proof
//! covers all reachable (indeed all) states.
//!
//! Ports and state that exist only in `b` are the *key*: eFPGA
//! configuration inputs and configuration-chain registers. They can be
//! pinned to a concrete bitstream (proving the legitimate user's chip
//! correct) or left free (the attacker's view; a proof then holds for
//! *every* key, which for a real redaction should instead produce a
//! counterexample). Pinned registers are either folded to constants at
//! encode time ([`Miter::build`]) or kept as assumption slots
//! ([`Miter::build_keyed`]) so one encoding answers many keys.
//!
//! **Sweep on demand.** A miter is built unswept. Each difference point
//! is first asked under a small conflict probe (`PROBE_CONFLICTS`); most
//! redaction miters close every point inside it, because the shared
//! structural hash already collapses the untouched logic. The first
//! point that exhausts the probe triggers the counterexample-guided SAT
//! sweep ([`crate::sweep`]) into the same engine, once, and is re-asked
//! under the caller's budget; every later point and key runs on the
//! swept engine. The sweep only adds implied equalities, so verdicts and
//! corruption sets are those of an eagerly swept miter; only wall-clock
//! differs.

use crate::encode::{model_value, Encoder};
use crate::sweep::{const_sig, random_sig, sweep, ConeHash, Sig, SweepSide, SweepStats};
use alice_attacks::engine::{EngineStats, SatEngine};
use alice_attacks::portfolio::{diversified_configs, PortfolioEngine, PortfolioStats};
use alice_attacks::solver::{Lit, SatResult, Solver, SolverConfig};
use alice_intern::{StableHasher, Symbol};
use alice_netlist::ir::{Netlist, NodeId};
use alice_par::{race, CancelToken};
use alice_store::Store;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Why a miter could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiterError {
    /// An input port of the golden netlist is missing in the revised one.
    MissingInput(String),
    /// A port exists in both netlists with different widths.
    WidthMismatch(String),
    /// An output port of the golden netlist is missing in the revised one.
    MissingOutput(String),
    /// The revised netlist has a non-key output the golden one lacks.
    ExtraOutput(String),
    /// A golden-netlist flip-flop has no counterpart in the revised one,
    /// so its next-state function would go unchecked.
    UnpairedState(String),
    /// A pin constraint names an unknown port or register.
    UnknownPin(String),
}

impl fmt::Display for MiterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiterError::MissingInput(n) => write!(f, "input `{n}` missing in revised netlist"),
            MiterError::WidthMismatch(n) => write!(f, "port `{n}` has mismatched widths"),
            MiterError::MissingOutput(n) => write!(f, "output `{n}` missing in revised netlist"),
            MiterError::ExtraOutput(n) => {
                write!(f, "revised netlist has unexpected non-key output `{n}`")
            }
            MiterError::UnpairedState(n) => {
                write!(f, "golden flip-flop `{n}` has no revised counterpart")
            }
            MiterError::UnknownPin(n) => write!(f, "pin constraint names unknown `{n}`"),
        }
    }
}

impl std::error::Error for MiterError {}

/// A difference witness: one assignment to the shared inputs and state
/// (plus the key, when free) on which the two netlists disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Shared primary-input values, per golden port (LSB first).
    pub inputs: Vec<(Symbol, Vec<bool>)>,
    /// Shared state values, by golden register name.
    pub state: Vec<(Symbol, bool)>,
    /// Free key-input values, per revised-only port.
    pub key_inputs: Vec<(Symbol, Vec<bool>)>,
    /// Free key-state values, by revised-only register name.
    pub key_state: Vec<(Symbol, bool)>,
    /// Names of the difference points that disagree under this assignment
    /// (`port[bit]` for outputs, `next(reg)` for next-state functions).
    pub diffs: Vec<String>,
}

/// The verdict of an equivalence query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CecResult {
    /// Proven equivalent on every compared point, for all inputs and
    /// states (and all keys, if any were left free).
    Equivalent,
    /// A concrete disagreement was found.
    NotEquivalent(Box<Counterexample>),
    /// The solver's conflict budget ran out before a verdict.
    ResourceLimit,
}

impl CecResult {
    /// True for [`CecResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, CecResult::Equivalent)
    }
}

/// Exhaustive per-output corruption analysis (used by the wrong-key
/// sweep): which difference points *can* disagree under the current
/// constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// Difference points proven corruptible (some input shows a
    /// disagreement).
    pub corrupted: BTreeSet<String>,
    /// Total difference points compared.
    pub total: usize,
    /// False when the solver budget ran out; `corrupted` is then a lower
    /// bound and the un-marked points are *not* proven clean.
    pub complete: bool,
}

impl Corruption {
    /// Corrupted fraction of all compared points.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.corrupted.len() as f64 / self.total as f64
        }
    }
}

/// Build-time options for [`Miter::build`].
#[derive(Debug, Clone)]
pub struct MiterOptions {
    /// Ports/registers present only in the revised netlist whose names
    /// start with one of these prefixes (on any hierarchy segment) are
    /// treated as key material instead of errors. Default: `["cfg_"]`.
    pub key_prefixes: Vec<String>,
    /// Renames applied to revised-netlist register names before pairing
    /// (`revised name` → `golden name`); this is how redaction maps each
    /// fabric FF back onto the register it replaced.
    pub state_rename: HashMap<Symbol, Symbol>,
    /// Revised-netlist input ports pinned to constants (LSB first).
    pub pin_inputs: Vec<(Symbol, Vec<bool>)>,
    /// Revised-netlist registers pinned to constants — the bitstream.
    pub pin_state: Vec<(Symbol, bool)>,
    /// Compare next-state functions of paired flip-flops (the scan
    /// model). Disable only for purely combinational netlists.
    pub check_next_state: bool,
    /// Solver conflict budget; `None` = unlimited.
    pub conflict_budget: Option<u64>,
    /// Per-candidate-pair conflict budget of the SAT sweep a miter runs
    /// when a difference point exhausts its probe (see [`Miter`]). Pairs the
    /// budget gives up on are left unmerged and retried in the next
    /// refinement round, once the pairs below them have merged, which
    /// is when most of them become easy. A small budget is therefore
    /// cheap: on IIR's redacted multiplier, 250 instead of 2,000 cut the
    /// sweep from ~27 s to ~9 s with the same merges.
    pub sweep_conflict_budget: Option<u64>,
    /// Heuristic configuration of the underlying CDCL solver. Steers
    /// wall-clock only, never verdicts, so it is excluded from
    /// [`miter_fingerprint`] just like the budgets.
    pub solver_config: SolverConfig,
    /// Cooperative cancellation token, observed both while sweeping and
    /// inside every solve call. A cancelled miter reports
    /// [`CecResult::ResourceLimit`]; portfolio racing uses this to stop
    /// losing configurations. Excluded from [`miter_fingerprint`].
    pub cancel: Option<CancelToken>,
    /// Persistent store consulted for — and extended with — per-pair
    /// sweep lemmas (`alice_store::Kind::Lemma`): internal equivalences
    /// proven by any past sweep, keyed by boundary-labelled cone hashes
    /// so they transfer to novel miters over familiar sub-structures.
    /// A lemma only short-circuits a proof the sweep would have
    /// completed anyway, so — like the budgets — this steers wall-clock,
    /// never verdicts, and is excluded from [`miter_fingerprint`].
    pub lemma_store: Option<Arc<Store>>,
}

impl Default for MiterOptions {
    fn default() -> Self {
        MiterOptions {
            key_prefixes: vec!["cfg_".to_string()],
            state_rename: HashMap::new(),
            pin_inputs: Vec::new(),
            pin_state: Vec::new(),
            check_next_state: true,
            conflict_budget: None,
            sweep_conflict_budget: Some(250),
            solver_config: SolverConfig::default(),
            cancel: None,
            lemma_store: None,
        }
    }
}

/// A deterministic, *name-free* 128-bit fingerprint of the equivalence
/// query `(a, b, opts)` — the key of the persistent CEC proof cache.
///
/// Two queries get the same fingerprint exactly when they pose the same
/// verification question up to renaming: the netlists'
/// [name-free structural hashes](Netlist::structural_hash_namefree)
/// plus the *resolved* boundary binding expressed in ordinals — which
/// golden input/output port pairs with which revised position, which
/// revised register is pinned to what value, which pairs with which
/// golden register (after [`MiterOptions::state_rename`]), whether
/// next-state functions are compared, and the key-prefix set (it
/// decides whether revised-only boundary material is tolerated as key
/// or a build error). Solver budgets, sweep settings, and the
/// [`MiterOptions::lemma_store`] handle are deliberately excluded: they
/// affect how long a proof takes, never what verdict is sound, so a
/// cached `Equivalent` stays valid across them.
///
/// Infallible by design — a pair the miter would reject still
/// fingerprints fine (the mismatch is hashed as an unpaired marker);
/// failed builds are simply never cached.
pub fn miter_fingerprint(a: &Netlist, b: &Netlist, opts: &MiterOptions) -> (u64, u64) {
    const UNPAIRED: u64 = u64::MAX;
    let mut h = StableHasher::new();
    let (s0, s1) = a.structural_hash_namefree();
    h.write_u64(s0);
    h.write_u64(s1);
    let (s0, s1) = b.structural_hash_namefree();
    h.write_u64(s0);
    h.write_u64(s1);

    // Input pairing: for each golden port (in order), the revised port
    // position it binds to.
    let b_in_pos: HashMap<Symbol, u64> = b
        .inputs
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (*n, i as u64))
        .collect();
    h.write_u64(a.inputs.len() as u64);
    for (name, bits) in &a.inputs {
        h.write_u64(b_in_pos.get(name).copied().unwrap_or(UNPAIRED));
        h.write_u64(bits.len() as u64);
    }

    // Pinned revised inputs, by revised position (sorted, so the
    // fingerprint is independent of the options' list order).
    let mut pins: Vec<(u64, &[bool])> = opts
        .pin_inputs
        .iter()
        .map(|(n, v)| (b_in_pos.get(n).copied().unwrap_or(UNPAIRED), v.as_slice()))
        .collect();
    pins.sort();
    h.write_u64(pins.len() as u64);
    for (pos, vals) in pins {
        h.write_u64(pos);
        h.write_u64(vals.len() as u64);
        for &v in vals {
            h.write_u32(v as u32);
        }
    }

    // Output pairing, golden ordinal → revised ordinal.
    let b_out_pos: HashMap<Symbol, u64> = b
        .outputs
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (*n, i as u64))
        .collect();
    h.write_u64(a.outputs.len() as u64);
    for (name, bits) in &a.outputs {
        h.write_u64(b_out_pos.get(name).copied().unwrap_or(UNPAIRED));
        h.write_u64(bits.len() as u64);
    }

    // Revised state, in dff order: pinned value, paired golden ordinal
    // (after renaming), or free key state.
    let a_ord: HashMap<Symbol, u64> = a
        .dff_records()
        .iter()
        .enumerate()
        .map(|(i, &(_, n, _, _))| (n, i as u64))
        .collect();
    let pin_state: HashMap<Symbol, bool> = opts.pin_state.iter().copied().collect();
    let b_records = b.dff_records();
    h.write_u64(b_records.len() as u64);
    for &(_, name, _, _) in &b_records {
        if let Some(&v) = pin_state.get(&name) {
            h.write_u32(0);
            h.write_u32(v as u32);
        } else {
            let golden = opts.state_rename.get(&name).copied().unwrap_or(name);
            match a_ord.get(&golden) {
                Some(&g) => {
                    h.write_u32(1);
                    h.write_u64(g);
                }
                None => h.write_u32(2),
            }
        }
    }
    h.write_u64(a.dff_records().len() as u64);
    h.write_u32(opts.check_next_state as u32);
    // Key prefixes decide whether a revised-only non-key output is an
    // error or tolerated, so they are part of the query's meaning
    // (hashed as a sorted set — matching is any-of, order-free).
    let mut prefixes: Vec<&str> = opts.key_prefixes.iter().map(String::as_str).collect();
    prefixes.sort_unstable();
    h.write_u64(prefixes.len() as u64);
    for p in prefixes {
        h.write_str(p);
    }
    h.finish()
}

fn is_key_name(name: Symbol, prefixes: &[String]) -> bool {
    // A key name matches a prefix on its last hierarchical segment (the
    // register or port's own name) or on the whole path.
    let name = name.as_str();
    let last = name.rsplit('.').next().unwrap_or(name);
    prefixes
        .iter()
        .any(|p| name.starts_with(p) || last.starts_with(p))
}

/// Registers of `n` whose Q is in the combinational support of a
/// compared difference point: an output bit, or the next-state function
/// of a register in `next_roots` (the paired ones). Traversal stops at
/// flip-flop boundaries — in the single-cycle miter every register's Q
/// is a free state variable, so only direct support matters; a register
/// outside this set cannot influence any compared point and may be
/// dropped from the shared state.
fn observed_registers(n: &Netlist, next_roots: &BTreeSet<Symbol>) -> BTreeSet<Symbol> {
    let records = n.dff_records();
    let name_of: HashMap<NodeId, Symbol> = records.iter().map(|&(id, nm, _, _)| (id, nm)).collect();
    let mut stack: Vec<NodeId> = n
        .outputs
        .iter()
        .flat_map(|(_, lits)| lits.iter().map(|l| l.node()))
        .collect();
    stack.extend(
        records
            .iter()
            .filter(|(_, nm, _, _)| next_roots.contains(nm))
            .map(|&(_, _, d, _)| d.node()),
    );
    let mut seen: BTreeSet<NodeId> = BTreeSet::new();
    let mut observed = BTreeSet::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if let Some(&nm) = name_of.get(&id) {
            // Reached a Q: record it, but don't cross into its D cone.
            observed.insert(nm);
            continue;
        }
        for f in n.node(id).fanins() {
            stack.push(f.node());
        }
    }
    observed
}

/// Hashes a boundary leaf's *role* in the miter — shared-input ordinal,
/// pinned constant value, free-key ordinal, golden-state ordinal — into
/// the 128-bit label the sweeper's cone hashes are built over. Two
/// leaves get the same label exactly when every miter binds them the
/// same way (same shared variable, same constant, same free key slot),
/// which is what makes persisted sweep lemmas transferable across
/// miters: a lemma proven under one set of pinned key bits still names
/// the same boundary functions in any miter that reproduces the labels.
fn boundary_label(role: &str, ord: u64, bit: u64) -> ConeHash {
    let mut h = StableHasher::new();
    h.write_str(role);
    h.write_u64(ord);
    h.write_u64(bit);
    h.finish()
}

/// Conflict budget of the probe each difference point is asked under
/// while the sweep has not run. Large enough that GCD-, DES3- and
/// SHA-sized redaction miters close every point without sweeping; small
/// enough that IIR's multiplier miter gives up within a fraction of a
/// second and sweeps.
const PROBE_CONFLICTS: u64 = 4_000;

/// The sweep policy decision, counted: one per miter whose sweep ran.
static SWEEP_TRIGGERED: alice_obs::Counter = alice_obs::Counter::new(
    "alice_cec_sweep_triggered_total",
    "Miters whose SAT sweep ran because a difference point exhausted its probe",
);

/// Everything the fallback sweep needs, kept from build time until a
/// difference point first exhausts the probe. The netlists are borrowed
/// from the caller, so a miter that never sweeps copies neither.
struct PendingSweep<'n> {
    enc: Encoder,
    a: SweepSide<'n>,
    b: SweepSide<'n>,
    pair_budget: Option<u64>,
    lemma_store: Option<Arc<Store>>,
}

/// Where a [`Miter`] stands with its one on-demand sweep.
enum Sweep<'n> {
    /// Not run yet: queries probe first.
    Pending(Box<PendingSweep<'n>>),
    /// Ran once; every later query uses the swept engine.
    Done(SweepStats),
}

/// The SAT engine behind a [`Miter`]: one CDCL solver, or a portfolio
/// racing diversified members on every solve.
enum Engine {
    Single(Box<Solver>),
    Portfolio(PortfolioEngine),
}

impl Engine {
    fn get(&mut self) -> &mut dyn SatEngine {
        match self {
            Engine::Single(s) => s.as_mut(),
            Engine::Portfolio(p) => p,
        }
    }

    fn get_ref(&self) -> &dyn SatEngine {
        match self {
            Engine::Single(s) => s.as_ref(),
            Engine::Portfolio(p) => p,
        }
    }
}

/// The composed miter of a golden/revised pair, answering equivalence
/// ([`Miter::prove`]) and corruption ([`Miter::corruption`]) queries
/// under a key.
///
/// The registers named by [`MiterOptions::pin_state`] — the bitstream —
/// enter the CNF in one of two ways, fixed at build time:
///
/// * **folded** ([`Miter::build`]): each pinned register is a constant
///   at encode time, so the configuration mux trees fold away. The
///   cheapest encoding for a single key; queried with an empty key.
/// * **keyed** ([`Miter::build_keyed`]): each pinned register stays a
///   free variable, an assumption *slot* (its pinned value is ignored
///   at build time), and every query names concrete values for some or
///   all slots. The correct-key proof and every wrong-key corruption
///   analysis then become [`SatEngine::solve_with`] calls on one
///   long-lived engine: learned clauses, sweep-derived equalities,
///   variable activities, and saved phases all transfer across keys.
///   Slots a query leaves unnamed stay free, so the verdict then covers
///   every value of those bits — the attacker's view.
///
/// Every query resets the engine to the root afterwards, so queries may
/// be posed in any order.
///
/// # Sweeping on demand
///
/// Neither build sweeps. While the sweep has not run, each difference
/// point is first asked under a fixed probe budget. The first point that exhausts it (and is not
/// cancelled) resets the engine to the root, runs the SAT sweep into the
/// same engine, and is re-asked under [`MiterOptions::conflict_budget`];
/// every later point and key runs on the swept engine.
/// [`Miter::sweep_stats`] tells whether and how the sweep ran.
///
/// # Equivalence of the two encodings
///
/// For any complete key, a keyed query returns a *bit-identical*
/// corruption set and the same verdict as a folded miter built with the
/// same bits in [`MiterOptions::pin_state`]: both compute exact answers
/// to the same logical query, and assumptions constrain the free key
/// bits to precisely the folded constants. Only wall-clock differs —
/// the keyed CNF keeps the mux trees the folded encode removes, and in
/// exchange amortizes encode and search effort across every key.
///
/// A miter borrows the two netlists it was built from (`'n`): the
/// on-demand sweep simulates them.
pub struct Miter<'n> {
    engine: Engine,
    shared_inputs: Vec<(Symbol, Vec<Lit>)>,
    shared_state: Vec<(Symbol, Lit)>,
    key_inputs: Vec<(Symbol, Vec<Lit>)>,
    key_state: Vec<(Symbol, Lit)>,
    /// Keyed miters only: the `pin_state` registers left free, in
    /// revised `dff_records` order, each with its assumption literal.
    key_slots: Vec<(Symbol, Lit)>,
    slot_of: HashMap<Symbol, Lit>,
    /// Difference points: `(name, xor-literal)`.
    diffs: Vec<(String, Lit)>,
    /// The encoder's constant-true literal (to recognize folded diffs).
    tru: Lit,
    sweep: Sweep<'n>,
    budget: Option<u64>,
    cancel: Option<CancelToken>,
}

/// Encodes the miter of `a` against `b` into a fresh engine.
///
/// `keyed = false` folds [`MiterOptions::pin_state`] registers to
/// constants; `keyed = true` leaves them free and records one
/// assumption slot per register. Free key slots label their sweep
/// cones exactly like ordinary free key state (`keystate` by revised
/// ordinal): a lemma proven with the key free holds for every key, so
/// it is sound wherever a free-key lemma is.
fn assemble<'n>(
    a: &'n Netlist,
    b: &'n Netlist,
    opts: &MiterOptions,
    keyed: bool,
    portfolio: usize,
) -> Result<Miter<'n>, MiterError> {
    let _span = alice_obs::span("cec.build");
    let mut engine = if portfolio > 1 {
        let mut configs = diversified_configs(portfolio);
        configs[0] = opts.solver_config;
        Engine::Portfolio(PortfolioEngine::with_configs(configs))
    } else {
        Engine::Single(Box::new(Solver::with_config(opts.solver_config)))
    };
    let s = engine.get();
    s.set_cancel(opts.cancel.clone());
    let mut enc = Encoder::new(&mut *s);
    // Deterministic signature words for the sweeping pass, built in
    // lockstep with the literal bindings: shared literal ⇒ shared
    // word, pinned literal ⇒ constant word.
    let mut rng: u64 = 0x5EED_A11C_E000_0001 ^ (a.len() as u64) << 1 ^ b.len() as u64;
    let mut wbind_a: HashMap<Symbol, Vec<Sig>> = HashMap::new();
    let mut wbind_b: HashMap<Symbol, Vec<Sig>> = HashMap::new();
    // Boundary labels for the persisted-lemma cone hashes, also in
    // lockstep: shared inputs label by golden ordinal, pins by their
    // constant value, free key inputs/state by revised ordinal.
    let mut labels_a: HashMap<Symbol, Vec<ConeHash>> = HashMap::new();
    let mut labels_b: HashMap<Symbol, Vec<ConeHash>> = HashMap::new();
    let mut slabels_a: HashMap<Symbol, ConeHash> = HashMap::new();
    let mut slabels_b: HashMap<Symbol, ConeHash> = HashMap::new();

    // --- Shared inputs: allocate once, bind into both encodes. ---
    let b_in_widths: HashMap<Symbol, usize> =
        b.inputs.iter().map(|(n, bits)| (*n, bits.len())).collect();
    let mut bind_a: HashMap<Symbol, Vec<Lit>> = HashMap::new();
    let mut bind_b: HashMap<Symbol, Vec<Lit>> = HashMap::new();
    let mut shared_inputs = Vec::new();
    for (pi, (name, bits)) in a.inputs.iter().enumerate() {
        match b_in_widths.get(name) {
            None => return Err(MiterError::MissingInput(name.to_string())),
            Some(&w) if w != bits.len() => return Err(MiterError::WidthMismatch(name.to_string())),
            Some(_) => {}
        }
        let lits: Vec<Lit> = bits.iter().map(|_| enc.fresh(&mut *s)).collect();
        let words: Vec<Sig> = bits.iter().map(|_| random_sig(&mut rng)).collect();
        bind_a.insert(*name, lits.clone());
        bind_b.insert(*name, lits.clone());
        wbind_a.insert(*name, words.clone());
        wbind_b.insert(*name, words);
        let labels: Vec<ConeHash> = (0..bits.len())
            .map(|j| boundary_label("in", pi as u64, j as u64))
            .collect();
        labels_a.insert(*name, labels.clone());
        labels_b.insert(*name, labels);
        shared_inputs.push((*name, lits));
    }

    // --- Pinned revised inputs (e.g. cfg_en = 0). ---
    for (name, vals) in &opts.pin_inputs {
        let Some(&w) = b_in_widths.get(name) else {
            return Err(MiterError::UnknownPin(name.to_string()));
        };
        if w != vals.len() {
            return Err(MiterError::WidthMismatch(name.to_string()));
        }
        let consts: Vec<Lit> = vals
            .iter()
            .map(|&v| if v { enc.tru() } else { enc.fls() })
            .collect();
        bind_b.insert(*name, consts);
        wbind_b.insert(*name, vals.iter().map(|&v| const_sig(v)).collect());
        // A pinned bit is the constant function of its value: the
        // value alone identifies it, so lemmas over cones that read
        // it survive any renaming — but not a changed pin value.
        labels_b.insert(
            *name,
            vals.iter()
                .map(|&v| boundary_label("pin", v as u64, 0))
                .collect(),
        );
    }

    // --- Remaining revised-only inputs are free key inputs. ---
    let mut key_inputs = Vec::new();
    for (bi, (name, bits)) in b.inputs.iter().enumerate() {
        if bind_b.contains_key(name) {
            continue;
        }
        // Revised-only inputs (key or otherwise) stay free: a free
        // input can only produce spurious differences, never a false
        // Equivalent, so this is conservative for non-key extras.
        let lits: Vec<Lit> = bits.iter().map(|_| enc.fresh(&mut *s)).collect();
        bind_b.insert(*name, lits.clone());
        wbind_b.insert(*name, bits.iter().map(|_| random_sig(&mut rng)).collect());
        labels_b.insert(
            *name,
            (0..bits.len())
                .map(|j| boundary_label("key", bi as u64, j as u64))
                .collect(),
        );
        key_inputs.push((*name, lits));
    }

    // --- Golden state: fresh shared Q variables. ---
    let mut state_a: HashMap<Symbol, Lit> = HashMap::new();
    let mut wstate_a: HashMap<Symbol, Sig> = HashMap::new();
    let mut shared_state = Vec::new();
    for (gi, (_, name, _, _)) in a.dff_records().into_iter().enumerate() {
        let q = enc.fresh(&mut *s);
        state_a.insert(name, q);
        wstate_a.insert(name, random_sig(&mut rng));
        slabels_a.insert(name, boundary_label("state", gi as u64, 0));
        shared_state.push((name, q));
    }

    // --- Revised state: renamed pairing, pins, free key state. ---
    let pin_state: HashMap<Symbol, bool> = opts.pin_state.iter().copied().collect();
    let b_records = b.dff_records();
    let b_names: BTreeSet<Symbol> = b_records.iter().map(|&(_, n, _, _)| n).collect();
    for name in pin_state.keys() {
        if !b_names.contains(name) {
            return Err(MiterError::UnknownPin(name.to_string()));
        }
    }
    let mut state_b: HashMap<Symbol, Lit> = HashMap::new();
    let mut wstate_b: HashMap<Symbol, Sig> = HashMap::new();
    let mut key_state = Vec::new();
    let mut key_slots: Vec<(Symbol, Lit)> = Vec::new();
    let mut paired: Vec<(Symbol, Symbol)> = Vec::new(); // (golden, revised)
    for (bi, &(_, name, _, _)) in b_records.iter().enumerate() {
        let golden = opts.state_rename.get(&name).copied().unwrap_or(name);
        if let Some(&v) = pin_state.get(&name) {
            if keyed {
                // Assumption slot: the register stays a free
                // variable (the pinned *value* is ignored here — the
                // caller supplies it per query), labelled like any
                // other free key state so sweep lemmas stay sound
                // for every key.
                let q = enc.fresh(&mut *s);
                state_b.insert(name, q);
                wstate_b.insert(name, random_sig(&mut rng));
                slabels_b.insert(name, boundary_label("keystate", bi as u64, 0));
                key_state.push((name, q));
                key_slots.push((name, q));
            } else {
                let l = if v { enc.tru() } else { enc.fls() };
                state_b.insert(name, l);
                wstate_b.insert(name, const_sig(v));
                slabels_b.insert(name, boundary_label("pin", v as u64, 0));
                key_state.push((name, l));
            }
        } else if let Some(&q) = state_a.get(&golden) {
            state_b.insert(name, q);
            wstate_b.insert(name, wstate_a[&golden]);
            slabels_b.insert(name, slabels_a[&golden]);
            paired.push((golden, name));
        } else {
            let q = enc.fresh(&mut *s);
            state_b.insert(name, q);
            wstate_b.insert(name, random_sig(&mut rng));
            slabels_b.insert(name, boundary_label("keystate", bi as u64, 0));
            key_state.push((name, q));
        }
    }
    // Every *observable* golden register must be covered, or its
    // next-state check would silently vanish. A register outside the
    // support of every compared point — a write-only counter, say,
    // which LUT mapping rightly prunes from the revised side — is
    // dead weight: excluding it from the shared state is sound (the
    // proof then holds for *all* values of the dropped Q), so it is
    // dropped rather than reported as a pairing failure.
    let covered: BTreeSet<Symbol> = paired.iter().map(|&(g, _)| g).collect();
    let observed = observed_registers(a, &covered);
    for &(name, _) in &shared_state {
        if !covered.contains(&name) && observed.contains(&name) {
            return Err(MiterError::UnpairedState(name.to_string()));
        }
    }
    shared_state.retain(|(name, _)| covered.contains(name) || observed.contains(name));

    // --- Encode both sides against the shared encoder. ---
    let (enc_a, enc_b) = {
        let _span = alice_obs::span("cec.encode");
        (
            enc.encode(&mut *s, a, &bind_a, &state_a),
            enc.encode(&mut *s, b, &bind_b, &state_b),
        )
    };

    // --- Difference points: outputs... ---
    let b_outs: HashMap<Symbol, &Vec<Lit>> = enc_b.outputs.iter().map(|(n, l)| (*n, l)).collect();
    let mut diffs = Vec::new();
    for (name, lits_a) in &enc_a.outputs {
        let Some(lits_b) = b_outs.get(name) else {
            return Err(MiterError::MissingOutput(name.to_string()));
        };
        if lits_b.len() != lits_a.len() {
            return Err(MiterError::WidthMismatch(name.to_string()));
        }
        for (bit, (&la, &lb)) in lits_a.iter().zip(lits_b.iter()).enumerate() {
            let d = enc.xor(&mut *s, la, lb);
            diffs.push((format!("{name}[{bit}]"), d));
        }
    }
    let a_out_names: BTreeSet<Symbol> = enc_a.outputs.iter().map(|(n, _)| *n).collect();
    for &(name, _) in &enc_b.outputs {
        if !a_out_names.contains(&name) && !is_key_name(name, &opts.key_prefixes) {
            return Err(MiterError::ExtraOutput(name.to_string()));
        }
    }

    // --- ... and next-state functions of paired registers. ---
    if opts.check_next_state {
        let next_a: HashMap<Symbol, Lit> = enc_a.dffs.iter().map(|d| (d.name, d.next)).collect();
        let next_b: HashMap<Symbol, Lit> = enc_b.dffs.iter().map(|d| (d.name, d.next)).collect();
        for &(golden, revised) in &paired {
            let (na, nb) = (next_a[&golden], next_b[&revised]);
            let d = enc.xor(&mut *s, na, nb);
            diffs.push((format!("next({golden})"), d));
        }
    }

    // --- Keep the sweep's inputs for the first exhausted probe. ---
    let tru = enc.tru();
    let sweep = Sweep::Pending(Box::new(PendingSweep {
        enc,
        a: SweepSide {
            n: a,
            input_lits: bind_a,
            state_lits: state_a,
            input_base: wbind_a,
            state_base: wstate_a,
            input_labels: labels_a,
            state_labels: slabels_a,
            node_lits: enc_a.node_lits,
        },
        b: SweepSide {
            n: b,
            input_lits: bind_b,
            state_lits: state_b,
            input_base: wbind_b,
            state_base: wstate_b,
            input_labels: labels_b,
            state_labels: slabels_b,
            node_lits: enc_b.node_lits,
        },
        pair_budget: opts.sweep_conflict_budget,
        lemma_store: opts.lemma_store.clone(),
    }));

    let slot_of = key_slots.iter().copied().collect();
    Ok(Miter {
        engine,
        shared_inputs,
        shared_state,
        key_inputs,
        key_state,
        key_slots,
        slot_of,
        diffs,
        tru,
        sweep,
        budget: opts.conflict_budget,
        cancel: opts.cancel.clone(),
    })
}

impl<'n> Miter<'n> {
    /// Builds the folded miter of golden `a` against revised `b`:
    /// [`MiterOptions::pin_state`] registers become constants. Query it
    /// with an empty key.
    ///
    /// # Errors
    ///
    /// Returns [`MiterError`] when the two netlists' boundaries cannot be
    /// paired (see the variants for the exact conditions).
    pub fn build(
        a: &'n Netlist,
        b: &'n Netlist,
        opts: &MiterOptions,
    ) -> Result<Miter<'n>, MiterError> {
        assemble(a, b, opts, false, 1)
    }

    /// Builds the keyed miter of golden `a` against revised `b`:
    /// [`MiterOptions::pin_state`] registers become assumption slots.
    ///
    /// `portfolio > 1` backs the miter with a [`PortfolioEngine`] of that
    /// many diversified members (member 0 keeps the caller's
    /// [`MiterOptions::solver_config`]), racing every solve; otherwise a
    /// single [`Solver`] is used. Racing steers wall-clock only.
    ///
    /// # Errors
    ///
    /// The same conditions as [`Miter::build`].
    pub fn build_keyed(
        a: &'n Netlist,
        b: &'n Netlist,
        opts: &MiterOptions,
        portfolio: usize,
    ) -> Result<Miter<'n>, MiterError> {
        assemble(a, b, opts, true, portfolio)
    }

    /// The assumption slots, in revised `dff_records` order: one
    /// `(register, free literal)` per [`MiterOptions::pin_state`] entry
    /// of a keyed miter; empty for a folded one.
    pub fn key_slots(&self) -> &[(Symbol, Lit)] {
        &self.key_slots
    }

    /// Number of compared difference points (output bits + paired
    /// next-state functions).
    pub fn diff_points(&self) -> usize {
        self.diffs.len()
    }

    /// CNF statistics: `(variables, clauses)` of the composed miter.
    pub fn cnf_size(&self) -> (usize, usize) {
        let e = self.engine.get_ref();
        (e.num_vars(), e.num_clauses())
    }

    /// Statistics of the SAT sweep, or `None` while it has not run (no
    /// query has exhausted the probe yet).
    pub fn sweep_stats(&self) -> Option<SweepStats> {
        match self.sweep {
            Sweep::Pending(_) => None,
            Sweep::Done(stats) => Some(stats),
        }
    }

    /// Runs the pending sweep now, as if a query had triggered it; a
    /// no-op once it has run. For differential tests against the
    /// eagerly swept miter.
    #[doc(hidden)]
    pub fn force_sweep(&mut self) {
        self.run_sweep("forced");
    }

    /// Runs the pending sweep into the engine from the root, recording
    /// `trigger` (the difference point that exhausted its probe) in the
    /// `cec.sweep` span, and frees what it needed.
    fn run_sweep(&mut self, trigger: &str) {
        let Sweep::Pending(p) = &mut self.sweep else {
            return;
        };
        SWEEP_TRIGGERED.inc();
        let _span = alice_obs::span_with("cec.sweep", || trigger.to_string());
        let s = self.engine.get();
        s.reset_to_root();
        let stats = sweep(
            s,
            &mut p.enc,
            &p.a,
            &p.b,
            p.pair_budget,
            p.lemma_store.as_deref(),
            self.cancel.as_ref(),
        );
        self.sweep = Sweep::Done(stats);
    }

    /// Solves `assumptions`, whose last literal is difference point
    /// `point`. While the sweep is pending the point is first asked
    /// under the probe budget, and an exhausted, uncancelled probe
    /// sweeps and re-asks under the caller's budget.
    fn ask(&mut self, assumptions: &[Lit], point: usize) -> SatResult {
        if let Sweep::Done(_) = self.sweep {
            return self.engine.get().solve_with(assumptions);
        }
        let probe = self
            .budget
            .map_or(PROBE_CONFLICTS, |b| b.min(PROBE_CONFLICTS));
        let e = self.engine.get();
        e.set_budget(Some(probe));
        let r = e.solve_with(assumptions);
        e.set_budget(self.budget);
        if r != SatResult::Unknown || self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return r;
        }
        let trigger = self.diffs[point].0.clone();
        self.run_sweep(&trigger);
        self.engine.get().solve_with(assumptions)
    }

    /// Cumulative engine search effort (sweeping plus every query so
    /// far).
    pub fn stats(&self) -> EngineStats {
        self.engine.get_ref().stats()
    }

    /// Per-config win counts of the backing portfolio, when
    /// [`Miter::build_keyed`] was given `portfolio > 1`.
    pub fn portfolio_stats(&self) -> Option<PortfolioStats> {
        match &self.engine {
            Engine::Portfolio(p) => Some(p.portfolio_stats()),
            Engine::Single(_) => None,
        }
    }

    /// Packages `result`, a verdict of this miter, with the miter's size
    /// and search effort. A portfolio-backed miter names the member that
    /// won the most solves as the winner.
    pub fn outcome(&self, result: CecResult) -> RaceOutcome {
        let (configs, winner) = self.portfolio_stats().map_or((1, 0), |ps| {
            let winner = ps
                .wins
                .iter()
                .enumerate()
                .max_by_key(|&(_, &n)| n)
                .map_or(0, |(w, _)| w);
            (ps.configs, winner)
        });
        let (cnf_vars, cnf_clauses) = self.cnf_size();
        RaceOutcome {
            result,
            winner,
            stats: self.stats(),
            configs,
            diff_points: self.diff_points(),
            cnf_vars,
            cnf_clauses,
        }
    }

    /// Lowers a key to its assumption set: one literal per named slot,
    /// positive for `true` bits.
    ///
    /// # Errors
    ///
    /// [`MiterError::UnknownPin`] when `key` names a register that is
    /// not an assumption slot (every register, for a folded miter).
    pub fn assumptions(&self, key: &[(Symbol, bool)]) -> Result<Vec<Lit>, MiterError> {
        key.iter()
            .map(|&(name, v)| match self.slot_of.get(&name) {
                Some(&l) => Ok(if v { l } else { l.negate() }),
                None => Err(MiterError::UnknownPin(name.to_string())),
            })
            .collect()
    }

    /// Proves equivalence under `key` over all difference points, one
    /// assumption query per point (learned clauses are shared across
    /// points and across queries).
    ///
    /// # Errors
    ///
    /// [`MiterError::UnknownPin`] when `key` names an unknown slot.
    pub fn prove(&mut self, key: &[(Symbol, bool)]) -> Result<CecResult, MiterError> {
        let mut assumptions = self.assumptions(key)?;
        let _span = alice_obs::span("cec.prove");
        let budget = self.budget;
        self.engine.get().set_budget(budget);
        let mut verdict = None;
        let mut limited = false;
        for i in 0..self.diffs.len() {
            let d = self.diffs[i].1;
            if d == self.tru.negate() {
                continue; // folded to the same literal — trivially equal
            }
            let r = if d == self.tru {
                // Folded to provably different for *every* key: solve
                // only for a witness consistent with this key (the
                // circuit CNF plus a consistent key assignment is
                // always satisfiable), without a budget.
                self.engine.get().set_budget(None);
                let r = self.engine.get().solve_with(&assumptions);
                self.engine.get().set_budget(budget);
                if r != SatResult::Sat {
                    // Cancelled mid-witness: still report folded points.
                    let names = self
                        .diffs
                        .iter()
                        .filter(|&&(_, p)| p == self.tru)
                        .map(|(n, _)| n.clone())
                        .collect();
                    verdict = Some(CecResult::NotEquivalent(self.extract_cex(names)));
                    break;
                }
                SatResult::Sat
            } else {
                assumptions.push(d);
                let r = self.ask(&assumptions, i);
                assumptions.pop();
                r
            };
            match r {
                SatResult::Unsat => {}
                SatResult::Unknown => limited = true,
                SatResult::Sat => {
                    let names = self.model_diff_names();
                    verdict = Some(CecResult::NotEquivalent(self.extract_cex(names)));
                    break;
                }
            }
        }
        self.engine.get().reset_to_root();
        Ok(verdict.unwrap_or(if limited {
            CecResult::ResourceLimit
        } else {
            CecResult::Equivalent
        }))
    }

    /// Computes the exact set of corruptible difference points under
    /// `key` (each marked point disagrees for some input; when
    /// `complete`, every unmarked point is proven to always agree).
    ///
    /// Every SAT model marks *all* points that differ under it, so the
    /// number of solver calls is bounded by the number of corruptible
    /// points plus the number of clean points.
    ///
    /// # Errors
    ///
    /// [`MiterError::UnknownPin`] when `key` names an unknown slot.
    pub fn corruption(&mut self, key: &[(Symbol, bool)]) -> Result<Corruption, MiterError> {
        let mut assumptions = self.assumptions(key)?;
        let _span = alice_obs::span("cec.corruption");
        self.engine.get().set_budget(self.budget);
        let total = self.diffs.len();
        let mut corrupted: BTreeSet<String> = BTreeSet::new();
        let mut complete = true;
        for i in 0..self.diffs.len() {
            let (name, d) = self.diffs[i].clone();
            if corrupted.contains(&name) || d == self.tru.negate() {
                continue;
            }
            if d == self.tru {
                corrupted.insert(name);
                continue;
            }
            assumptions.push(d);
            let r = self.ask(&assumptions, i);
            assumptions.pop();
            match r {
                SatResult::Unsat => {}
                SatResult::Unknown => complete = false,
                SatResult::Sat => corrupted.extend(self.model_diff_names()),
            }
        }
        self.engine.get().reset_to_root();
        Ok(Corruption {
            corrupted,
            total,
            complete,
        })
    }

    /// Reads a [`Counterexample`] out of the engine's current model.
    fn extract_cex(&self, diffs: Vec<String>) -> Box<Counterexample> {
        let s = self.engine.get_ref();
        let port = |ports: &[(Symbol, Vec<Lit>)]| -> Vec<(Symbol, Vec<bool>)> {
            ports
                .iter()
                .map(|(n, lits)| (*n, lits.iter().map(|&l| model_value(s, l)).collect()))
                .collect()
        };
        let bits = |regs: &[(Symbol, Lit)]| -> Vec<(Symbol, bool)> {
            regs.iter().map(|(n, l)| (*n, model_value(s, *l))).collect()
        };
        Box::new(Counterexample {
            inputs: port(&self.shared_inputs),
            state: bits(&self.shared_state),
            key_inputs: port(&self.key_inputs),
            key_state: bits(&self.key_state),
            diffs,
        })
    }

    /// Difference points that are true under the engine's current model.
    fn model_diff_names(&self) -> Vec<String> {
        let s = self.engine.get_ref();
        self.diffs
            .iter()
            .filter(|&&(_, d)| model_value(s, d))
            .map(|(n, _)| n.clone())
            .collect()
    }
}

/// Proves `a` equivalent to `b` under default options (no key pins, scan
/// model for sequential logic).
///
/// # Errors
///
/// Returns [`MiterError`] when the netlists' boundaries cannot be paired.
///
/// # Example
///
/// ```
/// use alice_cec::{prove_equivalent, CecResult};
/// use alice_netlist::ir::Netlist;
///
/// let mut n = Netlist::new("xor2");
/// let a = n.add_input("a", 1)[0];
/// let b = n.add_input("b", 1)[0];
/// let y = n.xor(a, b);
/// n.add_output("y", vec![y]);
/// assert_eq!(prove_equivalent(&n, &n), Ok(CecResult::Equivalent));
/// ```
pub fn prove_equivalent(a: &Netlist, b: &Netlist) -> Result<CecResult, MiterError> {
    Miter::build(a, b, &MiterOptions::default())?.prove(&[])
}

/// A verdict with the size and search effort of the miter behind it
/// (see [`prove_equivalent_raced`] and [`Miter::outcome`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceOutcome {
    /// The winning configuration's verdict.
    pub result: CecResult,
    /// Index of the winning configuration: the first to answer in a
    /// race, the one with the most won solves in a portfolio-backed
    /// miter. 0 is always the caller's exact options.
    pub winner: usize,
    /// Search effort (sweeping + proof) spent by the winner.
    pub stats: EngineStats,
    /// Number of configurations raced.
    pub configs: usize,
    /// Difference points compared, as seen by the winner.
    pub diff_points: usize,
    /// Winner's miter CNF variable count.
    pub cnf_vars: usize,
    /// Winner's miter CNF clause count.
    pub cnf_clauses: usize,
}

/// The portfolio diversification of one miter configuration: config 0 is
/// the caller's options verbatim; config `i > 0` runs the CDCL
/// heuristics `configs[i]` from [`diversified_configs`] and scales the
/// per-pair sweep budget by `2^(i/2)`. Every config sweeps on demand
/// like a lone miter. None of this can change a verdict — only which
/// verdict arrives first.
fn diversified_options(
    base: &MiterOptions,
    i: usize,
    configs: &[SolverConfig],
    token: &CancelToken,
) -> MiterOptions {
    let mut o = base.clone();
    o.cancel = Some(token.clone());
    if i > 0 {
        o.solver_config = configs[i];
        o.sweep_conflict_budget = base
            .sweep_conflict_budget
            .map(|b| b.saturating_mul(1 << (i / 2).min(8)));
    }
    o
}

/// Races `n` diversified miter configurations over up to `jobs` worker
/// threads; the first definitive verdict wins and the losers are
/// cooperatively cancelled (they stop within one propagation round and
/// are joined before this returns — no threads outlive the call).
///
/// The racers differ only in CDCL heuristics and per-pair sweep budget
/// (see `diversified_options`). Each one probes and sweeps on demand
/// like a lone miter, so no racer skips a sweep its miter needs (IIR's
/// multiplier miter takes minutes unswept).
///
/// `n <= 1` degenerates to a plain [`Miter::build`] + [`Miter::prove`]
/// on the calling thread with byte-identical behavior. A
/// [`CecResult::ResourceLimit`] answer never wins the race: a
/// budget-exhausted configuration must not outrank a slower prover, so
/// the limit verdict is returned only when *every* configuration
/// exhausts. Build errors are structural and configuration-independent,
/// hence immediately definitive.
///
/// # Errors
///
/// Returns [`MiterError`] when the netlists' boundaries cannot be paired.
pub fn prove_equivalent_raced(
    a: &Netlist,
    b: &Netlist,
    opts: &MiterOptions,
    n: usize,
    jobs: usize,
) -> Result<RaceOutcome, MiterError> {
    if n <= 1 {
        let mut m = Miter::build(a, b, opts)?;
        let result = m.prove(&[])?;
        return Ok(m.outcome(result));
    }
    let configs = diversified_configs(n);
    let outcome = race(n, jobs, |i, token| {
        if alice_obs::tracing_enabled() {
            alice_obs::set_thread_name(&format!("portfolio racer {i}"));
        }
        let _span = alice_obs::span_with("cec.race_candidate", || format!("config {i}"));
        let o = diversified_options(opts, i, &configs, token);
        let run = || -> Result<RaceOutcome, MiterError> {
            let mut m = Miter::build(a, b, &o)?;
            let result = m.prove(&[])?;
            Ok(RaceOutcome {
                winner: i,
                configs: n,
                ..m.outcome(result)
            })
        };
        match run() {
            Ok(ro) if ro.result == CecResult::ResourceLimit => None,
            r => Some(r),
        }
    });
    match outcome {
        Some((_, r)) => r,
        None => Ok(RaceOutcome {
            result: CecResult::ResourceLimit,
            winner: 0,
            stats: EngineStats::default(),
            configs: n,
            diff_points: 0,
            cnf_vars: 0,
            cnf_clauses: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_chain(flip: bool) -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.add_input("a", 4);
        let b = n.add_input("b", 4);
        let mut acc = n.xor(a[0], b[0]);
        for i in 1..4 {
            let x = n.xor(a[i], b[i]);
            acc = n.and(acc, x);
        }
        n.add_output("y", vec![if flip { acc.compl() } else { acc }]);
        n
    }

    #[test]
    fn identical_netlists_are_equivalent() {
        let n = xor_chain(false);
        assert_eq!(prove_equivalent(&n, &n), Ok(CecResult::Equivalent));
    }

    #[test]
    fn flipped_output_produces_counterexample() {
        let a = xor_chain(false);
        let b = xor_chain(true);
        match prove_equivalent(&a, &b).expect("builds") {
            CecResult::NotEquivalent(cex) => {
                assert_eq!(cex.diffs, vec!["y[0]".to_string()]);
                assert_eq!(cex.inputs.len(), 2);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn structurally_different_but_equal_circuits() {
        // a^b vs (a&!b)|(!a&b)
        let mut n1 = Netlist::new("x");
        let a = n1.add_input("a", 1)[0];
        let b = n1.add_input("b", 1)[0];
        let y = n1.xor(a, b);
        n1.add_output("y", vec![y]);

        let mut n2 = Netlist::new("x2");
        let a = n2.add_input("a", 1)[0];
        let b = n2.add_input("b", 1)[0];
        let t1 = n2.and(a, b.compl());
        let t2 = n2.and(a.compl(), b);
        let y = n2.or(t1, t2);
        n2.add_output("y", vec![y]);
        assert_eq!(prove_equivalent(&n1, &n2), Ok(CecResult::Equivalent));
    }

    #[test]
    fn sequential_next_state_is_checked() {
        // Register q <= q ^ d, versus a broken copy q <= q & d.
        let build = |broken: bool| {
            let mut n = Netlist::new("s");
            let d = n.add_input("d", 1)[0];
            let q = n.dff("s.q[0]", false);
            let nx = if broken { n.and(q, d) } else { n.xor(q, d) };
            n.set_dff_input(q, nx);
            n.add_output("q", vec![q]);
            n
        };
        let good = build(false);
        let bad = build(true);
        assert_eq!(prove_equivalent(&good, &good), Ok(CecResult::Equivalent));
        match prove_equivalent(&good, &bad).expect("builds") {
            CecResult::NotEquivalent(cex) => {
                assert_eq!(cex.diffs, vec!["next(s.q[0])".to_string()]);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn dead_unpaired_golden_register_is_tolerated() {
        // The golden side carries a write-only register (toggles itself,
        // read by nothing) that a pruning revised implementation drops —
        // the classic dead-counter case. The pairing must tolerate it.
        let build = |with_dead: bool| {
            let mut n = Netlist::new("s");
            let d = n.add_input("d", 1)[0];
            let q = n.dff("s.q[0]", false);
            let nx = n.xor(q, d);
            n.set_dff_input(q, nx);
            if with_dead {
                let dead = n.dff("s.dead[0]", false);
                n.set_dff_input(dead, dead.compl());
            }
            n.add_output("q", vec![q]);
            n
        };
        assert_eq!(
            prove_equivalent(&build(true), &build(false)),
            Ok(CecResult::Equivalent)
        );
    }

    #[test]
    fn live_unpaired_golden_register_is_an_error() {
        // Same shape, but the extra register feeds the output: dropping
        // it would silently weaken the proof, so it must stay a hard
        // pairing failure.
        let mut a = Netlist::new("s");
        let d = a.add_input("d", 1)[0];
        let live = a.dff("s.live[0]", false);
        a.set_dff_input(live, d);
        let y = a.xor(live, d);
        a.add_output("y", vec![y]);

        let mut b = Netlist::new("s2");
        let d = b.add_input("d", 1)[0];
        b.add_output("y", vec![d]);
        assert_eq!(
            prove_equivalent(&a, &b),
            Err(MiterError::UnpairedState("s.live[0]".to_string()))
        );
    }

    #[test]
    fn unpaired_register_feeding_a_paired_next_state_is_an_error() {
        // The extra register is invisible at the outputs but drives the
        // D of a paired register — its Q is in a compared next-state
        // cone, so it is observable and must not be dropped.
        let mut a = Netlist::new("s");
        let d = a.add_input("d", 1)[0];
        let hidden = a.dff("s.hidden[0]", false);
        a.set_dff_input(hidden, d);
        let q = a.dff("s.q[0]", false);
        let nx = a.xor(q, hidden);
        a.set_dff_input(q, nx);
        a.add_output("q", vec![q]);

        let mut b = Netlist::new("s2");
        let d = b.add_input("d", 1)[0];
        let q = b.dff("s.q[0]", false);
        let nx = b.xor(q, d);
        b.set_dff_input(q, nx);
        b.add_output("q", vec![q]);
        assert_eq!(
            prove_equivalent(&a, &b),
            Err(MiterError::UnpairedState("s.hidden[0]".to_string()))
        );
    }

    #[test]
    fn key_state_free_vs_pinned() {
        // b computes y = a ^ k where k is a "cfg" register; a computes
        // y = a. Free key: inequivalent. Pinned k=0: equivalent.
        let mut a_nl = Netlist::new("a");
        let ai = a_nl.add_input("a", 1)[0];
        a_nl.add_output("y", vec![ai]);

        let mut b_nl = Netlist::new("b");
        let bi = b_nl.add_input("a", 1)[0];
        let k = b_nl.dff("top.le0.cfg[0]", false);
        b_nl.set_dff_input(k, k);
        let y = b_nl.xor(bi, k);
        b_nl.add_output("y", vec![y]);

        let free = Miter::build(&a_nl, &b_nl, &MiterOptions::default())
            .expect("builds")
            .prove(&[])
            .expect("no key");
        assert!(matches!(free, CecResult::NotEquivalent(_)));

        let opts = MiterOptions {
            pin_state: vec![(Symbol::intern("top.le0.cfg[0]"), false)],
            ..MiterOptions::default()
        };
        let mut folded = Miter::build(&a_nl, &b_nl, &opts).expect("builds");
        assert!(folded.key_slots().is_empty(), "folded pins are constants");
        assert_eq!(folded.prove(&[]), Ok(CecResult::Equivalent));
        // A folded register is no assumption slot, so naming it is an
        // error rather than a silently ignored key.
        assert_eq!(
            folded.prove(&opts.pin_state),
            Err(MiterError::UnknownPin("top.le0.cfg[0]".to_string()))
        );
    }

    #[test]
    fn corruption_marks_exactly_the_differing_outputs() {
        // y0 identical, y1 flipped: exactly one of two points corrupts.
        let mut a_nl = Netlist::new("a");
        let ai = a_nl.add_input("a", 2);
        let x = a_nl.xor(ai[0], ai[1]);
        a_nl.add_output("y0", vec![ai[0]]);
        a_nl.add_output("y1", vec![x]);

        let mut b_nl = Netlist::new("b");
        let bi = b_nl.add_input("a", 2);
        let x = b_nl.xor(bi[0], bi[1]);
        b_nl.add_output("y0", vec![bi[0]]);
        b_nl.add_output("y1", vec![x.compl()]);

        let c = Miter::build(&a_nl, &b_nl, &MiterOptions::default())
            .expect("builds")
            .corruption(&[])
            .expect("no key");
        assert!(c.complete);
        assert_eq!(c.total, 2);
        assert_eq!(
            c.corrupted.into_iter().collect::<Vec<_>>(),
            vec!["y1[0]".to_string()]
        );
    }

    #[test]
    fn boundary_mismatches_are_named_errors() {
        let mut a_nl = Netlist::new("a");
        let ai = a_nl.add_input("a", 2);
        a_nl.add_output("y", vec![ai[0]]);

        let mut b_nl = Netlist::new("b");
        let bi = b_nl.add_input("b", 2);
        b_nl.add_output("y", vec![bi[0]]);
        assert_eq!(
            Miter::build(&a_nl, &b_nl, &MiterOptions::default()).err(),
            Some(MiterError::MissingInput("a".to_string()))
        );

        let mut c_nl = Netlist::new("c");
        let ci = c_nl.add_input("a", 3);
        c_nl.add_output("y", vec![ci[0]]);
        assert_eq!(
            Miter::build(&a_nl, &c_nl, &MiterOptions::default()).err(),
            Some(MiterError::WidthMismatch("a".to_string()))
        );
    }

    #[test]
    fn fingerprint_is_name_free_but_binding_sensitive() {
        let build = |in_name: &str, reg: &str, out: &str| {
            let mut n = Netlist::new("t");
            let a = n.add_input(in_name, 2);
            let q = n.dff(reg, false);
            let x = n.xor(a[0], q);
            n.set_dff_input(q, x);
            n.add_output(out, vec![x, a[1]]);
            n
        };
        let a1 = build("a", "t.q[0]", "y");
        let b1 = build("a", "t.q[0]", "y");
        let a2 = build("p", "t.r[0]", "z");
        let b2 = build("p", "t.r[0]", "z");
        let opts = MiterOptions::default();
        // Renaming everything consistently leaves the fingerprint alone.
        assert_eq!(
            miter_fingerprint(&a1, &b1, &opts),
            miter_fingerprint(&a2, &b2, &opts)
        );
        // Pinning a register changes it.
        let pinned = MiterOptions {
            pin_state: vec![(Symbol::intern("t.q[0]"), true)],
            ..MiterOptions::default()
        };
        assert_ne!(
            miter_fingerprint(&a1, &b1, &opts),
            miter_fingerprint(&a1, &b1, &pinned)
        );
        // ...and so does the pinned *value* (a different wrong key).
        let pinned_low = MiterOptions {
            pin_state: vec![(Symbol::intern("t.q[0]"), false)],
            ..MiterOptions::default()
        };
        assert_ne!(
            miter_fingerprint(&a1, &b1, &pinned),
            miter_fingerprint(&a1, &b1, &pinned_low)
        );
        // Structure changes change it.
        let mut flipped = build("a", "t.q[0]", "y");
        flipped.outputs[0].1[0] = flipped.outputs[0].1[0].compl();
        assert_ne!(
            miter_fingerprint(&a1, &b1, &opts),
            miter_fingerprint(&a1, &flipped, &opts)
        );
        // Solver budgets do not (a cached verdict is budget-independent),
        // and neither do portfolio knobs: heuristics and cancellation
        // steer wall-clock, never verdicts.
        let budgeted = MiterOptions {
            conflict_budget: Some(1),
            solver_config: SolverConfig {
                invert_phase: true,
                seed: 42,
                ..SolverConfig::default()
            },
            cancel: Some(CancelToken::new()),
            ..MiterOptions::default()
        };
        assert_eq!(
            miter_fingerprint(&a1, &b1, &opts),
            miter_fingerprint(&a1, &b1, &budgeted)
        );
        // The key-prefix set does: it changes what would even build.
        let no_prefixes = MiterOptions {
            key_prefixes: Vec::new(),
            ..MiterOptions::default()
        };
        assert_ne!(
            miter_fingerprint(&a1, &b1, &opts),
            miter_fingerprint(&a1, &b1, &no_prefixes)
        );
        // Cross-wiring the input pairing (same shapes, different binding)
        // changes it: swap which golden port pairs with which revised
        // position by renaming ports asymmetrically.
        let crossed = build("b", "t.q[0]", "y");
        assert_ne!(
            miter_fingerprint(&a1, &crossed, &opts),
            miter_fingerprint(&a1, &b1, &opts),
            "unpaired inputs must not fingerprint like paired ones"
        );
    }

    #[test]
    fn resource_limit_is_reported() {
        // A miter hard enough to exceed a one-conflict budget: two
        // different-looking 6-bit adder-ish structures.
        let build = |swap: bool| {
            let mut n = Netlist::new("t");
            let a = n.add_input("a", 6);
            let b = n.add_input("b", 6);
            let mut carry = alice_netlist::ir::Lit::FALSE;
            let mut outs = Vec::new();
            for i in 0..6 {
                let (x, y) = if swap { (b[i], a[i]) } else { (a[i], b[i]) };
                let s1 = n.xor(x, y);
                let s2 = n.xor(s1, carry);
                let c1 = n.and(x, y);
                let c2 = n.and(s1, carry);
                carry = n.or(c1, c2);
                outs.push(s2);
            }
            n.add_output("s", outs);
            n
        };
        let a_nl = build(false);
        let b_nl = build(true);
        let opts = MiterOptions {
            conflict_budget: Some(0),
            ..MiterOptions::default()
        };
        let r = Miter::build(&a_nl, &b_nl, &opts)
            .expect("builds")
            .prove(&[])
            .expect("no key");
        // Commutated operands strash to the same nodes, so this may fold
        // to Equivalent without search; accept either outcome but never a
        // counterexample.
        assert!(!matches!(r, CecResult::NotEquivalent(_)));
    }

    fn adder_pair() -> (Netlist, Netlist) {
        let build = |swap: bool| {
            let mut n = Netlist::new("t");
            let a = n.add_input("a", 6);
            let b = n.add_input("b", 6);
            let mut carry = alice_netlist::ir::Lit::FALSE;
            let mut outs = Vec::new();
            for i in 0..6 {
                let (x, y) = if swap { (b[i], a[i]) } else { (a[i], b[i]) };
                let s1 = n.xor(x, y);
                let s2 = n.xor(s1, carry);
                let c1 = n.and(x, y);
                let c2 = n.and(s1, carry);
                carry = n.or(c1, c2);
                outs.push(s2);
            }
            n.add_output("s", outs);
            n
        };
        (build(false), build(true))
    }

    #[test]
    fn raced_prove_agrees_with_single_and_joins_all_shards() {
        // An Equivalent (all-UNSAT) miter raced across 3 configurations:
        // the race must return the same verdict as portfolio 1, and
        // because the race runs on scoped threads, returning at all
        // proves every loser was cancelled and joined.
        let (a, b) = adder_pair();
        let opts = MiterOptions::default();
        let single = Miter::build(&a, &b, &opts)
            .expect("builds")
            .prove(&[])
            .expect("no key");
        let raced = prove_equivalent_raced(&a, &b, &opts, 3, 3).expect("builds");
        assert_eq!(raced.result, single);
        assert_eq!(raced.result, CecResult::Equivalent);
        assert!(raced.winner < 3);
        assert_eq!(raced.configs, 3);

        // And a NotEquivalent pair keeps its verdict under racing too
        // (the witness itself may legitimately differ per winner).
        let mut bad = a.clone();
        bad.outputs[0].1[0] = bad.outputs[0].1[0].compl();
        let raced = prove_equivalent_raced(&a, &bad, &opts, 3, 3).expect("builds");
        assert!(matches!(raced.result, CecResult::NotEquivalent(_)));
    }

    #[test]
    fn raced_prove_with_one_config_is_the_plain_path() {
        let (a, b) = adder_pair();
        let r = prove_equivalent_raced(&a, &b, &MiterOptions::default(), 1, 4).expect("builds");
        assert_eq!(r.result, CecResult::Equivalent);
        assert_eq!((r.winner, r.configs), (0, 1));
    }

    #[test]
    fn raced_prove_propagates_build_errors_and_exhaustion() {
        let (a, b) = adder_pair();
        // Structural error: definitive regardless of configuration.
        let mut c = b.clone();
        c.inputs[0].0 = Symbol::intern("renamed");
        let err = prove_equivalent_raced(&a, &c, &MiterOptions::default(), 3, 3);
        assert_eq!(err.err(), Some(MiterError::MissingInput("a".to_string())));
        // A zero conflict budget exhausts every configuration: the limit
        // verdict is only reported when nobody answers definitively.
        let opts = MiterOptions {
            conflict_budget: Some(0),
            sweep_conflict_budget: Some(0),
            ..MiterOptions::default()
        };
        let r = prove_equivalent_raced(&a, &b, &opts, 3, 3).expect("builds");
        // Commutated operands may strash to identical nodes and fold the
        // miter closed without search; accept either non-witness verdict.
        assert!(!matches!(r.result, CecResult::NotEquivalent(_)));
    }

    fn tmp_lemma_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "alice-miter-lemma-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// a^b per bit, versus the (a&!b)|(!a&b) decomposition: equivalent,
    /// structurally different, so every bit is real sweep work.
    fn xor_vs_decomposed(width: u32) -> (Netlist, Netlist) {
        let mut n1 = Netlist::new("x");
        let a = n1.add_input("a", width);
        let b = n1.add_input("b", width);
        let ys = (0..width as usize).map(|i| n1.xor(a[i], b[i])).collect();
        n1.add_output("y", ys);

        let mut n2 = Netlist::new("x2");
        let a = n2.add_input("a", width);
        let b = n2.add_input("b", width);
        let ys = (0..width as usize)
            .map(|i| {
                let t1 = n2.and(a[i], b[i].compl());
                let t2 = n2.and(a[i].compl(), b[i]);
                n2.or(t1, t2)
            })
            .collect();
        n2.add_output("y", ys);
        (n1, n2)
    }

    #[test]
    fn warm_lemmas_skip_sweep_proofs() {
        let (a, b) = xor_vs_decomposed(4);
        let dir = tmp_lemma_dir("warm");

        // Cold run: every merge costs a per-pair SAT proof, and the
        // proven lemmas are persisted on flush.
        let store = Arc::new(Store::open(&dir).expect("open"));
        let opts = MiterOptions {
            lemma_store: Some(Arc::clone(&store)),
            ..MiterOptions::default()
        };
        let mut m = Miter::build(&a, &b, &opts).expect("builds");
        m.force_sweep();
        let s1 = m.sweep_stats().expect("forced sweep ran");
        assert!(s1.merged > 0, "sweep must stitch the xor decompositions");
        assert_eq!(s1.lemma_hits, 0, "cold store cannot serve lemmas");
        assert_eq!(m.prove(&[]), Ok(CecResult::Equivalent));
        store.flush().expect("flush");
        drop(store);
        drop(opts);

        // Warm run from a fresh handle (a second process): the same
        // cone pairs are served from the store, skipping their proofs,
        // and the verdict is unchanged.
        let store = Arc::new(Store::open(&dir).expect("reopen"));
        let opts = MiterOptions {
            lemma_store: Some(Arc::clone(&store)),
            ..MiterOptions::default()
        };
        let mut m = Miter::build(&a, &b, &opts).expect("builds");
        m.force_sweep();
        let s2 = m.sweep_stats().expect("forced sweep ran");
        assert!(s2.lemma_hits > 0, "warm lemmas must be served: {s2:?}");
        assert_eq!(s2.merged, s1.merged, "lemmas change cost, not merges");
        assert!(
            s2.candidates - s2.lemma_hits < s1.candidates,
            "warm run must pose fewer per-pair SAT proofs ({s2:?} vs {s1:?})"
        );
        assert_eq!(m.prove(&[]), Ok(CecResult::Equivalent));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lemmas_transfer_across_pinned_key_values() {
        // A *novel* miter over familiar sub-structures: the same netlist
        // pair under a different pinned key value. y0 is key-independent
        // xor-vs-decomposition work; y1 reads the cfg register k but is
        // equal to a[0] for either value of k. Lemmas proven for the y0
        // cones under k=0 must warm the k=1 miter even though its
        // whole-miter fingerprint differs.
        let width = 4u32;
        let mut g = Netlist::new("g");
        let a = g.add_input("a", width);
        let b = g.add_input("b", width);
        let ys = (0..width as usize).map(|i| g.xor(a[i], b[i])).collect();
        g.add_output("y0", ys);
        g.add_output("y1", vec![a[0]]);

        let mut r = Netlist::new("r");
        let a = r.add_input("a", width);
        let b = r.add_input("b", width);
        let ys = (0..width as usize)
            .map(|i| {
                let t1 = r.and(a[i], b[i].compl());
                let t2 = r.and(a[i].compl(), b[i]);
                r.or(t1, t2)
            })
            .collect();
        r.add_output("y0", ys);
        let k = r.dff("top.le0.cfg[0]", false);
        r.set_dff_input(k, k);
        let alt = {
            let t1 = r.and(a[0], b[0]);
            let t2 = r.and(a[0], b[0].compl());
            r.or(t1, t2) // == a[0], but not structurally
        };
        let y1 = r.mux(k, a[0], alt);
        r.add_output("y1", vec![y1]);

        let dir = tmp_lemma_dir("crosspin");
        let pin = |v: bool, store: &Arc<Store>| MiterOptions {
            pin_state: vec![(Symbol::intern("top.le0.cfg[0]"), v)],
            lemma_store: Some(Arc::clone(store)),
            ..MiterOptions::default()
        };

        let store = Arc::new(Store::open(&dir).expect("open"));
        let o0 = pin(false, &store);
        let mut m = Miter::build(&g, &r, &o0).expect("builds");
        m.force_sweep();
        let s1 = m.sweep_stats().expect("forced sweep ran");
        assert!(s1.merged > 0);
        assert_eq!(s1.lemma_hits, 0);
        assert_eq!(m.prove(&[]), Ok(CecResult::Equivalent));
        store.flush().expect("flush");
        drop(store);

        let store = Arc::new(Store::open(&dir).expect("reopen"));
        let o1 = pin(true, &store);
        assert_ne!(
            miter_fingerprint(&g, &r, &o0),
            miter_fingerprint(&g, &r, &o1),
            "different pinned key bits must be a whole-miter cache miss"
        );
        let mut m = Miter::build(&g, &r, &o1).expect("builds");
        m.force_sweep();
        let s2 = m.sweep_stats().expect("forced sweep ran");
        assert!(
            s2.lemma_hits > 0,
            "key-independent lemmas must transfer: {s2:?}"
        );
        assert!(
            s2.candidates - s2.lemma_hits < s1.candidates,
            "warm novel miter must pose fewer per-pair SAT proofs ({s2:?} vs {s1:?})"
        );
        assert_eq!(m.prove(&[]), Ok(CecResult::Equivalent));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_miter_reports_resource_limit() {
        // a^b vs (a&!b)|(!a&b): equivalent but structurally different,
        // so nothing folds and a verdict genuinely needs search (the
        // sweep, which would stitch them, bails out when cancelled too).
        let mut a = Netlist::new("x");
        let i0 = a.add_input("a", 1)[0];
        let i1 = a.add_input("b", 1)[0];
        let y = a.xor(i0, i1);
        a.add_output("y", vec![y]);
        let mut b = Netlist::new("x2");
        let i0 = b.add_input("a", 1)[0];
        let i1 = b.add_input("b", 1)[0];
        let t1 = b.and(i0, i1.compl());
        let t2 = b.and(i0.compl(), i1);
        let y = b.or(t1, t2);
        b.add_output("y", vec![y]);
        let token = CancelToken::new();
        token.cancel();
        let opts = MiterOptions {
            cancel: Some(token),
            ..MiterOptions::default()
        };
        let mut m = Miter::build(&a, &b, &opts).expect("builds");
        assert_eq!(m.prove(&[]), Ok(CecResult::ResourceLimit));
        assert_eq!(m.sweep_stats(), None, "a cancelled probe must not sweep");
    }

    #[test]
    fn easy_miters_never_sweep() {
        // Every point closes inside the probe: no sweep, and no stats.
        let (a, b) = xor_vs_decomposed(4);
        let mut m = Miter::build(&a, &b, &MiterOptions::default()).expect("builds");
        assert_eq!(m.prove(&[]), Ok(CecResult::Equivalent));
        assert!(m.corruption(&[]).expect("no key").corrupted.is_empty());
        assert_eq!(m.sweep_stats(), None);
    }

    #[test]
    fn an_exhausted_probe_sweeps_once_and_re_asks() {
        // A zero conflict budget exhausts the probe on the first point
        // that needs search. The sweep then proves every output pair
        // equal, so the re-ask closes at the root within the same zero
        // budget, and later points and queries reuse the swept engine.
        let (a, b) = xor_vs_decomposed(4);
        let opts = MiterOptions {
            conflict_budget: Some(0),
            ..MiterOptions::default()
        };
        alice_obs::enable_metrics();
        let triggered = SWEEP_TRIGGERED.get();
        let mut m = Miter::build(&a, &b, &opts).expect("builds");
        assert_eq!(m.prove(&[]), Ok(CecResult::Equivalent));
        assert!(SWEEP_TRIGGERED.get() > triggered, "the trigger is counted");
        let swept = m.sweep_stats().expect("the exhausted probe swept");
        assert!(swept.merged > 0, "{swept:?}");
        assert_eq!(m.prove(&[]), Ok(CecResult::Equivalent));
        assert_eq!(m.sweep_stats(), Some(swept), "the sweep runs once");
    }

    /// Golden `y = a`; revised `y = a ^ cfg` with a 2-bit cfg chain:
    /// correct key is `cfg[0] = cfg[1] = 0` (any set bit corrupts y).
    fn keyed_pair() -> (Netlist, Netlist, Vec<(Symbol, bool)>) {
        let mut g = Netlist::new("g");
        let a = g.add_input("a", 1)[0];
        g.add_output("y", vec![a]);

        let mut r = Netlist::new("r");
        let a = r.add_input("a", 1)[0];
        let k0 = r.dff("top.le0.cfg[0]", false);
        r.set_dff_input(k0, k0);
        let k1 = r.dff("top.le0.cfg[1]", false);
        r.set_dff_input(k1, k1);
        let k = r.xor(k0, k1);
        let y = r.xor(a, k);
        r.add_output("y", vec![y]);
        let key = vec![
            (Symbol::intern("top.le0.cfg[0]"), false),
            (Symbol::intern("top.le0.cfg[1]"), false),
        ];
        (g, r, key)
    }

    #[test]
    fn keyed_miter_matches_pinned_verdicts_across_keys() {
        let (g, r, correct) = keyed_pair();
        let base = MiterOptions {
            pin_state: correct.clone(),
            ..MiterOptions::default()
        };
        let mut km = Miter::build_keyed(&g, &r, &base, 1).expect("builds");
        assert_eq!(km.key_slots().len(), 2);
        assert_eq!(km.diff_points(), 1);

        // Every key value, interleaved and repeated: the long-lived
        // engine must keep answering exactly what a fresh pinned miter
        // answers, regardless of what it learned from earlier keys.
        for &(b0, b1) in &[
            (false, false),
            (true, false),
            (false, true),
            (true, true),
            (false, false),
        ] {
            let key = vec![(correct[0].0, b0), (correct[1].0, b1)];
            let pinned = MiterOptions {
                pin_state: key.clone(),
                ..MiterOptions::default()
            };
            let want = Miter::build(&g, &r, &pinned)
                .expect("builds")
                .prove(&[])
                .expect("no key");
            let got = km.prove(&key).expect("known slots");
            assert_eq!(
                got.is_equivalent(),
                want.is_equivalent(),
                "key ({b0},{b1}): keyed {got:?} vs pinned {want:?}"
            );
            let want_c = Miter::build(&g, &r, &pinned)
                .expect("builds")
                .corruption(&[])
                .expect("no key");
            let got_c = km.corruption(&key).expect("known slots");
            assert_eq!(got_c, want_c, "corruption must be bit-identical");
        }
        let stats = km.stats();
        assert!(
            stats.assumption_solves > 0,
            "keyed queries must be incremental: {stats:?}"
        );
    }

    #[test]
    fn keyed_counterexample_reports_the_assumed_key() {
        let (g, r, correct) = keyed_pair();
        let base = MiterOptions {
            pin_state: correct.clone(),
            ..MiterOptions::default()
        };
        let mut km = Miter::build_keyed(&g, &r, &base, 1).expect("builds");
        let wrong = vec![(correct[0].0, true), (correct[1].0, false)];
        match km.prove(&wrong).expect("known slots") {
            CecResult::NotEquivalent(cex) => {
                assert_eq!(cex.diffs, vec!["y[0]".to_string()]);
                // The witness's key-state values are the assumed key.
                let got: Vec<(Symbol, bool)> = cex.key_state.clone();
                assert_eq!(got, wrong);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn keyed_partial_keys_and_unknown_slots() {
        let (g, r, correct) = keyed_pair();
        let base = MiterOptions {
            pin_state: correct.clone(),
            ..MiterOptions::default()
        };
        let mut km = Miter::build_keyed(&g, &r, &base, 1).expect("builds");
        // A slot left free makes the query cover every value of that
        // bit: some value corrupts y, so this cannot be Equivalent.
        let partial = vec![(correct[0].0, false)];
        assert!(matches!(
            km.prove(&partial).expect("known slot"),
            CecResult::NotEquivalent(_)
        ));
        // ...and the complete correct key still proves afterwards.
        assert_eq!(km.prove(&correct).expect("known"), CecResult::Equivalent);
        // Unknown names are rejected, not silently ignored.
        let bogus = vec![(Symbol::intern("top.le9.cfg[7]"), true)];
        assert_eq!(
            km.prove(&bogus).err(),
            Some(MiterError::UnknownPin("top.le9.cfg[7]".to_string()))
        );
    }

    #[test]
    fn keyed_portfolio_agrees_with_single() {
        let (g, r, correct) = keyed_pair();
        let base = MiterOptions {
            pin_state: correct.clone(),
            ..MiterOptions::default()
        };
        let mut single = Miter::build_keyed(&g, &r, &base, 1).expect("builds");
        let mut ported = Miter::build_keyed(&g, &r, &base, 3).expect("builds");
        assert!(single.portfolio_stats().is_none());
        for &(b0, b1) in &[(false, false), (true, true), (true, false)] {
            let key = vec![(correct[0].0, b0), (correct[1].0, b1)];
            let a = single.prove(&key).expect("known");
            let b = ported.prove(&key).expect("known");
            assert_eq!(a.is_equivalent(), b.is_equivalent(), "key ({b0},{b1})");
            assert_eq!(
                single.corruption(&key).expect("known"),
                ported.corruption(&key).expect("known")
            );
        }
        let ps = ported.portfolio_stats().expect("portfolio-backed");
        assert_eq!(ps.configs, 3);
        assert!(ps.wins.iter().sum::<u64>() > 0);
    }
}
