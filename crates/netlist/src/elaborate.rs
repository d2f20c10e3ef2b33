//! RTL elaboration: lowers the parsed Verilog subset into a flat gate-level
//! [`Netlist`]. This is the Yosys substitute of the reproduction.
//!
//! Supported semantics (documented deviations from full Verilog):
//!
//! * two-state logic only (no `x`/`z`),
//! * all operators are unsigned,
//! * a single implicit clock domain; `@(posedge clk or posedge rst)` async
//!   resets are modelled as synchronous (identical steady-state behaviour),
//! * blocking and non-blocking assignments inside one `always` block are
//!   both executed in statement order (correct for the conventional
//!   all-blocking-comb / all-nonblocking-seq styles),
//! * combinational `always` targets must be fully assigned on every path
//!   (no inferred latches — an [`ElabError::InferredLatch`] otherwise).

use crate::ir::{Lit, Netlist};
use crate::words::{self, Word};
use alice_verilog::ast::*;
use alice_verilog::hierarchy::const_eval;
use alice_verilog::Bits;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Errors produced during elaboration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElabError {
    /// Referenced module has no definition.
    UnknownModule(String),
    /// Referenced net/port/parameter is not declared.
    UnknownNet {
        /// Enclosing module.
        module: String,
        /// The undeclared name.
        net: String,
    },
    /// A net has no driver but is read.
    Undriven {
        /// Enclosing module instance path.
        path: String,
        /// Net name.
        net: String,
    },
    /// A net is driven more than once.
    MultipleDrivers {
        /// Enclosing module instance path.
        path: String,
        /// Net name (with bit index).
        net: String,
    },
    /// Combinational cycle through the named net.
    CombLoop(String),
    /// A combinational always block leaves a target unassigned on some path.
    InferredLatch(String),
    /// Constructs outside the synthesizable subset.
    Unsupported(String),
    /// A range or parameter did not evaluate to a constant.
    NonConstant(String),
    /// Instance port connection mismatch.
    BadConnection {
        /// Instance path.
        path: String,
        /// Port name.
        port: String,
        /// Explanation.
        why: String,
    },
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElabError::UnknownModule(m) => write!(f, "unknown module `{m}`"),
            ElabError::UnknownNet { module, net } => {
                write!(f, "unknown net `{net}` in module `{module}`")
            }
            ElabError::Undriven { path, net } => {
                write!(f, "net `{net}` in `{path}` is read but never driven")
            }
            ElabError::MultipleDrivers { path, net } => {
                write!(f, "net `{net}` in `{path}` has multiple drivers")
            }
            ElabError::CombLoop(net) => write!(f, "combinational loop through `{net}`"),
            ElabError::InferredLatch(net) => {
                write!(f, "combinational always block infers a latch on `{net}`")
            }
            ElabError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
            ElabError::NonConstant(what) => write!(f, "non-constant expression: {what}"),
            ElabError::BadConnection { path, port, why } => {
                write!(f, "bad connection `.{port}` on `{path}`: {why}")
            }
        }
    }
}

impl std::error::Error for ElabError {}

/// Elaborates `top` (and everything below it) into a flat netlist.
///
/// Clock and (a)synchronous reset inputs named in edge sensitivity lists are
/// treated as control: the clock is implicit, and edge-listed resets are
/// folded into DFF next-state logic.
///
/// # Errors
///
/// See [`ElabError`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = alice_verilog::parse_source(
///     "module inv(input wire [3:0] a, output wire [3:0] y); assign y = ~a; endmodule",
/// )?;
/// let n = alice_netlist::elaborate::elaborate(&f, "inv")?;
/// assert_eq!(n.stats().inputs, 4);
/// # Ok(())
/// # }
/// ```
pub fn elaborate(file: &SourceFile, top: &str) -> Result<Netlist, ElabError> {
    let tdef = file
        .module(top)
        .ok_or_else(|| ElabError::UnknownModule(top.to_string()))?;
    let mut netlist = Netlist::new(top);
    // Create primary inputs.
    let params = default_params(tdef)?;
    let mut bound_inputs: HashMap<String, Word> = HashMap::new();
    for p in &tdef.ports {
        if p.dir == Direction::Input {
            let w = port_width(&params, &p.range)?;
            let lits = netlist.add_input(&p.name, w);
            bound_inputs.insert(p.name.clone(), lits);
        }
        if p.dir == Direction::Inout {
            return Err(ElabError::Unsupported(format!(
                "inout port `{}` at the top level",
                p.name
            )));
        }
    }
    let mut elab = Elaborator { file };
    let outputs = elab.instantiate(&mut netlist, tdef, params, bound_inputs, top.to_string())?;
    for p in &tdef.ports {
        if p.dir == Direction::Output {
            let bits = outputs
                .get(&p.name)
                .cloned()
                .ok_or_else(|| ElabError::Undriven {
                    path: top.to_string(),
                    net: p.name.clone(),
                })?;
            netlist.add_output(&p.name, bits);
        }
    }
    // Cross-instance combinational loops are only visible globally.
    netlist.comb_topo_order().map_err(ElabError::CombLoop)?;
    Ok(netlist)
}

fn default_params(m: &Module) -> Result<BTreeMap<String, i64>, ElabError> {
    let mut env = BTreeMap::new();
    for p in &m.params {
        let v = const_eval(&p.value, &env)
            .ok_or_else(|| ElabError::NonConstant(format!("parameter {}", p.name)))?;
        env.insert(p.name.clone(), v);
    }
    Ok(env)
}

fn port_width(params: &BTreeMap<String, i64>, r: &Option<Range>) -> Result<u32, ElabError> {
    match r {
        None => Ok(1),
        Some(r) => {
            let msb = const_eval(&r.msb, params)
                .ok_or_else(|| ElabError::NonConstant("range msb".into()))?;
            let lsb = const_eval(&r.lsb, params)
                .ok_or_else(|| ElabError::NonConstant("range lsb".into()))?;
            Ok((msb - lsb).unsigned_abs() as u32 + 1)
        }
    }
}

struct Elaborator<'a> {
    file: &'a SourceFile,
}

/// How a (net, bit-range) gets its value.
#[derive(Debug, Clone)]
enum Driver {
    /// `assign` item index in the module.
    Assign(usize),
    /// Output port of an instance (item index).
    InstPort(usize),
    /// `always` block item index.
    Always(usize),
    /// Net initializer (`wire x = expr`).
    NetInit(usize),
}

struct Scope<'m> {
    module: &'m Module,
    path: String,
    params: BTreeMap<String, i64>,
    widths: HashMap<String, u32>,
    /// Per-bit resolved values.
    values: HashMap<String, Vec<Option<Lit>>>,
    /// Per-bit driver table.
    drivers: HashMap<String, Vec<Option<Driver>>>,
    /// Bits currently being resolved (combinational-loop detection).
    resolving: HashSet<(String, u32)>,
    /// Instances already elaborated (outputs filled into `values`).
    insts_done: HashSet<usize>,
    /// Always blocks already executed.
    always_done: HashSet<usize>,
}

impl<'a> Elaborator<'a> {
    /// Elaborates one module instance; returns its output-port values.
    fn instantiate(
        &mut self,
        n: &mut Netlist,
        m: &Module,
        params: BTreeMap<String, i64>,
        inputs: HashMap<String, Word>,
        path: String,
    ) -> Result<HashMap<String, Word>, ElabError> {
        let mut scope = self.build_scope(m, params, path)?;
        // Seed input-port values.
        for (name, word) in inputs {
            let w = *scope
                .widths
                .get(&name)
                .ok_or_else(|| ElabError::UnknownNet {
                    module: m.name.clone(),
                    net: name.clone(),
                })?;
            let word = words::resize(&word, w);
            let slot = scope.values.get_mut(&name).expect("declared");
            for (i, l) in word.iter().enumerate() {
                slot[i] = Some(*l);
            }
        }
        // Resolve outputs on demand.
        let mut out = HashMap::new();
        for p in &m.ports {
            if matches!(p.dir, Direction::Output | Direction::Inout) {
                let w = scope.widths[&p.name];
                let mut word = Vec::with_capacity(w as usize);
                for b in 0..w {
                    word.push(self.bit_value(n, &mut scope, &p.name, b)?);
                }
                out.insert(p.name.clone(), word);
            }
        }
        Ok(out)
    }

    fn build_scope<'m>(
        &self,
        m: &'m Module,
        mut params: BTreeMap<String, i64>,
        path: String,
    ) -> Result<Scope<'m>, ElabError> {
        // localparams and body parameters join the environment.
        for item in &m.items {
            if let Item::Param(p) | Item::Localparam(p) = item {
                if !params.contains_key(&p.name) {
                    let v = const_eval(&p.value, &params)
                        .ok_or_else(|| ElabError::NonConstant(format!("parameter {}", p.name)))?;
                    params.insert(p.name.clone(), v);
                }
            }
        }
        let mut widths = HashMap::new();
        for p in &m.ports {
            widths.insert(p.name.clone(), port_width(&params, &p.range)?);
        }
        for item in &m.items {
            if let Item::Net(d) = item {
                widths.insert(d.name.clone(), port_width(&params, &d.range)?);
            }
        }
        let mut values: HashMap<String, Vec<Option<Lit>>> = HashMap::new();
        let mut drivers: HashMap<String, Vec<Option<Driver>>> = HashMap::new();
        for (name, &w) in &widths {
            values.insert(name.clone(), vec![None; w as usize]);
            drivers.insert(name.clone(), vec![None; w as usize]);
        }
        // Scan items to fill the driver table.
        for (idx, item) in m.items.iter().enumerate() {
            match item {
                Item::Assign(a) => {
                    Self::mark_lvalue(
                        &m.name,
                        &path,
                        &params,
                        &widths,
                        &mut drivers,
                        &a.lhs,
                        || Driver::Assign(idx),
                    )?;
                }
                Item::Net(d) if d.init.is_some() => {
                    let w = widths[&d.name];
                    Self::mark_range(&path, &mut drivers, &d.name, 0, w, || Driver::NetInit(idx))?;
                }
                Item::Instance(inst) => {
                    let child = self
                        .file
                        .module(&inst.module)
                        .ok_or_else(|| ElabError::UnknownModule(inst.module.clone()))?;
                    let conns = normalize_conns(child, inst, &path)?;
                    for (port, expr) in conns {
                        let pd = child.port(&port).ok_or_else(|| ElabError::BadConnection {
                            path: format!("{path}.{}", inst.name),
                            port: port.clone(),
                            why: "no such port".into(),
                        })?;
                        if matches!(pd.dir, Direction::Output | Direction::Inout) {
                            if let Some(expr) = expr {
                                Self::mark_expr_as_sink(
                                    &m.name,
                                    &path,
                                    &params,
                                    &widths,
                                    &mut drivers,
                                    &expr,
                                    || Driver::InstPort(idx),
                                )?;
                            }
                        }
                    }
                }
                Item::Always(ab) => {
                    let mut targets = Vec::new();
                    collect_targets(&ab.body, &mut targets);
                    for t in targets {
                        if !widths.contains_key(&t) {
                            return Err(ElabError::UnknownNet {
                                module: m.name.clone(),
                                net: t,
                            });
                        }
                        let w = widths[&t];
                        // Whole reg is driven by this block; allow the same
                        // block to be marked repeatedly (multiple statements).
                        let slots = drivers.get_mut(&t).expect("declared");
                        #[allow(clippy::needless_range_loop)]
                        for b in 0..w as usize {
                            match &slots[b] {
                                None => slots[b] = Some(Driver::Always(idx)),
                                Some(Driver::Always(j)) if *j == idx => {}
                                Some(_) => {
                                    return Err(ElabError::MultipleDrivers {
                                        path: path.clone(),
                                        net: format!("{t}[{b}]"),
                                    })
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(Scope {
            module: m,
            path,
            params,
            widths,
            values,
            drivers,
            resolving: HashSet::new(),
            insts_done: HashSet::new(),
            always_done: HashSet::new(),
        })
    }

    fn mark_lvalue(
        module: &str,
        path: &str,
        params: &BTreeMap<String, i64>,
        widths: &HashMap<String, u32>,
        drivers: &mut HashMap<String, Vec<Option<Driver>>>,
        lv: &LValue,
        mk: impl Fn() -> Driver + Copy,
    ) -> Result<(), ElabError> {
        match lv {
            LValue::Id(name) => {
                let w = *widths.get(name).ok_or_else(|| ElabError::UnknownNet {
                    module: module.to_string(),
                    net: name.clone(),
                })?;
                Self::mark_range(path, drivers, name, 0, w, mk)
            }
            LValue::Bit(name, idx) => {
                let i = const_eval(idx, params)
                    .ok_or_else(|| ElabError::NonConstant(format!("index of {name}")))?
                    as u32;
                Self::mark_range(path, drivers, name, i, i + 1, mk)
            }
            LValue::Part(name, msb, lsb) => {
                let m = const_eval(msb, params)
                    .ok_or_else(|| ElabError::NonConstant(format!("msb of {name}")))?
                    as u32;
                let l = const_eval(lsb, params)
                    .ok_or_else(|| ElabError::NonConstant(format!("lsb of {name}")))?
                    as u32;
                Self::mark_range(path, drivers, name, l, m + 1, mk)
            }
            LValue::Concat(parts) => {
                for p in parts {
                    Self::mark_lvalue(module, path, params, widths, drivers, p, mk)?;
                }
                Ok(())
            }
        }
    }

    /// Marks an instance output connection target as driven by the instance.
    fn mark_expr_as_sink(
        module: &str,
        path: &str,
        params: &BTreeMap<String, i64>,
        widths: &HashMap<String, u32>,
        drivers: &mut HashMap<String, Vec<Option<Driver>>>,
        e: &Expr,
        mk: impl Fn() -> Driver + Copy,
    ) -> Result<(), ElabError> {
        let lv = expr_to_lvalue(e).ok_or_else(|| {
            ElabError::Unsupported(format!(
                "instance output connected to non-lvalue expression in `{module}`"
            ))
        })?;
        Self::mark_lvalue(module, path, params, widths, drivers, &lv, mk)
    }

    fn mark_range(
        path: &str,
        drivers: &mut HashMap<String, Vec<Option<Driver>>>,
        name: &str,
        from: u32,
        to: u32,
        mk: impl Fn() -> Driver,
    ) -> Result<(), ElabError> {
        let slots = drivers
            .get_mut(name)
            .unwrap_or_else(|| panic!("net `{name}` missing from driver table"));
        for b in from..to {
            let slot = &mut slots[b as usize];
            if slot.is_some() {
                return Err(ElabError::MultipleDrivers {
                    path: path.to_string(),
                    net: format!("{name}[{b}]"),
                });
            }
            *slot = Some(mk());
        }
        Ok(())
    }

    /// Demand-driven resolution of one net bit.
    fn bit_value(
        &mut self,
        n: &mut Netlist,
        scope: &mut Scope<'_>,
        name: &str,
        bit: u32,
    ) -> Result<Lit, ElabError> {
        if let Some(Some(v)) = scope.values.get(name).and_then(|v| v.get(bit as usize)) {
            return Ok(*v);
        }
        let key = (name.to_string(), bit);
        if !scope.resolving.insert(key.clone()) {
            return Err(ElabError::CombLoop(format!("{}.{name}[{bit}]", scope.path)));
        }
        let driver = scope
            .drivers
            .get(name)
            .and_then(|d| d.get(bit as usize))
            .cloned()
            .flatten();
        let result = match driver {
            None => Err(ElabError::Undriven {
                path: scope.path.clone(),
                net: name.to_string(),
            }),
            Some(Driver::Assign(idx)) => {
                self.run_assign(n, scope, idx)?;
                Ok(())
            }
            Some(Driver::NetInit(idx)) => {
                self.run_net_init(n, scope, idx)?;
                Ok(())
            }
            Some(Driver::InstPort(idx)) => {
                self.run_instance(n, scope, idx)?;
                Ok(())
            }
            Some(Driver::Always(idx)) => {
                self.run_always(n, scope, idx)?;
                Ok(())
            }
        };
        scope.resolving.remove(&key);
        result?;
        scope
            .values
            .get(name)
            .and_then(|v| v.get(bit as usize))
            .copied()
            .flatten()
            .ok_or_else(|| ElabError::Undriven {
                path: scope.path.clone(),
                net: format!("{name}[{bit}]"),
            })
    }

    fn word_value(
        &mut self,
        n: &mut Netlist,
        scope: &mut Scope<'_>,
        name: &str,
    ) -> Result<Word, ElabError> {
        let w = *scope
            .widths
            .get(name)
            .ok_or_else(|| ElabError::UnknownNet {
                module: scope.module.name.clone(),
                net: name.to_string(),
            })?;
        (0..w).map(|b| self.bit_value(n, scope, name, b)).collect()
    }

    fn run_assign(
        &mut self,
        n: &mut Netlist,
        scope: &mut Scope<'_>,
        idx: usize,
    ) -> Result<(), ElabError> {
        let (lhs, rhs) = match &scope.module.items[idx] {
            Item::Assign(a) => (a.lhs.clone(), a.rhs.clone()),
            other => unreachable!("driver points at non-assign {other:?}"),
        };
        let lhs_width = self.lvalue_width(scope, &lhs)?;
        let mut value = self.eval_expr(n, scope, &rhs, None)?;
        value = words::resize(&value, lhs_width);
        self.store_lvalue(scope, &lhs, &value)
    }

    fn run_net_init(
        &mut self,
        n: &mut Netlist,
        scope: &mut Scope<'_>,
        idx: usize,
    ) -> Result<(), ElabError> {
        let (name, init) = match &scope.module.items[idx] {
            Item::Net(d) => (d.name.clone(), d.init.clone().expect("has init")),
            other => unreachable!("driver points at non-net {other:?}"),
        };
        let w = scope.widths[&name];
        let mut value = self.eval_expr(n, scope, &init, None)?;
        value = words::resize(&value, w);
        self.store_lvalue(scope, &LValue::Id(name), &value)
    }

    fn run_instance(
        &mut self,
        n: &mut Netlist,
        scope: &mut Scope<'_>,
        idx: usize,
    ) -> Result<(), ElabError> {
        if scope.insts_done.contains(&idx) {
            return Ok(());
        }
        scope.insts_done.insert(idx);
        let inst = match &scope.module.items[idx] {
            Item::Instance(i) => i.clone(),
            other => unreachable!("driver points at non-instance {other:?}"),
        };
        let child = self
            .file
            .module(&inst.module)
            .ok_or_else(|| ElabError::UnknownModule(inst.module.clone()))?;
        // Child parameters: defaults overridden by instance bindings.
        let mut cparams = default_params(child)?;
        for (pname, pval) in &inst.params {
            let v = const_eval(pval, &scope.params).ok_or_else(|| {
                ElabError::NonConstant(format!("parameter {pname} of {}", inst.name))
            })?;
            cparams.insert(pname.clone(), v);
        }
        let conns = normalize_conns(child, &inst, &scope.path)?;
        // Feed the child through buffer placeholders so that cross-instance
        // feedback (controller <-> datapath through registers) elaborates
        // without a resolution order; buffers are patched afterwards and a
        // global combinational-cycle check runs at the end of `elaborate`.
        let mut child_inputs = HashMap::new();
        let mut patches: Vec<(Word, Expr)> = Vec::new();
        for (port, expr) in &conns {
            let pd = child.port(port).expect("validated in build_scope");
            if pd.dir == Direction::Input {
                let w = port_width(&cparams, &pd.range)?;
                let word: Word = match expr {
                    Some(e) => {
                        let bufs: Word = (0..w).map(|_| n.buf_placeholder()).collect();
                        patches.push((bufs.clone(), e.clone()));
                        bufs
                    }
                    None => vec![Lit::FALSE; w as usize],
                };
                child_inputs.insert(port.clone(), word);
            }
        }
        let child_path = format!("{}.{}", scope.path, inst.name);
        let outputs = self.instantiate(n, child, cparams, child_inputs, child_path)?;
        // Store outputs into connected nets.
        for (port, expr) in &conns {
            let pd = child.port(port).expect("validated");
            if matches!(pd.dir, Direction::Output | Direction::Inout) {
                if let Some(e) = expr {
                    let lv = expr_to_lvalue(e).expect("validated in build_scope");
                    let w = self.lvalue_width(scope, &lv)?;
                    let value = words::resize(&outputs[port], w);
                    self.store_lvalue(scope, &lv, &value)?;
                }
            }
        }
        // Now resolve the actual input expressions and patch the buffers.
        for (bufs, expr) in patches {
            let v = self.eval_expr(n, scope, &expr, None)?;
            let v = words::resize(&v, bufs.len() as u32);
            for (b, src) in bufs.iter().zip(&v) {
                n.set_buf_input(*b, *src);
            }
        }
        Ok(())
    }

    fn run_always(
        &mut self,
        n: &mut Netlist,
        scope: &mut Scope<'_>,
        idx: usize,
    ) -> Result<(), ElabError> {
        if scope.always_done.contains(&idx) {
            return Ok(());
        }
        scope.always_done.insert(idx);
        let ab = match &scope.module.items[idx] {
            Item::Always(a) => a.clone(),
            other => unreachable!("driver points at non-always {other:?}"),
        };
        let mut targets = Vec::new();
        collect_targets(&ab.body, &mut targets);
        targets.sort();
        targets.dedup();
        match &ab.sensitivity {
            Sensitivity::Edges(edges) => {
                // Sequential: create DFFs for all target bits first so the
                // block can read its own registers.
                let mut qs: HashMap<String, Word> = HashMap::new();
                for t in &targets {
                    let w = scope.widths[t];
                    let q: Word = (0..w)
                        .map(|b| n.dff(format!("{}.{t}[{b}]", scope.path), false))
                        .collect();
                    let slot = scope.values.get_mut(t).expect("declared");
                    for (i, l) in q.iter().enumerate() {
                        slot[i] = Some(*l);
                    }
                    qs.insert(t.clone(), q);
                }
                // Symbolic execution computes next-state functions.
                let mut env: HashMap<String, Word> = HashMap::new();
                self.exec_stmt(n, scope, &ab.body, &mut env, true)?;
                // Edge-listed reset signals other than the clock are folded
                // in already (they appear as ordinary condition reads).
                let _ = edges;
                for t in &targets {
                    let q = &qs[t];
                    let d = match env.get(t) {
                        Some(v) => words::resize(v, q.len() as u32),
                        None => q.clone(), // never assigned: hold
                    };
                    for (qb, db) in q.iter().zip(&d) {
                        n.set_dff_input(*qb, *db);
                    }
                }
            }
            Sensitivity::Comb => {
                let mut env: HashMap<String, Word> = HashMap::new();
                self.exec_stmt(n, scope, &ab.body, &mut env, false)?;
                for t in &targets {
                    let w = scope.widths[t];
                    let v = env
                        .get(t)
                        .ok_or_else(|| ElabError::InferredLatch(t.clone()))?;
                    let v = words::resize(v, w);
                    let slot = scope.values.get_mut(t).expect("declared");
                    for (i, l) in v.iter().enumerate() {
                        if slot[i].is_some() {
                            return Err(ElabError::MultipleDrivers {
                                path: scope.path.clone(),
                                net: format!("{t}[{i}]"),
                            });
                        }
                        slot[i] = Some(*l);
                    }
                }
            }
        }
        Ok(())
    }

    /// Symbolically executes a statement, updating `env` with assigned
    /// values. `seq` selects the read-before-write fallback: register Q for
    /// sequential blocks, error (latch) for combinational ones.
    fn exec_stmt(
        &mut self,
        n: &mut Netlist,
        scope: &mut Scope<'_>,
        s: &Stmt,
        env: &mut HashMap<String, Word>,
        seq: bool,
    ) -> Result<(), ElabError> {
        match s {
            Stmt::Block(stmts) => {
                for st in stmts {
                    self.exec_stmt(n, scope, st, env, seq)?;
                }
                Ok(())
            }
            Stmt::Blocking(lv, rhs) | Stmt::NonBlocking(lv, rhs) => {
                let value = self.eval_expr(n, scope, rhs, Some(env))?;
                self.assign_in_env(n, scope, env, lv, &value, seq)
            }
            Stmt::If {
                cond,
                then_stmt,
                else_stmt,
            } => {
                let c = self.eval_expr(n, scope, cond, Some(env))?;
                let c = words::reduce_or(n, &c);
                let mut then_env = env.clone();
                self.exec_stmt(n, scope, then_stmt, &mut then_env, seq)?;
                let mut else_env = env.clone();
                if let Some(e) = else_stmt {
                    self.exec_stmt(n, scope, e, &mut else_env, seq)?;
                }
                self.merge_envs(n, scope, env, c, then_env, else_env, seq)
            }
            Stmt::Case {
                expr,
                arms,
                default,
            } => {
                // Desugar to an if-else chain, last arm first.
                let scrut = self.eval_expr(n, scope, expr, Some(env))?;
                let mut base_env = env.clone();
                if let Some(d) = default {
                    self.exec_stmt(n, scope, d, &mut base_env, seq)?;
                }
                for arm in arms.iter().rev() {
                    let mut cond = Lit::FALSE;
                    for label in &arm.labels {
                        let lv = self.eval_expr(n, scope, label, Some(env))?;
                        let e = words::eq(n, &scrut, &lv);
                        cond = n.or(cond, e);
                    }
                    let mut arm_env = env.clone();
                    self.exec_stmt(n, scope, &arm.body, &mut arm_env, seq)?;
                    let mut merged = env.clone();
                    self.merge_envs(n, scope, &mut merged, cond, arm_env, base_env, seq)?;
                    base_env = merged;
                }
                *env = base_env;
                Ok(())
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn merge_envs(
        &mut self,
        n: &mut Netlist,
        scope: &mut Scope<'_>,
        env: &mut HashMap<String, Word>,
        cond: Lit,
        then_env: HashMap<String, Word>,
        else_env: HashMap<String, Word>,
        seq: bool,
    ) -> Result<(), ElabError> {
        let mut keys: Vec<&String> = then_env.keys().chain(else_env.keys()).collect();
        keys.sort();
        keys.dedup();
        let keys: Vec<String> = keys.into_iter().cloned().collect();
        for t in keys {
            let w = *scope.widths.get(&t).ok_or_else(|| ElabError::UnknownNet {
                module: scope.module.name.clone(),
                net: t.clone(),
            })?;
            let fallback = |me: &mut Self,
                            n: &mut Netlist,
                            scope: &mut Scope<'_>|
             -> Result<Word, ElabError> {
                if seq {
                    me.word_value(n, scope, &t)
                } else {
                    Err(ElabError::InferredLatch(t.clone()))
                }
            };
            let tv = match then_env.get(&t) {
                Some(v) => words::resize(v, w),
                None => match env.get(&t) {
                    Some(v) => words::resize(v, w),
                    None => fallback(self, n, scope)?,
                },
            };
            let ev = match else_env.get(&t) {
                Some(v) => words::resize(v, w),
                None => match env.get(&t) {
                    Some(v) => words::resize(v, w),
                    None => fallback(self, n, scope)?,
                },
            };
            let merged = words::mux(n, cond, &tv, &ev);
            env.insert(t, merged);
        }
        Ok(())
    }

    fn assign_in_env(
        &mut self,
        n: &mut Netlist,
        scope: &mut Scope<'_>,
        env: &mut HashMap<String, Word>,
        lv: &LValue,
        value: &Word,
        seq: bool,
    ) -> Result<(), ElabError> {
        match lv {
            LValue::Id(name) => {
                let w = *scope
                    .widths
                    .get(name)
                    .ok_or_else(|| ElabError::UnknownNet {
                        module: scope.module.name.clone(),
                        net: name.clone(),
                    })?;
                env.insert(name.clone(), words::resize(value, w));
                Ok(())
            }
            LValue::Bit(name, idx) => {
                let i = const_eval(idx, &scope.params)
                    .ok_or_else(|| ElabError::NonConstant(format!("index of {name}")))?
                    as usize;
                let mut cur = self.read_target(n, scope, env, name, seq)?;
                if i < cur.len() {
                    cur[i] = value.first().copied().unwrap_or(Lit::FALSE);
                }
                env.insert(name.clone(), cur);
                Ok(())
            }
            LValue::Part(name, msb, lsb) => {
                let m = const_eval(msb, &scope.params)
                    .ok_or_else(|| ElabError::NonConstant(format!("msb of {name}")))?
                    as usize;
                let l = const_eval(lsb, &scope.params)
                    .ok_or_else(|| ElabError::NonConstant(format!("lsb of {name}")))?
                    as usize;
                let mut cur = self.read_target(n, scope, env, name, seq)?;
                for (k, b) in (l..=m).enumerate() {
                    if b < cur.len() {
                        cur[b] = value.get(k).copied().unwrap_or(Lit::FALSE);
                    }
                }
                env.insert(name.clone(), cur);
                Ok(())
            }
            LValue::Concat(parts) => {
                // Verilog concat lvalue: MSB-first; assign from the top.
                let mut offset = 0usize;
                let total: u32 = parts
                    .iter()
                    .map(|p| self.lvalue_width(scope, p))
                    .sum::<Result<u32, _>>()?;
                let value = words::resize(value, total);
                for p in parts.iter().rev() {
                    let w = self.lvalue_width(scope, p)? as usize;
                    let chunk: Word = value[offset..offset + w].to_vec();
                    self.assign_in_env(n, scope, env, p, &chunk, seq)?;
                    offset += w;
                }
                Ok(())
            }
        }
    }

    /// Reads a target's current value during symbolic execution.
    fn read_target(
        &mut self,
        n: &mut Netlist,
        scope: &mut Scope<'_>,
        env: &HashMap<String, Word>,
        name: &str,
        seq: bool,
    ) -> Result<Word, ElabError> {
        if let Some(v) = env.get(name) {
            return Ok(v.clone());
        }
        if seq {
            self.word_value(n, scope, name)
        } else {
            // Partial bit-assigns before full init in a comb block would
            // infer a latch.
            Err(ElabError::InferredLatch(name.to_string()))
        }
    }

    fn lvalue_width(&self, scope: &Scope<'_>, lv: &LValue) -> Result<u32, ElabError> {
        match lv {
            LValue::Id(name) => {
                scope
                    .widths
                    .get(name)
                    .copied()
                    .ok_or_else(|| ElabError::UnknownNet {
                        module: scope.module.name.clone(),
                        net: name.clone(),
                    })
            }
            LValue::Bit(..) => Ok(1),
            LValue::Part(name, msb, lsb) => {
                let m = const_eval(msb, &scope.params)
                    .ok_or_else(|| ElabError::NonConstant(format!("msb of {name}")))?;
                let l = const_eval(lsb, &scope.params)
                    .ok_or_else(|| ElabError::NonConstant(format!("lsb of {name}")))?;
                Ok((m - l).unsigned_abs() as u32 + 1)
            }
            LValue::Concat(parts) => parts.iter().map(|p| self.lvalue_width(scope, p)).sum(),
        }
    }

    fn store_lvalue(
        &mut self,
        scope: &mut Scope<'_>,
        lv: &LValue,
        value: &Word,
    ) -> Result<(), ElabError> {
        match lv {
            LValue::Id(name) => {
                let slot = scope
                    .values
                    .get_mut(name)
                    .ok_or_else(|| ElabError::UnknownNet {
                        module: scope.module.name.clone(),
                        net: name.clone(),
                    })?;
                for (i, l) in value.iter().enumerate() {
                    if i < slot.len() {
                        slot[i] = Some(*l);
                    }
                }
                Ok(())
            }
            LValue::Bit(name, idx) => {
                let i = const_eval(idx, &scope.params)
                    .ok_or_else(|| ElabError::NonConstant(format!("index of {name}")))?
                    as usize;
                let slot = scope.values.get_mut(name).expect("declared");
                slot[i] = Some(value.first().copied().unwrap_or(Lit::FALSE));
                Ok(())
            }
            LValue::Part(name, msb, lsb) => {
                let m = const_eval(msb, &scope.params)
                    .ok_or_else(|| ElabError::NonConstant(format!("msb of {name}")))?
                    as usize;
                let l = const_eval(lsb, &scope.params)
                    .ok_or_else(|| ElabError::NonConstant(format!("lsb of {name}")))?
                    as usize;
                let slot = scope.values.get_mut(name).expect("declared");
                for (k, b) in (l..=m).enumerate() {
                    slot[b] = Some(value.get(k).copied().unwrap_or(Lit::FALSE));
                }
                Ok(())
            }
            LValue::Concat(parts) => {
                let mut offset = 0usize;
                for p in parts.iter().rev() {
                    let w = self.lvalue_width(scope, p)? as usize;
                    let chunk: Word = value
                        .iter()
                        .skip(offset)
                        .take(w)
                        .copied()
                        .chain(std::iter::repeat(Lit::FALSE))
                        .take(w)
                        .collect();
                    self.store_lvalue(scope, p, &chunk)?;
                    offset += w;
                }
                Ok(())
            }
        }
    }

    /// Evaluates an expression to a word. `env` (when inside an always
    /// block) shadows net reads with in-flight assignments.
    fn eval_expr(
        &mut self,
        n: &mut Netlist,
        scope: &mut Scope<'_>,
        e: &Expr,
        env: Option<&HashMap<String, Word>>,
    ) -> Result<Word, ElabError> {
        match e {
            Expr::Id(name) => {
                if let Some(env) = env {
                    if let Some(v) = env.get(name) {
                        return Ok(v.clone());
                    }
                }
                if let Some(&pv) = scope.params.get(name) {
                    return Ok(words::const_word(&Bits::from_u64(pv as u64, 32)));
                }
                self.word_value(n, scope, name)
            }
            Expr::Literal(num) => Ok(words::const_word(&num.value)),
            Expr::Unary(op, a) => {
                let av = self.eval_expr(n, scope, a, env)?;
                Ok(match op {
                    UnaryOp::Not => words::not(&av),
                    UnaryOp::LogicNot => vec![words::reduce_or(n, &av).compl()],
                    UnaryOp::Neg => words::neg(n, &av),
                    UnaryOp::RedAnd => vec![words::reduce_and(n, &av)],
                    UnaryOp::RedOr => vec![words::reduce_or(n, &av)],
                    UnaryOp::RedXor => vec![words::reduce_xor(n, &av)],
                    UnaryOp::RedNand => vec![words::reduce_and(n, &av).compl()],
                    UnaryOp::RedNor => vec![words::reduce_or(n, &av).compl()],
                    UnaryOp::RedXnor => vec![words::reduce_xor(n, &av).compl()],
                })
            }
            Expr::Binary(..) => {
                // A left-deep chain (`a + b + c + …`) is walked along its
                // left spine without recursing, so a long chain costs
                // stack only for its right operands.
                let mut spine = Vec::new();
                let mut leftmost = e;
                while let Expr::Binary(op, a, b) = leftmost {
                    spine.push((*op, &**b));
                    leftmost = a;
                }
                let mut acc = self.eval_expr(n, scope, leftmost, env)?;
                for (op, b) in spine.into_iter().rev() {
                    let bv = self.eval_expr(n, scope, b, env)?;
                    acc = binary_word(n, op, &acc, &bv);
                }
                Ok(acc)
            }
            Expr::Ternary(c, t, f) => {
                let cv = self.eval_expr(n, scope, c, env)?;
                let cl = words::reduce_or(n, &cv);
                let tv = self.eval_expr(n, scope, t, env)?;
                let fv = self.eval_expr(n, scope, f, env)?;
                Ok(words::mux(n, cl, &tv, &fv))
            }
            Expr::Bit(base, idx) => {
                let bv = self.eval_expr(n, scope, base, env)?;
                match self.try_const(scope, idx) {
                    Some(i) => Ok(vec![bv.get(i as usize).copied().unwrap_or(Lit::FALSE)]),
                    None => {
                        let iv = self.eval_expr(n, scope, idx, env)?;
                        Ok(vec![words::bit_select(n, &bv, &iv)])
                    }
                }
            }
            Expr::Part(base, msb, lsb) => {
                let bv = self.eval_expr(n, scope, base, env)?;
                let m = self
                    .try_const(scope, msb)
                    .ok_or_else(|| ElabError::NonConstant("part-select msb".into()))?
                    as usize;
                let l = self
                    .try_const(scope, lsb)
                    .ok_or_else(|| ElabError::NonConstant("part-select lsb".into()))?
                    as usize;
                Ok((l..=m)
                    .map(|i| bv.get(i).copied().unwrap_or(Lit::FALSE))
                    .collect())
            }
            Expr::Concat(parts) => {
                // Verilog concat: first element is MSB.
                let mut out = Vec::new();
                for p in parts.iter().rev() {
                    let v = self.eval_expr(n, scope, p, env)?;
                    out.extend(v);
                }
                Ok(out)
            }
            Expr::Repeat(count, parts) => {
                let k = self
                    .try_const(scope, count)
                    .ok_or_else(|| ElabError::NonConstant("replication count".into()))?;
                let mut unit = Vec::new();
                for p in parts.iter().rev() {
                    let v = self.eval_expr(n, scope, p, env)?;
                    unit.extend(v);
                }
                let mut out = Vec::new();
                for _ in 0..k {
                    out.extend(unit.iter().copied());
                }
                Ok(out)
            }
        }
    }

    fn try_const(&self, scope: &Scope<'_>, e: &Expr) -> Option<i64> {
        const_eval(e, &scope.params)
    }
}

/// Lowers `av op bv` to a word.
fn binary_word(n: &mut Netlist, op: BinaryOp, av: &Word, bv: &Word) -> Word {
    match op {
        BinaryOp::And => words::and(n, av, bv),
        BinaryOp::Or => words::or(n, av, bv),
        BinaryOp::Xor => words::xor(n, av, bv),
        BinaryOp::Xnor => words::not(&words::xor(n, av, bv)),
        BinaryOp::LogicAnd => {
            let ar = words::reduce_or(n, av);
            let br = words::reduce_or(n, bv);
            vec![n.and(ar, br)]
        }
        BinaryOp::LogicOr => {
            let ar = words::reduce_or(n, av);
            let br = words::reduce_or(n, bv);
            vec![n.or(ar, br)]
        }
        BinaryOp::Eq => vec![words::eq(n, av, bv)],
        BinaryOp::Ne => vec![words::eq(n, av, bv).compl()],
        BinaryOp::Lt => vec![words::lt(n, av, bv)],
        BinaryOp::Ge => vec![words::lt(n, av, bv).compl()],
        BinaryOp::Gt => vec![words::lt(n, bv, av)],
        BinaryOp::Le => vec![words::lt(n, bv, av).compl()],
        BinaryOp::Add => words::add(n, av, bv),
        BinaryOp::Sub => words::sub(n, av, bv),
        BinaryOp::Mul => words::mul(n, av, bv),
        BinaryOp::Shl => match word_as_const(bv) {
            Some(amt) => words::shl_const(av, amt as u32),
            None => words::shl_dyn(n, av, bv),
        },
        BinaryOp::Shr => match word_as_const(bv) {
            Some(amt) => words::shr_const(av, amt as u32),
            None => words::shr_dyn(n, av, bv),
        },
        BinaryOp::Div | BinaryOp::Mod => match word_as_const(bv) {
            // Power-of-two divisors stay pure wiring.
            Some(amt) if amt.is_power_of_two() => {
                let k = amt.trailing_zeros();
                if op == BinaryOp::Div {
                    words::shr_const(av, k)
                } else {
                    let mut v = av.clone();
                    v.truncate(k as usize);
                    v
                }
            }
            // Everything else lowers to a restoring divider
            // array (constant non-power-of-two divisors
            // included — constant folding inside the netlist
            // builder collapses their compare rows).
            _ => {
                let (q, r) = words::divmod(n, av, bv);
                if op == BinaryOp::Div {
                    q
                } else {
                    r
                }
            }
        },
    }
}

fn word_as_const(w: &Word) -> Option<u64> {
    let mut v: u64 = 0;
    for (i, l) in w.iter().enumerate() {
        if *l == Lit::TRUE {
            if i < 64 {
                v |= 1 << i;
            } else {
                return None;
            }
        } else if *l != Lit::FALSE {
            return None;
        }
    }
    Some(v)
}

/// Collects the assignment targets of a statement tree.
fn collect_targets(s: &Stmt, out: &mut Vec<String>) {
    match s {
        Stmt::Block(ss) => ss.iter().for_each(|s| collect_targets(s, out)),
        Stmt::If {
            then_stmt,
            else_stmt,
            ..
        } => {
            collect_targets(then_stmt, out);
            if let Some(e) = else_stmt {
                collect_targets(e, out);
            }
        }
        Stmt::Case { arms, default, .. } => {
            for a in arms {
                collect_targets(&a.body, out);
            }
            if let Some(d) = default {
                collect_targets(d, out);
            }
        }
        Stmt::Blocking(lv, _) | Stmt::NonBlocking(lv, _) => {
            out.extend(lv.targets().iter().map(|s| s.to_string()));
        }
    }
}

/// Converts an expression used as an instance output connection into an
/// lvalue (nets, bit/part selects, concats).
fn expr_to_lvalue(e: &Expr) -> Option<LValue> {
    match e {
        Expr::Id(s) => Some(LValue::Id(s.clone())),
        Expr::Bit(b, i) => match b.as_ref() {
            Expr::Id(s) => Some(LValue::Bit(s.clone(), (**i).clone())),
            _ => None,
        },
        Expr::Part(b, m, l) => match b.as_ref() {
            Expr::Id(s) => Some(LValue::Part(s.clone(), (**m).clone(), (**l).clone())),
            _ => None,
        },
        Expr::Concat(parts) => {
            let lvs: Option<Vec<LValue>> = parts.iter().map(expr_to_lvalue).collect();
            Some(LValue::Concat(lvs?))
        }
        _ => None,
    }
}

/// Normalizes instance connections to `(port_name, Option<Expr>)` pairs.
fn normalize_conns(
    child: &Module,
    inst: &Instance,
    path: &str,
) -> Result<Vec<(String, Option<Expr>)>, ElabError> {
    match &inst.conns {
        PortConns::Named(named) => Ok(named.clone()),
        PortConns::Ordered(exprs) => {
            if exprs.len() > child.ports.len() {
                return Err(ElabError::BadConnection {
                    path: format!("{path}.{}", inst.name),
                    port: "<ordered>".into(),
                    why: format!(
                        "{} connections for {} ports",
                        exprs.len(),
                        child.ports.len()
                    ),
                });
            }
            Ok(child
                .ports
                .iter()
                .zip(exprs.iter())
                .map(|(p, e)| (p.name.clone(), Some(e.clone())))
                .collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use alice_verilog::parse_source;

    fn build(src: &str, top: &str) -> Netlist {
        let f = parse_source(src).expect("parse");
        elaborate(&f, top).expect("elaborate")
    }

    #[test]
    fn input_at_the_nesting_limit_elaborates_on_a_worker_stack() {
        // The deepest expressions the parser accepts must also get
        // through elaboration on a 2 MiB thread, the stack a `par`
        // worker runs a design on (32 MiB unoptimized, whose frames are
        // several times larger).
        let depth = alice_verilog::parser::MAX_NESTING - 1;
        let parens = format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        let chain = vec!["a"; depth + 1].join(" ^ ");
        let src = format!(
            "module m(input wire a, output wire y, output wire z); \
             assign y = {parens}; assign z = {chain}; endmodule"
        );
        let mib = if cfg!(debug_assertions) { 32 } else { 2 };
        let n = std::thread::Builder::new()
            .stack_size(mib << 20)
            .spawn(move || build(&src, "m"))
            .expect("spawn")
            .join()
            .expect("no stack overflow");
        let a = Lit::new(n.inputs[0].1[0], false);
        assert_eq!(n.outputs[0].1[0], a);
        let parity = if (depth + 1) % 2 == 1 { a } else { Lit::FALSE };
        assert_eq!(
            n.outputs[1].1[0], parity,
            "`a ^ a ^ …` is the term count's parity"
        );
    }

    #[test]
    fn a_thousand_term_chain_elaborates_on_a_worker_stack() {
        // Elaboration walks a chain's left spine in a loop, so a long
        // chain needs no deep stack even unoptimized.
        let src = format!(
            "module m(input wire [7:0] a, input wire [7:0] b, output wire [7:0] y); \
             assign y = {} - b; endmodule",
            vec!["a"; 1_000].join(" + ")
        );
        let n = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || build(&src, "m"))
            .expect("spawn")
            .join()
            .expect("no stack overflow");
        let mut sim = Simulator::new(&n);
        sim.set_input("a", &Bits::from_u64(0x5a, 8));
        sim.set_input("b", &Bits::from_u64(0x13, 8));
        sim.settle();
        assert_eq!(sim.output("y").to_u64(), Some((1_000 * 0x5a - 0x13) & 0xff));
    }

    #[test]
    fn combinational_assign() {
        let n = build(
            "module m(input wire [3:0] a, input wire [3:0] b, output wire [3:0] y);\
             assign y = (a & b) | (~a & ~b); endmodule",
            "m",
        );
        let mut sim = Simulator::new(&n);
        sim.set_input("a", &Bits::from_u64(0b1100, 4));
        sim.set_input("b", &Bits::from_u64(0b1010, 4));
        sim.settle();
        assert_eq!(sim.output("y").to_u64(), Some(0b1001));
    }

    #[test]
    fn arithmetic_and_comparison() {
        let n = build(
            "module m(input wire [7:0] a, input wire [7:0] b, output wire [7:0] s, output wire lt);\
             assign s = a + b; assign lt = a < b; endmodule",
            "m",
        );
        let mut sim = Simulator::new(&n);
        sim.set_input("a", &Bits::from_u64(100, 8));
        sim.set_input("b", &Bits::from_u64(57, 8));
        sim.settle();
        assert_eq!(sim.output("s").to_u64(), Some(157));
        assert_eq!(sim.output("lt").to_u64(), Some(0));
    }

    #[test]
    fn hierarchical_instances() {
        let src = r#"
module full_add(input wire a, input wire b, input wire ci, output wire s, output wire co);
  assign s = a ^ b ^ ci;
  assign co = (a & b) | (ci & (a ^ b));
endmodule
module add2(input wire [1:0] a, input wire [1:0] b, output wire [2:0] y);
  wire c0;
  full_add f0(.a(a[0]), .b(b[0]), .ci(1'b0), .s(y[0]), .co(c0));
  full_add f1(.a(a[1]), .b(b[1]), .ci(c0), .s(y[1]), .co(y[2]));
endmodule
"#;
        let n = build(src, "add2");
        let mut sim = Simulator::new(&n);
        for a in 0..4u64 {
            for b in 0..4u64 {
                sim.set_input("a", &Bits::from_u64(a, 2));
                sim.set_input("b", &Bits::from_u64(b, 2));
                sim.settle();
                assert_eq!(sim.output("y").to_u64(), Some(a + b), "{a}+{b}");
            }
        }
    }

    #[test]
    fn sequential_register_with_sync_reset() {
        let src = r#"
module reg8(input wire clk, input wire rst, input wire [7:0] d, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst) q <= 8'd0;
    else q <= d;
  end
endmodule
"#;
        let n = build(src, "reg8");
        let mut sim = Simulator::new(&n);
        sim.set_input("rst", &Bits::from_u64(0, 1));
        sim.set_input("d", &Bits::from_u64(42, 8));
        sim.step();
        assert_eq!(sim.output("q").to_u64(), Some(42));
        sim.set_input("rst", &Bits::from_u64(1, 1));
        sim.step();
        assert_eq!(sim.output("q").to_u64(), Some(0));
    }

    #[test]
    fn comb_always_with_case() {
        let src = r#"
module dec(input wire [1:0] s, output reg [3:0] y);
  always @(*) begin
    case (s)
      2'd0: y = 4'b0001;
      2'd1: y = 4'b0010;
      2'd2: y = 4'b0100;
      default: y = 4'b1000;
    endcase
  end
endmodule
"#;
        let n = build(src, "dec");
        let mut sim = Simulator::new(&n);
        for (s, y) in [(0u64, 1u64), (1, 2), (2, 4), (3, 8)] {
            sim.set_input("s", &Bits::from_u64(s, 2));
            sim.settle();
            assert_eq!(sim.output("y").to_u64(), Some(y), "case {s}");
        }
    }

    #[test]
    fn latch_inference_is_rejected() {
        let src = r#"
module bad(input wire c, input wire d, output reg q);
  always @(*) begin
    if (c) q = d;
  end
endmodule
"#;
        let f = parse_source(src).expect("parse");
        let err = elaborate(&f, "bad").unwrap_err();
        assert!(matches!(err, ElabError::InferredLatch(_)), "{err}");
    }

    #[test]
    fn comb_default_then_override_is_fine() {
        let src = r#"
module ok(input wire c, input wire d, output reg q);
  always @(*) begin
    q = 1'b0;
    if (c) q = d;
  end
endmodule
"#;
        let n = build(src, "ok");
        let mut sim = Simulator::new(&n);
        sim.set_input("c", &Bits::from_u64(1, 1));
        sim.set_input("d", &Bits::from_u64(1, 1));
        sim.settle();
        assert_eq!(sim.output("q").to_u64(), Some(1));
        sim.set_input("c", &Bits::from_u64(0, 1));
        sim.settle();
        assert_eq!(sim.output("q").to_u64(), Some(0));
    }

    #[test]
    fn undriven_net_is_rejected() {
        let src = "module u(output wire y); wire a; assign y = a; endmodule";
        let f = parse_source(src).expect("parse");
        assert!(matches!(
            elaborate(&f, "u").unwrap_err(),
            ElabError::Undriven { .. }
        ));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let src = "module d(input wire a, output wire y); assign y = a; assign y = ~a; endmodule";
        let f = parse_source(src).expect("parse");
        assert!(matches!(
            elaborate(&f, "d").unwrap_err(),
            ElabError::MultipleDrivers { .. }
        ));
    }

    #[test]
    fn comb_loop_detected() {
        let src = "module l(output wire y); wire a; wire b; assign a = ~b; assign b = ~a; assign y = a; endmodule";
        let f = parse_source(src).expect("parse");
        assert!(matches!(
            elaborate(&f, "l").unwrap_err(),
            ElabError::CombLoop(_)
        ));
    }

    #[test]
    fn parameterized_instance() {
        let src = r#"
module pass #(parameter W = 2) (input wire [W-1:0] a, output wire [W-1:0] y);
  assign y = a;
endmodule
module top(input wire [7:0] x, output wire [7:0] z);
  pass #(.W(8)) p0 (.a(x), .y(z));
endmodule
"#;
        let n = build(src, "top");
        let mut sim = Simulator::new(&n);
        sim.set_input("x", &Bits::from_u64(0x5a, 8));
        sim.settle();
        assert_eq!(sim.output("z").to_u64(), Some(0x5a));
    }

    #[test]
    fn concat_and_partselect_routing() {
        let src = r#"
module swz(input wire [7:0] a, output wire [7:0] y);
  assign y = {a[3:0], a[7:4]};
endmodule
"#;
        let n = build(src, "swz");
        let mut sim = Simulator::new(&n);
        sim.set_input("a", &Bits::from_u64(0xab, 8));
        sim.settle();
        assert_eq!(sim.output("y").to_u64(), Some(0xba));
    }

    #[test]
    fn counter_with_enable() {
        let src = r#"
module cnt(input wire clk, input wire rst, input wire en, output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 4'd0;
    else if (en) q <= q + 4'd1;
  end
endmodule
"#;
        let n = build(src, "cnt");
        let mut sim = Simulator::new(&n);
        sim.set_input("rst", &Bits::from_u64(1, 1));
        sim.set_input("en", &Bits::from_u64(0, 1));
        sim.step();
        sim.set_input("rst", &Bits::from_u64(0, 1));
        sim.set_input("en", &Bits::from_u64(1, 1));
        for expect in 1..=5u64 {
            sim.step();
            assert_eq!(sim.output("q").to_u64(), Some(expect));
        }
        sim.set_input("en", &Bits::from_u64(0, 1));
        sim.step();
        assert_eq!(sim.output("q").to_u64(), Some(5), "hold when disabled");
    }

    #[test]
    fn instance_output_to_concat() {
        let src = r#"
module pair(output wire [1:0] y);
  assign y = 2'b10;
endmodule
module top(output wire a, output wire b);
  pair p(.y({a, b}));
endmodule
"#;
        let n = build(src, "top");
        let mut sim = Simulator::new(&n);
        sim.settle();
        assert_eq!(sim.output("a").to_u64(), Some(1));
        assert_eq!(sim.output("b").to_u64(), Some(0));
    }
}
