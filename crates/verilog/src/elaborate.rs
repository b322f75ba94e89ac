//! Elaboration: AST → gate-level [`Netlist`].
//!
//! Hierarchy is flattened during elaboration (the paper's §III-C *module
//! unpacking*): every instance is inlined into one flat netlist so the LUT
//! mapper can grab logic across module boundaries. Vectors are bit-blasted;
//! operators are synthesized through [`WordOps`]. Forward references are
//! resolved with placeholder nets connected by buffers, which
//! [`c2nn_netlist::collapse_buffers`] removes at the end.

use crate::ast::*;
use crate::constexpr::{const_width, eval_const};
use c2nn_netlist::{collapse_buffers, Net, Netlist, NetlistBuilder, WordOps};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Elaboration error with instance path context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElabError {
    pub message: String,
    pub path: String,
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "elaboration error in {}: {}", self.path, self.message)
    }
}

impl std::error::Error for ElabError {}

/// A declared signal: placeholder nets (LSB first) plus addressing info.
#[derive(Clone, Debug)]
struct Sig {
    nets: Vec<Net>,
    /// Declared LSB index (`wire [7:4] x` has lsb = 4).
    lsb: i64,
    is_reg: bool,
    init: u64,
}

impl Sig {
    fn width(&self) -> usize {
        self.nets.len()
    }
}

/// A memory array: `depth` words, each a register signal stored in the
/// scope under the synthetic key produced by [`mem_word_key`].
#[derive(Clone, Debug)]
struct MemInfo {
    width: usize,
    depth: usize,
}

/// Scope key for word `w` of memory `name` (cannot collide with user
/// identifiers because of the control-character separator).
fn mem_word_key(name: &str, w: usize) -> String {
    format!("{name}\x01{w}")
}

/// Per-module-instance scope.
struct Scope {
    params: HashMap<String, i64>,
    signals: HashMap<String, Sig>,
    memories: HashMap<String, MemInfo>,
}

/// How an instance's ports are bound by its parent (absent = top level).
enum Binding {
    /// Input port: the parent-provided nets.
    Input(Vec<Net>),
    /// Output port: parent destination nets (None = unconnected).
    Output(Option<Vec<Net>>),
}

/// Shadow environment for procedural blocks: signal name → current value.
/// Ordered, because a block's flip-flops and connections are emitted by
/// iterating it: with a hashed map the netlist — and every compiled model
/// byte after it — would follow the process's random hash seed.
type ProcEnv = BTreeMap<String, Vec<Net>>;

struct Elab<'a> {
    mods: HashMap<&'a str, &'a Module>,
    b: NetlistBuilder,
    /// net → clock id (clocks are identified by the driving net).
    clock_ids: HashMap<Net, u32>,
    path: Vec<String>,
}

/// Elaborate `top` (and everything it instantiates) into a flat netlist.
pub fn elaborate(file: &SourceFile, top: &str) -> Result<Netlist, ElabError> {
    let mut mods = HashMap::new();
    for m in &file.modules {
        if mods.insert(m.name.as_str(), m).is_some() {
            return Err(ElabError {
                message: format!("duplicate module '{}'", m.name),
                path: top.to_string(),
            });
        }
    }
    let top_mod = *mods.get(top).ok_or_else(|| ElabError {
        message: format!("top module '{top}' not found"),
        path: top.to_string(),
    })?;
    let mut e = Elab {
        mods,
        b: NetlistBuilder::new(top),
        clock_ids: HashMap::new(),
        path: vec![top.to_string()],
    };
    e.elab_module(top_mod, &HashMap::new(), None)?;
    let mut nl = e.b.finish().map_err(|err| ElabError {
        message: err.to_string(),
        path: top.to_string(),
    })?;
    nl = strip_clock_inputs(nl, &e.clock_ids).map_err(|m| ElabError {
        message: m,
        path: top.to_string(),
    })?;
    let nl = collapse_buffers(&nl);
    nl.validate().map_err(|err| ElabError {
        message: err.to_string(),
        path: top.to_string(),
    })?;
    Ok(nl)
}

/// Remove primary inputs that serve purely as clocks; error on gated clocks
/// (clock nets driven by logic) or clocks also used as data.
fn strip_clock_inputs(mut nl: Netlist, clock_ids: &HashMap<Net, u32>) -> Result<Netlist, String> {
    if clock_ids.is_empty() {
        return Ok(nl);
    }
    let drivers = nl.drivers().map_err(|e| e.to_string())?;
    let fanout = c2nn_netlist::fanout_counts(&nl);
    for &net in clock_ids.keys() {
        match drivers[net.index()] {
            c2nn_netlist::Driver::Input(_) => {}
            _ => {
                return Err(format!(
                    "clock net {net:?} is driven by logic; gated/derived clocks are unsupported"
                ))
            }
        }
        if fanout[net.index()] != 0 {
            return Err(format!(
                "clock net {net:?} is also read as data; clocks must be dedicated"
            ));
        }
    }
    nl.inputs.retain(|n| !clock_ids.contains_key(n));
    Ok(nl)
}

impl<'a> Elab<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ElabError> {
        Err(ElabError {
            message: msg.into(),
            path: self.path.join("."),
        })
    }

    fn range_width(
        &self,
        range: &Option<(Expr, Expr)>,
        params: &HashMap<String, i64>,
    ) -> Result<(usize, i64), ElabError> {
        match range {
            None => Ok((1, 0)),
            Some((msb_e, lsb_e)) => {
                let msb = eval_const(msb_e, params)
                    .ok_or_else(|| self.err::<()>("non-constant range bound").unwrap_err())?;
                let lsb = eval_const(lsb_e, params)
                    .ok_or_else(|| self.err::<()>("non-constant range bound").unwrap_err())?;
                if msb < lsb {
                    return self.err(format!("descending range [{msb}:{lsb}] not supported"));
                }
                Ok(((msb - lsb + 1) as usize, lsb))
            }
        }
    }

    fn elab_module(
        &mut self,
        m: &'a Module,
        overrides: &HashMap<String, i64>,
        bindings: Option<HashMap<String, Binding>>,
    ) -> Result<(), ElabError> {
        if self.path.len() > 64 {
            return self.err("instance hierarchy too deep (recursive modules?)");
        }
        // 1. parameters
        let mut params: HashMap<String, i64> = HashMap::new();
        for p in &m.params {
            let v = match overrides.get(&p.name) {
                Some(&v) if !p.local => v,
                _ => eval_const(&p.value, &params).ok_or_else(|| {
                    self.err::<()>(format!("non-constant parameter '{}'", p.name))
                        .unwrap_err()
                })?,
            };
            params.insert(p.name.clone(), v);
        }
        for item in &m.items {
            if let Item::Param(p) = item {
                let v = match overrides.get(&p.name) {
                    Some(&v) if !p.local => v,
                    _ => eval_const(&p.value, &params).ok_or_else(|| {
                        self.err::<()>(format!("non-constant parameter '{}'", p.name))
                            .unwrap_err()
                    })?,
                };
                params.insert(p.name.clone(), v);
            }
        }

        // 2. signals: ports first, then body declarations
        let mut signals: HashMap<String, Sig> = HashMap::new();
        // deferred output-port connections for instance mode: (src, dst)
        let mut out_connects: Vec<(Vec<Net>, Vec<Net>)> = Vec::new();
        // deferred top-level output registration: (name, nets)
        let mut top_outputs: Vec<(String, Vec<Net>)> = Vec::new();
        let hier = self.path.join(".");
        for port in &m.ports {
            let (w, lsb) = self.range_width(&port.range, &params)?;
            let nets: Vec<Net> = match (&bindings, port.direction) {
                (None, Direction::Input) => {
                    // top-level primary input
                    if w == 1 {
                        vec![self.b.input(&port.name)]
                    } else {
                        self.b.input_word(&port.name, w)
                    }
                }
                (None, Direction::Output) => {
                    let nets = self.b.fresh_word(&format!("{hier}.{}", port.name), w);
                    top_outputs.push((port.name.clone(), nets.clone()));
                    nets
                }
                (Some(b), Direction::Input) => match b.get(&port.name) {
                    Some(Binding::Input(src)) => {
                        let src = src.clone();
                        self.b.resize_word(&src, w)
                    }
                    Some(Binding::Output(_)) => {
                        return self.err(format!("input port '{}' bound as output", port.name))
                    }
                    None => return self.err(format!("input port '{}' unconnected", port.name)),
                },
                (Some(b), Direction::Output) => {
                    let nets = self.b.fresh_word(&format!("{hier}.{}", port.name), w);
                    match b.get(&port.name) {
                        Some(Binding::Output(Some(dst))) => {
                            out_connects.push((nets.clone(), dst.clone()));
                        }
                        Some(Binding::Output(None)) | None => {}
                        Some(Binding::Input(_)) => {
                            return self.err(format!("output port '{}' bound as input", port.name))
                        }
                    }
                    nets
                }
            };
            let init = match &port.init {
                None => 0u64,
                Some(e) => eval_const(e, &params).ok_or_else(|| {
                    self.err::<()>(format!("non-constant initializer for port '{}'", port.name))
                        .unwrap_err()
                })? as u64,
            };
            signals.insert(
                port.name.clone(),
                Sig {
                    nets,
                    lsb,
                    is_reg: port.is_reg,
                    init,
                },
            );
        }
        // `wire x = expr;` is shorthand for a continuous assignment
        let mut wire_assigns: Vec<(String, &Expr)> = Vec::new();
        for item in &m.items {
            if let Item::NetDecl {
                is_reg,
                range,
                names,
            } = item
            {
                let (w, lsb) = self.range_width(range, &params)?;
                for (name, init_e) in names {
                    if !is_reg {
                        if let Some(e) = init_e {
                            wire_assigns.push((name.clone(), e));
                        }
                    }
                    let init = match init_e {
                        None => 0u64,
                        Some(e) if !is_reg => {
                            let _ = e;
                            0u64
                        }
                        Some(e) => eval_const(e, &params).ok_or_else(|| {
                            self.err::<()>(format!("non-constant initializer for '{name}'"))
                                .unwrap_err()
                        })? as u64,
                    };
                    if let Some(existing) = signals.get_mut(name) {
                        // non-ANSI style re-declaration of a port as reg
                        if existing.width() != w {
                            return self
                                .err(format!("redeclaration of '{name}' with different width"));
                        }
                        existing.is_reg |= is_reg;
                        if init_e.is_some() {
                            existing.init = init;
                        }
                        continue;
                    }
                    let nets = self.b.fresh_word(&format!("{hier}.{name}"), w);
                    signals.insert(
                        name.clone(),
                        Sig {
                            nets,
                            lsb,
                            is_reg: *is_reg,
                            init,
                        },
                    );
                }
            }
        }
        // memory arrays: one register signal per word
        let mut memories: HashMap<String, MemInfo> = HashMap::new();
        for item in &m.items {
            if let Item::MemDecl { range, name, depth } = item {
                let (w, _lsb) = self.range_width(range, &params)?;
                let (d0, d1) = (
                    eval_const(&depth.0, &params)
                        .ok_or_else(|| self.err::<()>("non-constant memory depth").unwrap_err())?,
                    eval_const(&depth.1, &params)
                        .ok_or_else(|| self.err::<()>("non-constant memory depth").unwrap_err())?,
                );
                let (lo, hi) = (d0.min(d1), d0.max(d1));
                if lo != 0 {
                    return self.err(format!("memory '{name}' must start at index 0"));
                }
                let depth_n = (hi + 1) as usize;
                if depth_n > 1024 {
                    return self.err(format!("memory '{name}' too deep ({depth_n} words)"));
                }
                if signals.contains_key(name) || memories.contains_key(name) {
                    return self.err(format!("redeclaration of '{name}'"));
                }
                for wi in 0..depth_n {
                    let nets = self.b.fresh_word(&format!("{hier}.{name}[{wi}]"), w);
                    signals.insert(
                        mem_word_key(name, wi),
                        Sig {
                            nets,
                            lsb: 0,
                            is_reg: true,
                            init: 0,
                        },
                    );
                }
                memories.insert(
                    name.clone(),
                    MemInfo {
                        width: w,
                        depth: depth_n,
                    },
                );
            }
        }
        let mut sc = Scope {
            params,
            signals,
            memories,
        };

        // wire initializers lower to continuous assignments
        for (name, e) in wire_assigns {
            let dst = match sc.signals.get(&name) {
                Some(sig) => sig.nets.clone(),
                None => unreachable!("wire '{name}' declared above"),
            };
            let src = self.elab_expr(e, &sc, None, Some(dst.len()))?;
            let src = self.b.resize_word(&src, dst.len());
            for (s, d) in src.iter().zip(&dst) {
                self.b.connect(*s, *d);
            }
        }

        // 3. behavioral & structural items
        for item in &m.items {
            match item {
                Item::NetDecl { .. } | Item::Param(_) | Item::MemDecl { .. } => {}
                Item::Assign { lhs, rhs } => {
                    let dst = self.resolve_lvalue(lhs, &sc)?;
                    let src = self.elab_expr(rhs, &sc, None, Some(dst.len()))?;
                    let src = self.b.resize_word(&src, dst.len());
                    for (s, d) in src.iter().zip(&dst) {
                        self.b.connect(*s, *d);
                    }
                }
                Item::AlwaysFf { clock, body } => {
                    self.elab_always_ff(clock, body, &sc)?;
                }
                Item::AlwaysComb { body } => {
                    self.elab_always_comb(body, &sc)?;
                }
                Item::Instance {
                    module,
                    name,
                    param_overrides,
                    connections,
                } => {
                    self.elab_instance(module, name, param_overrides, connections, &mut sc)?;
                }
            }
        }

        // 4. finalize ports
        for (name, nets) in top_outputs {
            if nets.len() == 1 {
                self.b.output(nets[0], &name);
            } else {
                self.b.output_word(&nets, &name);
            }
        }
        for (src, dst) in out_connects {
            let src = self.b.resize_word(&src, dst.len());
            for (s, d) in src.iter().zip(&dst) {
                self.b.connect(*s, *d);
            }
        }
        Ok(())
    }

    fn elab_instance(
        &mut self,
        module: &str,
        inst_name: &str,
        param_overrides: &[(String, Expr)],
        connections: &[(Option<String>, Option<Expr>)],
        sc: &mut Scope,
    ) -> Result<(), ElabError> {
        let child = match self.mods.get(module) {
            Some(&c) => c,
            None => return self.err(format!("unknown module '{module}'")),
        };
        let mut overrides = HashMap::new();
        for (p, e) in param_overrides {
            let v = eval_const(e, &sc.params).ok_or_else(|| {
                self.err::<()>(format!("non-constant parameter override '{p}'"))
                    .unwrap_err()
            })?;
            overrides.insert(p.clone(), v);
        }
        // pair connections with child ports
        let mut bindings: HashMap<String, Binding> = HashMap::new();
        let named = connections.iter().any(|(n, _)| n.is_some());
        for (i, (port_name, expr)) in connections.iter().enumerate() {
            let port = match port_name {
                Some(n) => match child.ports.iter().find(|p| &p.name == n) {
                    Some(p) => p,
                    None => {
                        return self.err(format!("module '{module}' has no port '{n}'"));
                    }
                },
                None => {
                    if named {
                        return self.err("cannot mix named and positional connections");
                    }
                    match child.ports.get(i) {
                        Some(p) => p,
                        None => return self.err(format!("too many connections for '{module}'")),
                    }
                }
            };
            let binding = match (port.direction, expr) {
                (Direction::Input, Some(e)) => Binding::Input(self.elab_expr(e, sc, None, None)?),
                (Direction::Input, None) => {
                    return self.err(format!("input port '{}' connected to nothing", port.name))
                }
                (Direction::Output, Some(e)) => {
                    // output connection target must be assignable
                    let lv = expr_as_lvalue(e).ok_or_else(|| {
                        self.err::<()>(format!(
                            "output port '{}' must connect to a signal, got an expression",
                            port.name
                        ))
                        .unwrap_err()
                    })?;
                    Binding::Output(Some(self.resolve_lvalue(&lv, sc)?))
                }
                (Direction::Output, None) => Binding::Output(None),
            };
            bindings.insert(port.name.clone(), binding);
        }
        self.path.push(inst_name.to_string());
        let res = self.elab_module(child, &overrides, Some(bindings));
        self.path.pop();
        res
    }

    // ---------- procedural blocks ----------

    fn elab_always_ff(&mut self, clock: &str, body: &Stmt, sc: &Scope) -> Result<(), ElabError> {
        let clk_id = self.clock_id(clock, sc)?;
        let mut env = ProcEnv::new();
        self.walk_stmt(body, &mut env, sc, true)?;
        for (name, next) in env {
            let sig = &sc.signals[&name];
            if !sig.is_reg {
                return self.err(format!(
                    "'{name}' assigned in always@(posedge) but not a reg"
                ));
            }
            for (j, (&d, &q)) in next.iter().zip(&sig.nets).enumerate() {
                self.b
                    .push_ff_raw(d, q, clk_id, None, None, false, sig.init >> j & 1 == 1);
            }
        }
        Ok(())
    }

    fn elab_always_comb(&mut self, body: &Stmt, sc: &Scope) -> Result<(), ElabError> {
        let mut env = ProcEnv::new();
        self.walk_stmt(body, &mut env, sc, false)?;
        for (name, value) in env {
            let sig = &sc.signals[&name];
            for (&v, &dst) in value.iter().zip(&sig.nets) {
                self.b.connect(v, dst);
            }
        }
        Ok(())
    }

    /// Walk a statement, updating the symbolic next-value/shadow environment.
    /// `seq = true` for `always @(posedge …)` (nonblocking, reads see old
    /// values), `false` for combinational blocks (blocking, reads see the
    /// updated environment).
    fn walk_stmt(
        &mut self,
        st: &Stmt,
        env: &mut ProcEnv,
        sc: &Scope,
        seq: bool,
    ) -> Result<(), ElabError> {
        match st {
            Stmt::Empty => Ok(()),
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.walk_stmt(s, env, sc, seq)?;
                }
                Ok(())
            }
            Stmt::Assign {
                lhs,
                rhs,
                nonblocking,
            } => {
                if seq && !*nonblocking {
                    return self.err("blocking '=' inside always@(posedge); use '<='");
                }
                if !seq && *nonblocking {
                    return self.err("nonblocking '<=' inside combinational always; use '='");
                }
                let width = self.lvalue_width(lhs, sc)?;
                let shadow = if seq { None } else { Some(&*env) };
                let rhs_nets = self.elab_expr(rhs, sc, shadow, Some(width))?;
                self.proc_assign(env, sc, lhs, rhs_nets, seq)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let shadow = if seq { None } else { Some(&*env) };
                let cond_nets = self.elab_expr(cond, sc, shadow, None)?;
                let c = self.b.reduce_or(&cond_nets);
                let mut env_t = env.clone();
                self.walk_stmt(then_branch, &mut env_t, sc, seq)?;
                let mut env_e = env.clone();
                if let Some(e) = else_branch {
                    self.walk_stmt(e, &mut env_e, sc, seq)?;
                }
                *env = self.merge_envs(c, env_t, env_e, sc, seq)?;
                Ok(())
            }
            Stmt::Case {
                subject,
                arms,
                default,
            } => {
                let shadow = if seq { None } else { Some(&*env) };
                let subj = self.elab_expr(subject, sc, shadow, None)?;
                // result starts at the default (or fallthrough) environment
                let mut result = env.clone();
                if let Some(d) = default {
                    self.walk_stmt(d, &mut result, sc, seq)?;
                }
                // earlier arms take priority: fold from last to first
                for (vals, stmt) in arms.iter().rev() {
                    let mut conds = Vec::with_capacity(vals.len());
                    for v in vals {
                        let val = eval_const(v, &sc.params).ok_or_else(|| {
                            self.err::<()>("case label must be constant").unwrap_err()
                        })?;
                        conds.push(self.b.eq_const(&subj, val as u64));
                    }
                    let c = self.b.or_many(&conds);
                    let mut env_arm = env.clone();
                    self.walk_stmt(stmt, &mut env_arm, sc, seq)?;
                    result = self.merge_envs(c, env_arm, result, sc, seq)?;
                }
                *env = result;
                Ok(())
            }
        }
    }

    /// `merged = cond ? env_then : env_else` per signal bit.
    fn merge_envs(
        &mut self,
        cond: Net,
        env_then: ProcEnv,
        env_else: ProcEnv,
        sc: &Scope,
        seq: bool,
    ) -> Result<ProcEnv, ElabError> {
        let mut keys: Vec<&String> = env_then.keys().chain(env_else.keys()).collect();
        keys.sort();
        keys.dedup();
        let keys: Vec<String> = keys.into_iter().cloned().collect();
        let mut merged = ProcEnv::new();
        for name in keys {
            let base = self.proc_base_value(&name, sc, seq)?;
            let t = env_then.get(&name).unwrap_or(&base).clone();
            let e = env_else.get(&name).unwrap_or(&base).clone();
            // mux(cond, a=else, b=then) = cond ? then : else
            let m = self.b.mux_word(cond, &e, &t);
            merged.insert(name, m);
        }
        Ok(merged)
    }

    /// The value a signal holds when a branch does not assign it: for
    /// sequential blocks the registered value (hold); for combinational
    /// blocks the signal's placeholder — if that placeholder ends up fed by
    /// this very block, validation reports a combinational cycle, which is
    /// this subset's latch-inference error.
    fn proc_base_value(
        &mut self,
        name: &str,
        sc: &Scope,
        _seq: bool,
    ) -> Result<Vec<Net>, ElabError> {
        match sc.signals.get(name) {
            Some(sig) => Ok(sig.nets.clone()),
            None => self.err(format!("unknown signal '{name}' in process")),
        }
    }

    /// Apply a procedural assignment into the environment.
    fn proc_assign(
        &mut self,
        env: &mut ProcEnv,
        sc: &Scope,
        lhs: &LValue,
        rhs: Vec<Net>,
        seq: bool,
    ) -> Result<(), ElabError> {
        match lhs {
            LValue::Ident(name) => {
                let sig = match sc.signals.get(name) {
                    Some(s) => s,
                    None => return self.err(format!("assignment to undeclared '{name}'")),
                };
                if !sig.is_reg {
                    return self.err(format!("procedural assignment to non-reg '{name}'"));
                }
                let v = self.b.resize_word(&rhs, sig.width());
                env.insert(name.clone(), v);
                Ok(())
            }
            LValue::Bit(name, idx_e) => {
                // memory word write: mem[addr] <= data
                if let Some(mem) = sc.memories.get(name) {
                    let mem = mem.clone();
                    let data = self.b.resize_word(&rhs, mem.width);
                    match eval_const(idx_e, &sc.params) {
                        Some(i) => {
                            if i < 0 || i as usize >= mem.depth {
                                return self
                                    .err(format!("memory index {i} out of range for '{name}'"));
                            }
                            env.insert(mem_word_key(name, i as usize), data);
                        }
                        None => {
                            let shadow_env = env.clone();
                            let shadow = if seq { None } else { Some(&shadow_env) };
                            let addr = self.elab_expr(idx_e, sc, shadow, None)?;
                            for w in 0..mem.depth {
                                let key = mem_word_key(name, w);
                                let cur = match env.get(&key) {
                                    Some(v) => v.clone(),
                                    None => self.proc_base_value(&key, sc, seq)?,
                                };
                                let hit = self.b.eq_const(&addr, w as u64);
                                let next = self.b.mux_word(hit, &cur, &data);
                                env.insert(key, next);
                            }
                        }
                    }
                    return Ok(());
                }
                let sig = match sc.signals.get(name) {
                    Some(s) => s.clone(),
                    None => return self.err(format!("assignment to undeclared '{name}'")),
                };
                if !sig.is_reg {
                    return self.err(format!("procedural assignment to non-reg '{name}'"));
                }
                let mut cur = match env.get(name) {
                    Some(v) => v.clone(),
                    None => self.proc_base_value(name, sc, seq)?,
                };
                let bit = self.b.resize_word(&rhs, 1)[0];
                match eval_const(idx_e, &sc.params) {
                    Some(i) => {
                        let pos = i - sig.lsb;
                        if pos < 0 || pos as usize >= sig.width() {
                            return self.err(format!("bit index {i} out of range for '{name}'"));
                        }
                        cur[pos as usize] = bit;
                    }
                    None => {
                        // decoded (dynamic-index) write
                        if sig.lsb != 0 {
                            return self.err(format!(
                                "dynamic bit write to '{name}' with nonzero LSB unsupported"
                            ));
                        }
                        let shadow_env = env.clone();
                        let shadow = if seq { None } else { Some(&shadow_env) };
                        let idx = self.elab_expr(idx_e, sc, shadow, None)?;
                        for (j, slot) in cur.iter_mut().enumerate() {
                            let hit = self.b.eq_const(&idx, j as u64);
                            *slot = self.b.mux(hit, *slot, bit);
                        }
                    }
                }
                env.insert(name.clone(), cur);
                Ok(())
            }
            LValue::Part(name, msb_e, lsb_e) => {
                let sig = match sc.signals.get(name) {
                    Some(s) => s.clone(),
                    None => return self.err(format!("assignment to undeclared '{name}'")),
                };
                if !sig.is_reg {
                    return self.err(format!("procedural assignment to non-reg '{name}'"));
                }
                let msb = eval_const(msb_e, &sc.params)
                    .ok_or_else(|| self.err::<()>("non-constant part-select").unwrap_err())?;
                let lsb = eval_const(lsb_e, &sc.params)
                    .ok_or_else(|| self.err::<()>("non-constant part-select").unwrap_err())?;
                let lo = lsb - sig.lsb;
                let hi = msb - sig.lsb;
                if lo < 0 || hi < lo || hi as usize >= sig.width() {
                    return self.err(format!("part-select [{msb}:{lsb}] out of range"));
                }
                let mut cur = match env.get(name) {
                    Some(v) => v.clone(),
                    None => self.proc_base_value(name, sc, seq)?,
                };
                let w = (hi - lo + 1) as usize;
                let v = self.b.resize_word(&rhs, w);
                cur[lo as usize..=hi as usize].copy_from_slice(&v);
                env.insert(name.clone(), cur);
                Ok(())
            }
            LValue::Concat(parts) => {
                // MSB-first: split rhs from the top
                let widths: Vec<usize> = parts
                    .iter()
                    .map(|p| self.lvalue_width(p, sc))
                    .collect::<Result<_, _>>()?;
                let total: usize = widths.iter().sum();
                let rhs = self.b.resize_word(&rhs, total);
                let mut hi = total;
                for (p, w) in parts.iter().zip(&widths) {
                    let lo = hi - w;
                    let slice = rhs[lo..hi].to_vec();
                    self.proc_assign(env, sc, p, slice, seq)?;
                    hi = lo;
                }
                Ok(())
            }
        }
    }

    fn lvalue_width(&self, lv: &LValue, sc: &Scope) -> Result<usize, ElabError> {
        match lv {
            LValue::Ident(name) => match sc.signals.get(name) {
                Some(s) => Ok(s.width()),
                None => self.err(format!("unknown signal '{name}'")),
            },
            LValue::Bit(name, _) if sc.memories.contains_key(name) => Ok(sc.memories[name].width),
            LValue::Bit(..) => Ok(1),
            LValue::Part(_, msb_e, lsb_e) => {
                let msb = eval_const(msb_e, &sc.params)
                    .ok_or_else(|| self.err::<()>("non-constant part-select").unwrap_err())?;
                let lsb = eval_const(lsb_e, &sc.params)
                    .ok_or_else(|| self.err::<()>("non-constant part-select").unwrap_err())?;
                Ok((msb - lsb + 1).max(0) as usize)
            }
            LValue::Concat(parts) => parts.iter().map(|p| self.lvalue_width(p, sc)).sum(),
        }
    }

    /// Resolve a continuous-assignment target to its placeholder nets.
    fn resolve_lvalue(&mut self, lv: &LValue, sc: &Scope) -> Result<Vec<Net>, ElabError> {
        match lv {
            LValue::Ident(name) => match sc.signals.get(name) {
                Some(s) => Ok(s.nets.clone()),
                None => self.err(format!("unknown signal '{name}'")),
            },
            LValue::Bit(name, idx_e) => {
                let sig = match sc.signals.get(name) {
                    Some(s) => s,
                    None => return self.err(format!("unknown signal '{name}'")),
                };
                let i = eval_const(idx_e, &sc.params).ok_or_else(|| {
                    self.err::<()>("assign to dynamic bit index unsupported")
                        .unwrap_err()
                })?;
                let pos = i - sig.lsb;
                if pos < 0 || pos as usize >= sig.width() {
                    return self.err(format!("bit index {i} out of range for '{name}'"));
                }
                Ok(vec![sig.nets[pos as usize]])
            }
            LValue::Part(name, msb_e, lsb_e) => {
                let sig = match sc.signals.get(name) {
                    Some(s) => s,
                    None => return self.err(format!("unknown signal '{name}'")),
                };
                let msb = eval_const(msb_e, &sc.params)
                    .ok_or_else(|| self.err::<()>("non-constant part-select").unwrap_err())?;
                let lsb = eval_const(lsb_e, &sc.params)
                    .ok_or_else(|| self.err::<()>("non-constant part-select").unwrap_err())?;
                let lo = lsb - sig.lsb;
                let hi = msb - sig.lsb;
                if lo < 0 || hi < lo || hi as usize >= sig.width() {
                    return self.err(format!("part-select [{msb}:{lsb}] out of range"));
                }
                Ok(sig.nets[lo as usize..=hi as usize].to_vec())
            }
            LValue::Concat(parts) => {
                // MSB first: reverse so the last part supplies the LSBs
                let mut nets = Vec::new();
                for p in parts.iter().rev() {
                    nets.extend(self.resolve_lvalue(p, sc)?);
                }
                Ok(nets)
            }
        }
    }

    fn clock_id(&mut self, name: &str, sc: &Scope) -> Result<u32, ElabError> {
        let sig = match sc.signals.get(name) {
            Some(s) => s,
            None => return self.err(format!("unknown clock '{name}'")),
        };
        if sig.width() != 1 {
            return self.err(format!("clock '{name}' must be 1 bit"));
        }
        let net = sig.nets[0];
        if let Some(&id) = self.clock_ids.get(&net) {
            return Ok(id);
        }
        // ensure a unique clock-domain name per distinct net
        let unique = format!("{name}#{}", net.0);
        let id = self.b.clock(&unique);
        self.clock_ids.insert(net, id);
        Ok(id)
    }

    // ---------- expressions ----------

    /// Elaborate an expression to a word of nets (LSB first).
    fn elab_expr(
        &mut self,
        e: &Expr,
        sc: &Scope,
        shadow: Option<&ProcEnv>,
        ctx: Option<usize>,
    ) -> Result<Vec<Net>, ElabError> {
        // constant folding first — parameters, sized literals, arithmetic.
        // Constants materialize at their declared width extended to the
        // assignment context (Verilog's context-determined sizing).
        if let Some(v) = eval_const(e, &sc.params) {
            let w = (const_width(e) as usize).max(ctx.unwrap_or(0));
            return Ok(self.b.const_word(v as u64, w));
        }
        match e {
            Expr::Number { .. } => unreachable!("numbers are constant-folded"),
            Expr::Ident(name) => self.signal_value(name, sc, shadow),
            Expr::Bit(base, idx_e) => {
                // memory word read: mem[addr] (async, decoded)
                if let Expr::Ident(name) = &**base {
                    if let Some(mem) = sc.memories.get(name) {
                        let mem = mem.clone();
                        let words: Vec<Vec<Net>> = (0..mem.depth)
                            .map(|w| self.signal_value(&mem_word_key(name, w), sc, shadow))
                            .collect::<Result<_, _>>()?;
                        return Ok(match eval_const(idx_e, &sc.params) {
                            Some(i) => {
                                if i < 0 || i as usize >= mem.depth {
                                    return self.err(format!(
                                        "memory index {i} out of range for '{name}'"
                                    ));
                                }
                                words[i as usize].clone()
                            }
                            None => {
                                let addr = self.elab_expr(idx_e, sc, shadow, None)?;
                                let sels: Vec<Net> = (0..mem.depth)
                                    .map(|w| self.b.eq_const(&addr, w as u64))
                                    .collect();
                                self.b.onehot_mux_word(&sels, &words)
                            }
                        });
                    }
                }
                let (nets, lsb) = self.base_bits(base, sc, shadow)?;
                match eval_const(idx_e, &sc.params) {
                    Some(i) => {
                        let pos = i - lsb;
                        if pos < 0 || pos as usize >= nets.len() {
                            return self.err(format!("bit index {i} out of range"));
                        }
                        Ok(vec![nets[pos as usize]])
                    }
                    None => {
                        if lsb != 0 {
                            return self.err("dynamic bit select with nonzero LSB unsupported");
                        }
                        let idx = self.elab_expr(idx_e, sc, shadow, None)?;
                        let shifted = self.b.shr_var(&nets, &idx);
                        Ok(vec![shifted[0]])
                    }
                }
            }
            Expr::Part(base, msb_e, lsb_e) => {
                let (nets, lsb0) = self.base_bits(base, sc, shadow)?;
                let msb = eval_const(msb_e, &sc.params)
                    .ok_or_else(|| self.err::<()>("non-constant part-select").unwrap_err())?;
                let lsb = eval_const(lsb_e, &sc.params)
                    .ok_or_else(|| self.err::<()>("non-constant part-select").unwrap_err())?;
                let lo = lsb - lsb0;
                let hi = msb - lsb0;
                if lo < 0 || hi < lo || hi as usize >= nets.len() {
                    return self.err(format!("part-select [{msb}:{lsb}] out of range"));
                }
                Ok(nets[lo as usize..=hi as usize].to_vec())
            }
            Expr::Unary(op, a) => {
                // ~ and unary - are context-determined; the rest are
                // self-determined (reductions, !)
                let op_ctx = match op {
                    UnaryOp::Not | UnaryOp::Neg => ctx,
                    _ => None,
                };
                let av = self.elab_expr(a, sc, shadow, op_ctx)?;
                let av = if matches!(op, UnaryOp::Not | UnaryOp::Neg) {
                    self.b.resize_word(&av, av.len().max(ctx.unwrap_or(0)))
                } else {
                    av
                };
                Ok(match op {
                    UnaryOp::Not => self.b.not_word(&av),
                    UnaryOp::LogicNot => {
                        let any = self.b.reduce_or(&av);
                        vec![self.b.not(any)]
                    }
                    UnaryOp::Neg => {
                        let zero = self.b.const_word(0, av.len());
                        self.b.sub_word(&zero, &av)
                    }
                    UnaryOp::ReduceAnd => vec![self.b.reduce_and(&av)],
                    UnaryOp::ReduceOr => vec![self.b.reduce_or(&av)],
                    UnaryOp::ReduceXor => vec![self.b.reduce_xor(&av)],
                })
            }
            Expr::Binary(op, a, bx) => self.elab_binary(*op, a, bx, sc, shadow, ctx),
            Expr::Ternary(c, t, f) => {
                let cv = self.elab_expr(c, sc, shadow, None)?;
                let cb = self.b.reduce_or(&cv);
                let tv = self.elab_expr(t, sc, shadow, ctx)?;
                let fv = self.elab_expr(f, sc, shadow, ctx)?;
                let w = tv.len().max(fv.len()).max(ctx.unwrap_or(0));
                let tv = self.b.resize_word(&tv, w);
                let fv = self.b.resize_word(&fv, w);
                // mux(s, a, b) = s ? b : a  → cond ? tv : fv
                Ok(self.b.mux_word(cb, &fv, &tv))
            }
            Expr::Concat(parts) => {
                let mut nets = Vec::new();
                for p in parts.iter().rev() {
                    nets.extend(self.elab_expr(p, sc, shadow, None)?);
                }
                Ok(nets)
            }
            Expr::Repeat(count, inner) => {
                let n = eval_const(count, &sc.params).ok_or_else(|| {
                    self.err::<()>("non-constant replication count")
                        .unwrap_err()
                })?;
                if !(0..=4096).contains(&n) {
                    return self.err(format!("bad replication count {n}"));
                }
                let inner = self.elab_expr(inner, sc, shadow, None)?;
                let mut nets = Vec::with_capacity(inner.len() * n as usize);
                for _ in 0..n {
                    nets.extend(inner.iter().copied());
                }
                Ok(nets)
            }
        }
    }

    /// Current value of a named signal (shadow env first for comb blocks).
    fn signal_value(
        &self,
        name: &str,
        sc: &Scope,
        shadow: Option<&ProcEnv>,
    ) -> Result<Vec<Net>, ElabError> {
        if let Some(env) = shadow {
            if let Some(v) = env.get(name) {
                return Ok(v.clone());
            }
        }
        match sc.signals.get(name) {
            Some(s) => Ok(s.nets.clone()),
            None => self.err(format!("unknown signal '{name}'")),
        }
    }

    /// Bits and LSB bias of a select base (named signals keep their declared
    /// LSB; computed values are 0-based).
    fn base_bits(
        &mut self,
        base: &Expr,
        sc: &Scope,
        shadow: Option<&ProcEnv>,
    ) -> Result<(Vec<Net>, i64), ElabError> {
        if let Expr::Ident(name) = base {
            let lsb = sc.signals.get(name).map(|s| s.lsb).unwrap_or(0);
            return Ok((self.signal_value(name, sc, shadow)?, lsb));
        }
        Ok((self.elab_expr(base, sc, shadow, None)?, 0))
    }

    #[allow(clippy::too_many_arguments)]
    fn elab_binary(
        &mut self,
        op: BinaryOp,
        a: &Expr,
        bx: &Expr,
        sc: &Scope,
        shadow: Option<&ProcEnv>,
        ctx: Option<usize>,
    ) -> Result<Vec<Net>, ElabError> {
        use BinaryOp::*;
        // shifts: the left operand is context-determined, the amount is
        // self-determined
        if matches!(op, Shl | Shr) {
            let av = self.elab_expr(a, sc, shadow, ctx)?;
            let av = self.b.resize_word(&av, av.len().max(ctx.unwrap_or(0)));
            return Ok(match eval_const(bx, &sc.params) {
                Some(k) => {
                    let k = k.max(0) as usize;
                    if op == Shl {
                        self.b.shl_const(&av, k)
                    } else {
                        self.b.shr_const(&av, k)
                    }
                }
                None => {
                    let bv = self.elab_expr(bx, sc, shadow, None)?;
                    // cap shift-amount bits at what can matter
                    let need = (usize::BITS - (av.len().max(1) - 1).leading_zeros()) as usize + 1;
                    let sh: Vec<Net> = if bv.len() > need {
                        // wider amounts can still zero everything: OR the top
                        let top = self.b.reduce_or(&bv[need..]);
                        let mut s = bv[..need].to_vec();
                        s.push(top);
                        s
                    } else {
                        bv
                    };
                    if op == Shl {
                        self.b.shl_var(&av, &sh)
                    } else {
                        self.b.shr_var(&av, &sh)
                    }
                }
            });
        }
        if matches!(op, LogicAnd | LogicOr) {
            let av = self.elab_expr(a, sc, shadow, None)?;
            let bv = self.elab_expr(bx, sc, shadow, None)?;
            let ab = self.b.reduce_or(&av);
            let bb = self.b.reduce_or(&bv);
            return Ok(vec![if op == LogicAnd {
                self.b.and2(ab, bb)
            } else {
                self.b.or2(ab, bb)
            }]);
        }
        // comparisons size their operands against each other only; the
        // arithmetic/bitwise operators extend to the assignment context so
        // carries are not lost (e.g. `s[4:0] = a[3:0] + b[3:0]`).
        let op_ctx = match op {
            Eq | Ne | Lt | Le | Gt | Ge => None,
            _ => ctx,
        };
        let av = self.elab_expr(a, sc, shadow, op_ctx)?;
        let bv = self.elab_expr(bx, sc, shadow, op_ctx)?;
        let w = av.len().max(bv.len()).max(op_ctx.unwrap_or(0));
        let av = self.b.resize_word(&av, w);
        let bv = self.b.resize_word(&bv, w);
        Ok(match op {
            And => self.b.and_word(&av, &bv),
            Or => self.b.or_word(&av, &bv),
            Xor => self.b.xor_word(&av, &bv),
            Xnor => {
                let x = self.b.xor_word(&av, &bv);
                self.b.not_word(&x)
            }
            Add => self.b.add_word(&av, &bv),
            Sub => self.b.sub_word(&av, &bv),
            Mul => self.mul_word(&av, &bv),
            Div | Mod => return self.err("non-constant division/modulo is not synthesizable here"),
            Eq => vec![self.b.eq_word(&av, &bv)],
            Ne => {
                let e = self.b.eq_word(&av, &bv);
                vec![self.b.not(e)]
            }
            Lt => vec![self.b.lt_word(&av, &bv)],
            Gt => vec![self.b.lt_word(&bv, &av)],
            Le => {
                let gt = self.b.lt_word(&bv, &av);
                vec![self.b.not(gt)]
            }
            Ge => {
                let lt = self.b.lt_word(&av, &bv);
                vec![self.b.not(lt)]
            }
            Shl | Shr | LogicAnd | LogicOr => unreachable!(),
        })
    }

    /// Shift-add array multiplier, result truncated to operand width.
    fn mul_word(&mut self, a: &[Net], b: &[Net]) -> Vec<Net> {
        let w = a.len();
        let mut acc = self.b.const_word(0, w);
        for (i, &bi) in b.iter().enumerate().take(w) {
            let shifted = self.b.shl_const(a, i);
            let gated: Vec<Net> = shifted.iter().map(|&s| self.b.and2(s, bi)).collect();
            acc = self.b.add_word(&acc, &gated);
        }
        acc
    }
}

/// Reinterpret an expression as an assignment target (for instance output
/// connections like `.q(my_wire)` / `.q({hi, lo})` / `.q(w[3:0])`).
fn expr_as_lvalue(e: &Expr) -> Option<LValue> {
    match e {
        Expr::Ident(n) => Some(LValue::Ident(n.clone())),
        Expr::Bit(base, i) => match &**base {
            Expr::Ident(n) => Some(LValue::Bit(n.clone(), (**i).clone())),
            _ => None,
        },
        Expr::Part(base, m, l) => match &**base {
            Expr::Ident(n) => Some(LValue::Part(n.clone(), (**m).clone(), (**l).clone())),
            _ => None,
        },
        Expr::Concat(parts) => {
            let lvs: Option<Vec<LValue>> = parts.iter().map(expr_as_lvalue).collect();
            Some(LValue::Concat(lvs?))
        }
        _ => None,
    }
}
