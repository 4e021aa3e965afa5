//! The reference event-driven interpreter for elaborated designs.
//!
//! This is the "software engine" of the Cascade/SYNERGY runtime (§2.1 of the
//! paper): it executes an [`ElabModule`] according to Verilog's scheduling
//! semantics — continuous assignments re-evaluate when their inputs change,
//! procedural blocks run when their guards fire, blocking assignments are visible
//! immediately, and non-blocking assignments latch at the update step. System tasks
//! execute inline against a [`SystemEnv`], which is exactly what makes the software
//! engine able to run the full unsynthesizable language.

use crate::env::{SystemEnv, TaskEffect};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use synergy_vlog::ast::*;
use synergy_vlog::elaborate::ElabModule;
use synergy_vlog::{Bits, VlogError, VlogResult};

/// Upper bound on combinational-propagation iterations before declaring a loop.
const MAX_PROPAGATION_ITERS: usize = 10_000;
/// Upper bound on procedural loop iterations (`for`/`repeat`).
const MAX_LOOP_ITERS: u64 = 10_000_000;
/// Upper bound on evaluate/update rounds per settle. A design that schedules
/// new non-blocking assignments on every round (a zero-delay self-clocking
/// oscillator, e.g. `always @(posedge f) f <= ~f;`) would otherwise hang the
/// runtime forever; erroring keeps a hostile tenant from wedging the
/// hypervisor. The compiled engine enforces the same cap with the same
/// message so error behaviour stays engine-identical.
const MAX_SETTLE_ITERS: usize = 1_000;

/// A no-op environment used where system tasks cannot occur (guard expressions,
/// post-restore wire propagation).
struct NullEnv;

impl SystemEnv for NullEnv {
    fn print(&mut self, _text: &str) {}
    fn fopen(&mut self, _path: &str) -> u32 {
        0
    }
    fn fread(&mut self, _fd: u32, _width: usize) -> Option<Bits> {
        None
    }
    fn feof(&mut self, _fd: u32) -> bool {
        true
    }
    fn fclose(&mut self, _fd: u32) {}
    fn random(&mut self) -> u32 {
        0
    }
}

/// A snapshot of a program's architectural state, as captured by `$save` or the
/// runtime's `get` requests (§3.5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct StateSnapshot {
    /// Values of every register and memory, keyed by flattened variable name.
    pub values: BTreeMap<String, Value>,
    /// Simulation time at capture.
    pub time: u64,
}

impl StateSnapshot {
    /// Total number of state bits captured.
    pub fn total_bits(&self) -> usize {
        self.values.values().map(Value::state_bits).sum()
    }
}

/// Formats the postmortem fault detail from the non-blocking assignment
/// targets still pending when a settle cap fires. Shared by every engine so
/// a hostile tenant's postmortem names the failing always-block site
/// identically regardless of engine.
pub fn fault_from_targets<'a>(targets: impl Iterator<Item = &'a str>) -> String {
    let mut names: Vec<&str> = targets.collect();
    names.sort_unstable();
    names.dedup();
    format!("non-convergent non-blocking targets: {}", names.join(", "))
}

/// The event-driven interpreter.
#[derive(Debug, Clone)]
pub struct Interpreter {
    module: Arc<ElabModule>,
    values: BTreeMap<String, Value>,
    /// Previous values of each always-block guard expression, for edge detection.
    guard_prev: Vec<Vec<Bits>>,
    /// Sensitivity lists for `@*` blocks (identifiers read by the body).
    star_sensitivity: Vec<Vec<String>>,
    nonblocking: Vec<(LValue, Bits)>,
    effects: Vec<TaskEffect>,
    time: u64,
    finished: Option<u32>,
    initials_run: bool,
    /// Cumulative evaluate/update rounds executed by [`Interpreter::settle`].
    /// Pure observability — never part of [`StateSnapshot`].
    settle_iters: u64,
    /// Names of the non-blocking targets still pending when the settle cap
    /// fired, captured for postmortems (the error message itself stays
    /// engine-identical).
    fault: Option<String>,
}

impl Interpreter {
    /// Creates an interpreter over an elaborated module with all registers at their
    /// declared initial values. The module is only ever read, so an
    /// `Arc<ElabModule>` is shared as is and an owned `ElabModule` is wrapped.
    pub fn new(module: impl Into<Arc<ElabModule>>) -> Self {
        let module = module.into();
        let mut values = BTreeMap::new();
        for (name, var) in &module.vars {
            let v = match var.depth {
                Some(depth) => Value::memory(var.width, depth),
                None => match &var.init {
                    Some(b) => Value::Scalar(b.resize(var.width)),
                    None => Value::scalar(var.width),
                },
            };
            values.insert(name.clone(), v);
        }
        let guard_prev = module
            .always
            .iter()
            .map(|b| b.events.iter().map(|_| Bits::zero(1)).collect())
            .collect();
        let star_sensitivity = module
            .always
            .iter()
            .map(|b| {
                if b.events.is_empty() {
                    stmt_reads(&b.body)
                } else {
                    Vec::new()
                }
            })
            .collect();
        Interpreter {
            module,
            values,
            guard_prev,
            star_sensitivity,
            nonblocking: Vec::new(),
            effects: Vec::new(),
            time: 0,
            finished: None,
            initials_run: false,
            settle_iters: 0,
            fault: None,
        }
    }

    /// Cumulative evaluate/update rounds executed by [`Interpreter::settle`]
    /// over this interpreter's lifetime (telemetry; not architectural state).
    pub fn settle_iters(&self) -> u64 {
        self.settle_iters
    }

    /// Executor-specific detail for the most recent settle-cap failure: the
    /// non-blocking targets that never converged (e.g. the register a hostile
    /// `always` block keeps toggling). `None` until such a failure occurs.
    pub fn fault_detail(&self) -> Option<&str> {
        self.fault.as_deref()
    }

    /// The elaborated module being executed.
    pub fn module(&self) -> &ElabModule {
        &self.module
    }

    /// Current simulation time (incremented by [`Interpreter::tick`]).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The exit code passed to `$finish`, if the program has finished.
    pub fn finished(&self) -> Option<u32> {
        self.finished
    }

    /// Drains the control-flow effects produced by system tasks since the last call.
    pub fn take_effects(&mut self) -> Vec<TaskEffect> {
        std::mem::take(&mut self.effects)
    }

    /// Reads a variable's current value.
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist.
    pub fn get(&self, name: &str) -> VlogResult<&Value> {
        self.values
            .get(name)
            .ok_or_else(|| VlogError::Elaborate(format!("no such variable '{}'", name)))
    }

    /// Reads a scalar variable as `Bits`.
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist.
    pub fn get_bits(&self, name: &str) -> VlogResult<Bits> {
        Ok(self.get(name)?.as_scalar().clone())
    }

    /// Writes a variable (an input port, or any register during state restore).
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist.
    pub fn set(&mut self, name: &str, value: Bits) -> VlogResult<()> {
        let width = self.module.width_of_var(name);
        match self.values.get_mut(name) {
            Some(Value::Scalar(b)) => {
                *b = value.resize(width);
                Ok(())
            }
            Some(Value::Memory(_)) => Err(VlogError::Elaborate(format!(
                "cannot scalar-assign memory '{}'",
                name
            ))),
            None => Err(VlogError::Elaborate(format!("no such variable '{}'", name))),
        }
    }

    /// Writes one memory element, resized to the element width; an index
    /// past the depth is dropped, as a procedural store would be.
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist or is not a memory.
    pub fn set_elem(&mut self, name: &str, idx: usize, value: Bits) -> VlogResult<()> {
        let width = self.module.width_of_var(name);
        match self.values.get_mut(name) {
            Some(Value::Memory(mem)) => {
                if let Some(elem) = mem.get_mut(idx) {
                    *elem = value.resize(width);
                }
                Ok(())
            }
            Some(Value::Scalar(_)) => {
                Err(VlogError::Elaborate(format!("'{}' is not a memory", name)))
            }
            None => Err(VlogError::Elaborate(format!("no such variable '{}'", name))),
        }
    }

    /// Captures the architectural state (registers and memories) of the program.
    pub fn save_state(&self) -> StateSnapshot {
        let mut values = BTreeMap::new();
        for (name, var) in &self.module.vars {
            if var.is_register() {
                values.insert(name.clone(), self.values[name].clone());
            }
        }
        StateSnapshot {
            values,
            time: self.time,
        }
    }

    /// Restores a previously captured state snapshot.
    ///
    /// Variables present in the snapshot but not the design are ignored, which
    /// allows migration between engines compiled from the same source. Continuous
    /// assignments are re-propagated so outputs immediately reflect the restored
    /// registers, and edge detection is re-seeded from the restored values —
    /// the restored state is the new steady state, so the transition from the
    /// pre-restore (or freshly constructed) values must not fire any
    /// `always @(edge ...)` block.
    pub fn restore_state(&mut self, snapshot: &StateSnapshot) {
        for (name, value) in &snapshot.values {
            if self.values.contains_key(name) {
                self.values.insert(name.clone(), value.clone());
            }
        }
        self.time = snapshot.time;
        let _ = self.propagate_assigns(&mut NullEnv);
        self.prime_guards();
    }

    /// Re-seeds the stored previous guard values from the *current* values,
    /// so the next [`Interpreter::evaluate`] sees no edges. The compiled
    /// engine implements the identical priming in its `restore_state`.
    fn prime_guards(&mut self) {
        for idx in 0..self.module.always.len() {
            let block = &self.module.always[idx];
            if block.events.is_empty() {
                let current: Vec<Bits> = self.star_sensitivity[idx]
                    .iter()
                    .map(|n| {
                        self.values
                            .get(n)
                            .map(|v| v.as_scalar().clone())
                            .unwrap_or_default()
                    })
                    .collect();
                self.guard_prev[idx] = current;
            } else {
                let current: Vec<Bits> = block
                    .events
                    .iter()
                    .map(|e| {
                        self.eval_expr_pure(&e.expr)
                            .unwrap_or_else(|_| Bits::zero(1))
                    })
                    .collect();
                self.guard_prev[idx] = current;
            }
        }
    }

    /// `true` if non-blocking assignments are waiting to be latched.
    pub fn there_are_updates(&self) -> bool {
        !self.nonblocking.is_empty()
    }

    /// Whether `initial` blocks have already executed.
    pub fn initials_run(&self) -> bool {
        self.initials_run
    }

    /// Marks `initial` blocks as executed *without* running them. Used when
    /// restoring captured state into a fresh interpreter: the checkpointed
    /// program already ran its initials (and their environment side effects,
    /// such as `$fopen`), so replaying them would corrupt the restored run.
    pub fn mark_initials_run(&mut self) {
        self.initials_run = true;
    }

    /// Runs `initial` blocks if they have not run yet. Called automatically by
    /// [`Interpreter::evaluate`].
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from the initial blocks.
    pub fn run_initials(&mut self, env: &mut dyn SystemEnv) -> VlogResult<()> {
        if self.initials_run {
            return Ok(());
        }
        self.initials_run = true;
        let module = Arc::clone(&self.module);
        for stmt in &module.initials {
            self.exec_stmt(stmt, env)?;
        }
        Ok(())
    }

    /// Runs evaluation events until the program reaches a fixed point: continuous
    /// assignments are propagated and triggered `always` blocks execute.
    ///
    /// This corresponds to the `evaluate` ABI request (§2.1).
    ///
    /// # Errors
    ///
    /// Returns an error on combinational loops or malformed programs.
    pub fn evaluate(&mut self, env: &mut dyn SystemEnv) -> VlogResult<()> {
        self.run_initials(env)?;
        let mut iterations = 0usize;
        loop {
            self.propagate_assigns(env)?;
            let triggered = self.triggered_blocks();
            if triggered.is_empty() {
                return Ok(());
            }
            let module = Arc::clone(&self.module);
            for idx in triggered {
                if self.finished.is_some() {
                    return Ok(());
                }
                self.exec_stmt(&module.always[idx].body, env)?;
                self.propagate_assigns(env)?;
            }
            iterations += 1;
            if iterations > MAX_PROPAGATION_ITERS {
                return Err(VlogError::Elaborate(
                    "always blocks did not stabilise (oscillating design?)".into(),
                ));
            }
        }
    }

    /// Latches all pending non-blocking assignments.
    ///
    /// This corresponds to the `update` ABI request (§2.1). Returns `true` if any
    /// value changed.
    ///
    /// # Errors
    ///
    /// Returns an error if an assignment target is malformed.
    pub fn update(&mut self, env: &mut dyn SystemEnv) -> VlogResult<bool> {
        if self.nonblocking.is_empty() {
            return Ok(false);
        }
        let pending = std::mem::take(&mut self.nonblocking);
        for (lhs, value) in pending {
            self.assign_lvalue(&lhs, value, env)?;
        }
        Ok(true)
    }

    /// Runs evaluate/update until no more updates are pending.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Interpreter::evaluate`] and
    /// [`Interpreter::update`], and rejects designs whose update rounds never
    /// drain (zero-delay self-triggering edges).
    pub fn settle(&mut self, env: &mut dyn SystemEnv) -> VlogResult<()> {
        for iter in 0..MAX_SETTLE_ITERS {
            self.evaluate(env)?;
            self.settle_iters += 1;
            if iter + 1 == MAX_SETTLE_ITERS && !self.nonblocking.is_empty() {
                // About to hit the cap: capture the still-pending targets for
                // the postmortem before the final (futile) update drains them.
                self.fault = Some(fault_from_targets(
                    self.nonblocking.iter().flat_map(|(l, _)| l.targets()),
                ));
            }
            if !self.update(env)? {
                return Ok(());
            }
        }
        Err(VlogError::Elaborate(
            "non-blocking updates did not converge (self-triggering design?)".into(),
        ))
    }

    /// Advances one full virtual clock cycle on the named clock input: drives it
    /// high, settles, drives it low, settles, and increments simulation time.
    ///
    /// # Errors
    ///
    /// Returns an error if the clock variable does not exist or evaluation fails.
    pub fn tick(&mut self, clock: &str, env: &mut dyn SystemEnv) -> VlogResult<()> {
        self.set(clock, Bits::from_u64(1, 1))?;
        self.settle(env)?;
        self.set(clock, Bits::from_u64(1, 0))?;
        self.settle(env)?;
        self.time += 1;
        Ok(())
    }

    // ------------------------------------------------------------------ internals

    /// Re-evaluates continuous assignments until no wire changes value.
    fn propagate_assigns(&mut self, env: &mut dyn SystemEnv) -> VlogResult<()> {
        let module = Arc::clone(&self.module);
        for iter in 0.. {
            if iter > MAX_PROPAGATION_ITERS {
                return Err(VlogError::Elaborate(
                    "combinational loop detected in continuous assignments".into(),
                ));
            }
            let mut changed = false;
            for a in &module.assigns {
                let value = self.eval_expr(&a.rhs, env)?;
                changed |= self.assign_lvalue_check_changed(&a.lhs, value, env)?;
            }
            if !changed {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Determines which always blocks fire, updating the stored previous guard
    /// values as a side effect.
    fn triggered_blocks(&mut self) -> Vec<usize> {
        let mut triggered = Vec::new();
        for (idx, block) in self.module.always.iter().enumerate() {
            if block.events.is_empty() {
                // `always @*`: fire when any identifier read by the body changed.
                let current: Vec<Bits> = self.star_sensitivity[idx]
                    .iter()
                    .map(|n| {
                        self.values
                            .get(n)
                            .map(|v| v.as_scalar().clone())
                            .unwrap_or_default()
                    })
                    .collect();
                if self.guard_prev[idx].len() != current.len() {
                    self.guard_prev[idx] = vec![Bits::zero(1); current.len()];
                }
                let fired = self.guard_prev[idx]
                    .iter()
                    .zip(current.iter())
                    .any(|(p, c)| p != c);
                self.guard_prev[idx] = current;
                if fired {
                    triggered.push(idx);
                }
                continue;
            }
            let mut fired = false;
            let mut new_prev = Vec::with_capacity(block.events.len());
            for (eidx, event) in block.events.iter().enumerate() {
                let current = self
                    .eval_expr_pure(&event.expr)
                    .unwrap_or_else(|_| Bits::zero(1));
                let prev = &self.guard_prev[idx][eidx];
                let f = match event.edge {
                    Edge::Pos => !prev.bit(0) && current.bit(0),
                    Edge::Neg => prev.bit(0) && !current.bit(0),
                    Edge::Any => prev != &current,
                };
                fired |= f;
                new_prev.push(current);
            }
            self.guard_prev[idx] = new_prev;
            if fired {
                triggered.push(idx);
            }
        }
        triggered
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &mut dyn SystemEnv) -> VlogResult<()> {
        if self.finished.is_some() {
            return Ok(());
        }
        match stmt {
            Stmt::Block(stmts) | Stmt::Fork(stmts) => {
                // fork/join is executed sequentially: a valid scheduling (§3.2).
                for s in stmts {
                    self.exec_stmt(s, env)?;
                }
                Ok(())
            }
            Stmt::Blocking(a) => {
                let value = self.eval_expr(&a.rhs, env)?;
                self.assign_lvalue(&a.lhs, value, env)?;
                Ok(())
            }
            Stmt::NonBlocking(a) => {
                let value = self.eval_expr(&a.rhs, env)?;
                self.nonblocking.push((a.lhs.clone(), value));
                Ok(())
            }
            Stmt::If { cond, then, other } => {
                if self.eval_expr(cond, env)?.to_bool() {
                    self.exec_stmt(then, env)
                } else if let Some(e) = other {
                    self.exec_stmt(e, env)
                } else {
                    Ok(())
                }
            }
            Stmt::Case {
                expr,
                arms,
                default,
            } => {
                let scrutinee = self.eval_expr(expr, env)?;
                for arm in arms {
                    for label in &arm.labels {
                        let lv = self.eval_expr(label, env)?;
                        if lv.ucmp(&scrutinee) == std::cmp::Ordering::Equal {
                            return self.exec_stmt(&arm.body, env);
                        }
                    }
                }
                if let Some(d) = default {
                    self.exec_stmt(d, env)
                } else {
                    Ok(())
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let v = self.eval_expr(&init.rhs, env)?;
                self.assign_lvalue(&init.lhs, v, env)?;
                let mut iters = 0u64;
                while self.eval_expr(cond, env)?.to_bool() {
                    self.exec_stmt(body, env)?;
                    let v = self.eval_expr(&step.rhs, env)?;
                    self.assign_lvalue(&step.lhs, v, env)?;
                    iters += 1;
                    if iters > MAX_LOOP_ITERS {
                        return Err(VlogError::Elaborate(
                            "for loop exceeded iteration cap".into(),
                        ));
                    }
                    if self.finished.is_some() {
                        break;
                    }
                }
                Ok(())
            }
            Stmt::Repeat { count, body } => {
                let n = self.eval_expr(count, env)?.to_u64();
                for _ in 0..n.min(MAX_LOOP_ITERS) {
                    self.exec_stmt(body, env)?;
                    if self.finished.is_some() {
                        break;
                    }
                }
                Ok(())
            }
            Stmt::SystemTask(task) => self.exec_task(task, env),
            Stmt::Null => Ok(()),
        }
    }

    fn exec_task(&mut self, task: &SystemTask, env: &mut dyn SystemEnv) -> VlogResult<()> {
        match task.kind {
            TaskKind::Display | TaskKind::Write => {
                let mut text = String::new();
                for arg in &task.args {
                    match arg {
                        Expr::StringLit(s) => text.push_str(s),
                        other => {
                            let v = self.eval_expr(other, env)?;
                            text.push_str(&v.to_dec_string());
                        }
                    }
                }
                if task.kind == TaskKind::Display {
                    text.push('\n');
                }
                env.print(&text);
                Ok(())
            }
            TaskKind::Finish => {
                let code = match task.args.first() {
                    Some(e) => self.eval_expr(e, env)?.to_u64() as u32,
                    None => 0,
                };
                self.finished = Some(code);
                self.effects.push(TaskEffect::Finish(code));
                Ok(())
            }
            TaskKind::Fclose => {
                if let Some(e) = task.args.first() {
                    let fd = self.eval_expr(e, env)?.to_u64() as u32;
                    env.fclose(fd);
                }
                Ok(())
            }
            TaskKind::Fread => {
                let (fd_expr, target) = match (task.args.first(), task.args.get(1)) {
                    (Some(fd), Some(target)) => (fd, target),
                    _ => {
                        return Err(VlogError::Elaborate(
                            "$fread requires a descriptor and a target".into(),
                        ))
                    }
                };
                let fd = self.eval_expr(fd_expr, env)?.to_u64() as u32;
                let lhs = expr_to_lvalue(target)?;
                let width = self.lvalue_width(&lhs);
                if let Some(v) = env.fread(fd, width) {
                    self.assign_lvalue(&lhs, v, env)?;
                }
                Ok(())
            }
            TaskKind::Save => {
                let tag = string_arg(task.args.first());
                self.effects.push(TaskEffect::Save(tag));
                Ok(())
            }
            TaskKind::Restart => {
                let tag = string_arg(task.args.first());
                self.effects.push(TaskEffect::Restart(tag));
                Ok(())
            }
            TaskKind::Yield => {
                self.effects.push(TaskEffect::Yield);
                Ok(())
            }
            // Function-style tasks used in statement position are evaluated for
            // their side effects.
            TaskKind::Fopen | TaskKind::Feof | TaskKind::Time | TaskKind::Random => {
                let call = Expr::SystemCall(task.kind, task.args.clone());
                let _ = self.eval_expr(&call, env)?;
                Ok(())
            }
        }
    }

    fn lvalue_width(&self, lv: &LValue) -> usize {
        lvalue_width(&self.module, lv)
    }

    fn assign_lvalue(
        &mut self,
        lv: &LValue,
        value: Bits,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        self.assign_lvalue_check_changed(lv, value, env)?;
        Ok(())
    }

    fn assign_lvalue_check_changed(
        &mut self,
        lv: &LValue,
        value: Bits,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<bool> {
        match lv {
            LValue::Ident(name) => {
                let width = self.module.width_of_var(name);
                let new = value.resize(width);
                match self.values.get_mut(name) {
                    Some(Value::Scalar(b)) => {
                        if *b != new {
                            *b = new;
                            Ok(true)
                        } else {
                            Ok(false)
                        }
                    }
                    Some(Value::Memory(_)) => Err(VlogError::Elaborate(format!(
                        "cannot assign whole memory '{}'",
                        name
                    ))),
                    None => Err(VlogError::Elaborate(format!("no such variable '{}'", name))),
                }
            }
            LValue::Index(name, idx) => {
                let idx = self.eval_expr(idx, env)?.to_u64() as usize;
                let is_memory = self
                    .module
                    .var(name)
                    .map(|v| v.depth.is_some())
                    .unwrap_or(false);
                let elem_width = self.module.width_of_var(name);
                match self.values.get_mut(name) {
                    Some(Value::Memory(mem)) => {
                        if idx >= mem.len() {
                            return Ok(false);
                        }
                        let new = value.resize(elem_width);
                        if mem[idx] != new {
                            mem[idx] = new;
                            Ok(true)
                        } else {
                            Ok(false)
                        }
                    }
                    Some(Value::Scalar(b)) => {
                        let _ = is_memory;
                        if idx >= b.width() {
                            return Ok(false);
                        }
                        let old = b.bit(idx);
                        let new = value.bit(0);
                        b.set_bit(idx, new);
                        Ok(old != new)
                    }
                    None => Err(VlogError::Elaborate(format!("no such variable '{}'", name))),
                }
            }
            LValue::Slice(name, hi, lo) => {
                let hi = self.eval_expr(hi, env)?.to_u64() as usize;
                let lo = self.eval_expr(lo, env)?.to_u64() as usize;
                match self.values.get_mut(name) {
                    Some(Value::Scalar(b)) => {
                        let old = b.clone();
                        b.set_slice(hi.max(lo), hi.min(lo), &value);
                        Ok(*b != old)
                    }
                    Some(Value::Memory(_)) => Err(VlogError::Elaborate(format!(
                        "part select on memory '{}' is not supported",
                        name
                    ))),
                    None => Err(VlogError::Elaborate(format!("no such variable '{}'", name))),
                }
            }
            LValue::Concat(parts) => {
                // `{a, b} = rhs` assigns the high bits of rhs to `a`.
                let total: usize = parts.iter().map(|p| self.lvalue_width(p)).sum();
                let value = value.resize(total);
                let mut offset = total;
                let mut changed = false;
                for part in parts {
                    let w = self.lvalue_width(part);
                    offset -= w;
                    let piece = value.slice(offset + w - 1, offset);
                    changed |= self.assign_lvalue_check_changed(part, piece, env)?;
                }
                Ok(changed)
            }
        }
    }

    /// Evaluates an expression without access to the system environment (guards).
    fn eval_expr_pure(&self, expr: &Expr) -> VlogResult<Bits> {
        // Guard expressions are always side-effect free identifiers in practice.
        eval_expr(self, expr, &mut NullEnv)
    }

    /// Evaluates an expression, executing system functions against `env`.
    pub fn eval_expr(&self, expr: &Expr, env: &mut dyn SystemEnv) -> VlogResult<Bits> {
        eval_expr(self, expr, env)
    }
}

impl Vars for Interpreter {
    fn scalar(&self, name: &str) -> Option<Bits> {
        self.values.get(name).map(|v| v.as_scalar().clone())
    }

    fn element(&self, name: &str, idx: usize) -> Option<Bits> {
        match self.values.get(name) {
            Some(Value::Memory(mem)) => Some(
                mem.get(idx)
                    .cloned()
                    .unwrap_or_else(|| Bits::zero(self.module.width_of_var(name))),
            ),
            _ => None,
        }
    }

    fn time(&self) -> u64 {
        self.time
    }
}

/// What an expression reads: the variables of a running design and its
/// simulation time. The interpreter implements it over its value map; the
/// runtime's fabric engine implements it over the compiled simulator, so a
/// trapped task's arguments are evaluated by the same code on either.
pub trait Vars {
    /// A variable read as a scalar (a memory reads as its element 0);
    /// `None` if there is no such variable.
    fn scalar(&self, name: &str) -> Option<Bits>;
    /// Element `idx` of memory `name`, zeros past its depth; `None` if
    /// `name` is not a memory.
    fn element(&self, name: &str, idx: usize) -> Option<Bits>;
    /// The current simulation time (`$time`).
    fn time(&self) -> u64;
}

/// Evaluates `expr` over `vars`, executing system functions against `env`:
/// the reference expression semantics, written once.
///
/// # Errors
///
/// Returns an error for an unknown variable or a system task that is not a
/// function.
pub fn eval_expr<V: Vars + ?Sized>(
    vars: &V,
    expr: &Expr,
    env: &mut dyn SystemEnv,
) -> VlogResult<Bits> {
    match expr {
        Expr::Literal(b) => Ok(b.clone()),
        Expr::StringLit(s) => Ok(string_lit_bits(s)),
        Expr::Ident(name) => vars
            .scalar(name)
            .ok_or_else(|| VlogError::Elaborate(format!("no such variable '{}'", name))),
        Expr::Index(base, idx) => {
            let idx_v = eval_expr(vars, idx, env)?.to_u64() as usize;
            if let Expr::Ident(name) = base.as_ref() {
                if let Some(elem) = vars.element(name, idx_v) {
                    return Ok(elem);
                }
            }
            let base_v = eval_expr(vars, base, env)?;
            Ok(Bits::from_bool(base_v.bit(idx_v)))
        }
        Expr::Slice(base, hi, lo) => {
            let base_v = eval_expr(vars, base, env)?;
            let hi = eval_expr(vars, hi, env)?.to_u64() as usize;
            let lo = eval_expr(vars, lo, env)?.to_u64() as usize;
            Ok(base_v.slice(hi.max(lo), hi.min(lo)))
        }
        Expr::Unary(op, a) => {
            let a = eval_expr(vars, a, env)?;
            Ok(match op {
                UnaryOp::Not => a.not(),
                UnaryOp::LogicalNot => Bits::from_bool(!a.to_bool()),
                UnaryOp::Neg => a.neg(),
                UnaryOp::Plus => a,
                UnaryOp::ReduceAnd => Bits::from_bool(a.reduce_and()),
                UnaryOp::ReduceOr => Bits::from_bool(a.reduce_or()),
                UnaryOp::ReduceXor => Bits::from_bool(a.reduce_xor()),
            })
        }
        Expr::Binary(op, a, b) => {
            let a = eval_expr(vars, a, env)?;
            let b = eval_expr(vars, b, env)?;
            Ok(apply_binary(*op, &a, &b))
        }
        Expr::Ternary(c, a, b) => {
            if eval_expr(vars, c, env)?.to_bool() {
                eval_expr(vars, a, env)
            } else {
                eval_expr(vars, b, env)
            }
        }
        Expr::Concat(parts) => {
            let mut acc: Option<Bits> = None;
            for p in parts {
                let v = eval_expr(vars, p, env)?;
                acc = Some(match acc {
                    None => v,
                    Some(a) => a.concat(&v),
                });
            }
            Ok(acc.unwrap_or_default())
        }
        Expr::Replicate(n, e) => {
            let n = eval_expr(vars, n, env)?.to_u64() as usize;
            let v = eval_expr(vars, e, env)?;
            Ok(v.replicate(n))
        }
        Expr::SystemCall(kind, args) => match kind {
            TaskKind::Fopen => {
                let path = match args.first() {
                    Some(Expr::StringLit(s)) => s.clone(),
                    _ => String::new(),
                };
                Ok(Bits::from_u64(32, env.fopen(&path) as u64))
            }
            TaskKind::Feof => {
                let fd = match args.first() {
                    Some(e) => eval_expr(vars, e, env)?.to_u64() as u32,
                    None => 0,
                };
                Ok(Bits::from_bool(env.feof(fd)))
            }
            TaskKind::Time => Ok(Bits::from_u64(64, vars.time())),
            TaskKind::Random => Ok(Bits::from_u64(32, env.random() as u64)),
            other => Err(VlogError::Unsupported(format!(
                "system task {} cannot be used in an expression",
                other
            ))),
        },
    }
}

/// Applies a binary operator to two values.
pub fn apply_binary(op: BinaryOp, a: &Bits, b: &Bits) -> Bits {
    use std::cmp::Ordering;
    match op {
        BinaryOp::Add => a.add(b),
        BinaryOp::Sub => a.sub(b),
        BinaryOp::Mul => a.mul(b),
        BinaryOp::Div => a.div(b),
        BinaryOp::Rem => a.rem(b),
        BinaryOp::And => a.and(b),
        BinaryOp::Or => a.or(b),
        BinaryOp::Xor => a.xor(b),
        BinaryOp::Shl => a.shl(b.to_u64().min(1 << 20) as usize),
        BinaryOp::Shr => a.shr(b.to_u64().min(1 << 20) as usize),
        BinaryOp::AShr => a.ashr(b.to_u64().min(1 << 20) as usize),
        BinaryOp::LogicalAnd => Bits::from_bool(a.to_bool() && b.to_bool()),
        BinaryOp::LogicalOr => Bits::from_bool(a.to_bool() || b.to_bool()),
        BinaryOp::Eq => Bits::from_bool(a.ucmp(b) == Ordering::Equal),
        BinaryOp::Ne => Bits::from_bool(a.ucmp(b) != Ordering::Equal),
        BinaryOp::Lt => Bits::from_bool(a.ucmp(b) == Ordering::Less),
        BinaryOp::Le => Bits::from_bool(a.ucmp(b) != Ordering::Greater),
        BinaryOp::Gt => Bits::from_bool(a.ucmp(b) == Ordering::Greater),
        BinaryOp::Ge => Bits::from_bool(a.ucmp(b) != Ordering::Less),
    }
}

/// Width of an assignment target, shared with the compiled engine so both
/// engines resolve `$fread`/concat-store widths identically.
pub fn lvalue_width(module: &ElabModule, lv: &LValue) -> usize {
    match lv {
        LValue::Ident(n) => module.width_of_var(n),
        LValue::Index(n, _) => match module.var(n) {
            Some(v) if v.depth.is_some() => v.width,
            _ => 1,
        },
        LValue::Slice(_, hi, lo) => {
            let hi = synergy_vlog::parser::const_eval(hi, &|_| None)
                .map(|b| b.to_u64())
                .unwrap_or(0);
            let lo = synergy_vlog::parser::const_eval(lo, &|_| None)
                .map(|b| b.to_u64())
                .unwrap_or(0);
            (hi.saturating_sub(lo) as usize) + 1
        }
        LValue::Concat(parts) => parts.iter().map(|p| lvalue_width(module, p)).sum(),
    }
}

/// The packed-ASCII value of a string literal used in expression position,
/// shared with the compiled engine.
pub fn string_lit_bits(s: &str) -> Bits {
    let mut b = Bits::zero((s.len() * 8).max(1));
    for (i, byte) in s.bytes().rev().enumerate() {
        for bit in 0..8 {
            b.set_bit(i * 8 + bit, (byte >> bit) & 1 == 1);
        }
    }
    b
}

/// Converts an expression used as a `$fread` target into an lvalue, shared
/// with the compiled engine.
pub fn expr_to_lvalue(expr: &Expr) -> VlogResult<LValue> {
    match expr {
        Expr::Ident(n) => Ok(LValue::Ident(n.clone())),
        Expr::Index(base, idx) => match base.as_ref() {
            Expr::Ident(n) => Ok(LValue::Index(n.clone(), (**idx).clone())),
            _ => Err(VlogError::Unsupported("complex $fread target".into())),
        },
        _ => Err(VlogError::Unsupported(
            "$fread target must be a variable or memory element".into(),
        )),
    }
}

/// The string payload of a system-task argument (empty for non-strings),
/// shared with the compiled engine.
pub fn task_string_arg(arg: Option<&Expr>) -> String {
    match arg {
        Some(Expr::StringLit(s)) => s.clone(),
        _ => String::new(),
    }
}

fn string_arg(arg: Option<&Expr>) -> String {
    task_string_arg(arg)
}

/// Identifiers read by a statement, in first-read order — the `always @*`
/// sensitivity algorithm, shared with the compiled engine so both engines
/// watch exactly the same values.
pub fn stmt_reads(stmt: &Stmt) -> Vec<String> {
    fn visit(stmt: &Stmt, out: &mut Vec<String>) {
        let add_expr = |e: &Expr, out: &mut Vec<String>| {
            for id in e.idents() {
                if !out.iter().any(|x| x == id) {
                    out.push(id.to_string());
                }
            }
        };
        match stmt {
            Stmt::Block(v) | Stmt::Fork(v) => v.iter().for_each(|s| visit(s, out)),
            Stmt::Blocking(a) | Stmt::NonBlocking(a) => add_expr(&a.rhs, out),
            Stmt::If { cond, then, other } => {
                add_expr(cond, out);
                visit(then, out);
                if let Some(e) = other {
                    visit(e, out);
                }
            }
            Stmt::Case {
                expr,
                arms,
                default,
            } => {
                add_expr(expr, out);
                for arm in arms {
                    arm.labels.iter().for_each(|l| add_expr(l, out));
                    visit(&arm.body, out);
                }
                if let Some(d) = default {
                    visit(d, out);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                add_expr(&init.rhs, out);
                add_expr(cond, out);
                add_expr(&step.rhs, out);
                visit(body, out);
            }
            Stmt::Repeat { count, body } => {
                add_expr(count, out);
                visit(body, out);
            }
            Stmt::SystemTask(t) => t.args.iter().for_each(|a| add_expr(a, out)),
            Stmt::Null => {}
        }
    }
    let mut out = Vec::new();
    visit(stmt, &mut out);
    out
}

// The reference interpreter crosses threads inside the hypervisor's parallel
// scheduler (as the fallback software engine of a tenant's `Runtime`), so it
// must stay `Send`: plain owned state, no `Rc`/`RefCell`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Interpreter>();
};
