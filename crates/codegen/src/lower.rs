//! Lowering from an elaborated design to the compiled netlist IR.
//!
//! Lowering resolves every name to an arena slot, compiles every expression
//! and statement to bytecode, checks the continuous-assignment graph for the
//! properties the dirty-bit scheduler relies on (single pure driver per net,
//! no combinational cycles), and levelizes the nodes topologically. Designs
//! outside that envelope — multiply-driven nets, combinational system calls,
//! non-scalar assign targets — return [`VlogError::Unsupported`], which the
//! runtime treats as "keep this program on the interpreter".

use crate::ir::{AlwaysProg, Code, CombNode, CompiledProgram, MemDecl, NetDecl, Op, SlotRef, Val};
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use synergy_interp::{expr_to_lvalue, stmt_reads, string_lit_bits, task_string_arg, TaskEffect};
use synergy_transform::normalize::{fold_expr, plan_unroll};
use synergy_vlog::ast::{Assign, Expr, LValue, Stmt, SystemTask, TaskKind};
use synergy_vlog::elaborate::ElabModule;
use synergy_vlog::parser::const_eval;
use synergy_vlog::{Bits, VlogError, VlogResult};

/// Longest `for`-loop the lowering will unroll at compile time; longer loops
/// stay dynamic (loop-counter bytecode).
const MAX_UNROLL_ITERS: usize = 256;

/// Budget on the bytecode a single unrolled loop (including nested unrolled
/// loops) may emit; exceeding it rolls the loop back to its dynamic form.
const MAX_UNROLL_OPS: usize = 32_768;

/// Lowers an elaborated module into a [`CompiledProgram`].
pub fn lower(module: &ElabModule) -> VlogResult<CompiledProgram> {
    let mut lw = Lowerer::new(module);
    lw.declare_vars();
    let assigns = lw.lower_assigns()?;
    let always = lw.lower_always()?;
    let initials = lw.lower_initials()?;
    Ok(CompiledProgram {
        name: module.name.clone(),
        nets: lw.nets,
        mems: lw.mems,
        slots: lw.slots,
        consts: lw.consts,
        strings: lw.strings,
        effects: lw.effects,
        comb: assigns.comb,
        net_deps: assigns.net_deps,
        mem_deps: assigns.mem_deps,
        net_driver: assigns.net_driver,
        mem_driver: assigns.mem_driver,
        always,
        initials,
        nb_sites: lw.nb_sites,
        nb_site_names: lw.nb_site_names,
        n_temps: lw.n_temps,
        n_loops: lw.n_loops,
    })
}

/// The levelized combinational network produced by [`Lowerer::lower_assigns`].
struct LoweredAssigns {
    comb: Vec<CombNode>,
    net_deps: Vec<Vec<u32>>,
    mem_deps: Vec<Vec<u32>>,
    net_driver: Vec<Option<u32>>,
    mem_driver: Vec<Option<u32>>,
}

struct Lowerer<'a> {
    module: &'a ElabModule,
    nets: Vec<NetDecl>,
    mems: Vec<MemDecl>,
    slots: BTreeMap<String, SlotRef>,
    consts: Vec<Val>,
    const_index: HashMap<Bits, u32>,
    strings: Vec<String>,
    effects: Vec<TaskEffect>,
    nb_sites: Vec<Code>,
    nb_site_names: Vec<String>,
    n_temps: u32,
    n_loops: u32,
    /// Compile-time bindings for enclosing unrolled-loop induction variables;
    /// reads of a bound variable fold to its current constant.
    unroll_env: Vec<(String, Bits)>,
}

impl<'a> Lowerer<'a> {
    fn new(module: &'a ElabModule) -> Self {
        Lowerer {
            module,
            nets: Vec::new(),
            mems: Vec::new(),
            slots: BTreeMap::new(),
            consts: Vec::new(),
            const_index: HashMap::new(),
            strings: Vec::new(),
            effects: Vec::new(),
            nb_sites: Vec::new(),
            nb_site_names: Vec::new(),
            n_temps: 0,
            n_loops: 0,
            unroll_env: Vec::new(),
        }
    }

    fn declare_vars(&mut self) {
        for (name, var) in &self.module.vars {
            let slot = match var.depth {
                Some(depth) => {
                    self.mems.push(MemDecl {
                        name: name.clone(),
                        width: var.width.max(1) as u32,
                        depth: depth as u32,
                        is_register: var.is_register(),
                        observed: false,
                    });
                    SlotRef::Mem((self.mems.len() - 1) as u32)
                }
                None => {
                    self.nets.push(NetDecl {
                        name: name.clone(),
                        width: var.width.max(1) as u32,
                        init: var.init.as_ref().map(|b| b.resize(var.width.max(1))),
                        is_register: var.is_register(),
                        observed: var.port.is_some(),
                    });
                    SlotRef::Net((self.nets.len() - 1) as u32)
                }
            };
            self.slots.insert(name.clone(), slot);
        }
    }

    // ---------------------------------------------------------------- pools

    fn konst(&mut self, b: Bits) -> u32 {
        if let Some(&i) = self.const_index.get(&b) {
            return i;
        }
        let i = self.consts.len() as u32;
        self.consts.push(Val::from_bits(&b));
        self.const_index.insert(b, i);
        i
    }

    fn string_idx(&mut self, s: &str) -> u32 {
        if let Some(i) = self.strings.iter().position(|x| x == s) {
            return i as u32;
        }
        self.strings.push(s.to_string());
        (self.strings.len() - 1) as u32
    }

    fn effect_idx(&mut self, e: TaskEffect) -> u32 {
        if let Some(i) = self.effects.iter().position(|x| *x == e) {
            return i as u32;
        }
        self.effects.push(e);
        (self.effects.len() - 1) as u32
    }

    fn temp(&mut self) -> u32 {
        self.n_temps += 1;
        self.n_temps - 1
    }

    fn loop_slot(&mut self) -> u32 {
        self.n_loops += 1;
        self.n_loops - 1
    }

    fn slot(&self, name: &str) -> VlogResult<SlotRef> {
        self.slots
            .get(name)
            .copied()
            .ok_or_else(|| VlogError::Elaborate(format!("no such variable '{}'", name)))
    }

    // ---------------------------------------------------------- expressions

    /// Attempts to constant-fold `e` using the enclosing unrolled-loop
    /// bindings. Folding mirrors the interpreter's evaluation bit for bit
    /// (see [`synergy_transform::normalize::fold_expr`]).
    fn fold(&self, e: &Expr) -> Option<Bits> {
        let env = &self.unroll_env;
        fold_expr(e, &|name: &str| {
            env.iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, b)| b.clone())
        })
    }

    fn expr(&mut self, e: &Expr, code: &mut Code) -> VlogResult<()> {
        // Constant subtrees — including reads of unrolled induction
        // variables — collapse to a pooled constant.
        if !matches!(e, Expr::Literal(_) | Expr::StringLit(_)) {
            if let Some(b) = self.fold(e) {
                let i = self.konst(b);
                code.push(Op::PushConst(i));
                return Ok(());
            }
        }
        match e {
            Expr::Literal(b) => {
                let i = self.konst(b.clone());
                code.push(Op::PushConst(i));
            }
            Expr::StringLit(s) => {
                // Strings evaluate to their packed ASCII value, as in the
                // interpreter; fold to a constant at compile time.
                let i = self.konst(string_lit_bits(s));
                code.push(Op::PushConst(i));
            }
            Expr::Ident(name) => match self.slot(name)? {
                SlotRef::Net(i) => code.push(Op::PushNet(i)),
                SlotRef::Mem(i) => code.push(Op::PushMemElem0(i)),
            },
            Expr::Index(base, idx) => {
                if let Expr::Ident(name) = base.as_ref() {
                    if let SlotRef::Mem(m) = self.slot(name)? {
                        match self.fold(idx).map(|b| b.to_u64()) {
                            Some(elem) if elem <= u32::MAX as u64 => {
                                code.push(Op::MemReadConst {
                                    mem: m,
                                    elem: elem as u32,
                                });
                            }
                            _ => {
                                self.expr(idx, code)?;
                                code.push(Op::MemRead(m));
                            }
                        }
                        return Ok(());
                    }
                }
                self.expr(idx, code)?;
                self.expr(base, code)?;
                code.push(Op::BitSelect);
            }
            Expr::Slice(base, hi, lo) => {
                self.expr(base, code)?;
                let ch = const_eval(hi, &|_| None).map(|b| b.to_u64());
                let cl = const_eval(lo, &|_| None).map(|b| b.to_u64());
                match (ch, cl) {
                    (Some(h), Some(l)) if h <= u32::MAX as u64 && l <= u32::MAX as u64 => {
                        code.push(Op::SliceConst {
                            hi: h.max(l) as u32,
                            lo: h.min(l) as u32,
                        });
                    }
                    _ => {
                        self.expr(hi, code)?;
                        self.expr(lo, code)?;
                        code.push(Op::SliceDyn);
                    }
                }
            }
            Expr::Unary(op, a) => {
                self.expr(a, code)?;
                code.push(Op::Unary(*op));
            }
            Expr::Binary(op, a, b) => {
                self.expr(a, code)?;
                self.expr(b, code)?;
                code.push(Op::Binary(*op));
            }
            Expr::Ternary(c, a, b) => {
                // Short-circuit like the interpreter: only the taken branch
                // evaluates (and performs any environment effects).
                self.expr(c, code)?;
                let jz = code.len();
                code.push(Op::JumpIfZero(0));
                self.expr(a, code)?;
                let jend = code.len();
                code.push(Op::Jump(0));
                patch(code, jz);
                self.expr(b, code)?;
                patch(code, jend);
            }
            Expr::Concat(parts) => {
                if parts.is_empty() {
                    let i = self.konst(Bits::zero(1));
                    code.push(Op::PushConst(i));
                    return Ok(());
                }
                self.expr(&parts[0], code)?;
                for p in &parts[1..] {
                    self.expr(p, code)?;
                    code.push(Op::Concat2);
                }
            }
            Expr::Replicate(n, e) => {
                self.expr(n, code)?;
                self.expr(e, code)?;
                code.push(Op::ReplicateDyn);
            }
            Expr::SystemCall(kind, args) => match kind {
                TaskKind::Fopen => {
                    let path = match args.first() {
                        Some(Expr::StringLit(s)) => s.clone(),
                        _ => String::new(),
                    };
                    let i = self.string_idx(&path);
                    code.push(Op::Fopen(i));
                }
                TaskKind::Feof => {
                    match args.first() {
                        Some(e) => self.expr(e, code)?,
                        None => {
                            let i = self.konst(Bits::from_u64(32, 0));
                            code.push(Op::PushConst(i));
                        }
                    }
                    code.push(Op::Feof);
                }
                TaskKind::Time => code.push(Op::PushTime),
                TaskKind::Random => code.push(Op::Random),
                other => {
                    return Err(VlogError::Unsupported(format!(
                        "system task {} cannot be used in an expression",
                        other
                    )))
                }
            },
        }
        Ok(())
    }

    // --------------------------------------------------------------- stores

    /// Width of an lvalue (the interpreter's shared resolution).
    fn lvalue_width(&self, lv: &LValue) -> usize {
        synergy_interp::lvalue_width(self.module, lv)
    }

    /// Emits a store of the value currently on top of the stack into `lv`.
    fn store_from_stack(&mut self, lv: &LValue, code: &mut Code) -> VlogResult<()> {
        match lv {
            LValue::Ident(name) => match self.slot(name)? {
                SlotRef::Net(i) => code.push(Op::StoreNet(i)),
                SlotRef::Mem(_) => {
                    return Err(VlogError::Unsupported(format!(
                        "cannot assign whole memory '{}'",
                        name
                    )))
                }
            },
            LValue::Index(name, idx) => match self.slot(name)? {
                SlotRef::Mem(i) => match self.fold(idx).map(|b| b.to_u64()) {
                    Some(elem) if elem <= u32::MAX as u64 => {
                        code.push(Op::StoreMemConst {
                            mem: i,
                            elem: elem as u32,
                        });
                    }
                    _ => {
                        self.expr(idx, code)?;
                        code.push(Op::StoreMem(i));
                    }
                },
                SlotRef::Net(i) => {
                    self.expr(idx, code)?;
                    code.push(Op::StoreBit(i));
                }
            },
            LValue::Slice(name, hi, lo) => match self.slot(name)? {
                SlotRef::Net(i) => {
                    self.expr(hi, code)?;
                    self.expr(lo, code)?;
                    code.push(Op::StoreSliceDyn(i));
                }
                SlotRef::Mem(_) => {
                    return Err(VlogError::Unsupported(format!(
                        "part select on memory '{}' is not supported",
                        name
                    )))
                }
            },
            LValue::Concat(parts) => {
                // `{a, b} = rhs` assigns the high bits of rhs to `a`.
                let total: usize = parts.iter().map(|p| self.lvalue_width(p)).sum();
                code.push(Op::Resize(total.max(1) as u32));
                let t = self.temp();
                code.push(Op::StoreTemp(t));
                let mut offset = total;
                for part in parts {
                    let w = self.lvalue_width(part);
                    offset -= w;
                    code.push(Op::PushTemp(t));
                    code.push(Op::SliceConst {
                        hi: (offset + w - 1) as u32,
                        lo: offset as u32,
                    });
                    self.store_from_stack(part, code)?;
                }
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------- statements

    fn assign_stmt(&mut self, a: &Assign, code: &mut Code) -> VlogResult<()> {
        self.expr(&a.rhs, code)?;
        self.store_from_stack(&a.lhs, code)
    }

    fn stmt(&mut self, s: &Stmt, code: &mut Code) -> VlogResult<()> {
        if matches!(s, Stmt::Null) {
            return Ok(());
        }
        // Mirrors the interpreter's per-statement `finished` early return.
        let check = code.len();
        code.push(Op::CheckFinished(0));
        match s {
            Stmt::Block(stmts) | Stmt::Fork(stmts) => {
                // fork/join executes sequentially: a valid scheduling (§3.2).
                for sub in stmts {
                    self.stmt(sub, code)?;
                }
            }
            Stmt::Blocking(a) => self.assign_stmt(a, code)?,
            Stmt::NonBlocking(a) => {
                self.expr(&a.rhs, code)?;
                // The store program runs at the *update* step, when an
                // unrolled induction variable already holds its exit value —
                // so index expressions must read the live net, not the
                // per-iteration constant (mirrors the interpreter latching
                // the lvalue AST and evaluating indices at latch time).
                let saved_env = std::mem::take(&mut self.unroll_env);
                let mut store = vec![Op::PushValueReg];
                let result = self.store_from_stack(&a.lhs, &mut store);
                self.unroll_env = saved_env;
                result?;
                self.nb_sites.push(store);
                self.nb_site_names.push(a.lhs.targets().join(","));
                code.push(Op::NbSchedule((self.nb_sites.len() - 1) as u32));
            }
            Stmt::If { cond, then, other } => {
                self.expr(cond, code)?;
                let jz = code.len();
                code.push(Op::JumpIfZero(0));
                self.stmt(then, code)?;
                match other {
                    Some(e) => {
                        let jend = code.len();
                        code.push(Op::Jump(0));
                        patch(code, jz);
                        self.stmt(e, code)?;
                        patch(code, jend);
                    }
                    None => patch(code, jz),
                }
            }
            Stmt::Case {
                expr,
                arms,
                default,
            } => {
                self.expr(expr, code)?;
                let t = self.temp();
                code.push(Op::StoreTemp(t));
                let mut arm_jumps: Vec<Vec<usize>> = Vec::with_capacity(arms.len());
                for arm in arms {
                    let mut jumps = Vec::with_capacity(arm.labels.len());
                    for label in &arm.labels {
                        self.expr(label, code)?;
                        code.push(Op::PushTemp(t));
                        code.push(Op::Binary(synergy_vlog::ast::BinaryOp::Eq));
                        jumps.push(code.len());
                        code.push(Op::JumpIfNonZero(0));
                    }
                    arm_jumps.push(jumps);
                }
                let mut ends = Vec::new();
                if let Some(d) = default {
                    self.stmt(d, code)?;
                }
                ends.push(code.len());
                code.push(Op::Jump(0));
                for (arm, jumps) in arms.iter().zip(arm_jumps) {
                    for j in jumps {
                        patch(code, j);
                    }
                    self.stmt(&arm.body, code)?;
                    ends.push(code.len());
                    code.push(Op::Jump(0));
                }
                for e in ends {
                    patch(code, e);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if !self.try_unroll(init, cond, step, body, code)? {
                    self.assign_stmt(init, code)?;
                    let slot = self.loop_slot();
                    code.push(Op::LoopInit(slot));
                    let head = code.len() as u32;
                    self.expr(cond, code)?;
                    let jend = code.len();
                    code.push(Op::JumpIfZero(0));
                    self.stmt(body, code)?;
                    // The step executes even after $finish (once), as in the
                    // interpreter's while loop.
                    self.assign_stmt(step, code)?;
                    code.push(Op::LoopCheck(slot));
                    code.push(Op::JumpIfNotFinished(head));
                    patch(code, jend);
                }
            }
            Stmt::Repeat { count, body } => {
                self.expr(count, code)?;
                let slot = self.loop_slot();
                code.push(Op::RepeatInit(slot));
                let head = code.len();
                code.push(Op::RepeatTest { slot, end: 0 });
                self.stmt(body, code)?;
                code.push(Op::JumpIfNotFinished(head as u32));
                let end = code.len() as u32;
                if let Op::RepeatTest { end: e, .. } = &mut code[head] {
                    *e = end;
                }
            }
            Stmt::SystemTask(task) => self.task_stmt(task, code)?,
            Stmt::Null => unreachable!(),
        }
        patch(code, check);
        Ok(())
    }

    fn task_stmt(&mut self, task: &SystemTask, code: &mut Code) -> VlogResult<()> {
        match task.kind {
            TaskKind::Display | TaskKind::Write => {
                for arg in &task.args {
                    match arg {
                        Expr::StringLit(s) => {
                            let i = self.string_idx(s);
                            code.push(Op::PrintStr(i));
                        }
                        other => {
                            self.expr(other, code)?;
                            code.push(Op::PrintVal);
                        }
                    }
                }
                code.push(Op::PrintFlush {
                    newline: task.kind == TaskKind::Display,
                });
            }
            TaskKind::Finish => {
                match task.args.first() {
                    Some(e) => self.expr(e, code)?,
                    None => {
                        let i = self.konst(Bits::from_u64(32, 0));
                        code.push(Op::PushConst(i));
                    }
                }
                code.push(Op::Finish);
            }
            TaskKind::Fclose => {
                if let Some(e) = task.args.first() {
                    self.expr(e, code)?;
                    code.push(Op::Fclose);
                }
            }
            TaskKind::Fread => {
                let (fd_expr, target) = match (task.args.first(), task.args.get(1)) {
                    (Some(fd), Some(target)) => (fd, target),
                    _ => {
                        return Err(VlogError::Unsupported(
                            "$fread requires a descriptor and a target".into(),
                        ))
                    }
                };
                let lhs = expr_to_lvalue(target)?;
                let width = self.lvalue_width(&lhs);
                self.expr(fd_expr, code)?;
                let fread_at = code.len();
                code.push(Op::Fread {
                    width: width as u32,
                    skip: 0,
                });
                code.push(Op::PushValueReg);
                self.store_from_stack(&lhs, code)?;
                let skip = code.len() as u32;
                if let Op::Fread { skip: s, .. } = &mut code[fread_at] {
                    *s = skip;
                }
            }
            TaskKind::Save => {
                let tag = task_string_arg(task.args.first());
                let i = self.effect_idx(TaskEffect::Save(tag));
                code.push(Op::Effect(i));
            }
            TaskKind::Restart => {
                let tag = task_string_arg(task.args.first());
                let i = self.effect_idx(TaskEffect::Restart(tag));
                code.push(Op::Effect(i));
            }
            TaskKind::Yield => {
                let i = self.effect_idx(TaskEffect::Yield);
                code.push(Op::Effect(i));
            }
            // Function-style tasks in statement position are evaluated for
            // their side effects.
            TaskKind::Fopen | TaskKind::Feof | TaskKind::Time | TaskKind::Random => {
                let call = Expr::SystemCall(task.kind, task.args.clone());
                self.expr(&call, code)?;
                code.push(Op::Pop);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------ unrolling

    /// Attempts to unroll a bounded `for`-loop at compile time. Returns
    /// `Ok(false)` (and leaves `code` untouched) when the loop must stay
    /// dynamic: non-constant bounds, a body that writes the induction
    /// variable, too many iterations, or an emission-budget overrun.
    ///
    /// The emitted shape mirrors the interpreter's loop exactly, including
    /// `$finish` semantics: each iteration runs the (guarded) body, then the
    /// step store *unguarded* — the interpreter executes the step once more
    /// after `$finish` fires mid-body — and then exits the loop if finished.
    fn try_unroll(
        &mut self,
        init: &Assign,
        cond: &Expr,
        step: &Assign,
        body: &Stmt,
        code: &mut Code,
    ) -> VlogResult<bool> {
        let LValue::Ident(var) = &init.lhs else {
            return Ok(false);
        };
        let Some(SlotRef::Net(net)) = self.slots.get(var.as_str()).copied() else {
            return Ok(false);
        };
        let width = self.nets[net as usize].width as usize;
        let plan = {
            let env = &self.unroll_env;
            plan_unroll(init, cond, step, body, width, MAX_UNROLL_ITERS, &|name| {
                env.iter()
                    .rev()
                    .find(|(n, _)| n == name)
                    .map(|(_, b)| b.clone())
            })
        };
        let Some(plan) = plan else {
            return Ok(false);
        };

        let start = code.len();
        let init_const = self.konst(plan.values[0].clone());
        code.push(Op::PushConst(init_const));
        code.push(Op::StoreNet(net));
        let trips = plan.trip_count();
        let mut finish_exits = Vec::new();
        for k in 0..trips {
            self.unroll_env.push((var.clone(), plan.values[k].clone()));
            let lowered = self.stmt(body, code);
            self.unroll_env.pop();
            lowered?;
            let stepped = self.konst(plan.values[k + 1].clone());
            code.push(Op::PushConst(stepped));
            code.push(Op::StoreNet(net));
            if k + 1 < trips {
                finish_exits.push(code.len());
                code.push(Op::CheckFinished(0));
            }
            if code.len() - start > MAX_UNROLL_OPS {
                // Too much straight-line code: roll back to the dynamic form.
                // (Orphaned constants/NB sites from the abandoned attempt are
                // unreachable and harmless.)
                code.truncate(start);
                return Ok(false);
            }
        }
        for at in finish_exits {
            patch(code, at);
        }
        Ok(true)
    }

    // -------------------------------------------------------- combinational

    /// Collects the slot(s) an assignment target writes, with the region of
    /// each write when it is a compile-time constant. Constant regions let
    /// several *partial* drivers of one net/memory coexist (they converge on
    /// the interpreter as long as they are disjoint); anything else keeps the
    /// single-driver rule.
    fn lvalue_write_regions(
        &self,
        lv: &LValue,
        out: &mut Vec<(SlotRef, Region)>,
    ) -> VlogResult<()> {
        match lv {
            LValue::Ident(name) => out.push((self.slot(name)?, Region::Full)),
            LValue::Index(name, idx) => {
                let slot = self.slot(name)?;
                let region = match self.fold(idx).map(|b| b.to_u64()) {
                    Some(i) => match slot {
                        SlotRef::Mem(_) => Region::MemElem(i),
                        SlotRef::Net(_) => Region::Bits { hi: i, lo: i },
                    },
                    None => Region::Dynamic,
                };
                out.push((slot, region));
            }
            LValue::Slice(name, hi, lo) => {
                let slot = self.slot(name)?;
                let region = match (
                    self.fold(hi).map(|b| b.to_u64()),
                    self.fold(lo).map(|b| b.to_u64()),
                ) {
                    (Some(h), Some(l)) => Region::Bits {
                        hi: h.max(l),
                        lo: h.min(l),
                    },
                    _ => Region::Dynamic,
                };
                out.push((slot, region));
            }
            LValue::Concat(parts) => {
                for p in parts {
                    self.lvalue_write_regions(p, out)?;
                }
            }
        }
        Ok(())
    }

    fn lower_assigns(&mut self) -> VlogResult<LoweredAssigns> {
        struct Raw {
            writes: Vec<(SlotRef, Region)>,
            reads_nets: Vec<u32>,
            reads_mems: Vec<u32>,
            code: Code,
        }
        let mut raw: Vec<Raw> = Vec::with_capacity(self.module.assigns.len());
        for a in &self.module.assigns {
            if !expr_pure(&a.rhs) || !lvalue_pure(&a.lhs) {
                return Err(VlogError::Unsupported(
                    "system calls in continuous assignments are not compilable".into(),
                ));
            }
            let mut code = Code::new();
            self.expr(&a.rhs, &mut code)?;
            self.store_from_stack(&a.lhs, &mut code)?;
            let mut writes = Vec::new();
            self.lvalue_write_regions(&a.lhs, &mut writes)?;
            let mut reads_nets = Vec::new();
            let mut reads_mems = Vec::new();
            let mut read_ids: Vec<&str> = a.rhs.idents();
            lvalue_read_idents(&a.lhs, &mut read_ids);
            for id in read_ids {
                match self.slot(id)? {
                    SlotRef::Net(n) => {
                        if !reads_nets.contains(&n) {
                            reads_nets.push(n);
                        }
                    }
                    SlotRef::Mem(m) => {
                        if !reads_mems.contains(&m) {
                            reads_mems.push(m);
                        }
                    }
                }
            }
            raw.push(Raw {
                writes,
                reads_nets,
                reads_mems,
                code,
            });
        }

        // Multiple drivers of one slot are compilable only when every write
        // region is a constant and the regions are pairwise disjoint: the
        // interpreter's repeated re-evaluation converges for those (each pass
        // imposes the same disjoint bits), while overlapping or whole-value
        // conflicts oscillate — leave them to the interpreter.
        let mut writers: HashMap<SlotRef, Vec<(usize, Region)>> = HashMap::new();
        for (i, node) in raw.iter().enumerate() {
            for &(slot, region) in &node.writes {
                writers.entry(slot).or_default().push((i, region));
            }
        }
        for (slot, entries) in &writers {
            if entries.len() < 2 {
                continue;
            }
            for (a_idx, (_, ra)) in entries.iter().enumerate() {
                for (_, rb) in &entries[a_idx + 1..] {
                    if ra.overlaps(rb) {
                        let name = self.slot_name(*slot);
                        return Err(VlogError::Unsupported(format!(
                            "net '{}' has multiple continuous drivers with \
                             overlapping or non-constant write regions",
                            name
                        )));
                    }
                }
            }
        }

        // Union-find: assigns writing (parts of) the same slot merge into one
        // driver group, executed in source order.
        let n = raw.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        for entries in writers.values() {
            for window in entries.windows(2) {
                let a = find(&mut parent, window[0].0);
                let b = find(&mut parent, window[1].0);
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
        let mut group_of_root: HashMap<usize, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            let g = *group_of_root.entry(root).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(i);
        }

        struct Group {
            code: Code,
            reads_nets: Vec<u32>,
            reads_mems: Vec<u32>,
            write_nets: Vec<u32>,
            write_mems: Vec<u32>,
        }
        let mut merged: Vec<Group> = Vec::with_capacity(groups.len());
        for members in &groups {
            let mut g = Group {
                code: Code::new(),
                reads_nets: Vec::new(),
                reads_mems: Vec::new(),
                write_nets: Vec::new(),
                write_mems: Vec::new(),
            };
            for &i in members {
                let node = &raw[i];
                append_rebased(&mut g.code, &node.code);
                for &r in &node.reads_nets {
                    if !g.reads_nets.contains(&r) {
                        g.reads_nets.push(r);
                    }
                }
                for &m in &node.reads_mems {
                    if !g.reads_mems.contains(&m) {
                        g.reads_mems.push(m);
                    }
                }
                for &(slot, _) in &node.writes {
                    match slot {
                        SlotRef::Net(w) => {
                            if !g.write_nets.contains(&w) {
                                g.write_nets.push(w);
                            }
                        }
                        SlotRef::Mem(w) => {
                            if !g.write_mems.contains(&w) {
                                g.write_mems.push(w);
                            }
                        }
                    }
                }
            }
            merged.push(g);
        }

        // Topological levelization over groups (Kahn, smallest index first
        // for determinism). A group that reads another group's written slot
        // must run after it; cycles — including a group reading a slot it
        // writes — fall back to the interpreter.
        let gcount = merged.len();
        let mut net_writer: HashMap<u32, usize> = HashMap::new();
        let mut mem_writer: HashMap<u32, usize> = HashMap::new();
        for (g, group) in merged.iter().enumerate() {
            for &w in &group.write_nets {
                net_writer.insert(w, g);
            }
            for &w in &group.write_mems {
                mem_writer.insert(w, g);
            }
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); gcount];
        let mut indeg = vec![0usize; gcount];
        for (j, group) in merged.iter().enumerate() {
            let mut preds = Vec::new();
            for r in &group.reads_nets {
                if let Some(&i) = net_writer.get(r) {
                    preds.push(i);
                }
            }
            for m in &group.reads_mems {
                if let Some(&i) = mem_writer.get(m) {
                    preds.push(i);
                }
            }
            for i in preds {
                if i == j {
                    return Err(VlogError::Unsupported(
                        "combinational loop in continuous assignments".into(),
                    ));
                }
                succs[i].push(j);
                indeg[j] += 1;
            }
        }
        let mut heap: BinaryHeap<std::cmp::Reverse<usize>> = (0..gcount)
            .filter(|&i| indeg[i] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(gcount);
        let mut level = vec![1u32; gcount];
        while let Some(std::cmp::Reverse(i)) = heap.pop() {
            order.push(i);
            for &j in &succs[i] {
                level[j] = level[j].max(level[i] + 1);
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    heap.push(std::cmp::Reverse(j));
                }
            }
        }
        if order.len() != gcount {
            return Err(VlogError::Unsupported(
                "combinational loop in continuous assignments".into(),
            ));
        }

        let mut comb = Vec::with_capacity(gcount);
        let mut net_deps: Vec<Vec<u32>> = vec![Vec::new(); self.nets.len()];
        let mut mem_deps: Vec<Vec<u32>> = vec![Vec::new(); self.mems.len()];
        let mut net_driver: Vec<Option<u32>> = vec![None; self.nets.len()];
        let mut mem_driver: Vec<Option<u32>> = vec![None; self.mems.len()];
        for (pos, &i) in order.iter().enumerate() {
            let group = &merged[i];
            for &r in &group.reads_nets {
                net_deps[r as usize].push(pos as u32);
            }
            for &m in &group.reads_mems {
                mem_deps[m as usize].push(pos as u32);
            }
            for &w in &group.write_nets {
                net_driver[w as usize] = Some(pos as u32);
            }
            for &w in &group.write_mems {
                mem_driver[w as usize] = Some(pos as u32);
            }
            comb.push(CombNode {
                level: level[i],
                code: group.code.clone(),
            });
        }
        Ok(LoweredAssigns {
            comb,
            net_deps,
            mem_deps,
            net_driver,
            mem_driver,
        })
    }

    /// The flattened name of a slot (for diagnostics).
    fn slot_name(&self, slot: SlotRef) -> String {
        match slot {
            SlotRef::Net(i) => self.nets[i as usize].name.clone(),
            SlotRef::Mem(i) => self.mems[i as usize].name.clone(),
        }
    }

    // ----------------------------------------------------------- procedural

    fn lower_always(&mut self) -> VlogResult<Vec<AlwaysProg>> {
        let mut out = Vec::with_capacity(self.module.always.len());
        for block in &self.module.always {
            let mut guards = Vec::with_capacity(block.events.len());
            for event in &block.events {
                if !expr_pure(&event.expr) {
                    return Err(VlogError::Unsupported(
                        "system calls in sensitivity lists are not compilable".into(),
                    ));
                }
                let mut code = Code::new();
                self.expr(&event.expr, &mut code)?;
                guards.push((event.edge, code));
            }
            let star = if block.events.is_empty() {
                stmt_reads(&block.body)
                    .into_iter()
                    .map(|name| self.slot(&name))
                    .collect::<VlogResult<Vec<_>>>()?
            } else {
                Vec::new()
            };
            let mut body = Code::new();
            self.stmt(&block.body, &mut body)?;
            out.push(AlwaysProg { guards, star, body });
        }
        Ok(out)
    }

    fn lower_initials(&mut self) -> VlogResult<Vec<Code>> {
        let mut out = Vec::with_capacity(self.module.initials.len());
        for stmt in &self.module.initials {
            let mut code = Code::new();
            self.stmt(stmt, &mut code)?;
            out.push(code);
        }
        Ok(out)
    }
}

/// Appends `src` to `dst`, rebasing every intra-program jump target by the
/// current length of `dst` (bytecode jump targets are absolute within their
/// own program, so concatenating driver-group members must shift them).
fn append_rebased(dst: &mut Code, src: &[Op]) {
    let base = dst.len() as u32;
    for op in src {
        dst.push(match op.clone() {
            Op::Jump(t) => Op::Jump(t + base),
            Op::JumpIfZero(t) => Op::JumpIfZero(t + base),
            Op::JumpIfNonZero(t) => Op::JumpIfNonZero(t + base),
            Op::JumpIfNotFinished(t) => Op::JumpIfNotFinished(t + base),
            Op::CheckFinished(t) => Op::CheckFinished(t + base),
            Op::RepeatTest { slot, end } => Op::RepeatTest {
                slot,
                end: end + base,
            },
            Op::Fread { width, skip } => Op::Fread {
                width,
                skip: skip + base,
            },
            other => other,
        });
    }
}

/// Patches the jump at `at` to target the current end of `code`.
fn patch(code: &mut Code, at: usize) {
    let target = code.len() as u32;
    match &mut code[at] {
        Op::Jump(t)
        | Op::JumpIfZero(t)
        | Op::JumpIfNonZero(t)
        | Op::JumpIfNotFinished(t)
        | Op::CheckFinished(t) => *t = target,
        other => unreachable!("patching non-jump op {:?}", other),
    }
}

/// The statically known extent of one continuous-assignment write.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Region {
    /// The whole net.
    Full,
    /// A constant bit range `[hi:lo]` of a net.
    Bits {
        /// High bound (inclusive).
        hi: u64,
        /// Low bound (inclusive).
        lo: u64,
    },
    /// A constant element of a memory.
    MemElem(u64),
    /// A runtime-computed bit, range, or element.
    Dynamic,
}

impl Region {
    /// `true` when two drivers of the same slot could write the same bits —
    /// conservatively including every non-constant region.
    fn overlaps(&self, other: &Region) -> bool {
        match (self, other) {
            (Region::Bits { hi: ah, lo: al }, Region::Bits { hi: bh, lo: bl }) => {
                al <= bh && bl <= ah
            }
            (Region::MemElem(a), Region::MemElem(b)) => a == b,
            _ => true,
        }
    }
}

/// `true` if the lvalue's index/slice expressions contain no system calls.
fn lvalue_pure(lv: &LValue) -> bool {
    match lv {
        LValue::Ident(_) => true,
        LValue::Index(_, i) => expr_pure(i),
        LValue::Slice(_, h, l) => expr_pure(h) && expr_pure(l),
        LValue::Concat(parts) => parts.iter().all(lvalue_pure),
    }
}

/// Identifiers an lvalue *reads* (index and slice-bound expressions).
fn lvalue_read_idents<'e>(lv: &'e LValue, out: &mut Vec<&'e str>) {
    match lv {
        LValue::Ident(_) => {}
        LValue::Index(_, i) => out.extend(i.idents()),
        LValue::Slice(_, h, l) => {
            out.extend(h.idents());
            out.extend(l.idents());
        }
        LValue::Concat(parts) => parts.iter().for_each(|p| lvalue_read_idents(p, out)),
    }
}

/// `true` if the expression contains no system calls (safe for the dirty-bit
/// combinational scheduler and for guard evaluation).
fn expr_pure(e: &Expr) -> bool {
    match e {
        Expr::SystemCall(..) => false,
        Expr::Literal(_) | Expr::StringLit(_) | Expr::Ident(_) => true,
        Expr::Index(a, b) | Expr::Binary(_, a, b) | Expr::Replicate(a, b) => {
            expr_pure(a) && expr_pure(b)
        }
        Expr::Slice(a, b, c) | Expr::Ternary(a, b, c) => {
            expr_pure(a) && expr_pure(b) && expr_pure(c)
        }
        Expr::Unary(_, a) => expr_pure(a),
        Expr::Concat(parts) => parts.iter().all(expr_pure),
    }
}
