//! Control and state-machine transformations (Figures 4 and 5 of the paper).
//!
//! The merged core (see [`crate::schedule`]) is lowered onto a state machine whose
//! states contain as many synthesizable statements as possible and are terminated
//! by unsynthesizable tasks or by branches whose bodies contain tasks. The result
//! is re-emitted as a synthesizable Verilog module driven by the target device's
//! native clock (`__clk`) and the SYNERGY ABI signals:
//!
//! * `__abi`   — input; the runtime asserts `ABI_CONT` to acknowledge a task and
//!   resume execution mid-tick.
//! * `__task`  — output; non-zero when an unsynthesizable task needs the runtime.
//! * `__state` — output; the current state of the lowered machine.
//! * `__done`  — output; high when the machine is idle between virtual clock ticks.
//!
//! Edge events of the original program (`posedge clock`, ...) are detected from
//! values delivered by `set` messages, latched into `__trig_*` registers at the
//! start of the virtual tick, and used to guard each original always block's
//! section of the core. Non-blocking assignments to scalar registers are redirected
//! to `__nb_*` shadow registers and applied in a dedicated latch state at the end
//! of the virtual tick, preserving Verilog's update semantics even when the tick is
//! interrupted by task traps (§3.4).

use crate::schedule::{edge_wire_name, merge_always, prev_reg_name, trigger_name, Core};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use synergy_vlog::ast::*;
use synergy_vlog::elaborate::ElabModule;
use synergy_vlog::parser::const_eval;
use synergy_vlog::{Bits, VlogError, VlogResult};

/// The `__abi` value meaning "no request".
pub const ABI_NONE: u64 = 0;
/// The `__abi` value the runtime asserts to acknowledge a task and continue.
pub const ABI_CONT: u64 = 1;
/// The `__task` value meaning "no task pending".
pub const TASK_NONE: u64 = 0;

/// Maximum number of iterations a task-containing loop may be unrolled to.
const MAX_UNROLL: u64 = 1024;

/// Options controlling the transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TransformOptions {
    /// Strip unsynthesizable system tasks before lowering. This models the
    /// "Cascade on AmorphOS" baseline of §6.4, which avoids the state-machine
    /// overhead introduced by task support.
    pub strip_tasks: bool,
}

/// One state of the lowered machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct State {
    /// State number (the value held in `__state`).
    pub id: u32,
    /// Synthesizable statements executed when the state runs.
    pub stmts: Vec<Stmt>,
    /// What happens after the statements execute.
    pub terminator: Terminator,
}

/// State terminators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional transfer.
    Goto(u32),
    /// Trap to the runtime with task `task`, then resume at `resume`.
    Task {
        /// 1-based index into [`StateMachine::tasks`].
        task: u32,
        /// State to resume at once the runtime asserts `ABI_CONT`.
        resume: u32,
    },
    /// Two-way branch on a condition.
    Branch {
        /// Branch condition.
        cond: Expr,
        /// State when the condition is true.
        then_state: u32,
        /// State when the condition is false.
        else_state: u32,
    },
    /// Terminal state (idle between virtual ticks).
    Done,
}

/// The lowered state machine plus everything the runtime needs to drive it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateMachine {
    /// All states, indexed by `id as usize`.
    pub states: Vec<State>,
    /// Entry state at the start of each virtual clock tick.
    pub entry: u32,
    /// The latch state that applies pending non-blocking assignments.
    pub latch: u32,
    /// The idle/final state.
    pub final_state: u32,
    /// Unsynthesizable tasks, indexed by `__task - 1`.
    pub tasks: Vec<SystemTask>,
    /// Scalar registers whose non-blocking assignments were redirected to shadows.
    pub shadowed: Vec<String>,
}

impl StateMachine {
    /// Number of states in the machine.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Looks up the task triggered by a given non-zero `__task` value.
    pub fn task(&self, id: u64) -> Option<&SystemTask> {
        if id == TASK_NONE {
            return None;
        }
        self.tasks.get((id - 1) as usize)
    }
}

/// Builder that lowers a core into a [`StateMachine`].
struct Lowering<'a> {
    module: &'a ElabModule,
    states: Vec<State>,
    tasks: Vec<SystemTask>,
    shadowed: BTreeSet<String>,
}

impl<'a> Lowering<'a> {
    fn new(module: &'a ElabModule) -> Self {
        Lowering {
            module,
            states: Vec::new(),
            tasks: Vec::new(),
            shadowed: BTreeSet::new(),
        }
    }

    fn alloc(&mut self, stmts: Vec<Stmt>, terminator: Terminator) -> u32 {
        let id = self.states.len() as u32;
        self.states.push(State {
            id,
            stmts,
            terminator,
        });
        id
    }

    /// Rewrites non-blocking assignments to scalar registers into blocking writes
    /// of their shadow registers, so the update step can be deferred to the latch
    /// state (§3.4's `__sum_next`).
    fn rewrite_nba(&mut self, stmt: &Stmt) -> Stmt {
        match stmt {
            Stmt::NonBlocking(a) => match &a.lhs {
                LValue::Ident(name)
                    if self
                        .module
                        .var(name)
                        .map(|v| v.depth.is_none())
                        .unwrap_or(false) =>
                {
                    self.shadowed.insert(name.clone());
                    Stmt::Block(vec![
                        Stmt::Blocking(Assign {
                            lhs: LValue::Ident(shadow_name(name)),
                            rhs: a.rhs.clone(),
                        }),
                        Stmt::Blocking(Assign {
                            lhs: LValue::Ident(pending_name(name)),
                            rhs: Expr::sized(1, 1),
                        }),
                    ])
                }
                _ => stmt.clone(),
            },
            Stmt::Block(v) => Stmt::Block(v.iter().map(|s| self.rewrite_nba(s)).collect()),
            Stmt::Fork(v) => Stmt::Block(v.iter().map(|s| self.rewrite_nba(s)).collect()),
            Stmt::If { cond, then, other } => Stmt::If {
                cond: cond.clone(),
                then: Box::new(self.rewrite_nba(then)),
                other: other.as_ref().map(|s| Box::new(self.rewrite_nba(s))),
            },
            Stmt::Case {
                expr,
                arms,
                default,
            } => Stmt::Case {
                expr: expr.clone(),
                arms: arms
                    .iter()
                    .map(|a| CaseArm {
                        labels: a.labels.clone(),
                        body: self.rewrite_nba(&a.body),
                    })
                    .collect(),
                default: default.as_ref().map(|s| Box::new(self.rewrite_nba(s))),
            },
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => Stmt::For {
                init: init.clone(),
                cond: cond.clone(),
                step: step.clone(),
                body: Box::new(self.rewrite_nba(body)),
            },
            Stmt::Repeat { count, body } => Stmt::Repeat {
                count: count.clone(),
                body: Box::new(self.rewrite_nba(body)),
            },
            other => other.clone(),
        }
    }

    /// Compiles a statement sequence; control continues at `cont` afterwards.
    fn compile_seq(&mut self, stmts: &[Stmt], cont: u32) -> VlogResult<u32> {
        // Partition into maximal synthesizable runs and task-containing breakers.
        enum Segment {
            Synth(Vec<Stmt>),
            Breaker(Stmt),
        }
        let mut segments: Vec<Segment> = Vec::new();
        for stmt in stmts {
            if stmt.contains_system_task() {
                segments.push(Segment::Breaker(stmt.clone()));
            } else {
                match segments.last_mut() {
                    Some(Segment::Synth(run)) => run.push(stmt.clone()),
                    _ => segments.push(Segment::Synth(vec![stmt.clone()])),
                }
            }
        }
        let mut next = cont;
        for segment in segments.into_iter().rev() {
            next = match segment {
                Segment::Synth(run) => {
                    let rewritten = run.iter().map(|s| self.rewrite_nba(s)).collect();
                    self.alloc(rewritten, Terminator::Goto(next))
                }
                Segment::Breaker(stmt) => self.compile_breaker(&stmt, next)?,
            };
        }
        Ok(next)
    }

    fn compile_breaker(&mut self, stmt: &Stmt, cont: u32) -> VlogResult<u32> {
        match stmt {
            Stmt::SystemTask(task) => {
                self.tasks.push(task.clone());
                let task_id = self.tasks.len() as u32;
                Ok(self.alloc(
                    Vec::new(),
                    Terminator::Task {
                        task: task_id,
                        resume: cont,
                    },
                ))
            }
            Stmt::Block(stmts) | Stmt::Fork(stmts) => self.compile_seq(stmts, cont),
            Stmt::If { cond, then, other } => {
                let then_entry = self.compile_seq(std::slice::from_ref(then), cont)?;
                let else_entry = match other {
                    Some(e) => self.compile_seq(std::slice::from_ref(e), cont)?,
                    None => cont,
                };
                Ok(self.alloc(
                    Vec::new(),
                    Terminator::Branch {
                        cond: cond.clone(),
                        then_state: then_entry,
                        else_state: else_entry,
                    },
                ))
            }
            Stmt::Case {
                expr,
                arms,
                default,
            } => {
                // Lower to a chain of two-way branches; the default (or fall-off)
                // continues at `cont`.
                let default_entry = match default {
                    Some(d) => self.compile_seq(std::slice::from_ref(d), cont)?,
                    None => cont,
                };
                let mut next = default_entry;
                for arm in arms.iter().rev() {
                    let body_entry = self.compile_seq(std::slice::from_ref(&arm.body), cont)?;
                    let mut cond: Option<Expr> = None;
                    for label in &arm.labels {
                        let eq = Expr::Binary(
                            BinaryOp::Eq,
                            Box::new(expr.clone()),
                            Box::new(label.clone()),
                        );
                        cond = Some(match cond {
                            None => eq,
                            Some(c) => Expr::Binary(BinaryOp::LogicalOr, Box::new(c), Box::new(eq)),
                        });
                    }
                    let cond = cond.unwrap_or_else(|| Expr::sized(1, 0));
                    next = self.alloc(
                        Vec::new(),
                        Terminator::Branch {
                            cond,
                            then_state: body_entry,
                            else_state: next,
                        },
                    );
                }
                Ok(next)
            }
            Stmt::Repeat { count, body } => {
                let n = const_eval(count, &|_| None)
                    .map(|b| b.to_u64())
                    .ok_or_else(|| {
                        VlogError::Unsupported(
                            "repeat loops containing system tasks must have constant bounds".into(),
                        )
                    })?;
                if n > MAX_UNROLL {
                    return Err(VlogError::Unsupported(format!(
                        "repeat loop with {} iterations containing tasks exceeds the unroll limit",
                        n
                    )));
                }
                let unrolled: Vec<Stmt> = (0..n).map(|_| (**body).clone()).collect();
                self.compile_seq(&unrolled, cont)
            }
            Stmt::For { .. } => Err(VlogError::Unsupported(
                "for loops containing system tasks are not supported by the state machine \
                 transformation; hoist the task out of the loop"
                    .into(),
            )),
            other => unreachable!("a breaker contains a system task: {:?}", other),
        }
    }
}

/// Renumbers states in depth-first order from the entry so that the common path
/// falls through in increasing state order (maximising work per native cycle).
fn renumber(machine: &mut StateMachine) {
    let n = machine.states.len();
    let mut order: Vec<Option<u32>> = vec![None; n];
    let mut next_id = 0u32;
    let mut stack = vec![machine.entry];
    while let Some(id) = stack.pop() {
        let idx = id as usize;
        if order[idx].is_some() {
            continue;
        }
        order[idx] = Some(next_id);
        next_id += 1;
        // Push successors so that the fall-through successor is visited next.
        match &machine.states[idx].terminator {
            Terminator::Goto(t) => stack.push(*t),
            Terminator::Task { resume, .. } => stack.push(*resume),
            Terminator::Branch {
                then_state,
                else_state,
                ..
            } => {
                stack.push(*else_state);
                stack.push(*then_state);
            }
            Terminator::Done => {}
        }
    }
    // Unreachable states (possible when every path traps) keep a stable order after
    // the reachable ones.
    for slot in order.iter_mut() {
        if slot.is_none() {
            *slot = Some(next_id);
            next_id += 1;
        }
    }
    let map = |old: u32| order[old as usize].unwrap();
    let mut new_states: Vec<State> = vec![
        State {
            id: 0,
            stmts: Vec::new(),
            terminator: Terminator::Done,
        };
        n
    ];
    for (old_idx, state) in machine.states.iter().enumerate() {
        let new_id = map(old_idx as u32);
        let terminator = match &state.terminator {
            Terminator::Goto(t) => Terminator::Goto(map(*t)),
            Terminator::Task { task, resume } => Terminator::Task {
                task: *task,
                resume: map(*resume),
            },
            Terminator::Branch {
                cond,
                then_state,
                else_state,
            } => Terminator::Branch {
                cond: cond.clone(),
                then_state: map(*then_state),
                else_state: map(*else_state),
            },
            Terminator::Done => Terminator::Done,
        };
        new_states[new_id as usize] = State {
            id: new_id,
            stmts: state.stmts.clone(),
            terminator,
        };
    }
    machine.entry = map(machine.entry);
    machine.latch = map(machine.latch);
    machine.final_state = map(machine.final_state);
    machine.states = new_states;
}

/// Strips system-task statements from a statement tree (the Cascade baseline mode).
pub fn strip_system_tasks(stmt: &Stmt) -> Stmt {
    match stmt {
        Stmt::SystemTask(_) => Stmt::Null,
        Stmt::Block(v) => Stmt::Block(v.iter().map(strip_system_tasks).collect()),
        Stmt::Fork(v) => Stmt::Fork(v.iter().map(strip_system_tasks).collect()),
        Stmt::If { cond, then, other } => Stmt::If {
            cond: cond.clone(),
            then: Box::new(strip_system_tasks(then)),
            other: other.as_ref().map(|s| Box::new(strip_system_tasks(s))),
        },
        Stmt::Case {
            expr,
            arms,
            default,
        } => Stmt::Case {
            expr: expr.clone(),
            arms: arms
                .iter()
                .map(|a| CaseArm {
                    labels: a.labels.clone(),
                    body: strip_system_tasks(&a.body),
                })
                .collect(),
            default: default.as_ref().map(|s| Box::new(strip_system_tasks(s))),
        },
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => Stmt::For {
            init: init.clone(),
            cond: cond.clone(),
            step: step.clone(),
            body: Box::new(strip_system_tasks(body)),
        },
        Stmt::Repeat { count, body } => Stmt::Repeat {
            count: count.clone(),
            body: Box::new(strip_system_tasks(body)),
        },
        other => other.clone(),
    }
}

/// The shadow register holding a deferred non-blocking value for `name`.
pub fn shadow_name(name: &str) -> String {
    format!("__nb_{}", name)
}

/// The pending flag register paired with [`shadow_name`].
pub fn pending_name(name: &str) -> String {
    format!("__nbp_{}", name)
}

/// Lowers an elaborated module's procedural logic into a [`StateMachine`].
///
/// # Errors
///
/// Returns [`VlogError::Unsupported`] for task-containing loops that cannot be
/// unrolled.
pub fn lower(module: &ElabModule, options: TransformOptions) -> VlogResult<StateMachine> {
    let mut always = module.always.clone();
    if options.strip_tasks {
        for block in always.iter_mut() {
            block.body = strip_system_tasks(&block.body);
        }
    }
    let core = merge_always(&always);
    lower_core(module, &core)
}

/// Lowers an already-merged core.
pub fn lower_core(module: &ElabModule, core: &Core) -> VlogResult<StateMachine> {
    let mut lowering = Lowering::new(module);

    // Final (idle) and latch states are allocated first; their ids are fixed up by
    // renumbering at the end.
    let final_state = lowering.alloc(Vec::new(), Terminator::Done);
    let latch = lowering.alloc(Vec::new(), Terminator::Goto(final_state));

    // The core body: each original section guarded by its latched trigger regs.
    let mut body = Vec::new();
    for section in &core.sections {
        let mut guard: Option<Expr> = None;
        for ev in &section.events {
            let t = Expr::ident(trigger_name(ev));
            guard = Some(match guard {
                None => t,
                Some(g) => Expr::Binary(BinaryOp::LogicalOr, Box::new(g), Box::new(t)),
            });
        }
        let guarded = match guard {
            // `always @*` sections have no events; they run every tick.
            None => section.body.clone(),
            Some(g) => Stmt::If {
                cond: g,
                then: Box::new(section.body.clone()),
                other: None,
            },
        };
        body.push(guarded);
    }
    let entry = lowering.compile_seq(&body, latch)?;

    // Fill in the latch state's statements now that we know which registers were
    // shadowed.
    let shadowed: Vec<String> = lowering.shadowed.iter().cloned().collect();
    let mut latch_stmts = Vec::new();
    for name in &shadowed {
        latch_stmts.push(Stmt::If {
            cond: Expr::ident(pending_name(name)),
            then: Box::new(Stmt::Block(vec![
                Stmt::Blocking(Assign {
                    lhs: LValue::Ident(name.clone()),
                    rhs: Expr::ident(shadow_name(name)),
                }),
                Stmt::Blocking(Assign {
                    lhs: LValue::Ident(pending_name(name)),
                    rhs: Expr::sized(1, 0),
                }),
            ])),
            other: None,
        });
    }
    lowering.states[latch as usize].stmts = latch_stmts;

    let mut machine = StateMachine {
        states: lowering.states,
        entry,
        latch,
        final_state,
        tasks: lowering.tasks,
        shadowed,
    };
    renumber(&mut machine);
    Ok(machine)
}

// --------------------------------------------------------------------- emission

/// Emits the transformed module (Figure 5 style) as a Verilog AST [`Module`].
///
/// The generated module is synthesizable apart from the `__task` signalling
/// convention, executes on the native device clock `__clk`, and preserves the
/// semantics of the original program at virtual-clock-tick granularity.
pub fn emit_module(module: &ElabModule, core: &Core, machine: &StateMachine, name: &str) -> Module {
    let mut out = Module::new(name);

    // ---------------------------------------------------------------- ports
    out.ports.push(Port {
        dir: PortDir::Input,
        is_reg: false,
        range: None,
        name: "__clk".into(),
    });
    out.ports.push(Port {
        dir: PortDir::Input,
        is_reg: false,
        range: Some(range(7, 0)),
        name: "__abi".into(),
    });
    for var in module.vars.values() {
        if let Some(dir) = var.port {
            out.ports.push(Port {
                dir,
                is_reg: false,
                range: if var.width > 1 {
                    Some(range(var.width as u64 - 1, 0))
                } else {
                    None
                },
                name: var.name.clone(),
            });
        }
    }
    for (n, w) in [("__task", 16u64), ("__state", 16), ("__done", 1)] {
        out.ports.push(Port {
            dir: PortDir::Output,
            is_reg: false,
            range: if w > 1 { Some(range(w - 1, 0)) } else { None },
            name: n.into(),
        });
    }

    // ---------------------------------------------------------------- declarations
    // Original non-port variables (registers keep their initial values and
    // attributes so the synthesis estimator sees the same state).
    for var in module.vars.values() {
        if var.port.is_some() {
            continue;
        }
        let mut attributes = Vec::new();
        if var.non_volatile {
            attributes.push(Attribute {
                name: "non_volatile".into(),
                value: None,
            });
        }
        out.items.push(Item::Decl(Decl {
            attributes,
            kind: var.kind,
            range: if var.width > 1 {
                Some(range(var.width as u64 - 1, 0))
            } else {
                None
            },
            name: var.name.clone(),
            mem_range: var.depth.map(|d| range(0, d as u64 - 1)),
            init: var.init.as_ref().map(|b| Expr::Literal(b.clone())),
        }));
    }

    // State machine registers. `__state` and `__task` double as output ports.
    out.items
        .push(reg_decl("__state", 16, Some(machine.final_state as u64)));
    out.items.push(reg_decl("__task", 16, Some(TASK_NONE)));

    // Edge detection: previous-value registers and edge wires (Figure 4).
    let mut declared_prev = BTreeSet::new();
    for ev in &core.events {
        if let Expr::Ident(sig) = &ev.expr {
            if declared_prev.insert(sig.clone()) {
                out.items.push(reg_decl(&prev_reg_name(sig), 1, Some(0)));
            }
        }
        let wire = edge_wire_name(ev);
        let expr = match (&ev.edge, &ev.expr) {
            (Edge::Pos, Expr::Ident(sig)) => Expr::Binary(
                BinaryOp::And,
                Box::new(Expr::Unary(
                    UnaryOp::LogicalNot,
                    Box::new(Expr::ident(prev_reg_name(sig))),
                )),
                Box::new(Expr::ident(sig.clone())),
            ),
            (Edge::Neg, Expr::Ident(sig)) => Expr::Binary(
                BinaryOp::And,
                Box::new(Expr::ident(prev_reg_name(sig))),
                Box::new(Expr::Unary(
                    UnaryOp::LogicalNot,
                    Box::new(Expr::ident(sig.clone())),
                )),
            ),
            (Edge::Any, Expr::Ident(sig)) => Expr::Binary(
                BinaryOp::Ne,
                Box::new(Expr::ident(prev_reg_name(sig))),
                Box::new(Expr::ident(sig.clone())),
            ),
            // Non-identifier guards are rare; treat as always-armed.
            _ => Expr::sized(1, 1),
        };
        out.items.push(Item::Decl(Decl {
            attributes: Vec::new(),
            kind: NetKind::Wire,
            range: None,
            name: wire,
            mem_range: None,
            init: Some(expr),
        }));
        // Latched trigger register used inside the state machine body.
        out.items.push(reg_decl(&trigger_name(ev), 1, Some(0)));
    }

    // Shadow registers for deferred non-blocking assignments.
    for name in &machine.shadowed {
        let width = module.width_of_var(name);
        out.items.push(reg_decl(&shadow_name(name), width, Some(0)));
        out.items.push(reg_decl(&pending_name(name), 1, Some(0)));
    }

    // Original continuous assignments are synthesizable and pass through unchanged.
    for a in &module.assigns {
        out.items.push(Item::ContinuousAssign(a.clone()));
    }

    // ---------------------------------------------------------------- core block
    let mut body: Vec<Stmt> = Vec::new();

    // (a) Acknowledge a pending task when the runtime asserts CONT.
    body.push(Stmt::If {
        cond: Expr::Binary(
            BinaryOp::Eq,
            Box::new(Expr::ident("__abi")),
            Box::new(Expr::sized(8, ABI_CONT)),
        ),
        then: Box::new(Stmt::Blocking(Assign {
            lhs: LValue::Ident("__task".into()),
            rhs: Expr::sized(16, TASK_NONE),
        })),
        other: None,
    });

    // (b) Start a new virtual tick when idle and any edge fired: latch triggers.
    if !core.events.is_empty() {
        let mut any_edge: Option<Expr> = None;
        let mut latch_stmts = Vec::new();
        for ev in &core.events {
            let wire = Expr::ident(edge_wire_name(ev));
            any_edge = Some(match any_edge {
                None => wire.clone(),
                Some(e) => Expr::Binary(BinaryOp::LogicalOr, Box::new(e), Box::new(wire.clone())),
            });
            latch_stmts.push(Stmt::Blocking(Assign {
                lhs: LValue::Ident(trigger_name(ev)),
                rhs: wire,
            }));
        }
        latch_stmts.push(Stmt::Blocking(Assign {
            lhs: LValue::Ident("__state".into()),
            rhs: Expr::sized(16, machine.entry as u64),
        }));
        body.push(Stmt::If {
            cond: Expr::Binary(
                BinaryOp::LogicalAnd,
                Box::new(Expr::Binary(
                    BinaryOp::Eq,
                    Box::new(Expr::ident("__state")),
                    Box::new(Expr::sized(16, machine.final_state as u64)),
                )),
                Box::new(any_edge.unwrap()),
            ),
            then: Box::new(Stmt::Block(latch_stmts)),
            other: None,
        });
    }

    // (c) One `if` per state, emitted in increasing id order for fall-through.
    for state in &machine.states {
        if state.id == machine.final_state {
            continue;
        }
        let mut stmts = state.stmts.clone();
        match &state.terminator {
            Terminator::Goto(t) => stmts.push(set_state(*t)),
            Terminator::Task { task, resume } => {
                stmts.push(Stmt::Blocking(Assign {
                    lhs: LValue::Ident("__task".into()),
                    rhs: Expr::sized(16, *task as u64),
                }));
                stmts.push(set_state(*resume));
            }
            Terminator::Branch {
                cond,
                then_state,
                else_state,
            } => stmts.push(Stmt::Blocking(Assign {
                lhs: LValue::Ident("__state".into()),
                rhs: Expr::Ternary(
                    Box::new(cond.clone()),
                    Box::new(Expr::sized(16, *then_state as u64)),
                    Box::new(Expr::sized(16, *else_state as u64)),
                ),
            })),
            Terminator::Done => {}
        }
        body.push(Stmt::If {
            cond: Expr::Binary(
                BinaryOp::LogicalAnd,
                Box::new(Expr::Binary(
                    BinaryOp::Eq,
                    Box::new(Expr::ident("__state")),
                    Box::new(Expr::sized(16, state.id as u64)),
                )),
                Box::new(Expr::Binary(
                    BinaryOp::Eq,
                    Box::new(Expr::ident("__task")),
                    Box::new(Expr::sized(16, TASK_NONE)),
                )),
            ),
            then: Box::new(Stmt::Block(stmts)),
            other: None,
        });
    }

    // (d) Update the previous-value registers used for edge detection.
    for sig in &declared_prev {
        body.push(Stmt::NonBlocking(Assign {
            lhs: LValue::Ident(prev_reg_name(sig)),
            rhs: Expr::ident(sig.clone()),
        }));
    }

    out.items.push(Item::Always(AlwaysBlock {
        events: vec![Event {
            edge: Edge::Pos,
            expr: Expr::ident("__clk"),
        }],
        body: Stmt::Block(body),
    }));

    // ---------------------------------------------------------------- status wires
    out.items.push(Item::ContinuousAssign(Assign {
        lhs: LValue::Ident("__done".into()),
        rhs: Expr::Binary(
            BinaryOp::LogicalAnd,
            Box::new(Expr::Binary(
                BinaryOp::Eq,
                Box::new(Expr::ident("__state")),
                Box::new(Expr::sized(16, machine.final_state as u64)),
            )),
            Box::new(Expr::Binary(
                BinaryOp::Eq,
                Box::new(Expr::ident("__task")),
                Box::new(Expr::sized(16, TASK_NONE)),
            )),
        ),
    }));

    out
}

fn range(msb: u64, lsb: u64) -> Range {
    Range {
        msb: Expr::Literal(Bits::from_u64(32, msb)),
        lsb: Expr::Literal(Bits::from_u64(32, lsb)),
    }
}

fn reg_decl(name: &str, width: usize, init: Option<u64>) -> Item {
    Item::Decl(Decl {
        attributes: Vec::new(),
        kind: NetKind::Reg,
        range: if width > 1 {
            Some(range(width as u64 - 1, 0))
        } else {
            None
        },
        name: name.to_string(),
        mem_range: None,
        init: init.map(|v| Expr::Literal(Bits::from_u64(width, v))),
    })
}

fn set_state(target: u32) -> Stmt {
    Stmt::Blocking(Assign {
        lhs: LValue::Ident("__state".into()),
        rhs: Expr::sized(16, target as u64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_vlog::compile;

    fn lower_src(src: &str) -> (ElabModule, StateMachine) {
        let m = compile(src, "M").unwrap();
        let sm = lower(&m, TransformOptions::default()).unwrap();
        (m, sm)
    }

    #[test]
    fn task_free_design_has_three_states() {
        // Entry (whole body), latch, final.
        let (_, sm) = lower_src(
            r#"module M(input wire clock);
                   reg [7:0] c = 0;
                   always @(posedge clock) c <= c + 1;
               endmodule"#,
        );
        assert_eq!(sm.num_states(), 3);
        assert!(sm.tasks.is_empty());
        assert_eq!(sm.shadowed, vec!["c".to_string()]);
    }

    #[test]
    fn each_task_gets_a_state() {
        let (_, sm) = lower_src(
            r#"module M(input wire clock);
                   reg [31:0] n = 0;
                   always @(posedge clock) begin
                       $display(n);
                       n <= n + 1;
                       $display(n);
                   end
               endmodule"#,
        );
        assert_eq!(sm.tasks.len(), 2);
        let task_states = sm
            .states
            .iter()
            .filter(|s| matches!(s.terminator, Terminator::Task { .. }))
            .count();
        assert_eq!(task_states, 2);
    }

    #[test]
    fn figure_2_lowering_matches_paper_structure() {
        // The motivating example produces: read task, eof branch, display task,
        // finish task, and the else-branch accumulate state (Figure 5).
        let (_, sm) = lower_src(
            r#"module M(input wire clock);
                   reg [31:0] fd = 0;
                   reg [31:0] r = 0;
                   reg [127:0] sum = 0;
                   always @(posedge clock) begin
                       $fread(fd, r);
                       if ($feof(fd)) begin
                           $display(sum);
                           $finish(0);
                       end else
                           sum <= sum + r;
                   end
               endmodule"#,
        );
        assert_eq!(sm.tasks.len(), 3, "fread, display, finish");
        let kinds: Vec<TaskKind> = sm.tasks.iter().map(|t| t.kind).collect();
        for k in [TaskKind::Fread, TaskKind::Display, TaskKind::Finish] {
            assert!(kinds.contains(&k), "missing task {:?}", k);
        }
        let branches = sm
            .states
            .iter()
            .filter(|s| matches!(s.terminator, Terminator::Branch { .. }))
            .count();
        // The $feof conditional plus the latched-trigger guard around the section.
        assert_eq!(branches, 2);
        assert!(sm.shadowed.contains(&"sum".to_string()));
    }

    #[test]
    fn entry_state_precedes_successors_after_renumbering() {
        let (_, sm) = lower_src(
            r#"module M(input wire clock);
                   reg [31:0] n = 0;
                   always @(posedge clock) begin
                       $display(n);
                       n <= n + 1;
                   end
               endmodule"#,
        );
        // Entry is the lowest-numbered state and final is reachable from latch.
        assert_eq!(sm.entry, 0);
        assert!(sm.latch < sm.final_state || sm.final_state < sm.num_states() as u32);
        // Every terminator target is a valid state id.
        for s in &sm.states {
            match &s.terminator {
                Terminator::Goto(t) => assert!((*t as usize) < sm.num_states()),
                Terminator::Task { resume, .. } => assert!((*resume as usize) < sm.num_states()),
                Terminator::Branch {
                    then_state,
                    else_state,
                    ..
                } => {
                    assert!((*then_state as usize) < sm.num_states());
                    assert!((*else_state as usize) < sm.num_states());
                }
                Terminator::Done => {}
            }
        }
    }

    #[test]
    fn strip_tasks_mode_removes_all_tasks() {
        let m = compile(
            r#"module M(input wire clock);
                   reg [31:0] n = 0;
                   always @(posedge clock) begin
                       $display(n);
                       n <= n + 1;
                   end
               endmodule"#,
            "M",
        )
        .unwrap();
        let sm = lower(&m, TransformOptions { strip_tasks: true }).unwrap();
        assert!(sm.tasks.is_empty());
        assert_eq!(sm.num_states(), 3);
    }

    #[test]
    fn case_with_tasks_lowers_to_branches() {
        let (_, sm) = lower_src(
            r#"module M(input wire clock);
                   reg [1:0] s = 0;
                   always @(posedge clock)
                       case (s)
                           0: $display("zero");
                           1, 2: s <= 0;
                           default: $finish(0);
                       endcase
               endmodule"#,
        );
        assert_eq!(sm.tasks.len(), 2);
        let branches = sm
            .states
            .iter()
            .filter(|s| matches!(s.terminator, Terminator::Branch { .. }))
            .count();
        // One chained branch per labelled arm plus the trigger guard.
        assert_eq!(branches, 3);
    }

    #[test]
    fn repeat_with_tasks_unrolls() {
        let (_, sm) = lower_src(
            r#"module M(input wire clock);
                   reg [7:0] a = 0;
                   always @(posedge clock) repeat (3) $display(a);
               endmodule"#,
        );
        assert_eq!(sm.tasks.len(), 3);
    }

    #[test]
    fn for_with_tasks_is_rejected() {
        let m = compile(
            r#"module M(input wire clock);
                   integer i = 0;
                   always @(posedge clock)
                       for (i = 0; i < 4; i = i + 1) $display(i);
               endmodule"#,
            "M",
        )
        .unwrap();
        let err = lower(&m, TransformOptions::default()).unwrap_err();
        assert!(matches!(err, VlogError::Unsupported(_)));
    }

    #[test]
    fn emitted_module_parses_and_elaborates() {
        let m = compile(
            r#"module M(input wire clock, output wire [31:0] out);
                   reg [31:0] n = 0;
                   always @(posedge clock) begin
                       $display(n);
                       n <= n + 1;
                   end
                   assign out = n;
               endmodule"#,
            "M",
        )
        .unwrap();
        let core = merge_always(&m.always);
        let sm = lower(&m, TransformOptions::default()).unwrap();
        let module = emit_module(&m, &core, &sm, "M__synergy");
        let text = synergy_vlog::printer::print_module(&module);
        let elab = synergy_vlog::compile(&text, "M__synergy")
            .unwrap_or_else(|e| panic!("emitted module failed to elaborate: {}\n{}", e, text));
        // ABI plumbing exists.
        for var in [
            "__clk", "__abi", "__task", "__state", "__done", "n", "out", "clock",
        ] {
            assert!(elab.vars.contains_key(var), "missing {}", var);
        }
    }
}
