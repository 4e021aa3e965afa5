//! The event scheduler — written once, run by both machines.
//!
//! **One job:** turn a [`CompiledProgram`] plus a machine that can execute
//! its code into the engine ABI: `evaluate`/`update` until fixpoint
//! (`settle`), edge-detected guards, per-tick non-blocking latching, the
//! level-bucketed combinational worklist, settle-cap fault capture,
//! `save_state`/`restore_state`, and the name→slot accessors. The
//! semantics are the reference interpreter's, tick for tick and error string
//! for error string.
//!
//! **Key design decision:** [`Sim`] is generic over a small [`Machine`]
//! trait and statically dispatched. A machine supplies only its value store,
//! its op interpreter, and its fast paths; everything that decides *when*
//! code runs lives here, in exactly one copy. Two machines implement the
//! trait: the word machine behind [`CompiledSim`] (production) and the stack
//! machine behind [`StackSim`] (the differential oracle for the regalloc
//! translation). Sharing the scheduler costs no coverage — interpreter ⇄
//! compiled lockstep checks the scheduler, stack ⇄ word lockstep checks the
//! translation, which is the part that stays separate. The interpreter
//! deliberately shares nothing with this module: its independence is what
//! makes it the reference.
//!
//! Combinational re-evaluation is a **level-bucketed worklist**: marking a
//! node dirty pushes its position into the bucket of its topological level,
//! and `propagate` drains buckets in ascending order. A node's stores only
//! ever mark strictly deeper levels (or itself, which the post-execution
//! dirty-clear absorbs), so one sweep reaches the fixpoint while touching
//! exactly the dirty cone.

use crate::exec::StackMachine;
use crate::ir::{CompiledProgram, SlotRef, Val};
use crate::wordexec::WordMachine;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use synergy_interp::{StateSnapshot, SystemEnv, TaskEffect, Value};
use synergy_vlog::ast::Edge;
use synergy_vlog::{Bits, VlogError, VlogResult};

/// Upper bound on evaluate-loop iterations, mirroring the interpreter.
const MAX_PROPAGATION_ITERS: usize = 10_000;

/// Upper bound on evaluate/update rounds per settle, mirroring the
/// interpreter's cap (same limit, same error text) so self-triggering
/// designs fail identically on every engine.
const MAX_SETTLE_ITERS: usize = 1_000;

/// A no-op environment for guard evaluation and post-restore propagation,
/// mirroring the interpreter's `NullEnv`.
pub(crate) struct NoopEnv;

impl SystemEnv for NoopEnv {
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

/// Cumulative executor-internal telemetry counters.
///
/// These count *work performed* (which is deterministic for a given program
/// and input), not host time. The runtime diffs them around each `run_ticks`
/// call and feeds the deltas into the deterministic metrics namespace. Every
/// runtime engine reports them; the interpreter, which has no worklist and
/// no arena, fills `settle_iters` only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Evaluate/update rounds executed by `settle`.
    pub settle_iters: u64,
    /// Combinational worklist nodes drained by `propagate`.
    pub worklist_drains: u64,
    /// Guard scans skipped by the word machine's write-epoch check (always
    /// 0 on the stack oracle).
    pub guard_epoch_skips: u64,
    /// Register-arena footprint of the word machine (word + wide + net
    /// slots; 0 on the stack oracle).
    pub arena_regs: u64,
}

/// The scheduling state both op interpreters write while they run: the
/// combinational worklist, the non-blocking queue, raised effects, the
/// finish flag, and the interpreters' shared scratch (latched value, loop
/// counters, print buffer). Each machine embeds one next to its value store
/// so an op handler reaches everything through a single pointer.
#[derive(Debug, Clone)]
pub struct Sched {
    comb_dirty: Vec<bool>,
    /// Level-bucketed worklist of dirty comb positions (bucket = level - 1).
    pending: Vec<Vec<u32>>,
    /// Bucket index per comb position.
    comb_bucket: Vec<u32>,
    pending_count: usize,
    /// Scheduled non-blocking assignments: `(latch site, value)`.
    pub(crate) nb: Vec<(u32, Val)>,
    /// The value being latched (or just `$fread`), read by `PushValueReg`.
    pub(crate) value_reg: Val,
    pub(crate) loops: Vec<u64>,
    pub(crate) print_buf: String,
    pub(crate) effects: Vec<TaskEffect>,
    pub(crate) time: u64,
    pub(crate) finished: Option<u32>,
    initials_run: bool,
    /// Telemetry counters and settle-cap fault detail. Observability only:
    /// never part of `save_state`/`restore_state` or any wire format.
    settle_iters: u64,
    worklist_drains: u64,
    fault: Option<String>,
}

impl Sched {
    /// Fresh scheduling state for `prog`, with every comb node dirty.
    pub(crate) fn new(prog: &CompiledProgram) -> Sched {
        let comb_bucket: Vec<u32> = prog
            .comb
            .iter()
            .map(|n| n.level.saturating_sub(1))
            .collect();
        let n_levels = comb_bucket
            .iter()
            .map(|&b| b as usize + 1)
            .max()
            .unwrap_or(0);
        let mut sc = Sched {
            comb_dirty: vec![false; prog.comb.len()],
            pending: vec![Vec::new(); n_levels],
            comb_bucket,
            pending_count: 0,
            nb: Vec::new(),
            value_reg: Val::zero(1),
            loops: vec![0; prog.n_loops as usize],
            print_buf: String::new(),
            effects: Vec::new(),
            time: 0,
            finished: None,
            initials_run: false,
            settle_iters: 0,
            worklist_drains: 0,
            fault: None,
        };
        sc.mark_all();
        sc
    }

    /// Queues a comb node for re-evaluation (idempotent while it is queued).
    #[inline]
    pub(crate) fn mark_comb(&mut self, pos: u32) {
        if !self.comb_dirty[pos as usize] {
            self.comb_dirty[pos as usize] = true;
            self.pending[self.comb_bucket[pos as usize] as usize].push(pos);
            self.pending_count += 1;
        }
    }

    fn mark_all(&mut self) {
        for pos in 0..self.comb_dirty.len() {
            self.mark_comb(pos as u32);
        }
    }
}

/// One sampled guard or `@*` sensitivity value. Machines hand out borrowed
/// samples; the scheduler keeps an owned copy only when the value changed.
///
/// Equality is [`Val`] equality (value *and* width) whichever variant holds
/// the sample, so a machine may report a word-sized value either way.
#[derive(Debug, Clone)]
pub enum Observed<'a> {
    /// A value at most 64 bits wide, with its width.
    W(u64, u32),
    /// Any value, tagged.
    B(Cow<'a, Val>),
}

impl Observed<'_> {
    fn bit0(&self) -> bool {
        match self {
            Observed::W(v, _) => v & 1 == 1,
            Observed::B(v) => v.bit(0),
        }
    }

    fn into_owned(self) -> Observed<'static> {
        match self {
            Observed::W(v, w) => Observed::W(v, w),
            Observed::B(v) => Observed::B(Cow::Owned(v.into_owned())),
        }
    }
}

impl Observed<'static> {
    /// Remembers `new` as the latest sample: a word is simply overwritten, a
    /// tagged value is cloned only if it differs from what is stored.
    #[inline]
    fn remember(&mut self, new: Observed<'_>) {
        match new {
            Observed::W(v, w) => *self = Observed::W(v, w),
            tagged => {
                if *self != tagged {
                    *self = tagged.into_owned();
                }
            }
        }
    }
}

impl<'b> PartialEq<Observed<'b>> for Observed<'_> {
    fn eq(&self, other: &Observed<'b>) -> bool {
        match (self, other) {
            (Observed::W(a, aw), Observed::W(b, bw)) => a == b && aw == bw,
            (Observed::B(a), Observed::B(b)) => a == b,
            (Observed::W(v, w), Observed::B(x)) | (Observed::B(x), Observed::W(v, w)) => {
                matches!(**x, Val::Small(xv, xw) if xv == *v && xw == *w)
            }
        }
    }
}

/// What a machine supplies to the scheduler: a value store, an op
/// interpreter over its own code representation, and its fast paths.
/// Sealed: the module is private, so no other crate can name or implement
/// it, and [`Sim`] is the only caller.
pub trait Machine: Clone + Send + Sized {
    /// The public simulator name, for `Debug`.
    const NAME: &'static str;

    /// Prepares `prog` for execution with registers at their declared reset
    /// values, or says why the program is malformed.
    fn build(prog: &CompiledProgram) -> Result<Self, String>;

    /// The embedded scheduling state.
    fn sched(&self) -> &Sched;
    /// The embedded scheduling state, mutably.
    fn sched_mut(&mut self) -> &mut Sched;

    /// Re-evaluates combinational node `pos`.
    fn run_comb(
        &mut self,
        prog: &CompiledProgram,
        pos: u32,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()>;
    /// Runs the body of `always` block `idx`.
    fn run_body(
        &mut self,
        prog: &CompiledProgram,
        idx: u32,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()>;
    /// Runs `initial` block `idx`.
    fn run_initial(
        &mut self,
        prog: &CompiledProgram,
        idx: usize,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()>;
    /// Latches `value` through non-blocking site `site`.
    fn latch(
        &mut self,
        prog: &CompiledProgram,
        site: u32,
        value: Val,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()>;

    /// Evaluates edge guard `eidx` of `always` block `idx` (a failing guard
    /// expression samples as a 1-bit zero).
    fn sample_guard(&mut self, prog: &CompiledProgram, idx: usize, eidx: usize) -> Observed<'_>;
    /// Reads one `@*` sensitivity entry (memories sample as element 0).
    fn sample_star(&self, prog: &CompiledProgram, slot: SlotRef) -> Observed<'_>;
    /// `true` when no guard-visible value changed since the last sampling
    /// pass, which may then be skipped. Called once per pass.
    fn guards_quiet(&mut self) -> bool {
        false
    }

    /// Reads a variable's current value.
    fn read(&self, prog: &CompiledProgram, slot: SlotRef) -> Value;
    /// Writes a scalar net (resized to its width) and re-wakes its readers
    /// unconditionally.
    fn write_net(&mut self, prog: &CompiledProgram, id: u32, value: &Bits);
    /// Drives a net from a word (a clock level, an ABI code): the hot half
    /// of `write_net`.
    fn write_word(&mut self, prog: &CompiledProgram, id: u32, value: u64) {
        self.write_net(prog, id, &Bits::from_u64(64, value));
    }
    /// The low 64 bits of a scalar net.
    fn net_word(&self, id: u32) -> u64;
    /// One memory element, `None` past the depth.
    fn read_elem(&self, mem: u32, idx: usize) -> Option<Bits>;
    /// Writes one memory element (resized to the element width; dropped
    /// past the depth) and re-wakes the memory's readers unconditionally.
    fn write_elem(&mut self, prog: &CompiledProgram, mem: u32, idx: usize, value: &Bits);
    /// Overwrites a variable from a snapshot value without waking anything
    /// (restore re-propagates everything afterwards); mismatched shapes are
    /// ignored. Must invalidate whatever `guards_quiet` relies on.
    fn load(&mut self, prog: &CompiledProgram, slot: SlotRef, value: &Value);

    /// The counters only this machine can fill (the scheduler fills the
    /// rest).
    fn fast_path_counters(&self) -> ExecCounters {
        ExecCounters::default()
    }
}

/// A compiled design plus its execution state on machine `M`. Use it through
/// the [`CompiledSim`] and [`StackSim`] aliases: the machine trait is sealed
/// (unnameable outside this crate), and the type is exported only so its
/// methods have a documentation page.
#[derive(Clone)]
pub struct Sim<M: Machine> {
    /// Immutable, and shared with every clone.
    prog: Arc<CompiledProgram>,
    m: M,
    /// Last sampled value per guard (or per `@*` entry) of each always block.
    guard_prev: Vec<Vec<Observed<'static>>>,
    /// Blocks the latest sampling pass fired; reused so edge detection
    /// allocates nothing per cycle.
    triggered: Vec<u32>,
}

/// The compiled software engine: the lowered program re-lowered into
/// register-allocated, width-specialized three-address code over flat `u64`
/// arenas. The one executor every runtime, hypervisor and cluster path seats
/// compiled programs on.
pub type CompiledSim = Sim<WordMachine>;

/// The differential oracle for the regalloc translation: the same scheduler
/// running the stack bytecode directly, over an operand stack of tagged
/// [`Val`]s. Slower by 2–3× and reachable from tests, the fuzzer and the
/// benches only — never from a runtime.
pub type StackSim = Sim<StackMachine>;

impl<M: Machine> std::fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(M::NAME)
            .field("program", &self.prog.name)
            .finish()
    }
}

impl<M: Machine> Sim<M> {
    /// Instantiates execution state for a compiled program, with registers at
    /// their declared reset values. The program is never written again: an
    /// `Arc<CompiledProgram>` is shared as is, an owned one is wrapped.
    ///
    /// # Errors
    ///
    /// Returns [`VlogError::Elaborate`] for a malformed program (bytecode
    /// whose operand-stack depth does not balance). Programs produced by
    /// [`crate::compile`] and the optimizer never are; the runtime still
    /// uses this constructor so a bad program costs one tenant a typed
    /// error, not the process a panic.
    pub fn try_new(prog: impl Into<Arc<CompiledProgram>>) -> VlogResult<Self> {
        let prog = prog.into();
        let m = M::build(&prog).map_err(|e| {
            VlogError::Elaborate(format!("malformed compiled program '{}': {}", prog.name, e))
        })?;
        let guard_prev = prog
            .always
            .iter()
            .map(|a| {
                let n = if a.guards.is_empty() {
                    a.star.len()
                } else {
                    a.guards.len()
                };
                vec![Observed::W(0, 1); n]
            })
            .collect();
        Ok(Sim {
            prog,
            m,
            guard_prev,
            triggered: Vec::new(),
        })
    }

    /// [`Sim::try_new`] for programs known to be well formed.
    ///
    /// # Panics
    ///
    /// Panics on a malformed program. Programs from [`crate::compile`] and
    /// `synergy_opt::optimize` are well formed by construction and by the
    /// pass validator; hand-built ones should go through [`Sim::try_new`].
    pub fn new(prog: impl Into<Arc<CompiledProgram>>) -> Self {
        Self::try_new(prog).expect("compile/optimize produce well-formed programs")
    }

    /// The compiled program being executed.
    pub fn program(&self) -> &CompiledProgram {
        &self.prog
    }

    /// Current simulation time (incremented by [`Sim::tick`]).
    pub fn time(&self) -> u64 {
        self.m.sched().time
    }

    /// The exit code passed to `$finish`, if the program has finished.
    pub fn finished(&self) -> Option<u32> {
        self.m.sched().finished
    }

    /// Drains control-flow effects raised since the last call.
    pub fn take_effects(&mut self) -> Vec<TaskEffect> {
        std::mem::take(&mut self.m.sched_mut().effects)
    }

    /// Cumulative executor-internal telemetry counters (observability only —
    /// excluded from `save_state`/`restore_state` and every wire format).
    pub fn exec_counters(&self) -> ExecCounters {
        let sc = self.m.sched();
        ExecCounters {
            settle_iters: sc.settle_iters,
            worklist_drains: sc.worklist_drains,
            ..self.m.fast_path_counters()
        }
    }

    /// Detail for the most recent settle-cap failure: the non-blocking
    /// targets that never converged. `None` until such a failure occurs. The
    /// error message itself stays engine-identical; this side channel is
    /// what names the failing always-block site in postmortems.
    pub fn fault_detail(&self) -> Option<&str> {
        self.m.sched().fault.as_deref()
    }

    fn slot(&self, name: &str) -> VlogResult<SlotRef> {
        self.prog
            .slot(name)
            .ok_or_else(|| VlogError::Elaborate(format!("no such variable '{}'", name)))
    }

    /// Resolves a variable name to its net id (inputs, clocks).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown names or memories.
    pub fn net_id(&self, name: &str) -> VlogResult<u32> {
        match self.slot(name)? {
            SlotRef::Net(i) => Ok(i),
            SlotRef::Mem(_) => Err(VlogError::Elaborate(format!(
                "cannot scalar-assign memory '{}'",
                name
            ))),
        }
    }

    /// Reads a variable's current value.
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist.
    pub fn get(&self, name: &str) -> VlogResult<Value> {
        Ok(self.get_slot(self.slot(name)?))
    }

    /// Reads a scalar variable as `Bits` (memories read as element 0).
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist.
    pub fn get_bits(&self, name: &str) -> VlogResult<Bits> {
        Ok(self.get(name)?.as_scalar().clone())
    }

    /// Writes a scalar variable (an input port, or any register).
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist or is a memory.
    pub fn set(&mut self, name: &str, value: Bits) -> VlogResult<()> {
        let id = self.net_id(name)?;
        self.set_net(id, &value);
        Ok(())
    }

    /// Writes a scalar net by id.
    pub fn set_net(&mut self, id: u32, value: &Bits) {
        self.m.write_net(&self.prog, id, value);
    }

    /// Writes a scalar net by id from a word: no `Bits` is built.
    pub fn set_net_word(&mut self, id: u32, value: u64) {
        self.m.write_word(&self.prog, id, value);
    }

    /// The low 64 bits of a scalar net, by id: a poll that allocates nothing.
    pub fn net_word(&self, id: u32) -> u64 {
        self.m.net_word(id)
    }

    /// Reads a variable by slot (memories whole, as [`Sim::get`] does).
    pub fn get_slot(&self, slot: SlotRef) -> Value {
        self.m.read(&self.prog, slot)
    }

    /// One memory element by id, `None` past the depth.
    pub fn mem_elem(&self, mem: u32, idx: usize) -> Option<Bits> {
        self.m.read_elem(mem, idx)
    }

    /// Writes one memory element by id (dropped past the depth): the
    /// indexed `$fread` store, without copying the memory.
    pub fn set_mem_elem(&mut self, mem: u32, idx: usize, value: &Bits) {
        self.m.write_elem(&self.prog, mem, idx, value);
    }

    /// `true` if non-blocking assignments are waiting to be latched.
    pub fn there_are_updates(&self) -> bool {
        !self.m.sched().nb.is_empty()
    }

    /// Runs `initial` blocks if they have not run yet.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from the initial blocks.
    pub fn run_initials(&mut self, env: &mut dyn SystemEnv) -> VlogResult<()> {
        if self.m.sched().initials_run {
            return Ok(());
        }
        self.m.sched_mut().initials_run = true;
        for idx in 0..self.prog.initials.len() {
            self.m.run_initial(&self.prog, idx, env)?;
        }
        Ok(())
    }

    /// Whether `initial` blocks have already executed.
    pub fn initials_run(&self) -> bool {
        self.m.sched().initials_run
    }

    /// Marks `initial` blocks as executed *without* running them. Used when
    /// restoring captured state into a fresh simulator: the checkpointed
    /// program already ran its initials (and their environment side effects,
    /// such as `$fopen`), so replaying them would corrupt the restored run.
    pub fn mark_initials_run(&mut self) {
        self.m.sched_mut().initials_run = true;
    }

    /// Re-evaluates dirty combinational cones, draining the worklist in
    /// ascending level order.
    fn propagate(&mut self, env: &mut dyn SystemEnv) -> VlogResult<()> {
        if self.m.sched().pending_count == 0 {
            return Ok(());
        }
        for lvl in 0..self.m.sched().pending.len() {
            while let Some(pos) = self.m.sched_mut().pending[lvl].pop() {
                let sc = self.m.sched_mut();
                sc.pending_count -= 1;
                sc.worklist_drains += 1;
                if let Err(e) = self.m.run_comb(&self.prog, pos, env) {
                    // Keep the worklist invariant (dirty nodes stay queued).
                    let sc = self.m.sched_mut();
                    sc.pending[lvl].push(pos);
                    sc.pending_count += 1;
                    return Err(e);
                }
                // Clear after executing: the node's own store re-marks it (as
                // the target's driver), and that self-mark is satisfied.
                self.m.sched_mut().comb_dirty[pos as usize] = false;
            }
            if self.m.sched().pending_count == 0 {
                break;
            }
        }
        Ok(())
    }

    /// Samples every guard and `@*` sensitivity entry and stores what it saw
    /// — the same edge-detection algorithm as the interpreter. With `fire`,
    /// blocks that saw an edge are appended to `self.triggered`; without, the
    /// pass only re-seeds edge detection from the current values.
    fn sample_guards(&mut self, fire: bool) {
        for (idx, ap) in self.prog.always.iter().enumerate() {
            let prevs = &mut self.guard_prev[idx];
            let mut fired = false;
            if ap.guards.is_empty() {
                for (prev, slot) in prevs.iter_mut().zip(&ap.star) {
                    let current = self.m.sample_star(&self.prog, *slot);
                    if *prev != current {
                        fired = true;
                        *prev = current.into_owned();
                    }
                }
            } else {
                for (eidx, (edge, _)) in ap.guards.iter().enumerate() {
                    let current = self.m.sample_guard(&self.prog, idx, eidx);
                    let prev = &mut prevs[eidx];
                    fired |= match edge {
                        Edge::Pos => !prev.bit0() && current.bit0(),
                        Edge::Neg => prev.bit0() && !current.bit0(),
                        Edge::Any => *prev != current,
                    };
                    prev.remember(current);
                }
            }
            if fired && fire {
                self.triggered.push(idx as u32);
            }
        }
    }

    /// Runs evaluation events to a fixed point (the `evaluate` ABI request).
    ///
    /// # Errors
    ///
    /// Returns an error on oscillating designs or malformed programs.
    pub fn evaluate(&mut self, env: &mut dyn SystemEnv) -> VlogResult<()> {
        self.run_initials(env)?;
        let mut iterations = 0usize;
        loop {
            self.propagate(env)?;
            self.triggered.clear();
            if !self.m.guards_quiet() {
                self.sample_guards(true);
            }
            if self.triggered.is_empty() {
                return Ok(());
            }
            for i in 0..self.triggered.len() {
                if self.m.sched().finished.is_some() {
                    return Ok(());
                }
                self.m.run_body(&self.prog, self.triggered[i], env)?;
                self.propagate(env)?;
            }
            iterations += 1;
            if iterations > MAX_PROPAGATION_ITERS {
                return Err(VlogError::Elaborate(
                    "always blocks did not stabilise (oscillating design?)".into(),
                ));
            }
        }
    }

    /// Latches pending non-blocking assignments (the `update` ABI request).
    /// Returns `true` if any were pending.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from index expressions.
    pub fn update(&mut self, env: &mut dyn SystemEnv) -> VlogResult<bool> {
        if self.m.sched().nb.is_empty() {
            return Ok(false);
        }
        let mut pending = std::mem::take(&mut self.m.sched_mut().nb);
        for (site, value) in pending.drain(..) {
            self.m.latch(&self.prog, site, value, env)?;
        }
        // Hand the drained buffer's capacity back so steady-state ticks stay
        // allocation-free.
        let nb = &mut self.m.sched_mut().nb;
        if nb.is_empty() {
            std::mem::swap(&mut pending, nb);
        }
        Ok(true)
    }

    /// Runs evaluate/update until no more updates are pending.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Sim::evaluate`] and [`Sim::update`], and
    /// rejects designs whose update rounds never drain (zero-delay
    /// self-triggering edges), exactly as the interpreter does.
    pub fn settle(&mut self, env: &mut dyn SystemEnv) -> VlogResult<()> {
        for iter in 0..MAX_SETTLE_ITERS {
            self.evaluate(env)?;
            let sc = self.m.sched_mut();
            sc.settle_iters += 1;
            if iter + 1 == MAX_SETTLE_ITERS && !sc.nb.is_empty() {
                // About to hit the cap: capture the still-pending targets for
                // the postmortem before the final update drains the queue.
                let names = &self.prog.nb_site_names;
                sc.fault = Some(synergy_interp::fault_from_targets(
                    sc.nb.iter().map(|(site, _)| names[*site as usize].as_str()),
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

    /// Advances one full virtual clock cycle on the named clock input.
    ///
    /// # Errors
    ///
    /// Returns an error if the clock does not exist or evaluation fails.
    pub fn tick(&mut self, clock: &str, env: &mut dyn SystemEnv) -> VlogResult<()> {
        let id = self.net_id(clock)?;
        self.tick_net(id, env)
    }

    /// Advances one full virtual clock cycle on a pre-resolved clock net.
    ///
    /// # Errors
    ///
    /// Returns an error if evaluation fails.
    pub fn tick_net(&mut self, clock: u32, env: &mut dyn SystemEnv) -> VlogResult<()> {
        self.m.write_word(&self.prog, clock, 1);
        self.settle(env)?;
        self.m.write_word(&self.prog, clock, 0);
        self.settle(env)?;
        self.m.sched_mut().time += 1;
        Ok(())
    }

    /// Captures the architectural state (registers and memories), in the same
    /// shape the interpreter produces.
    pub fn save_state(&self) -> StateSnapshot {
        let mut values = BTreeMap::new();
        for (name, slot) in &self.prog.slots {
            let is_register = match slot {
                SlotRef::Net(i) => self.prog.nets[*i as usize].is_register,
                SlotRef::Mem(i) => self.prog.mems[*i as usize].is_register,
            };
            if is_register {
                values.insert(name.clone(), self.m.read(&self.prog, *slot));
            }
        }
        StateSnapshot {
            values,
            time: self.m.sched().time,
        }
    }

    /// Restores a previously captured snapshot (from any engine),
    /// re-propagates combinational logic, and re-seeds edge detection from
    /// the restored values so the next evaluate sees no edges — the same
    /// restore semantics as the interpreter.
    pub fn restore_state(&mut self, snapshot: &StateSnapshot) {
        for (name, value) in &snapshot.values {
            if let Some(slot) = self.prog.slot(name) {
                self.m.load(&self.prog, slot, value);
            }
        }
        let sc = self.m.sched_mut();
        sc.time = snapshot.time;
        sc.mark_all();
        let _ = self.propagate(&mut NoopEnv);
        self.sample_guards(false);
    }
}

impl CompiledSim {
    /// Static three-address instruction count across all translated programs
    /// (always `Some`; the stack bytecode's static size is
    /// [`CompiledProgram::op_count`]). Together with `op_count` this is the
    /// "code footprint" pair the optimizer's `PassStats` report compares.
    pub fn word_op_count(&self) -> Option<usize> {
        Some(self.m.static_op_count())
    }

    /// [`word_op_count`](Self::word_op_count) broken down by word op: how
    /// many of each the translated programs hold, keyed by the op's name
    /// (the shapes that run inline — `CopyNet`, `SliceNet`, `WordNet`, a
    /// bare-net guard `NetW` — count one each under theirs). Static and
    /// deterministic: "which opcode mix dominates" without a run-time
    /// counter on the tick path.
    pub fn word_op_histogram(&self) -> std::collections::BTreeMap<String, usize> {
        self.m.static_op_histogram()
    }

    /// Renders the translated programs (debug aid for fusion coverage).
    #[doc(hidden)]
    pub fn dump_word_programs(&self) -> String {
        self.m.dump()
    }
}

// The hypervisor's parallel scheduler runs `CompiledSim`s on worker threads
// (one tenant per round job). Both machines are plain owned data — dense
// vectors of values and dirty bits, no shared interior mutability — so the
// simulators are `Send` by construction; this pins that property.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CompiledSim>();
    assert_send::<StackSim>();
    assert_send::<CompiledProgram>();
};

#[cfg(test)]
impl<M: Machine> Sim<M> {
    /// The machine, for tests of what clones share.
    pub(crate) fn machine(&self) -> &M {
        &self.m
    }
}
