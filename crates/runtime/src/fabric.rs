//! The fabric under the hardware engine: a simulator of the *transformed*
//! design clocked by `__clk`, and the ABI wires the engine polls and drives
//! on every native cycle (§3.4).
//!
//! **One job:** say what [`HardwareEngine`](crate::HardwareEngine) needs of
//! whatever stands in for the device, so that the trap protocol is written
//! once, over [`Fabric`], and runs on two of them.
//!
//! **Key design decision:** a fabric *is* one of the software engines, seated
//! on the transformed module with `__clk` as its clock — so state capture,
//! initial blocks, effects and counters are the [`Engine`] methods that exist
//! already — plus five accessors for the ABI wires and the task arguments.
//! [`CompiledFabric`] is the only one a runtime seats: the word executor,
//! with `__task`/`__done`/`__abi` and the virtual clock resolved to net ids
//! once and then polled as words. [`InterpretedFabric`] is the differential
//! oracle, as `codegen::StackSim` is for the word machine: the reference
//! interpreter, every wire looked up by name, built by tests only. The trait
//! is sealed (this module is private), so there is no third.

use crate::engine::{CompiledEngine, Engine, SoftwareEngine};
use std::sync::Arc;
use synergy_codegen::ir::SlotRef;
use synergy_codegen::CompiledSim;
use synergy_interp::{SystemEnv, Vars};
use synergy_vlog::ast::Expr;
use synergy_vlog::elaborate::ElabModule;
use synergy_vlog::{Bits, VlogResult};

/// What the hardware engine runs the transformed design on.
pub trait Fabric: Clone + Send {
    /// The simulator: an engine whose tick is one native cycle.
    type Sim: Engine;

    /// The simulator.
    fn sim(&self) -> &Self::Sim;
    /// The simulator, mutably.
    fn sim_mut(&mut self) -> &mut Self::Sim;

    /// `__task`: the pending trap, `TASK_NONE` when there is none.
    fn task(&self) -> u64;
    /// `__done`: the state machine is idle until the next clock edge.
    fn done(&self) -> bool;
    /// Drives `__abi`.
    fn set_abi(&mut self, code: u64);
    /// Drives the program's virtual clock input to `level` (0 or 1).
    fn set_clock(&mut self, level: u64);

    /// Evaluates a trapped task's argument over the fabric's variables.
    ///
    /// # Errors
    ///
    /// Returns an error if the expression names an unknown variable.
    fn eval(&self, expr: &Expr, env: &mut dyn SystemEnv) -> VlogResult<Bits>;
    /// Writes element `idx` of memory `name` (an indexed `$fread` target);
    /// anything that is not an element of a memory is left alone.
    fn set_elem(&mut self, name: &str, idx: usize, value: Bits);
}

/// The production fabric: the compiled image of a transformed design.
#[derive(Clone)]
pub struct CompiledFabric {
    /// Clocked by `__clk`.
    engine: CompiledEngine,
    task: u32,
    done: u32,
    abi: u32,
    clock: u32,
}

impl CompiledFabric {
    /// Wraps the compiled transformed design, resolving the ABI wires and
    /// the virtual clock `clock` once.
    ///
    /// # Errors
    ///
    /// Returns an error if a wire is missing (not a transformed design) or
    /// `clock` is not one of its inputs.
    pub(crate) fn new(engine: CompiledEngine, clock: &str) -> VlogResult<Self> {
        let sim = engine.sim();
        Ok(CompiledFabric {
            task: sim.net_id("__task")?,
            done: sim.net_id("__done")?,
            abi: sim.net_id("__abi")?,
            clock: sim.net_id(clock)?,
            engine,
        })
    }
}

/// The compiled simulator's variables, for the shared expression evaluator.
struct SimVars<'a>(&'a CompiledSim);

impl Vars for SimVars<'_> {
    fn scalar(&self, name: &str) -> Option<Bits> {
        Some(match self.0.program().slot(name)? {
            slot @ SlotRef::Net(_) => self.0.get_slot(slot).as_scalar().clone(),
            SlotRef::Mem(mem) => self.0.mem_elem(mem, 0).unwrap_or_else(|| Bits::zero(1)),
        })
    }

    fn element(&self, name: &str, idx: usize) -> Option<Bits> {
        let prog = self.0.program();
        match prog.slot(name)? {
            SlotRef::Mem(mem) => Some(
                self.0
                    .mem_elem(mem, idx)
                    .unwrap_or_else(|| Bits::zero(prog.mems[mem as usize].width as usize)),
            ),
            SlotRef::Net(_) => None,
        }
    }

    fn time(&self) -> u64 {
        self.0.time()
    }
}

impl Fabric for CompiledFabric {
    type Sim = CompiledEngine;

    #[inline]
    fn sim(&self) -> &CompiledEngine {
        &self.engine
    }

    #[inline]
    fn sim_mut(&mut self) -> &mut CompiledEngine {
        &mut self.engine
    }

    #[inline]
    fn task(&self) -> u64 {
        self.engine.sim().net_word(self.task)
    }

    #[inline]
    fn done(&self) -> bool {
        self.engine.sim().net_word(self.done) == 1
    }

    #[inline]
    fn set_abi(&mut self, code: u64) {
        self.engine.sim.set_net_word(self.abi, code);
    }

    #[inline]
    fn set_clock(&mut self, level: u64) {
        self.engine.sim.set_net_word(self.clock, level);
    }

    fn eval(&self, expr: &Expr, env: &mut dyn SystemEnv) -> VlogResult<Bits> {
        synergy_interp::eval_expr(&SimVars(self.engine.sim()), expr, env)
    }

    fn set_elem(&mut self, name: &str, idx: usize, value: Bits) {
        if let Some(SlotRef::Mem(mem)) = self.engine.sim().program().slot(name) {
            self.engine.sim.set_mem_elem(mem, idx, &value);
        }
    }
}

/// The oracle fabric: the reference interpreter on the transformed design,
/// every wire looked up by name on every poll. Nothing in a
/// [`Runtime`](crate::Runtime) builds one; the differential tests do, to
/// hold [`CompiledFabric`] to it.
#[derive(Clone)]
pub struct InterpretedFabric {
    /// Clocked by `__clk`.
    engine: SoftwareEngine,
    clock: String,
}

impl InterpretedFabric {
    /// Interprets the transformed module `elab`; `clock` names the program's
    /// virtual clock input.
    ///
    /// # Errors
    ///
    /// Returns an error if an ABI wire or `clock` is missing.
    pub(crate) fn new(elab: impl Into<Arc<ElabModule>>, clock: &str) -> VlogResult<Self> {
        let engine = SoftwareEngine::new(elab, "__clk");
        for wire in ["__clk", "__task", "__done", "__abi", clock] {
            engine.get(wire)?;
        }
        Ok(InterpretedFabric {
            engine,
            clock: clock.to_string(),
        })
    }

    fn word(&self, wire: &str) -> u64 {
        let value = self.engine.get(wire).expect("checked at construction");
        value.as_scalar().to_u64()
    }

    fn drive(engine: &mut SoftwareEngine, wire: &str, value: u64) {
        engine
            .set(wire, Bits::from_u64(64, value))
            .expect("checked at construction");
    }
}

impl Fabric for InterpretedFabric {
    type Sim = SoftwareEngine;

    fn sim(&self) -> &SoftwareEngine {
        &self.engine
    }

    fn sim_mut(&mut self) -> &mut SoftwareEngine {
        &mut self.engine
    }

    fn task(&self) -> u64 {
        self.word("__task")
    }

    fn done(&self) -> bool {
        self.word("__done") == 1
    }

    fn set_abi(&mut self, code: u64) {
        Self::drive(&mut self.engine, "__abi", code);
    }

    fn set_clock(&mut self, level: u64) {
        Self::drive(&mut self.engine, &self.clock, level);
    }

    fn eval(&self, expr: &Expr, env: &mut dyn SystemEnv) -> VlogResult<Bits> {
        self.engine.interp.eval_expr(expr, env)
    }

    fn set_elem(&mut self, name: &str, idx: usize, value: Bits) {
        // A scalar (bit-select) target is left alone, as on the other fabric.
        let _ = self.engine.interp.set_elem(name, idx, value);
    }
}
