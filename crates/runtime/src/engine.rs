//! Engines: the unit of execution behind the Cascade/SYNERGY ABI (§2.1).
//!
//! A sub-program's state is represented by an *engine*. Engines start as
//! low-performance software-simulated engines ([`SoftwareEngine`]) and are replaced
//! over time by high-performance FPGA-resident engines ([`HardwareEngine`]). Both
//! satisfy the same constrained ABI — `get`/`set` for inputs, outputs and program
//! variables, and a virtual-clock `tick` that runs `evaluate`/`update` until the
//! logical tick completes — which is what lets the runtime move programs back and
//! forth mid-execution.
//!
//! Three rungs, two simulators. The interpreter runs the original design on
//! the software rung and nothing else in a runtime; the word executor
//! (`synergy-codegen`) runs the original design on the compiled rung and the
//! *transformed* design — the fabric image — on the hardware rung, where the
//! trap protocol of §3.4 is layered over it (see `fabric.rs`).

use crate::fabric::{CompiledFabric, Fabric, InterpretedFabric};
use crate::runtime::ExecMode;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use synergy_codegen::{CompiledSim, ExecCounters};
use synergy_interp::{Interpreter, StateSnapshot, SystemEnv, TaskEffect, Value};
use synergy_transform::{Transformed, TASK_NONE};
use synergy_vlog::ast::{Expr, SystemTask, TaskKind};
use synergy_vlog::elaborate::ElabModule;
use synergy_vlog::{Bits, VlogError, VlogResult};

/// Statistics from advancing an engine by one virtual clock tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TickReport {
    /// Native device cycles consumed (always ≥ 3 for hardware engines, modelling
    /// the clock-toggle / evaluate / latch phases of §6.4).
    pub native_cycles: u64,
    /// ABI requests exchanged with the runtime (get/set/evaluate/update and task
    /// acknowledgements).
    pub abi_requests: u64,
    /// Unsynthesizable tasks that trapped to the runtime during the tick.
    pub tasks_handled: u64,
}

/// The engine ABI shared by software and hardware execution.
///
/// `Send` is a supertrait: the hypervisor's parallel scheduler moves engines
/// (inside their `Runtime`s) across worker threads between rounds, so every
/// engine implementation must be transferable. All three engines are owned
/// execution state over an immutable program shared through `Arc`s — no
/// `Rc`, no interior mutability — which the assertions at the bottom of this
/// file enforce at compile time.
pub trait Engine: Send {
    /// Where the engine runs: the rung of the ladder it seats.
    fn kind(&self) -> ExecMode;

    /// Reads a program variable.
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist.
    fn get(&self, var: &str) -> VlogResult<Value>;

    /// Writes a scalar program variable (used for inputs and state restore).
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist.
    fn set(&mut self, var: &str, value: Bits) -> VlogResult<()>;

    /// Advances one virtual clock tick, servicing unsynthesizable tasks through
    /// `env`.
    ///
    /// # Errors
    ///
    /// Returns an error if evaluation fails (combinational loops, malformed
    /// programs).
    fn tick(&mut self, env: &mut dyn SystemEnv) -> VlogResult<TickReport>;

    /// Captures the program's architectural state.
    fn save_state(&self) -> StateSnapshot;

    /// Restores a previously captured state snapshot.
    fn restore_state(&mut self, snapshot: &StateSnapshot);

    /// Exit code if the program has executed `$finish`.
    fn finished(&self) -> Option<u32>;

    /// Drains control-flow effects ($save/$restart/$yield/$finish) raised since the
    /// last call.
    fn take_effects(&mut self) -> Vec<TaskEffect>;

    /// Whether the engine has already executed the program's `initial`
    /// blocks (they run lazily, on the first tick).
    fn initials_run(&self) -> bool;

    /// Marks `initial` blocks as executed *without* running them. The
    /// runtime calls this when it restores captured state into a freshly
    /// constructed engine (migration and checkpoint restore): the program
    /// already ran its initials — including their environment side effects,
    /// such as `$fopen` — so replaying them would re-open streams and
    /// corrupt the resumed run.
    fn mark_initials_run(&mut self);

    /// Cumulative executor-internal telemetry counters. The runtime diffs
    /// these around each `run_ticks` call; engines that track nothing report
    /// zeros. Counters are observability-only — never part of
    /// `save_state`/`restore_state` or any wire format, so they reset when a
    /// workload migrates between engines.
    fn exec_counters(&self) -> ExecCounters {
        ExecCounters::default()
    }

    /// Detail for the most recent settle-cap failure, if the engine recorded
    /// one: the non-blocking targets that never converged. The error message
    /// itself is engine-identical by contract; this side channel is what lets
    /// postmortems name the failing always-block site.
    fn fault_detail(&self) -> Option<String> {
        None
    }

    /// The engine as the compiled engine, if it is one.
    fn as_compiled(&self) -> Option<&CompiledEngine> {
        None
    }

    /// The engine as the compiled engine, mutably, if it is one.
    fn as_compiled_mut(&mut self) -> Option<&mut CompiledEngine> {
        None
    }
}

// ------------------------------------------------------------------ software

/// The software engine: direct interpretation of the original program.
#[derive(Debug, Clone)]
pub struct SoftwareEngine {
    pub(crate) interp: Interpreter,
    clock: String,
}

impl SoftwareEngine {
    /// Creates a software engine for an elaborated design driven by the named clock
    /// input. The design is shared, not copied, when handed over as an `Arc`.
    pub fn new(design: impl Into<Arc<ElabModule>>, clock: impl Into<String>) -> Self {
        SoftwareEngine {
            interp: Interpreter::new(design),
            clock: clock.into(),
        }
    }

    /// The underlying interpreter (used by tests and the REPL).
    pub fn interpreter(&self) -> &Interpreter {
        &self.interp
    }
}

impl Engine for SoftwareEngine {
    fn kind(&self) -> ExecMode {
        ExecMode::Software
    }

    fn exec_counters(&self) -> ExecCounters {
        ExecCounters {
            settle_iters: self.interp.settle_iters(),
            ..ExecCounters::default()
        }
    }

    fn fault_detail(&self) -> Option<String> {
        self.interp.fault_detail().map(str::to_owned)
    }

    fn get(&self, var: &str) -> VlogResult<Value> {
        self.interp.get(var).cloned()
    }

    fn set(&mut self, var: &str, value: Bits) -> VlogResult<()> {
        self.interp.set(var, value)
    }

    fn tick(&mut self, env: &mut dyn SystemEnv) -> VlogResult<TickReport> {
        if self.finished().is_some() {
            return Ok(TickReport::default());
        }
        self.interp.tick(&self.clock, env)?;
        Ok(TickReport {
            native_cycles: 1,
            abi_requests: 2,
            tasks_handled: 0,
        })
    }

    fn save_state(&self) -> StateSnapshot {
        self.interp.save_state()
    }

    fn restore_state(&mut self, snapshot: &StateSnapshot) {
        self.interp.restore_state(snapshot);
    }

    fn finished(&self) -> Option<u32> {
        self.interp.finished()
    }

    fn take_effects(&mut self) -> Vec<TaskEffect> {
        self.interp.take_effects()
    }

    fn initials_run(&self) -> bool {
        self.interp.initials_run()
    }

    fn mark_initials_run(&mut self) {
        self.interp.mark_initials_run();
    }
}

// ------------------------------------------------------------------ compiled

/// The compiled software engine: executes the levelized netlist IR and
/// bytecode produced by `synergy-codegen`. Semantically identical to the
/// interpreter (bit-identical snapshots, enforced by the differential and
/// fuzz suites), but runs the software hot path an order of magnitude
/// faster — the middle rung of the interpret → compiled → hardware engine
/// ladder. The envelope covers memories, bounded loops (unrolled at compile
/// time), partial continuous drivers, and the file/output system tasks;
/// the remaining [`VlogError::Unsupported`] surface is constructs whose
/// reference semantics genuinely need re-interpretation (overlapping
/// multiply-driven nets, combinational system calls, comb cycles).
/// A clone shares the program and its word code and copies only state.
#[derive(Clone)]
pub struct CompiledEngine {
    pub(crate) sim: CompiledSim,
    pub(crate) clock: u32,
}

impl CompiledEngine {
    /// Compiles an elaborated design and creates an engine driven by the named
    /// clock input.
    ///
    /// # Errors
    ///
    /// Returns [`VlogError::Unsupported`] for designs outside the compilable
    /// envelope (callers should fall back to [`SoftwareEngine`]).
    pub fn new(design: &ElabModule, clock: &str) -> VlogResult<Self> {
        Self::from_program(synergy_codegen::compile(design)?, clock)
    }

    /// Creates an engine from an already-lowered program, shared rather than
    /// copied when handed over as an `Arc`.
    ///
    /// # Errors
    ///
    /// Returns an error if the program is malformed (see
    /// [`CompiledSim::try_new`]) or the clock input does not exist.
    pub fn from_program(
        program: impl Into<Arc<synergy_codegen::CompiledProgram>>,
        clock: &str,
    ) -> VlogResult<Self> {
        let sim = CompiledSim::try_new(program)?;
        let clock = sim.net_id(clock)?;
        Ok(CompiledEngine { sim, clock })
    }

    /// The underlying compiled simulator.
    pub fn sim(&self) -> &CompiledSim {
        &self.sim
    }
}

/// What a compiled tick reports: one native cycle, two ABI requests (the
/// clock's rise and fall), no task traps.
pub(crate) const COMPILED_TICK: TickReport = TickReport {
    native_cycles: 1,
    abi_requests: 2,
    tasks_handled: 0,
};

impl Engine for CompiledEngine {
    fn kind(&self) -> ExecMode {
        ExecMode::Compiled
    }

    fn as_compiled(&self) -> Option<&CompiledEngine> {
        Some(self)
    }

    fn as_compiled_mut(&mut self) -> Option<&mut CompiledEngine> {
        Some(self)
    }

    fn exec_counters(&self) -> ExecCounters {
        self.sim.exec_counters()
    }

    fn fault_detail(&self) -> Option<String> {
        self.sim.fault_detail().map(str::to_owned)
    }

    fn get(&self, var: &str) -> VlogResult<Value> {
        self.sim.get(var)
    }

    fn set(&mut self, var: &str, value: Bits) -> VlogResult<()> {
        self.sim.set(var, value)
    }

    fn tick(&mut self, env: &mut dyn SystemEnv) -> VlogResult<TickReport> {
        if self.finished().is_some() {
            return Ok(TickReport::default());
        }
        self.sim.tick_net(self.clock, env)?;
        Ok(COMPILED_TICK)
    }

    fn save_state(&self) -> StateSnapshot {
        self.sim.save_state()
    }

    fn restore_state(&mut self, snapshot: &StateSnapshot) {
        self.sim.restore_state(snapshot);
    }

    fn finished(&self) -> Option<u32> {
        self.sim.finished()
    }

    fn take_effects(&mut self) -> Vec<TaskEffect> {
        self.sim.take_effects()
    }

    fn initials_run(&self) -> bool {
        self.sim.initials_run()
    }

    fn mark_initials_run(&mut self) {
        self.sim.mark_initials_run();
    }
}

// ------------------------------------------------------------------ hardware

/// Upper bound on native cycles per virtual tick (a stuck design is a bug).
const MAX_NATIVE_CYCLES_PER_TICK: u64 = 100_000;

/// The hardware engine: executes the SYNERGY-transformed module cycle by cycle
/// on the native device clock, trapping to the runtime whenever `__task` is
/// non-zero (§3.4). The "fabric" it drives is, in every runtime, the compiled
/// image of the transformed design ([`CompiledFabric`], the default
/// parameter): lowered and optimised once per program, cloned per seat — the
/// second fastest rung of the ladder on the host, as the paper's fabric is
/// the fast path. How much faster the *device* is than software is still the
/// `synergy-fpga` device model's business, not host wall-clock time.
///
/// `HardwareEngine<InterpretedFabric>` ([`HardwareEngine::oracle`]) runs the
/// same trap protocol over the reference interpreter; the differential tests
/// hold the production engine to it, and nothing else builds one. The
/// parameter's bound is a sealed trait: there is no third fabric.
pub struct HardwareEngine<F: Fabric = CompiledFabric> {
    transformed: Arc<Transformed>,
    fabric: F,
    device: String,
    effects: Vec<TaskEffect>,
    finished: Option<u32>,
}

impl HardwareEngine {
    /// Creates a hardware engine from a transformed design (shared, not
    /// copied, when handed over as an `Arc`), compiling a fabric image for
    /// this engine alone; a [`Runtime`](crate::Runtime) seats clones of the
    /// one image its program keeps instead.
    ///
    /// # Errors
    ///
    /// Returns an error if the transformed design is outside the compilable
    /// envelope or `clock` is not one of its inputs.
    pub fn new(
        transformed: impl Into<Arc<Transformed>>,
        device: impl Into<String>,
        clock: &str,
    ) -> VlogResult<Self> {
        let transformed = transformed.into();
        let image = crate::program::FabricImage::build(&transformed, clock)?;
        Ok(Self::from_image(transformed, &image, device))
    }

    /// Seats a clone of a program's pristine fabric image.
    pub(crate) fn from_image(
        transformed: Arc<Transformed>,
        image: &crate::program::FabricImage,
        device: impl Into<String>,
    ) -> Self {
        Self::on(transformed, image.pristine.clone(), device)
    }
}

impl HardwareEngine<InterpretedFabric> {
    /// The differential oracle: the same engine over the reference
    /// interpreter. For tests; no runtime path builds one.
    ///
    /// # Errors
    ///
    /// Returns an error if `clock` is not an input of the transformed design.
    pub fn oracle(
        transformed: impl Into<Arc<Transformed>>,
        device: impl Into<String>,
        clock: &str,
    ) -> VlogResult<Self> {
        let transformed = transformed.into();
        let fabric = InterpretedFabric::new(Arc::clone(&transformed.elab), clock)?;
        Ok(Self::on(transformed, fabric, device))
    }
}

impl<F: Fabric> HardwareEngine<F> {
    fn on(transformed: Arc<Transformed>, fabric: F, device: impl Into<String>) -> Self {
        HardwareEngine {
            transformed,
            fabric,
            device: device.into(),
            effects: Vec::new(),
            finished: None,
        }
    }

    /// The transformed design this engine executes.
    pub fn transformed(&self) -> &Transformed {
        &self.transformed
    }

    /// Names of the original program's state variables (excludes `__` helpers).
    fn is_program_var(name: &str) -> bool {
        !name.starts_with("__")
    }

    /// Runs native cycles until the state machine raises `__done` (one clock
    /// edge's worth of work) or a trapped `$finish` ends the program,
    /// servicing task traps on the way; `stuck` is the error otherwise.
    fn run_to_done(
        &mut self,
        env: &mut dyn SystemEnv,
        report: &mut TickReport,
        stuck: &str,
    ) -> VlogResult<()> {
        loop {
            self.fabric.sim_mut().tick(env)?;
            report.native_cycles += 1;
            if report.native_cycles > MAX_NATIVE_CYCLES_PER_TICK {
                return Err(VlogError::Elaborate(stuck.into()));
            }
            let task_id = self.fabric.task();
            if task_id != TASK_NONE {
                // Holding the `Arc` lends the task out while `self` is serviced.
                let transformed = Arc::clone(&self.transformed);
                let task = transformed.machine.task(task_id).ok_or_else(|| {
                    VlogError::Elaborate(format!("unknown task id {} trapped", task_id))
                })?;
                self.service_task(task, env)?;
                report.tasks_handled += 1;
                report.abi_requests += 2;
                // Acknowledge: assert CONT for one native cycle, then deassert.
                self.fabric.set_abi(synergy_transform::ABI_CONT);
                self.fabric.sim_mut().tick(env)?;
                report.native_cycles += 1;
                self.fabric.set_abi(synergy_transform::ABI_NONE);
                if self.finished.is_some() {
                    return Ok(());
                }
            } else if self.fabric.done() {
                return Ok(());
            }
        }
    }

    /// Services the currently pending task, writing any results back into the
    /// fabric through `set` requests; the caller acknowledges it.
    fn service_task(&mut self, task: &SystemTask, env: &mut dyn SystemEnv) -> VlogResult<()> {
        match task.kind {
            TaskKind::Display | TaskKind::Write => {
                let mut text = String::new();
                for arg in &task.args {
                    match arg {
                        Expr::StringLit(s) => text.push_str(s),
                        other => {
                            let v = self.fabric.eval(other, env)?;
                            text.push_str(&v.to_dec_string());
                        }
                    }
                }
                if task.kind == TaskKind::Display {
                    text.push('\n');
                }
                env.print(&text);
            }
            TaskKind::Finish => {
                let code = match task.args.first() {
                    Some(e) => self.fabric.eval(e, env)?.to_u64() as u32,
                    None => 0,
                };
                self.finished = Some(code);
                self.effects.push(TaskEffect::Finish(code));
            }
            TaskKind::Fread => {
                let fd = match task.args.first() {
                    Some(e) => self.fabric.eval(e, env)?.to_u64() as u32,
                    None => 0,
                };
                // The target is read in place: a trap copies no AST.
                let (name, idx) = match task.args.get(1) {
                    Some(Expr::Ident(name)) => (name, None),
                    Some(Expr::Index(base, idx)) => match base.as_ref() {
                        Expr::Ident(name) => (name, Some(idx)),
                        _ => return Ok(()),
                    },
                    _ => return Ok(()),
                };
                let width = self.transformed.elab.width_of_var(name);
                let Some(v) = env.fread(fd, width) else {
                    return Ok(());
                };
                match idx {
                    None => self.fabric.sim_mut().set(name, v)?,
                    Some(idx) => {
                        let idx = self.fabric.eval(idx, env)?.to_u64() as usize;
                        self.fabric.set_elem(name, idx, v);
                    }
                }
            }
            TaskKind::Fclose => {
                if let Some(e) = task.args.first() {
                    let fd = self.fabric.eval(e, env)?.to_u64() as u32;
                    env.fclose(fd);
                }
            }
            TaskKind::Save => {
                self.effects
                    .push(TaskEffect::Save(string_arg(task.args.first())));
            }
            TaskKind::Restart => {
                self.effects
                    .push(TaskEffect::Restart(string_arg(task.args.first())));
            }
            TaskKind::Yield => self.effects.push(TaskEffect::Yield),
            TaskKind::Fopen | TaskKind::Feof | TaskKind::Time | TaskKind::Random => {
                // Function-style tasks are evaluated in place by the fabric model.
            }
        }
        Ok(())
    }
}

fn string_arg(arg: Option<&Expr>) -> String {
    match arg {
        Some(Expr::StringLit(s)) => s.clone(),
        _ => String::new(),
    }
}

impl<F: Fabric> Engine for HardwareEngine<F> {
    fn kind(&self) -> ExecMode {
        ExecMode::Hardware(self.device.clone())
    }

    fn exec_counters(&self) -> ExecCounters {
        self.fabric.sim().exec_counters()
    }

    fn fault_detail(&self) -> Option<String> {
        self.fabric.sim().fault_detail()
    }

    fn get(&self, var: &str) -> VlogResult<Value> {
        self.fabric.sim().get(var)
    }

    fn set(&mut self, var: &str, value: Bits) -> VlogResult<()> {
        self.fabric.sim_mut().set(var, value)
    }

    fn tick(&mut self, env: &mut dyn SystemEnv) -> VlogResult<TickReport> {
        if self.finished.is_some() {
            return Ok(TickReport::default());
        }
        let mut report = TickReport::default();

        // Deliver the rising edge of the virtual clock via a set request, then
        // the falling edge (needed for negedge-sensitive programs), which
        // lets the machine run back to idle.
        const STUCK_RISING: &str = "hardware engine did not reach __done (stuck state machine?)";
        const STUCK_FALLING: &str = "hardware engine did not reach __done after falling edge";
        for (level, stuck) in [(1, STUCK_RISING), (0, STUCK_FALLING)] {
            self.fabric.set_clock(level);
            report.abi_requests += 1;
            self.run_to_done(env, &mut report, stuck)?;
            if self.finished.is_some() {
                return Ok(report);
            }
        }

        // The paper reports a minimum 3x cycle overhead for toggling the virtual
        // clock, evaluating logic, and latching assignments (§6.4).
        report.native_cycles = report.native_cycles.max(3);
        Ok(report)
    }

    fn save_state(&self) -> StateSnapshot {
        let full = self.fabric.sim().save_state();
        let values = full
            .values
            .into_iter()
            .filter(|(name, _)| Self::is_program_var(name))
            .collect();
        StateSnapshot {
            values,
            time: full.time,
        }
    }

    fn restore_state(&mut self, snapshot: &StateSnapshot) {
        self.fabric.sim_mut().restore_state(snapshot);
    }

    fn finished(&self) -> Option<u32> {
        self.finished
    }

    fn take_effects(&mut self) -> Vec<TaskEffect> {
        let mut effects = std::mem::take(&mut self.effects);
        effects.extend(self.fabric.sim_mut().take_effects());
        effects
    }

    fn initials_run(&self) -> bool {
        self.fabric.sim().initials_run()
    }

    fn mark_initials_run(&mut self) {
        self.fabric.sim_mut().mark_initials_run();
    }
}

// Compile-time proof that every engine (and thus `Box<dyn Engine>`) can cross
// threads: the parallel hypervisor scheduler depends on it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SoftwareEngine>();
    assert_send::<CompiledEngine>();
    assert_send::<HardwareEngine>();
    assert_send::<HardwareEngine<InterpretedFabric>>();
    assert_send::<Box<dyn Engine>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_interp::BufferEnv;
    use synergy_transform::{transform, TransformOptions};
    use synergy_vlog::compile;

    const COUNTER: &str = r#"
        module Counter(input wire clock, output wire [7:0] out);
            reg [7:0] count = 0;
            always @(posedge clock) count <= count + 1;
            assign out = count;
        endmodule
    "#;

    const FILE_SUM: &str = r#"
        module M(input wire clock);
            integer fd = $fopen("data.bin");
            reg [31:0] r = 0;
            reg [127:0] sum = 0;
            reg [31:0] reads = 0;
            always @(posedge clock) begin
                $fread(fd, r);
                if ($feof(fd)) begin
                    $display(sum);
                    $finish(0);
                end else begin
                    sum <= sum + r;
                    reads <= reads + 1;
                end
            end
        endmodule
    "#;

    fn hw_engine(src: &str, top: &str) -> HardwareEngine {
        let design = compile(src, top).unwrap();
        let t = transform(&design, TransformOptions::default()).unwrap();
        HardwareEngine::new(t, "f1", "clock").unwrap()
    }

    #[test]
    fn software_engine_runs_counter() {
        let design = compile(COUNTER, "Counter").unwrap();
        let mut engine = SoftwareEngine::new(design, "clock");
        let mut env = BufferEnv::new();
        for _ in 0..5 {
            engine.tick(&mut env).unwrap();
        }
        assert_eq!(engine.get("count").unwrap().as_scalar().to_u64(), 5);
        assert_eq!(engine.kind(), ExecMode::Software);
    }

    #[test]
    fn compiled_engine_matches_software_for_counter() {
        let design = compile(COUNTER, "Counter").unwrap();
        let mut sw = SoftwareEngine::new(design.clone(), "clock");
        let mut ce = CompiledEngine::new(&design, "clock").unwrap();
        let mut env = BufferEnv::new();
        for _ in 0..23 {
            sw.tick(&mut env).unwrap();
            ce.tick(&mut env).unwrap();
        }
        assert_eq!(sw.save_state(), ce.save_state());
        assert_eq!(ce.kind(), ExecMode::Compiled);
    }

    #[test]
    fn compiled_engine_services_file_io() {
        let design = compile(FILE_SUM, "M").unwrap();
        let mut ce = CompiledEngine::new(&design, "clock").unwrap();
        let mut env = BufferEnv::new();
        env.add_file("data.bin", vec![5, 10, 15]);
        let mut ticks = 0;
        while ce.finished().is_none() && ticks < 50 {
            ce.tick(&mut env).unwrap();
            ticks += 1;
        }
        assert_eq!(ce.finished(), Some(0));
        assert_eq!(ce.get("sum").unwrap().as_scalar().to_u64(), 30);
        assert!(env.output_text().contains("30"));
    }

    #[test]
    fn state_migrates_between_software_and_compiled() {
        let design = compile(COUNTER, "Counter").unwrap();
        let mut sw = SoftwareEngine::new(design.clone(), "clock");
        let mut env = BufferEnv::new();
        for _ in 0..9 {
            sw.tick(&mut env).unwrap();
        }
        let mut ce = CompiledEngine::new(&design, "clock").unwrap();
        ce.restore_state(&sw.save_state());
        for _ in 0..3 {
            ce.tick(&mut env).unwrap();
        }
        assert_eq!(ce.get("count").unwrap().as_scalar().to_u64(), 12);

        // And onward to hardware: the snapshot format is shared.
        let mut hw = hw_engine(COUNTER, "Counter");
        hw.restore_state(&ce.save_state());
        hw.tick(&mut env).unwrap();
        assert_eq!(hw.get("count").unwrap().as_scalar().to_u64(), 13);
    }

    #[test]
    fn hardware_engine_matches_software_for_counter() {
        let design = compile(COUNTER, "Counter").unwrap();
        let mut sw = SoftwareEngine::new(design, "clock");
        let mut hw = hw_engine(COUNTER, "Counter");
        let mut env = BufferEnv::new();
        for _ in 0..17 {
            sw.tick(&mut env).unwrap();
            hw.tick(&mut env).unwrap();
        }
        assert_eq!(
            sw.get("count").unwrap().as_scalar().to_u64(),
            hw.get("count").unwrap().as_scalar().to_u64(),
        );
        assert_eq!(hw.kind(), ExecMode::Hardware("f1".into()));
    }

    #[test]
    fn hardware_engine_services_file_io_tasks() {
        let mut hw = hw_engine(FILE_SUM, "M");
        let mut env = BufferEnv::new();
        env.add_file("data.bin", vec![5, 10, 15]);
        // The fd variable is normally initialised by software execution before
        // migration; emulate that here by running $fopen by hand.
        let fd = env.fopen("data.bin");
        hw.set("fd", Bits::from_u64(32, fd as u64)).unwrap();
        let mut ticks = 0;
        while hw.finished().is_none() && ticks < 50 {
            let report = hw.tick(&mut env).unwrap();
            assert!(report.native_cycles >= 3);
            ticks += 1;
        }
        assert_eq!(hw.finished(), Some(0));
        assert_eq!(hw.get("sum").unwrap().as_scalar().to_u64(), 30);
        assert!(env.output_text().contains("30"));
    }

    #[test]
    fn indexed_fread_writes_one_element_on_either_fabric() {
        let src = r#"module M(input wire clock);
                         integer fd = $fopen("data.bin");
                         reg [15:0] buf [0:3];
                         reg [2:0] at = 0;
                         reg [15:0] bit = 0;
                         always @(posedge clock) begin
                             $fread(fd, buf[at]);
                             $fread(fd, bit[at]);
                             at <= at + 1;
                             $display(buf[at] + at, " ", $time);
                         end
                     endmodule"#;
        let design = compile(src, "M").unwrap();
        let t = Arc::new(transform(&design, TransformOptions::default()).unwrap());
        let mut fabric = HardwareEngine::new(t.clone(), "f1", "clock").unwrap();
        let mut oracle = HardwareEngine::oracle(t, "f1", "clock").unwrap();
        let run = |hw: &mut dyn Engine| {
            let mut env = BufferEnv::new();
            env.add_file("data.bin", (1..=16).map(|v| v * 1000).collect());
            let fd = env.fopen("data.bin");
            hw.set("fd", Bits::from_u64(32, fd as u64)).unwrap();
            let reports: Vec<_> = (0..6).map(|_| hw.tick(&mut env).unwrap()).collect();
            (reports, hw.get("buf").unwrap(), env.output_text())
        };
        let (got, want) = (run(&mut fabric), run(&mut oracle));
        assert_eq!(got, want);
        // Every other word went to `bit[at]`. The writes past the depth
        // (ticks 4 and 5), and those to a bit of a scalar, are dropped.
        let Value::Memory(buf) = got.1 else {
            panic!("buf is a memory");
        };
        let buf: Vec<u64> = buf.iter().map(Bits::to_u64).collect();
        assert_eq!(buf, [1000, 3000, 5000, 7000]);
        assert_eq!(fabric.get("bit").unwrap().as_scalar().to_u64(), 0);
    }

    #[test]
    fn hardware_tick_reports_tasks_and_cycles() {
        let mut hw = hw_engine(FILE_SUM, "M");
        let mut env = BufferEnv::new();
        env.add_file("data.bin", vec![1, 2, 3, 4]);
        let fd = env.fopen("data.bin");
        hw.set("fd", Bits::from_u64(32, fd as u64)).unwrap();
        let report = hw.tick(&mut env).unwrap();
        assert!(report.tasks_handled >= 1, "the $fread trap");
        assert!(
            report.native_cycles > 3,
            "task traps cost extra native cycles"
        );
        assert!(report.abi_requests >= 4);
    }

    #[test]
    fn state_migrates_between_software_and_hardware() {
        let design = compile(COUNTER, "Counter").unwrap();
        let mut sw = SoftwareEngine::new(design, "clock");
        let mut env = BufferEnv::new();
        for _ in 0..9 {
            sw.tick(&mut env).unwrap();
        }
        let snapshot = sw.save_state();

        let mut hw = hw_engine(COUNTER, "Counter");
        hw.restore_state(&snapshot);
        for _ in 0..3 {
            hw.tick(&mut env).unwrap();
        }
        assert_eq!(hw.get("count").unwrap().as_scalar().to_u64(), 12);

        // And back again: hardware state flows into a fresh software engine.
        let snapshot = hw.save_state();
        assert!(snapshot.values.keys().all(|k| !k.starts_with("__")));
        let design = compile(COUNTER, "Counter").unwrap();
        let mut sw2 = SoftwareEngine::new(design, "clock");
        sw2.restore_state(&snapshot);
        sw2.tick(&mut env).unwrap();
        assert_eq!(sw2.get("count").unwrap().as_scalar().to_u64(), 13);
    }

    #[test]
    fn finish_surfaces_as_effect() {
        let src = r#"module M(input wire clock);
                         reg [3:0] n = 0;
                         always @(posedge clock) begin
                             n <= n + 1;
                             if (n == 2) $finish(9);
                         end
                     endmodule"#;
        let mut hw = hw_engine(src, "M");
        let mut env = BufferEnv::new();
        for _ in 0..8 {
            hw.tick(&mut env).unwrap();
            if hw.finished().is_some() {
                break;
            }
        }
        assert_eq!(hw.finished(), Some(9));
        assert!(hw
            .take_effects()
            .iter()
            .any(|e| matches!(e, TaskEffect::Finish(9))));
    }

    #[test]
    fn save_task_raises_effect_in_hardware() {
        let src = r#"module M(input wire clock, input wire do_save);
                         reg [31:0] n = 0;
                         always @(posedge clock) begin
                             if (do_save) $save("ckpt");
                             n <= n + 1;
                         end
                     endmodule"#;
        let mut hw = hw_engine(src, "M");
        let mut env = BufferEnv::new();
        hw.tick(&mut env).unwrap();
        assert!(hw.take_effects().is_empty());
        hw.set("do_save", Bits::from_u64(1, 1)).unwrap();
        hw.tick(&mut env).unwrap();
        let effects = hw.take_effects();
        assert!(effects
            .iter()
            .any(|e| matches!(e, TaskEffect::Save(tag) if tag == "ckpt")));
    }
}
