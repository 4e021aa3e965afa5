//! The per-application SYNERGY runtime instance.
//!
//! A [`Runtime`] owns one user program: it parses and elaborates the source, starts
//! execution on a software engine (exactly as Cascade does), and can transparently
//! migrate the program to a hardware engine — or between hardware targets — using
//! the `$save`/`$restart` state-capture path (§3.5). It also keeps the
//! virtual-clock profile the paper's experiments report (hashes/s, instructions/s,
//! virtual frequency) against simulated wall-clock time.

use crate::engine::{Engine, TickReport};
use crate::program::Program;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;
use synergy_fpga::{BitstreamCache, CompileOutcome, Device, SimClock};
use synergy_interp::{BufferEnv, StateSnapshot, TaskEffect, Value};
use synergy_telemetry::{Namespace, Telemetry, POW2_BUCKETS};
use synergy_transform::Transformed;
use synergy_vlog::elaborate::ElabModule;
use synergy_vlog::{Bits, VlogError, VlogResult};

/// A single throughput sample recorded by the profiler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Simulated wall time in seconds.
    pub time_s: f64,
    /// Virtual clock ticks executed so far.
    pub ticks: u64,
    /// Virtual clock frequency over the last sampling interval, in Hz.
    pub virtual_hz: f64,
}

/// Upper bound on the profiler's in-memory sample history. [`Profiler::record`]
/// drops the oldest samples past this, so long-running tenants keep a bounded
/// footprint; the full virtual-frequency distribution lives on in the
/// `runtime_virtual_hz` telemetry histogram, which never forgets.
pub const MAX_PROFILER_SAMPLES: usize = 512;

/// Records virtual-clock progress over simulated time.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Profiler {
    pub(crate) samples: Vec<Sample>,
    pub(crate) last_time_s: f64,
    pub(crate) last_ticks: u64,
}

impl Profiler {
    /// Records a sample at the given simulated time and cumulative tick count,
    /// evicting the oldest samples beyond [`MAX_PROFILER_SAMPLES`].
    pub fn record(&mut self, time_s: f64, ticks: u64) {
        let dt = time_s - self.last_time_s;
        let dticks = ticks.saturating_sub(self.last_ticks);
        let virtual_hz = if dt > 0.0 { dticks as f64 / dt } else { 0.0 };
        self.samples.push(Sample {
            time_s,
            ticks,
            virtual_hz,
        });
        if self.samples.len() > MAX_PROFILER_SAMPLES {
            let excess = self.samples.len() - MAX_PROFILER_SAMPLES;
            self.samples.drain(..excess);
        }
        self.last_time_s = time_s;
        self.last_ticks = ticks;
    }

    /// All recorded samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Peak virtual frequency seen so far.
    pub fn peak_virtual_hz(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.virtual_hz)
            .fold(0.0, f64::max)
    }
}

/// Accounting for one call to [`Runtime::run_ticks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Virtual clock ticks executed.
    pub ticks: u64,
    /// Native device cycles consumed.
    pub native_cycles: u64,
    /// ABI requests exchanged.
    pub abi_requests: u64,
    /// Unsynthesizable task traps serviced.
    pub tasks_handled: u64,
    /// Simulated nanoseconds that elapsed.
    pub elapsed_ns: u64,
}

/// Events surfaced to the caller after running the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeEvent {
    /// The program executed `$save("tag")`; the snapshot is stored under that tag.
    Saved(String),
    /// The program executed `$restart("tag")` and its state was restored.
    Restarted(String),
    /// The program reached a `$yield` quiescence point.
    Yielded,
    /// The program executed `$finish(code)`.
    Finished(u32),
}

/// Where the runtime currently executes the program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Software interpretation.
    Software,
    /// Compiled software execution (levelized netlist + bytecode).
    Compiled,
    /// Hardware execution on the named device.
    Hardware(String),
}

/// How the runtime chooses among its software-side engines (§2.1's ladder of
/// progressively faster engines: interpret → compiled → hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EnginePolicy {
    /// Always interpret (the Cascade baseline and the semantic reference).
    #[default]
    Interpreter,
    /// Prefer the compiled engine, falling back to the interpreter for
    /// designs outside the compilable envelope (unsynthesizable constructs
    /// such as multiply-driven nets or combinational `$random`).
    Auto,
}

/// The per-application runtime: program, engine, environment, and profile.
///
/// Fields are `pub(crate)` so the durable-checkpoint codec
/// (`crate::checkpoint`) can capture and reconstruct the full runtime.
pub struct Runtime {
    pub(crate) name: String,
    /// What stays the same under every engine swap.
    pub(crate) program: Program,
    pub(crate) engine: Box<dyn Engine>,
    /// System-task environment (file streams, captured output).
    pub env: BufferEnv,
    pub(crate) clock_hz: u64,
    pub(crate) transport_ns: u64,
    pub(crate) sim: SimClock,
    pub(crate) ticks: u64,
    pub(crate) profiler: Profiler,
    pub(crate) checkpoints: BTreeMap<String, StateSnapshot>,
    pub(crate) finished: Option<u32>,
    /// Per-tenant telemetry: metrics registry + flight recorder. Behind a
    /// `Mutex` so read-only paths (`&self`) can record too; the runtime is
    /// owned by exactly one worker thread at a time, so the lock is
    /// uncontended. Telemetry never enters the durable-checkpoint wire
    /// format — a restored runtime starts with fresh counters.
    pub(crate) telem: Mutex<Telemetry>,
}

impl Runtime {
    /// Creates a runtime for the given program, starting in software execution.
    ///
    /// `clock` names the input port that carries the program's virtual clock.
    ///
    /// # Errors
    ///
    /// Returns an error if the source fails to parse or elaborate.
    pub fn new(
        name: impl Into<String>,
        source: &str,
        top: &str,
        clock: &str,
    ) -> VlogResult<Runtime> {
        Self::with_policy(name, source, top, clock, EnginePolicy::Interpreter)
    }

    /// Creates a runtime with an explicit software-engine selection policy.
    ///
    /// Under [`EnginePolicy::Auto`] the program starts on the compiled engine
    /// when the design is compilable and on the interpreter otherwise.
    ///
    /// # Errors
    ///
    /// Returns an error if the source fails to parse or elaborate, or if
    /// lowering fails for any reason but an uncompilable design.
    pub fn with_policy(
        name: impl Into<String>,
        source: &str,
        top: &str,
        clock: &str,
        policy: EnginePolicy,
    ) -> VlogResult<Runtime> {
        let mut telem = Telemetry::default();
        let mut program = Program::new(
            source.to_string(),
            top.to_string(),
            clock.to_string(),
            &mut telem,
        )?;
        let mut rung = match policy {
            EnginePolicy::Interpreter => ExecMode::Software,
            EnginePolicy::Auto => ExecMode::Compiled,
        };
        let engine = match program.seat(&rung, &mut telem, 0) {
            // Auto falls back to the interpreter only for designs outside
            // the compilable envelope; internal lowering failures surface to
            // the caller.
            Err(VlogError::Unsupported(_)) => {
                rung = ExecMode::Software;
                program.seat(&rung, &mut telem, 0)?
            }
            seated => seated?,
        };
        let device = match rung {
            ExecMode::Software => Device::software(),
            _ => Device::compiled(),
        };
        Ok(Runtime {
            name: name.into(),
            program,
            engine,
            env: BufferEnv::new(),
            clock_hz: device.max_clock_hz,
            transport_ns: device.transport.request_latency_ns(),
            sim: SimClock::new(),
            ticks: 0,
            profiler: Profiler::default(),
            checkpoints: BTreeMap::new(),
            finished: None,
            telem: Mutex::new(telem),
        })
    }

    /// Locks the telemetry block, shrugging off poison (telemetry must never
    /// take the runtime down with it).
    fn telem_lock(&self) -> std::sync::MutexGuard<'_, Telemetry> {
        self.telem.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A point-in-time clone of this runtime's metrics registry.
    ///
    /// Deterministic-namespace contents depend only on the program and its
    /// inputs; see the `synergy_telemetry` crate docs for the contract.
    pub fn metrics(&self) -> synergy_telemetry::Registry {
        self.telem_lock().registry.clone()
    }

    /// The flight recorder's current contents (oldest event first), one
    /// `#seq @tick span: detail` line per event. Empty when telemetry is
    /// disabled or nothing noteworthy has happened.
    pub fn flight_dump(&self) -> String {
        self.telem_lock().recorder.dump()
    }

    /// Records a trace event into this runtime's flight recorder, stamped
    /// with the current virtual tick. Used by the hypervisor to interleave
    /// scheduling decisions with the runtime's own events.
    pub fn record_event(&self, span: &'static str, detail: String) {
        let ticks = self.ticks;
        self.telem_lock().recorder.record(ticks, span, detail);
    }

    /// The application name this runtime was created with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program's source text.
    pub fn source(&self) -> &str {
        self.program.source()
    }

    /// The top module name.
    pub fn top(&self) -> &str {
        self.program.top()
    }

    /// The elaborated (untransformed) design.
    pub fn design(&self) -> &ElabModule {
        self.program.design()
    }

    /// Current execution mode.
    pub fn mode(&self) -> ExecMode {
        self.engine.kind()
    }

    /// Exit code if the program has finished.
    pub fn finished(&self) -> Option<u32> {
        self.finished.or_else(|| self.engine.finished())
    }

    /// Cumulative virtual clock ticks executed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Simulated wall-clock time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.sim.now_secs()
    }

    /// Simulated wall-clock time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.sim.now_ns()
    }

    /// Advances simulated time without executing (used when an instance is
    /// descheduled by the hypervisor, §4.3).
    pub fn idle_for_ns(&mut self, ns: u64) {
        self.sim.advance_ns(ns);
    }

    /// The throughput profile recorded so far.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Named state checkpoints captured by `$save` or [`Runtime::save`].
    pub fn checkpoints(&self) -> &BTreeMap<String, StateSnapshot> {
        &self.checkpoints
    }

    /// The transformed design, if hardware compilation has happened.
    pub fn transformed(&self) -> Option<&Transformed> {
        self.program.transformed.as_deref()
    }

    /// Reads a program variable from the running engine.
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist.
    pub fn get(&self, var: &str) -> VlogResult<Value> {
        self.engine.get(var)
    }

    /// Reads a scalar program variable as `Bits`.
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist.
    pub fn get_bits(&self, var: &str) -> VlogResult<Bits> {
        Ok(self.engine.get(var)?.as_scalar().clone())
    }

    /// Writes a scalar program variable (typically a top-level input).
    ///
    /// # Errors
    ///
    /// Returns an error if the variable does not exist.
    pub fn set(&mut self, var: &str, value: Bits) -> VlogResult<()> {
        self.engine.set(var, value)
    }

    /// Registers an in-memory input file that the program can `$fopen`.
    pub fn add_file(&mut self, path: impl Into<String>, data: Vec<u64>) {
        self.env.add_file(path, data);
    }

    /// Runs `n` virtual clock ticks (or fewer if the program finishes), advancing
    /// simulated time and the profiler, and returning any runtime events raised.
    ///
    /// # Errors
    ///
    /// Propagates engine evaluation errors.
    pub fn run_ticks(&mut self, n: u64) -> VlogResult<(RunReport, Vec<RuntimeEvent>)> {
        let before = self.engine.exec_counters();
        let result = self.run_ticks_inner(n);
        self.note_run(&before, &result);
        result
    }

    fn run_ticks_inner(&mut self, n: u64) -> VlogResult<(RunReport, Vec<RuntimeEvent>)> {
        let mut report = RunReport::default();
        let mut events = Vec::new();
        for _ in 0..n {
            if self.finished().is_some() {
                break;
            }
            let tick: TickReport = self.engine.tick(&mut self.env)?;
            self.ticks += 1;
            report.ticks += 1;
            report.native_cycles += tick.native_cycles;
            report.abi_requests += tick.abi_requests;
            report.tasks_handled += tick.tasks_handled;
            let elapsed = self.tick_latency_ns(&tick);
            self.sim.advance_ns(elapsed);
            report.elapsed_ns += elapsed;

            for effect in self.engine.take_effects() {
                match effect {
                    TaskEffect::Save(tag) => {
                        let tag = if tag.is_empty() {
                            "default".to_string()
                        } else {
                            tag
                        };
                        let snapshot = self.engine.save_state();
                        self.sim.advance_ns(self.state_transfer_ns(&snapshot));
                        self.checkpoints.insert(tag.clone(), snapshot);
                        events.push(RuntimeEvent::Saved(tag));
                    }
                    TaskEffect::Restart(tag) => {
                        let tag = if tag.is_empty() {
                            "default".to_string()
                        } else {
                            tag
                        };
                        if let Some(snapshot) = self.checkpoints.get(&tag).cloned() {
                            self.sim.advance_ns(self.state_transfer_ns(&snapshot));
                            self.engine.restore_state(&snapshot);
                        }
                        events.push(RuntimeEvent::Restarted(tag));
                    }
                    TaskEffect::Yield => events.push(RuntimeEvent::Yielded),
                    TaskEffect::Finish(code) => {
                        self.finished = Some(code);
                        events.push(RuntimeEvent::Finished(code));
                    }
                    TaskEffect::Continue => {}
                }
            }
        }
        self.profiler.record(self.sim.now_secs(), self.ticks);
        Ok((report, events))
    }

    /// The telemetry epilogue of [`Runtime::run_ticks`] — the single
    /// instrumentation path for per-run metrics. Counts ticks (by resident
    /// engine), tasks, events, and engine-internal work deltas into the
    /// deterministic namespace, folds the profiler's newest virtual-frequency
    /// sample into the `runtime_virtual_hz` histogram, and leaves a flight
    /// recorder event (with fault detail) behind on engine errors.
    fn note_run(
        &mut self,
        before: &crate::ExecCounters,
        result: &VlogResult<(RunReport, Vec<RuntimeEvent>)>,
    ) {
        if !synergy_telemetry::enabled() {
            return;
        }
        let engine = self.engine_label();
        let after = self.engine.exec_counters();
        let fault = self.engine.fault_detail();
        let sample_hz = self.profiler.samples.last().map(|s| s.virtual_hz);
        let ticks = self.ticks;
        let t = self.telem.get_mut().unwrap_or_else(|e| e.into_inner());
        let r = &mut t.registry;
        // Engines migrate only *between* run_ticks calls, so a simple
        // saturating delta per counter is exact; a migration mid-lifetime
        // resets the engine's counters and the saturation floors the delta
        // at zero rather than going negative.
        let deltas = [
            (
                "runtime_settle_iters_total",
                after.settle_iters.saturating_sub(before.settle_iters),
            ),
            (
                "runtime_worklist_drains_total",
                after.worklist_drains.saturating_sub(before.worklist_drains),
            ),
            (
                "runtime_guard_epoch_skips_total",
                after
                    .guard_epoch_skips
                    .saturating_sub(before.guard_epoch_skips),
            ),
        ];
        for (name, delta) in deltas {
            if delta > 0 {
                r.counter_add(Namespace::Det, name, &[], delta);
            }
        }
        if after.arena_regs > 0 {
            r.gauge_set(
                Namespace::Det,
                "runtime_arena_regs",
                &[],
                after.arena_regs as i64,
            );
        }
        match result {
            Ok((report, events)) => {
                r.counter_add(
                    Namespace::Det,
                    "runtime_ticks_total",
                    &[("engine", engine)],
                    report.ticks,
                );
                r.counter_add(
                    Namespace::Det,
                    "runtime_tasks_total",
                    &[],
                    report.tasks_handled,
                );
                r.counter_add(
                    Namespace::Det,
                    "runtime_events_total",
                    &[],
                    events.len() as u64,
                );
                if let Some(hz) = sample_hz {
                    r.observe(
                        Namespace::Det,
                        "runtime_virtual_hz",
                        &[],
                        POW2_BUCKETS,
                        hz as u64,
                    );
                }
            }
            Err(e) => {
                r.counter_add(
                    Namespace::Det,
                    "runtime_engine_errors_total",
                    &[("engine", engine)],
                    1,
                );
                let detail = match &fault {
                    Some(f) => format!("{} [{}]", e, f),
                    None => e.to_string(),
                };
                t.recorder.record(ticks, "engine_error", detail);
            }
        }
    }

    /// The label value describing where the program currently executes.
    /// (`compiled_regalloc` predates the single compiled executor; dashboards
    /// and the committed metric goldens key on it.)
    fn engine_label(&self) -> &'static str {
        match self.engine.kind() {
            ExecMode::Software => "software",
            ExecMode::Compiled => "compiled_regalloc",
            ExecMode::Hardware(_) => "hardware",
        }
    }

    /// Runs until the program finishes or `max_ticks` elapse.
    ///
    /// # Errors
    ///
    /// Propagates engine evaluation errors.
    pub fn run_to_completion(&mut self, max_ticks: u64) -> VlogResult<RunReport> {
        let mut total = RunReport::default();
        let mut remaining = max_ticks;
        while remaining > 0 && self.finished().is_none() {
            let chunk = remaining.min(1024);
            let (r, _) = self.run_ticks(chunk)?;
            total.ticks += r.ticks;
            total.native_cycles += r.native_cycles;
            total.abi_requests += r.abi_requests;
            total.tasks_handled += r.tasks_handled;
            total.elapsed_ns += r.elapsed_ns;
            remaining -= chunk;
        }
        Ok(total)
    }

    fn tick_latency_ns(&self, tick: &TickReport) -> u64 {
        if self.clock_hz == 0 {
            return 0;
        }
        let cycle_ns = tick.native_cycles as u128 * 1_000_000_000u128 / self.clock_hz as u128;
        // Batch-style programs run autonomously in hardware: the runtime's
        // clock-toggle requests are batched by adaptive refinement, so only task
        // traps pay the host<->fabric transport latency (a request and a reply
        // each). This matches §4.1's "fewer than one ABI request per second" for
        // batch applications while IO-bound programs pay per interaction.
        cycle_ns as u64 + tick.tasks_handled * 2 * self.transport_ns
    }

    fn state_transfer_ns(&self, snapshot: &StateSnapshot) -> u64 {
        // One get/set request per 64-bit word of state plus a fixed handshake.
        let words = (snapshot.total_bits() as u64).div_ceil(64);
        words * self.transport_ns + 10 * self.transport_ns
    }

    /// Captures the program state *without* side effects: no simulated-time
    /// advance, no checkpoint entry. Used by differential harnesses to compare
    /// tenant state across scheduling policies without perturbing the run.
    pub fn peek_state(&self) -> StateSnapshot {
        self.engine.save_state()
    }

    /// Captures the program state under a named tag (the scripted form of `$save`).
    pub fn save(&mut self, tag: impl Into<String>) -> StateSnapshot {
        let snapshot = self.engine.save_state();
        self.sim.advance_ns(self.state_transfer_ns(&snapshot));
        self.checkpoints.insert(tag.into(), snapshot.clone());
        snapshot
    }

    /// Restores program state from a snapshot (the scripted form of `$restart`).
    pub fn restore(&mut self, snapshot: &StateSnapshot) {
        self.sim.advance_ns(self.state_transfer_ns(snapshot));
        self.engine.restore_state(snapshot);
        self.finished = None;
    }

    /// Prepares the program for `device` — the one hardware-preparation step
    /// (steps 1–2 of Figure 6), shared by this runtime's own hardware seat
    /// and the hypervisor's fabric admission, so both see the same
    /// sub-program. Transforms the design and compiles the result into a
    /// fabric image — each at most once per program, however many tenants
    /// run it — and asks `cache` for its bitstream — exactly one cache
    /// lookup per call, and a hit is a built image. The returned program is
    /// the one [`Runtime::transformed`] reports from then on.
    ///
    /// # Errors
    ///
    /// Returns an error if the transformation refuses the design, or the
    /// compiler its transformed form; the tenant stays where it is.
    pub fn prepare_hardware(
        &mut self,
        device: &Device,
        cache: &BitstreamCache,
    ) -> VlogResult<(&Transformed, CompileOutcome)> {
        let telem = self.telem.get_mut().unwrap_or_else(|e| e.into_inner());
        let outcome = self.program.prepare_hardware(device, cache, telem)?;
        let transformed = self.program.transformed.as_deref();
        Ok((transformed.expect("just prepared"), outcome))
    }

    /// Prepares the program for `device` ([`Runtime::prepare_hardware`]),
    /// migrates state onto a hardware engine, and continues execution there.
    /// Returns the simulated latency of the transition: the cache lookup
    /// (synthesis on a miss), the device reconfiguration, and the state
    /// transfer.
    ///
    /// # Errors
    ///
    /// Returns an error if the transformation fails.
    pub fn migrate_to_hardware(
        &mut self,
        device: &Device,
        cache: &BitstreamCache,
    ) -> VlogResult<u64> {
        self.seat_on_hardware(device, cache, false)
    }

    /// Re-seats the program on a hardware engine *without* modelling any
    /// migration latency or advancing simulated time: the checkpoint-restore
    /// path. A restore is not a simulated event — the checkpoint already
    /// contains the pre-capture timeline (including the original deployment
    /// latency), so re-homing must reproduce it exactly, even onto a
    /// different device type.
    ///
    /// # Errors
    ///
    /// Returns an error if the transformation fails.
    pub fn rehome_hardware(&mut self, device: &Device, cache: &BitstreamCache) -> VlogResult<()> {
        self.seat_on_hardware(device, cache, true).map(|_| ())
    }

    fn seat_on_hardware(
        &mut self,
        device: &Device,
        cache: &BitstreamCache,
        quiet: bool,
    ) -> VlogResult<u64> {
        let (_, outcome) = self.prepare_hardware(device, cache)?;
        let lead_ns = (!quiet).then_some(outcome.latency_ns + device.reconfig_latency_ns);
        self.reseat(
            &ExecMode::Hardware(device.name.clone()),
            device,
            outcome.bitstream.report.achieved_hz,
            lead_ns,
        )
    }

    /// The one engine swap (§3.5): seat the program on `rung`, quiesce,
    /// capture state, restore it into the new engine, and install that at
    /// `clock_hz` behind `device`'s transport; a seat that fails leaves the
    /// current engine untouched.
    /// The program's initials already ran on the outgoing engine (or are
    /// still pending, for a never-ticked runtime); that status is carried so
    /// the fresh engine neither replays nor skips them. The state transfer is
    /// charged at the *outgoing* engine's transport. With `lead_ns` (what
    /// preceded the swap: bitstream lookup, reconfiguration) the transition
    /// advances simulated time by lead + transfer and returns that sum;
    /// `None` is the quiet re-home, which takes no simulated time.
    fn reseat(
        &mut self,
        rung: &ExecMode,
        device: &Device,
        clock_hz: u64,
        lead_ns: Option<u64>,
    ) -> VlogResult<u64> {
        let telem = self.telem.get_mut().unwrap_or_else(|e| e.into_inner());
        let mut next = self.program.seat(rung, telem, self.ticks)?;
        let initials_run = self.engine.initials_run();
        let snapshot = self.engine.save_state();
        let latency = lead_ns.map_or(0, |lead| lead + self.state_transfer_ns(&snapshot));
        next.restore_state(&snapshot);
        if initials_run {
            next.mark_initials_run();
        }
        self.engine = next;
        self.clock_hz = clock_hz;
        self.transport_ns = device.transport.request_latency_ns();
        self.sim.advance_ns(latency);
        Ok(latency)
    }

    /// Moves execution onto the compiled software engine (the middle rung of
    /// the interpret → compiled → hardware ladder), carrying state across via
    /// a snapshot. Returns the simulated latency of the transition.
    ///
    /// The program is lowered and optimised the first time any tenant of it
    /// asks for a compiled seat and never again — a failure is remembered
    /// too. The optimiser's telemetry (`opt_*` counters, the `optimize`
    /// event) describes the program, so it is recorded once per runtime, on
    /// its first compiled seat, whoever did the work, while
    /// `runtime_engine_fallbacks_total` fires on every failed attempt.
    ///
    /// # Errors
    ///
    /// Returns [`synergy_vlog::VlogError::Unsupported`] when the design is
    /// outside the compilable envelope; the current engine is left untouched,
    /// so callers can simply keep interpreting.
    pub fn migrate_to_compiled(&mut self) -> VlogResult<u64> {
        let device = Device::compiled();
        self.reseat(&ExecMode::Compiled, &device, device.max_clock_hz, Some(0))
    }

    /// Moves execution back to the software engine (used while the fabric is being
    /// reconfigured, §4.2). Returns the simulated latency of the transition.
    pub fn migrate_to_software(&mut self) -> u64 {
        let device = Device::software();
        self.reseat(&ExecMode::Software, &device, device.max_clock_hz, Some(0))
            .expect("the interpreter seats every elaborated design")
    }

    /// Seats the program on the best software rung `policy` allows: the
    /// compiled engine, unless the policy is [`EnginePolicy::Interpreter`] or
    /// the design is outside the compilable envelope, else the interpreter. A program already there is not moved. Returns the
    /// simulated latency of the transition (0 when nothing moved).
    ///
    /// # Errors
    ///
    /// Returns an internal lowering failure (anything but `Unsupported`),
    /// with the current engine left untouched.
    pub fn seat_software(&mut self, policy: EnginePolicy) -> VlogResult<u64> {
        let mode = self.mode();
        if policy != EnginePolicy::Interpreter {
            if mode == ExecMode::Compiled {
                return Ok(0);
            }
            match self.migrate_to_compiled() {
                Err(VlogError::Unsupported(_)) => {}
                moved => return moved,
            }
        }
        Ok(match mode {
            ExecMode::Software => 0,
            _ => self.migrate_to_software(),
        })
    }

    /// Overrides the effective fabric clock (used by the hypervisor when the global
    /// clock changes because of co-tenants, §4.1 / Figure 12).
    pub fn set_clock_hz(&mut self, clock_hz: u64) {
        if matches!(self.mode(), ExecMode::Hardware(_)) {
            self.clock_hz = clock_hz;
        }
    }

    /// The effective clock the engine is currently running at.
    pub fn clock_hz(&self) -> u64 {
        self.clock_hz
    }

    /// Virtual clock frequency achieved over the program's lifetime, in Hz.
    pub fn virtual_freq_hz(&self) -> f64 {
        let t = self.sim.now_secs();
        if t <= 0.0 {
            0.0
        } else {
            self.ticks as f64 / t
        }
    }
}

// The hypervisor's parallel scheduler ships whole `Runtime`s to worker
// threads for the duration of a round, so the execution stack must be `Send`
// end-to-end (engines via the `Engine: Send` supertrait, plus the
// environment, profiler, and checkpoint store). Enforced at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Runtime>();
};

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("name", &self.name)
            .field("top", &self.program.top())
            .field("mode", &self.mode())
            .field("ticks", &self.ticks)
            .field("time_s", &self.now_secs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = r#"
        module Counter(input wire clock, output wire [31:0] out);
            reg [31:0] count = 0;
            always @(posedge clock) count <= count + 1;
            assign out = count;
        endmodule
    "#;

    const FILE_SUM: &str = r#"
        module M(input wire clock);
            integer fd = $fopen("data.bin");
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
        endmodule
    "#;

    #[test]
    fn starts_in_software_and_counts() {
        let mut rt = Runtime::new("counter", COUNTER, "Counter", "clock").unwrap();
        assert_eq!(rt.mode(), ExecMode::Software);
        rt.run_ticks(25).unwrap();
        assert_eq!(rt.get_bits("count").unwrap().to_u64(), 25);
        assert_eq!(rt.ticks(), 25);
        assert!(rt.now_secs() > 0.0);
    }

    #[test]
    fn auto_policy_starts_on_the_compiled_engine() {
        let mut rt =
            Runtime::with_policy("counter", COUNTER, "Counter", "clock", EnginePolicy::Auto)
                .unwrap();
        assert_eq!(rt.mode(), ExecMode::Compiled);
        rt.run_ticks(25).unwrap();
        assert_eq!(rt.get_bits("count").unwrap().to_u64(), 25);
        // The compiled engine models a faster software clock than the
        // interpreter.
        assert!(rt.clock_hz() > Device::software().max_clock_hz);
    }

    #[test]
    fn malformed_programs_are_typed_errors_at_every_compiled_entry_point() {
        // A hand-built program whose two paths reach a join at different
        // operand-stack depths. `codegen::compile` never produces one, so the
        // only way in is the lowered-program entry points: the simulator, the
        // engine, and `optimise_and_seat` — the step through which
        // `with_policy`, `migrate_to_compiled` and `restore_checkpoint` all
        // build the compiled engine. None has a second executor to seat
        // it on quietly, and the optimizer that `optimise_and_seat` always
        // runs first neither repairs nor trips over it: every pass fails
        // validation and is reverted, so the program arrives as it was.
        let design = synergy_vlog::compile(COUNTER, "Counter").unwrap();
        let mut prog = synergy_codegen::compile(&design).unwrap();
        use synergy_codegen::Op;
        prog.initials.push(vec![
            Op::PushTime,
            Op::JumpIfZero(3),
            Op::PushTime,
            Op::PushTime,
            Op::Pop,
        ]);
        let malformed = |r: VlogResult<()>| match r {
            Err(VlogError::Elaborate(msg)) => {
                assert!(
                    msg.contains("malformed compiled program 'Counter'"),
                    "{}",
                    msg
                );
                assert!(msg.contains("operand stack depth mismatch"), "{}", msg);
            }
            other => panic!("expected a typed malformed-program error, got {:?}", other),
        };
        malformed(synergy_codegen::CompiledSim::try_new(prog.clone()).map(drop));
        malformed(crate::CompiledEngine::from_program(prog.clone(), "clock").map(drop));
        let report = synergy_opt::optimize(&mut prog.clone());
        assert!(report.passes.iter().all(|p| p.reverted), "{:?}", report);
        let lowered = crate::program::optimise_and_seat(prog, "clock");
        malformed(lowered.engine.clone().map(drop));

        // A runtime whose program lowered to this keeps its engine, returns
        // the typed error from the policy-driven seat instead of passing it
        // off as an uncompilable design, and counts it. (Its source is its
        // own: a test running beside this one must not share the program.)
        synergy_telemetry::set_enabled(true);
        let own = format!("{} // lowers to a malformed program", COUNTER);
        let mut rt = Runtime::new("c", &own, "Counter", "clock").unwrap();
        rt.program.set_lowered(lowered);
        let refused = rt.seat_software(EnginePolicy::Auto);
        malformed(refused.clone().map(drop));
        assert_eq!(rt.mode(), ExecMode::Software);
        let reason = refused.unwrap_err().to_string();
        assert_eq!(
            rt.metrics().counter_value(
                Namespace::Det,
                "runtime_engine_fallbacks_total",
                &[("reason", reason.as_str())]
            ),
            1
        );
        assert!(rt.flight_dump().contains("engine_fallback"));

        // Source text cannot express such a program: every compilable design
        // still seats compiled, through the same helper.
        let rt =
            Runtime::with_policy("c", COUNTER, "Counter", "clock", EnginePolicy::Auto).unwrap();
        assert_eq!(rt.mode(), ExecMode::Compiled);
    }

    #[test]
    fn auto_policy_falls_back_to_the_interpreter() {
        // Multiply-driven nets are outside the compilable envelope.
        let src = r#"module M(input wire clock, output wire [7:0] o);
                         wire [7:0] a = 1;
                         assign o = a;
                         assign o = a + 1;
                     endmodule"#;
        let rt = Runtime::with_policy("m", src, "M", "clock", EnginePolicy::Auto).unwrap();
        assert_eq!(rt.mode(), ExecMode::Software);
    }

    #[test]
    fn migrate_to_compiled_preserves_state_and_speeds_up() {
        let mut rt = Runtime::new("counter", COUNTER, "Counter", "clock").unwrap();
        rt.run_ticks(10).unwrap();
        let (slow, _) = rt.run_ticks(100).unwrap();
        let latency = rt.migrate_to_compiled().unwrap();
        assert!(latency > 0);
        assert_eq!(rt.mode(), ExecMode::Compiled);
        assert_eq!(rt.get_bits("count").unwrap().to_u64(), 110);
        let (fast, _) = rt.run_ticks(100).unwrap();
        assert!(fast.elapsed_ns < slow.elapsed_ns);
        // Onward to hardware, and back down to the interpreter.
        let cache = BitstreamCache::new();
        rt.migrate_to_hardware(&Device::f1(), &cache).unwrap();
        rt.run_ticks(5).unwrap();
        rt.migrate_to_software();
        assert_eq!(rt.mode(), ExecMode::Software);
        assert_eq!(rt.get_bits("count").unwrap().to_u64(), 215);
    }

    #[test]
    fn compiled_runtime_runs_streaming_programs() {
        let mut rt =
            Runtime::with_policy("sum", FILE_SUM, "M", "clock", EnginePolicy::Auto).unwrap();
        rt.add_file("data.bin", vec![1, 2, 3, 4, 5]);
        assert_eq!(rt.mode(), ExecMode::Compiled);
        rt.run_to_completion(100).unwrap();
        assert_eq!(rt.finished(), Some(0));
        assert_eq!(rt.get_bits("sum").unwrap().to_u64(), 15);
        assert!(rt.env.output_text().contains("15"));
    }

    #[test]
    fn migrates_to_hardware_and_keeps_state() {
        let mut rt = Runtime::new("counter", COUNTER, "Counter", "clock").unwrap();
        rt.run_ticks(10).unwrap();
        let cache = BitstreamCache::new();
        let latency = rt.migrate_to_hardware(&Device::f1(), &cache).unwrap();
        assert!(latency > 0);
        assert_eq!(rt.mode(), ExecMode::Hardware("f1".into()));
        rt.run_ticks(10).unwrap();
        assert_eq!(rt.get_bits("count").unwrap().to_u64(), 20);
        // Hardware execution runs the virtual clock much faster than software.
        assert!(rt.clock_hz() > Device::software().max_clock_hz);
    }

    #[test]
    fn hardware_is_faster_than_software_in_virtual_time() {
        let mut sw = Runtime::new("sw", COUNTER, "Counter", "clock").unwrap();
        let (sw_report, _) = sw.run_ticks(100).unwrap();

        let mut hw = Runtime::new("hw", COUNTER, "Counter", "clock").unwrap();
        let cache = BitstreamCache::new();
        hw.migrate_to_hardware(&Device::f1(), &cache).unwrap();
        let (hw_report, _) = hw.run_ticks(100).unwrap();

        assert!(hw_report.elapsed_ns < sw_report.elapsed_ns);
    }

    #[test]
    fn file_sum_program_completes_in_hardware() {
        let mut rt = Runtime::new("sum", FILE_SUM, "M", "clock").unwrap();
        rt.add_file("data.bin", vec![1, 2, 3, 4, 5]);
        // Run a couple of ticks in software first so $fopen executes there.
        rt.run_ticks(2).unwrap();
        let cache = BitstreamCache::new();
        rt.migrate_to_hardware(&Device::de10(), &cache).unwrap();
        rt.run_to_completion(100).unwrap();
        assert_eq!(rt.finished(), Some(0));
        assert_eq!(rt.get_bits("sum").unwrap().to_u64(), 15);
        assert!(rt.env.output_text().contains("15"));
    }

    #[test]
    fn save_and_restore_round_trip_across_engines() {
        let mut rt = Runtime::new("counter", COUNTER, "Counter", "clock").unwrap();
        rt.run_ticks(7).unwrap();
        let snapshot = rt.save("checkpoint");
        assert_eq!(snapshot.values["count"].as_scalar().to_u64(), 7);

        // Continue, then roll back.
        rt.run_ticks(5).unwrap();
        assert_eq!(rt.get_bits("count").unwrap().to_u64(), 12);
        let saved = rt.checkpoints()["checkpoint"].clone();
        rt.restore(&saved);
        assert_eq!(rt.get_bits("count").unwrap().to_u64(), 7);

        // The same snapshot restores into a different runtime on different hardware
        // (the Figure 9 suspend-and-resume flow).
        let mut other = Runtime::new("counter2", COUNTER, "Counter", "clock").unwrap();
        let cache = BitstreamCache::new();
        other.migrate_to_hardware(&Device::f1(), &cache).unwrap();
        other.restore(&saved);
        other.run_ticks(3).unwrap();
        assert_eq!(other.get_bits("count").unwrap().to_u64(), 10);
    }

    #[test]
    fn dollar_save_creates_checkpoints() {
        let src = r#"module M(input wire clock, input wire do_save);
                         reg [31:0] n = 0;
                         always @(posedge clock) begin
                             if (do_save) $save("ckpt");
                             n <= n + 1;
                         end
                     endmodule"#;
        let mut rt = Runtime::new("saver", src, "M", "clock").unwrap();
        rt.run_ticks(3).unwrap();
        rt.set("do_save", Bits::from_u64(1, 1)).unwrap();
        let (_, events) = rt.run_ticks(1).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, RuntimeEvent::Saved(t) if t == "ckpt")));
        assert!(rt.checkpoints().contains_key("ckpt"));
    }

    #[test]
    fn migrating_back_to_software_preserves_state() {
        let mut rt = Runtime::new("counter", COUNTER, "Counter", "clock").unwrap();
        let cache = BitstreamCache::new();
        rt.migrate_to_hardware(&Device::de10(), &cache).unwrap();
        rt.run_ticks(6).unwrap();
        rt.migrate_to_software();
        assert_eq!(rt.mode(), ExecMode::Software);
        rt.run_ticks(4).unwrap();
        assert_eq!(rt.get_bits("count").unwrap().to_u64(), 10);
    }

    #[test]
    fn profiler_records_throughput_samples() {
        let mut rt = Runtime::new("counter", COUNTER, "Counter", "clock").unwrap();
        rt.run_ticks(10).unwrap();
        rt.run_ticks(10).unwrap();
        let samples = rt.profiler().samples();
        assert_eq!(samples.len(), 2);
        assert!(samples[1].ticks > samples[0].ticks);
        assert!(rt.profiler().peak_virtual_hz() > 0.0);
        assert!(rt.virtual_freq_hz() > 0.0);
    }

    #[test]
    fn second_migration_reuses_cached_bitstream() {
        let cache = BitstreamCache::new();
        let device = Device::f1();
        let mut a = Runtime::new("a", COUNTER, "Counter", "clock").unwrap();
        let first = a.migrate_to_hardware(&device, &cache).unwrap();
        let mut b = Runtime::new("b", COUNTER, "Counter", "clock").unwrap();
        let second = b.migrate_to_hardware(&device, &cache).unwrap();
        assert!(second < first, "cache hit avoids the synthesis latency");
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn clock_override_changes_virtual_time_accounting() {
        let cache = BitstreamCache::new();
        let mut rt = Runtime::new("counter", COUNTER, "Counter", "clock").unwrap();
        rt.migrate_to_hardware(&Device::f1(), &cache).unwrap();
        let (fast, _) = rt.run_ticks(50).unwrap();
        rt.set_clock_hz(rt.clock_hz() / 2);
        let (slow, _) = rt.run_ticks(50).unwrap();
        assert!(slow.elapsed_ns > fast.elapsed_ns);
    }
}
