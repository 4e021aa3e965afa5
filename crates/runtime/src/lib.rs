//! # synergy-runtime
//!
//! The Cascade-style runtime at the heart of SYNERGY (§2.1, §3.5 of the paper).
//!
//! A [`Runtime`] owns one user program and executes it through interchangeable
//! [`Engine`]s: the [`SoftwareEngine`] interprets the original program directly
//! (full unsynthesizable Verilog support), while the [`HardwareEngine`] executes
//! the SYNERGY-transformed state machine on a simulated fabric, trapping to the
//! runtime at sub-clock-tick granularity whenever an unsynthesizable task needs
//! servicing. State capture (`$save`/`$restart`), workload migration, and the
//! virtual-clock profiling used throughout the paper's evaluation live here.
//!
//! The [`checkpoint`] module extends in-memory state capture with a durable
//! wire format: [`Runtime::save_checkpoint`] serializes the whole tenant
//! (program, engine placement, architectural state, environment, clocks) into
//! a `synergy-snapshot` frame, and [`Runtime::restore_checkpoint`] rebuilds a
//! running tenant from those bytes in a fresh process.
#![warn(missing_docs)]

pub mod checkpoint;
mod cohort;
mod engine;
mod fabric;
mod program;
mod runtime;

pub use checkpoint::CheckpointError;
pub use cohort::{lockstep, LaneJournal, Lockstep, NotReady};
pub use engine::{CompiledEngine, Engine, HardwareEngine, SoftwareEngine, TickReport};
pub use fabric::{CompiledFabric, InterpretedFabric};
pub use runtime::{
    EnginePolicy, ExecMode, Profiler, RunReport, Runtime, RuntimeEvent, Sample,
    MAX_PROFILER_SAMPLES,
};
// What `Engine::exec_counters` returns: the compiled executor's counters,
// which every engine reports (the interpreter fills `settle_iters` only).
pub use synergy_codegen::ExecCounters;
// The lockstep engine under `lockstep`, for its lane limits.
pub use synergy_codegen::Cohort;
// Engine state capture speaks the interpreter's snapshot type; re-export it so
// layers above (hypervisor, control plane) can name what `peek_state` returns
// without depending on the interpreter crate directly.
pub use synergy_interp::StateSnapshot;
