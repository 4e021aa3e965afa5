//! # synergy-fpga
//!
//! Simulated FPGA substrate for the SYNERGY reproduction.
//!
//! The paper's evaluation runs on Altera DE10 SoCs and AWS F1 instances using the
//! vendor toolchains. This crate stands in for that hardware (see `DESIGN.md` for
//! the substitution rationale) and provides:
//!
//! * [`Device`] — capacity/clock/latency models for the DE10, F1, and a
//!   software-only target.
//! * [`synth`] — a deterministic synthesis/timing estimator applied uniformly to
//!   every compilation condition, preserving the relative overheads reported in
//!   Figures 13–15.
//! * [`BitstreamCache`] — the content-addressed compilation cache of §5.1/§7.
//! * [`Fabric`] — a device instance with admission control, reconfiguration
//!   accounting, and the shared global clock (the Figure 12 effect).
//! * [`SimClock`] — virtual wall-clock used by the experiment harnesses.
#![warn(missing_docs)]

mod bitstream;
mod device;
mod fabric;
pub mod synth;

pub use bitstream::{Bitstream, BitstreamCache, CacheStats, CompileOutcome};
pub use device::{Device, Transport};
pub use fabric::{Fabric, FabricError, LoadOutcome, SimClock, Utilization};
pub use synth::{estimate, RamStyle, SynthOptions, SynthReport};
