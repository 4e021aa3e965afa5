//! Device models for the simulated FPGA substrate.
//!
//! The paper evaluates on two platforms (§6): Altera DE10 SoCs (Cyclone V, 110K
//! LUTs, 50 MHz, Avalon memory-mapped IO) and AWS F1 instances (Xilinx UltraScale+
//! VU9P, ~10× the LUTs, 250 MHz, PCIe). Neither is available here, so this module
//! models the properties the evaluation actually depends on: fabric capacity,
//! clock rates, reconfiguration latency, synthesis latency, and the per-request
//! latency of the transport between the runtime and the fabric.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The host-to-fabric transport used for ABI requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Transport {
    /// Avalon memory-mapped master, `mmap`ed into the runtime's address space
    /// (DE10 family, §5.1).
    AvalonMm,
    /// PCIe through the AmorphOS hull (F1, §5.2).
    Pcie,
    /// In-process software engine (no hardware transport).
    Software,
}

impl Transport {
    /// Latency of a single ABI request (get/set/evaluate/update) in nanoseconds.
    pub fn request_latency_ns(&self) -> u64 {
        match self {
            Transport::AvalonMm => 800,
            Transport::Pcie => 1_500,
            Transport::Software => 50,
        }
    }
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transport::AvalonMm => write!(f, "avalon-mm"),
            Transport::Pcie => write!(f, "pcie"),
            Transport::Software => write!(f, "software"),
        }
    }
}

/// A reconfigurable device model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Human-readable device name (`de10`, `f1`).
    pub name: String,
    /// Number of LUTs in the fabric.
    pub lut_capacity: u64,
    /// Number of flip-flops in the fabric.
    pub ff_capacity: u64,
    /// Block-RAM capacity in bits.
    pub bram_bits: u64,
    /// Maximum supported fabric clock in Hz.
    pub max_clock_hz: u64,
    /// Discrete clock frequencies the build scripts step through when a design
    /// fails timing (§5.2's iterative frequency reduction), highest first.
    pub clock_steps_hz: Vec<u64>,
    /// Host-fabric transport.
    pub transport: Transport,
    /// Full-fabric reconfiguration latency in nanoseconds.
    pub reconfig_latency_ns: u64,
    /// Baseline synthesis/place/route latency in nanoseconds of simulated time
    /// (scaled by design size by the synthesis estimator).
    pub synth_base_latency_ns: u64,
}

impl Device {
    /// The Altera DE10 (Cyclone V SoC) model used in the paper's cluster.
    pub fn de10() -> Device {
        Device {
            name: "de10".into(),
            lut_capacity: 110_000,
            ff_capacity: 110_000 * 4,
            bram_bits: 5_570_000,
            max_clock_hz: 50_000_000,
            clock_steps_hz: vec![50_000_000, 37_500_000, 25_000_000, 12_500_000],
            transport: Transport::AvalonMm,
            // Full reprogramming of the Cyclone V fabric takes on the order of a
            // second through the HPS bridge.
            reconfig_latency_ns: 1_200_000_000,
            // Quartus Lite builds take ~20 minutes; represented in virtual time.
            synth_base_latency_ns: 3_000_000_000,
        }
    }

    /// The AWS F1 (Xilinx UltraScale+ VU9P) model: 10× the LUTs and 5× the clock
    /// of the DE10 (§5.2).
    pub fn f1() -> Device {
        Device {
            name: "f1".into(),
            lut_capacity: 1_100_000,
            ff_capacity: 2_364_000,
            bram_bits: 345_000_000,
            max_clock_hz: 250_000_000,
            clock_steps_hz: vec![250_000_000, 187_500_000, 125_000_000, 62_500_000],
            transport: Transport::Pcie,
            // F1 AFI loads and PCIe re-attach are slower than the DE10 path, which
            // is why Figure 9 shows a larger dip on restore.
            reconfig_latency_ns: 4_000_000_000,
            // Vivado builds take ~2 hours; represented in virtual time.
            synth_base_latency_ns: 8_000_000_000,
        }
    }

    /// A software-only "device" used for engines that never leave the software
    /// interpreter.
    pub fn software() -> Device {
        Device {
            name: "software".into(),
            lut_capacity: u64::MAX,
            ff_capacity: u64::MAX,
            bram_bits: u64::MAX,
            // The paper reports software simulation running orders of magnitude
            // slower than hardware; 50 kHz of virtual clock is representative for
            // Cascade-style interpretation.
            max_clock_hz: 50_000,
            clock_steps_hz: vec![50_000],
            transport: Transport::Software,
            reconfig_latency_ns: 0,
            synth_base_latency_ns: 0,
        }
    }

    /// A software-only "device" modelling the compiled software engine
    /// (levelized netlist + bytecode): still host-resident, but roughly an
    /// order of magnitude faster virtual clock than tree-walking
    /// interpretation.
    pub fn compiled() -> Device {
        Device {
            name: "compiled".into(),
            max_clock_hz: 1_000_000,
            clock_steps_hz: vec![1_000_000],
            ..Device::software()
        }
    }

    /// The highest clock step that is `<= freq_hz`, used after timing analysis.
    pub fn quantize_clock(&self, freq_hz: u64) -> u64 {
        self.clock_steps_hz
            .iter()
            .copied()
            .find(|&step| step <= freq_hz)
            .unwrap_or_else(|| *self.clock_steps_hz.last().unwrap_or(&freq_hz))
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} LUTs, {} MHz, {})",
            self.name,
            self.lut_capacity,
            self.max_clock_hz / 1_000_000,
            self.transport
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_is_bigger_and_faster_than_de10() {
        let de10 = Device::de10();
        let f1 = Device::f1();
        assert_eq!(f1.lut_capacity, de10.lut_capacity * 10);
        assert_eq!(f1.max_clock_hz, de10.max_clock_hz * 5);
        assert!(f1.reconfig_latency_ns > de10.reconfig_latency_ns);
    }

    #[test]
    fn compiled_device_sits_between_interpreter_and_hardware() {
        let compiled = Device::compiled();
        assert!(compiled.max_clock_hz > Device::software().max_clock_hz);
        assert!(compiled.max_clock_hz < Device::de10().max_clock_hz);
        assert_eq!(compiled.transport, Transport::Software);
        assert_eq!(compiled.reconfig_latency_ns, 0);
    }

    #[test]
    fn quantize_clock_steps_down() {
        let f1 = Device::f1();
        assert_eq!(f1.quantize_clock(250_000_000), 250_000_000);
        assert_eq!(f1.quantize_clock(200_000_000), 187_500_000);
        assert_eq!(f1.quantize_clock(130_000_000), 125_000_000);
        assert_eq!(
            f1.quantize_clock(10_000_000),
            62_500_000,
            "never below the last step"
        );
    }

    #[test]
    fn transport_latencies_ordered() {
        assert!(
            Transport::Software.request_latency_ns() < Transport::AvalonMm.request_latency_ns()
        );
        assert!(Transport::AvalonMm.request_latency_ns() < Transport::Pcie.request_latency_ns());
    }
}
