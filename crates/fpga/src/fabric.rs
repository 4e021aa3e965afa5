//! The reconfigurable fabric: admission, reconfiguration, and the shared clock.
//!
//! A [`Fabric`] models one physical device on which the hypervisor places one or
//! more compiled designs (the coalesced monolithic program of §4.1, or several
//! co-resident Morphlets under AmorphOS). It is a node's one record of what is
//! deployed: it admits a design only while LUTs, FFs and BRAM all remain, reports
//! each load's reconfiguration latency, and computes the *global clock*: when a
//! newly added design fails timing at the current frequency, the whole fabric steps
//! down to the fastest frequency every resident design can meet — the effect behind
//! Figure 12's drop from 250 MHz to 125 MHz when `adpcm` joins.

use crate::bitstream::Bitstream;
use crate::device::Device;
use crate::synth::SynthReport;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Errors returned by fabric operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FabricError {
    /// The design does not fit in the remaining LUT/FF/BRAM budget.
    InsufficientResources {
        /// Human-readable description of the shortfall.
        detail: String,
    },
    /// The named design is not resident on this fabric.
    NotLoaded(String),
    /// A design with this name is already resident.
    AlreadyLoaded(String),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::InsufficientResources { detail } => {
                write!(f, "insufficient fabric resources: {}", detail)
            }
            FabricError::NotLoaded(name) => write!(f, "design '{}' is not loaded", name),
            FabricError::AlreadyLoaded(name) => write!(f, "design '{}' is already loaded", name),
        }
    }
}

impl std::error::Error for FabricError {}

/// Utilisation summary for a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Utilization {
    /// LUTs in use.
    pub luts: u64,
    /// Flip-flops in use.
    pub ffs: u64,
    /// Block-RAM bits in use.
    pub bram_bits: u64,
    /// LUT utilisation as a fraction of capacity.
    pub lut_fraction: f64,
}

/// The outcome of loading a design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadOutcome {
    /// Latency of the reconfiguration in nanoseconds.
    pub reconfig_latency_ns: u64,
    /// Fabric clock after the load (may be lower than before).
    pub global_clock_hz: u64,
    /// Whether adding this design forced the global clock down.
    pub clock_lowered: bool,
}

/// One reconfigurable device with zero or more resident designs.
#[derive(Debug, Clone)]
pub struct Fabric {
    device: Device,
    /// Each resident design's synthesis report, by the name it was loaded under.
    designs: BTreeMap<String, SynthReport>,
    global_clock_hz: u64,
}

impl Fabric {
    /// Creates an empty fabric for the given device.
    pub fn new(device: Device) -> Self {
        let clock = device.max_clock_hz;
        Fabric {
            device,
            designs: BTreeMap::new(),
            global_clock_hz: clock,
        }
    }

    /// The device this fabric models.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The clock currently driving every resident design.
    pub fn global_clock_hz(&self) -> u64 {
        self.global_clock_hz
    }

    /// Current resource utilisation.
    pub fn utilization(&self) -> Utilization {
        let luts: u64 = self.designs.values().map(|r| r.luts).sum();
        let ffs: u64 = self.designs.values().map(|r| r.ffs).sum();
        let bram_bits: u64 = self.designs.values().map(|r| r.bram_bits).sum();
        Utilization {
            luts,
            ffs,
            bram_bits,
            lut_fraction: luts as f64 / self.device.lut_capacity as f64,
        }
    }

    /// `true` if a design with the given resource report would fit alongside the
    /// current residents.
    pub fn admits(&self, bitstream: &Bitstream) -> bool {
        self.shortfall(&bitstream.report).is_none()
    }

    /// The first resource, in LUT, FF, BRAM order, that `report` needs more of
    /// than remains: `(resource, needed, remaining, capacity)`.
    fn shortfall(&self, report: &SynthReport) -> Option<(&'static str, u64, u64, u64)> {
        let u = self.utilization();
        let d = &self.device;
        [
            ("LUTs", report.luts, u.luts, d.lut_capacity),
            ("FFs", report.ffs, u.ffs, d.ff_capacity),
            ("BRAM bits", report.bram_bits, u.bram_bits, d.bram_bits),
        ]
        .into_iter()
        .map(|(what, need, used, cap)| (what, need, cap.saturating_sub(used), cap))
        .find(|&(_, need, remaining, _)| need > remaining)
    }

    /// Loads (or replaces) a design, performing a full reconfiguration.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InsufficientResources`] if the design does not fit or
    /// [`FabricError::AlreadyLoaded`] if the name is taken.
    pub fn load(&mut self, name: &str, bitstream: Bitstream) -> Result<LoadOutcome, FabricError> {
        if self.designs.contains_key(name) {
            return Err(FabricError::AlreadyLoaded(name.to_string()));
        }
        if let Some((what, need, remaining, cap)) = self.shortfall(&bitstream.report) {
            return Err(FabricError::InsufficientResources {
                detail: format!(
                    "{} needs {} {} but only {} of {} remain",
                    name, need, what, remaining, cap
                ),
            });
        }
        self.designs.insert(name.to_string(), bitstream.report);
        let before = self.global_clock_hz;
        self.recompute_clock();
        Ok(LoadOutcome {
            reconfig_latency_ns: self.device.reconfig_latency_ns,
            global_clock_hz: self.global_clock_hz,
            clock_lowered: self.global_clock_hz < before,
        })
    }

    /// Removes a design from the fabric (flagged-for-removal semantics of §4.1: the
    /// next recompilation drops it). Raises the global clock if possible.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::NotLoaded`] if no design with that name is resident.
    pub fn unload(&mut self, name: &str) -> Result<(), FabricError> {
        if self.designs.remove(name).is_none() {
            return Err(FabricError::NotLoaded(name.to_string()));
        }
        self.recompute_clock();
        Ok(())
    }

    fn recompute_clock(&mut self) {
        let slowest = self
            .designs
            .values()
            .map(|r| r.achieved_hz)
            .min()
            .unwrap_or(self.device.max_clock_hz);
        self.global_clock_hz = self
            .device
            .quantize_clock(slowest.min(self.device.max_clock_hz));
    }
}

/// A monotonically advancing virtual clock used by the experiments to report wall
/// time without depending on the host's real-time clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct SimClock {
    now_ns: u64,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// The current time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The current time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns as f64 / 1e9
    }

    /// Advances the clock.
    pub fn advance_ns(&mut self, ns: u64) {
        self.now_ns = self.now_ns.saturating_add(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bitstream(name: &str, luts: u64, achieved_hz: u64) -> Bitstream {
        Bitstream {
            id: luts ^ achieved_hz,
            module_name: name.to_string(),
            device_name: "f1".into(),
            report: SynthReport {
                luts,
                ffs: luts / 2,
                bram_bits: 0,
                critical_path_ps: 4_000,
                achieved_hz,
                synth_latency_ns: 1_000,
            },
        }
    }

    #[test]
    fn loading_accumulates_utilization() {
        let mut fabric = Fabric::new(Device::f1());
        fabric
            .load("a", bitstream("a", 100_000, 250_000_000))
            .unwrap();
        fabric
            .load("b", bitstream("b", 200_000, 250_000_000))
            .unwrap();
        let u = fabric.utilization();
        assert_eq!((u.luts, u.ffs), (300_000, 150_000));
    }

    #[test]
    fn oversubscription_is_rejected() {
        let mut fabric = Fabric::new(Device::de10());
        fabric
            .load("a", bitstream("a", 100_000, 50_000_000))
            .unwrap();
        let err = fabric
            .load("b", bitstream("b", 50_000, 50_000_000))
            .unwrap_err();
        assert!(matches!(err, FabricError::InsufficientResources { .. }));
        assert_eq!(fabric.utilization().luts, 100_000);
    }

    #[test]
    fn a_rejection_names_the_resource_that_is_short() {
        // DE10's LUTs take 1,000 easily; its 5.57 Mbit of BRAM do not take 6.
        let mut fabric = Fabric::new(Device::de10());
        let mut ram = bitstream("ram", 1_000, 50_000_000);
        ram.report.bram_bits = 6_000_000;
        match fabric.load("ram", ram) {
            Err(FabricError::InsufficientResources { detail }) => assert_eq!(
                detail,
                "ram needs 6000000 BRAM bits but only 5570000 of 5570000 remain"
            ),
            other => panic!("expected a BRAM shortfall, got {:?}", other),
        }
        let mut regs = bitstream("regs", 1_000, 50_000_000);
        regs.report.ffs = 500_000;
        let err = fabric.load("regs", regs).unwrap_err().to_string();
        assert!(err.contains("needs 500000 FFs"), "{}", err);
        assert_eq!(fabric.utilization().luts, 0, "nothing was admitted");
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut fabric = Fabric::new(Device::f1());
        fabric.load("a", bitstream("a", 10, 250_000_000)).unwrap();
        assert!(matches!(
            fabric.load("a", bitstream("a", 10, 250_000_000)),
            Err(FabricError::AlreadyLoaded(_))
        ));
    }

    #[test]
    fn slow_design_lowers_the_global_clock() {
        // The Figure 12 effect: adding a design that only meets 125 MHz drags the
        // whole fabric down; removing it restores the clock.
        let mut fabric = Fabric::new(Device::f1());
        fabric
            .load("df", bitstream("df", 50_000, 250_000_000))
            .unwrap();
        fabric
            .load("bitcoin", bitstream("bitcoin", 60_000, 250_000_000))
            .unwrap();
        assert_eq!(fabric.global_clock_hz(), 250_000_000);
        let outcome = fabric
            .load("adpcm", bitstream("adpcm", 80_000, 125_000_000))
            .unwrap();
        assert!(outcome.clock_lowered);
        assert_eq!(fabric.global_clock_hz(), 125_000_000);
        fabric.unload("adpcm").unwrap();
        assert_eq!(fabric.global_clock_hz(), 250_000_000);
    }

    #[test]
    fn unload_unknown_design_errors() {
        let mut fabric = Fabric::new(Device::f1());
        assert!(matches!(
            fabric.unload("ghost"),
            Err(FabricError::NotLoaded(_))
        ));
    }

    #[test]
    fn sim_clock_advances() {
        let mut clock = SimClock::new();
        clock.advance_ns(500);
        clock.advance_ns(1_500_000_000);
        assert_eq!(clock.now_ns(), 1_500_000_500);
        assert!((clock.now_secs() - 1.5000005).abs() < 1e-9);
    }
}
