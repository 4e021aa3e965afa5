//! # synergy-amorphos
//!
//! An AmorphOS-like OS-level protection layer for FPGAs (§2.2 of the SYNERGY
//! paper), rebuilt as a library so the SYNERGY hypervisor can target it as a
//! backend (§5.2).
//!
//! AmorphOS extends processes with *Morphlets*, lets Morphlets from mutually
//! distrustful protection domains share an FPGA, and mediates access through a
//! shell-like *hull* that provides isolation. Admission — what fits, and at
//! which shared clock — is the fabric's (`synergy_fpga::Fabric`); the hull
//! keeps each admitted Morphlet's owner and its quiescence class, the
//! interface SYNERGY satisfies transparently on behalf of applications.
#![warn(missing_docs)]

mod hull;
mod morphlet;

pub use hull::{Hull, HullError};
pub use morphlet::{DomainId, Morphlet, MorphletId, Quiescence};

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_fpga::{Bitstream, Device, Fabric, SynthOptions};

    #[test]
    fn hull_integrates_with_synth_estimates() {
        // End-to-end: estimate a real design, let the fabric admit it, and
        // register it as a Morphlet.
        let device = Device::f1();
        let design = synergy_vlog::compile(
            r#"module M(input wire clock, output wire [31:0] out);
                   reg [31:0] acc = 0;
                   always @(posedge clock) acc <= acc + 3;
                   assign out = acc;
               endmodule"#,
            "M",
        )
        .unwrap();
        let report = synergy_fpga::estimate(&design, &device, SynthOptions::native(&device));
        let mut fabric = Fabric::new(device.clone());
        let bitstream = Bitstream {
            id: 1,
            module_name: "M".into(),
            device_name: device.name.clone(),
            report,
        };
        fabric.load("acc", bitstream).unwrap();
        let mut hull = Hull::new();
        let id = hull.register(DomainId(1), "acc", Quiescence::Transparent);
        assert_eq!(fabric.utilization().luts, report.luts);
        hull.check_access(DomainId(1), id).unwrap();
        assert_eq!(hull.morphlet(id).unwrap().name, "acc");
    }
}
