//! The synthesis estimator over a sweep. Fabric admission and the Figure
//! 12–15 rows read `synergy::fpga::estimate`; this pins what every estimate
//! must satisfy, over the six Table-1 designs and every fuzz design of
//! generator seeds 1000–1249 (the benchmark's fuzz window) that the
//! state-machine transformation accepts, each on F1 and on DE10:
//!
//! * Synergy (the transformed design with its capture logic) never has
//!   fewer FFs than the native design;
//! * FF RAM style leaves no BRAM and moves every native BRAM bit into FFs;
//! * no design is clocked above its device's maximum;
//! * equal inputs give equal reports.
//!
//! Synergy ≥ native on LUTs holds on the Table-1 designs, which are Figure
//! 14's rows, and is asserted only there: some fuzz designs estimate below
//! native (`docs/ARCHITECTURE.md`, "Fabric admission and the estimator").

use synergy::fpga::{estimate, RamStyle, SynthOptions, SynthReport};
use synergy::vlog::elaborate::ElabModule;
use synergy::workloads::{self, generate_fuzz_design};
use synergy::{transform_design, Device, TransformOptions, Transformed, VlogError};

/// The generator seeds the benchmark draws its fuzz designs from.
const FUZZ_SEEDS: std::ops::Range<u64> = 1000..1250;

/// A source's design and its transformation; `None` when the transformation
/// refuses the design.
fn build(source: &str, top: &str) -> Option<(ElabModule, Transformed)> {
    let design = synergy::vlog::compile(source, top).expect("the design compiles");
    match transform_design(&design, TransformOptions::default()) {
        Ok(tf) => Some((design, tf)),
        Err(VlogError::Unsupported(_)) => None,
        Err(e) => panic!("{}: transform failed: {}", top, e),
    }
}

/// A design's estimates on one device: native, native with FF RAMs, and
/// Synergy.
fn estimates((design, tf): &(ElabModule, Transformed), device: &Device) -> [SynthReport; 3] {
    let native = SynthOptions::native(device);
    let ff = SynthOptions {
        ram_style: RamStyle::Ff,
        ..native
    };
    let synergy = SynthOptions::synergy(
        device,
        tf.state.captured_bits() as u64,
        tf.state.vars.len() as u64,
    );
    [
        estimate(design, device, native),
        estimate(design, device, ff),
        estimate(&tf.elab, device, synergy),
    ]
}

#[test]
fn every_estimate_keeps_the_estimators_invariants() {
    let mut designs: Vec<(String, String, String)> = workloads::all()
        .into_iter()
        .map(|b| (b.name, b.source, b.top))
        .collect();
    designs.extend(FUZZ_SEEDS.map(|seed| {
        let d = generate_fuzz_design(seed);
        (format!("fuzz_{}", seed), d.source, d.top)
    }));
    let mut swept = 0;
    for (i, (name, source, top)) in designs.iter().enumerate() {
        let table1 = i < 6;
        let Some(built) = build(source, top) else {
            assert!(!table1, "{}: every Table-1 design transforms", name);
            continue;
        };
        let rebuilt = build(source, top).expect("transforms again");
        for device in [Device::f1(), Device::de10()] {
            let at = format!("{} on {}", name, device.name);
            let [native, ff, synergy] = estimates(&built, &device);
            assert!(synergy.ffs >= native.ffs, "{}: Synergy FFs", at);
            if table1 {
                assert!(synergy.luts >= native.luts, "{}: Synergy LUTs", at);
            }
            assert_eq!(ff.bram_bits, 0, "{}: FF RAMs use no BRAM", at);
            assert!(
                ff.ffs >= native.ffs + native.bram_bits,
                "{}: FF RAM bits",
                at
            );
            for r in [native, ff, synergy] {
                assert!(r.achieved_hz <= device.max_clock_hz, "{}: clock", at);
            }
            let again = estimates(&rebuilt, &device);
            assert_eq!(again, [native, ff, synergy], "{}: deterministic", at);
            swept += 1;
        }
    }
    // The sweep reaches well past the Table-1 rows.
    assert!(swept > 2 * (6 + FUZZ_SEEDS.count() / 2), "{} pairs", swept);
}
