//! The fleet golden: a hypervisor node whose `checkpoint_fleet` is
//! committed as `tests/golden/fleet_mixed.ckpt`, pinning the fleet frame's
//! bytes — nested tenant frames included — the way the per-workload goldens
//! of [`synergy_workloads::golden`] pin the runtime frame's.
//!
//! It lives in the facade because it is a node, not a workload: the
//! generator (`cargo run -p synergy-workloads --example showseed -- golden
//! tests/golden`) and the compat test (`tests/snapshot_compat.rs`) both call
//! [`golden_fleet`], so the gate's fresh reference is byte-for-byte the fleet
//! the golden was captured from.

use crate::{Device, DomainId, EnginePolicy, Hypervisor, Runtime};
use synergy_hv::HvError;
use synergy_workloads::golden::GOLDEN_STREAM_LEN;
use synergy_workloads::{bitcoin, input_data, regex};

/// File name of the fleet golden.
pub const GOLDEN_FLEET_FILE: &str = "fleet_mixed.ckpt";

/// Round tick cap of the fleet golden's node.
pub const GOLDEN_FLEET_TICK_CAP: u64 = 64;

/// Simulated seconds each scheduling round of the fleet golden is given.
pub const GOLDEN_FLEET_ROUND_DT: f64 = 0.0002;

/// The fleet golden's third tenant: a free-running counter.
const GOLDEN_COUNTER: &str = r#"module Counter(input wire clock, output wire [31:0] out);
    reg [31:0] count = 0;
    always @(posedge clock) count <= count + 1;
    assign out = count;
endmodule"#;

/// Deterministically constructs the node [`GOLDEN_FLEET_FILE`] is the fleet
/// checkpoint of: one F1 node under [`EnginePolicy::Auto`] at tick cap
/// [`GOLDEN_FLEET_TICK_CAP`], holding regex deployed on the fabric (its
/// stream opened by two software ticks first), bitcoin resident in
/// software, and a counter, after one round of [`GOLDEN_FLEET_ROUND_DT`].
///
/// # Errors
///
/// Propagates build, deploy and round errors (each a regression here).
pub fn golden_fleet() -> Result<Hypervisor, HvError> {
    let mut hv = Hypervisor::new(Device::f1());
    hv.set_engine_policy(EnginePolicy::Auto);
    hv.set_round_tick_cap(GOLDEN_FLEET_TICK_CAP);

    let stream = regex();
    let mut rt = Runtime::new(
        stream.name.clone(),
        &stream.source,
        &stream.top,
        &stream.clock,
    )?;
    if let Some(path) = &stream.input_path {
        rt.add_file(path.clone(), input_data(&stream.name, GOLDEN_STREAM_LEN));
    }
    rt.run_ticks(2)?;
    let deployed = hv.connect(rt, DomainId(1), true);
    hv.deploy(deployed)?;

    let software = bitcoin();
    let rt = Runtime::new(
        software.name.clone(),
        &software.source,
        &software.top,
        &software.clock,
    )?;
    hv.connect(rt, DomainId(2), false);

    let rt = Runtime::new("counter", GOLDEN_COUNTER, "Counter", "clock")?;
    hv.connect(rt, DomainId(3), false);

    hv.run_round(GOLDEN_FLEET_ROUND_DT)?;
    Ok(hv)
}
