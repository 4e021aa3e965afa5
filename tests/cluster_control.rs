//! Cluster control-plane chaos tests: the crash-recovery convergence
//! differential, the env-scaled seeded fault-plan sweep (zero tenant loss),
//! and property tests that a corrupted or truncated fleet checkpoint can
//! never panic the restore path.
//!
//! The convergence contract under test: a fleet that crashes and recovers
//! through the checkpoint ring + journal replay must end bit-identical (per
//! tenant, register-for-register) to a fleet that never crashed, under
//! either scheduling policy. `SYNERGY_CHAOS_PLANS=<n>` widens the seeded
//! sweep (CI runs 256 plans on every PR and 2048 nightly; the default is a
//! fast smoke handful plus the three double-kill seeds).

use proptest::prelude::*;
use std::collections::BTreeMap;
use synergy::interp::Value;
use synergy::{
    BitstreamCache, ControlConfig, ControlPlane, Device, FaultPlan, Hypervisor, SchedPolicy,
    TenantSpec,
};

const COUNTER: &str = r#"
    module Counter(input wire clock, output wire [31:0] out);
        reg [31:0] count = 0;
        always @(posedge clock) count <= count + 1;
        assign out = count;
    endmodule
"#;

fn spec(i: usize) -> TenantSpec {
    TenantSpec {
        name: format!("tenant-{:03}", i),
        source: COUNTER.to_string(),
        top: "Counter".to_string(),
        clock: "clock".to_string(),
        domain: i as u64 + 1,
        io_bound: false,
    }
}

/// Drives a small fleet through a fixed churn schedule: admissions spread
/// over the first rounds, two departures mid-run. Returns the plane after
/// `rounds` control rounds plus the names expected alive at the end.
fn run_fleet(sched: SchedPolicy, plan: FaultPlan, rounds: u64) -> (ControlPlane, Vec<String>) {
    let mut cp = ControlPlane::new(ControlConfig {
        software_capacity: Some(8),
        checkpoint_interval: 3,
        ..ControlConfig::default()
    });
    cp.set_sched_policy(sched);
    cp.add_node(Device::de10());
    cp.add_node(Device::de10());
    cp.add_node(Device::f1());
    cp.set_fault_plan(plan);

    let mut alive: Vec<String> = Vec::new();
    for round in 0..rounds {
        if round < 5 {
            for i in 0..2 {
                let s = spec((round * 2 + i) as usize);
                alive.push(s.name.clone());
                cp.admit(s).expect("admission with headroom");
            }
        }
        if round == 6 {
            for name in ["tenant-001", "tenant-004"] {
                alive.retain(|n| n != name);
                cp.depart(name).expect("departing a live tenant");
            }
        }
        cp.step().expect("control round");
    }
    (cp, alive)
}

/// Per-tenant register state, name-keyed. Compares `.values` only: snapshot
/// `time` is virtual nanoseconds and legitimately differs across engine
/// placements; register values are determined by rounds lived alone.
fn states(cp: &ControlPlane, names: &[String]) -> BTreeMap<String, BTreeMap<String, Value>> {
    names
        .iter()
        .map(|n| {
            let snap = cp
                .tenant_state(n)
                .unwrap_or_else(|| panic!("tenant {} must be alive", n));
            (n.clone(), snap.values)
        })
        .collect()
}

fn assert_no_loss(cp: &ControlPlane, expected: &[String]) {
    assert!(
        cp.lost_tenants().is_empty(),
        "loss ledger must stay empty, got {:?}",
        cp.lost_tenants()
    );
    let present: Vec<String> = cp.tenants().into_iter().map(|t| t.name).collect();
    for name in expected {
        assert!(
            present.contains(name),
            "tenant {} silently lost (present: {:?})",
            name,
            present
        );
    }
    assert_eq!(present.len(), expected.len(), "no surplus tenants either");
}

/// The pinned chaos differential: recovery via the checkpoint ring converges
/// to the never-crashed fleet — under both scheduling policies, which must
/// also agree with each other. Two plans: one kill, and seed 19's shape, two
/// different nodes killed at one boundary, so one survivor takes in both
/// dead nodes' tenants and ends past the admission capacity.
#[test]
fn crashed_fleet_converges_to_never_crashed_fleet_under_both_policies() {
    use synergy::FaultKind::{FailMigration, KillNode};
    let mut single_kill = FaultPlan::none();
    single_kill.push(7, KillNode(0));
    let mut double_kill = FaultPlan::none();
    double_kill.push(5, FailMigration);
    double_kill.push(8, KillNode(2));
    double_kill.push(8, KillNode(1));

    let mut reference_states = None;
    for sched in [
        SchedPolicy::Sequential,
        SchedPolicy::Parallel { workers: 4 },
    ] {
        let (reference, expected) = run_fleet(sched, FaultPlan::none(), 12);
        assert_no_loss(&reference, &expected);
        let ref_states = states(&reference, &expected);
        for plan in [&single_kill, &double_kill] {
            let (chaos, chaos_expected) = run_fleet(sched, plan.clone(), 12);
            assert_eq!(expected, chaos_expected);
            assert_eq!(
                chaos.recoveries().len(),
                1,
                "the kills must trigger one recovery"
            );
            assert_no_loss(&chaos, &expected);
            assert_eq!(
                ref_states,
                states(&chaos, &expected),
                "recovered fleet must be bit-identical to the never-crashed fleet \
                 ({:?}, faults {:?})",
                sched,
                plan.events()
            );
        }
        // Scheduling policy may not leak into tenant state either: both
        // policies' reference fleets agree register-for-register.
        match &reference_states {
            None => reference_states = Some(ref_states),
            Some(prev) => assert_eq!(
                prev, &ref_states,
                "SchedPolicy must not change tenant state"
            ),
        }
    }
}

/// The env-scaled chaos sweep: every seeded fault plan (node kills, failed
/// migrations, corrupted checkpoints) must end with zero tenant loss and
/// states bit-identical to the fault-free reference. Seeds 19, 47 and 196
/// (each kills two different nodes at one boundary) always run; CI sets
/// `SYNERGY_CHAOS_PLANS=256` on every PR and 2048 nightly.
#[test]
fn seeded_chaos_sweep_never_loses_a_tenant() {
    const DOUBLE_KILLS: [u64; 3] = [19, 47, 196];
    let plans: u64 = std::env::var("SYNERGY_CHAOS_PLANS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let rounds = 12;
    let (reference, expected) = run_fleet(SchedPolicy::Sequential, FaultPlan::none(), rounds);
    let reference_states = states(&reference, &expected);

    let extra = DOUBLE_KILLS.into_iter().filter(|&seed| seed >= plans);
    for seed in (0..plans).chain(extra) {
        let plan = FaultPlan::seeded(seed, rounds, 3);
        let faults = format!("{:?}", plan.events());
        let (chaos, chaos_expected) = run_fleet(SchedPolicy::Sequential, plan, rounds);
        assert_eq!(expected, chaos_expected);
        assert_no_loss(&chaos, &expected);
        assert_eq!(
            reference_states,
            states(&chaos, &expected),
            "seed {} (faults {}) must converge to the fault-free fleet",
            seed,
            faults
        );
    }
}

/// A clean fleet checkpoint taken mid-churn restores bit-identically into a
/// fresh hypervisor (the invariant coordinated recovery leans on).
#[test]
fn clean_mid_churn_fleet_checkpoint_restores_bit_identically() {
    let cache = BitstreamCache::new();
    let mut hv = Hypervisor::with_cache(Device::de10(), cache.clone());
    for i in 0..3 {
        let s = spec(i);
        let rt = synergy::Runtime::new(s.name, &s.source, &s.top, &s.clock).unwrap();
        let app = hv.connect(rt, synergy::DomainId(s.domain), s.io_bound);
        let _ = hv.deploy(app);
        // Stagger connects across rounds so tenants are mid-flight at
        // different ages when the checkpoint is cut.
        hv.run_round(0.001).unwrap();
    }
    let bytes = hv.checkpoint_fleet();
    let mut restored = Hypervisor::with_cache(Device::de10(), cache);
    let ids = restored.restore_fleet(&bytes).unwrap();
    assert_eq!(ids, hv.apps());
    for app in hv.apps() {
        assert_eq!(
            restored.app(app).unwrap().peek_state(),
            hv.app(app).unwrap().peek_state(),
            "tenant {} must restore bit-identically",
            app.0
        );
    }
}

/// Builds the checkpoint bytes once: compiling tenants per proptest case
/// would dominate the suite's runtime.
fn fleet_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let mut hv = Hypervisor::new(Device::de10());
        for i in 0..2 {
            let s = spec(i);
            let rt = synergy::Runtime::new(s.name, &s.source, &s.top, &s.clock).unwrap();
            let app = hv.connect(rt, synergy::DomainId(s.domain), s.io_bound);
            let _ = hv.deploy(app);
        }
        hv.run_round(0.001).unwrap();
        hv.checkpoint_fleet()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flipping any byte of a fleet checkpoint yields a typed error (or, for
    /// flips the CRC provably cannot miss inside the payload, never a panic
    /// and never a half-restored hypervisor).
    #[test]
    fn corrupted_fleet_checkpoint_never_panics(pos in 0usize..10_000, mask in 1usize..256) {
        let mut bytes = fleet_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= mask as u8;
        let mut hv = Hypervisor::new(Device::de10());
        if hv.restore_fleet(&bytes).is_err() {
            prop_assert!(hv.apps().is_empty(), "a failed restore must not leave tenants behind");
        }
    }

    /// Truncating a fleet checkpoint at any point yields a typed error, never
    /// a panic, and never a half-restored hypervisor.
    #[test]
    fn truncated_fleet_checkpoint_never_panics(cut in 0usize..10_000) {
        let bytes = fleet_bytes();
        let cut = cut % bytes.len();
        let mut hv = Hypervisor::new(Device::de10());
        let result = hv.restore_fleet(&bytes[..cut]);
        prop_assert!(result.is_err(), "a truncated frame must be rejected");
        prop_assert!(hv.apps().is_empty(), "a failed restore must not leave tenants behind");
    }
}
