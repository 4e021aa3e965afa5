//! The optimizer reads nothing from the environment.
//!
//! The three retired switches are set to the values that used to turn the
//! pipeline off, select one pass, and disable if-conversion; the pipeline
//! must run in full regardless. One test, one file: a test binary is its own
//! process, so `set_var` here races no other test.

use synergy::opt::{optimize, optimize_with_passes, PASS_NAMES};
use synergy::telemetry::Namespace;
use synergy::{EnginePolicy, Runtime};

#[test]
fn retired_switches_do_not_reach_the_optimizer() {
    std::env::set_var("SYNERGY_OPT", "0");
    std::env::set_var("SYNERGY_OPT_PASSES", "dce");
    std::env::set_var("SYNERGY_OPT_IFCONVERT_MAX", "0");

    let bench = synergy::workloads::by_name("bitcoin").unwrap();
    let design = synergy::vlog::compile(&bench.source, &bench.top).unwrap();
    let lowered = synergy::codegen::compile(&design).unwrap();

    let mut by_default = lowered.clone();
    let report = optimize(&mut by_default);
    let ran: Vec<&str> = report.passes.iter().map(|p| p.name).collect();
    assert_eq!(ran, PASS_NAMES);

    let mut by_name = lowered.clone();
    optimize_with_passes(&mut by_name, &PASS_NAMES);
    let removed = (lowered.op_count() - by_name.op_count()) as u64;
    assert!(removed > 0, "the full pipeline shrinks bitcoin");
    assert_eq!(by_default.op_count(), by_name.op_count());

    // The same holds for the one place a `Runtime` optimizes.
    synergy::telemetry::set_enabled(true);
    let rt = Runtime::with_policy(
        "bitcoin",
        &bench.source,
        &bench.top,
        &bench.clock,
        EnginePolicy::Auto,
    )
    .unwrap();
    assert_eq!(
        rt.metrics()
            .counter_value(Namespace::Det, "opt_ops_removed_total", &[]),
        removed
    );
}
