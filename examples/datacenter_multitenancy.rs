//! Multi-tenant FPGA sharing (the §4 / Figure 11 / Figure 12 scenario): several
//! mutually distrustful applications share one device through the SYNERGY
//! hypervisor and the AmorphOS protection layer, with spatial multiplexing for
//! batch jobs, time-slice scheduling for streaming jobs that contend on the IO
//! path, and the parallel scheduler: threads scoped to each round drain one
//! queue of tenant jobs across host cores.
//!
//! Run with: `cargo run --example datacenter_multitenancy`

use synergy::amorphos::{DomainId, Hull, Quiescence};
use synergy::{Device, EnginePolicy, SchedPolicy, SynergyVm};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut vm = SynergyVm::new();
    vm.set_stream_len(100_000);
    let f1 = vm.add_device(Device::f1());

    // Three tenants: two batch accelerators and one streaming matcher.
    let df = vm.launch_benchmark(f1, "df", false)?;
    let bitcoin = vm.launch_benchmark(f1, "bitcoin", false)?;
    let regex = vm.launch_benchmark(f1, "regex", false)?;

    for (name, app) in [("df", df), ("bitcoin", bitcoin), ("regex", regex)] {
        let outcome = vm.deploy(f1, app)?;
        println!(
            "deployed {:<8} engine={} cache_hit={} global_clock={} MHz",
            name,
            outcome.engine,
            outcome.cache_hit,
            outcome.global_clock_hz / 1_000_000
        );
    }

    // All three run concurrently on the same fabric; the hypervisor hides the
    // co-tenants from each instance.
    for round in 0..5 {
        let stats = vm.run_round(f1, 0.0001)?;
        let line: Vec<String> = stats
            .iter()
            .map(|s| format!("app{}={} ticks", s.app, s.ticks))
            .collect();
        println!("round {}: {}", round, line.join(", "));
    }
    println!("df ops:        {}", vm.read_var(f1, df, "ops_lo")?.to_u64());
    println!(
        "bitcoin work:  {}",
        vm.read_var(f1, bitcoin, "hashes_lo")?.to_u64()
    );
    println!(
        "regex reads:   {}",
        vm.read_var(f1, regex, "reads_lo")?.to_u64()
    );

    // Scale across host cores: a second node runs a software-resident fleet
    // (compiled engine via EnginePolicy::Auto) under the parallel scheduler.
    // Results are bit-identical to sequential scheduling — only the wall
    // clock changes — so this is a drop-in switch.
    vm.set_engine_policy(EnginePolicy::Auto);
    vm.set_sched_policy(SchedPolicy::Parallel { workers: 4 });
    let node2 = vm.add_device(Device::f1());
    let fleet: Vec<_> = (0..8)
        .map(|i| {
            let name = ["df", "bitcoin", "mips32", "adpcm"][i % 4];
            (name, vm.launch_benchmark(node2, name, false).unwrap())
        })
        .collect();
    for round in 0..3 {
        let stats = vm.run_round(node2, 0.0001)?;
        assert!(
            stats.iter().all(|s| s.ran && s.error.is_none()),
            "every tenant progresses each parallel round"
        );
        println!(
            "parallel round {}: {} tenants, {} total ticks (4 workers)",
            round,
            stats.len(),
            stats.iter().map(|s| s.ticks).sum::<u64>()
        );
    }
    for (name, app) in &fleet {
        assert!(vm.app(node2, *app)?.ticks() > 0, "{} ticked", name);
    }

    // The AmorphOS hull enforces protection between tenants: a domain cannot touch
    // another domain's Morphlet.
    let mut hull = Hull::new();
    let tenant_a = hull.register(DomainId(1), "tenant-a", Quiescence::Transparent);
    assert!(hull.check_access(DomainId(1), tenant_a).is_ok());
    assert!(hull.check_access(DomainId(2), tenant_a).is_err());
    println!("cross-domain access correctly rejected by the AmorphOS hull");
    Ok(())
}
