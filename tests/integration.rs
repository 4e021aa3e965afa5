//! Cross-crate integration tests: the full SYNERGY pipeline from Verilog source to
//! virtualized execution on the simulated data-center substrate.

use synergy::transform::{transform, TransformOptions};
use synergy::workloads;
use synergy::{BitstreamCache, Device, DomainId, ExecMode, Runtime, SynergyVm};

/// Every Table-1 benchmark runs the whole pipeline (parse → elaborate → transform →
/// hardware execution) and produces the same architectural state as pure software
/// interpretation.
#[test]
fn hardware_execution_matches_software_for_every_benchmark() {
    for bench in workloads::all() {
        let ticks = 40u64;
        // Software reference.
        let mut sw = Runtime::new(
            format!("{}-sw", bench.name),
            &bench.source,
            &bench.top,
            &bench.clock,
        )
        .unwrap();
        // Hardware run.
        let mut hw = Runtime::new(
            format!("{}-hw", bench.name),
            &bench.source,
            &bench.top,
            &bench.clock,
        )
        .unwrap();
        if let Some(path) = &bench.input_path {
            let data = workloads::input_data(&bench.name, 4 * ticks as usize);
            sw.add_file(path.clone(), data.clone());
            hw.add_file(path.clone(), data);
        }
        sw.run_ticks(2).unwrap();
        hw.run_ticks(2).unwrap();
        let cache = BitstreamCache::new();
        hw.migrate_to_hardware(&Device::f1(), &cache).unwrap();

        sw.run_ticks(ticks).unwrap();
        hw.run_ticks(ticks).unwrap();

        let sw_metric = sw.get_bits(&bench.metric_var).unwrap().to_u64();
        let hw_metric = hw.get_bits(&bench.metric_var).unwrap().to_u64();
        assert_eq!(
            sw_metric, hw_metric,
            "{}: hardware and software progress must match after {} ticks",
            bench.name, ticks
        );
        assert!(sw_metric > 0, "{}: benchmark made no progress", bench.name);
    }
}

/// The suspend/resume/migrate loop preserves program semantics across device types
/// and engine kinds (software ↔ DE10 ↔ F1).
#[test]
fn state_round_trips_across_engines_and_devices() {
    let bench = workloads::mips32();
    let cache = BitstreamCache::new();
    let mut rt = Runtime::new("mips", &bench.source, &bench.top, &bench.clock).unwrap();
    rt.run_ticks(50).unwrap();
    rt.migrate_to_hardware(&Device::de10(), &cache).unwrap();
    rt.run_ticks(100).unwrap();
    let snapshot = rt.save("mid");
    let instret_at_save = rt.get_bits("instret_lo").unwrap().to_u64();

    // Resume the snapshot on F1 and in software; both continue identically for the
    // next 25 ticks.
    let mut on_f1 = Runtime::new("mips-f1", &bench.source, &bench.top, &bench.clock).unwrap();
    on_f1.migrate_to_hardware(&Device::f1(), &cache).unwrap();
    on_f1.restore(&snapshot);
    let mut in_sw = Runtime::new("mips-sw", &bench.source, &bench.top, &bench.clock).unwrap();
    in_sw.restore(&snapshot);

    assert_eq!(
        on_f1.get_bits("instret_lo").unwrap().to_u64(),
        instret_at_save
    );
    on_f1.run_ticks(25).unwrap();
    in_sw.run_ticks(25).unwrap();
    assert_eq!(
        on_f1.get_bits("instret_lo").unwrap().to_u64(),
        in_sw.get_bits("instret_lo").unwrap().to_u64()
    );
    assert_eq!(
        on_f1.get_bits("phase").unwrap().to_u64(),
        in_sw.get_bits("phase").unwrap().to_u64()
    );
}

/// The hypervisor multiplexes multiple tenants on one device while each program
/// keeps making progress and the protection layer keeps them apart.
#[test]
fn multi_tenant_deployment_over_the_facade() {
    let mut vm = SynergyVm::new();
    vm.set_stream_len(50_000);
    let node = vm.add_device(Device::f1());
    let df = vm.launch_benchmark(node, "df", false).unwrap();
    let bitcoin = vm.launch_benchmark(node, "bitcoin", false).unwrap();
    vm.deploy(node, df).unwrap();
    let outcome = vm.deploy(node, bitcoin).unwrap();
    assert!(outcome.engine > 0);

    for _ in 0..3 {
        vm.run_round(node, 0.0001).unwrap();
    }
    assert!(vm.metric(node, df).unwrap() > 0);
    assert!(vm.metric(node, bitcoin).unwrap() > 0);
    assert_eq!(
        vm.app(node, df).unwrap().mode(),
        ExecMode::Hardware("f1".into())
    );
    // Both transformed sub-programs are present in the coalesced monolithic design.
    let mono = vm.cluster().node(node).monolithic_source();
    assert!(mono.contains("Df__synergy"));
    assert!(mono.contains("Bitcoin__synergy"));
}

/// Workload migration through the cluster API: progress carries over and the
/// bitstream cache is shared between nodes.
#[test]
fn cluster_migration_preserves_benchmark_progress() {
    let mut vm = SynergyVm::new();
    let de10 = vm.add_device(Device::de10());
    let f1 = vm.add_device(Device::f1());
    let app = vm.launch_benchmark(de10, "bitcoin", false).unwrap();
    vm.deploy(de10, app).unwrap();
    vm.run_round(de10, 0.0002).unwrap();
    let before = vm.metric(de10, app).unwrap();
    assert!(before > 0);

    let (app, _) = vm.migrate(de10, app, f1).unwrap();
    assert_eq!(vm.metric(f1, app).unwrap(), before);
    vm.run_round(f1, 0.0002).unwrap();
    assert!(vm.metric(f1, app).unwrap() > before);
}

/// The quiescent variants of every benchmark still execute correctly and surface
/// yield events to the runtime.
#[test]
fn quiescent_variants_execute_and_yield() {
    for bench in workloads::all() {
        let mut rt = Runtime::new(
            format!("{}-q", bench.name),
            &bench.quiescent_source,
            &bench.top,
            &bench.clock,
        )
        .unwrap();
        if let Some(path) = &bench.input_path {
            rt.add_file(path.clone(), workloads::input_data(&bench.name, 256));
        }
        let (_, events) = rt.run_ticks(20).unwrap();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, synergy::RuntimeEvent::Yielded)),
            "{}: quiescent variant should raise yield events",
            bench.name
        );
    }
}

/// The transformation is stable: transforming the emitted module again still
/// produces a valid, executable design (the nesting property the hypervisor relies
/// on when it re-coalesces programs).
#[test]
fn transformed_output_is_itself_a_valid_program() {
    let bench = workloads::regex();
    let design = synergy::vlog::compile(&bench.source, &bench.top).unwrap();
    let first = transform(&design, TransformOptions::default()).unwrap();
    // The generated module parses, elaborates, and can be interpreted directly.
    let reparsed = synergy::vlog::compile(&first.source, first.name()).unwrap();
    let mut interp = synergy::interp::Interpreter::new(reparsed);
    let mut env = synergy::interp::BufferEnv::new();
    for _ in 0..10 {
        interp.tick("__clk", &mut env).unwrap();
    }
    assert!(interp.get_bits("__state").is_ok());
}

/// Protection domains are enforced end to end: the hull rejects cross-domain
/// access even when both tenants share the same fabric.
#[test]
fn protection_domains_are_enforced() {
    use synergy::amorphos::{Hull, Quiescence};
    use synergy::fpga::{Bitstream, Fabric, SynthOptions};
    let device = Device::f1();
    let design = synergy::vlog::compile(&workloads::df().source, "Df").unwrap();
    let report = synergy::fpga::estimate(&design, &device, SynthOptions::native(&device));
    let mut fabric = Fabric::new(device.clone());
    let mut hull = Hull::new();
    let mut admit = |name: &str, domain: DomainId| {
        let bitstream = Bitstream {
            id: 0,
            module_name: "Df".into(),
            device_name: device.name.clone(),
            report,
        };
        fabric.load(name, bitstream).unwrap();
        hull.register(domain, name, Quiescence::Transparent)
    };
    let a = admit("a", DomainId(10));
    let b = admit("b", DomainId(20));
    assert_eq!(fabric.utilization().luts, 2 * report.luts);
    assert!(hull.check_access(DomainId(10), a).is_ok());
    assert!(hull.check_access(DomainId(20), b).is_ok());
    assert!(hull.check_access(DomainId(10), b).is_err());
    assert!(hull.check_access(DomainId(20), a).is_err());
}
