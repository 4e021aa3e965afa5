//! The CI `snapshot-compat` gate: wire-format compatibility against the
//! committed golden checkpoints, plus the live-migration ⇄ wire-format
//! differential the ISSUE's acceptance criteria name.
//!
//! The `*_regalloc.ckpt` goldens under `tests/golden/` are durable
//! checkpoints of every Table-1 workload on the compiled engine, and
//! `fleet_mixed.ckpt` is the fleet checkpoint of one mixed node, captured by
//! the shared recipes in `synergy_workloads::golden` and `synergy::golden`
//! (regenerate deliberately
//! with `cargo run -p synergy-workloads --example showseed -- golden
//! tests/golden`). Restoring them here — from bytes produced by an *older
//! build* — and comparing against a freshly fast-forwarded run catches any
//! drift in the wire format, the engines, or the workloads. A wire-format
//! version bump fails this gate with a typed `UnknownVersion` error until
//! the goldens are regenerated.
//!
//! Beside them sit **legacy fixtures** no current build can write: six
//! `*_stack.ckpt` tenants and one `fleet_legacy_tier.ckpt` fleet, captured
//! while the compiled engine still had a selectable stack tier. Their tier
//! bytes name an executor that no longer exists; they must keep restoring —
//! onto the single executor, bit-identically — for as long as wire-format
//! version 1 is accepted.

use synergy::golden::{golden_fleet, GOLDEN_FLEET_FILE, GOLDEN_FLEET_ROUND_DT};
use synergy::hv::SchedPolicy;
use synergy::snapshot::{crc32, SnapshotError, VERSION};
use synergy::workloads::golden::{
    golden_file_name, golden_matrix, golden_runtime, GOLDEN_RESUME_TICKS, GOLDEN_STREAM_LEN,
    GOLDEN_WARMUP_TICKS,
};
use synergy::workloads::{input_data, Benchmark};
use synergy::{
    BitstreamCache, CheckpointError, Cluster, Device, DomainId, EnginePolicy, ExecMode, Hypervisor,
    Runtime, Style,
};

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn golden_bytes(name: &str) -> Vec<u8> {
    let path = golden_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {:?} ({}); regenerate with \
             `cargo run -p synergy-workloads --example showseed -- golden tests/golden`",
            path, e
        )
    })
}

/// The golden recipe's program seated on every rung on its way to the
/// capture tick: software → compiled → hardware → compiled → software. How a
/// tenant came to sit on its engine must not show in its state. It ticks on
/// the software rungs only: what the fabric model computes is not yet
/// state-identical to software for every workload (adpcm and mips32
/// memories, ROADMAP item 1), which is not a property of how an engine is
/// seated.
fn walked_runtime(bench: &Benchmark) -> Runtime {
    let mut rt = Runtime::new(bench.name.clone(), &bench.source, &bench.top, &bench.clock).unwrap();
    if let Some(path) = &bench.input_path {
        rt.add_file(path.clone(), input_data(&bench.name, GOLDEN_STREAM_LEN));
    }
    rt.run_ticks(2).unwrap();
    rt.migrate_to_compiled().unwrap();
    rt.run_ticks(GOLDEN_WARMUP_TICKS / 2).unwrap();
    rt.migrate_to_hardware(&Device::f1(), &BitstreamCache::new())
        .unwrap();
    rt.migrate_to_compiled().unwrap();
    rt.run_ticks(GOLDEN_WARMUP_TICKS - GOLDEN_WARMUP_TICKS / 2)
        .unwrap();
    rt.migrate_to_software();
    rt
}

/// Every committed golden — current and legacy stack-tier alike — restores
/// onto the single compiled executor, and the resumed run is bit-identical to
/// a fresh run fast-forwarded to the same tick — and to one that was seated
/// on every rung on its way there.
#[test]
fn goldens_restore_bit_identically_to_fresh_runs() {
    for bench in golden_matrix() {
        let current = golden_file_name(&bench);
        let legacy = format!("{}_stack.ckpt", bench.name);
        let mut walked = walked_runtime(&bench);
        for file in [&current, &legacy] {
            let mut restored =
                Runtime::restore_checkpoint(&golden_bytes(file)).unwrap_or_else(|e| {
                    panic!(
                        "golden {} no longer decodes: {}; a deliberate format bump must \
                         regenerate the goldens",
                        file, e
                    )
                });
            assert_eq!(restored.mode(), ExecMode::Compiled);
            // Re-encoding writes the one tier byte a build can still write,
            // so a legacy tenant re-encodes to exactly its current twin.
            assert_eq!(
                restored.save_checkpoint(),
                golden_bytes(&current),
                "{}: re-encoded bytes differ from {}",
                file,
                current
            );

            // The uninterrupted reference: the exact golden recipe, never
            // serialized, fast-forwarded to the same tick.
            let mut fresh = golden_runtime(&bench).unwrap();
            assert_eq!(restored.ticks(), fresh.ticks());
            assert_eq!(
                restored.peek_state(),
                fresh.peek_state(),
                "{}: restored state differs at the capture tick",
                file
            );

            restored.run_ticks(GOLDEN_RESUME_TICKS).unwrap();
            fresh.run_ticks(GOLDEN_RESUME_TICKS).unwrap();
            assert_eq!(
                restored.peek_state(),
                fresh.peek_state(),
                "{}: resumed run diverges from the fast-forwarded fresh run",
                file
            );
            assert_eq!(restored.now_ns(), fresh.now_ns());
            assert_eq!(
                restored.env.output_text(),
                fresh.env.output_text(),
                "{}: output diverges",
                file
            );
            assert_eq!(
                restored.get_bits(&bench.metric_var).unwrap(),
                fresh.get_bits(&bench.metric_var).unwrap(),
            );

            // Seat-path independence, once per workload: built by
            // `with_policy`, rebuilt by `restore_checkpoint`, or walked along
            // the ladder, the tenant is in one state at the capture tick and
            // for 256 ticks after it.
            if file == &current {
                let mut restored = Runtime::restore_checkpoint(&golden_bytes(file)).unwrap();
                let mut fresh = golden_runtime(&bench).unwrap();
                assert_eq!(walked.ticks(), fresh.ticks());
                for step in 0..=4 {
                    assert_eq!(
                        walked.peek_state(),
                        fresh.peek_state(),
                        "{}: the walked tenant differs {} ticks past capture",
                        bench.name,
                        step * 64
                    );
                    assert_eq!(restored.peek_state(), fresh.peek_state());
                    for rt in [&mut walked, &mut restored, &mut fresh] {
                        rt.run_ticks(64).unwrap();
                    }
                }
                assert_eq!(walked.env.output_text(), fresh.env.output_text());
            }
        }
    }
}

/// The fleet `fleet_legacy_tier.ckpt` was captured from: two compiled
/// tenants on one F1 node after one round. The capturing build additionally
/// had the node's tier knob set to the stack tier (node-tier byte 1, tenant
/// tier bytes 0), which is the only thing this recipe cannot reproduce.
fn legacy_fleet_recipe() -> Hypervisor {
    let mut hv = Hypervisor::new(Device::f1());
    hv.set_engine_policy(EnginePolicy::Auto);
    hv.set_round_tick_cap(64);
    for (i, name) in ["bitcoin", "df"].iter().enumerate() {
        let bench = synergy::workloads::by_name(name).unwrap();
        let rt = Runtime::new(bench.name.clone(), &bench.source, &bench.top, &bench.clock).unwrap();
        hv.connect(rt, DomainId(1 + i as u64), false);
    }
    hv.run_round(0.0002).unwrap();
    hv
}

/// A fleet frame whose node and tenants name the retired stack tier still
/// restores, lands every tenant on the single executor in the state a fresh
/// fleet reaches, re-encodes to what a current build writes, and schedules
/// onward identically.
#[test]
fn legacy_tier_fleet_checkpoint_still_restores() {
    let bytes = golden_bytes("fleet_legacy_tier.ckpt");
    let mut recovered = Hypervisor::new(Device::f1());
    recovered.restore_fleet(&bytes).unwrap();
    let mut fresh = legacy_fleet_recipe();

    let apps = fresh.apps();
    assert_eq!(recovered.apps(), apps);
    for &app in &apps {
        let (r, f) = (recovered.app(app).unwrap(), fresh.app(app).unwrap());
        assert_eq!(r.mode(), ExecMode::Compiled);
        assert_eq!(r.peek_state(), f.peek_state());
        assert_eq!(r.now_ns(), f.now_ns());
    }
    assert_ne!(
        recovered.checkpoint_fleet(),
        bytes,
        "tier bytes are rewritten"
    );
    assert_eq!(recovered.checkpoint_fleet(), fresh.checkpoint_fleet());

    let s1 = recovered.run_round(0.0002).unwrap();
    let s2 = fresh.run_round(0.0002).unwrap();
    assert_eq!(s1, s2, "post-restore rounds are bit-identical");
    for &app in &apps {
        assert_eq!(
            recovered.app(app).unwrap().peek_state(),
            fresh.app(app).unwrap().peek_state()
        );
    }
}

/// `fleet_mixed.ckpt` — a deployed streaming tenant, a software tenant and
/// a counter on one F1 node, written by an older build — restores into the
/// fleet `golden_fleet` builds, re-encodes to its own bytes, and the resumed
/// fleet runs round for round like the fresh one.
#[test]
fn mixed_fleet_golden_resumes_like_a_fresh_fleet() {
    let bytes = golden_bytes(GOLDEN_FLEET_FILE);
    let mut restored = Hypervisor::new(Device::f1());
    let ids = restored.restore_fleet(&bytes).unwrap();
    let mut fresh = golden_fleet().unwrap();
    assert_eq!(ids, fresh.apps());
    let modes: Vec<ExecMode> = ids
        .iter()
        .map(|&id| restored.app(id).unwrap().mode())
        .collect();
    assert_eq!(
        modes,
        [
            ExecMode::Hardware("f1".into()),
            ExecMode::Compiled,
            ExecMode::Compiled
        ]
    );
    assert_eq!(
        restored.checkpoint_fleet(),
        bytes,
        "the restored fleet re-encodes to the golden"
    );

    for round in 0..=3 {
        for &id in &ids {
            let (r, f) = (restored.app(id).unwrap(), fresh.app(id).unwrap());
            assert_eq!(
                r.peek_state(),
                f.peek_state(),
                "{} round {}",
                r.name(),
                round
            );
            assert_eq!(r.now_ns(), f.now_ns());
            assert_eq!(r.env.output_text(), f.env.output_text());
        }
        let s1 = restored.run_round(GOLDEN_FLEET_ROUND_DT).unwrap();
        let s2 = fresh.run_round(GOLDEN_FLEET_ROUND_DT).unwrap();
        assert_eq!(s1, s2, "round {} after restore", round);
    }
    assert_eq!(restored.checkpoint_fleet(), fresh.checkpoint_fleet());
}

/// The gate demonstrably fails on a corrupted golden — with a typed error,
/// not a panic — and on a version bump.
#[test]
fn corrupted_and_version_bumped_goldens_are_rejected() {
    let bytes = golden_bytes(&golden_file_name(&golden_matrix()[0]));

    // Deliberate corruption: flip one payload bit.
    let mut corrupt = bytes.clone();
    corrupt[bytes.len() / 2] ^= 0x01;
    assert!(
        matches!(
            Runtime::restore_checkpoint(&corrupt),
            Err(CheckpointError::Decode(SnapshotError::Corrupt { .. }))
        ),
        "a corrupted golden must fail the gate with a typed CRC error"
    );

    // Truncation at several boundaries.
    for len in [0, 8, 16, bytes.len() - 1] {
        assert!(matches!(
            Runtime::restore_checkpoint(&bytes[..len]),
            Err(CheckpointError::Decode(
                SnapshotError::Truncated { .. } | SnapshotError::Corrupt { .. }
            ))
        ));
    }

    // A future format version is rejected by name, which is what forces a
    // deliberate golden regeneration after a bump. (Re-seal the CRC so the
    // version check, not the checksum, fires.)
    let mut future = bytes.clone();
    future[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
    let crc_at = future.len() - 4;
    let crc = crc32(&future[..crc_at]);
    future[crc_at..].copy_from_slice(&crc.to_le_bytes());
    assert!(matches!(
        Runtime::restore_checkpoint(&future),
        Err(CheckpointError::Decode(SnapshotError::UnknownVersion(v))) if v == VERSION + 1
    ));
}

/// `Cluster::live_migrate` (through the wire format) is bit-identical to
/// in-process migration on every Table-1 workload — the tenant rides the
/// compiled engine on the source node and lands on hardware on the target
/// node, exactly like `migrate`.
#[test]
fn live_migrate_matches_in_process_migration_on_all_workloads() {
    for bench in golden_matrix() {
        let build = || {
            let mut cluster = Cluster::new();
            cluster.set_engine_policy(EnginePolicy::Auto);
            // Parallel rounds on the source node: checkpoint/migration
            // correctness must be independent of the scheduling policy.
            cluster.set_sched_policy(SchedPolicy::Parallel { workers: 2 });
            let src = cluster.add_node(Device::de10());
            let dst = cluster.add_node(Device::f1());
            let mut rt =
                Runtime::new(bench.name.clone(), &bench.source, &bench.top, &bench.clock).unwrap();
            if let Some(path) = &bench.input_path {
                rt.add_file(
                    path.clone(),
                    synergy::workloads::input_data(&bench.name, 2048),
                );
            }
            rt.run_ticks(2).unwrap();
            let io_bound = bench.style == Style::Streaming;
            let app = cluster.node_mut(src).connect(rt, DomainId(1), io_bound);
            assert_eq!(
                cluster.node(src).app(app).unwrap().mode(),
                ExecMode::Compiled,
                "{}: tenant must ride the compiled engine before migration",
                bench.name
            );
            cluster.node_mut(src).run_round(0.0002).unwrap();
            (cluster, src, dst, app, io_bound)
        };

        let (mut in_proc, src_a, dst_a, app_a, io_bound) = build();
        let (mut wire, src_b, dst_b, app_b, _) = build();
        let (new_a, out_a) = in_proc
            .migrate(src_a, app_a, dst_a, DomainId(2), io_bound)
            .unwrap();
        let (new_b, out_b) = wire
            .live_migrate(src_b, app_b, dst_b, DomainId(2), io_bound)
            .unwrap();
        assert_eq!(out_a, out_b, "{}", bench.name);
        assert_eq!(
            in_proc.node(dst_a).app(new_a).unwrap().peek_state(),
            wire.node(dst_b).app(new_b).unwrap().peek_state(),
            "{}: post-migration snapshots differ",
            bench.name
        );

        // And the runs stay in lockstep on the target node.
        let stats_a = in_proc.node_mut(dst_a).run_round(0.0002).unwrap();
        let stats_b = wire.node_mut(dst_b).run_round(0.0002).unwrap();
        assert_eq!(stats_a, stats_b, "{}", bench.name);
        assert_eq!(
            in_proc.node(dst_a).app(new_a).unwrap().peek_state(),
            wire.node(dst_b).app(new_b).unwrap().peek_state(),
            "{}: post-round snapshots differ",
            bench.name
        );
        assert_eq!(
            in_proc.node(dst_a).app(new_a).unwrap().now_ns(),
            wire.node(dst_b).app(new_b).unwrap().now_ns(),
        );
    }
}

/// A fleet checkpoint written to disk restores in a "new process"
/// (byte-for-byte through the filesystem) with the scheduler state intact —
/// the crash-recovery flow.
#[test]
fn fleet_checkpoints_survive_the_filesystem() {
    use synergy::SynergyVm;

    let mut vm = SynergyVm::new();
    vm.set_stream_len(1024);
    vm.set_engine_policy(EnginePolicy::Auto);
    let node = vm.add_device(Device::f1());
    let a = vm.launch_benchmark(node, "bitcoin", false).unwrap();
    let b = vm.launch_benchmark(node, "regex", false).unwrap();
    vm.deploy(node, a).unwrap();
    vm.run_round(node, 0.0002).unwrap();

    let dir = std::env::temp_dir().join("synergy_fleet_ckpt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.ckpt");
    std::fs::write(&path, vm.cluster().node(node).checkpoint_fleet()).unwrap();

    let bytes = std::fs::read(&path).unwrap();
    let mut recovered = Hypervisor::new(Device::f1());
    recovered.restore_fleet(&bytes).unwrap();
    for app in [a, b] {
        assert_eq!(
            recovered.app(app).unwrap().peek_state(),
            vm.cluster().node(node).app(app).unwrap().peek_state(),
        );
    }
    let s1 = vm.run_round(node, 0.0002).unwrap();
    let s2 = recovered.run_round(0.0002).unwrap();
    assert_eq!(s1, s2, "post-recovery rounds are bit-identical");
    std::fs::remove_file(&path).ok();
}
