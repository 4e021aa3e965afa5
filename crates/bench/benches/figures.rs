//! Criterion benchmarks: one target per table/figure of the paper's evaluation.
//!
//! Each target times the corresponding experiment harness at smoke scale; the
//! `experiments` binary runs the same harnesses at paper scale and prints the
//! rows/series. Ablation targets cover the design choices called out in DESIGN.md
//! (sub-tick traps vs end-of-tick, quiescence, and the bitstream cache).

use criterion::{criterion_group, criterion_main, Criterion};
use synergy::fpga::{estimate, SynthOptions};
use synergy::transform::{transform, TransformOptions};
use synergy::{BitstreamCache, Device, Runtime};
use synergy_bench::{
    execution_overheads, fig10_migration, fig11_temporal, fig12_spatial, fig13_14_15_overheads,
    fig9_suspend_resume, quiescence_study, Scale,
};

/// Tentpole comparison: ticks/sec of the tree-walking interpreter versus the
/// compiled engine (levelized netlist + bytecode) on every Table-1 workload.
/// `BENCH_interp_vs_compiled.json` records the measured rates.
fn bench_interp_vs_compiled(c: &mut Criterion) {
    const TICKS: usize = 200;
    let mut group = c.benchmark_group("interp_vs_compiled");
    for bench in synergy_workloads::all() {
        let design = synergy::vlog::compile(&bench.source, &bench.top).unwrap();
        let input = bench.input_path.as_ref().map(|p| {
            (
                p.clone(),
                synergy_workloads::input_data(&bench.name, 4 * TICKS),
            )
        });
        group.bench_function(&format!("{}_interp", bench.name), |b| {
            b.iter(|| {
                let mut interp = synergy::interp::Interpreter::new(design.clone());
                let mut env = synergy::interp::BufferEnv::new();
                if let Some((path, data)) = &input {
                    env.add_file(path.clone(), data.clone());
                }
                for _ in 0..TICKS {
                    interp.tick(&bench.clock, &mut env).unwrap();
                }
            })
        });
        let prog = synergy::codegen::compile(&design).unwrap();
        group.bench_function(&format!("{}_compiled", bench.name), |b| {
            b.iter(|| {
                let mut sim = synergy::codegen::CompiledSim::new(prog.clone());
                let mut env = synergy::interp::BufferEnv::new();
                if let Some((path, data)) = &input {
                    env.add_file(path.clone(), data.clone());
                }
                for _ in 0..TICKS {
                    sim.tick(&bench.clock, &mut env).unwrap();
                }
            })
        });
    }
    group.finish();
}

/// Tentpole comparison (PR 4): ticks/sec of the stack-bytecode oracle
/// (`StackSim`) versus the compiled engine (`CompiledSim`, the
/// register-allocated word machine) on every Table-1 workload. Simulators
/// are translated once and cloned per invocation so the timed region is
/// steady-state ticking, not compilation.
/// `BENCH_interp_vs_compiled.json` records the measured rates and the
/// per-workload `regalloc_over_stack` ratios the `regress` gate enforces.
fn bench_compiled_vs_regalloc(c: &mut Criterion) {
    const TICKS: usize = 200;
    let mut group = c.benchmark_group("compiled_vs_regalloc");
    for bench in synergy_workloads::all() {
        let design = synergy::vlog::compile(&bench.source, &bench.top).unwrap();
        let prog = synergy::codegen::compile(&design).unwrap();
        let env = || {
            let mut env = synergy::interp::BufferEnv::new();
            if let Some(path) = &bench.input_path {
                env.add_file(
                    path.clone(),
                    synergy_workloads::input_data(&bench.name, 4 * TICKS),
                );
            }
            env
        };
        let stack = synergy::codegen::StackSim::new(prog.clone());
        group.bench_function(&format!("{}_stack", bench.name), |b| {
            b.iter(|| {
                let (mut sim, mut env) = (stack.clone(), env());
                for _ in 0..TICKS {
                    sim.tick(&bench.clock, &mut env).unwrap();
                }
            })
        });
        let word = synergy::codegen::CompiledSim::new(prog);
        group.bench_function(&format!("{}_regalloc", bench.name), |b| {
            b.iter(|| {
                let (mut sim, mut env) = (word.clone(), env());
                for _ in 0..TICKS {
                    sim.tick(&bench.clock, &mut env).unwrap();
                }
            })
        });
    }
    group.finish();
}

fn bench_fig9_suspend_resume(c: &mut Criterion) {
    c.bench_function("fig9_suspend_resume", |b| {
        b.iter(|| fig9_suspend_resume(Scale::Smoke))
    });
}

fn bench_fig10_migration(c: &mut Criterion) {
    c.bench_function("fig10_migration", |b| {
        b.iter(|| fig10_migration(Scale::Smoke))
    });
}

fn bench_fig11_temporal(c: &mut Criterion) {
    c.bench_function("fig11_temporal_multiplexing", |b| {
        b.iter(|| fig11_temporal(Scale::Smoke))
    });
}

fn bench_fig12_spatial(c: &mut Criterion) {
    c.bench_function("fig12_spatial_multiplexing", |b| {
        b.iter(|| fig12_spatial(Scale::Smoke))
    });
}

fn bench_fig13_14_15(c: &mut Criterion) {
    c.bench_function("fig13_14_15_fabric_overheads", |b| {
        b.iter(fig13_14_15_overheads)
    });
}

fn bench_quiescence(c: &mut Criterion) {
    c.bench_function("sec6_3_quiescence_study", |b| b.iter(quiescence_study));
}

fn bench_overheads(c: &mut Criterion) {
    c.bench_function("sec6_4_execution_overheads", |b| {
        b.iter(|| execution_overheads(Scale::Smoke))
    });
}

/// Ablation: the cost of the full SYNERGY transformation versus the Cascade
/// baseline (end-of-tick traps only) for the motivating file-IO workload.
fn bench_ablation_tick_granularity(c: &mut Criterion) {
    let bench = synergy_workloads::regex();
    let design = synergy::vlog::compile(&bench.source, &bench.top).unwrap();
    let mut group = c.benchmark_group("ablation_tick_granularity");
    group.bench_function("synergy_sub_tick", |b| {
        b.iter(|| transform(&design, TransformOptions::default()).unwrap())
    });
    group.bench_function("cascade_end_of_tick", |b| {
        b.iter(|| {
            transform(
                &design,
                TransformOptions {
                    strip_tasks: true,
                    ..Default::default()
                },
            )
            .unwrap()
        })
    });
    group.finish();
}

/// Ablation: quiescence annotations versus transparent full-state capture in the
/// synthesis estimator.
fn bench_ablation_quiescence(c: &mut Criterion) {
    let device = Device::f1();
    let bench = synergy_workloads::mips32();
    let full = synergy::vlog::compile(&bench.source, &bench.top).unwrap();
    let quiet = synergy::vlog::compile(&bench.quiescent_source, &bench.top).unwrap();
    let full_t = transform(&full, TransformOptions::default()).unwrap();
    let quiet_t = transform(&quiet, TransformOptions::default()).unwrap();
    let mut group = c.benchmark_group("ablation_quiescence");
    group.bench_function("transparent_capture", |b| {
        b.iter(|| {
            estimate(
                &full_t.elab,
                &device,
                SynthOptions::synergy(&device, full_t.state.captured_bits() as u64, 8),
            )
        })
    });
    group.bench_function("quiescence_annotations", |b| {
        b.iter(|| {
            estimate(
                &quiet_t.elab,
                &device,
                SynthOptions::synergy(&device, quiet_t.state.captured_bits() as u64, 3),
            )
        })
    });
    group.finish();
}

/// Ablation: bitstream-cache hit versus miss on the hardware migration path.
fn bench_ablation_bitstream_cache(c: &mut Criterion) {
    let bench = synergy_workloads::bitcoin();
    let mut group = c.benchmark_group("ablation_bitstream_cache");
    group.bench_function("cache_miss", |b| {
        b.iter(|| {
            let cache = BitstreamCache::new();
            let mut rt = Runtime::new("bitcoin", &bench.source, &bench.top, &bench.clock).unwrap();
            rt.migrate_to_hardware(&Device::f1(), &cache).unwrap()
        })
    });
    let warm = BitstreamCache::new();
    {
        let mut rt = Runtime::new("bitcoin", &bench.source, &bench.top, &bench.clock).unwrap();
        rt.migrate_to_hardware(&Device::f1(), &warm).unwrap();
    }
    group.bench_function("cache_hit", |b| {
        b.iter(|| {
            let mut rt = Runtime::new("bitcoin", &bench.source, &bench.top, &bench.clock).unwrap();
            rt.migrate_to_hardware(&Device::f1(), &warm).unwrap()
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = figures;
    config = config();
    targets =
        bench_interp_vs_compiled,
        bench_compiled_vs_regalloc,
        bench_fig9_suspend_resume,
        bench_fig10_migration,
        bench_fig11_temporal,
        bench_fig12_spatial,
        bench_fig13_14_15,
        bench_quiescence,
        bench_overheads,
        bench_ablation_tick_granularity,
        bench_ablation_quiescence,
        bench_ablation_bitstream_cache
}
criterion_main!(figures);
