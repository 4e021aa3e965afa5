//! Per-layer probes of the traced run: each times calls into one crate's
//! public functions in isolation, on the same generated inputs the stages
//! use. The layer is the crate; `<d>` in a metric name is a Table-1 design.
//! `README.md` says which end-to-end metric each of these should move.

use crate::inputs::{fuzz_source, Inputs, Source, FUZZ_BASE, FUZZ_WINDOW};
use crate::metrics::MetricSet;
use crate::stats::{geomean, median};
use std::hint::black_box;
use std::time::Instant;
use synergy::codegen::{CompiledProgram, CompiledSim};
use synergy::fpga::{estimate, BitstreamCache};
use synergy::interp::Interpreter;
use synergy::snapshot::{crc32, decode_frame_of, Reader, Writer, KIND_RUNTIME};
use synergy::telemetry::{self, MetricValue, Namespace};
use synergy::{
    transform_design, Device, DomainId, EnginePolicy, Hypervisor, Runtime, SchedPolicy,
    SynthOptions, TransformOptions,
};

fn us(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

/// The whole fuzz window (the admission stage uses the first 58 of the 250).
fn fuzz_window() -> Vec<Source> {
    (FUZZ_BASE..FUZZ_BASE + FUZZ_WINDOW)
        .map(|seed| fuzz_source(seed).expect("the generator only makes valid designs"))
        .collect()
}

/// The optimised program the compiled engine would run for `design`.
fn optimised(p: &Source) -> CompiledProgram {
    let design = synergy::vlog::compile(&p.text, &p.top).expect("set-up compiled this source");
    let mut prog = synergy::codegen::compile(&design).expect("set-up lowered this source");
    synergy::opt::optimize(&mut prog);
    prog
}

/// Nanoseconds per bare `CompiledSim::tick_net`, after `warm` untimed ticks.
fn bare_tick_ns(p: &Source, warm: u32, ticks: u32) -> f64 {
    let mut sim = CompiledSim::new(optimised(p));
    let mut env = p.env();
    let clock = sim.net_id(&p.clock).expect("clock is a net");
    for _ in 0..warm {
        sim.tick_net(clock, &mut env).expect("tick");
    }
    let start = Instant::now();
    for _ in 0..ticks {
        sim.tick_net(clock, &mut env).expect("tick");
    }
    black_box(sim.time());
    start.elapsed().as_nanos() as f64 / ticks as f64
}

/// vlog, codegen, opt, transform, fpga and `Runtime::with_policy`, one call
/// at a time over the six Table-1 designs and the 250 fuzz designs:
/// where an admission's host time goes.
fn compile_path(inp: &Inputs, fuzz: &[Source], m: &mut MetricSet) {
    let (mut lex, mut parse, mut elab) = (vec![], vec![], vec![]);
    let (mut lower, mut opt, mut construct, mut admit) = (vec![], vec![], vec![], vec![]);
    let (mut xform, mut synth) = (vec![], vec![]);
    let (mut src_bytes, mut front_us) = (0usize, 0.0);
    let (mut ir_ops, mut ir_ops_opt, mut word_ops, mut rewrites) = (0usize, 0usize, 0usize, 0u64);
    let (mut states, mut unsupported) = (0usize, 0usize);
    let device = Device::f1();
    for p in inp.table1.iter().chain(fuzz) {
        let t = Instant::now();
        let tokens = synergy::vlog::lexer::lex(&p.text).expect("lex");
        lex.push(us(t));
        let t = Instant::now();
        let file = synergy::vlog::parser::parse_tokens(&tokens).expect("parse");
        parse.push(us(t));
        let t = Instant::now();
        let design = synergy::vlog::elaborate::elaborate(&file, &p.top).expect("elaborate");
        elab.push(us(t));
        src_bytes += p.text.len();
        front_us += lex.last().unwrap() + parse.last().unwrap() + elab.last().unwrap();

        let t = Instant::now();
        let prog = synergy::codegen::compile(&design).expect("lower");
        lower.push(us(t));
        ir_ops += prog.op_count();
        let mut optimised = prog.clone();
        let t = Instant::now();
        let report = synergy::opt::optimize(&mut optimised);
        opt.push(us(t));
        rewrites += report.total_rewrites();
        ir_ops_opt += optimised.op_count();
        let t = Instant::now();
        let sim = CompiledSim::new(optimised);
        construct.push(us(t));
        word_ops += sim.word_op_count().unwrap_or(0);

        let t = Instant::now();
        let transformed = transform_design(&design, TransformOptions::default());
        let xform_us = us(t);
        match transformed {
            Ok(tf) => {
                xform.push(xform_us);
                states += tf.num_states();
                let options = SynthOptions::synergy(
                    &device,
                    tf.state.captured_bits() as u64,
                    tf.state.vars.len() as u64,
                );
                let t = Instant::now();
                black_box(estimate(&tf.elab, &device, options));
                synth.push(us(t));
            }
            Err(_) => unsupported += 1,
        }

        let t = Instant::now();
        black_box(
            Runtime::with_policy("probe", &p.text, &p.top, &p.clock, EnginePolicy::Auto)
                .expect("with_policy"),
        );
        admit.push(us(t));
    }
    m.put("vlog.lex_us", med(&lex), "us");
    m.put("vlog.parse_us", med(&parse), "us");
    m.put("vlog.elaborate_us", med(&elab), "us");
    m.put(
        "vlog.src_kb_per_s",
        src_bytes as f64 / 1024.0 / (front_us / 1e6),
        "KiB/s",
    );
    m.put("codegen.compile_us", med(&lower), "us");
    m.put("codegen.construct_us", med(&construct), "us");
    m.put("codegen.ir_ops_total", ir_ops as f64, "count");
    m.put("codegen.word_ops_total", word_ops as f64, "count");
    m.put("opt.optimize_us", med(&opt), "us");
    m.put("opt.optimize_us_max", max(&opt), "us");
    m.put("opt.rewrites_total", rewrites as f64, "count");
    m.put(
        "opt.ops_removed_share",
        1.0 - ir_ops_opt as f64 / ir_ops as f64,
        "share",
    );
    m.put("transform.transform_us", med(&xform), "us");
    m.put("transform.states_total", states as f64, "count");
    m.put("transform.unsupported", unsupported as f64, "count");
    m.put("fpga.estimate_us", med(&synth), "us");
    m.put("runtime.with_policy_us", med(&admit), "us");
    // How much of an admission the separately timed layers explain.
    let parts: f64 = [&lex, &parse, &elab, &lower, &opt, &construct]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum();
    m.put(
        "ledger.admit_explained_share",
        parts / admit.iter().sum::<f64>(),
        "share",
    );
}

/// The tick loop, engine by engine: the bare word executor, `run_ticks` over
/// it, the interpreter, and the hardware engine the fabric stage runs on.
fn tick_loops(inp: &Inputs, fuzz: &[Source], m: &mut MetricSet) {
    let (mut overhead, mut one_tick, mut cycles, mut to_hw) = (vec![], vec![], vec![], vec![]);
    for src in &inp.table1 {
        let bare = bare_tick_ns(src, 256, 8192);
        m.put(&format!("codegen.tick_ns.{}", src.name), bare, "ns");

        let mut rt = src.runtime("probe".into()).expect("runtime");
        rt.run_ticks(256).expect("warm");
        let t = Instant::now();
        for _ in 0..8 {
            rt.run_ticks(1024).expect("run_ticks");
        }
        overhead.push(t.elapsed().as_nanos() as f64 / 8192.0 / bare);
        for _ in 0..512 {
            let t = Instant::now();
            rt.run_ticks(1).expect("run_ticks");
            one_tick.push(t.elapsed().as_nanos() as f64);
        }

        let design = synergy::vlog::compile(&src.text, &src.top).expect("compile");
        let mut interp = Interpreter::new(design);
        let mut env = src.env();
        for _ in 0..32 {
            interp.tick(&src.clock, &mut env).expect("tick");
        }
        let t = Instant::now();
        for _ in 0..256 {
            interp.tick(&src.clock, &mut env).expect("tick");
        }
        m.put(
            &format!("interp.tick_ns.{}", src.name),
            t.elapsed().as_nanos() as f64 / 256.0,
            "ns",
        );

        let mut rt = src.runtime("probe".into()).expect("runtime");
        rt.run_ticks(1).expect("software tick");
        let t = Instant::now();
        rt.migrate_to_hardware(&Device::f1(), &BitstreamCache::new())
            .expect("migrate_to_hardware");
        to_hw.push(us(t));
        rt.run_ticks(32).expect("warm");
        let t = Instant::now();
        let (report, _) = rt.run_ticks(256).expect("hardware ticks");
        m.put(
            &format!("runtime.hw_tick_us.{}", src.name),
            us(t) / 256.0,
            "us",
        );
        cycles.push(report.native_cycles as f64 / report.ticks.max(1) as f64);
    }
    let fuzz_ticks: Vec<f64> = fuzz.iter().map(|p| bare_tick_ns(p, 1, 8)).collect();
    m.put("codegen.fuzz_tick_ns_p50", med(&fuzz_ticks), "ns");
    m.put("codegen.fuzz_tick_ns_max", max(&fuzz_ticks), "ns");
    m.put(
        "runtime.run_ticks_overhead_ratio",
        geomean(&overhead).unwrap_or(f64::NAN),
        "ratio",
    );
    m.put("runtime.run_ticks1_ns", med(&one_tick), "ns");
    m.put(
        "runtime.hw_native_cycles_per_tick",
        cycles.iter().sum::<f64>() / cycles.len() as f64,
        "cycles",
    );
    m.put("runtime.migrate_to_hardware_us", med(&to_hw), "us");
}

/// The snapshot codec alone, over the Table-1 states after 1,000 ticks.
fn codec(inp: &Inputs, m: &mut MetricSet) {
    let states: Vec<_> = inp
        .table1
        .iter()
        .map(|src| {
            let mut rt = src.runtime("probe".into()).expect("runtime");
            rt.run_ticks(1000).expect("ticks");
            rt.peek_state()
        })
        .collect();
    const REPS: usize = 200;
    let (mut bytes, mut frames) = (0usize, Vec::new());
    let t = Instant::now();
    for _ in 0..REPS {
        frames.clear();
        for s in &states {
            let mut w = Writer::new();
            w.put_state(s);
            frames.push(w.into_frame(KIND_RUNTIME));
        }
        bytes += frames.iter().map(Vec::len).sum::<usize>();
    }
    let mb = bytes as f64 / 1e6;
    m.put(
        "snapshot.encode_mb_per_s",
        mb / t.elapsed().as_secs_f64(),
        "MB/s",
    );
    let t = Instant::now();
    for _ in 0..REPS {
        for f in &frames {
            let payload = decode_frame_of(f, KIND_RUNTIME).expect("frame");
            black_box(Reader::new(payload).get_state().expect("state"));
        }
    }
    m.put(
        "snapshot.decode_mb_per_s",
        mb / t.elapsed().as_secs_f64(),
        "MB/s",
    );
    let buf: Vec<u8> = (0..(4usize << 20)).map(|i| (i * 31) as u8).collect();
    let t = Instant::now();
    for _ in 0..8 {
        black_box(crc32(black_box(&buf)));
    }
    m.put(
        "snapshot.crc_mb_per_s",
        8.0 * buf.len() as f64 / 1e6 / t.elapsed().as_secs_f64(),
        "MB/s",
    );
}

/// Least-squares slope of `y` over `x = 0, 1, 2, ...`.
fn slope(y: &[f64]) -> f64 {
    let n = y.len() as f64;
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = y.iter().sum::<f64>() / n;
    let (mut num, mut den) = (0.0, 0.0);
    for (i, v) in y.iter().enumerate() {
        num += (i as f64 - mean_x) * (v - mean_y);
        den += (i as f64 - mean_x).powi(2);
    }
    num / den
}

/// `connect`, `deploy`, `disconnect` one at a time, and how `deploy` grows
/// with the tenants already resident (the state-safe handshake visits each).
fn placement(inp: &Inputs, m: &mut MetricSet) {
    let (mut connect, mut deploy, mut disconnect) = (vec![], vec![], vec![]);
    let mut hv = Hypervisor::new(Device::f1());
    hv.set_engine_policy(EnginePolicy::Auto);
    for rep in 0..5 {
        for src in &inp.table1 {
            let mut rt = src
                .runtime(format!("{}.{}", src.name, rep))
                .expect("runtime");
            rt.run_ticks(1).expect("software tick");
            let t = Instant::now();
            let id = hv.connect(rt, DomainId(1), false);
            connect.push(us(t));
            let t = Instant::now();
            hv.deploy(id).expect("deploy");
            deploy.push(us(t));
            let t = Instant::now();
            hv.disconnect(id).expect("disconnect");
            disconnect.push(us(t));
        }
    }
    m.put("hv.connect_us", med(&connect), "us");
    m.put("hv.deploy_us", med(&deploy), "us");
    m.put("hv.disconnect_us", med(&disconnect), "us");

    // Residents with some state to save (`mips32`, 5 KiB), the same design
    // each time so that the bitstream is cached and only the handshake grows.
    let resident = &inp.table1[3];
    let mut by_residents = vec![];
    for i in 0..32u64 {
        let mut rt = resident
            .runtime(format!("{}.r{}", resident.name, i))
            .expect("runtime");
        rt.run_ticks(1).expect("software tick");
        let id = hv.connect(rt, DomainId(i + 1), false);
        let t = Instant::now();
        if hv.deploy(id).is_err() {
            break;
        }
        by_residents.push(us(t));
    }
    m.put("hv.deploy_us_per_resident", slope(&by_residents), "us");
}

/// A compiled fleet like the `compiled` stage's, for the round probes.
fn compiled_fleet(inp: &Inputs, cap: u64) -> Hypervisor {
    let mut hv = Hypervisor::new(Device::f1());
    hv.set_engine_policy(EnginePolicy::Auto);
    hv.set_round_tick_cap(cap);
    for c in 0..4 {
        for (d, src) in inp.table1.iter().enumerate() {
            let rt = src.runtime(format!("{}.{}", src.name, c)).expect("runtime");
            hv.connect(rt, DomainId(1 + d as u64), false);
        }
    }
    hv.run_round(1.0).expect("warm-up round");
    hv
}

/// Host nanoseconds the hypervisor says its tenants' round jobs took.
fn host_round_ns(hv: &Hypervisor) -> u64 {
    hv.metrics()
        .iter(Namespace::NonDet)
        .filter(|(k, _)| k.name == "hv_host_round_ns_total")
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

/// Wall nanoseconds and ticks of `rounds` rounds.
fn run_rounds(hv: &mut Hypervisor, rounds: u32) -> (f64, u64) {
    let mut ticks = 0;
    let t = Instant::now();
    for _ in 0..rounds {
        let stats = hv.run_round(1.0).expect("round");
        ticks += stats.iter().map(|s| s.ticks).sum::<u64>();
    }
    (t.elapsed().as_nanos() as f64, ticks)
}

/// What a round costs beyond its tenants' own work, whether a second core
/// helps, and what telemetry costs.
fn rounds(inp: &Inputs, m: &mut MetricSet) {
    for (cap, rounds) in [(4u64, 200u32), (1024, 10)] {
        let mut hv = compiled_fleet(inp, cap);
        let tenants = hv.tenant_count() as f64;
        let before = host_round_ns(&hv);
        let (wall, _) = run_rounds(&mut hv, rounds);
        let busy = (host_round_ns(&hv) - before) as f64;
        m.put(
            &format!("hv.round_overhead_us_per_tenant.cap{}", cap),
            (wall - busy) / 1e3 / rounds as f64 / tenants,
            "us",
        );
        if cap == 1024 {
            m.put("hv.round_busy_share", busy / wall, "share");
        }
    }

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut hv = compiled_fleet(inp, 1024);
    let (seq_wall, seq_ticks) = run_rounds(&mut hv, 8);
    hv.set_sched_policy(SchedPolicy::Parallel { workers });
    hv.run_round(1.0).expect("pool warm-up round");
    let (par_wall, par_ticks) = run_rounds(&mut hv, 8);
    m.put(
        "hv.parallel_ratio",
        (par_ticks as f64 / par_wall) / (seq_ticks as f64 / seq_wall),
        "ratio",
    );
    let pool = hv.pool_stats();
    m.put(
        "hv.pool_steals",
        pool.map_or(0, |p| p.steals) as f64,
        "count",
    );
    m.put("hv.pool_parks", pool.map_or(0, |p| p.parks) as f64, "count");
    m.put("host.threads", workers as f64, "count");

    let t = Instant::now();
    black_box(hv.metrics().to_prometheus());
    m.put("telemetry.metrics_export_ms", us(t) / 1e3, "ms");
    drop(hv);

    // Alternate, so that drift in the host's speed cancels.
    let mut hv = compiled_fleet(inp, 1024);
    let (mut on, mut off) = (vec![], vec![]);
    for _ in 0..4 {
        telemetry::set_enabled(true);
        on.push(run_rounds(&mut hv, 2).0);
        telemetry::set_enabled(false);
        off.push(run_rounds(&mut hv, 2).0);
    }
    telemetry::set_enabled(true);
    m.put("telemetry.overhead_ratio", med(&on) / med(&off), "ratio");
}

/// A fixed integer-and-memory loop: the host's speed, so that wall figures
/// from two machines can be put side by side.
fn calibration(m: &mut MetricSet) {
    const STEPS: usize = 1 << 22;
    let mut table = vec![0u64; 1 << 17];
    let mut runs = vec![];
    for _ in 0..5 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let t = Instant::now();
        for _ in 0..STEPS {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let slot = (x as usize) & (table.len() - 1);
            table[slot] = table[slot].wrapping_add(x);
        }
        black_box(&table);
        runs.push(t.elapsed().as_nanos() as f64 / STEPS as f64);
    }
    m.put("host.calib_ns", med(&runs), "ns");
}

/// Runs every probe.
pub fn probe(inp: &Inputs, m: &mut MetricSet) {
    let fuzz = fuzz_window();
    compile_path(inp, &fuzz, m);
    tick_loops(inp, &fuzz, m);
    codec(inp, m);
    placement(inp, m);
    rounds(inp, m);
    calibration(m);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_a_line_is_its_gradient() {
        let y: Vec<f64> = (0..10).map(|i| 3.0 + 2.5 * i as f64).collect();
        assert!((slope(&y) - 2.5).abs() < 1e-9);
    }
}
