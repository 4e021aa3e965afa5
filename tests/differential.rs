//! Differential tests: every Table-1 workload runs on both the reference
//! interpreter and the compiled engine (`synergy-codegen`), and must produce
//! bit-identical architectural state, output, effects, and exit codes —
//! including across mid-run snapshot migration in both directions. This is
//! the guarantee that lets the runtime's engine-selection policy move
//! programs freely along the interpret → compiled → hardware ladder. The
//! fabric rung gets the same treatment one level up (`fabric_leg.rs`): the
//! compiled fabric image against the interpreter-backed oracle, and the
//! software⇄fabric hop against staying in software.

mod fabric_leg;

use fabric_leg::Design;
use std::time::{Duration, Instant};
use synergy::codegen::{compile, CompiledSim, StackSim};
use synergy::interp::{BufferEnv, Interpreter};
use synergy::runtime::{
    CompiledEngine, Engine, EnginePolicy, ExecMode, HardwareEngine, Runtime, SoftwareEngine,
    StateSnapshot,
};
use synergy::workloads;
use synergy::{transform_design, TransformOptions};

fn ticks_for(name: &str) -> usize {
    match name {
        // Enough to cover randomise + sort phases on the MIPS core.
        "mips32" => 400,
        // The NW tile loop is expensive on the tree-walking interpreter.
        "nw" => 60,
        _ => 250,
    }
}

/// Runs one benchmark variant on both engines in lockstep.
fn run_differential(quiescent: bool) {
    for bench in workloads::all() {
        let ticks = ticks_for(&bench.name);
        let design = synergy::vlog::compile(bench.source_for(quiescent), &bench.top).unwrap();
        let mut interp = Interpreter::new(design.clone());
        let prog = compile(&design).unwrap_or_else(|e| {
            panic!(
                "{} must be compilable by the codegen backend: {}",
                bench.name, e
            )
        });
        let mut sim = CompiledSim::try_new(prog.clone())
            .unwrap_or_else(|e| panic!("{} must translate: {}", bench.name, e));
        // The stack oracle runs the same lockstep: interp == stack == word.
        let mut stack = StackSim::new(prog);

        let mut ienv = BufferEnv::new();
        let mut cenv = BufferEnv::new();
        if let Some(path) = &bench.input_path {
            let data = workloads::input_data(&bench.name, 4 * ticks);
            ienv.add_file(path.clone(), data.clone());
            cenv.add_file(path.clone(), data);
        }

        let mut senv = BufferEnv::new();
        if let Some(path) = &bench.input_path {
            let data = workloads::input_data(&bench.name, 4 * ticks);
            senv.add_file(path.clone(), data);
        }
        for t in 0..ticks {
            interp.tick(&bench.clock, &mut ienv).unwrap();
            sim.tick(&bench.clock, &mut cenv).unwrap();
            stack.tick(&bench.clock, &mut senv).unwrap();
            // Snapshot comparison every tick would be quadratic in state
            // size; sample the early ticks densely and then every 32nd.
            if t < 8 || t % 32 == 0 {
                let isnap = interp.save_state();
                assert_eq!(
                    isnap,
                    sim.save_state(),
                    "{}: snapshots diverge at tick {} (quiescent={})",
                    bench.name,
                    t,
                    quiescent
                );
                assert_eq!(
                    isnap,
                    stack.save_state(),
                    "{}: stack-oracle snapshots diverge at tick {} (quiescent={})",
                    bench.name,
                    t,
                    quiescent
                );
            }
        }
        assert_eq!(
            stack.save_state(),
            sim.save_state(),
            "{}: stack oracle and compiled engine diverge (quiescent={})",
            bench.name,
            quiescent
        );
        assert_eq!(ienv.output_text(), senv.output_text());
        assert_eq!(
            interp.save_state(),
            sim.save_state(),
            "{}: final snapshots diverge (quiescent={})",
            bench.name,
            quiescent
        );
        assert_eq!(
            interp.get_bits(&bench.metric_var).unwrap(),
            sim.get_bits(&bench.metric_var).unwrap(),
            "{}: metric diverges",
            bench.name
        );
        assert!(
            sim.get_bits(&bench.metric_var).unwrap().to_u64() > 0,
            "{}: compiled engine made no progress",
            bench.name
        );
        assert_eq!(
            ienv.output_text(),
            cenv.output_text(),
            "{}: output diverges",
            bench.name
        );
        assert_eq!(
            interp.finished(),
            sim.finished(),
            "{}: exit diverges",
            bench.name
        );
        assert_eq!(
            interp.take_effects(),
            sim.take_effects(),
            "{}: effects diverge",
            bench.name
        );

        // The fabric leg, warm (deployed mid-run) and cold (before the first
        // tick, so the `initial` blocks run on the fabric).
        let d = fabric_design(&bench, quiescent);
        assert!(fabric_leg::fabric_matches_its_oracle(&d, 3, 12));
        assert!(fabric_leg::fabric_matches_its_oracle(&d, 0, 8));
    }
}

fn fabric_design(bench: &workloads::Benchmark, quiescent: bool) -> Design<'_> {
    Design {
        label: format!("{} (quiescent={})", bench.name, quiescent),
        source: bench.source_for(quiescent),
        top: &bench.top,
        clock: &bench.clock,
        input: bench
            .input_path
            .as_deref()
            .map(|path| (path, workloads::input_data(&bench.name, 2048))),
    }
}

/// The variables that differ between `software_ticks + fabric_ticks` ticks in
/// software and the same ticks with a hop onto the fabric in the middle
/// (empty when the hop is invisible, as it should be).
fn software_fabric_divergence(
    d: &Design,
    software_ticks: usize,
    fabric_ticks: usize,
) -> Vec<String> {
    let design = synergy::vlog::compile(d.source, d.top).unwrap();
    let t = transform_design(&design, TransformOptions::default()).unwrap();
    let (mut renv, mut henv) = (d.env(), d.env());
    let mut reference = CompiledEngine::new(&design, d.clock).unwrap();
    let mut software = SoftwareEngine::new(design, d.clock);
    for _ in 0..software_ticks {
        reference.tick(&mut renv).unwrap();
        software.tick(&mut henv).unwrap();
    }
    let mut fabric = HardwareEngine::new(t, "f1", d.clock).unwrap();
    fabric_leg::hop(&software, &mut fabric);
    for _ in 0..fabric_ticks {
        reference.tick(&mut renv).unwrap();
        fabric.tick(&mut henv).unwrap();
    }
    // Time is not compared: the fabric's counts native cycles.
    let (StateSnapshot { values: want, .. }, StateSnapshot { values: got, .. }) =
        (reference.save_state(), fabric.save_state());
    assert_eq!(
        want.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "{}: the fabric captures other variables",
        d.label
    );
    want.into_iter()
        .filter(|(name, value)| got[name] != *value)
        .map(|(name, _)| name)
        .collect()
}

/// A tenant that runs `k` ticks in software and `n` on the fabric must hold
/// the state of `k + n` ticks in software. Four of the six do. The other two
/// are pinned as they diverge today, so that the fix flips this test on
/// purpose: the compiled image and the interpreter agree with each other on
/// the transformed adpcm and mips32 (the leg above), which clears both
/// simulators and leaves the state-machine transformation or the trap
/// protocol.
#[test]
fn the_software_fabric_hop_is_invisible_except_where_pinned() {
    for bench in workloads::all() {
        let d = fabric_design(&bench, false);
        let differing = software_fabric_divergence(&d, 1, 256);
        let pinned: &[&str] = match bench.name.as_str() {
            "adpcm" => &["history"],
            "mips32" => &["dmem", "regs", "tmp"],
            _ => &[],
        };
        assert_eq!(differing, pinned, "{}", bench.name);
    }
}

#[test]
fn every_workload_matches_the_interpreter_bit_for_bit() {
    run_differential(false);
}

#[test]
fn every_quiescent_workload_matches_the_interpreter_bit_for_bit() {
    run_differential(true);
}

/// Every workload (both variants) must actually *run on the compiled
/// engine* through the runtime's Auto policy — no silent interpreter
/// fallback — and raise an identical `RuntimeEvent` stream, metric value,
/// and output as an interpreter-policy runtime.
#[test]
fn workloads_use_the_compiled_engine_with_identical_event_streams() {
    for bench in workloads::all() {
        for quiescent in [false, true] {
            let ticks = if bench.name == "nw" { 40 } else { 120 };
            let mut fast = Runtime::with_policy(
                &bench.name,
                bench.source_for(quiescent),
                &bench.top,
                &bench.clock,
                EnginePolicy::Auto,
            )
            .unwrap();
            let mut slow = Runtime::with_policy(
                &bench.name,
                bench.source_for(quiescent),
                &bench.top,
                &bench.clock,
                EnginePolicy::Interpreter,
            )
            .unwrap();
            assert_eq!(
                fast.mode(),
                ExecMode::Compiled,
                "{} (quiescent={}) fell back to the interpreter",
                bench.name,
                quiescent
            );
            assert_eq!(slow.mode(), ExecMode::Software);
            if let Some(path) = &bench.input_path {
                let data = workloads::input_data(&bench.name, 4 * ticks as usize);
                fast.add_file(path.clone(), data.clone());
                slow.add_file(path.clone(), data);
            }
            let (_, fast_events) = fast.run_ticks(ticks).unwrap();
            let (_, slow_events) = slow.run_ticks(ticks).unwrap();
            assert_eq!(
                fast_events, slow_events,
                "{}: runtime event streams diverge (quiescent={})",
                bench.name, quiescent
            );
            assert_eq!(
                fast.get_bits(&bench.metric_var).unwrap(),
                slow.get_bits(&bench.metric_var).unwrap(),
                "{}: metric diverges across engine policies",
                bench.name
            );
            assert_eq!(
                fast.env.output_text(),
                slow.env.output_text(),
                "{}: output diverges across engine policies",
                bench.name
            );
            assert_eq!(fast.finished(), slow.finished());
        }
    }
}

/// Mid-run snapshot migration through the compiled engine behaves exactly
/// like migration through a fresh interpreter: after warmup both lineages hop
/// engines at the same points (re-running `initial` blocks on restore, per
/// the reference semantics) and must stay bit-identical throughout.
#[test]
fn snapshots_migrate_between_engines_mid_run() {
    for bench in workloads::all() {
        let warmup = 40;
        let half = 20;
        let design = synergy::vlog::compile(&bench.source, &bench.top).unwrap();
        let stream = workloads::input_data(&bench.name, 8 * (warmup + 2 * half));

        let mut ienv = BufferEnv::new();
        let mut cenv = BufferEnv::new();
        if let Some(path) = &bench.input_path {
            ienv.add_file(path.clone(), stream.clone());
            cenv.add_file(path.clone(), stream.clone());
        }

        // Shared warmup on the interpreter.
        let mut a = Interpreter::new(design.clone());
        let mut b = Interpreter::new(design.clone());
        for _ in 0..warmup {
            a.tick(&bench.clock, &mut ienv).unwrap();
            b.tick(&bench.clock, &mut cenv).unwrap();
        }

        // Lineage A hops onto a fresh interpreter; lineage B onto the
        // compiled engine. Both restores re-run initial blocks.
        let mut a2 = Interpreter::new(design.clone());
        a2.restore_state(&a.save_state());
        let mut sim = CompiledSim::new(compile(&design).unwrap());
        sim.restore_state(&b.save_state());
        for _ in 0..half {
            a2.tick(&bench.clock, &mut ienv).unwrap();
            sim.tick(&bench.clock, &mut cenv).unwrap();
        }
        assert_eq!(
            a2.save_state(),
            sim.save_state(),
            "{}: compiled hop diverged from interpreter hop",
            bench.name
        );

        // And both hop back onto fresh interpreters.
        let mut a3 = Interpreter::new(design.clone());
        a3.restore_state(&a2.save_state());
        let mut b3 = Interpreter::new(design);
        b3.restore_state(&sim.save_state());
        for _ in 0..half {
            a3.tick(&bench.clock, &mut ienv).unwrap();
            b3.tick(&bench.clock, &mut cenv).unwrap();
        }
        assert_eq!(
            a3.save_state(),
            b3.save_state(),
            "{}: lineages diverged after hopping back",
            bench.name
        );
        assert_eq!(
            ienv.output_text(),
            cenv.output_text(),
            "{}: output diverges",
            bench.name
        );
    }
}

/// The static ledger of the tick loop: the word program the compiled engine
/// runs for each Table-1 design, after the optimizer, may not grow past the
/// count on record (nw: 1,661 before values rode in registers — every DP
/// cell's intermediates round-tripped through the net arena — and 850 the
/// ceiling set when they stopped; the other five are the counts of that
/// day). `passstats` prints the histogram behind each figure.
#[test]
fn optimized_word_programs_stay_under_their_ceilings() {
    let ceilings = [
        ("adpcm", 118),
        ("bitcoin", 37),
        ("df", 27),
        ("mips32", 87),
        ("nw", 850),
        ("regex", 46),
    ];
    for (name, ceiling) in ceilings {
        let bench = workloads::by_name(name).unwrap();
        let design = synergy::vlog::compile(&bench.source, &bench.top).unwrap();
        let mut prog = compile(&design).unwrap();
        let report = synergy::opt::optimize(&mut prog);
        assert!(!report.any_reverted(), "{}: a pass reverted", name);
        // No `Push; Pop` pair survives for the stack oracle to execute.
        for code in prog.always.iter().map(|a| &a.body).chain(&prog.initials) {
            let pairs = code
                .windows(2)
                .filter(|w| w[1] == synergy::codegen::Op::Pop)
                .filter(|w| {
                    use synergy::codegen::Op::*;
                    matches!(w[0], PushTemp(_) | PushNet(_) | PushConst(_))
                })
                .count();
            assert_eq!(pairs, 0, "{}: Push; Pop pairs left behind", name);
        }
        let sim = CompiledSim::new(prog);
        let ops = sim.word_op_count().unwrap();
        assert_eq!(
            sim.word_op_histogram().values().sum::<usize>(),
            ops,
            "{}: the histogram accounts for every word op",
            name
        );
        assert!(
            ops <= ceiling,
            "{}: {} word ops, ceiling {}\n{:?}",
            name,
            ops,
            ceiling,
            sim.word_op_histogram()
        );
    }
}

/// Ticks `ticks` clock edges of `source` on each software engine — the
/// interpreter, the stack oracle and the word executor (the latter two on the
/// optimised program, as a runtime seats it) — and, where the transformation
/// accepts the design, on the fabric image after one tick in software and a
/// hop. Returns each engine's name, output text and per-tick host times.
fn every_engine(
    source: &str,
    top: &str,
    ticks: usize,
) -> Vec<(&'static str, String, Vec<Duration>)> {
    let design = synergy::vlog::compile(source, top).unwrap();
    let mut prog = compile(&design).unwrap();
    synergy::opt::optimize(&mut prog);
    let mut interp = Interpreter::new(design.clone());
    let mut stack = StackSim::new(prog.clone());
    let mut word = CompiledSim::new(prog);
    let timed = |name, tick: &mut dyn FnMut(&mut BufferEnv)| {
        let mut env = BufferEnv::new();
        let times = (0..ticks)
            .map(|_| {
                let start = Instant::now();
                tick(&mut env);
                start.elapsed()
            })
            .collect();
        (name, env.output_text(), times)
    };
    let mut runs = vec![
        timed("interpreter", &mut |env| interp.tick("clock", env).unwrap()),
        timed("stack oracle", &mut |env| stack.tick("clock", env).unwrap()),
        timed("word executor", &mut |env| word.tick("clock", env).unwrap()),
    ];
    if let Ok(t) = transform_design(&design, TransformOptions::default()) {
        let mut software = SoftwareEngine::new(design, "clock");
        let mut fabric = HardwareEngine::new(t, "f1", "clock").unwrap();
        let mut first = true;
        runs.push(timed("fabric after a hop", &mut |env| {
            if std::mem::take(&mut first) {
                software.tick(env).unwrap();
                fabric_leg::hop(&software, &mut fabric);
            } else {
                fabric.tick(env).unwrap();
            }
        }));
    }
    runs
}

/// Decimal `$display` of a value wider than 128 bits (IEEE 1364-2005
/// §17.1.1: an argument without a format prints in decimal). The expected
/// lines are 0xdeadbeef…cafe and 2^240 − 1 converted with arbitrary-precision
/// integer arithmetic, not produced by any engine. Both have 73 digits, the
/// most a 240-bit value can have, so the automatic sizing of decimal output
/// (§17.1.1.3) adds no leading spaces, and the unpadded form this
/// reproduction prints is the standard's answer too.
#[test]
fn a_240_bit_register_displays_in_decimal_on_every_engine() {
    let source = "module Print240(input wire clock);
        reg [239:0] r = 240'hdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefcafe;
        always @(posedge clock) begin
            $display(r);
            r <= ~240'd0;
        end
    endmodule";
    let want = "1536871867773067413489654920042596738862895254584292646272253768665910014\n\
                1766847064778384329583297500742918515827483896875618958121606201292619775\n";
    let runs = every_engine(source, "Print240", 2);
    assert_eq!(runs.len(), 4, "the transformation accepts the design");
    for (engine, output, _) in runs {
        assert_eq!(output, want, "{}", engine);
    }
}

/// A tick's host cost follows from the program, not from the width of one
/// value: a 4,096-bit `/` and `%` and the decimal `$display` of a 1,024-bit
/// register cost at most `CEILING` a tick (median of nine) on every engine.
/// Bit-serial wide division took 42 ms at 4,096 bits and the 1,024-bit print
/// took seconds (release, 2-vCPU host); both now run over 64-bit limbs. The
/// ceiling is stated for release builds and widened for unoptimised ones.
#[test]
fn wide_values_tick_under_their_ceiling() {
    const CEILING: Duration = Duration::from_millis(if cfg!(debug_assertions) { 20 } else { 2 });
    let source = "module Wide(input wire clock);
        reg [4095:0] n;
        reg [4095:0] d;
        reg [4095:0] q;
        reg [4095:0] r;
        reg [1023:0] p;
        initial begin
            n = ~4096'd0;
            d = {32{64'hdeadbeefcafef00d}};
            p = ~1024'd0;
        end
        always @(posedge clock) begin
            q <= n / d;
            r <= n % d;
            n <= n - r - 1;
            d <= d + q[63:0];
            p <= p ^ q[1023:0] ^ r[1023:0];
            $display(p);
        end
    endmodule";
    let runs = every_engine(source, "Wide", 9);
    assert_eq!(runs.len(), 4, "the transformation accepts the design");
    for (engine, output, mut times) in runs.clone() {
        assert_eq!(output, runs[0].1, "{}: output diverges", engine);
        times.sort();
        assert!(
            times[times.len() / 2] <= CEILING,
            "{}: median tick {:?} over the {:?} ceiling",
            engine,
            times[times.len() / 2],
            CEILING
        );
    }
}
