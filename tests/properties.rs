//! Property-based tests over the core data structures and invariants: `Bits`
//! arithmetic, parser/printer round-trips, state-capture round-trips (both
//! within one engine and across interpreter ⇄ compiled-engine migrations),
//! and the equivalence of software and SYNERGY-transformed hardware
//! execution.

use proptest::prelude::*;
use synergy::codegen::{compile as codegen_compile, CompiledSim, StackSim};
use synergy::hv::HvError;
use synergy::interp::{BufferEnv, Interpreter};
use synergy::runtime::{CheckpointError, EnginePolicy, ExecMode};
use synergy::vlog::{parse, parser, printer, Bits};
use synergy::workloads::{fuzz_input_data, generate_fuzz_design};
use synergy::{BitstreamCache, Device, DomainId, Hypervisor, Runtime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Addition on `Bits` matches 128-bit integer addition modulo the width.
    #[test]
    fn bits_add_matches_integer_arithmetic(a in any::<u64>(), b in any::<u64>(), width in 1usize..100) {
        let x = Bits::from_u64(width, a);
        let y = Bits::from_u64(width, b);
        let sum = x.add(&y);
        let mask = if width >= 128 { u128::MAX } else { (1u128 << width) - 1 };
        let expected = ((a as u128 & mask) + (b as u128 & mask)) & mask;
        prop_assert_eq!(sum.to_u128(), expected);
        prop_assert_eq!(sum.width(), width);
    }

    /// Subtraction then addition round-trips.
    #[test]
    fn bits_sub_add_round_trip(a in any::<u64>(), b in any::<u64>(), width in 1usize..80) {
        let x = Bits::from_u64(width, a);
        let y = Bits::from_u64(width, b);
        prop_assert_eq!(x.sub(&y).add(&y), x.resize(width));
    }

    /// Slicing the result of a concatenation recovers the original operands.
    #[test]
    fn bits_concat_slice_inverse(a in any::<u32>(), b in any::<u32>()) {
        let hi = Bits::from_u64(32, a as u64);
        let lo = Bits::from_u64(32, b as u64);
        let joined = hi.concat(&lo);
        prop_assert_eq!(joined.width(), 64);
        prop_assert_eq!(joined.slice(63, 32).to_u64(), a as u64);
        prop_assert_eq!(joined.slice(31, 0).to_u64(), b as u64);
    }

    /// Decimal formatting matches the numeric value for any width.
    #[test]
    fn bits_decimal_formatting(v in any::<u64>(), width in 1usize..70) {
        let b = Bits::from_u64(width, v);
        let expected = if width >= 64 { v } else { v & ((1u64 << width) - 1) };
        prop_assert_eq!(b.to_dec_string(), expected.to_string());
    }

    /// Shifts never exceed the declared width.
    #[test]
    fn bits_shift_stays_in_width(v in any::<u64>(), width in 1usize..96, n in 0usize..130) {
        let b = Bits::from_u64(width, v);
        prop_assert_eq!(b.shl(n).width(), width);
        prop_assert_eq!(b.shr(n).width(), width);
        for idx in width..width + 8 {
            prop_assert!(!b.shl(n).bit(idx));
        }
    }

    /// Printing an expression and re-parsing it evaluates to the same constant.
    #[test]
    fn printer_parser_round_trip_for_constants(a in 0u64..1_000_000, b in 1u64..1_000, shift in 0u64..16) {
        let text = format!("(({a} + {b}) * 3) ^ ({a} >> {shift})");
        let expr = parser::parse_expr(&text).unwrap();
        let direct = parser::const_eval(&expr, &|_| None).unwrap();
        let printed = printer::print_expr(&expr);
        let reparsed = parser::parse_expr(&printed).unwrap();
        let round_tripped = parser::const_eval(&reparsed, &|_| None).unwrap();
        prop_assert_eq!(direct.to_u64(), round_tripped.to_u64());
    }

    /// A generated counter design round-trips through the printer and behaves
    /// identically when re-elaborated.
    #[test]
    fn module_round_trip_preserves_behaviour(width in 2usize..16, increment in 1u64..7, ticks in 1u64..40) {
        let src = format!(
            "module Gen(input wire clock, output wire [{msb}:0] out);
                 reg [{msb}:0] value = 0;
                 always @(posedge clock) value <= value + {increment};
                 assign out = value;
             endmodule",
            msb = width - 1,
            increment = increment
        );
        let parsed = parse(&src).unwrap();
        let printed = printer::print_file(&parsed);
        let original = synergy::vlog::compile(&src, "Gen").unwrap();
        let reprinted = synergy::vlog::compile(&printed, "Gen").unwrap();

        let mut env = BufferEnv::new();
        let mut a = Interpreter::new(original);
        let mut b = Interpreter::new(reprinted);
        for _ in 0..ticks {
            a.tick("clock", &mut env).unwrap();
            b.tick("clock", &mut env).unwrap();
        }
        prop_assert_eq!(a.get_bits("out").unwrap(), b.get_bits("out").unwrap());
    }

    /// Software interpretation and SYNERGY-transformed hardware execution agree on
    /// a parameterised accumulator for arbitrary tick counts and inputs.
    #[test]
    fn software_and_hardware_execution_agree(seed in any::<u32>(), ticks in 1u64..30) {
        let src = format!(
            "module Acc(input wire clock, output wire [31:0] out);
                 reg [31:0] acc = {seed};
                 reg [31:0] step = 0;
                 always @(posedge clock) begin
                     step <= step + 1;
                     acc <= acc + (step ^ 32'h{seed:x});
                 end
                 assign out = acc;
             endmodule",
            seed = seed
        );
        let mut sw = Runtime::new("sw", &src, "Acc", "clock").unwrap();
        let mut hw = Runtime::new("hw", &src, "Acc", "clock").unwrap();
        let cache = BitstreamCache::new();
        hw.migrate_to_hardware(&Device::f1(), &cache).unwrap();
        sw.run_ticks(ticks).unwrap();
        hw.run_ticks(ticks).unwrap();
        prop_assert_eq!(
            sw.get_bits("out").unwrap().to_u64(),
            hw.get_bits("out").unwrap().to_u64()
        );
    }

    /// A snapshot saved on the interpreter restores into the compiled engine
    /// (and back) mid-run with bit-identical onward execution, for random
    /// generated designs — the property the runtime's engine-migration path
    /// (`Runtime::migrate_to_compiled` / `migrate_to_software`) relies on.
    #[test]
    fn snapshots_migrate_across_engines_for_random_designs(
        seed in any::<u64>(),
        warmup in 1usize..10,
        rest in 1usize..10,
    ) {
        let d = generate_fuzz_design(seed);
        if d.input_path.is_some() {
            // File-stream designs tie state to the SystemEnv's read cursor;
            // the workload-level migration test covers those.
            return;
        }
        let design = synergy::vlog::compile(&d.source, &d.top).unwrap();
        let prog = codegen_compile(&design).unwrap();

        // Two lineages warm up identically on the interpreter...
        let mut ienv = BufferEnv::new();
        let mut cenv = BufferEnv::new();
        let mut a = Interpreter::new(design.clone());
        let mut b = Interpreter::new(design.clone());
        for _ in 0..warmup {
            a.tick(&d.clock, &mut ienv).unwrap();
            b.tick(&d.clock, &mut cenv).unwrap();
        }

        // ...then lineage A hops onto a fresh interpreter while lineage B
        // hops onto the compiled engine (save on interp → restore on
        // compiled).
        let mut a2 = Interpreter::new(design.clone());
        a2.restore_state(&a.save_state());
        let mut sim = CompiledSim::new(prog);
        sim.restore_state(&b.save_state());
        for _ in 0..rest {
            a2.tick(&d.clock, &mut ienv).unwrap();
            sim.tick(&d.clock, &mut cenv).unwrap();
        }
        prop_assert_eq!(a2.save_state(), sim.save_state());

        // And back: save on compiled → restore on a fresh interpreter.
        let mut a3 = Interpreter::new(design.clone());
        a3.restore_state(&a2.save_state());
        let mut b3 = Interpreter::new(design);
        b3.restore_state(&sim.save_state());
        for _ in 0..rest {
            a3.tick(&d.clock, &mut ienv).unwrap();
            b3.tick(&d.clock, &mut cenv).unwrap();
        }
        prop_assert_eq!(a3.save_state(), b3.save_state());
        prop_assert_eq!(ienv.output_text(), cenv.output_text());
    }

    /// `Runtime::save`/`restore` round-trips across engine *policies*: a
    /// checkpoint captured under the interpreter restores into a runtime
    /// seated compiled under `Auto` and vice versa, preserving counted state.
    #[test]
    fn runtime_checkpoints_span_engine_policies(ticks in 1u64..40, extra in 1u64..20) {
        let src = "module M(input wire clock, output wire [31:0] out);
                       reg [31:0] count = 0;
                       reg [31:0] twisted = 1;
                       always @(posedge clock) begin
                           count <= count + 1;
                           twisted <= (twisted << 1) ^ count;
                       end
                       assign out = twisted;
                   endmodule";

        // Interpreter → compiled.
        let mut sw = Runtime::new("sw", src, "M", "clock").unwrap();
        sw.run_ticks(ticks).unwrap();
        let snapshot = sw.save("hop");
        let mut ce =
            Runtime::with_policy("ce", src, "M", "clock", EnginePolicy::Auto).unwrap();
        prop_assert_eq!(ce.mode(), ExecMode::Compiled);
        ce.restore(&snapshot);
        ce.run_ticks(extra).unwrap();
        prop_assert_eq!(ce.get_bits("count").unwrap().to_u64(), ticks + extra);

        // Compiled → interpreter: onward execution matches a never-migrated
        // interpreter lineage bit for bit.
        let back = ce.save("back");
        let mut sw2 = Runtime::new("sw2", src, "M", "clock").unwrap();
        sw2.restore(&back);
        sw2.run_ticks(extra).unwrap();
        let mut reference = Runtime::new("ref", src, "M", "clock").unwrap();
        reference.run_ticks(ticks + 2 * extra).unwrap();
        prop_assert_eq!(
            sw2.get_bits("twisted").unwrap(),
            reference.get_bits("twisted").unwrap()
        );
    }

    /// A snapshot migrates interpreter → stack oracle → compiled engine →
    /// interpreter on fuzzed designs with bit-identical onward execution at
    /// every hop: all three executors are interchangeable at any snapshot
    /// boundary, which is what lets the oracle check the compiled engine
    /// from an arbitrary mid-run state.
    #[test]
    fn snapshots_migrate_across_executors_for_random_designs(
        seed in any::<u64>(),
        warmup in 1usize..8,
        rest in 1usize..8,
    ) {
        let d = generate_fuzz_design(seed);
        if d.input_path.is_some() {
            // File-stream designs tie state to the SystemEnv's read cursor;
            // the workload-level migration test covers those.
            return;
        }
        let design = synergy::vlog::compile(&d.source, &d.top).unwrap();
        let prog = codegen_compile(&design).unwrap();

        // Reference lineage stays on the interpreter throughout.
        let mut renv = BufferEnv::new();
        let mut menv = BufferEnv::new();
        let mut reference = Interpreter::new(design.clone());
        let mut warm = Interpreter::new(design.clone());
        for _ in 0..warmup {
            reference.tick(&d.clock, &mut renv).unwrap();
            warm.tick(&d.clock, &mut menv).unwrap();
        }

        // Hop 1: interpreter -> stack oracle. (The reference hops onto a
        // fresh interpreter at each boundary too, since restores re-run
        // initial blocks.)
        let mut r2 = Interpreter::new(design.clone());
        r2.restore_state(&reference.save_state());
        let mut stack = StackSim::new(prog.clone());
        stack.restore_state(&warm.save_state());
        for _ in 0..rest {
            r2.tick(&d.clock, &mut renv).unwrap();
            stack.tick(&d.clock, &mut menv).unwrap();
        }
        prop_assert_eq!(r2.save_state(), stack.save_state());

        // Hop 2: stack oracle -> compiled engine.
        let mut r3 = Interpreter::new(design.clone());
        r3.restore_state(&r2.save_state());
        let mut word = CompiledSim::try_new(prog).unwrap();
        word.restore_state(&stack.save_state());
        for _ in 0..rest {
            r3.tick(&d.clock, &mut renv).unwrap();
            word.tick(&d.clock, &mut menv).unwrap();
        }
        prop_assert_eq!(r3.save_state(), word.save_state());

        // Hop 3: compiled engine -> interpreter.
        let mut r4 = Interpreter::new(design.clone());
        r4.restore_state(&r3.save_state());
        let mut back = Interpreter::new(design);
        back.restore_state(&word.save_state());
        for _ in 0..rest {
            r4.tick(&d.clock, &mut renv).unwrap();
            back.tick(&d.clock, &mut menv).unwrap();
        }
        prop_assert_eq!(r4.save_state(), back.save_state());
        prop_assert_eq!(renv.output_text(), menv.output_text());
    }

    /// A compiled-engine snapshot round-trips through save/restore on a fresh
    /// simulator of the same program (word arenas and `Val` fallbacks
    /// reconstruct the exact architectural state).
    #[test]
    fn regalloc_snapshots_round_trip_for_random_designs(
        seed in any::<u64>(),
        ticks in 1usize..12,
    ) {
        let d = generate_fuzz_design(seed);
        if d.input_path.is_some() {
            return;
        }
        let design = synergy::vlog::compile(&d.source, &d.top).unwrap();
        let prog = codegen_compile(&design).unwrap();
        let mut env = BufferEnv::new();
        let mut sim = CompiledSim::try_new(prog.clone()).unwrap();
        for _ in 0..ticks {
            sim.tick(&d.clock, &mut env).unwrap();
        }
        let snapshot = sim.save_state();
        let mut restored = CompiledSim::try_new(prog).unwrap();
        restored.restore_state(&snapshot);
        prop_assert_eq!(restored.save_state(), snapshot);
    }

    /// The durable checkpoint codec is the identity on random designs on both
    /// software engines: a runtime checkpointed mid-run restores to
    /// bit-identical state, continues in lockstep with the uninterrupted
    /// lineage (stream positions, RNG, and output included), and re-encodes
    /// to byte-identical checkpoint bytes.
    #[test]
    fn runtime_checkpoints_round_trip_on_random_designs(
        seed in any::<u64>(),
        compiled in any::<bool>(),
        warmup in 1u64..10,
        rest in 1u64..10,
    ) {
        let d = generate_fuzz_design(seed);
        let policy = if compiled {
            EnginePolicy::Auto
        } else {
            EnginePolicy::Interpreter
        };
        let mut rt = Runtime::with_policy(
            format!("fuzz{}", seed), &d.source, &d.top, &d.clock, policy,
        ).unwrap();
        if let Some(path) = &d.input_path {
            rt.add_file(path.clone(), fuzz_input_data(seed, (warmup + rest) as usize));
        }
        if rt.run_ticks(warmup).is_err() {
            // Designs every engine rejects identically are covered by the
            // differential fuzz suite.
            return;
        }
        let bytes = rt.save_checkpoint();
        let mut restored = Runtime::restore_checkpoint(&bytes).unwrap();
        prop_assert_eq!(restored.mode(), rt.mode());
        prop_assert_eq!(restored.peek_state(), rt.peek_state());
        prop_assert_eq!(
            restored.save_checkpoint(),
            bytes.clone(),
            "decode → encode must be the identity"
        );

        let a = rt.run_ticks(rest);
        let b = restored.run_ticks(rest);
        match (&a, &b) {
            (Ok(_), Ok(_)) => {}
            (Err(x), Err(y)) => {
                prop_assert_eq!(x.to_string(), y.to_string(), "error parity after restore");
                return;
            }
            _ => prop_assert!(false, "one lineage errored, the other did not: {:?} vs {:?}", a, b),
        }
        prop_assert_eq!(restored.peek_state(), rt.peek_state());
        prop_assert_eq!(restored.env.output_text(), rt.env.output_text());
        prop_assert_eq!(restored.now_ns(), rt.now_ns());
    }

    /// Corrupting a checkpoint — truncation at *every* byte boundary, or a
    /// bit flip anywhere — always yields a typed decode error, never a panic
    /// and never a silently wrong runtime.
    #[test]
    fn checkpoint_corruption_yields_typed_errors_never_panics(
        seed in any::<u64>(),
        ticks in 1u64..6,
        flip_bit in 0usize..8,
    ) {
        let d = generate_fuzz_design(seed);
        let mut rt = Runtime::new(format!("fuzz{}", seed), &d.source, &d.top, &d.clock).unwrap();
        if let Some(path) = &d.input_path {
            rt.add_file(path.clone(), fuzz_input_data(seed, ticks as usize));
        }
        let _ = rt.run_ticks(ticks);
        let bytes = rt.save_checkpoint();

        // Truncation at every boundary.
        for len in 0..bytes.len() {
            match Runtime::restore_checkpoint(&bytes[..len]) {
                Err(CheckpointError::Decode(_)) => {}
                other => prop_assert!(
                    false,
                    "truncation at {} must be a typed decode error, got {:?}",
                    len,
                    other.map(|_| "a runtime")
                ),
            }
        }
        // A bit flip at every byte (the CRC trailer catches them all).
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 1 << flip_bit;
            prop_assert!(matches!(
                Runtime::restore_checkpoint(&bad),
                Err(CheckpointError::Decode(_))
            ), "flip at byte {} bit {} must be rejected", byte, flip_bit);
        }
        prop_assert!(Runtime::restore_checkpoint(&bytes).is_ok(), "pristine bytes still decode");
    }
}

proptest! {
    // Each case restores its fleet frame twice per byte; fewer cases than
    // the single-tenant property keep the debug-build sweep about as long.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same two corruptions of a three-tenant fleet frame — truncation
    /// at every byte, a bit flip at every byte — are typed decode errors,
    /// never panics, and leave the restoring hypervisor exactly as it was.
    #[test]
    fn fleet_checkpoint_corruption_yields_typed_errors_never_panics(
        seed in any::<u64>(),
        flip_bit in 0usize..8,
    ) {
        let mut hv = Hypervisor::new(Device::f1());
        hv.set_round_tick_cap(4);
        for k in 0..3u64 {
            let s = seed.wrapping_add(k);
            let d = generate_fuzz_design(s);
            let mut rt = Runtime::new(format!("fuzz{}", s), &d.source, &d.top, &d.clock).unwrap();
            if let Some(path) = &d.input_path {
                rt.add_file(path.clone(), fuzz_input_data(s, 8));
            }
            hv.connect(rt, DomainId(k + 1), false);
        }
        let _ = hv.run_round(0.0002);
        let bytes = hv.checkpoint_fleet();

        let mut target = Hypervisor::new(Device::f1());
        let pristine = target.checkpoint_fleet();
        let mut rejects = |bad: &[u8]| {
            let typed = matches!(
                target.restore_fleet(bad),
                Err(HvError::Checkpoint(CheckpointError::Decode(_)))
            );
            typed && target.apps().is_empty() && target.checkpoint_fleet() == pristine
        };
        for len in 0..bytes.len() {
            prop_assert!(rejects(&bytes[..len]), "truncation at {}", len);
        }
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 1 << flip_bit;
            prop_assert!(rejects(&bad), "flip at byte {} bit {}", byte, flip_bit);
        }
        prop_assert_eq!(target.restore_fleet(&bytes).unwrap().len(), 3, "pristine bytes restore");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// State capture and restore is lossless for arbitrary register contents.
    #[test]
    fn state_snapshots_round_trip(values in proptest::collection::vec(any::<u64>(), 1..8)) {
        let src = "module M(input wire clock, input wire [63:0] in, input wire we);
                       reg [63:0] stored = 0;
                       reg [31:0] writes = 0;
                       always @(posedge clock) if (we) begin
                           stored <= in;
                           writes <= writes + 1;
                       end
                   endmodule";
        let design = synergy::vlog::compile(src, "M").unwrap();
        let mut interp = Interpreter::new(design.clone());
        let mut env = BufferEnv::new();
        interp.set("we", Bits::from_u64(1, 1)).unwrap();
        for v in &values {
            interp.set("in", Bits::from_u64(64, *v)).unwrap();
            interp.tick("clock", &mut env).unwrap();
        }
        let snapshot = interp.save_state();
        let mut restored = Interpreter::new(design);
        restored.restore_state(&snapshot);
        prop_assert_eq!(
            restored.get_bits("stored").unwrap().to_u64(),
            *values.last().unwrap()
        );
        prop_assert_eq!(
            restored.get_bits("writes").unwrap().to_u64(),
            values.len() as u64
        );
    }
}
