//! # synergy-codegen
//!
//! The compiled software engine for the SYNERGY reproduction: a levelized
//! netlist IR plus a bytecode executor that runs the software hot path at
//! near-hardware-model speed while the tree-walking interpreter in
//! `synergy-interp` remains the semantic reference.
//!
//! [`compile`] lowers an elaborated design ([`synergy_vlog::elaborate::ElabModule`])
//! into a [`CompiledProgram`]:
//!
//! * every variable becomes a numbered slot in a dense value arena (no name
//!   lookups on the hot path; values at most 64 bits wide stay in one machine
//!   word),
//! * continuous assignments become combinational nodes levelized by
//!   topological order, re-evaluated through per-net dirty bits so only the
//!   affected cone recomputes when a value changes,
//! * `always`/`initial` bodies (including edge guards, non-blocking
//!   assignment, and the unsynthesizable system tasks) compile to bytecode,
//!   which [`CompiledSim`] translates once more and executes.
//!
//! # One executor, one oracle
//!
//! [`CompiledSim`] runs the lowered program on the **word machine**: the
//! stack bytecode is lowered once more into register-allocated,
//! width-specialized three-address code. A forward width inference proves
//! which values fit 64 bits; those live untagged in flat `u64` arenas:
//!
//! - scalar nets at most 64 bits wide live in one `Vec<u64>` (wider nets
//!   keep a `Val` slot at the same index),
//! - memories whose element width fits a word are flat `Vec<u64>`s,
//! - expression temporaries are compacted by a linear-scan register
//!   allocator onto a small shared `Vec<u64>` word arena plus a `Vec<Val>`
//!   arena for wide/dynamic-width values.
//!
//! Hot instruction pairs are fused at translation time (constant operands
//! into immediate ALU ops, `PushNet;PushConst;BinOp;StoreNet` into two fused
//! dispatches). Any *value* the width inference cannot pin to a fixed width
//! of at most 64 bits (wider registers, ternary arms of different widths,
//! dynamic slices/replication) uses the exact tagged-`Val` routines per op.
//! Translation is total over well-formed programs: it can only fail on
//! bytecode whose operand-stack depth does not balance, which
//! [`CompiledSim::try_new`](Sim::try_new) reports as a typed error.
//!
//! [`StackSim`] runs the bytecode directly over an operand stack of [`Val`]s.
//! It is the **differential oracle** for that translation — reachable from
//! tests, the fuzzer and the benches, never from a runtime. Both run on one
//! statically dispatched scheduling core (evaluate/update fixpoint, edge
//! detection, level-bucketed dirty worklist, settle caps, save/restore), so
//! stack ⇄ word lockstep isolates exactly the translation.
//!
//! The compiled engine reproduces the interpreter's scheduling semantics
//! tick for tick — same evaluate/update fixpoint, same edge detection, same
//! [`synergy_interp::StateSnapshot`] format — so programs migrate losslessly
//! between the interpreter, the compiled engine, and the hardware engine.
//! Designs using constructs the lowering does not cover (multiply-driven
//! nets, combinational system calls, …) return
//! [`synergy_vlog::VlogError::Unsupported`]; the runtime's engine-selection
//! policy falls back to the interpreter for those.
//!
//! # Example
//!
//! ```
//! use synergy_codegen::{compile, CompiledSim};
//! use synergy_interp::BufferEnv;
//!
//! let design = synergy_vlog::compile(
//!     r#"module Counter(input wire clock, output wire [7:0] out);
//!            reg [7:0] count = 0;
//!            always @(posedge clock) count <= count + 1;
//!            assign out = count;
//!        endmodule"#,
//!     "Counter",
//! )?;
//! let mut sim = CompiledSim::new(compile(&design)?);
//! let mut env = BufferEnv::new();
//! for _ in 0..5 {
//!     sim.tick("clock", &mut env)?;
//! }
//! assert_eq!(sim.get_bits("count")?.to_u64(), 5);
//! # Ok::<(), synergy_vlog::VlogError>(())
//! ```

#![deny(missing_docs)]

mod exec;
pub mod ir;
mod lanes;
mod lower;
mod regalloc;
mod sim;
mod wop;
mod wordexec;

pub use ir::{
    binary, concat, slice, unary, word_binary, word_unary, AlwaysProg, Code, CombNode,
    CompiledProgram, MemDecl, NetDecl, Op, SlotRef, Val, MAX_LOOP_ITERS,
};
pub use lanes::Cohort;
pub use sim::{CompiledSim, ExecCounters, Sim, StackSim};

use synergy_vlog::elaborate::ElabModule;
use synergy_vlog::VlogResult;

/// Lowers an elaborated design into the compiled netlist IR.
///
/// # Errors
///
/// Returns [`synergy_vlog::VlogError::Unsupported`] for designs outside the
/// compilable envelope (callers should fall back to the interpreter) and
/// [`synergy_vlog::VlogError::Elaborate`] for malformed designs.
pub fn compile(module: &ElabModule) -> VlogResult<CompiledProgram> {
    lower::lower(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_interp::{BufferEnv, Interpreter, TaskEffect};
    use synergy_vlog::{Bits, VlogError};

    fn compile_src(src: &str, top: &str) -> CompiledProgram {
        compile(&synergy_vlog::compile(src, top).unwrap()).unwrap()
    }

    /// Runs the same design on the interpreter and the compiled engine for
    /// `ticks` clock cycles, asserting bit-identical snapshots and output at
    /// every tick.
    fn assert_lockstep(
        src: &str,
        top: &str,
        clock: &str,
        ticks: usize,
        files: &[(&str, Vec<u64>)],
    ) {
        let design = synergy_vlog::compile(src, top).unwrap();
        let mut interp = Interpreter::new(design.clone());
        let mut sim = CompiledSim::new(compile(&design).unwrap());
        let mut ienv = BufferEnv::new();
        let mut cenv = BufferEnv::new();
        for (path, data) in files {
            ienv.add_file(path.to_string(), data.clone());
            cenv.add_file(path.to_string(), data.clone());
        }
        for t in 0..ticks {
            interp.tick(clock, &mut ienv).unwrap();
            sim.tick(clock, &mut cenv).unwrap();
            assert_eq!(
                interp.save_state(),
                sim.save_state(),
                "snapshots diverge at tick {} for {}",
                t,
                top
            );
            assert_eq!(
                interp.finished(),
                sim.finished(),
                "finish diverges at {}",
                t
            );
        }
        assert_eq!(ienv.output_text(), cenv.output_text());
        assert_eq!(interp.take_effects(), sim.take_effects());
    }

    #[test]
    fn counter_matches_interpreter() {
        assert_lockstep(
            r#"module Counter(input wire clock, output wire [7:0] out);
                   reg [7:0] count = 0;
                   always @(posedge clock) count <= count + 1;
                   assign out = count;
               endmodule"#,
            "Counter",
            "clock",
            300,
            &[],
        );
    }

    #[test]
    fn accessors_by_id_agree_with_accessors_by_name_on_both_machines() {
        // A word net, a wide net, a word memory and a wide memory, each with
        // a continuous reader that a write must wake.
        let prog = compile_src(
            r#"module M(input wire clock, input wire [7:0] code, input wire [99:0] wide);
                   reg [11:0] small [0:3];
                   reg [79:0] big [0:1];
                   wire [7:0] echo = code + 1;
                   wire [99:0] wecho = wide;
                   wire [11:0] first = small[0];
                   wire [79:0] last = big[1];
               endmodule"#,
            "M",
        );
        fn check<M: crate::sim::Machine>(mut sim: crate::sim::Sim<M>) {
            let mut env = BufferEnv::new();
            let (code, wide) = (sim.net_id("code").unwrap(), sim.net_id("wide").unwrap());
            let mem = |sim: &crate::sim::Sim<M>, name: &str| match sim.program().slot(name) {
                Some(SlotRef::Mem(m)) => m,
                other => panic!("{} is {:?}", name, other),
            };
            let (small, big) = (mem(&sim, "small"), mem(&sim, "big"));

            sim.set_net_word(code, 0x1fe); // truncated to the net's 8 bits
            sim.set_net_word(wide, u64::MAX); // zero-extended to its 100
            sim.set_mem_elem(small, 0, &Bits::from_u64(16, 0xfabc));
            sim.set_mem_elem(small, 4, &Bits::from_u64(12, 1)); // past the depth
            sim.set_mem_elem(big, 1, &Bits::from_u128(80, 7 << 70));
            sim.settle(&mut env).unwrap();

            assert_eq!(sim.net_word(code), 0xfe);
            assert_eq!(sim.get_bits("echo").unwrap().to_u64(), 0xff);
            assert_eq!(sim.net_word(wide), u64::MAX);
            assert_eq!(
                sim.get_bits("wecho").unwrap(),
                Bits::from_u64(100, u64::MAX)
            );
            assert_eq!(sim.mem_elem(small, 0), Some(Bits::from_u64(12, 0xabc)));
            assert_eq!(sim.get_bits("first").unwrap().to_u64(), 0xabc);
            assert_eq!(sim.mem_elem(small, 4), None);
            assert_eq!(sim.mem_elem(big, 1), Some(Bits::from_u128(80, 7 << 70)));
            assert_eq!(sim.get_bits("last").unwrap(), Bits::from_u128(80, 7 << 70));
            assert_eq!(
                sim.get_slot(SlotRef::Mem(small)),
                sim.get("small").unwrap(),
                "by slot is by name"
            );
        }
        check(CompiledSim::new(prog.clone()));
        check(StackSim::new(prog));
    }

    #[test]
    fn blocking_vs_nonblocking_matches_interpreter() {
        assert_lockstep(
            r#"module M(input wire clock, output wire [7:0] observed);
                   reg [7:0] a = 0;
                   reg [7:0] b = 0;
                   reg [7:0] seen_mid = 0;
                   always @(posedge clock) begin
                       a = 8'd7;
                       seen_mid = a + b;
                       b <= 8'd3;
                   end
                   assign observed = seen_mid;
               endmodule"#,
            "M",
            "clock",
            5,
            &[],
        );
    }

    #[test]
    fn wide_arithmetic_matches_interpreter() {
        assert_lockstep(
            r#"module M(input wire clock, output wire [31:0] lo);
                   reg [127:0] acc = 128'd1;
                   reg [63:0] x = 64'hdeadbeefcafebabe;
                   always @(posedge clock) begin
                       acc <= acc * 3 + {x, x[15:0]} - (acc >> 5);
                       x <= (x << 1) ^ (x >> 63);
                   end
                   assign lo = acc[31:0];
               endmodule"#,
            "M",
            "clock",
            64,
            &[],
        );
    }

    #[test]
    fn memories_and_case_match_interpreter() {
        assert_lockstep(
            r#"module M(input wire clock, output wire [7:0] dout);
                   reg [7:0] mem [0:15];
                   reg [3:0] addr = 0;
                   reg [1:0] state = 0;
                   always @(posedge clock) begin
                       case (state)
                           0: begin mem[addr] <= addr * 3; state <= 1; end
                           1: begin addr <= addr + 1; state <= 2; end
                           default: state <= 0;
                       endcase
                   end
                   assign dout = mem[addr];
               endmodule"#,
            "M",
            "clock",
            100,
            &[],
        );
    }

    #[test]
    fn for_loops_and_bit_writes_match_interpreter() {
        assert_lockstep(
            r#"module M(input wire clock, output wire [31:0] total);
                   reg [7:0] mem [0:7];
                   reg [31:0] sum = 0;
                   integer i = 0;
                   reg [3:0] nib = 0;
                   always @(posedge clock) begin
                       sum = 0;
                       for (i = 0; i < 8; i = i + 1) begin
                           mem[i] = i * 5 + sum[3:0];
                           sum = sum + mem[i];
                       end
                       nib[2:1] = sum[1:0];
                       nib[0] = sum[7];
                   end
                   assign total = sum;
               endmodule"#,
            "M",
            "clock",
            20,
            &[],
        );
    }

    #[test]
    fn file_io_and_finish_match_interpreter() {
        assert_lockstep(
            r#"module M(input wire clock);
                   integer fd = $fopen("data.bin");
                   reg [31:0] r = 0;
                   reg [127:0] sum = 0;
                   always @(posedge clock) begin
                       $fread(fd, r);
                       if ($feof(fd)) begin
                           $display("sum = ", sum);
                           $finish(3);
                       end else
                           sum <= sum + r;
                   end
               endmodule"#,
            "M",
            "clock",
            12,
            &[("data.bin", vec![10, 20, 30, 40, 50])],
        );
    }

    #[test]
    fn always_star_and_negedge_match_interpreter() {
        assert_lockstep(
            r#"module M(input wire clock, output wire [7:0] biggest);
                   reg [7:0] a = 1;
                   reg [7:0] b = 200;
                   reg [7:0] m = 0;
                   reg [7:0] falls = 0;
                   always @(posedge clock) a <= a + 7;
                   always @(negedge clock) falls <= falls + 1;
                   always @* begin
                       if (a > b) m = a; else m = b;
                   end
                   assign biggest = m;
               endmodule"#,
            "M",
            "clock",
            80,
            &[],
        );
    }

    #[test]
    fn random_and_time_match_interpreter() {
        assert_lockstep(
            r#"module M(input wire clock);
                   reg [31:0] r = 0;
                   reg [63:0] t = 0;
                   always @(posedge clock) begin
                       r <= r ^ $random;
                       t <= t + $time;
                   end
               endmodule"#,
            "M",
            "clock",
            25,
            &[],
        );
    }

    #[test]
    fn concat_lvalues_and_replication_match_interpreter() {
        assert_lockstep(
            r#"module M(input wire clock);
                   reg [7:0] hi = 0;
                   reg [7:0] lo = 1;
                   reg [15:0] w = 16'ha55a;
                   always @(posedge clock) begin
                       {hi, lo} = w + {2{lo[3:0]}};
                       w <= {lo, hi};
                   end
               endmodule"#,
            "M",
            "clock",
            40,
            &[],
        );
    }

    #[test]
    fn save_yield_effects_match_interpreter() {
        assert_lockstep(
            r#"module M(input wire clock);
                   reg [31:0] n = 0;
                   always @(posedge clock) begin
                       $yield;
                       n <= n + 1;
                       if (n == 2) $save("ckpt");
                   end
               endmodule"#,
            "M",
            "clock",
            6,
            &[],
        );
    }

    #[test]
    fn snapshots_cross_restore_between_engines() {
        let src = r#"module Counter(input wire clock, output wire [7:0] out);
                         reg [7:0] count = 0;
                         always @(posedge clock) count <= count + 3;
                         assign out = count;
                     endmodule"#;
        let design = synergy_vlog::compile(src, "Counter").unwrap();
        let mut env = BufferEnv::new();

        // Interpreter state restores into the compiled engine...
        let mut interp = Interpreter::new(design.clone());
        for _ in 0..7 {
            interp.tick("clock", &mut env).unwrap();
        }
        let mut sim = CompiledSim::new(compile(&design).unwrap());
        sim.restore_state(&interp.save_state());
        assert_eq!(sim.get_bits("out").unwrap().to_u64(), 21);
        sim.tick("clock", &mut env).unwrap();

        // ...and back again.
        let mut interp2 = Interpreter::new(design);
        interp2.restore_state(&sim.save_state());
        assert_eq!(interp2.get_bits("count").unwrap().to_u64(), 24);
        assert_eq!(interp2.time(), 8);
    }

    #[test]
    fn unrolled_loops_match_interpreter_with_mid_loop_finish() {
        // $finish fires inside an unrolled loop body: the interpreter runs
        // the step once more and exits, so the induction variable's snapshot
        // value is sensitive to the exact unrolled control flow.
        assert_lockstep(
            r#"module M(input wire clock);
                   reg [31:0] acc = 0;
                   integer i = 0;
                   reg [7:0] rounds = 0;
                   always @(posedge clock) begin
                       for (i = 0; i < 6; i = i + 1) begin
                           acc = acc + i * i;
                           if (acc > 40) $finish(2);
                       end
                       rounds <= rounds + 1;
                   end
               endmodule"#,
            "M",
            "clock",
            8,
            &[],
        );
    }

    #[test]
    fn unrolled_nested_loops_and_wrapping_induction_match_interpreter() {
        assert_lockstep(
            r#"module M(input wire clock, output wire [31:0] out);
                   reg [31:0] grid [0:24];
                   reg [31:0] sum = 0;
                   integer i = 0;
                   integer j = 0;
                   reg [3:0] w = 0;
                   always @(posedge clock) begin
                       sum = 0;
                       for (i = 1; i < 5; i = i + 1)
                           for (j = 0; j < 5; j = j + 1) begin
                               grid[i * 5 + j] = grid[(i - 1) * 5 + j] + i * j;
                               sum = sum + grid[i * 5 + j];
                           end
                       // 4-bit induction variable wraps 14, 15, 0: the trip
                       // count depends on width-exact step arithmetic.
                       for (w = 14; w >= 14; w = w + 1)
                           sum = sum + w;
                   end
                   assign out = sum;
               endmodule"#,
            "M",
            "clock",
            30,
            &[],
        );
    }

    #[test]
    fn nonblocking_indices_in_unrolled_loops_latch_at_update_time() {
        // `mem[i] <= i` inside an unrolled loop: the interpreter evaluates
        // the rhs per iteration but the index at the *update* step, when i
        // holds its exit value — every scheduled store lands on mem[4].
        assert_lockstep(
            r#"module M(input wire clock, output wire [7:0] probe);
                   reg [7:0] mem [0:7];
                   integer i = 0;
                   always @(posedge clock) begin
                       for (i = 0; i < 4; i = i + 1)
                           mem[i] <= i + 1;
                   end
                   assign probe = mem[4];
               endmodule"#,
            "M",
            "clock",
            5,
            &[],
        );
    }

    #[test]
    fn fread_into_memory_element_inside_unrolled_loop() {
        assert_lockstep(
            r#"module M(input wire clock);
                   integer fd = $fopen("burst.bin");
                   reg [31:0] buffer [0:7];
                   reg [31:0] total = 0;
                   integer i = 0;
                   always @(posedge clock) begin
                       for (i = 0; i < 4; i = i + 1)
                           $fread(fd, buffer[i]);
                       total = 0;
                       for (i = 0; i < 4; i = i + 1)
                           total = total + buffer[i];
                   end
               endmodule"#,
            "M",
            "clock",
            6,
            &[("burst.bin", (1..=40).collect())],
        );
    }

    #[test]
    fn runtime_bounded_loops_stay_dynamic_and_match() {
        // The bound reads a register the body's enclosing block updates, so
        // the loop cannot unroll; the dynamic bytecode must still agree.
        assert_lockstep(
            r#"module M(input wire clock, output wire [31:0] out);
                   reg [31:0] n = 1;
                   reg [31:0] acc = 0;
                   integer i = 0;
                   always @(posedge clock) begin
                       for (i = 0; i < n; i = i + 1)
                           acc = acc + i;
                       n <= (n + 1) & 7;
                   end
                   assign out = acc;
               endmodule"#,
            "M",
            "clock",
            40,
            &[],
        );
    }

    #[test]
    fn partial_continuous_drivers_match_interpreter() {
        // Constant-disjoint bit, slice, and concat targets — including two
        // drivers of different regions of the same net — are now inside the
        // compiled envelope.
        assert_lockstep(
            r#"module M(input wire clock, output wire [15:0] bus, output wire [7:0] hi2);
                   reg [7:0] a = 3;
                   reg [7:0] b = 0;
                   wire [15:0] w;
                   wire [7:0] h;
                   wire [7:0] l;
                   // The ternary in the second driver pins the driver-group
                   // jump-rebasing path: merged member bytecode must shift
                   // its branch targets by the preceding members' length.
                   assign w[7:0] = a + b;
                   assign w[15:8] = a[0] ? (a ^ 8'h5a) : (b + 8'd9);
                   assign {h, l} = w + 16'd257;
                   assign bus = w;
                   assign hi2 = h ^ l;
                   always @(posedge clock) begin
                       a <= a + 5;
                       b <= b + 3;
                   end
               endmodule"#,
            "M",
            "clock",
            50,
            &[],
        );
    }

    #[test]
    fn memory_element_continuous_drivers_match_interpreter() {
        assert_lockstep(
            r#"module M(input wire clock, output wire [7:0] out);
                   reg [7:0] x = 1;
                   reg [7:0] mem [0:3];
                   reg [1:0] sel = 0;
                   assign mem[0] = x + 1;
                   assign mem[1] = x * 3;
                   always @(posedge clock) begin
                       // Procedural writes to the driven elements are
                       // re-imposed by the driver, as in the interpreter.
                       mem[0] = 7;
                       mem[2] <= mem[0] + mem[1];
                       x <= x + 1;
                       sel <= sel + 1;
                   end
                   assign out = mem[sel];
               endmodule"#,
            "M",
            "clock",
            40,
            &[],
        );
    }

    #[test]
    fn dynamic_bit_target_single_driver_matches_interpreter() {
        assert_lockstep(
            r#"module M(input wire clock, output wire [7:0] out);
                   reg [2:0] pos = 0;
                   wire [7:0] onehot;
                   assign onehot[pos] = 1;
                   always @(posedge clock) pos <= pos + 3;
                   assign out = onehot;
               endmodule"#,
            "M",
            "clock",
            24,
            &[],
        );
    }

    #[test]
    fn overlapping_partial_drivers_are_rejected() {
        let design = synergy_vlog::compile(
            r#"module M(input wire clock, output wire [7:0] o);
                   reg [7:0] a = 1;
                   assign o[3:0] = a[3:0];
                   assign o[4:2] = a[6:4];
               endmodule"#,
            "M",
        )
        .unwrap();
        assert!(matches!(
            compile(&design),
            Err(VlogError::Unsupported(msg)) if msg.contains("multiple")
        ));

        // A dynamic region next to any other driver is conservatively
        // rejected too (disjointness cannot be proven).
        let design = synergy_vlog::compile(
            r#"module M(input wire clock, input wire [2:0] i, output wire [7:0] o);
                   assign o[i] = 1;
                   assign o[7] = 0;
               endmodule"#,
            "M",
        )
        .unwrap();
        assert!(matches!(compile(&design), Err(VlogError::Unsupported(_))));
    }

    #[test]
    fn bounded_loops_compile_without_loop_counters() {
        // The nw-style dynamic program: every loop has constant bounds, so
        // the lowering must unroll them all — no loop-counter bytecode left.
        let prog = compile_src(
            r#"module M(input wire clock, output wire [31:0] out);
                   reg [31:0] dp [0:80];
                   reg [31:0] best = 0;
                   integer i = 0;
                   integer j = 0;
                   always @(posedge clock) begin
                       for (i = 1; i < 9; i = i + 1)
                           for (j = 1; j < 9; j = j + 1)
                               dp[i * 9 + j] = dp[(i - 1) * 9 + (j - 1)] + i + j;
                       best = dp[80];
                   end
                   assign out = best;
               endmodule"#,
            "M",
        );
        let has_loop_ops = prog.always.iter().any(|a| {
            a.body
                .iter()
                .any(|op| matches!(op, Op::LoopInit(_) | Op::LoopCheck(_)))
        });
        assert!(!has_loop_ops, "constant-bounded loops should fully unroll");
        let const_mem_ops = prog
            .always
            .iter()
            .flat_map(|a| a.body.iter())
            .filter(|op| matches!(op, Op::MemReadConst { .. } | Op::StoreMemConst { .. }))
            .count();
        assert!(
            const_mem_ops >= 128,
            "unrolled memory indices should fold to constant element ops, got {}",
            const_mem_ops
        );
    }

    #[test]
    fn unsupported_constructs_report_fallback_errors() {
        // Multiple continuous drivers of one net.
        let design = synergy_vlog::compile(
            r#"module M(input wire clock, output wire [7:0] o);
                   wire [7:0] a = 1;
                   assign o = a;
                   assign o = a + 1;
               endmodule"#,
            "M",
        )
        .unwrap();
        assert!(matches!(
            compile(&design),
            Err(VlogError::Unsupported(msg)) if msg.contains("multiple")
        ));

        // System calls in continuous assignments defeat dirty-bit scheduling.
        let design = synergy_vlog::compile(
            r#"module M(input wire clock, output wire [31:0] o);
                   assign o = $random;
               endmodule"#,
            "M",
        )
        .unwrap();
        assert!(matches!(compile(&design), Err(VlogError::Unsupported(_))));
    }

    #[test]
    fn self_triggering_designs_error_identically_on_both_engines() {
        // A zero-delay oscillator: every update round re-triggers the
        // level-sensitive block. Neither engine can settle it; both must
        // reject it with the *same* runtime error (error parity is part of
        // the differential contract — and the cap keeps a hostile tenant
        // from wedging the hypervisor).
        let design = synergy_vlog::compile(
            r#"module M(input wire clock);
                   reg f = 0;
                   always @(posedge clock) f <= 1;
                   always @(f) f <= ~f;
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design.clone());
        let mut sim = CompiledSim::new(compile(&design).unwrap());
        let mut env = BufferEnv::new();
        let ierr = interp.tick("clock", &mut env).unwrap_err();
        let cerr = sim.tick("clock", &mut env).unwrap_err();
        assert_eq!(ierr.to_string(), cerr.to_string());
        assert!(ierr.to_string().contains("did not converge"));
    }

    #[test]
    fn combinational_loop_is_rejected() {
        let design = synergy_vlog::compile(
            r#"module M(input wire clock, output wire [7:0] o);
                   wire [7:0] a;
                   wire [7:0] b;
                   assign a = b + 1;
                   assign b = a + 1;
                   assign o = a;
               endmodule"#,
            "M",
        )
        .unwrap();
        assert!(matches!(
            compile(&design),
            Err(VlogError::Unsupported(msg)) if msg.contains("loop")
        ));
    }

    #[test]
    fn ir_is_levelized() {
        let prog = compile_src(
            r#"module M(input wire [7:0] a, output wire [7:0] d);
                   wire [7:0] b = a + 1;
                   wire [7:0] c = b * 2;
                   assign d = c - 1;
               endmodule"#,
            "M",
        );
        assert_eq!(prog.num_comb_nodes(), 3);
        assert_eq!(prog.max_level(), 3);
        assert!(prog.op_count() > 0);
        assert!(prog.slot("d").is_some());
        assert_eq!(prog.num_always(), 0);
        assert!(prog.num_nets() >= 4);
        assert_eq!(prog.num_mems(), 0);
    }

    #[test]
    fn dirty_bits_only_rewake_affected_cones() {
        // Two independent cones; poking one input must not disturb the other.
        let design = synergy_vlog::compile(
            r#"module M(input wire [7:0] a, input wire [7:0] b,
                        output wire [7:0] x, output wire [7:0] y);
                   assign x = a + 1;
                   assign y = b + 1;
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut sim = CompiledSim::new(compile(&design).unwrap());
        let mut env = BufferEnv::new();
        sim.settle(&mut env).unwrap();
        sim.set("a", Bits::from_u64(8, 5)).unwrap();
        sim.settle(&mut env).unwrap();
        assert_eq!(sim.get_bits("x").unwrap().to_u64(), 6);
        assert_eq!(sim.get_bits("y").unwrap().to_u64(), 1);
    }

    #[test]
    fn poking_a_driven_net_rewakes_its_driver() {
        // Writing a continuously driven net must not stick: the next
        // propagation re-imposes the assigned value, as in the interpreter.
        let src = r#"module M(input wire [7:0] a, output wire [7:0] o, output wire [7:0] oo);
                         assign o = a + 1;
                         assign oo = o * 2;
                     endmodule"#;
        let design = synergy_vlog::compile(src, "M").unwrap();
        let mut interp = Interpreter::new(design.clone());
        let mut sim = CompiledSim::new(compile(&design).unwrap());
        let mut env = BufferEnv::new();
        for eng in [true, false] {
            if eng {
                interp.settle(&mut env).unwrap();
                interp.set("o", Bits::from_u64(8, 99)).unwrap();
                interp.settle(&mut env).unwrap();
            } else {
                sim.settle(&mut env).unwrap();
                sim.set("o", Bits::from_u64(8, 99)).unwrap();
                sim.settle(&mut env).unwrap();
            }
        }
        assert_eq!(interp.get_bits("o").unwrap(), sim.get_bits("o").unwrap());
        assert_eq!(sim.get_bits("o").unwrap().to_u64(), 1);
        assert_eq!(sim.get_bits("oo").unwrap().to_u64(), 2);
    }

    #[test]
    fn finish_effect_and_exit_code_surface() {
        let design = synergy_vlog::compile(
            r#"module M(input wire clock);
                   reg [7:0] n = 0;
                   always @(posedge clock) begin
                       n <= n + 1;
                       if (n == 3) $finish(7);
                   end
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut sim = CompiledSim::new(compile(&design).unwrap());
        let mut env = BufferEnv::new();
        for _ in 0..10 {
            sim.tick("clock", &mut env).unwrap();
            if sim.finished().is_some() {
                break;
            }
        }
        assert_eq!(sim.finished(), Some(7));
        assert!(sim
            .take_effects()
            .iter()
            .any(|e| matches!(e, TaskEffect::Finish(7))));
    }
}
