//! # synergy-interp
//!
//! Reference event-driven interpreter for the SYNERGY Verilog subset: the
//! "software engine" of the Cascade/SYNERGY runtime (§2.1 of the paper).
//!
//! The interpreter executes an elaborated design ([`synergy_vlog::elaborate::ElabModule`])
//! with full support for unsynthesizable Verilog: `$display`, file IO, `$finish`,
//! and the SYNERGY extensions `$save`, `$restart`, and `$yield`. System tasks run
//! against a [`SystemEnv`] implementation supplied by the caller, and control-flow
//! effects (save/restart/yield/finish) are surfaced as [`TaskEffect`] values that
//! the runtime consumes.
//!
//! # Example
//!
//! ```
//! use synergy_interp::{BufferEnv, Interpreter};
//! use synergy_vlog::compile;
//!
//! let design = compile(
//!     r#"module Counter(input wire clock, output wire [7:0] out);
//!            reg [7:0] count = 0;
//!            always @(posedge clock) count <= count + 1;
//!            assign out = count;
//!        endmodule"#,
//!     "Counter",
//! )?;
//! let mut interp = Interpreter::new(design);
//! let mut env = BufferEnv::new();
//! for _ in 0..5 {
//!     interp.tick("clock", &mut env)?;
//! }
//! assert_eq!(interp.get_bits("count")?.to_u64(), 5);
//! # Ok::<(), synergy_vlog::VlogError>(())
//! ```

#![warn(missing_docs)]

mod env;
mod interp;
mod value;

pub use env::{
    BufferEnv, EnvImage, EnvMark, EnvView, StreamImage, StreamView, SystemEnv, TaskEffect,
};
pub use interp::{
    apply_binary, eval_expr, expr_to_lvalue, fault_from_targets, lvalue_width, stmt_reads,
    string_lit_bits, task_string_arg, Interpreter, StateSnapshot, Vars,
};
pub use value::Value;

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_vlog::compile;
    use synergy_vlog::Bits;

    fn counter() -> Interpreter {
        let design = compile(
            r#"module Counter(input wire clock, output wire [7:0] out);
                   reg [7:0] count = 0;
                   always @(posedge clock) count <= count + 1;
                   assign out = count;
               endmodule"#,
            "Counter",
        )
        .unwrap();
        Interpreter::new(design)
    }

    #[test]
    fn counter_counts_clock_edges() {
        let mut interp = counter();
        let mut env = BufferEnv::new();
        for _ in 0..10 {
            interp.tick("clock", &mut env).unwrap();
        }
        assert_eq!(interp.get_bits("count").unwrap().to_u64(), 10);
        assert_eq!(interp.get_bits("out").unwrap().to_u64(), 10);
        assert_eq!(interp.time(), 10);
    }

    #[test]
    fn counter_wraps_at_width() {
        let mut interp = counter();
        let mut env = BufferEnv::new();
        for _ in 0..260 {
            interp.tick("clock", &mut env).unwrap();
        }
        assert_eq!(interp.get_bits("count").unwrap().to_u64(), 4);
    }

    #[test]
    fn blocking_vs_nonblocking_semantics() {
        // Mirrors the discussion of Figure 1 in the paper: a blocking write is
        // visible immediately, a non-blocking write only after the update step.
        let design = compile(
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
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        interp.tick("clock", &mut env).unwrap();
        // First tick: a=7 visible immediately, b still 0 when seen_mid computed.
        assert_eq!(interp.get_bits("seen_mid").unwrap().to_u64(), 7);
        assert_eq!(interp.get_bits("b").unwrap().to_u64(), 3);
        interp.tick("clock", &mut env).unwrap();
        // Second tick: b's non-blocking value from tick 1 is now visible.
        assert_eq!(interp.get_bits("seen_mid").unwrap().to_u64(), 10);
    }

    #[test]
    fn figure_one_nonblocking_ordering() {
        // The `r` register from Figure 1: blocking write of y (=2) is visible at
        // once, the non-blocking 3 appears only on the next tick's read.
        let design = compile(
            r#"module M(input wire clock);
                   wire [31:0] x = 1;
                   wire [31:0] y = x + 1;
                   reg [63:0] r = 0;
                   reg [63:0] first = 0;
                   always @(posedge clock) begin
                       first = r;
                       r = y;
                       r <= 3;
                   end
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        interp.tick("clock", &mut env).unwrap();
        assert_eq!(interp.get_bits("first").unwrap().to_u64(), 0);
        assert_eq!(interp.get_bits("r").unwrap().to_u64(), 3);
        interp.tick("clock", &mut env).unwrap();
        // On the second tick the value read at the top of the block is 3.
        assert_eq!(interp.get_bits("first").unwrap().to_u64(), 3);
    }

    #[test]
    fn continuous_assign_chains_propagate() {
        let design = compile(
            r#"module M(input wire [7:0] a, output wire [7:0] d);
                   wire [7:0] b = a + 1;
                   wire [7:0] c = b * 2;
                   assign d = c - 1;
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        interp.set("a", Bits::from_u64(8, 5)).unwrap();
        interp.settle(&mut env).unwrap();
        assert_eq!(interp.get_bits("d").unwrap().to_u64(), 11);
    }

    #[test]
    fn file_io_sum_program_runs_to_completion() {
        // Figure 2 of the paper: sum the values in a file, print, finish.
        let design = compile(
            r#"module M(input wire clock);
                   integer fd = $fopen("data.bin");
                   reg [31:0] r = 0;
                   reg [127:0] sum = 0;
                   always @(posedge clock) begin
                       $fread(fd, r);
                       if ($feof(fd)) begin
                           $display(sum);
                           $finish(0);
                       end else
                           sum <= sum + r;
                   end
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        env.add_file("data.bin", vec![10, 20, 30, 40]);
        let mut ticks = 0;
        while interp.finished().is_none() && ticks < 100 {
            interp.tick("clock", &mut env).unwrap();
            ticks += 1;
        }
        assert_eq!(interp.finished(), Some(0));
        assert_eq!(interp.get_bits("sum").unwrap().to_u64(), 100);
        assert!(env.output_text().contains("100"));
    }

    #[test]
    fn display_effects_are_captured() {
        let design = compile(
            r#"module M(input wire clock);
                   reg [7:0] n = 41;
                   always @(posedge clock) begin
                       n = n + 1;
                       $display("n=", n);
                   end
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        interp.tick("clock", &mut env).unwrap();
        assert_eq!(env.output_text(), "n=42\n");
    }

    #[test]
    fn save_and_restart_effects_surface() {
        let design = compile(
            r#"module M(input wire clock, input wire do_save);
                   reg [31:0] n = 0;
                   always @(posedge clock) begin
                       n <= n + 1;
                       if (do_save) $save("checkpoint");
                   end
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        interp.tick("clock", &mut env).unwrap();
        assert!(interp.take_effects().is_empty());
        interp.set("do_save", Bits::from_u64(1, 1)).unwrap();
        interp.tick("clock", &mut env).unwrap();
        let effects = interp.take_effects();
        assert_eq!(effects, vec![TaskEffect::Save("checkpoint".into())]);
    }

    #[test]
    fn state_snapshot_round_trips() {
        let mut interp = counter();
        let mut env = BufferEnv::new();
        for _ in 0..7 {
            interp.tick("clock", &mut env).unwrap();
        }
        let snapshot = interp.save_state();
        assert_eq!(snapshot.values["count"].as_scalar().to_u64(), 7);
        assert!(snapshot.total_bits() >= 8);

        // Restore into a fresh instance and continue: counts resume from 7.
        let mut fresh = counter();
        fresh.restore_state(&snapshot);
        for _ in 0..3 {
            fresh.tick("clock", &mut env).unwrap();
        }
        assert_eq!(fresh.get_bits("count").unwrap().to_u64(), 10);
    }

    #[test]
    fn memories_read_and_write() {
        let design = compile(
            r#"module M(input wire clock, input wire [3:0] addr, input wire [7:0] din,
                        input wire we, output wire [7:0] dout);
                   reg [7:0] mem [0:15];
                   always @(posedge clock) if (we) mem[addr] <= din;
                   assign dout = mem[addr];
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        interp.set("addr", Bits::from_u64(4, 3)).unwrap();
        interp.set("din", Bits::from_u64(8, 0xab)).unwrap();
        interp.set("we", Bits::from_u64(1, 1)).unwrap();
        interp.tick("clock", &mut env).unwrap();
        interp.set("we", Bits::from_u64(1, 0)).unwrap();
        interp.settle(&mut env).unwrap();
        assert_eq!(interp.get_bits("dout").unwrap().to_u64(), 0xab);
    }

    #[test]
    fn case_statement_state_machine() {
        let design = compile(
            r#"module M(input wire clock, output wire [1:0] out);
                   reg [1:0] s = 0;
                   always @(posedge clock)
                       case (s)
                           0: s <= 1;
                           1: s <= 2;
                           2: s <= 0;
                           default: s <= 0;
                       endcase
                   assign out = s;
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        let mut seen = Vec::new();
        for _ in 0..6 {
            interp.tick("clock", &mut env).unwrap();
            seen.push(interp.get_bits("s").unwrap().to_u64());
        }
        assert_eq!(seen, vec![1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn for_loops_execute_in_one_tick() {
        let design = compile(
            r#"module M(input wire clock, output wire [31:0] total);
                   reg [7:0] mem [0:7];
                   reg [31:0] sum = 0;
                   integer i = 0;
                   reg [0:0] primed = 0;
                   always @(posedge clock) begin
                       if (!primed) begin
                           for (i = 0; i < 8; i = i + 1)
                               mem[i] = i * 2;
                           primed = 1;
                       end else begin
                           sum = 0;
                           for (i = 0; i < 8; i = i + 1)
                               sum = sum + mem[i];
                       end
                   end
                   assign total = sum;
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        interp.tick("clock", &mut env).unwrap();
        interp.tick("clock", &mut env).unwrap();
        assert_eq!(interp.get_bits("total").unwrap().to_u64(), 56);
    }

    #[test]
    fn fork_join_executes_all_branches() {
        let design = compile(
            r#"module M(input wire clock);
                   reg [7:0] a = 0;
                   reg [7:0] b = 0;
                   always @(posedge clock) fork
                       a <= a + 1;
                       b <= b + 2;
                   join
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        interp.tick("clock", &mut env).unwrap();
        assert_eq!(interp.get_bits("a").unwrap().to_u64(), 1);
        assert_eq!(interp.get_bits("b").unwrap().to_u64(), 2);
    }

    #[test]
    fn always_star_reacts_to_input_changes() {
        let design = compile(
            r#"module M(input wire [7:0] a, input wire [7:0] b, output wire [7:0] biggest);
                   reg [7:0] m = 0;
                   always @* begin
                       if (a > b) m = a; else m = b;
                   end
                   assign biggest = m;
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        interp.set("a", Bits::from_u64(8, 9)).unwrap();
        interp.set("b", Bits::from_u64(8, 4)).unwrap();
        interp.settle(&mut env).unwrap();
        assert_eq!(interp.get_bits("biggest").unwrap().to_u64(), 9);
        interp.set("b", Bits::from_u64(8, 200)).unwrap();
        interp.settle(&mut env).unwrap();
        assert_eq!(interp.get_bits("biggest").unwrap().to_u64(), 200);
    }

    #[test]
    fn negedge_blocks_fire_on_falling_edge() {
        let design = compile(
            r#"module M(input wire clock);
                   reg [7:0] rises = 0;
                   reg [7:0] falls = 0;
                   always @(posedge clock) rises <= rises + 1;
                   always @(negedge clock) falls <= falls + 1;
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        for _ in 0..4 {
            interp.tick("clock", &mut env).unwrap();
        }
        assert_eq!(interp.get_bits("rises").unwrap().to_u64(), 4);
        assert_eq!(interp.get_bits("falls").unwrap().to_u64(), 4);
    }

    #[test]
    fn finish_stops_execution() {
        let design = compile(
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
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        for _ in 0..10 {
            interp.tick("clock", &mut env).unwrap();
            if interp.finished().is_some() {
                break;
            }
        }
        assert_eq!(interp.finished(), Some(7));
        // n stopped advancing once $finish executed.
        assert!(interp.get_bits("n").unwrap().to_u64() <= 4);
    }

    #[test]
    fn undeclared_variable_errors() {
        let mut interp = counter();
        assert!(interp.get_bits("nope").is_err());
        assert!(interp.set("nope", Bits::from_u64(1, 0)).is_err());
    }

    #[test]
    fn concat_lvalue_assignment() {
        let design = compile(
            r#"module M(input wire clock, input wire [15:0] in);
                   reg [7:0] hi = 0;
                   reg [7:0] lo = 0;
                   always @(posedge clock) {hi, lo} = in;
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        interp.set("in", Bits::from_u64(16, 0xa55a)).unwrap();
        interp.tick("clock", &mut env).unwrap();
        assert_eq!(interp.get_bits("hi").unwrap().to_u64(), 0xa5);
        assert_eq!(interp.get_bits("lo").unwrap().to_u64(), 0x5a);
    }

    #[test]
    fn random_and_time_functions() {
        let design = compile(
            r#"module M(input wire clock);
                   reg [31:0] r = 0;
                   reg [63:0] t = 0;
                   always @(posedge clock) begin
                       r <= $random;
                       t <= $time;
                   end
               endmodule"#,
            "M",
        )
        .unwrap();
        let mut interp = Interpreter::new(design);
        let mut env = BufferEnv::new();
        interp.tick("clock", &mut env).unwrap();
        interp.tick("clock", &mut env).unwrap();
        assert!(interp.get_bits("r").unwrap().to_u64() != 0);
        assert_eq!(interp.get_bits("t").unwrap().to_u64(), 1);
    }
}
