//! Correctness harness for the optimization pipeline: every design runs in
//! lockstep on the reference interpreter and, optimized and not, on the
//! stack oracle (which has no fast paths and no fused ops) and the compiled
//! engine, asserting bit-identical snapshots, output, and effects at every
//! tick. A proptest leg checks that *any* subset of passes is
//! snapshot-identical to `O0`.

use proptest::prelude::*;
use synergy_codegen::{CompiledSim, Op, StackSim};
use synergy_interp::{BufferEnv, Interpreter};
use synergy_opt::{optimize_with_passes, OptReport, PASS_NAMES};

/// All tricky-corner designs, shared between the lockstep tests and the
/// pass-subset proptest.
const CORPUS: &[(&str, &str, &str, usize)] = &[
    (
        "ternaries",
        r#"module M(input wire clock, output wire [7:0] out);
               reg [7:0] a = 3;
               reg [7:0] b = 250;
               wire [7:0] m = (a > b) ? a : b;
               wire [7:0] n = a[0] ? (m + 1) : (m - 1);
               always @(posedge clock) begin
                   a <= a + 7;
                   if (b > 8'd128) b <= b - 3; else b <= b + 9;
               end
               assign out = m ^ n;
           endmodule"#,
        "clock",
        200,
    ),
    (
        "common_subexpressions",
        r#"module M(input wire clock, output wire [31:0] out);
               reg [15:0] x = 1;
               reg [15:0] y = 2;
               wire [31:0] p = (x * y) + (x * y) + ((x * y) >> 3);
               reg [31:0] acc = 0;
               always @(posedge clock) begin
                   acc <= acc + (x + y) * (x + y);
                   x <= x + 3;
                   y <= y ^ (x + y) * (x + y);
               end
               assign out = p + acc;
           endmodule"#,
        "clock",
        150,
    ),
    (
        "strength_candidates",
        r#"module M(input wire clock, output wire [31:0] out);
               reg [31:0] v = 7;
               wire [31:0] a = v * 8;
               wire [31:0] b = v / 4;
               wire [31:0] c = v % 16;
               wire [31:0] d = (v + 0) | 0;
               wire [31:0] e = v * 1;
               wire [31:0] f = v * 0;
               always @(posedge clock) v <= v * 3 + 1;
               assign out = a + b + c + d + e + f;
           endmodule"#,
        "clock",
        100,
    ),
    (
        "dead_and_double_stores",
        r#"module M(input wire clock, output wire [15:0] out);
               reg [15:0] r = 0;
               reg [15:0] s = 0;
               reg [7:0] mem [0:3];
               always @(posedge clock) begin
                   r = 16'd1;
                   r = 16'd2;
                   r = r + s;
                   mem[1] = 8'd9;
                   mem[1] = r[7:0];
                   s <= s + mem[1];
               end
               assign out = r + s;
           endmodule"#,
        "clock",
        120,
    ),
    (
        "const_and_copy_nets",
        r#"module M(input wire clock, output wire [15:0] out);
               wire [15:0] k = 16'h1234;
               wire [15:0] kk = k;
               reg [15:0] r = 0;
               wire [15:0] sum = kk + r;
               always @(posedge clock) r <= r + kk[3:0];
               assign out = sum;
           endmodule"#,
        "clock",
        100,
    ),
    (
        "fusable_plumbing",
        r#"module M(input wire clock, output wire [31:0] out);
               reg [15:0] x = 5;
               wire [31:0] t1 = x * 3;
               wire [31:0] t2 = t1 + 7;
               wire [31:0] t3 = t2 ^ (t2 >> 2);
               wire [31:0] unused = t2 * 99;
               always @(posedge clock) x <= x + 11;
               assign out = t3;
           endmodule"#,
        "clock",
        120,
    ),
    (
        "nb_latch_boundary",
        r#"module M(input wire clock, output wire [15:0] out);
               reg [15:0] a = 1;
               reg [15:0] b = 0;
               reg [15:0] seen = 0;
               always @(posedge clock) begin
                   // a+b is read, a is NB-assigned, then a+b is read again:
                   // both reads must see the PRE-latch a.
                   seen = a + b;
                   a <= a + 5;
                   seen = seen + (a + b);
                   b <= seen[7:0];
               end
               assign out = seen;
           endmodule"#,
        "clock",
        150,
    ),
    (
        "guards_and_star",
        r#"module M(input wire clock, output wire [7:0] out);
               reg [7:0] div = 0;
               reg [7:0] cnt = 0;
               reg [7:0] m = 0;
               wire gate = div[1];
               always @(posedge clock) div <= div + 1;
               always @(posedge gate) cnt <= cnt + 1;
               always @* m = cnt > div ? cnt : div;
               assign out = m;
           endmodule"#,
        "clock",
        200,
    ),
    (
        "finish_and_effects",
        r#"module M(input wire clock);
               reg [31:0] n = 0;
               always @(posedge clock) begin
                   $yield;
                   n <= n + 1;
                   if (n == 3) $save("ckpt");
                   if (n == 40) $finish(5);
               end
           endmodule"#,
        "clock",
        50,
    ),
    (
        "file_io_loops_mems",
        r#"module M(input wire clock, output wire [31:0] out);
               integer fd = $fopen("data.bin");
               reg [31:0] buffer [0:7];
               reg [31:0] total = 0;
               integer i = 0;
               always @(posedge clock) begin
                   for (i = 0; i < 4; i = i + 1)
                       $fread(fd, buffer[i]);
                   total = 0;
                   for (i = 0; i < 4; i = i + 1)
                       total = total + buffer[i] * 4 + (buffer[i] % 8);
                   if ($feof(fd)) $finish(0);
               end
               assign out = total;
           endmodule"#,
        "clock",
        20,
    ),
    (
        "wide_values",
        r#"module M(input wire clock, output wire [31:0] lo);
               reg [127:0] acc = 128'd1;
               wire [127:0] dbl = acc * 2;
               wire [127:0] same = dbl + dbl;
               always @(posedge clock) acc <= same - (acc >> 3) + 1;
               assign lo = acc[31:0];
           endmodule"#,
        "clock",
        80,
    ),
    (
        "nb_direct_candidate",
        r#"module M(input wire clock, output wire [15:0] out);
               // Single always block; a and b are only observed through
               // their own comb cone, which nothing else reads — the
               // nbdirect pass may turn both latches into direct stores.
               reg [15:0] a = 1;
               reg [15:0] b = 2;
               wire [15:0] s = a + b;
               wire [15:0] t = (s << 1) ^ a;
               always @(posedge clock) begin
                   a <= a + 3;
                   b <= b ^ s;
               end
               assign out = t;
           endmodule"#,
        "clock",
        200,
    ),
    (
        "nb_cross_block_observer",
        r#"module M(input wire clock, output wire [15:0] out);
               // p is read by the negedge block, so its latch delay IS
               // observable and must survive; q is only read by its own
               // single-fire owner, so it may convert.
               reg [7:0] p = 0;
               reg [15:0] q = 0;
               always @(posedge clock) p <= p + 1;
               always @(negedge clock) q <= q + p;
               assign out = q + p;
           endmodule"#,
        "clock",
        200,
    ),
    (
        "one_arm_if_stores",
        r#"module M(input wire clock, output wire [15:0] out);
               reg [15:0] r = 0;
               reg [7:0] mem [0:3];
               reg [15:0] acc = 0;
               always @(posedge clock) begin
                   if (r[0]) r = r + 3;
                   if (r[1]) mem[2] = r[7:0];
                   if (r[2]) acc <= acc + 1;
                   r = r + 1;
               end
               assign out = r + acc + mem[2];
           endmodule"#,
        "clock",
        200,
    ),
    (
        // Shapes the word machine runs as one fused op each once their
        // operands ride in registers: shift-then-truncate (a slice, zero
        // from bit 64 up), compare-select over registers and over
        // immediates, select between immediates.
        "fused_word_ops",
        r#"module M(input wire clock, output wire [63:0] out);
               reg [63:0] w = 64'hfedcba9876543210;
               reg [7:0] a = 3;
               reg [7:0] b = 250;
               reg [3:0] n = 9;
               reg [7:0] lo = 0;
               reg [7:0] z = 0;
               reg [7:0] m = 0;
               reg [7:0] k = 0;
               reg [7:0] s = 0;
               always @(posedge clock) begin
                   a = a + 7;
                   b = b ^ (a << 1);
                   n = n + 5;
                   lo = w >> 12;
                   z = lo;
                   lo = w >> 70;
                   z = z + lo;
                   lo = (w + 64'd1) >> 57;
                   z = z ^ lo;
                   lo = 0;
                   m = (a < b) ? a : b;
                   m = m + ((n >= a) ? b : a);
                   k = (a == b) ? 8'd0 : 8'd3;
                   s = m[0] ? 8'd5 : 8'd9;
                   a = a + k;
                   b = b + s + m;
                   n = n ^ z[3:0];
                   w = {w[62:0], w[63] ^ w[3]};
               end
               assign out = w ^ {a, b, z, m};
           endmodule"#,
        "clock",
        200,
    ),
    (
        // A `Select`'s arms keep their own widths, so its width is known
        // only when *they* agree. `strength` once compared the then-arm
        // with the condition instead: here both are 4 bits, it took the
        // 8-bit else-arm for 4 too, and `* 4'd0` became a 4-bit zero whose
        // complement is 15, not 255.
        "select_arms_of_different_widths",
        r#"module M(input wire clock, output wire [7:0] out);
               reg [3:0] c = 0;
               reg [3:0] x = 3;
               reg [7:0] y = 200;
               reg [7:0] w = 0;
               always @(posedge clock) begin
                   w = ~((c ? x : y) * 4'd0);
                   c = c + 1;
               end
               assign out = w;
           endmodule"#,
        "clock",
        20,
    ),
];

/// One hand-written design per hazard of block-local scalar promotion
/// (`cse` reading a value the block wrote back from a register instead of
/// its net or memory element). The fuzz generator never emits some of these
/// shapes — an out-of-range constant index, for one — so they live here.
const HAZARDS: &[(&str, &str, &str, usize)] = &[
    (
        // The register must hold the value *as stored*: 8 bits of 32.
        "truncating_store_then_read",
        r#"module M(input wire clock, output wire [31:0] out);
               reg [31:0] wide = 32'h12345678;
               reg [7:0] x = 0;
               reg [31:0] y = 0;
               always @(posedge clock) begin
                   x = wide;
                   y = x;
                   x = wide >> 4;
                   y = y + x + (x << 8);
                   wide = wide * 3 + 1;
               end
               assign out = y;
           endmodule"#,
        "clock",
        80,
    ),
    (
        // ...and zero-extended: the 8-bit sum wraps before it widens.
        "widening_store_then_read",
        r#"module M(input wire clock, output wire [31:0] out);
               reg [7:0] n = 250;
               reg [31:0] x = 0;
               reg [31:0] y = 0;
               always @(posedge clock) begin
                   x = n + 8'd9;
                   y = x + 32'hffffff00;
                   x = n;
                   y = y ^ (x << 4);
                   n = n + 3;
               end
               assign out = y;
           endmodule"#,
        "clock",
        80,
    ),
    (
        // A bit or part-select store between the store and the read
        // redefines the net: the read must come from the net again.
        "partial_stores_between_store_and_read",
        r#"module M(input wire clock, output wire [7:0] out);
               reg [7:0] s = 1;
               reg [7:0] x = 0;
               reg [7:0] y = 0;
               reg [7:0] z = 0;
               reg [2:0] hi = 6;
               always @(posedge clock) begin
                   x = s + 1;
                   x[3] = s[0];
                   y = x;
                   x = s;
                   x[hi:5] = s[1:0];
                   z = x;
                   x = y ^ z;
                   y = x + 1;
                   x = 0;
                   s = s + 3;
               end
               assign out = y + z;
           endmodule"#,
        "clock",
        100,
    ),
    (
        // Constant store then dynamic read (may or may not alias), dynamic
        // store then constant read (must not be forwarded).
        "const_and_dynamic_memory_accesses",
        r#"module M(input wire clock, output wire [7:0] out);
               reg [7:0] m [0:3];
               reg [1:0] i = 0;
               reg [7:0] a = 0;
               reg [7:0] b = 0;
               reg [7:0] c = 0;
               reg [7:0] d = 0;
               always @(posedge clock) begin
                   a = a + 1;
                   m[1] = a;
                   b = m[i];
                   m[i] = a + 7;
                   c = m[1];
                   m[2] = c;
                   d = m[2] + m[1] + m[0];
                   i = i + 1;
               end
               assign out = b + c + d;
           endmodule"#,
        "clock",
        64,
    ),
    (
        // The `m[5]` reproducer: a constant store past the depth is dropped
        // and the constant read past the depth is zero, so `c` is 2 — not
        // `a + 2`, which value numbering once made of it.
        "out_of_range_constant_store_and_read",
        r#"module M(input wire clock, output wire [7:0] out);
               reg [7:0] m [0:3];
               reg [7:0] a = 0;
               reg [7:0] b = 0;
               reg [7:0] c = 0;
               reg [7:0] d = 0;
               always @(posedge clock) begin
                   a = a + 1;
                   b = a + 2;
                   m[5] = a;
                   c = m[5] + 2;
                   m[4] = b;
                   m[4] = c;
                   d = m[4] + m[3];
                   m[3] = d + a;
               end
               assign out = b + c + d;
           endmodule"#,
        "clock",
        40,
    ),
    (
        // A procedural write to a continuously driven element sticks until
        // the driver runs again — after the block — so the read in between
        // sees the written value, from a register or not.
        "procedural_write_to_a_driven_slot",
        r#"module M(input wire clock, output wire [7:0] out);
               reg [7:0] x = 1;
               reg [7:0] y = 0;
               reg [7:0] mem [0:3];
               assign mem[0] = x + 1;
               always @(posedge clock) begin
                   mem[0] = 7;
                   y = mem[0] + x;
                   mem[0] = y;
                   mem[1] = mem[0] + 1;
                   x = x + mem[1];
               end
               assign out = y + mem[0];
           endmodule"#,
        "clock",
        60,
    ),
    (
        // `$display` reads a promoted value mid-block; `$yield`, `$save`
        // and `$finish` between a store and its read end the block, and with
        // it the register's validity.
        "tasks_between_store_and_read",
        r#"module M(input wire clock);
               reg [15:0] n = 0;
               reg [15:0] x = 0;
               reg [15:0] y = 0;
               always @(posedge clock) begin
                   x = n * 3;
                   $display("x=%d", x);
                   x = x + 1;
                   $yield;
                   y = x;
                   x = y + 2;
                   if (n == 5) $save("ckpt");
                   y = y + x;
                   x = 0;
                   if (n == 30) $finish(3);
                   y = y + x;
                   n = n + 1;
               end
           endmodule"#,
        "clock",
        40,
    ),
    (
        // Too long to unroll: the loop stays a loop, and its `LoopCheck` is
        // a barrier no value crosses in a register.
        "loop_that_stays_dynamic",
        r#"module M(input wire clock, output wire [31:0] out);
               integer i = 0;
               reg [31:0] acc = 0;
               reg [31:0] t = 0;
               always @(posedge clock) begin
                   t = acc + 1;
                   for (i = 0; i < 300; i = i + 1) begin
                       t = t + i;
                       acc = t ^ acc;
                       t = acc + 1;
                   end
                   acc = t;
               end
               assign out = acc;
           endmodule"#,
        "clock",
        12,
    ),
    (
        // Arms too long to if-convert: the store after the ternary is its
        // block's first op, and a tee inserted there would be skipped by
        // the arm that jumps to the join.
        "block_leading_store_at_a_ternary_join",
        r#"module M(input wire clock, output wire [15:0] out);
               reg [15:0] a = 3;
               reg [15:0] b = 5;
               reg [15:0] x = 0;
               reg [15:0] y = 0;
               always @(posedge clock) begin
                   x = a[0] ? ((a * 3 + b) ^ (a >> 1) ^ (b << 2)) + 7
                            : ((b * 5 + a) ^ (b >> 2) ^ (a << 1)) + 9;
                   y = x + 1;
                   x = y ^ a;
                   a = a + x;
                   b = b + y;
                   x = 0;
               end
               assign out = a ^ b;
           endmodule"#,
        "clock",
        80,
    ),
    (
        // Wider than a word: never promoted.
        "wide_register_is_not_promoted",
        r#"module M(input wire clock, output wire [31:0] out);
               reg [99:0] w = 100'd1;
               reg [99:0] v = 0;
               always @(posedge clock) begin
                   w = w * 3 + 1;
                   v = w + (w << 40);
                   w = v ^ w;
                   v = v + w;
                   w = w >> 1;
               end
               assign out = v[31:0] ^ v[99:68];
           endmodule"#,
        "clock",
        60,
    ),
];

fn files_for(name: &str) -> Vec<(String, Vec<u64>)> {
    if name == "file_io_loops_mems" {
        vec![("data.bin".to_string(), (1..=40).collect())]
    } else {
        Vec::new()
    }
}

/// Runs one design on the interpreter and on both compiled machines (the
/// stack oracle and the word machine), each over the program as lowered and
/// as optimized with `passes`, asserting lockstep equality at every tick.
/// Returns the optimizer report.
fn run_lockstep(entry: &(&str, &str, &str, usize), passes: &[&str]) -> OptReport {
    let (name, src, clock, ticks) = *entry;
    let design = synergy_vlog::compile(src, "M").unwrap();
    let base = synergy_codegen::compile(&design).unwrap();
    let mut opt_prog = base.clone();
    let report = optimize_with_passes(&mut opt_prog, passes);

    let env = || {
        let mut env = BufferEnv::new();
        for (path, data) in files_for(name) {
            env.add_file(path, data);
        }
        env
    };
    let mut interp = Interpreter::new(design);
    let mut ienv = env();
    let mut o0 = (CompiledSim::new(base.clone()), env());
    let mut o0_stack = (StackSim::new(base), env());
    let mut opt = (CompiledSim::new(opt_prog.clone()), env());
    let mut opt_stack = (StackSim::new(opt_prog), env());
    for t in 0..ticks {
        interp.tick(clock, &mut ienv).unwrap();
        let want = interp.save_state();
        o0.0.tick(clock, &mut o0.1).unwrap();
        o0_stack.0.tick(clock, &mut o0_stack.1).unwrap();
        opt.0.tick(clock, &mut opt.1).unwrap();
        opt_stack.0.tick(clock, &mut opt_stack.1).unwrap();
        let got = [
            ("O0 word machine", o0.0.save_state(), o0.0.finished()),
            (
                "O0 stack oracle",
                o0_stack.0.save_state(),
                o0_stack.0.finished(),
            ),
            (
                "optimized word machine",
                opt.0.save_state(),
                opt.0.finished(),
            ),
            (
                "optimized stack oracle",
                opt_stack.0.save_state(),
                opt_stack.0.finished(),
            ),
        ];
        for (who, state, finished) in got {
            assert_eq!(
                want, state,
                "{}: {} diverges from the interpreter at tick {} (passes {:?})",
                name, who, t, passes
            );
            assert_eq!(interp.finished(), finished, "{}: {} finish", name, who);
        }
    }
    let want_effects = interp.take_effects();
    for (who, text, effects) in [
        ("O0 word machine", o0.1.output_text(), o0.0.take_effects()),
        (
            "O0 stack oracle",
            o0_stack.1.output_text(),
            o0_stack.0.take_effects(),
        ),
        (
            "optimized word machine",
            opt.1.output_text(),
            opt.0.take_effects(),
        ),
        (
            "optimized stack oracle",
            opt_stack.1.output_text(),
            opt_stack.0.take_effects(),
        ),
    ] {
        assert_eq!(ienv.output_text(), text, "{}: {} output", name, who);
        assert_eq!(want_effects, effects, "{}: {} effects", name, who);
    }
    report
}

#[test]
fn full_pipeline_matches_interpreter_on_corpus() {
    let mut any_reverted = Vec::new();
    for entry in CORPUS {
        let report = run_lockstep(entry, &PASS_NAMES);
        for p in &report.passes {
            if p.reverted {
                any_reverted.push(format!("{}: {}", entry.0, p.name));
            }
        }
    }
    assert!(
        any_reverted.is_empty(),
        "passes were reverted (legal but indicates a pass bug): {:?}",
        any_reverted
    );
}

#[test]
fn each_pass_alone_matches_interpreter_on_corpus() {
    for pass in PASS_NAMES {
        for entry in CORPUS {
            run_lockstep(entry, &[pass]);
        }
    }
}

#[test]
fn pipeline_actually_optimizes() {
    // The pipeline must shrink its target patterns, not just be harmless.
    let fires = |name: &str, min: u64| {
        let entry = CORPUS.iter().find(|e| e.0 == name).unwrap();
        let design = synergy_vlog::compile(entry.1, "M").unwrap();
        let mut prog = synergy_codegen::compile(&design).unwrap();
        let report = synergy_opt::optimize(&mut prog);
        assert!(
            report.total_rewrites() >= min,
            "{}: expected >= {} rewrites, report: {:?}",
            name,
            min,
            report.passes
        );
        report
    };
    fires("ternaries", 1);
    fires("common_subexpressions", 2);
    fires("strength_candidates", 3);
    fires("dead_and_double_stores", 1);
    fires("const_and_copy_nets", 1);
    let r = fires("fusable_plumbing", 2);
    let dce = r.passes.iter().find(|p| p.name == "dce").unwrap();
    assert!(dce.rewrites >= 1, "unused wire cone should be removed");
}

#[test]
fn dce_keeps_guard_read_and_register_nets() {
    // The `gate` net feeds a posedge guard; its driver must survive even
    // though no comb node reads it. Registers survive unconditionally
    // (snapshots and $save capture them).
    let entry = CORPUS.iter().find(|e| e.0 == "guards_and_star").unwrap();
    let design = synergy_vlog::compile(entry.1, "M").unwrap();
    let mut prog = synergy_codegen::compile(&design).unwrap();
    let synergy_codegen::SlotRef::Net(gate) = prog.slot("gate").expect("gate net exists") else {
        panic!("gate is a net");
    };
    synergy_opt::optimize_with_passes(&mut prog, &["dce"]);
    let still_driven = prog.comb.iter().any(|n| {
        n.code
            .iter()
            .any(|op| matches!(op, synergy_codegen::Op::StoreNet(s) if *s == gate))
    });
    assert!(still_driven, "guard-read net lost its driver");
}

#[test]
fn cse_does_not_merge_reads_across_nb_latch() {
    // Behavioral check of the NB rule: `a + b` before and after `a <= ...`
    // must both see the pre-latch value — which CSE exploits (both reads
    // merge) precisely BECAUSE NbSchedule does not change net state. The
    // lockstep harness proves the merged program still matches.
    let entry = CORPUS.iter().find(|e| e.0 == "nb_latch_boundary").unwrap();
    run_lockstep(entry, &["cse"]);
    // And with a blocking store between the reads, CSE must NOT merge:
    // exercised by `dead_and_double_stores` (r = ...; r = r + s).
    let entry = CORPUS
        .iter()
        .find(|e| e.0 == "dead_and_double_stores")
        .unwrap();
    run_lockstep(entry, &["cse"]);
}

#[test]
fn nbdirect_converts_only_provably_unobservable_latches() {
    let schedules_left = |name: &str| {
        let entry = CORPUS.iter().find(|e| e.0 == name).unwrap();
        let design = synergy_vlog::compile(entry.1, "M").unwrap();
        let mut prog = synergy_codegen::compile(&design).unwrap();
        optimize_with_passes(&mut prog, &["nbdirect"]);
        prog.always
            .iter()
            .flat_map(|a| a.body.iter())
            .filter(|op| matches!(op, synergy_codegen::Op::NbSchedule(_)))
            .count()
    };
    // Both latches in the single-block design convert.
    assert_eq!(schedules_left("nb_direct_candidate"), 0);
    // p is observed cross-block and must keep its latch; q converts.
    assert_eq!(schedules_left("nb_cross_block_observer"), 1);
    // The read-after-schedule latch must survive: the body reads `a + b`
    // after `a <= ...`, so a's latch delay is observable. b's schedule is
    // the body's last op with no other observer, so it still converts.
    assert_eq!(schedules_left("nb_latch_boundary"), 1);
}

#[test]
fn fused_word_ops_are_emitted_and_agree_with_the_stack_oracle() {
    // `run_lockstep` holds the word machine to the stack oracle, which has
    // no fused ops; this pins that the design really reaches each new one.
    let entry = CORPUS.iter().find(|e| e.0 == "fused_word_ops").unwrap();
    run_lockstep(entry, &PASS_NAMES);
    let design = synergy_vlog::compile(entry.1, "M").unwrap();
    let mut prog = synergy_codegen::compile(&design).unwrap();
    synergy_opt::optimize(&mut prog);
    let dump = CompiledSim::new(prog).dump_word_programs();
    for op in ["SliceW", "NetSliceW", "CmpSelW", "CmpSelImmW", "SelImmW"] {
        assert!(
            dump.contains(&format!("  {} {{", op)),
            "no {} in:\n{}",
            op,
            dump
        );
    }
}

#[test]
fn promotion_hazards_agree_four_way() {
    // The whole pipeline, then the bisect legs: `cse` alone leaves every
    // store in place, `cse` + `dse` deletes the ones promotion made dead —
    // each also behind `finish`, without which a statement is a block and
    // little is promoted.
    for entry in HAZARDS {
        for passes in [
            &PASS_NAMES[..],
            &["cse"],
            &["cse", "dse"],
            &["finish", "cse"],
            &["finish", "cse", "dse"],
        ] {
            let report = run_lockstep(entry, passes);
            assert!(
                !report.any_reverted(),
                "{}: a pass reverted under {:?}",
                entry.0,
                passes
            );
        }
    }
}

/// The `always` body of a hazard design after the named passes.
fn hazard_body(name: &str, passes: &[&str]) -> Vec<Op> {
    let entry = HAZARDS.iter().find(|e| e.0 == name).unwrap();
    let design = synergy_vlog::compile(entry.1, "M").unwrap();
    let mut prog = synergy_codegen::compile(&design).unwrap();
    optimize_with_passes(&mut prog, passes);
    prog.always[0].body.clone()
}

#[test]
fn promotion_fires_where_it_should_and_only_there() {
    let reads = |body: &[Op], net: u32| {
        body.iter()
            .filter(|op| matches!(op, Op::PushNet(n) if *n == net))
            .count()
    };
    let net_of = |name: &str, var: &str| {
        let entry = HAZARDS.iter().find(|e| e.0 == name).unwrap();
        let design = synergy_vlog::compile(entry.1, "M").unwrap();
        let prog = synergy_codegen::compile(&design).unwrap();
        match prog.slot(var) {
            Some(synergy_codegen::SlotRef::Net(n)) => n,
            other => panic!("{}: {:?}", var, other),
        }
    };
    // Promoted: the read between the two stores of `x` comes from a
    // register, so `dse` deletes the first store; the reads after the last
    // store stay net reads (promoting them would keep the store *and* add a
    // register operand).
    let name = "truncating_store_then_read";
    let x = net_of(name, "x");
    let before = hazard_body(name, &[]);
    let after = hazard_body(name, &["finish", "cse", "dse"]);
    assert_eq!((reads(&before, x), reads(&after, x)), (3, 2), "{:?}", after);
    let stores = |body: &[Op]| {
        body.iter()
            .filter(|op| matches!(op, Op::StoreNet(n) if *n == x))
            .count()
    };
    assert_eq!((stores(&before), stores(&after)), (2, 1), "{:?}", after);
    // Not promoted: a register wider than a word keeps its net reads.
    let name = "wide_register_is_not_promoted";
    let w = net_of(name, "w");
    let after = hazard_body(name, &["finish", "cse", "dse"]);
    assert!(reads(&after, w) >= 3, "{:?}", after);
    // Not promoted: the store at the ternary join leads its block.
    let name = "block_leading_store_at_a_ternary_join";
    let x = net_of(name, "x");
    let after = hazard_body(name, &["finish", "cse", "dse"]);
    assert!(reads(&after, x) >= 1, "{:?}", after);
    // Out-of-range constant stores define nothing — `dse` deletes them, and
    // nothing reads what they "stored".
    let after = hazard_body("out_of_range_constant_store_and_read", &PASS_NAMES);
    assert!(
        !after
            .iter()
            .any(|op| matches!(op, Op::StoreMemConst { elem, .. } if *elem >= 4)),
        "{:?}",
        after
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn any_pass_subset_is_snapshot_identical_to_o0(
        mask in 0u16..1024u16,
        idx in 0usize..CORPUS.len(),
    ) {
        let passes: Vec<&str> = PASS_NAMES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &n)| n)
            .collect();
        run_lockstep(&CORPUS[idx], &passes);
    }
}
