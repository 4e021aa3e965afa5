//! Random design generation for cross-engine differential fuzzing.
//!
//! [`generate`] produces a random — but always *valid* — module in the
//! SYNERGY Verilog subset from a 64-bit seed: random register widths (both
//! machine-word and wide `Bits` values), 1-D memories, continuous assignments
//! (including constant-disjoint partial drivers), edge-triggered `always`
//! blocks with `if`/`case`/bounded-`for` control flow, non-blocking
//! assignment, and the unsynthesizable system tasks. Designs are constructed
//! to stay inside the compiled engine's envelope (no combinational cycles,
//! no overlapping drivers, no system calls in continuous assignments), so a
//! differential harness can demand `synergy_codegen::compile` succeeds and
//! then lock-step the compiled engine against the reference interpreter.
//!
//! The generator is deterministic: the same seed always yields the same
//! source text, which is what lets a regression corpus pin previously
//! divergent designs as ordinary unit tests.

/// A generated design plus the metadata a harness needs to run it.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedDesign {
    /// Verilog source text.
    pub source: String,
    /// Top module name (always `Fuzz`).
    pub top: String,
    /// Clock input name (always `clock`).
    pub clock: String,
    /// Input file the design `$fopen`s, when it exercises file IO.
    pub input_path: Option<String>,
    /// The seed that produced this design.
    pub seed: u64,
}

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point and decorrelate adjacent seeds.
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// True with probability `pct`/100.
    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

#[derive(Clone)]
struct Scalar {
    name: String,
    width: usize,
}

#[derive(Clone)]
struct Memory {
    name: String,
    width: usize,
    depth: usize,
}

struct Gen {
    rng: Rng,
    regs: Vec<Scalar>,
    mems: Vec<Memory>,
    wires: Vec<Scalar>,
    /// Loop variables currently in scope (depth-indexed), readable in
    /// expressions; never written by generated statement bodies.
    loop_vars: Vec<String>,
    uses_file: bool,
}

/// The one register allowed as a non-clock edge guard. It is *read-only* to
/// generated statements and driven solely by a dedicated non-blocking store
/// in a clock-edge block: a body that could rewrite its own edge guard is a
/// zero-delay self-clocking oscillator, which never settles (both engines
/// reject it at runtime, but generated designs should actually run).
const FLAG: &str = "flag";

const WIDTHS: &[usize] = &[1, 2, 3, 7, 8, 12, 16, 31, 32, 33, 48, 64, 65, 80, 100, 128];

impl Gen {
    fn literal(&mut self, width: usize) -> String {
        let w = width.min(64);
        let v = if w >= 64 {
            self.rng.next()
        } else {
            self.rng.next() & ((1u64 << w) - 1)
        };
        format!("{}'d{}", width, v)
    }

    /// A readable scalar operand: a register, wire, in-scope loop variable,
    /// memory element, bit/slice select, or literal.
    fn leaf(&mut self) -> String {
        let roll = self.rng.below(100);
        if roll < 6 {
            return FLAG.to_string();
        }
        if roll < 34 {
            let r = self.rng.pick(&self.regs).clone();
            return r.name;
        }
        if roll < 44 && !self.wires.is_empty() {
            return self.rng.pick(&self.wires).name.clone();
        }
        if roll < 54 && !self.loop_vars.is_empty() {
            return self.rng.pick(&self.loop_vars).clone();
        }
        if roll < 68 && !self.mems.is_empty() {
            let m = self.rng.pick(&self.mems).clone();
            let idx = if self.rng.chance(50) {
                format!("{}", self.rng.below(m.depth as u64 + 1))
            } else {
                let base = self.rng.pick(&self.regs).clone();
                format!("{} % {}", base.name, m.depth)
            };
            return format!("{}[{}]", m.name, idx);
        }
        if roll < 82 {
            let r = self.rng.pick(&self.regs).clone();
            if r.width > 2 && self.rng.chance(70) {
                let hi = self.rng.below(r.width as u64 + 4);
                let lo = self.rng.below(hi + 1);
                return format!("{}[{}:{}]", r.name, hi, lo);
            }
            let bit = self.rng.below(r.width as u64 + 2);
            return format!("{}[{}]", r.name, bit);
        }
        let w = *self.rng.pick(WIDTHS);
        self.literal(w)
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 || self.rng.chance(30) {
            return self.leaf();
        }
        match self.rng.below(8) {
            0 => {
                let op = *self.rng.pick(&["~", "!", "-", "&", "|", "^"]);
                format!("({}{})", op, self.expr(depth - 1))
            }
            1..=4 => {
                let op = *self.rng.pick(&[
                    "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", ">>>", "==", "!=", "<",
                    "<=", ">", ">=", "&&", "||",
                ]);
                let a = self.expr(depth - 1);
                let b = if matches!(op, "<<" | ">>" | ">>>") {
                    // Shift amounts stay small so values keep moving instead
                    // of collapsing to zero.
                    format!("{}'d{}", 4, self.rng.below(16))
                } else {
                    self.expr(depth - 1)
                };
                format!("({} {} {})", a, op, b)
            }
            5 => format!(
                "({} ? {} : {})",
                self.expr(depth - 1),
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
            6 => format!("{{{}, {}}}", self.expr(depth - 1), self.expr(depth - 1)),
            _ => {
                let n = self.rng.below(3) + 1;
                format!("{{{}{{{}}}}}", n, self.expr(depth - 1))
            }
        }
    }

    /// A procedural assignment target over registers and memories.
    fn proc_target(&mut self) -> String {
        let roll = self.rng.below(100);
        if roll < 25 && !self.mems.is_empty() {
            let m = self.rng.pick(&self.mems).clone();
            let idx = if self.rng.chance(40) {
                format!("{}", self.rng.below(m.depth as u64 + 1))
            } else if !self.loop_vars.is_empty() && self.rng.chance(60) {
                self.rng.pick(&self.loop_vars).clone()
            } else {
                let base = self.rng.pick(&self.regs).clone();
                format!("{} % {}", base.name, m.depth)
            };
            return format!("{}[{}]", m.name, idx);
        }
        let r = self.rng.pick(&self.regs).clone();
        if roll < 40 && r.width > 3 {
            let hi = self.rng.below(r.width as u64);
            let lo = self.rng.below(hi + 1);
            return format!("{}[{}:{}]", r.name, hi, lo);
        }
        if roll < 50 {
            let bit = self.rng.below(r.width as u64);
            return format!("{}[{}]", r.name, bit);
        }
        r.name
    }

    fn stmt(&mut self, depth: usize, out: &mut String, indent: usize) {
        let pad = " ".repeat(indent);
        let roll = if depth == 0 {
            self.rng.below(50)
        } else {
            self.rng.below(100)
        };
        match roll {
            0..=29 => {
                let target = self.proc_target();
                let op = if self.rng.chance(45) { "<=" } else { "=" };
                let rhs = self.expr(2);
                out.push_str(&format!("{}{} {} {};\n", pad, target, op, rhs));
            }
            30..=39 => {
                let arg = self.expr(1);
                let task = if self.rng.chance(70) {
                    "$display"
                } else {
                    "$write"
                };
                out.push_str(&format!("{}{}(\"v=\", {});\n", pad, task, arg));
            }
            40..=44 => {
                let target = self.rng.pick(&self.regs).clone();
                out.push_str(&format!("{}{} <= $random;\n", pad, target.name));
            }
            45..=49 => {
                let target = self.rng.pick(&self.regs).clone();
                out.push_str(&format!(
                    "{}{} <= {} ^ $time;\n",
                    pad, target.name, target.name
                ));
            }
            50..=69 => {
                out.push_str(&format!("{}if ({}) begin\n", pad, self.expr(2)));
                self.stmt(depth - 1, out, indent + 4);
                if self.rng.chance(50) {
                    out.push_str(&format!("{}end else begin\n", pad));
                    self.stmt(depth - 1, out, indent + 4);
                }
                out.push_str(&format!("{}end\n", pad));
            }
            70..=79 => {
                let scrutinee = self.expr(1);
                out.push_str(&format!("{}case ({})\n", pad, scrutinee));
                let arms = self.rng.below(3) + 1;
                for _ in 0..arms {
                    let label = self.rng.below(8);
                    out.push_str(&format!("{}    {}: begin\n", pad, label));
                    self.stmt(depth - 1, out, indent + 8);
                    out.push_str(&format!("{}    end\n", pad));
                }
                out.push_str(&format!("{}    default: begin\n", pad));
                self.stmt(depth - 1, out, indent + 8);
                out.push_str(&format!("{}    end\n", pad));
                out.push_str(&format!("{}endcase\n", pad));
            }
            80..=94 => {
                // A bounded for-loop. Constant bounds usually (the unrolling
                // path); a register-masked bound sometimes (the dynamic
                // path). Loop variables are only ever written by their own
                // init/step, keeping constant-bounded loops unrollable.
                let var = format!("i{}", self.loop_vars.len());
                let start = self.rng.below(3);
                let bound = if self.rng.chance(75) {
                    format!("{}", start + 1 + self.rng.below(7))
                } else {
                    let r = self.rng.pick(&self.regs).clone();
                    format!("({} % 7)", r.name)
                };
                let step = 1 + self.rng.below(2);
                out.push_str(&format!(
                    "{}for ({} = {}; {} < {}; {} = {} + {}) begin\n",
                    pad, var, start, var, bound, var, var, step
                ));
                self.loop_vars.push(var);
                self.stmt(depth.saturating_sub(1), out, indent + 4);
                if self.rng.chance(40) {
                    self.stmt(depth.saturating_sub(1), out, indent + 4);
                }
                self.loop_vars.pop();
                out.push_str(&format!("{}end\n", pad));
            }
            _ => {
                let count = self.rng.below(4) + 1;
                out.push_str(&format!("{}repeat ({}) begin\n", pad, count));
                self.stmt(depth.saturating_sub(1), out, indent + 4);
                out.push_str(&format!("{}end\n", pad));
            }
        }
    }

    fn always_block(&mut self, out: &mut String) {
        let mut drive_flag = false;
        let guard = match self.rng.below(10) {
            0..=5 => {
                drive_flag = self.rng.chance(40);
                "posedge clock".to_string()
            }
            6..=7 => "negedge clock".to_string(),
            // An edge on the dedicated flag register exercises the engines'
            // identical mid-evaluate edge-detection loops. The flag is only
            // ever driven from clock-edge blocks, so flag edges per tick are
            // bounded and settle always converges.
            _ => format!("posedge {}", FLAG),
        };
        out.push_str(&format!("    always @({}) begin\n", guard));
        let stmts = self.rng.below(4) + 1;
        for _ in 0..stmts {
            self.stmt(2, out, 8);
        }
        if drive_flag {
            let src = self.rng.pick(&self.regs).clone();
            let bit = self.rng.below(src.width as u64);
            out.push_str(&format!("        {} <= {}[{}];\n", FLAG, src.name, bit));
        }
        out.push_str("    end\n");
    }

    fn continuous_assigns(&mut self, out: &mut String) {
        // Wires are declared up front and driven here; a wire's rhs only
        // reads registers, memories, and *earlier* wires, so the dependency
        // graph is acyclic by construction.
        let wires = std::mem::take(&mut self.wires);
        for (idx, w) in wires.iter().enumerate() {
            self.wires = wires[..idx].to_vec();
            if w.width >= 4 && self.rng.chance(25) {
                // Two constant-disjoint partial drivers.
                let split = 1 + self.rng.below(w.width as u64 - 2);
                let lo_rhs = self.expr(2);
                let hi_rhs = self.expr(2);
                out.push_str(&format!(
                    "    assign {}[{}:0] = {};\n",
                    w.name,
                    split - 1,
                    lo_rhs
                ));
                out.push_str(&format!(
                    "    assign {}[{}:{}] = {};\n",
                    w.name,
                    w.width - 1,
                    split,
                    hi_rhs
                ));
            } else {
                let rhs = self.expr(3);
                out.push_str(&format!("    assign {} = {};\n", w.name, rhs));
            }
        }
        self.wires = wires;
        // Occasionally drive a memory element continuously. Its rhs reads
        // registers only, so no comb cycle can pass through the memory.
        if !self.mems.is_empty() && self.rng.chance(25) {
            let m = self.rng.pick(&self.mems).clone();
            let elem = self.rng.below(m.depth as u64);
            let r = self.rng.pick(&self.regs).clone();
            out.push_str(&format!(
                "    assign {}[{}] = {} + 1;\n",
                m.name, elem, r.name
            ));
        }
    }
}

/// The cross-engine regression corpus: a fixed spread of seeds pinned so the
/// exact same generated designs run on every CI invocation (the random
/// proptest sweeps draw fresh seeds per harness change). Shared by
/// `tests/fuzz_differential.rs` (every corpus seed must stay bit-identical
/// across engines) and the `showseed corpus` dump mode (CI uploads the
/// corpus sources as a workflow artifact). The last nine print a wire that
/// nothing else reads: in the fabric image only the trapped task's argument
/// keeps it alive (the optimizer once deleted it, and the tenant printed 0).
pub const REGRESSION_CORPUS: &[u64] = &[
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 42, 47, 56, 59, 61, 77, 88, 93, 104, 131, 202, 241, 2,
    169, 1009, 1021, 1030, 1045, 1112, 1141, 1219,
];

/// A minimal hostile tenant for scheduler/quarantine tests: a zero-delay
/// oscillator that elaborates fine but errors at runtime on both engines
/// when the settle cap trips (every update round re-triggers the
/// level-sensitive block). Shared by the hypervisor quarantine tests and
/// `tests/hv_parallel.rs` so the fixture cannot drift between suites.
pub const HOSTILE_DESIGN: &str = r#"
    module Hostile(input wire clock);
        reg f = 0;
        always @(posedge clock) f <= 1;
        always @(f) f <= ~f;
    endmodule
"#;

/// Generates a random valid design from a seed. The same seed always yields
/// the same design.
pub fn generate(seed: u64) -> GeneratedDesign {
    let mut rng = Rng::new(seed);
    let nregs = 3 + rng.below(5) as usize;
    let mut regs = Vec::new();
    for i in 0..nregs {
        let width = *rng.pick(WIDTHS);
        regs.push(Scalar {
            name: format!("r{}", i),
            width,
        });
    }
    // No width-1 register joins the general (writable) pool as `flag`; the
    // edge-guard flag is declared separately and stays read-only to bodies.
    let nmems = rng.below(3) as usize;
    let mut mems = Vec::new();
    for i in 0..nmems {
        mems.push(Memory {
            name: format!("m{}", i),
            width: *rng.pick(&[4usize, 8, 16, 32, 48, 72]),
            depth: 4 + rng.below(13) as usize,
        });
    }
    let nwires = 1 + rng.below(4) as usize;
    let mut wires = Vec::new();
    for i in 0..nwires {
        wires.push(Scalar {
            name: format!("w{}", i),
            width: *rng.pick(WIDTHS),
        });
    }
    let uses_file = rng.chance(30);

    let mut g = Gen {
        rng,
        regs,
        mems,
        wires,
        loop_vars: Vec::new(),
        uses_file,
    };

    let mut src = String::from("module Fuzz(input wire clock);\n");
    for r in &g.regs {
        let init = g.rng.below(1 << 16);
        if r.width == 1 {
            src.push_str(&format!("    reg {} = {};\n", r.name, init & 1));
        } else {
            src.push_str(&format!(
                "    reg [{}:0] {} = {};\n",
                r.width - 1,
                r.name,
                init
            ));
        }
    }
    src.push_str(&format!("    reg {} = 0;\n", FLAG));
    for m in &g.mems {
        src.push_str(&format!(
            "    reg [{}:0] {} [0:{}];\n",
            m.width - 1,
            m.name,
            m.depth - 1
        ));
    }
    for w in &g.wires {
        if w.width == 1 {
            src.push_str(&format!("    wire {};\n", w.name));
        } else {
            src.push_str(&format!("    wire [{}:0] {};\n", w.width - 1, w.name));
        }
    }
    src.push_str("    integer i0 = 0;\n    integer i1 = 0;\n    integer i2 = 0;\n");
    if g.uses_file {
        src.push_str("    integer fd = $fopen(\"fuzz.bin\");\n");
    }

    g.continuous_assigns(&mut src);

    if g.uses_file {
        // A streaming block in the adpcm/nw idiom: read, check EOF, consume.
        let target = g.rng.pick(&g.regs).name.clone();
        let acc = g.rng.pick(&g.regs).name.clone();
        src.push_str(&format!(
            "    always @(posedge clock) begin\n\
             \x20       $fread(fd, {});\n\
             \x20       if (!$feof(fd))\n\
             \x20           {} <= {} + {};\n\
             \x20   end\n",
            target, acc, acc, target
        ));
    }

    // A guaranteed flag driver, so flag-edge blocks are never dead code.
    {
        let srcreg = g.rng.pick(&g.regs).clone();
        let bit = g.rng.below(srcreg.width as u64);
        src.push_str(&format!(
            "    always @(posedge clock) {} <= {}[{}];\n",
            FLAG, srcreg.name, bit
        ));
    }

    let nblocks = 1 + g.rng.below(3);
    for _ in 0..nblocks {
        g.always_block(&mut src);
    }

    if g.rng.chance(25) {
        let r = g.rng.pick(&g.regs).clone();
        let v = g.rng.below(1 << 12);
        src.push_str(&format!(
            "    initial begin\n        {} = {};\n        $display(\"boot\", {});\n    end\n",
            r.name, v, r.name
        ));
    }

    if g.rng.chance(20) {
        // A rare, data-dependent $finish so exit paths get fuzzed too.
        let r = g.rng.pick(&g.regs).clone();
        let code = g.rng.below(4);
        src.push_str(&format!(
            "    always @(posedge clock) if ({}[1:0] == 3 && {}[2]) $finish({});\n",
            r.name, r.name, code
        ));
    }

    src.push_str("endmodule\n");
    GeneratedDesign {
        source: src,
        top: "Fuzz".into(),
        clock: "clock".into(),
        input_path: g.uses_file.then(|| "fuzz.bin".into()),
        seed,
    }
}

/// Deterministic input data for generated streaming designs.
pub fn fuzz_input_data(seed: u64, len: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0xf00d_f00d_f00d_f00d);
    (0..len).map(|_| rng.next()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(42), generate(42));
        assert_ne!(generate(1).source, generate(2).source);
    }

    #[test]
    fn generated_designs_parse_and_elaborate() {
        for seed in 0..200 {
            let d = generate(seed);
            synergy_vlog::compile(&d.source, &d.top).unwrap_or_else(|e| {
                panic!("seed {} failed to elaborate: {}\n{}", seed, e, d.source)
            });
        }
    }

    #[test]
    fn generated_designs_stay_in_the_compiled_envelope() {
        for seed in 0..200 {
            let d = generate(seed);
            let design = synergy_vlog::compile(&d.source, &d.top).unwrap();
            synergy_codegen::compile(&design)
                .unwrap_or_else(|e| panic!("seed {} left the envelope: {}\n{}", seed, e, d.source));
        }
    }
}
