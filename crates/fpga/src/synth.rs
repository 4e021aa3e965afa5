//! Synthesis, placement, and timing estimation for the simulated FPGA substrate.
//!
//! The real SYNERGY prototype invokes Quartus (DE10) or Vivado (F1) and reads the
//! reported resource usage and delay (§6.4). Those toolchains are not available
//! here, so this module provides a deterministic estimator that is applied
//! *uniformly* to every compilation condition (AmorphOS-native, Cascade, Synergy,
//! Synergy+quiescence). Because Figures 13–15 report values normalised to the
//! AmorphOS baseline, applying one consistent cost model preserves the shape of the
//! results: Synergy costs more fabric because the generated module materialises the
//! state machine, the edge-detection and shadow registers, and the state-capture
//! tree; quiescence reduces the capture tree; and designs whose RAMs degrade to
//! flip-flops (adpcm, mips32) blow up exactly as in the paper.

use crate::device::Device;
use serde::{Deserialize, Serialize};
use synergy_vlog::ast::*;
use synergy_vlog::elaborate::ElabModule;

/// How memories are implemented by the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RamStyle {
    /// Memories map to block RAM (native AmorphOS compilation).
    Bram,
    /// Memories are implemented with flip-flops and mux logic. This is what happens
    /// under Synergy's state-access transformation (§6.4): Vivado can no longer
    /// infer RAMs, which is the source of the adpcm/mips32 outliers.
    Ff,
}

/// Options for one synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthOptions {
    /// Memory implementation style.
    pub ram_style: RamStyle,
    /// Bits of program state for which get/set capture logic must be generated
    /// (0 for native compilations that provide no state capture).
    pub capture_bits: u64,
    /// Number of captured variables (sizes the read tree of §5.2).
    pub capture_vars: u64,
}

impl SynthOptions {
    /// Native compilation: no capture logic, block RAMs. Every compilation
    /// targets the device's maximum clock.
    pub fn native(_device: &Device) -> Self {
        SynthOptions {
            ram_style: RamStyle::Bram,
            capture_bits: 0,
            capture_vars: 0,
        }
    }

    /// Synergy compilation: full state capture and FF-based RAMs.
    pub fn synergy(_device: &Device, capture_bits: u64, capture_vars: u64) -> Self {
        SynthOptions {
            ram_style: RamStyle::Ff,
            capture_bits,
            capture_vars,
        }
    }
}

/// The result of estimating one design on one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SynthReport {
    /// Estimated LUT usage.
    pub luts: u64,
    /// Estimated flip-flop usage.
    pub ffs: u64,
    /// Estimated block-RAM bits.
    pub bram_bits: u64,
    /// Estimated critical-path delay in picoseconds.
    pub critical_path_ps: u64,
    /// Clock achieved after iterative frequency reduction, in Hz.
    pub achieved_hz: u64,
    /// Simulated synthesis/place/route latency in nanoseconds.
    pub synth_latency_ns: u64,
}

impl SynthReport {
    /// Achieved clock in MHz (for reporting alongside Figure 15).
    pub fn achieved_mhz(&self) -> f64 {
        self.achieved_hz as f64 / 1e6
    }
}

/// Estimates resource usage and timing for `module` on `device`.
pub fn estimate(module: &ElabModule, device: &Device, options: SynthOptions) -> SynthReport {
    let mut cost = CostModel::new(module, options.ram_style);
    for assign in &module.assigns {
        cost.assign(assign);
    }
    for block in &module.always {
        cost.stmt(&block.body);
    }

    // Register flip-flops.
    let mut ffs: u64 = 0;
    let mut bram_bits: u64 = 0;
    for var in module.vars.values() {
        if !var.is_register() && var.depth.is_none() {
            continue;
        }
        match var.depth {
            None => {
                if var.is_register() {
                    ffs += var.width as u64;
                }
            }
            Some(depth) => {
                let bits = (var.width * depth) as u64;
                match options.ram_style {
                    RamStyle::Bram => bram_bits += bits,
                    RamStyle::Ff => {
                        // RAM degraded to flip-flops plus read/write mux logic.
                        ffs += bits;
                        cost.luts += bits / 2 + (depth as u64);
                    }
                }
            }
        }
    }

    // State-capture logic: write buffers and the pipelined read tree of §5.2.
    let capture_luts = options.capture_bits / 4 + options.capture_vars * 8;
    let capture_ffs = options.capture_bits / 8 + options.capture_vars * 2;
    let luts = cost.luts + capture_luts;
    let ffs = ffs + capture_ffs;

    // Timing model: logic depth plus congestion-dependent routing delay.
    let base_ps: u64 = 2_000;
    let depth_ps = 320 * cost.max_depth as u64;
    let congestion = luts as f64 / device.lut_capacity as f64;
    let congestion_ps = (congestion * 4_500.0) as u64;
    // Deterministic jitter models run-to-run compiler volatility (§6.4 notes nw
    // sometimes beats native because of it).
    let jitter = (fingerprint(&module.name, luts) % 600) as i64 - 300;
    let critical_path_ps = ((base_ps + depth_ps + congestion_ps) as i64 + jitter).max(1_000) as u64;

    // Iterative frequency reduction from the device maximum (§5.2).
    let raw_hz = 1_000_000_000_000u64 / critical_path_ps;
    let achieved_hz = if raw_hz >= device.max_clock_hz {
        device.max_clock_hz
    } else {
        device.quantize_clock(raw_hz)
    };

    let synth_latency_ns =
        device.synth_base_latency_ns + device.synth_base_latency_ns * luts / 200_000;

    SynthReport {
        luts,
        ffs,
        bram_bits,
        critical_path_ps,
        achieved_hz,
        synth_latency_ns,
    }
}

fn fingerprint(name: &str, luts: u64) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    luts.hash(&mut h);
    h.finish()
}

/// Walks expressions and statements accumulating LUT cost and logic depth.
struct CostModel<'a> {
    module: &'a ElabModule,
    ram_style: RamStyle,
    luts: u64,
    max_depth: u32,
}

impl<'a> CostModel<'a> {
    fn new(module: &'a ElabModule, ram_style: RamStyle) -> Self {
        CostModel {
            module,
            ram_style,
            luts: 0,
            max_depth: 0,
        }
    }

    fn assign(&mut self, a: &Assign) {
        let d = self.expr(&a.rhs);
        self.lvalue(&a.lhs);
        self.max_depth = self.max_depth.max(d);
    }

    fn lvalue(&mut self, lv: &LValue) {
        match lv {
            LValue::Ident(_) => {}
            LValue::Index(name, idx) => {
                let d = self.expr(idx);
                self.max_depth = self.max_depth.max(d + 1);
                if let Some(var) = self.module.var(name) {
                    if let Some(depth) = var.depth {
                        // Write decode logic.
                        self.luts += match self.ram_style {
                            RamStyle::Bram => 2,
                            RamStyle::Ff => (depth as u64) / 4 + var.width as u64 / 4,
                        };
                    } else {
                        self.luts += 1;
                    }
                }
            }
            LValue::Slice(_, hi, lo) => {
                let d = self.expr(hi).max(self.expr(lo));
                self.max_depth = self.max_depth.max(d);
                self.luts += 1;
            }
            LValue::Concat(parts) => parts.iter().for_each(|p| self.lvalue(p)),
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Block(v) | Stmt::Fork(v) => v.iter().for_each(|s| self.stmt(s)),
            Stmt::Blocking(a) | Stmt::NonBlocking(a) => self.assign(a),
            Stmt::If { cond, then, other } => {
                let d = self.expr(cond);
                self.max_depth = self.max_depth.max(d + 1);
                self.luts += 2;
                self.stmt(then);
                if let Some(e) = other {
                    self.stmt(e);
                }
            }
            Stmt::Case {
                expr,
                arms,
                default,
            } => {
                let d = self.expr(expr);
                self.max_depth = self.max_depth.max(d + 1);
                for arm in arms {
                    for l in &arm.labels {
                        self.expr(l);
                    }
                    self.luts += self.width(expr) / 2 + 1;
                    self.stmt(&arm.body);
                }
                if let Some(e) = default {
                    self.stmt(e);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                // Synthesizable loops are fully unrolled by the tools; approximate
                // with a modest multiplier on the body cost.
                let before = self.luts;
                self.assign(init);
                self.expr(cond);
                self.assign(step);
                self.stmt(body);
                let body_cost = self.luts - before;
                self.luts += body_cost * 3;
            }
            Stmt::Repeat { count, body } => {
                let before = self.luts;
                self.expr(count);
                self.stmt(body);
                let body_cost = self.luts - before;
                self.luts += body_cost * 3;
            }
            Stmt::SystemTask(t) => {
                // Task argument datapaths still exist in hardware (they feed the
                // runtime through get requests).
                for a in &t.args {
                    self.expr(a);
                }
            }
            Stmt::Null => {}
        }
    }

    fn width(&self, e: &Expr) -> u64 {
        self.module.width_of(e) as u64
    }

    /// Returns the logic depth of the expression and adds its LUT cost.
    fn expr(&mut self, e: &Expr) -> u32 {
        match e {
            Expr::Literal(_) | Expr::StringLit(_) | Expr::Ident(_) => 0,
            Expr::Index(base, idx) => {
                let d = self.expr(idx).max(self.expr(base));
                if let Expr::Ident(name) = base.as_ref() {
                    if let Some(var) = self.module.var(name) {
                        if let Some(depth) = var.depth {
                            self.luts += match self.ram_style {
                                RamStyle::Bram => 2,
                                RamStyle::Ff => (depth * var.width) as u64 / 8,
                            };
                            return d + 2;
                        }
                    }
                }
                self.luts += 1;
                d + 1
            }
            Expr::Slice(base, hi, lo) => self.expr(base).max(self.expr(hi)).max(self.expr(lo)),
            Expr::Unary(op, a) => {
                let w = self.width(a);
                let d = self.expr(a);
                self.luts += match op {
                    UnaryOp::Not | UnaryOp::Neg => w,
                    UnaryOp::Plus => 0,
                    UnaryOp::LogicalNot => 1,
                    _ => w / 2,
                };
                d + 1
            }
            Expr::Binary(op, a, b) => {
                let w = self.width(a).max(self.width(b));
                let da = self.expr(a);
                let db = self.expr(b);
                let (cost, depth) = match op {
                    BinaryOp::Add | BinaryOp::Sub => (w, 2),
                    BinaryOp::Mul => ((w * w / 8).max(w), 4),
                    BinaryOp::Div | BinaryOp::Rem => ((w * w / 4).max(w), 6),
                    BinaryOp::And | BinaryOp::Or | BinaryOp::Xor => (w, 1),
                    BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr => {
                        if matches!(b.as_ref(), Expr::Literal(_)) {
                            (0, 0)
                        } else {
                            (w * 2, 2)
                        }
                    }
                    BinaryOp::LogicalAnd | BinaryOp::LogicalOr => (1, 1),
                    _ => (w / 2 + 1, 2),
                };
                self.luts += cost;
                da.max(db) + depth
            }
            Expr::Ternary(c, a, b) => {
                let w = self.width(a).max(self.width(b));
                let d = self.expr(c).max(self.expr(a)).max(self.expr(b));
                self.luts += w;
                d + 1
            }
            Expr::Concat(parts) => parts.iter().map(|p| self.expr(p)).max().unwrap_or(0),
            Expr::Replicate(n, e) => self.expr(n).max(self.expr(e)),
            Expr::SystemCall(_, args) => args.iter().map(|a| self.expr(a)).max().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_vlog::compile;

    fn small_design() -> ElabModule {
        compile(
            r#"module M(input wire clock, output wire [31:0] out);
                   reg [31:0] acc = 0;
                   always @(posedge clock) acc <= acc + 1;
                   assign out = acc * 3;
               endmodule"#,
            "M",
        )
        .unwrap()
    }

    fn ram_design() -> ElabModule {
        compile(
            r#"module M(input wire clock, input wire [9:0] addr, input wire [31:0] din,
                        input wire we, output wire [31:0] dout);
                   reg [31:0] mem [0:1023];
                   always @(posedge clock) if (we) mem[addr] <= din;
                   assign dout = mem[addr];
               endmodule"#,
            "M",
        )
        .unwrap()
    }

    #[test]
    fn small_design_fits_easily() {
        let m = small_design();
        let device = Device::de10();
        let r = estimate(&m, &device, SynthOptions::native(&device));
        assert!(r.luts > 0 && r.luts < 2_000);
        assert_eq!(r.ffs, 32);
        assert!(r.luts <= device.lut_capacity && r.bram_bits == 0);
        assert!(r.achieved_hz <= device.max_clock_hz);
    }

    #[test]
    fn ff_ram_style_costs_more_than_bram() {
        let m = ram_design();
        let device = Device::f1();
        let bram = estimate(&m, &device, SynthOptions::native(&device));
        let ff = estimate(
            &m,
            &device,
            SynthOptions {
                ram_style: RamStyle::Ff,
                ..SynthOptions::native(&device)
            },
        );
        assert!(bram.bram_bits > 0);
        assert_eq!(ff.bram_bits, 0);
        assert!(ff.ffs > bram.ffs + 30_000, "32K memory bits become FFs");
        assert!(ff.luts > bram.luts);
    }

    #[test]
    fn capture_logic_adds_resources() {
        let m = small_design();
        let device = Device::f1();
        let without = estimate(&m, &device, SynthOptions::native(&device));
        let with = estimate(&m, &device, SynthOptions::synergy(&device, 4_096, 8));
        assert!(with.luts > without.luts);
        assert!(with.ffs > without.ffs);
    }

    #[test]
    fn quiescence_reduces_capture_cost() {
        let m = small_design();
        let device = Device::f1();
        let full = estimate(&m, &device, SynthOptions::synergy(&device, 100_000, 40));
        let quiesced = estimate(&m, &device, SynthOptions::synergy(&device, 1_000, 2));
        assert!(quiesced.luts < full.luts);
        assert!(quiesced.ffs < full.ffs);
    }

    #[test]
    fn congested_designs_lose_frequency() {
        let m = ram_design();
        let device = Device::de10();
        // FF RAM style on a small device pushes utilisation and slows the clock.
        let r = estimate(
            &m,
            &device,
            SynthOptions {
                ram_style: RamStyle::Ff,
                capture_bits: 32 * 1024,
                capture_vars: 2,
            },
        );
        let native = estimate(&m, &device, SynthOptions::native(&device));
        assert!(r.critical_path_ps >= native.critical_path_ps);
    }

    #[test]
    fn estimates_are_deterministic() {
        let m = small_design();
        let device = Device::f1();
        let a = estimate(&m, &device, SynthOptions::native(&device));
        let b = estimate(&m, &device, SynthOptions::native(&device));
        assert_eq!(a, b);
    }

    #[test]
    fn synth_latency_scales_with_size() {
        let small = small_design();
        let big = ram_design();
        let device = Device::f1();
        let opts = SynthOptions {
            ram_style: RamStyle::Ff,
            ..SynthOptions::native(&device)
        };
        let a = estimate(&small, &device, opts);
        let b = estimate(&big, &device, opts);
        assert!(b.synth_latency_ns >= a.synth_latency_ns);
    }
}
