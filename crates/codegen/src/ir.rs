//! The compiled netlist IR.
//!
//! A [`CompiledProgram`] is the flattened, pre-resolved form of an
//! `ElabModule`: every variable becomes a numbered slot in a dense value arena
//! (scalars in [`NetDecl`] order, 1-D memories in [`MemDecl`] order), every
//! continuous assignment becomes a levelized [`CombNode`] whose right-hand side
//! is a small bytecode program ending in a store, and every `always`/`initial`
//! body becomes a bytecode program for the register-machine executor
//! (the private `exec` module). Name resolution, width resolution, and the
//! combinational-dependency graph are all computed once at compile time, which
//! is what removes the per-tick AST walking and map lookups that dominate the
//! tree-walking interpreter.

use std::collections::BTreeMap;
use synergy_interp::{apply_binary, TaskEffect};
use synergy_vlog::ast::{BinaryOp, Edge, UnaryOp};
use synergy_vlog::Bits;

/// Procedural loop-iteration cap, mirroring the interpreter's limit.
pub const MAX_LOOP_ITERS: u64 = 10_000_000;

/// A runtime value: widths travel with values, exactly as they do for
/// [`Bits`], but values at most 64 bits wide stay in a machine word.
///
/// Invariant: `Small(v, w)` has `1 <= w <= 64` and `v` masked to `w` bits;
/// any value wider than 64 bits is `Big`. Normalising on that boundary makes
/// derived equality coincide with `Bits` equality.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// A value of width `1..=64`, masked to its width.
    Small(u64, u32),
    /// A value wider than 64 bits.
    Big(Bits),
}

#[inline]
pub(crate) fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

impl Val {
    /// Zero of the given width.
    pub fn zero(width: usize) -> Val {
        let width = width.max(1);
        if width <= 64 {
            Val::Small(0, width as u32)
        } else {
            Val::Big(Bits::zero(width))
        }
    }

    /// Normalising conversion from `Bits`.
    pub fn from_bits(b: &Bits) -> Val {
        if b.width() <= 64 {
            Val::Small(b.words()[0], b.width() as u32)
        } else {
            Val::Big(b.clone())
        }
    }

    /// Conversion back to `Bits` (exact).
    pub fn to_bits(&self) -> Bits {
        match self {
            Val::Small(v, w) => Bits::from_u64(*w as usize, *v),
            Val::Big(b) => b.clone(),
        }
    }

    /// The value's width in bits.
    pub fn width(&self) -> u32 {
        match self {
            Val::Small(_, w) => *w,
            Val::Big(b) => b.width() as u32,
        }
    }

    /// The low 64 bits (mirrors `Bits::to_u64`).
    pub fn to_u64(&self) -> u64 {
        match self {
            Val::Small(v, _) => *v,
            Val::Big(b) => b.to_u64(),
        }
    }

    /// Verilog truthiness: any bit set.
    pub fn to_bool(&self) -> bool {
        match self {
            Val::Small(v, _) => *v != 0,
            Val::Big(b) => b.to_bool(),
        }
    }

    /// The bit at `idx` (false out of range).
    pub fn bit(&self, idx: usize) -> bool {
        match self {
            Val::Small(v, w) => idx < *w as usize && (v >> idx) & 1 == 1,
            Val::Big(b) => b.bit(idx),
        }
    }

    /// Truncating / zero-extending resize (mirrors `Bits::resize`).
    pub fn resize(&self, width: usize) -> Val {
        let width = width.max(1);
        match self {
            Val::Small(v, _) if width <= 64 => Val::Small(v & mask(width as u32), width as u32),
            _ => Val::from_bits(&self.to_bits().resize(width)),
        }
    }

    /// Decimal rendering (mirrors `Bits::to_dec_string`).
    pub fn to_dec_string(&self) -> String {
        match self {
            Val::Small(v, _) => format!("{}", v),
            Val::Big(b) => b.to_dec_string(),
        }
    }
}

/// Word-level binary operator on `(value, width)` pairs, the shared scalar
/// core of the stack oracle's [`binary`] and the word machine's `BinW`/fused
/// ops. Mirrors [`synergy_interp::apply_binary`] bit-for-bit for operands at
/// most 64 bits wide; returns the result value (masked) and its width.
#[inline]
pub fn word_binary(op: BinaryOp, av: u64, aw: u32, bv: u64, bw: u32) -> (u64, u32) {
    let w = aw.max(bw);
    let m = mask(w);
    match op {
        BinaryOp::Add => (av.wrapping_add(bv) & m, w),
        BinaryOp::Sub => (av.wrapping_sub(bv) & m, w),
        BinaryOp::Mul => (av.wrapping_mul(bv) & m, w),
        BinaryOp::Div => (av.checked_div(bv).unwrap_or(m), w),
        BinaryOp::Rem => (av.checked_rem(bv).unwrap_or(av), w),
        BinaryOp::And => (av & bv, w),
        BinaryOp::Or => (av | bv, w),
        BinaryOp::Xor => (av ^ bv, w),
        BinaryOp::Shl => {
            let n = bv.min(1 << 20);
            (if n >= 64 { 0 } else { (av << n) & mask(aw) }, aw)
        }
        BinaryOp::Shr => {
            let n = bv.min(1 << 20);
            (if n >= 64 { 0 } else { av >> n }, aw)
        }
        BinaryOp::AShr => {
            let n = bv.min(1 << 20);
            let sign = (av >> (aw - 1)) & 1 == 1;
            let mut out = if n >= 64 { 0 } else { av >> n };
            if sign {
                let start = aw.saturating_sub(n as u32);
                out |= mask(aw) & !mask(start);
            }
            (out, aw)
        }
        BinaryOp::LogicalAnd => ((av != 0 && bv != 0) as u64, 1),
        BinaryOp::LogicalOr => ((av != 0 || bv != 0) as u64, 1),
        BinaryOp::Eq => ((av == bv) as u64, 1),
        BinaryOp::Ne => ((av != bv) as u64, 1),
        BinaryOp::Lt => ((av < bv) as u64, 1),
        BinaryOp::Le => ((av <= bv) as u64, 1),
        BinaryOp::Gt => ((av > bv) as u64, 1),
        BinaryOp::Ge => ((av >= bv) as u64, 1),
    }
}

/// Word-level unary operator on a `(value, width)` pair (shared core of
/// [`unary`] and the word machine's `UnW`).
#[inline]
pub fn word_unary(op: UnaryOp, v: u64, w: u32) -> (u64, u32) {
    match op {
        UnaryOp::Not => (!v & mask(w), w),
        UnaryOp::LogicalNot => ((v == 0) as u64, 1),
        UnaryOp::Neg => (v.wrapping_neg() & mask(w), w),
        UnaryOp::Plus => (v, w),
        UnaryOp::ReduceAnd => ((v == mask(w)) as u64, 1),
        UnaryOp::ReduceOr => ((v != 0) as u64, 1),
        UnaryOp::ReduceXor => ((v.count_ones() % 2) as u64, 1),
    }
}

/// Applies a binary operator, mirroring [`synergy_interp::apply_binary`]
/// bit-for-bit; the all-small case runs on machine words.
pub fn binary(op: BinaryOp, a: &Val, b: &Val) -> Val {
    if let (Val::Small(av, aw), Val::Small(bv, bw)) = (a, b) {
        let (v, w) = word_binary(op, *av, *aw, *bv, *bw);
        return Val::Small(v, w);
    }
    Val::from_bits(&apply_binary(op, &a.to_bits(), &b.to_bits()))
}

/// Applies a unary operator, mirroring the interpreter's semantics.
pub fn unary(op: UnaryOp, a: &Val) -> Val {
    if let Val::Small(v, w) = a {
        let (v, w) = word_unary(op, *v, *w);
        return Val::Small(v, w);
    }
    let b = a.to_bits();
    let out = match op {
        UnaryOp::Not => b.not(),
        UnaryOp::LogicalNot => Bits::from_bool(!b.to_bool()),
        UnaryOp::Neg => b.neg(),
        UnaryOp::Plus => b,
        UnaryOp::ReduceAnd => Bits::from_bool(b.reduce_and()),
        UnaryOp::ReduceOr => Bits::from_bool(b.reduce_or()),
        UnaryOp::ReduceXor => Bits::from_bool(b.reduce_xor()),
    };
    Val::from_bits(&out)
}

/// Inclusive-range slice `[hi:lo]` (callers pass `hi >= lo`), mirroring
/// `Bits::slice` including reads past the width returning zeros.
pub fn slice(a: &Val, hi: usize, lo: usize) -> Val {
    let w = hi - lo + 1;
    if let Val::Small(v, aw) = a {
        let shifted = if lo >= 64 { 0 } else { v >> lo };
        let _ = aw;
        if w <= 64 {
            return Val::Small(shifted & mask(w as u32), w as u32);
        }
        return Val::Big(Bits::from_u64(w, shifted));
    }
    Val::from_bits(&a.to_bits().slice(hi, lo))
}

/// Concatenation `{a, b}` with `a` in the high bits, mirroring `Bits::concat`.
pub fn concat(a: &Val, b: &Val) -> Val {
    if let (Val::Small(av, aw), Val::Small(bv, bw)) = (a, b) {
        let w = aw + bw;
        if w <= 64 {
            return Val::Small((av << bw) | bv, w);
        }
    }
    Val::from_bits(&a.to_bits().concat(&b.to_bits()))
}

/// A scalar or memory slot reference in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotRef {
    /// Index into the scalar net arena.
    Net(u32),
    /// Index into the memory arena.
    Mem(u32),
}

/// One scalar net in the arena.
#[derive(Debug, Clone)]
pub struct NetDecl {
    /// Flattened variable name.
    pub name: String,
    /// Declared width.
    pub width: u32,
    /// Declared reset value, already resized to `width`.
    pub init: Option<Bits>,
    /// `true` for reg/integer variables (captured by snapshots).
    pub is_register: bool,
    /// `true` when something outside the program reads the net by name — a
    /// root-module port or, in a fabric image, an argument of a trapped
    /// task ([`CompiledProgram::observe`]): the optimizer must keep it and
    /// its drivers alive.
    pub observed: bool,
}

/// One 1-D memory in the arena.
#[derive(Debug, Clone)]
pub struct MemDecl {
    /// Flattened variable name.
    pub name: String,
    /// Element width.
    pub width: u32,
    /// Number of elements.
    pub depth: u32,
    /// `true` for reg/integer memories (captured by snapshots).
    pub is_register: bool,
    /// `true` when something outside the program reads the memory by name
    /// (see [`NetDecl::observed`]; lowering never sets it).
    pub observed: bool,
}

/// Bytecode for the register-machine executor. Operand stack discipline: each
/// instruction's operands are the topmost stack values, pushed in source
/// evaluation order (so the *last*-evaluated operand is on top).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Push constant-pool entry.
    PushConst(u32),
    /// Push a scalar net's current value.
    PushNet(u32),
    /// Push element 0 of a memory (scalar read of a memory name).
    PushMemElem0(u32),
    /// Push the current simulation time as a 64-bit value.
    PushTime,
    /// Push the pending-store value register (non-blocking latch / `$fread`).
    PushValueReg,
    /// Pop an index; push that memory element (zeros out of range).
    MemRead(u32),
    /// Push a memory element at a compile-time-constant index (zeros out of
    /// range). Produced when loop unrolling folds the index expression.
    MemReadConst {
        /// Memory slot.
        mem: u32,
        /// Element index.
        elem: u32,
    },
    /// Pop base then index; push the selected bit.
    BitSelect,
    /// Pop base; push `base[hi:lo]`.
    SliceConst {
        /// High bound (inclusive).
        hi: u32,
        /// Low bound (inclusive).
        lo: u32,
    },
    /// Pop lo, hi, base; push the selected range.
    SliceDyn,
    /// Pop operand; push the result.
    Unary(UnaryOp),
    /// Pop rhs then lhs; push the result.
    Binary(BinaryOp),
    /// Pop rhs then lhs; push `{lhs, rhs}`.
    Concat2,
    /// Pop value then count; push the replication.
    ReplicateDyn,
    /// Pop value; push it resized to the given width.
    Resize(u32),
    /// Pop else-value, then then-value, then condition; push the then-value
    /// when the condition is non-zero, the else-value otherwise. Each arm
    /// keeps its own width. Emitted only by the `synergy-opt` if-conversion
    /// pass (the lowerer always branches); both arms are evaluated, so the
    /// producer must prove them side-effect free and total.
    Select,
    /// Unconditional jump.
    Jump(u32),
    /// Pop condition; jump when it is zero.
    JumpIfZero(u32),
    /// Pop condition; jump when it is non-zero.
    JumpIfNonZero(u32),
    /// Jump when `$finish` has NOT executed (loop back-edges).
    JumpIfNotFinished(u32),
    /// Jump when `$finish` HAS executed (statement entry, mirrors the
    /// interpreter's per-statement early return).
    CheckFinished(u32),
    /// Pop into a temporary register.
    StoreTemp(u32),
    /// Push a temporary register.
    PushTemp(u32),
    /// Pop and discard.
    Pop,
    /// Pop value; store into a scalar net (resized to its width).
    StoreNet(u32),
    /// Pop index then value; store into a memory element.
    StoreMem(u32),
    /// Pop value; store into a memory element at a compile-time-constant
    /// index (writes past the depth are dropped, as in the interpreter).
    StoreMemConst {
        /// Memory slot.
        mem: u32,
        /// Element index.
        elem: u32,
    },
    /// Pop index then value; store bit 0 of the value into net bit `index`.
    StoreBit(u32),
    /// Pop lo, hi, then value; store into the net's `[hi:lo]` range.
    StoreSliceDyn(u32),
    /// Pop value; append `(site, value)` to the non-blocking queue.
    NbSchedule(u32),
    /// Reset a loop-iteration counter.
    LoopInit(u32),
    /// Bump a loop-iteration counter; error past [`MAX_LOOP_ITERS`].
    LoopCheck(u32),
    /// Pop count; initialise a repeat counter (clamped to the cap).
    RepeatInit(u32),
    /// If the repeat counter is zero jump to `end`, else decrement.
    RepeatTest {
        /// Counter slot.
        slot: u32,
        /// Exit target.
        end: u32,
    },
    /// Push the descriptor returned by `env.fopen(strings[idx])`.
    Fopen(u32),
    /// Pop fd; push `env.feof(fd)`.
    Feof,
    /// Push `env.random()` as a 32-bit value.
    Random,
    /// Pop fd; read `width` bits. On EOF jump to `skip`, else latch the value
    /// register and fall through to the store sequence.
    Fread {
        /// Bits to read (the target lvalue's width).
        width: u32,
        /// Jump target when the read returns nothing.
        skip: u32,
    },
    /// Pop fd; close it.
    Fclose,
    /// Append a string-pool entry to the print buffer.
    PrintStr(u32),
    /// Pop value; append its decimal rendering to the print buffer.
    PrintVal,
    /// Flush the print buffer to `env.print`.
    PrintFlush {
        /// Append a newline first (`$display` vs `$write`).
        newline: bool,
    },
    /// Pop exit code; set finished and raise the Finish effect.
    Finish,
    /// Raise a pre-built control-flow effect (`$save`/`$restart`/`$yield`).
    Effect(u32),
}

/// A bytecode program.
pub type Code = Vec<Op>;

/// One levelized combinational node: a *driver group* of one or more
/// continuous assignments that write the same net or memory, concatenated in
/// source order. A group with several members models partial drivers
/// (constant, pairwise-disjoint bit ranges or memory elements); whole-net
/// drivers always form single-member groups.
#[derive(Debug, Clone)]
pub struct CombNode {
    /// Topological level (1 + max level of the drivers it reads).
    pub level: u32,
    /// The concatenated pure rhs+store programs of the group's members.
    pub code: Code,
}

/// One compiled `always` block.
#[derive(Debug, Clone)]
pub struct AlwaysProg {
    /// Edge guards; empty means `always @*`.
    pub guards: Vec<(Edge, Code)>,
    /// Sensitivity slots for `@*` blocks (in the interpreter's read order).
    pub star: Vec<SlotRef>,
    /// The compiled body.
    pub body: Code,
}

/// A fully lowered design, ready to instantiate as a
/// [`crate::CompiledSim`].
///
/// The arenas and tables are public so the `synergy-opt` pass manager can
/// rewrite the program between lowering and execution; every structural
/// invariant a rewrite must preserve (levelization, driver-group tables,
/// snapshot visibility) is documented in `docs/IR.md` at the repository
/// root.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Root module name.
    pub name: String,
    /// Scalar net declarations; `Op::PushNet`/`Op::StoreNet` index here.
    pub nets: Vec<NetDecl>,
    /// Memory declarations; `Op::MemRead`/`Op::StoreMem` index here.
    pub mems: Vec<MemDecl>,
    /// Flattened variable name -> arena slot (the external get/set surface).
    pub slots: BTreeMap<String, SlotRef>,
    /// Constant pool (`Op::PushConst` operands).
    pub consts: Vec<Val>,
    /// String pool (`Op::PrintStr` / `Op::Fopen` operands).
    pub strings: Vec<String>,
    /// Control-flow effect pool (`Op::Effect` operands).
    pub effects: Vec<TaskEffect>,
    /// Combinational nodes in topological order.
    pub comb: Vec<CombNode>,
    /// Net index -> positions (into `comb`) of nodes reading that net.
    pub net_deps: Vec<Vec<u32>>,
    /// Net index -> position of the node driving it, if continuously driven.
    /// A write to such a net must re-wake its driver, which re-imposes the
    /// assigned value exactly as the interpreter's full re-evaluation does.
    pub net_driver: Vec<Option<u32>>,
    /// Memory index -> positions of nodes reading that memory.
    pub mem_deps: Vec<Vec<u32>>,
    /// Memory index -> position of the node driving elements of it, if any
    /// (continuous assignments to memory elements). Like `net_driver`, a
    /// procedural write to such a memory re-wakes the driver.
    pub mem_driver: Vec<Option<u32>>,
    /// Compiled `always` blocks (guards + bodies).
    pub always: Vec<AlwaysProg>,
    /// Compiled `initial` blocks.
    pub initials: Vec<Code>,
    /// Store programs for non-blocking / `$fread` targets; each starts from
    /// the value register.
    pub nb_sites: Vec<Code>,
    /// Source-level target names per `nb_sites` entry, for settle-cap
    /// postmortems ("which always-block site never converged").
    pub nb_site_names: Vec<String>,
    /// Size of the temp-register file shared by all programs.
    pub n_temps: u32,
    /// Size of the loop-counter file (`Op::LoopInit`/`Op::LoopCheck`).
    pub n_loops: u32,
}

impl CompiledProgram {
    /// Number of scalar nets in the value arena.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of memories in the value arena.
    pub fn num_mems(&self) -> usize {
        self.mems.len()
    }

    /// Number of levelized combinational nodes.
    pub fn num_comb_nodes(&self) -> usize {
        self.comb.len()
    }

    /// Depth of the levelized netlist (maximum node level).
    pub fn max_level(&self) -> u32 {
        self.comb.iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// Number of compiled `always` blocks.
    pub fn num_always(&self) -> usize {
        self.always.len()
    }

    /// Total bytecode instructions across all programs.
    pub fn op_count(&self) -> usize {
        self.comb.iter().map(|n| n.code.len()).sum::<usize>()
            + self
                .always
                .iter()
                .map(|a| a.body.len() + a.guards.iter().map(|(_, c)| c.len()).sum::<usize>())
                .sum::<usize>()
            + self.initials.iter().map(Vec::len).sum::<usize>()
            + self.nb_sites.iter().map(Vec::len).sum::<usize>()
    }

    /// Resolves a variable name to its slot.
    pub fn slot(&self, name: &str) -> Option<SlotRef> {
        self.slots.get(name).copied()
    }

    /// Marks variable `name` as read by name from outside the program, so
    /// that no optimization deletes or bypasses it. Call before optimizing;
    /// an unknown name is ignored.
    pub fn observe(&mut self, name: &str) {
        match self.slot(name) {
            Some(SlotRef::Net(i)) => self.nets[i as usize].observed = true,
            Some(SlotRef::Mem(i)) => self.mems[i as usize].observed = true,
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(w: u32, v: u64) -> Val {
        Val::Small(v & mask(w), w)
    }

    #[test]
    fn small_binary_matches_bits_semantics() {
        use BinaryOp::*;
        let cases: Vec<(u64, u32, u64, u32)> = vec![
            (250, 8, 10, 8),
            (5, 16, 7, 16),
            (0xffff_ffff, 64, 0xffff_ffff, 64),
            (100, 32, 7, 32),
            (100, 32, 0, 32),
            (0b1001_0001, 8, 4, 3),
            (1, 1, 1, 1),
            (u64::MAX, 64, 3, 2),
            (0x8000_0000, 32, 31, 6),
        ];
        for op in [
            Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, AShr, LogicalAnd, LogicalOr, Eq, Ne,
            Lt, Le, Gt, Ge,
        ] {
            for &(a, aw, b, bw) in &cases {
                let fast = binary(op, &small(aw, a), &small(bw, b));
                let slow = apply_binary(
                    op,
                    &Bits::from_u64(aw as usize, a),
                    &Bits::from_u64(bw as usize, b),
                );
                assert_eq!(
                    fast,
                    Val::from_bits(&slow),
                    "{:?} on ({a},{aw}) ({b},{bw})",
                    op
                );
            }
        }
    }

    #[test]
    fn small_unary_matches_bits_semantics() {
        use UnaryOp::*;
        for op in [Not, LogicalNot, Neg, Plus, ReduceAnd, ReduceOr, ReduceXor] {
            for &(v, w) in &[(0u64, 1u32), (1, 1), (0xa5, 8), (u64::MAX, 64), (0x7f, 7)] {
                let fast = unary(op, &small(w, v));
                let b = Bits::from_u64(w as usize, v);
                let slow = match op {
                    Not => b.not(),
                    LogicalNot => Bits::from_bool(!b.to_bool()),
                    Neg => b.neg(),
                    Plus => b,
                    ReduceAnd => Bits::from_bool(b.reduce_and()),
                    ReduceOr => Bits::from_bool(b.reduce_or()),
                    ReduceXor => Bits::from_bool(b.reduce_xor()),
                };
                assert_eq!(fast, Val::from_bits(&slow), "{:?} on ({v},{w})", op);
            }
        }
    }

    #[test]
    fn mixed_width_promotes_through_bits() {
        let big = Val::from_bits(&Bits::from_u128(128, 1u128 << 80));
        let small = Val::Small(5, 32);
        let sum = binary(BinaryOp::Add, &big, &small);
        assert_eq!(sum.width(), 128);
        assert_eq!(sum.to_bits().to_u128(), (1u128 << 80) + 5);
    }

    #[test]
    fn slice_and_concat_round_trip() {
        let v = small(16, 0xabcd);
        let hi = slice(&v, 15, 8);
        let lo = slice(&v, 7, 0);
        assert_eq!(concat(&hi, &lo), v);
        // Slicing past the width reads zeros, like Bits::slice.
        assert_eq!(slice(&v, 70, 65), Val::zero(6));
    }

    #[test]
    fn normalisation_keeps_equality_consistent() {
        let wide = Bits::from_u64(200, 42).slice(63, 0);
        assert_eq!(Val::from_bits(&wide), Val::Small(42, 64));
    }
}
