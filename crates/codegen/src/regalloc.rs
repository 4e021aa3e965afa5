//! Lowering stack bytecode into register-allocated, width-specialized
//! three-address code: the translation every program goes through before
//! the compiled engine's word machine ([`crate::wordexec`]) executes it.
//!
//! Interpreting [`Op`] programs directly (as the stack oracle in
//! [`crate::exec`] does) means an operand stack of heap-capable [`Val`]s:
//! every `Push*` moves a 24-byte enum, every operator re-derives widths and
//! masks at run time. This module removes both costs for the common case:
//!
//! * **Width inference.** A forward abstract interpretation assigns every
//!   stack slot a static [`Class`]: `Word(w)` when the value provably has a
//!   fixed width `w <= 64` on every path (so it lives untagged in one `u64`
//!   register), or `Big` when the width is dynamic or exceeds 64 bits (the
//!   value stays a [`Val`] and each touching op uses the exact tagged-`Val`
//!   scalar routines the stack oracle uses). Join points (ternary arms of different
//!   widths) demote to `Big`, preserving the interpreter's value-carried
//!   width semantics bit for bit.
//! * **Three-address translation.** Each bytecode program becomes a
//!   [`WOp`] program over virtual registers — no operand stack at run time.
//!   Widths and masks are baked into the instructions.
//! * **Peephole fusion.** Hot pairs collapse into single dispatches:
//!   constant operands fold into `BinImmW`/`ImmBinW`, constant stores into
//!   `StoreNetImm`/`StoreMemConstImm`, and net-read-then-op into
//!   `NetBinImmW` (so `PushNet; PushConst; Binary; StoreNet` runs as two
//!   fused ops instead of four stack ops).
//! * **Linear-scan register allocation.** Virtual registers are
//!   single-definition-ish and short-lived; a classic linear scan over live
//!   intervals (conservatively extended across loop back-edges) compacts
//!   them onto a small flat `Vec<u64>` word arena plus a `Vec<Val>` arena
//!   for `Big` values, keeping the hot state cache-resident even for
//!   heavily unrolled programs.
//! * **Operator fixing.** Last, each op becomes its executable [`XOp`]: an
//!   operator-carrying shape turns into the variant for its operator (see
//!   [`crate::wop`]), so the word machine dispatches once per op.
//!
//! Translation is total for everything [`crate::lower`] and the optimizer
//! emit. A malformed program (operand-stack depth that does not balance —
//! a lowering or hand-construction bug) surfaces as an error, which
//! [`CompiledSim::try_new`](crate::CompiledSim::try_new) returns typed:
//! there is no second executor to fall back to.

use crate::ir::{CompiledProgram, Op, Val};
use crate::wop::{WOp, XOp};
use std::collections::{BTreeMap, BTreeSet};
use synergy_vlog::ast::{BinaryOp, UnaryOp};

/// Static class of a value: an untagged machine word of known width, or a
/// boxed [`Val`] (width dynamic or wider than 64 bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Fixed width `1..=64`, value masked to the width.
    Word(u32),
    /// Anything else; ops on it reuse the stack oracle's `Val` routines.
    Big,
}

impl Class {
    fn join(self, other: Class) -> Class {
        if self == other {
            self
        } else {
            Class::Big
        }
    }
}

fn width_class(w: u32) -> Class {
    if w <= 64 {
        Class::Word(w.max(1))
    } else {
        Class::Big
    }
}

fn const_class(v: &Val) -> Class {
    match v {
        Val::Small(_, w) => Class::Word(*w),
        Val::Big(_) => Class::Big,
    }
}

fn binary_class(op: BinaryOp, a: Class, b: Class) -> Class {
    use BinaryOp::*;
    match op {
        // Comparisons and logical connectives are 1 bit wide regardless of
        // operand width (apply_binary returns from_bool).
        LogicalAnd | LogicalOr | Eq | Ne | Lt | Le | Gt | Ge => Class::Word(1),
        // Shifts keep the left operand's width.
        Shl | Shr | AShr => a,
        _ => match (a, b) {
            (Class::Word(aw), Class::Word(bw)) => Class::Word(aw.max(bw)),
            _ => Class::Big,
        },
    }
}

fn unary_class(op: UnaryOp, a: Class) -> Class {
    use UnaryOp::*;
    match op {
        LogicalNot | ReduceAnd | ReduceOr | ReduceXor => Class::Word(1),
        Not | Neg | Plus => a,
    }
}

fn concat_class(a: Class, b: Class) -> Class {
    match (a, b) {
        (Class::Word(aw), Class::Word(bw)) if aw + bw <= 64 => Class::Word(aw + bw),
        _ => Class::Big,
    }
}

/// A translated, register-allocated program, its operators fixed.
#[derive(Clone, Default)]
pub(crate) struct WordProg {
    pub ops: Vec<XOp>,
    /// Word-register arena slots this program needs.
    pub n_words: u32,
    /// Big-register arena slots this program needs.
    pub n_bigs: u32,
    /// For expression programs (edge guards): the register holding the
    /// final value, with its class.
    pub result: Option<(Class, u32)>,
}

// ---------------------------------------------------------------- reg visit

/// Calls `f` on every register operand of `op` (uses and defs alike),
/// mutably — the shared walker for liveness, use counting, and rewriting.
fn visit_regs(op: &mut WOp, f: &mut dyn FnMut(&mut u32, bool)) {
    use WOp::*;
    // `f(reg, is_def)`
    match op {
        MovW { dst, src } | MovB { dst, src } | BigToWord { dst, src } | TruthB { dst, src } => {
            f(src, false);
            f(dst, true);
        }
        WordToBig { dst, src, .. } => {
            f(src, false);
            f(dst, true);
        }
        SelW { dst, c, a, b } | SelB { dst, c, a, b } => {
            f(c, false);
            f(a, false);
            f(b, false);
            f(dst, true);
        }
        SelImmW { dst, c, .. } => {
            f(c, false);
            f(dst, true);
        }
        CmpSelW {
            dst, a, b, t, f: e, ..
        } => {
            f(a, false);
            f(b, false);
            f(t, false);
            f(e, false);
            f(dst, true);
        }
        CmpSelImmW { dst, a, b, .. } => {
            f(a, false);
            f(b, false);
            f(dst, true);
        }
        ConstW { dst, .. }
        | ConstB { dst, .. }
        | LoadNetW { dst, .. }
        | LoadNetB { dst, .. }
        | LoadMem0W { dst, .. }
        | LoadMem0B { dst, .. }
        | LoadMemConstW { dst, .. }
        | LoadMemConstB { dst, .. }
        | LoadTime { dst }
        | LoadValueReg { dst }
        | Fopen { dst, .. }
        | Random { dst } => f(dst, true),
        StoreNetW { src, .. }
        | StoreNetB { src, .. }
        | StoreMemConstW { src, .. }
        | StoreMemConstB { src, .. }
        | NbW { src, .. }
        | NbB { src, .. }
        | PrintValW { src }
        | PrintValB { src }
        | Finish { src } => f(src, false),
        StoreNetImm { .. }
        | StoreMemConstImm { .. }
        | Jump(_)
        | JumpIfNotFinished(_)
        | CheckFinished(_)
        | LoopInit(_)
        | LoopCheck(_)
        | RepeatTest { .. }
        | PrintStr(_)
        | PrintFlush { .. }
        | Effect(_) => {}
        LoadMemW { dst, idx, .. } | LoadMemB { dst, idx, .. } => {
            f(idx, false);
            f(dst, true);
        }
        StoreMemW { idx, src, .. } | StoreMemB { idx, src, .. } => {
            f(idx, false);
            f(src, false);
        }
        StoreBitW { idx, bit, .. } | StoreBitB { idx, bit, .. } => {
            f(idx, false);
            f(bit, false);
        }
        StoreBitConstW { bit, .. } => f(bit, false),
        StoreSlice { hi, lo, src, .. } => {
            f(hi, false);
            f(lo, false);
            f(src, false);
        }
        BinW { dst, a, b, .. } | BinB { dst, a, b, .. } | ConcatB { dst, a, b } => {
            f(a, false);
            f(b, false);
            f(dst, true);
        }
        BinImmW { dst, a, .. }
        | ImmBinW { dst, b: a, .. }
        | BinNetW { dst, a, .. }
        | NetBinW { dst, b: a, .. } => {
            f(a, false);
            f(dst, true);
        }
        NetBinImmW { dst, .. } | NetBinNetW { dst, .. } => f(dst, true),
        JzBin { a, b, .. } | JnzBin { a, b, .. } => {
            f(a, false);
            f(b, false);
        }
        JzBinImm { a, .. } | JnzBinImm { a, .. } => f(a, false),
        JzNetBinImm { .. }
        | JnzNetBinImm { .. }
        | JzNet { .. }
        | JnzNet { .. }
        | NbImm { .. }
        | NbNet { .. } => {}
        NetSliceW { dst, .. } => f(dst, true),
        BinStoreNet { a, b, .. } => {
            f(a, false);
            f(b, false);
        }
        BinImmStoreNet { a, .. } => f(a, false),
        NetBinImmStoreNet { .. } | NetBinNetStoreNet { .. } | NbNetBinImm { .. } => {}
        UnW { dst, a, .. }
        | UnB { dst, a, .. }
        | SliceW { dst, a, .. }
        | SliceConstB { dst, a, .. }
        | ResizeW { dst, a, .. }
        | ResizeB { dst, a, .. } => {
            f(a, false);
            f(dst, true);
        }
        ConcatW { dst, a, b, .. } => {
            f(a, false);
            f(b, false);
            f(dst, true);
        }
        SliceDynB { dst, a, hi, lo } => {
            f(a, false);
            f(hi, false);
            f(lo, false);
            f(dst, true);
        }
        ReplicateB { dst, n, v } => {
            f(n, false);
            f(v, false);
            f(dst, true);
        }
        BitSelW { dst, a, idx, .. } | BitSelB { dst, a, idx } => {
            f(a, false);
            f(idx, false);
            f(dst, true);
        }
        BitSelNetW { dst, idx, .. } => {
            f(idx, false);
            f(dst, true);
        }
        NetBitConstW { dst, .. } => f(dst, true),
        JzNetBit { .. } | JnzNetBit { .. } => {}
        JumpIfZeroW { c, .. } | JumpIfNonZeroW { c, .. } => f(c, false),
        Feof { dst, fd } => {
            f(fd, false);
            f(dst, true);
        }
        FeofNet { dst, .. } => f(dst, true),
        FreadNet { .. } => {}
        RepeatInit { src, .. } | Fread { fd: src, .. } | Fclose { fd: src } => f(src, false),
    }
}

/// `true` when `op`'s only register definition is `reg` and `op` does not
/// also read `reg` (safe to retarget the definition).
fn defines_only(op: &WOp, reg: u32) -> bool {
    let mut op = op.clone();
    let mut defs = 0usize;
    let mut def_is_reg = true;
    let mut reads_reg = false;
    visit_regs(&mut op, &mut |r, is_def| {
        if is_def {
            defs += 1;
            def_is_reg &= *r == reg;
        } else if *r == reg {
            reads_reg = true;
        }
    });
    defs == 1 && def_is_reg && !reads_reg && !matches!(op, WOp::MovW { .. } | WOp::MovB { .. })
}

/// Calls `f` on the branch target of `op`, if it has one.
fn visit_target(op: &mut WOp, f: &mut dyn FnMut(&mut u32)) {
    use WOp::*;
    match op {
        Jump(t)
        | JumpIfZeroW { t, .. }
        | JumpIfNonZeroW { t, .. }
        | JzBin { t, .. }
        | JnzBin { t, .. }
        | JzBinImm { t, .. }
        | JnzBinImm { t, .. }
        | JzNetBinImm { t, .. }
        | JnzNetBinImm { t, .. }
        | JzNet { t, .. }
        | JnzNet { t, .. }
        | JzNetBit { t, .. }
        | JnzNetBit { t, .. }
        | JumpIfNotFinished(t)
        | CheckFinished(t)
        | RepeatTest { end: t, .. }
        | Fread { skip: t, .. }
        | FreadNet { skip: t, .. } => f(t),
        _ => {}
    }
}

// --------------------------------------------------------------- phase one

/// Every pc that any branch can jump to (plus the end-of-program pc).
fn branch_targets(code: &[Op]) -> BTreeSet<usize> {
    let mut targets = BTreeSet::new();
    for op in code {
        match op {
            Op::Jump(t)
            | Op::JumpIfZero(t)
            | Op::JumpIfNonZero(t)
            | Op::JumpIfNotFinished(t)
            | Op::CheckFinished(t)
            | Op::RepeatTest { end: t, .. }
            | Op::Fread { skip: t, .. } => {
                targets.insert(*t as usize);
            }
            _ => {}
        }
    }
    targets
}

struct ClassInfo {
    /// Abstract stack at every reachable block entry (pc 0 and labels).
    label_in: BTreeMap<usize, Vec<Class>>,
    /// Join of every `StoreTemp` class per temp slot (`None` until a store
    /// is seen — the bottom element, so a lone store keeps its exact width).
    temps: Vec<Option<Class>>,
}

/// Forward abstract interpretation to a fixpoint: computes the stack-slot
/// classes at every label and the class of every temp register. With
/// `elide_finish`, `CheckFinished` is a no-op and `JumpIfNotFinished` an
/// unconditional jump (see [`translate`]).
fn infer_classes(
    code: &[Op],
    prog: &CompiledProgram,
    elide_finish: bool,
) -> Result<ClassInfo, String> {
    let labels = branch_targets(code);
    let mut info = ClassInfo {
        label_in: BTreeMap::from([(0usize, Vec::new())]),
        temps: vec![None; prog.n_temps as usize],
    };

    fn merge(
        label_in: &mut BTreeMap<usize, Vec<Class>>,
        pc: usize,
        stack: &[Class],
        changed: &mut bool,
    ) -> Result<(), String> {
        match label_in.get_mut(&pc) {
            None => {
                label_in.insert(pc, stack.to_vec());
                *changed = true;
            }
            Some(old) => {
                if old.len() != stack.len() {
                    return Err(format!("operand stack depth mismatch at pc {}", pc));
                }
                for (o, n) in old.iter_mut().zip(stack) {
                    let j = o.join(*n);
                    if j != *o {
                        *o = j;
                        *changed = true;
                    }
                }
            }
        }
        Ok(())
    }

    loop {
        let mut changed = false;
        let starts: Vec<usize> = info.label_in.keys().copied().collect();
        for start in starts {
            let mut stack = info.label_in[&start].clone();
            let mut pc = start;
            while pc < code.len() {
                if pc != start && labels.contains(&pc) {
                    merge(&mut info.label_in, pc, &stack, &mut changed)?;
                    break;
                }
                let underflow = || format!("operand stack underflow at pc {}", pc);
                let pop = |stack: &mut Vec<Class>| stack.pop().ok_or_else(underflow);
                match &code[pc] {
                    Op::PushConst(i) => stack.push(const_class(&prog.consts[*i as usize])),
                    Op::PushNet(i) => stack.push(width_class(prog.nets[*i as usize].width)),
                    Op::PushMemElem0(i) => stack.push(width_class(prog.mems[*i as usize].width)),
                    Op::PushTime => stack.push(Class::Word(64)),
                    Op::PushValueReg => stack.push(Class::Big),
                    Op::MemRead(i) => {
                        pop(&mut stack)?;
                        stack.push(width_class(prog.mems[*i as usize].width));
                    }
                    Op::MemReadConst { mem, .. } => {
                        stack.push(width_class(prog.mems[*mem as usize].width));
                    }
                    Op::BitSelect => {
                        pop(&mut stack)?;
                        pop(&mut stack)?;
                        stack.push(Class::Word(1));
                    }
                    Op::SliceConst { hi, lo } => {
                        pop(&mut stack)?;
                        stack.push(width_class(hi - lo + 1));
                    }
                    Op::SliceDyn => {
                        for _ in 0..3 {
                            pop(&mut stack)?;
                        }
                        stack.push(Class::Big);
                    }
                    Op::Unary(op) => {
                        let a = pop(&mut stack)?;
                        stack.push(unary_class(*op, a));
                    }
                    Op::Binary(op) => {
                        let b = pop(&mut stack)?;
                        let a = pop(&mut stack)?;
                        stack.push(binary_class(*op, a, b));
                    }
                    Op::Concat2 => {
                        let b = pop(&mut stack)?;
                        let a = pop(&mut stack)?;
                        stack.push(concat_class(a, b));
                    }
                    Op::ReplicateDyn => {
                        pop(&mut stack)?;
                        pop(&mut stack)?;
                        stack.push(Class::Big);
                    }
                    Op::Resize(w) => {
                        pop(&mut stack)?;
                        stack.push(width_class(*w));
                    }
                    Op::Select => {
                        let b = pop(&mut stack)?;
                        let a = pop(&mut stack)?;
                        pop(&mut stack)?;
                        stack.push(a.join(b));
                    }
                    Op::Jump(t) => {
                        merge(&mut info.label_in, *t as usize, &stack, &mut changed)?;
                        break;
                    }
                    Op::JumpIfZero(t) | Op::JumpIfNonZero(t) => {
                        pop(&mut stack)?;
                        merge(&mut info.label_in, *t as usize, &stack, &mut changed)?;
                    }
                    Op::JumpIfNotFinished(t) => {
                        merge(&mut info.label_in, *t as usize, &stack, &mut changed)?;
                        if elide_finish {
                            // Nothing can set `finished`: the back-edge is
                            // unconditional, the fallthrough dead.
                            break;
                        }
                    }
                    Op::CheckFinished(t) => {
                        if !elide_finish {
                            merge(&mut info.label_in, *t as usize, &stack, &mut changed)?;
                        }
                    }
                    Op::StoreTemp(i) => {
                        let c = pop(&mut stack)?;
                        let t = &mut info.temps[*i as usize];
                        let j = match *t {
                            None => c,
                            Some(old) => old.join(c),
                        };
                        if Some(j) != *t {
                            *t = Some(j);
                            changed = true;
                        }
                    }
                    // A read before any recorded store mirrors the stack
                    // machine's `Val::zero(1)` temp initialisation; the
                    // fixpoint revisits once the store is seen.
                    Op::PushTemp(i) => {
                        stack.push(info.temps[*i as usize].unwrap_or(Class::Word(1)))
                    }
                    Op::Pop | Op::StoreNet(_) | Op::StoreMemConst { .. } => {
                        pop(&mut stack)?;
                    }
                    Op::StoreMem(_) | Op::StoreBit(_) => {
                        pop(&mut stack)?;
                        pop(&mut stack)?;
                    }
                    Op::StoreSliceDyn(_) => {
                        for _ in 0..3 {
                            pop(&mut stack)?;
                        }
                    }
                    Op::NbSchedule(_)
                    | Op::RepeatInit(_)
                    | Op::Fclose
                    | Op::PrintVal
                    | Op::Finish => {
                        pop(&mut stack)?;
                    }
                    Op::LoopInit(_)
                    | Op::LoopCheck(_)
                    | Op::PrintStr(_)
                    | Op::PrintFlush { .. }
                    | Op::Effect(_) => {}
                    Op::RepeatTest { end, .. } => {
                        merge(&mut info.label_in, *end as usize, &stack, &mut changed)?;
                    }
                    Op::Fopen(_) => stack.push(Class::Word(32)),
                    Op::Feof => {
                        pop(&mut stack)?;
                        stack.push(Class::Word(1));
                    }
                    Op::Random => stack.push(Class::Word(32)),
                    Op::Fread { skip, .. } => {
                        pop(&mut stack)?;
                        merge(&mut info.label_in, *skip as usize, &stack, &mut changed)?;
                    }
                }
                pc += 1;
            }
        }
        if !changed {
            return Ok(info);
        }
    }
}

// --------------------------------------------------------------- phase two

struct Emitter {
    vclass: Vec<Class>,
    ops: Vec<WOp>,
    stack: Vec<(Class, u32)>,
}

impl Emitter {
    fn fresh(&mut self, c: Class) -> u32 {
        self.vclass.push(c);
        (self.vclass.len() - 1) as u32
    }

    fn push(&mut self, c: Class) -> u32 {
        let r = self.fresh(c);
        self.stack.push((c, r));
        r
    }

    fn pop(&mut self, pc: usize) -> Result<(Class, u32), String> {
        self.stack
            .pop()
            .ok_or_else(|| format!("operand stack underflow at pc {}", pc))
    }

    /// The value as a word register (`to_u64` semantics for `Big`).
    fn word_reg(&mut self, d: (Class, u32)) -> u32 {
        match d.0 {
            Class::Word(_) => d.1,
            Class::Big => {
                let r = self.fresh(Class::Word(64));
                self.ops.push(WOp::BigToWord { dst: r, src: d.1 });
                r
            }
        }
    }

    /// The value as a big register (boxing `Word` values with their width).
    fn big_reg(&mut self, d: (Class, u32)) -> u32 {
        match d.0 {
            Class::Word(w) => {
                let r = self.fresh(Class::Big);
                self.ops.push(WOp::WordToBig {
                    dst: r,
                    src: d.1,
                    w,
                });
                r
            }
            Class::Big => d.1,
        }
    }

    /// Narrows a big-register result whose class is statically `Word(w)`.
    fn narrow(&mut self, big: u32, class: Class) -> (Class, u32) {
        match class {
            Class::Word(_) => {
                let r = self.fresh(class);
                self.ops.push(WOp::BigToWord { dst: r, src: big });
                (class, r)
            }
            Class::Big => (Class::Big, big),
        }
    }

    /// Emits the (parallel) moves carrying the current stack into a label's
    /// canonical registers. Sources are read before any destination they
    /// alias is written; cycles break through a fresh register. When
    /// `preserve_stack` is set (conditional branches, where the fallthrough
    /// path keeps using the current stack), stack slots that alias a move
    /// destination are copied aside first so the fallthrough values survive.
    fn reconcile(&mut self, canon: &[(Class, u32)], preserve_stack: bool) -> Result<(), String> {
        if self.stack.len() != canon.len() {
            return Err("operand stack depth mismatch at join".into());
        }
        if preserve_stack {
            // Canonical registers that the moves below will overwrite.
            let dsts: Vec<u32> = self
                .stack
                .iter()
                .zip(canon)
                .filter(|((_, cur_r), (_, can_r))| cur_r != can_r)
                .map(|(_, (_, can_r))| *can_r)
                .collect();
            #[allow(clippy::needless_range_loop)]
            for i in 0..self.stack.len() {
                let (c, r) = self.stack[i];
                if canon[i].1 != r && dsts.contains(&r) {
                    let copy = self.fresh(c);
                    self.emit_move(copy, c, r, c);
                    self.stack[i] = (c, copy);
                }
            }
        }
        // (dst, src, src_class)
        let mut moves: Vec<(u32, u32, Class)> = Vec::new();
        for ((cur_c, cur_r), (can_c, can_r)) in self.stack.iter().zip(canon) {
            if cur_r == can_r && cur_c == can_c {
                continue;
            }
            debug_assert!(!(matches!(can_c, Class::Word(_)) && *can_c != *cur_c));
            moves.push((*can_r, *cur_r, *cur_c));
        }
        while !moves.is_empty() {
            if let Some(i) = moves
                .iter()
                .position(|&(dst, _, _)| !moves.iter().any(|&(_, src, _)| src == dst))
            {
                let (dst, src, src_c) = moves.swap_remove(i);
                let dst_c = self.vclass[dst as usize];
                self.emit_move(dst, dst_c, src, src_c);
            } else {
                // A cycle: park the first source in a fresh register.
                let (_, src, src_c) = moves[0];
                let tmp = self.fresh(src_c);
                self.emit_move(tmp, src_c, src, src_c);
                for m in &mut moves {
                    if m.1 == src {
                        m.1 = tmp;
                    }
                }
            }
        }
        Ok(())
    }

    fn emit_move(&mut self, dst: u32, dst_c: Class, src: u32, src_c: Class) {
        match (src_c, dst_c) {
            (Class::Word(_), Class::Word(_)) => self.ops.push(WOp::MovW { dst, src }),
            (Class::Word(w), Class::Big) => self.ops.push(WOp::WordToBig { dst, src, w }),
            (Class::Big, Class::Big) => self.ops.push(WOp::MovB { dst, src }),
            (Class::Big, Class::Word(_)) => {
                // Ruled out by the class join; keep a sound fallback.
                self.ops.push(WOp::BigToWord { dst, src });
            }
        }
    }
}

/// Translates one stack-bytecode program into an (unallocated) three-address
/// program. Branch targets in the result are still *source* pcs; the caller
/// remaps them via the returned `pc_map`.
/// Emission result: the ops (branch targets still source pcs), the virtual
/// register classes, the source-pc → emitted-index map, and the result
/// register for expression programs.
type Emitted = (
    Vec<WOp>,
    Vec<Class>,
    BTreeMap<usize, usize>,
    Option<(Class, u32)>,
);

fn emit(
    code: &[Op],
    prog: &CompiledProgram,
    info: &ClassInfo,
    want_result: bool,
    elide_finish: bool,
) -> Result<Emitted, String> {
    let labels = branch_targets(code);
    let mut e = Emitter {
        vclass: Vec::new(),
        ops: Vec::new(),
        stack: Vec::new(),
    };
    // Canonical registers per reachable label.
    let mut canon: BTreeMap<usize, Vec<(Class, u32)>> = BTreeMap::new();
    for (&pc, classes) in &info.label_in {
        let regs = classes.iter().map(|&c| (c, e.fresh(c))).collect();
        canon.insert(pc, regs);
    }
    let temp_regs: Vec<(Class, u32)> = info
        .temps
        .iter()
        .map(|&c| {
            let c = c.unwrap_or(Class::Word(1));
            (c, e.fresh(c))
        })
        .collect();
    let mut pc_map: BTreeMap<usize, usize> = BTreeMap::new();
    let mut result: Option<(Class, u32)> = None;

    let starts: Vec<usize> = canon.keys().copied().collect();
    for &start in &starts {
        e.stack = canon[&start].clone();
        pc_map.insert(start, e.ops.len());
        let mut pc = start;
        while pc < code.len() {
            if pc != start && labels.contains(&pc) {
                // Fallthrough into the next block: hand the stack over.
                e.reconcile(&canon[&pc], false)?;
                break;
            }
            match &code[pc] {
                Op::PushConst(i) => match &prog.consts[*i as usize] {
                    Val::Small(v, w) => {
                        let dst = e.push(Class::Word(*w));
                        e.ops.push(WOp::ConstW { dst, imm: *v });
                    }
                    Val::Big(_) => {
                        let dst = e.push(Class::Big);
                        e.ops.push(WOp::ConstB { dst, pool: *i });
                    }
                },
                Op::PushNet(i) => {
                    let w = prog.nets[*i as usize].width;
                    if w <= 64 {
                        let dst = e.push(Class::Word(w));
                        e.ops.push(WOp::LoadNetW { dst, net: *i });
                    } else {
                        let dst = e.push(Class::Big);
                        e.ops.push(WOp::LoadNetB { dst, net: *i });
                    }
                }
                Op::PushMemElem0(i) => {
                    let w = prog.mems[*i as usize].width;
                    if w <= 64 {
                        let dst = e.push(Class::Word(w));
                        e.ops.push(WOp::LoadMem0W { dst, mem: *i });
                    } else {
                        let dst = e.push(Class::Big);
                        e.ops.push(WOp::LoadMem0B { dst, mem: *i });
                    }
                }
                Op::PushTime => {
                    let dst = e.push(Class::Word(64));
                    e.ops.push(WOp::LoadTime { dst });
                }
                Op::PushValueReg => {
                    let dst = e.push(Class::Big);
                    e.ops.push(WOp::LoadValueReg { dst });
                }
                Op::MemRead(i) => {
                    let idx = e.pop(pc)?;
                    let idx = e.word_reg(idx);
                    let w = prog.mems[*i as usize].width;
                    if w <= 64 {
                        let dst = e.push(Class::Word(w));
                        e.ops.push(WOp::LoadMemW { dst, mem: *i, idx });
                    } else {
                        let dst = e.push(Class::Big);
                        e.ops.push(WOp::LoadMemB { dst, mem: *i, idx });
                    }
                }
                Op::MemReadConst { mem, elem } => {
                    let w = prog.mems[*mem as usize].width;
                    if w <= 64 {
                        let dst = e.push(Class::Word(w));
                        e.ops.push(WOp::LoadMemConstW {
                            dst,
                            mem: *mem,
                            elem: *elem,
                        });
                    } else {
                        let dst = e.push(Class::Big);
                        e.ops.push(WOp::LoadMemConstB {
                            dst,
                            mem: *mem,
                            elem: *elem,
                        });
                    }
                }
                Op::BitSelect => {
                    let base = e.pop(pc)?;
                    let idx = e.pop(pc)?;
                    let idx = e.word_reg(idx);
                    match base.0 {
                        Class::Word(aw) => {
                            let dst = e.push(Class::Word(1));
                            e.ops.push(WOp::BitSelW {
                                dst,
                                a: base.1,
                                aw,
                                idx,
                            });
                        }
                        Class::Big => {
                            let dst = e.push(Class::Word(1));
                            e.ops.push(WOp::BitSelB {
                                dst,
                                a: base.1,
                                idx,
                            });
                        }
                    }
                }
                Op::SliceConst { hi, lo } => {
                    let base = e.pop(pc)?;
                    let w = hi - lo + 1;
                    match base.0 {
                        Class::Word(_) if w <= 64 => {
                            let dst = e.push(Class::Word(w));
                            e.ops.push(WOp::SliceW {
                                dst,
                                a: base.1,
                                hi: *hi,
                                lo: *lo,
                            });
                        }
                        _ => {
                            let a = e.big_reg(base);
                            let big = e.fresh(Class::Big);
                            e.ops.push(WOp::SliceConstB {
                                dst: big,
                                a,
                                hi: *hi,
                                lo: *lo,
                            });
                            let d = e.narrow(big, width_class(w));
                            e.stack.push(d);
                        }
                    }
                }
                Op::SliceDyn => {
                    let lo = e.pop(pc)?;
                    let hi = e.pop(pc)?;
                    let base = e.pop(pc)?;
                    let lo = e.word_reg(lo);
                    let hi = e.word_reg(hi);
                    let a = e.big_reg(base);
                    let dst = e.push(Class::Big);
                    e.ops.push(WOp::SliceDynB { dst, a, hi, lo });
                }
                Op::Unary(op) => {
                    let a = e.pop(pc)?;
                    match a.0 {
                        Class::Word(w) => {
                            let dst = e.push(unary_class(*op, a.0));
                            e.ops.push(WOp::UnW {
                                op: *op,
                                dst,
                                a: a.1,
                                w,
                            });
                        }
                        Class::Big => {
                            let big = e.fresh(Class::Big);
                            e.ops.push(WOp::UnB {
                                op: *op,
                                dst: big,
                                a: a.1,
                            });
                            let d = e.narrow(big, unary_class(*op, Class::Big));
                            e.stack.push(d);
                        }
                    }
                }
                Op::Binary(op) => {
                    let b = e.pop(pc)?;
                    let a = e.pop(pc)?;
                    match (a.0, b.0) {
                        (Class::Word(aw), Class::Word(bw)) => {
                            let dst = e.push(binary_class(*op, a.0, b.0));
                            e.ops.push(WOp::BinW {
                                op: *op,
                                dst,
                                a: a.1,
                                b: b.1,
                                aw,
                                bw,
                            });
                        }
                        _ => {
                            let class = binary_class(*op, a.0, b.0);
                            let av = e.big_reg(a);
                            let bv = e.big_reg(b);
                            let big = e.fresh(Class::Big);
                            e.ops.push(WOp::BinB {
                                op: *op,
                                dst: big,
                                a: av,
                                b: bv,
                            });
                            let d = e.narrow(big, class);
                            e.stack.push(d);
                        }
                    }
                }
                Op::Concat2 => {
                    let b = e.pop(pc)?;
                    let a = e.pop(pc)?;
                    match (a.0, b.0) {
                        (Class::Word(_), Class::Word(bw))
                            if concat_class(a.0, b.0) != Class::Big =>
                        {
                            let dst = e.push(concat_class(a.0, b.0));
                            e.ops.push(WOp::ConcatW {
                                dst,
                                a: a.1,
                                b: b.1,
                                bw,
                            });
                        }
                        _ => {
                            let av = e.big_reg(a);
                            let bv = e.big_reg(b);
                            let dst = e.push(Class::Big);
                            e.ops.push(WOp::ConcatB { dst, a: av, b: bv });
                        }
                    }
                }
                Op::ReplicateDyn => {
                    let v = e.pop(pc)?;
                    let n = e.pop(pc)?;
                    let n = e.word_reg(n);
                    let v = e.big_reg(v);
                    let dst = e.push(Class::Big);
                    e.ops.push(WOp::ReplicateB { dst, n, v });
                }
                Op::Resize(w) => {
                    let a = e.pop(pc)?;
                    match a.0 {
                        // Already masked to exactly this width: nothing to do.
                        Class::Word(aw) if aw == *w => e.stack.push(a),
                        Class::Word(_) if *w <= 64 => {
                            let dst = e.push(Class::Word(*w));
                            e.ops.push(WOp::ResizeW {
                                dst,
                                a: a.1,
                                mask: crate::ir::mask(*w),
                            });
                        }
                        _ => {
                            let av = e.big_reg(a);
                            let big = e.fresh(Class::Big);
                            e.ops.push(WOp::ResizeB {
                                dst: big,
                                a: av,
                                w: *w,
                            });
                            let d = e.narrow(big, width_class(*w));
                            e.stack.push(d);
                        }
                    }
                }
                Op::Select => {
                    let b = e.pop(pc)?;
                    let a = e.pop(pc)?;
                    let c = e.pop(pc)?;
                    let c = match c.0 {
                        Class::Word(_) => c.1,
                        Class::Big => {
                            let r = e.fresh(Class::Word(1));
                            e.ops.push(WOp::TruthB { dst: r, src: c.1 });
                            r
                        }
                    };
                    match (a.0, b.0) {
                        (Class::Word(aw), Class::Word(bw)) if aw == bw => {
                            let dst = e.push(Class::Word(aw));
                            e.ops.push(WOp::SelW {
                                dst,
                                c,
                                a: a.1,
                                b: b.1,
                            });
                        }
                        _ => {
                            let av = e.big_reg(a);
                            let bv = e.big_reg(b);
                            let dst = e.push(Class::Big);
                            e.ops.push(WOp::SelB {
                                dst,
                                c,
                                a: av,
                                b: bv,
                            });
                        }
                    }
                }
                Op::Jump(t) => {
                    e.reconcile(&canon[&(*t as usize)], false)?;
                    e.ops.push(WOp::Jump(*t));
                    break;
                }
                Op::JumpIfZero(t) | Op::JumpIfNonZero(t) => {
                    let c = e.pop(pc)?;
                    let c = match c.0 {
                        Class::Word(_) => c.1,
                        Class::Big => {
                            let r = e.fresh(Class::Word(1));
                            e.ops.push(WOp::TruthB { dst: r, src: c.1 });
                            r
                        }
                    };
                    e.reconcile(&canon[&(*t as usize)], true)?;
                    e.ops.push(match code[pc] {
                        Op::JumpIfZero(_) => WOp::JumpIfZeroW { c, t: *t },
                        _ => WOp::JumpIfNonZeroW { c, t: *t },
                    });
                }
                Op::JumpIfNotFinished(t) => {
                    if elide_finish {
                        e.reconcile(&canon[&(*t as usize)], false)?;
                        e.ops.push(WOp::Jump(*t));
                        break;
                    }
                    e.reconcile(&canon[&(*t as usize)], true)?;
                    e.ops.push(WOp::JumpIfNotFinished(*t));
                }
                Op::CheckFinished(t) => {
                    if !elide_finish {
                        e.reconcile(&canon[&(*t as usize)], true)?;
                        e.ops.push(WOp::CheckFinished(*t));
                    }
                }
                Op::StoreTemp(i) => {
                    let v = e.pop(pc)?;
                    let (tc, tr) = temp_regs[*i as usize];
                    e.emit_move(tr, tc, v.1, v.0);
                }
                Op::PushTemp(i) => {
                    let (tc, tr) = temp_regs[*i as usize];
                    e.stack.push((tc, tr));
                }
                Op::Pop => {
                    e.pop(pc)?;
                }
                Op::StoreNet(i) => {
                    let v = e.pop(pc)?;
                    let decl_w = prog.nets[*i as usize].width;
                    if decl_w <= 64 {
                        let src = e.word_reg(v);
                        e.ops.push(WOp::StoreNetW {
                            net: *i,
                            src,
                            mask: crate::ir::mask(decl_w),
                        });
                    } else {
                        let src = e.big_reg(v);
                        e.ops.push(WOp::StoreNetB { net: *i, src });
                    }
                }
                Op::StoreMem(m) => {
                    let idx = e.pop(pc)?;
                    let value = e.pop(pc)?;
                    let idx = e.word_reg(idx);
                    let w = prog.mems[*m as usize].width;
                    if w <= 64 {
                        let src = e.word_reg(value);
                        e.ops.push(WOp::StoreMemW {
                            mem: *m,
                            idx,
                            src,
                            mask: crate::ir::mask(w),
                        });
                    } else {
                        let src = e.big_reg(value);
                        e.ops.push(WOp::StoreMemB { mem: *m, idx, src });
                    }
                }
                Op::StoreMemConst { mem, elem } => {
                    let value = e.pop(pc)?;
                    let w = prog.mems[*mem as usize].width;
                    if w <= 64 {
                        let src = e.word_reg(value);
                        e.ops.push(WOp::StoreMemConstW {
                            mem: *mem,
                            elem: *elem,
                            src,
                            mask: crate::ir::mask(w),
                        });
                    } else {
                        let src = e.big_reg(value);
                        e.ops.push(WOp::StoreMemConstB {
                            mem: *mem,
                            elem: *elem,
                            src,
                        });
                    }
                }
                Op::StoreBit(i) => {
                    let idx = e.pop(pc)?;
                    let value = e.pop(pc)?;
                    let idx = e.word_reg(idx);
                    let bit = e.word_reg(value);
                    if prog.nets[*i as usize].width <= 64 {
                        e.ops.push(WOp::StoreBitW { net: *i, idx, bit });
                    } else {
                        e.ops.push(WOp::StoreBitB { net: *i, idx, bit });
                    }
                }
                Op::StoreSliceDyn(i) => {
                    let lo = e.pop(pc)?;
                    let hi = e.pop(pc)?;
                    let value = e.pop(pc)?;
                    let lo = e.word_reg(lo);
                    let hi = e.word_reg(hi);
                    let src = e.big_reg(value);
                    e.ops.push(WOp::StoreSlice {
                        net: *i,
                        hi,
                        lo,
                        src,
                    });
                }
                Op::NbSchedule(site) => {
                    let v = e.pop(pc)?;
                    match v.0 {
                        Class::Word(w) => e.ops.push(WOp::NbW {
                            site: *site,
                            src: v.1,
                            w,
                        }),
                        Class::Big => e.ops.push(WOp::NbB {
                            site: *site,
                            src: v.1,
                        }),
                    }
                }
                Op::LoopInit(slot) => e.ops.push(WOp::LoopInit(*slot)),
                Op::LoopCheck(slot) => e.ops.push(WOp::LoopCheck(*slot)),
                Op::RepeatInit(slot) => {
                    let n = e.pop(pc)?;
                    let src = e.word_reg(n);
                    e.ops.push(WOp::RepeatInit { src, slot: *slot });
                }
                Op::RepeatTest { slot, end } => {
                    e.reconcile(&canon[&(*end as usize)], true)?;
                    e.ops.push(WOp::RepeatTest {
                        slot: *slot,
                        end: *end,
                    });
                }
                Op::Fopen(s) => {
                    let dst = e.push(Class::Word(32));
                    e.ops.push(WOp::Fopen { dst, s: *s });
                }
                Op::Feof => {
                    let fd = e.pop(pc)?;
                    let fd = e.word_reg(fd);
                    let dst = e.push(Class::Word(1));
                    e.ops.push(WOp::Feof { dst, fd });
                }
                Op::Random => {
                    let dst = e.push(Class::Word(32));
                    e.ops.push(WOp::Random { dst });
                }
                Op::Fread { width, skip } => {
                    let fd = e.pop(pc)?;
                    let fd = e.word_reg(fd);
                    e.reconcile(&canon[&(*skip as usize)], true)?;
                    e.ops.push(WOp::Fread {
                        fd,
                        width: *width,
                        skip: *skip,
                    });
                }
                Op::Fclose => {
                    let fd = e.pop(pc)?;
                    let fd = e.word_reg(fd);
                    e.ops.push(WOp::Fclose { fd });
                }
                Op::PrintStr(s) => e.ops.push(WOp::PrintStr(*s)),
                Op::PrintVal => {
                    let v = e.pop(pc)?;
                    match v.0 {
                        Class::Word(_) => e.ops.push(WOp::PrintValW { src: v.1 }),
                        Class::Big => e.ops.push(WOp::PrintValB { src: v.1 }),
                    }
                }
                Op::PrintFlush { newline } => e.ops.push(WOp::PrintFlush { newline: *newline }),
                Op::Finish => {
                    let v = e.pop(pc)?;
                    let src = e.word_reg(v);
                    e.ops.push(WOp::Finish { src });
                }
                Op::Effect(i) => e.ops.push(WOp::Effect(*i)),
            }
            pc += 1;
        }
        if pc >= code.len() && want_result {
            // Expression program: the final stack top is the result.
            if let Some(&(c, r)) = e.stack.last() {
                result = Some((c, r));
            }
        }
    }
    pc_map.insert(code.len(), e.ops.len());
    Ok((e.ops, e.vclass, pc_map, result))
}

// ----------------------------------------------------------------- peephole

/// Swapped-operand form of `op`, when operand order is exchangeable: the op
/// is symmetric, or a comparison with a mirrored counterpart. Width
/// bookkeeping swaps with the operands, so `a OP b == b mirror(OP) a`
/// bit-for-bit.
fn mirrored(op: BinaryOp) -> Option<BinaryOp> {
    use BinaryOp::*;
    match op {
        Add | Mul | And | Or | Xor | LogicalAnd | LogicalOr | Eq | Ne => Some(op),
        Lt => Some(Gt),
        Gt => Some(Lt),
        Le => Some(Ge),
        Ge => Some(Le),
        Sub | Div | Rem | Shl | Shr | AShr => None,
    }
}

/// The `[hi:lo]` slice that `(v >> shift) & mask` is, for a `mask` of the
/// low `w` bits: both read zero from bit 64 up, so the shift clamps there.
fn shr_resize_bounds(shift: u64, mask: u64) -> (u32, u32) {
    let lo = shift.min(64) as u32;
    (lo + (64 - mask.leading_zeros()) - 1, lo)
}

/// Fuses hot adjacent pairs. Targets must already be *emitted* indices.
fn peephole(mut ops: Vec<WOp>, vclass: &[Class]) -> Vec<WOp> {
    loop {
        // Positions any branch lands on: never fuse across them.
        let mut is_target = vec![false; ops.len() + 1];
        for op in &ops {
            let mut op = op.clone();
            visit_target(&mut op, &mut |t| is_target[*t as usize] = true);
        }
        // Global use counts (reads only).
        let mut uses = vec![0u32; vclass.len()];
        for op in &mut ops {
            visit_regs(op, &mut |r, is_def| {
                if !is_def {
                    uses[*r as usize] += 1;
                }
            });
        }
        let mut out: Vec<WOp> = Vec::with_capacity(ops.len());
        let mut remap: Vec<u32> = Vec::with_capacity(ops.len() + 1);
        let mut i = 0;
        let mut changed = false;
        while i < ops.len() {
            remap.push(out.len() as u32);
            // Two constants feeding a select  ->  one select-immediate.
            if i + 2 < ops.len() && !is_target[i + 1] && !is_target[i + 2] {
                if let (
                    &WOp::ConstW { dst: x, imm: a },
                    &WOp::ConstW { dst: y, imm: b },
                    &WOp::SelW {
                        dst,
                        c,
                        a: sa,
                        b: sb,
                    },
                ) = (&ops[i], &ops[i + 1], &ops[i + 2])
                {
                    if sa == x
                        && sb == y
                        && x != y
                        && uses[x as usize] == 1
                        && uses[y as usize] == 1
                    {
                        out.push(WOp::SelImmW { dst, c, a, b });
                        remap.extend([out.len() as u32 - 1; 2]);
                        i += 3;
                        changed = true;
                        continue;
                    }
                }
            }
            let fused = if i + 1 < ops.len() && !is_target[i + 1] {
                match (&ops[i], &ops[i + 1]) {
                    // A word op whose only reader is a select's condition
                    // ->  one compare-select.
                    (
                        &WOp::BinW {
                            op,
                            dst: c,
                            a,
                            b,
                            aw,
                            bw,
                        },
                        &WOp::SelW {
                            dst,
                            c: sc,
                            a: t,
                            b: f,
                        },
                    ) if sc == c && uses[c as usize] == 1 => Some(WOp::CmpSelW {
                        op,
                        dst,
                        a,
                        aw,
                        b,
                        bw,
                        t,
                        f,
                    }),
                    (
                        &WOp::BinW {
                            op,
                            dst: c,
                            a,
                            b,
                            aw,
                            bw,
                        },
                        &WOp::SelImmW {
                            dst,
                            c: sc,
                            a: t,
                            b: f,
                        },
                    ) if sc == c && uses[c as usize] == 1 => Some(WOp::CmpSelImmW {
                        op,
                        dst,
                        a,
                        aw,
                        b,
                        bw,
                        t,
                        f,
                    }),
                    // Shift right by a constant, then resize  ->  a slice.
                    (
                        &WOp::BinImmW {
                            op: BinaryOp::Shr,
                            dst: x,
                            a,
                            imm,
                            ..
                        },
                        &WOp::ResizeW { dst, a: ra, mask },
                    ) if ra == x && uses[x as usize] == 1 => {
                        let (hi, lo) = shr_resize_bounds(imm, mask);
                        Some(WOp::SliceW { dst, a, hi, lo })
                    }
                    (
                        &WOp::NetBinImmW {
                            op: BinaryOp::Shr,
                            dst: x,
                            net,
                            imm,
                            ..
                        },
                        &WOp::ResizeW { dst, a: ra, mask },
                    ) if ra == x && uses[x as usize] == 1 => {
                        let (hi, lo) = shr_resize_bounds(imm, mask);
                        Some(WOp::NetSliceW { dst, net, hi, lo })
                    }
                    // PushConst; Binary  ->  one immediate ALU op.
                    (
                        &WOp::ConstW { dst: c, imm },
                        &WOp::BinW {
                            op,
                            dst,
                            a,
                            b,
                            aw,
                            bw,
                        },
                    ) if b == c && a != c && uses[c as usize] == 1 => Some(WOp::BinImmW {
                        op,
                        dst,
                        a,
                        aw,
                        imm,
                        bw,
                    }),
                    (
                        &WOp::ConstW { dst: c, imm },
                        &WOp::BinW {
                            op,
                            dst,
                            a,
                            b,
                            aw,
                            bw,
                        },
                    ) if a == c && b != c && uses[c as usize] == 1 => Some(WOp::ImmBinW {
                        op,
                        dst,
                        imm,
                        aw,
                        b,
                        bw,
                    }),
                    // PushConst; StoreNet  ->  one immediate store.
                    (&WOp::ConstW { dst: c, imm }, &WOp::StoreNetW { net, src, mask })
                        if src == c && uses[c as usize] == 1 =>
                    {
                        Some(WOp::StoreNetImm {
                            net,
                            imm: imm & mask,
                        })
                    }
                    // PushConst; StoreMemConst  ->  one immediate store.
                    (
                        &WOp::ConstW { dst: c, imm },
                        &WOp::StoreMemConstW {
                            mem,
                            elem,
                            src,
                            mask,
                        },
                    ) if src == c && uses[c as usize] == 1 => Some(WOp::StoreMemConstImm {
                        mem,
                        elem,
                        imm: imm & mask,
                    }),
                    // PushNet; BinImm  ->  one net-read ALU op.
                    (
                        &WOp::LoadNetW { dst: l, net },
                        &WOp::BinImmW {
                            op,
                            dst,
                            a,
                            aw,
                            imm,
                            bw,
                        },
                    ) if a == l && uses[l as usize] == 1 => Some(WOp::NetBinImmW {
                        op,
                        dst,
                        net,
                        aw,
                        imm,
                        bw,
                    }),
                    // PushNet; Binary  ->  one net-operand ALU op.
                    (
                        &WOp::LoadNetW { dst: l, net },
                        &WOp::BinW {
                            op,
                            dst,
                            a,
                            b,
                            aw,
                            bw,
                        },
                    ) if b == l && a != l && uses[l as usize] == 1 => Some(WOp::BinNetW {
                        op,
                        dst,
                        a,
                        aw,
                        net,
                        bw,
                    }),
                    (
                        &WOp::LoadNetW { dst: l, net },
                        &WOp::BinW {
                            op,
                            dst,
                            a,
                            b,
                            aw,
                            bw,
                        },
                    ) if a == l && b != l && uses[l as usize] == 1 => Some(WOp::NetBinW {
                        op,
                        dst,
                        net,
                        aw,
                        b,
                        bw,
                    }),
                    // PushNet; PushNet; Binary collapses over two rounds into
                    // a both-operands-are-nets dispatch.
                    (
                        &WOp::LoadNetW { dst: l, net },
                        &WOp::BinNetW {
                            op,
                            dst,
                            a,
                            aw,
                            net: netb,
                            bw,
                        },
                    ) if a == l && uses[l as usize] == 1 => Some(WOp::NetBinNetW {
                        op,
                        dst,
                        neta: net,
                        aw,
                        netb,
                        bw,
                    }),
                    (
                        &WOp::LoadNetW { dst: l, net },
                        &WOp::NetBinW {
                            op,
                            dst,
                            net: neta,
                            aw,
                            b,
                            bw,
                        },
                    ) if b == l && uses[l as usize] == 1 => Some(WOp::NetBinNetW {
                        op,
                        dst,
                        neta,
                        aw,
                        netb: net,
                        bw,
                    }),
                    // Compare (or any word op); conditional branch  ->  one
                    // fused test-and-branch.
                    (
                        &WOp::BinW {
                            op,
                            dst,
                            a,
                            b,
                            aw,
                            bw,
                        },
                        &WOp::JumpIfZeroW { c, t },
                    ) if c == dst && uses[dst as usize] == 1 => Some(WOp::JzBin {
                        op,
                        a,
                        aw,
                        b,
                        bw,
                        t,
                    }),
                    (
                        &WOp::BinW {
                            op,
                            dst,
                            a,
                            b,
                            aw,
                            bw,
                        },
                        &WOp::JumpIfNonZeroW { c, t },
                    ) if c == dst && uses[dst as usize] == 1 => Some(WOp::JnzBin {
                        op,
                        a,
                        aw,
                        b,
                        bw,
                        t,
                    }),
                    (
                        &WOp::BinImmW {
                            op,
                            dst,
                            a,
                            aw,
                            imm,
                            bw,
                        },
                        &WOp::JumpIfZeroW { c, t },
                    ) if c == dst && uses[dst as usize] == 1 => Some(WOp::JzBinImm {
                        op,
                        a,
                        aw,
                        imm,
                        bw,
                        t,
                    }),
                    (
                        &WOp::BinImmW {
                            op,
                            dst,
                            a,
                            aw,
                            imm,
                            bw,
                        },
                        &WOp::JumpIfNonZeroW { c, t },
                    ) if c == dst && uses[dst as usize] == 1 => Some(WOp::JnzBinImm {
                        op,
                        a,
                        aw,
                        imm,
                        bw,
                        t,
                    }),
                    (
                        &WOp::NetBinImmW {
                            op,
                            dst,
                            net,
                            aw,
                            imm,
                            bw,
                        },
                        &WOp::JumpIfZeroW { c, t },
                    ) if c == dst && uses[dst as usize] == 1 => Some(WOp::JzNetBinImm {
                        op,
                        net,
                        aw,
                        imm,
                        bw,
                        t,
                    }),
                    (
                        &WOp::NetBinImmW {
                            op,
                            dst,
                            net,
                            aw,
                            imm,
                            bw,
                        },
                        &WOp::JumpIfNonZeroW { c, t },
                    ) if c == dst && uses[dst as usize] == 1 => Some(WOp::JnzNetBinImm {
                        op,
                        net,
                        aw,
                        imm,
                        bw,
                        t,
                    }),
                    // PushNet; SliceConst  ->  one net-slice dispatch.
                    (&WOp::LoadNetW { dst: l, net }, &WOp::SliceW { dst, a, hi, lo })
                        if a == l && uses[l as usize] == 1 =>
                    {
                        Some(WOp::NetSliceW { dst, net, hi, lo })
                    }
                    // Constant bit index  ->  folded into the store.
                    (&WOp::ConstW { dst: c, imm }, &WOp::StoreBitW { net, idx, bit })
                        if idx == c && bit != c && uses[c as usize] == 1 =>
                    {
                        Some(WOp::StoreBitConstW {
                            net,
                            idx: imm.min(u32::MAX as u64) as u32,
                            bit,
                        })
                    }
                    // Bit selects: base from a net, then constant index,
                    // then straight into a branch.
                    (&WOp::LoadNetW { dst: l, net }, &WOp::BitSelW { dst, a, aw, idx })
                        if a == l && idx != l && uses[l as usize] == 1 =>
                    {
                        Some(WOp::BitSelNetW { dst, net, aw, idx })
                    }
                    (&WOp::ConstW { dst: c, imm }, &WOp::BitSelNetW { dst, net, aw, idx })
                        if idx == c && uses[c as usize] == 1 =>
                    {
                        Some(WOp::NetBitConstW {
                            dst,
                            net,
                            aw,
                            idx: imm.min(u32::MAX as u64) as u32,
                        })
                    }
                    (&WOp::NetBitConstW { dst, net, aw, idx }, &WOp::JumpIfZeroW { c, t })
                        if c == dst && uses[dst as usize] == 1 =>
                    {
                        Some(WOp::JzNetBit { net, aw, idx, t })
                    }
                    (&WOp::NetBitConstW { dst, net, aw, idx }, &WOp::JumpIfNonZeroW { c, t })
                        if c == dst && uses[dst as usize] == 1 =>
                    {
                        Some(WOp::JnzNetBit { net, aw, idx, t })
                    }
                    // PushNet; conditional branch  ->  one net-test branch.
                    (&WOp::LoadNetW { dst: l, net }, &WOp::JumpIfZeroW { c, t })
                        if c == l && uses[l as usize] == 1 =>
                    {
                        Some(WOp::JzNet { net, t })
                    }
                    (&WOp::LoadNetW { dst: l, net }, &WOp::JumpIfNonZeroW { c, t })
                        if c == l && uses[l as usize] == 1 =>
                    {
                        Some(WOp::JnzNet { net, t })
                    }
                    // `!x` feeding a branch flips the branch sense instead.
                    (
                        &WOp::UnW {
                            op: UnaryOp::LogicalNot,
                            dst,
                            a,
                            ..
                        },
                        &WOp::JumpIfZeroW { c, t },
                    ) if c == dst && uses[dst as usize] == 1 => {
                        Some(WOp::JumpIfNonZeroW { c: a, t })
                    }
                    (
                        &WOp::UnW {
                            op: UnaryOp::LogicalNot,
                            dst,
                            a,
                            ..
                        },
                        &WOp::JumpIfNonZeroW { c, t },
                    ) if c == dst && uses[dst as usize] == 1 => Some(WOp::JumpIfZeroW { c: a, t }),
                    // Constant / net-read non-blocking schedules.
                    (&WOp::ConstW { dst: c, imm }, &WOp::NbW { site, src, w })
                        if src == c && uses[c as usize] == 1 =>
                    {
                        Some(WOp::NbImm { site, imm, w })
                    }
                    (&WOp::LoadNetW { dst: l, net }, &WOp::NbW { site, src, w })
                        if src == l && uses[l as usize] == 1 =>
                    {
                        Some(WOp::NbNet { site, net, w })
                    }
                    // A word ALU result flowing straight into a whole-net
                    // store becomes one fused statement dispatch.
                    (
                        &WOp::BinW {
                            op,
                            dst,
                            a,
                            b,
                            aw,
                            bw,
                        },
                        &WOp::StoreNetW { net, src, mask },
                    ) if src == dst && uses[dst as usize] == 1 => Some(WOp::BinStoreNet {
                        op,
                        a,
                        aw,
                        b,
                        bw,
                        net,
                        mask,
                    }),
                    (
                        &WOp::BinImmW {
                            op,
                            dst,
                            a,
                            aw,
                            imm,
                            bw,
                        },
                        &WOp::StoreNetW { net, src, mask },
                    ) if src == dst && uses[dst as usize] == 1 => Some(WOp::BinImmStoreNet {
                        op,
                        a,
                        aw,
                        imm,
                        bw,
                        net,
                        mask,
                    }),
                    (
                        &WOp::NetBinImmW {
                            op,
                            dst,
                            net: srcn,
                            aw,
                            imm,
                            bw,
                        },
                        &WOp::StoreNetW { net, src, mask },
                    ) if src == dst && uses[dst as usize] == 1 => Some(WOp::NetBinImmStoreNet {
                        op,
                        src: srcn,
                        aw,
                        imm,
                        bw,
                        net,
                        mask,
                    }),
                    (
                        &WOp::NetBinNetW {
                            op,
                            dst,
                            neta,
                            aw,
                            netb,
                            bw,
                        },
                        &WOp::StoreNetW { net, src, mask },
                    ) if src == dst && uses[dst as usize] == 1 => Some(WOp::NetBinNetStoreNet {
                        op,
                        neta,
                        aw,
                        netb,
                        bw,
                        net,
                        mask,
                    }),
                    // ...or into a non-blocking schedule.
                    (
                        &WOp::NetBinImmW {
                            op,
                            dst,
                            net,
                            aw,
                            imm,
                            bw,
                        },
                        &WOp::NbW { site, src, w },
                    ) if src == dst && uses[dst as usize] == 1 => Some(WOp::NbNetBinImm {
                        site,
                        op,
                        net,
                        aw,
                        imm,
                        w,
                        bw,
                    }),
                    // Descriptor reads straight from a net.
                    (&WOp::LoadNetW { dst: l, net }, &WOp::Feof { dst, fd })
                        if fd == l && uses[l as usize] == 1 =>
                    {
                        Some(WOp::FeofNet { dst, net })
                    }
                    (&WOp::LoadNetW { dst: l, net }, &WOp::Fread { fd, width, skip })
                        if fd == l && uses[l as usize] == 1 =>
                    {
                        Some(WOp::FreadNet { net, width, skip })
                    }
                    // Any single-use def flowing straight into a move
                    // writes the move's destination directly instead.
                    (first, &WOp::MovW { dst, src }) | (first, &WOp::MovB { dst, src })
                        if dst != src && uses[src as usize] == 1 && defines_only(first, src) =>
                    {
                        let mut rewritten = first.clone();
                        visit_regs(&mut rewritten, &mut |r, is_def| {
                            if is_def && *r == src {
                                *r = dst;
                            }
                        });
                        Some(rewritten)
                    }
                    _ => None,
                }
            } else {
                None
            };
            match fused {
                Some(op) => {
                    out.push(op);
                    remap.push(out.len() as u32 - 1);
                    i += 2;
                    changed = true;
                }
                None => {
                    // Normalize exchangeable immediate-on-the-left ops into
                    // the immediate-on-the-right form so the net-read and
                    // branch fusions above see them on a later round.
                    if let WOp::ImmBinW {
                        op,
                        dst,
                        imm,
                        aw,
                        b,
                        bw,
                    } = ops[i]
                    {
                        if let Some(m) = mirrored(op) {
                            out.push(WOp::BinImmW {
                                op: m,
                                dst,
                                a: b,
                                aw: bw,
                                imm,
                                bw: aw,
                            });
                            changed = true;
                            i += 1;
                            continue;
                        }
                    }
                    out.push(ops[i].clone());
                    i += 1;
                }
            }
        }
        remap.push(out.len() as u32);
        for op in &mut out {
            visit_target(op, &mut |t| *t = remap[*t as usize]);
        }
        ops = out;
        if !changed {
            return ops;
        }
    }
}

// ----------------------------------------------------------- linear scan

/// Linear-scan register allocation: maps virtual registers onto compact
/// per-class arenas by live interval, conservatively extending intervals
/// across loop back-edges.
fn allocate(ops: &mut [WOp], vclass: &[Class], result: &mut Option<(Class, u32)>) -> (u32, u32) {
    const NONE: u32 = u32::MAX;
    let n = vclass.len();
    let mut first = vec![NONE; n];
    let mut last = vec![0u32; n];
    for (i, op) in ops.iter_mut().enumerate() {
        visit_regs(op, &mut |r, _| {
            let v = *r as usize;
            if first[v] == NONE {
                first[v] = i as u32;
            }
            last[v] = i as u32;
        });
    }
    if let Some((_, r)) = result {
        let v = *r as usize;
        if first[v] == NONE {
            first[v] = 0;
        }
        last[v] = ops.len() as u32;
    }
    // Back-edges keep loop-carried registers alive across the whole loop.
    let mut back_edges: Vec<(u32, u32)> = Vec::new();
    for (i, op) in ops.iter_mut().enumerate() {
        visit_target(op, &mut |t| {
            if (*t as usize) <= i {
                back_edges.push((i as u32, *t));
            }
        });
    }
    if !back_edges.is_empty() {
        loop {
            let mut changed = false;
            for &(i, t) in &back_edges {
                for v in 0..n {
                    if first[v] != NONE && first[v] < t && last[v] >= t && last[v] < i {
                        last[v] = i;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    let mut order: Vec<usize> = (0..n).filter(|&v| first[v] != NONE).collect();
    order.sort_by_key(|&v| first[v]);
    let mut assign = vec![NONE; n];
    let mut active: Vec<(u32, u32, usize)> = Vec::new(); // (end, phys, vreg)
    let mut free_w: Vec<u32> = Vec::new();
    let mut free_b: Vec<u32> = Vec::new();
    let mut n_words = 0u32;
    let mut n_bigs = 0u32;
    for v in order {
        let start = first[v];
        active.retain(|&(end, phys, vr)| {
            if end < start {
                match vclass[vr] {
                    Class::Word(_) => free_w.push(phys),
                    Class::Big => free_b.push(phys),
                }
                false
            } else {
                true
            }
        });
        let phys = match vclass[v] {
            Class::Word(_) => free_w.pop().unwrap_or_else(|| {
                n_words += 1;
                n_words - 1
            }),
            Class::Big => free_b.pop().unwrap_or_else(|| {
                n_bigs += 1;
                n_bigs - 1
            }),
        };
        assign[v] = phys;
        active.push((last[v], phys, v));
    }
    for op in ops.iter_mut() {
        visit_regs(op, &mut |r, _| *r = assign[*r as usize]);
    }
    if let Some((_, r)) = result {
        *r = assign[*r as usize];
    }
    (n_words, n_bigs)
}

// ------------------------------------------------------------- entry points

fn translate(
    code: &[Op],
    prog: &CompiledProgram,
    want_result: bool,
    body: bool,
) -> Result<WordProg, String> {
    // In an `always` body, `finished` is guaranteed `None` at entry (the
    // evaluate loop checks before dispatching each triggered body) and only
    // an `Op::Finish` can set it mid-program — so when the body contains no
    // `Finish`, every `CheckFinished` is a no-op and every
    // `JumpIfNotFinished` back-edge unconditional, and both compile away.
    // `initial` blocks keep the checks: `run_initials` runs all of them even
    // after an earlier one finished.
    let elide_finish = body && !code.iter().any(|op| matches!(op, Op::Finish));
    let info = infer_classes(code, prog, elide_finish)?;
    let (mut ops, vclass, pc_map, mut result) = emit(code, prog, &info, want_result, elide_finish)?;
    for op in &mut ops {
        visit_target(op, &mut |t| *t = pc_map[&(*t as usize)] as u32);
    }
    let mut ops = peephole(ops, &vclass);
    let (n_words, n_bigs) = allocate(&mut ops, &vclass, &mut result);
    let ops = ops
        .into_iter()
        .map(|op| XOp::try_from(op).map_err(|op| format!("no word kernel for {:?}", op)))
        .collect::<Result<_, _>>()?;
    Ok(WordProg {
        ops,
        n_words,
        n_bigs,
        result,
    })
}

/// Translates a statement program (initial, comb node, non-blocking store
/// site).
pub(crate) fn translate_stmt(code: &[Op], prog: &CompiledProgram) -> Result<WordProg, String> {
    translate(code, prog, false, false)
}

/// Translates an `always` body (statement program whose entry is guaranteed
/// to see `finished == None`, enabling finish-check elision).
pub(crate) fn translate_body(code: &[Op], prog: &CompiledProgram) -> Result<WordProg, String> {
    translate(code, prog, false, true)
}

/// Translates an expression program (edge guard); the result register holds
/// the final value.
pub(crate) fn translate_expr(code: &[Op], prog: &CompiledProgram) -> Result<WordProg, String> {
    translate(code, prog, true, false)
}
