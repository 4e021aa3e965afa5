//! The word machine's instruction set, written once.
//!
//! Two forms of one instruction set come out of the table in [`word_ops!`]:
//!
//! * [`WOp`] is what [`crate::regalloc`] emits, rewrites and allocates, and
//!   what the word-program dumps and histograms print. An operator-carrying
//!   shape (`BinW`, `CmpSelW`, `JzBinImm`, `UnW`, …) holds its `BinaryOp` or
//!   `UnaryOp` in an `op` field.
//! * [`XOp`] is what [`crate::wordexec`] executes. Every operator-free shape
//!   is the same variant; every operator-carrying shape becomes one variant
//!   per operator the translation can emit (`BinWAdd`, `CmpSelWLt`, …), so
//!   one `match` dispatch selects the shape *and* the operator.
//!
//! `XOp::try_from` fixes the operator when a program is translated, once;
//! `WOp::from` gives the printable form back. The executor's operator arms
//! are generated from the same table by [`word_dispatch!`]: each calls its
//! shape's kernel with the operator as a zero-sized type ([`op`]), whose
//! [`FixedBinary::apply`]/[`FixedUnary::apply`] is [`word_binary`] /
//! [`word_unary`] with a constant operator, so the semantics stay written
//! once, in `ir.rs`. The big-value shapes `BinB`/`UnB` keep their runtime
//! operator: they end in `Bits` routines anyway.
//!
//! The operator lists are the pairs the translation emits: every binary
//! operator for every binary shape (a branch or select may test `a & b` as
//! well as `a < b`), except `ImmBinW`, which the peephole keeps only for the
//! operators without a mirrored form.

use crate::ir::{word_binary, word_unary};
use synergy_vlog::ast::{BinaryOp, UnaryOp};

/// A binary operator fixed at compile time: the operator parameter of the
/// executor's kernels.
pub(crate) trait FixedBinary {
    const OP: BinaryOp;

    /// `a OP b`: [`word_binary`] with the operator a constant.
    #[inline(always)]
    fn apply(a: u64, aw: u32, b: u64, bw: u32) -> u64 {
        word_binary(Self::OP, a, aw, b, bw).0
    }
}

/// A unary operator fixed at compile time.
pub(crate) trait FixedUnary {
    const OP: UnaryOp;

    /// `OP v`: [`word_unary`] with the operator a constant.
    #[inline(always)]
    fn apply(v: u64, w: u32) -> u64 {
        word_unary(Self::OP, v, w).0
    }
}

/// One zero-sized type per operator, named after it.
pub(crate) mod op {
    use super::{FixedBinary, FixedUnary};
    use synergy_vlog::ast::{BinaryOp, UnaryOp};

    macro_rules! fixed {
        ($tr:ident $ty:ident: $($o:ident)*) => {$(
            pub(crate) struct $o;
            impl $tr for $o {
                const OP: $ty = $ty::$o;
            }
        )*};
    }
    fixed!(FixedBinary BinaryOp: Add Sub Mul Div Rem And Or Xor Shl Shr AShr
        LogicalAnd LogicalOr Eq Ne Lt Le Gt Ge);
    fixed!(FixedUnary UnaryOp: Not LogicalNot Neg Plus ReduceAnd ReduceOr ReduceXor);
}

/// The instruction-set table. `word_ops!(m! { args })` expands to
/// `m! { { args } plain { … } operator { … } }`:
///
/// * `plain` lists the operator-free shapes, each declared as in both enums;
/// * `operator` lists each operator-carrying shape as
///   `Shape: OperatorType (fields before op) { fields after op } => kernel
///   [Operator Variant, …]`: its `WOp` fields, the executor function that
///   runs it, and the `XOp` variant of each operator it is emitted with.
macro_rules! word_ops {
    ($then:ident ! $args:tt) => { $then! { $args
        plain {
            // ------------------------------------------------- moves & constants
            /// words[dst] = words[src]
            MovW { dst: u32, src: u32 },
            /// bigs[dst] = bigs[src].clone()
            MovB { dst: u32, src: u32 },
            /// words[dst] = imm (pre-masked)
            ConstW { dst: u32, imm: u64 },
            /// bigs[dst] = consts[pool].clone()
            ConstB { dst: u32, pool: u32 },
            /// bigs[dst] = Val::Small(words[src], w)
            WordToBig { dst: u32, src: u32, w: u32 },
            /// words[dst] = bigs[src].to_u64()
            BigToWord { dst: u32, src: u32 },
            /// words[dst] = bigs[src].to_bool() as u64
            TruthB { dst: u32, src: u32 },
            /// words[dst] = if words[c] != 0 { words[a] } else { words[b] }
            SelW { dst: u32, c: u32, a: u32, b: u32 },
            /// Fused: both arms are immediates (`c ? 0 : 3`).
            SelImmW { dst: u32, c: u32, a: u64, b: u64 },
            /// bigs[dst] = bigs[if words[c] != 0 { a } else { b }].clone()
            SelB { dst: u32, c: u32, a: u32, b: u32 },

            // ---------------------------------------------------- arena access
            /// words[dst] = net_w[net]
            LoadNetW { dst: u32, net: u32 },
            /// bigs[dst] = net_b[net].clone()
            LoadNetB { dst: u32, net: u32 },
            /// net_w[net] = words[src] & mask (compare + dirty-mark)
            StoreNetW { net: u32, src: u32, mask: u64 },
            /// net_w[net] = imm (pre-masked; compare + dirty-mark)
            StoreNetImm { net: u32, imm: u64 },
            /// net_b[net] = bigs[src].resize(decl width) (compare + dirty-mark)
            StoreNetB { net: u32, src: u32 },
            /// words[dst] = mems[mem].w[0] (scalar read of a memory name)
            LoadMem0W { dst: u32, mem: u32 },
            /// bigs[dst] = mems[mem].b[0].clone()
            LoadMem0B { dst: u32, mem: u32 },
            /// words[dst] = mems[mem].w[words[idx]] (zero out of range)
            LoadMemW { dst: u32, mem: u32, idx: u32 },
            /// bigs[dst] = mems[mem].b[words[idx]].clone() (zero out of range)
            LoadMemB { dst: u32, mem: u32, idx: u32 },
            /// words[dst] = mems[mem].w[elem] (zero out of range)
            LoadMemConstW { dst: u32, mem: u32, elem: u32 },
            /// bigs[dst] = mems[mem].b[elem].clone() (zero out of range)
            LoadMemConstB { dst: u32, mem: u32, elem: u32 },
            /// mems[mem].w[words[idx]] = words[src] & mask (in-range only)
            StoreMemW { mem: u32, idx: u32, src: u32, mask: u64 },
            /// mems[mem].b[words[idx]] = bigs[src].resize(width) (in-range only)
            StoreMemB { mem: u32, idx: u32, src: u32 },
            /// mems[mem].w[elem] = words[src] & mask (in-range only)
            StoreMemConstW { mem: u32, elem: u32, src: u32, mask: u64 },
            /// mems[mem].w[elem] = imm (pre-masked; in-range only)
            StoreMemConstImm { mem: u32, elem: u32, imm: u64 },
            /// mems[mem].b[elem] = bigs[src].resize(width) (in-range only)
            StoreMemConstB { mem: u32, elem: u32, src: u32 },
            /// Bit words[idx] of word net = words[bit] & 1 (in-range only)
            StoreBitW { net: u32, idx: u32, bit: u32 },
            /// Fused: bit `idx` (constant, in range) of word net = words[bit] & 1
            StoreBitConstW { net: u32, idx: u32, bit: u32 },
            /// Bit words[idx] of big net = words[bit] & 1 (in-range only)
            StoreBitB { net: u32, idx: u32, bit: u32 },
            /// net[hi:lo] = bigs[src] via the Bits set_slice path (either net class)
            StoreSlice { net: u32, hi: u32, lo: u32, src: u32 },
            /// words[dst] = current simulation time
            LoadTime { dst: u32 },
            /// bigs[dst] = value register (non-blocking latch / $fread)
            LoadValueReg { dst: u32 },
            /// words[dst] = (words[a] >> lo) & mask(hi - lo + 1)
            SliceW { dst: u32, a: u32, hi: u32, lo: u32 },
            /// Fused: words[dst] = (net_w[net] >> lo) & mask(hi - lo + 1)
            NetSliceW { dst: u32, net: u32, hi: u32, lo: u32 },
            /// words[dst] = (words[a] << bw) | words[b]
            ConcatW { dst: u32, a: u32, b: u32, bw: u32 },
            /// words[dst] = words[a] & mask
            ResizeW { dst: u32, a: u32, mask: u64 },
            /// words[dst] = bit words[idx] of words[a] (width aw)
            BitSelW { dst: u32, a: u32, aw: u32, idx: u32 },
            /// Fused: words[dst] = bit words[idx] of net_w[net]
            BitSelNetW { dst: u32, net: u32, aw: u32, idx: u32 },
            /// Fused: words[dst] = bit `idx` (constant) of net_w[net]
            NetBitConstW { dst: u32, net: u32, aw: u32, idx: u32 },

            // ----------------------------------------- ALU (generic Val fallback)
            /// bigs[dst] = ir::binary(op, bigs[a], bigs[b])
            BinB { op: BinaryOp, dst: u32, a: u32, b: u32 },
            /// bigs[dst] = ir::unary(op, bigs[a])
            UnB { op: UnaryOp, dst: u32, a: u32 },
            /// bigs[dst] = ir::slice(bigs[a], hi, lo)
            SliceConstB { dst: u32, a: u32, hi: u32, lo: u32 },
            /// bigs[dst] = ir::slice(bigs[a], max, min) of word bounds hi/lo
            SliceDynB { dst: u32, a: u32, hi: u32, lo: u32 },
            /// bigs[dst] = ir::concat(bigs[a], bigs[b])
            ConcatB { dst: u32, a: u32, b: u32 },
            /// bigs[dst] = bigs[v].to_bits().replicate(words[n])
            ReplicateB { dst: u32, n: u32, v: u32 },
            /// bigs[dst] = bigs[a].resize(w)
            ResizeB { dst: u32, a: u32, w: u32 },
            /// words[dst] = bigs[a].bit(words[idx]) as u64
            BitSelB { dst: u32, a: u32, idx: u32 },

            // ----------------------------------------------------------- control
            Jump(u32),
            /// Jump when words[c] == 0.
            JumpIfZeroW { c: u32, t: u32 },
            /// Jump when words[c] != 0.
            JumpIfNonZeroW { c: u32, t: u32 },
            /// Fused: jump when bit `idx` of word net `net` is clear.
            JzNetBit { net: u32, aw: u32, idx: u32, t: u32 },
            /// Fused: jump when bit `idx` of word net `net` is set.
            JnzNetBit { net: u32, aw: u32, idx: u32, t: u32 },
            /// Fused: jump when word net `net` reads zero.
            JzNet { net: u32, t: u32 },
            /// Fused: jump when word net `net` reads non-zero.
            JnzNet { net: u32, t: u32 },
            JumpIfNotFinished(u32),
            CheckFinished(u32),
            LoopInit(u32),
            LoopCheck(u32),
            /// loops[slot] = words[src].min(cap)
            RepeatInit { src: u32, slot: u32 },
            RepeatTest { slot: u32, end: u32 },

            // ------------------------------------------------- scheduling & env
            /// nb.push((site, Val::Small(words[src], w)))
            NbW { site: u32, src: u32, w: u32 },
            /// Fused: nb.push((site, Val::Small(imm, w)))
            NbImm { site: u32, imm: u64, w: u32 },
            /// Fused: nb.push((site, Val::Small(net_w[net], w)))
            NbNet { site: u32, net: u32, w: u32 },
            /// nb.push((site, bigs[src].clone()))
            NbB { site: u32, src: u32 },
            Fopen { dst: u32, s: u32 },
            Feof { dst: u32, fd: u32 },
            /// Fused: words[dst] = env.feof(net_w[net])
            FeofNet { dst: u32, net: u32 },
            Random { dst: u32 },
            Fread { fd: u32, width: u32, skip: u32 },
            /// Fused: $fread with the descriptor read straight from a net.
            FreadNet { net: u32, width: u32, skip: u32 },
            Fclose { fd: u32 },
            PrintStr(u32),
            PrintValW { src: u32 },
            PrintValB { src: u32 },
            PrintFlush { newline: bool },
            Finish { src: u32 },
            Effect(u32),
        }
        operator {
            /// Fused compare-select: words[dst] = if `words[a] OP words[b]` is
            /// non-zero { words[t] } else { words[f] } — over the same two operands,
            /// an unsigned min/max in one dispatch.
            CmpSelW: BinaryOp { dst: u32, a: u32, aw: u32, b: u32, bw: u32, t: u32, f: u32 }
                => cmp_sel_w [
                Add CmpSelWAdd, Sub CmpSelWSub, Mul CmpSelWMul, Div CmpSelWDiv, Rem CmpSelWRem,
                And CmpSelWAnd, Or CmpSelWOr, Xor CmpSelWXor, Shl CmpSelWShl, Shr CmpSelWShr,
                AShr CmpSelWAShr, LogicalAnd CmpSelWLogicalAnd, LogicalOr CmpSelWLogicalOr,
                Eq CmpSelWEq, Ne CmpSelWNe, Lt CmpSelWLt, Le CmpSelWLe, Gt CmpSelWGt, Ge CmpSelWGe,
            ],
            /// Fused compare-select with immediate arms.
            CmpSelImmW: BinaryOp { dst: u32, a: u32, aw: u32, b: u32, bw: u32, t: u64, f: u64 }
                => cmp_sel_imm_w [
                Add CmpSelImmWAdd, Sub CmpSelImmWSub, Mul CmpSelImmWMul, Div CmpSelImmWDiv,
                Rem CmpSelImmWRem, And CmpSelImmWAnd, Or CmpSelImmWOr, Xor CmpSelImmWXor,
                Shl CmpSelImmWShl, Shr CmpSelImmWShr, AShr CmpSelImmWAShr,
                LogicalAnd CmpSelImmWLogicalAnd, LogicalOr CmpSelImmWLogicalOr, Eq CmpSelImmWEq,
                Ne CmpSelImmWNe, Lt CmpSelImmWLt, Le CmpSelImmWLe, Gt CmpSelImmWGt, Ge CmpSelImmWGe,
            ],
            /// Word binary op with static operand widths.
            BinW: BinaryOp { dst: u32, a: u32, b: u32, aw: u32, bw: u32 } => bin_w [
                Add BinWAdd, Sub BinWSub, Mul BinWMul, Div BinWDiv, Rem BinWRem, And BinWAnd,
                Or BinWOr, Xor BinWXor, Shl BinWShl, Shr BinWShr, AShr BinWAShr,
                LogicalAnd BinWLogicalAnd, LogicalOr BinWLogicalOr, Eq BinWEq, Ne BinWNe, Lt BinWLt,
                Le BinWLe, Gt BinWGt, Ge BinWGe,
            ],
            /// Fused: rhs is an immediate.
            BinImmW: BinaryOp { dst: u32, a: u32, aw: u32, imm: u64, bw: u32 } => bin_imm_w [
                Add BinImmWAdd, Sub BinImmWSub, Mul BinImmWMul, Div BinImmWDiv, Rem BinImmWRem,
                And BinImmWAnd, Or BinImmWOr, Xor BinImmWXor, Shl BinImmWShl, Shr BinImmWShr,
                AShr BinImmWAShr, LogicalAnd BinImmWLogicalAnd, LogicalOr BinImmWLogicalOr,
                Eq BinImmWEq, Ne BinImmWNe, Lt BinImmWLt, Le BinImmWLe, Gt BinImmWGt, Ge BinImmWGe,
            ],
            /// Fused: lhs is an immediate.
            ImmBinW: BinaryOp { dst: u32, imm: u64, aw: u32, b: u32, bw: u32 } => imm_bin_w [
                Sub ImmBinWSub, Div ImmBinWDiv, Rem ImmBinWRem, Shl ImmBinWShl, Shr ImmBinWShr,
                AShr ImmBinWAShr,
            ],
            /// Fused: lhs is a net read, rhs an immediate.
            NetBinImmW: BinaryOp { dst: u32, net: u32, aw: u32, imm: u64, bw: u32 }
                => net_bin_imm_w [
                Add NetBinImmWAdd, Sub NetBinImmWSub, Mul NetBinImmWMul, Div NetBinImmWDiv,
                Rem NetBinImmWRem, And NetBinImmWAnd, Or NetBinImmWOr, Xor NetBinImmWXor,
                Shl NetBinImmWShl, Shr NetBinImmWShr, AShr NetBinImmWAShr,
                LogicalAnd NetBinImmWLogicalAnd, LogicalOr NetBinImmWLogicalOr, Eq NetBinImmWEq,
                Ne NetBinImmWNe, Lt NetBinImmWLt, Le NetBinImmWLe, Gt NetBinImmWGt, Ge NetBinImmWGe,
            ],
            /// Fused: lhs is a register, rhs a net read.
            BinNetW: BinaryOp { dst: u32, a: u32, aw: u32, net: u32, bw: u32 } => bin_net_w [
                Add BinNetWAdd, Sub BinNetWSub, Mul BinNetWMul, Div BinNetWDiv, Rem BinNetWRem,
                And BinNetWAnd, Or BinNetWOr, Xor BinNetWXor, Shl BinNetWShl, Shr BinNetWShr,
                AShr BinNetWAShr, LogicalAnd BinNetWLogicalAnd, LogicalOr BinNetWLogicalOr,
                Eq BinNetWEq, Ne BinNetWNe, Lt BinNetWLt, Le BinNetWLe, Gt BinNetWGt, Ge BinNetWGe,
            ],
            /// Fused: lhs is a net read, rhs a register.
            NetBinW: BinaryOp { dst: u32, net: u32, aw: u32, b: u32, bw: u32 } => net_bin_w [
                Add NetBinWAdd, Sub NetBinWSub, Mul NetBinWMul, Div NetBinWDiv, Rem NetBinWRem,
                And NetBinWAnd, Or NetBinWOr, Xor NetBinWXor, Shl NetBinWShl, Shr NetBinWShr,
                AShr NetBinWAShr, LogicalAnd NetBinWLogicalAnd, LogicalOr NetBinWLogicalOr,
                Eq NetBinWEq, Ne NetBinWNe, Lt NetBinWLt, Le NetBinWLe, Gt NetBinWGt, Ge NetBinWGe,
            ],
            /// Fused: both operands are net reads (`a + b` in one dispatch).
            NetBinNetW: BinaryOp { dst: u32, neta: u32, aw: u32, netb: u32, bw: u32 }
                => net_bin_net_w [
                Add NetBinNetWAdd, Sub NetBinNetWSub, Mul NetBinNetWMul, Div NetBinNetWDiv,
                Rem NetBinNetWRem, And NetBinNetWAnd, Or NetBinNetWOr, Xor NetBinNetWXor,
                Shl NetBinNetWShl, Shr NetBinNetWShr, AShr NetBinNetWAShr,
                LogicalAnd NetBinNetWLogicalAnd, LogicalOr NetBinNetWLogicalOr, Eq NetBinNetWEq,
                Ne NetBinNetWNe, Lt NetBinNetWLt, Le NetBinNetWLe, Gt NetBinNetWGt, Ge NetBinNetWGe,
            ],
            /// Fused statement: net_dst = words[a] OP words[b] (resize+compare+mark).
            BinStoreNet: BinaryOp { a: u32, aw: u32, b: u32, bw: u32, net: u32, mask: u64 }
                => bin_store_net [
                Add BinStoreNetAdd, Sub BinStoreNetSub, Mul BinStoreNetMul, Div BinStoreNetDiv,
                Rem BinStoreNetRem, And BinStoreNetAnd, Or BinStoreNetOr, Xor BinStoreNetXor,
                Shl BinStoreNetShl, Shr BinStoreNetShr, AShr BinStoreNetAShr,
                LogicalAnd BinStoreNetLogicalAnd, LogicalOr BinStoreNetLogicalOr, Eq BinStoreNetEq,
                Ne BinStoreNetNe, Lt BinStoreNetLt, Le BinStoreNetLe, Gt BinStoreNetGt,
                Ge BinStoreNetGe,
            ],
            /// Fused statement: net_dst = words[a] OP imm.
            BinImmStoreNet: BinaryOp { a: u32, aw: u32, imm: u64, bw: u32, net: u32, mask: u64 }
                => bin_imm_store_net [
                Add BinImmStoreNetAdd, Sub BinImmStoreNetSub, Mul BinImmStoreNetMul,
                Div BinImmStoreNetDiv, Rem BinImmStoreNetRem, And BinImmStoreNetAnd,
                Or BinImmStoreNetOr, Xor BinImmStoreNetXor, Shl BinImmStoreNetShl,
                Shr BinImmStoreNetShr, AShr BinImmStoreNetAShr, LogicalAnd BinImmStoreNetLogicalAnd,
                LogicalOr BinImmStoreNetLogicalOr, Eq BinImmStoreNetEq, Ne BinImmStoreNetNe,
                Lt BinImmStoreNetLt, Le BinImmStoreNetLe, Gt BinImmStoreNetGt, Ge BinImmStoreNetGe,
            ],
            /// Fused statement: net_dst = net_w[src] OP imm.
            NetBinImmStoreNet: BinaryOp
                { src: u32, aw: u32, imm: u64, bw: u32, net: u32, mask: u64 }
                => net_bin_imm_store_net [
                Add NetBinImmStoreNetAdd, Sub NetBinImmStoreNetSub, Mul NetBinImmStoreNetMul,
                Div NetBinImmStoreNetDiv, Rem NetBinImmStoreNetRem, And NetBinImmStoreNetAnd,
                Or NetBinImmStoreNetOr, Xor NetBinImmStoreNetXor, Shl NetBinImmStoreNetShl,
                Shr NetBinImmStoreNetShr, AShr NetBinImmStoreNetAShr,
                LogicalAnd NetBinImmStoreNetLogicalAnd, LogicalOr NetBinImmStoreNetLogicalOr,
                Eq NetBinImmStoreNetEq, Ne NetBinImmStoreNetNe, Lt NetBinImmStoreNetLt,
                Le NetBinImmStoreNetLe, Gt NetBinImmStoreNetGt, Ge NetBinImmStoreNetGe,
            ],
            /// Fused statement: net_dst = net_w[neta] OP net_w[netb].
            NetBinNetStoreNet: BinaryOp
                { neta: u32, aw: u32, netb: u32, bw: u32, net: u32, mask: u64 }
                => net_bin_net_store_net [
                Add NetBinNetStoreNetAdd, Sub NetBinNetStoreNetSub, Mul NetBinNetStoreNetMul,
                Div NetBinNetStoreNetDiv, Rem NetBinNetStoreNetRem, And NetBinNetStoreNetAnd,
                Or NetBinNetStoreNetOr, Xor NetBinNetStoreNetXor, Shl NetBinNetStoreNetShl,
                Shr NetBinNetStoreNetShr, AShr NetBinNetStoreNetAShr,
                LogicalAnd NetBinNetStoreNetLogicalAnd, LogicalOr NetBinNetStoreNetLogicalOr,
                Eq NetBinNetStoreNetEq, Ne NetBinNetStoreNetNe, Lt NetBinNetStoreNetLt,
                Le NetBinNetStoreNetLe, Gt NetBinNetStoreNetGt, Ge NetBinNetStoreNetGe,
            ],
            /// Word unary op.
            UnW: UnaryOp { dst: u32, a: u32, w: u32 } => un_w [
                Not UnWNot, LogicalNot UnWLogicalNot, Neg UnWNeg, Plus UnWPlus,
                ReduceAnd UnWReduceAnd, ReduceOr UnWReduceOr, ReduceXor UnWReduceXor,
            ],
            /// Fused compare-and-branch: jump when `words[a] OP words[b]` is zero.
            JzBin: BinaryOp { a: u32, aw: u32, b: u32, bw: u32, t: u32 } => jz_bin [
                Add JzBinAdd, Sub JzBinSub, Mul JzBinMul, Div JzBinDiv, Rem JzBinRem, And JzBinAnd,
                Or JzBinOr, Xor JzBinXor, Shl JzBinShl, Shr JzBinShr, AShr JzBinAShr,
                LogicalAnd JzBinLogicalAnd, LogicalOr JzBinLogicalOr, Eq JzBinEq, Ne JzBinNe,
                Lt JzBinLt, Le JzBinLe, Gt JzBinGt, Ge JzBinGe,
            ],
            /// Fused compare-and-branch: jump when `words[a] OP words[b]` is non-zero.
            JnzBin: BinaryOp { a: u32, aw: u32, b: u32, bw: u32, t: u32 } => jnz_bin [
                Add JnzBinAdd, Sub JnzBinSub, Mul JnzBinMul, Div JnzBinDiv, Rem JnzBinRem,
                And JnzBinAnd, Or JnzBinOr, Xor JnzBinXor, Shl JnzBinShl, Shr JnzBinShr,
                AShr JnzBinAShr, LogicalAnd JnzBinLogicalAnd, LogicalOr JnzBinLogicalOr,
                Eq JnzBinEq, Ne JnzBinNe, Lt JnzBinLt, Le JnzBinLe, Gt JnzBinGt, Ge JnzBinGe,
            ],
            /// Fused compare-and-branch: jump when `words[a] OP imm` is zero.
            JzBinImm: BinaryOp { a: u32, aw: u32, imm: u64, bw: u32, t: u32 } => jz_bin_imm [
                Add JzBinImmAdd, Sub JzBinImmSub, Mul JzBinImmMul, Div JzBinImmDiv, Rem JzBinImmRem,
                And JzBinImmAnd, Or JzBinImmOr, Xor JzBinImmXor, Shl JzBinImmShl, Shr JzBinImmShr,
                AShr JzBinImmAShr, LogicalAnd JzBinImmLogicalAnd, LogicalOr JzBinImmLogicalOr,
                Eq JzBinImmEq, Ne JzBinImmNe, Lt JzBinImmLt, Le JzBinImmLe, Gt JzBinImmGt,
                Ge JzBinImmGe,
            ],
            /// Fused compare-and-branch: jump when `words[a] OP imm` is non-zero.
            JnzBinImm: BinaryOp { a: u32, aw: u32, imm: u64, bw: u32, t: u32 } => jnz_bin_imm [
                Add JnzBinImmAdd, Sub JnzBinImmSub, Mul JnzBinImmMul, Div JnzBinImmDiv,
                Rem JnzBinImmRem, And JnzBinImmAnd, Or JnzBinImmOr, Xor JnzBinImmXor,
                Shl JnzBinImmShl, Shr JnzBinImmShr, AShr JnzBinImmAShr,
                LogicalAnd JnzBinImmLogicalAnd, LogicalOr JnzBinImmLogicalOr, Eq JnzBinImmEq,
                Ne JnzBinImmNe, Lt JnzBinImmLt, Le JnzBinImmLe, Gt JnzBinImmGt, Ge JnzBinImmGe,
            ],
            /// Fused compare-and-branch: jump when `net_w[net] OP imm` is zero.
            JzNetBinImm: BinaryOp { net: u32, aw: u32, imm: u64, bw: u32, t: u32 }
                => jz_net_bin_imm [
                Add JzNetBinImmAdd, Sub JzNetBinImmSub, Mul JzNetBinImmMul, Div JzNetBinImmDiv,
                Rem JzNetBinImmRem, And JzNetBinImmAnd, Or JzNetBinImmOr, Xor JzNetBinImmXor,
                Shl JzNetBinImmShl, Shr JzNetBinImmShr, AShr JzNetBinImmAShr,
                LogicalAnd JzNetBinImmLogicalAnd, LogicalOr JzNetBinImmLogicalOr, Eq JzNetBinImmEq,
                Ne JzNetBinImmNe, Lt JzNetBinImmLt, Le JzNetBinImmLe, Gt JzNetBinImmGt,
                Ge JzNetBinImmGe,
            ],
            /// Fused compare-and-branch: jump when `net_w[net] OP imm` is non-zero.
            JnzNetBinImm: BinaryOp { net: u32, aw: u32, imm: u64, bw: u32, t: u32 }
                => jnz_net_bin_imm [
                Add JnzNetBinImmAdd, Sub JnzNetBinImmSub, Mul JnzNetBinImmMul, Div JnzNetBinImmDiv,
                Rem JnzNetBinImmRem, And JnzNetBinImmAnd, Or JnzNetBinImmOr, Xor JnzNetBinImmXor,
                Shl JnzNetBinImmShl, Shr JnzNetBinImmShr, AShr JnzNetBinImmAShr,
                LogicalAnd JnzNetBinImmLogicalAnd, LogicalOr JnzNetBinImmLogicalOr,
                Eq JnzNetBinImmEq, Ne JnzNetBinImmNe, Lt JnzNetBinImmLt, Le JnzNetBinImmLe,
                Gt JnzNetBinImmGt, Ge JnzNetBinImmGe,
            ],
            /// Fused: nb.push((site, Val::Small(net_w[net] OP imm, w)))
            NbNetBinImm: BinaryOp (site: u32) { net: u32, aw: u32, imm: u64, w: u32, bw: u32 }
                => nb_net_bin_imm [
                Add NbNetBinImmAdd, Sub NbNetBinImmSub, Mul NbNetBinImmMul, Div NbNetBinImmDiv,
                Rem NbNetBinImmRem, And NbNetBinImmAnd, Or NbNetBinImmOr, Xor NbNetBinImmXor,
                Shl NbNetBinImmShl, Shr NbNetBinImmShr, AShr NbNetBinImmAShr,
                LogicalAnd NbNetBinImmLogicalAnd, LogicalOr NbNetBinImmLogicalOr, Eq NbNetBinImmEq,
                Ne NbNetBinImmNe, Lt NbNetBinImmLt, Le NbNetBinImmLe, Gt NbNetBinImmGt,
                Ge NbNetBinImmGe,
            ],
        }
    } };
}
pub(crate) use word_ops;

/// Declares [`WOp`], [`XOp`] and the conversions between them (invoked once,
/// through [`word_ops!`], below).
macro_rules! define_word_ops {
    (
        {}
        plain { $( $(#[$pm:meta])* $p:ident $pbody:tt ),* $(,)? }
        operator { $(
            $(#[$om:meta])*
            $s:ident : $opty:ident $( ( $($pre:ident : $prt:ty),* ) )?
                { $($f:ident : $ft:ty),* $(,)? } => $kfn:ident [ $($o:ident $k:ident),* $(,)? ]
        ),* $(,)? }
    ) => {
        /// Three-address ops over the word (`u64`) and big ([`Val`](crate::ir::Val))
        /// register arenas, as the translation emits and the dumps print
        /// them. `W`-suffixed ops touch only word registers; `B`-suffixed ops
        /// are the per-op `Val` fallback, sharing the stack oracle's scalar
        /// routines.
        #[derive(Debug, Clone, PartialEq)]
        pub(crate) enum WOp {
            $( $(#[$pm])* $p $pbody, )*
            $( $(#[$om])* $s { $($($pre: $prt,)*)? op: $opty, $($f: $ft),* }, )*
        }

        $crate::wop::define_word_ops! { @xop (v, op)
            plain { $( $(#[$pm])* $p $pbody, )* }
            operator { $( $s $opty { $($($pre: $prt,)*)? $($f: $ft),* } [ $($o $k)* ] )* }
        }
    };
    (@xop ($v:ident, $opv:ident)
        plain { $( $(#[$pm:meta])* $p:ident $pbody:tt, )* }
        operator { $( $s:ident $opty:ident $fields:tt [ $($o:ident $k:ident)* ] )* }
    ) => {
        /// A [`WOp`] as the word machine executes it: the operator of an
        /// operator-carrying shape is part of the variant.
        #[derive(Clone, Copy)]
        pub(crate) enum XOp {
            $( $(#[$pm])* $p $pbody, )*
            $( $( $k $fields, )* )*
        }

        /// The executable variant names, one per (shape, operator) pair.
        #[cfg(test)]
        pub(crate) const KERNELS: &[&str] = &[ $( $( stringify!($k), )* )* ];

        /// Fixes the operator; a pair the table has no variant for is
        /// returned unchanged as the error.
        impl TryFrom<WOp> for XOp {
            type Error = WOp;

            fn try_from(w: WOp) -> Result<XOp, WOp> {
                Ok(match w {
                    $( $crate::wop::shape!($v; WOp::$p $pbody) =>
                        $crate::wop::shape!($v; XOp::$p $pbody), )*
                    $( $crate::wop::shape!(op = $opv; WOp::$s $fields) => match $opv {
                        $( $opty::$o => $crate::wop::shape!($v; XOp::$k $fields), )*
                        #[allow(unreachable_patterns)]
                        _ => return Err(w),
                    }, )*
                })
            }
        }

        impl From<XOp> for WOp {
            fn from(x: XOp) -> WOp {
                match x {
                    $( $crate::wop::shape!($v; XOp::$p $pbody) =>
                        $crate::wop::shape!($v; WOp::$p $pbody), )*
                    $( $( $crate::wop::shape!($v; XOp::$k $fields) =>
                        $crate::wop::shape!(op = $opty::$o; WOp::$s $fields), )* )*
                }
            }
        }
    };
}
pub(crate) use define_word_ops;

/// A variant's field bindings, as a pattern or as a constructor (the two
/// read alike): `Path { a, b }` for `{ a: T, b: U }`, `Path(v)` for `(T)`,
/// and with `op = …` an `op` field besides.
macro_rules! shape {
    ($v:ident; $($path:ident)::+ { $($f:ident : $t:ty),* $(,)? }) => {
        $($path)::+ { $($f),* }
    };
    ($v:ident; $($path:ident)::+ ( $t:ty )) => {
        $($path)::+ ($v)
    };
    (op = $($op:ident)::+; $($path:ident)::+ { $($f:ident : $t:ty),* $(,)? }) => {
        $($path)::+ { op: $($op)::+, $($f),* }
    };
}
pub(crate) use shape;

/// The executor's dispatch: `word_ops!(word_dispatch! { (wp, st, pc) op =>
/// { arms } })` is `match op { arms }` plus one arm per (shape, operator)
/// pair, which runs the shape's kernel with that operator on `wp`, `st` and
/// `pc` (a compare-branch sets it).
macro_rules! word_dispatch {
    (
        { ($wp:ident, $st:ident, $pc:ident) $op:expr => { $($arms:tt)* } }
        plain $plain:tt
        operator { $(
            $(#[$om:meta])*
            $s:ident : $opty:ident $( ( $($pre:ident : $prt:ty),* ) )?
                { $($f:ident : $ft:ty),* $(,)? } => $kfn:ident [ $($o:ident $k:ident),* $(,)? ]
        ),* $(,)? }
    ) => {
        $crate::wop::word_dispatch! { @arms ($wp, $st, $pc) ($op) { $($arms)* }
            $( $kfn { $($($pre,)*)? $($f),* } [ $($o $k)* ] )*
        }
    };
    (@arms ($wp:ident, $st:ident, $pc:ident) ($op:expr) { $($arms:tt)* }
        $( $kfn:ident $names:tt [ $($o:ident $k:ident)* ] )*
    ) => {
        match $op {
            $($arms)*
            $( $( XOp::$k $names => {
                $crate::wop::word_dispatch!(@call $kfn $o ($wp, $st, &mut $pc) $names)
            } )* )*
        }
    };
    (@call $kfn:ident $o:ident ($($x:expr),*) { $($f:ident),* }) => {
        $kfn::<$crate::wop::op::$o>($($x,)* $(*$f),*)
    };
}
pub(crate) use word_dispatch;

word_ops!(define_word_ops! {});

// The executable op is what the tick loop streams through the cache: it may
// be no fatter than the `WOp` it replaced.
const _: () = assert!(std::mem::size_of::<XOp>() <= 40);
