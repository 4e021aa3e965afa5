//! Local value numbering: common-subexpression elimination, net-read
//! forwarding, and redundant-store elimination over basic blocks.
//!
//! Each block is walked forward with an abstract stack of value numbers.
//! A pure producer range whose value is already available — in a net whose
//! current value number matches, in a temp, or as an earlier identical
//! computation (which gets a `StoreTemp`/`PushTemp` tee) — is replaced by
//! a single push. A `StoreNet` whose incoming value number equals the
//! net's current one is deleted (the store layer's compare-equal makes it
//! a no-op either way).
//!
//! **Values ride in registers, not nets.** A read of a slot the block itself
//! wrote — `PushNet(n)` after `StoreNet(n)`, `MemReadConst`/`PushMemElem0`
//! after an in-range `StoreMemConst` — becomes a `PushTemp` of a tee placed
//! at the store (holding the value *as stored*: resized to the declared
//! width when its own width is unknown or differs). Only word-class slots
//! (at most 64 bits) are promoted, only where it pays (a memory element
//! always — its loads never fuse; a net only when the block stores it again,
//! so that `dse` can then delete the store the reads no longer need), and
//! never at a store that is its block's first op: a branch landing on an
//! insertion point lands *after* the inserted ops, so the jumping path would
//! skip the tee. A partial or dynamic store (`StoreBit`, `StoreSliceDyn`,
//! `StoreMem`) ends the promotion of what it may redefine; the ops that can
//! snapshot or abort the design (`LoopCheck`, `Finish`, `Effect` — the
//! barrier list `dse` uses) end the block and with it every temp's validity.
//!
//! Correctness leans on two rules. First, only fully speculable ranges are
//! ever deleted or bypassed, so tees (`StoreTemp`) and other side effects
//! are never removed by a containing rewrite. Second, non-blocking
//! `NbSchedule` ops do **not** touch net state — a net read after an NB
//! assignment still sees the pre-assignment value until the latch at the
//! end of the delta, so merging reads across an NB boundary is exact (and
//! treating the NB store like a blocking one would not be).

use std::collections::{BTreeSet, HashMap, HashSet};

use crate::analysis::{apply_edits, blocks, pure_range, stack_effect, Edit, StackSim};
use synergy_codegen::ir::{self, Code, CompiledProgram, Op, Val};
use synergy_vlog::ast::{BinaryOp, UnaryOp};

/// Runs the pass; returns the number of rewrites.
pub(crate) fn run(prog: &mut CompiledProgram) -> u64 {
    let net_w: Vec<u32> = prog.nets.iter().map(|n| n.width).collect();
    let mem_w: Vec<u32> = prog.mems.iter().map(|m| m.width).collect();
    let mem_d: Vec<u32> = prog.mems.iter().map(|m| m.depth).collect();
    let consts = prog.consts.clone();
    let mut n_temps = prog.n_temps;
    let mut rewrites = 0u64;
    let ctxs = Ctx {
        net_w: &net_w,
        mem_w: &mem_w,
        mem_d: &mem_d,
        consts: &consts,
    };
    {
        let mut run_code = |code: &mut Code| {
            for _ in 0..10 {
                let n = cse_once(code, &ctxs, &mut n_temps);
                rewrites += n;
                if n == 0 {
                    break;
                }
            }
        };
        for node in &mut prog.comb {
            run_code(&mut node.code);
        }
        for a in &mut prog.always {
            for (_, g) in &mut a.guards {
                run_code(g);
            }
            run_code(&mut a.body);
        }
        for c in &mut prog.initials {
            run_code(c);
        }
        for c in &mut prog.nb_sites {
            run_code(c);
        }
    }
    prog.n_temps = n_temps;
    if rewrites > 0 {
        let _ = crate::relevel::rebuild_tables(prog);
    }
    rewrites
}

struct Ctx<'a> {
    net_w: &'a [u32],
    mem_w: &'a [u32],
    mem_d: &'a [u32],
    consts: &'a [Val],
}

type VnId = u32;

#[derive(Hash, PartialEq, Eq, Clone)]
enum Key {
    Const(u32),
    UnkNet(u32),
    UnkTemp(u32),
    Entry(u32),
    Opaque(u32),
    /// What a constant read past a memory's depth yields.
    Zero(u32),
    Time,
    ValueReg,
    MemDyn(u32, u32, VnId),
    MemElem(u32, u32, u32),
    Un(u8, VnId),
    Bin(u8, VnId, VnId),
    Concat(VnId, VnId),
    Resize(u32, VnId),
    Slice(u32, u32, VnId),
    BitSel(VnId, VnId),
    SliceDyn(VnId, VnId, VnId),
    Select(VnId, VnId, VnId),
    Replicate(VnId, VnId),
}

/// A whole-slot store whose value the slot still holds: where a tee for a
/// later read of the slot goes.
#[derive(Clone, Copy)]
struct Site {
    pc: usize,
    /// The declared width, when the stored value must be resized to it.
    resize: Option<u32>,
}

#[derive(Default)]
struct Vn {
    ids: HashMap<Key, VnId>,
    width: Vec<Option<u32>>,
    net_vn: HashMap<u32, VnId>,
    temp_vn: HashMap<u32, VnId>,
    mem_gen: HashMap<u32, u32>,
    mem_elem_vn: HashMap<(u32, u32), VnId>,
    avail_net: HashMap<VnId, u32>,
    avail_temp: HashMap<VnId, u32>,
    first: HashMap<VnId, (usize, usize)>,
    net_site: HashMap<u32, Site>,
    elem_site: HashMap<(u32, u32), Site>,
    entries: u32,
}

impl Vn {
    fn intern(&mut self, key: Key, width: Option<u32>) -> VnId {
        if let Some(&v) = self.ids.get(&key) {
            return v;
        }
        let v = self.width.len() as VnId;
        self.ids.insert(key, v);
        self.width.push(width);
        v
    }

    fn opaque(&mut self, pc: usize, width: Option<u32>) -> VnId {
        // `Opaque` keys are unique per creation: reuse of the same pc in a
        // later fixpoint iteration starts from a fresh `Vn` anyway.
        self.entries += 1;
        let tag = self.entries;
        self.intern(Key::Opaque(pc as u32 ^ (tag << 20)), width)
    }
}

/// One analyze-and-apply sweep over `code`; returns rewrites applied.
fn cse_once(code: &mut Code, ctx: &Ctx, n_temps: &mut u32) -> u64 {
    let mut edits: Vec<Edit> = Vec::new();
    let blocks = blocks(code);
    let overwritten = stores_overwritten(code, &blocks);
    for (bs, be) in blocks {
        analyze_block(code, bs, be, &overwritten, ctx, n_temps, &mut edits);
    }
    apply_edits(code, edits)
}

fn bin_width(op: BinaryOp, aw: Option<u32>, bw: Option<u32>) -> Option<u32> {
    let (aw, bw) = (aw?, bw?);
    Some(ir::binary(op, &Val::zero(aw as usize), &Val::zero(bw as usize)).width())
}

fn un_width(op: UnaryOp, aw: Option<u32>) -> Option<u32> {
    Some(ir::unary(op, &Val::zero(aw? as usize)).width())
}

/// The rewrites one block has committed to so far.
#[derive(Default)]
struct Plan {
    /// Replaced ranges, in commit order — which is ascending `end`, because
    /// every one ends at the op under the walk.
    kept: Vec<(usize, usize)>,
    /// Insertion points (tees).
    tees: BTreeSet<usize>,
    /// Insertion points whose tee resizes the value under it: no other tee
    /// may share the point, or it would capture the wrong one of the two.
    resizing: HashSet<usize>,
    /// Promoted reads: single-op replacements that give way to any range
    /// rewrite that later covers them.
    promos: Vec<Edit>,
    edits: Vec<Edit>,
}

impl Plan {
    /// `true` when `[s, e)` can be replaced: it overlaps no replaced range
    /// and spans no tee.
    fn free(&self, s: usize, e: usize) -> bool {
        let from = self.kept.partition_point(|&(_, ke)| ke <= s);
        self.kept[from..].iter().all(|&(ks, _)| ks >= e)
            && (e <= s + 1 || self.tees.range(s + 1..e).next().is_none())
    }

    fn commit(&mut self, e: Edit) {
        if e.start == e.end {
            self.tees.insert(e.start);
        } else {
            self.kept.push((e.start, e.end));
        }
        self.edits.push(e);
    }

    /// Inserts `StoreTemp(t); PushTemp(t)` at `at`, after a `Resize` when
    /// the tee is to hold the value at another width.
    fn tee(&mut self, at: usize, t: u32, resize: Option<u32>) {
        let mut repl: Vec<Op> = resize.map(Op::Resize).into_iter().collect();
        repl.extend([Op::StoreTemp(t), Op::PushTemp(t)]);
        if resize.is_some() {
            self.resizing.insert(at);
        }
        self.commit(Edit {
            start: at,
            end: at,
            repl,
        });
    }
}

/// The pcs (ascending) of every `StoreNet` its block overwrites later with no
/// partial store of the same net in between: once the reads in between come
/// from a register, that store is dead, which is what makes promoting them
/// pay (a net load usually fuses into its consumer for free; a register
/// operand that keeps its store alive is one word op *more*).
fn stores_overwritten(code: &[Op], blocks: &[(usize, usize)]) -> Vec<usize> {
    let mut out = Vec::new();
    // Most programs are a comb driver or a latch site: one store, no work.
    let is_store = |op: &Op| matches!(op, Op::StoreNet(_));
    if code.iter().filter(|op| is_store(op)).nth(1).is_none() {
        return out;
    }
    let mut again: HashSet<u32> = HashSet::new();
    for &(bs, be) in blocks {
        again.clear();
        for pc in (bs..be).rev() {
            match &code[pc] {
                Op::StoreNet(n) if !again.insert(*n) => out.push(pc),
                Op::StoreBit(n) | Op::StoreSliceDyn(n) => {
                    again.remove(n);
                }
                _ => {}
            }
        }
    }
    out.sort_unstable();
    out
}

fn analyze_block(
    code: &[Op],
    bs: usize,
    be: usize,
    overwritten: &[usize],
    ctx: &Ctx,
    n_temps: &mut u32,
    edits: &mut Vec<Edit>,
) {
    let mut vn = Vn::default();
    let mut sim = StackSim::new();
    let mut stack: Vec<VnId> = Vec::new();
    let mut stored_here: HashSet<u32> = HashSet::new();
    let mut plan = Plan::default();

    for pc in bs..be {
        let op = &code[pc];
        // Pop value numbers in sync with the stack simulator.
        let (pops, _) = stack_effect(op);
        let mut args: Vec<VnId> = Vec::new();
        for _ in 0..pops {
            args.push(stack.pop().unwrap_or_else(|| {
                vn.entries += 1;
                let e = vn.entries;
                vn.intern(Key::Entry(e), None)
            }));
        }
        // args[0] is the old top of stack.
        let full_start = sim.operands_start(pops);
        sim.step(pc, op);

        match op {
            Op::PushConst(k) => {
                let w = ctx.consts.get(*k as usize).map(|v| v.width());
                let v = vn.intern(Key::Const(*k), w);
                stack.push(v);
            }
            Op::PushNet(n) => {
                let w = ctx.net_w.get(*n as usize).copied();
                let v = match vn.net_vn.get(n) {
                    Some(&v) => v,
                    None => {
                        let v = vn.intern(Key::UnkNet(*n), w);
                        vn.net_vn.insert(*n, v);
                        vn.avail_net.insert(v, *n);
                        v
                    }
                };
                stack.push(v);
                if let Some(&site) = vn.net_site.get(n) {
                    promote(pc, site, v, &mut vn, &mut plan, n_temps);
                }
            }
            Op::PushTemp(t) => {
                let v = match vn.temp_vn.get(t) {
                    Some(&v) => v,
                    None => {
                        let v = vn.intern(Key::UnkTemp(*t), None);
                        vn.temp_vn.insert(*t, v);
                        v
                    }
                };
                stack.push(v);
            }
            Op::PushTime => {
                let v = vn.intern(Key::Time, Some(64));
                stack.push(v);
            }
            Op::PushValueReg => {
                let v = vn.intern(Key::ValueReg, None);
                stack.push(v);
            }
            Op::PushMemElem0(m) | Op::MemReadConst { mem: m, elem: _ } => {
                let elem = match op {
                    Op::MemReadConst { elem, .. } => *elem,
                    _ => 0,
                };
                let w = ctx.mem_w.get(*m as usize).copied();
                let v = if elem >= ctx.mem_d[*m as usize] {
                    // Past the depth every read is zero, whatever was
                    // "stored" there (such a store is dropped).
                    vn.intern(Key::Zero(w.unwrap_or(1)), w)
                } else {
                    match vn.mem_elem_vn.get(&(*m, elem)) {
                        Some(&v) => v,
                        None => {
                            let gen = *vn.mem_gen.get(m).unwrap_or(&0);
                            let v = vn.intern(Key::MemElem(*m, elem, gen), w);
                            vn.mem_elem_vn.insert((*m, elem), v);
                            v
                        }
                    }
                };
                stack.push(v);
                if let Some(&site) = vn.elem_site.get(&(*m, elem)) {
                    promote(pc, site, v, &mut vn, &mut plan, n_temps);
                }
            }
            Op::MemRead(m) => {
                let gen = *vn.mem_gen.get(m).unwrap_or(&0);
                let w = ctx.mem_w.get(*m as usize).copied();
                let v = vn.intern(Key::MemDyn(*m, gen, args[0]), w);
                stack.push(v);
                reuse_or_tee(
                    code,
                    pc,
                    full_start,
                    v,
                    &mut vn,
                    &stored_here,
                    &mut plan,
                    n_temps,
                );
            }
            Op::BitSelect
            | Op::SliceConst { .. }
            | Op::SliceDyn
            | Op::Unary(_)
            | Op::Binary(_)
            | Op::Concat2
            | Op::Resize(_)
            | Op::Select
            | Op::ReplicateDyn => {
                let v = expr_vn(op, &args, &mut vn);
                stack.push(v);
                if !matches!(op, Op::ReplicateDyn) {
                    reuse_or_tee(
                        code,
                        pc,
                        full_start,
                        v,
                        &mut vn,
                        &stored_here,
                        &mut plan,
                        n_temps,
                    );
                }
            }
            Op::StoreNet(n) => {
                let declw = ctx.net_w[*n as usize];
                let v = args[0];
                let exact = vn.width[v as usize] == Some(declw);
                let tvn = if exact {
                    v
                } else {
                    vn.intern(Key::Resize(declw, v), Some(declw))
                };
                if vn.net_vn.get(n) == Some(&tvn) {
                    // Redundant store: the net already holds this value.
                    delete_store(code, pc, full_start, &mut plan);
                } else {
                    vn.net_vn.insert(*n, tvn);
                    vn.avail_net.insert(tvn, *n);
                    stored_here.insert(*n);
                    vn.net_site.remove(n);
                    if declw <= 64 && pc > bs && overwritten.binary_search(&pc).is_ok() {
                        let resize = (!exact).then_some(declw);
                        vn.net_site.insert(*n, Site { pc, resize });
                    }
                }
            }
            Op::StoreTemp(t) => {
                vn.temp_vn.insert(*t, args[0]);
                vn.avail_temp.insert(args[0], *t);
            }
            Op::StoreBit(n) | Op::StoreSliceDyn(n) => {
                let v = vn.opaque(pc, ctx.net_w.get(*n as usize).copied());
                vn.net_vn.insert(*n, v);
                vn.net_site.remove(n);
                stored_here.insert(*n);
            }
            Op::StoreMem(m) => {
                *vn.mem_gen.entry(*m).or_insert(0) += 1;
                vn.mem_elem_vn.retain(|&(mm, _), _| mm != *m);
                vn.elem_site.retain(|&(mm, _), _| mm != *m);
            }
            // A constant store past the depth is dropped: it defines
            // nothing, and the element keeps reading zero.
            Op::StoreMemConst { mem, elem } if *elem >= ctx.mem_d[*mem as usize] => {}
            Op::StoreMemConst { mem, elem } => {
                let declw = ctx.mem_w[*mem as usize];
                let v = args[0];
                let exact = vn.width[v as usize] == Some(declw);
                let tvn = if exact {
                    v
                } else {
                    vn.intern(Key::Resize(declw, v), Some(declw))
                };
                if vn.mem_elem_vn.get(&(*mem, *elem)) == Some(&tvn) {
                    delete_store(code, pc, full_start, &mut plan);
                } else {
                    *vn.mem_gen.entry(*mem).or_insert(0) += 1;
                    vn.mem_elem_vn.insert((*mem, *elem), tvn);
                    vn.elem_site.remove(&(*mem, *elem));
                    if declw <= 64 && pc > bs {
                        let resize = (!exact).then_some(declw);
                        vn.elem_site.insert((*mem, *elem), Site { pc, resize });
                    }
                }
            }
            // Everything else: effects on the environment or control flow
            // only. Value-producing ones push opaque numbers.
            other => {
                let (_, pushes) = stack_effect(other);
                for _ in 0..pushes {
                    let v = vn.opaque(pc, None);
                    stack.push(v);
                }
            }
        }

        // Record the first pure producing range of each value number.
        if let (Some(s), Some(&v)) = (sim.starts.last().cloned().flatten(), stack.last()) {
            let end = pc + 1;
            if end > s && pure_range(code, s, end) {
                vn.first.entry(v).or_insert((s, end));
            }
        }
    }

    // A promoted read inside a range that was replaced wholesale is gone.
    let Plan {
        kept,
        promos,
        edits: planned,
        ..
    } = plan;
    edits.extend(planned);
    edits.extend(promos.into_iter().filter(|p| {
        let from = kept.partition_point(|&(_, ke)| ke <= p.start);
        kept[from..].iter().all(|&(ks, _)| ks > p.start)
    }));
}

/// Queues deletion of the redundant store at `pc`: with its whole producing
/// range when that is pure, otherwise the store alone (a `Pop` takes the
/// value).
fn delete_store(code: &[Op], pc: usize, full_start: Option<usize>, plan: &mut Plan) {
    match full_start {
        Some(s) if pure_range(code, s, pc) && plan.free(s, pc + 1) => plan.commit(Edit {
            start: s,
            end: pc + 1,
            repl: Vec::new(),
        }),
        _ if plan.free(pc, pc + 1) => plan.commit(Edit {
            start: pc,
            end: pc + 1,
            repl: vec![Op::Pop],
        }),
        _ => {}
    }
}

/// Turns the read at `pc` of a slot stored at `site` (now holding value
/// number `v`) into a read of a temp: one that already holds `v`, or a new
/// tee at the store.
fn promote(pc: usize, site: Site, v: VnId, vn: &mut Vn, plan: &mut Plan, n_temps: &mut u32) {
    let t = match vn.avail_temp.get(&v) {
        Some(&t) if vn.temp_vn.get(&t) == Some(&v) => t,
        _ => {
            // Two tees at one point commute only when neither resizes.
            if plan.resizing.contains(&site.pc)
                || (site.resize.is_some() && plan.tees.contains(&site.pc))
            {
                return;
            }
            let t = *n_temps;
            *n_temps += 1;
            plan.tee(site.pc, t, site.resize);
            vn.temp_vn.insert(t, v);
            vn.avail_temp.insert(v, t);
            t
        }
    };
    plan.promos.push(Edit {
        start: pc,
        end: pc + 1,
        repl: vec![Op::PushTemp(t)],
    });
}

/// Value numbers for pure expression ops over already-numbered operands.
/// `args` holds popped operands top-first (`args[0]` was the top of stack).
fn expr_vn(op: &Op, args: &[VnId], vn: &mut Vn) -> VnId {
    let w = |vn: &Vn, v: VnId| vn.width[v as usize];
    match op {
        Op::Unary(u) => {
            let a = args[0];
            let width = un_width(*u, w(vn, a));
            vn.intern(Key::Un(*u as u8, a), width)
        }
        Op::Binary(b) => {
            let (rhs, lhs) = (args[0], args[1]);
            let width = bin_width(*b, w(vn, lhs), w(vn, rhs));
            vn.intern(Key::Bin(*b as u8, lhs, rhs), width)
        }
        Op::Concat2 => {
            let (rhs, lhs) = (args[0], args[1]);
            let width = match (w(vn, lhs), w(vn, rhs)) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
            vn.intern(Key::Concat(lhs, rhs), width)
        }
        Op::Resize(to) => {
            let a = args[0];
            if w(vn, a) == Some(*to) {
                a
            } else {
                vn.intern(Key::Resize(*to, a), Some(*to))
            }
        }
        Op::SliceConst { hi, lo } => {
            let a = args[0];
            vn.intern(Key::Slice(*hi, *lo, a), Some(hi - lo + 1))
        }
        Op::BitSelect => {
            let (idx, base) = (args[0], args[1]);
            vn.intern(Key::BitSel(base, idx), Some(1))
        }
        Op::SliceDyn => {
            let (lo, hi, base) = (args[0], args[1], args[2]);
            vn.intern(Key::SliceDyn(base, hi, lo), None)
        }
        Op::Select => {
            let (b, a, c) = (args[0], args[1], args[2]);
            if a == b {
                return a;
            }
            let width = match (w(vn, a), w(vn, b)) {
                (Some(x), Some(y)) if x == y => Some(x),
                _ => None,
            };
            vn.intern(Key::Select(c, a, b), width)
        }
        Op::ReplicateDyn => {
            let (v, n) = (args[0], args[1]);
            vn.intern(Key::Replicate(n, v), None)
        }
        _ => unreachable!("expr_vn called on non-expression op"),
    }
}

/// Tries to replace the pure producing range ending at `pc` with a read of
/// an existing location holding the same value.
fn value_reuse(
    code: &[Op],
    pc: usize,
    full_start: Option<usize>,
    v: VnId,
    vn: &Vn,
    stored_here: &HashSet<u32>,
    plan: &Plan,
) -> Option<Edit> {
    let s = full_start?;
    let end = pc + 1;
    if end - s < 2 || !pure_range(code, s, end) || !plan.free(s, end) {
        return None;
    }
    if let Some(&n) = vn.avail_net.get(&v) {
        if vn.net_vn.get(&n) == Some(&v) && !stored_here.contains(&n) {
            return Some(Edit {
                start: s,
                end,
                repl: vec![Op::PushNet(n)],
            });
        }
    }
    if let Some(&t) = vn.avail_temp.get(&v) {
        if vn.temp_vn.get(&t) == Some(&v) {
            return Some(Edit {
                start: s,
                end,
                repl: vec![Op::PushTemp(t)],
            });
        }
    }
    None
}

/// [`value_reuse`], falling back to creating a tee at the first identical
/// computation when no location already holds the value.
#[allow(clippy::too_many_arguments)]
fn reuse_or_tee(
    code: &[Op],
    pc: usize,
    full_start: Option<usize>,
    v: VnId,
    vn: &mut Vn,
    stored_here: &HashSet<u32>,
    plan: &mut Plan,
    n_temps: &mut u32,
) {
    if let Some(e) = value_reuse(code, pc, full_start, v, vn, stored_here, plan) {
        plan.commit(e);
        return;
    }
    // Tee: first identical computation exists earlier in the block.
    let Some(&(_, fe)) = vn.first.get(&v) else {
        return;
    };
    let Some(s) = full_start else { return };
    let end = pc + 1;
    if fe > s || end - s < 2 || !pure_range(code, s, end) || !plan.free(s, end) {
        return;
    }
    // The tee must not land inside a replaced range, nor beside a tee that
    // resizes what it would capture.
    let from = plan.kept.partition_point(|&(_, ke)| ke <= fe);
    if plan.kept[from..].iter().any(|&(ks, _)| ks < fe) || plan.resizing.contains(&fe) {
        return;
    }
    let t = *n_temps;
    *n_temps += 1;
    plan.tee(fe, t, None);
    plan.commit(Edit {
        start: s,
        end,
        repl: vec![Op::PushTemp(t)],
    });
    vn.temp_vn.insert(t, v);
    vn.avail_temp.insert(v, t);
}
