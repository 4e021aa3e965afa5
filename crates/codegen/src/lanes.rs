//! Cohorts: tenants of one compiled program ticking in lockstep.
//!
//! **One job:** run `W` copies of one translated program — one per tenant,
//! each with its own data — as one structure-of-arrays machine, so that each
//! word op is dispatched once and applied to every lane. Every register, word
//! net and memory word holds `[u64; W]`, one word per lane, so the full-mask
//! loop of a kernel is a straight `for l in 0..W` the compiler vectorises.
//! The operator kernels are generated from the same `word_ops!` table and the
//! same [`FixedBinary`]/[`FixedUnary`] operator types as the scalar
//! executor's (`wordexec.rs`), so no operator's arithmetic is written twice.
//!
//! **Eligibility is static** ([`plan`], computed once when a program's word
//! programs are built): every guard is an edge of one clock net, nothing
//! writes that net, there is no `@*` block, no combinational node wakes a
//! node of its own level, and every op is one this executor implements
//! (word ops, the file and print tasks, `$finish` and the effects; of the
//! wide-value ops only the value register's `LoadValueReg`/`BigToWord`/
//! `WordToBig` and a word-net `StoreSlice`). Then which blocks a clock edge
//! fires depends on the clock alone, and the scheduler of
//! [`crate::sim`] reduces to a fixed shape that this module replays per lane:
//! write the clock, settle (propagate, sample, run the fired bodies each
//! followed by a propagate, latch), write it back, settle.
//!
//! **Correct for any data.** A branch on which lanes disagree splits the
//! active lane mask; the group with the lowest `pc` runs first and groups
//! that meet at one `pc` merge again. Combinational nodes run under a
//! per-lane dirty mask, non-blocking queues, latched values, print buffers
//! and effects are per lane, and lane `l` only ever computes lane `l`'s
//! values. Every counter the scalar scheduler keeps (`settle_iters`,
//! `worklist_drains`, `guard_epoch_skips`) is kept per lane and comes out as
//! a solo run's. A lane that raises an effect (`$finish`, `$save`, …) stops
//! at the end of that tick: [`Cohort::run`] reports it, and its owner
//! continues it on the scalar machine.
//!
//! A cohort works on its own copy of every lane's state: the lanes' sims are
//! untouched until [`Cohort::scatter`], so a caller can abandon a cohort (an
//! error, a panic) and rerun each lane from where it was.

use crate::ir::{CompiledProgram, Val};
use crate::sim::{
    comb_buckets, unconverged, unstable, CompiledSim, ExecCounters, Observed,
    MAX_PROPAGATION_ITERS, MAX_SETTLE_ITERS,
};
use crate::wop::{word_ops, WOp, XOp};
use crate::wordexec::{word, WComb, WGuard, WNbSite, WordProgs};
use std::fmt::Write as _;
use std::sync::Arc;
use synergy_interp::{SystemEnv, TaskEffect};
use synergy_vlog::ast::Edge;
use synergy_vlog::{VlogError, VlogResult};

/// What the lockstep schedule needs to know about a program, decided once
/// when its word programs are built.
#[derive(Clone, Default)]
pub(crate) struct LanePlan {
    /// The clock net every guard samples, or why the program cannot tick as
    /// a cohort.
    pub(crate) clock: Option<u32>,
    pub(crate) refusal: String,
    /// Worklist bucket (level - 1) per combinational node, and the count.
    comb_bucket: Vec<u32>,
    n_levels: usize,
}

/// The ops the lane executor does not implement: the wide-value shapes but
/// the value register's, and the run-time loop counters.
macro_rules! uncovered {
    () => {
        XOp::MovB { .. }
            | XOp::ConstB { .. }
            | XOp::TruthB { .. }
            | XOp::SelB { .. }
            | XOp::LoadNetB { .. }
            | XOp::StoreNetB { .. }
            | XOp::LoadMem0B { .. }
            | XOp::LoadMemB { .. }
            | XOp::LoadMemConstB { .. }
            | XOp::StoreMemB { .. }
            | XOp::StoreMemConstB { .. }
            | XOp::StoreBitB { .. }
            | XOp::BinB { .. }
            | XOp::UnB { .. }
            | XOp::SliceConstB { .. }
            | XOp::SliceDynB { .. }
            | XOp::ConcatB { .. }
            | XOp::ReplicateB { .. }
            | XOp::ResizeB { .. }
            | XOp::BitSelB { .. }
            | XOp::NbB { .. }
            | XOp::PrintValB { .. }
            | XOp::LoopInit(..)
            | XOp::LoopCheck(..)
            | XOp::RepeatInit { .. }
            | XOp::RepeatTest { .. }
    };
}

/// The head of an op's printed form (`BinWAdd` prints as `BinW`).
fn op_name(op: &XOp) -> String {
    let text = format!("{:?}", WOp::from(*op));
    text.split(|c: char| !c.is_alphanumeric())
        .next()
        .unwrap_or("")
        .to_string()
}

/// The net an op stores to, if any.
fn stored_net(op: &XOp) -> Option<u32> {
    match WOp::from(*op) {
        WOp::StoreNetW { net, .. }
        | WOp::StoreNetImm { net, .. }
        | WOp::StoreNetB { net, .. }
        | WOp::StoreBitW { net, .. }
        | WOp::StoreBitConstW { net, .. }
        | WOp::StoreBitB { net, .. }
        | WOp::StoreSlice { net, .. }
        | WOp::BinStoreNet { net, .. }
        | WOp::BinImmStoreNet { net, .. }
        | WOp::NetBinImmStoreNet { net, .. }
        | WOp::NetBinNetStoreNet { net, .. } => Some(net),
        _ => None,
    }
}

/// The memory an op stores to, if any.
fn stored_mem(op: &XOp) -> Option<u32> {
    match *op {
        XOp::StoreMemW { mem, .. }
        | XOp::StoreMemB { mem, .. }
        | XOp::StoreMemConstW { mem, .. }
        | XOp::StoreMemConstImm { mem, .. }
        | XOp::StoreMemConstB { mem, .. } => Some(mem),
        _ => None,
    }
}

/// Decides, once per program, whether it can tick as a cohort.
pub(crate) fn plan(prog: &CompiledProgram, wp: &WordProgs) -> LanePlan {
    let (comb_bucket, n_levels) = comb_buckets(prog);
    let (clock, refusal) = match eligibility(prog, wp) {
        Ok(clock) => (Some(clock), String::new()),
        Err(why) => (None, why),
    };
    LanePlan {
        clock,
        refusal,
        comb_bucket,
        n_levels,
    }
}

fn eligibility(prog: &CompiledProgram, wp: &WordProgs) -> Result<u32, String> {
    let mut clock = None;
    for a in &wp.always {
        if a.guards.is_empty() {
            return Err("an @* block".into());
        }
        for (_, g) in &a.guards {
            match g {
                WGuard::NetW { net, .. } if clock.is_none_or(|c| c == *net) => clock = Some(*net),
                _ => return Err("a guard that is not an edge of one clock net".into()),
            }
        }
    }
    let clock = clock.ok_or("no always block")?;
    let check = |ops: &[XOp]| -> Result<(), String> {
        for op in ops {
            if matches!(op, uncovered!()) {
                return Err(format!("uses {}", op_name(op)));
            }
            if let XOp::StoreSlice { net, .. } = op {
                if prog.nets[*net as usize].width > 64 {
                    return Err("a part-select store to a wide net".into());
                }
            }
            if stored_net(op) == Some(clock) {
                return Err("a block writes the clock".into());
            }
        }
        Ok(())
    };
    for a in &wp.always {
        check(&a.body.ops)?;
    }
    for site in &wp.nb_sites {
        match site {
            WNbSite::WordNet { net, .. } if *net == clock => {
                return Err("a block writes the clock".into())
            }
            WNbSite::WordNet { .. } => {}
            WNbSite::Prog(p) => check(&p.ops)?,
        }
    }
    // A node may wake only deeper nodes (or itself), so that draining the
    // levels in order runs each dirty node once whatever the order within a
    // level — the order lanes that marked nodes differently would disagree on.
    let level = |pos: u32| prog.comb[pos as usize].level;
    let wakes_own_level =
        |pos: u32, deps: &[u32]| deps.iter().any(|&d| d != pos && level(d) <= level(pos));
    for (pos, c) in wp.comb.iter().enumerate() {
        let pos = pos as u32;
        let (nets, mems): (Vec<u32>, Vec<u32>) = match c {
            WComb::CopyNet { dst, .. } | WComb::SliceNet { dst, .. } => (vec![*dst], Vec::new()),
            WComb::Prog(p) => {
                check(&p.ops)?;
                (
                    p.ops.iter().filter_map(stored_net).collect(),
                    p.ops.iter().filter_map(stored_mem).collect(),
                )
            }
        };
        if nets.contains(&clock) {
            return Err("a block writes the clock".into());
        }
        for net in nets {
            let (lo, hi) = (
                wp.net_dep_off[net as usize],
                wp.net_dep_off[net as usize + 1],
            );
            if wakes_own_level(pos, &wp.net_dep_flat[lo as usize..hi as usize]) {
                return Err("a combinational node wakes its own level".into());
            }
        }
        for mem in mems {
            let (lo, hi) = (
                wp.mem_dep_off[mem as usize],
                wp.mem_dep_off[mem as usize + 1],
            );
            if wakes_own_level(pos, &wp.mem_dep_flat[lo as usize..hi as usize]) {
                return Err("a combinational node wakes its own level".into());
            }
        }
    }
    Ok(clock)
}

/// One lane's scheduling state: what [`crate::sim::Sched`], the word
/// machine's epoch and the scheduler's guard history hold for a solo run.
struct LaneCtl {
    time: u64,
    finished: Option<u32>,
    effects: Vec<TaskEffect>,
    nb: Vec<(u32, Val)>,
    value_reg: Val,
    print_buf: String,
    settle_iters: u64,
    worklist_drains: u64,
    write_epoch: u64,
    guard_epoch: u64,
    guard_epoch_skips: u64,
    /// The clock word each guard last sampled, block by block.
    prev: Vec<u64>,
    /// Blocks the latest sampling pass fired.
    triggered: Vec<u32>,
}

/// The structure-of-arrays value store of `W` lanes.
struct LState {
    net_w: Vec<[u64; W]>,
    /// Word-element memories; a wide memory is left empty (no eligible
    /// program touches one).
    mems: Vec<Vec<[u64; W]>>,
    words: Vec<[u64; W]>,
    /// Register `r` of lane `l` at `r * W + l`.
    bigs: Vec<Val>,
    /// Per combinational node, the lanes it is dirty in.
    dirty: Vec<u32>,
    /// Per level, the nodes dirty in some lane.
    pending: Vec<Vec<u32>>,
    pending_count: usize,
    /// Nodes a partial-mask drain left dirty, put back after the level.
    deferred: Vec<u32>,
    ctl: Vec<LaneCtl>,
}

/// Runs `$body` for every lane `$l` of `$mask`: a straight loop over all `W`
/// lanes when every lane is active.
macro_rules! lanes {
    ($mask:expr, |$l:ident| $body:expr) => {{
        let m: u32 = $mask;
        if m == full() {
            for $l in 0..W {
                $body;
            }
        } else {
            for $l in 0..W {
                if m >> $l & 1 != 0 {
                    $body;
                }
            }
        }
    }};
}

/// Iterates the set lanes of `m`, lowest first.
#[inline(always)]
fn each(m: u32) -> Lanes32 {
    Lanes32(m)
}

/// The iterator of [`each`].
struct Lanes32(u32);

impl Iterator for Lanes32 {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let l = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(l)
    }
}

/// The lanes of a cohort: four fill one pass of every kernel (see "Cohorts"
/// in `docs/ARCHITECTURE.md`); larger groups of one program are cut into
/// cohorts of at most four.
const W: usize = 4;

#[inline(always)]
const fn full() -> u32 {
    (1u32 << W) - 1
}

/// The lanes executing at `pc`, and the groups a divergent branch parked.
/// The group with the lowest `pc` runs; groups that meet merge.
struct Flow {
    pc: usize,
    mask: u32,
    /// Lowest parked `pc` (`usize::MAX` when none is parked).
    wait_min: usize,
    /// Parked groups: disjoint, non-empty lane sets, so at most `W`.
    wait: [(usize, u32); W],
    n_wait: usize,
}

impl Flow {
    fn new(mask: u32) -> Flow {
        Flow {
            pc: 0,
            mask,
            wait_min: usize::MAX,
            wait: [(0, 0); W],
            n_wait: 0,
        }
    }

    /// Every active lane jumps to `t` when `taken` is the whole mask; none
    /// does when it is empty; otherwise the mask splits.
    #[inline(always)]
    fn branch(&mut self, taken: u32, t: u32) {
        if taken == self.mask {
            self.jump(t);
        } else if taken != 0 {
            self.split(taken, t);
        }
    }

    #[inline(always)]
    fn jump(&mut self, t: u32) {
        self.pc = t as usize;
        if self.pc > self.wait_min {
            self.park_and_resume();
        }
    }

    #[cold]
    #[inline(never)]
    fn split(&mut self, taken: u32, t: u32) {
        self.park(t as usize, taken);
        self.mask &= !taken;
        if self.pc > self.wait_min {
            self.park_and_resume();
        }
    }

    #[cold]
    fn park_and_resume(&mut self) {
        self.park(self.pc, self.mask);
        self.resume();
    }

    fn park(&mut self, pc: usize, mask: u32) {
        self.wait[self.n_wait] = (pc, mask);
        self.n_wait += 1;
        self.wait_min = self.wait_min.min(pc);
    }

    /// Makes the lowest parked `pc` current, merging every group parked
    /// there; `false` when nothing is parked.
    #[cold]
    fn resume(&mut self) -> bool {
        if self.n_wait == 0 {
            return false;
        }
        self.pc = self.wait_min;
        self.mask = 0;
        self.take_parked_here();
        true
    }

    /// Merges the groups parked at the current `pc` into the running one.
    #[cold]
    fn take_parked_here(&mut self) {
        let mut i = 0;
        self.wait_min = usize::MAX;
        while i < self.n_wait {
            let (pc, m) = self.wait[i];
            if pc == self.pc {
                self.mask |= m;
                self.n_wait -= 1;
                self.wait[i] = self.wait[self.n_wait];
            } else {
                self.wait_min = self.wait_min.min(pc);
                i += 1;
            }
        }
    }
}

/// Marks `lanes` of combinational node `pos` dirty.
#[inline(always)]
fn mark_comb(wp: &WordProgs, st: &mut LState, pos: u32, lanes: u32) {
    let d = st.dirty[pos as usize];
    if d == 0 {
        st.pending[wp.lanes.comb_bucket[pos as usize] as usize].push(pos);
        st.pending_count += 1;
    }
    st.dirty[pos as usize] = d | lanes;
}

/// A net changed in `lanes`: wake its readers (and driver) there.
#[inline(always)]
fn mark_net(wp: &WordProgs, st: &mut LState, net: u32, lanes: u32) {
    if wp.guard_nets[net as usize] {
        for l in each(lanes) {
            st.ctl[l].write_epoch = st.ctl[l].write_epoch.wrapping_add(1);
        }
    }
    let lo = wp.net_dep_off[net as usize] as usize;
    let hi = wp.net_dep_off[net as usize + 1] as usize;
    for i in lo..hi {
        mark_comb(wp, st, wp.net_dep_flat[i], lanes);
    }
}

/// A memory changed in `lanes`. (No guard reads a memory in an eligible
/// program.)
#[inline(always)]
fn mark_mem(wp: &WordProgs, st: &mut LState, mem: u32, lanes: u32) {
    let lo = wp.mem_dep_off[mem as usize] as usize;
    let hi = wp.mem_dep_off[mem as usize + 1] as usize;
    for i in lo..hi {
        mark_comb(wp, st, wp.mem_dep_flat[i], lanes);
    }
}

/// Stores `new` (already masked) into word net `net` in the lanes of
/// `mask`, waking its readers in the lanes whose value changed.
#[inline(always)]
fn store_net(wp: &WordProgs, st: &mut LState, mask: u32, net: u32, new: [u64; W]) {
    let cur = &mut st.net_w[net as usize];
    let mut changed = 0u32;
    lanes!(mask, |l| {
        changed |= ((cur[l] != new[l]) as u32) << l;
        cur[l] = new[l];
    });
    if changed != 0 {
        mark_net(wp, st, net, changed);
    }
}

/// Stores `new` into element `i` of memory `mem` in the lanes of `mask`
/// (nothing past the depth).
#[inline(always)]
fn store_elem(wp: &WordProgs, st: &mut LState, mask: u32, mem: u32, i: usize, new: [u64; W]) {
    let Some(cur) = st.mems[mem as usize].get_mut(i) else {
        return;
    };
    let mut changed = 0u32;
    lanes!(mask, |l| {
        changed |= ((cur[l] != new[l]) as u32) << l;
        cur[l] = new[l];
    });
    if changed != 0 {
        mark_mem(wp, st, mem, changed);
    }
}

/// The operator kernels, one per operator-carrying shape, generic over the
/// operator: the lane form of `wordexec`'s `kernel` module.
mod kernel {
    #![allow(clippy::too_many_arguments)]

    use super::{full, store_net, Flow, LState, W};
    use crate::ir::Val;
    use crate::wop::{FixedBinary, FixedUnary};
    use crate::wordexec::WordProgs;

    #[inline(always)]
    pub(super) fn cmp_sel_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        dst: u32,
        a: u32,
        aw: u32,
        b: u32,
        bw: u32,
        t: u32,
        f: u32,
    ) {
        let (av, bv) = (st.words[a as usize], st.words[b as usize]);
        let (tv, fv) = (st.words[t as usize], st.words[f as usize]);
        let d = &mut st.words[dst as usize];
        lanes!(fl.mask, |l| {
            d[l] = if O::apply(av[l], aw, bv[l], bw) != 0 {
                tv[l]
            } else {
                fv[l]
            }
        });
    }

    #[inline(always)]
    pub(super) fn cmp_sel_imm_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        dst: u32,
        a: u32,
        aw: u32,
        b: u32,
        bw: u32,
        t: u64,
        f: u64,
    ) {
        let (av, bv) = (st.words[a as usize], st.words[b as usize]);
        let d = &mut st.words[dst as usize];
        lanes!(fl.mask, |l| {
            d[l] = if O::apply(av[l], aw, bv[l], bw) != 0 {
                t
            } else {
                f
            }
        });
    }

    #[inline(always)]
    pub(super) fn bin_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        dst: u32,
        a: u32,
        b: u32,
        aw: u32,
        bw: u32,
    ) {
        let (av, bv) = (st.words[a as usize], st.words[b as usize]);
        let d = &mut st.words[dst as usize];
        lanes!(fl.mask, |l| d[l] = O::apply(av[l], aw, bv[l], bw));
    }

    #[inline(always)]
    pub(super) fn bin_imm_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        dst: u32,
        a: u32,
        aw: u32,
        imm: u64,
        bw: u32,
    ) {
        let av = st.words[a as usize];
        let d = &mut st.words[dst as usize];
        lanes!(fl.mask, |l| d[l] = O::apply(av[l], aw, imm, bw));
    }

    #[inline(always)]
    pub(super) fn imm_bin_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        dst: u32,
        imm: u64,
        aw: u32,
        b: u32,
        bw: u32,
    ) {
        let bv = st.words[b as usize];
        let d = &mut st.words[dst as usize];
        lanes!(fl.mask, |l| d[l] = O::apply(imm, aw, bv[l], bw));
    }

    #[inline(always)]
    pub(super) fn net_bin_imm_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        dst: u32,
        net: u32,
        aw: u32,
        imm: u64,
        bw: u32,
    ) {
        let av = st.net_w[net as usize];
        let d = &mut st.words[dst as usize];
        lanes!(fl.mask, |l| d[l] = O::apply(av[l], aw, imm, bw));
    }

    #[inline(always)]
    pub(super) fn bin_net_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        dst: u32,
        a: u32,
        aw: u32,
        net: u32,
        bw: u32,
    ) {
        let (av, bv) = (st.words[a as usize], st.net_w[net as usize]);
        let d = &mut st.words[dst as usize];
        lanes!(fl.mask, |l| d[l] = O::apply(av[l], aw, bv[l], bw));
    }

    #[inline(always)]
    pub(super) fn net_bin_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        dst: u32,
        net: u32,
        aw: u32,
        b: u32,
        bw: u32,
    ) {
        let (av, bv) = (st.net_w[net as usize], st.words[b as usize]);
        let d = &mut st.words[dst as usize];
        lanes!(fl.mask, |l| d[l] = O::apply(av[l], aw, bv[l], bw));
    }

    #[inline(always)]
    pub(super) fn net_bin_net_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        dst: u32,
        neta: u32,
        aw: u32,
        netb: u32,
        bw: u32,
    ) {
        let (av, bv) = (st.net_w[neta as usize], st.net_w[netb as usize]);
        let d = &mut st.words[dst as usize];
        lanes!(fl.mask, |l| d[l] = O::apply(av[l], aw, bv[l], bw));
    }

    #[inline(always)]
    pub(super) fn bin_store_net<O: FixedBinary>(
        wp: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        a: u32,
        aw: u32,
        b: u32,
        bw: u32,
        net: u32,
        mask: u64,
    ) {
        let (av, bv) = (st.words[a as usize], st.words[b as usize]);
        let mut v = [0u64; W];
        lanes!(fl.mask, |l| v[l] = O::apply(av[l], aw, bv[l], bw) & mask);
        store_net(wp, st, fl.mask, net, v);
    }

    #[inline(always)]
    pub(super) fn bin_imm_store_net<O: FixedBinary>(
        wp: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        a: u32,
        aw: u32,
        imm: u64,
        bw: u32,
        net: u32,
        mask: u64,
    ) {
        let av = st.words[a as usize];
        let mut v = [0u64; W];
        lanes!(fl.mask, |l| v[l] = O::apply(av[l], aw, imm, bw) & mask);
        store_net(wp, st, fl.mask, net, v);
    }

    #[inline(always)]
    pub(super) fn net_bin_imm_store_net<O: FixedBinary>(
        wp: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        src: u32,
        aw: u32,
        imm: u64,
        bw: u32,
        net: u32,
        mask: u64,
    ) {
        let av = st.net_w[src as usize];
        let mut v = [0u64; W];
        lanes!(fl.mask, |l| v[l] = O::apply(av[l], aw, imm, bw) & mask);
        store_net(wp, st, fl.mask, net, v);
    }

    #[inline(always)]
    pub(super) fn net_bin_net_store_net<O: FixedBinary>(
        wp: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        neta: u32,
        aw: u32,
        netb: u32,
        bw: u32,
        net: u32,
        mask: u64,
    ) {
        let (av, bv) = (st.net_w[neta as usize], st.net_w[netb as usize]);
        let mut v = [0u64; W];
        lanes!(fl.mask, |l| v[l] = O::apply(av[l], aw, bv[l], bw) & mask);
        store_net(wp, st, fl.mask, net, v);
    }

    #[inline(always)]
    pub(super) fn un_w<O: FixedUnary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        dst: u32,
        a: u32,
        w: u32,
    ) {
        let av = st.words[a as usize];
        let d = &mut st.words[dst as usize];
        lanes!(fl.mask, |l| d[l] = O::apply(av[l], w));
    }

    /// The lanes of the running group for which `test` holds.
    #[inline(always)]
    fn taken(mask: u32, test: impl Fn(usize) -> bool) -> u32 {
        let mut taken = 0u32;
        lanes!(mask, |l| taken |= (test(l) as u32) << l);
        taken
    }

    #[inline(always)]
    pub(super) fn jz_bin<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        a: u32,
        aw: u32,
        b: u32,
        bw: u32,
        t: u32,
    ) {
        let (av, bv) = (st.words[a as usize], st.words[b as usize]);
        let taken = taken(fl.mask, |l| O::apply(av[l], aw, bv[l], bw) == 0);
        fl.branch(taken, t);
    }

    #[inline(always)]
    pub(super) fn jnz_bin<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        a: u32,
        aw: u32,
        b: u32,
        bw: u32,
        t: u32,
    ) {
        let (av, bv) = (st.words[a as usize], st.words[b as usize]);
        let taken = taken(fl.mask, |l| O::apply(av[l], aw, bv[l], bw) != 0);
        fl.branch(taken, t);
    }

    #[inline(always)]
    pub(super) fn jz_bin_imm<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        a: u32,
        aw: u32,
        imm: u64,
        bw: u32,
        t: u32,
    ) {
        let av = st.words[a as usize];
        let taken = taken(fl.mask, |l| O::apply(av[l], aw, imm, bw) == 0);
        fl.branch(taken, t);
    }

    #[inline(always)]
    pub(super) fn jnz_bin_imm<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        a: u32,
        aw: u32,
        imm: u64,
        bw: u32,
        t: u32,
    ) {
        let av = st.words[a as usize];
        let taken = taken(fl.mask, |l| O::apply(av[l], aw, imm, bw) != 0);
        fl.branch(taken, t);
    }

    #[inline(always)]
    pub(super) fn jz_net_bin_imm<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        net: u32,
        aw: u32,
        imm: u64,
        bw: u32,
        t: u32,
    ) {
        let av = st.net_w[net as usize];
        let taken = taken(fl.mask, |l| O::apply(av[l], aw, imm, bw) == 0);
        fl.branch(taken, t);
    }

    #[inline(always)]
    pub(super) fn jnz_net_bin_imm<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        net: u32,
        aw: u32,
        imm: u64,
        bw: u32,
        t: u32,
    ) {
        let av = st.net_w[net as usize];
        let taken = taken(fl.mask, |l| O::apply(av[l], aw, imm, bw) != 0);
        fl.branch(taken, t);
    }

    #[inline(always)]
    pub(super) fn nb_net_bin_imm<O: FixedBinary>(
        _: &WordProgs,
        st: &mut LState,
        fl: &mut Flow,
        site: u32,
        net: u32,
        aw: u32,
        imm: u64,
        w: u32,
        bw: u32,
    ) {
        let av = st.net_w[net as usize];
        for l in super::each(fl.mask) {
            let v = O::apply(av[l], aw, imm, bw);
            st.ctl[l].nb.push((site, Val::Small(v, w)));
        }
    }
}
use kernel::*;

/// The lane executor's dispatch: `word_dispatch!` with the lane count as the
/// kernels' second parameter.
macro_rules! lane_dispatch {
    (
        { ($wp:ident, $st:ident, $fl:ident) $op:expr => { $($arms:tt)* } }
        plain $plain:tt
        operator { $(
            $(#[$om:meta])*
            $s:ident : $opty:ident $( ( $($pre:ident : $prt:ty),* ) )?
                { $($f:ident : $ft:ty),* $(,)? } => $kfn:ident [ $($o:ident $k:ident),* $(,)? ]
        ),* $(,)? }
    ) => {
        lane_dispatch! { @arms ($wp, $st, $fl) ($op) { $($arms)* }
            $( $kfn { $($($pre,)*)? $($f),* } [ $($o $k)* ] )*
        }
    };
    (@arms ($wp:ident, $st:ident, $fl:ident) ($op:expr) { $($arms:tt)* }
        $( $kfn:ident $names:tt [ $($o:ident $k:ident)* ] )*
    ) => {
        match $op {
            $($arms)*
            $( $( XOp::$k $names => {
                lane_dispatch!(@call $kfn $o ($wp, $st, &mut $fl) $names)
            } )* )*
        }
    };
    (@call $kfn:ident $o:ident ($($x:expr),*) { $($f:ident),* }) => {
        $kfn::<$crate::wop::op::$o>($($x,)* $(*$f),*)
    };
}

/// Runs one program to completion in the lanes of `mask`.
fn lexec(
    prog: &CompiledProgram,
    wp: &WordProgs,
    st: &mut LState,
    code: &[XOp],
    mask: u32,
    envs: &mut [&mut dyn SystemEnv],
) -> VlogResult<()> {
    let mut fl = Flow::new(mask);
    loop {
        while let Some(op) = code.get(fl.pc) {
            if fl.pc == fl.wait_min {
                fl.take_parked_here();
            }
            fl.pc += 1;
            word_ops!(lane_dispatch! {
                (wp, st, fl) op => {
                    XOp::MovW { dst, src } => {
                        let v = st.words[*src as usize];
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = v[l]);
                    }
                    XOp::ConstW { dst, imm } => {
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = *imm);
                    }
                    XOp::SelW { dst, c, a, b } => {
                        let (cv, av, bv) = (
                            st.words[*c as usize],
                            st.words[*a as usize],
                            st.words[*b as usize],
                        );
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = if cv[l] != 0 { av[l] } else { bv[l] });
                    }
                    XOp::SelImmW { dst, c, a, b } => {
                        let cv = st.words[*c as usize];
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = if cv[l] != 0 { *a } else { *b });
                    }
                    XOp::LoadNetW { dst, net } => {
                        let v = st.net_w[*net as usize];
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = v[l]);
                    }
                    XOp::StoreNetW { net, src, mask } => {
                        let v = st.words[*src as usize];
                        let mut new = [0u64; W];
                        lanes!(fl.mask, |l| new[l] = v[l] & mask);
                        store_net(wp, st, fl.mask, *net, new);
                    }
                    XOp::StoreNetImm { net, imm } => {
                        store_net(wp, st, fl.mask, *net, [*imm; W]);
                    }
                    XOp::LoadMem0W { dst, mem } => {
                        let v = st.mems[*mem as usize][0];
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = v[l]);
                    }
                    XOp::LoadMemW { dst, mem, idx } => {
                        let iv = st.words[*idx as usize];
                        let m = &st.mems[*mem as usize];
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = word::elem(m, iv[l] as usize)[l]);
                    }
                    XOp::LoadMemConstW { dst, mem, elem } => {
                        let v = word::elem(&st.mems[*mem as usize], *elem as usize);
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = v[l]);
                    }
                    XOp::StoreMemW { mem, idx, src, mask } => {
                        let (iv, v) = (st.words[*idx as usize], st.words[*src as usize]);
                        let m = &mut st.mems[*mem as usize];
                        let mut changed = 0u32;
                        for l in each(fl.mask) {
                            if let Some(e) = m.get_mut(iv[l] as usize) {
                                let new = v[l] & mask;
                                changed |= ((e[l] != new) as u32) << l;
                                e[l] = new;
                            }
                        }
                        if changed != 0 {
                            mark_mem(wp, st, *mem, changed);
                        }
                    }
                    XOp::StoreMemConstW { mem, elem, src, mask } => {
                        let v = st.words[*src as usize];
                        let mut new = [0u64; W];
                        lanes!(fl.mask, |l| new[l] = v[l] & mask);
                        store_elem(wp, st, fl.mask, *mem, *elem as usize, new);
                    }
                    XOp::StoreMemConstImm { mem, elem, imm } => {
                        store_elem(wp, st, fl.mask, *mem, *elem as usize, [*imm; W]);
                    }
                    XOp::StoreBitW { net, idx, bit } => {
                        let (iv, bv) = (st.words[*idx as usize], st.words[*bit as usize]);
                        store_bit(prog, wp, st, fl.mask, *net, |l| iv[l] as usize, bv);
                    }
                    XOp::StoreBitConstW { net, idx, bit } => {
                        let bv = st.words[*bit as usize];
                        store_bit(prog, wp, st, fl.mask, *net, |_| *idx as usize, bv);
                    }
                    XOp::StoreSlice { net, hi, lo, src } => {
                        let width = prog.nets[*net as usize].width as usize;
                        let (hv, lv) = (st.words[*hi as usize], st.words[*lo as usize]);
                        let mut new = st.net_w[*net as usize];
                        for l in each(fl.mask) {
                            let value = st.bigs[*src as usize * W + l].to_u64();
                            new[l] = word::set_slice(new[l], width, hv[l] as usize, lv[l] as usize, value);
                        }
                        store_net(wp, st, fl.mask, *net, new);
                    }
                    XOp::LoadTime { dst } => {
                        for l in each(fl.mask) {
                            st.words[*dst as usize][l] = st.ctl[l].time;
                        }
                    }
                    XOp::LoadValueReg { dst } => {
                        for l in each(fl.mask) {
                            st.bigs[*dst as usize * W + l] = st.ctl[l].value_reg.clone();
                        }
                    }
                    XOp::BigToWord { dst, src } => {
                        for l in each(fl.mask) {
                            st.words[*dst as usize][l] = st.bigs[*src as usize * W + l].to_u64();
                        }
                    }
                    XOp::WordToBig { dst, src, w } => {
                        for l in each(fl.mask) {
                            st.bigs[*dst as usize * W + l] =
                                Val::Small(st.words[*src as usize][l], *w);
                        }
                    }
                    XOp::SliceW { dst, a, hi, lo } => {
                        let v = st.words[*a as usize];
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = word::slice(v[l], *hi, *lo));
                    }
                    XOp::NetSliceW { dst, net, hi, lo } => {
                        let v = st.net_w[*net as usize];
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = word::slice(v[l], *hi, *lo));
                    }
                    XOp::ConcatW { dst, a, b, bw } => {
                        let (av, bv) = (st.words[*a as usize], st.words[*b as usize]);
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = (av[l] << bw) | bv[l]);
                    }
                    XOp::ResizeW { dst, a, mask } => {
                        let av = st.words[*a as usize];
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = av[l] & mask);
                    }
                    XOp::BitSelW { dst, a, aw, idx } => {
                        let (av, iv) = (st.words[*a as usize], st.words[*idx as usize]);
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = word::bit(av[l], *aw, iv[l] as usize) as u64);
                    }
                    XOp::BitSelNetW { dst, net, aw, idx } => {
                        let (av, iv) = (st.net_w[*net as usize], st.words[*idx as usize]);
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = word::bit(av[l], *aw, iv[l] as usize) as u64);
                    }
                    XOp::NetBitConstW { dst, net, aw, idx } => {
                        let av = st.net_w[*net as usize];
                        let d = &mut st.words[*dst as usize];
                        lanes!(fl.mask, |l| d[l] = word::bit(av[l], *aw, *idx as usize) as u64);
                    }
                    XOp::Jump(t) => fl.jump(*t),
                    XOp::JumpIfZeroW { c, t } => {
                        let cv = st.words[*c as usize];
                        let taken = taken_lanes(fl.mask, |l| cv[l] == 0);
                        fl.branch(taken, *t);
                    }
                    XOp::JumpIfNonZeroW { c, t } => {
                        let cv = st.words[*c as usize];
                        let taken = taken_lanes(fl.mask, |l| cv[l] != 0);
                        fl.branch(taken, *t);
                    }
                    XOp::JzNetBit { net, aw, idx, t } => {
                        let v = st.net_w[*net as usize];
                        let taken = taken_lanes(fl.mask, |l| !word::bit(v[l], *aw, *idx as usize));
                        fl.branch(taken, *t);
                    }
                    XOp::JnzNetBit { net, aw, idx, t } => {
                        let v = st.net_w[*net as usize];
                        let taken = taken_lanes(fl.mask, |l| word::bit(v[l], *aw, *idx as usize));
                        fl.branch(taken, *t);
                    }
                    XOp::JzNet { net, t } => {
                        let v = st.net_w[*net as usize];
                        let taken = taken_lanes(fl.mask, |l| v[l] == 0);
                        fl.branch(taken, *t);
                    }
                    XOp::JnzNet { net, t } => {
                        let v = st.net_w[*net as usize];
                        let taken = taken_lanes(fl.mask, |l| v[l] != 0);
                        fl.branch(taken, *t);
                    }
                    XOp::JumpIfNotFinished(t) => {
                        let taken = ctl_lanes(&st.ctl, fl.mask, |c| c.finished.is_none());
                        fl.branch(taken, *t);
                    }
                    XOp::CheckFinished(t) => {
                        let taken = ctl_lanes(&st.ctl, fl.mask, |c| c.finished.is_some());
                        fl.branch(taken, *t);
                    }
                    XOp::NbW { site, src, w } => {
                        for l in each(fl.mask) {
                            let v = Val::Small(st.words[*src as usize][l], *w);
                            st.ctl[l].nb.push((*site, v));
                        }
                    }
                    XOp::NbImm { site, imm, w } => {
                        for l in each(fl.mask) {
                            st.ctl[l].nb.push((*site, Val::Small(*imm, *w)));
                        }
                    }
                    XOp::NbNet { site, net, w } => {
                        for l in each(fl.mask) {
                            let v = Val::Small(st.net_w[*net as usize][l], *w);
                            st.ctl[l].nb.push((*site, v));
                        }
                    }
                    XOp::Fopen { dst, s } => {
                        for l in each(fl.mask) {
                            st.words[*dst as usize][l] =
                                envs[l].fopen(&prog.strings[*s as usize]) as u64;
                        }
                    }
                    XOp::Feof { dst, fd } => {
                        for l in each(fl.mask) {
                            let fd = st.words[*fd as usize][l] as u32;
                            st.words[*dst as usize][l] = envs[l].feof(fd) as u64;
                        }
                    }
                    XOp::FeofNet { dst, net } => {
                        for l in each(fl.mask) {
                            let fd = st.net_w[*net as usize][l] as u32;
                            st.words[*dst as usize][l] = envs[l].feof(fd) as u64;
                        }
                    }
                    XOp::Random { dst } => {
                        for l in each(fl.mask) {
                            st.words[*dst as usize][l] = envs[l].random() as u64;
                        }
                    }
                    XOp::Fread { fd, width, skip } => {
                        let fds = st.words[*fd as usize];
                        let taken = fread(st, envs, fl.mask, |l| fds[l] as u32, *width);
                        fl.branch(taken, *skip);
                    }
                    XOp::FreadNet { net, width, skip } => {
                        let fds = st.net_w[*net as usize];
                        let taken = fread(st, envs, fl.mask, |l| fds[l] as u32, *width);
                        fl.branch(taken, *skip);
                    }
                    XOp::Fclose { fd } => {
                        for l in each(fl.mask) {
                            envs[l].fclose(st.words[*fd as usize][l] as u32);
                        }
                    }
                    XOp::PrintStr(s) => {
                        for l in each(fl.mask) {
                            st.ctl[l].print_buf.push_str(&prog.strings[*s as usize]);
                        }
                    }
                    XOp::PrintValW { src } => {
                        for l in each(fl.mask) {
                            let v = st.words[*src as usize][l];
                            let _ = write!(st.ctl[l].print_buf, "{}", v);
                        }
                    }
                    XOp::PrintFlush { newline } => {
                        for l in each(fl.mask) {
                            let c = &mut st.ctl[l];
                            if *newline {
                                c.print_buf.push('\n');
                            }
                            let text = std::mem::take(&mut c.print_buf);
                            envs[l].print(&text);
                        }
                    }
                    XOp::Finish { src } => {
                        for l in each(fl.mask) {
                            let code = st.words[*src as usize][l] as u32;
                            let c = &mut st.ctl[l];
                            c.finished = Some(code);
                            c.effects.push(TaskEffect::Finish(code));
                        }
                    }
                    XOp::Effect(i) => {
                        for l in each(fl.mask) {
                            st.ctl[l].effects.push(prog.effects[*i as usize].clone());
                        }
                    }
                    uncovered!() => {
                        return Err(VlogError::Elaborate(format!(
                            "{} is not a lane op",
                            op_name(op)
                        )))
                    }
                }
            });
        }
        if !fl.resume() {
            return Ok(());
        }
    }
}

/// The lanes of `mask` for which `test` holds.
#[inline(always)]
fn taken_lanes(mask: u32, test: impl Fn(usize) -> bool) -> u32 {
    let mut taken = 0u32;
    lanes!(mask, |l| taken |= (test(l) as u32) << l);
    taken
}

/// The lanes of `mask` whose scheduling state satisfies `test`.
fn ctl_lanes(ctl: &[LaneCtl], mask: u32, test: impl Fn(&LaneCtl) -> bool) -> u32 {
    each(mask).fold(0, |t, l| t | ((test(&ctl[l]) as u32) << l))
}

/// `$fread` in every lane of `mask`: a lane that read latches the value;
/// the lanes that hit the end come back as the mask that skips.
fn fread(
    st: &mut LState,
    envs: &mut [&mut dyn SystemEnv],
    mask: u32,
    fd: impl Fn(usize) -> u32,
    width: u32,
) -> u32 {
    let mut skip = 0u32;
    for l in each(mask) {
        match envs[l].fread(fd(l), width as usize) {
            Some(v) => st.ctl[l].value_reg = Val::from_bits(&v),
            None => skip |= 1 << l,
        }
    }
    skip
}

/// Sets bit `idx(l)` of word net `net` to `bits[l] & 1` in every lane of
/// `mask` where the index is in range.
#[inline(always)]
fn store_bit(
    prog: &CompiledProgram,
    wp: &WordProgs,
    st: &mut LState,
    mask: u32,
    net: u32,
    idx: impl Fn(usize) -> usize,
    bits: [u64; W],
) {
    let width = prog.nets[net as usize].width as usize;
    let mut new = st.net_w[net as usize];
    for l in each(mask) {
        new[l] = word::set_bit(new[l], width, idx(l), bits[l]);
    }
    store_net(wp, st, mask, net, new);
}

/// Re-evaluates combinational node `pos` in the lanes of `mask`.
fn run_comb(
    prog: &CompiledProgram,
    wp: &WordProgs,
    st: &mut LState,
    pos: u32,
    mask: u32,
    envs: &mut [&mut dyn SystemEnv],
) -> VlogResult<()> {
    match &wp.comb[pos as usize] {
        WComb::CopyNet { src, dst, mask: m } => {
            let v = st.net_w[*src as usize];
            let mut new = [0u64; W];
            lanes!(mask, |l| new[l] = v[l] & m);
            store_net(wp, st, mask, *dst, new);
        }
        WComb::SliceNet {
            src,
            hi,
            lo,
            dst,
            mask: m,
        } => {
            let v = st.net_w[*src as usize];
            let mut new = [0u64; W];
            lanes!(mask, |l| new[l] = word::slice(v[l], *hi, *lo) & m);
            store_net(wp, st, mask, *dst, new);
        }
        WComb::Prog(p) => lexec(prog, wp, st, &p.ops, mask, envs)?,
    }
    Ok(())
}

/// Drains the dirty combinational nodes of the lanes in `mask`, level by
/// level (the scheduler's `propagate`, per lane).
fn propagate(
    prog: &CompiledProgram,
    wp: &WordProgs,
    st: &mut LState,
    mask: u32,
    envs: &mut [&mut dyn SystemEnv],
) -> VlogResult<()> {
    if st.pending_count == 0 {
        return Ok(());
    }
    for lvl in 0..st.pending.len() {
        while let Some(pos) = st.pending[lvl].pop() {
            let d = st.dirty[pos as usize] & mask;
            if d == 0 {
                st.deferred.push(pos);
                continue;
            }
            for l in each(d) {
                st.ctl[l].worklist_drains += 1;
            }
            run_comb(prog, wp, st, pos, d, envs)?;
            // Cleared after executing: the node's own store re-marks it.
            let rest = st.dirty[pos as usize] & !d;
            st.dirty[pos as usize] = rest;
            if rest != 0 {
                st.deferred.push(pos);
            } else {
                st.pending_count -= 1;
            }
        }
        if !st.deferred.is_empty() {
            let (pending, deferred) = (&mut st.pending[lvl], &mut st.deferred);
            pending.append(deferred);
        }
        if st.pending_count == 0 {
            break;
        }
    }
    Ok(())
}

/// The scheduler's `evaluate` in every lane of `mask`: lanes whose clock
/// edges fired the same blocks run them together.
fn evaluate(
    prog: &CompiledProgram,
    wp: &WordProgs,
    st: &mut LState,
    mask: u32,
    envs: &mut [&mut dyn SystemEnv],
) -> VlogResult<()> {
    let clock = wp.lanes.clock.expect("a cohort runs eligible programs") as usize;
    let mut live = mask;
    let mut iterations = 0usize;
    while live != 0 {
        propagate(prog, wp, st, live, envs)?;
        // Sample: every guard is an edge of the clock net.
        let mut fired = 0u32;
        for l in each(live) {
            let clk = st.net_w[clock][l];
            let c = &mut st.ctl[l];
            c.triggered.clear();
            if c.write_epoch == c.guard_epoch {
                c.guard_epoch_skips += 1;
                continue;
            }
            c.guard_epoch = c.write_epoch;
            let mut g = 0;
            for (idx, a) in wp.always.iter().enumerate() {
                let mut hit = false;
                for (edge, _) in &a.guards {
                    let prev = c.prev[g];
                    hit |= match edge {
                        Edge::Pos => prev & 1 == 0 && clk & 1 == 1,
                        Edge::Neg => prev & 1 == 1 && clk & 1 == 0,
                        Edge::Any => prev != clk,
                    };
                    c.prev[g] = clk;
                    g += 1;
                }
                if hit {
                    c.triggered.push(idx as u32);
                }
            }
            if !c.triggered.is_empty() {
                fired |= 1 << l;
            }
        }
        // Group the lanes that fired the same blocks.
        let mut next = 0u32;
        while fired != 0 {
            let lead = fired.trailing_zeros() as usize;
            let mut group = 0u32;
            for l in each(fired) {
                if st.ctl[l].triggered == st.ctl[lead].triggered {
                    group |= 1 << l;
                }
            }
            fired &= !group;
            let blocks = std::mem::take(&mut st.ctl[lead].triggered);
            for &idx in &blocks {
                group &= !ctl_lanes(&st.ctl, group, |c| c.finished.is_some());
                if group == 0 {
                    break;
                }
                lexec(prog, wp, st, &wp.always[idx as usize].body.ops, group, envs)?;
                propagate(prog, wp, st, group, envs)?;
            }
            st.ctl[lead].triggered = blocks;
            next |= group;
        }
        live = next;
        iterations += 1;
        if iterations > MAX_PROPAGATION_ITERS {
            return Err(unstable());
        }
    }
    Ok(())
}

/// The scheduler's `update` in every lane of `mask`; returns the lanes that
/// had assignments pending. Position `k` of every lane's queue is latched
/// before position `k + 1`, lanes latching one site together.
fn update(
    prog: &CompiledProgram,
    wp: &WordProgs,
    st: &mut LState,
    mask: u32,
    envs: &mut [&mut dyn SystemEnv],
) -> VlogResult<u32> {
    let pending = ctl_lanes(&st.ctl, mask, |c| !c.nb.is_empty());
    if pending == 0 {
        return Ok(0);
    }
    let mut queues: [Vec<(u32, Val)>; W] = Default::default();
    for l in each(pending) {
        queues[l] = std::mem::take(&mut st.ctl[l].nb);
    }
    let depth = each(pending).map(|l| queues[l].len()).max().unwrap_or(0);
    for k in 0..depth {
        let mut left = each(pending)
            .filter(|&l| k < queues[l].len())
            .fold(0u32, |m, l| m | 1 << l);
        while left != 0 {
            let site = queues[left.trailing_zeros() as usize][k].0;
            let group = each(left)
                .filter(|&l| queues[l][k].0 == site)
                .fold(0u32, |m, l| m | 1 << l);
            left &= !group;
            match &wp.nb_sites[site as usize] {
                WNbSite::WordNet { net, mask } => {
                    let mut new = [0u64; W];
                    for l in each(group) {
                        new[l] = queues[l][k].1.to_u64() & mask;
                    }
                    store_net(wp, st, group, *net, new);
                }
                WNbSite::Prog(p) => {
                    for l in each(group) {
                        let v = std::mem::replace(&mut queues[l][k].1, Val::Small(0, 1));
                        st.ctl[l].value_reg = v;
                    }
                    lexec(prog, wp, st, &p.ops, group, envs)?;
                }
            }
        }
    }
    // Hand the drained buffers' capacity back.
    for l in each(pending) {
        queues[l].clear();
        if st.ctl[l].nb.is_empty() {
            std::mem::swap(&mut st.ctl[l].nb, &mut queues[l]);
        }
    }
    Ok(pending)
}

/// The scheduler's `settle` in every lane of `mask`.
fn settle(
    prog: &CompiledProgram,
    wp: &WordProgs,
    st: &mut LState,
    mask: u32,
    envs: &mut [&mut dyn SystemEnv],
) -> VlogResult<()> {
    let mut active = mask;
    for _ in 0..MAX_SETTLE_ITERS {
        evaluate(prog, wp, st, active, envs)?;
        for l in each(active) {
            st.ctl[l].settle_iters += 1;
        }
        active = update(prog, wp, st, active, envs)?;
        if active == 0 {
            return Ok(());
        }
    }
    Err(unconverged())
}

/// One clock cycle in every lane of `mask` (the scheduler's `tick_net`).
fn tick(
    prog: &CompiledProgram,
    wp: &WordProgs,
    st: &mut LState,
    mask: u32,
    envs: &mut [&mut dyn SystemEnv],
) -> VlogResult<()> {
    let clock = wp.lanes.clock.expect("a cohort runs eligible programs");
    let cm = crate::ir::mask(prog.nets[clock as usize].width);
    for level in [1u64, 0] {
        // `write_word`: the driven level, and a wake whether or not it
        // changed.
        let c = &mut st.net_w[clock as usize];
        lanes!(mask, |l| c[l] = level & cm);
        mark_net(wp, st, clock, mask);
        settle(prog, wp, st, mask, envs)?;
    }
    for l in each(mask) {
        st.ctl[l].time += 1;
    }
    Ok(())
}

/// `W` lanes of one program.
struct Lanes {
    prog: Arc<CompiledProgram>,
    wp: Arc<WordProgs>,
    st: LState,
    /// Lanes that have not stopped.
    active: u32,
}

impl Lanes {
    fn gather(sims: &[&CompiledSim]) -> Lanes {
        let first = &sims[0];
        let (prog, wp) = (Arc::clone(&first.prog), Arc::clone(&first.m.wp));
        let n_nets = first.m.st.net_w.len();
        let mut net_w = vec![[0u64; W]; n_nets];
        for (l, sim) in sims.iter().enumerate() {
            for (i, v) in sim.m.st.net_w.iter().enumerate() {
                net_w[i][l] = *v;
            }
        }
        let mems = first
            .m
            .st
            .mems
            .iter()
            .enumerate()
            .map(|(mi, m)| {
                if !m.small {
                    return Vec::new();
                }
                let mut out = vec![[0u64; W]; m.w.len()];
                for (l, sim) in sims.iter().enumerate() {
                    for (e, v) in sim.m.st.mems[mi].w.iter().enumerate() {
                        out[e][l] = *v;
                    }
                }
                out
            })
            .collect();
        let ctl = sims
            .iter()
            .map(|sim| {
                let (st, sc) = (&sim.m.st, &sim.m.st.sc);
                LaneCtl {
                    time: sc.time,
                    finished: sc.finished,
                    effects: sc.effects.clone(),
                    nb: sc.nb.clone(),
                    value_reg: sc.value_reg.clone(),
                    print_buf: sc.print_buf.clone(),
                    settle_iters: sc.settle_iters,
                    worklist_drains: sc.worklist_drains,
                    write_epoch: st.write_epoch,
                    guard_epoch: st.guard_epoch,
                    guard_epoch_skips: st.guard_epoch_skips,
                    prev: sim
                        .guard_prev
                        .iter()
                        .flatten()
                        .map(|o| match o {
                            Observed::W(v, _) => *v,
                            Observed::B(v) => v.to_u64(),
                        })
                        .collect(),
                    triggered: Vec::new(),
                }
            })
            .collect();
        let st = LState {
            net_w,
            mems,
            words: vec![[0; W]; first.m.st.words.len()],
            bigs: vec![Val::zero(1); first.m.st.bigs.len() * W],
            dirty: vec![0; prog.comb.len()],
            pending: vec![Vec::new(); wp.lanes.n_levels],
            pending_count: 0,
            deferred: Vec::new(),
            ctl,
        };
        Lanes {
            prog,
            wp,
            st,
            active: (1u32 << sims.len()) - 1,
        }
    }

    fn run(
        &mut self,
        want: u32,
        n: u64,
        envs: &mut [&mut dyn SystemEnv],
        ticks: &mut [u64],
    ) -> VlogResult<()> {
        let Lanes {
            prog,
            wp,
            st,
            active,
        } = self;
        let (prog, wp): (&CompiledProgram, &WordProgs) = (prog, wp);
        let mut mask = *active & want;
        for _ in 0..n {
            if mask == 0 {
                break;
            }
            tick(prog, wp, st, mask, envs)?;
            for l in each(mask) {
                ticks[l] += 1;
                if !st.ctl[l].effects.is_empty() || st.ctl[l].finished.is_some() {
                    mask &= !(1 << l);
                    *active &= !(1 << l);
                }
            }
        }
        Ok(())
    }

    fn scatter(self, sims: &mut [&mut CompiledSim]) {
        let clock_w = self.prog.nets[self.wp.lanes.clock.unwrap_or(0) as usize].width;
        for (l, (sim, c)) in sims.iter_mut().zip(self.st.ctl).enumerate() {
            let st = &mut sim.m.st;
            for (i, v) in st.net_w.iter_mut().enumerate() {
                *v = self.st.net_w[i][l];
            }
            for (m, lm) in st.mems.iter_mut().zip(&self.st.mems) {
                if m.small {
                    for (e, v) in m.w.iter_mut().enumerate() {
                        *v = lm[e][l];
                    }
                }
            }
            st.write_epoch = c.write_epoch;
            st.guard_epoch = c.guard_epoch;
            st.guard_epoch_skips = c.guard_epoch_skips;
            let sc = &mut st.sc;
            sc.time = c.time;
            sc.finished = c.finished;
            sc.effects = c.effects;
            sc.nb = c.nb;
            sc.value_reg = c.value_reg;
            sc.print_buf = c.print_buf;
            sc.settle_iters = c.settle_iters;
            sc.worklist_drains = c.worklist_drains;
            let mut prev = c.prev.into_iter();
            for obs in sim.guard_prev.iter_mut().flatten() {
                *obs = Observed::W(prev.next().unwrap_or(0), clock_w);
            }
        }
    }
}

/// Tenants of one compiled program ticking in lockstep: one dispatch per
/// word op for every lane. See the module documentation.
pub struct Cohort(Box<Lanes>);

impl Cohort {
    /// The most lanes one cohort holds.
    pub const MAX_LANES: usize = W;

    /// Copies the state of `sims` — clones of one program, each ready to
    /// join (see [`CompiledSim::cohort_refusal`]) — into a cohort, one lane
    /// each; `None` when they are not (2 to [`Cohort::MAX_LANES`] ready
    /// clones of one eligible program). The sims are not written until
    /// [`Cohort::scatter`].
    pub fn gather(sims: &[&CompiledSim]) -> Option<Cohort> {
        let first = sims.first()?;
        let same = sims
            .iter()
            .all(|s| Arc::ptr_eq(&s.m.wp, &first.m.wp) && Arc::ptr_eq(&s.prog, &first.prog));
        let ready = sims.iter().all(|s| s.cohort_refusal().is_none());
        (same && ready && (2..=W).contains(&sims.len()))
            .then(|| Cohort(Box::new(Lanes::gather(sims))))
    }

    /// Runs up to `n` clock cycles in every lane of `lanes` (bit `l` for
    /// lane `l`) that has not stopped, lane `l` against `envs[l]`, counting
    /// each lane's cycles into `ticks[l]`. A lane stops after a cycle that
    /// raised an effect or finished; see [`Cohort::stopped`].
    ///
    /// # Errors
    ///
    /// What a solo run would report (an iteration cap). The cohort is then
    /// unusable: drop it and rerun the lanes from their sims, which still
    /// hold the state they had at [`Cohort::gather`].
    pub fn run(
        &mut self,
        lanes: u32,
        n: u64,
        envs: &mut [&mut dyn SystemEnv],
        ticks: &mut [u64],
    ) -> VlogResult<()> {
        self.0.run(lanes, n, envs, ticks)
    }

    /// Whether lane `l` has stopped (it raised an effect or finished).
    pub fn stopped(&self, l: usize) -> bool {
        self.0.active >> l & 1 == 0
    }

    /// Lane `l`'s executor counters so far, as the lane's sim would report
    /// them.
    pub fn counters(&self, l: usize) -> ExecCounters {
        let c = &self.0.st.ctl[l];
        ExecCounters {
            settle_iters: c.settle_iters,
            worklist_drains: c.worklist_drains,
            guard_epoch_skips: c.guard_epoch_skips,
            arena_regs: 0,
        }
    }

    /// Copies every lane's state back into its sim (`sims` in
    /// [`Cohort::gather`]'s order).
    pub fn scatter(self, sims: &mut [&mut CompiledSim]) {
        self.0.scatter(sims)
    }
}

impl CompiledSim {
    /// Why this sim cannot join a cohort now, or `None` when it can: its
    /// program is eligible, its initials have run, it has not finished, and
    /// it sits on a tick boundary (no dirty node, no pending assignment, no
    /// undrained effect).
    pub fn cohort_refusal(&self) -> Option<&'static str> {
        let sc = &self.m.st.sc;
        if self.m.wp.lanes.clock.is_none() {
            Some("ineligible")
        } else if !sc.initials_run {
            Some("initials")
        } else if sc.finished.is_some() || !sc.effects.is_empty() {
            Some("effect")
        } else if sc.pending_count != 0 || !sc.nb.is_empty() {
            Some("busy")
        } else {
            None
        }
    }

    /// Why this sim's program can never tick as a cohort, or `None` when it
    /// can. Static: decided when the word programs were built.
    pub fn cohort_ineligibility(&self) -> Option<&str> {
        match self.m.wp.lanes.clock {
            Some(_) => None,
            None => Some(&self.m.wp.lanes.refusal),
        }
    }

    /// The net every guard of an eligible program samples.
    pub fn cohort_clock(&self) -> Option<u32> {
        self.m.wp.lanes.clock
    }

    /// Identifies the translated program: sims with equal keys are clones
    /// of one program and may share a cohort.
    pub fn cohort_key(&self) -> usize {
        Arc::as_ptr(&self.m.wp) as usize
    }
}

#[cfg(test)]
mod tests {
    //! Every op the lane executor runs, alone or in a short branching
    //! program, on four lanes that hold different values, under full,
    //! partial and one-lane masks — against the scalar executor run on each
    //! active lane by itself. Registers, nets, memories, dirty combinational
    //! nodes, queued assignments, the value register, print buffers,
    //! effects, the branch taken and each lane's environment must agree
    //! lane by lane, and a lane outside the mask must be left as it was.

    use super::*;
    use crate::ir::{mask, SlotRef};
    use crate::wordexec::wexec;
    use std::collections::BTreeSet;
    use synergy_interp::BufferEnv;
    use synergy_vlog::ast::{BinaryOp, UnaryOp};

    const SRC: &str = r#"
module M(input wire clock);
    reg [63:0] n0 = 0;
    reg [63:0] n1 = 0;
    reg [12:0] s = 0;
    reg [63:0] mem [0:7];
    wire [63:0] r0 = n0 + 1;
    wire [12:0] r1 = s ^ 13'd5;
    wire [63:0] r2 = mem[1] + mem[6];
    integer fd;
    initial fd = $fopen("in");
    always @(posedge clock) begin
        n0 <= n1;
        $display("n0 %d", n0);
        if (n0 == 64'd99) $yield;
    end
endmodule
"#;

    // Registers: operands, select arms, the result, two markers, an index,
    // slice bounds, a descriptor and a condition; two value registers.
    const A: u32 = 0;
    const B: u32 = 1;
    const T: u32 = 2;
    const F: u32 = 3;
    const DST: u32 = 4;
    const MARK: u32 = 5;
    const MARK2: u32 = 6;
    const IDX: u32 = 7;
    const HI: u32 = 8;
    const LO: u32 = 9;
    const FD: u32 = 10;
    const C: u32 = 11;
    const N_WORDS: usize = 12;
    const VB: u32 = 0;
    const DB: u32 = 1;

    const VALS: [u64; 16] = [
        0,
        1,
        2,
        5,
        7,
        12,
        13,
        63,
        64,
        65,
        3,
        u64::MAX,
        1 << 63,
        0xdead_beef_0bad_f00d,
        40,
        6,
    ];

    /// The value slot `r` holds in lane `l` of trial `k`: lanes differ.
    fn val(k: usize, l: usize, r: usize) -> u64 {
        VALS[(r * 7 + l * 3 + k * 5) % VALS.len()]
    }

    /// The ops the lane executor does not run, by name.
    const UNCOVERED: &[&str] = &[
        "MovB",
        "ConstB",
        "TruthB",
        "SelB",
        "LoadNetB",
        "StoreNetB",
        "LoadMem0B",
        "LoadMemB",
        "LoadMemConstB",
        "StoreMemB",
        "StoreMemConstB",
        "StoreBitB",
        "BinB",
        "UnB",
        "SliceConstB",
        "SliceDynB",
        "ConcatB",
        "ReplicateB",
        "ResizeB",
        "BitSelB",
        "NbB",
        "PrintValB",
        "LoopInit",
        "LoopCheck",
        "RepeatInit",
        "RepeatTest",
    ];

    /// The names of the table's operator-free shapes.
    macro_rules! plain_names {
        ({} plain { $( $(#[$m:meta])* $name:ident $fields:tt ),* $(,)? } operator $rest:tt) => {
            [$(stringify!($name)),*]
        };
    }

    struct Fixture {
        prog: Arc<CompiledProgram>,
        wp: Arc<WordProgs>,
        n0: u32,
        n1: u32,
        s: u32,
        mem: u32,
        /// Per trial, per lane: a seeded sim and its environment.
        trials: Vec<Vec<(CompiledSim, BufferEnv)>>,
    }

    impl Fixture {
        fn new() -> Fixture {
            let design = synergy_vlog::compile(SRC, "M").unwrap();
            let base = CompiledSim::new(crate::compile(&design).unwrap());
            let slot = |name: &str| base.prog.slot(name).expect(name);
            let net = |name: &str| match slot(name) {
                SlotRef::Net(i) => i,
                SlotRef::Mem(_) => panic!("{} is a memory", name),
            };
            let (n0, n1, s) = (net("n0"), net("n1"), net("s"));
            let SlotRef::Mem(mem) = slot("mem") else {
                panic!("mem is a net")
            };
            let trials = (0..4)
                .map(|k| {
                    (0..W)
                        .map(|l| {
                            let mut sim = base.clone();
                            let mut env = BufferEnv::new();
                            env.add_file("in", vec![10 * l as u64 + 1; l]);
                            // Runs the initials (the `$fopen`) and settles.
                            sim.tick("clock", &mut env).unwrap();
                            let st = &mut sim.m.st;
                            st.words = (0..N_WORDS).map(|r| val(k, l, r)).collect();
                            st.words[FD as usize] = [1, 2, 1, 0][(k + l) % 4];
                            st.bigs = (0..2).map(|r| Val::Small(val(k, l, 20 + r), 64)).collect();
                            for (i, v) in st.net_w.iter_mut().enumerate() {
                                *v = val(k, l, 30 + i) & mask(base.prog.nets[i].width);
                            }
                            for (e, v) in st.mems[mem as usize].w.iter_mut().enumerate() {
                                *v = val(k, l, 50 + e);
                            }
                            let sc = &mut st.sc;
                            sc.value_reg = Val::Small(val(k, l, 60), 64);
                            sc.time = 100 + l as u64;
                            sc.finished = ((k + l) % 3 == 0).then_some(7);
                            sc.print_buf = format!("lane {} ", l);
                            assert_eq!(sc.pending_count, 0, "a settled lane");
                            (sim, env)
                        })
                        .collect()
                })
                .collect();
            Fixture {
                wp: Arc::clone(&base.m.wp),
                prog: Arc::clone(&base.prog),
                n0,
                n1,
                s,
                mem,
                trials,
            }
        }

        /// Runs `code` on trial `k`'s lanes of `lanes`, on the lane
        /// executor and on the scalar one, and compares them.
        fn check(&self, code: &[XOp], k: usize, lanes: u32) {
            let ops: Vec<WOp> = code.iter().map(|x| WOp::from(*x)).collect();
            let what = format!("{:?} on trial {} lanes {:#06b}", ops, k, lanes);
            let copy = |(sim, env): &(CompiledSim, BufferEnv)| {
                (sim.clone(), BufferEnv::from_image(env.image()))
            };
            let (mut solo, mut solo_env): (Vec<CompiledSim>, Vec<BufferEnv>) =
                self.trials[k].iter().map(copy).unzip();
            let (sims, mut envs): (Vec<CompiledSim>, Vec<BufferEnv>) =
                self.trials[k].iter().map(copy).unzip();
            for l in each(lanes) {
                let st = &mut solo[l].m.st;
                wexec(&self.prog, &self.wp, st, code, &mut solo_env[l]).unwrap();
            }
            let refs: Vec<&CompiledSim> = sims.iter().collect();
            let mut c = Lanes::gather(&refs);
            for (l, sim) in sims.iter().enumerate() {
                for (r, v) in sim.m.st.words.iter().enumerate() {
                    c.st.words[r][l] = *v;
                }
                for (r, v) in sim.m.st.bigs.iter().enumerate() {
                    c.st.bigs[r * W + l] = v.clone();
                }
            }
            let mut env_refs: Vec<&mut dyn SystemEnv> =
                envs.iter_mut().map(|e| e as &mut dyn SystemEnv).collect();
            lexec(&self.prog, &self.wp, &mut c.st, code, lanes, &mut env_refs).unwrap();

            for (l, want) in solo.iter().enumerate() {
                let (st, ctl) = (&want.m.st, &c.st.ctl[l]);
                let lane = |v: &[[u64; W]]| v.iter().map(|x| x[l]).collect::<Vec<u64>>();
                assert_eq!(
                    lane(&c.st.words),
                    st.words,
                    "{}: lane {} registers",
                    what,
                    l
                );
                let bigs: Vec<Val> = (0..st.bigs.len())
                    .map(|r| c.st.bigs[r * W + l].clone())
                    .collect();
                assert_eq!(bigs, st.bigs, "{}: lane {} value registers", what, l);
                assert_eq!(lane(&c.st.net_w), st.net_w, "{}: lane {} nets", what, l);
                assert_eq!(
                    lane(&c.st.mems[self.mem as usize]),
                    st.mems[self.mem as usize].w,
                    "{}: lane {} memory",
                    what,
                    l
                );
                let dirty: Vec<bool> = c.st.dirty.iter().map(|d| d >> l & 1 == 1).collect();
                assert_eq!(dirty, st.sc.comb_dirty, "{}: lane {} dirty nodes", what, l);
                assert_eq!(ctl.nb, st.sc.nb, "{}: lane {} queue", what, l);
                assert_eq!(ctl.value_reg, st.sc.value_reg, "{}: lane {}", what, l);
                assert_eq!(ctl.print_buf, st.sc.print_buf, "{}: lane {}", what, l);
                assert_eq!(ctl.effects, st.sc.effects, "{}: lane {} effects", what, l);
                assert_eq!(ctl.finished, st.sc.finished, "{}: lane {}", what, l);
                assert_eq!(ctl.write_epoch, st.write_epoch, "{}: lane {}", what, l);
                assert_eq!(
                    envs[l].image(),
                    solo_env[l].image(),
                    "{}: lane {} environment",
                    what,
                    l
                );
            }
        }
    }

    /// Each binary shape over registers A and B, nets n0 and n1, or the
    /// immediate `imm`, storing to net `s`; branches jump to 2.
    fn bin_shapes(fx: &Fixture, op: BinaryOp, aw: u32, bw: u32, imm: u64) -> Vec<WOp> {
        let (na, nb, nd) = (fx.n0, fx.n1, fx.s);
        let m = mask(13);
        vec![
            WOp::CmpSelW {
                op,
                dst: DST,
                a: A,
                aw,
                b: B,
                bw,
                t: T,
                f: F,
            },
            WOp::CmpSelImmW {
                op,
                dst: DST,
                a: A,
                aw,
                b: B,
                bw,
                t: 0xaaaa,
                f: 0x5555,
            },
            WOp::BinW {
                op,
                dst: DST,
                a: A,
                b: B,
                aw,
                bw,
            },
            WOp::BinImmW {
                op,
                dst: DST,
                a: A,
                aw,
                imm,
                bw,
            },
            WOp::ImmBinW {
                op,
                dst: DST,
                imm,
                aw,
                b: B,
                bw,
            },
            WOp::NetBinImmW {
                op,
                dst: DST,
                net: na,
                aw,
                imm,
                bw,
            },
            WOp::BinNetW {
                op,
                dst: DST,
                a: A,
                aw,
                net: nb,
                bw,
            },
            WOp::NetBinW {
                op,
                dst: DST,
                net: na,
                aw,
                b: B,
                bw,
            },
            WOp::NetBinNetW {
                op,
                dst: DST,
                neta: na,
                aw,
                netb: nb,
                bw,
            },
            WOp::BinStoreNet {
                op,
                a: A,
                aw,
                b: B,
                bw,
                net: nd,
                mask: m,
            },
            WOp::BinImmStoreNet {
                op,
                a: A,
                aw,
                imm,
                bw,
                net: nd,
                mask: m,
            },
            WOp::NetBinImmStoreNet {
                op,
                src: na,
                aw,
                imm,
                bw,
                net: nd,
                mask: m,
            },
            WOp::NetBinNetStoreNet {
                op,
                neta: na,
                aw,
                netb: nb,
                bw,
                net: nd,
                mask: m,
            },
            WOp::JzBin {
                op,
                a: A,
                aw,
                b: B,
                bw,
                t: 2,
            },
            WOp::JnzBin {
                op,
                a: A,
                aw,
                b: B,
                bw,
                t: 2,
            },
            WOp::JzBinImm {
                op,
                a: A,
                aw,
                imm,
                bw,
                t: 2,
            },
            WOp::JnzBinImm {
                op,
                a: A,
                aw,
                imm,
                bw,
                t: 2,
            },
            WOp::JzNetBinImm {
                op,
                net: na,
                aw,
                imm,
                bw,
                t: 2,
            },
            WOp::JnzNetBinImm {
                op,
                net: na,
                aw,
                imm,
                bw,
                t: 2,
            },
            WOp::NbNetBinImm {
                site: 0,
                op,
                net: na,
                aw,
                imm,
                w: 64,
                bw,
            },
        ]
    }

    /// Every operator-free op the lane executor runs, with its operands in
    /// the registers, nets and memory of the fixture; branches jump to 2.
    fn plain_ops(fx: &Fixture) -> Vec<XOp> {
        let (n0, n1, s, mem) = (fx.n0, fx.n1, fx.s, fx.mem);
        let string = fx.prog.strings.iter().position(|x| x == "in").unwrap() as u32;
        assert!(!fx.prog.effects.is_empty(), "the fixture raises an effect");
        vec![
            XOp::MovW { dst: DST, src: A },
            XOp::ConstW {
                dst: DST,
                imm: 0x1234,
            },
            XOp::SelW {
                dst: DST,
                c: C,
                a: A,
                b: B,
            },
            XOp::SelImmW {
                dst: DST,
                c: C,
                a: 7,
                b: 9,
            },
            XOp::LoadNetW { dst: DST, net: n0 },
            XOp::StoreNetW {
                net: n0,
                src: A,
                mask: 0x0f0f_0f0f_0f0f_0f0f,
            },
            XOp::StoreNetW {
                net: s,
                src: A,
                mask: mask(13),
            },
            XOp::StoreNetImm { net: n1, imm: 5 },
            XOp::StoreNetImm { net: s, imm: 0 },
            XOp::LoadMem0W { dst: DST, mem },
            XOp::LoadMemW {
                dst: DST,
                mem,
                idx: IDX,
            },
            XOp::LoadMemConstW {
                dst: DST,
                mem,
                elem: 3,
            },
            XOp::LoadMemConstW {
                dst: DST,
                mem,
                elem: 9,
            },
            XOp::StoreMemW {
                mem,
                idx: IDX,
                src: A,
                mask: u64::MAX,
            },
            XOp::StoreMemConstW {
                mem,
                elem: 1,
                src: A,
                mask: 0xff,
            },
            XOp::StoreMemConstW {
                mem,
                elem: 8,
                src: A,
                mask: 0xff,
            },
            XOp::StoreMemConstImm {
                mem,
                elem: 6,
                imm: 3,
            },
            XOp::StoreBitW {
                net: s,
                idx: IDX,
                bit: B,
            },
            XOp::StoreBitW {
                net: n0,
                idx: IDX,
                bit: B,
            },
            XOp::StoreBitConstW {
                net: s,
                idx: 4,
                bit: B,
            },
            XOp::StoreSlice {
                net: s,
                hi: HI,
                lo: LO,
                src: VB,
            },
            XOp::StoreSlice {
                net: n0,
                hi: HI,
                lo: LO,
                src: VB,
            },
            XOp::LoadTime { dst: DST },
            XOp::LoadValueReg { dst: DB },
            XOp::BigToWord { dst: DST, src: VB },
            XOp::WordToBig {
                dst: DB,
                src: A,
                w: 17,
            },
            XOp::SliceW {
                dst: DST,
                a: A,
                hi: 11,
                lo: 3,
            },
            XOp::SliceW {
                dst: DST,
                a: A,
                hi: 70,
                lo: 64,
            },
            XOp::NetSliceW {
                dst: DST,
                net: n0,
                hi: 40,
                lo: 8,
            },
            XOp::ConcatW {
                dst: DST,
                a: A,
                b: B,
                bw: 8,
            },
            XOp::ResizeW {
                dst: DST,
                a: A,
                mask: 0xffff,
            },
            XOp::BitSelW {
                dst: DST,
                a: A,
                aw: 13,
                idx: IDX,
            },
            XOp::BitSelNetW {
                dst: DST,
                net: n0,
                aw: 64,
                idx: IDX,
            },
            XOp::NetBitConstW {
                dst: DST,
                net: s,
                aw: 13,
                idx: 2,
            },
            XOp::Jump(2),
            XOp::JumpIfZeroW { c: C, t: 2 },
            XOp::JumpIfNonZeroW { c: C, t: 2 },
            XOp::JzNetBit {
                net: n0,
                aw: 64,
                idx: 0,
                t: 2,
            },
            XOp::JnzNetBit {
                net: s,
                aw: 13,
                idx: 1,
                t: 2,
            },
            XOp::JzNet { net: n1, t: 2 },
            XOp::JnzNet { net: n1, t: 2 },
            XOp::JumpIfNotFinished(2),
            XOp::CheckFinished(2),
            XOp::NbW {
                site: 0,
                src: A,
                w: 64,
            },
            XOp::NbImm {
                site: 0,
                imm: 3,
                w: 8,
            },
            XOp::NbNet {
                site: 0,
                net: n0,
                w: 64,
            },
            XOp::Fopen {
                dst: DST,
                s: string,
            },
            XOp::Feof { dst: DST, fd: FD },
            XOp::FeofNet { dst: DST, net: n1 },
            XOp::Random { dst: DST },
            XOp::Fread {
                fd: FD,
                width: 64,
                skip: 2,
            },
            XOp::FreadNet {
                net: n1,
                width: 64,
                skip: 2,
            },
            XOp::Fclose { fd: FD },
            XOp::PrintStr(string),
            XOp::PrintValW { src: A },
            XOp::PrintFlush { newline: true },
            XOp::PrintFlush { newline: false },
            XOp::Finish { src: A },
            XOp::Effect(0),
        ]
    }

    const MASKS: [u32; 4] = [0b1111, 0b1011, 0b0100, 0b0110];

    #[test]
    fn every_lane_op_agrees_with_the_scalar_executor_lane_by_lane() {
        let fx = Fixture::new();
        // Each op, then two markers: a branch to 2 skips the first.
        let markers = [
            XOp::ConstW { dst: MARK, imm: 1 },
            XOp::ConstW { dst: MARK2, imm: 1 },
        ];
        let run = |op: XOp| {
            assert!(!matches!(op, uncovered!()), "{} is a lane op", op_name(&op));
            let code = [op, markers[0], markers[1]];
            for k in 0..fx.trials.len() {
                for lanes in MASKS {
                    fx.check(&code, k, lanes);
                }
            }
        };

        let mut plain = BTreeSet::new();
        for op in plain_ops(&fx) {
            plain.insert(op_name(&op));
            run(op);
        }
        let all: BTreeSet<String> = word_ops!(plain_names! {})
            .iter()
            .filter(|n| !UNCOVERED.contains(n))
            .map(|n| n.to_string())
            .collect();
        assert_eq!(plain, all, "every operator-free lane op is checked");

        let bin_ops = [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Rem,
            BinaryOp::And,
            BinaryOp::Or,
            BinaryOp::Xor,
            BinaryOp::Shl,
            BinaryOp::Shr,
            BinaryOp::AShr,
            BinaryOp::LogicalAnd,
            BinaryOp::LogicalOr,
            BinaryOp::Eq,
            BinaryOp::Ne,
            BinaryOp::Lt,
            BinaryOp::Le,
            BinaryOp::Gt,
            BinaryOp::Ge,
        ];
        let mut kernels = BTreeSet::new();
        let mut run_w = |w: WOp| {
            let Ok(x) = XOp::try_from(w) else { return };
            // Named as the table names the variant: shape, then operator.
            let text = format!("{:?}", WOp::from(x));
            let op = text
                .split("op: ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap();
            kernels.insert(format!("{}{}", op_name(&x), op));
            run(x);
        };
        for (aw, bw) in [(64, 64), (13, 7)] {
            for op in bin_ops {
                for w in bin_shapes(&fx, op, aw, bw, 5) {
                    run_w(w);
                }
            }
        }
        for op in [
            UnaryOp::Not,
            UnaryOp::LogicalNot,
            UnaryOp::Neg,
            UnaryOp::Plus,
            UnaryOp::ReduceAnd,
            UnaryOp::ReduceOr,
            UnaryOp::ReduceXor,
        ] {
            for w in [64, 13] {
                run_w(WOp::UnW {
                    op,
                    dst: DST,
                    a: A,
                    w,
                });
            }
        }
        let table: BTreeSet<String> = crate::wop::KERNELS.iter().map(|k| k.to_string()).collect();
        assert_eq!(kernels, table, "every operator kernel is checked");
    }

    #[test]
    fn divergent_branches_split_the_mask_and_merge() {
        let fx = Fixture::new();
        let store = |src| XOp::StoreNetW {
            net: fx.n0,
            src,
            mask: u64::MAX,
        };
        let programs = [
            // An if/else: the lanes split at 0 and meet at 4.
            vec![
                XOp::JumpIfZeroW { c: C, t: 3 },
                XOp::ConstW { dst: MARK, imm: 1 },
                XOp::Jump(4),
                XOp::ConstW { dst: MARK, imm: 2 },
                store(MARK),
            ],
            // Nested: a group parked ahead while the other splits again.
            vec![
                XOp::JumpIfNonZeroW { c: C, t: 4 },
                XOp::JumpIfZeroW { c: B, t: 3 },
                XOp::ConstW { dst: MARK, imm: 1 },
                XOp::ConstW { dst: MARK2, imm: 2 },
                XOp::NbW {
                    site: 1,
                    src: MARK,
                    w: 64,
                },
                store(MARK2),
            ],
            // A jump over a parked group's `pc`: it runs first.
            vec![
                XOp::JumpIfZeroW { c: C, t: 2 },
                XOp::Jump(4),
                XOp::ConstW { dst: MARK, imm: 3 },
                XOp::Jump(5),
                XOp::ConstW { dst: MARK2, imm: 4 },
                store(MARK),
            ],
        ];
        let mut split = false;
        for code in &programs {
            for k in 0..fx.trials.len() {
                let c: Vec<u64> = fx.trials[k]
                    .iter()
                    .map(|(s, _)| s.m.st.words[C as usize])
                    .collect();
                split |= c.contains(&0) && c.iter().any(|&v| v != 0);
                for lanes in MASKS {
                    fx.check(code, k, lanes);
                }
            }
        }
        assert!(split, "some trial's lanes disagree on the condition");
    }
}
