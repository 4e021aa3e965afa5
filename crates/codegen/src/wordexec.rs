//! The word machine: the compiled engine's executor.
//!
//! **One job:** run register-allocated, width-specialized three-address code
//! (`XOp`s, produced by [`crate::regalloc`] from the stack bytecode, each
//! operator fixed in its variant: see [`crate::wop`]) under the shared
//! scheduler in [`crate::sim`]. This is the machine behind
//! [`CompiledSim`](crate::CompiledSim), the only compiled executor a runtime
//! ever seats a program on.
//!
//! **Key design decision:** values the width inference pinned to at most 64
//! bits live *untagged* in flat `u64` arenas, and everything the translation
//! can decide once is decided at build time:
//!
//! * `net_w: Vec<u64>` — scalar nets at most 64 bits wide, masked to their
//!   declared width; `net_b: Vec<Val>` holds the (rare) wider nets at the
//!   same indices.
//! * `mems` — one flat `Vec<u64>` per memory whose element width fits a
//!   word, `Vec<Val>` otherwise.
//! * `words: Vec<u64>` / `bigs: Vec<Val>` — the register arenas, sized to
//!   the largest allocation any translated program needs and shared by all
//!   of them (registers are dead across program boundaries).
//!
//! On top of the op interpreter (`wexec`) it supplies the scheduler its fast
//! paths: single-copy comb nodes (`WComb::CopyNet`/`SliceNet`) and
//! whole-word latch sites (`WNbSite::WordNet`) run inline without
//! dispatching a program, bare-net guards read one word, clock edges skip
//! building a `Bits`, and a write epoch lets a guard-sampling pass be skipped
//! outright when no guard-visible net or memory changed since the last one.
//! Each is checked against the fast-path-free stack machine by the
//! differential and fuzz suites.

use crate::ir::{mask, CompiledProgram, Op, SlotRef, Val, MAX_LOOP_ITERS};
use crate::lanes::LanePlan;
use crate::regalloc::{translate_body, translate_expr, translate_stmt, Class, WordProg};
use crate::sim::{ExecCounters, Machine, NoopEnv, Observed, Sched};
use crate::wop::{word_dispatch, word_ops, WOp, XOp};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;
use synergy_interp::{SystemEnv, Value};
use synergy_vlog::ast::Edge;
use synergy_vlog::{Bits, VlogError, VlogResult};

/// An edge guard: the common whole-net case reads one word directly; the
/// general case runs a translated expression program.
#[derive(Clone)]
pub(crate) enum WGuard {
    /// Guard expression is a bare read of a word-sized net.
    NetW { net: u32, w: u32 },
    /// General guard program; `result` holds the value.
    Prog(WordProg),
}

/// One translated `always` block.
#[derive(Clone)]
pub(crate) struct WAlways {
    pub(crate) guards: Vec<(Edge, WGuard)>,
    pub(crate) body: WordProg,
}

/// A non-blocking latch site: the ubiquitous whole-word-net store runs
/// inline in `update` without dispatching a program.
#[derive(Clone)]
pub(crate) enum WNbSite {
    /// `net <= value`: resize to the net width, compare, mark.
    WordNet {
        net: u32,
        mask: u64,
    },
    Prog(WordProg),
}

/// A combinational node: single-copy shapes run inline in `propagate`.
#[derive(Clone)]
pub(crate) enum WComb {
    /// `assign dst = src` (width-matched or truncating copy).
    CopyNet {
        src: u32,
        dst: u32,
        mask: u64,
    },
    /// `assign dst = src[hi:lo]`.
    SliceNet {
        src: u32,
        hi: u32,
        lo: u32,
        dst: u32,
        mask: u64,
    },
    Prog(WordProg),
}

/// The translated programs plus static scheduling tables.
#[derive(Clone)]
pub(crate) struct WordProgs {
    pub(crate) comb: Vec<WComb>,
    pub(crate) always: Vec<WAlways>,
    initials: Vec<WordProg>,
    pub(crate) nb_sites: Vec<WNbSite>,
    /// CSR-flattened `net_deps` + `net_driver`: the comb positions to mark
    /// when net `i` changes live at `net_dep_flat[net_dep_off[i]..net_dep_off[i + 1]]`.
    pub(crate) net_dep_off: Vec<u32>,
    pub(crate) net_dep_flat: Vec<u32>,
    /// Same for memories (`mem_deps` + `mem_driver`).
    pub(crate) mem_dep_off: Vec<u32>,
    pub(crate) mem_dep_flat: Vec<u32>,
    /// Nets/memories some guard or `@*` sensitivity list reads: only writes
    /// to these can change edge-detection outcomes.
    pub(crate) guard_nets: Vec<bool>,
    guard_mems: Vec<bool>,
    /// Whether, and how, the program ticks as a cohort (`crate::lanes`).
    pub(crate) lanes: LanePlan,
}

/// Records which nets/memories `op` reads (conservatively including store
/// targets, which is harmless for the guard-visibility filter).
fn note_slot_reads(op: &WOp, nets: &mut [bool], mems: &mut [bool]) {
    match op {
        WOp::LoadNetW { net, .. }
        | WOp::LoadNetB { net, .. }
        | WOp::NetBinImmW { net, .. }
        | WOp::BinNetW { net, .. }
        | WOp::NetBinW { net, .. }
        | WOp::NetSliceW { net, .. }
        | WOp::BitSelNetW { net, .. }
        | WOp::NetBitConstW { net, .. }
        | WOp::JzNetBinImm { net, .. }
        | WOp::JnzNetBinImm { net, .. }
        | WOp::JzNetBit { net, .. }
        | WOp::JnzNetBit { net, .. }
        | WOp::JzNet { net, .. }
        | WOp::JnzNet { net, .. }
        | WOp::NbNet { net, .. }
        | WOp::NbNetBinImm { net, .. }
        | WOp::FeofNet { net, .. }
        | WOp::FreadNet { net, .. }
        | WOp::StoreNetW { net, .. }
        | WOp::StoreNetImm { net, .. }
        | WOp::StoreNetB { net, .. }
        | WOp::StoreBitW { net, .. }
        | WOp::StoreBitConstW { net, .. }
        | WOp::StoreBitB { net, .. }
        | WOp::StoreSlice { net, .. }
        | WOp::BinStoreNet { net, .. }
        | WOp::BinImmStoreNet { net, .. }
        | WOp::NetBinImmStoreNet { net, .. } => nets[*net as usize] = true,
        WOp::NetBinNetW { neta, netb, .. } | WOp::NetBinNetStoreNet { neta, netb, .. } => {
            nets[*neta as usize] = true;
            nets[*netb as usize] = true;
        }
        WOp::LoadMem0W { mem, .. }
        | WOp::LoadMem0B { mem, .. }
        | WOp::LoadMemW { mem, .. }
        | WOp::LoadMemB { mem, .. }
        | WOp::LoadMemConstW { mem, .. }
        | WOp::LoadMemConstB { mem, .. }
        | WOp::StoreMemW { mem, .. }
        | WOp::StoreMemB { mem, .. }
        | WOp::StoreMemConstW { mem, .. }
        | WOp::StoreMemConstImm { mem, .. }
        | WOp::StoreMemConstB { mem, .. } => mems[*mem as usize] = true,
        _ => {}
    }
}

/// Recognises latch-site and comb-node shapes that run inline.
fn classify_nb(p: WordProg) -> WNbSite {
    if let [XOp::LoadValueReg { dst: a }, XOp::BigToWord { dst: b, src }, XOp::StoreNetW { net, src: c, mask }] =
        p.ops[..]
    {
        if a == src && b == c {
            return WNbSite::WordNet { net, mask };
        }
    }
    WNbSite::Prog(p)
}

fn classify_comb(p: WordProg) -> WComb {
    match p.ops[..] {
        [XOp::LoadNetW { dst: a, net: src }, XOp::StoreNetW {
            net: dst,
            src: b,
            mask,
        }] if a == b => WComb::CopyNet { src, dst, mask },
        [XOp::NetSliceW {
            dst: a,
            net: src,
            hi,
            lo,
        }, XOp::StoreNetW {
            net: dst,
            src: b,
            mask,
        }] if a == b => WComb::SliceNet {
            src,
            hi,
            lo,
            dst,
            mask,
        },
        _ => WComb::Prog(p),
    }
}

/// Flattens per-slot dependency lists (readers plus the optional driver)
/// into one contiguous CSR table.
fn flatten_deps(deps: &[Vec<u32>], drivers: &[Option<u32>]) -> (Vec<u32>, Vec<u32>) {
    let mut off = Vec::with_capacity(deps.len() + 1);
    let mut flat = Vec::new();
    off.push(0);
    for (d, drv) in deps.iter().zip(drivers) {
        flat.extend_from_slice(d);
        if let Some(p) = drv {
            flat.push(*p);
        }
        off.push(flat.len() as u32);
    }
    (off, flat)
}

/// One memory: word-specialized when its element width fits a machine word,
/// `Val`-backed otherwise.
#[derive(Clone)]
pub(crate) struct WMem {
    width: u32,
    msk: u64,
    pub(crate) small: bool,
    pub(crate) w: Vec<u64>,
    b: Vec<Val>,
}

/// Mutable execution state of the word machine.
#[derive(Clone)]
pub(crate) struct WState {
    pub(crate) net_w: Vec<u64>,
    net_b: Vec<Val>,
    pub(crate) mems: Vec<WMem>,
    pub(crate) words: Vec<u64>,
    pub(crate) bigs: Vec<Val>,
    /// Bumped whenever a guard-visible net or memory value changes. Guards
    /// read only nets/memories, so edge detection can be skipped entirely
    /// while this matches `guard_epoch` (the value at the last sampling
    /// pass).
    pub(crate) write_epoch: u64,
    pub(crate) guard_epoch: u64,
    pub(crate) guard_epoch_skips: u64,
    pub(crate) sc: Sched,
}

/// The word machine: translated programs (immutable, shared by every clone)
/// plus execution state.
#[derive(Clone)]
pub struct WordMachine {
    pub(crate) wp: Arc<WordProgs>,
    pub(crate) st: WState,
}

/// One unit of static code: a translated program, or the name of a shape
/// that runs inline instead of one (a bare-net guard, a single-copy comb
/// node, a whole-word latch site).
enum Unit<'a> {
    Prog(&'a [XOp]),
    Inline(&'static str),
}

fn guard_of(code: &[Op], prog: &CompiledProgram) -> Result<WGuard, String> {
    if let [Op::PushNet(i)] = code {
        let w = prog.nets[*i as usize].width;
        if w <= 64 {
            return Ok(WGuard::NetW { net: *i, w });
        }
    }
    Ok(WGuard::Prog(translate_expr(code, prog)?))
}

impl WordMachine {
    /// Renders every translated program (debug aid for fusion coverage).
    pub(crate) fn dump(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let prog = |name: &str, p: &WordProg| {
            let mut s = String::new();
            let _ = writeln!(s, "== {} (words {}, bigs {})", name, p.n_words, p.n_bigs);
            for (i, op) in p.ops.iter().enumerate() {
                let _ = writeln!(s, "{:4}  {:?}", i, WOp::from(*op));
            }
            s
        };
        for (i, a) in self.wp.always.iter().enumerate() {
            for (j, (e, g)) in a.guards.iter().enumerate() {
                match g {
                    WGuard::NetW { net, w } => {
                        out.push_str(&format!(
                            "== always{} guard{} {:?}: NetW net={} w={}\n",
                            i, j, e, net, w
                        ));
                    }
                    WGuard::Prog(pg) => {
                        out.push_str(&prog(&format!("always{} guard{} {:?}", i, j, e), pg))
                    }
                }
            }
            out.push_str(&prog(&format!("always{} body", i), &a.body));
        }
        for (i, c) in self.wp.comb.iter().enumerate() {
            match c {
                WComb::CopyNet { src, dst, mask } => out.push_str(&format!(
                    "== comb{}: CopyNet src={} dst={} mask={:#x}\n",
                    i, src, dst, mask
                )),
                WComb::SliceNet {
                    src, hi, lo, dst, ..
                } => out.push_str(&format!(
                    "== comb{}: SliceNet src={}[{}:{}] dst={}\n",
                    i, src, hi, lo, dst
                )),
                WComb::Prog(p) => out.push_str(&prog(&format!("comb{}", i), p)),
            }
        }
        for (i, c) in self.wp.nb_sites.iter().enumerate() {
            match c {
                WNbSite::WordNet { net, mask } => out.push_str(&format!(
                    "== nb{}: WordNet net={} mask={:#x}\n",
                    i, net, mask
                )),
                WNbSite::Prog(p) => out.push_str(&prog(&format!("nb{}", i), p)),
            }
        }
        for (i, c) in self.wp.initials.iter().enumerate() {
            out.push_str(&prog(&format!("initial{}", i), c));
        }
        out
    }

    /// The static code, unit by unit.
    fn units(&self) -> impl Iterator<Item = Unit<'_>> {
        let comb = self.wp.comb.iter().map(|c| match c {
            WComb::CopyNet { .. } => Unit::Inline("CopyNet"),
            WComb::SliceNet { .. } => Unit::Inline("SliceNet"),
            WComb::Prog(p) => Unit::Prog(&p.ops),
        });
        let always = self.wp.always.iter().flat_map(|a| {
            let guards = a.guards.iter().map(|(_, g)| match g {
                WGuard::NetW { .. } => Unit::Inline("NetW"),
                WGuard::Prog(p) => Unit::Prog(&p.ops),
            });
            guards.chain(std::iter::once(Unit::Prog(&a.body.ops)))
        });
        let nb_sites = self.wp.nb_sites.iter().map(|s| match s {
            WNbSite::WordNet { .. } => Unit::Inline("WordNet"),
            WNbSite::Prog(p) => Unit::Prog(&p.ops),
        });
        let initials = self.wp.initials.iter().map(|p| Unit::Prog(&p.ops));
        comb.chain(always).chain(nb_sites).chain(initials)
    }

    /// Static three-address instruction count across all translated programs
    /// (see `CompiledSim::word_op_count`); an inline shape counts as one.
    pub(crate) fn static_op_count(&self) -> usize {
        self.units()
            .map(|u| match u {
                Unit::Prog(ops) => ops.len(),
                Unit::Inline(_) => 1,
            })
            .sum()
    }

    /// The static count broken down by op (see
    /// `CompiledSim::word_op_histogram`).
    pub(crate) fn static_op_histogram(&self) -> BTreeMap<String, usize> {
        let mut hist = BTreeMap::new();
        let mut bump = |name: &str| *hist.entry(name.to_string()).or_insert(0) += 1;
        for unit in self.units() {
            match unit {
                Unit::Inline(name) => bump(name),
                // A variant's name is the head of its `Debug` form.
                Unit::Prog(ops) => ops.iter().for_each(|op| {
                    let text = format!("{:?}", WOp::from(*op));
                    bump(
                        text.split(|c: char| !c.is_alphanumeric())
                            .next()
                            .unwrap_or(""),
                    )
                }),
            }
        }
        hist
    }

    fn net_bits(&self, prog: &CompiledProgram, i: u32) -> Bits {
        if prog.nets[i as usize].width <= 64 {
            Bits::from_u64(
                prog.nets[i as usize].width as usize,
                self.st.net_w[i as usize],
            )
        } else {
            self.st.net_b[i as usize].to_bits()
        }
    }
}

// The per-tick methods are `#[inline]`: `Sim<M>` is generic, so its code is
// instantiated in the *calling* crate, and without the attribute every one of
// these would be an out-of-line call across the crate boundary.
impl Machine for WordMachine {
    const NAME: &'static str = "CompiledSim";

    /// Translates every program of a lowered design and builds fresh
    /// execution state (registers at declared reset values).
    fn build(prog: &CompiledProgram) -> Result<WordMachine, String> {
        let comb = prog
            .comb
            .iter()
            .map(|n| translate_stmt(&n.code, prog).map(classify_comb))
            .collect::<Result<Vec<_>, _>>()?;
        let mut always = Vec::with_capacity(prog.always.len());
        for ap in &prog.always {
            let mut guards = Vec::with_capacity(ap.guards.len());
            for (edge, code) in &ap.guards {
                guards.push((*edge, guard_of(code, prog)?));
            }
            always.push(WAlways {
                guards,
                body: translate_body(&ap.body, prog)?,
            });
        }
        let initials = prog
            .initials
            .iter()
            .map(|c| translate_stmt(c, prog))
            .collect::<Result<Vec<_>, _>>()?;
        let nb_sites = prog
            .nb_sites
            .iter()
            .map(|c| translate_stmt(c, prog).map(classify_nb))
            .collect::<Result<Vec<_>, _>>()?;

        let mut max_words = 0u32;
        let mut max_bigs = 0u32;
        {
            let mut note = |p: &WordProg| {
                max_words = max_words.max(p.n_words);
                max_bigs = max_bigs.max(p.n_bigs);
            };
            for c in &comb {
                if let WComb::Prog(p) = c {
                    note(p);
                }
            }
            initials.iter().for_each(&mut note);
            for s in &nb_sites {
                if let WNbSite::Prog(p) = s {
                    note(p);
                }
            }
            for a in &always {
                note(&a.body);
                for (_, g) in &a.guards {
                    if let WGuard::Prog(p) = g {
                        note(p);
                    }
                }
            }
        }

        let net_w: Vec<u64> = prog
            .nets
            .iter()
            .map(|n| match &n.init {
                Some(b) if n.width <= 64 => b.to_u64() & mask(n.width),
                _ => 0,
            })
            .collect();
        let net_b: Vec<Val> = prog
            .nets
            .iter()
            .map(|n| {
                if n.width > 64 {
                    match &n.init {
                        Some(b) => Val::from_bits(b),
                        None => Val::zero(n.width as usize),
                    }
                } else {
                    Val::Small(0, 1)
                }
            })
            .collect();
        let mems = prog
            .mems
            .iter()
            .map(|m| {
                let small = m.width <= 64;
                WMem {
                    width: m.width,
                    msk: mask(m.width.min(64)),
                    small,
                    w: if small {
                        vec![0; m.depth as usize]
                    } else {
                        Vec::new()
                    },
                    b: if small {
                        Vec::new()
                    } else {
                        vec![Val::zero(m.width as usize); m.depth as usize]
                    },
                }
            })
            .collect();
        let st = WState {
            net_w,
            net_b,
            mems,
            words: vec![0; max_words as usize],
            bigs: vec![Val::zero(1); max_bigs as usize],
            write_epoch: 0,
            guard_epoch: u64::MAX,
            guard_epoch_skips: 0,
            sc: Sched::new(prog),
        };
        let (net_dep_off, net_dep_flat) = flatten_deps(&prog.net_deps, &prog.net_driver);
        let (mem_dep_off, mem_dep_flat) = flatten_deps(&prog.mem_deps, &prog.mem_driver);
        let mut guard_nets = vec![false; prog.nets.len()];
        let mut guard_mems = vec![false; prog.mems.len()];
        for (a, ap) in always.iter().zip(&prog.always) {
            for s in &ap.star {
                match s {
                    SlotRef::Net(i) => guard_nets[*i as usize] = true,
                    SlotRef::Mem(i) => guard_mems[*i as usize] = true,
                }
            }
            for (_, g) in &a.guards {
                match g {
                    WGuard::NetW { net, .. } => guard_nets[*net as usize] = true,
                    WGuard::Prog(p) => {
                        for op in &p.ops {
                            note_slot_reads(&WOp::from(*op), &mut guard_nets, &mut guard_mems);
                        }
                    }
                }
            }
        }
        let wp = WordProgs {
            comb,
            always,
            initials,
            nb_sites,
            net_dep_off,
            net_dep_flat,
            mem_dep_off,
            mem_dep_flat,
            guard_nets,
            guard_mems,
            lanes: LanePlan::default(),
        };
        let wp = WordProgs {
            lanes: crate::lanes::plan(prog, &wp),
            ..wp
        };
        Ok(WordMachine {
            wp: Arc::new(wp),
            st,
        })
    }

    #[inline]
    fn sched(&self) -> &Sched {
        &self.st.sc
    }

    #[inline]
    fn sched_mut(&mut self) -> &mut Sched {
        &mut self.st.sc
    }

    #[inline]
    fn run_comb(
        &mut self,
        prog: &CompiledProgram,
        pos: u32,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        let (dst, new) = match &self.wp.comb[pos as usize] {
            WComb::CopyNet { src, dst, mask } => (*dst, self.st.net_w[*src as usize] & mask),
            WComb::SliceNet {
                src,
                hi,
                lo,
                dst,
                mask,
            } => (
                *dst,
                word::slice(self.st.net_w[*src as usize], *hi, *lo) & mask,
            ),
            WComb::Prog(p) => return wexec(prog, &self.wp, &mut self.st, &p.ops, env),
        };
        store_word_net(&self.wp, &mut self.st, dst, new);
        Ok(())
    }

    #[inline]
    fn run_body(
        &mut self,
        prog: &CompiledProgram,
        idx: u32,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        let code = &self.wp.always[idx as usize].body.ops;
        wexec(prog, &self.wp, &mut self.st, code, env)
    }

    fn run_initial(
        &mut self,
        prog: &CompiledProgram,
        idx: usize,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        wexec(
            prog,
            &self.wp,
            &mut self.st,
            &self.wp.initials[idx].ops,
            env,
        )
    }

    #[inline]
    fn latch(
        &mut self,
        prog: &CompiledProgram,
        site: u32,
        value: Val,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        match &self.wp.nb_sites[site as usize] {
            WNbSite::WordNet { net, mask } => {
                // `value_reg` stays untouched: every reader latches its own
                // value first (Fread, or a `Prog` site below).
                store_word_net(&self.wp, &mut self.st, *net, value.to_u64() & mask);
                Ok(())
            }
            WNbSite::Prog(p) => {
                self.st.sc.value_reg = value;
                wexec(prog, &self.wp, &mut self.st, &p.ops, env)
            }
        }
    }

    #[inline]
    fn sample_guard(&mut self, prog: &CompiledProgram, idx: usize, eidx: usize) -> Observed<'_> {
        match &self.wp.always[idx].guards[eidx].1 {
            WGuard::NetW { net, w } => Observed::W(self.st.net_w[*net as usize], *w),
            WGuard::Prog(p) => match wexec(prog, &self.wp, &mut self.st, &p.ops, &mut NoopEnv) {
                Ok(()) => match p.result {
                    Some((Class::Word(w), r)) => Observed::W(self.st.words[r as usize], w),
                    Some((Class::Big, r)) => Observed::B(Cow::Borrowed(&self.st.bigs[r as usize])),
                    None => Observed::W(0, 1),
                },
                Err(_) => Observed::W(0, 1),
            },
        }
    }

    #[inline]
    fn sample_star(&self, prog: &CompiledProgram, slot: SlotRef) -> Observed<'_> {
        match slot {
            SlotRef::Net(i) => {
                let w = prog.nets[i as usize].width;
                if w <= 64 {
                    Observed::W(self.st.net_w[i as usize], w)
                } else {
                    Observed::B(Cow::Borrowed(&self.st.net_b[i as usize]))
                }
            }
            SlotRef::Mem(i) => {
                let m = &self.st.mems[i as usize];
                if m.small {
                    Observed::W(m.w[0], m.width)
                } else {
                    Observed::B(Cow::Borrowed(&m.b[0]))
                }
            }
        }
    }

    /// No net or memory a guard can see changed since the last pass: every
    /// guard would re-read the same values, fire nothing, and store back the
    /// same previous values — skip the whole scan.
    #[inline]
    fn guards_quiet(&mut self) -> bool {
        if self.st.write_epoch == self.st.guard_epoch {
            self.st.guard_epoch_skips += 1;
            return true;
        }
        self.st.guard_epoch = self.st.write_epoch;
        false
    }

    fn read(&self, prog: &CompiledProgram, slot: SlotRef) -> Value {
        match slot {
            SlotRef::Net(i) => Value::Scalar(self.net_bits(prog, i)),
            SlotRef::Mem(i) => {
                let m = &self.st.mems[i as usize];
                Value::Memory(if m.small {
                    m.w.iter()
                        .map(|&v| Bits::from_u64(m.width as usize, v))
                        .collect()
                } else {
                    m.b.iter().map(Val::to_bits).collect()
                })
            }
        }
    }

    fn write_net(&mut self, prog: &CompiledProgram, id: u32, value: &Bits) {
        let width = prog.nets[id as usize].width;
        if width <= 64 {
            self.st.net_w[id as usize] = value.to_u64() & mask(width);
        } else {
            self.st.net_b[id as usize] = Val::from_bits(&value.resize(width as usize));
        }
        mark_net(&self.wp, &mut self.st, id);
    }

    #[inline]
    fn write_word(&mut self, prog: &CompiledProgram, id: u32, value: u64) {
        let width = prog.nets[id as usize].width;
        if width <= 64 {
            self.st.net_w[id as usize] = value & mask(width);
            mark_net(&self.wp, &mut self.st, id);
        } else {
            self.write_net(prog, id, &Bits::from_u64(64, value));
        }
    }

    #[inline]
    fn net_word(&self, id: u32) -> u64 {
        match &self.st.net_b[id as usize] {
            Val::Big(b) => b.to_u64(),
            Val::Small(..) => self.st.net_w[id as usize],
        }
    }

    fn read_elem(&self, mem: u32, idx: usize) -> Option<Bits> {
        let m = &self.st.mems[mem as usize];
        if m.small {
            m.w.get(idx).map(|&v| Bits::from_u64(m.width as usize, v))
        } else {
            m.b.get(idx).map(Val::to_bits)
        }
    }

    fn write_elem(&mut self, _prog: &CompiledProgram, mem: u32, idx: usize, value: &Bits) {
        let m = &mut self.st.mems[mem as usize];
        if m.small {
            if let Some(elem) = m.w.get_mut(idx) {
                *elem = value.to_u64() & m.msk;
            }
        } else if let Some(elem) = m.b.get_mut(idx) {
            *elem = Val::from_bits(&value.resize(m.width as usize));
        }
        mark_mem(&self.wp, &mut self.st, mem);
    }

    fn load(&mut self, prog: &CompiledProgram, slot: SlotRef, value: &Value) {
        match (slot, value) {
            (SlotRef::Net(i), Value::Scalar(b)) => {
                let width = prog.nets[i as usize].width;
                if width <= 64 {
                    self.st.net_w[i as usize] = b.to_u64() & mask(width);
                } else {
                    self.st.net_b[i as usize] = Val::from_bits(b);
                }
            }
            (SlotRef::Mem(i), Value::Memory(elems)) => {
                let m = &mut self.st.mems[i as usize];
                if m.small {
                    m.w = elems.iter().map(|b| b.to_u64() & m.msk).collect();
                } else {
                    m.b = elems.iter().map(Val::from_bits).collect();
                }
            }
            _ => return,
        }
        self.st.write_epoch = self.st.write_epoch.wrapping_add(1);
    }

    fn fast_path_counters(&self) -> ExecCounters {
        ExecCounters {
            guard_epoch_skips: self.st.guard_epoch_skips,
            arena_regs: (self.st.net_w.len() + self.st.words.len() + self.st.bigs.len()) as u64,
            ..ExecCounters::default()
        }
    }
}

/// Marks the readers — and, for a continuously driven net, the driver, so
/// the assigned value wins again as in the interpreter's full re-evaluation
/// — of a changed net, and bumps the write epoch for edge detection.
#[inline]
fn mark_net(wp: &WordProgs, st: &mut WState, net: u32) {
    if wp.guard_nets[net as usize] {
        st.write_epoch = st.write_epoch.wrapping_add(1);
    }
    let lo = wp.net_dep_off[net as usize] as usize;
    let hi = wp.net_dep_off[net as usize + 1] as usize;
    for i in lo..hi {
        st.sc.mark_comb(wp.net_dep_flat[i]);
    }
}

/// Stores `v` into word net `net` (already masked to its width), marking
/// the net's readers only when the value changes.
#[inline]
fn store_word_net(wp: &WordProgs, st: &mut WState, net: u32, v: u64) {
    if st.net_w[net as usize] != v {
        st.net_w[net as usize] = v;
        mark_net(wp, st, net);
    }
}

/// The word math of the plain ops, one function per rule, called by this
/// executor and by the lane executor (`lanes.rs`) alike.
pub(crate) mod word {
    use crate::ir::mask;

    /// Bits `lo..=hi` of `v` (none from position 64 up): `SliceW`,
    /// `NetSliceW` and a slice comb node.
    #[inline(always)]
    pub(crate) fn slice(v: u64, hi: u32, lo: u32) -> u64 {
        let shifted = if lo >= 64 { 0 } else { v >> lo };
        shifted & mask(hi - lo + 1)
    }

    /// Bit `i` of a `w`-bit word, 0 past its width: the bit selects and
    /// the bit branches.
    #[inline(always)]
    pub(crate) fn bit(v: u64, w: u32, i: usize) -> bool {
        i < w as usize && (v >> i) & 1 == 1
    }

    /// `v`, a `width`-bit net, with bit `i` set to `b & 1`; unchanged when
    /// `i` is past the width: `StoreBitW`, `StoreBitConstW`.
    #[inline(always)]
    pub(crate) fn set_bit(v: u64, width: usize, i: usize, b: u64) -> u64 {
        if i < width {
            (v & !(1 << i)) | ((b & 1) << i)
        } else {
            v
        }
    }

    /// `old`, a `width`-bit net (at most 64), with positions `lo..=hi`
    /// (either order; clamped to the width, positions past it dropped)
    /// taken from `value`'s low bits, as `Bits::set_slice` would:
    /// `StoreSlice` on a word net.
    #[inline(always)]
    pub(crate) fn set_slice(old: u64, width: usize, hi: usize, lo: usize, value: u64) -> u64 {
        let (hi, lo) = (hi.max(lo), hi.min(lo));
        if lo >= width {
            return old;
        }
        let m = mask((hi.min(width - 1) - lo + 1) as u32) << lo;
        (old & !m) | ((value << lo) & m)
    }

    /// Element `i` of a word memory, zero past its depth.
    #[inline(always)]
    pub(crate) fn elem<T: Copy + Default>(m: &[T], i: usize) -> T {
        m.get(i).copied().unwrap_or_default()
    }
}

fn mark_mem(wp: &WordProgs, st: &mut WState, mem: u32) {
    if wp.guard_mems[mem as usize] {
        st.write_epoch = st.write_epoch.wrapping_add(1);
    }
    let lo = wp.mem_dep_off[mem as usize] as usize;
    let hi = wp.mem_dep_off[mem as usize + 1] as usize;
    for i in lo..hi {
        st.sc.mark_comb(wp.mem_dep_flat[i]);
    }
}

/// The operator kernels: one function per operator-carrying shape, generic
/// over its operator. `word_dispatch!` instantiates each once per operator
/// the table lists, so the operator is a constant in every arm.
mod kernel {
    // Every kernel takes the programs, the state and `pc` (already past
    // this op; a compare-branch sets it when it jumps), then the op's own
    // fields, so the wider shapes pass clippy's argument count.
    #![allow(clippy::too_many_arguments)]

    use super::{store_word_net, WState, WordProgs};
    use crate::ir::Val;
    use crate::wop::{FixedBinary, FixedUnary};

    #[inline(always)]
    pub(super) fn cmp_sel_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        dst: u32,
        a: u32,
        aw: u32,
        b: u32,
        bw: u32,
        t: u32,
        f: u32,
    ) {
        let c = O::apply(st.words[a as usize], aw, st.words[b as usize], bw);
        let pick = if c != 0 { t } else { f };
        st.words[dst as usize] = st.words[pick as usize];
    }

    #[inline(always)]
    pub(super) fn cmp_sel_imm_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        dst: u32,
        a: u32,
        aw: u32,
        b: u32,
        bw: u32,
        t: u64,
        f: u64,
    ) {
        let c = O::apply(st.words[a as usize], aw, st.words[b as usize], bw);
        st.words[dst as usize] = if c != 0 { t } else { f };
    }

    #[inline(always)]
    pub(super) fn bin_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        dst: u32,
        a: u32,
        b: u32,
        aw: u32,
        bw: u32,
    ) {
        st.words[dst as usize] = O::apply(st.words[a as usize], aw, st.words[b as usize], bw);
    }

    #[inline(always)]
    pub(super) fn bin_imm_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        dst: u32,
        a: u32,
        aw: u32,
        imm: u64,
        bw: u32,
    ) {
        st.words[dst as usize] = O::apply(st.words[a as usize], aw, imm, bw);
    }

    #[inline(always)]
    pub(super) fn imm_bin_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        dst: u32,
        imm: u64,
        aw: u32,
        b: u32,
        bw: u32,
    ) {
        st.words[dst as usize] = O::apply(imm, aw, st.words[b as usize], bw);
    }

    #[inline(always)]
    pub(super) fn net_bin_imm_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        dst: u32,
        net: u32,
        aw: u32,
        imm: u64,
        bw: u32,
    ) {
        st.words[dst as usize] = O::apply(st.net_w[net as usize], aw, imm, bw);
    }

    #[inline(always)]
    pub(super) fn bin_net_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        dst: u32,
        a: u32,
        aw: u32,
        net: u32,
        bw: u32,
    ) {
        st.words[dst as usize] = O::apply(st.words[a as usize], aw, st.net_w[net as usize], bw);
    }

    #[inline(always)]
    pub(super) fn net_bin_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        dst: u32,
        net: u32,
        aw: u32,
        b: u32,
        bw: u32,
    ) {
        st.words[dst as usize] = O::apply(st.net_w[net as usize], aw, st.words[b as usize], bw);
    }

    #[inline(always)]
    pub(super) fn net_bin_net_w<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        dst: u32,
        neta: u32,
        aw: u32,
        netb: u32,
        bw: u32,
    ) {
        st.words[dst as usize] = O::apply(st.net_w[neta as usize], aw, st.net_w[netb as usize], bw);
    }

    #[inline(always)]
    pub(super) fn bin_store_net<O: FixedBinary>(
        wp: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        a: u32,
        aw: u32,
        b: u32,
        bw: u32,
        net: u32,
        mask: u64,
    ) {
        let v = O::apply(st.words[a as usize], aw, st.words[b as usize], bw) & mask;
        store_word_net(wp, st, net, v);
    }

    #[inline(always)]
    pub(super) fn bin_imm_store_net<O: FixedBinary>(
        wp: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        a: u32,
        aw: u32,
        imm: u64,
        bw: u32,
        net: u32,
        mask: u64,
    ) {
        let v = O::apply(st.words[a as usize], aw, imm, bw) & mask;
        store_word_net(wp, st, net, v);
    }

    #[inline(always)]
    pub(super) fn net_bin_imm_store_net<O: FixedBinary>(
        wp: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        src: u32,
        aw: u32,
        imm: u64,
        bw: u32,
        net: u32,
        mask: u64,
    ) {
        let v = O::apply(st.net_w[src as usize], aw, imm, bw) & mask;
        store_word_net(wp, st, net, v);
    }

    #[inline(always)]
    pub(super) fn net_bin_net_store_net<O: FixedBinary>(
        wp: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        neta: u32,
        aw: u32,
        netb: u32,
        bw: u32,
        net: u32,
        mask: u64,
    ) {
        let v = O::apply(st.net_w[neta as usize], aw, st.net_w[netb as usize], bw) & mask;
        store_word_net(wp, st, net, v);
    }

    #[inline(always)]
    pub(super) fn un_w<O: FixedUnary>(
        _: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        dst: u32,
        a: u32,
        w: u32,
    ) {
        st.words[dst as usize] = O::apply(st.words[a as usize], w);
    }

    #[inline(always)]
    pub(super) fn jz_bin<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        pc: &mut usize,
        a: u32,
        aw: u32,
        b: u32,
        bw: u32,
        t: u32,
    ) {
        if O::apply(st.words[a as usize], aw, st.words[b as usize], bw) == 0 {
            *pc = t as usize;
        }
    }

    #[inline(always)]
    pub(super) fn jnz_bin<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        pc: &mut usize,
        a: u32,
        aw: u32,
        b: u32,
        bw: u32,
        t: u32,
    ) {
        if O::apply(st.words[a as usize], aw, st.words[b as usize], bw) != 0 {
            *pc = t as usize;
        }
    }

    #[inline(always)]
    pub(super) fn jz_bin_imm<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        pc: &mut usize,
        a: u32,
        aw: u32,
        imm: u64,
        bw: u32,
        t: u32,
    ) {
        if O::apply(st.words[a as usize], aw, imm, bw) == 0 {
            *pc = t as usize;
        }
    }

    #[inline(always)]
    pub(super) fn jnz_bin_imm<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        pc: &mut usize,
        a: u32,
        aw: u32,
        imm: u64,
        bw: u32,
        t: u32,
    ) {
        if O::apply(st.words[a as usize], aw, imm, bw) != 0 {
            *pc = t as usize;
        }
    }

    #[inline(always)]
    pub(super) fn jz_net_bin_imm<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        pc: &mut usize,
        net: u32,
        aw: u32,
        imm: u64,
        bw: u32,
        t: u32,
    ) {
        if O::apply(st.net_w[net as usize], aw, imm, bw) == 0 {
            *pc = t as usize;
        }
    }

    #[inline(always)]
    pub(super) fn jnz_net_bin_imm<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        pc: &mut usize,
        net: u32,
        aw: u32,
        imm: u64,
        bw: u32,
        t: u32,
    ) {
        if O::apply(st.net_w[net as usize], aw, imm, bw) != 0 {
            *pc = t as usize;
        }
    }

    #[inline(always)]
    pub(super) fn nb_net_bin_imm<O: FixedBinary>(
        _: &WordProgs,
        st: &mut WState,
        _: &mut usize,
        site: u32,
        net: u32,
        aw: u32,
        imm: u64,
        w: u32,
        bw: u32,
    ) {
        let v = O::apply(st.net_w[net as usize], aw, imm, bw);
        st.sc.nb.push((site, Val::Small(v, w)));
    }
}
use kernel::*;

/// Runs `f` out of line. The executor's arms that touch `Val`s or the
/// environment go through it: inline, their clones, drops and calls claim
/// the registers the dispatch loop keeps `pc` and the word ops' operands in
/// (`docs/ARCHITECTURE.md`, "One dispatch per word op").
#[inline(never)]
fn outline<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Runs one register-allocated program to completion.
pub(crate) fn wexec(
    prog: &CompiledProgram,
    wp: &WordProgs,
    st: &mut WState,
    code: &[XOp],
    env: &mut dyn SystemEnv,
) -> VlogResult<()> {
    let mut pc = 0usize;
    while let Some(op) = code.get(pc) {
        pc += 1;
        word_ops!(word_dispatch! {
            (wp, st, pc) op => {
                XOp::MovW { dst, src } => st.words[*dst as usize] = st.words[*src as usize],
                XOp::MovB { dst, src } => outline(|| {
                    if dst != src {
                        let v = st.bigs[*src as usize].clone();
                        st.bigs[*dst as usize] = v;
                    }
                }),
                XOp::ConstW { dst, imm } => st.words[*dst as usize] = *imm,
                XOp::ConstB { dst, pool } => outline(|| {
                    st.bigs[*dst as usize] = prog.consts[*pool as usize].clone()
                }),
                XOp::WordToBig { dst, src, w } => outline(|| {
                    st.bigs[*dst as usize] = Val::Small(st.words[*src as usize], *w)
                }),
                XOp::BigToWord { dst, src } => outline(|| {
                    st.words[*dst as usize] = st.bigs[*src as usize].to_u64()
                }),
                XOp::TruthB { dst, src } => outline(|| {
                    st.words[*dst as usize] = st.bigs[*src as usize].to_bool() as u64
                }),
                XOp::SelW { dst, c, a, b } => {
                    let pick = if st.words[*c as usize] != 0 { a } else { b };
                    st.words[*dst as usize] = st.words[*pick as usize];
                }
                XOp::SelImmW { dst, c, a, b } => {
                    st.words[*dst as usize] = if st.words[*c as usize] != 0 { *a } else { *b };
                }
                XOp::SelB { dst, c, a, b } => outline(|| {
                    let pick = if st.words[*c as usize] != 0 { a } else { b };
                    st.bigs[*dst as usize] = st.bigs[*pick as usize].clone();
                }),
                XOp::LoadNetW { dst, net } => st.words[*dst as usize] = st.net_w[*net as usize],
                XOp::LoadNetB { dst, net } => outline(|| {
                    let v = st.net_b[*net as usize].clone();
                    st.bigs[*dst as usize] = v;
                }),
                XOp::StoreNetW { net, src, mask } => {
                    store_word_net(wp, st, *net, st.words[*src as usize] & mask)
                }
                XOp::StoreNetImm { net, imm } => store_word_net(wp, st, *net, *imm),
                XOp::StoreNetB { net, src } => outline(|| {
                    let width = prog.nets[*net as usize].width as usize;
                    let new = st.bigs[*src as usize].resize(width);
                    if st.net_b[*net as usize] != new {
                        st.net_b[*net as usize] = new;
                        mark_net(wp, st, *net);
                    }
                }),
                XOp::LoadMem0W { dst, mem } => {
                    st.words[*dst as usize] = st.mems[*mem as usize].w[0]
                }
                XOp::LoadMem0B { dst, mem } => outline(|| {
                    let v = st.mems[*mem as usize].b[0].clone();
                    st.bigs[*dst as usize] = v;
                }),
                XOp::LoadMemW { dst, mem, idx } => {
                    let i = st.words[*idx as usize] as usize;
                    st.words[*dst as usize] = word::elem(&st.mems[*mem as usize].w, i);
                }
                XOp::LoadMemB { dst, mem, idx } => outline(|| {
                    let m = &st.mems[*mem as usize];
                    let i = st.words[*idx as usize] as usize;
                    let v =
                        m.b.get(i)
                            .cloned()
                            .unwrap_or_else(|| Val::zero(m.width as usize));
                    st.bigs[*dst as usize] = v;
                }),
                XOp::LoadMemConstW { dst, mem, elem } => {
                    st.words[*dst as usize] = word::elem(&st.mems[*mem as usize].w, *elem as usize);
                }
                XOp::LoadMemConstB { dst, mem, elem } => outline(|| {
                    let m = &st.mems[*mem as usize];
                    let v =
                        m.b.get(*elem as usize)
                            .cloned()
                            .unwrap_or_else(|| Val::zero(m.width as usize));
                    st.bigs[*dst as usize] = v;
                }),
                XOp::StoreMemW {
                    mem,
                    idx,
                    src,
                    mask,
                } => {
                    let i = st.words[*idx as usize] as usize;
                    let new = st.words[*src as usize] & mask;
                    let m = &mut st.mems[*mem as usize];
                    let changed = i < m.w.len() && m.w[i] != new;
                    if changed {
                        m.w[i] = new;
                        mark_mem(wp, st, *mem);
                    }
                }
                XOp::StoreMemB { mem, idx, src } => outline(|| {
                    let i = st.words[*idx as usize] as usize;
                    let width = st.mems[*mem as usize].width as usize;
                    if i < st.mems[*mem as usize].b.len() {
                        let new = st.bigs[*src as usize].resize(width);
                        let m = &mut st.mems[*mem as usize];
                        let changed = m.b[i] != new;
                        if changed {
                            m.b[i] = new;
                            mark_mem(wp, st, *mem);
                        }
                    }
                }),
                XOp::StoreMemConstW {
                    mem,
                    elem,
                    src,
                    mask,
                } => {
                    let i = *elem as usize;
                    let new = st.words[*src as usize] & mask;
                    let m = &mut st.mems[*mem as usize];
                    let changed = i < m.w.len() && m.w[i] != new;
                    if changed {
                        m.w[i] = new;
                        mark_mem(wp, st, *mem);
                    }
                }
                XOp::StoreMemConstImm { mem, elem, imm } => {
                    let i = *elem as usize;
                    let m = &mut st.mems[*mem as usize];
                    let changed = i < m.w.len() && m.w[i] != *imm;
                    if changed {
                        m.w[i] = *imm;
                        mark_mem(wp, st, *mem);
                    }
                }
                XOp::StoreMemConstB { mem, elem, src } => outline(|| {
                    let i = *elem as usize;
                    let width = st.mems[*mem as usize].width as usize;
                    if i < st.mems[*mem as usize].b.len() {
                        let new = st.bigs[*src as usize].resize(width);
                        let m = &mut st.mems[*mem as usize];
                        let changed = m.b[i] != new;
                        if changed {
                            m.b[i] = new;
                            mark_mem(wp, st, *mem);
                        }
                    }
                }),
                XOp::StoreBitW { net, idx, bit } => {
                    let i = st.words[*idx as usize] as usize;
                    let width = prog.nets[*net as usize].width as usize;
                    let v = st.net_w[*net as usize];
                    store_word_net(wp, st, *net, word::set_bit(v, width, i, st.words[*bit as usize]));
                }
                XOp::StoreBitConstW { net, idx, bit } => {
                    let width = prog.nets[*net as usize].width as usize;
                    let v = st.net_w[*net as usize];
                    let new = word::set_bit(v, width, *idx as usize, st.words[*bit as usize]);
                    store_word_net(wp, st, *net, new);
                }
                XOp::StoreBitB { net, idx, bit } => outline(|| {
                    let i = st.words[*idx as usize] as usize;
                    let width = prog.nets[*net as usize].width as usize;
                    if i < width {
                        let new_bit = st.words[*bit as usize] & 1 == 1;
                        let changed = match &mut st.net_b[*net as usize] {
                            Val::Small(v, _) => {
                                let old = (*v >> i) & 1 == 1;
                                if new_bit {
                                    *v |= 1 << i;
                                } else {
                                    *v &= !(1 << i);
                                }
                                old != new_bit
                            }
                            Val::Big(b) => {
                                let old = b.bit(i);
                                b.set_bit(i, new_bit);
                                old != new_bit
                            }
                        };
                        if changed {
                            mark_net(wp, st, *net);
                        }
                    }
                }),
                XOp::StoreSlice { net, hi, lo, src } => outline(|| {
                    let lo_v = st.words[*lo as usize] as usize;
                    let hi_v = st.words[*hi as usize] as usize;
                    let (hi_v, lo_v) = (hi_v.max(lo_v), hi_v.min(lo_v));
                    let width = prog.nets[*net as usize].width;
                    let value = &st.bigs[*src as usize];
                    if width <= 64 {
                        let old = st.net_w[*net as usize];
                        let new = word::set_slice(old, width as usize, hi_v, lo_v, value.to_u64());
                        store_word_net(wp, st, *net, new);
                    } else {
                        let old = st.net_b[*net as usize].clone();
                        let mut b = old.to_bits();
                        b.set_slice(hi_v, lo_v, &value.to_bits());
                        let new = Val::from_bits(&b);
                        if new != old {
                            st.net_b[*net as usize] = new;
                            mark_net(wp, st, *net);
                        }
                    }
                }),
                XOp::LoadTime { dst } => st.words[*dst as usize] = st.sc.time,
                XOp::LoadValueReg { dst } => {
                    outline(|| st.bigs[*dst as usize] = st.sc.value_reg.clone())
                }
                XOp::SliceW { dst, a, hi, lo } => {
                    st.words[*dst as usize] = word::slice(st.words[*a as usize], *hi, *lo);
                }
                XOp::NetSliceW { dst, net, hi, lo } => {
                    st.words[*dst as usize] = word::slice(st.net_w[*net as usize], *hi, *lo);
                }
                XOp::ConcatW { dst, a, b, bw } => {
                    st.words[*dst as usize] = (st.words[*a as usize] << bw) | st.words[*b as usize];
                }
                XOp::ResizeW { dst, a, mask } => {
                    st.words[*dst as usize] = st.words[*a as usize] & mask
                }
                XOp::BitSelW { dst, a, aw, idx } => {
                    let i = st.words[*idx as usize] as usize;
                    st.words[*dst as usize] = word::bit(st.words[*a as usize], *aw, i) as u64;
                }
                XOp::BitSelNetW { dst, net, aw, idx } => {
                    let i = st.words[*idx as usize] as usize;
                    st.words[*dst as usize] = word::bit(st.net_w[*net as usize], *aw, i) as u64;
                }
                XOp::NetBitConstW { dst, net, aw, idx } => {
                    let v = st.net_w[*net as usize];
                    st.words[*dst as usize] = word::bit(v, *aw, *idx as usize) as u64;
                }
                XOp::BinB { op, dst, a, b } => outline(|| {
                    let r = crate::ir::binary(*op, &st.bigs[*a as usize], &st.bigs[*b as usize]);
                    st.bigs[*dst as usize] = r;
                }),
                XOp::UnB { op, dst, a } => outline(|| {
                    let r = crate::ir::unary(*op, &st.bigs[*a as usize]);
                    st.bigs[*dst as usize] = r;
                }),
                XOp::SliceConstB { dst, a, hi, lo } => outline(|| {
                    let r = crate::ir::slice(&st.bigs[*a as usize], *hi as usize, *lo as usize);
                    st.bigs[*dst as usize] = r;
                }),
                XOp::SliceDynB { dst, a, hi, lo } => outline(|| {
                    let hi_v = st.words[*hi as usize] as usize;
                    let lo_v = st.words[*lo as usize] as usize;
                    let r = crate::ir::slice(&st.bigs[*a as usize], hi_v.max(lo_v), hi_v.min(lo_v));
                    st.bigs[*dst as usize] = r;
                }),
                XOp::ConcatB { dst, a, b } => outline(|| {
                    let r = crate::ir::concat(&st.bigs[*a as usize], &st.bigs[*b as usize]);
                    st.bigs[*dst as usize] = r;
                }),
                XOp::ReplicateB { dst, n, v } => outline(|| {
                    let count = st.words[*n as usize] as usize;
                    let r = Val::from_bits(&st.bigs[*v as usize].to_bits().replicate(count));
                    st.bigs[*dst as usize] = r;
                }),
                XOp::ResizeB { dst, a, w } => outline(|| {
                    let r = st.bigs[*a as usize].resize(*w as usize);
                    st.bigs[*dst as usize] = r;
                }),
                XOp::BitSelB { dst, a, idx } => {
                    let i = st.words[*idx as usize] as usize;
                    st.words[*dst as usize] = st.bigs[*a as usize].bit(i) as u64;
                }
                XOp::Jump(t) => {
                    pc = *t as usize;
                }
                XOp::JumpIfZeroW { c, t } => {
                    if st.words[*c as usize] == 0 {
                        pc = *t as usize;
                    }
                }
                XOp::JumpIfNonZeroW { c, t } => {
                    if st.words[*c as usize] != 0 {
                        pc = *t as usize;
                    }
                }
                XOp::JzNetBit { net, aw, idx, t } => {
                    if !word::bit(st.net_w[*net as usize], *aw, *idx as usize) {
                        pc = *t as usize;
                    }
                }
                XOp::JnzNetBit { net, aw, idx, t } => {
                    if word::bit(st.net_w[*net as usize], *aw, *idx as usize) {
                        pc = *t as usize;
                    }
                }
                XOp::JzNet { net, t } => {
                    if st.net_w[*net as usize] == 0 {
                        pc = *t as usize;
                    }
                }
                XOp::JnzNet { net, t } => {
                    if st.net_w[*net as usize] != 0 {
                        pc = *t as usize;
                    }
                }
                XOp::JumpIfNotFinished(t) => {
                    if st.sc.finished.is_none() {
                        pc = *t as usize;
                    }
                }
                XOp::CheckFinished(t) => {
                    if st.sc.finished.is_some() {
                        pc = *t as usize;
                    }
                }
                XOp::LoopInit(slot) => st.sc.loops[*slot as usize] = 0,
                XOp::LoopCheck(slot) => {
                    let c = &mut st.sc.loops[*slot as usize];
                    *c += 1;
                    if *c > MAX_LOOP_ITERS {
                        return Err(VlogError::Elaborate(
                            "for loop exceeded iteration cap".into(),
                        ));
                    }
                }
                XOp::RepeatInit { src, slot } => {
                    st.sc.loops[*slot as usize] = st.words[*src as usize].min(MAX_LOOP_ITERS);
                }
                XOp::RepeatTest { slot, end } => {
                    let c = &mut st.sc.loops[*slot as usize];
                    if *c == 0 {
                        pc = *end as usize;
                    } else {
                        *c -= 1;
                    }
                }
                XOp::NbW { site, src, w } => {
                    st.sc
                        .nb
                        .push((*site, Val::Small(st.words[*src as usize], *w)));
                }
                XOp::NbImm { site, imm, w } => {
                    st.sc.nb.push((*site, Val::Small(*imm, *w)));
                }
                XOp::NbNet { site, net, w } => {
                    st.sc
                        .nb
                        .push((*site, Val::Small(st.net_w[*net as usize], *w)));
                }
                XOp::NbB { site, src } => outline(|| {
                    let v = st.bigs[*src as usize].clone();
                    st.sc.nb.push((*site, v));
                }),
                XOp::Fopen { dst, s } => outline(|| {
                    st.words[*dst as usize] = env.fopen(&prog.strings[*s as usize]) as u64;
                }),
                XOp::Feof { dst, fd } => outline(|| {
                    st.words[*dst as usize] = env.feof(st.words[*fd as usize] as u32) as u64;
                }),
                XOp::FeofNet { dst, net } => outline(|| {
                    st.words[*dst as usize] = env.feof(st.net_w[*net as usize] as u32) as u64;
                }),
                XOp::Random { dst } => outline(|| st.words[*dst as usize] = env.random() as u64),
                XOp::Fread { fd, width, skip } => {
                    let fd = st.words[*fd as usize] as u32;
                    match env.fread(fd, *width as usize) {
                        Some(v) => st.sc.value_reg = Val::from_bits(&v),
                        None => {
                            pc = *skip as usize;
                        }
                    }
                }
                XOp::FreadNet { net, width, skip } => {
                    let fd = st.net_w[*net as usize] as u32;
                    match env.fread(fd, *width as usize) {
                        Some(v) => st.sc.value_reg = Val::from_bits(&v),
                        None => {
                            pc = *skip as usize;
                        }
                    }
                }
                XOp::Fclose { fd } => outline(|| env.fclose(st.words[*fd as usize] as u32)),
                XOp::PrintStr(s) => {
                    outline(|| st.sc.print_buf.push_str(&prog.strings[*s as usize]))
                }
                XOp::PrintValW { src } => outline(|| {
                    use std::fmt::Write;
                    let v = st.words[*src as usize];
                    let _ = write!(st.sc.print_buf, "{}", v);
                }),
                XOp::PrintValB { src } => outline(|| {
                    let s = st.bigs[*src as usize].to_dec_string();
                    st.sc.print_buf.push_str(&s);
                }),
                XOp::PrintFlush { newline } => outline(|| {
                    if *newline {
                        st.sc.print_buf.push('\n');
                    }
                    let text = std::mem::take(&mut st.sc.print_buf);
                    env.print(&text);
                }),
                XOp::Finish { src } => outline(|| {
                    let code_val = st.words[*src as usize] as u32;
                    st.sc.finished = Some(code_val);
                    st.sc
                        .effects
                        .push(synergy_interp::TaskEffect::Finish(code_val));
                }),
                XOp::Effect(i) => {
                    outline(|| st.sc.effects.push(prog.effects[*i as usize].clone()))
                }
            }
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledSim;
    use synergy_interp::BufferEnv;

    #[test]
    fn clones_share_code_and_diverge_in_state() {
        let design = synergy_vlog::compile(
            r#"module Counter(input wire clock, output wire [31:0] out);
                   reg [31:0] count = 0;
                   always @(posedge clock) count <= count + 1;
                   assign out = count;
               endmodule"#,
            "Counter",
        )
        .unwrap();
        let mut a = CompiledSim::new(crate::compile(&design).unwrap());
        let mut b = a.clone();
        assert!(std::ptr::eq(a.program(), b.program()), "one program");
        assert!(
            Arc::ptr_eq(&a.machine().wp, &b.machine().wp),
            "one translation"
        );

        let mut env = BufferEnv::new();
        for _ in 0..5 {
            b.tick("clock", &mut env).unwrap();
        }
        assert_eq!(a.get_bits("count").unwrap().to_u64(), 0);
        assert_eq!(b.get_bits("count").unwrap().to_u64(), 5);
        for _ in 0..2 {
            a.tick("clock", &mut env).unwrap();
        }
        assert_eq!(a.get_bits("out").unwrap().to_u64(), 2);
        assert_eq!(b.get_bits("out").unwrap().to_u64(), 5);
    }

    /// Every (shape, operator) kernel the table lists computes what
    /// `word_binary`/`word_unary` compute with the operator read at run
    /// time: at widths around the byte and word boundaries, with mismatched
    /// operand widths, on zero, one, all-ones and the sign bit, with shift
    /// amounts at and past the width and zero divisors. The Table-1 designs
    /// and the fuzz window do not reach every pair (`AShr` or `Rem` in a
    /// fused store or branch), so this is where a kernel that drifted from
    /// the oracle shows. Each kernel also prints back as the `WOp` it came
    /// from.
    #[test]
    fn every_kernel_agrees_with_the_runtime_operator() {
        use crate::ir::{word_binary, word_unary};
        use synergy_vlog::ast::{BinaryOp, UnaryOp};

        const WIDTHS: [u32; 8] = [1, 7, 8, 31, 32, 33, 63, 64];
        // Registers: a, b, then the select arms, the result, a marker.
        const A: u32 = 0;
        const B: u32 = 1;
        const T: u32 = 2;
        const F: u32 = 3;
        const DST: u32 = 4;
        const MARK: u32 = 5;
        // Select arms and a store mask that differ in every nibble.
        const TV: u64 = 0xaaaa_aaaa_aaaa_aaaa;
        const FV: u64 = 0x5555_5555_5555_5555;
        const STORE_MASK: u64 = 0x0f0f_0f0f_0f0f_0f0f;
        let design = synergy_vlog::compile(
            "module M(input wire clock);
                 reg [63:0] n0 = 0; reg [63:0] n1 = 0; reg [63:0] n2 = 0;
                 always @(posedge clock) begin n0 <= n1; n1 <= n2; n2 <= n0; end
             endmodule",
            "M",
        )
        .unwrap();
        let prog = crate::compile(&design).unwrap();
        let net = |name: &str| match prog.slot(name) {
            Some(SlotRef::Net(i)) => i,
            _ => panic!("no net {}", name),
        };
        let (na, nb, nd) = (net("n0"), net("n1"), net("n2"));
        let machine = WordMachine::build(&prog).unwrap();
        let wp = machine.wp;
        let mut st = machine.st;
        st.words = vec![0; 8];

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
        // Each binary shape with its operands in place: `a` in register A
        // or net n0, `b` in register B, net n1 or the immediate.
        let bin_shapes = |op: BinaryOp, aw: u32, bw: u32, av: u64, bv: u64| {
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
                    t: TV,
                    f: FV,
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
                    imm: bv,
                    bw,
                },
                WOp::ImmBinW {
                    op,
                    dst: DST,
                    imm: av,
                    aw,
                    b: B,
                    bw,
                },
                WOp::NetBinImmW {
                    op,
                    dst: DST,
                    net: na,
                    aw,
                    imm: bv,
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
                    mask: STORE_MASK,
                },
                WOp::BinImmStoreNet {
                    op,
                    a: A,
                    aw,
                    imm: bv,
                    bw,
                    net: nd,
                    mask: STORE_MASK,
                },
                WOp::NetBinImmStoreNet {
                    op,
                    src: na,
                    aw,
                    imm: bv,
                    bw,
                    net: nd,
                    mask: STORE_MASK,
                },
                WOp::NetBinNetStoreNet {
                    op,
                    neta: na,
                    aw,
                    netb: nb,
                    bw,
                    net: nd,
                    mask: STORE_MASK,
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
                    imm: bv,
                    bw,
                    t: 2,
                },
                WOp::JnzBinImm {
                    op,
                    a: A,
                    aw,
                    imm: bv,
                    bw,
                    t: 2,
                },
                WOp::JzNetBinImm {
                    op,
                    net: na,
                    aw,
                    imm: bv,
                    bw,
                    t: 2,
                },
                WOp::JnzNetBinImm {
                    op,
                    net: na,
                    aw,
                    imm: bv,
                    bw,
                    t: 2,
                },
                WOp::NbNetBinImm {
                    site: 7,
                    op,
                    net: na,
                    aw,
                    imm: bv,
                    w: word_binary(op, av, aw, bv, bw).1,
                    bw,
                },
            ]
        };

        // The pairs that lowered, named as the table names their variants.
        let mut lowered = std::collections::BTreeSet::new();
        // Runs `w` alone: `None` when the table has no kernel for it, else
        // whether it jumped (past the marker store).
        let mut run = |w: &WOp, st: &mut WState| {
            let x = XOp::try_from(w.clone()).ok()?;
            assert_eq!(&WOp::from(x), w, "prints back");
            let text = format!("{:?}", w);
            let shape = text.split(' ').next().unwrap();
            let op = text
                .split("op: ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap();
            lowered.insert(format!("{}{}", shape, op));
            st.words[MARK as usize] = 0;
            st.sc.nb.clear();
            let marker = XOp::ConstW { dst: MARK, imm: 1 };
            wexec(&prog, &wp, st, &[x, marker], &mut NoopEnv).unwrap();
            Some(st.words[MARK as usize] == 0)
        };
        for &aw in &WIDTHS {
            for &bw in &WIDTHS {
                let a_vals = [0, 1, mask(aw), 1 << (aw - 1)];
                let b_vals = [0, 1, mask(bw), 1 << (bw - 1), aw as u64, aw as u64 + 1, 64]
                    .map(|v| v & mask(bw));
                for op in bin_ops {
                    for av in a_vals {
                        for bv in b_vals {
                            let want = word_binary(op, av, aw, bv, bw).0;
                            for w in bin_shapes(op, aw, bw, av, bv) {
                                st.words[..4].copy_from_slice(&[av, bv, TV, FV]);
                                st.net_w[na as usize] = av;
                                st.net_w[nb as usize] = bv;
                                st.net_w[nd as usize] = !want;
                                let Some(jumped) = run(&w, &mut st) else {
                                    continue;
                                };
                                let words = st.words[DST as usize];
                                let ctx = format!("{:?} on ({av:#x}, {aw}) ({bv:#x}, {bw})", w);
                                match w {
                                    WOp::CmpSelW { .. } | WOp::CmpSelImmW { .. } => {
                                        let pick = if want != 0 { TV } else { FV };
                                        assert_eq!(words, pick, "{}", ctx);
                                    }
                                    WOp::BinStoreNet { .. }
                                    | WOp::BinImmStoreNet { .. }
                                    | WOp::NetBinImmStoreNet { .. }
                                    | WOp::NetBinNetStoreNet { .. } => {
                                        let stored = st.net_w[nd as usize];
                                        assert_eq!(stored, want & STORE_MASK, "{}", ctx);
                                    }
                                    WOp::JzBin { .. }
                                    | WOp::JzBinImm { .. }
                                    | WOp::JzNetBinImm { .. } => {
                                        assert_eq!(jumped, want == 0, "{}", ctx)
                                    }
                                    WOp::JnzBin { .. }
                                    | WOp::JnzBinImm { .. }
                                    | WOp::JnzNetBinImm { .. } => {
                                        assert_eq!(jumped, want != 0, "{}", ctx)
                                    }
                                    WOp::NbNetBinImm { w, .. } => {
                                        assert_eq!(
                                            st.sc.nb,
                                            vec![(7, Val::Small(want, w))],
                                            "{}",
                                            ctx
                                        )
                                    }
                                    _ => assert_eq!(words, want, "{}", ctx),
                                }
                            }
                        }
                    }
                }
            }
        }
        let un_ops = [
            UnaryOp::Not,
            UnaryOp::LogicalNot,
            UnaryOp::Neg,
            UnaryOp::Plus,
            UnaryOp::ReduceAnd,
            UnaryOp::ReduceOr,
            UnaryOp::ReduceXor,
        ];
        for &w in &WIDTHS {
            for op in un_ops {
                for v in [0, 1, mask(w), 1 << (w - 1)] {
                    st.words[A as usize] = v;
                    let un = WOp::UnW {
                        op,
                        dst: DST,
                        a: A,
                        w,
                    };
                    run(&un, &mut st).expect("every unary operator has a kernel");
                    let want = word_unary(op, v, w).0;
                    assert_eq!(st.words[DST as usize], want, "{:?} on ({v:#x}, {w})", un);
                }
            }
        }
        // Every variant of the table was reached, and nothing else lowers.
        let table = crate::wop::KERNELS.iter().map(|k| k.to_string()).collect();
        assert_eq!(lowered, table);
    }
}
