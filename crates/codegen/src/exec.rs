//! The stack machine: the differential oracle for the regalloc translation.
//!
//! **One job:** execute a [`CompiledProgram`]'s stack bytecode *as lowered* —
//! an operand stack of tagged [`Val`]s, one `match` arm per [`Op`] — under
//! the shared scheduler in [`crate::sim`], so that
//! [`StackSim`](crate::StackSim) ⇄ [`CompiledSim`](crate::CompiledSim)
//! lockstep checks the word machine's translation (width inference, register
//! allocation, fusion, inline fast paths) against the bytecode it came from.
//!
//! **Key design decision:** no fast paths at all. Every node runs through
//! `exec`, every guard is re-evaluated on every sampling pass, every value
//! carries its width at run time. That makes it 2–3× slower than the word
//! machine and the right thing to compare it against; it is reachable from
//! tests, the fuzzer and the benches, and from no runtime path.

use crate::ir::{binary, concat, slice, unary, CompiledProgram, Op, SlotRef, Val, MAX_LOOP_ITERS};
use crate::sim::{Machine, NoopEnv, Observed, Sched};
use std::borrow::Cow;
use synergy_interp::{SystemEnv, TaskEffect, Value};
use synergy_vlog::{Bits, VlogError, VlogResult};

/// One memory's contents.
#[derive(Debug, Clone)]
struct MemData {
    width: u32,
    elems: Vec<Val>,
}

/// The stack machine's execution state: tagged values for every net, memory
/// element and temporary, plus the operand stack.
#[derive(Debug, Clone)]
pub struct StackMachine {
    nets: Vec<Val>,
    mems: Vec<MemData>,
    temps: Vec<Val>,
    stack: Vec<Val>,
    sc: Sched,
}

fn store_net(prog: &CompiledProgram, st: &mut StackMachine, net: u32, value: Val) {
    let width = prog.nets[net as usize].width as usize;
    let new = value.resize(width);
    let slot = &mut st.nets[net as usize];
    if *slot != new {
        *slot = new;
        mark_net(prog, st, net);
    }
}

fn mark_net(prog: &CompiledProgram, st: &mut StackMachine, net: u32) {
    for &pos in &prog.net_deps[net as usize] {
        st.sc.mark_comb(pos);
    }
    // A write to a continuously driven net must also re-wake its driver so
    // the assigned value wins again, exactly as the interpreter's full
    // re-evaluation loop makes it win.
    if let Some(pos) = prog.net_driver[net as usize] {
        st.sc.mark_comb(pos);
    }
}

fn mark_mem(prog: &CompiledProgram, st: &mut StackMachine, mem: u32) {
    for &pos in &prog.mem_deps[mem as usize] {
        st.sc.mark_comb(pos);
    }
    // A write to a continuously driven memory re-wakes its element drivers,
    // exactly as `mark_net` re-wakes a driven net's driver.
    if let Some(pos) = prog.mem_driver[mem as usize] {
        st.sc.mark_comb(pos);
    }
}

/// Runs one bytecode program to completion.
fn exec(
    prog: &CompiledProgram,
    st: &mut StackMachine,
    code: &[Op],
    env: &mut dyn SystemEnv,
) -> VlogResult<()> {
    let mut pc = 0usize;
    while pc < code.len() {
        match &code[pc] {
            Op::PushConst(i) => st.stack.push(prog.consts[*i as usize].clone()),
            Op::PushNet(i) => st.stack.push(st.nets[*i as usize].clone()),
            Op::PushMemElem0(i) => st.stack.push(st.mems[*i as usize].elems[0].clone()),
            Op::PushTime => st.stack.push(Val::Small(st.sc.time, 64)),
            Op::PushValueReg => st.stack.push(st.sc.value_reg.clone()),
            Op::MemRead(i) => {
                let idx = st.stack.pop().unwrap().to_u64() as usize;
                let mem = &st.mems[*i as usize];
                let v = mem
                    .elems
                    .get(idx)
                    .cloned()
                    .unwrap_or_else(|| Val::zero(mem.width as usize));
                st.stack.push(v);
            }
            Op::MemReadConst { mem, elem } => {
                let mem = &st.mems[*mem as usize];
                let v = mem
                    .elems
                    .get(*elem as usize)
                    .cloned()
                    .unwrap_or_else(|| Val::zero(mem.width as usize));
                st.stack.push(v);
            }
            Op::BitSelect => {
                let base = st.stack.pop().unwrap();
                let idx = st.stack.pop().unwrap().to_u64() as usize;
                st.stack.push(Val::Small(base.bit(idx) as u64, 1));
            }
            Op::SliceConst { hi, lo } => {
                let base = st.stack.pop().unwrap();
                st.stack.push(slice(&base, *hi as usize, *lo as usize));
            }
            Op::SliceDyn => {
                let lo = st.stack.pop().unwrap().to_u64() as usize;
                let hi = st.stack.pop().unwrap().to_u64() as usize;
                let base = st.stack.pop().unwrap();
                st.stack.push(slice(&base, hi.max(lo), hi.min(lo)));
            }
            Op::Unary(op) => {
                let a = st.stack.pop().unwrap();
                st.stack.push(unary(*op, &a));
            }
            Op::Binary(op) => {
                let b = st.stack.pop().unwrap();
                let a = st.stack.pop().unwrap();
                st.stack.push(binary(*op, &a, &b));
            }
            Op::Concat2 => {
                let b = st.stack.pop().unwrap();
                let a = st.stack.pop().unwrap();
                st.stack.push(concat(&a, &b));
            }
            Op::ReplicateDyn => {
                let v = st.stack.pop().unwrap();
                let n = st.stack.pop().unwrap().to_u64() as usize;
                st.stack.push(Val::from_bits(&v.to_bits().replicate(n)));
            }
            Op::Resize(w) => {
                let v = st.stack.pop().unwrap();
                st.stack.push(v.resize(*w as usize));
            }
            Op::Select => {
                let b = st.stack.pop().unwrap();
                let a = st.stack.pop().unwrap();
                let c = st.stack.pop().unwrap();
                st.stack.push(if c.to_bool() { a } else { b });
            }
            Op::Jump(t) => {
                pc = *t as usize;
                continue;
            }
            Op::JumpIfZero(t) => {
                if !st.stack.pop().unwrap().to_bool() {
                    pc = *t as usize;
                    continue;
                }
            }
            Op::JumpIfNonZero(t) => {
                if st.stack.pop().unwrap().to_bool() {
                    pc = *t as usize;
                    continue;
                }
            }
            Op::JumpIfNotFinished(t) => {
                if st.sc.finished.is_none() {
                    pc = *t as usize;
                    continue;
                }
            }
            Op::CheckFinished(t) => {
                if st.sc.finished.is_some() {
                    pc = *t as usize;
                    continue;
                }
            }
            Op::StoreTemp(i) => st.temps[*i as usize] = st.stack.pop().unwrap(),
            Op::PushTemp(i) => st.stack.push(st.temps[*i as usize].clone()),
            Op::Pop => {
                st.stack.pop();
            }
            Op::StoreNet(i) => {
                let v = st.stack.pop().unwrap();
                store_net(prog, st, *i, v);
            }
            Op::StoreMem(i) => {
                let idx = st.stack.pop().unwrap().to_u64() as usize;
                let value = st.stack.pop().unwrap();
                let mem = &mut st.mems[*i as usize];
                if idx < mem.elems.len() {
                    let new = value.resize(mem.width as usize);
                    if mem.elems[idx] != new {
                        mem.elems[idx] = new;
                        mark_mem(prog, st, *i);
                    }
                }
            }
            Op::StoreMemConst { mem, elem } => {
                let value = st.stack.pop().unwrap();
                let idx = *elem as usize;
                let m = &mut st.mems[*mem as usize];
                if idx < m.elems.len() {
                    let new = value.resize(m.width as usize);
                    if m.elems[idx] != new {
                        m.elems[idx] = new;
                        mark_mem(prog, st, *mem);
                    }
                }
            }
            Op::StoreBit(i) => {
                let idx = st.stack.pop().unwrap().to_u64() as usize;
                let value = st.stack.pop().unwrap();
                let width = prog.nets[*i as usize].width as usize;
                if idx < width {
                    let new_bit = value.bit(0);
                    let slot = &mut st.nets[*i as usize];
                    let changed = match slot {
                        Val::Small(v, _) => {
                            let old = (*v >> idx) & 1 == 1;
                            if new_bit {
                                *v |= 1 << idx;
                            } else {
                                *v &= !(1 << idx);
                            }
                            old != new_bit
                        }
                        Val::Big(b) => {
                            let old = b.bit(idx);
                            b.set_bit(idx, new_bit);
                            old != new_bit
                        }
                    };
                    if changed {
                        mark_net(prog, st, *i);
                    }
                }
            }
            Op::StoreSliceDyn(i) => {
                let lo = st.stack.pop().unwrap().to_u64() as usize;
                let hi = st.stack.pop().unwrap().to_u64() as usize;
                let value = st.stack.pop().unwrap();
                let (hi, lo) = (hi.max(lo), hi.min(lo));
                let slot = &mut st.nets[*i as usize];
                let old = slot.clone();
                let mut b = slot.to_bits();
                b.set_slice(hi, lo, &value.to_bits());
                let new = Val::from_bits(&b);
                if new != old {
                    *slot = new;
                    mark_net(prog, st, *i);
                }
            }
            Op::NbSchedule(site) => {
                let v = st.stack.pop().unwrap();
                st.sc.nb.push((*site, v));
            }
            Op::LoopInit(slot) => st.sc.loops[*slot as usize] = 0,
            Op::LoopCheck(slot) => {
                let c = &mut st.sc.loops[*slot as usize];
                *c += 1;
                if *c > MAX_LOOP_ITERS {
                    return Err(VlogError::Elaborate(
                        "for loop exceeded iteration cap".into(),
                    ));
                }
            }
            Op::RepeatInit(slot) => {
                let n = st.stack.pop().unwrap().to_u64();
                st.sc.loops[*slot as usize] = n.min(MAX_LOOP_ITERS);
            }
            Op::RepeatTest { slot, end } => {
                let c = &mut st.sc.loops[*slot as usize];
                if *c == 0 {
                    pc = *end as usize;
                    continue;
                }
                *c -= 1;
            }
            Op::Fopen(s) => {
                let fd = env.fopen(&prog.strings[*s as usize]);
                st.stack.push(Val::Small(fd as u64, 32));
            }
            Op::Feof => {
                let fd = st.stack.pop().unwrap().to_u64() as u32;
                st.stack.push(Val::Small(env.feof(fd) as u64, 1));
            }
            Op::Random => st.stack.push(Val::Small(env.random() as u64, 32)),
            Op::Fread { width, skip } => {
                let fd = st.stack.pop().unwrap().to_u64() as u32;
                match env.fread(fd, *width as usize) {
                    Some(v) => st.sc.value_reg = Val::from_bits(&v),
                    None => {
                        pc = *skip as usize;
                        continue;
                    }
                }
            }
            Op::Fclose => {
                let fd = st.stack.pop().unwrap().to_u64() as u32;
                env.fclose(fd);
            }
            Op::PrintStr(s) => st.sc.print_buf.push_str(&prog.strings[*s as usize]),
            Op::PrintVal => {
                let v = st.stack.pop().unwrap();
                st.sc.print_buf.push_str(&v.to_dec_string());
            }
            Op::PrintFlush { newline } => {
                if *newline {
                    st.sc.print_buf.push('\n');
                }
                let text = std::mem::take(&mut st.sc.print_buf);
                env.print(&text);
            }
            Op::Finish => {
                let code_val = st.stack.pop().unwrap().to_u64() as u32;
                st.sc.finished = Some(code_val);
                st.sc.effects.push(TaskEffect::Finish(code_val));
            }
            Op::Effect(i) => st.sc.effects.push(prog.effects[*i as usize].clone()),
        }
        pc += 1;
    }
    Ok(())
}

impl Machine for StackMachine {
    const NAME: &'static str = "StackSim";

    fn build(prog: &CompiledProgram) -> Result<Self, String> {
        Ok(StackMachine {
            nets: prog
                .nets
                .iter()
                .map(|n| match &n.init {
                    Some(b) => Val::from_bits(b),
                    None => Val::zero(n.width as usize),
                })
                .collect(),
            mems: prog
                .mems
                .iter()
                .map(|m| MemData {
                    width: m.width,
                    elems: vec![Val::zero(m.width as usize); m.depth as usize],
                })
                .collect(),
            temps: vec![Val::zero(1); prog.n_temps as usize],
            stack: Vec::with_capacity(16),
            sc: Sched::new(prog),
        })
    }

    fn sched(&self) -> &Sched {
        &self.sc
    }

    fn sched_mut(&mut self) -> &mut Sched {
        &mut self.sc
    }

    fn run_comb(
        &mut self,
        prog: &CompiledProgram,
        pos: u32,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        exec(prog, self, &prog.comb[pos as usize].code, env)
    }

    fn run_body(
        &mut self,
        prog: &CompiledProgram,
        idx: u32,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        exec(prog, self, &prog.always[idx as usize].body, env)
    }

    fn run_initial(
        &mut self,
        prog: &CompiledProgram,
        idx: usize,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        exec(prog, self, &prog.initials[idx], env)
    }

    fn latch(
        &mut self,
        prog: &CompiledProgram,
        site: u32,
        value: Val,
        env: &mut dyn SystemEnv,
    ) -> VlogResult<()> {
        self.sc.value_reg = value;
        exec(prog, self, &prog.nb_sites[site as usize], env)
    }

    fn sample_guard(&mut self, prog: &CompiledProgram, idx: usize, eidx: usize) -> Observed<'_> {
        let code = &prog.always[idx].guards[eidx].1;
        Observed::B(Cow::Owned(match exec(prog, self, code, &mut NoopEnv) {
            Ok(()) => self.stack.pop().unwrap_or_else(|| Val::zero(1)),
            Err(_) => {
                self.stack.clear();
                Val::zero(1)
            }
        }))
    }

    fn sample_star(&self, _prog: &CompiledProgram, slot: SlotRef) -> Observed<'_> {
        Observed::B(Cow::Borrowed(match slot {
            SlotRef::Net(i) => &self.nets[i as usize],
            SlotRef::Mem(i) => &self.mems[i as usize].elems[0],
        }))
    }

    fn read(&self, _prog: &CompiledProgram, slot: SlotRef) -> Value {
        match slot {
            SlotRef::Net(i) => Value::Scalar(self.nets[i as usize].to_bits()),
            SlotRef::Mem(i) => Value::Memory(
                self.mems[i as usize]
                    .elems
                    .iter()
                    .map(Val::to_bits)
                    .collect(),
            ),
        }
    }

    fn write_net(&mut self, prog: &CompiledProgram, id: u32, value: &Bits) {
        let width = prog.nets[id as usize].width as usize;
        self.nets[id as usize] = Val::from_bits(value).resize(width);
        mark_net(prog, self, id);
    }

    fn net_word(&self, id: u32) -> u64 {
        self.nets[id as usize].to_u64()
    }

    fn read_elem(&self, mem: u32, idx: usize) -> Option<Bits> {
        self.mems[mem as usize].elems.get(idx).map(Val::to_bits)
    }

    fn write_elem(&mut self, prog: &CompiledProgram, mem: u32, idx: usize, value: &Bits) {
        let m = &mut self.mems[mem as usize];
        if let Some(elem) = m.elems.get_mut(idx) {
            *elem = Val::from_bits(value).resize(m.width as usize);
        }
        mark_mem(prog, self, mem);
    }

    fn load(&mut self, _prog: &CompiledProgram, slot: SlotRef, value: &Value) {
        match (slot, value) {
            (SlotRef::Net(i), Value::Scalar(b)) => self.nets[i as usize] = Val::from_bits(b),
            (SlotRef::Mem(i), Value::Memory(elems)) => {
                self.mems[i as usize].elems = elems.iter().map(Val::from_bits).collect();
            }
            _ => {}
        }
    }
}
