//! Constant and copy propagation.
//!
//! Netlist phase: a combinational driver group whose entire program is
//! `[PushConst k, StoreNet n]` makes `n` a constant net, and
//! `[PushNet m, StoreNet n]` (same width) makes it a copy. Reads of such
//! nets *in other combinational nodes* are replaced by the constant or the
//! source net. Levelization guarantees a reader at a higher level sees the
//! substituted value in the same settle drain, so the rewrite is exact —
//! including after an external `set()` of the net, which re-wakes its
//! driver and re-imposes the value either way. Procedural programs are
//! deliberately not substituted: before the first settle a net still holds
//! its declared init value, which an `initial` block could observe.
//!
//! Bytecode phase: constant subtrees in every program are folded through
//! the interpreter's own scalar routines ([`ir::binary`] and friends), and
//! branches on constants become unconditional.

use crate::analysis::{apply_edits, Edit, Targets};
use crate::relevel;
use synergy_codegen::ir::{self, Code, CompiledProgram, Op, Val};

/// Runs the pass; returns the number of substitutions and folds.
pub(crate) fn run(prog: &mut CompiledProgram) -> u64 {
    let mut consts = std::mem::take(&mut prog.consts);
    let mut rewrites = netlist_phase(prog, &mut consts);
    for node in &mut prog.comb {
        rewrites += fold_code(&mut node.code, &mut consts);
    }
    let mut always = std::mem::take(&mut prog.always);
    for a in &mut always {
        for (_, g) in &mut a.guards {
            rewrites += fold_code(g, &mut consts);
        }
        rewrites += fold_code(&mut a.body, &mut consts);
    }
    prog.always = always;
    let mut initials = std::mem::take(&mut prog.initials);
    for c in &mut initials {
        rewrites += fold_code(c, &mut consts);
    }
    prog.initials = initials;
    let mut nb = std::mem::take(&mut prog.nb_sites);
    for c in &mut nb {
        rewrites += fold_code(c, &mut consts);
    }
    prog.nb_sites = nb;
    prog.consts = consts;
    if rewrites > 0 {
        let _ = relevel::rebuild_tables(prog);
    }
    rewrites
}

/// Comb-to-comb constant/copy substitution.
fn netlist_phase(prog: &mut CompiledProgram, consts: &mut Vec<Val>) -> u64 {
    #[derive(Clone, Copy)]
    enum Driver {
        Const(u32),
        Copy(u32),
    }
    let mut kind: Vec<Option<Driver>> = vec![None; prog.nets.len()];
    for node in &prog.comb {
        if let [Op::PushConst(k), Op::StoreNet(n)] = node.code[..] {
            // The store resizes to the declared width; intern the resized
            // value so the substituted push has the width a net read has.
            let v = consts[k as usize].resize(prog.nets[n as usize].width as usize);
            kind[n as usize] = Some(Driver::Const(intern(consts, v)));
        } else if let [Op::PushNet(m), Op::StoreNet(n)] = node.code[..] {
            if m != n && prog.nets[m as usize].width == prog.nets[n as usize].width {
                kind[n as usize] = Some(Driver::Copy(m));
            }
        }
    }
    // Chase copy chains (bounded; a levelized netlist has no cycles).
    let resolve = |n: u32| -> Option<Driver> {
        let mut last = kind[n as usize]?;
        for _ in 0..prog.nets.len() {
            match last {
                Driver::Copy(m) => match kind[m as usize] {
                    Some(next) => last = next,
                    None => return Some(Driver::Copy(m)),
                },
                Driver::Const(_) => return Some(last),
            }
        }
        Some(last)
    };
    let mut rewrites = 0u64;
    for node in &mut prog.comb {
        for op in node.code.iter_mut() {
            if let Op::PushNet(n) = *op {
                match resolve(n) {
                    Some(Driver::Const(k)) => {
                        *op = Op::PushConst(k);
                        rewrites += 1;
                    }
                    Some(Driver::Copy(m)) if m != n => {
                        *op = Op::PushNet(m);
                        rewrites += 1;
                    }
                    _ => {}
                }
            }
        }
    }
    rewrites
}

/// Interns `v` in the constant pool, reusing an existing equal entry.
fn intern(consts: &mut Vec<Val>, v: Val) -> u32 {
    if let Some(i) = consts.iter().position(|c| *c == v) {
        return i as u32;
    }
    consts.push(v);
    (consts.len() - 1) as u32
}

/// Local constant folding over one program, iterated to a fixpoint.
fn fold_code(code: &mut Code, consts: &mut Vec<Val>) -> u64 {
    fn cval(code: &Code, consts: &[Val], pc: usize) -> Option<Val> {
        match code.get(pc) {
            Some(Op::PushConst(k)) => consts.get(*k as usize).cloned(),
            _ => None,
        }
    }
    let mut rewrites = 0u64;
    loop {
        // One sweep proposes every fold that does not overlap an earlier
        // one; a fold that feeds another is picked up by the next sweep.
        let targets = std::cell::OnceCell::new();
        let mut edits: Vec<Edit> = Vec::new();
        let mut pc = 0usize;
        while pc < code.len() {
            if let Some(a) = cval(code, consts, pc) {
                let folded: Option<(usize, Vec<Op>)> = match code.get(pc + 1) {
                    Some(Op::Unary(u)) => {
                        let v = ir::unary(*u, &a);
                        Some((2, vec![Op::PushConst(intern(consts, v))]))
                    }
                    Some(Op::Resize(w)) => {
                        let v = a.resize(*w as usize);
                        Some((2, vec![Op::PushConst(intern(consts, v))]))
                    }
                    Some(Op::SliceConst { hi, lo }) => {
                        let v = ir::slice(&a, *hi as usize, *lo as usize);
                        Some((2, vec![Op::PushConst(intern(consts, v))]))
                    }
                    Some(Op::JumpIfZero(t)) => {
                        let t = *t;
                        if a.to_bool() {
                            Some((2, Vec::new()))
                        } else {
                            Some((2, vec![Op::Jump(t)]))
                        }
                    }
                    Some(Op::JumpIfNonZero(t)) => {
                        let t = *t;
                        if a.to_bool() {
                            Some((2, vec![Op::Jump(t)]))
                        } else {
                            Some((2, Vec::new()))
                        }
                    }
                    Some(Op::PushConst(_)) => {
                        let b = cval(code, consts, pc + 1).unwrap();
                        match code.get(pc + 2) {
                            Some(Op::Binary(op)) => {
                                let v = ir::binary(*op, &a, &b);
                                Some((3, vec![Op::PushConst(intern(consts, v))]))
                            }
                            Some(Op::Concat2) => {
                                let v = ir::concat(&a, &b);
                                Some((3, vec![Op::PushConst(intern(consts, v))]))
                            }
                            _ => None,
                        }
                    }
                    _ => None,
                };
                if let Some((len, repl)) = folded {
                    let targets = targets.get_or_init(|| Targets::of(code));
                    if targets.entering(pc, pc + len).next().is_none() {
                        edits.push(Edit {
                            start: pc,
                            end: pc + len,
                            repl,
                        });
                        pc += len;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        let applied = apply_edits(code, edits);
        rewrites += applied;
        if applied == 0 {
            return rewrites;
        }
    }
}
