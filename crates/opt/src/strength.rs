//! Strength reduction: rewrites expensive ops with a constant right-hand
//! side into cheaper equivalents, and drops identity operations.
//!
//! * `x * 2^s` → `x << s`, `x / 2^s` → `x >> s` (values are unsigned bit
//!   vectors), `x % 2^s` → `x & (2^s - 1)`;
//! * `x + 0`, `x - 0`, `x | 0`, `x ^ 0`, `x << 0`, `x >> 0` → `x`
//!   (resized when the result width differs);
//! * `x * 0`, `x & 0` → `0` (the left operand is still evaluated and
//!   popped, so side effects are untouched);
//! * `Resize(w)` of a value already `w` bits wide → removed.
//!
//! Every rewrite is validated by computing the replacement's result width
//! with the interpreter's own scalar routines on zero values and requiring
//! it to equal the original result width — a width mismatch would change
//! downstream truncation, so such candidates are skipped rather than
//! risked.

use crate::analysis::{apply_edits, stack_effect, Edit};
use synergy_codegen::ir::{self, Code, CompiledProgram, Op, Val};
use synergy_vlog::ast::BinaryOp;

/// Runs the pass; returns the number of rewrites.
pub(crate) fn run(prog: &mut CompiledProgram) -> u64 {
    let net_w: Vec<u32> = prog.nets.iter().map(|n| n.width).collect();
    let mem_w: Vec<u32> = prog.mems.iter().map(|m| m.width).collect();
    let mut consts = std::mem::take(&mut prog.consts);
    let mut rewrites = 0u64;
    {
        let mut run_code = |code: &mut Code| {
            rewrites += reduce_code(code, &net_w, &mem_w, &mut consts);
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
    prog.consts = consts;
    if rewrites > 0 {
        let _ = crate::relevel::rebuild_tables(prog);
    }
    rewrites
}

/// Widths of the values each op leaves on the stack, walked forward.
/// `None` entries are unknown (block joins reset the whole stack).
fn reduce_code(code: &mut Code, net_w: &[u32], mem_w: &[u32], consts: &mut Vec<Val>) -> u64 {
    let mut rewrites = 0u64;
    loop {
        // One sweep proposes every candidate (they cannot overlap: each
        // starts where the previous one ended or later, and the widths a
        // replacement leaves are the widths the original left); a rewrite
        // that exposes another is picked up by the next sweep.
        let targets: std::collections::HashSet<usize> = code
            .iter()
            .filter_map(|op| crate::analysis::branch_target(op).map(|t| t as usize))
            .collect();
        let mut edits: Vec<Edit> = Vec::new();
        let mut widths: Vec<Option<u32>> = Vec::new();
        for pc in 0..code.len() {
            if targets.contains(&pc) {
                // Join point: stack contents depend on the path taken.
                widths.clear();
            }
            let op = &code[pc];
            if crate::analysis::branch_target(op).is_some() {
                // Control flow: stack contents at the join are unknown.
                widths.clear();
                continue;
            }
            // Candidate rewrites first; they consume the operand widths.
            if let Some((len, repl)) = candidate(code, pc, &widths, consts) {
                // No branch may land between the two ops of a pair.
                if len == 1 || !targets.contains(&(pc + 1)) {
                    edits.push(Edit {
                        start: pc,
                        end: pc + len,
                        repl,
                    });
                }
            }
            step_widths(op, &mut widths, net_w, mem_w, consts);
        }
        let applied = apply_edits(code, edits);
        rewrites += applied;
        if applied == 0 {
            return rewrites;
        }
    }
}

/// Pushes/pops `widths` according to `op`, tracking known result widths.
fn step_widths(
    op: &Op,
    widths: &mut Vec<Option<u32>>,
    net_w: &[u32],
    mem_w: &[u32],
    consts: &[Val],
) {
    let (pops, pushes) = stack_effect(op);
    let mut args: Vec<Option<u32>> = Vec::new();
    for _ in 0..pops {
        args.push(widths.pop().flatten());
    }
    let zero = |w: Option<u32>| w.map(|w| Val::zero(w as usize));
    let out: Option<u32> = match op {
        Op::PushConst(k) => consts.get(*k as usize).map(|v| v.width()),
        Op::PushNet(n) => net_w.get(*n as usize).copied(),
        Op::PushMemElem0(m) | Op::MemRead(m) => mem_w.get(*m as usize).copied(),
        Op::MemReadConst { mem, .. } => mem_w.get(*mem as usize).copied(),
        Op::PushTime => Some(64),
        Op::BitSelect => Some(1),
        Op::SliceConst { hi, lo } => Some(hi - lo + 1),
        Op::Unary(u) => zero(args[0]).map(|a| ir::unary(*u, &a).width()),
        Op::Binary(b) => match (zero(args[1]), zero(args[0])) {
            (Some(a), Some(r)) => Some(ir::binary(*b, &a, &r).width()),
            _ => None,
        },
        Op::Concat2 => match (args[1], args[0]) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        },
        Op::Resize(w) => Some(*w),
        Op::Select => match (args[1], args[0]) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        },
        _ => None,
    };
    for i in 0..pushes {
        widths.push(if i == 0 { out } else { None });
    }
}

/// Checks whether `code[pc..pc+len)` can be strength-reduced given the
/// current stack widths; returns the replacement.
fn candidate(
    code: &[Op],
    pc: usize,
    widths: &[Option<u32>],
    consts: &mut Vec<Val>,
) -> Option<(usize, Vec<Op>)> {
    // Identity resize.
    if let Op::Resize(w) = code[pc] {
        if widths.last().copied().flatten() == Some(w) {
            return Some((1, Vec::new()));
        }
    }
    // [PushConst k, Binary op] with the left operand's width known.
    let (k, bop) = match (code.get(pc), code.get(pc + 1)) {
        (Some(Op::PushConst(k)), Some(Op::Binary(b))) => (*k, *b),
        _ => return None,
    };
    let aw = widths.last().copied().flatten()?;
    let c = consts.get(k as usize)?.clone();
    let a0 = Val::zero(aw as usize);
    let want = ir::binary(bop, &a0, &c).width();
    let shift_of = |c: &Val| -> Option<u32> {
        // `to_u64` truncates wide values; only trust it for narrow consts.
        if c.width() > 64 {
            return None;
        }
        let v = c.to_u64();
        if v != 0 && v.is_power_of_two() {
            Some(v.trailing_zeros())
        } else {
            None
        }
    };
    let cz = !c.to_bool();
    let fits = |repl: Vec<Op>, got: u32| -> Option<(usize, Vec<Op>)> {
        if got == want {
            Some((2, repl))
        } else {
            None
        }
    };
    match bop {
        BinaryOp::Mul => {
            if cz {
                let z = intern(consts, Val::zero(want as usize));
                return Some((2, vec![Op::Pop, Op::PushConst(z)]));
            }
            if c.width() <= 64 && c.to_u64() == 1 {
                return ident(aw, want);
            }
            let s = shift_of(&c)?;
            let sk = intern(consts, Val::Small(s as u64, 32));
            let got = ir::binary(BinaryOp::Shl, &a0, &Val::zero(32)).width();
            fits(vec![Op::PushConst(sk), Op::Binary(BinaryOp::Shl)], got)
        }
        BinaryOp::Div => {
            let s = shift_of(&c)?;
            if s == 0 {
                return ident(aw, want);
            }
            let sk = intern(consts, Val::Small(s as u64, 32));
            let got = ir::binary(BinaryOp::Shr, &a0, &Val::zero(32)).width();
            fits(vec![Op::PushConst(sk), Op::Binary(BinaryOp::Shr)], got)
        }
        BinaryOp::Rem => {
            let s = shift_of(&c)?;
            let mw = c.width().min(64);
            let mask = Val::Small(if s >= 64 { u64::MAX } else { (1u64 << s) - 1 }, mw);
            let got = ir::binary(BinaryOp::And, &a0, &Val::zero(mw as usize)).width();
            let mk = intern(consts, mask);
            fits(vec![Op::PushConst(mk), Op::Binary(BinaryOp::And)], got)
        }
        BinaryOp::And => {
            if cz {
                let z = intern(consts, Val::zero(want as usize));
                return Some((2, vec![Op::Pop, Op::PushConst(z)]));
            }
            None
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Or | BinaryOp::Xor if cz => ident(aw, want),
        BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShr if cz => ident(aw, want),
        _ => None,
    }
}

/// Replacement for an identity operation: nothing when the widths already
/// match, a resize otherwise.
fn ident(aw: u32, want: u32) -> Option<(usize, Vec<Op>)> {
    if aw == want {
        Some((2, Vec::new()))
    } else {
        Some((2, vec![Op::Resize(want)]))
    }
}

fn intern(consts: &mut Vec<Val>, v: Val) -> u32 {
    if let Some(i) = consts.iter().position(|c| *c == v) {
        return i as u32;
    }
    consts.push(v);
    (consts.len() - 1) as u32
}
