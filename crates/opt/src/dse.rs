//! Dead-store elimination: removes a `StoreNet`/`StoreMemConst` whose
//! target is definitely overwritten later in the same basic block with no
//! intervening read or observation point.
//!
//! The scan is backward per block. Observation points that end deadness
//! for *all* slots are the ops that can snapshot or abort the design
//! mid-program: `LoopCheck` (can yield to a checkpoint), `Finish`, and
//! `Effect` (can run `$save`). Partial stores (`StoreBit`,
//! `StoreSliceDyn`) read their target implicitly and therefore count as
//! reads. Non-blocking `NbSchedule` is not a barrier: its latch runs after
//! the block completes and sees final values either way. A `Pop` whose
//! producer is pure goes the same way, so no `Push; Pop` pair survives for
//! the stack oracle to execute and the op count to carry.

use std::collections::HashSet;

use crate::analysis::{apply_edits, blocks, pure_range, stack_effect, Edit, StackSim};
use synergy_codegen::ir::{Code, CompiledProgram, Op};

/// Runs the pass; returns the number of stores removed.
pub(crate) fn run(prog: &mut CompiledProgram) -> u64 {
    let depths: Vec<u32> = prog.mems.iter().map(|m| m.depth).collect();
    let mut rewrites = 0u64;
    for node in &mut prog.comb {
        rewrites += dse_code(&mut node.code, &depths);
    }
    for a in &mut prog.always {
        for (_, g) in &mut a.guards {
            rewrites += dse_code(g, &depths);
        }
        rewrites += dse_code(&mut a.body, &depths);
    }
    for c in &mut prog.initials {
        rewrites += dse_code(c, &depths);
    }
    for c in &mut prog.nb_sites {
        rewrites += dse_code(c, &depths);
    }
    if rewrites > 0 {
        let _ = crate::relevel::rebuild_tables(prog);
    }
    rewrites
}

fn dse_code(code: &mut Code, depths: &[u32]) -> u64 {
    let mut rewrites = 0u64;
    loop {
        let mut edits: Vec<Edit> = Vec::new();
        for (bs, be) in blocks(code) {
            analyze_block(code, bs, be, depths, &mut edits);
        }
        let applied = apply_edits(code, edits);
        rewrites += applied;
        if applied == 0 {
            return rewrites;
        }
    }
}

fn analyze_block(code: &[Op], bs: usize, be: usize, depths: &[u32], edits: &mut Vec<Edit>) {
    // Forward pass: the start of the producing range feeding each op's
    // deepest operand.
    let mut sim = StackSim::new();
    let mut full_start: Vec<Option<usize>> = vec![None; be - bs];
    for pc in bs..be {
        let op = &code[pc];
        full_start[pc - bs] = sim.operands_start(stack_effect(op).0);
        sim.step(pc, op);
    }

    // Backward pass: a slot is dead at `pc` when it is stored again before
    // any read or observation point.
    let mut dead_nets: HashSet<u32> = HashSet::new();
    let mut dead_elems: HashSet<(u32, u32)> = HashSet::new();
    let mut kept: Vec<(usize, usize)> = Vec::new();
    for pc in (bs..be).rev() {
        match &code[pc] {
            Op::StoreNet(n) => {
                if dead_nets.contains(n) {
                    push_delete(code, pc, full_start[pc - bs], &mut kept, edits);
                }
                dead_nets.insert(*n);
            }
            // A constant store past the depth is dropped by every engine:
            // dead wherever it stands, and it kills nothing (a read of the
            // same out-of-range element reads zero, not this value — the
            // pair can never meet in `dead_elems`, which holds in-range
            // elements only).
            Op::StoreMemConst { mem, elem } if *elem >= depths[*mem as usize] => {
                push_delete(code, pc, full_start[pc - bs], &mut kept, edits);
            }
            Op::StoreMemConst { mem, elem } => {
                if dead_elems.contains(&(*mem, *elem)) {
                    push_delete(code, pc, full_start[pc - bs], &mut kept, edits);
                }
                dead_elems.insert((*mem, *elem));
            }
            // A popped value whose producer is pure was computed for
            // nothing — what a store replaced by a `Pop` (here, or by `cse`)
            // leaves behind once its producer turns out deletable.
            Op::Pop => push_delete(code, pc, full_start[pc - bs], &mut kept, edits),
            Op::PushNet(n) => {
                dead_nets.remove(n);
            }
            Op::StoreBit(n) | Op::StoreSliceDyn(n) => {
                dead_nets.remove(n);
            }
            Op::PushMemElem0(m) => {
                dead_elems.remove(&(*m, 0));
            }
            Op::MemReadConst { mem, elem } => {
                dead_elems.remove(&(*mem, *elem));
            }
            Op::MemRead(m) | Op::StoreMem(m) => {
                // Dynamic access: unknown element. A read revives the whole
                // memory; a dynamic store also stops elimination (deleting
                // an earlier const store would change what it overwrites).
                dead_elems.retain(|&(mm, _)| mm != *m);
            }
            Op::LoopCheck(_) | Op::Finish | Op::Effect(_) => {
                dead_nets.clear();
                dead_elems.clear();
            }
            _ => {}
        }
    }
}

/// Queues deletion of the dead store (or `Pop`) at `pc`: with its whole
/// producing range when that is pure, otherwise the store alone becomes a
/// `Pop`.
fn push_delete(
    code: &[Op],
    pc: usize,
    start: Option<usize>,
    kept: &mut Vec<(usize, usize)>,
    edits: &mut Vec<Edit>,
) {
    let free = |kept: &[(usize, usize)], s: usize, e: usize| {
        !kept.iter().any(|&(ks, ke)| s < ke && ks < e)
    };
    let (s, repl) = match start {
        Some(s) if pure_range(code, s, pc) && free(kept, s, pc + 1) => (s, Vec::new()),
        _ if code[pc] != Op::Pop && free(kept, pc, pc + 1) => (pc, vec![Op::Pop]),
        _ => return,
    };
    kept.push((s, pc + 1));
    edits.push(Edit {
        start: s,
        end: pc + 1,
        repl,
    });
}
