//! Dead-code elimination over the comb netlist: removes driver nodes whose
//! outputs can never be observed.
//!
//! Liveness roots are everything the outside world or the procedural side
//! can see: slots observed by name (ports; in a fabric image, what a trapped
//! task's arguments read), registers (snapshots and `$save` capture them),
//! nets and memories read by `always` guards, `@*` sensitivity lists, bodies,
//! `initial` blocks, or nb-site programs — and any comb node containing an
//! op with side effects beyond plain stores. Liveness propagates backward:
//! a node driving a live slot is live, and everything it reads becomes
//! live. Dead nodes are removed; their nets keep their declarations (slot
//! indices are baked into bytecode and name tables) and simply stay at
//! their init value.

use std::collections::BTreeSet;

use crate::relevel::{rebuild_tables, slot_use};
use synergy_codegen::ir::{CompiledProgram, Op, SlotRef};

/// Runs the pass; returns the number of comb nodes removed.
pub(crate) fn run(prog: &mut CompiledProgram) -> u64 {
    let mut live_nets: BTreeSet<u32> = BTreeSet::new();
    let mut live_mems: BTreeSet<u32> = BTreeSet::new();
    for (i, d) in prog.nets.iter().enumerate() {
        if d.is_register || d.observed {
            live_nets.insert(i as u32);
        }
    }
    for (i, d) in prog.mems.iter().enumerate() {
        if d.is_register || d.observed {
            live_mems.insert(i as u32);
        }
    }
    // Procedural reads and writes both root a slot: a procedurally-written
    // net with a comb driver is a multi-driver oddity we leave untouched.
    fn scan(code: &[Op], live_nets: &mut BTreeSet<u32>, live_mems: &mut BTreeSet<u32>) {
        let u = slot_use(code);
        live_nets.extend(u.reads_nets.iter().chain(u.write_nets.iter()));
        live_mems.extend(u.reads_mems.iter().chain(u.write_mems.iter()));
    }
    for a in &prog.always {
        for (_, g) in &a.guards {
            scan(g, &mut live_nets, &mut live_mems);
        }
        scan(&a.body, &mut live_nets, &mut live_mems);
        for s in &a.star {
            match s {
                SlotRef::Net(n) => {
                    live_nets.insert(*n);
                }
                SlotRef::Mem(m) => {
                    live_mems.insert(*m);
                }
            }
        }
    }
    for c in &prog.initials {
        scan(c, &mut live_nets, &mut live_mems);
    }
    for c in &prog.nb_sites {
        scan(c, &mut live_nets, &mut live_mems);
    }

    let uses: Vec<_> = prog.comb.iter().map(|n| slot_use(&n.code)).collect();
    let rooted: Vec<bool> = prog
        .comb
        .iter()
        .map(|n| n.code.iter().any(has_observable_effect))
        .collect();
    let mut live_node = vec![false; prog.comb.len()];
    // Backward propagation to a fixpoint. Node order is topological, so a
    // reverse sweep converges in one pass, but iterate defensively.
    loop {
        let mut changed = false;
        for i in (0..prog.comb.len()).rev() {
            if live_node[i] {
                continue;
            }
            let u = &uses[i];
            let alive = rooted[i]
                || u.write_nets.iter().any(|n| live_nets.contains(n))
                || u.write_mems.iter().any(|m| live_mems.contains(m));
            if alive {
                live_node[i] = true;
                live_nets.extend(u.reads_nets.iter());
                live_mems.extend(u.reads_mems.iter());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let before = prog.comb.len();
    let mut keep = live_node.iter();
    prog.comb.retain(|_| *keep.next().unwrap());
    let removed = (before - prog.comb.len()) as u64;
    if removed > 0 {
        let _ = rebuild_tables(prog);
    }
    removed
}

/// `true` for ops whose presence forces a comb node to stay: anything that
/// is neither a pure value op, plain stack/control plumbing, nor a store.
fn has_observable_effect(op: &Op) -> bool {
    if crate::analysis::is_speculable(op) {
        return false;
    }
    !matches!(
        op,
        Op::Jump(_)
            | Op::JumpIfZero(_)
            | Op::JumpIfNonZero(_)
            | Op::Pop
            | Op::StoreTemp(_)
            | Op::StoreNet(_)
            | Op::StoreBit(_)
            | Op::StoreSliceDyn(_)
            | Op::StoreMem(_)
            | Op::StoreMemConst { .. }
    )
}
